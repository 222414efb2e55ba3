//! The repository benchmark: one command runs one workload for one seed,
//! checks the outputs, and prints every metric by name with its unit.
//!
//! ```text
//! perfbench --workload <prefix_pool|offline_int8>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --selftest
//! ```
//!
//! `--trace 0` measures the end-to-end metrics and records nothing per
//! layer. `--trace 1` runs the same workload untraced and then traced,
//! reports the per-layer metrics of the traced pass plus the difference
//! between the two passes (the tracing overhead), and writes the spans to
//! `perfbench/out/`. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See `perfbench/README.md` for the workloads and what each metric
//! should move.

mod layers;
mod offline;
mod serving;
mod spans;

use llmib_bench::harness::SloSpec;
use llmib_types::stats::{p50, percentile};
use llmib_types::{LatencySample, Seconds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use std::process::ExitCode;
use std::time::Instant;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Every per-layer metric with its unit. A traced run reports each one;
/// a layer that is not on the workload's path reports 0.
const PER_LAYER: [(&str, &str); 34] = [
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.sent", "count"),
    ("serve.client.submit_us_p99", "us"),
    ("serve.server.queue_wait_ms_p50", "ms"),
    ("serve.server.queue_wait_ms_p90", "ms"),
    ("serve.server.prefill_ms_p50", "ms"),
    ("serve.server.batch_occupancy_mean", "seqs"),
    ("serve.server.kv_peak_util", "fraction"),
    ("serve.server.decode_steps", "count"),
    ("serve.server.retries", "count"),
    ("serve.server.evictions", "count"),
    ("serve.server.token_gap_ms_p95", "ms"),
    ("serve.spans.closure", "ratio"),
    ("serve.router.replica_skew", "ratio"),
    ("serve.router.migrations", "count"),
    ("engine.prefix.hit_rate", "fraction"),
    ("engine.prefix.saved_prompt_frac", "fraction"),
    ("engine.batch.admit_ms_p50", "ms"),
    ("engine.batch.step_ms_p50", "ms"),
    ("engine.batch.step_ms_p99", "ms"),
    ("engine.step.attn_ms", "ms"),
    ("engine.step.ffn_ms", "ms"),
    ("engine.step.lm_head_ms", "ms"),
    ("engine.step.forward_ms", "ms"),
    ("engine.step.closure", "ratio"),
    ("engine.kernel.f32_gemm.gflops", "GFLOP/s"),
    ("engine.kernel.f32_gemm.roofline_frac", "fraction"),
    ("engine.kernel.int8_gemm.gflops", "GFLOP/s"),
    ("engine.kernel.int8_gemm.roofline_frac", "fraction"),
    ("engine.kernel.attention.gflops", "GFLOP/s"),
    ("engine.kernel.attention.roofline_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
    ("roofline.peak_gflops", "GFLOP/s"),
    ("roofline.peak_gbps", "GB/s"),
];

/// Fixed latency limits a request must meet to count towards goodput.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    pub ttft_s: f64,
    pub itl_s: f64,
}

/// The requests of one stretch of a run: the TTFT of each, counted from
/// its due time, and the gaps between its consecutive tokens, in seconds.
#[derive(Debug, Default)]
pub struct Window {
    pub ttft: Vec<f64>,
    pub gaps: Vec<f64>,
}

/// The latency and throughput metrics every workload reports.
///
/// Each TTFT and token-gap percentile is taken within each window and the
/// run reports the median over windows, so a slow spell of the shared host
/// that covers fewer than half the windows does not move it. Goodput,
/// attainment and throughput count the completed requests (`samples`, TTFT
/// counted from the due time) against the number sent, over the span from
/// the first due time to the last finish.
pub fn latency_metrics(
    samples: &[LatencySample],
    windows: &[Window],
    sent: usize,
    span_s: f64,
    limits: Limits,
) -> Vec<Metric> {
    let slo = SloSpec::new(
        Some(Seconds(limits.ttft_s)),
        Some(Seconds(limits.itl_s)),
        1.0,
    );
    let median_ms = |of: &dyn Fn(&Window) -> &Vec<f64>, pct: f64| -> f64 {
        let per_window: Vec<f64> = windows
            .iter()
            .filter(|w| !of(w).is_empty())
            .map(|w| percentile(of(w), pct) * 1e3)
            .collect();
        p50(&per_window)
    };
    let tokens = |keep: &dyn Fn(&LatencySample) -> bool| -> f64 {
        samples
            .iter()
            .filter(|s| keep(s))
            .map(|s| f64::from(s.output_tokens))
            .fold(0.0, |a, t| a + t)
    };
    let attaining = samples.iter().filter(|s| slo.attains(s)).count();
    let span_s = span_s.max(f64::MIN_POSITIVE);
    vec![
        metric("ttft_p50_ms", median_ms(&|w| &w.ttft, 50.0), "ms"),
        metric("itl_p50_ms", median_ms(&|w| &w.gaps, 50.0), "ms"),
        metric(
            "goodput_tok_s",
            tokens(&|s| slo.attains(s)) / span_s,
            "tok/s",
        ),
        metric(
            "slo_attainment",
            attaining as f64 / sent.max(1) as f64,
            "fraction",
        ),
        metric("throughput_tok_s", tokens(&|_| true) / span_s, "tok/s"),
    ]
}

/// What one pass of a workload produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Every output and bookkeeping check passed.
    pub correct: bool,
    /// Requests (or offline sequences) sent.
    pub attempted: u64,
    /// Sent but not completed: rejected, failed or cancelled.
    pub failed: u64,
    /// End-to-end metrics (untraced pass) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Spans of a traced pass, written out at the end.
    pub spans: Vec<spans::Span>,
}

impl RunResult {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PrefixPool,
    OfflineInt8,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::PrefixPool, Workload::OfflineInt8];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PrefixPool => "prefix_pool",
            Workload::OfflineInt8 => "offline_int8",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Sizes that differ between a measured run and the self-test's tiny run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Requests each set-up sends through a throwaway pool (or session)
    /// before the measured one starts.
    pub warmup_requests: usize,
    /// Sequences per closed offline batch.
    pub offline_batch: usize,
    /// Completed streams replayed offline and compared bitwise.
    pub replay_sample: usize,
}

const FULL: Scale = Scale {
    setups: 9,
    warmup_requests: 8,
    offline_batch: 32,
    replay_sample: 6,
};

const TINY: Scale = Scale {
    setups: 1,
    warmup_requests: 1,
    offline_batch: 4,
    replay_sample: 2,
};

/// One pass of `workload`; `traced` selects the per-layer metrics.
fn run_pass(workload: Workload, seed: u64, seconds: f64, traced: bool, scale: Scale) -> RunResult {
    match workload {
        Workload::PrefixPool => serving::run(seed, seconds, traced, scale),
        Workload::OfflineInt8 => offline::run(seed, seconds, traced, scale),
    }
}

/// The traced run: an untraced pass, then a traced pass of the same
/// seed. Per-layer metrics come from the traced pass; the tracing
/// overhead is the traced pass's change in the workload's throughput.
fn run_traced(workload: Workload, seed: u64, seconds: f64, scale: Scale) -> RunResult {
    let plain = run_pass(workload, seed, seconds, false, scale);
    let mut traced = run_pass(workload, seed, seconds, true, scale);
    let headline = match workload {
        Workload::OfflineInt8 => "decode_tok_s",
        _ => "throughput_tok_s",
    };
    let with = traced.get(&format!("trace.pass.{headline}")).unwrap_or(0.0);
    let without = plain.get(headline).unwrap_or(0.0);
    for m in &plain.metrics {
        eprintln!("untraced {} = {:.6} {}", m.name, m.value, m.unit);
    }
    traced
        .metrics
        .retain(|m| !m.name.starts_with("trace.pass."));
    traced.metrics.push(metric(
        "trace.overhead_frac",
        if without > 0.0 {
            (without - with) / without
        } else {
            0.0
        },
        "fraction",
    ));
    for (name, unit) in PER_LAYER {
        if traced.get(name).is_none() {
            traced.metrics.push(metric(name, 0.0, unit));
        }
    }
    traced.correct &= plain.correct;
    traced.attempted += plain.attempted;
    traced.failed += plain.failed;
    traced
}

fn result_json(r: &RunResult) -> String {
    let metrics = r
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Value::Object(vec![
                    ("value".into(), Value::Float(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let doc = Value::Object(vec![
        ("correct".into(), Value::Bool(r.correct)),
        ("attempted".into(), Value::Int(r.attempted as i64)),
        ("failed".into(), Value::Int(r.failed as i64)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&doc).expect("a Value always serializes")
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// `k` distinct ids drawn from `ids` by `seed`.
pub fn seeded_sample(ids: &[u64], k: usize, seed: u64) -> Vec<u64> {
    let mut pool = ids.to_vec();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc4ec_0001);
    let mut out = Vec::new();
    while out.len() < k && !pool.is_empty() {
        out.push(pool.swap_remove(rng.gen_range(0..pool.len())));
    }
    out
}

/// Peak resident memory of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--selftest") {
        return match selftest() {
            Ok(()) => {
                println!("selftest passed");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("selftest failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <prefix_pool|offline_int8> \
                 --seed <n> --seconds <s> --trace <0|1> | --selftest"
            );
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let result = if args.trace {
        run_traced(args.workload, args.seed, args.seconds, FULL)
    } else {
        run_pass(args.workload, args.seed, args.seconds, false, FULL)
    };
    if args.trace {
        match spans::write(args.workload.name(), args.seed, &result.spans) {
            Ok(path) => eprintln!("wrote {} spans to {path}", result.spans.len()),
            Err(e) => {
                eprintln!("perfbench: cannot write spans: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    for m in &result.metrics {
        println!("{} = {:.6} {}", m.name, m.value, m.unit);
    }
    println!("wall_s = {:.3}", started.elapsed().as_secs_f64());
    println!("{}", result_json(&result));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: output or bookkeeping check failed");
        ExitCode::FAILURE
    }
}

/// Tiny runs of every workload, traced and untraced: every metric named
/// in `BENCHMARK.json` must be printed with its unit, and the output check
/// must reject a corrupted token stream.
fn selftest() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json must be in the working directory: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let declared = |key: &str| -> Result<Vec<(String, String)>, String> {
        let list = doc
            .get(key)
            .and_then(Value::as_array)
            .ok_or(format!("BENCHMARK.json has no {key} list"))?;
        list.iter()
            .map(|m| {
                let name = m.get("name").and_then(Value::as_str);
                let unit = m.get("unit").and_then(Value::as_str);
                match (name, unit) {
                    (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                    _ => Err(format!("{key} entry without name and unit")),
                }
            })
            .collect()
    };
    let end_to_end = declared("end_to_end")?;
    let per_layer = declared("per_layer")?;
    for workload in Workload::ALL {
        for (traced, wanted) in [(false, &end_to_end), (true, &per_layer)] {
            let r = if traced {
                run_traced(workload, 1, 1.5, TINY)
            } else {
                run_pass(workload, 1, 1.5, false, TINY)
            };
            let printed = result_json(&r);
            if !r.correct || r.failed != 0 || r.attempted == 0 {
                return Err(format!(
                    "{} (trace {}): correct={} attempted={} failed={}",
                    workload.name(),
                    traced as u8,
                    r.correct,
                    r.attempted,
                    r.failed
                ));
            }
            for (name, unit) in wanted {
                let found = r.metrics.iter().find(|m| &m.name == name);
                match found {
                    Some(m) if m.unit == unit && m.value.is_finite() => {}
                    Some(m) => {
                        return Err(format!(
                            "{}: {name} printed as {} {} (want unit {unit})",
                            workload.name(),
                            m.value,
                            m.unit
                        ))
                    }
                    None => return Err(format!("{}: {name} not printed", workload.name())),
                }
                if !printed.contains(&format!("\"{name}\"")) {
                    return Err(format!(
                        "{}: {name} missing from the JSON line",
                        workload.name()
                    ));
                }
            }
            eprintln!("selftest: {} trace {} ok", workload.name(), traced as u8);
        }
    }
    serving::selftest_rejects_corruption()?;
    offline::selftest_rejects_corruption()?;
    eprintln!("selftest: corrupted streams are rejected");
    Ok(())
}
