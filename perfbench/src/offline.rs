//! `offline_int8`: closed batches of Square-profile requests admitted at
//! once into a `BatchSession` over INT8 weights and stepped to completion.
//! No server, scheduler or router.

use crate::layers::{self, StepShape};
use crate::serving::WARMUP_SEED;
use crate::spans::{self, Span};
use crate::{
    latency_metrics, metric, peak_rss_mib, seeded_sample, Limits, RunResult, Scale, Window,
};
use llmib_engine::{BatchSession, EngineConfig, QuantMode, Sampler, TransformerModel};
use llmib_models::ModelId;
use llmib_serve::deterministic_prompt_for;
use llmib_types::stats::{p50, percentile};
use llmib_types::{LatencySample, Seconds};
use llmib_workloads::TrafficProfile;
use std::time::Instant;

/// Hidden width of the offline model: `scaled_from(Llama3_8b, 128)`.
const HIDDEN: usize = 128;
const MODEL_SEED: u64 = 11;
/// Prompt and output length of every request (the paper's square grid).
const LEN: u32 = 128;
/// Fixed limits for goodput, about twice the p90 TTFT and the p99 token
/// gap of the commit that introduced the benchmark, in the host's slow
/// phases.
const LIMITS: Limits = Limits {
    ttft_s: 6.0,
    itl_s: 0.060,
};

fn build_model() -> TransformerModel {
    let cfg = EngineConfig::scaled_from(ModelId::Llama3_8b, HIDDEN, MODEL_SEED);
    TransformerModel::with_quant(cfg, QuantMode::Int8).expect("the offline model config is valid")
}

/// One offline sequence: its prompt, budget and generated tokens.
struct Sequence {
    id: u64,
    prompt: Vec<usize>,
    max_new: usize,
    tokens: Vec<usize>,
    /// When each token was returned, seconds since its batch started.
    token_at: Vec<f64>,
}

/// Batch `b` of `size` requests, fully determined by `seed`.
fn batch_requests(size: usize, seed: u64, b: u64, vocab: usize) -> Vec<Sequence> {
    TrafficProfile::Square { len: LEN }
        .trace(size, 1.0, seed.wrapping_add(b))
        .into_iter()
        .map(|mut req| {
            req.id += b * size as u64;
            Sequence {
                id: req.id,
                prompt: deterministic_prompt_for(&req, vocab),
                max_new: req.output_tokens as usize,
                tokens: Vec::new(),
                token_at: Vec::new(),
            }
        })
        .collect()
}

/// Per-call timings of one closed batch.
#[derive(Default)]
struct Timings {
    admit_s: Vec<f64>,
    step_s: Vec<f64>,
}

/// Admit every sequence at once, then step the session to completion.
/// With `spans`, each call is also recorded on `clock`'s timeline.
fn run_batch(
    model: &TransformerModel,
    seqs: &mut [Sequence],
    t: &mut Timings,
    mut spans: Option<(&mut Vec<Span>, Instant)>,
) -> bool {
    let start = Instant::now();
    let mut session = BatchSession::new(model);
    let mut ok = true;
    for s in seqs.iter() {
        let a = Instant::now();
        ok &= session
            .admit(s.id, &s.prompt, s.max_new, Sampler::Greedy)
            .is_ok();
        t.admit_s.push(a.elapsed().as_secs_f64());
        if let Some((out, clock)) = spans.as_mut() {
            let end = clock.elapsed().as_secs_f64();
            spans::push(
                out,
                "admit",
                end - a.elapsed().as_secs_f64(),
                end,
                None,
                Some(s.id),
            );
        }
    }
    while !session.is_empty() {
        let a = Instant::now();
        let events = session.step();
        t.step_s.push(a.elapsed().as_secs_f64());
        if let Some((out, clock)) = spans.as_mut() {
            let end = clock.elapsed().as_secs_f64();
            spans::push(
                out,
                "step",
                end - a.elapsed().as_secs_f64(),
                end,
                None,
                None,
            );
        }
        let at = start.elapsed().as_secs_f64();
        for ev in events {
            if let Some(s) = seqs.iter_mut().find(|s| s.id == ev.seq) {
                s.tokens.push(ev.token);
                s.token_at.push(at);
            }
        }
    }
    ok
}

/// Replay `sample` sequences through a fresh session and compare bitwise.
fn streams_match(model: &TransformerModel, sample: &[&Sequence]) -> bool {
    let mut session = BatchSession::new(model);
    for s in sample {
        if session
            .admit(s.id, &s.prompt, s.max_new, Sampler::Greedy)
            .is_err()
        {
            return false;
        }
    }
    session
        .run_to_completion()
        .iter()
        .zip(sample)
        .all(|((id, tokens), s)| *id == s.id && *tokens == s.tokens)
}

pub fn run(seed: u64, seconds: f64, traced: bool, scale: Scale) -> RunResult {
    let mut setup_s = Vec::new();
    let mut model = None;
    for _ in 0..scale.setups {
        drop(model.take());
        let t0 = Instant::now();
        let m = build_model();
        let vocab = m.config().vocab;
        let mut warm = batch_requests(scale.warmup_requests, WARMUP_SEED, 0, vocab);
        for s in &mut warm {
            s.max_new = 32;
        }
        run_batch(&m, &mut warm, &mut Timings::default(), None);
        setup_s.push(t0.elapsed().as_secs_f64());
        model = Some(m);
    }
    let model = model.expect("at least one set-up");
    let vocab = model.config().vocab;

    let clock = Instant::now();
    let mut spans_out = Vec::new();
    let mut timings = Timings::default();
    let mut seqs: Vec<Sequence> = Vec::new();
    let mut admitted_ok = true;
    // Per-batch rates; each run reports their medians, which a slow spell
    // of the host during one batch does not move.
    let (mut prefill_rates, mut decode_rates) = (Vec::new(), Vec::new());
    let mut wall_s = 0.0;
    let mut b = 0u64;
    let mut last_batch_s = 0.0;
    // Start another batch only if it should end within the run's length.
    while b == 0 || clock.elapsed().as_secs_f64() + last_batch_s < seconds {
        let batch_start = clock.elapsed().as_secs_f64();
        let mut batch = batch_requests(scale.offline_batch, seed, b, vocab);
        let spans = traced.then_some((&mut spans_out, clock));
        let (a0, s0) = (timings.admit_s.len(), timings.step_s.len());
        admitted_ok &= run_batch(&model, &mut batch, &mut timings, spans);
        let prompt: usize = batch.iter().map(|s| s.prompt.len()).sum();
        let generated: usize = batch.iter().map(|s| s.tokens.len()).sum();
        let (admit_s, step_s): (f64, f64) = (
            timings.admit_s[a0..].iter().sum(),
            timings.step_s[s0..].iter().sum(),
        );
        prefill_rates.push(prompt as f64 / admit_s);
        decode_rates.push(generated as f64 / step_s);
        wall_s += batch
            .iter()
            .filter_map(|s| s.token_at.last())
            .fold(0.0, |a: f64, &t| a.max(t));
        seqs.extend(batch);
        b += 1;
        last_batch_s = clock.elapsed().as_secs_f64() - batch_start;
    }
    let rss = peak_rss_mib();

    // Output checks, outside the timed window.
    let whole = seqs.iter().filter(|s| s.tokens.len() == s.max_new).count();
    println!(
        "offline_int8: batches {b}, sent {}, completed {whole}, rejected 0, failed {}",
        seqs.len(),
        seqs.len() - whole
    );
    let ids: Vec<u64> = seqs.iter().map(|s| s.id).collect();
    let sample: Vec<&Sequence> = seeded_sample(&ids, scale.replay_sample, seed)
        .iter()
        .filter_map(|id| seqs.iter().find(|s| s.id == *id))
        .collect();
    let replay_ok = streams_match(&model, &sample);
    if !replay_ok {
        eprintln!("offline_int8: check failed: sampled streams differ from a fresh session");
    }
    let correct = admitted_ok && whole == seqs.len() && replay_ok;

    let prefill_tok_s = p50(&prefill_rates);
    let decode_tok_s = p50(&decode_rates);
    // Every sequence of a batch is due when the batch starts.
    let samples: Vec<LatencySample> = seqs
        .iter()
        .filter(|s| s.tokens.len() == s.max_new)
        .map(|s| {
            let (first, last) = (s.token_at[0], s.token_at[s.token_at.len() - 1]);
            LatencySample {
                id: s.id,
                prompt_tokens: s.prompt.len() as u32,
                output_tokens: s.tokens.len() as u32,
                ttft: Seconds(first),
                itl: (s.tokens.len() > 1)
                    .then(|| Seconds((last - first) / (s.tokens.len() - 1) as f64)),
                e2e: Seconds(last),
            }
        })
        .collect();
    // Each batch is a window of its own.
    let windows: Vec<Window> = seqs
        .chunks(scale.offline_batch)
        .map(|batch| Window {
            ttft: batch
                .iter()
                .filter_map(|s| s.token_at.first().copied())
                .collect(),
            gaps: batch
                .iter()
                .flat_map(|s| s.token_at.windows(2).map(|w| w[1] - w[0]))
                .collect(),
        })
        .collect();
    let mut out = RunResult {
        correct,
        attempted: seqs.len() as u64,
        failed: (seqs.len() - whole) as u64,
        ..RunResult::default()
    };
    if !traced {
        out.metrics = vec![metric("setup_s", p50(&setup_s), "s")];
        out.metrics.extend(latency_metrics(
            &samples,
            &windows,
            seqs.len(),
            wall_s,
            LIMITS,
        ));
        out.metrics.extend([
            metric("prefill_tok_s", prefill_tok_s, "tok/s"),
            metric("decode_tok_s", decode_tok_s, "tok/s"),
            metric("peak_rss_mib", rss, "MiB"),
        ]);
        return out;
    }

    let shape = StepShape {
        batch: scale.offline_batch,
        ctx: (LEN + LEN / 2) as usize,
    };
    let mut m = vec![metric("loadgen.sent", seqs.len() as f64, "count")];
    m.extend([
        metric(
            "engine.batch.admit_ms_p50",
            p50(&timings.admit_s) * 1e3,
            "ms",
        ),
        metric("engine.batch.step_ms_p50", p50(&timings.step_s) * 1e3, "ms"),
        metric(
            "engine.batch.step_ms_p99",
            percentile(&timings.step_s, 99.0) * 1e3,
            "ms",
        ),
        metric("trace.pass.decode_tok_s", decode_tok_s, "tok/s"),
    ]);
    m.extend(layers::engine_metrics(
        &model,
        QuantMode::Int8,
        shape,
        &mut spans_out,
        clock,
    ));
    out.metrics = m;
    out.spans = spans_out;
    out
}

/// The output check must reject a corrupted stream.
pub fn selftest_rejects_corruption() -> Result<(), String> {
    let model = build_model();
    let mut seqs = batch_requests(2, 5, 0, model.config().vocab);
    for s in &mut seqs {
        s.max_new = 8;
    }
    run_batch(&model, &mut seqs, &mut Timings::default(), None);
    if !streams_match(&model, &seqs.iter().collect::<Vec<_>>()) {
        return Err("intact offline streams failed the output check".into());
    }
    let t = &mut seqs[0].tokens[2];
    *t = (*t + 1) % model.config().vocab;
    if streams_match(&model, &seqs.iter().collect::<Vec<_>>()) {
        return Err("a corrupted offline stream passed the output check".into());
    }
    Ok(())
}
