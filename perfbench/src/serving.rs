//! `prefix_pool`: open-loop Poisson arrivals from one generator thread
//! into a live two-replica `ReplicaPool`, most prompts sharing one of a
//! few long system prompts.

use crate::layers::{self, StepShape};
use crate::spans::{self, Span};
use crate::{
    latency_metrics, metric, peak_rss_mib, seeded_sample, Limits, Metric, RunResult, Scale, Window,
};
use llmib_engine::{EngineConfig, QuantMode, TransformerModel};
use llmib_models::ModelId;
use llmib_serve::{
    replay_admission_order, Client, PoolConfig, PoolReport, ReplicaPool, RequestHandle,
    RequestMetrics, ServeEvent, ServeReport, SubmitOptions,
};
use llmib_types::stats::{p50, percentile};
use llmib_types::{LatencySample, Request, Seconds};
use llmib_workloads::{SharedPrefix, TrafficProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hidden width of the serving model: `scaled_from(Llama3_8b, 32)` is a
/// 4-layer GQA model (4 query heads, 1 KV head, 513-token vocabulary).
const HIDDEN: usize = 32;
const MODEL_SEED: u64 = 7;
/// Raised from `scaled_from`'s 512 so a sharing request (544 prompt + 32
/// output tokens) fits.
const MAX_SEQ: usize = 1024;

/// Prompts: one of `SYSTEM_PROMPTS` system prompts of `SYSTEM_TOKENS`
/// tokens (with probability `SHARE`), then a random suffix of
/// `SUFFIX_TOKENS`; each request generates `SUFFIX_TOKENS`.
const SYSTEM_PROMPTS: usize = 4;
const SYSTEM_TOKENS: u32 = 512;
const SUFFIX_TOKENS: u32 = 32;
const SHARE: f64 = 0.9;

/// Seed of the warm-up burst, fixed so every set-up does the same work.
pub const WARMUP_SEED: u64 = 0x3a7e_0001;

/// Fixed arrival rate. At twice this rate the TTFT and token-gap tails
/// doubled whenever the host lent more than a third of its CPU time to
/// other tenants; at this rate they moved far less.
const RATE_PER_S: f64 = 20.0;
/// Latency percentiles are taken per window of this many seconds of due
/// times, and the run reports their median.
const WINDOW_S: f64 = 5.0;
/// Fixed latency limits, set once at about twice the p90 TTFT and the p99
/// token gap that runs of this benchmark showed in the host's slow phases;
/// never derived from the run being scored.
const LIMITS: Limits = Limits {
    ttft_s: 0.040,
    itl_s: 0.005,
};

fn build_model() -> TransformerModel {
    let mut cfg = EngineConfig::scaled_from(ModelId::Llama3_8b, HIDDEN, MODEL_SEED);
    cfg.max_seq = MAX_SEQ;
    TransformerModel::with_quant(cfg, QuantMode::F32).expect("the serving model config is valid")
}

fn start_pool(model: &Arc<TransformerModel>) -> ReplicaPool {
    ReplicaPool::start(Arc::clone(model), PoolConfig::default())
        .expect("default pool config is valid")
}

/// A trace entry with the exact prompt the engine will see.
struct Prepared {
    req: Request,
    prompt: Vec<usize>,
}

/// The system prompt `k`: distinct prompts differ from their first token.
fn system_prompt(k: usize, len: usize, vocab: usize) -> Vec<usize> {
    (0..len).map(|j| (j * 13 + 7 + 101 * k) % vocab).collect()
}

/// `n` requests arriving at `rate`, fully determined by `seed`.
///
/// `deterministic_prompt_for` gives every sharer the same prefix and
/// repeats its suffixes every `vocab` ids, so the prompts are built here:
/// one of several system prompts with Zipf(1) popularity, then a random
/// suffix.
///
/// The arrival gaps are stratified: each drawn gap is replaced by the
/// middle of the stratum of the exponential distribution that its rank
/// within the trace falls in. Every seed thus offers the same gaps over the
/// same window, in its own order; drawn independently, the window alone
/// varies by 1/sqrt(n) between seeds and the gap mix moves the TTFT tail.
fn prepare(n: usize, rate: f64, seed: u64, vocab: usize) -> Vec<Prepared> {
    let prefix = SharedPrefix {
        tokens: SYSTEM_TOKENS,
        share: SHARE,
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5157_e3a1);
    let weights: Vec<f64> = (1..=SYSTEM_PROMPTS).map(|k| 1.0 / k as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut reqs: Vec<Prepared> = TrafficProfile::Square { len: SUFFIX_TOKENS }
        .trace_with_prefix(n, rate, seed, prefix)
        .into_iter()
        .map(|req| {
            let shared = req.shared_prefix_tokens as usize;
            let mut prompt = Vec::with_capacity(req.prompt_tokens as usize);
            if shared > 0 {
                let mut u = rng.gen_range(0.0..total);
                let k = weights
                    .iter()
                    .position(|w| {
                        u -= w;
                        u < 0.0
                    })
                    .unwrap_or(SYSTEM_PROMPTS - 1);
                prompt.extend(system_prompt(k, shared, vocab));
            }
            while prompt.len() < req.prompt_tokens as usize {
                prompt.push(rng.gen_range(0..vocab));
            }
            Prepared { req, prompt }
        })
        .collect();
    let arrivals: Vec<f64> = reqs.iter().map(|p| p.req.arrival.value()).collect();
    let gaps: Vec<f64> = arrivals
        .iter()
        .zip(std::iter::once(&0.0).chain(&arrivals))
        .map(|(t, prev)| t - prev)
        .collect();
    let mut t = 0.0;
    for (p, rank) in reqs.iter_mut().zip(ranks(&gaps)) {
        let middle = (rank as f64 + 0.5) / n as f64;
        t += -(1.0 - middle).ln() / rate;
        p.req.arrival = Seconds(t);
    }
    reqs
}

/// The rank of each of `values` among them; ties keep their order.
fn ranks(values: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]).then(a.cmp(&b)));
    let mut rank = vec![0; values.len()];
    for (r, i) in order.into_iter().enumerate() {
        rank[i] = r;
    }
    rank
}

/// Prefill and decode a fixed burst through a throwaway pool, so the
/// measured one starts in a warm process. The burst does not depend on
/// the run's seed: every set-up does the same work.
fn warm_up(model: &Arc<TransformerModel>, n: usize) {
    let vocab = model.config().vocab;
    let pool = start_pool(model);
    let client = pool.client();
    let handles: Vec<RequestHandle> = prepare(n, 1.0, WARMUP_SEED, vocab)
        .into_iter()
        .map(|p| {
            let budget = p.req.output_tokens as usize;
            client
                .submit(p.prompt, SubmitOptions::greedy(budget))
                .expect("an idle pool accepts the warm-up burst")
        })
        .collect();
    for h in handles {
        assert!(
            h.wait().tokens().is_some(),
            "warm-up request did not complete"
        );
    }
    pool.shutdown();
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Completed,
    RefusedAtDoor,
    Rejected,
    Failed,
    Cancelled,
}

/// Everything the client side saw of one request.
struct Outcome {
    /// Trace index.
    idx: usize,
    server_id: Option<u64>,
    /// Generator lateness: send time minus due time.
    late_s: f64,
    /// Send time, seconds since the generator started.
    sent_s: f64,
    /// Duration of the `Client::submit` call (traced passes only).
    submit_s: f64,
    status: Status,
    tokens: Vec<usize>,
    /// Server stamps of each token, seconds since the server started.
    token_at: Vec<f64>,
    admitted_at: Option<f64>,
    /// Prompt tokens served from the prefix cache at admission.
    cached_tokens: u32,
    metrics: Option<RequestMetrics>,
}

fn collect(mut o: Outcome, handle: RequestHandle) -> Outcome {
    o.status = Status::Failed;
    while let Some(ev) = handle.next_event() {
        match ev {
            ServeEvent::Admitted {
                at,
                cached_prefix_tokens,
            } => {
                o.admitted_at = Some(at.value());
                o.cached_tokens = cached_prefix_tokens;
            }
            ServeEvent::Token { token, at } => {
                o.tokens.push(token);
                o.token_at.push(at.value());
            }
            ServeEvent::Migrated { .. } => {}
            ServeEvent::Finished { metrics } => {
                o.status = Status::Completed;
                o.metrics = Some(metrics);
                break;
            }
            ServeEvent::Rejected { .. } => {
                o.status = Status::Rejected;
                break;
            }
            ServeEvent::Failed { .. } => break,
            ServeEvent::Cancelled { .. } => {
                o.status = Status::Cancelled;
                break;
            }
        }
    }
    o
}

/// Send `reqs` open loop from this one thread, each at its due time, then
/// drain every event stream. The streams buffer until the drain and their
/// stamps come from the server, so reading them late changes no timing and
/// keeps a reader from waking on every token. Returns outcomes in trace
/// order.
fn drive(client: &Client, reqs: &[Prepared], traced: bool) -> Vec<Outcome> {
    let start = Instant::now();
    let mut sent = Vec::with_capacity(reqs.len());
    for (idx, p) in reqs.iter().enumerate() {
        let due = Duration::from_secs_f64(p.req.arrival.value());
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        let prompt = p.prompt.clone();
        let opts = SubmitOptions::greedy(p.req.output_tokens as usize);
        let at = start.elapsed();
        let submitted = client.submit(prompt, opts);
        let submit_s = if traced {
            (start.elapsed() - at).as_secs_f64()
        } else {
            0.0
        };
        let o = Outcome {
            idx,
            server_id: submitted.as_ref().ok().map(|h| h.id),
            late_s: at.as_secs_f64() - due.as_secs_f64(),
            sent_s: at.as_secs_f64(),
            submit_s,
            status: Status::RefusedAtDoor,
            tokens: Vec::new(),
            token_at: Vec::new(),
            admitted_at: None,
            cached_tokens: 0,
            metrics: None,
        };
        sent.push((o, submitted.ok()));
    }
    sent.into_iter()
        .map(|(o, handle)| match handle {
            Some(h) => collect(o, h),
            None => o,
        })
        .collect()
}

/// Replay `sample` (completed request ids) through a fresh `BatchSession`
/// in admission order and compare each with its streamed tokens bitwise.
fn streams_match(
    model: &TransformerModel,
    admission_order: &[u64],
    streams: &HashMap<u64, (&[usize], &[usize])>,
    sample: &[u64],
) -> bool {
    let order: Vec<u64> = admission_order
        .iter()
        .copied()
        .filter(|id| sample.contains(id))
        .collect();
    if order.len() != sample.len() {
        return false;
    }
    let replayed = replay_admission_order(model, &order, |id| {
        let (prompt, tokens) = streams[&id];
        (prompt.to_vec(), tokens.len())
    });
    replayed
        .iter()
        .all(|(id, tokens)| tokens.as_slice() == streams[id].1)
}

fn ms(s: f64) -> f64 {
    s * 1e3
}

pub fn run(seed: u64, seconds: f64, traced: bool, scale: Scale) -> RunResult {
    let n = ((RATE_PER_S * seconds).round() as usize).max(1);

    // Set-up, several times; the last model and pool are measured.
    let mut setup_s = Vec::new();
    let mut live: Option<(Arc<TransformerModel>, ReplicaPool)> = None;
    for _ in 0..scale.setups {
        if let Some((_, pool)) = live.take() {
            pool.shutdown();
        }
        let t0 = Instant::now();
        let model = Arc::new(build_model());
        warm_up(&model, scale.warmup_requests);
        let pool = start_pool(&model);
        setup_s.push(t0.elapsed().as_secs_f64());
        live = Some((model, pool));
    }
    let (model, pool) = live.expect("at least one set-up");
    let vocab = model.config().vocab;
    let reqs = prepare(n, RATE_PER_S, seed, vocab);

    let outcomes = drive(&pool.client(), &reqs, traced);
    let books = pool.shutdown();
    let rss = peak_rss_mib();

    // Output and bookkeeping checks, outside the timed window.
    let count = |s: Status| outcomes.iter().filter(|o| o.status == s).count();
    let completed: Vec<&Outcome> = outcomes
        .iter()
        .filter(|o| o.status == Status::Completed)
        .collect();
    let sent = outcomes.len();
    let refused = count(Status::RefusedAtDoor);
    let rejected = refused + count(Status::Rejected);
    let failed = count(Status::Failed);
    let cancelled = count(Status::Cancelled);
    println!(
        "prefix_pool: sent {sent}, completed {}, rejected {rejected}, failed {failed}, cancelled {cancelled}",
        completed.len()
    );
    let agg = &books.aggregate;
    let mut checks = vec![
        (
            "report reconciles",
            agg.reconciles() && !agg.robustness.server_failed,
        ),
        (
            "report counts every accepted submission",
            agg.robustness.submitted as usize == sent - refused,
        ),
        (
            "report counts every completion",
            agg.completed as usize == completed.len(),
        ),
        (
            "replica reports reconcile and sum to the aggregate",
            books.per_replica.iter().all(ServeReport::reconciles)
                && books.per_replica.iter().map(|r| r.completed).sum::<u32>() == agg.completed,
        ),
        (
            "every completed stream is whole",
            completed.iter().all(|o| {
                let m = o.metrics.as_ref().expect("completed has metrics");
                o.tokens.len() == reqs[o.idx].req.output_tokens as usize
                    && m.output_tokens as usize == o.tokens.len()
                    && Some(m.id) == o.server_id
                    && o.admitted_at.is_some()
                    && o.token_at.windows(2).all(|w| w[0] <= w[1])
            }),
        ),
    ];
    let streams: HashMap<u64, (&[usize], &[usize])> = completed
        .iter()
        .map(|o| {
            (
                o.server_id.expect("completed was accepted"),
                (reqs[o.idx].prompt.as_slice(), o.tokens.as_slice()),
            )
        })
        .collect();
    let ids: Vec<u64> = completed.iter().filter_map(|o| o.server_id).collect();
    let sample = seeded_sample(&ids, scale.replay_sample, seed);
    checks.push((
        "sampled streams equal an offline replay bitwise",
        streams_match(&model, &agg.admission_order, &streams, &sample),
    ));
    let mut correct = true;
    for (what, ok) in &checks {
        if !ok {
            eprintln!("prefix_pool: check failed: {what}");
            correct = false;
        }
    }

    // End-to-end metrics. TTFT counts from each request's due time.
    let mut samples = Vec::new();
    let windows_n = (n as f64 / RATE_PER_S / WINDOW_S).ceil().max(1.0) as usize;
    let mut windows: Vec<Window> = (0..windows_n).map(|_| Window::default()).collect();
    let mut last_finish = 0.0f64;
    for o in &completed {
        let m = o.metrics.as_ref().expect("completed has metrics");
        samples.push(LatencySample {
            id: m.id,
            prompt_tokens: m.prompt_tokens,
            output_tokens: m.output_tokens,
            ttft: Seconds(o.late_s + m.ttft.value()),
            itl: m.itl,
            e2e: Seconds(o.late_s + m.e2e.value()),
        });
        let due = reqs[o.idx].req.arrival.value();
        let w = &mut windows[((due / WINDOW_S) as usize).min(windows_n - 1)];
        w.ttft.push(o.late_s + m.ttft.value());
        w.gaps.extend(o.token_at.windows(2).map(|g| g[1] - g[0]));
        last_finish = last_finish.max(o.sent_s + m.e2e.value());
    }
    let first_due = reqs.first().map_or(0.0, |p| p.req.arrival.value());
    let span = last_finish - first_due;
    let latency = latency_metrics(&samples, &windows, sent, span, LIMITS);
    let timeline = Timeline::build(&outcomes, &reqs, &books);

    let mut out = RunResult {
        correct,
        attempted: sent as u64,
        failed: (sent - completed.len()) as u64,
        ..RunResult::default()
    };
    if traced {
        out.metrics = layer_metrics(&model, &outcomes, &reqs, &books, &timeline, &mut out.spans);
        let throughput = latency.iter().find(|m| m.name == "throughput_tok_s");
        out.metrics.push(metric(
            "trace.pass.throughput_tok_s",
            throughput.map_or(0.0, |m| m.value),
            "tok/s",
        ));
        return out;
    }
    out.metrics = vec![metric("setup_s", p50(&setup_s), "s")];
    out.metrics.extend(latency);
    out.metrics.extend([
        metric(
            "prefill_tok_s",
            timeline.prefill_tokens as f64 / timeline.prefill_s,
            "tok/s",
        ),
        metric(
            "decode_tok_s",
            timeline.decode_tokens as f64 / timeline.decode_s,
            "tok/s",
        ),
        metric("peak_rss_mib", rss, "MiB"),
    ]);
    out
}

/// The replicas' scheduler threads, rebuilt from their event stamps. One
/// thread per replica prefills admissions and runs decode steps in turn
/// and stamps each as it completes, so the work behind a stamp started at
/// the stamp before it (or, for an admission, at its submission if that
/// was later). Scheduler bookkeeping between events counts as the work
/// that follows it.
struct Timeline {
    /// When each admitted request's prefill began, on the server clock.
    prefill_start: HashMap<u64, f64>,
    prefill_s: f64,
    /// Prompt tokens prefilled (cached prefix tokens excluded).
    prefill_tokens: u64,
    decode_s: f64,
    decode_tokens: u64,
}

/// An admission stamp's request, submission time and uncached prompt
/// tokens.
#[derive(Clone, Copy)]
struct Admission {
    id: u64,
    submitted: f64,
    cold: u64,
}

impl Timeline {
    fn build(outcomes: &[Outcome], reqs: &[Prepared], books: &PoolReport) -> Timeline {
        let replica_of: HashMap<u64, usize> = books
            .per_replica
            .iter()
            .enumerate()
            .flat_map(|(r, rep)| rep.admission_order.iter().map(move |&id| (id, r)))
            .collect();
        // Stamps per replica, each an admission or (`None`) a token.
        let mut events: Vec<Vec<(f64, Option<Admission>)>> =
            vec![Vec::new(); books.per_replica.len()];
        for o in outcomes {
            let (Some(id), Some(adm), Some(m)) = (o.server_id, o.admitted_at, &o.metrics) else {
                continue;
            };
            let cold = u64::from(reqs[o.idx].req.prompt_tokens - o.cached_tokens);
            let ev = &mut events[replica_of[&id]];
            let admission = Admission {
                id,
                submitted: m.submitted_at.value(),
                cold,
            };
            ev.push((adm, Some(admission)));
            ev.extend(o.token_at.iter().map(|&t| (t, None)));
        }
        let mut tl = Timeline {
            prefill_start: HashMap::new(),
            prefill_s: 0.0,
            prefill_tokens: 0,
            decode_s: 0.0,
            decode_tokens: 0,
        };
        for mut ev in events {
            ev.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut prev = f64::NEG_INFINITY;
            let mut i = 0;
            while i < ev.len() {
                let t = ev[i].0;
                match ev[i].1 {
                    Some(a) => {
                        let start = prev.max(a.submitted);
                        tl.prefill_start.insert(a.id, start);
                        tl.prefill_s += t - start;
                        tl.prefill_tokens += a.cold;
                        i += 1;
                    }
                    None => {
                        // Every token of one decode step carries the
                        // step's stamp.
                        let n = ev[i..]
                            .iter()
                            .take_while(|e| e.0 == t && e.1.is_none())
                            .count();
                        if prev.is_finite() {
                            tl.decode_s += t - prev;
                            tl.decode_tokens += n as u64;
                        }
                        i += n;
                    }
                }
                prev = t;
            }
        }
        tl
    }
}

/// Per-layer metrics of a traced serving pass, and its spans.
fn layer_metrics(
    model: &TransformerModel,
    outcomes: &[Outcome],
    reqs: &[Prepared],
    books: &PoolReport,
    timeline: &Timeline,
    out: &mut Vec<Span>,
) -> Vec<Metric> {
    let agg = &books.aggregate;
    let (mut queue, mut prefill, mut late, mut submit) = (vec![], vec![], vec![], vec![]);
    let mut token_gaps = Vec::new();
    let (mut span_sum, mut e2e_sum) = (0.0, 0.0);
    for o in outcomes {
        late.push(o.late_s);
        if o.status != Status::RefusedAtDoor {
            submit.push(o.submit_s);
        }
        let (Some(m), Some(adm), Some(id)) = (o.metrics.as_ref(), o.admitted_at, o.server_id)
        else {
            continue;
        };
        let sub = m.submitted_at.value();
        let fin = *o.token_at.last().expect("completed streams have tokens");
        let prefill_start = timeline.prefill_start[&id];
        queue.push(prefill_start - sub);
        prefill.push(adm - prefill_start);
        token_gaps.extend(o.token_at.windows(2).map(|g| g[1] - g[0]));

        // Server stamps onto the benchmark clock: `submitted_at` is
        // stamped inside the `submit` call that started at `sent_s`. The
        // span boundaries never run backwards, so the spans partition the
        // interval from due time to last token.
        let local = |t: f64| o.sent_s + (t - sub);
        let due = reqs[o.idx].req.arrival.value();
        let rid = Some(id);
        let root = spans::push(out, "request", due, local(fin), None, rid);
        let mut start = due;
        for (name, end) in [
            ("late", o.sent_s),
            ("submit", o.sent_s + o.submit_s),
            ("queue_wait", local(prefill_start)),
            ("prefill", local(adm)),
            ("decode", local(fin)),
        ] {
            let end = end.max(start);
            spans::push(out, name, start, end, Some(root), rid);
            span_sum += end - start;
            start = end;
        }
        e2e_sum += o.late_s + m.e2e.value();
    }

    // The step decomposition runs at the batch the servers kept and the
    // mean context a decode step attended over (token weighted).
    let (mut weighted, mut tokens) = (0.0, 0.0);
    for o in outcomes.iter().filter(|o| o.metrics.is_some()) {
        let (p, n) = (reqs[o.idx].req.prompt_tokens as f64, o.tokens.len() as f64);
        weighted += n * (p + n / 2.0);
        tokens += n;
    }
    let shape = StepShape {
        batch: agg.mean_batch_occupancy.round() as usize,
        ctx: (weighted / tokens.max(1.0)).round() as usize,
    };
    let completed_per_replica: Vec<f64> = books
        .per_replica
        .iter()
        .map(|r| f64::from(r.completed))
        .collect();
    let mean_completed =
        completed_per_replica.iter().sum::<f64>() / completed_per_replica.len() as f64;
    let admitted = agg.admission_order.len().max(1) as f64;
    let prompt_tokens: f64 = outcomes
        .iter()
        .filter(|o| o.admitted_at.is_some())
        .map(|o| f64::from(reqs[o.idx].req.prompt_tokens))
        .sum();

    let mut m = vec![
        metric("loadgen.late_p99_ms", ms(percentile(&late, 99.0)), "ms"),
        metric("loadgen.sent", outcomes.len() as f64, "count"),
        metric(
            "serve.client.submit_us_p99",
            percentile(&submit, 99.0) * 1e6,
            "us",
        ),
        metric(
            "serve.server.queue_wait_ms_p50",
            ms(percentile(&queue, 50.0)),
            "ms",
        ),
        metric(
            "serve.server.queue_wait_ms_p90",
            ms(percentile(&queue, 90.0)),
            "ms",
        ),
        metric(
            "serve.server.prefill_ms_p50",
            ms(percentile(&prefill, 50.0)),
            "ms",
        ),
        metric(
            "serve.server.batch_occupancy_mean",
            agg.mean_batch_occupancy,
            "seqs",
        ),
        metric(
            "serve.server.kv_peak_util",
            agg.peak_kv_utilization,
            "fraction",
        ),
        metric(
            "serve.server.decode_steps",
            agg.decode_steps as f64,
            "count",
        ),
        metric(
            "serve.server.retries",
            f64::from(agg.robustness.retries),
            "count",
        ),
        metric(
            "serve.server.evictions",
            f64::from(agg.robustness.evictions),
            "count",
        ),
        metric(
            "serve.server.token_gap_ms_p95",
            ms(percentile(&token_gaps, 95.0)),
            "ms",
        ),
        metric(
            "serve.spans.closure",
            span_sum / e2e_sum.max(f64::MIN_POSITIVE),
            "ratio",
        ),
        metric(
            "serve.router.replica_skew",
            completed_per_replica.iter().copied().fold(0.0, f64::max) / mean_completed.max(1.0),
            "ratio",
        ),
        metric(
            "serve.router.migrations",
            f64::from(agg.robustness.migrations),
            "count",
        ),
        metric(
            "engine.prefix.hit_rate",
            f64::from(agg.prefix.hits) / admitted,
            "fraction",
        ),
        metric(
            "engine.prefix.saved_prompt_frac",
            agg.prefix.saved_prefill_tokens as f64 / prompt_tokens.max(1.0),
            "fraction",
        ),
    ];
    // Engine spans follow the request spans on the same timeline.
    let offset = out.iter().map(|s| s.end_s).fold(0.0, f64::max);
    let clock = Instant::now()
        .checked_sub(Duration::from_secs_f64(offset))
        .unwrap_or_else(Instant::now);
    m.extend(layers::engine_metrics(
        model,
        QuantMode::F32,
        shape,
        out,
        clock,
    ));
    m
}

/// The output check must reject a corrupted stream: serve two requests,
/// confirm their streams pass, flip one token, confirm the check fails.
pub fn selftest_rejects_corruption() -> Result<(), String> {
    let model = Arc::new(build_model());
    let pool = start_pool(&model);
    let client = pool.client();
    let reqs = prepare(2, 1.0, 3, model.config().vocab);
    let mut streams_owned = Vec::new();
    for p in &reqs {
        let h = client
            .submit(p.prompt.clone(), SubmitOptions::greedy(8))
            .map_err(|e| format!("submit: {e:?}"))?;
        let id = h.id;
        let tokens = h
            .wait()
            .tokens()
            .ok_or("request did not complete")?
            .to_vec();
        streams_owned.push((id, p.prompt.clone(), tokens));
    }
    let report = pool.shutdown().aggregate;
    let ids: Vec<u64> = streams_owned.iter().map(|s| s.0).collect();
    let check = |owned: &[(u64, Vec<usize>, Vec<usize>)]| {
        let streams = owned
            .iter()
            .map(|(id, p, t)| (*id, (p.as_slice(), t.as_slice())))
            .collect();
        streams_match(&model, &report.admission_order, &streams, &ids)
    };
    if !check(&streams_owned) {
        return Err("intact serving streams failed the output check".into());
    }
    let t = &mut streams_owned[1].2[3];
    *t = (*t + 1) % model.config().vocab;
    if check(&streams_owned) {
        return Err("a corrupted serving stream passed the output check".into());
    }
    Ok(())
}
