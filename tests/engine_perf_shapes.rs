//! Performance shape checks for the batched execution paths.
//!
//! These assert the *direction and rough magnitude* of the mechanisms the
//! paper measures on real accelerators (Fig. 1a/1b), as executed by the
//! engine on whatever machine runs the tests:
//!
//! * batched GEMM prefill beats the token-at-a-time GEMV loop,
//! * prefill throughput exceeds single-sequence decode throughput,
//! * batched decode aggregate throughput grows with batch size.
//!
//! Margins are set well below the medians measured on a single-core
//! development container (see `BENCH_engine.json`) so scheduler noise
//! does not flake the suite; the mechanisms themselves are asserted
//! exactly (golden equivalence) in `engine_golden_equivalence.rs`.

use llmib_engine::{BatchSession, EngineConfig, Sampler, TransformerModel};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Held for the whole body of each test: the harness runs tests on
/// parallel threads, and timed work running concurrently on a small
/// host takes CPU from the other test's measurement.
static SERIAL: Mutex<()> = Mutex::new(());

/// Take [`SERIAL`]. The guarded value is `()`, so a lock poisoned by a
/// failed test is still sound to take, and the other tests still run.
fn serialize() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Median wall-clock seconds of `a` and of `b` over `runs` invocations
/// each. The two alternate, so a change in host speed partway through
/// lands on both sides of the comparison instead of one.
fn time_medians<A: FnMut(), B: FnMut()>(runs: usize, mut a: A, mut b: B) -> (f64, f64) {
    fn time(f: &mut dyn FnMut()) -> f64 {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    }
    let (mut sa, mut sb): (Vec<f64>, Vec<f64>) =
        (0..runs).map(|_| (time(&mut a), time(&mut b))).unzip();
    let median = |s: &mut Vec<f64>| {
        s.sort_by(f64::total_cmp);
        s[s.len() / 2]
    };
    (median(&mut sa), median(&mut sb))
}

#[test]
fn batched_prefill_beats_gemv_loop_on_long_prompt() {
    let _serial = serialize();
    // 256-token prompt at tiny scale: the batched path runs one 2×2
    // register-tiled GEMM per weight matrix instead of 256 GEMVs.
    // Measured ~1.7× on the single-core reference box; attention +
    // softmax are O(T²·heads), identical in both paths, and bound the
    // end-to-end ratio at this hidden size (the matmul-only ratio is
    // ~2.5-3×, asserted in the larger-config check below).
    let cfg = EngineConfig {
        max_seq: 320,
        ..EngineConfig::tiny()
    };
    let model = TransformerModel::new(cfg.clone(), false).unwrap();
    let prompt: Vec<usize> = (0..256).map(|i| (i * 7 + 3) % cfg.vocab).collect();

    let (gemm_s, gemv_s) = time_medians(
        5,
        || {
            let mut cache = model.new_cache();
            std::hint::black_box(model.prefill(&prompt, &mut cache));
        },
        || {
            let mut cache = model.new_cache();
            std::hint::black_box(model.prefill_unbatched(&prompt, &mut cache));
        },
    );
    let speedup = gemv_s / gemm_s;
    assert!(
        speedup > 1.25,
        "batched prefill speedup {speedup:.2}x at tiny scale (want > 1.25x)"
    );

    // At a larger hidden size the matmuls dominate and the full GEMM
    // advantage shows through (measured ~2.5x).
    let cfg = EngineConfig::scaled_from(llmib_models::ModelId::Llama2_7b, 128, 7);
    let model = TransformerModel::new(cfg.clone(), false).unwrap();
    let prompt: Vec<usize> = (0..128).map(|i| (i * 7 + 3) % cfg.vocab).collect();
    let (gemm_s, gemv_s) = time_medians(
        3,
        || {
            let mut cache = model.new_cache();
            std::hint::black_box(model.prefill(&prompt, &mut cache));
        },
        || {
            let mut cache = model.new_cache();
            std::hint::black_box(model.prefill_unbatched(&prompt, &mut cache));
        },
    );
    let speedup = gemv_s / gemm_s;
    assert!(
        speedup > 1.6,
        "batched prefill speedup {speedup:.2}x at hidden=128 (want > 1.6x)"
    );
}

#[test]
fn prefill_throughput_exceeds_decode_throughput() {
    let _serial = serialize();
    // The paper's Fig. 1a asymmetry: prefill processes tokens through
    // compute-efficient GEMMs; decode is one token per full weight pass.
    let cfg = EngineConfig::scaled_from(llmib_models::ModelId::Llama2_7b, 128, 7);
    let model = TransformerModel::new(cfg.clone(), false).unwrap();
    let prompt: Vec<usize> = (0..128).map(|i| (i * 3 + 1) % cfg.vocab).collect();

    let decode_tokens = 32usize;
    let (prefill_s, decode_s) = time_medians(
        3,
        || {
            let mut cache = model.new_cache();
            std::hint::black_box(model.prefill(&prompt, &mut cache));
        },
        || {
            let mut cache = model.new_cache();
            let mut ws = model.new_workspace();
            let mut logits = model.prefill(&[1, 2, 3], &mut cache);
            for pos in 3..3 + decode_tokens {
                let next = logits
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap();
                let l = model.forward_ws(next, pos, &mut cache, &mut ws);
                logits.clear();
                logits.extend_from_slice(l);
            }
        },
    );
    let prefill_tps = prompt.len() as f64 / prefill_s;
    let decode_tps = decode_tokens as f64 / decode_s;

    assert!(
        prefill_tps > decode_tps,
        "prefill {prefill_tps:.0} tok/s should exceed decode {decode_tps:.0} tok/s"
    );
}

#[test]
fn batched_decode_aggregate_grows_with_batch_size() {
    let _serial = serialize();
    // Fig. 1b: stacking sequences amortizes the per-step weight pass, so
    // aggregate tokens/s at batch 16 must clearly beat batch 1
    // (measured ~2.4x on the reference box; assert > 1.3x).
    let cfg = EngineConfig::scaled_from(llmib_models::ModelId::Llama2_7b, 128, 7);
    let model = TransformerModel::new(cfg, false).unwrap();
    let new_tokens = 16usize;

    let run_batch = |batch: usize| {
        let mut session = BatchSession::new(&model);
        for i in 0..batch {
            let p = [1 + i % 7, 2 + i % 5, 3];
            session
                .admit(i as u64, &p, new_tokens, Sampler::Greedy)
                .expect("admit");
        }
        std::hint::black_box(session.run_to_completion());
    };

    let (s1, s16) = time_medians(3, || run_batch(1), || run_batch(16));
    let tps1 = new_tokens as f64 / s1;
    let tps16 = (16 * new_tokens) as f64 / s16;
    assert!(
        tps16 > 1.3 * tps1,
        "batch-16 aggregate {tps16:.0} tok/s should beat batch-1 {tps1:.0} tok/s by > 1.3x"
    );
}
