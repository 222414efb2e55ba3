//! Traced engine measurements: the decode-step decomposition and the
//! kernel rates placed against the host roofline.
//!
//! The engine exposes no timers of its own, so these time standalone
//! copies of each layer at the model's shapes, at the batch size and
//! context length the workload reached, and compare their sum with a
//! timed `TransformerModel::forward_batch` at the same point.

use crate::spans::{self, Span};
use crate::{metric, Metric};
use llmib_engine::{
    dot_kernel, matmul_mat, Attention, KvCache, Linear, Matrix, MoeFfn, QuantMode, TransformerModel,
};
use llmib_perf::{HostRoofline, KernelShape};
use llmib_types::stats::p50;
use std::hint::black_box;
use std::time::Instant;

/// Where the workload's decode steps ran.
#[derive(Debug, Clone, Copy)]
pub struct StepShape {
    /// Sequences per decode step.
    pub batch: usize,
    /// Cached positions each sequence attends over.
    pub ctx: usize,
}

/// Median seconds per call of `f`, over at least 15 calls and 0.2 s.
fn median_secs(mut f: impl FnMut()) -> f64 {
    let begin = Instant::now();
    let mut times = Vec::new();
    while times.len() < 15 || (begin.elapsed().as_secs_f64() < 0.2 && times.len() < 5000) {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    p50(&times)
}

/// Time `f` and record the timing loop as one span under `parent`.
fn timed_span(
    out: &mut Vec<Span>,
    clock: Instant,
    name: &'static str,
    parent: usize,
    f: impl FnMut(),
) -> f64 {
    let start = clock.elapsed().as_secs_f64();
    let secs = median_secs(f);
    spans::push(
        out,
        name,
        start,
        clock.elapsed().as_secs_f64(),
        Some(parent),
        None,
    );
    secs
}

/// Caches of `layers` layers holding `ctx` positions each.
fn filled_caches(
    batch: usize,
    layers: usize,
    kv_dim: usize,
    max_seq: usize,
    ctx: usize,
) -> Vec<KvCache> {
    let k: Vec<f32> = (0..kv_dim).map(|i| ((i % 7) as f32 - 3.0) * 0.1).collect();
    let v: Vec<f32> = (0..kv_dim).map(|i| ((i % 5) as f32 - 2.0) * 0.1).collect();
    (0..batch)
        .map(|_| {
            let mut c = KvCache::new(layers, kv_dim, max_seq);
            for _ in 0..ctx {
                for l in 0..layers {
                    c.append(l, &k, &v);
                }
            }
            c
        })
        .collect()
}

/// Attainable FLOP rate: the engine's GEMM over a cache-resident problem.
fn calibrate_gflops() -> f64 {
    let w = Matrix::random(64, 64, 3, 0.5);
    let xs = Matrix::random(8, 64, 4, 0.5);
    let iters = 200;
    let secs = median_secs(|| {
        for _ in 0..iters {
            black_box(matmul_mat(black_box(&w), black_box(&xs)));
        }
    });
    2.0 * 8.0 * 64.0 * 64.0 * f64::from(iters) / secs / 1e9
}

/// Attainable streaming bandwidth: a read-reduce over two buffers far
/// larger than the last-level cache.
fn calibrate_gbps() -> f64 {
    let len = 4 << 20;
    let a: Vec<f32> = (0..len).map(|i| (i % 17) as f32).collect();
    let b: Vec<f32> = (0..len).map(|i| (i % 13) as f32).collect();
    let begin = Instant::now();
    let mut times = Vec::new();
    while times.len() < 5 || (begin.elapsed().as_secs_f64() < 0.3 && times.len() < 50) {
        let t = Instant::now();
        let mut acc = 0.0f32;
        for (ca, cb) in a.chunks(4096).zip(b.chunks(4096)) {
            acc += dot_kernel(black_box(ca), black_box(cb));
        }
        black_box(acc);
        times.push(t.elapsed().as_secs_f64());
    }
    2.0 * len as f64 * 4.0 / p50(&times) / 1e9
}

fn bytes_per_weight(mode: QuantMode) -> f64 {
    match mode {
        QuantMode::F32 => 4.0,
        QuantMode::Int8 => 1.125,
        QuantMode::Int4 => 0.625,
    }
}

/// The decode-step decomposition and kernel rates for `model` (built in
/// `mode`) at `shape`.
pub fn engine_metrics(
    model: &TransformerModel,
    mode: QuantMode,
    shape: StepShape,
    out: &mut Vec<Span>,
    clock: Instant,
) -> Vec<Metric> {
    let cfg = model.config().clone();
    let (b, ctx) = (shape.batch.max(1), shape.ctx.clamp(1, cfg.max_seq - 2));
    let root_start = clock.elapsed().as_secs_f64();
    let root = spans::push(out, "engine.decompose", root_start, root_start, None, None);
    let positions = vec![ctx; b];
    let xs = Matrix::random(b, cfg.hidden, 17, 1.0);

    let mut model_caches = filled_caches(b, cfg.layers, cfg.kv_dim(), cfg.max_seq, ctx);
    let tokens: Vec<usize> = (0..b).map(|i| (i * 37 + 1) % cfg.vocab).collect();
    let forward = timed_span(out, clock, "engine.step.forward", root, || {
        let mut refs: Vec<&mut KvCache> = model_caches.iter_mut().collect();
        black_box(model.forward_batch(&tokens, &positions, &mut refs));
        for c in refs {
            c.truncate(ctx);
        }
    });

    let attn = Attention::new(&cfg, 5, mode);
    let mut attn_caches = filled_caches(b, 1, cfg.kv_dim(), cfg.max_seq, ctx);
    let attn_s = timed_span(out, clock, "engine.step.attn", root, || {
        let mut refs: Vec<&mut KvCache> = attn_caches.iter_mut().collect();
        black_box(attn.forward_batch(&xs, &positions, 0, &mut refs));
        for c in refs {
            c.truncate(ctx);
        }
    });
    let ffn = MoeFfn::new(&cfg, 6, mode);
    let ffn_s = timed_span(out, clock, "engine.step.ffn", root, || {
        black_box(ffn.forward_batch(&xs));
    });
    let scale = (1.0 / cfg.hidden as f32).sqrt();
    let head_f32 = Linear::random(cfg.vocab, cfg.hidden, 7, scale, QuantMode::F32);
    let head_int8 = Linear::random(cfg.vocab, cfg.hidden, 7, scale, QuantMode::Int8);
    let f32_s = timed_span(out, clock, "engine.kernel.f32_gemm", root, || {
        black_box(head_f32.matmul_mat(&xs));
    });
    let int8_s = timed_span(out, clock, "engine.kernel.int8_gemm", root, || {
        black_box(head_int8.matmul_mat(&xs));
    });
    let lm_head_s = match mode {
        QuantMode::F32 => f32_s,
        _ => int8_s,
    };
    let closure = (cfg.layers as f64 * (attn_s + ffn_s) + lm_head_s) / forward;

    let calib_start = clock.elapsed().as_secs_f64();
    let host = HostRoofline::new(calibrate_gflops(), calibrate_gbps());
    spans::push(
        out,
        "roofline.calibrate",
        calib_start,
        clock.elapsed().as_secs_f64(),
        Some(root),
        None,
    );
    out[root].end_s = clock.elapsed().as_secs_f64();

    // Operation counts and bytes moved are computed from the shapes, not
    // measured.
    let bpw = bytes_per_weight(mode);
    let (h, kv) = (cfg.hidden, cfg.kv_dim());
    let flash = KernelShape::flash_attention(cfg.heads, cfg.kv_heads, cfg.head_dim(), ctx + 1);
    let attn_shape = [
        KernelShape::gemm(b, h, h, bpw),
        KernelShape::gemm(b, kv, h, bpw),
        KernelShape::gemm(b, kv, h, bpw),
        KernelShape::gemm(b, h, h, bpw),
        KernelShape {
            flops: b as f64 * flash.flops,
            bytes: b as f64 * flash.bytes,
        },
    ]
    .iter()
    .fold(
        KernelShape {
            flops: 0.0,
            bytes: 0.0,
        },
        |acc, s| KernelShape {
            flops: acc.flops + s.flops,
            bytes: acc.bytes + s.bytes,
        },
    );
    let kernels = [
        ("f32_gemm", KernelShape::gemm(b, cfg.vocab, h, 4.0), f32_s),
        (
            "int8_gemm",
            KernelShape::gemm(b, cfg.vocab, h, 1.125),
            int8_s,
        ),
        ("attention", attn_shape, attn_s),
    ];
    let mut m = vec![
        metric("engine.step.attn_ms", attn_s * 1e3, "ms"),
        metric("engine.step.ffn_ms", ffn_s * 1e3, "ms"),
        metric("engine.step.lm_head_ms", lm_head_s * 1e3, "ms"),
        metric("engine.step.forward_ms", forward * 1e3, "ms"),
        metric("engine.step.closure", closure, "ratio"),
        metric("roofline.peak_gflops", host.peak_gflops, "GFLOP/s"),
        metric("roofline.peak_gbps", host.peak_gbps, "GB/s"),
    ];
    for (name, shape, secs) in kernels {
        m.push(metric(
            &format!("engine.kernel.{name}.gflops"),
            shape.flops / secs / 1e9,
            "GFLOP/s",
        ));
        m.push(metric(
            &format!("engine.kernel.{name}.roofline_frac"),
            host.attained_fraction(&shape, secs),
            "fraction",
        ));
    }
    m
}
