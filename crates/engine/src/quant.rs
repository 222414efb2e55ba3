//! Blockwise INT8 / INT4 weight quantization with per-group scales and
//! dequantization fused into the integer dot product (GGML-style).
//!
//! Weights are split into fixed-size groups of [`QUANT_GROUP`]
//! consecutive columns; each group stores one f32 scale and its codes:
//! one `i8` per weight for INT8, or two 4-bit codes per byte (offset
//! binary, `stored = q + 8`) for INT4. Activations are quantized to
//! `i8` with the same per-group layout on the fly. The fused dot walks
//! groups in ascending order, computes each group's integer dot exactly
//! in `i32`, and accumulates `isum × (w_scale × x_scale)` in f32 —
//! weights stay compressed through the multiply (the memory-bound GEMV
//! phase streams 1 or ½ bytes per weight instead of 4), and because
//! the group order is fixed and integer accumulation is exact, the GEMV
//! and the register-tiled batched GEMM produce bitwise-identical
//! results.
//!
//! Round-trip error bound (asserted by proptests here and in the golden
//! suite): for every weight, `|w − scale·q| ≤ scale/2` with `scale =
//! max|group| / qmax` (`qmax` = 127 for INT8, 7 for INT4). Degenerate
//! groups — all zeros, or a subnormal maximum whose scale would itself
//! be subnormal — force `scale = 1.0` and quantize to zero codes, which
//! keeps the same bound (the true values are below `2^-126`).

use crate::tensor::Matrix;

/// Columns per quantization group: 32 matches the GGML block size and
/// divides every projection width the engine configs use, while tail
/// groups (`cols % 32 != 0`) are supported for odd shapes.
pub const QUANT_GROUP: usize = 32;

/// Weight precision for the engine's linear layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantMode {
    /// Full-precision f32 weights.
    F32,
    /// Blockwise INT8 weights (one byte + 4/32 bytes of scale per weight).
    Int8,
    /// Blockwise INT4 weights (two codes per byte).
    Int4,
}

/// Reusable scratch for on-the-fly activation quantization: per-group
/// `i8` codes and scales. One scratch per [`crate::Workspace`] keeps
/// the decode loop allocation free.
#[derive(Debug, Clone, Default)]
pub struct QuantScratch {
    q: Vec<i8>,
    scales: Vec<f32>,
}

impl QuantScratch {
    /// Empty scratch; buffers grow to the widest layer on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Quantized weight payload.
#[derive(Debug, Clone)]
enum Codes {
    /// One code per weight, row-major.
    Int8(Vec<i8>),
    /// Two codes per byte (low nibble first), `ceil(cols/2)` bytes per
    /// row; each nibble stores `q + 8` with `q ∈ [-7, 7]`.
    Int4(Vec<u8>),
}

/// A linear layer with block-quantized integer weights and per-group
/// dequantization scales.
#[derive(Debug, Clone)]
pub struct QuantizedLinear {
    rows: usize,
    cols: usize,
    group: usize,
    codes: Codes,
    /// `rows × groups_per_row` scales, row-major.
    scales: Vec<f32>,
}

/// Per-group scale `max|v| / qmax`, forced to `1.0` when the group is
/// all zeros or its maximum is subnormal — a zero or subnormal scale
/// would turn `v / scale` into `inf`/NaN. The forced scale quantizes
/// the group to zero codes; the resulting error `|v| < 2^-126` is far
/// inside the `scale/2 = 0.5` bound.
fn group_scale(vals: &[f32], qmax: f32) -> f32 {
    let maxabs = vals.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let scale = maxabs / qmax;
    if scale.is_normal() {
        scale
    } else {
        1.0
    }
}

impl QuantizedLinear {
    /// Blockwise INT8 quantization with the default group size.
    pub fn quantize(w: &Matrix) -> Self {
        Self::quantize_with(w, QuantMode::Int8, QUANT_GROUP)
    }

    /// Blockwise INT4 quantization with the default group size.
    pub fn quantize_int4(w: &Matrix) -> Self {
        Self::quantize_with(w, QuantMode::Int4, QUANT_GROUP)
    }

    /// Quantize with an explicit mode and group size. `group` need not
    /// divide `cols`: the last group of a row is simply narrower. INT4
    /// requires an even `group` so groups never straddle a packed byte.
    pub fn quantize_with(w: &Matrix, mode: QuantMode, group: usize) -> Self {
        assert!(group > 0, "group size must be positive");
        let (rows, cols) = (w.rows(), w.cols());
        let gpr = cols.div_ceil(group).max(1);
        let mut scales = vec![0.0f32; rows * gpr];
        let codes = match mode {
            QuantMode::F32 => panic!("QuantizedLinear requires an integer mode"),
            QuantMode::Int8 => {
                let mut q = vec![0i8; rows * cols];
                for r in 0..rows {
                    let row = w.row(r);
                    for g in 0..gpr {
                        let lo = g * group;
                        let hi = cols.min(lo + group);
                        let scale = group_scale(&row[lo..hi], 127.0);
                        scales[r * gpr + g] = scale;
                        for c in lo..hi {
                            q[r * cols + c] = (row[c] / scale).round().clamp(-127.0, 127.0) as i8;
                        }
                    }
                }
                Codes::Int8(q)
            }
            QuantMode::Int4 => {
                assert!(group.is_multiple_of(2), "INT4 group size must be even");
                let bpr = cols.div_ceil(2);
                let mut packed = vec![0u8; rows * bpr];
                for r in 0..rows {
                    let row = w.row(r);
                    for g in 0..gpr {
                        let lo = g * group;
                        let hi = cols.min(lo + group);
                        let scale = group_scale(&row[lo..hi], 7.0);
                        scales[r * gpr + g] = scale;
                        for c in lo..hi {
                            let q = (row[c] / scale).round().clamp(-7.0, 7.0) as i32 + 8;
                            let byte = &mut packed[r * bpr + c / 2];
                            if c % 2 == 0 {
                                *byte = q as u8;
                            } else {
                                *byte |= (q as u8) << 4;
                            }
                        }
                    }
                }
                Codes::Int4(packed)
            }
        };
        Self {
            rows,
            cols,
            group,
            codes,
            scales,
        }
    }

    /// Output rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Input columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Columns per quantization group.
    pub fn group(&self) -> usize {
        self.group
    }

    /// The stored precision.
    pub fn mode(&self) -> QuantMode {
        match self.codes {
            Codes::Int8(_) => QuantMode::Int8,
            Codes::Int4(_) => QuantMode::Int4,
        }
    }

    fn groups_per_row(&self) -> usize {
        self.cols.div_ceil(self.group).max(1)
    }

    /// Dequantization scale applied to weight `(r, c)`.
    pub fn scale_at(&self, r: usize, c: usize) -> f32 {
        self.scales[r * self.groups_per_row() + c / self.group]
    }

    /// Integer code of weight `(r, c)`.
    fn code_at(&self, r: usize, c: usize) -> i32 {
        match &self.codes {
            Codes::Int8(q) => i32::from(q[r * self.cols + c]),
            Codes::Int4(packed) => {
                let byte = packed[r * self.cols.div_ceil(2) + c / 2];
                let nibble = if c.is_multiple_of(2) {
                    byte & 0x0F
                } else {
                    byte >> 4
                };
                i32::from(nibble) - 8
            }
        }
    }

    /// Reconstruct the f32 weights (`scale · code` per element) — the
    /// matrix the quantized layer behaves as. Round-trip tests assert
    /// `|w - dequantize| ≤ scale/2` elementwise.
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.row_mut(r)[c] = self.code_at(r, c) as f32 * self.scale_at(r, c);
            }
        }
        out
    }

    /// Quantize activations per group into `scratch` (see
    /// [`quantize_groups`]).
    fn quantize_activations(x: &[f32], group: usize, scratch: &mut QuantScratch) {
        scratch.q.resize(x.len(), 0);
        scratch.scales.resize(x.len().div_ceil(group), 0.0);
        quantize_groups(x, group, &mut scratch.q, &mut scratch.scales);
    }

    /// Decode weight row `r` to one i16 per column: INT8 sign-extends,
    /// INT4 unpacks each nibble and removes the `+8` bias.
    fn decode_row(&self, r: usize, out: &mut [i16]) {
        match &self.codes {
            Codes::Int8(q) => {
                for (o, &c) in out.iter_mut().zip(&q[r * self.cols..(r + 1) * self.cols]) {
                    *o = i16::from(c);
                }
            }
            Codes::Int4(packed) => {
                let bpr = self.cols.div_ceil(2);
                for (pair, &byte) in out.chunks_mut(2).zip(&packed[r * bpr..(r + 1) * bpr]) {
                    pair[0] = i16::from(byte & 0x0F) - 8;
                    if let Some(hi) = pair.get_mut(1) {
                        *hi = i16::from(byte >> 4) - 8;
                    }
                }
            }
        }
    }

    /// Fused dequant-dot of weight row `r` against quantized activations:
    /// per group, an exact `i32` integer dot scaled by
    /// `w_scale × x_scale`, accumulated in f32 in ascending group order.
    #[inline]
    fn dot_row(&self, r: usize, xq: &[i8], xscales: &[f32]) -> f32 {
        let gpr = self.groups_per_row();
        let wscales = &self.scales[r * gpr..(r + 1) * gpr];
        let mut acc = 0.0f32;
        match &self.codes {
            Codes::Int8(q) => {
                let row = &q[r * self.cols..(r + 1) * self.cols];
                for g in 0..gpr {
                    let lo = g * self.group;
                    let hi = self.cols.min(lo + self.group);
                    let isum = dot_i8(&row[lo..hi], &xq[lo..hi]);
                    acc += isum as f32 * (wscales[g] * xscales[g]);
                }
            }
            Codes::Int4(packed) => {
                let bpr = self.cols.div_ceil(2);
                let row = &packed[r * bpr..(r + 1) * bpr];
                for g in 0..gpr {
                    let lo = g * self.group;
                    let hi = self.cols.min(lo + self.group);
                    // Weights stay packed through the dot; `group % 2 ==
                    // 0` keeps `lo` byte-aligned, and only a ragged
                    // final group can end mid-byte.
                    let isum = dot_i4(&row[lo / 2..hi.div_ceil(2)], &xq[lo..hi]);
                    acc += isum as f32 * (wscales[g] * xscales[g]);
                }
            }
        }
        acc
    }

    /// `y = W_q · x` with on-the-fly activation quantization — the
    /// classic W8A8 (or W4A8) inner loop.
    pub fn matmul_vec(&self, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0f32; self.rows];
        let mut scratch = QuantScratch::new();
        self.matmul_vec_into(x, &mut y, &mut scratch);
        y
    }

    /// [`QuantizedLinear::matmul_vec`] into caller-provided output and
    /// activation-scratch buffers.
    pub fn matmul_vec_into(&self, x: &[f32], y: &mut [f32], scratch: &mut QuantScratch) {
        assert_eq!(self.cols, x.len());
        assert_eq!(self.rows, y.len());
        Self::quantize_activations(x, self.group, scratch);
        for (r, out) in y.iter_mut().enumerate() {
            *out = self.dot_row(r, &scratch.q, &scratch.scales);
        }
    }

    /// Batched `Y = X · W_qᵀ`, register-tiled 2×2: each pair of weight
    /// rows is decoded to i16 once and swept against every pair of
    /// activation rows, which are quantized once up front straight to
    /// i16. Activations are quantized exactly as
    /// [`QuantizedLinear::matmul_vec`] quantizes them, group dots are
    /// exact integers, and each output accumulates `isum × (w_scale ×
    /// x_scale)` in ascending group order, so results are bitwise equal
    /// to per-row [`QuantizedLinear::matmul_vec`]. A single activation
    /// row takes that GEMV path directly, since nothing would reuse a
    /// decoded row.
    pub fn matmul_mat(&self, xs: &Matrix) -> Matrix {
        assert_eq!(self.cols, xs.cols());
        let (m, n, k) = (xs.rows(), self.rows, self.cols);
        let mut data = vec![0.0f32; m * n];
        if m == 1 {
            self.matmul_vec_into(xs.row(0), &mut data, &mut QuantScratch::new());
            return Matrix::from_vec(m, n, data);
        }
        let gpr = self.groups_per_row();
        let mut xq = vec![0i16; m * k];
        let mut xscales = vec![0.0f32; m * gpr];
        for t in 0..m {
            quantize_groups(
                xs.row(t),
                self.group,
                &mut xq[t * k..(t + 1) * k],
                &mut xscales[t * gpr..(t + 1) * gpr],
            );
        }
        let mut wq = vec![0i16; 2 * k];
        // A ragged edge pairs its last row with itself and keeps one
        // half of the tile: every output is computed independently, so
        // the duplicate changes no value.
        for r0 in (0..n).step_by(2) {
            let r1 = (r0 + 1).min(n - 1);
            let (w0, w1) = wq.split_at_mut(k);
            self.decode_row(r0, w0);
            self.decode_row(r1, w1);
            let ws = [r0, r1].map(|r| &self.scales[r * gpr..(r + 1) * gpr]);
            for t0 in (0..m).step_by(2) {
                let t1 = (t0 + 1).min(m - 1);
                let x = [t0, t1].map(|t| &xq[t * k..(t + 1) * k]);
                let xsc = [t0, t1].map(|t| &xscales[t * gpr..(t + 1) * gpr]);
                let y = tile2x2([w0, w1], ws, x, xsc, self.group);
                data[t0 * n + r0] = y[0][0];
                data[t0 * n + r1] = y[1][0];
                data[t1 * n + r0] = y[0][1];
                data[t1 * n + r1] = y[1][1];
            }
        }
        Matrix::from_vec(m, n, data)
    }

    /// Bytes of quantized storage (packed codes + per-group scales).
    pub fn storage_bytes(&self) -> usize {
        let code_bytes = match &self.codes {
            Codes::Int8(q) => q.len(),
            Codes::Int4(p) => p.len(),
        };
        code_bytes + self.scales.len() * 4
    }
}

/// Quantize `x` per group (scale `max|group| / 127`, same
/// degenerate-group guard as the weights): one code per element into
/// `q`, one scale per group into `scales`. Codes lie in `[-127, 127]`,
/// so an i8 and an i16 destination hold the same values.
fn quantize_groups<T: From<i8>>(x: &[f32], group: usize, q: &mut [T], scales: &mut [f32]) {
    for ((xg, qg), scale) in x.chunks(group).zip(q.chunks_mut(group)).zip(scales) {
        *scale = group_scale(xg, 127.0);
        for (v, code) in xg.iter().zip(qg) {
            *code = T::from((v / *scale).round().clamp(-127.0, 127.0) as i8);
        }
    }
}

/// 2×2 tile of the batched quantized matmul: outputs `y[i][j]` of
/// decoded weight row `w[i]` against activation row `x[j]`. Per group,
/// each output adds `isum × (w_scale × x_scale)` in ascending group
/// order — the [`QuantizedLinear::dot_row`] expression, so a tile
/// output is bitwise equal to the GEMV output.
#[inline]
fn tile2x2(
    w: [&[i16]; 2],
    ws: [&[f32]; 2],
    x: [&[i16]; 2],
    xs: [&[f32]; 2],
    group: usize,
) -> [[f32; 2]; 2] {
    let mut acc = [[0.0f32; 2]; 2];
    // Zipped group iterators, not indices: they carry no bounds checks,
    // which halves the tile's time.
    let codes = (w[0].chunks(group).zip(w[1].chunks(group)))
        .zip(x[0].chunks(group).zip(x[1].chunks(group)));
    let scales = (ws[0].iter().zip(ws[1])).zip(xs[0].iter().zip(xs[1]));
    for (((w0, w1), (x0, x1)), ((s0, s1), (t0, t1))) in codes.zip(scales) {
        acc[0][0] += dot_i16(w0, x0) as f32 * (s0 * t0);
        acc[1][0] += dot_i16(w1, x0) as f32 * (s1 * t0);
        acc[0][1] += dot_i16(w0, x1) as f32 * (s0 * t1);
        acc[1][1] += dot_i16(w1, x1) as f32 * (s1 * t1);
    }
    acc
}

/// Exact i16 dot in i32. A full [`QUANT_GROUP`]-wide group takes a
/// fixed-width loop, which LLVM lowers to `pmaddwd` on x86_64 with or
/// without the `simd` feature; integer accumulation is exact, so every
/// width and order returns the same value.
#[inline(always)]
fn dot_i16(a: &[i16], b: &[i16]) -> i32 {
    let widen = |(a, b): (&i16, &i16)| i32::from(*a) * i32::from(*b);
    match (
        <&[i16; QUANT_GROUP]>::try_from(a),
        <&[i16; QUANT_GROUP]>::try_from(b),
    ) {
        (Ok(a), Ok(b)) => a.iter().zip(b).map(widen).sum(),
        _ => a.iter().zip(b).map(widen).sum(),
    }
}

/// Exact i8 dot in i32, dispatched to the SSE2 backend when enabled.
/// Integer accumulation is exact, so every backend returns the same
/// value.
#[inline]
fn dot_i8(w: &[i8], x: &[i8]) -> i32 {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        crate::simd::dot_i8(w, x)
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        w.iter()
            .zip(x)
            .map(|(a, b)| i32::from(*a) * i32::from(*b))
            .sum()
    }
}

/// Exact packed-INT4 · i8 dot in i32, dispatched to the SSE2 backend
/// (in-register nibble unpack) when enabled. `packed` holds two biased
/// codes per byte, low nibble first; an odd `x.len()` uses only the
/// final byte's low nibble. Integer accumulation is exact, so both
/// backends return the same value — [`dot_i4_scalar`] is the pinned
/// reference.
#[inline]
fn dot_i4(packed: &[u8], x: &[i8]) -> i32 {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        crate::simd::dot_i4(packed, x)
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        dot_i4_scalar(packed, x)
    }
}

/// Scalar reference for [`dot_i4`]: byte-at-a-time nibble unpack in the
/// exact layout [`QuantizedLinear::quantize_with`] packs (low nibble =
/// even column, stored `q + 8`). Kept alive on every backend so
/// proptests can pin the dispatched kernel against it.
#[allow(dead_code)] // the dispatch target on non-simd builds; test-only otherwise
fn dot_i4_scalar(packed: &[u8], x: &[i8]) -> i32 {
    debug_assert_eq!(packed.len(), x.len().div_ceil(2));
    let pairs = x.len() / 2;
    let mut acc = 0i32;
    for (i, &byte) in packed[..pairs].iter().enumerate() {
        let q0 = i32::from(byte & 0x0F) - 8;
        let q1 = i32::from(byte >> 4) - 8;
        acc += q0 * i32::from(x[2 * i]) + q1 * i32::from(x[2 * i + 1]);
    }
    if x.len() % 2 == 1 {
        acc += (i32::from(packed[pairs] & 0x0F) - 8) * i32::from(x[x.len() - 1]);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::matmul_vec;
    use proptest::prelude::*;

    #[test]
    fn quantized_matvec_close_to_f32() {
        let w = Matrix::random(24, 48, 3, 0.8);
        let x: Vec<f32> = (0..48).map(|i| ((i * 7) as f32 * 0.11).sin()).collect();
        let exact = matmul_vec(&w, &x);
        let q = QuantizedLinear::quantize(&w).matmul_vec(&x);
        for (a, b) in exact.iter().zip(&q) {
            let tol = 0.05 * (1.0 + a.abs());
            assert!((a - b).abs() < tol, "{a} vs {b}");
        }
    }

    #[test]
    fn int4_matvec_tracks_f32() {
        let w = Matrix::random(24, 48, 3, 0.8);
        let x: Vec<f32> = (0..48).map(|i| ((i * 7) as f32 * 0.11).sin()).collect();
        let exact = matmul_vec(&w, &x);
        let q = QuantizedLinear::quantize_int4(&w).matmul_vec(&x);
        // 4-bit codes are ~16x coarser than 8-bit: same shape, looser tol.
        for (a, b) in exact.iter().zip(&q) {
            let tol = 0.6 * (1.0 + a.abs());
            assert!((a - b).abs() < tol, "{a} vs {b}");
        }
    }

    #[test]
    fn storage_is_quarter_of_f32() {
        let w = Matrix::random(64, 64, 1, 1.0);
        let q = QuantizedLinear::quantize(&w);
        let f32_bytes = 64 * 64 * 4;
        assert!(q.storage_bytes() < f32_bytes / 3);
        // INT4 halves it again (plus the same per-group scales).
        let q4 = QuantizedLinear::quantize_int4(&w);
        assert!(q4.storage_bytes() < q.storage_bytes() * 3 / 4);
    }

    #[test]
    fn zero_matrix_roundtrips() {
        let w = Matrix::zeros(4, 4);
        for q in [
            QuantizedLinear::quantize(&w),
            QuantizedLinear::quantize_int4(&w),
        ] {
            let y = q.matmul_vec(&[1.0, 2.0, 3.0, 4.0]);
            assert!(y.iter().all(|v| *v == 0.0));
            assert_eq!(q.dequantize().data(), w.data());
        }
    }

    #[test]
    fn all_zero_group_inside_nonzero_row() {
        // A row whose first group is all zeros while later groups carry
        // signal: the zero group's forced scale must not contaminate
        // the others.
        let mut w = Matrix::zeros(1, 64);
        for c in 32..64 {
            w.row_mut(0)[c] = (c as f32 - 47.5) * 0.1;
        }
        let q = QuantizedLinear::quantize(&w);
        let deq = q.dequantize();
        for c in 0..32 {
            assert_eq!(deq.row(0)[c], 0.0);
        }
        for c in 32..64 {
            let err = (deq.row(0)[c] - w.row(0)[c]).abs();
            assert!(err <= q.scale_at(0, c) * 0.5 + 1e-7);
        }
    }

    #[test]
    fn subnormal_maxima_quantize_to_zero_within_bound() {
        // max|group| = 1e-40 (subnormal): scale would underflow; the
        // guard forces scale = 1.0 and codes of 0 — error 1e-40 ≤ 0.5.
        let w = Matrix::from_vec(1, 4, vec![1.0e-40, -1.0e-40, 0.0, 1.0e-41]);
        for q in [
            QuantizedLinear::quantize(&w),
            QuantizedLinear::quantize_int4(&w),
        ] {
            assert_eq!(q.scale_at(0, 0), 1.0);
            assert!(q.dequantize().data().iter().all(|v| *v == 0.0));
            let y = q.matmul_vec(&[1.0; 4]);
            assert_eq!(y[0], 0.0);
        }
    }

    #[test]
    fn ragged_tail_group_is_quantized() {
        // cols = 70 with group 32: two full groups + a 6-wide tail.
        let w = Matrix::random(3, 70, 21, 0.9);
        for q in [
            QuantizedLinear::quantize(&w),
            QuantizedLinear::quantize_int4(&w),
        ] {
            let qmax = if q.mode() == QuantMode::Int8 {
                127.0
            } else {
                7.0
            };
            let deq = q.dequantize();
            for r in 0..3 {
                for c in 0..70 {
                    let err = (deq.row(r)[c] - w.row(r)[c]).abs();
                    let bound = q.scale_at(r, c) * 0.5 * 1.0001 + 1e-7;
                    assert!(
                        err <= bound,
                        "r{r} c{c}: err {err} bound {bound} qmax {qmax}"
                    );
                }
            }
            // The tail group's matvec contribution is present.
            let mut x = vec![0.0f32; 70];
            x[69] = 1.0;
            let y = q.matmul_vec(&x);
            assert!(y.iter().any(|v| v.abs() > 0.0));
        }
    }

    proptest! {
        #[test]
        fn roundtrip_error_within_per_group_bound(
            seed in 0u64..40,
            rows in 1usize..6,
            cols in 1usize..80,
            int4 in proptest::bool::ANY,
        ) {
            // The documented contract: |w - scale·q| ≤ scale/2 per
            // element, for any shape including ragged tail groups.
            let w = Matrix::random(rows, cols, seed, 1.0);
            let q = if int4 {
                QuantizedLinear::quantize_int4(&w)
            } else {
                QuantizedLinear::quantize(&w)
            };
            let deq = q.dequantize();
            for r in 0..rows {
                for c in 0..cols {
                    let err = (deq.row(r)[c] - w.row(r)[c]).abs();
                    let bound = q.scale_at(r, c) * 0.5 * 1.0001 + 1e-7;
                    prop_assert!(err <= bound, "r{} c{}: err {} > bound {}", r, c, err, bound);
                }
            }
        }

        #[test]
        fn relative_error_bounded(seed in 0u64..50) {
            let w = Matrix::random(16, 32, seed, 1.0);
            let x: Vec<f32> = (0..32).map(|i| ((i as f32) * 0.23).cos()).collect();
            let exact = matmul_vec(&w, &x);
            let q = QuantizedLinear::quantize(&w).matmul_vec(&x);
            let norm_e: f32 = exact.iter().map(|v| v * v).sum::<f32>().sqrt();
            let err: f32 = exact
                .iter()
                .zip(&q)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
                .sqrt();
            prop_assert!(err <= 0.05 * norm_e + 1e-3, "err {} vs norm {}", err, norm_e);
        }

        #[test]
        fn dot_i4_dispatch_pinned_to_scalar_reference(
            len in 0usize..100,
            seed in 0u64..40,
        ) {
            // The INT4 inner dot must return the scalar reference's
            // value exactly on every backend (integer accumulation is
            // exact, so "bitwise identical" is value equality here).
            // Covers full 32-code SIMD blocks, ragged tails, and odd
            // lengths ending mid-byte.
            let w = Matrix::random(1, len.max(1), seed, 1.0);
            let codes: Vec<u8> = w.row(0)[..len]
                .iter()
                .map(|v| (((v * 8.0) as i32).clamp(-8, 7) + 8) as u8)
                .collect();
            let mut packed = vec![0u8; len.div_ceil(2)];
            for (c, &q) in codes.iter().enumerate() {
                packed[c / 2] |= if c % 2 == 0 { q } else { q << 4 };
            }
            let x: Vec<i8> = (0..len).map(|i| ((i as i32 * 37 + 11) % 255 - 127) as i8).collect();
            prop_assert_eq!(dot_i4(&packed, &x), dot_i4_scalar(&packed, &x));
        }

        #[test]
        fn int4_matmul_identical_across_unpack_paths(seed in 0u64..25, cols in 1usize..90) {
            // End-to-end pin: the vectorized-unpack matmul must produce
            // exactly the values the pre-existing scalar unpack produced
            // (reconstructed here via dequantized exact group dots).
            let w = Matrix::random(4, cols, seed, 0.9);
            let q = QuantizedLinear::quantize_int4(&w);
            let x: Vec<f32> = (0..cols).map(|i| ((i as f32) * 0.17).sin()).collect();
            let got = q.matmul_vec(&x);
            // Reference: quantize activations identically, then per-group
            // exact integer dots through the scalar nibble unpack.
            let mut scratch = QuantScratch::new();
            QuantizedLinear::quantize_activations(&x, q.group(), &mut scratch);
            let gpr = cols.div_ceil(q.group()).max(1);
            for (r, out) in got.iter().enumerate() {
                let mut acc = 0.0f32;
                for g in 0..gpr {
                    let lo = g * q.group();
                    let hi = cols.min(lo + q.group());
                    let mut isum = 0i32;
                    for c in lo..hi {
                        isum += q.code_at(r, c) * i32::from(scratch.q[c]);
                    }
                    acc += isum as f32 * (q.scale_at(r, lo) * scratch.scales[g]);
                }
                prop_assert_eq!(out.to_bits(), acc.to_bits(), "row {}", r);
            }
        }

        #[test]
        fn quantization_is_deterministic(seed in 0u64..30, int4 in proptest::bool::ANY) {
            let w = Matrix::random(8, 40, seed, 0.8);
            let make = || if int4 {
                QuantizedLinear::quantize_int4(&w)
            } else {
                QuantizedLinear::quantize(&w)
            };
            let x: Vec<f32> = (0..40).map(|i| ((i as f32) * 0.31).sin()).collect();
            let a = make().matmul_vec(&x);
            let b = make().matmul_vec(&x);
            prop_assert_eq!(a, b);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn batched_matmul_matches_per_row_bitwise(
            seed in 0u64..1000,
            (rows, cols, m) in prop_oneof![(1usize..9, 1usize..90, 1usize..7), Just((64, 64, 32))],
            group in prop_oneof![Just(32usize), Just(16), Just(20)],
        ) {
            // The 2×2 tile against per-row GEMV over its edges: odd row
            // and batch counts (a tile paired with itself), `m == 1`
            // (the GEMV path), `cols < group` and ragged tail groups,
            // plus a 64 × 64 × 32 shape that runs many full tiles.
            let w = Matrix::random(rows, cols, seed, 0.8);
            let xs = Matrix::random(m, cols, seed + 1000, 0.9);
            for mode in [QuantMode::Int8, QuantMode::Int4] {
                let q = QuantizedLinear::quantize_with(&w, mode, group);
                let batched = q.matmul_mat(&xs);
                for t in 0..m {
                    let want = q.matmul_vec(xs.row(t));
                    prop_assert!(
                        batched.row(t).iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{:?} {}x{}x{} group {} row {}", mode, m, rows, cols, group, t
                    );
                }
            }
        }
    }
}
