//! Reduced-precision int16 engine (Section II-K).
//!
//! Mirrors the f32 engines with the datatype changes of the paper's
//! quantized path:
//!
//! * **forward** — the f32 engine itself: [`QuantFwdPlan`] is
//!   [`ConvPlan`] over `vpdpwssd`-based kernels, planned from the same
//!   [`LayerOptions`], so the dryrun records the identical offset
//!   streams (the int16 layouts are element-parallel to the f32 ones).
//!   The accumulation chain inside one kernel invocation is bounded by
//!   `chain_limit` channel blocks (the paper's overflow guard: *"we
//!   have to restrict the length of the FMA accumulation chain"*),
//!   which costs extra int32 output traffic — one of the three reasons
//!   int16 stays below 2×;
//! * **backward** — the f32 duality derivation, with transposed/flipped
//!   weights re-quantized into the VNNI layout and dO (padded) as input;
//! * **update** — the 4VNNIW-style pixel-pair reduction: dO rows are
//!   transposed into pair-interleaved `[q/2][k][2]` panels and input
//!   rows into channel-major `[c][q]` rows (the paper's *"memory bound
//!   operation \[that\] further degrades the performance"*), then a
//!   16-accumulator `vpdpwssd` kernel sweeps pixel pairs.

use crate::backend::QuantKernel;
use crate::blocking::{self, Blocking};
use crate::bwd::duality;
use crate::fuse::{apply_tile_requant, ApplyRec, FuseCtx, FusedOp};
use crate::fwd::{ConvPlan, OutGeom, SendMutPtr};
use crate::layer::LayerOptions;
use parallel::{split_even, ThreadPool};
use tensor::vnni::{quantize_plane, BlockedI32};
use tensor::{BlockedActs, BlockedFilter, ConvShape, VnniActs, VnniFilter, VLEN};

/// Default accumulation-chain bound in channel blocks (64 channels).
pub const DEFAULT_CHAIN_LIMIT: usize = 4;

/// A planned int16 forward convolution. Built with `opts.fuse ==
/// FusedOp::None` it is a *raw* plan that leaves int32 accumulators
/// ([`QuantFwdPlan::run`]); any other op builds a fused plan that
/// requantizes in the APPLY ([`QuantFwdPlan::run_fused`]).
pub type QuantFwdPlan = ConvPlan<QuantKernel>;

/// `blocking` with `cb_inner` bounded by `chain_limit` channel blocks
/// (the overflow guard), kept a divisor of `Cb` so `cb_steps` stays
/// integral.
fn chain_bounded(shape: &ConvShape, mut blocking: Blocking, chain_limit: usize) -> Blocking {
    if blocking.cb_inner > chain_limit {
        blocking.cb_inner = (1..=chain_limit)
            .rev()
            .find(|&ci| shape.cb().is_multiple_of(ci))
            .expect("chain limit must be at least one channel block");
    }
    blocking
}

impl QuantFwdPlan {
    /// Dryrun `shape` as [`FwdPlan::new`](crate::fwd::FwdPlan) does,
    /// with `blocking.cb_inner` bounded by `opts.chain_limit`. Pass the
    /// f32 plan's blocking to share its decision (the legality
    /// invariants of the f32 planner hold here too, and are
    /// property-tested).
    pub fn new(shape: ConvShape, opts: &LayerOptions, blocking: Blocking) -> Self {
        let blocking = chain_bounded(&shape, blocking, opts.chain_limit);
        Self::dryrun(shape, opts, blocking, OutGeom::padded(&shape, opts.out_pad))
    }

    /// Execute `out = conv(input, weights)` in int16→int32 (raw plans
    /// only — fused plans requantize through [`QuantFwdPlan::run_fused`]).
    pub fn run(
        &self,
        pool: &ThreadPool,
        input: &VnniActs,
        weights: &VnniFilter,
        out: &mut BlockedI32,
    ) {
        assert_eq!(self.fused(), FusedOp::None, "fused plans must run through run_fused");
        self.check_input(input, weights);
        let sh = self.shape();
        assert_eq!(
            (out.n, out.k, out.h, out.w, 0),
            (sh.n, sh.k, sh.p(), sh.q(), self.out_pad()),
            "output mismatch"
        );
        // SAFETY: geometry validated; disjoint tiles per thread.
        unsafe { self.run_raw(pool, input.as_ptr(), weights.as_ptr(), out.as_mut_ptr()) }
    }

    /// Execute the full quantized chain into an f32 tensor:
    /// int16 conv → int32 accumulators (written bit-wise into the f32
    /// storage) → per-tile requantize `acc · mult[k]` + fused post-ops
    /// (folded-BN bias, residual add, ReLU) in the APPLY step.
    ///
    /// `mult` is the per-output-channel requantization multiplier (the
    /// per-k weight scale with the activation scales folded in, see
    /// `VnniFilter::quantize_per_k`), length ≥ the padded channel
    /// count. The bias in `ctx` stays f32. The output's physical
    /// border (when `out_pad > 0`) is never touched and must already
    /// be zero, exactly like the f32 fused path.
    pub fn run_fused(
        &self,
        pool: &ThreadPool,
        input: &VnniActs,
        weights: &VnniFilter,
        output: &mut BlockedActs,
        mult: &[f32],
        ctx: &FuseCtx<'_>,
    ) {
        assert_ne!(self.fused(), FusedOp::None, "raw plans must run through run");
        self.check_input(input, weights);
        self.check_output(output, ctx);
        let kpad = self.shape().k.next_multiple_of(VLEN);
        assert!(mult.len() >= kpad, "mult shorter than the padded channel count");
        let fused = self.fused();
        let apply = |rec: &ApplyRec, acc: *mut i32| {
            // SAFETY: the record addresses a finished tile of the
            // validated output; `mult` and `ctx` were checked above.
            unsafe { apply_tile_requant(fused, rec, acc as *mut f32, mult, ctx) }
        };
        // SAFETY: geometry validated above; threads own disjoint tiles,
        // and every tile's APPLY follows its last reduction. The i32
        // accumulators share the f32 storage's element size and strides.
        unsafe {
            self.replay(pool, input.as_ptr(), weights.as_ptr(), output.as_mut_ptr().cast(), apply)
        }
    }

    fn check_input(&self, input: &VnniActs, weights: &VnniFilter) {
        let sh = self.shape();
        assert_eq!(
            (input.n, input.c, input.h, input.w, input.pad),
            (sh.n, sh.c, sh.h, sh.w, self.input_pad()),
            "input mismatch"
        );
        assert_eq!((weights.k, weights.c), (sh.k, sh.c), "filter mismatch");
    }
}

/// Quantize `src` per channel into `dst` across the team:
/// `dst = rne_sat_i8(src · inv_scale[c])`, one `[Hp][Wp][VLEN]` plane
/// ([`quantize_plane`]) at a time, the `n · Cb` planes split evenly over
/// the threads. `dst` is a reusable scratch: the executor quantizes
/// every conv input into one geometry-keyed scratch instead of
/// reallocating.
///
/// `inv_scale` must cover the padded channel count (`cb · VLEN`).
/// Geometry (incl. physical padding) must match `src` exactly; the zero
/// padding quantizes to exact zeros, so a sample's quantized image is
/// independent of its batch neighbours.
pub fn quantize_acts(pool: &ThreadPool, src: &BlockedActs, inv_scale: &[f32], dst: &mut VnniActs) {
    assert_eq!(
        (dst.n, dst.cb, dst.h, dst.w, dst.pad),
        (src.n, src.cb, src.h, src.w, src.pad),
        "quantize scratch geometry mismatch"
    );
    assert!(inv_scale.len() >= dst.cb * VLEN, "inv_scale shorter than padded channels");
    let (plane, cb, planes) = (dst.stride_cb(), dst.cb, dst.n * dst.cb);
    let src = src.as_slice();
    let out = dst.as_mut_slice();
    assert_eq!(out.len(), planes * plane, "scratch length disagrees with its geometry");
    let out = SendMutPtr(out.as_mut_ptr());
    pool.run(|ctx| {
        let mine = ctx.chunk(planes);
        let (start, len) = (mine.start * plane, mine.len() * plane);
        // SAFETY: `out` addresses the `planes · plane` elements of `dst`
        // (length asserted above), which this call borrows mutably
        // until the region ends, and
        // `ctx.chunk` hands each thread a disjoint range of planes, so
        // no two threads' slices overlap.
        let dst = unsafe { std::slice::from_raw_parts_mut(out.get().add(start), len) };
        for (i, (d, s)) in
            dst.chunks_exact_mut(plane).zip(src[start..start + len].chunks_exact(plane)).enumerate()
        {
            let c0 = (mine.start + i) % cb * VLEN;
            quantize_plane(d, s, &inv_scale[c0..c0 + VLEN]);
        }
    });
}

/// Planned int16 backward pass: the f32 backward duality (Section
/// II-I) over int16 kernels.
pub struct QuantBwdPlan {
    shape: ConvShape,
    dual: QuantFwdPlan,
}

impl QuantBwdPlan {
    /// Derive the duality and dryrun the dual plan with the team size,
    /// backend, prefetch and chain limit of `opts` (the dual plan reads
    /// dO at the dual padding and writes raw int32 dI, so the padding
    /// and fusion settings do not apply).
    ///
    /// # Panics
    /// With "int16 backward supports …" for every shape the f32
    /// backward sends to its Algorithm 7 GEMM fallback (strided spatial
    /// or non-square filters): that fallback has no int16 counterpart,
    /// in the paper either.
    pub fn new(shape: ConvShape, opts: &LayerOptions) -> Self {
        let (_, dual) = duality(&shape, 0);
        let Some((dual, out_geom)) = dual else {
            panic!("int16 backward supports stride-1 square or 1x1 layers (as does the paper)")
        };
        let blocking = chain_bounded(&dual, blocking::choose(&dual), opts.chain_limit);
        Self { shape, dual: QuantFwdPlan::with_out_geom(dual, opts, blocking, out_geom) }
    }

    /// Physical padding required on the int16 dO tensor.
    pub fn dout_pad(&self) -> usize {
        self.dual.shape().pad
    }

    /// Execute `dinput = conv_bwd(dout, weights)`.
    ///
    /// `weights` is the f32 master (kept in f32 as in mixed-precision
    /// training); it is transposed/flipped and re-quantized here.
    pub fn run(
        &self,
        pool: &ThreadPool,
        dout: &VnniActs,
        weights: &BlockedFilter,
        w_scale: f32,
        dinput: &mut BlockedI32,
    ) {
        let sh = &self.shape;
        assert_eq!((dout.n, dout.c, dout.h, dout.w), (sh.n, sh.k, sh.p(), sh.q()));
        assert_eq!(dout.pad, self.dout_pad(), "dout must carry the dual padding");
        assert_eq!((dinput.n, dinput.k, dinput.h, dinput.w), (sh.n, sh.c, sh.h, sh.w));
        let wt = VnniFilter::quantize(&weights.transpose_flip(), w_scale);
        if sh.stride > 1 {
            // strided dual writes leave the other dI pixels untouched
            dinput.zero();
        }
        // SAFETY: dual plan geometry matches.
        unsafe { self.dual.run_raw(pool, dout.as_ptr(), wt.as_ptr(), dinput.as_mut_ptr()) };
    }
}

/// Planned int16 weight-gradient pass (pixel-pair reduction).
pub struct QuantUpdPlan {
    shape: ConvShape,
    nthreads: usize,
}

impl QuantUpdPlan {
    /// Team size the plan expects.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }
}

impl QuantUpdPlan {
    /// Trivial setup (the kernels are shape-independent here).
    pub fn new(shape: ConvShape, nthreads: usize) -> Self {
        Self { shape, nthreads }
    }

    /// Execute `dweights(i32) = conv_upd(input(i16), dout(i16))`.
    ///
    /// Includes the two upfront transposes the paper charges to this
    /// pass: dO rows → pair-interleaved `[q/2][k][2]`, input rows →
    /// channel-major `[c][q]`.
    pub fn run(&self, pool: &ThreadPool, input: &VnniActs, dout: &VnniActs, dweights: &mut [i32]) {
        assert_eq!(pool.nthreads(), self.nthreads);
        let sh = &self.shape;
        assert_eq!((input.n, input.c, input.h, input.w), (sh.n, sh.c, sh.h, sh.w));
        assert_eq!((dout.n, dout.c, dout.h, dout.w), (sh.n, sh.k, sh.p(), sh.q()));
        assert_eq!(dout.pad, 0);
        let wlen = sh.kb() * sh.cb() * sh.r * sh.s * VLEN * VLEN;
        assert_eq!(dweights.len(), wlen, "dweights length mismatch");
        dweights.fill(0);

        let (p_dim, q_dim) = (sh.p(), sh.q());
        let qp = q_dim.div_ceil(2); // pixel pairs per row (odd Q padded)
        let tasks = sh.kb() * sh.cb() * sh.r * sh.s;
        let dw = SendMutPtr(dweights.as_mut_ptr());
        let shv = *sh;
        let in_t = input;
        let do_t = dout;
        pool.run(move |ctx| {
            // thread-local transpose scratch
            let mut dot = vec![0i16; qp * VLEN * 2]; // [q/2][k][2]
            let mut it = vec![0i16; VLEN * qp * 2]; // [c][q] (padded even)
            let my_tasks = split_even(tasks, ctx.nthreads, ctx.tid);
            for task in my_tasks {
                let s_ = task % shv.s;
                let r_ = (task / shv.s) % shv.r;
                let cb = (task / (shv.s * shv.r)) % shv.cb();
                let kb = task / (shv.s * shv.r * shv.cb());
                let panel = task * VLEN * VLEN; // flat [kb][cb][r][s] order
                let mut acc = [[0i32; VLEN]; VLEN];
                for n in 0..shv.n {
                    for pj in 0..p_dim {
                        // transpose dO row pj into pair-interleave
                        let do_base = do_t.pix_offset_logical(n, kb, pj as isize, 0);
                        let dsl = do_t.as_slice();
                        dot.fill(0);
                        for q in 0..q_dim {
                            for k in 0..VLEN {
                                dot[(q / 2) * VLEN * 2 + k * 2 + (q % 2)] =
                                    dsl[do_base + q * VLEN + k];
                            }
                        }
                        // transpose the strided input pixels feeding
                        // this row at tap (r_, s_) into channel-major
                        let isl = in_t.as_slice();
                        it.fill(0);
                        for q in 0..q_dim {
                            let off = in_t.pix_offset_logical(
                                n,
                                cb,
                                (pj * shv.stride + r_) as isize - shv.pad as isize,
                                (q * shv.stride + s_) as isize - shv.pad as isize,
                            );
                            for c in 0..VLEN {
                                it[c * qp * 2 + q] = isl[off + c];
                            }
                        }
                        // pixel-pair dot-product accumulate
                        quant_upd_rows(&mut acc, &it, &dot, qp);
                    }
                }
                // write the finished panel ([c][k] like the f32 layout)
                for (c, row) in acc.iter().enumerate() {
                    for (k, v) in row.iter().enumerate() {
                        // SAFETY: panels are disjoint per task.
                        unsafe { *dw.get().add(panel + c * VLEN + k) += v };
                    }
                }
            }
        });
    }
}

/// Accumulate `acc[c][k] += Σ_pairs dot(it[c][2q..], dot_panel[q][k][..])`.
fn quant_upd_rows(acc: &mut [[i32; VLEN]; VLEN], it: &[i16], dot: &[i16], qp: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512vnni") {
            // SAFETY: feature detected; slices sized by construction.
            unsafe { quant_upd_rows_vnni(acc, it, dot, qp) };
            return;
        }
    }
    quant_upd_rows_scalar(acc, it, dot, qp);
}

fn quant_upd_rows_scalar(acc: &mut [[i32; VLEN]; VLEN], it: &[i16], dot: &[i16], qp: usize) {
    for (c, row) in acc.iter_mut().enumerate() {
        for q in 0..qp {
            let x0 = it[c * qp * 2 + 2 * q] as i32;
            let x1 = it[c * qp * 2 + 2 * q + 1] as i32;
            for (k, v) in row.iter_mut().enumerate() {
                let w0 = dot[q * VLEN * 2 + k * 2] as i32;
                let w1 = dot[q * VLEN * 2 + k * 2 + 1] as i32;
                *v += x0 * w0 + x1 * w1;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512vnni,avx512bw")]
unsafe fn quant_upd_rows_vnni(acc: &mut [[i32; VLEN]; VLEN], it: &[i16], dot: &[i16], qp: usize) {
    use std::arch::x86_64::*;
    let mut vacc = [_mm512_setzero_si512(); VLEN];
    for (c, va) in vacc.iter_mut().enumerate() {
        *va = _mm512_loadu_si512(acc[c].as_ptr() as *const _);
    }
    for q in 0..qp {
        let w = _mm512_loadu_si512(dot.as_ptr().add(q * VLEN * 2) as *const _);
        for (c, va) in vacc.iter_mut().enumerate() {
            let pair = *(it.as_ptr().add(c * qp * 2 + 2 * q) as *const i32);
            *va = _mm512_dpwssd_epi32(*va, _mm512_set1_epi32(pair), w);
        }
    }
    for (c, va) in vacc.iter().enumerate() {
        _mm512_storeu_si512(acc[c].as_mut_ptr() as *mut _, *va);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive int32 reference conv on the vnni tensors.
    fn fwd_ref(sh: &ConvShape, x: &VnniActs, w: &VnniFilter) -> BlockedI32 {
        let mut out = BlockedI32::zeros(sh.n, sh.k, sh.p(), sh.q());
        for n in 0..sh.n {
            for k in 0..sh.k {
                for oj in 0..sh.p() {
                    for oi in 0..sh.q() {
                        let mut acc = 0i32;
                        for c in 0..sh.c {
                            for r in 0..sh.r {
                                for s in 0..sh.s {
                                    let ij = (sh.stride * oj + r) as isize - sh.pad as isize;
                                    let ii = (sh.stride * oi + s) as isize - sh.pad as isize;
                                    if ij >= 0
                                        && (ij as usize) < sh.h
                                        && ii >= 0
                                        && (ii as usize) < sh.w
                                    {
                                        acc += x.get(n, c, ij as usize, ii as usize) as i32
                                            * w.get(k, c, r, s) as i32;
                                    }
                                }
                            }
                        }
                        out.set(n, k, oj, oi, acc);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn quant_fwd_matches_reference_exactly() {
        for (shape, threads) in [
            (ConvShape::new(2, 32, 32, 8, 8, 3, 3, 1, 1), 4),
            (ConvShape::new(1, 64, 32, 8, 8, 1, 1, 1, 0), 3),
            (ConvShape::new(1, 32, 32, 8, 8, 1, 1, 2, 0), 2),
        ] {
            let pool = ThreadPool::new(threads);
            let opts = LayerOptions::new(threads).with_prefetch(false).with_chain_limit(2);
            let plan = QuantFwdPlan::new(shape, &opts, blocking::choose(&shape));
            let x = VnniActs::random(shape.n, shape.c, shape.h, shape.w, shape.pad, 3);
            let w = VnniFilter::random(shape.k, shape.c, shape.r, shape.s, 4);
            let mut out = BlockedI32::zeros(shape.n, shape.k, shape.p(), shape.q());
            plan.run(&pool, &x, &w, &mut out);
            let expect = fwd_ref(&shape, &x, &w);
            assert_eq!(expect.as_slice(), out.as_slice(), "{shape}");
        }
    }

    #[test]
    fn fused_requant_matches_raw_plus_manual_apply() {
        let shape = ConvShape::new(2, 32, 32, 8, 8, 3, 3, 1, 1);
        let threads = 3;
        let pool = ThreadPool::new(threads);
        let x = VnniActs::random(shape.n, shape.c, shape.h, shape.w, shape.pad, 3);
        let w = VnniFilter::random(shape.k, shape.c, shape.r, shape.s, 4);
        let mult: Vec<f32> = (0..32).map(|k| 1e-4 * (k + 1) as f32).collect();
        let bias: Vec<f32> = (0..32).map(|k| 0.05 * k as f32 - 0.8).collect();
        let residual = BlockedActs::random(2, 32, 8, 8, 1, 5);

        let opts = LayerOptions::new(threads).with_prefetch(false);
        let raw = QuantFwdPlan::new(shape, &opts, blocking::choose(&shape));
        let mut acc = BlockedI32::zeros(2, 32, 8, 8);
        raw.run(&pool, &x, &w, &mut acc);

        for fuse in [FusedOp::Bias, FusedOp::BiasRelu, FusedOp::BiasEltwiseRelu] {
            // fused plan writes into a pad-1 padded output blob
            let fused_opts = opts.clone().with_fuse(fuse).with_out_pad(1);
            let fused = QuantFwdPlan::new(shape, &fused_opts, blocking::choose(&shape));
            assert_eq!(fused.fused(), fuse);
            let mut out = BlockedActs::zeros(2, 32, 8, 8, 1);
            let ctx =
                FuseCtx { bias: Some(&bias), eltwise: fuse.needs_eltwise().then_some(&residual) };
            fused.run_fused(&pool, &x, &w, &mut out, &mult, &ctx);
            for n in 0..2 {
                for k in 0..32 {
                    for h in 0..8 {
                        for wd in 0..8 {
                            let mut want = acc.get(n, k, h, wd) as f32 * mult[k] + bias[k];
                            if fuse.needs_eltwise() {
                                want += residual.get(n, k, h, wd);
                            }
                            if matches!(fuse, FusedOp::BiasRelu | FusedOp::BiasEltwiseRelu) {
                                want = want.max(0.0);
                            }
                            assert_eq!(out.get(n, k, h, wd), want, "{fuse:?} n={n} k={k}");
                        }
                    }
                }
                // the physical border must still be all zeros
                for kb in 0..out.cb {
                    for wp in 0..out.wp() {
                        let off = out.pix_offset_logical(n, kb, -1, wp as isize - 1);
                        for v in 0..VLEN {
                            assert_eq!(out.as_slice()[off + v], 0.0, "{fuse:?} border");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn per_channel_quantize_respects_scales_and_padding() {
        let mut src = BlockedActs::zeros(1, 32, 3, 3, 1);
        src.set(0, 0, 1, 1, 0.5);
        src.set(0, 17, 0, 2, -0.25);
        let mut inv = vec![1.0f32; 32];
        inv[0] = 100.0; // scale 0.01
        inv[17] = 8.0;
        let mut q = VnniActs::zeros(1, 32, 3, 3, 1);
        quantize_acts(&ThreadPool::new(1), &src, &inv, &mut q);
        assert_eq!(q.get(0, 0, 1, 1), 50);
        assert_eq!(q.get(0, 17, 0, 2), -2);
        // physical padding must stay exactly zero
        let off = q.pix_offset_logical(0, 0, -1, -1);
        for v in 0..VLEN {
            assert_eq!(q.as_slice()[off + v], 0);
        }
    }

    /// The per-element definition `quantize_acts` must reproduce:
    /// `round_ties_even(x · inv[c])` clamped to `±127`, for every
    /// logical element through `get`/`set`; padding stays 0.
    fn quantize_acts_ref(src: &BlockedActs, inv: &[f32]) -> VnniActs {
        let mut out = VnniActs::zeros(src.n, src.c, src.h, src.w, src.pad);
        for n in 0..src.n {
            for (c, &inv_c) in inv.iter().enumerate().take(src.c) {
                for h in 0..src.h {
                    for w in 0..src.w {
                        let v = (src.get(n, c, h, w) * inv_c).round_ties_even();
                        out.set(n, c, h, w, v.clamp(-127.0, 127.0) as i16);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn team_quantize_matches_the_per_element_definition() {
        // (n, c, h, w, pad): conv1's input (c = 3: one padded channel
        // block, pad 3), pad 0 and pad 1 with partial channel blocks;
        // n·Cb = 2, 3, 9, 4 planes, so 2 and 3 threads split unevenly
        let geoms = [(2, 3, 9, 7, 3), (1, 40, 5, 6, 0), (3, 33, 4, 4, 1), (1, 64, 3, 5, 1)];
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.5, -2.5, 126.5, -0.0, 1e30];
        for (gi, &(n, c, h, w, pad)) in geoms.iter().enumerate() {
            let mut x = BlockedActs::random(n, c, h, w, pad, gi as u64);
            for (i, &v) in specials.iter().enumerate() {
                x.set(i % n, (5 * i) % c, i % h, (3 * i) % w, v);
            }
            // scales from 1 (exact ties stay ties) to far past saturation
            let cpad = c.next_multiple_of(VLEN);
            let inv: Vec<f32> = (0..cpad).map(|ch| [1.0, 127.0, 3.0, 1e4, 0.1][ch % 5]).collect();
            let want = quantize_acts_ref(&x, &inv);
            for threads in 1..=3 {
                let pool = ThreadPool::new(threads);
                // a dirty scratch: the border and the channel-pad lanes
                // must come out exactly 0, as in the reference
                let mut got = VnniActs::zeros(n, c, h, w, pad);
                got.as_mut_slice().fill(-1);
                quantize_acts(&pool, &x, &inv, &mut got);
                assert_eq!(got.as_slice(), want.as_slice(), "geom {gi} threads {threads}");
            }
        }
    }

    #[test]
    fn chain_limit_does_not_change_results() {
        let shape = ConvShape::new(1, 128, 16, 6, 6, 1, 1, 1, 0);
        let x = VnniActs::random(1, 128, 6, 6, 0, 7);
        let w = VnniFilter::random(16, 128, 1, 1, 8);
        let pool = ThreadPool::new(2);
        let mut results = Vec::new();
        for chain in [1usize, 2, 4, 8] {
            let opts = LayerOptions::new(2).with_prefetch(false).with_chain_limit(chain);
            let plan = QuantFwdPlan::new(shape, &opts, blocking::choose(&shape));
            let mut out = BlockedI32::zeros(1, 16, 6, 6);
            plan.run(&pool, &x, &w, &mut out);
            results.push(out.as_slice().to_vec());
        }
        for r in &results[1..] {
            assert_eq!(&results[0], r);
        }
    }

    #[test]
    fn quant_bwd_duality_matches_naive() {
        let shape = ConvShape::new(1, 32, 32, 6, 6, 3, 3, 1, 1);
        let threads = 3;
        let pool = ThreadPool::new(threads);
        let plan = QuantBwdPlan::new(shape, &LayerOptions::new(threads).with_prefetch(false));
        // f32 master weights with integer values so quantization at
        // scale 1.0 is exact
        let wq = VnniFilter::random(32, 32, 3, 3, 9);
        let mut wf = BlockedFilter::zeros(32, 32, 3, 3);
        for k in 0..32 {
            for c in 0..32 {
                for r in 0..3 {
                    for s in 0..3 {
                        wf.set(k, c, r, s, wq.get(k, c, r, s) as f32);
                    }
                }
            }
        }
        let gy = VnniActs::random(1, 32, 6, 6, plan.dout_pad(), 10);
        let mut gx = BlockedI32::zeros(1, 32, 6, 6);
        plan.run(&pool, &gy, &wf, 1.0, &mut gx);

        // naive backward in int arithmetic
        let mut expect = BlockedI32::zeros(1, 32, 6, 6);
        for k in 0..32usize {
            for c in 0..32usize {
                for oj in 0..6usize {
                    for oi in 0..6usize {
                        let g = gy.get(0, k, oj, oi) as i32;
                        for r in 0..3usize {
                            for s in 0..3usize {
                                let ij = (oj + r) as isize - 1;
                                let ii = (oi + s) as isize - 1;
                                if (0..6).contains(&ij) && (0..6).contains(&ii) {
                                    let cur = expect.get(0, c, ij as usize, ii as usize);
                                    expect.set(
                                        0,
                                        c,
                                        ij as usize,
                                        ii as usize,
                                        cur + g * wq.get(k, c, r, s) as i32,
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(expect.as_slice(), gx.as_slice());
    }

    /// Naive int32 backward on the vnni tensors:
    /// `dI[c][ij][ii] += dO[k][oj][oi] · W[k][c][r][s]`.
    fn bwd_ref(sh: &ConvShape, gy: &VnniActs, w: &VnniFilter) -> BlockedI32 {
        let mut expect = BlockedI32::zeros(sh.n, sh.c, sh.h, sh.w);
        for n in 0..sh.n {
            for k in 0..sh.k {
                for c in 0..sh.c {
                    for oj in 0..sh.p() {
                        for oi in 0..sh.q() {
                            let g = gy.get(n, k, oj, oi) as i32;
                            for r in 0..sh.r {
                                for s in 0..sh.s {
                                    let ij = (sh.stride * oj + r) as isize - sh.pad as isize;
                                    let ii = (sh.stride * oi + s) as isize - sh.pad as isize;
                                    if (0..sh.h as isize).contains(&ij)
                                        && (0..sh.w as isize).contains(&ii)
                                    {
                                        let (ij, ii) = (ij as usize, ii as usize);
                                        let cur = expect.get(n, c, ij, ii);
                                        expect.set(
                                            n,
                                            c,
                                            ij,
                                            ii,
                                            cur + g * w.get(k, c, r, s) as i32,
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        expect
    }

    #[test]
    fn quant_bwd_matches_naive_on_every_duality_shape() {
        for shape in [
            ConvShape::new(2, 32, 16, 7, 7, 3, 3, 1, 1),
            ConvShape::new(1, 16, 32, 6, 6, 1, 1, 1, 0),
            ConvShape::new(2, 32, 16, 8, 8, 1, 1, 2, 0),
            // odd extent: the last dI row/col receives no gradient
            ConvShape::new(1, 16, 16, 9, 9, 1, 1, 2, 0),
        ] {
            let threads = 3;
            let pool = ThreadPool::new(threads);
            let plan = QuantBwdPlan::new(shape, &LayerOptions::new(threads));
            // integer-valued f32 master weights: quantization at scale
            // 1.0 is exact
            let wq = VnniFilter::random(shape.k, shape.c, shape.r, shape.s, 9);
            let mut wf = BlockedFilter::zeros(shape.k, shape.c, shape.r, shape.s);
            for k in 0..shape.k {
                for c in 0..shape.c {
                    for r in 0..shape.r {
                        for s in 0..shape.s {
                            wf.set(k, c, r, s, wq.get(k, c, r, s) as f32);
                        }
                    }
                }
            }
            let gy = VnniActs::random(shape.n, shape.k, shape.p(), shape.q(), plan.dout_pad(), 10);
            let mut gx = BlockedI32::zeros(shape.n, shape.c, shape.h, shape.w);
            plan.run(&pool, &gy, &wf, 1.0, &mut gx);
            assert_eq!(bwd_ref(&shape, &gy, &wq).as_slice(), gx.as_slice(), "{shape}");
        }
    }

    #[test]
    #[should_panic(expected = "int16 backward supports")]
    fn quant_bwd_rejects_non_square_filters() {
        let _ =
            QuantBwdPlan::new(ConvShape::new(1, 16, 16, 8, 8, 1, 3, 1, 0), &LayerOptions::new(1));
    }

    #[test]
    fn quant_bwd_rejects_every_gemm_fallback_shape() {
        // the f32 path's GEMM-fallback shapes: padded non-square,
        // strided spatial, the strided 7×7 first conv
        for shape in [
            ConvShape::new(1, 16, 16, 8, 8, 1, 3, 1, 1),
            ConvShape::new(1, 16, 16, 8, 8, 3, 3, 2, 1),
            ConvShape::new(1, 16, 16, 20, 20, 7, 7, 2, 3),
        ] {
            assert_eq!(crate::bwd::duality(&shape, 0).0, crate::bwd::BwdKind::GemmFallback);
            let built =
                std::panic::catch_unwind(|| QuantBwdPlan::new(shape, &LayerOptions::new(1)));
            assert!(built.is_err(), "{shape} must be rejected");
        }
    }

    #[test]
    fn quant_upd_matches_naive() {
        for shape in [
            ConvShape::new(2, 16, 32, 6, 6, 3, 3, 1, 1),
            ConvShape::new(1, 32, 16, 7, 7, 1, 1, 1, 0), // odd Q
            ConvShape::new(1, 16, 16, 8, 8, 1, 1, 2, 0),
        ] {
            let threads = 3;
            let pool = ThreadPool::new(threads);
            let plan = QuantUpdPlan::new(shape, threads);
            let x = VnniActs::random(shape.n, shape.c, shape.h, shape.w, shape.pad, 11);
            let gy = VnniActs::random(shape.n, shape.k, shape.p(), shape.q(), 0, 12);
            let wlen = shape.kb() * shape.cb() * shape.r * shape.s * 256;
            let mut dw = vec![0i32; wlen];
            plan.run(&pool, &x, &gy, &mut dw);

            // naive: dW[k][c][r][s] += x * gy
            let mut expect = vec![0i32; wlen];
            for n in 0..shape.n {
                for k in 0..shape.k {
                    for c in 0..shape.c {
                        for oj in 0..shape.p() {
                            for oi in 0..shape.q() {
                                let g = gy.get(n, k, oj, oi) as i32;
                                for r in 0..shape.r {
                                    for s in 0..shape.s {
                                        let ij =
                                            (shape.stride * oj + r) as isize - shape.pad as isize;
                                        let ii =
                                            (shape.stride * oi + s) as isize - shape.pad as isize;
                                        if ij >= 0
                                            && (ij as usize) < shape.h
                                            && ii >= 0
                                            && (ii as usize) < shape.w
                                        {
                                            let xv = x.get(n, c, ij as usize, ii as usize) as i32;
                                            let panel = (((k / VLEN) * shape.cb() + c / VLEN)
                                                * shape.r
                                                + r)
                                                * shape.s
                                                + s;
                                            expect[panel * 256 + (c % VLEN) * VLEN + k % VLEN] +=
                                                xv * g;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
            assert_eq!(expect, dw, "{shape}");
        }
    }
}
