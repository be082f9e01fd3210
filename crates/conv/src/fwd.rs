//! Forward-propagation engine (Algorithms 3–5).
//!
//! Setup performs the dryrun: it walks the work-item space
//! `N × Kb × Pb × Qb` (statically partitioned over threads exactly as
//! Section II-F prescribes: minibatch first, then output feature
//! blocks, then spatial tiles), generates every kernel variant the
//! tile geometry needs (main tiles, remainder tiles, first-`cb` /
//! accumulating variants — Section II-H's motivation), and records the
//! per-thread offset streams. Execution replays the streams.
//!
//! One engine serves both datatypes: [`ConvPlan`] is generic over the
//! kernel handle, so the f32 [`FwdPlan`] and the int16
//! [`QuantFwdPlan`](crate::quant::QuantFwdPlan) share the dryrun, the
//! kernel-variant table and the replay. The int16 layouts are
//! element-parallel to the f32 ones, so both record identical streams.
//!
//! The same engine executes the *backward* pass: `bwd` plans the dual
//! shape (Section II-I) with, where needed, a strided output geometry.

use crate::backend::{FwdKernel, StreamKernel};
use crate::blocking::{tile_extents, Blocking};
use crate::fuse::{apply_tile, ApplyRec, FuseCtx, FusedOp};
use crate::layer::LayerOptions;
use crate::streams::Stream;
use microkernel::KernelShape;
use parallel::{FlatPartition, ThreadPool};
use std::collections::HashMap;
use tensor::{BlockedActs, BlockedFilter, ConvShape, VLEN};

/// Output-tensor geometry (element strides) the plan writes through.
/// The default is a dense `[N][Kb][P][Q][VLEN]` tensor; the backward
/// duality writes into the layer's (padded, possibly strided) input
/// geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutGeom {
    /// Elements between output rows.
    pub row_stride: usize,
    /// Elements between output pixels in a row.
    pub col_stride: usize,
    /// Elements between output channel blocks.
    pub kb_stride: usize,
    /// Elements between samples.
    pub n_stride: usize,
    /// Element offset of logical pixel (0, 0) of block 0, sample 0.
    pub base: usize,
}

impl OutGeom {
    /// Dense geometry for the plan's own output shape.
    pub fn dense(shape: &ConvShape) -> Self {
        Self::padded(shape, 0)
    }

    /// Geometry of an output tensor carrying `out_pad` physical zero
    /// padding on every border (`[N][Kb][P+2p][Q+2p][VLEN]`, writes
    /// land on the logical interior). Graph executors use this to let
    /// a fused convolution produce directly into a blob that a later
    /// padded convolution consumes.
    pub fn padded(shape: &ConvShape, out_pad: usize) -> Self {
        Self::blocked(shape.kb(), shape.p(), shape.q(), out_pad)
    }

    /// Geometry of any blocked `[N][cb][h+2·pad][w+2·pad][VLEN]` tensor,
    /// with writes landing on the logical interior.
    pub(crate) fn blocked(cb: usize, h: usize, w: usize, pad: usize) -> Self {
        let row_stride = (w + 2 * pad) * VLEN;
        let kb_stride = (h + 2 * pad) * row_stride;
        Self {
            row_stride,
            col_stride: VLEN,
            kb_stride,
            n_stride: cb * kb_stride,
            base: pad * (row_stride + VLEN),
        }
    }

    /// Every `stride`-th row and column of this geometry.
    pub(crate) fn strided(self, stride: usize) -> Self {
        Self { row_stride: stride * self.row_stride, col_stride: stride * self.col_stride, ..self }
    }
}

/// `Cb / cb_inner`: the reduction steps per output tile.
fn cb_steps(shape: &ConvShape, blocking: &Blocking) -> usize {
    assert!(shape.cb().is_multiple_of(blocking.cb_inner), "cb_inner must divide Cb");
    shape.cb() / blocking.cb_inner
}

/// The one derivation of a dryrun variant's [`KernelShape`]: a kernel
/// for `shape` under `blocking` that reads an input tensor carrying
/// `input_pad` physical padding and writes through `out_geom`. The
/// returned closure fills in the variant: tile extent `rows × cols`,
/// and whether it initializes the output (first `cb` step) or
/// accumulates.
fn variant_shape(
    shape: &ConvShape,
    blocking: &Blocking,
    input_pad: usize,
    out_geom: &OutGeom,
    prefetch: bool,
) -> impl Fn(usize, usize, bool) -> KernelShape {
    let in_row_stride = (shape.w + 2 * input_pad) * VLEN;
    let base = KernelShape {
        rbp: blocking.rbp,
        rbq: blocking.rbq,
        r: shape.r,
        s: shape.s,
        stride: shape.stride,
        cb_inner: blocking.cb_inner,
        in_row_stride,
        in_cb_stride: (shape.h + 2 * input_pad) * in_row_stride,
        out_row_stride: out_geom.row_stride,
        out_col_stride: out_geom.col_stride,
        init_zero: true,
        prefetch,
    };
    move |rbp, rbq, init_zero| KernelShape { rbp, rbq, init_zero, ..base }
}

/// Enumerate every [`KernelShape`] variant a forward dryrun for
/// `(shape, blocking)` can generate against a dense output and
/// `shape.pad` physical input padding: main tiles, spatial remainder
/// tiles, and the initializing/accumulating `cb`-step variants. The
/// int16 quantized plan draws from the *same* population, so this one
/// enumeration feeds both the `verify-kernels` sweep and the verifier
/// property tests.
pub fn kernel_shape_variants(
    shape: &ConvShape,
    blocking: &Blocking,
    prefetch: bool,
) -> Vec<KernelShape> {
    let variant = variant_shape(shape, blocking, shape.pad, &OutGeom::dense(shape), prefetch);
    let inits: &[bool] = if cb_steps(shape, blocking) > 1 { &[true, false] } else { &[true] };
    let mut out = Vec::new();
    for rows in tile_extents(shape.p(), blocking.rbp) {
        for cols in tile_extents(shape.q(), blocking.rbq) {
            out.extend(inits.iter().map(|&init| variant(rows, cols, init)));
        }
    }
    out
}

/// A fully planned forward convolution over kernel handle `K`: the
/// dryrun's kernel-variant table plus every thread's recorded stream.
/// [`FwdPlan`] runs f32 kernels,
/// [`QuantFwdPlan`](crate::quant::QuantFwdPlan) int16 ones, and a
/// backward-duality plan is either of them on the dual shape.
pub struct ConvPlan<K> {
    shape: ConvShape,
    blocking: Blocking,
    kernels: Vec<K>,
    streams: Vec<Stream>,
    out_geom: OutGeom,
    fused: FusedOp,
    nthreads: usize,
    /// Physical input padding the plan's offsets assume.
    in_pad: usize,
    /// Physical padding of the output tensor `run` writes.
    out_pad: usize,
}

/// A planned f32 forward convolution.
pub type FwdPlan = ConvPlan<FwdKernel>;

impl<K: StreamKernel> ConvPlan<K> {
    /// The dryrun proper (Section II-H): walk Algorithm 4's loop nest
    /// for every thread and record offsets and kernel variants instead
    /// of calling kernels. Everything but the geometry comes from
    /// `opts`: team size, backend, prefetch, fused op, input padding
    /// (default: the conv's own pad) and output padding.
    pub(crate) fn dryrun(
        shape: ConvShape,
        opts: &LayerOptions,
        blocking: Blocking,
        out_geom: OutGeom,
    ) -> Self {
        let input_pad = opts.input_pad.unwrap_or(shape.pad);
        assert!(input_pad >= shape.pad, "input tensor padding below the conv's pad");
        let cb_steps = cb_steps(&shape, &blocking);
        let variant_shape = variant_shape(&shape, &blocking, input_pad, &out_geom, opts.prefetch);
        let mut kernels = Vec::new();
        let mut variants = HashMap::new();
        let mut variant_for = |rows: usize, cols: usize, init: bool| -> u8 {
            *variants.entry((rows, cols, init)).or_insert_with(|| {
                kernels.push(K::cached(variant_shape(rows, cols, init), opts.backend));
                u8::try_from(kernels.len() - 1).expect("too many kernel variants")
            })
        };

        let (p, q) = (shape.p(), shape.q());
        let (tp, tq) = blocking.tiles(p, q);
        let in_row = (shape.w + 2 * input_pad) * VLEN;
        let in_cb = (shape.h + 2 * input_pad) * in_row;
        let in_n = shape.cb() * in_cb;
        // extra physical border beyond what the conv consumes
        let in_base = (input_pad - shape.pad) * (in_row + VLEN);
        let wt_cb = shape.r * shape.s * VLEN * VLEN;
        let wt_kb = shape.cb() * wt_cb;

        let part = FlatPartition::new([shape.n, shape.kb(), tp, tq]);
        let mut streams = Vec::with_capacity(opts.threads);
        for tid in 0..opts.threads {
            let mut s = Stream::default();
            for item in part.range(opts.threads, tid) {
                let [n, kb, tj, ti] = part.unflatten(item);
                let rows = blocking.rbp.min(p - tj * blocking.rbp);
                let cols = blocking.rbq.min(q - ti * blocking.rbq);
                let oj = tj * blocking.rbp;
                let oi = ti * blocking.rbq;
                let out_off = out_geom.base
                    + n * out_geom.n_stride
                    + kb * out_geom.kb_stride
                    + oj * out_geom.row_stride
                    + oi * out_geom.col_stride;
                for cbs in 0..cb_steps {
                    let cb0 = cbs * blocking.cb_inner;
                    let var = variant_for(rows, cols, cbs == 0);
                    let in_off = in_base
                        + n * in_n
                        + cb0 * in_cb
                        + (oj * shape.stride) * in_row
                        + (oi * shape.stride) * VLEN;
                    let wt_off = kb * wt_kb + cb0 * wt_cb;
                    s.push_conv(var, in_off, wt_off, out_off);
                }
                if opts.fuse != FusedOp::None {
                    s.push_apply(ApplyRec {
                        out_off: u32::try_from(out_off).expect("output offset exceeds u32"),
                        kb: kb as u16,
                        rows: rows as u8,
                        cols: cols as u16,
                        row_stride: out_geom.row_stride as u32,
                    });
                }
            }
            streams.push(s);
        }

        Self {
            shape,
            blocking,
            kernels,
            streams,
            out_geom,
            fused: opts.fuse,
            nthreads: opts.threads,
            in_pad: input_pad,
            out_pad: opts.out_pad,
        }
    }

    /// Dryrun a raw (unfused) plan writing through an explicit output
    /// geometry — the backward-duality entry point. `shape` is the
    /// dual shape; its own pad is the physical padding of the dO
    /// tensor the plan reads as input.
    pub(crate) fn with_out_geom(
        shape: ConvShape,
        opts: &LayerOptions,
        blocking: Blocking,
        out_geom: OutGeom,
    ) -> Self {
        let raw = LayerOptions { fuse: FusedOp::None, input_pad: None, out_pad: 0, ..opts.clone() };
        Self::dryrun(shape, &raw, blocking, out_geom)
    }

    /// The convolution shape this plan executes.
    pub fn shape(&self) -> &ConvShape {
        &self.shape
    }

    /// The blocking decision in effect.
    pub fn blocking(&self) -> &Blocking {
        &self.blocking
    }

    /// The fused op applied after each output tile (`FusedOp::None`
    /// for raw plans).
    pub fn fused(&self) -> FusedOp {
        self.fused
    }

    /// Kernel variants generated by the dryrun (Section II-H's
    /// combinatorial-explosion bookkeeping, observable for tests).
    pub fn kernel_variants(&self) -> usize {
        self.kernels.len()
    }

    /// Total stream metadata bytes across threads.
    pub fn stream_bytes(&self) -> usize {
        self.streams.iter().map(|s| s.metadata_bytes()).sum()
    }

    /// Physical input padding the plan's offsets assume.
    pub fn input_pad(&self) -> usize {
        self.in_pad
    }

    /// Output geometry the plan writes through.
    pub fn out_geom(&self) -> &OutGeom {
        &self.out_geom
    }

    /// Physical padding `run` expects on the output tensor.
    pub fn out_pad(&self) -> usize {
        self.out_pad
    }

    /// Check an f32 output tensor, and the fused op's operands in
    /// `ctx`, against the plan.
    pub(crate) fn check_output(&self, output: &BlockedActs, ctx: &FuseCtx<'_>) {
        let sh = &self.shape;
        assert_eq!(
            (output.n, output.c, output.h, output.w, output.pad),
            (sh.n, sh.k, sh.p(), sh.q(), self.out_pad),
            "output tensor mismatch"
        );
        if self.fused.needs_bias() {
            // the apply reads whole VLEN blocks, so the bias must cover
            // the padded channel count, not just the logical k
            assert!(
                ctx.bias.is_some_and(|b| b.len() >= sh.k.next_multiple_of(VLEN)),
                "bias missing or shorter than the padded channel count"
            );
        }
        if self.fused.needs_eltwise() {
            let e = ctx.eltwise.expect("eltwise tensor missing");
            assert_eq!(
                (e.n, e.cb, e.h, e.w, e.pad),
                (output.n, output.cb, output.h, output.w, self.out_pad),
                "eltwise tensor mismatch"
            );
        }
    }

    /// Replay every thread's stream on `pool`, handing each APPLY
    /// record to `apply`.
    ///
    /// # Safety
    /// The pointers must describe tensors with exactly the geometry the
    /// plan was dryrun for; output tiles are disjoint per thread.
    pub(crate) unsafe fn replay(
        &self,
        pool: &ThreadPool,
        input: *const K::In,
        weights: *const K::In,
        output: *mut K::Out,
        apply: impl Fn(&ApplyRec, *mut K::Out) + Sync,
    ) {
        assert_eq!(pool.nthreads(), self.nthreads, "plan was dryrun for a different team size");
        let (inp, wt, out) = (SendConstPtr(input), SendConstPtr(weights), SendMutPtr(output));
        pool.run(|pctx| {
            let s = &self.streams[pctx.tid];
            // SAFETY: per replay's contract.
            unsafe { s.replay(&self.kernels, inp.get(), wt.get(), out.get(), &apply) };
        });
    }

    /// Execute a raw (unfused) plan through base pointers — the
    /// backward-duality paths, which write strided or int32 outputs.
    ///
    /// # Safety
    /// As [`ConvPlan::replay`].
    pub(crate) unsafe fn run_raw(
        &self,
        pool: &ThreadPool,
        input: *const K::In,
        weights: *const K::In,
        output: *mut K::Out,
    ) {
        assert_eq!(self.fused, FusedOp::None, "fused plans need their APPLY operands");
        self.replay(pool, input, weights, output, |_, _| unreachable!("raw plans record no APPLY"));
    }
}

impl FwdPlan {
    /// Dryrun `shape` under `blocking` with the engine settings of
    /// `opts` (team size, backend, prefetch, fused op, physical input
    /// and output padding).
    pub fn new(shape: ConvShape, opts: &LayerOptions, blocking: Blocking) -> Self {
        Self::dryrun(shape, opts, blocking, OutGeom::padded(&shape, opts.out_pad))
    }

    /// Which backend the first kernel resolved to.
    pub fn backend_name(&self) -> &'static str {
        self.kernels.first().map(|k| k.backend_name()).unwrap_or("none")
    }

    /// Execute into a blocked output tensor carrying the plan's
    /// output padding.
    pub fn run(
        &self,
        pool: &ThreadPool,
        input: &BlockedActs,
        weights: &BlockedFilter,
        output: &mut BlockedActs,
        ctx: &FuseCtx<'_>,
    ) {
        let sh = &self.shape;
        assert_eq!(
            (input.n, input.c, input.h, input.w),
            (sh.n, sh.c, sh.h, sh.w),
            "input tensor mismatch"
        );
        assert_eq!(input.pad, self.in_pad, "plan offsets assume exactly this padding");
        assert_eq!(
            (weights.k, weights.c, weights.r, weights.s),
            (sh.k, sh.c, sh.r, sh.s),
            "filter tensor mismatch"
        );
        self.check_output(output, ctx);
        let fused = self.fused;
        let apply = |rec: &ApplyRec, out: *mut f32| {
            // SAFETY: the record addresses a tile of the validated
            // output, and the bias/eltwise operands were checked.
            unsafe { apply_tile(fused, rec, out, ctx) }
        };
        // SAFETY: geometry validated above; threads write disjoint tiles.
        unsafe { self.replay(pool, input.as_ptr(), weights.as_ptr(), output.as_mut_ptr(), apply) }
    }
}

/// Shareable raw-pointer wrappers. Accessed through methods so that
/// RFC-2229 precise capture moves the whole (Sync) wrapper into the
/// region closure instead of the bare pointer field.
#[derive(Clone, Copy)]
pub(crate) struct SendConstPtr<T>(pub(crate) *const T);
// SAFETY: the one field is a pointer other threads only read through;
// `T: Sync` makes those shared reads sound, and every dereference sits
// in an `unsafe` block that states why the pointee is valid.
unsafe impl<T: Sync> Send for SendConstPtr<T> {}
// SAFETY: as for `Send`: sharing the wrapper only shares reads of `T`.
unsafe impl<T: Sync> Sync for SendConstPtr<T> {}
impl<T> SendConstPtr<T> {
    #[inline]
    pub(crate) fn get(&self) -> *const T {
        self.0
    }
}

#[derive(Clone, Copy)]
pub(crate) struct SendMutPtr<T>(pub(crate) *mut T);
// SAFETY: the one field is a pointer other threads write `T` values
// through (`T: Send`); the `unsafe` blocks that dereference it state
// why the threads' writes are disjoint.
unsafe impl<T: Send> Send for SendMutPtr<T> {}
// SAFETY: as for `Send`: each thread writes only its own elements.
unsafe impl<T: Send> Sync for SendMutPtr<T> {}
impl<T> SendMutPtr<T> {
    #[inline]
    pub(crate) fn get(&self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking;
    use crate::fuse::apply_unfused;
    use crate::reference::conv_fwd_ref;
    use crate::Backend;
    use tensor::{Kcrs, Nchw, Norms};

    fn run_case(shape: ConvShape, fused: FusedOp, backend: Backend, threads: usize) {
        let pool = ThreadPool::new(threads);
        let b = blocking::choose(&shape);
        let opts = LayerOptions::new(threads).with_backend(backend).with_fuse(fused);
        let plan = FwdPlan::new(shape, &opts, b);

        let x = Nchw::random(shape.n, shape.c, shape.h, shape.w, 1);
        let w = Kcrs::random(shape.k, shape.c, shape.r, shape.s, 2);
        let xb = BlockedActs::from_nchw(&x, shape.pad);
        let wb = BlockedFilter::from_kcrs(&w);
        let mut yb = BlockedActs::zeros(shape.n, shape.k, shape.p(), shape.q(), 0);

        let bias: Vec<f32> = (0..shape.k.next_multiple_of(VLEN)).map(|i| i as f32 * 0.01).collect();
        let residual = BlockedActs::random(shape.n, shape.k, shape.p(), shape.q(), 0, 77);
        let ctx = FuseCtx {
            bias: fused.needs_bias().then_some(&bias[..]),
            eltwise: fused.needs_eltwise().then_some(&residual),
        };
        plan.run(&pool, &xb, &wb, &mut yb, &ctx);

        // reference: naive conv + unfused op
        let mut y_ref = Nchw::zeros(shape.n, shape.k, shape.p(), shape.q());
        conv_fwd_ref(&shape, &x, &w, &mut y_ref);
        let mut y_ref_b = BlockedActs::from_nchw(&y_ref, 0);
        apply_unfused(fused, &mut y_ref_b, &ctx);

        let n = Norms::compare(y_ref_b.as_slice(), yb.as_slice());
        assert!(n.ok(1e-4), "{shape} fused={fused:?} backend={backend:?}: {n}");
    }

    #[test]
    fn one_by_one_layers() {
        run_case(ConvShape::new(2, 32, 48, 8, 8, 1, 1, 1, 0), FusedOp::None, Backend::Auto, 4);
        run_case(ConvShape::new(2, 64, 32, 8, 8, 1, 1, 2, 0), FusedOp::None, Backend::Auto, 4);
    }

    #[test]
    fn three_by_three_layers() {
        run_case(ConvShape::new(2, 32, 32, 8, 8, 3, 3, 1, 1), FusedOp::None, Backend::Auto, 4);
        run_case(ConvShape::new(1, 16, 16, 10, 10, 3, 3, 2, 1), FusedOp::None, Backend::Auto, 2);
    }

    #[test]
    fn first_conv_7x7_with_channel_padding() {
        // C=3 is zero-padded into one block
        run_case(ConvShape::new(1, 3, 32, 20, 20, 7, 7, 2, 3), FusedOp::None, Backend::Auto, 3);
    }

    #[test]
    fn fused_operators() {
        let s = ConvShape::new(1, 32, 32, 8, 8, 3, 3, 1, 1);
        for f in [
            FusedOp::Bias,
            FusedOp::Relu,
            FusedOp::BiasRelu,
            FusedOp::Eltwise,
            FusedOp::EltwiseRelu,
        ] {
            run_case(s, f, Backend::Auto, 4);
        }
    }

    #[test]
    fn backends_agree_on_full_layer() {
        let s = ConvShape::new(2, 32, 32, 14, 14, 3, 3, 1, 1);
        run_case(s, FusedOp::None, Backend::Scalar, 2);
        run_case(s, FusedOp::None, Backend::Intrinsics, 2);
        if jit::jit_available() {
            run_case(s, FusedOp::None, Backend::Jit, 2);
        }
    }

    #[test]
    fn remainder_tiles() {
        // Q=10 with rbq from policy (10 ≤ 28 ⇒ rbq=10), P=10; force
        // remainder by overriding blocking
        let shape = ConvShape::new(1, 32, 16, 10, 10, 3, 3, 1, 1);
        let b = Blocking { rbp: 2, rbq: 7, cb_inner: 1, upd_bp: 4, upd_bq: 10 };
        let pool = ThreadPool::new(3);
        let plan = FwdPlan::new(shape, &LayerOptions::new(3).with_prefetch(false), b);
        // (main, remainder) × (first-cb init, accumulate) = 4 variants
        assert_eq!(plan.kernel_variants(), 4, "main + remainder variants expected");
        let x = Nchw::random(1, 32, 10, 10, 5);
        let w = Kcrs::random(16, 32, 3, 3, 6);
        let xb = BlockedActs::from_nchw(&x, 1);
        let wb = BlockedFilter::from_kcrs(&w);
        let mut yb = BlockedActs::zeros(1, 16, 10, 10, 0);
        plan.run(&pool, &xb, &wb, &mut yb, &FuseCtx::default());
        let mut y_ref = Nchw::zeros(1, 16, 10, 10);
        conv_fwd_ref(&shape, &x, &w, &mut y_ref);
        let n = Norms::compare(BlockedActs::from_nchw(&y_ref, 0).as_slice(), yb.as_slice());
        assert!(n.ok(1e-4), "{n}");
    }

    #[test]
    fn padded_output_matches_dense_and_keeps_border_zero() {
        // the same conv written into a pad-2 output tensor must hold
        // the dense results on its logical interior and leave the
        // physical border untouched (zero) — the invariant downstream
        // padded consumers rely on
        let shape = ConvShape::new(2, 32, 32, 8, 8, 3, 3, 1, 1);
        let threads = 3;
        let pool = ThreadPool::new(threads);
        let b = blocking::choose(&shape);
        let x = Nchw::random(2, 32, 8, 8, 31);
        let w = Kcrs::random(32, 32, 3, 3, 32);
        let xb = BlockedActs::from_nchw(&x, 1);
        let wb = BlockedFilter::from_kcrs(&w);
        let bias: Vec<f32> = (0..32).map(|i| 0.02 * i as f32 - 0.3).collect();
        let residual = BlockedActs::random(2, 32, 8, 8, 2, 33);

        let dense = FwdPlan::new(shape, &LayerOptions::new(threads), b);
        let mut y_dense = BlockedActs::zeros(2, 32, 8, 8, 0);
        dense.run(&pool, &xb, &wb, &mut y_dense, &FuseCtx::default());

        for fused in [FusedOp::None, FusedOp::BiasEltwiseRelu] {
            let opts = LayerOptions::new(threads).with_fuse(fused).with_out_pad(2);
            let padded = FwdPlan::new(shape, &opts, b);
            assert_eq!(padded.out_pad(), 2);
            let mut y_pad = BlockedActs::zeros(2, 32, 8, 8, 2);
            let ctx = FuseCtx {
                bias: fused.needs_bias().then_some(&bias[..]),
                eltwise: fused.needs_eltwise().then_some(&residual),
            };
            padded.run(&pool, &xb, &wb, &mut y_pad, &ctx);
            for n in 0..2 {
                #[allow(clippy::needless_range_loop)]
                for k in 0..32 {
                    for h in 0..8 {
                        for wd in 0..8 {
                            let mut want = y_dense.get(n, k, h, wd);
                            if fused == FusedOp::BiasEltwiseRelu {
                                want = (want + bias[k] + residual.get(n, k, h, wd)).max(0.0);
                            }
                            assert_eq!(y_pad.get(n, k, h, wd), want, "{fused:?} interior");
                        }
                    }
                }
                // the physical border must still be all zeros
                for kb in 0..y_pad.cb {
                    for wp in 0..y_pad.wp() {
                        let off = y_pad.pix_offset_logical(n, kb, -2, wp as isize - 2);
                        for v in 0..VLEN {
                            assert_eq!(y_pad.as_slice()[off + v], 0.0, "{fused:?} border");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn thread_counts_do_not_change_results() {
        let shape = ConvShape::new(3, 32, 32, 8, 8, 3, 3, 1, 1);
        let x = Nchw::random(3, 32, 8, 8, 9);
        let w = Kcrs::random(32, 32, 3, 3, 10);
        let xb = BlockedActs::from_nchw(&x, 1);
        let wb = BlockedFilter::from_kcrs(&w);
        let mut outs = Vec::new();
        for threads in [1usize, 2, 5, 8] {
            let pool = ThreadPool::new(threads);
            let b = blocking::choose(&shape);
            let plan = FwdPlan::new(shape, &LayerOptions::new(threads).with_prefetch(false), b);
            let mut yb = BlockedActs::zeros(3, 32, 8, 8, 0);
            plan.run(&pool, &xb, &wb, &mut yb, &FuseCtx::default());
            outs.push(yb.as_slice().to_vec());
        }
        for o in &outs[1..] {
            assert_eq!(&outs[0], o, "results must be identical across team sizes");
        }
    }

    /// The shared dryrun relies on the int16 layouts being
    /// element-parallel to the f32 ones: an f32 and an int16 plan built
    /// from one `LayerOptions` and one blocking (`cb_inner` within the
    /// chain limit, so nothing is clamped) record identical streams.
    #[test]
    fn f32_and_int16_plans_record_identical_streams() {
        for (shape, opts) in [
            (ConvShape::new(2, 32, 32, 8, 8, 3, 3, 1, 1), LayerOptions::new(3)),
            (
                ConvShape::new(2, 64, 32, 8, 8, 1, 1, 2, 0),
                LayerOptions::new(2).with_fuse(FusedOp::Relu),
            ),
            (
                ConvShape::new(1, 32, 48, 10, 10, 3, 3, 1, 1),
                LayerOptions::new(3)
                    .with_fuse(FusedOp::BiasEltwiseRelu)
                    .with_input_pad(2)
                    .with_out_pad(2),
            ),
        ] {
            let opts = opts.with_chain_limit(shape.cb());
            let b = blocking::choose(&shape);
            assert!(b.cb_inner <= opts.chain_limit);
            let f32_plan = FwdPlan::new(shape, &opts, b);
            let int16_plan = crate::quant::QuantFwdPlan::new(shape, &opts, b);
            assert_eq!(f32_plan.blocking, int16_plan.blocking, "{shape}");
            assert_eq!(f32_plan.streams.len(), int16_plan.streams.len(), "{shape}");
            for (f, q) in f32_plan.streams.iter().zip(&int16_plan.streams) {
                assert_eq!(f.segments, q.segments, "{shape}: segments");
                assert_eq!(f.var, q.var, "{shape}: var");
                assert_eq!(f.inp, q.inp, "{shape}: inp");
                assert_eq!(f.wt, q.wt, "{shape}: wt");
                assert_eq!(f.out, q.out, "{shape}: out");
                assert_eq!(f.applies, q.applies, "{shape}: applies");
            }
        }
    }

    #[test]
    fn stream_metadata_is_compact() {
        let shape = ConvShape::new(4, 64, 64, 28, 28, 3, 3, 1, 1);
        let b = blocking::choose(&shape);
        let opts = LayerOptions::new(8).with_backend(Backend::Intrinsics).with_fuse(FusedOp::Relu);
        let plan = FwdPlan::new(shape, &opts, b);
        // 4·4·(28/rbp·28/28)·Cb convs; metadata ≈ 13B per conv
        let convs: usize = (0..8).map(|_| 0).len(); // silence clippy
        let _ = convs;
        assert!(plan.stream_bytes() < 512 * 1024, "{} bytes", plan.stream_bytes());
        assert!(plan.kernel_variants() <= 4);
    }
}
