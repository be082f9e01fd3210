//! The public layer handle: setup once, execute many times.
//!
//! `ConvLayer::new` runs the full setup pipeline of the paper — kernel
//! generation (JIT), dryrun (kernel streams), backward-duality
//! planning, and the weight-update strategy decision — and the three
//! pass methods replay the plans. This is the object the GxM graph
//! executor, the benchmarks and the examples all build on.

use crate::backend::Backend;
use crate::blocking::Blocking;
use crate::bwd::{BwdKind, BwdPlan};
use crate::fuse::{FuseCtx, FusedOp};
use crate::fwd::FwdPlan;
use crate::quant::{QuantFwdPlan, QuantOptions, DEFAULT_CHAIN_LIMIT};
use crate::tune::{self, TuneLevel, TuneOutcome, TuneStore};
use crate::upd::UpdPlan;
use machine::MachineModel;
use parallel::ThreadPool;
use std::sync::Arc;
use tensor::{BlockedActs, BlockedFilter, ConvShape, VnniActs, VnniFilter};

/// Numeric execution mode of a planned layer (and, through the graph
/// executor, of a whole served model).
///
/// `Int8` layers carry an additional [`QuantFwdPlan`] beside the f32
/// plans: activations are quantized per input channel to the symmetric
/// int8 range, convolved by the int16/VNNI kernels, and requantized in
/// the fused APPLY step (see DESIGN.md §11). The f32 plans remain —
/// executors fall back to them for nodes whose activation scales are
/// unknown.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Plain f32 execution.
    #[default]
    F32,
    /// Quantized int8-range execution with f32 fallback.
    Int8,
}

impl Precision {
    /// Parse a precision name as accepted by `--precision`.
    ///
    /// # Errors
    /// A message naming the accepted values.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "f32" | "fp32" | "float" => Ok(Precision::F32),
            "int8" | "i8" | "quant" => Ok(Precision::Int8),
            other => Err(format!("unknown precision '{other}' (expected f32|int8)")),
        }
    }

    /// Stable lowercase name (`f32` / `int8`).
    pub fn name(&self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        }
    }
}

/// Configuration of a layer's engines.
#[derive(Clone)]
pub struct LayerOptions {
    /// Thread-team size the plans are dryrun for.
    pub threads: usize,
    /// Kernel backend.
    pub backend: Backend,
    /// Emit software prefetches (Section II-E).
    pub prefetch: bool,
    /// Operator fused after the forward convolution (Section II-G).
    pub fuse: FusedOp,
    /// Machine model driving the weight-update strategy choice
    /// (Section II-J). Defaults to the SKX model.
    pub machine: MachineModel,
    /// Physical padding of the input tensor (defaults to the conv's
    /// own pad; graph executors may share a larger buffer).
    pub input_pad: Option<usize>,
    /// Physical padding of the gradient-output tensor passed to
    /// `backward`/`update` (defaults to the duality-optimal padding).
    pub dout_pad: Option<usize>,
    /// Physical padding of the *output* tensor the forward pass writes
    /// (graph executors set this when a fused convolution produces
    /// directly into a blob a later padded convolution consumes).
    pub out_pad: usize,
    /// How hard the planner searches for the blocking (Section II-B's
    /// rule of thumb vs. the autotuner of `crate::tune`).
    pub tune: TuneLevel,
    /// Shared memo of tuning winners; `PlanCache` attaches its own so
    /// replicas and repeated builds never re-tune the same key.
    pub tune_store: Option<TuneStore>,
    /// The thread pool `TuneLevel::Measured` micro-benches on. Must
    /// match `threads`; without it, `Measured` degrades to `Model`.
    pub pool: Option<Arc<ThreadPool>>,
    /// Numeric execution mode: `Int8` builds a [`QuantFwdPlan`]
    /// (sharing this layer's blocking, paddings and fused op) beside
    /// the f32 plans.
    pub precision: Precision,
    /// Accumulation-chain bound of the int8 plan, in channel blocks
    /// (the paper's int16 overflow guard). Ignored at `F32`.
    pub chain_limit: usize,
}

impl std::fmt::Debug for LayerOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LayerOptions")
            .field("threads", &self.threads)
            .field("backend", &self.backend)
            .field("prefetch", &self.prefetch)
            .field("fuse", &self.fuse)
            .field("machine", &self.machine.name)
            .field("input_pad", &self.input_pad)
            .field("dout_pad", &self.dout_pad)
            .field("out_pad", &self.out_pad)
            .field("tune", &self.tune)
            .field("tune_store", &self.tune_store.is_some())
            .field("pool", &self.pool.is_some())
            .field("precision", &self.precision)
            .field("chain_limit", &self.chain_limit)
            .finish()
    }
}

impl LayerOptions {
    /// Defaults for a given team size.
    pub fn new(threads: usize) -> Self {
        Self {
            threads,
            backend: Backend::Auto,
            prefetch: true,
            fuse: FusedOp::None,
            machine: MachineModel::skx(),
            input_pad: None,
            dout_pad: None,
            out_pad: 0,
            tune: TuneLevel::default(),
            tune_store: None,
            pool: None,
            precision: Precision::default(),
            chain_limit: DEFAULT_CHAIN_LIMIT,
        }
    }

    /// Set the physical output padding (for fused writes into padded
    /// consumer blobs).
    pub fn with_out_pad(mut self, pad: usize) -> Self {
        self.out_pad = pad;
        self
    }

    /// Set the gradient-output padding (graph executors pass 0).
    pub fn with_dout_pad(mut self, pad: usize) -> Self {
        self.dout_pad = Some(pad);
        self
    }

    /// Set the physical input padding (for shared activation buffers).
    pub fn with_input_pad(mut self, pad: usize) -> Self {
        self.input_pad = Some(pad);
        self
    }

    /// Set the fused operator.
    pub fn with_fuse(mut self, fuse: FusedOp) -> Self {
        self.fuse = fuse;
        self
    }

    /// Set the backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Enable/disable prefetching.
    pub fn with_prefetch(mut self, prefetch: bool) -> Self {
        self.prefetch = prefetch;
        self
    }

    /// Set the tuning level.
    pub fn with_tune(mut self, tune: TuneLevel) -> Self {
        self.tune = tune;
        self
    }

    /// Attach a shared tuning-winner store.
    pub fn with_tune_store(mut self, store: TuneStore) -> Self {
        self.tune_store = Some(store);
        self
    }

    /// Attach the pool `Measured` tuning micro-benches on.
    pub fn with_pool(mut self, pool: Arc<ThreadPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Set the machine model (hosts calibrate one via `machine::host`).
    pub fn with_machine(mut self, machine: MachineModel) -> Self {
        self.machine = machine;
        self
    }

    /// Set the numeric execution mode.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Set the int8 accumulation-chain bound (channel blocks).
    pub fn with_chain_limit(mut self, chain_limit: usize) -> Self {
        assert!(chain_limit >= 1, "chain limit must be at least one channel block");
        self.chain_limit = chain_limit;
        self
    }
}

/// A fully planned convolution layer (fwd + bwd + upd).
pub struct ConvLayer {
    shape: ConvShape,
    opts: LayerOptions,
    blocking: Blocking,
    tune_outcome: TuneOutcome,
    fwd: FwdPlan,
    bwd: BwdPlan,
    upd: UpdPlan,
    quant: Option<QuantFwdPlan>,
}

impl ConvLayer {
    /// Full setup: blocking choice (heuristic or autotuned, per
    /// `opts.tune`), kernel generation, dryrun.
    pub fn new(shape: ConvShape, opts: LayerOptions) -> Self {
        let outcome = tune::resolve(&shape, &opts);
        let b = outcome.blocking;
        let input_pad = opts.input_pad.unwrap_or(shape.pad);
        let fwd = FwdPlan::with_pads(
            shape,
            b,
            opts.threads,
            opts.backend,
            opts.prefetch,
            opts.fuse,
            None,
            input_pad,
            opts.out_pad,
        );
        let bwd =
            BwdPlan::with_input_pad(shape, opts.threads, opts.backend, opts.prefetch, input_pad);
        let dout_pad = opts.dout_pad.unwrap_or_else(|| bwd.dout_pad());
        let upd = UpdPlan::with_input_pad(
            shape,
            b,
            opts.threads,
            opts.backend,
            opts.prefetch,
            &opts.machine,
            dout_pad,
            input_pad,
        );
        let quant = (opts.precision == Precision::Int8).then(|| {
            // the requantizing APPLY must visit every output tile, so a
            // fusion-free layer still records applies: Bias with an
            // all-zero vector degenerates to the pure requant.
            let qfuse = match opts.fuse {
                FusedOp::None => FusedOp::Bias,
                f => f,
            };
            QuantFwdPlan::new(
                shape,
                &QuantOptions::new(opts.threads)
                    .with_backend(opts.backend)
                    .with_prefetch(opts.prefetch)
                    .with_chain_limit(opts.chain_limit)
                    .with_blocking(b)
                    .with_input_pad(input_pad)
                    .with_fuse(qfuse)
                    .with_out_pad(opts.out_pad),
            )
        });
        Self { shape, opts, blocking: b, tune_outcome: outcome, fwd, bwd, upd, quant }
    }

    /// Physical padding the plans expect on the input tensor.
    pub fn input_pad(&self) -> usize {
        self.opts.input_pad.unwrap_or(self.shape.pad)
    }

    /// The layer's shape.
    pub fn shape(&self) -> &ConvShape {
        &self.shape
    }

    /// The blocking in effect.
    pub fn blocking(&self) -> &Blocking {
        &self.blocking
    }

    /// How the blocking was chosen (level, predicted/measured GFLOPS,
    /// candidates ranked, tuning wall-clock).
    pub fn tune_outcome(&self) -> &TuneOutcome {
        &self.tune_outcome
    }

    /// Backward strategy chosen (Section II-I scenario).
    pub fn bwd_kind(&self) -> BwdKind {
        self.bwd.kind()
    }

    /// Weight-update copies chosen by the Section II-J model.
    pub fn upd_copies(&self) -> usize {
        self.upd.copies()
    }

    /// Kernel backend the forward plan resolved to.
    pub fn backend_name(&self) -> &'static str {
        self.fwd.backend_name()
    }

    /// Physical padding expected on gradient-output tensors (the
    /// duality-optimal value unless overridden in the options).
    pub fn dout_pad(&self) -> usize {
        self.opts.dout_pad.unwrap_or_else(|| self.bwd.dout_pad())
    }

    /// Allocate a correctly-padded input tensor.
    pub fn new_input(&self) -> BlockedActs {
        BlockedActs::zeros(self.shape.n, self.shape.c, self.shape.h, self.shape.w, self.input_pad())
    }

    /// Allocate an output tensor (with the configured output padding).
    pub fn new_output(&self) -> BlockedActs {
        BlockedActs::zeros(
            self.shape.n,
            self.shape.k,
            self.shape.p(),
            self.shape.q(),
            self.opts.out_pad,
        )
    }

    /// Allocate a gradient-output tensor with the duality padding.
    pub fn new_dout(&self) -> BlockedActs {
        BlockedActs::zeros(
            self.shape.n,
            self.shape.k,
            self.shape.p(),
            self.shape.q(),
            self.dout_pad(),
        )
    }

    /// Allocate a filter tensor.
    pub fn new_filter(&self) -> BlockedFilter {
        BlockedFilter::zeros(self.shape.k, self.shape.c, self.shape.r, self.shape.s)
    }

    /// The quantized forward plan (layers built at `Precision::Int8`).
    pub fn quant_plan(&self) -> Option<&QuantFwdPlan> {
        self.quant.as_ref()
    }

    /// The numeric execution mode this layer was planned for.
    pub fn precision(&self) -> Precision {
        self.opts.precision
    }

    /// Quantized forward propagation: int16 conv + requantizing fused
    /// APPLY (see [`QuantFwdPlan::run_fused`]). The layer must have
    /// been built at [`Precision::Int8`]. When the layer's fused op is
    /// `None`, the quant plan runs `Bias` — pass an all-zero bias.
    pub fn forward_quant(
        &self,
        pool: &ThreadPool,
        input: &VnniActs,
        weights: &VnniFilter,
        output: &mut BlockedActs,
        mult: &[f32],
        ctx: &FuseCtx<'_>,
    ) {
        let plan = self.quant.as_ref().expect("layer was not planned at Precision::Int8");
        plan.run_fused(pool, input, weights, output, mult, ctx);
    }

    /// Forward propagation (with the configured fusion).
    pub fn forward(
        &self,
        pool: &ThreadPool,
        input: &BlockedActs,
        weights: &BlockedFilter,
        output: &mut BlockedActs,
        ctx: &FuseCtx<'_>,
    ) {
        self.fwd.run(pool, input, weights, output, ctx);
    }

    /// Backward propagation: `dinput = conv_bwd(dout, weights)`.
    pub fn backward(
        &self,
        pool: &ThreadPool,
        dout: &BlockedActs,
        weights: &BlockedFilter,
        dinput: &mut BlockedActs,
    ) {
        self.bwd.run(pool, dout, weights, dinput);
    }

    /// Weight-gradient update: `dweights = conv_upd(input, dout)`.
    pub fn update(
        &self,
        pool: &ThreadPool,
        input: &BlockedActs,
        dout: &BlockedActs,
        dweights: &mut BlockedFilter,
    ) {
        self.upd.run(pool, input, dout, dweights);
    }

    /// The configured options.
    pub fn options(&self) -> &LayerOptions {
        &self.opts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{conv_bwd_ref, conv_fwd_ref, conv_upd_ref};
    use tensor::{Kcrs, Nchw, Norms};

    /// Complete training-step consistency: fwd, bwd and upd of one
    /// layer against the naive references.
    #[test]
    fn full_layer_training_step() {
        let shape = ConvShape::new(2, 32, 48, 10, 10, 3, 3, 1, 1);
        let threads = 4;
        let pool = ThreadPool::new(threads);
        let layer = ConvLayer::new(shape, LayerOptions::new(threads));

        let x = Nchw::random(2, 32, 10, 10, 1);
        let w = Kcrs::random(48, 32, 3, 3, 2);
        let gy = Nchw::random(2, 48, shape.p(), shape.q(), 3);

        let xb = BlockedActs::from_nchw(&x, shape.pad);
        let wb = BlockedFilter::from_kcrs(&w);
        let gyb = BlockedActs::from_nchw(&gy, layer.dout_pad());

        let mut yb = layer.new_output();
        layer.forward(&pool, &xb, &wb, &mut yb, &FuseCtx::default());
        let mut y_ref = Nchw::zeros(2, 48, shape.p(), shape.q());
        conv_fwd_ref(&shape, &x, &w, &mut y_ref);
        assert!(Norms::compare(y_ref.as_slice(), yb.to_nchw().as_slice()).ok(1e-4));

        let mut gxb = layer.new_input();
        layer.backward(&pool, &gyb, &wb, &mut gxb);
        let mut gx_ref = Nchw::zeros(2, 32, 10, 10);
        conv_bwd_ref(&shape, &gy, &w, &mut gx_ref);
        assert!(Norms::compare(gx_ref.as_slice(), gxb.to_nchw().as_slice()).ok(1e-4));

        let mut dwb = layer.new_filter();
        layer.update(&pool, &xb, &gyb, &mut dwb);
        let mut dw_ref = Kcrs::zeros(48, 32, 3, 3);
        conv_upd_ref(&shape, &x, &gy, &mut dw_ref);
        assert!(Norms::compare(dw_ref.as_slice(), dwb.to_kcrs().as_slice()).ok(1e-3));
    }

    #[test]
    fn layer_reports_its_decisions() {
        let shape = ConvShape::new(2, 64, 64, 14, 14, 1, 1, 1, 0);
        let layer = ConvLayer::new(shape, LayerOptions::new(2));
        assert_eq!(layer.bwd_kind(), BwdKind::DualStride1);
        assert!(layer.upd_copies() >= 1);
        assert!(["jit", "intrinsics", "scalar"].contains(&layer.backend_name()));
        assert_eq!(layer.dout_pad(), 0);
    }

    #[test]
    fn fused_layer_end_to_end() {
        let shape = ConvShape::new(1, 16, 16, 8, 8, 3, 3, 1, 1);
        let pool = ThreadPool::new(2);
        let layer = ConvLayer::new(shape, LayerOptions::new(2).with_fuse(FusedOp::BiasRelu));
        let x = Nchw::random(1, 16, 8, 8, 4);
        let w = Kcrs::random(16, 16, 3, 3, 5);
        let xb = BlockedActs::from_nchw(&x, 1);
        let wb = BlockedFilter::from_kcrs(&w);
        let bias: Vec<f32> = (0..16).map(|i| 0.1 * i as f32 - 0.5).collect();
        let mut yb = layer.new_output();
        layer.forward(&pool, &xb, &wb, &mut yb, &FuseCtx { bias: Some(&bias), eltwise: None });

        let mut y_ref = Nchw::zeros(1, 16, 8, 8);
        conv_fwd_ref(&shape, &x, &w, &mut y_ref);
        for (k, &bk) in bias.iter().enumerate() {
            for h in 0..8 {
                for wd in 0..8 {
                    let v = (y_ref.at(0, k, h, wd) + bk).max(0.0);
                    *y_ref.at_mut(0, k, h, wd) = v;
                }
            }
        }
        assert!(Norms::compare(y_ref.as_slice(), yb.to_nchw().as_slice()).ok(1e-4));
    }
}
