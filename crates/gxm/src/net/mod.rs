//! The ETG executor: a trainable (or forward-only) network.
//!
//! Building a network is split into two phases mirroring the paper's
//! setup/replay discipline:
//!
//! * the **plan phase** (`plan_graph`) compiles the topology to an
//!   ETG, infers every blob's geometry (including the physical padding
//!   each consumer convolution wants) and obtains one planned
//!   `ConvLayer` per convolution node **through a [`PlanCache`]** —
//!   repeated layer shapes JIT + dryrun once and share the plan;
//! * the **allocate phase** materializes parameters and activation
//!   storage for an [`ExecMode`]: `Training` keeps the classic
//!   blob-per-node layout with gradients and momentum, `Inference`
//!   allocates *no* gradient/momentum/scratch state and shares
//!   activation buffers between nodes whose lifetimes do not overlap
//!   (a liveness scan over the forward schedule —
//!   [`crate::pipeline::fwd_last_use`]).
//!
//! `train_step` then executes the ETG's forward, backward and update
//! schedules and applies SGD with momentum — the full training loop of
//! Section III-C; `forward` alone serves inference.
//!
//! Split nodes are resolved as aliases: distribution is free forward,
//! and the gradient reduction falls out of the accumulate-into-blob
//! convention every backward operator follows.
//!
//! The code is split by phase: this module holds the network's state,
//! its build and its accessors; `plan` the plan phase and the
//! inference slot assignment; `quant` the folded-BN and int8 state
//! derived from the parameters; `exec` the forward, backward, update
//! and SGD passes and the node-I/O contract; `params` the parameter
//! schema ([`ParamSchema`]) and the state dict built on it.

mod exec;
mod params;
mod plan;
mod quant;

pub use params::ParamSchema;

use crate::error::Error;
use crate::model::ModelSpec;
use crate::ops;
use crate::pipeline::Etg;
use crate::spec::{NodeSpec, PoolKind};
use conv::{ConvLayer, PlanCache, Precision};
use parallel::ThreadPool;
use plan::{assign_slots_inference, plan_graph, GraphPlan};
use std::collections::HashMap;
use std::sync::Arc;
use tensor::rng::SplitMix64;
use tensor::{BlockedActs, BlockedFilter, VnniActs, VnniFilter, VLEN};

/// Epsilon of every batch-norm node.
const BN_EPS: f32 = 1e-5;

/// How a network's storage is materialized, and — for inference — how
/// its plans are built.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Activations + gradients + momentum: the full training loop
    /// (unfused, f32, heuristic blocking).
    #[default]
    Training,
    /// Forward-only serving: no gradient/momentum/scratch allocation,
    /// activation buffers shared via the liveness memory plan, plans
    /// built per the [`InferOpts`].
    Inference(InferOpts),
}

impl ExecMode {
    /// Numeric execution mode of the conv plans (always f32 in
    /// training).
    fn precision(&self) -> Precision {
        match self {
            ExecMode::Training => Precision::F32,
            ExecMode::Inference(o) => o.precision,
        }
    }
}

/// The plan options that only exist for an [`ExecMode::Inference`]
/// network. The default is the serving configuration: BN folded,
/// heuristic blocking, f32.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InferOpts {
    /// Run the BN fusion pass: every `Conv → Bn (→ eltwise-add →
    /// ReLU)` subgraph executes as one fused convolution with the BN's
    /// frozen statistics folded into weights and bias (see
    /// [`Network::folded_bn_count`]). `false` keeps every BN a
    /// standalone frozen-stats pass — the unfused reference the fused
    /// executor is benchmarked and tested against.
    pub fold_bn: bool,
    /// Plan-time autotuning level of every convolution's blocking (see
    /// [`conv::TuneLevel`]); winners are memoized in the plan cache's
    /// tuning store, so replicas and repeated builds never re-tune.
    pub tune: conv::TuneLevel,
    /// Numeric execution mode. At [`Precision::Int8`] every
    /// convolution plans a fused quantized forward next to its f32
    /// plan; nodes whose input-scale estimate can be derived from BN
    /// parameters execute int8 immediately, the rest fall back to f32
    /// until a [`Network::calibrate_batch`] measurement covers them.
    /// Blobs between nodes stay plain f32 either way — quantization
    /// happens on entry to a conv and requantization inside its fused
    /// APPLY, so mixed-precision graphs need no explicit cast nodes.
    pub precision: Precision,
}

impl Default for InferOpts {
    fn default() -> Self {
        Self { fold_bn: true, tune: conv::TuneLevel::Heuristic, precision: Precision::F32 }
    }
}

/// Activation (+ gradient, in training mode) storage for one slot.
struct Blob {
    act: BlockedActs,
    grad: Option<BlockedActs>,
}

/// Parameter with (training-only) gradient and momentum (flat f32).
struct Param {
    w: Vec<f32>,
    dw: Vec<f32>,
    vel: Vec<f32>,
}

impl Param {
    fn new(mode: ExecMode, len: usize) -> Self {
        match mode {
            ExecMode::Training => {
                Self { w: vec![0.0; len], dw: vec![0.0; len], vel: vec![0.0; len] }
            }
            ExecMode::Inference(_) => Self { w: vec![0.0; len], dw: Vec::new(), vel: Vec::new() },
        }
    }

    fn training_bytes(&self) -> usize {
        (self.dw.len() + self.vel.len()) * 4
    }
}

/// Training-only state of a convolution node.
struct ConvTrainState {
    dw: BlockedFilter,
    w_vel: BlockedFilter,
    /// masked dO scratch (saved for the update pass)
    dout_masked: BlockedActs,
    /// dI scratch (accumulated into the bottom's grad)
    di_scratch: BlockedActs,
}

/// Inference-only folded-BN state of a convolution node: the weights
/// with `gamma/sqrt(running_var+eps)` folded in and the per-channel
/// bias `beta − gamma·running_mean/sqrt(running_var+eps)`. Re-derived
/// by [`Network::refold`] from the raw conv weights and the target
/// BN's parameters — which stay authoritative, so the state dict is
/// unaffected and a `load_state_dict` transparently refreshes the
/// fold.
struct FoldedConv {
    /// The BN node whose parameters fold into this convolution.
    bn: usize,
    /// Alias-resolved owner of the folded BN's residual blob, if any.
    eltwise: Option<usize>,
    /// Folded weights (raw weights × per-output-channel scale).
    w: BlockedFilter,
    /// Folded per-channel bias, padded to whole SIMD blocks (padding
    /// lanes kept at 0 so the fused apply preserves the zero-lane
    /// invariant).
    bias: Vec<f32>,
}

/// Per-conv-node int8 execution state, re-derived by `requantize` from
/// the current (folded) f32 weights and the input blob's per-channel
/// absolute-maximum estimate. A conv node carries one iff the network
/// runs at [`Precision::Int8`] *and* its input amax is known (derived
/// from BN parameters or measured by calibration) — otherwise the node
/// falls back to its f32 plan, with the quantize-on-entry /
/// requantize-in-APPLY convention keeping every blob between nodes
/// plain f32 (the explicit precision boundary of mixed graphs).
struct QuantState {
    /// int8 weights with the input scales pre-folded per channel.
    wq: VnniFilter,
    /// Per-output-channel requant multiplier (`kb·VLEN` lanes).
    mult: Vec<f32>,
    /// Per-input-channel quantization factor `127/amax` (1.0 for
    /// degenerate all-zero channels — safe, never NaN/inf).
    inv_sx: Vec<f32>,
    /// All-zero bias for plans whose f32 fuse carries no bias source:
    /// the quantized plan still runs a bias-bearing APPLY (the requant
    /// pass must visit every tile), so a neutral vector stands in.
    zero_bias: Option<Vec<f32>>,
}

// One LayerState exists per network layer and they live in a Vec for
// the network's lifetime; boxing the Conv payload would only add an
// indirection on the training hot path.
#[allow(clippy::large_enum_variant)]
enum LayerState {
    Input,
    Conv {
        /// Shared plan handle (deduped through the [`PlanCache`]).
        layer: Arc<ConvLayer>,
        w: BlockedFilter,
        bias: Option<Param>,
        relu: bool,
        eltwise: Option<usize>,
        /// `None` in inference mode — the zero-gradient-allocation
        /// invariant the serving path depends on.
        train: Option<ConvTrainState>,
        /// `Some` when the inference fusion pass folded a BN into this
        /// convolution (never in training mode).
        folded: Option<Box<FoldedConv>>,
    },
    Bn {
        gamma: Param,
        beta: Param,
        saved: ops::BnSaved,
        /// EMA of the per-channel batch means seen during training
        /// (persisted through the state dict; groundwork for
        /// frozen-stats inference).
        running_mean: Vec<f32>,
        /// EMA of the per-channel batch variances (initialized to 1).
        running_var: Vec<f32>,
        relu: bool,
        eltwise: Option<usize>,
    },
    Pool {
        kind: PoolKind,
        size: usize,
        stride: usize,
        pad: usize,
        argmax: Vec<u32>,
    },
    Gap,
    Fc {
        /// `[in][out]` with both dims padded to whole SIMD vectors.
        w: Param,
        b: Param,
    },
    SoftmaxLoss {
        probs: Vec<f32>,
        classes: usize,
    },
    Split,
    Concat,
}

/// Metrics of one training step.
#[derive(Clone, Copy, Debug)]
pub struct StepStats {
    /// Mean cross-entropy loss.
    pub loss: f32,
    /// Top-1 accuracy on the minibatch.
    pub top1: f32,
}

/// A compiled network (trainable or forward-only, per [`ExecMode`]).
pub struct Network {
    pool: Arc<ThreadPool>,
    etg: Etg,
    mode: ExecMode,
    /// Blob storage per slot. Training mode uses one slot per owner
    /// node; inference mode shares slots between nodes with disjoint
    /// forward lifetimes (the liveness memory plan).
    blobs: Vec<Option<Blob>>,
    /// Owner node → slot index (usize::MAX for blob-less nodes).
    slot_of: Vec<usize>,
    /// Alias resolution: node → node owning its output blob.
    alias: Vec<usize>,
    /// Inferred logical (c, h, w) per node (state-dict geometry).
    shapes: Vec<(usize, usize, usize)>,
    layers: Vec<LayerState>,
    /// Index of the input node and the loss node.
    input_node: usize,
    loss_node: usize,
    /// Logical (c, h, w) of the input node.
    input_dims: (usize, usize, usize),
    minibatch: usize,
    /// Class count of the softmax head.
    pub classes: usize,
    labels: Vec<usize>,
    /// Per-node int8 state (`Some` only for quantizable convs at
    /// [`Precision::Int8`]); rebuilt by `requantize`.
    quant: Vec<Option<QuantState>>,
    /// Per-owner-node input-amax estimate derived from BN parameters
    /// (rebuilt with every `requantize`).
    derived_amax: Vec<Option<Vec<f32>>>,
    /// Per-owner-node measured amax from `calibrate_batch` forwards
    /// (max-accumulated; overrides the derived estimate).
    calibrated_amax: Vec<Option<Vec<f32>>>,
    /// `true` while a calibration forward runs: forces the f32 path so
    /// the recorded maxima describe the unquantized distribution.
    calibrating: bool,
    /// Reusable int16 activation scratch, one per distinct input-blob
    /// geometry `(n, c, h, w, pad)` seen by quantized convs.
    quant_scratch: HashMap<(usize, usize, usize, usize, usize), VnniActs>,
}

impl Network {
    /// Compile a validated [`ModelSpec`] for a minibatch size and
    /// thread count: a private pool, a private plan cache, training
    /// mode.
    ///
    /// Malformed topologies cannot reach this point — every
    /// [`ModelSpec`] constructor validates — so the only failures left
    /// are degenerate runtime parameters ([`Error::BadInput`]).
    pub fn build(spec: &ModelSpec, minibatch: usize, threads: usize) -> Result<Self, Error> {
        if threads == 0 {
            return Err(Error::BadInput("threads must be >= 1".to_string()));
        }
        Self::build_with(
            spec,
            minibatch,
            Arc::new(ThreadPool::new(threads)),
            ExecMode::Training,
            &PlanCache::new(),
        )
    }

    /// Full-control build: a shared thread pool, an execution mode and
    /// a shared [`PlanCache`]. Serving stacks pass one pool + cache to
    /// every network they build so repeated layer shapes JIT once.
    ///
    /// An [`ExecMode::Inference`] mode carries the inference-only plan
    /// options ([`InferOpts`]): the BN fusion pass, the autotuning
    /// level and the numeric precision. BN nodes that do not fold
    /// normalize with frozen running statistics, so bn-graph forwards
    /// are batch-composition-independent either way.
    pub fn build_with(
        spec: &ModelSpec,
        minibatch: usize,
        pool: Arc<ThreadPool>,
        mode: ExecMode,
        cache: &PlanCache,
    ) -> Result<Self, Error> {
        if minibatch == 0 {
            return Err(Error::BadInput("minibatch must be >= 1".to_string()));
        }
        let plan = plan_graph(spec.nodes(), minibatch, &pool, cache, mode);
        Ok(Self::allocate(plan, minibatch, pool, mode, spec.seed()))
    }

    /// Allocate phase: materialize parameters and activation storage
    /// for `mode` over a finished [`GraphPlan`]. `seed` drives the
    /// per-node weight-init streams.
    fn allocate(
        plan: GraphPlan,
        minibatch: usize,
        pool: Arc<ThreadPool>,
        mode: ExecMode,
        seed: u64,
    ) -> Self {
        let nodes_len = plan.etg.eng.nodes.len();
        let index: HashMap<String, usize> =
            plan.etg.eng.nodes.iter().enumerate().map(|(i, n)| (n.name().to_string(), i)).collect();

        // activation storage: one slot per owner node in training,
        // liveness-shared slots in inference
        let (slot_of, blobs) = match mode {
            ExecMode::Training => {
                let mut slot_of = vec![usize::MAX; nodes_len];
                let mut blobs: Vec<Option<Blob>> = Vec::with_capacity(nodes_len);
                for i in 0..nodes_len {
                    if plan.alias[i] == i && plan.owns_blob(i) {
                        let (c, h, w) = plan.shapes[i];
                        let pad = plan.opad[i];
                        slot_of[i] = blobs.len();
                        blobs.push(Some(Blob {
                            act: BlockedActs::zeros(minibatch, c, h, w, pad),
                            grad: Some(BlockedActs::zeros(minibatch, c, h, w, pad)),
                        }));
                    }
                }
                (slot_of, blobs)
            }
            ExecMode::Inference(_) => assign_slots_inference(&plan, minibatch),
        };

        // parameters + per-node operator state. Every parameterized
        // node draws from its own RNG stream keyed on (spec seed, node
        // name): training and inference nets built from one spec carry
        // bit-identical initial weights, and a node's init no longer
        // depends on which nodes were constructed before it.
        let mut layers: Vec<LayerState> = Vec::with_capacity(nodes_len);
        for (i, n) in plan.etg.eng.nodes.iter().enumerate() {
            let index_of = |name: &str| index[name];
            let (c, _, _) = plan.shapes[i];
            let state = match n {
                NodeSpec::Input { .. } => LayerState::Input,
                NodeSpec::Conv { bottom, k, r, s, bias, relu, eltwise, .. } => {
                    let layer = Arc::clone(plan.conv_plans[i].as_ref().expect("conv planned"));
                    let bi = plan.alias[index_of(bottom.as_str())];
                    let (bc, _, _) = plan.shapes[bi];
                    let wt = he_init_filter(*k, bc, *r, *s, &mut node_rng(seed, n.name()));
                    let bias_p = bias.then(|| Param::new(mode, k.next_multiple_of(VLEN)));
                    let train = (mode == ExecMode::Training).then(|| ConvTrainState {
                        dw: BlockedFilter::zeros(*k, bc, *r, *s),
                        w_vel: BlockedFilter::zeros(*k, bc, *r, *s),
                        dout_masked: layer.new_output(),
                        di_scratch: layer.new_input(),
                    });
                    let folded = plan.fold[i].map(|f| {
                        Box::new(FoldedConv {
                            bn: f.bn,
                            eltwise: f.eltwise,
                            w: BlockedFilter::zeros(*k, bc, *r, *s),
                            bias: vec![0.0; k.next_multiple_of(VLEN)],
                        })
                    });
                    LayerState::Conv {
                        layer,
                        w: wt,
                        bias: bias_p,
                        relu: *relu,
                        eltwise: eltwise.as_ref().map(|e| plan.alias[index_of(e.as_str())]),
                        train,
                        folded,
                    }
                }
                NodeSpec::Bn { relu, eltwise, .. } => {
                    let cpad = c.next_multiple_of(VLEN);
                    let mut gamma = Param::new(mode, cpad);
                    gamma.w.fill(1.0);
                    LayerState::Bn {
                        gamma,
                        beta: Param::new(mode, cpad),
                        saved: ops::BnSaved::default(),
                        running_mean: vec![0.0; cpad],
                        running_var: vec![1.0; cpad],
                        relu: *relu,
                        eltwise: eltwise.as_ref().map(|e| plan.alias[index_of(e.as_str())]),
                    }
                }
                NodeSpec::Pool { kind, size, stride, pad, .. } => LayerState::Pool {
                    kind: *kind,
                    size: *size,
                    stride: *stride,
                    pad: *pad,
                    argmax: Vec::new(),
                },
                NodeSpec::GlobalAvgPool { .. } => LayerState::Gap,
                NodeSpec::Fc { bottom, k, .. } => {
                    let (bc, _, _) = plan.shapes[plan.alias[index_of(bottom.as_str())]];
                    let (in_dim, out_dim) = (bc.next_multiple_of(VLEN), k.next_multiple_of(VLEN));
                    let mut w = Param::new(mode, in_dim * out_dim);
                    let mut rng = node_rng(seed, n.name());
                    let scale = (2.0 / in_dim as f32).sqrt();
                    for v in w.w.iter_mut() {
                        *v = rng.next_f32() * 2.0 * scale;
                    }
                    LayerState::Fc { w, b: Param::new(mode, out_dim) }
                }
                NodeSpec::SoftmaxLoss { .. } => {
                    LayerState::SoftmaxLoss { probs: Vec::new(), classes: plan.classes }
                }
                NodeSpec::Concat { .. } => LayerState::Concat,
                NodeSpec::Split { .. } => LayerState::Split,
            };
            layers.push(state);
        }
        let input_dims = plan.shapes[plan.alias[plan.input_node]];
        let mut net = Self {
            pool,
            etg: plan.etg,
            mode,
            blobs,
            slot_of,
            alias: plan.alias,
            shapes: plan.shapes,
            layers,
            input_node: plan.input_node,
            loss_node: plan.loss_node,
            input_dims,
            minibatch,
            classes: plan.classes,
            labels: Vec::new(),
            quant: (0..nodes_len).map(|_| None).collect(),
            derived_amax: vec![None; nodes_len],
            calibrated_amax: vec![None; nodes_len],
            calibrating: false,
            quant_scratch: HashMap::new(),
        };
        // derive the folded weights/biases from the freshly
        // initialized parameters (no-op without folds)
        net.refold();
        net
    }

    /// The mode the network was built for (storage layout and, in
    /// inference, the plan options).
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Number of gradient blobs currently allocated (0 in inference).
    pub fn gradient_blob_count(&self) -> usize {
        self.blobs.iter().flatten().filter(|b| b.grad.is_some()).count()
    }

    /// Bytes of training-only state: gradient blobs, weight gradients,
    /// momentum and backward scratch. Exactly 0 in inference mode.
    pub fn training_state_bytes(&self) -> usize {
        let mut total = 0usize;
        for b in self.blobs.iter().flatten() {
            if let Some(g) = &b.grad {
                total += g.as_slice().len() * 4;
            }
        }
        for l in &self.layers {
            match l {
                LayerState::Conv { bias, train, .. } => {
                    if let Some(t) = train {
                        total += (t.dw.as_slice().len() + t.w_vel.as_slice().len()) * 4;
                        total +=
                            (t.dout_masked.as_slice().len() + t.di_scratch.as_slice().len()) * 4;
                    }
                    if let Some(b) = bias {
                        total += b.training_bytes();
                    }
                }
                LayerState::Bn { gamma, beta, .. } => {
                    total += gamma.training_bytes() + beta.training_bytes();
                }
                LayerState::Fc { w, b, .. } => total += w.training_bytes() + b.training_bytes(),
                _ => {}
            }
        }
        total
    }

    /// Activation slots allocated (inference shares slots between
    /// nodes with disjoint lifetimes, so this is below the node count).
    pub fn activation_slot_count(&self) -> usize {
        self.blobs.len()
    }

    /// Bytes of activation storage across all slots.
    pub fn activation_bytes(&self) -> usize {
        self.blobs.iter().flatten().map(|b| b.act.as_slice().len() * 4).sum()
    }

    /// Softmax probabilities of the last forward pass, one padded row
    /// of `cb·VLEN` lanes per sample (the first [`Self::classes`] of
    /// each row are the real classes). Empty before the first forward.
    pub fn probabilities(&self) -> &[f32] {
        if let LayerState::SoftmaxLoss { probs, .. } = &self.layers[self.loss_node] {
            probs
        } else {
            unreachable!("loss node is a softmax")
        }
    }

    /// Mutable access to the input activation (fill with a batch).
    ///
    /// Valid in both modes: the inference memory plan pins the input
    /// node's slot, so a loaded batch stays intact across repeated
    /// `forward` calls exactly as in training mode.
    pub fn input_mut(&mut self) -> &mut BlockedActs {
        let slot = self.slot_of[self.alias[self.input_node]];
        &mut self.blobs[slot].as_mut().unwrap().act
    }

    /// The minibatch size the network was compiled for.
    pub fn minibatch(&self) -> usize {
        self.minibatch
    }

    /// Logical `(c, h, w)` of the network's input node — together with
    /// [`Self::minibatch`] this is everything a batching front-end
    /// needs to slice client payloads into samples.
    pub fn input_dims(&self) -> (usize, usize, usize) {
        self.input_dims
    }

    /// Load `count` dense NCHW f32 samples into batch positions
    /// `0..count` and zero the rest — the safe way to serve a partial
    /// batch (`count < minibatch`): unused tail positions, SIMD lane
    /// padding and the physical zero border all hold the value the
    /// kernels assume regardless of what the previous batch left
    /// behind.
    ///
    /// `samples` must hold exactly `count × c × h × w` elements with
    /// `count <= minibatch`.
    pub fn load_input_nchw(&mut self, samples: &[f32], count: usize) {
        let (c, h, w) = self.input_dims;
        assert!(count >= 1 && count <= self.minibatch, "count must be in 1..=minibatch");
        assert_eq!(samples.len(), count * c * h * w, "samples must be count × c × h × w NCHW f32");
        let minibatch = self.minibatch;
        let input = self.input_mut();
        // only the unloaded tail needs clearing: positions `0..count`
        // are fully overwritten below, and the lane padding / physical
        // border are zeroed at allocation and never written (the blob
        // is pinned — nothing else touches it). The batch dimension is
        // outermost in the blocked layout, so the tail is one slice.
        if count < minibatch {
            let per_sample = input.as_slice().len() / minibatch;
            input.as_mut_slice()[count * per_sample..].fill(0.0);
        }
        for n in 0..count {
            for ci in 0..c {
                for hi in 0..h {
                    for wi in 0..w {
                        input.set(n, ci, hi, wi, samples[((n * c + ci) * h + hi) * w + wi]);
                    }
                }
            }
        }
    }

    /// Set the labels the next `forward` scores loss/top-1 against.
    pub fn set_labels(&mut self, labels: &[usize]) {
        assert_eq!(labels.len(), self.minibatch);
        self.labels = labels.to_vec();
    }

    /// The compiled ETG (inspection/tests).
    pub fn etg(&self) -> &Etg {
        &self.etg
    }

    /// Number of BN nodes in the compiled graph.
    pub fn bn_node_count(&self) -> usize {
        self.layers.iter().filter(|l| matches!(l, LayerState::Bn { .. })).count()
    }

    /// Number of BN nodes the inference fusion pass folded into their
    /// producer convolution (0 in training mode or with folding
    /// disabled). `folded_bn_count / bn_node_count` is the fused-node
    /// coverage the inference benchmark reports.
    pub fn folded_bn_count(&self) -> usize {
        self.layers.iter().filter(|l| matches!(l, LayerState::Conv { folded: Some(_), .. })).count()
    }

    /// Numeric execution mode the network's conv plans were built for.
    pub fn precision(&self) -> Precision {
        self.mode.precision()
    }

    /// Number of convolution nodes in the compiled graph.
    pub fn conv_node_count(&self) -> usize {
        self.layers.iter().filter(|l| matches!(l, LayerState::Conv { .. })).count()
    }

    fn node_index(&self, name: &str) -> Option<usize> {
        self.etg.eng.nodes.iter().position(|n| n.name() == name)
    }
}

/// Derive a node's private weight-init stream from the spec seed and
/// the node's name (FNV-1a over the name, mixed into the seed), so
/// initialization is independent of node construction order.
fn node_rng(seed: u64, name: &str) -> SplitMix64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    SplitMix64::new(seed ^ h)
}

/// He-normal-ish filter init (uniform approximation, deterministic),
/// drawn in `[k][c][r][s]` order straight into the blocked layout (a
/// dense temporary per conv costs measurable set-up time).
fn he_init_filter(k: usize, c: usize, r: usize, s: usize, rng: &mut SplitMix64) -> BlockedFilter {
    let scale = (6.0 / (c * r * s) as f32).sqrt();
    BlockedFilter::from_kcrs_iter(
        k,
        c,
        r,
        s,
        (0..k * c * r * s).map(|_| rng.next_f32() * 2.0 * scale),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_topology;
    use crate::state::StateDict;

    /// The default serving mode: BN folded, heuristic blocking, f32.
    pub(super) fn inference() -> ExecMode {
        ExecMode::Inference(InferOpts::default())
    }

    /// The unfused reference: every BN a standalone frozen-stats pass.
    pub(super) fn unfused() -> ExecMode {
        ExecMode::Inference(InferOpts { fold_bn: false, ..InferOpts::default() })
    }

    pub(super) fn int8() -> ExecMode {
        ExecMode::Inference(InferOpts { precision: Precision::Int8, ..InferOpts::default() })
    }

    pub(super) fn small_cnn() -> ModelSpec {
        parse_topology(
            "input name=data c=16 h=16 w=16\n\
             conv name=c1 bottom=data k=32 r=3 s=3 pad=1 bias=1 relu=1\n\
             pool name=p1 bottom=c1 kind=max size=2 stride=2\n\
             conv name=c2 bottom=p1 k=32 bias=1 relu=1\n\
             gap name=g bottom=c2\n\
             fc name=logits bottom=g k=16\n\
             softmaxloss name=loss bottom=logits\n",
        )
        .unwrap()
    }

    /// The mini-ResNet block every bn-fold feature test uses: a pure
    /// conv → bn chain with a residual join through a split.
    pub(super) fn residual_bn_spec() -> ModelSpec {
        parse_topology(
            "input name=data c=16 h=8 w=8\n\
             conv name=c0 bottom=data k=16\n\
             bn name=b0 bottom=c0 relu=1\n\
             conv name=c1 bottom=b0 k=16 r=3 s=3 pad=1\n\
             bn name=b1 bottom=c1 relu=1\n\
             conv name=c2 bottom=b1 k=16 r=3 s=3 pad=1\n\
             bn name=b2 bottom=c2 eltwise=b0 relu=1\n\
             gap name=g bottom=b2\n\
             fc name=logits bottom=g k=16\n\
             softmaxloss name=loss bottom=logits\n",
        )
        .unwrap()
    }

    /// Train `residual_bn_spec` a few steps on a fixed batch and hand
    /// back (state dict, input, labels) — shared by the int8 tests.
    pub(super) fn trained_residual(
        pool: &Arc<ThreadPool>,
        cache: &PlanCache,
    ) -> (StateDict, Vec<f32>, Vec<usize>) {
        let nl = residual_bn_spec();
        let mut train =
            Network::build_with(&nl, 4, Arc::clone(pool), ExecMode::Training, cache).unwrap();
        let mut rng = SplitMix64::new(41);
        let mut input = vec![0.0f32; train.input_mut().as_slice().len()];
        rng.fill_f32(&mut input);
        let labels = vec![0usize, 1, 2, 3];
        for _ in 0..5 {
            train.input_mut().as_mut_slice().copy_from_slice(&input);
            train.train_step(&labels, 0.05, 0.9);
        }
        (train.state_dict(), input, labels)
    }

    #[test]
    fn inference_mode_allocates_no_training_state() {
        let nl = small_cnn();
        let infer = Network::build_with(
            &nl,
            4,
            Arc::new(ThreadPool::new(2)),
            inference(),
            &PlanCache::new(),
        )
        .unwrap();
        assert_eq!(infer.mode(), inference());
        assert_eq!(infer.gradient_blob_count(), 0, "no gradient blobs in inference");
        assert_eq!(infer.training_state_bytes(), 0, "no dW/momentum/scratch in inference");
        let train = Network::build(&nl, 4, 2).unwrap();
        assert!(train.gradient_blob_count() > 0);
        assert!(train.training_state_bytes() > 0);
    }

    #[test]
    fn seeded_init_is_per_node_not_order_dependent() {
        // two specs sharing node names 'c1'/'logits' but with an extra
        // layer in between: the shared nodes' initial weights must be
        // identical because init streams derive from (seed, name)
        let a = parse_topology(
            "input name=data c=16 h=8 w=8\n\
             conv name=c1 bottom=data k=16\n\
             gap name=g bottom=c1\n\
             fc name=logits bottom=g k=4\n\
             softmaxloss name=loss bottom=logits\n",
        )
        .unwrap()
        .with_seed(7);
        let b = parse_topology(
            "input name=data c=16 h=8 w=8\n\
             conv name=c1 bottom=data k=16\n\
             conv name=extra bottom=c1 k=16\n\
             gap name=g bottom=extra\n\
             fc name=logits bottom=g k=4\n\
             softmaxloss name=loss bottom=logits\n",
        )
        .unwrap()
        .with_seed(7);
        let na = Network::build(&a, 1, 1).unwrap();
        let nb = Network::build(&b, 1, 1).unwrap();
        let wa = na.state_dict();
        let wb = nb.state_dict();
        assert_eq!(wa.get("c1.weight"), wb.get("c1.weight"));
        assert_eq!(wa.get("logits.weight"), wb.get("logits.weight"));
        // a different seed moves the weights
        let c = Network::build(&a.clone().with_seed(8), 1, 1).unwrap();
        assert_ne!(c.state_dict().get("c1.weight"), wa.get("c1.weight"));
    }

    #[test]
    fn degenerate_runtime_params_are_bad_input() {
        assert!(matches!(Network::build(&small_cnn(), 0, 1), Err(Error::BadInput(_))));
        assert!(matches!(Network::build(&small_cnn(), 1, 0), Err(Error::BadInput(_))));
    }
}
