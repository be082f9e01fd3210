//! The plan phase: compile the topology to an ETG, infer every blob's
//! geometry, decide the inference BN folds and obtain the convolution
//! plans — everything shape-dependent, but no tensor storage — plus
//! the inference memory plan that assigns activation slots.

use super::{Blob, ExecMode, InferOpts};
use crate::pipeline::{compile, fwd_last_use, Etg};
use crate::spec::NodeSpec;
use conv::{ConvLayer, FusedOp, LayerOptions, PlanCache};
use parallel::ThreadPool;
use std::collections::HashMap;
use std::sync::Arc;
use tensor::BlockedActs;

/// One `Conv → Bn (→ eltwise-add → ReLU)` subgraph the inference
/// fusion pass rewrites into a single fused convolution: the BN's
/// frozen statistics fold into the conv's weights and a per-channel
/// bias, and the BN's residual add / ReLU ride along in the conv's
/// cache-hot APPLY step.
#[derive(Clone, Copy, Debug)]
pub(super) struct FoldSpec {
    /// The BN node folded away (its parameters stay authoritative —
    /// the folded weights re-derive from them on every state load).
    pub(super) bn: usize,
    /// ReLU of the folded BN.
    relu: bool,
    /// Alias-resolved owner of the BN's residual blob, if any.
    pub(super) eltwise: Option<usize>,
}

/// Output of the plan phase: everything shape-dependent, including
/// the (cached) convolution plans, but **no** tensor storage.
pub(super) struct GraphPlan {
    pub(super) etg: Etg,
    /// Alias resolution: node → node owning its output blob (Split
    /// nodes alias their bottom; in inference mode, folded BN nodes
    /// alias their producer convolution).
    pub(super) alias: Vec<usize>,
    /// Inferred (c, h, w) per node.
    pub(super) shapes: Vec<(usize, usize, usize)>,
    /// Physical padding of each owner node's output blob (consumer
    /// padding for non-conv producers, the folded BN's consumer
    /// padding for fused convolutions, 0 otherwise).
    pub(super) opad: Vec<usize>,
    /// One shared plan per convolution node.
    pub(super) conv_plans: Vec<Option<Arc<ConvLayer>>>,
    /// Fusion rewrite per convolution node (inference mode only).
    pub(super) fold: Vec<Option<FoldSpec>>,
    pub(super) input_node: usize,
    pub(super) loss_node: usize,
    pub(super) classes: usize,
}

/// Plan phase: compile the topology, infer geometry, decide the
/// inference BN folds, and obtain every convolution plan through
/// `cache` (one JIT + dryrun per *distinct* normalized layer, shared
/// handles for repeats).
pub(super) fn plan_graph(
    nl: &[NodeSpec],
    minibatch: usize,
    pool: &Arc<ThreadPool>,
    cache: &PlanCache,
    mode: ExecMode,
) -> GraphPlan {
    let threads = pool.nthreads();
    let opts = match mode {
        ExecMode::Training => InferOpts { fold_bn: false, ..InferOpts::default() },
        ExecMode::Inference(o) => o,
    };
    let etg = compile(nl);
    let nodes = &etg.eng.nodes;
    let index: HashMap<String, usize> =
        nodes.iter().enumerate().map(|(i, n)| (n.name().to_string(), i)).collect();

    // alias resolution for Split nodes
    let mut alias: Vec<usize> = (0..nodes.len()).collect();
    for (i, n) in nodes.iter().enumerate() {
        if let NodeSpec::Split { bottom, .. } = n {
            alias[i] = alias[index[bottom]];
        }
    }

    // shape inference: (c, h, w) per node
    let mut shapes: Vec<(usize, usize, usize)> = Vec::with_capacity(nodes.len());
    for n in nodes.iter() {
        let dim_of = |name: &str| shapes[alias[index[name]]];
        let sh = match n {
            NodeSpec::Input { c, h, w, .. } => (*c, *h, *w),
            NodeSpec::Conv { bottom, k, r, s, stride, pad, .. } => {
                let (_, h, w) = dim_of(bottom);
                ((*k), (h + 2 * pad - r) / stride + 1, (w + 2 * pad - s) / stride + 1)
            }
            NodeSpec::Bn { bottom, .. } => dim_of(bottom),
            NodeSpec::Pool { bottom, size, stride, pad, .. } => {
                let (c, h, w) = dim_of(bottom);
                (c, (h + 2 * pad - size) / stride + 1, (w + 2 * pad - size) / stride + 1)
            }
            NodeSpec::GlobalAvgPool { bottom, .. } => {
                let (c, _, _) = dim_of(bottom);
                (c, 1, 1)
            }
            NodeSpec::Fc { k, .. } => (*k, 1, 1),
            NodeSpec::SoftmaxLoss { bottom, .. } => dim_of(bottom),
            NodeSpec::Concat { bottoms, .. } => {
                let (mut c, mut h, mut w) = (0, 0, 0);
                for b in bottoms {
                    let (cc, hh, ww) = dim_of(b);
                    c += cc;
                    h = hh;
                    w = ww;
                }
                (c, h, w)
            }
            NodeSpec::Split { bottom, .. } => dim_of(bottom),
        };
        shapes.push(sh);
    }

    // padding inference: blob pad = max pad over conv consumers
    let mut blob_pad = vec![0usize; nodes.len()];
    for n in nodes.iter() {
        if let NodeSpec::Conv { bottom, pad, .. } = n {
            let owner = alias[index[bottom.as_str()]];
            blob_pad[owner] = blob_pad[owner].max(*pad);
        }
    }
    // conv outputs must stay pad-0 (they feed BN/pool/eltwise in the
    // supported topologies); padded consumers read BN/pool outputs
    for (i, n) in nodes.iter().enumerate() {
        if matches!(n, NodeSpec::Conv { .. }) {
            assert_eq!(
                blob_pad[i],
                0,
                "conv '{}' output feeds a padded conv directly; insert a bn node",
                n.name()
            );
        }
    }

    // physical padding of each node's own output blob: convs, GAP and
    // FC produce pad-0 tensors, the rest inherit the consumer padding
    // (folds below lift a fused conv's pad to its BN's)
    let mut opad: Vec<usize> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| match n {
            NodeSpec::Conv { .. } | NodeSpec::GlobalAvgPool { .. } | NodeSpec::Fc { .. } => 0,
            _ => blob_pad[i],
        })
        .collect();

    // the inference fusion pass (Section II-G taken to its logical
    // end): a BN whose bottom is a *pure* convolution it exclusively
    // consumes folds into that convolution — frozen stats become
    // folded weights + a per-channel bias, the BN's residual/ReLU ride
    // in the conv's APPLY step, and the BN node aliases the conv's
    // blob (its standalone full-tensor pass disappears). A fan-out
    // conv is never folded: the NL extender routes shared blobs
    // through a Split, so the BN's bottom is then not a Conv node.
    let mut fold: Vec<Option<FoldSpec>> = vec![None; nodes.len()];
    if opts.fold_bn {
        for (j, n) in nodes.iter().enumerate() {
            let NodeSpec::Bn { bottom, relu, eltwise, .. } = n else { continue };
            let bi = index[bottom.as_str()];
            let NodeSpec::Conv { bias, relu: conv_relu, eltwise: conv_elt, .. } = &nodes[bi] else {
                continue;
            };
            // only a conv with no fused ops of its own can absorb the
            // BN's affine + post-ops
            if *bias || *conv_relu || conv_elt.is_some() {
                continue;
            }
            if let Some(e) = eltwise {
                let ro = alias[index[e.as_str()]];
                // the residual must already exist when the *conv*
                // executes (the fused apply reads it there, earlier
                // than the BN's original schedule slot) and must share
                // the merged blob's physical geometry
                if ro >= bi || opad[ro] != blob_pad[j] {
                    continue;
                }
            }
            fold[bi] = Some(FoldSpec {
                bn: j,
                relu: *relu,
                eltwise: eltwise.as_ref().map(|e| alias[index[e.as_str()]]),
            });
            // re-point the BN — and any Split already aliased to it —
            // at the convolution's blob
            for a in alias.iter_mut() {
                if *a == j {
                    *a = bi;
                }
            }
            // the merged blob carries the BN's consumer padding
            opad[bi] = blob_pad[j];
        }
    }

    // convolution plans through the cache (the JIT + dryrun phase)
    let mut conv_plans: Vec<Option<Arc<ConvLayer>>> = Vec::with_capacity(nodes.len());
    let mut input_node = usize::MAX;
    let mut loss_node = usize::MAX;
    let mut classes = 0usize;
    for (i, n) in nodes.iter().enumerate() {
        let plan = match n {
            NodeSpec::Input { .. } => {
                input_node = i;
                None
            }
            NodeSpec::SoftmaxLoss { bottom, .. } => {
                loss_node = i;
                classes = shapes[alias[index[bottom.as_str()]]].0;
                None
            }
            NodeSpec::Conv { bottom, k, r, s, stride, pad, bias, relu, eltwise, .. } => {
                let bi = alias[index[bottom.as_str()]];
                let (bc, bh, bw) = shapes[bi];
                let shape =
                    tensor::ConvShape::new(minibatch, bc, *k, bh, bw, *r, *s, *stride, *pad);
                let fuse = if let Some(f) = fold[i] {
                    // a folded BN always contributes its bias shift;
                    // its residual add / ReLU complete the variant
                    match (f.relu, f.eltwise.is_some()) {
                        (false, false) => FusedOp::Bias,
                        (true, false) => FusedOp::BiasRelu,
                        (false, true) => FusedOp::BiasEltwise,
                        (true, true) => FusedOp::BiasEltwiseRelu,
                    }
                } else {
                    match (bias, relu, eltwise.is_some()) {
                        (true, false, false) => FusedOp::Bias,
                        (false, true, false) => FusedOp::Relu,
                        (true, true, false) => FusedOp::BiasRelu,
                        (false, false, true) => FusedOp::Eltwise,
                        (false, true, true) => FusedOp::EltwiseRelu,
                        (true, false, true) => FusedOp::BiasEltwise,
                        (true, true, true) => FusedOp::BiasEltwiseRelu,
                        (false, false, false) => FusedOp::None,
                    }
                };
                Some(
                    cache.get_or_build(
                        shape,
                        LayerOptions::new(threads)
                            .with_fuse(fuse)
                            // int8: every conv also plans a fused
                            // quantized forward, so a later calibration
                            // can widen coverage without replanning
                            .with_precision(opts.precision)
                            // the *physical* padding of the input blob
                            // (for a folded producer, the merged blob
                            // carries its BN's consumer padding)
                            .with_input_pad(opad[bi])
                            .with_dout_pad(0)
                            .with_out_pad(opad[i])
                            // autotuning: the cache memoizes winners per
                            // (shape, machine, level), so repeated shapes
                            // search once; Measured micro-benches on the
                            // network's own pool
                            .with_tune(opts.tune)
                            .with_pool(Arc::clone(pool)),
                    ),
                )
            }
            _ => None,
        };
        conv_plans.push(plan);
    }
    assert!(input_node != usize::MAX, "topology has no input node");
    assert!(loss_node != usize::MAX, "topology has no softmaxloss node");
    GraphPlan { etg, alias, shapes, opad, conv_plans, fold, input_node, loss_node, classes }
}

impl GraphPlan {
    /// Whether node `i` owns an activation blob (Splits alias their
    /// bottom, the loss head reads its bottom in place).
    pub(super) fn owns_blob(&self, i: usize) -> bool {
        !matches!(self.etg.eng.nodes[i], NodeSpec::Split { .. } | NodeSpec::SoftmaxLoss { .. })
    }
}

/// Inference memory plan: walk the forward schedule, hand every
/// blob-owning node a slot, and return a node's slot to the free pool
/// of its geometry once its last consumer has executed — so e.g. the
/// early-stage 56×56 activations of ResNet-50 back many later nodes.
///
/// Reuse is keyed on the exact `(n, c, h, w, pad)` geometry. Every
/// producer fully overwrites its logical interior and nothing writes
/// the physical padding border, so a recycled buffer's border stays
/// zero — the invariant padded convolutions rely on.
///
/// A dying input is released only *after* the current node's output
/// slot is taken, so an operator never reads and writes one buffer.
/// The network-input node's slot is pinned (never recycled): a batch
/// loaded through `input_mut` stays valid across repeated forwards,
/// the same contract training mode provides.
pub(super) fn assign_slots_inference(
    plan: &GraphPlan,
    minibatch: usize,
) -> (Vec<usize>, Vec<Option<Blob>>) {
    type Geom = (usize, usize, usize, usize, usize);
    let nodes_len = plan.etg.eng.nodes.len();
    let last = fwd_last_use(&plan.etg, &plan.alias);
    let geom_of = |i: usize| -> Geom {
        let (c, h, w) = plan.shapes[i];
        (minibatch, c, h, w, plan.opad[i])
    };
    let mut slot_of = vec![usize::MAX; nodes_len];
    let mut slot_geom: Vec<Geom> = Vec::new();
    let mut free: HashMap<Geom, Vec<usize>> = HashMap::new();
    for (pos, t) in plan.etg.fwd.iter().enumerate() {
        let node = t.node;
        if plan.alias[node] != node || !plan.owns_blob(node) {
            // alias nodes and the loss head own no storage; their
            // inputs still die here, so fall through to the release
        } else {
            let geom = geom_of(node);
            let slot = match free.get_mut(&geom).and_then(|v| v.pop()) {
                Some(s) => s,
                None => {
                    slot_geom.push(geom);
                    slot_geom.len() - 1
                }
            };
            slot_of[node] = slot;
        }
        // release every distinct input blob whose last use is here
        // (except the pinned network-input slot)
        let mut dying: Vec<usize> = plan.etg.eng.preds[node]
            .iter()
            .map(|&p| plan.alias[p])
            .filter(|&o| o != plan.input_node && last[o] == pos && slot_of[o] != usize::MAX)
            .collect();
        dying.sort_unstable();
        dying.dedup();
        for o in dying {
            free.entry(geom_of(o)).or_default().push(slot_of[o]);
        }
    }
    let blobs = slot_geom
        .into_iter()
        .map(|(n, c, h, w, pad)| {
            Some(Blob { act: BlockedActs::zeros(n, c, h, w, pad), grad: None })
        })
        .collect();
    (slot_of, blobs)
}

#[cfg(test)]
mod tests {
    use super::super::tests::{inference, residual_bn_spec, unfused};
    use super::super::Network;
    use super::*;
    use crate::parser::parse_topology;
    use tensor::rng::SplitMix64;

    #[test]
    fn inference_liveness_plan_shares_slots() {
        // a same-geometry conv chain: only a handful of buffers must
        // stay live at any point of the forward schedule
        let nl = parse_topology(
            "input name=data c=16 h=8 w=8\n\
             conv name=a bottom=data k=16 relu=1\n\
             conv name=b bottom=a k=16 relu=1\n\
             conv name=c bottom=b k=16 relu=1\n\
             conv name=d bottom=c k=16 relu=1\n\
             conv name=e bottom=d k=16 relu=1\n\
             gap name=g bottom=e\n\
             fc name=logits bottom=g k=16\n\
             softmaxloss name=loss bottom=logits\n",
        )
        .unwrap();
        let cache = PlanCache::new();
        let pool = Arc::new(ThreadPool::new(2));
        let train =
            Network::build_with(&nl, 2, Arc::clone(&pool), ExecMode::Training, &cache).unwrap();
        let infer = Network::build_with(&nl, 2, Arc::clone(&pool), inference(), &cache).unwrap();
        assert!(
            infer.activation_slot_count() < train.activation_slot_count(),
            "liveness plan must share buffers: {} vs {}",
            infer.activation_slot_count(),
            train.activation_slot_count()
        );
        assert!(infer.activation_bytes() < train.activation_bytes());
        // the five 1×1 convs share one normalized shape: one plan
        assert_eq!(cache.misses(), 1, "identical chain convs must share one plan");
    }

    #[test]
    fn inference_folds_bn_into_conv_and_matches_unfused_frozen_reference() {
        // the fused executor (conv + folded BN + residual + ReLU in
        // one APPLY) against the unfused frozen-stats reference
        // forward — same weights, same running statistics, so the two
        // may differ only by fold-rounding
        let nl = residual_bn_spec();
        let cache = PlanCache::new();
        let pool = Arc::new(ThreadPool::new(3));
        // train a few steps so the running statistics are non-trivial
        let mut train =
            Network::build_with(&nl, 4, Arc::clone(&pool), ExecMode::Training, &cache).unwrap();
        let mut rng = SplitMix64::new(11);
        let mut input = vec![0.0f32; train.input_mut().as_slice().len()];
        rng.fill_f32(&mut input);
        let labels = vec![0usize, 1, 2, 3];
        for _ in 0..3 {
            train.input_mut().as_mut_slice().copy_from_slice(&input);
            train.train_step(&labels, 0.05, 0.9);
        }
        let sd = train.state_dict();

        let mut fused =
            Network::build_with(&nl, 4, Arc::clone(&pool), inference(), &cache).unwrap();
        let mut unfused =
            Network::build_with(&nl, 4, Arc::clone(&pool), unfused(), &cache).unwrap();
        // b0/b1 fold; b2's residual (b0's blob) carries physical pad 1
        // for the 3×3 conv c1 while b2's own output is pad-0, so the
        // geometry gate keeps b2 a standalone frozen-stats pass — the
        // graph exercises folded and unfolded BNs side by side
        assert_eq!(fused.bn_node_count(), 3);
        assert_eq!(fused.folded_bn_count(), 2, "b0 and b1 fold, b2 stays standalone");
        assert_eq!(unfused.folded_bn_count(), 0);
        fused.load_state_dict(&sd).unwrap();
        unfused.load_state_dict(&sd).unwrap();

        fused.set_labels(&labels);
        unfused.set_labels(&labels);
        fused.input_mut().as_mut_slice().copy_from_slice(&input);
        unfused.input_mut().as_mut_slice().copy_from_slice(&input);
        for step in 0..3 {
            let sf = fused.forward();
            let su = unfused.forward();
            assert!(
                (sf.loss - su.loss).abs() <= 1e-4 * su.loss.abs().max(1.0),
                "step {step}: fused loss {} vs unfused {}",
                sf.loss,
                su.loss
            );
            assert_eq!(sf.top1, su.top1, "step {step}");
            let n = tensor::Norms::compare(unfused.probabilities(), fused.probabilities());
            assert!(n.ok(1e-4), "step {step}: fused vs unfused frozen reference: {n}");
        }
    }

    #[test]
    fn residual_join_folds_to_bias_eltwise_relu_when_geometry_matches() {
        // a 1×1 bottleneck chain: every blob is pad-0, so the join BN
        // folds too (the BiasEltwiseRelu variant) and the whole graph
        // runs without a single standalone BN pass
        let nl = parse_topology(
            "input name=data c=16 h=8 w=8\n\
             conv name=c0 bottom=data k=16\n\
             bn name=b0 bottom=c0 relu=1\n\
             conv name=c1 bottom=b0 k=16\n\
             bn name=b1 bottom=c1 relu=1\n\
             conv name=c2 bottom=b1 k=16\n\
             bn name=b2 bottom=c2 eltwise=b0 relu=1\n\
             gap name=g bottom=b2\n\
             fc name=logits bottom=g k=16\n\
             softmaxloss name=loss bottom=logits\n",
        )
        .unwrap();
        let cache = PlanCache::new();
        let pool = Arc::new(ThreadPool::new(2));
        let mut train =
            Network::build_with(&nl, 2, Arc::clone(&pool), ExecMode::Training, &cache).unwrap();
        let mut rng = SplitMix64::new(29);
        let mut input = vec![0.0f32; train.input_mut().as_slice().len()];
        rng.fill_f32(&mut input);
        for _ in 0..2 {
            train.input_mut().as_mut_slice().copy_from_slice(&input);
            train.train_step(&[0, 1], 0.05, 0.9);
        }
        let sd = train.state_dict();

        let mut fused =
            Network::build_with(&nl, 2, Arc::clone(&pool), inference(), &cache).unwrap();
        let mut unfused =
            Network::build_with(&nl, 2, Arc::clone(&pool), unfused(), &cache).unwrap();
        assert_eq!(fused.folded_bn_count(), 3, "all BNs fold, including the residual join");
        // the fused-plan flavour is observable through the cache
        let stats = cache.stats();
        assert!(
            stats.for_op(conv::FusedOp::BiasEltwiseRelu).misses >= 1,
            "the join must have built a BiasEltwiseRelu plan: {stats:?}"
        );
        fused.load_state_dict(&sd).unwrap();
        unfused.load_state_dict(&sd).unwrap();
        fused.input_mut().as_mut_slice().copy_from_slice(&input);
        unfused.input_mut().as_mut_slice().copy_from_slice(&input);
        fused.set_labels(&[0, 1]);
        unfused.set_labels(&[0, 1]);
        let sf = fused.forward();
        let su = unfused.forward();
        assert_eq!(sf.top1, su.top1);
        let n = tensor::Norms::compare(unfused.probabilities(), fused.probabilities());
        assert!(n.ok(1e-4), "fused join vs unfused frozen reference: {n}");
    }

    #[test]
    fn training_forward_is_untouched_by_the_fusion_pass() {
        // training mode keeps batch statistics and standalone BN
        // passes: two training nets (one built alongside an inference
        // net, one alone) agree bit-for-bit
        let nl = residual_bn_spec();
        let cache = PlanCache::new();
        let pool = Arc::new(ThreadPool::new(2));
        let mut a =
            Network::build_with(&nl, 2, Arc::clone(&pool), ExecMode::Training, &cache).unwrap();
        let _infer = Network::build_with(&nl, 2, Arc::clone(&pool), inference(), &cache).unwrap();
        let mut b =
            Network::build_with(&nl, 2, Arc::clone(&pool), ExecMode::Training, &cache).unwrap();
        assert_eq!(a.folded_bn_count(), 0, "training mode never folds");
        let mut rng = SplitMix64::new(13);
        let mut input = vec![0.0f32; a.input_mut().as_slice().len()];
        rng.fill_f32(&mut input);
        a.input_mut().as_mut_slice().copy_from_slice(&input);
        b.input_mut().as_mut_slice().copy_from_slice(&input);
        let labels = vec![0usize, 1];
        a.set_labels(&labels);
        b.set_labels(&labels);
        let sa = a.forward();
        let sb = b.forward();
        assert_eq!(sa.loss, sb.loss);
        assert_eq!(a.probabilities(), b.probabilities());
    }
}
