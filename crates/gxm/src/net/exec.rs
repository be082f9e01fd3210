//! The run phase: the forward, backward and weight-update passes over
//! the ETG schedules, SGD, and the node-I/O contract every operator
//! call goes through (`Network::lend` / `Network::give_back`).

use super::{Blob, ExecMode, LayerState, Network, StepStats, BN_EPS};
use crate::ops::{self, ResidualGrad};
use crate::pipeline::PassKind;
use crate::spec::PoolKind;
use conv::fuse::FuseCtx;
use tensor::{BlockedActs, VnniActs, VLEN};

/// Exponential-moving-average factor for the BN running statistics
/// accumulated during training (the usual framework default).
const BN_MOMENTUM: f32 = 0.1;

/// Why an operator could not find a gradient buffer.
const GRAD: &str = "training blobs carry gradients";

/// A node's residual input, as lent to its operator.
enum Residual {
    /// The node adds no residual.
    None,
    /// The residual is the node's own bottom blob: it is read (and its
    /// gradient accumulated) through the bottom, never taken twice.
    Bottom,
    /// A separate blob, with the node that owns it.
    Blob(usize, Blob),
}

/// The blobs one node's operator reads and writes, taken out of the
/// slot table for the duration of the call so the operator can borrow
/// them next to the node's layer state.
struct Lent {
    /// Data inputs in ETG order: every input of a concat, else the one
    /// bottom (a conv's or BN's residual is not among them).
    bots: Vec<Blob>,
    /// The node's output blob (the loss head owns none).
    own: Option<Blob>,
    res: Residual,
}

impl Lent {
    /// Forward view: the bottom's activations, the residual's (the
    /// bottom itself when they alias) and the output activations.
    fn fwd(&mut self) -> (&BlockedActs, Option<&BlockedActs>, &mut BlockedActs) {
        let x = &self.bots[0].act;
        let res = match &self.res {
            Residual::None => None,
            Residual::Bottom => Some(x),
            Residual::Blob(_, r) => Some(&r.act),
        };
        (x, res, &mut self.own.as_mut().expect("operator has an output blob").act)
    }

    /// Backward view: the bottom's activations and gradient, the
    /// output blob, and where the residual's gradient goes.
    fn bwd(&mut self) -> (&BlockedActs, &mut BlockedActs, &Blob, ResidualGrad<'_>) {
        let Blob { act, grad } = &mut self.bots[0];
        let dres = match &mut self.res {
            Residual::None => ResidualGrad::None,
            Residual::Bottom => ResidualGrad::Input,
            Residual::Blob(_, r) => ResidualGrad::Blob(r.grad.as_mut().expect(GRAD)),
        };
        let own = self.own.as_ref().expect("operator has an output blob");
        (act, grad.as_mut().expect(GRAD), own, dres)
    }
}

impl LayerState {
    /// Alias-resolved owner of the residual blob this node adds to its
    /// output: a conv's or BN's own `eltwise`, or a folded BN's.
    fn residual(&self) -> Option<usize> {
        match self {
            LayerState::Conv { folded: Some(f), .. } => f.eltwise,
            LayerState::Conv { eltwise, .. } | LayerState::Bn { eltwise, .. } => *eltwise,
            _ => None,
        }
    }
}

impl Network {
    /// One full training step on (already loaded) input + labels.
    pub fn train_step(&mut self, labels: &[usize], lr: f32, momentum: f32) -> StepStats {
        assert_eq!(self.mode, ExecMode::Training, "train_step needs a Training-mode network");
        assert_eq!(labels.len(), self.minibatch);
        self.labels = labels.to_vec();
        let stats = self.forward();
        self.backward();
        self.update();
        self.sgd(lr, momentum);
        stats
    }

    /// Forward pass only (inference); returns loss/top-1 against the
    /// last set labels (zeros if never set).
    pub fn forward(&mut self) -> StepStats {
        if self.labels.len() != self.minibatch {
            self.labels = vec![0; self.minibatch];
        }
        let mut out = StepStats { loss: 0.0, top1: 0.0 };
        for t in 0..self.etg.fwd.len() {
            debug_assert_eq!(self.etg.fwd[t].pass, PassKind::Fwd);
            if let Some(s) = self.forward_node(self.etg.fwd[t].node) {
                out = s;
            }
        }
        out
    }

    /// Take `node`'s blobs out of the slot table: its data inputs, its
    /// output and its residual. A residual that aliases the bottom is
    /// lent as the bottom itself ([`Residual::Bottom`]).
    fn lend(&mut self, node: usize) -> Lent {
        let layer = &self.layers[node];
        let preds = &self.etg.eng.preds[node];
        let mut take =
            |owner: usize| self.blobs[self.slot_of[owner]].take().expect("blob lent twice");
        // a conv's or BN's second pred is its residual, lent below
        let inputs = match layer {
            LayerState::Conv { .. } | LayerState::Bn { .. } => &preds[..1],
            _ => &preds[..],
        };
        let bots: Vec<Blob> = inputs.iter().map(|&p| take(self.alias[p])).collect();
        let own = (self.slot_of[node] != usize::MAX).then(|| take(node));
        let res = match layer.residual() {
            None => Residual::None,
            Some(ro) if ro == self.alias[inputs[0]] => Residual::Bottom,
            Some(ro) => Residual::Blob(ro, take(ro)),
        };
        Lent { bots, own, res }
    }

    /// Return the blobs [`Self::lend`] took for `node`.
    fn give_back(&mut self, node: usize, io: Lent) {
        for (&p, b) in self.etg.eng.preds[node].iter().zip(io.bots) {
            self.blobs[self.slot_of[self.alias[p]]] = Some(b);
        }
        if let Some(b) = io.own {
            self.blobs[self.slot_of[node]] = Some(b);
        }
        if let Residual::Blob(ro, b) = io.res {
            self.blobs[self.slot_of[ro]] = Some(b);
        }
    }

    /// Run `node`'s forward operator; the loss head returns the
    /// minibatch's loss and top-1.
    pub(super) fn forward_node(&mut self, node: usize) -> Option<StepStats> {
        // splits and BNs folded into their producer own no blob: their
        // work happens upstream
        if self.alias[node] != node {
            return None;
        }
        let mut io = self.lend(node);
        let pool = &self.pool;
        let mut stats = None;
        match &mut self.layers[node] {
            LayerState::Input | LayerState::Split => {}
            LayerState::Conv { layer, w, bias, folded, .. } => {
                // the residual — the conv's own, or a folded BN's — is
                // read in the fused APPLY while the output tile is
                // still cache-hot
                let (x, eltwise, y) = io.fwd();
                let qs = if self.calibrating { None } else { self.quant[node].as_ref() };
                if let Some(qs) = qs {
                    // int8 path: quantize the f32 input blob into the
                    // geometry's int16 scratch, run the fused quantized
                    // plan (conv in int8/int16, requant +
                    // bias/residual/ReLU in the f32 APPLY) — the output
                    // blob is plain f32 again, so consumers never see a
                    // precision boundary
                    let key = (x.n, x.c, x.h, x.w, x.pad);
                    let mut xq = self
                        .quant_scratch
                        .remove(&key)
                        .unwrap_or_else(|| VnniActs::zeros(x.n, x.c, x.h, x.w, x.pad));
                    conv::quant::quantize_acts(pool, x, &qs.inv_sx, &mut xq);
                    let bias = match folded {
                        Some(f) => Some(&f.bias[..]),
                        None => bias.as_ref().map(|b| &b.w[..]).or(qs.zero_bias.as_deref()),
                    };
                    layer.forward_quant(pool, &xq, &qs.wq, y, &qs.mult, &FuseCtx { bias, eltwise });
                    self.quant_scratch.insert(key, xq);
                } else {
                    let (weights, bias) = match folded {
                        Some(f) => (&f.w, Some(&f.bias[..])),
                        None => (&*w, bias.as_ref().map(|b| &b.w[..])),
                    };
                    layer.forward(pool, x, weights, y, &FuseCtx { bias, eltwise });
                }
            }
            LayerState::Bn { gamma, beta, saved, running_mean, running_var, relu, .. } => {
                let (x, res, y) = io.fwd();
                if self.mode == ExecMode::Training {
                    ops::bn_fwd(pool, x, &gamma.w, &beta.w, BN_EPS, *relu, res, y, saved);
                    // accumulate the running statistics every
                    // training-mode forward — the EMAs the frozen-stats
                    // inference paths consume
                    for c in 0..running_mean.len() {
                        running_mean[c] =
                            (1.0 - BN_MOMENTUM) * running_mean[c] + BN_MOMENTUM * saved.mean[c];
                        running_var[c] =
                            (1.0 - BN_MOMENTUM) * running_var[c] + BN_MOMENTUM * saved.var[c];
                    }
                } else {
                    // inference: frozen running statistics — the output
                    // of each sample no longer depends on its co-batched
                    // neighbours (a BN the fusion pass could not fold
                    // still serves correctly)
                    ops::bn_infer_fwd(
                        pool,
                        x,
                        &gamma.w,
                        &beta.w,
                        running_mean,
                        running_var,
                        BN_EPS,
                        *relu,
                        res,
                        y,
                    );
                }
            }
            LayerState::Pool { kind, size, stride, pad, argmax } => {
                let (x, _, y) = io.fwd();
                match kind {
                    PoolKind::Max => ops::maxpool_fwd(pool, x, *size, *stride, *pad, y, argmax),
                    PoolKind::Avg => ops::avgpool_fwd(pool, x, *size, *stride, *pad, y),
                }
            }
            LayerState::Gap => {
                let (x, _, y) = io.fwd();
                ops::gap_fwd(pool, x, y);
            }
            LayerState::Fc { w, b, .. } => {
                let (x, _, y) = io.fwd();
                ops::fc_fwd(pool, x, &w.w, &b.w, y);
            }
            LayerState::SoftmaxLoss { probs, classes } => {
                let (loss, top1) =
                    ops::softmax_loss_fwd(&io.bots[0].act, *classes, &self.labels, probs);
                stats = Some(StepStats { loss, top1 });
            }
            LayerState::Concat => {
                let parts: Vec<&BlockedActs> = io.bots.iter().map(|p| &p.act).collect();
                ops::concat_fwd(&parts, &mut io.own.as_mut().expect("concat has an output").act);
            }
        }
        self.give_back(node, io);
        stats
    }

    /// Backward pass (zeroes gradients first).
    pub fn backward(&mut self) {
        assert_eq!(self.mode, ExecMode::Training, "backward needs a Training-mode network");
        for b in self.blobs.iter_mut().flatten() {
            b.grad.as_mut().expect(GRAD).zero();
        }
        for t in 0..self.etg.bwd.len() {
            self.backward_node(self.etg.bwd[t].node);
        }
    }

    fn backward_node(&mut self, node: usize) {
        // splits own no blob: the gradient reduction falls out of the
        // accumulate-into-blob convention every operator follows
        if self.alias[node] != node {
            return;
        }
        let mut io = self.lend(node);
        let pool = &self.pool;
        match &mut self.layers[node] {
            LayerState::Input | LayerState::Split => {}
            LayerState::SoftmaxLoss { probs, classes } => {
                let dx = io.bots[0].grad.as_mut().expect(GRAD);
                ops::softmax_loss_bwd(probs, *classes, &self.labels, dx);
            }
            LayerState::Fc { w, b, .. } => {
                let (x, dx, own, _) = io.bwd();
                let dy = own.grad.as_ref().expect(GRAD);
                ops::fc_bwd(pool, x, dy, &w.w, dx, &mut w.dw, &mut b.dw);
            }
            LayerState::Gap => {
                let (_, dx, own, _) = io.bwd();
                ops::gap_bwd(pool, own.grad.as_ref().expect(GRAD), dx);
            }
            LayerState::Pool { kind, size, stride, pad, argmax } => {
                let (_, dx, own, _) = io.bwd();
                let dy = own.grad.as_ref().expect(GRAD);
                match kind {
                    PoolKind::Max => ops::maxpool_bwd(pool, dy, argmax, dx),
                    PoolKind::Avg => ops::avgpool_bwd(pool, dy, *size, *stride, *pad, dx),
                }
            }
            LayerState::Bn { gamma, beta, saved, relu, .. } => {
                let (x, dx, own, dres) = io.bwd();
                let dy = own.grad.as_ref().expect(GRAD);
                ops::bn_bwd(
                    pool,
                    x,
                    &own.act,
                    dy,
                    &gamma.w,
                    saved,
                    *relu,
                    dres,
                    dx,
                    &mut gamma.dw,
                    &mut beta.dw,
                );
            }
            LayerState::Conv { layer, w, bias, relu, eltwise, train, .. } => {
                let (_, dx, own, dres) = io.bwd();
                let ts = train.as_mut().expect("backward requires training-mode state");
                let own_grad = own.grad.as_ref().expect(GRAD);
                // mask the incoming gradient through the fused ReLU;
                // route it to the residual branch as well
                if *relu || eltwise.is_some() {
                    for i in 0..own_grad.as_slice().len() {
                        let mut g = own_grad.as_slice()[i];
                        if *relu && own.act.as_slice()[i] <= 0.0 {
                            g = 0.0;
                        }
                        ts.dout_masked.as_mut_slice()[i] = g;
                    }
                    let dres = match dres {
                        ResidualGrad::None => None,
                        ResidualGrad::Input => Some(&mut *dx),
                        ResidualGrad::Blob(g) => Some(g),
                    };
                    if let Some(dr) = dres {
                        for (d, s) in dr.as_mut_slice().iter_mut().zip(ts.dout_masked.as_slice()) {
                            *d += s;
                        }
                    }
                } else {
                    ts.dout_masked.as_mut_slice().copy_from_slice(own_grad.as_slice());
                }
                // bias gradient
                if let Some(bp) = bias.as_mut() {
                    bp.dw.fill(0.0);
                    let dm = &ts.dout_masked;
                    let plane = dm.h * dm.w;
                    for n in 0..dm.n {
                        for kb in 0..dm.cb {
                            let base = (n * dm.cb + kb) * plane * VLEN;
                            for px in 0..plane {
                                for v in 0..VLEN {
                                    bp.dw[kb * VLEN + v] += dm.as_slice()[base + px * VLEN + v];
                                }
                            }
                        }
                    }
                }
                // dI then accumulate into the bottom's gradient
                layer.backward(pool, &ts.dout_masked, w, &mut ts.di_scratch);
                ops::accumulate(pool, dx, &ts.di_scratch);
            }
            LayerState::Concat => {
                let mut parts: Vec<&mut BlockedActs> =
                    io.bots.iter_mut().map(|p| p.grad.as_mut().expect(GRAD)).collect();
                let own = io.own.as_ref().expect("concat has an output");
                ops::concat_bwd(own.grad.as_ref().expect(GRAD), &mut parts);
            }
        }
        self.give_back(node, io);
    }

    /// Weight-gradient update pass (the heavy dW computations).
    pub fn update(&mut self) {
        assert_eq!(self.mode, ExecMode::Training, "update needs a Training-mode network");
        for t in 0..self.etg.upd.len() {
            let node = self.etg.upd[t].node;
            let io = self.lend(node);
            if let LayerState::Conv { layer, train, .. } = &mut self.layers[node] {
                let ts = train.as_mut().expect("update requires training-mode state");
                layer.update(&self.pool, &io.bots[0].act, &ts.dout_masked, &mut ts.dw);
            }
            self.give_back(node, io);
        }
    }

    /// SGD with momentum over every parameter.
    pub fn sgd(&mut self, lr: f32, momentum: f32) {
        assert_eq!(self.mode, ExecMode::Training, "sgd needs a Training-mode network");
        let step = |w: &mut [f32], dw: &[f32], vel: &mut [f32]| {
            for i in 0..w.len() {
                vel[i] = momentum * vel[i] - lr * dw[i];
                w[i] += vel[i];
            }
        };
        for l in self.layers.iter_mut() {
            match l {
                LayerState::Conv { w, bias, train, .. } => {
                    let ts = train.as_mut().expect("sgd requires training-mode state");
                    step(w.as_mut_slice(), ts.dw.as_slice(), ts.w_vel.as_mut_slice());
                    if let Some(b) = bias {
                        step(&mut b.w, &b.dw, &mut b.vel);
                    }
                }
                LayerState::Bn { gamma, beta, .. } => {
                    step(&mut gamma.w, &gamma.dw, &mut gamma.vel);
                    step(&mut beta.w, &beta.dw, &mut beta.vel);
                }
                LayerState::Fc { w, b, .. } => {
                    step(&mut w.w, &w.dw, &mut w.vel);
                    step(&mut b.w, &b.dw, &mut b.vel);
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{inference, residual_bn_spec, small_cnn, unfused};
    use super::*;
    use crate::model::ModelSpec;
    use crate::parser::parse_topology;
    use crate::spec::NodeSpec;
    use conv::PlanCache;
    use parallel::ThreadPool;
    use std::sync::Arc;
    use tensor::rng::SplitMix64;

    #[test]
    fn forward_runs_and_produces_finite_loss() {
        let mut net = Network::build(&small_cnn(), 8, 4).unwrap();
        // random input
        let mut rng = SplitMix64::new(1);
        rng.fill_f32(net.input_mut().as_mut_slice());
        let labels: Vec<usize> = (0..8).map(|i| i % 10).collect();
        net.labels = labels;
        let stats = net.forward();
        assert!(stats.loss.is_finite() && stats.loss > 0.0);
    }

    #[test]
    fn training_reduces_loss() {
        let mut net = Network::build(&small_cnn(), 8, 4).unwrap();
        let mut rng = SplitMix64::new(2);
        let mut input = vec![0.0f32; net.input_mut().as_slice().len()];
        rng.fill_f32(&mut input);
        let labels: Vec<usize> = (0..8).map(|i| i % 4).collect();
        let mut first = f32::NAN;
        let mut last = f32::NAN;
        for step in 0..30 {
            net.input_mut().as_mut_slice().copy_from_slice(&input);
            let stats = net.train_step(&labels, 0.05, 0.9);
            if step == 0 {
                first = stats.loss;
            }
            last = stats.loss;
            assert!(stats.loss.is_finite(), "step {step}: loss diverged");
        }
        assert!(last < 0.5 * first, "loss did not fall: {first} -> {last}");
    }

    #[test]
    fn residual_bn_network_trains() {
        // mini-ResNet block: conv-bn-relu -> conv-bn(+shortcut, relu)
        let nl = parse_topology(
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
        .unwrap();
        let mut net = Network::build(&nl, 4, 3).unwrap();
        // b0 fans out (c1 + eltwise) -> one split node must appear
        assert!(net.etg().eng.nodes.iter().any(|n| matches!(n, NodeSpec::Split { .. })));
        let mut rng = SplitMix64::new(3);
        let mut input = vec![0.0f32; net.input_mut().as_slice().len()];
        rng.fill_f32(&mut input);
        let labels = vec![0usize, 1, 2, 3];
        let mut first = f32::NAN;
        let mut last = f32::NAN;
        for step in 0..40 {
            net.input_mut().as_mut_slice().copy_from_slice(&input);
            let s = net.train_step(&labels, 0.05, 0.9);
            if step == 0 {
                first = s.loss;
            }
            last = s.loss;
        }
        assert!(last < 0.7 * first, "residual net loss did not fall: {first} -> {last}");
    }

    #[test]
    fn inference_forward_matches_training_exactly() {
        let nl = small_cnn();
        let cache = PlanCache::new();
        let pool = Arc::new(ThreadPool::new(4));
        let mut train =
            Network::build_with(&nl, 8, Arc::clone(&pool), ExecMode::Training, &cache).unwrap();
        let mut infer =
            Network::build_with(&nl, 8, Arc::clone(&pool), inference(), &cache).unwrap();
        let first_build_misses = cache.misses();
        // the second build must not have JIT'd anything new
        assert_eq!(first_build_misses, 2, "two distinct conv layers in the topology");
        assert!(cache.hits() >= 2, "inference build must reuse the training build's plans");

        let mut rng = SplitMix64::new(7);
        let mut input = vec![0.0f32; train.input_mut().as_slice().len()];
        rng.fill_f32(&mut input);
        train.input_mut().as_mut_slice().copy_from_slice(&input);
        infer.input_mut().as_mut_slice().copy_from_slice(&input);
        let labels: Vec<usize> = (0..8).map(|i| i % 4).collect();
        train.set_labels(&labels);
        infer.set_labels(&labels);
        let st = train.forward();
        let si = infer.forward();
        assert_eq!(st.loss, si.loss, "losses must agree bit-for-bit");
        assert_eq!(st.top1, si.top1);
        assert_eq!(train.probabilities(), infer.probabilities());
    }

    #[test]
    fn bn_graph_inference_is_batch_composition_independent() {
        // the ROADMAP item this PR closes: serving a bn-graph sample
        // must give identical bits whether it shares the batch with
        // zeros or with other live samples
        let nl = residual_bn_spec();
        let cache = PlanCache::new();
        let pool = Arc::new(ThreadPool::new(2));
        let mut infer =
            Network::build_with(&nl, 4, Arc::clone(&pool), inference(), &cache).unwrap();
        let (c, h, w) = infer.input_dims();
        let mut rng = SplitMix64::new(17);
        let mut samples = vec![0.0f32; 4 * c * h * w];
        rng.fill_f32(&mut samples);
        // full batch
        infer.load_input_nchw(&samples, 4);
        infer.forward();
        let kpad = infer.probabilities().len() / 4;
        let full_row0 = infer.probabilities()[..kpad].to_vec();
        // sample 0 alone, rest of the batch zero-padded
        infer.load_input_nchw(&samples[..c * h * w], 1);
        infer.forward();
        let alone_row0 = infer.probabilities()[..kpad].to_vec();
        assert_eq!(full_row0, alone_row0, "frozen stats must decouple co-batched samples");
    }

    #[test]
    #[should_panic(expected = "Training-mode network")]
    fn inference_network_rejects_train_step() {
        let mut infer = Network::build_with(
            &small_cnn(),
            2,
            Arc::new(ThreadPool::new(1)),
            inference(),
            &PlanCache::new(),
        )
        .unwrap();
        infer.train_step(&[0, 1], 0.1, 0.9);
    }

    #[test]
    fn bn_running_stats_accumulate_in_training_only() {
        let spec = parse_topology(
            "input name=data c=16 h=8 w=8\n\
             conv name=c0 bottom=data k=16\n\
             bn name=b0 bottom=c0 relu=1\n\
             gap name=g bottom=b0\n\
             fc name=logits bottom=g k=4\n\
             softmaxloss name=loss bottom=logits\n",
        )
        .unwrap();
        let mean_of = |net: &Network| -> Vec<f32> {
            net.state_dict().get("b0.running_mean").unwrap().data.clone()
        };
        let mut train = Network::build(&spec, 2, 1).unwrap();
        let mut rng = SplitMix64::new(5);
        rng.fill_f32(train.input_mut().as_mut_slice());
        assert!(mean_of(&train).iter().all(|&m| m == 0.0), "fresh stats start at 0");
        train.forward();
        let after_one = mean_of(&train);
        assert!(after_one.iter().any(|&m| m != 0.0), "training forward must accumulate");
        train.forward();
        assert_ne!(mean_of(&train), after_one, "EMA keeps moving");
        // inference-mode forwards leave the stats frozen
        let cache = PlanCache::new();
        let pool = Arc::new(ThreadPool::new(1));
        let mut infer = Network::build_with(&spec, 2, pool, inference(), &cache).unwrap();
        rng.fill_f32(infer.input_mut().as_mut_slice());
        infer.forward();
        assert!(mean_of(&infer).iter().all(|&m| m == 0.0), "inference must not accumulate");
    }

    /// Graph A lets node `y` (a `kind` node) add its own bottom `p` as
    /// the residual; graph B routes the same residual through an
    /// identity max-pool. Both compute the same function.
    fn self_residual_pair(kind: &str) -> [ModelSpec; 2] {
        let graph = |identity: &str, residual: &str| {
            parse_topology(&format!(
                "input name=data c=16 h=8 w=8\n\
                 conv name=c0 bottom=data k=16\n\
                 bn name=p bottom=c0 relu=1\n\
                 {identity}\
                 {kind} name=y bottom=p eltwise={residual} relu=1\n\
                 gap name=g bottom=y\n\
                 fc name=logits bottom=g k=4\n\
                 softmaxloss name=loss bottom=logits\n"
            ))
            .unwrap()
        };
        [graph("", "p"), graph("pool name=id bottom=p kind=max size=1 stride=1\n", "id")]
    }

    #[test]
    fn a_residual_aliasing_the_bottom_is_added_not_dropped() {
        let mut input = vec![0.0f32; 2 * 16 * 8 * 8];
        SplitMix64::new(37).fill_f32(&mut input);
        for kind in ["bn", "conv k=16"] {
            let [a, b] = self_residual_pair(kind);
            for mode in [ExecMode::Training, inference(), unfused()] {
                let pool = Arc::new(ThreadPool::new(2));
                let cache = PlanCache::new();
                let [pa, pb] = [&a, &b].map(|spec| {
                    let mut net =
                        Network::build_with(spec, 2, Arc::clone(&pool), mode, &cache).unwrap();
                    net.load_input_nchw(&input, 2);
                    net.forward();
                    net.probabilities().to_vec()
                });
                assert_eq!(pa, pb, "{kind} {mode:?}: forward must add the residual");
            }
            let [sa, sb] = [&a, &b].map(|spec| {
                let mut net = Network::build(spec, 2, 2).unwrap();
                net.load_input_nchw(&input, 2);
                net.train_step(&[0, 1], 0.1, 0.0);
                net.state_dict()
            });
            for (name, ea) in sa.iter() {
                let eb = &sb.get(name).expect("same parameters").data;
                let diff = ea.data.iter().zip(eb).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max);
                assert!(diff <= 1e-5, "{kind}: '{name}' differs by {diff} after one step");
            }
        }
    }
}
