//! End-to-end frozen-stats serving acceptance: train a bn-graph, save
//! it through `StateDict`, serve it through the `BatchingFrontend`,
//! and assert the property this PR exists for — a bn-graph
//! prediction no longer depends on batch composition. The same image
//! served alone (zero-padded partial batch) and coalesced into a full
//! batch of other live images must produce **bit-identical**
//! probabilities.

use anatomy::conv::PlanCache;
use anatomy::gxm::Network;
use anatomy::serve::{BatchingFrontend, ServeConfig};
use anatomy::tensor::rng::SplitMix64;
use anatomy::{InferenceSession, ModelSpec};
use std::time::Duration;

/// A trainable residual bn-graph: conv→bn chains, a shortcut join,
/// and a pooling stage (so both folded and frozen-standalone BN
/// execution paths serve traffic).
fn bn_model() -> ModelSpec {
    anatomy::gxm::parse_topology(
        "input name=data c=8 h=8 w=8\n\
         conv name=c0 bottom=data k=16\n\
         bn name=b0 bottom=c0 relu=1\n\
         conv name=c1 bottom=b0 k=16\n\
         bn name=b1 bottom=c1 relu=1\n\
         conv name=c2 bottom=b1 k=16\n\
         bn name=b2 bottom=c2 eltwise=b0 relu=1\n\
         pool name=p bottom=b2 kind=max size=2 stride=2\n\
         conv name=c3 bottom=p k=16\n\
         bn name=b3 bottom=c3 relu=1\n\
         gap name=g bottom=b3\n\
         fc name=logits bottom=g k=5\n\
         softmaxloss name=loss bottom=logits\n",
    )
    .unwrap()
    .with_seed(41)
}

const SAMPLE: usize = 8 * 8 * 8;

#[test]
fn trained_bn_graph_served_alone_or_coalesced_is_bit_identical() {
    let model = bn_model();
    // really train it (stable on a shallow graph): weights move, loss
    // falls, running statistics accumulate
    let mut net = Network::build(&model, 4, 2).unwrap();
    let mut rng = SplitMix64::new(7);
    let mut input = vec![0.0f32; net.input_mut().as_slice().len()];
    rng.fill_f32(&mut input);
    let labels = vec![0usize, 1, 2, 3];
    let mut first = f32::NAN;
    let mut last = f32::NAN;
    for step in 0..25 {
        net.input_mut().as_mut_slice().copy_from_slice(&input);
        let s = net.train_step(&labels, 0.05, 0.9);
        if step == 0 {
            first = s.loss;
        }
        last = s.loss;
    }
    assert!(last < first, "training must make progress: {first} -> {last}");
    let sd = net.state_dict();

    // serve the trained weights through the batching frontend
    let minibatch = 4;
    let cfg = ServeConfig::new(1, 2, minibatch)
        .with_max_wait(Duration::from_millis(1))
        .with_pinning(false);
    let frontend =
        BatchingFrontend::with_cache_and_weights(&model, cfg, PlanCache::new(), Some(&sd)).unwrap();

    let mut images = vec![0.0f32; minibatch * SAMPLE];
    rng.fill_f32(&mut images);

    // one request carrying the whole batch: every sample coalesced
    let full = frontend.infer(&images).unwrap();
    // each sample submitted alone: served from a zero-padded partial
    // batch — with frozen statistics the bits must not change
    let classes = frontend.classes();
    for n in 0..minibatch {
        let lone = frontend.infer(&images[n * SAMPLE..(n + 1) * SAMPLE]).unwrap();
        let lone_bits: Vec<u32> = lone.probs.iter().map(|v| v.to_bits()).collect();
        let full_bits: Vec<u32> =
            full.probs[n * classes..(n + 1) * classes].iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            lone_bits, full_bits,
            "sample {n}: bn-graph prediction must be batch-composition-independent"
        );
        assert_eq!(lone.top1[0], full.top1[n]);
    }
    frontend.shutdown();
}

#[test]
fn served_bn_graph_folds_and_tracks_unfused_reference() {
    let model = bn_model();
    let mut net = Network::build(&model, 4, 2).unwrap();
    let mut rng = SplitMix64::new(8);
    let mut input = vec![0.0f32; net.input_mut().as_slice().len()];
    rng.fill_f32(&mut input);
    for _ in 0..10 {
        net.input_mut().as_mut_slice().copy_from_slice(&input);
        net.train_step(&[0, 1, 2, 3], 0.05, 0.9);
    }
    let sd = net.state_dict();

    let mut fused = InferenceSession::new(&model, 4, 2).unwrap();
    fused.load_state_dict(&sd).unwrap();
    // b0/b1/b2/b3 sit on pure convs; every geometry here is pad-0, so
    // all four fold (the join as BiasEltwiseRelu)
    assert_eq!(fused.network().bn_node_count(), 4);
    assert_eq!(fused.network().folded_bn_count(), 4);

    let mut unfused = InferenceSession::new_unfused(&model, 4, 2).unwrap();
    unfused.load_state_dict(&sd).unwrap();
    assert_eq!(unfused.network().folded_bn_count(), 0);

    let mut images = vec![0.0f32; 4 * SAMPLE];
    rng.fill_f32(&mut images);
    let a = fused.run(&images).unwrap();
    let b = unfused.run(&images).unwrap();
    assert_eq!(a.top1, b.top1);
    let n = anatomy::tensor::Norms::compare(&b.probs, &a.probs);
    assert!(n.ok(1e-4), "fused serving vs unfused frozen reference: {n}");
}
