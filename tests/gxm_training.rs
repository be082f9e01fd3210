//! Cross-crate integration: full graph training with GxM on real
//! topologies, plus the multi-node semantic equivalence check.

use anatomy::gxm::data::SyntheticData;
use anatomy::gxm::multinode::allreduce_gradients;
use anatomy::gxm::{parse_topology, Network, NodeSpec};

#[test]
fn resnet50_graph_builds_and_trains() {
    // the real ResNet-50 graph (all 53 convs) at reduced resolution
    let text = anatomy::topologies::resnet50_topology(32, 10);
    let nl = parse_topology(&text).unwrap();
    let mut net = Network::build(&nl, 2, 4).unwrap();
    // the ResNet-50 count with a 10-class head: logical parameters,
    // no SIMD lane padding of the FC
    assert_eq!(net.param_count(), 23_528_522);
    let mut data = SyntheticData::new(10, 3, 32, 32, 5);
    let mut losses = Vec::new();
    for _ in 0..3 {
        let labels = data.next_batch(net.input_mut());
        let s = net.train_step(&labels, 0.002, 0.9);
        assert!(s.loss.is_finite(), "loss diverged");
        losses.push(s.loss);
    }
}

#[test]
fn inception_block_trains_through_concat() {
    let text = anatomy::topologies::inception_v3_topology(10);
    let nl = parse_topology(&text).unwrap();
    // graph contains split + concat machinery
    let mut net = Network::build(&nl, 2, 4).unwrap();
    assert!(net.etg().eng.nodes.iter().any(|n| matches!(n, NodeSpec::Split { .. })));
    let mut data = SyntheticData::new(10, 3, 147, 147, 6);
    let labels = data.next_batch(net.input_mut());
    let s = net.train_step(&labels, 0.01, 0.9);
    assert!(s.loss.is_finite());
}

#[test]
fn memorization_on_fixed_batch() {
    // a network must be able to drive training loss toward zero on a
    // single repeated batch — end-to-end gradient correctness
    let text = "input name=data c=16 h=8 w=8\n\
                conv name=c1 bottom=data k=32 r=3 s=3 pad=1 bias=1 relu=1\n\
                conv name=c2 bottom=c1 k=32 bias=1 relu=1\n\
                gap name=g bottom=c2\n\
                fc name=logits bottom=g k=16\n\
                softmaxloss name=loss bottom=logits\n";
    let nl = parse_topology(text).unwrap();
    let mut net = Network::build(&nl, 8, 4).unwrap();
    let mut data = SyntheticData::new(4, 16, 8, 8, 9);
    let labels = data.next_batch(net.input_mut());
    let input: Vec<f32> = net.input_mut().as_slice().to_vec();
    let mut final_stats = None;
    for _ in 0..150 {
        net.input_mut().as_mut_slice().copy_from_slice(&input);
        final_stats = Some(net.train_step(&labels, 0.05, 0.9));
    }
    let s = final_stats.unwrap();
    assert!(s.top1 >= 0.9, "did not memorize: top1 {}", s.top1);
    assert!(s.loss < 0.6, "loss too high: {}", s.loss);
}

#[test]
fn data_parallel_allreduce_is_average() {
    // semantic core of Fig. 9's data parallelism: averaged shard
    // gradients equal the large-batch gradient (here on raw vectors;
    // the network-level equivalence follows from gradient linearity)
    let g1: Vec<f32> = (0..64).map(|i| i as f32).collect();
    let g2: Vec<f32> = (0..64).map(|i| (63 - i) as f32).collect();
    let mut shards = vec![g1.clone(), g2.clone()];
    allreduce_gradients(&mut shards);
    for i in 0..64 {
        let want = (g1[i] + g2[i]) / 2.0;
        assert_eq!(shards[0][i], want);
        assert_eq!(shards[1][i], want);
    }
}
