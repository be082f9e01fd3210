//! Typed model API acceptance tests:
//!
//! * property: randomly assembled `GraphBuilder` models round-trip
//!   `spec → text → spec` losslessly (and the text emission is
//!   idempotent);
//! * property: `StateDict → bytes → StateDict` is bit-exact for
//!   arbitrary tensor inventories;
//! * parser rejection paths carry line numbers (duplicate names,
//!   dangling `bottom` refs) and construction paths return typed
//!   `Error`s — zero panics on malformed input;
//! * the headline round trip: a ResNet-sized bn-graph trained for a
//!   few steps, saved, reloaded into (frozen-stats, BN-folded)
//!   `InferenceSession`s — deterministic bit-identical serving that
//!   tracks the unfused frozen-stats reference forward.

use anatomy::gxm::{data::SyntheticData, Network};
use anatomy::serve::{BatchingFrontend, ServeConfig};
use anatomy::{ConvOpts, Error, GraphBuilder, InferenceSession, ModelSpec, Precision, StateDict};
use proptest::prelude::*;

/// Assemble a small but structurally varied model from random draws:
/// a conv trunk with optional bias/relu/pooling, an optional residual
/// join, and an optional two-branch concat.
#[allow(clippy::too_many_arguments)]
fn random_model(
    c_in: usize,
    hw: usize,
    trunk: usize,
    spatial: bool,
    bias: bool,
    relu: bool,
    residual: bool,
    branch: bool,
    pool_avg: bool,
    seed: u64,
) -> ModelSpec {
    let mut g = GraphBuilder::new().seed(seed).input("data", c_in, hw, hw);
    let mut last = "data".to_string();
    for i in 0..trunk {
        let name = format!("t{i}");
        let mut o = ConvOpts::k(16);
        if spatial {
            o = o.rs(3).pad(1);
        }
        if bias {
            o = o.bias();
        }
        if relu {
            o = o.relu();
        }
        // convs with physical input padding must not read a conv
        // output directly — interleave bn nodes exactly like the real
        // topologies do
        if spatial && i > 0 {
            g = g.bn_relu(&format!("t{i}bn"));
        }
        g = g.conv(&name, o);
        last = name;
    }
    if residual {
        g = g.bn("rbn0");
        g = g.conv("rc", ConvOpts::k(16)).bn_join("rbn", "rbn0", true);
        last = "rbn".to_string();
    }
    if branch {
        g = g
            .from(&last)
            .conv("ba", ConvOpts::k(8))
            .from(&last)
            .conv("bb", ConvOpts::k(8))
            .concat("mix", &["ba", "bb"]);
        last = "mix".to_string();
    }
    if pool_avg {
        g = g.from(&last).avg_pool("pp", 2, 2, 0);
    } else {
        g = g.from(&last).max_pool("pp", 2, 2, 0);
    }
    g.gap("g").fc("logits", 7).softmax("loss").build().expect("generated model is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn spec_to_text_to_spec_is_lossless(
        c_in in 1usize..20,
        hw in 6usize..12,
        trunk in 1usize..4,
        spatial in any::<bool>(),
        bias in any::<bool>(),
        relu in any::<bool>(),
        residual in any::<bool>(),
        branch in any::<bool>(),
        pool_avg in any::<bool>(),
        seed in 0u64..1_000_000,
    ) {
        let spec = random_model(c_in, hw, trunk, spatial, bias, relu, residual, branch, pool_avg, seed);
        let text = spec.to_text();
        let reparsed = ModelSpec::parse(&text).expect("emitted text parses");
        prop_assert_eq!(&spec, &reparsed, "text round trip must be lossless");
        prop_assert_eq!(text, reparsed.to_text(), "emission must be idempotent");
    }

    #[test]
    fn state_dict_bytes_round_trip_is_bit_exact(
        tensors in 1usize..6,
        dims0 in 1usize..5,
        dims1 in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = anatomy::tensor::rng::SplitMix64::new(seed);
        let mut sd = StateDict::new();
        for t in 0..tensors {
            let dims = if t % 2 == 0 { vec![dims0, dims1] } else { vec![dims0, dims1, 3] };
            let mut data = vec![0.0f32; dims.iter().product()];
            rng.fill_f32(&mut data);
            sd.insert(&format!("layer{t}.weight"), dims, data).unwrap();
        }
        let rt = StateDict::from_bytes(&sd.to_bytes()).expect("own bytes parse");
        // compare raw bits, not float equality
        for (name, e) in sd.iter() {
            let r = rt.get(name).expect("entry survives");
            prop_assert_eq!(&e.dims, &r.dims);
            let a: Vec<u32> = e.data.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = r.data.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(a, b, "bit-exact payload");
        }
        prop_assert_eq!(sd.len(), rt.len());
    }
}

#[test]
fn parser_rejections_carry_line_numbers() {
    // duplicate name on line 3
    let e = ModelSpec::parse(
        "input name=d c=3 h=4 w=4\nconv name=c bottom=d k=8\nconv name=c bottom=d k=8\n",
    )
    .unwrap_err();
    match e {
        Error::Graph { node, line, message } => {
            assert_eq!(node, "c");
            assert_eq!(line, Some(3));
            assert!(message.contains("duplicate"), "{message}");
        }
        other => panic!("expected Graph error, got {other:?}"),
    }
    // dangling bottom on line 2 (comments/blanks preserved in count)
    let e =
        ModelSpec::parse("input name=d c=3 h=4 w=4\nconv name=c bottom=ghost k=8\n").unwrap_err();
    match e {
        Error::Graph { node, line, message } => {
            assert_eq!(node, "c");
            assert_eq!(line, Some(2));
            assert!(message.contains("undefined blob 'ghost'"), "{message}");
        }
        other => panic!("expected Graph error, got {other:?}"),
    }
    // token soup is a Parse error with the line
    let e = ModelSpec::parse("input name=d c=3 h=4 w=4\nwat is=this\n").unwrap_err();
    assert!(matches!(e, Error::Parse { line: 2, .. }), "{e:?}");
}

#[test]
fn construction_paths_are_typed_errors_not_panics() {
    // facade constructors on malformed text
    assert!(matches!(
        InferenceSession::new("conv name=c bottom=x k=4\n", 1, 1),
        Err(Error::Graph { .. })
    ));
    // shape violation (filter larger than input)
    let e = InferenceSession::new(
        "input name=d c=3 h=4 w=4\nconv name=c bottom=d k=8 r=9 s=9\n\
         gap name=g bottom=c\nfc name=f bottom=g k=2\nsoftmaxloss name=l bottom=f\n",
        1,
        1,
    );
    assert!(matches!(e, Err(Error::Shape { .. })));
    // bias + eltwise is executable now (BiasEltwise fused variant) —
    // but a shape-mismatched eltwise is still a typed error
    let e = ModelSpec::parse(
        "input name=d c=16 h=4 w=4\nconv name=a bottom=d k=16\nconv name=b bottom=a k=8\n\
         conv name=c bottom=b k=16 bias=1 eltwise=b\n\
         gap name=g bottom=c\nfc name=f bottom=g k=2\nsoftmaxloss name=l bottom=f\n",
    );
    assert!(matches!(e, Err(Error::Shape { .. })));
    // degenerate runtime parameters
    let ok = "input name=d c=3 h=4 w=4\ngap name=g bottom=d\nfc name=f bottom=g k=2\n\
              softmaxloss name=l bottom=f\n";
    assert!(matches!(InferenceSession::new(ok, 0, 1), Err(Error::BadInput(_))));
    assert!(matches!(InferenceSession::new(ok, 1, 0), Err(Error::BadInput(_))));
    assert!(matches!(
        BatchingFrontend::new(ok, ServeConfig::new(0, 1, 1)),
        Err(Error::BadInput(_))
    ));
    // an admission cap below one batch could never form a full batch
    assert!(matches!(
        BatchingFrontend::new(ok, ServeConfig::new(1, 1, 4).with_queue_cap(3)),
        Err(Error::BadInput(_))
    ));
    // int8 calibration must hold whole samples (3 × 4 × 4 = 48 f32s)
    let ragged = ServeConfig::new(1, 1, 1)
        .with_pinning(false)
        .with_precision(Precision::Int8)
        .with_calibration(vec![0.5; 47]);
    assert!(matches!(BatchingFrontend::new(ok, ragged), Err(Error::BadInput(_))));
}

#[test]
fn run_paths_validate_input_lengths() {
    let ok = "input name=d c=3 h=4 w=4\nconv name=c bottom=d k=8 relu=1\ngap name=g bottom=c\n\
              fc name=f bottom=g k=2\nsoftmaxloss name=l bottom=f\n";
    let mut session = InferenceSession::new(ok, 2, 1).unwrap();
    let sample = session.sample_elems();
    // short batch, long batch, bad counts — all typed errors
    assert!(matches!(session.run(&vec![0.0; sample]), Err(Error::BadInput(_))));
    assert!(matches!(session.run(&vec![0.0; 3 * sample]), Err(Error::BadInput(_))));
    assert!(matches!(session.run_samples(&[], 0), Err(Error::BadInput(_))));
    assert!(matches!(session.run_samples(&vec![0.0; 3 * sample], 3), Err(Error::BadInput(_))));
    assert!(matches!(session.run_samples(&vec![0.0; sample + 1], 1), Err(Error::BadInput(_))));
    // and the good path still serves
    assert_eq!(session.run(&vec![0.1; 2 * sample]).unwrap().top1.len(), 2);

    let frontend = BatchingFrontend::new(ok, ServeConfig::new(1, 1, 2)).unwrap();
    assert!(matches!(frontend.submit(&[]), Err(Error::BadInput(_))));
    assert!(matches!(frontend.submit(&vec![0.0; sample + 1]), Err(Error::BadInput(_))));
    let out = frontend.infer(&vec![0.2; sample]).unwrap();
    assert_eq!(out.top1.len(), 1);
    frontend.shutdown();
}

/// The acceptance criterion: a ResNet-sized bn-graph trained for a
/// few steps, saved via `StateDict`, reloaded into (fused, frozen
/// stats) `InferenceSession`s — two independent sessions serve
/// bit-identically, the fused executor tracks the unfused
/// frozen-stats reference forward, and distinct weights produce
/// distinct outputs.
#[test]
fn resnet_train_save_load_serve_is_deterministic_and_frozen() {
    let minibatch = 2;
    let classes = 10;
    let model = anatomy::topologies::resnet50_model(32, classes).with_seed(77);

    let mut net = Network::build(&model, minibatch, 4).expect("valid model");
    let mut data = SyntheticData::new(classes, 3, 32, 32, 3);
    for _ in 0..2 {
        let labels = data.next_batch(net.input_mut());
        let s = net.train_step(&labels, 0.002, 0.9);
        assert!(s.loss.is_finite());
    }
    // calibrate the BN running statistics to the trained weights
    // (training-mode forwards accumulate the EMAs without SGD) —
    // frozen-stats serving needs statistics that describe the
    // weights actually being served
    for _ in 0..10 {
        data.next_batch(net.input_mut());
        net.forward();
    }

    // save through the real binary format
    let path = std::env::temp_dir().join("anatomy_resnet_roundtrip.anat");
    net.state_dict().save(&path).expect("saves");
    let sd = StateDict::load(&path).expect("loads");
    std::fs::remove_file(&path).ok();

    let probe: Vec<f32> = {
        let mut rng = anatomy::tensor::rng::SplitMix64::new(404);
        let mut v = vec![0.0f32; minibatch * 3 * 32 * 32];
        rng.fill_f32(&mut v);
        v
    };

    // two independent fused sessions serving the same dict must be
    // bit-identical (serving is deterministic in the weights alone)
    let mut session = InferenceSession::new(&model, minibatch, 4).expect("valid model");
    session.load_state_dict(&sd).expect("dict matches");
    let net_ref = session.network();
    assert!(net_ref.folded_bn_count() > 0, "ResNet-50 must fold BNs in inference");
    let served = session.run(&probe).expect("probe sized to session");
    let mut twin = InferenceSession::new(&model, minibatch, 4).expect("valid model");
    twin.load_state_dict(&sd).expect("dict matches");
    let served2 = twin.run(&probe).expect("probe sized to session");
    let a: Vec<u32> = served.probs.iter().map(|v| v.to_bits()).collect();
    let b: Vec<u32> = served2.probs.iter().map(|v| v.to_bits()).collect();
    assert_eq!(a, b, "independent sessions must serve the identical bits");

    // the fused executor tracks the unfused frozen-stats reference
    let mut reference = InferenceSession::new_unfused(&model, minibatch, 4).expect("valid model");
    assert_eq!(reference.network().folded_bn_count(), 0);
    reference.load_state_dict(&sd).expect("dict matches");
    let want = reference.run(&probe).expect("probe sized to session");
    assert_eq!(served.top1, want.top1, "fused and unfused top-1 must agree");
    let n = anatomy::tensor::Norms::compare(&want.probs, &served.probs);
    assert!(n.ok(1e-4), "fused vs unfused frozen-stats reference: {n}");

    // a fresh (differently seeded) un-loaded session must NOT match —
    // the equality above is the weights, not the architecture
    let mut fresh = InferenceSession::new(model.clone().with_seed(123456), minibatch, 4).unwrap();
    let other = fresh.run(&probe).expect("probe sized to session");
    assert_ne!(other.probs, served.probs, "distinct weights must produce distinct outputs");
}
