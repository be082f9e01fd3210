//! The full train → save → load → serve round trip:
//!
//! 1. build a ResNet-50 (reduced resolution) through the typed
//!    `ModelSpec` API with an explicit weight-init seed,
//! 2. train it for a few SGD steps on synthetic data and calibrate
//!    the BN running statistics (training-mode forwards accumulate
//!    the EMAs the frozen-stats serving path consumes),
//! 3. export the trained parameters (plus BN running statistics) as a
//!    `StateDict` and save them to a versioned binary file,
//! 4. reload the file into a forward-only `InferenceSession` *and* a
//!    batching frontend: the inference executor folds every BN into
//!    its producer convolution, the fused outputs track the unfused
//!    frozen-stats reference, and — because frozen statistics make
//!    bn-graph predictions batch-composition-independent — a lone
//!    sample reproduces its whole-batch bits exactly.
//!
//! ```sh
//! cargo run --release --example save_load_serve -- [--hw 32] [--steps 2] [--out model.anat]
//! ```

use anatomy::conv::PlanCache;
use anatomy::gxm::data::SyntheticData;
use anatomy::gxm::Network;
use anatomy::serve::{BatchingFrontend, ServeConfig};
use anatomy::{InferenceSession, StateDict};
use std::time::Duration;

fn arg(key: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let hw = arg("--hw", 32);
    let steps = arg("--steps", 2);
    let minibatch = arg("--minibatch", 2);
    let threads = arg("--threads", anatomy::parallel::hardware_threads().min(4));
    let out = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| "model.anat".to_string())
    };
    let classes = 10;

    // 1. typed model with an explicit seed
    let model = anatomy::topologies::resnet50_model(hw, classes).with_seed(2024);
    println!("ResNet-50 @ {hw}x{hw}: training {steps} step(s), minibatch {minibatch}");

    // 2. a few training steps
    let mut net = Network::build(&model, minibatch, threads).expect("valid model");
    let mut data = SyntheticData::new(classes, 3, hw, hw, 11);
    for step in 0..steps {
        let labels = data.next_batch(net.input_mut());
        let s = net.train_step(&labels, 0.002, 0.9);
        println!("step {step}: loss {:.4} top-1 {:.2}", s.loss, s.top1);
    }

    // 3. export + save
    // calibrate the BN running statistics to the trained weights:
    // training-mode forwards accumulate the EMAs without SGD, so the
    // frozen-stats serving path normalizes with statistics that
    // describe the weights actually being served
    for _ in 0..10 {
        data.next_batch(net.input_mut());
        net.forward();
    }
    let sd = net.state_dict();
    sd.save(&out).expect("state dict saves");
    let bytes = std::fs::metadata(&out).expect("saved file exists").len();
    println!("saved {} tensors ({} values, {bytes} bytes) to {out}", sd.len(), sd.value_count());

    let (c, h, w) = net.input_dims();
    let probe: Vec<f32> = {
        let mut rng = anatomy::tensor::rng::SplitMix64::new(404);
        let mut v = vec![0.0f32; minibatch * c * h * w];
        rng.fill_f32(&mut v);
        v
    };

    // 4a. reload into a forward-only session — the inference executor
    // folds every BN's frozen statistics into its producer conv
    let reloaded = StateDict::load(&out).expect("state dict loads");
    let mut session = InferenceSession::new(&model, minibatch, threads).expect("valid model");
    session.load_state_dict(&reloaded).expect("dict matches the model");
    let netref = session.network();
    println!(
        "BN fusion: {}/{} bn nodes folded into their convs",
        netref.folded_bn_count(),
        netref.bn_node_count()
    );
    let served = session.run(&probe).expect("probe batch sized to the session");

    // the fused executor tracks the unfused frozen-stats reference
    let mut reference =
        InferenceSession::new_unfused(&model, minibatch, threads).expect("valid model");
    reference.load_state_dict(&reloaded).expect("dict matches the model");
    let want = reference.run(&probe).expect("probe batch sized to the session");
    assert_eq!(served.top1, want.top1, "fused and unfused frozen-stats top-1 must agree");
    let norms = anatomy::tensor::Norms::compare(&want.probs, &served.probs);
    assert!(norms.ok(1e-4), "fused vs unfused frozen-stats reference: {norms}");
    println!("InferenceSession: frozen-stats parity OK (top-1 {:?})", served.top1);

    // 4b. and through the batching frontend: frozen statistics make
    // bn-graph predictions batch-composition-independent, so even the
    // samples of this request served one by one (each padded into its
    // own partial batch) reproduce the whole-batch bits
    let cfg = ServeConfig::new(1, threads, minibatch)
        .with_max_wait(Duration::from_millis(1))
        .with_pinning(false);
    let frontend =
        BatchingFrontend::with_cache_and_weights(&model, cfg, PlanCache::new(), Some(&reloaded))
            .expect("valid model");
    let out2 = frontend.infer(&probe).expect("pipeline alive");
    assert_eq!(out2.probs, served.probs, "frontend must serve the same trained weights");
    let sample = c * h * w;
    let lone = frontend.infer(&probe[..sample]).expect("pipeline alive");
    assert_eq!(
        lone.probs,
        served.probs[..frontend.classes()],
        "a lone sample must reproduce its whole-batch bits (frozen stats)"
    );
    frontend.shutdown();
    println!("BatchingFrontend: bit-exact OK (batch-composition-independent)");
    println!("train -> save -> load -> serve round trip complete");
}
