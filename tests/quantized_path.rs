//! Tier-1 end-to-end f32-vs-int8 parity: train a small bn-network,
//! serve the trained weights at both precisions — through the
//! [`BatchingFrontend`] exactly as a client would — and require the
//! quantized path to agree with the f32 oracle (same top-1, bounded
//! probability drift), plus the determinism the serving layer
//! documents: an int8 single-image submit is bit-identical to the
//! same sample inside a full batch.

use anatomy::conv::PlanCache;
use anatomy::gxm::{parse_topology, ExecMode, ModelSpec, Network};
use anatomy::serve::{BatchingFrontend, ServeConfig};
use anatomy::tensor::rng::SplitMix64;
use anatomy::tensor::Norms;
use anatomy::{InferenceSession, Precision, StateDict, TuneLevel};
use std::sync::Arc;
use std::time::Duration;

const MB: usize = 4;

/// A residual bn-graph with a non-lane-multiple input (c=3): c0 feeds
/// from the raw input (range known only by convention), c1/c2 from
/// folded BNs, and b2 carries the eltwise residual — together the
/// derivable, calibrated and fallback quantization boundaries.
fn spec() -> ModelSpec {
    parse_topology(
        "input name=data c=3 h=8 w=8\n\
         conv name=c0 bottom=data k=16\n\
         bn name=b0 bottom=c0 relu=1\n\
         conv name=c1 bottom=b0 k=16 r=3 s=3 pad=1\n\
         bn name=b1 bottom=c1 relu=1\n\
         conv name=c2 bottom=b1 k=16 r=3 s=3 pad=1\n\
         bn name=b2 bottom=c2 eltwise=b0 relu=1\n\
         gap name=g bottom=b2\n\
         fc name=logits bottom=g k=8\n\
         softmaxloss name=loss bottom=logits\n",
    )
    .unwrap()
}

/// Train the spec for a few steps so weights, BN running statistics
/// and class preferences are all non-trivial, and return the dict
/// plus a held-out evaluation batch.
fn train() -> (StateDict, Vec<f32>) {
    let pool = Arc::new(anatomy::parallel::ThreadPool::new(2));
    let cache = anatomy::conv::PlanCache::new();
    let nl = spec();
    let mut net = Network::build_with(&nl, MB, pool, ExecMode::Training, &cache).unwrap();
    let mut rng = SplitMix64::new(97);
    let mut input = vec![0.0f32; MB * 3 * 8 * 8];
    let labels: Vec<usize> = (0..MB).collect();
    for _ in 0..6 {
        rng.fill_f32(&mut input);
        net.load_input_nchw(&input, MB);
        net.train_step(&labels, 0.05, 0.9);
    }
    let mut eval = vec![0.0f32; input.len()];
    SplitMix64::new(1234).fill_f32(&mut eval);
    (net.state_dict(), eval)
}

fn frontend(sd: &StateDict, precision: Precision, calib: &[f32]) -> BatchingFrontend {
    let mut cfg = ServeConfig::new(1, 2, MB)
        .with_max_wait(Duration::from_millis(1))
        .with_pinning(false)
        .with_precision(precision);
    if precision == Precision::Int8 {
        cfg = cfg.with_calibration(calib.to_vec());
    }
    BatchingFrontend::with_cache_and_weights(spec(), cfg, PlanCache::new(), Some(sd)).unwrap()
}

#[test]
fn served_int8_agrees_with_served_f32() {
    let (sd, eval) = train();
    // calibrate on a batch drawn from the training distribution, not
    // the evaluation batch — the scales must generalize
    let mut calib = vec![0.0f32; eval.len()];
    SplitMix64::new(555).fill_f32(&mut calib);

    let f32_fe = frontend(&sd, Precision::F32, &calib);
    let int8_fe = frontend(&sd, Precision::Int8, &calib);
    assert_eq!(f32_fe.precision(), Precision::F32);
    assert_eq!(int8_fe.precision(), Precision::Int8);

    let of = f32_fe.infer(&eval).unwrap();
    let oq = int8_fe.infer(&eval).unwrap();
    assert_eq!(of.top1.len(), MB);
    assert_eq!(
        of.top1, oq.top1,
        "trained-net top-1 predictions must survive quantization\nf32 probs: {:?}\nint8 probs: {:?}",
        of.probs, oq.probs
    );
    let n = Norms::compare(&of.probs, &oq.probs);
    assert!(n.ok(0.05), "int8 probability drift exceeds 5% relative L2: {n}");

    f32_fe.shutdown();
    int8_fe.shutdown();
}

#[test]
fn int8_single_image_is_bit_identical_to_its_batch_slot() {
    let (sd, eval) = train();
    let mut calib = vec![0.0f32; eval.len()];
    SplitMix64::new(555).fill_f32(&mut calib);

    // direct session: one full batch vs each sample alone — the batch
    // dimension is the outermost loop of every kernel and per-channel
    // quantization is per-sample, so results must match bit for bit
    let pool = Arc::new(anatomy::parallel::ThreadPool::new(2));
    let cache = anatomy::conv::PlanCache::new();
    let mut session = InferenceSession::with_shared_quantized(
        spec(),
        MB,
        pool,
        cache,
        TuneLevel::Heuristic,
        Precision::Int8,
    )
    .unwrap();
    session.load_state_dict(&sd).unwrap();
    session.calibrate(&calib, MB).unwrap();
    assert_eq!(session.precision(), Precision::Int8);
    assert_eq!(
        session.quantized_conv_count(),
        session.conv_node_count(),
        "calibration must put every conv of the bn-graph on the int8 path"
    );

    let se = session.sample_elems();
    let classes = session.classes();
    let batch = session.run(&eval).unwrap();
    for i in 0..MB {
        let one = session.run_samples(&eval[i * se..(i + 1) * se], 1).unwrap();
        assert_eq!(one.top1[0], batch.top1[i], "sample {i}");
        let batch_bits: Vec<u32> =
            batch.probs[i * classes..(i + 1) * classes].iter().map(|p| p.to_bits()).collect();
        let one_bits: Vec<u32> = one.probs.iter().map(|p| p.to_bits()).collect();
        assert_eq!(one_bits, batch_bits, "sample {i}: single-image run drifted from batch slot");
    }

    // and through the frontend: a lone deadline-flushed submit lands
    // in a padded batch yet returns the same bits as the direct run
    let fe = frontend(&sd, Precision::Int8, &calib);
    for i in 0..MB {
        let served = fe.infer(&eval[i * se..(i + 1) * se]).unwrap();
        let direct = session.run_samples(&eval[i * se..(i + 1) * se], 1).unwrap();
        let a: Vec<u32> = served.probs.iter().map(|p| p.to_bits()).collect();
        let b: Vec<u32> = direct.probs.iter().map(|p| p.to_bits()).collect();
        assert_eq!(a, b, "sample {i}: served int8 result drifted from the direct session");
    }
    fe.shutdown();
}
