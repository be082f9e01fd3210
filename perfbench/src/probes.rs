//! The traced run: the workload itself with spans, then the layer
//! probes, each timed from outside through public entry points.
//!
//! Every traced run reports the full per-layer set. Layers the workload
//! drives are measured at its own resolution; the training phases, the
//! conv backward/update sweep and the serving stack are measured in
//! their home configuration (ResNet-50 at 64² for training, the
//! `serve-wire-32` daemon for serving) when the workload does not
//! drive them.

use crate::workloads::{self, sub_seed};
use crate::{Kind, Metrics, Outcome, Workload, MINIBATCH, THREADS, WORKLOADS};
use anatomy::conv::fuse::FuseCtx;
use anatomy::conv::{ConvShape, LayerOptions, PlanCache};
use anatomy::parallel::ThreadPool;
use anatomy::tensor::{BlockedActs, BlockedFilter, VnniActs, VnniFilter, VLEN};
use anatomy::topologies::resnet::TABLE_I;
use anatomy::Precision;
use perfbench::sampler::{time_calls, Summary};
use perfbench::trace::Tracer;
use std::time::{Duration, Instant};

/// How many times each Table-I shape occurs among ResNet-50's 53
/// convolutions, indexed like `TABLE_I`.
pub const MULTIPLICITY: [usize; 20] = [1, 4, 1, 3, 2, 1, 1, 4, 4, 3, 1, 1, 6, 6, 5, 1, 1, 3, 3, 2];

/// Resolution of the training phases and the backward/update sweep.
const TRAIN_HW: usize = 64;
/// Seconds the home-configuration probes run.
const PROBE_SECS: f64 = 6.0;
/// Efficiency above `1 + EFF_TOL` is a measurement fault.
const EFF_TOL: f64 = 0.05;

/// The 20 Table-I shapes at input resolution `hw` (224 gives Table I),
/// minibatch [`MINIBATCH`].
pub fn table1_at(hw: usize) -> Vec<(usize, ConvShape)> {
    TABLE_I
        .iter()
        .map(|r| {
            let h = r.hw * hw / 224;
            (r.id, ConvShape::new(MINIBATCH, r.c, r.k, h, h, r.rs, r.rs, r.stride, r.rs / 2))
        })
        .collect()
}

fn home(kind: Kind) -> Workload {
    *WORKLOADS.iter().find(|w| w.kind == kind).expect("every kind has a workload")
}

/// Run `w` traced, then the probes; the outcome's `layer` metrics are
/// the full per-layer set.
pub fn traced_run(w: &Workload, seed: u64, seconds: f64, origin: Instant) -> Outcome {
    let mut out = workloads::run(w, seed, seconds, Tracer::new(true, origin));
    let pool = ThreadPool::new(THREADS);

    let sp = out.tracer.begin("probe.fork_join", 0);
    let fj = time_calls(100, 2000, Duration::from_millis(50), || pool.run(|_| {}));
    out.tracer.end(sp);
    out.layer.put("parallel.fork_join_us", fj.p50 * 1e6, "us");

    // the peak is sampled before and after the sweep, so that a slow
    // spell during one sample does not make honest layers exceed it
    let mut peak_calls = peak_sample(&pool, &mut out);
    let sp = out.tracer.begin("probe.conv", 0);
    conv_sweep(&pool, w.hw, seed, &mut out);
    out.tracer.end(sp);
    peak_calls.extend(peak_sample(&pool, &mut out));
    efficiency(&peak_calls, w.hw, &mut out);

    if w.kind != Kind::Train {
        let sp = out.tracer.begin("probe.train", 0);
        let t = workloads::run(&home(Kind::Train), seed, PROBE_SECS, Tracer::new(true, origin));
        out.tracer.end(sp);
        adopt(&mut out, t, &["gxm.fwd_ms", "gxm.bwd_ms", "gxm.upd_ms", "gxm.sgd_ms"]);
    }
    if w.kind != Kind::Serve {
        let sp = out.tracer.begin("probe.serve", 0);
        let s = workloads::run(&home(Kind::Serve), seed, PROBE_SECS, Tracer::new(true, origin));
        out.tracer.end(sp);
        adopt(&mut out, s, &["serve.", "daemon.", "loadgen."]);
    }

    // what the model spends outside its convolutions
    let l = &out.layer;
    let conv_fwd = match w.kind {
        Kind::Offline(Precision::Int8) => l.get("conv.int8_ms"),
        _ => l.get("conv.fwd_ms"),
    };
    let run_ms = match w.kind {
        Kind::Train => l.get("gxm.fwd_ms"),
        _ => l.get("op_p50_ms"),
    };
    let nonconv_fwd = run_ms.zip(conv_fwd).map_or(f64::NAN, |(r, c)| r - c);
    let nonconv_bwd =
        l.get("gxm.bwd_ms").zip(l.get("conv.bwd_ms")).map_or(f64::NAN, |(b, c)| b - c);
    out.layer.put("gxm.nonconv_fwd_ms", nonconv_fwd, "ms");
    out.layer.put("gxm.nonconv_bwd_ms", nonconv_bwd, "ms");
    out.layer.0.retain(|(n, _, _)| n != "op_p50_ms");
    out
}

/// Take `prefixes` metrics, checks and spans from a probe run.
fn adopt(out: &mut Outcome, probe: Outcome, prefixes: &[&str]) {
    out.layer.copy_from(&probe.layer, prefixes);
    out.faults.extend(probe.faults);
    out.notes.extend(probe.notes.into_iter().map(|n| format!("probe: {n}")));
    out.tracer.absorb(probe.tracer);
}

/// 20 warm-up and 30 timed calls of `machine::host::measure_peak_gflops`.
fn peak_sample(pool: &ThreadPool, out: &mut Outcome) -> Vec<f64> {
    let sp = out.tracer.begin("probe.machine", 0);
    for _ in 0..20 {
        anatomy::machine::host::measure_peak_gflops(pool);
    }
    let calls = (0..30).map(|_| anatomy::machine::host::measure_peak_gflops(pool)).collect();
    out.tracer.end(sp);
    calls
}

/// The FMA peak measured from outside (the maximum over warmed calls)
/// and its spread, and the forward efficiency against it.
///
/// A rate above the peak by more than [`EFF_TOL`] can only be a fault of
/// the measurement, so it is never reported as a result: a per-layer
/// rate above it is flagged as a fault of the peak calibration, and an
/// efficiency above it fails the run.
fn efficiency(calls: &[f64], hw: usize, out: &mut Outcome) {
    let p = Summary::of(calls);
    let peak = p.max;
    out.layer.put("machine.peak_gflops", peak, "GFLOPS");
    out.layer.put("machine.peak_spread", (p.max - p.min) / p.max, "frac");
    out.notes.push(format!(
        "peak over {} warmed calls: max {:.1} p50 {:.1} min {:.1} GFLOPS",
        p.n, p.max, p.p50, p.min
    ));
    // int8 kernels count int16 multiply-adds, which may exceed the f32 peak
    let over: Vec<String> = out
        .layer
        .0
        .iter()
        .filter(|(n, v, _)| {
            n.ends_with(".gflops") && !n.starts_with("conv.int8.") && *v > peak * (1.0 + EFF_TOL)
        })
        .map(|(n, v, _)| format!("{n} = {v:.1}"))
        .collect();
    if !over.is_empty() {
        out.notes.push(format!(
            "MEASUREMENT FAULT: machine.peak_gflops {peak:.1} is below measured layer rates ({})",
            over.join(", ")
        ));
    }
    let flops: f64 =
        table1_at(hw).iter().zip(MULTIPLICITY).map(|((_, s), m)| m as f64 * s.flops() as f64).sum();
    let fwd_s = out.layer.get("conv.fwd_ms").unwrap_or(f64::NAN) / 1e3;
    let eff = flops / fwd_s / 1e9 / peak;
    out.check(eff <= 1.0 + EFF_TOL, || {
        format!("MEASUREMENT FAULT: conv.fwd_eff {eff:.3} exceeds 1 + {EFF_TOL}")
    });
    out.layer.put("conv.fwd_eff", eff, "frac");
}

/// Median seconds of one call of `f`.
fn per_call(f: impl FnMut()) -> f64 {
    time_calls(1, 3, Duration::from_millis(40), f).p50
}

/// Time every Table-I layer: f32 and int8 forward at `hw`, backward and
/// weight update at [`TRAIN_HW`]. Sums over ResNet-50's 53 convolutions
/// use [`MULTIPLICITY`].
fn conv_sweep(pool: &ThreadPool, hw: usize, seed: u64, out: &mut Outcome) {
    let mut sums = Metrics::default();
    let mut build_s = 0.0;
    let cache = PlanCache::new();
    for ((id, shape), mult) in table1_at(hw).into_iter().zip(MULTIPLICITY) {
        let t = Instant::now();
        let layer = cache.get_or_build(shape, LayerOptions::new(THREADS));
        build_s += t.elapsed().as_secs_f64();
        let s = sub_seed(seed, 100 + id as u64);
        let x = BlockedActs::random(shape.n, shape.c, shape.h, shape.w, layer.input_pad(), s);
        let wt = BlockedFilter::random(shape.k, shape.c, shape.r, shape.s, s + 1);
        let mut y = layer.new_output();
        let f = per_call(|| layer.forward(pool, &x, &wt, &mut y, &FuseCtx::default()));
        put_layer(out, &mut sums, "fwd", id, &shape, f, mult);

        let qlayer =
            cache.get_or_build(shape, LayerOptions::new(THREADS).with_precision(Precision::Int8));
        let xq = VnniActs::random(shape.n, shape.c, shape.h, shape.w, qlayer.input_pad(), s + 2);
        let wq = VnniFilter::random(shape.k, shape.c, shape.r, shape.s, s + 3);
        let kpad = shape.k.next_multiple_of(VLEN);
        let (mult_q, bias) = (vec![1e-4f32; kpad], vec![0.0f32; kpad]);
        let ctx = FuseCtx { bias: Some(&bias), eltwise: None };
        let mut yq = qlayer.new_output();
        let q = per_call(|| qlayer.forward_quant(pool, &xq, &wq, &mut yq, &mult_q, &ctx));
        put_layer(out, &mut sums, "int8", id, &shape, q, mult);
    }
    for ((id, shape), mult) in table1_at(TRAIN_HW).into_iter().zip(MULTIPLICITY) {
        let layer = cache.get_or_build(shape, LayerOptions::new(THREADS));
        let s = sub_seed(seed, 200 + id as u64);
        let x = BlockedActs::random(shape.n, shape.c, shape.h, shape.w, layer.input_pad(), s);
        let wt = BlockedFilter::random(shape.k, shape.c, shape.r, shape.s, s + 1);
        let mut dout = layer.new_dout();
        anatomy::tensor::rng::SplitMix64::new(s + 2).fill_f32(dout.as_mut_slice());
        let mut dx = layer.new_input();
        let b = per_call(|| layer.backward(pool, &dout, &wt, &mut dx));
        put_layer(out, &mut sums, "bwd", id, &shape, b, mult);
        let mut dw = layer.new_filter();
        let u = per_call(|| layer.update(pool, &x, &dout, &mut dw));
        put_layer(out, &mut sums, "upd", id, &shape, u, mult);
    }
    for kind in ["fwd", "int8", "bwd", "upd"] {
        let ms = sums.get(kind).unwrap_or(f64::NAN) * 1e3;
        out.layer.put(format!("conv.{kind}_ms"), ms, "ms");
    }
    out.layer.put("conv.plan_build_ms", build_s * 1e3, "ms");
}

/// Record one layer's GFLOPS and add its model-weighted time to the
/// `kind` sum.
fn put_layer(
    out: &mut Outcome,
    sums: &mut Metrics,
    kind: &str,
    id: usize,
    shape: &ConvShape,
    secs: f64,
    mult: usize,
) {
    let gflops = shape.flops() as f64 / secs / 1e9;
    out.layer.put(format!("conv.{kind}.l{id:02}.gflops"), gflops, "GFLOPS");
    sums.put(kind, sums.get(kind).unwrap_or(0.0) + mult as f64 * secs, "s");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplicity_covers_the_53_convolutions() {
        assert_eq!(MULTIPLICITY.iter().sum::<usize>(), 53);
    }

    #[test]
    fn scaled_table_matches_table_i_at_224() {
        for ((id, s), row) in table1_at(224).into_iter().zip(TABLE_I) {
            assert_eq!(
                (id, s.c, s.k, s.h, s.r, s.stride),
                (row.id, row.c, row.k, row.hw, row.rs, row.stride)
            );
        }
        assert!(table1_at(32).iter().all(|(_, s)| s.h >= 1));
    }
}
