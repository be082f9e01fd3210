//! The four workloads: what each sets up, the loop it times, and the
//! checks its outputs must pass.

use crate::{peak_rss_mb, Kind, Outcome, Workload, CLASSES, MINIBATCH, THREADS};
use anatomy::conv::{PlanCache, PlanCacheStats};
use anatomy::daemon::{Client, ClientConfig, Daemon, DaemonConfig, ModelConfig};
use anatomy::gxm::{self, ExecMode, Network};
use anatomy::parallel::ThreadPool;
use anatomy::serve::ServeConfig;
use anatomy::tensor::rng::SplitMix64;
use anatomy::tensor::Norms;
use anatomy::{InferenceOutput, InferenceSession, Precision, StateDict, TuneLevel};
use perfbench::loadgen::{self, Rung};
use perfbench::sampler::{time_calls, Sampler, Summary};
use perfbench::stats_text;
use perfbench::trace::Tracer;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fused f32 probabilities may differ from the unfused executor's by
/// this relative L2 (summation order only).
const FUSED_TOL: f64 = 1e-4;
/// Int8 probabilities may differ from f32 by this relative L2.
const INT8_TOL: f64 = 0.05;
/// Seeded probe images checked against the reference executor.
const PROBE_IMAGES: usize = 8;
/// Operations dropped at the start of a closed loop.
const WARMUP_OPS: usize = 2;
/// SGD step of the training workload.
const LR: f32 = 1e-3;
const MOMENTUM: f32 = 0.9;
/// Serving: the model name on the wire, and the limit on a rung's tail
/// latency (the highest percentile its sample supports).
const MODEL: &str = "resnet50";
const SLO_MS: f64 = 100.0;
/// Serving: the first rung of the ladder, whose latencies are reported;
/// about half the saturation rate measured when the benchmark was
/// defined (≈50 rps).
const NAMED_RATE: f64 = 24.0;
/// Serving: the ladder above the named rung starts this many ratio
/// steps above it (the rungs between always pass) and climbs by the
/// ratio. Every rung runs, and the sustained rate is the highest rung
/// that passes, so a host stall during one rung costs at most that rung.
/// It is a traced-run metric: the 12% rung steps, times run-to-run
/// changes of host speed, spread it wider than an end-to-end bound.
const LADDER_SKIP: i32 = 4;
const LADDER_RATIO: f64 = 1.12;
const LADDER_STEPS: usize = 6;
/// Serving: shares of the run spent on the named rung and on each
/// ladder rung.
const NAMED_SHARE: f64 = 0.4;
const STEP_SHARE: f64 = 0.1;
/// Serving: the named rung is cut into this many windows, and its
/// reported latencies leave out the slowest one.
const WINDOWS: usize = 4;
/// Serving: distinct images requests draw from.
const POOL_IMAGES: usize = 32;
/// Serving: a request not sent within this long after its rung ended is
/// dropped, not sent.
const GRACE: Duration = Duration::from_secs(1);

/// Seeded images, `count × 3 × hw × hw` values.
pub fn images(seed: u64, count: usize, hw: usize) -> Vec<f32> {
    let mut v = vec![0.0f32; count * 3 * hw * hw];
    SplitMix64::new(seed).fill_f32(&mut v);
    v
}

/// Derive a sub-seed so that independent streams of one run never
/// share draws.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

fn pool() -> Arc<ThreadPool> {
    Arc::new(ThreadPool::new(THREADS))
}

fn resnet(hw: usize) -> gxm::ModelSpec {
    anatomy::topologies::resnet50_model(hw, CLASSES)
}

/// Build a fused inference session; int8 sessions are calibrated on one
/// seeded batch.
pub fn build_session(hw: usize, precision: Precision, seed: u64) -> InferenceSession {
    let mut s = InferenceSession::with_shared_quantized(
        resnet(hw),
        MINIBATCH,
        pool(),
        PlanCache::new(),
        TuneLevel::Heuristic,
        precision,
    )
    .expect("ResNet-50 builds");
    if precision == Precision::Int8 {
        let calib = images(sub_seed(seed, 1), MINIBATCH, hw);
        s.calibrate(&calib, MINIBATCH).expect("int8 session calibrates");
    }
    s
}

fn build_train(hw: usize) -> (Network, PlanCache) {
    let cache = PlanCache::new();
    let net = Network::build_with(&resnet(hw), MINIBATCH, pool(), ExecMode::Training, &cache)
        .expect("ResNet-50 training graph builds");
    (net, cache)
}

/// The direct session and weights the daemon serves.
fn serve_reference(hw: usize) -> (InferenceSession, StateDict) {
    let s = build_session(hw, Precision::F32, 0);
    let sd = s.network().state_dict();
    (s, sd)
}

fn bind_daemon(hw: usize, sd: StateDict) -> Daemon {
    let serve = ServeConfig::new(1, THREADS, MINIBATCH).with_pinning(false);
    let model =
        ModelConfig::new(MODEL, resnet(hw), serve).expect("valid model config").with_weights(sd);
    Daemon::bind(DaemonConfig::loopback(), vec![model]).expect("daemon binds on loopback")
}

/// One cold set-up of `w`, in seconds: what a user waits for before the
/// first operation (plans, JIT, int8 calibration, daemon bind).
pub fn setup_only(w: &Workload, seed: u64) -> f64 {
    match w.kind {
        Kind::Offline(p) => {
            let t = Instant::now();
            let s = build_session(w.hw, p, seed);
            let secs = t.elapsed().as_secs_f64();
            drop(s);
            secs
        }
        Kind::Train => {
            let t = Instant::now();
            let built = build_train(w.hw);
            let secs = t.elapsed().as_secs_f64();
            drop(built);
            secs
        }
        Kind::Serve => {
            let (_direct, sd) = serve_reference(w.hw);
            let t = Instant::now();
            let d = bind_daemon(w.hw, sd);
            let secs = t.elapsed().as_secs_f64();
            d.shutdown();
            secs
        }
    }
}

/// Set-up seconds: the median of this process's own cold set-up and two
/// more, each in a fresh child process (the JIT code cache is
/// process-wide, so a second set-up here would hit it).
fn setup_median(w: &Workload, seed: u64, own: f64, out: &mut Outcome) -> f64 {
    let mut samples = vec![own];
    let exe = std::env::current_exe().expect("own executable path");
    for _ in 0..2 {
        let child = std::process::Command::new(&exe)
            .args(["--setup-probe", "--workload", w.name, "--seed", &seed.to_string()])
            .stderr(std::process::Stdio::null())
            .output();
        let secs = child
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.lines().last()?.strip_prefix("setup_s ")?.trim().parse::<f64>().ok());
        match secs {
            Some(s) => samples.push(s),
            None => out.notes.push("a set-up child process failed; median of fewer".into()),
        }
    }
    let s = Summary::of(&samples);
    out.notes.push(format!("setup_s samples {samples:?}"));
    s.p50
}

/// Run `w` for `seconds`. Untraced runs fill `Outcome::e2e`; with an
/// enabled tracer, every other operation is traced and the workload's
/// own per-layer metrics fill `Outcome::layer`.
pub fn run(w: &Workload, seed: u64, seconds: f64, tracer: Tracer) -> Outcome {
    let mut out = Outcome::new(tracer);
    match w.kind {
        Kind::Offline(p) => offline(w, p, seed, seconds, &mut out),
        Kind::Train => train(w, seed, seconds, &mut out),
        Kind::Serve => serve(w, seed, seconds, &mut out),
    }
    if out.attempted == 0 {
        out.faults.push("no operation completed".into());
    }
    out
}

fn put_latency(out: &mut Outcome, s: &Summary, what: &str) {
    out.e2e.put("latency_p50_ms", s.p50 * 1e3, "ms");
    out.e2e.put("latency_tail_ms", s.tail * 1e3, "ms");
    out.notes.push(format!(
        "{what}: n={} p25={:.3}ms p50={:.3}ms p75={:.3}ms tail=p{}={:.3}ms max={:.3}ms",
        s.n,
        s.p25 * 1e3,
        s.p50 * 1e3,
        s.p75 * 1e3,
        s.tail_pct,
        s.tail * 1e3,
        s.max * 1e3
    ));
}

/// The end-to-end metrics every workload reports the same way. Set-up
/// is sampled in child processes only in untraced runs.
fn put_common(out: &mut Outcome, w: &Workload, seed: u64, own_setup: f64, rss: f64, agree: f64) {
    let setup =
        if out.tracer.enabled() { own_setup } else { setup_median(w, seed, own_setup, out) };
    out.e2e.put("setup_s", setup, "s");
    out.e2e.put(
        "ok_frac",
        (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
        "frac",
    );
    out.e2e.put("peak_rss_mb", rss, "MiB");
    out.e2e.put("top1_agree", agree, "frac");
}

/// End-to-end time metrics of a closed loop whose operations each
/// complete `MINIBATCH` images.
fn put_closed_loop(out: &mut Outcome, plain: &Sampler, what: &str) -> Summary {
    let lat = plain.summary().expect("the timed window holds operations past warm-up");
    let busy: f64 = plain.values().iter().sum();
    out.e2e.put("imgs_per_s", (MINIBATCH * lat.n) as f64 / busy, "1/s");
    put_latency(out, &lat, what);
    lat
}

/// Per-layer metrics of a traced closed loop: tracing overhead from the
/// interleaved operations, and the median untraced operation.
fn put_trace_overhead(out: &mut Outcome, spanned: &Sampler, lat: &Summary) {
    let traced = spanned.summary().expect("traced operations past warm-up");
    out.layer.put("trace.overhead_frac", traced.p50 / lat.p50 - 1.0, "frac");
    out.layer.put("op_p50_ms", lat.p50 * 1e3, "ms");
}

/// Per-layer metrics of the workload's own set-up.
fn put_setup_layers(out: &mut Outcome, plans: PlanCacheStats, kernels: usize, activation: usize) {
    out.layer.put("conv.plans", plans.entries as f64, "count");
    out.layer.put("conv.plan_hit_rate", plans.hit_rate(), "frac");
    out.layer.put("jit.kernels", kernels as f64, "count");
    out.layer.put("gxm.activation_mb", activation as f64 / 1048576.0, "MiB");
}

fn bit_identical(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Time `run_samples` with 1, 2 and 4 of the planned images.
pub fn session_run_ms(s: &mut InferenceSession, out: &mut Outcome, seed: u64) {
    let (_, h, w) = s.input_dims();
    let imgs = images(sub_seed(seed, 7), MINIBATCH, h.max(w));
    let per = s.sample_elems();
    for n in [1usize, 2, 4] {
        let t = time_calls(1, 5, Duration::from_millis(200), || {
            std::hint::black_box(s.run_samples(&imgs[..n * per], n).expect("sized"));
        });
        out.layer.put(format!("session.run_ms.n{n}"), t.p50 * 1e3, "ms");
    }
}

fn offline(w: &Workload, precision: Precision, seed: u64, seconds: f64, out: &mut Outcome) {
    let traced = out.tracer.enabled();
    let t = Instant::now();
    let sp = out.tracer.begin("setup", 0);
    let mut session = build_session(w.hw, precision, seed);
    out.tracer.end(sp);
    let own_setup = t.elapsed().as_secs_f64();
    let kernels = anatomy::conv::kernel_cache_stats().misses;

    let mut rng = SplitMix64::new(sub_seed(seed, 2));
    let mut batch = vec![0.0f32; MINIBATCH * session.sample_elems()];
    let (mut plain, mut spanned) = (Sampler::new(WARMUP_OPS), Sampler::new(WARMUP_OPS));
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut op = 0u64;
    while Instant::now() < deadline {
        let trace_op = traced && op % 2 == 1;
        let span = if trace_op { Some(out.tracer.begin("offline.op", op)) } else { None };
        rng.fill_f32(&mut batch);
        let t = Instant::now();
        let r = session.run(&batch);
        let dt = t.elapsed();
        if let Some(s) = span {
            out.tracer.record("session.run", op, t, t + dt, out.tracer.current());
            out.tracer.end(s);
        }
        out.attempted += 1;
        match r {
            Ok(_) => {
                let kept = if trace_op { &mut spanned } else { &mut plain };
                kept.record(dt.as_secs_f64());
            }
            Err(e) => {
                out.failed += 1;
                out.notes.push(format!("op {op} failed: {e}"));
            }
        }
        op += 1;
    }
    let rss = peak_rss_mb();
    let lat = put_closed_loop(out, &plain, "batch run");

    // output checks on seeded probe images against the reference executor
    let probe = images(sub_seed(seed, 3), PROBE_IMAGES, w.hw);
    let mut reference = match precision {
        Precision::F32 => InferenceSession::new_unfused(resnet(w.hw), MINIBATCH, THREADS)
            .expect("unfused reference builds"),
        Precision::Int8 => build_session(w.hw, Precision::F32, seed),
    };
    let agree = compare(&mut session, &mut reference, &probe, precision, out);
    put_common(out, w, seed, own_setup, rss, agree);

    if traced {
        put_trace_overhead(out, &spanned, &lat);
        let activation = session.network().activation_bytes();
        put_setup_layers(out, session.cache_stats(), kernels, activation);
        session_run_ms(&mut session, out, seed);
    }
}

/// Run `probe` through both sessions batch by batch; check the
/// probabilities and return the top-1 agreement.
fn compare(
    test: &mut InferenceSession,
    reference: &mut InferenceSession,
    probe: &[f32],
    precision: Precision,
    out: &mut Outcome,
) -> f64 {
    let per = test.sample_elems() * MINIBATCH;
    let (mut agree, mut total) = (0usize, 0usize);
    for (b, chunk) in probe.chunks(per).enumerate() {
        let got = test.run(chunk).expect("probe batch sized to the session");
        let want = reference.run(chunk).expect("probe batch sized to the session");
        let n = Norms::compare(&want.probs, &got.probs);
        let tol = if precision == Precision::Int8 { INT8_TOL } else { FUSED_TOL };
        out.check(n.ok(tol), || {
            format!("probe batch {b}: probabilities off reference ({n}), tolerance {tol}")
        });
        agree += got.top1.iter().zip(&want.top1).filter(|(a, b)| a == b).count();
        total += got.top1.len();
    }
    agree as f64 / total as f64
}

fn train(w: &Workload, seed: u64, seconds: f64, out: &mut Outcome) {
    let traced = out.tracer.enabled();
    let t = Instant::now();
    let sp = out.tracer.begin("setup", 0);
    let (mut net, cache) = build_train(w.hw);
    out.tracer.end(sp);
    let own_setup = t.elapsed().as_secs_f64();
    let kernels = anatomy::conv::kernel_cache_stats().misses;

    let mut data = gxm::data::SyntheticData::new(CLASSES, 3, w.hw, w.hw, sub_seed(seed, 4));
    let (mut plain, mut spanned) = (Sampler::new(WARMUP_OPS), Sampler::new(WARMUP_OPS));
    let mut phase: [Sampler; 4] = std::array::from_fn(|_| Sampler::new(WARMUP_OPS));
    const PHASES: [&str; 4] = ["gxm.forward", "gxm.backward", "gxm.update", "gxm.sgd"];
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut op = 0u64;
    while Instant::now() < deadline {
        let trace_op = traced && op % 2 == 1;
        let labels = data.next_batch(net.input_mut());
        net.set_labels(&labels);
        let span = if trace_op { Some(out.tracer.begin("train.step", op)) } else { None };
        let mut marks = [Instant::now(); 5];
        let stats = net.forward();
        marks[1] = Instant::now();
        net.backward();
        marks[2] = Instant::now();
        net.update();
        marks[3] = Instant::now();
        net.sgd(LR, MOMENTUM);
        marks[4] = Instant::now();
        if let Some(s) = span {
            for (i, name) in PHASES.iter().enumerate() {
                out.tracer.record(name, op, marks[i], marks[i + 1], out.tracer.current());
            }
            out.tracer.end(s);
        }
        out.attempted += 1;
        if stats.loss.is_finite() {
            let step = (marks[4] - marks[0]).as_secs_f64();
            if trace_op {
                spanned.record(step);
                for (i, p) in phase.iter_mut().enumerate() {
                    p.record((marks[i + 1] - marks[i]).as_secs_f64());
                }
            } else {
                plain.record(step);
            }
        } else {
            out.failed += 1;
            out.check(false, || format!("step {op}: loss {} is not finite", stats.loss));
        }
        op += 1;
    }
    let rss = peak_rss_mb();
    let lat = put_closed_loop(out, &plain, "train step");

    // the trained weights, served fused and unfused, must agree
    let sd = net.state_dict();
    let mut fused = build_session(w.hw, Precision::F32, seed);
    let mut unfused = InferenceSession::new_unfused(resnet(w.hw), MINIBATCH, THREADS)
        .expect("unfused reference builds");
    fused.load_state_dict(&sd).expect("trained weights load");
    unfused.load_state_dict(&sd).expect("trained weights load");
    let probe = images(sub_seed(seed, 3), PROBE_IMAGES, w.hw);
    let agree = compare(&mut fused, &mut unfused, &probe, Precision::F32, out);
    put_common(out, w, seed, own_setup, rss, agree);

    if traced {
        put_trace_overhead(out, &spanned, &lat);
        let names = ["gxm.fwd_ms", "gxm.bwd_ms", "gxm.upd_ms", "gxm.sgd_ms"];
        let mut sum = 0.0;
        for (name, p) in names.iter().zip(&phase) {
            let ms = p.summary().expect("traced steps").p50 * 1e3;
            sum += ms;
            out.layer.put(*name, ms, "ms");
        }
        out.notes.push(format!(
            "phase medians sum to {sum:.2} ms against an untraced step p50 of {:.2} ms ({:+.1}%)",
            lat.p50 * 1e3,
            (sum / (lat.p50 * 1e3) - 1.0) * 100.0
        ));
        put_setup_layers(out, cache.stats(), kernels, net.activation_bytes());
        session_run_ms(&mut fused, out, seed);
    }
}

/// What one connection saw on one rung.
#[derive(Default)]
struct ConnResult {
    /// (due offset, due → reply, whether the request was traced),
    /// seconds.
    latency: Vec<(f64, f64, bool)>,
    /// Send → reply, seconds.
    round_trip: Vec<f64>,
    /// (due offset, send − due), seconds.
    lag: Vec<(f64, f64)>,
    sent: u64,
    failed: u64,
    dropped: u64,
    agree: u64,
    stats_s: Vec<f64>,
    faults: Vec<String>,
}

/// Summary of one rung.
struct RungResult {
    rate: f64,
    pass: bool,
    round_trip: Option<Summary>,
    lag: Option<Summary>,
    detail: String,
}

struct ServeCtx<'a> {
    images: &'a [Vec<f32>],
    expected: &'a [InferenceOutput],
    tracer_on: bool,
    origin: Instant,
}

#[allow(clippy::too_many_arguments)]
fn connection(
    client: &mut Client,
    conn: usize,
    rung: &Rung,
    start: Instant,
    req_base: u64,
    scrape: bool,
    ctx: &ServeCtx<'_>,
) -> (ConnResult, Tracer) {
    let mut tracer = Tracer::new(ctx.tracer_on, ctx.origin);
    let mut r = ConnResult::default();
    // (due offset, Some(arrival index) for Infer, None for a Stats scrape)
    let mut events: Vec<(f64, Option<usize>)> = rung
        .arrivals
        .iter()
        .enumerate()
        .filter(|(_, a)| a.conn == conn)
        .map(|(i, a)| (a.at, Some(i)))
        .collect();
    if scrape {
        events.extend((1..).map(|s| s as f64).take_while(|&s| s < rung.secs).map(|s| (s, None)));
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
    }
    let end = start + Duration::from_secs_f64(rung.secs);
    for (at, what) in events {
        let due = start + Duration::from_secs_f64(at);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let send = Instant::now();
        if send > end + GRACE {
            r.dropped += u64::from(what.is_some());
            continue;
        }
        let Some(i) = what else {
            let res = client.stats(Some(MODEL));
            let done = Instant::now();
            tracer.record("client.stats", 0, send, done, None);
            match res.map(|t| stats_text::parse(&t)) {
                Ok(Ok(_)) => r.stats_s.push((done - send).as_secs_f64()),
                Ok(Err(e)) => r.faults.push(format!("stats text: {e}")),
                Err(e) => r.faults.push(format!("stats scrape failed: {e}")),
            }
            continue;
        };
        let a = rung.arrivals[i];
        let req = req_base + i as u64;
        let traced = req % 2 == 1;
        r.sent += 1;
        let res = client.infer(MODEL, 1, &ctx.images[a.image]);
        let done = Instant::now();
        if traced {
            let top = tracer.record("serve.request", req, due, done, None);
            tracer.record("loadgen.lag", req, due, send, top);
            tracer.record("client.infer", req, send, done, top);
        }
        r.lag.push((at, (send - due).as_secs_f64()));
        match res {
            Ok(o) => {
                let want = &ctx.expected[a.image];
                if !bit_identical(&o.probs, &want.probs) {
                    r.faults.push(format!(
                        "request {req}: reply differs from a direct run of image {}",
                        a.image
                    ));
                }
                r.agree += u64::from(o.top1 == want.top1);
                r.latency.push((at, (done - due).as_secs_f64(), traced));
                r.round_trip.push((done - send).as_secs_f64());
            }
            Err(e) => {
                r.failed += 1;
                if r.failed <= 3 {
                    r.faults.push(format!("request {req} failed: {e}"));
                }
            }
        }
    }
    (r, tracer)
}

fn serve(w: &Workload, seed: u64, seconds: f64, out: &mut Outcome) {
    let traced = out.tracer.enabled();
    let (mut direct, sd) = serve_reference(w.hw);
    let t = Instant::now();
    let sp = out.tracer.begin("setup", 0);
    let daemon = bind_daemon(w.hw, sd.clone());
    out.tracer.end(sp);
    let own_setup = t.elapsed().as_secs_f64();
    let kernels = anatomy::conv::kernel_cache_stats().misses;
    let plan_stats = daemon.registry().cache().stats();
    let frontend = daemon.registry().frontend(MODEL).expect("the model is hosted");

    // the image pool and what a direct single-image run returns for each
    let per = direct.sample_elems();
    let pool_imgs = images(sub_seed(seed, 5), POOL_IMAGES, w.hw);
    let imgs: Vec<Vec<f32>> = pool_imgs.chunks(per).map(<[f32]>::to_vec).collect();
    let expected: Vec<InferenceOutput> =
        imgs.iter().map(|x| direct.run_samples(x, 1).expect("one image")).collect();

    let config = ClientConfig::new().with_timeouts(Duration::from_secs(5));
    let mut connect_s = Vec::new();
    let mut clients: Vec<Client> = (0..2)
        .map(|_| {
            let t = Instant::now();
            let c = Client::connect_with(daemon.local_addr(), config.clone())
                .expect("loopback connect");
            let done = Instant::now();
            out.tracer.record("client.connect", 0, t, done, None);
            connect_s.push((done - t).as_secs_f64());
            c
        })
        .collect();

    let ctx = ServeCtx {
        images: &imgs,
        expected: &expected,
        tracer_on: traced,
        origin: out.tracer.origin(),
    };
    let arrivals = |rate: f64, share: f64| {
        loadgen::rung(sub_seed(seed, 6), rate, seconds * share, 2, POOL_IMAGES)
    };
    let mut plan = vec![arrivals(NAMED_RATE, NAMED_SHARE)];
    let lo = NAMED_RATE * LADDER_RATIO.powi(LADDER_SKIP);
    plan.extend(
        loadgen::geometric(lo, LADDER_RATIO, LADDER_STEPS)
            .into_iter()
            .map(|r| arrivals(r, STEP_SHARE)),
    );

    let mut results: Vec<RungResult> = Vec::new();
    let mut named_stats = String::new();
    let mut stats_s = Vec::new();
    let (mut agree, mut replies) = (0u64, 0u64);
    let mut req_base = 0u64;
    // run one rung on both connections
    let mut drive = |rung: &Rung, clients: &mut [Client], out: &mut Outcome| {
        frontend.reset_stats();
        let start = Instant::now() + Duration::from_millis(5);
        let (a, b) = clients.split_at_mut(1);
        let (r0, r1) = std::thread::scope(|s| {
            let h0 = s.spawn(|| connection(&mut a[0], 0, rung, start, req_base, true, &ctx));
            let h1 = s.spawn(|| connection(&mut b[0], 1, rung, start, req_base, false, &ctx));
            (h0.join().expect("connection thread"), h1.join().expect("connection thread"))
        });
        req_base += rung.arrivals.len() as u64;
        let mut merged = ConnResult::default();
        for (r, tr) in [r0, r1] {
            out.tracer.absorb(tr);
            merged.latency.extend(r.latency);
            merged.round_trip.extend(r.round_trip);
            merged.lag.extend(r.lag);
            merged.sent += r.sent;
            merged.failed += r.failed;
            merged.dropped += r.dropped;
            merged.agree += r.agree;
            merged.stats_s.extend(r.stats_s);
            merged.faults.extend(r.faults);
        }
        out.attempted += merged.sent;
        out.failed += merged.failed;
        out.faults.append(&mut merged.faults);
        (summarize_rung(rung, &merged), merged)
    };
    // warm-up, untimed: every pool image once, back to back, so that
    // first-touch costs in the replica and the connections are paid
    // before the ladder starts
    for (i, img) in imgs.iter().enumerate() {
        out.attempted += 1;
        match clients[i % 2].infer(MODEL, 1, img) {
            Ok(o) => {
                let same = bit_identical(&o.probs, &expected[i].probs);
                out.check(same, || format!("warm-up: image {i} differs from a direct run"));
            }
            Err(e) => {
                out.failed += 1;
                out.check(false, || format!("warm-up: image {i} failed: {e}"));
            }
        }
    }
    let ladder_t = Instant::now();
    for (k, rung) in plan.iter().enumerate() {
        let (result, merged) = drive(rung, &mut clients, out);
        if k == 0 {
            let t = Instant::now();
            named_stats = clients[0].stats(Some(MODEL)).unwrap_or_default();
            stats_s.push(t.elapsed().as_secs_f64());
        }
        agree += merged.agree;
        replies += merged.latency.len() as u64;
        stats_s.extend(merged.stats_s);
        if k == 0 {
            let (kept, dropped) = without_worst_window(&merged.latency, rung.secs);
            if !kept.is_empty() {
                let what = format!(
                    "named rung {NAMED_RATE} rps, due to reply, window {dropped} of {WINDOWS} left out"
                );
                put_latency(out, &Summary::of(&kept), &what);
            }
            if traced {
                let sample = |f: bool| -> Vec<f64> {
                    merged.latency.iter().filter(|l| l.2 == f).map(|l| l.1).collect()
                };
                let (on, off) = (sample(true), sample(false));
                if !on.is_empty() && !off.is_empty() {
                    out.layer.put(
                        "trace.overhead_frac",
                        Summary::of(&on).p50 / Summary::of(&off).p50 - 1.0,
                        "frac",
                    );
                }
            }
        }
        out.notes.push(result.detail.clone());
        results.push(result);
    }
    let ladder_s = ladder_t.elapsed().as_secs_f64();
    let rss = peak_rss_mb();

    // reload the same weights over the wire, then re-check outputs
    let t = Instant::now();
    let reload = clients[0].reload(MODEL, &sd);
    let reload_s = t.elapsed().as_secs_f64();
    out.tracer.record("client.reload", 0, t, t + Duration::from_secs_f64(reload_s), None);
    out.check(reload.is_ok(), || format!("reload failed: {:?}", reload.err()));
    for (i, img) in imgs.iter().enumerate().take(PROBE_IMAGES) {
        out.attempted += 1;
        match clients[1].infer(MODEL, 1, img) {
            Ok(o) => {
                let same = bit_identical(&o.probs, &expected[i].probs);
                out.check(same, || format!("after reload, image {i} differs from a direct run"));
            }
            Err(e) => {
                out.failed += 1;
                out.check(false, || format!("after reload, image {i} failed: {e}"));
            }
        }
    }
    drop(clients);
    daemon.shutdown();

    out.e2e.put("imgs_per_s", replies as f64 / ladder_s, "1/s");
    put_common(out, w, seed, own_setup, rss, agree as f64 / replies.max(1) as f64);

    if traced {
        let sustained = results.iter().filter(|r| r.pass).map(|r| r.rate).fold(0.0, f64::max);
        out.layer.put("serve.sustained_rps", sustained, "1/s");
        let named = &results[0];
        let stats = stats_text::parse(&named_stats).unwrap_or_default();
        let get = |n: &str| stats_text::get(&stats, n, Some(MODEL)).unwrap_or(f64::NAN);
        let batches = get("serve_model_batches_total");
        let occupancy = get("serve_model_occupancy");
        let p50 = get("serve_model_p50_latency_us") / 1e3;
        out.layer.put("serve.occupancy", occupancy, "frac");
        out.layer.put("serve.batches", batches, "count");
        out.layer.put(
            "serve.deadline_flush_frac",
            get("serve_model_deadline_flushes_total") / batches,
            "frac",
        );
        out.layer.put("serve.internal_p50_ms", p50, "ms");
        out.layer.put("serve.internal_p99_ms", get("serve_model_p99_latency_us") / 1e3, "ms");
        out.layer.put("serve.busy_rejections", get("serve_model_busy_rejections_total"), "count");
        session_run_ms(&mut direct, out, seed);
        // the batch size the replica mostly ran, rounded to a timed one
        let images_per_batch = occupancy * MINIBATCH as f64;
        let nearest = [1usize, 2, 4]
            .into_iter()
            .min_by(|a, b| {
                (*a as f64 - images_per_batch)
                    .abs()
                    .total_cmp(&(*b as f64 - images_per_batch).abs())
            })
            .expect("non-empty");
        let run_ms = out.layer.get(&format!("session.run_ms.n{nearest}")).unwrap_or(f64::NAN);
        out.layer.put("serve.queue_ms", p50 - run_ms, "ms");
        let rt = named.round_trip.as_ref().map_or(f64::NAN, |s| s.p50 * 1e3);
        out.layer.put("daemon.wire_ms", rt - p50, "ms");
        out.layer.put("daemon.stats_ms", Summary::of(&stats_s).p50 * 1e3, "ms");
        out.layer.put("daemon.connect_ms", Summary::of(&connect_s).p50 * 1e3, "ms");
        out.layer.put("daemon.reload_ms", reload_s * 1e3, "ms");
        let lag = named.lag.as_ref();
        out.layer.put("loadgen.lag_p99_ms", lag.map_or(f64::NAN, |s| s.p99 * 1e3), "ms");
        out.layer.put("loadgen.lag_max_ms", lag.map_or(f64::NAN, |s| s.max * 1e3), "ms");
        put_setup_layers(out, plan_stats, kernels, direct.network().activation_bytes());
        out.layer.put("op_p50_ms", out.layer.get("session.run_ms.n4").unwrap_or(f64::NAN), "ms");
    }
}

/// The named rung's latencies without its worst quarter: the rung is cut
/// into [`WINDOWS`] equal windows by due time and the window with the
/// highest mean latency is left out, so that one stall of the shared
/// host (which delays every request queued behind it) does not decide
/// the run. Returns the kept latencies and the 1-based window left out.
fn without_worst_window(lat: &[(f64, f64, bool)], secs: f64) -> (Vec<f64>, usize) {
    let window = |at: f64| ((at / secs * WINDOWS as f64) as usize).min(WINDOWS - 1);
    let mean = |w: usize| {
        let v: Vec<f64> = lat.iter().filter(|l| window(l.0) == w).map(|l| l.1).collect();
        if v.is_empty() {
            f64::NEG_INFINITY
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let worst = (0..WINDOWS).map(|w| (w, mean(w))).max_by(|a, b| a.1.total_cmp(&b.1));
    let worst = worst.expect("WINDOWS > 0").0;
    (lat.iter().filter(|l| window(l.0) != worst).map(|l| l.1).collect(), worst + 1)
}

fn summarize_rung(rung: &Rung, r: &ConnResult) -> RungResult {
    let lat: Vec<f64> = r.latency.iter().map(|l| l.1).collect();
    let latency = (!lat.is_empty()).then(|| Summary::of(&lat));
    let round_trip = (!r.round_trip.is_empty()).then(|| Summary::of(&r.round_trip));
    let lags: Vec<f64> = r.lag.iter().map(|l| l.1).collect();
    let lag = (!lags.is_empty()).then(|| Summary::of(&lags));
    // the generator falls behind when the last third of the rung sends
    // later than the first third by more than a quarter of the limit
    let third = |lo: f64, hi: f64| -> Option<f64> {
        let v: Vec<f64> = r
            .lag
            .iter()
            .filter(|l| l.0 >= lo * rung.secs && l.0 < hi * rung.secs)
            .map(|l| l.1)
            .collect();
        (!v.is_empty()).then(|| Summary::of(&v).p50)
    };
    let lag_grows = match (third(0.0, 1.0 / 3.0), third(2.0 / 3.0, 1.0)) {
        (Some(a), Some(b)) => b - a > SLO_MS / 4.0 / 1e3,
        _ => false,
    };
    // the limit applies to the highest percentile the rung's sample
    // supports (p99 itself would need 1000 requests per rung)
    let tail = latency.as_ref().map_or(f64::INFINITY, |s| s.tail);
    let pass = r.failed == 0 && r.dropped == 0 && tail * 1e3 <= SLO_MS && !lag_grows;
    let detail = format!(
        "rung {:.1} rps: sent {} failed {} dropped {} p50 {:.2}ms p{} {:.2}ms lag p50 {:.2}ms p99 {:.2}ms max {:.2}ms grows {} -> {}",
        rung.rate,
        r.sent,
        r.failed,
        r.dropped,
        latency.as_ref().map_or(f64::NAN, |s| s.p50 * 1e3),
        latency.as_ref().map_or(100.0, |s| s.tail_pct),
        tail * 1e3,
        lag.as_ref().map_or(f64::NAN, |s| s.p50 * 1e3),
        lag.as_ref().map_or(f64::NAN, |s| s.p99 * 1e3),
        lag.as_ref().map_or(f64::NAN, |s| s.max * 1e3),
        lag_grows,
        if pass { "pass" } else { "FAIL" }
    );
    RungResult { rate: rung.rate, pass, round_trip, lag, detail }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_slowest_window_is_left_out() {
        // 8 s rung, 4 windows; window 3 (4–6 s) holds a stall
        let lat: Vec<(f64, f64, bool)> = (0..80)
            .map(|i| {
                let at = i as f64 * 0.1;
                (at, if (4.0..6.0).contains(&at) { 0.5 } else { 0.02 }, false)
            })
            .collect();
        let (kept, dropped) = without_worst_window(&lat, 8.0);
        assert_eq!(dropped, 3);
        assert_eq!(kept.len(), 60);
        assert!(kept.iter().all(|&l| l == 0.02));
    }
}
