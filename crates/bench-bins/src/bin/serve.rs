//! Serving benchmark: the micro-batching frontend over replicated
//! inference sessions (`anatomy::serve`, DESIGN.md §5).
//!
//! Sweeps replica layouts at a fixed total thread budget — `1 × T`
//! versus `2 × T/2` — under closed-loop single-image client traffic,
//! and reports images/second, batch occupancy and latency percentiles
//! per layout, plus a bit-exactness check of frontend-served outputs
//! against a direct `InferenceSession::run`. Results go to stdout and
//! `BENCH_serve.json`.
//!
//! `--hw N` sets the input resolution (default 32), `--threads` the
//! total thread budget (default 4), `--requests` the per-layout
//! request count, `--max-wait-ms` the deadline-flush window.

use anatomy::serve::{BatchingFrontend, ServeConfig};
use anatomy::InferenceSession;
use bench_bins::arg_usize as arg;
use conv::PlanCache;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

struct LayoutResult {
    replicas: usize,
    threads_per_replica: usize,
    images_per_second: f64,
    p50_ms: f64,
    p99_ms: f64,
    mean_occupancy: f64,
    batches: usize,
    deadline_flushes: usize,
}

/// Closed-loop load: `clients` threads each submit one image at a time
/// until `requests` single-image requests have been served.
fn drive(
    topology: &str,
    cache: &PlanCache,
    cfg: ServeConfig,
    clients: usize,
    requests: usize,
    warmup: usize,
) -> LayoutResult {
    let replicas = cfg.replicas;
    let threads_per_replica = cfg.threads_per_replica;
    let frontend = BatchingFrontend::with_cache_and_weights(topology, cfg, cache.clone(), None)
        .expect("topology parses");
    let sample = frontend.sample_elems();
    let mut rng = tensor::rng::SplitMix64::new(0x5e21e);
    let mut image = vec![0.0f32; sample];
    for _ in 0..warmup {
        rng.fill_f32(&mut image);
        frontend.infer(&image).expect("serving pipeline alive");
    }
    // warmup requests are serial lone samples (worst-case latency and
    // occupancy) — reset so the stats describe only measured traffic
    frontend.reset_stats();

    let remaining = AtomicUsize::new(requests);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for k in 0..clients {
            let frontend = &frontend;
            let remaining = &remaining;
            scope.spawn(move || {
                let mut rng = tensor::rng::SplitMix64::new(0xbeef + k as u64);
                let mut image = vec![0.0f32; sample];
                while remaining
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| r.checked_sub(1))
                    .is_ok()
                {
                    rng.fill_f32(&mut image);
                    frontend.infer(&image).expect("serving pipeline alive");
                }
            });
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    let stats = frontend.shutdown();
    LayoutResult {
        replicas,
        threads_per_replica,
        images_per_second: requests as f64 / secs,
        p50_ms: stats.p50_latency.as_secs_f64() * 1e3,
        p99_ms: stats.p99_latency.as_secs_f64() * 1e3,
        mean_occupancy: stats.mean_occupancy,
        batches: stats.batches,
        deadline_flushes: stats.deadline_flushes,
    }
}

/// Frontend-vs-direct bit-exactness: one request carrying the whole
/// minibatch lands as one batch with identical composition, so even
/// batch-statistics operators (bn) must reproduce the direct run.
fn parity_check(topology: &str, minibatch: usize, threads: usize) -> bool {
    let mut direct = InferenceSession::new(topology, minibatch, threads).expect("parses");
    let frontend = BatchingFrontend::new(
        topology,
        ServeConfig::new(1, threads, minibatch).with_max_wait(Duration::from_millis(1)),
    )
    .expect("parses");
    let mut rng = tensor::rng::SplitMix64::new(0x9a21);
    let mut batch = vec![0.0f32; minibatch * frontend.sample_elems()];
    rng.fill_f32(&mut batch);
    let want = direct.run(&batch).expect("batch sized to the session");
    let got = frontend.infer(&batch).expect("serving pipeline alive");
    got.probs == want.probs && got.top1 == want.top1
}

fn main() {
    let hw = arg("--hw", 32);
    let minibatch = arg("--minibatch", 4);
    let total_threads = arg("--threads", 4).max(2);
    let clients = arg("--clients", 8);
    let requests = arg("--requests", 32);
    let warmup = arg("--warmup", 4);
    let max_wait_ms = arg("--max-wait-ms", 2);
    let classes = 100usize;

    let topology = topologies::resnet50_topology(hw, classes);
    eprintln!(
        "# serve: resnet50 @ {hw}x{hw}, minibatch {minibatch}, {total_threads} total threads, \
         {clients} clients, {requests} requests/layout, max_wait {max_wait_ms}ms"
    );

    eprintln!("# parity: frontend vs direct InferenceSession::run ...");
    let parity = parity_check(&topology, minibatch, 2);
    eprintln!("# parity bit-exact: {parity}");
    assert!(parity, "frontend-served outputs must be bit-identical to a direct run");

    // one plan cache across every layout: layouts with equal
    // threads-per-replica share plans, and the process-wide kernel
    // cache dedupes code buffers across the rest
    let cache = PlanCache::new();
    let max_wait = Duration::from_millis(max_wait_ms as u64);
    let layouts: Vec<(usize, usize)> = vec![
        (1, total_threads),     // one wide replica
        (2, total_threads / 2), // two half-width replicas
    ];
    let mut results = Vec::new();
    for (replicas, threads_per_replica) in layouts {
        eprintln!("# layout {replicas} × {threads_per_replica} ...");
        let cfg =
            ServeConfig::new(replicas, threads_per_replica, minibatch).with_max_wait(max_wait);
        let r = drive(&topology, &cache, cfg, clients, requests, warmup);
        println!(
            "serve\tresnet50\thw={hw}\treplicas={}\tthreads_per_replica={}\timgs_per_s={:8.1}\t\
             p50_ms={:7.2}\tp99_ms={:7.2}\toccupancy={:.2}\tdeadline_flushes={}",
            r.replicas,
            r.threads_per_replica,
            r.images_per_second,
            r.p50_ms,
            r.p99_ms,
            r.mean_occupancy,
            r.deadline_flushes,
        );
        results.push(r);
    }
    let scaling = results[1].images_per_second / results[0].images_per_second;
    println!("serve\tscaling_2x_vs_1x\t{scaling:.3}");

    let mut json = String::new();
    json.push_str(&format!(
        "{{\n  \"bench\": \"serve\",\n  \"topology\": \"resnet50\",\n  \"hw\": {hw},\n  \
         \"minibatch\": {minibatch},\n  \"total_threads\": {total_threads},\n  \
         \"clients\": {clients},\n  \"requests\": {requests},\n  \
         \"max_wait_ms\": {max_wait_ms},\n  \"parity_bitexact\": {parity},\n  \
         \"layouts\": [\n"
    ));
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\n      \"replicas\": {},\n      \"threads_per_replica\": {},\n      \
             \"images_per_second\": {:.2},\n      \"p50_latency_ms\": {:.3},\n      \
             \"p99_latency_ms\": {:.3},\n      \"mean_occupancy\": {:.3},\n      \
             \"batches\": {},\n      \"deadline_flushes\": {}\n    }}{}\n",
            r.replicas,
            r.threads_per_replica,
            r.images_per_second,
            r.p50_ms,
            r.p99_ms,
            r.mean_occupancy,
            r.batches,
            r.deadline_flushes,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    json.push_str(&format!("  ],\n  \"scaling_2_replicas_vs_1\": {scaling:.4}\n}}\n"));
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    eprintln!("# wrote BENCH_serve.json (2-replica vs 1-replica scaling: {scaling:.2}x)");
}
