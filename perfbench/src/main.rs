//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload offline-224 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload (see `perfbench/README.md`) from a seed, checks its
//! outputs, and prints a report whose last line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the same workload
//! runs with spans recorded around every call into the system, followed
//! by the layer probes, and the metrics are the per-layer ones. Spans
//! are written to `perfbench/out/trace-<workload>-<seed>.jsonl`.

mod probes;
mod workloads;

use perfbench::hostkey::host_key;
use perfbench::trace::{self, Tracer};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Every program under test runs on this many threads.
pub const THREADS: usize = 2;
/// Planned minibatch of every model.
pub const MINIBATCH: usize = 4;
/// Classes of every model's classifier.
pub const CLASSES: usize = 100;

/// What a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Closed loop of `InferenceSession::run` batches.
    Offline(anatomy::Precision),
    /// Open-loop ladder against an in-process daemon over loopback.
    Serve,
    /// Training steps of a `gxm::Network`.
    Train,
}

/// One workload of `BENCHMARK.json`.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// What it drives.
    pub kind: Kind,
    /// Input resolution (H = W).
    pub hw: usize,
}

/// The workloads. `BENCHMARK.json` gates the first two and the last;
/// `serve-wire-32` runs by hand and as the serving probe of every traced
/// run (see `perfbench/README.md` for why it is not gated).
pub const WORKLOADS: [Workload; 4] = [
    Workload { name: "offline-224", kind: Kind::Offline(anatomy::Precision::F32), hw: 224 },
    Workload { name: "offline-int8-224", kind: Kind::Offline(anatomy::Precision::Int8), hw: 224 },
    Workload { name: "serve-wire-32", kind: Kind::Serve, hw: 32 },
    Workload { name: "train-64", kind: Kind::Train, hw: 64 },
];

/// Named metric values with units, in insertion order.
#[derive(Default, Debug)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Set `name` (replacing an earlier value).
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.0.retain(|(n, _, _)| *n != name);
        self.0.push((name, value, unit));
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }

    /// Copy every metric whose name starts with one of `prefixes`.
    pub fn copy_from(&mut self, other: &Metrics, prefixes: &[&str]) {
        for (n, v, u) in &other.0 {
            if prefixes.iter().any(|p| n.starts_with(p)) {
                self.put(n.clone(), *v, u);
            }
        }
    }
}

/// Everything one run of a workload produced.
pub struct Outcome {
    /// End-to-end metrics (untraced runs).
    pub e2e: Metrics,
    /// Per-layer metrics (traced runs).
    pub layer: Metrics,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, refused or timed out.
    pub failed: u64,
    /// Output-check failures; any one fails the run.
    pub faults: Vec<String>,
    /// Report lines (percentile used, sample counts, per-rung detail).
    pub notes: Vec<String>,
    /// Spans recorded in a traced run.
    pub tracer: Tracer,
}

impl Outcome {
    fn new(tracer: Tracer) -> Self {
        Self {
            e2e: Metrics::default(),
            layer: Metrics::default(),
            attempted: 0,
            failed: 0,
            faults: Vec::new(),
            notes: Vec::new(),
            tracer,
        }
    }

    /// Record an output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.faults.push(what());
        }
    }
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    let (mut workload, mut seed, mut seconds, mut trace, mut setup_probe) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value:?}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let seconds: f64 = seconds.unwrap_or(20.0);
    if !(1.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds must be in 1..=600, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        setup_probe,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        // child of a measured run: one cold set-up, reported on stdout
        let secs = workloads::setup_only(&args.workload, args.seed);
        println!("setup_s {secs}");
        return ExitCode::SUCCESS;
    }

    let key = host_key();
    eprintln!("# host_key {key}");
    let origin = Instant::now();
    let outcome = if args.trace {
        probes::traced_run(&args.workload, args.seed, args.seconds, origin)
    } else {
        workloads::run(&args.workload, args.seed, args.seconds, Tracer::new(false, origin))
    };

    if args.trace {
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("trace-{}-{}.jsonl", args.workload.name, args.seed));
        let written = std::fs::create_dir_all(dir).and_then(|_| {
            std::fs::write(&path, format!("{{\"host_key\":{key}}}\n{}", outcome.tracer.to_jsonl()))
        });
        match written {
            Ok(()) => {
                eprintln!("# wrote {} spans to {}", outcome.tracer.spans().len(), path.display())
            }
            Err(e) => eprintln!("# could not write {}: {e}", path.display()),
        }
        report_self_times(&outcome.tracer);
    }

    let metrics = if args.trace { &outcome.layer } else { &outcome.e2e };
    println!("# host_key {key}");
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for n in &outcome.notes {
        println!("# {n}");
    }
    for (name, value, unit) in &metrics.0 {
        println!("{name}\t{value:.6}\t{unit}");
    }
    for f in &outcome.faults {
        println!("# CHECK FAILED: {f}");
    }
    let correct = outcome.faults.is_empty();
    let mut json = String::new();
    for (name, value, unit) in &metrics.0 {
        if !json.is_empty() {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.attempted, outcome.failed
    );
    ExitCode::SUCCESS
}

/// Self time per span name, summed, on stderr: where a traced run's
/// time went.
fn report_self_times(tracer: &Tracer) {
    let selfs = trace::self_times(tracer.spans());
    let mut by_name: Vec<(&str, u64, u64, usize)> = Vec::new();
    for (s, self_ns) in tracer.spans().iter().zip(selfs) {
        match by_name.iter_mut().find(|e| e.0 == s.name) {
            Some(e) => {
                e.1 += s.dur_ns();
                e.2 += self_ns;
                e.3 += 1;
            }
            None => by_name.push((s.name, s.dur_ns(), self_ns, 1)),
        }
    }
    by_name.sort_by_key(|e| std::cmp::Reverse(e.2));
    eprintln!("# span\tcount\ttotal_ms\tself_ms");
    for (name, total, own, count) in by_name {
        eprintln!("# {name}\t{count}\t{:.3}\t{:.3}", total as f64 / 1e6, own as f64 / 1e6);
    }
}
