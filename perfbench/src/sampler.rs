//! The one sampler every workload and layer probe records into.
//!
//! Samples are kept raw (no histogram) and summarised once, at the end
//! of a run: median, quartiles, the tail percentile the sample size
//! supports, min and max. Quantiles use the "exclusive" method of
//! Python's `statistics.quantiles`, so a summary can be checked by hand
//! against the same tool that judges run-to-run spread.

use std::time::{Duration, Instant};

/// Percentiles the tail is chosen from, in tenths of a percent, highest
/// first (integers, so that "10 samples beyond" is decided exactly).
const TAIL_LADDER: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// How many samples must lie beyond a percentile for it to be reported.
pub const TAIL_MIN_BEYOND: u64 = 10;

/// The `p`-quantile (`0 < p < 1`) of an ascending slice by the
/// exclusive method: position `p·(n+1)` (1-based), linear interpolation
/// between neighbours, clamped to the sample range.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let n = sorted.len();
    let pos = p * (n + 1) as f64;
    if pos <= 1.0 {
        return sorted[0];
    }
    if pos >= n as f64 {
        return sorted[n - 1];
    }
    let j = pos.floor() as usize;
    let frac = pos - j as f64;
    sorted[j - 1] + frac * (sorted[j] - sorted[j - 1])
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it; `None` below 20
/// samples (the median itself needs 10 above it).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|p| n as u64 * (1000 - p) >= TAIL_MIN_BEYOND * 1000)
        .map(|p| p as f64 / 10.0)
}

/// Summary statistics of one sample.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Samples kept (after warm-up).
    pub n: usize,
    /// First quartile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// Third quartile.
    pub p75: f64,
    /// 99th percentile, whatever the sample size (see `tail` for the
    /// percentile the sample supports).
    pub p99: f64,
    /// Value at [`Summary::tail_pct`].
    pub tail: f64,
    /// The percentile reported as the tail (see [`tail_percentile`]);
    /// when the sample is too small for any, the maximum is reported
    /// and this is 100.
    pub tail_pct: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarise `samples` (any order). Panics on an empty sample.
    pub fn of(samples: &[f64]) -> Self {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let (tail_pct, tail) = match tail_percentile(s.len()) {
            Some(p) => (p, quantile(&s, p / 100.0)),
            None => (100.0, s[s.len() - 1]),
        };
        Self {
            n: s.len(),
            p25: quantile(&s, 0.25),
            p50: quantile(&s, 0.5),
            p75: quantile(&s, 0.75),
            p99: quantile(&s, 0.99),
            tail,
            tail_pct,
            min: s[0],
            max: s[s.len() - 1],
        }
    }
}

/// Collects samples after a warm-up: the first `warmup_ops` samples
/// offered are dropped, so caches fill and lazy set-up finishes before
/// anything is kept.
#[derive(Debug)]
pub struct Sampler {
    warmup_ops: usize,
    offered: usize,
    kept: Vec<f64>,
}

impl Sampler {
    /// A sampler that drops the first `warmup_ops` samples.
    pub fn new(warmup_ops: usize) -> Self {
        Self { warmup_ops, offered: 0, kept: Vec::new() }
    }

    /// Offer one sample; returns whether it was kept.
    pub fn record(&mut self, value: f64) -> bool {
        self.offered += 1;
        let keep = self.offered > self.warmup_ops;
        if keep {
            self.kept.push(value);
        }
        keep
    }

    /// Samples kept so far.
    pub fn values(&self) -> &[f64] {
        &self.kept
    }

    /// Summary of the kept samples, `None` when nothing was kept.
    pub fn summary(&self) -> Option<Summary> {
        (!self.kept.is_empty()).then(|| Summary::of(&self.kept))
    }
}

/// Time `f` repeatedly: `warm` untimed calls, then timed calls until at
/// least `min_reps` ran and `min_time` passed. Returns the summary of
/// per-call seconds.
pub fn time_calls(
    warm: usize,
    min_reps: usize,
    min_time: Duration,
    mut f: impl FnMut(),
) -> Summary {
    for _ in 0..warm {
        f();
    }
    let mut s = Sampler::new(0);
    let t0 = Instant::now();
    while s.values().len() < min_reps.max(1) || t0.elapsed() < min_time {
        let t = Instant::now();
        f();
        s.record(t.elapsed().as_secs_f64());
    }
    s.summary().expect("at least one timed call")
}
