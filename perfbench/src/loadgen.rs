//! Open-loop arrival schedules.
//!
//! A schedule is a pure function of the workload seed: seeded Poisson
//! arrivals at each rate of a fixed ladder, each arrival assigned to a
//! connection and to an image of the probe pool. The client threads only
//! replay it, timing every request from its due time so that a stall
//! also charges the requests queued behind it.

use anatomy::tensor::rng::SplitMix64;

/// One request of the schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// Due time, in seconds from the start of its rung.
    pub at: f64,
    /// Connection that sends it.
    pub conn: usize,
    /// Index into the image pool.
    pub image: usize,
}

/// One rung of the ladder: a nominal rate held for a fixed time.
#[derive(Clone, Debug, PartialEq)]
pub struct Rung {
    /// Nominal arrival rate, requests per second.
    pub rate: f64,
    /// How long the rung lasts, seconds.
    pub secs: f64,
    /// The arrivals, sorted by due time.
    pub arrivals: Vec<Arrival>,
}

fn uniform(rng: &mut SplitMix64) -> f64 {
    // 53 random mantissa bits in [0, 1)
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Poisson arrivals at `rate` per second over `secs`, spread over
/// `conns` connections and `images` pool images, from its own stream
/// of `seed`.
pub fn rung(seed: u64, rate: f64, secs: f64, conns: usize, images: usize) -> Rung {
    // the rung's stream depends on the rate too, so rungs never share draws
    let mut rng = SplitMix64::new(seed ^ rate.to_bits().rotate_left(17));
    let mut arrivals = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - uniform(&mut rng)).ln() / rate;
        if t >= secs {
            break;
        }
        let conn = (rng.next_u64() % conns as u64) as usize;
        let image = (rng.next_u64() % images as u64) as usize;
        arrivals.push(Arrival { at: t, conn, image });
    }
    Rung { rate, secs, arrivals }
}

/// A geometric ladder of `steps` rates from `lo`, each `ratio` times
/// the last.
pub fn geometric(lo: f64, ratio: f64, steps: usize) -> Vec<f64> {
    (0..steps).map(|i| lo * ratio.powi(i as i32)).collect()
}
