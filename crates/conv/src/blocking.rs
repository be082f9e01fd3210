//! Register- and cache-blocking policy (Sections II-B to II-D).
//!
//! The choices here mirror the paper's rules:
//!
//! * `RBQ` divides `Q` when possible (no remainder kernels needed for
//!   the ResNet/Inception geometries, whose widths are 7·2^k);
//!   otherwise the engine generates a second remainder variant
//!   (Section II-H);
//! * `RBP > 1` when `Q` alone cannot cover the FMA latency — "in case
//!   b) we run two small GEMMs in the same JIT'ed kernel which share
//!   the same weight matrix" (Section II-D);
//! * 1×1 layers pull the whole `Cb` reduction inside the kernel to
//!   recover output register reuse (Section II-C);
//! * the weight-update spatial blocking `BP × BQ` bounds the working
//!   set so input/dO rows stay cache-resident between panel visits
//!   (Section II-J).

use tensor::{ConvShape, VLEN};

/// Minimum independent accumulation chains to hide FMA latency
/// (2 ports × 4 cycles on SKX-class cores).
pub const MIN_CHAINS: usize = 8;

/// Register budget for output-tile accumulators (zmm0..27; zmm28..31
/// hold weights).
pub const MAX_ACC: usize = 28;

/// Blocking decision for one layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Blocking {
    /// Register-blocking rows of the forward kernel.
    pub rbp: usize,
    /// Register-blocking columns of the forward kernel.
    pub rbq: usize,
    /// Input-channel blocks reduced inside one forward kernel call.
    pub cb_inner: usize,
    /// Weight-update spatial blocking rows.
    pub upd_bp: usize,
    /// Weight-update spatial blocking columns.
    pub upd_bq: usize,
}

/// Choose the blocking for `shape` (forward geometry `P × Q`).
///
/// The register-blocking rule lives in
/// [`machine::register_blocking`] so the traffic model always scores
/// the blocking the kernel actually runs (a cross-crate consistency
/// test pins the two together).
pub fn choose(shape: &ConvShape) -> Blocking {
    let (p, q) = (shape.p(), shape.q());
    let (rbp, rbq) = machine::register_blocking(MIN_CHAINS, p, q);
    let cb_inner = if shape.r == 1 && shape.s == 1 { shape.cb() } else { 1 };

    // weight update: full rows, with BP bounded so the dO block stays
    // within a fraction of L1 (Section II-J: "block the spatial
    // dimensions depending on the layer characteristics")
    let upd_bq = q;
    let upd_bp = choose_upd_bp(p, q);

    Blocking { rbp, rbq, cb_inner, upd_bp, upd_bq }
}

/// Weight-update spatial BP: sweep every candidate and keep the
/// largest whose dO block (`bp` rows of `q` pixel vectors) stays
/// within half of L1 — the Section II-J working-set bound the paper
/// blocks the spatial dimensions for. (BQ stays the full row: the
/// update kernels sweep complete rows by construction.)
pub(crate) fn choose_upd_bp(p: usize, q: usize) -> usize {
    let do_row_bytes = q * VLEN * 4;
    (1..=p).filter(|bp| bp * do_row_bytes <= 16 * 1024).max().unwrap_or(1)
}

/// Largest `RBQ ≤ MAX_ACC` that divides `Q`, preferring at least
/// `MIN_CHAINS`; falls back to `min(Q, 28)` plus a remainder variant.
#[cfg(test)]
fn choose_rbq(q: usize) -> usize {
    machine::register_blocking(MIN_CHAINS, usize::MAX, q).1
}

impl Blocking {
    /// Number of register tiles covering the `P × Q` output plane,
    /// including remainder tiles.
    pub fn tiles(&self, p: usize, q: usize) -> (usize, usize) {
        (p.div_ceil(self.rbp), q.div_ceil(self.rbq))
    }
}

/// Distinct tile extents, ascending, when tiles of `block` cover `len`:
/// the main tile and, if `block` does not divide `len`, the remainder —
/// one kernel variant each (Section II-H).
pub(crate) fn tile_extents(len: usize, block: usize) -> Vec<usize> {
    let mut extents = vec![len % block, block.min(len)];
    extents.retain(|&e| e > 0);
    extents.sort_unstable();
    extents.dedup();
    extents
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet_geometries_divide_exactly() {
        // Q ∈ {112, 56, 28, 14, 7} all yield divisor blockings
        for (q, expect) in [(112, 28), (56, 28), (28, 28), (14, 14), (7, 7)] {
            assert_eq!(choose_rbq(q), expect, "q={q}");
        }
    }

    #[test]
    fn narrow_layers_get_rbp() {
        // 7x7 output: rbq=7 < 8 chains -> rbp=2
        let b = choose(&ConvShape::new(1, 512, 512, 7, 7, 3, 3, 1, 1));
        assert_eq!(b.rbq, 7);
        assert!(b.rbp >= 2);
        assert!(b.rbp * b.rbq >= MIN_CHAINS);
        assert!(b.rbp * b.rbq <= MAX_ACC);
    }

    #[test]
    fn one_by_one_pulls_in_channel_blocks() {
        let s = ConvShape::new(1, 256, 64, 56, 56, 1, 1, 1, 0);
        let b = choose(&s);
        assert_eq!(b.cb_inner, 16); // 256/16
        let s3 = ConvShape::new(1, 256, 64, 56, 56, 3, 3, 1, 1);
        assert_eq!(choose(&s3).cb_inner, 1);
    }

    #[test]
    fn upd_blocking_bounds_working_set() {
        let b = choose(&ConvShape::new(1, 64, 64, 56, 56, 3, 3, 1, 1));
        assert_eq!(b.upd_bq, 56);
        assert!(b.upd_bp * b.upd_bq * VLEN * 4 <= 20 * 1024);
        // small layers take whole planes
        let b = choose(&ConvShape::new(1, 512, 512, 7, 7, 3, 3, 1, 1));
        assert_eq!((b.upd_bp, b.upd_bq), (7, 7));
    }

    #[test]
    fn non_divisible_q_gets_remainder_blocking() {
        let b = choose(&ConvShape::new(1, 64, 64, 100, 100, 3, 3, 1, 1));
        // Q=100: divisors ≤28 are 25,20,...; 25 ≥ MIN_CHAINS
        assert_eq!(b.rbq, 25);
        let (tp, tq) = b.tiles(100, 100);
        assert_eq!((tp, tq), (100, 4));
    }
}
