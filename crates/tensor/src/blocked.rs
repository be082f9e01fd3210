//! Vectorization-friendly blocked tensor layouts (Section II-B).
//!
//! * [`BlockedActs`]: activations as `[N][Cb][Hp][Wp][VLEN]` where
//!   `Cb = ⌈C/VLEN⌉` and `Hp/Wp` include the physical zero padding.
//!   The feature-map vector is the innermost, fast-running dimension, so
//!   the microkernel's FMA reads/writes full SIMD vectors with unit
//!   stride.
//! * [`BlockedFilter`]: filters as `[Kb][Cb][R][S][c][k]` with `c`/`k`
//!   the intra-block input/output channel. One aligned vector load at
//!   `(kb,cb,r,s,c,·)` yields the weights connecting input channel `c`
//!   to all `VLEN` output channels of block `kb` — the "load weights,
//!   broadcast input pixel, FMA" recipe of Section II-D.
//!
//! Channel counts that are not multiples of `VLEN` are zero-padded to a
//! full block (exact: padded lanes contribute `0 · w = 0`).

use crate::align::AVec;
use crate::nchw::{Kcrs, Nchw};
use crate::rng::SplitMix64;
use crate::shape::VLEN;

/// Blocked activation tensor `[N][Cb][Hp][Wp][VLEN]` (f32).
#[derive(Clone, Debug)]
pub struct BlockedActs {
    /// Minibatch size.
    pub n: usize,
    /// Logical channel count (≤ `cb * VLEN`).
    pub c: usize,
    /// Channel blocks.
    pub cb: usize,
    /// Logical spatial height (without padding).
    pub h: usize,
    /// Logical spatial width (without padding).
    pub w: usize,
    /// Physical zero padding on each border.
    pub pad: usize,
    data: AVec<f32>,
}

impl BlockedActs {
    /// Zero tensor with `c` logical channels and `pad` physical padding.
    pub fn zeros(n: usize, c: usize, h: usize, w: usize, pad: usize) -> Self {
        let cb = c.div_ceil(VLEN);
        let (hp, wp) = (h + 2 * pad, w + 2 * pad);
        Self { n, c, cb, h, w, pad, data: AVec::zeroed(n * cb * hp * wp * VLEN) }
    }

    /// Deterministically pseudo-random interior; the padding border and
    /// the channel-padding lanes stay zero (required for correctness).
    pub fn random(n: usize, c: usize, h: usize, w: usize, pad: usize, seed: u64) -> Self {
        let mut t = Self::zeros(n, c, h, w, pad);
        let mut rng = SplitMix64::new(seed);
        for n_ in 0..n {
            for c_ in 0..c {
                for h_ in 0..h {
                    for w_ in 0..w {
                        t.set(n_, c_, h_, w_, rng.next_f32());
                    }
                }
            }
        }
        t
    }

    /// Padded height.
    #[inline]
    pub fn hp(&self) -> usize {
        self.h + 2 * self.pad
    }

    /// Padded width.
    #[inline]
    pub fn wp(&self) -> usize {
        self.w + 2 * self.pad
    }

    /// Element stride between consecutive padded rows.
    #[inline]
    pub fn stride_h(&self) -> usize {
        self.wp() * VLEN
    }

    /// Element stride between channel blocks.
    #[inline]
    pub fn stride_cb(&self) -> usize {
        self.hp() * self.stride_h()
    }

    /// Element stride between minibatch samples.
    #[inline]
    pub fn stride_n(&self) -> usize {
        self.cb * self.stride_cb()
    }

    /// Flat element offset of the pixel vector at *physical* coordinates
    /// (`hp ∈ [0, Hp)`, `wp ∈ [0, Wp)`).
    #[inline]
    pub fn pix_offset(&self, n: usize, cb: usize, hp: usize, wp: usize) -> usize {
        debug_assert!(n < self.n && cb < self.cb && hp < self.hp() && wp < self.wp());
        ((n * self.cb + cb) * self.hp() + hp) * self.stride_h() + wp * VLEN
    }

    /// Flat element offset of the pixel vector at *logical* coordinates
    /// (`h ∈ [−pad, H+pad)` as an isize, likewise `w`). Callers in the
    /// convolution engines pass `ij + r − pad`-style coordinates here.
    #[inline]
    pub fn pix_offset_logical(&self, n: usize, cb: usize, h: isize, w: isize) -> usize {
        let hp = h + self.pad as isize;
        let wp = w + self.pad as isize;
        debug_assert!(hp >= 0 && (hp as usize) < self.hp(), "h={h} out of padded range");
        debug_assert!(wp >= 0 && (wp as usize) < self.wp(), "w={w} out of padded range");
        ((n * self.cb + cb) * self.hp() + hp as usize) * self.stride_h() + wp as usize * VLEN
    }

    /// Read one element by logical channel / logical spatial coords.
    #[inline]
    pub fn get(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        let off = self.pix_offset_logical(n, c / VLEN, h as isize, w as isize) + c % VLEN;
        self.data[off]
    }

    /// Write one element by logical channel / logical spatial coords.
    #[inline]
    pub fn set(&mut self, n: usize, c: usize, h: usize, w: usize, v: f32) {
        let off = self.pix_offset_logical(n, c / VLEN, h as isize, w as isize) + c % VLEN;
        self.data[off] = v;
    }

    /// Raw pointer to element 0 (padding corner of sample 0, block 0).
    #[inline]
    pub fn as_ptr(&self) -> *const f32 {
        self.data.as_ptr()
    }

    /// Raw mutable pointer to element 0.
    #[inline]
    pub fn as_mut_ptr(&mut self) -> *mut f32 {
        self.data.as_mut_ptr()
    }

    /// Backing storage.
    pub fn as_slice(&self) -> &[f32] {
        self.data.as_slice()
    }

    /// Mutable backing storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.data.as_mut_slice()
    }

    /// Zero every element (interior and padding).
    pub fn zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Import from `NCHW`, adding physical padding and channel padding.
    pub fn from_nchw(src: &Nchw, pad: usize) -> Self {
        let mut out = Self::zeros(src.n, src.c, src.h, src.w, pad);
        for n in 0..src.n {
            for c in 0..src.c {
                for h in 0..src.h {
                    for w in 0..src.w {
                        out.set(n, c, h, w, src.at(n, c, h, w));
                    }
                }
            }
        }
        out
    }

    /// Export the logical interior to `NCHW` (drops padding lanes/border).
    pub fn to_nchw(&self) -> Nchw {
        let mut out = Nchw::zeros(self.n, self.c, self.h, self.w);
        for n in 0..self.n {
            for c in 0..self.c {
                for h in 0..self.h {
                    for w in 0..self.w {
                        *out.at_mut(n, c, h, w) = self.get(n, c, h, w);
                    }
                }
            }
        }
        out
    }
}

/// Blocked filter tensor `[Kb][Cb][R][S][c][k]` (f32).
#[derive(Clone, Debug)]
pub struct BlockedFilter {
    /// Logical output channels.
    pub k: usize,
    /// Logical input channels.
    pub c: usize,
    /// Output channel blocks.
    pub kb: usize,
    /// Input channel blocks.
    pub cb: usize,
    /// Filter height.
    pub r: usize,
    /// Filter width.
    pub s: usize,
    data: AVec<f32>,
}

impl BlockedFilter {
    /// Zero filter.
    pub fn zeros(k: usize, c: usize, r: usize, s: usize) -> Self {
        let (kb, cb) = (k.div_ceil(VLEN), c.div_ceil(VLEN));
        Self { k, c, kb, cb, r, s, data: AVec::zeroed(kb * cb * r * s * VLEN * VLEN) }
    }

    /// Deterministically pseudo-random filter (padded lanes stay zero).
    pub fn random(k: usize, c: usize, r: usize, s: usize, seed: u64) -> Self {
        let mut t = Self::zeros(k, c, r, s);
        let mut rng = SplitMix64::new(seed);
        for k_ in 0..k {
            for c_ in 0..c {
                for r_ in 0..r {
                    for s_ in 0..s {
                        t.set(k_, c_, r_, s_, rng.next_f32());
                    }
                }
            }
        }
        t
    }

    /// Element stride between `(r, s)` taps: one `c × k` panel.
    #[inline]
    pub fn stride_s(&self) -> usize {
        VLEN * VLEN
    }

    /// Element stride between input-channel blocks.
    #[inline]
    pub fn stride_cb(&self) -> usize {
        self.r * self.s * self.stride_s()
    }

    /// Element stride between output-channel blocks.
    #[inline]
    pub fn stride_kb(&self) -> usize {
        self.cb * self.stride_cb()
    }

    /// Flat element offset of the `c×k` panel at `(kb, cb, r, s)`.
    #[inline]
    pub fn panel_offset(&self, kb: usize, cb: usize, r: usize, s: usize) -> usize {
        debug_assert!(kb < self.kb && cb < self.cb && r < self.r && s < self.s);
        ((kb * self.cb + cb) * self.r + r) * self.s * self.stride_s() + s * self.stride_s()
    }

    /// Read one element by logical channels.
    #[inline]
    pub fn get(&self, k: usize, c: usize, r: usize, s: usize) -> f32 {
        let off = self.panel_offset(k / VLEN, c / VLEN, r, s) + (c % VLEN) * VLEN + k % VLEN;
        self.data[off]
    }

    /// Write one element by logical channels.
    #[inline]
    pub fn set(&mut self, k: usize, c: usize, r: usize, s: usize, v: f32) {
        let off = self.panel_offset(k / VLEN, c / VLEN, r, s) + (c % VLEN) * VLEN + k % VLEN;
        self.data[off] = v;
    }

    /// Raw pointer to element 0.
    #[inline]
    pub fn as_ptr(&self) -> *const f32 {
        self.data.as_ptr()
    }

    /// Raw mutable pointer to element 0.
    #[inline]
    pub fn as_mut_ptr(&mut self) -> *mut f32 {
        self.data.as_mut_ptr()
    }

    /// Backing storage.
    pub fn as_slice(&self) -> &[f32] {
        self.data.as_slice()
    }

    /// Mutable backing storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.data.as_mut_slice()
    }

    /// Zero every element.
    pub fn zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Import from `KCRS` with channel padding.
    pub fn from_kcrs(src: &Kcrs) -> Self {
        Self::from_kcrs_iter(src.k, src.c, src.r, src.s, src.as_slice().iter().copied())
    }

    /// Import `k·c·r·s` values given in dense `[k][c][r][s]` order (the
    /// [`Kcrs`] layout) with channel padding, without materializing the
    /// dense tensor.
    pub fn from_kcrs_iter(
        k: usize,
        c: usize,
        r: usize,
        s: usize,
        values: impl IntoIterator<Item = f32>,
    ) -> Self {
        let mut out = Self::zeros(k, c, r, s);
        let mut values = values.into_iter();
        for ki in 0..k {
            for ci in 0..c {
                for ri in 0..r {
                    for si in 0..s {
                        out.set(ki, ci, ri, si, values.next().expect("k·c·r·s values"));
                    }
                }
            }
        }
        out
    }

    /// Export to `KCRS` (drops channel-padding lanes).
    pub fn to_kcrs(&self) -> Kcrs {
        let mut out = Kcrs::zeros(self.k, self.c, self.r, self.s);
        for k in 0..self.k {
            for c in 0..self.c {
                for r in 0..self.r {
                    for s in 0..self.s {
                        *out.at_mut(k, c, r, s) = self.get(k, c, r, s);
                    }
                }
            }
        }
        out
    }

    /// The backward-duality filter (Section II-I): feature-map blocks
    /// transposed and spatial taps flipped, produced directly in blocked
    /// form. `out.get(c, k, r, s) == self.get(k, c, R−1−r, S−1−s)`.
    ///
    /// This is a layer-setup-time transformation (it happens once per
    /// layer, like the JIT), so clarity beats speed here.
    pub fn transpose_flip(&self) -> BlockedFilter {
        let mut out = BlockedFilter::zeros(self.c, self.k, self.r, self.s);
        for k in 0..self.k {
            for c in 0..self.c {
                for r in 0..self.r {
                    for s in 0..self.s {
                        out.set(c, k, self.r - 1 - r, self.s - 1 - s, self.get(k, c, r, s));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acts_roundtrip_nchw() {
        let src = Nchw::random(2, 19, 5, 7, 3); // 19 channels: pads to 2 blocks
        let blk = BlockedActs::from_nchw(&src, 2);
        assert_eq!(blk.cb, 2);
        assert_eq!(blk.hp(), 9);
        let back = blk.to_nchw();
        assert_eq!(back.as_slice(), src.as_slice());
    }

    #[test]
    fn acts_padding_border_is_zero() {
        let src = Nchw::random(1, 16, 4, 4, 3);
        let blk = BlockedActs::from_nchw(&src, 1);
        // physical row 0 and column 0 are padding
        for wp in 0..blk.wp() {
            let off = blk.pix_offset_logical(0, 0, -1, wp as isize - 1);
            for v in 0..VLEN {
                assert_eq!(blk.as_slice()[off + v], 0.0);
            }
        }
    }

    #[test]
    fn acts_channel_padding_lanes_are_zero() {
        let src = Nchw::random(1, 3, 2, 2, 3);
        let blk = BlockedActs::from_nchw(&src, 0);
        for h in 0..2 {
            for w in 0..2 {
                let off = blk.pix_offset_logical(0, 0, h, w);
                for lane in 3..VLEN {
                    assert_eq!(blk.as_slice()[off + lane], 0.0);
                }
            }
        }
    }

    #[test]
    fn acts_strides_consistent() {
        let blk = BlockedActs::zeros(2, 32, 8, 8, 1);
        assert_eq!(blk.stride_h(), blk.wp() * VLEN);
        assert_eq!(blk.stride_cb(), blk.hp() * blk.stride_h());
        assert_eq!(blk.stride_n(), blk.cb * blk.stride_cb());
        assert_eq!(
            blk.pix_offset_logical(1, 1, 0, 0),
            blk.stride_n() + blk.stride_cb() + blk.pad * blk.stride_h() + blk.pad * VLEN
        );
    }

    #[test]
    fn filter_roundtrip_kcrs() {
        let src = Kcrs::random(35, 19, 3, 3, 17);
        let blk = BlockedFilter::from_kcrs(&src);
        assert_eq!((blk.kb, blk.cb), (3, 2));
        let back = blk.to_kcrs();
        assert_eq!(back.as_slice(), src.as_slice());
    }

    #[test]
    fn filter_panel_layout_is_ck() {
        // inside a panel, c is the row and k the column
        let mut f = BlockedFilter::zeros(16, 16, 1, 1);
        f.set(5, 7, 0, 0, 3.0);
        assert_eq!(f.as_slice()[7 * VLEN + 5], 3.0);
    }

    #[test]
    fn filter_transpose_flip_matches_kcrs_path() {
        let src = Kcrs::random(32, 16, 3, 3, 23);
        let blk = BlockedFilter::from_kcrs(&src);
        let a = blk.transpose_flip().to_kcrs();
        let b = src.transpose_flip();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn get_set_roundtrip_random_positions() {
        let mut blk = BlockedActs::zeros(2, 40, 6, 6, 1);
        blk.set(1, 39, 5, 0, 4.5);
        assert_eq!(blk.get(1, 39, 5, 0), 4.5);
        assert_eq!(blk.get(1, 38, 5, 0), 0.0);
    }
}
