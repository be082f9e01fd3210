//! Reduced-precision (int16) tensor layouts for the quantized kernels
//! (Section II-K).
//!
//! Knights Mill's `4VNNIW` (and AVX-512 VNNI's `vpdpwssd`) multiply
//! *pairs* of adjacent int16 values held in one 32-bit lane and
//! accumulate into int32. To feed that instruction with plain loads and
//! 32-bit broadcasts:
//!
//! * activations keep the natural channel order `[N][Cb][Hp][Wp][VLEN]`
//!   of i16 — a 32-bit broadcast at an even channel offset carries the
//!   channel pair `(c, c+1)`;
//! * filters interleave the channel pair innermost:
//!   `[Kb][Cb][R][S][c/2][k][2]`, so one 512-bit load yields, for every
//!   output lane `k`, the pair `(w[c][k], w[c+1][k])` packed into a
//!   32-bit lane;
//! * outputs accumulate in int32 `[N][Kb][P][Q][VLEN]` — this is why
//!   the paper's int16 kernels move the same number of output bytes as
//!   fp32 and cannot reach a 2× speedup.

use crate::align::AVec;
use crate::rng::SplitMix64;
use crate::shape::VLEN;

/// Largest magnitude representable in the symmetric int8 quantization
/// range. Values are carried in i16 VNNI containers but saturate at
/// `±127` — the symmetric choice avoids the `-128` asymmetry so a
/// quantized value can always be negated without overflow.
pub const I8_QMAX: f32 = 127.0;

/// Round-to-nearest-even quantization saturating at the symmetric i8
/// edges `[-127, 127]`. NaN inputs quantize to 0, so a degenerate scale
/// can never poison the tensor.
///
/// Equal to `v.round_ties_even().clamp(-127.0, 127.0) as i16` for every
/// f32, but free of the `roundevenf` library call that `round_ties_even`
/// becomes without SSE4.1 and of the saturating float→int cast, so the
/// loops calling it vectorize: after the clamp, `v + 1.5·2²³` lies in
/// `[2²³, 2²⁴)` where the f32 spacing is 1, so the add rounds `v` to the
/// nearest even integer in the default rounding mode, and that integer
/// is the sum's mantissa offset from `1.5·2²³`.
#[inline]
pub fn rne_sat_i8(v: f32) -> i16 {
    const ROUND: f32 = 12_582_912.0; // 1.5 · 2²³
    let v = if v.is_nan() { 0.0 } else { v.clamp(-I8_QMAX, I8_QMAX) };
    ((v + ROUND).to_bits() as i32 - ROUND.to_bits() as i32) as i16
}

/// Quantize one `[Hp][Wp][VLEN]` activation plane per channel lane:
/// `dst[i] = rne_sat_i8(src[i] · inv_scale[i % VLEN])`. Zero padding in
/// `src` quantizes to exact zeros.
///
/// # Panics
/// If `dst` and `src` differ in length, the length is not a multiple of
/// `VLEN`, or `inv_scale` does not hold exactly `VLEN` scales.
pub fn quantize_plane(dst: &mut [i16], src: &[f32], inv_scale: &[f32]) {
    assert_eq!(dst.len(), src.len(), "plane length mismatch");
    assert_eq!(src.len() % VLEN, 0, "plane is not whole pixel vectors");
    let inv: &[f32; VLEN] = inv_scale.try_into().expect("one inverse scale per lane");
    for (d, s) in dst.chunks_exact_mut(VLEN).zip(src.chunks_exact(VLEN)) {
        for ((d, &x), &i) in d.iter_mut().zip(s).zip(inv) {
            *d = rne_sat_i8(x * i);
        }
    }
}

/// Blocked int16 activations `[N][Cb][Hp][Wp][VLEN]`.
#[derive(Clone, Debug)]
pub struct VnniActs {
    pub n: usize,
    pub c: usize,
    pub cb: usize,
    pub h: usize,
    pub w: usize,
    pub pad: usize,
    data: AVec<i16>,
}

impl VnniActs {
    /// Zero tensor.
    pub fn zeros(n: usize, c: usize, h: usize, w: usize, pad: usize) -> Self {
        let cb = c.div_ceil(VLEN);
        let (hp, wp) = (h + 2 * pad, w + 2 * pad);
        Self { n, c, cb, h, w, pad, data: AVec::zeroed(n * cb * hp * wp * VLEN) }
    }

    /// Deterministic small random interior (range safe for long i32
    /// accumulation chains); padding stays zero.
    pub fn random(n: usize, c: usize, h: usize, w: usize, pad: usize, seed: u64) -> Self {
        let mut t = Self::zeros(n, c, h, w, pad);
        let mut rng = SplitMix64::new(seed);
        for n_ in 0..n {
            for c_ in 0..c {
                for h_ in 0..h {
                    for w_ in 0..w {
                        t.set(n_, c_, h_, w_, rng.next_i16());
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

    /// Element stride between padded rows.
    #[inline]
    pub fn stride_h(&self) -> usize {
        self.wp() * VLEN
    }

    /// Element stride between channel blocks.
    #[inline]
    pub fn stride_cb(&self) -> usize {
        self.hp() * self.stride_h()
    }

    /// Element stride between samples.
    #[inline]
    pub fn stride_n(&self) -> usize {
        self.cb * self.stride_cb()
    }

    /// Flat offset of a pixel vector by logical coordinates.
    #[inline]
    pub fn pix_offset_logical(&self, n: usize, cb: usize, h: isize, w: isize) -> usize {
        let hp = h + self.pad as isize;
        let wp = w + self.pad as isize;
        debug_assert!(hp >= 0 && (hp as usize) < self.hp());
        debug_assert!(wp >= 0 && (wp as usize) < self.wp());
        ((n * self.cb + cb) * self.hp() + hp as usize) * self.stride_h() + wp as usize * VLEN
    }

    /// Read an element by logical channel and spatial coords.
    #[inline]
    pub fn get(&self, n: usize, c: usize, h: usize, w: usize) -> i16 {
        self.data[self.pix_offset_logical(n, c / VLEN, h as isize, w as isize) + c % VLEN]
    }

    /// Write an element by logical channel and spatial coords.
    #[inline]
    pub fn set(&mut self, n: usize, c: usize, h: usize, w: usize, v: i16) {
        let off = self.pix_offset_logical(n, c / VLEN, h as isize, w as isize) + c % VLEN;
        self.data[off] = v;
    }

    /// Quantize a f32 blocked tensor with the given scale
    /// (`q = round(x / scale)`, saturating).
    pub fn quantize(src: &crate::BlockedActs, scale: f32) -> Self {
        let mut out = Self::zeros(src.n, src.c, src.h, src.w, src.pad);
        let inv = 1.0 / scale;
        for (d, s) in out.data.as_mut_slice().iter_mut().zip(src.as_slice()) {
            *d = (s * inv).round().clamp(i16::MIN as f32, i16::MAX as f32) as i16;
        }
        out
    }

    /// Raw pointer.
    #[inline]
    pub fn as_ptr(&self) -> *const i16 {
        self.data.as_ptr()
    }

    /// Backing storage.
    pub fn as_slice(&self) -> &[i16] {
        self.data.as_slice()
    }

    /// Mutable backing storage.
    pub fn as_mut_slice(&mut self) -> &mut [i16] {
        self.data.as_mut_slice()
    }
}

/// VNNI-interleaved int16 filter `[Kb][Cb][R][S][c/2][k][2]`.
#[derive(Clone, Debug)]
pub struct VnniFilter {
    pub k: usize,
    pub c: usize,
    pub kb: usize,
    pub cb: usize,
    pub r: usize,
    pub s: usize,
    data: AVec<i16>,
}

impl VnniFilter {
    /// Zero filter.
    pub fn zeros(k: usize, c: usize, r: usize, s: usize) -> Self {
        let (kb, cb) = (k.div_ceil(VLEN), c.div_ceil(VLEN));
        Self { k, c, kb, cb, r, s, data: AVec::zeroed(kb * cb * r * s * VLEN * VLEN) }
    }

    /// Deterministic small random filter.
    pub fn random(k: usize, c: usize, r: usize, s: usize, seed: u64) -> Self {
        let mut t = Self::zeros(k, c, r, s);
        let mut rng = SplitMix64::new(seed);
        for k_ in 0..k {
            for c_ in 0..c {
                for r_ in 0..r {
                    for s_ in 0..s {
                        t.set(k_, c_, r_, s_, rng.next_i16());
                    }
                }
            }
        }
        t
    }

    /// Element stride between `(r, s)` taps: one interleaved panel.
    #[inline]
    pub fn stride_s(&self) -> usize {
        VLEN * VLEN
    }

    /// Flat offset of the pair-interleaved panel at `(kb, cb, r, s)`.
    #[inline]
    pub fn panel_offset(&self, kb: usize, cb: usize, r: usize, s: usize) -> usize {
        debug_assert!(kb < self.kb && cb < self.cb && r < self.r && s < self.s);
        (((kb * self.cb + cb) * self.r + r) * self.s + s) * self.stride_s()
    }

    /// Read element by logical channels: pair-interleaved addressing.
    #[inline]
    pub fn get(&self, k: usize, c: usize, r: usize, s: usize) -> i16 {
        let base = self.panel_offset(k / VLEN, c / VLEN, r, s);
        let (cp, parity) = ((c % VLEN) / 2, c % 2);
        self.data[base + (cp * VLEN + k % VLEN) * 2 + parity]
    }

    /// Write element by logical channels.
    #[inline]
    pub fn set(&mut self, k: usize, c: usize, r: usize, s: usize, v: i16) {
        let base = self.panel_offset(k / VLEN, c / VLEN, r, s);
        let (cp, parity) = ((c % VLEN) / 2, c % 2);
        let off = base + (cp * VLEN + k % VLEN) * 2 + parity;
        self.data[off] = v;
    }

    /// Symmetric per-output-channel quantization with the per-input-
    /// channel activation scales folded into the weights.
    ///
    /// The effective weight is `w'[k,c] = w[k,c] · act_scale[c]`; each
    /// output channel gets `scale[k] = amax_c,r,s |w'[k]| / 127` (1.0
    /// for an all-zero or non-finite channel, so downstream
    /// requantization never divides by zero or produces NaN) and
    /// `q = rne_sat_i8(w'/scale[k])`. Because the activation scales are
    /// folded in here, `scale[k]` is exactly the requantization
    /// multiplier that converts the int32 accumulator back to f32. The
    /// returned vector covers the padded channel count (`kb · VLEN`,
    /// pad lanes 1.0).
    pub fn quantize_per_k(src: &crate::BlockedFilter, act_scale: &[f32]) -> (Self, Vec<f32>) {
        assert!(act_scale.len() >= src.c, "act_scale shorter than input channels");
        let mut out = Self::zeros(src.k, src.c, src.r, src.s);
        let mut mult = vec![1.0f32; out.kb * VLEN];
        let panel = VLEN * VLEN;
        // the live input channels of block `cb` (pad rows stay zero)
        let sx_of = |cb: usize| &act_scale[cb * VLEN..src.c.min((cb + 1) * VLEN)];
        let kb_blocks = src.as_slice().chunks_exact(src.stride_kb());
        let q_blocks = out.data.as_mut_slice().chunks_exact_mut(src.stride_kb());
        for (kb, ((w_kb, q_kb), mult_kb)) in
            kb_blocks.zip(q_blocks).zip(mult.chunks_exact_mut(VLEN)).enumerate()
        {
            // pass 1: per-lane amax over every [c][k] panel of the block
            let mut amax = [0.0f32; VLEN];
            for (cb, w_cb) in w_kb.chunks_exact(src.stride_cb()).enumerate() {
                for w_tap in w_cb.chunks_exact(panel) {
                    for (row, &sx) in w_tap.chunks_exact(VLEN).zip(sx_of(cb)) {
                        for (a, &w) in amax.iter_mut().zip(row) {
                            *a = a.max((w * sx).abs());
                        }
                    }
                }
            }
            // lanes past `k` keep scale 1.0 and get inverse 0, which
            // quantizes them to exact zeros whatever the source holds
            // (0·x is ±0 or NaN, both → 0)
            let mut inv = [0.0f32; VLEN];
            let live = (src.k - kb * VLEN).min(VLEN);
            for ((m, i), &a) in mult_kb.iter_mut().zip(&mut inv).zip(&amax).take(live) {
                *m = if a > 0.0 && a.is_finite() { a / I8_QMAX } else { 1.0 };
                *i = 1.0 / *m;
            }
            // pass 2: [c][k] rows into the pair-interleaved [c/2][k][2]
            let cbs =
                w_kb.chunks_exact(src.stride_cb()).zip(q_kb.chunks_exact_mut(src.stride_cb()));
            for (cb, (w_cb, q_cb)) in cbs.enumerate() {
                for (w_tap, q_tap) in w_cb.chunks_exact(panel).zip(q_cb.chunks_exact_mut(panel)) {
                    for (c, (row, &sx)) in w_tap.chunks_exact(VLEN).zip(sx_of(cb)).enumerate() {
                        let pairs = &mut q_tap[(c / 2) * 2 * VLEN..][..2 * VLEN];
                        for ((q, &w), &i) in pairs.chunks_exact_mut(2).zip(row).zip(&inv) {
                            q[c % 2] = rne_sat_i8(w * sx * i);
                        }
                    }
                }
            }
        }
        (out, mult)
    }

    /// Quantize a f32 blocked filter with the given scale.
    pub fn quantize(src: &crate::BlockedFilter, scale: f32) -> Self {
        let mut out = Self::zeros(src.k, src.c, src.r, src.s);
        let inv = 1.0 / scale;
        for k in 0..src.k {
            for c in 0..src.c {
                for r in 0..src.r {
                    for s in 0..src.s {
                        let q = (src.get(k, c, r, s) * inv)
                            .round()
                            .clamp(i16::MIN as f32, i16::MAX as f32)
                            as i16;
                        out.set(k, c, r, s, q);
                    }
                }
            }
        }
        out
    }

    /// Raw pointer.
    #[inline]
    pub fn as_ptr(&self) -> *const i16 {
        self.data.as_ptr()
    }

    /// Backing storage.
    pub fn as_slice(&self) -> &[i16] {
        self.data.as_slice()
    }
}

/// Blocked int32 tensor `[N][Kb][P][Q][VLEN]` — the accumulator/output
/// side of the quantized kernels.
#[derive(Clone, Debug)]
pub struct BlockedI32 {
    pub n: usize,
    pub k: usize,
    pub kb: usize,
    pub h: usize,
    pub w: usize,
    data: AVec<i32>,
}

impl BlockedI32 {
    /// Zero tensor (outputs carry no physical padding).
    pub fn zeros(n: usize, k: usize, h: usize, w: usize) -> Self {
        let kb = k.div_ceil(VLEN);
        Self { n, k, kb, h, w, data: AVec::zeroed(n * kb * h * w * VLEN) }
    }

    /// Element stride between rows.
    #[inline]
    pub fn stride_h(&self) -> usize {
        self.w * VLEN
    }

    /// Element stride between channel blocks.
    #[inline]
    pub fn stride_kb(&self) -> usize {
        self.h * self.stride_h()
    }

    /// Element stride between samples.
    #[inline]
    pub fn stride_n(&self) -> usize {
        self.kb * self.stride_kb()
    }

    /// Flat offset of a pixel vector.
    #[inline]
    pub fn pix_offset(&self, n: usize, kb: usize, h: usize, w: usize) -> usize {
        debug_assert!(n < self.n && kb < self.kb && h < self.h && w < self.w);
        ((n * self.kb + kb) * self.h + h) * self.stride_h() + w * VLEN
    }

    /// Read element by logical channel.
    #[inline]
    pub fn get(&self, n: usize, k: usize, h: usize, w: usize) -> i32 {
        self.data[self.pix_offset(n, k / VLEN, h, w) + k % VLEN]
    }

    /// Write element by logical channel.
    #[inline]
    pub fn set(&mut self, n: usize, k: usize, h: usize, w: usize, v: i32) {
        let off = self.pix_offset(n, k / VLEN, h, w) + k % VLEN;
        self.data[off] = v;
    }

    /// Zero all elements.
    pub fn zero(&mut self) {
        self.data.fill(0);
    }

    /// Dequantize into a f32 blocked tensor with combined scale
    /// `x = q · scale` (where `scale = in_scale · w_scale`).
    pub fn dequantize(&self, scale: f32) -> crate::BlockedActs {
        let mut out = crate::BlockedActs::zeros(self.n, self.k, self.h, self.w, 0);
        for (d, s) in out.as_mut_slice().iter_mut().zip(self.data.as_slice()) {
            *d = *s as f32 * scale;
        }
        out
    }

    /// Raw mutable pointer.
    #[inline]
    pub fn as_mut_ptr(&mut self) -> *mut i32 {
        self.data.as_mut_ptr()
    }

    /// Raw const pointer.
    #[inline]
    pub fn as_ptr(&self) -> *const i32 {
        self.data.as_ptr()
    }

    /// Backing storage.
    pub fn as_slice(&self) -> &[i32] {
        self.data.as_slice()
    }

    /// Mutable backing storage.
    pub fn as_mut_slice(&mut self) -> &mut [i32] {
        self.data.as_mut_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acts_pairing_is_natural_order() {
        // channels are stored in natural order: a 32-bit broadcast at an
        // even lane reads channels (c, c+1)
        let mut a = VnniActs::zeros(1, 16, 1, 1, 0);
        for c in 0..16 {
            a.set(0, c, 0, 0, c as i16);
        }
        let s = a.as_slice();
        for (c, &v) in s.iter().enumerate().take(16) {
            assert_eq!(v, c as i16);
        }
    }

    #[test]
    fn filter_pair_interleave() {
        let mut f = VnniFilter::zeros(16, 16, 1, 1);
        f.set(3, 4, 0, 0, 40); // even channel of pair 2
        f.set(3, 5, 0, 0, 50); // odd channel of pair 2
        let s = f.as_slice();
        // pair cp=2, k=3: offset (2*16+3)*2 = 70, parity 0/1
        assert_eq!(s[70], 40);
        assert_eq!(s[71], 50);
    }

    #[test]
    fn filter_get_set_roundtrip() {
        let mut f = VnniFilter::zeros(32, 48, 3, 3);
        f.set(17, 33, 2, 1, -7);
        assert_eq!(f.get(17, 33, 2, 1), -7);
        assert_eq!(f.get(17, 32, 2, 1), 0);
    }

    #[test]
    fn quantize_dequantize_roundtrip() {
        let src = crate::BlockedActs::random(1, 16, 4, 4, 0, 3);
        let q = VnniActs::quantize(&src, 1.0 / 256.0);
        for c in 0..16 {
            for h in 0..4 {
                for w in 0..4 {
                    let x = src.get(0, c, h, w);
                    let back = q.get(0, c, h, w) as f32 / 256.0;
                    assert!((x - back).abs() <= 0.5 / 256.0 + 1e-6);
                }
            }
        }
    }

    #[test]
    fn rne_sat_rounds_to_even_and_saturates() {
        assert_eq!(rne_sat_i8(0.5), 0);
        assert_eq!(rne_sat_i8(1.5), 2);
        assert_eq!(rne_sat_i8(2.5), 2);
        assert_eq!(rne_sat_i8(-0.5), 0);
        assert_eq!(rne_sat_i8(-1.5), -2);
        assert_eq!(rne_sat_i8(1000.0), 127);
        assert_eq!(rne_sat_i8(-1000.0), -127);
        assert_eq!(rne_sat_i8(f32::NAN), 0);
        assert_eq!(rne_sat_i8(f32::INFINITY), 127);
    }

    #[test]
    fn filter_per_k_quantization_is_symmetric_and_safe() {
        let mut w = crate::BlockedFilter::zeros(32, 16, 1, 1);
        for c in 0..16 {
            w.set(0, c, 0, 0, 0.1 * (c as f32 + 1.0));
            // channel 1 stays all-zero (degenerate)
        }
        let act_scale = vec![0.5f32; 16];
        let (q, mult) = VnniFilter::quantize_per_k(&w, &act_scale);
        assert_eq!(mult.len(), 32);
        // amax of k=0 lands exactly on ±127
        assert_eq!(q.get(0, 15, 0, 0), 127);
        // degenerate all-zero output channel: safe scale, zero weights
        assert_eq!(mult[1], 1.0);
        assert!(mult.iter().all(|m| m.is_finite() && *m > 0.0));
        assert_eq!(q.get(1, 3, 0, 0), 0);
        // round trip within half a step
        for (c, &sx) in act_scale.iter().enumerate() {
            let back = q.get(0, c, 0, 0) as f32 * mult[0] / sx;
            let err = (back - w.get(0, c, 0, 0)).abs();
            assert!(err <= 0.5 * mult[0] / sx + 1e-6, "c={c} err={err}");
        }
    }

    /// The definition `rne_sat_i8` must reproduce bit for bit.
    fn rne_ref(v: f32) -> i16 {
        v.round_ties_even().clamp(-I8_QMAX, I8_QMAX) as i16
    }

    #[test]
    fn rne_sat_matches_the_definition_on_every_f32() {
        // every bit pattern in release builds; a prime stride in debug
        let step = if cfg!(debug_assertions) { 65_521 } else { 1 };
        for bits in (0..=u32::MAX).step_by(step) {
            let v = f32::from_bits(bits);
            assert_eq!(rne_sat_i8(v), rne_ref(v), "{v:e} ({bits:#010x})");
        }
        let nans =
            [0x7fc0_0000u32, 0xffc0_0000, 0x7fc0_0001, 0x7f80_0001, 0xff80_0001, 0x7fff_ffff];
        let specials =
            [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, 126.5, 127.49, -126.5, -127.49]
                .into_iter()
                .chain(nans.map(f32::from_bits))
                .chain((-200..200).map(|k| k as f32 + 0.5));
        for v in specials {
            assert_eq!(rne_sat_i8(v), rne_ref(v), "{v:e} ({:#010x})", v.to_bits());
        }
    }

    /// The per-element definition `quantize_per_k` must reproduce: the
    /// per-k amax of `w · s_x` over every logical `(c, r, s)`, then
    /// `rne(w · s_x · (1/scale))` through `get`/`set`.
    fn quantize_per_k_ref(src: &crate::BlockedFilter, act_scale: &[f32]) -> (VnniFilter, Vec<f32>) {
        let mut out = VnniFilter::zeros(src.k, src.c, src.r, src.s);
        let mut mult = vec![1.0f32; out.kb * VLEN];
        let taps = |k: usize| {
            (0..src.c).flat_map(move |c| {
                (0..src.r).flat_map(move |r| (0..src.s).map(move |s| (k, c, r, s)))
            })
        };
        for (k, m) in mult.iter_mut().enumerate().take(src.k) {
            let amax = taps(k)
                .fold(0.0f32, |a, (k, c, r, s)| a.max((src.get(k, c, r, s) * act_scale[c]).abs()));
            *m = if amax > 0.0 && amax.is_finite() { amax / I8_QMAX } else { 1.0 };
            let inv = 1.0 / *m;
            for (k, c, r, s) in taps(k) {
                out.set(k, c, r, s, rne_ref(src.get(k, c, r, s) * act_scale[c] * inv));
            }
        }
        (out, mult)
    }

    #[test]
    fn filter_per_k_quantization_matches_the_per_element_definition() {
        // 7×7 with c = 3 (conv1); 3×3 and 1×1 with K and C off the lane
        // multiple
        for (k, c, r, seed) in [(64, 3, 7, 1u64), (20, 37, 3, 2), (33, 18, 1, 3)] {
            let mut w = crate::BlockedFilter::random(k, c, r, r, seed);
            // an all-zero input channel, an all-zero output channel, and
            // values that are not finite or sit on the saturation edge
            for (rr, ss) in (0..r).flat_map(|rr| (0..r).map(move |ss| (rr, ss))) {
                for kk in 0..k {
                    w.set(kk, 1, rr, ss, 0.0);
                }
                for cc in 0..c {
                    w.set(2, cc, rr, ss, 0.0);
                }
            }
            w.set(3, 0, 0, 0, f32::NAN);
            w.set(4, c - 1, r - 1, r - 1, f32::INFINITY);
            w.set(5, 2, 0, 0, -f32::MAX);
            w.set(6, 0, r / 2, r / 2, 1e-40);
            let act_scale: Vec<f32> =
                (0..c).map(|cc| [0.5, 1.0 / 127.0, 3.25, 1e-3][cc % 4]).collect();
            let (q, mult) = VnniFilter::quantize_per_k(&w, &act_scale);
            let (q_ref, mult_ref) = quantize_per_k_ref(&w, &act_scale);
            assert_eq!(q.as_slice(), q_ref.as_slice(), "k={k} c={c} r={r}");
            let bits = |m: &[f32]| m.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&mult), bits(&mult_ref), "k={k} c={c} r={r}");
        }
    }

    #[test]
    fn non_finite_weight_amax_gets_the_neutral_scale() {
        // f32::MAX · 2.0 overflows the folded weight to inf
        let mut w = crate::BlockedFilter::zeros(16, 16, 1, 1);
        w.set(2, 5, 0, 0, f32::MAX);
        w.set(2, 6, 0, 0, 0.25);
        let (q, mult) = VnniFilter::quantize_per_k(&w, &[2.0; 16]);
        assert!(mult[2].is_finite(), "mult {}", mult[2]);
        assert_eq!(mult[2], 1.0);
        assert_eq!((q.get(2, 5, 0, 0), q.get(2, 6, 0, 0)), (127, 0));
    }

    #[test]
    fn i32_out_roundtrip() {
        let mut o = BlockedI32::zeros(2, 32, 3, 3);
        o.set(1, 31, 2, 2, -12345);
        assert_eq!(o.get(1, 31, 2, 2), -12345);
        let f = o.dequantize(0.5);
        assert_eq!(f.get(1, 31, 2, 2), -6172.5);
    }
}
