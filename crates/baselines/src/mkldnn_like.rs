//! The "MKL-DNN" stand-in: the same specialized convolution
//! microkernels as the optimized engine, *without* kernel streams,
//! layer fusion or the two-level cross-invocation prefetch.
//!
//! The paper states MKL-DNN v0.12 is "a productization of core ideas
//! presented here" minus exactly those extras, and measures it within
//! ±20% of "this work". This baseline models that delta: every loop
//! iteration recomputes tile offsets and branches on tile geometry at
//! runtime (the "complicated, branchy logic" Section II-H eliminates),
//! and the prefetch arguments point at the *current* sub-tensors.

use crate::ConvBaseline;
use conv::backend::{Backend, FwdKernel, StreamKernel};
use conv::blocking;
use microkernel::KernelShape;
use parallel::{FlatPartition, ThreadPool};
use std::collections::HashMap;
use tensor::{BlockedActs, BlockedFilter, ConvShape, VLEN};

/// Direct convolution without streams/fusion/cross-invocation prefetch.
pub struct MkldnnConv {
    shape: ConvShape,
    kernels: Vec<FwdKernel>,
    variants: HashMap<(usize, usize, bool), usize>,
    rbp: usize,
    rbq: usize,
    cb_inner: usize,
}

impl MkldnnConv {
    /// Generate the kernel variants (same generator as the engine).
    pub fn new(shape: ConvShape, _threads: usize) -> Self {
        let b = blocking::choose(&shape);
        let in_row = (shape.w + 2 * shape.pad) * VLEN;
        let in_cb = (shape.h + 2 * shape.pad) * in_row;
        let (p, q) = (shape.p(), shape.q());
        let mut kernels = Vec::new();
        let mut variants = HashMap::new();
        let mut rows_set = vec![b.rbp.min(p)];
        if p % b.rbp != 0 {
            rows_set.push(p % b.rbp);
        }
        let mut cols_set = vec![b.rbq.min(q)];
        if q % b.rbq != 0 {
            cols_set.push(q % b.rbq);
        }
        for &rows in &rows_set {
            for &cols in &cols_set {
                for init in [true, false] {
                    if !init && shape.cb() == b.cb_inner {
                        continue; // single reduction step: only init form
                    }
                    variants.entry((rows, cols, init)).or_insert_with(|| {
                        kernels.push(FwdKernel::new(
                            KernelShape {
                                rbp: rows,
                                rbq: cols,
                                r: shape.r,
                                s: shape.s,
                                stride: shape.stride,
                                cb_inner: b.cb_inner,
                                in_row_stride: in_row,
                                in_cb_stride: in_cb,
                                out_row_stride: q * VLEN,
                                out_col_stride: VLEN,
                                init_zero: init,
                                prefetch: false, // no cross-invocation prefetch
                            },
                            Backend::Auto,
                        ));
                        kernels.len() - 1
                    });
                }
            }
        }
        Self { shape, kernels, variants, rbp: b.rbp, rbq: b.rbq, cb_inner: b.cb_inner }
    }
}

impl ConvBaseline for MkldnnConv {
    fn name(&self) -> &'static str {
        "mkldnn"
    }

    fn forward(
        &self,
        pool: &ThreadPool,
        input: &BlockedActs,
        weights: &BlockedFilter,
        output: &mut BlockedActs,
    ) {
        let sh = &self.shape;
        let (p, q) = (sh.p(), sh.q());
        let (tp, tq) = (p.div_ceil(self.rbp), q.div_ceil(self.rbq));
        let cb_steps = sh.cb() / self.cb_inner;
        let part = FlatPartition::new([sh.n, sh.kb(), tp, tq]);
        let in_ptr = crate::xsmm_loops::SendConst2(input.as_ptr());
        let wt_ptr = crate::xsmm_loops::SendConst2(weights.as_ptr());
        let out_ptr = crate::xsmm_loops::SendMut2(output.as_mut_ptr());
        let in_row = input.stride_h();
        let in_cb = input.stride_cb();
        let in_n = input.stride_n();
        let out_row = output.stride_h();
        let out_kb = output.stride_cb();
        let out_n = output.stride_n();
        let wt_cb = sh.r * sh.s * VLEN * VLEN;
        let wt_kb = sh.cb() * wt_cb;
        pool.run(|ctx| {
            for item in part.range(ctx.nthreads, ctx.tid) {
                // the branchy per-iteration logic streams would remove:
                let [n, kb, tj, ti] = part.unflatten(item);
                let rows = self.rbp.min(p - tj * self.rbp);
                let cols = self.rbq.min(q - ti * self.rbq);
                let (oj, oi) = (tj * self.rbp, ti * self.rbq);
                let out_off = n * out_n + kb * out_kb + oj * out_row + oi * VLEN;
                for cbs in 0..cb_steps {
                    let var = self.variants[&(rows, cols, cbs == 0)];
                    let cb0 = cbs * self.cb_inner;
                    let in_off = n * in_n
                        + cb0 * in_cb
                        + (oj * sh.stride) * in_row
                        + (oi * sh.stride) * VLEN;
                    let wt_off = kb * wt_kb + cb0 * wt_cb;
                    // SAFETY: offsets in-bounds; disjoint output tiles.
                    unsafe {
                        let ip = in_ptr.get().add(in_off);
                        let wp = wt_ptr.get().add(wt_off);
                        let op = out_ptr.get().add(out_off);
                        self.kernels[var].call(ip, wp, op, ip, wp, op);
                    }
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_problem;
    use conv::reference::conv_fwd_ref;
    use tensor::{Nchw, Norms};

    #[test]
    fn matches_reference_on_deep_1x1() {
        let shape = ConvShape::new(2, 64, 32, 8, 8, 1, 1, 1, 0);
        let pool = ThreadPool::new(3);
        let (x, w, xb, wb, mut yb) = random_problem(&shape);
        MkldnnConv::new(shape, 3).forward(&pool, &xb, &wb, &mut yb);
        let mut y_ref = Nchw::zeros(shape.n, shape.k, shape.p(), shape.q());
        conv_fwd_ref(&shape, &x, &w, &mut y_ref);
        let n = Norms::compare(BlockedActs::from_nchw(&y_ref, 0).as_slice(), yb.as_slice());
        assert!(n.ok(1e-4), "{n}");
    }
}
