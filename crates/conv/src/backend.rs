//! Unified kernel handles over the JIT and intrinsics backends.
//!
//! Engines never call a backend directly: they hold [`FwdKernel`] /
//! [`UpdKernel`] / [`QuantKernel`] handles constructed at layer setup.
//! `Backend::Auto` prefers real runtime code generation (the paper's
//! mechanism) and falls back to the monomorphized intrinsics family,
//! whose selection tables return the scalar kernels on hosts without
//! AVX-512 — so the same engine runs anywhere while using the fastest
//! available implementation.
//!
//! Handles are `Arc`-backed: cloning one shares the generated code
//! buffer instead of re-JITting (the cuDNN-style "handle to a compiled
//! primitive" model). A process-wide code cache keyed by the kernel
//! descriptor dedupes generation across plans — ResNet-50 repeats a
//! handful of kernel shapes dozens of times, so most plans only clone.

use jit::CodeBuffer;
use microkernel::{KernelShape, UpdShape};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Kernel backend selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// JIT when available, else intrinsics, else scalar.
    #[default]
    Auto,
    /// Force runtime code generation (panics if unavailable).
    Jit,
    /// Force the monomorphized intrinsics family.
    Intrinsics,
    /// Force the scalar kernels (correctness baseline).
    Scalar,
}

impl Backend {
    fn resolve(self) -> Backend {
        match self {
            Backend::Auto => {
                if jit::jit_available() {
                    Backend::Jit
                } else {
                    Backend::Intrinsics
                }
            }
            other => other,
        }
    }
}

/// Hit/miss counters of the process-wide kernel code cache.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelCacheStats {
    /// Handles served by cloning an existing entry.
    pub hits: usize,
    /// Handles that required generation (JIT/select).
    pub misses: usize,
}

impl KernelCacheStats {
    /// Fraction of lookups served from the cache (0 when unused).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct KernelCache {
    fwd: Mutex<HashMap<(KernelShape, Backend), FwdKernel>>,
    upd: Mutex<HashMap<(UpdShape, Backend), UpdKernel>>,
    quant: Mutex<HashMap<(KernelShape, Backend), QuantKernel>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

fn kernel_cache() -> &'static KernelCache {
    static CACHE: OnceLock<KernelCache> = OnceLock::new();
    CACHE.get_or_init(|| KernelCache {
        fwd: Mutex::new(HashMap::new()),
        upd: Mutex::new(HashMap::new()),
        quant: Mutex::new(HashMap::new()),
        hits: AtomicUsize::new(0),
        misses: AtomicUsize::new(0),
    })
}

/// Look `key` up in one of the code cache's maps, generating the
/// kernel with `make` (and counting a miss) on first request.
fn cached_in<S: Eq + Hash, K: Clone>(
    map: &Mutex<HashMap<(S, Backend), K>>,
    key: (S, Backend),
    make: impl FnOnce() -> K,
) -> K {
    let cache = kernel_cache();
    let mut map = map.lock().expect("kernel cache poisoned by a panicking generator");
    if let Some(k) = map.get(&key) {
        cache.hits.fetch_add(1, Ordering::Relaxed);
        return k.clone();
    }
    cache.misses.fetch_add(1, Ordering::Relaxed);
    let k = make();
    map.insert(key, k.clone());
    k
}

/// Counters of the process-wide kernel code cache (all kernel kinds).
pub fn kernel_cache_stats() -> KernelCacheStats {
    let c = kernel_cache();
    KernelCacheStats {
        hits: c.hits.load(Ordering::Relaxed),
        misses: c.misses.load(Ordering::Relaxed),
    }
}

/// Process-wide static-verifier counters: how many JIT kernels passed
/// verification and how many instructions were checked. Stays at zero
/// in release builds without the `jit/verify` feature (the check is
/// compiled out of [`jit::CodeBuffer::from_kernel`]).
pub fn kernel_verify_stats() -> kver::VerifyStats {
    kver::stats()
}

/// A convolution microkernel handle over the six-pointer ABI of Section
/// II-E, generic over its datatype: the dryrun's kernel table and the
/// stream replay hold these, so the f32 and the int16 forward plans
/// share one engine ([`crate::fwd::ConvPlan`]).
pub trait StreamKernel: Sync {
    /// Element type of the input and weight tensors.
    type In: Sync;
    /// Element type of the output (accumulator) tensor.
    type Out: Send;

    /// Generate/select a kernel for `shape` through the process-wide
    /// code cache: identical requests share one generated kernel, so
    /// repeated layer shapes JIT once per process.
    fn cached(shape: KernelShape, backend: Backend) -> Self;

    /// Invoke the kernel: three compute pointers, then the next
    /// invocation's three sub-tensors as prefetch hints.
    ///
    /// # Safety
    /// The pointers must be valid for the extents implied by the
    /// kernel's [`KernelShape`]; `out` must not alias `inp`/`wt`.
    unsafe fn call(
        &self,
        inp: *const Self::In,
        wt: *const Self::In,
        out: *mut Self::Out,
        pf_in: *const Self::In,
        pf_wt: *const Self::In,
        pf_out: *const Self::Out,
    );
}

enum FwdImpl {
    Jit {
        #[allow(dead_code)] // owns the mapping the fn pointer points into
        buf: CodeBuffer,
        f: jit::F32Kernel,
    },
    Portable(microkernel::FwdFn),
    Scalar,
}

/// A ready-to-call forward/backward microkernel. Cloning is cheap: the
/// generated code is shared behind an `Arc`.
#[derive(Clone)]
pub struct FwdKernel {
    shape: KernelShape,
    imp: Arc<FwdImpl>,
}

impl FwdKernel {
    /// Generate/select a kernel for `shape` on `backend`.
    pub fn new(shape: KernelShape, backend: Backend) -> Self {
        shape.validate();
        let imp = match backend.resolve() {
            Backend::Jit => {
                let code = jit::assemble_fwd(&shape);
                let buf = CodeBuffer::from_kernel(&code, &kver::KernelSpec::FwdF32(shape))
                    .expect("verified executable JIT kernel");
                // SAFETY: the buffer holds a kernel with the F32Kernel ABI.
                let f = unsafe { buf.as_f32_kernel() };
                FwdImpl::Jit { buf, f }
            }
            Backend::Intrinsics => FwdImpl::Portable(microkernel::select_fwd(&shape)),
            Backend::Scalar => FwdImpl::Scalar,
            Backend::Auto => unreachable!(),
        };
        Self { shape, imp: Arc::new(imp) }
    }

    /// The descriptor this kernel was generated for.
    #[inline]
    pub fn shape(&self) -> &KernelShape {
        &self.shape
    }

    /// Which backend the handle resolved to.
    pub fn backend_name(&self) -> &'static str {
        match *self.imp {
            FwdImpl::Jit { .. } => "jit",
            FwdImpl::Portable(_) => "intrinsics",
            FwdImpl::Scalar => "scalar",
        }
    }
}

impl StreamKernel for FwdKernel {
    type In = f32;
    type Out = f32;

    /// Keyed by the *resolved* backend, so `Auto` and an explicit
    /// `Jit` request share one kernel.
    fn cached(shape: KernelShape, backend: Backend) -> Self {
        let backend = backend.resolve();
        cached_in(&kernel_cache().fwd, (shape, backend), || Self::new(shape, backend))
    }

    #[inline]
    unsafe fn call(
        &self,
        inp: *const f32,
        wt: *const f32,
        out: *mut f32,
        pf_in: *const f32,
        pf_wt: *const f32,
        pf_out: *const f32,
    ) {
        match &*self.imp {
            FwdImpl::Jit { f, .. } => f(inp, wt, out, pf_in, pf_wt, pf_out),
            FwdImpl::Portable(f) => f(&self.shape, inp, wt, out, pf_in, pf_wt, pf_out),
            FwdImpl::Scalar => {
                microkernel::fwd::fwd_scalar(&self.shape, inp, wt, out, pf_in, pf_wt, pf_out)
            }
        }
    }
}

enum UpdImpl {
    Jit {
        #[allow(dead_code)]
        buf: CodeBuffer,
        f: jit::F32Kernel,
    },
    Portable(microkernel::UpdFn),
    Scalar,
}

/// A ready-to-call weight-gradient microkernel. Cloning shares the
/// generated code behind an `Arc`.
#[derive(Clone)]
pub struct UpdKernel {
    shape: UpdShape,
    imp: Arc<UpdImpl>,
}

impl UpdKernel {
    /// Generate/select an update kernel for `shape` on `backend`.
    pub fn new(shape: UpdShape, backend: Backend) -> Self {
        shape.validate();
        let imp = match backend.resolve() {
            Backend::Jit => {
                let code = jit::assemble_upd(&shape);
                let buf = CodeBuffer::from_kernel(&code, &kver::KernelSpec::UpdF32(shape))
                    .expect("verified executable JIT kernel");
                // SAFETY: the buffer holds a kernel with the F32Kernel ABI.
                let f = unsafe { buf.as_f32_kernel() };
                UpdImpl::Jit { buf, f }
            }
            Backend::Intrinsics => UpdImpl::Portable(microkernel::select_upd(&shape)),
            Backend::Scalar => UpdImpl::Scalar,
            Backend::Auto => unreachable!(),
        };
        Self { shape, imp: Arc::new(imp) }
    }

    /// As [`UpdKernel::new`] but through the process-wide code cache.
    pub fn cached(shape: UpdShape, backend: Backend) -> Self {
        let backend = backend.resolve();
        cached_in(&kernel_cache().upd, (shape, backend), || Self::new(shape, backend))
    }

    /// The descriptor this kernel was generated for.
    #[inline]
    pub fn shape(&self) -> &UpdShape {
        &self.shape
    }

    /// Invoke: `(input@tap, dO, dW_panel, prefetch…)`.
    ///
    /// # Safety
    /// Pointer validity per the [`UpdShape`] extents; `dw` must not
    /// alias the inputs.
    #[inline]
    pub unsafe fn call(
        &self,
        inp: *const f32,
        dout: *const f32,
        dw: *mut f32,
        pf_in: *const f32,
        pf_do: *const f32,
        pf_dw: *const f32,
    ) {
        match &*self.imp {
            UpdImpl::Jit { f, .. } => f(inp, dout, dw, pf_in, pf_do, pf_dw),
            UpdImpl::Portable(f) => f(&self.shape, inp, dout, dw, pf_in, pf_do, pf_dw),
            UpdImpl::Scalar => {
                microkernel::upd::upd_scalar(&self.shape, inp, dout, dw, pf_in, pf_do, pf_dw)
            }
        }
    }
}

enum QuantImpl {
    Jit {
        #[allow(dead_code)]
        buf: CodeBuffer,
        f: jit::I16Kernel,
    },
    Portable(microkernel::QuantFn),
    Scalar,
}

/// A ready-to-call int16 microkernel (Section II-K). Cloning shares
/// the generated code behind an `Arc`.
#[derive(Clone)]
pub struct QuantKernel {
    shape: KernelShape,
    imp: Arc<QuantImpl>,
}

impl QuantKernel {
    /// Generate/select an int16 kernel. The JIT path additionally
    /// requires AVX-512 VNNI on the host.
    pub fn new(shape: KernelShape, backend: Backend) -> Self {
        shape.validate();
        let jit_ok = jit::jit_available() && microkernel::has_vnni();
        let imp = match backend {
            Backend::Jit | Backend::Auto if jit_ok => {
                let code = jit::assemble_quant(&shape);
                let buf = CodeBuffer::from_kernel(&code, &kver::KernelSpec::QuantI16(shape))
                    .expect("verified executable JIT kernel");
                // SAFETY: the buffer holds a kernel with the I16Kernel ABI.
                let f = unsafe { buf.as_i16_kernel() };
                QuantImpl::Jit { buf, f }
            }
            Backend::Jit => panic!("JIT int16 backend requires executable memory + AVX-512 VNNI"),
            Backend::Scalar => QuantImpl::Scalar,
            _ => QuantImpl::Portable(microkernel::select_quant(&shape)),
        };
        Self { shape, imp: Arc::new(imp) }
    }

    /// The descriptor this kernel was generated for.
    #[inline]
    pub fn shape(&self) -> &KernelShape {
        &self.shape
    }
}

impl StreamKernel for QuantKernel {
    type In = i16;
    type Out = i32;

    /// Keyed on the *unresolved* backend: int16 resolution depends on
    /// host VNNI support, which is constant for the process lifetime.
    fn cached(shape: KernelShape, backend: Backend) -> Self {
        cached_in(&kernel_cache().quant, (shape, backend), || Self::new(shape, backend))
    }

    #[inline]
    unsafe fn call(
        &self,
        inp: *const i16,
        wt: *const i16,
        out: *mut i32,
        pf_in: *const i16,
        pf_wt: *const i16,
        pf_out: *const i32,
    ) {
        match &*self.imp {
            QuantImpl::Jit { f, .. } => f(inp, wt, out, pf_in, pf_wt, pf_out),
            QuantImpl::Portable(f) => f(&self.shape, inp, wt, out, pf_in, pf_wt, pf_out),
            QuantImpl::Scalar => {
                microkernel::quant::quant_scalar(&self.shape, inp, wt, out, pf_in, pf_wt, pf_out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::VLEN;

    fn shape() -> KernelShape {
        KernelShape {
            rbp: 1,
            rbq: 8,
            r: 1,
            s: 1,
            stride: 1,
            cb_inner: 1,
            in_row_stride: 16 * VLEN,
            in_cb_stride: 16 * 16 * VLEN,
            out_row_stride: 16 * VLEN,
            out_col_stride: VLEN,
            init_zero: true,
            prefetch: false,
        }
    }

    #[test]
    fn cached_handles_share_generated_code() {
        // a shape no other test uses, so the cache key is private to
        // this test; the global counters are only checked with >=
        // because sibling tests mutate them concurrently
        let mut sh = shape();
        sh.rbq = 7;
        let before = kernel_cache_stats();
        let a = FwdKernel::cached(sh, Backend::Intrinsics);
        let b = FwdKernel::cached(sh, Backend::Intrinsics);
        let after = kernel_cache_stats();
        assert!(Arc::ptr_eq(&a.imp, &b.imp), "cache must hand out the same impl");
        assert!(after.hits > before.hits, "second lookup must hit");
        assert!(after.misses > before.misses, "first lookup must miss");
        assert!(after.hit_rate() > 0.0);
    }

    #[test]
    fn clones_are_cheap_and_identical() {
        let k = FwdKernel::new(shape(), Backend::Scalar);
        let c = k.clone();
        assert!(Arc::ptr_eq(&k.imp, &c.imp));
        assert_eq!(k.backend_name(), c.backend_name());
    }

    #[test]
    fn auto_prefers_jit_when_available() {
        let k = FwdKernel::new(shape(), Backend::Auto);
        if jit::jit_available() {
            assert_eq!(k.backend_name(), "jit");
        } else {
            assert_eq!(k.backend_name(), "intrinsics");
        }
    }

    #[test]
    fn all_backends_agree() {
        let sh = shape();
        let inp: Vec<f32> = (0..sh.in_cb_stride + 256).map(|i| (i % 13) as f32 * 0.25).collect();
        let wt: Vec<f32> = (0..256).map(|i| (i % 7) as f32 * 0.5 - 1.0).collect();
        let run = |backend| {
            let k = FwdKernel::new(sh, backend);
            let mut out = vec![0.0f32; 16 * 16 * VLEN];
            // SAFETY: buffers sized for the shape's extents above.
            unsafe {
                k.call(
                    inp.as_ptr(),
                    wt.as_ptr(),
                    out.as_mut_ptr(),
                    std::ptr::null(),
                    std::ptr::null(),
                    std::ptr::null(),
                )
            };
            out
        };
        let scalar = run(Backend::Scalar);
        let intr = run(Backend::Intrinsics);
        assert!(tensor::Norms::compare(&scalar, &intr).ok(1e-5));
        if jit::jit_available() {
            let j = run(Backend::Jit);
            assert!(tensor::Norms::compare(&scalar, &j).ok(1e-5));
        }
    }
}
