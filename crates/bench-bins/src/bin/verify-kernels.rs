//! verify-kernels: static-verification sweep over every JIT kernel the
//! plan layer can request for the paper's layer populations.
//!
//! For each distinct shape of ResNet-50 Table I plus the Inception-v3
//! layer sweep, and for *every* autotuner candidate blocking
//! (`conv::tune::candidates`), the bin enumerates the exact kernel
//! variants a dryrun would generate — main tiles, spatial remainders,
//! init/accumulate `cb` steps, prefetch on and off; the enumerators
//! derive each variant with the same function the f32 and int16
//! dryruns use, so one list covers both — assembles each
//! through all three emitters (f32 forward, f32 weight-update, int16
//! VNNI), and runs `kver::verify` on the raw bytes: decode, ABI
//! structure, register discipline, and symbolic memory bounds at every
//! loop iteration. No executable memory is mapped, so the sweep runs
//! identically on hosts without AVX-512.
//!
//! Output: one stdout row per layer, a `kernels-verified` summary row,
//! and `BENCH_verify_kernels.json`. Any violation is printed and the
//! process exits 1. `--limit N` caps the layer count (0 = all).

use bench_bins::arg_usize;
use conv::fwd::kernel_shape_variants;
use conv::tune;
use conv::upd::upd_shape_variants;
use jit::{assemble_fwd, assemble_quant, assemble_upd};
use kver::{verify, KernelSpec, Report};
use microkernel::{KernelShape, UpdShape};
use std::collections::HashSet;
use tensor::ConvShape;

/// Accumulated sweep counters.
#[derive(Default)]
struct Totals {
    kernels: usize,
    instructions: usize,
    steps: usize,
    code_bytes: usize,
    /// Verified kernels per class: f32 fwd, int16 quant, f32 upd.
    per_class: [usize; 3],
    violations: Vec<String>,
}

impl Totals {
    fn record(
        &mut self,
        class: usize,
        label: &str,
        what: &str,
        r: Result<Report, kver::Violation>,
    ) {
        match r {
            Ok(rep) => {
                self.kernels += 1;
                self.instructions += rep.instructions;
                self.steps += rep.steps;
                self.code_bytes += rep.code_bytes;
                self.per_class[class] += 1;
            }
            Err(v) => self.violations.push(format!("{label}: {what}: {v}")),
        }
    }
}

fn main() {
    let limit = arg_usize("--limit", 0);
    let minibatch = arg_usize("--minibatch", 4);

    // layer population: ResNet-50 Table I + Inception-v3, deduplicated
    let mut layers: Vec<(String, ConvShape)> = Vec::new();
    let mut seen = HashSet::new();
    for (id, s) in topologies::resnet50_table1(minibatch) {
        if seen.insert(s) {
            layers.push((format!("resnet50:{id}"), s));
        }
    }
    for (id, s) in topologies::inception_v3_layers(minibatch) {
        if seen.insert(s) {
            layers.push((format!("inception:{id}"), s));
        }
    }
    if limit > 0 {
        let dropped = layers.len().saturating_sub(limit);
        layers.truncate(limit);
        if dropped > 0 {
            eprintln!("# --limit {limit}: skipping {dropped} layers");
        }
    }
    eprintln!("# verify-kernels: {} distinct layers, all tune candidates", layers.len());

    let mut seen_fwd: HashSet<KernelShape> = HashSet::new();
    let mut seen_upd: HashSet<UpdShape> = HashSet::new();
    let mut totals = Totals::default();
    for (label, shape) in &layers {
        let before = totals.kernels;
        let candidates = tune::candidates(shape);
        for blocking in &candidates {
            for prefetch in [false, true] {
                for sh in kernel_shape_variants(shape, blocking, prefetch) {
                    if !seen_fwd.insert(sh) {
                        continue; // population overlap across layers/candidates
                    }
                    totals.record(
                        0,
                        label,
                        "fwd",
                        verify(&assemble_fwd(&sh), &KernelSpec::FwdF32(sh)),
                    );
                    totals.record(
                        1,
                        label,
                        "quant",
                        verify(&assemble_quant(&sh), &KernelSpec::QuantI16(sh)),
                    );
                }
                for sh in upd_shape_variants(shape, blocking, prefetch) {
                    if !seen_upd.insert(sh) {
                        continue;
                    }
                    totals.record(
                        2,
                        label,
                        "upd",
                        verify(&assemble_upd(&sh), &KernelSpec::UpdF32(sh)),
                    );
                }
            }
        }
        println!(
            "verify-kernels\t{label}\t{shape}\tcandidates={}\tkernels={}",
            candidates.len(),
            totals.kernels - before
        );
    }

    println!(
        "verify-kernels\tsummary\tlayers={}\tkernels-verified={}\tinstructions={}\tsteps={}\t\
         code_kb={}\tfwd={}\tquant={}\tupd={}\tviolations={}",
        layers.len(),
        totals.kernels,
        totals.instructions,
        totals.steps,
        totals.code_bytes / 1024,
        totals.per_class[0],
        totals.per_class[1],
        totals.per_class[2],
        totals.violations.len()
    );

    let json = format!(
        "{{\n  \"bench\": \"verify_kernels\",\n  \"layers\": {},\n  \
         \"kernels_verified\": {},\n  \"instructions_checked\": {},\n  \
         \"interpreted_steps\": {},\n  \"code_bytes\": {},\n  \
         \"fwd_kernels\": {},\n  \"quant_kernels\": {},\n  \"upd_kernels\": {},\n  \
         \"violations\": {}\n}}\n",
        layers.len(),
        totals.kernels,
        totals.instructions,
        totals.steps,
        totals.code_bytes,
        totals.per_class[0],
        totals.per_class[1],
        totals.per_class[2],
        totals.violations.len()
    );
    std::fs::write("BENCH_verify_kernels.json", json).expect("write BENCH_verify_kernels.json");
    eprintln!("# wrote BENCH_verify_kernels.json");

    if !totals.violations.is_empty() {
        for v in &totals.violations {
            eprintln!("VIOLATION {v}");
        }
        std::process::exit(1);
    }
}
