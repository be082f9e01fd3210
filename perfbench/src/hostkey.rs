//! A host key that stays the same from run to run on one host.
//!
//! It names what the numbers depend on (CPU model, AVX-512 and VNNI
//! support, core count, whether the JIT runs, source revision, result
//! schema) and nothing measured, so two runs on one host share a key.

/// Version of the result layout; bump when a metric changes meaning.
pub const SCHEMA: &str = "perfbench/1";

/// The host key as one JSON object.
pub fn host_key() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_default()
    };
    let flags = field("flags");
    let has = |f: &str| flags.split_whitespace().any(|x| x == f);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"schema\":\"{SCHEMA}\",\"cpu\":\"{}\",\"avx512f\":{},\"avx512_vnni\":{},\"nproc\":{nproc},\"jit\":{},\"rev\":\"{}\"}}",
        field("model name").replace('"', "'"),
        has("avx512f"),
        has("avx512_vnni"),
        anatomy::jit::jit_available(),
        git_rev(),
    )
}

/// `git rev-parse HEAD` of the working directory, or `"none"` when the
/// working directory is not itself the root of a git checkout (git is
/// kept from searching the directories above it).
fn git_rev() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().map(|p| p.as_os_str().to_owned()).unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "none".to_string())
}
