//! What the numbers were measured on: the host fingerprint stamped on
//! every output, thread placement, and the process's peak memory.

use std::process::Command;
use std::sync::OnceLock;

use crate::report::quote;

/// Identifies host + toolchain + code. Two results are comparable only
/// if their fingerprints are equal; `repeat` refuses to mix them.
#[derive(Debug)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub simd_level: &'static str,
    pub rustc: String,
    pub git_rev: String,
    pub shards: usize,
}

/// First line of a command's standard output, or `unknown` (the driver's
/// checkout is not a git repository).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// CPUs this process may run on, as seen by the first call — which
/// must come before [`pin_generator`] narrows the calling thread to one.
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Worker shards: every CPU but the load generator's, at most 4.
pub fn shards() -> usize {
    (nproc().saturating_sub(1)).clamp(1, 4)
}

impl Fingerprint {
    pub fn capture() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Self {
            nproc: nproc(),
            cpu_model,
            simd_level: ofalgo::simd_level(),
            rustc: first_line("rustc", &["--version"]),
            git_rev: first_line("git", &["rev-parse", "--short=12", "HEAD"]),
            shards: shards(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"simd_level\": {}, \"rustc\": {}, \"git_rev\": {}, \"shards\": {}}}",
            self.nproc,
            quote(&self.cpu_model),
            quote(self.simd_level),
            quote(&self.rustc),
            quote(&self.git_rev),
            self.shards
        )
    }
}

/// Pins the calling thread (the load generator) to the last CPU; the
/// runtime pins worker `i` to CPU `i`, so with `nproc - 1` shards they
/// never share one. Best-effort, like the runtime's own pinning.
pub fn pin_generator() -> bool {
    mtl_runtime::pin::pin_to_cpu(nproc() - 1)
}

/// Places the calling thread, the churn phase's updater: on CPU
/// `nproc - 2` — a CPU of its own once there are six, the last worker's
/// on a smaller host — at the lowest priority (`nice 19`), so that a
/// worker woken by a batch takes its CPU back at once. What the updater
/// then does to traffic latency is what its publishes do (a snapshot
/// refresh, a cold flow cache, a dropped table), not what the scheduler
/// does; and the generator's CPU stays the generator's. Unplaced, the
/// updater lands on either CPU of a 2-CPU host and `lat_p50_us` doubles
/// from one run to the next; on the generator's CPU it starves whenever
/// the generator spins. Best-effort, like the pinning.
pub fn place_updater() {
    extern "C" {
        /// `which == 0` (`PRIO_PROCESS`) with `who == 0` targets the
        /// calling thread on Linux.
        fn setpriority(which: i32, who: u32, prio: i32) -> i32;
    }
    mtl_runtime::pin::pin_to_cpu(nproc().saturating_sub(2));
    // SAFETY: a plain syscall wrapper taking integers only.
    #[cfg(target_os = "linux")]
    unsafe {
        setpriority(0, 0, 19);
    }
}

/// A memory line of `/proc/self/status` — `VmHWM:` (peak resident set)
/// or `VmRSS:` (resident now) — in MiB.
pub fn rss_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
