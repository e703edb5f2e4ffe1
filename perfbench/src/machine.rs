//! The machine stamp every result carries, so figures taken on
//! different machines can be normalised against each other.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Where a result was measured.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Cores available to this process.
    pub nproc: usize,
    /// CPU model name, `"unknown"` when the platform does not say.
    pub cpu: String,
    /// Commit of the measured tree, `"unknown"` outside a git checkout.
    pub git_rev: String,
    /// ns per iteration of [`calibrate`]'s fixed loop (median of 9).
    pub calib_ns_per_iter: f64,
}

impl Machine {
    /// Stamps the current machine; `root` is the checkout root.
    pub fn stamp(root: &Path) -> Machine {
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu_model().unwrap_or_else(|| "unknown".into()),
            git_rev: git_rev(root).unwrap_or_else(|| "unknown".into()),
            calib_ns_per_iter: calibrate(),
        }
    }

    /// One-line human-readable form.
    pub fn line(&self) -> String {
        format!(
            "machine: nproc={} cpu=\"{}\" git_rev={} calib_ns_per_iter={:.4}",
            self.nproc, self.cpu, self.git_rev, self.calib_ns_per_iter
        )
    }

    /// JSON members (no braces) for the span file header.
    pub fn json_members(&self) -> String {
        format!(
            "\"nproc\":{},\"cpu\":\"{}\",\"git_rev\":\"{}\",\"calib_ns_per_iter\":{}",
            self.nproc,
            self.cpu.replace(['"', '\\'], ""),
            self.git_rev,
            self.calib_ns_per_iter
        )
    }
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(|m| m.trim().to_string())
}

/// Resolves `HEAD` by reading `.git` under `root` directly (no `git`
/// process, no search above the checkout).
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split(' ').next())
        .map(str::to_string)
}

/// A fixed, dependency-free integer loop (xorshift plus a multiply
/// chain) timed nine times; returns the median ns per iteration.
pub fn calibrate() -> f64 {
    const ITERS: u64 = 2_000_000;
    let mut samples = Vec::with_capacity(9);
    for _ in 0..9 {
        let t = Instant::now();
        let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
        let mut acc = 0u64;
        for i in 0..ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_mul(31).wrapping_add(x ^ i);
        }
        black_box(acc);
        samples.push(t.elapsed().as_nanos() as f64 / ITERS as f64);
    }
    crate::stats::median(&samples)
}
