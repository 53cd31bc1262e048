//! Small shared helpers: statistics, process memory, and the
//! benchmark's scratch directory.

use std::path::PathBuf;

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in [0, 1] of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Peak resident set (`VmHWM`) of process `pid` in MB, read from
/// `/proc`; `None` when the process is gone or `/proc` is absent.
pub fn vm_hwm_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of this process in MB.
pub fn self_peak_rss_mb() -> f64 {
    vm_hwm_mb("self").unwrap_or(0.0)
}

/// The repository root this benchmark was built from.
pub fn repo_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// A fresh per-process scratch directory under `.bench_work/` at the
/// repository root (listed in `.gitignore`).
pub fn work_dir(tag: &str) -> PathBuf {
    let dir = repo_root()
        .join(".bench_work")
        .join(format!("{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the benchmark scratch directory");
    dir
}

/// 64-bit FNV-1a, folded incrementally.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Ordered metric list for the result line.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        // `+ 0.0` turns a negative zero into zero.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        self.0.retain(|m| m.name != name);
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}
