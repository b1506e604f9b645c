//! Quantiles and the host fingerprint printed with every result.

use std::process::Command;

/// The `q`-quantile of `v` by nearest rank (sorts `v`); NaN when empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// The machine-wide CPU tick counters of `/proc/stat`.
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// Reads the `cpu` line; all zero where `/proc/stat` is missing, so
    /// every steal share reads as 0.
    pub fn now() -> Self {
        let fields: Vec<u64> = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|text| {
                let line = text.lines().next()?.strip_prefix("cpu ")?.to_string();
                Some(
                    line.split_whitespace()
                        .filter_map(|f| f.parse().ok())
                        .collect(),
                )
            })
            .unwrap_or_default();
        // user nice system idle iowait irq softirq steal (guest time is
        // already inside user and nice).
        let steal = fields.get(7).copied().unwrap_or(0);
        let total = fields.iter().take(8).sum();
        CpuTicks { steal, total }
    }

    /// The share of CPU time since `earlier` that the hypervisor gave to
    /// other guests while this one wanted to run.
    pub fn steal_share_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// `nproc`, the CPU model and `rustc -V`: results are only comparable
/// between runs with the same fingerprint.
pub fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!("nproc={nproc} cpu=\"{cpu}\" rustc=\"{rustc}\"")
}
