//! The pinned run shape, seeded inputs and process-level measurements.

use crate::Args;

/// Rank pool width every workload runs at. The rank worlds already put
/// 4–5 ranks on the host's cores, so a wider pool would only oversubscribe.
pub const POOL_THREADS: usize = 1;

/// Everything about how a workload runs that the environment could
/// otherwise change (`NEK_SCHED_MODE`, `NEK_EXEC_MODE`, `NEK_WIRE`,
/// `NEK_POOL_THREADS`): the workloads set each explicitly.
pub struct RunShape {
    pub sched: commsim::SchedMode,
    pub exec: &'static str,
    pub wire: &'static str,
    pub pool_threads: usize,
}

impl RunShape {
    pub fn for_workload(workload: &str) -> Result<Self, String> {
        let (exec, wire) = match workload {
            "insitu_pb146" => ("synchronous", "none"),
            "intransit_rbc" => ("concurrent", "channel"),
            "staging_fanout" => ("concurrent", "tcp"),
            other => {
                return Err(format!(
                    "unknown workload {other} (insitu_pb146|intransit_rbc|staging_fanout)"
                ))
            }
        };
        Ok(Self {
            sched: commsim::SchedMode::Thread,
            exec,
            wire,
            pool_threads: POOL_THREADS,
        })
    }

    /// One line recording the shape with the host and build it ran on.
    pub fn describe(&self, args: &Args) -> String {
        let host_threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        format!(
            "workload={} seed={} trace={} sched={} exec={} wire={} pool_threads={} host_threads={} commit={} profile={}",
            args.workload,
            args.seed,
            u8::from(args.trace),
            self.sched.label(),
            self.exec,
            self.wire,
            self.pool_threads,
            host_threads,
            git_commit(),
            if cfg!(debug_assertions) { "debug" } else { "release" },
        )
    }
}

/// The checked-out commit read from `.git` in the working directory, or
/// `unknown` outside a git work tree (the benchmark reads nothing outside
/// its checkout, so it does not ask `git`).
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(std::path::Path::new(".git").join(p)).ok();
    let head = read("HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => read(r).map(|s| s.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(String::from)
        }),
        None => Some(head.to_string()),
    };
    match id {
        Some(id) if id.len() >= 12 => id[..12].to_string(),
        _ => "unknown".into(),
    }
}

/// A number in [0, 1) drawn from `seed` (splitmix64); `salt` separates
/// the inputs one seed generates.
pub fn unit(seed: u64, salt: u64) -> f64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// `centre` moved by up to ±`rel` of itself, drawn from `seed`.
pub fn band(seed: u64, salt: u64, centre: f64, rel: f64) -> f64 {
    centre * (1.0 + rel * (2.0 * unit(seed, salt) - 1.0))
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_inputs_repeat_and_stay_in_band() {
        for seed in 0..200 {
            let v = band(seed, 1, 1.0, 0.02);
            assert!((0.98..=1.02).contains(&v));
            assert_eq!(v.to_bits(), band(seed, 1, 1.0, 0.02).to_bits());
        }
        assert_ne!(unit(1, 1), unit(2, 1));
        assert_ne!(unit(1, 1), unit(1, 2));
    }
}
