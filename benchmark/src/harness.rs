//! The measuring harness: order statistics, the `compare` rule, the
//! machine block and the `/proc` readers behind `peak_rss_mib` and
//! `harness.cpu_s`.
//!
//! Nothing here knows a workload; `run.rs` drives the cycles and this
//! module turns their samples into numbers.

use serde::{Deserialize, Serialize};

/// Thread budget every pool in the benchmark is sized from.
pub fn thread_budget() -> usize {
    nproc().min(4)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Median, quartiles and spread of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// Median absolute deviation from the median.
    pub mad: f64,
    pub min: f64,
    pub n: usize,
}

impl Summary {
    /// Inter-quartile range as a share of the median — the spread the
    /// driver holds against a metric's bound.
    pub fn iqr_frac(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of `samples` (mean of the middle pair for even counts).
///
/// # Panics
/// Panics on an empty slice or a NaN sample: both are harness bugs.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile by Python's `statistics.quantiles(n=4)`
/// (the exclusive method) — the rule the driver applies to the ten run
/// values, so README spreads and driver spreads are the same arithmetic.
/// A single sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    let n = s.len();
    if n == 1 {
        return (s[0], s[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Median absolute deviation.
pub fn mad(samples: &[f64]) -> f64 {
    let m = median(samples);
    let dev: Vec<f64> = samples.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// All of the above for one sample set.
pub fn summarize(samples: &[f64]) -> Summary {
    let (q1, q3) = quartiles(samples);
    Summary {
        median: median(samples),
        q1,
        q3,
        mad: mad(samples),
        min: samples.iter().copied().fold(f64::INFINITY, f64::min),
        n: samples.len(),
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "no samples");
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    s
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Regression bound of one end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// Share of the baseline by which the metric may get worse.
    pub rel: f64,
    /// The change must *also* exceed this many units to count — the
    /// `setup_s` floor: a 30 ms set-up that doubles is not a regression.
    pub abs_floor: f64,
}

/// The three end-to-end metrics: name, unit, bound. All are
/// lower-is-better. `BENCHMARK.json` states the same relative bounds.
///
/// The bounds are sized by what ten runs at ten seeds spread to on the
/// 2-core reference VM (README, "Steadiness"): `wall_s` by 1-14 % of its
/// median in a quiet hour and more in a noisy one, `host_pipe`'s peak RSS
/// by up to 5 % with the order in which ring buffers are mapped.
pub const END_TO_END: [(&str, &str, Bound); 3] = [
    (
        "wall_s",
        "s",
        Bound {
            rel: 0.25,
            abs_floor: 0.0,
        },
    ),
    (
        "peak_rss_mib",
        "MiB",
        Bound {
            rel: 0.15,
            abs_floor: 0.0,
        },
    ),
    (
        "setup_s",
        "s",
        Bound {
            rel: 0.25,
            abs_floor: 0.25,
        },
    ),
];

/// Is `new` worse than `base` by more than `bound`, for a metric whose
/// better direction is `better`?
pub fn regressed(base: f64, new: f64, better: Better, bound: Bound) -> bool {
    let worse_by = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    worse_by > bound.rel * base.abs() && worse_by > bound.abs_floor
}

/// The machine a report was taken on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Machine {
    /// Thread budget `T = min(nproc, 4)`.
    pub threads: usize,
    pub nproc: usize,
    pub cpu_model: String,
    /// Largest cache `/sys` reports for cpu0, in bytes (0 if unreadable).
    pub llc_bytes: u64,
    pub ram_bytes: u64,
    pub rustc: String,
    pub git_commit: String,
}

impl Machine {
    /// Read the machine block. Every field degrades to `unknown`/0 when
    /// its source is missing (the driver's checkout is not a git
    /// repository).
    pub fn detect() -> Machine {
        Machine {
            threads: thread_budget(),
            nproc: nproc(),
            cpu_model: proc_field("/proc/cpuinfo", "model name").unwrap_or_else(unknown),
            llc_bytes: llc_bytes(),
            ram_bytes: proc_field("/proc/meminfo", "MemTotal")
                .and_then(|v| parse_kib(&v))
                .unwrap_or(0),
            rustc: command_line("rustc", &["--version"]),
            git_commit: command_line("git", &["rev-parse", "--short=12", "HEAD"]),
        }
    }
}

fn unknown() -> String {
    "unknown".to_string()
}

/// First `key : value` line of a `/proc` text file.
fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}

/// `"16384 kB"` → bytes.
fn parse_kib(v: &str) -> Option<u64> {
    v.split_whitespace()
        .next()?
        .parse::<u64>()
        .ok()
        .map(|k| k * 1024)
}

/// `"32K"`, `"4096K"`, `"260M"` → bytes.
fn parse_cache_size(v: &str) -> Option<u64> {
    let v = v.trim();
    let (digits, mult) = match v.chars().last()? {
        'K' => (&v[..v.len() - 1], 1u64 << 10),
        'M' => (&v[..v.len() - 1], 1 << 20),
        'G' => (&v[..v.len() - 1], 1 << 30),
        _ => (v, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * mult)
}

/// Largest cache `/sys` reports for cpu0, in bytes (0 if unreadable).
pub fn llc_bytes() -> u64 {
    (0..8)
        .filter_map(|i| {
            let path = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
            parse_cache_size(&std::fs::read_to_string(path).ok()?)
        })
        .max()
        .unwrap_or(0)
}

/// First line of a helper command's stdout, or `unknown`, run in the
/// checkout this binary was built in. The child is waited for (`output`),
/// so nothing outlives the call.
fn command_line(program: &str, args: &[&str]) -> String {
    let Ok(root) = std::fs::canonicalize(concat!(env!("CARGO_MANIFEST_DIR"), "/..")) else {
        return unknown();
    };
    std::process::Command::new(program)
        .args(args)
        .current_dir(&root)
        // Keep git inside the checkout: never adopt a repository above it.
        .env("GIT_CEILING_DIRECTORIES", &root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()?
                .lines()
                .next()
                .map(|l| l.trim().to_string())
        })
        .filter(|l| !l.is_empty())
        .unwrap_or_else(unknown)
}

/// `VmHWM` of this process in MiB: the peak resident set so far.
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| parse_kib(&v))
        .map_or(0.0, |b| b as f64 / (1u64 << 20) as f64)
}

/// User + system CPU seconds of this process and its threads so far.
pub fn cpu_seconds() -> f64 {
    // Linux reports utime/stime in USER_HZ ticks, fixed at 100 on every
    // supported architecture.
    const USER_HZ: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name, which may hold spaces.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let tick = |i: usize| fields.get(i - 3).and_then(|f| f.parse::<f64>().ok());
    match (tick(14), tick(15)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn mad_ignores_one_outlier() {
        assert_eq!(mad(&[1.0, 1.0, 1.0, 1.0, 100.0]), 0.0);
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 5.0]), 1.0);
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&ten);
        assert_eq!(s.n, 10);
        assert_eq!(s.median, 5.5);
        assert_eq!(s.min, 1.0);
        assert!((s.iqr_frac() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn relative_bound_gates_lower_is_better() {
        let b = Bound {
            rel: 0.10,
            abs_floor: 0.0,
        };
        assert!(!regressed(1.0, 1.09, Better::Lower, b));
        assert!(regressed(1.0, 1.11, Better::Lower, b));
        assert!(!regressed(1.0, 0.5, Better::Lower, b), "a gain never fails");
        assert!(regressed(100.0, 89.0, Better::Higher, b));
        assert!(!regressed(100.0, 150.0, Better::Higher, b));
    }

    #[test]
    fn setup_needs_both_the_share_and_the_absolute_floor() {
        let (_, _, setup) = END_TO_END[2];
        // Doubled, but by 30 ms: under the 0.25 s floor.
        assert!(!regressed(0.03, 0.06, Better::Lower, setup));
        // 0.3 s worse, but only 10 %: under the share.
        assert!(!regressed(3.0, 3.3, Better::Lower, setup));
        // Both exceeded.
        assert!(regressed(1.0, 1.3, Better::Lower, setup));
    }

    #[test]
    fn cache_and_meminfo_sizes_parse() {
        assert_eq!(parse_cache_size("32K\n"), Some(32 << 10));
        assert_eq!(parse_cache_size("260M"), Some(260 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_kib("16384 kB"), Some(16384 * 1024));
    }

    #[test]
    fn proc_readers_return_something_on_linux() {
        assert!(peak_rss_mib() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(thread_budget() >= 1 && thread_budget() <= 4);
    }
}
