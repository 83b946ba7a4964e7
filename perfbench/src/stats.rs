//! Order statistics and process accounting read from `/proc`.

use std::time::Instant;

/// Median and quartiles of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

/// The `q`-quantile of an ascending slice by linear interpolation
/// between closest ranks.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        len => {
            #[allow(clippy::cast_precision_loss)]
            let pos = q * (len - 1) as f64;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(len - 1);
            #[allow(clippy::cast_precision_loss)]
            let frac = pos - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

/// Median and quartiles of `values` (any order).
#[must_use]
pub fn spread(values: &[f64]) -> Spread {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Spread {
        q1: quantile(&sorted, 0.25),
        median: quantile(&sorted, 0.5),
        q3: quantile(&sorted, 0.75),
        n: sorted.len(),
    }
}

/// The highest of p90/p75/p50 that has at least ten samples above it,
/// as `(label, value)` — the tail percentile a sample of this size can
/// support. Falls back to the median.
#[must_use]
pub fn tail(sorted: &[f64]) -> (&'static str, f64) {
    let len = sorted.len();
    for (label, q) in [("p90", 0.90), ("p75", 0.75)] {
        // Samples ranked strictly above the interpolation position.
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let beyond = len.saturating_sub(1 + (q * len.saturating_sub(1) as f64).floor() as usize);
        if beyond >= 10 {
            return (label, quantile(sorted, q));
        }
    }
    ("p50", quantile(sorted, 0.5))
}

/// Linux reports `/proc/<pid>/stat` CPU times in `USER_HZ` ticks, fixed
/// at 100 per second by the kernel ABI.
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of process `pid`, in milliseconds, summed
/// over all its threads (including ones that have exited).
#[must_use]
pub fn cpu_ms(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name is parenthesised and may contain spaces; the
    // fields after it start at field 3 (`state`), so utime (field 14)
    // and stime (field 15) are the 12th and 13th.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 1000.0 / USER_HZ)
}

/// Cumulative (steal, total) CPU ticks of the whole machine from
/// `/proc/stat`: time the hypervisor ran something else while a virtual
/// CPU of this machine was ready to run.
#[must_use]
pub fn steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Share of machine CPU time stolen by the hypervisor between two
/// [`steal_ticks`] readings.
#[must_use]
pub fn steal_share(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> f64 {
    match (from, to) {
        #[allow(clippy::cast_precision_loss)]
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// Runs `f` `reps` times, starting them `spacing` apart, and returns
/// the results. Host interference on a shared machine comes in bursts;
/// spacing the repetitions samples several of them instead of one.
pub fn spaced<T>(reps: usize, spacing: std::time::Duration, mut f: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    (0..reps)
        .map(|k| {
            let due = start + spacing * u32::try_from(k).unwrap_or(u32::MAX);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            f()
        })
        .collect()
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MiB.
#[must_use]
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One completed request of a timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// When its response was complete.
    pub at: Instant,
    /// Its latency, in milliseconds.
    pub latency_ms: f64,
    /// Design points it priced.
    pub points: u64,
}

/// A CPU-time reading of the evaluating process, taken at a slice
/// boundary of the timed phase.
#[derive(Debug, Clone, Copy)]
pub struct CpuSample {
    /// When it was read.
    pub at: Instant,
    /// Cumulative user + system CPU, in milliseconds.
    pub cpu_ms: f64,
}

/// A whole-phase figure with the spread of its per-slice values.
#[derive(Debug, Clone, Copy)]
pub struct Rate {
    /// Over the whole phase.
    pub value: f64,
    /// Across slices.
    pub slices: Spread,
}

/// The end-to-end figures of one timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Throughput {
    /// Requests per second.
    pub requests_per_s: Rate,
    /// Design points per second.
    pub points_per_s: Rate,
    /// CPU milliseconds per request.
    pub cpu_ms_per_request: Rate,
    /// Request latency percentiles over every request.
    pub latency_ms: Spread,
    /// The tail percentile's label and value.
    pub tail: (&'static str, f64),
    /// Requests completed in the phase.
    pub requests: usize,
}

/// Rates over the whole timed phase (from its first to its last CPU
/// sample), the spread of the same rates across the slices between
/// consecutive samples, and pooled latency percentiles. Whole-phase
/// rates are the reported values: with heavy-tailed request times a
/// slice holds few slow requests, and its rate is far noisier than the
/// phase's.
#[must_use]
pub fn throughput(completions: &[Completion], samples: &[CpuSample]) -> Throughput {
    let mut rps = Vec::new();
    let mut pps = Vec::new();
    let mut cpr = Vec::new();
    for w in samples.windows(2) {
        let (from, to) = (w[0], w[1]);
        let in_slice: Vec<&Completion> = completions
            .iter()
            .filter(|c| c.at > from.at && c.at <= to.at)
            .collect();
        let secs = to.at.duration_since(from.at).as_secs_f64();
        if in_slice.is_empty() || secs <= 0.0 {
            continue;
        }
        #[allow(clippy::cast_precision_loss)]
        let n = in_slice.len() as f64;
        #[allow(clippy::cast_precision_loss)]
        let points: f64 = in_slice.iter().map(|c| c.points as f64).sum();
        rps.push(n / secs);
        pps.push(points / secs);
        cpr.push((to.cpu_ms - from.cpu_ms) / n);
    }
    let (first, last) = (samples[0], samples[samples.len() - 1]);
    let secs = last
        .at
        .duration_since(first.at)
        .as_secs_f64()
        .max(f64::MIN_POSITIVE);
    let timed: Vec<&Completion> = completions
        .iter()
        .filter(|c| c.at > first.at && c.at <= last.at)
        .collect();
    #[allow(clippy::cast_precision_loss)]
    let n = timed.len().max(1) as f64;
    #[allow(clippy::cast_precision_loss)]
    let points: f64 = timed.iter().map(|c| c.points as f64).sum();
    let mut latencies: Vec<f64> = completions.iter().map(|c| c.latency_ms).collect();
    latencies.sort_by(f64::total_cmp);
    Throughput {
        requests_per_s: Rate {
            value: n / secs,
            slices: spread(&rps),
        },
        points_per_s: Rate {
            value: points / secs,
            slices: spread(&pps),
        },
        cpu_ms_per_request: Rate {
            value: (last.cpu_ms - first.cpu_ms) / n,
            slices: spread(&cpr),
        },
        latency_ms: spread(&latencies),
        tail: tail(&latencies),
        requests: completions.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = spread(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        assert!((quantile(&[1.0, 2.0], 0.25) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&v).0, "p90");
        assert_eq!(tail(&v[..60]).0, "p75");
        assert_eq!(tail(&v[..20]).0, "p50");
    }

    #[test]
    fn own_process_accounting_reads() {
        let pid = std::process::id();
        assert!(cpu_ms(pid).is_some_and(|c| c >= 0.0));
        assert!(peak_rss_mb(pid).is_some_and(|m| m > 0.0));
    }
}
