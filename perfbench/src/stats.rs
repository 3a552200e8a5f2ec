//! Order statistics, the seeded input generator, and host facts.

use std::time::Duration;

/// Median of `v` (mean of the two middle values for an even count).
/// `v` need not be sorted. Returns NaN for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in `(0, 1]` of `v`. NaN when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Arithmetic mean; NaN when empty.
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Milliseconds in a duration, with every digit kept.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in a duration, with every digit kept.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A splitmix64 stream: every input the benchmark generates comes from
/// one of these, keyed by the run seed and a per-purpose stream id.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in the inclusive range `[lo, hi]`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        let span = (hi - lo) as u64 + 1;
        lo + (self.next_u64() % span) as i64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Open upper parameter bounds are capped here when drawing points.
pub const OPEN_UPPER_CAP: i64 = 1_000_000;

/// One parameter point drawn uniformly within the declared bounds.
pub fn in_bounds_point(
    bounds: &offload_core::ParamBounds,
    arity: usize,
    rng: &mut Rng,
) -> Vec<i64> {
    (0..arity)
        .map(|i| {
            let lo = bounds.lower(i).unwrap_or(0);
            let hi = bounds.upper(i).unwrap_or(OPEN_UPPER_CAP);
            rng.range(lo, hi)
        })
        .collect()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The CPU model name, from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Samples kept per one-second slice and connection.
const SLICE_RESERVOIR: usize = 4096;

/// Per-op latencies of a timed window, split into one-second slices.
/// Each slice counts its ops and work units exactly and keeps a uniform
/// reservoir of its latencies, allocated up front, so memory does not
/// grow with the run's length or rate. Ops that complete after the last
/// whole second are dropped.
pub struct Slices {
    start: std::time::Instant,
    slices: Vec<Slice>,
    rng: Rng,
}

struct Slice {
    seen: u64,
    units: u64,
    /// (latency in ms, whether the op was traced).
    samples: Vec<(f64, bool)>,
}

impl Slices {
    pub fn new(start: std::time::Instant, seconds: u64, seed: u64) -> Slices {
        Slices {
            start,
            slices: (0..seconds)
                .map(|_| Slice {
                    seen: 0,
                    units: 0,
                    samples: Vec::with_capacity(SLICE_RESERVOIR),
                })
                .collect(),
            rng: Rng::new(seed, 0x5EC),
        }
    }

    /// Records one op that completed at `at`, took `ms`, and did `units`
    /// units of work.
    pub fn record(&mut self, at: std::time::Instant, ms: f64, traced: bool, units: u64) {
        let idx = at.saturating_duration_since(self.start).as_secs() as usize;
        let Some(slice) = self.slices.get_mut(idx) else {
            return;
        };
        slice.seen += 1;
        slice.units += units;
        if slice.samples.len() < SLICE_RESERVOIR {
            slice.samples.push((ms, traced));
        } else {
            let j = (self.rng.next_u64() % slice.seen) as usize;
            if j < SLICE_RESERVOIR {
                slice.samples[j] = (ms, traced);
            }
        }
    }

    /// Folds another connection's slices (same start and length) in.
    pub fn merge(&mut self, other: Slices) {
        for (a, b) in self.slices.iter_mut().zip(other.slices) {
            a.seen += b.seen;
            a.units += b.units;
            a.samples.extend(b.samples);
        }
    }

    /// Medians over the slices of each slice's median latency, p99
    /// latency, and work units per second.
    pub fn summary(&self) -> (f64, f64, f64) {
        let full: Vec<&Slice> = self
            .slices
            .iter()
            .filter(|s| !s.samples.is_empty())
            .collect();
        let lat = |s: &Slice| s.samples.iter().map(|x| x.0).collect::<Vec<f64>>();
        let p50: Vec<f64> = full.iter().map(|s| median(&lat(s))).collect();
        let p99: Vec<f64> = full.iter().map(|s| percentile(&lat(s), 0.99)).collect();
        let rate: Vec<f64> = full.iter().map(|s| s.units as f64).collect();
        (median(&p50), median(&p99), median(&rate))
    }

    /// Sampled latencies of traced and of untraced ops.
    pub fn split_traced(&self) -> (Vec<f64>, Vec<f64>) {
        let pick = |traced: bool| {
            let all = self.slices.iter().flat_map(|s| &s.samples);
            all.filter(|x| x.1 == traced).map(|x| x.0).collect()
        };
        (pick(true), pick(false))
    }
}
