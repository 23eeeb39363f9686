//! Sample buffers, percentiles and registry-snapshot differences.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gapl::event::Scalar;
use pscache::{HistogramSnapshot, MetricsSnapshot};

/// Latency samples in nanoseconds. The buffer is allocated and touched
/// up front, so the process's peak memory does not grow with throughput:
/// a faster program records more samples into the same pages.
pub struct Samples {
    ns: Vec<u32>,
    dropped: u64,
    /// Measurement start, for samples recorded with [`Samples::push_at`].
    start: Option<Instant>,
    /// `bounds[i]` is the index of the first sample of window `i`.
    bounds: Vec<usize>,
}

impl Samples {
    pub fn with_capacity(cap: usize) -> Samples {
        let mut ns = Vec::with_capacity(cap);
        ns.resize(cap, 1);
        ns.clear();
        Samples {
            ns,
            dropped: 0,
            start: None,
            bounds: Vec::new(),
        }
    }

    /// Forget every sample and start windows at `start`.
    pub fn restart(&mut self, start: Instant) {
        self.ns.clear();
        self.dropped = 0;
        self.start = Some(start);
        self.bounds.clear();
    }

    /// Record a sample that completed at `now`, into its [`WINDOW`].
    pub fn push_at(&mut self, d: Duration, now: Instant) {
        if let Some(start) = self.start {
            let w = (now.saturating_duration_since(start).as_nanos() / WINDOW.as_nanos()) as usize;
            while self.bounds.len() <= w {
                self.bounds.push(self.ns.len());
            }
        }
        self.push(d);
    }

    fn window(&self, i: usize) -> &[u32] {
        let at = |j: usize| self.bounds.get(j).copied().unwrap_or(self.ns.len());
        &self.ns[at(i)..at(i + 1)]
    }

    pub fn push(&mut self, d: Duration) {
        if self.ns.len() == self.ns.capacity() {
            self.dropped += 1;
            return;
        }
        self.ns
            .push(u32::try_from(d.as_nanos()).unwrap_or(u32::MAX));
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn extend(&mut self, other: &Samples) {
        for &v in &other.ns {
            if self.ns.len() == self.ns.capacity() {
                self.dropped += 1;
            } else {
                self.ns.push(v);
            }
        }
    }

    /// Nearest-rank quantile in microseconds (0 when empty).
    pub fn quantile_us(&self, q: f64) -> f64 {
        quantile_us(&self.ns, q)
    }
}

/// Nearest-rank quantile of nanosecond samples, in microseconds.
pub fn quantile_us(ns: &[u32], q: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    f64::from(sorted[rank - 1]) / 1000.0
}

/// Length of one measurement window. End-to-end figures come from the
/// windows the host disturbed least, so a burst of CPU steal moves
/// which windows count, not the figure.
pub const WINDOW: Duration = Duration::from_millis(500);

/// Host CPU steal in each [`WINDOW`] of a measured interval, read from
/// `/proc/stat` at every window boundary by a background thread.
pub struct StealMonitor {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<f64>>,
}

impl StealMonitor {
    pub fn start(start: Instant) -> StealMonitor {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let mut prev = crate::host::cpu_jiffies();
        let thread = std::thread::spawn(move || {
            let mut steal = Vec::new();
            for i in 1u32.. {
                let due = start + WINDOW * i;
                while !flag.load(Ordering::Acquire) && Instant::now() < due {
                    std::thread::park_timeout(due.saturating_duration_since(Instant::now()));
                }
                if flag.load(Ordering::Acquire) {
                    break;
                }
                let now = crate::host::cpu_jiffies();
                steal.push(crate::host::steal_pct(prev, now));
                prev = now;
            }
            steal
        });
        StealMonitor { stop, thread }
    }

    /// Stop and return the steal percentage of every completed window.
    pub fn finish(self) -> Vec<f64> {
        self.stop.store(true, Ordering::Release);
        self.thread.thread().unpark();
        self.thread.join().expect("steal monitor panicked")
    }
}

/// Latency samples a window needs for its own p99 (ten beyond it).
const MIN_WINDOW_SAMPLES: usize = 1_000;

/// Window statistics of a measured interval of length `elapsed`.
pub struct Steady {
    /// Completions per second: the mean of the middle half of the
    /// windows (whole-window counts would make a plain median an integer
    /// that can repeat exactly from run to run).
    pub per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Which windows were used, for the run's record.
    pub note: String,
}

/// Over the third of the whole windows of `elapsed` in which the host
/// stole the least CPU time (`steal`, per window): completions per second
/// (samples in `completions`), and the p50 and p99 of `latency` — the
/// median of each window's own when every kept window holds enough
/// samples, else over the kept windows' samples pooled. The choice of
/// windows depends only on the hypervisor's accounting, never on what
/// the program did in the window.
pub fn steady(
    completions: &[&Samples],
    latency: &[&Samples],
    elapsed: Duration,
    steal: &[f64],
) -> Steady {
    let windows = ((elapsed.as_nanos() / WINDOW.as_nanos()) as usize).max(1);
    let secs = if elapsed < WINDOW { elapsed } else { WINDOW }.as_secs_f64();
    let stolen = |w: usize| steal.get(w).copied().unwrap_or(f64::INFINITY);
    let mut ranked: Vec<f64> = (0..windows).map(stolen).collect();
    ranked.sort_by(f64::total_cmp);
    // Every window as quiet as the third-quietest one counts, so ties
    // (often many windows at 0%) are all kept rather than cut by time.
    let kept_max = ranked[windows.div_ceil(3) - 1];
    let order: Vec<usize> = (0..windows).filter(|&w| stolen(w) <= kept_max).collect();
    let note = format!(
        "windows: kept {} of {windows} with steal <= {kept_max:.1}%; all windows {:.1}..{:.1}%",
        order.len(),
        steal.iter().copied().fold(f64::INFINITY, f64::min),
        steal.iter().copied().fold(0.0, f64::max)
    );
    let per_s: Vec<f64> = order
        .iter()
        .map(|&w| completions.iter().map(|s| s.window(w).len()).sum::<usize>() as f64 / secs)
        .collect();
    let kept: Vec<Vec<u32>> = order
        .iter()
        .map(|&w| latency.iter().flat_map(|s| s.window(w)).copied().collect())
        .collect();
    // A window's p99 needs ten samples beyond it; with fewer, the kept
    // windows' samples are pooled instead.
    let (p50_us, p99_us) = if kept.iter().all(|k| k.len() >= MIN_WINDOW_SAMPLES) {
        let p50: Vec<f64> = kept.iter().map(|k| quantile_us(k, 0.5)).collect();
        let p99: Vec<f64> = kept.iter().map(|k| quantile_us(k, 0.99)).collect();
        (median(&p50), median(&p99))
    } else {
        let pooled = kept.concat();
        (quantile_us(&pooled, 0.5), quantile_us(&pooled, 0.99))
    };
    Steady {
        per_s: interquartile_mean(&per_s),
        p50_us,
        p99_us,
        note,
    }
}

/// Mean of the values between the first and third quartile.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mid = &v[n / 4..n - n / 4];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Median of a small set of values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Two scrapes of a node's metrics registry; every figure is the
/// difference `after - before`, so set-up traffic is excluded.
pub struct RegistryDiff {
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
}

impl RegistryDiff {
    pub fn counter(&self, name: &str) -> u64 {
        let a = self.after.counter(name).unwrap_or(0);
        let b = self.before.counter(name).unwrap_or(0);
        a.saturating_sub(b)
    }

    /// The histogram of values recorded between the scrapes.
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        let empty = HistogramSnapshot {
            name: name.to_owned(),
            count: 0,
            sum: 0,
            buckets: Vec::new(),
        };
        let after = self.after.histogram(name).unwrap_or(&empty);
        let before = self.before.histogram(name).unwrap_or(&empty);
        let buckets = after
            .buckets
            .iter()
            .filter_map(|&(i, n)| {
                let old = before
                    .buckets
                    .iter()
                    .find(|&&(j, _)| j == i)
                    .map_or(0, |&(_, m)| m);
                (n > old).then(|| (i, n - old))
            })
            .collect();
        HistogramSnapshot {
            name: name.to_owned(),
            count: after.count.saturating_sub(before.count),
            sum: after.sum.saturating_sub(before.sum),
            buckets,
        }
    }

    /// Quantile `q` of a nanosecond histogram, in microseconds. The
    /// registry's buckets carry at most 12.5% relative error.
    pub fn quantile_us(&self, name: &str, q: f64) -> f64 {
        self.histogram(name).quantile(q) as f64 / 1000.0
    }
}

/// Order-sensitive FNV-1a over a row of values.
pub fn fnv(mut h: u64, values: &[Scalar]) -> u64 {
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for v in values {
        match v {
            Scalar::Int(i) => eat(&i.to_le_bytes()),
            Scalar::Bool(b) => eat(&[2, u8::from(*b)]),
            Scalar::Str(s) => eat(s.as_bytes()),
            Scalar::Real(r) => eat(&r.to_bits().to_le_bytes()),
            Scalar::Tstamp(t) => eat(&t.to_le_bytes()),
        }
        eat(&[0xff]);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
