//! Metric catalogue and the result line.

/// End-to-end metrics, reported by every workload with tracing off.
/// Each workload maps its own primary figures onto these names (see
/// README.md, "End-to-end metrics").
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by the traced run. A layer a workload
/// does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    // psrpc.client: spans around `CacheClient` calls.
    ("client.send_us.p50", "us"),
    ("client.send_us.p99", "us"),
    ("client.rtt_us.insert.p50", "us"),
    ("client.rtt_us.insert.p99", "us"),
    ("client.rtt_us.insert_batch.p50", "us"),
    ("client.rtt_us.insert_batch.p99", "us"),
    ("client.rtt_us.execute.p50", "us"),
    ("client.rtt_us.execute.p99", "us"),
    // psrpc.reactor: registry `rpc_<kind>_<stage>_ns` / `rpc_requests_<kind>`.
    ("reactor.insert.queue_us.p50", "us"),
    ("reactor.insert.queue_us.p99", "us"),
    ("reactor.insert.execute_us.p50", "us"),
    ("reactor.insert.execute_us.p99", "us"),
    ("reactor.insert.flush_us.p50", "us"),
    ("reactor.insert.flush_us.p99", "us"),
    ("reactor.insert_batch.queue_us.p50", "us"),
    ("reactor.insert_batch.queue_us.p99", "us"),
    ("reactor.insert_batch.execute_us.p50", "us"),
    ("reactor.insert_batch.execute_us.p99", "us"),
    ("reactor.insert_batch.flush_us.p50", "us"),
    ("reactor.insert_batch.flush_us.p99", "us"),
    ("reactor.execute.queue_us.p50", "us"),
    ("reactor.execute.queue_us.p99", "us"),
    ("reactor.execute.execute_us.p50", "us"),
    ("reactor.execute.execute_us.p99", "us"),
    ("reactor.execute.flush_us.p50", "us"),
    ("reactor.execute.flush_us.p99", "us"),
    ("reactor.requests.insert", "count"),
    ("reactor.requests.insert_batch", "count"),
    ("reactor.requests.execute", "count"),
    // pscache.cache write path: in-process replays.
    ("cache.insert_us.p50", "us"),
    ("cache.insert_us.p99", "us"),
    ("cache.upsert_batch_us.p50", "us"),
    ("cache.upsert_batch_us.p99", "us"),
    // pscache.wal: registry histograms and `Cache::wal_stats`.
    ("wal.append_us.p50", "us"),
    ("wal.append_us.p99", "us"),
    ("wal.commit_wait_us.p50", "us"),
    ("wal.commit_wait_us.p99", "us"),
    ("wal.fsync_us.p50", "us"),
    ("wal.fsync_us.p99", "us"),
    ("wal.records", "count"),
    ("wal.syncs", "count"),
    ("wal.records_per_sync", "ratio"),
    ("wal.checkpoints", "count"),
    ("recover.replayed_records", "count"),
    ("recover.snapshot_rows", "count"),
    // pscache.dispatch: registry `dispatch_queue_ns` and `Cache::dispatch_stats`.
    ("dispatch.queue_us.p50", "us"),
    ("dispatch.queue_us.p99", "us"),
    ("dispatch.delivered", "count"),
    ("dispatch.skipped_by_prefilter", "count"),
    ("dispatch.useful_ratio", "ratio"),
    // pscache.runtime: mailbox high-water mark and notification lag.
    ("runtime.max_mailbox_depth", "count"),
    ("runtime.notify_after_ack_us.p50", "us"),
    ("runtime.notify_after_ack_us.p99", "us"),
    // gapl.vm: `Vm::run_behavior` over the workload's tuples.
    ("vm.behavior_us.catch_all.p50", "us"),
    ("vm.behavior_us.catch_all.p99", "us"),
    ("vm.behavior_us.prefilter_hit.p50", "us"),
    ("vm.behavior_us.prefilter_hit.p99", "us"),
    ("vm.behavior_us.hybrid.p50", "us"),
    ("vm.behavior_us.hybrid.p99", "us"),
    ("vm.instructions_per_event", "count"),
    // gapl.compiler: `gapl::compile` per automaton kind.
    ("gapl.compile_us.catch_all", "us"),
    ("gapl.compile_us.prefilter_hit", "us"),
    ("gapl.compile_us.prefilter_miss", "us"),
    ("gapl.compile_us.hybrid", "us"),
    // pscache.query / plan / sql.
    ("query.select_us.p50", "us"),
    ("query.select_us.p99", "us"),
    ("query.since_us.p50", "us"),
    ("query.groupby_us.p50", "us"),
    ("plan_cache.hit_rate", "ratio"),
    ("plan_cache.misses", "count"),
    ("query.rows_per_poll", "count"),
    // host noise.
    ("host.nproc", "count"),
    ("host.timer_late_p99_us", "us"),
    ("host.steal_pct", "%"),
    // Workload-specific end-to-end figures of the untraced phase.
    ("e2e.events_per_s", "1/s"),
    ("e2e.notify_p50_us", "us"),
    ("e2e.notify_p99_us", "us"),
    ("e2e.rows_per_s", "1/s"),
    ("e2e.ack_p50_us", "us"),
    ("e2e.ack_p99_us", "us"),
    ("e2e.recover_s", "s"),
    ("e2e.queries_per_s", "1/s"),
    ("e2e.poll_p50_us", "us"),
    ("e2e.poll_p99_us", "us"),
    ("e2e.scan_p50_us", "us"),
    ("e2e.scan_p99_us", "us"),
    ("e2e.failed_ratio", "fraction"),
    // Traced minus untraced, per end-to-end metric.
    ("trace_overhead.throughput_per_s", "1/s"),
    ("trace_overhead.latency_p50_us", "us"),
    ("trace_overhead.setup_s", "s"),
    ("trace_overhead.peak_rss_mb", "MiB"),
];

/// An ordered set of named measurements.
#[derive(Clone, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64)> {
        self.0.iter()
    }
}

/// What one measured phase of a workload produced.
#[derive(Default)]
pub struct Outcome {
    /// The [`END_TO_END`] set.
    pub e2e: Metrics,
    /// Workload-specific end-to-end figures, named as in the catalogue
    /// without the `e2e.` prefix.
    pub detail: Metrics,
    /// Per-layer figures (traced phases only).
    pub layers: Metrics,
    pub attempted: u64,
    /// Failed, refused and reference-mismatched operations.
    pub failed: u64,
    pub correct: bool,
    /// Human-readable lines: reference checks and budget tables.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        self.notes.push(format!(
            "reference check {}: {what}",
            if ok { "ok" } else { "FAILED" }
        ));
        if !ok {
            self.correct = false;
        }
    }

    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Segments an untraced run measures, each on a freshly set-up server
/// (see [`fastest`]).
const SEGMENTS: u64 = 5;

/// Run `segment` [`SEGMENTS`] times, each for `seconds / SEGMENTS`
/// seconds (at least one).
pub fn segments(
    seconds: u64,
    mut segment: impl FnMut(u64) -> Result<Outcome, String>,
) -> Result<Vec<Outcome>, String> {
    let each = (seconds / SEGMENTS).max(1);
    (0..SEGMENTS).map(|_| segment(each)).collect()
}

/// Combine the segments of an untraced run into one outcome: the figures
/// of the segment with the highest throughput, `setup_s` the median of
/// the segments' set-ups, `peak_rss_mb` the process's high-water mark at
/// the end of the first segment (later segments build their servers on
/// a heap the earlier ones fragmented), and every segment's operations,
/// failures and checks.
///
/// A shared host slows a run for seconds at a time without showing as
/// CPU steal: within one 30 s `window_poll` run, 6 s segments read
/// 460–609 queries/s with no 0.5 s window above 5% steal. The host only
/// ever slows a segment, so the fastest one is the least disturbed; a
/// change that slows the program slows every segment, that one included.
pub fn fastest(parts: Vec<Outcome>) -> Outcome {
    let throughput = |p: &Outcome| p.e2e.get("throughput_per_s").unwrap_or(0.0);
    let best = (0..parts.len())
        .max_by(|&a, &b| throughput(&parts[a]).total_cmp(&throughput(&parts[b])))
        .expect("at least one segment");
    let setups: Vec<f64> = parts.iter().filter_map(|p| p.e2e.get("setup_s")).collect();
    let mut out = Outcome {
        e2e: parts[best].e2e.clone(),
        detail: parts[best].detail.clone(),
        correct: parts.iter().all(|p| p.correct),
        attempted: parts.iter().map(|p| p.attempted).sum(),
        failed: parts.iter().map(|p| p.failed).sum(),
        ..Outcome::default()
    };
    out.e2e.put("setup_s", crate::stats::median(&setups));
    out.e2e.put(
        "peak_rss_mb",
        parts[0].e2e.get("peak_rss_mb").unwrap_or(0.0),
    );
    out.notes.push(format!(
        "reported: segment {best} of {}, the fastest",
        parts.len()
    ));
    for (i, p) in parts.into_iter().enumerate() {
        out.notes.push(format!(
            "segment {i}: throughput {:.1}/s, latency p50 {:.1} us, set-up {:.3} s",
            throughput(&p),
            p.e2e.get("latency_p50_us").unwrap_or(0.0),
            p.e2e.get("setup_s").unwrap_or(0.0)
        ));
        out.notes
            .extend(p.notes.into_iter().map(|n| format!("  {n}")));
    }
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The result line: one JSON object with every metric of `catalogue`
/// (a metric the run did not produce reads 0).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    catalogue: &[(&str, &str)],
) -> String {
    let body: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(metrics.get(name).unwrap_or(0.0))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
