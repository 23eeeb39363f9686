//! `window_poll`: the paper's Fig. 1 polling loop. One connection paces
//! single-row inserts into a preloaded `Flows` stream; the other runs a
//! closed serial loop of `select * from Flows since τ`, advancing τ on
//! every poll, with every fourth query a `group by dstip` sum.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use cep_workloads::FlowGenerator;
use gapl::event::Scalar;
use pscache::{Cache, CacheBuilder, PlanCacheStats};
use psrpc::message::CacheReply;
use psrpc::{CacheClient, ReactorServer};

use crate::flows_cep::{generator, next_event, CREATE_FLOWS};
use crate::report::{self, Outcome};
use crate::stats::{self, fnv, RegistryDiff, Samples, FNV_OFFSET};
use crate::{host, Args, Mode, Stop};

const PRELOAD: u64 = 50_000;
const PRELOAD_BATCH: u64 = 1_000;
/// The writer's pace: one insert every 500 µs (2,000 rows/s).
const WRITE_INTERVAL: Duration = Duration::from_micros(500);
const WARMUP: Duration = Duration::from_secs(1);
/// The stream's window: exactly the preload, so every insert evicts one
/// row and a scan reads the same number of rows all run long.
const STREAM_CAPACITY: usize = PRELOAD as usize;
/// Queries replayed in-process for `query.since_us` / `query.groupby_us`.
const REPLAY_QUERIES: usize = 800;
const SAMPLE_CAP: usize = 200_000;

const SCAN: &str = "select sum(nbytes) from Flows group by dstip";
const SEQ_COL: usize = 7;

/// `Flows` as in `flows_cep`, with the window capped at the preload.
fn create_flows() -> String {
    format!("{CREATE_FLOWS} capacity {STREAM_CAPACITY}")
}

fn poll_sql(tau: u64) -> String {
    format!("select * from Flows since {tau}")
}

struct Served {
    cache: Cache,
    server: ReactorServer,
    writer: CacheClient,
    poller: CacheClient,
    /// Timestamp of the newest preloaded row: the first τ.
    tau: u64,
}

fn setup(seed: u64) -> Result<(Served, FlowGenerator), String> {
    let cache = CacheBuilder::new().build();
    let server = ReactorServer::bind(cache.clone(), "127.0.0.1:0").map_err(|e| e.to_string())?;
    let writer = CacheClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
    let poller = CacheClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
    writer.execute(&create_flows()).map_err(|e| e.to_string())?;
    let mut gen = generator(seed);
    let mut tau = 0;
    for b in 0..PRELOAD / PRELOAD_BATCH {
        let rows = (0..PRELOAD_BATCH)
            .map(|i| next_event(&mut gen, b * PRELOAD_BATCH + i))
            .collect();
        let ts = writer
            .insert_batch("Flows", rows)
            .map_err(|e| e.to_string())?;
        tau = ts.into_iter().fold(tau, u64::max);
    }
    Ok((
        Served {
            cache,
            server,
            writer,
            poller,
            tau,
        },
        gen,
    ))
}

fn teardown(s: Served) {
    drop(s.writer);
    drop(s.poller);
    s.server.shutdown();
    s.cache.shutdown();
}

#[derive(Default)]
struct Polled {
    /// Next writer `seq` the polls must return.
    expected: u64,
    /// Rows returned out of order, twice, or never.
    violations: u64,
    rows: u64,
    polls: u64,
    scans: u64,
    failed: u64,
}

struct Sampled {
    poll: Samples,
    scan: Samples,
    ack: Samples,
    send: Samples,
}

impl Sampled {
    fn new(traced: bool) -> Sampled {
        Sampled {
            poll: Samples::with_capacity(SAMPLE_CAP),
            scan: Samples::with_capacity(SAMPLE_CAP),
            ack: Samples::with_capacity(SAMPLE_CAP),
            send: Samples::with_capacity(if traced { 2 * SAMPLE_CAP } else { 0 }),
        }
    }

    fn restart(&mut self, start: Instant) {
        self.poll.restart(start);
        self.scan.restart(start);
        self.ack.restart(start);
    }
}

/// Send one query and wait for its rows.
fn query(
    client: &CacheClient,
    sql: &str,
    send: Option<&mut Samples>,
) -> Result<Vec<psrpc::message::WireRow>, String> {
    let t = Instant::now();
    let pending = client.begin_execute(sql).map_err(|e| e.to_string())?;
    if let Some(s) = send {
        s.push(t.elapsed());
    }
    match pending.wait().map_err(|e| e.to_string())? {
        CacheReply::Rows { rows, .. } => Ok(rows),
        other => Err(format!("expected rows, got {other:?}")),
    }
}

/// Check a poll's rows against the writer's sequence and advance τ.
fn absorb(rows: &[psrpc::message::WireRow], tau: &mut u64, p: &mut Polled) {
    for r in rows {
        match r.values.get(SEQ_COL).and_then(Scalar::as_int) {
            Some(seq) if seq as u64 == p.expected => p.expected += 1,
            _ => p.violations += 1,
        }
        *tau = (*tau).max(r.tstamp);
    }
    p.rows += rows.len() as u64;
}

/// Writer and poller until `stop`; the poller then catches up with one
/// unsampled poll. Returns the poller's measured wall time.
#[allow(clippy::too_many_arguments)]
fn drive(
    s: &Served,
    gen: &mut FlowGenerator,
    next_seq: &mut u64,
    tau: &mut u64,
    polled: &mut Polled,
    stop: Stop,
    sampled: &mut Sampled,
    traced: bool,
) -> Result<Duration, String> {
    let writer_done = AtomicBool::new(false);
    let start = Instant::now();
    sampled.restart(start);
    let Sampled {
        poll,
        scan,
        ack,
        send,
    } = sampled;
    let elapsed = std::thread::scope(|scope| -> Result<Duration, String> {
        let writer = scope.spawn(|| {
            let mut failed = 0u64;
            let mut i = 0u32;
            loop {
                let due = start + WRITE_INTERVAL * i;
                let stop_now = match stop {
                    Stop::At(t) => due >= t,
                    Stop::Count(n) => u64::from(i) >= n,
                };
                if stop_now {
                    break;
                }
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                let values = next_event(gen, *next_seq);
                let sent = Instant::now();
                match s.writer.insert("Flows", values) {
                    Ok(_) => {
                        let now = Instant::now();
                        ack.push_at(now - sent, now);
                    }
                    Err(_) => failed += 1,
                }
                *next_seq += 1;
                i += 1;
            }
            writer_done.store(true, Ordering::Release);
            failed
        });
        let mut q = 0u64;
        let mut result = Ok(());
        while !writer_done.load(Ordering::Acquire) {
            let send = traced.then_some(&mut *send);
            if q % 4 == 3 {
                let t = Instant::now();
                match query(&s.poller, SCAN, send) {
                    Ok(_) => {
                        let now = Instant::now();
                        scan.push_at(now - t, now);
                    }
                    Err(e) => {
                        polled.failed += 1;
                        result = Err(e);
                        break;
                    }
                }
                polled.scans += 1;
            } else {
                let t = Instant::now();
                match query(&s.poller, &poll_sql(*tau), send) {
                    Ok(rows) => {
                        let now = Instant::now();
                        poll.push_at(now - t, now);
                        absorb(&rows, tau, polled);
                    }
                    Err(e) => {
                        polled.failed += 1;
                        result = Err(e);
                        break;
                    }
                }
                polled.polls += 1;
            }
            q += 1;
        }
        let elapsed = start.elapsed();
        polled.failed += writer.join().expect("writer thread panicked");
        result?;
        let rows = query(&s.poller, &poll_sql(*tau), None)?;
        absorb(&rows, tau, polled);
        Ok(elapsed)
    })?;
    Ok(elapsed)
}

/// `dstip -> sum(nbytes)` from a group-by result.
fn sums(rows: &[Vec<Scalar>]) -> BTreeMap<String, i64> {
    rows.iter()
        .filter_map(|r| {
            let ip = r.iter().find_map(|v| v.as_str().map(str::to_owned))?;
            let sum = r.iter().find_map(|v| match v {
                Scalar::Int(i) => Some(*i),
                Scalar::Real(f) => Some(*f as i64),
                _ => None,
            })?;
            Some((ip, sum))
        })
        .collect()
}

/// Sums over the rows the stream still holds: the newest
/// [`STREAM_CAPACITY`] of everything inserted.
fn reference_sums(seed: u64, total: u64) -> BTreeMap<String, i64> {
    let mut gen = generator(seed);
    let first_kept = total.saturating_sub(STREAM_CAPACITY as u64);
    let mut out = BTreeMap::new();
    for seq in 0..total {
        let f = gen.next_flow();
        if seq >= first_kept {
            *out.entry(f.dstip).or_insert(0) += f.nbytes;
        }
    }
    out
}

/// The poller's loop replayed through `Cache::execute` on an in-process
/// cache: two rows inserted before each query, every fourth a scan.
fn replay_queries(seed: u64) -> Result<(Samples, Samples), String> {
    let cache = CacheBuilder::new().build();
    let err = |e: pscache::Error| e.to_string();
    cache.execute(&create_flows()).map_err(err)?;
    let mut gen = generator(seed);
    let mut tau = 0;
    for b in 0..PRELOAD / PRELOAD_BATCH {
        let rows = (0..PRELOAD_BATCH)
            .map(|i| next_event(&mut gen, b * PRELOAD_BATCH + i))
            .collect();
        tau = cache
            .insert_batch("Flows", rows)
            .map_err(err)?
            .into_iter()
            .fold(tau, u64::max);
    }
    let mut seq = PRELOAD;
    let (mut since, mut groupby) = (
        Samples::with_capacity(REPLAY_QUERIES),
        Samples::with_capacity(REPLAY_QUERIES),
    );
    for q in 0..REPLAY_QUERIES {
        for _ in 0..2 {
            cache
                .insert("Flows", next_event(&mut gen, seq))
                .map_err(err)?;
            seq += 1;
        }
        if q % 4 == 3 {
            let t = Instant::now();
            cache.execute(SCAN).map_err(err)?;
            groupby.push(t.elapsed());
        } else {
            let t = Instant::now();
            let rs = cache
                .execute(&poll_sql(tau))
                .map_err(err)?
                .rows()
                .unwrap_or_default();
            since.push(t.elapsed());
            tau = rs.rows.iter().map(|r| r.tstamp).fold(tau, u64::max);
        }
    }
    cache.shutdown();
    Ok((since, groupby))
}

/// An untraced run measures segments ([`report::segments`]) and reports
/// the fastest ([`report::fastest`]). Short segments also keep every run
/// on the same stretch of the group-by's slowdown as the writer replaces
/// preloaded rows (README.md). A traced run measures one segment of a
/// fixed amount of work.
pub fn run(args: &Args, mode: Mode) -> Result<Outcome, String> {
    let mut g = generator(args.seed);
    let digest = (0..1_000).fold(FNV_OFFSET, |h, seq| fnv(h, &next_event(&mut g, seq)));
    let mut out = match mode {
        Mode::Traced => segment(args, mode, args.seconds)?,
        Mode::Untraced => {
            report::fastest(report::segments(args.seconds, |s| segment(args, mode, s))?)
        }
    };
    out.notes.insert(0, format!("inputs digest {digest:016x}"));
    Ok(out)
}

/// One set-up, warm-up and measured interval of `seconds` (untraced) or
/// of a fixed number of writer rows (traced), with the reference checks.
fn segment(args: &Args, mode: Mode, seconds: u64) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let traced = mode == Mode::Traced;
    let t = Instant::now();
    let (s, mut gen) = setup(args.seed)?;
    let setup_s = t.elapsed().as_secs_f64();
    let mut tau = s.tau;
    let mut next_seq = PRELOAD;
    let mut polled = Polled {
        expected: PRELOAD,
        ..Polled::default()
    };

    let warm = match mode {
        Mode::Untraced => Stop::At(Instant::now() + WARMUP),
        Mode::Traced => Stop::Count((WARMUP.as_micros() / WRITE_INTERVAL.as_micros()) as u64),
    };
    let mut warm_samples = Sampled::new(false);
    drive(
        &s,
        &mut gen,
        &mut next_seq,
        &mut tau,
        &mut polled,
        warm,
        &mut warm_samples,
        false,
    )?;
    drop(warm_samples);
    let carried = Polled {
        expected: polled.expected,
        violations: polled.violations,
        failed: polled.failed,
        ..Polled::default()
    };
    let warm_polled = std::mem::replace(&mut polled, carried);

    let before = if traced {
        Some(s.poller.metrics().map_err(|e| e.to_string())?)
    } else {
        None
    };
    let plans_before = s.cache.plan_cache_stats();
    let writes = seconds * 1_000_000 / WRITE_INTERVAL.as_micros() as u64;
    let stop = match mode {
        Mode::Untraced => Stop::At(Instant::now() + Duration::from_secs(seconds)),
        Mode::Traced => Stop::Count(writes),
    };
    let mut sampled = Sampled::new(traced);
    let monitor = stats::StealMonitor::start(Instant::now());
    let elapsed = drive(
        &s,
        &mut gen,
        &mut next_seq,
        &mut tau,
        &mut polled,
        stop,
        &mut sampled,
        traced,
    )?;
    let steal = monitor.finish();
    let rss = host::peak_rss_mb();
    let registry = match before {
        Some(before) => Some(RegistryDiff {
            before,
            after: s.poller.metrics().map_err(|e| e.to_string())?,
        }),
        None => None,
    };
    let plans_after = s.cache.plan_cache_stats();

    // Quiesced: the writer has stopped and the poller has caught up.
    let final_scan = query(&s.poller, SCAN, None)?;
    teardown(s);

    let total = next_seq;
    let queries = polled.polls + polled.scans;
    out.attempted = (total - PRELOAD) + queries + warm_polled.polls + warm_polled.scans;
    out.failed = polled.failed;
    let window = match mode {
        Mode::Untraced => Duration::from_secs(seconds),
        Mode::Traced => elapsed,
    };
    let steady = stats::steady(
        &[&sampled.poll, &sampled.scan],
        &[&sampled.poll],
        window,
        &steal,
    );
    out.notes.push(steady.note.clone());
    let (throughput, p50, p99) = (steady.per_s, steady.p50_us, steady.p99_us);
    out.e2e.put("throughput_per_s", throughput);
    out.e2e.put("latency_p50_us", p50);
    out.e2e.put("setup_s", setup_s);
    out.e2e.put("peak_rss_mb", rss);
    out.detail.put("queries_per_s", throughput);
    out.detail.put("poll_p50_us", p50);
    out.detail.put("poll_p99_us", p99);
    out.detail.put("scan_p50_us", sampled.scan.quantile_us(0.5));
    out.detail
        .put("scan_p99_us", sampled.scan.quantile_us(0.99));
    out.detail.put("ack_p50_us", sampled.ack.quantile_us(0.5));
    out.detail.put("ack_p99_us", sampled.ack.quantile_us(0.99));
    out.notes.push(format!(
        "{mode:?} phase: {} polls, {} scans, {} writer rows, {:.2} s",
        polled.polls,
        polled.scans,
        total - PRELOAD,
        elapsed.as_secs_f64()
    ));

    let ok = polled.violations == 0 && polled.expected == total;
    out.check(
        ok,
        format!(
            "polls returned writer seqs {PRELOAD}..{} in order with {} violations (writer \
             sent up to {total})",
            polled.expected, polled.violations
        ),
    );
    out.failed += polled.violations + (total - polled.expected.min(total));
    let got = sums(
        &final_scan
            .iter()
            .map(|r| r.values.clone())
            .collect::<Vec<_>>(),
    );
    let want = reference_sums(args.seed, total);
    let bad = want
        .iter()
        .filter(|(ip, v)| got.get(*ip) != Some(v))
        .count()
        + got.keys().filter(|ip| !want.contains_key(*ip)).count();
    out.check(
        bad == 0,
        format!(
            "final group-by: {} groups, {bad} differ from the reference",
            got.len()
        ),
    );
    out.failed += bad as u64;

    if traced {
        let reg = registry.expect("traced phases scrape the registry");
        let l = &mut out.layers;
        l.put("client.send_us.p50", sampled.send.quantile_us(0.5));
        l.put("client.send_us.p99", sampled.send.quantile_us(0.99));
        l.put("client.rtt_us.insert.p50", sampled.ack.quantile_us(0.5));
        l.put("client.rtt_us.insert.p99", sampled.ack.quantile_us(0.99));
        let mut rtt = Samples::with_capacity(2 * SAMPLE_CAP);
        rtt.extend(&sampled.poll);
        rtt.extend(&sampled.scan);
        l.put("client.rtt_us.execute.p50", rtt.quantile_us(0.5));
        l.put("client.rtt_us.execute.p99", rtt.quantile_us(0.99));
        for kind in ["insert", "execute"] {
            for stage in ["queue", "execute", "flush"] {
                let h = format!("rpc_{kind}_{stage}_ns");
                l.put(
                    format!("reactor.{kind}.{stage}_us.p50"),
                    reg.quantile_us(&h, 0.5),
                );
                l.put(
                    format!("reactor.{kind}.{stage}_us.p99"),
                    reg.quantile_us(&h, 0.99),
                );
            }
        }
        for kind in ["insert", "insert_batch", "execute"] {
            l.put(
                format!("reactor.requests.{kind}"),
                reg.counter(&format!("rpc_requests_{kind}")) as f64,
            );
        }
        l.put("query.select_us.p50", reg.quantile_us("select_ns", 0.5));
        l.put("query.select_us.p99", reg.quantile_us("select_ns", 0.99));
        let plans = PlanCacheStats {
            hits: plans_after.hits - plans_before.hits,
            misses: plans_after.misses - plans_before.misses,
            ..plans_after
        };
        l.put("plan_cache.hit_rate", plans.hit_rate());
        l.put("plan_cache.misses", plans.misses as f64);
        l.put(
            "query.rows_per_poll",
            polled.rows as f64 / polled.polls.max(1) as f64,
        );
        let (since, groupby) = replay_queries(args.seed)?;
        l.put("query.since_us.p50", since.quantile_us(0.5));
        l.put("query.groupby_us.p50", groupby.quantile_us(0.5));
        out.notes.push(format!(
            "plan cache over the phase: {} hits, {} misses",
            plans.hits, plans.misses
        ));
    }
    Ok(out)
}
