//! `durable_upsert`: the only workload with a write-ahead log. Two
//! connections, each keeping [`IN_FLIGHT`] token-stamped 16-row
//! `InsertBatch { upsert: true }` requests in flight, into a durable
//! table of [`KEYS`] keys recovered from a fixture at set-up.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gapl::event::Scalar;
use pscache::{Cache, CacheBuilder, MetricsSnapshot};
use psrpc::message::Request;
use psrpc::{CacheClient, ReactorServer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{self, Outcome};
use crate::stats::{self, median, RegistryDiff, Samples};
use crate::{host, Args, Mode, Stop};

const KEYS: usize = 50_000;
const CONNECTIONS: usize = 2;
const IN_FLIGHT: usize = 8;
const BATCH_ROWS: usize = 16;
const WARMUP: Duration = Duration::from_secs(1);
const TRACED_BATCHES_PER_SECOND: u64 = 1_500;
const TRACED_WARMUP_BATCHES: u64 = 1_500;
/// Batches replayed through an in-process `Cache::upsert_batch`.
const REPLAY_BATCHES: u64 = 1_000;
/// Fixture: the initial load's batch size, then this many 16-row update
/// batches of random keys, all from one in-process writer.
const FIXTURE_LOAD_BATCH: usize = 1_000;
const FIXTURE_UPDATE_BATCHES: u64 = 12_000;
const SAMPLE_CAP: usize = 500_000;

const CREATE_KV: &str = "create persistenttable KV (k varchar(16) primary key, v integer)";

fn key(i: usize) -> String {
    format!("k{i:05}")
}

fn row(k: usize, v: i64) -> Vec<Scalar> {
    vec![Scalar::Str(key(k).as_str().into()), Scalar::Int(v)]
}

/// One connection's input stream: keys of its own residue class (so the
/// final value of every key is defined by one connection's order), each
/// write carrying a value unique to it.
struct KeyStream {
    rng: StdRng,
    conn: usize,
    written: i64,
}

impl KeyStream {
    fn new(seed: u64, conn: usize) -> KeyStream {
        KeyStream {
            rng: StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(conn as u64 + 1)),
            conn,
            written: 0,
        }
    }

    /// The next batch as `(key index, value)` pairs.
    fn next_batch(&mut self) -> Vec<(usize, i64)> {
        (0..BATCH_ROWS)
            .map(|_| {
                let k = self.rng.gen_range(0..KEYS / CONNECTIONS) * CONNECTIONS + self.conn;
                self.written += 1;
                (k, (self.conn as i64 + 1) * 1_000_000_000_000 + self.written)
            })
            .collect()
    }
}

fn rows(batch: &[(usize, i64)]) -> Vec<Vec<Scalar>> {
    batch.iter().map(|&(k, v)| row(k, v)).collect()
}

fn mix(k: usize, v: i64) -> u64 {
    let mut x = (k as u64) ^ (v as u64).rotate_left(17) ^ 0x9e37_79b9_7f4a_7c15;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Order-independent checksum of a key -> value map.
fn checksum(map: &[i64]) -> u64 {
    map.iter()
        .enumerate()
        .fold(0u64, |acc, (k, &v)| acc.wrapping_add(mix(k, v)))
}

struct Fixture {
    dir: PathBuf,
    /// Last-write-wins value per key index.
    map: Vec<i64>,
    /// Distinct keys at the writer's last checkpoint.
    snapshot_rows: u64,
}

/// Write the recovery fixture with one in-process writer. With a single
/// writer, checkpoints trigger at the same records on every run, so the
/// log left for recovery to replay is the same on every run.
fn write_fixture(root: &Path, seed: u64) -> Result<Fixture, String> {
    let dir = root.join("fixture");
    let _ = std::fs::remove_dir_all(&dir);
    let err = |e: pscache::Error| e.to_string();
    let cache = CacheBuilder::new().durability(&dir).open().map_err(err)?;
    cache.execute(CREATE_KV).map_err(err)?;
    let mut map = vec![0i64; KEYS];
    let mut present = vec![false; KEYS];
    let mut distinct = 0u64;
    let mut snapshot_rows = 0u64;
    let mut checkpoints = 0u64;
    let mut written = 0i64;
    let mut apply = |batch: Vec<(usize, i64)>, cache: &Cache| -> Result<(), String> {
        for &(k, v) in &batch {
            map[k] = v;
            if !present[k] {
                present[k] = true;
                distinct += 1;
            }
        }
        cache.upsert_batch("KV", rows(&batch)).map_err(err)?;
        let now = cache.wal_stats().map_or(0, |w| w.checkpoints);
        if now != checkpoints {
            checkpoints = now;
            snapshot_rows = distinct;
        }
        Ok(())
    };
    let mut k = 0;
    while k < KEYS {
        let batch: Vec<(usize, i64)> = (k..(k + FIXTURE_LOAD_BATCH).min(KEYS))
            .map(|k| {
                written += 1;
                (k, written)
            })
            .collect();
        k += batch.len();
        apply(batch, &cache)?;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_f1c7);
    for _ in 0..FIXTURE_UPDATE_BATCHES {
        let batch = (0..BATCH_ROWS)
            .map(|_| {
                written += 1;
                (rng.gen_range(0..KEYS), written)
            })
            .collect();
        apply(batch, &cache)?;
    }
    cache.flush_wal().map_err(err)?;
    cache.shutdown();
    drop(cache);
    Ok(Fixture {
        dir,
        map,
        snapshot_rows,
    })
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

struct Served {
    cache: Cache,
    server: ReactorServer,
    clients: Vec<CacheClient>,
    recover_s: f64,
    replayed: u64,
}

/// Recover the fixture copy in `dir` and serve it.
fn setup(dir: &Path) -> Result<Served, String> {
    let t = Instant::now();
    let cache = CacheBuilder::new()
        .durability(dir)
        .open()
        .map_err(|e| e.to_string())?;
    let recover_s = t.elapsed().as_secs_f64();
    let replayed = cache.wal_stats().map_or(0, |w| w.replayed);
    let server = ReactorServer::bind(cache.clone(), "127.0.0.1:0").map_err(|e| e.to_string())?;
    let clients = (0..CONNECTIONS)
        .map(|_| CacheClient::connect(server.local_addr()).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Served {
        cache,
        server,
        clients,
        recover_s,
        replayed,
    })
}

fn teardown(s: Served) {
    drop(s.clients);
    s.server.shutdown();
    s.cache.shutdown();
}

#[derive(Default)]
struct ConnResult {
    batches: u64,
    failed: u64,
    ack: Option<Samples>,
    send: Option<Samples>,
}

/// One connection's closed loop: keep [`IN_FLIGHT`] batches outstanding
/// until `stop`, then drain.
fn drive_conn(
    client: &CacheClient,
    stream: &mut KeyStream,
    stop: &Stop,
    sampled: Option<Instant>,
    traced: bool,
) -> ConnResult {
    let mut res = ConnResult {
        ack: sampled.map(|start| {
            let mut s = Samples::with_capacity(SAMPLE_CAP);
            s.restart(start);
            s
        }),
        send: traced.then(|| Samples::with_capacity(SAMPLE_CAP)),
        ..ConnResult::default()
    };
    let mut pending: VecDeque<(Instant, psrpc::PendingReply)> = VecDeque::new();
    let mut issued = 0u64;
    loop {
        let stop_issuing = match *stop {
            Stop::At(t) => Instant::now() >= t,
            Stop::Count(n) => issued >= n,
        };
        if !stop_issuing && pending.len() < IN_FLIGHT {
            let req = Request::InsertBatch {
                table: "KV".to_owned(),
                rows: rows(&stream.next_batch()),
                upsert: true,
            };
            let token = client.next_token();
            let sent = Instant::now();
            match client.begin_request_with_token(req, Some(token)) {
                Ok(p) => {
                    if let Some(s) = res.send.as_mut() {
                        s.push(sent.elapsed());
                    }
                    pending.push_back((sent, p));
                    issued += 1;
                    res.batches += 1;
                }
                Err(_) => {
                    res.failed += 1;
                    issued += 1;
                    res.batches += 1;
                }
            }
            continue;
        }
        let Some((sent, p)) = pending.pop_front() else {
            break;
        };
        match p.wait() {
            Ok(_) => {
                if let Some(a) = res.ack.as_mut() {
                    let now = Instant::now();
                    a.push_at(now - sent, now);
                }
            }
            Err(_) => res.failed += 1,
        }
    }
    res
}

/// Drive both connections; returns per-connection results and wall time.
fn drive(
    s: &Served,
    streams: &mut [KeyStream],
    stop: Stop,
    sampled: bool,
    traced: bool,
) -> (Vec<ConnResult>, Duration) {
    let start = Instant::now();
    let sampled = sampled.then_some(start);
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .clients
            .iter()
            .zip(streams.iter_mut())
            .map(|(client, stream)| {
                let stop = &stop;
                scope.spawn(move || drive_conn(client, stream, stop, sampled, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    (results, start.elapsed())
}

fn merge(results: &mut [ConnResult], pick: impl Fn(&mut ConnResult) -> Option<Samples>) -> Samples {
    let mut all = Samples::with_capacity(SAMPLE_CAP * CONNECTIONS);
    for r in results.iter_mut() {
        if let Some(s) = pick(r) {
            all.extend(&s);
        }
    }
    all
}

/// Recover `dir` and compare the table with the last-write-wins map.
fn verify(dir: &Path, want: &[i64], out: &mut Outcome) -> Result<(), String> {
    let cache = CacheBuilder::new()
        .durability(dir)
        .open()
        .map_err(|e| e.to_string())?;
    let rs = cache
        .execute("select * from KV")
        .map_err(|e| e.to_string())?
        .rows()
        .ok_or("select returned no rows")?;
    let mut got = vec![i64::MIN; KEYS];
    let mut bad = 0u64;
    for r in &rs.rows {
        let k = r.values[0]
            .as_str()
            .and_then(|s| s.strip_prefix('k'))
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&k| k < KEYS);
        match (k, r.values[1].as_int()) {
            (Some(k), Some(v)) => got[k] = v,
            _ => bad += 1,
        }
    }
    let mismatched = got.iter().zip(want).filter(|(g, w)| g != w).count() as u64 + bad;
    let ok = rs.rows.len() == KEYS && mismatched == 0 && checksum(&got) == checksum(want);
    out.check(
        ok,
        format!(
            "recovered {} rows (reference {KEYS}), checksum {:016x} (reference {:016x}), \
             {mismatched} keys differ",
            rs.rows.len(),
            checksum(&got),
            checksum(want)
        ),
    );
    out.failed += mismatched;
    cache.shutdown();
    Ok(())
}

fn wal_counters(c: &Cache) -> pscache::WalStats {
    c.wal_stats().unwrap_or_default()
}

pub fn run(args: &Args, mode: Mode) -> Result<Outcome, String> {
    let root = args
        .work
        .join(format!("durable_upsert-{}", std::process::id()));
    std::fs::create_dir_all(&root).map_err(|e| e.to_string())?;
    let result = run_in(args, mode, &root);
    let _ = std::fs::remove_dir_all(&root);
    result
}

/// An untraced run measures segments ([`report::segments`]), each
/// recovering its own copy of the fixture, and reports the fastest
/// ([`report::fastest`]), with `recover_s` the median of the segments'
/// recoveries. A traced run measures one segment of a fixed amount of
/// work.
fn run_in(args: &Args, mode: Mode, root: &Path) -> Result<Outcome, String> {
    let fixture = write_fixture(root, args.seed)?;
    let mut first = KeyStream::new(args.seed, 0);
    let digest = (0..100).fold(checksum(&fixture.map), |h, _| {
        first
            .next_batch()
            .iter()
            .fold(h, |h, &(k, v)| h.rotate_left(5) ^ mix(k, v))
    });
    let mut out = match mode {
        Mode::Traced => segment(args, mode, args.seconds, root, &fixture)?.0,
        Mode::Untraced => {
            let mut replayed = Vec::new();
            let parts = report::segments(args.seconds, |s| {
                let (part, r) = segment(args, mode, s, root, &fixture)?;
                replayed.push(r);
                Ok(part)
            })?;
            let recovers: Vec<f64> = parts
                .iter()
                .filter_map(|p| p.detail.get("recover_s"))
                .collect();
            let mut out = report::fastest(parts);
            out.detail.put("recover_s", median(&recovers));
            out.check(
                replayed.iter().all(|&r| r == replayed[0]),
                format!("recovery replayed {replayed:?} records across set-ups"),
            );
            out
        }
    };
    out.notes.insert(0, format!("inputs digest {digest:016x}"));
    Ok(out)
}

/// Recover a copy of the fixture, serve it, warm up and measure for
/// `seconds` (untraced) or a fixed number of batches (traced), then check
/// the recovered table. Returns the outcome and the records recovery
/// replayed.
fn segment(
    args: &Args,
    mode: Mode,
    seconds: u64,
    root: &Path,
    fixture: &Fixture,
) -> Result<(Outcome, u64), String> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let live = root.join("live");
    copy_dir(&fixture.dir, &live)?;
    let t = Instant::now();
    let s = setup(&live)?;
    let setup_s = t.elapsed().as_secs_f64();
    let (recover_s, replayed) = (s.recover_s, s.replayed);

    let mut streams: Vec<KeyStream> = (0..CONNECTIONS)
        .map(|c| KeyStream::new(args.seed, c))
        .collect();
    let warm = match mode {
        Mode::Untraced => Stop::At(Instant::now() + WARMUP),
        Mode::Traced => Stop::Count(TRACED_WARMUP_BATCHES),
    };
    let (warm_results, _) = drive(&s, &mut streams, warm, false, false);

    let traced = mode == Mode::Traced;
    let scrape = |c: &CacheClient| -> Result<MetricsSnapshot, String> {
        c.metrics().map_err(|e| e.to_string())
    };
    let before = if traced {
        Some(scrape(&s.clients[0])?)
    } else {
        None
    };
    let wal_before = wal_counters(&s.cache);
    let stop = match mode {
        Mode::Untraced => Stop::At(Instant::now() + Duration::from_secs(seconds)),
        Mode::Traced => Stop::Count(TRACED_BATCHES_PER_SECOND * seconds),
    };
    let monitor = stats::StealMonitor::start(Instant::now());
    let (mut results, elapsed) = drive(&s, &mut streams, stop, true, traced);
    let steal = monitor.finish();
    let rss = host::peak_rss_mb();
    let registry = match before {
        Some(before) => Some(RegistryDiff {
            before,
            after: scrape(&s.clients[0])?,
        }),
        None => None,
    };
    let wal_after = wal_counters(&s.cache);
    teardown(s);

    let batches: u64 = results.iter().map(|r| r.batches).sum();
    let failed: u64 = results.iter().chain(&warm_results).map(|r| r.failed).sum();
    let all_batches = batches + warm_results.iter().map(|r| r.batches).sum::<u64>();
    out.attempted = all_batches;
    out.failed = failed;
    let window = match mode {
        Mode::Untraced => Duration::from_secs(seconds),
        Mode::Traced => elapsed,
    };
    let acks: Vec<&Samples> = results.iter().filter_map(|r| r.ack.as_ref()).collect();
    let steady = stats::steady(&acks, &acks, window, &steal);
    out.notes.push(steady.note.clone());
    let throughput = steady.per_s * BATCH_ROWS as f64;
    let ack = merge(&mut results, |r| r.ack.take());
    out.e2e.put("throughput_per_s", throughput);
    out.e2e.put("latency_p50_us", steady.p50_us);
    out.e2e.put("setup_s", setup_s);
    out.e2e.put("peak_rss_mb", rss);
    out.detail.put("rows_per_s", throughput);
    out.detail.put("ack_p50_us", steady.p50_us);
    out.detail.put("ack_p99_us", steady.p99_us);
    out.detail.put("recover_s", recover_s);
    out.notes.push(format!(
        "{mode:?} phase: {batches} measured batches ({} samples) of {all_batches}, {:.2} s",
        ack.len(),
        elapsed.as_secs_f64()
    ));

    // Reference: the fixture's map, then each connection's batches in
    // its own order (connections write disjoint keys).
    let mut want = fixture.map.clone();
    let per_conn: Vec<u64> = (0..CONNECTIONS)
        .map(|c| results[c].batches + warm_results[c].batches)
        .collect();
    for (c, &n) in per_conn.iter().enumerate() {
        let mut stream = KeyStream::new(args.seed, c);
        for _ in 0..n {
            for (k, v) in stream.next_batch() {
                want[k] = v;
            }
        }
    }
    if failed == 0 {
        verify(&live, &want, &mut out)?;
    } else {
        out.check(
            false,
            format!("{failed} batches failed; state is undefined"),
        );
    }

    if traced {
        let reg = registry.expect("traced phases scrape the registry");
        let l = &mut out.layers;
        let send = merge(&mut results, |r| r.send.take());
        l.put("client.send_us.p50", send.quantile_us(0.5));
        l.put("client.send_us.p99", send.quantile_us(0.99));
        l.put("client.rtt_us.insert_batch.p50", ack.quantile_us(0.5));
        l.put("client.rtt_us.insert_batch.p99", ack.quantile_us(0.99));
        for stage in ["queue", "execute", "flush"] {
            let h = format!("rpc_insert_batch_{stage}_ns");
            l.put(
                format!("reactor.insert_batch.{stage}_us.p50"),
                reg.quantile_us(&h, 0.5),
            );
            l.put(
                format!("reactor.insert_batch.{stage}_us.p99"),
                reg.quantile_us(&h, 0.99),
            );
        }
        for kind in ["insert", "insert_batch", "execute"] {
            l.put(
                format!("reactor.requests.{kind}"),
                reg.counter(&format!("rpc_requests_{kind}")) as f64,
            );
        }
        for (name, hist) in [
            ("append", "wal_append_ns"),
            ("commit_wait", "wal_commit_wait_ns"),
            ("fsync", "wal_fsync_ns"),
        ] {
            l.put(format!("wal.{name}_us.p50"), reg.quantile_us(hist, 0.5));
            l.put(format!("wal.{name}_us.p99"), reg.quantile_us(hist, 0.99));
        }
        let records = wal_after.records - wal_before.records;
        let syncs = wal_after.syncs - wal_before.syncs;
        l.put("wal.records", records as f64);
        l.put("wal.syncs", syncs as f64);
        l.put("wal.records_per_sync", records as f64 / syncs.max(1) as f64);
        l.put(
            "wal.checkpoints",
            (wal_after.checkpoints - wal_before.checkpoints) as f64,
        );
        l.put("recover.replayed_records", replayed as f64);
        l.put("recover.snapshot_rows", fixture.snapshot_rows as f64);

        let replay = replay_upserts(&fixture.dir, &root.join("replay"), args.seed)?;
        l.put("cache.upsert_batch_us.p50", replay.quantile_us(0.5));
        l.put("cache.upsert_batch_us.p99", replay.quantile_us(0.99));

        let rtt = ack.quantile_us(0.5);
        let stages: Vec<f64> = ["queue", "execute", "flush"]
            .iter()
            .map(|stage| reg.quantile_us(&format!("rpc_insert_batch_{stage}_ns"), 0.5))
            .collect();
        let server: f64 = stages.iter().sum();
        out.notes
            .push("budget: insert_batch round trip (medians, us)".to_owned());
        out.notes
            .push(format!("  client rtt                      {rtt:>10.1}"));
        out.notes.push(format!(
            "  reactor queue+execute+flush     {server:>10.1}  ({:.1} + {:.1} + {:.1})",
            stages[0], stages[1], stages[2]
        ));
        out.notes.push(format!(
            "    of execute: wal commit_wait {:.1}, fsync {:.1}, append {:.1}",
            reg.quantile_us("wal_commit_wait_ns", 0.5),
            reg.quantile_us("wal_fsync_ns", 0.5),
            reg.quantile_us("wal_append_ns", 0.5)
        ));
        out.notes.push(format!(
            "  unattributed (client encode, socket, read/decode, reader hop) {:>10.1}",
            rtt - server
        ));
        out.notes.push(format!(
            "exact counts: wal.records {records}, requests.insert_batch {}, replayed {}",
            reg.counter("rpc_requests_insert_batch"),
            replayed
        ));
    }
    Ok((out, replayed))
}

/// `Cache::upsert_batch` from one in-process writer on a recovered copy
/// of the fixture, over the first batches of connection 0's stream.
fn replay_upserts(fixture: &Path, dir: &Path, seed: u64) -> Result<Samples, String> {
    copy_dir(fixture, dir)?;
    let cache = CacheBuilder::new()
        .durability(dir)
        .open()
        .map_err(|e| e.to_string())?;
    let mut stream = KeyStream::new(seed, 0);
    let mut samples = Samples::with_capacity(REPLAY_BATCHES as usize);
    for _ in 0..REPLAY_BATCHES {
        let batch = rows(&stream.next_batch());
        let t = Instant::now();
        cache.upsert_batch("KV", batch).map_err(|e| e.to_string())?;
        samples.push(t.elapsed());
    }
    cache.shutdown();
    Ok(samples)
}
