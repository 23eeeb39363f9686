//! `flows_cep`: the paper's §4.3 / Fig. 10 path. Pipelined single-row
//! inserts into `Flows` over one connection, nine automata subscribed,
//! at most [`WINDOW`] events outstanding. An event completes when its
//! ack and all [`NOTES_PER_EVENT`] expected notifications have arrived.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cep_workloads::{FlowConfig, FlowGenerator};
use gapl::event::{AttrType, Scalar, Schema, Tuple};
use gapl::vm::{RecordingHost, Vm};
use pscache::{Cache, CacheBuilder, DispatchStats};
use psrpc::message::Request;
use psrpc::{CacheClient, ReactorServer};

use crate::report::{self, Outcome};
use crate::stats::{self, fnv, median, quantile_us, RegistryDiff, Samples, FNV_OFFSET};
use crate::{host, Args, Mode, Stop};

/// Events in flight at once (closed loop on completion, not on ack).
const WINDOW: usize = 32;
/// Catch-all + the one matching prefilter automaton + the hybrid one.
const NOTES_PER_EVENT: u8 = 3;
const SETUP_REPS: usize = 15;
const WARMUP: Duration = Duration::from_secs(1);
/// Traced phases run a fixed event count, so counters repeat exactly.
const TRACED_EVENTS_PER_SECOND: u64 = 20_000;
const TRACED_WARMUP_EVENTS: u64 = 20_000;
/// Events replayed through an in-process `Cache` for `cache.insert_us`.
const REPLAY_EVENTS: u64 = 20_000;
/// How long completions may trail the last send before the rest count
/// as failed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);
const SAMPLE_CAP: usize = 1_500_000;
const LOCAL_HOSTS: usize = 8;

pub const CREATE_FLOWS: &str = "create table Flows (protocol integer, srcip varchar(16), \
     sport integer, dstip varchar(16), dport integer, npkts integer, nbytes integer, \
     seq integer)";
const CREATE_ALLOWANCES: &str =
    "create persistenttable Allowances (ipaddr varchar(16) primary key, bytes integer)";
const CREATE_BWUSAGE: &str =
    "create persistenttable BWUsage (ipaddr varchar(16) primary key, bytes integer)";

/// Fig. 4's hybrid bandwidth automaton, changed to notify on every
/// event so each one has a fixed number of expected notifications.
const HYBRID: &str = r#"
    subscribe f to Flows;
    associate a with Allowances;
    associate b with BWUsage;
    int n, limit;
    identifier ip;
    sequence s;
    behavior {
        ip = Identifier(f.dstip);
        if (hasEntry(a, ip)) {
            limit = seqElement(lookup(a, ip), 1);
            if (hasEntry(b, ip))
                n = seqElement(lookup(b, ip), 1);
            else
                n = 0;
            n += f.nbytes;
            s = Sequence(f.dstip, n);
            send(f.seq, n > limit);
            insert(b, ip, s);
        }
    }
"#;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    CatchAll,
    /// Prefilter on a port the generator produces (25% of events each).
    Hit(i64),
    /// Prefilter on a port the generator never produces.
    Miss(i64),
    Hybrid,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::CatchAll => "catch_all",
            Kind::Hit(_) => "prefilter_hit",
            Kind::Miss(_) => "prefilter_miss",
            Kind::Hybrid => "hybrid",
        }
    }

    /// Whether the server delivers an event on `dport` to this automaton.
    fn delivered(self, dport: i64) -> bool {
        match self {
            Kind::CatchAll | Kind::Hybrid => true,
            Kind::Hit(p) | Kind::Miss(p) => p == dport,
        }
    }

    fn source(self) -> String {
        match self {
            Kind::CatchAll => "subscribe f to Flows; behavior { send(f.seq); }".to_owned(),
            Kind::Hit(p) | Kind::Miss(p) => {
                format!("subscribe f to Flows; behavior {{ if (f.dport == {p}) send(f.seq); }}")
            }
            Kind::Hybrid => HYBRID.to_owned(),
        }
    }
}

const AUTOMATA: [Kind; 9] = [
    Kind::CatchAll,
    Kind::Hit(80),
    Kind::Hit(443),
    Kind::Hit(8080),
    Kind::Hit(53),
    Kind::Miss(21),
    Kind::Miss(22),
    Kind::Miss(25),
    Kind::Hybrid,
];

fn allowance(host: usize) -> i64 {
    (host as i64 + 1) * 1_000_000_000
}

pub fn generator(seed: u64) -> FlowGenerator {
    FlowGenerator::new(FlowConfig {
        local_hosts: LOCAL_HOSTS,
        seed,
        ..FlowConfig::default()
    })
}

/// The next event: a generated flow plus its sequence number.
pub fn next_event(gen: &mut FlowGenerator, seq: u64) -> Vec<Scalar> {
    let mut values = gen.next_flow().to_scalars();
    values.push(Scalar::Int(seq as i64));
    values
}

fn flows_schema() -> Arc<Schema> {
    Arc::new(
        Schema::new(
            "Flows",
            vec![
                ("protocol", AttrType::Int),
                ("srcip", AttrType::Str),
                ("sport", AttrType::Int),
                ("dstip", AttrType::Str),
                ("dport", AttrType::Int),
                ("npkts", AttrType::Int),
                ("nbytes", AttrType::Int),
                ("seq", AttrType::Int),
            ],
        )
        .expect("the Flows schema is valid"),
    )
}

/// Notifications per automaton: count and running hash, in arrival order.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Streams {
    count: Vec<u64>,
    hash: Vec<u64>,
}

impl Streams {
    fn new() -> Streams {
        Streams {
            count: vec![0; AUTOMATA.len()],
            hash: vec![FNV_OFFSET; AUTOMATA.len()],
        }
    }

    fn add(&mut self, i: usize, values: &[Scalar]) {
        self.count[i] += 1;
        self.hash[i] = fnv(self.hash[i], values);
    }
}

struct Served {
    cache: Cache,
    server: ReactorServer,
    client: CacheClient,
    /// Server automaton id -> index into [`AUTOMATA`].
    ids: HashMap<u64, usize>,
}

fn setup() -> Result<Served, String> {
    let cache = CacheBuilder::new().build();
    let server = ReactorServer::bind(cache.clone(), "127.0.0.1:0").map_err(|e| e.to_string())?;
    let client = CacheClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
    let err = |e: psrpc::Error| e.to_string();
    client.execute(CREATE_FLOWS).map_err(err)?;
    client.execute(CREATE_ALLOWANCES).map_err(err)?;
    client.execute(CREATE_BWUSAGE).map_err(err)?;
    for h in 0..LOCAL_HOSTS {
        client
            .execute(&format!(
                "insert into Allowances values ('{}', {})",
                FlowGenerator::local_ip(h),
                allowance(h)
            ))
            .map_err(err)?;
    }
    let mut ids = HashMap::new();
    for (i, kind) in AUTOMATA.iter().enumerate() {
        let id = client.register_automaton(&kind.source()).map_err(err)?;
        ids.insert(id, i);
    }
    Ok(Served {
        cache,
        server,
        client,
        ids,
    })
}

fn teardown(s: Served) {
    drop(s.client);
    s.server.shutdown();
    s.cache.shutdown();
}

struct Ev {
    sent: Instant,
    acked: Option<Instant>,
    notes: u8,
    last_note: Option<Instant>,
}

struct Track {
    events: HashMap<u64, Ev>,
    failed: u64,
    notify: Samples,
    ack: Samples,
    after_ack: Samples,
}

struct Shared {
    st: Mutex<Track>,
    room: Condvar,
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, Track> {
        self.st
            .lock()
            .expect("tracker lock poisoned by a panicking benchmark thread")
    }
}

impl Track {
    /// Retire `seq` if its ack and every notification are in.
    fn maybe_complete(&mut self, seq: u64, room: &Condvar) {
        let done = self
            .events
            .get(&seq)
            .is_some_and(|e| e.acked.is_some() && e.notes >= NOTES_PER_EVENT);
        if done {
            let e = self.events.remove(&seq).expect("checked above");
            let last = e.last_note.expect("notes >= 1");
            let acked = e.acked.expect("checked above");
            let done = last.max(acked);
            self.notify
                .push_at(last.saturating_duration_since(e.sent), done);
            self.after_ack
                .push_at(last.saturating_duration_since(acked), done);
            room.notify_one();
        }
    }
}

/// Run the closed loop until `stop`, then drain every outstanding event.
/// Returns the wall time from first send to last completion.
#[allow(clippy::too_many_arguments)]
fn drive(
    s: &Served,
    gen: &mut FlowGenerator,
    next_seq: &mut u64,
    stop: Stop,
    shared: &Shared,
    streams: &mut Streams,
    mut send_spans: Option<&mut Samples>,
) -> Result<Duration, String> {
    let issuing_done = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let issuer = scope.spawn(|| {
            let mut pending: VecDeque<(u64, psrpc::PendingReply)> = VecDeque::new();
            let mut issued = 0u64;
            let result = loop {
                let stop_issuing = match stop {
                    Stop::At(t) => Instant::now() >= t,
                    Stop::Count(n) => issued >= n,
                };
                // Only this thread adds events, so room seen here stays.
                if !stop_issuing && shared.lock().events.len() < WINDOW {
                    let seq = *next_seq;
                    let values = next_event(gen, seq);
                    shared.lock().events.insert(
                        seq,
                        Ev {
                            sent: Instant::now(),
                            acked: None,
                            notes: 0,
                            last_note: None,
                        },
                    );
                    let t = Instant::now();
                    let req = Request::Insert {
                        table: "Flows".to_owned(),
                        values,
                        upsert: false,
                    };
                    let p = match s.client.begin_request(req) {
                        Ok(p) => p,
                        Err(e) => break Err(format!("send failed: {e}")),
                    };
                    if let Some(sp) = send_spans.as_mut() {
                        sp.push(t.elapsed());
                    }
                    pending.push_back((seq, p));
                    *next_seq += 1;
                    issued += 1;
                    continue;
                }
                if let Some((seq, p)) = pending.pop_front() {
                    let reply = p.wait();
                    let now = Instant::now();
                    let mut st = shared.lock();
                    if reply.is_ok() {
                        if let Some(e) = st.events.get_mut(&seq) {
                            e.acked = Some(now);
                            let rtt = now.saturating_duration_since(e.sent);
                            st.ack.push(rtt);
                        }
                        st.maybe_complete(seq, &shared.room);
                    } else {
                        st.events.remove(&seq);
                        st.failed += 1;
                        shared.room.notify_one();
                    }
                    continue;
                }
                if stop_issuing {
                    break Ok(());
                }
                let st = shared.lock();
                if st.events.len() >= WINDOW {
                    let _ = shared
                        .room
                        .wait_timeout(st, Duration::from_millis(100))
                        .expect("tracker lock poisoned");
                }
            };
            issuing_done.store(true, Ordering::Release);
            result
        });

        let mut drain_deadline: Option<Instant> = None;
        loop {
            let note = s
                .client
                .notifications()
                .recv_timeout(Duration::from_millis(20));
            if let Ok(n) = note {
                let now = Instant::now();
                if let Some(&i) = s.ids.get(&n.automaton) {
                    streams.add(i, &n.values);
                }
                if let Some(seq) = n.values.first().and_then(Scalar::as_int) {
                    let mut st = shared.lock();
                    if let Some(e) = st.events.get_mut(&(seq as u64)) {
                        e.notes += 1;
                        e.last_note = Some(now);
                    }
                    st.maybe_complete(seq as u64, &shared.room);
                }
            }
            if issuing_done.load(Ordering::Acquire) {
                let mut st = shared.lock();
                if st.events.is_empty() {
                    break;
                }
                let d = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_TIMEOUT);
                if Instant::now() >= d {
                    let left = st.events.len() as u64;
                    st.failed += left;
                    st.events.clear();
                    break;
                }
            }
        }
        issuer.join().expect("issuer thread panicked")
    })?;
    Ok(start.elapsed())
}

/// Reference replay: every generated tuple through every automaton's
/// compiled program on a `gapl::vm::Vm` with a `RecordingHost` seeded
/// like the served `Allowances`.
struct Reference {
    streams: Streams,
    /// Instructions the server-side delivery set would execute, over the
    /// measured events only.
    instructions: u64,
    /// `Vm::run_behavior` durations per kind over delivered measured
    /// events (traced phases only).
    behavior: HashMap<&'static str, Samples>,
}

fn reference(seed: u64, total: u64, measured_from: u64, timed: bool) -> Result<Reference, String> {
    let schema = flows_schema();
    let mut vms = Vec::new();
    for kind in AUTOMATA {
        let program = gapl::compile(&kind.source()).map_err(|e| e.to_string())?;
        vms.push(Vm::new(Arc::new(program)));
    }
    let mut host = RecordingHost::with_clock(0);
    for h in 0..LOCAL_HOSTS {
        let ip = FlowGenerator::local_ip(h);
        host.seed_table(
            "Allowances",
            &ip,
            vec![Scalar::Str(ip.as_str().into()), Scalar::Int(allowance(h))],
        );
    }
    let mut behavior: HashMap<&'static str, Samples> = HashMap::new();
    if timed {
        for k in ["catch_all", "prefilter_hit", "hybrid"] {
            behavior.insert(k, Samples::with_capacity(SAMPLE_CAP));
        }
    }
    let mut streams = Streams::new();
    let mut instructions = 0u64;
    let mut gen = generator(seed);
    for seq in 0..total {
        let values = next_event(&mut gen, seq);
        let dport = values[4].as_int().unwrap_or(0);
        let tuple = Tuple::new(Arc::clone(&schema), values, seq).map_err(|e| e.to_string())?;
        let measured = seq >= measured_from;
        for (i, (kind, vm)) in AUTOMATA.iter().zip(vms.iter_mut()).enumerate() {
            let delivered = kind.delivered(dport);
            let before = vm.instructions_executed();
            let t = Instant::now();
            vm.run_behavior("Flows", &tuple, &mut host)
                .map_err(|e| format!("reference vm: {e}"))?;
            let took = t.elapsed();
            if measured && delivered {
                instructions += vm.instructions_executed() - before;
                if let Some(samples) = behavior.get_mut(kind.name()) {
                    samples.push(took);
                }
            }
            for sent in host.sent.drain(..) {
                streams.add(i, &sent);
            }
        }
    }
    Ok(Reference {
        streams,
        instructions,
        behavior,
    })
}

/// `Cache::insert` over the first events of the stream on an in-process
/// cache with the same tables and automata.
fn replay_inserts(seed: u64) -> Result<Samples, String> {
    let cache = CacheBuilder::new().build();
    let err = |e: pscache::Error| e.to_string();
    cache.execute(CREATE_FLOWS).map_err(err)?;
    cache.execute(CREATE_ALLOWANCES).map_err(err)?;
    cache.execute(CREATE_BWUSAGE).map_err(err)?;
    for h in 0..LOCAL_HOSTS {
        cache
            .execute(&format!(
                "insert into Allowances values ('{}', {})",
                FlowGenerator::local_ip(h),
                allowance(h)
            ))
            .map_err(err)?;
    }
    let mut receivers = Vec::new();
    for kind in AUTOMATA {
        receivers.push(cache.register_automaton(&kind.source()).map_err(err)?.1);
    }
    let mut gen = generator(seed);
    let mut samples = Samples::with_capacity(REPLAY_EVENTS as usize);
    for seq in 0..REPLAY_EVENTS {
        let values = next_event(&mut gen, seq);
        let t = Instant::now();
        cache.insert("Flows", values).map_err(err)?;
        samples.push(t.elapsed());
    }
    cache.quiesce(Duration::from_secs(30));
    drop(receivers);
    cache.shutdown();
    Ok(samples)
}

fn compile_us(kind: Kind) -> Vec<u32> {
    let source = kind.source();
    (0..200)
        .map(|_| {
            let t = Instant::now();
            let p = gapl::compile(&source);
            let took = t.elapsed();
            std::hint::black_box(p).ok();
            u32::try_from(took.as_nanos()).unwrap_or(u32::MAX)
        })
        .collect()
}

/// An untraced run measures segments ([`report::segments`]) and reports
/// the fastest ([`report::fastest`]). A traced run measures one segment
/// of a fixed amount of work.
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

/// [`SETUP_REPS`] set-ups, a warm-up and a measured interval of
/// `seconds` (untraced) or of a fixed number of events (traced), with
/// the reference checks.
fn segment(args: &Args, mode: Mode, seconds: u64) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let reps = if mode == Mode::Traced { 1 } else { SETUP_REPS };
    let mut setup_times = Vec::new();
    let mut served = None;
    for _ in 0..reps {
        if let Some(old) = served.take() {
            teardown(old);
        }
        let t = Instant::now();
        served = Some(setup()?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let s = served.expect("at least one set-up");

    let shared = Shared {
        st: Mutex::new(Track {
            events: HashMap::new(),
            failed: 0,
            notify: Samples::with_capacity(SAMPLE_CAP),
            ack: Samples::with_capacity(SAMPLE_CAP),
            after_ack: Samples::with_capacity(SAMPLE_CAP),
        }),
        room: Condvar::new(),
    };
    let mut gen = generator(args.seed);
    let mut next_seq = 0u64;
    let mut streams = Streams::new();

    // Warm-up: fills the stream window and the executor's queues; its
    // samples are discarded.
    let warm_stop = match mode {
        Mode::Untraced => Stop::At(Instant::now() + WARMUP),
        Mode::Traced => Stop::Count(TRACED_WARMUP_EVENTS),
    };
    drive(
        &s,
        &mut gen,
        &mut next_seq,
        warm_stop,
        &shared,
        &mut streams,
        None,
    )?;
    let measured_from = next_seq;
    let warm_failed = std::mem::take(&mut shared.lock().failed);

    let mut send_spans = Samples::with_capacity(if mode == Mode::Traced { SAMPLE_CAP } else { 0 });
    let (scrape_before, dispatch_before, notes_before) = if mode == Mode::Traced {
        let m = s.client.metrics().map_err(|e| e.to_string())?;
        (
            Some(m),
            s.cache.dispatch_stats(),
            streams.count.iter().sum::<u64>(),
        )
    } else {
        (None, DispatchStats::default(), 0)
    };
    let stop = match mode {
        Mode::Untraced => Stop::At(Instant::now() + Duration::from_secs(seconds)),
        Mode::Traced => Stop::Count(TRACED_EVENTS_PER_SECOND * seconds),
    };
    let traced_spans = (mode == Mode::Traced).then_some(&mut send_spans);
    {
        let mut st = shared.lock();
        let start = Instant::now();
        st.notify.restart(start);
        st.ack.restart(start);
        st.after_ack.restart(start);
    }
    let monitor = stats::StealMonitor::start(Instant::now());
    let elapsed = drive(
        &s,
        &mut gen,
        &mut next_seq,
        stop,
        &shared,
        &mut streams,
        traced_spans,
    )?;
    let steal = monitor.finish();
    let rss = host::peak_rss_mb();
    let total = next_seq;
    let measured = total - measured_from;

    let registry = match scrape_before {
        Some(before) => Some(RegistryDiff {
            before,
            after: s.client.metrics().map_err(|e| e.to_string())?,
        }),
        None => None,
    };
    let dispatch_after = s.cache.dispatch_stats();
    s.cache.quiesce(Duration::from_secs(30));
    teardown(s);

    let st = shared.st.into_inner().expect("tracker lock poisoned");
    out.attempted = total;
    out.failed = st.failed + warm_failed;

    let window = match mode {
        Mode::Untraced => Duration::from_secs(seconds),
        Mode::Traced => elapsed,
    };
    let steady = stats::steady(&[&st.notify], &[&st.notify], window, &steal);
    out.notes.push(steady.note.clone());
    let (throughput, p50, p99) = (steady.per_s, steady.p50_us, steady.p99_us);
    out.e2e.put("throughput_per_s", throughput);
    out.e2e.put("latency_p50_us", p50);
    out.e2e.put("setup_s", median(&setup_times));
    out.e2e.put("peak_rss_mb", rss);
    out.detail.put("events_per_s", throughput);
    out.detail.put("notify_p50_us", p50);
    out.detail.put("notify_p99_us", p99);
    out.detail.put("ack_p50_us", st.ack.quantile_us(0.5));
    out.detail.put("ack_p99_us", st.ack.quantile_us(0.99));
    out.notes.push(format!(
        "{mode:?} phase: {measured} measured events ({} samples, {} dropped) of {total} sent, \
         {:.2} s",
        st.notify.len(),
        st.notify.dropped(),
        elapsed.as_secs_f64()
    ));

    // Reference check, per automaton.
    let r = reference(args.seed, total, measured_from, mode == Mode::Traced)?;
    for (i, kind) in AUTOMATA.iter().enumerate() {
        let (want, got) = (r.streams.count[i], streams.count[i]);
        let ok = want == got && r.streams.hash[i] == streams.hash[i];
        out.check(
            ok,
            format!(
                "automaton {i} ({}): {got} notifications, reference {want}",
                kind.name()
            ),
        );
        if !ok {
            out.failed += want.max(got);
        }
    }

    if mode == Mode::Traced {
        let reg = registry.expect("traced phases scrape the registry");
        let l = &mut out.layers;
        l.put("client.send_us.p50", send_spans.quantile_us(0.5));
        l.put("client.send_us.p99", send_spans.quantile_us(0.99));
        l.put("client.rtt_us.insert.p50", st.ack.quantile_us(0.5));
        l.put("client.rtt_us.insert.p99", st.ack.quantile_us(0.99));
        for stage in ["queue", "execute", "flush"] {
            let h = format!("rpc_insert_{stage}_ns");
            l.put(
                format!("reactor.insert.{stage}_us.p50"),
                reg.quantile_us(&h, 0.5),
            );
            l.put(
                format!("reactor.insert.{stage}_us.p99"),
                reg.quantile_us(&h, 0.99),
            );
        }
        for kind in ["insert", "insert_batch", "execute"] {
            l.put(
                format!("reactor.requests.{kind}"),
                reg.counter(&format!("rpc_requests_{kind}")) as f64,
            );
        }
        l.put(
            "dispatch.queue_us.p50",
            reg.quantile_us("dispatch_queue_ns", 0.5),
        );
        l.put(
            "dispatch.queue_us.p99",
            reg.quantile_us("dispatch_queue_ns", 0.99),
        );
        let delivered = dispatch_after.delivered - dispatch_before.delivered;
        let skipped = dispatch_after.skipped_by_prefilter - dispatch_before.skipped_by_prefilter;
        let notes = streams.count.iter().sum::<u64>() - notes_before;
        l.put("dispatch.delivered", delivered as f64);
        l.put("dispatch.skipped_by_prefilter", skipped as f64);
        l.put(
            "dispatch.useful_ratio",
            notes as f64 / delivered.max(1) as f64,
        );
        l.put(
            "runtime.max_mailbox_depth",
            dispatch_after.max_queue_depth as f64,
        );
        l.put(
            "runtime.notify_after_ack_us.p50",
            st.after_ack.quantile_us(0.5),
        );
        l.put(
            "runtime.notify_after_ack_us.p99",
            st.after_ack.quantile_us(0.99),
        );
        for (k, samples) in &r.behavior {
            l.put(format!("vm.behavior_us.{k}.p50"), samples.quantile_us(0.5));
            l.put(format!("vm.behavior_us.{k}.p99"), samples.quantile_us(0.99));
        }
        l.put(
            "vm.instructions_per_event",
            r.instructions as f64 / measured.max(1) as f64,
        );
        for kind in [Kind::CatchAll, Kind::Hit(80), Kind::Miss(21), Kind::Hybrid] {
            l.put(
                format!("gapl.compile_us.{}", kind.name()),
                quantile_us(&compile_us(kind), 0.5),
            );
        }
        let inserts = replay_inserts(args.seed)?;
        l.put("cache.insert_us.p50", inserts.quantile_us(0.5));
        l.put("cache.insert_us.p99", inserts.quantile_us(0.99));

        let rtt = st.ack.quantile_us(0.5);
        let stages: Vec<f64> = ["queue", "execute", "flush"]
            .iter()
            .map(|stage| reg.quantile_us(&format!("rpc_insert_{stage}_ns"), 0.5))
            .collect();
        let server: f64 = stages.iter().sum();
        out.notes
            .push("budget: insert round trip (medians, us)".to_owned());
        out.notes
            .push(format!("  client rtt                      {rtt:>10.1}"));
        out.notes.push(format!(
            "  reactor queue+execute+flush     {server:>10.1}  ({:.1} + {:.1} + {:.1})",
            stages[0], stages[1], stages[2]
        ));
        out.notes.push(format!(
            "  unattributed (client encode, socket, read/decode, reader hop) {:>10.1}",
            rtt - server
        ));
        let after_ack = st.after_ack.quantile_us(0.5);
        let dq = reg.quantile_us("dispatch_queue_ns", 0.5);
        let vm = r.behavior.get("hybrid").map_or(0.0, |s| s.quantile_us(0.5));
        out.notes
            .push("budget: last notification after ack (medians, us)".to_owned());
        out.notes.push(format!(
            "  notify_after_ack                {after_ack:>10.1}"
        ));
        out.notes.push(format!(
            "  dispatch queue + hybrid vm      {:>10.1}  ({dq:.1} + {vm:.1})",
            dq + vm
        ));
        out.notes.push(format!(
            "  unattributed (send->hub->outbox->socket->client) {:>10.1}",
            after_ack - dq - vm
        ));
        out.notes.push(format!(
            "exact counts: vm.instructions {} over {measured} events, delivered {delivered}, \
             skipped {skipped}, requests.insert {}",
            r.instructions,
            reg.counter("rpc_requests_insert")
        ));
    }
    Ok(out)
}
