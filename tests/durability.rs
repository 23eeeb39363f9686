//! Durability and crash-recovery tests for the write-ahead log.
//!
//! The centrepiece is a differential proptest: random mutation
//! histories are applied to a durable cache *and* to an in-memory
//! model, the log is then "crashed" — truncated or corrupted at an
//! arbitrary byte offset — and recovery must reproduce exactly the
//! model state after the records that survived the crash, byte for
//! byte (rows, scan order, timestamps). The satellite tests cover the
//! named edge cases: empty log, snapshot-only recovery, torn tail
//! records, double-recovery idempotence, and recovery with registered
//! automata (replay never re-fires a behavior).

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use proptest::prelude::*;

use gapl::event::Scalar;
use pscache::wal::{count_complete_records, log_path};
use pscache::{Cache, CacheBuilder, IdemToken, Query, SyncPolicy, TokenOutcome};

/// A fresh, empty scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("pscache-durability-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// `select * from {table}` as `(values, tstamp)` pairs in scan order.
fn dump(cache: &Cache, table: &str) -> Vec<(Vec<Scalar>, u64)> {
    cache
        .select(&Query::new(table))
        .expect("select * succeeds")
        .rows
        .into_iter()
        .map(|row| (row.values, row.tstamp))
        .collect()
}

#[test]
fn recovering_an_empty_directory_yields_a_working_fresh_cache() {
    let dir = scratch("empty-dir");
    let cache = Cache::recover(&dir).expect("recover from nothing");
    assert!(cache.table_names().contains(&"Timer".to_string()));
    cache
        .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
        .unwrap();
    cache
        .insert("KV", vec![Scalar::Str("a".into()), Scalar::Int(1)])
        .unwrap();
    assert_eq!(cache.wal_stats().unwrap().replayed, 0);
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn empty_log_recovers_ddl_but_no_rows() {
    let dir = scratch("empty-log");
    {
        let cache = Cache::recover(&dir).unwrap();
        cache
            .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
            .unwrap();
        cache.execute("create table S (v integer)").unwrap();
    }
    let cache = Cache::recover(&dir).unwrap();
    assert_eq!(cache.table_len("KV").unwrap(), 0);
    assert_eq!(cache.table_len("S").unwrap(), 0);
    assert!(cache.table_names().contains(&"KV".to_string()));
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_only_recovery_replays_zero_records() {
    let dir = scratch("snapshot-only");
    {
        let cache = Cache::recover(&dir).unwrap();
        cache
            .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
            .unwrap();
        for (k, v) in [("a", 1), ("b", 2), ("c", 3)] {
            cache
                .insert("KV", vec![Scalar::Str(k.into()), Scalar::Int(v)])
                .unwrap();
        }
        cache.checkpoint().unwrap();
    }
    let cache = Cache::recover(&dir).unwrap();
    // Everything came from the snapshot; the logs were truncated.
    assert_eq!(cache.wal_stats().unwrap().replayed, 0);
    assert_eq!(cache.table_len("KV").unwrap(), 3);
    assert_eq!(
        cache.lookup("KV", "b").unwrap().unwrap().values()[1],
        Scalar::Int(2)
    );
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn log_tail_after_a_checkpoint_is_replayed_on_top_of_the_snapshot() {
    let dir = scratch("snapshot-plus-tail");
    let pre;
    {
        let cache = Cache::recover(&dir).unwrap();
        cache
            .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
            .unwrap();
        cache
            .insert("KV", vec![Scalar::Str("a".into()), Scalar::Int(1)])
            .unwrap();
        cache.checkpoint().unwrap();
        cache
            .upsert("KV", vec![Scalar::Str("a".into()), Scalar::Int(10)])
            .unwrap();
        cache
            .insert("KV", vec![Scalar::Str("b".into()), Scalar::Int(2)])
            .unwrap();
        cache.remove("KV", "missing").unwrap();
        pre = dump(&cache, "KV");
    }
    let cache = Cache::recover(&dir).unwrap();
    let stats = cache.wal_stats().unwrap();
    assert_eq!(
        stats.replayed, 3,
        "upsert + insert + remove live in the tail"
    );
    assert_eq!(dump(&cache, "KV"), pre);
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_tail_record_is_detected_and_dropped() {
    let dir = scratch("torn-tail");
    let pre;
    {
        let cache = CacheBuilder::new()
            .shard_count(1)
            .durability(&dir)
            .open()
            .unwrap();
        cache
            .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
            .unwrap();
        cache.checkpoint().unwrap();
        for (k, v) in [("a", 1), ("b", 2), ("c", 3)] {
            cache
                .insert("KV", vec![Scalar::Str(k.into()), Scalar::Int(v)])
                .unwrap();
        }
        pre = dump(&cache, "KV");
    }
    // Tear the final record: chop a few bytes off the single shard log.
    let log = log_path(&dir, 0);
    let bytes = fs::read(&log).unwrap();
    assert_eq!(count_complete_records(&bytes), 3);
    fs::write(&log, &bytes[..bytes.len() - 3]).unwrap();

    let cache = CacheBuilder::new()
        .shard_count(1)
        .durability(&dir)
        .open()
        .unwrap();
    assert_eq!(cache.wal_stats().unwrap().replayed, 2);
    assert_eq!(dump(&cache, "KV"), pre[..2].to_vec());
    // The recovered log accepts new appends after the torn tail.
    cache
        .insert("KV", vec![Scalar::Str("d".into()), Scalar::Int(4)])
        .unwrap();
    drop(cache);

    let cache = CacheBuilder::new()
        .shard_count(1)
        .durability(&dir)
        .open()
        .unwrap();
    assert_eq!(cache.table_len("KV").unwrap(), 3);
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn double_recovery_is_idempotent() {
    let dir = scratch("double-recovery");
    {
        let cache = Cache::recover(&dir).unwrap();
        cache
            .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
            .unwrap();
        for i in 0..10i64 {
            cache
                .upsert(
                    "KV",
                    vec![Scalar::Str(format!("k{}", i % 4).into()), Scalar::Int(i)],
                )
                .unwrap();
        }
        cache.remove("KV", "k1").unwrap();
    }
    let first = {
        let cache = Cache::recover(&dir).unwrap();
        dump(&cache, "KV")
    };
    let second = {
        let cache = Cache::recover(&dir).unwrap();
        dump(&cache, "KV")
    };
    assert_eq!(first, second);
    assert_eq!(first.len(), 3);
    let _ = fs::remove_dir_all(&dir);
}

/// Every open logs the built-in Timer's create record before replaying.
/// Loading the snapshot's Timer must not lower the table's watermark
/// below that record: a checkpoint would then claim less history than
/// the logs it deletes held, and the next open would hand the record's
/// LSN out again.
#[test]
fn lsns_are_never_reused_across_a_checkpointed_reopen() {
    let dir = scratch("lsn-reuse");
    {
        let cache = Cache::recover(&dir).unwrap();
        cache
            .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
            .unwrap();
        cache
            .upsert("KV", vec![Scalar::Str("a".into()), Scalar::Int(1)])
            .unwrap();
        cache.checkpoint().unwrap();
    }
    let reopened = {
        let cache = Cache::recover(&dir).unwrap();
        cache.checkpoint().unwrap();
        cache.commit_lsn()
    };
    let cache = Cache::recover(&dir).unwrap();
    assert!(
        cache.commit_lsn() > reopened,
        "LSN {} reused after a checkpointed reopen",
        cache.commit_lsn()
    );
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn recovery_never_refires_automata() {
    let dir = scratch("no-refire");
    {
        let cache = Cache::recover(&dir).unwrap();
        cache
            .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
            .unwrap();
        for (k, v) in [("a", 100), ("b", 200)] {
            cache
                .insert("KV", vec![Scalar::Str(k.into()), Scalar::Int(v)])
                .unwrap();
        }
    }
    let cache = Cache::recover(&dir).unwrap();
    assert_eq!(cache.table_len("KV").unwrap(), 2);
    // Register *after* recovery — exactly what an application restarting
    // alongside the cache would do. Replayed rows must not reach it.
    let (id, rx) = cache
        .register_automaton("subscribe k to KV; behavior { send(k.v); }")
        .unwrap();
    assert!(cache.quiesce(Duration::from_secs(5)));
    assert_eq!(rx.try_iter().count(), 0, "replay must not be published");
    let (delivered, _) = cache.automaton_progress(id).unwrap();
    assert_eq!(delivered, 0);
    // Live traffic still flows.
    cache
        .upsert("KV", vec![Scalar::Str("a".into()), Scalar::Int(300)])
        .unwrap();
    assert!(cache.quiesce(Duration::from_secs(5)));
    let notes: Vec<_> = rx.try_iter().collect();
    assert_eq!(notes.len(), 1);
    assert_eq!(notes[0].values[0], Scalar::Int(300));
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn ephemeral_streams_are_empty_after_recovery() {
    let dir = scratch("ephemeral-empty");
    {
        let cache = Cache::recover(&dir).unwrap();
        cache
            .execute("create table S (v integer) capacity 128")
            .unwrap();
        for i in 0..50i64 {
            cache.insert("S", vec![Scalar::Int(i)]).unwrap();
        }
        assert_eq!(cache.table_len("S").unwrap(), 50);
    }
    let cache = Cache::recover(&dir).unwrap();
    // The stream exists (its DDL is durable) but holds no rows: streams
    // are in-memory by design and are documented to come back empty.
    assert_eq!(cache.table_len("S").unwrap(), 0);
    cache.insert("S", vec![Scalar::Int(99)]).unwrap();
    assert_eq!(cache.table_len("S").unwrap(), 1);
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn every_sync_policy_recovers_acknowledged_writes() {
    for (name, policy) in [
        ("immediate", SyncPolicy::Immediate),
        ("group", SyncPolicy::Group),
        ("osonly", SyncPolicy::OsOnly),
    ] {
        let dir = scratch(&format!("policy-{name}"));
        {
            let cache = CacheBuilder::new()
                .durability(&dir)
                .sync_policy(policy)
                .open()
                .unwrap();
            cache
                .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
                .unwrap();
            for (k, v) in [("a", 1), ("b", 2)] {
                cache
                    .insert("KV", vec![Scalar::Str(k.into()), Scalar::Int(v)])
                    .unwrap();
            }
            // OsOnly defers the disk flush to an explicit durability
            // point (the RPC server's flush-before-ack, or this).
            cache.flush_wal().unwrap();
        }
        let cache = Cache::recover(&dir).unwrap();
        assert_eq!(cache.table_len("KV").unwrap(), 2, "policy {name}");
        drop(cache);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn concurrent_inserters_group_commit_and_recover_exactly() {
    let dir = scratch("group-commit");
    let threads = 8;
    let per_thread = 25i64;
    {
        let cache = CacheBuilder::new().durability(&dir).open().unwrap();
        cache
            .execute("create persistenttable KV (k varchar(16) primary key, v integer)")
            .unwrap();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cache = cache.clone();
                scope.spawn(move || {
                    for i in 0..per_thread {
                        cache
                            .insert(
                                "KV",
                                vec![Scalar::Str(format!("t{t}-{i}").into()), Scalar::Int(i)],
                            )
                            .unwrap();
                    }
                });
            }
        });
        let stats = cache.wal_stats().unwrap();
        // + 2: the Timer topic's DDL and the KV table's DDL are logged too.
        assert_eq!(stats.records, (threads as u64) * (per_thread as u64) + 2);
        assert!(
            stats.syncs <= stats.records,
            "group commit never syncs more than once per record"
        );
    }
    let cache = Cache::recover(&dir).unwrap();
    assert_eq!(
        cache.table_len("KV").unwrap(),
        (threads * per_thread as usize),
    );
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn automatic_checkpoints_truncate_the_log() {
    let dir = scratch("auto-checkpoint");
    {
        let cache = CacheBuilder::new()
            .durability(&dir)
            .checkpoint_every(10)
            .open()
            .unwrap();
        cache
            .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
            .unwrap();
        for i in 0..25i64 {
            cache
                .upsert(
                    "KV",
                    vec![Scalar::Str(format!("k{i}").into()), Scalar::Int(i)],
                )
                .unwrap();
        }
        let stats = cache.wal_stats().unwrap();
        assert!(stats.checkpoints >= 2, "26 records / threshold 10");
    }
    let cache = Cache::recover(&dir).unwrap();
    let stats = cache.wal_stats().unwrap();
    assert!(
        stats.replayed <= 10,
        "checkpoints bound the replayable tail, got {}",
        stats.replayed
    );
    assert_eq!(cache.table_len("KV").unwrap(), 25);
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_zero_filled_tail_is_treated_as_torn_not_as_a_record() {
    // Filesystems can extend a file with zeroes on power failure; a
    // zero-filled frame header reads as len=0/crc=0 and crc32("") == 0,
    // so only an explicit empty-payload rejection keeps recovery from
    // choking on it.
    let dir = scratch("zero-tail");
    let pre;
    {
        let cache = CacheBuilder::new()
            .shard_count(1)
            .durability(&dir)
            .open()
            .unwrap();
        cache
            .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
            .unwrap();
        for (k, v) in [("a", 1), ("b", 2)] {
            cache
                .insert("KV", vec![Scalar::Str(k.into()), Scalar::Int(v)])
                .unwrap();
        }
        pre = dump(&cache, "KV");
    }
    let log = log_path(&dir, 0);
    let mut bytes = fs::read(&log).unwrap();
    bytes.extend_from_slice(&[0u8; 512]);
    fs::write(&log, &bytes).unwrap();

    let cache = CacheBuilder::new()
        .shard_count(1)
        .durability(&dir)
        .open()
        .expect("a zero-filled tail must not make the log unrecoverable");
    assert_eq!(dump(&cache, "KV"), pre);
    // The truncated-on-open log accepts and persists new writes.
    cache
        .insert("KV", vec![Scalar::Str("c".into()), Scalar::Int(3)])
        .unwrap();
    drop(cache);
    let cache = Cache::recover(&dir).unwrap();
    assert_eq!(cache.table_len("KV").unwrap(), 3);
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn an_interrupted_checkpoint_is_completed_without_losing_the_rotated_log() {
    // Simulate a crash after checkpoint phase 1 (rotate) but before the
    // snapshot landed: the rotated file holds acknowledged records that
    // no snapshot covers. Recovery must replay them, and the completing
    // checkpoint must never clobber them.
    let dir = scratch("interrupted-checkpoint");
    {
        let cache = CacheBuilder::new()
            .shard_count(1)
            .durability(&dir)
            .open()
            .unwrap();
        cache
            .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
            .unwrap();
        for (k, v) in [("a", 1), ("b", 2)] {
            cache
                .insert("KV", vec![Scalar::Str(k.into()), Scalar::Int(v)])
                .unwrap();
        }
    }
    let live = log_path(&dir, 0);
    let rotated = dir.join("wal-000.log.1");
    fs::rename(&live, &rotated).unwrap();

    let cache = CacheBuilder::new()
        .shard_count(1)
        .durability(&dir)
        .open()
        .unwrap();
    assert_eq!(cache.table_len("KV").unwrap(), 2);
    drop(cache);
    // The completing checkpoint moved everything into the snapshot and
    // retired the rotated file; the state must survive another recovery.
    assert!(!rotated.exists());
    let cache = Cache::recover(&dir).unwrap();
    assert_eq!(cache.table_len("KV").unwrap(), 2);
    assert_eq!(
        cache.lookup("KV", "b").unwrap().unwrap().values()[1],
        Scalar::Int(2)
    );
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn records_duplicated_across_rotated_and_live_logs_replay_once() {
    // Simulate a crash between "append live log onto a surviving rotated
    // file" and "truncate live log" (rotate_begin's no-clobber path):
    // the same records exist in both files. LSN dedup must apply each
    // exactly once — a double-applied plain insert would be a
    // duplicate-key error and an unrecoverable log.
    let dir = scratch("dup-records");
    {
        let cache = CacheBuilder::new()
            .shard_count(1)
            .durability(&dir)
            .open()
            .unwrap();
        cache
            .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
            .unwrap();
        for (k, v) in [("a", 1), ("b", 2)] {
            cache
                .insert("KV", vec![Scalar::Str(k.into()), Scalar::Int(v)])
                .unwrap();
        }
    }
    let live = log_path(&dir, 0);
    fs::copy(&live, dir.join("wal-000.log.1")).unwrap();

    let cache = CacheBuilder::new()
        .shard_count(1)
        .durability(&dir)
        .open()
        .expect("duplicated records must not fail replay");
    assert_eq!(cache.table_len("KV").unwrap(), 2);
    assert_eq!(
        cache.wal_stats().unwrap().replayed,
        4,
        "Timer create + KV create + 2 inserts, each exactly once despite two copies on disk"
    );
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn shrinking_the_shard_count_absorbs_and_reclaims_orphan_logs() {
    // Records written under a larger shard_count land in log files whose
    // index the smaller configuration will never append to. They must be
    // replayed, folded into the completing checkpoint's snapshot, and
    // their files reclaimed — not re-scanned forever.
    let dir = scratch("shrink-shards");
    {
        let cache = CacheBuilder::new()
            .shard_count(8)
            .durability(&dir)
            .open()
            .unwrap();
        cache
            .execute("create persistenttable KV (k varchar(8) primary key, v integer)")
            .unwrap();
        for i in 0..12i64 {
            cache
                .upsert(
                    "KV",
                    vec![Scalar::Str(format!("k{i}").into()), Scalar::Int(i)],
                )
                .unwrap();
        }
    }
    let cache = CacheBuilder::new()
        .shard_count(1)
        .durability(&dir)
        .open()
        .unwrap();
    assert_eq!(cache.table_len("KV").unwrap(), 12);
    drop(cache);
    // The completing checkpoint snapshotted everything; no wal file for
    // a shard index >= 1 may survive it.
    for shard in 1..8 {
        assert!(
            !log_path(&dir, shard).exists(),
            "orphan wal-{shard:03}.log must be reclaimed"
        );
    }
    let cache = CacheBuilder::new()
        .shard_count(1)
        .durability(&dir)
        .open()
        .unwrap();
    assert_eq!(cache.table_len("KV").unwrap(), 12);
    drop(cache);
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// The crash-recovery differential proptest.
// ---------------------------------------------------------------------------

/// One randomly generated mutation. Inserts and upserts may carry an
/// idempotency token; batches carry 1–4 rows.
#[derive(Debug, Clone)]
enum Op {
    Insert {
        table: usize,
        row: (u8, i64),
        token: bool,
    },
    Upsert {
        table: usize,
        row: (u8, i64),
        token: bool,
    },
    InsertBatch {
        table: usize,
        rows: Vec<(u8, i64)>,
        token: bool,
    },
    UpsertBatch {
        table: usize,
        rows: Vec<(u8, i64)>,
        token: bool,
    },
    Remove {
        table: usize,
        key: u8,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    (
        0usize..2,
        proptest::collection::vec((0u8..6, -100i64..100), 1..5),
        0u8..5,
        any::<bool>(),
    )
        .prop_map(|(table, rows, kind, token)| {
            let row = rows[0];
            match kind {
                0 => Op::Insert { table, row, token },
                1 => Op::Upsert { table, row, token },
                2 => Op::InsertBatch { table, rows, token },
                3 => Op::UpsertBatch { table, rows, token },
                _ => Op::Remove { table, key: row.0 },
            }
        })
}

/// The in-memory model of one persistent table: rows in scan order.
type ModelTable = Vec<(String, i64, u64)>;

/// Model state of both tables, in the same shape as [`dump`].
fn model_dump(model: &[ModelTable; 2], table: usize) -> Vec<(Vec<Scalar>, u64)> {
    model[table]
        .iter()
        .map(|(k, v, ts)| (vec![Scalar::Str(k.as_str().into()), Scalar::Int(*v)], *ts))
        .collect()
}

/// What one [`Op`] did to the durable cache.
struct Applied {
    /// The op appended one log record.
    logged: bool,
    /// The op's token and the outcome the cache remembered under it
    /// (`None` when the op failed, so nothing was remembered).
    token: Option<(IdemToken, Option<TokenOutcome>)>,
}

/// Apply `op` to `cache` and to `model` at insertion time `now`. A
/// tokened op is stamped with token `(1, seq)`. Writes apply prefix-wise
/// in both: a duplicate key fails a plain insert at that row, keeping
/// the rows before it.
fn apply_op(cache: &Cache, model: &mut [ModelTable; 2], op: &Op, seq: u64, now: u64) -> Applied {
    let (table, rows, upsert, batch, token) = match op {
        Op::Insert { table, row, token } => (*table, vec![*row], false, false, *token),
        Op::Upsert { table, row, token } => (*table, vec![*row], true, false, *token),
        Op::InsertBatch { table, rows, token } => (*table, rows.clone(), false, true, *token),
        Op::UpsertBatch { table, rows, token } => (*table, rows.clone(), true, true, *token),
        Op::Remove { table, key } => {
            let k = format!("k{key}");
            cache.remove(&format!("T{table}"), &k).unwrap();
            model[*table].retain(|(mk, _, _)| *mk != k);
            return Applied {
                logged: true,
                token: None,
            };
        }
    };
    let mut applied = 0;
    for (key, value) in &rows {
        let k = format!("k{key}");
        if model[table].iter().any(|(mk, _, _)| *mk == k) {
            if !upsert {
                break;
            }
            model[table].retain(|(mk, _, _)| *mk != k);
        }
        model[table].push((k, *value, now));
        applied += 1;
    }
    let name = format!("T{table}");
    let values: Vec<Vec<Scalar>> = rows
        .iter()
        .map(|(key, value)| {
            vec![
                Scalar::Str(format!("k{key}").as_str().into()),
                Scalar::Int(*value),
            ]
        })
        .collect();
    let tok = token.then_some(IdemToken { client_id: 1, seq });
    let ok = match (batch, tok) {
        (false, Some(_)) => cache
            .insert_with_token(&name, values[0].clone(), upsert, tok)
            .is_ok(),
        (false, None) if upsert => cache.upsert(&name, values[0].clone()).is_ok(),
        (false, None) => cache.insert(&name, values[0].clone()).is_ok(),
        (true, Some(_)) => cache
            .insert_batch_with_token(&name, values, upsert, tok)
            .is_ok(),
        (true, None) if upsert => cache.upsert_batch(&name, values).is_ok(),
        (true, None) => cache.insert_batch(&name, values).is_ok(),
    };
    assert_eq!(
        ok,
        applied == rows.len(),
        "{op:?} succeeded against the model's verdict"
    );
    Applied {
        logged: applied > 0,
        token: tok.map(|t| {
            let outcome = cache.token_lookup(t);
            assert_eq!(
                outcome.is_some(),
                ok,
                "{op:?}: a token is remembered iff the op succeeded"
            );
            (t, outcome)
        }),
    }
}

/// The recovered cache remembers exactly the writer's outcome for every
/// token whose record survived, and nothing for the rest.
fn assert_token_parity(
    cache: &Cache,
    tokens: &[(IdemToken, Option<TokenOutcome>, usize)],
    survivors: usize,
) {
    for (token, outcome, record) in tokens {
        let expected = if *record <= survivors {
            outcome.clone()
        } else {
            None
        };
        assert_eq!(
            cache.token_lookup(*token),
            expected,
            "token {token:?} of record {record} after {survivors} surviving records"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Crash the log at an arbitrary byte offset (truncation — the torn
    /// final record of a real crash) and require recovery to equal the
    /// model state after exactly the records that survived.
    #[test]
    fn crash_at_any_byte_offset_recovers_the_exact_durable_prefix(
        ops in proptest::collection::vec(arb_op(), 0..40),
        cut_permille in 0u32..=1000,
    ) {
        let dir = scratch("proptest-crash");
        // states[r] = the model after the first r *logged* records.
        let mut states: Vec<[ModelTable; 2]> = Vec::new();
        let mut model: [ModelTable; 2] = [Vec::new(), Vec::new()];
        // (token, the writer's remembered outcome, its record number).
        let mut tokens: Vec<(IdemToken, Option<TokenOutcome>, usize)> = Vec::new();
        {
            let cache = CacheBuilder::new()
                .shard_count(1)
                .manual_clock()
                .durability(&dir)
                .open()
                .unwrap();
            cache.execute(
                "create persistenttable T0 (k varchar(8) primary key, v integer)").unwrap();
            cache.execute(
                "create persistenttable T1 (k varchar(8) primary key, v integer)").unwrap();
            // Move the DDL into the snapshot so the log contains exactly
            // one record per logged op below.
            cache.checkpoint().unwrap();
            states.push(model.clone());

            for (seq, op) in ops.iter().enumerate() {
                cache.manual_clock().unwrap().advance(1);
                let now = cache.now();
                let applied = apply_op(&cache, &mut model, op, seq as u64, now);
                if applied.logged {
                    states.push(model.clone());
                }
                if let Some((token, outcome)) = applied.token {
                    // Only a logged op remembers its token, inside its
                    // own record: record number `states.len() - 1`.
                    tokens.push((token, outcome, states.len() - 1));
                }
            }
        }

        // Crash: truncate the single shard log at an arbitrary offset.
        let log = log_path(&dir, 0);
        let bytes = fs::read(&log).unwrap();
        prop_assert_eq!(count_complete_records(&bytes), states.len() - 1);
        let cut = (bytes.len() * cut_permille as usize) / 1000;
        let survivors = count_complete_records(&bytes[..cut]);
        fs::write(&log, &bytes[..cut]).unwrap();

        let cache = CacheBuilder::new()
            .shard_count(1)
            .durability(&dir)
            .open()
            .unwrap();
        prop_assert_eq!(cache.wal_stats().unwrap().replayed as usize, survivors);
        let expected = &states[survivors];
        for table in 0..2 {
            prop_assert_eq!(
                dump(&cache, &format!("T{table}")),
                model_dump(expected, table),
                "table T{} after {} surviving records", table, survivors
            );
        }
        assert_token_parity(&cache, &tokens, survivors);
        // The recovered cache still accepts durable writes.
        cache.upsert("T0", vec![Scalar::Str("post".into()), Scalar::Int(1)]).unwrap();
        drop(cache);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Flip one byte anywhere in the log: the checksum must stop replay
    /// at the corrupted record, recovering the records before it.
    #[test]
    fn corrupting_any_byte_recovers_the_prefix_before_it(
        ops in proptest::collection::vec(arb_op(), 1..25),
        flip_permille in 0u32..1000,
        flip_bit in 0u8..8,
    ) {
        let dir = scratch("proptest-corrupt");
        let mut states: Vec<[ModelTable; 2]> = Vec::new();
        let mut model: [ModelTable; 2] = [Vec::new(), Vec::new()];
        // (token, the writer's remembered outcome, its record number).
        let mut tokens: Vec<(IdemToken, Option<TokenOutcome>, usize)> = Vec::new();
        {
            let cache = CacheBuilder::new()
                .shard_count(1)
                .manual_clock()
                .durability(&dir)
                .open()
                .unwrap();
            cache.execute(
                "create persistenttable T0 (k varchar(8) primary key, v integer)").unwrap();
            cache.execute(
                "create persistenttable T1 (k varchar(8) primary key, v integer)").unwrap();
            cache.checkpoint().unwrap();
            states.push(model.clone());
            for (seq, op) in ops.iter().enumerate() {
                cache.manual_clock().unwrap().advance(1);
                let now = cache.now();
                let applied = apply_op(&cache, &mut model, op, seq as u64, now);
                if applied.logged {
                    states.push(model.clone());
                }
                if let Some((token, outcome)) = applied.token {
                    // Only a logged op remembers its token, inside its
                    // own record: record number `states.len() - 1`.
                    tokens.push((token, outcome, states.len() - 1));
                }
            }
        }

        let log = log_path(&dir, 0);
        let mut bytes = fs::read(&log).unwrap();
        // At least one op ran against an empty model, and every first op
        // logs (inserts cannot collide with nothing), so the log has at
        // least one record.
        prop_assert!(!bytes.is_empty());
        let flip_at = ((bytes.len() - 1) * flip_permille as usize) / 1000;
        // Records fully contained before the flipped byte survive; the
        // record the byte lands in fails its checksum and stops replay.
        let survivors = count_complete_records(&bytes[..flip_at]);
        bytes[flip_at] ^= 1 << flip_bit;
        fs::write(&log, &bytes).unwrap();

        let cache = CacheBuilder::new()
            .shard_count(1)
            .durability(&dir)
            .open()
            .unwrap();
        prop_assert_eq!(cache.wal_stats().unwrap().replayed as usize, survivors);
        let expected = &states[survivors];
        for table in 0..2 {
            prop_assert_eq!(
                dump(&cache, &format!("T{table}")),
                model_dump(expected, table),
                "table T{} after corruption at byte {}", table, flip_at
            );
        }
        assert_token_parity(&cache, &tokens, survivors);
        drop(cache);
        let _ = fs::remove_dir_all(&dir);
    }
}
