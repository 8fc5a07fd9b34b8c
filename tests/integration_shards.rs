//! Sharded-engine equivalence and routing-stability suite.
//!
//! The contract under test: a 4-shard [`DbShards`] is observationally
//! identical to a single [`Db`] — same gets, same merged scan order and
//! contents, same snapshot reads — under a random op sequence with
//! flush/compaction/GC interleavings; routing is stable across reopen;
//! cross-shard scans honor bound edges exactly; the §III-D space
//! budget is enforced globally across shards; and the set's statistics
//! are the per-shard ones folded under their declared merge rules.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scavenger::{
    Db, DbShards, EngineMode, Env, MemEnv, Options, ReadOptions, ShardedOptions, Transactional,
    WriteOptions,
};
use scavenger_env::EnvRef;

fn single_opts(env: EnvRef, dir: &str, mode: EngineMode) -> Options {
    let mut o = Options::new(env, dir, mode);
    o.memtable_size = 8 * 1024;
    o.vsst_target_size = 32 * 1024;
    o.base_level_bytes = 64 * 1024;
    o.ksst_target_size = 16 * 1024;
    o.auto_gc = false;
    o
}

fn sharded_opts(env: EnvRef, dir: &str, mode: EngineMode, shards: usize) -> ShardedOptions {
    let mut o = ShardedOptions::new(env.clone(), dir, mode);
    o.num_shards = shards;
    o.base = single_opts(env, dir, mode);
    o
}

fn value(i: usize, len: usize) -> Vec<u8> {
    let mut v = vec![(i % 251) as u8; len];
    v[0] = (i >> 8) as u8;
    v[1] = (i & 0xff) as u8;
    v
}

/// One random operation, replayable against both engines.
#[derive(Debug, Clone)]
enum Op {
    Put(usize, usize),
    Delete(usize),
    Flush,
    Compact,
    Gc,
}

fn random_ops(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let roll: u32 = rng.gen_range(0..100u32);
        ops.push(match roll {
            0..=59 => Op::Put(rng.gen_range(0..150usize), rng.gen_range(64..3000usize)),
            60..=74 => Op::Delete(rng.gen_range(0..150usize)),
            75..=87 => Op::Flush,
            88..=93 => Op::Compact,
            _ => Op::Gc,
        });
    }
    ops
}

fn key(i: usize) -> String {
    format!("key{i:04}")
}

/// The full observable state: every key's latest value, the merged full
/// scan, a bounded scan, and snapshot reads taken mid-sequence.
type Observation = (
    Vec<(String, Option<Vec<u8>>)>,
    Vec<(Vec<u8>, Vec<u8>)>,
    Vec<(Vec<u8>, Vec<u8>)>,
    Vec<(String, Option<Vec<u8>>)>,
);

/// Either engine behind the identical surface the replay exercises.
enum Engine {
    Single(Db),
    Sharded(DbShards),
}

/// A snapshot handle from either engine.
enum Snap {
    Single(scavenger::Snapshot),
    Sharded(scavenger::ShardsSnapshot),
}

impl Engine {
    fn put(&self, k: String, v: Vec<u8>) {
        match self {
            Engine::Single(db) => db.put(k, v).map(|_| ()).unwrap(),
            Engine::Sharded(db) => db.put(k, v).map(|_| ()).unwrap(),
        }
    }

    fn delete(&self, k: String) {
        match self {
            Engine::Single(db) => db.delete(k).map(|_| ()).unwrap(),
            Engine::Sharded(db) => db.delete(k).map(|_| ()).unwrap(),
        }
    }

    fn flush(&self) {
        match self {
            Engine::Single(db) => db.flush().unwrap(),
            Engine::Sharded(db) => db.flush().unwrap(),
        }
    }

    fn compact(&self) {
        match self {
            Engine::Single(db) => db.compact_all().unwrap(),
            Engine::Sharded(db) => {
                db.compact_all().unwrap();
            }
        }
    }

    fn gc(&self) {
        match self {
            Engine::Single(db) => {
                db.run_gc().unwrap();
            }
            Engine::Sharded(db) => {
                db.run_gc().unwrap();
            }
        }
    }

    fn get(&self, k: String) -> Option<Vec<u8>> {
        match self {
            Engine::Single(db) => db.get(k).unwrap().map(|b| b.to_vec()),
            Engine::Sharded(db) => db.get(k).unwrap().map(|b| b.to_vec()),
        }
    }

    fn snapshot(&self) -> Snap {
        match self {
            Engine::Single(db) => Snap::Single(db.snapshot()),
            Engine::Sharded(db) => Snap::Sharded(db.snapshot()),
        }
    }

    fn scan(&self, lo: &[u8], hi: Option<&[u8]>) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        match self {
            Engine::Single(db) => {
                let mut it = db.scan(lo, hi).unwrap();
                while let Some(e) = it.next_entry().unwrap() {
                    out.push((e.key, e.value.to_vec()));
                }
            }
            Engine::Sharded(db) => {
                let mut it = db.scan(lo, hi).unwrap();
                while let Some(e) = it.next_entry().unwrap() {
                    out.push((e.key, e.value.to_vec()));
                }
            }
        }
        out
    }
}

impl Snap {
    fn get(&self, k: String) -> Option<Vec<u8>> {
        match self {
            Snap::Single(s) => s.get(k).unwrap().map(|b| b.to_vec()),
            Snap::Sharded(s) => s.get(k).unwrap().map(|b| b.to_vec()),
        }
    }
}

/// Replay `ops` against either engine, snapshotting at `snap_at` ops,
/// and collect the full observable state.
fn replay(db: &Engine, ops: &[Op], snap_at: usize) -> Observation {
    let mut snap = None;
    for (i, op) in ops.iter().enumerate() {
        if i == snap_at {
            snap = Some(db.snapshot());
        }
        match op {
            Op::Put(k, len) => db.put(key(*k), value(*k + len, *len)),
            Op::Delete(k) => db.delete(key(*k)),
            Op::Flush => db.flush(),
            Op::Compact => db.compact(),
            Op::Gc => db.gc(),
        }
    }
    let gets = (0..150).map(|i| (key(i), db.get(key(i)))).collect();
    let full = db.scan(b"", None);
    let bounded = db.scan(b"key0040", Some(b"key0090"));
    let snap_reads = match &snap {
        Some(s) => (0..150).map(|i| (key(i), s.get(key(i)))).collect(),
        None => Vec::new(),
    };
    (gets, full, bounded, snap_reads)
}

fn replay_single(env: EnvRef, ops: &[Op], snap_at: usize, mode: EngineMode) -> Observation {
    let db = Engine::Single(Db::open(single_opts(env, "single", mode)).unwrap());
    replay(&db, ops, snap_at)
}

fn replay_sharded(
    env: EnvRef,
    ops: &[Op],
    snap_at: usize,
    mode: EngineMode,
    shards: usize,
) -> Observation {
    let db = Engine::Sharded(DbShards::open(sharded_opts(env, "sharded", mode, shards)).unwrap());
    replay(&db, ops, snap_at)
}

/// The acceptance equivalence suite: 4-shard DbShards must match a
/// single Db result-for-result under random op sequences interleaving
/// puts/deletes with flush, compaction, and GC, including reads through
/// a snapshot taken mid-sequence.
#[test]
fn four_shards_match_single_db_under_random_ops() {
    for (seed, mode) in [
        (11, EngineMode::Scavenger),
        (12, EngineMode::Scavenger),
        (13, EngineMode::Terark),
        (14, EngineMode::Titan),
    ] {
        let ops = random_ops(seed, 400);
        let single = replay_single(MemEnv::shared(), &ops, 200, mode);
        let sharded = replay_sharded(MemEnv::shared(), &ops, 200, mode, 4);
        assert_eq!(single.0, sharded.0, "seed {seed} {mode:?}: gets diverged");
        assert_eq!(
            single.1, sharded.1,
            "seed {seed} {mode:?}: merged full scan diverged"
        );
        assert_eq!(
            single.2, sharded.2,
            "seed {seed} {mode:?}: bounded scan diverged"
        );
        assert_eq!(
            single.3, sharded.3,
            "seed {seed} {mode:?}: snapshot reads diverged"
        );
    }
}

/// Cross-shard scan ordering at bound edges: bounds exactly on keys,
/// bounds between keys, empty ranges, a range owned entirely by one
/// shard (every other shard's iterator is empty — "reverse-empty"), and
/// `lower/upper_bound` through the unified `ReadOptions`.
#[test]
fn cross_shard_scan_bound_edges() {
    let db = DbShards::open(sharded_opts(
        MemEnv::shared(),
        "bounds",
        EngineMode::Scavenger,
        4,
    ))
    .unwrap();
    for i in 0..100 {
        db.put(key(i), value(i, 600)).unwrap();
    }
    db.flush().unwrap();

    // Exact-key bounds: lower inclusive, upper exclusive.
    let got = db
        .scan(b"key0010", Some(b"key0020"))
        .unwrap()
        .collect_n(usize::MAX)
        .unwrap();
    assert_eq!(got.len(), 10);
    assert_eq!(got[0].key, b"key0010");
    assert_eq!(got[9].key, b"key0019");

    // Bounds between keys.
    let got = db
        .scan(b"key0010x", Some(b"key0012x"))
        .unwrap()
        .collect_n(usize::MAX)
        .unwrap();
    assert_eq!(
        got.iter().map(|e| e.key.clone()).collect::<Vec<_>>(),
        vec![b"key0011".to_vec(), b"key0012".to_vec()]
    );

    // Empty range (lower == upper) and inverted range.
    assert!(db
        .scan(b"key0050", Some(b"key0050"))
        .unwrap()
        .collect_n(usize::MAX)
        .unwrap()
        .is_empty());
    assert!(db
        .scan(b"key0060", Some(b"key0050"))
        .unwrap()
        .collect_n(usize::MAX)
        .unwrap()
        .is_empty());

    // Range past the end of the data.
    assert!(db
        .scan(b"key9000", None)
        .unwrap()
        .collect_n(usize::MAX)
        .unwrap()
        .is_empty());

    // A single-key range: exactly one shard contributes; all other
    // shard iterators come up empty and the merge must still terminate
    // in order.
    let got = db
        .scan(b"key0042", Some(b"key0043"))
        .unwrap()
        .collect_n(usize::MAX)
        .unwrap();
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].key, b"key0042");
    assert_eq!(got[0].value, bytes::Bytes::from(value(42, 600)));

    // Bounds through the unified ReadOptions (and fill_cache=false path).
    let ro = ReadOptions {
        lower_bound: Some(b"key0095".to_vec()),
        upper_bound: None,
        fill_cache: false,
        ..ReadOptions::default()
    };
    let got = db.scan_with(&ro).unwrap().collect_n(usize::MAX).unwrap();
    assert_eq!(got.len(), 5);
    assert!(got.windows(2).all(|w| w[0].key < w[1].key));

    // Bounded scan through a pinned view set: later writes invisible.
    // The sharded view pins through the same ReadOptions type.
    let view = db.view();
    db.put("key0011", b"overwritten".to_vec()).unwrap();
    let ro = ReadOptions {
        lower_bound: Some(b"key0010".to_vec()),
        upper_bound: Some(b"key0012".to_vec()),
        ..ReadOptions::pinned(&view)
    };
    let got = db.scan_with(&ro).unwrap().collect_n(usize::MAX).unwrap();
    assert_eq!(got.len(), 2);
    assert_eq!(got[1].value, bytes::Bytes::from(value(11, 600)));
}

/// Routing must be byte-stable across close + reopen: every key routes
/// to the shard that owns its data, even when the caller passes a
/// different (ignored) seed at reopen, and all data reads back.
#[test]
fn shard_routing_stable_across_reopen() {
    let env: EnvRef = MemEnv::shared();
    let placements: Vec<usize>;
    {
        let mut o = sharded_opts(env.clone(), "reopen", EngineMode::Scavenger, 4);
        o.route_seed = 0x1234_5678;
        let db = DbShards::open(o).unwrap();
        for i in 0..200 {
            db.put(key(i), value(i, 1024)).unwrap();
        }
        db.flush().unwrap();
        placements = (0..200).map(|i| db.shard_of(key(i))).collect();
        assert_eq!(db.route_seed(), 0x1234_5678);
    }
    {
        // Different caller seed: the stored routing contract wins.
        let mut o = sharded_opts(env.clone(), "reopen", EngineMode::Scavenger, 4);
        o.route_seed = 0xdead_beef;
        let db = DbShards::open(o).unwrap();
        assert_eq!(db.route_seed(), 0x1234_5678, "stored seed is authoritative");
        for (i, &placed) in placements.iter().enumerate() {
            assert_eq!(
                db.shard_of(key(i)),
                placed,
                "key{i} moved shards across reopen"
            );
            assert_eq!(
                db.get(key(i)).unwrap().unwrap(),
                bytes::Bytes::from(value(i, 1024)),
                "key{i} unreadable after reopen"
            );
        }
        // The data actually lives on the routed shard.
        for i in (0..200).step_by(17) {
            assert!(db.shard(placements[i]).get(key(i)).unwrap().is_some());
        }
    }
}

/// Reopening with a different shard count must fail loudly, not
/// silently route keys away from their data.
#[test]
fn reopen_with_wrong_shard_count_is_refused() {
    let env: EnvRef = MemEnv::shared();
    {
        let db = DbShards::open(sharded_opts(
            env.clone(),
            "countdb",
            EngineMode::Scavenger,
            4,
        ))
        .unwrap();
        db.put("k", b"v".to_vec()).unwrap();
    }
    let err = DbShards::open(sharded_opts(
        env.clone(),
        "countdb",
        EngineMode::Scavenger,
        8,
    ));
    assert!(err.is_err(), "shard-count mismatch must refuse to open");
    // The original count still works.
    let db = DbShards::open(sharded_opts(env, "countdb", EngineMode::Scavenger, 4)).unwrap();
    assert_eq!(
        db.get("k").unwrap().unwrap(),
        bytes::Bytes::from_static(b"v")
    );
}

/// The §III-D throttle enforces ONE budget across shards: total space
/// is pulled back toward the global limit even though each admission
/// check runs on a single shard, and activations aggregate on the
/// shared throttle.
#[test]
fn space_budget_is_global_across_shards() {
    let mut o = sharded_opts(MemEnv::shared(), "quota", EngineMode::Scavenger, 4);
    o.base.space_limit = Some(900 * 1024); // global cap, ~225 KiB/shard
    let db = DbShards::open(o).unwrap();
    // ~3 MiB of updates over a small key set: garbage everywhere.
    for round in 0..16 {
        for i in 0..96 {
            db.put(format!("key{i:02}"), value(round + i, 2048))
                .unwrap();
        }
    }
    db.flush().unwrap();
    let stalls: u64 = db.throttle().activation_count();
    assert!(stalls > 0, "global throttle must have activated");
    // Per-shard stats see the same shared counter.
    for s in db.shard_stats() {
        assert_eq!(s.throttle_stalls, stalls);
    }
    // All data correct under throttling.
    for i in 0..96 {
        assert_eq!(
            db.get(format!("key{i:02}")).unwrap().unwrap(),
            bytes::Bytes::from(value(15 + i, 2048))
        );
    }
    // Aggregate space pulled back toward the quota (allow one memtable +
    // one vSST of transient overshoot per shard).
    let total = db.space().total();
    assert!(
        total < (900 + 4 * 160) * 1024,
        "global space {total} should be near the 900 KiB budget"
    );
}

/// Pinned-read-point gauges: views and snapshots show up in stats while
/// registered and disappear on drop.
#[test]
fn read_point_gauges_track_views_and_snapshots() {
    let db = Db::open(single_opts(
        MemEnv::shared(),
        "gauges",
        EngineMode::Scavenger,
    ))
    .unwrap();
    db.put("k", value(1, 900)).unwrap();
    let s = db.stats();
    assert_eq!(s.pinned_views, 0);
    assert_eq!(s.live_snapshots, 0);
    assert!(s.oldest_read_point.is_none());

    let view = db.view();
    let snap = db.snapshot();
    let s = db.stats();
    assert_eq!(s.pinned_views, 1, "one live ReadView");
    assert_eq!(s.live_snapshots, 1, "one live Snapshot");
    assert_eq!(s.oldest_read_point, Some(view.sequence()));

    drop(view);
    drop(snap);
    let s = db.stats();
    assert_eq!(s.pinned_views, 0);
    assert_eq!(s.live_snapshots, 0);
    assert!(s.oldest_read_point.is_none());
}

/// Batched writes with per-call options route through shards, and
/// `WriteOptions::sync = false` stays functional through the sharded
/// entry points.
#[test]
fn sharded_write_options_and_batches() {
    let db = DbShards::open(sharded_opts(
        MemEnv::shared(),
        "wopts",
        EngineMode::Scavenger,
        3,
    ))
    .unwrap();
    let nosync = WriteOptions {
        sync: false,
        ..WriteOptions::default()
    };
    let mut batch = scavenger_lsm::WriteBatch::new();
    for i in 0..60 {
        batch.put(key(i), bytes::Bytes::from(value(i, 128)));
    }
    db.write_with(&nosync, batch).unwrap();
    for i in 0..60 {
        db.put_with(&nosync, key(i + 100), value(i, 700)).unwrap();
    }
    db.flush().unwrap();
    for i in 0..60 {
        assert!(db.get(key(i)).unwrap().is_some());
        assert!(db.get(key(i + 100)).unwrap().is_some());
    }
}

/// Multi-core acceptance check (run with `--include-ignored` in the CI
/// multicore job, `gc_threads = 4`): after a garbage-heavy workload
/// touching every shard, one `run_gc` fan-out must leave **every**
/// shard's GC stats non-zero — all shards did GC work through the
/// scoped-thread maintenance pool, i.e. background work parallelizes
/// across shards rather than serializing on one scheduler.
#[test]
#[ignore = "needs multiple cores to demonstrate parallel per-shard GC; CI runs it"]
fn multicore_gc_runs_on_every_shard() {
    let mut o = sharded_opts(MemEnv::shared(), "mc", EngineMode::Scavenger, 4);
    o.base.gc_threads = 4;
    let db = DbShards::open(o).unwrap();
    // Updates over a fixed key set → exposed garbage on every shard.
    for round in 0..6 {
        for i in 0..240 {
            db.put(key(i), value(round * 300 + i, 2048)).unwrap();
        }
        db.flush().unwrap();
    }
    db.compact_all().unwrap();
    let jobs = db.run_gc_until_clean().unwrap();
    assert!(jobs >= 4, "expected GC work on all shards, ran {jobs} jobs");
    let stats = db.shard_stats();
    for (i, s) in stats.iter().enumerate() {
        assert!(
            s.gc.runs > 0,
            "shard {i} ran no GC jobs (runs per shard: {:?})",
            stats.iter().map(|s| s.gc.runs).collect::<Vec<_>>()
        );
        assert!(s.gc.reclaimed_bytes > 0, "shard {i} reclaimed nothing");
    }
    // All data survives parallel cross-shard GC.
    for i in 0..240 {
        assert_eq!(
            db.get(key(i)).unwrap().unwrap(),
            bytes::Bytes::from(value(5 * 300 + i, 2048))
        );
    }
}

/// A transaction committed through a member handle (`db.shard(i)`)
/// counts in the set's aggregate alongside set-level commits.
#[test]
fn member_transactions_count_in_set_stats() {
    let db = DbShards::open(sharded_opts(
        MemEnv::shared(),
        "txn-count",
        EngineMode::Scavenger,
        4,
    ))
    .unwrap();
    let mut txn = db.shard(0).begin();
    txn.put(key(1), value(1, 64));
    txn.commit().unwrap();
    let mut txn = db.begin();
    txn.put(key(2), value(2, 64));
    txn.commit().unwrap();
    assert_eq!(db.stats().txn_commits, 2);
}

/// `DbShards::stats` is the fold of `per_shard_stats` under each field's
/// declared merge rule, except the set-level values, which come from
/// their own sources.
#[test]
fn set_stats_fold_per_shard_stats_under_declared_rules() {
    let env = MemEnv::shared();
    let db = DbShards::open(sharded_opts(env.clone(), "agg", EngineMode::Scavenger, 4)).unwrap();
    for round in 0..3 {
        for i in 0..300 {
            db.put(key(i), value(i + round, 700)).unwrap();
        }
    }
    for i in (0..300).step_by(5) {
        db.delete(key(i)).unwrap();
    }
    let mut batch = scavenger_lsm::WriteBatch::new();
    for i in 0..8 {
        batch.put(key(i + 1000), bytes::Bytes::from(value(i, 64)));
    }
    db.write(batch).unwrap();
    db.flush().unwrap();
    db.run_gc_until_clean().unwrap();
    let mut txn = db.shard(1).begin();
    txn.put(key(2000), value(1, 64));
    txn.commit().unwrap();
    let mut txn = db.begin();
    txn.get(key(3)).unwrap();
    txn.put(key(3), value(3, 64));
    txn.commit().unwrap();
    let _snap = db.snapshot();

    let got = db.stats();
    let per = db.shard_stats();
    assert!(got.gc.runs > 0 && got.flushes > 0 && got.txn_2pc_commits > 0);

    // The declared rules, spelled out for a few fields of each kind.
    assert_eq!(got.flushes, per.iter().map(|s| s.flushes).sum::<u64>());
    assert_eq!(got.gc.runs, per.iter().map(|s| s.gc.runs).sum::<u64>());
    assert_eq!(
        got.group_commit_max_group,
        per.iter().map(|s| s.group_commit_max_group).max().unwrap()
    );
    assert_eq!(
        got.oldest_read_point,
        per.iter().filter_map(|s| s.oldest_read_point).min()
    );
    assert_eq!(got.degraded, per.iter().any(|s| s.degraded));

    // Every field: the declared fold, then the set-level values from
    // their sources.
    let mut want = per[0].clone();
    for s in &per[1..] {
        want.merge(s);
    }
    want.throttle_stalls = db.throttle().activation_count();
    want.cache_hit_ratio = db.block_cache().hit_ratio();
    want.index_space_amp = per
        .iter()
        .map(|s| s.index_space_amp * s.space.ksst_bytes as f64)
        .sum::<f64>()
        / want.space.ksst_bytes as f64;
    // One set-level transaction and one cross-shard 2PC batch on top of
    // the member's commit.
    assert_eq!(want.txn_commits, 1);
    want.txn_commits += 1;
    want.txn_2pc_commits += 1;
    want.space.other_bytes +=
        env.file_size("agg/SHARDS").unwrap() + env.file_size("agg/COORDLOG").unwrap();
    assert_eq!(got, want);
}
