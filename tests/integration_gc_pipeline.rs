//! GC executor equivalence: the sequential baseline (`gc_threads = 1`,
//! pipeline Off), parallel fetch (`gc_threads = 4`, pipeline Off), and
//! the overlapped pipeline (On) must be *bit-identical* — same
//! `GcOutcome` sequence, same surviving records, same hot/cold file
//! routing — under overwrites, deletes, snapshots pinning old versions,
//! and inheritance chains built by repeated GC (mirrors
//! `tests/integration_gc_validation.rs`, which does the same for the
//! validation modes).

use proptest::prelude::*;
use scavenger::{Db, EngineMode, GcOutcome, GcPipeline, MemEnv, Options};
use scavenger_env::EnvRef;

fn opts(env: EnvRef, mode: EngineMode, threads: usize, pipeline: GcPipeline) -> Options {
    let mut o = Options::new(env, "db", mode);
    o.memtable_size = 8 * 1024;
    o.vsst_target_size = 32 * 1024;
    o.base_level_bytes = 64 * 1024;
    o.ksst_target_size = 16 * 1024;
    o.auto_gc = false;
    o.gc_threads = threads;
    o.gc_pipeline = pipeline;
    // Small batches so a pipelined job spans many batches even in these
    // small workloads (otherwise one batch degenerates to sequential).
    o.gc_pipeline_batch = 64;
    o
}

fn value(i: usize, len: usize) -> Vec<u8> {
    let mut v = vec![(i % 251) as u8; len];
    v[0] = (i >> 8) as u8;
    v
}

/// `(key, latest value, snapshot view)` for one surviving record.
type Survivor = (Vec<u8>, Vec<u8>, Option<Vec<u8>>);

/// `(file, hot, entries, size)` for every live value file — the full
/// observable result of hot/cold routing and write batching.
type FileSet = Vec<(u64, bool, u64, u64)>;

fn surviving_records(db: &Db, snap: Option<&scavenger::Snapshot>) -> Vec<Survivor> {
    let mut out = Vec::new();
    let mut it = db.scan(b"", None).unwrap();
    while let Some(e) = it.next().transpose().unwrap() {
        // Pinned read through the snapshot when one is held; otherwise
        // the latest state (nothing writes concurrently here, so that
        // is the same epoch the scan observed).
        let snap_view = match snap {
            Some(s) => db
                .get_with(&scavenger::ReadOptions::pinned(s), &e.key)
                .unwrap(),
            None => db.get(&e.key).unwrap(),
        }
        .map(|b| b.to_vec());
        out.push((e.key, e.value.to_vec(), snap_view));
    }
    out
}

fn value_file_set(db: &Db) -> FileSet {
    let mut files: FileSet = db
        .value_store()
        .all_files()
        .iter()
        .map(|m| (m.file, m.hot, m.entries, m.size))
        .collect();
    files.sort();
    files
}

/// Drive one full workload: load, overwrite (hot skew), delete,
/// snapshot-pin, then GC to a fixed point — twice, so the second round
/// collects records that already live behind inheritance edges.
fn run_workload(
    mode: EngineMode,
    threads: usize,
    pipeline: GcPipeline,
) -> (Vec<GcOutcome>, Vec<Survivor>, FileSet) {
    let env: EnvRef = MemEnv::shared();
    let db = Db::open(opts(env, mode, threads, pipeline)).unwrap();

    for i in 0..120 {
        db.put(format!("key{i:03}"), value(i, 2048)).unwrap();
    }
    db.flush().unwrap();
    // Titan defers GC entirely while snapshots exist, so only the
    // no-writeback schemes hold one through the GC waves.
    let snap = (mode != EngineMode::Titan).then(|| db.snapshot());
    for round in 1..=3 {
        for i in 0..60 {
            db.put(format!("key{i:03}"), value(round * 1000 + i, 2048))
                .unwrap();
        }
        db.flush().unwrap();
    }
    for i in (90..120).step_by(2) {
        db.delete(format!("key{i:03}")).unwrap();
    }
    db.flush().unwrap();
    db.compact_all().unwrap();

    let mut outcomes = Vec::new();
    while let Some(out) = db.run_gc_at(0.05).unwrap() {
        outcomes.push(out);
        assert!(outcomes.len() < 256, "runaway GC");
    }
    for i in 0..40 {
        db.put(format!("key{i:03}"), value(7000 + i, 2048)).unwrap();
    }
    db.flush().unwrap();
    db.compact_all().unwrap();
    while let Some(out) = db.run_gc_at(0.05).unwrap() {
        outcomes.push(out);
        assert!(outcomes.len() < 256, "runaway GC");
    }

    let survivors = surviving_records(&db, snap.as_ref());
    let files = value_file_set(&db);
    drop(snap);
    (outcomes, survivors, files)
}

fn assert_executors_equivalent(mode: EngineMode) {
    let (base_outcomes, base_survivors, base_files) = run_workload(mode, 1, GcPipeline::Off);
    assert!(
        !base_outcomes.is_empty(),
        "{mode:?}: workload must trigger GC jobs"
    );
    for (threads, pipeline) in [
        (4, GcPipeline::Off), // parallel fetch, sequential stages
        (1, GcPipeline::On),  // overlapped stages, serial intra-stage I/O
        (4, GcPipeline::On),  // both levers
    ] {
        let (outcomes, survivors, files) = run_workload(mode, threads, pipeline);
        assert_eq!(
            base_outcomes, outcomes,
            "{mode:?}: threads={threads} {pipeline:?} GcOutcome sequence diverged"
        );
        assert_eq!(
            base_survivors, survivors,
            "{mode:?}: threads={threads} {pipeline:?} surviving record set diverged"
        );
        assert_eq!(
            base_files, files,
            "{mode:?}: threads={threads} {pipeline:?} value-file set (hot/cold routing, \
             rollover boundaries, file numbers) diverged"
        );
    }
}

#[test]
fn scavenger_executors_equivalent() {
    assert_executors_equivalent(EngineMode::Scavenger);
}

#[test]
fn terark_executors_equivalent() {
    assert_executors_equivalent(EngineMode::Terark);
}

#[test]
fn titan_executors_equivalent() {
    assert_executors_equivalent(EngineMode::Titan);
}

/// The pipelined executor actually runs (batches flow through it) and
/// the sequential baseline never touches it. Overlap itself is asserted
/// only in the multi-core CI smoke below — on a single-core runner the
/// scheduler may serialize the stage threads.
#[test]
fn pipeline_counters_move_only_when_enabled() {
    for (pipeline, expect_pipelined) in [(GcPipeline::Off, false), (GcPipeline::On, true)] {
        let env: EnvRef = MemEnv::shared();
        let db = Db::open(opts(env, EngineMode::Scavenger, 4, pipeline)).unwrap();
        for i in 0..120 {
            db.put(format!("key{i:03}"), value(i, 2048)).unwrap();
        }
        db.flush().unwrap();
        // Overwrite alternating keys: every value file keeps a live/dead
        // mix, so GC actually rewrites (and batches) survivors.
        for round in 0..3 {
            for i in (0..120).step_by(2) {
                db.put(format!("key{i:03}"), value(round * 200 + i, 2048))
                    .unwrap();
            }
            db.flush().unwrap();
        }
        db.compact_all().unwrap();
        db.run_gc_until_clean().unwrap();
        let gc = db.stats().gc;
        assert!(gc.write_batches > 0, "write path always batches");
        if expect_pipelined {
            assert!(gc.pipeline_jobs > 0, "pipeline executor must run");
            assert!(
                gc.pipeline_batches > 1,
                "job must span several batches (got {})",
                gc.pipeline_batches
            );
        } else {
            assert_eq!(gc.pipeline_jobs, 0, "Off must stay sequential");
            assert_eq!(gc.pipeline_batches, 0);
            assert_eq!(gc.pipeline_overlaps, 0);
        }
    }
}

/// Multi-core CI smoke (run with `-- --ignored`): under `gc_threads = 4`
/// on a multi-core runner, parallel fetch must dispatch workers and the
/// pipelined executor must report actual stage overlap.
#[test]
#[ignore = "needs a multi-core runner; exercised by the CI multicore job"]
fn multicore_pipeline_overlap_smoke() {
    let env: EnvRef = MemEnv::shared();
    let mut o = opts(env, EngineMode::Scavenger, 4, GcPipeline::On);
    o.memtable_size = 64 << 20; // flush only when asked
    o.vsst_target_size = 1 << 20;
    o.ksst_target_size = 256 * 1024;
    o.base_level_bytes = 16 << 20;
    o.gc_batch_files = 8;
    o.gc_pipeline_batch = 1024;
    let db = Db::open(o).unwrap();
    // Several source files, each left with a ~50% live mix, so one GC
    // job spans many batches with real Fetch + Write work per stage.
    let n = 12_000;
    let slices = 6;
    let per = n / slices;
    for s in 0..slices {
        for i in (s * per)..(s + 1) * per {
            db.put(format!("key{i:06}"), value(i, 700)).unwrap();
        }
        db.flush().unwrap();
    }
    for i in (0..n).step_by(2) {
        db.put(format!("key{i:06}"), value(9000 + i, 700)).unwrap();
    }
    db.flush().unwrap();
    db.compact_all().unwrap();
    let mut forced = 0;
    while db.lsm().force_compact_once().unwrap() {
        forced += 1;
        assert!(forced < 1024, "runaway forced compaction");
    }
    db.run_gc_until_clean().unwrap();
    let gc = db.stats().gc;
    assert!(gc.pipeline_jobs > 0, "pipeline must run");
    assert!(gc.pipeline_batches > 2, "job must span batches");
    assert!(
        gc.pipeline_overlaps > 0,
        "stages must overlap on a multi-core runner (batches={}, backpressure={})",
        gc.pipeline_batches,
        gc.pipeline_backpressure
    );
    assert!(
        gc.fetch_parallel_jobs > 0,
        "parallel fetch must dispatch workers"
    );
}

/// Regression (write-phase file allocation): a Titan GC whose candidates
/// hold only dead records must not allocate a value file — and no GC
/// path may ever surface a zero-entry value file, even when the size
/// target makes the writer roll over on the very last record.
#[test]
fn all_dead_candidates_never_emit_value_files() {
    let env: EnvRef = MemEnv::shared();
    let mut o = opts(env, EngineMode::Titan, 1, GcPipeline::Off);
    o.vsst_target_size = 16 * 1024;
    let db = Db::open(o).unwrap();
    for i in 0..60 {
        db.put(format!("key{i:03}"), value(i, 2048)).unwrap();
    }
    db.flush().unwrap();
    // Overwrite everything: the first blob file becomes 100% garbage.
    for i in 0..60 {
        db.put(format!("key{i:03}"), value(9000 + i, 2048)).unwrap();
    }
    db.flush().unwrap();
    db.compact_all().unwrap();
    let files_before: Vec<u64> = db
        .value_store()
        .all_files()
        .iter()
        .map(|m| m.file)
        .collect();
    let outcome = db.run_gc_at(0.95); // only all-dead files qualify
    if let Ok(Some(out)) = &outcome {
        assert_eq!(
            out.records_rewritten, 0,
            "an all-dead candidate set rewrites nothing"
        );
    }
    let metas = db.value_store().all_files();
    assert!(
        metas.iter().all(|m| m.entries > 0),
        "no value file may be empty: {metas:?}"
    );
    // No new file may have appeared: nothing was rewritten.
    let files_after: Vec<u64> = metas.iter().map(|m| m.file).collect();
    for f in &files_after {
        assert!(
            files_before.contains(f),
            "GC allocated file {f} despite rewriting no records"
        );
    }
}

/// Rollover landing exactly on the final record of a job must not leave
/// an empty trailing file (the eager-allocation bug this PR removes):
/// after GC under a tiny size target, every live value file holds
/// records and every on-disk value file is tracked.
#[test]
fn rollover_at_job_end_leaves_no_empty_files() {
    for (mode, pipeline) in [
        (EngineMode::Scavenger, GcPipeline::Off),
        (EngineMode::Scavenger, GcPipeline::On),
        (EngineMode::Terark, GcPipeline::Off),
        (EngineMode::Titan, GcPipeline::Off),
    ] {
        let env: EnvRef = MemEnv::shared();
        let mut o = opts(env.clone(), mode, 2, pipeline);
        // Tiny target: many rollovers per job, so some job ends exactly
        // at a rollover boundary.
        o.vsst_target_size = 8 * 1024;
        let db = Db::open(o).unwrap();
        for round in 0..4 {
            for i in 0..80 {
                db.put(format!("key{i:03}"), value(round * 100 + i, 2048))
                    .unwrap();
            }
            db.flush().unwrap();
        }
        db.compact_all().unwrap();
        db.run_gc_until_clean().unwrap();
        let metas = db.value_store().all_files();
        assert!(
            metas.iter().all(|m| m.entries > 0),
            "{mode:?} {pipeline:?}: empty value file surfaced"
        );
        // Every value file on disk is accounted for in the store: no
        // orphaned empty files left behind by an abandoned writer.
        let live: std::collections::BTreeSet<u64> = metas.iter().map(|m| m.file).collect();
        for path in env.list_prefix("db/").unwrap() {
            if let Some(num) = path
                .strip_prefix("db/")
                .and_then(|p| p.strip_suffix(".vsst").or_else(|| p.strip_suffix(".blob")))
            {
                let n: u64 = num.parse().unwrap();
                assert!(
                    live.contains(&n),
                    "{mode:?} {pipeline:?}: orphan value file {path}"
                );
            }
        }
        // Data still correct.
        for i in 0..80 {
            assert_eq!(
                db.get(format!("key{i:03}")).unwrap().unwrap(),
                bytes::Bytes::from(value(300 + i, 2048)),
                "{mode:?} {pipeline:?}: key{i}"
            );
        }
    }
}

// ---------------- property test ----------------

#[derive(Debug, Clone)]
enum Op {
    Put(u8, u16),
    Delete(u8),
    Snapshot,
    DropSnapshot,
    Flush,
    Compact,
    Gc,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (any::<u8>(), 600u16..3000).prop_map(|(k, len)| Op::Put(k, len)),
        2 => any::<u8>().prop_map(Op::Delete),
        1 => Just(Op::Snapshot),
        1 => Just(Op::DropSnapshot),
        1 => Just(Op::Flush),
        1 => Just(Op::Compact),
        2 => Just(Op::Gc),
    ]
}

/// Replay `ops` under one executor config; returns every observable:
/// GC outcomes, final records (latest + oldest-snapshot view), and the
/// value-file set.
fn replay(
    ops: &[Op],
    threads: usize,
    pipeline: GcPipeline,
) -> (Vec<GcOutcome>, Vec<Survivor>, FileSet) {
    let env: EnvRef = MemEnv::shared();
    let db = Db::open(opts(env, EngineMode::Scavenger, threads, pipeline)).unwrap();
    let mut outcomes = Vec::new();
    let mut snapshots = Vec::new();
    let mut gen: u32 = 0;
    for op in ops {
        match op {
            Op::Put(k, len) => {
                gen += 1;
                db.put(
                    format!("key{k:03}"),
                    value(*k as usize + gen as usize, *len as usize),
                )
                .unwrap();
            }
            Op::Delete(k) => {
                db.delete(format!("key{k:03}")).unwrap();
            }
            Op::Snapshot => snapshots.push(db.snapshot()),
            Op::DropSnapshot => {
                snapshots.pop();
            }
            Op::Flush => db.flush().unwrap(),
            Op::Compact => db.compact_all().unwrap(),
            Op::Gc => {
                while let Some(out) = db.run_gc_at(0.05).unwrap() {
                    outcomes.push(out);
                    assert!(outcomes.len() < 512, "runaway GC");
                }
            }
        }
    }
    db.flush().unwrap();
    let survivors = surviving_records(&db, snapshots.first());
    let files = value_file_set(&db);
    drop(snapshots);
    (outcomes, survivors, files)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, // each case replays a full DB lifecycle 3×; keep CI time sane
        ..ProptestConfig::default()
    })]

    /// Parallel fetch and the overlapped pipeline are observationally
    /// identical to the sequential baseline on arbitrary op sequences —
    /// including snapshots pinning old versions, overwrites, deletes,
    /// and whatever inheritance chains the interleaved GC calls build.
    #[test]
    fn executors_equivalent_on_random_workloads(
        ops in proptest::collection::vec(op_strategy(), 1..100)
    ) {
        let base = replay(&ops, 1, GcPipeline::Off);
        let parfetch = replay(&ops, 4, GcPipeline::Off);
        prop_assert_eq!(&base, &parfetch, "parallel fetch diverged");
        let pipelined = replay(&ops, 4, GcPipeline::On);
        prop_assert_eq!(&base, &pipelined, "pipelined executor diverged");
    }
}
