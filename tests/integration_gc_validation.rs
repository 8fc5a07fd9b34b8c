//! GC validation-mode equivalence: the point-lookup baseline, the
//! merge-validate sweep, and the parallel worker pool must be
//! observationally identical — same `GcOutcome` for every job, same
//! surviving record set — under overwrites, deletes, snapshots pinning
//! old versions, and inheritance chains built by repeated GC.

use scavenger::{Db, EngineMode, GcOutcome, GcValidateMode, MemEnv, Options};
use scavenger_env::EnvRef;

fn opts(env: EnvRef, mode: EngineMode, validate: GcValidateMode) -> Options {
    let mut o = Options::new(env, "db", mode);
    o.memtable_size = 8 * 1024;
    o.vsst_target_size = 32 * 1024;
    o.base_level_bytes = 64 * 1024;
    o.ksst_target_size = 16 * 1024;
    o.auto_gc = false;
    o.gc_validate_mode = validate;
    o.gc_threads = 4;
    o
}

fn value(i: usize, len: usize) -> Vec<u8> {
    let mut v = vec![(i % 251) as u8; len];
    v[0] = (i >> 8) as u8;
    v
}

/// `(key, latest value, snapshot view)` for one surviving record.
type Survivor = (Vec<u8>, Vec<u8>, Option<Vec<u8>>);

/// The full engine-observable state a read can distinguish: every live
/// `(key, value)` pair via scan, plus the snapshot's view of every key.
fn surviving_records(db: &Db, snap: Option<&scavenger::Snapshot>) -> Vec<Survivor> {
    let mut out = Vec::new();
    let mut it = db.scan(b"", None).unwrap();
    while let Some(e) = it.next().transpose().unwrap() {
        // Pinned read through the snapshot when one is held; the latest
        // state otherwise (nothing writes concurrently here).
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

/// Drive one full workload under `validate`: load, overwrite (hot skew),
/// delete, snapshot-pin, then GC to a fixed point — twice, so the second
/// round validates records that already live behind inheritance edges.
/// Returns (job outcomes, surviving records).
fn run_workload(mode: EngineMode, validate: GcValidateMode) -> (Vec<GcOutcome>, Vec<Survivor>) {
    let env: EnvRef = MemEnv::shared();
    let db = Db::open(opts(env, mode, validate)).unwrap();

    // Load.
    for i in 0..120 {
        db.put(format!("key{i:03}"), value(i, 2048)).unwrap();
    }
    db.flush().unwrap();
    // Snapshot pins the loaded versions. Titan defers GC entirely while
    // snapshots exist, so only the no-writeback schemes hold one through
    // the GC waves.
    let snap = (mode != EngineMode::Titan).then(|| db.snapshot());
    // Overwrites: hot head of the keyspace, several rounds.
    for round in 1..=3 {
        for i in 0..60 {
            db.put(format!("key{i:03}"), value(round * 1000 + i, 2048))
                .unwrap();
        }
        db.flush().unwrap();
    }
    // Deletes.
    for i in (90..120).step_by(2) {
        db.delete(format!("key{i:03}")).unwrap();
    }
    db.flush().unwrap();
    db.compact_all().unwrap();

    // First GC wave: collects original files, building inheritance edges.
    let mut outcomes = Vec::new();
    while let Some(out) = db.run_gc_at(0.05).unwrap() {
        outcomes.push(out);
        assert!(outcomes.len() < 256, "runaway GC");
    }
    // More churn on top of GC outputs, then a second wave so validation
    // must resolve through inheritance chains.
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
    drop(snap);
    (outcomes, survivors)
}

fn assert_modes_equivalent(mode: EngineMode) {
    let (base_outcomes, base_survivors) = run_workload(mode, GcValidateMode::Point);
    assert!(
        !base_outcomes.is_empty(),
        "{mode:?}: workload must trigger GC jobs"
    );
    for validate in [GcValidateMode::Merge, GcValidateMode::Parallel] {
        let (outcomes, survivors) = run_workload(mode, validate);
        assert_eq!(
            base_outcomes, outcomes,
            "{mode:?}: {validate:?} GcOutcome sequence diverged from Point"
        );
        assert_eq!(
            base_survivors, survivors,
            "{mode:?}: {validate:?} surviving record set diverged from Point"
        );
    }
}

#[test]
fn scavenger_validation_modes_equivalent() {
    assert_modes_equivalent(EngineMode::Scavenger);
}

#[test]
fn terark_validation_modes_equivalent() {
    assert_modes_equivalent(EngineMode::Terark);
}

#[test]
fn titan_validation_modes_equivalent() {
    assert_modes_equivalent(EngineMode::Titan);
}

/// Snapshot versions survive GC identically in all validation modes even
/// when the snapshot is the *only* thing keeping a record alive.
#[test]
fn snapshot_pinned_records_survive_in_all_modes() {
    for validate in [
        GcValidateMode::Point,
        GcValidateMode::Merge,
        GcValidateMode::Parallel,
    ] {
        let env: EnvRef = MemEnv::shared();
        let db = Db::open(opts(env, EngineMode::Scavenger, validate)).unwrap();
        db.put("pinned", value(1, 4096)).unwrap();
        db.flush().unwrap();
        let snap = db.snapshot();
        // Make the original file collectible: overwrite and churn.
        for round in 0..4 {
            db.put("pinned", value(100 + round, 4096)).unwrap();
            for i in 0..30 {
                db.put(format!("fill{i:02}"), value(i, 2048)).unwrap();
            }
            db.flush().unwrap();
        }
        db.compact_all().unwrap();
        db.run_gc_until_clean().unwrap();
        assert_eq!(
            db.get_with(&scavenger::ReadOptions::pinned(&snap), "pinned")
                .unwrap()
                .unwrap(),
            bytes::Bytes::from(value(1, 4096)),
            "{validate:?}: snapshot version lost"
        );
        assert_eq!(
            db.get("pinned").unwrap().unwrap(),
            bytes::Bytes::from(value(103, 4096)),
            "{validate:?}: latest version wrong"
        );
        drop(snap);
    }
}

/// The dry-run validation report agrees across all three modes and with
/// the file's actual live-record count.
#[test]
fn dry_run_validation_agrees_across_modes() {
    let env: EnvRef = MemEnv::shared();
    let mut o = opts(env, EngineMode::Scavenger, GcValidateMode::Auto);
    o.memtable_size = 1 << 20; // one flush ...
    o.vsst_target_size = 4 << 20; // ... -> one value file
    let db = Db::open(o).unwrap();
    for i in 0..300 {
        db.put(format!("key{i:03}"), value(i, 1024)).unwrap();
    }
    db.flush().unwrap();
    // Overwrite a third; those records in the original file become dead
    // (their newer versions live in a newer value file).
    for i in 0..100 {
        db.put(format!("key{i:03}"), value(9000 + i, 1024)).unwrap();
    }
    db.flush().unwrap();
    db.compact_all().unwrap();

    let mut files = db.value_store().all_files();
    files.sort_by_key(|m| m.file);
    let first = files.first().expect("value files exist").file;
    let point = db
        .gc_validate_file(first, Some(GcValidateMode::Point))
        .unwrap();
    let merge = db
        .gc_validate_file(first, Some(GcValidateMode::Merge))
        .unwrap();
    let parallel = db
        .gc_validate_file(first, Some(GcValidateMode::Parallel))
        .unwrap();
    assert_eq!(point.records, merge.records);
    assert_eq!(point.valid, merge.valid, "merge diverged");
    assert_eq!(point.valid, parallel.valid, "parallel diverged");
    assert_eq!(point.records, 300);
    assert_eq!(point.valid, 200, "100 of 300 records were overwritten");
    assert_eq!(merge.mode, GcValidateMode::Merge);
    assert_eq!(parallel.mode, GcValidateMode::Parallel);
}

/// Merge-validate actually exercises the sweep machinery (counters move),
/// so the equivalence above is not vacuous.
#[test]
fn merge_mode_reports_sweep_counters() {
    let env: EnvRef = MemEnv::shared();
    let db = Db::open(opts(env, EngineMode::Scavenger, GcValidateMode::Merge)).unwrap();
    for round in 0..4 {
        for i in 0..80 {
            db.put(format!("key{i:03}"), value(round * 100 + i, 2048))
                .unwrap();
        }
        db.flush().unwrap();
    }
    db.compact_all().unwrap();
    db.run_gc_until_clean().unwrap();
    let gc = db.stats().gc;
    assert!(gc.validate_batches > 0, "validation ran");
    assert!(gc.validate_sweeps > 0, "merge sweeps ran");
    assert!(
        gc.validate_sweep_steps + gc.validate_sweep_seeks > 0,
        "sweeps did work"
    );
    assert_eq!(
        gc.validate_point_lookups, 0,
        "no point lookups in Merge mode"
    );
}

/// Write-back (Titan) dry-run validation uses address identity: records
/// relocated by GC stay live even though their written-back index
/// entries carry fresh sequence numbers.
#[test]
fn dry_run_uses_address_identity_for_writeback() {
    let env: EnvRef = MemEnv::shared();
    let db = Db::open(opts(env, EngineMode::Titan, GcValidateMode::Point)).unwrap();
    for round in 0..4 {
        for i in 0..40 {
            db.put(format!("key{i:03}"), value(round * 64 + i, 2048))
                .unwrap();
        }
        db.flush().unwrap();
    }
    db.compact_all().unwrap();
    assert!(
        db.run_gc_until_clean().unwrap() > 0,
        "Titan GC must relocate"
    );
    // The newest blob file is a GC output holding only live records.
    let newest = db
        .value_store()
        .all_files()
        .iter()
        .map(|m| m.file)
        .max()
        .expect("value files exist");
    for mode in [
        GcValidateMode::Point,
        GcValidateMode::Merge,
        GcValidateMode::Parallel,
    ] {
        let rep = db.gc_validate_file(newest, Some(mode)).unwrap();
        assert!(rep.records > 0);
        assert_eq!(
            rep.valid, rep.records,
            "{mode:?}: relocated records must all be live despite fresh index seqs"
        );
    }
}
