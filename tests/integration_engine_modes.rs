//! End-to-end behaviour of all five engine modes under a realistic
//! mixed workload, with full read verification.

use scavenger::{Db, EngineMode, MemEnv, Options};
use scavenger_env::{Env, EnvRef};
use scavenger_util::ikey::extract_user_key;
use scavenger_workload::dist::KeyDist;
use scavenger_workload::runner::Runner;
use scavenger_workload::values::ValueGen;
use scavenger_workload::KvStore;

struct Store<'a>(&'a Db);

impl KvStore for Store<'_> {
    fn put(&self, key: &[u8], value: &[u8]) -> scavenger::Result<()> {
        self.0.put(key, value.to_vec()).map(|_| ())
    }
    fn get(&self, key: &[u8]) -> scavenger::Result<Option<Vec<u8>>> {
        Ok(self.0.get(key)?.map(|b| b.to_vec()))
    }
    fn delete(&self, key: &[u8]) -> scavenger::Result<()> {
        self.0.delete(key).map(|_| ())
    }
    fn scan(&self, start: &[u8], limit: usize) -> scavenger::Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.0
            .scan(start, None)?
            .take(limit)
            .map(|e| e.map(|e| (e.key, e.value.to_vec())))
            .collect()
    }
}

fn small_opts(env: EnvRef, mode: EngineMode) -> Options {
    let mut o = Options::new(env, "db", mode);
    o.memtable_size = 32 * 1024;
    o.vsst_target_size = 128 * 1024;
    o.base_level_bytes = 128 * 1024;
    o.ksst_target_size = 64 * 1024;
    o
}

fn churn_and_verify(mode: EngineMode, value_gen: ValueGen, seed: u64) {
    let env: EnvRef = MemEnv::shared();
    let db = Db::open(small_opts(env, mode)).unwrap();
    let store = Store(&db);
    let n = 300u64;
    let mut runner = Runner::new(n, value_gen, seed).with_verification();
    runner.load(&store, n).unwrap();
    db.flush().unwrap();

    let dist = KeyDist::zipfian(n, 0.9);
    for _ in 0..4 {
        runner.update(&store, &dist, 400).unwrap();
        db.flush().unwrap();
    }
    // Every key must read back its latest value (verification is inside
    // the runner).
    let uniform = KeyDist::uniform(n);
    runner.read(&store, &uniform, 2 * n).unwrap();

    // Scans agree with point reads.
    let rows = store.scan(b"user", 50).unwrap();
    assert!(!rows.is_empty());
    for (k, v) in &rows {
        assert_eq!(store.get(k).unwrap().unwrap(), *v);
    }

    // Space never falls below the logical dataset (no data loss).
    let total = db.stats().space.total();
    let logical = runner.logical_bytes();
    assert!(
        total as f64 > logical as f64 * 0.9,
        "{mode:?}: disk {total} vs logical {logical}"
    );
}

#[test]
fn mixed_8k_churn_all_modes() {
    for mode in EngineMode::ALL {
        churn_and_verify(mode, ValueGen::mixed_8k(), 11);
    }
}

#[test]
fn pareto_churn_all_modes() {
    for mode in EngineMode::ALL {
        churn_and_verify(mode, ValueGen::pareto_1k(), 13);
    }
}

#[test]
fn fixed_16k_churn_all_modes() {
    for mode in EngineMode::ALL {
        churn_and_verify(mode, ValueGen::fixed(16 * 1024), 17);
    }
}

#[test]
fn deletions_interleaved_with_updates() {
    for mode in EngineMode::ALL {
        let env: EnvRef = MemEnv::shared();
        let db = Db::open(small_opts(env, mode)).unwrap();
        for i in 0..200u64 {
            db.put(format!("k{i:04}"), vec![i as u8; 2048]).unwrap();
        }
        for i in (0..200u64).step_by(3) {
            db.delete(format!("k{i:04}")).unwrap();
        }
        db.flush().unwrap();
        db.compact_all().unwrap();
        db.run_gc_until_clean().unwrap();
        for i in 0..200u64 {
            let got = db.get(format!("k{i:04}")).unwrap();
            if i % 3 == 0 {
                assert!(got.is_none(), "{mode:?} k{i} should be deleted");
            } else {
                assert_eq!(got.unwrap(), bytes::Bytes::from(vec![i as u8; 2048]));
            }
        }
    }
}

#[test]
fn scan_ranges_are_exact_across_modes() {
    for mode in EngineMode::ALL {
        let env: EnvRef = MemEnv::shared();
        let db = Db::open(small_opts(env, mode)).unwrap();
        for i in 0..100u64 {
            db.put(format!("k{i:04}"), vec![7u8; 1500]).unwrap();
        }
        db.flush().unwrap();
        let it = db.scan(b"k0020", Some(b"k0030")).unwrap();
        let got: Vec<_> = it.collect::<scavenger::Result<_>>().unwrap();
        assert_eq!(got.len(), 10, "{mode:?}");
        assert_eq!(got[0].key, b"k0020".to_vec());
        assert_eq!(got[9].key, b"k0029".to_vec());
    }
}

#[test]
fn batched_writes_are_atomic_units() {
    let env: EnvRef = MemEnv::shared();
    let db = Db::open(small_opts(env, EngineMode::Scavenger)).unwrap();
    let mut batch = scavenger_lsm::WriteBatch::new();
    for i in 0..50 {
        batch.put(
            format!("b{i:02}").into_bytes(),
            bytes::Bytes::from(vec![1u8; 1024]),
        );
    }
    batch.delete(b"b00");
    db.write(batch).unwrap();
    assert!(
        db.get("b00").unwrap().is_none(),
        "later delete wins in batch"
    );
    for i in 1..50 {
        assert!(db.get(format!("b{i:02}")).unwrap().is_some());
    }
}

/// Foreground reads from a blob log verify the record CRC: a value byte
/// flipped on disk surfaces as corruption, never as the flipped bytes.
#[test]
fn blob_value_corruption_fails_foreground_get() {
    for mode in [EngineMode::Titan, EngineMode::BlobDb] {
        let env = MemEnv::shared();
        let db = Db::open(small_opts(env.clone(), mode)).unwrap();
        db.put(b"key", vec![0x5au8; 4096]).unwrap();
        db.flush().unwrap();
        assert_eq!(db.get(b"key").unwrap().unwrap(), vec![0x5au8; 4096]);

        let blobs: Vec<String> = env
            .list_prefix("db/")
            .unwrap()
            .into_iter()
            .filter(|p| p.ends_with(".blob"))
            .collect();
        assert_eq!(blobs.len(), 1, "{mode:?}: {blobs:?}");
        // Offset 1000 lies inside the 4 KiB value, past the record's
        // varint lengths and 11-byte internal key.
        env.corrupt_byte(&blobs[0], 1000).unwrap();
        let err = db.get(b"key").unwrap_err();
        assert!(
            matches!(err, scavenger::Error::Corruption(_)),
            "{mode:?}: {err}"
        );
    }
}

/// The live value file holding `key`'s one stored version, with the path,
/// offset and payload size of its record.
fn vsst_record_of(db: &Db, key: &[u8]) -> (u64, String, u64, u64) {
    let vs = db.value_store();
    let mut found = Vec::new();
    for meta in vs.all_files() {
        let index = vs.gc_reader(meta.file).unwrap().read_lazy_index().unwrap();
        for (ikey, h) in index {
            if extract_user_key(&ikey) == key {
                let path = format!("{}/{:06}.vsst", vs.dir(), meta.file);
                found.push((meta.file, path, h.offset, h.size));
            }
        }
    }
    assert_eq!(found.len(), 1, "one stored version of the key");
    found.pop().unwrap()
}

/// Both read paths must refuse `key` with corruption; every other row a
/// scan yields before the error must carry its true value.
fn assert_corruption_surfaces(db: &Db, key: &[u8], want: impl Fn(&[u8]) -> Vec<u8>) {
    let err = db.get(key).unwrap_err();
    assert!(matches!(err, scavenger::Error::Corruption(_)), "get: {err}");
    let mut failed = false;
    for row in db.scan(b"", None).unwrap() {
        match row {
            Ok(e) => {
                assert_ne!(e.key, key, "the corrupt row must not be returned");
                assert_eq!(e.value, want(&e.key), "row {:?}", e.key);
            }
            Err(e) => {
                assert!(matches!(e, scavenger::Error::Corruption(_)), "scan: {e}");
                failed = true;
                break;
            }
        }
    }
    assert!(failed, "the scan must fail at the corrupt row");
}

/// In Scavenger mode a flipped byte inside a live vSST record fails both
/// `get` and `scan` with corruption, never returning the flipped bytes:
/// the address-hinted read refuses the record and the keyed lookup
/// reports it. The same holds after GC moved the record to a new file,
/// where the read resolves through the inheritance forest.
#[test]
fn vsst_record_corruption_fails_get_and_scan() {
    let value = |key: &[u8], round: u8| {
        let mut v = vec![round; 2048];
        v[..key.len()].copy_from_slice(key);
        v
    };
    let key = |i: usize| format!("key{i}").into_bytes();

    // A record in the file its index entry names.
    let env = MemEnv::shared();
    let db = Db::open(small_opts(env.clone(), EngineMode::Scavenger)).unwrap();
    for i in 0..8 {
        db.put(key(i), value(&key(i), 0)).unwrap();
    }
    db.flush().unwrap();
    assert_eq!(db.get(key(3)).unwrap().unwrap(), value(&key(3), 0));
    assert!(db.stats().value_reads.reads_by_address > 0);
    let (_, path, off, size) = vsst_record_of(&db, &key(3));
    env.corrupt_byte(&path, off + size - 1).unwrap();
    assert_corruption_surfaces(&db, &key(3), |k| value(k, 0));

    // A record GC moved: overwrite most keys until compaction exposes the
    // first file as mostly garbage, collect it, then corrupt a surviving
    // record in its heir.
    let env = MemEnv::shared();
    let db = Db::open(small_opts(env.clone(), EngineMode::Scavenger)).unwrap();
    for i in 0..8 {
        db.put(key(i), value(&key(i), 0)).unwrap();
    }
    db.flush().unwrap();
    let (before, ..) = vsst_record_of(&db, &key(7));
    for round in 1..=4 {
        for i in 0..6 {
            db.put(key(i), value(&key(i), round)).unwrap();
        }
        db.flush().unwrap();
    }
    db.compact_all().unwrap();
    db.run_gc_until_clean().unwrap();
    assert!(
        db.value_store().meta(before).is_none(),
        "GC collected the file"
    );
    let want = |k: &[u8]| value(k, if k < &b"key6"[..] { 4 } else { 0 });
    assert_eq!(db.get(key(7)).unwrap().unwrap(), want(&key(7)));
    assert!(db.stats().value_reads.reads_inherited > 0);
    let (after, path, off, size) = vsst_record_of(&db, &key(7));
    assert_ne!(after, before, "the record moved");
    env.corrupt_byte(&path, off + size - 1).unwrap();
    assert_corruption_surfaces(&db, &key(7), want);
}
