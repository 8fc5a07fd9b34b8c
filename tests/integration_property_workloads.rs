//! Property-based end-to-end testing: random operation sequences applied
//! both to a Scavenger database and to a model (`BTreeMap`); the two must
//! agree at every step, across flushes, compactions, GC, and reopen.

use proptest::prelude::*;
use scavenger::{Db, EngineMode, MemEnv, Options};
use scavenger_env::EnvRef;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Put(u8, u16),
    Delete(u8),
    Flush,
    Compact,
    Gc,
    Reopen,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (any::<u8>(), 1u16..3000).prop_map(|(k, len)| Op::Put(k, len)),
        2 => any::<u8>().prop_map(Op::Delete),
        1 => Just(Op::Flush),
        1 => Just(Op::Compact),
        1 => Just(Op::Gc),
        1 => Just(Op::Reopen),
    ]
}

fn opts(env: EnvRef, mode: EngineMode) -> Options {
    let mut o = Options::new(env, "db", mode);
    o.memtable_size = 16 * 1024;
    o.base_level_bytes = 64 * 1024;
    o.vsst_target_size = 64 * 1024;
    o
}

fn value_for(k: u8, len: u16, gen: u32) -> Vec<u8> {
    let mut v = vec![k; len as usize];
    if v.len() >= 4 {
        v[..4].copy_from_slice(&gen.to_le_bytes());
    }
    v
}

fn check_model(db: &Db, model: &BTreeMap<Vec<u8>, Vec<u8>>) {
    // Point reads agree for every key ever touched.
    for (k, v) in model {
        let got = db.get(k).unwrap();
        assert_eq!(got.as_deref(), Some(v.as_slice()), "key {k:?}");
    }
    // A full scan agrees with the model.
    let mut it = db.scan(b"", None).unwrap();
    let mut scanned = Vec::new();
    while let Some(e) = it.next().transpose().unwrap() {
        scanned.push((e.key, e.value.to_vec()));
    }
    let expected: Vec<(Vec<u8>, Vec<u8>)> =
        model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    assert_eq!(scanned, expected, "scan mismatch");
}

fn run_ops(mode: EngineMode, ops: &[Op]) {
    let env: EnvRef = MemEnv::shared();
    let mut db = Db::open(opts(env.clone(), mode)).unwrap();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut gen = 0u32;
    for op in ops {
        match op {
            Op::Put(k, len) => {
                gen += 1;
                let key = format!("key{k:03}").into_bytes();
                let val = value_for(*k, *len, gen);
                db.put(&key, val.clone()).unwrap();
                model.insert(key, val);
            }
            Op::Delete(k) => {
                let key = format!("key{k:03}").into_bytes();
                db.delete(&key).unwrap();
                model.remove(&key);
            }
            Op::Flush => db.flush().unwrap(),
            Op::Compact => db.compact_all().unwrap(),
            Op::Gc => {
                db.run_gc_until_clean().unwrap();
            }
            Op::Reopen => {
                drop(db);
                db = Db::open(opts(env.clone(), mode)).unwrap();
            }
        }
    }
    check_model(&db, &model);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case is a full DB lifecycle; keep CI time sane
        max_shrink_iters: 64,
        .. ProptestConfig::default()
    })]

    #[test]
    fn scavenger_matches_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        run_ops(EngineMode::Scavenger, &ops);
    }

    #[test]
    fn terark_matches_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        run_ops(EngineMode::Terark, &ops);
    }

    #[test]
    fn titan_matches_model(ops in proptest::collection::vec(op_strategy(), 1..100)) {
        run_ops(EngineMode::Titan, &ops);
    }

    #[test]
    fn blobdb_matches_model(ops in proptest::collection::vec(op_strategy(), 1..100)) {
        run_ops(EngineMode::BlobDb, &ops);
    }

    #[test]
    fn rocks_matches_model(ops in proptest::collection::vec(op_strategy(), 1..100)) {
        run_ops(EngineMode::Rocks, &ops);
    }
}
