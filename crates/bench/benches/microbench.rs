//! Microbenchmarks over the substrate data structures: blocks, bloom
//! filters, CRC, block cache, memtable, WAL, the workload generators, and
//! the value store's three ways of resolving a reference.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scavenger_table::block::{Block, BlockBuilder};
use scavenger_table::cache::{CacheKey, CachePriority, LruCache};
use scavenger_table::filter::{BloomBuilder, BloomReader};
use scavenger_table::KeyCmp;
use scavenger_util::crc32c;
use scavenger_workload::dist::{GenPareto, Zipfian};

fn bench_block(c: &mut Criterion) {
    let mut g = c.benchmark_group("block");
    g.sample_size(20);
    let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..256)
        .map(|i| (format!("key{i:06}").into_bytes(), vec![7u8; 32]))
        .collect();
    g.bench_function("build_4k", |b| {
        b.iter(|| {
            let mut bb = BlockBuilder::new(16);
            for (k, v) in &entries {
                bb.add(k, v);
            }
            bb.finish()
        })
    });
    let block = {
        let mut bb = BlockBuilder::new(16);
        for (k, v) in &entries {
            bb.add(k, v);
        }
        Block::new(bytes::Bytes::from(bb.finish())).unwrap()
    };
    g.bench_function("seek", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let mut it = block.iter(KeyCmp::Bytewise);
            it.seek(format!("key{:06}", (i * 37) % 256).as_bytes());
            i += 1;
            assert!(it.valid());
        })
    });
    g.finish();
}

fn bench_bloom(c: &mut Criterion) {
    let mut g = c.benchmark_group("bloom");
    g.sample_size(20);
    g.bench_function("build_10k_keys", |b| {
        b.iter(|| {
            let mut f = BloomBuilder::new(10);
            for i in 0..10_000u64 {
                f.add_key(&i.to_le_bytes());
            }
            f.finish()
        })
    });
    let filter = {
        let mut f = BloomBuilder::new(10);
        for i in 0..10_000u64 {
            f.add_key(&i.to_le_bytes());
        }
        f.finish()
    };
    g.bench_function("query", |b| {
        let r = BloomReader::new(&filter);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            r.may_contain(&i.to_le_bytes())
        })
    });
    g.finish();
}

/// The dispatched kernel (`crc32c::kernel()` names it) beside the
/// portable table loop, at a WAL-record, a block and a large-value size.
fn bench_crc(c: &mut Criterion) {
    let mut g = c.benchmark_group("crc32c");
    let dispatched = format!("{:?}", crc32c::kernel()).to_lowercase();
    let data = vec![0xa5u8; 64 * 1024];
    for (label, len) in [("64b", 64), ("4k", 4096), ("64k", 64 * 1024)] {
        let input = &data[..len];
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function(format!("{dispatched}_{label}"), |b| {
            b.iter(|| crc32c::value(black_box(input)))
        });
        g.bench_function(format!("portable_{label}"), |b| {
            b.iter(|| crc32c::extend_portable(0, black_box(input)))
        });
    }
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("lru_cache");
    g.sample_size(20);
    let cache: LruCache<u64> = LruCache::with_capacity(1 << 20);
    for i in 0..4096u64 {
        cache.insert(
            CacheKey {
                file: 1,
                offset: i,
                kind: 0,
            },
            i,
            256,
            CachePriority::Low,
        );
    }
    g.bench_function("hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 4096;
            cache.get(&CacheKey {
                file: 1,
                offset: i,
                kind: 0,
            })
        })
    });
    g.bench_function("insert_evict", |b| {
        let mut i = 1u64 << 32;
        b.iter(|| {
            i += 1;
            cache.insert(
                CacheKey {
                    file: 2,
                    offset: i,
                    kind: 0,
                },
                i,
                256,
                CachePriority::Low,
            );
        })
    });
    g.finish();
}

fn bench_memtable(c: &mut Criterion) {
    use scavenger_lsm::memtable::Memtable;
    use scavenger_util::ikey::ValueType;
    let mut g = c.benchmark_group("memtable");
    g.sample_size(20);
    g.bench_function("insert_1k_entries", |b| {
        b.iter_batched(
            Memtable::new,
            |m| {
                for i in 0..1000u64 {
                    m.insert(
                        format!("key{i:06}").as_bytes(),
                        i,
                        ValueType::Value,
                        bytes::Bytes::from_static(&[0u8; 64]),
                    );
                }
            },
            BatchSize::SmallInput,
        )
    });
    let m = Memtable::new();
    for i in 0..10_000u64 {
        m.insert(
            format!("key{i:06}").as_bytes(),
            i,
            ValueType::Value,
            bytes::Bytes::from_static(&[0u8; 64]),
        );
    }
    g.bench_function("get", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i * 31 + 7) % 10_000;
            m.get(format!("key{i:06}").as_bytes(), u64::MAX >> 9)
        })
    });
    g.finish();
}

fn bench_wal(c: &mut Criterion) {
    use scavenger_env::{Env, IoClass, MemEnv};
    use scavenger_lsm::wal::LogWriter;
    let mut g = c.benchmark_group("wal");
    g.sample_size(20);
    let payload = vec![3u8; 4096];
    g.throughput(Throughput::Bytes(4096 * 64));
    g.bench_function("append_64x4k", |b| {
        let env = MemEnv::new();
        let mut n = 0u32;
        b.iter(|| {
            n += 1;
            let f = env.new_writable(&format!("wal{n}"), IoClass::Wal).unwrap();
            let mut w = LogWriter::new(f);
            for _ in 0..64 {
                w.add_record(&payload).unwrap();
            }
            w.sync().unwrap();
        })
    });
    g.finish();
}

fn bench_distributions(c: &mut Criterion) {
    let mut g = c.benchmark_group("distributions");
    let z = Zipfian::new(1_000_000, 0.99, true);
    let mut rng = StdRng::seed_from_u64(1);
    g.bench_function("zipfian_next", |b| b.iter(|| z.next(&mut rng)));
    let p = GenPareto::with_mean(1024.0);
    g.bench_function("pareto_next", |b| b.iter(|| p.next(&mut rng)));
    g.finish();
}

/// One `ValueStore::read_ref` per iteration, along each resolution path:
/// `by_address` reads a live RTable record at its reference's address;
/// `keyed` gives the same references an address past the end of the file,
/// so each read takes the keyed index lookup every read took before
/// address hints; `inherited` names a file GC collected, resolved through
/// the memoised inheritance forest and a keyed lookup in the heir. The
/// cache holds every index block, so the rows compare CPU and record
/// reads, not cache misses.
fn bench_value_resolve(c: &mut Criterion) {
    use scavenger::options::VFormat;
    use scavenger::vstore::vtable::VWriter;
    use scavenger::vstore::{new_value_file_record, ValueStore};
    use scavenger_env::{EnvRef, IoClass, MemEnv};
    use scavenger_lsm::ValueEditBundle;
    use scavenger_table::btable::{BlockCache, TableOptions};
    use scavenger_util::ikey::ValueRef;
    use std::sync::Arc;

    const N: u64 = 2000;
    let env: EnvRef = MemEnv::shared();
    let vs = ValueStore::new(
        env.clone(),
        "db",
        Arc::new(BlockCache::with_capacity(8 << 20)),
    );
    let keys: Vec<Vec<u8>> = (0..N).map(|i| format!("user{i:08}").into_bytes()).collect();
    let value = vec![7u8; 1024];
    let write = |file: u64| -> Vec<ValueRef> {
        let topts = TableOptions {
            cmp: KeyCmp::Internal,
            ..TableOptions::default()
        };
        let mut w =
            VWriter::create(&env, "db", file, VFormat::RTable, topts, IoClass::Flush).unwrap();
        let refs = (0..N)
            .map(|i| {
                let rec = w.add(&keys[i as usize], i + 1, &value).unwrap();
                ValueRef {
                    file,
                    size: rec.size,
                    offset: rec.offset,
                }
            })
            .collect();
        let info = w.finish().unwrap();
        vs.apply_bundle(&ValueEditBundle {
            new_files: vec![new_value_file_record(file, info, false, VFormat::RTable)],
            ..Default::default()
        });
        refs
    };
    // File 1 stays live; GC moved file 2's records into file 3.
    let live = write(1);
    let collected = write(2);
    write(3);
    vs.apply_bundle(&ValueEditBundle {
        deleted_files: vec![2],
        inherits: vec![(2, 3)],
        ..Default::default()
    });
    let far: Vec<ValueRef> = live
        .iter()
        .map(|r| ValueRef {
            offset: u64::MAX / 2,
            ..*r
        })
        .collect();

    let mut g = c.benchmark_group("value_resolve");
    g.sample_size(20);
    for (name, refs) in [
        ("by_address", &live),
        ("keyed", &far),
        ("inherited", &collected),
    ] {
        g.bench_function(name, |b| {
            let mut i = 0u64;
            b.iter(|| {
                i = (i * 31 + 7) % N;
                let v = vs
                    .read_ref(&keys[i as usize], i + 1, &refs[i as usize])
                    .unwrap();
                assert_eq!(v.len(), 1024);
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_block,
    bench_bloom,
    bench_crc,
    bench_cache,
    bench_memtable,
    bench_wal,
    bench_distributions,
    bench_value_resolve
);
criterion_main!(benches);
