//! The `/metrics` exposition page: a golden page recorded from a
//! deterministic 4-shard run pins the series set and the values of every
//! deterministic series, and every page must be valid Prometheus text —
//! each family once, with its `# TYPE` line before its samples and its
//! samples contiguous.

use scavenger::{DbShards, EngineMode, MemEnv, ShardedOptions, Transactional};
use scavenger_server::{
    render_metrics, scrape_metrics, Client, Server, ServerConfig, ServerMetrics,
};
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::Ordering;
use std::time::Duration;

/// The page recorded in `tests/golden/metrics_4shard.prom`.
const GOLDEN: &str = include_str!("golden/metrics_4shard.prom");

/// The one family whose values are wall time, so differ run to run.
const WALL_TIME_FAMILY: &str = "scavenger_gc_step_seconds_total";

/// A deterministic run: inline background work, no auto-GC, one GC
/// thread, fixed keys and values, and fixed server counters.
fn golden_page() -> String {
    let db: DbShards = ShardedOptions::builder(MemEnv::shared(), "golden", EngineMode::Scavenger)
        .num_shards(4)
        .memtable_size(8 * 1024)
        .vsst_target_size(16 * 1024)
        .inline_background(true)
        .auto_gc(false)
        .gc_threads(1)
        .open()
        .unwrap();
    for round in 0..3u8 {
        for i in 0..200u32 {
            db.put(format!("key{i:04}"), vec![round; 600]).unwrap();
        }
    }
    for i in (0..200u32).step_by(7) {
        db.delete(format!("key{i:04}")).unwrap();
    }
    db.flush().unwrap();
    db.run_gc_until_clean().unwrap();
    for i in 0..50u32 {
        db.get(format!("key{i:04}")).unwrap();
    }
    let mut txn = db.begin();
    txn.get(b"key0001").unwrap();
    txn.put(b"key0001", &b"txn"[..]);
    txn.commit().unwrap();
    let _snap = db.snapshot();

    let m = ServerMetrics::new();
    m.conns_total.store(3, Ordering::Relaxed);
    m.conns_active.store(1, Ordering::Relaxed);
    m.requests_ok.store(40, Ordering::Relaxed);
    m.requests_err.store(2, Ordering::Relaxed);
    m.pin_misses.store(1, Ordering::Relaxed);
    for us in [100, 200, 300] {
        m.record_latency("put", Duration::from_micros(us));
        m.record_latency("get", Duration::from_micros(us / 2));
    }
    render_metrics(&db, &m, 1, 0)
}

/// Sample lines keyed by `(name, labels)`.
fn samples(page: &str) -> BTreeMap<(String, String), f64> {
    page.lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|l| {
            let (series, value) = l.rsplit_once(' ').expect("sample line has a value");
            let (name, labels) = match series.split_once('{') {
                Some((n, rest)) => (n, rest.trim_end_matches('}')),
                None => (series, ""),
            };
            let value: f64 = value.parse().expect("numeric sample value");
            ((name.to_string(), labels.to_string()), value)
        })
        .collect()
}

/// Assert the text-format grouping rules: at most one `# TYPE` per
/// family, present before the family's samples, and each family's
/// samples contiguous (no other family's lines in between).
fn assert_valid_exposition(page: &str) {
    let mut typed = HashSet::new();
    let mut current: Option<&str> = None;
    for line in page.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split(' ').next().unwrap();
            assert!(typed.insert(name), "family {name} has two TYPE lines");
            current = Some(name);
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let name = line.split(['{', ' ']).next().unwrap();
        let family = [
            name,
            name.trim_end_matches("_count"),
            name.trim_end_matches("_sum"),
        ]
        .into_iter()
        .find(|f| typed.contains(f))
        .unwrap_or_else(|| panic!("sample {name} has no TYPE line before it"));
        assert_eq!(
            Some(family),
            current,
            "sample of {family} is not contiguous with its family"
        );
    }
}

#[test]
fn page_keeps_every_golden_series_and_value() {
    let page = golden_page();
    assert_valid_exposition(&page);
    let now = samples(&page);
    for ((name, labels), want) in samples(GOLDEN) {
        let got = now
            .get(&(name.clone(), labels.clone()))
            .unwrap_or_else(|| panic!("series {name}{{{labels}}} disappeared"));
        if name != WALL_TIME_FAMILY {
            assert_eq!(*got, want, "{name}{{{labels}}}");
        }
    }
}

#[test]
fn four_shard_server_page_is_valid_exposition() {
    let db = ShardedOptions::builder(MemEnv::shared(), "expo", EngineMode::Scavenger)
        .num_shards(4)
        .memtable_size(32 * 1024)
        .open()
        .unwrap();
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    };
    let handle = Server::start(db, cfg).expect("start server");
    let mut client = Client::connect(handle.addr()).unwrap();
    for i in 0..50u32 {
        client
            .put(format!("k{i:03}").as_bytes(), &[7u8; 256])
            .unwrap();
    }
    client.flush().unwrap();
    client.get(b"k007").unwrap();
    let page = scrape_metrics(handle.metrics_addr().unwrap()).expect("scrape");
    assert_valid_exposition(&page);
    assert!(page.contains("scavenger_shard_count 4\n"));
    assert!(page.contains("# TYPE scavenger_io_read_bytes_total counter\n"));
    assert!(page.contains("class=\"wal\",shard=\"3\""));
    handle.shutdown_and_wait();
}
