//! `server_sync`: the in-process `scavenger-server` over a 4-shard
//! `DbShards` on `MemEnv`, driven by an open-loop generator.
//!
//! Each connection sends on a fixed schedule and times every request from
//! its due time, so a stall also charges the requests queued behind it.
//! One connection reads (gets and scans) and one writes (synced puts and
//! two-key batches), so reads do not queue behind writes on the same
//! connection. The writer is the only writer: every acknowledged write is
//! in the client's record, and after the run every one of them must
//! survive a shutdown and a reopen of the store from the same env.
//!
//! The store is in memory, where a sync costs nothing. On `FsEnv`, on a
//! 2-core virtual machine with a shared virtual disk, the median synced
//! put moved between 215 and 1605 microseconds across ten runs, so no
//! latency bound could hold. The sync path still runs (group commit, WAL
//! records, the two-phase commit's coordinator log); its device cost is
//! left out.

use crate::direct::check_rows;
use crate::gen::{Dataset, Mix, Op, OpGen};
use crate::report::{Phase, Probe, Run, TraceOut};
use crate::stats::Samples;
use crate::tengine::Traced;
use crate::tenv::TracedEnv;
use crate::trace::{Breakdown, Name, Tracer};
use crate::Args;
use scavenger::{
    Bytes, DbShards, EngineMode, EnvRef, MemEnv, Result, ShardedOptions, WriteOptions,
};
use scavenger_server::{BatchOp, Client, Server, ServerConfig, ServerHandle};
use scavenger_workload::values::ValueGen;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered requests per second, over both connections: well below the
/// knee, where latency still reflects service time and not a queue.
const RATE: f64 = 2000.0;
/// The request mix is 50% gets, 6% scans of up to 20 rows, 34% synced
/// puts and 10% synced two-key batches (most cross shards, so they take
/// the two-phase commit). The reader sends the first two, the writer the
/// rest, each on its own schedule.
const READS: Mix = Mix {
    get: 89,
    scan: 11,
    batch: 0,
    scan_max: 20,
};
const READ_SHARE: f64 = 0.56;
const WRITES: Mix = Mix {
    get: 0,
    scan: 0,
    batch: 23,
    scan_max: 1,
};
const SHARDS: usize = 4;
const KEYS: u64 = 8192;
/// Big enough to hold every block the working set touches.
const CACHE_BYTES: usize = 64 << 20;
/// Per shard, larger than everything a phase writes: no flush or
/// compaction runs inline in a request, so the tail is the sync path's
/// own (update_gc measures flush and compaction).
const MEMTABLE_BYTES: usize = 16 << 20;
const SETUPS: usize = 3;
/// Sleep until this close to a request's due time, then yield, so that
/// timer oversleep (tens of microseconds) does not land in the measured
/// latency, while the yielding stays too short to starve the server.
const SPIN: Duration = Duration::from_micros(100);
/// The run is invalid when the requests of the schedule's last tenth were
/// sent later than this at the median: a backlog grew. A single stall at
/// the end delays a few requests, not a tenth of them.
const BEHIND_LIMIT: Duration = Duration::from_millis(10);

fn open_store(
    mem: &EnvRef,
    tracer: Option<&Arc<Tracer>>,
) -> Result<(DbShards, Option<Arc<TracedEnv>>)> {
    let traced_env = tracer.map(|t| Arc::new(TracedEnv::new(mem.clone(), t.clone())));
    let env: EnvRef = match &traced_env {
        Some(t) => t.clone(),
        None => mem.clone(),
    };
    let db = ShardedOptions::builder(env, "db", EngineMode::Scavenger)
        .num_shards(SHARDS)
        .block_cache_bytes(CACHE_BYTES)
        .memtable_size(MEMTABLE_BYTES)
        .open()?;
    Ok((db, traced_env))
}

/// A preloaded store behind a running server.
struct Served {
    db: DbShards,
    env: EnvRef,
    traced_env: Option<Arc<TracedEnv>>,
    handle: ServerHandle,
    clients: Vec<Client>,
    cur: Vec<Bytes>,
}

fn serve(ds: &Dataset, tracer: Option<&Arc<Tracer>>) -> Result<Served> {
    let env: EnvRef = MemEnv::shared();
    let (db, traced_env) = open_store(&env, tracer)?;
    let nosync = WriteOptions::with_sync(false);
    let mut cur = Vec::with_capacity(ds.n() as usize);
    for id in 0..ds.n() {
        let v = Bytes::from(ds.value(id, 1));
        db.put_with(&nosync, Dataset::key(id), v.clone())?;
        cur.push(v);
    }
    db.flush()?;
    let cfg = ServerConfig::default();
    let handle = match tracer {
        Some(t) => Server::start(Traced::new(db.clone(), t.clone()), cfg)?,
        None => Server::start(db.clone(), cfg)?,
    };
    let mut clients = Vec::new();
    for _ in 0..2 {
        let mut c = Client::connect(handle.addr())?;
        c.ping()?;
        clients.push(c);
    }
    Ok(Served {
        db,
        env,
        traced_env,
        handle,
        clients,
        cur,
    })
}

/// Versions written per key, shared by the connections.
struct Versions {
    /// Highest version a write has been sent for.
    issued: Vec<AtomicU64>,
    /// Highest version acknowledged.
    acked: Vec<AtomicU64>,
}

impl Versions {
    fn new(n: u64) -> Versions {
        Versions {
            issued: (0..n).map(|_| AtomicU64::new(1)).collect(),
            acked: (0..n).map(|_| AtomicU64::new(1)).collect(),
        }
    }

    fn acked(&self, id: u64) -> u64 {
        self.acked[id as usize].load(Ordering::SeqCst)
    }

    fn issued(&self, id: u64) -> u64 {
        self.issued[id as usize].load(Ordering::SeqCst)
    }
}

/// Wait until `due`: sleep coarsely, then yield.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

struct Conn<'a> {
    writer: bool,
    client: Client,
    ds: &'a Dataset,
    vers: &'a Versions,
    /// The writer's record of every key's acknowledged value.
    cur: Vec<Bytes>,
    /// Keys whose last write failed: either version may have landed.
    uncertain: Vec<u64>,
    tracer: Option<&'a Tracer>,
}

impl Conn<'_> {
    fn write_version(&self, id: u64) -> (u64, Bytes) {
        let v = self.vers.acked(id) + 1;
        self.vers.issued[id as usize].store(v, Ordering::SeqCst);
        (v, Bytes::from(self.ds.value(id, v)))
    }

    fn acked(&mut self, id: u64, v: u64, val: Bytes) {
        self.vers.acked[id as usize].store(v, Ordering::SeqCst);
        self.cur[id as usize] = val;
    }

    /// A read of key `id` is right if it returns the bytes of a version
    /// acknowledged before the read was sent, or of one sent since.
    fn readable(&self, id: u64, floor: u64, v: &[u8]) -> bool {
        self.ds
            .version_of(id, v)
            .is_some_and(|got| floor <= got && got <= self.vers.issued(id))
    }

    /// Send `op`; returns user bytes written, or the error.
    fn request(&mut self, op: Op, p: &mut Phase) -> Result<u64> {
        let n = self.ds.n();
        match op {
            Op::Get(id) => {
                let floor = self.vers.acked(id);
                let got = self.client.get(&Dataset::key(id))?;
                if !got.is_some_and(|v| self.readable(id, floor, &v)) {
                    p.mismatch(format!("get {id}: wrong value"));
                }
                Ok(0)
            }
            Op::Scan(id, len) => {
                let end = (id + len).min(n);
                let floor: Vec<u64> = (id..end).map(|i| self.vers.acked(i)).collect();
                let hi = (end < n).then(|| Dataset::key(end));
                let rows = self
                    .client
                    .scan(None, &Dataset::key(id), hi.as_deref(), 0)?;
                let rows = rows.iter().map(|(k, v)| (k.as_slice(), v.as_slice()));
                let check = |i: u64, v: &[u8]| self.readable(i, floor[(i - id) as usize], v);
                if let Err(e) = check_rows(rows, id, len, n, check) {
                    p.mismatch(e);
                }
                Ok(0)
            }
            Op::Put(id) => {
                let (v, val) = self.write_version(id);
                let key = Dataset::key(id);
                if let Err(e) = self.client.put_sync(&key, &val, true) {
                    self.uncertain.push(id);
                    return Err(e);
                }
                let bytes = (key.len() + val.len()) as u64;
                self.acked(id, v, val);
                Ok(bytes)
            }
            Op::Batch(a, b) => {
                let writes = [a, b].map(|id| (id, self.write_version(id)));
                let ops = writes
                    .iter()
                    .map(|(id, (_, val))| BatchOp::Put {
                        key: Dataset::key(*id),
                        value: val.to_vec(),
                    })
                    .collect();
                if let Err(e) = self.client.write_sync(ops, true) {
                    self.uncertain.extend([a, b]);
                    return Err(e);
                }
                let mut bytes = 0;
                for (id, (v, val)) in writes {
                    bytes += (Dataset::key(id).len() + val.len()) as u64;
                    self.acked(id, v, val);
                }
                Ok(bytes)
            }
        }
    }

    /// The key the engine call of `op` is announced under. The writer's
    /// and the reader's requests may name the same key at once; the
    /// registry then links one of the engine calls to the other request.
    fn link_key(op: Op) -> Vec<u8> {
        match op {
            Op::Get(id) | Op::Put(id) | Op::Batch(id, _) | Op::Scan(id, _) => Dataset::key(id),
        }
    }

    /// Send this connection's share of the schedule; returns the phase
    /// record and the instant the last reply arrived.
    fn run(mut self, seed: u64, start: Instant, seconds: u64) -> (Phase, Instant, Self) {
        let mut p = Phase::default();
        let (share, mix) = if self.writer {
            (1.0 - READ_SHARE, WRITES)
        } else {
            (READ_SHARE, READS)
        };
        let rate = RATE * share;
        let interval = Duration::from_secs_f64(1.0 / rate);
        let count = (seconds as f64 * rate) as u32;
        let mut gen = OpGen::new(seed ^ self.writer as u64, self.ds.n(), 0.0, mix);
        let mut tail_late = Samples::default();
        let mut done = start;
        for i in 0..count {
            let op = gen.next();
            let kind = op.kind();
            let due = start + interval * i;
            wait_until(due);
            let sent = Instant::now();
            p.attempted += 1;
            let traced = self.tracer.map(|t| {
                let mut root = t.open_request(Name::Client(kind));
                root.span.start = t.at(due);
                let mut late = t.open_under(Name::Late, Some(root.frame()));
                late.span.start = t.at(due);
                late.span.end = t.at(sent);
                t.record(late.span);
                let rpc = t.open_under(Name::Rpc, Some(root.frame()));
                let key = Self::link_key(op);
                t.register(&key, rpc.frame());
                (t, root, rpc, key)
            });
            let r = self.request(op, &mut p);
            done = Instant::now();
            if let Some((t, root, rpc, key)) = traced {
                t.unregister(&key);
                t.close(rpc);
                t.close(root);
            }
            let late = (sent - due).as_nanos() as u64;
            p.late.push(late);
            if i >= count - count / 10 {
                tail_late.push(late);
            }
            match r {
                Ok(bytes) => {
                    p.user_write_bytes += bytes;
                    p.done(kind, (done - due).as_nanos() as u64);
                }
                Err(e) => {
                    p.failed += 1;
                    eprintln!("{}: {op:?} failed: {e}", kind.label());
                }
            }
        }
        p.behind = tail_late
            .summary()
            .is_some_and(|s| s.p50_us * 1e3 > BEHIND_LIMIT.as_nanos() as f64);
        (p, done, self)
    }
}

/// Reopen the store from its env and check that every acknowledged
/// write is there.
fn verify_reopened(
    env: &EnvRef,
    ds: &Dataset,
    cur: &[Bytes],
    uncertain: &[u64],
    vers: &Versions,
    p: &mut Phase,
) -> Result<()> {
    let (db, _) = open_store(env, None)?;
    for (id, want) in cur.iter().enumerate() {
        let got = db.get(Dataset::key(id as u64))?;
        let ok = match &got {
            Some(v) if v == want => true,
            Some(v) if uncertain.contains(&(id as u64)) => {
                ds.version_of(id as u64, v) == Some(vers.issued(id as u64))
            }
            _ => false,
        };
        if !ok {
            p.mismatch(format!(
                "after reopen: key {id} lost its acknowledged write"
            ));
        }
    }
    let rows = db.scan(b"", None)?.count() as u64;
    if rows != ds.n() {
        p.mismatch(format!("after reopen: {rows} keys, expected {}", ds.n()));
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Run> {
    let ds = Dataset::new(args.seed, KEYS, ValueGen::pareto_1k());
    let tracer = args.trace.then(|| Arc::new(Tracer::default()));

    let mut setup_s = Vec::new();
    let mut served: Option<Served> = None;
    for _ in 0..SETUPS {
        if let Some(s) = served.take() {
            s.handle.shutdown_and_wait();
        }
        let t0 = Instant::now();
        served = Some(serve(&ds, tracer.as_ref())?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let s = served.expect("at least one set-up");
    let vers = Versions::new(KEYS);
    let dataset_bytes = ds.logical_bytes(&vec![1; KEYS as usize]);

    let cache = s.db.block_cache().clone();
    let before = Probe::take(&s.db, &s.env, &cache);
    let counts0 = s.traced_env.as_ref().map(|e| e.counts().snapshot());
    let m = s.handle.metrics();
    let req0 = m.requests_ok.load(Ordering::Relaxed) + m.requests_err.load(Ordering::Relaxed);
    let err0 = m.requests_err.load(Ordering::Relaxed);
    if let Some(t) = &tracer {
        t.set_on(true);
    }
    let start = Instant::now() + Duration::from_millis(20);
    let conns: Vec<Conn> = s
        .clients
        .into_iter()
        .enumerate()
        .map(|(i, client)| Conn {
            writer: i == 1,
            client,
            ds: &ds,
            vers: &vers,
            cur: if i == 1 { s.cur.clone() } else { Vec::new() },
            uncertain: Vec::new(),
            tracer: tracer.as_deref(),
        })
        .collect();
    let results: Vec<(Phase, Instant, Conn)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .map(|c| scope.spawn(move || c.run(args.seed, start, args.seconds)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    if let Some(t) = &tracer {
        t.set_on(false);
    }
    let after = Probe::take(&s.db, &s.env, &cache);
    let space_bytes = s.db.space().total();
    let m = s.handle.metrics();
    let server = (
        m.requests_ok.load(Ordering::Relaxed) + m.requests_err.load(Ordering::Relaxed) - req0,
        m.requests_err.load(Ordering::Relaxed) - err0,
    );

    let mut phase = Phase::default();
    let mut cur = Vec::new();
    let mut uncertain = Vec::new();
    for (p, done, c) in results {
        phase.merge(p);
        phase.wall_s = phase.wall_s.max((done - start).as_secs_f64());
        if c.writer {
            cur = c.cur;
            uncertain = c.uncertain;
        }
    }
    let versions: Vec<u64> = vers
        .acked
        .iter()
        .map(|a| a.load(Ordering::SeqCst))
        .collect();
    let logical_bytes = ds.logical_bytes(&versions);
    s.handle.shutdown_and_wait();
    drop(s.db);
    // Closing the store flushes the env's write buffers into its counters.
    if let (Some(env), Some(c0)) = (&s.traced_env, counts0) {
        env.check_attribution(&c0, &before.io, &s.env.io_stats().snapshot(), &mut phase);
    }
    verify_reopened(&s.env, &ds, &cur, &uncertain, &vers, &mut phase)?;

    Ok(Run {
        workload: "server_sync".to_string(),
        seed: args.seed,
        seconds: args.seconds,
        env_kind: "MemEnv",
        flush_policy: "inline background; WAL on; puts and batches request sync (a no-op on \
                       MemEnv); preload unsynced, then flushed; memtables hold the phase's writes",
        dataset_bytes,
        cache_bytes: CACHE_BYTES as u64,
        keys: KEYS,
        setup_s,
        phase,
        before,
        after,
        space_bytes,
        logical_bytes,
        offered_rate: Some(RATE),
        trace: tracer.map(|t| TraceOut {
            breakdown: Breakdown::from_spans(&t.take_spans()),
            span_ns: Tracer::calibrate_span_ns(),
            server,
        }),
    })
}
