//! The closed-loop workloads on one `Db` over `MemEnv`: `update_gc` and
//! `read_mostly`. One client thread issues the next operation as soon as
//! the previous one returns.

use crate::gen::{shuffled, Dataset, Mix, Op, OpGen};
use crate::report::{Phase, Probe, Run, TraceOut};
use crate::tengine::Traced;
use crate::tenv::TracedEnv;
use crate::trace::{Breakdown, Name, OpKind, Tracer};
use crate::Args;
use scavenger::{Bytes, Db, Engine, EngineMode, EnvRef, GcPipeline, MemEnv, Result, WriteBatch};
use scavenger_bench::{build_options, EngineSpec, Scale};
use scavenger_table::btable::BlockCache;
use scavenger_workload::values::ValueGen;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One closed-loop workload.
pub struct Spec {
    pub name: &'static str,
    pub values: fn() -> ValueGen,
    pub dataset_bytes: u64,
    /// Zipfian skew of the measured phase's keys.
    pub theta: f64,
    pub mix: Mix,
    /// Space limit as a multiple of the loaded dataset.
    pub space_limit: Option<f64>,
    /// Zipfian(0.9) overwrite passes after the load, as part of set-up.
    pub warm_passes: u32,
}

/// The paper's headline experiment (Figs. 12, 14 and 20): Mixed-8K values,
/// Zipfian(0.9) overwrites under a 1.5x space limit. GC, compensated
/// compaction, flush and the space throttle do the work. The few reads
/// and batches give every end-to-end metric a value on every workload.
pub const UPDATE_GC: Spec = Spec {
    name: "update_gc",
    values: ValueGen::mixed_8k,
    dataset_bytes: 32 << 20,
    theta: 0.9,
    mix: Mix {
        get: 2,
        scan: 2,
        batch: 2,
        scan_max: 20,
    },
    space_limit: Some(1.5),
    warm_passes: 0,
};

/// Pareto-1K values, a dataset 100x the block cache, and one overwrite
/// pass so values sit in many value files and the index has several
/// levels. The read path does the work; the 4% puts and 1% batches keep a
/// read gain that costs writes visible.
pub const READ_MOSTLY: Spec = Spec {
    name: "read_mostly",
    values: ValueGen::pareto_1k,
    dataset_bytes: 32 << 20,
    theta: 0.99,
    mix: Mix {
        get: 90,
        scan: 5,
        batch: 1,
        scan_max: 100,
    },
    space_limit: None,
    warm_passes: 1,
};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// A loaded store and the client's record of what it holds.
struct Loaded {
    db: Db,
    env: EnvRef,
    traced_env: Option<Arc<TracedEnv>>,
    cache: Arc<BlockCache>,
    cache_bytes: usize,
    /// The value each key holds, and its version.
    cur: Vec<Bytes>,
    ver: Vec<u64>,
}

fn load(spec: &Spec, ds: &Dataset, seed: u64, tracer: Option<&Arc<Tracer>>) -> Result<Loaded> {
    let mem: EnvRef = MemEnv::shared();
    let traced_env = tracer.map(|t| Arc::new(TracedEnv::new(mem.clone(), t.clone())));
    let env: EnvRef = match &traced_env {
        Some(t) => t.clone(),
        None => mem.clone(),
    };
    let n = ds.n();
    let logical: u64 = ds.logical_bytes(&vec![1; n as usize]);
    let scale = Scale {
        dataset_bytes: spec.dataset_bytes,
        seed,
        ..Scale::default()
    };
    let space_limit = spec.space_limit.map(|f| (logical as f64 * f) as u64);
    let mut opts = build_options(
        &EngineSpec::mode(EngineMode::Scavenger),
        env,
        "db",
        &scale,
        space_limit,
    );
    // GC runs in the writing thread, one stage after another, so the work
    // done and its timing do not hang on how the host schedules worker
    // threads. On a 2-core virtual machine the parallel, pipelined GC was
    // also slower here: 10.8 against 13.0 kops/s, with 24% more simulated
    // device time.
    opts.gc_threads = 1;
    opts.gc_pipeline = GcPipeline::Off;
    let cache_bytes = opts.block_cache_bytes;
    let cache = Arc::new(BlockCache::with_capacity(cache_bytes));
    opts.block_cache = Some(cache.clone());
    let db = Db::open(opts)?;
    let mut cur = vec![Bytes::new(); n as usize];
    for id in shuffled(n, seed) {
        let v = Bytes::from(ds.value(id, 1));
        db.put(Dataset::key(id), v.clone())?;
        cur[id as usize] = v;
    }
    let mut ver = vec![1; n as usize];
    let mut warm = OpGen::new(seed ^ 0x3a7e, n, 0.9, PUT_ONLY);
    for _ in 0..spec.warm_passes as u64 * n {
        if let Op::Put(id) = warm.next() {
            let i = id as usize;
            let v = Bytes::from(ds.value(id, ver[i] + 1));
            db.put(Dataset::key(id), v.clone())?;
            ver[i] += 1;
            cur[i] = v;
        }
    }
    Ok(Loaded {
        db,
        env: mem,
        traced_env,
        cache,
        cache_bytes,
        cur,
        ver,
    })
}

const PUT_ONLY: Mix = Mix {
    get: 0,
    scan: 0,
    batch: 0,
    scan_max: 1,
};

/// Time `f` from the client's side, as a request span when traced.
fn timed<R>(tracer: Option<&Tracer>, kind: OpKind, f: impl FnOnce() -> R) -> (R, u64) {
    let t0 = Instant::now();
    let r = match tracer {
        None => f(),
        Some(t) => {
            let o = t.open_request(Name::Client(kind));
            let r = Tracer::with_frame(o.frame(), f);
            t.close(o);
            r
        }
    };
    (r, t0.elapsed().as_nanos() as u64)
}

/// Check the rows of a scan of `[id, id + len)` against the client's
/// record: every key in order, none missing, each with its value.
pub fn check_rows<'a>(
    rows: impl Iterator<Item = (&'a [u8], &'a [u8])>,
    id: u64,
    len: u64,
    n: u64,
    mut check: impl FnMut(u64, &[u8]) -> bool,
) -> std::result::Result<(), String> {
    let want = len.min(n - id);
    let mut got = 0;
    for (k, v) in rows {
        let expect = id + got;
        if got >= want || k != Dataset::key(expect).as_slice() {
            return Err(format!(
                "scan from {id}: row {got} has key {:?}, expected key {expect}",
                String::from_utf8_lossy(k)
            ));
        }
        if !check(expect, v) {
            return Err(format!("scan from {id}: wrong value for key {expect}"));
        }
        got += 1;
    }
    if got != want {
        return Err(format!("scan from {id}: {got} rows, expected {want}"));
    }
    Ok(())
}

fn closed_loop<E: Engine>(
    db: &E,
    ds: &Dataset,
    st: &mut Loaded,
    gen: &mut OpGen,
    seconds: u64,
    tracer: Option<&Tracer>,
) -> Phase {
    let mut p = Phase::default();
    let n = ds.n();
    let start = Instant::now();
    let end = start + Duration::from_secs(seconds);
    while Instant::now() < end {
        let op = gen.next();
        let kind = op.kind();
        p.attempted += 1;
        let ok = match op {
            Op::Put(id) => {
                let v = Bytes::from(ds.value(id, st.ver[id as usize] + 1));
                let key = Dataset::key(id);
                let (r, ns) = timed(tracer, kind, || db.put(&key, v.clone()));
                r.map(|_| {
                    p.user_write_bytes += (key.len() + v.len()) as u64;
                    st.ver[id as usize] += 1;
                    st.cur[id as usize] = v;
                    ns
                })
            }
            Op::Batch(a, b) => {
                let mut batch = WriteBatch::new();
                let mut new = Vec::new();
                for id in [a, b] {
                    let v = Bytes::from(ds.value(id, st.ver[id as usize] + 1));
                    batch.put(Dataset::key(id), v.clone());
                    new.push((id as usize, v));
                }
                let bytes = batch.entries().iter().map(|e| e.key.len() + e.value.len());
                let bytes = bytes.sum::<usize>() as u64;
                let (r, ns) = timed(tracer, kind, || db.write(batch));
                r.map(|_| {
                    p.user_write_bytes += bytes;
                    for (i, v) in new {
                        st.ver[i] += 1;
                        st.cur[i] = v;
                    }
                    ns
                })
            }
            Op::Get(id) => {
                let key = Dataset::key(id);
                let (r, ns) = timed(tracer, kind, || db.get(&key));
                r.map(|got| {
                    if got.as_deref() != Some(&st.cur[id as usize][..]) {
                        p.mismatch(format!("get {id}: wrong value"));
                    }
                    ns
                })
            }
            Op::Scan(id, len) => {
                let lo = Dataset::key(id);
                let hi = (id + len < n).then(|| Dataset::key(id + len));
                let (r, ns) = timed(tracer, kind, || {
                    db.scan(&lo, hi.as_deref())
                        .and_then(|it| it.collect::<Result<Vec<_>>>())
                });
                r.map(|rows| {
                    let rows = rows.iter().map(|e| (e.key.as_slice(), e.value.as_ref()));
                    if let Err(e) =
                        check_rows(rows, id, len, n, |i, v| v == &st.cur[i as usize][..])
                    {
                        p.mismatch(e);
                    }
                    ns
                })
            }
        };
        match ok {
            Ok(ns) => p.done(kind, ns),
            Err(e) => {
                p.failed += 1;
                eprintln!("{}: {op:?} failed: {e}", kind.label());
            }
        }
    }
    p.wall_s = start.elapsed().as_secs_f64();
    p
}

/// Read every key back and compare it with the client's record.
fn sweep(db: &Db, st: &Loaded, p: &mut Phase) {
    for (id, want) in st.cur.iter().enumerate() {
        match db.get(Dataset::key(id as u64)) {
            Ok(Some(v)) if v == *want => {}
            Ok(other) => p.mismatch(format!(
                "sweep: key {id} holds {:?} bytes, expected {}",
                other.map(|v| v.len()),
                want.len()
            )),
            Err(e) => p.mismatch(format!("sweep: key {id}: {e}")),
        }
    }
}

pub fn run(spec: &Spec, args: &Args) -> Result<Run> {
    let values = (spec.values)();
    let n = Dataset::keys_for(spec.dataset_bytes, &values);
    let ds = Dataset::new(args.seed, n, values);
    let tracer = args.trace.then(|| Arc::new(Tracer::default()));

    let mut setup_s = Vec::new();
    let mut st = None;
    for _ in 0..SETUPS {
        drop(st.take());
        let t0 = Instant::now();
        st = Some(load(spec, &ds, args.seed, tracer.as_ref())?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut st = st.expect("at least one set-up");
    let dataset_bytes = ds.logical_bytes(&st.ver);
    let mut gen = OpGen::new(args.seed, n, spec.theta, spec.mix);

    let before = Probe::take(&st.db, &st.env, &st.cache);
    let counts0 = st.traced_env.as_ref().map(|e| e.counts().snapshot());
    let (mut phase, trace) = match &tracer {
        None => {
            let db = st.db.clone();
            (
                closed_loop(&db, &ds, &mut st, &mut gen, args.seconds, None),
                None,
            )
        }
        Some(t) => {
            let db = Traced::new(st.db.clone(), t.clone());
            t.set_on(true);
            let p = closed_loop(&db, &ds, &mut st, &mut gen, args.seconds, Some(t));
            t.set_on(false);
            (p, Some(t.take_spans()))
        }
    };
    let after = Probe::take(&st.db, &st.env, &st.cache);
    let space_bytes = st.db.space().total();
    let logical_bytes = ds.logical_bytes(&st.ver);
    sweep(&st.db, &st, &mut phase);
    let cache_bytes = st.cache_bytes as u64;
    // Closing the store flushes the env's write buffers into its counters.
    drop(st.db);
    if let (Some(env), Some(c0)) = (&st.traced_env, counts0) {
        env.check_attribution(&c0, &before.io, &st.env.io_stats().snapshot(), &mut phase);
    }

    Ok(Run {
        workload: spec.name.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        env_kind: "MemEnv",
        flush_policy: "inline background (flush, compaction and GC run in the writing thread, \
                       GC single-threaded with its pipeline off); WAL on; every write requests \
                       sync, a no-op on MemEnv",
        dataset_bytes,
        cache_bytes,
        keys: n,
        setup_s,
        phase,
        before,
        after,
        space_bytes,
        logical_bytes,
        offered_rate: None,
        trace: trace.map(|spans| TraceOut {
            breakdown: Breakdown::from_spans(&spans),
            span_ns: Tracer::calibrate_span_ns(),
            server: (0, 0),
        }),
    })
}
