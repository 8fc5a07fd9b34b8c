//! What one run measured, and how it becomes the benchmark's metrics.

use crate::stats::{median, Samples, Summary};
use crate::trace::{Breakdown, CoreOp, OpKind};
use scavenger::{DbStats, DeviceModel, EnvRef, IoClass, IoStatsSnapshot, Maintenance};
use scavenger_table::btable::BlockCache;
use std::fmt::Write as _;

/// A request counts toward goodput when it finishes within this limit.
pub const GOODPUT_LIMIT_NS: u64 = 10_000_000;

/// The end-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order.
///
/// Latencies are held to bounds at the median only: on a shared virtual
/// disk the p95 and p99 of synced writes move by several times from one
/// run to the next, far beyond any allowed bound. The tails are still
/// printed with their sample counts (see [`Run::ungated`]), and requests
/// slower than the goodput limit lower `goodput_kops`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_kops", "kops/s"),
    ("goodput_kops", "kops/s"),
    ("put_p50_us", "us"),
    ("get_p50_us", "us"),
    ("scan_p50_us", "us"),
    ("batch_p50_us", "us"),
    ("sim_kops", "kops/s"),
    ("space_amp", "ratio"),
    ("write_amp", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The I/O classes the per-layer report names (`other` is never used).
const CLASSES: [IoClass; 8] = [
    IoClass::Wal,
    IoClass::Flush,
    IoClass::Compaction,
    IoClass::GcRead,
    IoClass::GcWrite,
    IoClass::FgIndexRead,
    IoClass::FgValueRead,
    IoClass::Manifest,
];

/// The per-layer metrics, `(name, unit)`, in `BENCHMARK.json` order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("server.self_p50_us", "us"),
        ("server.self_p99_us", "us"),
        ("server.requests", "count"),
        ("server.failed", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for op in CoreOp::REPORTED {
        v.push((format!("core.{}.busy_s", op.label()), "s"));
        v.push((format!("core.{}.p99_us", op.label()), "us"));
    }
    for (n, u) in [
        ("gc.runs", "count"),
        ("gc.read_s", "s"),
        ("gc.lookup_s", "s"),
        ("gc.write_s", "s"),
        ("gc.write_index_s", "s"),
        ("gc.valid_frac", "ratio"),
        ("gc.io_per_reclaimed_byte", "ratio"),
        ("throttle.stalls", "count"),
        ("vstore.exposed_garbage_mb", "MB"),
        ("vstore.value_files", "count"),
        ("txn.2pc_commits", "count"),
        ("txn.conflicts", "count"),
        ("lsm.flushes", "count"),
        ("lsm.compactions", "count"),
        ("lsm.index_space_amp", "ratio"),
        ("lsm.batches_per_group", "ratio"),
        ("lsm.fsyncs_saved", "count"),
        ("table.cache_hit_ratio", "ratio"),
        ("table.index_reads_per_get", "ratio"),
    ] {
        v.push((n.to_string(), u));
    }
    for c in CLASSES {
        let l = c.label();
        v.push((format!("env.{l}.ops"), "count"));
        v.push((format!("env.{l}.mb"), "MB"));
        v.push((format!("env.{l}.busy_s"), "s"));
        v.push((format!("env.{l}.bg_s"), "s"));
    }
    for (n, u) in [
        ("env.wal.syncs", "count"),
        ("env.wal.sync_p99_us", "us"),
        ("gen.late_p99_us", "us"),
        ("trace.overhead_frac", "ratio"),
        ("trace.unattributed_frac", "ratio"),
        ("time.client_s", "s"),
        ("time.gen_late_s", "s"),
        ("time.server_self_s", "s"),
        ("time.core_self_s", "s"),
        ("time.env_s", "s"),
    ] {
        v.push((n.to_string(), u));
    }
    v
}

/// The client's record of the measured phase.
#[derive(Default)]
pub struct Phase {
    lat: [Samples; 4],
    pub attempted: u64,
    pub failed: u64,
    pub within_limit: u64,
    /// Time the client spent inside calls, summed over requests.
    pub busy_ns: u64,
    /// Length of the phase (open loop: until the last reply).
    pub wall_s: f64,
    pub user_write_bytes: u64,
    /// Open loop: how late each request was sent.
    pub late: Samples,
    /// Open loop: the generator fell behind and a backlog grew.
    pub behind: bool,
    pub mismatches: u64,
    pub first_mismatch: Option<String>,
}

impl Phase {
    fn slot(kind: OpKind) -> usize {
        match kind {
            OpKind::Put => 0,
            OpKind::Get => 1,
            OpKind::Scan => 2,
            OpKind::Batch => 3,
        }
    }

    pub fn lat(&self, kind: OpKind) -> &Samples {
        &self.lat[Self::slot(kind)]
    }

    /// Record a completed request that took `ns` from the client's view.
    pub fn done(&mut self, kind: OpKind, ns: u64) {
        self.lat[Self::slot(kind)].push(ns);
        self.busy_ns += ns;
        if ns <= GOODPUT_LIMIT_NS {
            self.within_limit += 1;
        }
    }

    pub fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        self.first_mismatch.get_or_insert(what);
    }

    pub fn merge(&mut self, o: Phase) {
        for (a, b) in self.lat.iter_mut().zip(&o.lat) {
            a.extend(b);
        }
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.within_limit += o.within_limit;
        self.busy_ns += o.busy_ns;
        self.user_write_bytes += o.user_write_bytes;
        self.late.extend(&o.late);
        self.behind |= o.behind;
        self.mismatches += o.mismatches;
        if self.first_mismatch.is_none() {
            self.first_mismatch = o.first_mismatch;
        }
    }

    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// Engine-side counters at one instant.
pub struct Probe {
    pub io: IoStatsSnapshot,
    pub stats: DbStats,
    pub cache: (u64, u64),
}

impl Probe {
    pub fn take<E: Maintenance>(db: &E, env: &EnvRef, cache: &BlockCache) -> Probe {
        let (hits, misses, _) = cache.stats();
        Probe {
            io: env.io_stats().snapshot(),
            stats: db.stats(),
            cache: (hits, misses),
        }
    }
}

/// What the traced run adds.
pub struct TraceOut {
    pub breakdown: Breakdown,
    /// Cost of recording one span, nanoseconds.
    pub span_ns: f64,
    /// Server request counters over the phase: (requests, failed).
    pub server: (u64, u64),
}

/// Everything one run measured.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub env_kind: &'static str,
    pub flush_policy: &'static str,
    pub dataset_bytes: u64,
    pub cache_bytes: u64,
    pub keys: u64,
    pub setup_s: Vec<f64>,
    pub phase: Phase,
    pub before: Probe,
    pub after: Probe,
    pub space_bytes: u64,
    pub logical_bytes: u64,
    /// Open loop: the offered request rate, per second.
    pub offered_rate: Option<f64>,
    pub trace: Option<TraceOut>,
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

impl Run {
    fn io(&self) -> IoStatsSnapshot {
        self.after.io.delta(&self.before.io)
    }

    /// The seconds throughput is divided by: for an open loop, from the
    /// first due time to the last reply; for a closed loop, the time the
    /// client spent inside calls (its own input generation and checking
    /// excluded).
    fn throughput_s(&self) -> f64 {
        if self.offered_rate.is_some() {
            self.phase.wall_s
        } else {
            secs(self.phase.busy_ns)
        }
    }

    fn summary(&self, kind: OpKind) -> Option<Summary> {
        self.phase.lat(kind).summary()
    }

    pub fn end_to_end(&self) -> Vec<(String, f64, &'static str)> {
        let p = &self.phase;
        let io = self.io();
        let sim_s = DeviceModel::nvme().simulated_seconds(&io);
        let t = self.throughput_s();
        let mut m: Vec<(String, f64)> = vec![
            ("setup_s".into(), median(&self.setup_s)),
            ("ops_kops".into(), ratio(p.completed() as f64, t) / 1e3),
            ("goodput_kops".into(), ratio(p.within_limit as f64, t) / 1e3),
        ];
        for kind in OpKind::ALL {
            let s = self.summary(kind);
            m.push((
                format!("{}_p50_us", kind.label()),
                s.map_or(0.0, |s| s.p50_us),
            ));
        }
        m.push(("sim_kops".into(), ratio(p.completed() as f64, sim_s) / 1e3));
        m.push((
            "space_amp".into(),
            ratio(self.space_bytes as f64, self.logical_bytes as f64),
        ));
        m.push((
            "write_amp".into(),
            ratio(io.total_write_bytes() as f64, p.user_write_bytes as f64),
        ));
        m.push(("peak_rss_mb".into(), peak_rss_mb()));
        with_units(m, END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)))
    }

    /// Printed with the end-to-end metrics but held to no bound: the p95
    /// and p99 of each operation, the failure share and the generator's
    /// lateness.
    pub fn ungated(&self) -> Vec<(String, f64, &'static str)> {
        let p = &self.phase;
        let mut m: Vec<(String, f64, &'static str)> = Vec::new();
        for kind in OpKind::ALL {
            let s = self.summary(kind);
            let l = kind.label();
            m.push((format!("{l}_p95_us"), s.map_or(0.0, |s| s.p95_us), "us"));
            m.push((format!("{l}_p99_us"), s.map_or(0.0, |s| s.p99_us), "us"));
        }
        m.push((
            "failed_frac".into(),
            ratio(p.failed as f64, p.attempted as f64),
            "ratio",
        ));
        m.push((
            "gen.late_p99_us".into(),
            p.late.summary().map_or(0.0, |s| s.p99_us),
            "us",
        ));
        m
    }

    pub fn per_layer(&self) -> Vec<(String, f64, &'static str)> {
        let trace = self
            .trace
            .as_ref()
            .expect("per-layer metrics need the traced run");
        let b = &trace.breakdown;
        let io = self.io();
        let (s0, s1) = (&self.before.stats, &self.after.stats);
        let gc = s1.gc.delta(&s0.gc);
        let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
        let mut m: Vec<(String, f64)> = Vec::new();

        let server = b.server_self.summary();
        m.push((
            "server.self_p50_us".into(),
            server.map_or(0.0, |s| s.p50_us),
        ));
        m.push((
            "server.self_p99_us".into(),
            server.map_or(0.0, |s| s.p99_us),
        ));
        m.push(("server.requests".into(), trace.server.0 as f64));
        m.push(("server.failed".into(), trace.server.1 as f64));
        for op in CoreOp::REPORTED {
            let s = b.core.get(&op).cloned().unwrap_or_default();
            m.push((format!("core.{}.busy_s", op.label()), secs(s.total_ns())));
            m.push((
                format!("core.{}.p99_us", op.label()),
                s.summary().map_or(0.0, |s| s.p99_us),
            ));
        }
        let gc_io = io.class(IoClass::GcRead).read_bytes + io.class(IoClass::GcWrite).write_bytes;
        let (h0, m0) = self.before.cache;
        let (h1, m1) = self.after.cache;
        let gets = self.phase.lat(OpKind::Get).len() as f64;
        m.extend([
            ("gc.runs".into(), gc.runs as f64),
            ("gc.read_s".into(), secs(gc.read_ns)),
            ("gc.lookup_s".into(), secs(gc.lookup_ns)),
            ("gc.write_s".into(), secs(gc.write_ns)),
            ("gc.write_index_s".into(), secs(gc.write_index_ns)),
            (
                "gc.valid_frac".into(),
                ratio(gc.records_valid as f64, gc.records_scanned as f64),
            ),
            (
                "gc.io_per_reclaimed_byte".into(),
                ratio(gc_io as f64, gc.reclaimed_bytes as f64),
            ),
            (
                "throttle.stalls".into(),
                d(s1.throttle_stalls, s0.throttle_stalls),
            ),
            (
                "vstore.exposed_garbage_mb".into(),
                mb(s1.exposed_garbage_bytes),
            ),
            ("vstore.value_files".into(), s1.value_files as f64),
            (
                "txn.2pc_commits".into(),
                d(s1.txn_2pc_commits, s0.txn_2pc_commits),
            ),
            (
                "txn.conflicts".into(),
                d(s1.txn_conflicts, s0.txn_conflicts),
            ),
            ("lsm.flushes".into(), d(s1.flushes, s0.flushes)),
            ("lsm.compactions".into(), d(s1.compactions, s0.compactions)),
            ("lsm.index_space_amp".into(), s1.index_space_amp),
            (
                "lsm.batches_per_group".into(),
                ratio(
                    d(s1.group_commit_batches, s0.group_commit_batches),
                    d(s1.group_commit_groups, s0.group_commit_groups),
                ),
            ),
            (
                "lsm.fsyncs_saved".into(),
                d(s1.group_commit_fsyncs_saved, s0.group_commit_fsyncs_saved),
            ),
            (
                "table.cache_hit_ratio".into(),
                ratio(d(h1, h0), d(h1, h0) + d(m1, m0)),
            ),
            (
                "table.index_reads_per_get".into(),
                ratio(io.class(IoClass::FgIndexRead).read_ops as f64, gets),
            ),
        ]);
        for c in CLASSES {
            let l = c.label();
            let cs = io.class(c);
            let fg = b.env_fg_ns.get(&c).copied().unwrap_or(0);
            let bg = b.env_bg_ns.get(&c).copied().unwrap_or(0);
            m.push((format!("env.{l}.ops"), (cs.read_ops + cs.write_ops) as f64));
            m.push((format!("env.{l}.mb"), mb(cs.read_bytes + cs.write_bytes)));
            m.push((format!("env.{l}.busy_s"), secs(fg + bg)));
            m.push((format!("env.{l}.bg_s"), secs(bg)));
        }
        let env_fg: u64 = b.env_fg_ns.values().sum();
        let client = b.client_ns as f64;
        m.extend([
            ("env.wal.syncs".into(), b.wal_sync.len() as f64),
            (
                "env.wal.sync_p99_us".into(),
                b.wal_sync.summary().map_or(0.0, |s| s.p99_us),
            ),
            (
                "gen.late_p99_us".into(),
                b.late.summary().map_or(0.0, |s| s.p99_us),
            ),
            (
                "trace.overhead_frac".into(),
                ratio(trace.span_ns * b.spans as f64, client),
            ),
            (
                "trace.unattributed_frac".into(),
                ratio(b.unattributed_ns as f64, client),
            ),
            ("time.client_s".into(), secs(b.client_ns)),
            ("time.gen_late_s".into(), secs(b.late.total_ns())),
            ("time.server_self_s".into(), secs(b.server_self.total_ns())),
            ("time.core_self_s".into(), secs(b.core_self_ns)),
            ("time.env_s".into(), secs(env_fg)),
        ]);
        with_units(m, per_layer_names().into_iter())
    }

    /// The run's context and sample counts, for the line before the
    /// result.
    pub fn manifest(&self) -> String {
        let p = &self.phase;
        let mut s = String::new();
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let _ = write!(
            s,
            "{{\"manifest\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"nproc\": {nproc}, \"env\": \"{}\", \"flush_policy\": \"{}\", \"keys\": {}, \
             \"dataset_bytes\": {}, \"block_cache_bytes\": {}, \"dataset_over_cache\": {}, \
             \"offered_rate_per_s\": {}, \"wall_s\": {}, \"setup_s_runs\": {:?}, \"attempted\": {}, \"failed\": {}, \
             \"failed_frac\": {}, \"mismatches\": {}, \"behind_schedule\": {}, \"samples\": {{",
            self.workload,
            self.seed,
            self.seconds,
            self.trace.is_some(),
            self.env_kind,
            self.flush_policy,
            self.keys,
            self.dataset_bytes,
            self.cache_bytes,
            ratio(self.dataset_bytes as f64, self.cache_bytes as f64),
            self.offered_rate.unwrap_or(0.0),
            p.wall_s,
            self.setup_s,
            p.attempted,
            p.failed,
            ratio(p.failed as f64, p.attempted as f64),
            p.mismatches,
            p.behind,
        );
        for (i, kind) in OpKind::ALL.iter().enumerate() {
            let (n, beyond, p95, p99) = self.summary(*kind).map_or((0, 0, 0.0, 0.0), |s| {
                (s.n, s.beyond_p99, s.p95_us, s.p99_us)
            });
            let _ = write!(
                s,
                "{}\"{}\": {{\"n\": {n}, \"beyond_p99\": {beyond}, \"p95_us\": {p95}, \"p99_us\": {p99}, \"busy_s\": {}}}",
                if i > 0 { ", " } else { "" },
                kind.label(),
                secs(p.lat(*kind).total_ns())
            );
        }
        let late = p.late.summary();
        let _ = write!(
            s,
            "}}, \"gen_late_p99_us\": {}, \"first_mismatch\": {}}}}}",
            late.map_or(0.0, |l| l.p99_us),
            json_str(p.first_mismatch.as_deref().unwrap_or(""))
        );
        s
    }
}

fn with_units(
    values: Vec<(String, f64)>,
    names: impl Iterator<Item = (String, &'static str)>,
) -> Vec<(String, f64, &'static str)> {
    let names: Vec<_> = names.collect();
    assert_eq!(
        values.len(),
        names.len(),
        "metric list out of step with its names"
    );
    values
        .into_iter()
        .zip(names)
        .map(|((n, v), (name, unit))| {
            assert_eq!(n, name, "metric out of order");
            (n, if v.is_finite() { v } else { 0.0 }, unit)
        })
        .collect()
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &'static str)],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}{}: {{\"value\": {v:?}, \"unit\": {}}}",
            if i > 0 { ", " } else { "" },
            json_str(name),
            json_str(unit)
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "..."` in the `end_to_end` or `per_layer` list of
    /// the repository's `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<String> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closed")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').unwrap()].to_string())
            .collect()
    }

    #[test]
    fn metric_names_match_the_benchmark_declaration() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<String> = per_layer_names().into_iter().map(|(n, _)| n).collect();
        assert_eq!(declared("per_layer"), layers);
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let line = result_line(
            true,
            1,
            0,
            &[("a".into(), 1.5, "ms"), ("b".into(), 2.0, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
