//! Engine statistics: GC step breakdown (paper Fig. 3), space breakdown,
//! and the aggregate snapshot the experiment harness consumes. Each set is
//! declared once with [`metric_set!`](scavenger_util::metric_set), which
//! derives its merge rules, deltas and Prometheus families.

use scavenger_env::IoStatsSnapshot;
use scavenger_util::ikey::SeqNo;
use scavenger_util::metric_set;
use scavenger_util::metrics::{write_family, Kind};

metric_set! {
    /// Snapshot of [`GcStats`].
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct GcStepTimes in "gc_" {
        /// Wall nanoseconds in the Read step.
        read_ns: u64 = counter sum hand,
        /// Wall nanoseconds in the GC-Lookup step.
        lookup_ns: u64 = counter sum hand,
        /// Wall nanoseconds in the Write step.
        write_ns: u64 = counter sum hand,
        /// Wall nanoseconds in the Write-Index step (Titan only).
        write_index_ns: u64 = counter sum hand,
        /// GC jobs run.
        runs: u64 = counter sum,
        /// Value files collected.
        files_collected: u64 = counter sum,
        /// Records examined.
        records_scanned: u64 = counter sum,
        /// Records found valid and rewritten.
        records_valid: u64 = counter sum,
        /// Bytes of garbage reclaimed (file bytes deleted minus bytes
        /// rewritten).
        reclaimed_bytes: u64 = counter sum,
        /// Validation batches executed (one per GC job phase).
        validate_batches: u64 = counter sum,
        /// Serial or parallel point lookups issued during validation.
        validate_point_lookups: u64 = counter sum,
        /// Co-sequential merge sweeps run (batches × read points).
        validate_sweeps: u64 = counter sum,
        /// Forward iterator steps taken by merge sweeps.
        validate_sweep_steps: u64 = counter sum,
        /// Full merged re-seeks taken by merge sweeps.
        validate_sweep_seeks: u64 = counter sum,
        /// Worker tasks dispatched by parallel validation.
        validate_parallel_jobs: u64 = counter sum,
        /// Worker tasks dispatched by parallel GC file I/O (the Fetch
        /// phase's per-file fan-out and Titan's full-file Read scans).
        fetch_parallel_jobs: u64 = counter sum,
        /// Record batches staged through `VWriter::add_batch` by the Write
        /// phase's route writers.
        write_batches: u64 = counter sum,
        /// GC jobs executed through the overlapped pipeline executor.
        pipeline_jobs: u64 = counter sum,
        /// Record batches pushed through the pipeline stages.
        pipeline_batches: u64 = counter sum,
        /// Stage executions that began while another pipeline stage was
        /// mid-batch — the direct measure of stage overlap.
        pipeline_overlaps: u64 = counter sum,
        /// Inter-stage handoffs that found the downstream queue full
        /// (backpressure from a slower stage).
        pipeline_backpressure: u64 = counter sum,
    }
    /// Accumulated per-step GC cost. The four steps are exactly the paper's
    /// (§II-C): Read, GC-Lookup, Write, Write-Index.
    #[derive(Debug, Default)]
    pub atomic GcStats;
}

impl GcStepTimes {
    /// Total nanoseconds across all steps.
    pub fn total_ns(&self) -> u64 {
        self.read_ns + self.lookup_ns + self.write_ns + self.write_index_ns
    }

    /// Per-step share of GC time as `(read, lookup, write, write_index)`
    /// percentages — the paper's Figure 3 latency breakdown.
    pub fn percentages(&self) -> (f64, f64, f64, f64) {
        let t = self.total_ns() as f64;
        if t == 0.0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        (
            100.0 * self.read_ns as f64 / t,
            100.0 * self.lookup_ns as f64 / t,
            100.0 * self.write_ns as f64 / t,
            100.0 * self.write_index_ns as f64 / t,
        )
    }
}

metric_set! {
    /// Where the engine's bytes live on disk.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct SpaceBreakdown in "space_" {
        /// Key SSTs (the index LSM-tree).
        ksst_bytes: u64 = gauge sum hand,
        /// Value SSTs / blob logs.
        value_bytes: u64 = gauge sum hand,
        /// Write-ahead logs.
        wal_bytes: u64 = gauge sum hand,
        /// Manifest + CURRENT.
        manifest_bytes: u64 = gauge sum hand,
        /// Anything else.
        other_bytes: u64 = gauge sum hand,
    }
}

impl SpaceBreakdown {
    /// Total engine footprint.
    pub fn total(&self) -> u64 {
        self.ksst_bytes + self.value_bytes + self.wal_bytes + self.manifest_bytes + self.other_bytes
    }
}

metric_set! {
    /// Aggregate engine statistics for the harness. For a
    /// [`DbShards`](crate::DbShards) set each field is the fold of the
    /// per-shard values under its declared rule, except the few that
    /// exist only at set level (see [`DbShards::stats`](crate::DbShards::stats)).
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct DbStats in "" {
        /// Per-class I/O counters.
        io: IoStatsSnapshot = counter sum hand,
        /// GC step breakdown.
        gc: GcStepTimes = counter sum hand,
        /// On-disk space breakdown.
        space: SpaceBreakdown = gauge sum hand,
        /// Index LSM-tree space amplification (paper Eq. 1).
        index_space_amp: f64 = gauge max,
        /// Total exposed garbage bytes in the value store.
        exposed_garbage_bytes: u64 = gauge sum,
        /// Total value bytes in live value files.
        value_store_bytes: u64 = gauge sum,
        /// Live value files.
        value_files: u64 = gauge sum,
        /// Block cache hit ratio.
        cache_hit_ratio: f64 = gauge max,
        /// Memtable flushes completed.
        flushes: u64 = counter sum,
        /// Compactions completed (excluding trivial moves).
        compactions: u64 = counter sum,
        /// Entries dropped by merges.
        merge_drops: u64 = counter sum,
        /// Write-path throttle activations (space-aware throttling, §III-D).
        /// When the engine is a [`DbShards`](crate::DbShards) member, the
        /// counter is shared — every shard reports the set-wide total.
        throttle_stalls: u64 = counter max,
        /// The oldest registered read point (gauge), or `None` when no
        /// reader is in flight. Everything visible at this sequence is
        /// preserved: compaction keeps the pinned versions, no-writeback GC
        /// validates against it, Titan's write-back GC holds collected blob
        /// files in its deferred queue until no read point predates the
        /// relocation, and BlobDB defers exhausted-file reaping entirely
        /// while it is `Some`. A value that stays old for a long time is the
        /// signature of a leaked view/snapshot — space cannot be reclaimed
        /// past it, which space-aware throttling (§III-D) will eventually
        /// surface as activations that cannot get back under the limit.
        /// Sequences are per shard, so a set reports the minimum: a
        /// conservative "oldest anywhere".
        oldest_read_point: Option<SeqNo> = gauge min hand,
        /// Pinned transient views currently registered (gauge). These are
        /// in-flight `get`s/scans, live [`ReadView`](crate::ReadView)s, and
        /// GC validation readers.
        pinned_views: u64 = gauge sum,
        /// User snapshots currently registered (gauge). Beyond pinning
        /// versions like any read point, [`Snapshot`](crate::Snapshot)s
        /// gate Titan's whole-job GC deferral.
        live_snapshots: u64 = gauge sum,
        /// Background jobs that exhausted their transient-failure retries (or
        /// failed permanently) and degraded the engine to read-only mode.
        bg_errors: u64 = counter sum,
        /// Transient background-job failures that were retried with backoff
        /// (see `Options::bg_retry_limit` / `Options::bg_retry_base`).
        bg_retries: u64 = counter sum,
        /// True while the engine is in read-only degraded mode after a
        /// permanent background failure. Writes fail fast with
        /// [`Error::ReadOnlyMode`](scavenger_util::Error::ReadOnlyMode) until
        /// `resume()` clears the condition; a set is degraded when any
        /// shard is.
        degraded: bool = gauge any,
        /// WAL files whose tail was found torn or corrupt during recovery;
        /// the intact record prefix was replayed and the rest discarded.
        wal_tail_corruptions: u64 = counter sum,
        /// Commit groups formed by the group-commit write path (each group is
        /// one WAL record, one memtable pass, and at most one fsync).
        group_commit_groups: u64 = counter sum,
        /// Writer batches committed through those groups. Equal to
        /// `group_commit_groups` when writers never contend; greater under
        /// concurrency.
        group_commit_batches: u64 = counter sum,
        /// Largest number of batches ever merged into a single group.
        group_commit_max_group: u64 = gauge max,
        /// Fsyncs elided by riding a group leader's sync: for every synced
        /// group this grows by `sync_riders - 1`.
        group_commit_fsyncs_saved: u64 = counter sum,
        /// Optimistic transactions committed through this handle (validated
        /// read set, batch applied). For a [`DbShards`](crate::DbShards) set
        /// this sums the set-level commits with any per-shard commits.
        txn_commits: u64 = counter sum,
        /// Optimistic transactions rejected at commit-time validation: a
        /// read-set key was overwritten after the transaction's read point.
        txn_conflicts: u64 = counter sum,
        /// Multi-shard batches committed through the two-phase coordinator
        /// log (prepare + commit records). Always 0 on a single
        /// [`Db`](crate::Db); single-shard batches bypass the coordinator
        /// entirely.
        txn_2pc_commits: u64 = counter sum,
        /// Prepared-but-uncommitted coordinator transactions rolled forward
        /// during recovery (crash between prepare and the last shard apply).
        txn_2pc_rollforwards: u64 = counter sum,
        /// Change events published to the CDC ring at group-commit apply
        /// time (counter; includes internal relocation events the
        /// subscriber API filters out).
        cdc_events_published: u64 = counter sum,
        /// Registered change-stream cursors (gauge). For a
        /// [`DbShards`](crate::DbShards) set this sums per-shard cursors,
        /// so one merged subscription counts once per shard.
        cdc_subscribers: u64 = gauge sum,
        /// WAL bytes retained beyond the durability horizon for
        /// change-stream catch-up. This is the CDC share of
        /// [`DbStats::pinned_bytes`].
        cdc_retained_wal_bytes: u64 = gauge sum,
        /// How far the slowest registered subscriber trails the commit head
        /// in sequence numbers (gauge; max across shards, 0 when caught up
        /// or no subscribers).
        cdc_lag_seqs: u64 = gauge max,
        /// Cursor polls served from retained WAL segments rather than the
        /// in-memory ring (counter) — nonzero means subscribers fell behind
        /// the ring and took the catch-up path.
        cdc_catchup_reads: u64 = counter sum,
        /// Bytes the engine is currently holding *only* because something
        /// pins them — WAL history retained for change streams plus value
        /// files whose reclamation is deferred by read points (gauge).
        /// Space-aware throttling (§III-D) discounts these: reclamation
        /// cannot get rid of them, so stalling writers on them is pointless.
        pinned_bytes: u64 = gauge sum,
    }
}

impl DbStats {
    /// Append this snapshot in Prometheus text exposition format — the
    /// engine half of a `/metrics` page. Every declared family comes from
    /// [`DbStats::write_families`] and [`GcStepTimes::write_families`];
    /// the `hand` fields are written here, one family each. The I/O
    /// families carry one more sample set per entry of `shards`, labelled
    /// `shard="<index>"`.
    pub fn render_prometheus(&self, out: &mut String, shards: &[DbStats]) {
        DbStats::write_families(out, &[("", self)]);
        GcStepTimes::write_families(out, &[("", &self.gc)]);
        let mut io = vec![(String::new(), &self.io)];
        io.extend(
            shards
                .iter()
                .enumerate()
                .map(|(i, s)| (format!("shard=\"{i}\""), &s.io)),
        );
        IoStatsSnapshot::write_families(out, &io);

        let gc = &self.gc;
        write_family(
            out,
            "scavenger_gc_step_seconds_total",
            Kind::Counter,
            "Wall seconds spent in each GC step (paper Fig. 3).",
            [
                ("read", gc.read_ns),
                ("lookup", gc.lookup_ns),
                ("write", gc.write_ns),
                ("write_index", gc.write_index_ns),
            ]
            .map(|(step, ns)| (format!("step=\"{step}\""), ns as f64 / 1e9)),
        );
        let space = &self.space;
        write_family(
            out,
            "scavenger_space_bytes",
            Kind::Gauge,
            "On-disk bytes by file kind.",
            [
                ("ksst", space.ksst_bytes),
                ("value", space.value_bytes),
                ("wal", space.wal_bytes),
                ("manifest", space.manifest_bytes),
                ("other", space.other_bytes),
            ]
            .map(|(kind, bytes)| (format!("kind=\"{kind}\""), bytes as f64)),
        );
        // Presence and value, so a scraper can tell "no pin" from
        // "pinned at sequence 0".
        write_family(
            out,
            "scavenger_oldest_read_point_present",
            Kind::Gauge,
            "1 while any reader pins a read point.",
            [("", u64::from(self.oldest_read_point.is_some()) as f64)],
        );
        write_family(
            out,
            "scavenger_oldest_read_point",
            Kind::Gauge,
            "The oldest registered read point (0 when none).",
            [("", self.oldest_read_point.unwrap_or(0) as f64)],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn percentages_sum_to_100() {
        let t = GcStepTimes {
            read_ns: 500,
            lookup_ns: 300,
            write_ns: 150,
            write_index_ns: 50,
            ..Default::default()
        };
        let (r, l, w, wi) = t.percentages();
        assert!((r + l + w + wi - 100.0).abs() < 1e-9);
        assert!((r - 50.0).abs() < 1e-9);
        assert!((wi - 5.0).abs() < 1e-9);
    }

    #[test]
    fn empty_percentages_are_zero() {
        let t = GcStepTimes::default();
        assert_eq!(t.percentages(), (0.0, 0.0, 0.0, 0.0));
        assert_eq!(t.total_ns(), 0);
    }

    #[test]
    fn delta_subtracts() {
        let a = GcStepTimes {
            read_ns: 100,
            runs: 2,
            ..Default::default()
        };
        let b = GcStepTimes {
            read_ns: 250,
            runs: 5,
            ..Default::default()
        };
        let d = b.delta(&a);
        assert_eq!(d.read_ns, 150);
        assert_eq!(d.runs, 3);
    }

    #[test]
    fn space_total_sums_components() {
        let s = SpaceBreakdown {
            ksst_bytes: 1,
            value_bytes: 2,
            wal_bytes: 3,
            manifest_bytes: 4,
            other_bytes: 5,
        };
        assert_eq!(s.total(), 15);
    }

    #[test]
    fn render_writes_hand_ruled_series_once_each() {
        let stats = DbStats {
            gc: GcStepTimes {
                read_ns: 2_000_000_000,
                runs: 3,
                ..Default::default()
            },
            oldest_read_point: Some(0),
            ..Default::default()
        };
        let shard = stats.clone();
        let mut out = String::new();
        stats.render_prometheus(&mut out, &[shard]);
        assert!(out.contains("scavenger_gc_runs_total 3\n"));
        assert!(out.contains("scavenger_gc_step_seconds_total{step=\"read\"} 2\n"));
        assert!(out.contains("scavenger_space_bytes{kind=\"other\"} 0\n"));
        assert!(out.contains("scavenger_oldest_read_point_present 1\n"));
        assert!(out.contains("scavenger_io_read_ops_total{class=\"wal\",shard=\"0\"} 0\n"));
        assert!(
            !out.contains("read_ns"),
            "hand fields get no generated family"
        );
        let types: Vec<&str> = out.lines().filter(|l| l.starts_with("# TYPE")).collect();
        let mut unique = types.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(types.len(), unique.len(), "a family appears twice");
    }

    #[test]
    fn gc_stats_atomics_accumulate() {
        let g = GcStats::default();
        g.read_ns.fetch_add(10, Ordering::Relaxed);
        g.read_ns.fetch_add(5, Ordering::Relaxed);
        g.runs.fetch_add(1, Ordering::Relaxed);
        let s = g.snapshot();
        assert_eq!(s.read_ns, 15);
        assert_eq!(s.runs, 1);
    }
}
