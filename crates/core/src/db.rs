//! The public engine facade: opens the index LSM-tree, value store, GC
//! runner, and throttle as one database.

use crate::dropcache::DropCache;
use crate::gc::{GcOutcome, GcRunner};
use crate::hook::{EngineHook, HookConfig};
use crate::options::{EngineMode, GcScheme, Options};
use crate::stats::{DbStats, GcStats, SpaceBreakdown};
use crate::throttle::{Throttle, MAX_THROTTLE_ROUNDS};
use crate::txn::TxnCounters;
use crate::view::{ReadOptions, ReadPin, ReadView, Snapshot, WriteOptions, WriteReceipt};
use crate::vstore::ValueStore;
use bytes::Bytes;
use parking_lot::Mutex;
use scavenger_env::usage::{SpaceTracker, UsageEnv};
use scavenger_lsm::filename::{parse_path, FileKind};
use scavenger_lsm::{Lsm, LsmReadResult, ValueEditBundle, WriteBatch};
use scavenger_table::btable::BlockCache;
use scavenger_util::ikey::{SeqNo, ValueRef, ValueType};
use scavenger_util::{Error, Result};
use std::sync::Arc;

/// One entry produced by a range scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanEntry {
    /// User key.
    pub key: Vec<u8>,
    /// Value (resolved through the value store if separated).
    pub value: Bytes,
}

pub(crate) struct DbInner {
    opts: Options,
    lsm: Lsm,
    vstore: Arc<ValueStore>,
    dropcache: Arc<DropCache>,
    gc: Option<GcRunner>,
    gc_stats: Arc<GcStats>,
    /// Shared with sibling shards when opened through
    /// [`DbShards`](crate::DbShards), so limit + counters are global.
    throttle: Arc<Throttle>,
    /// Serializes GC jobs and exhausted-file reaping.
    gc_lock: Mutex<()>,
    /// Byte credits for paced auto-GC (see `Options::gc_bandwidth_factor`).
    gc_credits: Mutex<i64>,
    cache: Arc<BlockCache>,
    /// Optimistic-transaction commit/conflict counters.
    txn: TxnCounters,
    /// Incremental space-usage counter over this store's directory,
    /// maintained by a [`UsageEnv`] layer wrapped around the
    /// environment at open. `None` only when the opener installed its
    /// own `space_usage` source (a [`DbShards`](crate::DbShards) set
    /// sums per-shard trackers instead).
    space_tracker: Option<Arc<SpaceTracker>>,
}

impl DbInner {
    /// Resolve an index read result into the user value, fetching
    /// separated values through the value store.
    pub(crate) fn resolve_read(&self, key: &[u8], r: LsmReadResult) -> Result<Option<Bytes>> {
        match r {
            LsmReadResult::NotFound | LsmReadResult::Deleted => Ok(None),
            LsmReadResult::Found {
                vtype: ValueType::Value,
                value,
                ..
            } => Ok(Some(value)),
            LsmReadResult::Found {
                vtype: ValueType::ValueRef,
                seq,
                value,
            } => {
                let vref = ValueRef::decode(&value)?;
                Ok(Some(self.vstore.read_ref(key, seq, &vref)?))
            }
            LsmReadResult::Found {
                vtype: ValueType::Deletion,
                ..
            } => Err(Error::internal(
                "tombstone escaped the read path".to_string(),
            )),
        }
    }
}

/// A Scavenger database handle (cheaply cloneable).
#[derive(Clone)]
pub struct Db {
    inner: Arc<DbInner>,
}

impl Db {
    /// Open (or recover) a database.
    pub fn open(mut opts: Options) -> Result<Db> {
        // Meter this store's directory once at open, then keep the
        // usage current incrementally as the env layer sees appends,
        // deletes, and renames — space-aware admission (§III-D) reads
        // an atomic instead of walking O(files) per write. Skipped when
        // the opener brings its own usage source (shard sets install a
        // tracker-summing closure).
        let space_tracker = if opts.space_usage.is_none() {
            let (env, tracker) = UsageEnv::wrap(opts.env.clone(), &format!("{}/", opts.dir))?;
            opts.env = env;
            Some(tracker)
        } else {
            None
        };
        let cache = opts.block_cache.clone().unwrap_or_else(|| {
            Arc::new(BlockCache::with_capacity(opts.block_cache_bytes.max(4096)))
        });
        // A shared cache means sibling stores whose file numbers collide
        // (shards all allocate from 1): namespace this store's cache keys
        // so one shard can never serve another's cached blocks.
        let cache_ns = if opts.block_cache.is_some() {
            scavenger_table::cache::new_cache_namespace()
        } else {
            0
        };
        let vstore = Arc::new(
            ValueStore::new(opts.env.clone(), opts.dir.clone(), cache.clone())
                .with_cache_namespace(cache_ns),
        );
        let dropcache = Arc::new(DropCache::new(opts.dropcache_keys));
        let gc_stats = Arc::new(GcStats::default());

        let mut lsm_opts = opts.lsm_options();
        lsm_opts.block_cache = Some(cache.clone());
        lsm_opts.cache_namespace = cache_ns;
        let hook = if opts.features.separate {
            let h = Arc::new(EngineHook::new(
                HookConfig {
                    env: opts.env.clone(),
                    dir: opts.dir.clone(),
                    features: opts.features,
                    sep_threshold: opts.sep_threshold,
                    vsst_target: opts.vsst_target_size,
                    table_opts: lsm_opts.table_options(),
                },
                vstore.clone(),
                dropcache.clone(),
                gc_stats.clone(),
            ));
            lsm_opts.value_hook = Some(h.clone());
            Some(h)
        } else {
            None
        };

        let (lsm, replay) = Lsm::open(lsm_opts)?;

        // Restore the value store: manifest history first, then anything
        // committed during WAL recovery (buffered by the hook).
        let apply = |bundle: &ValueEditBundle| {
            let removed = vstore.apply_bundle(bundle);
            for (file, format) in removed {
                vstore.delete_file(file, format);
            }
        };
        for bundle in &replay {
            apply(bundle);
        }
        if let Some(h) = &hook {
            for bundle in h.go_live() {
                apply(&bundle);
            }
        }
        vstore.delete_orphans()?;

        let gc = if opts.features.separate {
            Some(GcRunner::new(
                opts.env.clone(),
                opts.dir.clone(),
                opts.features,
                crate::gc::GcConfig {
                    vsst_target: opts.vsst_target_size,
                    batch_files: opts.gc_batch_files,
                    validate_mode: opts.gc_validate_mode,
                    threads: opts.gc_threads,
                    // Auto resolves here, once, against the machine; the
                    // GC executor only ever sees a concrete setting.
                    pipeline: opts.gc_pipeline.resolved(),
                    pipeline_batch: opts.gc_pipeline_batch,
                },
                opts.lsm_options().table_options(),
                vstore.clone(),
                dropcache.clone(),
                gc_stats.clone(),
            ))
        } else {
            None
        };
        let throttle = opts
            .shared_throttle
            .clone()
            .unwrap_or_else(|| Arc::new(Throttle::new(opts.space_limit, opts.throttle_gc_factor)));

        Ok(Db {
            inner: Arc::new(DbInner {
                opts,
                lsm,
                vstore,
                dropcache,
                gc,
                gc_stats,
                throttle,
                gc_lock: Mutex::new(()),
                gc_credits: Mutex::new(0),
                cache,
                txn: TxnCounters::default(),
                space_tracker,
            }),
        })
    }

    // ---------------- writes ----------------

    /// Insert or overwrite a key (default [`WriteOptions`]).
    pub fn put(&self, key: impl AsRef<[u8]>, value: impl Into<Bytes>) -> Result<WriteReceipt> {
        self.put_with(&WriteOptions::default(), key, value)
    }

    /// Insert or overwrite a key with explicit options.
    pub fn put_with(
        &self,
        opts: &WriteOptions,
        key: impl AsRef<[u8]>,
        value: impl Into<Bytes>,
    ) -> Result<WriteReceipt> {
        let mut b = WriteBatch::new();
        b.put(key.as_ref(), value.into());
        self.write_with(opts, b)
    }

    /// Delete a key (default [`WriteOptions`]).
    pub fn delete(&self, key: impl AsRef<[u8]>) -> Result<WriteReceipt> {
        self.delete_with(&WriteOptions::default(), key)
    }

    /// Delete a key with explicit options.
    pub fn delete_with(&self, opts: &WriteOptions, key: impl AsRef<[u8]>) -> Result<WriteReceipt> {
        let mut b = WriteBatch::new();
        b.delete(key.as_ref());
        self.write_with(opts, b)
    }

    /// Apply a batch atomically (default [`WriteOptions`]).
    pub fn write(&self, batch: WriteBatch) -> Result<WriteReceipt> {
        self.write_with(&WriteOptions::default(), batch)
    }

    /// Apply a batch atomically with explicit options: `sync = false`
    /// skips the per-write WAL fsync, `disable_throttle = true` bypasses
    /// space-aware admission throttling. The returned [`WriteReceipt`]
    /// reports the batch's commit point, its group-commit company, and
    /// whether an fsync covered it.
    pub fn write_with(&self, opts: &WriteOptions, batch: WriteBatch) -> Result<WriteReceipt> {
        if !opts.disable_throttle {
            self.enforce_space_limit()?;
        }
        let credit = (batch.byte_size() as f64 * self.inner.opts.gc_bandwidth_factor) as i64;
        let receipt = self.inner.lsm.write_opts(opts, batch)?;
        {
            let mut c = self.inner.gc_credits.lock();
            // Cap the accumulator so an idle period cannot bank unbounded
            // GC bandwidth.
            *c = (*c + credit).min(64 * 1024 * 1024);
        }
        self.post_write_maintenance()?;
        Ok(receipt)
    }

    /// Validate a transaction's read set under the LSM writer lock and,
    /// if every read is still current, commit its write buffer through
    /// the group-commit path. Backing for
    /// [`Transactional::txn_commit`](crate::Transactional).
    pub(crate) fn txn_commit_raw(
        &self,
        reads: &[(Vec<u8>, SeqNo)],
        batch: WriteBatch,
        opts: &WriteOptions,
    ) -> Result<WriteReceipt> {
        if !opts.disable_throttle {
            self.enforce_space_limit()?;
        }
        match self.inner.lsm.write_validated(opts, batch, reads) {
            Ok(receipt) => {
                self.inner.txn.committed();
                self.post_write_maintenance()?;
                Ok(receipt)
            }
            Err(e) => {
                if e.is_txn_conflict() {
                    self.inner.txn.conflicted();
                }
                Err(e)
            }
        }
    }

    /// The usage the throttle compares against the space limit: this
    /// engine's own footprint, unless the opener installed a shared
    /// source (a [`DbShards`](crate::DbShards) set sums every shard so
    /// one budget covers the whole store).
    fn throttled_usage(&self) -> u64 {
        if let Some(usage) = &self.inner.opts.space_usage {
            return usage();
        }
        if let Some(tracker) = &self.inner.space_tracker {
            return tracker.total();
        }
        self.space().total()
    }

    /// Bytes held only because something pins them: WAL history
    /// retained for registered change-stream subscribers, plus (under
    /// BlobDB's compaction-triggered scheme) exhausted value files
    /// whose reaping is deferred while a read point is live. Reclaiming
    /// cannot free these — the throttle discounts them when deciding
    /// whether stalling writers can still help.
    pub fn pinned_bytes(&self) -> u64 {
        let inner = &self.inner;
        let mut pinned = inner.lsm.change_log().pinned_bytes();
        if inner.opts.features.gc == GcScheme::CompactionTriggered
            && inner.lsm.oldest_read_point().is_some()
        {
            pinned += inner
                .vstore
                .all_files()
                .iter()
                .filter(|m| m.is_exhausted())
                .map(|m| m.size)
                .sum::<u64>();
        }
        pinned
    }

    /// Space-aware throttling (paper §III-D): before admitting a write,
    /// reclaim aggressively while over the limit.
    fn enforce_space_limit(&self) -> Result<()> {
        let inner = &self.inner;
        if inner.throttle.limit().is_none() {
            return Ok(());
        }
        if !inner.throttle.over_limit(self.throttled_usage()) {
            return Ok(());
        }
        // Discount pinned bytes (CDC-retained WAL history, read-point-
        // deferred blob files): reclamation cannot touch them, so when
        // the *reclaimable* footprint is under the limit, stalling
        // writers on GC rounds would burn I/O for nothing.
        if !inner
            .throttle
            .over_limit(self.throttled_usage().saturating_sub(self.pinned_bytes()))
        {
            return Ok(());
        }
        inner.throttle.note_activation();
        let aggressive = inner.throttle.aggressive_threshold(inner.opts.gc_threshold);
        for _ in 0..MAX_THROTTLE_ROUNDS {
            let reclaimable = self.throttled_usage().saturating_sub(self.pinned_bytes());
            if !inner.throttle.over_limit(reclaimable) {
                return Ok(());
            }
            let mut progressed = false;
            if let Some(gc) = &inner.gc {
                let _g = inner.gc_lock.lock();
                if gc.run_once(&inner.lsm, aggressive)?.is_some() {
                    inner
                        .throttle
                        .gc_rounds
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    progressed = true;
                }
            }
            self.reap_exhausted()?;
            if !progressed {
                // No GC candidate yet: force compaction to expose hidden
                // garbage, then try again.
                if inner.lsm.force_compact_once()? {
                    inner
                        .throttle
                        .forced_compactions
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                } else {
                    break;
                }
            }
        }
        if inner
            .throttle
            .over_limit(self.throttled_usage().saturating_sub(self.pinned_bytes()))
        {
            inner
                .throttle
                .unresolved
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        Ok(())
    }

    fn post_write_maintenance(&self) -> Result<()> {
        self.reap_exhausted()?;
        if self.inner.opts.auto_gc {
            self.run_paced_gc()?;
        }
        Ok(())
    }

    /// Auto-GC under the bandwidth budget: run jobs while candidates exist
    /// and credits remain, charging each job's GC read+write bytes.
    fn run_paced_gc(&self) -> Result<()> {
        let inner = &self.inner;
        let Some(gc) = &inner.gc else { return Ok(()) };
        loop {
            if *inner.gc_credits.lock() <= 0 {
                return Ok(());
            }
            let before = inner.opts.env.io_stats().snapshot();
            let ran = {
                let _g = inner.gc_lock.lock();
                gc.run_once(&inner.lsm, inner.opts.gc_threshold)?
            };
            if ran.is_none() {
                return Ok(());
            }
            let d = inner.opts.env.io_stats().snapshot().delta(&before);
            let cost = d.class(scavenger_env::IoClass::GcRead).read_bytes
                + d.class(scavenger_env::IoClass::GcWrite).write_bytes;
            *inner.gc_credits.lock() -= cost as i64;
        }
    }

    /// BlobDB reclamation: delete blob files whose every record has been
    /// exposed ("exhausted through compaction", §II-C).
    ///
    /// Deferred while *any* read point is registered: an in-flight view
    /// may hold a pre-relocation superversion whose index entries still
    /// address the exhausted file, and relocation happens inside
    /// compaction without advancing the sequence — so no sequence
    /// comparison can tell a safe reader from an endangered one. A
    /// reader registered after this check pins the current (post-
    /// relocation) superversion and is safe. Exhaustion is monotonic, so
    /// deferred files are reaped on a later quiet pass.
    fn reap_exhausted(&self) -> Result<()> {
        let inner = &self.inner;
        if inner.opts.features.gc != GcScheme::CompactionTriggered {
            return Ok(());
        }
        let _g = inner.gc_lock.lock();
        if inner.lsm.oldest_read_point().is_some() {
            return Ok(());
        }
        let exhausted = inner.vstore.exhausted_files();
        if exhausted.is_empty() {
            return Ok(());
        }
        let bundle = ValueEditBundle {
            deleted_files: exhausted,
            ..Default::default()
        };
        inner.lsm.apply_value_edit(bundle.clone())?;
        let removed = inner.vstore.apply_bundle(&bundle);
        for (file, format) in removed {
            inner.vstore.delete_file(file, format);
        }
        Ok(())
    }

    // ---------------- reads ----------------

    /// Latest value of `key`, or `None` if absent/deleted.
    ///
    /// Single-pass and strictly consistent: the read goes through a
    /// transient pinned [`ReadView`], so the index version it observes
    /// and the value it resolves belong to the same point in time even
    /// under concurrent flush/compaction/GC. (Earlier versions re-read
    /// the index up to three times to paper over values retired between
    /// the index lookup and the fetch.)
    pub fn get(&self, key: impl AsRef<[u8]>) -> Result<Option<Bytes>> {
        let key = key.as_ref();
        self.inner
            .lsm
            .get_resolved(key, |r| self.inner.resolve_read(key, r))
    }

    /// Value of `key` as seen by `opts`: through the pinned view or
    /// snapshot in [`ReadOptions::pin`] (latest otherwise), with
    /// per-call cache control. A sharded pin
    /// ([`ReadPin::ShardsView`] /
    /// [`ReadPin::ShardsSnapshot`]) is
    /// an error on a single-engine handle.
    pub fn get_with(&self, opts: &ReadOptions<'_>, key: impl AsRef<[u8]>) -> Result<Option<Bytes>> {
        let key = key.as_ref();
        match opts.pin {
            ReadPin::View(v) => v.get_opt(key, opts.fill_cache),
            ReadPin::Snapshot(s) => s.view().get_opt(key, opts.fill_cache),
            ReadPin::Latest => self.view().get_opt(key, opts.fill_cache),
            ReadPin::ShardsView(_) | ReadPin::ShardsSnapshot(_) => Err(Error::invalid_argument(
                "sharded pin passed to a single-engine read",
            )),
        }
    }

    /// Take a pinned, registered [`ReadView`] at the latest sequence.
    /// All reads through it are strictly consistent for its lifetime:
    /// writes, flushes, compactions, and GC committed after creation are
    /// invisible, and every version it can see stays resolvable.
    ///
    /// ```
    /// use scavenger::{Db, EngineMode, MemEnv, Options};
    ///
    /// let db = Db::open(Options::new(MemEnv::shared(), "view-demo", EngineMode::Scavenger)).unwrap();
    /// db.put(b"k", b"old".to_vec()).unwrap();
    /// let view = db.view();
    /// db.put(b"k", b"new".to_vec()).unwrap();
    /// // The view still reads its epoch; the latest read sees the update.
    /// assert_eq!(view.get(b"k").unwrap().unwrap().as_ref(), b"old");
    /// assert_eq!(db.get(b"k").unwrap().unwrap().as_ref(), b"new");
    /// ```
    pub fn view(&self) -> ReadView {
        ReadView {
            view: self.inner.lsm.view(),
            db: self.inner.clone(),
        }
    }

    /// Take a consistent snapshot: an RAII handle owning a registered
    /// view. Read through it with [`Snapshot::get`] / [`Snapshot::scan`];
    /// dropping it unregisters the sequence.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            view: ReadView {
                view: self.inner.lsm.snapshot_view(),
                db: self.inner.clone(),
            },
        }
    }

    /// Range scan over `[lo, hi)` (unbounded when `hi` is `None`),
    /// resolving separated values, through a transient pinned view (the
    /// iterator owns the pin).
    pub fn scan(&self, lo: &[u8], hi: Option<&[u8]>) -> Result<DbScanIter> {
        self.view().scan(lo, hi)
    }

    /// Range scan as seen by `opts`: bounds come from
    /// [`lower_bound`](ReadOptions::lower_bound) /
    /// [`upper_bound`](ReadOptions::upper_bound), the read point from
    /// [`ReadOptions::pin`] (latest otherwise). A sharded pin is an
    /// error on a single-engine handle.
    pub fn scan_with(&self, opts: &ReadOptions<'_>) -> Result<DbScanIter> {
        let lo = opts.lower_bound.as_deref().unwrap_or(b"");
        let hi = opts.upper_bound.as_deref();
        match opts.pin {
            ReadPin::View(v) => v.scan_opt(lo, hi, opts.fill_cache),
            ReadPin::Snapshot(s) => s.view().scan_opt(lo, hi, opts.fill_cache),
            ReadPin::Latest => self.view().scan_opt(lo, hi, opts.fill_cache),
            ReadPin::ShardsView(_) | ReadPin::ShardsSnapshot(_) => Err(Error::invalid_argument(
                "sharded pin passed to a single-engine scan",
            )),
        }
    }

    // ---------------- maintenance ----------------

    /// Flush the memtable and drain background work.
    pub fn flush(&self) -> Result<()> {
        self.inner.lsm.flush()?;
        self.post_write_maintenance()
    }

    /// Compact until every level score is under 1.
    pub fn compact_all(&self) -> Result<()> {
        self.inner.lsm.compact_until_stable()?;
        self.post_write_maintenance()
    }

    /// Run one GC job at the configured threshold.
    pub fn run_gc(&self) -> Result<Option<GcOutcome>> {
        self.run_gc_at(self.inner.opts.gc_threshold)
    }

    /// Run one GC job at an explicit threshold.
    pub fn run_gc_at(&self, threshold: f64) -> Result<Option<GcOutcome>> {
        let inner = &self.inner;
        match &inner.gc {
            Some(gc) => {
                let _g = inner.gc_lock.lock();
                gc.run_once(&inner.lsm, threshold)
            }
            None => Ok(None),
        }
    }

    /// Dry-run the GC-Lookup validation phase over one value file without
    /// moving data: reports how many of its records are still live.
    /// `mode` overrides the configured [`crate::GcValidateMode`] (useful
    /// for diagnostics and benchmarking the modes against each other).
    pub fn gc_validate_file(
        &self,
        file: u64,
        mode: Option<crate::GcValidateMode>,
    ) -> Result<crate::GcValidationReport> {
        let inner = &self.inner;
        match &inner.gc {
            Some(gc) => {
                let _g = inner.gc_lock.lock();
                gc.validate_file(&inner.lsm, file, mode)
            }
            None => Err(Error::internal(
                "engine mode has no value separation to validate".to_string(),
            )),
        }
    }

    /// Run GC jobs until no candidate crosses the threshold.
    pub fn run_gc_until_clean(&self) -> Result<usize> {
        let mut jobs = 0;
        while self.run_gc()?.is_some() {
            jobs += 1;
            if jobs > 1024 {
                return Err(Error::internal("runaway GC loop"));
            }
        }
        Ok(jobs)
    }

    /// Recover from read-only degraded mode after a permanent background
    /// failure: re-verify (and if needed rewrite) the manifest, delete
    /// orphan value files left behind by a crashed GC write stage, clear
    /// the stored background error, and re-enable writes. Returns an
    /// error — leaving the engine degraded — if verification fails.
    pub fn resume(&self) -> Result<()> {
        self.inner.lsm.resume()?;
        self.inner.vstore.delete_orphans()?;
        Ok(())
    }

    /// True while the engine is in read-only degraded mode (writes fail
    /// fast with [`Error::ReadOnlyMode`]; see [`Db::resume`]).
    pub fn is_degraded(&self) -> bool {
        self.inner.lsm.is_degraded()
    }

    /// The background error that degraded the engine, if any.
    pub fn background_error(&self) -> Option<Error> {
        self.inner.lsm.background_error()
    }

    // ---------------- introspection ----------------

    /// The engine options.
    pub fn options(&self) -> &Options {
        &self.inner.opts
    }

    /// The engine mode.
    pub fn mode(&self) -> EngineMode {
        self.inner.opts.mode
    }

    /// On-disk space breakdown.
    pub fn space(&self) -> SpaceBreakdown {
        let inner = &self.inner;
        let mut s = SpaceBreakdown::default();
        let prefix = format!("{}/", inner.opts.dir);
        if let Ok(files) = inner.opts.env.list_prefix(&prefix) {
            for p in files {
                let size = inner.opts.env.file_size(&p).unwrap_or(0);
                match parse_path(&inner.opts.dir, &p) {
                    Some((FileKind::Table, _)) => s.ksst_bytes += size,
                    Some((FileKind::ValueTable | FileKind::BlobLog, _)) => s.value_bytes += size,
                    Some((FileKind::Wal, _)) => s.wal_bytes += size,
                    Some((FileKind::Manifest | FileKind::Current, _)) => s.manifest_bytes += size,
                    None => s.other_bytes += size,
                }
            }
        }
        s
    }

    /// Aggregate statistics snapshot.
    pub fn stats(&self) -> DbStats {
        let inner = &self.inner;
        let version = inner.lsm.current_version();
        let c = inner.lsm.counters().snapshot();
        let (pinned_views, live_snapshots) = inner.lsm.read_point_counts();
        let cdc = inner.lsm.change_log().stats();
        DbStats {
            io: inner.opts.env.io_stats().snapshot(),
            gc: inner.gc_stats.snapshot(),
            space: self.space(),
            index_space_amp: version.index_space_amp(),
            exposed_garbage_bytes: inner.vstore.total_exposed_bytes(),
            value_store_bytes: inner.vstore.total_bytes(),
            value_files: inner.vstore.all_files().len() as u64,
            cache_hit_ratio: inner.cache.hit_ratio(),
            flushes: c.flushes,
            compactions: c.compactions,
            merge_drops: c.merge_drops,
            throttle_stalls: inner.throttle.activation_count(),
            oldest_read_point: inner.lsm.oldest_read_point(),
            pinned_views: pinned_views as u64,
            live_snapshots: live_snapshots as u64,
            bg_errors: c.bg_errors,
            bg_retries: c.bg_retries,
            degraded: inner.lsm.is_degraded(),
            wal_tail_corruptions: c.wal_tail_corruptions,
            group_commit_groups: c.group_commit_groups,
            group_commit_batches: c.group_commit_batches,
            group_commit_max_group: c.group_commit_max_group,
            group_commit_fsyncs_saved: c.group_commit_fsyncs_saved,
            txn_commits: inner.txn.commits(),
            txn_conflicts: inner.txn.conflicts(),
            // Single-handle stores never touch the 2PC coordinator.
            txn_2pc_commits: 0,
            txn_2pc_rollforwards: 0,
            cdc_events_published: cdc.events_published,
            cdc_subscribers: cdc.subscribers,
            cdc_retained_wal_bytes: cdc.retained_wal_bytes,
            cdc_lag_seqs: cdc.lag_seqs,
            cdc_catchup_reads: cdc.catchup_reads,
            pinned_bytes: self.pinned_bytes(),
        }
    }

    /// The underlying index LSM-tree (exposed for experiments/tests).
    pub fn lsm(&self) -> &Lsm {
        &self.inner.lsm
    }

    /// The value store (exposed for experiments/tests).
    pub fn value_store(&self) -> &Arc<ValueStore> {
        &self.inner.vstore
    }

    /// The DropCache (exposed for experiments/tests).
    pub fn drop_cache(&self) -> &Arc<DropCache> {
        &self.inner.dropcache
    }
}

/// Scan iterator resolving separated values. Carries the pinned view it
/// was opened from (when opened through the view API), so both index
/// entries and their separated values stay resolvable for the whole
/// scan.
///
/// Implements [`Iterator`] over `Result<ScanEntry>`, so the whole
/// adapter toolbox applies (`take`, `map`, `collect::<Result<Vec<_>>>`).
/// After yielding an error the iterator is *fused*: every subsequent
/// `next` returns `None` — a scan cannot resume past a failed resolve.
/// [`next_entry`](DbScanIter::next_entry) and
/// [`collect_n`](DbScanIter::collect_n) are thin wrappers over the
/// `Iterator` impl.
pub struct DbScanIter {
    inner: scavenger_lsm::ScanIter,
    db: Arc<DbInner>,
    done: bool,
}

impl DbScanIter {
    pub(crate) fn new(inner: scavenger_lsm::ScanIter, db: Arc<DbInner>) -> DbScanIter {
        DbScanIter {
            inner,
            db,
            done: false,
        }
    }

    /// Advance the underlying index iterator and resolve the entry's
    /// value through the value store.
    fn resolve_next(&mut self) -> Result<Option<ScanEntry>> {
        match self.inner.next_entry()? {
            Some(e) => {
                let value = match e.vtype {
                    ValueType::Value => e.value,
                    ValueType::ValueRef => {
                        let vref = ValueRef::decode(&e.value)?;
                        self.db.vstore.read_ref(&e.user_key, e.seq, &vref)?
                    }
                    ValueType::Deletion => return Err(Error::internal("tombstone in scan output")),
                };
                Ok(Some(ScanEntry {
                    key: e.user_key,
                    value,
                }))
            }
            None => Ok(None),
        }
    }

    /// Next entry, or `None` at the end of the range (thin wrapper over
    /// the [`Iterator`] impl).
    pub fn next_entry(&mut self) -> Result<Option<ScanEntry>> {
        self.next().transpose()
    }

    /// Collect up to `limit` entries (thin wrapper over the [`Iterator`]
    /// impl).
    pub fn collect_n(&mut self, limit: usize) -> Result<Vec<ScanEntry>> {
        self.by_ref().take(limit).collect()
    }
}

impl Iterator for DbScanIter {
    type Item = Result<ScanEntry>;

    fn next(&mut self) -> Option<Result<ScanEntry>> {
        if self.done {
            return None;
        }
        let pulled = self.resolve_next();
        scavenger_util::iter::fuse(&mut self.done, pulled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scavenger_env::MemEnv;

    fn small_opts(mode: EngineMode) -> Options {
        let mut o = Options::new(MemEnv::shared(), "db", mode);
        o.memtable_size = 8 * 1024;
        o.vsst_target_size = 32 * 1024;
        o.base_level_bytes = 64 * 1024;
        o.ksst_target_size = 16 * 1024;
        o.block_cache_bytes = 256 * 1024;
        o
    }

    fn value(i: usize, len: usize) -> Vec<u8> {
        let mut v = vec![(i % 251) as u8; len];
        v[0] = (i >> 8) as u8;
        v
    }

    #[test]
    fn roundtrip_small_and_large_all_modes() {
        for mode in EngineMode::ALL {
            let db = Db::open(small_opts(mode)).unwrap();
            // Small values stay inline; large get separated (except Rocks).
            for i in 0..50 {
                db.put(format!("small{i:03}"), value(i, 100)).unwrap();
                db.put(format!("large{i:03}"), value(i, 2048)).unwrap();
            }
            db.flush().unwrap();
            for i in 0..50 {
                assert_eq!(
                    db.get(format!("small{i:03}")).unwrap().unwrap(),
                    Bytes::from(value(i, 100)),
                    "{mode:?} small{i}"
                );
                assert_eq!(
                    db.get(format!("large{i:03}")).unwrap().unwrap(),
                    Bytes::from(value(i, 2048)),
                    "{mode:?} large{i}"
                );
            }
            assert!(db.get("absent").unwrap().is_none());
            // Separated modes must have created value files.
            let has_vfiles = !db.value_store().all_files().is_empty();
            assert_eq!(has_vfiles, mode != EngineMode::Rocks, "{mode:?}");
        }
    }

    #[test]
    fn deletes_and_overwrites_resolve_correctly() {
        for mode in EngineMode::ALL {
            let db = Db::open(small_opts(mode)).unwrap();
            db.put("k", value(1, 4096)).unwrap();
            db.put("k", value(2, 4096)).unwrap();
            db.flush().unwrap();
            assert_eq!(db.get("k").unwrap().unwrap(), Bytes::from(value(2, 4096)));
            db.delete("k").unwrap();
            assert!(db.get("k").unwrap().is_none(), "{mode:?}");
            db.flush().unwrap();
            assert!(db.get("k").unwrap().is_none(), "{mode:?} after flush");
        }
    }

    #[test]
    fn scan_resolves_separated_values_in_order() {
        for mode in [EngineMode::Scavenger, EngineMode::Terark, EngineMode::Titan] {
            let db = Db::open(small_opts(mode)).unwrap();
            for i in 0..40 {
                db.put(format!("key{i:03}"), value(i, 1500)).unwrap();
            }
            db.flush().unwrap();
            let mut it = db.scan(b"key010", Some(b"key020")).unwrap();
            let entries = it.collect_n(usize::MAX).unwrap();
            assert_eq!(entries.len(), 10, "{mode:?}");
            for (j, e) in entries.iter().enumerate() {
                assert_eq!(e.key, format!("key{:03}", j + 10).into_bytes());
                assert_eq!(e.value, Bytes::from(value(j + 10, 1500)));
            }
        }
    }

    #[test]
    fn updates_generate_garbage_and_gc_reclaims() {
        for mode in [EngineMode::Scavenger, EngineMode::Terark] {
            let mut o = small_opts(mode);
            o.auto_gc = false; // drive GC manually
            let db = Db::open(o).unwrap();
            // Load then update everything several times.
            for round in 0..4 {
                for i in 0..60 {
                    db.put(format!("key{i:03}"), value(round * 100 + i, 2048))
                        .unwrap();
                }
                db.flush().unwrap();
            }
            db.compact_all().unwrap();
            let before = db.stats();
            assert!(
                before.exposed_garbage_bytes > 0,
                "{mode:?}: compaction must expose garbage"
            );
            let jobs = db.run_gc_until_clean().unwrap();
            assert!(jobs > 0, "{mode:?}: GC should run");
            let after = db.stats();
            assert!(
                after.space.value_bytes < before.space.value_bytes,
                "{mode:?}: GC must shrink the value store ({} -> {})",
                before.space.value_bytes,
                after.space.value_bytes
            );
            // All data still readable after GC (refs resolve through
            // inheritance).
            for i in 0..60 {
                assert_eq!(
                    db.get(format!("key{i:03}")).unwrap().unwrap(),
                    Bytes::from(value(300 + i, 2048)),
                    "{mode:?} key{i} after GC"
                );
            }
        }
    }

    #[test]
    fn titan_gc_rewrites_index_entries() {
        let mut o = small_opts(EngineMode::Titan);
        o.auto_gc = false;
        let db = Db::open(o).unwrap();
        for round in 0..4 {
            for i in 0..40 {
                db.put(format!("key{i:03}"), value(round * 64 + i, 2048))
                    .unwrap();
            }
            db.flush().unwrap();
        }
        db.compact_all().unwrap();
        let jobs = db.run_gc_until_clean().unwrap();
        assert!(jobs > 0);
        let gc = db.stats().gc;
        assert!(gc.write_index_ns > 0, "Titan pays the Write-Index step");
        for i in 0..40 {
            assert_eq!(
                db.get(format!("key{i:03}")).unwrap().unwrap(),
                Bytes::from(value(192 + i, 2048))
            );
        }
    }

    #[test]
    fn blobdb_reclaims_only_exhausted_files() {
        let mut o = small_opts(EngineMode::BlobDb);
        o.auto_gc = false;
        let db = Db::open(o).unwrap();
        for round in 0..6 {
            for i in 0..40 {
                db.put(format!("key{i:03}"), value(round * 64 + i, 2048))
                    .unwrap();
            }
            db.flush().unwrap();
        }
        // Standalone GC does nothing in BlobDB mode.
        assert!(db.run_gc().unwrap().is_none());
        db.compact_all().unwrap();
        for i in 0..40 {
            assert_eq!(
                db.get(format!("key{i:03}")).unwrap().unwrap(),
                Bytes::from(value(320 + i, 2048))
            );
        }
    }

    #[test]
    fn scavenger_gc_does_lazy_read() {
        let mut o = small_opts(EngineMode::Scavenger);
        o.auto_gc = false;
        let db = Db::open(o).unwrap();
        for round in 0..4 {
            for i in 0..50 {
                db.put(format!("key{i:03}"), value(round + i, 4096))
                    .unwrap();
            }
            db.flush().unwrap();
        }
        db.compact_all().unwrap();

        let io_before = db.options().env.io_stats().snapshot();
        let outcome = db.run_gc().unwrap();
        let io_after = db.options().env.io_stats().snapshot();
        if let Some(out) = outcome {
            assert!(out.files_collected > 0);
            let d = io_after.delta(&io_before);
            let gc_read = d.class(scavenger_env::IoClass::GcRead).read_bytes;
            // Lazy read: GC read bytes must be far below the bytes of the
            // collected files (which are mostly garbage values we skip).
            assert!(gc_read > 0);
            assert!(
                gc_read < out.bytes_reclaimed + out.records_rewritten * 4096,
                "gc_read {gc_read} should not re-read entire files"
            );
        }
    }

    #[test]
    fn space_limit_throttles_and_reclaims() {
        let mut o = small_opts(EngineMode::Scavenger);
        o.auto_gc = false; // force the throttle to do the reclamation
        o.space_limit = Some(600 * 1024); // ~600 KiB quota
        let db = Db::open(o).unwrap();
        // Write ~1.5 MiB of updates over a small key set: garbage galore.
        for round in 0..16 {
            for i in 0..48 {
                db.put(format!("key{i:02}"), value(round + i, 2048))
                    .unwrap();
            }
        }
        db.flush().unwrap();
        let stats = db.stats();
        assert!(stats.throttle_stalls > 0, "throttle must have activated");
        // All data remains correct under throttling.
        for i in 0..48 {
            assert_eq!(
                db.get(format!("key{i:02}")).unwrap().unwrap(),
                Bytes::from(value(15 + i, 2048))
            );
        }
        // Space should be near the quota (allow transient overshoot of one
        // memtable + one vSST).
        let total = db.space().total();
        assert!(
            total < (600 + 512) * 1024,
            "space {total} should be pulled back toward the 600 KiB quota"
        );
    }

    #[test]
    fn stats_report_space_breakdown() {
        let db = Db::open(small_opts(EngineMode::Scavenger)).unwrap();
        for i in 0..80 {
            db.put(format!("key{i:03}"), value(i, 3000)).unwrap();
        }
        db.flush().unwrap();
        let s = db.stats();
        assert!(s.space.ksst_bytes > 0, "index files exist");
        assert!(s.space.value_bytes > 0, "value files exist");
        assert!(s.space.manifest_bytes > 0);
        assert!(s.space.total() >= s.space.ksst_bytes + s.space.value_bytes);
        assert!(s.index_space_amp >= 1.0);
        assert!(s.value_files > 0);
    }

    #[test]
    fn recovery_restores_separated_values() {
        let env = MemEnv::shared();
        for mode in [EngineMode::Scavenger, EngineMode::Terark, EngineMode::Titan] {
            let dir = format!("db-{mode:?}");
            {
                let mut o = small_opts(mode);
                o.env = env.clone();
                o.dir = dir.clone();
                let db = Db::open(o).unwrap();
                for i in 0..60 {
                    db.put(format!("key{i:03}"), value(i, 2048)).unwrap();
                }
                db.flush().unwrap();
                // A few unflushed writes live only in the WAL.
                for i in 0..10 {
                    db.put(format!("fresh{i:02}"), value(i, 2048)).unwrap();
                }
            }
            {
                let mut o = small_opts(mode);
                o.env = env.clone();
                o.dir = dir.clone();
                let db = Db::open(o).unwrap();
                for i in 0..60 {
                    assert_eq!(
                        db.get(format!("key{i:03}")).unwrap().unwrap(),
                        Bytes::from(value(i, 2048)),
                        "{mode:?} key{i}"
                    );
                }
                for i in 0..10 {
                    assert_eq!(
                        db.get(format!("fresh{i:02}")).unwrap().unwrap(),
                        Bytes::from(value(i, 2048)),
                        "{mode:?} fresh{i}"
                    );
                }
            }
        }
    }

    #[test]
    fn recovery_after_gc_preserves_inheritance() {
        let env = MemEnv::shared();
        {
            let mut o = small_opts(EngineMode::Scavenger);
            o.env = env.clone();
            o.auto_gc = false;
            let db = Db::open(o).unwrap();
            for round in 0..4 {
                for i in 0..50 {
                    db.put(format!("key{i:03}"), value(round + i, 2048))
                        .unwrap();
                }
                db.flush().unwrap();
            }
            db.compact_all().unwrap();
            db.run_gc_until_clean().unwrap();
        }
        {
            let mut o = small_opts(EngineMode::Scavenger);
            o.env = env.clone();
            let db = Db::open(o).unwrap();
            for i in 0..50 {
                assert_eq!(
                    db.get(format!("key{i:03}")).unwrap().unwrap(),
                    Bytes::from(value(3 + i, 2048)),
                    "key{i} readable after GC + reopen"
                );
            }
        }
    }

    #[test]
    fn snapshot_survives_gc_in_no_writeback_modes() {
        let mut o = small_opts(EngineMode::Scavenger);
        o.auto_gc = false;
        let db = Db::open(o).unwrap();
        db.put("k", value(1, 4096)).unwrap();
        db.flush().unwrap();
        let snap = db.snapshot();
        // Overwrite enough to make the old vSST collectible.
        for round in 0..4 {
            db.put("k", value(100 + round, 4096)).unwrap();
            for i in 0..30 {
                db.put(format!("fill{i:02}"), value(i, 2048)).unwrap();
            }
            db.flush().unwrap();
        }
        db.compact_all().unwrap();
        db.run_gc_until_clean().unwrap();
        // The snapshot's version was rewritten by GC but must remain
        // reachable through inheritance.
        assert_eq!(
            db.get_with(&crate::view::ReadOptions::pinned(&snap), "k")
                .unwrap()
                .unwrap(),
            Bytes::from(value(1, 4096))
        );
        assert_eq!(db.get("k").unwrap().unwrap(), Bytes::from(value(103, 4096)));
        drop(snap);
    }

    #[test]
    fn hot_cold_separation_marks_files() {
        let mut o = small_opts(EngineMode::Scavenger);
        o.auto_gc = false;
        let db = Db::open(o).unwrap();
        // Hot keys: overwritten repeatedly; cold keys written once.
        for i in 0..20 {
            db.put(format!("cold{i:02}"), value(i, 2048)).unwrap();
        }
        for round in 0..6 {
            for i in 0..8 {
                db.put(format!("hot{i:02}"), value(round * 10 + i, 2048))
                    .unwrap();
            }
            db.flush().unwrap();
        }
        db.compact_all().unwrap();
        db.flush().unwrap();
        // After drops have been observed, hot keys should be in the cache.
        let hot_in_cache = (0..8)
            .filter(|i| db.drop_cache().contains(format!("hot{i:02}").as_bytes()))
            .count();
        assert!(hot_in_cache >= 6, "hot keys detected: {hot_in_cache}/8");
        // And subsequent flushes should produce hot-marked files.
        for round in 0..2 {
            for i in 0..8 {
                db.put(format!("hot{i:02}"), value(round * 7 + i, 2048))
                    .unwrap();
            }
        }
        db.flush().unwrap();
        let any_hot = db.value_store().all_files().iter().any(|m| m.hot);
        assert!(any_hot, "hot vSSTs should exist");
    }

    #[test]
    fn rocks_mode_never_creates_value_files() {
        let db = Db::open(small_opts(EngineMode::Rocks)).unwrap();
        for i in 0..100 {
            db.put(format!("key{i:03}"), value(i, 8192)).unwrap();
        }
        db.flush().unwrap();
        db.compact_all().unwrap();
        assert!(db.value_store().all_files().is_empty());
        assert_eq!(db.space().value_bytes, 0);
        assert!(db.run_gc().unwrap().is_none());
        for i in (0..100).step_by(7) {
            assert_eq!(
                db.get(format!("key{i:03}")).unwrap().unwrap(),
                Bytes::from(value(i, 8192))
            );
        }
    }
}
