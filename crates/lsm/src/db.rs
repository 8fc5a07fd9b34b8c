//! The index LSM-tree engine: write path, superversion-pinned read path,
//! snapshots, flush, compaction scheduling, WAL recovery, and
//! obsolete-file cleanup.
//!
//! All reads go through pinned [`LsmView`]s (see [`crate::view`]): the
//! engine installs a fresh [`SuperVersion`] at every structural mutation,
//! and a read pins one bundle + registers its sequence instead of walking
//! the live structures.

use crate::batch::{WriteBatch, WriteOptions, WriteReceipt};
use crate::compaction::{pick_compaction, run_output_job, Compaction, PickerState};
use crate::filename::{parse_path, table_path, wal_path, FileKind};
use crate::hooks::{FileNumAlloc, JobKind, PassthroughSession, ValueSession};
use crate::iter::{InternalIterator, MergingIter, TableEntryIter, VecIter};
use crate::memtable::Memtable;
use crate::options::{BackgroundMode, LsmOptions};
use crate::tcache::{open_ktable, TableCache};
use crate::version::{Version, VersionEdit, VersionSet};
use crate::view::{
    latest_version_seq, read_superversion, scan_superversion, BatchReader, LsmView, ReadPointKind,
    ReadPointRegistry, ScanIter, Snapshot, SuperVersion,
};
use crate::wal::LogWriter;
use bytes::Bytes;
use parking_lot::{Condvar, Mutex, RwLock};
use scavenger_env::IoClass;
use scavenger_table::btable::BlockCache;
use scavenger_util::ikey::{SeqNo, ValueRef, ValueType};
use scavenger_util::{Error, Result};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Result of a point lookup against the index LSM-tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LsmReadResult {
    /// No visible version.
    NotFound,
    /// Visible version is a tombstone.
    Deleted,
    /// Visible version found.
    Found {
        /// Sequence of the version.
        seq: SeqNo,
        /// `Value` (inline) or `ValueRef` (separated).
        vtype: ValueType,
        /// Payload.
        value: Bytes,
    },
}

/// A conditional put used by Titan-style GC write-back: the new reference
/// is installed only if the key still points at the expected old location.
#[derive(Debug, Clone)]
pub struct GuardedWrite {
    /// User key.
    pub key: Vec<u8>,
    /// The reference the GC read the value through.
    pub expected: ValueRef,
    /// The reference to the relocated value.
    pub replacement: ValueRef,
}

struct WriterState {
    wal: Option<LogWriter>,
    wal_number: u64,
    /// A `sync()` on the current WAL failed. fsyncgate semantics: the
    /// unsynced tail of that file can no longer be trusted to become
    /// durable, so the writer must rotate to a fresh WAL before
    /// accepting new records — never retry the fsync and report success.
    wal_poisoned: bool,
}

/// One writer's slot in the commit queue: its batch (taken by the
/// group leader), its durability request, and the result slot the
/// leader fills before waking it.
struct GroupMember {
    batch: Mutex<Option<WriteBatch>>,
    sync: bool,
    /// Change-stream transaction tag carried through from
    /// [`WriteOptions::txn_id`].
    txn_id: Option<u64>,
    result: Mutex<Option<Result<WriteReceipt>>>,
}

impl GroupMember {
    fn new(batch: WriteBatch, sync: bool, txn_id: Option<u64>) -> GroupMember {
        GroupMember {
            batch: Mutex::new(Some(batch)),
            sync,
            txn_id,
            result: Mutex::new(None),
        }
    }

    fn take_batch(&self) -> WriteBatch {
        self.batch
            .lock()
            .take()
            .expect("group member's batch taken twice")
    }

    fn fill(&self, res: Result<WriteReceipt>) {
        *self.result.lock() = Some(res);
    }

    fn take_result(&self) -> Option<Result<WriteReceipt>> {
        self.result.lock().take()
    }
}

/// The commit queue shared by all writers. The first writer to find no
/// leader active becomes the leader: it drains the queue, commits every
/// queued batch as one group (one WAL record, at most one fsync, one
/// memtable pass), fills each member's result slot, and hands
/// leadership off. Guarded by `Inner::group` with `Inner::group_cv` for
/// follower wakeup.
#[derive(Default)]
struct GroupState {
    queue: Vec<Arc<GroupMember>>,
    leader_active: bool,
}

struct ImmEntry {
    mem: Arc<Memtable>,
    wal_number: u64,
}

#[derive(Default)]
struct BgSignal {
    work_pending: bool,
    shutdown: bool,
}

scavenger_util::metric_set! {
    /// Point-in-time copy of [`LsmCounters`].
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct LsmCountersSnapshot in "lsm_" {
        /// Memtable flushes completed.
        flushes: u64 = counter sum,
        /// Compactions completed (excluding trivial moves).
        compactions: u64 = counter sum,
        /// Trivial moves applied.
        trivial_moves: u64 = counter sum,
        /// Writer stalls (threaded mode).
        stalls: u64 = counter sum,
        /// Entries dropped by merges (exposed garbage events).
        merge_drops: u64 = counter sum,
        /// Background jobs that failed permanently (after retries) and
        /// degraded the engine to read-only mode.
        bg_errors: u64 = counter sum,
        /// Transient background-job failures that were retried.
        bg_retries: u64 = counter sum,
        /// WALs whose tail was torn or corrupt at recovery (the intact
        /// prefix was replayed; the tail was dropped).
        wal_tail_corruptions: u64 = counter sum,
        /// Commit groups written (each is one WAL record + at most one
        /// fsync, regardless of how many batches rode in it).
        group_commit_groups: u64 = counter sum,
        /// Batches committed through the group-commit path. Under writer
        /// contention this exceeds `group_commit_groups` — the gap is the
        /// amortization win.
        group_commit_batches: u64 = counter sum,
        /// Largest number of batches ever committed in one group.
        group_commit_max_group: u64 = gauge max,
        /// Fsyncs avoided by riders: for every group that synced, each
        /// `sync = true` member beyond the first would have paid its own
        /// fsync on the serialized path.
        group_commit_fsyncs_saved: u64 = counter sum,
    }
    /// Engine counters.
    #[derive(Debug, Default)]
    pub atomic LsmCounters;
}

struct Inner {
    opts: LsmOptions,
    tcache: Arc<TableCache>,
    writer: Mutex<WriterState>,
    mem: RwLock<Arc<Memtable>>,
    imms: RwLock<Vec<ImmEntry>>,
    vset: Mutex<VersionSet>,
    seq: Arc<AtomicU64>,
    file_counter: Arc<AtomicU64>,
    picker: Mutex<PickerState>,
    read_points: Arc<ReadPointRegistry>,
    /// The current pinned-read bundle; replaced (never mutated) by
    /// [`Lsm::install_superversion`] after every structural change.
    sv: RwLock<Arc<SuperVersion>>,
    /// Serializes superversion rebuild+store so a slow installer cannot
    /// overwrite a newer bundle with a stale one.
    sv_install: Mutex<()>,
    /// Serializes [`Lsm::run_background_work`]: in inline mode every
    /// writer thread runs flushes/compactions on its own stack, and two
    /// threads picking the same imm to flush would double-flush it (one
    /// panics on the missing registration). Held for the whole
    /// flush-until-quiet loop.
    bg_work: Mutex<()>,
    /// The group-commit queue (see [`GroupState`]).
    group: Mutex<GroupState>,
    /// Wakes queued followers when a leader finishes a group (their
    /// result slot is filled) or hands leadership off.
    group_cv: Condvar,
    counters: LsmCounters,
    bg_signal: Mutex<BgSignal>,
    bg_cv: Condvar,
    stall_lock: Mutex<()>,
    stall_cv: Condvar,
    /// Cause of the current degraded state (kept for error messages and
    /// diagnostics; `degraded` is the gate).
    bg_error: Mutex<Option<Error>>,
    /// Read-only degraded mode: set by a permanent background failure,
    /// cleared by [`Lsm::resume`]. Writes fail fast with
    /// [`Error::ReadOnlyMode`]; reads, scans, and pinned views keep
    /// working.
    degraded: AtomicBool,
    /// Key-SST files replaced by compactions, awaiting deletion once no
    /// in-flight reader's version references them.
    pending_deletions: Mutex<Vec<u64>>,
    /// Change-data-capture hub: publication ring, retained-WAL catalog,
    /// and subscriber registry (see [`crate::changelog`]).
    cdc: Arc<crate::changelog::ChangeLog>,
    closed: AtomicBool,
}

/// Allocates file numbers from the shared counter.
struct CounterAlloc(Arc<AtomicU64>);

impl FileNumAlloc for CounterAlloc {
    fn next_file_number(&self) -> u64 {
        self.0.fetch_add(1, Ordering::SeqCst)
    }
}

/// The index LSM-tree.
pub struct Lsm {
    inner: Arc<Inner>,
    bg_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

// The GC's parallel validation mode shares `&Lsm` across scoped worker
// threads; keep the engine `Sync` or that pipeline silently loses its
// worker pool.
#[allow(dead_code)]
fn _assert_lsm_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<Lsm>();
}

impl Lsm {
    /// Open (or create) the tree, recovering manifest and WALs. Returns the
    /// engine and the value-store edit history for replay by the layer
    /// above.
    pub fn open(opts: LsmOptions) -> Result<(Lsm, Vec<crate::hooks::ValueEditBundle>)> {
        let env = opts.env.clone();
        env.create_dir_all(&opts.dir)?;
        let recovered = VersionSet::open(env.clone(), &opts.dir, opts.num_levels)?;
        let vset = recovered.vset;
        let value_replay = recovered.value_replay;
        let seq = vset.seq_counter();
        let file_counter = vset.file_counter();
        let block_cache = opts
            .block_cache
            .clone()
            .unwrap_or_else(|| Arc::new(BlockCache::with_capacity(opts.block_cache_bytes)));
        let tcache = Arc::new(TableCache::new(&opts, block_cache));

        let cdc = crate::changelog::ChangeLog::new(
            env.clone(),
            opts.dir.clone(),
            seq.clone(),
            opts.cdc_retention,
            opts.cdc_ring_bytes,
        );

        let inner = Arc::new(Inner {
            tcache,
            cdc,
            writer: Mutex::new(WriterState {
                wal: None,
                wal_number: 0,
                wal_poisoned: false,
            }),
            mem: RwLock::new(Arc::new(Memtable::new())),
            imms: RwLock::new(Vec::new()),
            read_points: ReadPointRegistry::new(seq.clone()),
            sv: RwLock::new(Arc::new(SuperVersion::empty(opts.num_levels))),
            sv_install: Mutex::new(()),
            bg_work: Mutex::new(()),
            group: Mutex::new(GroupState::default()),
            group_cv: Condvar::new(),
            seq,
            file_counter,
            picker: Mutex::new(PickerState::new(opts.num_levels)),
            counters: LsmCounters::default(),
            bg_signal: Mutex::new(BgSignal::default()),
            bg_cv: Condvar::new(),
            stall_lock: Mutex::new(()),
            stall_cv: Condvar::new(),
            bg_error: Mutex::new(None),
            degraded: AtomicBool::new(false),
            pending_deletions: Mutex::new(Vec::new()),
            closed: AtomicBool::new(false),
            vset: Mutex::new(vset),
            opts,
        });

        let db = Lsm {
            inner,
            bg_thread: Mutex::new(None),
        };
        db.install_superversion();
        db.recover_wals()?;
        db.start_fresh_wal()?;
        // start_fresh_wal logged a manifest edit (new log number), which
        // produced a fresh current version; re-sync the bundle so the
        // CoW install chain starts from an exact mirror of the live
        // structures.
        db.install_superversion();
        db.delete_obsolete_files()?;
        if db.inner.opts.background == BackgroundMode::Threaded {
            db.spawn_bg_thread();
        }
        Ok((db, value_replay))
    }

    /// The engine options.
    pub fn options(&self) -> &LsmOptions {
        &self.inner.opts
    }

    /// The change-data-capture hub: subscribe with
    /// [`ChangeLog::subscribe_from`](crate::changelog::ChangeLog) and
    /// friends; committed groups are published here in commit order.
    pub fn change_log(&self) -> Arc<crate::changelog::ChangeLog> {
        self.inner.cdc.clone()
    }

    /// Shared block cache.
    pub fn block_cache(&self) -> Arc<BlockCache> {
        self.inner.tcache.block_cache()
    }

    /// A file-number allocator backed by the engine's global counter.
    pub fn file_alloc(&self) -> Arc<dyn FileNumAlloc> {
        Arc::new(CounterAlloc(self.inner.file_counter.clone()))
    }

    /// Engine counters.
    pub fn counters(&self) -> &LsmCounters {
        &self.inner.counters
    }

    /// Last committed sequence number.
    pub fn last_sequence(&self) -> SeqNo {
        self.inner.seq.load(Ordering::SeqCst)
    }

    /// The live version (file layout).
    pub fn current_version(&self) -> Arc<Version> {
        self.inner.vset.lock().current()
    }

    // ---------------- superversion ----------------

    /// Rebuild the pinned-read bundle from the live structures and
    /// install it. This is the *full rebuild* path: it re-reads the
    /// active memtable, the immutable list, and the current version
    /// under their respective locks. Used at open/recovery (when no
    /// bundle exists yet to copy from) and as the reference
    /// implementation when [`LsmOptions::cow_superversion`] is off; every
    /// steady-state mutation goes through the copy-on-write installers
    /// below instead, which swap only the member they changed.
    fn install_superversion(&self) {
        // Rebuild under the install lock so a slower concurrent installer
        // cannot overwrite this (newer) bundle with an older one.
        let _install = self.inner.sv_install.lock();
        let sv = {
            let mem = self.inner.mem.read().clone();
            let imms: Vec<Arc<Memtable>> = self
                .inner
                .imms
                .read()
                .iter()
                .rev()
                .map(|e| e.mem.clone())
                .collect();
            let version = self.inner.vset.lock().current();
            Arc::new(SuperVersion { mem, imms, version })
        };
        *self.inner.sv.write() = sv;
    }

    // Copy-on-write installers. Each takes the install lock, clones the
    // *current* bundle's unchanged members (`Arc` clones, no structure
    // locks), swaps in the changed one, and stores the new bundle. The
    // install lock linearizes installs, so every bundle observes all
    // prior CoW updates — the mirror invariant (`sv` ≡ live structures
    // at quiescence) is preserved without ever re-reading the live
    // structures on the hot path.

    /// CoW install after a memtable rotation: `frozen` (the old active
    /// memtable) is prepended to the immutable list and `fresh` becomes
    /// the active member. The SST version is untouched — the bundle keeps
    /// whatever version is currently installed, which a concurrent
    /// version-swap installer may advance before or after this (both
    /// orders yield consistent bundles).
    fn install_sv_rotated(&self, fresh: Arc<Memtable>, frozen: Arc<Memtable>) {
        if !self.inner.opts.cow_superversion {
            return self.install_superversion();
        }
        let _install = self.inner.sv_install.lock();
        let old = self.inner.sv.read().clone();
        let mut imms = Vec::with_capacity(old.imms.len() + 1);
        imms.push(frozen);
        imms.extend(old.imms.iter().cloned());
        *self.inner.sv.write() = Arc::new(SuperVersion {
            mem: fresh,
            imms,
            version: old.version.clone(),
        });
    }

    /// CoW install after a flush commit: the flushed immutable memtable
    /// leaves the bundle and the SST version advances to the current one
    /// (which contains the new L0 file) in a single swap — readers never
    /// observe the flushed data both as a memtable and as an SST missing,
    /// nor doubled. The version is re-read from the version set under the
    /// install lock so concurrent version installs can never regress.
    fn install_sv_flushed(&self, flushed: &Arc<Memtable>) {
        if !self.inner.opts.cow_superversion {
            return self.install_superversion();
        }
        let _install = self.inner.sv_install.lock();
        let old = self.inner.sv.read().clone();
        let imms: Vec<Arc<Memtable>> = old
            .imms
            .iter()
            .filter(|m| !Arc::ptr_eq(m, flushed))
            .cloned()
            .collect();
        let version = self.inner.vset.lock().current();
        *self.inner.sv.write() = Arc::new(SuperVersion {
            mem: old.mem.clone(),
            imms,
            version,
        });
    }

    /// CoW install after a version-only change (compaction apply, trivial
    /// move, value-store edit): only the SST version member is swapped.
    /// The version is read from the version set *under the install lock*,
    /// not passed in, so two racing version installers always converge on
    /// the newest version regardless of install order.
    fn install_sv_version(&self) {
        if !self.inner.opts.cow_superversion {
            return self.install_superversion();
        }
        let _install = self.inner.sv_install.lock();
        let old = self.inner.sv.read().clone();
        let version = self.inner.vset.lock().current();
        *self.inner.sv.write() = Arc::new(SuperVersion {
            mem: old.mem.clone(),
            imms: old.imms.clone(),
            version,
        });
    }

    /// Pin the current superversion without registering a read point.
    fn superversion(&self) -> Arc<SuperVersion> {
        self.inner.sv.read().clone()
    }

    /// Take a pinned, registered read view at the latest sequence. All
    /// reads through the view are strictly consistent: the versions
    /// visible at its sequence survive concurrent flush, compaction, and
    /// GC for as long as the view lives.
    pub fn view(&self) -> LsmView {
        // Register first (capturing the sequence under the registry
        // lock), then pin the bundle: the bundle can only be newer than
        // the registration, never miss data at the registered sequence.
        let pin = self.inner.read_points.register(ReadPointKind::Pin);
        LsmView::new(self.superversion(), self.inner.tcache.clone(), pin)
    }

    fn registered_view(&self, kind: ReadPointKind) -> LsmView {
        let pin = self.inner.read_points.register(kind);
        LsmView::new(self.superversion(), self.inner.tcache.clone(), pin)
    }

    // ---------------- write path (group commit) ----------------

    /// Apply a batch atomically with a synced WAL record (default
    /// [`WriteOptions`]).
    pub fn write(&self, batch: WriteBatch) -> Result<WriteReceipt> {
        self.write_opts(&WriteOptions::default(), batch)
    }

    /// Apply a batch atomically through the group-commit queue.
    ///
    /// The writer enqueues its batch; the first writer to find no
    /// leader active becomes the leader, drains the queue, and commits
    /// every queued batch as one group: one WAL record covering all of
    /// them, a single fsync if any member asked for `sync = true`, one
    /// memtable pass, and contiguous per-batch sequence ranges.
    /// Followers sleep until the leader fills their result slot.
    ///
    /// Failure is group-scoped: a failed WAL append or fsync fails
    /// every member with the same error and poisons the WAL (the next
    /// write rotates away from it — fsyncgate semantics, never retried).
    /// Because the group is one WAL record, a crash tears it as a unit:
    /// recovery replays all of it or none of it.
    pub fn write_opts(&self, opts: &WriteOptions, batch: WriteBatch) -> Result<WriteReceipt> {
        if batch.is_empty() {
            return Ok(WriteReceipt {
                seq: self.last_sequence(),
                group_len: 0,
                synced: false,
            });
        }
        self.check_bg_error()?;
        self.maybe_stall();
        let member = Arc::new(GroupMember::new(batch, opts.sync, opts.txn_id));
        let mut st = self.inner.group.lock();
        st.queue.push(member.clone());
        loop {
            if let Some(res) = member.take_result() {
                // A leader committed this batch while we waited; that
                // leader also drives the background work.
                drop(st);
                return res;
            }
            if !st.leader_active {
                break;
            }
            self.inner.group_cv.wait(&mut st);
        }
        // Become the leader: drain the queue (our own batch included)
        // and commit it as one group.
        st.leader_active = true;
        let members: Vec<Arc<GroupMember>> = std::mem::take(&mut st.queue);
        drop(st);

        let outcome = {
            let mut ws = self.inner.writer.lock();
            let batches: Vec<WriteBatch> = members.iter().map(|m| m.take_batch()).collect();
            let syncs: Vec<bool> = members.iter().map(|m| m.sync).collect();
            let txn_ids: Vec<Option<u64>> = members.iter().map(|m| m.txn_id).collect();
            self.commit_group(&mut ws, batches, &syncs, &txn_ids)
        };
        match outcome {
            Ok(receipts) => {
                for (m, r) in members.iter().zip(receipts) {
                    m.fill(Ok(r));
                }
            }
            Err(e) => {
                // The whole group fails as a unit.
                for m in &members {
                    m.fill(Err(e.clone()));
                }
            }
        }
        {
            let mut st = self.inner.group.lock();
            st.leader_active = false;
            // Wake committed followers and let one queued straggler
            // take over as the next leader.
            self.inner.group_cv.notify_all();
        }
        let res = member
            .take_result()
            .expect("leader's own batch must be committed with its group");
        if res.is_ok() {
            // Only the leader runs background work for the group;
            // followers are already gone with their receipts.
            self.after_write()?;
        }
        res
    }

    /// Titan-style conditional write-back (paper §II-B): each entry is
    /// applied only if the key's newest version is still a reference to
    /// `expected`. Returns how many entries were applied.
    ///
    /// Guarded writes bypass the commit queue — the check must stay
    /// atomic with the apply, so the whole read-check-write runs under
    /// the writer lock as a group of one.
    pub fn write_guarded(&self, opts: &WriteOptions, writes: &[GuardedWrite]) -> Result<usize> {
        self.check_bg_error()?;
        self.maybe_stall();
        let applied;
        {
            let mut ws = self.inner.writer.lock();
            let mut batch = WriteBatch::new();
            for w in writes {
                // The writer lock is held: `get` sees the stable latest
                // version, and nothing can overwrite between check and
                // apply.
                if let LsmReadResult::Found {
                    vtype: ValueType::ValueRef,
                    value,
                    ..
                } = self.get(&w.key)?
                {
                    if let Ok(cur) = ValueRef::decode(&value) {
                        if cur.file == w.expected.file && cur.offset == w.expected.offset {
                            batch.put_ref(&w.key, w.replacement);
                        }
                    }
                }
            }
            applied = batch.count();
            if applied > 0 {
                self.commit_group(&mut ws, vec![batch], &[opts.sync], &[opts.txn_id])?;
            }
        }
        if applied > 0 {
            self.after_write()?;
        }
        Ok(applied)
    }

    /// Sequence of the newest version of `key` — **including
    /// tombstones** (unlike [`get`](Lsm::get), which folds a tombstone
    /// into `Deleted` without its sequence). `None` if no version of the
    /// key exists. This is the read-set validation primitive for
    /// optimistic transactions: a read of `key` at sequence `s` is still
    /// valid iff `latest_seq(key) <= s`.
    pub fn latest_seq(&self, key: &[u8]) -> Result<Option<SeqNo>> {
        let _pin = self.inner.read_points.pin_transient();
        let sv = self.superversion();
        latest_version_seq(&sv, &self.inner.tcache, key)
    }

    /// Validated commit for optimistic transactions: atomically check
    /// that every `(key, read_seq)` pair in `reads` is still current —
    /// no version of `key` (write *or* tombstone) newer than `read_seq`
    /// — and, only if all checks pass, commit `batch` through the WAL
    /// and memtable. The whole check-then-commit runs under the writer
    /// lock (a group of one, like [`write_guarded`](Lsm::write_guarded)),
    /// so no write can interleave between validation and apply: commits
    /// through this path are serializable with every other write.
    ///
    /// A stale read returns [`Error::TxnConflict`] and writes nothing.
    pub fn write_validated(
        &self,
        opts: &WriteOptions,
        batch: WriteBatch,
        reads: &[(Vec<u8>, SeqNo)],
    ) -> Result<WriteReceipt> {
        self.check_bg_error()?;
        self.maybe_stall();
        let receipt;
        {
            let mut ws = self.inner.writer.lock();
            for (key, read_seq) in reads {
                // The writer lock is held: `latest_seq` sees the stable
                // newest version, and nothing can commit between the
                // check and the apply below.
                if let Some(seq) = self.latest_seq(key)? {
                    if seq > *read_seq {
                        return Err(Error::txn_conflict(format!(
                            "key {:?} was written at sequence {seq}, after the \
                             transaction's read point {read_seq}",
                            String::from_utf8_lossy(key)
                        )));
                    }
                }
            }
            if batch.is_empty() {
                // A read-only transaction: validation is the whole
                // commit.
                return Ok(WriteReceipt {
                    seq: self.last_sequence(),
                    group_len: 0,
                    synced: false,
                });
            }
            let receipts = self.commit_group(&mut ws, vec![batch], &[opts.sync], &[opts.txn_id])?;
            receipt = receipts
                .into_iter()
                .next()
                .expect("commit_group returns one receipt per batch");
        }
        self.after_write()?;
        Ok(receipt)
    }

    /// Commit one group under the writer lock: merge the batches into a
    /// single WAL record (so a torn tail drops the group as a unit),
    /// fsync once if any member requested it, apply to the memtable in
    /// one pass, and assign each batch its contiguous sequence range.
    /// Returns one receipt per batch, in queue order.
    fn commit_group(
        &self,
        ws: &mut WriterState,
        batches: Vec<WriteBatch>,
        syncs: &[bool],
        txn_ids: &[Option<u64>],
    ) -> Result<Vec<WriteReceipt>> {
        debug_assert_eq!(batches.len(), syncs.len());
        debug_assert_eq!(batches.len(), txn_ids.len());
        if batches.is_empty() {
            return Ok(Vec::new());
        }
        let base = self.inner.seq.load(Ordering::SeqCst) + 1;
        let sync = syncs.iter().any(|s| *s);
        let group_len = batches.len() as u64;
        let mut merged = WriteBatch::new();
        let mut batch_ends = Vec::with_capacity(batches.len());
        for b in batches {
            merged.append(b);
            batch_ends.push(base + merged.count() as u64 - 1);
        }
        if self.inner.opts.wal {
            if ws.wal_poisoned {
                self.rotate_poisoned_wal(ws)?;
            }
            if let Some(wal) = ws.wal.as_mut() {
                wal.add_record(&merged.encode(base))?;
                if sync {
                    if let Err(e) = wal.sync() {
                        // fsyncgate: this WAL's unsynced tail may never
                        // reach disk even if a later fsync "succeeds".
                        // Poison the file; the next write rotates away
                        // from it instead of retrying the sync.
                        ws.wal_poisoned = true;
                        return Err(e);
                    }
                }
            }
        }
        let mem = self.inner.mem.read().clone();
        for (i, e) in merged.entries().iter().enumerate() {
            mem.insert(&e.key, base + i as u64, e.vtype, e.value.clone());
        }
        self.inner
            .seq
            .store(base + merged.count() as u64 - 1, Ordering::SeqCst);

        // Publish the committed group to the change stream — one
        // publish per group, in commit order (the writer lock is held),
        // after the sequence counter advanced so subscribers never see
        // events past the head. The merged batch is moved, not copied.
        let marks: Vec<(SeqNo, Option<u64>)> = if txn_ids.iter().any(|t| t.is_some()) {
            batch_ends
                .iter()
                .copied()
                .zip(txn_ids.iter().copied())
                .collect()
        } else {
            Vec::new()
        };
        self.inner.cdc.publish(base, merged, marks);

        let c = &self.inner.counters;
        c.group_commit_groups.fetch_add(1, Ordering::Relaxed);
        c.group_commit_batches
            .fetch_add(group_len, Ordering::Relaxed);
        c.group_commit_max_group
            .fetch_max(group_len, Ordering::Relaxed);
        if sync {
            let riders = syncs.iter().filter(|s| **s).count() as u64;
            c.group_commit_fsyncs_saved
                .fetch_add(riders - 1, Ordering::Relaxed);
        }

        if mem.approx_size() >= self.inner.opts.memtable_size {
            self.rotate_memtable(ws)?;
        }
        Ok(batch_ends
            .into_iter()
            .map(|seq| WriteReceipt {
                seq,
                group_len,
                synced: sync,
            })
            .collect())
    }

    fn after_write(&self) -> Result<()> {
        match self.inner.opts.background {
            BackgroundMode::Inline => self.run_background_with_retries(),
            BackgroundMode::Threaded => {
                let mut sig = self.inner.bg_signal.lock();
                sig.work_pending = true;
                self.inner.bg_cv.notify_all();
                Ok(())
            }
        }
    }

    fn rotate_memtable(&self, ws: &mut WriterState) -> Result<()> {
        // Register the active memtable as immutable BEFORE swapping it
        // out, so no state ever lacks the entries. Readers pin complete
        // superversions, and the fresh bundle is installed below while
        // the writer lock (`ws`) is still held — no write can land in the
        // new active memtable before readers can see it.
        let cur = self.inner.mem.read().clone();
        if cur.is_empty() {
            return Ok(());
        }
        self.inner.imms.write().push(ImmEntry {
            mem: cur.clone(),
            wal_number: ws.wal_number,
        });
        let fresh = Arc::new(Memtable::new());
        *self.inner.mem.write() = fresh.clone();
        self.install_sv_rotated(fresh, cur);
        if self.inner.opts.wal {
            self.fresh_wal_locked(ws)?;
        }
        Ok(())
    }

    /// Point the writer at a brand-new WAL file (and clear any poison).
    fn fresh_wal_locked(&self, ws: &mut WriterState) -> Result<()> {
        let closed = ws
            .wal
            .as_ref()
            .map(|w| (ws.wal_number, w.len(), ws.wal_poisoned));
        let n = self.inner.file_counter.fetch_add(1, Ordering::SeqCst);
        let f = self
            .inner
            .opts
            .env
            .new_writable(&wal_path(&self.inner.opts.dir, n), IoClass::Wal)?;
        ws.wal = Some(LogWriter::new(f));
        ws.wal_number = n;
        ws.wal_poisoned = false;
        // The old WAL becomes a retained catch-up segment (or is
        // released for deletion, per retention policy and subscribers).
        self.inner
            .cdc
            .rotate_live(closed, n, self.inner.seq.load(Ordering::SeqCst) + 1);
        Ok(())
    }

    /// Recover from a poisoned WAL (failed `sync()`): freeze the active
    /// memtable — it holds everything the old WAL covered, so a flush
    /// will persist it to SSTs — and rotate to a fresh WAL file. The
    /// poisoned handle is abandoned, never fsynced again.
    fn rotate_poisoned_wal(&self, ws: &mut WriterState) -> Result<()> {
        let cur = self.inner.mem.read().clone();
        if !cur.is_empty() {
            self.inner.imms.write().push(ImmEntry {
                mem: cur.clone(),
                wal_number: ws.wal_number,
            });
            let fresh = Arc::new(Memtable::new());
            *self.inner.mem.write() = fresh.clone();
            self.install_sv_rotated(fresh, cur);
        }
        self.fresh_wal_locked(ws)
    }

    fn maybe_stall(&self) {
        if self.inner.opts.background != BackgroundMode::Threaded {
            return;
        }
        let mut guard = self.inner.stall_lock.lock();
        let mut stalled = false;
        while self.inner.imms.read().len() > self.inner.opts.max_imm_memtables
            && !self.inner.closed.load(Ordering::SeqCst)
        {
            if !stalled {
                stalled = true;
                self.inner.counters.stalls.fetch_add(1, Ordering::Relaxed);
            }
            // Timed wait: the imm list is guarded by its own lock, so a
            // flush completing between our check and the wait could
            // otherwise be a lost wakeup.
            let _ = self
                .inner
                .stall_cv
                .wait_for(&mut guard, std::time::Duration::from_millis(20));
        }
    }

    fn check_bg_error(&self) -> Result<()> {
        if self.inner.degraded.load(Ordering::SeqCst) {
            let cause = self
                .inner
                .bg_error
                .lock()
                .as_ref()
                .map(|e| e.to_string())
                .unwrap_or_else(|| "unknown background error".into());
            return Err(Error::read_only(format!(
                "engine degraded by background failure: {cause}"
            )));
        }
        Ok(())
    }

    /// True when the engine is in read-only degraded mode (a background
    /// job failed permanently). Reads keep working; writes fail fast
    /// with [`Error::ReadOnlyMode`] until [`Lsm::resume`] clears it.
    pub fn is_degraded(&self) -> bool {
        self.inner.degraded.load(Ordering::SeqCst)
    }

    /// The background error that degraded the engine, if any.
    pub fn background_error(&self) -> Option<Error> {
        self.inner.bg_error.lock().clone()
    }

    /// Transient failures (I/O hiccups) are worth retrying; corruption
    /// and invariant violations are permanent.
    fn is_transient(e: &Error) -> bool {
        matches!(e, Error::Io(_))
    }

    /// Enter read-only degraded mode: record the cause, wake stalled
    /// writers (they fail fast instead of waiting forever).
    fn enter_degraded(&self, e: Error) {
        self.inner
            .counters
            .bg_errors
            .fetch_add(1, Ordering::Relaxed);
        *self.inner.bg_error.lock() = Some(e);
        self.inner.degraded.store(true, Ordering::SeqCst);
        self.inner.stall_cv.notify_all();
    }

    /// Run background work, retrying transient failures with bounded
    /// exponential backoff (`bg_retry_base * 2^attempt`, up to
    /// `bg_retry_limit` retries). A permanent failure — or exhausted
    /// retries — degrades the engine to read-only mode and returns the
    /// error. Used by both the inline write path and the background
    /// thread, so both execution modes share one error policy.
    fn run_background_with_retries(&self) -> Result<()> {
        let mut attempt = 0usize;
        loop {
            match self.run_background_work() {
                Ok(()) => return Ok(()),
                Err(e) => {
                    let retryable = Self::is_transient(&e)
                        && attempt < self.inner.opts.bg_retry_limit
                        && !self.inner.closed.load(Ordering::SeqCst);
                    if !retryable {
                        self.enter_degraded(e.clone());
                        return Err(e);
                    }
                    self.inner
                        .counters
                        .bg_retries
                        .fetch_add(1, Ordering::Relaxed);
                    let backoff = self
                        .inner
                        .opts
                        .bg_retry_base
                        .saturating_mul(1u32 << attempt.min(16));
                    attempt += 1;
                    std::thread::sleep(backoff);
                }
            }
        }
    }

    /// Leave read-only degraded mode after the underlying cause is
    /// fixed: verify (and if needed repair) the manifest, clear the
    /// error, and restart background work. Returns an error — and stays
    /// degraded — if the manifest cannot be verified.
    pub fn resume(&self) -> Result<()> {
        self.inner.vset.lock().verify_and_repair()?;
        *self.inner.bg_error.lock() = None;
        self.inner.degraded.store(false, Ordering::SeqCst);
        self.inner.stall_cv.notify_all();
        match self.inner.opts.background {
            BackgroundMode::Inline => self.run_background_with_retries(),
            BackgroundMode::Threaded => {
                let mut sig = self.inner.bg_signal.lock();
                sig.work_pending = true;
                self.inner.bg_cv.notify_all();
                Ok(())
            }
        }
    }

    // ---------------- read path ----------------

    /// Latest visible version of `key`, through a transient pinned view
    /// (single pass, strictly consistent).
    ///
    /// The pin is released on return; callers that must resolve a
    /// returned `ValueRef` against an external value store should use
    /// [`get_resolved`](Lsm::get_resolved) so the resolution happens
    /// while the read point is still registered.
    pub fn get(&self, key: &[u8]) -> Result<LsmReadResult> {
        self.get_resolved(key, Ok)
    }

    /// Latest visible version of `key`, with `resolve` invoked while the
    /// read's transient pin is still registered — the whole
    /// index-lookup-then-value-fetch sequence observes one point in
    /// time. This is the engine-above's single-pass `get` path.
    ///
    /// Hand-rolled instead of going through [`view`](Lsm::view): a
    /// borrowed pin plus one superversion grab keeps the hot path free
    /// of owned-guard `Arc` traffic.
    pub fn get_resolved<T>(
        &self,
        key: &[u8],
        resolve: impl FnOnce(LsmReadResult) -> Result<T>,
    ) -> Result<T> {
        // Register before pinning the bundle, like `view()`.
        let pin = self.inner.read_points.pin_transient();
        let sv = self.superversion();
        let r = read_superversion(&sv, &self.inner.tcache, key, pin.sequence(), true)?;
        resolve(r)
    }

    /// Version of `key` visible at `read_seq`, over the current pinned
    /// superversion.
    ///
    /// This does **not** register `read_seq`: strictness is only
    /// guaranteed when the caller holds a [`Snapshot`] or [`LsmView`]
    /// keeping that sequence registered — prefer reading through those
    /// handles directly.
    pub fn get_at(&self, key: &[u8], read_seq: SeqNo) -> Result<LsmReadResult> {
        read_superversion(
            &self.superversion(),
            &self.inner.tcache,
            key,
            read_seq,
            true,
        )
    }

    /// Pin the current state into a reusable [`BatchReader`] for batched,
    /// co-sequential point lookups (the GC's merge-validate path). The
    /// reader owns a registered view: concurrent writes after this call
    /// are not observed, and the versions visible at its sequence survive
    /// concurrent flush/compaction/GC — exactly the consistency a GC
    /// validation batch wants.
    pub fn batch_reader(&self) -> BatchReader {
        BatchReader::new(self.view())
    }

    /// Batched point lookups: the visible version of every key in
    /// `sorted_ukeys` (which MUST be in ascending user-key order) at each
    /// sequence in `read_points`, via one co-sequential sweep per read
    /// point. Returns one row per read point, each with one
    /// [`LsmReadResult`] per key. Equivalent to calling
    /// [`get_at`](Lsm::get_at) for every `(key, point)` pair, but
    /// amortizes version pinning, iterator construction, and block
    /// accesses across the whole batch.
    pub fn validate_batch(
        &self,
        sorted_ukeys: &[&[u8]],
        read_points: &[SeqNo],
    ) -> Result<Vec<Vec<LsmReadResult>>> {
        let reader = self.batch_reader();
        let mut out = Vec::with_capacity(read_points.len());
        for &pt in read_points {
            let mut sweep = reader.sweep(pt)?;
            let mut row = Vec::with_capacity(sorted_ukeys.len());
            for &k in sorted_ukeys {
                row.push(sweep.next_visible(k)?);
            }
            out.push(row);
        }
        Ok(out)
    }

    /// Take a read snapshot: an RAII handle owning a registered view.
    /// Dropping it unregisters the sequence.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::new(self.snapshot_view())
    }

    /// A registered view with snapshot semantics: beyond pinning its
    /// versions, it participates in snapshot-gated policy (e.g. Titan's
    /// write-back GC defers while snapshots exist). The engine above
    /// wraps this in its own snapshot handle.
    pub fn snapshot_view(&self) -> LsmView {
        self.registered_view(ReadPointKind::Snapshot)
    }

    /// Sequences of all live user snapshots (ascending). Policy gates
    /// that specifically concern long-lived snapshots (e.g. Titan's
    /// defer-GC rule) read this; version-preservation decisions must use
    /// [`read_points`](Lsm::read_points) instead, which also covers
    /// transient view pins.
    pub fn snapshot_sequences(&self) -> Vec<SeqNo> {
        self.inner.read_points.snapshot_seqs()
    }

    /// All registered read points — snapshots *and* transient view pins —
    /// ascending and deduplicated. Flush, compaction, and GC must keep
    /// the versions visible at each of these sequences.
    pub fn read_points(&self) -> Vec<SeqNo> {
        self.inner.read_points.read_point_seqs()
    }

    /// The oldest registered read point, or `None` when no reader is in
    /// flight. Deferred-deletion barriers (Titan GC, BlobDB reaping)
    /// compare against this.
    pub fn oldest_read_point(&self) -> Option<SeqNo> {
        self.inner.read_points.oldest()
    }

    /// `(transient view pins, user snapshots)` currently registered.
    /// Gauges, not counters: a non-zero value means readers are in
    /// flight *right now*, holding back version retirement (and, in
    /// Titan/BlobDB modes, deferred blob reaping).
    pub fn read_point_counts(&self) -> (usize, usize) {
        self.inner.read_points.counts()
    }

    /// Range scan of visible entries with `lo <= user_key < hi`
    /// (`hi = None` is unbounded) at the latest sequence, through a
    /// pinned, registered view (the iterator owns the pin).
    pub fn scan(&self, lo: &[u8], hi: Option<&[u8]>) -> Result<ScanIter> {
        self.view().scan(lo, hi)
    }

    /// Range scan at a specific read sequence over the current pinned
    /// superversion. Like [`get_at`](Lsm::get_at), the sequence is not
    /// registered — the caller must hold the [`Snapshot`] or [`LsmView`]
    /// protecting it.
    pub fn scan_at(&self, lo: &[u8], hi: Option<&[u8]>, read_seq: SeqNo) -> Result<ScanIter> {
        scan_superversion(
            self.superversion(),
            &self.inner.tcache,
            lo,
            hi,
            read_seq,
            true,
            None,
        )
    }

    // ---------------- background work ----------------

    /// Run flushes and compactions until no work remains (inline mode);
    /// also callable directly by tests/harnesses. Safe to call from
    /// concurrent writer threads: the whole loop runs under `bg_work`,
    /// so one thread drains the queue while latecomers wait and then
    /// see an empty (or refilled) queue.
    pub fn run_background_work(&self) -> Result<()> {
        let _guard = self.inner.bg_work.lock();
        loop {
            let flushed = self.flush_one_imm()?;
            let compacted = self.maybe_compact_once()?;
            if !flushed && !compacted {
                // All job-held version handles are gone now; retired files
                // queued during the loop can be removed.
                self.purge_unreferenced_tables();
                return Ok(());
            }
        }
    }

    /// Force-flush the active memtable and wait until the tree is quiet.
    pub fn flush(&self) -> Result<()> {
        {
            let mut ws = self.inner.writer.lock();
            self.rotate_memtable(&mut ws)?;
        }
        match self.inner.opts.background {
            BackgroundMode::Inline => self.run_background_with_retries(),
            BackgroundMode::Threaded => {
                {
                    let mut sig = self.inner.bg_signal.lock();
                    sig.work_pending = true;
                    self.inner.bg_cv.notify_all();
                }
                // Wait for the background thread to drain.
                while !self.inner.imms.read().is_empty() {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    self.check_bg_error()?;
                    // Re-signal in case the drain raced with our rotate.
                    let mut sig = self.inner.bg_signal.lock();
                    sig.work_pending = true;
                    self.inner.bg_cv.notify_all();
                }
                Ok(())
            }
        }
    }

    /// Run compactions until every level score is below 1.
    pub fn compact_until_stable(&self) -> Result<()> {
        while self.maybe_compact_once()? {}
        Ok(())
    }

    /// Force one compaction even when all scores are below 1 — used by
    /// space-aware throttling (paper §III-D) to convert hidden garbage
    /// into exposed garbage when space runs out. Picks L0 if non-empty,
    /// otherwise the upper level carrying the most (compensated) bytes.
    /// Returns false if only the bottommost level holds data.
    pub fn force_compact_once(&self) -> Result<bool> {
        let version = self.current_version();
        let targets = crate::compaction::compute_targets(&version, &self.inner.opts);
        let last = self.inner.opts.num_levels - 1;
        let pick = if version.num_files(0) > 0 {
            let inputs_lo = version.levels[0].clone();
            let output_level = targets.base_level;
            let mut lo: Option<Vec<u8>> = None;
            let mut hi: Option<Vec<u8>> = None;
            for f in &inputs_lo {
                let s = scavenger_util::ikey::extract_user_key(&f.smallest).to_vec();
                let l = scavenger_util::ikey::extract_user_key(&f.largest).to_vec();
                lo = Some(match lo {
                    Some(c) if c <= s => c,
                    _ => s,
                });
                hi = Some(match hi {
                    Some(c) if c >= l => c,
                    _ => l,
                });
            }
            let inputs_hi = version.overlapping_files(output_level, lo.as_deref(), hi.as_deref());
            let bottommost = (output_level + 1..self.inner.opts.num_levels)
                .all(|l| version.levels[l].is_empty());
            Some(Compaction {
                level: 0,
                output_level,
                inputs_lo,
                inputs_hi,
                bottommost,
                score: 0.0,
            })
        } else {
            // Densest non-bottom level.
            let source = (1..last)
                .filter(|&l| !version.levels[l].is_empty())
                .max_by_key(|&l| {
                    if self.inner.opts.compensated {
                        version.level_compensated(l)
                    } else {
                        version.level_bytes(l)
                    }
                });
            source.map(|level| {
                let victim = version.levels[level]
                    .iter()
                    .max_by_key(|f| f.compensated_size())
                    .cloned()
                    .unwrap();
                let output_level = level + 1;
                let lo = scavenger_util::ikey::extract_user_key(&victim.smallest).to_vec();
                let hi = scavenger_util::ikey::extract_user_key(&victim.largest).to_vec();
                let inputs_hi = version.overlapping_files(output_level, Some(&lo), Some(&hi));
                let bottommost = (output_level + 1..self.inner.opts.num_levels)
                    .all(|l| version.levels[l].is_empty());
                Compaction {
                    level,
                    output_level,
                    inputs_lo: vec![victim],
                    inputs_hi,
                    bottommost,
                    score: 0.0,
                }
            })
        };
        match pick {
            Some(c) if c.is_trivial_move() => {
                let f = &c.inputs_lo[0];
                let mut edit = VersionEdit::default();
                edit.deleted.push((c.level, f.file_number));
                edit.added.push((c.output_level, (**f).clone()));
                self.inner.vset.lock().log_and_apply(edit)?;
                self.install_sv_version();
                self.inner
                    .counters
                    .trivial_moves
                    .fetch_add(1, Ordering::Relaxed);
                Ok(true)
            }
            Some(c) => {
                self.run_compaction(&version, &c)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn session_for(&self, kind: JobKind) -> Result<Box<dyn ValueSession>> {
        match &self.inner.opts.value_hook {
            Some(h) => h.session(
                kind,
                Arc::new(CounterAlloc(self.inner.file_counter.clone())),
            ),
            None => Ok(Box::new(PassthroughSession)),
        }
    }

    fn flush_one_imm(&self) -> Result<bool> {
        let (imm, wal_number) = {
            let imms = self.inner.imms.read();
            match imms.first() {
                Some(e) => (e.mem.clone(), e.wal_number),
                None => return Ok(false),
            }
        };
        let version = self.current_version();
        let bottommost = version.total_files() == 0;
        let session = self.session_for(JobKind::Flush)?;
        let snapshots = self.read_points();
        let counter = self.inner.file_counter.clone();
        let alloc = move || counter.fetch_add(1, Ordering::SeqCst);
        let mut input = VecIter::new(imm.snapshot());
        let out = run_output_job(
            &self.inner.opts,
            &mut input,
            &snapshots,
            bottommost,
            &|_| false,
            session,
            &alloc,
            IoClass::Flush,
        )?;
        self.inner
            .counters
            .merge_drops
            .fetch_add(out.stats.entries_dropped, Ordering::Relaxed);

        let mut edit = VersionEdit::default();
        for f in &out.files {
            edit.added.push((0, f.clone()));
        }
        edit.value = out.bundle.clone();
        // WALs strictly below the *next* imm's WAL (or the live WAL) are
        // obsolete once this flush commits. Lock order is writer -> imms
        // everywhere, so the imms guard must drop before the writer lock
        // is taken.
        let next_imm_wal = { self.inner.imms.read().get(1).map(|e| e.wal_number) };
        let next_needed = match next_imm_wal {
            Some(n) => n,
            None => self.inner.writer.lock().wal_number,
        };
        edit.log_number = Some(next_needed);
        self.inner.vset.lock().log_and_apply(edit)?;
        if let Some(h) = &self.inner.opts.value_hook {
            h.on_committed(&out.bundle);
        }
        {
            let mut imms = self.inner.imms.write();
            let pos = imms
                .iter()
                .position(|e| Arc::ptr_eq(&e.mem, &imm))
                .expect("flushed imm still registered");
            imms.remove(pos);
        }
        // Between log_and_apply and here, stale superversions double-count
        // the flushed imm alongside its new SST — identical versions, so
        // reads stay consistent; the fresh bundle drops the duplicate.
        // (During WAL recovery the flushed imm was never installed into a
        // bundle; the filter inside is then a no-op and only the version
        // member advances.)
        self.install_sv_flushed(&imm);
        let _ = wal_number;
        self.delete_obsolete_wals()?;
        self.inner.counters.flushes.fetch_add(1, Ordering::Relaxed);
        self.inner.stall_cv.notify_all();
        Ok(true)
    }

    fn maybe_compact_once(&self) -> Result<bool> {
        let version = self.current_version();
        let pick = {
            let mut picker = self.inner.picker.lock();
            pick_compaction(&version, &self.inner.opts, &mut picker)
        };
        let Some(c) = pick else {
            self.purge_unreferenced_tables();
            return Ok(false);
        };
        if c.is_trivial_move() {
            drop(version);
            let f = &c.inputs_lo[0];
            let mut edit = VersionEdit::default();
            edit.deleted.push((c.level, f.file_number));
            edit.added.push((c.output_level, (**f).clone()));
            self.inner.vset.lock().log_and_apply(edit)?;
            self.install_sv_version();
            self.inner
                .counters
                .trivial_moves
                .fetch_add(1, Ordering::Relaxed);
            return Ok(true);
        }
        self.run_compaction(&version, &c)?;
        drop(version);
        self.purge_unreferenced_tables();
        Ok(true)
    }

    fn run_compaction(&self, version: &Arc<Version>, c: &Compaction) -> Result<()> {
        // Open compaction-class readers (bypassing the table cache so
        // foreground I/O accounting stays clean; compaction reads do not
        // pollute the block cache, like RocksDB's fill_cache=false).
        let mut children: Vec<Box<dyn InternalIterator>> = Vec::new();
        for f in c.inputs_lo.iter().chain(c.inputs_hi.iter()) {
            let t = Arc::new(open_ktable(
                &self.inner.opts.env,
                &self.inner.opts.dir,
                f.file_number,
                self.inner.opts.cache_namespace,
                None,
                IoClass::Compaction,
            )?);
            children.push(Box::new(TableEntryIter::new(t)));
        }
        let mut input = MergingIter::new(children);
        let session = self.session_for(JobKind::Compaction {
            output_level: c.output_level,
            bottommost: c.bottommost,
        })?;
        let snapshots = self.read_points();
        let counter = self.inner.file_counter.clone();
        let alloc = move || counter.fetch_add(1, Ordering::SeqCst);
        let ver = version.clone();
        let output_level = c.output_level;
        let may_exist_below = move |ukey: &[u8]| ver.key_may_exist_below(output_level, ukey);
        let out = run_output_job(
            &self.inner.opts,
            &mut input,
            &snapshots,
            c.bottommost,
            &may_exist_below,
            session,
            &alloc,
            IoClass::Compaction,
        )?;
        self.inner
            .counters
            .merge_drops
            .fetch_add(out.stats.entries_dropped, Ordering::Relaxed);

        let mut edit = VersionEdit::default();
        for f in c.inputs_lo.iter() {
            edit.deleted.push((c.level, f.file_number));
        }
        for f in c.inputs_hi.iter() {
            edit.deleted.push((c.output_level, f.file_number));
        }
        for f in &out.files {
            edit.added.push((c.output_level, f.clone()));
        }
        edit.value = out.bundle.clone();
        self.inner.vset.lock().log_and_apply(edit)?;
        self.install_sv_version();
        if let Some(h) = &self.inner.opts.value_hook {
            h.on_committed(&out.bundle);
        }
        // Queue input files for deletion; they are removed once no
        // in-flight reader's version can still see them.
        {
            let mut pending = self.inner.pending_deletions.lock();
            pending.extend(
                c.inputs_lo
                    .iter()
                    .chain(c.inputs_hi.iter())
                    .map(|f| f.file_number),
            );
        }
        self.purge_unreferenced_tables();
        self.inner
            .counters
            .compactions
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Delete queued obsolete key SSTs that no live version references.
    fn purge_unreferenced_tables(&self) {
        let referenced = self.inner.vset.lock().referenced_files();
        let mut pending = self.inner.pending_deletions.lock();
        pending.retain(|n| {
            if referenced.contains(n) {
                true
            } else {
                self.inner.tcache.evict(*n);
                let _ = self
                    .inner
                    .opts
                    .env
                    .remove_file(&table_path(&self.inner.opts.dir, *n));
                false
            }
        });
    }

    /// Log a value-store-only edit (used by the GC, which changes value
    /// files without touching the index layout).
    pub fn apply_value_edit(&self, bundle: crate::hooks::ValueEditBundle) -> Result<()> {
        let edit = VersionEdit {
            value: bundle,
            ..VersionEdit::default()
        };
        self.inner.vset.lock().log_and_apply(edit)?;
        self.install_sv_version();
        Ok(())
    }

    // ---------------- recovery & cleanup ----------------

    fn recover_wals(&self) -> Result<()> {
        let opts = &self.inner.opts;
        let min_log = self.inner.vset.lock().log_number;
        let retain = self.inner.cdc.retains_history();
        let mut wals: Vec<u64> = opts
            .env
            .list_prefix(&format!("{}/", opts.dir))?
            .iter()
            .filter_map(|p| parse_path(&opts.dir, p))
            .filter(|(k, n)| *k == FileKind::Wal && (*n >= min_log || retain))
            .map(|(_, n)| n)
            .collect();
        wals.sort_unstable();
        let mut obsolete = Vec::new();
        let mut segs: Vec<(u64, SeqNo)> = Vec::new();
        for n in &wals {
            let path = wal_path(&opts.dir, *n);
            let data = opts.env.read_file(&path, IoClass::Wal)?;
            let total = data.len();
            let mut reader = crate::wal::LogReader::new(data);
            let mut records = Vec::new();
            while let Some(r) = reader.next_record() {
                records.push(r);
            }
            if reader.hit_corruption && *n >= min_log {
                // Torn or corrupt tail: the intact prefix is replayed,
                // the tail dropped. Count it and log the truncation
                // offset so operators can tell power-loss truncation
                // from silent data loss.
                self.inner
                    .counters
                    .wal_tail_corruptions
                    .fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "scavenger: WAL {path} has a torn/corrupt tail: \
                     replayed {} records, dropped {} bytes at offset {}",
                    records.len(),
                    reader.dropped_bytes,
                    total - reader.dropped_bytes
                );
            }
            // Sequence range of the file — the retained-segment
            // catalog entry for change-stream catch-up.
            let mut first_seq = None;
            let mut last_seq = 0;
            let replay = *n >= min_log;
            let mem = Memtable::new();
            let mut max_seq = self.inner.seq.load(Ordering::SeqCst);
            for rec in &records {
                let (base, batch) = WriteBatch::decode(rec)?;
                if batch.count() > 0 {
                    first_seq.get_or_insert(base);
                    last_seq = last_seq.max(base + batch.count() as u64 - 1);
                }
                if replay {
                    for (i, e) in batch.entries().iter().enumerate() {
                        mem.insert(&e.key, base + i as u64, e.vtype, e.value.clone());
                    }
                    max_seq = max_seq.max(base + batch.count() as u64 - 1);
                }
            }
            // Retained history stays on disk as a catch-up segment so
            // resumed subscribers can replay across the restart.
            // Register it *before* replaying: the flush below runs the
            // obsolete-WAL sweep, which must already see the file
            // protected.
            match first_seq {
                Some(first) if retain => {
                    self.inner
                        .cdc
                        .recovered_segment(*n, first, last_seq + 1, total as u64);
                    segs.push((*n, first));
                }
                _ => obsolete.push(*n),
            }
            if replay {
                self.inner.seq.store(max_seq, Ordering::SeqCst);
                if !mem.is_empty() {
                    self.inner.imms.write().push(ImmEntry {
                        mem: Arc::new(mem),
                        wal_number: *n,
                    });
                    // Flush synchronously so recovery is complete when
                    // open returns.
                    self.flush_one_imm()?;
                }
            }
        }
        // Clamp each segment's exclusive end by its successor's first
        // sequence: a WAL poisoned by a failed fsync may end in an
        // intact but never-acknowledged record whose sequences were
        // reassigned to the successor — the clamp excises it from
        // served history.
        for i in 0..segs.len() {
            if let Some(&(_, next_first)) = segs.get(i + 1) {
                self.inner.cdc.clamp_segment(segs[i].0, next_first);
            }
        }
        // WALs that were neither retained nor protected are obsolete.
        for n in obsolete {
            if !self.inner.cdc.protects(n) {
                let _ = opts.env.remove_file(&wal_path(&opts.dir, n));
            }
        }
        Ok(())
    }

    fn start_fresh_wal(&self) -> Result<()> {
        if !self.inner.opts.wal {
            return Ok(());
        }
        let n = self.inner.file_counter.fetch_add(1, Ordering::SeqCst);
        let f = self
            .inner
            .opts
            .env
            .new_writable(&wal_path(&self.inner.opts.dir, n), IoClass::Wal)?;
        let mut ws = self.inner.writer.lock();
        ws.wal = Some(LogWriter::new(f));
        ws.wal_number = n;
        self.inner
            .cdc
            .rotate_live(None, n, self.inner.seq.load(Ordering::SeqCst) + 1);
        // Record in the manifest that older WALs are obsolete.
        let edit = VersionEdit {
            log_number: Some(n),
            ..VersionEdit::default()
        };
        self.inner.vset.lock().log_and_apply(edit)?;
        Ok(())
    }

    fn delete_obsolete_wals(&self) -> Result<()> {
        let opts = &self.inner.opts;
        let min_log = self.inner.vset.lock().log_number;
        for p in opts.env.list_prefix(&format!("{}/", opts.dir))? {
            if let Some((FileKind::Wal, n)) = parse_path(&opts.dir, &p) {
                // A WAL below the recovery floor may still be a
                // retained change-stream segment: the catalog pins it
                // (for a registered subscriber or within the retention
                // budget) until the change log releases it.
                if n < min_log && !self.inner.cdc.protects(n) {
                    let _ = opts.env.remove_file(&p);
                }
            }
        }
        Ok(())
    }

    /// Delete key SSTs on disk that are not referenced by the live version
    /// (left over from a crash mid-compaction).
    pub fn delete_obsolete_files(&self) -> Result<()> {
        self.purge_unreferenced_tables();
        let opts = &self.inner.opts;
        let version = self.current_version();
        let live: HashSet<u64> = version
            .levels
            .iter()
            .flatten()
            .map(|f| f.file_number)
            .collect();
        for p in opts.env.list_prefix(&format!("{}/", opts.dir))? {
            if let Some((FileKind::Table, n)) = parse_path(&opts.dir, &p) {
                if !live.contains(&n) {
                    self.inner.tcache.evict(n);
                    let _ = opts.env.remove_file(&p);
                }
            }
        }
        self.delete_obsolete_wals()
    }

    // ---------------- threaded background ----------------

    fn spawn_bg_thread(&self) {
        let inner = self.inner.clone();
        let handle = std::thread::Builder::new()
            .name("scavenger-bg".into())
            .spawn(move || {
                let db = Lsm {
                    inner,
                    bg_thread: Mutex::new(None),
                };
                loop {
                    {
                        let mut sig = db.inner.bg_signal.lock();
                        while !sig.work_pending && !sig.shutdown {
                            db.inner.bg_cv.wait(&mut sig);
                        }
                        if sig.shutdown {
                            return;
                        }
                        sig.work_pending = false;
                    }
                    if db.inner.degraded.load(Ordering::SeqCst) {
                        // Parked, not dead: `resume()` clears the flag
                        // and re-signals, and this loop picks the
                        // backlog back up.
                        continue;
                    }
                    // On permanent failure the helper has already moved
                    // the engine to degraded mode; stay alive so resume
                    // can restart work without respawning the thread.
                    let _ = db.run_background_with_retries();
                }
            })
            .expect("spawn background thread");
        *self.bg_thread.lock() = Some(handle);
    }
}

impl Drop for Lsm {
    fn drop(&mut self) {
        self.inner.closed.store(true, Ordering::SeqCst);
        {
            let mut sig = self.inner.bg_signal.lock();
            sig.shutdown = true;
            self.inner.bg_cv.notify_all();
        }
        self.inner.stall_cv.notify_all();
        if let Some(h) = self.bg_thread.lock().take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scavenger_env::{Env, MemEnv};

    fn test_opts(dir: &str) -> LsmOptions {
        let mut o = LsmOptions::new(MemEnv::shared(), dir);
        o.memtable_size = 4 * 1024;
        o.base_level_bytes = 16 * 1024;
        o.target_file_size = 8 * 1024;
        o.block_size = 1024;
        o
    }

    fn open(o: LsmOptions) -> Lsm {
        Lsm::open(o).unwrap().0
    }

    fn put(db: &Lsm, k: &str, v: &str) {
        let mut b = WriteBatch::new();
        b.put(k.as_bytes(), Bytes::copy_from_slice(v.as_bytes()));
        db.write(b).unwrap();
    }

    fn del(db: &Lsm, k: &str) {
        let mut b = WriteBatch::new();
        b.delete(k.as_bytes());
        db.write(b).unwrap();
    }

    fn get_str(db: &Lsm, k: &str) -> Option<String> {
        match db.get(k.as_bytes()).unwrap() {
            LsmReadResult::Found { value, .. } => Some(String::from_utf8(value.to_vec()).unwrap()),
            _ => None,
        }
    }

    #[test]
    fn write_receipt_reports_range_and_durability() {
        let db = open(test_opts("db"));
        let mut b = WriteBatch::new();
        b.put(b"a", Bytes::from_static(b"1"));
        b.put(b"b", Bytes::from_static(b"2"));
        b.delete(b"c");
        let r = db.write(b).unwrap();
        assert_eq!(r.seq, db.last_sequence());
        assert_eq!(r.group_len, 1, "uncontended write is its own group");
        assert!(r.synced);

        let mut b = WriteBatch::new();
        b.put(b"d", Bytes::from_static(b"4"));
        let r2 = db.write_opts(&WriteOptions::with_sync(false), b).unwrap();
        assert_eq!(r2.seq, r.seq + 1, "ranges stay contiguous");
        assert!(!r2.synced, "no sync rider in the group");

        let c = db.counters();
        assert_eq!(c.group_commit_groups.load(Ordering::Relaxed), 2);
        assert_eq!(c.group_commit_batches.load(Ordering::Relaxed), 2);
        assert_eq!(c.group_commit_max_group.load(Ordering::Relaxed), 1);
        assert_eq!(c.group_commit_fsyncs_saved.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn empty_write_receipt_is_inert() {
        let db = open(test_opts("db"));
        put(&db, "k", "v");
        let r = db.write(WriteBatch::new()).unwrap();
        assert_eq!(r.seq, db.last_sequence());
        assert_eq!(r.group_len, 0);
        assert!(!r.synced);
        assert_eq!(
            db.counters().group_commit_groups.load(Ordering::Relaxed),
            1,
            "empty batches never reach the commit queue"
        );
    }

    #[test]
    fn concurrent_writers_form_groups_with_contiguous_ranges() {
        let db = Arc::new(open(test_opts("db")));
        let threads = 8;
        let per_thread = 50;
        let receipts: Vec<(usize, usize, WriteReceipt)> = std::thread::scope(|s| {
            let mut handles = Vec::new();
            for t in 0..threads {
                let db = db.clone();
                handles.push(s.spawn(move || {
                    let mut out = Vec::new();
                    for i in 0..per_thread {
                        let mut b = WriteBatch::new();
                        b.put(
                            format!("t{t:02}k{i:03}").as_bytes(),
                            Bytes::from(vec![t as u8; 32]),
                        );
                        b.put(
                            format!("t{t:02}k{i:03}x").as_bytes(),
                            Bytes::from(vec![i as u8; 32]),
                        );
                        let opts = WriteOptions::with_sync(i % 2 == 0);
                        out.push((t, i, db.write_opts(&opts, b).unwrap()));
                    }
                    out
                }));
            }
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        // Every batch owns a contiguous 2-sequence range ending at its
        // receipt seq; across all writers the end sequences are unique
        // and the ranges tile [first, last] without overlap.
        let mut ends: Vec<SeqNo> = receipts.iter().map(|(_, _, r)| r.seq).collect();
        ends.sort_unstable();
        ends.dedup();
        assert_eq!(ends.len(), threads * per_thread, "no duplicated ranges");
        for pair in ends.windows(2) {
            assert_eq!(pair[1] - pair[0], 2, "2-entry batches tile the range");
        }
        // No lost keys: every written key resolves to its value.
        for (t, i, _) in &receipts {
            match db.get(format!("t{t:02}k{i:03}").as_bytes()).unwrap() {
                LsmReadResult::Found { value, .. } => {
                    assert_eq!(&value[..], &vec![*t as u8; 32][..]);
                }
                other => panic!("t{t} i{i}: {other:?}"),
            }
        }
        let c = db.counters();
        let batches = c.group_commit_batches.load(Ordering::Relaxed);
        assert_eq!(batches, (threads * per_thread) as u64);
        assert!(
            c.group_commit_groups.load(Ordering::Relaxed) <= batches,
            "groups can never exceed batches"
        );
    }

    #[test]
    fn put_get_delete_within_memtable() {
        let db = open(test_opts("db"));
        put(&db, "k1", "v1");
        assert_eq!(get_str(&db, "k1"), Some("v1".into()));
        del(&db, "k1");
        assert_eq!(get_str(&db, "k1"), None);
        assert_eq!(db.get(b"k1").unwrap(), LsmReadResult::Deleted);
        assert_eq!(db.get(b"nope").unwrap(), LsmReadResult::NotFound);
    }

    #[test]
    fn data_survives_flush_and_compaction() {
        let db = open(test_opts("db"));
        for i in 0..500 {
            put(&db, &format!("key{i:04}"), &format!("val{i}").repeat(10));
        }
        db.flush().unwrap();
        db.compact_until_stable().unwrap();
        for i in 0..500 {
            assert_eq!(
                get_str(&db, &format!("key{i:04}")),
                Some(format!("val{i}").repeat(10)),
                "key{i}"
            );
        }
        assert!(db.counters().flushes.load(Ordering::Relaxed) > 0);
        assert!(db.current_version().total_files() > 0);
    }

    #[test]
    fn updates_shadow_older_versions_across_levels() {
        let db = open(test_opts("db"));
        for round in 0..5 {
            for i in 0..200 {
                put(&db, &format!("key{i:03}"), &format!("r{round}-{i}"));
            }
        }
        db.flush().unwrap();
        for i in 0..200 {
            assert_eq!(get_str(&db, &format!("key{i:03}")), Some(format!("r4-{i}")));
        }
    }

    #[test]
    fn deletes_survive_flush() {
        let db = open(test_opts("db"));
        for i in 0..100 {
            put(&db, &format!("key{i:03}"), "value");
        }
        db.flush().unwrap();
        for i in 0..100 {
            if i % 2 == 0 {
                del(&db, &format!("key{i:03}"));
            }
        }
        db.flush().unwrap();
        db.compact_until_stable().unwrap();
        for i in 0..100 {
            let got = get_str(&db, &format!("key{i:03}"));
            if i % 2 == 0 {
                assert_eq!(got, None, "key{i} must stay deleted");
            } else {
                assert_eq!(got, Some("value".into()));
            }
        }
    }

    #[test]
    fn scan_merges_all_sources_in_order() {
        let db = open(test_opts("db"));
        for i in (0..100).step_by(2) {
            put(&db, &format!("key{i:03}"), &format!("flushed{i}"));
        }
        db.flush().unwrap();
        for i in (1..100).step_by(2) {
            put(&db, &format!("key{i:03}"), &format!("fresh{i}"));
        }
        let mut it = db.scan(b"key000", Some(b"key050")).unwrap();
        let mut seen = Vec::new();
        while let Some(e) = it.next_entry().unwrap() {
            seen.push(String::from_utf8(e.user_key).unwrap());
        }
        let expected: Vec<String> = (0..50).map(|i| format!("key{i:03}")).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn scan_skips_deleted() {
        let db = open(test_opts("db"));
        for i in 0..20 {
            put(&db, &format!("k{i:02}"), "v");
        }
        db.flush().unwrap();
        del(&db, "k05");
        del(&db, "k10");
        let mut it = db.scan(b"k", None).unwrap();
        let mut n = 0;
        while let Some(e) = it.next_entry().unwrap() {
            assert_ne!(e.user_key, b"k05");
            assert_ne!(e.user_key, b"k10");
            n += 1;
        }
        assert_eq!(n, 18);
    }

    #[test]
    fn snapshot_reads_see_frozen_state() {
        let db = open(test_opts("db"));
        put(&db, "k", "old");
        let snap = db.snapshot();
        put(&db, "k", "new");
        del(&db, "k");
        assert_eq!(db.get(b"k").unwrap(), LsmReadResult::Deleted);
        match db.get_at(b"k", snap.sequence()).unwrap() {
            LsmReadResult::Found { value, .. } => assert_eq!(&value[..], b"old"),
            other => panic!("{other:?}"),
        }
        // Flush + compact with the snapshot alive: old version must survive.
        db.flush().unwrap();
        db.compact_until_stable().unwrap();
        match db.get_at(b"k", snap.sequence()).unwrap() {
            LsmReadResult::Found { value, .. } => assert_eq!(&value[..], b"old"),
            other => panic!("{other:?}"),
        }
        drop(snap);
    }

    #[test]
    fn wal_recovery_restores_unflushed_writes() {
        let env = MemEnv::shared();
        {
            let mut o = LsmOptions::new(env.clone(), "db");
            o.memtable_size = 1 << 20; // never flush
            let db = open(o);
            put(&db, "durable", "yes");
            put(&db, "also", "this");
            // No flush: data only in WAL + memtable. Drop = crash.
        }
        {
            let o = LsmOptions::new(env.clone(), "db");
            let db = open(o);
            assert_eq!(get_str(&db, "durable"), Some("yes".into()));
            assert_eq!(get_str(&db, "also"), Some("this".into()));
        }
    }

    #[test]
    fn torn_wal_tail_recovers_prefix() {
        let env = MemEnv::shared();
        {
            let mut o = LsmOptions::new(env.clone(), "db");
            o.memtable_size = 1 << 20;
            let db = open(o);
            put(&db, "a", "1");
            put(&db, "b", "2");
        }
        // Tear the tail of the newest WAL.
        let wals: Vec<String> = env
            .list_prefix("db/")
            .unwrap()
            .into_iter()
            .filter(|p| p.ends_with(".log"))
            .collect();
        let last = wals.last().unwrap();
        let len = env.file_size(last).unwrap();
        env.truncate_file(last, len - 3).unwrap();
        let db = open(LsmOptions::new(env.clone(), "db"));
        // First write survives; the torn one is gone.
        assert_eq!(get_str(&db, "a"), Some("1".into()));
        assert_eq!(get_str(&db, "b"), None);
    }

    #[test]
    fn sequence_numbers_survive_reopen() {
        let env = MemEnv::shared();
        let seq1;
        {
            let db = open(LsmOptions::new(env.clone(), "db"));
            put(&db, "x", "1");
            put(&db, "x", "2");
            seq1 = db.last_sequence();
            db.flush().unwrap();
        }
        let db = open(LsmOptions::new(env.clone(), "db"));
        assert!(db.last_sequence() >= seq1);
        put(&db, "y", "3");
        assert!(db.last_sequence() > seq1);
    }

    #[test]
    fn compaction_reduces_l0_files() {
        let mut o = test_opts("db");
        o.l0_trigger = 2;
        let db = open(o);
        for round in 0..6 {
            for i in 0..100 {
                put(&db, &format!("key{i:03}"), &format!("round{round}"));
            }
            db.flush().unwrap();
        }
        let v = db.current_version();
        assert!(
            v.num_files(0) < 2,
            "L0 should be drained by compaction, has {}",
            v.num_files(0)
        );
        assert!(db.counters().compactions.load(Ordering::Relaxed) > 0);
        // Data still correct.
        for i in 0..100 {
            assert_eq!(get_str(&db, &format!("key{i:03}")), Some("round5".into()));
        }
    }

    #[test]
    fn guarded_write_applies_only_when_ref_matches() {
        let db = open(test_opts("db"));
        let old_ref = ValueRef {
            file: 7,
            size: 100,
            offset: 40,
        };
        let new_ref = ValueRef {
            file: 9,
            size: 100,
            offset: 0,
        };
        let mut b = WriteBatch::new();
        b.put_ref(b"k1", old_ref);
        b.put_ref(b"k2", old_ref);
        db.write(b).unwrap();
        // k2 gets overwritten by the user before GC write-back.
        put(&db, "k2", "user-update");
        let applied = db
            .write_guarded(
                &WriteOptions::default(),
                &[
                    GuardedWrite {
                        key: b"k1".to_vec(),
                        expected: old_ref,
                        replacement: new_ref,
                    },
                    GuardedWrite {
                        key: b"k2".to_vec(),
                        expected: old_ref,
                        replacement: new_ref,
                    },
                ],
            )
            .unwrap();
        assert_eq!(applied, 1, "only k1 still points at the old ref");
        match db.get(b"k1").unwrap() {
            LsmReadResult::Found {
                vtype: ValueType::ValueRef,
                value,
                ..
            } => {
                assert_eq!(ValueRef::decode(&value).unwrap().file, 9);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(get_str(&db, "k2"), Some("user-update".into()));
    }

    #[test]
    fn threaded_mode_round_trip() {
        let mut o = test_opts("db");
        o.background = BackgroundMode::Threaded;
        let db = open(o);
        for i in 0..2000 {
            put(&db, &format!("key{i:05}"), &format!("value-{i}"));
        }
        db.flush().unwrap();
        for i in (0..2000).step_by(97) {
            assert_eq!(
                get_str(&db, &format!("key{i:05}")),
                Some(format!("value-{i}"))
            );
        }
    }

    #[test]
    fn obsolete_files_deleted_after_compaction() {
        let mut o = test_opts("db");
        o.l0_trigger = 2;
        let env = o.env.clone();
        let db = open(o);
        for round in 0..8 {
            for i in 0..100 {
                put(&db, &format!("key{i:03}"), &format!("r{round}"));
            }
            db.flush().unwrap();
        }
        // On-disk .sst files must match the live version exactly.
        let version = db.current_version();
        let live: HashSet<u64> = version
            .levels
            .iter()
            .flatten()
            .map(|f| f.file_number)
            .collect();
        let on_disk: HashSet<u64> = env
            .list_prefix("db/")
            .unwrap()
            .iter()
            .filter_map(|p| parse_path("db", p))
            .filter(|(k, _)| *k == FileKind::Table)
            .map(|(_, n)| n)
            .collect();
        assert_eq!(live, on_disk);
    }

    #[test]
    fn empty_batch_is_noop() {
        let db = open(test_opts("db"));
        let before = db.last_sequence();
        db.write(WriteBatch::new()).unwrap();
        assert_eq!(db.last_sequence(), before);
    }

    /// Batched co-sequential lookups must agree with point `get_at` for
    /// every key at every read point, across memtable, L0, and deeper
    /// levels, including tombstones and absent keys.
    #[test]
    fn validate_batch_matches_point_gets() {
        let db = open(test_opts("db"));
        // Several generations, forcing data into multiple levels.
        for round in 0..4 {
            for i in 0..150 {
                put(&db, &format!("key{i:04}"), &format!("r{round}-{i}"));
            }
            db.flush().unwrap();
        }
        let snap_seq = db.last_sequence();
        for i in (0..150).step_by(3) {
            put(&db, &format!("key{i:04}"), "fresh");
        }
        for i in (0..150).step_by(7) {
            del(&db, &format!("key{i:04}"));
        }
        // Leave some writes unflushed so the memtable participates.
        let latest = db.last_sequence();

        let mut keys: Vec<Vec<u8>> = (0..150)
            .map(|i| format!("key{i:04}").into_bytes())
            .collect();
        keys.push(b"absent-key".to_vec());
        keys.sort();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let points = [snap_seq, latest];
        let rows = db.validate_batch(&refs, &points).unwrap();
        assert_eq!(rows.len(), 2);
        for (row, &pt) in rows.iter().zip(points.iter()) {
            assert_eq!(row.len(), refs.len());
            for (k, got) in refs.iter().zip(row.iter()) {
                let want = db.get_at(k, pt).unwrap();
                assert_eq!(*got, want, "key {:?} at {pt}", String::from_utf8_lossy(k));
            }
        }
    }

    /// A sweep pins the pre-existing state: writes after `batch_reader`
    /// are invisible to it.
    #[test]
    fn batch_reader_pins_view() {
        let db = open(test_opts("db"));
        put(&db, "k", "old");
        let seq = db.last_sequence();
        let reader = db.batch_reader();
        put(&db, "k", "new");
        let mut sweep = reader.sweep(db.last_sequence()).unwrap();
        match sweep.next_visible(b"k").unwrap() {
            LsmReadResult::Found { value, seq: s, .. } => {
                assert_eq!(&value[..], b"old");
                assert_eq!(s, seq);
            }
            other => panic!("{other:?}"),
        }
    }

    /// A view pinned before rotation + flush + compaction still reads
    /// its epoch: the superversion bundle and the registered read point
    /// together keep every visible version resolvable.
    #[test]
    fn view_survives_rotate_flush_and_compaction() {
        let db = open(test_opts("db"));
        for i in 0..100 {
            put(&db, &format!("key{i:03}"), &format!("epoch0-{i}"));
        }
        let view = db.view();
        for round in 1..4 {
            for i in 0..100 {
                put(&db, &format!("key{i:03}"), &format!("epoch{round}-{i}"));
            }
            db.flush().unwrap();
        }
        db.compact_until_stable().unwrap();
        for i in (0..100).step_by(9) {
            match view.get(format!("key{i:03}").as_bytes()).unwrap() {
                LsmReadResult::Found { value, .. } => {
                    assert_eq!(&value[..], format!("epoch0-{i}").as_bytes());
                }
                other => panic!("view lost key{i}: {other:?}"),
            }
        }
        // Scans through the view also stay in the epoch.
        let mut it = view.scan(b"key", None).unwrap();
        let mut n = 0;
        while let Some(e) = it.next_entry().unwrap() {
            assert!(e.value.starts_with(b"epoch0-"), "scan mixed epochs");
            n += 1;
        }
        assert_eq!(n, 100);
        // The latest state reads the newest epoch.
        assert_eq!(get_str(&db, "key000"), Some("epoch3-0".into()));
    }

    /// Views register transient pins; snapshots register snapshot-kind
    /// read points; both unregister on drop.
    #[test]
    fn read_point_registration_is_raii() {
        let db = open(test_opts("db"));
        put(&db, "k", "v");
        assert!(db.oldest_read_point().is_none());
        let view = db.view();
        assert_eq!(db.oldest_read_point(), Some(view.sequence()));
        assert!(db.snapshot_sequences().is_empty());
        assert_eq!(db.read_points(), vec![view.sequence()]);
        let snap = db.snapshot();
        assert_eq!(db.snapshot_sequences(), vec![snap.sequence()]);
        drop(view);
        drop(snap);
        assert!(db.oldest_read_point().is_none());
        assert!(db.read_points().is_empty());
    }

    /// The batch reader owns a registered view, so GC validation batches
    /// hold a read point for their whole lifetime.
    #[test]
    fn batch_reader_registers_read_point() {
        let db = open(test_opts("db"));
        put(&db, "k", "v");
        let reader = db.batch_reader();
        assert_eq!(db.oldest_read_point(), Some(reader.view().sequence()));
        drop(reader);
        assert!(db.oldest_read_point().is_none());
    }

    /// The snapshot handle reads directly (get/scan) without the caller
    /// threading `sequence()` through `get_at`.
    #[test]
    fn snapshot_handle_reads_directly() {
        let db = open(test_opts("db"));
        put(&db, "k", "old");
        let snap = db.snapshot();
        put(&db, "k", "new");
        del(&db, "k");
        match snap.get(b"k").unwrap() {
            LsmReadResult::Found { value, .. } => assert_eq!(&value[..], b"old"),
            other => panic!("{other:?}"),
        }
        let mut it = snap.scan(b"", None).unwrap();
        let e = it.next_entry().unwrap().unwrap();
        assert_eq!(e.user_key, b"k");
        assert_eq!(&e.value[..], b"old");
        assert!(it.next_entry().unwrap().is_none());
    }

    /// After any quiescent sequence of mutations, the installed bundle
    /// must mirror the live structures exactly (same `Arc`s) — i.e. the
    /// copy-on-write install chain converges on precisely the bundle a
    /// full rebuild would produce. Checked for both install modes.
    #[test]
    fn cow_install_mirrors_live_structures() {
        for cow in [true, false] {
            let mut o = test_opts("db");
            o.cow_superversion = cow;
            let db = open(o);
            let check = |db: &Lsm, stage: &str| {
                let sv = db.inner.sv.read().clone();
                assert!(
                    Arc::ptr_eq(&sv.mem, &db.inner.mem.read()),
                    "cow={cow} {stage}: active memtable diverged"
                );
                let imms = db.inner.imms.read();
                assert_eq!(sv.imms.len(), imms.len(), "cow={cow} {stage}: imm count");
                for (got, want) in sv.imms.iter().zip(imms.iter().rev()) {
                    assert!(
                        Arc::ptr_eq(got, &want.mem),
                        "cow={cow} {stage}: imm order diverged"
                    );
                }
                drop(imms);
                assert!(
                    Arc::ptr_eq(&sv.version, &db.inner.vset.lock().current()),
                    "cow={cow} {stage}: SST version diverged"
                );
            };
            check(&db, "fresh");
            for round in 0..5 {
                for i in 0..120 {
                    put(&db, &format!("key{i:03}"), &format!("r{round}-{i}"));
                }
                check(&db, "after writes");
                db.flush().unwrap();
                check(&db, "after flush");
            }
            db.compact_until_stable().unwrap();
            check(&db, "after compaction");
            db.force_compact_once().unwrap();
            check(&db, "after forced compaction");
        }
    }

    /// The CoW install path and the full-rebuild path must be
    /// observationally identical: same reads, same scans, same file
    /// layout, under an op mix that exercises rotation, flush,
    /// compaction, trivial moves, and long-lived views.
    #[test]
    fn cow_install_is_equivalent_to_rebuild() {
        let run = |cow: bool| {
            let mut o = test_opts(if cow { "db-cow" } else { "db-rebuild" });
            o.cow_superversion = cow;
            let db = open(o);
            let mut pinned = Vec::new();
            for round in 0..6 {
                for i in 0..150 {
                    put(&db, &format!("key{i:04}"), &format!("r{round}-{i}"));
                }
                if round % 2 == 0 {
                    for i in (0..150).step_by(13) {
                        del(&db, &format!("key{i:04}"));
                    }
                }
                pinned.push(db.view());
                db.flush().unwrap();
            }
            db.compact_until_stable().unwrap();
            // Latest reads.
            let mut latest = Vec::new();
            for i in 0..150 {
                latest.push(get_str(&db, &format!("key{i:04}")));
            }
            // Full scan.
            let mut scanned = Vec::new();
            let mut it = db.scan(b"", None).unwrap();
            while let Some(e) = it.next_entry().unwrap() {
                scanned.push((e.user_key, e.value.to_vec()));
            }
            // Epoch reads through the pinned views.
            let mut epochs = Vec::new();
            for v in &pinned {
                epochs.push(match v.get(b"key0000").unwrap() {
                    LsmReadResult::Found { value, .. } => Some(value.to_vec()),
                    _ => None,
                });
            }
            // File layout.
            let version = db.current_version();
            let layout: Vec<Vec<u64>> = version
                .levels
                .iter()
                .map(|l| l.iter().map(|f| f.file_number).collect())
                .collect();
            drop(pinned);
            (latest, scanned, epochs, layout)
        };
        assert_eq!(run(true), run(false));
    }

    /// Dense batches advance by stepping, not re-seeking every key.
    #[test]
    fn sweep_steps_instead_of_seeking_dense_batches() {
        let db = open(test_opts("db"));
        for i in 0..400 {
            put(&db, &format!("key{i:04}"), "value-payload");
        }
        db.flush().unwrap();
        db.compact_until_stable().unwrap();
        let keys: Vec<Vec<u8>> = (0..400)
            .map(|i| format!("key{i:04}").into_bytes())
            .collect();
        let reader = db.batch_reader();
        let mut sweep = reader.sweep(db.last_sequence()).unwrap();
        for k in &keys {
            match sweep.next_visible(k).unwrap() {
                LsmReadResult::Found { .. } => {}
                other => panic!("{other:?}"),
            }
        }
        let stats = sweep.stats();
        assert!(
            stats.seeks < 40,
            "dense sweep should mostly step (seeks {}, steps {})",
            stats.seeks,
            stats.steps
        );
    }
}
