//! The value store: value-file registry, garbage accounting, inheritance,
//! and reference resolution.
//!
//! This is where the paper's space-amplification bookkeeping lives
//! (§II-D): every value file tracks its **exposed garbage** — bytes whose
//! index entries have already been merged away by compaction. The
//! ratio-triggered GC consumes this accounting; the experiment harness
//! reads it to reproduce Figures 5 and 18.
//!
//! A reference resolves along the cheapest path that can answer it (see
//! [`ValueStore::read_ref`]): one checksummed read at the reference's
//! address when the named file is live, a keyed lookup when that is
//! refused, and the memoised inheritance forest when GC collected the
//! file. [`ValueReadStats`] counts which path answered.

pub mod inherit;
pub mod vtable;

use crate::options::VFormat;
use crate::stats::{ValueReadCounters, ValueReadStats};
use bytes::Bytes;
use inherit::InheritForest;
use parking_lot::RwLock;
use scavenger_env::{EnvRef, IoClass};
use scavenger_lsm::{NewValueFile, ValueEditBundle};
use scavenger_table::btable::BlockCache;
use scavenger_table::props::TableType;
use scavenger_util::ikey::{SeqNo, ValueRef};
use scavenger_util::{Error, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use vtable::{vfile_path, VReader};

/// Metadata for one value file, and its foreground reader: the reader is
/// opened on first use and closed with the last holder of the meta, so a
/// file that [`ValueStore::apply_bundle`] deleted is never held open past
/// the reads already in flight.
#[derive(Debug)]
pub struct VsstMeta {
    /// File number.
    pub file: u64,
    /// On-disk size.
    pub size: u64,
    /// Number of records.
    pub entries: u64,
    /// Total value bytes stored.
    pub value_bytes: u64,
    /// Hot-classified file (paper §III-B3).
    pub hot: bool,
    /// On-disk format.
    pub format: VFormat,
    /// Exposed garbage, bytes.
    pub exposed_bytes: AtomicU64,
    /// Exposed garbage, entries.
    pub exposed_entries: AtomicU64,
    reader: OnceLock<VReader>,
}

impl VsstMeta {
    /// Exposed-garbage ratio in `[0, 1]` — the GC trigger metric.
    pub fn garbage_ratio(&self) -> f64 {
        if self.value_bytes == 0 {
            return if self.entries > 0 { 1.0 } else { 0.0 };
        }
        (self.exposed_bytes.load(Ordering::Relaxed) as f64 / self.value_bytes as f64).min(1.0)
    }

    /// True once every record has been exposed as garbage (BlobDB's
    /// deletion condition: the file "exhausted its data through
    /// compaction", §II-C).
    pub fn is_exhausted(&self) -> bool {
        self.entries > 0 && self.exposed_entries.load(Ordering::Relaxed) >= self.entries
    }

    /// Estimated live value bytes remaining.
    pub fn live_bytes(&self) -> u64 {
        self.value_bytes
            .saturating_sub(self.exposed_bytes.load(Ordering::Relaxed))
    }
}

fn format_tag(format: VFormat) -> u8 {
    match format {
        VFormat::BTable => TableType::BTable as u8,
        VFormat::RTable => TableType::RTable as u8,
        VFormat::BlobLog => TableType::BlobLog as u8,
    }
}

fn tag_format(tag: u8) -> Result<VFormat> {
    match tag {
        t if t == TableType::BTable as u8 => Ok(VFormat::BTable),
        t if t == TableType::RTable as u8 => Ok(VFormat::RTable),
        t if t == TableType::BlobLog as u8 => Ok(VFormat::BlobLog),
        other => Err(Error::corruption(format!(
            "bad value-file format tag {other}"
        ))),
    }
}

/// Build the manifest record for a new value file.
pub fn new_value_file_record(
    file: u64,
    info: vtable::VFileInfo,
    hot: bool,
    format: VFormat,
) -> NewValueFile {
    NewValueFile {
        file,
        size: info.size,
        entries: info.entries,
        value_bytes: info.value_bytes,
        hot,
        format: format_tag(format),
    }
}

/// The value store.
pub struct ValueStore {
    env: EnvRef,
    dir: String,
    cache: Arc<BlockCache>,
    cache_ns: u64,
    files: RwLock<HashMap<u64, Arc<VsstMeta>>>,
    forest: RwLock<InheritForest>,
    read_stats: ValueReadCounters,
}

impl ValueStore {
    /// Create an empty value store rooted at `dir`.
    pub fn new(env: EnvRef, dir: impl Into<String>, cache: Arc<BlockCache>) -> Self {
        ValueStore {
            env,
            dir: dir.into(),
            cache,
            cache_ns: 0,
            files: RwLock::new(HashMap::new()),
            forest: RwLock::new(InheritForest::new()),
            read_stats: ValueReadCounters::default(),
        }
    }

    /// Set the cache namespace mixed into block-cache keys (see
    /// [`scavenger_table::cache::cache_file_id`]). Required when `cache`
    /// is shared with other stores whose file numbers collide (sharding).
    pub fn with_cache_namespace(mut self, cache_ns: u64) -> Self {
        self.cache_ns = cache_ns;
        self
    }

    /// Apply a committed bundle to in-memory state. Returns the `(file,
    /// format)` pairs removed, whose disk files the caller should delete.
    pub fn apply_bundle(&self, bundle: &ValueEditBundle) -> Vec<(u64, VFormat)> {
        for nf in &bundle.new_files {
            if let Ok(format) = tag_format(nf.format) {
                self.files.write().insert(
                    nf.file,
                    Arc::new(VsstMeta {
                        file: nf.file,
                        size: nf.size,
                        entries: nf.entries,
                        value_bytes: nf.value_bytes,
                        hot: nf.hot,
                        format,
                        exposed_bytes: AtomicU64::new(0),
                        exposed_entries: AtomicU64::new(0),
                        reader: OnceLock::new(),
                    }),
                );
            }
        }
        {
            let mut forest = self.forest.write();
            for (old, new) in &bundle.inherits {
                forest.add_edge(*old, *new);
            }
        }
        for (file, bytes, entries) in &bundle.garbage {
            self.add_garbage(*file, *bytes, *entries);
        }
        let mut removed = Vec::new();
        for file in &bundle.deleted_files {
            if let Some(meta) = self.files.write().remove(file) {
                removed.push((*file, meta.format));
            }
        }
        removed
    }

    /// Charge exposed garbage to `file`, resolving through the inheritance
    /// forest if the file was already collected. (Resolution at charge
    /// time may pick among several leaves; the first live one is charged —
    /// an approximation that only shifts *which* descendant is collected
    /// first, never the total.)
    pub fn add_garbage(&self, file: u64, bytes: u64, entries: u64) {
        let files = self.files.read();
        if let Some(meta) = files.get(&file) {
            meta.exposed_bytes.fetch_add(bytes, Ordering::Relaxed);
            meta.exposed_entries.fetch_add(entries, Ordering::Relaxed);
            return;
        }
        for leaf in self.resolve_leaves(file).iter() {
            if let Some(meta) = files.get(leaf) {
                meta.exposed_bytes.fetch_add(bytes, Ordering::Relaxed);
                meta.exposed_entries.fetch_add(entries, Ordering::Relaxed);
                return;
            }
        }
        // The entire lineage is gone; nothing to charge.
    }

    /// Metadata of a live file.
    pub fn meta(&self, file: u64) -> Option<Arc<VsstMeta>> {
        self.files.read().get(&file).cloned()
    }

    /// All live files, in file-number order (deterministic).
    pub fn all_files(&self) -> Vec<Arc<VsstMeta>> {
        let mut v: Vec<Arc<VsstMeta>> = self.files.read().values().cloned().collect();
        v.sort_unstable_by_key(|m| m.file);
        v
    }

    /// Live file numbers, ascending (deterministic — callers iterate
    /// these for orphan cleanup and relocation targeting).
    pub fn live_file_numbers(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.files.read().keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// GC candidates: live files with `garbage_ratio >= threshold`,
    /// hottest-garbage first (paper: "prioritizes files with higher
    /// garbage ratios"). Equal ratios break by file number so candidate
    /// selection — and therefore the whole GC job sequence — is
    /// deterministic rather than following `HashMap` iteration order.
    pub fn gc_candidates(&self, threshold: f64) -> Vec<Arc<VsstMeta>> {
        let mut v: Vec<Arc<VsstMeta>> = self
            .files
            .read()
            .values()
            .filter(|m| m.garbage_ratio() >= threshold)
            .cloned()
            .collect();
        v.sort_by(|a, b| {
            b.garbage_ratio()
                .partial_cmp(&a.garbage_ratio())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.file.cmp(&b.file))
        });
        v
    }

    /// Files whose every record is exposed garbage (BlobDB reclamation),
    /// in file-number order (deterministic).
    pub fn exhausted_files(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .files
            .read()
            .values()
            .filter(|m| m.is_exhausted())
            .map(|m| m.file)
            .collect();
        v.sort_unstable();
        v
    }

    /// Total bytes across live value files.
    pub fn total_bytes(&self) -> u64 {
        self.files.read().values().map(|m| m.size).sum()
    }

    /// Total exposed garbage bytes (the numerator of the paper's
    /// Exposed/Valid ratio, Fig. 5b / 18b).
    pub fn total_exposed_bytes(&self) -> u64 {
        self.files
            .read()
            .values()
            .map(|m| m.exposed_bytes.load(Ordering::Relaxed))
            .sum()
    }

    /// Total value bytes across live files.
    pub fn total_value_bytes(&self) -> u64 {
        self.files.read().values().map(|m| m.value_bytes).sum()
    }

    /// Current holders of whatever survived from `file`, ascending
    /// (memoised; see [`InheritForest::cached_leaves`]).
    pub fn resolve_leaves(&self, file: u64) -> Arc<[u64]> {
        self.forest.read().cached_leaves(file)
    }

    /// GC validity: does `candidate` descend from `file`?
    pub fn resolves_to(&self, file: u64, candidate: u64) -> bool {
        self.forest.read().resolves_to(file, candidate)
    }

    /// How references have resolved so far.
    pub fn read_stats(&self) -> ValueReadStats {
        self.read_stats.snapshot()
    }

    /// The foreground reader of a live file, opened on first use.
    fn reader<'m>(&self, meta: &'m VsstMeta) -> Result<&'m VReader> {
        if let Some(r) = meta.reader.get() {
            return Ok(r);
        }
        let reader = VReader::open(
            &self.env,
            &self.dir,
            meta.file,
            self.cache_ns,
            meta.format,
            Some(self.cache.clone()),
            IoClass::FgValueRead,
        )?;
        // A racing opener may have won; its reader is as good as ours.
        Ok(meta.reader.get_or_init(|| reader))
    }

    /// Open a *GC-class* reader (separate from the foreground reader so
    /// I/O is accounted as GC read).
    pub fn gc_reader(&self, file: u64) -> Result<VReader> {
        let meta = self
            .meta(file)
            .ok_or_else(|| Error::not_found(format!("value file {file}")))?;
        VReader::open(
            &self.env,
            &self.dir,
            file,
            self.cache_ns,
            meta.format,
            Some(self.cache.clone()),
            IoClass::GcRead,
        )
    }

    /// Resolve and read the value behind a reference.
    ///
    /// * Blob logs read `(offset, size)` directly.
    /// * A live RTable first reads the record at `offset`, the address its
    ///   writer returned, and takes it only if the checksum holds and the
    ///   record is exactly `(user_key, seq)` with a `size`-byte value.
    /// * Otherwise a live keyed file is searched for the exact
    ///   `(user_key, seq)` version; a corrupt record surfaces here as
    ///   [`Error::Corruption`].
    /// * A file GC collected resolves through the inheritance forest, and
    ///   each live leaf is probed (bloom-guarded) for the version.
    pub fn read_ref(&self, user_key: &[u8], seq: SeqNo, vref: &ValueRef) -> Result<Bytes> {
        // A concurrent GC can retire a file between our resolution and the
        // read; on that narrow race, re-resolve once (the inheritance
        // forest already knows the file's heirs).
        match self.read_ref_once(user_key, seq, vref) {
            Err(Error::NotFound(_)) => self.read_ref_once(user_key, seq, vref),
            other => other,
        }
    }

    fn read_ref_once(&self, user_key: &[u8], seq: SeqNo, vref: &ValueRef) -> Result<Bytes> {
        let stats = &self.read_stats;
        let count = |c: &AtomicU64| c.fetch_add(1, Ordering::Relaxed);
        let mut hint_missed = false;
        // Fast path: the file is live (no GC touched it).
        if let Some(meta) = self.meta(vref.file) {
            let reader = self.reader(&meta)?;
            let by_address = match meta.format {
                VFormat::BlobLog => Some(reader.read_at(user_key, vref.offset, vref.size)?),
                VFormat::RTable => {
                    let v = reader.read_hinted(user_key, seq, vref.offset, vref.size);
                    hint_missed = v.is_none();
                    v
                }
                VFormat::BTable => None,
            };
            if let Some(v) = by_address {
                count(&stats.reads_by_address);
                return Ok(v);
            }
            if let Some(v) = reader.get_exact(user_key, seq)? {
                count(if hint_missed {
                    &stats.hint_misses
                } else {
                    &stats.reads_keyed
                });
                return Ok(v);
            }
            // Keyed file is live but lacks the record — fall through to
            // resolution (the file may predate a merged-GC output).
        }
        for leaf in self.resolve_leaves(vref.file).iter() {
            let Some(meta) = self.meta(*leaf) else {
                continue;
            };
            let reader = self.reader(&meta)?;
            if !reader.may_contain(user_key) {
                continue;
            }
            if let Some(v) = reader.get_exact(user_key, seq)? {
                count(if hint_missed {
                    &stats.hint_misses
                } else {
                    &stats.reads_inherited
                });
                return Ok(v);
            }
        }
        Err(Error::corruption(format!(
            "dangling value reference: file {} (user key {} bytes, seq {seq})",
            vref.file,
            user_key.len()
        )))
    }

    /// Delete the disk file behind a removed value file.
    pub fn delete_file(&self, file: u64, format: VFormat) {
        let _ = self.env.remove_file(&vfile_path(&self.dir, file, format));
    }

    /// Remove on-disk value files not present in the registry (crash
    /// leftovers). Returns how many were removed.
    pub fn delete_orphans(&self) -> Result<usize> {
        use scavenger_lsm::filename::{parse_path, FileKind};
        let live: std::collections::HashSet<u64> = self.live_file_numbers().into_iter().collect();
        let mut removed = 0;
        for p in self.env.list_prefix(&format!("{}/", self.dir))? {
            if let Some((kind, n)) = parse_path(&self.dir, &p) {
                if matches!(kind, FileKind::ValueTable | FileKind::BlobLog) && !live.contains(&n) {
                    let _ = self.env.remove_file(&p);
                    removed += 1;
                }
            }
        }
        Ok(removed)
    }

    /// Environment handle.
    pub fn env(&self) -> &EnvRef {
        &self.env
    }

    /// Directory prefix.
    pub fn dir(&self) -> &str {
        &self.dir
    }

    /// Shared block cache.
    pub fn cache(&self) -> Arc<BlockCache> {
        self.cache.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::vtable::{VFileInfo, VWriter};
    use super::*;
    use parking_lot::Mutex;
    use scavenger_env::{Env, IoStats, MemEnv, RandomAccessFile, WritableFile};
    use scavenger_table::btable::TableOptions;
    use scavenger_table::KeyCmp;
    use std::sync::Weak;

    fn store() -> ValueStore {
        let env: EnvRef = MemEnv::shared();
        ValueStore::new(env, "db", Arc::new(BlockCache::with_capacity(1 << 20)))
    }

    fn nf(file: u64, entries: u64, value_bytes: u64) -> NewValueFile {
        new_value_file_record(
            file,
            VFileInfo {
                size: value_bytes + 100,
                entries,
                value_bytes,
            },
            false,
            VFormat::RTable,
        )
    }

    #[test]
    fn register_and_garbage_ratio() {
        let vs = store();
        vs.apply_bundle(&ValueEditBundle {
            new_files: vec![nf(1, 10, 1000)],
            ..Default::default()
        });
        let m = vs.meta(1).unwrap();
        assert_eq!(m.garbage_ratio(), 0.0);
        vs.add_garbage(1, 250, 2);
        assert!((m.garbage_ratio() - 0.25).abs() < 1e-9);
        assert_eq!(m.live_bytes(), 750);
        assert!(!m.is_exhausted());
        vs.add_garbage(1, 750, 8);
        assert!(m.is_exhausted());
        assert_eq!(vs.exhausted_files(), vec![1]);
    }

    #[test]
    fn candidates_sorted_by_ratio() {
        let vs = store();
        vs.apply_bundle(&ValueEditBundle {
            new_files: vec![nf(1, 10, 1000), nf(2, 10, 1000), nf(3, 10, 1000)],
            ..Default::default()
        });
        vs.add_garbage(1, 300, 3);
        vs.add_garbage(2, 800, 8);
        vs.add_garbage(3, 100, 1);
        let c = vs.gc_candidates(0.2);
        let order: Vec<u64> = c.iter().map(|m| m.file).collect();
        assert_eq!(order, vec![2, 1], "ratio-desc, file 3 below threshold");
    }

    #[test]
    fn garbage_follows_inheritance_to_leaves() {
        let vs = store();
        vs.apply_bundle(&ValueEditBundle {
            new_files: vec![nf(1, 10, 1000)],
            ..Default::default()
        });
        // GC moved file 1 into file 2.
        vs.apply_bundle(&ValueEditBundle {
            new_files: vec![nf(2, 8, 800)],
            deleted_files: vec![1],
            inherits: vec![(1, 2)],
            ..Default::default()
        });
        assert!(vs.meta(1).is_none());
        // Late-arriving garbage for dead file 1 lands on its heir.
        vs.add_garbage(1, 400, 4);
        assert!((vs.meta(2).unwrap().garbage_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn totals_track_live_files_only() {
        let vs = store();
        vs.apply_bundle(&ValueEditBundle {
            new_files: vec![nf(1, 10, 1000), nf(2, 10, 2000)],
            ..Default::default()
        });
        vs.add_garbage(1, 100, 1);
        assert_eq!(vs.total_value_bytes(), 3000);
        assert_eq!(vs.total_exposed_bytes(), 100);
        vs.apply_bundle(&ValueEditBundle {
            deleted_files: vec![1],
            ..Default::default()
        });
        assert_eq!(vs.total_value_bytes(), 2000);
        assert_eq!(vs.total_exposed_bytes(), 0);
    }

    #[test]
    fn read_ref_resolves_through_gc_moves() {
        let env: EnvRef = MemEnv::shared();
        let vs = ValueStore::new(
            env.clone(),
            "db",
            Arc::new(BlockCache::with_capacity(1 << 20)),
        );
        let topts = TableOptions {
            cmp: KeyCmp::Internal,
            ..TableOptions::default()
        };

        // Original file 5 holds k@7.
        let mut w = VWriter::create(
            &env,
            "db",
            5,
            VFormat::RTable,
            topts.clone(),
            IoClass::Flush,
        )
        .unwrap();
        let rec = w.add(b"k", 7, b"the-value").unwrap();
        let info = w.finish().unwrap();
        vs.apply_bundle(&ValueEditBundle {
            new_files: vec![new_value_file_record(5, info, false, VFormat::RTable)],
            ..Default::default()
        });
        let vref = ValueRef {
            file: 5,
            size: rec.size,
            offset: rec.offset,
        };
        assert_eq!(&vs.read_ref(b"k", 7, &vref).unwrap()[..], b"the-value");

        // GC moves contents to file 9; the stale ref still resolves.
        let mut w =
            VWriter::create(&env, "db", 9, VFormat::RTable, topts, IoClass::GcWrite).unwrap();
        w.add(b"k", 7, b"the-value").unwrap();
        let info = w.finish().unwrap();
        let removed = vs.apply_bundle(&ValueEditBundle {
            new_files: vec![new_value_file_record(9, info, false, VFormat::RTable)],
            deleted_files: vec![5],
            inherits: vec![(5, 9)],
            ..Default::default()
        });
        assert_eq!(removed, vec![(5, VFormat::RTable)]);
        for (f, fmt) in removed {
            vs.delete_file(f, fmt);
        }
        assert_eq!(&vs.read_ref(b"k", 7, &vref).unwrap()[..], b"the-value");
        // A key that never existed: dangling.
        let bad = ValueRef {
            file: 5,
            size: 3,
            offset: 0,
        };
        assert!(vs.read_ref(b"zz", 1, &bad).is_err());
    }

    /// An env that keeps a weak handle to every file opened for reading,
    /// so a test can see when the last reader of a path lets go.
    #[derive(Default)]
    struct HandleEnv {
        mem: MemEnv,
        opened: Mutex<Vec<(String, Weak<dyn RandomAccessFile>)>>,
    }

    impl HandleEnv {
        fn open_handles(&self, path: &str) -> usize {
            let opened = self.opened.lock();
            opened
                .iter()
                .filter(|(p, h)| p == path && h.strong_count() > 0)
                .count()
        }
    }

    impl Env for HandleEnv {
        fn new_writable(&self, path: &str, class: IoClass) -> Result<Box<dyn WritableFile>> {
            self.mem.new_writable(path, class)
        }
        fn open_random_access(
            &self,
            path: &str,
            class: IoClass,
        ) -> Result<Arc<dyn RandomAccessFile>> {
            let f = self.mem.open_random_access(path, class)?;
            self.opened
                .lock()
                .push((path.to_string(), Arc::downgrade(&f)));
            Ok(f)
        }
        fn read_file(&self, path: &str, class: IoClass) -> Result<Bytes> {
            self.mem.read_file(path, class)
        }
        fn remove_file(&self, path: &str) -> Result<()> {
            self.mem.remove_file(path)
        }
        fn rename(&self, from: &str, to: &str) -> Result<()> {
            self.mem.rename(from, to)
        }
        fn file_exists(&self, path: &str) -> bool {
            self.mem.file_exists(path)
        }
        fn file_size(&self, path: &str) -> Result<u64> {
            self.mem.file_size(path)
        }
        fn list_prefix(&self, prefix: &str) -> Result<Vec<String>> {
            self.mem.list_prefix(prefix)
        }
        fn create_dir_all(&self, path: &str) -> Result<()> {
            self.mem.create_dir_all(path)
        }
        fn io_stats(&self) -> Arc<IoStats> {
            self.mem.io_stats()
        }
    }

    /// Write value file `file` holding `(key, seq, value)` records and
    /// register it; returns each record's reference.
    fn add_file(
        vs: &ValueStore,
        file: u64,
        format: VFormat,
        recs: &[(&[u8], SeqNo, &[u8])],
    ) -> Vec<ValueRef> {
        let topts = TableOptions {
            cmp: KeyCmp::Internal,
            ..TableOptions::default()
        };
        let mut w = VWriter::create(vs.env(), "db", file, format, topts, IoClass::Flush).unwrap();
        let refs = recs
            .iter()
            .map(|&(k, seq, v)| {
                let rec = w.add(k, seq, v).unwrap();
                ValueRef {
                    file,
                    size: rec.size,
                    offset: rec.offset,
                }
            })
            .collect();
        let info = w.finish().unwrap();
        vs.apply_bundle(&ValueEditBundle {
            new_files: vec![new_value_file_record(file, info, false, format)],
            ..Default::default()
        });
        refs
    }

    /// GC moves file `old` into `new` (already registered) and deletes it.
    fn collect_into(vs: &ValueStore, old: u64, new: u64) {
        for (f, fmt) in vs.apply_bundle(&ValueEditBundle {
            deleted_files: vec![old],
            inherits: vec![(old, new)],
            ..Default::default()
        }) {
            vs.delete_file(f, fmt);
        }
    }

    #[test]
    fn reader_of_a_deleted_file_closes_with_its_last_meta_holder() {
        let env = Arc::new(HandleEnv::default());
        let eref: EnvRef = env.clone();
        let vs = ValueStore::new(eref, "db", Arc::new(BlockCache::with_capacity(1 << 20)));
        let path = "db/000005.vsst";
        let vref = add_file(&vs, 5, VFormat::RTable, &[(b"k", 7, b"v")])[0];
        assert_eq!(&vs.read_ref(b"k", 7, &vref).unwrap()[..], b"v");
        assert_eq!(env.open_handles(path), 1, "the read opened the reader");

        // A read in flight holds the meta it looked up, while GC moves the
        // file's contents to file 9 and deletes it.
        let held = vs.meta(5).unwrap();
        add_file(&vs, 9, VFormat::RTable, &[(b"k", 7, b"v")]);
        collect_into(&vs, 5, 9);
        assert!(!env.file_exists(path));
        // The in-flight read finishes on its reader ...
        let reader = vs.reader(&held).unwrap();
        assert_eq!(&reader.get_exact(b"k", 7).unwrap().unwrap()[..], b"v");
        assert_eq!(env.open_handles(path), 1);
        // ... and the reader and its file handle go with the last holder.
        let weak = Arc::downgrade(&held);
        drop(held);
        assert!(weak.upgrade().is_none());
        assert_eq!(env.open_handles(path), 0, "the deleted file is closed");
        // New reads of the old reference resolve through the heir.
        assert_eq!(&vs.read_ref(b"k", 7, &vref).unwrap()[..], b"v");
        assert_eq!(env.open_handles(path), 0);
    }

    #[test]
    fn read_stats_count_each_resolution_once_by_path() {
        let vs = store();
        let r = add_file(
            &vs,
            5,
            VFormat::RTable,
            &[(b"a", 1, b"va"), (b"b", 2, b"vb")],
        );
        let btable = add_file(&vs, 6, VFormat::BTable, &[(b"c", 3, b"vc")]);
        let blob = add_file(&vs, 7, VFormat::BlobLog, &[(b"d", 4, b"vd")]);
        let read = |k: &[u8], seq, vref: &ValueRef| vs.read_ref(k, seq, vref).unwrap();

        assert_eq!(&read(b"a", 1, &r[0])[..], b"va");
        assert_eq!(&read(b"d", 4, &blob[0])[..], b"vd");
        let s = vs.read_stats();
        assert_eq!((s.reads_by_address, s.total()), (2, 2), "{s:?}");

        assert_eq!(&read(b"c", 3, &btable[0])[..], b"vc");
        assert_eq!(vs.read_stats().reads_keyed, 1);

        // A hint naming another record's address is refused, and the
        // keyed lookup answers.
        let wrong = ValueRef {
            offset: r[0].offset,
            ..r[1]
        };
        assert_eq!(&read(b"b", 2, &wrong)[..], b"vb");
        assert_eq!(vs.read_stats().hint_misses, 1);

        add_file(&vs, 9, VFormat::RTable, &[(b"a", 1, b"va")]);
        collect_into(&vs, 5, 9);
        assert_eq!(&read(b"a", 1, &r[0])[..], b"va");
        let s = vs.read_stats();
        assert_eq!(s.reads_inherited, 1);
        assert_eq!(s.total(), 5, "one count per resolution: {s:?}");

        // A failed resolution counts nowhere.
        assert!(vs.read_ref(b"zz", 1, &r[1]).is_err());
        assert_eq!(vs.read_stats().total(), 5);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// After every GC-like bundle (flushes, single and merged
        /// collections, hot/cold splits, all-dead collections), the
        /// memoised leaf sets equal a forest rebuilt from scratch.
        #[test]
        fn prop_memoised_leaves_match_a_fresh_forest(
            steps in proptest::collection::vec((0u8..4, 0u8..64, 0u8..3, proptest::prelude::any::<bool>()), 1..40),
        ) {
            let vs = store();
            let mut live: Vec<u64> = vec![1, 2, 3];
            let mut next = 4u64;
            let mut edges: Vec<(u64, u64)> = Vec::new();
            vs.apply_bundle(&ValueEditBundle {
                new_files: live.iter().map(|&f| nf(f, 1, 100)).collect(),
                ..Default::default()
            });
            for (kind, pick, extra, split) in steps {
                let mut bundle = ValueEditBundle::default();
                if kind == 0 || live.is_empty() {
                    bundle.new_files.push(nf(next, 1, 100));
                    live.push(next);
                    next += 1;
                } else {
                    // Kinds 1 and 3 collect one file, kind 2 up to three.
                    let n = if kind == 2 { usize::from(extra) + 1 } else { 1 };
                    let victims: Vec<u64> = (0..n.min(live.len()))
                        .map(|i| live[(usize::from(pick) + i) % live.len()])
                        .collect();
                    live.retain(|f| !victims.contains(f));
                    // Kind 3: every record was dead, so nothing inherits.
                    let outputs = match (kind, split) {
                        (3, _) => 0,
                        (_, true) => 2,
                        _ => 1,
                    };
                    for _ in 0..outputs {
                        bundle.new_files.push(nf(next, 1, 100));
                        for &v in &victims {
                            bundle.inherits.push((v, next));
                        }
                        live.push(next);
                        next += 1;
                    }
                    bundle.deleted_files = victims;
                }
                edges.extend(&bundle.inherits);
                vs.apply_bundle(&bundle);

                let mut fresh = InheritForest::new();
                for &(old, new) in &edges {
                    fresh.add_edge(old, new);
                }
                for f in 1..next {
                    let want = fresh.leaves(f);
                    proptest::prop_assert_eq!(&vs.resolve_leaves(f)[..], want.as_slice());
                    for c in 1..next {
                        proptest::prop_assert_eq!(vs.resolves_to(f, c), want.contains(&c));
                        proptest::prop_assert_eq!(vs.resolves_to(f, c), fresh.resolves_to(f, c));
                    }
                }
            }
        }
    }

    #[test]
    fn orphan_cleanup_removes_unregistered_files() {
        let env = MemEnv::shared();
        let eref: EnvRef = env.clone();
        let vs = ValueStore::new(
            eref.clone(),
            "db",
            Arc::new(BlockCache::with_capacity(1024)),
        );
        let topts = TableOptions {
            cmp: KeyCmp::Internal,
            ..TableOptions::default()
        };
        let mut w =
            VWriter::create(&eref, "db", 3, VFormat::RTable, topts, IoClass::Flush).unwrap();
        w.add(b"k", 1, b"v").unwrap();
        w.finish().unwrap();
        assert!(eref.file_exists("db/000003.vsst"));
        assert_eq!(vs.delete_orphans().unwrap(), 1);
        assert!(!eref.file_exists("db/000003.vsst"));
    }
}
