//! Per-class I/O accounting.
//!
//! Every file handle is opened under an [`IoClass`]; all bytes and
//! operations through that handle are charged to the class. The classes
//! mirror the paper's instrumentation: foreground reads, WAL, flush,
//! compaction (read/write), and — the stars of Figure 12(c) — GC read and
//! GC write.

use scavenger_util::metrics::{join_labels, Merge, Stat};
use std::sync::atomic::Ordering;

/// What a piece of I/O was performed for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum IoClass {
    /// Write-ahead-log appends.
    Wal = 0,
    /// Memtable flush writes (kSST and vSST creation at flush time).
    Flush = 1,
    /// Index LSM-tree compaction reads and writes.
    Compaction = 2,
    /// Garbage-collection reads (vSST scans / lazy index reads / value fetch).
    GcRead = 3,
    /// Garbage-collection writes (rewriting valid values).
    GcWrite = 4,
    /// Foreground point/range reads of index SSTs.
    FgIndexRead = 5,
    /// Foreground value fetches from the value store.
    FgValueRead = 6,
    /// Manifest / CURRENT maintenance.
    Manifest = 7,
    /// Anything else.
    Other = 8,
}

/// Number of I/O classes.
pub const NUM_IO_CLASSES: usize = 9;

/// All classes, in index order.
pub const ALL_IO_CLASSES: [IoClass; NUM_IO_CLASSES] = [
    IoClass::Wal,
    IoClass::Flush,
    IoClass::Compaction,
    IoClass::GcRead,
    IoClass::GcWrite,
    IoClass::FgIndexRead,
    IoClass::FgValueRead,
    IoClass::Manifest,
    IoClass::Other,
];

impl IoClass {
    /// Short human-readable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            IoClass::Wal => "wal",
            IoClass::Flush => "flush",
            IoClass::Compaction => "compaction",
            IoClass::GcRead => "gc-read",
            IoClass::GcWrite => "gc-write",
            IoClass::FgIndexRead => "fg-index-read",
            IoClass::FgValueRead => "fg-value-read",
            IoClass::Manifest => "manifest",
            IoClass::Other => "other",
        }
    }
}

/// Thread-safe I/O counters, one set per [`IoClass`].
#[derive(Default)]
pub struct IoStats {
    classes: [ClassCounters; NUM_IO_CLASSES],
}

impl IoStats {
    /// Create zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge a read of `bytes` to `class`.
    pub fn record_read(&self, class: IoClass, bytes: u64) {
        let c = &self.classes[class as usize];
        c.read_bytes.fetch_add(bytes, Ordering::Relaxed);
        c.read_ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Charge a write of `bytes` to `class`.
    pub fn record_write(&self, class: IoClass, bytes: u64) {
        let c = &self.classes[class as usize];
        c.write_bytes.fetch_add(bytes, Ordering::Relaxed);
        c.write_ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Capture a point-in-time snapshot of all counters.
    pub fn snapshot(&self) -> IoStatsSnapshot {
        IoStatsSnapshot {
            classes: std::array::from_fn(|i| self.classes[i].snapshot()),
        }
    }
}

scavenger_util::metric_set! {
    /// Counters for one class at a point in time.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct ClassSnapshot in "io_" {
        /// Bytes read.
        read_bytes: u64 = counter sum,
        /// Read operations.
        read_ops: u64 = counter sum,
        /// Bytes written.
        write_bytes: u64 = counter sum,
        /// Write operations.
        write_ops: u64 = counter sum,
    }
    #[derive(Default)]
    atomic ClassCounters;
}

/// A point-in-time copy of [`IoStats`], supporting deltas and totals.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoStatsSnapshot {
    /// Per-class counters, indexed by `IoClass as usize`.
    pub classes: [ClassSnapshot; NUM_IO_CLASSES],
}

impl IoStatsSnapshot {
    /// Counters for one class.
    pub fn class(&self, c: IoClass) -> ClassSnapshot {
        self.classes[c as usize]
    }

    /// `self - earlier`, per class (saturating).
    pub fn delta(&self, earlier: &IoStatsSnapshot) -> IoStatsSnapshot {
        IoStatsSnapshot {
            classes: std::array::from_fn(|i| self.classes[i].delta(&earlier.classes[i])),
        }
    }

    /// Add `other`'s per-class counters into `self` — used by the
    /// sharded engine to fold per-shard metered snapshots into one
    /// set-wide view.
    pub fn merge(&mut self, other: &IoStatsSnapshot) {
        for (mine, theirs) in self.classes.iter_mut().zip(&other.classes) {
            mine.merge(theirs);
        }
    }

    /// Append the per-class I/O families: for each `(labels, snapshot)`
    /// pair, one sample per class, labelled `class` first.
    pub fn write_families<L: AsRef<str>>(out: &mut String, samples: &[(L, &IoStatsSnapshot)]) {
        let per_class: Vec<(String, &ClassSnapshot)> = samples
            .iter()
            .flat_map(|(labels, io)| {
                ALL_IO_CLASSES.into_iter().map(move |c| {
                    let class = format!("class=\"{}\"", c.label());
                    (
                        join_labels(&class, labels.as_ref()),
                        &io.classes[c as usize],
                    )
                })
            })
            .collect();
        ClassSnapshot::write_families(out, &per_class);
    }

    /// Total bytes read across all classes.
    pub fn total_read_bytes(&self) -> u64 {
        self.classes.iter().map(|c| c.read_bytes).sum()
    }

    /// Total bytes written across all classes.
    pub fn total_write_bytes(&self) -> u64 {
        self.classes.iter().map(|c| c.write_bytes).sum()
    }

    /// Total read operations across all classes.
    pub fn total_read_ops(&self) -> u64 {
        self.classes.iter().map(|c| c.read_ops).sum()
    }

    /// Total write operations across all classes.
    pub fn total_write_ops(&self) -> u64 {
        self.classes.iter().map(|c| c.write_ops).sum()
    }
}

impl Stat for IoStatsSnapshot {
    fn merge_with(&mut self, other: &IoStatsSnapshot, _rule: Merge) {
        self.merge(other)
    }

    fn since(&self, earlier: &IoStatsSnapshot) -> IoStatsSnapshot {
        self.delta(earlier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_per_class() {
        let s = IoStats::new();
        s.record_read(IoClass::GcRead, 100);
        s.record_read(IoClass::GcRead, 50);
        s.record_write(IoClass::GcWrite, 70);
        let snap = s.snapshot();
        assert_eq!(snap.class(IoClass::GcRead).read_bytes, 150);
        assert_eq!(snap.class(IoClass::GcRead).read_ops, 2);
        assert_eq!(snap.class(IoClass::GcWrite).write_bytes, 70);
        assert_eq!(snap.class(IoClass::GcWrite).write_ops, 1);
        assert_eq!(snap.class(IoClass::Flush).write_bytes, 0);
    }

    #[test]
    fn totals_sum_all_classes() {
        let s = IoStats::new();
        s.record_read(IoClass::Compaction, 10);
        s.record_read(IoClass::FgIndexRead, 5);
        s.record_write(IoClass::Wal, 7);
        let snap = s.snapshot();
        assert_eq!(snap.total_read_bytes(), 15);
        assert_eq!(snap.total_write_bytes(), 7);
        assert_eq!(snap.total_read_ops(), 2);
        assert_eq!(snap.total_write_ops(), 1);
    }

    #[test]
    fn delta_subtracts_baseline() {
        let s = IoStats::new();
        s.record_write(IoClass::Flush, 100);
        let before = s.snapshot();
        s.record_write(IoClass::Flush, 25);
        let after = s.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.class(IoClass::Flush).write_bytes, 25);
        assert_eq!(d.class(IoClass::Flush).write_ops, 1);
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let s = std::sync::Arc::new(IoStats::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s2 = s.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    s2.record_read(IoClass::FgValueRead, 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.snapshot().class(IoClass::FgValueRead).read_ops, 8000);
    }

    #[test]
    fn families_group_every_class_and_member() {
        let s = IoStats::new();
        s.record_read(IoClass::Wal, 9);
        let io = s.snapshot();
        let mut out = String::new();
        IoStatsSnapshot::write_families(&mut out, &[("", &io), ("shard=\"1\"", &io)]);
        assert!(out.contains(
            "scavenger_io_read_bytes_total{class=\"wal\"} 9\n\
             scavenger_io_read_bytes_total{class=\"flush\"} 0\n"
        ));
        assert!(out.contains("scavenger_io_read_bytes_total{class=\"wal\",shard=\"1\"} 9\n"));
        assert_eq!(out.matches("# TYPE").count(), 4);
        assert_eq!(
            out.lines().filter(|l| !l.starts_with('#')).count(),
            4 * 2 * NUM_IO_CLASSES
        );
    }

    #[test]
    fn labels_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for c in ALL_IO_CLASSES {
            assert!(seen.insert(c.label()));
        }
    }
}
