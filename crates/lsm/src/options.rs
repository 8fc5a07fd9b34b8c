//! Configuration for the index LSM-tree.

use crate::hooks::ValueHook;
use scavenger_env::EnvRef;
use scavenger_table::btable::BlockCache;
use std::sync::Arc;

/// Format used for key SSTs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KTableFormat {
    /// RocksDB-style BlockBasedTable (baselines).
    BTable,
    /// Scavenger's IndexDecoupledTable (paper §III-B2).
    DTable,
}

/// Whether background work runs inline on the writer thread or on
/// background threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackgroundMode {
    /// Flush/compaction run synchronously inside `write()` — fully
    /// deterministic; used by the experiment harness so I/O accounting is
    /// exactly reproducible.
    Inline,
    /// Flush/compaction run on background threads (with write stalls when
    /// the immutable-memtable backlog grows), like a production engine.
    Threaded,
}

/// Options for opening an [`Lsm`](crate::db::Lsm).
#[derive(Clone)]
pub struct LsmOptions {
    /// Storage environment.
    pub env: EnvRef,
    /// Directory prefix for all files.
    pub dir: String,
    /// Memtable size that triggers a flush.
    pub memtable_size: usize,
    /// Number of L0 files that triggers an L0 → base-level compaction.
    pub l0_trigger: usize,
    /// `max_bytes_for_level_base`: target size of the base level
    /// (interpreted in *compensated* units when `compensated` is set).
    pub base_level_bytes: u64,
    /// Inter-level size multiplier (paper default: 10).
    pub level_multiplier: u64,
    /// Number of levels (RocksDB default: 7).
    pub num_levels: usize,
    /// Target key-SST file size for compaction outputs.
    pub target_file_size: u64,
    /// Data block size for key SSTs.
    pub block_size: usize,
    /// Bloom bits per key.
    pub bloom_bits_per_key: usize,
    /// Key SST format.
    pub ktable_format: KTableFormat,
    /// Score compaction by compensated size (paper §III-C) instead of raw
    /// file size.
    pub compensated: bool,
    /// Shared block cache (created if `None`).
    pub block_cache: Option<Arc<BlockCache>>,
    /// Cache namespace mixed into block-cache file ids (see
    /// [`scavenger_table::cache::cache_file_id`]). Must be unique per
    /// store when `block_cache` is shared across stores whose file
    /// numbers collide; `0` for a private cache.
    pub cache_namespace: u64,
    /// Block cache capacity when `block_cache` is `None`.
    pub block_cache_bytes: usize,
    /// Write WAL records (disable only for bulk loads in tests).
    pub wal: bool,
    /// Background execution mode.
    pub background: BackgroundMode,
    /// Max immutable memtables before writes stall (Threaded mode).
    pub max_imm_memtables: usize,
    /// How many times a *transient* background-job failure (flush,
    /// compaction) is retried before the engine degrades to read-only
    /// mode. Permanent failures (e.g. corruption) degrade immediately.
    pub bg_retry_limit: usize,
    /// Base delay for the bounded exponential backoff between background
    /// retries (`base * 2^attempt`).
    pub bg_retry_base: std::time::Duration,
    /// Value-store hook invoked by flush and compaction (KV separation,
    /// drop observation, BlobDB-style relocation). `None` = vanilla LSM.
    pub value_hook: Option<Arc<dyn ValueHook>>,
    /// Install superversions copy-on-write: each structural mutation
    /// swaps only the member it changed (active memtable, immutable
    /// list, or SST version) into a new bundle cloned from the current
    /// one, instead of rebuilding the whole bundle from the live
    /// structures under their locks. Produces bit-identical bundles;
    /// `false` selects the full-rebuild reference path (kept for
    /// equivalence tests and the install-cost microbench).
    pub cow_superversion: bool,
    /// Change-data-capture WAL retention budget, in bytes. Closed WAL
    /// segments are catalogued for subscriber catch-up instead of
    /// deleted, up to this many bytes of *speculative* history (history
    /// a registered subscriber still needs is always retained and
    /// accounted as pinned bytes instead). `0` disables speculative
    /// retention: WAL files are reclaimed exactly as before unless a
    /// live subscriber pins them.
    pub cdc_retention: u64,
    /// Byte budget for the in-memory change-event publication ring.
    /// Tailing subscribers are served from the ring; a cursor that
    /// falls below the ring's floor catches up from retained WAL
    /// segments.
    pub cdc_ring_bytes: u64,
}

impl LsmOptions {
    /// Reasonable scaled-down defaults (see `scavenger_bench::Scale` for
    /// the paper→scaled values) on the given env.
    pub fn new(env: EnvRef, dir: impl Into<String>) -> Self {
        LsmOptions {
            env,
            dir: dir.into(),
            memtable_size: 256 * 1024,
            l0_trigger: 4,
            base_level_bytes: 4 * 1024 * 1024,
            level_multiplier: 10,
            num_levels: 7,
            target_file_size: 256 * 1024,
            block_size: 4096,
            bloom_bits_per_key: 10,
            ktable_format: KTableFormat::BTable,
            compensated: false,
            block_cache: None,
            cache_namespace: 0,
            block_cache_bytes: 1024 * 1024,
            wal: true,
            background: BackgroundMode::Inline,
            max_imm_memtables: 2,
            bg_retry_limit: 3,
            bg_retry_base: std::time::Duration::from_millis(10),
            value_hook: None,
            cow_superversion: true,
            cdc_retention: 0,
            cdc_ring_bytes: 1024 * 1024,
        }
    }

    /// Table-format options derived from these LSM options.
    pub fn table_options(&self) -> scavenger_table::btable::TableOptions {
        scavenger_table::btable::TableOptions {
            block_size: self.block_size,
            restart_interval: 16,
            bloom_bits_per_key: self.bloom_bits_per_key,
            cmp: scavenger_table::KeyCmp::Internal,
            index_partition_size: 2048,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scavenger_env::MemEnv;

    #[test]
    fn defaults_are_scaled_per_design_doc() {
        let opts = LsmOptions::new(MemEnv::shared(), "db");
        assert_eq!(opts.memtable_size, 256 * 1024);
        assert_eq!(opts.level_multiplier, 10);
        assert_eq!(opts.num_levels, 7);
        assert_eq!(opts.l0_trigger, 4);
        assert!(opts.wal);
        assert_eq!(opts.background, BackgroundMode::Inline);
        assert_eq!(opts.table_options().bloom_bits_per_key, 10);
    }
}
