//! Engine configuration: modes, feature toggles, and tuning knobs.

use crate::throttle::Throttle;
use scavenger_env::EnvRef;
use scavenger_lsm::KTableFormat;
use scavenger_table::btable::BlockCache;
use std::sync::Arc;

/// A shared source of the space usage the §III-D throttle compares
/// against [`Options::space_limit`]. [`DbShards`](crate::DbShards)
/// installs one that sums every shard's footprint, so the limit is
/// enforced globally.
pub type SpaceUsageFn = Arc<dyn Fn() -> u64 + Send + Sync>;

/// The five engine designs the paper compares (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineMode {
    /// Vanilla leveled LSM-tree, values inline (RocksDB baseline).
    Rocks,
    /// KV separation with compaction-triggered relocation; blob files are
    /// reclaimed only once fully exhausted (BlobDB baseline, §II-C).
    BlobDb,
    /// KV separation with standalone GC that rewrites valid values and
    /// writes the new address back through the write path (Titan baseline).
    Titan,
    /// KV separation with no-writeback GC via file-number inheritance
    /// (TerarkDB baseline, §II-B).
    Terark,
    /// TerarkDB plus every contribution of the paper (§III).
    Scavenger,
}

impl EngineMode {
    /// All modes, in the paper's presentation order.
    pub const ALL: [EngineMode; 5] = [
        EngineMode::Rocks,
        EngineMode::BlobDb,
        EngineMode::Titan,
        EngineMode::Terark,
        EngineMode::Scavenger,
    ];

    /// Display name matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            EngineMode::Rocks => "RocksDB",
            EngineMode::BlobDb => "BlobDB",
            EngineMode::Titan => "Titan",
            EngineMode::Terark => "TerarkDB",
            EngineMode::Scavenger => "Scavenger",
        }
    }
}

/// On-disk format of value files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VFormat {
    /// Sorted value SST with a sparse index (TerarkDB's vSST).
    BTable,
    /// RecordBasedTable with a dense partitioned index (paper §III-B1).
    RTable,
    /// Append-ordered blob log, address-based (BlobDB/Titan).
    BlobLog,
}

/// Garbage-collection scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcScheme {
    /// No standalone GC; values relocate during index compaction and a
    /// file dies only when fully exhausted (BlobDB).
    CompactionTriggered,
    /// Standalone GC; valid values are rewritten and the new address is
    /// written back through the LSM write path (Titan).
    Writeback,
    /// Standalone GC with no index write-back: the new file inherits the
    /// old file's identity (TerarkDB / Scavenger).
    NoWriteback,
}

/// Individual design features; ablation experiments (paper Fig. 16/17)
/// toggle these directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Features {
    /// Separate values ≥ `sep_threshold` into the value store at flush.
    pub separate: bool,
    /// Value-file format.
    pub vformat: VFormat,
    /// GC scheme (ignored when `separate` is false).
    pub gc: GcScheme,
    /// **R**: Lazy Read — GC reads the RTable's dense index first and
    /// fetches only valid values (§III-B1). Requires `VFormat::RTable`.
    pub lazy_read: bool,
    /// **L**: Index-record separation — key SSTs are DTables, so
    /// GC-Lookups touch only high-priority-cached KF blocks (§III-B2).
    pub dtable_index: bool,
    /// **W**: Hotness-aware writing — DropCache-guided hot/cold vSST
    /// routing at flush and GC (§III-B3).
    pub hotness: bool,
    /// **C**: Space-aware compaction by compensated size (§III-C).
    pub compensated: bool,
    /// Readahead (coalesced record fetches) during GC value reads — the
    /// paper's S-RH variant. Disabled by default for fairness (§IV-A).
    pub gc_readahead: bool,
}

impl Features {
    /// The feature set of a baseline mode.
    pub fn for_mode(mode: EngineMode) -> Features {
        match mode {
            EngineMode::Rocks => Features {
                separate: false,
                vformat: VFormat::BTable,
                gc: GcScheme::NoWriteback,
                lazy_read: false,
                dtable_index: false,
                hotness: false,
                compensated: false,
                gc_readahead: false,
            },
            EngineMode::BlobDb => Features {
                separate: true,
                vformat: VFormat::BlobLog,
                gc: GcScheme::CompactionTriggered,
                lazy_read: false,
                dtable_index: false,
                hotness: false,
                compensated: false,
                gc_readahead: false,
            },
            EngineMode::Titan => Features {
                separate: true,
                vformat: VFormat::BlobLog,
                gc: GcScheme::Writeback,
                lazy_read: false,
                dtable_index: false,
                hotness: false,
                compensated: false,
                gc_readahead: false,
            },
            EngineMode::Terark => Features {
                separate: true,
                vformat: VFormat::BTable,
                gc: GcScheme::NoWriteback,
                lazy_read: false,
                dtable_index: false,
                hotness: false,
                compensated: false,
                gc_readahead: false,
            },
            EngineMode::Scavenger => Features {
                separate: true,
                vformat: VFormat::RTable,
                gc: GcScheme::NoWriteback,
                lazy_read: true,
                dtable_index: true,
                hotness: true,
                compensated: true,
                gc_readahead: false,
            },
        }
    }

    /// TerarkDB + compensated compaction only — the paper's **TDB-C**
    /// ablation (Fig. 16a).
    pub fn tdb_compensated() -> Features {
        Features {
            compensated: true,
            ..Features::for_mode(EngineMode::Terark)
        }
    }
}

/// How the GC validates candidate records against the index LSM-tree
/// (the *GC-Lookup* phase, paper Fig. 8 step ② / Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcValidateMode {
    /// Pick per batch: merge-validate for large batches, the parallel
    /// worker pool for smaller ones (when `gc_threads > 1`), point
    /// lookups otherwise.
    Auto,
    /// One serial point lookup per record per read point — the baseline
    /// the paper profiles as the dominant GC cost.
    Point,
    /// Sort the batch by key and resolve it with one co-sequential sweep
    /// of a pinned LSM iterator per read point, amortizing version
    /// pinning, table-handle, and block-cache accesses.
    Merge,
    /// Partition the sorted batch into contiguous key ranges across a
    /// pool of `gc_threads` scoped worker threads, each sweeping its
    /// range over a shared pinned view of the tree.
    Parallel,
}

/// Whether a GC job overlaps its Validate / Fetch / Write stages
/// (Fig. 8 steps ② / ③ / ④) across threads.
///
/// All settings produce **bit-identical GC outputs** (same value-file
/// bytes, file numbers, and `GcOutcome`) — the choice only moves
/// wall-clock time, so [`Auto`](GcPipeline::Auto) can pick per machine
/// without changing results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcPipeline {
    /// Decide at [`Db::open`](crate::db::Db::open) from the hardware
    /// (the default). Decision rule: the pipeline pays a fixed thread +
    /// channel overhead that only real parallelism recoups, so `Auto`
    /// resolves to [`On`](GcPipeline::On) when
    /// [`std::thread::available_parallelism`] reports **two or more**
    /// cores, and to [`Off`](GcPipeline::Off) on a single core (where
    /// the stages would just time-slice one CPU and the overhead is pure
    /// loss — see `BENCH_gc_pipeline.json`, recorded on a 1-core
    /// container at 1.03×).
    Auto,
    /// Run the stages sequentially on the GC thread — the equivalence
    /// baseline.
    Off,
    /// Three-stage bounded-channel pipeline over batches of
    /// [`gc_pipeline_batch`](Options::gc_pipeline_batch) records: batch
    /// *k+1* validates while batch *k* fetches and batch *k−1* writes.
    On,
}

impl GcPipeline {
    /// Resolve [`Auto`](GcPipeline::Auto) against the machine: `On` with
    /// ≥ 2 available cores, `Off` otherwise. Explicit settings pass
    /// through unchanged. Never returns `Auto`.
    pub fn resolved(self) -> GcPipeline {
        match self {
            GcPipeline::Auto => {
                let cores = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1);
                if cores >= 2 {
                    GcPipeline::On
                } else {
                    GcPipeline::Off
                }
            }
            other => other,
        }
    }
}

/// Batch size at or above which [`GcValidateMode::Auto`] switches from the
/// worker pool to merge-validate.
pub const AUTO_MERGE_VALIDATE_MIN: usize = 256;

/// Batch size at or above which [`GcValidateMode::Auto`] engages the
/// parallel worker pool instead of serial point lookups.
pub const AUTO_PARALLEL_VALIDATE_MIN: usize = 32;

/// Options for opening a [`Db`](crate::db::Db).
#[derive(Clone)]
pub struct Options {
    /// Storage environment.
    pub env: EnvRef,
    /// Directory prefix for all files.
    pub dir: String,
    /// Base engine design.
    pub mode: EngineMode,
    /// Feature toggles (defaults to `Features::for_mode(mode)`).
    pub features: Features,
    /// KV-separation threshold in bytes (paper: 512 B).
    pub sep_threshold: usize,
    /// Target value-SST size (paper: 256 MB; scaled default 1 MiB).
    pub vsst_target_size: u64,
    /// Garbage-ratio threshold that triggers GC (paper: 0.2).
    pub gc_threshold: f64,
    /// Max candidate files merged per GC job.
    pub gc_batch_files: usize,
    /// Run GC automatically on the write path when candidates exist.
    pub auto_gc: bool,
    /// Auto-GC bandwidth budget as a multiple of foreground write bytes
    /// (GC shares the device with foreground traffic; the paper's
    /// baselines fall behind garbage generation exactly because their GC
    /// needs many I/O bytes per reclaimed byte). Manual `run_gc` and
    /// throttle-driven GC are not paced.
    pub gc_bandwidth_factor: f64,
    /// How GC-Lookup validates candidate records (see [`GcValidateMode`]).
    pub gc_validate_mode: GcValidateMode,
    /// Worker threads for [`GcValidateMode::Parallel`] validation (and the
    /// `Auto` mode's small-batch path), for fanning the GC Fetch phase's
    /// per-file coalesced reads out across source files, for Titan's
    /// full-file Read scans, and for [`DbShards`](crate::DbShards)'
    /// cross-shard maintenance fan-out. `1` disables the pool and makes
    /// maintenance fully sequential (deterministic).
    ///
    /// ```
    /// use scavenger::{Db, EngineMode, MemEnv, Options};
    ///
    /// let mut opts = Options::new(MemEnv::shared(), "gc-threads-demo", EngineMode::Scavenger);
    /// opts.gc_threads = 1; // serial GC I/O + validation, e.g. for reproducible accounting
    /// let db = Db::open(opts).unwrap();
    /// db.put(b"k", vec![0u8; 2048]).unwrap();
    /// db.flush().unwrap();
    /// ```
    pub gc_threads: usize,
    /// Whether GC jobs overlap their Validate / Fetch / Write stages
    /// (see [`GcPipeline`]); resolved against the machine at
    /// [`Db::open`](crate::db::Db::open). All pipeline settings produce
    /// bit-identical GC outputs; `On` trades threads for wall-clock.
    /// Default [`GcPipeline::Auto`]: `On` when two or more cores are
    /// available, `Off` on a single core (the decision rule is spelled
    /// out on [`GcPipeline::Auto`]).
    ///
    /// ```
    /// use scavenger::{EngineMode, GcPipeline, MemEnv, Options};
    ///
    /// let opts = Options::new(MemEnv::shared(), "pipeline-demo", EngineMode::Scavenger);
    /// assert_eq!(opts.gc_pipeline, GcPipeline::Auto);
    /// // Auto never reaches the GC executor: Db::open resolves it to a
    /// // concrete setting based on available parallelism.
    /// assert_ne!(opts.gc_pipeline.resolved(), GcPipeline::Auto);
    /// ```
    pub gc_pipeline: GcPipeline,
    /// Records per pipeline batch when [`gc_pipeline`](Options::gc_pipeline)
    /// is `On`. Smaller batches overlap sooner but amortize less.
    pub gc_pipeline_batch: usize,
    /// DropCache capacity in keys (paper: ~32 B/key; §III-B3).
    pub dropcache_keys: usize,
    /// Space limit in bytes; `None` disables space-aware throttling
    /// (paper §III-D). When set, a write that finds the store over the
    /// limit triggers aggressive reclamation — GC at a lowered threshold
    /// plus forced compactions — before it is admitted.
    ///
    /// ```
    /// use scavenger::{Db, EngineMode, MemEnv, Options};
    ///
    /// let mut opts = Options::new(MemEnv::shared(), "quota-demo", EngineMode::Scavenger);
    /// opts.space_limit = Some(64 * 1024 * 1024); // 64 MiB global footprint cap
    /// let db = Db::open(opts).unwrap();
    /// db.put(b"k", vec![1u8; 4096]).unwrap();
    /// assert_eq!(db.stats().throttle_stalls, 0); // far under the quota
    /// ```
    pub space_limit: Option<u64>,
    /// When throttling, GC threshold is multiplied by this factor
    /// (aggressive reclamation, §III-D).
    pub throttle_gc_factor: f64,
    /// Memtable size.
    pub memtable_size: usize,
    /// L0 file-count compaction trigger.
    pub l0_trigger: usize,
    /// Base level target bytes (compensated units in Scavenger mode).
    pub base_level_bytes: u64,
    /// Inter-level multiplier (paper: 10).
    pub level_multiplier: u64,
    /// Key-SST target size.
    pub ksst_target_size: u64,
    /// Block size.
    pub block_size: usize,
    /// Bloom bits per key (paper: 10).
    pub bloom_bits_per_key: usize,
    /// Block cache capacity (paper: 1% of dataset).
    pub block_cache_bytes: usize,
    /// Write WAL records.
    pub wal: bool,
    /// Run background work inline (deterministic) or on threads.
    pub inline_background: bool,
    /// How many times a *transient* background failure (flush,
    /// compaction, GC) is retried — with bounded exponential backoff —
    /// before the engine degrades to read-only mode. Permanent failures
    /// (corruption, invariant violations) degrade immediately. A
    /// degraded engine serves reads, scans, and pinned views; writes
    /// fail fast with `Error::ReadOnlyMode` until
    /// [`Db::resume`](crate::Db::resume) clears the state.
    pub bg_retry_limit: usize,
    /// Base delay of the exponential backoff between background retries
    /// (`bg_retry_base * 2^attempt`).
    pub bg_retry_base: std::time::Duration,
    /// Share this block cache instead of creating one per engine.
    /// [`DbShards`](crate::DbShards) hands every shard the same
    /// (16-way-sharded) cache so one memory budget covers the whole
    /// sharded store; standalone engines leave it `None`.
    pub block_cache: Option<Arc<BlockCache>>,
    /// Share this throttle (limit + counters) instead of creating one per
    /// engine, so activations and reclamation accounting aggregate across
    /// a shard set. Leave `None` for a standalone engine.
    pub shared_throttle: Option<Arc<Throttle>>,
    /// Space-usage source the throttle compares against
    /// [`space_limit`](Options::space_limit). `None` measures this
    /// engine's own directory; [`DbShards`](crate::DbShards) installs a
    /// closure summing all shard directories so the limit is one global
    /// budget.
    pub space_usage: Option<SpaceUsageFn>,
    /// Change-data-capture WAL retention budget, in bytes. Closed WAL
    /// segments are kept on disk for change-stream catch-up instead of
    /// being deleted, up to this many bytes of *speculative* history.
    /// History a registered subscriber still needs is always retained
    /// regardless of this budget (and accounted as pinned bytes toward
    /// the §III-D throttle). `0` (the default) disables speculative
    /// retention; change streams still work, but a disconnected
    /// subscriber can only resume as far back as live subscribers and
    /// the in-memory ring preserve.
    pub cdc_retention: u64,
    /// Byte budget of the in-memory change-event ring serving tailing
    /// subscribers; cursors that fall below the ring's floor catch up
    /// from retained WAL segments.
    pub cdc_ring_bytes: u64,
}

/// Generates the shared per-engine knob setters for the two typed
/// builders ([`OptionsBuilder`] and
/// [`ShardedOptionsBuilder`](crate::ShardedOptionsBuilder)): both carry
/// the exact same setter set, applied at different field paths, so the
/// growing knob list is declared once instead of accreting positional
/// constructors or diverging hand-mirrored builders.
macro_rules! knob_setters {
    ([$($path:tt).+]) => {
        /// Feature toggles (ablations override the mode's defaults).
        #[must_use]
        pub fn features(mut self, v: crate::options::Features) -> Self {
            self.$($path).+.features = v;
            self
        }

        /// KV-separation threshold in bytes (paper: 512 B).
        #[must_use]
        pub fn sep_threshold(mut self, v: usize) -> Self {
            self.$($path).+.sep_threshold = v;
            self
        }

        /// Target value-SST size.
        #[must_use]
        pub fn vsst_target_size(mut self, v: u64) -> Self {
            self.$($path).+.vsst_target_size = v;
            self
        }

        /// Garbage-ratio threshold that triggers GC (paper: 0.2).
        #[must_use]
        pub fn gc_threshold(mut self, v: f64) -> Self {
            self.$($path).+.gc_threshold = v;
            self
        }

        /// Max candidate files merged per GC job.
        #[must_use]
        pub fn gc_batch_files(mut self, v: usize) -> Self {
            self.$($path).+.gc_batch_files = v;
            self
        }

        /// Run GC automatically on the write path when candidates exist.
        #[must_use]
        pub fn auto_gc(mut self, v: bool) -> Self {
            self.$($path).+.auto_gc = v;
            self
        }

        /// Auto-GC bandwidth budget as a multiple of foreground write
        /// bytes.
        #[must_use]
        pub fn gc_bandwidth_factor(mut self, v: f64) -> Self {
            self.$($path).+.gc_bandwidth_factor = v;
            self
        }

        /// How GC-Lookup validates candidate records.
        #[must_use]
        pub fn gc_validate_mode(mut self, v: crate::options::GcValidateMode) -> Self {
            self.$($path).+.gc_validate_mode = v;
            self
        }

        /// Worker threads for parallel GC validation/IO and cross-shard
        /// maintenance fan-out.
        #[must_use]
        pub fn gc_threads(mut self, v: usize) -> Self {
            self.$($path).+.gc_threads = v;
            self
        }

        /// Whether GC jobs overlap their Validate / Fetch / Write stages.
        #[must_use]
        pub fn gc_pipeline(mut self, v: crate::options::GcPipeline) -> Self {
            self.$($path).+.gc_pipeline = v;
            self
        }

        /// Records per pipeline batch when the GC pipeline is on.
        #[must_use]
        pub fn gc_pipeline_batch(mut self, v: usize) -> Self {
            self.$($path).+.gc_pipeline_batch = v;
            self
        }

        /// DropCache capacity in keys (§III-B3).
        #[must_use]
        pub fn dropcache_keys(mut self, v: usize) -> Self {
            self.$($path).+.dropcache_keys = v;
            self
        }

        /// Space limit in bytes; `None` disables §III-D throttling. For a
        /// sharded store this is the **global** budget.
        #[must_use]
        pub fn space_limit(mut self, v: Option<u64>) -> Self {
            self.$($path).+.space_limit = v;
            self
        }

        /// GC-threshold multiplier while throttling (§III-D).
        #[must_use]
        pub fn throttle_gc_factor(mut self, v: f64) -> Self {
            self.$($path).+.throttle_gc_factor = v;
            self
        }

        /// Memtable size in bytes.
        #[must_use]
        pub fn memtable_size(mut self, v: usize) -> Self {
            self.$($path).+.memtable_size = v;
            self
        }

        /// L0 file-count compaction trigger.
        #[must_use]
        pub fn l0_trigger(mut self, v: usize) -> Self {
            self.$($path).+.l0_trigger = v;
            self
        }

        /// Base level target bytes.
        #[must_use]
        pub fn base_level_bytes(mut self, v: u64) -> Self {
            self.$($path).+.base_level_bytes = v;
            self
        }

        /// Inter-level size multiplier (paper: 10).
        #[must_use]
        pub fn level_multiplier(mut self, v: u64) -> Self {
            self.$($path).+.level_multiplier = v;
            self
        }

        /// Key-SST target size.
        #[must_use]
        pub fn ksst_target_size(mut self, v: u64) -> Self {
            self.$($path).+.ksst_target_size = v;
            self
        }

        /// Block size in bytes.
        #[must_use]
        pub fn block_size(mut self, v: usize) -> Self {
            self.$($path).+.block_size = v;
            self
        }

        /// Bloom bits per key (paper: 10).
        #[must_use]
        pub fn bloom_bits_per_key(mut self, v: usize) -> Self {
            self.$($path).+.bloom_bits_per_key = v;
            self
        }

        /// Block cache capacity in bytes.
        #[must_use]
        pub fn block_cache_bytes(mut self, v: usize) -> Self {
            self.$($path).+.block_cache_bytes = v;
            self
        }

        /// Write WAL records.
        #[must_use]
        pub fn wal(mut self, v: bool) -> Self {
            self.$($path).+.wal = v;
            self
        }

        /// Run background work inline (deterministic) or on threads.
        #[must_use]
        pub fn inline_background(mut self, v: bool) -> Self {
            self.$($path).+.inline_background = v;
            self
        }

        /// Transient background-failure retries before the engine
        /// degrades to read-only mode.
        #[must_use]
        pub fn bg_retry_limit(mut self, v: usize) -> Self {
            self.$($path).+.bg_retry_limit = v;
            self
        }

        /// Base delay of the exponential backoff between background
        /// retries.
        #[must_use]
        pub fn bg_retry_base(mut self, v: std::time::Duration) -> Self {
            self.$($path).+.bg_retry_base = v;
            self
        }

        /// Change-data-capture WAL retention budget in bytes (`0`
        /// disables speculative retention; subscriber-pinned history is
        /// always kept).
        #[must_use]
        pub fn cdc_retention(mut self, v: u64) -> Self {
            self.$($path).+.cdc_retention = v;
            self
        }

        /// Byte budget of the in-memory change-event ring.
        #[must_use]
        pub fn cdc_ring_bytes(mut self, v: u64) -> Self {
            self.$($path).+.cdc_ring_bytes = v;
            self
        }

        /// Share this block cache instead of creating one per engine.
        /// (On a sharded store this becomes the one cache every shard
        /// uses.)
        #[must_use]
        pub fn block_cache(
            mut self,
            v: Option<std::sync::Arc<scavenger_table::btable::BlockCache>>,
        ) -> Self {
            self.$($path).+.block_cache = v;
            self
        }
    };
}
pub(crate) use knob_setters;

/// Typed builder for [`Options`], created by [`Options::builder`].
///
/// Every tuning knob gets a named setter (shared, macro-generated, with
/// the sharded builder), so configuration reads as a fluent chain and
/// new knobs never extend a positional constructor. Finish with
/// [`build`](OptionsBuilder::build) — or [`open`](OptionsBuilder::open)
/// to go straight to a [`Db`](crate::Db).
///
/// ```
/// use scavenger::{EngineMode, GcPipeline, MemEnv, Options};
///
/// let db = Options::builder(MemEnv::shared(), "builder-demo", EngineMode::Scavenger)
///     .memtable_size(64 * 1024)
///     .gc_pipeline(GcPipeline::Off)
///     .space_limit(Some(64 * 1024 * 1024))
///     .open()
///     .unwrap();
/// db.put(b"k", vec![0u8; 2048]).unwrap();
/// assert_eq!(db.get(b"k").unwrap().unwrap().len(), 2048);
/// ```
#[derive(Clone)]
pub struct OptionsBuilder {
    opts: Options,
}

impl OptionsBuilder {
    knob_setters!([opts]);

    // The two cross-engine sharing hooks live only on the single-engine
    // builder: [`DbShards`](crate::DbShards) installs its own shared
    // throttle and set-wide usage source on every shard at open, so a
    // sharded builder offering these setters would silently discard the
    // caller's value.

    /// Share this throttle (limit + counters) across engines.
    #[must_use]
    pub fn shared_throttle(mut self, v: Option<Arc<Throttle>>) -> Self {
        self.opts.shared_throttle = v;
        self
    }

    /// Space-usage source the throttle compares against the limit.
    #[must_use]
    pub fn space_usage(mut self, v: Option<SpaceUsageFn>) -> Self {
        self.opts.space_usage = v;
        self
    }

    /// Finish the chain: the configured [`Options`].
    pub fn build(self) -> Options {
        self.opts
    }

    /// Build and open a [`Db`](crate::Db) in one step.
    pub fn open(self) -> scavenger_util::Result<crate::db::Db> {
        crate::db::Db::open(self.build())
    }
}

impl Options {
    /// Scaled defaults (see `scavenger_bench::Scale` for the paper→scaled
    /// values) for the given mode.
    pub fn new(env: EnvRef, dir: impl Into<String>, mode: EngineMode) -> Options {
        Options {
            env,
            dir: dir.into(),
            mode,
            features: Features::for_mode(mode),
            sep_threshold: 512,
            vsst_target_size: 1024 * 1024,
            gc_threshold: 0.2,
            gc_batch_files: 4,
            auto_gc: true,
            gc_bandwidth_factor: 1.0,
            gc_validate_mode: GcValidateMode::Auto,
            gc_threads: 4,
            gc_pipeline: GcPipeline::Auto,
            gc_pipeline_batch: 1024,
            dropcache_keys: 64 * 1024,
            space_limit: None,
            throttle_gc_factor: 0.25,
            memtable_size: 256 * 1024,
            l0_trigger: 4,
            base_level_bytes: 4 * 1024 * 1024,
            level_multiplier: 10,
            ksst_target_size: 256 * 1024,
            block_size: 4096,
            bloom_bits_per_key: 10,
            block_cache_bytes: 1024 * 1024,
            wal: true,
            inline_background: true,
            bg_retry_limit: 3,
            bg_retry_base: std::time::Duration::from_millis(10),
            block_cache: None,
            shared_throttle: None,
            space_usage: None,
            cdc_retention: 0,
            cdc_ring_bytes: 1024 * 1024,
        }
    }

    /// Typed builder over [`Options::new`]: the same scaled defaults,
    /// with every knob settable by name (see [`OptionsBuilder`]).
    pub fn builder(env: EnvRef, dir: impl Into<String>, mode: EngineMode) -> OptionsBuilder {
        OptionsBuilder {
            opts: Options::new(env, dir, mode),
        }
    }

    /// Derive the index-LSM options (the value hook is attached by
    /// [`Db::open`](crate::db::Db::open)).
    pub(crate) fn lsm_options(&self) -> scavenger_lsm::LsmOptions {
        let mut o = scavenger_lsm::LsmOptions::new(self.env.clone(), self.dir.clone());
        o.memtable_size = self.memtable_size;
        o.l0_trigger = self.l0_trigger;
        o.base_level_bytes = self.base_level_bytes;
        o.level_multiplier = self.level_multiplier;
        o.target_file_size = self.ksst_target_size;
        o.block_size = self.block_size;
        o.bloom_bits_per_key = self.bloom_bits_per_key;
        o.block_cache_bytes = self.block_cache_bytes;
        o.wal = self.wal;
        o.compensated = self.features.compensated;
        o.ktable_format = if self.features.dtable_index {
            KTableFormat::DTable
        } else {
            KTableFormat::BTable
        };
        o.background = if self.inline_background {
            scavenger_lsm::BackgroundMode::Inline
        } else {
            scavenger_lsm::BackgroundMode::Threaded
        };
        o.bg_retry_limit = self.bg_retry_limit;
        o.bg_retry_base = self.bg_retry_base;
        o.cdc_retention = self.cdc_retention;
        o.cdc_ring_bytes = self.cdc_ring_bytes;
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scavenger_env::MemEnv;

    #[test]
    fn mode_feature_matrix_matches_paper() {
        let r = Features::for_mode(EngineMode::Rocks);
        assert!(!r.separate);

        let b = Features::for_mode(EngineMode::BlobDb);
        assert!(b.separate);
        assert_eq!(b.vformat, VFormat::BlobLog);
        assert_eq!(b.gc, GcScheme::CompactionTriggered);

        let t = Features::for_mode(EngineMode::Titan);
        assert_eq!(t.gc, GcScheme::Writeback);

        let k = Features::for_mode(EngineMode::Terark);
        assert_eq!(k.vformat, VFormat::BTable);
        assert_eq!(k.gc, GcScheme::NoWriteback);
        assert!(!k.compensated);

        let s = Features::for_mode(EngineMode::Scavenger);
        assert_eq!(s.vformat, VFormat::RTable);
        assert!(s.lazy_read && s.dtable_index && s.hotness && s.compensated);
        assert!(!s.gc_readahead, "readahead off by default for fairness");
    }

    #[test]
    fn tdb_c_is_terark_plus_compensation_only() {
        let f = Features::tdb_compensated();
        assert!(f.compensated);
        assert!(!f.lazy_read && !f.dtable_index && !f.hotness);
        assert_eq!(f.vformat, VFormat::BTable);
    }

    #[test]
    fn paper_constants_are_defaults() {
        let o = Options::new(MemEnv::shared(), "db", EngineMode::Scavenger);
        assert_eq!(o.sep_threshold, 512);
        assert!((o.gc_threshold - 0.2).abs() < 1e-9);
        assert_eq!(o.level_multiplier, 10);
        assert_eq!(o.bloom_bits_per_key, 10);
        assert!(o.space_limit.is_none());
        assert_eq!(o.gc_validate_mode, GcValidateMode::Auto);
        assert!(o.gc_threads >= 1);
        assert_eq!(
            o.gc_pipeline,
            GcPipeline::Auto,
            "pipeline overlap is machine-keyed by default"
        );
        assert!(o.gc_pipeline_batch >= 1);
    }

    #[test]
    fn gc_pipeline_auto_resolves_to_concrete_setting() {
        // The concrete answer depends on the machine, but Auto must never
        // leak through to the GC executor, and explicit settings must
        // pass through unchanged.
        let r = GcPipeline::Auto.resolved();
        assert!(matches!(r, GcPipeline::On | GcPipeline::Off));
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(r == GcPipeline::On, cores >= 2, "decision rule: ≥2 cores");
        assert_eq!(GcPipeline::Off.resolved(), GcPipeline::Off);
        assert_eq!(GcPipeline::On.resolved(), GcPipeline::On);
    }

    #[test]
    fn lsm_options_inherit_format_and_scoring() {
        let o = Options::new(MemEnv::shared(), "db", EngineMode::Scavenger);
        let l = o.lsm_options();
        assert!(l.compensated);
        assert_eq!(l.ktable_format, KTableFormat::DTable);
        let o = Options::new(MemEnv::shared(), "db", EngineMode::Terark);
        let l = o.lsm_options();
        assert!(!l.compensated);
        assert_eq!(l.ktable_format, KTableFormat::BTable);
    }
}
