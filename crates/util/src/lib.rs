//! Shared utilities for the Scavenger key-value store.
//!
//! This crate provides the low-level building blocks every other crate in
//! the workspace relies on:
//!
//! * [`coding`] — varint / fixed-width integer encoding used by every
//!   on-disk format (blocks, WAL, manifest, footers).
//! * [`crc32c`] — software CRC-32C (Castagnoli), the checksum guarding all
//!   persistent records.
//! * [`ikey`] — the internal-key model: user keys combined with sequence
//!   numbers and value types, ordered user-key-ascending /
//!   sequence-descending exactly like LevelDB/RocksDB.
//! * [`hist`] — a fixed-bucket histogram used for GC latency breakdowns.
//! * [`error`] — the shared [`Error`] type.
//! * [`iter`] — the shared fuse-on-error adapter behind every
//!   user-facing scan iterator's `Iterator` impl.
//! * [`metrics`] — [`metric_set!`], the one declaration each engine and
//!   server statistic is derived from: snapshot, atomic twin, shard
//!   merge, delta and Prometheus exposition.

pub mod coding;
pub mod crc32c;
pub mod error;
pub mod hist;
pub mod ikey;
pub mod iter;
pub mod metrics;

pub use error::{Error, Result};
