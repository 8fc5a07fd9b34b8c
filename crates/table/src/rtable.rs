//! RecordBasedTable (RTable) — the Scavenger value SST (paper §III-B1).
//!
//! Unlike a BTable, which packs many entries into shared data blocks and
//! keeps a *sparse* index (one entry per block), the RTable stores each
//! key-value pair as an individually checksummed **record** and keeps a
//! *dense* index: one `(key → record handle)` entry per record, organised
//! as a partitioned two-level index.
//!
//! ```text
//! [record | index partition]*  [top index]  [filter]  [props]  [metaindex]  [footer]
//! record := varint klen ++ key ++ varint vlen ++ value   (+ 5B crc trailer)
//! ```
//!
//! This buys the GC's **Lazy Read**: reading *only* the index partitions
//! yields every key in the file plus the exact location of its value, so
//! validity checks (GC-Lookup) run before a single value byte is fetched,
//! and only surviving values are ever read. Foreground point reads also
//! benefit: the dense index points directly at the record, so there is no
//! in-block search. A reader that already holds a record's address (the
//! offset its writer returned) skips the index altogether with
//! [`RTableReader::read_record_at`].

use crate::block::{Block, BlockBuilder};
use crate::blockio::{read_block, stage_block, write_block, BLOCK_TRAILER_LEN};
use crate::btable::{
    read_footer, BlockCache, BlockFetcher, BuiltTable, PropsTracker, TableOptions,
};
use crate::cache::CachePriority;
use crate::filter::{BloomBuilder, BloomReader};
use crate::handle::{BlockHandle, Footer};
use crate::props::{meta_keys, metaindex, TableProps, TableType};
use crate::{BlockKind, KeyCmp};
use bytes::Bytes;
use scavenger_env::{RandomAccessFile, WritableFile};
use scavenger_util::coding::{get_length_prefixed_slice, put_length_prefixed_slice, varint64_len};
use scavenger_util::ikey::extract_user_key;
use scavenger_util::{Error, Result};
use std::sync::Arc;

/// Streaming builder for a RecordBasedTable.
pub struct RTableBuilder {
    file: Box<dyn WritableFile>,
    opts: TableOptions,
    partition: BlockBuilder,
    top_index: BlockBuilder,
    bloom: BloomBuilder,
    tracker: PropsTracker,
    smallest: Option<Vec<u8>>,
    largest: Vec<u8>,
    num_entries: u64,
    index_bytes: u64,
}

impl RTableBuilder {
    /// Start building into `file`.
    pub fn new(file: Box<dyn WritableFile>, opts: TableOptions) -> Self {
        let bits = opts.bloom_bits_per_key;
        let cmp = opts.cmp;
        RTableBuilder {
            file,
            opts,
            partition: BlockBuilder::new(8),
            top_index: BlockBuilder::new(1),
            bloom: BloomBuilder::new(bits.max(1)),
            tracker: PropsTracker::new(TableType::RTable, cmp),
            smallest: None,
            largest: Vec::new(),
            num_entries: 0,
            index_bytes: 0,
        }
    }

    fn user_key<'k>(&self, key: &'k [u8]) -> &'k [u8] {
        match self.opts.cmp {
            KeyCmp::Internal => extract_user_key(key),
            KeyCmp::Bytewise => key,
        }
    }

    /// Append a record; keys must arrive in `opts.cmp` order.
    /// Returns the record's handle (useful for address-based callers).
    pub fn add(&mut self, key: &[u8], value: &[u8]) -> Result<BlockHandle> {
        debug_assert!(
            self.partition.is_empty() || self.opts.cmp.cmp(self.partition.last_key(), key).is_lt(),
            "keys must be added in strictly increasing order"
        );
        if self.smallest.is_none() {
            self.smallest = Some(key.to_vec());
        }
        self.largest.clear();
        self.largest.extend_from_slice(key);
        self.bloom.add_key(self.user_key(key));
        self.tracker.observe(key, value);

        let mut record = Vec::with_capacity(key.len() + value.len() + 8);
        put_length_prefixed_slice(&mut record, key);
        put_length_prefixed_slice(&mut record, value);
        let handle = write_block(self.file.as_mut(), &record)?;

        self.partition.add(key, &handle.encode());
        self.num_entries += 1;
        if self.partition.size_estimate() >= self.opts.index_partition_size {
            self.flush_partition()?;
        }
        Ok(handle)
    }

    fn flush_partition(&mut self) -> Result<()> {
        let mut buf = Vec::new();
        let base = self.file.len();
        self.stage_partition(&mut buf, base);
        if buf.is_empty() {
            return Ok(());
        }
        self.file.append(&buf)
    }

    /// Stage the pending index partition into `buf` (see
    /// [`stage_block`]); a no-op when the partition is empty.
    fn stage_partition(&mut self, buf: &mut Vec<u8>, base: u64) {
        if self.partition.is_empty() {
            return;
        }
        let last_key = self.partition.last_key().to_vec();
        let payload = self.partition.finish();
        self.index_bytes += (payload.len() + BLOCK_TRAILER_LEN) as u64;
        let handle = stage_block(buf, base, &payload);
        self.top_index.add(&last_key, &handle.encode());
    }

    /// Append a batch of records with **one** file `append`: every record
    /// block (and any index partition that fills up mid-batch) is staged
    /// into a single buffer, so the per-record I/O of [`add`](Self::add)
    /// is amortized across the batch while the on-disk bytes stay
    /// identical to repeated `add` calls.
    ///
    /// When `target` is set, the batch stops early once the staged table
    /// size (the exact value [`estimated_size`](Self::estimated_size)
    /// would report after that record) reaches it — mirroring the
    /// per-record rollover check callers perform with `add`. Returns the
    /// record handles plus how many input records were consumed (always
    /// ≥ 1 for a non-empty batch).
    pub fn add_batch(
        &mut self,
        recs: &[(&[u8], &[u8])],
        target: Option<u64>,
    ) -> Result<(Vec<BlockHandle>, usize)> {
        let base = self.file.len();
        let mut buf: Vec<u8> = Vec::new();
        let mut handles = Vec::with_capacity(recs.len());
        let mut consumed = 0usize;
        for &(key, value) in recs {
            debug_assert!(
                self.partition.is_empty()
                    || self.opts.cmp.cmp(self.partition.last_key(), key).is_lt(),
                "keys must be added in strictly increasing order"
            );
            if self.smallest.is_none() {
                self.smallest = Some(key.to_vec());
            }
            self.largest.clear();
            self.largest.extend_from_slice(key);
            self.bloom.add_key(self.user_key(key));
            self.tracker.observe(key, value);

            let mut record = Vec::with_capacity(key.len() + value.len() + 8);
            put_length_prefixed_slice(&mut record, key);
            put_length_prefixed_slice(&mut record, value);
            let handle = stage_block(&mut buf, base, &record);

            self.partition.add(key, &handle.encode());
            self.num_entries += 1;
            if self.partition.size_estimate() >= self.opts.index_partition_size {
                self.stage_partition(&mut buf, base);
            }
            handles.push(handle);
            consumed += 1;
            if let Some(t) = target {
                let staged = base + buf.len() as u64 + self.partition.size_estimate() as u64;
                if staged >= t {
                    break;
                }
            }
        }
        if !buf.is_empty() {
            self.file.append(&buf)?;
        }
        Ok((handles, consumed))
    }

    /// Number of records added so far.
    pub fn num_entries(&self) -> u64 {
        self.num_entries
    }

    /// Bytes written so far (lower bound on final size).
    pub fn estimated_size(&self) -> u64 {
        self.file.len() + self.partition.size_estimate() as u64
    }

    /// Finish the table.
    pub fn finish(mut self) -> Result<BuiltTable> {
        self.flush_partition()?;
        let filter_handle = write_block(self.file.as_mut(), &self.bloom.finish())?;
        let props = self.tracker.finish();
        let props_handle = write_block(self.file.as_mut(), &props.encode())?;
        let meta = metaindex::encode(&[
            (meta_keys::FILTER, filter_handle),
            (meta_keys::PROPS, props_handle),
        ]);
        let metaindex_handle = write_block(self.file.as_mut(), &meta)?;
        let top_payload = self.top_index.finish();
        self.index_bytes += (top_payload.len() + BLOCK_TRAILER_LEN) as u64;
        let index_handle = write_block(self.file.as_mut(), &top_payload)?;
        let footer = Footer {
            metaindex: metaindex_handle,
            index: index_handle,
        };
        self.file.append(&footer.encode())?;
        self.file.sync()?;
        Ok(BuiltTable {
            file_size: self.file.len(),
            smallest: self.smallest.unwrap_or_default(),
            largest: self.largest,
            props,
        })
    }

    /// Bytes spent on index partitions so far — the dense-index overhead
    /// the paper measures in Table I.
    pub fn index_bytes(&self) -> u64 {
        self.index_bytes
    }
}

/// Walk all index partitions of an RTable and collect the dense index.
fn read_dense_index(
    fetcher: &BlockFetcher,
    top_index: &Block,
    cmp: KeyCmp,
    size_hint: usize,
) -> Result<Vec<(Vec<u8>, BlockHandle)>> {
    let mut out = Vec::with_capacity(size_hint);
    let mut top = top_index.iter(cmp);
    top.seek_to_first();
    while top.valid() {
        let part_handle = BlockHandle::decode_exact(&top.value())?;
        let part = fetcher.fetch(part_handle, BlockKind::Index, CachePriority::High)?;
        let mut it = part.iter(cmp);
        it.seek_to_first();
        while it.valid() {
            out.push((it.key().to_vec(), BlockHandle::decode_exact(&it.value())?));
            it.next();
        }
        top.next();
    }
    Ok(out)
}

/// Decode a record payload into `(key, value)`.
pub fn decode_record(payload: &Bytes) -> Result<(Vec<u8>, Bytes)> {
    let mut cur = &payload[..];
    let key = get_length_prefixed_slice(&mut cur)?.to_vec();
    let value = get_length_prefixed_slice(&mut cur)?;
    let vlen = value.len();
    if !cur.is_empty() {
        return Err(Error::corruption("trailing bytes in rtable record"));
    }
    // `cur` is empty, so the value is exactly the payload's last `vlen` bytes;
    // slice it zero-copy instead of copying.
    let value_off = payload.len() - vlen;
    Ok((key, payload.slice(value_off..)))
}

/// An open RecordBasedTable.
pub struct RTableReader {
    fetcher: BlockFetcher,
    top_index: Block,
    filter: Option<Bytes>,
    props: TableProps,
    cmp: KeyCmp,
}

impl RTableReader {
    /// Open an RTable file; top index, filter, and props are pinned.
    pub fn open(
        file: Arc<dyn RandomAccessFile>,
        file_number: u64,
        cache: Option<Arc<BlockCache>>,
        cmp: KeyCmp,
    ) -> Result<RTableReader> {
        let footer = read_footer(file.as_ref())?;
        let fetcher = BlockFetcher {
            file,
            cache,
            file_number,
        };
        let top_index = Block::new(read_block(fetcher.file.as_ref(), footer.index)?)?;
        let meta = metaindex::decode(&read_block(fetcher.file.as_ref(), footer.metaindex)?)?;
        let props_handle = metaindex::find(&meta, meta_keys::PROPS)
            .ok_or_else(|| Error::corruption("missing props block"))?;
        let props = TableProps::decode(&read_block(fetcher.file.as_ref(), props_handle)?)?;
        let filter = match metaindex::find(&meta, meta_keys::FILTER) {
            Some(h) => Some(read_block(fetcher.file.as_ref(), h)?),
            None => None,
        };
        if props.table_type != TableType::RTable {
            return Err(Error::corruption("not an RTable file"));
        }
        Ok(RTableReader {
            fetcher,
            top_index,
            filter,
            props,
            cmp,
        })
    }

    /// Table properties.
    pub fn props(&self) -> &TableProps {
        &self.props
    }

    /// Bloom check on a user key.
    pub fn may_contain(&self, user_key: &[u8]) -> bool {
        match &self.filter {
            Some(f) => BloomReader::new(f).may_contain(user_key),
            None => true,
        }
    }

    /// Find the record handle of the first index entry with key
    /// `>= target`, without reading any record bytes.
    pub fn find_record(&self, target: &[u8]) -> Result<Option<(Vec<u8>, BlockHandle)>> {
        let mut top = self.top_index.iter(self.cmp);
        top.seek(target);
        while top.valid() {
            let part_handle = BlockHandle::decode_exact(&top.value())?;
            let part = self
                .fetcher
                .fetch(part_handle, BlockKind::Index, CachePriority::High)?;
            let mut it = part.iter(self.cmp);
            it.seek(target);
            if it.valid() {
                let rec = BlockHandle::decode_exact(&it.value())?;
                return Ok(Some((it.key().to_vec(), rec)));
            }
            top.next();
        }
        Ok(None)
    }

    /// Read and decode the record at `handle`.
    pub fn read_record(&self, handle: BlockHandle) -> Result<(Vec<u8>, Bytes)> {
        let payload = read_block(self.fetcher.file.as_ref(), handle)?;
        decode_record(&payload)
    }

    /// Read the record at `offset`, the address its writer returned, if
    /// it holds exactly the key `key_head ++ key_tail` and a `vlen`-byte
    /// value. The key comes in two parts so that an internal key (user
    /// key, then trailer) needs no buffer.
    ///
    /// The record's size follows from the two lengths, so this is one
    /// checksummed read with no index or bloom access. It returns `None`
    /// when the read would pass the end of the file, the checksum fails,
    /// the payload does not decode, or the key or value length differs.
    /// Callers then fall back to a keyed lookup, which reports a record
    /// that is truly corrupt as an error.
    pub fn read_record_at(
        &self,
        offset: u64,
        key_head: &[u8],
        key_tail: &[u8],
        vlen: u32,
    ) -> Option<Bytes> {
        let (klen, vlen) = (key_head.len() + key_tail.len(), vlen as usize);
        let size = varint64_len(klen as u64) + klen + varint64_len(vlen as u64) + vlen;
        let end = offset.checked_add((size + BLOCK_TRAILER_LEN) as u64)?;
        if end > self.fetcher.file.len() {
            return None;
        }
        let payload = read_block(
            self.fetcher.file.as_ref(),
            BlockHandle::new(offset, size as u64),
        )
        .ok()?;
        let mut cur = &payload[..];
        let key = get_length_prefixed_slice(&mut cur).ok()?;
        let value = get_length_prefixed_slice(&mut cur).ok()?;
        let (head, tail) = key.split_at_checked(key_head.len())?;
        if head != key_head || tail != key_tail || value.len() != vlen || !cur.is_empty() {
            return None;
        }
        Some(payload.slice(size - vlen..))
    }

    /// Point lookup: first record with key `>= target` (bloom-guarded).
    pub fn get(&self, target: &[u8]) -> Result<Option<(Vec<u8>, Bytes)>> {
        let ukey = match self.cmp {
            KeyCmp::Internal => extract_user_key(target),
            KeyCmp::Bytewise => target,
        };
        if !self.may_contain(ukey) {
            return Ok(None);
        }
        match self.find_record(target)? {
            Some((_, handle)) => self.read_record(handle).map(Some),
            None => Ok(None),
        }
    }

    /// **Lazy Read** (paper Fig. 8 step ①): return every key in the file
    /// with its record handle, reading only index partitions. Partitions
    /// are inserted into the block cache with high priority so subsequent
    /// GC value fetches and foreground reads hit memory.
    pub fn read_index(&self) -> Result<Vec<(Vec<u8>, BlockHandle)>> {
        read_dense_index(
            &self.fetcher,
            &self.top_index,
            self.cmp,
            self.props.num_entries as usize,
        )
    }

    /// Full scan in key order. Reads the dense index lazily and fetches
    /// each record with its own read. The iterator owns its fetcher, so
    /// it carries no lifetime.
    pub fn iter(&self) -> RTableIter {
        RTableIter {
            fetcher: self.fetcher.clone(),
            top_index: self.top_index.clone(),
            cmp: self.cmp,
            entries: None,
            pos: 0,
            current: None,
            error: None,
        }
    }
}

/// Iterator over an RTable's records.
pub struct RTableIter {
    fetcher: BlockFetcher,
    top_index: Block,
    cmp: KeyCmp,
    entries: Option<Vec<(Vec<u8>, BlockHandle)>>,
    pos: usize,
    current: Option<(Vec<u8>, Bytes)>,
    error: Option<Error>,
}

impl RTableIter {
    fn ensure_index(&mut self) {
        if self.entries.is_none() {
            match read_dense_index(&self.fetcher, &self.top_index, self.cmp, 0) {
                Ok(e) => self.entries = Some(e),
                Err(e) => {
                    self.error = Some(e);
                    self.entries = Some(Vec::new());
                }
            }
        }
    }

    fn fetch_current(&mut self) {
        self.current = None;
        let entries = self.entries.as_ref().unwrap();
        if self.pos >= entries.len() {
            return;
        }
        let (key, handle) = entries[self.pos].clone();
        let payload = match read_block(self.fetcher.file.as_ref(), handle) {
            Ok(p) => p,
            Err(e) => {
                self.error = Some(e);
                return;
            }
        };
        match decode_record(&payload) {
            Ok((k, v)) => {
                debug_assert_eq!(k, key);
                self.current = Some((k, v));
            }
            Err(e) => self.error = Some(e),
        }
    }

    /// True if positioned on a record.
    pub fn valid(&self) -> bool {
        self.current.is_some()
    }

    /// Position on the first record.
    pub fn seek_to_first(&mut self) {
        self.ensure_index();
        self.pos = 0;
        self.fetch_current();
    }

    /// Position on the first record with key `>= target`.
    pub fn seek(&mut self, target: &[u8]) {
        self.ensure_index();
        let entries = self.entries.as_ref().unwrap();
        let cmp = self.cmp;
        self.pos = entries.partition_point(|(k, _)| cmp.cmp(k, target).is_lt());
        self.fetch_current();
    }

    /// Advance.
    pub fn next(&mut self) {
        if self.current.is_some() {
            self.pos += 1;
            self.fetch_current();
        }
    }

    /// Current key.
    pub fn key(&self) -> &[u8] {
        &self.current.as_ref().unwrap().0
    }

    /// Current value.
    pub fn value(&self) -> Bytes {
        self.current.as_ref().unwrap().1.clone()
    }

    /// Any error hit while iterating.
    pub fn status(&self) -> Result<()> {
        match &self.error {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scavenger_env::{Env, IoClass, MemEnv};
    use scavenger_util::ikey::{make_internal_key, pack_trailer, ValueType};

    fn opts() -> TableOptions {
        TableOptions {
            cmp: KeyCmp::Bytewise,
            index_partition_size: 256,
            ..TableOptions::default()
        }
    }

    fn entries(n: usize, vlen: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..n)
            .map(|i| {
                (
                    format!("user{i:06}").into_bytes(),
                    vec![(i % 251) as u8; vlen],
                )
            })
            .collect()
    }

    fn build(env: &MemEnv, path: &str, es: &[(Vec<u8>, Vec<u8>)]) -> BuiltTable {
        let f = env.new_writable(path, IoClass::Flush).unwrap();
        let mut b = RTableBuilder::new(f, opts());
        for (k, v) in es {
            b.add(k, v).unwrap();
        }
        b.finish().unwrap()
    }

    fn open(env: &MemEnv, path: &str) -> RTableReader {
        let file = env.open_random_access(path, IoClass::FgValueRead).unwrap();
        RTableReader::open(file, 7, None, KeyCmp::Bytewise).unwrap()
    }

    #[test]
    fn build_get_roundtrip() {
        let env = MemEnv::new();
        let es = entries(300, 64);
        let built = build(&env, "v.vsst", &es);
        assert_eq!(built.props.num_entries, 300);
        assert_eq!(built.props.table_type, TableType::RTable);
        let r = open(&env, "v.vsst");
        for (k, v) in &es {
            let (fk, fv) = r.get(k).unwrap().expect("record");
            assert_eq!(&fk, k);
            assert_eq!(&fv[..], v.as_slice());
        }
        assert!(r.get(b"zzzz").unwrap().is_none());
    }

    #[test]
    fn read_index_returns_all_keys_without_touching_values() {
        let env = MemEnv::new();
        let es = entries(200, 4096); // 800 KB of values
        build(&env, "v.vsst", &es);
        let r = open(&env, "v.vsst");
        let before = env.io_stats().snapshot();
        let index = r.read_index().unwrap();
        let d = env.io_stats().snapshot().delta(&before);
        assert_eq!(index.len(), 200);
        for ((k, _), (ek, _)) in index.iter().zip(es.iter()) {
            assert_eq!(k, ek);
        }
        // Lazy read must cost a tiny fraction of the value bytes.
        let value_bytes: u64 = es.iter().map(|(_, v)| v.len() as u64).sum();
        assert!(
            d.class(IoClass::FgValueRead).read_bytes < value_bytes / 20,
            "lazy read cost {} vs values {}",
            d.class(IoClass::FgValueRead).read_bytes,
            value_bytes
        );
    }

    #[test]
    fn record_handles_fetch_exact_values() {
        let env = MemEnv::new();
        let es = entries(50, 128);
        build(&env, "v.vsst", &es);
        let r = open(&env, "v.vsst");
        let index = r.read_index().unwrap();
        for (i, (k, h)) in index.iter().enumerate() {
            let (rk, rv) = r.read_record(*h).unwrap();
            assert_eq!(&rk, k);
            assert_eq!(&rv[..], es[i].1.as_slice());
        }
    }

    #[test]
    fn dense_index_overhead_is_small_for_large_values() {
        let env = MemEnv::new();
        let es = entries(100, 16 * 1024);
        let f = env.new_writable("v.vsst", IoClass::Flush).unwrap();
        let mut b = RTableBuilder::new(f, opts());
        for (k, v) in &es {
            b.add(k, v).unwrap();
        }
        let index_bytes = b.index_bytes();
        let built = b.finish().unwrap();
        // Paper Table I: ~0.04% extra space at 16K values. Give slack.
        assert!(
            (index_bytes as f64) < 0.01 * built.file_size as f64,
            "index {} of file {}",
            index_bytes,
            built.file_size
        );
    }

    #[test]
    fn iter_scans_in_order() {
        let env = MemEnv::new();
        let es = entries(150, 512);
        build(&env, "v.vsst", &es);
        let r = open(&env, "v.vsst");
        let mut it = r.iter();
        it.seek_to_first();
        for (k, v) in &es {
            assert!(it.valid());
            assert_eq!(it.key(), k.as_slice());
            assert_eq!(&it.value()[..], v.as_slice());
            it.next();
        }
        assert!(!it.valid());
        it.status().unwrap();
    }

    #[test]
    fn seek_in_iter() {
        let env = MemEnv::new();
        let es = entries(100, 32);
        build(&env, "v.vsst", &es);
        let r = open(&env, "v.vsst");
        let mut it = r.iter();
        it.seek(b"user000050");
        assert!(it.valid());
        assert_eq!(it.key(), b"user000050");
        it.seek(b"user0000505");
        assert_eq!(it.key(), b"user000051");
    }

    /// Address read of a bytewise-keyed record.
    fn read_at(r: &RTableReader, h: BlockHandle, key: &[u8], vlen: u32) -> Option<Bytes> {
        r.read_record_at(h.offset, key, &[], vlen)
    }

    #[test]
    fn read_record_at_returns_only_the_exact_record() {
        let env = MemEnv::new();
        let es = entries(20, 100);
        let built = build(&env, "v.vsst", &es);
        let r = open(&env, "v.vsst");
        let index = r.read_index().unwrap();
        let (k5, h5) = (&es[5].0, index[5].1);
        // The right record, from its address alone, in one read and no
        // index access.
        let before = env.io_stats().snapshot();
        let v = read_at(&r, h5, k5, 100).expect("hinted record");
        assert_eq!(&v[..], es[5].1.as_slice());
        let d = env.io_stats().snapshot().delta(&before);
        assert_eq!(d.class(IoClass::FgValueRead).read_ops, 1);
        // A key split anywhere between head and tail is the same key.
        assert!(r
            .read_record_at(h5.offset, &k5[..4], &k5[4..], 100)
            .is_some());
        // Wrong offset: another record's address, or a misaligned one.
        assert!(read_at(&r, index[6].1, k5, 100).is_none());
        assert!(read_at(&r, BlockHandle::new(h5.offset + 1, 0), k5, 100).is_none());
        // Wrong value size.
        assert!(read_at(&r, h5, k5, 99).is_none());
        assert!(read_at(&r, h5, k5, 101).is_none());
        // Wrong key of the same length, and a longer key.
        assert!(read_at(&r, h5, &es[6].0, 100).is_none());
        assert!(r.read_record_at(h5.offset, k5, b"\0", 100).is_none());
        // Past the end of the file, and an offset that overflows.
        assert!(read_at(&r, BlockHandle::new(built.file_size - 4, 0), k5, 100).is_none());
        assert!(read_at(&r, BlockHandle::new(u64::MAX - 8, 0), k5, 100).is_none());
        assert!(read_at(&r, h5, k5, u32::MAX).is_none());
    }

    #[test]
    fn read_record_at_checks_internal_key_sequence() {
        let env = MemEnv::new();
        let f = env.new_writable("i.vsst", IoClass::Flush).unwrap();
        let mut b = RTableBuilder::new(
            f,
            TableOptions {
                cmp: KeyCmp::Internal,
                ..TableOptions::default()
            },
        );
        let ikey = make_internal_key(b"k", 7, ValueType::Value);
        let h = b.add(&ikey, b"value").unwrap();
        b.finish().unwrap();
        let file = env
            .open_random_access("i.vsst", IoClass::FgValueRead)
            .unwrap();
        let r = RTableReader::open(file, 1, None, KeyCmp::Internal).unwrap();
        let trailer = |seq, t| pack_trailer(seq, t).to_le_bytes();
        let got = r.read_record_at(h.offset, b"k", &trailer(7, ValueType::Value), 5);
        assert_eq!(&got.unwrap()[..], b"value");
        for (seq, t) in [
            (8, ValueType::Value),
            (6, ValueType::Value),
            (7, ValueType::ValueRef),
        ] {
            assert!(r
                .read_record_at(h.offset, b"k", &trailer(seq, t), 5)
                .is_none());
        }
        assert!(r
            .read_record_at(h.offset, b"j", &trailer(7, ValueType::Value), 5)
            .is_none());
    }

    #[test]
    fn read_record_at_rejects_a_corrupt_record() {
        let env = MemEnv::new();
        let es = entries(10, 64);
        build(&env, "v.vsst", &es);
        let r = open(&env, "v.vsst");
        let index = r.read_index().unwrap();
        let h = index[2].1;
        // A flipped value byte: the length checks pass, the checksum does not.
        env.corrupt_byte("v.vsst", h.offset + h.size - 1).unwrap();
        assert!(read_at(&r, h, &es[2].0, 64).is_none());
        // The keyed path reports the same record as corrupt.
        assert!(matches!(r.read_record(h), Err(Error::Corruption(_))));
        // Its neighbours are untouched.
        assert!(read_at(&r, index[1].1, &es[1].0, 64).is_some());
    }

    #[test]
    fn corrupt_record_detected() {
        let env = MemEnv::new();
        let es = entries(10, 64);
        build(&env, "v.vsst", &es);
        let r = open(&env, "v.vsst");
        let index = r.read_index().unwrap();
        // Corrupt the first record's payload.
        env.corrupt_byte("v.vsst", index[0].1.offset + 3).unwrap();
        assert!(r.read_record(index[0].1).is_err());
    }

    #[test]
    fn btable_reader_rejects_rtable_semantics() {
        let env = MemEnv::new();
        let es = entries(10, 64);
        build(&env, "v.vsst", &es);
        // RTableReader::open on a proper RTable works; a BTable opened as
        // RTable must be rejected via the props type check.
        let f = env.new_writable("b.sst", IoClass::Flush).unwrap();
        let mut b = crate::btable::BTableBuilder::new(
            f,
            TableOptions {
                cmp: KeyCmp::Bytewise,
                ..TableOptions::default()
            },
        );
        b.add(b"a", b"1").unwrap();
        b.finish().unwrap();
        let file = env
            .open_random_access("b.sst", IoClass::FgValueRead)
            .unwrap();
        assert!(RTableReader::open(file, 1, None, KeyCmp::Bytewise).is_err());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        #[test]
        fn prop_rtable_roundtrip(
            lens in proptest::collection::vec(1usize..2000, 1..60),
        ) {
            let env = MemEnv::new();
            let es: Vec<(Vec<u8>, Vec<u8>)> = lens
                .iter()
                .enumerate()
                .map(|(i, l)| (format!("user{i:06}").into_bytes(), vec![(i % 251) as u8; *l]))
                .collect();
            let f = env.new_writable("p.vsst", IoClass::Flush).unwrap();
            let mut b = RTableBuilder::new(f, opts());
            for (k, v) in &es {
                b.add(k, v).unwrap();
            }
            let built = b.finish().unwrap();
            proptest::prop_assert_eq!(built.props.num_entries as usize, es.len());
            let file = env.open_random_access("p.vsst", IoClass::FgValueRead).unwrap();
            let r = RTableReader::open(file, 1, None, KeyCmp::Bytewise).unwrap();
            for (k, v) in &es {
                let (fk, fv) = r.get(k).unwrap().unwrap();
                proptest::prop_assert_eq!(&fk, k);
                proptest::prop_assert_eq!(&fv[..], v.as_slice());
            }
            let idx = r.read_index().unwrap();
            proptest::prop_assert_eq!(idx.len(), es.len());
        }
    }

    #[test]
    fn empty_rtable() {
        let env = MemEnv::new();
        build(&env, "v.vsst", &[]);
        let r = open(&env, "v.vsst");
        assert!(r.read_index().unwrap().is_empty());
        assert!(r.get(b"x").unwrap().is_none());
        let mut it = r.iter();
        it.seek_to_first();
        assert!(!it.valid());
    }
}
