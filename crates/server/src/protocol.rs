//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Hand-rolled (the build environment has no registry access, so the
//! codec lives here like the vendored shims) and deliberately simple:
//!
//! ```text
//! frame    := len:u32-LE payload            (len = payload length)
//! payload  := opcode:u8 body
//! ```
//!
//! Requests cover the whole [`Engine`](scavenger::Engine) trait surface
//! — point ops, batches, bounded scans (streamed back in chunked
//! frames), snapshot open/read/close against the server's pin table,
//! and maintenance (flush, GC, stats, shutdown). Strings and blobs are
//! varint-length-prefixed via the same `scavenger-util` coding helpers
//! the storage formats use.
//!
//! Decoding is defensive by construction: a frame length above the
//! negotiated cap is rejected **before** any allocation, unknown
//! opcodes and trailing bytes are protocol errors, and every error is
//! reported as a typed [`WireCode`] on an [`Response::Err`] frame —
//! never a dropped connection, never a panic (the codec round-trip and
//! adversarial-input property tests in this module enforce that).

use scavenger_util::coding::{
    get_fixed64, get_length_prefixed_slice, get_varint32, get_varint64, put_fixed64,
    put_length_prefixed_slice, put_varint32, put_varint64,
};
use scavenger_util::{Error, Result};
use std::io::{Read, Write};

/// Default cap on a single frame's payload (16 MiB). Guards against a
/// hostile or corrupt length prefix causing a huge allocation.
pub const DEFAULT_MAX_FRAME: usize = 16 << 20;

/// Typed error codes carried on [`Response::Err`] frames.
///
/// The first block mirrors [`Error`]'s variants one-to-one; the second
/// block is protocol/service conditions that have no engine
/// counterpart. `DEGRADED` is the typed surfacing of
/// [`Error::ReadOnlyMode`]: a degraded engine answers writes with it
/// instead of dropping the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum WireCode {
    /// Key or resource not found ([`Error::NotFound`]).
    NotFound = 1,
    /// Persistent structure failed validation ([`Error::Corruption`]).
    Corruption = 2,
    /// Environment / I/O failure ([`Error::Io`]).
    Io = 3,
    /// Caller misuse ([`Error::InvalidArgument`]).
    InvalidArgument = 4,
    /// Engine invariant violation ([`Error::Internal`]).
    Internal = 5,
    /// Engine is in read-only degraded mode ([`Error::ReadOnlyMode`]).
    Degraded = 6,
    /// Malformed frame: bad length, unknown opcode, trailing bytes.
    Protocol = 7,
    /// Request rejected by the per-connection or global token bucket.
    RateLimited = 8,
    /// Connection rejected at accept time: server at its connection cap.
    ConnLimit = 9,
    /// Snapshot id unknown — never opened, closed, or expired by TTL.
    PinExpired = 10,
    /// Server is draining: it stopped taking new requests for shutdown.
    ShuttingDown = 11,
    /// Optimistic transaction failed commit-time validation
    /// ([`Error::TxnConflict`]): nothing was written, the client
    /// re-runs the transaction.
    TxnConflict = 12,
}

/// All wire codes, for iteration in tests.
pub const ALL_WIRE_CODES: [WireCode; 12] = [
    WireCode::NotFound,
    WireCode::Corruption,
    WireCode::Io,
    WireCode::InvalidArgument,
    WireCode::Internal,
    WireCode::Degraded,
    WireCode::Protocol,
    WireCode::RateLimited,
    WireCode::ConnLimit,
    WireCode::PinExpired,
    WireCode::ShuttingDown,
    WireCode::TxnConflict,
];

impl WireCode {
    /// Stable uppercase tag, embedded in client-side error messages so
    /// the precise code survives the trip through [`Error`].
    pub fn tag(self) -> &'static str {
        match self {
            WireCode::NotFound => "NOT_FOUND",
            WireCode::Corruption => "CORRUPTION",
            WireCode::Io => "IO",
            WireCode::InvalidArgument => "INVALID_ARGUMENT",
            WireCode::Internal => "INTERNAL",
            WireCode::Degraded => "DEGRADED",
            WireCode::Protocol => "PROTOCOL",
            WireCode::RateLimited => "RATE_LIMITED",
            WireCode::ConnLimit => "CONN_LIMIT",
            WireCode::PinExpired => "PIN_EXPIRED",
            WireCode::ShuttingDown => "SHUTTING_DOWN",
            WireCode::TxnConflict => "TXN_CONFLICT",
        }
    }

    /// Decode a wire byte.
    pub fn from_u8(v: u8) -> Option<WireCode> {
        ALL_WIRE_CODES.into_iter().find(|c| *c as u8 == v)
    }

    /// Map an engine [`Error`] to its wire code.
    ///
    /// The match destructures every variant with no wildcard arm, so
    /// adding an `Error` variant is a compile error here until someone
    /// decides its wire code, rather than a silent fall-through to a
    /// generic one.
    pub fn from_error(err: &Error) -> WireCode {
        match err {
            Error::NotFound(_) => WireCode::NotFound,
            Error::Corruption(_) => WireCode::Corruption,
            Error::Io(_) => WireCode::Io,
            Error::InvalidArgument(_) => WireCode::InvalidArgument,
            Error::Internal(_) => WireCode::Internal,
            Error::ReadOnlyMode(_) => WireCode::Degraded,
            Error::TxnConflict(_) => WireCode::TxnConflict,
        }
    }

    /// Reconstruct a typed [`Error`] client-side. Engine-mirroring
    /// codes map back to their variant (so `err.is_read_only()` works
    /// across the wire); protocol/service codes become
    /// [`Error::Io`]-category errors. Every message is prefixed with
    /// `[wire:TAG]` so [`WireCode::of`] can recover the exact code.
    pub fn to_error(self, message: &str) -> Error {
        let msg = format!("[wire:{}] {message}", self.tag());
        match self {
            WireCode::NotFound => Error::NotFound(msg),
            WireCode::Corruption => Error::Corruption(msg),
            WireCode::Io => Error::Io(msg),
            WireCode::InvalidArgument | WireCode::Protocol => Error::InvalidArgument(msg),
            WireCode::Internal => Error::Internal(msg),
            WireCode::Degraded => Error::ReadOnlyMode(msg),
            WireCode::TxnConflict => Error::TxnConflict(msg),
            WireCode::RateLimited
            | WireCode::ConnLimit
            | WireCode::PinExpired
            | WireCode::ShuttingDown => Error::Io(msg),
        }
    }

    /// Recover the wire code from an [`Error`] produced by
    /// [`to_error`](WireCode::to_error), if any.
    pub fn of(err: &Error) -> Option<WireCode> {
        let msg = match err {
            Error::NotFound(m)
            | Error::Corruption(m)
            | Error::Io(m)
            | Error::InvalidArgument(m)
            | Error::Internal(m)
            | Error::ReadOnlyMode(m)
            | Error::TxnConflict(m) => m,
        };
        let rest = msg.strip_prefix("[wire:")?;
        let end = rest.find(']')?;
        ALL_WIRE_CODES.into_iter().find(|c| c.tag() == &rest[..end])
    }
}

fn perr(msg: impl Into<String>) -> Error {
    Error::InvalidArgument(format!("protocol: {}", msg.into()))
}

/// One operation inside a [`Request::Write`] batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOp {
    /// Insert or overwrite `key`.
    Put {
        /// User key.
        key: Vec<u8>,
        /// Value bytes.
        value: Vec<u8>,
    },
    /// Delete `key`.
    Delete {
        /// User key.
        key: Vec<u8>,
    },
}

/// A client request frame. Covers the full `Engine` trait surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Point lookup, optionally through a pinned snapshot.
    Get {
        /// Server-side snapshot id from [`Response::SnapId`], or `None`
        /// for the latest state.
        snap: Option<u64>,
        /// User key.
        key: Vec<u8>,
    },
    /// Insert or overwrite one key.
    Put {
        /// User key.
        key: Vec<u8>,
        /// Value bytes.
        value: Vec<u8>,
        /// Require the commit to be fsync-covered before replying
        /// (rides the engine's group-commit path: one fsync may cover
        /// many concurrent writers).
        sync: bool,
    },
    /// Delete one key.
    Delete {
        /// User key.
        key: Vec<u8>,
        /// Require the commit to be fsync-covered before replying.
        sync: bool,
    },
    /// Atomic batch (per shard — the engine's `write_with` contract).
    Write {
        /// Operations applied as one batch.
        ops: Vec<BatchOp>,
        /// Require the commit to be fsync-covered before replying.
        sync: bool,
    },
    /// Bounded range scan, streamed back as [`Response::ScanChunk`]
    /// frames (the last one has `last = true`).
    Scan {
        /// Server-side snapshot id, or `None` for the latest state.
        snap: Option<u64>,
        /// Inclusive lower bound.
        lo: Vec<u8>,
        /// Exclusive upper bound (`None` = unbounded).
        hi: Option<Vec<u8>>,
        /// Maximum entries to return (`0` = unlimited).
        limit: u32,
    },
    /// Open a server-side snapshot; pinned until closed or TTL-expired.
    SnapOpen,
    /// Close a server-side snapshot.
    SnapClose {
        /// Id from [`Response::SnapId`].
        id: u64,
    },
    /// Flush memtables and drain background work.
    Flush,
    /// Run one GC pass.
    RunGc,
    /// Engine + server statistics in Prometheus exposition text.
    Stats,
    /// Begin graceful shutdown: stop accepting, drain in-flight
    /// requests, drop the pin table, flush, exit.
    Shutdown,
    /// Begin a server-side optimistic transaction; answered with
    /// [`Response::TxnId`]. The transaction lives in the server's
    /// transaction table until committed, rolled back, or TTL-expired.
    TxnBegin,
    /// Read a key inside a transaction (records it in the read set).
    TxnGet {
        /// Id from [`Response::TxnId`].
        txn: u64,
        /// User key.
        key: Vec<u8>,
    },
    /// Buffer a put inside a transaction.
    TxnPut {
        /// Id from [`Response::TxnId`].
        txn: u64,
        /// User key.
        key: Vec<u8>,
        /// Value bytes.
        value: Vec<u8>,
    },
    /// Buffer a delete inside a transaction.
    TxnDelete {
        /// Id from [`Response::TxnId`].
        txn: u64,
        /// User key.
        key: Vec<u8>,
    },
    /// Validate and commit a transaction. Answers
    /// [`Response::Written`] on success, or a
    /// [`WireCode::TxnConflict`] error (nothing written) on validation
    /// failure. Either way the transaction id is consumed.
    TxnCommit {
        /// Id from [`Response::TxnId`].
        txn: u64,
        /// Require the commit to be fsync-covered before replying.
        sync: bool,
    },
    /// Discard a transaction without writing.
    TxnRollback {
        /// Id from [`Response::TxnId`].
        txn: u64,
    },
    /// Open a server-side change stream; answered with
    /// [`Response::StreamId`]. The stream lives in the server's pin
    /// table until closed or TTL-expired, and pins the WAL history its
    /// cursor still needs.
    SubscribeChanges {
        /// Where the subscription starts.
        from: SubscribeSpec,
    },
    /// Deliver pending changes from a stream, as chunked
    /// [`Response::ChangeChunk`] frames (the last one has
    /// `last = true`). An empty final chunk means the stream is caught
    /// up, not ended.
    PollChanges {
        /// Id from [`Response::StreamId`].
        stream: u64,
        /// Maximum events to deliver across all chunks (`0` = server
        /// default).
        max: u32,
    },
    /// Close a change stream, releasing its pinned WAL history.
    CloseStream {
        /// Id from [`Response::StreamId`].
        stream: u64,
    },
}

/// Where a [`Request::SubscribeChanges`] starts — the wire form of
/// [`scavenger::SubscribeFrom`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubscribeSpec {
    /// The oldest retained change.
    Oldest,
    /// The current commit head (only future changes).
    Latest,
    /// An encoded [`scavenger::ResumeToken`]
    /// captured from an earlier stream's chunks.
    Token(Vec<u8>),
}

/// One committed change event on the wire — the serialized form of
/// [`scavenger::ChangeRecord`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireChange {
    /// Shard the write committed on (0 on a single-`Db` server).
    pub shard: u32,
    /// Sequence number in the shard's commit order.
    pub seq: u64,
    /// User key.
    pub key: Vec<u8>,
    /// `Some(value)` for a put, `None` for a delete.
    pub value: Option<Vec<u8>>,
    /// 2PC transaction id when the write was a multi-shard commit.
    pub txn: Option<u64>,
}

/// A server response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::Get`].
    Value {
        /// The value, or `None` if the key is absent/deleted.
        value: Option<Vec<u8>>,
    },
    /// Generic success (flush, snapshot close, shutdown ack).
    Done,
    /// Reply to a write ([`Request::Put`] / [`Request::Delete`] /
    /// [`Request::Write`]): the engine's
    /// [`WriteReceipt`](scavenger::WriteReceipt) on the wire.
    Written {
        /// Highest sequence number the write landed at (max across
        /// shards on a sharded engine).
        seq: u64,
        /// Writer batches sharing the commit group (max across shards).
        group_len: u64,
        /// True if the commit was covered by an fsync before replying.
        synced: bool,
    },
    /// One chunk of a streamed scan.
    ScanChunk {
        /// Key/value pairs in key order.
        entries: Vec<(Vec<u8>, Vec<u8>)>,
        /// True on the final chunk of this scan.
        last: bool,
    },
    /// Reply to [`Request::SnapOpen`].
    SnapId {
        /// Server-side snapshot id for subsequent pinned reads.
        id: u64,
    },
    /// Reply to [`Request::TxnBegin`].
    TxnId {
        /// Server-side transaction id for subsequent txn ops.
        id: u64,
    },
    /// Reply to [`Request::Stats`]: Prometheus exposition text.
    Stats {
        /// The rendered metrics page.
        text: String,
    },
    /// Reply to [`Request::RunGc`].
    GcDone {
        /// GC jobs that ran (one per shard at most).
        jobs: u32,
        /// Value files collected.
        files_collected: u64,
        /// Valid records rewritten.
        records_rewritten: u64,
        /// Garbage bytes reclaimed.
        bytes_reclaimed: u64,
    },
    /// Reply to [`Request::SubscribeChanges`].
    StreamId {
        /// Server-side change-stream id for subsequent polls.
        id: u64,
    },
    /// One chunk of a streamed [`Request::PollChanges`] reply.
    ChangeChunk {
        /// Committed change events, in stream order.
        events: Vec<WireChange>,
        /// Resume token capturing the stream position *after* this
        /// chunk — persist it to survive disconnects.
        resume: Vec<u8>,
        /// How far the stream still trails the commit head, in
        /// sequence numbers.
        lag: u64,
        /// True on the final chunk of this poll.
        last: bool,
    },
    /// Typed failure.
    Err {
        /// The wire code.
        code: WireCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Build an [`Response::Err`] from an engine error.
    pub fn from_error(err: &Error) -> Response {
        Response::Err {
            code: WireCode::from_error(err),
            message: err.to_string(),
        }
    }

    /// Build an [`Response::Err`] from an explicit code.
    pub fn error(code: WireCode, message: impl Into<String>) -> Response {
        Response::Err {
            code,
            message: message.into(),
        }
    }
}

// ---------------- opcodes ----------------

const OP_PING: u8 = 0x01;
const OP_GET: u8 = 0x02;
const OP_PUT: u8 = 0x03;
const OP_DELETE: u8 = 0x04;
const OP_WRITE: u8 = 0x05;
const OP_SCAN: u8 = 0x06;
const OP_SNAP_OPEN: u8 = 0x07;
const OP_SNAP_CLOSE: u8 = 0x08;
const OP_FLUSH: u8 = 0x09;
const OP_RUN_GC: u8 = 0x0a;
const OP_STATS: u8 = 0x0b;
const OP_SHUTDOWN: u8 = 0x0c;
const OP_TXN_BEGIN: u8 = 0x0d;
const OP_TXN_GET: u8 = 0x0e;
const OP_TXN_PUT: u8 = 0x0f;
const OP_TXN_DELETE: u8 = 0x10;
const OP_TXN_COMMIT: u8 = 0x11;
const OP_TXN_ROLLBACK: u8 = 0x12;
const OP_SUB_CHANGES: u8 = 0x13;
const OP_POLL_CHANGES: u8 = 0x14;
const OP_CLOSE_STREAM: u8 = 0x15;

const OP_PONG: u8 = 0x81;
const OP_VALUE: u8 = 0x82;
const OP_DONE: u8 = 0x83;
const OP_SCAN_CHUNK: u8 = 0x84;
const OP_SNAP_ID: u8 = 0x85;
const OP_STATS_TEXT: u8 = 0x86;
const OP_GC_DONE: u8 = 0x87;
const OP_WRITTEN: u8 = 0x88;
const OP_TXN_ID: u8 = 0x89;
const OP_STREAM_ID: u8 = 0x8a;
const OP_CHANGE_CHUNK: u8 = 0x8b;
const OP_ERR: u8 = 0xff;

const SUB_OLDEST: u8 = 0;
const SUB_LATEST: u8 = 1;
const SUB_TOKEN: u8 = 2;

const BATCH_PUT: u8 = 0;
const BATCH_DELETE: u8 = 1;

fn put_opt_slice(dst: &mut Vec<u8>, s: &Option<Vec<u8>>) {
    match s {
        None => dst.push(0),
        Some(s) => {
            dst.push(1);
            put_length_prefixed_slice(dst, s);
        }
    }
}

fn get_u8(src: &mut &[u8]) -> Result<u8> {
    if src.is_empty() {
        return Err(perr("truncated body"));
    }
    let v = src[0];
    *src = &src[1..];
    Ok(v)
}

fn get_bool(src: &mut &[u8]) -> Result<bool> {
    match get_u8(src)? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(perr(format!("bad bool tag {t}"))),
    }
}

fn get_opt_slice(src: &mut &[u8]) -> Result<Option<Vec<u8>>> {
    match get_u8(src)? {
        0 => Ok(None),
        1 => Ok(Some(get_length_prefixed_slice(src)?.to_vec())),
        t => Err(perr(format!("bad option tag {t}"))),
    }
}

fn put_opt_u64(dst: &mut Vec<u8>, v: &Option<u64>) {
    match v {
        None => dst.push(0),
        Some(v) => {
            dst.push(1);
            put_fixed64(dst, *v);
        }
    }
}

fn get_opt_u64(src: &mut &[u8]) -> Result<Option<u64>> {
    match get_u8(src)? {
        0 => Ok(None),
        1 => Ok(Some(get_fixed64(src)?)),
        t => Err(perr(format!("bad option tag {t}"))),
    }
}

impl Request {
    /// Encode into a frame payload (opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Ping => out.push(OP_PING),
            Request::Get { snap, key } => {
                out.push(OP_GET);
                put_opt_u64(&mut out, snap);
                put_length_prefixed_slice(&mut out, key);
            }
            Request::Put { key, value, sync } => {
                out.push(OP_PUT);
                out.push(u8::from(*sync));
                put_length_prefixed_slice(&mut out, key);
                put_length_prefixed_slice(&mut out, value);
            }
            Request::Delete { key, sync } => {
                out.push(OP_DELETE);
                out.push(u8::from(*sync));
                put_length_prefixed_slice(&mut out, key);
            }
            Request::Write { ops, sync } => {
                out.push(OP_WRITE);
                out.push(u8::from(*sync));
                put_varint32(&mut out, ops.len() as u32);
                for op in ops {
                    match op {
                        BatchOp::Put { key, value } => {
                            out.push(BATCH_PUT);
                            put_length_prefixed_slice(&mut out, key);
                            put_length_prefixed_slice(&mut out, value);
                        }
                        BatchOp::Delete { key } => {
                            out.push(BATCH_DELETE);
                            put_length_prefixed_slice(&mut out, key);
                        }
                    }
                }
            }
            Request::Scan {
                snap,
                lo,
                hi,
                limit,
            } => {
                out.push(OP_SCAN);
                put_opt_u64(&mut out, snap);
                put_length_prefixed_slice(&mut out, lo);
                put_opt_slice(&mut out, hi);
                put_varint32(&mut out, *limit);
            }
            Request::SnapOpen => out.push(OP_SNAP_OPEN),
            Request::SnapClose { id } => {
                out.push(OP_SNAP_CLOSE);
                put_fixed64(&mut out, *id);
            }
            Request::Flush => out.push(OP_FLUSH),
            Request::RunGc => out.push(OP_RUN_GC),
            Request::Stats => out.push(OP_STATS),
            Request::Shutdown => out.push(OP_SHUTDOWN),
            Request::TxnBegin => out.push(OP_TXN_BEGIN),
            Request::TxnGet { txn, key } => {
                out.push(OP_TXN_GET);
                put_fixed64(&mut out, *txn);
                put_length_prefixed_slice(&mut out, key);
            }
            Request::TxnPut { txn, key, value } => {
                out.push(OP_TXN_PUT);
                put_fixed64(&mut out, *txn);
                put_length_prefixed_slice(&mut out, key);
                put_length_prefixed_slice(&mut out, value);
            }
            Request::TxnDelete { txn, key } => {
                out.push(OP_TXN_DELETE);
                put_fixed64(&mut out, *txn);
                put_length_prefixed_slice(&mut out, key);
            }
            Request::TxnCommit { txn, sync } => {
                out.push(OP_TXN_COMMIT);
                put_fixed64(&mut out, *txn);
                out.push(u8::from(*sync));
            }
            Request::TxnRollback { txn } => {
                out.push(OP_TXN_ROLLBACK);
                put_fixed64(&mut out, *txn);
            }
            Request::SubscribeChanges { from } => {
                out.push(OP_SUB_CHANGES);
                match from {
                    SubscribeSpec::Oldest => out.push(SUB_OLDEST),
                    SubscribeSpec::Latest => out.push(SUB_LATEST),
                    SubscribeSpec::Token(t) => {
                        out.push(SUB_TOKEN);
                        put_length_prefixed_slice(&mut out, t);
                    }
                }
            }
            Request::PollChanges { stream, max } => {
                out.push(OP_POLL_CHANGES);
                put_fixed64(&mut out, *stream);
                put_varint32(&mut out, *max);
            }
            Request::CloseStream { stream } => {
                out.push(OP_CLOSE_STREAM);
                put_fixed64(&mut out, *stream);
            }
        }
        out
    }

    /// Decode a frame payload. Unknown opcodes, truncated bodies, and
    /// trailing bytes are all [`WireCode::Protocol`]-class errors.
    pub fn decode(payload: &[u8]) -> Result<Request> {
        let mut src = payload;
        let op = get_u8(&mut src)?;
        let req = match op {
            OP_PING => Request::Ping,
            OP_GET => Request::Get {
                snap: get_opt_u64(&mut src)?,
                key: get_length_prefixed_slice(&mut src)?.to_vec(),
            },
            OP_PUT => {
                let sync = get_bool(&mut src)?;
                Request::Put {
                    key: get_length_prefixed_slice(&mut src)?.to_vec(),
                    value: get_length_prefixed_slice(&mut src)?.to_vec(),
                    sync,
                }
            }
            OP_DELETE => {
                let sync = get_bool(&mut src)?;
                Request::Delete {
                    key: get_length_prefixed_slice(&mut src)?.to_vec(),
                    sync,
                }
            }
            OP_WRITE => {
                let sync = get_bool(&mut src)?;
                let n = get_varint32(&mut src)?;
                // Cap pre-allocation by what the body could possibly
                // hold (1 byte per op minimum) — a lying count must not
                // drive a huge reserve.
                let mut ops = Vec::with_capacity((n as usize).min(src.len()));
                for _ in 0..n {
                    match get_u8(&mut src)? {
                        BATCH_PUT => ops.push(BatchOp::Put {
                            key: get_length_prefixed_slice(&mut src)?.to_vec(),
                            value: get_length_prefixed_slice(&mut src)?.to_vec(),
                        }),
                        BATCH_DELETE => ops.push(BatchOp::Delete {
                            key: get_length_prefixed_slice(&mut src)?.to_vec(),
                        }),
                        t => return Err(perr(format!("bad batch op tag {t}"))),
                    }
                }
                Request::Write { ops, sync }
            }
            OP_SCAN => Request::Scan {
                snap: get_opt_u64(&mut src)?,
                lo: get_length_prefixed_slice(&mut src)?.to_vec(),
                hi: get_opt_slice(&mut src)?,
                limit: get_varint32(&mut src)?,
            },
            OP_SNAP_OPEN => Request::SnapOpen,
            OP_SNAP_CLOSE => Request::SnapClose {
                id: get_fixed64(&mut src)?,
            },
            OP_FLUSH => Request::Flush,
            OP_RUN_GC => Request::RunGc,
            OP_STATS => Request::Stats,
            OP_SHUTDOWN => Request::Shutdown,
            OP_TXN_BEGIN => Request::TxnBegin,
            OP_TXN_GET => Request::TxnGet {
                txn: get_fixed64(&mut src)?,
                key: get_length_prefixed_slice(&mut src)?.to_vec(),
            },
            OP_TXN_PUT => Request::TxnPut {
                txn: get_fixed64(&mut src)?,
                key: get_length_prefixed_slice(&mut src)?.to_vec(),
                value: get_length_prefixed_slice(&mut src)?.to_vec(),
            },
            OP_TXN_DELETE => Request::TxnDelete {
                txn: get_fixed64(&mut src)?,
                key: get_length_prefixed_slice(&mut src)?.to_vec(),
            },
            OP_TXN_COMMIT => Request::TxnCommit {
                txn: get_fixed64(&mut src)?,
                sync: get_bool(&mut src)?,
            },
            OP_TXN_ROLLBACK => Request::TxnRollback {
                txn: get_fixed64(&mut src)?,
            },
            OP_SUB_CHANGES => Request::SubscribeChanges {
                from: match get_u8(&mut src)? {
                    SUB_OLDEST => SubscribeSpec::Oldest,
                    SUB_LATEST => SubscribeSpec::Latest,
                    SUB_TOKEN => {
                        SubscribeSpec::Token(get_length_prefixed_slice(&mut src)?.to_vec())
                    }
                    t => return Err(perr(format!("bad subscribe tag {t}"))),
                },
            },
            OP_POLL_CHANGES => Request::PollChanges {
                stream: get_fixed64(&mut src)?,
                max: get_varint32(&mut src)?,
            },
            OP_CLOSE_STREAM => Request::CloseStream {
                stream: get_fixed64(&mut src)?,
            },
            op => return Err(perr(format!("unknown request opcode {op:#04x}"))),
        };
        if !src.is_empty() {
            return Err(perr(format!("{} trailing bytes", src.len())));
        }
        Ok(req)
    }

    /// Short label for logging/metrics.
    pub fn label(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Get { .. } => "get",
            Request::Put { .. } => "put",
            Request::Delete { .. } => "delete",
            Request::Write { .. } => "write",
            Request::Scan { .. } => "scan",
            Request::SnapOpen => "snap_open",
            Request::SnapClose { .. } => "snap_close",
            Request::Flush => "flush",
            Request::RunGc => "run_gc",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
            Request::TxnBegin => "txn_begin",
            Request::TxnGet { .. } => "txn_get",
            Request::TxnPut { .. } => "txn_put",
            Request::TxnDelete { .. } => "txn_delete",
            Request::TxnCommit { .. } => "txn_commit",
            Request::TxnRollback { .. } => "txn_rollback",
            Request::SubscribeChanges { .. } => "subscribe_changes",
            Request::PollChanges { .. } => "poll_changes",
            Request::CloseStream { .. } => "close_stream",
        }
    }
}

impl Response {
    /// Encode into a frame payload (opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Pong => out.push(OP_PONG),
            Response::Value { value } => {
                out.push(OP_VALUE);
                put_opt_slice(&mut out, value);
            }
            Response::Done => out.push(OP_DONE),
            Response::Written {
                seq,
                group_len,
                synced,
            } => {
                out.push(OP_WRITTEN);
                put_varint64(&mut out, *seq);
                put_varint64(&mut out, *group_len);
                out.push(u8::from(*synced));
            }
            Response::ScanChunk { entries, last } => {
                out.push(OP_SCAN_CHUNK);
                out.push(u8::from(*last));
                put_varint32(&mut out, entries.len() as u32);
                for (k, v) in entries {
                    put_length_prefixed_slice(&mut out, k);
                    put_length_prefixed_slice(&mut out, v);
                }
            }
            Response::SnapId { id } => {
                out.push(OP_SNAP_ID);
                put_fixed64(&mut out, *id);
            }
            Response::TxnId { id } => {
                out.push(OP_TXN_ID);
                put_fixed64(&mut out, *id);
            }
            Response::Stats { text } => {
                out.push(OP_STATS_TEXT);
                put_length_prefixed_slice(&mut out, text.as_bytes());
            }
            Response::GcDone {
                jobs,
                files_collected,
                records_rewritten,
                bytes_reclaimed,
            } => {
                out.push(OP_GC_DONE);
                put_varint32(&mut out, *jobs);
                put_varint64(&mut out, *files_collected);
                put_varint64(&mut out, *records_rewritten);
                put_varint64(&mut out, *bytes_reclaimed);
            }
            Response::StreamId { id } => {
                out.push(OP_STREAM_ID);
                put_fixed64(&mut out, *id);
            }
            Response::ChangeChunk {
                events,
                resume,
                lag,
                last,
            } => {
                out.push(OP_CHANGE_CHUNK);
                out.push(u8::from(*last));
                put_varint64(&mut out, *lag);
                put_length_prefixed_slice(&mut out, resume);
                put_varint32(&mut out, events.len() as u32);
                for e in events {
                    put_varint32(&mut out, e.shard);
                    put_varint64(&mut out, e.seq);
                    put_length_prefixed_slice(&mut out, &e.key);
                    put_opt_slice(&mut out, &e.value);
                    put_opt_u64(&mut out, &e.txn);
                }
            }
            Response::Err { code, message } => {
                out.push(OP_ERR);
                out.push(*code as u8);
                put_length_prefixed_slice(&mut out, message.as_bytes());
            }
        }
        out
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response> {
        let mut src = payload;
        let op = get_u8(&mut src)?;
        let resp = match op {
            OP_PONG => Response::Pong,
            OP_VALUE => Response::Value {
                value: get_opt_slice(&mut src)?,
            },
            OP_DONE => Response::Done,
            OP_WRITTEN => Response::Written {
                seq: get_varint64(&mut src)?,
                group_len: get_varint64(&mut src)?,
                synced: get_bool(&mut src)?,
            },
            OP_SCAN_CHUNK => {
                let last = get_bool(&mut src)?;
                let n = get_varint32(&mut src)?;
                let mut entries = Vec::with_capacity((n as usize).min(src.len()));
                for _ in 0..n {
                    let k = get_length_prefixed_slice(&mut src)?.to_vec();
                    let v = get_length_prefixed_slice(&mut src)?.to_vec();
                    entries.push((k, v));
                }
                Response::ScanChunk { entries, last }
            }
            OP_SNAP_ID => Response::SnapId {
                id: get_fixed64(&mut src)?,
            },
            OP_TXN_ID => Response::TxnId {
                id: get_fixed64(&mut src)?,
            },
            OP_STATS_TEXT => Response::Stats {
                text: String::from_utf8(get_length_prefixed_slice(&mut src)?.to_vec())
                    .map_err(|_| perr("stats text is not utf-8"))?,
            },
            OP_GC_DONE => Response::GcDone {
                jobs: get_varint32(&mut src)?,
                files_collected: get_varint64(&mut src)?,
                records_rewritten: get_varint64(&mut src)?,
                bytes_reclaimed: get_varint64(&mut src)?,
            },
            OP_STREAM_ID => Response::StreamId {
                id: get_fixed64(&mut src)?,
            },
            OP_CHANGE_CHUNK => {
                let last = get_bool(&mut src)?;
                let lag = get_varint64(&mut src)?;
                let resume = get_length_prefixed_slice(&mut src)?.to_vec();
                let n = get_varint32(&mut src)?;
                let mut events = Vec::with_capacity((n as usize).min(src.len()));
                for _ in 0..n {
                    events.push(WireChange {
                        shard: get_varint32(&mut src)?,
                        seq: get_varint64(&mut src)?,
                        key: get_length_prefixed_slice(&mut src)?.to_vec(),
                        value: get_opt_slice(&mut src)?,
                        txn: get_opt_u64(&mut src)?,
                    });
                }
                Response::ChangeChunk {
                    events,
                    resume,
                    lag,
                    last,
                }
            }
            OP_ERR => {
                let code_byte = get_u8(&mut src)?;
                let code = WireCode::from_u8(code_byte)
                    .ok_or_else(|| perr(format!("unknown wire code {code_byte}")))?;
                Response::Err {
                    code,
                    message: String::from_utf8(get_length_prefixed_slice(&mut src)?.to_vec())
                        .map_err(|_| perr("error message is not utf-8"))?,
                }
            }
            op => return Err(perr(format!("unknown response opcode {op:#04x}"))),
        };
        if !src.is_empty() {
            return Err(perr(format!("{} trailing bytes", src.len())));
        }
        Ok(resp)
    }
}

// ---------------- framing ----------------

/// Write one frame (`len` prefix + payload) to `w`. Header and payload
/// go out in a single write so a small response is one packet (two
/// writes would trip Nagle + delayed-ACK and cost ~40ms per request).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    Ok(())
}

/// Read one frame from `r`, blocking until complete. Returns `None` on
/// clean EOF at a frame boundary; EOF mid-frame is a protocol error.
/// A length prefix above `max_frame` is rejected before any allocation.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(perr("eof inside frame header")),
            Ok(n) => filled += n,
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > max_frame {
        return Err(perr(format!(
            "frame of {len} bytes exceeds cap {max_frame}"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            perr("eof inside frame body")
        } else {
            e.into()
        }
    })?;
    Ok(Some(payload))
}

/// Incremental frame assembler for non-blocking reads: feed raw bytes
/// with [`extend`](FrameBuffer::extend), pop complete frames with
/// [`pop`](FrameBuffer::pop). Rejects an oversized length prefix as
/// soon as the 4-byte header arrives, before buffering its body.
pub struct FrameBuffer {
    buf: Vec<u8>,
    max_frame: usize,
}

impl FrameBuffer {
    /// Create an assembler with the given frame cap.
    pub fn new(max_frame: usize) -> FrameBuffer {
        FrameBuffer {
            buf: Vec::new(),
            max_frame,
        }
    }

    /// Feed raw bytes from the socket.
    pub fn extend(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Bytes currently buffered (incomplete frame data).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pop the next complete frame payload, if one is buffered.
    pub fn pop(&mut self) -> Result<Option<Vec<u8>>> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len > self.max_frame {
            return Err(perr(format!(
                "frame of {len} bytes exceeds cap {}",
                self.max_frame
            )));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let payload = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn wire_code_error_mapping_round_trips() {
        let errs = [
            Error::not_found("k"),
            Error::corruption("bad"),
            Error::io("disk"),
            Error::invalid_argument("opt"),
            Error::internal("bug"),
            Error::read_only("degraded"),
            Error::txn_conflict("k1 moved"),
        ];
        for err in &errs {
            let code = WireCode::from_error(err);
            let back = code.to_error("msg");
            assert_eq!(
                WireCode::from_error(&back),
                code,
                "error {err:?} did not round-trip through {code:?}"
            );
            assert_eq!(WireCode::of(&back), Some(code));
        }
        // ReadOnlyMode survives as a typed DEGRADED error end to end.
        let degraded = WireCode::from_error(&Error::read_only("x"));
        assert_eq!(degraded, WireCode::Degraded);
        assert!(degraded.to_error("x").is_read_only());
        // TxnConflict survives typed too, so client-side retry loops
        // can branch on `is_txn_conflict()` across the wire.
        let conflict = WireCode::from_error(&Error::txn_conflict("x"));
        assert_eq!(conflict, WireCode::TxnConflict);
        assert!(conflict.to_error("x").is_txn_conflict());
    }

    #[test]
    fn wire_codes_are_distinct_and_decodable() {
        let mut bytes = std::collections::HashSet::new();
        let mut tags = std::collections::HashSet::new();
        for c in ALL_WIRE_CODES {
            assert!(bytes.insert(c as u8), "duplicate byte for {c:?}");
            assert!(tags.insert(c.tag()), "duplicate tag for {c:?}");
            assert_eq!(WireCode::from_u8(c as u8), Some(c));
        }
        assert_eq!(WireCode::from_u8(0), None);
        assert_eq!(WireCode::from_u8(200), None);
    }

    #[test]
    fn frame_round_trip_via_reader() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r, 1024).unwrap().is_none());
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        // 4 GiB length prefix, no body: must error out without trying
        // to allocate or read 4 GiB.
        let wire = u32::MAX.to_le_bytes();
        let mut r = &wire[..];
        let err = read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap_err();
        assert!(err.to_string().contains("exceeds cap"), "{err}");

        let mut fb = FrameBuffer::new(DEFAULT_MAX_FRAME);
        fb.extend(&wire);
        assert!(fb.pop().is_err());
    }

    #[test]
    fn truncated_frames_error_cleanly() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        // Header cut mid-way.
        let mut r = &wire[..2];
        assert!(read_frame(&mut r, 1024).is_err());
        // Body cut mid-way.
        let mut r = &wire[..6];
        assert!(read_frame(&mut r, 1024).is_err());
    }

    #[test]
    fn frame_buffer_reassembles_byte_at_a_time() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Ping.encode()).unwrap();
        write_frame(
            &mut wire,
            &Request::Get {
                snap: Some(7),
                key: b"k".to_vec(),
            }
            .encode(),
        )
        .unwrap();
        let mut fb = FrameBuffer::new(1024);
        let mut got = Vec::new();
        for b in &wire {
            fb.extend(&[*b]);
            while let Some(p) = fb.pop().unwrap() {
                got.push(Request::decode(&p).unwrap());
            }
        }
        assert_eq!(
            got,
            vec![
                Request::Ping,
                Request::Get {
                    snap: Some(7),
                    key: b"k".to_vec()
                }
            ]
        );
        assert_eq!(fb.buffered(), 0);
    }

    fn bytes_strategy() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(proptest::strategy::any::<u8>(), 0..64)
    }

    fn request_strategy() -> impl Strategy<Value = Request> {
        prop_oneof![
            Just(Request::Ping),
            Just(Request::SnapOpen),
            Just(Request::Flush),
            Just(Request::RunGc),
            Just(Request::Stats),
            Just(Request::Shutdown),
            (bytes_strategy(), proptest::strategy::any::<bool>())
                .prop_map(|(key, sync)| Request::Delete { key, sync }),
            (
                bytes_strategy(),
                bytes_strategy(),
                proptest::strategy::any::<bool>()
            )
                .prop_map(|(key, value, sync)| Request::Put { key, value, sync }),
            (proptest::strategy::any::<bool>(), bytes_strategy()).prop_map(|(pinned, key)| {
                Request::Get {
                    snap: pinned.then_some(42),
                    key,
                }
            }),
            proptest::strategy::any::<u64>().prop_map(|id| Request::SnapClose { id }),
            (
                proptest::collection::vec((bytes_strategy(), bytes_strategy()), 0..8),
                proptest::strategy::any::<bool>()
            )
                .prop_map(|(kvs, sync)| {
                    Request::Write {
                        ops: kvs
                            .into_iter()
                            .enumerate()
                            .map(|(i, (key, value))| {
                                if i % 3 == 0 {
                                    BatchOp::Delete { key }
                                } else {
                                    BatchOp::Put { key, value }
                                }
                            })
                            .collect(),
                        sync,
                    }
                }),
            (
                proptest::strategy::any::<bool>(),
                bytes_strategy(),
                proptest::strategy::any::<bool>(),
                bytes_strategy(),
                proptest::strategy::any::<u32>()
            )
                .prop_map(|(pinned, lo, bounded, hi, limit)| Request::Scan {
                    snap: pinned.then_some(9),
                    lo,
                    hi: bounded.then_some(hi),
                    limit: limit % 10_000,
                }),
            Just(Request::TxnBegin),
            (proptest::strategy::any::<u64>(), bytes_strategy())
                .prop_map(|(txn, key)| Request::TxnGet { txn, key }),
            (
                proptest::strategy::any::<u64>(),
                bytes_strategy(),
                bytes_strategy()
            )
                .prop_map(|(txn, key, value)| Request::TxnPut { txn, key, value }),
            (proptest::strategy::any::<u64>(), bytes_strategy())
                .prop_map(|(txn, key)| Request::TxnDelete { txn, key }),
            (
                proptest::strategy::any::<u64>(),
                proptest::strategy::any::<bool>()
            )
                .prop_map(|(txn, sync)| Request::TxnCommit { txn, sync }),
            proptest::strategy::any::<u64>().prop_map(|txn| Request::TxnRollback { txn }),
            (proptest::strategy::any::<u8>(), bytes_strategy()).prop_map(|(tag, token)| {
                Request::SubscribeChanges {
                    from: match tag % 3 {
                        0 => SubscribeSpec::Oldest,
                        1 => SubscribeSpec::Latest,
                        _ => SubscribeSpec::Token(token),
                    },
                }
            }),
            (
                proptest::strategy::any::<u64>(),
                proptest::strategy::any::<u32>()
            )
                .prop_map(|(stream, max)| Request::PollChanges {
                    stream,
                    max: max % 100_000,
                }),
            proptest::strategy::any::<u64>().prop_map(|stream| Request::CloseStream { stream }),
        ]
    }

    fn response_strategy() -> impl Strategy<Value = Response> {
        prop_oneof![
            Just(Response::Pong),
            Just(Response::Done),
            Just(Response::Value { value: None }),
            bytes_strategy().prop_map(|v| Response::Value { value: Some(v) }),
            proptest::strategy::any::<u64>().prop_map(|id| Response::SnapId { id }),
            proptest::strategy::any::<u64>().prop_map(|id| Response::TxnId { id }),
            (
                proptest::strategy::any::<u64>(),
                proptest::strategy::any::<u64>(),
                proptest::strategy::any::<bool>()
            )
                .prop_map(|(seq, group_len, synced)| Response::Written {
                    seq,
                    group_len,
                    synced,
                }),
            (
                proptest::strategy::any::<bool>(),
                proptest::collection::vec((bytes_strategy(), bytes_strategy()), 0..8)
            )
                .prop_map(|(last, entries)| Response::ScanChunk { entries, last }),
            (
                proptest::strategy::any::<u32>(),
                proptest::strategy::any::<u64>(),
                proptest::strategy::any::<u64>(),
                proptest::strategy::any::<u64>()
            )
                .prop_map(|(jobs, f, r, b)| Response::GcDone {
                    jobs: jobs % 1024,
                    files_collected: f,
                    records_rewritten: r,
                    bytes_reclaimed: b,
                }),
            bytes_strategy().prop_map(|m| Response::Stats {
                text: String::from_utf8_lossy(&m).into_owned(),
            }),
            proptest::strategy::any::<u64>().prop_map(|id| Response::StreamId { id }),
            (
                proptest::strategy::any::<bool>(),
                proptest::strategy::any::<u64>(),
                bytes_strategy(),
                proptest::collection::vec(
                    (
                        proptest::strategy::any::<u32>(),
                        proptest::strategy::any::<u64>(),
                        bytes_strategy(),
                        proptest::option::of(bytes_strategy()),
                        proptest::option::of(proptest::strategy::any::<u64>()),
                    ),
                    0..8
                )
            )
                .prop_map(|(last, lag, resume, raw)| Response::ChangeChunk {
                    events: raw
                        .into_iter()
                        .map(|(shard, seq, key, value, txn)| WireChange {
                            shard: shard % 256,
                            seq,
                            key,
                            value,
                            txn,
                        })
                        .collect(),
                    resume,
                    lag,
                    last,
                }),
            (proptest::strategy::any::<u8>(), bytes_strategy()).prop_map(|(c, m)| Response::Err {
                code: ALL_WIRE_CODES[c as usize % ALL_WIRE_CODES.len()],
                message: String::from_utf8_lossy(&m).into_owned(),
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Every request survives encode → frame → unframe → decode.
        #[test]
        fn request_round_trip(req in request_strategy()) {
            let payload = req.encode();
            let mut wire = Vec::new();
            write_frame(&mut wire, &payload).unwrap();
            let mut r = &wire[..];
            let framed = read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().unwrap();
            prop_assert_eq!(Request::decode(&framed).unwrap(), req);
        }

        /// Every response survives encode → frame → unframe → decode.
        #[test]
        fn response_round_trip(resp in response_strategy()) {
            let payload = resp.encode();
            let mut wire = Vec::new();
            write_frame(&mut wire, &payload).unwrap();
            let mut r = &wire[..];
            let framed = read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().unwrap();
            prop_assert_eq!(Response::decode(&framed).unwrap(), resp);
        }

        /// Arbitrary garbage never panics the decoder: it either decodes
        /// to something (that re-encodes) or fails with a typed error.
        /// (Truncated length prefixes surface as `Corruption` from the
        /// shared coding helpers; structural violations as
        /// `InvalidArgument` — both are protocol-class on the wire.)
        #[test]
        fn garbage_decode_never_panics(payload in proptest::collection::vec(proptest::strategy::any::<u8>(), 0..256)) {
            match Request::decode(&payload) {
                Ok(req) => prop_assert_eq!(Request::decode(&req.encode()).unwrap(), req),
                Err(e) => prop_assert!(matches!(e, Error::InvalidArgument(_) | Error::Corruption(_))),
            }
            match Response::decode(&payload) {
                Ok(resp) => prop_assert_eq!(Response::decode(&resp.encode()).unwrap(), resp),
                Err(e) => prop_assert!(matches!(e, Error::InvalidArgument(_) | Error::Corruption(_))),
            }
        }

        /// Truncating a valid request payload anywhere still yields a
        /// clean typed error or a (shorter) valid request — no panic,
        /// no bogus trailing state.
        #[test]
        fn truncated_request_decode_is_clean(req in request_strategy(), cut in proptest::strategy::any::<u16>()) {
            let payload = req.encode();
            let cut = (cut as usize) % (payload.len() + 1);
            match Request::decode(&payload[..cut]) {
                Ok(short) => prop_assert_eq!(Request::decode(&short.encode()).unwrap(), short),
                Err(e) => prop_assert!(matches!(e, Error::InvalidArgument(_) | Error::Corruption(_))),
            }
        }
    }
}
