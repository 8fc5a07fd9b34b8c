//! In-memory span tracing for the traced run.
//!
//! Spans are recorded only from this benchmark's own code, around calls
//! into the layers' public functions: the client loop, the engine
//! wrapper ([`crate::tengine`]) and the env wrapper ([`crate::tenv`]).
//! Each span has a name, start, end and parent; the spans of one request
//! share its id. A thread-local frame stack makes a call's spans children
//! of the innermost open span on the same thread. Engine calls served on
//! a server connection thread have no such frame; they find their
//! request through the in-flight key registry the client fills before it
//! sends. Env I/O on threads with no open span (GC pipeline workers) has
//! no parent and is reported as background work.
//!
//! Spans stay in memory while the phase runs and are analysed when it
//! ends, so tracing does no I/O of its own during the measurement.

use crate::stats::Samples;
use scavenger_env::IoClass;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A client operation type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    Get,
    Put,
    Batch,
    Scan,
}

impl OpKind {
    pub const ALL: [OpKind; 4] = [OpKind::Put, OpKind::Get, OpKind::Scan, OpKind::Batch];

    pub fn label(self) -> &'static str {
        match self {
            OpKind::Get => "get",
            OpKind::Put => "put",
            OpKind::Batch => "batch",
            OpKind::Scan => "scan",
        }
    }
}

/// An engine facade call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CoreOp {
    Get,
    Put,
    Delete,
    Write,
    Scan,
}

impl CoreOp {
    /// The calls the per-layer report names.
    pub const REPORTED: [CoreOp; 4] = [CoreOp::Put, CoreOp::Get, CoreOp::Scan, CoreOp::Write];

    pub fn label(self) -> &'static str {
        match self {
            CoreOp::Get => "get",
            CoreOp::Put => "put",
            CoreOp::Delete => "delete",
            CoreOp::Write => "write",
            CoreOp::Scan => "scan",
        }
    }
}

/// An env call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EnvOp {
    Append,
    Sync,
    ReadAt,
    ReadFile,
}

/// What a span timed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Name {
    /// A client's view of one request (open loop: from its due time).
    Client(OpKind),
    /// Open loop: from the request's due time until it was sent.
    Late,
    /// A request on the wire: from send until the reply was read.
    Rpc,
    /// An engine facade call.
    Core(CoreOp),
    /// An env call, by I/O class.
    Env(IoClass, EnvOp),
}

/// One recorded span. Times are nanoseconds since the tracer's epoch;
/// `parent == 0` means no parent, `req == 0` means no request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: Name,
    pub start: u64,
    pub end: u64,
}

impl Name {
    pub fn label(&self) -> String {
        match self {
            Name::Client(op) => format!("client.{}", op.label()),
            Name::Late => "gen.late".to_string(),
            Name::Rpc => "server.rpc".to_string(),
            Name::Core(op) => format!("core.{}", op.label()),
            Name::Env(class, op) => format!("env.{}.{op:?}", class.label()).to_lowercase(),
        }
    }
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The identity a child span inherits: the enclosing span and request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frame {
    pub id: u64,
    pub req: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

fn top_frame() -> Option<Frame> {
    STACK.with(|s| s.borrow().last().copied())
}

/// A span that has started and not yet been recorded.
#[derive(Clone, Copy, Debug)]
pub struct Open {
    pub span: Span,
}

impl Open {
    pub fn frame(&self) -> Frame {
        Frame {
            id: self.span.id,
            req: self.span.req,
        }
    }
}

/// The span recorder shared by the client, the engine wrapper and the
/// env wrapper.
pub struct Tracer {
    epoch: Instant,
    on: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    inflight: Mutex<HashMap<Vec<u8>, Frame>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            inflight: Mutex::new(HashMap::new()),
        }
    }
}

impl Tracer {
    /// Start or stop recording (set-up and verification are not traced).
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Begin a span under `parent`.
    pub fn open_under(&self, name: Name, parent: Option<Frame>) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, req) = match parent {
            Some(f) => (f.id, f.req),
            None => (0, 0),
        };
        let start = self.now();
        Open {
            span: Span {
                id,
                parent,
                req,
                name,
                start,
                end: start,
            },
        }
    }

    /// Begin the root span of a new request; its id is the request id.
    pub fn open_request(&self, name: Name) -> Open {
        let mut o = self.open_under(name, None);
        o.span.req = o.span.id;
        o
    }

    /// Begin a span under this thread's innermost open span or, on a
    /// thread with none, under the in-flight request registered for
    /// `key`. `None` while tracing is off.
    pub fn open(&self, name: Name, key: &[u8]) -> Option<Open> {
        if !self.is_on() {
            return None;
        }
        let parent = top_frame().or_else(|| self.inflight(key));
        Some(self.open_under(name, parent))
    }

    /// End `open` now and record it.
    pub fn close(&self, mut open: Open) {
        open.span.end = self.now();
        self.record(open.span);
    }

    /// Run `f` with `frame` as this thread's innermost open span.
    pub fn with_frame<R>(frame: Frame, f: impl FnOnce() -> R) -> R {
        STACK.with(|s| s.borrow_mut().push(frame));
        let r = f();
        STACK.with(|s| s.borrow_mut().pop());
        r
    }

    /// Time `f` as a span that may have children.
    pub fn call<R>(&self, name: Name, key: &[u8], f: impl FnOnce() -> R) -> R {
        match self.open(name, key) {
            None => f(),
            Some(o) => {
                let r = Self::with_frame(o.frame(), f);
                self.close(o);
                r
            }
        }
    }

    /// Time `f` as a leaf span under this thread's innermost open span
    /// (no parent on a thread with none).
    pub fn leaf<R>(&self, name: Name, f: impl FnOnce() -> R) -> R {
        if !self.is_on() {
            return f();
        }
        let o = self.open_under(name, top_frame());
        let r = f();
        self.close(o);
        r
    }

    /// Announce that the request `frame` is about to reach the engine
    /// for `key` on another thread.
    pub fn register(&self, key: &[u8], frame: Frame) {
        self.inflight
            .lock()
            .expect("in-flight registry poisoned")
            .insert(key.to_vec(), frame);
    }

    pub fn unregister(&self, key: &[u8]) {
        self.inflight
            .lock()
            .expect("in-flight registry poisoned")
            .remove(key);
    }

    fn inflight(&self, key: &[u8]) -> Option<Frame> {
        self.inflight
            .lock()
            .expect("in-flight registry poisoned")
            .get(key)
            .copied()
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }

    /// Measured cost of recording one leaf span, nanoseconds, on a
    /// private tracer (the basis of `trace.overhead_frac`).
    pub fn calibrate_span_ns() -> f64 {
        const N: u64 = 200_000;
        let t = Tracer::default();
        t.set_on(true);
        let start = Instant::now();
        for i in 0..N {
            t.leaf(Name::Env(IoClass::Other, EnvOp::Append), || {
                std::hint::black_box(i)
            });
        }
        start.elapsed().as_nanos() as f64 / N as f64
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children's intervals cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let mut covered = 0;
            let mut cursor = s.start;
            kids.sort_unstable();
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// The traced phase's time, split by layer.
#[derive(Default)]
pub struct Breakdown {
    /// Client-observed time, summed over requests.
    pub client_ns: u64,
    /// Client-observed time no layer span covers, plus engine calls that
    /// could not be tied to a request.
    pub unattributed_ns: u64,
    /// Open-loop lateness per request.
    pub late: Samples,
    /// Per request: wire time minus the engine time inside it.
    pub server_self: Samples,
    /// Engine facade call durations, by call.
    pub core: HashMap<CoreOp, Samples>,
    /// Engine facade self time (lsm, table and core CPU work).
    pub core_self_ns: u64,
    /// Env time under a request, by class.
    pub env_fg_ns: HashMap<IoClass, u64>,
    /// Env time with no request parent (background workers), by class.
    pub env_bg_ns: HashMap<IoClass, u64>,
    /// WAL sync durations.
    pub wal_sync: Samples,
    /// Spans recorded.
    pub spans: usize,
    /// Per span name: count, total time and self time, nanoseconds.
    pub by_name: BTreeMap<String, (u64, u64, u64)>,
}

impl Breakdown {
    pub fn from_spans(spans: &[Span]) -> Breakdown {
        let selfs = self_times(spans);
        let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
        let mut b = Breakdown {
            spans: spans.len(),
            ..Breakdown::default()
        };
        for (s, &own) in spans.iter().zip(&selfs) {
            let e = b.by_name.entry(s.name.label()).or_default();
            *e = (e.0 + 1, e.1 + s.dur(), e.2 + own);
            let has_parent = s.parent != 0 && ids.contains(&s.parent);
            match s.name {
                Name::Client(_) => {
                    b.client_ns += s.dur();
                    b.unattributed_ns += own;
                }
                Name::Late => b.late.push(s.dur()),
                Name::Rpc => b.server_self.push(own),
                Name::Core(op) => {
                    b.core.entry(op).or_default().push(s.dur());
                    b.core_self_ns += own;
                    if !has_parent {
                        b.unattributed_ns += s.dur();
                    }
                }
                Name::Env(class, op) => {
                    let slot = if has_parent {
                        &mut b.env_fg_ns
                    } else {
                        &mut b.env_bg_ns
                    };
                    *slot.entry(class).or_default() += s.dur();
                    if class == IoClass::Wal && op == EnvOp::Sync {
                        b.wal_sync.push(s.dur());
                    }
                }
            }
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: Name, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, Name::Client(OpKind::Put), 0, 100),
            span(2, 1, Name::Core(CoreOp::Put), 10, 90),
            // Two overlapping env children cover [20, 60) once: 40 ns.
            span(3, 2, Name::Env(IoClass::Wal, EnvOp::Append), 20, 50),
            span(4, 2, Name::Env(IoClass::Flush, EnvOp::Append), 40, 60),
            // A child sticking out of its parent only counts inside it.
            span(5, 2, Name::Env(IoClass::Wal, EnvOp::Sync), 85, 95),
        ];
        assert_eq!(self_times(&spans), vec![20, 80 - 40 - 5, 30, 20, 10]);
    }

    #[test]
    fn breakdown_splits_time_by_layer() {
        let spans = [
            span(1, 0, Name::Client(OpKind::Get), 0, 100),
            span(2, 1, Name::Late, 0, 10),
            span(3, 1, Name::Rpc, 10, 100),
            span(4, 3, Name::Core(CoreOp::Get), 30, 80),
            span(5, 4, Name::Env(IoClass::FgValueRead, EnvOp::ReadAt), 40, 60),
            span(6, 4, Name::Env(IoClass::Wal, EnvOp::Sync), 60, 70),
            // Background I/O and an engine call no request claimed.
            span(7, 0, Name::Env(IoClass::GcRead, EnvOp::ReadAt), 0, 500),
            span(8, 0, Name::Core(CoreOp::Put), 200, 230),
        ];
        let b = Breakdown::from_spans(&spans);
        assert_eq!(b.client_ns, 100);
        assert_eq!(b.unattributed_ns, 30);
        assert_eq!(b.late.total_ns(), 10);
        assert_eq!(b.server_self.total_ns(), 90 - 50);
        assert_eq!(b.core[&CoreOp::Get].total_ns(), 50);
        assert_eq!(b.core_self_ns, 50 - 30 + 30);
        assert_eq!(b.env_fg_ns[&IoClass::FgValueRead], 20);
        assert_eq!(b.env_bg_ns[&IoClass::GcRead], 500);
        assert_eq!(b.wal_sync.len(), 1);
        assert_eq!(b.spans, 8);
        assert_eq!(b.by_name["core.get"], (1, 50, 20));
        assert_eq!(b.by_name["env.wal.sync"], (1, 10, 10));
    }

    #[test]
    fn frames_nest_spans_and_the_registry_links_other_threads() {
        let t = Tracer::default();
        assert!(t.open(Name::Rpc, b"k").is_none(), "off records nothing");
        t.set_on(true);
        let root = t.open_request(Name::Client(OpKind::Put));
        Tracer::with_frame(root.frame(), || {
            t.call(Name::Core(CoreOp::Put), b"k", || {
                t.leaf(Name::Env(IoClass::Wal, EnvOp::Append), || ());
            });
        });
        t.close(root);
        t.register(b"k", root.frame());
        std::thread::scope(|s| {
            s.spawn(|| t.call(Name::Core(CoreOp::Get), b"k", || ()));
            s.spawn(|| t.leaf(Name::Env(IoClass::GcRead, EnvOp::ReadAt), || ()));
        });
        t.unregister(b"k");
        let spans = t.take_spans();
        let by = |n: Name| spans.iter().find(|s| s.name == n).copied().unwrap();
        let put = by(Name::Core(CoreOp::Put));
        assert_eq!(put.parent, root.span.id);
        assert_eq!(put.req, root.span.id);
        assert_eq!(by(Name::Env(IoClass::Wal, EnvOp::Append)).parent, put.id);
        let linked = by(Name::Core(CoreOp::Get));
        assert_eq!((linked.parent, linked.req), (root.span.id, root.span.id));
        assert_eq!(by(Name::Env(IoClass::GcRead, EnvOp::ReadAt)).parent, 0);
        assert!(Tracer::calibrate_span_ns() > 0.0);
    }
}
