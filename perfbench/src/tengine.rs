//! An engine wrapper that times every facade call as a `core.<op>` span.
//!
//! It implements the traits `Server::start` accepts (`Engine +
//! Transactional + ChangeSubscriber + Clone`), so one wrapper serves
//! direct calls and the server alike. A scan's span runs from the
//! `scan` call through the iterator's last `next`, so the rows the
//! server streams count as engine time, not server time.

use crate::trace::{CoreOp, Name, Open, Tracer};
use scavenger::{
    Bytes, ChangeSubscriber, DbStats, GcReport, KvRead, KvWrite, Maintenance, PinnedReader,
    ReadOptions, Result, ScanEntry, SpaceBreakdown, SubscribeFrom, Transactional, WriteBatch,
    WriteOptions, WriteReceipt,
};
use scavenger_util::ikey::SeqNo;
use std::sync::Arc;

#[derive(Clone)]
pub struct Traced<E> {
    inner: E,
    tracer: Arc<Tracer>,
}

impl<E> Traced<E> {
    pub fn new(inner: E, tracer: Arc<Tracer>) -> Traced<E> {
        Traced { inner, tracer }
    }
}

/// A scan iterator whose span stays open until it is dropped.
pub struct TracedIter<I> {
    inner: I,
    tracer: Arc<Tracer>,
    open: Option<Open>,
}

impl<I: Iterator<Item = Result<ScanEntry>>> Iterator for TracedIter<I> {
    type Item = Result<ScanEntry>;

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.open {
            None => self.inner.next(),
            Some(o) => {
                let inner = &mut self.inner;
                let r = Tracer::with_frame(o.frame(), || inner.next());
                o.span.end = self.tracer.now();
                r
            }
        }
    }
}

impl<I> Drop for TracedIter<I> {
    fn drop(&mut self) {
        if let Some(o) = self.open.take() {
            self.tracer.record(o.span);
        }
    }
}

fn traced_scan<I>(
    tracer: &Arc<Tracer>,
    lo: &[u8],
    scan: impl FnOnce() -> Result<I>,
) -> Result<TracedIter<I>> {
    let Some(mut open) = tracer.open(Name::Core(CoreOp::Scan), lo) else {
        return Ok(TracedIter {
            inner: scan()?,
            tracer: tracer.clone(),
            open: None,
        });
    };
    let r = Tracer::with_frame(open.frame(), scan);
    open.span.end = tracer.now();
    match r {
        Ok(inner) => Ok(TracedIter {
            inner,
            tracer: tracer.clone(),
            open: Some(open),
        }),
        Err(e) => {
            tracer.record(open.span);
            Err(e)
        }
    }
}

/// A view or snapshot of a traced engine.
pub struct TracedPin<P> {
    inner: P,
    tracer: Arc<Tracer>,
}

impl<P: PinnedReader> PinnedReader for TracedPin<P> {
    type Iter = TracedIter<P::Iter>;

    fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        self.tracer
            .call(Name::Core(CoreOp::Get), key, || self.inner.get(key))
    }

    fn scan(&self, lo: &[u8], hi: Option<&[u8]>) -> Result<Self::Iter> {
        traced_scan(&self.tracer, lo, || self.inner.scan(lo, hi))
    }
}

impl<E: KvRead> KvRead for Traced<E> {
    type View = TracedPin<E::View>;
    type Snap = TracedPin<E::Snap>;
    type Iter = TracedIter<E::Iter>;

    fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        self.tracer
            .call(Name::Core(CoreOp::Get), key, || self.inner.get(key))
    }

    fn get_with(&self, opts: &ReadOptions<'_>, key: &[u8]) -> Result<Option<Bytes>> {
        self.tracer.call(Name::Core(CoreOp::Get), key, || {
            self.inner.get_with(opts, key)
        })
    }

    fn scan(&self, lo: &[u8], hi: Option<&[u8]>) -> Result<Self::Iter> {
        traced_scan(&self.tracer, lo, || self.inner.scan(lo, hi))
    }

    fn scan_with(&self, opts: &ReadOptions<'_>) -> Result<Self::Iter> {
        let lo = opts.lower_bound.as_deref().unwrap_or_default();
        traced_scan(&self.tracer, lo, || self.inner.scan_with(opts))
    }

    fn view(&self) -> Self::View {
        TracedPin {
            inner: self.inner.view(),
            tracer: self.tracer.clone(),
        }
    }

    fn snapshot(&self) -> Self::Snap {
        TracedPin {
            inner: self.inner.snapshot(),
            tracer: self.tracer.clone(),
        }
    }
}

/// The key a write batch is linked to its request by.
fn first_key(batch: &WriteBatch) -> &[u8] {
    batch.entries().first().map_or(&[], |e| e.key.as_slice())
}

impl<E: KvWrite> KvWrite for Traced<E> {
    fn put_with(&self, opts: &WriteOptions, key: &[u8], value: Bytes) -> Result<WriteReceipt> {
        self.tracer.call(Name::Core(CoreOp::Put), key, || {
            self.inner.put_with(opts, key, value)
        })
    }

    fn delete_with(&self, opts: &WriteOptions, key: &[u8]) -> Result<WriteReceipt> {
        self.tracer.call(Name::Core(CoreOp::Delete), key, || {
            self.inner.delete_with(opts, key)
        })
    }

    fn write_with(&self, opts: &WriteOptions, batch: WriteBatch) -> Result<WriteReceipt> {
        let key = first_key(&batch).to_vec();
        self.tracer.call(Name::Core(CoreOp::Write), &key, || {
            self.inner.write_with(opts, batch)
        })
    }
}

impl<E: Maintenance> Maintenance for Traced<E> {
    fn flush(&self) -> Result<()> {
        self.inner.flush()
    }

    fn compact_all(&self) -> Result<()> {
        self.inner.compact_all()
    }

    fn run_gc(&self) -> Result<GcReport> {
        self.inner.run_gc()
    }

    fn run_gc_until_clean(&self) -> Result<usize> {
        self.inner.run_gc_until_clean()
    }

    fn resume(&self) -> Result<()> {
        self.inner.resume()
    }

    fn stats(&self) -> DbStats {
        self.inner.stats()
    }

    fn per_shard_stats(&self) -> Vec<DbStats> {
        self.inner.per_shard_stats()
    }

    fn space(&self) -> SpaceBreakdown {
        self.inner.space()
    }
}

impl<E: Transactional> Transactional for Traced<E> {
    fn txn_read_seq(view: &Self::View, key: &[u8]) -> SeqNo {
        E::txn_read_seq(&view.inner, key)
    }

    fn txn_commit(
        &self,
        reads: &[(Vec<u8>, SeqNo)],
        batch: WriteBatch,
        opts: &WriteOptions,
    ) -> Result<WriteReceipt> {
        let key = first_key(&batch).to_vec();
        self.tracer.call(Name::Core(CoreOp::Write), &key, || {
            self.inner.txn_commit(reads, batch, opts)
        })
    }
}

impl<E: ChangeSubscriber> ChangeSubscriber for Traced<E> {
    type Stream = E::Stream;

    fn subscribe_changes(&self, from: SubscribeFrom) -> Result<Self::Stream> {
        self.inner.subscribe_changes(from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Breakdown;
    use scavenger::{Db, DbShards, Engine, EngineMode, MemEnv, Options, ShardedOptions};

    /// A small mixed run; returns everything the engine answered.
    fn mixed_run<E: Engine + Transactional>(db: &E) -> Vec<String> {
        let mut out = Vec::new();
        for i in 0..400u32 {
            let key = format!("k{:05}", i % 150);
            let len = if i % 3 == 0 { 40 } else { 900 };
            match i % 7 {
                0..=2 => out.push(format!(
                    "{:?}",
                    db.put(key.as_bytes(), vec![i as u8; len].into())
                        .map(|r| r.synced)
                )),
                3 => out.push(format!("{:?}", db.get(key.as_bytes()))),
                4 => {
                    let rows: Vec<_> = db
                        .scan(key.as_bytes(), None)
                        .unwrap()
                        .take(7)
                        .map(|e| e.map(|e| (e.key, e.value)))
                        .collect();
                    out.push(format!("{rows:?}"));
                }
                5 => {
                    let mut b = WriteBatch::new();
                    b.put(key.as_bytes(), Bytes::from(vec![1u8; 600]));
                    b.put(
                        format!("k{:05}", (i * 7) % 150).as_bytes(),
                        Bytes::from_static(b"x"),
                    );
                    out.push(format!("{:?}", db.write(b).map(|r| r.synced)));
                }
                _ => {
                    let mut t = db.begin();
                    let seen = t.get(key.as_bytes()).unwrap();
                    t.put(key.as_bytes(), Bytes::from(vec![2u8; 700]));
                    out.push(format!("{seen:?} {:?}", t.commit().map(|r| r.synced)));
                }
            }
            if i % 100 == 99 {
                db.flush().unwrap();
                let view = db.view();
                out.push(format!("{:?}", view.get(key.as_bytes())));
                out.push(format!("{}", view.scan(b"", None).unwrap().count()));
            }
        }
        out
    }

    #[test]
    fn wrapper_answers_like_the_engine_it_wraps() {
        let tracer = Arc::new(Tracer::default());
        tracer.set_on(true);
        let open =
            || Db::open(Options::new(MemEnv::shared(), "db", EngineMode::Scavenger)).unwrap();
        let plain = mixed_run(&open());
        let traced = mixed_run(&Traced::new(open(), tracer.clone()));
        assert_eq!(plain, traced);

        let sharded = || {
            ShardedOptions::builder(MemEnv::shared(), "s", EngineMode::Scavenger)
                .num_shards(3)
                .open()
                .unwrap()
        };
        let plain: Vec<String> = mixed_run::<DbShards>(&sharded());
        let traced = mixed_run(&Traced::new(sharded(), tracer.clone()));
        assert_eq!(plain, traced);

        let b = Breakdown::from_spans(&tracer.take_spans());
        for op in CoreOp::REPORTED {
            assert!(b.core[&op].len() > 0, "{}", op.label());
        }
    }
}
