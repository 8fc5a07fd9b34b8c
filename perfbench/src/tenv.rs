//! An [`Env`] wrapper that times `append`, `sync`, `read_at` and
//! `read_file` per [`IoClass`] and counts bytes and operations per class
//! on its own, so the traced run can check its attribution against the
//! inner env's counters.

use crate::report::Phase;
use crate::trace::{EnvOp, Name, Tracer};
use bytes::Bytes;
use scavenger_env::io_stats::{ClassSnapshot, ALL_IO_CLASSES};
use scavenger_env::IoStatsSnapshot;
use scavenger_env::{Env, EnvRef, IoClass, IoStats, RandomAccessFile, WritableFile};
use scavenger_util::Result;
use std::sync::Arc;

pub struct TracedEnv {
    inner: EnvRef,
    tracer: Arc<Tracer>,
    counts: Arc<IoStats>,
}

impl TracedEnv {
    pub fn new(inner: EnvRef, tracer: Arc<Tracer>) -> TracedEnv {
        TracedEnv {
            inner,
            tracer,
            counts: Arc::new(IoStats::new()),
        }
    }

    /// Bytes and operations this wrapper saw, per class.
    pub fn counts(&self) -> Arc<IoStats> {
        self.counts.clone()
    }

    /// The wrapper must see exactly the bytes the inner env counted from
    /// `counts0`/`io0` until `io1`, class by class, and as many reads;
    /// anything else is a tracing bug and a wrong answer. Take `io1` after
    /// the store is closed: `MemEnv` counts buffered appends only when it
    /// writes its buffer out. Write operations are not compared, since
    /// `MemEnv` counts one per buffered device write, not one per `append`.
    pub fn check_attribution(
        &self,
        counts0: &IoStatsSnapshot,
        io0: &IoStatsSnapshot,
        io1: &IoStatsSnapshot,
        p: &mut Phase,
    ) {
        let ours = self.counts.snapshot().delta(counts0);
        let theirs = io1.delta(io0);
        for c in ALL_IO_CLASSES {
            if !same_attribution(&ours.class(c), &theirs.class(c)) {
                p.mismatch(format!(
                    "env wrapper attributed {:?} to {}, the env counted {:?}",
                    ours.class(c),
                    c.label(),
                    theirs.class(c)
                ));
            }
        }
    }
}

/// True when the wrapper's counts for a class agree with the inner env's:
/// the same bytes both ways and the same number of reads.
pub fn same_attribution(ours: &ClassSnapshot, theirs: &ClassSnapshot) -> bool {
    ours.read_bytes == theirs.read_bytes
        && ours.read_ops == theirs.read_ops
        && ours.write_bytes == theirs.write_bytes
}

struct TracedWritable {
    inner: Box<dyn WritableFile>,
    tracer: Arc<Tracer>,
    counts: Arc<IoStats>,
    class: IoClass,
}

impl WritableFile for TracedWritable {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        let inner = &mut self.inner;
        self.tracer
            .leaf(Name::Env(self.class, EnvOp::Append), || inner.append(data))?;
        self.counts.record_write(self.class, data.len() as u64);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        let inner = &mut self.inner;
        self.tracer
            .leaf(Name::Env(self.class, EnvOp::Sync), || inner.sync())
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

struct TracedReadable {
    inner: Arc<dyn RandomAccessFile>,
    tracer: Arc<Tracer>,
    counts: Arc<IoStats>,
    class: IoClass,
}

impl RandomAccessFile for TracedReadable {
    fn read_at(&self, offset: u64, len: usize) -> Result<Bytes> {
        let data = self.tracer.leaf(Name::Env(self.class, EnvOp::ReadAt), || {
            self.inner.read_at(offset, len)
        })?;
        self.counts.record_read(self.class, data.len() as u64);
        Ok(data)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

impl Env for TracedEnv {
    fn new_writable(&self, path: &str, class: IoClass) -> Result<Box<dyn WritableFile>> {
        Ok(Box::new(TracedWritable {
            inner: self.inner.new_writable(path, class)?,
            tracer: self.tracer.clone(),
            counts: self.counts.clone(),
            class,
        }))
    }

    fn open_random_access(&self, path: &str, class: IoClass) -> Result<Arc<dyn RandomAccessFile>> {
        Ok(Arc::new(TracedReadable {
            inner: self.inner.open_random_access(path, class)?,
            tracer: self.tracer.clone(),
            counts: self.counts.clone(),
            class,
        }))
    }

    fn read_file(&self, path: &str, class: IoClass) -> Result<Bytes> {
        let data = self.tracer.leaf(Name::Env(class, EnvOp::ReadFile), || {
            self.inner.read_file(path, class)
        })?;
        self.counts.record_read(class, data.len() as u64);
        Ok(data)
    }

    fn remove_file(&self, path: &str) -> Result<()> {
        self.inner.remove_file(path)
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.inner.rename(from, to)
    }

    fn file_exists(&self, path: &str) -> bool {
        self.inner.file_exists(path)
    }

    fn file_size(&self, path: &str) -> Result<u64> {
        self.inner.file_size(path)
    }

    fn list_prefix(&self, prefix: &str) -> Result<Vec<String>> {
        self.inner.list_prefix(prefix)
    }

    fn create_dir_all(&self, path: &str) -> Result<()> {
        self.inner.create_dir_all(path)
    }

    /// The inner env's counters, so the engine's own statistics read the
    /// same with and without the wrapper.
    fn io_stats(&self) -> Arc<IoStats> {
        self.inner.io_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Breakdown;
    use scavenger::{Bytes, Db, EngineMode, Options};
    use scavenger_env::MemEnv;

    #[test]
    fn bytes_pass_through_and_counts_match_the_inner_env() {
        let inner = MemEnv::shared();
        let tracer = Arc::new(Tracer::default());
        tracer.set_on(true);
        let env = Arc::new(TracedEnv::new(inner.clone(), tracer.clone()));
        {
            let mut f = env.new_writable("d/f", IoClass::Flush).unwrap();
            f.append(b"hello, ").unwrap();
            f.append(b"world").unwrap();
            f.sync().unwrap();
        }
        let r = env.open_random_access("d/f", IoClass::FgValueRead).unwrap();
        assert_eq!(r.read_at(7, 5).unwrap().as_ref(), b"world");
        assert_eq!(r.len(), 12);
        assert_eq!(
            env.read_file("d/f", IoClass::Manifest).unwrap().as_ref(),
            b"hello, world"
        );
        assert_eq!(
            inner.read_file("d/f", IoClass::Other).unwrap().as_ref(),
            b"hello, world"
        );

        // A real engine through the wrapper: every class the engine
        // touched is attributed exactly as the inner env counted it.
        let db_env = MemEnv::shared();
        let wrapped = Arc::new(TracedEnv::new(db_env.clone(), tracer.clone()));
        let db = Db::open(Options::new(wrapped.clone(), "db", EngineMode::Scavenger)).unwrap();
        for i in 0..300u32 {
            db.put(i.to_be_bytes(), Bytes::from(vec![i as u8; 700]))
                .unwrap();
        }
        db.flush().unwrap();
        for i in 0..300u32 {
            assert_eq!(db.get(i.to_be_bytes()).unwrap().unwrap().len(), 700);
        }
        let ours = wrapped.counts().snapshot();
        let theirs = db_env.io_stats().snapshot();
        for class in ALL_IO_CLASSES {
            let (a, b) = (ours.class(class), theirs.class(class));
            assert!(
                same_attribution(&a, &b),
                "{}: {a:?} vs {b:?}",
                class.label()
            );
            assert!(
                a.write_ops >= b.write_ops,
                "one append per buffered write at most"
            );
        }
        assert!(ours.class(IoClass::Wal).write_bytes > 0);
        assert!(ours.class(IoClass::Flush).write_ops > 0);
        // The engine reads its own statistics through the wrapper.
        assert_eq!(db.stats().io, theirs);

        let b = Breakdown::from_spans(&tracer.take_spans());
        assert!(b.env_bg_ns.contains_key(&IoClass::Flush));
        assert!(b.wal_sync.len() > 0);
    }
}
