//! Inputs made from the seed, and the expected answers to check against.
//!
//! Key `id` at version `v` holds `make_value(id, v, size(id, v))`, where
//! the size is drawn from the workload's value distribution by a generator
//! seeded with `(seed, id, v)`. A value therefore names its own version
//! (see [`Dataset::version_of`]) and any row can be checked byte for byte.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scavenger_workload::dist::KeyDist;
use scavenger_workload::keys::{encode_key, KEY_LEN};
use scavenger_workload::values::{make_value, ValueGen};

use crate::trace::OpKind;

fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A key space of `n` keys with the value distribution that fills it.
pub struct Dataset {
    seed: u64,
    values: ValueGen,
    n: u64,
}

impl Dataset {
    pub fn new(seed: u64, n: u64, values: ValueGen) -> Dataset {
        Dataset { seed, values, n }
    }

    /// Keys needed for about `bytes` of logical data.
    pub fn keys_for(bytes: u64, values: &ValueGen) -> u64 {
        (bytes as f64 / (values.mean_size() + KEY_LEN as f64)) as u64
    }

    pub fn n(&self) -> u64 {
        self.n
    }

    pub fn key(id: u64) -> Vec<u8> {
        encode_key(id)
    }

    pub fn size(&self, id: u64, version: u64) -> usize {
        let mut rng = StdRng::seed_from_u64(mix64(self.seed ^ mix64(id) ^ version.rotate_left(40)));
        self.values.next_size(&mut rng)
    }

    pub fn value(&self, id: u64, version: u64) -> Vec<u8> {
        make_value(id, version, self.size(id, version))
    }

    /// The version `value` claims to be for key `id`, if it is exactly
    /// that version's bytes.
    pub fn version_of(&self, id: u64, value: &[u8]) -> Option<u64> {
        let tag: [u8; 8] = value.get(1..9)?.try_into().ok()?;
        let version = (u64::from_le_bytes(tag) ^ id).rotate_right(32);
        (self.value(id, version) == value).then_some(version)
    }

    /// Logical bytes (key plus value) when key `id` is at `versions[id]`.
    pub fn logical_bytes(&self, versions: &[u64]) -> u64 {
        versions
            .iter()
            .enumerate()
            .map(|(id, &v)| (KEY_LEN + self.size(id as u64, v)) as u64)
            .sum()
    }
}

/// A seeded shuffle of `0..n`: the load order.
pub fn shuffled(n: u64, seed: u64) -> Vec<u64> {
    let mut ids: Vec<u64> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(mix64(seed ^ 0x10ad));
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.gen_range(0..=i));
    }
    ids
}

/// One client operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Get(u64),
    Put(u64),
    /// Two distinct keys written atomically.
    Batch(u64, u64),
    /// Rows `[id, id + len)` of the key space.
    Scan(u64, u64),
}

impl Op {
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Get(_) => OpKind::Get,
            Op::Put(_) => OpKind::Put,
            Op::Batch(..) => OpKind::Batch,
            Op::Scan(..) => OpKind::Scan,
        }
    }
}

/// Operation shares in percent (puts take the rest) and the scan length
/// limit.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub get: u32,
    pub scan: u32,
    pub batch: u32,
    pub scan_max: u64,
}

/// Draws operations over the key space.
pub struct OpGen {
    rng: StdRng,
    keys: KeyDist,
    mix: Mix,
    n: u64,
}

impl OpGen {
    /// Zipfian(`theta`) over all `n` keys, or uniform when `theta` is 0.
    pub fn new(seed: u64, n: u64, theta: f64, mix: Mix) -> OpGen {
        OpGen {
            rng: StdRng::seed_from_u64(mix64(seed ^ 0x09e5)),
            keys: if theta > 0.0 {
                KeyDist::zipfian(n, theta)
            } else {
                KeyDist::uniform(n)
            },
            mix,
            n,
        }
    }

    fn id(&mut self) -> u64 {
        self.keys.next(&mut self.rng, self.n)
    }

    pub fn next(&mut self) -> Op {
        let roll = self.rng.gen_range(0..100u32);
        let id = self.id();
        let m = self.mix;
        if roll < m.get {
            Op::Get(id)
        } else if roll < m.get + m.scan {
            Op::Scan(id, self.rng.gen_range(1..=m.scan_max))
        } else if roll < m.get + m.scan + m.batch {
            let mut other = self.id();
            if other == id {
                other = (id + 1) % self.n;
            }
            Op::Batch(id, other)
        } else {
            Op::Put(id)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_name_their_version() {
        let ds = Dataset::new(7, 100, ValueGen::mixed_8k());
        for (id, v) in [(0, 1), (5, 2), (99, 12345)] {
            let val = ds.value(id, v);
            assert_eq!(val.len(), ds.size(id, v));
            assert_eq!(ds.version_of(id, &val), Some(v));
            assert_eq!(ds.version_of(id + 1, &val), None);
            let mut bad = val.clone();
            *bad.last_mut().unwrap() ^= 1;
            assert_eq!(ds.version_of(id, &bad), None);
        }
        assert_eq!(ds.version_of(0, b"short"), None);
    }

    #[test]
    fn same_seed_same_inputs() {
        let mix = Mix {
            get: 40,
            scan: 10,
            batch: 20,
            scan_max: 20,
        };
        let a: Vec<Op> = {
            let mut g = OpGen::new(3, 1000, 0.9, mix);
            (0..2000).map(|_| g.next()).collect()
        };
        let mut g = OpGen::new(3, 1000, 0.9, mix);
        assert!(a.iter().all(|op| *op == g.next()));
        for op in &a {
            match *op {
                Op::Get(id) | Op::Put(id) => assert!(id < 1000),
                Op::Scan(id, len) => assert!(id < 1000 && (1..=20).contains(&len)),
                Op::Batch(x, y) => assert!(x < 1000 && y < 1000 && x != y),
            }
        }
        assert!(a.iter().any(|op| matches!(op, Op::Batch(..))));
        assert_eq!(shuffled(50, 1), shuffled(50, 1));
        assert_ne!(shuffled(50, 1), shuffled(50, 2));
    }
}
