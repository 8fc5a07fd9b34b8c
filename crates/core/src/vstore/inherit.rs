//! Inheritance forest for no-writeback GC (paper §II-B).
//!
//! TerarkDB (and Scavenger) never rewrite index entries during GC.
//! Instead, when GC moves the valid records of file `F` into new files
//! `{G, H}` (hot/cold split can produce more than one output), the engine
//! records edges `F → G`, `F → H`. A reference stored in the index that
//! still names `F` is resolved at read time by walking to the *leaves* of
//! `F`'s subtree — the files that currently hold whatever survived from
//! `F`. Each GC consumes whole files, so interior nodes never gain new
//! children after deletion; the forest only grows at its leaves.
//!
//! Every read of a collected file's value and every GC validity check
//! asks for such a leaf set, so the forest memoises each collected
//! file's sorted leaves. Adding an edge needs `&mut self` and clears the
//! memo, so under the store's `RwLock` a set computed by a reader can
//! never outlive the edges it was computed from.

use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The `old file → new files` DAG.
#[derive(Default)]
pub struct InheritForest {
    children: HashMap<u64, Vec<u64>>,
    /// Sorted leaf sets of collected files, filled on first use.
    memo: RwLock<HashMap<u64, Arc<[u64]>>>,
}

impl InheritForest {
    /// Empty forest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `new` inherits (part of) `old`'s contents.
    pub fn add_edge(&mut self, old: u64, new: u64) {
        let c = self.children.entry(old).or_default();
        if !c.contains(&new) {
            c.push(new);
            self.memo.get_mut().clear();
        }
    }

    /// True if `file` has no descendants (its contents were never GC-moved).
    pub fn is_leaf(&self, file: u64) -> bool {
        !self.children.contains_key(&file)
    }

    /// The current holders of whatever survived from `file`: all leaf
    /// descendants, ascending (or `file` itself if it was never
    /// collected). Computed afresh by a walk of the forest; see
    /// [`cached_leaves`](Self::cached_leaves) for the memoised set.
    pub fn leaves(&self, file: u64) -> Vec<u64> {
        let mut out = Vec::new();
        let mut stack = vec![file];
        let mut seen = HashSet::new();
        while let Some(f) = stack.pop() {
            if !seen.insert(f) {
                continue;
            }
            match self.children.get(&f) {
                Some(kids) => stack.extend(kids.iter().copied()),
                None => out.push(f),
            }
        }
        out.sort_unstable();
        out
    }

    /// [`leaves`](Self::leaves), memoised for collected files until the
    /// next [`add_edge`](Self::add_edge).
    pub fn cached_leaves(&self, file: u64) -> Arc<[u64]> {
        if self.is_leaf(file) {
            return Arc::new([file]);
        }
        if let Some(leaves) = self.memo.read().get(&file) {
            return leaves.clone();
        }
        let leaves: Arc<[u64]> = self.leaves(file).into();
        self.memo.write().insert(file, leaves.clone());
        leaves
    }

    /// True if `candidate` is among the leaves of `file` — the GC validity
    /// test: a record read from `candidate` whose index entry names `file`
    /// is still live only if `candidate` descends from `file`.
    pub fn resolves_to(&self, file: u64, candidate: u64) -> bool {
        if self.is_leaf(file) {
            return file == candidate;
        }
        self.cached_leaves(file).binary_search(&candidate).is_ok()
    }

    /// Number of recorded edges (for stats).
    pub fn edge_count(&self) -> usize {
        self.children.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_file_resolves_to_itself() {
        let f = InheritForest::new();
        assert_eq!(f.leaves(7), vec![7]);
        assert!(f.resolves_to(7, 7));
        assert!(!f.resolves_to(7, 8));
    }

    #[test]
    fn single_chain_resolution() {
        let mut f = InheritForest::new();
        f.add_edge(1, 2);
        f.add_edge(2, 3);
        assert_eq!(f.leaves(1), vec![3]);
        assert!(f.resolves_to(1, 3));
        assert!(!f.resolves_to(1, 2), "interior nodes are not holders");
        assert!(f.resolves_to(2, 3));
    }

    #[test]
    fn hot_cold_split_produces_two_leaves() {
        let mut f = InheritForest::new();
        f.add_edge(1, 10); // hot output
        f.add_edge(1, 11); // cold output
        assert_eq!(f.leaves(1), vec![10, 11]);
        assert!(f.resolves_to(1, 10));
        assert!(f.resolves_to(1, 11));
    }

    #[test]
    fn merged_gc_creates_shared_children() {
        // GC of {4, 5} into 20: both old files resolve to 20.
        let mut f = InheritForest::new();
        f.add_edge(4, 20);
        f.add_edge(5, 20);
        assert_eq!(f.leaves(4), vec![20]);
        assert_eq!(f.leaves(5), vec![20]);
        // Validity: a record in 20 may descend from either.
        assert!(f.resolves_to(4, 20));
        assert!(f.resolves_to(5, 20));
        assert!(!f.resolves_to(4, 5));
    }

    #[test]
    fn deep_mixed_forest() {
        let mut f = InheritForest::new();
        // 1 -> {2,3}; 2 -> 4; 3 -> {4,5} (4 received from both 2 and 3).
        f.add_edge(1, 2);
        f.add_edge(1, 3);
        f.add_edge(2, 4);
        f.add_edge(3, 4);
        f.add_edge(3, 5);
        assert_eq!(f.leaves(1), vec![4, 5]);
        assert!(f.resolves_to(1, 4));
        assert!(f.resolves_to(1, 5));
        assert_eq!(f.edge_count(), 5);
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut f = InheritForest::new();
        f.add_edge(1, 2);
        f.add_edge(1, 2);
        assert_eq!(f.edge_count(), 1);
    }
}
