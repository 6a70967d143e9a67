//! A from-scratch B+Tree used as the per-table index of the Memtable.
//!
//! The paper's backup prototype "utilizes a B+Tree as the in-memory storage
//! engine" (Section VI-A). This implementation stores values only in leaves
//! and keeps leaf keys sorted, giving `O(log n)` point lookups and ordered
//! scans for analytical reads.
//!
//! The tree itself is single-writer: the owning [`crate::Table`] wraps it
//! in a `RwLock` (structural changes — inserting a new record node — take
//! the write lock; lookups take the read lock). Version-chain mutation does
//! not touch the tree at all, which is what makes TPLR's lock-free phase 1
//! possible.

use std::mem;

/// Maximum number of keys per node before it splits.
const MAX_KEYS: usize = 32;

/// [`BPlusTree::cut`] leaves a key range it estimates at fewer pairs than
/// this whole: below it, handing parts to other threads costs more than
/// the walk it shares.
pub const MIN_CUT_LEN: usize = 16_384;

// Boxing the `Vec` keeps sibling nodes pointer-sized inside parents.
#[allow(clippy::box_collection, clippy::vec_box)]
#[derive(Debug, Clone)]
enum Node<K, V> {
    Leaf {
        keys: Vec<K>,
        vals: Vec<V>,
    },
    Internal {
        /// Separator keys: child `i` holds keys `< keys[i]`; child `i+1`
        /// holds keys `>= keys[i]`.
        keys: Vec<K>,
        children: Vec<Box<Node<K, V>>>,
    },
}

enum InsertResult<K, V> {
    Done(Option<V>),
    Split(K, Box<Node<K, V>>),
}

impl<K: Ord + Clone, V> Node<K, V> {
    fn get(&self, key: &K) -> Option<&V> {
        match self {
            Node::Leaf { keys, vals } => keys.binary_search(key).ok().map(|i| &vals[i]),
            Node::Internal { keys, children } => {
                let i = keys.partition_point(|k| k <= key);
                children[i].get(key)
            }
        }
    }

    fn insert(&mut self, key: K, val: V) -> InsertResult<K, V> {
        match self {
            Node::Leaf { keys, vals } => match keys.binary_search(&key) {
                Ok(i) => InsertResult::Done(Some(mem::replace(&mut vals[i], val))),
                Err(i) => {
                    keys.insert(i, key);
                    vals.insert(i, val);
                    if keys.len() > MAX_KEYS {
                        let mid = keys.len() / 2;
                        let rkeys = keys.split_off(mid);
                        let rvals = vals.split_off(mid);
                        let sep = rkeys[0].clone();
                        InsertResult::Split(sep, Box::new(Node::Leaf { keys: rkeys, vals: rvals }))
                    } else {
                        InsertResult::Done(None)
                    }
                }
            },
            Node::Internal { keys, children } => {
                let i = keys.partition_point(|k| *k <= key);
                match children[i].insert(key, val) {
                    InsertResult::Done(r) => InsertResult::Done(r),
                    InsertResult::Split(sep, right) => {
                        keys.insert(i, sep);
                        children.insert(i + 1, right);
                        if keys.len() > MAX_KEYS {
                            let mid = keys.len() / 2;
                            let sep_up = keys[mid].clone();
                            let rkeys = keys.split_off(mid + 1);
                            keys.pop(); // drop sep_up from the left node
                            let rchildren = children.split_off(mid + 1);
                            InsertResult::Split(
                                sep_up,
                                Box::new(Node::Internal { keys: rkeys, children: rchildren }),
                            )
                        } else {
                            InsertResult::Done(None)
                        }
                    }
                }
            }
        }
    }

    fn scan<F: FnMut(&K, &V)>(&self, f: &mut F) {
        match self {
            Node::Leaf { keys, vals } => {
                for (k, v) in keys.iter().zip(vals) {
                    f(k, v);
                }
            }
            Node::Internal { children, .. } => {
                for c in children {
                    c.scan(f);
                }
            }
        }
    }

    fn range_scan<F: FnMut(&K, &V)>(&self, lo: &K, hi: &K, f: &mut F) {
        match self {
            Node::Leaf { keys, vals } => {
                let start = keys.partition_point(|k| k < lo);
                for i in start..keys.len() {
                    if &keys[i] > hi {
                        break;
                    }
                    f(&keys[i], &vals[i]);
                }
            }
            Node::Internal { keys, children } => {
                let first = keys.partition_point(|k| k <= lo);
                let last = keys.partition_point(|k| k <= hi);
                for c in &children[first..=last] {
                    c.range_scan(lo, hi, f);
                }
            }
        }
    }

    /// The children overlapping `[lo, hi]` in key order, each with the
    /// separator it starts at (the first with `at`, this node's own); none
    /// for a leaf.
    fn children_in<'a>(
        &'a self,
        lo: &K,
        hi: &K,
        at: Option<&'a K>,
    ) -> Vec<(Option<&'a K>, &'a Self)> {
        let Node::Internal { keys, children } = self else { return Vec::new() };
        let first = keys.partition_point(|k| k <= lo);
        let last = keys.partition_point(|k| k <= hi);
        let rest = (first + 1..=last).map(|i| (Some(&keys[i - 1]), &*children[i]));
        std::iter::once((at, &*children[first])).chain(rest).collect()
    }

    fn last_key(&self) -> Option<&K> {
        match self {
            Node::Leaf { keys, .. } => keys.last(),
            Node::Internal { children, .. } => children.last()?.last_key(),
        }
    }

    fn depth(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Internal { children, .. } => 1 + children[0].depth(),
        }
    }
}

/// An ordered map backed by a B+Tree.
#[derive(Debug, Clone)]
pub struct BPlusTree<K, V> {
    root: Box<Node<K, V>>,
    len: usize,
}

impl<K: Ord + Clone, V> Default for BPlusTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone, V> BPlusTree<K, V> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self { root: Box::new(Node::Leaf { keys: Vec::new(), vals: Vec::new() }), len: 0 }
    }

    /// Number of key/value pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Point lookup.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.root.get(key)
    }

    /// The largest key, if any: one walk down the rightmost edge.
    pub fn last_key(&self) -> Option<&K> {
        self.root.last_key()
    }

    /// Inserts `key -> val`, returning the previous value if present.
    pub fn insert(&mut self, key: K, val: V) -> Option<V> {
        match self.root.insert(key, val) {
            InsertResult::Done(old) => {
                if old.is_none() {
                    self.len += 1;
                }
                old
            }
            InsertResult::Split(sep, right) => {
                self.len += 1;
                let placeholder = Node::Leaf { keys: Vec::new(), vals: Vec::new() };
                let old_root = mem::replace(&mut *self.root, placeholder);
                *self.root =
                    Node::Internal { keys: vec![sep], children: vec![Box::new(old_root), right] };
                None
            }
        }
    }

    /// Visits every pair in key order.
    pub fn scan<F: FnMut(&K, &V)>(&self, mut f: F) {
        self.root.scan(&mut f);
    }

    /// Visits pairs with `lo <= key <= hi` in key order.
    pub fn range_scan<F: FnMut(&K, &V)>(&self, lo: &K, hi: &K, mut f: F) {
        if lo > hi {
            return;
        }
        self.root.range_scan(lo, hi, &mut f);
    }

    /// Up to `parts - 1` keys inside `(lo, hi]`, ascending, that cut
    /// `[lo, hi]` into `parts` key ranges of about equal size; none when
    /// the range is estimated at fewer than [`MIN_CUT_LEN`] pairs. The
    /// tree keeps no counts, so the estimate comes from the size of its
    /// leaf level over the range: the leaves' parents overlapping it are
    /// visited (no leaf is), and a leaf is taken as three quarters full,
    /// between the half a split leaves and full. The cuts are separators
    /// of those parents.
    pub fn cut(&self, lo: &K, hi: &K, parts: usize) -> Vec<K> {
        let depth = self.depth();
        if parts < 2 || lo > hi || depth < 2 {
            return Vec::new();
        }
        let mut level = vec![(None, &*self.root)];
        for _ in 2..depth {
            level = level.into_iter().flat_map(|(at, node)| node.children_in(lo, hi, at)).collect();
        }
        let leaves: Vec<usize> =
            level.iter().map(|(_, n)| n.children_in(lo, hi, None).len()).collect();
        let total: usize = leaves.iter().sum();
        let mut cuts = Vec::new();
        if total * (MAX_KEYS * 3 / 4) < MIN_CUT_LEN {
            return cuts;
        }
        let mut before = 0;
        for ((at, _), n) in level.into_iter().zip(leaves) {
            // Cut `j` goes at the first parent starting past `j/parts`.
            if let Some(k) = at.filter(|_| before * parts >= total * (cuts.len() + 1)) {
                if cuts.len() + 1 < parts {
                    cuts.push(k.clone());
                }
            }
            before += n;
        }
        cuts
    }

    /// Tree height (1 for a single leaf). Exposed for tests/benches.
    pub fn depth(&self) -> usize {
        self.root.depth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aets_common::rng::check;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn empty_tree_behaves() {
        let t: BPlusTree<u64, u64> = BPlusTree::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.get(&1), None);
        assert_eq!(t.depth(), 1);
    }

    #[test]
    fn insert_get_overwrite() {
        let mut t = BPlusTree::new();
        assert_eq!(t.insert(5u64, "a"), None);
        assert_eq!(t.insert(5u64, "b"), Some("a"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&5), Some(&"b"));
    }

    #[test]
    fn sequential_inserts_split_and_stay_sorted() {
        let mut t = BPlusTree::new();
        assert_eq!(t.last_key(), None);
        for i in 0..10_000u64 {
            t.insert(i, i * 2);
            assert_eq!(t.last_key(), Some(&i));
        }
        assert_eq!(t.len(), 10_000);
        assert!(t.depth() > 1, "tree should have split");
        let mut prev = None;
        let mut count = 0usize;
        t.scan(|k, v| {
            if let Some(p) = prev {
                assert!(*k > p, "keys out of order");
            }
            assert_eq!(*v, *k * 2);
            prev = Some(*k);
            count += 1;
        });
        assert_eq!(count, 10_000);
    }

    #[test]
    fn reverse_inserts_work() {
        let mut t = BPlusTree::new();
        for i in (0..5000u64).rev() {
            t.insert(i, ());
        }
        assert_eq!(t.len(), 5000);
        for i in 0..5000u64 {
            assert!(t.get(&i).is_some(), "missing key {i}");
        }
    }

    #[test]
    fn range_scan_bounds_are_inclusive() {
        let mut t = BPlusTree::new();
        for i in 0..1000u64 {
            t.insert(i, i);
        }
        let mut seen = Vec::new();
        t.range_scan(&100, &110, |k, _| seen.push(*k));
        assert_eq!(seen, (100..=110).collect::<Vec<_>>());
        // Empty range.
        let mut seen2 = Vec::new();
        t.range_scan(&50, &40, |k, _| seen2.push(*k));
        assert!(seen2.is_empty());
    }

    #[test]
    fn range_scan_on_boundaries_across_splits() {
        let mut t = BPlusTree::new();
        for i in (0..4000u64).step_by(2) {
            t.insert(i, i);
        }
        // Bounds that do not exist as keys.
        let mut seen = Vec::new();
        t.range_scan(&999, &1011, |k, _| seen.push(*k));
        assert_eq!(seen, vec![1000, 1002, 1004, 1006, 1008, 1010]);
    }

    /// Cuts fall inside the range, ascending, into parts of about equal
    /// size; a range estimated under [`MIN_CUT_LEN`] is never cut.
    #[test]
    fn cut_splits_large_ranges_evenly_and_leaves_small_ones_whole() {
        let mut t = BPlusTree::new();
        let n = 200_000u64;
        for i in 0..n {
            t.insert(i * 3, ());
        }
        let size = |lo: u64, hi: u64| (lo..=hi).filter(|k| k % 3 == 0).count() as f64;
        for (lo, hi, parts) in [(0, u64::MAX, 2), (0, u64::MAX, 5), (30_000, 400_000, 3)] {
            let cuts = t.cut(&lo, &hi, parts);
            assert_eq!(cuts.len(), parts - 1, "{lo}..={hi} in {parts}");
            assert!(cuts.windows(2).all(|w| w[0] < w[1]) && cuts[0] > lo);
            let ends: Vec<u64> = std::iter::once(lo)
                .chain(cuts.iter().copied())
                .chain(std::iter::once(hi.min(3 * n) + 1))
                .collect();
            let want = size(lo, hi.min(3 * n)) / parts as f64;
            for w in ends.windows(2) {
                let got = size(w[0], w[1] - 1);
                assert!((got - want).abs() < 0.2 * want, "part {w:?} holds {got}, not ~{want}");
            }
        }
        assert!(t.cut(&0, &u64::MAX, 1).is_empty());
        assert!(t.cut(&9, &3, 2).is_empty());
        for (lo, hi) in [(0, 3 * 1024), (90_000, 93_072), (3 * (n - 1000), u64::MAX)] {
            assert!(t.cut(&lo, &hi, 2).is_empty(), "{lo}..={hi} is ~1k rows");
        }
        let mut small = BPlusTree::new();
        for i in 0..MIN_CUT_LEN as u64 / 2 {
            small.insert(i, ());
        }
        assert!(small.cut(&0, &u64::MAX, 4).is_empty());
    }

    #[test]
    fn matches_btreemap() {
        check("matches_btreemap", 64, |rng| {
            let ops: Vec<(u16, u32)> = (0..rng.below(2000))
                .map(|_| (rng.next_u64() as u16, rng.next_u64() as u32))
                .collect();
            let mut ours = BPlusTree::new();
            let mut std = BTreeMap::new();
            for (k, v) in &ops {
                assert_eq!(ours.insert(*k, *v), std.insert(*k, *v));
            }
            assert_eq!(ours.len(), std.len());
            for (k, v) in &std {
                assert_eq!(ours.get(k), Some(v));
            }
            let mut pairs = Vec::new();
            ours.scan(|k, v| pairs.push((*k, *v)));
            let expect: Vec<_> = std.iter().map(|(k, v)| (*k, *v)).collect();
            assert_eq!(pairs, expect);
        });
    }

    #[test]
    fn range_matches_btreemap() {
        check("range_matches_btreemap", 64, |rng| {
            let keys: BTreeSet<u16> = (0..rng.below(500)).map(|_| rng.next_u64() as u16).collect();
            let (lo, hi) = (rng.next_u64() as u16, rng.next_u64() as u16);
            let mut ours = BPlusTree::new();
            for k in &keys {
                ours.insert(*k, ());
            }
            let (lo, hi) = (lo.min(hi), lo.max(hi));
            let mut got = Vec::new();
            ours.range_scan(&lo, &hi, |k, _| got.push(*k));
            let expect: Vec<_> = keys.range(lo..=hi).copied().collect();
            assert_eq!(got, expect);
        });
    }
}
