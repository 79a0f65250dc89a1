//! A B+tree for TPC-C's local tables (paper §5.2, §5.6).
//!
//! TPC-C keeps several tables as "B+ trees local to their respective
//! coordinators" — ORDER, NEW-ORDER, ORDER-LINE, and friends — and the
//! paper attributes Xenic's higher host-thread usage on TPC-C to their
//! "compute-intensive local B+ tree manipulations". We therefore need a
//! real tree whose operation costs (node visits) the workload can charge
//! to host cores.
//!
//! Design: a classic B+tree with values only at the leaves and recursive
//! range collection (no leaf links — range scans recurse, which keeps the
//! structure safe-Rust-simple). Deletion removes the key from its leaf
//! and prunes empty leaves lazily on the next split of the parent; TPC-C's
//! only deleter (Delivery, on NEW-ORDER) tolerates this: lookups and scans
//! stay correct, space is reclaimed on reinsertion. This trade-off is
//! documented rather than hidden.

/// Keys are `u64` (the workload's composite keys are packed into 64 bits).
pub type TreeKey = u64;

enum Node<V> {
    Internal {
        /// Separator keys: child `i` holds keys `< keys[i]`; the last
        /// child holds the rest.
        keys: Vec<TreeKey>,
        children: Vec<Node<V>>,
    },
    Leaf {
        keys: Vec<TreeKey>,
        vals: Vec<V>,
    },
}

/// A B+tree map from `u64` keys to `V`.
pub struct BTree<V> {
    root: Node<V>,
    /// Maximum keys per leaf / children per internal node.
    order: usize,
    len: usize,
}

/// Result of a split: the new right sibling and its first key.
struct Split<V> {
    sep: TreeKey,
    right: Node<V>,
}

impl<V> BTree<V> {
    /// Creates an empty tree with the default order (32).
    pub fn new() -> Self {
        Self::with_order(32)
    }

    /// Creates an empty tree; `order` is the max keys per node (≥ 4).
    pub fn with_order(order: usize) -> Self {
        assert!(order >= 4, "order must be at least 4");
        BTree {
            root: Node::Leaf {
                keys: Vec::new(),
                vals: Vec::new(),
            },
            order,
            len: 0,
        }
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (1 = a lone leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = &self.root;
        while let Node::Internal { children, .. } = node {
            h += 1;
            node = &children[0];
        }
        h
    }

    /// Looks up a key.
    pub fn get(&self, key: TreeKey) -> Option<&V> {
        self.get_traced(key).0
    }

    /// Looks up a key, also returning the number of nodes visited (the
    /// CPU-cost input for the workload model).
    pub fn get_traced(&self, key: TreeKey) -> (Option<&V>, usize) {
        let mut node = &self.root;
        let mut visited = 1;
        loop {
            match node {
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|&k| k <= key);
                    node = &children[idx];
                    visited += 1;
                }
                Node::Leaf { keys, vals } => {
                    return match keys.binary_search(&key) {
                        Ok(i) => (Some(&vals[i]), visited),
                        Err(_) => (None, visited),
                    };
                }
            }
        }
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, key: TreeKey) -> Option<&mut V> {
        let mut node = &mut self.root;
        loop {
            match node {
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|&k| k <= key);
                    node = &mut children[idx];
                }
                Node::Leaf { keys, vals } => {
                    return match keys.binary_search(&key) {
                        Ok(i) => Some(&mut vals[i]),
                        Err(_) => None,
                    };
                }
            }
        }
    }

    /// Inserts or replaces; returns the previous value if any.
    pub fn insert(&mut self, key: TreeKey, value: V) -> Option<V> {
        let order = self.order;
        let (old, split) = Self::insert_rec(&mut self.root, key, value, order);
        if let Some(split) = split {
            // Grow a new root.
            let old_root = std::mem::replace(
                &mut self.root,
                Node::Leaf {
                    keys: Vec::new(),
                    vals: Vec::new(),
                },
            );
            self.root = Node::Internal {
                keys: vec![split.sep],
                children: vec![old_root, split.right],
            };
        }
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    fn insert_rec(
        node: &mut Node<V>,
        key: TreeKey,
        value: V,
        order: usize,
    ) -> (Option<V>, Option<Split<V>>) {
        match node {
            Node::Leaf { keys, vals } => match keys.binary_search(&key) {
                Ok(i) => (Some(std::mem::replace(&mut vals[i], value)), None),
                Err(i) => {
                    keys.insert(i, key);
                    vals.insert(i, value);
                    if keys.len() > order {
                        let mid = keys.len() / 2;
                        let right_keys = keys.split_off(mid);
                        let right_vals = vals.split_off(mid);
                        let sep = right_keys[0];
                        (
                            None,
                            Some(Split {
                                sep,
                                right: Node::Leaf {
                                    keys: right_keys,
                                    vals: right_vals,
                                },
                            }),
                        )
                    } else {
                        (None, None)
                    }
                }
            },
            Node::Internal { keys, children } => {
                let idx = keys.partition_point(|&k| k <= key);
                let (old, child_split) = Self::insert_rec(&mut children[idx], key, value, order);
                if let Some(split) = child_split {
                    keys.insert(idx, split.sep);
                    children.insert(idx + 1, split.right);
                    if children.len() > order {
                        let mid = keys.len() / 2;
                        let sep = keys[mid];
                        let right_keys = keys.split_off(mid + 1);
                        keys.pop(); // `sep` moves up, not right
                        let right_children = children.split_off(mid + 1);
                        return (
                            old,
                            Some(Split {
                                sep,
                                right: Node::Internal {
                                    keys: right_keys,
                                    children: right_children,
                                },
                            }),
                        );
                    }
                }
                (old, None)
            }
        }
    }

    /// Removes a key, returning its value. Leaves may become empty; they
    /// are tolerated by lookups and pruned opportunistically.
    pub fn remove(&mut self, key: TreeKey) -> Option<V> {
        let removed = Self::remove_rec(&mut self.root, key);
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    fn remove_rec(node: &mut Node<V>, key: TreeKey) -> Option<V> {
        match node {
            Node::Leaf { keys, vals } => match keys.binary_search(&key) {
                Ok(i) => {
                    keys.remove(i);
                    Some(vals.remove(i))
                }
                Err(_) => None,
            },
            Node::Internal { keys, children } => {
                let idx = keys.partition_point(|&k| k <= key);
                let out = Self::remove_rec(&mut children[idx], key);
                // Prune a child that became an empty leaf (keep at least
                // one child so the node stays well-formed).
                if out.is_some() && children.len() > 1 {
                    let empty = matches!(&children[idx], Node::Leaf { keys, .. } if keys.is_empty());
                    if empty {
                        children.remove(idx);
                        keys.remove(idx.min(keys.len() - 1));
                    }
                }
                out
            }
        }
    }

    /// Collects all `(key, &value)` pairs with `lo <= key <= hi`, in key
    /// order.
    ///
    /// Allocates a fresh `Vec` per call — fine for tests and cold paths;
    /// hot paths (the NIC scan walk, TPC-C generation) use
    /// [`Self::range_visit_counted`] or [`Self::range_into`] instead.
    pub fn range(&self, lo: TreeKey, hi: TreeKey) -> Vec<(TreeKey, &V)> {
        let mut out = Vec::new();
        self.range_visit(lo, hi, &mut |k, v| {
            out.push((k, v));
            true
        });
        out
    }

    /// Visits every `(key, &value)` pair with `lo <= key <= hi` in key
    /// order without allocating. `f` returns `false` to stop the walk
    /// early (scan limits). Returns the number of tree nodes visited —
    /// the DPA-style per-node cost input, matching [`Self::get_traced`]'s
    /// accounting.
    pub fn range_visit<'a, F>(&'a self, lo: TreeKey, hi: TreeKey, f: &mut F) -> usize
    where
        F: FnMut(TreeKey, &'a V) -> bool,
    {
        self.range_visit_counted(lo, hi, &mut |k, v, _| f(k, v))
    }

    /// [`Self::range_visit`] whose visitor also receives the running
    /// node-visit count: the third argument at a pair is exactly what the
    /// walk returns if `f` stops there. A node counts when the walk
    /// enters it, so a pair's count includes its own leaf.
    pub fn range_visit_counted<'a, F>(&'a self, lo: TreeKey, hi: TreeKey, f: &mut F) -> usize
    where
        F: FnMut(TreeKey, &'a V, usize) -> bool,
    {
        let mut visited = 0;
        Self::range_visit_rec(&self.root, lo, hi, f, &mut visited);
        visited
    }

    /// Returns `false` when the visitor asked to stop.
    fn range_visit_rec<'a, F>(
        node: &'a Node<V>,
        lo: TreeKey,
        hi: TreeKey,
        f: &mut F,
        visited: &mut usize,
    ) -> bool
    where
        F: FnMut(TreeKey, &'a V, usize) -> bool,
    {
        *visited += 1;
        match node {
            Node::Leaf { keys, vals } => {
                let start = keys.partition_point(|&k| k < lo);
                for i in start..keys.len() {
                    if keys[i] > hi {
                        break;
                    }
                    if !f(keys[i], &vals[i], *visited) {
                        return false;
                    }
                }
                true
            }
            Node::Internal { keys, children } => {
                let first = keys.partition_point(|&k| k <= lo);
                let last = keys.partition_point(|&k| k <= hi);
                for child in &children[first..=last] {
                    if !Self::range_visit_rec(child, lo, hi, f, visited) {
                        return false;
                    }
                }
                true
            }
        }
    }

    /// Clears `out` and fills it with every `(key, value)` pair in
    /// `lo..=hi`, reusing the caller's scratch buffer (no per-call
    /// allocation once the scratch has grown to steady state). Returns
    /// the number of tree nodes visited.
    pub fn range_into(&self, lo: TreeKey, hi: TreeKey, out: &mut Vec<(TreeKey, V)>) -> usize
    where
        V: Clone,
    {
        out.clear();
        self.range_visit(lo, hi, &mut |k, v| {
            out.push((k, v.clone()));
            true
        })
    }

    /// The smallest key ≥ `lo`, with its value.
    pub fn first_at_or_after(&self, lo: TreeKey) -> Option<(TreeKey, &V)> {
        self.first_at_or_after_traced(lo).0
    }

    /// [`Self::first_at_or_after`], also returning the number of nodes
    /// visited. Walks right siblings directly instead of allocating a
    /// whole-tail range when the target leaf turns out empty-suffixed
    /// (possible after deletions).
    pub fn first_at_or_after_traced(&self, lo: TreeKey) -> (Option<(TreeKey, &V)>, usize) {
        let mut visited = 0;
        (Self::first_from(&self.root, lo, &mut visited), visited)
    }

    fn first_from<'a>(
        node: &'a Node<V>,
        lo: TreeKey,
        visited: &mut usize,
    ) -> Option<(TreeKey, &'a V)> {
        *visited += 1;
        match node {
            Node::Leaf { keys, vals } => {
                let i = keys.partition_point(|&k| k < lo);
                if i < keys.len() {
                    Some((keys[i], &vals[i]))
                } else {
                    None
                }
            }
            Node::Internal { keys, children } => {
                let idx = keys.partition_point(|&k| k <= lo);
                // The target subtree may have nothing ≥ lo (lazily pruned
                // deletions leave thin leaves); continue with the next
                // sibling — every key there is ≥ lo by the separator
                // invariant.
                children[idx..]
                    .iter()
                    .find_map(|child| Self::first_from(child, lo, visited))
            }
        }
    }
}

impl<V> Default for BTree<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_small() {
        let mut t = BTree::new();
        assert_eq!(t.insert(5, "five"), None);
        assert_eq!(t.insert(3, "three"), None);
        assert_eq!(t.insert(5, "FIVE"), Some("five"));
        assert_eq!(t.get(5), Some(&"FIVE"));
        assert_eq!(t.get(3), Some(&"three"));
        assert_eq!(t.get(4), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn many_inserts_split_correctly() {
        let mut t = BTree::with_order(4);
        for k in 0..1000u64 {
            t.insert(k, k * 10);
        }
        assert_eq!(t.len(), 1000);
        assert!(t.height() > 2, "order-4 tree with 1000 keys must be deep");
        for k in 0..1000u64 {
            assert_eq!(t.get(k), Some(&(k * 10)), "key {k}");
        }
    }

    #[test]
    fn reverse_and_shuffled_insert_orders() {
        let mut t = BTree::with_order(6);
        let mut keys: Vec<u64> = (0..500).collect();
        // Deterministic shuffle via multiplication by an odd constant.
        keys.sort_by_key(|k| k.wrapping_mul(0x9E3779B97F4A7C15));
        for &k in &keys {
            t.insert(k, k);
        }
        for k in 0..500u64 {
            assert_eq!(t.get(k), Some(&k));
        }
        let all = t.range(0, u64::MAX);
        let got: Vec<u64> = all.iter().map(|(k, _)| *k).collect();
        let want: Vec<u64> = (0..500).collect();
        assert_eq!(got, want, "range must be sorted and complete");
    }

    #[test]
    fn range_bounds_inclusive() {
        let mut t = BTree::with_order(4);
        for k in (0..100).step_by(10) {
            t.insert(k, ());
        }
        let got: Vec<u64> = t.range(20, 50).iter().map(|(k, _)| *k).collect();
        assert_eq!(got, vec![20, 30, 40, 50]);
        assert!(t.range(41, 49).is_empty());
        let got: Vec<u64> = t.range(0, 5).iter().map(|(k, _)| *k).collect();
        assert_eq!(got, vec![0]);
    }

    #[test]
    fn remove_and_lookup() {
        let mut t = BTree::with_order(4);
        for k in 0..200u64 {
            t.insert(k, k);
        }
        for k in (0..200).step_by(2) {
            assert_eq!(t.remove(k), Some(k));
        }
        assert_eq!(t.remove(0), None);
        assert_eq!(t.len(), 100);
        for k in 0..200u64 {
            if k % 2 == 0 {
                assert_eq!(t.get(k), None);
            } else {
                assert_eq!(t.get(k), Some(&k));
            }
        }
        let got: Vec<u64> = t.range(0, 20).iter().map(|(k, _)| *k).collect();
        assert_eq!(got, vec![1, 3, 5, 7, 9, 11, 13, 15, 17, 19]);
    }

    #[test]
    fn remove_everything_then_reuse() {
        let mut t = BTree::with_order(4);
        for k in 0..64u64 {
            t.insert(k, k);
        }
        for k in 0..64u64 {
            assert_eq!(t.remove(k), Some(k));
        }
        assert!(t.is_empty());
        for k in 0..64u64 {
            t.insert(k, k + 1);
        }
        for k in 0..64u64 {
            assert_eq!(t.get(k), Some(&(k + 1)));
        }
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut t = BTree::new();
        t.insert(1, 10);
        *t.get_mut(1).unwrap() += 5;
        assert_eq!(t.get(1), Some(&15));
        assert!(t.get_mut(2).is_none());
    }

    #[test]
    fn first_at_or_after_finds_successor() {
        let mut t = BTree::with_order(4);
        for k in [10u64, 20, 30, 40] {
            t.insert(k, ());
        }
        assert_eq!(t.first_at_or_after(15).unwrap().0, 20);
        assert_eq!(t.first_at_or_after(20).unwrap().0, 20);
        assert_eq!(t.first_at_or_after(41), None);
        // After deleting, successor search still works (NEW-ORDER pattern:
        // Delivery pops the oldest undelivered order).
        t.remove(20);
        assert_eq!(t.first_at_or_after(15).unwrap().0, 30);
    }

    #[test]
    fn get_traced_counts_height() {
        let mut t = BTree::with_order(4);
        for k in 0..1000u64 {
            t.insert(k, ());
        }
        let (found, visited) = t.get_traced(500);
        assert!(found.is_some());
        assert_eq!(visited, t.height());
    }

    #[test]
    fn counted_visitor_reports_what_a_stop_there_returns() {
        // Order 4 over 120 keys: three levels, dozens of leaf boundaries.
        let mut t = BTree::with_order(4);
        for k in (0..240u64).step_by(2) {
            t.insert(k, k);
        }
        assert!(t.height() >= 3);
        for (lo, hi) in [(0, 239), (7, 93), (31, 31), (32, 32), (100, 500)] {
            let mut seen = Vec::new();
            let total = t.range_visit_counted(lo, hi, &mut |k, _, visits| {
                seen.push((k, visits));
                true
            });
            if lo < hi {
                assert!(
                    seen.last().unwrap().1 > seen[0].1,
                    "{lo}..={hi} must cross leaves"
                );
            }
            for (i, &(key, visits)) in seen.iter().enumerate() {
                let mut rows = 0;
                let stopped = t.range_visit_counted(lo, hi, &mut |_, _, _| {
                    rows += 1;
                    rows <= i
                });
                assert_eq!(stopped, visits, "{lo}..={hi}: stop at row {i} (key {key})");
                // Independent of where counting happens: an unstopped
                // walk that ends at the row's key enters the same nodes.
                let to_key = t.range_visit_counted(lo, key, &mut |_, _, _| true);
                assert_eq!(visits, to_key, "{lo}..={hi}: walk to key {key}");
                assert_eq!(t.range_visit(lo, key, &mut |_, _| true), to_key);
            }
            assert!(total >= seen.last().map_or(0, |s| s.1));
            assert_eq!(t.range_visit(lo, hi, &mut |_, _| true), total);
        }
    }

    #[test]
    fn large_tree_stress() {
        let mut t = BTree::with_order(32);
        for k in 0..50_000u64 {
            t.insert(k.wrapping_mul(0x9E3779B97F4A7C15), k);
        }
        assert_eq!(t.len(), 50_000);
        let mut count = 0;
        let mut last = None;
        for (k, _) in t.range(0, u64::MAX) {
            if let Some(l) = last {
                assert!(k > l, "keys must be strictly increasing");
            }
            last = Some(k);
            count += 1;
        }
        assert_eq!(count, 50_000);
    }
}
