//! A lazy-propagation segment tree supporting range add and range max.
//!
//! Used by the oracle to maintain SSD occupancy over discretized time
//! segments: admitting a job adds its size over the segments its lifetime
//! spans, and feasibility checks ask for the maximum occupancy over that
//! range.

/// Range-add / range-max segment tree over `f64` values, initialized to zero.
#[derive(Debug, Clone)]
pub struct SegmentTree {
    len: usize,
    max: Vec<f64>,
    lazy: Vec<f64>,
}

impl SegmentTree {
    /// Create a tree over `len` leaves, all initialized to 0.0.
    ///
    /// # Panics
    /// Panics if `len` is zero.
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "segment tree needs at least one leaf");
        let size = len.next_power_of_two() * 2;
        SegmentTree {
            len,
            max: vec![0.0; size],
            lazy: vec![0.0; size],
        }
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty (never true; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Add `value` to every leaf in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo > hi` or `hi > len`.
    pub fn range_add(&mut self, lo: usize, hi: usize, value: f64) {
        assert!(lo <= hi && hi <= self.len, "invalid range {lo}..{hi}");
        if lo == hi {
            return;
        }
        self.add_rec(1, 0, self.len.next_power_of_two(), lo, hi, value);
    }

    /// Maximum leaf value in `[lo, hi)`. Returns `f64::NEG_INFINITY` for an
    /// empty range.
    ///
    /// # Panics
    /// Panics if `lo > hi` or `hi > len`.
    pub fn range_max(&self, lo: usize, hi: usize) -> f64 {
        assert!(lo <= hi && hi <= self.len, "invalid range {lo}..{hi}");
        if lo == hi {
            return f64::NEG_INFINITY;
        }
        self.max_rec(1, 0, self.len.next_power_of_two(), lo, hi)
    }

    /// Maximum over the whole tree.
    pub fn global_max(&self) -> f64 {
        self.range_max(0, self.len)
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "implicit binary-heap layout: child = 2*node+1 bounded by tree size"
    )]
    fn add_rec(&mut self, node: usize, nlo: usize, nhi: usize, lo: usize, hi: usize, value: f64) {
        if hi <= nlo || nhi <= lo {
            return;
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "implicit binary-heap layout: child = 2*node+1 bounded by tree size"
        )]
        if lo <= nlo && nhi <= hi {
            self.lazy[node] += value;
            self.max[node] += value;
            return;
        }
        let mid = (nlo + nhi) / 2;
        self.add_rec(node * 2, nlo, mid, lo, hi, value);
        self.add_rec(node * 2 + 1, mid, nhi, lo, hi, value);
        self.max[node] = self.max[node * 2].max(self.max[node * 2 + 1]) + self.lazy[node];
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "implicit binary-heap layout: child = 2*node+1 bounded by tree size"
    )]
    fn max_rec(&self, node: usize, nlo: usize, nhi: usize, lo: usize, hi: usize) -> f64 {
        if hi <= nlo || nhi <= lo {
            return f64::NEG_INFINITY;
        }
        if lo <= nlo && nhi <= hi {
            #[expect(
                clippy::indexing_slicing,
                reason = "implicit binary-heap layout: child = 2*node+1 bounded by tree size"
            )]
            return self.max[node];
        }
        let mid = (nlo + nhi) / 2;
        let child = self.max_rec(node * 2, nlo, mid, lo, hi).max(self.max_rec(
            node * 2 + 1,
            mid,
            nhi,
            lo,
            hi,
        ));
        child + self.lazy[node]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force reference implementation.
    struct Naive {
        values: Vec<f64>,
    }

    impl Naive {
        fn new(len: usize) -> Self {
            Naive {
                values: vec![0.0; len],
            }
        }
        fn range_add(&mut self, lo: usize, hi: usize, v: f64) {
            for x in &mut self.values[lo..hi] {
                *x += v;
            }
        }
        fn range_max(&self, lo: usize, hi: usize) -> f64 {
            self.values[lo..hi]
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max)
        }
    }

    #[test]
    fn basic_add_and_query() {
        let mut t = SegmentTree::new(10);
        assert_eq!(t.len(), 10);
        assert!(!t.is_empty());
        assert_eq!(t.global_max(), 0.0);
        t.range_add(2, 5, 3.0);
        t.range_add(4, 8, 2.0);
        assert_eq!(t.range_max(0, 2), 0.0);
        assert_eq!(t.range_max(2, 4), 3.0);
        assert_eq!(t.range_max(4, 5), 5.0);
        assert_eq!(t.range_max(5, 8), 2.0);
        assert_eq!(t.global_max(), 5.0);
    }

    #[test]
    fn empty_range_queries_and_adds() {
        let mut t = SegmentTree::new(4);
        t.range_add(2, 2, 100.0);
        assert_eq!(t.global_max(), 0.0);
        assert_eq!(t.range_max(1, 1), f64::NEG_INFINITY);
    }

    #[test]
    fn negative_adds_work() {
        let mut t = SegmentTree::new(6);
        t.range_add(0, 6, 5.0);
        t.range_add(1, 3, -2.0);
        assert_eq!(t.range_max(1, 3), 3.0);
        assert_eq!(t.global_max(), 5.0);
    }

    #[test]
    fn single_leaf_tree() {
        let mut t = SegmentTree::new(1);
        t.range_add(0, 1, 7.0);
        assert_eq!(t.global_max(), 7.0);
    }

    #[test]
    #[should_panic(expected = "at least one leaf")]
    fn zero_leaves_rejected() {
        let _ = SegmentTree::new(0);
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn out_of_range_rejected() {
        let t = SegmentTree::new(4);
        let _ = t.range_max(0, 5);
    }

    #[test]
    fn matches_naive_on_random_operations() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for len in [1usize, 2, 3, 7, 16, 33, 100] {
            let mut tree = SegmentTree::new(len);
            let mut naive = Naive::new(len);
            for _ in 0..200 {
                let a = rng.gen_range(0..=len);
                let b = rng.gen_range(0..=len);
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                if rng.gen_bool(0.5) {
                    let v = rng.gen_range(-10.0..10.0);
                    tree.range_add(lo, hi, v);
                    naive.range_add(lo, hi, v);
                } else if lo < hi {
                    let t = tree.range_max(lo, hi);
                    let n = naive.range_max(lo, hi);
                    assert!(
                        (t - n).abs() < 1e-9,
                        "len {len} range {lo}..{hi}: {t} vs {n}"
                    );
                }
            }
        }
    }
}
