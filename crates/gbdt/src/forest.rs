//! The trained ensemble, flattened for inference.
//!
//! Training grows each tree as a [`Tree`], whose [`Tree::predict_row`] is the
//! reference walk. Once training ends, every tree moves into one [`Forest`]:
//! a single arena of 16-byte nodes, rounds outer and classes inner, plus the
//! arena index of each tree's root. A prediction walks that one array, eight
//! trees of a round at a time, instead of one node vector of 40-byte
//! [`Node`](crate::tree::Node)s per tree.
//!
//! The walk keeps the reference's `value <= threshold` test, so NaN and
//! features missing from a short row go right, and [`Forest::add_scores`]
//! adds `learning_rate × leaf` to each class in round order. Scores are
//! therefore bit-identical to summing the reference walk over the trees.

use crate::tree::Tree;

/// Trees of one round walked together by [`Forest::add_scores`].
const LANES: usize = 8;

/// One node of the arena: 16 bytes, where a [`Tree`] node takes 40.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct FlatNode {
    /// A split's threshold (rows with `value <= threshold` go left), or a
    /// leaf's value.
    value: f64,
    /// The feature a split tests (0 for leaves).
    feature: u32,
    /// Arena index of a split's left child; the right child is `left + 1`.
    /// 0 marks a leaf: index 0 holds the first tree's root, which is no
    /// node's child.
    left: u32,
}

/// Every tree of an ensemble in one arena of [`FlatNode`]s.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Forest {
    nodes: Vec<FlatNode>,
    /// Arena index of each tree's root, rounds outer and classes inner.
    roots: Vec<u32>,
}

impl Forest {
    /// Flatten `rounds[round][class]` into one arena, rounds outer and
    /// classes inner.
    ///
    /// # Panics
    /// Panics if the trees hold 2^32 nodes or more (a 64 GiB arena), which
    /// `u32` child indices cannot address.
    pub(crate) fn from_rounds(rounds: &[Vec<Tree>]) -> Forest {
        let total: usize = rounds.iter().flatten().map(Tree::num_nodes).sum();
        assert!(
            u32::try_from(total).is_ok(),
            "a forest of {total} nodes overflows u32 node indices"
        );
        let mut forest = Forest {
            nodes: Vec::with_capacity(total),
            roots: Vec::with_capacity(rounds.iter().map(Vec::len).sum()),
        };
        for tree in rounds.iter().flatten() {
            forest.push(tree);
        }
        forest
    }

    /// Append `tree`, giving each split's two children adjacent slots.
    fn push(&mut self, tree: &Tree) {
        let root = self.nodes.len();
        self.roots.push(root as u32);
        self.nodes.push(FlatNode::default());
        // (index in `tree`, the arena slot reserved for that node)
        let mut pending = vec![(0usize, root)];
        while let Some((src, slot)) = pending.pop() {
            let Some(node) = tree.nodes().get(src) else {
                continue;
            };
            let flat = if node.is_leaf() {
                FlatNode {
                    value: node.value,
                    feature: 0,
                    left: 0,
                }
            } else {
                let left = self.nodes.len();
                self.nodes.extend([FlatNode::default(); 2]);
                pending.push((node.right as usize, left + 1));
                pending.push((node.left as usize, left));
                FlatNode {
                    value: node.threshold,
                    feature: node.feature,
                    left: left as u32,
                }
            };
            if let Some(s) = self.nodes.get_mut(slot) {
                *s = flat;
            }
        }
    }

    /// Number of trees in the forest.
    pub(crate) fn num_trees(&self) -> usize {
        self.roots.len()
    }

    /// Add `learning_rate × leaf value` of every tree to its class's entry
    /// of `scores`, one round after another; tree `t` belongs to class
    /// `t % scores.len()`.
    ///
    /// The trees of a round are walked [`LANES`] at a time in lockstep, one
    /// level per step, so the node loads of different trees overlap instead
    /// of each waiting for the last. Each class still receives its trees'
    /// leaves in round order, so the sums are those of one walk at a time.
    pub(crate) fn add_scores(&self, row: &[f64], learning_rate: f64, scores: &mut [f64]) {
        // `chunks(0)` panics; an empty `scores` has no class to add to.
        for round in self.roots.chunks(scores.len().max(1)) {
            for (scores, roots) in scores.chunks_mut(LANES).zip(round.chunks(LANES)) {
                let mut lanes = [0usize; LANES];
                let Some(at) = lanes.get_mut(..roots.len()) else {
                    continue;
                };
                for (idx, &root) in at.iter_mut().zip(roots) {
                    *idx = root as usize;
                }
                while self.step(at, row) {}
                for (score, &leaf) in scores.iter_mut().zip(at.iter()) {
                    *score += learning_rate * self.node(leaf).value;
                }
            }
        }
    }

    /// Move each walk in `at` that sits on a split to the child `row` picks:
    /// the left child if `value <= threshold`, else the right one, so NaN
    /// and features missing from a short row go right. Returns whether any
    /// walk moved.
    fn step(&self, at: &mut [usize], row: &[f64]) -> bool {
        let mut moved = false;
        for idx in at {
            let node = self.node(*idx);
            if node.left != 0 {
                let value = row.get(node.feature as usize).copied().unwrap_or(f64::NAN);
                *idx = if value <= node.value {
                    node.left as usize
                } else {
                    node.left as usize + 1
                };
                moved = true;
            }
        }
        moved
    }

    fn node(&self, idx: usize) -> &FlatNode {
        match self.nodes.get(idx) {
            Some(node) => node,
            // Roots and child indices all come from `push`, which reserves
            // a slot for each.
            None => unreachable!("forest walk left the arena at node {idx}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binning::BinMapper;
    use crate::dataset::Dataset;
    use crate::tree::TreeParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const ROUNDS: usize = 3;
    /// More classes than [`LANES`], so a round takes a full and a partial
    /// group of lockstep walks.
    const CLASSES: usize = LANES + 2;
    const LEARNING_RATE: f64 = 0.1;

    /// 400 rows of three features, two of them drawn from a few repeated
    /// values so bins and thresholds land on duplicates.
    fn dataset() -> Dataset {
        let mut rng = StdRng::seed_from_u64(17);
        let rows: Vec<Vec<f64>> = (0..400)
            .map(|_| {
                vec![
                    rng.gen_range(0..6) as f64,
                    rng.gen::<f64>(),
                    rng.gen_range(0..40) as f64 * 0.25,
                ]
            })
            .collect();
        Dataset::from_rows(rows, vec![0; 400]).unwrap()
    }

    /// Depth-6 trees fitted to seeded gradients, indexed `[round][class]`.
    fn fitted_rounds(data: &Dataset) -> Vec<Vec<Tree>> {
        let mapper = BinMapper::fit(data, 64);
        let binned = mapper.bin_dataset(data);
        let params = TreeParams {
            max_depth: 6,
            min_samples_leaf: 2,
            ..TreeParams::default()
        };
        let rows: Vec<usize> = (0..data.len()).collect();
        let mut rng = StdRng::seed_from_u64(29);
        (0..ROUNDS)
            .map(|_| {
                (0..CLASSES)
                    .map(|_| {
                        let grad: Vec<f64> = (0..data.len())
                            .map(|i| data.value(i, 0) - 2.5 + rng.gen_range(-1.0..1.0))
                            .collect();
                        let hess: Vec<f64> =
                            (0..data.len()).map(|_| rng.gen_range(0.5..1.5)).collect();
                        Tree::fit(&binned, &mapper, &grad, &hess, &rows, params)
                    })
                    .collect()
            })
            .collect()
    }

    fn base_scores() -> Vec<f64> {
        (0..CLASSES).map(|c| -0.5 - 0.25 * c as f64).collect()
    }

    /// The reference: each class's `learning_rate × Tree::predict_row`,
    /// summed in round order.
    fn reference_scores(rounds: &[Vec<Tree>], row: &[f64]) -> Vec<f64> {
        let mut scores = base_scores();
        for round in rounds {
            for (score, tree) in scores.iter_mut().zip(round) {
                *score += LEARNING_RATE * tree.predict_row(row);
            }
        }
        scores
    }

    #[test]
    fn node_is_16_bytes() {
        assert_eq!(std::mem::size_of::<FlatNode>(), 16);
    }

    #[test]
    fn scores_match_the_reference_walk_bit_for_bit() {
        let data = dataset();
        let rounds = fitted_rounds(&data);
        assert!(
            rounds.iter().flatten().any(|t| t.depth() == 6),
            "no tree reached depth 6"
        );
        let forest = Forest::from_rounds(&rounds);
        assert_eq!(forest.num_trees(), ROUNDS * CLASSES);
        assert_eq!(
            forest.nodes.len(),
            rounds.iter().flatten().map(Tree::num_nodes).sum::<usize>()
        );

        let width = data.num_features();
        let mut rows: Vec<Vec<f64>> = (0..data.len()).map(|i| data.row(i).to_vec()).collect();
        for special in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            rows.push(vec![special; width]);
            for f in 0..width {
                let mut row = data.row(0).to_vec();
                row[f] = special;
                rows.push(row);
            }
        }
        // A value exactly on each split threshold goes left.
        for node in rounds.iter().flatten().flat_map(Tree::nodes) {
            if !node.is_leaf() {
                let mut row = data.row(1).to_vec();
                row[node.feature as usize] = node.threshold;
                rows.push(row);
            }
        }
        // Features a short row lacks go right, like NaN.
        rows.push(data.row(2)[..1].to_vec());
        rows.push(Vec::new());

        for row in &rows {
            let mut scores = base_scores();
            forest.add_scores(row, LEARNING_RATE, &mut scores);
            let want = reference_scores(&rounds, row);
            for (class, (got, want)) in scores.iter().zip(&want).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "class {class} of row {row:?}: {got} != {want}"
                );
            }
        }
    }
}
