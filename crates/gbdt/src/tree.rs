//! Single regression trees fit to gradient/hessian statistics.
//!
//! Trees are grown greedily and depth-first using per-feature histograms of
//! first- and second-order gradient sums ("histogram split finding"). Leaf
//! values use the standard second-order (Newton) estimate `-G / (H + λ)`.
//!
//! The histogram hot path runs on the engine in [`crate::histogram`]:
//! row-wise fills over row-major `u8` bins and the sibling subtraction
//! trick. A fit runs on the calling thread — see that module for the
//! determinism contract.

use crate::binning::BinMapper;
use crate::histogram::{fill_histogram, subtract_sibling, BinnedMatrix, FeatureLayout, HistBin};

/// Hyperparameters of a single tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum tree depth (root = depth 0). The paper uses 6.
    pub max_depth: usize,
    /// Minimum number of training rows in each child of a split.
    pub min_samples_leaf: usize,
    /// L2 regularization on leaf values (λ).
    pub l2_lambda: f64,
    /// Minimum split gain required to split a node (γ).
    pub min_split_gain: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 6,
            min_samples_leaf: 5,
            l2_lambda: 1.0,
            min_split_gain: 1e-6,
        }
    }
}

/// One node of a fitted tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Node {
    /// Feature index this node splits on (unused for leaves).
    pub feature: u32,
    /// Real-valued threshold: rows with `value <= threshold` go left.
    pub threshold: f64,
    /// Index of the left child in the node array, or -1 for leaves.
    pub left: i32,
    /// Index of the right child in the node array, or -1 for leaves.
    pub right: i32,
    /// Prediction value (only meaningful for leaves).
    pub value: f64,
    /// Gain achieved by this node's split (0 for leaves).
    pub gain: f64,
}

impl Node {
    /// Whether this node is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.left < 0
    }
}

/// A fitted regression tree.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tree {
    nodes: Vec<Node>,
}

/// A fitted tree plus the leaf value assigned to every row of the binned
/// matrix, harvested from the row partition the fit computes anyway.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredFit {
    /// The fitted tree.
    pub tree: Tree,
    /// `row_values[i]` is the value of the leaf row `i` lands in — for
    /// **all** rows of the binned matrix, not just the fitted subsample.
    /// Boosting score updates become one add per row with no tree walk;
    /// the values are bit-identical to walking the fitted tree with
    /// [`Tree::predict_row`] on the raw features.
    pub row_values: Vec<f64>,
}

struct FitContext<'a> {
    binned: &'a BinnedMatrix,
    mapper: &'a BinMapper,
    layout: FeatureLayout,
    grad: &'a [f64],
    hess: &'a [f64],
    params: TreeParams,
}

impl FitContext<'_> {
    /// A fresh histogram filled from `rows`.
    fn histogram_of(&self, rows: &[usize]) -> Vec<HistBin> {
        let mut hist = vec![HistBin::default(); self.layout.total_bins()];
        fill_histogram(
            &mut hist,
            &self.layout,
            self.binned,
            self.grad,
            self.hess,
            rows,
        );
        hist
    }
}

struct BestSplit {
    feature: usize,
    bin: usize,
    gain: f64,
}

impl Tree {
    /// Fit a tree to the gradient/hessian statistics of the rows listed in
    /// `rows`, and return it with the fitted leaf value of **every** row of
    /// `binned` (not just `rows`).
    ///
    /// * `binned` is the row-major bin matrix produced by
    ///   [`BinMapper::bin_dataset`].
    /// * `grad`/`hess` are per-row first/second order derivatives of the loss.
    ///
    /// The rows of `rows` take their leaf from the partition the fit
    /// computes anyway; the rows outside it are carried through the same
    /// splits in a second index partition. See [`ScoredFit`].
    ///
    /// The fit runs on the calling thread, and every histogram bin adds up
    /// the node's rows in partition order, so the result is deterministic.
    ///
    /// # Panics
    /// Panics if `rows` is empty or the inputs disagree on the number of rows.
    pub fn fit_scored(
        binned: &BinnedMatrix,
        mapper: &BinMapper,
        grad: &[f64],
        hess: &[f64],
        rows: &[usize],
        params: TreeParams,
    ) -> ScoredFit {
        assert!(!rows.is_empty(), "cannot fit a tree on zero rows");
        assert_eq!(grad.len(), hess.len(), "grad and hess must be parallel");
        assert_eq!(
            binned.num_rows(),
            grad.len(),
            "binned matrix shape mismatch"
        );
        let ctx = FitContext {
            binned,
            mapper,
            layout: FeatureLayout::from_mapper(mapper),
            grad,
            hess,
            params,
        };
        let mut tree = Tree { nodes: Vec::new() };
        let mut rows_owned: Vec<usize> = rows.to_vec();
        // Only the rows outside the sample need a partition of their own:
        // the sampled rows' leaves follow from `rows_owned`.
        let mut in_sample = vec![false; binned.num_rows()];
        for &i in rows {
            if let Some(flag) = in_sample.get_mut(i) {
                *flag = true;
            }
        }
        let mut tracked: Vec<usize> = in_sample
            .iter()
            .enumerate()
            .filter_map(|(i, &sampled)| (!sampled).then_some(i))
            .collect();
        let mut row_values = vec![0.0; binned.num_rows()];
        tree.build_node(
            &ctx,
            &mut rows_owned,
            &mut tracked,
            None,
            0,
            &mut row_values,
        );
        ScoredFit { tree, row_values }
    }

    /// Recursively build the subtree for `rows`, returning the node index.
    ///
    /// `hist` is this node's histogram when the parent already produced it;
    /// `None` means "build from `rows` if a split will actually be
    /// searched" (only the root builds its own). `tracked` carries the
    /// partition of the rows outside the sample (empty when every row is in
    /// the sample).
    fn build_node(
        &mut self,
        ctx: &FitContext<'_>,
        rows: &mut [usize],
        tracked: &mut [usize],
        hist: Option<Vec<HistBin>>,
        depth: usize,
        row_values: &mut [f64],
    ) -> usize {
        let (g_sum, h_sum) = rows.iter().fold((0.0, 0.0), |(g, h), &i| {
            (
                g + ctx.grad.get(i).copied().unwrap_or(0.0),
                h + ctx.hess.get(i).copied().unwrap_or(0.0),
            )
        });
        let leaf_value = -g_sum / (h_sum + ctx.params.l2_lambda);

        let node_idx = self.nodes.len();
        self.nodes.push(Node {
            feature: 0,
            threshold: 0.0,
            left: -1,
            right: -1,
            value: leaf_value,
            gain: 0.0,
        });

        if depth >= ctx.params.max_depth || rows.len() < 2 * ctx.params.min_samples_leaf {
            Self::record_leaf(rows, tracked, leaf_value, row_values);
            return node_idx;
        }

        // This node's histogram: handed down by the parent, or built from
        // this node's rows.
        let mut hist = hist.unwrap_or_else(|| ctx.histogram_of(rows));

        let Some(best) = Self::best_split(ctx, &hist, rows.len(), g_sum, h_sum) else {
            Self::record_leaf(rows, tracked, leaf_value, row_values);
            return node_idx;
        };

        // Partition rows in place: left = bin <= best.bin. The exact swap
        // permutation is part of the determinism contract (row order feeds
        // the children's float accumulations), so this stays a swap loop.
        let threshold = ctx.mapper.edge(best.feature, best.bin);
        let split_point = Self::partition(rows, ctx.binned, best.feature, best.bin);
        if split_point == 0
            || split_point == rows.len()
            || split_point < ctx.params.min_samples_leaf
            || rows.len() - split_point < ctx.params.min_samples_leaf
        {
            Self::record_leaf(rows, tracked, leaf_value, row_values);
            return node_idx;
        }
        let tracked_split = Self::partition(tracked, ctx.binned, best.feature, best.bin);

        let (left_rows, right_rows) = rows.split_at_mut(split_point);
        let (left_tracked, right_tracked) = tracked.split_at_mut(tracked_split);

        // Child histograms: fill only the smaller child and derive the
        // sibling as `parent − child` in the parent's buffer — unless
        // neither child can split, in which case no histogram is needed.
        let left_splits = Self::may_split(ctx, left_rows.len(), depth + 1);
        let right_splits = Self::may_split(ctx, right_rows.len(), depth + 1);
        let (left_hist, right_hist) = if !left_splits && !right_splits {
            (None, None)
        } else {
            let small_is_left = left_rows.len() <= right_rows.len();
            let small = ctx.histogram_of(if small_is_left {
                &*left_rows
            } else {
                &*right_rows
            });
            subtract_sibling(&mut hist, &small);
            let (lh, rh) = if small_is_left {
                (small, hist)
            } else {
                (hist, small)
            };
            (left_splits.then_some(lh), right_splits.then_some(rh))
        };

        let left_idx = self.build_node(
            ctx,
            left_rows,
            left_tracked,
            left_hist,
            depth + 1,
            row_values,
        );
        let right_idx = self.build_node(
            ctx,
            right_rows,
            right_tracked,
            right_hist,
            depth + 1,
            row_values,
        );

        if let Some(node) = self.nodes.get_mut(node_idx) {
            node.feature = best.feature as u32;
            node.threshold = threshold;
            node.left = left_idx as i32;
            node.right = right_idx as i32;
            node.gain = best.gain;
        }
        node_idx
    }

    /// Whether a child with `num_rows` rows at `depth` will search a split
    /// (the exact complement of the leaf early-outs at node entry) — and
    /// therefore whether it needs a histogram at all.
    fn may_split(ctx: &FitContext<'_>, num_rows: usize, depth: usize) -> bool {
        depth < ctx.params.max_depth && num_rows >= 2 * ctx.params.min_samples_leaf
    }

    /// Swap-partition `rows` so indices whose bin of `feature` is
    /// `<= split_bin` come first; returns the split point. The swap
    /// permutation is deterministic and shared by the sample and tracked
    /// partitions.
    fn partition(
        rows: &mut [usize],
        binned: &BinnedMatrix,
        feature: usize,
        split_bin: usize,
    ) -> usize {
        let mut split_point = 0;
        for i in 0..rows.len() {
            let row = rows.get(i).copied().unwrap_or(0);
            if usize::from(binned.bin(row, feature)) <= split_bin {
                rows.swap(i, split_point);
                split_point += 1;
            }
        }
        split_point
    }

    /// Record `value` as the fitted leaf value of the leaf's sampled and
    /// tracked rows.
    fn record_leaf(rows: &[usize], tracked: &[usize], value: f64, row_values: &mut [f64]) {
        for &i in rows.iter().chain(tracked) {
            if let Some(slot) = row_values.get_mut(i) {
                *slot = value;
            }
        }
    }

    /// The best split across all features, scanning the node's histogram.
    /// Features and bins are visited in order with a strict `>` comparison,
    /// so ties break toward the lowest feature index then the lowest bin —
    /// exactly as the pre-engine per-feature loop did.
    fn best_split(
        ctx: &FitContext<'_>,
        hist: &[HistBin],
        num_rows: usize,
        g_total: f64,
        h_total: f64,
    ) -> Option<BestSplit> {
        let lambda = ctx.params.l2_lambda;
        let parent_score = g_total * g_total / (h_total + lambda);
        let mut best: Option<BestSplit> = None;
        for f in 0..ctx.layout.num_features() {
            let Some(bins) = hist.get(ctx.layout.feature_range(f)) else {
                continue;
            };
            if bins.len() < 2 {
                continue;
            }
            // Scan split points (split after bin b: left = bins 0..=b).
            let mut g_left = 0.0;
            let mut h_left = 0.0;
            let mut c_left = 0usize;
            let last = bins.len() - 1;
            for (b, bin) in bins.iter().enumerate().take(last) {
                g_left += bin.grad;
                h_left += bin.hess;
                c_left += bin.count as usize;
                let c_right = num_rows.saturating_sub(c_left);
                if c_left < ctx.params.min_samples_leaf || c_right < ctx.params.min_samples_leaf {
                    continue;
                }
                let g_right = g_total - g_left;
                let h_right = h_total - h_left;
                let gain = 0.5
                    * (g_left * g_left / (h_left + lambda)
                        + g_right * g_right / (h_right + lambda)
                        - parent_score);
                if gain > ctx.params.min_split_gain && best.as_ref().is_none_or(|s| gain > s.gain) {
                    best = Some(BestSplit {
                        feature: f,
                        bin: b,
                        gain,
                    });
                }
            }
        }
        best
    }

    /// Predict the tree's output for one raw (unbinned) feature row.
    ///
    /// Features the row is too short to provide compare as missing and
    /// follow the right branch; callers that want an error instead should
    /// validate the row length first (the GBDT layer's `try_predict*` APIs
    /// do).
    ///
    /// # Panics
    /// Panics if the tree is empty (never fitted).
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        assert!(!self.nodes.is_empty(), "tree has no nodes");
        let mut idx = 0usize;
        loop {
            let Some(node) = self.nodes.get(idx) else {
                // Child indices are produced by `build_node` and always
                // point into `nodes`; a malformed hand-built tree is the
                // only way here.
                unreachable!("tree walk reached node index {idx} out of bounds");
            };
            if node.is_leaf() {
                return node.value;
            }
            let value = row.get(node.feature as usize).copied().unwrap_or(f64::NAN);
            idx = if value <= node.threshold {
                node.left as usize
            } else {
                node.right as usize
            };
        }
    }

    /// Number of nodes in the tree.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Maximum depth of the fitted tree (root = 0; empty tree = 0).
    #[cfg(test)]
    pub(crate) fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], idx: usize) -> usize {
            match nodes.get(idx) {
                None => 0,
                Some(n) if n.is_leaf() => 0,
                Some(n) => {
                    1 + depth_of(nodes, n.left as usize).max(depth_of(nodes, n.right as usize))
                }
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            depth_of(&self.nodes, 0)
        }
    }

    /// The nodes of the tree (root first).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// Fit a tree to a regression target using squared loss (hess = 1).
    fn fit_regression(xs: Vec<Vec<f64>>, ys: Vec<f64>, params: TreeParams) -> (Tree, Dataset) {
        let labels = vec![0usize; ys.len()];
        let data = Dataset::from_rows(xs, labels).unwrap();
        let mapper = BinMapper::fit(&data, 64);
        let binned = mapper.bin_dataset(&data);
        // Squared loss: grad = pred - y with pred = 0.
        let grad: Vec<f64> = ys.iter().map(|y| -y).collect();
        let hess = vec![1.0; ys.len()];
        let rows: Vec<usize> = (0..ys.len()).collect();
        let tree = Tree::fit_scored(&binned, &mapper, &grad, &hess, &rows, params).tree;
        (tree, data)
    }

    #[test]
    fn fits_a_simple_step_function() {
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..100).map(|i| if i < 50 { 0.0 } else { 10.0 }).collect();
        let params = TreeParams {
            l2_lambda: 0.0,
            ..Default::default()
        };
        let (tree, _) = fit_regression(xs, ys, params);
        assert!(tree.predict_row(&[10.0]) < 1.0);
        assert!(tree.predict_row(&[90.0]) > 9.0);
        // Every split adds two nodes, so 3 nodes is at least 2 leaves.
        assert!(tree.num_nodes() >= 3);
    }

    #[test]
    fn respects_max_depth() {
        let xs: Vec<Vec<f64>> = (0..256).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..256).map(|i| (i % 17) as f64).collect();
        let params = TreeParams {
            max_depth: 3,
            min_samples_leaf: 1,
            ..Default::default()
        };
        let (tree, _) = fit_regression(xs, ys, params);
        assert!(tree.depth() <= 3, "depth {}", tree.depth());
        assert!(tree.num_nodes() <= 15, "at most 8 leaves");
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let xs: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let ys = vec![3.0; 50];
        let (tree, _) = fit_regression(xs, ys, TreeParams::default());
        assert_eq!(tree.num_nodes(), 1);
        // Leaf value shrunk slightly by lambda but close to 3.
        assert!((tree.predict_row(&[25.0]) - 3.0).abs() < 0.2);
    }

    #[test]
    fn min_samples_leaf_prevents_tiny_leaves() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        // Single outlier target value.
        let ys: Vec<f64> = (0..20).map(|i| if i == 0 { 100.0 } else { 0.0 }).collect();
        let params = TreeParams {
            min_samples_leaf: 5,
            l2_lambda: 0.0,
            ..Default::default()
        };
        let (tree, _) = fit_regression(xs, ys, params);
        // The outlier cannot be isolated because that leaf would have 1 row.
        for n in tree.nodes() {
            if n.is_leaf() {
                assert!(n.value < 100.0);
            }
        }
    }

    #[test]
    fn uses_the_informative_feature() {
        // Feature 1 is pure noise (constant); feature 0 is informative.
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64, 1.0]).collect();
        let ys: Vec<f64> = (0..100).map(|i| if i < 30 { -5.0 } else { 5.0 }).collect();
        let (tree, _) = fit_regression(xs, ys, TreeParams::default());
        let split_features: Vec<u32> = tree
            .nodes()
            .iter()
            .filter(|n| !n.is_leaf())
            .map(|n| n.feature)
            .collect();
        assert!(!split_features.is_empty(), "the tree never split");
        assert!(split_features.iter().all(|&f| f == 0), "{split_features:?}");
    }

    #[test]
    fn two_feature_interaction() {
        // y = 1 if x0 > 50 XOR x1 > 50 — needs depth 2.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for a in 0..20 {
            for b in 0..20 {
                let x0 = a as f64 * 5.0;
                let x1 = b as f64 * 5.0;
                xs.push(vec![x0, x1]);
                ys.push(if (x0 > 50.0) ^ (x1 > 50.0) { 1.0 } else { 0.0 });
            }
        }
        let params = TreeParams {
            max_depth: 4,
            min_samples_leaf: 2,
            l2_lambda: 0.0,
            ..Default::default()
        };
        let (tree, _) = fit_regression(xs, ys, params);
        assert!(tree.predict_row(&[80.0, 10.0]) > 0.8);
        assert!(tree.predict_row(&[10.0, 80.0]) > 0.8);
        assert!(tree.predict_row(&[10.0, 10.0]) < 0.2);
        assert!(tree.predict_row(&[80.0, 80.0]) < 0.2);
    }

    #[test]
    fn scored_fit_matches_tree_walk_for_every_row() {
        let xs: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![(i % 23) as f64, (i % 7) as f64])
            .collect();
        let ys: Vec<f64> = (0..200).map(|i| ((i % 23) as f64).sin()).collect();
        let labels = vec![0usize; ys.len()];
        let data = Dataset::from_rows(xs, labels).unwrap();
        let mapper = BinMapper::fit(&data, 32);
        let binned = mapper.bin_dataset(&data);
        let grad: Vec<f64> = ys.iter().map(|y| -y).collect();
        let hess = vec![1.0; ys.len()];
        // A strict subsample in index order, every row (nothing is out of
        // sample), and a shuffled strict subsample as boosting draws it.
        let mut shuffled: Vec<usize> = (0..200).collect();
        shuffled.shuffle(&mut StdRng::seed_from_u64(5));
        shuffled.truncate(160);
        let samples = [
            (0..200).filter(|i| i % 3 != 0).collect(),
            (0..200).collect(),
            shuffled,
        ];
        for (case, sample) in samples.iter().enumerate() {
            let fit = Tree::fit_scored(
                &binned,
                &mapper,
                &grad,
                &hess,
                sample,
                TreeParams::default(),
            );
            assert!(
                fit.tree.num_nodes() > 1,
                "case {case}: the tree never split"
            );
            assert_eq!(fit.row_values.len(), 200);
            for i in 0..200 {
                assert_eq!(
                    fit.row_values[i].to_bits(),
                    fit.tree.predict_row(data.row(i)).to_bits(),
                    "case {case}: row {i} diverged from the tree walk"
                );
            }
        }
    }

    #[test]
    fn short_rows_follow_the_missing_branch() {
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![1.0, i as f64]).collect();
        let ys: Vec<f64> = (0..100).map(|i| if i < 50 { 0.0 } else { 10.0 }).collect();
        let (tree, _) = fit_regression(xs, ys, TreeParams::default());
        // The tree splits on feature 1; a 1-feature row treats it as missing
        // (NaN compares false) and follows the right branch instead of
        // panicking.
        let v = tree.predict_row(&[1.0]);
        assert!(v.is_finite());
    }

    #[test]
    #[should_panic(expected = "zero rows")]
    fn empty_rows_panics() {
        let data = Dataset::from_rows(vec![vec![1.0]], vec![0]).unwrap();
        let mapper = BinMapper::fit(&data, 8);
        let binned = mapper.bin_dataset(&data);
        let _ = Tree::fit_scored(&binned, &mapper, &[0.0], &[1.0], &[], TreeParams::default());
    }
}
