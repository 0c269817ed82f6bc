//! Frozen copy of the pre-histogram-engine tree fit, kept as a reference.
//!
//! This is the row-major, rebuild-every-node split finder exactly as it
//! shipped before the histogram engine (column-major bins, pooled buffers,
//! sibling subtraction) replaced it. It is the workspace's one tree-fit
//! reference: the equivalence tests require `Tree::fit_scored` to choose
//! the same splits as this implementation with leaf values equal up to
//! float rounding, so the engine is anchored to real history instead of to
//! itself.
//!
//! Only the sequential path is preserved (the historical parallel search was
//! bit-identical to it by construction). Do not "improve" this module; its
//! value is that it does not change.

use byom_gbdt::{BinMapper, Dataset, Node, TreeParams};

/// Bin a dataset into the historical **row-major** layout
/// (`out[i * num_features + f]`), as `BinMapper::bin_dataset` did before it
/// grew the column-major `BinnedMatrix`.
pub fn bin_dataset_row_major(mapper: &BinMapper, data: &Dataset) -> Vec<u16> {
    let mut out = Vec::with_capacity(data.len() * data.num_features());
    for i in 0..data.len() {
        for f in 0..data.num_features() {
            out.push(mapper.bin(f, data.value(i, f)) as u16);
        }
    }
    out
}

struct FitContext<'a> {
    binned: &'a [u16],
    num_features: usize,
    mapper: &'a BinMapper,
    grad: &'a [f64],
    hess: &'a [f64],
    params: TreeParams,
}

struct BestSplit {
    feature: usize,
    bin: usize,
    gain: f64,
}

/// Fit a tree with the pre-engine algorithm and return its node array
/// (root first) — directly comparable to `Tree::nodes()`.
///
/// # Panics
/// Panics if `rows` is empty or the inputs disagree on the number of rows.
pub fn fit_legacy(
    binned: &[u16],
    num_features: usize,
    mapper: &BinMapper,
    grad: &[f64],
    hess: &[f64],
    rows: &[usize],
    params: TreeParams,
) -> Vec<Node> {
    assert!(!rows.is_empty(), "cannot fit a tree on zero rows");
    assert_eq!(grad.len(), hess.len(), "grad and hess must be parallel");
    assert_eq!(
        binned.len(),
        grad.len() * num_features,
        "binned matrix shape mismatch"
    );
    let ctx = FitContext {
        binned,
        num_features,
        mapper,
        grad,
        hess,
        params,
    };
    let mut nodes = Vec::new();
    let mut rows_owned: Vec<usize> = rows.to_vec();
    build_node(&mut nodes, &ctx, &mut rows_owned, 0);
    nodes
}

fn build_node(
    nodes: &mut Vec<Node>,
    ctx: &FitContext<'_>,
    rows: &mut [usize],
    depth: usize,
) -> usize {
    let (g_sum, h_sum) = rows.iter().fold((0.0, 0.0), |(g, h), &i| {
        (
            g + ctx.grad.get(i).copied().unwrap_or(0.0),
            h + ctx.hess.get(i).copied().unwrap_or(0.0),
        )
    });
    let leaf_value = -g_sum / (h_sum + ctx.params.l2_lambda);

    let node_idx = nodes.len();
    nodes.push(Node {
        feature: 0,
        threshold: 0.0,
        left: -1,
        right: -1,
        value: leaf_value,
        gain: 0.0,
    });

    if depth >= ctx.params.max_depth || rows.len() < 2 * ctx.params.min_samples_leaf {
        return node_idx;
    }

    let Some(best) = find_best_split(ctx, rows, g_sum, h_sum) else {
        return node_idx;
    };

    let threshold = ctx.mapper.edge(best.feature, best.bin);
    let mut split_point = 0;
    for i in 0..rows.len() {
        let row = rows.get(i).copied().unwrap_or(0);
        let bin = ctx
            .binned
            .get(row * ctx.num_features + best.feature)
            .copied()
            .unwrap_or(0) as usize;
        if bin <= best.bin {
            rows.swap(i, split_point);
            split_point += 1;
        }
    }
    if split_point == 0
        || split_point == rows.len()
        || split_point < ctx.params.min_samples_leaf
        || rows.len() - split_point < ctx.params.min_samples_leaf
    {
        return node_idx;
    }

    let (left_rows, right_rows) = rows.split_at_mut(split_point);
    let left_idx = build_node(nodes, ctx, left_rows, depth + 1);
    let right_idx = build_node(nodes, ctx, right_rows, depth + 1);

    if let Some(node) = nodes.get_mut(node_idx) {
        node.feature = best.feature as u32;
        node.threshold = threshold;
        node.left = left_idx as i32;
        node.right = right_idx as i32;
        node.gain = best.gain;
    }
    node_idx
}

fn find_best_split(
    ctx: &FitContext<'_>,
    rows: &[usize],
    g_total: f64,
    h_total: f64,
) -> Option<BestSplit> {
    let mut best: Option<BestSplit> = None;
    for f in 0..ctx.num_features {
        let Some(candidate) = feature_best_split(ctx, rows, f, g_total, h_total) else {
            continue;
        };
        if best.as_ref().is_none_or(|s| candidate.gain > s.gain) {
            best = Some(candidate);
        }
    }
    best
}

fn feature_best_split(
    ctx: &FitContext<'_>,
    rows: &[usize],
    f: usize,
    g_total: f64,
    h_total: f64,
) -> Option<BestSplit> {
    let lambda = ctx.params.l2_lambda;
    let parent_score = g_total * g_total / (h_total + lambda);
    let num_bins = ctx.mapper.num_bins(f);
    if num_bins < 2 {
        return None;
    }
    // The historical strided fill: every row touch jumps `num_features`
    // entries through the row-major matrix.
    let mut hist = vec![(0.0f64, 0.0f64, 0usize); num_bins];
    for &i in rows {
        let b = ctx
            .binned
            .get(i * ctx.num_features + f)
            .copied()
            .unwrap_or(0) as usize;
        if let (Some(slot), Some(&g), Some(&h)) =
            (hist.get_mut(b), ctx.grad.get(i), ctx.hess.get(i))
        {
            slot.0 += g;
            slot.1 += h;
            slot.2 += 1;
        }
    }
    let mut best: Option<BestSplit> = None;
    let mut g_left = 0.0;
    let mut h_left = 0.0;
    let mut c_left = 0usize;
    for (b, &(g_bin, h_bin, c_bin)) in hist.iter().enumerate().take(num_bins - 1) {
        g_left += g_bin;
        h_left += h_bin;
        c_left += c_bin;
        let c_right = rows.len() - c_left;
        if c_left < ctx.params.min_samples_leaf || c_right < ctx.params.min_samples_leaf {
            continue;
        }
        let g_right = g_total - g_left;
        let h_right = h_total - h_left;
        let gain = 0.5
            * (g_left * g_left / (h_left + lambda) + g_right * g_right / (h_right + lambda)
                - parent_score);
        if gain > ctx.params.min_split_gain && best.as_ref().is_none_or(|s| gain > s.gain) {
            best = Some(BestSplit {
                feature: f,
                bin: b,
                gain,
            });
        }
    }
    best
}
