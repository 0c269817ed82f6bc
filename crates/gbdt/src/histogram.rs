//! The histogram engine: column-major binned features, pooled gradient
//! histograms, and the LightGBM-style sibling-subtraction trick.
//!
//! Histogram split finding spends nearly all of its time accumulating
//! per-bin gradient statistics. This module makes that hot loop fast three
//! ways:
//!
//! * **Column-major bins** ([`BinnedMatrix`]): each feature's bin indices
//!   for all rows are contiguous, so a per-feature fill walks one `u16`
//!   column instead of striding `row * num_features + f` across the whole
//!   row-major matrix.
//! * **Buffer pooling** ([`HistogramPool`]): per-node histograms are
//!   recycled across nodes, so a depth-6 tree allocates a handful of
//!   buffers instead of one per feature per node.
//! * **Sibling subtraction** ([`subtract_sibling`]): a node's histogram is
//!   the bin-wise sum of its children's, so after building the histogram of
//!   the *smaller* child the sibling comes from `parent − child` in
//!   `O(bins)` instead of `O(rows)` — roughly halving histogram work per
//!   tree level.
//!
//! # Determinism
//!
//! Every fill walks its rows in partition order and every feature column is
//! filled by exactly one task, so the accumulated floats are bit-identical
//! for any thread count ([`fill_histogram`] reduces per-feature results in
//! feature order). Subtraction is a fixed bin-order pass on the calling
//! thread, so a fit is fully deterministic. It differs from rebuilding every
//! node's histogram from its rows (the pre-engine algorithm) by float
//! rounding only, because subtraction changes the accumulation order.

use crate::binning::BinMapper;
use crate::dataset::Dataset;
use byom_exec::prelude::*;

/// Column-major matrix of per-feature bin indices.
///
/// Produced by [`BinMapper::bin_dataset`]; feature `f`'s bins for all rows
/// are the contiguous slice [`BinnedMatrix::column`]`(f)`.
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedMatrix {
    /// Column-major storage: row `i` of feature `f` is `bins[f * num_rows + i]`.
    bins: Vec<u16>,
    num_rows: usize,
    num_features: usize,
}

impl BinnedMatrix {
    /// Bin a whole dataset through `mapper` into column-major storage.
    pub fn from_dataset(mapper: &BinMapper, data: &Dataset) -> Self {
        let n = data.len();
        let mut bins = vec![0u16; n * data.num_features()];
        for (f, column) in bins.chunks_exact_mut(n.max(1)).enumerate() {
            for (i, slot) in column.iter_mut().enumerate() {
                *slot = mapper.bin(f, data.value(i, f)) as u16;
            }
        }
        BinnedMatrix {
            bins,
            num_rows: n,
            num_features: data.num_features(),
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of features (columns).
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Feature `f`'s bin indices for all rows, contiguous. Out-of-range
    /// features yield an empty slice.
    pub fn column(&self, f: usize) -> &[u16] {
        let start = f.saturating_mul(self.num_rows);
        self.bins
            .get(start..start.saturating_add(self.num_rows))
            .unwrap_or(&[])
    }

    /// Bin index of row `i`, feature `f` (`0` when out of range).
    pub fn bin(&self, i: usize, f: usize) -> u16 {
        self.column(f).get(i).copied().unwrap_or(0)
    }
}

/// One histogram bin: first/second-order gradient sums and a row count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistBin {
    /// Sum of first-order gradients of the rows in this bin.
    pub grad: f64,
    /// Sum of second-order gradients (hessians) of the rows in this bin.
    pub hess: f64,
    /// Number of rows in this bin.
    pub count: u32,
}

/// Per-feature offsets into a flat all-features histogram buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureLayout {
    /// `offsets[f]..offsets[f + 1]` is feature `f`'s bin range; the final
    /// entry is the total bin count.
    offsets: Vec<usize>,
}

impl FeatureLayout {
    /// Derive the layout from a fitted [`BinMapper`].
    pub fn from_mapper(mapper: &BinMapper) -> Self {
        let mut offsets = Vec::with_capacity(mapper.num_features() + 1);
        let mut total = 0usize;
        offsets.push(0);
        for f in 0..mapper.num_features() {
            total += mapper.num_bins(f);
            offsets.push(total);
        }
        FeatureLayout { offsets }
    }

    /// Number of features covered by the layout.
    pub fn num_features(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total bin count across all features (the flat buffer length).
    pub fn total_bins(&self) -> usize {
        self.offsets.last().copied().unwrap_or(0)
    }

    /// Feature `f`'s range within the flat buffer (empty when out of range).
    pub fn feature_range(&self, f: usize) -> std::ops::Range<usize> {
        let start = self.offsets.get(f).copied().unwrap_or(0);
        let end = self.offsets.get(f + 1).copied().unwrap_or(start);
        start..end
    }

    /// Number of bins of feature `f`.
    pub fn num_bins(&self, f: usize) -> usize {
        self.feature_range(f).len()
    }
}

/// A reuse pool of flat per-node histogram buffers.
///
/// Growing a tree depth-first holds at most one histogram per level on the
/// recursion path (plus the one being built), so the pool keeps the number
/// of live buffers proportional to `max_depth` instead of the node count.
#[derive(Debug)]
pub struct HistogramPool {
    layout: FeatureLayout,
    free: Vec<Vec<HistBin>>,
    allocated: usize,
}

impl HistogramPool {
    /// A pool producing buffers shaped for `layout`.
    pub fn new(layout: FeatureLayout) -> Self {
        HistogramPool {
            layout,
            free: Vec::new(),
            allocated: 0,
        }
    }

    /// The bin layout buffers from this pool follow.
    pub fn layout(&self) -> &FeatureLayout {
        &self.layout
    }

    /// A zeroed buffer of `layout.total_bins()` bins, recycled when possible.
    pub fn acquire(&mut self) -> Vec<HistBin> {
        match self.free.pop() {
            Some(mut buf) => {
                buf.iter_mut().for_each(|b| *b = HistBin::default());
                buf
            }
            None => {
                self.allocated += 1;
                vec![HistBin::default(); self.layout.total_bins()]
            }
        }
    }

    /// Return a buffer for reuse by a later [`HistogramPool::acquire`].
    pub fn release(&mut self, buf: Vec<HistBin>) {
        if buf.len() == self.layout.total_bins() {
            self.free.push(buf);
        }
    }

    /// Total buffers ever allocated (telemetry: tests pin that a depth-`d`
    /// tree allocates `O(d)` buffers, not one per node).
    pub fn buffers_allocated(&self) -> usize {
        self.allocated
    }
}

/// Accumulate `rows` of one feature column into `out` (one slot per bin),
/// walking rows in the order given so the float accumulation order is fixed.
fn fill_column(out: &mut [HistBin], column: &[u16], grad: &[f64], hess: &[f64], rows: &[usize]) {
    for &i in rows {
        let b = column.get(i).copied().unwrap_or(0) as usize;
        if let (Some(slot), Some(&g), Some(&h)) = (out.get_mut(b), grad.get(i), hess.get(i)) {
            slot.grad += g;
            slot.hess += h;
            slot.count += 1;
        }
    }
}

/// Below this many rows the per-feature fill runs sequentially even when
/// parallelism is enabled: the histogram work is too small to amortize the
/// cost of fanning out across threads (deep nodes dominate the node count
/// but not the runtime).
pub const PARALLEL_FILL_MIN_ROWS: usize = 512;

/// Fill the flat histogram `hist` (shaped by `layout`) with the gradient
/// statistics of `rows`, one contiguous [`BinnedMatrix`] column per feature.
///
/// With `parallelism > 1` and enough rows, feature columns fan out through
/// `byom_exec`; each column is still filled in row order by
/// exactly one task and the per-feature results are written back in feature
/// order, so the result is **bit-identical** to the sequential fill.
pub fn fill_histogram(
    hist: &mut [HistBin],
    layout: &FeatureLayout,
    binned: &BinnedMatrix,
    grad: &[f64],
    hess: &[f64],
    rows: &[usize],
    parallelism: usize,
) {
    let num_features = layout.num_features();
    if parallelism > 1 && rows.len() >= PARALLEL_FILL_MIN_ROWS && num_features > 1 {
        let columns: Vec<Vec<HistBin>> = (0..num_features)
            .into_par_iter()
            .with_max_threads(parallelism)
            .map(|f| {
                let mut out = vec![HistBin::default(); layout.num_bins(f)];
                fill_column(&mut out, binned.column(f), grad, hess, rows);
                out
            })
            .collect();
        // Reduce in feature order: copying preserves every bit, so the
        // buffer contents match the sequential branch exactly.
        for (f, column) in columns.into_iter().enumerate() {
            if let Some(slice) = hist.get_mut(layout.feature_range(f)) {
                slice.copy_from_slice(&column);
            }
        }
    } else {
        for f in 0..num_features {
            if let Some(slice) = hist.get_mut(layout.feature_range(f)) {
                fill_column(slice, binned.column(f), grad, hess, rows);
            }
        }
    }
}

/// Derive the sibling histogram in place: `parent` becomes `parent − child`
/// bin by bin (the histogram the sibling's rows would produce, up to float
/// rounding). A fixed-order single-threaded pass, so the result is
/// deterministic for deterministic inputs.
pub fn subtract_sibling(parent: &mut [HistBin], child: &[HistBin]) {
    for (p, c) in parent.iter_mut().zip(child) {
        p.grad -= c.grad;
        p.hess -= c.hess;
        p.count = p.count.saturating_sub(c.count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Dataset {
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![i as f64, (i * 7 % 13) as f64, 3.0])
            .collect();
        Dataset::from_rows(rows, vec![0; 40]).unwrap()
    }

    #[test]
    fn binned_matrix_is_column_major_and_matches_mapper() {
        let d = dataset();
        let m = BinMapper::fit(&d, 8);
        let binned = m.bin_dataset(&d);
        assert_eq!(binned.num_rows(), 40);
        assert_eq!(binned.num_features(), 3);
        for f in 0..3 {
            let col = binned.column(f);
            assert_eq!(col.len(), 40);
            for (i, &b) in col.iter().enumerate() {
                assert_eq!(b as usize, m.bin(f, d.value(i, f)));
                assert_eq!(binned.bin(i, f), b);
            }
        }
        // Out-of-range accesses are graceful.
        assert!(binned.column(3).is_empty());
        assert_eq!(binned.bin(99, 0), 0);
    }

    #[test]
    fn layout_covers_every_feature_without_overlap() {
        let d = dataset();
        let m = BinMapper::fit(&d, 8);
        let layout = FeatureLayout::from_mapper(&m);
        assert_eq!(layout.num_features(), 3);
        let mut covered = 0usize;
        for f in 0..3 {
            let r = layout.feature_range(f);
            assert_eq!(r.start, covered);
            assert_eq!(r.len(), m.num_bins(f));
            assert_eq!(layout.num_bins(f), m.num_bins(f));
            covered = r.end;
        }
        assert_eq!(covered, layout.total_bins());
        assert!(layout.feature_range(7).is_empty());
    }

    #[test]
    fn pool_recycles_buffers() {
        let d = dataset();
        let m = BinMapper::fit(&d, 8);
        let mut pool = HistogramPool::new(FeatureLayout::from_mapper(&m));
        let a = pool.acquire();
        let b = pool.acquire();
        assert_eq!(pool.buffers_allocated(), 2);
        pool.release(a);
        pool.release(b);
        let c = pool.acquire();
        assert_eq!(pool.buffers_allocated(), 2, "reuse, not allocate");
        assert!(c.iter().all(|b| b == &HistBin::default()), "zeroed");
    }

    #[test]
    fn parallel_fill_is_bit_identical_to_sequential() {
        let d = dataset();
        let m = BinMapper::fit(&d, 8);
        let binned = m.bin_dataset(&d);
        let layout = FeatureLayout::from_mapper(&m);
        let grad: Vec<f64> = (0..40).map(|i| (i as f64).sin()).collect();
        let hess: Vec<f64> = (0..40).map(|i| 1.0 + (i as f64).cos().abs()).collect();
        let rows: Vec<usize> = (0..40).rev().collect();
        let mut seq = vec![HistBin::default(); layout.total_bins()];
        fill_histogram(&mut seq, &layout, &binned, &grad, &hess, &rows, 1);
        // Force the parallel branch by dropping the row gate via many rows?
        // The gate needs >= PARALLEL_FILL_MIN_ROWS rows; replicate rows.
        let big_rows: Vec<usize> = rows.iter().cycle().take(1024).copied().collect();
        let mut seq_big = vec![HistBin::default(); layout.total_bins()];
        fill_histogram(&mut seq_big, &layout, &binned, &grad, &hess, &big_rows, 1);
        let mut par_big = vec![HistBin::default(); layout.total_bins()];
        fill_histogram(&mut par_big, &layout, &binned, &grad, &hess, &big_rows, 4);
        assert_eq!(seq_big, par_big);
    }

    #[test]
    fn subtraction_recovers_the_sibling_counts_exactly() {
        let d = dataset();
        let m = BinMapper::fit(&d, 8);
        let binned = m.bin_dataset(&d);
        let layout = FeatureLayout::from_mapper(&m);
        let grad: Vec<f64> = (0..40).map(|i| i as f64 * 0.25 - 3.0).collect();
        let hess = vec![1.0f64; 40];
        let all: Vec<usize> = (0..40).collect();
        let (left, right) = all.split_at(17);
        let mut parent = vec![HistBin::default(); layout.total_bins()];
        fill_histogram(&mut parent, &layout, &binned, &grad, &hess, &all, 1);
        let mut left_hist = vec![HistBin::default(); layout.total_bins()];
        fill_histogram(&mut left_hist, &layout, &binned, &grad, &hess, left, 1);
        let mut right_hist = vec![HistBin::default(); layout.total_bins()];
        fill_histogram(&mut right_hist, &layout, &binned, &grad, &hess, right, 1);
        subtract_sibling(&mut parent, &left_hist);
        for (derived, rebuilt) in parent.iter().zip(&right_hist) {
            assert_eq!(derived.count, rebuilt.count);
            assert!((derived.grad - rebuilt.grad).abs() < 1e-9);
            assert!((derived.hess - rebuilt.hess).abs() < 1e-9);
        }
    }
}
