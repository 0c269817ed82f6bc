//! The histogram engine: row-major `u8` bins, flat per-node gradient
//! histograms, and the LightGBM-style sibling-subtraction trick.
//!
//! Histogram split finding spends nearly all of its time accumulating
//! per-bin gradient statistics. This module makes that hot loop fast two
//! ways:
//!
//! * **Row-wise fill over `u8` bins** ([`BinnedMatrix`], `fill_histogram`):
//!   a row's bins for every feature are adjacent bytes, so a node's
//!   histogram fills in one pass over its rows. Each row's gradient, hessian
//!   and bins are read once and added to that row's bin in every feature
//!   (LightGBM's row-wise mode). A node's rows arrive in shuffled sample
//!   order, so a per-feature pass would read its column at random anyway.
//! * **Sibling subtraction** (`subtract_sibling`): a node's histogram is
//!   the bin-wise sum of its children's, so after building the histogram of
//!   the *smaller* child the sibling comes from `parent − child` in
//!   `O(bins)` instead of `O(rows)` — roughly halving histogram work per
//!   tree level.
//!
//! # Determinism
//!
//! A tree fit runs on one thread; training's only parallelism is the
//! per-class fan-out of each boosting round. Every bin adds up the node's
//! rows in partition order, and subtraction is a fixed bin-order pass, so a
//! fit is fully deterministic. It differs from rebuilding every node's
//! histogram from its rows (the pre-engine algorithm) by float rounding
//! only, because subtraction changes the accumulation order.

use crate::binning::BinMapper;
use crate::dataset::Dataset;

/// Row-major matrix of per-feature bin indices, one byte each.
///
/// Produced by [`BinMapper::bin_dataset`]. A [`BinMapper`] gives each
/// feature at most 256 bins, so every bin index fits in a `u8`.
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedMatrix {
    /// Row-major storage: feature `f` of row `i` is `bins[i * num_features + f]`.
    bins: Vec<u8>,
    num_rows: usize,
    num_features: usize,
}

impl BinnedMatrix {
    /// Bin a whole dataset through `mapper` into row-major storage.
    pub fn from_dataset(mapper: &BinMapper, data: &Dataset) -> Self {
        let num_features = data.num_features();
        let mut bins = Vec::with_capacity(data.len() * num_features);
        for i in 0..data.len() {
            // `BinMapper::fit` caps `max_bins` at 256, so the cast is exact.
            bins.extend((0..num_features).map(|f| mapper.bin(f, data.value(i, f)) as u8));
        }
        BinnedMatrix {
            bins,
            num_rows: data.len(),
            num_features,
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

    /// Row `i`'s bin indices for every feature, contiguous. An out-of-range
    /// row yields an empty slice.
    fn row(&self, i: usize) -> &[u8] {
        let start = i.saturating_mul(self.num_features);
        self.bins
            .get(start..start.saturating_add(self.num_features))
            .unwrap_or(&[])
    }

    /// Bin index of row `i`, feature `f` (`0` when out of range).
    pub fn bin(&self, i: usize, f: usize) -> u8 {
        if f >= self.num_features {
            return 0;
        }
        i.checked_mul(self.num_features)
            .and_then(|start| self.bins.get(start + f))
            .copied()
            .unwrap_or(0)
    }
}

/// One histogram bin: first/second-order gradient sums and a row count.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct HistBin {
    /// Sum of first-order gradients of the rows in this bin.
    pub grad: f64,
    /// Sum of second-order gradients (hessians) of the rows in this bin.
    pub hess: f64,
    /// Number of rows in this bin.
    pub count: u32,
}

/// Per-feature offsets into a flat all-features histogram buffer.
#[derive(Debug)]
pub(crate) struct FeatureLayout {
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
}

/// Fill the flat histogram `hist` (shaped by `layout`) with the gradient
/// statistics of `rows`, in one pass over the rows of the [`BinnedMatrix`].
/// Rows are walked in the order given, so every bin's float accumulation
/// order is fixed by the caller's partition.
pub(crate) fn fill_histogram(
    hist: &mut [HistBin],
    layout: &FeatureLayout,
    binned: &BinnedMatrix,
    grad: &[f64],
    hess: &[f64],
    rows: &[usize],
) {
    for &i in rows {
        let (Some(&g), Some(&h)) = (grad.get(i), hess.get(i)) else {
            continue;
        };
        for (&b, &offset) in binned.row(i).iter().zip(&layout.offsets) {
            if let Some(slot) = hist.get_mut(offset + usize::from(b)) {
                slot.grad += g;
                slot.hess += h;
                slot.count += 1;
            }
        }
    }
}

/// Derive the sibling histogram in place: `parent` becomes `parent − child`
/// bin by bin (the histogram the sibling's rows would produce, up to float
/// rounding). A fixed-order single-threaded pass, so the result is
/// deterministic for deterministic inputs.
pub(crate) fn subtract_sibling(parent: &mut [HistBin], child: &[HistBin]) {
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
    fn binned_matrix_is_row_major_and_matches_mapper() {
        let d = dataset();
        let m = BinMapper::fit(&d, 8);
        let binned = m.bin_dataset(&d);
        assert_eq!(binned.num_rows(), 40);
        assert_eq!(binned.num_features(), 3);
        for i in 0..40 {
            assert_eq!(binned.row(i).len(), 3);
            for f in 0..3 {
                assert_eq!(usize::from(binned.bin(i, f)), m.bin(f, d.value(i, f)));
                assert_eq!(binned.row(i)[f], binned.bin(i, f));
            }
        }
        // Out-of-range accesses are graceful.
        assert!(binned.row(40).is_empty());
        assert_eq!(binned.bin(99, 0), 0);
        assert_eq!(binned.bin(0, 3), 0);
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
            covered = r.end;
        }
        assert_eq!(covered, layout.total_bins());
        assert!(layout.feature_range(7).is_empty());
    }

    /// The per-feature fill the row-wise engine replaced: one pass over
    /// `rows` per feature, in feature order.
    fn per_feature_fill(
        layout: &FeatureLayout,
        binned: &BinnedMatrix,
        grad: &[f64],
        hess: &[f64],
        rows: &[usize],
    ) -> Vec<HistBin> {
        let mut out = vec![HistBin::default(); layout.total_bins()];
        for f in 0..layout.num_features() {
            let bins = &mut out[layout.feature_range(f)];
            for &i in rows {
                let slot = &mut bins[usize::from(binned.bin(i, f))];
                slot.grad += grad[i];
                slot.hess += hess[i];
                slot.count += 1;
            }
        }
        out
    }

    fn assert_bits_equal(case: &str, got: &[HistBin], want: &[HistBin]) {
        assert_eq!(got.len(), want.len(), "{case}: bin count");
        for (b, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.grad.to_bits(), w.grad.to_bits(), "{case}: bin {b} grad");
            assert_eq!(g.hess.to_bits(), w.hess.to_bits(), "{case}: bin {b} hess");
            assert_eq!(g.count, w.count, "{case}: bin {b} count");
        }
    }

    #[test]
    fn row_wise_fill_is_bit_identical_to_per_feature_fill() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Features with 1, 2, 3, 4 and 5 bins, then two with 64.
        let n = 300;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                vec![
                    3.0,
                    (i % 2) as f64,
                    (i % 3) as f64,
                    (i * 7 % 4) as f64,
                    (i % 5) as f64,
                    i as f64,
                    (i as f64 * 0.37).sin(),
                ]
            })
            .collect();
        let d = Dataset::from_rows(rows, vec![0; n]).unwrap();
        let m = BinMapper::fit(&d, 64);
        let bin_counts: Vec<usize> = (0..7).map(|f| m.num_bins(f)).collect();
        assert_eq!(bin_counts, [1, 2, 3, 4, 5, 64, 64]);
        let binned = m.bin_dataset(&d);
        let layout = FeatureLayout::from_mapper(&m);
        let mut rng = StdRng::seed_from_u64(17);
        let grad: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let hess: Vec<f64> = (0..n).map(|_| rng.gen_range(0.01..1.0)).collect();
        // Shuffled row indices, some repeated: the fill must add the rows
        // in exactly the order given.
        let sample: Vec<usize> = (0..1500).map(|_| rng.gen_range(0..n)).collect();
        let mut hist = vec![HistBin::default(); layout.total_bins()];
        fill_histogram(&mut hist, &layout, &binned, &grad, &hess, &sample);
        let reference = per_feature_fill(&layout, &binned, &grad, &hess, &sample);
        assert_bits_equal("1500 shuffled rows", &hist, &reference);
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
        fill_histogram(&mut parent, &layout, &binned, &grad, &hess, &all);
        let mut left_hist = vec![HistBin::default(); layout.total_bins()];
        fill_histogram(&mut left_hist, &layout, &binned, &grad, &hess, left);
        let mut right_hist = vec![HistBin::default(); layout.total_bins()];
        fill_histogram(&mut right_hist, &layout, &binned, &grad, &hess, right);
        subtract_sibling(&mut parent, &left_hist);
        for (derived, rebuilt) in parent.iter().zip(&right_hist) {
            assert_eq!(derived.count, rebuilt.count);
            assert!((derived.grad - rebuilt.grad).abs() < 1e-9);
            assert!((derived.hess - rebuilt.hess).abs() < 1e-9);
        }
    }
}
