//! Quantile binning of feature values for histogram-based split finding.
//!
//! Each feature is discretized into at most `max_bins` bins whose edges are
//! (approximate) quantiles of the training distribution. Trees then find
//! splits by scanning bin histograms of gradient statistics instead of
//! sorting raw values, which is the standard approach in modern GBDT
//! implementations (LightGBM, XGBoost `hist`, YDF).

use crate::dataset::Dataset;
use crate::histogram::BinnedMatrix;
use byom_exec::prelude::*;

/// Maps raw feature values to discrete bin indices per feature.
#[derive(Debug, Clone, PartialEq)]
pub struct BinMapper {
    /// `edges[f]` holds the upper edges of feature `f`'s bins (sorted,
    /// exclusive of the last bin which is unbounded above).
    edges: Vec<Vec<f64>>,
}

impl BinMapper {
    /// Fit bin edges on a training dataset.
    ///
    /// # Panics
    /// Panics if `max_bins < 2`, or if `max_bins > 256`: a
    /// [`BinnedMatrix`] stores each bin index in a `u8`.
    pub fn fit(data: &Dataset, max_bins: usize) -> Self {
        assert!(max_bins >= 2, "need at least 2 bins");
        assert!(max_bins <= 256, "at most 256 bins fit a u8 bin index");
        let n = data.len();
        // Each feature's edges come from its own sorted column, so features
        // fan out under the ambient `byom_exec` budget, one column buffer
        // per running closure; `collect` keeps them in feature order.
        let edges = (0..data.num_features())
            .into_par_iter()
            .map(|f| {
                let mut col: Vec<f64> = (0..n).map(|i| data.value(i, f)).collect();
                col.sort_by(|a, b| a.total_cmp(b));
                col.dedup();
                #[expect(
                    clippy::indexing_slicing,
                    reason = "window and quantile indices stay below the column length"
                )]
                let feature_edges = if col.len() <= max_bins {
                    // Each distinct value gets its own bin; edges are midpoints.
                    col.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect()
                } else {
                    // Quantile edges.
                    let mut e = Vec::with_capacity(max_bins - 1);
                    for k in 1..max_bins {
                        let idx = k * (col.len() - 1) / max_bins;
                        #[expect(
                            clippy::indexing_slicing,
                            reason = "window and quantile indices stay below the column length"
                        )]
                        let v = (col[idx] + col[(idx + 1).min(col.len() - 1)]) / 2.0;
                        if e.last().is_none_or(|&last| v > last) {
                            e.push(v);
                        }
                    }
                    e
                };
                feature_edges
            })
            .collect();
        BinMapper { edges }
    }

    /// Number of features this mapper was fitted on.
    pub fn num_features(&self) -> usize {
        self.edges.len()
    }

    /// Number of bins used for feature `f` (edges + 1).
    #[expect(
        clippy::indexing_slicing,
        reason = "hot-path indexing; feature and bin ids are produced by the binner itself"
    )]
    pub fn num_bins(&self, f: usize) -> usize {
        self.edges[f].len() + 1
    }

    /// The upper-edge value separating bin `b` from bin `b+1` of feature `f`.
    /// Used by trees to store real-valued thresholds.
    ///
    /// # Panics
    /// Panics if `b` is not a valid edge index for feature `f`.
    #[expect(
        clippy::indexing_slicing,
        reason = "hot-path indexing; feature and bin ids are produced by the binner itself"
    )]
    pub fn edge(&self, f: usize, b: usize) -> f64 {
        self.edges[f][b]
    }

    /// Bin index of value `v` for feature `f`.
    pub fn bin(&self, f: usize, v: f64) -> usize {
        #[expect(
            clippy::indexing_slicing,
            reason = "hot-path indexing; feature and bin ids are produced by the binner itself"
        )]
        let e = &self.edges[f];
        // partition_point returns the count of edges <= v ... we want first
        // edge >= v; values equal to an edge go left (bin of that edge).
        e.partition_point(|&edge| edge < v)
    }

    /// Pre-bin an entire dataset into a row-major [`BinnedMatrix`] of `u8`
    /// bin indices ([`BinMapper::fit`] caps every feature at 256 bins). A
    /// histogram fill then reads each row's bins for all features as
    /// adjacent bytes.
    pub fn bin_dataset(&self, data: &Dataset) -> BinnedMatrix {
        BinnedMatrix::from_dataset(self, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(col: Vec<f64>) -> Dataset {
        let labels = vec![0; col.len()];
        Dataset::from_rows(col.into_iter().map(|v| vec![v]).collect(), labels).unwrap()
    }

    #[test]
    fn few_distinct_values_get_exact_bins() {
        let d = dataset(vec![1.0, 1.0, 2.0, 2.0, 3.0]);
        let m = BinMapper::fit(&d, 256);
        assert_eq!(m.num_bins(0), 3);
        assert_eq!(m.bin(0, 1.0), 0);
        assert_eq!(m.bin(0, 2.0), 1);
        assert_eq!(m.bin(0, 3.0), 2);
        assert_eq!(m.bin(0, 0.0), 0);
        assert_eq!(m.bin(0, 99.0), 2);
    }

    #[test]
    fn many_values_respect_max_bins() {
        let d = dataset((0..10_000).map(|i| i as f64).collect());
        let m = BinMapper::fit(&d, 16);
        assert!(m.num_bins(0) <= 16);
        assert!(m.num_bins(0) >= 8);
        // Bins are monotone in the value.
        let mut last = 0;
        for v in (0..10_000).step_by(97) {
            let b = m.bin(0, v as f64);
            assert!(b >= last);
            last = b;
        }
    }

    #[test]
    fn constant_feature_gets_single_bin() {
        let d = dataset(vec![5.0; 100]);
        let m = BinMapper::fit(&d, 32);
        assert_eq!(m.num_bins(0), 1);
        assert_eq!(m.bin(0, 5.0), 0);
        assert_eq!(m.bin(0, -1.0), 0);
    }

    #[test]
    fn bin_dataset_shape_and_bounds() {
        let d = Dataset::from_rows(
            (0..50)
                .map(|i| vec![i as f64, (i * 7 % 13) as f64])
                .collect(),
            vec![0; 50],
        )
        .unwrap();
        let m = BinMapper::fit(&d, 8);
        let binned = m.bin_dataset(&d);
        assert_eq!(binned.num_rows(), 50);
        assert_eq!(binned.num_features(), 2);
        for i in 0..50 {
            for f in 0..2 {
                assert!((binned.bin(i, f) as usize) < m.num_bins(f));
                assert_eq!(binned.bin(i, f) as usize, m.bin(f, d.value(i, f)));
            }
        }
    }

    #[test]
    fn a_256_bin_feature_keeps_every_bin_index() {
        let d = dataset((0..1000).map(|i| i as f64).collect());
        let m = BinMapper::fit(&d, 256);
        assert_eq!(m.num_bins(0), 256);
        let binned = m.bin_dataset(&d);
        for i in 0..1000 {
            assert_eq!(usize::from(binned.bin(i, 0)), m.bin(0, i as f64));
        }
        assert_eq!(binned.bin(999, 0), 255);
    }

    #[test]
    fn edges_are_strictly_increasing() {
        let d = dataset((0..1000).map(|i| (i % 37) as f64).collect());
        let m = BinMapper::fit(&d, 16);
        for b in 1..m.num_bins(0) - 1 {
            assert!(m.edge(0, b) > m.edge(0, b - 1));
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 bins")]
    fn rejects_one_bin() {
        let d = dataset(vec![1.0, 2.0]);
        let _ = BinMapper::fit(&d, 1);
    }

    #[test]
    #[should_panic(expected = "at most 256 bins")]
    fn rejects_more_bins_than_a_u8_holds() {
        let d = dataset(vec![1.0, 2.0]);
        let _ = BinMapper::fit(&d, 257);
    }
}
