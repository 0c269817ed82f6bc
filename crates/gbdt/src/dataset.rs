//! Dense in-memory dataset used for training and evaluation.

use crate::error::GbdtError;
use byom_exec::prelude::*;
use rand::seq::SliceRandom;
use rand::Rng;

/// Rows per block when [`Dataset::from_fn`] fills rows in parallel.
const FILL_ROWS: usize = 1024;

/// A dense, row-major dataset of numeric features with integer class labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    values: Vec<f64>,
    labels: Vec<usize>,
    num_features: usize,
}

impl Dataset {
    /// Build a dataset from feature rows and labels.
    ///
    /// # Errors
    /// Returns an error if the dataset is empty, rows are ragged, lengths
    /// mismatch, or any feature value is non-finite.
    pub fn from_rows(rows: Vec<Vec<f64>>, labels: Vec<usize>) -> Result<Self, GbdtError> {
        if rows.is_empty() {
            return Err(GbdtError::EmptyDataset);
        }
        if rows.len() != labels.len() {
            return Err(GbdtError::LengthMismatch {
                rows: rows.len(),
                labels: labels.len(),
            });
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "row/column bounds validated by Dataset::from_rows before any indexing"
        )]
        let num_features = rows[0].len();
        if num_features == 0 {
            return Err(GbdtError::EmptyDataset);
        }
        let mut values = Vec::with_capacity(rows.len() * num_features);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != num_features {
                return Err(GbdtError::RaggedRows {
                    expected: num_features,
                    found: row.len(),
                });
            }
            for (j, &v) in row.iter().enumerate() {
                if !v.is_finite() {
                    return Err(GbdtError::NonFiniteFeature { row: i, column: j });
                }
                values.push(v);
            }
        }
        Ok(Dataset {
            values,
            labels,
            num_features,
        })
    }

    /// Build a dataset of `labels.len()` rows of `num_features` values each,
    /// letting `fill(i, row)` write row `i` into a zeroed slice. Blocks of
    /// rows fill in parallel under the ambient `byom_exec` budget, straight
    /// into the dataset's storage, so unlike `from_rows` it needs no per-row
    /// `Vec`.
    /// The result is what [`from_rows`](Self::from_rows) builds from the
    /// same rows.
    ///
    /// # Errors
    /// Returns an error if there are no rows or features, or if any filled
    /// value is non-finite (the first one in row-major order is reported).
    pub fn from_fn<F>(num_features: usize, labels: Vec<usize>, fill: F) -> Result<Self, GbdtError>
    where
        F: Fn(usize, &mut [f64]) + Sync,
    {
        if labels.is_empty() || num_features == 0 {
            return Err(GbdtError::EmptyDataset);
        }
        let mut values = vec![0.0; labels.len() * num_features];
        let mut blocks: Vec<(usize, &mut [f64])> = values
            .chunks_mut(FILL_ROWS * num_features)
            .enumerate()
            .map(|(b, block)| (b * FILL_ROWS, block))
            .collect();
        blocks.par_iter_mut().for_each(|(first_row, block)| {
            for (j, row) in block.chunks_mut(num_features).enumerate() {
                fill(*first_row + j, row);
            }
        });
        if let Some(at) = values.iter().position(|v| !v.is_finite()) {
            return Err(GbdtError::NonFiniteFeature {
                row: at / num_features,
                column: at % num_features,
            });
        }
        Ok(Dataset {
            values,
            labels,
            num_features,
        })
    }

    /// Number of rows (examples).
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of features per row.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// The labels, one per row.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// The feature row at index `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[expect(
        clippy::indexing_slicing,
        reason = "row/column bounds validated by Dataset::from_rows before any indexing"
    )]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.values[i * self.num_features..(i + 1) * self.num_features]
    }

    /// Value of feature `j` for row `i`.
    ///
    /// # Panics
    /// Panics if indices are out of range.
    #[expect(
        clippy::indexing_slicing,
        reason = "row/column bounds validated by Dataset::from_rows before any indexing"
    )]
    pub fn value(&self, i: usize, j: usize) -> f64 {
        assert!(j < self.num_features, "feature index out of range");
        self.values[i * self.num_features + j]
    }

    /// Validate that every label is below `num_classes`.
    ///
    /// # Errors
    /// Returns [`GbdtError::LabelOutOfRange`] for the first offending label.
    pub fn check_labels(&self, num_classes: usize) -> Result<(), GbdtError> {
        for &l in &self.labels {
            if l >= num_classes {
                return Err(GbdtError::LabelOutOfRange {
                    label: l,
                    num_classes,
                });
            }
        }
        Ok(())
    }

    /// Split the dataset into a training and validation set, shuffling rows
    /// with the provided RNG. `valid_fraction` of rows go to the second set.
    ///
    /// # Panics
    /// Panics if `valid_fraction` is not in `[0, 1)`.
    pub fn split<R: Rng + ?Sized>(&self, rng: &mut R, valid_fraction: f64) -> (Dataset, Dataset) {
        assert!(
            (0.0..1.0).contains(&valid_fraction),
            "valid_fraction must be in [0,1)"
        );
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(rng);
        let n_valid = (self.len() as f64 * valid_fraction).round() as usize;
        let (valid_idx, train_idx) = idx.split_at(n_valid.min(self.len().saturating_sub(1)));
        (self.subset(train_idx), self.subset(valid_idx))
    }

    /// Extract the subset of rows at the given indices, in order.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let mut values = Vec::with_capacity(indices.len() * self.num_features);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            values.extend_from_slice(self.row(i));
            #[expect(
                clippy::indexing_slicing,
                reason = "row/column bounds validated by Dataset::from_rows before any indexing"
            )]
            labels.push(self.labels[i]);
        }
        Dataset {
            values,
            labels,
            num_features: self.num_features,
        }
    }

    /// Iterate over `(row, label)` pairs.
    #[expect(
        clippy::indexing_slicing,
        reason = "row/column bounds validated by Dataset::from_rows before any indexing"
    )]
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], usize)> + '_ {
        (0..self.len()).map(move |i| (self.row(i), self.labels[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small() -> Dataset {
        Dataset::from_rows(
            vec![
                vec![1.0, 2.0],
                vec![3.0, 4.0],
                vec![5.0, 6.0],
                vec![7.0, 8.0],
            ],
            vec![0, 1, 0, 1],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let d = small();
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
        assert_eq!(d.num_features(), 2);
        assert_eq!(d.row(1), &[3.0, 4.0]);
        assert_eq!(d.value(2, 1), 6.0);
        assert_eq!(d.labels(), &[0, 1, 0, 1]);
        assert_eq!(d.iter().count(), 4);
    }

    #[test]
    fn filled_rows_equal_collected_rows_at_any_budget() {
        // Two full fill blocks and a ragged tail.
        let n = 2 * FILL_ROWS + 37;
        let row = |i: usize| vec![i as f64, (i as f64 * 0.3).sin(), (i % 7) as f64];
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let want = Dataset::from_rows((0..n).map(row).collect(), labels.clone()).unwrap();
        for threads in [1, 2, 3] {
            let got = byom_exec::install(threads, || {
                Dataset::from_fn(3, labels.clone(), |i, out| out.copy_from_slice(&row(i)))
            });
            assert_eq!(got.unwrap(), want, "{threads} threads");
        }
        assert_eq!(
            Dataset::from_fn(3, vec![], |_, _| {}).unwrap_err(),
            GbdtError::EmptyDataset
        );
        assert_eq!(
            Dataset::from_fn(0, vec![0], |_, _| {}).unwrap_err(),
            GbdtError::EmptyDataset
        );
        let nan_at_1025_2 = Dataset::from_fn(3, labels, |i, out| {
            if i == FILL_ROWS + 1 {
                out[2] = f64::NAN;
            }
        });
        assert_eq!(
            nan_at_1025_2.unwrap_err(),
            GbdtError::NonFiniteFeature {
                row: FILL_ROWS + 1,
                column: 2
            }
        );
    }

    #[test]
    fn rejects_empty_ragged_mismatched_nonfinite() {
        assert_eq!(
            Dataset::from_rows(vec![], vec![]).unwrap_err(),
            GbdtError::EmptyDataset
        );
        assert!(matches!(
            Dataset::from_rows(vec![vec![1.0], vec![1.0, 2.0]], vec![0, 0]).unwrap_err(),
            GbdtError::RaggedRows { .. }
        ));
        assert!(matches!(
            Dataset::from_rows(vec![vec![1.0]], vec![0, 1]).unwrap_err(),
            GbdtError::LengthMismatch { .. }
        ));
        assert!(matches!(
            Dataset::from_rows(vec![vec![f64::NAN]], vec![0]).unwrap_err(),
            GbdtError::NonFiniteFeature { row: 0, column: 0 }
        ));
        assert!(matches!(
            Dataset::from_rows(vec![vec![]], vec![0]).unwrap_err(),
            GbdtError::EmptyDataset
        ));
    }

    #[test]
    fn check_labels_bounds() {
        let d = small();
        assert!(d.check_labels(2).is_ok());
        assert!(matches!(
            d.check_labels(1).unwrap_err(),
            GbdtError::LabelOutOfRange {
                label: 1,
                num_classes: 1
            }
        ));
    }

    #[test]
    fn subset_preserves_rows() {
        let d = small();
        let s = d.subset(&[2, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(0), &[5.0, 6.0]);
        assert_eq!(s.row(1), &[1.0, 2.0]);
        assert_eq!(s.labels(), &[0, 0]);
    }

    #[test]
    fn split_partitions_all_rows() {
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let labels: Vec<usize> = (0..100).map(|i| i % 3).collect();
        let d = Dataset::from_rows(rows, labels).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let (train, valid) = d.split(&mut rng, 0.2);
        assert_eq!(train.len() + valid.len(), 100);
        assert_eq!(valid.len(), 20);
    }

    #[test]
    #[should_panic(expected = "valid_fraction")]
    fn split_rejects_bad_fraction() {
        let d = small();
        let mut rng = StdRng::seed_from_u64(0);
        let _ = d.split(&mut rng, 1.0);
    }
}
