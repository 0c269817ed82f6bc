//! Category label design (Section 4.2 of the paper).
//!
//! The model's target is an *importance ranking category*:
//!
//! * **Category 0**: jobs whose TCO savings from SSD placement are negative —
//!   the oracle never admits them, regardless of capacity.
//! * **Categories 1..N-1**: jobs with non-negative savings, bucketed by I/O
//!   density into equal-frequency quantiles of the training set (linear or
//!   logarithmic spacing would produce heavily imbalanced classes, see
//!   Figure 4). Higher categories contain denser — more important — jobs.

use byom_cost::JobCost;

/// Assigns importance-ranking categories to jobs based on TCO savings sign
/// and I/O density quantiles fit on a training set.
#[derive(Debug, Clone, PartialEq)]
pub struct CategoryLabeler {
    /// Number of categories, N (including category 0).
    num_categories: usize,
    /// Ascending I/O-density thresholds separating categories `1..N-1`.
    /// `thresholds[i]` is the upper edge of category `i + 1`.
    thresholds: Vec<f64>,
}

impl CategoryLabeler {
    /// Fit a labeler on training-set costs.
    ///
    /// # Panics
    /// Panics if `num_categories < 2`.
    pub fn fit(costs: &[JobCost], num_categories: usize) -> Self {
        assert!(num_categories >= 2, "need at least 2 categories");
        let mut densities: Vec<f64> = costs
            .iter()
            .filter(|c| c.tco_savings() >= 0.0)
            .map(|c| c.io_density)
            .collect();
        densities.sort_by(|a, b| a.total_cmp(b));

        let positive_buckets = num_categories - 1;
        let mut thresholds = Vec::with_capacity(positive_buckets.saturating_sub(1));
        if !densities.is_empty() {
            for k in 1..positive_buckets {
                let idx = (k * densities.len()) / positive_buckets;
                #[expect(
                    clippy::indexing_slicing,
                    reason = "quantile index is clamped to len-1"
                )]
                thresholds.push(densities[idx.min(densities.len() - 1)]);
            }
        }
        CategoryLabeler {
            num_categories,
            thresholds,
        }
    }

    /// Number of categories N.
    pub fn num_categories(&self) -> usize {
        self.num_categories
    }

    /// Label one job: 0 for negative savings, otherwise `1..N-1` by I/O
    /// density (higher = denser = more important).
    pub fn label(&self, cost: &JobCost) -> usize {
        if cost.tco_savings() < 0.0 {
            return 0;
        }
        let mut category = 1;
        for &t in &self.thresholds {
            if cost.io_density > t {
                category += 1;
            } else {
                break;
            }
        }
        category.min(self.num_categories - 1)
    }

    /// Label every job in a slice, preserving order.
    pub fn label_all(&self, costs: &[JobCost]) -> Vec<usize> {
        costs.iter().map(|c| self.label(c)).collect()
    }

    /// The fitted I/O-density thresholds (ascending).
    pub fn thresholds(&self) -> &[f64] {
        &self.thresholds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byom_trace::JobId;

    fn cost(savings: f64, density: f64) -> JobCost {
        JobCost {
            id: JobId(0),
            arrival: 0.0,
            lifetime: 1.0,
            size_bytes: 1,
            tcio_hdd: 0.0,
            tco_hdd: savings.max(0.0) + 1.0,
            tco_ssd: 1.0 - savings.min(0.0),
            io_density: density,
        }
    }

    fn training_set() -> Vec<JobCost> {
        // 100 positive-savings jobs with densities 1..=100, plus some negative.
        let mut v: Vec<JobCost> = (1..=100).map(|i| cost(1.0, i as f64)).collect();
        v.extend((0..20).map(|i| cost(-1.0, i as f64)));
        v
    }

    #[test]
    fn negative_savings_is_always_category_zero() {
        let labeler = CategoryLabeler::fit(&training_set(), 5);
        assert_eq!(labeler.label(&cost(-0.5, 1000.0)), 0);
        assert_eq!(labeler.label(&cost(-0.5, 0.001)), 0);
    }

    #[test]
    fn positive_savings_categories_increase_with_density() {
        let labeler = CategoryLabeler::fit(&training_set(), 5);
        let low = labeler.label(&cost(1.0, 5.0));
        let mid = labeler.label(&cost(1.0, 50.0));
        let high = labeler.label(&cost(1.0, 99.0));
        assert!(low >= 1);
        assert!(low <= mid && mid <= high);
        assert_eq!(high, 4);
    }

    #[test]
    fn categories_are_roughly_balanced_on_the_training_set() {
        let costs = training_set();
        let labeler = CategoryLabeler::fit(&costs, 5);
        let labels = labeler.label_all(&costs);
        // Count only positive-savings jobs (the 100 density-spread ones).
        let mut counts = vec![0usize; 5];
        for &l in labels.iter().take(100) {
            counts[l] += 1;
        }
        for c in &counts[1..] {
            assert!(
                (15..=40).contains(c),
                "positive categories should be roughly balanced, got {counts:?}"
            );
        }
    }

    #[test]
    fn labels_stay_in_range() {
        let labeler = CategoryLabeler::fit(&training_set(), 15);
        for density in [0.0, 0.5, 3.0, 42.0, 1e6] {
            for savings in [-1.0, 0.0, 5.0] {
                let l = labeler.label(&cost(savings, density));
                assert!(l < 15);
            }
        }
    }

    #[test]
    fn two_category_labeler_is_just_the_savings_sign() {
        let labeler = CategoryLabeler::fit(&training_set(), 2);
        assert_eq!(labeler.label(&cost(-1.0, 50.0)), 0);
        assert_eq!(labeler.label(&cost(1.0, 0.001)), 1);
        assert_eq!(labeler.label(&cost(1.0, 1e9)), 1);
        assert!(labeler.thresholds().is_empty());
    }

    #[test]
    fn all_negative_training_set_still_labels() {
        let costs: Vec<JobCost> = (0..10).map(|i| cost(-1.0, i as f64)).collect();
        let labeler = CategoryLabeler::fit(&costs, 5);
        assert_eq!(labeler.label(&cost(1.0, 3.0)), 1);
    }

    #[test]
    #[should_panic(expected = "at least 2 categories")]
    fn rejects_single_category() {
        let _ = CategoryLabeler::fit(&training_set(), 1);
    }

    #[test]
    fn thresholds_are_sorted() {
        let labeler = CategoryLabeler::fit(&training_set(), 8);
        let t = labeler.thresholds();
        assert!(t.windows(2).all(|w| w[0] <= w[1]));
    }
}
