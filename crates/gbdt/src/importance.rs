//! Feature importance analyses.
//!
//! **AUC-drop importance** (the paper's Figure 9c methodology): for each
//! category, treat "belongs to the category" as a binary prediction task and
//! measure how much the ROC AUC decreases when a feature's information is
//! removed. We remove a feature's information by permuting its column (a
//! standard, retraining-free approximation of the paper's
//! leave-one-feature-out analysis). Scores are normalized per category.

use crate::dataset::Dataset;
use crate::gbm::GradientBoostedTrees;
use crate::metrics::binary_auc;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// AUC-drop importance: `result[class][feature]` is the decrease in one-vs-
/// rest ROC AUC for `class` when `feature` is permuted, normalized within the
/// class so the scores of all features sum to 1 (0 for classes absent from
/// `data` or with no positive drop).
///
/// # Panics
/// Panics if `data` has a different feature count than the model.
pub fn auc_drop_importance(
    model: &GradientBoostedTrees,
    data: &Dataset,
    seed: u64,
) -> Vec<Vec<f64>> {
    assert_eq!(
        data.num_features(),
        model.num_features(),
        "dataset and model feature counts differ"
    );
    let k = model.num_classes();
    let n = data.len();
    let probs = model.predict_proba_dataset(data);

    // Baseline AUC per class.
    let mut baseline = vec![0.5f64; k];
    #[expect(
        clippy::indexing_slicing,
        reason = "class and feature ids are bounded by the model that produced them"
    )]
    for class in 0..k {
        #[expect(
            clippy::indexing_slicing,
            reason = "class and feature ids are bounded by the model that produced them"
        )]
        let scores: Vec<f64> = probs.iter().map(|p| p[class]).collect();
        let labels: Vec<bool> = data.labels().iter().map(|&l| l == class).collect();
        baseline[class] = binary_auc(&scores, &labels);
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let mut result = vec![vec![0.0f64; data.num_features()]; k];

    for feature in 0..data.num_features() {
        // Build a permuted copy of the feature column.
        let mut perm: Vec<usize> = (0..n).collect();
        perm.shuffle(&mut rng);
        // Score all rows with the permuted feature value substituted in.
        let mut permuted_probs = Vec::with_capacity(n);
        let mut row_buf = vec![0.0f64; data.num_features()];
        #[expect(
            clippy::indexing_slicing,
            reason = "class and feature ids are bounded by the model that produced them"
        )]
        for (i, &p) in perm.iter().enumerate() {
            row_buf.copy_from_slice(data.row(i));
            row_buf[feature] = data.value(p, feature);
            permuted_probs.push(model.predict_proba(&row_buf));
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "class and feature ids are bounded by the model that produced them"
        )]
        for class in 0..k {
            #[expect(
                clippy::indexing_slicing,
                reason = "class and feature ids are bounded by the model that produced them"
            )]
            let scores: Vec<f64> = permuted_probs.iter().map(|p| p[class]).collect();
            let labels: Vec<bool> = data.labels().iter().map(|&l| l == class).collect();
            let auc = binary_auc(&scores, &labels);
            result[class][feature] = (baseline[class] - auc).max(0.0);
        }
    }

    // Normalize within each class.
    for class_scores in &mut result {
        let total: f64 = class_scores.iter().sum();
        if total > 0.0 {
            for s in class_scores.iter_mut() {
                *s /= total;
            }
        }
    }
    result
}

/// Average a per-class, per-feature importance matrix into per-class,
/// per-group scores given a feature→group assignment with `num_groups`
/// groups. Used to produce the paper's Figure 9c (groups A/B/C/T).
///
/// # Panics
/// Panics if `feature_groups` is shorter than the feature dimension of
/// `importance` or contains a group index `>= num_groups`.
pub fn group_importance(
    importance: &[Vec<f64>],
    feature_groups: &[usize],
    num_groups: usize,
) -> Vec<Vec<f64>> {
    importance
        .iter()
        .map(|per_feature| {
            let mut group_sum = vec![0.0f64; num_groups];
            let mut group_count = vec![0usize; num_groups];
            #[expect(
                clippy::indexing_slicing,
                reason = "group index asserted below num_groups"
            )]
            for (f, &score) in per_feature.iter().enumerate() {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "feature_groups covers every feature; documented under # Panics"
                )]
                let g = feature_groups[f];
                assert!(g < num_groups, "group index {g} out of range");
                group_sum[g] += score;
                group_count[g] += 1;
            }
            group_sum
                .iter()
                .zip(&group_count)
                .map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gbm::GbdtParams;
    use rand::Rng;

    /// Two-class data where only feature 0 is informative.
    fn data_with_noise_feature(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let informative: f64 = rng.gen_range(0.0..1.0);
            let noise: f64 = rng.gen_range(0.0..1.0);
            rows.push(vec![informative, noise]);
            labels.push(usize::from(informative > 0.5));
        }
        Dataset::from_rows(rows, labels).unwrap()
    }

    fn trained_model(data: &Dataset) -> GradientBoostedTrees {
        let params = GbdtParams {
            num_classes: 2,
            num_trees: 15,
            ..Default::default()
        };
        GradientBoostedTrees::train(&params, data, None).unwrap()
    }

    #[test]
    fn auc_drop_favours_informative_feature() {
        let data = data_with_noise_feature(400, 2);
        let model = trained_model(&data);
        let imp = auc_drop_importance(&model, &data, 7);
        assert_eq!(imp.len(), 2);
        for class_scores in &imp {
            assert_eq!(class_scores.len(), 2);
            assert!(class_scores[0] > class_scores[1]);
        }
    }

    #[test]
    fn auc_drop_rows_are_normalized_or_zero() {
        let data = data_with_noise_feature(300, 3);
        let model = trained_model(&data);
        let imp = auc_drop_importance(&model, &data, 9);
        for class_scores in &imp {
            let sum: f64 = class_scores.iter().sum();
            assert!(sum.abs() < 1e-9 || (sum - 1.0).abs() < 1e-9, "sum {sum}");
        }
    }

    #[test]
    fn group_importance_averages_within_groups() {
        let importance = vec![vec![0.6, 0.2, 0.2]];
        let groups = vec![0, 1, 1];
        let g = group_importance(&importance, &groups, 2);
        assert_eq!(g.len(), 1);
        assert!((g[0][0] - 0.6).abs() < 1e-12);
        assert!((g[0][1] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn group_importance_empty_group_is_zero() {
        let importance = vec![vec![1.0]];
        let groups = vec![0];
        let g = group_importance(&importance, &groups, 3);
        assert_eq!(g[0], vec![1.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "feature counts differ")]
    fn auc_drop_rejects_mismatched_dataset() {
        let data = data_with_noise_feature(100, 4);
        let model = trained_model(&data);
        let other = Dataset::from_rows(vec![vec![1.0]; 10], vec![0; 10]).unwrap();
        let _ = auc_drop_importance(&model, &other, 0);
    }
}
