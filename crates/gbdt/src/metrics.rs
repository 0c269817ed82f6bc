//! Classification metrics: accuracy, top-k accuracy, binary ROC AUC and log
//! loss.

/// Top-1 accuracy of predicted class labels against true labels.
///
/// # Panics
/// Panics if the slices differ in length. Returns 0.0 for empty inputs.
pub fn accuracy(predicted: &[usize], truth: &[usize]) -> f64 {
    assert_eq!(predicted.len(), truth.len(), "length mismatch");
    if truth.is_empty() {
        return 0.0;
    }
    let correct = predicted.iter().zip(truth).filter(|(p, t)| p == t).count();
    correct as f64 / truth.len() as f64
}

/// Top-k accuracy: the true label is among the k highest-probability classes.
///
/// # Panics
/// Panics if shapes are inconsistent or `k == 0`.
pub fn top_k_accuracy(probabilities: &[Vec<f64>], truth: &[usize], k: usize) -> f64 {
    assert_eq!(probabilities.len(), truth.len(), "length mismatch");
    assert!(k > 0, "k must be positive");
    if truth.is_empty() {
        return 0.0;
    }
    let mut correct = 0usize;
    for (probs, &t) in probabilities.iter().zip(truth) {
        let mut idx: Vec<usize> = (0..probs.len()).collect();
        #[expect(
            clippy::indexing_slicing,
            reason = "the sort comparator indexes by positions drawn from 0..len of the slice"
        )]
        idx.sort_by(|&a, &b| probs[b].total_cmp(&probs[a]));
        if idx.iter().take(k).any(|&i| i == t) {
            correct += 1;
        }
    }
    correct as f64 / truth.len() as f64
}

/// Area under the ROC curve for binary classification, computed via the
/// Mann–Whitney U statistic (rank-based, handles ties by midranks).
///
/// `scores[i]` is the predicted score for example `i`; `labels[i]` is true
/// (positive) or false (negative). Returns 0.5 when either class is absent.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn binary_auc(scores: &[f64], labels: &[bool]) -> f64 {
    assert_eq!(scores.len(), labels.len(), "length mismatch");
    let n_pos = labels.iter().filter(|&&l| l).count();
    let n_neg = labels.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }
    // Rank scores (average ranks for ties).
    let mut order: Vec<usize> = (0..scores.len()).collect();
    #[expect(
        clippy::indexing_slicing,
        reason = "the sort comparator indexes by positions drawn from 0..len of the slice"
    )]
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    let mut ranks = vec![0.0f64; scores.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        #[expect(
            clippy::indexing_slicing,
            reason = "AUC midranks index by positions drawn from 0..len of the same slice"
        )]
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        #[expect(
            clippy::indexing_slicing,
            reason = "AUC midranks index by positions drawn from 0..len of the same slice"
        )]
        for &idx in &order[i..=j] {
            ranks[idx] = avg_rank;
        }
        i = j + 1;
    }
    let pos_rank_sum: f64 = labels
        .iter()
        .zip(&ranks)
        .filter(|(&l, _)| l)
        .map(|(_, &r)| r)
        .sum();
    let u = pos_rank_sum - (n_pos * (n_pos + 1)) as f64 / 2.0;
    u / (n_pos as f64 * n_neg as f64)
}

/// Multiclass logarithmic loss over row-major `probabilities`, one row of
/// `num_classes` per example. Probabilities are clipped to `[1e-12, 1]`.
///
/// # Panics
/// Panics if shapes are inconsistent or a true label indexes outside its
/// probability row. Returns 0.0 for empty inputs.
pub fn log_loss(probabilities: &[f64], num_classes: usize, truth: &[usize]) -> f64 {
    assert_eq!(
        probabilities.len(),
        truth.len() * num_classes,
        "length mismatch"
    );
    if truth.is_empty() {
        return 0.0;
    }
    assert!(num_classes > 0, "num_classes must be positive");
    let mut total = 0.0;
    for (probs, &t) in probabilities.chunks(num_classes).zip(truth) {
        assert!(t < probs.len(), "label {t} outside probability row");
        total -= probs.get(t).copied().unwrap_or(1.0).max(1e-12).ln();
    }
    total / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basic() {
        assert_eq!(accuracy(&[0, 1, 2, 1], &[0, 1, 1, 1]), 0.75);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn top_k_includes_lower_ranked_classes() {
        let probs = vec![vec![0.5, 0.3, 0.2], vec![0.1, 0.2, 0.7]];
        let truth = vec![1, 0];
        assert_eq!(top_k_accuracy(&probs, &truth, 1), 0.0);
        assert_eq!(top_k_accuracy(&probs, &truth, 2), 0.5);
        assert_eq!(top_k_accuracy(&probs, &truth, 3), 1.0);
    }

    #[test]
    fn auc_perfect_and_inverted() {
        let scores = [0.1, 0.2, 0.8, 0.9];
        let labels = [false, false, true, true];
        assert!((binary_auc(&scores, &labels) - 1.0).abs() < 1e-12);
        let inverted = [true, true, false, false];
        assert!((binary_auc(&scores, &inverted)).abs() < 1e-12);
    }

    #[test]
    fn auc_random_scores_is_half() {
        // Constant scores: every pairing is a tie -> AUC 0.5.
        let scores = [0.5; 10];
        let labels = [
            true, false, true, false, true, false, true, false, true, false,
        ];
        assert!((binary_auc(&scores, &labels) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auc_degenerate_single_class() {
        assert_eq!(binary_auc(&[0.1, 0.9], &[true, true]), 0.5);
        assert_eq!(binary_auc(&[0.1, 0.9], &[false, false]), 0.5);
    }

    #[test]
    fn auc_handles_ties_with_midranks() {
        let scores = [0.5, 0.5, 0.9, 0.1];
        let labels = [true, false, true, false];
        // Pairs: (pos 0.5 vs neg 0.5) = 0.5, (0.5 vs 0.1) = 1, (0.9 vs 0.5) = 1,
        // (0.9 vs 0.1) = 1 -> AUC = 3.5/4.
        assert!((binary_auc(&scores, &labels) - 0.875).abs() < 1e-12);
    }

    #[test]
    fn log_loss_confident_correct_is_small() {
        let good = [0.99, 0.01, 0.01, 0.99];
        let bad = [0.01, 0.99, 0.99, 0.01];
        let truth = [0, 1];
        assert!(log_loss(&good, 2, &truth) < 0.05);
        assert!(log_loss(&bad, 2, &truth) > 2.0);
        assert_eq!(log_loss(&[], 2, &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside probability row")]
    fn log_loss_rejects_a_label_past_the_row() {
        let _ = log_loss(&[0.5, 0.5], 2, &[2]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accuracy_length_mismatch_panics() {
        let _ = accuracy(&[0], &[]);
    }
}
