//! Gradient boosted trees with a softmax multiclass objective.

use crate::binning::BinMapper;
use crate::dataset::Dataset;
use crate::error::GbdtError;
use crate::forest::Forest;
use crate::metrics::log_loss;
use crate::tree::{Tree, TreeParams};
use byom_exec::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Hyperparameters of the boosted ensemble.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbdtParams {
    /// Number of output classes (the paper's category count, e.g. 15).
    pub num_classes: usize,
    /// Maximum number of boosting rounds; each round fits one tree per class.
    /// The paper caps this at 300.
    pub num_trees: usize,
    /// Shrinkage applied to every tree's output.
    pub learning_rate: f64,
    /// Per-tree parameters (depth, regularization, ...).
    pub tree: TreeParams,
    /// Maximum number of histogram bins per feature.
    pub max_bins: usize,
    /// Fraction of rows sampled (without replacement) per boosting round.
    pub subsample: f64,
    /// Stop if the validation loss has not improved for this many rounds
    /// (requires a validation set to be passed to `train`).
    pub early_stopping_rounds: Option<usize>,
    /// RNG seed for row subsampling.
    pub seed: u64,
    /// Worker threads for training: the per-class trees of each boosting
    /// round are fitted concurrently, and large nodes search their split
    /// candidates feature-parallel. `0` means "all available cores" and `1`
    /// recovers the fully sequential behavior. Any value produces
    /// **bit-identical** models — parallelism never changes the result.
    pub parallelism: usize,
}

impl Default for GbdtParams {
    fn default() -> Self {
        GbdtParams {
            num_classes: 2,
            num_trees: 100,
            learning_rate: 0.1,
            tree: TreeParams::default(),
            max_bins: 64,
            subsample: 0.8,
            early_stopping_rounds: Some(15),
            seed: 42,
            parallelism: 0,
        }
    }
}

impl GbdtParams {
    /// The configuration the paper uses for its category models: 15 classes,
    /// up to 300 trees, depth 6.
    pub fn paper_default(num_classes: usize) -> Self {
        GbdtParams {
            num_classes,
            num_trees: 300,
            learning_rate: 0.1,
            tree: TreeParams {
                max_depth: 6,
                ..TreeParams::default()
            },
            ..Default::default()
        }
    }

    fn validate(&self) -> Result<(), GbdtError> {
        if self.num_classes < 2 {
            return Err(GbdtError::InvalidParams(format!(
                "num_classes must be >= 2, got {}",
                self.num_classes
            )));
        }
        if self.num_trees == 0 {
            return Err(GbdtError::InvalidParams(
                "num_trees must be positive".into(),
            ));
        }
        if !(self.learning_rate > 0.0 && self.learning_rate <= 1.0) {
            return Err(GbdtError::InvalidParams(format!(
                "learning_rate must be in (0, 1], got {}",
                self.learning_rate
            )));
        }
        if !(self.subsample > 0.0 && self.subsample <= 1.0) {
            return Err(GbdtError::InvalidParams(format!(
                "subsample must be in (0, 1], got {}",
                self.subsample
            )));
        }
        if self.max_bins < 2 {
            return Err(GbdtError::InvalidParams("max_bins must be >= 2".into()));
        }
        Ok(())
    }
}

/// Summary of one training run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainReport {
    /// Number of boosting rounds actually kept in the model.
    pub rounds: usize,
    /// Training log loss after each round.
    pub train_loss: Vec<f64>,
    /// Validation log loss after each round (empty without a validation set).
    pub valid_loss: Vec<f64>,
    /// The round with the best validation loss (0-based), if validation was used.
    pub best_round: Option<usize>,
}

/// A trained gradient-boosted multiclass model.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientBoostedTrees {
    num_classes: usize,
    num_features: usize,
    learning_rate: f64,
    /// Log-prior initial score per class.
    base_scores: Vec<f64>,
    /// Every tree, rounds outer and classes inner, flattened for inference.
    forest: Forest,
    /// Training report retained for analysis.
    report: TrainReport,
}

impl GradientBoostedTrees {
    /// Train a model on `train`, optionally early-stopping on `valid`.
    ///
    /// # Errors
    /// Returns an error for invalid parameters, empty datasets, or labels
    /// outside `[0, num_classes)`.
    ///
    /// # Panics
    /// Panics if the kept trees hold 2^32 nodes or more (a 64 GiB model).
    pub fn train(
        params: &GbdtParams,
        train: &Dataset,
        valid: Option<&Dataset>,
    ) -> Result<Self, GbdtError> {
        params.validate()?;
        if train.is_empty() {
            return Err(GbdtError::EmptyDataset);
        }
        train.check_labels(params.num_classes)?;
        if let Some(v) = valid {
            v.check_labels(params.num_classes)?;
        }

        let n = train.len();
        let k = params.num_classes;
        let mapper = BinMapper::fit(train, params.max_bins);
        let binned = mapper.bin_dataset(train);
        let mut rng = StdRng::seed_from_u64(params.seed);

        // Class priors -> initial log scores.
        let mut counts = vec![1.0f64; k]; // Laplace smoothing
        for &l in train.labels() {
            counts[l] += 1.0;
        }
        let total: f64 = counts.iter().sum();
        let base_scores: Vec<f64> = counts.iter().map(|c| (c / total).ln()).collect();

        // Raw scores per row per class.
        let mut scores = vec![0.0f64; n * k];
        for row in scores.chunks_mut(k) {
            row.copy_from_slice(&base_scores);
        }
        let mut valid_scores: Vec<f64> = valid
            .map(|v| {
                let mut s = vec![0.0; v.len() * k];
                for row in s.chunks_mut(k) {
                    row.copy_from_slice(&base_scores);
                }
                s
            })
            .unwrap_or_default();

        // `rounds[round][class]`, flattened into the model's forest once
        // early stopping has decided how many rounds to keep.
        let mut rounds: Vec<Vec<Tree>> = Vec::new();
        let mut report = TrainReport::default();

        let mut best_valid = f64::INFINITY;
        let mut best_round = 0usize;
        let mut rounds_since_best = 0usize;

        let mut all_rows: Vec<usize> = (0..n).collect();
        let sample_size = ((n as f64 * params.subsample).round() as usize).clamp(1, n);

        for round in 0..params.num_trees {
            // Softmax probabilities and gradients.
            let probs = softmax_rows(&scores, k);

            all_rows.shuffle(&mut rng);
            let sample = &all_rows[..sample_size];

            // Fit one tree per class and pre-compute its score contributions.
            // The per-class trees of one round are independent (their
            // gradients all derive from the probabilities computed at the
            // start of the round, and their score updates touch disjoint
            // class columns), so classes fan out under `params.parallelism`;
            // the per-feature histogram fill inside each tree runs on its
            // thread's share of that budget rather than claiming a quota of
            // its own. The result is bit-identical to sequential because each
            // class's work is a pure function of the round-start
            // probabilities.
            let fitted: Vec<(Tree, Vec<f64>, Vec<f64>)> = (0..k)
                .into_par_iter()
                .with_max_threads(params.parallelism)
                .map(|class| {
                    let mut grad = vec![0.0f64; n];
                    let mut hess = vec![0.0f64; n];
                    for i in 0..n {
                        let p = probs[i * k + class];
                        let y = if train.labels()[i] == class { 1.0 } else { 0.0 };
                        grad[i] = p - y;
                        hess[i] = (p * (1.0 - p)).max(1e-6);
                    }
                    // `fit_scored` also harvests every training row's leaf
                    // value from the partition the fit computes anyway, so
                    // the training-score update below is one add per row
                    // with no tree walk — bit-identical to re-traversing.
                    let fit = Tree::fit_scored(&binned, &mapper, &grad, &hess, sample, params.tree);
                    let valid_preds: Vec<f64> = valid
                        .map(|v| {
                            (0..v.len())
                                .map(|i| fit.tree.predict_row(v.row(i)))
                                .collect()
                        })
                        .unwrap_or_default();
                    (fit.tree, fit.row_values, valid_preds)
                })
                .collect();

            let mut round_trees = Vec::with_capacity(k);
            for (class, (tree, train_preds, valid_preds)) in fitted.into_iter().enumerate() {
                // Update raw scores for all rows.
                for (i, p) in train_preds.into_iter().enumerate() {
                    scores[i * k + class] += params.learning_rate * p;
                }
                for (i, p) in valid_preds.into_iter().enumerate() {
                    valid_scores[i * k + class] += params.learning_rate * p;
                }
                round_trees.push(tree);
            }
            rounds.push(round_trees);

            let train_probs = softmax_rows(&scores, k);
            report
                .train_loss
                .push(log_loss(&to_rows(&train_probs, k), train.labels()));

            if let Some(v) = valid {
                let vp = softmax_rows(&valid_scores, k);
                let vl = log_loss(&to_rows(&vp, k), v.labels());
                report.valid_loss.push(vl);
                if vl < best_valid - 1e-9 {
                    best_valid = vl;
                    best_round = round;
                    rounds_since_best = 0;
                } else {
                    rounds_since_best += 1;
                }
                if let Some(patience) = params.early_stopping_rounds {
                    if rounds_since_best >= patience {
                        break;
                    }
                }
            }
        }

        if valid.is_some() {
            // Keep only the trees up to the best validation round.
            rounds.truncate(best_round + 1);
            report.best_round = Some(best_round);
        }
        report.rounds = rounds.len();
        Ok(GradientBoostedTrees {
            num_classes: k,
            num_features: train.num_features(),
            learning_rate: params.learning_rate,
            base_scores,
            forest: Forest::from_rounds(&rounds),
            report,
        })
    }

    /// Raw (pre-softmax) scores for one feature row.
    ///
    /// # Panics
    /// Panics if `row` has fewer features than the model was trained on; use
    /// [`GradientBoostedTrees::try_predict_raw`] to get an error instead.
    pub fn predict_raw(&self, row: &[f64]) -> Vec<f64> {
        assert!(
            row.len() >= self.num_features,
            "row has {} features, model needs {}",
            row.len(),
            self.num_features
        );
        self.raw_scores(row)
    }

    /// Raw (pre-softmax) scores for one feature row, checked.
    ///
    /// # Errors
    /// Returns [`GbdtError::FeatureCountMismatch`] if `row` is shorter than
    /// the model's feature dimension.
    pub fn try_predict_raw(&self, row: &[f64]) -> Result<Vec<f64>, GbdtError> {
        if row.len() < self.num_features {
            return Err(GbdtError::FeatureCountMismatch {
                expected: self.num_features,
                found: row.len(),
            });
        }
        Ok(self.raw_scores(row))
    }

    fn raw_scores(&self, row: &[f64]) -> Vec<f64> {
        let mut scores = self.base_scores.clone();
        self.forest.add_scores(row, self.learning_rate, &mut scores);
        scores
    }

    /// Class probability distribution for one feature row.
    pub fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        let raw = self.predict_raw(row);
        softmax(&raw)
    }

    /// Most likely class for one feature row.
    pub fn predict(&self, row: &[f64]) -> usize {
        let p = self.predict_raw(row);
        argmax(&p)
    }

    /// Most likely class for one feature row, checked.
    ///
    /// # Errors
    /// Returns [`GbdtError::FeatureCountMismatch`] on a short row.
    pub fn try_predict(&self, row: &[f64]) -> Result<usize, GbdtError> {
        Ok(argmax(&self.try_predict_raw(row)?))
    }

    /// Predicted probability rows for a whole dataset.
    pub fn predict_proba_dataset(&self, data: &Dataset) -> Vec<Vec<f64>> {
        (0..data.len())
            .map(|i| self.predict_proba(data.row(i)))
            .collect()
    }

    /// Number of boosting rounds in the final model.
    pub fn num_rounds(&self) -> usize {
        self.num_trees() / self.num_classes
    }

    /// Total number of trees (rounds × classes).
    pub fn num_trees(&self) -> usize {
        self.forest.num_trees()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of input features.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// The training report (loss curves, rounds, best round).
    pub fn report(&self) -> &TrainReport {
        &self.report
    }
}

fn softmax(raw: &[f64]) -> Vec<f64> {
    let max = raw.iter().cloned().fold(f64::MIN, f64::max);
    let exps: Vec<f64> = raw.iter().map(|&x| (x - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.iter().map(|&e| e / sum).collect()
}

fn softmax_rows(scores: &[f64], k: usize) -> Vec<f64> {
    let mut out = vec![0.0; scores.len()];
    for (row_in, row_out) in scores.chunks(k).zip(out.chunks_mut(k)) {
        row_out.copy_from_slice(&softmax(row_in));
    }
    out
}

fn to_rows(flat: &[f64], k: usize) -> Vec<Vec<f64>> {
    flat.chunks(k).map(|c| c.to_vec()).collect()
}

fn argmax(v: &[f64]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use rand::Rng;

    /// Three-class problem separable on two features.
    fn three_class_data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let x: f64 = rng.gen_range(0.0..3.0);
            let y: f64 = rng.gen_range(0.0..1.0);
            let noise: f64 = rng.gen_range(-0.05..0.05);
            let label = ((x + noise).floor() as usize).min(2);
            rows.push(vec![x, y]);
            labels.push(label);
        }
        Dataset::from_rows(rows, labels).unwrap()
    }

    #[test]
    fn learns_a_separable_three_class_problem() {
        let train = three_class_data(600, 1);
        let test = three_class_data(200, 2);
        let params = GbdtParams {
            num_classes: 3,
            num_trees: 30,
            ..Default::default()
        };
        let model = GradientBoostedTrees::train(&params, &train, None).unwrap();
        let preds: Vec<usize> = (0..test.len())
            .map(|i| model.predict(test.row(i)))
            .collect();
        let acc = accuracy(&preds, test.labels());
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn probabilities_are_a_distribution() {
        let train = three_class_data(300, 3);
        let params = GbdtParams {
            num_classes: 3,
            num_trees: 10,
            ..Default::default()
        };
        let model = GradientBoostedTrees::train(&params, &train, None).unwrap();
        for i in 0..20 {
            let p = model.predict_proba(train.row(i));
            assert_eq!(p.len(), 3);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn early_stopping_truncates_trees() {
        let train = three_class_data(400, 4);
        let valid = three_class_data(150, 5);
        let params = GbdtParams {
            num_classes: 3,
            num_trees: 80,
            early_stopping_rounds: Some(5),
            ..Default::default()
        };
        let model = GradientBoostedTrees::train(&params, &train, Some(&valid)).unwrap();
        assert!(model.num_rounds() <= 80);
        assert_eq!(model.report().rounds, model.num_rounds());
        assert!(model.report().best_round.is_some());
        assert_eq!(model.num_trees(), model.num_rounds() * 3);
    }

    #[test]
    fn training_loss_decreases() {
        let train = three_class_data(500, 6);
        let params = GbdtParams {
            num_classes: 3,
            num_trees: 20,
            subsample: 1.0,
            ..Default::default()
        };
        let model = GradientBoostedTrees::train(&params, &train, None).unwrap();
        let losses = &model.report().train_loss;
        assert!(losses.first().unwrap() > losses.last().unwrap());
    }

    #[test]
    fn rejects_invalid_params_and_labels() {
        let train = three_class_data(50, 7);
        let bad = GbdtParams {
            num_classes: 1,
            ..Default::default()
        };
        assert!(matches!(
            GradientBoostedTrees::train(&bad, &train, None),
            Err(GbdtError::InvalidParams(_))
        ));
        // num_classes 2 but labels go up to 2.
        let params = GbdtParams {
            num_classes: 2,
            ..Default::default()
        };
        assert!(matches!(
            GradientBoostedTrees::train(&params, &train, None),
            Err(GbdtError::LabelOutOfRange { .. })
        ));
        let bad_lr = GbdtParams {
            learning_rate: 0.0,
            ..Default::default()
        };
        assert!(GradientBoostedTrees::train(&bad_lr, &train, None).is_err());
        let bad_sub = GbdtParams {
            subsample: 0.0,
            ..Default::default()
        };
        assert!(GradientBoostedTrees::train(&bad_sub, &train, None).is_err());
    }

    #[test]
    fn imbalanced_priors_influence_default_prediction() {
        // 95% of examples are class 0 and features are uninformative noise;
        // the model should predict class 0 nearly always.
        let mut rng = StdRng::seed_from_u64(8);
        let rows: Vec<Vec<f64>> = (0..400).map(|_| vec![rng.gen::<f64>()]).collect();
        let labels: Vec<usize> = (0..400).map(|i| usize::from(i % 20 == 0)).collect();
        let data = Dataset::from_rows(rows, labels).unwrap();
        let params = GbdtParams {
            num_classes: 2,
            num_trees: 5,
            ..Default::default()
        };
        let model = GradientBoostedTrees::train(&params, &data, None).unwrap();
        let preds: Vec<usize> = (0..data.len())
            .map(|i| model.predict(data.row(i)))
            .collect();
        let zeros = preds.iter().filter(|&&p| p == 0).count();
        assert!(zeros as f64 / preds.len() as f64 > 0.9);
    }

    #[test]
    fn paper_default_matches_paper_configuration() {
        let p = GbdtParams::paper_default(15);
        assert_eq!(p.num_classes, 15);
        assert_eq!(p.num_trees, 300);
        assert_eq!(p.tree.max_depth, 6);
    }

    #[test]
    fn try_predict_reports_short_rows_as_errors() {
        let train = three_class_data(100, 11);
        let params = GbdtParams {
            num_classes: 3,
            num_trees: 2,
            ..Default::default()
        };
        let model = GradientBoostedTrees::train(&params, &train, None).unwrap();
        assert!(matches!(
            model.try_predict(&[1.0]),
            Err(GbdtError::FeatureCountMismatch {
                expected: 2,
                found: 1
            })
        ));
        // Checked and panicking paths agree on valid rows.
        let row = train.row(0);
        assert_eq!(model.try_predict(row).unwrap(), model.predict(row));
        assert_eq!(model.try_predict_raw(row).unwrap(), model.predict_raw(row));
    }

    #[test]
    #[should_panic(expected = "features")]
    fn predict_with_short_row_panics() {
        let train = three_class_data(100, 10);
        let params = GbdtParams {
            num_classes: 3,
            num_trees: 2,
            ..Default::default()
        };
        let model = GradientBoostedTrees::train(&params, &train, None).unwrap();
        let _ = model.predict(&[1.0]);
    }
}
