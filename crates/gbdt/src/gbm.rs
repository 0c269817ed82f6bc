//! Gradient boosted trees with a softmax multiclass objective.

use crate::binning::BinMapper;
use crate::dataset::Dataset;
use crate::error::GbdtError;
use crate::forest::Forest;
use crate::metrics::log_loss;
use crate::tree::{RowSample, Tree, TreeParams};
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
    /// Maximum number of histogram bins per feature, in `2..=256` (each bin
    /// index is stored as a `u8`).
    pub max_bins: usize,
    /// Fraction of rows sampled (without replacement) per boosting round.
    pub subsample: f64,
    /// Stop if the validation loss has not improved for this many rounds
    /// (requires a validation set to be passed to `train`).
    pub early_stopping_rounds: Option<usize>,
    /// RNG seed for row subsampling.
    pub seed: u64,
    /// Worker threads for training, a `byom_exec` budget for everything
    /// `train` does. Binning sorts the feature columns concurrently. Each
    /// boosting round fits its per-class trees concurrently, each on one
    /// thread, so at most `num_classes` threads fit trees; it then updates
    /// the scores and softmax probabilities in blocks of rows, on up to the
    /// whole budget. `0` inherits the ambient budget and `1` recovers the
    /// fully sequential behavior. Any value produces **bit-identical**
    /// models — parallelism never changes the result.
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
        if !(2..=256).contains(&self.max_bins) {
            return Err(GbdtError::InvalidParams(format!(
                "max_bins must be in 2..=256, got {}",
                self.max_bins
            )));
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

        byom_exec::install(params.parallelism, || Ok(Self::boost(params, train, valid)))
    }

    /// The boosting loop of [`train`](Self::train) on validated inputs,
    /// under the training thread budget.
    fn boost(params: &GbdtParams, train: &Dataset, valid: Option<&Dataset>) -> Self {
        let n = train.len();
        let k = params.num_classes;
        let mapper = BinMapper::fit(train, params.max_bins);
        let binned = mapper.bin_dataset(train);
        let mut rng = StdRng::seed_from_u64(params.seed);

        // Class priors -> initial log scores.
        let mut counts = vec![1.0f64; k]; // Laplace smoothing
        #[expect(
            clippy::indexing_slicing,
            reason = "class-prior count indexed by a validated label"
        )]
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

        // Softmax probabilities of `scores`, refilled in place after every
        // round's score update: that round's training loss and the next
        // round's gradients both read them.
        let mut probs = vec![0.0f64; n * k];
        update_scores(&mut scores, &mut probs, k, params.learning_rate, &[]);
        let mut valid_probs = vec![0.0f64; valid_scores.len()];

        let mut all_rows: Vec<usize> = (0..n).collect();
        let sample_size = ((n as f64 * params.subsample).round() as usize).clamp(1, n);

        for round in 0..params.num_trees {
            all_rows.shuffle(&mut rng);
            // The round's sample, and the rows it leaves out, shared by the
            // round's trees.
            #[expect(
                clippy::indexing_slicing,
                reason = "sample slice bounded by the clamped sample size"
            )]
            let sample = RowSample::new(&all_rows[..sample_size], n);

            // Fit one tree per class and pre-compute its score contributions.
            // The per-class trees of one round are independent (their
            // gradients all derive from the probabilities computed at the
            // start of the round, and their score updates touch disjoint
            // class columns), so classes fan out under the training budget.
            // Each tree fits on one thread, so this fan-out keeps at most `k`
            // threads busy; the score update after it splits rows instead.
            // The result is bit-identical to sequential because each class's
            // work is a pure function of the round-start probabilities.
            let fitted: Vec<(Tree, Vec<f64>, Vec<f64>)> = (0..k)
                .into_par_iter()
                .map(|class| {
                    let mut grad = vec![0.0f64; n];
                    let mut hess = vec![0.0f64; n];
                    let stats = grad.iter_mut().zip(hess.iter_mut());
                    for ((g, h), (row, &label)) in stats.zip(probs.chunks(k).zip(train.labels())) {
                        let p = row.get(class).copied().unwrap_or(0.0);
                        let y = if label == class { 1.0 } else { 0.0 };
                        *g = p - y;
                        *h = (p * (1.0 - p)).max(1e-6);
                    }
                    // `fit_scored` also harvests every training row's leaf
                    // value from the partition the fit computes anyway, so
                    // the training-score update below is one add per row
                    // with no tree walk — bit-identical to re-traversing.
                    let fit =
                        Tree::fit_scored(&binned, &mapper, &grad, &hess, &sample, params.tree);
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
            let mut train_preds = Vec::with_capacity(k);
            let mut valid_preds = Vec::with_capacity(k);
            for (tree, train_values, valid_values) in fitted {
                round_trees.push(tree);
                train_preds.push(train_values);
                valid_preds.push(valid_values);
            }
            rounds.push(round_trees);

            update_scores(
                &mut scores,
                &mut probs,
                k,
                params.learning_rate,
                &train_preds,
            );
            report.train_loss.push(log_loss(&probs, k, train.labels()));

            if let Some(v) = valid {
                update_scores(
                    &mut valid_scores,
                    &mut valid_probs,
                    k,
                    params.learning_rate,
                    &valid_preds,
                );
                let vl = log_loss(&valid_probs, k, v.labels());
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
        GradientBoostedTrees {
            num_classes: k,
            num_features: train.num_features(),
            learning_rate: params.learning_rate,
            base_scores,
            forest: Forest::from_rounds(&rounds),
            report,
        }
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
        let mut probs = vec![0.0; raw.len()];
        softmax_into(&raw, &mut probs, self.num_classes);
        probs
    }

    /// Most likely class for one feature row.
    pub fn predict(&self, row: &[f64]) -> usize {
        let p = self.predict_raw(row);
        argmax(&p)
    }

    /// What [`predict`](Self::predict) and
    /// [`predict_proba`](Self::predict_proba) return for one feature row —
    /// the argmax of the raw scores and their softmax — from one walk of the
    /// forest.
    pub fn predict_with_proba(&self, row: &[f64]) -> (usize, Vec<f64>) {
        let raw = self.predict_raw(row);
        let mut probs = vec![0.0; raw.len()];
        softmax_into(&raw, &mut probs, self.num_classes);
        (argmax(&raw), probs)
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

/// Rows per block of a round's parallel score update.
const UPDATE_ROWS: usize = 1024;

/// Add `learning_rate × leaf_values[c][i]` to class `c`'s score of row `i`
/// for every class in `leaf_values` (none is fine), then refill every row's
/// softmax probabilities in `probs`. Blocks of [`UPDATE_ROWS`] rows run in
/// parallel under the ambient budget, each in place on its own rows. Each
/// score takes at most one add and each row's softmax reads only that row,
/// so the result is bit-identical to a sequential loop.
fn update_scores(
    scores: &mut [f64],
    probs: &mut [f64],
    k: usize,
    learning_rate: f64,
    leaf_values: &[Vec<f64>],
) {
    let k = k.max(1);
    let mut blocks: Vec<(usize, &mut [f64], &mut [f64])> = scores
        .chunks_mut(UPDATE_ROWS * k)
        .zip(probs.chunks_mut(UPDATE_ROWS * k))
        .enumerate()
        .map(|(b, (scores, probs))| (b * UPDATE_ROWS, scores, probs))
        .collect();
    blocks
        .par_iter_mut()
        .for_each(|(first_row, scores, probs)| {
            for (class, values) in leaf_values.iter().enumerate() {
                let values = values.get(*first_row..).unwrap_or(&[]);
                for (row, &v) in scores.chunks_mut(k).zip(values) {
                    if let Some(s) = row.get_mut(class) {
                        *s += learning_rate * v;
                    }
                }
            }
            softmax_into(scores, probs, k);
        });
}

/// Softmax of each `k`-wide row of the row-major `scores`, written in place
/// into the same-shaped `probs`: `exp(x − max)` per class, their sum in
/// class order, then one division per class.
fn softmax_into(scores: &[f64], probs: &mut [f64], k: usize) {
    let k = k.max(1);
    for (raw, out) in scores.chunks(k).zip(probs.chunks_mut(k)) {
        let max = raw.iter().copied().fold(f64::MIN, f64::max);
        for (p, &x) in out.iter_mut().zip(raw) {
            *p = (x - max).exp();
        }
        let sum: f64 = out.iter().sum();
        for p in out.iter_mut() {
            *p /= sum;
        }
    }
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
        // Bin indices are stored as `u8`: 256 bins is the most a feature
        // may have.
        let too_many_bins = GbdtParams {
            num_classes: 3,
            max_bins: 257,
            ..Default::default()
        };
        assert!(matches!(
            GradientBoostedTrees::train(&too_many_bins, &train, None),
            Err(GbdtError::InvalidParams(_))
        ));
        let most_bins = GbdtParams {
            num_classes: 3,
            num_trees: 2,
            max_bins: 256,
            ..Default::default()
        };
        assert!(GradientBoostedTrees::train(&most_bins, &train, None).is_ok());
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
    fn one_walk_answers_what_predict_and_predict_proba_answer() {
        let train = three_class_data(200, 12);
        let params = GbdtParams {
            num_classes: 3,
            num_trees: 8,
            ..Default::default()
        };
        let model = GradientBoostedTrees::train(&params, &train, None).unwrap();
        for i in 0..train.len() {
            let row = train.row(i);
            assert_eq!(
                model.predict_with_proba(row),
                (model.predict(row), model.predict_proba(row))
            );
        }
    }

    #[test]
    fn block_update_matches_the_class_by_class_loop() {
        // Three full blocks and a ragged tail, at every budget.
        let (n, k, lr) = (3 * UPDATE_ROWS + 57, 5, 0.3);
        let mut rng = StdRng::seed_from_u64(13);
        let start: Vec<f64> = (0..n * k).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let leaf_values: Vec<Vec<f64>> = (0..k)
            .map(|_| (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        // The sequential update blocks replaced: class by class over every
        // row, then one softmax pass.
        let mut want_scores = start.clone();
        for (class, values) in leaf_values.iter().enumerate() {
            for (row, &v) in want_scores.chunks_mut(k).zip(values) {
                row[class] += lr * v;
            }
        }
        let mut want_probs = vec![0.0; n * k];
        softmax_into(&want_scores, &mut want_probs, k);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for threads in [1, 2, 3, 8] {
            let mut scores = start.clone();
            let mut probs = vec![0.0; n * k];
            byom_exec::install(threads, || {
                update_scores(&mut scores, &mut probs, k, lr, &leaf_values);
            });
            assert_eq!(bits(&scores), bits(&want_scores), "{threads} threads");
            assert_eq!(bits(&probs), bits(&want_probs), "{threads} threads");
        }
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
