//! Execution-metadata string synthesis and tokenization.
//!
//! The paper's feature group B consists of strings — build target, execution
//! name, pipeline name, step name, user name — whose key elements are
//! separated by non-alphanumeric characters (Table 3). This module generates
//! realistic-looking metadata strings for synthetic pipelines and provides the
//! tokenizer used by the model layer to split them into key elements.

use crate::archetype::Archetype;
use rand::Rng;

/// Tokenize an execution-metadata string into its key elements.
///
/// Key elements are maximal runs of alphanumeric characters; everything else
/// (slashes, dots, dashes, colons, underscores...) is treated as a separator,
/// following the paper's description of how metadata strings are decomposed.
///
/// ```
/// use byom_trace::metadata::tokenize;
/// assert_eq!(
///     tokenize("//storage/buildmanager:shuffle-main.v2"),
///     vec!["storage", "buildmanager", "shuffle", "main", "v2"]
/// );
/// ```
pub fn tokenize(s: &str) -> Vec<&str> {
    tokens(s).collect()
}

/// The tokens of [`tokenize`], in order, without collecting them.
pub fn tokens(s: &str) -> impl Iterator<Item = &str> {
    s.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
}

/// Names of synthetic teams used to build user/pipeline identifiers.
const TEAMS: [&str; 12] = [
    "ads", "search", "maps", "photos", "mail", "cloud", "video", "metrics", "logs", "billing",
    "security", "research",
];

/// Names of synthetic step operations in the data-flow graph.
const STEP_OPS: [&str; 8] = [
    "GroupByKey",
    "CoGroupByKey",
    "Combine",
    "Partition",
    "Flatten",
    "Join",
    "Reshuffle",
    "Window",
];

/// Generated execution-metadata strings for one pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineMetadata {
    /// The build target, e.g. `//ads/logproc/buildmanager:pipeline3`.
    pub build_target_name: String,
    /// The execution (binary) name.
    pub execution_name: String,
    /// The pipeline name.
    pub pipeline_name: String,
    /// The user name that owns the pipeline.
    pub user_name: String,
}

impl PipelineMetadata {
    /// Synthesize metadata for pipeline number `pipeline_idx` owned by user
    /// number `user_idx` of the given archetype.
    pub fn synthesize<R: Rng + ?Sized>(
        rng: &mut R,
        archetype: Archetype,
        user_idx: u32,
        pipeline_idx: u32,
    ) -> Self {
        #[expect(
            clippy::indexing_slicing,
            reason = "the pick index is drawn from 0..len of the same array"
        )]
        let team = TEAMS[rng.gen_range(0..TEAMS.len())];
        let kind = archetype.name();
        let user_name = format!("{team}-{kind}-user{user_idx}");
        let pipeline_name = format!("org.{team}.{kind}.pipeline{pipeline_idx}.prod");
        let build_target_name = format!("//{team}/{kind}/buildmanager:pipeline{pipeline_idx}");
        let execution_name = format!("com.{team}.{kind}.launcher.Main{pipeline_idx}");
        PipelineMetadata {
            build_target_name,
            execution_name,
            pipeline_name,
            user_name,
        }
    }

    /// Generate a step name for shuffle `shuffle_idx` within a run of this
    /// pipeline, e.g. `GroupByKey-open-shuffle4`.
    pub fn step_name<R: Rng + ?Sized>(&self, rng: &mut R, shuffle_idx: u32) -> String {
        #[expect(
            clippy::indexing_slicing,
            reason = "the pick index is drawn from 0..len of the same array"
        )]
        let op = STEP_OPS[rng.gen_range(0..STEP_OPS.len())];
        format!("{op}-open-shuffle{shuffle_idx}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tokenize_splits_on_non_alphanumeric() {
        assert_eq!(
            tokenize("com.ads.logproc.launcher.Main3"),
            vec!["com", "ads", "logproc", "launcher", "Main3"]
        );
        assert_eq!(tokenize("GroupByKey-22"), vec!["GroupByKey", "22"]);
    }

    #[test]
    fn tokenize_handles_empty_and_separator_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("///---...").is_empty());
    }

    #[test]
    fn tokenize_single_token() {
        assert_eq!(tokenize("abc123"), vec!["abc123"]);
    }

    #[test]
    fn synthesized_metadata_embeds_archetype_and_indices() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = PipelineMetadata::synthesize(&mut rng, Archetype::QueryJoin, 7, 42);
        assert!(m.user_name.contains("queryjoin"));
        assert!(m.user_name.contains("user7"));
        assert!(m.pipeline_name.contains("pipeline42"));
        assert!(m.build_target_name.starts_with("//"));
        assert!(m.build_target_name.contains(':'));
        assert!(m.execution_name.contains("launcher"));
    }

    #[test]
    fn step_name_contains_shuffle_index() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = PipelineMetadata::synthesize(&mut rng, Archetype::Streaming, 0, 0);
        let s = m.step_name(&mut rng, 9);
        assert!(s.contains("shuffle9"));
        assert!(!tokenize(&s).is_empty());
    }

    #[test]
    fn metadata_is_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        let ma = PipelineMetadata::synthesize(&mut a, Archetype::LogProcessing, 1, 2);
        let mb = PipelineMetadata::synthesize(&mut b, Archetype::LogProcessing, 1, 2);
        assert_eq!(ma, mb);
    }
}
