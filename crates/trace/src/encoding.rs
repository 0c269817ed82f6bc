//! Encoding of [`JobFeatures`] into dense numeric vectors consumable by tree
//! models.
//!
//! The numeric features (groups A, C, T of Table 2) are passed through with a
//! log transform applied to the wide-range size/count features. The
//! execution-metadata strings (group B) are tokenized into key elements and
//! hashed into a fixed number of buckets ("hashing trick"), which is how
//! string identifiers are typically fed to tree models without maintaining a
//! vocabulary.

use crate::features::{
    FeatureGroup, JobFeatures, FEATURE_GROUPS, FEATURE_NAMES, NUMERIC_FEATURE_COUNT,
};
use crate::metadata::tokenize;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Encodes [`JobFeatures`] into fixed-width numeric vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureEncoder {
    /// Number of hash buckets used for execution-metadata tokens.
    pub metadata_hash_buckets: usize,
}

impl Default for FeatureEncoder {
    fn default() -> Self {
        FeatureEncoder {
            metadata_hash_buckets: 24,
        }
    }
}

/// Indices of numeric features whose values span many orders of magnitude and
/// are therefore log-transformed (`ln(1 + x)`).
const LOG_TRANSFORMED: [&str; 6] = [
    "average_tcio",
    "average_size",
    "average_lifetime",
    "average_io_density",
    "records_written",
    "requested_num_shards",
];

impl FeatureEncoder {
    /// Create an encoder with a specific number of metadata hash buckets.
    ///
    /// # Panics
    /// Panics if `metadata_hash_buckets` is zero.
    pub fn new(metadata_hash_buckets: usize) -> Self {
        assert!(metadata_hash_buckets > 0, "need at least one hash bucket");
        FeatureEncoder {
            metadata_hash_buckets,
        }
    }

    /// Total number of output features.
    pub fn num_features(&self) -> usize {
        NUMERIC_FEATURE_COUNT + self.metadata_hash_buckets
    }

    /// The feature group of each output feature (hash buckets belong to
    /// group B, execution metadata).
    pub fn feature_groups(&self) -> Vec<FeatureGroup> {
        let mut groups: Vec<FeatureGroup> = FEATURE_GROUPS.to_vec();
        groups.extend(std::iter::repeat_n(
            FeatureGroup::ExecutionMetadata,
            self.metadata_hash_buckets,
        ));
        groups
    }

    /// Encode one job's features into a dense numeric vector of length
    /// [`FeatureEncoder::num_features`].
    pub fn encode(&self, features: &JobFeatures) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_features());
        for (value, name) in features.to_numeric().iter().zip(FEATURE_NAMES.iter()) {
            if LOG_TRANSFORMED.contains(name) {
                out.push((1.0 + value.max(0.0)).ln());
            } else {
                out.push(*value);
            }
        }
        let mut buckets = vec![0.0f64; self.metadata_hash_buckets];
        for (field_idx, s) in features.metadata_strings().iter().enumerate() {
            for token in tokenize(s) {
                let mut hasher = DefaultHasher::new();
                // Include the field index so the same token in different
                // fields lands in (usually) different buckets.
                field_idx.hash(&mut hasher);
                token.hash(&mut hasher);
                let b = (hasher.finish() % self.metadata_hash_buckets as u64) as usize;
                if let Some(bucket) = buckets.get_mut(b) {
                    *bucket += 1.0;
                }
            }
        }
        out.extend(buckets);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features() -> JobFeatures {
        JobFeatures {
            average_tcio: 0.5,
            average_size: 1e9,
            average_lifetime: 3600.0,
            average_io_density: 4.0,
            bucket_sizing_num_workers: 32,
            records_written: 1_000_000,
            open_time_day_hour: 13,
            build_target_name: "//ads/logproc/buildmanager:pipeline1".into(),
            execution_name: "com.ads.logproc.launcher.Main1".into(),
            pipeline_name: "org.ads.logproc.pipeline1.prod".into(),
            step_name: "GroupByKey-open-shuffle3".into(),
            user_name: "ads-logproc-user0".into(),
            ..Default::default()
        }
    }

    #[test]
    fn encoded_length_matches_declared_width() {
        let enc = FeatureEncoder::default();
        let v = enc.encode(&features());
        assert_eq!(v.len(), enc.num_features());
        assert_eq!(enc.feature_groups().len(), enc.num_features());
    }

    #[test]
    fn all_encoded_values_are_finite() {
        let enc = FeatureEncoder::default();
        assert!(enc.encode(&features()).iter().all(|v| v.is_finite()));
        assert!(enc
            .encode(&JobFeatures::default())
            .iter()
            .all(|v| v.is_finite()));
    }

    #[test]
    fn log_transform_compresses_large_values() {
        let enc = FeatureEncoder::default();
        let v = enc.encode(&features());
        // average_size = 1e9 should encode near ln(1e9) ≈ 20.7.
        assert!(v[1] > 20.0 && v[1] < 22.0, "got {}", v[1]);
        // Hour of day passes through untouched.
        assert_eq!(v[12], 13.0);
    }

    #[test]
    fn metadata_tokens_populate_hash_buckets() {
        let enc = FeatureEncoder::default();
        let v = enc.encode(&features());
        let bucket_sum: f64 = v[NUMERIC_FEATURE_COUNT..].iter().sum();
        assert!(
            bucket_sum > 5.0,
            "expected several tokens hashed, got {bucket_sum}"
        );
    }

    #[test]
    fn different_pipelines_encode_differently() {
        let enc = FeatureEncoder::default();
        let a = enc.encode(&features());
        let mut other = features();
        other.pipeline_name = "org.search.queryjoin.pipeline7.prod".into();
        other.user_name = "search-queryjoin-user3".into();
        let b = enc.encode(&other);
        assert_ne!(a, b);
    }

    #[test]
    fn encoding_is_deterministic() {
        let enc = FeatureEncoder::default();
        assert_eq!(enc.encode(&features()), enc.encode(&features()));
    }

    #[test]
    fn hash_group_assignment() {
        let enc = FeatureEncoder::new(4);
        let groups = enc.feature_groups();
        assert!(groups[NUMERIC_FEATURE_COUNT..]
            .iter()
            .all(|g| *g == FeatureGroup::ExecutionMetadata));
    }

    #[test]
    #[should_panic(expected = "at least one hash bucket")]
    fn zero_buckets_rejected() {
        let _ = FeatureEncoder::new(0);
    }
}
