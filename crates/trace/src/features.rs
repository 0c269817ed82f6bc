//! Application-level job features (Table 2 of the paper).
//!
//! Features fall into four groups, mirroring Figure 9c of the paper:
//!
//! * **A — Historical system metrics**: averages over the job's (pipeline's)
//!   previous executions: TCIO, peak size, lifetime, I/O density.
//! * **B — Execution metadata**: string identifiers (build target, execution
//!   name, pipeline name, step name, user name) that are tokenized into key
//!   elements separated by non-alphanumeric characters.
//! * **C — Allocated resources**: bucket/shard/worker counts assigned by the
//!   cluster scheduler before execution.
//! * **T — Job timestamp**: hour of day, second of day, weekday.

/// The feature groups used for importance analysis (Figure 9c).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureGroup {
    /// Group A: historical system metrics from previous executions.
    HistoricalSystemMetrics,
    /// Group B: execution metadata strings.
    ExecutionMetadata,
    /// Group C: resources allocated by the scheduler before execution.
    AllocatedResources,
    /// Group T: job start timestamp features.
    JobTimestamp,
}

impl FeatureGroup {
    /// Short label used in figures ("A", "B", "C", "T").
    pub fn label(&self) -> &'static str {
        match self {
            FeatureGroup::HistoricalSystemMetrics => "A",
            FeatureGroup::ExecutionMetadata => "B",
            FeatureGroup::AllocatedResources => "C",
            FeatureGroup::JobTimestamp => "T",
        }
    }

    /// All groups, in the order used by the paper's Figure 9c.
    pub fn all() -> [FeatureGroup; 4] {
        [
            FeatureGroup::HistoricalSystemMetrics,
            FeatureGroup::ExecutionMetadata,
            FeatureGroup::AllocatedResources,
            FeatureGroup::JobTimestamp,
        ]
    }
}

/// Number of numeric features produced by [`JobFeatures::to_numeric`].
pub const NUMERIC_FEATURE_COUNT: usize = 15;

/// Names of the numeric features, aligned with [`JobFeatures::to_numeric`].
pub const FEATURE_NAMES: [&str; NUMERIC_FEATURE_COUNT] = [
    "average_tcio",
    "average_size",
    "average_lifetime",
    "average_io_density",
    "bucket_sizing_initial_num_stripes",
    "bucket_sizing_num_shards",
    "bucket_sizing_num_worker_threads",
    "bucket_sizing_num_workers",
    "initial_num_buckets",
    "num_buckets",
    "records_written",
    "requested_num_shards",
    "open_time_day_hour",
    "open_time_seconds",
    "open_time_weekday",
];

/// The feature group each entry of [`FEATURE_NAMES`] belongs to.
pub const FEATURE_GROUPS: [FeatureGroup; NUMERIC_FEATURE_COUNT] = [
    FeatureGroup::HistoricalSystemMetrics,
    FeatureGroup::HistoricalSystemMetrics,
    FeatureGroup::HistoricalSystemMetrics,
    FeatureGroup::HistoricalSystemMetrics,
    FeatureGroup::AllocatedResources,
    FeatureGroup::AllocatedResources,
    FeatureGroup::AllocatedResources,
    FeatureGroup::AllocatedResources,
    FeatureGroup::AllocatedResources,
    FeatureGroup::AllocatedResources,
    FeatureGroup::AllocatedResources,
    FeatureGroup::AllocatedResources,
    FeatureGroup::JobTimestamp,
    FeatureGroup::JobTimestamp,
    FeatureGroup::JobTimestamp,
];

/// Application-level features known *before* a job executes (Table 2).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JobFeatures {
    // -- Group A: historical system metrics (from previous executions of the
    //    same pipeline step). Zero when no history exists.
    /// Average TCIO of the job's historical executions.
    pub average_tcio: f64,
    /// Average peak intermediate-file size (bytes) of historical executions.
    pub average_size: f64,
    /// Average historical lifetime in seconds.
    pub average_lifetime: f64,
    /// Average I/O density of historical executions.
    pub average_io_density: f64,

    // -- Group C: allocated resources.
    /// Initial number of stripes a shard is expected to be divided into.
    pub bucket_sizing_initial_num_stripes: u32,
    /// Number of shards the working set is expected to be sharded into.
    pub bucket_sizing_num_shards: u32,
    /// Number of worker threads.
    pub bucket_sizing_num_worker_threads: u32,
    /// Number of workers in this job.
    pub bucket_sizing_num_workers: u32,
    /// Initial number of buckets the job used when it started.
    pub initial_num_buckets: u32,
    /// Number of buckets the job actually uses.
    pub num_buckets: u32,
    /// Number of records to be shuffled.
    pub records_written: u64,
    /// Number of shards the working set is requested to be sharded into.
    pub requested_num_shards: u32,

    // -- Group T: job timestamp.
    /// Hour of the job start time (0-23).
    pub open_time_day_hour: u8,
    /// Second of the day of the job start time (0-86399).
    pub open_time_seconds: u32,
    /// Weekday of the job start date (0 = Monday .. 6 = Sunday).
    pub open_time_weekday: u8,

    // -- Group B: execution metadata strings.
    /// Build-file target used to build the executable binary.
    pub build_target_name: String,
    /// User-assigned identifier for the job (usually the binary file name).
    pub execution_name: String,
    /// Name of the pipeline the job belongs to.
    pub pipeline_name: String,
    /// Computer-generated step identifier from the execution graph.
    pub step_name: String,
    /// Name of the workflow step starting the shuffle job.
    pub user_name: String,
}

impl JobFeatures {
    /// Dense numeric view of the non-string features, in [`FEATURE_NAMES`]
    /// order. String (execution-metadata) features are encoded separately by
    /// the model layer via token hashing; see `byom_core::encode`.
    pub fn to_numeric(&self) -> [f64; NUMERIC_FEATURE_COUNT] {
        [
            self.average_tcio,
            self.average_size,
            self.average_lifetime,
            self.average_io_density,
            f64::from(self.bucket_sizing_initial_num_stripes),
            f64::from(self.bucket_sizing_num_shards),
            f64::from(self.bucket_sizing_num_worker_threads),
            f64::from(self.bucket_sizing_num_workers),
            f64::from(self.initial_num_buckets),
            f64::from(self.num_buckets),
            self.records_written as f64,
            f64::from(self.requested_num_shards),
            f64::from(self.open_time_day_hour),
            f64::from(self.open_time_seconds),
            f64::from(self.open_time_weekday),
        ]
    }

    /// Blank every feature column belonging to `group`, as when an upstream
    /// metadata pipeline fails to deliver that group: numeric columns go to
    /// zero and string columns to the empty string. Fault-injection layers
    /// use this to model missing feature columns.
    pub fn clear_group(&mut self, group: FeatureGroup) {
        match group {
            FeatureGroup::HistoricalSystemMetrics => {
                self.average_tcio = 0.0;
                self.average_size = 0.0;
                self.average_lifetime = 0.0;
                self.average_io_density = 0.0;
            }
            FeatureGroup::AllocatedResources => {
                self.bucket_sizing_initial_num_stripes = 0;
                self.bucket_sizing_num_shards = 0;
                self.bucket_sizing_num_worker_threads = 0;
                self.bucket_sizing_num_workers = 0;
                self.initial_num_buckets = 0;
                self.num_buckets = 0;
                self.records_written = 0;
                self.requested_num_shards = 0;
            }
            FeatureGroup::JobTimestamp => {
                self.open_time_day_hour = 0;
                self.open_time_seconds = 0;
                self.open_time_weekday = 0;
            }
            FeatureGroup::ExecutionMetadata => {
                self.build_target_name.clear();
                self.execution_name.clear();
                self.pipeline_name.clear();
                self.step_name.clear();
                self.user_name.clear();
            }
        }
    }

    /// The execution-metadata strings in a stable order:
    /// `[build_target_name, execution_name, pipeline_name, step_name, user_name]`.
    pub fn metadata_strings(&self) -> [&str; 5] {
        [
            &self.build_target_name,
            &self.execution_name,
            &self.pipeline_name,
            &self.step_name,
            &self.user_name,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_view_matches_names_length() {
        let f = JobFeatures::default();
        assert_eq!(f.to_numeric().len(), FEATURE_NAMES.len());
        assert_eq!(FEATURE_GROUPS.len(), FEATURE_NAMES.len());
    }

    #[test]
    fn numeric_view_roundtrips_values() {
        let f = JobFeatures {
            average_tcio: 1.5,
            num_buckets: 64,
            open_time_day_hour: 23,
            records_written: 1_000_000,
            ..Default::default()
        };
        let v = f.to_numeric();
        assert_eq!(v[0], 1.5);
        assert_eq!(v[9], 64.0);
        assert_eq!(v[10], 1_000_000.0);
        assert_eq!(v[12], 23.0);
    }

    #[test]
    fn metadata_strings_order_is_stable() {
        let f = JobFeatures {
            build_target_name: "//a:b".into(),
            execution_name: "exec".into(),
            pipeline_name: "pipe".into(),
            step_name: "step".into(),
            user_name: "user".into(),
            ..Default::default()
        };
        assert_eq!(
            f.metadata_strings(),
            ["//a:b", "exec", "pipe", "step", "user"]
        );
    }

    #[test]
    fn feature_group_labels() {
        assert_eq!(FeatureGroup::HistoricalSystemMetrics.label(), "A");
        assert_eq!(FeatureGroup::ExecutionMetadata.label(), "B");
        assert_eq!(FeatureGroup::AllocatedResources.label(), "C");
        assert_eq!(FeatureGroup::JobTimestamp.label(), "T");
        assert_eq!(FeatureGroup::all().len(), 4);
    }

    #[test]
    fn clear_group_blanks_exactly_that_group() {
        let full = JobFeatures {
            average_tcio: 1.0,
            average_size: 2.0,
            average_lifetime: 3.0,
            average_io_density: 4.0,
            bucket_sizing_num_workers: 5,
            num_buckets: 6,
            records_written: 7,
            open_time_day_hour: 8,
            open_time_weekday: 2,
            pipeline_name: "pipe".into(),
            user_name: "user".into(),
            ..Default::default()
        };
        for group in FeatureGroup::all() {
            let mut f = full.clone();
            f.clear_group(group);
            assert_ne!(f, full, "clearing {group:?} should change something");
        }
        let mut f = full.clone();
        f.clear_group(FeatureGroup::HistoricalSystemMetrics);
        assert_eq!(f.average_tcio, 0.0);
        assert_eq!(f.num_buckets, 6, "other groups untouched");
        f.clear_group(FeatureGroup::ExecutionMetadata);
        assert!(f.pipeline_name.is_empty());
        f.clear_group(FeatureGroup::AllocatedResources);
        f.clear_group(FeatureGroup::JobTimestamp);
        assert!(f.to_numeric().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn default_features_are_all_zero() {
        let f = JobFeatures::default();
        assert!(f.to_numeric().iter().all(|&x| x == 0.0));
    }
}
