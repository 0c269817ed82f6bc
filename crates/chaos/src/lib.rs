//! Deterministic fault injection and graceful-degradation harness for the
//! BYOM tiering pipeline.
//!
//! Production learned-tiering deployments fail in three places: the *trace*
//! (dropped, duplicated, or corrupted job metadata from flaky collection
//! pipelines), the *model* (prediction-service blackouts, stale or corrupted
//! labels), and the *device* (capacity step-downs, transient admission
//! failures). This crate injects all three fault surfaces into the simulator
//! in a **seeded, bit-reproducible** way and measures how much of the learned
//! policy's savings the graceful-degradation ladder
//! ([`byom_core::LadderPolicy`]) retains.
//!
//! The pieces:
//!
//! * [`FaultPlan`] — a plain-data description of what to break, seeded
//!   through the workspace's deterministic RNG. Every per-job fault
//!   decision is derived by hashing `(plan seed, job id, surface salt)`, so
//!   outcomes are independent of iteration order and identical across runs.
//! * [`apply_trace_faults`] — perturbs a [`byom_trace::Trace`] (drops,
//!   duplicates, metadata corruption, blanked feature columns).
//! * [`FaultyCategorizer`] — wraps any [`byom_core::Categorizer`] with
//!   prediction blackouts and confidence-calibrated label flips. During a
//!   blackout its `categorize` returns `None`: the ladder detects that and
//!   degrades around it, while the plain adaptive policy (the "no fallback"
//!   ablation) reads it as category 0.
//! * [`FaultyDevice`] — a [`byom_sim::DeviceModel`] injecting SSD capacity
//!   step-downs/recoveries and transient admission failures with a
//!   deterministic retry-after window.
//! * [`run_ladder`] / [`run_no_fallback`] / [`run_unfaulted`] — twin-run
//!   helpers that wire everything together and merge all fault accounting
//!   into the result's [`byom_sim::ResilienceReport`].
//!
//! A zero-fault plan ([`FaultPlan::none`]) is guaranteed to leave every byte
//! of the simulation result identical to a plan-free run; the crate's tests
//! enforce this equivalence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod device;
pub mod inject;
pub mod model;
pub mod plan;
pub mod run;

pub use device::FaultyDevice;
pub use inject::{apply_trace_faults, TraceFaultCounts};
pub use model::FaultyCategorizer;
pub use plan::{BlackoutWindow, CapacityStep, DeviceFaults, FaultPlan, ModelFaults, TraceFaults};
pub use run::{run_ladder, run_no_fallback, run_unfaulted};

/// Mix a plan seed, a job id, and a fault-surface salt into an RNG seed.
///
/// SplitMix64-style finalizer: per-job streams are decorrelated and depend
/// only on the *identity* of the job, never on iteration order, so fault
/// decisions are stable under trace re-sorting, duplication, and filtering.
pub(crate) fn mix(seed: u64, job_id: u64, salt: u64) -> u64 {
    let mut z = seed
        ^ job_id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-surface salts feeding [`mix`], so the same job draws independent
/// streams for trace, model, and device faults.
pub(crate) mod salt {
    /// Trace-surface salt.
    pub const TRACE: u64 = 0x7472_6163;
    /// Model-surface salt.
    pub const MODEL: u64 = 0x6d6f_6465;
    /// Device-surface salt.
    pub const DEVICE: u64 = 0x6465_7669;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_stable_and_sensitive_to_every_input() {
        let base = mix(42, 7, salt::TRACE);
        assert_eq!(base, mix(42, 7, salt::TRACE), "pure function");
        assert_ne!(base, mix(43, 7, salt::TRACE), "seed matters");
        assert_ne!(base, mix(42, 8, salt::TRACE), "job id matters");
        assert_ne!(base, mix(42, 7, salt::MODEL), "salt matters");
    }
}
