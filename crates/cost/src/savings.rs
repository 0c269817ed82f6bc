//! Savings accounting: turning a set of placement outcomes into the paper's
//! TCO-savings-percent and TCIO-savings-percent metrics.

use crate::job_cost::JobCost;

/// The realized placement of one job after simulation.
///
/// `ssd_fraction` is the fraction of the job's footprint (and, pro rata, its
/// I/O) that was actually served from SSD. A job admitted to SSD that later
/// spilled over to HDD has a fraction strictly between 0 and 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// Fraction of the job served from SSD, in `[0, 1]`.
    pub ssd_fraction: f64,
}

impl Placement {
    /// A job partially placed on SSD (e.g. after spillover).
    ///
    /// # Panics
    /// Panics if `fraction` is not within `[0, 1]` (NaN included).
    pub fn partial(fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "ssd fraction must be in [0,1], got {fraction}"
        );
        Placement {
            ssd_fraction: fraction,
        }
    }
}

/// Aggregate savings of one placement run, relative to the all-on-HDD
/// baseline, matching the metrics reported throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SavingsSummary {
    /// Total TCO if every job were placed on HDD (the baseline denominator).
    pub baseline_tco: f64,
    /// Total TCO achieved by the evaluated placement.
    pub achieved_tco: f64,
    /// Total TCIO-seconds if every job were on HDD.
    pub baseline_tcio_seconds: f64,
    /// TCIO-seconds actually removed from HDDs by SSD placement.
    pub tcio_seconds_saved: f64,
    /// Number of jobs that used SSD at least partially.
    pub jobs_on_ssd: usize,
    /// Number of jobs evaluated.
    pub total_jobs: usize,
}

impl SavingsSummary {
    /// TCO savings as a percentage of the all-on-HDD baseline.
    pub fn tco_savings_percent(&self) -> f64 {
        if self.baseline_tco <= 0.0 {
            return 0.0;
        }
        (self.baseline_tco - self.achieved_tco) / self.baseline_tco * 100.0
    }

    /// TCIO savings as a percentage of the all-on-HDD baseline.
    pub fn tcio_savings_percent(&self) -> f64 {
        if self.baseline_tcio_seconds <= 0.0 {
            return 0.0;
        }
        self.tcio_seconds_saved / self.baseline_tcio_seconds * 100.0
    }
}

/// Aggregate a set of per-job costs and realized placements into a
/// [`SavingsSummary`].
///
/// Costs for partially-placed jobs are interpolated linearly between the HDD
/// and SSD costs by the realized SSD fraction, matching the simulator's
/// byte-proportional spillover model.
///
/// # Panics
/// Panics if `costs` and `placements` have different lengths.
pub fn savings_summary(costs: &[JobCost], placements: &[Placement]) -> SavingsSummary {
    assert_eq!(
        costs.len(),
        placements.len(),
        "costs and placements must be parallel arrays"
    );
    let mut summary = SavingsSummary {
        total_jobs: costs.len(),
        ..Default::default()
    };
    for (c, p) in costs.iter().zip(placements) {
        let f = p.ssd_fraction.clamp(0.0, 1.0);
        summary.baseline_tco += c.tco_hdd;
        summary.achieved_tco += f * c.tco_ssd + (1.0 - f) * c.tco_hdd;
        summary.baseline_tcio_seconds += c.tcio_seconds();
        summary.tcio_seconds_saved += f * c.tcio_seconds();
        if f > 0.0 {
            summary.jobs_on_ssd += 1;
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use byom_trace::JobId;

    fn cost(tco_hdd: f64, tco_ssd: f64, tcio: f64) -> JobCost {
        JobCost {
            id: JobId(0),
            arrival: 0.0,
            lifetime: 10.0,
            size_bytes: 100,
            tcio_hdd: tcio,
            tco_hdd,
            tco_ssd,
            io_density: 1.0,
        }
    }

    #[test]
    fn all_hdd_gives_zero_savings() {
        let costs = vec![cost(2.0, 1.0, 0.5); 4];
        let placements = vec![Placement::partial(0.0); 4];
        let s = savings_summary(&costs, &placements);
        assert_eq!(s.tco_savings_percent(), 0.0);
        assert_eq!(s.tcio_savings_percent(), 0.0);
        assert_eq!(s.jobs_on_ssd, 0);
        assert_eq!(s.total_jobs, 4);
    }

    #[test]
    fn all_ssd_with_positive_savings() {
        let costs = vec![cost(2.0, 1.0, 0.5); 4];
        let placements = vec![Placement::partial(1.0); 4];
        let s = savings_summary(&costs, &placements);
        assert!((s.tco_savings_percent() - 50.0).abs() < 1e-9);
        assert!((s.tcio_savings_percent() - 100.0).abs() < 1e-9);
        assert_eq!(s.jobs_on_ssd, 4);
    }

    #[test]
    fn ssd_placement_of_negative_savings_job_hurts_tco_but_helps_tcio() {
        let costs = vec![cost(1.0, 3.0, 0.5)];
        let s = savings_summary(&costs, &[Placement::partial(1.0)]);
        assert!(s.tco_savings_percent() < 0.0);
        assert!(s.tcio_savings_percent() > 0.0);
    }

    #[test]
    fn partial_placement_interpolates() {
        let costs = vec![cost(2.0, 1.0, 1.0)];
        let s = savings_summary(&costs, &[Placement::partial(0.25)]);
        assert!((s.tco_savings_percent() - 12.5).abs() < 1e-9);
        assert!((s.tcio_savings_percent() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs_are_fine() {
        let s = savings_summary(&[], &[]);
        assert_eq!(s.tco_savings_percent(), 0.0);
        assert_eq!(s.tcio_savings_percent(), 0.0);
    }

    #[test]
    #[should_panic(expected = "parallel arrays")]
    fn mismatched_lengths_panic() {
        let _ = savings_summary(&[cost(1.0, 1.0, 1.0)], &[]);
    }

    #[test]
    #[should_panic(expected = "ssd fraction must be in")]
    fn partial_rejects_out_of_range() {
        let _ = Placement::partial(1.5);
    }

    #[test]
    fn placement_constructors() {
        assert_eq!(Placement::partial(0.0).ssd_fraction, 0.0);
        assert_eq!(Placement::partial(1.0).ssd_fraction, 1.0);
        assert_eq!(Placement::partial(0.5).ssd_fraction, 0.5);
    }
}
