//! Property-based tests over the workspace's core invariants: cost-model
//! sanity, oracle feasibility and monotonicity, the simulator's occupancy
//! accounting, label-partition validity, and GBDT probability-distribution
//! validity.
//!
//! The build environment has no crates.io access, so instead of `proptest`
//! these run each property over a deterministic stream of randomized cases
//! drawn from the workspace's seeded `rand` stand-in. Failures print the case
//! seed so a case can be replayed in isolation.

use byom::prelude::*;
use byom_core::CategoryLabeler;
use byom_trace::{IoProfile, JobFeatures};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 64;

/// An arbitrary but well-formed shuffle job.
fn gen_job<R: Rng>(rng: &mut R, id: u64) -> ShuffleJob {
    let written = rng.gen_range(0..(1u64 << 41));
    ShuffleJob {
        id: JobId(id),
        cluster: 0,
        arrival: rng.gen_range(0.0f64..100_000.0),
        lifetime: rng.gen_range(1.0f64..200_000.0),
        size_bytes: rng.gen_range(1u64..(1u64 << 40)),
        io: IoProfile {
            read_bytes: rng.gen_range(0..(1u64 << 41)),
            written_bytes: written,
            read_ops: rng.gen_range(0..5_000_000),
            write_ops: written / (128 * 1024) + 1,
            dram_hit_fraction: rng.gen_range(0.0f64..0.95),
            mean_read_size: 64 * 1024,
        },
        features: JobFeatures::default(),
        archetype: 0,
    }
}

fn gen_jobs<R: Rng>(rng: &mut R, max: usize) -> Vec<ShuffleJob> {
    let n = rng.gen_range(1..max);
    (0..n).map(|i| gen_job(rng, i as u64)).collect()
}

/// Cost model: all cost quantities are finite and non-negative, and the
/// network component is identical across devices.
#[test]
fn cost_model_outputs_are_finite_and_nonnegative() {
    let model = CostModel::new(CostRates::default());
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x1000 + case);
        let job = gen_job(&mut rng, 0);
        let cost = model.cost_job(&job);
        assert!(
            cost.tcio_hdd.is_finite() && cost.tcio_hdd >= 0.0,
            "case {case}: tcio_hdd {:?}",
            cost.tcio_hdd
        );
        assert!(
            cost.tco_hdd.is_finite() && cost.tco_hdd >= 0.0,
            "case {case}"
        );
        assert!(
            cost.tco_ssd.is_finite() && cost.tco_ssd >= 0.0,
            "case {case}"
        );
        let hdd = model.tco_hdd_breakdown(&job);
        let ssd = model.tco_ssd_breakdown(&job);
        assert!((hdd.network - ssd.network).abs() < 1e-15, "case {case}");
    }
}

/// Cost model: removing DRAM cache hits can only increase TCIO.
#[test]
fn dram_cache_never_increases_tcio() {
    let model = CostModel::new(CostRates::default());
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x2000 + case);
        let job = gen_job(&mut rng, 0);
        let mut uncached = job.clone();
        uncached.io.dram_hit_fraction = 0.0;
        assert!(
            model.cost_job(&uncached).tcio_hdd >= model.cost_job(&job).tcio_hdd - 1e-12,
            "case {case}"
        );
    }
}

/// Oracle: the chosen placement never exceeds the capacity, never selects
/// negative-value jobs, and a larger capacity never decreases the value.
#[test]
fn oracle_feasibility_and_monotonicity() {
    let model = CostModel::new(CostRates::default());
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x3000 + case);
        let jobs = gen_jobs(&mut rng, 24);
        let cap_a = rng.gen_range(0..(1u64 << 42));
        let cap_b = rng.gen_range(0..(1u64 << 42));
        let trace = Trace::new(jobs);
        let costs = model.cost_trace(&trace);
        let (lo, hi) = if cap_a <= cap_b {
            (cap_a, cap_b)
        } else {
            (cap_b, cap_a)
        };
        let small = Oracle::new(OracleObjective::Tco, lo).solve(&costs);
        let large = Oracle::new(OracleObjective::Tco, hi).solve(&costs);
        assert!(small.peak_occupancy <= lo.max(1), "case {case}");
        assert!(large.peak_occupancy <= hi.max(1), "case {case}");
        for (cost, &on_ssd) in costs.iter().zip(&small.on_ssd) {
            if on_ssd {
                assert!(cost.tco_savings() > 0.0, "case {case}");
            }
        }
        assert!(large.total_value >= small.total_value - 1e-9, "case {case}");
    }
}

/// Checks the simulator's byte accounting for one run against the states the
/// policy was shown, decision by decision. Returns how many decisions saw
/// occupancy above the capacity shown (only a capacity step-down can cause
/// that, since it evicts nothing).
fn assert_occupancy_accounting(
    trace: &Trace,
    shown: &[SystemState],
    result: &SimulationResult,
    label: &str,
) -> usize {
    let jobs = trace.jobs();
    assert_eq!(shown.len(), jobs.len(), "{label}");
    // Bytes each job placed on SSD; the fraction is `placed / size`, so
    // rounding recovers the integer exactly.
    let placed: Vec<u64> = jobs
        .iter()
        .zip(&result.outcomes)
        .map(|(job, o)| (o.ssd_fraction * job.size_bytes as f64).round() as u64)
        .collect();
    let mut peak = 0;
    let mut over_capacity = 0;
    for (i, (job, state)) in jobs.iter().zip(shown).enumerate() {
        let resident: u64 = (0..i)
            .filter(|&j| jobs[j].end() > job.arrival)
            .map(|j| placed[j])
            .sum();
        assert_eq!(state.ssd_occupancy_bytes, resident, "{label}, job {i}");
        assert!(placed[i] <= state.ssd_free_bytes(), "{label}, job {i}");
        if state.ssd_occupancy_bytes > state.ssd_capacity_bytes {
            over_capacity += 1;
        }
        if placed[i] > 0 {
            peak = peak.max(resident + placed[i]);
        }
    }
    assert_eq!(result.peak_ssd_occupancy_bytes, peak, "{label}");
    over_capacity
}

/// Simulator: SSD occupancy never exceeds the configured capacity, every
/// realized SSD fraction is within [0, 1], and the occupancy accounting is
/// exact for random policies with and without device faults: a policy is
/// shown the placed bytes of every earlier job still resident, no job places
/// more than the free space under the capacity it was shown, the reported
/// peak is the largest occupancy right after an admission, and a policy that
/// never picks SSD saves nothing.
#[test]
fn simulator_respects_capacity() {
    #[derive(Debug)]
    struct AlwaysSsd;
    impl PlacementPolicy for AlwaysSsd {
        fn name(&self) -> &str {
            "always-ssd"
        }
        fn place(&mut self, _: &ShuffleJob, _: &JobCost, _: &SystemState) -> Device {
            Device::Ssd
        }
    }
    /// Sends each job to SSD with a fixed probability and records every
    /// state it is shown.
    #[derive(Debug)]
    struct CoinFlip {
        ssd_probability: f64,
        rng: StdRng,
        shown: Vec<SystemState>,
    }
    impl PlacementPolicy for CoinFlip {
        fn name(&self) -> &str {
            "coin-flip"
        }
        fn place(&mut self, _: &ShuffleJob, _: &JobCost, state: &SystemState) -> Device {
            self.shown.push(*state);
            if self.rng.gen_bool(self.ssd_probability) {
                Device::Ssd
            } else {
                Device::Hdd
            }
        }
    }
    let mut over_capacity = 0;
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x4000 + case);
        let jobs = gen_jobs(&mut rng, 40);
        let capacity = rng.gen_range(0..(1u64 << 41));
        let model = CostModel::new(CostRates::default());
        let trace = Trace::new(jobs);
        let sim = Simulator::new(
            SimConfig {
                ssd_capacity_bytes: capacity,
            },
            model,
        );
        let result = sim.run(&trace, &mut AlwaysSsd);
        assert!(result.peak_ssd_occupancy_bytes <= capacity, "case {case}");
        for o in &result.outcomes {
            assert!((0.0..=1.0).contains(&o.ssd_fraction), "case {case}");
        }
        // Savings summary is internally consistent.
        assert!(
            result.savings.achieved_tco <= result.savings.baseline_tco + 1e-9
                || result.savings.achieved_tco.is_finite(),
            "case {case}"
        );

        for ssd_probability in [0.0, 0.7, 1.0] {
            for faulty in [false, true] {
                let label = format!("case {case}, p {ssd_probability}, faulty {faulty}");
                let mut policy = CoinFlip {
                    ssd_probability,
                    rng: StdRng::seed_from_u64(0x4100 + case),
                    shown: Vec::new(),
                };
                let result = if faulty {
                    let plan = FaultPlan::at_intensity(case, 1.0);
                    let mut device = FaultyDevice::new(plan.device, plan.seed);
                    sim.run_with_device(&trace, &mut policy, &mut device)
                } else {
                    sim.run(&trace, &mut policy)
                };
                over_capacity +=
                    assert_occupancy_accounting(&trace, &policy.shown, &result, &label);
                assert!(result.peak_ssd_occupancy_bytes <= capacity, "{label}");
                if ssd_probability == 0.0 {
                    assert_eq!(result.tco_savings_percent(), 0.0, "{label}");
                    assert_eq!(result.tcio_savings_percent(), 0.0, "{label}");
                }
            }
        }
    }
    assert!(
        over_capacity > 0,
        "no capacity step-down ever left occupancy above the capacity shown"
    );
}

/// Category labels form a valid partition: every job gets a label below N and
/// negative-savings jobs always get label 0.
#[test]
fn category_labels_are_a_valid_partition() {
    let model = CostModel::new(CostRates::default());
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5000 + case);
        let jobs = gen_jobs(&mut rng, 60);
        let n = rng.gen_range(2usize..20);
        let trace = Trace::new(jobs);
        let costs = model.cost_trace(&trace);
        let labeler = CategoryLabeler::fit(&costs, n);
        for cost in &costs {
            let label = labeler.label(cost);
            assert!(label < n, "case {case}");
            if cost.tco_savings() < 0.0 {
                assert_eq!(label, 0, "case {case}");
            } else {
                assert!(label >= 1, "case {case}");
            }
        }
    }
}

/// GBDT predictions are valid probability distributions on arbitrary (finite)
/// feature vectors.
#[test]
fn gbdt_probabilities_are_distributions() {
    // A tiny fixed model trained once (cheap: 5 rounds), probed with many
    // random feature vectors.
    let rows: Vec<Vec<f64>> = (0..60)
        .map(|i| vec![i as f64, (i % 5) as f64, 1.0])
        .collect();
    let labels: Vec<usize> = (0..60).map(|i| usize::from(i >= 30)).collect();
    let data = Dataset::from_rows(rows, labels).unwrap();
    let params = GbdtParams {
        num_classes: 2,
        num_trees: 5,
        ..Default::default()
    };
    let model = GradientBoostedTrees::train(&params, &data, None).unwrap();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x6000 + case);
        let values: Vec<f64> = (0..3).map(|_| rng.gen_range(-1e6f64..1e6)).collect();
        let p = model.predict_proba(&values);
        assert_eq!(p.len(), 2, "case {case}");
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9, "case {case}");
        assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)), "case {case}");
    }
}
