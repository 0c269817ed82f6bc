//! The workloads and the phases every run goes through.
//!
//! A run is: set-up (trace generation, costing, pool warm-up; repeated),
//! then three rounds of training (`ByomPipeline::train`), the fig07 quota
//! sweep on an experiment context and Adaptive Ranking replays of the test
//! trace, with the chaos ladder/no-fallback pair in the first round. The
//! replays fill each round's share of `--seconds`. The workloads differ in
//! cluster mix and trace sizes, which decide where the time goes. A traced
//! run adds probes that time each layer on its own.

use crate::probe::{
    cpu_seconds, fastest, fastest_rate, invalid_placements, mean, median, peak_rss_mb, percentile,
    placement_digest, Timed,
};
use crate::spans::Tracer;
use byom_bench::{run_quotas_parallel, ExperimentContext, ExperimentParams, MethodResult};
use byom_chaos::{run_ladder, run_no_fallback, FaultPlan};
use byom_core::{ByomPipeline, CategoryLabeler, TrainedByom};
use byom_cost::{CostModel, CostRates};
use byom_exec::prelude::*;
use byom_gbdt::{BinMapper, Dataset, GbdtParams, GradientBoostedTrees};
use byom_policies::{CategoryHeuristic, FirstFit, LifetimeMlBaseline, LifetimeModelConfig};
use byom_sim::{PlacementPolicy, SimConfig, SimulationResult, Simulator};
use byom_solver::{Oracle, OracleObjective};
use byom_trace::{ClusterSpec, Trace, TraceGenerator};
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// End-to-end metrics, in output order, with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("train_s", "s"),
    ("place_us_p50", "us"),
    ("place_us_p90", "us"),
    ("replay_jobs_per_s", "jobs/s"),
    ("sweep_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, in output order, with their units.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("core.ranking.tco_savings_pct", "%"),
    ("core.ranking.place_us_p99", "us"),
    ("solver.oracle_gap_pp", "pp"),
    ("trace.generate_ms", "ms"),
    ("trace.jobs_train", "count"),
    ("trace.jobs_test", "count"),
    ("trace.encode_ns_per_job", "ns"),
    ("cost.cost_trace_ms", "ms"),
    ("core.labels.fit_ms", "ms"),
    ("core.model.train_ms", "ms"),
    ("core.model.predict_ns_per_job", "ns"),
    ("core.adaptive.place_ns_per_job", "ns"),
    ("core.adaptive.act_updates", "count"),
    ("core.adaptive.act_mean", "category"),
    ("core.adaptive.spill_pct_mean", "%"),
    ("core.ladder.rung_occupancy.model", "count"),
    ("core.ladder.rung_occupancy.hash", "count"),
    ("core.ladder.rung_occupancy.heuristic", "count"),
    ("core.ladder.rung_occupancy.first_fit", "count"),
    ("gbdt.bin_ms", "ms"),
    ("gbdt.train_ms", "ms"),
    ("gbdt.rounds", "count"),
    ("gbdt.rows", "count"),
    ("gbdt.predict_ns_per_row", "ns"),
    ("sim.replay_ms", "ms"),
    ("sim.policy_ms", "ms"),
    ("sim.self_ns_per_job", "ns"),
    ("sim.firstfit_replay_ms", "ms"),
    ("sim.ssd_scheduled", "count"),
    ("sim.spilled", "count"),
    ("sim.spill_ratio", "ratio"),
    ("policies.ml_baseline.train_ms", "ms"),
    ("policies.ml_baseline.place_ns_per_job", "ns"),
    ("policies.heuristic.replay_ms", "ms"),
    ("solver.oracle_tco_ms", "ms"),
    ("solver.oracle_tcio_ms", "ms"),
    ("solver.selected_jobs", "count"),
    ("exec.threads", "count"),
    ("exec.cpu_util.train", "ratio"),
    ("exec.cpu_util.sweep", "ratio"),
    ("chaos.admission_failures", "count"),
    ("chaos.model_blackouts", "count"),
    ("chaos.ladder_replay_ms", "ms"),
    ("harness.prepare_ms", "ms"),
    ("harness.run_all_methods_ms.p50", "ms"),
    ("harness.run_all_methods_ms.max", "ms"),
    ("harness.sweep_ctx_jobs_train", "count"),
    ("harness.sweep_ctx_jobs_test", "count"),
    ("bench.replays", "count"),
    ("bench.tracing_overhead_pct", "%"),
];

/// The fig07 quota operating points.
const FIG07_QUOTAS: [f64; 8] = [0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0];
/// The SSD quota of the timed replay, the chaos pair and the layer probes.
const REPLAY_QUOTA: f64 = 0.05;
const NUM_CATEGORIES: usize = 15;
/// Set-up repetitions before the timed rounds; `setup_s` is the fastest of
/// these and of the one after every replay slice.
const SETUP_REPS: usize = 21;
/// The timed part of a run is this many rounds of training, sweeps and
/// replays, so that a burst of load from outside the process touches one
/// sample of each phase rather than all of them.
const ROUNDS: usize = 3;
/// Sweeps per round. Eight unequal quotas on two threads finish at times
/// that vary by up to one quota between repeats, so `sweep_s` takes more
/// samples than `train_s`.
const SWEEPS_PER_ROUND: usize = 2;
/// The timed replays go on past `--seconds` until at least this many
/// placements were timed, so that p99 rests on a thousand samples beyond it.
const MIN_PLACEMENTS: usize = 100_000;
/// Boosting rounds of every category model. Early stopping is off (no
/// validation split) so that model size, which sets both training and
/// per-job inference cost, does not vary with the seed; 30 is where the
/// paper-default pipeline stops early on a 24 h window.
const GBDT_ROUNDS: usize = 30;
/// How far FirstFit may edge past the greedy Oracle TCO (in percentage
/// points) before the oracle counts as failed; the slack the harness's own
/// oracle-bound test allows.
const ORACLE_SLACK_PP: f64 = 0.5;
const CHAOS_INTENSITY: f64 = 0.5;

/// One named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A workload: a cluster mix and the trace sizes that set its share of work.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    spec: ClusterSpec,
    train_hours: f64,
    test_hours: f64,
    /// Leading hours of the train/test traces the fig07 sweep context uses
    /// (`None` = the whole trace).
    sweep_hours: Option<f64>,
}

impl Workload {
    pub fn named(name: &str) -> Option<Workload> {
        let w = match name {
            // The storage layer's per-job decision path: small training
            // window, a long test replay at a quota where spill and ACT
            // adaptation are active.
            "online" => Workload {
                name: "online",
                spec: ClusterSpec::balanced(0),
                train_hours: 6.0,
                test_hours: 24.0,
                sweep_hours: Some(2.0),
            },
            // The "bring your own model" training cost: a long training
            // window (20 h, so that three trainings fit in a run) and a
            // short replay.
            "retrain" => Workload {
                name: "retrain",
                spec: ClusterSpec::balanced(0),
                train_hours: 20.0,
                test_hours: 2.0,
                sweep_hours: Some(2.0),
            },
            // Figure reproduction: the fig07 sweep on the mixed cluster at
            // two thirds of the harness's default hours (so that three
            // sweeps fit in a run), plus the chaos pair.
            "sweep" => Workload {
                name: "sweep",
                spec: ClusterSpec::mixed_workloads(0),
                train_hours: 8.0,
                test_hours: 4.0,
                sweep_hours: None,
            },
            _ => return None,
        };
        Some(w)
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub stamps: Vec<(&'static str, String)>,
    pub tracer: Tracer,
}

/// Attempted and failed operations (placements, trainings, oracle solves,
/// checked predictions) with a note for every failure.
#[derive(Debug, Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Ops {
    fn record(&mut self, attempted: usize, failed: usize, why: impl FnOnce() -> String) {
        self.attempted += attempted as u64;
        if failed > 0 {
            self.failed += failed as u64;
            self.failures.push(why());
        }
    }

    /// Check one replay's placements against the simulator invariants.
    fn replay(&mut self, result: &SimulationResult, jobs: usize, capacity: u64) {
        let bad = invalid_placements(result, jobs, capacity);
        self.record(jobs, bad, || {
            format!(
                "{}: {bad} of {jobs} placements broke a simulator invariant",
                result.policy_name
            )
        });
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn list(values: &[f64]) -> String {
    let parts: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    parts.join(" ")
}

fn ns_per(d: Duration, n: usize) -> f64 {
    d.as_nanos() as f64 / n.max(1) as f64
}

/// SplitMix64 finalizer: derives the train and test trace seeds.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The jobs arriving in the first `hours` of a trace.
fn leading(trace: &Trace, hours: Option<f64>) -> Trace {
    match hours {
        None => trace.clone(),
        Some(h) => {
            let cut = trace.time_span().0 + h * 3600.0;
            trace.filter(|j| j.arrival < cut)
        }
    }
}

/// Replay `policy` behind a timing wrapper.
fn timed_replay<P: PlacementPolicy>(
    tr: &mut Tracer,
    name: &'static str,
    sim: &Simulator,
    trace: &Trace,
    policy: P,
    detail: bool,
) -> (SimulationResult, Timed<P>, Duration) {
    let mut timed = Timed::new(policy, trace.len(), detail);
    let (result, d) = tr.span(name, |_| sim.run(trace, &mut timed));
    tr.record_in_last(&timed.calls);
    timed.calls = Vec::new();
    (result, timed, d)
}

pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    started: Instant,
) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    // All load comes from this process, within a budget of one thread per core.
    let budget = nproc;
    let mut tr = Tracer::new(traced, started);
    let mut ops = Ops::default();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let cost_model = CostModel::new(CostRates::default());
    let (train_seed, test_seed) = (mix(seed, 1), mix(seed, 2));

    // ---- Set-up: generate and cost both traces, warm the pool. Returns the
    // traces, the seconds since `t0`, and the generate and cost times in ms.
    let setup_once = |tr: &mut Tracer, t0: Instant| {
        let ((train, test, generate, cost), _) = tr.span("setup", |tr| {
            tr.span("exec.warmup", |_| {
                byom_exec::install(budget, || {
                    let v: Vec<usize> = (0..256).into_par_iter().map(|i| i * i).collect();
                    black_box(v)
                })
            });
            let (train, g1) = tr.span("trace.generate", |_| {
                TraceGenerator::new(train_seed).generate(&w.spec, w.train_hours * 3600.0)
            });
            let (test, g2) = tr.span("trace.generate", |_| {
                TraceGenerator::new(test_seed).generate(&w.spec, w.test_hours * 3600.0)
            });
            let (_, c) = tr.span("cost.cost_trace", |_| {
                black_box((cost_model.cost_trace(&train), cost_model.cost_trace(&test)))
            });
            (train, test, ms(g1 + g2), ms(c))
        });
        (train, test, [t0.elapsed().as_secs_f64(), generate, cost])
    };
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut cost_ms = Vec::new();
    let mut traces = None;
    for rep in 0..SETUP_REPS {
        // The first repetition is timed from process start.
        let t0 = if rep == 0 { started } else { Instant::now() };
        let (train, test, [secs, generate, cost]) = setup_once(&mut tr, t0);
        setup_s.push(secs);
        generate_ms.push(generate);
        cost_ms.push(cost);
        traces = Some((train, test));
    }
    let (train, test) = traces.ok_or("no set-up ran")?;
    if train.is_empty() || test.is_empty() {
        return Err("generated an empty trace".into());
    }
    // One more set-up follows every replay slice below. The first ones all
    // fall within a second, in whatever state the host is in then; these
    // spread the samples of `setup_s` over the run. Each must regenerate
    // the same traces.
    let resetup = |tr: &mut Tracer, ops: &mut Ops, setup_s: &mut Vec<f64>| {
        let (again_train, again_test, [secs, ..]) = setup_once(tr, Instant::now());
        setup_s.push(secs);
        let same = again_train == train && again_test == test;
        ops.record(1, usize::from(!same), || {
            "a repeated set-up generated different traces".into()
        });
    };
    m.insert("trace.generate_ms", median(&generate_ms));
    m.insert("cost.cost_trace_ms", median(&cost_ms));
    m.insert("trace.jobs_train", train.len() as f64);
    m.insert("trace.jobs_test", test.len() as f64);
    let timed_start = Instant::now();

    // ---- The timed rounds. Training is the cost a workload pays to
    // (re)train its own model; the first model serves every later phase, and
    // every retraining on the same window must reproduce it exactly.
    let pipeline = ByomPipeline::builder()
        .num_categories(NUM_CATEGORIES)
        .gbdt_trees(GBDT_ROUNDS)
        .valid_fraction(0.0)
        .parallelism(budget)
        .build();
    let mut s = Samples::default();
    let trained = train_once(
        &mut tr,
        &mut ops,
        &mut s,
        &pipeline,
        &train,
        &cost_model,
        None,
    )
    .ok_or("training the category model failed")?;
    m.insert("gbdt.rounds", trained.model().gbdt().num_rounds() as f64);
    // The fig07 sweep runs on an experiment context built from this run's
    // traces and trained model.
    let ctx = ExperimentContext {
        spec: w.spec.clone(),
        train: leading(&train, w.sweep_hours),
        test: leading(&test, w.sweep_hours),
        cost_model,
        trained: trained.clone(),
        params: ExperimentParams {
            train_seed,
            test_seed,
            train_hours: w.sweep_hours.unwrap_or(w.train_hours),
            test_hours: w.sweep_hours.unwrap_or(w.test_hours),
            num_categories: NUM_CATEGORIES,
            // Sets the ML baseline's size inside `run_all_methods`.
            gbdt_trees: ExperimentParams::default().gbdt_trees,
            parallelism: budget,
        },
    };
    m.insert("harness.sweep_ctx_jobs_train", ctx.train.len() as f64);
    m.insert("harness.sweep_ctx_jobs_test", ctx.test.len() as f64);
    let sim = Simulator::new(
        SimConfig::try_from_quota_fraction(&test, REPLAY_QUOTA).map_err(|e| e.to_string())?,
        cost_model,
    );
    let replay = Replay {
        sim: &sim,
        test: &test,
        trained: &trained,
    };
    // A slice of Adaptive Ranking replays follows every training and every
    // sweep, so that the replay samples span the whole run instead of
    // bunching where the other phases leave time; together the slices time
    // at least `MIN_PLACEMENTS` placements.
    let slices = ROUNDS * (1 + SWEEPS_PER_ROUND);
    let per_slice = MIN_PLACEMENTS.div_ceil(test.len() * slices);
    for round in 0..ROUNDS {
        if round > 0 {
            train_once(
                &mut tr,
                &mut ops,
                &mut s,
                &pipeline,
                &train,
                &cost_model,
                Some(&trained),
            );
        }
        replay.slice(&mut tr, &mut ops, &mut s, &mut m, traced, per_slice);
        resetup(&mut tr, &mut ops, &mut setup_s);
        for _ in 0..SWEEPS_PER_ROUND {
            sweep_once(&mut tr, &mut ops, &mut s, &mut m, &ctx, budget);
            replay.slice(&mut tr, &mut ops, &mut s, &mut m, traced, per_slice);
            resetup(&mut tr, &mut ops, &mut setup_s);
        }
        if round == 0 {
            chaos(&mut tr, &mut ops, &mut m, &trained, &ctx, seed)?;
        }
        // Replays fill the rest of this round's share of the run.
        let round_end = seconds * (round + 1) as f64 / ROUNDS as f64;
        while timed_start.elapsed().as_secs_f64() < round_end {
            replay.slice(&mut tr, &mut ops, &mut s, &mut m, traced, 1);
        }
    }
    while s.placements < MIN_PLACEMENTS || s.rates.len() < 2 {
        replay.once(&mut tr, &mut ops, &mut s, &mut m, false);
    }
    let Samples {
        train_s,
        train_util,
        sweep_s,
        sweep_util,
        quota_ms,
        placements,
        p50_us,
        p90_us,
        p99_us,
        rates,
        replay_ms,
        policy_ms,
        self_ns,
        detailed_ms,
        first_replay: first,
        ..
    } = s;
    m.insert("setup_s", fastest(&setup_s));
    // Three to six samples: their median is steadier than their fastest.
    m.insert("train_s", median(&train_s));
    m.insert("exec.cpu_util.train", median(&train_util));
    m.insert("sweep_s", median(&sweep_s));
    m.insert("exec.cpu_util.sweep", median(&sweep_util));
    // Tens of identical replays: their fastest is the steadiest reading.
    m.insert("place_us_p50", fastest(&p50_us));
    m.insert("place_us_p90", fastest(&p90_us));
    m.insert("core.ranking.place_us_p99", fastest(&p99_us));
    m.insert("replay_jobs_per_s", fastest_rate(&rates));
    m.insert("sim.replay_ms", fastest(&replay_ms));
    m.insert("sim.policy_ms", fastest(&policy_ms));
    m.insert("sim.self_ns_per_job", fastest(&self_ns));
    m.insert("bench.replays", rates.len() as f64);
    if let Some(d) = detailed_ms {
        m.insert(
            "bench.tracing_overhead_pct",
            (d / median(&replay_ms) - 1.0) * 100.0,
        );
    }
    m.insert(
        "exec.threads",
        byom_exec::install(budget, byom_exec::current_num_threads) as f64,
    );

    if traced {
        probe_layers(
            &mut tr,
            &mut ops,
            &mut m,
            &Probe {
                w,
                budget,
                cost_model,
                train: &train,
                test: &test,
                sim: &sim,
                trained: &trained,
                pipeline: &pipeline,
                ctx: &ctx,
            },
        );
        m.insert("harness.run_all_methods_ms.p50", median(&quota_ms));
        m.insert(
            "harness.run_all_methods_ms.max",
            quota_ms.iter().copied().fold(0.0, f64::max),
        );
    }
    m.insert("peak_rss_mb", peak_rss_mb());

    let pick = |list: &[(&'static str, &'static str)]| -> Result<Vec<Metric>, String> {
        list.iter()
            .map(|&(name, unit)| {
                m.get(name)
                    .map(|&value| Metric {
                        name: name.to_string(),
                        value,
                        unit,
                    })
                    .ok_or_else(|| format!("metric {name} was not measured"))
            })
            .collect()
    };
    let end_to_end = pick(&END_TO_END)?;
    let per_layer = if traced {
        pick(&PER_LAYER)?
    } else {
        Vec::new()
    };
    let stamps = vec![
        ("seed", seed.to_string()),
        ("train_seed", train_seed.to_string()),
        ("test_seed", test_seed.to_string()),
        ("thread_budget", budget.to_string()),
        ("nproc", nproc.to_string()),
        ("workload", w.name.to_string()),
        ("setup_s_reps", list(&setup_s)),
        ("train_s_reps", list(&train_s)),
        ("sweep_s_reps", list(&sweep_s)),
        ("train_jobs", train.len().to_string()),
        ("test_jobs", test.len().to_string()),
        ("sweep_ctx_train_jobs", ctx.train.len().to_string()),
        ("sweep_ctx_test_jobs", ctx.test.len().to_string()),
        (
            "gbdt_rounds",
            trained.model().gbdt().num_rounds().to_string(),
        ),
        ("replays", rates.len().to_string()),
        ("place_us_p50_reps", list(&p50_us)),
        ("placements_timed", placements.to_string()),
        (
            "placement_digest",
            format!("{:016x}", first.map_or(0, |f| f.0)),
        ),
    ];
    Ok(Outcome {
        end_to_end,
        per_layer,
        attempted: ops.attempted,
        failed: ops.failed,
        failures: ops.failures,
        stamps,
        tracer: tr,
    })
}

/// Samples the timed rounds collect.
#[derive(Debug, Default)]
struct Samples {
    train_s: Vec<f64>,
    train_util: Vec<f64>,
    sweep_s: Vec<f64>,
    sweep_util: Vec<f64>,
    quota_ms: Vec<f64>,
    first_sweep: Option<Vec<Vec<MethodResult>>>,
    /// Placements timed, and each replay's `place` latency percentiles.
    placements: usize,
    p50_us: Vec<f64>,
    p90_us: Vec<f64>,
    p99_us: Vec<f64>,
    rates: Vec<f64>,
    replay_ms: Vec<f64>,
    policy_ms: Vec<f64>,
    self_ns: Vec<f64>,
    detailed_ms: Option<f64>,
    /// Placement digest and TCO savings of the first replay.
    first_replay: Option<(u64, f64)>,
}

/// One `ByomPipeline::train`; a retraining must equal `reference`.
fn train_once(
    tr: &mut Tracer,
    ops: &mut Ops,
    s: &mut Samples,
    pipeline: &ByomPipeline,
    train: &Trace,
    cost_model: &CostModel,
    reference: Option<&TrainedByom>,
) -> Option<TrainedByom> {
    let cpu0 = cpu_seconds();
    let (res, d) = tr.span("core.pipeline.train", |_| pipeline.train(train, cost_model));
    let threads = pipeline.model_config().gbdt.parallelism.max(1);
    s.train_util
        .push((cpu_seconds() - cpu0) / (d.as_secs_f64() * threads as f64));
    s.train_s.push(d.as_secs_f64());
    match res {
        Ok(t) => {
            let same = reference.is_none_or(|r| r.model().gbdt() == t.model().gbdt());
            ops.record(1, usize::from(!same), || {
                "retraining on the same window gave a different model".into()
            });
            Some(t)
        }
        Err(e) => {
            ops.record(1, 1, || format!("ByomPipeline::train failed: {e}"));
            None
        }
    }
}

/// One fig07 sweep; a repeated sweep must equal the first.
fn sweep_once(
    tr: &mut Tracer,
    ops: &mut Ops,
    s: &mut Samples,
    m: &mut BTreeMap<&'static str, f64>,
    ctx: &ExperimentContext,
    budget: usize,
) {
    let cpu0 = cpu_seconds();
    let quota_ms = &mut s.quota_ms;
    let (per_quota, d) = tr.span("harness.sweep", |tr| {
        if !tr.enabled() {
            return run_quotas_parallel(ctx, &FIG07_QUOTAS, true, budget);
        }
        // The same fan-out as `run_quotas_parallel`, with each quota timed.
        let timed: Vec<(Vec<MethodResult>, Instant, Instant)> = FIG07_QUOTAS
            .par_iter()
            .with_max_threads(budget)
            .map(|&q| {
                let start = Instant::now();
                let r = ctx.run_all_methods(q, true);
                (r, start, Instant::now())
            })
            .collect();
        timed
            .into_iter()
            .map(|(r, start, end)| {
                tr.record("harness.run_all_methods", start, end);
                quota_ms.push(ms(end - start));
                r
            })
            .collect()
    });
    s.sweep_s.push(d.as_secs_f64());
    s.sweep_util
        .push((cpu_seconds() - cpu0) / (d.as_secs_f64() * budget as f64));
    let gap = check_sweep(ops, &per_quota, ctx.test.len());
    match &s.first_sweep {
        None => {
            m.insert("solver.oracle_gap_pp", gap);
            s.first_sweep = Some(per_quota);
        }
        Some(first) => ops.record(0, usize::from(*first != per_quota), || {
            "a repeated sweep of the same context gave different results".into()
        }),
    }
}

/// The degradation ladder and the no-fallback ablation under the same
/// seeded fault plan, at the replay quota on the sweep context.
fn chaos(
    tr: &mut Tracer,
    ops: &mut Ops,
    m: &mut BTreeMap<&'static str, f64>,
    trained: &TrainedByom,
    ctx: &ExperimentContext,
    seed: u64,
) -> Result<(), String> {
    let sim = Simulator::new(
        SimConfig::try_from_quota_fraction(&ctx.test, REPLAY_QUOTA).map_err(|e| e.to_string())?,
        ctx.cost_model,
    );
    let plan = FaultPlan::at_intensity(seed, CHAOS_INTENSITY);
    let (ladder, d) = tr.span("chaos.ladder", |_| {
        run_ladder(trained, &sim, &ctx.test, &plan)
    });
    let (no_fallback, _) = tr.span("chaos.no_fallback", |_| {
        run_no_fallback(trained, &sim, &ctx.test, &plan)
    });
    for r in [&ladder, &no_fallback] {
        let jobs = (ctx.test.len() as u64 + r.resilience.jobs_duplicated)
            .saturating_sub(r.resilience.jobs_dropped) as usize;
        ops.replay(r, jobs, sim.config().ssd_capacity_bytes);
    }
    let rungs = &ladder.resilience.fallback_occupancy;
    for (i, name) in [
        "core.ladder.rung_occupancy.model",
        "core.ladder.rung_occupancy.hash",
        "core.ladder.rung_occupancy.heuristic",
        "core.ladder.rung_occupancy.first_fit",
    ]
    .into_iter()
    .enumerate()
    {
        m.insert(name, rungs.get(i).copied().unwrap_or(0) as f64);
    }
    m.insert(
        "chaos.admission_failures",
        ladder.resilience.admission_failures as f64,
    );
    m.insert(
        "chaos.model_blackouts",
        ladder.resilience.model_blackouts as f64,
    );
    m.insert("chaos.ladder_replay_ms", ms(d));
    Ok(())
}

/// The timed Adaptive Ranking replay of the test trace.
struct Replay<'a> {
    sim: &'a Simulator,
    test: &'a Trace,
    trained: &'a TrainedByom,
}

impl Replay<'_> {
    /// `n` counted replays. A traced run's first replay carries per-call
    /// spans and is not counted.
    fn slice(
        &self,
        tr: &mut Tracer,
        ops: &mut Ops,
        s: &mut Samples,
        m: &mut BTreeMap<&'static str, f64>,
        traced: bool,
        n: usize,
    ) {
        let target = s.rates.len() + n;
        while s.rates.len() < target {
            let detail = traced && s.first_replay.is_none();
            self.once(tr, ops, s, m, detail);
        }
    }

    /// One replay; every replay must match the first's placements exactly.
    /// A `detail` replay records per-call spans and is left out of the
    /// latency and throughput samples.
    fn once(
        &self,
        tr: &mut Tracer,
        ops: &mut Ops,
        s: &mut Samples,
        m: &mut BTreeMap<&'static str, f64>,
        detail: bool,
    ) {
        let jobs = self.test.len();
        let policy = self.trained.adaptive_ranking_policy();
        let (result, policy, d) =
            timed_replay(tr, "sim.replay", self.sim, self.test, policy, detail);
        ops.replay(&result, jobs, self.sim.config().ssd_capacity_bytes);
        let key = (placement_digest(&result), result.tco_savings_percent());
        match s.first_replay {
            None => {
                s.first_replay = Some(key);
                m.insert("core.ranking.tco_savings_pct", key.1);
                m.insert("sim.ssd_scheduled", result.jobs_scheduled_to_ssd() as f64);
                m.insert("sim.spilled", result.jobs_spilled() as f64);
                m.insert(
                    "sim.spill_ratio",
                    result.jobs_spilled() as f64 / result.jobs_scheduled_to_ssd().max(1) as f64,
                );
                let act = policy.inner.adaptation_trace();
                m.insert("core.adaptive.act_updates", act.len() as f64);
                let acts: Vec<f64> = act.iter().map(|&(_, a, _)| a as f64).collect();
                let spills: Vec<f64> = act.iter().map(|&(_, _, s)| s).collect();
                m.insert("core.adaptive.act_mean", mean(&acts));
                m.insert("core.adaptive.spill_pct_mean", mean(&spills));
            }
            Some(f) if f.0 != key.0 || f.1.to_bits() != key.1.to_bits() => {
                ops.record(0, jobs, || {
                    "a replay differs from the first replay of the seed".into()
                });
            }
            Some(_) => {}
        }
        if detail {
            s.detailed_ms = Some(ms(d));
            return;
        }
        let policy_ns = policy.policy_ns();
        let mut place_ns = policy.place_ns;
        place_ns.sort_unstable();
        s.placements += place_ns.len();
        s.p50_us.push(percentile(&place_ns, 0.50) / 1e3);
        s.p90_us.push(percentile(&place_ns, 0.90) / 1e3);
        s.p99_us.push(percentile(&place_ns, 0.99) / 1e3);
        s.rates.push(jobs as f64 / d.as_secs_f64());
        s.replay_ms.push(ms(d));
        s.policy_ms.push(policy_ns as f64 / 1e6);
        s.self_ns
            .push((d.as_nanos() as f64 - policy_ns as f64) / jobs as f64);
    }
}

/// Per quota: one ML-baseline training, two oracle solves and the
/// placements of seven replays (failed if a method reports non-finite
/// savings). Oracle TCO must match FirstFit, a feasible whole-job placement,
/// within the slack. The methods that spill place jobs partly on SSD and
/// can pass the whole-job greedy oracle, so their margin over it is
/// reported (as the largest gap) rather than checked. Returns that gap.
fn check_sweep(ops: &mut Ops, per_quota: &[Vec<MethodResult>], jobs: usize) -> f64 {
    ops.record(
        0,
        usize::from(per_quota.len() != FIG07_QUOTAS.len()),
        || {
            format!(
                "sweep returned {} quotas, expected {}",
                per_quota.len(),
                FIG07_QUOTAS.len()
            )
        },
    );
    let mut gap = f64::NEG_INFINITY;
    for (q, results) in FIG07_QUOTAS.iter().zip(per_quota) {
        let complete = results.len() == 7;
        ops.record(1, usize::from(!complete), || {
            format!("quota {q}: {} methods, expected 7", results.len())
        });
        let oracle = results.last().map_or(f64::NAN, |r| r.tco_savings_percent);
        let first_fit = results.first().map_or(f64::NAN, |r| r.tco_savings_percent);
        let bounded = complete && first_fit <= oracle + ORACLE_SLACK_PP;
        ops.record(2, usize::from(!bounded), || {
            format!("quota {q}: Oracle TCO {oracle:.3}% is below FirstFit {first_fit:.3}%")
        });
        for r in results.iter().take(5) {
            gap = gap.max(r.tco_savings_percent - oracle);
        }
        let non_finite = results
            .iter()
            .filter(|r| !(r.tco_savings_percent.is_finite() && r.tcio_savings_percent.is_finite()))
            .count();
        ops.record(7 * jobs, non_finite * jobs, || {
            format!("quota {q}: {non_finite} methods reported non-finite savings")
        });
    }
    gap
}

/// What the layer probes of a traced run need.
struct Probe<'a> {
    w: &'a Workload,
    budget: usize,
    cost_model: CostModel,
    train: &'a Trace,
    test: &'a Trace,
    sim: &'a Simulator,
    trained: &'a TrainedByom,
    pipeline: &'a ByomPipeline,
    ctx: &'a ExperimentContext,
}

/// Time each layer on its own, from outside, for the traced run.
fn probe_layers(tr: &mut Tracer, ops: &mut Ops, m: &mut BTreeMap<&'static str, f64>, p: &Probe) {
    // Training, decomposed the way `ByomPipeline::train` composes it. The
    // result must be bit-identical to the pipeline's model.
    let config = p.pipeline.model_config();
    let params = GbdtParams {
        num_classes: config.num_categories,
        ..config.gbdt
    };
    tr.span("probe.train_decomposed", |tr| {
        byom_exec::install(p.budget, || {
            let (costs, _) = tr.span("cost.cost_trace", |_| p.cost_model.cost_trace(p.train));
            let (labeler, d) = tr.span("core.labels.fit", |_| {
                CategoryLabeler::fit(&costs, NUM_CATEGORIES)
            });
            m.insert("core.labels.fit_ms", ms(d));
            let (model, d) = tr.span("core.model.train", |tr| {
                let (rows, _) = tr.span("trace.encode", |_| {
                    p.train
                        .iter()
                        .map(|j| config.encoder.encode(&j.features))
                        .collect::<Vec<_>>()
                });
                let (labels, _) = tr.span("core.labels.label_all", |_| labeler.label_all(&costs));
                // `CategoryModel::train` holds out a validation split for
                // early stopping only when `valid_fraction > 0`.
                let (data, _) = tr.span("gbdt.dataset", |_| {
                    Dataset::from_rows(rows, labels).map(|data| {
                        if config.valid_fraction > 0.0 && data.len() >= 20 {
                            let mut rng = rand::rngs::StdRng::seed_from_u64(params.seed);
                            let (fit, valid) = data.split(&mut rng, config.valid_fraction);
                            (fit, Some(valid))
                        } else {
                            (data, None)
                        }
                    })
                });
                let (fit, valid) = data.map_err(|e| e.to_string())?;
                m.insert("gbdt.rows", fit.len() as f64);
                let (model, d) = tr.span("gbdt.train", |_| {
                    GradientBoostedTrees::train(&params, &fit, valid.as_ref())
                });
                m.insert("gbdt.train_ms", ms(d));
                // Binning on its own (the engine repeats it inside train).
                let (_, d) = tr.span("gbdt.bin", |_| {
                    let mapper = BinMapper::fit(&fit, params.max_bins);
                    black_box(mapper.bin_dataset(&fit))
                });
                m.insert("gbdt.bin_ms", ms(d));
                model.map_err(|e| e.to_string())
            });
            m.insert("core.model.train_ms", ms(d));
            let same = model.as_ref().is_ok_and(|g| g == p.trained.model().gbdt());
            ops.record(1, usize::from(!same), || match &model {
                Ok(_) => "decomposed training differs from ByomPipeline::train".into(),
                Err(e) => format!("decomposed training failed: {e}"),
            });
        })
    });

    // Inference on the test trace: encoding, the category model, and the
    // checked tree walk on rows that are already encoded.
    let n = p.test.len();
    let model = p.trained.model();
    let (rows, d) = tr.span("trace.encode", |_| {
        p.test
            .iter()
            .map(|j| model.encoder().encode(&j.features))
            .collect::<Vec<_>>()
    });
    m.insert("trace.encode_ns_per_job", ns_per(d, n));
    let (cats, d) = tr.span("core.model.predict", |_| {
        p.test
            .iter()
            .map(|j| model.predict_category(&j.features))
            .collect::<Vec<_>>()
    });
    m.insert("core.model.predict_ns_per_job", ns_per(d, n));
    let gbdt = model.gbdt();
    let (checked, d) = tr.span("gbdt.predict", |_| {
        rows.iter().map(|r| gbdt.try_predict(r)).collect::<Vec<_>>()
    });
    m.insert("gbdt.predict_ns_per_row", ns_per(d, n));
    let wrong = checked
        .iter()
        .zip(&cats)
        .filter(|(r, c)| !matches!(r, Ok(x) if x == *c))
        .count();
    ops.record(n, wrong, || {
        format!("{wrong} checked tree-walk predictions disagree with predict_category")
    });

    // The adaptive selector isolated behind the hash categorizer, and the
    // simulator core under FirstFit, on the same test trace and quota.
    let capacity = p.sim.config().ssd_capacity_bytes;
    let (r, hash, _) = timed_replay(
        tr,
        "probe.hash_replay",
        p.sim,
        p.test,
        p.trained.adaptive_hash_policy(),
        false,
    );
    ops.replay(&r, n, capacity);
    m.insert(
        "core.adaptive.place_ns_per_job",
        hash.place_ns.iter().sum::<u64>() as f64 / n as f64,
    );
    let (r, _, d) = timed_replay(
        tr,
        "probe.firstfit_replay",
        p.sim,
        p.test,
        FirstFit::new(),
        false,
    );
    ops.replay(&r, n, capacity);
    m.insert("sim.firstfit_replay_ms", ms(d));

    // The sweep's own layers at the replay quota, on the sweep context.
    let ctx = p.ctx;
    let ctx_sim = ctx.simulator(REPLAY_QUOTA);
    let ctx_cap = ctx_sim.config().ssd_capacity_bytes;
    let ctx_n = ctx.test.len();
    let ml_config = LifetimeModelConfig {
        gbdt: GbdtParams {
            num_classes: 8,
            num_trees: ctx.params.gbdt_trees.min(40),
            ..GbdtParams::default()
        },
        ..LifetimeModelConfig::default()
    };
    let (ml, d) = tr.span("policies.ml_baseline.train", |_| {
        byom_exec::install(p.budget, || {
            LifetimeMlBaseline::train(ml_config, &ctx.train)
        })
    });
    m.insert("policies.ml_baseline.train_ms", ms(d));
    ops.record(1, usize::from(ml.is_err()), || {
        "ML baseline training failed".into()
    });
    if let Ok(ml) = ml {
        let (r, timed, _) = timed_replay(
            tr,
            "probe.ml_baseline_replay",
            &ctx_sim,
            &ctx.test,
            ml,
            false,
        );
        ops.replay(&r, ctx_n, ctx_cap);
        m.insert(
            "policies.ml_baseline.place_ns_per_job",
            timed.place_ns.iter().sum::<u64>() as f64 / ctx_n as f64,
        );
    }
    let (r, _, d) = timed_replay(
        tr,
        "probe.heuristic_replay",
        &ctx_sim,
        &ctx.test,
        CategoryHeuristic::default(),
        false,
    );
    ops.replay(&r, ctx_n, ctx_cap);
    m.insert("policies.heuristic.replay_ms", ms(d));
    let costs = p.cost_model.cost_trace(&ctx.test);
    for (objective, name, span) in [
        (
            OracleObjective::Tco,
            "solver.oracle_tco_ms",
            "solver.oracle_tco",
        ),
        (
            OracleObjective::Tcio,
            "solver.oracle_tcio_ms",
            "solver.oracle_tcio",
        ),
    ] {
        let (solution, d) = tr.span(span, |_| Oracle::new(objective, ctx_cap).solve(&costs));
        m.insert(name, ms(d));
        let ok = solution.on_ssd.len() == ctx_n && solution.peak_occupancy <= ctx_cap;
        ops.record(1, usize::from(!ok), || {
            format!("{span}: infeasible or incomplete solution")
        });
        if objective == OracleObjective::Tco {
            m.insert("solver.selected_jobs", solution.num_on_ssd() as f64);
        }
    }

    // The harness preparing a context of the sweep context's size on its
    // own: it generates (cached process-wide) and trains a fresh model.
    let (_, d) = tr.span("harness.prepare", |_| {
        black_box(ExperimentContext::prepare(p.w.spec.clone(), ctx.params))
    });
    m.insert("harness.prepare_ms", ms(d));
}
