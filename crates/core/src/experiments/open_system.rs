//! The open-system ρ sweep: ABG vs A-Greedy under sustained Poisson
//! arrivals through DEQ.
//!
//! The paper's Figure-6 sweep is closed (a fixed set runs to drain);
//! this experiment asks the open-system question instead: with jobs
//! arriving indefinitely at offered load ρ, what steady-state mean
//! response time and slowdown does each task scheduler deliver, and
//! where does the system stop being stable? Offered load is pinned by
//! solving the Poisson mean gap from the expected job work,
//! ρ = E\[T₁\] / (gap · P) (see
//! [`abg_workload::mean_gap_for_utilization`]); both schedulers face
//! the *same* arrival sequence and job population at every ρ.

use super::{parallel_map, task_seed};
use abg_alloc::DynamicEquiPartition;
use abg_control::{AControl, AGreedy, GroupPolicy, RequestCalculator};
use abg_dag::ExplicitDag;
use abg_queue::{
    run_open_hierarchical, run_open_system, HierOpenConfig, OpenConfig, OpenOutcome,
    SaturationConfig, ShardRouting,
};
use abg_sched::{DagExecutor, JobExecutor, OwnedBGreedyExecutor, PipelinedExecutor};
use abg_workload::{
    expected_work, expected_work_of, mean_gap_for_utilization, mixed_factor_job, ArrivalProcess,
    WorkflowKind, WorkflowTemplate,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which controller drives every arriving job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scheduler {
    Abg,
    AGreedy,
}

/// The job population an open-system sweep releases.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OpenWorkload {
    /// The paper's mixed-factor fork-join population (unit tasks):
    /// every arrival samples a fresh phase structure with parallel
    /// width uniform in `[2, max_factor]`.
    MixedFactor,
    /// Weighted workflow arrivals: every arrival draws a fresh
    /// instance of the given [`WorkflowKind`] at the given scale, with
    /// stage weights sampled from the run's RNG stream. The structure is
    /// built once per point; a drained executor is recycled by redrawing
    /// its dag's weights in place, the same draws a fresh instance would
    /// take.
    Workflow {
        /// The workflow family to generate.
        kind: WorkflowKind,
        /// Fan-out of the family's widest stage.
        scale: u32,
    },
    /// Trace replay: every arrival executes the *same* dag (typically
    /// loaded from a dag file). The dag is shared by reference and
    /// completed executors are recycled via `try_reset`, so a point
    /// costs no per-arrival dag builds.
    Trace(
        /// The dag every arrival runs.
        Arc<ExplicitDag>,
    ),
}

/// Configuration of the open-system ρ sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpenSystemConfig {
    /// Offered utilizations to sweep (values ≥ 1 are expected to be
    /// reported unstable, not simulated to completion).
    pub rhos: Vec<f64>,
    /// Machine size `P`.
    pub processors: u32,
    /// Quantum length `L` in steps.
    pub quantum_len: u64,
    /// Phase pairs per arriving job.
    pub pairs: u64,
    /// Largest parallel width in the mixed-factor job population.
    pub max_factor: u64,
    /// The job population arrivals are drawn from. The presets use
    /// [`OpenWorkload::MixedFactor`], which reproduces the historical
    /// sweep bit-for-bit; workflow and trace workloads route the same
    /// engines over weighted dags.
    pub workload: OpenWorkload,
    /// Arrivals discarded as warmup before measurement.
    pub warmup_jobs: u64,
    /// Arrivals measured per run.
    pub measured_jobs: u64,
    /// Batches for the response-time confidence interval.
    pub batches: u32,
    /// Hard quanta budget per run.
    pub max_quanta: u64,
    /// Monte-Carlo samples for estimating `E[T₁]` of the population.
    pub work_samples: u32,
    /// Saturation-detector tuning.
    pub saturation: SaturationConfig,
    /// Processor groups under the hierarchical two-level driver. `1`
    /// (the presets' value) leaves the top level out entirely and runs
    /// the unpartitioned event-driven driver; larger counts route every
    /// point through [`abg_queue::run_open_hierarchical`] with `groups`
    /// groups under round-robin arrival routing, reallocated by
    /// `group_alloc` every `realloc_epoch` quanta.
    pub groups: u32,
    /// Top-level reallocation policy (only consulted when
    /// `groups > 1`). [`GroupPolicy::Static`] never resizes anyone: a
    /// fixed equi-partition.
    pub group_alloc: GroupPolicy,
    /// Reallocation epoch in quanta (only consulted when `groups > 1`).
    /// `u64::MAX` runs the whole point as one epoch, with no barriers.
    pub realloc_epoch: u64,
    /// Per-group capacity floor the top level must honor (only
    /// consulted when `groups > 1`).
    pub group_floor: u32,
    /// ABG convergence rate `r`.
    pub rate: f64,
    /// A-Greedy responsiveness `ρ`.
    pub responsiveness: f64,
    /// A-Greedy utilization threshold `δ`.
    pub utilization: f64,
    /// Experiment seed.
    pub seed: u64,
}

impl OpenSystemConfig {
    /// Full-scale sweep: ρ from 0.1 to 0.95 plus an intentionally
    /// overloaded point, on a 64-processor machine.
    pub fn paper() -> Self {
        let mut rhos: Vec<f64> = (1..=9).map(|i| i as f64 * 0.1).collect();
        rhos.push(0.95);
        rhos.push(1.2); // must be flagged unstable, not simulated forever
        Self {
            rhos,
            processors: 64,
            quantum_len: 100,
            pairs: 3,
            max_factor: 32,
            workload: OpenWorkload::MixedFactor,
            warmup_jobs: 500,
            measured_jobs: 2000,
            batches: 20,
            max_quanta: 20_000_000,
            work_samples: 4096,
            saturation: SaturationConfig::default(),
            groups: 1,
            group_alloc: GroupPolicy::Static,
            realloc_epoch: 50,
            group_floor: 1,
            rate: 0.2,
            responsiveness: 2.0,
            utilization: 0.8,
            seed: 0x09E2,
        }
    }

    /// A scaled-down smoke sweep for tests and CI: four ρ points (one
    /// overloaded) at a size that finishes in well under a second.
    pub fn smoke() -> Self {
        Self {
            rhos: vec![0.2, 0.5, 0.8, 1.2],
            processors: 16,
            quantum_len: 20,
            pairs: 2,
            max_factor: 8,
            workload: OpenWorkload::MixedFactor,
            warmup_jobs: 40,
            measured_jobs: 160,
            batches: 8,
            max_quanta: 500_000,
            work_samples: 512,
            saturation: SaturationConfig::default(),
            groups: 1,
            group_alloc: GroupPolicy::Static,
            realloc_epoch: 50,
            group_floor: 1,
            rate: 0.2,
            responsiveness: 2.0,
            utilization: 0.8,
            seed: 0x09E2,
        }
    }

    /// The per-point aggregate open-system configuration (the arrival
    /// gap and seed vary per point but play no part in config
    /// validity, so validation uses placeholders).
    fn open_config(&self, mean_gap: f64, seed: u64) -> OpenConfig {
        OpenConfig {
            processors: self.processors,
            quantum_len: self.quantum_len,
            arrivals: ArrivalProcess::Poisson { mean_gap },
            warmup_jobs: self.warmup_jobs,
            measured_jobs: self.measured_jobs,
            batches: self.batches,
            max_quanta: self.max_quanta,
            saturation: self.saturation,
            seed,
        }
    }

    /// The per-point hierarchical configuration.
    fn hier_config(&self, open: OpenConfig) -> HierOpenConfig {
        HierOpenConfig {
            open,
            groups: self.groups,
            routing: ShardRouting::RoundRobin,
            realloc_epoch: self.realloc_epoch,
            group_floor: self.group_floor,
        }
    }

    /// Validates the per-point engine configuration this sweep would
    /// run — the hierarchical [`HierOpenConfig`] when `groups != 1`,
    /// the plain [`OpenConfig`] otherwise — so front ends can reject
    /// an inconsistent measurement setup (a bad group count, a zero
    /// reallocation epoch, an ungrantable floor) with a typed error up
    /// front instead of panicking mid-sweep.
    pub fn validate(&self) -> Result<(), abg_queue::ConfigError> {
        let open = self.open_config(1.0, self.seed);
        if self.groups != 1 {
            return self.hier_config(open).validate();
        }
        open.validate()
    }
}

/// One scheduler's steady-state measurements at one ρ point. Unstable
/// points report `stable == false` with the statistics fields `NaN`
/// (the diagnostics that exist either way — quanta, arrivals — are
/// always filled in).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedulerOpenPoint {
    /// Whether the run reached its measurement target.
    pub stable: bool,
    /// Mean response time in steps (`NaN` when unstable).
    pub mean_response: f64,
    /// ~95% batch-means half-width of the mean (`NaN` when unstable).
    pub response_half_width: f64,
    /// Median slowdown (`NaN` when unstable).
    pub slowdown_p50: f64,
    /// 95th-percentile slowdown (`NaN` when unstable).
    pub slowdown_p95: f64,
    /// 99th-percentile slowdown (`NaN` when unstable).
    pub slowdown_p99: f64,
    /// Time-average in-system job count (`NaN` when unstable).
    pub mean_jobs_in_system: f64,
    /// Served utilization: completed work over `P · horizon` (`NaN`
    /// when unstable).
    pub measured_utilization: f64,
    /// Quanta the run executed (before aborting, when unstable).
    pub quanta: u64,
    /// Arrivals admitted.
    pub arrivals: u64,
}

impl SchedulerOpenPoint {
    fn from_outcome(outcome: &OpenOutcome) -> Self {
        match outcome {
            OpenOutcome::Steady(s) => Self {
                stable: true,
                mean_response: s.response.mean,
                response_half_width: s.response.half_width,
                slowdown_p50: s.slowdown.p50,
                slowdown_p95: s.slowdown.p95,
                slowdown_p99: s.slowdown.p99,
                mean_jobs_in_system: s.mean_jobs_in_system,
                measured_utilization: s.measured_utilization,
                quanta: s.quanta,
                arrivals: s.arrivals,
            },
            OpenOutcome::Unstable(u) => Self {
                stable: false,
                mean_response: f64::NAN,
                response_half_width: f64::NAN,
                slowdown_p50: f64::NAN,
                slowdown_p95: f64::NAN,
                slowdown_p99: f64::NAN,
                mean_jobs_in_system: f64::NAN,
                measured_utilization: f64::NAN,
                quanta: u.quanta,
                arrivals: u.arrivals,
            },
        }
    }
}

/// One ρ point of the sweep: both schedulers against the same arrival
/// sequence and job population.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpenSystemRow {
    /// Offered utilization.
    pub rho: f64,
    /// Poisson mean inter-arrival gap solved for this ρ.
    pub mean_gap: f64,
    /// Estimated `E[T₁]` of the job population (steps).
    pub expected_work: f64,
    /// ABG's measurements.
    pub abg: SchedulerOpenPoint,
    /// A-Greedy's measurements.
    pub agreedy: SchedulerOpenPoint,
}

fn run_point(cfg: &OpenSystemConfig, mean_gap: f64, index: u64, which: Scheduler) -> OpenOutcome {
    match &cfg.workload {
        OpenWorkload::MixedFactor => {
            run_point_with(cfg, mean_gap, index, which, mixed_factor_factory(cfg))
        }
        // One structure per point; arrivals differ only in their weights.
        OpenWorkload::Workflow { kind, scale } => {
            let template = kind.template(*scale);
            run_point_with(cfg, mean_gap, index, which, workflow_factory(&template))
        }
        // Trace replay: one shared dag, so a completed executor rewinds
        // in place instead of rebuilding its frontier state.
        OpenWorkload::Trace(dag) => {
            let dag = Arc::clone(dag);
            run_point_with(
                cfg,
                mean_gap,
                index,
                which,
                move |_rng: &mut StdRng,
                      recycled: Option<Box<dyn JobExecutor + Send>>|
                      -> Box<dyn JobExecutor + Send> {
                    if let Some(mut ex) = recycled {
                        if ex.try_reset() {
                            return ex;
                        }
                    }
                    Box::new(DagExecutor::<_, abg_sched::BreadthFirstQueue>::new(
                        Arc::clone(&dag),
                    ))
                },
            )
        }
    }
}

/// Executor factory of the mixed-factor population. Jobs here are
/// heterogeneous (each arrival samples a fresh phase structure), so
/// recycled executors are dropped rather than reset — the sweep
/// fingerprints stay pinned to the fresh-build behaviour.
fn mixed_factor_factory(
    cfg: &OpenSystemConfig,
) -> impl Fn(&mut StdRng, Option<Box<dyn JobExecutor + Send>>) -> Box<dyn JobExecutor + Send> + Sync
{
    let (max_factor, quantum_len, pairs) = (cfg.max_factor, cfg.quantum_len, cfg.pairs);
    move |rng, _recycled| {
        Box::new(PipelinedExecutor::new(mixed_factor_job(
            max_factor,
            quantum_len,
            pairs,
            rng,
        )))
    }
}

/// Controller factory of one scheduler's runs.
fn calculator_factory(
    cfg: &OpenSystemConfig,
    which: Scheduler,
) -> impl Fn() -> Box<dyn RequestCalculator + Send> + Sync {
    let (rate, rho, delta) = (cfg.rate, cfg.responsiveness, cfg.utilization);
    move || -> Box<dyn RequestCalculator + Send> {
        match which {
            Scheduler::Abg => Box::new(AControl::new(rate)),
            Scheduler::AGreedy => Box::new(AGreedy::new(rho, delta)),
        }
    }
}

/// Executor factory of workflow arrivals drawn from `template`: a fresh
/// arrival instantiates it, and a recycled executor redraws its dag's
/// weights in place — the same draws, in the same id order — then
/// rewinds onto them, so a run builds one executor per concurrently
/// live job rather than one per arrival.
pub(crate) fn workflow_factory(
    template: &WorkflowTemplate,
) -> impl Fn(&mut StdRng, Option<Box<OwnedBGreedyExecutor>>) -> Box<OwnedBGreedyExecutor> + Sync + '_
{
    move |rng, recycled| match recycled {
        Some(mut ex) => {
            ex.reset_with(|dag| template.redraw(dag, rng));
            ex
        }
        None => Box::new(OwnedBGreedyExecutor::new(template.instantiate(rng))),
    }
}

/// Runs one (ρ, scheduler) point through whichever engine the config
/// selects, with `make_executor` supplying an executor per arrival.
fn run_point_with<X, E>(
    cfg: &OpenSystemConfig,
    mean_gap: f64,
    index: u64,
    which: Scheduler,
    make_executor: E,
) -> OpenOutcome
where
    X: JobExecutor + Send,
    E: Fn(&mut StdRng, Option<X>) -> X + Sync,
{
    // Per-ρ seed shared by BOTH schedulers: identical rng, identical
    // arrival times, identical job structures — a paired comparison.
    let open = cfg.open_config(mean_gap, task_seed(cfg.seed, index, 1));
    let make_calculator = calculator_factory(cfg, which);
    // `groups > 1` routes through the hierarchical two-level driver,
    // whose group pool honors `ABG_THREADS` like the sweep's own
    // `parallel_map` (the outcome is thread-count invariant either
    // way); `groups = 1` runs the unpartitioned driver.
    if cfg.groups > 1 {
        run_open_hierarchical(
            &cfg.hier_config(open),
            DynamicEquiPartition::new,
            make_executor,
            make_calculator,
            cfg.group_alloc.build(),
        )
    } else {
        run_open_system(
            &open,
            DynamicEquiPartition::new(cfg.processors),
            make_executor,
            make_calculator,
        )
    }
}

/// Estimates `E[T₁]` of the configured job population — Monte-Carlo
/// sampling for the generative workloads (deterministic in the config
/// seed), exact for trace replay (every arrival is the same dag).
pub fn population_expected_work(cfg: &OpenSystemConfig) -> f64 {
    let mut rng = StdRng::seed_from_u64(task_seed(cfg.seed, u64::MAX, 0));
    match &cfg.workload {
        OpenWorkload::MixedFactor => expected_work(cfg.work_samples, &mut rng, |rng| {
            mixed_factor_job(cfg.max_factor, cfg.quantum_len, cfg.pairs, rng)
        }),
        OpenWorkload::Workflow { kind, scale } => {
            let template = kind.template(*scale);
            expected_work_of(cfg.work_samples, &mut rng, |rng| {
                template.instantiate(rng).work() as f64
            })
        }
        OpenWorkload::Trace(dag) => dag.work() as f64,
    }
}

/// Runs the open-system sweep; one [`OpenSystemRow`] per configured ρ.
///
/// # Panics
///
/// Panics if the config has no ρ values, an inconsistent measurement
/// setup, or a ρ the engine cannot simulate, with the message of the
/// [`abg_queue::ConfigError`] that [`try_open_system_sweep`] returns.
pub fn open_system_sweep(cfg: &OpenSystemConfig) -> Vec<OpenSystemRow> {
    try_open_system_sweep(cfg).unwrap_or_else(|err| panic!("{err}"))
}

/// [`open_system_sweep`], reporting an unusable configuration as a
/// typed [`abg_queue::ConfigError`] before any simulation starts: the
/// measurement setup first ([`OpenSystemConfig::validate`]), then, once
/// the population's expected work is known, every ρ's arrival process
/// (a mean gap that is not finite and positive, or too long for the
/// run's arrivals to fit in `u64` steps).
///
/// # Panics
///
/// Panics if the config has no ρ values, or a ρ that is not finite and
/// positive (see [`mean_gap_for_utilization`]).
pub fn try_open_system_sweep(
    cfg: &OpenSystemConfig,
) -> Result<Vec<OpenSystemRow>, abg_queue::ConfigError> {
    assert!(!cfg.rhos.is_empty(), "sweep needs at least one rho");
    cfg.validate()?;
    let work = population_expected_work(cfg);
    for &rho in &cfg.rhos {
        let gap = mean_gap_for_utilization(rho, cfg.processors, work);
        cfg.open_config(gap, cfg.seed).validate()?;
    }
    let units: Vec<(u64, Scheduler)> = (0..cfg.rhos.len() as u64)
        .flat_map(|i| [(i, Scheduler::Abg), (i, Scheduler::AGreedy)])
        .collect();
    let outcomes = parallel_map(units, |&(index, which)| {
        let rho = cfg.rhos[index as usize];
        let gap = mean_gap_for_utilization(rho, cfg.processors, work);
        SchedulerOpenPoint::from_outcome(&run_point(cfg, gap, index, which))
    });
    Ok(cfg
        .rhos
        .iter()
        .enumerate()
        .map(|(i, &rho)| OpenSystemRow {
            rho,
            mean_gap: mean_gap_for_utilization(rho, cfg.processors, work),
            expected_work: work,
            abg: outcomes[2 * i],
            agreedy: outcomes[2 * i + 1],
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::open_fingerprint;
    use abg_queue::{run_open_system_probed, ReferenceOpenDriver};
    use abg_sched::QuantumStats;
    use abg_sim::TraceProbe;

    /// The sweep's rows with every (point, scheduler) run by `run`
    /// instead of the sweep's own engines, seeded as the sweep seeds
    /// them.
    fn rows_with(
        cfg: &OpenSystemConfig,
        run: impl Fn(&OpenConfig, Scheduler) -> OpenOutcome,
    ) -> Vec<OpenSystemRow> {
        let work = population_expected_work(cfg);
        (0..cfg.rhos.len())
            .map(|i| {
                let rho = cfg.rhos[i];
                let gap = mean_gap_for_utilization(rho, cfg.processors, work);
                let open = cfg.open_config(gap, task_seed(cfg.seed, i as u64, 1));
                OpenSystemRow {
                    rho,
                    mean_gap: gap,
                    expected_work: work,
                    abg: SchedulerOpenPoint::from_outcome(&run(&open, Scheduler::Abg)),
                    agreedy: SchedulerOpenPoint::from_outcome(&run(&open, Scheduler::AGreedy)),
                }
            })
            .collect()
    }

    /// Checks a G = 1 sweep against the literal oracle, which steps
    /// every live job every quantum: equal fingerprints, and equal
    /// per-quantum traces (availabilities included) for every job.
    fn assert_oracle_agrees<X, F>(cfg: &OpenSystemConfig, factory: impl Fn() -> F)
    where
        X: JobExecutor + Send,
        F: Fn(&mut StdRng, Option<X>) -> X,
    {
        let processors = cfg.processors;
        let oracle = rows_with(cfg, |open, which| {
            let probe = TraceProbe::new().retaining().with_availability();
            let (oracle, oracle_probe) = ReferenceOpenDriver::run_probed(
                open,
                DynamicEquiPartition::new(processors),
                factory(),
                calculator_factory(cfg, which),
                probe.clone(),
            );
            let (event, event_probe) = run_open_system_probed(
                open,
                DynamicEquiPartition::new(processors),
                factory(),
                calculator_factory(cfg, which),
                probe,
            );
            assert_eq!(
                oracle_probe.completed_traces(),
                event_probe.completed_traces(),
                "rho gap {:?}: traces diverged",
                open.arrivals
            );
            assert_eq!(
                open_fingerprint_of(&oracle),
                open_fingerprint_of(&event),
                "traced outcomes diverged"
            );
            oracle
        });
        assert_eq!(
            open_fingerprint(&oracle),
            open_fingerprint(&open_system_sweep(cfg))
        );
    }

    /// Fingerprint of one outcome, NaN statistics included.
    fn open_fingerprint_of(outcome: &OpenOutcome) -> u64 {
        let point = SchedulerOpenPoint::from_outcome(outcome);
        open_fingerprint(&[OpenSystemRow {
            rho: 0.0,
            mean_gap: 0.0,
            expected_work: 0.0,
            abg: point,
            agreedy: point,
        }])
    }

    /// An executor with its idle certificate withheld.
    struct Uncertified<X>(X);

    impl<X: JobExecutor> JobExecutor for Uncertified<X> {
        fn run_quantum(&mut self, allotment: u32, steps: u64) -> QuantumStats {
            self.0.run_quantum(allotment, steps)
        }
        fn is_complete(&self) -> bool {
            self.0.is_complete()
        }
        fn total_work(&self) -> u64 {
            self.0.total_work()
        }
        fn total_span(&self) -> u64 {
            self.0.total_span()
        }
        fn completed_work(&self) -> u64 {
            self.0.completed_work()
        }
        fn elapsed_steps(&self) -> u64 {
            self.0.elapsed_steps()
        }
    }

    #[test]
    fn smoke_phased_sweep_matches_the_literal_oracle() {
        let cfg = OpenSystemConfig::smoke();
        assert_oracle_agrees(&cfg, || mixed_factor_factory(&cfg));
    }

    #[test]
    fn smoke_workflow_sweep_matches_the_literal_oracle() {
        let mut cfg = OpenSystemConfig::smoke();
        cfg.workload = OpenWorkload::Workflow {
            kind: WorkflowKind::Montage,
            scale: 8,
        };
        let template = WorkflowKind::Montage.template(8);
        assert_oracle_agrees(&cfg, || workflow_factory(&template));
    }

    #[test]
    fn workflow_recycling_builds_one_executor_per_live_job() {
        let mut cfg = OpenSystemConfig::smoke();
        cfg.workload = OpenWorkload::Workflow {
            kind: WorkflowKind::Montage,
            scale: 8,
        };
        let template = WorkflowKind::Montage.template(8);
        let factory = workflow_factory(&template);
        let gap = mean_gap_for_utilization(0.8, cfg.processors, population_expected_work(&cfg));
        /// The most jobs live at any quantum start. Every admission
        /// is live at once and precedes a quantum, so this is the peak
        /// in-system population (the detector's peak is sampled after
        /// each quantum's completions).
        #[derive(Default)]
        struct PeakLive(usize);
        impl abg_sim::Probe for PeakLive {
            fn on_quantum_start(&mut self, _now: u64, _len: u64, live: usize) {
                self.0 = self.0.max(live);
            }
        }
        let mut builds = 0u64;
        let (outcome, peak) = run_open_system_probed(
            &cfg.open_config(gap, task_seed(cfg.seed, 0, 1)),
            DynamicEquiPartition::new(cfg.processors),
            |rng: &mut StdRng, recycled: Option<Box<OwnedBGreedyExecutor>>| {
                builds += u64::from(recycled.is_none());
                factory(rng, recycled)
            },
            calculator_factory(&cfg, Scheduler::Abg),
            PeakLive::default(),
        );
        let stats = outcome.steady().expect("rho = 0.8 is stable");
        assert!(
            builds <= peak.0 as u64 + 1,
            "{builds} executors built for a peak of {} live jobs",
            peak.0
        );
        assert!(
            stats.arrivals >= 4 * builds,
            "{builds} builds for {} arrivals",
            stats.arrivals
        );
    }

    #[test]
    fn smoke_desire_sweep_matches_stepping_every_job() {
        // G = 4 under desire reallocation has no oracle driver; the
        // same engines with every idle certificate withheld must agree.
        let mut cfg = OpenSystemConfig::smoke();
        cfg.groups = 4;
        cfg.group_alloc = GroupPolicy::Desire;
        let factory = mixed_factor_factory(&cfg);
        let stepped = rows_with(&cfg, |open, which| {
            run_open_hierarchical(
                &cfg.hier_config(open.clone()),
                DynamicEquiPartition::new,
                |rng: &mut StdRng, recycled: Option<Uncertified<_>>| {
                    Uncertified(factory(rng, recycled.map(|u| u.0)))
                },
                calculator_factory(&cfg, which),
                cfg.group_alloc.build(),
            )
        });
        assert_eq!(
            open_fingerprint(&stepped),
            open_fingerprint(&open_system_sweep(&cfg))
        );
    }

    #[test]
    fn smoke_sweep_is_stable_below_one_and_unstable_above() {
        let cfg = OpenSystemConfig::smoke();
        let rows = open_system_sweep(&cfg);
        assert_eq!(rows.len(), cfg.rhos.len());
        for row in &rows {
            if row.rho < 0.9 {
                assert!(row.abg.stable, "ABG unstable at rho={}", row.rho);
                assert!(row.agreedy.stable, "A-Greedy unstable at rho={}", row.rho);
                assert!(row.abg.mean_response.is_finite());
                assert!(row.agreedy.mean_response.is_finite());
                assert!(row.abg.slowdown_p50 >= 1.0);
            }
            if row.rho >= 1.0 {
                assert!(!row.abg.stable, "ABG steady at rho={}", row.rho);
                assert!(!row.agreedy.stable, "A-Greedy steady at rho={}", row.rho);
                assert!(row.abg.mean_response.is_nan());
            }
            assert!(row.mean_gap > 0.0 && row.expected_work > 0.0);
        }
    }

    #[test]
    fn response_time_grows_with_offered_load() {
        let mut cfg = OpenSystemConfig::smoke();
        cfg.rhos = vec![0.2, 0.8];
        let rows = open_system_sweep(&cfg);
        assert!(rows[1].abg.mean_response >= rows[0].abg.mean_response);
        assert!(rows[1].abg.mean_jobs_in_system > rows[0].abg.mean_jobs_in_system);
    }

    #[test]
    fn sweep_is_deterministic() {
        // Bit-level comparison through the fingerprint: unstable rows
        // hold NaN statistics, so `==` on the rows themselves would
        // always fail (NaN != NaN) — the fingerprint folds exact bit
        // patterns instead.
        let mut cfg = OpenSystemConfig::smoke();
        cfg.rhos = vec![0.3, 1.2];
        cfg.measured_jobs = 80;
        cfg.batches = 8;
        let a = crate::experiments::open_fingerprint(&open_system_sweep(&cfg));
        let b = crate::experiments::open_fingerprint(&open_system_sweep(&cfg));
        assert_eq!(a, b);
    }

    #[test]
    fn static_partition_sweep_is_steady_and_matches_every_epoch_length() {
        // The fixed partition behind the sweep front end: groups = 4
        // under the static top level, run as one unbounded epoch, is
        // stable below saturation, flagged unstable above it, and
        // bit-identical to the same partition sliced into epochs.
        // (The overload point sits at ρ = 2 here: decimated smoke-scale
        // groups see a quarter of the arrivals each, so the queue-growth
        // trend needs a steeper ramp than the aggregate smoke sweep's
        // 1.2 to trip before the tiny measurement target drains.)
        let mut unbounded = OpenSystemConfig::smoke();
        unbounded.groups = 4;
        unbounded.group_alloc = GroupPolicy::Static;
        unbounded.realloc_epoch = u64::MAX;
        unbounded.rhos = vec![0.4, 2.0];
        let rows = open_system_sweep(&unbounded);
        assert!(rows[0].abg.stable && rows[0].agreedy.stable);
        assert!(rows[0].abg.slowdown_p50 >= 1.0);
        assert!(!rows[1].abg.stable && !rows[1].agreedy.stable);
        let mut epochs = unbounded.clone();
        epochs.realloc_epoch = 50;
        let a = crate::experiments::open_fingerprint(&rows);
        let b = crate::experiments::open_fingerprint(&open_system_sweep(&epochs));
        assert_eq!(a, b);
    }

    #[test]
    fn hierarchical_desire_sweep_is_steady_and_deterministic() {
        let mut cfg = OpenSystemConfig::smoke();
        cfg.groups = 4;
        cfg.group_alloc = GroupPolicy::Desire;
        cfg.realloc_epoch = 25;
        cfg.rhos = vec![0.4, 2.0];
        let rows = open_system_sweep(&cfg);
        assert!(rows[0].abg.stable && rows[0].agreedy.stable);
        assert!(rows[0].abg.slowdown_p50 >= 1.0);
        assert!(!rows[1].abg.stable && !rows[1].agreedy.stable);
        let a = crate::experiments::open_fingerprint(&rows);
        let b = crate::experiments::open_fingerprint(&open_system_sweep(&cfg));
        assert_eq!(a, b);
    }

    #[test]
    fn workflow_sweep_is_steady_and_deterministic() {
        let mut cfg = OpenSystemConfig::smoke();
        cfg.workload = OpenWorkload::Workflow {
            kind: WorkflowKind::MapReduce,
            scale: 4,
        };
        cfg.rhos = vec![0.4, 2.0];
        let rows = open_system_sweep(&cfg);
        assert!(rows[0].abg.stable && rows[0].agreedy.stable);
        assert!(rows[0].abg.slowdown_p50 >= 1.0);
        assert!(!rows[1].abg.stable && !rows[1].agreedy.stable);
        let a = crate::experiments::open_fingerprint(&rows);
        let b = crate::experiments::open_fingerprint(&open_system_sweep(&cfg));
        assert_eq!(a, b);
    }

    #[test]
    fn every_workflow_kind_drives_the_open_system() {
        for kind in WorkflowKind::ALL {
            let mut cfg = OpenSystemConfig::smoke();
            cfg.workload = OpenWorkload::Workflow { kind, scale: 3 };
            cfg.rhos = vec![0.4];
            cfg.warmup_jobs = 10;
            cfg.measured_jobs = 40;
            cfg.batches = 4;
            let rows = open_system_sweep(&cfg);
            assert!(rows[0].abg.stable, "{kind} unstable under ABG");
            assert!(rows[0].agreedy.stable, "{kind} unstable under A-Greedy");
            assert!(rows[0].expected_work > 0.0);
        }
    }

    #[test]
    fn workflow_sweep_runs_the_hierarchical_driver_too() {
        let mut cfg = OpenSystemConfig::smoke();
        cfg.workload = OpenWorkload::Workflow {
            kind: WorkflowKind::Epigenomics,
            scale: 3,
        };
        cfg.groups = 4;
        cfg.group_alloc = GroupPolicy::Desire;
        cfg.realloc_epoch = 25;
        cfg.rhos = vec![0.4];
        cfg.warmup_jobs = 10;
        cfg.measured_jobs = 40;
        cfg.batches = 4;
        let rows = open_system_sweep(&cfg);
        assert!(rows[0].abg.stable && rows[0].agreedy.stable);
        let a = crate::experiments::open_fingerprint(&rows);
        let b = crate::experiments::open_fingerprint(&open_system_sweep(&cfg));
        assert_eq!(a, b);
    }

    #[test]
    fn trace_workload_replays_one_dag_exactly() {
        let mut rng = StdRng::seed_from_u64(77);
        let dag = WorkflowKind::Montage.generate(4, &mut rng);
        let work = dag.work() as f64;
        let mut cfg = OpenSystemConfig::smoke();
        cfg.workload = OpenWorkload::Trace(Arc::new(dag));
        cfg.rhos = vec![0.4];
        cfg.warmup_jobs = 10;
        cfg.measured_jobs = 60;
        cfg.batches = 4;
        assert_eq!(
            population_expected_work(&cfg),
            work,
            "trace E[T1] is exact, not sampled"
        );
        let rows = open_system_sweep(&cfg);
        assert!(rows[0].abg.stable && rows[0].agreedy.stable);
        assert!(rows[0].abg.slowdown_p50 >= 1.0);
        let a = crate::experiments::open_fingerprint(&rows);
        let b = crate::experiments::open_fingerprint(&open_system_sweep(&cfg));
        assert_eq!(a, b);
    }

    #[test]
    fn mixed_factor_presets_are_the_historical_workload() {
        assert_eq!(
            OpenSystemConfig::smoke().workload,
            OpenWorkload::MixedFactor
        );
        assert_eq!(
            OpenSystemConfig::paper().workload,
            OpenWorkload::MixedFactor
        );
    }

    #[test]
    fn validate_rejects_bad_group_configs() {
        let mut cfg = OpenSystemConfig::smoke();
        cfg.groups = 0;
        assert_eq!(cfg.validate(), Err(abg_queue::ConfigError::ZeroGroups));
        cfg.groups = 4;
        cfg.realloc_epoch = 0;
        assert_eq!(cfg.validate(), Err(abg_queue::ConfigError::BadReallocEpoch));
        cfg.realloc_epoch = 50;
        cfg.group_floor = cfg.processors;
        assert!(matches!(
            cfg.validate(),
            Err(abg_queue::ConfigError::BadGroupFloor { .. })
        ));
        cfg.group_floor = 1;
        assert_eq!(cfg.validate(), Ok(()));
        // With the top level out (groups = 1) the group knobs are
        // inert and only the aggregate config is validated.
        cfg.groups = 1;
        cfg.group_floor = 0;
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn schedulers_face_the_same_offered_load() {
        let mut cfg = OpenSystemConfig::smoke();
        cfg.rhos = vec![0.4];
        let row = &open_system_sweep(&cfg)[0];
        // Paired runs: identical seed → identical arrival count.
        assert_eq!(row.abg.arrivals, row.agreedy.arrivals);
    }
}
