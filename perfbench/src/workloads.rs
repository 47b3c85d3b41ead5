//! The four workloads: their configs, one untraced pass through the
//! library's sweep entry points, and one traced pass that drives the
//! same points through `run_single_job`, `MultiJobSim`,
//! `run_open_system` and `run_open_hierarchical_with_threads` with every
//! layer object wrapped in [`Traced`].
//!
//! The traced pass rebuilds each sweep from the library's public pieces
//! in the sweep's own order, so its rows must fingerprint bit-identically
//! to the untraced rows; the benchmark checks that they do.

use crate::trace::{EpochTimed, Traced, ALLOCATOR_BUILDS, EXECUTOR_NEW, GENERATE, QUANTA};
use abg::alloc::{DynamicEquiPartition, Scripted};
use abg::bounds::{makespan_lower_bound, response_lower_bound_batched, JobSize};
use abg::control::{AControl, AGreedy, GroupPolicy, RequestCalculator};
use abg::dag::{JobStructure, PhasedJob};
use abg::experiments::{
    load_fingerprint, multiprogrammed_sweep, open_fingerprint, open_system_sweep,
    population_expected_work, single_job_sweep, sweep_fingerprint, LoadPoint,
    MultiprogrammedConfig, OpenSystemConfig, OpenSystemRow, OpenWorkload, SchedulerOpenPoint,
    SingleJobSweepConfig, SweepPoint,
};
use abg::queue::{
    run_open_hierarchical_with_threads, run_open_system, HierOpenConfig, OpenConfig, OpenOutcome,
    ShardRouting,
};
use abg::sched::{JobExecutor, OwnedBGreedyExecutor, PipelinedExecutor};
use abg::sim::{run_single_job, MultiJobSim, SingleJobConfig, SingleJobRun};
use abg::workload::{
    mean_gap_for_utilization, mixed_factor_job, paper_job, ArrivalProcess, JobSetSpec, WorkflowKind,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `fig5 --full` then `fig6 --full`: the paper's own evaluation.
    ClosedFigures,
    /// The open ρ sweep of mixed-factor phased jobs at G = 1.
    OpenPhased,
    /// The open ρ sweep of weighted Montage workflows (scale 16).
    OpenWorkflow,
    /// The open ρ sweep over 4 groups under desire reallocation.
    OpenHier,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ClosedFigures,
        Workload::OpenPhased,
        Workload::OpenWorkflow,
        Workload::OpenHier,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ClosedFigures => "closed-figures",
            Workload::OpenPhased => "open-phased",
            Workload::OpenWorkflow => "open-workflow",
            Workload::OpenHier => "open-hier",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Fingerprints of one sweep at sweep seed 0 (the presets' own seeds),
    /// recorded from the library before this benchmark existed.
    pub fn golden(self) -> &'static [u64] {
        match self {
            Workload::ClosedFigures => &[0xbd4b_009a_3e62_90c5, 0xa904_d28e_2f0e_aa19],
            Workload::OpenPhased => &[0xfe3c_9570_e266_5a64],
            Workload::OpenWorkflow => &[0x5935_96db_9846_dd90],
            Workload::OpenHier => &[0x86d0_1db9_feb4_1fb9],
        }
    }

    /// Sweeps per pass. An open sweep's work varies from seed to seed,
    /// mostly in how long the near-saturated points run and how many
    /// jobs they hold, so a pass sums several sweeps at consecutive seeds
    /// to keep that variation well inside the benchmark's bounds; one
    /// closed pass is already thousands of independent jobs.
    pub fn sweeps_per_pass(self) -> u64 {
        match self {
            Workload::ClosedFigures => 1,
            Workload::OpenPhased => 8,
            Workload::OpenWorkflow | Workload::OpenHier => 4,
        }
    }

    /// One pass's sweeps for run seed `seed`: sweep seeds
    /// `seed·k .. seed·k + k`, so run seed 0 starts with the presets.
    pub fn pass(self, seed: u64) -> Pass {
        let k = self.sweeps_per_pass();
        Pass(
            (0..k)
                .map(|j| self.config(seed.wrapping_mul(k).wrapping_add(j)))
                .collect(),
        )
    }

    /// One sweep's configs. Seed 0 keeps each preset's seed; any other
    /// seed is mixed into it.
    pub fn config(self, seed: u64) -> Config {
        let mix = |preset: u64| {
            if seed == 0 {
                preset
            } else {
                task_seed(preset, seed, 0)
            }
        };
        let open = |workload: OpenWorkload, groups: u32| {
            let paper = OpenSystemConfig::paper();
            OpenSystemConfig {
                workload,
                groups,
                group_alloc: if groups > 1 {
                    GroupPolicy::Desire
                } else {
                    paper.group_alloc
                },
                seed: mix(paper.seed),
                ..paper
            }
        };
        match self {
            Workload::ClosedFigures => {
                let (fig5, fig6) = (
                    SingleJobSweepConfig::paper(),
                    MultiprogrammedConfig::paper(),
                );
                Config::Closed {
                    fig5: SingleJobSweepConfig {
                        seed: mix(fig5.seed),
                        ..fig5
                    },
                    fig6: MultiprogrammedConfig {
                        seed: mix(fig6.seed),
                        ..fig6
                    },
                }
            }
            Workload::OpenPhased => Config::Open(open(OpenWorkload::MixedFactor, 1)),
            Workload::OpenWorkflow => Config::Open(open(
                OpenWorkload::Workflow {
                    kind: WorkflowKind::Montage,
                    scale: 16,
                },
                1,
            )),
            Workload::OpenHier => Config::Open(open(OpenWorkload::MixedFactor, 4)),
        }
    }
}

/// Copy of the library's per-task seed mixing (crate-private there),
/// which the traced passes need to rebuild each point's RNG.
pub fn task_seed(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One sweep's configs.
pub enum Config {
    Closed {
        fig5: SingleJobSweepConfig,
        fig6: MultiprogrammedConfig,
    },
    Open(OpenSystemConfig),
}

/// The sweeps of one pass.
pub struct Pass(pub Vec<Config>);

/// What one sweep produced.
pub enum Outputs {
    Closed(Vec<SweepPoint>, Vec<LoadPoint>),
    Open(Vec<OpenSystemRow>),
}

impl Outputs {
    pub fn fingerprints(&self) -> Vec<u64> {
        match self {
            Outputs::Closed(fig5, fig6) => vec![sweep_fingerprint(fig5), load_fingerprint(fig6)],
            Outputs::Open(rows) => vec![open_fingerprint(rows)],
        }
    }

    /// Simulated jobs: two runs per fig5 job, two per fig6 set member,
    /// and every admitted arrival of an open sweep.
    pub fn jobs(&self, cfg: &Config) -> u64 {
        match (self, cfg) {
            (Outputs::Closed(_, fig6), Config::Closed { fig5, fig6: c6 }) => {
                let fig5_jobs = fig5.factors.len() as u64 * u64::from(fig5.jobs_per_factor);
                let fig6_jobs: f64 = fig6
                    .iter()
                    .map(|p| p.mean_jobs * f64::from(c6.sets_per_load))
                    .sum();
                2 * fig5_jobs + 2 * fig6_jobs.round() as u64
            }
            (Outputs::Open(rows), _) => rows
                .iter()
                .map(|r| r.abg.arrivals + r.agreedy.arrivals)
                .sum(),
            _ => unreachable!("outputs always match their config"),
        }
    }

    /// Properties that hold at every seed: no run beats its lower bound,
    /// the overloaded ρ is flagged unstable and light load is stable.
    pub fn properties_hold(&self) -> bool {
        const SLACK: f64 = 1.0 - 1e-9;
        match self {
            Outputs::Closed(fig5, fig6) => {
                fig5.iter()
                    .all(|p| p.abg_time_norm >= SLACK && p.agreedy_time_norm >= SLACK)
                    && fig6
                        .iter()
                        .all(|p| p.abg_makespan_norm >= SLACK && p.agreedy_makespan_norm >= SLACK)
            }
            Outputs::Open(rows) => rows.iter().all(|r| {
                let both = |stable| r.abg.stable == stable && r.agreedy.stable == stable;
                (r.rho < 1.0 || both(false)) && (r.rho > 0.5 || both(true))
            }),
        }
    }
}

/// What one pass produced, sweep by sweep.
pub struct PassOutputs(pub Vec<Outputs>);

impl PassOutputs {
    pub fn fingerprints(&self) -> Vec<u64> {
        self.0.iter().flat_map(Outputs::fingerprints).collect()
    }

    pub fn jobs(&self, pass: &Pass) -> u64 {
        self.0
            .iter()
            .zip(&pass.0)
            .map(|(out, cfg)| out.jobs(cfg))
            .sum()
    }

    pub fn properties_hold(&self) -> bool {
        self.0.iter().all(Outputs::properties_hold)
    }
}

/// The set-up a pass needs before it can run: its configs and, for the
/// open sweeps, the `E[T1]` estimate that pins each ρ's arrival gap.
pub fn set_up(workload: Workload, seed: u64) -> Pass {
    let pass = workload.pass(seed);
    for cfg in &pass.0 {
        if let Config::Open(open) = cfg {
            std::hint::black_box(population_expected_work(open));
        }
    }
    pass
}

/// One untraced pass through the library's sweep entry points.
pub fn run_pass(pass: &Pass) -> PassOutputs {
    PassOutputs(pass.0.iter().map(run_sweep).collect())
}

pub fn run_sweep(cfg: &Config) -> Outputs {
    match cfg {
        Config::Closed { fig5, fig6 } => {
            Outputs::Closed(single_job_sweep(fig5), multiprogrammed_sweep(fig6))
        }
        Config::Open(open) => Outputs::Open(open_system_sweep(open)),
    }
}

/// One traced pass on the calling thread (`threads` sizes only the
/// hierarchical engine's group pool). Returns the outputs and the time
/// spent estimating `E[T1]`, in seconds.
pub fn run_traced_pass(
    pass: &Pass,
    threads: usize,
    epochs_ns: &mut Vec<u64>,
) -> (PassOutputs, f64) {
    let mut expected_work_s = 0.0;
    let outputs = pass
        .0
        .iter()
        .map(|cfg| match cfg {
            Config::Closed { fig5, fig6 } => Outputs::Closed(fig5_traced(fig5), fig6_traced(fig6)),
            Config::Open(open) => {
                let start = std::time::Instant::now();
                let work = population_expected_work(open);
                expected_work_s += start.elapsed().as_secs_f64();
                Outputs::Open(open_traced(open, work, threads, epochs_ns))
            }
        })
        .collect();
    (PassOutputs(outputs), expected_work_s)
}

/// One fig5 job and its two runs (the library's private `JobPair`).
struct JobPair {
    factor: u64,
    job: PhasedJob,
    abg: SingleJobRun,
    agreedy: SingleJobRun,
}

fn fig5_traced(cfg: &SingleJobSweepConfig) -> Vec<SweepPoint> {
    assert_eq!(cfg.scale_down, 1, "the benchmark runs fig5 at paper scale");
    let sim_cfg = SingleJobConfig::new(cfg.quantum_len);
    let pairs: Vec<JobPair> = cfg
        .factors
        .iter()
        .flat_map(|&f| (0..u64::from(cfg.jobs_per_factor)).map(move |j| (f, j)))
        .map(|(factor, index)| {
            let mut rng = StdRng::seed_from_u64(task_seed(cfg.seed, factor, index));
            let job = GENERATE.sampled(|| paper_job(factor, cfg.quantum_len, cfg.pairs, &mut rng));
            let mut ex = Traced(EXECUTOR_NEW.sampled(|| PipelinedExecutor::new(&job)));
            let abg = run_single_job(
                &mut ex,
                &mut Traced(AControl::new(cfg.rate)),
                &mut Traced(Scripted::ample(cfg.processors)),
                sim_cfg,
            );
            ex.0.reset();
            let agreedy = run_single_job(
                &mut ex,
                &mut Traced(AGreedy::new(cfg.responsiveness, cfg.utilization)),
                &mut Traced(Scripted::ample(cfg.processors)),
                sim_cfg,
            );
            QUANTA.add(abg.quanta + agreedy.quanta);
            JobPair {
                factor,
                job,
                abg,
                agreedy,
            }
        })
        .collect();
    cfg.factors
        .iter()
        .map(|&factor| {
            let runs: Vec<&JobPair> = pairs.iter().filter(|p| p.factor == factor).collect();
            let n = runs.len() as f64;
            let mean = |f: &dyn Fn(&JobPair) -> f64| runs.iter().map(|p| f(p)).sum::<f64>() / n;
            SweepPoint {
                factor,
                measured_factor: mean(&|p| p.job.transition_factor(cfg.quantum_len)),
                abg_time_norm: mean(&|p| p.abg.time_over_span()),
                agreedy_time_norm: mean(&|p| p.agreedy.time_over_span()),
                abg_waste_norm: mean(&|p| p.abg.waste_over_work()),
                agreedy_waste_norm: mean(&|p| p.agreedy.waste_over_work()),
                time_ratio: mean(&|p| p.agreedy.running_time as f64 / p.abg.running_time as f64),
                waste_ratio: {
                    let agreedy: u64 = runs.iter().map(|p| p.agreedy.waste).sum();
                    let abg: u64 = runs.iter().map(|p| p.abg.waste).sum();
                    agreedy as f64 / abg.max(1) as f64
                },
            }
        })
        .collect()
}

/// One fig6 set's measurements (the library's private `SetResult`).
struct SetResult {
    load: f64,
    jobs: f64,
    abg_makespan: f64,
    agreedy_makespan: f64,
    abg_response: f64,
    agreedy_response: f64,
    makespan_star: f64,
    response_star: Option<f64>,
}

fn fig6_traced(cfg: &MultiprogrammedConfig) -> Vec<LoadPoint> {
    let results: Vec<(f64, SetResult)> = cfg
        .loads
        .iter()
        .flat_map(|&l| (0..u64::from(cfg.sets_per_load)).map(move |i| (l, i)))
        .map(|(load, index)| (load, fig6_set_traced(cfg, load, index)))
        .collect();
    cfg.loads
        .iter()
        .map(|&load| {
            let rows: Vec<&SetResult> = results
                .iter()
                .filter(|(l, _)| *l == load)
                .map(|(_, r)| r)
                .collect();
            let n = rows.len() as f64;
            let mean = |f: &dyn Fn(&SetResult) -> f64| rows.iter().map(|r| f(r)).sum::<f64>() / n;
            LoadPoint {
                load,
                measured_load: mean(&|r| r.load),
                mean_jobs: mean(&|r| r.jobs),
                abg_makespan_norm: mean(&|r| r.abg_makespan / r.makespan_star),
                agreedy_makespan_norm: mean(&|r| r.agreedy_makespan / r.makespan_star),
                abg_response_norm: mean(&|r| {
                    r.response_star.map_or(f64::NAN, |s| r.abg_response / s)
                }),
                agreedy_response_norm: mean(&|r| {
                    r.response_star.map_or(f64::NAN, |s| r.agreedy_response / s)
                }),
                makespan_ratio: mean(&|r| r.agreedy_makespan / r.abg_makespan),
                response_ratio: mean(&|r| r.agreedy_response / r.abg_response),
            }
        })
        .collect()
}

fn fig6_set_traced(cfg: &MultiprogrammedConfig, load: f64, index: u64) -> SetResult {
    let mut rng = StdRng::seed_from_u64(task_seed(cfg.seed, index, load.to_bits()));
    let spec = JobSetSpec {
        processors: cfg.processors,
        quantum_len: cfg.quantum_len,
        load,
        max_factor: cfg.max_factor,
        pairs: cfg.pairs,
        max_jobs: cfg.processors as usize,
        release: cfg.release,
    };
    let set = GENERATE.sampled(|| spec.generate(&mut rng));
    let (set_load, set_len) = (set.load(), set.len());
    let releases = set.releases;
    let jobs: Vec<Arc<PhasedJob>> = set.jobs.into_iter().map(Arc::new).collect();
    let run = |abg: bool| {
        let mut sim = MultiJobSim::new(
            Traced(DynamicEquiPartition::new(cfg.processors)),
            cfg.quantum_len,
        );
        for (job, &release) in jobs.iter().zip(&releases) {
            let calculator: Box<dyn RequestCalculator + Send> = if abg {
                Box::new(Traced(AControl::new(cfg.rate)))
            } else {
                Box::new(Traced(AGreedy::new(cfg.responsiveness, cfg.utilization)))
            };
            let executor = EXECUTOR_NEW.sampled(|| PipelinedExecutor::new(Arc::clone(job)));
            sim.add_job(Box::new(Traced(executor)), calculator, release);
        }
        let outcome = sim.run();
        QUANTA.add(outcome.quanta);
        outcome
    };
    let (abg, agreedy) = (run(true), run(false));
    let sizes: Vec<JobSize> = jobs
        .iter()
        .zip(&releases)
        .map(|(j, &r)| JobSize {
            work: j.work(),
            span: j.span(),
            release: r,
        })
        .collect();
    let batched = releases.iter().all(|&r| r == 0);
    SetResult {
        load: set_load,
        jobs: set_len as f64,
        abg_makespan: abg.makespan as f64,
        agreedy_makespan: agreedy.makespan as f64,
        abg_response: abg.mean_response_time(),
        agreedy_response: agreedy.mean_response_time(),
        makespan_star: makespan_lower_bound(&sizes, cfg.processors),
        response_star: batched.then(|| response_lower_bound_batched(&sizes, cfg.processors)),
    }
}

fn open_traced(
    cfg: &OpenSystemConfig,
    work: f64,
    threads: usize,
    epochs_ns: &mut Vec<u64>,
) -> Vec<OpenSystemRow> {
    let mut points = Vec::with_capacity(2 * cfg.rhos.len());
    for (index, &rho) in cfg.rhos.iter().enumerate() {
        let gap = mean_gap_for_utilization(rho, cfg.processors, work);
        for abg in [true, false] {
            let outcome = open_point_traced(cfg, gap, index as u64, abg, threads, epochs_ns);
            let point = scheduler_point(&outcome);
            QUANTA.add(point.quanta);
            points.push(point);
        }
    }
    cfg.rhos
        .iter()
        .enumerate()
        .map(|(i, &rho)| OpenSystemRow {
            rho,
            mean_gap: mean_gap_for_utilization(rho, cfg.processors, work),
            expected_work: work,
            abg: points[2 * i],
            agreedy: points[2 * i + 1],
        })
        .collect()
}

fn open_point_traced(
    cfg: &OpenSystemConfig,
    mean_gap: f64,
    index: u64,
    abg: bool,
    threads: usize,
    epochs_ns: &mut Vec<u64>,
) -> OpenOutcome {
    let open = OpenConfig {
        processors: cfg.processors,
        quantum_len: cfg.quantum_len,
        arrivals: ArrivalProcess::Poisson { mean_gap },
        warmup_jobs: cfg.warmup_jobs,
        measured_jobs: cfg.measured_jobs,
        batches: cfg.batches,
        max_quanta: cfg.max_quanta,
        saturation: cfg.saturation,
        seed: task_seed(cfg.seed, index, 1),
    };
    // Jobs are heterogeneous, so recycled executors are dropped, as the
    // sweep does.
    let make_executor = |rng: &mut StdRng,
                         _recycled: Option<Box<dyn JobExecutor + Send>>|
     -> Box<dyn JobExecutor + Send> {
        match &cfg.workload {
            OpenWorkload::MixedFactor => {
                let job = GENERATE
                    .sampled(|| mixed_factor_job(cfg.max_factor, cfg.quantum_len, cfg.pairs, rng));
                Box::new(Traced(EXECUTOR_NEW.sampled(|| PipelinedExecutor::new(job))))
            }
            OpenWorkload::Workflow { kind, scale } => {
                let dag = GENERATE.sampled(|| kind.generate(*scale, rng));
                Box::new(Traced(
                    EXECUTOR_NEW.sampled(|| OwnedBGreedyExecutor::new(dag)),
                ))
            }
            OpenWorkload::Trace(_) => unreachable!("benchmark workloads generate their jobs"),
        }
    };
    let (rate, rho, delta) = (cfg.rate, cfg.responsiveness, cfg.utilization);
    let make_calculator = move || -> Box<dyn RequestCalculator + Send> {
        if abg {
            Box::new(Traced(AControl::new(rate)))
        } else {
            Box::new(Traced(AGreedy::new(rho, delta)))
        }
    };
    let make_allocator = |processors: u32| {
        ALLOCATOR_BUILDS.add(1);
        Traced(DynamicEquiPartition::new(processors))
    };
    if cfg.groups == 1 {
        return run_open_system(
            &open,
            make_allocator(cfg.processors),
            make_executor,
            make_calculator,
        );
    }
    let hier = HierOpenConfig {
        open,
        groups: cfg.groups,
        routing: ShardRouting::RoundRobin,
        realloc_epoch: cfg.realloc_epoch,
        group_floor: cfg.group_floor,
    };
    run_open_hierarchical_with_threads(
        &hier,
        make_allocator,
        make_executor,
        make_calculator,
        EpochTimed {
            inner: cfg.group_alloc.build(),
            epochs_ns,
            last: None,
        },
        threads,
    )
}

/// The library's (crate-private) conversion of an outcome into a row half.
fn scheduler_point(outcome: &OpenOutcome) -> SchedulerOpenPoint {
    match outcome {
        OpenOutcome::Steady(s) => SchedulerOpenPoint {
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
        OpenOutcome::Unstable(u) => SchedulerOpenPoint {
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
