//! The kernel benchmark trajectory suite: wall-clock throughput of the
//! hot simulation loops, measured the same way from the CLI (`abg-cli
//! bench`) and CI smoke runs.
//!
//! Each kernel drives one hot path end to end and reports *operations*
//! (tasks executed, or jobs simulated for the composite kernels) and
//! *simulated steps* per second. [`REFERENCE_PAIRS`] pairs optimised
//! kernels with reference kernels that run the same inputs through an
//! oracle: [`abg_sched::ReferenceExecutor`] (the legacy per-step,
//! clone-and-rescan executor) for the serial chain, the two fork-join
//! shapes and the weighted bundle, and
//! [`abg_queue::ReferenceOpenDriver`] (the quantum-by-quantum
//! open-system loop) for `open_event`. Each pair
//! does identical simulated work, so [`kernel_speedup`]'s ratios are
//! the in-process before/after of each rewrite, independent of how
//! fast the machine is.

use super::single_job::{single_job_sweep_with_steps, SingleJobSweepConfig};
use abg_alloc::DynamicEquiPartition;
use abg_control::{AControl, ConstantRequest};
use abg_dag::{generate, LeveledJob, Phase, PhasedJob};
use abg_queue::ReferenceOpenDriver;
use abg_sched::{
    BGreedyExecutor, JobExecutor, LeveledExecutor, OwnedBGreedyExecutor, PipelinedExecutor,
    ReferenceBGreedyExecutor,
};
use abg_sim::{live_job_footprint, CompletedJob, MultiJobSim, NullProbe, QuantumCore};
use abg_workload::{JobSetSpec, ReleaseSchedule, WorkflowKind};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Configuration of the kernel suite.
///
/// [`KernelBenchConfig::full`] is the recorded-baseline size;
/// [`KernelBenchConfig::smoke`] shrinks every kernel so the whole suite
/// finishes in well under a second (CI and tests).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelBenchConfig {
    /// Minimum wall-clock per kernel in milliseconds: each kernel body
    /// repeats until at least this much time has elapsed.
    pub min_wall_ms: u64,
    /// Tasks in the serial-chain kernels (long `T∞`, width 1).
    pub chain_len: u32,
    /// Quantum length for the chain kernels — deliberately short, so the
    /// legacy kernel pays its per-quantum rescan many times.
    pub chain_quantum: u64,
    /// Width of the pipelined chain-bundle (fork-join) kernel.
    pub bundle_width: u32,
    /// Levels per chain in the chain-bundle kernel.
    pub bundle_levels: u32,
    /// Depth of the binary fork-tree kernel (`2^depth − 1` tasks).
    pub tree_depth: u32,
    /// Serial/parallel phase pairs in the phased (pipelined) kernel.
    pub phased_pairs: u64,
    /// Parallel-phase width in the phased kernel.
    pub phased_width: u64,
    /// Levels per phase in the phased kernel.
    pub phased_len: u64,
    /// Width of the barrier-leveled kernel.
    pub leveled_width: u64,
    /// Levels of the barrier-leveled kernel.
    pub leveled_levels: u64,
    /// Levels per chain of the `weighted_frontier` kernel's bundle
    /// (width `bundle_width`, heterogeneous half-integer task weights):
    /// the residual-work executor kernel priced on a sustained wide
    /// frontier.
    pub weighted_levels: u32,
    /// Fan-out of the `workflow_open` kernel's Montage-like arrivals.
    pub workflow_scale: u32,
    /// Measured completions per repetition of the `workflow_open`
    /// kernel.
    pub workflow_jobs: u64,
    /// Layers of the random dag in the `dag_build` kernel.
    pub dag_levels: u32,
    /// Maximum layer width of the `dag_build` kernel's dag.
    pub dag_width: u32,
    /// Extra cross-layer edge probability in the `dag_build` kernel.
    pub dag_edge_prob: f64,
    /// Work units dispatched through the sharded `parallel_map` in the
    /// `sweep_parallel` kernel.
    pub parallel_units: u64,
    /// Transition factors of the single-job sweep kernel.
    pub sweep_factors: Vec<u64>,
    /// Jobs per factor in the single-job sweep kernel.
    pub sweep_jobs: u32,
    /// Machine size for the composite kernels.
    pub processors: u32,
    /// Load of the multiprogrammed DEQ kernel.
    pub load: f64,
    /// Measured completions per repetition of the open-system kernel.
    pub open_jobs: u64,
    /// Offered utilization of the open-system kernel (must be stable).
    pub open_rho: f64,
    /// Levels per job in the open kernels (width-8 phases, so `T1 =
    /// 8 · open_levels`). Long jobs put the drivers in the event-sparse
    /// regime the frozen-quantum machinery targets: thousands of quanta
    /// between arrivals and completions, nearly all of them frozen.
    pub open_levels: u64,
    /// Offered utilization of the `open_event` kernel — high enough
    /// that a double-digit population is live in every window, while
    /// staying in DEQ's satisfied regime where windows can freeze.
    pub open_event_rho: f64,
    /// Processor groups of the `open_sharded` kernel. Each group is an
    /// independent decimated open system committing its own horizon, so
    /// the kernel's aggregate simulated steps scale with the group
    /// count while the per-event cost scales with the per-group
    /// population.
    pub open_shards: u32,
    /// Jobs pushed through the `open_churn` kernel — short jobs on a
    /// dense deterministic arrival grid, every one admitted up front
    /// with a future release step. Completions land in nearly every
    /// quantum, so the kernel prices the core's storage layer: slot
    /// scan/reclamation under churn, with the live set a small fraction
    /// of the in-system population.
    pub churn_jobs: u64,
    /// Jobs of the `open_churn_large` variant: the same regime scaled
    /// until the system *holds* a 10⁵-order job population, so the
    /// kernel demonstrates per-quantum cost scaling with the live set,
    /// not with everything admitted.
    pub churn_large_jobs: u64,
    /// Suite seed (job generation only; timings are machine-dependent).
    pub seed: u64,
}

impl KernelBenchConfig {
    /// The recorded-baseline size (sub-minute on a laptop core).
    pub fn full() -> Self {
        Self {
            min_wall_ms: 200,
            chain_len: 100_000,
            chain_quantum: 64,
            bundle_width: 8,
            bundle_levels: 25_000,
            tree_depth: 16,
            phased_pairs: 64,
            phased_width: 16,
            phased_len: 64,
            leveled_width: 16,
            leveled_levels: 50_000,
            weighted_levels: 25_000,
            workflow_scale: 32,
            workflow_jobs: 1_000,
            dag_levels: 2_000,
            dag_width: 32,
            dag_edge_prob: 0.05,
            parallel_units: 1_024,
            sweep_factors: vec![2, 10, 40],
            sweep_jobs: 8,
            processors: 128,
            load: 2.0,
            open_jobs: 400,
            open_rho: 0.6,
            open_levels: 100_000,
            open_event_rho: 0.85,
            open_shards: 4,
            churn_jobs: 10_000,
            churn_large_jobs: 150_000,
            seed: 0xB16C_2008,
        }
    }

    /// A CI/test smoke size: every kernel shrunk to finish the whole
    /// suite in well under a second.
    pub fn smoke() -> Self {
        Self {
            min_wall_ms: 2,
            chain_len: 4_000,
            chain_quantum: 64,
            bundle_width: 8,
            bundle_levels: 500,
            // Deep enough that the saturated wide-frontier regime
            // dominates, as it does at the full size — a shallower tree
            // is straddle-heavy and systematically undershoots the
            // committed full-size baseline the --check gate compares
            // against.
            tree_depth: 13,
            phased_pairs: 8,
            phased_width: 8,
            phased_len: 16,
            leveled_width: 8,
            leveled_levels: 1_000,
            weighted_levels: 500,
            workflow_scale: 8,
            workflow_jobs: 80,
            dag_levels: 100,
            dag_width: 8,
            dag_edge_prob: 0.05,
            parallel_units: 32,
            sweep_factors: vec![2, 10],
            sweep_jobs: 2,
            processors: 32,
            load: 1.0,
            open_jobs: 60,
            open_rho: 0.5,
            open_levels: 4_000,
            // The full size runs 0.85 on 128 processors (16 effective
            // servers); at the smoke scale (4 effective servers) the
            // same rho is burstier and spends far more time in DEQ's
            // deprived regime where windows cannot freeze, so the smoke
            // point backs off to keep the kernel in the macro-stepping
            // regime the full-size baseline prices.
            open_event_rho: 0.7,
            open_shards: 4,
            churn_jobs: 1_500,
            churn_large_jobs: 8_000,
            seed: 0xB16C_2008,
        }
    }
}

/// One kernel's measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelResult {
    /// Kernel name (stable identifier for trajectory tracking).
    pub kernel: String,
    /// Repetitions of the kernel body within the measurement window.
    pub iters: u64,
    /// Operations processed across all repetitions (tasks executed, or
    /// jobs simulated for the `single_job_sweep` kernel).
    pub ops: u64,
    /// Simulated time steps advanced across all repetitions (zero where
    /// the notion does not apply).
    pub steps: u64,
    /// Wall-clock time of the measurement window in milliseconds.
    pub wall_ms: f64,
    /// Operations per wall-clock second.
    pub ops_per_sec: f64,
    /// Simulated steps per wall-clock second.
    pub steps_per_sec: f64,
    /// Peak in-system job population of the kernel's simulation — the
    /// memory high-water mark of the open kernels (0 where the notion
    /// does not apply).
    pub peak_jobs_in_system: u64,
    /// Estimated core-side bytes per in-system job (slot plus scratch
    /// share, see [`abg_sim::live_job_footprint`]; 0 where the notion
    /// does not apply).
    pub bytes_per_live_job: u64,
}

/// Repeats `body` until `min_wall_ms` has elapsed (at least once) and
/// folds the accumulated counters into a [`KernelResult`].
fn measure<F>(kernel: &str, min_wall_ms: u64, mut body: F) -> KernelResult
where
    F: FnMut() -> (u64, u64),
{
    let mut iters = 0u64;
    let mut ops = 0u64;
    let mut steps = 0u64;
    let start = Instant::now();
    loop {
        let (o, s) = body();
        iters += 1;
        ops += o;
        steps += s;
        if start.elapsed().as_millis() as u64 >= min_wall_ms {
            break;
        }
    }
    let wall = start.elapsed();
    let secs = wall.as_secs_f64().max(1e-9);
    KernelResult {
        kernel: kernel.to_string(),
        iters,
        ops,
        steps,
        wall_ms: wall.as_secs_f64() * 1e3,
        ops_per_sec: ops as f64 / secs,
        steps_per_sec: steps as f64 / secs,
        peak_jobs_in_system: 0,
        bytes_per_live_job: 0,
    }
}

/// Runs one executor over its job to completion at a fixed allotment
/// and quantum length, rewinding it first, and returns `(work, steps)`.
fn run_to_completion(ex: &mut impl JobExecutor, allotment: u32, quantum: u64) -> (u64, u64) {
    assert!(ex.try_reset(), "kernel executors rewind in place");
    while !ex.is_complete() {
        ex.run_quantum(allotment, quantum);
    }
    (ex.completed_work(), ex.elapsed_steps())
}

/// Executor factory of the homogeneous open kernels: every arrival runs
/// `job`, so a recycled executor is rewound and reused — the
/// steady-state loop allocates nothing per arrival.
fn recycling_factory(
    job: &Arc<PhasedJob>,
) -> impl Fn(&mut StdRng, Option<Box<dyn JobExecutor + Send>>) -> Box<dyn JobExecutor + Send> + Sync + '_
{
    move |_rng, recycled| {
        if let Some(mut ex) = recycled {
            if ex.try_reset() {
                return ex;
            }
        }
        Box::new(PipelinedExecutor::new(Arc::clone(job)))
    }
}

/// Measures an open-system kernel whose body runs one simulation at a
/// stable load. Ops are arrivals admitted and steps are `steps` of the
/// steady report; the fixed seed keeps both iter-constant, so the peak
/// population is read off the final repetition. The footprint figure is
/// that of the erased `Box<dyn JobExecutor + Send>` slots most open
/// kernels store; a kernel over another executor type overwrites it.
fn measure_open(
    kernel: &str,
    min_wall_ms: u64,
    steps: impl Fn(&abg_queue::SteadyStats) -> u64,
    mut body: impl FnMut() -> abg_queue::OpenOutcome,
) -> KernelResult {
    let mut peak = 0;
    let mut res = measure(kernel, min_wall_ms, || {
        let out = body();
        let stats = out.steady().expect("kernel rho must be stable");
        peak = stats.peak_jobs_in_system;
        (stats.arrivals, steps(stats))
    });
    res.peak_jobs_in_system = peak;
    res.bytes_per_live_job = live_job_footprint::<
        Box<dyn JobExecutor + Send>,
        Box<dyn abg_control::RequestCalculator + Send>,
    >() as u64;
    res
}

/// One repetition of a churn kernel: `n_jobs` short barrier-leveled
/// jobs (width 4, 200 levels, `T1 = 800`) on a deterministic arrival
/// grid at effective-server utilization 0.85 — each job asks for 2
/// processors, so level boundaries align with quantum boundaries and
/// nearly every quantum both admits releases and reclaims completions.
/// The *entire* calendar is admitted up front with future release
/// steps: the storage layer holds every not-yet-completed job while
/// only the O(live) set is scheduled, which is exactly the regime where
/// per-quantum full-population scans (and compaction on completion)
/// dominate. Executors are pooled across repetitions, so the
/// measurement prices the core, not job construction.
fn churn_body<'j>(
    processors: u32,
    n_jobs: u64,
    job: &'j LeveledJob,
    pool: &mut Vec<LeveledExecutor<&'j LeveledJob>>,
    done: &mut Vec<CompletedJob>,
) -> (u64, u64) {
    // Mean gap T1 / (0.85 · P) as an exact integer grid: arrival `i`
    // releases at ⌊i · 100·T1 / (85·P)⌋.
    let gap_num = 100 * 800;
    let gap_den = 85 * processors as u64;
    let mut core = QuantumCore::new(DynamicEquiPartition::new(processors), 100, NullProbe);
    for i in 0..n_jobs {
        let ex = match pool.pop() {
            Some(mut e) => {
                e.reset();
                e
            }
            None => LeveledExecutor::new(job),
        };
        core.admit(ex, ConstantRequest::new(2.0), i * gap_num / gap_den);
    }
    let mut completed = 0u64;
    while core.jobs_in_system() > 0 {
        if !core.any_live() {
            let next = core.next_release().expect("jobs pending");
            core.skip_idle_until(next);
            continue;
        }
        done.clear();
        core.step_quantum_reclaiming(done, pool);
        completed += done.len() as u64;
    }
    (completed, core.now())
}

/// Runs every kernel once and returns the measurements in suite order.
pub fn run_kernel_suite(cfg: &KernelBenchConfig) -> Vec<KernelResult> {
    let ms = cfg.min_wall_ms;
    let mut results = Vec::new();

    // Serial chain, short quanta: the macro-stepping fast path against
    // the legacy clone-and-rescan kernel on identical inputs. These two
    // produce bit-identical QuantumStats (the equivalence suite checks
    // this); only the cost model differs. Executors are built once and
    // rewound per repetition, so the measurement is the simulation loop
    // itself, not per-run construction.
    let chain = generate::chain(cfg.chain_len);
    let q = cfg.chain_quantum;
    let mut chain_ex = BGreedyExecutor::new(&chain);
    results.push(measure("chain_macro", ms, || {
        run_to_completion(&mut chain_ex, 1, q)
    }));
    let mut chain_ref = ReferenceBGreedyExecutor::new(&chain);
    results.push(measure("chain_reference", ms, || {
        run_to_completion(&mut chain_ref, 1, q)
    }));

    // Pipelined fork-join bundle: wide, constant parallelism. The
    // reference runs the same dag per step with an O(T∞) rescan at
    // every quantum boundary.
    let bundle = generate::chain_bundle(cfg.bundle_width, cfg.bundle_levels);
    let width = cfg.bundle_width;
    let mut bundle_ex = BGreedyExecutor::new(&bundle);
    results.push(measure("forkjoin_bundle", ms, || {
        run_to_completion(&mut bundle_ex, width, 100)
    }));
    let mut bundle_ref = ReferenceBGreedyExecutor::new(&bundle);
    results.push(measure("forkjoin_bundle_reference", ms, || {
        run_to_completion(&mut bundle_ref, width, 100)
    }));

    // Binary fork tree: parallelism doubling every level, successor
    // relaxation dominated — the wide-frontier bulk path's home turf,
    // against the reference's one-task-at-a-time ready queue.
    let tree = generate::binary_fork_tree(cfg.tree_depth);
    let mut tree_ex = BGreedyExecutor::new(&tree);
    results.push(measure("forkjoin_tree", ms, || {
        run_to_completion(&mut tree_ex, 32, 100)
    }));
    let mut tree_ref = ReferenceBGreedyExecutor::new(&tree);
    results.push(measure("forkjoin_tree_reference", ms, || {
        run_to_completion(&mut tree_ref, 32, 100)
    }));

    // Phased (serial/parallel alternation) under the pipelined
    // fast-forward executor.
    let phased = PhasedJob::new(
        (0..cfg.phased_pairs * 2)
            .map(|i| {
                let w = if i % 2 == 0 { 1 } else { cfg.phased_width };
                Phase::new(w, cfg.phased_len)
            })
            .collect(),
    );
    let mut phased_ex = PipelinedExecutor::new(&phased);
    results.push(measure("phased_pipelined", ms, || {
        run_to_completion(&mut phased_ex, cfg.phased_width as u32, 100)
    }));

    // Barrier-leveled constant job under the leveled fast-forward.
    let leveled = LeveledJob::constant(cfg.leveled_width, cfg.leveled_levels);
    let mut leveled_ex = LeveledExecutor::new(&leveled);
    results.push(measure("leveled_barrier", ms, || {
        run_to_completion(&mut leveled_ex, cfg.leveled_width as u32, 100)
    }));

    // Weighted wide frontier: the same bundle shape as
    // `forkjoin_bundle`, every task carrying a heterogeneous
    // half-integer weight, so the kernel advances residual costs to the
    // next completion and the completion sweep compacts in place — the
    // weighted executor kernel's sustained regime. The reference runs
    // the same bundle one step at a time. Built once, rewound per
    // repetition; ops count processor-step units (Σ ceil(wᵢ)), not
    // tasks.
    let weighted = {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let base = generate::chain_bundle(cfg.bundle_width, cfg.weighted_levels);
        let weights: Vec<f64> = (0..base.num_tasks())
            .map(|_| rng.random_range(1..=7u64) as f64 * 0.5)
            .collect();
        base.with_weights(weights)
            .expect("half-integer weights are finite and positive")
    };
    let mut weighted_ex = BGreedyExecutor::new(&weighted);
    results.push(measure("weighted_frontier", ms, || {
        run_to_completion(&mut weighted_ex, cfg.bundle_width, 100)
    }));
    let mut weighted_ref = ReferenceBGreedyExecutor::new(&weighted);
    results.push(measure("weighted_frontier_reference", ms, || {
        run_to_completion(&mut weighted_ref, cfg.bundle_width, 100)
    }));

    // Dag construction: builder ingest + CSR finalization + Kahn
    // validation of a random layered graph. Ops are tasks built, steps
    // are edges placed; the same seed every iteration keeps the counters
    // iter-constant.
    results.push(measure("dag_build", ms, || {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let dag = generate::random_layered(
            &mut rng,
            cfg.dag_levels,
            1..=cfg.dag_width,
            cfg.dag_edge_prob,
        );
        (dag.work(), dag.num_edges() as u64)
    }));

    // Harness dispatch: many small independent simulations through the
    // sharded `parallel_map` — measures the sweep harness's fan-out
    // throughput (cursor claiming + chunk assembly), not the simulation
    // kernels themselves.
    let par_job = PhasedJob::constant(cfg.phased_width, cfg.phased_len);
    let par_w = cfg.phased_width as u32;
    results.push(measure("sweep_parallel", ms, || {
        let units: Vec<u64> = (0..cfg.parallel_units).collect();
        let runs = super::parallel_map(units, |_unit| {
            let mut ex = PipelinedExecutor::new(&par_job);
            while !ex.is_complete() {
                ex.run_quantum(par_w, 100);
            }
            (ex.completed_work(), ex.elapsed_steps())
        });
        runs.iter()
            .fold((0, 0), |(w, s), &(rw, rs)| (w + rw, s + rs))
    }));

    // Composite: the Figure-5 single-job sweep at a reduced size. Ops
    // are jobs simulated (each factor × job pair runs under both
    // controllers); steps are the total simulated steps of those runs,
    // deterministic in the seed so the counter stays iter-constant.
    let mut sweep_cfg = SingleJobSweepConfig::scaled();
    sweep_cfg.factors = cfg.sweep_factors.clone();
    sweep_cfg.jobs_per_factor = cfg.sweep_jobs;
    sweep_cfg.quantum_len = 100;
    sweep_cfg.seed = cfg.seed;
    let sweep_jobs = sweep_cfg.factors.len() as u64 * sweep_cfg.jobs_per_factor as u64 * 2;
    results.push(measure("single_job_sweep", ms, || {
        let (points, steps) = single_job_sweep_with_steps(&sweep_cfg);
        assert_eq!(points.len(), sweep_cfg.factors.len());
        (sweep_jobs, steps)
    }));

    // Composite: one multiprogrammed job set under DEQ + ABG.
    let spec = JobSetSpec {
        processors: cfg.processors,
        quantum_len: 100,
        load: cfg.load,
        max_factor: 32,
        pairs: 2,
        max_jobs: cfg.processors as usize,
        release: ReleaseSchedule::Batched,
    };
    let set = spec.generate(&mut StdRng::seed_from_u64(cfg.seed));
    let releases = set.releases;
    // One Arc per job, shared by every repetition — the measurement no
    // longer pays a phase-list clone per job per iteration.
    let jobs: Vec<Arc<PhasedJob>> = set.jobs.into_iter().map(Arc::new).collect();
    results.push(measure("multiprogrammed_deq", ms, || {
        let mut sim = MultiJobSim::new(DynamicEquiPartition::new(cfg.processors), 100);
        for (job, &release) in jobs.iter().zip(&releases) {
            sim.add_job(
                Box::new(PipelinedExecutor::new(Arc::clone(job))),
                Box::new(AControl::new(0.2)),
                release,
            );
        }
        let out = sim.run();
        (out.total_work(), out.makespan)
    }));

    // Composite: the open-system driver under sustained Poisson
    // arrivals — admission, event-driven stepping with frozen-quantum
    // windows between arrivals and completions, and steady-state
    // collection. The long jobs (`open_levels` width-8 levels) put the
    // run in the event-sparse regime: thousands of quanta separate
    // consecutive events and nearly all of them are macro-stepped. Ops
    // are arrivals admitted, steps are the simulated horizon; the fixed
    // seed keeps both iter-constant.
    let open_t1 = 8.0 * cfg.open_levels as f64;
    let open_job = Arc::new(PhasedJob::constant(8, cfg.open_levels));
    let horizon = |s: &abg_queue::SteadyStats| s.horizon;
    let open_cfg = abg_queue::OpenConfig {
        processors: cfg.processors,
        quantum_len: 100,
        arrivals: abg_workload::ArrivalProcess::Poisson {
            mean_gap: abg_workload::mean_gap_for_utilization(cfg.open_rho, cfg.processors, open_t1),
        },
        warmup_jobs: cfg.open_jobs / 4,
        measured_jobs: cfg.open_jobs,
        batches: 8,
        max_quanta: u64::MAX,
        saturation: abg_queue::SaturationConfig::default(),
        seed: cfg.seed,
    };
    results.push(measure_open("open_system", ms, horizon, || {
        abg_queue::run_open_system(
            &open_cfg,
            DynamicEquiPartition::new(cfg.processors),
            recycling_factory(&open_job),
            || Box::new(AControl::new(0.2)),
        )
    }));

    // Composite: the same event-driven driver at high offered load —
    // the macro-stepping stress case. A double-digit population is live
    // in every frozen window, so the window bookkeeping (stability
    // checks, per-job lookahead, bulk catch-up) is priced per job
    // rather than hidden behind idle skipping. Its reference runs the
    // identical configuration through the quantum-by-quantum loop the
    // event-driven driver replaced, which reproduces every arrival,
    // completion and horizon bit for bit.
    let event_cfg = abg_queue::OpenConfig {
        arrivals: abg_workload::ArrivalProcess::Poisson {
            mean_gap: abg_workload::mean_gap_for_utilization(
                cfg.open_event_rho,
                cfg.processors,
                open_t1,
            ),
        },
        ..open_cfg.clone()
    };
    results.push(measure_open("open_event", ms, horizon, || {
        abg_queue::run_open_system(
            &event_cfg,
            DynamicEquiPartition::new(cfg.processors),
            recycling_factory(&open_job),
            || Box::new(AControl::new(0.2)),
        )
    }));
    results.push(measure_open("open_event_reference", ms, horizon, || {
        ReferenceOpenDriver::run(
            &event_cfg,
            DynamicEquiPartition::new(cfg.processors),
            recycling_factory(&open_job),
            || Box::new(AControl::new(0.2)),
        )
    }));

    // Composite: a fixed partition at the same offered load as
    // `open_event`, the machine split into `open_shards` independent
    // processor groups — the static top level run as one unbounded
    // epoch, so no barrier ever slices a group's loop. Every decimated
    // group commits its own horizon, so steps (aggregate committed
    // quanta × quantum length) scale with the group count while each
    // group's event loop prices a population `open_shards`× smaller —
    // the algorithmic win this kernel gates, so the pool is pinned to
    // one worker and the counters stay independent of the runner's
    // core count. The jobs are width-2 (same `T1` through 4× the
    // levels): a 1/`open_shards` slice of the machine still offers many
    // effective servers, keeping every group in the satisfied regime
    // where windows freeze.
    let sharded_job = Arc::new(PhasedJob::constant(2, 4 * cfg.open_levels));
    let sharded_cfg = abg_queue::HierOpenConfig {
        open: event_cfg.clone(),
        groups: cfg.open_shards,
        routing: abg_queue::ShardRouting::RoundRobin,
        realloc_epoch: u64::MAX,
        group_floor: 1,
    };
    let committed = |s: &abg_queue::SteadyStats| s.quanta * 100;
    results.push(measure_open("open_sharded", ms, committed, || {
        abg_queue::run_open_hierarchical_with_threads(
            &sharded_cfg,
            DynamicEquiPartition::new,
            recycling_factory(&sharded_job),
            || Box::new(AControl::new(0.2)),
            abg_control::StaticEqui,
            1,
        )
    }));

    // Composite: the hierarchical two-level driver over the same
    // decomposition as `open_sharded`, but with the desire-proportional
    // top level reallocating group capacities every 64 quanta. This
    // prices what the top level adds to the fixed partition: the epoch
    // barriers slicing every group's frozen windows, the per-epoch
    // desire folds, and the allocator-rebuild path on resized groups
    // (under round-robin routing the partition quickly settles, so
    // rebuilds price the steady case, not a thrash loop). Same
    // one-worker pool and counters as `open_sharded` so the two gate
    // comparable work.
    let hier_cfg = abg_queue::HierOpenConfig {
        realloc_epoch: 64,
        ..sharded_cfg.clone()
    };
    results.push(measure_open("open_hier", ms, committed, || {
        abg_queue::run_open_hierarchical_with_threads(
            &hier_cfg,
            DynamicEquiPartition::new,
            recycling_factory(&sharded_job),
            || Box::new(AControl::new(0.2)),
            abg_control::DesireProportional::new(),
            1,
        )
    }));

    // Composite: the open-system driver under weighted workflow
    // arrivals — every arrival draws one instance of a Montage-like
    // template (the structure built once, half-integer weights drawn
    // from the run's RNG) and executes it through the weighted per-task
    // kernel. A drained executor is recycled the way the sweep recycles
    // it: its dag's weights are redrawn in place and it rewinds onto
    // them. Against `open_system` this prices what realistic
    // heterogeneous jobs add: per-arrival weight draws and the
    // residual-work stepping that the homogeneous phased population
    // never touches. The fixed seed keeps arrivals and horizon
    // iter-constant.
    let wf = WorkflowKind::Montage.template(cfg.workflow_scale);
    let wf_t1 = {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        abg_workload::expected_work_of(256, &mut rng, |rng| wf.instantiate(rng).work() as f64)
    };
    let wf_cfg = abg_queue::OpenConfig {
        arrivals: abg_workload::ArrivalProcess::Poisson {
            mean_gap: abg_workload::mean_gap_for_utilization(cfg.open_rho, cfg.processors, wf_t1),
        },
        warmup_jobs: cfg.workflow_jobs / 4,
        measured_jobs: cfg.workflow_jobs,
        ..open_cfg.clone()
    };
    let mut wf_res = measure_open("workflow_open", ms, horizon, || {
        abg_queue::run_open_system(
            &wf_cfg,
            DynamicEquiPartition::new(cfg.processors),
            super::open_system::workflow_factory(&wf),
            || Box::new(AControl::new(0.2)),
        )
    });
    wf_res.bytes_per_live_job = live_job_footprint::<
        Box<OwnedBGreedyExecutor>,
        Box<dyn abg_control::RequestCalculator + Send>,
    >() as u64;
    results.push(wf_res);

    // Storage-layer kernels: the completion-heavy churn regime. Short
    // jobs on a dense arrival grid, the whole calendar admitted up
    // front — the core holds the full in-system population while only
    // the small live set does work each quantum, so these two price the
    // live-set bookkeeping itself (the `open_churn` kernel is gated; the
    // large variant demonstrates the population-independent scaling).
    let churn_job = LeveledJob::constant(4, 200); // T1 = 800: four exact quanta at allotment 2
    let churn_footprint = live_job_footprint::<LeveledExecutor<&LeveledJob>, ConstantRequest>();
    let mut churn_pool: Vec<LeveledExecutor<&LeveledJob>> = Vec::new();
    let mut churn_done: Vec<CompletedJob> = Vec::new();
    let mut churn_res = measure("open_churn", ms, || {
        churn_body(
            cfg.processors,
            cfg.churn_jobs,
            &churn_job,
            &mut churn_pool,
            &mut churn_done,
        )
    });
    churn_res.peak_jobs_in_system = cfg.churn_jobs;
    churn_res.bytes_per_live_job = churn_footprint as u64;
    results.push(churn_res);

    let mut churn_large_res = measure("open_churn_large", ms, || {
        churn_body(
            cfg.processors,
            cfg.churn_large_jobs,
            &churn_job,
            &mut churn_pool,
            &mut churn_done,
        )
    });
    churn_large_res.peak_jobs_in_system = cfg.churn_large_jobs;
    churn_large_res.bytes_per_live_job = churn_footprint as u64;
    results.push(churn_large_res);

    // The unified quantum core driven directly, fully monomorphized (no
    // boxed executors or controllers, `NullProbe` instrumentation
    // compiled away): a closed batch released together followed by a
    // staggered open tail that exercises admission ordering and the
    // idle fast-forward. Ops are jobs completed, steps the simulated
    // horizon; both are deterministic so the counters stay
    // iter-constant. The core is rebuilt every repetition — admission
    // and teardown are part of what this kernel prices.
    let uni_job = Arc::new(PhasedJob::constant(8, 200)); // T1 = 1600
    let uni_batch = (cfg.processors as u64 / 8).max(2);
    let uni_gap = 400; // four quanta between staggered releases
    results.push(measure("unified_engine", ms, || {
        let mut core = QuantumCore::new(DynamicEquiPartition::new(cfg.processors), 100, NullProbe);
        for _ in 0..uni_batch {
            core.admit(
                PipelinedExecutor::new(Arc::clone(&uni_job)),
                AControl::new(0.2),
                0,
            );
        }
        for i in 0..uni_batch {
            core.admit(
                PipelinedExecutor::new(Arc::clone(&uni_job)),
                AControl::new(0.2),
                (i + 1) * uni_gap,
            );
        }
        let mut done = Vec::new();
        while core.jobs_in_system() > 0 {
            if !core.any_live() {
                let next = core.next_release().expect("jobs pending");
                core.skip_idle_until(next);
                continue;
            }
            core.step_quantum(&mut done);
        }
        (done.len() as u64, core.now())
    }));

    results
}

/// The `(optimised, reference)` kernel pairs of the suite. Each
/// reference kernel runs its partner's inputs through an oracle that is
/// bit-identical in every simulated result, so the pair does the same
/// simulated work and only the cost model differs.
pub const REFERENCE_PAIRS: [(&str, &str); 5] = [
    ("chain_macro", "chain_reference"),
    ("forkjoin_tree", "forkjoin_tree_reference"),
    ("forkjoin_bundle", "forkjoin_bundle_reference"),
    ("weighted_frontier", "weighted_frontier_reference"),
    ("open_event", "open_event_reference"),
];

/// One derived throughput ratio of a suite run.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRatio {
    /// The optimised kernel (numerator).
    pub optimised: &'static str,
    /// Its reference kernel (denominator).
    pub reference: &'static str,
    /// `optimised.steps_per_sec / reference.steps_per_sec`; `None` if
    /// either kernel is missing or the reference did no steps.
    pub ratio: Option<f64>,
}

impl KernelRatio {
    /// The ratio's key under `derived` in the bench JSON, e.g.
    /// `chain_macro_over_reference_steps_per_sec`.
    pub fn key(&self) -> String {
        format!("{}_over_reference_steps_per_sec", self.optimised)
    }
}

/// The steps-per-second ratio of every [`REFERENCE_PAIRS`] entry, in
/// table order.
pub fn kernel_speedup(results: &[KernelResult]) -> Vec<KernelRatio> {
    let steps_per_sec = |name: &str| {
        results
            .iter()
            .find(|r| r.kernel == name)
            .map(|r| r.steps_per_sec)
    };
    REFERENCE_PAIRS
        .iter()
        .map(|&(optimised, reference)| KernelRatio {
            optimised,
            reference,
            ratio: match (steps_per_sec(optimised), steps_per_sec(reference)) {
                (Some(num), Some(den)) if den > 0.0 => Some(num / den),
                _ => None,
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_suite_runs_every_kernel() {
        let results = run_kernel_suite(&KernelBenchConfig::smoke());
        let names: Vec<&str> = results.iter().map(|r| r.kernel.as_str()).collect();
        assert_eq!(
            names,
            [
                "chain_macro",
                "chain_reference",
                "forkjoin_bundle",
                "forkjoin_bundle_reference",
                "forkjoin_tree",
                "forkjoin_tree_reference",
                "phased_pipelined",
                "leveled_barrier",
                "weighted_frontier",
                "weighted_frontier_reference",
                "dag_build",
                "sweep_parallel",
                "single_job_sweep",
                "multiprogrammed_deq",
                "open_system",
                "open_event",
                "open_event_reference",
                "open_sharded",
                "open_hier",
                "workflow_open",
                "open_churn",
                "open_churn_large",
                "unified_engine",
            ]
        );
        for r in &results {
            assert!(r.iters > 0, "{}: no iterations", r.kernel);
            assert!(r.ops > 0, "{}: no work", r.kernel);
            assert!(r.wall_ms > 0.0, "{}: no time", r.kernel);
            assert!(r.ops_per_sec > 0.0, "{}: no throughput", r.kernel);
            // Per-iteration counters are deterministic.
            assert_eq!(r.ops % r.iters, 0, "{}: ops not iter-constant", r.kernel);
            assert_eq!(
                r.steps % r.iters,
                0,
                "{}: steps not iter-constant",
                r.kernel
            );
        }
    }

    /// Full-size churn measurement on its own, without the rest of the
    /// suite — the before/after probe of the live-set storage layer:
    /// `cargo test --release -p abg churn_probe -- --ignored --nocapture`.
    #[test]
    #[ignore = "measurement probe, not a correctness test"]
    fn churn_probe() {
        let cfg = KernelBenchConfig::full();
        let job = LeveledJob::constant(4, 200);
        let mut pool = Vec::new();
        let mut done = Vec::new();
        for (name, jobs) in [
            ("open_churn", cfg.churn_jobs),
            ("open_churn_large", cfg.churn_large_jobs),
        ] {
            let r = measure(name, 2_000, || {
                churn_body(cfg.processors, jobs, &job, &mut pool, &mut done)
            });
            println!(
                "{name}: iters={} steps/s={:.0} ops/s={:.0}",
                r.iters, r.steps_per_sec, r.ops_per_sec
            );
        }
    }

    /// Every ratio compares the same work: each optimised kernel and
    /// its reference report equal ops and steps per iteration, and the
    /// speedup table yields one ratio per pair.
    #[test]
    fn reference_pairs_do_identical_simulated_work() {
        let cfg = KernelBenchConfig::smoke();
        let results = run_kernel_suite(&cfg);
        let per_iter = |name: &str| {
            let r = results.iter().find(|r| r.kernel == name).unwrap();
            (r.ops / r.iters, r.steps / r.iters)
        };
        for (optimised, reference) in REFERENCE_PAIRS {
            assert_eq!(
                per_iter(optimised),
                per_iter(reference),
                "{optimised} vs {reference}"
            );
        }
        assert_eq!(per_iter("chain_macro").0, cfg.chain_len as u64);

        let ratios = kernel_speedup(&results);
        assert_eq!(ratios.len(), REFERENCE_PAIRS.len());
        assert_eq!(ratios[0].key(), "chain_macro_over_reference_steps_per_sec");
        for r in &ratios {
            assert!(r.ratio.is_some_and(|x| x > 0.0), "{}", r.key());
        }
        let missing = kernel_speedup(&results[..1]);
        assert!(missing.iter().all(|r| r.ratio.is_none()));
    }
}
