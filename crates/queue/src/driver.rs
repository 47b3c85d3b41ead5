//! The open-system simulation driver: sustained arrivals through the
//! shared quantum engine.
//!
//! Jobs arrive indefinitely from a stationary [`ArrivalProcess`]; each
//! arrival is admitted into the generic
//! [`QuantumCore`](abg_sim::QuantumCore) (the same stepping core behind
//! every closed driver in `abg-sim`, here with a caller-chosen
//! [`Probe`]) and drained when it completes. The loop itself is the
//! crate's one resumable event loop (see [`hier`](crate::hier)), fed
//! from the shared-RNG arrival source and run as one unbounded epoch.
//! The driver never materializes the job population: memory is
//! proportional to the number of jobs *in the system*, so it can push
//! millions of jobs through a run if the statistics call for it.
//!
//! Measurement protocol (see `EXPERIMENTS.md` for the methodology):
//!
//! 1. the first `warmup_jobs` arrivals are warmup — they run normally
//!    but their responses are discarded (initial-transient truncation);
//! 2. the next `measured_jobs` arrivals are the measurement population:
//!    the run continues (arrivals never stop) until every one of them
//!    has completed;
//! 3. mean response time gets a batch-means confidence interval and
//!    slowdowns (response over the job's solo lower bound
//!    `max(T∞, T1/P)`) get nearest-rank percentiles;
//! 4. a [`SaturationDetector`](crate::SaturationDetector) watches the
//!    in-system job count and aborts runs that will never reach steady
//!    state (ρ ≥ 1), reporting them as [`OpenOutcome::Unstable`]
//!    instead of hanging.

use crate::events::SharedRng;
use crate::hier::{merge_reports, GroupSim};
use crate::saturation::{SaturationConfig, SaturationReason};
use crate::stats::{ConfidenceInterval, PercentileSummary};
use abg_alloc::Allocator;
use abg_control::RequestCalculator;
use abg_sched::JobExecutor;
use abg_sim::{NullProbe, Probe};
use abg_workload::ArrivalProcess;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Configuration of one open-system run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpenConfig {
    /// Machine size `P`.
    pub processors: u32,
    /// Quantum length `L` in steps.
    pub quantum_len: u64,
    /// The arrival process (absolute times are drawn from its stream).
    pub arrivals: ArrivalProcess,
    /// Arrivals discarded as warmup before measurement starts.
    pub warmup_jobs: u64,
    /// Arrivals measured after warmup; the run ends when all of them
    /// completed (arrivals continue throughout).
    pub measured_jobs: u64,
    /// Batches for the response-time confidence interval.
    pub batches: u32,
    /// Hard quanta budget; exhausting it marks the run unstable.
    pub max_quanta: u64,
    /// Saturation-detector tuning.
    pub saturation: SaturationConfig,
    /// Seed driving the arrival stream and the job generator.
    pub seed: u64,
}

/// Why an [`OpenConfig`] is internally inconsistent.
///
/// Returned by [`OpenConfig::validate`] so front ends (the CLI `open`
/// subcommand) can report the problem instead of aborting the process;
/// the drivers still fail fast via [`OpenConfig::assert_valid`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `processors == 0`: the machine has nothing to allocate.
    NoProcessors,
    /// `measured_jobs == 0`: the run could never end.
    NothingToMeasure,
    /// `batches < 2`: batch means needs at least two batches.
    TooFewBatches,
    /// Fewer measured jobs than batches — some batch would be empty.
    TooFewObservations {
        /// The configured measurement population.
        measured_jobs: u64,
        /// The configured batch count.
        batches: u32,
    },
    /// `max_quanta == 0`: no quanta budget to run under.
    NoQuantaBudget,
    /// A Poisson arrival process whose mean gap is not a finite positive
    /// number of steps — an offered load so large that `ρ·P` overflows
    /// leaves a gap of 0.
    BadArrivalGap {
        /// The configured mean inter-arrival gap in steps.
        mean_gap: f64,
    },
    /// The expected arrival time of the last warmup or measured job,
    /// `mean_gap × (warmup_jobs + measured_jobs)`, does not fit in `u64`
    /// steps — an offered load so small that the run could never reach
    /// its measurement target.
    ArrivalHorizonOverflow {
        /// The configured mean inter-arrival gap in steps.
        mean_gap: f64,
        /// Warmup plus measured arrivals.
        jobs: u64,
    },
    /// `groups == 0` in a hierarchical configuration: the top-level
    /// allocator needs at least one processor group.
    ZeroGroups,
    /// `realloc_epoch == 0`: the desire feedback loop would never run.
    BadReallocEpoch,
    /// The per-group capacity floor is zero or cannot be granted to
    /// every group at once (`floor > P / G`) — the top-level allocator
    /// could not honor its floor invariant.
    BadGroupFloor {
        /// The configured per-group floor.
        floor: u32,
        /// The configured machine size.
        processors: u32,
        /// The configured group count.
        groups: u32,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoProcessors => write!(f, "machine must have processors"),
            ConfigError::NothingToMeasure => write!(f, "nothing to measure"),
            ConfigError::TooFewBatches => write!(f, "batch means needs at least two batches"),
            ConfigError::TooFewObservations {
                measured_jobs,
                batches,
            } => write!(
                f,
                "need at least one observation per batch ({measured_jobs} jobs < {batches} batches)"
            ),
            ConfigError::NoQuantaBudget => write!(f, "need a positive quanta budget"),
            ConfigError::BadArrivalGap { mean_gap } => write!(
                f,
                "mean arrival gap must be finite and positive, got {mean_gap} steps"
            ),
            ConfigError::ArrivalHorizonOverflow { mean_gap, jobs } => write!(
                f,
                "{jobs} arrivals at a mean gap of {mean_gap:e} steps overrun the u64 step clock"
            ),
            ConfigError::ZeroGroups => write!(f, "need at least one processor group"),
            ConfigError::BadReallocEpoch => {
                write!(f, "need a positive reallocation epoch")
            }
            ConfigError::BadGroupFloor {
                floor,
                processors,
                groups,
            } => write!(
                f,
                "per-group floor must be between 1 and P/G \
                 ({floor} with {processors} processors over {groups} groups)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl OpenConfig {
    /// Checks internal consistency (the engine checks `quantum_len`),
    /// reporting the first violation as a typed [`ConfigError`]. A
    /// Poisson arrival process must have a finite positive mean gap,
    /// and the `warmup_jobs + measured_jobs` arrivals it must deliver
    /// must fit in `u64` steps at that gap.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.processors == 0 {
            return Err(ConfigError::NoProcessors);
        }
        if self.measured_jobs == 0 {
            return Err(ConfigError::NothingToMeasure);
        }
        if self.batches < 2 {
            return Err(ConfigError::TooFewBatches);
        }
        if self.measured_jobs < self.batches as u64 {
            return Err(ConfigError::TooFewObservations {
                measured_jobs: self.measured_jobs,
                batches: self.batches,
            });
        }
        if self.max_quanta == 0 {
            return Err(ConfigError::NoQuantaBudget);
        }
        if let ArrivalProcess::Poisson { mean_gap } = self.arrivals {
            if !(mean_gap.is_finite() && mean_gap > 0.0) {
                return Err(ConfigError::BadArrivalGap { mean_gap });
            }
            // Arrival times are f64 clocks cast to u64 steps, and the
            // cast saturates: the run must be able to reach its last
            // measured arrival without that happening.
            let jobs = self.warmup_jobs.saturating_add(self.measured_jobs);
            if mean_gap * jobs as f64 >= u64::MAX as f64 {
                return Err(ConfigError::ArrivalHorizonOverflow { mean_gap, jobs });
            }
        }
        Ok(())
    }

    /// Panicking form of [`validate`](OpenConfig::validate), used by the
    /// drivers (whose signatures predate the typed error) to fail fast
    /// with the same messages the old asserts produced.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] display message on the first
    /// violation.
    pub fn assert_valid(&self) {
        if let Err(err) = self.validate() {
            panic!("{err}");
        }
    }
}

/// Steady-state measurements of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SteadyStats {
    /// Mean response time (steps) with its batch-means interval.
    pub response: ConfidenceInterval,
    /// Slowdown percentiles (response over `max(T∞, T1/P)`).
    pub slowdown: PercentileSummary,
    /// Measured completions (equals the configured `measured_jobs`).
    pub completed: u64,
    /// Total arrivals admitted over the run (warmup + measured + tail).
    pub arrivals: u64,
    /// Quanta executed.
    pub quanta: u64,
    /// Final simulation step (the horizon the run covered).
    pub horizon: u64,
    /// Time-average in-system job count over executed quanta.
    pub mean_jobs_in_system: f64,
    /// Peak in-system job count over executed quanta — the memory
    /// high-water mark of the run (the live-set storage scales with this
    /// figure, not with total arrivals). Hierarchical runs report the
    /// sum of the per-group peaks: an upper bound on the
    /// aggregate footprint (the groups need not peak simultaneously).
    pub peak_jobs_in_system: u64,
    /// Completed work over machine capacity `P · horizon` — the
    /// utilization the machine actually served (sanity check against
    /// the offered ρ).
    pub measured_utilization: f64,
}

/// Diagnostics of a run aborted as unstable.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UnstableReport {
    /// What tripped.
    pub reason: SaturationReason,
    /// Quanta executed before aborting.
    pub quanta: u64,
    /// Simulation step at abort.
    pub horizon: u64,
    /// Jobs still in the system at abort.
    pub jobs_in_system: u64,
    /// Measured completions collected before aborting.
    pub completed: u64,
    /// Arrivals admitted before aborting.
    pub arrivals: u64,
}

/// The outcome of an open-system run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OpenOutcome {
    /// The run reached its measurement target; steady-state statistics.
    Steady(SteadyStats),
    /// The run was aborted by saturation detection (or budget
    /// exhaustion) — the configuration is reported unstable.
    Unstable(UnstableReport),
}

impl OpenOutcome {
    /// Whether the run completed its measurement.
    pub fn is_steady(&self) -> bool {
        matches!(self, OpenOutcome::Steady(_))
    }

    /// The steady statistics, if any.
    pub fn steady(&self) -> Option<&SteadyStats> {
        match self {
            OpenOutcome::Steady(s) => Some(s),
            OpenOutcome::Unstable(_) => None,
        }
    }
}

/// Runs one open-system simulation.
///
/// `make_executor` builds the task-scheduler side of each arriving job
/// (it receives the driver's RNG, so job populations are sampled
/// deterministically from `cfg.seed`); `make_calculator` builds its
/// request calculator. The allocator is shared by every job in the
/// system — [`abg_alloc::DynamicEquiPartition`] reproduces the paper's
/// two-level setup.
///
/// The factory's second argument is an executor **recycled** from an
/// earlier completed job, if one is pooled. The driver is generic over
/// the executor type `X`, so the factory gets back exactly the type it
/// built: homogeneous workloads can
/// [`try_reset`](JobExecutor::try_reset) and return it, workloads of
/// one concrete executor type can rebuild its job in place (workflow
/// arrivals redraw their weights, see
/// `abg_sched::DagExecutor::reset_with`), and heterogeneous workloads
/// over `Box<dyn JobExecutor + Send>` simply drop it and build afresh.
/// A closure typed over the boxed trait object infers that as `X`.
/// Either choice must yield an executor observationally equal to a
/// newly constructed one — the recycled path is a pure
/// allocation-lifetime optimisation and the simulated outcome is
/// identical.
///
/// # Panics
///
/// Panics on an inconsistent configuration (see [`OpenConfig`]).
pub fn run_open_system<X, A, E, C>(
    cfg: &OpenConfig,
    allocator: A,
    make_executor: E,
    make_calculator: C,
) -> OpenOutcome
where
    A: Allocator,
    X: JobExecutor + Send,
    E: FnMut(&mut StdRng, Option<X>) -> X,
    C: FnMut() -> Box<dyn RequestCalculator + Send>,
{
    run_open_system_probed(cfg, allocator, make_executor, make_calculator, NullProbe).0
}

/// [`run_open_system`] with a [`Probe`] threaded through the quantum
/// core — the observation layer the closed drivers have always had, now
/// available under sustained arrivals. A
/// [`TraceProbe`](abg_sim::TraceProbe) in retaining mode captures
/// per-job quantum traces (availability included on request), enabling
/// trim and deprivation analysis of open-system runs; a custom probe
/// can aggregate whatever it likes online. Returns the outcome together
/// with the probe.
///
/// With [`NullProbe`] this *is* `run_open_system`: the probe
/// monomorphizes to nothing and the loop is the uninstrumented one the
/// pinned open-sweep fingerprint covers.
///
/// # Panics
///
/// Panics on an inconsistent configuration (see [`OpenConfig`]).
pub fn run_open_system_probed<X, A, E, C, P>(
    cfg: &OpenConfig,
    allocator: A,
    mut make_executor: E,
    mut make_calculator: C,
    probe: P,
) -> (OpenOutcome, P)
where
    A: Allocator,
    X: JobExecutor + Send,
    E: FnMut(&mut StdRng, Option<X>) -> X,
    C: FnMut() -> Box<dyn RequestCalculator + Send>,
    P: Probe,
{
    cfg.assert_valid();
    // One simulation over the whole machine: the crate's event loop
    // with the shared-RNG arrival source, run as one unbounded epoch.
    let mut sim = GroupSim::new(
        cfg,
        cfg.processors,
        cfg.measured_jobs,
        SharedRng::new(cfg),
        allocator,
        probe,
    );
    sim.advance_until(cfg, u64::MAX, &mut make_executor, &mut make_calculator);
    sim.fold_epoch();
    let (report, probe) = sim.into_report();
    (merge_reports(cfg, &[report]), probe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use abg_alloc::DynamicEquiPartition;
    use abg_control::AControl;
    use abg_dag::PhasedJob;
    use abg_sched::PipelinedExecutor;
    use abg_workload::{mean_gap_for_utilization, ArrivalProcess};

    /// Constant width-2, 40-level jobs: T1 = 80, T∞ = 40.
    fn constant_job() -> Box<dyn JobExecutor + Send> {
        Box::new(PipelinedExecutor::new(PhasedJob::constant(2, 40)))
    }

    fn config(rho: f64) -> OpenConfig {
        OpenConfig {
            processors: 16,
            quantum_len: 10,
            arrivals: ArrivalProcess::Poisson {
                mean_gap: mean_gap_for_utilization(rho, 16, 80.0),
            },
            warmup_jobs: 50,
            measured_jobs: 200,
            batches: 10,
            max_quanta: 2_000_000,
            saturation: SaturationConfig::default(),
            seed: 0x0BE7,
        }
    }

    fn run(cfg: &OpenConfig) -> OpenOutcome {
        run_open_system(
            cfg,
            DynamicEquiPartition::new(cfg.processors),
            |_rng, _recycled| constant_job(),
            || Box::new(AControl::new(0.2)),
        )
    }

    #[test]
    fn recycling_executors_changes_nothing_observable() {
        // Same run twice: one factory drops every recycled executor and
        // builds fresh, the other resets and reuses. The outcomes must
        // be identical — recycling is an allocation-lifetime change.
        let cfg = config(0.5);
        let fresh = run(&cfg);
        let mut reused = 0u64;
        let recycled = run_open_system(
            &cfg,
            DynamicEquiPartition::new(cfg.processors),
            |_rng, recycled: Option<Box<dyn JobExecutor + Send>>| {
                if let Some(mut ex) = recycled {
                    if ex.try_reset() {
                        reused += 1;
                        return ex;
                    }
                }
                constant_job()
            },
            || Box::new(AControl::new(0.2)),
        );
        assert_eq!(fresh, recycled);
        assert!(reused > 100, "pool must actually be exercised: {reused}");
    }

    #[test]
    fn light_load_reaches_steady_state_with_finite_statistics() {
        let out = run(&config(0.3));
        let stats = out.steady().expect("rho = 0.3 must be stable");
        assert_eq!(stats.completed, 200);
        assert!(stats.response.mean.is_finite() && stats.response.mean >= 40.0);
        assert!(stats.response.half_width.is_finite());
        assert!(stats.slowdown.p50 >= 1.0, "slowdown below its lower bound");
        assert!(stats.slowdown.p50 <= stats.slowdown.p95);
        assert!(stats.slowdown.p95 <= stats.slowdown.p99);
        assert!(stats.measured_utilization > 0.05 && stats.measured_utilization < 1.0);
        assert!(stats.arrivals >= 250, "arrivals kept flowing past warmup");
    }

    #[test]
    fn overload_is_flagged_unstable_not_hung() {
        let out = run(&config(1.5));
        match out {
            OpenOutcome::Unstable(report) => {
                assert!(
                    matches!(
                        report.reason,
                        SaturationReason::QueueGrowth { .. } | SaturationReason::InSystemCap { .. }
                    ),
                    "expected a queue-based trip, got {:?}",
                    report.reason
                );
                assert!(report.jobs_in_system > 0);
            }
            OpenOutcome::Steady(s) => panic!("rho = 1.5 reported steady: {s:?}"),
        }
    }

    #[test]
    fn runs_are_deterministic_for_a_fixed_seed() {
        let a = run(&config(0.4));
        let b = run(&config(0.4));
        assert_eq!(a, b);
        let mut other = config(0.4);
        other.seed ^= 1;
        assert_ne!(run(&other), a, "seed must matter");
    }

    #[test]
    fn heavier_stable_load_has_larger_response() {
        let light = run(&config(0.15));
        let heavy = run(&config(0.75));
        let (light, heavy) = (light.steady().unwrap(), heavy.steady().unwrap());
        assert!(
            heavy.response.mean >= light.response.mean,
            "queueing delay should grow with load: {} vs {}",
            heavy.response.mean,
            light.response.mean
        );
        assert!(heavy.mean_jobs_in_system > light.mean_jobs_in_system);
    }

    #[test]
    fn trace_arrivals_drive_the_driver_too() {
        let mut cfg = config(0.3);
        cfg.arrivals = ArrivalProcess::Trace {
            gaps: vec![20, 0, 40],
        };
        let out = run(&cfg);
        assert!(out.is_steady(), "deterministic gaps at light load");
    }

    #[test]
    fn quanta_budget_reports_horizon_exhausted() {
        let mut cfg = config(0.3);
        cfg.max_quanta = 16;
        match run(&cfg) {
            OpenOutcome::Unstable(report) => {
                assert!(matches!(
                    report.reason,
                    SaturationReason::HorizonExhausted { quanta: 16 }
                ));
            }
            OpenOutcome::Steady(_) => panic!("16 quanta cannot finish 250 jobs"),
        }
    }

    #[test]
    #[should_panic(expected = "mean arrival gap must be finite and positive")]
    fn unsimulable_arrival_gap_fails_fast_in_the_driver() {
        // The driver stops at `assert_valid` with the typed message,
        // before the arrival stream's own assert could fire.
        let mut cfg = config(0.3);
        cfg.arrivals = ArrivalProcess::Poisson { mean_gap: 0.0 };
        let _ = run(&cfg);
    }

    #[test]
    #[should_panic(expected = "one observation per batch")]
    fn too_few_measured_jobs_for_batches_rejected() {
        let mut cfg = config(0.3);
        cfg.measured_jobs = 4;
        cfg.batches = 10;
        let _ = run(&cfg);
    }

    #[test]
    fn validate_reports_typed_errors_with_the_historical_messages() {
        let base = config(0.3);
        assert_eq!(base.validate(), Ok(()));

        type Mutate<'a> = &'a dyn Fn(&mut OpenConfig);
        let cases: [(Mutate, ConfigError, &str); 8] = [
            (
                &|c| c.processors = 0,
                ConfigError::NoProcessors,
                "machine must have processors",
            ),
            (
                &|c| c.measured_jobs = 0,
                ConfigError::NothingToMeasure,
                "nothing to measure",
            ),
            (
                &|c| c.batches = 1,
                ConfigError::TooFewBatches,
                "batch means needs at least two batches",
            ),
            (
                &|c| {
                    c.measured_jobs = 4;
                    c.batches = 10;
                },
                ConfigError::TooFewObservations {
                    measured_jobs: 4,
                    batches: 10,
                },
                "need at least one observation per batch (4 jobs < 10 batches)",
            ),
            (
                &|c| c.max_quanta = 0,
                ConfigError::NoQuantaBudget,
                "need a positive quanta budget",
            ),
            (
                &|c| c.arrivals = ArrivalProcess::Poisson { mean_gap: 0.0 },
                ConfigError::BadArrivalGap { mean_gap: 0.0 },
                "mean arrival gap must be finite and positive, got 0 steps",
            ),
            (
                &|c| {
                    c.arrivals = ArrivalProcess::Poisson {
                        mean_gap: f64::INFINITY,
                    }
                },
                ConfigError::BadArrivalGap {
                    mean_gap: f64::INFINITY,
                },
                "mean arrival gap must be finite and positive, got inf steps",
            ),
            (
                // 250 arrivals 1e17 steps apart reach 2.5e19 > 2^64.
                &|c| c.arrivals = ArrivalProcess::Poisson { mean_gap: 1e17 },
                ConfigError::ArrivalHorizonOverflow {
                    mean_gap: 1e17,
                    jobs: 250,
                },
                "250 arrivals at a mean gap of 1e17 steps overrun the u64 step clock",
            ),
        ];
        for (mutate, expected, message) in cases {
            let mut cfg = base.clone();
            mutate(&mut cfg);
            let err = cfg.validate().unwrap_err();
            assert_eq!(err, expected);
            // assert_valid (and with it the drivers) must keep panicking
            // with the exact messages the old asserts produced.
            assert_eq!(err.to_string(), message);
        }
    }
}
