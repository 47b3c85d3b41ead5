//! Hierarchical two-level scheduling: the machine partitioned into
//! processor groups under a feedback-driven top-level allocator.
//!
//! A single [`run_open_system`](crate::run_open_system) run pushes
//! every in-flight job through one core on one thread. This module
//! splits the machine into `G` processor groups — the hierarchical
//! schemes for malleable jobs (Cao–Sun–Qian–Wu's desire-feedback
//! partitioning, with the policy made pluggable in the spirit of the
//! control-theoretic framing): each group runs its own [`QuantumCore`]
//! and [`SaturationDetector`] over the deterministic router-replay
//! arrival split (see [`routing`](crate::routing)), and reports a
//! per-epoch **group desire** — aggregated job requests, in-system
//! population, and served utilization — to a top-level
//! [`GroupAllocator`] that recomputes every group's capacity at fixed
//! reallocation epochs. Groups run on a worker pool honoring
//! `ABG_THREADS`.
//!
//! **Execution model.** The driver advances all groups in lockstep
//! over reallocation epochs of `realloc_epoch` quanta. Within an epoch
//! each group runs the crate's one event-driven loop (admissions, real
//! quanta, frozen-window macro-steps) and pauses at the first quantum
//! boundary at or after the epoch edge — the *epoch invariant*:
//! capacity changes take effect at quantum granularity, never inside a
//! quantum. At the barrier the driver folds every group's desire (in
//! group-index order, on one thread), asks the policy for the next
//! partition, and swaps each resized group's allocator in place.
//!
//! **Determinism.** Arrivals replay the shared router path, job
//! structures are keyed by global arrival index, and the merge folds in
//! group-index order — the outcome is a pure function of the
//! configuration, bit-independent of the worker pool's size and
//! schedule. Epoch segmentation itself is invisible to a group that is
//! never resized: frozen windows may be split at any quantum boundary
//! ([`advance_frozen`](QuantumCore::advance_frozen) is bit-equivalent
//! to stepping, and the detector's `record_n` is linear in its sample
//! count), and an idle group *pauses* at the epoch edge rather than
//! capping its idle skip (a capped skip plus a later one could land a
//! full quantum later than the single direct skip). That is why
//! [`StaticEqui`](abg_control::StaticEqui) — which never resizes
//! anyone — gives the same outcome at every epoch length as the fixed
//! partition it describes, run as one unbounded epoch
//! (`realloc_epoch = u64::MAX`, no barriers at all).
//!
//! `groups = 1` delegates to [`run_open_system`](crate::run_open_system)
//! verbatim (with one group the sum invariant forbids any capacity
//! change).

use crate::driver::{ConfigError, OpenConfig, OpenOutcome, SteadyStats, UnstableReport};
use crate::events::{frozen_window_bound, ArrivalSource, RouterReplay};
use crate::routing::{measured_assigned, pool_threads, ShardRouting};
use crate::saturation::{SaturationDetector, SaturationReason};
use crate::stats::{merge_shard_samples, merged_batch_means, percentiles, weighted_mean};
use abg_alloc::Allocator;
use abg_control::{equi_partition, GroupAllocator, GroupDesire, RequestCalculator};
use abg_sched::JobExecutor;
use abg_sim::{CompletedJob, NullProbe, Probe, QuantumCore};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Configuration of a hierarchical open-system run: the aggregate
/// configuration split over processor groups, plus the top level's
/// reallocation cadence and capacity floor.
///
/// A fixed partition is the trivial top level: [`StaticEqui`] with
/// `realloc_epoch = u64::MAX` runs every group to completion in one
/// unbounded epoch, with no barriers at all.
///
/// [`StaticEqui`]: abg_control::StaticEqui
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierOpenConfig {
    /// The aggregate open-system configuration (total machine size,
    /// aggregate arrival process and measurement window; `max_quanta`
    /// and the saturation tuning apply per group).
    pub open: OpenConfig,
    /// Processor groups `G` under the top-level allocator.
    pub groups: u32,
    /// The arrival-routing policy.
    pub routing: ShardRouting,
    /// Reallocation epoch in quanta: the top-level allocator runs at
    /// every multiple of `realloc_epoch * quantum_len` steps.
    pub realloc_epoch: u64,
    /// Per-group capacity floor the allocator must always honor (at
    /// least 1, at most `P/G`).
    pub group_floor: u32,
}

impl HierOpenConfig {
    /// Checks internal consistency, reporting the first violation as a
    /// typed [`ConfigError`]: the aggregate config must be valid, the
    /// group count positive, the reallocation epoch positive, and the
    /// per-group floor grantable to every group at once
    /// (`1 <= floor <= P/G` — which also rejects more groups than
    /// processors).
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.open.validate()?;
        if self.groups == 0 {
            return Err(ConfigError::ZeroGroups);
        }
        if self.realloc_epoch == 0 {
            return Err(ConfigError::BadReallocEpoch);
        }
        if self.group_floor == 0 || self.group_floor > self.open.processors / self.groups {
            return Err(ConfigError::BadGroupFloor {
                floor: self.group_floor,
                processors: self.open.processors,
                groups: self.groups,
            });
        }
        Ok(())
    }

    /// Panicking form of [`validate`](HierOpenConfig::validate), used
    /// by the driver to fail fast with the [`ConfigError`] display
    /// message.
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

/// Per-group accounting of one hierarchical run: where the top level
/// left each group's capacity and how the group spent it. The merged
/// [`OpenOutcome`] aggregates across groups; this is the view that
/// shows the reallocation at work (a hot group under skewed routing
/// should end with more processors and every group's served
/// utilization should level out).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroupSummary {
    /// Group index.
    pub group: u32,
    /// Capacity the group held when the run ended.
    pub final_processors: u32,
    /// Arrivals routed to (and admitted by) the group.
    pub arrivals: u64,
    /// Served utilization: the group's completed work over its own
    /// capacity integral ∫ capacity dt (which reflects every resize).
    pub utilization: f64,
}

/// Where a group's simulation currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GroupStatus {
    /// Paused at an epoch edge with work (or arrivals) still pending.
    Running,
    /// Every measured arrival routed to this group has completed.
    Finished,
    /// The group's detector (or quanta budget) declared it unstable.
    Tripped,
}

/// One resumable open-system simulation — *the* event loop of the
/// crate. [`run_open_system`](crate::run_open_system) runs one over
/// the whole machine with the shared-RNG arrival source and an
/// unbounded epoch; the hierarchical driver runs one per processor
/// group over the router-replay source, pausing each at every epoch
/// edge so the top level can resize it.
pub(crate) struct GroupSim<A: Allocator, S, P: Probe = NullProbe> {
    /// Current capacity (processors owned by this group).
    processors: u32,
    engine: QuantumCore<Box<dyn JobExecutor + Send>, Box<dyn RequestCalculator + Send>, A, P>,
    detector: SaturationDetector,
    arrivals: S,
    /// Measured arrivals admitted here that have not completed yet.
    outstanding: u64,
    /// Executors handed back when their jobs drained, offered to the
    /// factory one per admission (LIFO — the hottest buffers first).
    pool: Vec<Box<dyn JobExecutor + Send>>,
    done: Vec<CompletedJob>,
    next_global: u64,
    next_time: u64,
    status: GroupStatus,
    /// Measured samples: `(global slot, response, slowdown)`.
    samples: Vec<(u64, f64, f64)>,
    arrivals_seen: u64,
    completed_measured: u64,
    completed_work: u64,
    tripped: Option<SaturationReason>,
    /// Integral of capacity over simulated time, folded at each epoch
    /// barrier — the group's contribution to the merged utilization
    /// denominator.
    capacity_steps: u64,
    accounted_now: u64,
    accounted_work: u64,
}

impl<A: Allocator, S: ArrivalSource, P: Probe> GroupSim<A, S, P> {
    /// A fresh simulation owning `processors` processors, expecting
    /// `assigned` measured arrivals from `arrivals`. A group with no
    /// measured arrivals routed to it starts (and stays) finished — it
    /// could not influence any merged statistic.
    pub(crate) fn new(
        open: &OpenConfig,
        processors: u32,
        assigned: u64,
        mut arrivals: S,
        allocator: A,
        probe: P,
    ) -> Self {
        let (status, next_global, next_time) = if assigned == 0 {
            (GroupStatus::Finished, 0, 0)
        } else {
            let (global, time) = arrivals.next_arrival();
            (GroupStatus::Running, global, time)
        };
        Self {
            processors,
            engine: QuantumCore::new(allocator, open.quantum_len, probe),
            detector: SaturationDetector::new(open.saturation),
            arrivals,
            outstanding: assigned,
            pool: Vec::new(),
            done: Vec::new(),
            next_global,
            next_time,
            status,
            samples: Vec::with_capacity(assigned as usize),
            arrivals_seen: 0,
            completed_measured: 0,
            completed_work: 0,
            tripped: None,
            capacity_steps: 0,
            accounted_now: 0,
            accounted_work: 0,
        }
    }

    /// Whether the group still has measured work pending.
    pub(crate) fn is_running(&self) -> bool {
        self.status == GroupStatus::Running
    }

    /// Resizes the group: the next quantum allocates against the new
    /// machine. Only called at epoch barriers, and only when the
    /// capacity actually changed — an untouched group keeps its
    /// allocator state (DEQ rotation included) bit-intact.
    pub(crate) fn set_capacity(&mut self, processors: u32, allocator: A) {
        self.processors = processors;
        self.engine.set_allocator(allocator);
    }

    /// Advances the simulation to the first quantum boundary at or
    /// after `until` (or to completion / saturation trip, whichever
    /// comes first). `until = u64::MAX` never pauses.
    ///
    /// Each round admits everything due, fast-forwards an empty
    /// system to its next arrival, steps one real quantum, records
    /// completions and the saturation verdict, then macro-steps the
    /// core across frozen quanta up to the next driver-level event
    /// (arrival, trend evaluation, budget edge, epoch edge). The core
    /// declines a window whenever a completion or a request change
    /// could occur, so nothing observable is skipped.
    ///
    /// Pause points are chosen to keep segmentation invisible:
    ///
    /// * between quanta (`now >= until` before a real step);
    /// * inside a frozen window, by bounding the window at the epoch
    ///   edge — bit-equal by the frozen-window splitting invariant;
    /// * while idle, by *returning* when the next arrival lies beyond
    ///   the epoch instead of capping the skip (`skip_idle_until`
    ///   always advances at least one quantum, so skip-then-skip can
    ///   overshoot the single direct skip).
    pub(crate) fn advance_until<E, C>(
        &mut self,
        open: &OpenConfig,
        until: u64,
        make_executor: &mut E,
        make_calculator: &mut C,
    ) where
        E: FnMut(&mut StdRng, Option<Box<dyn JobExecutor + Send>>) -> Box<dyn JobExecutor + Send>,
        C: FnMut() -> Box<dyn RequestCalculator + Send>,
    {
        if self.status != GroupStatus::Running {
            return;
        }
        let warmup = open.warmup_jobs;
        let measured = open.measured_jobs;

        loop {
            while self.next_time <= self.engine.now() {
                let rng = self.arrivals.job_rng(self.next_global);
                let executor = make_executor(rng, self.pool.pop());
                let id = self
                    .engine
                    .admit(executor, make_calculator(), self.next_time);
                self.arrivals.admitted(id, self.next_global);
                self.arrivals_seen += 1;
                (self.next_global, self.next_time) = self.arrivals.next_arrival();
            }
            if !self.engine.any_live() {
                if self.next_time > until {
                    return; // Paused idle at the epoch edge.
                }
                // Empty system: fast-forward to the boundary of the
                // next arrival instead of stepping idle quanta.
                self.engine.skip_idle_until(self.next_time);
                continue;
            }
            if self.engine.now() >= until {
                return; // Paused between quanta at the epoch edge.
            }

            self.done.clear();
            self.engine
                .step_quantum_reclaiming(&mut self.done, &mut self.pool);
            self.detector.record(self.engine.jobs_in_system());

            for job in &self.done {
                self.completed_work += job.work;
                let global = self.arrivals.global(job.id);
                if global < warmup || global >= warmup + measured {
                    continue;
                }
                let response = job.response_time() as f64;
                // Solo lower bound on response against the group's
                // *current* machine: the job cannot beat its span nor
                // perfect speedup on the processors its group owns at
                // completion time (constant under a static top level).
                let lower = (job.span as f64).max(job.work as f64 / self.processors as f64);
                self.samples
                    .push((global - warmup, response, response / lower.max(1.0)));
                self.completed_measured += 1;
                self.outstanding -= 1;
            }

            if self.outstanding == 0 {
                self.status = GroupStatus::Finished;
                return;
            }
            if self.trip(open) {
                return;
            }

            while let Some(len) = self.engine.frozen_quantum_len() {
                let now = self.engine.now();
                if now >= until {
                    break; // The outer loop pauses after admissions.
                }
                // The epoch edge bounds the window like any other
                // event horizon; `u64::MAX` must stay un-bounded so
                // the unsegmented path is literally the original.
                let epoch_bound = if until == u64::MAX {
                    u64::MAX
                } else {
                    (until - now).div_ceil(len)
                };
                let bound = frozen_window_bound(
                    now,
                    len,
                    self.next_time,
                    self.detector.quanta_until_trend_check(),
                    self.engine.quanta(),
                    open.max_quanta,
                )
                .min(epoch_bound);
                let advanced = self.engine.advance_frozen(bound);
                if advanced == 0 {
                    break;
                }
                self.detector
                    .record_n(self.engine.jobs_in_system(), advanced);
                if self.trip(open) {
                    return;
                }
            }
        }
    }

    /// Evaluates the saturation detector and the quanta budget — the
    /// same check, in the same order, after every executed quantum
    /// (bulk windows end exactly on trend-evaluation and budget edges,
    /// so evaluating once per window sees what per-quantum evaluation
    /// would have seen). Marks the group tripped and returns `true` on
    /// a verdict.
    fn trip(&mut self, open: &OpenConfig) -> bool {
        let reason = self.detector.check().or_else(|| {
            (self.engine.quanta() >= open.max_quanta).then_some(
                SaturationReason::HorizonExhausted {
                    quanta: open.max_quanta,
                },
            )
        });
        if reason.is_some() {
            self.tripped = reason;
            self.status = GroupStatus::Tripped;
        }
        reason.is_some()
    }

    /// Folds the epoch that just ended into the capacity integral and
    /// returns the group's desire report: standing request sum and
    /// population at the barrier, and the fraction of the epoch's
    /// capacity spent on completed work. Finished and tripped groups
    /// report zero desire — granting them capacity would waste it.
    pub(crate) fn fold_epoch(&mut self) -> GroupDesire {
        let now = self.engine.now();
        let elapsed = now - self.accounted_now;
        self.capacity_steps = self
            .capacity_steps
            .saturating_add((self.processors as u64).saturating_mul(elapsed));
        let work = self.completed_work - self.accounted_work;
        let utilization = if elapsed == 0 {
            0.0
        } else {
            work as f64 / (self.processors as f64 * elapsed as f64)
        };
        self.accounted_now = now;
        self.accounted_work = self.completed_work;
        if self.is_running() {
            GroupDesire {
                requests: self.engine.live_request_sum(),
                population: self.engine.jobs_in_system() as u64,
                utilization,
            }
        } else {
            GroupDesire {
                requests: 0.0,
                population: 0,
                utilization,
            }
        }
    }

    /// The group's standing in the run's [`GroupSummary`] table.
    /// Meaningful once the run has ended (the capacity integral is
    /// folded up to the final barrier).
    fn summary(&self, group: u32) -> GroupSummary {
        GroupSummary {
            group,
            final_processors: self.processors,
            arrivals: self.arrivals_seen,
            utilization: if self.capacity_steps == 0 {
                0.0
            } else {
                self.completed_work as f64 / self.capacity_steps as f64
            },
        }
    }

    /// Hands the accumulated statistics to the merge, and the probe
    /// back to the caller. Call after the final
    /// [`fold_epoch`](GroupSim::fold_epoch).
    pub(crate) fn into_report(self) -> (GroupReport, P) {
        let report = GroupReport {
            samples: self.samples,
            arrivals: self.arrivals_seen,
            completed_measured: self.completed_measured,
            completed_work: self.completed_work,
            capacity_steps: self.capacity_steps,
            quanta: self.engine.quanta(),
            horizon: self.engine.now(),
            jobs_in_system: self.engine.jobs_in_system() as u64,
            mean_jobs_in_system: self.detector.mean_jobs_in_system(),
            peak_jobs_in_system: self.detector.peak_jobs_in_system(),
            tripped: self.tripped,
        };
        (report, self.engine.into_probe())
    }
}

/// Everything one simulation hands back for the deterministic merge.
pub(crate) struct GroupReport {
    /// Measured samples: `(global slot, response, slowdown)`.
    samples: Vec<(u64, f64, f64)>,
    arrivals: u64,
    completed_measured: u64,
    completed_work: u64,
    /// Processor-steps of capacity the group held over the run.
    capacity_steps: u64,
    quanta: u64,
    horizon: u64,
    jobs_in_system: u64,
    mean_jobs_in_system: f64,
    peak_jobs_in_system: u64,
    tripped: Option<SaturationReason>,
}

/// Folds the per-group reports into one [`OpenOutcome`], in stable
/// group-index order.
///
/// Any tripped group makes the merged outcome [`OpenOutcome::Unstable`]
/// (reason from the lowest-index tripped group; diagnostics summed,
/// horizon the maximum). Otherwise the measured samples recombine in
/// global slot order through [`merged_batch_means`] /
/// [`merge_shard_samples`]; `quanta` and `arrivals` sum; `horizon` is
/// the largest group horizon; the mean in-system count is the
/// quanta-weighted mean of the group means (a single group's own mean
/// verbatim); and the served utilization is total completed work over
/// the summed capacity integrals.
pub(crate) fn merge_reports(open: &OpenConfig, reports: &[GroupReport]) -> OpenOutcome {
    let quanta: u64 = reports.iter().map(|r| r.quanta).sum();
    let arrivals: u64 = reports.iter().map(|r| r.arrivals).sum();
    let horizon: u64 = reports.iter().map(|r| r.horizon).max().unwrap_or(0);
    let completed: u64 = reports.iter().map(|r| r.completed_measured).sum();

    if let Some(tripped) = reports.iter().find_map(|r| r.tripped) {
        return OpenOutcome::Unstable(UnstableReport {
            reason: tripped,
            quanta,
            horizon,
            jobs_in_system: reports.iter().map(|r| r.jobs_in_system).sum(),
            completed,
            arrivals,
        });
    }

    let slots = open.measured_jobs as usize;
    let responses: Vec<Vec<(u64, f64)>> = reports
        .iter()
        .map(|r| r.samples.iter().map(|&(s, resp, _)| (s, resp)).collect())
        .collect();
    let slowdowns: Vec<Vec<(u64, f64)>> = reports
        .iter()
        .map(|r| r.samples.iter().map(|&(s, _, sd)| (s, sd)).collect())
        .collect();
    let response = merged_batch_means(&responses, slots, open.batches)
        .expect("steady groups tile the measurement slots");
    let slowdown_samples =
        merge_shard_samples(&slowdowns, slots).expect("steady groups tile the measurement slots");
    let slowdown = percentiles(&slowdown_samples).expect("measured_jobs > 0");

    // `weighted_mean` of one pair computes m·q/q, which need not be m
    // bit for bit — a lone group reports its detector's mean directly.
    let mean_jobs_in_system = match reports {
        [one] => one.mean_jobs_in_system,
        _ => weighted_mean(
            &reports
                .iter()
                .map(|r| (r.mean_jobs_in_system, r.quanta as f64))
                .collect::<Vec<_>>(),
        ),
    };
    let completed_work: u64 = reports.iter().map(|r| r.completed_work).sum();
    let capacity: f64 = reports.iter().map(|r| r.capacity_steps as f64).sum();
    OpenOutcome::Steady(SteadyStats {
        response,
        slowdown,
        completed: open.measured_jobs,
        arrivals,
        quanta,
        horizon,
        mean_jobs_in_system,
        // Summed per-group peaks: an aggregate-footprint upper bound
        // (the groups need not peak at the same instant).
        peak_jobs_in_system: reports.iter().map(|r| r.peak_jobs_in_system).sum(),
        measured_utilization: if capacity == 0.0 {
            0.0
        } else {
            completed_work as f64 / capacity
        },
    })
}

/// Advances every group on a scoped-thread pool (static chunk
/// partition — groups are independent, so the schedule can never show
/// through) and returns once all of them have paused at the barrier.
fn advance_groups<A, F>(sims: &mut [GroupSim<A, RouterReplay>], threads: usize, advance: F)
where
    A: Allocator + Send,
    F: Fn(&mut GroupSim<A, RouterReplay>) + Sync,
{
    let n = sims.len();
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        for sim in sims.iter_mut() {
            advance(sim);
        }
        return;
    }
    let chunk = n.div_ceil(threads);
    let advance = &advance;
    std::thread::scope(|scope| {
        for group_chunk in sims.chunks_mut(chunk) {
            scope.spawn(move || {
                for sim in group_chunk {
                    advance(sim);
                }
            });
        }
    });
}

/// Runs one hierarchical open-system simulation on the worker pool
/// sized by `ABG_THREADS` (see [`run_open_hierarchical_with_threads`]
/// for an explicit count).
///
/// `make_allocator` builds a group's *within-group* allocator from its
/// current capacity (called again whenever the top level resizes the
/// group); `make_executor` / `make_calculator` are the factories of
/// [`run_open_system`](crate::run_open_system); `group_alloc` is the
/// top-level policy consulted at every reallocation epoch. With
/// `groups = 1` this *is* [`run_open_system`](crate::run_open_system)
/// on `cfg.open` — the sum invariant forbids any capacity change, so
/// the top level is inert by construction.
///
/// # Panics
///
/// Panics on an inconsistent configuration (see
/// [`HierOpenConfig::validate`]) or a policy that violates the
/// partition invariants (wrong length, sum ≠ P, below the floor).
pub fn run_open_hierarchical<A, FA, E, C, G>(
    cfg: &HierOpenConfig,
    make_allocator: FA,
    make_executor: E,
    make_calculator: C,
    group_alloc: G,
) -> OpenOutcome
where
    A: Allocator + Send,
    FA: Fn(u32) -> A + Sync,
    E: Fn(&mut StdRng, Option<Box<dyn JobExecutor + Send>>) -> Box<dyn JobExecutor + Send> + Sync,
    C: Fn() -> Box<dyn RequestCalculator + Send> + Sync,
    G: GroupAllocator,
{
    run_open_hierarchical_with_threads(
        cfg,
        make_allocator,
        make_executor,
        make_calculator,
        group_alloc,
        pool_threads(),
    )
}

/// [`run_open_hierarchical`] with an explicit worker count. The
/// outcome is identical for every `threads` value by construction:
/// groups only interact at the epoch barrier, where desires are folded
/// in group-index order on the calling thread.
///
/// # Panics
///
/// Panics on an inconsistent configuration (see
/// [`HierOpenConfig::validate`]) or a policy that violates the
/// partition invariants (wrong length, sum ≠ P, below the floor).
pub fn run_open_hierarchical_with_threads<A, FA, E, C, G>(
    cfg: &HierOpenConfig,
    make_allocator: FA,
    make_executor: E,
    make_calculator: C,
    group_alloc: G,
    threads: usize,
) -> OpenOutcome
where
    A: Allocator + Send,
    FA: Fn(u32) -> A + Sync,
    E: Fn(&mut StdRng, Option<Box<dyn JobExecutor + Send>>) -> Box<dyn JobExecutor + Send> + Sync,
    C: Fn() -> Box<dyn RequestCalculator + Send> + Sync,
    G: GroupAllocator,
{
    run_open_hierarchical_detailed(
        cfg,
        make_allocator,
        make_executor,
        make_calculator,
        group_alloc,
        threads,
    )
    .0
}

/// [`run_open_hierarchical_with_threads`] returning the per-group
/// [`GroupSummary`] table alongside the merged outcome — the view the
/// skew experiments and examples use to show capacity following load.
///
/// # Panics
///
/// Panics on an inconsistent configuration (see
/// [`HierOpenConfig::validate`]) or a policy that violates the
/// partition invariants (wrong length, sum ≠ P, below the floor).
pub fn run_open_hierarchical_detailed<A, FA, E, C, G>(
    cfg: &HierOpenConfig,
    make_allocator: FA,
    make_executor: E,
    make_calculator: C,
    mut group_alloc: G,
    threads: usize,
) -> (OpenOutcome, Vec<GroupSummary>)
where
    A: Allocator + Send,
    FA: Fn(u32) -> A + Sync,
    E: Fn(&mut StdRng, Option<Box<dyn JobExecutor + Send>>) -> Box<dyn JobExecutor + Send> + Sync,
    C: Fn() -> Box<dyn RequestCalculator + Send> + Sync,
    G: GroupAllocator,
{
    cfg.assert_valid();
    if cfg.groups == 1 {
        // One group owns the whole machine forever: delegate verbatim
        // to the unpartitioned driver (same loop over the shared-RNG
        // arrival source, same fingerprints).
        let outcome = crate::driver::run_open_system(
            &cfg.open,
            make_allocator(cfg.open.processors),
            make_executor,
            make_calculator,
        );
        let (arrivals, utilization) = match &outcome {
            OpenOutcome::Steady(s) => (s.arrivals, s.measured_utilization),
            OpenOutcome::Unstable(u) => (u.arrivals, f64::NAN),
        };
        let summary = GroupSummary {
            group: 0,
            final_processors: cfg.open.processors,
            arrivals,
            utilization,
        };
        return (outcome, vec![summary]);
    }

    let processors = cfg.open.processors;
    let mut caps = equi_partition(processors, cfg.groups);
    let mut sims: Vec<GroupSim<A, RouterReplay>> = (0..cfg.groups)
        .zip(&caps)
        .map(|(k, &cap)| {
            GroupSim::new(
                &cfg.open,
                cap,
                measured_assigned(cfg, k),
                RouterReplay::new(cfg, k),
                make_allocator(cap),
                NullProbe,
            )
        })
        .collect();

    let epoch_steps = cfg.realloc_epoch.saturating_mul(cfg.open.quantum_len);
    let mut epoch: u64 = 1;
    loop {
        let until = epoch.saturating_mul(epoch_steps);
        advance_groups(&mut sims, threads, |sim| {
            sim.advance_until(&cfg.open, until, &mut &make_executor, &mut &make_calculator)
        });
        // Desire collection and reallocation happen on this thread, in
        // group-index order: the one serial point of each epoch.
        let desires: Vec<GroupDesire> = sims.iter_mut().map(GroupSim::fold_epoch).collect();
        if !sims.iter().any(GroupSim::is_running) {
            break;
        }
        let next = group_alloc.reallocate(processors, cfg.group_floor, &caps, &desires);
        assert_eq!(
            next.len(),
            cfg.groups as usize,
            "group allocator '{}' returned {} capacities for {} groups",
            group_alloc.name(),
            next.len(),
            cfg.groups
        );
        assert_eq!(
            next.iter().sum::<u32>(),
            processors,
            "group allocator '{}' must partition all {} processors: {next:?}",
            group_alloc.name(),
            processors
        );
        assert!(
            next.iter().all(|&cap| cap >= cfg.group_floor),
            "group allocator '{}' dropped below the floor {}: {next:?}",
            group_alloc.name(),
            cfg.group_floor
        );
        for (k, sim) in sims.iter_mut().enumerate() {
            if next[k] != caps[k] && sim.is_running() {
                sim.set_capacity(next[k], make_allocator(next[k]));
            }
        }
        caps = next;
        epoch += 1;
    }

    let summaries: Vec<GroupSummary> = sims
        .iter()
        .enumerate()
        .map(|(k, sim)| sim.summary(k as u32))
        .collect();
    let reports: Vec<GroupReport> = sims.into_iter().map(|sim| sim.into_report().0).collect();
    (merge_reports(&cfg.open, &reports), summaries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_open_system;
    use crate::saturation::SaturationConfig;
    use abg_alloc::DynamicEquiPartition;
    use abg_control::{AControl, ConservativeTwoLevel, DesireProportional, StaticEqui};
    use abg_dag::PhasedJob;
    use abg_sched::PipelinedExecutor;
    use abg_workload::{mean_gap_for_utilization, ArrivalProcess};

    fn config(rho: f64, groups: u32, routing: ShardRouting, realloc_epoch: u64) -> HierOpenConfig {
        HierOpenConfig {
            open: OpenConfig {
                processors: 16,
                quantum_len: 10,
                arrivals: ArrivalProcess::Poisson {
                    // Constant width-2, 40-level jobs: T1 = 80.
                    mean_gap: mean_gap_for_utilization(rho, 16, 80.0),
                },
                warmup_jobs: 40,
                measured_jobs: 160,
                batches: 8,
                max_quanta: 2_000_000,
                saturation: SaturationConfig::default(),
                seed: 0x5AAD,
            },
            groups,
            routing,
            realloc_epoch,
            group_floor: 1,
        }
    }

    fn run<G: GroupAllocator>(cfg: &HierOpenConfig, policy: G, threads: usize) -> OpenOutcome {
        run_open_hierarchical_with_threads(
            cfg,
            DynamicEquiPartition::new,
            |_rng, _recycled| Box::new(PipelinedExecutor::new(PhasedJob::constant(2, 40))),
            || Box::new(AControl::new(0.2)),
            policy,
            threads,
        )
    }

    #[test]
    fn static_equi_is_bit_identical_at_every_epoch_length() {
        // The compatibility anchor, at the module level: a top level
        // that never resizes anyone must leave every group's
        // simulation — and thus the merged outcome — bit-identical to
        // the fixed partition run as one unbounded epoch, whatever the
        // epoch length slices the groups' loops into.
        for groups in [2u32, 4, 8] {
            let unbounded = config(0.5, groups, ShardRouting::RoundRobin, u64::MAX);
            let baseline = run(&unbounded, StaticEqui, 1);
            for realloc_epoch in [1u64, 8, 64, 1000] {
                let cfg = config(0.5, groups, ShardRouting::RoundRobin, realloc_epoch);
                assert_eq!(
                    run(&cfg, StaticEqui, 1),
                    baseline,
                    "groups={groups} epoch={realloc_epoch}"
                );
            }
        }
    }

    #[test]
    fn one_group_delegates_to_the_unpartitioned_driver() {
        let cfg = config(0.5, 1, ShardRouting::RoundRobin, 16);
        let direct = run_open_system(
            &cfg.open,
            DynamicEquiPartition::new(cfg.open.processors),
            |_rng, _recycled| Box::new(PipelinedExecutor::new(PhasedJob::constant(2, 40))),
            || Box::new(AControl::new(0.2)),
        );
        assert_eq!(run(&cfg, DesireProportional::new(), 1), direct);
    }

    #[test]
    fn outcome_is_independent_of_thread_count_and_schedule() {
        for routing in [
            ShardRouting::RoundRobin,
            ShardRouting::HashJobSeed,
            ShardRouting::Skewed { hot: 4 },
        ] {
            let cfg = config(0.35, 4, routing, 16);
            let baseline = run(&cfg, DesireProportional::new(), 1);
            for threads in 2..=8 {
                assert_eq!(
                    run(&cfg, DesireProportional::new(), threads),
                    baseline,
                    "{routing:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn static_partition_statistics_are_sane_and_overload_trips() {
        let cfg = config(0.4, 4, ShardRouting::RoundRobin, u64::MAX);
        let out = run(&cfg, StaticEqui, 2);
        let stats = out.steady().expect("rho = 0.4 must be stable");
        assert_eq!(stats.completed, 160);
        assert!(stats.response.mean.is_finite() && stats.response.mean >= 40.0);
        assert!(stats.slowdown.p50 >= 1.0);
        assert!(stats.slowdown.p50 <= stats.slowdown.p95);
        assert!(stats.measured_utilization > 0.05 && stats.measured_utilization < 1.0);
        assert!(stats.mean_jobs_in_system > 0.0);
        assert!(stats.arrivals >= 160);

        let cfg = config(1.5, 4, ShardRouting::RoundRobin, u64::MAX);
        match run(&cfg, StaticEqui, 2) {
            OpenOutcome::Unstable(report) => {
                assert!(matches!(
                    report.reason,
                    SaturationReason::QueueGrowth { .. } | SaturationReason::InSystemCap { .. }
                ));
                assert!(report.jobs_in_system > 0);
            }
            OpenOutcome::Steady(s) => panic!("rho = 1.5 reported steady: {s:?}"),
        }
    }

    #[test]
    fn desire_feedback_beats_static_partitioning_under_skew() {
        // 4:1 skew at aggregate rho = 0.35: group 0's local load under
        // the fixed equi-partition is 0.35 * 16/7 = 0.8 (queued but
        // stable), while desire-proportional rebalances capacity until
        // every group's local load is back near 0.35. Mean response
        // must improve; both runs must stay steady.
        let cfg = config(0.35, 4, ShardRouting::Skewed { hot: 4 }, 16);
        let stat = run(&cfg, StaticEqui, 2);
        let desire = run(&cfg, DesireProportional::new(), 2);
        let stat = stat.steady().expect("static stays stable at 0.8 local");
        let desire = desire.steady().expect("desire must remain stable");
        assert!(
            desire.response.mean < stat.response.mean,
            "desire {} !< static {}",
            desire.response.mean,
            stat.response.mean
        );
    }

    #[test]
    fn group_summaries_show_capacity_following_load() {
        let cfg = config(0.35, 4, ShardRouting::Skewed { hot: 4 }, 16);
        let (outcome, groups) = run_open_hierarchical_detailed(
            &cfg,
            DynamicEquiPartition::new,
            |_rng, _recycled| Box::new(PipelinedExecutor::new(PhasedJob::constant(2, 40))),
            || Box::new(AControl::new(0.2)),
            DesireProportional::new(),
            1,
        );
        assert!(outcome.is_steady());
        assert_eq!(groups.len(), 4);
        assert_eq!(groups.iter().map(|g| g.final_processors).sum::<u32>(), 16);
        // The hot group sees ~4x the arrivals of any other group, and
        // the feedback loop should have granted it extra capacity.
        assert!(groups[0].arrivals > groups[1].arrivals);
        assert!(
            groups[0].final_processors > 4,
            "hot group ended at {} processors",
            groups[0].final_processors
        );
        for g in &groups {
            assert!(g.utilization.is_finite() && g.utilization >= 0.0);
        }
    }

    #[test]
    fn conservative_policy_stays_steady_and_deterministic() {
        let cfg = config(0.35, 4, ShardRouting::Skewed { hot: 4 }, 16);
        let a = run(&cfg, ConservativeTwoLevel::new(2.0, 0.8), 1);
        let b = run(&cfg, ConservativeTwoLevel::new(2.0, 0.8), 4);
        assert_eq!(a, b);
        assert!(a.is_steady(), "conservative policy tripped: {a:?}");
    }

    #[test]
    fn validate_reports_typed_hier_errors() {
        let mut cfg = config(0.5, 0, ShardRouting::RoundRobin, 16);
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroGroups));
        assert_eq!(
            cfg.validate().unwrap_err().to_string(),
            "need at least one processor group"
        );
        cfg.groups = 4;
        cfg.realloc_epoch = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::BadReallocEpoch));
        assert_eq!(
            cfg.validate().unwrap_err().to_string(),
            "need a positive reallocation epoch"
        );
        cfg.realloc_epoch = 16;
        cfg.group_floor = 5;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::BadGroupFloor {
                floor: 5,
                processors: 16,
                groups: 4
            })
        );
        assert_eq!(
            cfg.validate().unwrap_err().to_string(),
            "per-group floor must be between 1 and P/G (5 with 16 processors over 4 groups)"
        );
        cfg.group_floor = 0;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::BadGroupFloor { floor: 0, .. })
        ));
        // More groups than processors is a floor violation too.
        cfg.group_floor = 1;
        cfg.groups = 17;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::BadGroupFloor { .. })
        ));
        cfg.groups = 4;
        assert_eq!(cfg.validate(), Ok(()));
        // Aggregate-config violations surface through the same path.
        cfg.open.batches = 1;
        assert_eq!(cfg.validate(), Err(ConfigError::TooFewBatches));
    }

    #[test]
    #[should_panic(expected = "need a positive reallocation epoch")]
    fn zero_epoch_fails_fast_in_the_driver() {
        let cfg = config(0.5, 4, ShardRouting::RoundRobin, 0);
        let _ = run(&cfg, StaticEqui, 1);
    }
}
