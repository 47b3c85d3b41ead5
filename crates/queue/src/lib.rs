//! Open-system queueing subsystem for the ABG reproduction.
//!
//! The paper's experiments are *closed*: a fixed job set is released,
//! the machine runs to drain, and makespan/waste are compared. Real
//! schedulers also face the *open* regime — jobs arrive indefinitely
//! from a stationary process and the question becomes whether the
//! system is stable at a given offered load ρ and, when it is, what
//! mean response time and slowdown jobs see in steady state.
//!
//! This crate supplies that regime on top of the shared
//! [`abg_sim::QuantumEngine`] stepping core:
//!
//! * [`driver`] — [`run_open_system`]: sustained-arrival simulation
//!   whose memory footprint tracks the in-system population, not the
//!   total number of arrivals. The driver is *event-driven*: between
//!   arrivals, completions, request changes, and saturation checks it
//!   macro-steps the core across frozen quanta in bulk
//!   ([`abg_sim::QuantumCore::advance_frozen`]) instead of burning an
//!   allocate/step/observe round per quantum, with bit-identical
//!   observables;
//! * [`hier`] — [`run_open_hierarchical`]: the machine partitioned
//!   into processor groups on a worker pool (honoring `ABG_THREADS`),
//!   where a feedback-driven [`abg_control::GroupAllocator`]
//!   repartitions the machine among the groups at fixed reallocation
//!   epochs from per-group desire reports. A fixed partition is the
//!   never-resizing [`abg_control::StaticEqui`] run as one unbounded
//!   epoch. The outcome never depends on thread count or schedule;
//! * [`events`] — the pending-event layer: the two arrival sources and
//!   the frozen-window bound arithmetic;
//! * [`routing`] — the deterministic [`ShardRouting`] policies that
//!   split arrivals over processor groups;
//! * [`stats`] — [`batch_means`] confidence intervals and nearest-rank
//!   [`percentiles`] for steady-state output analysis, plus the
//!   slot-ordered merge of per-group samples;
//! * [`saturation`] — the [`SaturationDetector`] queue-length trend
//!   test that aborts never-steady runs (ρ ≥ 1) instead of hanging;
//! * `reference` (tests / `test-support` feature only) — the legacy
//!   quantum-by-quantum loop, kept as the differential-testing ground
//!   truth for the event-driven driver.
//!
//! **One loop, two arrival sources.** Both drivers run the same
//! resumable event loop (admission, idle skip, real quantum, frozen
//! windows, saturation trip, measurement). [`run_open_system`] feeds it
//! from one shared RNG that interleaves arrival-gap and job-structure
//! draws and runs it as a single unbounded epoch; each hierarchical
//! group feeds it from a replay of the shared router path that keeps
//! the arrivals routed to that group, with per-arrival job seeds.
//!
//! Offered load is set through
//! [`abg_workload::mean_gap_for_utilization`]: ρ = E\[T₁\] / (gap · P),
//! so solving for the Poisson mean gap pins the sweep points.
//!
//! ```
//! use abg_alloc::DynamicEquiPartition;
//! use abg_control::AControl;
//! use abg_dag::PhasedJob;
//! use abg_queue::{run_open_system, OpenConfig, SaturationConfig};
//! use abg_sched::PipelinedExecutor;
//! use abg_workload::{mean_gap_for_utilization, ArrivalProcess};
//!
//! let cfg = OpenConfig {
//!     processors: 8,
//!     quantum_len: 10,
//!     arrivals: ArrivalProcess::Poisson {
//!         // T1 = 2 * 30 = 60 steps per job, offered at rho = 0.4.
//!         mean_gap: mean_gap_for_utilization(0.4, 8, 60.0),
//!     },
//!     warmup_jobs: 20,
//!     measured_jobs: 60,
//!     batches: 6,
//!     max_quanta: 1_000_000,
//!     saturation: SaturationConfig::default(),
//!     seed: 42,
//! };
//! let outcome = run_open_system(
//!     &cfg,
//!     DynamicEquiPartition::new(cfg.processors),
//!     |_rng, _recycled| Box::new(PipelinedExecutor::new(PhasedJob::constant(2, 30))),
//!     || Box::new(AControl::new(0.2)),
//! );
//! let stats = outcome.steady().expect("light load is stable");
//! assert!(stats.response.mean.is_finite());
//! assert!(stats.slowdown.p50 >= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod events;
pub mod hier;
#[cfg(test)]
mod lockstep;
#[cfg(any(test, feature = "test-support"))]
pub mod reference;
pub mod routing;
pub mod saturation;
pub mod stats;

pub use driver::{
    run_open_system, run_open_system_probed, ConfigError, OpenConfig, OpenOutcome, SteadyStats,
    UnstableReport,
};
pub use hier::{
    run_open_hierarchical, run_open_hierarchical_detailed, run_open_hierarchical_with_threads,
    GroupSummary, HierOpenConfig,
};
#[cfg(any(test, feature = "test-support"))]
pub use reference::ReferenceOpenDriver;
pub use routing::ShardRouting;
pub use saturation::{SaturationConfig, SaturationDetector, SaturationReason};
pub use stats::{
    batch_means, merge_shard_samples, merged_batch_means, percentiles, weighted_mean,
    ConfidenceInterval, PercentileSummary,
};
