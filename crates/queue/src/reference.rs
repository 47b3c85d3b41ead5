//! The quantum-by-quantum open-system driver, kept as a reference
//! implementation.
//!
//! [`run_open_system`](crate::run_open_system) used to execute this
//! exact loop: one allocate/step/observe round per quantum, every
//! quantum, with no event awareness. The event-driven driver replaced
//! it for speed, under the contract that every observable —
//! fingerprints, completion order, steady-state statistics, saturation
//! reports — stays **bit-identical**. This module preserves the old
//! loop verbatim so that contract is checkable by differential tests,
//! rather than an article of faith, and so the kernel suite can price
//! the event-driven driver against it: `open_event_reference` runs this
//! driver on the `open_event` kernel's configuration, and the suite
//! reports their steps-per-second ratio under `derived`.
//!
//! Like [`abg_sched::ReferenceExecutor`], it is always compiled and
//! public, but it exists as an oracle and a baseline: production runs
//! use [`run_open_system`](crate::run_open_system).
//!
//! The oracle stays literal about idle jobs too. The quantum core
//! replays a starved job whose executor certifies its zero-allotment
//! quanta through [`JobExecutor::steady_quanta`] (see
//! [`QuantumCore`]'s module documentation); this driver hands the core
//! every executor behind a private forwarding wrapper that keeps the
//! trait's default `steady_quanta` of 0, so the core certifies nothing
//! and steps every live job, idle or not, every quantum.

use crate::driver::{OpenConfig, OpenOutcome, SteadyStats, UnstableReport};
use crate::saturation::{SaturationDetector, SaturationReason};
use crate::stats::{batch_means, percentiles};
use abg_alloc::Allocator;
use abg_control::RequestCalculator;
use abg_sched::{JobExecutor, QuantumStats};
use abg_sim::{CompletedJob, NullProbe, Probe, QuantumCore};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The pre-event-driven open-system driver: steps the core one quantum
/// at a time with no frozen windows.
///
/// Exists solely as the ground truth the event-driven driver is
/// differentially tested (and benchmarked) against.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceOpenDriver;

impl ReferenceOpenDriver {
    /// Reference counterpart of [`run_open_system`].
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent configuration (see
    /// [`OpenConfig::validate`]).
    ///
    /// [`run_open_system`]: crate::run_open_system
    pub fn run<X, A, E, C>(
        cfg: &OpenConfig,
        allocator: A,
        make_executor: E,
        make_calculator: C,
    ) -> OpenOutcome
    where
        A: Allocator,
        X: JobExecutor,
        E: FnMut(&mut StdRng, Option<X>) -> X,
        C: FnMut() -> Box<dyn RequestCalculator + Send>,
    {
        Self::run_probed(cfg, allocator, make_executor, make_calculator, NullProbe).0
    }

    /// Reference counterpart of [`run_open_system_probed`] — the legacy
    /// loop with a probe threaded through.
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent configuration (see
    /// [`OpenConfig::validate`]).
    ///
    /// [`run_open_system_probed`]: crate::run_open_system_probed
    pub fn run_probed<X, A, E, C, P>(
        cfg: &OpenConfig,
        allocator: A,
        mut make_executor: E,
        mut make_calculator: C,
        probe: P,
    ) -> (OpenOutcome, P)
    where
        A: Allocator,
        X: JobExecutor,
        E: FnMut(&mut StdRng, Option<X>) -> X,
        C: FnMut() -> Box<dyn RequestCalculator + Send>,
        P: Probe,
    {
        cfg.assert_valid();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut stream = cfg.arrivals.stream();
        let mut engine = QuantumCore::new(allocator, cfg.quantum_len, probe);
        let mut detector = SaturationDetector::new(cfg.saturation);

        let warmup = cfg.warmup_jobs;
        let measured = cfg.measured_jobs;
        let mut responses = vec![f64::NAN; measured as usize];
        let mut slowdowns = vec![f64::NAN; measured as usize];
        let mut outstanding = measured;

        let mut arrivals = 0u64;
        let mut next_arrival = stream.next_arrival(&mut rng);
        let mut completed_work = 0u64;
        let mut done: Vec<CompletedJob> = Vec::new();
        let mut pool: Vec<X> = Vec::new();
        let mut reclaimed: Vec<Literal<X>> = Vec::new();

        let outcome = loop {
            while next_arrival <= engine.now() {
                let executor = Literal(make_executor(&mut rng, pool.pop()));
                engine.admit(executor, make_calculator(), next_arrival);
                arrivals += 1;
                next_arrival = stream.next_arrival(&mut rng);
            }
            if !engine.any_live() {
                engine.skip_idle_until(next_arrival);
                continue;
            }

            done.clear();
            engine.step_quantum_reclaiming(&mut done, &mut reclaimed);
            pool.extend(reclaimed.drain(..).map(|literal| literal.0));
            detector.record(engine.jobs_in_system());

            for job in &done {
                completed_work += job.work;
                if job.id < warmup || job.id >= warmup + measured {
                    continue;
                }
                let slot = (job.id - warmup) as usize;
                let response = job.response_time() as f64;
                let lower = (job.span as f64).max(job.work as f64 / cfg.processors as f64);
                responses[slot] = response;
                slowdowns[slot] = response / lower.max(1.0);
                outstanding -= 1;
            }

            if outstanding == 0 {
                let response = batch_means(&responses, cfg.batches)
                    .expect("validate() guarantees one observation per batch");
                let slowdown = percentiles(&slowdowns).expect("measured_jobs > 0");
                let horizon = engine.now();
                break OpenOutcome::Steady(SteadyStats {
                    response,
                    slowdown,
                    completed: measured,
                    arrivals,
                    quanta: engine.quanta(),
                    horizon,
                    mean_jobs_in_system: detector.mean_jobs_in_system(),
                    peak_jobs_in_system: detector.peak_jobs_in_system(),
                    measured_utilization: measured_utilization(
                        completed_work,
                        cfg.processors,
                        horizon,
                    ),
                });
            }

            let reason = detector.check().or_else(|| {
                (engine.quanta() >= cfg.max_quanta).then_some(SaturationReason::HorizonExhausted {
                    quanta: cfg.max_quanta,
                })
            });
            if let Some(reason) = reason {
                break OpenOutcome::Unstable(UnstableReport {
                    reason,
                    quanta: engine.quanta(),
                    horizon: engine.now(),
                    jobs_in_system: engine.jobs_in_system() as u64,
                    completed: measured - outstanding,
                    arrivals,
                });
            }
        };
        (outcome, engine.into_probe())
    }
}

/// An executor with every method forwarded except
/// [`steady_quanta`](JobExecutor::steady_quanta), which keeps the
/// trait's default of 0: the core never certifies a job as idle, so the
/// oracle steps every live job every quantum.
struct Literal<X>(X);

impl<X: JobExecutor> JobExecutor for Literal<X> {
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
    fn try_reset(&mut self) -> bool {
        self.0.try_reset()
    }
}

/// Completed work over machine capacity `P · horizon`, guarded so a run
/// aborted before executing a single quantum (`horizon == 0`) reports a
/// utilization of zero instead of `0/0 = NaN`.
fn measured_utilization(completed_work: u64, processors: u32, horizon: u64) -> f64 {
    if horizon == 0 {
        return 0.0;
    }
    completed_work as f64 / (processors as f64 * horizon as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::saturation::SaturationConfig;

    #[test]
    fn zero_horizon_abort_yields_zero_utilization_not_nan() {
        // A run aborted before executing a single quantum used to feed
        // `0 / (P · 0)` into the utilization — a NaN that poisoned any
        // aggregation over it.
        assert_eq!(measured_utilization(0, 16, 0).to_bits(), 0.0_f64.to_bits());
        // Normal case unchanged.
        assert_eq!(measured_utilization(320, 16, 10), 2.0);
        // The companion statistic over an empty detector history is
        // likewise a plain zero.
        let detector = SaturationDetector::new(SaturationConfig::default());
        assert_eq!(detector.mean_jobs_in_system().to_bits(), 0.0_f64.to_bits());
    }
}
