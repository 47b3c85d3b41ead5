//! Outside-in layer tracing: forwarding wrappers around the library's
//! public layer traits, with per-layer call counters and sampled timers.
//!
//! [`Traced`] wraps a `JobExecutor` (`sched`), a `Controller`
//! (`control`), an `Allocator` (`alloc`) or a `GroupAllocator` (`hier`)
//! and forwards **every** trait method to the wrapped value. A provided
//! hook left to its default would change the simulation — a missing
//! `steady_quanta`, `supports_frozen_stepping`, `is_steady` or
//! `allocation_stability` forward silently disables frozen stepping — so
//! the tests at the bottom check each forward, and the benchmark checks
//! that traced outcomes fingerprint identically to untraced ones.
//!
//! Every call is counted. Cheap calls are timed only on a deterministic
//! sample (every [`SAMPLE_EVERY`]-th call of the layer): timing each one
//! costs two clock reads, which would dominate sub-microsecond quanta.
//! Counters are process-wide relaxed atomics — pure statistics that
//! publish no other data — and the traced passes run on one thread, so
//! the sample is the same calls on every run.

use abg::alloc::{AllocationStability, Allocator};
use abg::control::{Controller, GroupAllocator, GroupDesire};
use abg::sched::{JobExecutor, QuantumStats};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// One call in this many of a sampled layer is timed.
pub const SAMPLE_EVERY: u64 = 16;

/// Calls, and the timed share of them, of one layer entry point.
pub struct Layer {
    calls: AtomicU64,
    timed: AtomicU64,
    timed_ns: AtomicU64,
}

impl Layer {
    const fn new() -> Self {
        Self {
            calls: AtomicU64::new(0),
            timed: AtomicU64::new(0),
            timed_ns: AtomicU64::new(0),
        }
    }

    /// Counts the call and times it if it falls in the sample.
    #[inline]
    pub fn sampled<R>(&self, f: impl FnOnce() -> R) -> R {
        if !ENABLED.load(Relaxed) {
            return f();
        }
        if !self
            .calls
            .fetch_add(1, Relaxed)
            .is_multiple_of(SAMPLE_EVERY)
        {
            return f();
        }
        self.timed_call(f)
    }

    /// Counts and times the call: for entry points slow enough that two
    /// clock reads do not matter.
    #[inline]
    pub fn every<R>(&self, f: impl FnOnce() -> R) -> R {
        if !ENABLED.load(Relaxed) {
            return f();
        }
        self.calls.fetch_add(1, Relaxed);
        self.timed_call(f)
    }

    fn timed_call<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.timed.fetch_add(1, Relaxed);
        self.timed_ns.fetch_add(ns, Relaxed);
        r
    }

    fn snapshot(&self) -> LayerStats {
        LayerStats {
            calls: self.calls.load(Relaxed),
            timed: self.timed.load(Relaxed),
            timed_ns: self.timed_ns.load(Relaxed),
        }
    }

    fn reset(&self) {
        self.calls.store(0, Relaxed);
        self.timed.store(0, Relaxed);
        self.timed_ns.store(0, Relaxed);
    }
}

/// A plain counter (no timing).
pub struct Count(AtomicU64);

impl Count {
    const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if ENABLED.load(Relaxed) {
            self.0.fetch_add(n, Relaxed);
        }
    }
}

/// Whether the wrappers count and time; off, they only forward.
static ENABLED: AtomicBool = AtomicBool::new(false);

pub static GENERATE: Layer = Layer::new();
pub static EXECUTOR_NEW: Layer = Layer::new();
pub static RUN_QUANTUM: Layer = Layer::new();
pub static STEADY_QUANTA: Layer = Layer::new();
pub static OBSERVE: Layer = Layer::new();
pub static ALLOCATE: Layer = Layer::new();
pub static REALLOCATE: Layer = Layer::new();
pub static ALLOCATOR_BUILDS: Count = Count::new();
pub static STEPS: Count = Count::new();
pub static QUANTA: Count = Count::new();
pub static STEADY_HITS: Count = Count::new();
pub static JOBS_ALLOCATED: Count = Count::new();

/// Counter values of one layer entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayerStats {
    pub calls: u64,
    pub timed: u64,
    pub timed_ns: u64,
}

impl LayerStats {
    /// Estimated mean self time per call, with the clock-read cost that
    /// each timed interval contains taken out.
    pub fn mean_ns(&self, timer_ns: f64) -> f64 {
        if self.timed == 0 {
            return 0.0;
        }
        ((self.timed_ns as f64 - self.timed as f64 * timer_ns) / self.timed as f64).max(0.0)
    }

    /// Estimated total self time of every call, in seconds.
    pub fn total_s(&self, timer_ns: f64) -> f64 {
        self.mean_ns(timer_ns) * self.calls as f64 * 1e-9
    }
}

/// Every counter at one moment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Snapshot {
    pub generate: LayerStats,
    pub executor_new: LayerStats,
    pub run_quantum: LayerStats,
    pub steady_quanta: LayerStats,
    pub observe: LayerStats,
    pub allocate: LayerStats,
    pub reallocate: LayerStats,
    pub allocator_builds: u64,
    pub steps: u64,
    pub quanta: u64,
    pub steady_hits: u64,
    pub jobs_allocated: u64,
}

impl Snapshot {
    /// The call counts alone — the part that must repeat exactly.
    pub fn counts(&self) -> [u64; 12] {
        [
            self.generate.calls,
            self.executor_new.calls,
            self.run_quantum.calls,
            self.steady_quanta.calls,
            self.observe.calls,
            self.allocate.calls,
            self.reallocate.calls,
            self.allocator_builds,
            self.steps,
            self.quanta,
            self.steady_hits,
            self.jobs_allocated,
        ]
    }

    /// Estimated self time of every wrapped layer, in seconds.
    pub fn wrapped_s(&self, timer_ns: f64) -> f64 {
        [
            self.generate,
            self.executor_new,
            self.run_quantum,
            self.steady_quanta,
            self.observe,
            self.allocate,
            self.reallocate,
        ]
        .iter()
        .map(|l| l.total_s(timer_ns))
        .sum()
    }
}

/// Zeroes every counter and turns tracing on or off.
pub fn reset(enabled: bool) {
    for layer in [
        &GENERATE,
        &EXECUTOR_NEW,
        &RUN_QUANTUM,
        &STEADY_QUANTA,
        &OBSERVE,
        &ALLOCATE,
        &REALLOCATE,
    ] {
        layer.reset();
    }
    for count in [
        &ALLOCATOR_BUILDS,
        &STEPS,
        &QUANTA,
        &STEADY_HITS,
        &JOBS_ALLOCATED,
    ] {
        count.0.store(0, Relaxed);
    }
    ENABLED.store(enabled, Relaxed);
}

pub fn snapshot() -> Snapshot {
    Snapshot {
        generate: GENERATE.snapshot(),
        executor_new: EXECUTOR_NEW.snapshot(),
        run_quantum: RUN_QUANTUM.snapshot(),
        steady_quanta: STEADY_QUANTA.snapshot(),
        observe: OBSERVE.snapshot(),
        allocate: ALLOCATE.snapshot(),
        reallocate: REALLOCATE.snapshot(),
        allocator_builds: ALLOCATOR_BUILDS.0.load(Relaxed),
        steps: STEPS.0.load(Relaxed),
        quanta: QUANTA.0.load(Relaxed),
        steady_hits: STEADY_HITS.0.load(Relaxed),
        jobs_allocated: JOBS_ALLOCATED.0.load(Relaxed),
    }
}

/// Mean cost of one `Instant::now` read, in nanoseconds, measured here.
pub fn calibrate_timer_ns() -> f64 {
    const READS: u32 = 200_000;
    let start = Instant::now();
    let mut last = start;
    for _ in 0..READS {
        last = std::hint::black_box(Instant::now());
    }
    (last - start).as_nanos() as f64 / READS as f64
}

/// A layer object behind a counting, forwarding wrapper.
#[derive(Debug, Clone)]
pub struct Traced<T>(pub T);

impl<E: JobExecutor> JobExecutor for Traced<E> {
    fn run_quantum(&mut self, allotment: u32, steps: u64) -> QuantumStats {
        STEPS.add(steps);
        let inner = &mut self.0;
        RUN_QUANTUM.sampled(|| inner.run_quantum(allotment, steps))
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
    fn steady_quanta(&self, allotment: u32, steps: u64, stats: &QuantumStats) -> u64 {
        let m = STEADY_QUANTA.sampled(|| self.0.steady_quanta(allotment, steps, stats));
        STEADY_HITS.add(u64::from(m > 0));
        m
    }
}

impl<C: Controller> Controller for Traced<C> {
    fn initial_request(&self) -> f64 {
        self.0.initial_request()
    }
    fn observe(&mut self, stats: &QuantumStats) -> f64 {
        let inner = &mut self.0;
        OBSERVE.sampled(|| inner.observe(stats))
    }
    fn current_request(&self) -> f64 {
        self.0.current_request()
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn initial_quantum_len(&self, default_len: u64) -> u64 {
        self.0.initial_quantum_len(default_len)
    }
    fn next_quantum_len(&mut self, default_len: u64) -> u64 {
        self.0.next_quantum_len(default_len)
    }
    fn supports_frozen_stepping(&self) -> bool {
        self.0.supports_frozen_stepping()
    }
    fn is_steady(&self, stats: &QuantumStats) -> bool {
        self.0.is_steady(stats)
    }
}

impl<A: Allocator + Clone> Allocator for Traced<A> {
    fn allocate_into(&mut self, requests: &[f64], out: &mut Vec<u32>) {
        JOBS_ALLOCATED.add(requests.len() as u64);
        let inner = &mut self.0;
        ALLOCATE.sampled(|| inner.allocate_into(requests, out))
    }
    fn availabilities(&mut self, requests: &[f64]) -> Vec<u32> {
        self.0.availabilities(requests)
    }
    fn try_availabilities(&mut self, requests: &[f64], out: &mut Vec<u32>) -> bool {
        self.0.try_availabilities(requests, out)
    }
    fn total_processors(&self) -> u32 {
        self.0.total_processors()
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn allocation_stability(&self) -> AllocationStability {
        self.0.allocation_stability()
    }
}

/// A group allocator that also records the wall time between its
/// `reallocate` calls — one hierarchical epoch each.
pub struct EpochTimed<'a, G> {
    pub inner: G,
    pub epochs_ns: &'a mut Vec<u64>,
    pub last: Option<Instant>,
}

impl<G: GroupAllocator> GroupAllocator for EpochTimed<'_, G> {
    fn reallocate(
        &mut self,
        processors: u32,
        floor: u32,
        current: &[u32],
        desires: &[GroupDesire],
    ) -> Vec<u32> {
        let now = Instant::now();
        if let Some(last) = self.last.replace(now) {
            self.epochs_ns.push((now - last).as_nanos() as u64);
        }
        let inner = &mut self.inner;
        REALLOCATE.every(|| inner.reallocate(processors, floor, current, desires))
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    //! Each provided hook is given a non-default answer by a fake, so a
    //! forward that falls back to the trait default fails its assert.

    use super::*;
    use abg::control::StaticEqui;

    struct FakeExecutor {
        reset: bool,
    }

    fn stats() -> QuantumStats {
        QuantumStats {
            allotment: 2,
            quantum_len: 10,
            steps_worked: 10,
            work: 20,
            span: 10.0,
            completed: false,
        }
    }

    impl JobExecutor for FakeExecutor {
        fn run_quantum(&mut self, _allotment: u32, _steps: u64) -> QuantumStats {
            stats()
        }
        fn is_complete(&self) -> bool {
            true
        }
        fn total_work(&self) -> u64 {
            11
        }
        fn total_span(&self) -> u64 {
            12
        }
        fn completed_work(&self) -> u64 {
            13
        }
        fn elapsed_steps(&self) -> u64 {
            14
        }
        fn try_reset(&mut self) -> bool {
            self.reset = true;
            true
        }
        fn steady_quanta(&self, _allotment: u32, _steps: u64, _stats: &QuantumStats) -> u64 {
            7
        }
    }

    struct FakeController;

    impl Controller for FakeController {
        fn initial_request(&self) -> f64 {
            3.0
        }
        fn observe(&mut self, _stats: &QuantumStats) -> f64 {
            4.0
        }
        fn current_request(&self) -> f64 {
            5.0
        }
        fn name(&self) -> &'static str {
            "fake"
        }
        fn initial_quantum_len(&self, default_len: u64) -> u64 {
            default_len + 1
        }
        fn next_quantum_len(&mut self, default_len: u64) -> u64 {
            default_len + 2
        }
        fn supports_frozen_stepping(&self) -> bool {
            true
        }
        fn is_steady(&self, _stats: &QuantumStats) -> bool {
            true
        }
    }

    #[derive(Clone)]
    struct FakeAllocator;

    impl Allocator for FakeAllocator {
        fn allocate_into(&mut self, requests: &[f64], out: &mut Vec<u32>) {
            out.clear();
            out.extend(requests.iter().map(|_| 1));
        }
        fn availabilities(&mut self, requests: &[f64]) -> Vec<u32> {
            vec![9; requests.len()]
        }
        fn try_availabilities(&mut self, requests: &[f64], out: &mut Vec<u32>) -> bool {
            out.clear();
            out.extend(requests.iter().map(|_| 8));
            true
        }
        fn total_processors(&self) -> u32 {
            6
        }
        fn name(&self) -> &'static str {
            "fake"
        }
        fn allocation_stability(&self) -> AllocationStability {
            AllocationStability::ByCeilings
        }
    }

    #[test]
    fn executor_forwards_every_hook() {
        let mut t = Traced(FakeExecutor { reset: false });
        assert_eq!(t.run_quantum(2, 10), stats());
        assert!(t.is_complete());
        assert_eq!(
            [
                t.total_work(),
                t.total_span(),
                t.completed_work(),
                t.elapsed_steps()
            ],
            [11, 12, 13, 14]
        );
        assert!(t.try_reset() && t.0.reset);
        assert_eq!(t.steady_quanta(2, 10, &stats()), 7);
    }

    #[test]
    fn controller_forwards_every_hook() {
        let mut t = Traced(FakeController);
        assert_eq!(t.initial_request(), 3.0);
        assert_eq!(t.observe(&stats()), 4.0);
        assert_eq!(t.current_request(), 5.0);
        assert_eq!(t.name(), "fake");
        assert_eq!(t.initial_quantum_len(10), 11);
        assert_eq!(t.next_quantum_len(10), 12);
        assert!(t.supports_frozen_stepping());
        assert!(t.is_steady(&stats()));
    }

    #[test]
    fn allocator_forwards_every_hook() {
        let mut t = Traced(FakeAllocator);
        assert_eq!(t.allocate(&[1.0, 2.0]), vec![1, 1]);
        assert_eq!(t.availabilities(&[1.0]), vec![9]);
        let mut out = Vec::new();
        assert!(t.try_availabilities(&[1.0], &mut out));
        assert_eq!(out, vec![8]);
        assert_eq!(t.total_processors(), 6);
        assert_eq!(t.name(), "fake");
        assert_eq!(t.allocation_stability(), AllocationStability::ByCeilings);
    }

    #[test]
    fn group_allocator_forwards_and_times_epochs() {
        let mut epochs = Vec::new();
        let mut t = EpochTimed {
            inner: StaticEqui,
            epochs_ns: &mut epochs,
            last: None,
        };
        let desires = [GroupDesire::default(); 2];
        assert_eq!(t.reallocate(8, 1, &[4, 4], &desires), vec![4, 4]);
        assert_eq!(t.reallocate(8, 1, &[4, 4], &desires), vec![4, 4]);
        assert_eq!(t.name(), StaticEqui.name());
        assert_eq!(epochs.len(), 1);
    }
}
