//! Release (arrival) schedules for job sets, and unbounded arrival
//! processes for open-system simulation.
//!
//! [`ReleaseSchedule`] samples release times for a *fixed-size* job set
//! (the closed-system regimes of the paper's Figure 6).
//! [`ArrivalProcess`] extends the same idea to a *stationary stream*: an
//! unbounded sequence of arrival times for sustained-load (open-system)
//! simulation, plus the arithmetic for solving the inter-arrival gap
//! that offers a target utilization ρ to the machine.

use rand::{Rng, RngExt as _};
use serde::{Deserialize, Serialize};

/// How the jobs of a set arrive.
///
/// The paper's Theorem 5 bounds the makespan for *arbitrary* release
/// times and the mean response time for *batched* sets (all jobs
/// released together); the simulations of Figure 6 use both regimes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ReleaseSchedule {
    /// All jobs released at step 0.
    Batched,
    /// Release times drawn uniformly from `[0, horizon]`.
    Uniform {
        /// Latest possible release step.
        horizon: u64,
    },
    /// Poisson arrivals with the given mean inter-arrival gap in steps
    /// (exponential gaps, one job after another).
    Poisson {
        /// Mean inter-arrival time in steps.
        mean_gap: f64,
    },
}

impl ReleaseSchedule {
    /// Samples release times for `n` jobs.
    ///
    /// # Panics
    ///
    /// Panics if a `Poisson` schedule has a non-positive or non-finite
    /// mean gap.
    pub fn sample<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<u64> {
        match *self {
            ReleaseSchedule::Batched => vec![0; n],
            ReleaseSchedule::Uniform { horizon } => {
                (0..n).map(|_| rng.random_range(0..=horizon)).collect()
            }
            ReleaseSchedule::Poisson { mean_gap } => {
                assert!(
                    mean_gap.is_finite() && mean_gap > 0.0,
                    "mean inter-arrival gap must be positive, got {mean_gap}"
                );
                let mut t = 0.0f64;
                (0..n)
                    .map(|_| {
                        // Inverse-CDF exponential sampling; the `1 - u`
                        // guard keeps ln() finite.
                        let u: f64 = rng.random();
                        t += -mean_gap * (1.0 - u).ln();
                        t as u64
                    })
                    .collect()
            }
        }
    }
}

/// A stationary inter-arrival process for an *unbounded* job stream —
/// the open-system counterpart of [`ReleaseSchedule`].
///
/// Where a schedule samples `n` release times up front, a process is
/// turned into an [`ArrivalStream`] that produces one arrival time after
/// another for as long as the simulation runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Poisson arrivals: exponential inter-arrival gaps with the given
    /// mean in steps.
    Poisson {
        /// Mean inter-arrival time in steps.
        mean_gap: f64,
    },
    /// Trace-driven arrivals: the given inter-arrival gaps (steps),
    /// replayed cyclically. Zero gaps model batch arrivals inside the
    /// trace; at least one gap must be positive so time advances.
    Trace {
        /// Inter-arrival gaps in steps, cycled indefinitely.
        gaps: Vec<u64>,
    },
}

impl ArrivalProcess {
    /// Starts a fresh stream of this process from time 0.
    ///
    /// # Panics
    ///
    /// Panics if a `Poisson` process has a non-positive or non-finite
    /// mean gap, or a `Trace` process has no gaps or only zero gaps.
    pub fn stream(&self) -> ArrivalStream {
        match self {
            ArrivalProcess::Poisson { mean_gap } => {
                assert!(
                    mean_gap.is_finite() && *mean_gap > 0.0,
                    "mean inter-arrival gap must be positive, got {mean_gap}"
                );
            }
            ArrivalProcess::Trace { gaps } => {
                assert!(!gaps.is_empty(), "arrival trace must contain gaps");
                assert!(
                    gaps.iter().any(|&g| g > 0),
                    "arrival trace needs at least one positive gap so time advances"
                );
            }
        }
        ArrivalStream {
            process: self.clone(),
            clock: 0.0,
            index: 0,
        }
    }

    /// The mean inter-arrival gap of the process in steps (trace
    /// processes average over one cycle).
    pub fn mean_gap(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { mean_gap } => *mean_gap,
            ArrivalProcess::Trace { gaps } => gaps.iter().sum::<u64>() as f64 / gaps.len() as f64,
        }
    }
}

/// An unbounded, stateful stream of arrival times drawn from an
/// [`ArrivalProcess`]. Arrival times are non-decreasing absolute steps.
#[derive(Debug, Clone)]
pub struct ArrivalStream {
    process: ArrivalProcess,
    clock: f64,
    index: usize,
}

impl ArrivalStream {
    /// Splits the stream into `n` round-robin substreams for sharded
    /// simulation: substream `k` yields arrivals `k`, `k + n`,
    /// `k + 2n`, … of the path this stream would produce.
    ///
    /// Each [`ArrivalSubstream`] carries a SplitMix64-derived
    /// [`seed`](ArrivalSubstream::seed) of its own, mixed from `seed`
    /// and the substream index. The two intended drive modes:
    ///
    /// * **partition** — every substream replays with an RNG seeded
    ///   *identically* (e.g. the parent seed): the substreams then
    ///   decimate one common path, and the union of their arrivals is
    ///   exactly the aggregate stream (sharded drivers use this so the
    ///   offered load is split without changing the total);
    /// * **independent** — each substream replays with an RNG seeded
    ///   from its *own* derived seed: the substreams are independent
    ///   renewal processes at `1/n` of the aggregate rate, so their
    ///   union still offers the aggregate utilization in expectation.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn split(&self, n: usize, seed: u64) -> Vec<ArrivalSubstream> {
        assert!(n > 0, "need at least one substream");
        (0..n)
            .map(|k| ArrivalSubstream {
                seed: splitmix_seed(seed, k as u64, n as u64),
                stream: self.clone(),
                skip: k,
                stride: n,
            })
            .collect()
    }

    /// Produces the next arrival time (absolute step).
    pub fn next_arrival<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        match &self.process {
            ArrivalProcess::Poisson { mean_gap } => {
                // Inverse-CDF exponential sampling; the `1 - u` guard
                // keeps ln() finite (same recipe as ReleaseSchedule).
                let u: f64 = rng.random();
                self.clock += -mean_gap * (1.0 - u).ln();
                self.clock as u64
            }
            ArrivalProcess::Trace { gaps } => {
                let gap = gaps[self.index % gaps.len()];
                self.index += 1;
                self.clock += gap as f64;
                self.clock as u64
            }
        }
    }
}

/// Derives a substream (or shard) seed from a base seed and two
/// indices — SplitMix64-style mixing, so nearby indices map to
/// statistically independent seeds. Deterministic in its inputs;
/// sharded drivers use it to pin per-shard RNG streams to the run seed
/// independently of thread count and schedule.
pub fn splitmix_seed(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One of `n` round-robin substreams of an [`ArrivalStream`] (see
/// [`ArrivalStream::split`]): replays the parent process with the RNG
/// the caller drives it with, yielding every `n`-th arrival of that
/// replayed path starting at the substream's index.
///
/// The skipped arrivals still consume their RNG draws, so `n`
/// substreams driven with identically seeded RNGs decimate *one*
/// common path and partition it exactly.
#[derive(Debug, Clone)]
pub struct ArrivalSubstream {
    /// SplitMix64-derived seed for this substream (mixed from the split
    /// seed and the substream index) — seed an `StdRng` from it to
    /// drive the substream as an independent process.
    pub seed: u64,
    stream: ArrivalStream,
    skip: usize,
    stride: usize,
}

impl ArrivalSubstream {
    /// Produces the substream's next arrival time (absolute step),
    /// skipping the arrivals owned by sibling substreams.
    pub fn next_arrival<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        for _ in 0..self.skip {
            let _ = self.stream.next_arrival(rng);
        }
        self.skip = self.stride - 1;
        self.stream.next_arrival(rng)
    }

    /// The number of substreams the parent stream was split into.
    pub fn stride(&self) -> usize {
        self.stride
    }
}

/// Monte-Carlo estimate of the expected work `E[T1]` of a job
/// population, from `samples` draws of the generator.
///
/// Open-system load sweeps size their arrival rate from this estimate
/// (see [`mean_gap_for_utilization`]); using a fixed seed makes the
/// estimate — and with it the whole sweep — deterministic.
///
/// # Panics
///
/// Panics if `samples == 0`.
pub fn expected_work<R, F>(samples: u32, rng: &mut R, mut generate: F) -> f64
where
    R: Rng + ?Sized,
    F: FnMut(&mut R) -> abg_dag::PhasedJob,
{
    expected_work_of(samples, rng, |rng| generate(rng).work() as f64)
}

/// Monte-Carlo estimate of the expected work `E[T1]` of an *arbitrary*
/// job population: `work_of` maps one draw of the generator state to
/// that job's total work in processor-steps.
///
/// This is the weighted-job generalisation of [`expected_work`] (which
/// delegates here, with an identical summation order, so unit-job
/// estimates are numerically unchanged): workflow populations whose
/// tasks carry non-unit weights report `ExplicitDag::work()` — the sum
/// of integer task costs — and ρ targeting via
/// [`mean_gap_for_utilization`] stays correct without caring what kind
/// of job the stream releases.
///
/// # Panics
///
/// Panics if `samples == 0`.
pub fn expected_work_of<R, F>(samples: u32, rng: &mut R, mut work_of: F) -> f64
where
    R: Rng + ?Sized,
    F: FnMut(&mut R) -> f64,
{
    assert!(samples > 0, "need at least one sample to estimate work");
    (0..samples).map(|_| work_of(rng)).sum::<f64>() / samples as f64
}

/// Solves the mean inter-arrival gap (steps) that offers utilization
/// `rho` to a machine of `processors`, given the class's expected work
/// per job.
///
/// The offered load of a stream with mean gap `g` is
/// `ρ = E[T1] / (g · P)` — work arriving per step over machine capacity
/// — so `g = E[T1] / (ρ · P)`. `ρ ≥ 1` is a valid input: the resulting
/// stream *over*-loads the machine, which is exactly what the
/// saturation-detection tests drive.
///
/// # Panics
///
/// Panics if `rho` or `expected_work` is non-positive/non-finite, or
/// `processors == 0`.
pub fn mean_gap_for_utilization(rho: f64, processors: u32, expected_work: f64) -> f64 {
    assert!(
        rho.is_finite() && rho > 0.0,
        "target utilization must be positive, got {rho}"
    );
    assert!(processors > 0, "machine must have processors");
    assert!(
        expected_work.is_finite() && expected_work > 0.0,
        "expected work must be positive, got {expected_work}"
    );
    expected_work / (rho * processors as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn batched_is_all_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(ReleaseSchedule::Batched.sample(4, &mut rng), vec![0; 4]);
    }

    #[test]
    fn uniform_stays_in_horizon() {
        let mut rng = StdRng::seed_from_u64(2);
        let r = ReleaseSchedule::Uniform { horizon: 100 }.sample(64, &mut rng);
        assert!(r.iter().all(|&t| t <= 100));
        assert!(r.iter().any(|&t| t > 0), "should not all be zero");
    }

    #[test]
    fn poisson_is_nondecreasing_with_sane_mean() {
        let mut rng = StdRng::seed_from_u64(3);
        let r = ReleaseSchedule::Poisson { mean_gap: 50.0 }.sample(200, &mut rng);
        assert!(r.windows(2).all(|w| w[0] <= w[1]));
        let mean_gap = *r.last().unwrap() as f64 / r.len() as f64;
        assert!((20.0..100.0).contains(&mean_gap), "mean gap {mean_gap}");
    }

    #[test]
    fn zero_jobs_yield_empty_schedule() {
        let mut rng = StdRng::seed_from_u64(4);
        assert!(ReleaseSchedule::Batched.sample(0, &mut rng).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn poisson_rejects_zero_gap() {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = ReleaseSchedule::Poisson { mean_gap: 0.0 }.sample(1, &mut rng);
    }

    #[test]
    fn poisson_stream_is_nondecreasing_with_sane_mean() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut stream = ArrivalProcess::Poisson { mean_gap: 40.0 }.stream();
        let times: Vec<u64> = (0..400).map(|_| stream.next_arrival(&mut rng)).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        let mean = *times.last().unwrap() as f64 / times.len() as f64;
        assert!((20.0..80.0).contains(&mean), "mean gap {mean}");
    }

    #[test]
    fn trace_stream_cycles_its_gaps() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut stream = ArrivalProcess::Trace {
            gaps: vec![5, 0, 10],
        }
        .stream();
        let times: Vec<u64> = (0..6).map(|_| stream.next_arrival(&mut rng)).collect();
        // Gaps 5, 0, 10 cycle: 5, 5, 15, 20, 20, 30.
        assert_eq!(times, vec![5, 5, 15, 20, 20, 30]);
    }

    #[test]
    fn trace_mean_gap_averages_one_cycle() {
        let p = ArrivalProcess::Trace {
            gaps: vec![5, 0, 10],
        };
        assert_eq!(p.mean_gap(), 5.0);
        assert_eq!(ArrivalProcess::Poisson { mean_gap: 7.5 }.mean_gap(), 7.5);
    }

    #[test]
    #[should_panic(expected = "positive gap")]
    fn all_zero_trace_rejected() {
        let _ = ArrivalProcess::Trace { gaps: vec![0, 0] }.stream();
    }

    #[test]
    #[should_panic(expected = "must contain gaps")]
    fn empty_trace_rejected() {
        let _ = ArrivalProcess::Trace { gaps: vec![] }.stream();
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn poisson_stream_rejects_zero_gap() {
        let _ = ArrivalProcess::Poisson { mean_gap: 0.0 }.stream();
    }

    #[test]
    fn split_substreams_partition_the_parent_path() {
        // Driven with identically seeded RNGs, the substreams decimate
        // one common path: merging their yields in round-robin order
        // reproduces the parent stream arrival for arrival.
        for process in [
            ArrivalProcess::Poisson { mean_gap: 30.0 },
            ArrivalProcess::Trace {
                gaps: vec![4, 0, 9, 2],
            },
        ] {
            let mut parent_rng = StdRng::seed_from_u64(0x51);
            let mut parent = process.stream();
            let expect: Vec<u64> = (0..120)
                .map(|_| parent.next_arrival(&mut parent_rng))
                .collect();

            let n = 3;
            let mut subs = process.stream().split(n, 0xF00D);
            let mut rngs: Vec<StdRng> = (0..n).map(|_| StdRng::seed_from_u64(0x51)).collect();
            let mut merged = Vec::new();
            for _round in 0..(120 / n) {
                for (sub, rng) in subs.iter_mut().zip(&mut rngs) {
                    merged.push(sub.next_arrival(rng));
                }
            }
            assert_eq!(merged, expect, "{process:?}");
        }
    }

    #[test]
    fn split_seeds_are_distinct_and_deterministic() {
        let stream = ArrivalProcess::Poisson { mean_gap: 10.0 }.stream();
        let a = stream.split(4, 99);
        let b = stream.split(4, 99);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.stride(), 4);
        }
        let mut seeds: Vec<u64> = a.iter().map(|s| s.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 4, "derived seeds must be distinct");
        assert_ne!(
            a[0].seed,
            stream.split(4, 100)[0].seed,
            "split seed matters"
        );
    }

    #[test]
    fn split_of_one_is_the_parent_stream() {
        let process = ArrivalProcess::Poisson { mean_gap: 25.0 };
        let mut parent_rng = StdRng::seed_from_u64(3);
        let mut sub_rng = StdRng::seed_from_u64(3);
        let mut parent = process.stream();
        let mut sub = process.stream().split(1, 7).remove(0);
        for _ in 0..64 {
            assert_eq!(
                sub.next_arrival(&mut sub_rng),
                parent.next_arrival(&mut parent_rng)
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one substream")]
    fn split_rejects_zero_substreams() {
        let _ = ArrivalProcess::Poisson { mean_gap: 10.0 }
            .stream()
            .split(0, 1);
    }

    #[test]
    fn splitmix_seed_is_deterministic_and_spread() {
        assert_eq!(splitmix_seed(1, 2, 3), splitmix_seed(1, 2, 3));
        assert_ne!(splitmix_seed(1, 2, 3), splitmix_seed(1, 3, 2));
        assert_ne!(splitmix_seed(1, 2, 3), splitmix_seed(2, 2, 3));
    }

    #[test]
    fn expected_work_matches_constant_population() {
        use abg_dag::{Phase, PhasedJob};
        let mut rng = StdRng::seed_from_u64(8);
        let w = expected_work(16, &mut rng, |_| PhasedJob::new(vec![Phase::new(2, 10)]));
        assert_eq!(w, 20.0, "constant jobs estimate exactly");
    }

    #[test]
    fn expected_work_of_generalises_bit_identically() {
        // The unit-job wrapper must delegate with an unchanged
        // summation, so the two estimates agree to the last bit even on
        // a population whose per-sample work varies.
        use abg_dag::{Phase, PhasedJob};
        let sample = |rng: &mut StdRng| {
            let levels = rng.random_range(3..20u64);
            PhasedJob::new(vec![Phase::new(4, levels)])
        };
        let mut a = StdRng::seed_from_u64(13);
        let mut b = StdRng::seed_from_u64(13);
        let via_jobs = expected_work(32, &mut a, sample);
        let via_work = expected_work_of(32, &mut b, |rng| sample(rng).work() as f64);
        assert_eq!(via_jobs.to_bits(), via_work.to_bits());
    }

    #[test]
    fn expected_work_of_handles_weighted_dags() {
        let mut rng = StdRng::seed_from_u64(21);
        let w = expected_work_of(8, &mut rng, |rng| {
            let cost = rng.random_range(2..=4u64);
            let dag = abg_dag::generate::chain(10)
                .with_uniform_weight(cost as f64)
                .expect("valid weight");
            dag.work() as f64
        });
        assert!((20.0..=40.0).contains(&w), "weighted estimate {w}");
    }

    #[test]
    fn gap_solver_inverts_the_offered_load() {
        // ρ = E[T1] / (g · P): solving for g and recomputing ρ round-trips.
        let g = mean_gap_for_utilization(0.5, 64, 3200.0);
        assert_eq!(g, 100.0);
        let rho = 3200.0 / (g * 64.0);
        assert!((rho - 0.5).abs() < 1e-12);
        // Heavier load arrives faster.
        assert!(mean_gap_for_utilization(0.9, 64, 3200.0) < g);
        // ρ ≥ 1 is allowed: saturation experiments need it.
        assert!(mean_gap_for_utilization(1.5, 64, 3200.0) > 0.0);
    }

    #[test]
    #[should_panic(expected = "utilization must be positive")]
    fn gap_solver_rejects_zero_rho() {
        let _ = mean_gap_for_utilization(0.0, 64, 100.0);
    }
}
