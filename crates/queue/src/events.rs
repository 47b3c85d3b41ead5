//! Pending-event layer for the event-driven open-system driver.
//!
//! The quantum-by-quantum open loop burned a full allocate/step/observe
//! round on every quantum even when provably nothing could change. The
//! event-driven driver instead treats the run as a sequence of
//! *events* — the next arrival, the next saturation-trend evaluation,
//! the quanta-budget edge, and (inside the core) the earliest possible
//! completion or request change — and jumps between them with
//! [`QuantumCore::advance_frozen`](abg_sim::QuantumCore::advance_frozen).
//!
//! This module supplies the two driver-level pieces:
//!
//! * `ArrivalSource` — where the loop's arrivals come from, with two
//!   implementations: `SharedRng`, the unpartitioned run's single RNG
//!   interleaving gap and job-structure draws, and `RouterReplay`, one
//!   processor group's decimation of the shared aggregate path;
//! * [`frozen_window_bound`] — the arithmetic folding the driver-level
//!   event horizons into the largest quantum count the next frozen
//!   window may cover without skipping an observable event.
//!
//! The split keeps the driver loop free of event bookkeeping and makes
//! the bounds unit-testable against the legacy loop's admission and
//! check points.

use crate::driver::OpenConfig;
use crate::hier::HierOpenConfig;
use crate::routing::{job_seed, router_seed, ShardRouting};
use abg_workload::ArrivalStream;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The arrival side of the open-system loop: yields the arrivals a
/// simulation admits, the RNG each job's structure is sampled from,
/// and the global arrival index behind each local admission id.
///
/// The loop calls [`next_arrival`](ArrivalSource::next_arrival) once
/// up front and then, per admission, draws the job from
/// [`job_rng`](ArrivalSource::job_rng) before drawing the next
/// arrival — the order the pinned fingerprints depend on.
pub(crate) trait ArrivalSource {
    /// The next arrival admitted here: `(global arrival index,
    /// absolute arrival step)`.
    fn next_arrival(&mut self) -> (u64, u64);
    /// The RNG the job structure of global arrival `global` is sampled
    /// from.
    fn job_rng(&mut self, global: u64) -> &mut StdRng;
    /// Records that the core admitted global arrival `global` under
    /// local id `id`.
    fn admitted(&mut self, id: u64, global: u64);
    /// The global arrival index of local admission id `id`.
    fn global(&self, id: u64) -> u64;
}

/// The unpartitioned run's arrival source: one `StdRng` seeded from
/// the run seed interleaves Poisson gap draws with job-structure draws
/// (gap, job, gap, job, …), and the admission id *is* the arrival
/// index, so nothing is stored per arrival.
pub(crate) struct SharedRng {
    stream: ArrivalStream,
    rng: StdRng,
    next_global: u64,
}

impl SharedRng {
    /// A source over a fresh stream of `cfg.arrivals`, seeded from
    /// `cfg.seed`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid arrival process (see
    /// [`ArrivalProcess::stream`](abg_workload::ArrivalProcess::stream)).
    pub(crate) fn new(cfg: &OpenConfig) -> Self {
        Self {
            stream: cfg.arrivals.stream(),
            rng: StdRng::seed_from_u64(cfg.seed),
            next_global: 0,
        }
    }
}

impl ArrivalSource for SharedRng {
    fn next_arrival(&mut self) -> (u64, u64) {
        let global = self.next_global;
        self.next_global += 1;
        (global, self.stream.next_arrival(&mut self.rng))
    }

    fn job_rng(&mut self, _global: u64) -> &mut StdRng {
        &mut self.rng
    }

    fn admitted(&mut self, id: u64, global: u64) {
        debug_assert_eq!(id, global, "every arrival is admitted in order");
    }

    fn global(&self, id: u64) -> u64 {
        id
    }
}

/// One processor group's arrival source: replays the aggregate arrival
/// path from the shared router seed and keeps the arrivals the
/// [`ShardRouting`] policy assigns to this group. Skipped arrivals
/// still consume their draws, so every group sees the identical
/// aggregate path; job structures come from per-arrival SplitMix64
/// seeds, and a local→global id map translates completions back to
/// measurement slots.
pub(crate) struct RouterReplay {
    stream: ArrivalStream,
    rng: StdRng,
    job: StdRng,
    /// Global index of the next aggregate arrival to draw.
    next_global: u64,
    /// Local admission id → global arrival index.
    globals: Vec<u64>,
    routing: ShardRouting,
    groups: u32,
    group: u32,
    seed: u64,
}

impl RouterReplay {
    /// The source of group `group` of the partitioned run `cfg`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid arrival process (see
    /// [`ArrivalProcess::stream`](abg_workload::ArrivalProcess::stream)).
    pub(crate) fn new(cfg: &HierOpenConfig, group: u32) -> Self {
        let seed = cfg.open.seed;
        Self {
            stream: cfg.open.arrivals.stream(),
            rng: StdRng::seed_from_u64(router_seed(seed)),
            job: StdRng::seed_from_u64(0),
            next_global: 0,
            globals: Vec::new(),
            routing: cfg.routing,
            groups: cfg.groups,
            group,
            seed,
        }
    }
}

impl ArrivalSource for RouterReplay {
    fn next_arrival(&mut self) -> (u64, u64) {
        loop {
            let time = self.stream.next_arrival(&mut self.rng);
            let global = self.next_global;
            self.next_global += 1;
            if self.routing.route(self.groups, self.seed, global) == self.group {
                return (global, time);
            }
        }
    }

    fn job_rng(&mut self, global: u64) -> &mut StdRng {
        self.job = StdRng::seed_from_u64(job_seed(self.seed, global));
        &mut self.job
    }

    fn admitted(&mut self, id: u64, global: u64) {
        debug_assert_eq!(id as usize, self.globals.len());
        self.globals.push(global);
    }

    fn global(&self, id: u64) -> u64 {
        self.globals[id as usize]
    }
}

/// The largest number of quanta the next frozen window may cover
/// without stepping over a driver-level event, given the current
/// boundary `now` and quantum length `len`:
///
/// * **arrival** — the window must close before the quantum boundary at
///   which `next_arrival` would be admitted (the first boundary at or
///   after it), so a frozen quantum may start at `now + j·len` only
///   while that is strictly before the arrival;
/// * **trend check** — `trend_horizon` quanta until the saturation
///   detector's next trend evaluation (between evaluations only the
///   hard population cap is live, and a constant population cannot
///   newly cross it);
/// * **budget** — the window may reach, but never pass, `max_quanta`
///   total executed quanta, so the horizon-exhausted report carries the
///   same numbers the per-quantum loop would have reported.
///
/// The core further bounds the window by completion and
/// request-stability lookahead; this function only folds the horizons
/// the driver owns.
pub fn frozen_window_bound(
    now: u64,
    len: u64,
    next_arrival: u64,
    trend_horizon: u64,
    quanta: u64,
    max_quanta: u64,
) -> u64 {
    let arrival = if next_arrival <= now {
        0
    } else {
        (next_arrival - now).div_ceil(len)
    };
    let budget = max_quanta.saturating_sub(quanta);
    arrival.min(trend_horizon).min(budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::saturation::SaturationConfig;
    use abg_workload::ArrivalProcess;
    use rand::RngExt;

    #[test]
    fn shared_source_matches_the_raw_stream_and_keeps_the_rng_in_step() {
        // The shared source must consume exactly one draw per Poisson
        // arrival from the RNG the job generator samples from, so job
        // draws interleaved between arrivals see the raw stream's RNG
        // state — the pattern of the fingerprint-pinned sweeps.
        let cfg = OpenConfig {
            processors: 16,
            quantum_len: 10,
            arrivals: ArrivalProcess::Poisson { mean_gap: 25.0 },
            warmup_jobs: 0,
            measured_jobs: 8,
            batches: 2,
            max_quanta: 100,
            saturation: SaturationConfig::default(),
            seed: 0xCA2,
        };
        let mut raw_rng = StdRng::seed_from_u64(cfg.seed);
        let mut raw = cfg.arrivals.stream();
        let mut src = SharedRng::new(&cfg);
        for i in 0..100 {
            let (global, time) = src.next_arrival();
            assert_eq!((global, time), (i, raw.next_arrival(&mut raw_rng)));
            let a: u64 = src.job_rng(global).random();
            let b: u64 = raw_rng.random();
            assert_eq!(a, b, "RNG interleave broken at arrival {i}");
            src.admitted(global, global);
            assert_eq!(src.global(global), global);
        }
    }

    #[test]
    fn every_group_replays_the_same_aggregate_path() {
        let cfg = HierOpenConfig {
            open: OpenConfig {
                processors: 16,
                quantum_len: 10,
                arrivals: ArrivalProcess::Poisson { mean_gap: 25.0 },
                warmup_jobs: 40,
                measured_jobs: 160,
                batches: 8,
                max_quanta: 2_000_000,
                saturation: SaturationConfig::default(),
                seed: 0x5AAD,
            },
            groups: 4,
            routing: ShardRouting::RoundRobin,
            realloc_epoch: u64::MAX,
            group_floor: 1,
        };
        // Collect (global, time) from every group's source; the union
        // must be one consistent aggregate path.
        let mut seen: Vec<(u64, u64)> = Vec::new();
        for k in 0..4 {
            let mut src = RouterReplay::new(&cfg, k);
            for _ in 0..25 {
                seen.push(src.next_arrival());
            }
        }
        seen.sort_unstable();
        for pair in seen.windows(2) {
            assert_ne!(pair[0].0, pair[1].0, "global index claimed twice");
            assert!(pair[0].1 <= pair[1].1, "aggregate path not monotone");
        }
        // Round-robin: group k owns exactly the indices ≡ k (mod 4),
        // and local admission ids map back to them.
        let mut src = RouterReplay::new(&cfg, 2);
        for j in 0..10 {
            let (global, _) = src.next_arrival();
            assert_eq!(global, 2 + 4 * j);
            src.admitted(j, global);
            assert_eq!(src.global(j), global);
        }
    }

    #[test]
    fn window_bound_respects_each_horizon() {
        // Arrival strictly inside the window: ceil((95-40)/10) = 6
        // quanta may start before the boundary at 100 admits it.
        assert_eq!(frozen_window_bound(40, 10, 95, 1000, 0, 1000), 6);
        // Arrival exactly on a boundary: that quantum is not frozen.
        assert_eq!(frozen_window_bound(40, 10, 50, 1000, 0, 1000), 1);
        // Arrival due now (or overdue): no window at all.
        assert_eq!(frozen_window_bound(40, 10, 40, 1000, 0, 1000), 0);
        assert_eq!(frozen_window_bound(40, 10, 12, 1000, 0, 1000), 0);
        // Trend evaluation closer than the arrival.
        assert_eq!(frozen_window_bound(40, 10, 9999, 3, 0, 1000), 3);
        // Budget edge: may reach max_quanta but not pass it.
        assert_eq!(frozen_window_bound(40, 10, 9999, 1000, 998, 1000), 2);
        assert_eq!(frozen_window_bound(40, 10, 9999, 1000, 1000, 1000), 0);
    }
}
