//! Deterministic arrival routing over processor groups.
//!
//! A partitioned open-system run splits the machine into `G` processor
//! groups — the two-level structure of hierarchical schemes for
//! malleable jobs, with an adaptive scheduler under a top-level
//! splitter. Everything here is a pure function of the run seed and
//! the global arrival index, so the split never depends on thread
//! count or schedule:
//!
//! * **partitioning** — group `k` starts with `P/G` processors (the
//!   first `P mod G` groups own one more; see
//!   [`equi_partition`](abg_control::equi_partition));
//! * **routing** — a [`ShardRouting`] policy assigns every global
//!   arrival to one group, and every group replays the *same* aggregate
//!   arrival path from a shared router seed;
//! * **job identity** — the job structure of global arrival `g` is
//!   sampled from its own SplitMix64-derived RNG, so the simulated job
//!   population is a function of the run seed alone: identical across
//!   group counts, routings and reallocation policies.

use crate::hier::HierOpenConfig;
use abg_workload::splitmix_seed;
use serde::{Deserialize, Serialize};

/// How arrivals are assigned to processor groups. Every policy is a
/// pure function of the run seed and the global arrival index, so the
/// split is reproducible whatever the worker pool does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardRouting {
    /// Global arrival `g` goes to group `g mod G` — a perfectly even
    /// split of the arrival count.
    RoundRobin,
    /// Global arrival `g` goes to the group selected by a SplitMix64
    /// hash of its job seed — an i.i.d. uniform split, the statistical
    /// model of load-oblivious dispatching.
    HashJobSeed,
    /// Deterministic skew: the first `hot` arrivals of every
    /// `hot + (G - 1)`-arrival cycle go to group 0, the rest
    /// round-robin over groups `1..G` — a `hot : 1` load concentration
    /// on group 0. The hierarchical experiments use it to stress
    /// feedback repartitioning; under the *static* top level it simply
    /// overloads group 0. With `G = 1` everything lands on group 0.
    Skewed {
        /// Arrivals routed to group 0 per cycle (`hot = 1` is uniform;
        /// `hot = G` gives group 0 a `G : 1` share).
        hot: u32,
    },
}

impl ShardRouting {
    /// The group (of `groups`) this policy assigns global arrival
    /// `global` of a run seeded with `seed` to.
    pub(crate) fn route(self, groups: u32, seed: u64, global: u64) -> u32 {
        match self {
            ShardRouting::RoundRobin => (global % groups as u64) as u32,
            ShardRouting::HashJobSeed => {
                (splitmix_seed(job_seed(seed, global), 0, 3) % groups as u64) as u32
            }
            ShardRouting::Skewed { hot } => {
                let cycle = hot as u64 + groups as u64 - 1;
                if cycle == 0 {
                    return 0; // hot = 0 with one group: everything is group 0.
                }
                let r = global % cycle;
                if r < hot as u64 {
                    0
                } else {
                    (r - hot as u64 + 1) as u32
                }
            }
        }
    }
}

/// The RNG seed every group's arrival replay starts from — shared, so
/// all groups decimate one common aggregate path.
pub(crate) fn router_seed(seed: u64) -> u64 {
    splitmix_seed(seed, 0, 1)
}

/// The RNG seed global arrival `g` samples its job structure from.
pub(crate) fn job_seed(seed: u64, global: u64) -> u64 {
    splitmix_seed(seed, global, 2)
}

/// Measured global arrival indices the routing policy assigns to
/// `group` — computable up front (routing is a pure function of seed
/// and index), so each group knows its measurement target before
/// simulating anything.
pub(crate) fn measured_assigned(cfg: &HierOpenConfig, group: u32) -> u64 {
    let warmup = cfg.open.warmup_jobs;
    (warmup..warmup + cfg.open.measured_jobs)
        .filter(|&g| cfg.routing.route(cfg.groups, cfg.open.seed, g) == group)
        .count() as u64
}

/// Worker count for the group pool: the `ABG_THREADS` environment
/// variable when set to a positive integer, the machine's available
/// parallelism otherwise — the same contract as the sweep harness's
/// `parallel_map`. Results never depend on this; only wall-clock does.
pub(crate) fn pool_threads() -> usize {
    if let Ok(s) = std::env::var("ABG_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::OpenConfig;
    use crate::saturation::SaturationConfig;
    use abg_workload::ArrivalProcess;

    fn config(groups: u32, routing: ShardRouting) -> HierOpenConfig {
        HierOpenConfig {
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
            groups,
            routing,
            realloc_epoch: u64::MAX,
            group_floor: 1,
        }
    }

    #[test]
    fn routing_policies_cover_every_group_and_are_deterministic() {
        for routing in [ShardRouting::RoundRobin, ShardRouting::HashJobSeed] {
            let cfg = config(4, routing);
            let total: u64 = (0..4).map(|k| measured_assigned(&cfg, k)).sum();
            assert_eq!(total, cfg.open.measured_jobs, "{routing:?}");
            for k in 0..4 {
                assert!(
                    measured_assigned(&cfg, k) > 0,
                    "{routing:?}: group {k} starved"
                );
            }
        }
        // Round-robin is an exact split of the measured window.
        let cfg = config(4, ShardRouting::RoundRobin);
        for k in 0..4 {
            assert_eq!(measured_assigned(&cfg, k), 40);
        }
    }

    #[test]
    fn skewed_routing_concentrates_arrivals_on_group_zero() {
        let cfg = config(4, ShardRouting::Skewed { hot: 4 });
        // Cycle of hot + groups - 1 = 7: four arrivals to group 0,
        // then one each to groups 1..3 — an exact 4:1:1:1 split.
        let groups: Vec<u32> = (0..14)
            .map(|g| cfg.routing.route(cfg.groups, cfg.open.seed, g))
            .collect();
        assert_eq!(groups, vec![0, 0, 0, 0, 1, 2, 3, 0, 0, 0, 0, 1, 2, 3]);
        // Every measured arrival lands on exactly one group.
        let assigned: u64 = (0..4).map(|k| measured_assigned(&cfg, k)).sum();
        assert_eq!(assigned, cfg.open.measured_jobs);
        let hot = measured_assigned(&cfg, 0);
        assert!(
            hot * 2 > assigned,
            "hot group got {hot} of {assigned} measured arrivals"
        );
    }
}
