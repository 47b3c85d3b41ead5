//! Realistic scientific-workflow generators with weighted tasks.
//!
//! The paper's synthetic fork-join jobs pin the transition factor but
//! keep every task unit-cost. Real schedulers are evaluated on workflow
//! suites — Montage mosaics, Epigenomics pipelines, MapReduce shuffles —
//! whose stages have characteristic shapes *and* characteristic task
//! costs. This module generates those structures as weighted
//! [`ExplicitDag`]s: each [`WorkflowKind`] is a family parameterised by
//! a `scale` (the fan-out of its widest stage) with per-stage weight
//! distributions drawn from a caller-supplied RNG.
//!
//! Weights are sampled as exact half-integers (`k · 0.5` for integer
//! `k`), so they round-trip bit-exactly through the text dag format
//! ([`dagfile`](crate::dagfile)), and the derived integer costs
//! (`ceil`) stay small and predictable.

use abg_dag::{DagBuilder, ExplicitDag, TaskId};
use rand::{Rng, RngExt as _};
use std::fmt;
use std::str::FromStr;

/// A family of workflow structures with stage-characteristic weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkflowKind {
    /// Source → `scale` parallel tasks → sink: the minimal fork-join
    /// with heterogeneous branch costs.
    Diamond,
    /// `scale` map tasks shuffling into `max(1, scale / 4)` reduce
    /// tasks (complete bipartite shuffle), bracketed by a split source
    /// and a collect sink.
    MapReduce,
    /// A Montage-like mosaic pipeline: `scale` projections, difference
    /// fits over neighbouring pairs, a concatenation/model bottleneck,
    /// per-tile background correction, and a final co-add.
    Montage,
    /// An Epigenomics-like pipeline: a split fans into `scale`
    /// independent 4-stage lanes (filter → convert → transform → map)
    /// that merge and finish through a 2-stage serial tail.
    Epigenomics,
}

impl WorkflowKind {
    /// All kinds, in a stable order (CLI listings, sweeps, tests).
    pub const ALL: [WorkflowKind; 4] = [
        WorkflowKind::Diamond,
        WorkflowKind::MapReduce,
        WorkflowKind::Montage,
        WorkflowKind::Epigenomics,
    ];

    /// The canonical lowercase name (what [`FromStr`] accepts).
    pub fn name(&self) -> &'static str {
        match self {
            WorkflowKind::Diamond => "diamond",
            WorkflowKind::MapReduce => "mapreduce",
            WorkflowKind::Montage => "montage",
            WorkflowKind::Epigenomics => "epigenomics",
        }
    }

    /// Generates one workflow instance at the given scale (clamped to a
    /// minimum of 1), sampling stage weights from `rng`. The returned
    /// dag always carries a weight table with at least one non-unit
    /// entry, so it routes the weighted executor kernels.
    pub fn generate<R: Rng + ?Sized>(&self, scale: u32, rng: &mut R) -> ExplicitDag {
        let scale = scale.max(1) as usize;
        match self {
            WorkflowKind::Diamond => diamond(scale, rng),
            WorkflowKind::MapReduce => mapreduce(scale, rng),
            WorkflowKind::Montage => montage(scale, rng),
            WorkflowKind::Epigenomics => epigenomics(scale, rng),
        }
    }
}

impl fmt::Display for WorkflowKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for WorkflowKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "diamond" => Ok(WorkflowKind::Diamond),
            "mapreduce" | "map-reduce" => Ok(WorkflowKind::MapReduce),
            "montage" => Ok(WorkflowKind::Montage),
            "epigenomics" => Ok(WorkflowKind::Epigenomics),
            other => Err(format!(
                "unknown workflow '{other}' (expected one of: diamond, mapreduce, montage, epigenomics)"
            )),
        }
    }
}

/// Samples a half-integer weight in `[lo/2, hi/2]` — an exact binary
/// fraction, so it survives text serialisation bit-for-bit.
fn half<R: Rng + ?Sized>(rng: &mut R, lo: u64, hi: u64) -> f64 {
    rng.random_range(lo..=hi) as f64 * 0.5
}

/// Adds one weighted task (weights from `half` are always valid).
fn task<R: Rng + ?Sized>(b: &mut DagBuilder, rng: &mut R, lo: u64, hi: u64) -> TaskId {
    b.add_weighted_task(half(rng, lo, hi))
        .expect("half-integer weights are finite and positive")
}

fn diamond<R: Rng + ?Sized>(scale: usize, rng: &mut R) -> ExplicitDag {
    let mut b = DagBuilder::with_capacity(scale + 2);
    let src = task(&mut b, rng, 2, 6);
    let mids: Vec<TaskId> = (0..scale).map(|_| task(&mut b, rng, 2, 16)).collect();
    let sink = task(&mut b, rng, 2, 8);
    for &m in &mids {
        b.add_edge(src, m).expect("fresh ids");
        b.add_edge(m, sink).expect("fresh ids");
    }
    b.build().expect("diamond is acyclic by construction")
}

fn mapreduce<R: Rng + ?Sized>(scale: usize, rng: &mut R) -> ExplicitDag {
    let maps = scale;
    let reduces = (scale / 4).max(1);
    let mut b = DagBuilder::with_capacity(maps + reduces + 2);
    let split = task(&mut b, rng, 2, 4);
    let map_ids: Vec<TaskId> = (0..maps).map(|_| task(&mut b, rng, 8, 32)).collect();
    let reduce_ids: Vec<TaskId> = (0..reduces).map(|_| task(&mut b, rng, 16, 48)).collect();
    let collect = task(&mut b, rng, 2, 6);
    for &m in &map_ids {
        b.add_edge(split, m).expect("fresh ids");
        // The shuffle: every map feeds every reduce.
        for &r in &reduce_ids {
            b.add_edge(m, r).expect("fresh ids");
        }
    }
    for &r in &reduce_ids {
        b.add_edge(r, collect).expect("fresh ids");
    }
    b.build().expect("mapreduce is acyclic by construction")
}

fn montage<R: Rng + ?Sized>(scale: usize, rng: &mut R) -> ExplicitDag {
    let n = scale;
    let mut b = DagBuilder::with_capacity(2 * n + n.saturating_sub(1) + 4);
    // mProject: re-project each input tile.
    let projects: Vec<TaskId> = (0..n).map(|_| task(&mut b, rng, 4, 12)).collect();
    // mDiffFit: fit the overlap of each neighbouring pair of tiles.
    let diffs: Vec<TaskId> = (0..n.saturating_sub(1))
        .map(|i| {
            let d = task(&mut b, rng, 2, 6);
            b.add_edge(projects[i], d).expect("fresh ids");
            b.add_edge(projects[i + 1], d).expect("fresh ids");
            d
        })
        .collect();
    // mConcatFit + mBgModel: the serial bottleneck.
    let concat = task(&mut b, rng, 2, 8);
    for &d in &diffs {
        b.add_edge(d, concat).expect("fresh ids");
    }
    if diffs.is_empty() {
        // A single-tile mosaic still models the fit stage.
        b.add_edge(projects[0], concat).expect("fresh ids");
    }
    let model = task(&mut b, rng, 4, 10);
    b.add_edge(concat, model).expect("fresh ids");
    // mBackground: correct each tile against the model.
    let backgrounds: Vec<TaskId> = (0..n)
        .map(|i| {
            let bg = task(&mut b, rng, 2, 8);
            b.add_edge(model, bg).expect("fresh ids");
            b.add_edge(projects[i], bg).expect("fresh ids");
            bg
        })
        .collect();
    // mImgtbl + mAdd: gather and co-add.
    let imgtbl = task(&mut b, rng, 1, 4);
    for &bg in &backgrounds {
        b.add_edge(bg, imgtbl).expect("fresh ids");
    }
    let add = task(&mut b, rng, 8, 24);
    b.add_edge(imgtbl, add).expect("fresh ids");
    b.build().expect("montage is acyclic by construction")
}

fn epigenomics<R: Rng + ?Sized>(scale: usize, rng: &mut R) -> ExplicitDag {
    let lanes = scale;
    let mut b = DagBuilder::with_capacity(4 * lanes + 4);
    let split = task(&mut b, rng, 2, 6);
    let merge_inputs: Vec<TaskId> = (0..lanes)
        .map(|_| {
            // One lane: filter → convert → transform → map, a serial
            // 4-chain with map dominating the cost.
            let filter = task(&mut b, rng, 2, 8);
            b.add_edge(split, filter).expect("fresh ids");
            let convert = task(&mut b, rng, 1, 4);
            b.add_edge(filter, convert).expect("fresh ids");
            let transform = task(&mut b, rng, 1, 4);
            b.add_edge(convert, transform).expect("fresh ids");
            let map = task(&mut b, rng, 12, 36);
            b.add_edge(transform, map).expect("fresh ids");
            map
        })
        .collect();
    let merge = task(&mut b, rng, 4, 10);
    for &m in &merge_inputs {
        b.add_edge(m, merge).expect("fresh ids");
    }
    let index = task(&mut b, rng, 2, 6);
    b.add_edge(merge, index).expect("fresh ids");
    let pileup = task(&mut b, rng, 4, 12);
    b.add_edge(index, pileup).expect("fresh ids");
    b.build().expect("epigenomics is acyclic by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn every_kind_generates_a_weighted_dag() {
        let mut rng = StdRng::seed_from_u64(7);
        for kind in WorkflowKind::ALL {
            for scale in [1u32, 4, 16] {
                let d = kind.generate(scale, &mut rng);
                assert!(!d.is_unit_weight(), "{kind} scale {scale} must be weighted");
                assert!(d.num_tasks() >= 3, "{kind} scale {scale}");
                assert!(d.work() >= d.num_tasks() as u64);
                assert!(d.weighted_span() >= d.span());
            }
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        for kind in WorkflowKind::ALL {
            let d1 = kind.generate(8, &mut StdRng::seed_from_u64(42));
            let d2 = kind.generate(8, &mut StdRng::seed_from_u64(42));
            let w1 = d1.weight_profile().unwrap().weights();
            let w2 = d2.weight_profile().unwrap().weights();
            assert_eq!(w1, w2, "{kind}");
            assert_eq!(d1.num_tasks(), d2.num_tasks(), "{kind}");
        }
    }

    #[test]
    fn structures_have_the_expected_shapes() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = WorkflowKind::Diamond.generate(6, &mut rng);
        assert_eq!(d.num_tasks(), 8);
        assert_eq!(d.span(), 3);

        let m = WorkflowKind::MapReduce.generate(8, &mut rng);
        assert_eq!(m.num_tasks(), 1 + 8 + 2 + 1);
        assert_eq!(m.span(), 4);

        let mo = WorkflowKind::Montage.generate(4, &mut rng);
        // 4 projects + 3 diffs + concat + model + 4 backgrounds + imgtbl + add
        assert_eq!(mo.num_tasks(), 15);

        let e = WorkflowKind::Epigenomics.generate(5, &mut rng);
        // split + 5 lanes × 4 + merge + index + pileup
        assert_eq!(e.num_tasks(), 24);
        assert_eq!(e.span(), 8);
    }

    #[test]
    fn scale_zero_clamps_to_one() {
        let mut rng = StdRng::seed_from_u64(1);
        for kind in WorkflowKind::ALL {
            let d = kind.generate(0, &mut rng);
            assert!(d.num_tasks() >= 3, "{kind}");
        }
    }

    #[test]
    fn names_round_trip_through_fromstr() {
        for kind in WorkflowKind::ALL {
            assert_eq!(kind.name().parse::<WorkflowKind>().unwrap(), kind);
        }
        assert_eq!(
            "MapReduce".parse::<WorkflowKind>().unwrap(),
            WorkflowKind::MapReduce,
            "parsing is case-insensitive"
        );
        let err = "mosaic".parse::<WorkflowKind>().unwrap_err();
        assert!(err.contains("unknown workflow 'mosaic'"), "{err}");
    }

    #[test]
    fn workflows_execute_to_completion() {
        use abg_sched::{BGreedyExecutor, JobExecutor};
        let mut rng = StdRng::seed_from_u64(19);
        for kind in WorkflowKind::ALL {
            let d = kind.generate(6, &mut rng);
            let mut ex = BGreedyExecutor::new(&d);
            let mut span = 0.0;
            while !ex.is_complete() {
                span += ex.run_quantum(4, 16).span;
            }
            assert_eq!(ex.completed_work(), d.work(), "{kind}");
            assert!(
                (span - d.weighted_span() as f64).abs() < 1e-9,
                "{kind}: span {span} vs {}",
                d.weighted_span()
            );
        }
    }
}
