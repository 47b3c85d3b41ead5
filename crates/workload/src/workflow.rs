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
//! Generation is split in two. [`WorkflowKind::template`] builds and
//! validates the structure once, as a [`WorkflowTemplate`] holding the
//! unit-weight dag and each task's weight range;
//! [`WorkflowTemplate::instantiate`] then draws one weight per task and
//! attaches the table. A stream of arrivals of one kind and scale
//! shares one template, so each arrival pays for its weights only, not
//! for a builder pass and a Kahn validation.
//!
//! Weights are sampled as exact half-integers (`k · 0.5` for integer
//! `k`), so they round-trip bit-exactly through the text dag format
//! ([`dagfile`](crate::dagfile)), and the derived integer costs
//! (`ceil`) stay small and predictable. Every instance carries a weight
//! table, but a table may happen to be all-1.0: a [`WorkflowKind::Diamond`]
//! can draw the floor weight for every task, and such a dag is flagged
//! [`ExplicitDag::is_unit_weight`] and runs the unit executor kernels.
//! The other kinds have a stage whose lightest weight exceeds 1.0, so
//! their instances are always non-unit.

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

    /// Builds the structure of this kind at the given scale (clamped to
    /// a minimum of 1), validated once, with each task's weight range.
    /// Draw instances from it with [`WorkflowTemplate::instantiate`].
    pub fn template(&self, scale: u32) -> WorkflowTemplate {
        let scale = scale.max(1) as usize;
        match self {
            WorkflowKind::Diamond => diamond(scale),
            WorkflowKind::MapReduce => mapreduce(scale),
            WorkflowKind::Montage => montage(scale),
            WorkflowKind::Epigenomics => epigenomics(scale),
        }
    }

    /// Generates one workflow instance at the given scale (clamped to a
    /// minimum of 1), sampling stage weights from `rng`: the one-off
    /// form of `self.template(scale).instantiate(rng)`. Callers drawing
    /// many instances of one kind and scale should keep the template.
    pub fn generate<R: Rng + ?Sized>(&self, scale: u32, rng: &mut R) -> ExplicitDag {
        self.template(scale).instantiate(rng)
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

/// The structure of one workflow kind at one scale, built and validated
/// once, plus the weight range of each task. Every instance shares the
/// successor lists, levels and in-degrees of [`WorkflowTemplate::structure`]
/// and differs only in its weight table.
#[derive(Debug, Clone)]
pub struct WorkflowTemplate {
    structure: ExplicitDag,
    /// `(lo, hi)` per task in id order: the task's weight is drawn
    /// uniformly from the half-units `lo..=hi`, i.e. `[lo/2, hi/2]`.
    half_units: Vec<(u64, u64)>,
}

impl WorkflowTemplate {
    /// The unit-weight structure every instance shares.
    pub fn structure(&self) -> &ExplicitDag {
        &self.structure
    }

    /// Draws one instance: one half-integer weight per task, in id
    /// order, attached to a copy of the structure through
    /// [`ExplicitDag::refill_weights`] (which re-checks every weight).
    pub fn instantiate<R: Rng + ?Sized>(&self, rng: &mut R) -> ExplicitDag {
        let mut dag = self.structure.clone();
        self.redraw(&mut dag, rng);
        dag
    }

    /// Turns `dag`, an instance of this template, into a fresh one **in
    /// place**: the draws [`instantiate`](WorkflowTemplate::instantiate)
    /// makes, in the same id order, written over the old weight table
    /// through [`ExplicitDag::refill_weights`] (which re-checks every
    /// weight and recomputes the unit-weight flag). The result equals
    /// what `instantiate` returns from the same RNG state.
    ///
    /// # Panics
    ///
    /// Panics if `dag` has a different task count than the template.
    pub fn redraw<R: Rng + ?Sized>(&self, dag: &mut ExplicitDag, rng: &mut R) {
        debug_assert_eq!(
            dag.in_degrees(),
            self.structure.in_degrees(),
            "redraw needs an instance of this template"
        );
        dag.refill_weights(self.draw(rng))
            .expect("an instance of this template takes one half-integer weight per task");
    }

    /// One weight per task in id order, uniform over the task's
    /// half-units.
    fn draw<'a, R: Rng + ?Sized>(
        &'a self,
        rng: &'a mut R,
    ) -> impl ExactSizeIterator<Item = f64> + 'a {
        self.half_units
            .iter()
            .map(move |&(lo, hi)| rng.random_range(lo..=hi) as f64 * 0.5)
    }
}

/// A structure under construction: the builder plus the half-unit
/// weight range of each task added so far.
struct Shape {
    b: DagBuilder,
    half_units: Vec<(u64, u64)>,
}

impl Shape {
    fn with_capacity(n: usize) -> Self {
        Shape {
            b: DagBuilder::with_capacity(n),
            half_units: Vec::with_capacity(n),
        }
    }

    /// Adds a task whose weight is drawn from `[lo/2, hi/2]`.
    fn task(&mut self, lo: u64, hi: u64) -> TaskId {
        self.half_units.push((lo, hi));
        self.b.add_task()
    }

    fn edge(&mut self, from: TaskId, to: TaskId) {
        self.b.add_edge(from, to).expect("fresh ids");
    }

    fn finish(self) -> WorkflowTemplate {
        WorkflowTemplate {
            structure: self
                .b
                .build()
                .expect("workflows are acyclic by construction"),
            half_units: self.half_units,
        }
    }
}

fn diamond(scale: usize) -> WorkflowTemplate {
    let mut s = Shape::with_capacity(scale + 2);
    let src = s.task(2, 6);
    let mids: Vec<TaskId> = (0..scale).map(|_| s.task(2, 16)).collect();
    let sink = s.task(2, 8);
    for &m in &mids {
        s.edge(src, m);
        s.edge(m, sink);
    }
    s.finish()
}

fn mapreduce(scale: usize) -> WorkflowTemplate {
    let maps = scale;
    let reduces = (scale / 4).max(1);
    let mut s = Shape::with_capacity(maps + reduces + 2);
    let split = s.task(2, 4);
    let map_ids: Vec<TaskId> = (0..maps).map(|_| s.task(8, 32)).collect();
    let reduce_ids: Vec<TaskId> = (0..reduces).map(|_| s.task(16, 48)).collect();
    let collect = s.task(2, 6);
    for &m in &map_ids {
        s.edge(split, m);
        // The shuffle: every map feeds every reduce.
        for &r in &reduce_ids {
            s.edge(m, r);
        }
    }
    for &r in &reduce_ids {
        s.edge(r, collect);
    }
    s.finish()
}

fn montage(scale: usize) -> WorkflowTemplate {
    let n = scale;
    let mut s = Shape::with_capacity(2 * n + n.saturating_sub(1) + 4);
    // mProject: re-project each input tile.
    let projects: Vec<TaskId> = (0..n).map(|_| s.task(4, 12)).collect();
    // mDiffFit: fit the overlap of each neighbouring pair of tiles.
    let diffs: Vec<TaskId> = (0..n.saturating_sub(1))
        .map(|i| {
            let d = s.task(2, 6);
            s.edge(projects[i], d);
            s.edge(projects[i + 1], d);
            d
        })
        .collect();
    // mConcatFit + mBgModel: the serial bottleneck.
    let concat = s.task(2, 8);
    for &d in &diffs {
        s.edge(d, concat);
    }
    if diffs.is_empty() {
        // A single-tile mosaic still models the fit stage.
        s.edge(projects[0], concat);
    }
    let model = s.task(4, 10);
    s.edge(concat, model);
    // mBackground: correct each tile against the model.
    let backgrounds: Vec<TaskId> = (0..n)
        .map(|i| {
            let bg = s.task(2, 8);
            s.edge(model, bg);
            s.edge(projects[i], bg);
            bg
        })
        .collect();
    // mImgtbl + mAdd: gather and co-add.
    let imgtbl = s.task(1, 4);
    for &bg in &backgrounds {
        s.edge(bg, imgtbl);
    }
    let add = s.task(8, 24);
    s.edge(imgtbl, add);
    s.finish()
}

fn epigenomics(scale: usize) -> WorkflowTemplate {
    let lanes = scale;
    let mut s = Shape::with_capacity(4 * lanes + 4);
    let split = s.task(2, 6);
    let merge_inputs: Vec<TaskId> = (0..lanes)
        .map(|_| {
            // One lane: filter → convert → transform → map, a serial
            // 4-chain with map dominating the cost.
            let filter = s.task(2, 8);
            s.edge(split, filter);
            let convert = s.task(1, 4);
            s.edge(filter, convert);
            let transform = s.task(1, 4);
            s.edge(convert, transform);
            let map = s.task(12, 36);
            s.edge(transform, map);
            map
        })
        .collect();
    let merge = s.task(4, 10);
    for &m in &merge_inputs {
        s.edge(m, merge);
    }
    let index = s.task(2, 6);
    s.edge(merge, index);
    let pileup = s.task(4, 12);
    s.edge(index, pileup);
    s.finish()
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
                assert!(
                    d.weight_profile().is_some(),
                    "{kind} scale {scale} must carry a weight table"
                );
                if kind != WorkflowKind::Diamond {
                    assert!(!d.is_unit_weight(), "{kind} scale {scale} must be weighted");
                }
                assert!(d.num_tasks() >= 3, "{kind} scale {scale}");
                assert!(d.work() >= d.num_tasks() as u64);
                assert!(d.weighted_span() >= d.span());
            }
        }
    }

    #[test]
    fn an_all_unit_diamond_runs_the_unit_kernels_to_completion() {
        use abg_sched::{BGreedyExecutor, JobExecutor};
        // Every task of this draw lands on the floor weight 1.0.
        let d = WorkflowKind::Diamond.generate(1, &mut StdRng::seed_from_u64(361));
        assert!(d.weight_profile().is_some());
        assert!(d.is_unit_weight());
        let mut ex = BGreedyExecutor::new(&d);
        while !ex.is_complete() {
            ex.run_quantum(2, 4);
        }
        assert_eq!(ex.completed_work(), d.work());
    }

    #[test]
    fn instances_of_one_template_differ_only_in_their_weights() {
        let mut rng = StdRng::seed_from_u64(11);
        for kind in WorkflowKind::ALL {
            let template = kind.template(8);
            let shape = template.structure();
            assert!(shape.weight_profile().is_none(), "{kind}");
            let a = template.instantiate(&mut rng);
            let b = template.instantiate(&mut rng);
            for d in [&a, &b] {
                assert_eq!(d.in_degrees(), shape.in_degrees(), "{kind}");
                for t in shape.tasks() {
                    assert_eq!(d.successors(t), shape.successors(t), "{kind}");
                    assert_eq!(d.level(t), shape.level(t), "{kind}");
                }
            }
            assert_ne!(
                a.weight_profile().unwrap().weights(),
                b.weight_profile().unwrap().weights(),
                "{kind}: two draws should differ"
            );
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
