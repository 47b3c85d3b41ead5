//! Recycled workflow executors are fresh ones: redrawing a drained
//! instance's weights in place ([`WorkflowTemplate::redraw`]) and
//! rewinding its executor onto them must give exactly the dag, and
//! exactly the run, that a newly instantiated instance gives from the
//! same RNG state. The open-system sweep recycles its workflow
//! executors this way, so any drift here would move its fingerprints.

use abg_sched::{JobExecutor, OwnedBGreedyExecutor, QuantumStats};
use abg_workload::{WorkflowKind, WorkflowTemplate};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

/// Bit pattern of one quantum's statistics.
type StatsBits = (u32, u64, u64, u64, u64, bool);

fn bits(s: &QuantumStats) -> StatsBits {
    (
        s.allotment,
        s.quantum_len,
        s.steps_worked,
        s.work,
        s.span.to_bits(),
        s.completed,
    )
}

/// Runs `ex` to completion under `allotments` (cycled), recording each
/// quantum's statistics and the executor's zero-allotment certificate.
fn run(ex: &mut OwnedBGreedyExecutor, allotments: &[u32], len: u64) -> Vec<(StatsBits, u64)> {
    let mut out = Vec::new();
    for &a in allotments.iter().cycle() {
        if ex.is_complete() {
            break;
        }
        let s = ex.run_quantum(a, len);
        out.push((bits(&s), ex.steady_quanta(a, len, &s)));
    }
    out
}

/// An executor over an instance drawn from `drained_seed`, run for
/// `quanta` quanta (possibly to completion), then recycled onto a
/// redraw from `rng`.
fn recycled(
    template: &WorkflowTemplate,
    drained_seed: u64,
    quanta: usize,
    rng: &mut StdRng,
) -> Box<OwnedBGreedyExecutor> {
    let dag = template.instantiate(&mut StdRng::seed_from_u64(drained_seed));
    let mut ex = Box::new(OwnedBGreedyExecutor::new(dag));
    for _ in 0..quanta {
        ex.run_quantum(3, 4);
    }
    ex.reset_with(|dag| template.redraw(dag, rng));
    ex
}

/// Asserts that a drained executor recycled with a redraw from `seed`
/// is the fresh instance from `seed`: equal dag, equal RNG state
/// afterwards, and an identical run under `allotments`.
fn assert_recycled_is_fresh(
    template: &WorkflowTemplate,
    drained_seed: u64,
    quanta: usize,
    seed: u64,
    allotments: &[u32],
    len: u64,
) {
    let mut rng_recycled = StdRng::seed_from_u64(seed);
    let mut rng_fresh = StdRng::seed_from_u64(seed);
    let mut a = recycled(template, drained_seed, quanta, &mut rng_recycled);
    let mut b = OwnedBGreedyExecutor::new(template.instantiate(&mut rng_fresh));
    assert_eq!(
        a.dag(),
        b.dag(),
        "redrawn dag differs from a fresh instance"
    );
    assert_eq!(a.dag().is_unit_weight(), b.dag().is_unit_weight());
    assert_eq!(
        rng_recycled.random::<u64>(),
        rng_fresh.random::<u64>(),
        "redraw consumed a different number of draws"
    );
    assert_eq!((a.completed_work(), a.elapsed_steps()), (0, 0));
    assert_eq!(run(&mut a, allotments, len), run(&mut b, allotments, len));
    assert_eq!(a.completed_work(), b.completed_work());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn recycled_executor_equals_a_fresh_one(
        kind in 0usize..4,
        scale in 1u32..12,
        drained_seed in 0u64..u64::MAX,
        quanta in 0usize..40,
        seed in 0u64..u64::MAX,
        allotments in prop::collection::vec(0u32..=6, 1..12),
        len in 1u64..8,
    ) {
        prop_assume!(allotments.iter().any(|&a| a > 0));
        let template = WorkflowKind::ALL[kind].template(scale);
        assert_recycled_is_fresh(&template, drained_seed, quanta, seed, &allotments, len);
    }
}

#[test]
fn all_unit_and_weighted_diamonds_recycle_into_each_other() {
    // Seed 361 draws the floor weight 1.0 for every task of a
    // scale-1 diamond: that instance runs the unit kernels, any other
    // draw the weighted one. Recycling must move between the two.
    let template = WorkflowKind::Diamond.template(1);
    let unit = template.instantiate(&mut StdRng::seed_from_u64(361));
    assert!(unit.is_unit_weight());
    let weighted = template.instantiate(&mut StdRng::seed_from_u64(7));
    assert!(!weighted.is_unit_weight());
    let allotments = [2, 0, 1, 3];
    for (drained, next) in [(7, 361), (361, 7)] {
        for quanta in [0, 2, 100] {
            assert_recycled_is_fresh(&template, drained, quanta, next, &allotments, 3);
        }
    }
}
