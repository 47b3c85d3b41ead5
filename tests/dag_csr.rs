//! Property tests for the CSR dag storage: successor iteration must
//! reproduce builder insertion semantics exactly, duplicate edges must
//! be rejected in O(1) without corrupting state, and both the dag file
//! and the adjacency-list form must round-trip losslessly.

use abg_dag::{DagBuilder, DagError, ExplicitDag, TaskId};
use abg_workload::dagfile::{parse_dag, write_dag};
use proptest::prelude::*;
use std::collections::HashSet;

const N: u32 = 12;

/// Feeds raw (possibly self-looping, possibly duplicate) pairs into a
/// builder, orienting each edge low → high id so the graph stays
/// acyclic, and returns the builder together with the reference model:
/// per-task successor lists in insertion order and in-degrees.
fn ingest(raw: &[(u32, u32)]) -> (DagBuilder, Vec<Vec<TaskId>>, Vec<u32>) {
    let mut b = DagBuilder::new();
    b.add_tasks(N as usize);
    let mut model: Vec<Vec<TaskId>> = vec![Vec::new(); N as usize];
    let mut indeg = vec![0u32; N as usize];
    let mut seen = HashSet::new();
    for &(x, y) in raw {
        if x == y {
            continue;
        }
        let (from, to) = (TaskId(x.min(y)), TaskId(x.max(y)));
        if !seen.insert((from, to)) {
            continue;
        }
        b.add_edge(from, to).unwrap();
        model[from.index()].push(to);
        indeg[to.index()] += 1;
    }
    (b, model, indeg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `successors(t)` reads the CSR row exactly as the edges were
    /// inserted, and every derived degree/count agrees with the naive
    /// adjacency-list model.
    #[test]
    fn csr_matches_insertion_model(raw in prop::collection::vec((0u32..N, 0u32..N), 0..60)) {
        let (b, model, indeg) = ingest(&raw);
        let edges: usize = model.iter().map(Vec::len).sum();
        prop_assert_eq!(b.num_edges(), edges);
        let dag = b.build().unwrap();
        prop_assert_eq!(dag.num_edges(), edges);
        for t in dag.tasks() {
            prop_assert_eq!(dag.successors(t).to_vec(), model[t.index()].clone(),
                "successors of {} diverged from insertion order", t);
            prop_assert_eq!(dag.in_degree(t), indeg[t.index()]);
            prop_assert_eq!(dag.out_degree(t) as usize, model[t.index()].len());
        }
        prop_assert_eq!(dag.to_adjacency(), model);
    }

    /// A duplicate insertion errors without disturbing the builder: the
    /// finished dag is identical to one that never saw the duplicates.
    #[test]
    fn duplicate_edges_rejected_without_corruption(
        raw in prop::collection::vec((0u32..N, 0u32..N), 1..40),
    ) {
        let (mut b, model, _) = ingest(&raw);
        // Replay every accepted edge: each must now be a duplicate.
        for (i, row) in model.iter().enumerate() {
            let from = TaskId(i as u32);
            for &to in row {
                prop_assert_eq!(
                    b.add_edge(from, to),
                    Err(DagError::DuplicateEdge(from, to))
                );
            }
        }
        let dag = b.build().unwrap();
        prop_assert_eq!(dag.to_adjacency(), model);
    }

    /// The dag file and the plain adjacency conversion both round-trip
    /// to an equal dag: same CSR successor order, same derived in-degree,
    /// level and level-size tables.
    #[test]
    fn dag_file_and_adjacency_round_trip(raw in prop::collection::vec((0u32..N, 0u32..N), 0..60)) {
        let (b, _, _) = ingest(&raw);
        let dag = b.build().unwrap();
        let back = parse_dag(&write_dag(&dag)).unwrap();
        prop_assert_eq!(&back, &dag);
        let back = ExplicitDag::from_adjacency(dag.to_adjacency()).unwrap();
        prop_assert_eq!(&back, &dag);
    }

    /// The `level_recip` fast path survives the CSR rewrite: each entry
    /// is exactly `1.0 / level_sizes[l]`, and summing each task's
    /// fractional contribution reconstructs the span.
    #[test]
    fn level_recips_consistent(raw in prop::collection::vec((0u32..N, 0u32..N), 0..60)) {
        let (b, _, _) = ingest(&raw);
        let dag = b.build().unwrap();
        prop_assert_eq!(dag.level_recips().len() as u64, dag.span());
        for (l, (&size, &recip)) in dag
            .level_sizes()
            .iter()
            .zip(dag.level_recips())
            .enumerate()
        {
            prop_assert_eq!(recip.to_bits(), (1.0 / size as f64).to_bits(), "level {}", l);
            prop_assert_eq!(dag.level_recip(l as u32).to_bits(), recip.to_bits());
        }
        let span: f64 = dag.tasks().map(|t| dag.level_recip(dag.level(t))).sum();
        prop_assert!((span - dag.span() as f64).abs() < 1e-9);
    }
}
