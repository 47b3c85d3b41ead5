//! A line-based on-disk format for weighted task dags.
//!
//! The format is deliberately minimal — three directives, one per line,
//! `#` comments — so traces are diffable, hand-editable, and trivially
//! producible from other tools:
//!
//! ```text
//! # any comment
//! tasks 4
//! weight 0 2.5
//! weight 2 1.5
//! edge 0 1
//! edge 0 2
//! edge 1 3
//! edge 2 3
//! ```
//!
//! * `tasks <n>` — declares `n` tasks with ids `0..n`; must appear
//!   before any `weight` or `edge` line, exactly once. Task ids are
//!   `u32`, so `n` is at most 2^32.
//! * `weight <id> <w>` — sets one task's weight (`f64`, finite and
//!   positive; validated by the same rule as
//!   [`DagBuilder::set_weight`](abg_dag::DagBuilder::set_weight)).
//!   Omitted tasks keep weight 1. Files with no weight lines load as
//!   unit dags with no weight table at all.
//! * `edge <from> <to>` — one precedence edge.
//!
//! [`write_dag`] emits weights via Rust's shortest-round-trip float
//! formatting, so save → load reproduces every weight bit-for-bit
//! (generator weights are exact binary fractions, but the guarantee
//! holds for arbitrary `f64`s).

use abg_dag::{DagBuilder, DagError, ExplicitDag, TaskId};
use std::fmt::{self, Write as _};
use std::path::Path;

/// Errors from parsing or loading a dag file.
#[derive(Debug)]
pub enum DagFileError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// A line failed to parse; carries the 1-based line number.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What went wrong on that line.
        message: String,
    },
    /// The `tasks` count exceeds the `u32` task-id space (`n > 2^32`),
    /// so no `weight` or `edge` line could address every task.
    TooManyTasks {
        /// 1-based line number of the `tasks` directive.
        line: usize,
        /// The declared task count.
        tasks: u64,
    },
    /// The parsed structure is not a valid dag (cycle, bad weight, …).
    Dag(DagError),
}

/// Most tasks a dag file can declare: one per `u32` task id.
const MAX_TASKS: u64 = 1 << 32;

impl fmt::Display for DagFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagFileError::Io(e) => write!(f, "dag file i/o error: {e}"),
            DagFileError::Parse { line, message } => {
                write!(f, "dag file parse error on line {line}: {message}")
            }
            DagFileError::TooManyTasks { line, tasks } => write!(
                f,
                "dag file error on line {line}: {tasks} tasks exceed the u32 task-id space \
                 (at most {MAX_TASKS})"
            ),
            DagFileError::Dag(e) => write!(f, "dag file rejected: {e}"),
        }
    }
}

impl std::error::Error for DagFileError {}

impl From<std::io::Error> for DagFileError {
    fn from(e: std::io::Error) -> Self {
        DagFileError::Io(e)
    }
}

impl From<DagError> for DagFileError {
    fn from(e: DagError) -> Self {
        DagFileError::Dag(e)
    }
}

/// Serialises a dag to the text format: a `tasks` header, one `weight`
/// line per task when the dag carries a weight table, and one `edge`
/// line per precedence edge in task order.
pub fn write_dag(dag: &ExplicitDag) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# abg dag: {} tasks", dag.num_tasks());
    let _ = writeln!(out, "tasks {}", dag.num_tasks());
    if let Some(wp) = dag.weight_profile() {
        for (i, w) in wp.weights().iter().enumerate() {
            let _ = writeln!(out, "weight {i} {w}");
        }
    }
    for i in 0..dag.num_tasks() {
        let t = TaskId(i as u32);
        for &s in dag.successors(t) {
            let _ = writeln!(out, "edge {} {}", i, s.index());
        }
    }
    out
}

fn parse_field<T: std::str::FromStr>(
    token: Option<&str>,
    what: &str,
    line: usize,
) -> Result<T, DagFileError> {
    let token = token.ok_or_else(|| DagFileError::Parse {
        line,
        message: format!("missing {what}"),
    })?;
    token.parse().map_err(|_| DagFileError::Parse {
        line,
        message: format!("invalid {what} '{token}'"),
    })
}

/// Parses the text format into an [`ExplicitDag`]. Weight validity and
/// acyclicity are enforced by the dag builder, so a loaded dag satisfies
/// exactly the invariants of a programmatically built one.
pub fn parse_dag(text: &str) -> Result<ExplicitDag, DagFileError> {
    let mut builder: Option<DagBuilder> = None;
    let mut saw_weight = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let mut tokens = content.split_whitespace();
        let directive = tokens.next().expect("non-empty line has a first token");
        match directive {
            "tasks" => {
                if builder.is_some() {
                    return Err(DagFileError::Parse {
                        line,
                        message: "duplicate 'tasks' directive".into(),
                    });
                }
                let n: u64 = parse_field(tokens.next(), "task count", line)?;
                if n > MAX_TASKS {
                    return Err(DagFileError::TooManyTasks { line, tasks: n });
                }
                let n = n as usize;
                let mut b = DagBuilder::with_capacity(n);
                for _ in 0..n {
                    b.add_task();
                }
                builder = Some(b);
            }
            "weight" => {
                let b = builder.as_mut().ok_or_else(|| DagFileError::Parse {
                    line,
                    message: "'weight' before 'tasks'".into(),
                })?;
                let id: u32 = parse_field(tokens.next(), "task id", line)?;
                let w: f64 = parse_field(tokens.next(), "weight", line)?;
                b.set_weight(TaskId(id), w)?;
                saw_weight = true;
            }
            "edge" => {
                let b = builder.as_mut().ok_or_else(|| DagFileError::Parse {
                    line,
                    message: "'edge' before 'tasks'".into(),
                })?;
                let from: u32 = parse_field(tokens.next(), "edge source", line)?;
                let to: u32 = parse_field(tokens.next(), "edge target", line)?;
                b.add_edge(TaskId(from), TaskId(to))?;
            }
            other => {
                return Err(DagFileError::Parse {
                    line,
                    message: format!("unknown directive '{other}'"),
                });
            }
        }
        if let Some(extra) = tokens.next() {
            return Err(DagFileError::Parse {
                line,
                message: format!("trailing token '{extra}'"),
            });
        }
    }
    let builder = builder.ok_or_else(|| DagFileError::Parse {
        line: 0,
        message: "missing 'tasks' directive".into(),
    })?;
    let _ = saw_weight; // all-unit weight files legitimately stay unit
    Ok(builder.build()?)
}

/// Writes a dag to `path` in the text format.
pub fn save_dag<P: AsRef<Path>>(path: P, dag: &ExplicitDag) -> Result<(), DagFileError> {
    std::fs::write(path, write_dag(dag))?;
    Ok(())
}

/// Loads a dag from a text-format file at `path`.
pub fn load_dag<P: AsRef<Path>>(path: P) -> Result<ExplicitDag, DagFileError> {
    parse_dag(&std::fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::WorkflowKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parses_the_documented_example() {
        let d = parse_dag(
            "# any comment\n\
             tasks 4\n\
             weight 0 2.5\n\
             weight 2 1.5\n\
             edge 0 1\n\
             edge 0 2\n\
             edge 1 3\n\
             edge 2 3\n",
        )
        .unwrap();
        assert_eq!(d.num_tasks(), 4);
        assert!(!d.is_unit_weight());
        assert_eq!(d.weight(TaskId(0)), 2.5);
        assert_eq!(d.weight(TaskId(1)), 1.0);
        assert_eq!(d.task_cost(TaskId(2)), 2);
        assert_eq!(d.span(), 3);
        assert_eq!(d.work(), 3 + 1 + 2 + 1);
    }

    #[test]
    fn round_trips_every_workflow_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(23);
        for kind in WorkflowKind::ALL {
            let d = kind.generate(7, &mut rng);
            let reloaded = parse_dag(&write_dag(&d)).unwrap();
            assert_eq!(d.num_tasks(), reloaded.num_tasks(), "{kind}");
            assert_eq!(d.work(), reloaded.work(), "{kind}");
            assert_eq!(d.weighted_span(), reloaded.weighted_span(), "{kind}");
            let w1: Vec<u64> = d
                .weight_profile()
                .unwrap()
                .weights()
                .iter()
                .map(|w| w.to_bits())
                .collect();
            let w2: Vec<u64> = reloaded
                .weight_profile()
                .unwrap()
                .weights()
                .iter()
                .map(|w| w.to_bits())
                .collect();
            assert_eq!(w1, w2, "{kind}: weights must round-trip bit-for-bit");
            for i in 0..d.num_tasks() {
                let t = TaskId(i as u32);
                assert_eq!(d.successors(t), reloaded.successors(t), "{kind} task {i}");
            }
        }
    }

    #[test]
    fn unit_dag_round_trips_without_a_weight_table() {
        let d = abg_dag::generate::fork_join_diamond(5);
        let reloaded = parse_dag(&write_dag(&d)).unwrap();
        assert!(reloaded.is_unit_weight());
        assert!(reloaded.weight_profile().is_none());
        assert_eq!(d.work(), reloaded.work());
        assert_eq!(d.span(), reloaded.span());
    }

    #[test]
    fn save_and_load_through_the_filesystem() {
        let mut rng = StdRng::seed_from_u64(5);
        let d = WorkflowKind::Montage.generate(4, &mut rng);
        let path = std::env::temp_dir().join("abg_dagfile_roundtrip_test.dag");
        save_dag(&path, &d).unwrap();
        let reloaded = load_dag(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(d.work(), reloaded.work());
        assert_eq!(d.weighted_span(), reloaded.weighted_span());
    }

    #[test]
    fn rejects_malformed_input_with_line_numbers() {
        let err = parse_dag("tasks 2\nedge 0\n").unwrap_err();
        assert!(
            err.to_string().contains("line 2") && err.to_string().contains("edge target"),
            "{err}"
        );
        let err = parse_dag("weight 0 2.0\n").unwrap_err();
        assert!(err.to_string().contains("'weight' before 'tasks'"), "{err}");
        let err = parse_dag("tasks 2\ntasks 2\n").unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
        let err = parse_dag("tasks 1\nweight 0 two\n").unwrap_err();
        assert!(err.to_string().contains("invalid weight 'two'"), "{err}");
        let err = parse_dag("tasks 2\nedge 0 1 9\n").unwrap_err();
        assert!(err.to_string().contains("trailing token '9'"), "{err}");
        let err = parse_dag("").unwrap_err();
        assert!(err.to_string().contains("missing 'tasks'"), "{err}");
        let err = parse_dag("nodes 3\n").unwrap_err();
        assert!(
            err.to_string().contains("unknown directive 'nodes'"),
            "{err}"
        );
    }

    #[test]
    fn task_counts_beyond_the_id_space_are_rejected_before_allocating() {
        let err = parse_dag("# huge\ntasks 99999999999999\n").unwrap_err();
        assert!(matches!(
            err,
            DagFileError::TooManyTasks {
                line: 2,
                tasks: 99_999_999_999_999
            }
        ));
        assert_eq!(
            err.to_string(),
            "dag file error on line 2: 99999999999999 tasks exceed the u32 task-id space \
             (at most 4294967296)"
        );
        let err = parse_dag("tasks 4294967297\n").unwrap_err();
        assert!(matches!(err, DagFileError::TooManyTasks { line: 1, .. }));
    }

    #[test]
    fn unrepresentable_weighted_work_surfaces_the_typed_dag_error() {
        let err = parse_dag("tasks 2\nweight 0 1e308\nedge 0 1\n").unwrap_err();
        assert!(matches!(
            err,
            DagFileError::Dag(DagError::CostOverflow(TaskId(0)))
        ));
        assert_eq!(
            err.to_string(),
            "dag file rejected: weighted work overflows u64 steps at task t0"
        );
        let err = parse_dag("tasks 2\nweight 0 1e19\nweight 1 1e19\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "dag file rejected: weighted work overflows u64 steps at task t1"
        );
    }

    #[test]
    fn invalid_weights_surface_the_typed_dag_error() {
        let err = parse_dag("tasks 1\nweight 0 -2.0\n").unwrap_err();
        assert!(
            err.to_string()
                .contains("invalid weight for task t0: must be finite and positive"),
            "{err}"
        );
        let err = parse_dag("tasks 2\nedge 0 1\nedge 1 0\n").unwrap_err();
        assert!(matches!(err, DagFileError::Dag(_)), "{err}");
    }
}
