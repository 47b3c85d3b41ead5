//! Per-quantum statistics measured by the task scheduler.

use serde::{Deserialize, Serialize};

/// Statistics collected by a task scheduler over one scheduling quantum
/// (Sections 2 and 5.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantumStats {
    /// Processors allotted for the quantum, `a(q)`.
    pub allotment: u32,
    /// Nominal quantum length in steps, `L` (the final quantum of a job
    /// may stop working earlier; see [`QuantumStats::steps_worked`]).
    pub quantum_len: u64,
    /// Steps in which at least one task executed. Equal to
    /// `quantum_len` for every quantum except possibly the job's last.
    pub steps_worked: u64,
    /// Quantum work `T1(q)`: tasks completed during the quantum.
    pub work: u64,
    /// Quantum critical-path length `T∞(q)`: levels advanced, counting a
    /// partially completed level as (tasks completed there) / (level
    /// size). Fractional, per the paper's Figure 2.
    pub span: f64,
    /// Whether the job completed during this quantum.
    pub completed: bool,
}

impl QuantumStats {
    /// The record of a `quantum_len`-step quantum at allotment 0, in
    /// which nothing ran: no work, a `+0.0` span, not completed.
    #[inline]
    pub fn idle(quantum_len: u64) -> Self {
        QuantumStats {
            allotment: 0,
            quantum_len,
            steps_worked: 0,
            work: 0,
            span: 0.0,
            completed: false,
        }
    }

    /// Whether this is, bit for bit, the [`idle`](QuantumStats::idle)
    /// record of a `quantum_len`-step quantum (a `-0.0` span is not).
    #[inline]
    pub fn is_idle(&self, quantum_len: u64) -> bool {
        self.allotment == 0
            && self.quantum_len == quantum_len
            && self.steps_worked == 0
            && self.work == 0
            && self.span.to_bits() == 0
            && !self.completed
    }

    /// Whether this was a *full* quantum: work was done on every time
    /// step of the quantum (Section 5.1). All quanta of a live job with a
    /// positive allotment are full except possibly the last.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.steps_worked == self.quantum_len && self.work > 0
    }

    /// Quantum average parallelism `A(q) = T1(q) / T∞(q)`.
    ///
    /// Returns `None` for a quantum in which no work was done (e.g. a
    /// zero allotment): the parallelism measurement is undefined there
    /// and the feedback controller must skip it.
    #[inline]
    pub fn average_parallelism(&self) -> Option<f64> {
        if self.work == 0 || self.span <= 0.0 {
            None
        } else {
            Some(self.work as f64 / self.span)
        }
    }

    /// Quantum work efficiency `α(q) = T1(q) / (a(q)·L)` (Section 5.1).
    ///
    /// Returns `None` when the allotment was zero.
    #[inline]
    pub fn work_efficiency(&self) -> Option<f64> {
        if self.allotment == 0 || self.quantum_len == 0 {
            None
        } else {
            Some(self.work as f64 / (self.allotment as f64 * self.quantum_len as f64))
        }
    }

    /// Quantum critical-path length efficiency `β(q) = T∞(q) / L`
    /// (Section 5.1).
    #[inline]
    pub fn span_efficiency(&self) -> Option<f64> {
        if self.quantum_len == 0 {
            None
        } else {
            Some(self.span / self.quantum_len as f64)
        }
    }

    /// Processor cycles wasted in the quantum under the paper's
    /// accounting: the job holds its allotment for the whole quantum, so
    /// waste is `a(q)·L − T1(q)`.
    #[inline]
    pub fn waste(&self) -> u64 {
        (self.allotment as u64 * self.quantum_len).saturating_sub(self.work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(allotment: u32, quantum_len: u64, steps: u64, work: u64, span: f64) -> QuantumStats {
        QuantumStats {
            allotment,
            quantum_len,
            steps_worked: steps,
            work,
            span,
            completed: false,
        }
    }

    #[test]
    fn figure2_numbers() {
        // The paper's Figure 2: T1(q) = 12, T∞(q) = 2.4, A(q) = 5.
        let s = stats(4, 3, 3, 12, 2.4);
        assert_eq!(s.average_parallelism(), Some(5.0));
        assert!(s.is_full());
        assert_eq!(s.waste(), 0);
        assert_eq!(s.work_efficiency(), Some(1.0));
        assert!((s.span_efficiency().unwrap() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn zero_work_quantum_has_no_parallelism() {
        let s = stats(0, 10, 0, 0, 0.0);
        assert_eq!(s.average_parallelism(), None);
        assert!(!s.is_full());
        assert_eq!(s.work_efficiency(), None);
    }

    #[test]
    fn partial_final_quantum_not_full() {
        let s = stats(2, 10, 4, 8, 4.0);
        assert!(!s.is_full());
        assert_eq!(s.waste(), 2 * 10 - 8);
    }

    #[test]
    fn efficiency_bounds_hold_for_full_quantum() {
        // α(q) + β(q) ≥ 1 must hold for full quanta (Inequality (5));
        // spot-check a representative sample.
        let s = stats(4, 10, 10, 25, 4.0);
        let a = s.work_efficiency().unwrap();
        let b = s.span_efficiency().unwrap();
        assert!(a + b >= 0.99, "α={a} β={b}");
    }

    #[test]
    fn waste_saturates() {
        // Work can exceed a·L only through accounting mistakes; waste
        // must not underflow.
        let s = stats(1, 5, 5, 100, 1.0);
        assert_eq!(s.waste(), 0);
    }
}
