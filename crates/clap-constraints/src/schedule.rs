//! Schedules: total orders over SAPs, plus the §4.2 context-switch metric.

use clap_symex::{SapId, SapKind, SymTrace};

/// A candidate (or computed) schedule: a total order over every SAP of the
/// trace. Position `i` holds the SAP executed (for writes: made visible)
/// `i`-th.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// SAPs in execution order.
    pub order: Vec<SapId>,
}

impl Schedule {
    /// Builds a schedule, checking it is a permutation of `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the trace's SAP ids.
    pub fn new(order: Vec<SapId>, trace: &SymTrace) -> Self {
        assert_eq!(
            order.len(),
            trace.sap_count(),
            "schedule must cover every SAP"
        );
        let mut seen = vec![false; order.len()];
        for s in &order {
            assert!(!seen[s.index()], "duplicate SAP in schedule");
            seen[s.index()] = true;
        }
        Schedule { order }
    }

    /// Position of each SAP within the schedule (inverse permutation).
    pub fn positions(&self) -> Vec<u32> {
        let mut pos = vec![0u32; self.order.len()];
        for (i, s) in self.order.iter().enumerate() {
            pos[s.index()] = i as u32;
        }
        pos
    }

    /// The number of *preemptive* thread context switches, computed with
    /// the paper's segment approximation (§4.2): per-thread SAP sequences
    /// are split into segments at must-interleave operations (wait
    /// completions and joins, whose context switches are unavoidable);
    /// a segment that is interleaved by another thread's SAP counts as one
    /// preemptive switch.
    pub fn context_switches(&self, trace: &SymTrace) -> usize {
        let pos = self.positions();
        let mut count = 0usize;
        for thread_saps in &trace.per_thread {
            for segment in segments(trace, thread_saps) {
                if segment.len() <= 1 {
                    continue;
                }
                let lo = segment
                    .iter()
                    .map(|s| pos[s.index()])
                    .min()
                    .expect("non-empty");
                let hi = segment
                    .iter()
                    .map(|s| pos[s.index()])
                    .max()
                    .expect("non-empty");
                // The segment spans [lo, hi]; if it contains exactly its
                // own SAPs, no other thread interleaved it.
                if (hi - lo + 1) as usize > segment.len() {
                    count += 1;
                }
            }
        }
        count
    }
}

/// Splits a thread's SAPs into segments at must-interleave operations.
/// A must-interleave SAP *leads* a new segment: the wait forced before a
/// join/wait-completion is non-preemptive, so the gap in front of the
/// operation must fall between segments, not inside one.
fn segments(trace: &SymTrace, saps: &[SapId]) -> Vec<Vec<SapId>> {
    let mut out = Vec::new();
    let mut cur: Vec<SapId> = Vec::new();
    for &s in saps {
        let must_interleave = matches!(
            trace.sap(s).kind,
            SapKind::Wait { .. } | SapKind::Join { .. }
        );
        if must_interleave && !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
        cur.push(s);
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

impl Schedule {
    /// Renders the schedule as one letter per position: `M` for the main
    /// thread, `A`, `B`, … for workers — the compact form used by the
    /// examples and the CLI to show preemption structure at a glance.
    pub fn thread_letters(&self, trace: &SymTrace) -> String {
        self.order
            .iter()
            .map(|&s| match trace.sap(s).thread.0 {
                0 => 'M',
                n => (b'A' + ((n as u8 - 1) % 26)) as char,
            })
            .collect()
    }
}
