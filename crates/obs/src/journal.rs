//! Bounded ring-buffer journal of slow queries.
//!
//! The journal keeps the most recent `capacity` queries whose total
//! latency met the configurable threshold, as structured records (query
//! shape, session class, snapshot generation, per-stage micros, worker
//! count). Appends take a mutex, but only queries that are *already
//! slow* ever reach it, so the hot path is untouched: fast queries pay
//! one relaxed atomic load for the threshold comparison.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// Default slow-query threshold: 10 ms.
pub const DEFAULT_SLOW_QUERY_MICROS: u64 = 10_000;

/// Default journal capacity (records retained).
pub const DEFAULT_JOURNAL_CAPACITY: usize = 128;

/// [`SlowQueryRecord::outcome`] of a query that ran to completion.
pub const OUTCOME_COMPLETED: &str = "completed";

/// [`SlowQueryRecord::outcome`] of a query cancelled by its deadline;
/// the stage fields past the terminal stage are zero.
pub const OUTCOME_DEADLINE_EXCEEDED: &str = "deadline_exceeded";

/// [`SlowQueryRecord::outcome`] of a query whose execution panicked
/// (contained); the stage fields past the terminal stage are zero.
pub const OUTCOME_PANICKED: &str = "panicked";

/// One journaled slow query: what ran, where, and where the time went.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQueryRecord {
    /// Compact description of the query shape, e.g.
    /// `"Sales group_by=[City] measures=2"` or `"batch:Sales×8"`.
    pub shape: String,
    /// Session-class name the query ran under.
    pub class: String,
    /// Cube snapshot generation the query executed against.
    pub generation: u64,
    /// Morsel workers used by the scan phase.
    pub workers: usize,
    /// Time spent resolving the query against the schema, in µs.
    pub resolve_micros: u64,
    /// Time spent in the parallel scan phase, in µs.
    pub scan_micros: u64,
    /// Time spent merging per-morsel partials, in µs.
    pub merge_micros: u64,
    /// Time spent materialising the result table, in µs.
    pub finalize_micros: u64,
    /// End-to-end time, in µs (what the threshold compares against).
    pub total_micros: u64,
    /// How the query ended: [`OUTCOME_COMPLETED`] for ordinary slow
    /// queries, [`OUTCOME_DEADLINE_EXCEEDED`] / [`OUTCOME_PANICKED`]
    /// for abnormal exits — those are journaled regardless of the
    /// threshold (they would otherwise vanish silently), with the zero
    /// stage fields marking where execution stopped.
    pub outcome: String,
}

/// Bounded ring buffer of [`SlowQueryRecord`]s with an atomically
/// adjustable threshold.
#[derive(Debug)]
pub struct SlowQueryJournal {
    threshold_micros: AtomicU64,
    capacity: usize,
    ring: Mutex<VecDeque<SlowQueryRecord>>,
}

impl Default for SlowQueryJournal {
    fn default() -> Self {
        Self::new(DEFAULT_SLOW_QUERY_MICROS, DEFAULT_JOURNAL_CAPACITY)
    }
}

impl SlowQueryJournal {
    /// Creates a journal retaining up to `capacity` records of queries
    /// slower than `threshold_micros`.
    pub fn new(threshold_micros: u64, capacity: usize) -> Self {
        Self {
            threshold_micros: AtomicU64::new(threshold_micros),
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
        }
    }

    /// Current threshold in microseconds.
    #[inline]
    pub fn threshold_micros(&self) -> u64 {
        self.threshold_micros.load(Ordering::Relaxed)
    }

    /// Adjusts the threshold; takes effect for subsequent queries.
    pub fn set_threshold_micros(&self, micros: u64) {
        self.threshold_micros.store(micros, Ordering::Relaxed);
    }

    /// True when `total_micros` meets the threshold — callers use this
    /// to skip building the record (shape string etc.) for fast queries.
    #[inline]
    pub fn is_slow(&self, total_micros: u64) -> bool {
        total_micros >= self.threshold_micros()
    }

    /// Appends a record, evicting the oldest when at capacity.
    pub fn record(&self, rec: SlowQueryRecord) {
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(rec);
    }

    /// Returns the retained records, oldest first.
    pub fn snapshot(&self) -> Vec<SlowQueryRecord> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// True when no slow queries have been journaled.
    pub fn is_empty(&self) -> bool {
        self.ring.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(shape: &str, total: u64) -> SlowQueryRecord {
        SlowQueryRecord {
            shape: shape.to_string(),
            class: "default".to_string(),
            generation: 1,
            workers: 4,
            resolve_micros: 1,
            scan_micros: total / 2,
            merge_micros: total / 4,
            finalize_micros: total / 4,
            total_micros: total,
            outcome: OUTCOME_COMPLETED.to_string(),
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let j = SlowQueryJournal::new(0, 3);
        for i in 0..5 {
            j.record(rec(&format!("q{i}"), 100 + i));
        }
        let snap = j.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].shape, "q2");
        assert_eq!(snap[2].shape, "q4");
    }

    #[test]
    fn threshold_is_adjustable() {
        let j = SlowQueryJournal::default();
        assert!(j.is_slow(DEFAULT_SLOW_QUERY_MICROS));
        assert!(!j.is_slow(DEFAULT_SLOW_QUERY_MICROS - 1));
        j.set_threshold_micros(5);
        assert!(j.is_slow(5));
        assert!(!j.is_slow(4));
    }
}
