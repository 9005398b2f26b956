//! The lock-free metrics registry: stages, session classes, counters,
//! gauges, and per-(stage, class) latency histograms.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

use crate::hist::LatencyHistogram;
use crate::journal::SlowQueryJournal;
use crate::snapshot::{MetricsSnapshot, StageSnapshot};

/// Maximum number of session classes a registry tracks. Registration
/// beyond this falls back to class 0 (`"default"`).
pub const MAX_CLASSES: usize = 8;

/// An instrumented pipeline stage. Every latency histogram in the
/// registry is keyed by one of these plus a [`ClassId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant names are the documentation
pub enum Stage {
    // Standalone query pipeline.
    QueryResolve,
    QueryScan,
    QueryMerge,
    QueryFinalize,
    QueryTotal,
    // Shared-scan batch pipeline.
    BatchResolve,
    BatchScan,
    BatchMerge,
    BatchFinalize,
    BatchTotal,
    // Ingest pipeline.
    IngestValidate,
    IngestApply,
    IngestPublish,
    IngestCompact,
    // Rule firing.
    RuleCondition,
    RuleEffect,
    // Session / cache layer.
    SessionStart,
    SessionEnd,
    CacheLookup,
    // Morsel-pool scheduler: time a helper task item spent queued
    // between submission and dispatch, keyed by tenant class.
    SchedulerWait,
}

impl Stage {
    /// Every stage, in exposition order — which is declaration order:
    /// `ALL[i] as usize == i` (unit-tested), so a stage's discriminant
    /// is its histogram row.
    pub const ALL: [Stage; 20] = [
        Stage::QueryResolve,
        Stage::QueryScan,
        Stage::QueryMerge,
        Stage::QueryFinalize,
        Stage::QueryTotal,
        Stage::BatchResolve,
        Stage::BatchScan,
        Stage::BatchMerge,
        Stage::BatchFinalize,
        Stage::BatchTotal,
        Stage::IngestValidate,
        Stage::IngestApply,
        Stage::IngestPublish,
        Stage::IngestCompact,
        Stage::RuleCondition,
        Stage::RuleEffect,
        Stage::SessionStart,
        Stage::SessionEnd,
        Stage::CacheLookup,
        Stage::SchedulerWait,
    ];

    /// Stable snake_case name used as the `stage` label in exposition.
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueryResolve => "query_resolve",
            Stage::QueryScan => "query_scan",
            Stage::QueryMerge => "query_merge",
            Stage::QueryFinalize => "query_finalize",
            Stage::QueryTotal => "query_total",
            Stage::BatchResolve => "batch_resolve",
            Stage::BatchScan => "batch_scan",
            Stage::BatchMerge => "batch_merge",
            Stage::BatchFinalize => "batch_finalize",
            Stage::BatchTotal => "batch_total",
            Stage::IngestValidate => "ingest_validate",
            Stage::IngestApply => "ingest_apply",
            Stage::IngestPublish => "ingest_publish",
            Stage::IngestCompact => "ingest_compact",
            Stage::RuleCondition => "rule_condition",
            Stage::RuleEffect => "rule_effect",
            Stage::SessionStart => "session_start",
            Stage::SessionEnd => "session_end",
            Stage::CacheLookup => "cache_lookup",
            Stage::SchedulerWait => "scheduler_wait",
        }
    }

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

const STAGE_COUNT: usize = Stage::ALL.len();

/// Dense session-class id — the per-tenant key latency histograms are
/// partitioned by. Class 0 is always `"default"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ClassId(pub u8);

impl ClassId {
    /// The default class every unclassified session records under.
    pub const DEFAULT: ClassId = ClassId(0);
}

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds one. One relaxed `fetch_add`.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An atomic gauge: a value that can move both ways (e.g. active
/// sessions, queue depth).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Creates a gauge at zero.
    pub const fn new() -> Self {
        Self(AtomicI64::new(0))
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrements by one.
    #[inline]
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The process-wide metrics registry.
///
/// All `(stage, class)` histograms are pre-allocated at construction, so
/// [`record_micros`](Self::record_micros) is a bounds-checked array
/// index plus two relaxed atomic adds — no allocation, no locking, no
/// hashing. The only mutex guards the class-name list, touched solely
/// by [`register_class`](Self::register_class) and snapshot assembly.
///
/// A registry built with [`disabled`](Self::disabled) turns every
/// recording entry point into an early return on one `bool`, and
/// [`span`](Self::span) never reads the clock.
#[derive(Debug)]
pub struct MetricsRegistry {
    enabled: bool,
    /// `STAGE_COUNT * MAX_CLASSES` histograms, stage-major.
    hists: Box<[LatencyHistogram]>,
    classes: Mutex<Vec<String>>,
    journal: SlowQueryJournal,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Creates an enabled registry with the default slow-query journal.
    pub fn new() -> Self {
        Self::build(true)
    }

    /// Creates a disabled registry: every recording call is a single
    /// branch, spans never read the clock, snapshots are empty.
    pub fn disabled() -> Self {
        Self::build(false)
    }

    fn build(enabled: bool) -> Self {
        let hists = (0..STAGE_COUNT * MAX_CLASSES)
            .map(|_| LatencyHistogram::new())
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            enabled,
            hists,
            classes: Mutex::new(vec!["default".to_string()]),
            journal: SlowQueryJournal::default(),
        }
    }

    /// Whether this registry records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The slow-query journal owned by this registry.
    pub fn journal(&self) -> &SlowQueryJournal {
        &self.journal
    }

    /// Registers (or looks up) a session class by name, returning its
    /// dense id. Idempotent per name. Once [`MAX_CLASSES`] names exist,
    /// further names alias to class 0 rather than failing — metrics are
    /// best-effort, never an error source.
    pub fn register_class(&self, name: &str) -> ClassId {
        let mut classes = self.classes.lock();
        if let Some(pos) = classes.iter().position(|c| c == name) {
            return ClassId(pos as u8);
        }
        if classes.len() >= MAX_CLASSES {
            return ClassId::DEFAULT;
        }
        classes.push(name.to_string());
        ClassId((classes.len() - 1) as u8)
    }

    /// Every registered class name, index-aligned with [`ClassId`].
    pub fn class_names(&self) -> Vec<String> {
        self.classes.lock().clone()
    }

    /// Name of a class id (`"default"` for out-of-range ids).
    pub fn class_name(&self, class: ClassId) -> String {
        let classes = self.classes.lock();
        classes
            .get(class.0 as usize)
            .cloned()
            .unwrap_or_else(|| "default".to_string())
    }

    #[inline]
    fn hist(&self, stage: Stage, class: ClassId) -> &LatencyHistogram {
        let c = (class.0 as usize).min(MAX_CLASSES - 1);
        &self.hists[stage.index() * MAX_CLASSES + c]
    }

    /// Records one latency sample for `(stage, class)`. Two relaxed
    /// atomic adds when enabled; a single branch when disabled.
    #[inline]
    pub fn record_micros(&self, stage: Stage, class: ClassId, micros: u64) {
        if !self.enabled {
            return;
        }
        self.hist(stage, class).record(micros);
    }

    /// Starts a stage-timing span that records its elapsed time into
    /// `(stage, class)` when dropped or [`finish`](StageSpan::finish)ed.
    /// On a disabled registry the span is inert and the clock is never
    /// read.
    #[inline]
    pub fn span(&self, stage: Stage, class: ClassId) -> StageSpan<'_> {
        StageSpan {
            registry: self,
            stage,
            class,
            start: if self.enabled {
                Some(Instant::now())
            } else {
                None
            },
        }
    }

    /// Snapshot of one `(stage, class)` histogram.
    pub fn stage_histogram(&self, stage: Stage, class: ClassId) -> crate::hist::HistogramSnapshot {
        self.hist(stage, class).snapshot()
    }

    /// Assembles the full per-stage snapshot: one [`StageSnapshot`] per
    /// non-empty `(stage, class)` histogram, plus the journal contents.
    /// Engine-level counters and gauges are appended by the caller,
    /// which owns them.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let classes: Vec<String> = self.classes.lock().clone();
        let mut stages = Vec::new();
        if self.enabled {
            for stage in Stage::ALL {
                for (c, name) in classes.iter().enumerate() {
                    let hist = self.hist(stage, ClassId(c as u8)).snapshot();
                    if hist.is_empty() {
                        continue;
                    }
                    stages.push(StageSnapshot {
                        stage: stage.name().to_string(),
                        class: name.clone(),
                        count: hist.count,
                        sum_micros: hist.sum_micros,
                        p50: hist.quantile(0.50),
                        p90: hist.quantile(0.90),
                        p99: hist.quantile(0.99),
                    });
                }
            }
        }
        MetricsSnapshot {
            enabled: self.enabled,
            stages,
            counters: Vec::new(),
            gauges: Vec::new(),
            slow_queries: self.journal.snapshot(),
        }
    }
}

/// RAII stage timer from [`MetricsRegistry::span`]: measures from
/// construction to drop (or [`finish`](Self::finish)) and records the
/// elapsed microseconds. Inert — no clock reads at all — when the
/// registry is disabled.
#[derive(Debug)]
pub struct StageSpan<'a> {
    registry: &'a MetricsRegistry,
    stage: Stage,
    class: ClassId,
    start: Option<Instant>,
}

impl StageSpan<'_> {
    /// Ends the span now, recording and returning the elapsed µs
    /// (0 on a disabled registry).
    pub fn finish(mut self) -> u64 {
        self.finish_inner()
    }

    fn finish_inner(&mut self) -> u64 {
        match self.start.take() {
            Some(start) => {
                let micros = start.elapsed().as_micros() as u64;
                self.registry.record_micros(self.stage, self.class, micros);
                micros
            }
            None => 0,
        }
    }
}

impl Drop for StageSpan<'_> {
    fn drop(&mut self) {
        self.finish_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_index_is_declaration_order_and_names_are_unique() {
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(stage as usize, i, "{stage:?} is out of place in ALL");
            assert_eq!(stage.index(), i);
        }
        let names: std::collections::BTreeSet<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), STAGE_COUNT, "two stages share a name");
    }

    #[test]
    fn record_and_snapshot_roundtrip() {
        let reg = MetricsRegistry::new();
        let vip = reg.register_class("vip");
        reg.record_micros(Stage::QueryScan, ClassId::DEFAULT, 100);
        reg.record_micros(Stage::QueryScan, vip, 9_000);
        reg.record_micros(Stage::QueryScan, vip, 9_000);
        let snap = reg.snapshot();
        assert!(snap.enabled);
        let default = snap
            .stages
            .iter()
            .find(|s| s.stage == "query_scan" && s.class == "default")
            .unwrap();
        assert_eq!(default.count, 1);
        let vip_row = snap
            .stages
            .iter()
            .find(|s| s.stage == "query_scan" && s.class == "vip")
            .unwrap();
        assert_eq!(vip_row.count, 2);
        assert!(vip_row.p50 >= 9_000 && vip_row.p50 < 18_000);
    }

    #[test]
    fn class_registration_is_idempotent_and_bounded() {
        let reg = MetricsRegistry::new();
        let a = reg.register_class("dash");
        assert_eq!(reg.register_class("dash"), a);
        assert_eq!(reg.register_class("default"), ClassId::DEFAULT);
        for i in 0..MAX_CLASSES * 2 {
            reg.register_class(&format!("c{i}"));
        }
        // Overflowing registrations alias to the default class.
        assert_eq!(reg.register_class("one-too-many"), ClassId::DEFAULT);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = MetricsRegistry::disabled();
        reg.record_micros(Stage::QueryTotal, ClassId::DEFAULT, 1_000_000);
        {
            let _span = reg.span(Stage::QueryScan, ClassId::DEFAULT);
        }
        let snap = reg.snapshot();
        assert!(!snap.enabled);
        assert!(snap.stages.is_empty());
    }

    #[test]
    fn span_records_on_drop_and_finish() {
        let reg = MetricsRegistry::new();
        {
            let _s = reg.span(Stage::SessionStart, ClassId::DEFAULT);
        }
        let s = reg.span(Stage::SessionEnd, ClassId::DEFAULT);
        let _micros = s.finish();
        assert_eq!(
            reg.stage_histogram(Stage::SessionStart, ClassId::DEFAULT)
                .count,
            1
        );
        assert_eq!(
            reg.stage_histogram(Stage::SessionEnd, ClassId::DEFAULT)
                .count,
            1
        );
    }
}
