//! Unified observability for the SDWP engine: a lock-free metrics
//! registry, span-style stage timing, fixed-bucket log₂ latency
//! histograms, a bounded slow-query journal and a Prometheus-style text
//! exposition.
//!
//! # Design
//!
//! The registry is built so that **recording on a hot path costs a couple
//! of relaxed atomic operations** and nothing else: a latency sample is
//! one `fetch_add` on a log₂ bucket plus one on the running sum
//! ([`LatencyHistogram::record`]), a counter bump is one `fetch_add`
//! ([`Counter::add`]). There are no locks anywhere on the recording path;
//! locks appear only at class registration, journal appends (which happen
//! at most once per *slow* query) and snapshot assembly.
//!
//! A **disabled** registry ([`MetricsRegistry::disabled`]) reduces every
//! instrumentation site to a single predictable branch: spans never call
//! `Instant::now`, histograms are never touched, the journal never
//! records (`tests/metrics_facade.rs` checks that nothing is recorded).
//!
//! Latency samples are keyed two ways: by [`Stage`] (a fixed enum of the
//! engine's instrumented pipeline stages — query resolve/scan/merge/
//! finalize standalone and batched, ingest validate/apply/publish/
//! compact, rule condition/effect, session lifecycle) and by [`ClassId`]
//! (a small dense *session class* id, the tenant key a future
//! admission-control scheduler reads per-class p50/p99 quantiles from).
//!
//! Histogram buckets are powers of two of microseconds, so quantile
//! estimates carry a guaranteed bound: the estimate lies in the same
//! bucket as the true quantile, i.e. `exact <= estimate < 2 * exact`
//! (enforced against a sorted-vector reference by the property suite).
//! Snapshots are plain data and **mergeable** ([`HistogramSnapshot::merge`]),
//! so per-shard or per-process histograms can be aggregated exactly.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod hist;
pub mod journal;
pub mod registry;
pub mod snapshot;

pub use hist::{HistogramSnapshot, LatencyHistogram, HISTOGRAM_BUCKETS};
pub use journal::{
    SlowQueryJournal, SlowQueryRecord, OUTCOME_COMPLETED, OUTCOME_DEADLINE_EXCEEDED,
    OUTCOME_PANICKED,
};
pub use registry::{ClassId, Counter, Gauge, MetricsRegistry, Stage, StageSpan, MAX_CLASSES};
pub use snapshot::{MetricsSnapshot, StageSnapshot};
