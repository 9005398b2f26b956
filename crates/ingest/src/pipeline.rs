//! The bounded-channel ingestion pipeline and its epoch worker.
//!
//! Producers ([`IngestHandle`], cheaply cloneable) submit [`DeltaBatch`]es
//! into a bounded channel; one dedicated worker thread drains it, applies
//! each batch atomically to the write master through the [`CubeSink`]
//! trait, and publishes an immutable cube snapshot whenever the
//! [`EpochPolicy`] says an epoch is over — after `max_rows` mutations or
//! `max_interval` of wall clock, whichever comes first. Readers only ever
//! see published snapshots, so a batch is either entirely visible or not
//! at all, and queries in flight keep the snapshot they loaded.
//!
//! Backpressure is the bounded channel: [`IngestHandle::submit`] blocks
//! when the queue is full (slowing the producer to the apply rate), while
//! [`IngestHandle::try_submit`] refuses with
//! [`IngestError::Backpressure`] so latency-sensitive producers can shed
//! load instead of stalling.

use crate::delta::{BatchOutcome, DeltaBatch};
use crate::error::IngestError;
use parking_lot::Mutex;
use sdwp_olap::{FactTableStats, OlapError};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where applied batches go: the engine's write master and snapshot
/// publisher. Implemented by `sdwp-core` over its mutex-guarded master
/// cube, `VersionedSwap` snapshot and result cache; kept as a trait so
/// the pipeline (and its tests) do not depend on the engine crate.
pub trait CubeSink: Send + Sync {
    /// Applies one batch **atomically** to the write master: validate
    /// against the current master first, mutate only if the whole batch is
    /// valid, and hold the master lock across the batch so concurrent
    /// writers (rule firing) never interleave inside it.
    fn apply_batch(&self, batch: &DeltaBatch) -> Result<BatchOutcome, OlapError>;

    /// Publishes the current master as a new immutable snapshot and
    /// returns the new generation. `changed_facts` is the union of the
    /// fact tables the epoch's batches changed — the implementor scopes
    /// result-cache invalidation to exactly those facts.
    fn publish_epoch(&self, changed_facts: &BTreeSet<String>) -> u64;

    /// Compacts every fact table whose tombstone pressure crosses the
    /// policy, publishing a fresh snapshot per compacted table, with one
    /// typed outcome per candidate table. Called by the epoch worker
    /// right after each publication. The default does nothing — sinks
    /// without compaction support stay valid.
    fn maybe_compact(
        &self,
        _policy: &CompactionPolicy,
    ) -> Vec<Result<CompactionOutcome, OlapError>> {
        Vec::new()
    }

    /// Per-fact storage counters (total / live rows, tombstone ratio,
    /// compactions) of the write master, surfaced through
    /// [`IngestStats::fact_tables`]. The default reports nothing.
    fn fact_stats(&self) -> Vec<FactTableStats> {
        Vec::new()
    }

    /// Called by the supervisor after the epoch worker panicked and
    /// before it is restarted. Implementors re-establish a consistent
    /// externally visible state — `sdwp-core` republishes the write
    /// master as a fresh snapshot, so mutations applied before the panic
    /// but never published become visible instead of lingering
    /// master-only. The default does nothing.
    fn on_worker_restart(&self) {}

    /// Registers `producer`'s anchored compaction version for `fact`:
    /// the sink must retain the remap chain back to `version` (i.e.
    /// never trim past the minimum registered floor), so an id-addressed
    /// producer that lags behind the compaction cadence can still
    /// translate its stale row ids. The default does nothing.
    fn set_producer_floor(&self, _producer: &str, _fact: &str, _version: u64) {}

    /// Drops every floor registered under `producer`, releasing the
    /// remap history it pinned. The default does nothing.
    fn clear_producer_floor(&self, _producer: &str) {}
}

/// When the epoch worker rewrites a tombstone-heavy fact table.
///
/// Disabled by default: compaction remaps stable row ids, so producers
/// that address rows by id (upserts, retractions) must either re-resolve
/// ids after a compaction (via the published remap chain) or only ever
/// append. Enable it by setting a ratio ≤ 1.0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionPolicy {
    /// Tombstone ratio (dead rows / total rows) at or above which a fact
    /// table is compacted. A value above `1.0` disables compaction.
    pub max_tombstone_ratio: f64,
    /// Minimum total rows before a table is considered (small tables are
    /// never worth rewriting).
    pub min_rows: usize,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy::disabled()
    }
}

impl CompactionPolicy {
    /// A policy that never compacts (the default).
    pub fn disabled() -> Self {
        CompactionPolicy {
            max_tombstone_ratio: 2.0,
            min_rows: 1024,
        }
    }

    /// Sets the tombstone-ratio trigger (≤ 1.0 enables compaction).
    pub fn with_max_tombstone_ratio(mut self, ratio: f64) -> Self {
        self.max_tombstone_ratio = ratio;
        self
    }

    /// Sets the minimum table size considered for compaction.
    pub fn with_min_rows(mut self, min_rows: usize) -> Self {
        self.min_rows = min_rows;
        self
    }

    /// Whether this policy can ever trigger.
    pub fn is_enabled(&self) -> bool {
        self.max_tombstone_ratio <= 1.0
    }

    /// Whether a table with the given row counts should be compacted now.
    pub fn should_compact(&self, total_rows: usize, live_rows: usize) -> bool {
        self.is_enabled() && total_rows >= self.min_rows.max(1) && {
            let dead = (total_rows - live_rows) as f64;
            dead / total_rows as f64 >= self.max_tombstone_ratio
        }
    }
}

/// What one compaction did, as reported by [`CubeSink::maybe_compact`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionOutcome {
    /// The compacted fact table.
    pub fact: String,
    /// Rows (live + dead) before the rewrite.
    pub rows_before: usize,
    /// Live rows after the rewrite (all of them, by construction).
    pub live_rows: usize,
    /// The generation of the snapshot that published the rewrite.
    pub generation: u64,
}

/// When to close an epoch and publish a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochPolicy {
    /// Publish after this many mutations (appended rows + upserted cells +
    /// retracted rows) have accumulated.
    pub max_rows: usize,
    /// Publish this long after the epoch's first unpublished mutation,
    /// even if `max_rows` was not reached — bounds staleness under a
    /// trickle of updates.
    pub max_interval: Duration,
}

impl Default for EpochPolicy {
    fn default() -> Self {
        EpochPolicy {
            max_rows: 1024,
            max_interval: Duration::from_millis(50),
        }
    }
}

impl EpochPolicy {
    /// Sets the mutation-count trigger (clamped to at least 1).
    pub fn with_max_rows(mut self, max_rows: usize) -> Self {
        self.max_rows = max_rows.max(1);
        self
    }

    /// Sets the wall-clock trigger.
    pub fn with_max_interval(mut self, max_interval: Duration) -> Self {
        self.max_interval = max_interval;
        self
    }
}

/// Configuration of an ingestion pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestConfig {
    /// Capacity of the bounded submission queue (in batches).
    pub queue_depth: usize,
    /// The epoch publication policy.
    pub epoch: EpochPolicy,
    /// The tombstone-compaction policy (disabled by default).
    pub compaction: CompactionPolicy,
    /// How many times the supervisor restarts a panicking epoch worker
    /// before declaring the pipeline down (submissions then refuse with
    /// [`IngestError::WorkerDown`] instead of queueing forever).
    pub max_worker_restarts: u32,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            queue_depth: 64,
            epoch: EpochPolicy::default(),
            compaction: CompactionPolicy::disabled(),
            max_worker_restarts: 16,
        }
    }
}

impl IngestConfig {
    /// Sets the submission-queue depth (clamped to at least 1).
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth.max(1);
        self
    }

    /// Sets the epoch policy.
    pub fn with_epoch(mut self, epoch: EpochPolicy) -> Self {
        self.epoch = epoch;
        self
    }

    /// Sets the compaction policy.
    pub fn with_compaction(mut self, compaction: CompactionPolicy) -> Self {
        self.compaction = compaction;
        self
    }
}

/// Counters describing a pipeline's behaviour so far.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestStats {
    /// Batches accepted into the queue.
    pub batches_submitted: u64,
    /// Batches refused by `try_submit` because the queue was full.
    pub batches_rejected: u64,
    /// Batches applied to the write master.
    pub batches_applied: u64,
    /// Batches dropped because they failed validation (the master is
    /// untouched by a failed batch).
    pub batches_failed: u64,
    /// Fact rows appended.
    pub rows_appended: u64,
    /// Measure cells overwritten.
    pub cells_upserted: u64,
    /// Fact rows retracted.
    pub rows_retracted: u64,
    /// Snapshots published by the epoch worker.
    pub epochs_published: u64,
    /// Generation of the last published snapshot (0 before the first).
    pub last_generation: u64,
    /// Fact-table compactions performed by the epoch worker.
    pub compactions: u64,
    /// Batches accepted but not yet applied or failed — the queue's
    /// current backlog (instantaneous, derived from the counters).
    pub queue_depth: u64,
    /// Times the supervisor restarted a panicked epoch worker.
    pub worker_restarts: u64,
    /// Wall-clock micros (since the Unix epoch) of the worker's most
    /// recent loop iteration — a liveness heartbeat; 0 before the worker
    /// first runs.
    pub last_heartbeat_micros: u64,
    /// True once the supervisor exhausted its restart budget; every
    /// subsequent submission gets [`IngestError::WorkerDown`].
    pub worker_down: bool,
    /// Description of the most recent batch or compaction failure, when
    /// any.
    pub last_error: Option<String>,
    /// Per-fact storage counters of the write master (live rows,
    /// tombstone ratio, compactions) — the operator's compaction-pressure
    /// gauge.
    pub fact_tables: Vec<FactTableStats>,
}

/// Lock-free counter block shared by handles, the worker and the pipeline.
#[derive(Default)]
struct Shared {
    batches_submitted: AtomicU64,
    batches_rejected: AtomicU64,
    batches_applied: AtomicU64,
    batches_failed: AtomicU64,
    rows_appended: AtomicU64,
    cells_upserted: AtomicU64,
    rows_retracted: AtomicU64,
    epochs_published: AtomicU64,
    last_generation: AtomicU64,
    compactions: AtomicU64,
    worker_restarts: AtomicU64,
    last_heartbeat_micros: AtomicU64,
    worker_down: AtomicBool,
    /// True while the worker holds a received batch it has not yet
    /// counted as applied or failed. A panic mid-apply leaves it set, and
    /// the supervisor converts the orphan into `batches_failed` so the
    /// derived `queue_depth` stays balanced across restarts.
    inflight_batch: AtomicBool,
    closed: AtomicBool,
    /// Submission gate: every submission holds a read guard across its
    /// channel send, and shutdown flips `closed` under the write guard —
    /// so once the worker observes `closed`, every submission that
    /// returned `Ok` is already enqueued and its graceful drain cannot
    /// miss a batch (a bare flag would race a producer blocked inside
    /// `send` on a full queue).
    gate: parking_lot::RwLock<()>,
    last_error: Mutex<Option<String>>,
}

impl Shared {
    fn snapshot(&self) -> IngestStats {
        let submitted = self.batches_submitted.load(Ordering::Relaxed);
        let applied = self.batches_applied.load(Ordering::Relaxed);
        let failed = self.batches_failed.load(Ordering::Relaxed);
        IngestStats {
            batches_submitted: submitted,
            batches_rejected: self.batches_rejected.load(Ordering::Relaxed),
            batches_applied: applied,
            batches_failed: failed,
            rows_appended: self.rows_appended.load(Ordering::Relaxed),
            cells_upserted: self.cells_upserted.load(Ordering::Relaxed),
            rows_retracted: self.rows_retracted.load(Ordering::Relaxed),
            epochs_published: self.epochs_published.load(Ordering::Relaxed),
            last_generation: self.last_generation.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            queue_depth: submitted.saturating_sub(applied + failed),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            last_heartbeat_micros: self.last_heartbeat_micros.load(Ordering::Relaxed),
            worker_down: self.worker_down.load(Ordering::Acquire),
            last_error: self.last_error.lock().clone(),
            fact_tables: Vec::new(),
        }
    }
}

enum Msg {
    Batch(DeltaBatch),
    /// Publish anything pending and reply with the last generation — the
    /// producer-side barrier: every batch submitted before the flush is
    /// applied and published once the reply arrives.
    Flush(mpsc::SyncSender<u64>),
}

/// A cloneable producer handle onto an [`IngestPipeline`].
#[derive(Clone)]
pub struct IngestHandle {
    tx: mpsc::SyncSender<Msg>,
    shared: Arc<Shared>,
    sink: Arc<dyn CubeSink>,
}

impl IngestHandle {
    /// Submits a batch, **blocking** while the queue is full (the
    /// backpressure path for bulk producers). Errors once the pipeline is
    /// shut down.
    pub fn submit(&self, batch: DeltaBatch) -> Result<(), IngestError> {
        // Held across the (possibly blocking) send: see `Shared::gate`.
        // No deadlock with shutdown's write guard — the worker keeps
        // consuming until `closed` is set, which only happens after every
        // in-flight send completes and releases its read guard.
        let _gate = self.shared.gate.read();
        self.refuse_if_unserviceable()?;
        self.tx
            .send(Msg::Batch(batch))
            .map_err(|_| self.channel_gone())?;
        self.shared
            .batches_submitted
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Submits a batch without blocking: a full queue is refused with
    /// [`IngestError::Backpressure`] (and counted), protecting the
    /// producer's latency under overload. The refused batch rides back
    /// inside the error ([`IngestError::into_batch`]) so a retrying
    /// producer never has to clone what it submits.
    pub fn try_submit(&self, batch: DeltaBatch) -> Result<(), IngestError> {
        let _gate = self.shared.gate.read();
        self.refuse_if_unserviceable()?;
        match self.tx.try_send(Msg::Batch(batch)) {
            Ok(()) => {
                self.shared
                    .batches_submitted
                    .fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(TrySendError::Full(Msg::Batch(batch))) => {
                self.shared.batches_rejected.fetch_add(1, Ordering::Relaxed);
                Err(IngestError::Backpressure(Box::new(batch)))
            }
            Err(_) => Err(self.channel_gone()),
        }
    }

    /// Blocks until every batch submitted before this call has been
    /// applied and published; returns the generation of the last published
    /// snapshot. The deterministic synchronisation point for tests,
    /// examples and graceful drains.
    pub fn flush(&self) -> Result<u64, IngestError> {
        self.refuse_if_unserviceable()?;
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        self.tx
            .send(Msg::Flush(reply_tx))
            .map_err(|_| self.channel_gone())?;
        // A panic between the worker receiving the flush and replying
        // drops `reply_tx`; map the broken reply channel through the
        // same worker-state triage instead of reporting a shutdown.
        reply_rx.recv().map_err(|_| self.channel_gone())
    }

    /// Registers this producer's anchored compaction version for `fact`
    /// with the sink: the remap chain is retained back to `version`, so
    /// the producer's id-addressed batches keep translating even when it
    /// lags behind the compaction cadence. Forwards to
    /// [`CubeSink::set_producer_floor`].
    pub fn set_producer_floor(&self, producer: &str, fact: &str, version: u64) {
        self.sink.set_producer_floor(producer, fact, version);
    }

    /// Releases every remap floor registered under `producer`. Forwards
    /// to [`CubeSink::clear_producer_floor`].
    pub fn clear_producer_floor(&self, producer: &str) {
        self.sink.clear_producer_floor(producer);
    }

    /// A snapshot of the pipeline's counters, including the per-fact
    /// storage gauges of the sink's write master.
    pub fn stats(&self) -> IngestStats {
        let mut stats = self.shared.snapshot();
        stats.fact_tables = self.sink.fact_stats();
        stats
    }

    fn refuse_if_unserviceable(&self) -> Result<(), IngestError> {
        if self.shared.worker_down.load(Ordering::Acquire) {
            return Err(IngestError::WorkerDown);
        }
        if self.shared.closed.load(Ordering::Acquire) {
            return Err(IngestError::Closed);
        }
        Ok(())
    }

    /// The error for a dead channel: the receiver is only ever dropped by
    /// shutdown or by the supervisor giving up, so pick the matching one.
    fn channel_gone(&self) -> IngestError {
        if self.shared.worker_down.load(Ordering::Acquire) {
            IngestError::WorkerDown
        } else {
            IngestError::Closed
        }
    }
}

/// The ingestion pipeline: owns the epoch worker thread.
///
/// Dropping the pipeline shuts it down gracefully: pending batches are
/// drained and applied, a final epoch is published, and the worker is
/// joined.
pub struct IngestPipeline {
    handle: IngestHandle,
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
}

impl IngestPipeline {
    /// Starts a pipeline over a sink.
    pub fn start(sink: Arc<dyn CubeSink>, config: IngestConfig) -> Self {
        let shared = Arc::new(Shared::default());
        let (tx, rx) = mpsc::sync_channel(config.queue_depth.max(1));
        let worker = {
            let sink = Arc::clone(&sink);
            let shared = Arc::clone(&shared);
            let policy = config.epoch;
            let compaction = config.compaction;
            let max_restarts = config.max_worker_restarts;
            std::thread::Builder::new()
                .name("sdwp-ingest".into())
                .spawn(move || supervisor_loop(rx, sink, shared, policy, compaction, max_restarts))
                .expect("spawning the ingest worker")
        };
        IngestPipeline {
            handle: IngestHandle {
                tx,
                shared: Arc::clone(&shared),
                sink,
            },
            shared,
            worker: Some(worker),
        }
    }

    /// A new producer handle.
    pub fn handle(&self) -> IngestHandle {
        self.handle.clone()
    }

    /// A snapshot of the pipeline's counters, including the per-fact
    /// storage gauges of the sink's write master.
    pub fn stats(&self) -> IngestStats {
        self.handle.stats()
    }

    /// Shuts the pipeline down: already-accepted batches are applied, a
    /// final epoch is published, the worker joins. Outstanding handles
    /// get [`IngestError::Closed`] from then on. Returns the final
    /// counters.
    pub fn shutdown(mut self) -> IngestStats {
        self.shutdown_in_place();
        self.shared.snapshot()
    }

    fn shutdown_in_place(&mut self) {
        if let Some(worker) = self.worker.take() {
            // The write guard waits for every in-flight submission's read
            // guard, so all `Ok`-returning submits are enqueued before
            // `closed` becomes observable and the worker's drain starts.
            {
                let _gate = self.shared.gate.write();
                self.shared.closed.store(true, Ordering::Release);
            }
            // Wake the worker if it is parked in recv_timeout; a full
            // queue is fine (it is about to wake and drain anyway).
            let (reply_tx, _reply_rx) = mpsc::sync_channel(1);
            let _ = self.handle.tx.try_send(Msg::Flush(reply_tx));
            // The supervisor contains worker panics, so a join error would
            // mean the supervisor itself died — nothing useful remains to
            // do with the process at that point; don't poison shutdown.
            let _ = worker.join();
        }
    }
}

impl Drop for IngestPipeline {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Wall-clock micros since the Unix epoch, for the worker heartbeat.
fn now_micros() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|elapsed| elapsed.as_micros() as u64)
        .unwrap_or(0)
}

/// Runs the epoch worker under a panic supervisor: a panicking
/// [`worker_loop`] is contained with `catch_unwind`, the sink is asked to
/// re-establish a consistent published state
/// ([`CubeSink::on_worker_restart`]), and the worker restarts on the same
/// receiver after a capped exponential backoff — submitted batches keep
/// draining across restarts. A batch orphaned mid-apply is converted to
/// `batches_failed` so the derived queue depth stays balanced. Once the
/// restart budget is exhausted the pipeline is declared down: the
/// receiver drops, and every producer gets [`IngestError::WorkerDown`].
fn supervisor_loop(
    rx: mpsc::Receiver<Msg>,
    sink: Arc<dyn CubeSink>,
    shared: Arc<Shared>,
    policy: EpochPolicy,
    compaction: CompactionPolicy,
    max_restarts: u32,
) {
    let mut restarts: u32 = 0;
    loop {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            worker_loop(&rx, &sink, &shared, policy, compaction)
        }));
        if run.is_ok() {
            // Graceful exit: shutdown drain finished or every sender hung
            // up. Nothing to supervise.
            return;
        }
        if shared.inflight_batch.swap(false, Ordering::AcqRel) {
            shared.batches_failed.fetch_add(1, Ordering::Relaxed);
            *shared.last_error.lock() =
                Some("ingest worker panicked mid-apply; the batch was dropped".to_string());
        } else {
            *shared.last_error.lock() =
                Some("ingest worker panicked between batches; restarted".to_string());
        }
        shared.worker_restarts.fetch_add(1, Ordering::Relaxed);
        restarts += 1;
        if restarts > max_restarts {
            shared.worker_down.store(true, Ordering::Release);
            return;
        }
        // Unpublished-but-applied mutations must not linger master-only
        // across the restart; let the sink republish last-good state.
        sink.on_worker_restart();
        // Capped exponential backoff: 2 ms, 4 ms, … capped at 64 ms, so a
        // crash loop cannot spin the CPU but recovery stays prompt.
        std::thread::sleep(Duration::from_millis(1u64 << restarts.min(6)));
    }
}

/// The epoch worker: drain → apply → publish on policy triggers, with a
/// tombstone-compaction check after every publication. Borrows the
/// receiver so the supervisor can re-enter it after a contained panic;
/// epoch-in-progress state (pending rows, changed facts) is rebuilt from
/// scratch on each entry — the restart hook has already republished
/// whatever the lost epoch had applied.
fn worker_loop(
    rx: &mpsc::Receiver<Msg>,
    sink: &Arc<dyn CubeSink>,
    shared: &Arc<Shared>,
    policy: EpochPolicy,
    compaction: CompactionPolicy,
) {
    let mut pending_rows: u64 = 0;
    let mut changed_facts: BTreeSet<String> = BTreeSet::new();
    let mut epoch_started: Option<Instant> = None;

    shared
        .last_heartbeat_micros
        .store(now_micros(), Ordering::Relaxed);

    let apply = |batch: &DeltaBatch,
                 pending_rows: &mut u64,
                 changed_facts: &mut BTreeSet<String>,
                 epoch_started: &mut Option<Instant>| {
        // From here until the applied/failed counter bump, a panic
        // orphans this batch; the marker lets the supervisor account it.
        shared.inflight_batch.store(true, Ordering::Release);
        sdwp_olap::fail_point!("ingest.apply");
        match sink.apply_batch(batch) {
            Ok(outcome) => {
                shared.batches_applied.fetch_add(1, Ordering::Relaxed);
                shared
                    .rows_appended
                    .fetch_add(outcome.rows_appended, Ordering::Relaxed);
                shared
                    .cells_upserted
                    .fetch_add(outcome.cells_upserted, Ordering::Relaxed);
                shared
                    .rows_retracted
                    .fetch_add(outcome.rows_retracted, Ordering::Relaxed);
                if outcome.mutations() > 0 {
                    if *pending_rows == 0 {
                        *epoch_started = Some(Instant::now());
                    }
                    *pending_rows += outcome.mutations();
                    changed_facts.extend(outcome.changed_facts);
                }
            }
            Err(error) => {
                shared.batches_failed.fetch_add(1, Ordering::Relaxed);
                *shared.last_error.lock() = Some(error.to_string());
            }
        }
        shared.inflight_batch.store(false, Ordering::Release);
    };

    let publish = |pending_rows: &mut u64,
                   changed_facts: &mut BTreeSet<String>,
                   epoch_started: &mut Option<Instant>| {
        if *pending_rows == 0 {
            // Nothing changed: publishing would bump the generation and
            // (needlessly) stop every cached result from hitting.
            return;
        }
        sdwp_olap::fail_point!("ingest.publish");
        let generation = sink.publish_epoch(changed_facts);
        shared.epochs_published.fetch_add(1, Ordering::Relaxed);
        shared.last_generation.store(generation, Ordering::Relaxed);
        *pending_rows = 0;
        changed_facts.clear();
        *epoch_started = None;
        // Retractions only accumulate at publication boundaries, so this
        // is the one place compaction pressure can newly cross the
        // policy. Each compaction publishes its own snapshot.
        if compaction.is_enabled() {
            for outcome in sink.maybe_compact(&compaction) {
                match outcome {
                    Ok(outcome) => {
                        shared.compactions.fetch_add(1, Ordering::Relaxed);
                        shared
                            .last_generation
                            .store(outcome.generation, Ordering::Relaxed);
                    }
                    Err(error) => *shared.last_error.lock() = Some(error.to_string()),
                }
            }
        }
    };

    loop {
        shared
            .last_heartbeat_micros
            .store(now_micros(), Ordering::Relaxed);
        if shared.closed.load(Ordering::Acquire) {
            // Graceful drain: apply everything already accepted, publish
            // once, exit.
            while let Ok(msg) = rx.try_recv() {
                match msg {
                    Msg::Batch(batch) => apply(
                        &batch,
                        &mut pending_rows,
                        &mut changed_facts,
                        &mut epoch_started,
                    ),
                    Msg::Flush(reply) => {
                        let _ = reply;
                    }
                }
            }
            publish(&mut pending_rows, &mut changed_facts, &mut epoch_started);
            return;
        }

        let timeout = match epoch_started {
            Some(started) => policy.max_interval.saturating_sub(started.elapsed()),
            // Idle: wake at the epoch cadence anyway to notice shutdown.
            None => policy.max_interval.max(Duration::from_millis(10)),
        };
        match rx.recv_timeout(timeout) {
            Ok(Msg::Batch(batch)) => {
                apply(
                    &batch,
                    &mut pending_rows,
                    &mut changed_facts,
                    &mut epoch_started,
                );
                let interval_elapsed = epoch_started
                    .map(|started| started.elapsed() >= policy.max_interval)
                    .unwrap_or(false);
                if pending_rows >= policy.max_rows as u64 || interval_elapsed {
                    publish(&mut pending_rows, &mut changed_facts, &mut epoch_started);
                }
            }
            Ok(Msg::Flush(reply)) => {
                publish(&mut pending_rows, &mut changed_facts, &mut epoch_started);
                let _ = reply.send(shared.last_generation.load(Ordering::Relaxed));
            }
            Err(RecvTimeoutError::Timeout) => {
                let interval_elapsed = epoch_started
                    .map(|started| started.elapsed() >= policy.max_interval)
                    .unwrap_or(false);
                if interval_elapsed {
                    publish(&mut pending_rows, &mut changed_facts, &mut epoch_started);
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                publish(&mut pending_rows, &mut changed_facts, &mut epoch_started);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::DeltaBatch;
    use parking_lot::Mutex as PlMutex;
    use sdwp_model::{AttributeType, DimensionBuilder, FactBuilder, SchemaBuilder};
    use sdwp_olap::{CellValue, Cube};

    fn small_cube() -> Cube {
        let schema = SchemaBuilder::new("DW")
            .dimension(
                DimensionBuilder::new("Store")
                    .simple_level("Store", "name")
                    .build(),
            )
            .fact(
                FactBuilder::new("Sales")
                    .measure("UnitSales", AttributeType::Float)
                    .dimension("Store")
                    .build(),
            )
            .build()
            .unwrap();
        let mut cube = Cube::new(schema);
        cube.add_dimension_member("Store", vec![("Store.name", CellValue::from("S0"))])
            .unwrap();
        cube
    }

    /// A sink over a bare master cube: publishes are recorded as
    /// `(generation, live rows, changed facts)` tuples.
    struct TestSink {
        master: PlMutex<Cube>,
        generation: AtomicU64,
        published: PlMutex<Vec<(u64, usize, BTreeSet<String>)>>,
        /// Tests hold this to stall the worker inside `apply_batch`.
        gate: PlMutex<()>,
        /// Tests set this to make the next N `apply_batch` calls panic,
        /// exercising the supervisor.
        panics_remaining: AtomicU64,
        /// `on_worker_restart` invocations observed.
        restart_hooks: AtomicU64,
        /// `(producer, fact, version)` floors registered with the sink.
        floors: PlMutex<Vec<(String, String, u64)>>,
    }

    impl TestSink {
        fn new() -> Self {
            TestSink {
                master: PlMutex::new(small_cube()),
                generation: AtomicU64::new(0),
                published: PlMutex::new(Vec::new()),
                gate: PlMutex::new(()),
                panics_remaining: AtomicU64::new(0),
                restart_hooks: AtomicU64::new(0),
                floors: PlMutex::new(Vec::new()),
            }
        }
    }

    impl CubeSink for TestSink {
        fn apply_batch(&self, batch: &DeltaBatch) -> Result<BatchOutcome, OlapError> {
            let _gate = self.gate.lock();
            if self
                .panics_remaining
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
                .is_ok()
            {
                panic!("TestSink: injected apply panic");
            }
            let mut master = self.master.lock();
            batch.validate(&master)?;
            Ok(batch.apply(&mut master))
        }

        fn on_worker_restart(&self) {
            self.restart_hooks.fetch_add(1, Ordering::Relaxed);
        }

        fn set_producer_floor(&self, producer: &str, fact: &str, version: u64) {
            self.floors
                .lock()
                .push((producer.to_string(), fact.to_string(), version));
        }

        fn clear_producer_floor(&self, producer: &str) {
            self.floors.lock().retain(|(p, _, _)| p != producer);
        }

        fn publish_epoch(&self, changed_facts: &BTreeSet<String>) -> u64 {
            let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
            let live = self.master.lock().total_live_fact_rows();
            self.published
                .lock()
                .push((generation, live, changed_facts.clone()));
            generation
        }

        fn maybe_compact(
            &self,
            policy: &CompactionPolicy,
        ) -> Vec<Result<CompactionOutcome, OlapError>> {
            let mut master = self.master.lock();
            master
                .fact_table_stats()
                .into_iter()
                .filter(|s| policy.should_compact(s.total_rows, s.live_rows))
                .map(|stats| {
                    master.compact_fact_table(&stats.fact)?;
                    let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
                    Ok(CompactionOutcome {
                        fact: stats.fact,
                        rows_before: stats.total_rows,
                        live_rows: stats.live_rows,
                        generation,
                    })
                })
                .collect()
        }

        fn fact_stats(&self) -> Vec<FactTableStats> {
            self.master.lock().fact_table_stats()
        }
    }

    fn append_batch(rows: usize) -> DeltaBatch {
        let mut batch = DeltaBatch::new();
        for _ in 0..rows {
            batch = batch.append(
                "Sales",
                vec![("Store", 0usize)],
                vec![("UnitSales", CellValue::Float(1.0))],
            );
        }
        batch
    }

    #[test]
    fn row_threshold_closes_the_epoch() {
        let sink = Arc::new(TestSink::new());
        let pipeline = IngestPipeline::start(
            Arc::clone(&sink) as Arc<dyn CubeSink>,
            IngestConfig::default().with_epoch(
                EpochPolicy::default()
                    .with_max_rows(4)
                    .with_max_interval(Duration::from_secs(3600)),
            ),
        );
        let handle = pipeline.handle();
        handle.submit(append_batch(2)).unwrap();
        handle.submit(append_batch(2)).unwrap();
        handle.submit(append_batch(1)).unwrap();
        let generation = handle.flush().unwrap();
        assert_eq!(generation, 2);
        let published = sink.published.lock().clone();
        // Epoch 1 closed at the 4-row threshold; the flush published the
        // trailing single row.
        assert_eq!(published.len(), 2);
        assert_eq!(published[0].1, 4);
        assert_eq!(published[1].1, 5);
        assert!(published[0].2.contains("Sales"));
        let stats = pipeline.shutdown();
        assert_eq!(stats.batches_applied, 3);
        assert_eq!(stats.rows_appended, 5);
        assert_eq!(stats.epochs_published, 2);
        assert_eq!(stats.last_generation, 2);
    }

    #[test]
    fn interval_closes_the_epoch_without_reaching_the_row_threshold() {
        let sink = Arc::new(TestSink::new());
        let pipeline = IngestPipeline::start(
            Arc::clone(&sink) as Arc<dyn CubeSink>,
            IngestConfig::default().with_epoch(
                EpochPolicy::default()
                    .with_max_rows(1_000_000)
                    .with_max_interval(Duration::from_millis(20)),
            ),
        );
        pipeline.handle().submit(append_batch(1)).unwrap();
        // Poll: the wall-clock trigger must publish without a flush.
        let deadline = Instant::now() + Duration::from_secs(5);
        while pipeline.stats().epochs_published == 0 {
            assert!(Instant::now() < deadline, "interval trigger never fired");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(sink.published.lock()[0].1, 1);
    }

    #[test]
    fn try_submit_sheds_load_when_the_queue_is_full() {
        let sink = Arc::new(TestSink::new());
        let pipeline = IngestPipeline::start(
            Arc::clone(&sink) as Arc<dyn CubeSink>,
            IngestConfig::default().with_queue_depth(1),
        );
        let handle = pipeline.handle();
        // Stall the worker inside apply_batch …
        let gate = sink.gate.lock();
        handle.submit(append_batch(1)).unwrap(); // worker picks this up and blocks
                                                 // … wait until the worker actually holds the first batch, then
                                                 // fill the queue.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match handle.try_submit(append_batch(1)) {
                Ok(()) => {
                    if handle.stats().batches_submitted == 2 {
                        // Both the in-flight and queued slot are taken once
                        // a further try_submit reports Full.
                        if let Err(IngestError::Backpressure(_)) =
                            handle.try_submit(append_batch(1))
                        {
                            break;
                        }
                    }
                }
                Err(IngestError::Backpressure(_)) => break,
                Err(other) => panic!("unexpected {other:?}"),
            }
            assert!(Instant::now() < deadline, "queue never filled");
        }
        assert!(handle.stats().batches_rejected >= 1);
        drop(gate);
        let stats = pipeline.shutdown();
        // Everything accepted was applied; nothing was lost.
        assert_eq!(stats.batches_applied, stats.batches_submitted);
    }

    #[test]
    fn failed_batches_are_dropped_whole_and_counted() {
        let sink = Arc::new(TestSink::new());
        let pipeline = IngestPipeline::start(
            Arc::clone(&sink) as Arc<dyn CubeSink>,
            IngestConfig::default(),
        );
        let handle = pipeline.handle();
        // A batch with one good and one bad delta must not apply at all.
        let bad = DeltaBatch::new()
            .append(
                "Sales",
                vec![("Store", 0usize)],
                vec![("UnitSales", CellValue::Float(1.0))],
            )
            .retract("Sales", 99);
        handle.submit(bad).unwrap();
        handle.submit(append_batch(1)).unwrap();
        handle.flush().unwrap();
        let stats = handle.stats();
        assert_eq!(stats.batches_failed, 1);
        assert_eq!(stats.batches_applied, 1);
        assert_eq!(stats.rows_appended, 1);
        assert!(stats.last_error.as_deref().unwrap().contains("retract"));
        assert_eq!(sink.master.lock().total_live_fact_rows(), 1);
        drop(pipeline);
    }

    #[test]
    fn empty_batches_never_publish() {
        let sink = Arc::new(TestSink::new());
        let pipeline = IngestPipeline::start(
            Arc::clone(&sink) as Arc<dyn CubeSink>,
            IngestConfig::default()
                .with_epoch(EpochPolicy::default().with_max_interval(Duration::from_millis(10))),
        );
        let handle = pipeline.handle();
        handle.submit(DeltaBatch::new()).unwrap();
        handle.submit(DeltaBatch::new()).unwrap();
        assert_eq!(handle.flush().unwrap(), 0);
        std::thread::sleep(Duration::from_millis(40));
        let stats = pipeline.shutdown();
        assert_eq!(stats.batches_applied, 2);
        assert_eq!(stats.epochs_published, 0, "no-op batches must not publish");
        assert!(sink.published.lock().is_empty());
    }

    #[test]
    fn shutdown_never_loses_an_accepted_batch() {
        // A producer blocked inside a full-queue `submit` races shutdown:
        // the submission gate guarantees that once `submit` returns `Ok`,
        // the graceful drain applies the batch.
        let sink = Arc::new(TestSink::new());
        let pipeline = IngestPipeline::start(
            Arc::clone(&sink) as Arc<dyn CubeSink>,
            IngestConfig::default().with_queue_depth(1).with_epoch(
                EpochPolicy::default()
                    .with_max_rows(1_000_000)
                    .with_max_interval(Duration::from_secs(3600)),
            ),
        );
        let handle = pipeline.handle();
        // Stall the worker mid-apply and fill the queue so the next
        // blocking submit parks inside `send`.
        let gate = sink.gate.lock();
        handle.submit(append_batch(1)).unwrap();
        handle.submit(append_batch(1)).unwrap();
        let blocked = {
            let handle = handle.clone();
            std::thread::spawn(move || handle.submit(append_batch(1)))
        };
        std::thread::sleep(Duration::from_millis(20));
        drop(gate);
        let stats = pipeline.shutdown();
        match blocked.join().expect("submitter finishes") {
            // Accepted: the drain must have applied it.
            Ok(()) => assert_eq!(stats.batches_applied, stats.batches_submitted),
            // Refused: it must not have been counted as submitted.
            Err(IngestError::Closed) => {
                assert_eq!(stats.batches_applied, stats.batches_submitted);
                assert_eq!(stats.batches_submitted, 2);
            }
            Err(other) => panic!("unexpected {other:?}"),
        }
        assert_eq!(stats.rows_appended, stats.batches_applied);
    }

    #[test]
    fn compaction_policy_thresholds() {
        let disabled = CompactionPolicy::disabled();
        assert!(!disabled.is_enabled());
        assert!(!disabled.should_compact(1_000_000, 0));
        let policy = CompactionPolicy::disabled()
            .with_max_tombstone_ratio(0.5)
            .with_min_rows(4);
        assert!(policy.is_enabled());
        assert!(!policy.should_compact(2, 0), "below min_rows");
        assert!(!policy.should_compact(8, 5), "ratio 3/8 under threshold");
        assert!(policy.should_compact(8, 4));
        assert!(policy.should_compact(8, 0));
        assert!(!policy.should_compact(0, 0));
    }

    #[test]
    fn tombstone_pressure_triggers_worker_compaction() {
        let sink = Arc::new(TestSink::new());
        let pipeline = IngestPipeline::start(
            Arc::clone(&sink) as Arc<dyn CubeSink>,
            IngestConfig::default()
                .with_epoch(
                    EpochPolicy::default()
                        .with_max_rows(1_000_000)
                        .with_max_interval(Duration::from_secs(3600)),
                )
                .with_compaction(
                    CompactionPolicy::disabled()
                        .with_max_tombstone_ratio(0.5)
                        .with_min_rows(4),
                ),
        );
        let handle = pipeline.handle();
        handle.submit(append_batch(6)).unwrap();
        let after_appends = handle.flush().unwrap();
        assert_eq!(
            handle.stats().compactions,
            0,
            "no tombstones, no compaction"
        );
        // Retract 4 of the 6 rows: ratio 4/6 crosses the 0.5 policy at the
        // next publication, and the worker rewrites the table.
        let mut retractions = DeltaBatch::new();
        for row in 0..4 {
            retractions = retractions.retract("Sales", row);
        }
        handle.submit(retractions).unwrap();
        let generation = handle.flush().unwrap();
        assert!(generation > after_appends, "compaction published on top");
        let stats = handle.stats();
        assert_eq!(stats.compactions, 1);
        assert_eq!(stats.rows_retracted, 4);
        // The per-fact gauges show the rewritten table: dense and
        // tombstone-free, with the compaction counted.
        let sales = stats
            .fact_tables
            .iter()
            .find(|s| s.fact == "Sales")
            .expect("Sales gauge");
        assert_eq!((sales.total_rows, sales.live_rows), (2, 2));
        assert_eq!(sales.tombstone_ratio, 0.0);
        assert_eq!(sales.compactions, 1);
        // The master's remap chain survives for stale selections.
        assert_eq!(
            sink.master.lock().fact_table("Sales").unwrap().remaps.len(),
            1
        );
    }

    #[test]
    fn shutdown_drains_then_closes_handles() {
        let sink = Arc::new(TestSink::new());
        let pipeline = IngestPipeline::start(
            Arc::clone(&sink) as Arc<dyn CubeSink>,
            IngestConfig::default().with_epoch(
                EpochPolicy::default()
                    .with_max_rows(1_000_000)
                    .with_max_interval(Duration::from_secs(3600)),
            ),
        );
        let handle = pipeline.handle();
        handle.submit(append_batch(3)).unwrap();
        let stats = pipeline.shutdown();
        assert_eq!(stats.rows_appended, 3);
        assert_eq!(stats.epochs_published, 1, "shutdown publishes the tail");
        assert!(matches!(
            handle.submit(append_batch(1)),
            Err(IngestError::Closed)
        ));
        assert!(matches!(
            handle.try_submit(append_batch(1)),
            Err(IngestError::Closed)
        ));
        assert!(handle.flush().is_err());
    }

    #[test]
    fn supervisor_restarts_a_panicking_worker_and_keeps_serving() {
        let sink = Arc::new(TestSink::new());
        sink.panics_remaining.store(1, Ordering::Release);
        let pipeline = IngestPipeline::start(
            Arc::clone(&sink) as Arc<dyn CubeSink>,
            IngestConfig::default().with_epoch(
                EpochPolicy::default()
                    .with_max_rows(1_000_000)
                    .with_max_interval(Duration::from_secs(3600)),
            ),
        );
        let handle = pipeline.handle();
        handle.submit(append_batch(1)).unwrap(); // lost to the injected panic
        handle.submit(append_batch(2)).unwrap(); // applied by the restarted worker
        let generation = handle.flush().expect("pipeline serves after a restart");
        assert_eq!(generation, 1);
        let stats = handle.stats();
        assert_eq!(stats.worker_restarts, 1);
        assert_eq!(sink.restart_hooks.load(Ordering::Relaxed), 1);
        assert!(!stats.worker_down);
        // The orphaned batch is accounted as failed, so the derived
        // backlog is balanced: nothing is silently "still queued".
        assert_eq!(stats.batches_failed, 1);
        assert_eq!(stats.batches_applied, 1);
        assert_eq!(stats.rows_appended, 2);
        assert_eq!(stats.queue_depth, 0);
        assert!(stats.last_error.as_deref().unwrap().contains("panicked"));
        assert!(stats.last_heartbeat_micros > 0, "heartbeat never beat");
    }

    #[test]
    fn restart_budget_exhaustion_declares_the_worker_down() {
        let sink = Arc::new(TestSink::new());
        sink.panics_remaining.store(u64::MAX, Ordering::Release);
        let pipeline = IngestPipeline::start(
            Arc::clone(&sink) as Arc<dyn CubeSink>,
            IngestConfig {
                max_worker_restarts: 1,
                ..IngestConfig::default()
            },
        );
        let handle = pipeline.handle();
        handle.submit(append_batch(1)).unwrap();
        handle.submit(append_batch(1)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !handle.stats().worker_down {
            assert!(Instant::now() < deadline, "supervisor never gave up");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(matches!(
            handle.submit(append_batch(1)),
            Err(IngestError::WorkerDown)
        ));
        assert!(matches!(
            handle.try_submit(append_batch(1)),
            Err(IngestError::WorkerDown)
        ));
        assert!(matches!(handle.flush(), Err(IngestError::WorkerDown)));
        let stats = pipeline.shutdown(); // must not hang or panic
        assert_eq!(stats.worker_restarts, 2, "one restart, one final failure");
        assert_eq!(stats.batches_failed, 2);
        assert_eq!(stats.queue_depth, 0);
    }

    #[test]
    fn producer_floors_forward_to_the_sink() {
        let sink = Arc::new(TestSink::new());
        let pipeline = IngestPipeline::start(
            Arc::clone(&sink) as Arc<dyn CubeSink>,
            IngestConfig::default(),
        );
        let handle = pipeline.handle();
        handle.set_producer_floor("ticker-1", "Sales", 3);
        handle.set_producer_floor("ticker-2", "Sales", 5);
        assert_eq!(sink.floors.lock().len(), 2);
        handle.clear_producer_floor("ticker-1");
        let floors = sink.floors.lock().clone();
        assert_eq!(
            floors,
            vec![("ticker-2".to_string(), "Sales".to_string(), 5)]
        );
    }
}
