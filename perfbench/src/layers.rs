//! The per-layer table: span self times from the traced pass, counter
//! deltas over the untraced window, and direct probes of single layers.
//!
//! Three kinds of number, told apart by unit:
//! * `us` — median per operation of a span's self time in the traced
//!   pass (or a median of direct calls, for the probes);
//! * `us/op` and `1/op` — a stage-time sum or a count from the engine's
//!   own `metrics_snapshot()` / `*_stats()`, as the delta over the
//!   untraced window divided by the operations completed in it;
//! * `count`, `share`, … — a state or ratio read once.

use crate::rig::{rule_radius_km, rule_texts, ReferenceFacts, Rig};
use crate::run::{tail, Measured, Pass};
use crate::spans::{per_op_self_us, self_times_us};
use crate::spec::PER_LAYER;
use crate::stats::{median, percentile, sorted};
use crate::target::Shadow;
use crate::workloads::{Kind, AUX_OP};
use sdwp_core::PersonalizationEngine;
use sdwp_geometry::{DistanceMetric, Geometry, Point};
use sdwp_ingest::IngestStats;
use sdwp_obs::{ClassId, MetricsRegistry, Stage};
use sdwp_olap::{spatial, CacheStats, DictCacheStats};
use sdwp_prml::{parse_rules, CompiledRuleSet, Rule};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// The engine's public counters at one instant.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// `(samples, µs)` per stage, summed over session classes.
    stages: BTreeMap<String, (u64, u64)>,
    cache: CacheStats,
    dicts: DictCacheStats,
    ingest: IngestStats,
    /// Helper task items dispatched by the pool, all tenants.
    dispatched: u64,
    /// Admissions shed by the pool, all tenants.
    shed: u64,
}

impl Counters {
    /// Reads every counter the layer table uses.
    pub fn capture(engine: &PersonalizationEngine) -> Self {
        let mut stages: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for stage in engine.metrics_snapshot().stages {
            let entry = stages.entry(stage.stage).or_default();
            entry.0 += stage.count;
            entry.1 += stage.sum_micros;
        }
        let (dispatched, shed) = engine.morsel_pool().map_or((0, 0), |pool| {
            pool.stats().tenants.iter().fold((0, 0), |(d, s), tenant| {
                (d + tenant.dispatched_total, s + tenant.shed_total)
            })
        });
        Counters {
            stages,
            cache: engine.cache_stats(),
            dicts: engine.dict_cache_stats(),
            ingest: engine.ingest_stats().unwrap_or_default(),
            dispatched,
            shed,
        }
    }

    /// Result-cache activity since `before`.
    pub fn cache_delta(&self, before: &Counters) -> CacheStats {
        CacheStats {
            hits: self.cache.hits - before.cache.hits,
            misses: self.cache.misses - before.cache.misses,
            entries: self.cache.entries,
            invalidations: self.cache.invalidations - before.cache.invalidations,
            evictions: self.cache.evictions - before.cache.evictions,
        }
    }

    /// `(samples, µs)` recorded under `stage` since `before`.
    fn stage_delta(&self, before: &Counters, stage: Stage) -> (f64, f64) {
        let read = |counters: &Counters| {
            counters
                .stages
                .get(stage.name())
                .copied()
                .unwrap_or_default()
        };
        let (now, then) = (read(self), read(before));
        ((now.0 - then.0) as f64, (now.1 - then.1) as f64)
    }
}

/// Everything the table is computed from.
pub struct Inputs<'a> {
    /// The system that was measured.
    pub rig: &'a Rig,
    /// Reference answers and a session view.
    pub facts: &'a ReferenceFacts,
    /// Times of the serial reference executions, µs.
    pub serial_us: &'a [f64],
    /// The untraced window.
    pub untraced: &'a Pass,
    /// The traced pass.
    pub traced: &'a Pass,
    /// The shadow facade of the traced pass.
    pub shadow: &'a Shadow,
    /// Snapshot generations published since warm-up.
    pub generations: u64,
    /// Open-loop generator lateness at p99, µs.
    pub late_p99_us: f64,
}

/// Median of `runs` timed calls of `f`, µs.
fn timed_median_us<R>(runs: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&samples)
}

/// Direct probes of single layers, outside any window.
fn probes(inputs: &Inputs<'_>, out: &mut BTreeMap<&'static str, f64>) {
    let rig = inputs.rig;
    let cube = rig.engine.cube();
    let view = &inputs.facts.view;

    out.insert(
        "olap.view.resolve_us",
        timed_median_us(200, || view.resolve_for_fact(&cube, "Sales").is_ok()),
    );
    out.insert(
        "olap.view.visible_rows",
        view.visible_fact_count(&cube, "Sales").unwrap_or(0) as f64,
    );
    out.insert(
        "olap.view.members",
        view.selected_members("Store").map_or(0, |m| m.len()) as f64,
    );

    // The instance rule's spatial selection, at the login point and radius.
    let (x, y) = rig.login_point;
    let point: Geometry = Point::new(x, y).into();
    let radius = rule_radius_km(rig.workload);
    let metric = DistanceMetric::Euclidean;
    let scan = || spatial::members_within_distance(&cube, "Store", "Store", &point, radius, metric);
    out.insert(
        "olap.spatial.selected",
        scan().map_or(0, |members| members.len()) as f64,
    );
    out.insert("olap.spatial.within_us", timed_median_us(30, scan));
    if let Ok(index) = spatial::build_level_rtree(&cube, "Store", "Store") {
        out.insert(
            "olap.spatial.within_indexed_us",
            timed_median_us(30, || {
                spatial::members_within_distance_indexed(
                    &cube, "Store", "Store", &index, &point, radius, metric,
                )
            }),
        );
    }

    // Rule text → AST → compiled set, as `add_rules_text` does it.
    let texts = rule_texts(rig.workload);
    let parse = || -> Vec<Rule> {
        texts
            .iter()
            .flat_map(|text| parse_rules(text).unwrap_or_default())
            .collect()
    };
    let rules = parse();
    out.insert("prml.parse_us", timed_median_us(30, parse));
    out.insert(
        "prml.compile_us",
        timed_median_us(30, || {
            CompiledRuleSet::compile(&rules, cube.schema()).is_ok()
        }),
    );

    // A registry of its own: what one enabled span and one snapshot cost.
    let registry = MetricsRegistry::new();
    const SPANS: usize = 100_000;
    let start = Instant::now();
    for _ in 0..SPANS {
        black_box(registry.span(Stage::QueryTotal, ClassId::DEFAULT));
    }
    out.insert(
        "obs.span_ns",
        start.elapsed().as_nanos() as f64 / SPANS as f64,
    );
    out.insert(
        "obs.snapshot_us",
        timed_median_us(50, || registry.snapshot()),
    );
}

/// Builds the whole per-layer table, in `PER_LAYER` order.
pub fn per_layer(inputs: &Inputs<'_>) -> Vec<Measured> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut samples: BTreeMap<&'static str, u64> = BTreeMap::new();
    let untraced = inputs.untraced;
    let traced = inputs.traced;
    let record = &untraced.primary;
    let ops = record.ops.len().max(1) as f64;

    // Per request type, from the untraced window.
    let mut typed = |name: &'static str, data: &[f64], tail_at: Option<f64>| {
        out.insert(
            name,
            tail_at.map_or_else(|| median(data), |q| tail(data, q)),
        );
        samples.insert(name, data.len() as u64);
    };
    typed("op_p90_us", &record.ops, Some(0.90));
    typed("batch_p50_us", record.kind(Kind::Batch), None);
    typed("batch_p99_us", record.kind(Kind::Batch), Some(0.99));
    typed("aggregate_p50_us", record.kind(Kind::Aggregate), None);
    typed("aggregate_p99_us", record.kind(Kind::Aggregate), Some(0.99));
    typed("login_p50_us", record.kind(Kind::Login), None);
    typed("login_p90_us", record.kind(Kind::Login), Some(0.90));
    typed("relogin_p50_us", record.kind(Kind::Relogin), None);
    typed("selection_p50_us", record.kind(Kind::Selection), None);
    typed("ryw_p50_ms", &record.ryw_ms, None);
    let analyst = untraced.secondary.kind(Kind::Analyst);
    if !analyst.is_empty() {
        out.insert(
            "analyst_ops_per_s",
            analyst.len() as f64 / untraced.secondary_s,
        );
        samples.insert("analyst_ops_per_s", analyst.len() as u64);
    }
    let attempted = record.attempted + untraced.secondary.attempted;
    let failed = record.failed + untraced.secondary.failed;
    out.insert("error_share", failed as f64 / attempted.max(1) as f64);

    // Counter deltas over the untraced window, per operation.
    let (before, after) = (&untraced.before, &untraced.after);
    let per_op = |value: u64| value as f64 / ops;
    out.insert("core.web.requests", attempted as f64 / ops);
    out.insert(
        "core.session.active",
        inputs.rig.engine.sessions().sessions_active() as f64,
    );
    out.insert("core.engine.generations", inputs.generations as f64);
    for (name, stage) in [
        ("olap.pool.sched_wait_us", Stage::SchedulerWait),
        ("olap.engine.resolve_us", Stage::QueryResolve),
        ("olap.engine.scan_us", Stage::QueryScan),
        ("olap.engine.merge_us", Stage::QueryMerge),
        ("olap.engine.finalize_us", Stage::QueryFinalize),
        ("olap.engine.batch_resolve_us", Stage::BatchResolve),
        ("olap.engine.batch_scan_us", Stage::BatchScan),
        ("olap.engine.batch_merge_us", Stage::BatchMerge),
        ("olap.engine.batch_finalize_us", Stage::BatchFinalize),
        ("prml.condition_us", Stage::RuleCondition),
        ("prml.effect_us", Stage::RuleEffect),
        ("ingest.validate_us", Stage::IngestValidate),
        ("ingest.apply_us", Stage::IngestApply),
        ("ingest.publish_us", Stage::IngestPublish),
        ("ingest.compact_us", Stage::IngestCompact),
    ] {
        out.insert(name, after.stage_delta(before, stage).1 / ops);
    }
    let events = after.stage_delta(before, Stage::RuleCondition).0;
    let fired = after.stage_delta(before, Stage::RuleEffect).0;
    out.insert("prml.events", events / ops);
    out.insert("prml.rules_matched", per_op(record.rules_matched));
    out.insert("prml.match_ratio", fired / events.max(1.0));
    out.insert(
        "olap.pool.dispatched",
        per_op(after.dispatched - before.dispatched),
    );
    out.insert("olap.pool.shed", per_op(after.shed - before.shed));
    let cache = after.cache_delta(before);
    out.insert("olap.cache.hits", per_op(cache.hits));
    out.insert("olap.cache.misses", per_op(cache.misses));
    out.insert(
        "olap.cache.hit_ratio",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
    );
    out.insert("olap.cache.evictions", per_op(cache.evictions));
    out.insert("olap.cache.invalidations", per_op(cache.invalidations));
    let (dict_hits, dict_misses) = (
        after.dicts.hits - before.dicts.hits,
        after.dicts.misses - before.dicts.misses,
    );
    out.insert("olap.dicts.hits", per_op(dict_hits));
    out.insert("olap.dicts.misses", per_op(dict_misses));
    out.insert(
        "olap.dicts.hit_ratio",
        dict_hits as f64 / (dict_hits + dict_misses).max(1) as f64,
    );
    let ingest = |read: fn(&IngestStats) -> u64| read(&after.ingest) - read(&before.ingest);
    out.insert(
        "ingest.batches_applied",
        per_op(ingest(|s| s.batches_applied)),
    );
    out.insert(
        "ingest.batches_failed",
        per_op(ingest(|s| s.batches_failed)),
    );
    out.insert(
        "ingest.batches_rejected",
        per_op(ingest(|s| s.batches_rejected)),
    );
    let epochs = ingest(|s| s.epochs_published);
    out.insert("ingest.epochs", per_op(epochs));
    out.insert(
        "ingest.deltas_per_epoch",
        ingest(|s| s.rows_appended + s.cells_upserted + s.rows_retracted) as f64
            / epochs.max(1) as f64,
    );
    out.insert("ingest.queue_depth_max", untraced.queue_depth_max as f64);

    // Span self times of the traced pass: the primary client's log
    // names the layers of an operation; another log only adds names the
    // primary never produced.
    let mut execute_ns = 0.0;
    let mut admit = Vec::new();
    for (index, (_, log)) in traced.logs.iter().enumerate() {
        for (name, per_op_us) in per_op_self_us(log.spans()) {
            if index == 0 || !out.contains_key(name) {
                if name == "olap.pool.admit_us" {
                    admit = sorted(per_op_us.clone());
                }
                if name.ends_with("execute_us") {
                    execute_ns += per_op_us.iter().sum::<f64>() * 1e3;
                }
                samples.insert(name, per_op_us.len() as u64);
                out.insert(name, median(&per_op_us));
            }
        }
    }
    out.insert(
        "olap.pool.admit_wait_us",
        percentile(&admit, 0.99) - percentile(&admit, 0.5),
    );
    out.insert("olap.engine.serial_execute_us", median(inputs.serial_us));
    samples.insert(
        "olap.engine.serial_execute_us",
        inputs.serial_us.len() as u64,
    );
    let scanned = inputs.shadow.rows_scanned.load(Ordering::Relaxed) as f64;
    let matched = inputs.shadow.rows_matched.load(Ordering::Relaxed) as f64;
    let traced_reads = (traced.primary.ops.len() + traced.primary.ryw_ms.len()).max(1) as f64;
    out.insert("olap.engine.rows_scanned", scanned / traced_reads);
    out.insert("olap.engine.rows_matched", matched / traced_reads);
    out.insert("olap.engine.selectivity", matched / scanned.max(1.0));
    out.insert("olap.engine.ns_per_row", execute_ns / scanned.max(1.0));

    probes(inputs, &mut out);
    out.insert("datagen.generate_s", inputs.rig.generate_s);
    out.insert(
        "datagen.rows",
        inputs.rig.scenario.retail.sales.len() as f64,
    );

    // The harness: do the layer times add up to the untraced operation?
    // Service time, where the open loop has one: queueing before the
    // request starts is not any layer's time.
    let service = |pass: &'_ Pass| -> f64 {
        if pass.primary.service.is_empty() {
            median(&pass.primary.ops)
        } else {
            median(&pass.primary.service)
        }
    };
    let untraced_op = service(untraced);
    let mut op_totals: BTreeMap<u64, f64> = BTreeMap::new();
    if let Some((_, log)) = traced.logs.first() {
        for (span, self_us) in log.spans().iter().zip(self_times_us(log.spans())) {
            if span.op & AUX_OP == 0 {
                *op_totals.entry(span.op).or_default() += self_us;
            }
        }
    }
    let attributed = median(&op_totals.into_values().collect::<Vec<f64>>());
    out.insert("harness.samples", record.ops.len() as f64);
    out.insert("harness.gen_late_p99_us", inputs.late_p99_us);
    out.insert(
        "harness.trace_overhead_share",
        (service(traced) - untraced_op) / untraced_op.max(f64::MIN_POSITIVE),
    );
    out.insert("harness.unattributed_us", untraced_op - attributed);
    out.insert(
        "harness.unattributed_share",
        (untraced_op - attributed) / untraced_op.max(f64::MIN_POSITIVE),
    );

    PER_LAYER
        .iter()
        .map(|spec| Measured {
            spec,
            value: out.get(spec.name).copied().unwrap_or(0.0),
            samples: samples.get(spec.name).copied().unwrap_or(0),
        })
        .collect()
}
