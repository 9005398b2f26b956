//! The benchmark's vocabulary: workloads and metrics, by name.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a unit
//! test keeps the two equal.

/// One of the five traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Every panel of every dashboard refresh misses the result cache.
    ColdRefresh,
    /// Every panel hits the result cache.
    WarmRefresh,
    /// Whole user sessions: login, selections, one query, logout.
    SessionChurn,
    /// Paced reads beside a paced delta feed.
    LiveDashboard,
    /// A dashboard tenant beside a saturating analyst tenant.
    TwoTenant,
}

impl Workload {
    /// All workloads, in run order.
    pub const ALL: [Workload; 5] = [
        Workload::ColdRefresh,
        Workload::WarmRefresh,
        Workload::SessionChurn,
        Workload::LiveDashboard,
        Workload::TwoTenant,
    ];

    /// The name used on the command line and in result documents.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdRefresh => "cold_refresh",
            Workload::WarmRefresh => "warm_refresh",
            Workload::SessionChurn => "session_churn",
            Workload::LiveDashboard => "live_dashboard",
            Workload::TwoTenant => "two_tenant",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line; also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ColdRefresh => {
                "closed loop, 1 client: 8-panel dashboard batches whose filters never repeat, so every panel misses the cache and the shared-scan executor does the work"
            }
            Workload::WarmRefresh => {
                "closed loop, 1 client: 34 repeated queries that all hit the cache, so the executor is bypassed and facade, session, admission and cache probe are the cost"
            }
            Workload::SessionChurn => {
                "closed loop, 1 client: login, 4 spatial selections, aggregate, report, logout at rotating locations, so rule firing and session state do the work"
            }
            Workload::LiveDashboard => {
                "open loop, 2 threads: an aggregate every 10 ms beside a delta batch every 5 ms, so reads meet invalidation, publication and read-your-writes"
            }
            Workload::TwoTenant => {
                "closed loop, 2 clients: a weighted dashboard tenant beside a saturating analyst tenant, so pool scheduling and admission are exercised"
            }
        }
    }

    /// What one *operation* of the workload is — the unit `ops_per_s`,
    /// `op_p50_us` and `op_p90_us` count and time.
    pub fn op(self) -> &'static str {
        match self {
            Workload::ColdRefresh | Workload::WarmRefresh => "one 8-panel QueryBatch",
            Workload::SessionChurn => "one whole session (login … logout)",
            Workload::LiveDashboard => "one paced Aggregate, timed from its due time",
            Workload::TwoTenant => "one 8-panel QueryBatch of the dashboard client",
        }
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's name, unit and direction; `bound` is the share of the
/// baseline by which it may worsen before `perf diff` calls a regression
/// (`None`: reported, never judged).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound as a share of the baseline.
    pub bound: Option<f64>,
}

const fn bounded(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn reported(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: what a user of the deployment sees. Every
/// workload reports every one of them, and none can be zero.
pub const END_TO_END: [MetricSpec; 4] = [
    bounded("setup_s", "s", Lower, 0.25),
    bounded("ops_per_s", "1/s", Higher, 0.25),
    bounded("op_p50_us", "us", Lower, 0.25),
    bounded("peak_rss_mb", "MB", Lower, 0.15),
];

/// Per-layer metrics (layers are this repository's modules) plus the
/// per-request-type figures that exist on some workloads only; a metric
/// a workload does not produce reads 0 there.
pub const PER_LAYER: [MetricSpec; 86] = [
    // The operation's tail. Not end to end: on µs-scale operations the
    // sandbox's speed phases spread it by more than any bound allowed
    // (31 % on warm_refresh), so the driver could not judge it.
    bounded("op_p90_us", "us", Lower, 0.25),
    // Per request type: latencies that only some workloads produce. The
    // bounds are `perf diff`'s; the driver judges end-to-end metrics only.
    // 25 % like the rest: the sandbox's weather leaves no room for less.
    bounded("batch_p50_us", "us", Lower, 0.25),
    bounded("batch_p99_us", "us", Lower, 0.25),
    bounded("aggregate_p50_us", "us", Lower, 0.25),
    bounded("aggregate_p99_us", "us", Lower, 0.25),
    bounded("login_p50_us", "us", Lower, 0.25),
    bounded("login_p90_us", "us", Lower, 0.25),
    bounded("relogin_p50_us", "us", Lower, 0.25),
    bounded("selection_p50_us", "us", Lower, 0.25),
    bounded("ryw_p50_ms", "ms", Lower, 0.25),
    bounded("analyst_ops_per_s", "1/s", Higher, 0.25),
    reported("error_share", "share", Lower),
    // core::web and core::session.
    reported("core.web.requests", "1/op", Lower),
    reported("core.web.self_us", "us", Lower),
    reported("core.session.lookup_us", "us", Lower),
    reported("core.session.active", "count", Lower),
    // core::engine.
    reported("core.engine.query_self_us", "us", Lower),
    reported("core.engine.batch_self_us", "us", Lower),
    reported("core.engine.login_self_us", "us", Lower),
    reported("core.engine.selection_self_us", "us", Lower),
    reported("core.engine.logout_us", "us", Lower),
    reported("core.engine.generations", "count", Lower),
    // olap::pool.
    reported("olap.pool.admit_us", "us", Lower),
    reported("olap.pool.admit_wait_us", "us", Lower),
    reported("olap.pool.sched_wait_us", "us/op", Lower),
    reported("olap.pool.dispatched", "1/op", Higher),
    reported("olap.pool.shed", "1/op", Lower),
    // olap::cache and olap::dicts.
    reported("olap.cache.get_us", "us", Lower),
    reported("olap.cache.insert_us", "us", Lower),
    reported("olap.cache.hits", "1/op", Higher),
    reported("olap.cache.misses", "1/op", Lower),
    reported("olap.cache.hit_ratio", "share", Higher),
    reported("olap.cache.evictions", "1/op", Lower),
    reported("olap.cache.invalidations", "1/op", Lower),
    reported("olap.dicts.hits", "1/op", Higher),
    reported("olap.dicts.misses", "1/op", Lower),
    reported("olap.dicts.hit_ratio", "share", Higher),
    // olap::engine and olap::view.
    reported("olap.engine.execute_us", "us", Lower),
    reported("olap.engine.batch_execute_us", "us", Lower),
    reported("olap.engine.serial_execute_us", "us", Lower),
    reported("olap.engine.resolve_us", "us/op", Lower),
    reported("olap.engine.scan_us", "us/op", Lower),
    reported("olap.engine.merge_us", "us/op", Lower),
    reported("olap.engine.finalize_us", "us/op", Lower),
    reported("olap.engine.batch_resolve_us", "us/op", Lower),
    reported("olap.engine.batch_scan_us", "us/op", Lower),
    reported("olap.engine.batch_merge_us", "us/op", Lower),
    reported("olap.engine.batch_finalize_us", "us/op", Lower),
    reported("olap.engine.rows_scanned", "1/op", Lower),
    reported("olap.engine.rows_matched", "1/op", Lower),
    reported("olap.engine.selectivity", "share", Lower),
    reported("olap.engine.ns_per_row", "ns", Lower),
    reported("olap.view.resolve_us", "us", Lower),
    reported("olap.view.visible_rows", "count", Lower),
    reported("olap.view.members", "count", Lower),
    // olap::spatial and prml.
    reported("olap.spatial.within_us", "us", Lower),
    reported("olap.spatial.within_indexed_us", "us", Lower),
    reported("olap.spatial.selected", "count", Lower),
    reported("prml.parse_us", "us", Lower),
    reported("prml.compile_us", "us", Lower),
    reported("prml.condition_us", "us/op", Lower),
    reported("prml.effect_us", "us/op", Lower),
    reported("prml.events", "1/op", Lower),
    reported("prml.rules_matched", "1/op", Lower),
    reported("prml.match_ratio", "share", Higher),
    // ingest.
    reported("ingest.submit_us", "us", Lower),
    reported("ingest.flush_us", "us", Lower),
    reported("ingest.validate_us", "us/op", Lower),
    reported("ingest.apply_us", "us/op", Lower),
    reported("ingest.publish_us", "us/op", Lower),
    reported("ingest.compact_us", "us/op", Lower),
    reported("ingest.batches_applied", "1/op", Higher),
    reported("ingest.batches_failed", "1/op", Lower),
    reported("ingest.batches_rejected", "1/op", Lower),
    reported("ingest.epochs", "1/op", Lower),
    reported("ingest.deltas_per_epoch", "count", Higher),
    reported("ingest.queue_depth_max", "count", Lower),
    // obs and datagen.
    reported("obs.span_ns", "ns", Lower),
    reported("obs.snapshot_us", "us", Lower),
    reported("datagen.generate_s", "s", Lower),
    reported("datagen.rows", "count", Higher),
    // The harness itself.
    reported("harness.samples", "count", Higher),
    reported("harness.gen_late_p99_us", "us", Lower),
    reported("harness.trace_overhead_share", "share", Lower),
    reported("harness.unattributed_us", "us", Lower),
    reported("harness.unattributed_share", "share", Lower),
];

/// Finds a metric of either table by name.
pub fn metric(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn legal_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().unwrap().is_ascii_alphanumeric()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn legal_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in Workload::ALL.iter().map(|w| w.name()) {
            assert!(legal_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for spec in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(legal_name(spec.name), "{}", spec.name);
            assert!(legal_unit(spec.unit), "{} {}", spec.name, spec.unit);
            assert!(seen.insert(spec.name), "{} used twice", spec.name);
            if let Some(bound) = spec.bound {
                assert!(bound > 0.0 && bound <= 0.25, "{}", spec.name);
            }
        }
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
            assert!(workload.why().len() <= 200 && !workload.why().contains('\n'));
        }
    }

    /// `BENCHMARK.json` and these tables are the same lists.
    #[test]
    fn benchmark_json_lists_the_same_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| doc.get(key).unwrap().as_array().unwrap().to_vec();
        let text_of = |item: &Json, key: &str| item.get(key).unwrap().as_str().unwrap().to_string();

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text_of(w, "name"), text_of(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = Workload::ALL
            .iter()
            .map(|w| (w.name().to_string(), w.why().to_string()))
            .collect();
        assert_eq!(workloads, expected);

        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = list(key);
            assert_eq!(listed.len(), table.len(), "{key}");
            for (item, spec) in listed.iter().zip(table) {
                assert_eq!(text_of(item, "name"), spec.name);
                assert_eq!(text_of(item, "unit"), spec.unit, "{}", spec.name);
                assert_eq!(text_of(item, "better"), spec.better.name(), "{}", spec.name);
                match key {
                    "end_to_end" => assert_eq!(
                        item.get("bound").and_then(Json::as_f64),
                        spec.bound,
                        "{}",
                        spec.name
                    ),
                    _ => assert!(item.get("bound").is_none(), "{}", spec.name),
                }
            }
        }
        let run_seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert_eq!(run_seconds, crate::RUN_SECONDS as f64);
    }
}
