//! Exposition: the [`MetricsSnapshot`] aggregate and the
//! Prometheus-style text renderer.

use crate::journal::SlowQueryRecord;

/// Summary of one non-empty `(stage, class)` latency histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Stage name (see [`Stage::name`](crate::Stage::name)).
    pub stage: String,
    /// Session-class name the samples were recorded under.
    pub class: String,
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples in microseconds.
    pub sum_micros: u64,
    /// Estimated 50th-percentile latency in microseconds.
    pub p50: u64,
    /// Estimated 90th-percentile latency in microseconds.
    pub p90: u64,
    /// Estimated 99th-percentile latency in microseconds.
    pub p99: u64,
}

/// Point-in-time aggregate of everything the observability layer knows:
/// per-stage latency summaries keyed by session class, engine counters
/// and gauges, and the slow-query journal.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// False when the engine was built with a disabled registry.
    pub enabled: bool,
    /// One entry per non-empty `(stage, class)` histogram.
    pub stages: Vec<StageSnapshot>,
    /// Named monotonic counters (cache hits, batches applied, ...).
    pub counters: Vec<(String, u64)>,
    /// Named gauges (active sessions, ingest queue depth, ...).
    pub gauges: Vec<(String, i64)>,
    /// Retained slow-query records, oldest first.
    pub slow_queries: Vec<SlowQueryRecord>,
}

impl MetricsSnapshot {
    /// Finds the summary for `(stage, class)` if any samples exist.
    pub fn stage(&self, stage: &str, class: &str) -> Option<&StageSnapshot> {
        self.stages
            .iter()
            .find(|s| s.stage == stage && s.class == class)
    }

    /// Value of a named counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Value of a named gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// stage latencies as summary metrics with `quantile` labels plus
    /// `_count`/`_sum` series, counters and gauges as plain samples.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "# HELP sdwp_stage_latency_micros Per-stage latency summary in microseconds.\n",
        );
        out.push_str("# TYPE sdwp_stage_latency_micros summary\n");
        for s in &self.stages {
            for (q, v) in [("0.5", s.p50), ("0.9", s.p90), ("0.99", s.p99)] {
                out.push_str(&format!(
                    "sdwp_stage_latency_micros{{stage=\"{}\",class=\"{}\",quantile=\"{}\"}} {}\n",
                    s.stage, s.class, q, v
                ));
            }
            out.push_str(&format!(
                "sdwp_stage_latency_micros_count{{stage=\"{}\",class=\"{}\"}} {}\n",
                s.stage, s.class, s.count
            ));
            out.push_str(&format!(
                "sdwp_stage_latency_micros_sum{{stage=\"{}\",class=\"{}\"}} {}\n",
                s.stage, s.class, s.sum_micros
            ));
        }
        for (name, v) in &self.counters {
            out.push_str(&format!("# TYPE sdwp_{name} counter\nsdwp_{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("# TYPE sdwp_{name} gauge\nsdwp_{name} {v}\n"));
        }
        out.push_str(&format!(
            "# TYPE sdwp_slow_queries_retained gauge\nsdwp_slow_queries_retained {}\n",
            self.slow_queries.len()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_rendering_contains_series() {
        let snap = MetricsSnapshot {
            enabled: true,
            stages: vec![StageSnapshot {
                stage: "query_scan".to_string(),
                class: "default".to_string(),
                count: 3,
                sum_micros: 300,
                p50: 127,
                p90: 127,
                p99: 127,
            }],
            counters: vec![("cache_hits".to_string(), 42)],
            gauges: vec![("sessions_active".to_string(), 7)],
            slow_queries: Vec::new(),
        };
        let text = snap.render_prometheus();
        assert!(text.contains(
            "sdwp_stage_latency_micros{stage=\"query_scan\",class=\"default\",quantile=\"0.5\"} 127"
        ));
        assert!(text
            .contains("sdwp_stage_latency_micros_count{stage=\"query_scan\",class=\"default\"} 3"));
        assert!(text.contains("sdwp_cache_hits 42"));
        assert!(text.contains("sdwp_sessions_active 7"));
        assert!(text.contains("sdwp_slow_queries_retained 0"));
    }

    #[test]
    fn lookup_helpers() {
        let snap = MetricsSnapshot {
            enabled: true,
            stages: Vec::new(),
            counters: vec![("a".to_string(), 1)],
            gauges: vec![("b".to_string(), -2)],
            slow_queries: Vec::new(),
        };
        assert_eq!(snap.counter("a"), Some(1));
        assert_eq!(snap.counter("zz"), None);
        assert_eq!(snap.gauge("b"), Some(-2));
        assert!(snap.stage("query_scan", "default").is_none());
    }
}
