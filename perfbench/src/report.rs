//! Result documents: the driver's one-line result, the `BENCH_*.json`
//! document of `perf run`, and the comparison of two documents.

use crate::json::Json;
use crate::run::{Measured, Outcome};
use crate::spec::{metric, Better, MetricSpec, Workload, END_TO_END, PER_LAYER};
use crate::stats::{median, quartile_spread};

fn measured(m: &Measured, detail: bool) -> (String, Json) {
    let mut fields = vec![
        ("value", Json::Num(m.value)),
        ("unit", Json::str(m.spec.unit)),
    ];
    if detail {
        fields.push(("samples", Json::Num(m.samples as f64)));
    }
    (m.spec.name.to_string(), Json::obj(fields))
}

/// The result line of one run: exactly `correct`, `attempted`, `failed`
/// and `metrics` (end-to-end metrics without a trace, per-layer metrics
/// with one). With `detail`, both groups, sample counts and host facts —
/// what `perf run` collects from its child processes.
pub fn result_line(outcome: &Outcome, trace: bool, detail: bool) -> Json {
    let group = |metrics: &[Measured]| Json::obj(metrics.iter().map(|m| measured(m, detail)));
    let mut fields = vec![
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
    ];
    if detail {
        fields.push(("end_to_end", group(&outcome.end_to_end)));
        fields.push(("per_layer", group(&outcome.per_layer)));
        fields.push(("checked", Json::Num(outcome.checked as f64)));
        fields.push(("workers", Json::Num(outcome.workers as f64)));
    } else if trace {
        fields.push(("metrics", group(&outcome.per_layer)));
    } else {
        fields.push(("metrics", group(&outcome.end_to_end)));
    }
    Json::obj(fields)
}

/// One workload's section of a `BENCH_*.json` document, from the detail
/// lines of its untraced runs and of its traced run.
pub fn workload_section(workload: Workload, untraced: &[Json], traced: &Json) -> Json {
    let sum = |key: &str| -> f64 {
        untraced
            .iter()
            .chain([traced])
            .filter_map(|line| line.get(key)?.as_f64())
            .sum()
    };
    let end_to_end = END_TO_END.iter().map(|spec| {
        let field =
            |line: &Json, key: &str| line.get("end_to_end")?.get(spec.name)?.get(key)?.as_f64();
        let runs: Vec<f64> = untraced
            .iter()
            .filter_map(|line| field(line, "value"))
            .collect();
        let samples = untraced
            .iter()
            .filter_map(|line| field(line, "samples"))
            .fold(0.0, f64::max);
        (
            spec.name,
            Json::obj([
                ("value", Json::Num(median(&runs))),
                ("unit", Json::str(spec.unit)),
                ("samples", Json::Num(samples)),
                // Inter-quartile range of the runs over their median;
                // null when a single run was made.
                (
                    "spread",
                    quartile_spread(&runs).map_or(Json::Null, Json::Num),
                ),
                ("runs", Json::Arr(runs.into_iter().map(Json::Num).collect())),
            ]),
        )
    });
    Json::obj([
        ("name", Json::str(workload.name())),
        ("why", Json::str(workload.why())),
        ("op", Json::str(workload.op())),
        ("attempted", Json::Num(sum("attempted"))),
        ("failed", Json::Num(sum("failed"))),
        ("checked", Json::Num(sum("checked"))),
        ("end_to_end", Json::obj(end_to_end)),
        (
            "per_layer",
            traced.get("per_layer").cloned().unwrap_or(Json::Null),
        ),
    ])
}

/// Prints one workload's section as the metric tables.
pub fn print_section(section: &Json) {
    let text = |key: &str| section.get(key).and_then(Json::as_str).unwrap_or("");
    let number = |key: &str| section.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    println!("\n== {} — {}", text("name"), text("op"));
    println!(
        "   attempted {}  failed {}  answers checked {}",
        number("attempted"),
        number("failed"),
        number("checked")
    );
    for (group, specs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        println!("   -- {group}");
        for spec in specs {
            let Some(entry) = section.get(group).and_then(|g| g.get(spec.name)) else {
                continue;
            };
            let value = entry.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            let samples = entry.get("samples").and_then(Json::as_f64).unwrap_or(0.0);
            let spread = entry.get("spread").and_then(Json::as_f64);
            println!(
                "   {:<34} {:>16.4} {:<6} n={:<8}{}",
                spec.name,
                value,
                spec.unit,
                samples,
                spread.map_or(String::new(), |s| format!(" spread {:.3}", s)),
            );
        }
    }
}

/// How a new value compares with an old one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Ok,
    /// Better by more than the bound.
    Improved,
    /// Worse by more than the bound.
    Regressed,
    /// A recorded run-to-run spread exceeds the bound: no call.
    Unresolved,
}

impl Verdict {
    /// The word printed in the diff.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of `old` the metric got worse (negative: better).
pub fn worsening(spec: &MetricSpec, old: f64, new: f64) -> f64 {
    let change = (new - old) / old.abs().max(f64::MIN_POSITIVE);
    match spec.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Judges `new` against `old` under the metric's bound; `spreads` are
/// the run-to-run spreads the two documents recorded, where they did.
pub fn judge(spec: &MetricSpec, old: f64, new: f64, spreads: [Option<f64>; 2]) -> Verdict {
    let bound = spec.bound.unwrap_or(f64::INFINITY);
    if spreads.iter().flatten().any(|&spread| spread > bound) {
        return Verdict::Unresolved;
    }
    match worsening(spec, old, new) {
        w if w > bound => Verdict::Regressed,
        w if w < -bound => Verdict::Improved,
        _ => Verdict::Ok,
    }
}

/// One compared metric.
pub struct Comparison {
    /// Workload name.
    pub workload: String,
    /// The metric.
    pub spec: &'static MetricSpec,
    /// Old value (the ratio's base).
    pub old: f64,
    /// New value.
    pub new: f64,
    /// The call.
    pub verdict: Verdict,
}

/// Compares two documents: every workload × every metric that carries a
/// bound and has a non-zero value in both.
pub fn compare(old: &Json, new: &Json) -> Result<Vec<Comparison>, String> {
    let sections = |doc: &Json| -> Result<Vec<Json>, String> {
        Ok(doc
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or("document has no `workloads` array")?
            .to_vec())
    };
    let (old_sections, new_sections) = (sections(old)?, sections(new)?);
    let mut out = Vec::new();
    for old_section in &old_sections {
        let name = old_section.get("name").and_then(Json::as_str).unwrap_or("");
        let Some(new_section) = new_sections
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
        else {
            continue;
        };
        for group in ["end_to_end", "per_layer"] {
            let Some(entries) = old_section.get(group).and_then(Json::as_object) else {
                continue;
            };
            for (metric_name, old_entry) in entries {
                let Some(spec) = metric(metric_name).filter(|spec| spec.bound.is_some()) else {
                    continue;
                };
                let read = |entry: &Json, key: &str| entry.get(key).and_then(Json::as_f64);
                let Some(new_entry) = new_section.get(group).and_then(|g| g.get(metric_name))
                else {
                    continue;
                };
                let (Some(a), Some(b)) = (read(old_entry, "value"), read(new_entry, "value"))
                else {
                    continue;
                };
                if a == 0.0 || b == 0.0 {
                    continue;
                }
                let spreads = [read(old_entry, "spread"), read(new_entry, "spread")];
                out.push(Comparison {
                    workload: name.to_string(),
                    spec,
                    old: a,
                    new: b,
                    verdict: judge(spec, a, b, spreads),
                });
            }
        }
    }
    Ok(out)
}

/// Prints a comparison, one row per workload × metric, every ratio with
/// its base (`new / old`).
pub fn print_comparison(rows: &[Comparison]) {
    println!(
        "{:<15} {:<20} {:>14} {:>14} {:>9}  {:<6} verdict",
        "workload", "metric", "old", "new", "new/old", "bound"
    );
    for row in rows {
        println!(
            "{:<15} {:<20} {:>14.4} {:>14.4} {:>9.4}  {:<6} {}",
            row.workload,
            row.spec.name,
            row.old,
            row.new,
            row.new / row.old,
            row.spec.bound.map_or(String::new(), |b| format!("{b:.2}")),
            row.verdict.word(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(value: f64, spread: Option<f64>) -> Json {
        Json::obj([
            ("value", Json::Num(value)),
            ("spread", spread.map_or(Json::Null, Json::Num)),
        ])
    }

    fn doc(ops: f64, p50: (f64, Option<f64>), batch_p50: f64) -> Json {
        Json::obj([(
            "workloads",
            Json::Arr(vec![Json::obj([
                ("name", Json::str("cold_refresh")),
                (
                    "end_to_end",
                    Json::obj([
                        ("ops_per_s", entry(ops, Some(0.01))),
                        ("op_p50_us", entry(p50.0, p50.1)),
                    ]),
                ),
                (
                    "per_layer",
                    Json::obj([
                        ("batch_p50_us", entry(batch_p50, None)),
                        ("olap.cache.hits", entry(1.0, None)),
                    ]),
                ),
            ])]),
        )])
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let ops = metric("ops_per_s").unwrap();
        let p50 = metric("op_p50_us").unwrap();
        assert_eq!(judge(ops, 100.0, 95.0, [None, None]), Verdict::Ok);
        assert_eq!(judge(ops, 100.0, 70.0, [None, None]), Verdict::Regressed);
        assert_eq!(judge(ops, 100.0, 130.0, [None, None]), Verdict::Improved);
        assert_eq!(judge(p50, 100.0, 130.0, [None, None]), Verdict::Regressed);
        assert_eq!(judge(p50, 100.0, 70.0, [None, None]), Verdict::Improved);
        assert_eq!(
            judge(p50, 100.0, 300.0, [Some(0.02), Some(0.3)]),
            Verdict::Unresolved
        );
        assert!((worsening(ops, 100.0, 90.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn compare_walks_bounded_metrics_of_both_documents() {
        let old = doc(100.0, (50.0, Some(0.01)), 40.0);
        let new = doc(70.0, (51.0, Some(0.5)), 0.0);
        let rows = compare(&old, &new).unwrap();
        let verdicts: Vec<(&str, Verdict)> =
            rows.iter().map(|r| (r.spec.name, r.verdict)).collect();
        // batch_p50_us is 0 in the new document (not produced) and
        // olap.cache.hits carries no bound: neither is judged.
        assert_eq!(
            verdicts,
            [
                ("ops_per_s", Verdict::Regressed),
                ("op_p50_us", Verdict::Unresolved)
            ]
        );
        assert!(compare(&Json::Null, &new).is_err());
    }
}
