//! The web-facing deployment: a BI front-end driving the engine through
//! typed request/response messages.
//!
//! This mirrors how the paper's approach is meant to be consumed — a web
//! application logs users in, forwards their selections, and renders
//! aggregation tables that are already personalized server-side.
//!
//! Run with: `cargo run --example web_bi_session`

use sdwp::core::{BatchEntry, PersonalizationEngine, WebFacade, WebRequest, WebResponse};
use sdwp::datagen::{PaperScenario, ScenarioConfig};
use sdwp::prml::corpus::ALL_PAPER_RULES;
use std::sync::Arc;

fn show(label: &str, response: &WebResponse) {
    match response {
        WebResponse::LoggedIn { session, report } => {
            println!("[{label}] logged in, session {session}");
            println!("{report}");
        }
        WebResponse::SelectionRecorded { rules_matched } => {
            println!("[{label}] selection recorded ({rules_matched} rule(s) matched)");
        }
        WebResponse::Table {
            columns,
            rows,
            facts_matched,
        } => {
            println!(
                "[{label}] {} ({facts_matched} facts matched)",
                columns.join(" | ")
            );
            for row in rows.iter().take(8) {
                println!("  {}", row.join(" | "));
            }
        }
        WebResponse::BatchResult { results } => {
            println!("[{label}] dashboard refresh, {} panel(s):", results.len());
            for (panel, entry) in results.iter().enumerate() {
                match entry {
                    BatchEntry::Table {
                        columns,
                        rows,
                        facts_matched,
                    } => {
                        println!(
                            "  panel {panel}: {} ({facts_matched} facts matched, {} row(s))",
                            columns.join(" | "),
                            rows.len()
                        );
                    }
                    BatchEntry::Error { message } => {
                        println!("  panel {panel}: error: {message}");
                    }
                }
            }
        }
        WebResponse::Report(report) => println!("[{label}]\n{report}"),
        WebResponse::CacheStats {
            hits,
            misses,
            entries,
            invalidations,
            evictions,
        } => {
            println!(
                "[{label}] result cache: {hits} hit(s), {misses} miss(es), \
                 {entries} entrie(s), {invalidations} invalidation(s), \
                 {evictions} eviction(s)"
            );
        }
        WebResponse::IngestAccepted { deltas } => {
            println!("[{label}] {deltas} delta(s) queued for ingestion");
        }
        WebResponse::IngestStats {
            batches_applied,
            rows_appended,
            epochs_published,
            ..
        } => {
            println!(
                "[{label}] ingest: {batches_applied} batch(es) applied, \
                 {rows_appended} row(s) appended, {epochs_published} epoch(s)"
            );
        }
        WebResponse::DictCacheStats {
            hits,
            misses,
            entries,
            invalidations,
        } => {
            println!(
                "[{label}] dictionary cache: {hits} hit(s), {misses} miss(es), \
                 {entries} entrie(s), {invalidations} invalidation(s)"
            );
        }
        WebResponse::Metrics { snapshot } => {
            println!(
                "[{label}] metrics: {} stage row(s), {} slow quer(ies) retained",
                snapshot.stages.len(),
                snapshot.slow_queries.len()
            );
            for stage in snapshot.stages.iter().take(8) {
                println!(
                    "  {} class={} count={} p50={}µs p99={}µs",
                    stage.stage, stage.class, stage.count, stage.p50, stage.p99
                );
            }
        }
        WebResponse::MetricsText { body } => {
            println!("[{label}] Prometheus exposition, {} byte(s)", body.len());
        }
        WebResponse::GenerationPinned { generation } => {
            println!("[{label}] session pinned to snapshot generation {generation}");
        }
        WebResponse::RulesReloaded { classes } => {
            println!(
                "[{label}] ruleset replaced: {} rules in service",
                classes.len()
            );
        }
        WebResponse::LoggedOut => println!("[{label}] logged out"),
        WebResponse::Overloaded {
            class,
            in_flight,
            limit,
            retry_after_hint_micros,
        } => println!(
            "[{label}] overloaded: class {class} shed ({in_flight} in flight, limit {limit}) — \
             retry in ~{retry_after_hint_micros} µs"
        ),
        WebResponse::Error { message } => println!("[{label}] error: {message}"),
    }
}

fn main() {
    let scenario = PaperScenario::generate(ScenarioConfig::default());
    let engine = PersonalizationEngine::with_layer_source(
        scenario.cube.clone(),
        Arc::new(scenario.layer_source()),
    );
    engine.register_user(scenario.manager.clone());
    engine.set_parameter("threshold", 2.0);
    for rule in ALL_PAPER_RULES {
        engine.add_rules_text(rule).expect("paper rule registers");
    }
    let facade = WebFacade::new(engine);

    // The browser reports the manager's position next to the first store.
    let store = &scenario.retail.stores[0];
    let login = facade.handle(WebRequest::Login {
        user: "regional-manager".into(),
        location: Some((store.location.x(), store.location.y())),
        class: None,
    });
    show("login", &login);
    let session = match login {
        WebResponse::LoggedIn { session, .. } => session,
        _ => return,
    };

    // The user pivots sales by city and by product category.
    for (label, group_by) in [
        ("sales by city", ("Store", "City", "name")),
        ("sales by category", ("Product", "Category", "name")),
    ] {
        let response = facade.handle(WebRequest::Aggregate {
            session,
            fact: "Sales".into(),
            measure: "UnitSales".into(),
            group_by: vec![(
                group_by.0.to_string(),
                group_by.1.to_string(),
                group_by.2.to_string(),
            )],
            deadline_micros: None,
        });
        show(label, &response);
    }

    // A dashboard refresh: every panel's query submitted at once, and
    // answered in one shared-scan batch. The manager's personalized view
    // still applies to every panel — panels whose city filter falls
    // outside the visible stores legitimately come back empty.
    let dashboard = facade.handle(WebRequest::QueryBatch {
        session,
        queries: sdwp::datagen::dashboard_batch(
            sdwp::datagen::OverlapRegime::Mixed,
            4,
            ScenarioConfig::default().cities,
        ),
        deadline_micros: None,
    });
    show("dashboard", &dashboard);

    // The user keeps drilling into cities near airports, then logs out.
    for _ in 0..3 {
        let response = facade.handle(WebRequest::SpatialSelection {
            session,
            element: "GeoMD.Store.City".into(),
            expression: None,
        });
        show("selection", &response);
    }
    let report = facade.handle(WebRequest::Report { session });
    show("report", &report);
    show("cache", &facade.handle(WebRequest::CacheStats));
    show("dict-cache", &facade.handle(WebRequest::DictCacheStats));
    show("metrics", &facade.handle(WebRequest::Metrics));
    show("logout", &facade.handle(WebRequest::Logout { session }));
}
