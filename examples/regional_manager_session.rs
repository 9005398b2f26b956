//! Example 5.2 in isolation: the spatial *instance* rule.
//!
//! The regional sales manager logs in from three different locations; each
//! session sees a different personalized selection of stores ("sales made
//! in stores at less than 5 km of his location") and therefore different
//! aggregate results — without the analysis tool issuing any spatial query
//! itself.
//!
//! Each login's Store selection must equal the stores
//! `olap::spatial::members_within_distance` finds within 5 km of the same
//! point; the example exits non-zero when one does not.
//!
//! Run with: `cargo run --example regional_manager_session`

use sdwp::core::PersonalizationEngine;
use sdwp::datagen::{PaperScenario, ScenarioConfig};
use sdwp::geometry::distance::DistanceMetric;
use sdwp::geometry::Point;
use sdwp::olap::spatial::members_within_distance;
use sdwp::olap::{AttributeRef, Query};
use sdwp::prml::corpus::{EXAMPLE_5_1_ADD_SPATIALITY, EXAMPLE_5_2_5KM_STORES};
use sdwp::user::LocationContext;
use std::sync::Arc;

fn main() {
    let scenario = PaperScenario::generate(ScenarioConfig::default());
    let engine = PersonalizationEngine::with_layer_source(
        scenario.cube.clone(),
        Arc::new(scenario.layer_source()),
    );
    engine.register_user(scenario.manager.clone());
    engine
        .add_rules_text(EXAMPLE_5_1_ADD_SPATIALITY)
        .expect("rule 5.1 registers");
    engine
        .add_rules_text(EXAMPLE_5_2_5KM_STORES)
        .expect("rule 5.2 registers");

    let query = Query::over("Sales")
        .group_by(AttributeRef::new("Store", "Store", "name"))
        .measure("UnitSales");

    // Three working locations: next to the first store, next to the last
    // store, and far outside the region.
    let first = scenario.retail.stores.first().expect("stores exist");
    let last = scenario.retail.stores.last().expect("stores exist");
    let locations = [
        (
            "next to the first store",
            first.location.x(),
            first.location.y(),
        ),
        (
            "next to the last store",
            last.location.x(),
            last.location.y(),
        ),
        ("far outside the region", 10_000.0, 10_000.0),
    ];

    for (label, x, y) in locations {
        let session = engine
            .start_session(
                "regional-manager",
                Some(LocationContext::at_point(label, x, y)),
            )
            .expect("session starts");
        let view = engine.session_view(session.id).expect("session view");
        let scan = members_within_distance(
            &engine.cube(),
            "Store",
            "Store",
            &Point::new(x, y).into(),
            5.0,
            DistanceMetric::Euclidean,
        )
        .expect("the Store level is spatial");
        if !view
            .selected_members("Store")
            .is_some_and(|selected| selected.iter().eq(&scan))
        {
            eprintln!(
                "the login {label} selected {:?}, the 5 km scan finds {scan:?}",
                view.selected_members("Store")
            );
            std::process::exit(1);
        }
        let result = engine.query(session.id, &query).expect("query runs");
        println!("== Session from {label} ==");
        println!(
            "stores visible: {}, facts scanned: {}, total units: {:.0}",
            result.len(),
            result.facts_scanned,
            result.column_total(0)
        );
        for row in result.rows.iter().take(5) {
            println!("  {} -> {}", row.keys[0], row.values[0]);
        }
        println!();
        engine.end_session(session.id).expect("session ends");
    }
}
