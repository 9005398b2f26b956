//! Example 5.3 in isolation: spatial user-interest tracking.
//!
//! The decision maker keeps selecting cities near airports; the
//! `IntAirportCity` rule increments the `AirportCity` interest degree in
//! the spatial-aware user model. Once the degree exceeds the
//! designer-defined threshold, the next session start triggers
//! `TrainAirportCity`, which adds the Train layer and widens the selection
//! to cities with a good train connection to an airport. A third session
//! fires it again, replaying the Train loop's stored outcome (the loop
//! reads only the cube, which has not changed); the example exits non-zero
//! unless both sessions select the same members.
//!
//! Run with: `cargo run --example interest_tracking`

use sdwp::core::PersonalizationEngine;
use sdwp::datagen::{PaperScenario, ScenarioConfig};
use sdwp::prml::corpus::ALL_PAPER_RULES;
use sdwp::user::LocationContext;
use std::sync::Arc;

fn main() {
    let scenario = PaperScenario::generate(ScenarioConfig::default());
    let engine = PersonalizationEngine::with_layer_source(
        scenario.cube.clone(),
        Arc::new(scenario.layer_source()),
    );
    engine.register_user(scenario.manager.clone());
    let threshold = 3.0;
    engine.set_parameter("threshold", threshold);
    for rule in ALL_PAPER_RULES {
        engine.add_rules_text(rule).expect("paper rule registers");
    }

    let store = &scenario.retail.stores[0];
    let near_store = || LocationContext::at_point("office", store.location.x(), store.location.y());

    // First session: the user explores and repeatedly selects cities near
    // airports. Each selection fires IntAirportCity (SetContent degree+1).
    let first = engine
        .start_session("regional-manager", Some(near_store()))
        .expect("session starts");
    println!(
        "Train layer present initially: {}",
        engine.cube().schema().layer("Train").is_some()
    );
    for i in 1..=4 {
        engine
            .record_spatial_selection(first.id, "GeoMD.Store.City", None)
            .expect("selection recorded");
        let degree = engine
            .user_profile("regional-manager")
            .unwrap()
            .interest("AirportCity")
            .unwrap()
            .degree;
        println!("selection #{i}: AirportCity interest degree = {degree}");
    }
    engine.end_session(first.id).expect("session ends");

    // Second session: the degree (4) now exceeds the threshold (3), so the
    // TrainAirportCity rule adds the Train layer and selects the cities with
    // a near-enough train connection to an airport.
    let second = engine
        .start_session("regional-manager", Some(near_store()))
        .expect("session starts");
    println!("\n== Second session report ==\n{}", second.report);
    println!(
        "Train layer present after the threshold is exceeded: {}",
        engine.cube().schema().layer("Train").is_some()
    );
    let second_session_view = engine.session_view(second.id).expect("session view");
    engine.end_session(second.id).expect("session ends");

    // Third session: still over the threshold. The Train loop's outcome
    // is replayed, and the selection must be the second session's.
    let rules = engine.compiled_rules();
    let (runs, replays) = (rules.closed_loop_runs(), rules.closed_loop_replays());
    let third = engine
        .start_session("regional-manager", Some(near_store()))
        .expect("session starts");
    let third_session_view = engine.session_view(third.id).expect("session view");
    println!(
        "\nThird session: the Train loop ran {} time(s) and was replayed {} time(s); \
         same selection as the second session: {}",
        rules.closed_loop_runs() - runs,
        rules.closed_loop_replays() - replays,
        third_session_view == second_session_view
    );
    if third_session_view != second_session_view
        || third.report.selected_members != second.report.selected_members
    {
        eprintln!("the replayed Train loop selected other members than its first run");
        std::process::exit(1);
    }
}
