//! Example 5.2's `5kmStores` on the benchmark's data: 4 000 stores.
//!
//! The compiled rule set answers the loop as a range probe through a
//! level index kept per cube stamp, so a login computes `Distance` only
//! for the index's candidates near the user, and a store added next to
//! the user moves the stamp, rebuilds the index and is selected at the
//! next login. Every login is held to the interpreter, which computes
//! `Distance` once per store.

use sdwp::datagen::{PaperScenario, ScenarioConfig};
use sdwp::geometry::distance::DistanceMetric;
use sdwp::geometry::Point;
use sdwp::olap::spatial::members_within_distance;
use sdwp::olap::{CellValue, Cube};
use sdwp::prml::corpus::{EXAMPLE_5_1_ADD_SPATIALITY, EXAMPLE_5_2_5KM_STORES};
use sdwp::prml::{
    distance_calls, parse_rules, CompiledRuleSet, EvalContext, FireReport, Rule, RuleEngine,
    RuntimeEvent, StaticLayerSource,
};
use sdwp::user::{LocationContext, Session};
use std::collections::BTreeSet;

const KM: f64 = 5.0;

fn scenario() -> PaperScenario {
    PaperScenario::generate(ScenarioConfig::default().scaled(20).with_seed(42))
}

fn rules() -> Vec<Rule> {
    [EXAMPLE_5_1_ADD_SPATIALITY, EXAMPLE_5_2_5KM_STORES]
        .iter()
        .flat_map(|text| parse_rules(text).unwrap())
        .collect()
}

/// The manager's login at `at` on `cube`, compiled or interpreted: the
/// Store members 5kmStores selects, and the `Distance` evaluations the
/// firing made on this thread.
fn login(
    scenario: &PaperScenario,
    layers: &StaticLayerSource,
    cube: &mut Cube,
    at: Point,
    fire: impl FnOnce(&mut EvalContext<'_>) -> FireReport,
) -> (BTreeSet<usize>, u64) {
    let session = Session::start_at(
        1,
        "manager",
        LocationContext::at_point("here", at.x(), at.y()),
    );
    let mut profile = scenario.manager.clone();
    let mut ctx = EvalContext::new(cube, &mut profile)
        .with_session(&session)
        .with_layer_source(layers);
    let before = distance_calls();
    let report = fire(&mut ctx);
    let distances = distance_calls() - before;
    let selected = report.effect_of("5kmStores").unwrap().selections["Store"].clone();
    (selected, distances)
}

fn interpreted(
    scenario: &PaperScenario,
    layers: &StaticLayerSource,
    cube: &Cube,
    at: Point,
) -> (BTreeSet<usize>, u64) {
    let mut interpreter = RuleEngine::new();
    for rule in rules() {
        interpreter.add_rule(rule);
    }
    login(scenario, layers, &mut cube.clone(), at, |ctx| {
        interpreter.fire(&RuntimeEvent::SessionStart, ctx).unwrap()
    })
}

#[test]
fn a_5km_login_computes_distance_for_the_index_candidates_only() {
    let scenario = scenario();
    let stores = &scenario.retail.stores;
    assert_eq!(stores.len(), 4_000);
    let layers = scenario.layer_source();
    let compiled = CompiledRuleSet::compile(&rules(), scenario.cube.schema()).unwrap();
    let mut cube = scenario.cube.clone();
    let mut selected_any = false;
    for store in stores.iter().step_by(401) {
        let at = Point::new(store.location.x() + 0.5, store.location.y());
        let (selected, distances) = login(&scenario, &layers, &mut cube, at, |ctx| {
            compiled.fire(&RuntimeEvent::SessionStart, ctx).unwrap()
        });
        let scan: BTreeSet<usize> = members_within_distance(
            &cube,
            "Store",
            "Store",
            &at.into(),
            KM,
            DistanceMetric::Euclidean,
        )
        .unwrap()
        .into_iter()
        .collect();
        assert_eq!(selected, scan);
        assert_eq!(interpreted(&scenario, &layers, &cube, at), (scan, 4_000));
        // The index offers only stores whose point lies in the square of
        // side 2 × 5 km around the user (up to its rounding slack).
        let window = stores
            .iter()
            .filter(|s| {
                (s.location.x() - at.x()).abs() <= KM + 1e-6
                    && (s.location.y() - at.y()).abs() <= KM + 1e-6
            })
            .count() as u64;
        assert!(
            (selected.len() as u64..=window).contains(&distances),
            "{distances} Distance evaluations, {} selected, {window} in the window",
            selected.len()
        );
        selected_any |= !selected.is_empty();
    }
    assert!(selected_any, "some login keeps a store");
    // Only the first login changed the cube (Example 5.1's layer and
    // spatial level): one index served every login.
    assert_eq!(compiled.level_index_builds(), 1);
}

#[test]
fn a_store_added_next_to_the_user_is_selected_at_the_next_login() {
    let scenario = scenario();
    let layers = scenario.layer_source();
    let compiled = CompiledRuleSet::compile(&rules(), scenario.cube.schema()).unwrap();
    let mut cube = scenario.cube.clone();
    let first = &scenario.retail.stores[0].location;
    let at = Point::new(first.x() + 0.5, first.y());
    let fire = |cube: &mut Cube| {
        login(&scenario, &layers, cube, at, |ctx| {
            compiled.fire(&RuntimeEvent::SessionStart, ctx).unwrap()
        })
    };
    let (before, _) = fire(&mut cube);
    assert_eq!(compiled.level_index_builds(), 1);

    let row = cube
        .add_dimension_member(
            "Store",
            vec![
                ("Store.name", CellValue::from("Next door")),
                (
                    "Store.geometry",
                    CellValue::Geometry(Point::new(at.x() + 1.0, at.y()).into()),
                ),
            ],
        )
        .unwrap();
    let (after, _) = fire(&mut cube);
    assert_eq!(compiled.level_index_builds(), 2, "the stamp moved");
    let mut expected = before;
    expected.insert(row);
    assert_eq!(after, expected);
    assert_eq!(interpreted(&scenario, &layers, &cube, at).0, after);
}
