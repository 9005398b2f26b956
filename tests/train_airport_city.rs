//! Example 5.3's `TrainAirportCity` on generated data where it selects.
//!
//! The generator places airports a few kilometres off their cities, so on
//! the generated data the rule's condition never holds and its `then`
//! branch — `SelectInstance(c)` under the compiled loop's emptiness guard —
//! never runs. Here one airport sits on a train line, and the compiled rule
//! set must fire exactly like the AST interpreter: the same report, the
//! same selections in the same order, and the same view.

use sdwp::datagen::{PaperScenario, ScenarioConfig};
use sdwp::geometry::Point;
use sdwp::olap::InstanceView;
use sdwp::prml::corpus::ALL_PAPER_RULES;
use sdwp::prml::{
    parse_rules, CompiledRuleSet, EvalContext, FireReport, Rule, RuleEngine, RuntimeEvent,
};
use sdwp::user::{LocationContext, Session};

/// The rules that had an effect, as the login report lists them.
fn rules_with_effects(report: &FireReport) -> Vec<&str> {
    report
        .effects
        .iter()
        .filter(|e| e.changed_schema() || e.selected_instances() || e.set_contents > 0)
        .map(|e| e.rule.as_str())
        .collect()
}

/// The view a login applies: every rule's selection, conjunctively.
fn view_of(report: &FireReport) -> InstanceView {
    let mut view = InstanceView::unrestricted();
    for (dimension, members) in report.selection_sets() {
        view.select_dimension_members(dimension, members.iter().copied());
    }
    view
}

#[test]
fn train_airport_city_selects_the_same_cities_compiled_and_interpreted() {
    let mut scenario = PaperScenario::generate(ScenarioConfig::default());
    // Airport 0 moves onto train line 0, 10 km along its first segment.
    let line = scenario.layers.trains[0].1.coords().to_vec();
    let (start, next) = (line[0], line[1]);
    let along = 10.0 / start.distance(&next);
    scenario.layers.airports[0].1 = Point::new(
        start.x + (next.x - start.x) * along,
        start.y + (next.y - start.y) * along,
    );
    let layers = scenario.layer_source();

    let rules: Vec<Rule> = ALL_PAPER_RULES
        .iter()
        .flat_map(|text| parse_rules(text).unwrap())
        .collect();
    let compiled = CompiledRuleSet::compile(&rules, scenario.cube.schema()).unwrap();
    let mut interpreter = RuleEngine::new();
    for rule in &rules {
        interpreter.add_rule(rule.clone());
    }

    // The manager's AirportCity interest is past the threshold, and the
    // session sits at the line's first city, so 5kmStores keeps some of
    // the stores the Train rule selects.
    let mut manager = scenario.manager.clone();
    manager.interest_mut("AirportCity").degree = 3.0;
    let session = Session::start_at(
        1,
        manager.id.clone(),
        LocationContext::at_point("station", start.x, start.y),
    );

    let fire = |use_compiled: bool| {
        let mut cube = scenario.cube.clone();
        let mut profile = manager.clone();
        let mut ctx = EvalContext::new(&mut cube, &mut profile)
            .with_session(&session)
            .with_layer_source(&layers)
            .with_parameter("threshold", 2.0);
        let report = if use_compiled {
            compiled.fire(&RuntimeEvent::SessionStart, &mut ctx)
        } else {
            interpreter.fire(&RuntimeEvent::SessionStart, &mut ctx)
        };
        drop(ctx);
        (report.unwrap(), cube.schema().clone(), profile)
    };
    let (interpreted, schema_i, profile_i) = fire(false);
    let (compiled, schema_c, profile_c) = fire(true);

    let train = compiled.effect_of("TrainAirportCity").unwrap();
    let selected = &train.selections["Store"];
    assert!(!selected.is_empty(), "the Train rule must select");
    assert!(
        selected.len() < scenario.retail.stores.len(),
        "and not select everything"
    );

    assert_eq!(
        rules_with_effects(&compiled),
        rules_with_effects(&interpreted)
    );
    assert!(rules_with_effects(&compiled).contains(&"TrainAirportCity"));
    // Selections are ordered sets: equal reports select the same members
    // in the same order.
    assert_eq!(compiled, interpreted);
    let view = view_of(&compiled);
    assert_eq!(view, view_of(&interpreted));
    assert!(view
        .selected_members("Store")
        .is_some_and(|members| !members.is_empty()));
    assert_eq!(schema_c, schema_i);
    assert_eq!(profile_c, profile_i);
}
