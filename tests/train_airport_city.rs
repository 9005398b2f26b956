//! Example 5.3's `TrainAirportCity` on generated data where it selects.
//!
//! The generator places airports a few kilometres off their cities, so on
//! the generated data the rule's condition never holds and its `then`
//! branch — `SelectInstance(c)` under the compiled loop's emptiness guard —
//! never runs. Here one airport sits on a train line, and the compiled rule
//! set must fire exactly like the AST interpreter: the same report, the
//! same selections in the same order, and the same view.
//!
//! The rule's loop reads only the cube, so the compiled rule set runs it
//! once per cube stamp and replays it on later logins: the engine-level
//! tests log in over the threshold three times, on the default data (the
//! loop selects nothing) and on the moved-airport data (it selects), and
//! hold every login to the first and to the interpreter.

use sdwp::core::PersonalizationEngine;
use sdwp::datagen::{PaperScenario, ScenarioConfig};
use sdwp::geometry::Point;
use sdwp::olap::InstanceView;
use sdwp::prml::corpus::ALL_PAPER_RULES;
use sdwp::prml::{
    intersection_calls, parse_rules, CompiledRuleSet, EvalContext, FireReport, Rule, RuleEngine,
    RuntimeEvent,
};
use sdwp::user::{LocationContext, Session, UserProfile};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

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

/// The default scenario with airport 0 moved onto train line 0, 10 km
/// along its first segment, and the line's first vertex.
fn moved_airport_scenario() -> (PaperScenario, Point) {
    let mut scenario = PaperScenario::generate(ScenarioConfig::default());
    let line = scenario.layers.trains[0].1.coords().to_vec();
    let (start, next) = (line[0], line[1]);
    let along = 10.0 / start.distance(&next);
    scenario.layers.airports[0].1 = Point::new(
        start.x + (next.x - start.x) * along,
        start.y + (next.y - start.y) * along,
    );
    (scenario, Point::new(start.x, start.y))
}

#[test]
fn train_airport_city_selects_the_same_cities_compiled_and_interpreted() {
    let (scenario, start) = moved_airport_scenario();
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
        LocationContext::at_point("station", start.x(), start.y()),
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

/// Logs the manager in over the threshold three times through the engine,
/// at `location`, and holds every login to the first and the first to the
/// interpreter. Only the first runs the Train loop — on the firing thread,
/// one `Intersection` call per (train, city) pair and more — and the later
/// ones replay it with none. Returns the Store members the first view
/// keeps.
fn relogins_replay_the_train_loop(scenario: &PaperScenario, location: Point) -> BTreeSet<usize> {
    let (engine, manager) = manager_engine(scenario);
    let at = || LocationContext::at_point("station", location.x(), location.y());

    let mut logins = Vec::new();
    for _ in 0..3 {
        let rules = engine.compiled_rules();
        let (runs, calls) = (rules.closed_loop_runs(), intersection_calls());
        let handle = engine.start_session(&manager.id, Some(at())).unwrap();
        let work = (
            rules.closed_loop_runs() - runs,
            intersection_calls() - calls,
        );
        let view = engine.session_view(handle.id).unwrap();
        let session = engine.session(handle.id).unwrap();
        engine.end_session(handle.id).unwrap();
        logins.push((handle.report, view, session, work));
    }
    let (report, view, session, (runs, calls)) = &logins[0];
    assert_eq!(*runs, 1);
    // One hoisted Intersection per (train, city) pair at least.
    let pairs = scenario.layers.trains.len() * scenario.retail.stores.len();
    assert!(
        *calls >= pairs as u64,
        "{calls} Intersection calls, {pairs} pairs"
    );
    for (later, later_view, _, work) in &logins[1..] {
        assert_eq!(later, report);
        assert_eq!(later_view, view);
        assert_eq!(*work, (0, 0), "a relogin replays the loop");
    }
    assert!(report
        .rules_with_effects
        .contains(&"TrainAirportCity".to_string()));

    let interpreted = interpret(scenario, &manager, session);
    assert_eq!(**view, view_of(&interpreted));
    assert_eq!(report.rules_with_effects, rules_with_effects(&interpreted));
    // The report counts the members the view keeps: per dimension, the
    // conjunction of every rule's selection.
    let mut kept: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
    for (dimension, members) in interpreted.selection_sets() {
        kept.entry(dimension.to_string())
            .and_modify(|kept| kept.retain(|member| members.contains(member)))
            .or_insert_with(|| members.clone());
    }
    let counts: BTreeMap<String, usize> = kept
        .into_iter()
        .map(|(dimension, members)| (dimension, members.len()))
        .collect();
    assert_eq!(report.selected_members, counts);
    view.selected_members("Store")
        .expect("the Train loop restricts Store")
        .iter()
        .copied()
        .collect()
}

/// An engine with the paper's rules, the threshold at 2 and the manager,
/// whose AirportCity interest is past it, registered.
fn manager_engine(scenario: &PaperScenario) -> (PersonalizationEngine, UserProfile) {
    let engine = PersonalizationEngine::with_layer_source(
        scenario.cube.clone(),
        Arc::new(scenario.layer_source()),
    );
    let mut manager = scenario.manager.clone();
    manager.interest_mut("AirportCity").degree = 3.0;
    engine.register_user(manager.clone());
    engine.set_parameter("threshold", 2.0);
    for rule in ALL_PAPER_RULES {
        engine.add_rules_text(rule).unwrap();
    }
    (engine, manager)
}

/// The interpreter's SessionStart firing of the paper's rules for
/// `manager`'s `session`, on the scenario's starting state.
fn interpret(scenario: &PaperScenario, manager: &UserProfile, session: &Session) -> FireReport {
    let mut interpreter = RuleEngine::new();
    for text in ALL_PAPER_RULES {
        for rule in parse_rules(text).unwrap() {
            interpreter.add_rule(rule);
        }
    }
    let layers = scenario.layer_source();
    let mut cube = scenario.cube.clone();
    let mut profile = manager.clone();
    let mut ctx = EvalContext::new(&mut cube, &mut profile)
        .with_session(session)
        .with_layer_source(&layers)
        .with_parameter("threshold", 2.0);
    interpreter
        .fire(&RuntimeEvent::SessionStart, &mut ctx)
        .unwrap()
}

/// 5kmStores and the moved-airport Train rule both select `Store`: the
/// view keeps the stores both select, and the login report counts those,
/// not the last rule's selection.
#[test]
fn the_login_report_counts_the_stores_both_rules_keep() {
    let (scenario, start) = moved_airport_scenario();
    let (engine, manager) = manager_engine(&scenario);
    let at = LocationContext::at_point("station", start.x(), start.y());
    let handle = engine.start_session(&manager.id, Some(at)).unwrap();
    let session = engine.session(handle.id).unwrap();
    let interpreted = interpret(&scenario, &manager, &session);
    let selected = |rule: &str| &interpreted.effect_of(rule).unwrap().selections["Store"];
    let (near, train) = (selected("5kmStores"), selected("TrainAirportCity"));
    let both: BTreeSet<usize> = near.intersection(train).copied().collect();
    // The Train rule fires last and selects stores 5kmStores does not.
    assert!(!both.is_empty(), "both rules keep a store");
    assert!(
        both.len() < train.len(),
        "{} near, {} by train, {} both",
        near.len(),
        train.len(),
        both.len()
    );
    assert_eq!(handle.report.selected_members["Store"], both.len());
    assert_eq!(
        engine
            .session_view(handle.id)
            .unwrap()
            .selected_members("Store"),
        Some(&both)
    );
    assert!(handle.report.to_string().contains(&format!(
        "selected {} member(s) of dimension 'Store'",
        both.len()
    )));
}

#[test]
fn relogins_replay_a_train_loop_that_selects_nothing() {
    let scenario = PaperScenario::generate(ScenarioConfig::default());
    let line = scenario.layers.trains[0].1.coords().to_vec();
    let start = Point::new(line[0].x, line[0].y);
    // No (train, city, airport) triple is close enough: the loop selects
    // no city, and that empty selection empties the view's Store.
    assert!(relogins_replay_the_train_loop(&scenario, start).is_empty());
}

#[test]
fn relogins_replay_a_train_loop_that_selects() {
    let (scenario, start) = moved_airport_scenario();
    assert!(!relogins_replay_the_train_loop(&scenario, start).is_empty());
}
