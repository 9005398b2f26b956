//! Concurrency suite for hot-swappable compiled rulesets: an event storm
//! races ruleset reloads and ingest epochs, and no firing may ever observe
//! a half-swapped ruleset or a torn warehouse snapshot.
//!
//! The two rulesets in rotation are distinguishable by construction: the
//! *alpha* set fires exactly two named rules on `SessionStart`, the
//! *beta* set exactly three. Every login therefore must report either the
//! complete alpha effect set or the complete beta effect set — a mixed
//! report would prove a firing saw rules from two different publications
//! (exactly what publishing the compiled set as one `VersionedSwap`
//! snapshot forbids). Broken reloads thrown into the storm must bounce without
//! ever interrupting service.
//!
//! A second storm races reloads of the paper's rules against logins over
//! the `TrainAirportCity` threshold: each reload starts a rule set with no
//! stored closed-loop outcome, so logins mix first runs and replays of the
//! Train loop, and every one must personalize exactly like a login on a
//! fresh engine.

use sdwp::core::PersonalizationEngine;
use sdwp::datagen::{PaperScenario, ScenarioConfig};
use sdwp::geometry::Point;
use sdwp::ingest::{DeltaBatch, EpochPolicy, IngestConfig};
use sdwp::model::AggregationFunction;
use sdwp::olap::{CellValue, Query};
use sdwp::prml::corpus::ALL_PAPER_RULES;
use sdwp::user::LocationContext;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

const STORM_THREADS: usize = 6;
const LIFECYCLES: usize = 40;
/// Hard cap on extra lifecycles a worker may run while waiting to observe
/// both publications; hitting it means reloads stopped landing at all.
const MAX_LIFECYCLES: usize = 10_000;
const ROWS_PER_BATCH: usize = 5;

/// The alpha publication: exactly two rules match `SessionStart`.
const ALPHA_RULES: &str = "\
Rule:alphaOne When SessionStart do SetContent(SUS.DecisionMaker.stormAlpha, 1) endWhen
Rule:alphaTwo When SessionStart do SetContent(SUS.DecisionMaker.stormAlphaToo, 2) endWhen
";

/// The beta publication: exactly three rules match `SessionStart`.
const BETA_RULES: &str = "\
Rule:betaOne When SessionStart do SetContent(SUS.DecisionMaker.stormBeta, 1) endWhen
Rule:betaTwo When SessionStart do SetContent(SUS.DecisionMaker.stormBetaToo, 2) endWhen
Rule:betaThree When SessionStart do SetContent(SUS.DecisionMaker.stormBetaTri, 3) endWhen
";

/// A reload that must be rejected at compile time (non-SUS target),
/// leaving whatever publication is in service untouched.
const BROKEN_RULES: &str = "\
Rule:broken When SessionStart do SetContent(MD.Sales.Store, 1) endWhen
";

fn alpha_names() -> BTreeSet<String> {
    ["alphaOne", "alphaTwo"]
        .iter()
        .map(|s| s.to_string())
        .collect()
}

fn beta_names() -> BTreeSet<String> {
    ["betaOne", "betaTwo", "betaThree"]
        .iter()
        .map(|s| s.to_string())
        .collect()
}

/// ≥ 6 threads storm full session lifecycles while one thread hot-swaps
/// the ruleset between the alpha and beta publications (with broken
/// reloads mixed in) and one thread streams ingest batches so snapshot
/// generations race the firings. Every observed firing must be
/// whole-alpha or whole-beta, and every observed snapshot a whole number
/// of ingest batches.
#[test]
fn rule_storm_never_observes_a_half_swapped_ruleset() {
    let scenario = PaperScenario::generate(ScenarioConfig::tiny());
    let base_rows = scenario.retail.sales.len();
    let engine = Arc::new(PersonalizationEngine::with_layer_source(
        scenario.cube.clone(),
        Arc::new(scenario.layer_source()),
    ));
    for worker in 0..STORM_THREADS {
        let mut manager = scenario.manager.clone();
        manager.id = format!("storm-{worker}");
        engine.register_user(manager);
    }
    engine
        .reload_rules_text(ALPHA_RULES)
        .expect("alpha rules publish");

    let alpha = alpha_names();
    let beta = beta_names();
    let done = Arc::new(AtomicBool::new(false));
    // Waiters: the storm threads, the swapper, and this thread (which
    // feeds the ingest rider below).
    let barrier = Arc::new(Barrier::new(STORM_THREADS + 2));

    // Ingest rider: fixed-size append batches so storm threads can verify
    // whole-batch snapshot visibility while rules fire around them.
    let ingest = engine.start_ingest(
        IngestConfig::default().with_epoch(
            EpochPolicy::default()
                .with_max_rows(ROWS_PER_BATCH * 2)
                .with_max_interval(std::time::Duration::from_millis(1)),
        ),
    );

    // The swapper: alpha → beta → alpha → … until the storm is over, with
    // a broken reload thrown in every few swaps that must bounce without
    // a service gap.
    let swapper = {
        let engine = Arc::clone(&engine);
        let barrier = Arc::clone(&barrier);
        let done = Arc::clone(&done);
        thread::spawn(move || {
            barrier.wait();
            let mut swap = 0usize;
            while !done.load(Ordering::Relaxed) {
                if swap % 5 == 4 {
                    let refused = engine.reload_rules_text(BROKEN_RULES);
                    assert!(refused.is_err(), "broken ruleset must be refused");
                } else {
                    let text = if swap.is_multiple_of(2) {
                        BETA_RULES
                    } else {
                        ALPHA_RULES
                    };
                    engine.reload_rules_text(text).expect("reload publishes");
                }
                swap += 1;
                thread::yield_now();
            }
            swap
        })
    };

    let alpha_sightings = Arc::new(AtomicUsize::new(0));
    let beta_sightings = Arc::new(AtomicUsize::new(0));
    let count_query = Query::over("Sales").measure_agg("UnitSales", AggregationFunction::Count);

    let workers: Vec<_> = (0..STORM_THREADS)
        .map(|worker| {
            let engine = Arc::clone(&engine);
            let barrier = Arc::clone(&barrier);
            let alpha = alpha.clone();
            let beta = beta.clone();
            let alpha_sightings = Arc::clone(&alpha_sightings);
            let beta_sightings = Arc::clone(&beta_sightings);
            let count_query = count_query.clone();
            let user = format!("storm-{worker}");
            thread::spawn(move || {
                barrier.wait();
                let (mut rounds, mut seen_alpha, mut seen_beta) = (0usize, false, false);
                // Run the agreed number of lifecycles, then keep going
                // until this thread has personally raced both
                // publications (capped so a dead swapper fails loudly).
                while rounds < LIFECYCLES || !seen_alpha || !seen_beta {
                    rounds += 1;
                    assert!(
                        rounds <= MAX_LIFECYCLES,
                        "never observed both publications — reloads are not landing"
                    );
                    let handle = engine
                        .start_session(&user, None)
                        .expect("login under storm");
                    let report = &handle.report;

                    // The whole-publication invariant: the fired rule
                    // names are exactly alpha's or exactly beta's.
                    let fired: BTreeSet<String> =
                        report.rules_with_effects.iter().cloned().collect();
                    if fired == alpha {
                        assert_eq!(report.rules_matched, alpha.len());
                        seen_alpha = true;
                        alpha_sightings.fetch_add(1, Ordering::Relaxed);
                    } else if fired == beta {
                        assert_eq!(report.rules_matched, beta.len());
                        seen_beta = true;
                        beta_sightings.fetch_add(1, Ordering::Relaxed);
                    } else {
                        panic!("firing saw a half-swapped ruleset: {fired:?}");
                    }

                    // Spatial selections match no rule in either
                    // publication: the lock-free no-match fast path, under
                    // contention, with the swap racing underneath.
                    let report = engine
                        .record_spatial_selection(handle.id, "GeoMD.Store.City", None)
                        .expect("selection under storm");
                    assert_eq!(report.rules_matched, 0);
                    assert!(report.effects.is_empty());

                    // A query mid-storm sees a whole number of ingest
                    // batches — rule firings never publish a torn fact
                    // snapshot.
                    let result = engine
                        .query(handle.id, &count_query)
                        .expect("query under storm");
                    let counted = result.rows[0].values[0].as_number().unwrap() as usize;
                    assert_eq!(
                        (counted - base_rows) % ROWS_PER_BATCH,
                        0,
                        "observed a torn ingest batch"
                    );

                    let report = engine.end_session(handle.id).expect("logout under storm");
                    assert_eq!(report.rules_matched, 0, "no SessionEnd rules are published");
                }
            })
        })
        .collect();

    // Feed the ingest rider from this thread while the storm runs.
    barrier.wait();
    for _ in 0..80 {
        let mut batch = DeltaBatch::new();
        for _ in 0..ROWS_PER_BATCH {
            batch = batch.append(
                "Sales",
                vec![
                    ("Store", 0usize),
                    ("Customer", 0usize),
                    ("Product", 0usize),
                    ("Time", 0usize),
                ],
                vec![("UnitSales", CellValue::Float(1.0))],
            );
        }
        ingest.submit(batch).expect("pipeline accepts the batch");
    }
    ingest.flush().expect("stream drains");

    for worker in workers {
        worker.join().expect("storm thread must not panic");
    }
    done.store(true, Ordering::Relaxed);
    let swaps = swapper.join().expect("swapper must not panic");

    // Both publications were actually observed under contention — every
    // storm thread kept running lifecycles until it personally saw alpha
    // and beta, so the reloads provably raced the firings.
    assert!(swaps > 1, "the swapper never alternated publications");
    assert!(
        alpha_sightings.load(Ordering::Relaxed) > 0,
        "the alpha publication was never observed"
    );
    assert!(
        beta_sightings.load(Ordering::Relaxed) > 0,
        "the beta publication was never observed"
    );

    // Whatever publication won the race, the in-service set is one whole
    // publication, and the source it keeps is the source it compiled.
    let in_service = engine.compiled_rules();
    let compiled: Vec<&String> = in_service.rules().iter().map(|r| &r.name).collect();
    let source: Vec<&String> = in_service.source().iter().map(|r| &r.name).collect();
    assert_eq!(source, compiled);
    let published: BTreeSet<String> = compiled.into_iter().cloned().collect();
    assert!(
        published == alpha || published == beta,
        "final publication is torn: {published:?}"
    );

    // All ingested rows arrived; sessions all closed.
    assert_eq!(
        engine.cube().total_live_fact_rows(),
        base_rows + 80 * ROWS_PER_BATCH
    );
    // Logout reclaims session state, so a storm of lifecycles leaves the
    // session map empty rather than full of dead entries.
    assert!(engine.sessions().is_empty());
}

/// Logins over the Train threshold race reloads of the paper's rules (with
/// and without an extra `SessionEnd` rule, so each reload publishes a
/// freshly compiled set): every login's view and selections must be those
/// of a login on a fresh engine, whether it ran the Train loop or
/// replayed it.
#[test]
fn reloads_racing_over_threshold_logins_keep_every_view() {
    const THREADS: usize = 4;
    const LOGINS: usize = 12;
    let mut scenario = PaperScenario::generate(ScenarioConfig::tiny());
    // Airport 0 moves onto train line 0, so the Train loop selects.
    let line = scenario.layers.trains[0].1.coords().to_vec();
    let (start, next) = (line[0], line[1]);
    let along = 10.0 / start.distance(&next);
    scenario.layers.airports[0].1 = Point::new(
        start.x + (next.x - start.x) * along,
        start.y + (next.y - start.y) * along,
    );
    let paper = ALL_PAPER_RULES.join("\n");
    let marked = format!(
        "{paper}\nRule:stormMark When SessionEnd do SetContent(SUS.DecisionMaker.stormMark, 1) endWhen"
    );
    let station = move || LocationContext::at_point("station", start.x, start.y);
    let fresh_engine = || {
        let engine = PersonalizationEngine::with_layer_source(
            scenario.cube.clone(),
            Arc::new(scenario.layer_source()),
        );
        engine.set_parameter("threshold", 2.0);
        for worker in 0..THREADS {
            let mut manager = scenario.manager.clone();
            manager.id = format!("storm-{worker}");
            manager.interest_mut("AirportCity").degree = 3.0;
            engine.register_user(manager);
        }
        engine
            .reload_rules_text(&paper)
            .expect("paper rules publish");
        Arc::new(engine)
    };

    let reference = {
        let engine = fresh_engine();
        let handle = engine.start_session("storm-0", Some(station())).unwrap();
        let view = engine.session_view(handle.id).unwrap();
        (handle.report, view)
    };
    assert!(
        reference
            .0
            .rules_with_effects
            .contains(&"TrainAirportCity".to_string()),
        "the logins are over the threshold"
    );
    assert!(
        reference.0.selected_members["Store"] > 0,
        "the Train loop selects"
    );

    let engine = fresh_engine();
    let done = Arc::new(AtomicBool::new(false));
    let reloads = Arc::new(AtomicUsize::new(0));
    let barrier = Arc::new(Barrier::new(THREADS + 1));
    let reloader = {
        let (engine, barrier, done) =
            (Arc::clone(&engine), Arc::clone(&barrier), Arc::clone(&done));
        let reloads = Arc::clone(&reloads);
        thread::spawn(move || {
            barrier.wait();
            while !done.load(Ordering::Relaxed) {
                let swap = reloads.load(Ordering::Relaxed);
                let text = if swap.is_multiple_of(2) {
                    &marked
                } else {
                    &paper
                };
                engine.reload_rules_text(text).expect("reload publishes");
                reloads.fetch_add(1, Ordering::Relaxed);
                thread::yield_now();
            }
        })
    };
    let workers: Vec<_> = (0..THREADS)
        .map(|worker| {
            let (engine, barrier) = (Arc::clone(&engine), Arc::clone(&barrier));
            let reloads = Arc::clone(&reloads);
            let (report, view) = reference.clone();
            thread::spawn(move || {
                barrier.wait();
                let user = format!("storm-{worker}");
                // The agreed logins, then more until several reloads have
                // landed among them (capped so a dead reloader fails).
                let mut logins = 0;
                while logins < LOGINS || reloads.load(Ordering::Relaxed) < 4 {
                    logins += 1;
                    assert!(logins <= MAX_LIFECYCLES, "reloads are not landing");
                    let handle = engine.start_session(&user, Some(station())).unwrap();
                    let login = &handle.report;
                    assert_eq!(login.rules_with_effects, report.rules_with_effects);
                    assert_eq!(login.selected_members, report.selected_members);
                    assert_eq!(login.visible_facts, report.visible_facts);
                    assert_eq!(engine.session_view(handle.id).unwrap(), view);
                    engine.end_session(handle.id).unwrap();
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("login thread must not panic");
    }
    done.store(true, Ordering::Relaxed);
    reloader.join().expect("reloader must not panic");
}
