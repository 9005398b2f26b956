//! Compiled rule evaluation.
//!
//! [`CompiledRuleSet::compile`] turns a set of parsed rules into a compact
//! instruction stream after an up-front validation pass (the same
//! [`check_rules`] set check the interpreter path uses — nothing the
//! checker rejects ever compiles).
//! Compilation pre-resolves everything that cannot change at runtime:
//!
//! * event matchers become precomputed strings ([`MatchSpec`]), so the
//!   **condition (match) phase is lock-free** — deciding which rules an
//!   event fires touches no cube state at all;
//! * loop variables read from depth-indexed slots instead of a
//!   name-scanned scope stack;
//! * `SUS.` paths are pre-parsed, designer parameters pre-lowercased, and
//!   level/attribute model paths pre-resolved (layer- and
//!   spatiality-sensitive paths re-resolve against the live schema,
//!   because schema rules grow it at runtime);
//! * literal subtrees are constant-folded through the interpreter's own
//!   semantic kernels, preserving error wording and evaluation order.
//!
//! # Planning `Foreach`
//!
//! A `Foreach` is the cartesian product of its sources, so a body
//! expression runs once per tuple — 60 000 times for Example 5.3's
//! `TrainAirportCity` over 3 trains, 4 000 store-level cities and 5
//! airports. Two compile-time moves keep it from recomputing what does not
//! change, closed loops are replayed across firings, and Example 5.2's
//! loop becomes an index probe; anything these do not recognise runs the
//! plain nested loop.
//!
//! **Loop-invariant hoisting.** A maximal subtree that reads no binding of
//! the innermost loop and does real work (a call or a SUS read) becomes an
//! `Op::Memo`: it is evaluated at its own position in the
//! postfix program, the first time execution reaches it, and reused until
//! the binding just outside the innermost one (its *key slot*) is bound
//! again — tracked by a per-slot epoch in the execution frame. Every
//! binding further out changes only together with the key slot, so that
//! one epoch decides validity; a loop with no enclosing binding keys on
//! the firing itself. Because the memo runs where the interpreter would
//! run the subtree, the first evaluation raises exactly the interpreter's
//! error, and later reuses cannot fail. `TrainAirportCity` computes
//! `Intersection(t.geometry, c.geometry)` once per `(t, c)` instead of
//! once per airport.
//!
//! Hoistable subtrees hold only `Const`, slot reads, property reads,
//! unary and binary operators and calls: deterministic in the slots they
//! read and in cube data no rule action rewrites (`AddLayer` loads only
//! empty layer tables, `BecomeSpatial` touches the schema alone). SUS
//! paths and designer parameters may join them only when the loop body is
//! **read-only** — it holds nothing but `If`, `Foreach` and
//! `SelectInstance` — because a `SetContent` in the body could change what
//! a SUS path reads between two iterations. That is what lets Example
//! 5.2's `5kmStores` resolve the session location once per firing.
//!
//! **The exact emptiness guard.** When a read-only innermost body is a
//! single else-less `If (Distance(Intersection(E, v.geometry)) < k)` (or
//! `<=`), with `E` hoisted, `v` the innermost binding and `k` a finite
//! constant, an empty `E` decides the whole innermost loop:
//! `Intersection(∅, g)` is ∅ (and so is an intersection with null),
//! one-argument `Distance(∅)` is +∞, and +∞ is neither `<` nor `<=` a
//! finite `k` — every iteration's condition is false, and with no `else`
//! nothing runs. The executor skips the loop only when that reasoning
//! cannot be undone by an error: `E` is evaluated only if the innermost
//! collection is non-empty (exactly when the interpreter's first iteration
//! would evaluate it, as the condition's first operand), and every
//! innermost item must read `.geometry` as a geometry or null. A text
//! item, whose `.geometry` is an error, runs the loop and raises it. For
//! `TrainAirportCity`, 9 601 of the 12 000 `(t, c)` pairs on the benchmark
//! data are empty and skip their airports.
//!
//! **Closed loops.** Hoisting and the guard work inside one firing; a
//! *closed* loop is shared across firings. A loop is closed when its body
//! is read-only in the sense above and neither its sources nor its body
//! (hoisted subprograms included) read a SUS path, a designer parameter or
//! a binding of an enclosing loop. What it selects, or the error it
//! raises, then depends only on the cube's schema, dimension tables and
//! layer tables, which [`sdwp_olap::Cube::stamp`] versions: every change
//! to them draws a fresh process-wide stamp, clones keep theirs, and fact
//! changes (ingestion, compaction) leave it alone. Because the draw is
//! process-wide, an older clone put back by a rollback still shows the
//! stamp of exactly its own contents. The rule set keeps the
//! last outcome of each closed loop with the stamp it ran under. A firing
//! whose cube shows that stamp replays the outcome: it unions the stored
//! selections (the empty ones the loop pre-registers included) into the
//! effect, or raises the stored error. Selections are ordered sets, so the
//! union is exactly what the run would have left. Any other stamp runs the
//! loop into a scratch effect and replaces the stored outcome. The table
//! belongs to the [`CompiledRuleSet`], so a hot swap starts empty; its lock
//! covers the lookup and the store, never a run. `TrainAirportCity`'s
//! loop reads only the Train, Store and Airport tables, so once the first
//! over-threshold login has run it, every later login replays it until the
//! schema, a dimension table or a layer table changes.
//! [`CompiledRuleSet::closed_loop_runs`] and
//! [`CompiledRuleSet::closed_loop_replays`] count both paths.
//!
//! **Range probes.** Example 5.2's `5kmStores` — `Foreach s in
//! (GeoMD.Store) If (Distance(s.geometry, E) < k) then SelectInstance(s)
//! endIf endForeach` — would compute 4 000 distances to select the three
//! stores near the user. A loop of exactly that shape (one binding over a
//! level, `E` hoisted, `k` a finite constant, `<`, no `else`, nothing
//! else in the body) is planned as a range probe and answered through a
//! packed R-tree over the level's geometries
//! ([`sdwp_olap::spatial::LevelIndex`]): the members whose bounding box
//! lies in the window around `E` are refined by the exact distance, taken
//! member first as `Distance(s.geometry, E)` takes it, and selected; an
//! empty level selects nothing, and a null `E` pre-registers the empty
//! selection, as the interpreter does. The index is built on first need
//! and kept per probe loop under the cube's stamp, beside the closed-loop
//! outcomes, so a hot swap drops it and any change to the dimension
//! tables rebuilds it; [`CompiledRuleSet::level_index_builds`] counts the
//! builds and [`crate::distance_calls`] the distances. Whatever the
//! probe cannot answer exactly runs the nested loop: a geometry column
//! that does not resolve, an `E` that fails or is neither a geometry nor
//! null, and a coordinate of `E` or of a member that is not finite or
//! exceeds 10¹⁵⁰ in magnitude (where a distance could come out NaN, which
//! the interpreter refuses to compare). A closed loop of this shape still
//! replays first; the probe is how it runs.
//!
//! This compiled form is what serves every event; the AST interpreter in
//! [`crate::eval`] is the reference it is tested against
//! (`crates/prml/tests/compiled_equivalence.rs`: compiled ≡ interpreted
//! over generated rules and event streams).

mod exec;
mod program;

pub use program::{CompiledRule, MatchSpec};

use crate::ast::Rule;
use crate::error::PrmlError;
use crate::eval::context::{EvalContext, RuleEffect};
use crate::eval::engine::{attach_rule, FireReport, RuntimeEvent};
use crate::typecheck::{augmented_schema, check_rules, RuleClass};
use sdwp_model::Schema;

/// An immutable set of compiled rules, ready to be published as one
/// snapshot and hot-swapped without draining in-flight firings.
#[derive(Debug, Default)]
pub struct CompiledRuleSet {
    rules: Vec<CompiledRule>,
    source: Vec<Rule>,
    /// The stored outcomes of the set's closed loops and the level
    /// indexes of its probe loops: a recompiled (hot swapped) set starts
    /// with none.
    loops: exec::LoopState,
}

impl CompiledRuleSet {
    /// Validates and compiles a rule set against a schema.
    ///
    /// Validation is the interpreter path's own whole-set check (every
    /// rule's schema effects applied to a scratch schema first, Fig. 1's
    /// two-stage process), so anything the interpreter would reject at
    /// registration is rejected here — and on failure the caller's
    /// in-service rule set stays untouched.
    pub fn compile(rules: &[Rule], schema: &Schema) -> Result<CompiledRuleSet, PrmlError> {
        let classes = check_rules(rules, schema)?;
        let effective = augmented_schema(rules, schema);
        let mut loop_ids = program::LoopIds::default();
        let compiled = rules
            .iter()
            .zip(classes)
            .map(|(rule, class)| program::compile_rule(rule, class, &effective, &mut loop_ids))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CompiledRuleSet {
            rules: compiled,
            source: rules.to_vec(),
            loops: exec::LoopState::new(&loop_ids),
        })
    }

    /// The parsed rules this set was compiled from, in registration order
    /// (what a caller extending the set recompiles with its additions).
    pub fn source(&self) -> &[Rule] {
        &self.source
    }

    /// The compiled rules, in registration order.
    pub fn rules(&self) -> &[CompiledRule] {
        &self.rules
    }

    /// Number of compiled rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Returns `true` when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// How many times a closed loop of this set ran: no outcome was stored
    /// for the cube's stamp (see the module docs, *Closed loops*).
    pub fn closed_loop_runs(&self) -> u64 {
        self.loops.runs()
    }

    /// How many times a closed loop of this set replayed the outcome
    /// stored for the cube's stamp instead of running.
    pub fn closed_loop_replays(&self) -> u64 {
        self.loops.replays()
    }

    /// How many times a probe loop of this set built its level index: no
    /// index was stored for the cube's stamp (see the module docs, *Range
    /// probes*).
    pub fn level_index_builds(&self) -> u64 {
        self.loops.index_builds()
    }

    /// The classification of each rule, in registration order.
    pub fn classes(&self) -> Vec<RuleClass> {
        self.rules.iter().map(|r| r.class).collect()
    }

    /// The lock-free condition phase: which rules does this event fire?
    ///
    /// Pure string comparison over precomputed matchers — no cube access,
    /// no allocation beyond the result, safe to run against any snapshot
    /// without holding the master lock.
    pub fn matched_rules(&self, event: &RuntimeEvent) -> Vec<usize> {
        self.rules
            .iter()
            .enumerate()
            .filter(|(_, rule)| rule.matcher.matches(event))
            .map(|(index, _)| index)
            .collect()
    }

    /// The effect-application phase: runs the bodies of the rules
    /// `matched_rules` returned, in registration order, against a mutable
    /// context (the caller holds whatever lock the context requires).
    /// Produces the same report — and on failure the same error, wording
    /// included — as the interpreter's `fire`.
    pub fn fire_matched(
        &self,
        matched: &[usize],
        ctx: &mut EvalContext<'_>,
    ) -> Result<FireReport, PrmlError> {
        let mut report = FireReport {
            effects: Vec::new(),
            rules_matched: matched.len(),
        };
        for &index in matched {
            let rule = &self.rules[index];
            let mut effect = RuleEffect::new(rule.name.clone());
            let mut frame = exec::Frame::new(rule.slot_count, rule.memo_count);
            exec::run_statements(&rule.body, &mut frame, ctx, &mut effect, &self.loops)
                .map_err(|e| attach_rule(e, &rule.name))?;
            report.effects.push(effect);
        }
        Ok(report)
    }

    /// Convenience single-call firing (condition phase + effect phase),
    /// drop-in equivalent to the interpreter's `RuleEngine::fire`.
    pub fn fire(
        &self,
        event: &RuntimeEvent,
        ctx: &mut EvalContext<'_>,
    ) -> Result<FireReport, PrmlError> {
        let matched = self.matched_rules(event);
        self.fire_matched(&matched, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::BinaryOp;
    use crate::corpus::*;
    use crate::eval::context::StaticLayerSource;
    use crate::eval::engine::RuleEngine;
    use crate::eval::value::Value;
    use crate::parser::parse_rules;
    use sdwp_geometry::{LineString, Point};
    use sdwp_model::{AttributeType, DimensionBuilder, FactBuilder, SchemaBuilder};
    use sdwp_olap::{CellValue, Cube};
    use sdwp_user::{Role, Session, SpatialSelectionInterest, UserProfile};

    fn sales_schema() -> Schema {
        SchemaBuilder::new("SalesDW")
            .dimension(
                DimensionBuilder::new("Store")
                    .level(
                        "Store",
                        vec![
                            sdwp_model::Attribute::descriptor("name", AttributeType::Text),
                            sdwp_model::Attribute::new("address", AttributeType::Text),
                        ],
                    )
                    .simple_level("City", "name")
                    .simple_level("State", "name")
                    .build(),
            )
            .dimension(
                DimensionBuilder::new("Time")
                    .simple_level("Day", "name")
                    .build(),
            )
            .fact(
                FactBuilder::new("Sales")
                    .measure("UnitSales", AttributeType::Float)
                    .dimension("Store")
                    .dimension("Time")
                    .build(),
            )
            .build()
            .unwrap()
    }

    fn sales_cube() -> Cube {
        let mut cube = Cube::new(sales_schema());
        for i in 0..5 {
            cube.add_dimension_member(
                "Store",
                vec![
                    ("Store.name", CellValue::from(format!("S{i}"))),
                    ("City.name", CellValue::from(format!("City{i}"))),
                    (
                        "Store.geometry",
                        CellValue::Geometry(Point::new(i as f64 * 10.0, 0.0).into()),
                    ),
                    (
                        "City.geometry",
                        CellValue::Geometry(Point::new(i as f64 * 10.0, 1.0).into()),
                    ),
                ],
            )
            .unwrap();
        }
        cube.add_dimension_member("Time", vec![("Day.name", CellValue::from("Mon"))])
            .unwrap();
        cube
    }

    fn manager_profile() -> UserProfile {
        UserProfile::new("u1", "Octavio")
            .with_role(Role::new("RegionalSalesManager"))
            .with_interest(SpatialSelectionInterest::new("AirportCity"))
    }

    fn layers() -> StaticLayerSource {
        let mut source = StaticLayerSource::new();
        source.insert(
            "Airport",
            vec![("ALC".to_string(), Point::new(0.0, 1.0).into())],
        );
        source.insert(
            "Train",
            vec![(
                "coastal line".to_string(),
                LineString::from_tuples(&[(0.0, 1.0), (50.0, 1.0)])
                    .unwrap()
                    .into(),
            )],
        );
        source
    }

    /// Fires both engines on identical state and asserts identical
    /// outcomes (report or error text) plus identical resulting schemas
    /// and profiles.
    fn assert_equivalent(rules_text: &[&str], event: &RuntimeEvent, threshold: Option<f64>) {
        let rules: Vec<Rule> = rules_text
            .iter()
            .flat_map(|t| parse_rules(t).unwrap())
            .collect();
        let compiled = CompiledRuleSet::compile(&rules, &sales_schema()).unwrap();
        let mut engine = RuleEngine::new();
        for rule in &rules {
            engine.add_rule(rule.clone());
        }

        let source = layers();
        let session = Session::start(1, "u1");

        let mut cube_i = sales_cube();
        let mut profile_i = manager_profile();
        let mut ctx = EvalContext::new(&mut cube_i, &mut profile_i)
            .with_session(&session)
            .with_layer_source(&source);
        if let Some(t) = threshold {
            ctx = ctx.with_parameter("threshold", t);
        }
        let interpreted = engine.fire(event, &mut ctx);
        drop(ctx);

        let mut cube_c = sales_cube();
        let mut profile_c = manager_profile();
        let mut ctx = EvalContext::new(&mut cube_c, &mut profile_c)
            .with_session(&session)
            .with_layer_source(&source);
        if let Some(t) = threshold {
            ctx = ctx.with_parameter("threshold", t);
        }
        let compiled_result = compiled.fire(event, &mut ctx);
        drop(ctx);

        match (interpreted, compiled_result) {
            (Ok(a), Ok(b)) => assert_eq!(a, b),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
            (a, b) => panic!("interpreter {a:?} vs compiled {b:?}"),
        }
        assert_eq!(cube_i.schema(), cube_c.schema());
        assert_eq!(profile_i, profile_c);
    }

    #[test]
    fn paper_rules_compile_and_match_the_interpreter() {
        for event in [
            RuntimeEvent::SessionStart,
            RuntimeEvent::SessionEnd,
            RuntimeEvent::spatial_selection("GeoMD.Store.City"),
        ] {
            assert_equivalent(&ALL_PAPER_RULES, &event, Some(2.0));
        }
    }

    #[test]
    fn classes_match_the_checker() {
        let rules: Vec<Rule> = ALL_PAPER_RULES
            .iter()
            .flat_map(|t| parse_rules(t).unwrap())
            .collect();
        let schema = sales_schema();
        let compiled = CompiledRuleSet::compile(&rules, &schema).unwrap();
        assert_eq!(compiled.classes(), check_rules(&rules, &schema).unwrap());
        assert_eq!(compiled.len(), rules.len());
        assert!(!compiled.is_empty());
    }

    #[test]
    fn matched_rules_is_the_interpreters_event_match() {
        let rules: Vec<Rule> = ALL_PAPER_RULES
            .iter()
            .flat_map(|t| parse_rules(t).unwrap())
            .collect();
        let compiled = CompiledRuleSet::compile(&rules, &sales_schema()).unwrap();
        // Element matched with an explicit expression: exact normalised
        // text comparison, like the interpreter.
        let matching = RuntimeEvent::SpatialSelection {
            element: "GeoMD.Store.City".into(),
            expression: Some(
                "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry) < 20".into(),
            ),
        };
        assert_eq!(compiled.matched_rules(&matching).len(), 1);
        let non_matching = RuntimeEvent::SpatialSelection {
            element: "GeoMD.Store.City".into(),
            expression: Some("Inside(GeoMD.Store.City.geometry, GeoMD.Airport.geometry)".into()),
        };
        assert!(compiled.matched_rules(&non_matching).is_empty());
        assert!(compiled
            .matched_rules(&RuntimeEvent::spatial_selection("GeoMD.Customer"))
            .is_empty());
    }

    #[test]
    fn constant_folding_preserves_division_by_zero() {
        let rules = parse_rules(
            "Rule:bad When SessionStart do If (1 / 0 > 1) then AddLayer('x', POINT) endIf endWhen",
        )
        .unwrap();
        let compiled = CompiledRuleSet::compile(&rules, &sales_schema()).unwrap();
        let mut cube = sales_cube();
        let mut profile = manager_profile();
        let mut ctx = EvalContext::new(&mut cube, &mut profile);
        let err = compiled
            .fire(&RuntimeEvent::SessionStart, &mut ctx)
            .unwrap_err();
        assert!(err.to_string().contains("division by zero"));
        assert!(err.to_string().contains("bad"));
    }

    #[test]
    fn constant_folding_evaluates_literal_arithmetic() {
        // (2 + 3) * 4 > 10 folds to a constant true: the compiled body is
        // a bare If whose condition is a single Const op, and firing takes
        // the then-branch.
        let rules = parse_rules(
            "Rule:folded When SessionStart do \
             If ((2 + 3) * 4 > 10) then SetContent(SUS.DecisionMaker.theme, 'dark') endIf endWhen",
        )
        .unwrap();
        let compiled = CompiledRuleSet::compile(&rules, &sales_schema()).unwrap();
        let mut cube = sales_cube();
        let mut profile = manager_profile();
        let mut ctx = EvalContext::new(&mut cube, &mut profile);
        let report = compiled
            .fire(&RuntimeEvent::SessionStart, &mut ctx)
            .unwrap();
        assert_eq!(report.effects[0].set_contents, 1);
    }

    /// The compiled `Foreach` statements of a rule body, outermost first.
    fn loops(body: &[program::CStmt]) -> Vec<&program::CStmt> {
        let mut found = Vec::new();
        for statement in body {
            match statement {
                program::CStmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    found.extend(loops(then_branch));
                    found.extend(loops(else_branch));
                }
                program::CStmt::Foreach { body, .. } => {
                    found.push(statement);
                    found.extend(loops(body));
                }
                _ => {}
            }
        }
        found
    }

    /// The compiled loop of a single-loop rule (compiled after Example
    /// 5.1, which adds the Airport layer): its condition's ops and whether
    /// the emptiness guard applies.
    fn planned_loop(text: &str) -> (Vec<program::Op>, bool) {
        let mut rules = parse_rules(EXAMPLE_5_1_ADD_SPATIALITY).unwrap();
        rules.extend(parse_rules(text).unwrap());
        let compiled = CompiledRuleSet::compile(&rules, &sales_schema()).unwrap();
        let [program::CStmt::Foreach { body, guarded, .. }] = loops(&compiled.rules()[1].body)[..]
        else {
            panic!("expected exactly one loop");
        };
        let [program::CStmt::If { condition, .. }] = &body[..] else {
            panic!("expected a single If in the loop body");
        };
        (condition.ops.clone(), *guarded)
    }

    #[test]
    fn train_airport_city_hoists_the_train_city_intersection_and_is_guarded() {
        use program::Op;
        let (ops, guarded) = planned_loop(EXAMPLE_5_3_TRAIN_AIRPORT_CITY);
        assert!(guarded);
        // t, c, a bind slots 0, 1, 2: `Intersection(t.geometry,
        // c.geometry)` reads no `a`, so it is computed once per (t, c) —
        // keyed on c's slot — and the rest runs per airport.
        let [Op::Memo {
            key_slot: Some(1),
            ops: hoisted,
            ..
        }, Op::SlotProps { slot: 2, .. }, Op::Call { name: inner, .. }, Op::Call { name: outer, .. }, Op::Const(_), Op::Binary(BinaryOp::Lt)] =
            &ops[..]
        else {
            panic!("unexpected plan: {ops:?}");
        };
        assert_eq!(
            (inner.as_str(), outer.as_str()),
            ("intersection", "distance")
        );
        assert!(matches!(
            &hoisted[..],
            [
                Op::SlotProps { slot: 0, .. },
                Op::SlotProps { slot: 1, .. },
                Op::Call { name, argc: 2, .. },
            ] if name == "intersection"
        ));
    }

    #[test]
    fn five_km_stores_resolves_the_session_location_once() {
        use program::Op;
        let (ops, guarded) = planned_loop(EXAMPLE_5_2_5KM_STORES);
        assert!(!guarded);
        // The loop is a range probe over the Store level within 5 of the
        // hoisted location.
        let [probe] = &probes(EXAMPLE_5_2_5KM_STORES)[..] else {
            panic!("5kmStores must be planned as one range probe");
        };
        let probe = probe.as_ref().expect("5kmStores is a range probe");
        assert_eq!(
            (probe.dimension.as_str(), probe.level.as_str()),
            ("Store", "Store")
        );
        assert_eq!(probe.max_distance, 5.0);
        assert!(
            matches!(
                &probe.target.ops[..],
                [Op::Memo { key_slot: None, ops: hoisted, .. }] if matches!(&hoisted[..], [Op::Sus(_)])
            ),
            "unexpected target: {:?}",
            probe.target.ops
        );
        // The SUS location reads no loop variable and the body only
        // selects: it is hoisted with no key slot — once per firing.
        assert!(
            matches!(
                &ops[..],
                [
                    Op::SlotProps { slot: 0, .. },
                    Op::Memo { key_slot: None, ops: hoisted, .. },
                    Op::Call { .. },
                    Op::Const(_),
                    Op::Binary(BinaryOp::Lt),
                ] if matches!(&hoisted[..], [Op::Sus(_)])
            ),
            "unexpected plan: {ops:?}"
        );
    }

    /// The range-probe plan of each loop of the last rule, outermost first
    /// (compiled after Example 5.1, which adds the Airport layer).
    fn probes(text: &str) -> Vec<Option<program::Probe>> {
        let mut rules = parse_rules(EXAMPLE_5_1_ADD_SPATIALITY).unwrap();
        rules.extend(parse_rules(text).unwrap());
        let compiled = CompiledRuleSet::compile(&rules, &sales_schema()).unwrap();
        loops(&compiled.rules().last().unwrap().body)
            .into_iter()
            .map(|statement| match statement {
                program::CStmt::Foreach { probe, .. } => probe.clone(),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn only_example_5_2s_shape_is_a_range_probe() {
        let location = "SUS.DecisionMaker.dm2session.s2location.geometry";
        let rule = |source: &str, condition: &str, then: &str, rest: &str| {
            format!(
                "Rule:p When SessionStart do Foreach s in ({source}) If ({condition}) \
                 then {then} endIf {rest}endForeach endWhen"
            )
        };
        let planned = |text: &str| probes(text).iter().map(Option::is_some).collect::<Vec<_>>();
        let shape = format!("Distance(s.geometry, {location}) < 5");
        let select = "SelectInstance(s)";
        // Another level of the dimension, and a probe nested in a loop
        // whose binding its target reads.
        assert_eq!(
            planned(&rule("GeoMD.Store.City", &shape, select, "")),
            [true]
        );
        let nested = "Rule:p When SessionStart do Foreach o in (GeoMD.Store.City) Foreach s in \
                      (GeoMD.Store) If (Distance(s.geometry, Centroid(o.geometry)) < 5) then \
                      SelectInstance(s) endIf endForeach endForeach endWhen";
        assert_eq!(planned(nested), [false, true]);
        for text in [
            rule("GeoMD.Store", &shape.replace("<", "<="), select, ""),
            rule("GeoMD.Store", &shape.replace("<", ">"), select, ""),
            rule("GeoMD.Store", &shape.replace("5", "threshold"), select, ""),
            rule(
                "GeoMD.Store",
                &format!("Distance({location}, s.geometry) < 5"),
                select,
                "",
            ),
            rule(
                "GeoMD.Store",
                &shape,
                "SelectInstance(s) else SelectInstance(s)",
                "",
            ),
            rule(
                "GeoMD.Store",
                &shape,
                "SelectInstance(s) SelectInstance(s)",
                "",
            ),
            rule("GeoMD.Store", &shape, select, "SelectInstance(s) "),
            rule("GeoMD.Airport", &shape, select, ""),
            rule(
                "GeoMD.Store",
                "Distance(s.geometry, s.geometry) < 5",
                select,
                "",
            ),
        ] {
            assert_eq!(planned(&text), [false], "{text}");
        }
    }

    #[test]
    fn loops_that_write_keep_the_generic_path() {
        use program::Op;
        // The same shape with a SetContent (or an AddLayer) in the body:
        // the SUS read is not hoisted and the loop is not guarded.
        for action in [
            "SetContent(SUS.DecisionMaker.theme, 'x')",
            "AddLayer('Airport', POINT)",
        ] {
            let (ops, guarded) = planned_loop(&format!(
                "Rule:w When SessionStart do Foreach t, c in (GeoMD.Store, GeoMD.Store.City) \
                 If (Distance(Intersection(SUS.DecisionMaker.dm2session.s2location.geometry, \
                 t.geometry), c.geometry) < 5) then {action} endIf endForeach endWhen"
            ));
            assert!(!guarded, "{action}");
            assert!(
                !ops.iter().any(|op| matches!(op, Op::Memo { .. })),
                "{action}: {ops:?}"
            );
        }
    }

    /// Guarded loops whose skip would change the outcome if the guard were
    /// looser: the interpreter's result (or error) must stand.
    #[test]
    fn the_guard_keeps_the_interpreters_errors() {
        let location = "SUS.DecisionMaker.dm2session.s2location.geometry";
        for rule in [
            // An empty (null-location) operand, but the innermost items
            // are texts: the first `n.geometry` read is an error.
            format!(
                "Rule:texts When SessionStart do Foreach c, n in (GeoMD.Store.City, \
                 MD.Sales.Store.City.name) If (Distance(Intersection(Intersection({location}, \
                 c.geometry), n.geometry)) < 50) then SelectInstance(c) endIf endForeach endWhen"
            ),
            // The operand fails (`t.geometry` on a text), but the innermost
            // loop is empty (a layer the layer source does not know): the
            // operand is never evaluated, so nothing fails.
            "Rule:empty When SessionStart do AddLayer('Depot', POINT) \
             Foreach t, d in (MD.Sales.Store.City.name, GeoMD.Depot) \
             If (Distance(Intersection(Intersection(t.geometry, t.geometry), d.geometry)) < 50) \
             then SelectInstance(d) endIf endForeach endWhen"
                .to_string(),
        ] {
            assert_equivalent(&[&rule], &RuntimeEvent::SessionStart, None);
        }
    }

    #[test]
    fn malformed_programs_fail_typed_instead_of_panicking() {
        use program::{Op, Prog};
        let mut cube = sales_cube();
        let mut profile = manager_profile();
        let ctx = EvalContext::new(&mut cube, &mut profile);
        let call = |argc| Op::Call {
            name: "distance".into(),
            display: "Distance".into(),
            argc,
        };
        let memo = |id, key_slot, ops| Op::Memo { id, key_slot, ops };
        let malformed = [
            vec![Op::Unary(crate::ast::UnaryOp::Neg)],
            vec![Op::Const(Value::Number(1.0)), Op::Binary(BinaryOp::Add)],
            vec![call(2)],
            vec![],
            vec![Op::Const(Value::Number(1.0)), Op::Const(Value::Number(2.0))],
            vec![Op::Slot(9)],
            vec![memo(0, None, vec![])],
            vec![memo(
                0,
                None,
                vec![Op::Const(Value::Null), Op::Const(Value::Null)],
            )],
            vec![memo(5, None, vec![Op::Const(Value::Null)])],
            vec![memo(0, Some(9), vec![Op::Const(Value::Null)])],
        ];
        for ops in malformed {
            let mut frame = exec::Frame::new(1, 1);
            let err = exec::run_prog(&Prog { ops: ops.clone() }, &mut frame, &ctx).unwrap_err();
            assert!(
                matches!(&err, PrmlError::Eval { message, .. } if message.starts_with("internal error")),
                "{ops:?}: {err}"
            );
        }
    }

    #[test]
    fn a_memo_is_reused_until_its_key_slot_rebinds() {
        use program::{Op, Prog};
        let mut cube = sales_cube();
        let mut profile = manager_profile();
        let ctx = EvalContext::new(&mut cube, &mut profile);
        // A memo reading slot 1, keyed on slot 0: rebinding slot 1 alone
        // reuses the cached value; rebinding slot 0 recomputes it.
        let prog = Prog {
            ops: vec![Op::Memo {
                id: 0,
                key_slot: Some(0),
                ops: vec![Op::Slot(1)],
            }],
        };
        let mut frame = exec::Frame::new(2, 1);
        let run = |frame: &mut exec::Frame| exec::run_prog(&prog, frame, &ctx).unwrap();
        frame.bind(0, Value::Null);
        frame.bind(1, Value::Number(1.0));
        assert_eq!(run(&mut frame), Value::Number(1.0));
        frame.bind(1, Value::Number(2.0));
        assert_eq!(run(&mut frame), Value::Number(1.0));
        frame.bind(0, Value::Null);
        assert_eq!(run(&mut frame), Value::Number(2.0));
    }

    /// Whether each loop of the last rule is closed, outermost first
    /// (compiled after Example 5.1, which adds the Airport layer).
    fn closed_loops(text: &str) -> Vec<bool> {
        let mut rules = parse_rules(EXAMPLE_5_1_ADD_SPATIALITY).unwrap();
        rules.extend(parse_rules(text).unwrap());
        let compiled = CompiledRuleSet::compile(&rules, &sales_schema()).unwrap();
        loops(&compiled.rules().last().unwrap().body)
            .into_iter()
            .map(|statement| {
                matches!(
                    statement,
                    program::CStmt::Foreach {
                        closed: Some(_),
                        ..
                    }
                )
            })
            .collect()
    }

    #[test]
    fn loops_that_read_only_the_cube_are_closed() {
        // Example 5.3: the loop is closed, though the If around it reads
        // the user model and a parameter.
        assert_eq!(closed_loops(EXAMPLE_5_3_TRAIN_AIRPORT_CITY), [true]);
        let body = "If (Distance(Intersection(Intersection(t.geometry, c.geometry), \
                    a.geometry)) < 50) then SelectInstance(c) endIf";
        let train = |inner: &str| {
            format!(
                "Foreach t, c, a in (GeoMD.Train, GeoMD.Store.City, GeoMD.Airport) \
                 {inner} endForeach"
            )
        };
        let rule = |lp: String| {
            format!("Rule:r When SessionStart do AddLayer('Train', LINE) {lp} endWhen")
        };
        let nested = |inner: &str| {
            rule(format!(
                "Foreach o in (GeoMD.Store) {} endForeach",
                train(inner)
            ))
        };
        // An outer loop whose binding the inner one does not read: both
        // are closed.
        assert_eq!(closed_loops(&nested(body)), [true, true]);
        // Reading the outer binding opens the inner loop only.
        let reads_outer = body.replace("a.geometry)) < 50", "o.geometry)) < 50");
        assert_eq!(closed_loops(&nested(&reads_outer)), [true, false]);
        for open in [
            // Example 5.2 reads the session location.
            EXAMPLE_5_2_5KM_STORES.to_string(),
            // A SUS read in the body, a parameter, a write.
            rule(train(
                &body.replace("< 50)", "< 50 And SUS.DecisionMaker.name = 'x')"),
            )),
            rule(train(&body.replace("< 50", "< threshold"))),
            rule(train(&body.replace(
                "endIf",
                "SetContent(SUS.DecisionMaker.theme, 'x') endIf",
            ))),
            // A SUS read in a source.
            rule(train(body).replace(
                "GeoMD.Airport)",
                "Intersection(GeoMD.Airport, SUS.DecisionMaker.dm2session.s2location))",
            )),
        ] {
            assert_eq!(closed_loops(&open), [false], "{open}");
        }
    }

    /// Fires `rules` on `cube` as a manager with no session.
    fn fire_on(compiled: &CompiledRuleSet, cube: &mut Cube) -> FireReport {
        let source = layers();
        let mut profile = manager_profile();
        let mut ctx = EvalContext::new(cube, &mut profile).with_layer_source(&source);
        compiled
            .fire(&RuntimeEvent::SessionStart, &mut ctx)
            .unwrap()
    }

    #[test]
    fn a_closed_loop_replays_until_the_cube_stamp_changes() {
        let rules = parse_rules(
            "Rule:r When SessionStart do AddLayer('Airport', POINT) AddLayer('Train', LINE) \
             Foreach t, c, a in (GeoMD.Train, GeoMD.Store.City, GeoMD.Airport) \
             If (Distance(Intersection(Intersection(t.geometry, c.geometry), a.geometry)) < 50) \
             then SelectInstance(c) endIf endForeach endWhen",
        )
        .unwrap();
        let compiled = CompiledRuleSet::compile(&rules, &sales_schema()).unwrap();
        let mut cube = sales_cube();
        let first = fire_on(&compiled, &mut cube);
        // The coastal line, split at each city and again at ALC, leaves a
        // segment under 50 for every city but City0, which sits on ALC at
        // the line's end.
        assert_eq!(first.effects[0].selections["Store"], [1, 2, 3, 4].into());
        assert_eq!(
            (compiled.closed_loop_runs(), compiled.closed_loop_replays()),
            (1, 0)
        );

        // The layers are loaded: the second firing changes nothing, so the
        // loop replays, and no Intersection is computed.
        let before = crate::intersection_calls();
        assert_eq!(fire_on(&compiled, &mut cube), first);
        assert_eq!(crate::intersection_calls(), before);
        assert_eq!(
            (compiled.closed_loop_runs(), compiled.closed_loop_replays()),
            (1, 1)
        );

        // A new city on the line is selected at once: the member moved the
        // stamp, and the loop runs again.
        let loaded = cube.clone();
        cube.add_dimension_member(
            "Store",
            vec![(
                "City.geometry",
                CellValue::Geometry(Point::new(5.0, 1.0).into()),
            )],
        )
        .unwrap();
        let grown = fire_on(&compiled, &mut cube);
        assert_eq!(grown.effects[0].selections["Store"], [1, 2, 3, 4, 5].into());
        assert_eq!(compiled.closed_loop_runs(), 2);

        // Putting the older clone back brings its stamp back, and the set
        // keeps one outcome per loop: it runs again, with the old answer.
        let mut restored = loaded;
        assert_eq!(fire_on(&compiled, &mut restored), first);
        assert_eq!(compiled.closed_loop_runs(), 3);
    }

    #[test]
    fn a_closed_loop_replays_its_error() {
        // `n.geometry` on a city name is an error, raised by the first
        // (t, n) pair that reaches it, on every firing.
        let rules = parse_rules(
            "Rule:r When SessionStart do AddLayer('Train', LINE) \
             Foreach t, n in (GeoMD.Train, MD.Sales.Store.City.name) \
             If (Distance(Intersection(t.geometry, n.geometry)) < 50) \
             then SelectInstance(t) endIf endForeach endWhen",
        )
        .unwrap();
        let compiled = CompiledRuleSet::compile(&rules, &sales_schema()).unwrap();
        let mut engine = RuleEngine::new();
        engine.add_rule(rules[0].clone());
        let source = layers();
        let mut cube = sales_cube();
        let mut profile = manager_profile();
        let mut ctx = EvalContext::new(&mut cube, &mut profile).with_layer_source(&source);
        let expected = engine
            .fire(&RuntimeEvent::SessionStart, &mut ctx)
            .unwrap_err();
        for _ in 0..2 {
            let err = compiled
                .fire(&RuntimeEvent::SessionStart, &mut ctx)
                .unwrap_err();
            assert_eq!(err.to_string(), expected.to_string());
        }
        assert_eq!(
            (compiled.closed_loop_runs(), compiled.closed_loop_replays()),
            (1, 1)
        );
    }

    // ----- negative paths: every rejection leaves nothing compiled -----

    #[test]
    fn unknown_model_path_is_rejected_at_compile() {
        let rules = parse_rules(
            "Rule:bad When SessionStart do \
             If (MD.Sales.Warehouse.name = 'x') then AddLayer('A', POINT) endIf endWhen",
        )
        .unwrap();
        let err = CompiledRuleSet::compile(&rules, &sales_schema()).unwrap_err();
        assert!(matches!(err, PrmlError::Check { .. }));
    }

    #[test]
    fn undeclared_variable_is_rejected_at_compile() {
        let rules = parse_rules("Rule:bad When SessionStart do SelectInstance(s) endWhen").unwrap();
        assert!(CompiledRuleSet::compile(&rules, &sales_schema()).is_err());
    }

    #[test]
    fn bad_set_content_target_is_rejected_at_compile() {
        let rules =
            parse_rules("Rule:bad When SessionStart do SetContent(MD.Sales.UnitSales, 1) endWhen")
                .unwrap();
        assert!(CompiledRuleSet::compile(&rules, &sales_schema()).is_err());
    }

    #[test]
    fn wrong_operator_arity_is_rejected_at_compile() {
        let rules = parse_rules(
            "Rule:bad When SessionStart do \
             If (Inside(MD.Sales.Store.name) = true) then AddLayer('A', POINT) endIf endWhen",
        )
        .unwrap();
        assert!(CompiledRuleSet::compile(&rules, &sales_schema()).is_err());
    }

    #[test]
    fn unknown_operator_is_rejected_at_compile() {
        let rules = parse_rules(
            "Rule:bad When SessionStart do \
             If (Buffer(MD.Sales.Store.name, 5) = true) then AddLayer('A', POINT) endIf endWhen",
        )
        .unwrap();
        assert!(CompiledRuleSet::compile(&rules, &sales_schema()).is_err());
    }

    #[test]
    fn shadowed_loop_variable_is_rejected_at_compile() {
        let rules = parse_rules(
            "Rule:bad When SessionStart do \
             Foreach s in (GeoMD.Store) Foreach s in (GeoMD.Store) SelectInstance(s) endForeach endForeach endWhen",
        )
        .unwrap();
        assert!(CompiledRuleSet::compile(&rules, &sales_schema()).is_err());
    }

    #[test]
    fn become_spatial_unknown_level_is_rejected_at_compile() {
        let rules = parse_rules(
            "Rule:bad When SessionStart do BecomeSpatial(MD.Sales.Warehouse.geometry, POINT) endWhen",
        )
        .unwrap();
        assert!(CompiledRuleSet::compile(&rules, &sales_schema()).is_err());
    }
}
