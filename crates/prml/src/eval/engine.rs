//! The rule engine: event matching, rule firing and effect reporting.

use crate::ast::{EventSpec, Rule, Statement};
use crate::error::PrmlError;
use crate::eval::action::execute_action;
use crate::eval::context::{EvalContext, RuleEffect};
use crate::eval::expr::{evaluate, evaluate_condition};
use crate::eval::value::Value;
use crate::parser::parse_rules;
use crate::pretty::print_expr;

/// A runtime event delivered to the engine (§4.2.1's tracking events).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeEvent {
    /// The user logged in; the analysis session starts.
    SessionStart,
    /// The analysis session ended.
    SessionEnd,
    /// The user selected instances of `element` satisfying a spatial
    /// expression. `expression` optionally carries the normalised
    /// expression text for exact matching; when absent, rules match on the
    /// element alone.
    SpatialSelection {
        /// The selected GeoMD element, as a dotted path (e.g.
        /// `GeoMD.Store.City`).
        element: String,
        /// The satisfied spatial expression, pretty-printed, when known.
        expression: Option<String>,
    },
}

impl RuntimeEvent {
    /// Convenience constructor for a spatial-selection event matched by
    /// element only.
    pub fn spatial_selection(element: impl Into<String>) -> Self {
        RuntimeEvent::SpatialSelection {
            element: element.into(),
            expression: None,
        }
    }
}

/// The outcome of delivering one event to the engine.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FireReport {
    /// Effects of every rule that fired, in firing order.
    pub effects: Vec<RuleEffect>,
    /// Number of rules whose event specification matched the event
    /// (fired rules; their conditions may still have evaluated to false).
    pub rules_matched: usize,
}

impl FireReport {
    /// The effect record of a specific rule, when it fired.
    pub fn effect_of(&self, rule: &str) -> Option<&RuleEffect> {
        self.effects.iter().find(|e| e.rule == rule)
    }

    /// Merges all selections across fired rules into
    /// `(dimension → selected member rows)` pairs, keeping per-rule sets
    /// separate (the caller applies them conjunctively).
    pub fn selection_sets(&self) -> Vec<(&str, &std::collections::BTreeSet<usize>)> {
        self.effects
            .iter()
            .flat_map(|e| {
                e.selections
                    .iter()
                    .map(move |(dim, rows)| (dim.as_str(), rows))
            })
            .collect()
    }
}

/// A PRML rule engine: an ordered set of rules plus designer parameters.
#[derive(Debug, Clone, Default)]
pub struct RuleEngine {
    rules: Vec<Rule>,
}

impl RuleEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        RuleEngine::default()
    }

    /// Adds an already-parsed rule.
    pub fn add_rule(&mut self, rule: Rule) -> &mut Self {
        self.rules.push(rule);
        self
    }

    /// Parses rule text (one or more rules) and adds the rules.
    pub fn add_rules_text(&mut self, text: &str) -> Result<&mut Self, PrmlError> {
        for rule in parse_rules(text)? {
            self.rules.push(rule);
        }
        Ok(self)
    }

    /// The registered rules, in registration order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of registered rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Returns `true` when no rules are registered.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Delivers an event: every rule whose event specification matches is
    /// executed against the context, in registration order.
    pub fn fire(
        &self,
        event: &RuntimeEvent,
        ctx: &mut EvalContext<'_>,
    ) -> Result<FireReport, PrmlError> {
        let mut report = FireReport::default();
        for rule in &self.rules {
            if !event_matches(&rule.event, event) {
                continue;
            }
            report.rules_matched += 1;
            let mut effect = RuleEffect::new(rule.name.clone());
            execute_statements(&rule.body, ctx, &mut effect)
                .map_err(|e| attach_rule(e, &rule.name))?;
            report.effects.push(effect);
        }
        Ok(report)
    }
}

/// Attaches the rule name to anonymous evaluation errors.
pub(crate) fn attach_rule(error: PrmlError, rule: &str) -> PrmlError {
    match error {
        PrmlError::Eval { rule: r, message } if r.is_empty() => PrmlError::Eval {
            rule: rule.to_string(),
            message,
        },
        other => other,
    }
}

/// Does a rule's event specification match a runtime event?
pub(crate) fn event_matches(spec: &EventSpec, event: &RuntimeEvent) -> bool {
    match (spec, event) {
        (EventSpec::SessionStart, RuntimeEvent::SessionStart) => true,
        (EventSpec::SessionEnd, RuntimeEvent::SessionEnd) => true,
        (
            EventSpec::SpatialSelection { element, condition },
            RuntimeEvent::SpatialSelection {
                element: event_element,
                expression,
            },
        ) => {
            let spec_element = print_expr(element);
            if !spec_element.eq_ignore_ascii_case(event_element) {
                return false;
            }
            match expression {
                None => true,
                Some(text) => {
                    let spec_condition = print_expr(condition);
                    normalise(&spec_condition) == normalise(text)
                }
            }
        }
        _ => false,
    }
}

pub(crate) fn normalise(text: &str) -> String {
    text.chars()
        .filter(|c| !c.is_whitespace() && *c != '(' && *c != ')')
        .collect::<String>()
        .to_lowercase()
}

fn execute_statements(
    statements: &[Statement],
    ctx: &mut EvalContext<'_>,
    effect: &mut RuleEffect,
) -> Result<(), PrmlError> {
    for statement in statements {
        match statement {
            Statement::If {
                condition,
                then_branch,
                else_branch,
            } => {
                if evaluate_condition(condition, ctx)? {
                    execute_statements(then_branch, ctx, effect)?;
                } else {
                    execute_statements(else_branch, ctx, effect)?;
                }
            }
            Statement::Foreach {
                variables,
                sources,
                body,
            } => {
                // Evaluate every source to a collection, then iterate the
                // cartesian product of the collections (Example 5.3
                // iterates trains × cities × airports).
                let mut collections: Vec<Vec<Value>> = Vec::with_capacity(sources.len());
                for source in sources {
                    let value = evaluate(source, ctx)?;
                    match value {
                        Value::Collection(items) => collections.push(items),
                        other => {
                            return Err(PrmlError::eval(
                                "",
                                format!(
                                    "Foreach source must be a collection, got a {}",
                                    other.type_name()
                                ),
                            ))
                        }
                    }
                }
                // A loop whose body selects instances of a dimension scopes
                // the personalization to that dimension even when zero
                // instances end up selected: "all the succeeding analysis
                // will have only the selected instances" (paper §5.2), so an
                // empty selection must restrict the view rather than leave
                // it untouched.
                for (variable, collection) in variables.iter().zip(&collections) {
                    if !body_selects_variable(body, variable) {
                        continue;
                    }
                    if let Some(Value::Instance(instance)) = collection.first() {
                        if let crate::eval::value::InstanceSource::Level { dimension, .. } =
                            &instance.source
                        {
                            effect.selections.entry(dimension.clone()).or_default();
                        }
                    }
                }
                iterate_product(variables, &collections, body, ctx, effect)?;
            }
            Statement::Action(action) => execute_action(action, ctx, effect)?,
        }
    }
    Ok(())
}

/// Returns `true` when a statement block (recursively) contains a
/// `SelectInstance` action whose target is the given loop variable.
pub(crate) fn body_selects_variable(statements: &[Statement], variable: &str) -> bool {
    statements.iter().any(|statement| match statement {
        Statement::Action(crate::ast::Action::SelectInstance { target }) => target
            .as_path()
            .map(|p| p.len() == 1 && p[0] == variable)
            .unwrap_or(false),
        Statement::If {
            then_branch,
            else_branch,
            ..
        } => {
            body_selects_variable(then_branch, variable)
                || body_selects_variable(else_branch, variable)
        }
        Statement::Foreach { body, .. } => body_selects_variable(body, variable),
        _ => false,
    })
}

fn iterate_product(
    variables: &[String],
    collections: &[Vec<Value>],
    body: &[Statement],
    ctx: &mut EvalContext<'_>,
    effect: &mut RuleEffect,
) -> Result<(), PrmlError> {
    fn recurse(
        depth: usize,
        variables: &[String],
        collections: &[Vec<Value>],
        body: &[Statement],
        ctx: &mut EvalContext<'_>,
        effect: &mut RuleEffect,
    ) -> Result<(), PrmlError> {
        if depth == variables.len() {
            return execute_statements(body, ctx, effect);
        }
        for item in &collections[depth] {
            ctx.push_variable(variables[depth].clone(), item.clone());
            let result = recurse(depth + 1, variables, collections, body, ctx, effect);
            ctx.pop_variable(&variables[depth]);
            result?;
        }
        Ok(())
    }
    recurse(0, variables, collections, body, ctx, effect)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::*;
    use crate::eval::context::StaticLayerSource;
    use sdwp_geometry::{LineString, Point};
    use sdwp_model::{AttributeType, DimensionBuilder, FactBuilder, Schema, SchemaBuilder};
    use sdwp_olap::{CellValue, Cube};
    use sdwp_user::{LocationContext, Role, Session, SpatialSelectionInterest, UserProfile};

    /// The Fig. 2 sales schema.
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

    /// A cube with five stores on a line, 10 km apart, in cities named
    /// after their index, plus sales rows.
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
        for s in 0..5usize {
            cube.add_fact_row(
                "Sales",
                vec![("Store", s), ("Time", 0)],
                vec![("UnitSales", CellValue::Float(1.0))],
            )
            .unwrap();
        }
        cube
    }

    fn manager_profile() -> UserProfile {
        UserProfile::new("u1", "Octavio")
            .with_role(Role::new("RegionalSalesManager"))
            .with_interest(SpatialSelectionInterest::new("AirportCity"))
    }

    fn airports() -> StaticLayerSource {
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

    #[test]
    fn example_5_1_fires_for_the_regional_sales_manager() {
        let mut cube = sales_cube();
        let mut profile = manager_profile();
        let layers = airports();
        let session = Session::start(1, "u1");
        let mut engine = RuleEngine::new();
        engine.add_rules_text(EXAMPLE_5_1_ADD_SPATIALITY).unwrap();

        let mut ctx = EvalContext::new(&mut cube, &mut profile)
            .with_session(&session)
            .with_layer_source(&layers);
        let report = engine.fire(&RuntimeEvent::SessionStart, &mut ctx).unwrap();
        assert_eq!(report.rules_matched, 1);
        let effect = report.effect_of("addSpatiality").unwrap();
        assert!(effect.changed_schema());
        assert_eq!(effect.added_layers.len(), 1);
        assert_eq!(effect.become_spatial.len(), 1);
        // Fig. 6: the Airport layer exists and Store is a spatial level.
        assert!(cube.schema().layer("Airport").is_some());
        assert!(cube.schema().find_level("Store").unwrap().1.is_spatial());
        // The layer instances were pulled from the external source.
        assert_eq!(cube.layer_table("Airport").unwrap().table.len(), 1);
    }

    #[test]
    fn example_5_1_does_not_fire_for_other_roles() {
        let mut cube = sales_cube();
        let mut profile = UserProfile::new("u2", "Ana").with_role(Role::new("Analyst"));
        let layers = airports();
        let mut engine = RuleEngine::new();
        engine.add_rules_text(EXAMPLE_5_1_ADD_SPATIALITY).unwrap();
        let mut ctx = EvalContext::new(&mut cube, &mut profile).with_layer_source(&layers);
        let report = engine.fire(&RuntimeEvent::SessionStart, &mut ctx).unwrap();
        // The rule matched the event but its condition was false.
        assert_eq!(report.rules_matched, 1);
        assert!(!report.effects[0].changed_schema());
        assert!(cube.schema().layer("Airport").is_none());
    }

    #[test]
    fn example_5_2_selects_stores_within_5km() {
        let mut cube = sales_cube();
        let mut profile = manager_profile();
        // The user sits at x = 12: stores at 10 and 20 are within... no,
        // 20 is 8 km away? |20-12| = 8 > 5; store at 10 is 2 km away.
        let session = Session::start_at(1, "u1", LocationContext::at_point("office", 12.0, 0.0));
        let mut engine = RuleEngine::new();
        engine.add_rules_text(EXAMPLE_5_2_5KM_STORES).unwrap();
        let mut ctx = EvalContext::new(&mut cube, &mut profile).with_session(&session);
        let report = engine.fire(&RuntimeEvent::SessionStart, &mut ctx).unwrap();
        let effect = report.effect_of("5kmStores").unwrap();
        let selected = effect.selections.get("Store").unwrap();
        assert_eq!(selected.iter().copied().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn example_5_3_interest_tracking_and_threshold() {
        let mut cube = sales_cube();
        let mut profile = manager_profile();
        let layers = airports();
        let session = Session::start(1, "u1");
        // The full paper rule set: the schema rule 5.1 runs first at session
        // start (adding the Airport layer the later rules reference), as in
        // the two-stage process of Fig. 1.
        let mut engine = RuleEngine::new();
        engine
            .add_rules_text(EXAMPLE_5_1_ADD_SPATIALITY)
            .unwrap()
            .add_rules_text(EXAMPLE_5_3_INT_AIRPORT_CITY)
            .unwrap()
            .add_rules_text(EXAMPLE_5_3_TRAIN_AIRPORT_CITY)
            .unwrap();

        // Deliver three spatial-selection events: the degree rises to 3.
        for _ in 0..3 {
            let mut ctx = EvalContext::new(&mut cube, &mut profile)
                .with_session(&session)
                .with_layer_source(&layers)
                .with_parameter("threshold", 2.0);
            let report = engine
                .fire(
                    &RuntimeEvent::spatial_selection("GeoMD.Store.City"),
                    &mut ctx,
                )
                .unwrap();
            assert_eq!(report.rules_matched, 1);
            assert_eq!(report.effects[0].set_contents, 1);
        }
        assert_eq!(profile.interest("AirportCity").unwrap().degree, 3.0);

        // Next session start: the degree (3) exceeds the threshold (2), so
        // the Train layer is added and the cities with a close train
        // connection to the airport are selected.
        let mut ctx = EvalContext::new(&mut cube, &mut profile)
            .with_session(&session)
            .with_layer_source(&layers)
            .with_parameter("threshold", 2.0);
        let report = engine.fire(&RuntimeEvent::SessionStart, &mut ctx).unwrap();
        let effect = report.effect_of("TrainAirportCity").unwrap();
        assert!(effect.added_layers.iter().any(|(name, _)| name == "Train"));
        let selected = effect.selections.get("Store").expect("cities selected");
        // The train line runs along y=1 from x=0 to x=50; the airport sits
        // at (0, 1). Splitting the line at each city and then at the airport
        // isolates the city→airport segment, whose length must be under
        // 50 km. Cities at x = 10, 20, 30, 40 qualify (segments of 10–40 km);
        // the city co-located with the airport degenerates to the whole
        // 50 km line and is excluded.
        assert_eq!(
            selected.iter().copied().collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
    }

    #[test]
    fn threshold_not_exceeded_means_no_selection() {
        let mut cube = sales_cube();
        let mut profile = manager_profile();
        let layers = airports();
        let mut engine = RuleEngine::new();
        engine
            .add_rules_text(EXAMPLE_5_3_TRAIN_AIRPORT_CITY)
            .unwrap();
        let mut ctx = EvalContext::new(&mut cube, &mut profile)
            .with_layer_source(&layers)
            .with_parameter("threshold", 5.0);
        let report = engine.fire(&RuntimeEvent::SessionStart, &mut ctx).unwrap();
        let effect = &report.effects[0];
        assert!(!effect.selected_instances());
        assert!(cube.schema().layer("Train").is_none());
    }

    #[test]
    fn spatial_selection_event_matching() {
        let mut engine = RuleEngine::new();
        engine.add_rules_text(EXAMPLE_5_3_INT_AIRPORT_CITY).unwrap();
        let mut cube = sales_cube();
        let mut profile = manager_profile();

        // Wrong element: no rule matches.
        let mut ctx = EvalContext::new(&mut cube, &mut profile);
        let report = engine
            .fire(&RuntimeEvent::spatial_selection("GeoMD.Customer"), &mut ctx)
            .unwrap();
        assert_eq!(report.rules_matched, 0);

        // Matching element with an explicit matching expression.
        let mut ctx = EvalContext::new(&mut cube, &mut profile);
        let event = RuntimeEvent::SpatialSelection {
            element: "GeoMD.Store.City".into(),
            expression: Some(
                "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry) < 20".into(),
            ),
        };
        // The schema has no Airport layer yet, so evaluating the rule body
        // only touches the SUS path, which works fine.
        let report = engine.fire(&event, &mut ctx).unwrap();
        assert_eq!(report.rules_matched, 1);

        // Matching element with a non-matching expression.
        let mut ctx = EvalContext::new(&mut cube, &mut profile);
        let event = RuntimeEvent::SpatialSelection {
            element: "GeoMD.Store.City".into(),
            expression: Some("Inside(GeoMD.Store.City.geometry, GeoMD.Airport.geometry)".into()),
        };
        let report = engine.fire(&event, &mut ctx).unwrap();
        assert_eq!(report.rules_matched, 0);
    }

    #[test]
    fn session_end_rules() {
        let mut engine = RuleEngine::new();
        engine
            .add_rules_text(
                "Rule:bye When SessionEnd do SetContent(SUS.DecisionMaker.lastSeen, 'today') endWhen",
            )
            .unwrap();
        assert_eq!(engine.len(), 1);
        assert!(!engine.is_empty());
        let mut cube = sales_cube();
        let mut profile = manager_profile();
        let mut ctx = EvalContext::new(&mut cube, &mut profile);
        let report = engine.fire(&RuntimeEvent::SessionEnd, &mut ctx).unwrap();
        assert_eq!(report.rules_matched, 1);
        assert_eq!(report.effects[0].set_contents, 1);
        assert_eq!(
            profile.custom.get("lastSeen"),
            Some(&sdwp_user::Value::Text("today".into()))
        );
        // SessionStart does not trigger the SessionEnd rule.
        let mut ctx = EvalContext::new(&mut cube, &mut profile);
        let report = engine.fire(&RuntimeEvent::SessionStart, &mut ctx).unwrap();
        assert_eq!(report.rules_matched, 0);
    }

    #[test]
    fn selection_sets_helper() {
        let mut report = FireReport::default();
        let mut effect = RuleEffect::new("r");
        effect
            .selections
            .entry("Store".into())
            .or_default()
            .insert(1);
        report.effects.push(effect);
        let sets = report.selection_sets();
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].0, "Store");
        assert!(report.effect_of("r").is_some());
        assert!(report.effect_of("other").is_none());
    }

    #[test]
    fn division_by_zero_and_bad_conditions_error() {
        let mut engine = RuleEngine::new();
        engine
            .add_rules_text(
                "Rule:bad When SessionStart do If (1 / 0 > 1) then AddLayer('x', POINT) endIf endWhen",
            )
            .unwrap();
        let mut cube = sales_cube();
        let mut profile = manager_profile();
        let mut ctx = EvalContext::new(&mut cube, &mut profile);
        let err = engine
            .fire(&RuntimeEvent::SessionStart, &mut ctx)
            .unwrap_err();
        assert!(err.to_string().contains("division by zero"));

        let mut engine2 = RuleEngine::new();
        engine2
            .add_rules_text(
                "Rule:bad2 When SessionStart do If (5 + 5) then AddLayer('x', POINT) endIf endWhen",
            )
            .unwrap();
        let mut ctx = EvalContext::new(&mut cube, &mut profile);
        assert!(engine2.fire(&RuntimeEvent::SessionStart, &mut ctx).is_err());
    }

    #[test]
    fn unknown_parameter_is_an_error() {
        let mut engine = RuleEngine::new();
        engine
            .add_rules_text(EXAMPLE_5_3_TRAIN_AIRPORT_CITY)
            .unwrap();
        let mut cube = sales_cube();
        let mut profile = manager_profile();
        // No 'threshold' parameter is defined in the context.
        let mut ctx = EvalContext::new(&mut cube, &mut profile);
        let err = engine
            .fire(&RuntimeEvent::SessionStart, &mut ctx)
            .unwrap_err();
        assert!(err.to_string().contains("threshold"));
    }
}
