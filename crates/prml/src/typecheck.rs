//! Static validation of rules against an MD/GeoMD schema.

use crate::ast::{Action, EventSpec, Expr, Rule, Statement};
use crate::error::PrmlError;
use crate::metamodel::TOPOLOGICAL_OPERATORS;
use sdwp_model::{PathExpr, PathPrefix, PathResolver, Schema};
use std::collections::HashSet;

/// The personalization stage a rule belongs to (Fig. 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleClass {
    /// The rule changes the schema (contains `AddLayer` / `BecomeSpatial`);
    /// it runs in the first stage, turning the MD model into a GeoMD model.
    Schema,
    /// The rule selects instances (contains `SelectInstance`); it runs in
    /// the second stage, producing the personalized SDW instance.
    Instance,
    /// The rule only acquires knowledge about the user (`SetContent`).
    Acquisition,
    /// The rule contains no actions at all.
    Inert,
}

/// Classifies a rule by the actions it contains. A rule containing both
/// schema and instance actions (like Example 5.3's TrainAirportCity) is
/// classified as a schema rule because its schema effects must be applied
/// before its selections make sense.
pub fn classify(rule: &Rule) -> RuleClass {
    let actions = rule.actions();
    if actions.is_empty() {
        return RuleClass::Inert;
    }
    let has_schema = actions
        .iter()
        .any(|a| matches!(a, Action::AddLayer { .. } | Action::BecomeSpatial { .. }));
    let has_instance = actions
        .iter()
        .any(|a| matches!(a, Action::SelectInstance { .. }));
    if has_schema {
        RuleClass::Schema
    } else if has_instance {
        RuleClass::Instance
    } else {
        RuleClass::Acquisition
    }
}

/// Validates a rule against a schema. Checks:
///
/// * every `MD.` / `GeoMD.` path resolves against the schema, *after*
///   taking into account the layers and spatial levels the rule itself
///   introduces (`AddLayer` / `BecomeSpatial`);
/// * loop variables are declared before use and not shadowed;
/// * spatial operators are called with the right number of arguments;
/// * `SetContent` targets a `SUS.` path (user-model property);
/// * geometric types in actions are well-formed (guaranteed by parsing).
///
/// Returns the rule's [`RuleClass`] on success.
pub fn check_rule(rule: &Rule, schema: &Schema) -> Result<RuleClass, PrmlError> {
    // Apply the rule's own schema actions to a scratch copy of the schema so
    // that later references (e.g. `GeoMD.Train` right after
    // `AddLayer('Train', LINE)`) resolve.
    let mut effective = schema.clone();
    for action in rule.actions() {
        match action {
            Action::AddLayer { name, geometry } => {
                let _ = effective.add_layer(name.clone(), *geometry);
            }
            Action::BecomeSpatial { element, geometry } => {
                if let Some(level) = become_spatial_level(element) {
                    let _ = effective.become_spatial(&level, *geometry);
                }
            }
            _ => {}
        }
    }

    let mut checker = Checker {
        rule: rule.name.clone(),
        schema: &effective,
        variables: HashSet::new(),
    };
    match &rule.event {
        EventSpec::SpatialSelection { element, condition } => {
            checker.check_expr(element)?;
            checker.check_expr(condition)?;
        }
        EventSpec::SessionStart | EventSpec::SessionEnd => {}
    }
    checker.check_statements(&rule.body)?;
    Ok(classify(rule))
}

/// Extracts the level name targeted by a `BecomeSpatial` path: the last
/// segment before a trailing `geometry`, e.g.
/// `MD.Sales.Store.geometry` → `Store`.
pub fn become_spatial_level(element: &Expr) -> Option<String> {
    let segments = element.as_path()?;
    let mut segs: Vec<&String> = segments.iter().collect();
    if segs
        .last()
        .map(|s| s.eq_ignore_ascii_case("geometry"))
        .unwrap_or(false)
    {
        segs.pop();
    }
    segs.last().map(|s| s.to_string())
}

struct Checker<'a> {
    rule: String,
    schema: &'a Schema,
    variables: HashSet<String>,
}

impl Checker<'_> {
    fn error(&self, message: impl Into<String>) -> PrmlError {
        PrmlError::Check {
            rule: self.rule.clone(),
            message: message.into(),
        }
    }

    fn check_statements(&mut self, statements: &[Statement]) -> Result<(), PrmlError> {
        for statement in statements {
            match statement {
                Statement::If {
                    condition,
                    then_branch,
                    else_branch,
                } => {
                    self.check_expr(condition)?;
                    self.check_statements(then_branch)?;
                    self.check_statements(else_branch)?;
                }
                Statement::Foreach {
                    variables,
                    sources,
                    body,
                } => {
                    for source in sources {
                        self.check_expr(source)?;
                        if let Some(path) = source.as_path() {
                            if !is_model_path(path) {
                                return Err(self.error(format!(
                                    "Foreach source '{}' must be an MD or GeoMD path",
                                    path.join(".")
                                )));
                            }
                        }
                    }
                    let mut introduced = Vec::new();
                    for v in variables {
                        if !self.variables.insert(v.clone()) {
                            return Err(self
                                .error(format!("loop variable '{v}' shadows an outer variable")));
                        }
                        introduced.push(v.clone());
                    }
                    self.check_statements(body)?;
                    for v in introduced {
                        self.variables.remove(&v);
                    }
                }
                Statement::Action(action) => self.check_action(action)?,
            }
        }
        Ok(())
    }

    fn check_action(&mut self, action: &Action) -> Result<(), PrmlError> {
        match action {
            Action::SetContent { target, value } => {
                let Some(path) = target.as_path() else {
                    return Err(self.error("SetContent target must be a path expression"));
                };
                if !path
                    .first()
                    .map(|p| p.eq_ignore_ascii_case("SUS"))
                    .unwrap_or(false)
                {
                    return Err(self.error(format!(
                        "SetContent target '{}' must be a SUS (user model) path",
                        path.join(".")
                    )));
                }
                self.check_expr(value)
            }
            Action::SelectInstance { target } => {
                // The target is either a loop variable or a model path.
                match target.as_path() {
                    Some(path) if path.len() == 1 => {
                        let var = &path[0];
                        if !self.variables.contains(var) {
                            return Err(self.error(format!(
                                "SelectInstance target '{var}' is not a declared loop variable"
                            )));
                        }
                        Ok(())
                    }
                    Some(path) if is_model_path(path) => self.check_model_path(path),
                    Some(path) => Err(self.error(format!(
                        "SelectInstance target '{}' is neither a loop variable nor a model path",
                        path.join(".")
                    ))),
                    None => Err(self.error("SelectInstance target must be a path or variable")),
                }
            }
            Action::BecomeSpatial { element, .. } => {
                let Some(path) = element.as_path() else {
                    return Err(self.error("BecomeSpatial element must be a path expression"));
                };
                let level = become_spatial_level(element)
                    .ok_or_else(|| self.error("BecomeSpatial element path is empty"))?;
                if self.schema.find_level(&level).is_none()
                    && self.schema.dimension(&level).is_none()
                {
                    return Err(self.error(format!(
                        "BecomeSpatial targets unknown level '{level}' (path '{}')",
                        path.join(".")
                    )));
                }
                Ok(())
            }
            Action::AddLayer { name, .. } => {
                if name.trim().is_empty() {
                    return Err(self.error("AddLayer needs a non-empty layer name"));
                }
                Ok(())
            }
        }
    }

    fn check_expr(&self, expr: &Expr) -> Result<(), PrmlError> {
        match expr {
            Expr::Path(path) => {
                if path.len() == 1 {
                    // A bare identifier: loop variable or designer parameter.
                    return Ok(());
                }
                let head = &path[0];
                if head.eq_ignore_ascii_case("SUS") {
                    // SUS paths are resolved at runtime against the profile;
                    // only structural sanity is checked here.
                    if path.len() < 2 {
                        return Err(self.error("SUS path needs at least a user segment"));
                    }
                    return Ok(());
                }
                if is_model_path(path) {
                    return self.check_model_path(path);
                }
                // Variable property access (s.geometry, c.name).
                if self.variables.contains(head) {
                    return Ok(());
                }
                Err(self.error(format!(
                    "'{}' is neither a model path (MD/GeoMD/SUS) nor a declared variable",
                    path.join(".")
                )))
            }
            Expr::Binary { left, right, .. } => {
                self.check_expr(left)?;
                self.check_expr(right)
            }
            Expr::Unary { operand, .. } => self.check_expr(operand),
            Expr::Call { function, args } => {
                let arity_ok = if function.eq_ignore_ascii_case("Distance") {
                    (1..=2).contains(&args.len())
                } else if function.eq_ignore_ascii_case("Intersection")
                    || TOPOLOGICAL_OPERATORS
                        .iter()
                        .any(|op| function.eq_ignore_ascii_case(op))
                {
                    args.len() == 2
                } else if ["Length", "Area", "Centroid"]
                    .iter()
                    .any(|f| function.eq_ignore_ascii_case(f))
                {
                    args.len() == 1
                } else {
                    return Err(self.error(format!("unknown operator '{function}'")));
                };
                if !arity_ok {
                    return Err(self.error(format!(
                        "operator '{function}' called with {} arguments",
                        args.len()
                    )));
                }
                for a in args {
                    self.check_expr(a)?;
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    fn check_model_path(&self, path: &[String]) -> Result<(), PrmlError> {
        let prefix = PathPrefix::parse(&path[0]).unwrap_or(PathPrefix::Md);
        let expr = PathExpr::new(prefix, path[1..].to_vec());
        match PathResolver::new(self.schema).resolve(&expr) {
            Ok(_) => Ok(()),
            // Referencing the geometry of a level that is not (yet) spatial
            // is accepted statically: the warehouse already stores the
            // geometry data and a schema rule may introduce the spatiality
            // before this rule runs (Fig. 1's two-stage process).
            Err(sdwp_model::ModelError::NotSpatial { .. }) => Ok(()),
            Err(e) => Err(self.error(e.to_string())),
        }
    }
}

/// Validates a rule set as a whole, following the paper's two-stage process
/// (Fig. 1): the schema effects of *every* rule (AddLayer / BecomeSpatial)
/// are applied to a scratch schema first, then each rule is checked against
/// that effective GeoMD schema. This lets instance and acquisition rules
/// reference layers that earlier schema rules introduce.
///
/// Returns the classification of each rule, in input order.
pub fn check_rules(rules: &[Rule], schema: &Schema) -> Result<Vec<RuleClass>, PrmlError> {
    let effective = augmented_schema(rules, schema);
    rules
        .iter()
        .map(|rule| check_rule(rule, &effective))
        .collect()
}

/// Applies the schema effects (`AddLayer` / `BecomeSpatial`) of every rule
/// to a copy of the schema — the effective GeoMD schema the two-stage
/// process of Fig. 1 produces. [`check_rules`] validates against it, and
/// the rule compiler resolves paths against the same schema so both agree
/// on what a fully personalized warehouse looks like.
pub fn augmented_schema(rules: &[Rule], schema: &Schema) -> Schema {
    let mut effective = schema.clone();
    for rule in rules {
        for action in rule.actions() {
            match action {
                Action::AddLayer { name, geometry } => {
                    let _ = effective.add_layer(name.clone(), *geometry);
                }
                Action::BecomeSpatial { element, geometry } => {
                    if let Some(level) = become_spatial_level(element) {
                        let _ = effective.become_spatial(&level, *geometry);
                    }
                }
                _ => {}
            }
        }
    }
    effective
}

fn is_model_path(path: &[String]) -> bool {
    path.first()
        .map(|p| p.eq_ignore_ascii_case("MD") || p.eq_ignore_ascii_case("GeoMD"))
        .unwrap_or(false)
        && path.len() > 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::*;
    use crate::parser::parse_rule;
    use sdwp_model::{AttributeType, DimensionBuilder, FactBuilder, SchemaBuilder};

    /// The Fig. 2 sales schema (no spatiality yet).
    fn md_schema() -> Schema {
        SchemaBuilder::new("SalesDW")
            .dimension(
                DimensionBuilder::new("Store")
                    .simple_level("Store", "name")
                    .simple_level("City", "name")
                    .simple_level("State", "name")
                    .build(),
            )
            .dimension(
                DimensionBuilder::new("Customer")
                    .simple_level("Customer", "name")
                    .build(),
            )
            .dimension(
                DimensionBuilder::new("Product")
                    .simple_level("Product", "name")
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
                    .measure("StoreCost", AttributeType::Float)
                    .measure("StoreSales", AttributeType::Float)
                    .dimension("Store")
                    .dimension("Customer")
                    .dimension("Product")
                    .dimension("Time")
                    .build(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn paper_rules_validate_against_the_sales_schema() {
        let schema = md_schema();
        let rules: Vec<Rule> = ALL_PAPER_RULES
            .iter()
            .map(|t| parse_rule(t).unwrap())
            .collect();
        // Checked as a set: the Airport layer added by rule 5.1 is visible
        // to the later rules, mirroring the two-stage process of Fig. 1.
        check_rules(&rules, &schema).unwrap();
    }

    #[test]
    fn classification_matches_the_papers_stages() {
        let schema = md_schema();
        let rules: Vec<Rule> = ALL_PAPER_RULES
            .iter()
            .map(|t| parse_rule(t).unwrap())
            .collect();
        let classes = check_rules(&rules, &schema).unwrap();
        assert_eq!(
            classes,
            vec![
                RuleClass::Schema,      // 5.1 addSpatiality
                RuleClass::Instance,    // 5.2 5kmStores
                RuleClass::Acquisition, // 5.3 IntAirportCity
                RuleClass::Schema,      // 5.3 TrainAirportCity (adds the Train layer)
            ]
        );
    }

    #[test]
    fn inert_rule_classification() {
        let rule = parse_rule("Rule:noop When SessionEnd do endWhen").unwrap();
        assert_eq!(classify(&rule), RuleClass::Inert);
    }

    #[test]
    fn unknown_model_path_is_rejected() {
        let schema = md_schema();
        let rule = parse_rule(
            "Rule:bad When SessionStart do \
             If (MD.Sales.Warehouse.name = 'x') then AddLayer('A', POINT) endIf endWhen",
        )
        .unwrap();
        let err = check_rule(&rule, &schema).unwrap_err();
        assert!(matches!(err, PrmlError::Check { .. }));
    }

    #[test]
    fn undeclared_variable_is_rejected() {
        let schema = md_schema();
        let rule = parse_rule("Rule:bad When SessionStart do SelectInstance(s) endWhen").unwrap();
        assert!(check_rule(&rule, &schema).is_err());
        // Variable property access outside a loop is also rejected.
        let rule2 = parse_rule(
            "Rule:bad2 When SessionStart do \
             If (Distance(s.geometry, MD.Sales.Store.name) < 5) then AddLayer('A', POINT) endIf endWhen",
        )
        .unwrap();
        assert!(check_rule(&rule2, &schema).is_err());
    }

    #[test]
    fn set_content_must_target_the_user_model() {
        let schema = md_schema();
        let rule =
            parse_rule("Rule:bad When SessionStart do SetContent(MD.Sales.UnitSales, 1) endWhen")
                .unwrap();
        assert!(check_rule(&rule, &schema).is_err());
        let ok = parse_rule(
            "Rule:ok When SessionStart do SetContent(SUS.DecisionMaker.theme, 'dark') endWhen",
        )
        .unwrap();
        assert_eq!(check_rule(&ok, &schema).unwrap(), RuleClass::Acquisition);
    }

    #[test]
    fn operator_arity_is_checked() {
        let schema = md_schema();
        let bad = parse_rule(
            "Rule:bad When SessionStart do \
             If (Inside(MD.Sales.Store.name) = true) then AddLayer('A', POINT) endIf endWhen",
        )
        .unwrap();
        assert!(check_rule(&bad, &schema).is_err());
        let unknown = parse_rule(
            "Rule:bad2 When SessionStart do \
             If (Buffer(MD.Sales.Store.name, 5) = true) then AddLayer('A', POINT) endIf endWhen",
        )
        .unwrap();
        assert!(check_rule(&unknown, &schema).is_err());
    }

    #[test]
    fn become_spatial_unknown_level_is_rejected() {
        let schema = md_schema();
        let rule = parse_rule(
            "Rule:bad When SessionStart do BecomeSpatial(MD.Sales.Warehouse.geometry, POINT) endWhen",
        )
        .unwrap();
        assert!(check_rule(&rule, &schema).is_err());
    }

    #[test]
    fn shadowed_loop_variable_is_rejected() {
        let schema = md_schema();
        let rule = parse_rule(
            "Rule:bad When SessionStart do \
             Foreach s in (GeoMD.Store) Foreach s in (GeoMD.Store) SelectInstance(s) endForeach endForeach endWhen",
        )
        .unwrap();
        assert!(check_rule(&rule, &schema).is_err());
    }

    #[test]
    fn become_spatial_level_extraction() {
        assert_eq!(
            become_spatial_level(&Expr::path("MD.Sales.Store.geometry")),
            Some("Store".to_string())
        );
        assert_eq!(
            become_spatial_level(&Expr::path("GeoMD.Store.City")),
            Some("City".to_string())
        );
        assert_eq!(become_spatial_level(&Expr::Number(1.0)), None);
    }
}
