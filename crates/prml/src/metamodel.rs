//! The PRML-for-SDW metamodel (Fig. 5 of the paper).
//!
//! The paper defines PRML through a MOF metamodel and extends it for SDW
//! systems with spatial operators, spatial events and schema-changing
//! actions. This module names those metaclasses and classifies parsed AST
//! nodes against them, so tests (and EXPERIMENTS.md) can demonstrate that
//! every metamodel element of Fig. 5 is constructible and reachable from
//! the concrete syntax.

use crate::ast::{Action, EventSpec, Expr, Rule, Statement};
use std::collections::BTreeSet;

/// The metaclasses of the adapted PRML metamodel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MetaClass {
    /// The `Rule` metaclass — root of every personalization rule.
    Rule,
    /// The start-session event.
    SessionStartEvent,
    /// The end-session event.
    SessionEndEvent,
    /// The spatial-selection tracking event (new in the SDW adaptation).
    SpatialSelectionEvent,
    /// The condition part of a rule (boolean expression).
    Condition,
    /// Path expressions navigating the SUS / MD / GeoMD models.
    PathExpression,
    /// Boolean expressions (comparisons, and/or/not).
    BooleanExpression,
    /// Arithmetic expressions.
    ArithmeticExpression,
    /// The topological operators returning booleans
    /// (Intersect, Disjoint, Cross, Inside, Equals).
    TopologicalOperator,
    /// The `Distance` operator returning a number.
    DistanceOperator,
    /// The `Intersection` operator returning a geometry collection.
    IntersectionOperator,
    /// The `SetContent` acquisition action.
    SetContentAction,
    /// The `SelectInstance` instance-personalization action.
    SelectInstanceAction,
    /// The `BecomeSpatial` schema-personalization action (new).
    BecomeSpatialAction,
    /// The `AddLayer` schema-personalization action (new).
    AddLayerAction,
    /// The `Foreach` iteration construct.
    ForeachStatement,
    /// The `If` conditional construct.
    IfStatement,
}

impl MetaClass {
    /// Every metaclass of the adapted metamodel.
    pub const ALL: [MetaClass; 17] = [
        MetaClass::Rule,
        MetaClass::SessionStartEvent,
        MetaClass::SessionEndEvent,
        MetaClass::SpatialSelectionEvent,
        MetaClass::Condition,
        MetaClass::PathExpression,
        MetaClass::BooleanExpression,
        MetaClass::ArithmeticExpression,
        MetaClass::TopologicalOperator,
        MetaClass::DistanceOperator,
        MetaClass::IntersectionOperator,
        MetaClass::SetContentAction,
        MetaClass::SelectInstanceAction,
        MetaClass::BecomeSpatialAction,
        MetaClass::AddLayerAction,
        MetaClass::ForeachStatement,
        MetaClass::IfStatement,
    ];
}

/// The names of the topological operators of §4.2.3.
pub const TOPOLOGICAL_OPERATORS: [&str; 7] = [
    "Intersect",
    "Disjoint",
    "Cross",
    "Inside",
    "Equals",
    "Contains",
    "Touches",
];

/// Returns the set of metaclasses instantiated by a rule.
pub fn classify_rule(rule: &Rule) -> BTreeSet<MetaClass> {
    let mut set = BTreeSet::new();
    set.insert(MetaClass::Rule);
    match &rule.event {
        EventSpec::SessionStart => {
            set.insert(MetaClass::SessionStartEvent);
        }
        EventSpec::SessionEnd => {
            set.insert(MetaClass::SessionEndEvent);
        }
        EventSpec::SpatialSelection { element, condition } => {
            set.insert(MetaClass::SpatialSelectionEvent);
            classify_expr(element, &mut set);
            classify_expr(condition, &mut set);
        }
    }
    classify_statements(&rule.body, &mut set);
    set
}

fn classify_statements(statements: &[Statement], set: &mut BTreeSet<MetaClass>) {
    for statement in statements {
        match statement {
            Statement::If {
                condition,
                then_branch,
                else_branch,
            } => {
                set.insert(MetaClass::IfStatement);
                set.insert(MetaClass::Condition);
                classify_expr(condition, set);
                classify_statements(then_branch, set);
                classify_statements(else_branch, set);
            }
            Statement::Foreach { sources, body, .. } => {
                set.insert(MetaClass::ForeachStatement);
                for s in sources {
                    classify_expr(s, set);
                }
                classify_statements(body, set);
            }
            Statement::Action(action) => {
                match action {
                    Action::SetContent { target, value } => {
                        set.insert(MetaClass::SetContentAction);
                        classify_expr(target, set);
                        classify_expr(value, set);
                    }
                    Action::SelectInstance { target } => {
                        set.insert(MetaClass::SelectInstanceAction);
                        classify_expr(target, set);
                    }
                    Action::BecomeSpatial { element, .. } => {
                        set.insert(MetaClass::BecomeSpatialAction);
                        classify_expr(element, set);
                    }
                    Action::AddLayer { .. } => {
                        set.insert(MetaClass::AddLayerAction);
                    }
                };
            }
        }
    }
}

fn classify_expr(expr: &Expr, set: &mut BTreeSet<MetaClass>) {
    match expr {
        Expr::Path(_) => {
            set.insert(MetaClass::PathExpression);
        }
        Expr::Binary { op, left, right } => {
            if op.is_comparison()
                || matches!(op, crate::ast::BinaryOp::And | crate::ast::BinaryOp::Or)
            {
                set.insert(MetaClass::BooleanExpression);
            } else {
                set.insert(MetaClass::ArithmeticExpression);
            }
            classify_expr(left, set);
            classify_expr(right, set);
        }
        Expr::Unary { operand, .. } => {
            set.insert(MetaClass::BooleanExpression);
            classify_expr(operand, set);
        }
        Expr::Call { function, args } => {
            if function.eq_ignore_ascii_case("Distance") {
                set.insert(MetaClass::DistanceOperator);
            } else if function.eq_ignore_ascii_case("Intersection") {
                set.insert(MetaClass::IntersectionOperator);
            } else if TOPOLOGICAL_OPERATORS
                .iter()
                .any(|op| function.eq_ignore_ascii_case(op))
            {
                set.insert(MetaClass::TopologicalOperator);
            }
            for a in args {
                classify_expr(a, set);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::*;
    use crate::parser::{parse_rule, parse_rules};

    #[test]
    fn example_5_1_instantiates_schema_action_metaclasses() {
        let rule = parse_rule(EXAMPLE_5_1_ADD_SPATIALITY).unwrap();
        let classes = classify_rule(&rule);
        for expected in [
            MetaClass::Rule,
            MetaClass::SessionStartEvent,
            MetaClass::IfStatement,
            MetaClass::Condition,
            MetaClass::PathExpression,
            MetaClass::BooleanExpression,
            MetaClass::AddLayerAction,
            MetaClass::BecomeSpatialAction,
        ] {
            assert!(classes.contains(&expected), "missing {expected:?}");
        }
    }

    #[test]
    fn example_5_3_instantiates_spatial_metaclasses() {
        let rule_a = parse_rule(EXAMPLE_5_3_INT_AIRPORT_CITY).unwrap();
        let classes_a = classify_rule(&rule_a);
        assert!(classes_a.contains(&MetaClass::SpatialSelectionEvent));
        assert!(classes_a.contains(&MetaClass::DistanceOperator));
        assert!(classes_a.contains(&MetaClass::SetContentAction));
        assert!(classes_a.contains(&MetaClass::ArithmeticExpression));

        let rule_b = parse_rule(EXAMPLE_5_3_TRAIN_AIRPORT_CITY).unwrap();
        let classes_b = classify_rule(&rule_b);
        assert!(classes_b.contains(&MetaClass::IntersectionOperator));
        assert!(classes_b.contains(&MetaClass::ForeachStatement));
        assert!(classes_b.contains(&MetaClass::SelectInstanceAction));
    }

    #[test]
    fn paper_corpus_covers_most_of_the_metamodel() {
        // Figure 5 coverage: the four published rules instantiate every
        // metaclass except SessionEnd and the pure topological operators
        // (which the paper lists but does not use in an example).
        let mut covered = BTreeSet::new();
        for text in ALL_PAPER_RULES {
            covered.extend(classify_rule(&parse_rule(text).unwrap()));
        }
        let missing: Vec<MetaClass> = MetaClass::ALL
            .iter()
            .copied()
            .filter(|c| !covered.contains(c))
            .collect();
        assert_eq!(
            missing,
            vec![MetaClass::SessionEndEvent, MetaClass::TopologicalOperator]
        );
        // Both are exercised by an additional rule.
        let extra = parse_rules(
            "Rule:cleanup When SessionEnd do \
             If (Inside(GeoMD.Store.geometry, GeoMD.Airport.geometry)) then \
             SelectInstance(GeoMD.Store) endIf endWhen",
        )
        .unwrap();
        covered.extend(classify_rule(&extra[0]));
        assert_eq!(
            MetaClass::ALL
                .iter()
                .filter(|c| !covered.contains(c))
                .count(),
            0
        );
    }
}
