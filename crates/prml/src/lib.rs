//! PRML (Personalization Rules Modeling Language) adapted to spatial data
//! warehouses.
//!
//! PRML is the rule-based language the paper borrows from Web Engineering
//! and extends with spatial constructs (§4.2). Rules are
//! Event-Condition-Action triples written in the concrete syntax of the
//! paper's examples:
//!
//! ```text
//! Rule:addSpatiality When SessionStart do
//!   If (SUS.DecisionMaker.dm2role.name = 'RegionalSalesManager') then
//!     AddLayer('Airport', POINT)
//!     BecomeSpatial(MD.Sales.Store.geometry, POINT)
//!   endIf
//! endWhen
//! ```
//!
//! The crate provides:
//!
//! * a lexer and recursive-descent parser producing a typed AST
//!   ([`parser::parse_rules`], [`ast`]);
//! * a pretty-printer that round-trips the AST back to rule text
//!   ([`pretty`]);
//! * the PRML-for-SDW metamodel of the paper's Fig. 5 ([`metamodel`]);
//! * a static checker validating rules against an MD/GeoMD schema
//!   ([`typecheck`]);
//! * an evaluator that executes rules against a cube, a user profile and a
//!   session, producing schema changes, instance selections and user-model
//!   updates ([`eval`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ast;
pub mod compile;
pub mod corpus;
pub mod error;
pub mod eval;
pub mod lexer;
pub mod metamodel;
pub mod parser;
pub mod pretty;
pub mod typecheck;

pub use ast::{Action, BinaryOp, EventSpec, Expr, Rule, Statement, UnaryOp};
pub use compile::{CompiledRule, CompiledRuleSet, MatchSpec};
pub use error::PrmlError;
pub use eval::context::{
    EvalContext, LayerSource, NoExternalLayers, RuleEffect, StaticLayerSource,
};
pub use eval::engine::{FireReport, RuleEngine, RuntimeEvent};
pub use eval::expr::{distance_calls, intersection_calls};
pub use eval::value::{InstanceRef, InstanceSource, Value};
pub use metamodel::{classify_rule, MetaClass};
pub use parser::{parse_rule, parse_rules};
pub use pretty::print_rule;
pub use typecheck::{augmented_schema, check_rule, check_rules, classify, RuleClass};
