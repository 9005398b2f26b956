//! Abstract syntax tree for PRML-for-SDW rules.

use sdwp_geometry::GeometricType;

/// A complete personalization rule: `Rule:<name> When <event> do <body>
/// endWhen`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Rule name.
    pub name: String,
    /// The triggering event.
    pub event: EventSpec,
    /// The body statements executed when the event fires (and conditions
    /// hold).
    pub body: Vec<Statement>,
}

/// The event part of a rule (the paper's tracking events, §4.2.1).
#[derive(Debug, Clone, PartialEq)]
pub enum EventSpec {
    /// Triggered when the user logs in and the analysis session starts.
    SessionStart,
    /// Triggered when the analysis session ends.
    SessionEnd,
    /// Triggered when the user selects instances of `element` satisfying
    /// the spatial expression `condition`.
    SpatialSelection {
        /// The GeoMD element being selected (a path expression).
        element: Expr,
        /// The spatial expression that must be satisfied.
        condition: Expr,
    },
}

/// A statement in a rule body.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `If (<condition>) then <then> [else <else>] endIf`
    If {
        /// The condition expression.
        condition: Expr,
        /// Statements executed when the condition holds.
        then_branch: Vec<Statement>,
        /// Statements executed otherwise.
        else_branch: Vec<Statement>,
    },
    /// `Foreach v1, v2 in (source1, source2) <body> endForeach`
    ///
    /// The sources are iterated as a cartesian product, matching the
    /// paper's Example 5.3 which iterates trains × cities × airports.
    Foreach {
        /// The loop variable names.
        variables: Vec<String>,
        /// The iterable sources (one per variable).
        sources: Vec<Expr>,
        /// The loop body.
        body: Vec<Statement>,
    },
    /// A personalization action.
    Action(Action),
}

/// The personalization actions of §4.2.4.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// `SetContent(property, value)` — update the user model (or another
    /// model property).
    SetContent {
        /// The property to update (a path expression).
        target: Expr,
        /// The new value.
        value: Expr,
    },
    /// `SelectInstance(i)` — keep instance `i` in the personalized view.
    SelectInstance {
        /// The instance to select (a loop variable or path).
        target: Expr,
    },
    /// `BecomeSpatial(element, geometricType)` — attach a geometric
    /// description to an MD element.
    BecomeSpatial {
        /// The element to make spatial (a path expression).
        element: Expr,
        /// The geometric type to attach.
        geometry: GeometricType,
    },
    /// `AddLayer('name', geometricType)` — add an external thematic layer.
    AddLayer {
        /// The layer name.
        name: String,
        /// The layer's geometric type.
        geometry: GeometricType,
    },
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
    /// Logical conjunction.
    And,
    /// Logical disjunction.
    Or,
}

impl BinaryOp {
    /// The concrete-syntax spelling of the operator.
    pub fn symbol(&self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Eq => "=",
            BinaryOp::Ne => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::And => "and",
            BinaryOp::Or => "or",
        }
    }

    /// Returns `true` for comparison operators (which produce booleans).
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinaryOp::Eq | BinaryOp::Ne | BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Numeric negation.
    Neg,
    /// Logical negation.
    Not,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A numeric literal (unit suffixes already normalised to km).
    Number(f64),
    /// A single-quoted string literal.
    Text(String),
    /// A boolean literal.
    Boolean(bool),
    /// A geometric-type literal (POINT, LINE, POLYGON, COLLECTION).
    GeometricType(GeometricType),
    /// A dotted path: either a model path (`SUS.…`, `MD.…`, `GeoMD.…`), a
    /// loop-variable access (`s.geometry`) or a bare identifier (a
    /// designer-defined parameter such as `threshold`).
    Path(Vec<String>),
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// A unary operation.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand.
        operand: Box<Expr>,
    },
    /// A function call (Distance, Intersection, Intersect, Inside, …).
    Call {
        /// Function name as written.
        function: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// Convenience constructor for a path from dotted text.
    pub fn path(text: &str) -> Expr {
        Expr::Path(text.split('.').map(|s| s.trim().to_string()).collect())
    }

    /// The path segments when this expression is a path.
    pub fn as_path(&self) -> Option<&[String]> {
        match self {
            Expr::Path(segments) => Some(segments),
            _ => None,
        }
    }

    /// Returns `true` when the expression is a model path with the given
    /// prefix (case-insensitive).
    pub fn has_prefix(&self, prefix: &str) -> bool {
        self.as_path()
            .and_then(|s| s.first())
            .map(|head| head.eq_ignore_ascii_case(prefix))
            .unwrap_or(false)
    }

    /// Collects every path expression in this expression tree.
    pub fn collect_paths<'a>(&'a self, out: &mut Vec<&'a [String]>) {
        match self {
            Expr::Path(segments) => out.push(segments),
            Expr::Binary { left, right, .. } => {
                left.collect_paths(out);
                right.collect_paths(out);
            }
            Expr::Unary { operand, .. } => operand.collect_paths(out),
            Expr::Call { args, .. } => {
                for a in args {
                    a.collect_paths(out);
                }
            }
            _ => {}
        }
    }
}

impl Rule {
    /// Collects every action in the rule body (recursively).
    pub fn actions(&self) -> Vec<&Action> {
        fn walk<'a>(statements: &'a [Statement], out: &mut Vec<&'a Action>) {
            for s in statements {
                match s {
                    Statement::Action(a) => out.push(a),
                    Statement::If {
                        then_branch,
                        else_branch,
                        ..
                    } => {
                        walk(then_branch, out);
                        walk(else_branch, out);
                    }
                    Statement::Foreach { body, .. } => walk(body, out),
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.body, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_path_helpers() {
        let p = Expr::path("SUS.DecisionMaker.dm2role.name");
        assert_eq!(p.as_path().unwrap().len(), 4);
        assert!(p.has_prefix("sus"));
        assert!(!p.has_prefix("MD"));
        assert!(Expr::Number(1.0).as_path().is_none());
        assert!(!Expr::Number(1.0).has_prefix("SUS"));
    }

    #[test]
    fn collect_paths_walks_the_tree() {
        let e = Expr::Binary {
            op: BinaryOp::Lt,
            left: Box::new(Expr::Call {
                function: "Distance".into(),
                args: vec![
                    Expr::path("s.geometry"),
                    Expr::path("GeoMD.Airport.geometry"),
                ],
            }),
            right: Box::new(Expr::Number(5.0)),
        };
        let mut paths = Vec::new();
        e.collect_paths(&mut paths);
        assert_eq!(paths.len(), 2);
    }

    #[test]
    fn operator_metadata() {
        assert_eq!(BinaryOp::Le.symbol(), "<=");
        assert!(BinaryOp::Eq.is_comparison());
        assert!(!BinaryOp::Add.is_comparison());
    }

    #[test]
    fn rule_actions_are_collected_recursively() {
        let rule = Rule {
            name: "r".into(),
            event: EventSpec::SessionStart,
            body: vec![Statement::If {
                condition: Expr::Boolean(true),
                then_branch: vec![
                    Statement::Action(Action::AddLayer {
                        name: "Airport".into(),
                        geometry: GeometricType::Point,
                    }),
                    Statement::Foreach {
                        variables: vec!["s".into()],
                        sources: vec![Expr::path("GeoMD.Store")],
                        body: vec![Statement::Action(Action::SelectInstance {
                            target: Expr::path("s"),
                        })],
                    },
                ],
                else_branch: vec![Statement::Action(Action::SetContent {
                    target: Expr::path("SUS.DecisionMaker.theme"),
                    value: Expr::Text("plain".into()),
                })],
            }],
        };
        assert_eq!(rule.actions().len(), 3);
    }
}
