//! The compiled instruction stream and the lowering pass that produces it.
//!
//! Expressions lower to postfix programs over a value stack; statements
//! lower to a small tree mirroring the interpreter's control flow but with
//! loop variables bound to pre-allocated slots instead of a name-scanned
//! scope stack, SUS paths pre-parsed, designer-parameter keys
//! pre-lowercased and runtime-immutable model paths pre-resolved.
//!
//! Constant folding evaluates literal subtrees at compile time through the
//! *same* semantic kernels the interpreter uses ([`binary_values`],
//! [`unary_value`]), so a folded `1 / 0` becomes a [`Op::Fail`] carrying
//! the interpreter's exact "division by zero" message, raised at the
//! interpreter's exact evaluation point (left operand before right).

use crate::ast::{Action, BinaryOp, EventSpec, Expr, Rule, Statement, UnaryOp};
use crate::error::PrmlError;
use crate::eval::engine::{body_selects_variable, normalise};
use crate::eval::expr::{binary_values, unary_value};
use crate::eval::value::Value;
use crate::pretty::print_expr;
use crate::typecheck::RuleClass;
use sdwp_model::{PathExpr, PathPrefix, PathResolver, PathTarget, Schema};
use sdwp_olap::cube::attribute_column;
use sdwp_user::SusPath;

/// One instruction of a compiled expression program (postfix order).
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// Push a constant (a literal or a constant-folded subtree).
    Const(Value),
    /// Raise an evaluation error with this message — a subtree the folder
    /// proved always fails, raised in the interpreter's evaluation order.
    Fail(String),
    /// Push the loop variable bound to this slot.
    Slot(u16),
    /// Push a property chain read off the loop variable in this slot.
    SlotProps {
        /// The variable's slot.
        slot: u16,
        /// The property segments after the variable name.
        props: Vec<String>,
    },
    /// Push a designer parameter.
    Param {
        /// Pre-lowercased lookup key.
        key: String,
        /// The identifier as written (for the unknown-parameter error).
        display: String,
    },
    /// Push a user-model value (path pre-parsed at compile time).
    Sus(SusPath),
    /// Push the value of an `MD.` / `GeoMD.` path.
    Model(ModelPlan),
    /// Pop one value and apply a unary operator.
    Unary(UnaryOp),
    /// Pop two values and apply a binary operator.
    Binary(BinaryOp),
    /// Pop `argc` values and apply a named operator.
    Call {
        /// Operator name ASCII-lowercased (the dispatch key).
        name: String,
        /// Operator name as written (for error messages).
        display: String,
        /// Number of arguments to pop.
        argc: usize,
    },
    /// A hoisted loop invariant: run `ops` (a subprogram leaving one
    /// value) where the interpreter would, and reuse its value until the
    /// binding in `key_slot` changes (`None`: for the whole firing).
    Memo {
        /// Index into the execution frame's memo table.
        id: usize,
        /// The slot whose rebinding invalidates the value.
        key_slot: Option<u16>,
        /// The invariant subprogram.
        ops: Vec<Op>,
    },
}

/// How a compiled `MD.` / `GeoMD.` path reads the cube.
///
/// Dimensions, levels and attributes never change at runtime, so paths
/// resolving to them are pre-resolved (the attribute's physical column
/// name is precomputed). Layers and geometries *do* change at runtime
/// (`AddLayer` / `BecomeSpatial` earlier in the same firing), so those
/// paths re-resolve against the live schema per evaluation, exactly like
/// the interpreter — including its errors when the schema element does
/// not exist yet.
#[derive(Debug, Clone)]
pub(crate) enum ModelPlan {
    /// All instances of a pre-resolved level.
    Level {
        /// Dimension name.
        dimension: String,
        /// Level name.
        level: String,
    },
    /// All values of a level attribute, with the physical column name
    /// precomputed.
    Attribute {
        /// Dimension name.
        dimension: String,
        /// Precomputed `attribute_column(level, attribute)` name.
        column: String,
    },
    /// Re-resolve the segments against the live schema at runtime.
    Dynamic(Vec<String>),
}

/// A compiled expression: a postfix program leaving one value on the stack.
#[derive(Debug, Clone)]
pub(crate) struct Prog {
    pub(crate) ops: Vec<Op>,
}

/// A loop-variable binding of a compiled `Foreach`.
#[derive(Debug, Clone)]
pub(crate) struct Binding {
    /// The slot the variable binds to.
    pub(crate) slot: u16,
    /// Whether the loop body selects this variable (pre-registers an empty
    /// dimension selection even when zero instances match, §5.2).
    pub(crate) preselect: bool,
}

/// A compiled statement.
#[derive(Debug, Clone)]
pub(crate) enum CStmt {
    /// A conditional.
    If {
        condition: Prog,
        then_branch: Vec<CStmt>,
        else_branch: Vec<CStmt>,
    },
    /// A cartesian-product loop.
    Foreach {
        bindings: Vec<Binding>,
        sources: Vec<Prog>,
        body: Vec<CStmt>,
        /// The body has the exact-emptiness guard's shape (see
        /// [`empty_guard`]): an empty hoisted operand skips the innermost
        /// loop.
        guarded: bool,
        /// The loop's index among the rule set's closed loops, when it is
        /// one (see [`is_closed`]): its outcome is replayed while the
        /// cube's stamp stays the same.
        closed: Option<usize>,
        /// The loop as a range probe, when it has Example 5.2's shape (see
        /// [`range_probe`]).
        probe: Option<Probe>,
    },
    /// A schema action (`AddLayer` / `BecomeSpatial`), executed through
    /// the interpreter's own action executor so the two paths share one
    /// mutation implementation.
    Direct(Action),
    /// `SelectInstance` with a compiled target.
    Select { target: Prog },
    /// `SetContent` with the SUS path pre-parsed (or its parse error
    /// preserved, raised after the value evaluates — the interpreter's
    /// error order).
    SetContent {
        value: Prog,
        path: Result<SusPath, String>,
    },
    /// A statement the compiler proved always fails at runtime.
    Fail(String),
}

/// A loop planned as a range probe over a level index: `Foreach v in
/// (<level>) If (Distance(v.geometry, E) < k) then SelectInstance(v)
/// endIf endForeach`.
#[derive(Debug, Clone)]
pub(crate) struct Probe {
    /// The loop's index among the rule set's probe loops: where its level
    /// index is kept.
    pub(crate) id: usize,
    /// The level's dimension.
    pub(crate) dimension: String,
    /// The level.
    pub(crate) level: String,
    /// `E`: a program of one hoisted [`Op::Memo`], the one the loop body's
    /// condition holds.
    pub(crate) target: Prog,
    /// `k`, finite.
    pub(crate) max_distance: f64,
}

/// How many closed loops and probe loops a rule set has numbered so far
/// (the next id of each).
#[derive(Debug, Default)]
pub(crate) struct LoopIds {
    pub(crate) closed: usize,
    pub(crate) probes: usize,
}

/// A rule's event specification with all matching text precomputed, so the
/// condition (match) phase is pure string comparison against the event —
/// no locks, no cube access, no per-event pretty-printing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchSpec {
    /// Matches `SessionStart` events.
    SessionStart,
    /// Matches `SessionEnd` events.
    SessionEnd,
    /// Matches `SpatialSelection` events by element text and (when the
    /// event carries one) normalised condition text.
    SpatialSelection {
        /// The pretty-printed element path.
        element: String,
        /// The normalised pretty-printed condition.
        condition: String,
    },
}

impl MatchSpec {
    /// Does this specification match a runtime event? Behaviourally
    /// identical to the interpreter's event matching, with the rule side
    /// precomputed at compile time.
    pub fn matches(&self, event: &crate::eval::engine::RuntimeEvent) -> bool {
        use crate::eval::engine::RuntimeEvent;
        match (self, event) {
            (MatchSpec::SessionStart, RuntimeEvent::SessionStart) => true,
            (MatchSpec::SessionEnd, RuntimeEvent::SessionEnd) => true,
            (
                MatchSpec::SpatialSelection { element, condition },
                RuntimeEvent::SpatialSelection {
                    element: event_element,
                    expression,
                },
            ) => {
                element.eq_ignore_ascii_case(event_element)
                    && match expression {
                        None => true,
                        Some(text) => *condition == normalise(text),
                    }
            }
            _ => false,
        }
    }
}

/// One rule lowered to the compact instruction stream.
#[derive(Debug, Clone)]
pub struct CompiledRule {
    /// The rule name (attached to evaluation errors, like the
    /// interpreter).
    pub name: String,
    /// The personalization stage the rule belongs to.
    pub class: RuleClass,
    /// The precomputed event matcher.
    pub matcher: MatchSpec,
    pub(crate) body: Vec<CStmt>,
    pub(crate) slot_count: usize,
    pub(crate) memo_count: usize,
}

/// Lowers one type-checked rule against the effective (augmented) schema,
/// numbering its closed and probe loops from `loop_ids` on (and advancing
/// it).
pub(crate) fn compile_rule(
    rule: &Rule,
    class: RuleClass,
    schema: &Schema,
    loop_ids: &mut LoopIds,
) -> Result<CompiledRule, PrmlError> {
    let matcher = match &rule.event {
        EventSpec::SessionStart => MatchSpec::SessionStart,
        EventSpec::SessionEnd => MatchSpec::SessionEnd,
        EventSpec::SpatialSelection { element, condition } => MatchSpec::SpatialSelection {
            element: print_expr(element),
            condition: normalise(&print_expr(condition)),
        },
    };
    let mut compiler = Compiler {
        rule: &rule.name,
        schema,
        scope: Vec::new(),
        max_slots: 0,
        loops: Vec::new(),
        memo_count: 0,
        loop_ids,
    };
    let body = compiler.compile_statements(&rule.body)?;
    Ok(CompiledRule {
        name: rule.name.clone(),
        class,
        matcher,
        body,
        slot_count: compiler.max_slots,
        memo_count: compiler.memo_count,
    })
}

struct Compiler<'a> {
    rule: &'a str,
    schema: &'a Schema,
    /// Statically tracked loop-variable scope; a variable's slot is its
    /// depth at binding time (the runtime scope stack is exactly the
    /// lexical nesting, so depth-indexed slots reproduce innermost-wins
    /// lookup).
    scope: Vec<String>,
    max_slots: usize,
    /// The enclosing loops, innermost last.
    loops: Vec<LoopScope>,
    /// Memos allocated so far (the next [`Op::Memo`] id).
    memo_count: usize,
    /// Closed and probe loops numbered so far in the rule set.
    loop_ids: &'a mut LoopIds,
}

/// The innermost loop an expression is compiled in.
#[derive(Debug, Clone, Copy)]
struct LoopScope {
    /// The slot of the loop's innermost binding.
    innermost: u16,
    /// The loop body only reads: see [`is_read_only`].
    read_only: bool,
}

/// Where the folder landed for a subtree.
enum Folded {
    /// The subtree is a compile-time constant.
    Const(Value),
    /// The subtree always fails with this message.
    Fail(String),
    /// The subtree needs runtime evaluation.
    Dyn(Vec<Op>),
}

impl Folded {
    fn into_ops(self) -> Vec<Op> {
        match self {
            Folded::Const(value) => vec![Op::Const(value)],
            Folded::Fail(message) => vec![Op::Fail(message)],
            Folded::Dyn(ops) => ops,
        }
    }
}

/// Extracts the message of an anonymous evaluation error produced by a
/// shared kernel during folding (kernels always return `Eval` with an
/// empty rule name).
fn eval_message(error: PrmlError) -> String {
    match error {
        PrmlError::Eval { message, .. } => message,
        other => other.to_string(),
    }
}

impl Compiler<'_> {
    fn compile_statements(&mut self, statements: &[Statement]) -> Result<Vec<CStmt>, PrmlError> {
        statements
            .iter()
            .map(|s| self.compile_statement(s))
            .collect()
    }

    fn compile_statement(&mut self, statement: &Statement) -> Result<CStmt, PrmlError> {
        match statement {
            Statement::If {
                condition,
                then_branch,
                else_branch,
            } => Ok(CStmt::If {
                condition: self.compile_expr(condition),
                then_branch: self.compile_statements(then_branch)?,
                else_branch: self.compile_statements(else_branch)?,
            }),
            Statement::Foreach {
                variables,
                sources,
                body,
            } => {
                // Sources evaluate in the outer scope, before the loop
                // variables bind (the interpreter pushes bindings only
                // once all collections are materialised).
                let sources: Vec<Prog> = sources.iter().map(|s| self.compile_expr(s)).collect();
                let first_slot = self.scope.len();
                let mut bindings = Vec::with_capacity(variables.len());
                for variable in variables {
                    let slot = self.scope.len();
                    if slot > usize::from(u16::MAX) {
                        return Err(PrmlError::Check {
                            rule: self.rule.to_string(),
                            message: "too many nested loop variables to compile".into(),
                        });
                    }
                    bindings.push(Binding {
                        slot: slot as u16,
                        preselect: body_selects_variable(body, variable),
                    });
                    self.scope.push(variable.clone());
                    self.max_slots = self.max_slots.max(self.scope.len());
                }
                let scope = bindings.last().map(|innermost| LoopScope {
                    innermost: innermost.slot,
                    read_only: is_read_only(body),
                });
                self.loops.extend(scope);
                let compiled_body = self.compile_statements(body);
                if scope.is_some() {
                    self.loops.pop();
                }
                self.scope.truncate(self.scope.len() - variables.len());
                let body = compiled_body?;
                let guarded = scope.is_some_and(|s| s.read_only && empty_guard(&body, s.innermost));
                let closed = (!bindings.is_empty()
                    && is_closed(&sources, &body, first_slot as u16))
                .then(|| {
                    let id = self.loop_ids.closed;
                    self.loop_ids.closed += 1;
                    id
                });
                let probe = range_probe(&bindings, &sources, &body, self.loop_ids.probes);
                self.loop_ids.probes += usize::from(probe.is_some());
                Ok(CStmt::Foreach {
                    bindings,
                    sources,
                    body,
                    guarded,
                    closed,
                    probe,
                })
            }
            Statement::Action(action) => Ok(self.compile_action(action)),
        }
    }

    fn compile_action(&mut self, action: &Action) -> CStmt {
        match action {
            Action::AddLayer { .. } | Action::BecomeSpatial { .. } => CStmt::Direct(action.clone()),
            Action::SelectInstance { target } => CStmt::Select {
                target: self.compile_expr(target),
            },
            Action::SetContent { target, value } => {
                let Some(segments) = target.as_path() else {
                    return CStmt::Fail("SetContent target must be a path".into());
                };
                if !segments
                    .first()
                    .map(|s| s.eq_ignore_ascii_case("SUS"))
                    .unwrap_or(false)
                {
                    return CStmt::Fail(format!(
                        "SetContent target '{}' must be a SUS (user model) path",
                        segments.join(".")
                    ));
                }
                CStmt::SetContent {
                    value: self.compile_expr(value),
                    path: SusPath::parse(&segments.join(".")).map_err(|e| e.to_string()),
                }
            }
        }
    }

    fn compile_expr(&mut self, expr: &Expr) -> Prog {
        let ops = self.fold(expr).into_ops();
        let ops = match self.loops.last() {
            Some(&scope) => hoist(ops, scope, &mut self.memo_count),
            None => ops,
        };
        Prog { ops }
    }

    fn fold(&mut self, expr: &Expr) -> Folded {
        match expr {
            Expr::Number(n) => Folded::Const(Value::Number(*n)),
            Expr::Text(s) => Folded::Const(Value::Text(s.clone())),
            Expr::Boolean(b) => Folded::Const(Value::Boolean(*b)),
            Expr::GeometricType(g) => Folded::Const(Value::GeometricType(*g)),
            Expr::Path(segments) => self.fold_path(segments),
            Expr::Unary { op, operand } => match self.fold(operand) {
                Folded::Const(value) => match unary_value(*op, &value) {
                    Ok(folded) => Folded::Const(folded),
                    Err(e) => Folded::Fail(eval_message(e)),
                },
                Folded::Fail(message) => Folded::Fail(message),
                Folded::Dyn(mut ops) => {
                    ops.push(Op::Unary(*op));
                    Folded::Dyn(ops)
                }
            },
            Expr::Binary { op, left, right } => {
                let lhs = self.fold(left);
                let rhs = self.fold(right);
                match (lhs, rhs) {
                    // The interpreter evaluates left before right, so a
                    // failing left subtree swallows the right one...
                    (Folded::Fail(message), _) => Folded::Fail(message),
                    // ...and a constant left cannot fail before a failing
                    // right does.
                    (Folded::Const(_), Folded::Fail(message)) => Folded::Fail(message),
                    (Folded::Const(a), Folded::Const(b)) => match binary_values(*op, &a, &b) {
                        Ok(value) => Folded::Const(value),
                        Err(e) => Folded::Fail(eval_message(e)),
                    },
                    // A dynamic left runs first even when the right always
                    // fails: its runtime error (if any) must win.
                    (lhs, rhs) => {
                        let mut ops = lhs.into_ops();
                        ops.extend(rhs.into_ops());
                        ops.push(Op::Binary(*op));
                        Folded::Dyn(ops)
                    }
                }
            }
            Expr::Call { function, args } => {
                // Calls touch the context (cube geometries), so they never
                // fold — but argument order is preserved, so a folded
                // failing argument still raises at the interpreter's exact
                // point.
                let mut ops = Vec::new();
                for arg in args {
                    ops.extend(self.fold(arg).into_ops());
                }
                ops.push(Op::Call {
                    name: function.to_ascii_lowercase(),
                    display: function.clone(),
                    argc: args.len(),
                });
                Folded::Dyn(ops)
            }
        }
    }

    /// Classifies a path exactly like the interpreter's runtime
    /// precedence: SUS → MD/GeoMD → loop variable → designer parameter →
    /// error. The compile-time scope tracks the lexical loop nesting, which
    /// is precisely the interpreter's runtime binding stack.
    fn fold_path(&mut self, segments: &[String]) -> Folded {
        let Some(head) = segments.first() else {
            return Folded::Fail("empty path expression".into());
        };
        if head.eq_ignore_ascii_case("SUS") {
            return match SusPath::parse(&segments.join(".")) {
                Ok(path) => Folded::Dyn(vec![Op::Sus(path)]),
                Err(e) => Folded::Fail(e.to_string()),
            };
        }
        if head.eq_ignore_ascii_case("MD") || head.eq_ignore_ascii_case("GeoMD") {
            return self.plan_model_path(segments);
        }
        if let Some(slot) = self.scope.iter().rposition(|name| name == head) {
            let slot = slot as u16;
            return Folded::Dyn(vec![if segments.len() == 1 {
                Op::Slot(slot)
            } else {
                Op::SlotProps {
                    slot,
                    props: segments[1..].to_vec(),
                }
            }]);
        }
        if segments.len() == 1 {
            return Folded::Dyn(vec![Op::Param {
                key: head.to_lowercase(),
                display: head.clone(),
            }]);
        }
        Folded::Fail(format!(
            "'{}' is not a model path, loop variable or parameter",
            segments.join(".")
        ))
    }

    /// Pre-resolves a model path where the resolution is provably stable
    /// at runtime. Facts and measures are immutable and always rejected by
    /// the evaluator, so they fold to the rejection. Levels and attributes
    /// are immutable and resolve the same against any live schema (layers
    /// shadow them in resolution order, but a path that resolved *past*
    /// the layer check cannot start shadowing — the compile schema already
    /// contains every layer the rule set can add). Everything else —
    /// layers, geometries, resolution failures — re-resolves at runtime,
    /// because the live schema augments incrementally as schema rules run.
    fn plan_model_path(&self, segments: &[String]) -> Folded {
        let prefix = PathPrefix::parse(&segments[0]).unwrap_or(PathPrefix::GeoMd);
        let expr = PathExpr::new(prefix, segments[1..].to_vec());
        let plan = match PathResolver::new(self.schema).resolve(&expr) {
            Ok(PathTarget::Fact { fact }) | Ok(PathTarget::Measure { fact, .. }) => {
                return Folded::Fail(format!(
                    "fact '{fact}' cannot be used directly in a rule expression"
                ));
            }
            Ok(PathTarget::Level { dimension, level }) => ModelPlan::Level { dimension, level },
            Ok(PathTarget::LevelAttribute {
                dimension,
                level,
                attribute,
            }) => ModelPlan::Attribute {
                dimension,
                column: attribute_column(&level, &attribute),
            },
            _ => ModelPlan::Dynamic(segments.to_vec()),
        };
        Folded::Dyn(vec![Op::Model(plan)])
    }
}

/// Whether a loop body only reads: it holds nothing but `If`, `Foreach`
/// and `SelectInstance`, so running it changes neither the user model nor
/// the schema, and a SUS path or parameter reads the same in every
/// iteration.
fn is_read_only(statements: &[Statement]) -> bool {
    statements.iter().all(|statement| match statement {
        Statement::If {
            then_branch,
            else_branch,
            ..
        } => is_read_only(then_branch) && is_read_only(else_branch),
        Statement::Foreach { body, .. } => is_read_only(body),
        Statement::Action(action) => matches!(action, Action::SelectInstance { .. }),
    })
}

/// Whether a compiled loop is *closed*: its body is read-only (only `If`,
/// `Foreach` and `SelectInstance`, the [`is_read_only`] condition), and
/// neither its sources nor its body — hoisted subprograms included —
/// read the user model, a designer parameter or a binding of an
/// enclosing loop (a slot below `first_slot`, the loop's first binding).
/// What such a loop selects, or the error it raises, then depends on the
/// cube's schema, dimension tables and layer tables alone.
fn is_closed(sources: &[Prog], body: &[CStmt], first_slot: u16) -> bool {
    sources
        .iter()
        .all(|source| reads_only_cube(&source.ops, first_slot))
        && body.iter().all(|statement| match statement {
            CStmt::If {
                condition,
                then_branch,
                else_branch,
            } => {
                reads_only_cube(&condition.ops, first_slot)
                    && is_closed(&[], then_branch, first_slot)
                    && is_closed(&[], else_branch, first_slot)
            }
            CStmt::Foreach { sources, body, .. } => is_closed(sources, body, first_slot),
            CStmt::Select { target } => reads_only_cube(&target.ops, first_slot),
            CStmt::Direct(_) | CStmt::SetContent { .. } | CStmt::Fail(_) => false,
        })
}

/// Whether a program reads no SUS path, no parameter and no slot below
/// `first_slot`.
fn reads_only_cube(ops: &[Op], first_slot: u16) -> bool {
    ops.iter().all(|op| match op {
        Op::Sus(_) | Op::Param { .. } => false,
        Op::Slot(slot) | Op::SlotProps { slot, .. } => *slot >= first_slot,
        Op::Memo { ops, .. } => reads_only_cube(ops, first_slot),
        Op::Const(_)
        | Op::Fail(_)
        | Op::Model(_)
        | Op::Unary(_)
        | Op::Binary(_)
        | Op::Call { .. } => true,
    })
}

/// Wraps every maximal loop-invariant subtree of a postfix program that
/// does real work (a call or a SUS read) in an [`Op::Memo`] keyed on the
/// binding just outside the innermost one.
///
/// A subtree is invariant when it reads no binding of the innermost loop
/// and holds only `Const`, `Slot`, `SlotProps`, `Unary`, `Binary` and
/// `Call` — plus `Sus` and `Param` when the loop body is read-only. Those
/// ops are deterministic in the slots they read and in cube data no rule
/// action rewrites, so the value stays valid until an outer binding
/// changes; and every binding outside the innermost one changes only
/// together with (or before) the key slot's rebinding.
fn hoist(ops: Vec<Op>, scope: LoopScope, next_id: &mut usize) -> Vec<Op> {
    // Per op: the subtree it closes, as (first op, invariant, costly).
    let mut trees: Vec<(usize, bool, bool)> = Vec::with_capacity(ops.len());
    let mut under_hoistable = vec![false; ops.len()];
    let mut open: Vec<usize> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let (arity, invariant, costly) = match op {
            Op::Const(_) => (0, true, false),
            Op::Slot(slot) | Op::SlotProps { slot, .. } => (0, *slot != scope.innermost, false),
            Op::Sus(_) => (0, scope.read_only, true),
            Op::Param { .. } => (0, scope.read_only, false),
            Op::Fail(_) | Op::Model(_) | Op::Memo { .. } => (0, false, false),
            Op::Unary(_) => (1, true, false),
            Op::Binary(_) => (2, true, false),
            Op::Call { argc, .. } => (*argc, true, true),
        };
        let Some(first_child) = open.len().checked_sub(arity) else {
            return ops;
        };
        let children = open.split_off(first_child);
        let start = children.first().map_or(i, |&c| trees[c].0);
        let invariant = invariant && children.iter().all(|&c| trees[c].1);
        let costly = costly || children.iter().any(|&c| trees[c].2);
        if invariant && costly {
            for &c in &children {
                under_hoistable[c] = true;
            }
        }
        trees.push((start, invariant, costly));
        open.push(i);
    }
    if open.len() != 1 {
        return ops;
    }
    // The maximal hoistable subtrees are disjoint: map each one's first op
    // to its last.
    let mut memo_end = vec![None; ops.len()];
    for (end, &(start, invariant, costly)) in trees.iter().enumerate() {
        if invariant && costly && !under_hoistable[end] {
            memo_end[start] = Some(end);
        }
    }
    let mut out = Vec::with_capacity(ops.len());
    let mut rest = ops.into_iter().enumerate();
    while let Some((i, op)) = rest.next() {
        match memo_end[i] {
            Some(end) => {
                let mut inner = vec![op];
                inner.extend(rest.by_ref().take(end - i).map(|(_, op)| op));
                out.push(Op::Memo {
                    id: *next_id,
                    key_slot: scope.innermost.checked_sub(1),
                    ops: inner,
                });
                *next_id += 1;
            }
            None => out.push(op),
        }
    }
    out
}

/// Whether a read-only loop body is exactly one else-less
/// `If (Distance(Intersection(E, v.geometry)) < k)` (or `<= k`), with `E`
/// hoisted, `v` the innermost binding and `k` a finite constant.
///
/// Then an empty `E` decides the whole innermost loop: `Intersection(∅, g)`
/// is ∅, one-argument `Distance(∅)` is +∞, and +∞ is neither `<` nor `<=`
/// a finite `k`, so every iteration's condition is false and nothing runs.
/// The executor still checks at runtime that every innermost item's
/// `.geometry` reads without error, the one step of the skipped iterations
/// that could fail.
fn empty_guard(body: &[CStmt], innermost: u16) -> bool {
    let [CStmt::If {
        condition,
        else_branch,
        ..
    }] = body
    else {
        return false;
    };
    else_branch.is_empty()
        && matches!(
            condition.ops.as_slice(),
            [
                Op::Memo { .. },
                Op::SlotProps { slot, props },
                Op::Call { name: intersection, argc: 2, .. },
                Op::Call { name: distance, argc: 1, .. },
                Op::Const(Value::Number(k)),
                Op::Binary(BinaryOp::Lt | BinaryOp::Le),
            ] if *slot == innermost
                && matches!(props.as_slice(), [p] if p.eq_ignore_ascii_case("geometry"))
                && intersection == "intersection"
                && distance == "distance"
                && k.is_finite()
        )
}

/// The range-probe plan of a compiled loop with Example 5.2's shape, as
/// probe loop `id`: one binding `v` over a level (a pre-resolved
/// [`ModelPlan::Level`]) and a body of exactly one else-less `If
/// (Distance(v.geometry, E) < k) then SelectInstance(v) endIf`, with `E`
/// hoisted and `k` a finite constant.
///
/// The interpreter then selects exactly the members whose geometry is
/// strictly within `k` of `E`, which is what the level index answers. Any
/// other shape (`<=`, `E` first, an `else`, a second statement, a
/// parameter threshold) returns `None` and keeps the nested loop.
fn range_probe(bindings: &[Binding], sources: &[Prog], body: &[CStmt], id: usize) -> Option<Probe> {
    let (
        [binding],
        [source],
        [CStmt::If {
            condition,
            then_branch,
            else_branch,
        }],
    ) = (bindings, sources, body)
    else {
        return None;
    };
    let [Op::Model(ModelPlan::Level { dimension, level })] = source.ops.as_slice() else {
        return None;
    };
    let [CStmt::Select { target }] = then_branch.as_slice() else {
        return None;
    };
    let v = binding.slot;
    if !else_branch.is_empty() || !matches!(target.ops.as_slice(), [Op::Slot(s)] if *s == v) {
        return None;
    }
    let [geometry, memo, distance, Op::Const(Value::Number(k)), Op::Binary(BinaryOp::Lt)] =
        condition.ops.as_slice()
    else {
        return None;
    };
    let reads_geometry = matches!(geometry, Op::SlotProps { slot, props } if *slot == v
        && matches!(props.as_slice(), [p] if p.eq_ignore_ascii_case("geometry")));
    let hoisted = matches!(memo, Op::Memo { .. });
    let measures = matches!(distance, Op::Call { name, argc: 2, .. } if name == "distance");
    (reads_geometry && hoisted && measures && k.is_finite()).then(|| Probe {
        id,
        dimension: dimension.clone(),
        level: level.clone(),
        target: Prog {
            ops: vec![memo.clone()],
        },
        max_distance: *k,
    })
}
