//! Execution of compiled rule bodies against an evaluation context.
//!
//! The executor shares every semantic kernel with the AST interpreter
//! ([`binary_values`], [`unary_value`], [`call_values`],
//! [`access_properties`], [`evaluate_model_path`], [`execute_action`],
//! [`select_value`]) — only the dispatch differs: a postfix value stack
//! with slot-indexed variable reads instead of tree walking with a
//! name-scanned scope, hoisted loop invariants evaluated once per outer
//! binding, the exact-emptiness guard skipping innermost loops whose
//! condition cannot hold, range probes selecting through a level index,
//! and closed loops replayed while the cube's stamp stays the same. What
//! the last two keep across firings lives in [`LoopState`].

use crate::compile::program::{Binding, CStmt, LoopIds, ModelPlan, Op, Probe, Prog};
use crate::error::PrmlError;
use crate::eval::action::{execute_action, rename, select_value};
use crate::eval::context::{EvalContext, RuleEffect};
use crate::eval::expr::{
    access_properties, binary_values, call_values, count_distance_calls, evaluate_model_path,
    geometry_read_is_total, unary_value,
};
use crate::eval::value::{InstanceRef, InstanceSource, Value};
use sdwp_geometry::distance::DistanceMetric;
use sdwp_geometry::{Coord, Geometry};
use sdwp_olap::cube::geometry_column;
use sdwp_olap::spatial::{
    build_level_rtree, indexed_refinements, members_within_distance_indexed, LevelIndex,
};
use sdwp_olap::Cube;
use sdwp_user::{assign_sus_path, resolve_sus_path};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Member selections per dimension (or layer), as a [`RuleEffect`] keeps
/// them.
type Selections = BTreeMap<String, BTreeSet<usize>>;

/// What a closed loop put into its rule's effect — its dimension and layer
/// selections, including the empty ones it pre-registers — or the error
/// it raised.
type Outcome = Result<(Selections, Selections), PrmlError>;

/// Per planned loop: its value with the cube stamp it was computed under.
type Entries<T> = Vec<Option<(u64, Arc<T>)>>;

/// One value per planned loop of a rule set, each with the cube stamp it
/// was computed under. A lookup under any other stamp misses, and a store
/// replaces the loop's entry, so the table never outgrows the rule set.
/// The lock covers the lookup and the store, never the computation.
#[derive(Debug)]
struct Stamped<T>(Mutex<Entries<T>>);

impl<T> Default for Stamped<T> {
    fn default() -> Self {
        Stamped(Mutex::new(Vec::new()))
    }
}

impl<T> Stamped<T> {
    fn new(loops: usize) -> Self {
        Stamped(Mutex::new((0..loops).map(|_| None).collect()))
    }

    fn entries(&self) -> MutexGuard<'_, Entries<T>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Loop `id`'s value under `stamp`, and whether it was stored; on a
    /// miss, `compute`'s value, stored first.
    fn get_or_compute(
        &self,
        id: usize,
        stamp: u64,
        compute: impl FnOnce() -> T,
    ) -> Result<(Arc<T>, bool), PrmlError> {
        let stored = self
            .entries()
            .get(id)
            .ok_or_else(|| internal("planned loop id out of range"))?
            .as_ref()
            .filter(|(at, _)| *at == stamp)
            .map(|(_, value)| Arc::clone(value));
        if let Some(value) = stored {
            return Ok((value, true));
        }
        let value = Arc::new(compute());
        self.entries()[id] = Some((stamp, Arc::clone(&value)));
        Ok((value, false))
    }
}

/// What a rule set keeps across firings for its planned loops, each entry
/// under the cube stamp it was computed for: the last outcome of each
/// closed loop, replayed instead of running while the stamp stays the
/// same, and the level index of each probe loop (`None` when a member's
/// geometry is not [`tame`]).
#[derive(Debug, Default)]
pub(crate) struct LoopState {
    outcomes: Stamped<Outcome>,
    indexes: Stamped<Option<LevelIndex>>,
    runs: AtomicU64,
    replays: AtomicU64,
    index_builds: AtomicU64,
}

impl LoopState {
    /// Empty tables for a rule set with the loops `ids` numbered.
    pub(crate) fn new(ids: &LoopIds) -> LoopState {
        LoopState {
            outcomes: Stamped::new(ids.closed),
            indexes: Stamped::new(ids.probes),
            ..LoopState::default()
        }
    }

    /// How many times a closed loop ran (nothing stored for the stamp).
    pub(crate) fn runs(&self) -> u64 {
        self.runs.load(Ordering::Relaxed)
    }

    /// How many times a closed loop replayed a stored outcome.
    pub(crate) fn replays(&self) -> u64 {
        self.replays.load(Ordering::Relaxed)
    }

    /// How many times a probe loop built its level index (nothing stored
    /// for the stamp).
    pub(crate) fn index_builds(&self) -> u64 {
        self.index_builds.load(Ordering::Relaxed)
    }

    /// Puts closed loop `id`'s outcome under `stamp` into `effect`:
    /// replayed when stored, otherwise computed by `run` into a scratch
    /// effect and stored first. Selections are ordered sets, so the union
    /// is exactly what running the loop into `effect` would have left.
    fn replay(
        &self,
        id: usize,
        stamp: u64,
        effect: &mut RuleEffect,
        run: impl FnOnce(&mut RuleEffect) -> Result<(), PrmlError>,
    ) -> Result<(), PrmlError> {
        let (outcome, stored) = self.outcomes.get_or_compute(id, stamp, || {
            let mut scratch = RuleEffect::new(effect.rule.clone());
            run(&mut scratch).map(|()| (scratch.selections, scratch.layer_selections))
        })?;
        let counter = if stored { &self.replays } else { &self.runs };
        counter.fetch_add(1, Ordering::Relaxed);
        let (selections, layer_selections) = outcome.as_ref().as_ref().map_err(Clone::clone)?;
        for (into, from) in [
            (&mut effect.selections, selections),
            (&mut effect.layer_selections, layer_selections),
        ] {
            for (name, members) in from {
                into.entry(name.clone()).or_default().extend(members);
            }
        }
        Ok(())
    }

    /// The level index of `probe`'s level in `cube`, built when none is
    /// stored for the cube's stamp; `None` when some member's geometry is
    /// not [`tame`].
    fn level_index(
        &self,
        probe: &Probe,
        cube: &Cube,
    ) -> Result<Arc<Option<LevelIndex>>, PrmlError> {
        let (index, stored) = self.indexes.get_or_compute(probe.id, cube.stamp(), || {
            let table = &cube.dimension_table(&probe.dimension).ok()?.table;
            let column = table.column(&geometry_column(&probe.level)).ok()?;
            if !(0..table.len()).all(|row| column.get_geometry(row).is_none_or(tame)) {
                return None;
            }
            build_level_rtree(cube, &probe.dimension, &probe.level).ok()
        })?;
        if !stored {
            self.index_builds.fetch_add(1, Ordering::Relaxed);
        }
        Ok(index)
    }
}

/// The largest coordinate magnitude a range probe accepts. Two geometries
/// inside it are at most 2·10¹⁵⁰ apart on each axis, so every square, dot
/// and cross product the distance kernel forms stays below 10³⁰¹: no
/// distance between them overflows or comes out NaN. The interpreter
/// fails on a NaN distance (`<` cannot order it), and the level index
/// would never offer such a member as a candidate.
const TAME: f64 = 1e150;

/// Whether every coordinate of `geometry` is finite and within ±[`TAME`].
fn tame(geometry: &Geometry) -> bool {
    let coord = |c: &Coord| c.x.abs() <= TAME && c.y.abs() <= TAME;
    match geometry {
        Geometry::Point(point) => coord(&point.coord()),
        Geometry::Line(line) => line.coords().iter().all(coord),
        Geometry::Polygon(polygon) => polygon
            .exterior()
            .iter()
            .chain(polygon.interiors().iter().flatten())
            .all(coord),
        Geometry::Collection(members) => members.iter().all(tame),
    }
}

/// The mutable state of one rule firing: loop-variable slots, a per-slot
/// binding epoch, and the hoisted values with the key epoch each was
/// computed under.
pub(crate) struct Frame {
    slots: Vec<Value>,
    epochs: Vec<u64>,
    memos: Vec<Option<(u64, Value)>>,
}

impl Frame {
    pub(crate) fn new(slot_count: usize, memo_count: usize) -> Frame {
        Frame {
            slots: vec![Value::Null; slot_count],
            epochs: vec![0; slot_count],
            memos: vec![None; memo_count],
        }
    }

    /// Binds a slot outside any loop (what `Nest::iterate` does per item).
    #[cfg(test)]
    pub(crate) fn bind(&mut self, slot: usize, value: Value) {
        self.slots[slot] = value;
        self.epochs[slot] += 1;
    }

    fn slot(&self, slot: u16) -> Result<&Value, PrmlError> {
        self.slots
            .get(usize::from(slot))
            .ok_or_else(|| internal("slot out of range"))
    }
}

/// An internal error: a compiled program broke an invariant the compiler
/// guarantees. Raised as a typed evaluation error, never a panic.
fn internal(what: &str) -> PrmlError {
    PrmlError::eval("", format!("internal error: {what}"))
}

/// Runs a compiled expression program, returning the single value it
/// leaves on the stack.
pub(crate) fn run_prog(
    prog: &Prog,
    frame: &mut Frame,
    ctx: &EvalContext<'_>,
) -> Result<Value, PrmlError> {
    eval_ops(&prog.ops, frame, ctx)
}

fn eval_ops(ops: &[Op], frame: &mut Frame, ctx: &EvalContext<'_>) -> Result<Value, PrmlError> {
    let mut stack: Vec<Value> = Vec::with_capacity(4);
    run_ops(ops, frame, ctx, &mut stack)?;
    match (stack.pop(), stack.is_empty()) {
        (Some(value), true) => Ok(value),
        _ => Err(internal("program must leave exactly one value")),
    }
}

/// The value of a hoisted subprogram: computed when the memo is empty or
/// was filled under an older epoch of its key slot, reused otherwise.
fn memo<'f>(
    id: usize,
    key_slot: Option<u16>,
    ops: &[Op],
    frame: &'f mut Frame,
    ctx: &EvalContext<'_>,
) -> Result<&'f Value, PrmlError> {
    let epoch = match key_slot {
        Some(slot) => *frame
            .epochs
            .get(usize::from(slot))
            .ok_or_else(|| internal("memo key out of range"))?,
        None => 0,
    };
    let cached = frame
        .memos
        .get(id)
        .ok_or_else(|| internal("memo id out of range"))?;
    if !matches!(cached, Some((at, _)) if *at == epoch) {
        let value = eval_ops(ops, frame, ctx)?;
        frame.memos[id] = Some((epoch, value));
    }
    match &frame.memos[id] {
        Some((_, value)) => Ok(value),
        None => Err(internal("memo left empty")),
    }
}

fn run_ops(
    ops: &[Op],
    frame: &mut Frame,
    ctx: &EvalContext<'_>,
    stack: &mut Vec<Value>,
) -> Result<(), PrmlError> {
    for op in ops {
        match op {
            Op::Const(value) => stack.push(value.clone()),
            Op::Fail(message) => return Err(PrmlError::eval("", message.clone())),
            Op::Slot(slot) => stack.push(frame.slot(*slot)?.clone()),
            Op::SlotProps { slot, props } => {
                stack.push(access_properties(frame.slot(*slot)?, props, ctx)?);
            }
            Op::Param { key, display } => {
                let value = ctx.parameter(key).ok_or_else(|| {
                    PrmlError::eval(
                        "",
                        format!("'{display}' is not a model path, loop variable or parameter"),
                    )
                })?;
                stack.push(Value::Number(value));
            }
            Op::Sus(path) => {
                let value = resolve_sus_path(ctx.profile, ctx.session, path)
                    .map_err(|e| PrmlError::eval("", e.to_string()))?;
                stack.push(Value::from_user(value));
            }
            Op::Model(plan) => stack.push(run_model_plan(plan, ctx)?),
            Op::Unary(op) => {
                let value = stack
                    .pop()
                    .ok_or_else(|| internal("unary operand missing"))?;
                stack.push(unary_value(*op, &value)?);
            }
            Op::Binary(op) => {
                let (Some(rhs), Some(lhs)) = (stack.pop(), stack.pop()) else {
                    return Err(internal("binary operand missing"));
                };
                stack.push(binary_values(*op, &lhs, &rhs)?);
            }
            Op::Call {
                name,
                display,
                argc,
            } => {
                let start = stack
                    .len()
                    .checked_sub(*argc)
                    .ok_or_else(|| internal("call arguments missing"))?;
                let value = call_values(name, display, &stack[start..], ctx)?;
                stack.truncate(start);
                stack.push(value);
            }
            Op::Memo { id, key_slot, ops } => {
                stack.push(memo(*id, *key_slot, ops, frame, ctx)?.clone());
            }
        }
    }
    Ok(())
}

fn run_model_plan(plan: &ModelPlan, ctx: &EvalContext<'_>) -> Result<Value, PrmlError> {
    let olap_err = |e: sdwp_olap::OlapError| PrmlError::eval("", e.to_string());
    match plan {
        ModelPlan::Level { dimension, level } => {
            let table = &ctx.cube.dimension_table(dimension).map_err(olap_err)?.table;
            let instances = (0..table.len())
                .map(|row| {
                    Value::Instance(InstanceRef::level(dimension.clone(), level.clone(), row))
                })
                .collect();
            Ok(Value::Collection(instances))
        }
        ModelPlan::Attribute { dimension, column } => {
            let table = &ctx.cube.dimension_table(dimension).map_err(olap_err)?.table;
            let values = (0..table.len())
                .map(|row| {
                    table
                        .get(row, column)
                        .map(Value::from_cell)
                        .map_err(olap_err)
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Value::Collection(values))
        }
        ModelPlan::Dynamic(segments) => evaluate_model_path(segments, ctx),
    }
}

/// Runs a compiled statement block, replaying closed loops and probing
/// level indexes through `loops`.
pub(crate) fn run_statements(
    statements: &[CStmt],
    frame: &mut Frame,
    ctx: &mut EvalContext<'_>,
    effect: &mut RuleEffect,
    loops: &LoopState,
) -> Result<(), PrmlError> {
    for statement in statements {
        match statement {
            CStmt::If {
                condition,
                then_branch,
                else_branch,
            } => {
                let value = run_prog(condition, frame, ctx)?;
                let holds = value.as_bool().ok_or_else(|| {
                    PrmlError::eval(
                        "",
                        format!(
                            "condition evaluated to {} instead of a boolean",
                            value.type_name()
                        ),
                    )
                })?;
                let branch = if holds { then_branch } else { else_branch };
                run_statements(branch, frame, ctx, effect, loops)?;
            }
            CStmt::Foreach {
                bindings,
                sources,
                body,
                guarded,
                closed,
                probe,
            } => {
                let nest = Nest {
                    bindings,
                    body,
                    guarded: *guarded,
                    innermost_total: None,
                    loops,
                };
                let run =
                    |frame: &mut Frame, ctx: &mut EvalContext<'_>, effect: &mut RuleEffect| {
                        if let Some(probe) = probe {
                            if run_probe(probe, frame, ctx, effect, loops)? {
                                return Ok(());
                            }
                        }
                        nest.run(sources, frame, ctx, effect)
                    };
                match closed {
                    Some(id) => {
                        let stamp = ctx.cube.stamp();
                        loops.replay(*id, stamp, effect, |scratch| run(frame, ctx, scratch))?;
                    }
                    None => run(frame, ctx, effect)?,
                }
            }
            CStmt::Direct(action) => execute_action(action, ctx, effect)?,
            CStmt::Select { target } => {
                let rule = effect.rule.clone();
                let value = run_prog(target, frame, ctx).map_err(|e| rename(e, &rule))?;
                select_value(&value, effect, &rule)?;
            }
            CStmt::SetContent { value, path } => {
                let rule = effect.rule.clone();
                let new_value = run_prog(value, frame, ctx).map_err(|e| rename(e, &rule))?;
                let path = path
                    .as_ref()
                    .map_err(|message| PrmlError::eval(&rule, message.clone()))?;
                assign_sus_path(ctx.profile, path, new_value.into_user())
                    .map_err(|e| PrmlError::eval(&rule, e.to_string()))?;
                effect.set_contents += 1;
            }
            CStmt::Fail(message) => {
                return Err(PrmlError::eval(&effect.rule, message.clone()));
            }
        }
    }
    Ok(())
}

/// Runs a range-probe loop through its level index, leaving exactly the
/// effect the nested loop would. Returns `false` when the loop must run
/// nested instead: the level's geometry column does not resolve, `E`
/// fails or is neither a geometry nor null, or a geometry is not
/// [`tame`]. By then nothing has changed but a memo of an `E` that
/// evaluated, which the nested loop would store too (a failing `E` is not
/// stored, and raises its own error there).
///
/// An empty level selects nothing and pre-registers nothing. A null `E`
/// is +∞ from every member, so it pre-registers the empty selection.
/// Otherwise the index's candidates are refined by the exact distance,
/// taken member first as `Distance(v.geometry, E)` takes it.
fn run_probe(
    probe: &Probe,
    frame: &mut Frame,
    ctx: &EvalContext<'_>,
    effect: &mut RuleEffect,
    loops: &LoopState,
) -> Result<bool, PrmlError> {
    let Ok(dimension) = ctx.cube.dimension_table(&probe.dimension) else {
        return Ok(false);
    };
    if dimension.table.is_empty() {
        return Ok(true);
    }
    if dimension
        .table
        .column(&geometry_column(&probe.level))
        .is_err()
    {
        return Ok(false);
    }
    let rows = match run_prog(&probe.target, frame, ctx) {
        Ok(Value::Null) => Vec::new(),
        Ok(Value::Geometry(target)) if tame(&target) => {
            let index = loops.level_index(probe, ctx.cube)?;
            let Some(index) = index.as_ref() else {
                return Ok(false);
            };
            let before = indexed_refinements();
            let rows = members_within_distance_indexed(
                ctx.cube,
                &probe.dimension,
                &probe.level,
                index,
                &target,
                probe.max_distance,
                DistanceMetric::Euclidean,
            );
            count_distance_calls(indexed_refinements() - before);
            match rows {
                Ok(rows) => rows,
                Err(_) => return Ok(false),
            }
        }
        _ => return Ok(false),
    };
    effect
        .selections
        .entry(probe.dimension.clone())
        .or_default()
        .extend(rows);
    Ok(true)
}

/// One execution of a compiled `Foreach`: the cartesian product of its
/// collections, innermost binding last.
struct Nest<'s> {
    bindings: &'s [Binding],
    body: &'s [CStmt],
    guarded: bool,
    /// Whether every innermost item's `.geometry` reads without error —
    /// the guard's runtime precondition, checked once, on first need.
    innermost_total: Option<bool>,
    loops: &'s LoopState,
}

impl Nest<'_> {
    /// Evaluates the sources, pre-registers the selections, and iterates.
    fn run(
        mut self,
        sources: &[Prog],
        frame: &mut Frame,
        ctx: &mut EvalContext<'_>,
        effect: &mut RuleEffect,
    ) -> Result<(), PrmlError> {
        let mut collections: Vec<Vec<Value>> = Vec::with_capacity(sources.len());
        for source in sources {
            match run_prog(source, frame, ctx)? {
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
        // Pre-register empty selections for selected dimensions, so a
        // zero-match loop still restricts the view (§5.2).
        for (binding, collection) in self.bindings.iter().zip(&collections) {
            if !binding.preselect {
                continue;
            }
            if let Some(Value::Instance(instance)) = collection.first() {
                if let InstanceSource::Level { dimension, .. } = &instance.source {
                    effect.selections.entry(dimension.clone()).or_default();
                }
            }
        }
        self.iterate(0, &mut collections, frame, ctx, effect)
    }

    /// Binds `bindings[depth]` to each of its items in turn — moved into
    /// its slot and back, never cloned — and recurses; runs the body once
    /// every binding is bound.
    fn iterate(
        &mut self,
        depth: usize,
        collections: &mut [Vec<Value>],
        frame: &mut Frame,
        ctx: &mut EvalContext<'_>,
        effect: &mut RuleEffect,
    ) -> Result<(), PrmlError> {
        let Some(binding) = self.bindings.get(depth) else {
            return run_statements(self.body, frame, ctx, effect, self.loops);
        };
        let slot = usize::from(binding.slot);
        let (items, inner) = collections
            .split_first_mut()
            .ok_or_else(|| internal("Foreach source missing"))?;
        if slot >= frame.slots.len() {
            return Err(internal("slot out of range"));
        }
        if depth + 1 == self.bindings.len() && self.skips(items, frame, ctx)? {
            return Ok(());
        }
        for item in items.iter_mut() {
            std::mem::swap(&mut frame.slots[slot], item);
            frame.epochs[slot] += 1;
            let result = self.iterate(depth + 1, inner, frame, ctx, effect);
            std::mem::swap(&mut frame.slots[slot], item);
            result?;
        }
        Ok(())
    }

    /// The exact-emptiness guard: whether the innermost loop over `items`
    /// can be skipped because its hoisted operand is empty. The operand
    /// is the condition's first op, so evaluating it here raises exactly
    /// the error (if any) the first iteration would, and it is evaluated
    /// only when that first iteration exists.
    fn skips(
        &mut self,
        items: &[Value],
        frame: &mut Frame,
        ctx: &EvalContext<'_>,
    ) -> Result<bool, PrmlError> {
        if !self.guarded || items.is_empty() {
            return Ok(false);
        }
        let Some(CStmt::If { condition, .. }) = self.body.first() else {
            return Ok(false);
        };
        let Some(Op::Memo { id, key_slot, ops }) = condition.ops.first() else {
            return Ok(false);
        };
        let empty = match memo(*id, *key_slot, ops, frame, ctx)? {
            Value::Null => true,
            Value::Geometry(Geometry::Collection(c)) => c.is_empty(),
            Value::Collection(members) => members.is_empty(),
            _ => false,
        };
        Ok(empty
            && *self
                .innermost_total
                .get_or_insert_with(|| items.iter().all(|item| geometry_read_is_total(item, ctx))))
    }
}
