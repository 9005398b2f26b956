//! Expression evaluation.

use crate::ast::{BinaryOp, Expr, UnaryOp};
use crate::error::PrmlError;
use crate::eval::context::EvalContext;
use crate::eval::value::{InstanceRef, InstanceSource, Value};
use sdwp_geometry::{distance, intersection, measures, predicates, Geometry, GeometryCollection};
use sdwp_model::{PathExpr, PathPrefix, PathResolver, PathTarget};
use sdwp_olap::cube::{attribute_column, geometry_column};
use sdwp_user::{resolve_sus_path, SusPath};
use std::borrow::Cow;
use std::cell::Cell;

thread_local! {
    static INTERSECTION_CALLS: Cell<u64> = const { Cell::new(0) };
    static DISTANCE_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// How many `Intersection` calls rule evaluation has made on the calling
/// thread so far, interpreted and compiled alike: the work count of
/// Example 5.3's loop, which the compiled form makes once per (train,
/// city) pair plus once per airport of each pair that intersects.
pub fn intersection_calls() -> u64 {
    INTERSECTION_CALLS.with(Cell::get)
}

/// How many `Distance` evaluations rule evaluation has made on the calling
/// thread so far, interpreted and compiled alike: the work count of
/// Example 5.2's loop, which the interpreter makes once per store and the
/// compiled range probe once per candidate of its level index (the exact
/// distances [`sdwp_olap::spatial::members_within_distance_indexed`]
/// refines them with).
pub fn distance_calls() -> u64 {
    DISTANCE_CALLS.with(Cell::get)
}

/// Adds `n` evaluations to [`distance_calls`].
pub(crate) fn count_distance_calls(n: u64) {
    DISTANCE_CALLS.with(|calls| calls.set(calls.get() + n));
}

/// Evaluates an expression in the given context.
pub fn evaluate(expr: &Expr, ctx: &EvalContext<'_>) -> Result<Value, PrmlError> {
    match expr {
        Expr::Number(n) => Ok(Value::Number(*n)),
        Expr::Text(s) => Ok(Value::Text(s.clone())),
        Expr::Boolean(b) => Ok(Value::Boolean(*b)),
        Expr::GeometricType(g) => Ok(Value::GeometricType(*g)),
        Expr::Path(segments) => evaluate_path(segments, ctx),
        Expr::Unary { op, operand } => {
            let value = evaluate(operand, ctx)?;
            unary_value(*op, &value)
        }
        Expr::Binary { op, left, right } => evaluate_binary(*op, left, right, ctx),
        Expr::Call { function, args } => evaluate_call(function, args, ctx),
    }
}

/// Evaluates an expression and requires a boolean result (rule conditions).
pub fn evaluate_condition(expr: &Expr, ctx: &EvalContext<'_>) -> Result<bool, PrmlError> {
    let value = evaluate(expr, ctx)?;
    value.as_bool().ok_or_else(|| {
        PrmlError::eval(
            "",
            format!(
                "condition evaluated to {} instead of a boolean",
                value.type_name()
            ),
        )
    })
}

pub(crate) fn type_error(expected: &str, found: &Value) -> PrmlError {
    PrmlError::eval(
        "",
        format!("expected a {expected}, found {}", found.type_name()),
    )
}

fn evaluate_binary(
    op: BinaryOp,
    left: &Expr,
    right: &Expr,
    ctx: &EvalContext<'_>,
) -> Result<Value, PrmlError> {
    let lhs = evaluate(left, ctx)?;
    let rhs = evaluate(right, ctx)?;
    binary_values(op, &lhs, &rhs)
}

/// Applies a unary operator to an already-evaluated operand — the single
/// semantic kernel shared by the AST interpreter and the compiled
/// instruction stream, so the two paths cannot drift apart.
pub(crate) fn unary_value(op: UnaryOp, value: &Value) -> Result<Value, PrmlError> {
    match op {
        UnaryOp::Neg => value
            .as_number()
            .map(|n| Value::Number(-n))
            .ok_or_else(|| type_error("number", value)),
        UnaryOp::Not => value
            .as_bool()
            .map(|b| Value::Boolean(!b))
            .ok_or_else(|| type_error("boolean", value)),
    }
}

/// Applies a binary operator to already-evaluated operands (both sides are
/// always evaluated first — `And`/`Or` do not short-circuit). Shared by
/// the interpreter and the compiled executor, including constant folding
/// at compile time.
pub(crate) fn binary_values(op: BinaryOp, lhs: &Value, rhs: &Value) -> Result<Value, PrmlError> {
    match op {
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div => {
            let a = lhs.as_number().ok_or_else(|| type_error("number", lhs))?;
            let b = rhs.as_number().ok_or_else(|| type_error("number", rhs))?;
            let result = match op {
                BinaryOp::Add => a + b,
                BinaryOp::Sub => a - b,
                BinaryOp::Mul => a * b,
                BinaryOp::Div => {
                    if b == 0.0 {
                        return Err(PrmlError::eval("", "division by zero"));
                    }
                    a / b
                }
                _ => unreachable!(),
            };
            Ok(Value::Number(result))
        }
        BinaryOp::And | BinaryOp::Or => {
            let a = lhs.as_bool().ok_or_else(|| type_error("boolean", lhs))?;
            let b = rhs.as_bool().ok_or_else(|| type_error("boolean", rhs))?;
            Ok(Value::Boolean(if op == BinaryOp::And {
                a && b
            } else {
                a || b
            }))
        }
        BinaryOp::Eq | BinaryOp::Ne => {
            let equal = values_equal(lhs, rhs);
            Ok(Value::Boolean(if op == BinaryOp::Eq {
                equal
            } else {
                !equal
            }))
        }
        BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge => {
            let ordering = compare_values(lhs, rhs).ok_or_else(|| {
                PrmlError::eval(
                    "",
                    format!(
                        "cannot order {} against {}",
                        lhs.type_name(),
                        rhs.type_name()
                    ),
                )
            })?;
            use std::cmp::Ordering::*;
            let result = match op {
                BinaryOp::Lt => ordering == Less,
                BinaryOp::Le => ordering != Greater,
                BinaryOp::Gt => ordering == Greater,
                BinaryOp::Ge => ordering != Less,
                _ => unreachable!(),
            };
            Ok(Value::Boolean(result))
        }
    }
}

fn values_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => (x - y).abs() < 1e-12,
        (Value::Text(x), Value::Text(y)) => x == y,
        (Value::Boolean(x), Value::Boolean(y)) => x == y,
        (Value::GeometricType(x), Value::GeometricType(y)) => x == y,
        (Value::Geometry(x), Value::Geometry(y)) => predicates::equals(x, y),
        (Value::Instance(x), Value::Instance(y)) => x == y,
        (Value::Null, Value::Null) => true,
        _ => false,
    }
}

fn compare_values(a: &Value, b: &Value) -> Option<std::cmp::Ordering> {
    match (a, b) {
        (Value::Text(x), Value::Text(y)) => Some(x.cmp(y)),
        _ => {
            let x = a.as_number()?;
            let y = b.as_number()?;
            x.partial_cmp(&y)
        }
    }
}

fn evaluate_path(segments: &[String], ctx: &EvalContext<'_>) -> Result<Value, PrmlError> {
    let head = segments
        .first()
        .ok_or_else(|| PrmlError::eval("", "empty path expression"))?;

    // 1. SUS.* — the user model.
    if head.eq_ignore_ascii_case("SUS") {
        let path =
            SusPath::parse(&segments.join(".")).map_err(|e| PrmlError::eval("", e.to_string()))?;
        let value = resolve_sus_path(ctx.profile, ctx.session, &path)
            .map_err(|e| PrmlError::eval("", e.to_string()))?;
        return Ok(Value::from_user(value));
    }

    // 2. MD.* / GeoMD.* — the multidimensional model.
    if head.eq_ignore_ascii_case("MD") || head.eq_ignore_ascii_case("GeoMD") {
        return evaluate_model_path(segments, ctx);
    }

    // 3. Loop variable (possibly with property access).
    if let Some(value) = ctx.variable(head) {
        let value = value.clone();
        if segments.len() == 1 {
            return Ok(value);
        }
        return access_properties(&value, &segments[1..], ctx);
    }

    // 4. Designer parameter.
    if segments.len() == 1 {
        if let Some(parameter) = ctx.parameter(head) {
            return Ok(Value::Number(parameter));
        }
    }

    Err(PrmlError::eval(
        "",
        format!(
            "'{}' is not a model path, loop variable or parameter",
            segments.join(".")
        ),
    ))
}

pub(crate) fn evaluate_model_path(
    segments: &[String],
    ctx: &EvalContext<'_>,
) -> Result<Value, PrmlError> {
    let prefix = PathPrefix::parse(&segments[0]).unwrap_or(PathPrefix::GeoMd);
    let expr = PathExpr::new(prefix, segments[1..].to_vec());
    let target = PathResolver::new(ctx.cube.schema())
        .resolve(&expr)
        .map_err(|e| PrmlError::eval("", e.to_string()))?;
    let olap_err = |e: sdwp_olap::OlapError| PrmlError::eval("", e.to_string());

    match target {
        PathTarget::Level { dimension, level } => {
            let table = &ctx
                .cube
                .dimension_table(&dimension)
                .map_err(olap_err)?
                .table;
            let instances = (0..table.len())
                .map(|row| {
                    Value::Instance(InstanceRef::level(dimension.clone(), level.clone(), row))
                })
                .collect();
            Ok(Value::Collection(instances))
        }
        PathTarget::Layer { layer } => {
            let table = &ctx.cube.layer_table(&layer).map_err(olap_err)?.table;
            let instances = (0..table.len())
                .map(|row| Value::Instance(InstanceRef::layer(layer.clone(), row)))
                .collect();
            Ok(Value::Collection(instances))
        }
        PathTarget::LevelGeometry { dimension, level } => {
            let table = &ctx
                .cube
                .dimension_table(&dimension)
                .map_err(olap_err)?
                .table;
            let column = table.column(&geometry_column(&level)).map_err(olap_err)?;
            let geometries = (0..table.len())
                .filter_map(|row| column.get_geometry(row).cloned())
                .map(Value::Geometry)
                .collect();
            Ok(Value::Collection(geometries))
        }
        PathTarget::LayerGeometry { layer } => {
            let table = &ctx.cube.layer_table(&layer).map_err(olap_err)?.table;
            let column = table.column("geometry").map_err(olap_err)?;
            let geometries = (0..table.len())
                .filter_map(|row| column.get_geometry(row).cloned())
                .map(Value::Geometry)
                .collect();
            Ok(Value::Collection(geometries))
        }
        PathTarget::LevelAttribute {
            dimension,
            level,
            attribute,
        } => {
            let table = &ctx
                .cube
                .dimension_table(&dimension)
                .map_err(olap_err)?
                .table;
            let column_name = attribute_column(&level, &attribute);
            let values = (0..table.len())
                .map(|row| {
                    table
                        .get(row, &column_name)
                        .map(Value::from_cell)
                        .map_err(olap_err)
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Value::Collection(values))
        }
        PathTarget::Fact { fact } | PathTarget::Measure { fact, .. } => Err(PrmlError::eval(
            "",
            format!("fact '{fact}' cannot be used directly in a rule expression"),
        )),
        PathTarget::Dimension { dimension } => {
            let dim =
                ctx.cube.schema().dimension(&dimension).ok_or_else(|| {
                    PrmlError::eval("", format!("unknown dimension '{dimension}'"))
                })?;
            let leaf = dim
                .leaf_level()
                .map(|l| l.name.clone())
                .unwrap_or_else(|| dimension.clone());
            let table = &ctx
                .cube
                .dimension_table(&dimension)
                .map_err(olap_err)?
                .table;
            let instances = (0..table.len())
                .map(|row| {
                    Value::Instance(InstanceRef::level(dimension.clone(), leaf.clone(), row))
                })
                .collect();
            Ok(Value::Collection(instances))
        }
    }
}

/// Accesses properties of a value (e.g. `s.geometry`, `c.name`).
pub(crate) fn access_properties(
    value: &Value,
    properties: &[String],
    ctx: &EvalContext<'_>,
) -> Result<Value, PrmlError> {
    let Some((first, rest)) = properties.split_first() else {
        return Ok(value.clone());
    };
    let mut current = access_property(value, first, ctx)?;
    for property in rest {
        current = access_property(&current, property, ctx)?;
    }
    Ok(current)
}

/// The cell `.geometry` reads for an instance, borrowed from its table:
/// `Ok(None)` for a null cell, `Err(..)` when the table or its geometry
/// column is missing.
fn geometry_cell<'c>(
    instance: &InstanceRef,
    ctx: &'c EvalContext<'_>,
) -> Result<Option<&'c Geometry>, PrmlError> {
    let column = match &instance.source {
        InstanceSource::Level { dimension, level } => ctx
            .cube
            .dimension_table(dimension)
            .and_then(|t| t.table.column(&geometry_column(level))),
        InstanceSource::Layer { layer } => ctx
            .cube
            .layer_table(layer)
            .and_then(|t| t.table.column("geometry")),
    };
    column
        .map(|column| column.get_geometry(instance.row))
        .map_err(|e| PrmlError::eval("", e.to_string()))
}

/// Whether reading `.geometry` off this value yields a geometry or null
/// and cannot fail — what lets a planner skip evaluating it.
pub(crate) fn geometry_read_is_total(value: &Value, ctx: &EvalContext<'_>) -> bool {
    match value {
        Value::Geometry(_) => true,
        Value::Instance(instance) => geometry_cell(instance, ctx).is_ok(),
        _ => false,
    }
}

fn access_property(
    value: &Value,
    property: &str,
    ctx: &EvalContext<'_>,
) -> Result<Value, PrmlError> {
    let olap_err = |e: sdwp_olap::OlapError| PrmlError::eval("", e.to_string());
    if property.eq_ignore_ascii_case("geometry") {
        if let Value::Instance(instance) = value {
            return Ok(geometry_cell(instance, ctx)?
                .cloned()
                .map(Value::Geometry)
                .unwrap_or(Value::Null));
        }
    }
    match value {
        Value::Instance(instance) => match &instance.source {
            InstanceSource::Level { dimension, level } => {
                let table = &ctx.cube.dimension_table(dimension).map_err(olap_err)?.table;
                // Attribute of the instance's level, falling back to any
                // level of the dimension that declares the attribute.
                let direct = attribute_column(level, property);
                if table.column_index(&direct).is_some() {
                    return Ok(Value::from_cell(
                        table.get(instance.row, &direct).map_err(olap_err)?,
                    ));
                }
                let dim = ctx.cube.schema().dimension(dimension).ok_or_else(|| {
                    PrmlError::eval("", format!("unknown dimension '{dimension}'"))
                })?;
                for other_level in &dim.levels {
                    let column = attribute_column(&other_level.name, property);
                    if table.column_index(&column).is_some() {
                        return Ok(Value::from_cell(
                            table.get(instance.row, &column).map_err(olap_err)?,
                        ));
                    }
                }
                Err(PrmlError::eval(
                    "",
                    format!("instance of level '{level}' has no property '{property}'"),
                ))
            }
            InstanceSource::Layer { layer } => {
                let table = &ctx.cube.layer_table(layer).map_err(olap_err)?.table;
                if property.eq_ignore_ascii_case("name") {
                    return Ok(Value::from_cell(
                        table.get(instance.row, "name").map_err(olap_err)?,
                    ));
                }
                Err(PrmlError::eval(
                    "",
                    format!("layer instance has no property '{property}'"),
                ))
            }
        },
        Value::Geometry(_) if property.eq_ignore_ascii_case("geometry") => Ok(value.clone()),
        other => Err(PrmlError::eval(
            "",
            format!("cannot access '{property}' on a {}", other.type_name()),
        )),
    }
}

/// Materialises any value into a geometry: geometries pass through and
/// instances read their geometry cell, both borrowed; collections become
/// geometry collections of their members' geometries.
pub fn geometry_of<'a>(
    value: &'a Value,
    ctx: &'a EvalContext<'_>,
) -> Result<Cow<'a, Geometry>, PrmlError> {
    match value {
        Value::Geometry(g) => Ok(Cow::Borrowed(g)),
        Value::Instance(instance) => geometry_cell(instance, ctx)?
            .map(Cow::Borrowed)
            .ok_or_else(|| PrmlError::eval("", "instance has no geometry value")),
        Value::Collection(members) => {
            let mut collection = GeometryCollection::empty();
            for member in members {
                collection.push(geometry_of(member, ctx)?.into_owned());
            }
            Ok(Cow::Owned(Geometry::Collection(collection)))
        }
        other => Err(type_error("geometry", other)),
    }
}

fn evaluate_call(function: &str, args: &[Expr], ctx: &EvalContext<'_>) -> Result<Value, PrmlError> {
    let values: Vec<Value> = args
        .iter()
        .map(|a| evaluate(a, ctx))
        .collect::<Result<_, _>>()?;
    call_values(&function.to_ascii_lowercase(), function, &values, ctx)
}

/// Applies an operator to already-evaluated arguments — shared by the
/// interpreter and the compiled executor. `name` is the operator name
/// ASCII-lowercased (the dispatch key); `display` is the name as written,
/// for error messages.
pub(crate) fn call_values(
    name: &str,
    display: &str,
    values: &[Value],
    ctx: &EvalContext<'_>,
) -> Result<Value, PrmlError> {
    match name {
        "distance" => {
            count_distance_calls(1);
            match values.len() {
                // One argument: the length of "the corresponding segment"
                // (paper, Example 5.3) — for a collection produced by nested
                // Intersection calls this is the length of its shortest member
                // (an empty collection yields +∞ so threshold conditions fail).
                1 => {
                    let g = geometry_of(&values[0], ctx)?;
                    let length = match g.as_ref() {
                        Geometry::Collection(members) if members.is_empty() => f64::INFINITY,
                        Geometry::Collection(members) => members
                            .iter()
                            .map(measures::length)
                            .fold(f64::INFINITY, f64::min),
                        other => measures::length(other),
                    };
                    Ok(Value::Number(length))
                }
                2 => {
                    // Missing operands (e.g. the user reported no location)
                    // yield an infinite distance so threshold conditions fail
                    // gracefully instead of aborting the session.
                    if values.iter().any(Value::is_null) {
                        return Ok(Value::Number(f64::INFINITY));
                    }
                    let a = geometry_of(&values[0], ctx)?;
                    let b = geometry_of(&values[1], ctx)?;
                    Ok(Value::Number(distance::euclidean(&a, &b)))
                }
                n => Err(PrmlError::eval(
                    "",
                    format!("Distance expects 1 or 2 arguments, got {n}"),
                )),
            }
        }
        "intersection" => {
            INTERSECTION_CALLS.with(|calls| calls.set(calls.get() + 1));
            if values.len() != 2 {
                return Err(PrmlError::eval(
                    "",
                    format!("Intersection expects 2 arguments, got {}", values.len()),
                ));
            }
            if values.iter().any(Value::is_null) {
                return Ok(Value::Geometry(Geometry::Collection(
                    GeometryCollection::empty(),
                )));
            }
            let a = geometry_of(&values[0], ctx)?;
            let b = geometry_of(&values[1], ctx)?;
            Ok(Value::Geometry(Geometry::Collection(
                intersection::intersection(&a, &b),
            )))
        }
        "length" => {
            let g = geometry_of(&values[0], ctx)?;
            Ok(Value::Number(measures::length(&g)))
        }
        "area" => {
            let g = geometry_of(&values[0], ctx)?;
            Ok(Value::Number(measures::area(&g)))
        }
        "centroid" => {
            let g = geometry_of(&values[0], ctx)?;
            let c = measures::centroid(&g).map_err(|e| PrmlError::eval("", e.to_string()))?;
            Ok(Value::Geometry(sdwp_geometry::Point::from_coord(c).into()))
        }
        _ => {
            // Topological predicates.
            if values.len() != 2 {
                return Err(PrmlError::eval(
                    "",
                    format!(
                        "operator '{display}' expects 2 arguments, got {}",
                        values.len()
                    ),
                ));
            }
            if values.iter().any(Value::is_null) {
                return Ok(Value::Boolean(false));
            }
            let a = geometry_of(&values[0], ctx)?;
            let b = geometry_of(&values[1], ctx)?;
            predicates::evaluate_named(name, &a, &b)
                .map(Value::Boolean)
                .ok_or_else(|| PrmlError::eval("", format!("unknown operator '{display}'")))
        }
    }
}
