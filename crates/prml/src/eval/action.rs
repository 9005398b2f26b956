//! Execution of personalization actions.

use crate::ast::Action;
use crate::error::PrmlError;
use crate::eval::context::{EvalContext, RuleEffect};
use crate::eval::expr::evaluate;
use crate::eval::value::{InstanceSource, Value};
use crate::typecheck::become_spatial_level;
use sdwp_user::{assign_sus_path, SusPath};

/// Executes a single action, updating the context and recording the effect.
pub fn execute_action(
    action: &Action,
    ctx: &mut EvalContext<'_>,
    effect: &mut RuleEffect,
) -> Result<(), PrmlError> {
    match action {
        Action::AddLayer { name, geometry } => {
            // Registers the layer and materialises its table (idempotent
            // when the geometry matches), then populates it from the
            // external layer source the first time.
            ctx.cube
                .add_layer(name, *geometry)
                .map_err(|e| PrmlError::eval(&effect.rule, e.to_string()))?;
            let loaded = ctx
                .cube
                .layer_table(name)
                .is_ok_and(|t| !t.table.is_empty());
            if !loaded {
                if let Some(instances) = ctx.layer_source.layer_instances(name) {
                    for (instance_name, geometry) in instances {
                        ctx.cube
                            .add_layer_instance(name, instance_name, geometry)
                            .map_err(|e| PrmlError::eval(&effect.rule, e.to_string()))?;
                    }
                }
            }
            effect.added_layers.push((name.clone(), *geometry));
            Ok(())
        }
        Action::BecomeSpatial { element, geometry } => {
            let level = become_spatial_level(element).ok_or_else(|| {
                PrmlError::eval(&effect.rule, "BecomeSpatial element must be a path")
            })?;
            ctx.cube
                .become_spatial(&level, *geometry)
                .map_err(|e| PrmlError::eval(&effect.rule, e.to_string()))?;
            effect.become_spatial.push((level, *geometry));
            Ok(())
        }
        Action::SelectInstance { target } => {
            let rule_name = effect.rule.clone();
            let value = evaluate(target, ctx).map_err(|e| rename(e, &rule_name))?;
            select_value(&value, effect, &rule_name)
        }
        Action::SetContent { target, value } => {
            let segments = target
                .as_path()
                .ok_or_else(|| PrmlError::eval(&effect.rule, "SetContent target must be a path"))?;
            if !segments
                .first()
                .map(|s| s.eq_ignore_ascii_case("SUS"))
                .unwrap_or(false)
            {
                return Err(PrmlError::eval(
                    &effect.rule,
                    format!(
                        "SetContent target '{}' must be a SUS (user model) path",
                        segments.join(".")
                    ),
                ));
            }
            let new_value = evaluate(value, ctx).map_err(|e| rename(e, &effect.rule))?;
            let path = SusPath::parse(&segments.join("."))
                .map_err(|e| PrmlError::eval(&effect.rule, e.to_string()))?;
            assign_sus_path(ctx.profile, &path, new_value.into_user())
                .map_err(|e| PrmlError::eval(&effect.rule, e.to_string()))?;
            effect.set_contents += 1;
            Ok(())
        }
    }
}

/// Registers a selected value (an instance or a collection of instances) in
/// the rule effect. Geometries and other scalars cannot be selected.
pub(crate) fn select_value(
    value: &Value,
    effect: &mut RuleEffect,
    rule: &str,
) -> Result<(), PrmlError> {
    match value {
        Value::Instance(instance) => {
            match &instance.source {
                InstanceSource::Level { dimension, .. } => {
                    effect
                        .selections
                        .entry(dimension.clone())
                        .or_default()
                        .insert(instance.row);
                }
                InstanceSource::Layer { layer } => {
                    effect
                        .layer_selections
                        .entry(layer.clone())
                        .or_default()
                        .insert(instance.row);
                }
            }
            Ok(())
        }
        Value::Collection(members) => {
            for member in members {
                select_value(member, effect, rule)?;
            }
            Ok(())
        }
        other => Err(PrmlError::eval(
            rule,
            format!(
                "SelectInstance expects an instance, got a {}",
                other.type_name()
            ),
        )),
    }
}

/// Attaches a rule name to errors raised by nested evaluation.
pub(crate) fn rename(error: PrmlError, rule: &str) -> PrmlError {
    match error {
        PrmlError::Eval { rule: r, message } if r.is_empty() => PrmlError::Eval {
            rule: rule.to_string(),
            message,
        },
        other => other,
    }
}
