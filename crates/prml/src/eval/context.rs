//! The evaluation context: everything a rule can read or modify.

use crate::eval::value::Value;
use sdwp_geometry::{GeometricType, Geometry};
use sdwp_olap::Cube;
use sdwp_user::{Session, UserProfile};
use std::collections::{BTreeMap, BTreeSet};

/// Provides instance data for external geographic layers.
///
/// When an `AddLayer` action introduces a layer (e.g. `Airport`), the data
/// for that layer comes from *outside* the analysed domain — spatial data
/// infrastructures, geoportals, volunteered geographic information in the
/// paper's terms. Implementations of this trait play that role: the core
/// engine wires its layer registry in, the data generator wires synthetic
/// layers in.
pub trait LayerSource {
    /// Returns the named layer's instances as `(name, geometry)` pairs, or
    /// `None` when the source does not know the layer.
    fn layer_instances(&self, layer: &str) -> Option<Vec<(String, Geometry)>>;
}

/// A [`LayerSource`] that knows no layers (useful in tests and when all
/// layers are pre-materialised in the cube).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoExternalLayers;

impl LayerSource for NoExternalLayers {
    fn layer_instances(&self, _layer: &str) -> Option<Vec<(String, Geometry)>> {
        None
    }
}

/// A [`LayerSource`] backed by an in-memory map, keyed case-insensitively
/// by layer name.
#[derive(Debug, Clone, Default)]
pub struct StaticLayerSource {
    layers: BTreeMap<String, Vec<(String, Geometry)>>,
}

impl StaticLayerSource {
    /// Creates an empty source.
    pub fn new() -> Self {
        StaticLayerSource::default()
    }

    /// Registers (or replaces) a layer's instances.
    pub fn insert(
        &mut self,
        layer: impl Into<String>,
        instances: Vec<(String, Geometry)>,
    ) -> &mut Self {
        self.layers.insert(layer.into().to_lowercase(), instances);
        self
    }
}

impl LayerSource for StaticLayerSource {
    fn layer_instances(&self, layer: &str) -> Option<Vec<(String, Geometry)>> {
        self.layers.get(&layer.to_lowercase()).cloned()
    }
}

/// The effects one rule produced when it fired.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RuleEffect {
    /// The rule that fired.
    pub rule: String,
    /// Layers added by `AddLayer`, with their geometric types.
    pub added_layers: Vec<(String, GeometricType)>,
    /// Levels made spatial by `BecomeSpatial`, with their geometric types.
    pub become_spatial: Vec<(String, GeometricType)>,
    /// Dimension members selected by `SelectInstance`, keyed by
    /// dimension name — the only restriction a rule can put into a
    /// session view (rule expressions cannot name a fact, so no rule
    /// selects fact rows).
    pub selections: BTreeMap<String, BTreeSet<usize>>,
    /// Layer instances selected by `SelectInstance`, per layer.
    pub layer_selections: BTreeMap<String, BTreeSet<usize>>,
    /// Number of `SetContent` updates applied to the user model.
    pub set_contents: usize,
}

impl RuleEffect {
    /// Creates an empty effect record for a rule.
    pub fn new(rule: impl Into<String>) -> Self {
        RuleEffect {
            rule: rule.into(),
            ..RuleEffect::default()
        }
    }

    /// Returns `true` when the rule changed the schema.
    pub fn changed_schema(&self) -> bool {
        !self.added_layers.is_empty() || !self.become_spatial.is_empty()
    }

    /// Returns `true` when the rule selected instances.
    pub fn selected_instances(&self) -> bool {
        self.selections.values().any(|s| !s.is_empty())
            || self.layer_selections.values().any(|s| !s.is_empty())
    }
}

/// Everything a rule evaluation can read and modify: the cube (schema and
/// instances), the decision maker's profile, the current session, external
/// layer data, designer parameters and the loop-variable scope.
pub struct EvalContext<'a> {
    /// The cube being personalized (schema + instance data).
    pub cube: &'a mut Cube,
    /// The decision maker's profile (read by conditions, updated by
    /// `SetContent`).
    pub profile: &'a mut UserProfile,
    /// The current analysis session, when one is active.
    pub session: Option<&'a Session>,
    /// External layer data used to populate layers created by `AddLayer`.
    pub layer_source: &'a dyn LayerSource,
    /// Designer-defined parameters referenced by bare identifiers in rule
    /// text (e.g. the `threshold` of Example 5.3).
    pub parameters: BTreeMap<String, f64>,
    variables: Vec<(String, Value)>,
}

impl<'a> EvalContext<'a> {
    /// Creates a context over a cube and a profile, with no session, no
    /// external layers and no parameters.
    pub fn new(cube: &'a mut Cube, profile: &'a mut UserProfile) -> Self {
        EvalContext {
            cube,
            profile,
            session: None,
            layer_source: &NoExternalLayers,
            parameters: BTreeMap::new(),
            variables: Vec::new(),
        }
    }

    /// Sets the active session.
    pub fn with_session(mut self, session: &'a Session) -> Self {
        self.session = Some(session);
        self
    }

    /// Sets the external layer source.
    pub fn with_layer_source(mut self, source: &'a dyn LayerSource) -> Self {
        self.layer_source = source;
        self
    }

    /// Defines a designer parameter (e.g. `threshold`).
    pub fn with_parameter(mut self, name: impl Into<String>, value: f64) -> Self {
        self.parameters.insert(name.into().to_lowercase(), value);
        self
    }

    /// Looks up a designer parameter.
    pub fn parameter(&self, name: &str) -> Option<f64> {
        self.parameters.get(&name.to_lowercase()).copied()
    }

    /// Pushes a loop-variable binding.
    pub fn push_variable(&mut self, name: impl Into<String>, value: Value) {
        self.variables.push((name.into(), value));
    }

    /// Pops the most recent binding of the named variable.
    pub fn pop_variable(&mut self, name: &str) {
        if let Some(index) = self.variables.iter().rposition(|(n, _)| n == name) {
            self.variables.remove(index);
        }
    }

    /// Looks up a loop variable (innermost binding wins).
    pub fn variable(&self, name: &str) -> Option<&Value> {
        self.variables
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdwp_geometry::Point;
    use sdwp_model::{AttributeType, DimensionBuilder, FactBuilder, SchemaBuilder};

    fn cube() -> Cube {
        Cube::new(
            SchemaBuilder::new("DW")
                .dimension(
                    DimensionBuilder::new("Store")
                        .simple_level("Store", "name")
                        .build(),
                )
                .fact(
                    FactBuilder::new("Sales")
                        .measure("UnitSales", AttributeType::Float)
                        .dimension("Store")
                        .build(),
                )
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn variable_scoping() {
        let mut cube = cube();
        let mut profile = UserProfile::new("u", "U");
        let mut ctx = EvalContext::new(&mut cube, &mut profile);
        assert!(ctx.variable("s").is_none());
        ctx.push_variable("s", Value::Number(1.0));
        ctx.push_variable("s", Value::Number(2.0));
        assert_eq!(ctx.variable("s"), Some(&Value::Number(2.0)));
        ctx.pop_variable("s");
        assert_eq!(ctx.variable("s"), Some(&Value::Number(1.0)));
        ctx.pop_variable("s");
        assert!(ctx.variable("s").is_none());
        ctx.pop_variable("s"); // popping a missing variable is a no-op
    }

    #[test]
    fn parameters_are_case_insensitive() {
        let mut cube = cube();
        let mut profile = UserProfile::new("u", "U");
        let ctx = EvalContext::new(&mut cube, &mut profile).with_parameter("Threshold", 3.0);
        assert_eq!(ctx.parameter("threshold"), Some(3.0));
        assert_eq!(ctx.parameter("THRESHOLD"), Some(3.0));
        assert_eq!(ctx.parameter("other"), None);
    }

    #[test]
    fn layer_sources() {
        assert!(NoExternalLayers.layer_instances("Airport").is_none());
        let mut source = StaticLayerSource::new();
        source.insert(
            "Airport",
            vec![("ALC".to_string(), Point::new(1.0, 2.0).into())],
        );
        let instances = source.layer_instances("airport").unwrap();
        assert_eq!(instances.len(), 1);
        assert_eq!(instances[0].0, "ALC");
        assert!(source.layer_instances("Train").is_none());
    }

    #[test]
    fn rule_effect_queries() {
        let mut effect = RuleEffect::new("addSpatiality");
        assert!(!effect.changed_schema());
        assert!(!effect.selected_instances());
        effect
            .added_layers
            .push(("Airport".into(), GeometricType::Point));
        assert!(effect.changed_schema());
        effect
            .selections
            .entry("Store".into())
            .or_default()
            .extend([1, 2, 3]);
        assert!(effect.selected_instances());
    }
}
