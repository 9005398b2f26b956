//! PRML-style path expressions over the MD / GeoMD models.
//!
//! The paper navigates models with OCL-like path expressions:
//!
//! * `MD.Sales.Store.State.name` — from the `Sales` fact through the
//!   `Store` dimension up to the `State` level's `name` descriptor;
//! * `GeoMD.Sales.Store.geometry` — the geometric description of the
//!   `Store` spatial level;
//! * `GeoMD.Airport.geometry` — the geometry of the `Airport` layer;
//! * `GeoMD.Store.City` — the `City` level itself (used as the range of a
//!   `Foreach` iteration).
//!
//! [`PathExpr`] is the parsed expression and [`PathResolver`] resolves it
//! against a [`Schema`] into a typed [`PathTarget`]. Expressions with the
//! `SUS` prefix belong to the user model and are resolved by `sdwp-user`.

use crate::error::ModelError;
use crate::schema::Schema;
use std::fmt;

/// The model a path expression starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathPrefix {
    /// `MD.` — the plain multidimensional model.
    Md,
    /// `GeoMD.` — the geographic multidimensional model.
    GeoMd,
    /// `SUS.` — the spatial-aware user model (resolved elsewhere).
    Sus,
}

impl PathPrefix {
    /// Parses the textual prefix (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "md" => Some(PathPrefix::Md),
            "geomd" => Some(PathPrefix::GeoMd),
            "sus" => Some(PathPrefix::Sus),
            _ => None,
        }
    }
}

impl fmt::Display for PathPrefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathPrefix::Md => write!(f, "MD"),
            PathPrefix::GeoMd => write!(f, "GeoMD"),
            PathPrefix::Sus => write!(f, "SUS"),
        }
    }
}

/// A parsed path expression: a prefix plus dot-separated segments.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PathExpr {
    /// The model the path starts from.
    pub prefix: PathPrefix,
    /// The dot-separated navigation steps after the prefix.
    pub segments: Vec<String>,
}

impl PathExpr {
    /// Creates a path expression from a prefix and segments.
    pub fn new(prefix: PathPrefix, segments: Vec<String>) -> Self {
        PathExpr { prefix, segments }
    }

    /// Parses a textual path such as `"GeoMD.Store.City.geometry"`.
    pub fn parse(text: &str) -> Result<Self, ModelError> {
        let mut parts = text.split('.').map(str::trim);
        let prefix_text = parts.next().unwrap_or("");
        let prefix = PathPrefix::parse(prefix_text).ok_or_else(|| ModelError::PathResolution {
            path: text.to_string(),
            reason: format!("unknown prefix '{prefix_text}' (expected MD, GeoMD or SUS)"),
        })?;
        let segments: Vec<String> = parts.map(str::to_string).collect();
        if segments.is_empty() || segments.iter().any(String::is_empty) {
            return Err(ModelError::PathResolution {
                path: text.to_string(),
                reason: "path needs at least one non-empty segment after the prefix".into(),
            });
        }
        Ok(PathExpr { prefix, segments })
    }
}

impl fmt::Display for PathExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.prefix)?;
        for s in &self.segments {
            write!(f, ".{s}")?;
        }
        Ok(())
    }
}

/// The typed model element a path resolves to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathTarget {
    /// A fact class.
    Fact {
        /// Fact name.
        fact: String,
    },
    /// A measure of a fact.
    Measure {
        /// Fact name.
        fact: String,
        /// Measure name.
        measure: String,
    },
    /// A whole dimension.
    Dimension {
        /// Dimension name.
        dimension: String,
    },
    /// A hierarchy level (e.g. the range of a `Foreach`).
    Level {
        /// Dimension name.
        dimension: String,
        /// Level name.
        level: String,
    },
    /// A descriptive attribute of a level.
    LevelAttribute {
        /// Dimension name.
        dimension: String,
        /// Level name.
        level: String,
        /// Attribute name.
        attribute: String,
    },
    /// The geometric description of a spatial level.
    LevelGeometry {
        /// Dimension name.
        dimension: String,
        /// Level name.
        level: String,
    },
    /// A thematic layer.
    Layer {
        /// Layer name.
        layer: String,
    },
    /// The geometry of a thematic layer.
    LayerGeometry {
        /// Layer name.
        layer: String,
    },
}

impl PathTarget {
    /// Returns `true` when the target denotes a geometry-valued element.
    pub fn is_spatial(&self) -> bool {
        matches!(
            self,
            PathTarget::LevelGeometry { .. } | PathTarget::LayerGeometry { .. }
        )
    }
}

/// Resolves path expressions against a schema.
#[derive(Debug, Clone, Copy)]
pub struct PathResolver<'a> {
    schema: &'a Schema,
}

/// The keyword that selects the geometric description of an element.
pub const GEOMETRY_SEGMENT: &str = "geometry";

impl<'a> PathResolver<'a> {
    /// Creates a resolver over the given schema.
    pub fn new(schema: &'a Schema) -> Self {
        PathResolver { schema }
    }

    /// Resolves a parsed path expression to a typed target.
    pub fn resolve(&self, expr: &PathExpr) -> Result<PathTarget, ModelError> {
        if expr.prefix == PathPrefix::Sus {
            return Err(ModelError::PathResolution {
                path: expr.to_string(),
                reason: "SUS paths are resolved against the user model, not the schema".into(),
            });
        }
        let segs: Vec<&str> = expr.segments.iter().map(String::as_str).collect();
        let err = |reason: String| ModelError::PathResolution {
            path: expr.to_string(),
            reason,
        };

        let mut i = 0;
        let mut fact_name: Option<&str> = None;

        // Optional leading fact segment (the paper's MD paths start at the
        // fact class).
        if let Some(fact) = self.schema.fact(segs[0]) {
            fact_name = Some(fact.name.as_str());
            i = 1;
            if i < segs.len() {
                if let Some(measure) = fact.measure(segs[i]) {
                    if i + 1 != segs.len() {
                        return Err(err(format!(
                            "measure '{}' cannot be navigated further",
                            measure.name
                        )));
                    }
                    return Ok(PathTarget::Measure {
                        fact: fact.name.clone(),
                        measure: measure.name.clone(),
                    });
                }
            }
        }

        if i >= segs.len() {
            return match fact_name {
                Some(f) => Ok(PathTarget::Fact {
                    fact: f.to_string(),
                }),
                None => Err(err("empty path".into())),
            };
        }

        // Layer?
        if let Some(layer) = self.schema.layer(segs[i]) {
            i += 1;
            if i == segs.len() {
                return Ok(PathTarget::Layer {
                    layer: layer.name.clone(),
                });
            }
            if segs[i].eq_ignore_ascii_case(GEOMETRY_SEGMENT) && i + 1 == segs.len() {
                return Ok(PathTarget::LayerGeometry {
                    layer: layer.name.clone(),
                });
            }
            return Err(err(format!(
                "layer '{}' only supports the '.geometry' navigation",
                layer.name
            )));
        }

        // Dimension (or directly a level of some dimension).
        let (dimension, mut level) = if let Some(dim) = self.schema.dimension(segs[i]) {
            let leaf = dim.leaf_level().ok_or_else(|| ModelError::EmptyDimension {
                dimension: dim.name.clone(),
            })?;
            (dim, leaf)
        } else if let Some((dim_name, level)) = self.schema.find_level(segs[i]) {
            let dim = self
                .schema
                .dimension(dim_name)
                .expect("find_level returned an existing dimension");
            (dim, level)
        } else {
            return Err(err(format!(
                "'{}' is not a fact, dimension, level or layer of schema '{}'",
                segs[i], self.schema.name
            )));
        };
        i += 1;

        while i < segs.len() {
            let seg = segs[i];
            let is_last = i + 1 == segs.len();
            if seg.eq_ignore_ascii_case(GEOMETRY_SEGMENT) {
                if !is_last {
                    return Err(err("'.geometry' must be the final segment".into()));
                }
                if !level.is_spatial() {
                    return Err(ModelError::NotSpatial {
                        element: format!("{}.{}", dimension.name, level.name),
                    });
                }
                return Ok(PathTarget::LevelGeometry {
                    dimension: dimension.name.clone(),
                    level: level.name.clone(),
                });
            }
            if let Some(next_level) = dimension.level(seg) {
                level = next_level;
                i += 1;
                continue;
            }
            if let Some(attr) = level.attribute(seg) {
                if !is_last {
                    return Err(err(format!(
                        "attribute '{}' cannot be navigated further",
                        attr.name
                    )));
                }
                return Ok(PathTarget::LevelAttribute {
                    dimension: dimension.name.clone(),
                    level: level.name.clone(),
                    attribute: attr.name.clone(),
                });
            }
            return Err(err(format!(
                "'{}' is neither a level of dimension '{}' nor an attribute of level '{}'",
                seg, dimension.name, level.name
            )));
        }

        Ok(PathTarget::Level {
            dimension: dimension.name.clone(),
            level: level.name.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::{Attribute, AttributeType};
    use crate::builder::{DimensionBuilder, FactBuilder, SchemaBuilder};
    use sdwp_geometry::GeometricType;

    fn resolve(r: &PathResolver<'_>, text: &str) -> Result<PathTarget, ModelError> {
        r.resolve(&PathExpr::parse(text)?)
    }

    /// A schema close to Fig. 6 of the paper: Sales fact, Store dimension
    /// with Store→City→State hierarchy (Store spatial), an Airport layer.
    fn geomd_schema() -> Schema {
        SchemaBuilder::new("SalesDW")
            .dimension(
                DimensionBuilder::new("Store")
                    .level(
                        "Store",
                        vec![
                            Attribute::descriptor("name", AttributeType::Text),
                            Attribute::new("address", AttributeType::Text),
                        ],
                    )
                    .spatial_level("City", "name", GeometricType::Point)
                    .simple_level("State", "name")
                    .build(),
            )
            .dimension(
                DimensionBuilder::new("Time")
                    .simple_level("Day", "date")
                    .build(),
            )
            .fact(
                FactBuilder::new("Sales")
                    .measure("UnitSales", AttributeType::Float)
                    .measure("StoreCost", AttributeType::Float)
                    .dimension("Store")
                    .dimension("Time")
                    .build(),
            )
            .layer("Airport", GeometricType::Point)
            .build()
            .unwrap()
    }

    #[test]
    fn parse_and_display() {
        let p = PathExpr::parse("GeoMD.Store.City.geometry").unwrap();
        assert_eq!(p.prefix, PathPrefix::GeoMd);
        assert_eq!(p.segments.len(), 3);
        assert_eq!(p.to_string(), "GeoMD.Store.City.geometry");
        assert!(PathExpr::parse("Bogus.X").is_err());
        assert!(PathExpr::parse("MD.").is_err());
        assert!(PathExpr::parse("MD").is_err());
        assert_eq!(
            PathExpr::parse("sus.DecisionMaker.name").unwrap().prefix,
            PathPrefix::Sus
        );
    }

    #[test]
    fn resolve_measure_via_fact() {
        let schema = geomd_schema();
        let r = PathResolver::new(&schema);
        let t = resolve(&r, "MD.Sales.UnitSales").unwrap();
        assert_eq!(
            t,
            PathTarget::Measure {
                fact: "Sales".into(),
                measure: "UnitSales".into()
            }
        );
    }

    #[test]
    fn resolve_fact_alone() {
        let schema = geomd_schema();
        let r = PathResolver::new(&schema);
        assert_eq!(
            resolve(&r, "MD.Sales").unwrap(),
            PathTarget::Fact {
                fact: "Sales".into()
            }
        );
    }

    #[test]
    fn resolve_attribute_through_hierarchy() {
        let schema = geomd_schema();
        let r = PathResolver::new(&schema);
        // Paper example: MD.Sale.Store.State.name (with our fact named Sales).
        let t = resolve(&r, "MD.Sales.Store.State.name").unwrap();
        assert_eq!(
            t,
            PathTarget::LevelAttribute {
                dimension: "Store".into(),
                level: "State".into(),
                attribute: "name".into()
            }
        );
        // Leaf level attribute without climbing.
        let t2 = resolve(&r, "MD.Sales.Store.address").unwrap();
        assert_eq!(
            t2,
            PathTarget::LevelAttribute {
                dimension: "Store".into(),
                level: "Store".into(),
                attribute: "address".into()
            }
        );
    }

    #[test]
    fn resolve_level_geometry() {
        let schema = geomd_schema();
        let r = PathResolver::new(&schema);
        let t = resolve(&r, "GeoMD.Store.City.geometry").unwrap();
        assert_eq!(
            t,
            PathTarget::LevelGeometry {
                dimension: "Store".into(),
                level: "City".into()
            }
        );
        assert!(t.is_spatial());
        // Geometry of a non-spatial level is an error.
        let err = resolve(&r, "GeoMD.Store.State.geometry").unwrap_err();
        assert!(matches!(err, ModelError::NotSpatial { .. }));
    }

    #[test]
    fn resolve_level_for_iteration() {
        let schema = geomd_schema();
        let r = PathResolver::new(&schema);
        // Paper: Foreach s in (GeoMD.Store)
        let t = resolve(&r, "GeoMD.Store").unwrap();
        assert_eq!(
            t,
            PathTarget::Level {
                dimension: "Store".into(),
                level: "Store".into()
            }
        );
        // Explicit coarser level.
        let t2 = resolve(&r, "GeoMD.Store.City").unwrap();
        assert_eq!(
            t2,
            PathTarget::Level {
                dimension: "Store".into(),
                level: "City".into()
            }
        );
    }

    #[test]
    fn resolve_level_directly_by_name() {
        let schema = geomd_schema();
        let r = PathResolver::new(&schema);
        // "City" is a level name, not a dimension name.
        let t = resolve(&r, "GeoMD.City.geometry").unwrap();
        assert_eq!(
            t,
            PathTarget::LevelGeometry {
                dimension: "Store".into(),
                level: "City".into()
            }
        );
    }

    #[test]
    fn resolve_layer_and_its_geometry() {
        let schema = geomd_schema();
        let r = PathResolver::new(&schema);
        assert_eq!(
            resolve(&r, "GeoMD.Airport").unwrap(),
            PathTarget::Layer {
                layer: "Airport".into()
            }
        );
        assert_eq!(
            resolve(&r, "GeoMD.Airport.geometry").unwrap(),
            PathTarget::LayerGeometry {
                layer: "Airport".into()
            }
        );
        assert!(resolve(&r, "GeoMD.Airport.runways").is_err());
    }

    #[test]
    fn resolution_errors() {
        let schema = geomd_schema();
        let r = PathResolver::new(&schema);
        assert!(resolve(&r, "MD.Returns.UnitSales").is_err());
        assert!(resolve(&r, "MD.Sales.Store.Country.name").is_err());
        assert!(resolve(&r, "MD.Sales.UnitSales.more").is_err());
        assert!(resolve(&r, "GeoMD.Store.City.geometry.x").is_err());
        assert!(resolve(&r, "SUS.DecisionMaker.name").is_err());
    }

    #[test]
    fn target_classification() {
        assert!(PathTarget::LayerGeometry { layer: "A".into() }.is_spatial());
        assert!(!PathTarget::Fact {
            fact: "Sales".into()
        }
        .is_spatial());
    }
}
