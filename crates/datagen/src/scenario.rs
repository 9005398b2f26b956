//! Assembly of the paper's running example: schema, cube, layers and user.

use crate::config::ScenarioConfig;
use crate::layers::GeneratedLayers;
use crate::retail::{state_of, RetailData};
use crate::spatial::{generate_cities, rng_for_seed};
use sdwp_model::{Attribute, AttributeType, DimensionBuilder, FactBuilder, Schema, SchemaBuilder};
use sdwp_olap::{CellValue, Cube};
use sdwp_prml::StaticLayerSource;
use sdwp_user::{Role, SpatialSelectionInterest, UserProfile};

/// The multidimensional model of the paper's Fig. 2: a Sales fact analysed
/// by Customer, Store, Product and Time, with the Store dimension expanded
/// into the Store → City → State hierarchy. No spatiality yet — that is
/// what the personalization rules add.
pub fn sales_schema() -> Schema {
    SchemaBuilder::new("SalesDW")
        .dimension(
            DimensionBuilder::new("Store")
                .level(
                    "Store",
                    vec![
                        Attribute::descriptor("name", AttributeType::Text),
                        Attribute::new("address", AttributeType::Text),
                        Attribute::new("size_sqm", AttributeType::Integer),
                    ],
                )
                .simple_level("City", "name")
                .simple_level("State", "name")
                .build(),
        )
        .dimension(
            DimensionBuilder::new("Customer")
                .level(
                    "Customer",
                    vec![Attribute::descriptor("name", AttributeType::Text)],
                )
                .simple_level("City", "name")
                .build(),
        )
        .dimension(
            DimensionBuilder::new("Product")
                .simple_level("Product", "name")
                .simple_level("Category", "name")
                .build(),
        )
        .dimension(
            DimensionBuilder::new("Time")
                .level(
                    "Day",
                    vec![Attribute::descriptor("date", AttributeType::Date)],
                )
                .simple_level("Month", "name")
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
        .expect("the Fig. 2 schema is valid")
}

/// The decision maker of the paper's motivating example (Fig. 4): a
/// regional sales manager whose AirportCity spatial-selection interest is
/// tracked.
pub fn regional_sales_manager() -> UserProfile {
    UserProfile::new("regional-manager", "Regional Sales Manager")
        .with_role(Role::with_description(
            "RegionalSalesManager",
            "analyses sales of the stores in their region",
        ))
        .with_interest(SpatialSelectionInterest::with_condition(
            "AirportCity",
            "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry) < 20km",
        ))
}

/// A fully generated instance of the paper's running example.
#[derive(Debug, Clone)]
pub struct PaperScenario {
    /// The configuration it was generated from.
    pub config: ScenarioConfig,
    /// The generated retail data (dimension members + facts).
    pub retail: RetailData,
    /// The generated external layers (airports, train lines).
    pub layers: GeneratedLayers,
    /// The populated cube bound to the Fig. 2 schema.
    pub cube: Cube,
    /// The regional sales manager profile (Fig. 4).
    pub manager: UserProfile,
}

impl PaperScenario {
    /// Generates the data and loads the cube for a configuration.
    pub fn generate(config: ScenarioConfig) -> Self {
        let mut rng = rng_for_seed(config.seed);
        let city_points = generate_cities(&mut rng, config.cities, config.region_km);
        let layers = GeneratedLayers::generate(&mut rng, &city_points, &config);
        let retail = RetailData::generate(&mut rng, city_points, &config);

        let schema = sales_schema();
        let mut cube = Cube::new(schema);

        // Store dimension members (leaf grain: one row per store).
        for store in &retail.stores {
            let (city_name, city_point) = &retail.cities[store.city];
            cube.add_dimension_member(
                "Store",
                vec![
                    ("Store.name", CellValue::from(store.name.as_str())),
                    (
                        "Store.address",
                        CellValue::from(format!("{} high street", store.name)),
                    ),
                    ("Store.size_sqm", CellValue::Integer(store.size_sqm)),
                    ("City.name", CellValue::from(city_name.as_str())),
                    (
                        "State.name",
                        CellValue::from(state_of(city_point, config.region_km)),
                    ),
                    ("Store.geometry", CellValue::Geometry(store.location.into())),
                    ("City.geometry", CellValue::Geometry((*city_point).into())),
                ],
            )
            .expect("store member matches the schema");
        }

        // Customer dimension members.
        for customer in &retail.customers {
            let (city_name, city_point) = &retail.cities[customer.city];
            cube.add_dimension_member(
                "Customer",
                vec![
                    ("Customer.name", CellValue::from(customer.name.as_str())),
                    ("City.name", CellValue::from(city_name.as_str())),
                    (
                        "Customer.geometry",
                        CellValue::Geometry(customer.location.into()),
                    ),
                    ("City.geometry", CellValue::Geometry((*city_point).into())),
                ],
            )
            .expect("customer member matches the schema");
        }

        // Product dimension members.
        for (name, category) in &retail.products {
            cube.add_dimension_member(
                "Product",
                vec![
                    ("Product.name", CellValue::from(name.as_str())),
                    ("Category.name", CellValue::from(category.as_str())),
                ],
            )
            .expect("product member matches the schema");
        }

        // Time dimension members.
        for day in 0..retail.days {
            cube.add_dimension_member(
                "Time",
                vec![
                    ("Day.date", CellValue::Date(day as i64)),
                    ("Month.name", CellValue::from(format!("Month-{}", day / 30))),
                ],
            )
            .expect("day member matches the schema");
        }

        // Sales fact rows.
        for sale in &retail.sales {
            cube.add_fact_row(
                "Sales",
                vec![
                    ("Store", sale.store),
                    ("Customer", sale.customer),
                    ("Product", sale.product),
                    ("Time", sale.day),
                ],
                vec![
                    ("UnitSales", CellValue::Float(sale.unit_sales)),
                    ("StoreCost", CellValue::Float(sale.store_cost)),
                    ("StoreSales", CellValue::Float(sale.store_sales)),
                ],
            )
            .expect("sale row matches the schema");
        }

        PaperScenario {
            config,
            retail,
            layers,
            cube,
            manager: regional_sales_manager(),
        }
    }

    /// The external layers as a PRML layer source (what `AddLayer` pulls
    /// from).
    pub fn layer_source(&self) -> StaticLayerSource {
        self.layers.as_layer_source()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdwp_olap::{AttributeRef, Query, QueryEngine};

    #[test]
    fn fig2_schema_structure() {
        let schema = sales_schema();
        // Fig. 2: Sales fact with Customer, Store, Product, Time dimensions.
        let fact = schema.fact("Sales").unwrap();
        assert_eq!(fact.dimensions.len(), 4);
        for dim in ["Store", "Customer", "Product", "Time"] {
            assert!(schema.dimension(dim).is_some(), "missing dimension {dim}");
        }
        // The Store dimension is expanded into Store → City → State.
        assert_eq!(
            schema.dimension("Store").unwrap().aggregation_path(),
            vec!["Store", "City", "State"]
        );
        // Measures of the fact.
        for measure in ["UnitSales", "StoreCost", "StoreSales"] {
            assert!(fact.measure(measure).is_some(), "missing measure {measure}");
        }
        // The MD model carries no spatiality before personalization.
        assert!(!schema.is_geographic());
    }

    #[test]
    fn scenario_cube_is_consistent_with_retail_data() {
        let scenario = PaperScenario::generate(ScenarioConfig::tiny());
        let cube = &scenario.cube;
        assert_eq!(
            cube.dimension_table("Store").unwrap().table.len(),
            scenario.retail.stores.len()
        );
        assert_eq!(
            cube.fact_table("Sales").unwrap().table.len(),
            scenario.retail.sales.len()
        );
        // The OLAP grand total equals the generator's total.
        let engine = QueryEngine::new();
        let result = engine
            .execute(cube, &Query::over("Sales").measure("UnitSales"))
            .unwrap();
        let total = result.rows[0].values[0].as_number().unwrap();
        assert!((total - scenario.retail.total_unit_sales()).abs() < 1e-6);
    }

    #[test]
    fn rollup_to_city_covers_every_store_city() {
        let scenario = PaperScenario::generate(ScenarioConfig::tiny());
        let engine = QueryEngine::new();
        let by_city = engine
            .execute(
                &scenario.cube,
                &Query::over("Sales")
                    .group_by(AttributeRef::new("Store", "City", "name"))
                    .measure("UnitSales"),
            )
            .unwrap();
        assert!(!by_city.is_empty());
        assert!(by_city.len() <= scenario.retail.cities.len());
    }

    #[test]
    fn manager_profile_matches_fig4() {
        let manager = regional_sales_manager();
        assert_eq!(manager.role_name(), Some("RegionalSalesManager"));
        let interest = manager.interest("AirportCity").unwrap();
        assert_eq!(interest.degree, 0.0);
        assert!(interest.condition.as_deref().unwrap().contains("20km"));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = PaperScenario::generate(ScenarioConfig::tiny());
        let b = PaperScenario::generate(ScenarioConfig::tiny());
        assert_eq!(a.retail, b.retail);
        assert_eq!(a.cube.total_fact_rows(), b.cube.total_fact_rows());
    }
}
