//! Synthetic retail data: the instances behind the Fig. 2 sales schema.

use crate::config::ScenarioConfig;
use crate::spatial::scatter_around;
use rand::rngs::StdRng;
use rand::Rng;
use sdwp_geometry::Point;

/// A generated store.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreRecord {
    /// Store name (`"Store-<i>"`).
    pub name: String,
    /// Index into the city list.
    pub city: usize,
    /// Store location (km coordinates).
    pub location: Point,
    /// Sales floor size in square metres.
    pub size_sqm: i64,
}

/// A generated customer.
#[derive(Debug, Clone, PartialEq)]
pub struct CustomerRecord {
    /// Customer name (`"Customer-<i>"`).
    pub name: String,
    /// Index into the city list.
    pub city: usize,
    /// Customer home location (km coordinates).
    pub location: Point,
}

/// A generated sales fact row.
#[derive(Debug, Clone, PartialEq)]
pub struct SaleRecord {
    /// Index into the store list.
    pub store: usize,
    /// Index into the customer list.
    pub customer: usize,
    /// Index into the product list.
    pub product: usize,
    /// Day index (0-based).
    pub day: usize,
    /// Units sold.
    pub unit_sales: f64,
    /// Cost to the store.
    pub store_cost: f64,
    /// Revenue for the store.
    pub store_sales: f64,
}

/// The full synthetic retail data set (dimension members plus facts).
#[derive(Debug, Clone, PartialEq)]
pub struct RetailData {
    /// City names and centres.
    pub cities: Vec<(String, Point)>,
    /// Stores.
    pub stores: Vec<StoreRecord>,
    /// Customers.
    pub customers: Vec<CustomerRecord>,
    /// Product names and categories.
    pub products: Vec<(String, String)>,
    /// Number of days in the time dimension.
    pub days: usize,
    /// Sales fact rows.
    pub sales: Vec<SaleRecord>,
}

/// Assigns a region-quadrant "state" name to a city centre.
pub fn state_of(city: &Point, region_km: f64) -> &'static str {
    let west = city.x() < region_km / 2.0;
    let south = city.y() < region_km / 2.0;
    match (west, south) {
        (true, true) => "South-West",
        (true, false) => "North-West",
        (false, true) => "South-East",
        (false, false) => "North-East",
    }
}

impl RetailData {
    /// Generates the retail data around the given city centres.
    pub fn generate(rng: &mut StdRng, cities: Vec<Point>, config: &ScenarioConfig) -> Self {
        let cities: Vec<(String, Point)> = cities
            .into_iter()
            .enumerate()
            .map(|(i, p)| (format!("City-{i}"), p))
            .collect();

        let stores: Vec<StoreRecord> = (0..config.stores)
            .map(|i| {
                let city = rng.gen_range(0..cities.len().max(1));
                StoreRecord {
                    name: format!("Store-{i}"),
                    city,
                    location: scatter_around(
                        rng,
                        &cities[city].1,
                        config.city_spread_km,
                        config.region_km,
                    ),
                    size_sqm: rng.gen_range(80..2_000),
                }
            })
            .collect();

        let customers: Vec<CustomerRecord> = (0..config.customers)
            .map(|i| {
                let city = rng.gen_range(0..cities.len().max(1));
                CustomerRecord {
                    name: format!("Customer-{i}"),
                    city,
                    location: scatter_around(
                        rng,
                        &cities[city].1,
                        config.city_spread_km * 1.5,
                        config.region_km,
                    ),
                }
            })
            .collect();

        let products: Vec<(String, String)> = (0..config.products)
            .map(|i| (format!("Product-{i}"), format!("Category-{}", i % 5)))
            .collect();

        let sales: Vec<SaleRecord> = (0..config.sales)
            .map(|_| {
                let unit_sales = rng.gen_range(1.0..20.0f64).round();
                let unit_price = rng.gen_range(2.0..60.0f64);
                SaleRecord {
                    store: rng.gen_range(0..stores.len().max(1)),
                    customer: rng.gen_range(0..customers.len().max(1)),
                    product: rng.gen_range(0..products.len().max(1)),
                    day: rng.gen_range(0..config.days.max(1)),
                    unit_sales,
                    store_cost: unit_sales * unit_price * 0.7,
                    store_sales: unit_sales * unit_price,
                }
            })
            .collect();

        RetailData {
            cities,
            stores,
            customers,
            products,
            days: config.days,
            sales,
        }
    }

    /// Total units sold across every fact row (used to cross-check OLAP
    /// aggregation results in tests).
    pub fn total_unit_sales(&self) -> f64 {
        self.sales.iter().map(|s| s.unit_sales).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spatial::{generate_cities, rng_for_seed};

    fn data(seed: u64) -> RetailData {
        let config = ScenarioConfig::tiny().with_seed(seed);
        let mut rng = rng_for_seed(config.seed);
        let cities = generate_cities(&mut rng, config.cities, config.region_km);
        RetailData::generate(&mut rng, cities, &config)
    }

    #[test]
    fn sizes_match_config() {
        let config = ScenarioConfig::tiny();
        let d = data(config.seed);
        assert_eq!(d.cities.len(), config.cities);
        assert_eq!(d.stores.len(), config.stores);
        assert_eq!(d.customers.len(), config.customers);
        assert_eq!(d.products.len(), config.products);
        assert_eq!(d.sales.len(), config.sales);
        assert_eq!(d.days, config.days);
    }

    #[test]
    fn references_are_in_range() {
        let d = data(11);
        for sale in &d.sales {
            assert!(sale.store < d.stores.len());
            assert!(sale.customer < d.customers.len());
            assert!(sale.product < d.products.len());
            assert!(sale.day < d.days);
            assert!(sale.store_sales >= sale.store_cost);
            assert!(sale.unit_sales >= 1.0);
        }
        for store in &d.stores {
            assert!(store.city < d.cities.len());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(data(5), data(5));
        assert_ne!(data(5), data(6));
    }

    #[test]
    fn state_quadrants() {
        assert_eq!(state_of(&Point::new(10.0, 10.0), 100.0), "South-West");
        assert_eq!(state_of(&Point::new(10.0, 90.0), 100.0), "North-West");
        assert_eq!(state_of(&Point::new(90.0, 10.0), 100.0), "South-East");
        assert_eq!(state_of(&Point::new(90.0, 90.0), 100.0), "North-East");
    }

    #[test]
    fn total_unit_sales_is_positive() {
        assert!(data(3).total_unit_sales() > 0.0);
    }
}
