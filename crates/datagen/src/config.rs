//! Scenario configuration.

/// Sizing and seeding of a synthetic scenario.
///
/// The region is a square of `region_km` × `region_km` kilometres; cities
/// are scattered uniformly, stores and customers cluster around cities,
/// airports sit near a subset of cities and train lines thread consecutive
/// cities.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// RNG seed: two configs with equal seeds generate identical data.
    pub seed: u64,
    /// Side length of the square region, in kilometres.
    pub region_km: f64,
    /// Number of cities.
    pub cities: usize,
    /// Number of stores (each assigned to a city).
    pub stores: usize,
    /// Number of customers (each assigned to a city).
    pub customers: usize,
    /// Number of products.
    pub products: usize,
    /// Number of days in the time dimension.
    pub days: usize,
    /// Number of sales fact rows.
    pub sales: usize,
    /// Number of airports (capped at the number of cities).
    pub airports: usize,
    /// Number of train lines.
    pub train_lines: usize,
    /// Standard deviation (km) of store/customer scatter around their city.
    pub city_spread_km: f64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 42,
            region_km: 500.0,
            cities: 25,
            stores: 200,
            customers: 400,
            products: 50,
            days: 30,
            sales: 5_000,
            airports: 5,
            train_lines: 3,
            city_spread_km: 8.0,
        }
    }
}

impl ScenarioConfig {
    /// A small configuration for unit tests and doc examples (hundreds of
    /// rows, milliseconds to generate).
    pub fn tiny() -> Self {
        ScenarioConfig {
            seed: 7,
            region_km: 100.0,
            cities: 5,
            stores: 20,
            customers: 30,
            products: 10,
            days: 7,
            sales: 200,
            airports: 2,
            train_lines: 1,
            city_spread_km: 4.0,
        }
    }

    /// Scales the instance counts by an integer factor (used by benchmark
    /// parameter sweeps); the seed and region stay fixed.
    pub fn scaled(mut self, factor: usize) -> Self {
        let f = factor.max(1);
        self.stores *= f;
        self.customers *= f;
        self.sales *= f;
        self.cities = (self.cities * f).min(5_000);
        self
    }

    /// Replaces the seed, keeping every other parameter.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = ScenarioConfig::default();
        assert!(c.stores > 0 && c.cities > 0 && c.sales > 0);
        assert!(c.airports <= c.cities);
        let t = ScenarioConfig::tiny();
        assert!(t.sales < c.sales);
    }

    #[test]
    fn scaling_multiplies_instances() {
        let base = ScenarioConfig::tiny();
        let scaled = base.clone().scaled(3);
        assert_eq!(scaled.stores, base.stores * 3);
        assert_eq!(scaled.sales, base.sales * 3);
        assert_eq!(scaled.seed, base.seed);
        // Factor zero is clamped to one.
        let same = base.clone().scaled(0);
        assert_eq!(same.stores, base.stores);
    }

    #[test]
    fn with_seed_changes_only_the_seed() {
        let a = ScenarioConfig::tiny();
        let b = a.clone().with_seed(99);
        assert_eq!(a.stores, b.stores);
        assert_ne!(a.seed, b.seed);
    }
}
