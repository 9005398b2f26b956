//! External geographic layers: the data an `AddLayer` action pulls in.

use crate::config::ScenarioConfig;
use crate::spatial;
use rand::rngs::StdRng;
use sdwp_geometry::{Geometry, LineString, Point};
use sdwp_prml::StaticLayerSource;

/// The synthetic external geographic layers of a scenario: airports and
/// train lines (the layers used by the paper's rules), generated near the
/// scenario's cities.
#[derive(Debug, Clone)]
pub struct GeneratedLayers {
    /// Airport locations, named `"Airport-<i>"`.
    pub airports: Vec<(String, Point)>,
    /// Train lines, named `"Train-<i>"`.
    pub trains: Vec<(String, LineString)>,
}

impl GeneratedLayers {
    /// Generates layers near the given city centres.
    pub fn generate(rng: &mut StdRng, cities: &[Point], config: &ScenarioConfig) -> Self {
        let airports = spatial::generate_airports(rng, cities, config.airports)
            .into_iter()
            .enumerate()
            .map(|(i, p)| (format!("Airport-{i}"), p))
            .collect();
        let trains = spatial::generate_train_lines(rng, cities, config.train_lines)
            .into_iter()
            .enumerate()
            .map(|(i, l)| (format!("Train-{i}"), l))
            .collect();
        GeneratedLayers { airports, trains }
    }

    /// Exposes the layers as a PRML [`sdwp_prml::LayerSource`] keyed by the layer
    /// names used in the paper's rules (`Airport`, `Train`).
    pub fn as_layer_source(&self) -> StaticLayerSource {
        let mut source = StaticLayerSource::new();
        source.insert(
            "Airport",
            self.airports
                .iter()
                .map(|(name, p)| (name.clone(), Geometry::from(*p)))
                .collect(),
        );
        source.insert(
            "Train",
            self.trains
                .iter()
                .map(|(name, l)| (name.clone(), Geometry::from(l.clone())))
                .collect(),
        );
        source
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spatial::{generate_cities, rng_for_seed};
    use sdwp_prml::LayerSource;

    #[test]
    fn generated_layers_match_config() {
        let config = ScenarioConfig::tiny();
        let mut rng = rng_for_seed(config.seed);
        let cities = generate_cities(&mut rng, config.cities, config.region_km);
        let layers = GeneratedLayers::generate(&mut rng, &cities, &config);
        assert_eq!(layers.airports.len(), config.airports);
        assert_eq!(layers.trains.len(), config.train_lines);
        assert!(layers.airports[0].0.starts_with("Airport-"));
    }

    #[test]
    fn layer_source_serves_paper_layer_names() {
        let config = ScenarioConfig::tiny();
        let mut rng = rng_for_seed(config.seed);
        let cities = generate_cities(&mut rng, config.cities, config.region_km);
        let layers = GeneratedLayers::generate(&mut rng, &cities, &config);
        let source = layers.as_layer_source();
        assert_eq!(
            source.layer_instances("Airport").unwrap().len(),
            config.airports
        );
        assert_eq!(
            source.layer_instances("train").unwrap().len(),
            config.train_lines
        );
        assert!(source.layer_instances("Hospital").is_none());
    }
}
