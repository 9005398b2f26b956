//! Seeded synthetic workload generator.
//!
//! The paper's running example analyses retail sales (who bought, where,
//! what, when) over a spatial region with external geographic layers
//! (airports, train lines). No data set accompanies the paper, so this
//! crate generates a synthetic but structurally faithful equivalent:
//!
//! * the Fig. 2 multidimensional schema ([`scenario::sales_schema`]);
//! * dimension members with planar kilometre coordinates — cities on a
//!   bounded region, stores and customers clustered around cities;
//! * external layers: airports (points near some cities) and train lines
//!   (polylines threading cities), exposed both as cube layer instances and
//!   as a [`sdwp_prml::LayerSource`];
//! * sales fact rows linking stores, customers, products and days;
//! * the Fig. 4 spatial-aware user model instance
//!   ([`scenario::regional_sales_manager`]);
//! * a retail update stream ([`ticker::RetailTicker`]): an infinite
//!   deterministic ticker of sales appends, price corrections and
//!   cancellations for the streaming-ingestion pipeline.
//!
//! Everything is deterministic under a configured seed so experiments are
//! repeatable.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod dashboard;
pub mod layers;
pub mod retail;
pub mod scenario;
pub mod spatial;
pub mod ticker;

pub use config::ScenarioConfig;
pub use dashboard::{dashboard_batch, OverlapRegime};
pub use layers::GeneratedLayers;
pub use retail::RetailData;
pub use scenario::PaperScenario;
pub use ticker::{RetailTicker, TickerConfig};
