//! # SDWP — Web-based personalization on spatial data warehouses
//!
//! A from-scratch Rust reproduction of *Using Web-based Personalization on
//! Spatial Data Warehouses* (Glorio, Mazón, Garrigós, Trujillo — EDBT
//! 2010): a multidimensional / geographic-multidimensional conceptual
//! model, a spatial-aware user model, the PRML rule language adapted to
//! spatial data warehouses, and the personalization engine that ties them
//! together on top of an in-memory spatial OLAP substrate.
//!
//! This crate is a thin facade re-exporting the workspace crates under one
//! name. Start with [`core::PersonalizationEngine`] and the
//! `examples/quickstart.rs` example.
//!
//! Every engine method takes `&self`, so one engine serves many
//! concurrent sessions — share it through an `Arc` (or a cloned
//! [`core::WebFacade`]) across worker threads:
//!
//! ```
//! use sdwp::datagen::{PaperScenario, ScenarioConfig};
//! use sdwp::core::PersonalizationEngine;
//! use sdwp::prml::corpus::EXAMPLE_5_1_ADD_SPATIALITY;
//! use std::sync::Arc;
//!
//! let scenario = PaperScenario::generate(ScenarioConfig::tiny());
//! let engine = Arc::new(PersonalizationEngine::with_layer_source(
//!     scenario.cube.clone(),
//!     Arc::new(scenario.layer_source()),
//! ));
//! engine.register_user(scenario.manager.clone());
//! engine.add_rules_text(EXAMPLE_5_1_ADD_SPATIALITY).unwrap();
//!
//! // Sessions can start (and query) from any number of threads.
//! let worker = {
//!     let engine = Arc::clone(&engine);
//!     std::thread::spawn(move || engine.start_session("regional-manager", None).unwrap())
//! };
//! let session = worker.join().unwrap();
//! assert!(engine.cube().schema().layer("Airport").is_some());
//! assert!(session.report.is_personalized());
//! ```

#![warn(missing_docs)]

/// The personalization engine (the paper's primary contribution).
pub use sdwp_core as core;
/// Synthetic workload generation (the paper's running example at scale).
pub use sdwp_datagen as datagen;
/// Computational geometry and the paper's spatial operators.
pub use sdwp_geometry as geometry;
/// Streaming ingestion (epoch-batched fact deltas, atomic snapshots).
pub use sdwp_ingest as ingest;
/// The MD / GeoMD conceptual models.
pub use sdwp_model as model;
/// Observability: metrics registry, stage spans, slow-query journal.
pub use sdwp_obs as obs;
/// The in-memory spatial OLAP engine.
pub use sdwp_olap as olap;
/// The PRML rule language adapted to SDW.
pub use sdwp_prml as prml;
/// The spatial-aware user model (SUS).
pub use sdwp_user as user;
