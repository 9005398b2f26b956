//! The spatial data warehouse personalization engine — the paper's primary
//! contribution, assembled from the substrate crates.
//!
//! The engine realises the process of the paper's Fig. 1:
//!
//! 1. the designer supplies an MD model (and its cube of instances), a
//!    spatial-aware user model (profiles) and a set of PRML rules;
//! 2. when a decision maker logs in (**SessionStart**), the *schema rules*
//!    run: `AddLayer` and `BecomeSpatial` actions turn the MD model into a
//!    user-specific GeoMD model, pulling external layer data in;
//! 3. the *instance rules* run: `SelectInstance` actions produce a
//!    personalized [`sdwp_olap::InstanceView`] so that every subsequent
//!    OLAP query — even from a BI tool with no spatial support — only sees
//!    the instances relevant to that user;
//! 4. while the session runs, **SpatialSelection** events update the user's
//!    interest degrees (`SetContent`), which later sessions' rules can
//!    threshold (Example 5.3).
//!
//! [`PersonalizationEngine`] is the library-level API;
//! [`web::WebFacade`] wraps it in typed request/response messages that
//! mirror the "web-based" deployment the paper targets.
//!
//! Both are built for **concurrent multi-session serving**: every method
//! takes `&self`, so one engine behind an `Arc` (or one cloned
//! [`WebFacade`]) serves any number of worker threads. Queries run on
//! hot-swapped immutable snapshots ([`sync::VersionedSwap`]); per-session
//! state lives in a sharded [`SessionManager`]; only rule firing
//! serialises, on the single mutable cube master. See [`engine`]'s module
//! docs for the full locking discipline.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod error;
pub mod report;
pub mod session;
pub mod sync;
pub mod web;

pub use engine::{PersonalizationEngine, SessionHandle};
pub use error::CoreError;
pub use report::PersonalizationReport;
// Re-exported so facade users can build engines with an explicit
// registry and read snapshots without naming `sdwp_obs` directly.
pub use sdwp_obs::{ClassId, MetricsRegistry, MetricsSnapshot, SlowQueryRecord, StageSnapshot};
pub use sdwp_olap::{AdmitError, CancelToken, MorselPool, PoolStats, TenantPolicy, TenantStats};

/// The deterministic fault-injection registry (arm/disarm named
/// failpoints), re-exported for chaos tests driving the whole engine.
/// Only present under the `failpoints` feature; a default build
/// contains no failpoint code at all.
#[cfg(feature = "failpoints")]
pub use sdwp_olap::fault;
pub use session::{SessionManager, SessionState};
pub use sync::VersionedSwap;
pub use web::{BatchEntry, WebFacade, WebRequest, WebResponse};
