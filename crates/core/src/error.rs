//! Errors surfaced by the personalization engine.

use std::fmt;

/// Errors raised by the personalization engine and web facade.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A rule failed to parse, validate or evaluate.
    Rule(sdwp_prml::PrmlError),
    /// The OLAP layer rejected an operation.
    Olap(sdwp_olap::OlapError),
    /// The user model rejected an operation.
    User(sdwp_user::UserError),
    /// The conceptual model rejected an operation.
    Model(sdwp_model::ModelError),
    /// A session id is unknown or the session has ended.
    UnknownSession {
        /// The offending session id.
        session: u64,
    },
    /// The streaming-ingestion pipeline refused a submission
    /// (backpressure or shutdown).
    Ingest {
        /// Description of the refusal.
        message: String,
    },
    /// A request was malformed.
    BadRequest {
        /// Description of the problem.
        message: String,
    },
    /// The admission controller shed the query: the session class is
    /// best-effort and its in-flight budget is exhausted.
    /// Transient by design — the client should back off and retry.
    Overloaded {
        /// The session class that was shed.
        class: String,
        /// Queries of the class in flight at the decision.
        in_flight: usize,
        /// The class's in-flight budget.
        limit: usize,
    },
    /// A read-your-writes session required a newer snapshot generation
    /// than the one published within the wait budget.
    StaleSnapshot {
        /// The generation currently published.
        published: u64,
        /// The generation the session is pinned to.
        required: u64,
    },
    /// The query's deadline expired — while waiting for admission or
    /// between scan morsels — and it was cancelled cooperatively. No
    /// partial state escaped: the result cache is untouched and every
    /// admission slot was released.
    DeadlineExceeded,
    /// Query execution panicked on a worker; the panic was contained to
    /// this query (the morsel pool and all shared state keep serving).
    ExecutionPanicked,
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Rule(e) => write!(f, "rule error: {e}"),
            CoreError::Olap(e) => write!(f, "OLAP error: {e}"),
            CoreError::User(e) => write!(f, "user model error: {e}"),
            CoreError::Model(e) => write!(f, "model error: {e}"),
            CoreError::UnknownSession { session } => {
                write!(f, "unknown or ended session {session}")
            }
            CoreError::Ingest { message } => write!(f, "ingest error: {message}"),
            CoreError::Overloaded {
                class,
                in_flight,
                limit,
            } => write!(
                f,
                "overloaded: class \"{class}\" shed at {in_flight} queries in flight (limit {limit})"
            ),
            CoreError::BadRequest { message } => write!(f, "bad request: {message}"),
            CoreError::StaleSnapshot {
                published,
                required,
            } => write!(
                f,
                "published snapshot generation {published} is older than the session's \
                 pinned generation {required}"
            ),
            CoreError::DeadlineExceeded => {
                write!(f, "query deadline exceeded; cancelled with no partial state")
            }
            CoreError::ExecutionPanicked => write!(
                f,
                "query execution panicked; the panic was contained to this query"
            ),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<sdwp_prml::PrmlError> for CoreError {
    fn from(e: sdwp_prml::PrmlError) -> Self {
        CoreError::Rule(e)
    }
}

impl From<sdwp_olap::OlapError> for CoreError {
    fn from(e: sdwp_olap::OlapError) -> Self {
        // Lifecycle outcomes keep their identity across the layer
        // boundary — callers match on them to decide retry semantics.
        match e {
            sdwp_olap::OlapError::DeadlineExceeded => CoreError::DeadlineExceeded,
            sdwp_olap::OlapError::ExecutionPanicked => CoreError::ExecutionPanicked,
            other => CoreError::Olap(other),
        }
    }
}

impl From<sdwp_user::UserError> for CoreError {
    fn from(e: sdwp_user::UserError) -> Self {
        CoreError::User(e)
    }
}

impl From<sdwp_model::ModelError> for CoreError {
    fn from(e: sdwp_model::ModelError) -> Self {
        CoreError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e: CoreError = sdwp_prml::PrmlError::eval("r", "boom").into();
        assert!(e.to_string().contains("rule error"));
        let e: CoreError = sdwp_olap::OlapError::InvalidQuery {
            message: "no measures".into(),
        }
        .into();
        assert!(e.to_string().contains("OLAP error"));
        let e: CoreError = sdwp_user::UserError::NotFound {
            kind: "user",
            id: "u".into(),
        }
        .into();
        assert!(e.to_string().contains("user model error"));
        let e: CoreError = sdwp_model::ModelError::Invalid {
            message: "x".into(),
        }
        .into();
        assert!(e.to_string().contains("model error"));
        assert!(CoreError::UnknownSession { session: 9 }
            .to_string()
            .contains("9"));
        assert!(CoreError::BadRequest {
            message: "missing user".into()
        }
        .to_string()
        .contains("missing user"));
    }

    #[test]
    fn lifecycle_outcomes_keep_their_identity_across_the_boundary() {
        let e: CoreError = sdwp_olap::OlapError::DeadlineExceeded.into();
        assert_eq!(e, CoreError::DeadlineExceeded);
        assert!(e.to_string().contains("deadline"));
        let e: CoreError = sdwp_olap::OlapError::ExecutionPanicked.into();
        assert_eq!(e, CoreError::ExecutionPanicked);
        assert!(e.to_string().contains("contained"));
    }
}
