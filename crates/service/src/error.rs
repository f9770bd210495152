//! Service-level error type.
//!
//! [`ServiceError`] is `Clone` because one computation's outcome may be
//! broadcast to many deduplicated waiters (see `crate::inflight`).

use std::fmt;

use exactsim::SimRankError;

/// Errors produced by the query-serving layer.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceError {
    /// The underlying algorithm rejected the request (bad source, empty
    /// graph, invalid configuration, …).
    Algorithm(SimRankError),
    /// A request named an algorithm the service does not know.
    UnknownAlgorithm(String),
    /// A request was malformed (CLI / protocol layer).
    InvalidRequest(String),
    /// The serving machinery itself failed (a computation panicked) —
    /// never caused by the request contents.
    Internal(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Algorithm(e) => write!(f, "algorithm error: {e}"),
            ServiceError::UnknownAlgorithm(name) => write!(f, "unknown algorithm `{name}`"),
            ServiceError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            ServiceError::Internal(msg) => write!(f, "internal serving error: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Algorithm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimRankError> for ServiceError {
    fn from(e: SimRankError) -> Self {
        ServiceError::Algorithm(e)
    }
}
