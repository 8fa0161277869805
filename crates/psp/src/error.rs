//! Error types for the PSP framework.
//!
//! [`PspError`] is the single top-level error surface: financial-input
//! errors and the service daemon's request errors both fold into it, so every
//! [`crate::service::ServiceResponse`] serializes exactly one error type.

use std::fmt;

/// Errors produced by the PSP workflows.
#[derive(Debug)]
#[non_exhaustive]
pub enum PspError {
    /// A financial input was missing or non-positive.
    InvalidFinancialInput {
        /// The parameter name.
        parameter: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// A service request named a keyword database not in the registry.
    UnknownDatabase {
        /// The database name requested.
        name: String,
    },
    /// A service request named a configuration not in the registry.
    UnknownConfig {
        /// The configuration name requested.
        name: String,
    },
    /// A service request could not be decoded or was structurally invalid.
    BadRequest {
        /// Human-readable detail.
        detail: String,
    },
    /// The service runtime has shut down and can accept no more work.
    ServiceStopped,
    /// A request panicked while being served.  The worker caught the unwind
    /// and survived; the panic message travels as detail so the client sees a
    /// structured failure instead of a hung ticket.
    Internal {
        /// The panic payload, when it was a string.
        detail: String,
    },
    /// A `Schedule` request wrapped a request kind the scheduler refuses to
    /// run on a timer (state-mutating kinds like `Ingest`, or nested
    /// scheduling).
    NotSchedulable {
        /// The request kind that was rejected.
        request: &'static str,
    },
    /// A durability-plane request (`Checkpoint`) reached a service running
    /// without a data directory.
    NotDurable,
    /// The durability plane failed: a WAL append, checkpoint write or
    /// recovery step hit an I/O error (or an injected fault).
    Durability {
        /// Human-readable detail naming the failed operation.
        detail: String,
    },
    /// The admission queue in front of the worker pool is full.  The request
    /// was rejected *before* queueing so the service's latency stays bounded;
    /// clients should back off and retry.
    Overloaded {
        /// Requests already admitted and awaiting a worker when this one
        /// arrived.
        queued: usize,
        /// The admission queue's capacity.
        capacity: usize,
    },
    /// The socket server is at its connection cap; the new connection was
    /// answered with this error and closed without being served.
    ConnectionLimit {
        /// Connections open when the new one arrived.
        open: usize,
        /// The configured connection cap.
        cap: usize,
    },
    /// A wire line exceeded the configured maximum length and was discarded
    /// instead of buffered unboundedly.
    LineTooLong {
        /// The configured per-line byte limit.
        limit: usize,
    },
}

impl PspError {
    /// A stable kebab-case discriminant for the wire form of service errors
    /// — clients match on this instead of parsing `Display` text.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            PspError::InvalidFinancialInput { .. } => "invalid-financial-input",
            PspError::UnknownDatabase { .. } => "unknown-database",
            PspError::UnknownConfig { .. } => "unknown-config",
            PspError::BadRequest { .. } => "bad-request",
            PspError::ServiceStopped => "service-stopped",
            PspError::Internal { .. } => "internal-error",
            PspError::NotSchedulable { .. } => "not-schedulable",
            PspError::NotDurable => "not-durable",
            PspError::Durability { .. } => "durability",
            PspError::Overloaded { .. } => "overloaded",
            PspError::ConnectionLimit { .. } => "connection-limit",
            PspError::LineTooLong { .. } => "line-too-long",
        }
    }
}

impl fmt::Display for PspError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PspError::InvalidFinancialInput { parameter, detail } => {
                write!(f, "invalid financial input `{parameter}`: {detail}")
            }
            PspError::UnknownDatabase { name } => {
                write!(f, "no keyword database registered under `{name}`")
            }
            PspError::UnknownConfig { name } => {
                write!(f, "no configuration registered under `{name}`")
            }
            PspError::BadRequest { detail } => write!(f, "bad request: {detail}"),
            PspError::ServiceStopped => write!(f, "service runtime has shut down"),
            PspError::Internal { detail } => {
                write!(f, "internal service error (request panicked): {detail}")
            }
            PspError::NotSchedulable { request } => {
                write!(f, "request kind `{request}` cannot be scheduled")
            }
            PspError::NotDurable => {
                write!(f, "service is running without a data directory")
            }
            PspError::Durability { detail } => write!(f, "durability error: {detail}"),
            PspError::Overloaded { queued, capacity } => write!(
                f,
                "service overloaded: admission queue full ({queued}/{capacity}); retry later"
            ),
            PspError::ConnectionLimit { open, cap } => {
                write!(f, "connection limit reached ({open}/{cap} open)")
            }
            PspError::LineTooLong { limit } => {
                write!(f, "wire line exceeds the {limit}-byte limit")
            }
        }
    }
}

impl std::error::Error for PspError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(PspError::InvalidFinancialInput {
            parameter: "PPIA",
            detail: "no prices found".into()
        }
        .to_string()
        .contains("PPIA"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PspError>();
    }

    #[test]
    fn service_variants_display_and_kind() {
        let db = PspError::UnknownDatabase { name: "x".into() };
        assert_eq!(db.kind(), "unknown-database");
        assert!(db.to_string().contains("x"));
        let config = PspError::UnknownConfig { name: "y".into() };
        assert_eq!(config.kind(), "unknown-config");
        assert!(config.to_string().contains("y"));
        let bad = PspError::BadRequest {
            detail: "not json".into(),
        };
        assert_eq!(bad.kind(), "bad-request");
        assert!(bad.to_string().contains("not json"));
        assert_eq!(PspError::ServiceStopped.kind(), "service-stopped");
        let internal = PspError::Internal {
            detail: "index out of bounds".into(),
        };
        assert_eq!(internal.kind(), "internal-error");
        assert!(internal.to_string().contains("index out of bounds"));
        assert!(internal.to_string().contains("panicked"));
        let sched = PspError::NotSchedulable { request: "Ingest" };
        assert_eq!(sched.kind(), "not-schedulable");
        assert!(sched.to_string().contains("Ingest"));
        assert_eq!(PspError::NotDurable.kind(), "not-durable");
        assert!(PspError::NotDurable.to_string().contains("data directory"));
        let durability = PspError::Durability {
            detail: "fsync wal.log failed".into(),
        };
        assert_eq!(durability.kind(), "durability");
        assert!(durability.to_string().contains("fsync wal.log failed"));
        let overloaded = PspError::Overloaded {
            queued: 128,
            capacity: 128,
        };
        assert_eq!(overloaded.kind(), "overloaded");
        assert!(overloaded.to_string().contains("128/128"));
        let conn = PspError::ConnectionLimit { open: 64, cap: 64 };
        assert_eq!(conn.kind(), "connection-limit");
        assert!(conn.to_string().contains("64/64"));
        let long = PspError::LineTooLong { limit: 1_048_576 };
        assert_eq!(long.kind(), "line-too-long");
        assert!(long.to_string().contains("1048576"));
    }

    #[test]
    fn kinds_are_unique_per_variant() {
        let kinds = [
            PspError::InvalidFinancialInput {
                parameter: "p",
                detail: "d".into(),
            }
            .kind(),
            PspError::UnknownDatabase { name: "n".into() }.kind(),
            PspError::UnknownConfig { name: "n".into() }.kind(),
            PspError::BadRequest { detail: "d".into() }.kind(),
            PspError::ServiceStopped.kind(),
            PspError::Internal { detail: "d".into() }.kind(),
            PspError::NotSchedulable { request: "Ingest" }.kind(),
            PspError::NotDurable.kind(),
            PspError::Durability { detail: "d".into() }.kind(),
            PspError::Overloaded {
                queued: 1,
                capacity: 1,
            }
            .kind(),
            PspError::ConnectionLimit { open: 1, cap: 1 }.kind(),
            PspError::LineTooLong { limit: 1 }.kind(),
        ];
        let unique: std::collections::BTreeSet<_> = kinds.iter().collect();
        assert_eq!(unique.len(), kinds.len());
    }
}
