//! Error types for the vehicle architecture substrate.

use std::fmt;

/// Errors produced while building or querying a vehicle architecture model.
#[derive(Debug)]
#[non_exhaustive]
pub enum VehicleError {
    /// An ECU, bus or interface name was referenced before being declared.
    UnknownNode {
        /// The name that could not be resolved.
        name: String,
    },
    /// Two nodes with the same name were declared.
    DuplicateNode {
        /// The conflicting name.
        name: String,
    },
    /// The topology is empty or otherwise unusable for analysis.
    EmptyTopology,
}

impl fmt::Display for VehicleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VehicleError::UnknownNode { name } => write!(f, "unknown node `{name}`"),
            VehicleError::DuplicateNode { name } => write!(f, "duplicate node `{name}`"),
            VehicleError::EmptyTopology => write!(f, "topology contains no nodes"),
        }
    }
}

impl std::error::Error for VehicleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_unknown_node() {
        let err = VehicleError::UnknownNode { name: "ECM".into() };
        assert_eq!(err.to_string(), "unknown node `ECM`");
    }

    #[test]
    fn display_duplicate_node() {
        let err = VehicleError::DuplicateNode { name: "TCU".into() };
        assert_eq!(err.to_string(), "duplicate node `TCU`");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<VehicleError>();
    }

    #[test]
    fn implements_std_error() {
        let err: Box<dyn std::error::Error> = Box::new(VehicleError::EmptyTopology);
        assert_eq!(err.to_string(), "topology contains no nodes");
    }
}
