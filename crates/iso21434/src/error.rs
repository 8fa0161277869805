//! Error types for the ISO/SAE-21434 TARA substrate.

use std::fmt;

/// Errors produced while assembling or evaluating a TARA.
#[derive(Debug)]
#[non_exhaustive]
pub enum Iso21434Error {
    /// A threat scenario references an asset that was not registered.
    UnknownAsset {
        /// The missing asset name.
        name: String,
    },
    /// A TARA entry was submitted without any attack path.
    MissingAttackPath {
        /// The threat scenario title.
        threat: String,
    },
    /// A weight table was constructed with an empty or inconsistent mapping.
    InvalidWeightTable {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for Iso21434Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Iso21434Error::UnknownAsset { name } => write!(f, "unknown asset `{name}`"),
            Iso21434Error::MissingAttackPath { threat } => {
                write!(f, "threat scenario `{threat}` has no attack path")
            }
            Iso21434Error::InvalidWeightTable { reason } => {
                write!(f, "invalid weight table: {reason}")
            }
        }
    }
}

impl std::error::Error for Iso21434Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert_eq!(
            Iso21434Error::UnknownAsset {
                name: "ECM FW".into()
            }
            .to_string(),
            "unknown asset `ECM FW`"
        );
        assert!(Iso21434Error::MissingAttackPath {
            threat: "T1".into()
        }
        .to_string()
        .contains("no attack path"));
        assert!(Iso21434Error::InvalidWeightTable {
            reason: "empty".into()
        }
        .to_string()
        .contains("empty"));
    }

    #[test]
    fn implements_std_error_send_sync() {
        fn assert_all<T: std::error::Error + Send + Sync>() {}
        assert_all::<Iso21434Error>();
    }
}
