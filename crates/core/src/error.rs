//! Error type for PRIVAPI operations.

use std::error::Error;
use std::fmt;

/// Errors produced by the PRIVAPI middleware.
#[derive(Debug)]
pub enum PrivapiError {
    /// A strategy parameter was invalid (name, offending value).
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value rendered as text.
        value: String,
    },
    /// The selector had no candidate satisfying the privacy floor.
    NoFeasibleStrategy {
        /// The privacy floor that was requested (max tolerated POI recall).
        floor: f64,
        /// Best (lowest) POI recall achieved by any candidate.
        best_recall: f64,
    },
    /// The dataset was empty where data was required.
    EmptyDataset,
    /// A streaming day window arrived out of order: its day is not past
    /// the session's most recently ingested day (a duplicate ingest, or an
    /// out-of-order replay). Nothing was ingested.
    StreamError {
        /// Day index of the rejected window.
        day: i64,
        /// Day index of the most recently ingested window.
        last_day: i64,
    },
    /// A streaming session was asked to publish through a middleware
    /// whose attack extracts under other parameters than the session's
    /// ([`crate::attack::PoiAttackConfig::extraction_config`]): its shards,
    /// reference and candidate states were not derived the way the
    /// publisher derives them. Nothing was touched.
    ExtractionMismatch,
    /// An underlying mobility-layer error.
    Mobility(mobility::MobilityError),
    /// A federated deployment was asked to run a strategy that cannot be
    /// executed device-locally: it declares
    /// [`crate::strategy::UserLocality::NonLocal`] or exposes no
    /// serializable [`crate::federated::StrategySpec`].
    NonFederable {
        /// The offending candidate, rendered as `name(params)`.
        strategy: String,
    },
    /// A grid-anchored strategy config was instantiated without the
    /// broadcast grid anchor it needs to cloak deterministically.
    MissingGridAnchor {
        /// The mechanism that needed the anchor.
        strategy: String,
    },
}

impl fmt::Display for PrivapiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrivapiError::InvalidParameter { name, value } => {
                write!(f, "invalid parameter {name}: {value}")
            }
            PrivapiError::NoFeasibleStrategy { floor, best_recall } => write!(
                f,
                "no strategy satisfies privacy floor {floor:.2} (best achievable POI recall {best_recall:.2})"
            ),
            PrivapiError::EmptyDataset => write!(f, "operation requires a non-empty dataset"),
            PrivapiError::StreamError { day, last_day } => write!(
                f,
                "window for day {day} arrived after day {last_day}: streaming windows must \
                 ascend strictly (duplicate ingest of an already-published window?)"
            ),
            PrivapiError::ExtractionMismatch => write!(
                f,
                "the publisher's attack extracts under other parameters than the \
                 session's: a session serves one set of extraction parameters"
            ),
            PrivapiError::Mobility(e) => write!(f, "mobility error: {e}"),
            PrivapiError::NonFederable { strategy } => write!(
                f,
                "strategy {strategy} cannot run device-locally: federated release \
                 requires UserLocal (or anchored GridAnchored) candidates with a \
                 serializable spec"
            ),
            PrivapiError::MissingGridAnchor { strategy } => write!(
                f,
                "strategy {strategy} is grid-anchored but no grid anchor was \
                 broadcast in the strategy config"
            ),
        }
    }
}

impl Error for PrivapiError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PrivapiError::Mobility(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mobility::MobilityError> for PrivapiError {
    fn from(e: mobility::MobilityError) -> Self {
        PrivapiError::Mobility(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = PrivapiError::NoFeasibleStrategy {
            floor: 0.1,
            best_recall: 0.4,
        };
        assert!(e.to_string().contains("0.10"));
        assert!(e.to_string().contains("0.40"));
        assert!(PrivapiError::EmptyDataset.to_string().contains("non-empty"));
        let stream = PrivapiError::StreamError {
            day: 3,
            last_day: 5,
        };
        assert!(stream.to_string().contains("day 3"));
        assert!(stream.to_string().contains("day 5"));
        assert!(stream.to_string().contains("ascend strictly"));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<PrivapiError>();
    }
}
