//! Typed failures on the request path, and why the engine would not
//! start.
//!
//! The daemon's availability contract (PANIC001 in the static invariant
//! catalog) is that nothing a client sends — and no internal oddity a
//! request trips over — may panic on the request path: every failure
//! becomes a `status error` response frame and the daemon keeps
//! serving. This module is the vocabulary of those failures;
//! [`crate::protocol::render_error`] turns them into response bodies.

use std::fmt;

use lisa_arch::Accelerator;

/// Why a request could not be answered with a mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// The payload did not parse as a `lisa-request v1` document.
    BadRequest(String),
    /// The request names an accelerator outside the standard catalog.
    UnknownAccelerator(String),
    /// No trained model is resident for the requested accelerator.
    NoModel(String),
    /// Internal inconsistency: a successful mapping outcome carried no
    /// initiation interval.
    MissingIi,
    /// The mapping computation panicked; the panic was contained at the
    /// request boundary.
    MappingPanicked,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadRequest(reason) => write!(f, "bad request: {reason}"),
            ServeError::UnknownAccelerator(name) => {
                write!(f, "unknown accelerator `{name}`")
            }
            ServeError::NoModel(name) => write!(f, "no model resident for `{name}`"),
            ServeError::MissingIi => f.write_str("internal error: mapped outcome carried no II"),
            ServeError::MappingPanicked => f.write_str("internal error: mapping panicked"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Why [`crate::ServeEngine::new`] refused to start.
#[derive(Debug)]
#[non_exhaustive]
pub enum StartError {
    /// A resident model targets an accelerator outside the catalog
    /// (`Accelerator::STANDARD_KEYS`): requests resolve only catalog
    /// keys, so every request for it would fail.
    UnknownAccelerator(String),
    /// The disk-tier directory could not be created.
    Io(std::io::Error),
}

impl fmt::Display for StartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StartError::UnknownAccelerator(name) => write!(
                f,
                "model for accelerator `{name}` cannot be served: requests name one of {}",
                Accelerator::STANDARD_KEYS.join(", ")
            ),
            StartError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StartError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StartError::Io(e) => Some(e),
            StartError::UnknownAccelerator(_) => None,
        }
    }
}

impl From<std::io::Error> for StartError {
    fn from(e: std::io::Error) -> Self {
        StartError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_the_wire_reasons() {
        assert_eq!(
            ServeError::BadRequest("missing header".into()).to_string(),
            "bad request: missing header"
        );
        assert_eq!(
            ServeError::UnknownAccelerator("9x9".into()).to_string(),
            "unknown accelerator `9x9`"
        );
        assert_eq!(
            ServeError::NoModel("4x4".into()).to_string(),
            "no model resident for `4x4`"
        );
        assert_eq!(
            ServeError::MappingPanicked.to_string(),
            "internal error: mapping panicked"
        );
    }
}
