//! Shared typed errors for tensor I/O and structural validation.
//!
//! One enum serves both layers that can reject data: the readers in
//! [`crate::io`] (malformed text/binary input) and the `validate()`
//! methods on [`crate::CooTensor`] and the compressed formats in the
//! `tensor-formats` crate (violated structural invariants). Before this
//! existed every failure was a bare `String`; callers could print but
//! never branch. The enum is `thiserror`-shaped by hand — the workspace
//! vendors its dependencies and deliberately carries no proc-macro error
//! crate.

use std::fmt;

use crate::frame::FrameError;

/// Result alias for fallible tensor operations.
pub type TensorResult<T> = Result<T, TensorError>;

/// Why a tensor could not be read or failed validation.
#[derive(Debug)]
pub enum TensorError {
    /// An underlying I/O failure (short read, broken pipe, ...).
    Io(std::io::Error),
    /// A malformed line in text input. `line` is 1-based, pointing at the
    /// offending line of the `.tns` file.
    Parse { line: usize, msg: String },
    /// A structural invariant violation: in-memory data (or a decoded
    /// binary file) that no valid tensor/format instance can have.
    /// `context` names the structure, e.g. `"coo"` or `"csf"`.
    Invalid { context: &'static str, msg: String },
    /// A tensor with fewer modes than a format or driver is defined for:
    /// CSF and CSL need two, B-CSF, HB-CSF and CPD-ALS three.
    OrderTooLow {
        what: &'static str,
        order: usize,
        min: usize,
    },
    /// Two nonzeros with identical coordinates in input whose duplicate
    /// policy is [`crate::io::DuplicatePolicy::Reject`]. Which entry
    /// "wins" is a semantic choice the caller must make explicitly
    /// (sum? keep? abort?) — never a silent default. `line` is the
    /// 1-based line of the *second* occurrence (0 for binary input).
    Duplicate { line: usize, coords: Vec<u32> },
    /// A binary file whose container is refused: foreign magic, unknown
    /// version, a length that disagrees with its counts, or a checksum
    /// mismatch.
    Frame(FrameError),
}

impl TensorError {
    /// A parse error at 0-based line `lineno` (stored 1-based).
    pub fn parse_at(lineno: usize, msg: impl Into<String>) -> Self {
        TensorError::Parse {
            line: lineno + 1,
            msg: msg.into(),
        }
    }

    /// An invariant violation in structure `context`.
    pub fn invalid(context: &'static str, msg: impl Into<String>) -> Self {
        TensorError::Invalid {
            context,
            msg: msg.into(),
        }
    }

    /// A rejected duplicate coordinate (1-based `line` of the second
    /// occurrence; pass 0 when the source has no line structure).
    pub fn duplicate(line: usize, coords: Vec<u32>) -> Self {
        TensorError::Duplicate { line, coords }
    }
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::Io(e) => write!(f, "i/o error: {e}"),
            TensorError::Frame(e) => write!(f, "{e}"),
            TensorError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
            TensorError::Invalid { context, msg } => write!(f, "invalid {context}: {msg}"),
            TensorError::OrderTooLow { what, order, min } => {
                write!(
                    f,
                    "{what} needs an order >= {min} tensor, got order {order}"
                )
            }
            TensorError::Duplicate { line, coords } => {
                let ones: Vec<String> = coords.iter().map(|&c| (c + 1).to_string()).collect();
                if *line > 0 {
                    write!(
                        f,
                        "line {line}: duplicate coordinate ({}) — pass an explicit \
                         DuplicatePolicy (Sum/Keep) to accept duplicates",
                        ones.join(", ")
                    )
                } else {
                    write!(
                        f,
                        "duplicate coordinate ({}) — pass an explicit DuplicatePolicy \
                         (Sum/Keep) to accept duplicates",
                        ones.join(", ")
                    )
                }
            }
        }
    }
}

impl std::error::Error for TensorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TensorError::Io(e) => Some(e),
            TensorError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for TensorError {
    fn from(e: FrameError) -> Self {
        TensorError::Frame(e)
    }
}

impl From<std::io::Error> for TensorError {
    fn from(e: std::io::Error) -> Self {
        TensorError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = TensorError::parse_at(4, "bad value");
        assert_eq!(e.to_string(), "line 5: bad value");
        let e = TensorError::invalid("csf", "pointer not monotone");
        assert_eq!(e.to_string(), "invalid csf: pointer not monotone");
        let e = TensorError::OrderTooLow {
            what: "csf",
            order: 1,
            min: 2,
        };
        assert_eq!(e.to_string(), "csf needs an order >= 2 tensor, got order 1");
    }

    #[test]
    fn io_error_keeps_its_kind() {
        let io_err = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "short");
        match TensorError::from(io_err) {
            TensorError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
            other => panic!("expected an i/o error, got {other:?}"),
        }
    }

    #[test]
    fn source_chains_io() {
        use std::error::Error;
        let te = TensorError::from(std::io::Error::other("inner"));
        assert!(te.source().is_some());
        assert!(TensorError::parse_at(0, "x").source().is_none());
    }
}
