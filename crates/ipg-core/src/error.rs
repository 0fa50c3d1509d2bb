//! Error types shared across the crate.

use std::fmt;

/// Convenience alias used by all fallible public functions in this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// The unified error type of `ipg-core`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Error {
    /// The textual frontend rejected the grammar source.
    Syntax {
        /// 1-based line of the offending token.
        line: usize,
        /// 1-based column of the offending token.
        col: usize,
        /// Human-readable description.
        msg: String,
    },
    /// Attribute checking failed (undefined reference or cyclic
    /// dependencies inside an alternative).
    Check(String),
    /// The grammar is structurally malformed (duplicate rule, unknown
    /// nonterminal, missing start symbol, …).
    Grammar(String),
    /// Parsing an input failed. Reports the deepest failure observed.
    Parse(ParseError),
    /// The termination checker could not prove that parsing terminates.
    Termination(String),
    /// A blackbox parser reported an error.
    Blackbox(String),
    /// A streaming session was misused (input after completion, byte
    /// budget exceeded, …) or evicted by its host.
    Session(String),
    /// A persisted `.ipgc` artifact could not be loaded: bad magic,
    /// format-version skew, digest mismatch, truncation, or an
    /// inconsistency between the artifact and the grammar it claims to
    /// have been compiled from. Loading never panics on malformed bytes.
    Artifact(String),
    /// A service worker panicked while executing this job. The panic was
    /// caught at the job boundary: the job is lost, the worker recovered
    /// and keeps serving, and the payload message is preserved here so
    /// the caller sees *why* instead of a dropped reply channel.
    WorkerPanic(String),
}

/// Details about a failed parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Absolute input offset of the deepest failure.
    pub offset: usize,
    /// Name of the nonterminal being parsed when the deepest failure
    /// occurred (if any).
    pub nonterminal: Option<String>,
    /// Human-readable description of the deepest failure.
    pub msg: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Syntax { line, col, msg } => {
                write!(f, "syntax error at {line}:{col}: {msg}")
            }
            Error::Check(msg) => write!(f, "attribute check failed: {msg}"),
            Error::Grammar(msg) => write!(f, "malformed grammar: {msg}"),
            Error::Parse(pe) => write!(f, "{pe}"),
            Error::Termination(msg) => write!(f, "termination check failed: {msg}"),
            Error::Blackbox(msg) => write!(f, "blackbox parser failed: {msg}"),
            Error::Session(msg) => write!(f, "session error: {msg}"),
            Error::Artifact(msg) => write!(f, "artifact error: {msg}"),
            Error::WorkerPanic(msg) => write!(f, "worker panicked: {msg}"),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse failed at offset {}", self.offset)?;
        if let Some(nt) = &self.nonterminal {
            write!(f, " in {nt}")?;
        }
        write!(f, ": {}", self.msg)
    }
}

impl std::error::Error for Error {}

impl From<ParseError> for Error {
    fn from(pe: ParseError) -> Self {
        Error::Parse(pe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_syntax_error() {
        let e = Error::Syntax { line: 3, col: 7, msg: "unexpected `]`".into() };
        assert_eq!(e.to_string(), "syntax error at 3:7: unexpected `]`");
    }

    #[test]
    fn display_parse_error_with_nonterminal() {
        let e = Error::from(ParseError {
            offset: 42,
            nonterminal: Some("Header".into()),
            msg: "terminal mismatch".into(),
        });
        assert_eq!(e.to_string(), "parse failed at offset 42 in Header: terminal mismatch");
    }

    #[test]
    fn parse_error_without_nonterminal() {
        let pe = ParseError { offset: 0, nonterminal: None, msg: "empty input".into() };
        assert_eq!(pe.to_string(), "parse failed at offset 0: empty input");
    }
}
