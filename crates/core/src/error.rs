//! The unified error type of the BinSym engine.
//!
//! Every fallible operation in the toolchain — assembling a SUT, parsing an
//! ELF image, building a [`crate::Session`], executing a path — reports
//! through [`Error`]. The per-crate error types (`binsym_asm::AsmError`,
//! `binsym_elf::ElfError`, [`crate::ExecError`], `binsym_isa::DecodeError`)
//! still exist for precision at their origin, but all convert into `Error`
//! via `From`, so `?` composes across the whole stack.

use std::fmt;

use crate::machine::ExecError;
use crate::SYM_INPUT_SYMBOL;

/// The unified `binsym` error.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// The binary defines no `__sym_input` symbol.
    NoSymbolicInput,
    /// A path failed to execute (decode error, unknown syscall, …).
    Exec(ExecError),
    /// A path exhausted its instruction budget.
    OutOfFuel {
        /// The input that drove the runaway path.
        input: Vec<u8>,
    },
    /// The SUT failed to assemble.
    Asm(binsym_asm::AsmError),
    /// The SUT's ELF image failed to parse.
    Elf(binsym_elf::ElfError),
    /// A builder from [`crate::Session::builder`] was built without
    /// [`crate::SessionBuilder::binary`].
    MissingBinary,
    /// A builder parameter is outside its valid range.
    InvalidConfig {
        /// Which parameter, and why it is invalid.
        what: &'static str,
    },
    /// Replaying a [`crate::Prescription`] on a fresh engine diverged from
    /// the recorded parent path. Execution is deterministic, so this
    /// indicates a non-deterministic [`crate::PathExecutor`] (or an engine
    /// bug) — the prescription model requires that the same input always
    /// reproduces the same trail.
    ReplayDivergence {
        /// What diverged.
        what: &'static str,
    },
    /// A checkpoint/wire operation failed (I/O, bad magic, version
    /// mismatch, truncated or corrupt section). Load failures surface as
    /// session-level errors, never panics.
    Persist(crate::persist::PersistError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NoSymbolicInput => {
                write!(f, "binary defines no `{SYM_INPUT_SYMBOL}` symbol")
            }
            Error::Exec(e) => write!(f, "{e}"),
            Error::OutOfFuel { .. } => write!(f, "path exceeded its instruction budget"),
            Error::Asm(e) => write!(f, "{e}"),
            Error::Elf(e) => write!(f, "{e}"),
            Error::MissingBinary => {
                write!(f, "session has no binary: call `binary()` before `build()`")
            }
            Error::InvalidConfig { what } => write!(f, "invalid session configuration: {what}"),
            Error::ReplayDivergence { what } => {
                write!(
                    f,
                    "prescription replay diverged from the parent path: {what}"
                )
            }
            Error::Persist(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Exec(e) => Some(e),
            Error::Asm(e) => Some(e),
            Error::Elf(e) => Some(e),
            Error::Persist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ExecError> for Error {
    fn from(e: ExecError) -> Self {
        Error::Exec(e)
    }
}

impl From<binsym_asm::AsmError> for Error {
    fn from(e: binsym_asm::AsmError) -> Self {
        Error::Asm(e)
    }
}

impl From<binsym_elf::ElfError> for Error {
    fn from(e: binsym_elf::ElfError) -> Self {
        Error::Elf(e)
    }
}

impl From<binsym_isa::DecodeError> for Error {
    fn from(e: binsym_isa::DecodeError) -> Self {
        Error::Exec(ExecError::Decode(e))
    }
}

impl From<crate::persist::PersistError> for Error {
    fn from(e: crate::persist::PersistError) -> Self {
        Error::Persist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_compose_with_question_mark() {
        fn assemble(src: &str) -> Result<binsym_elf::ElfFile, Error> {
            Ok(binsym_asm::Assembler::new().assemble(src)?)
        }
        let err = assemble("bogus instruction").unwrap_err();
        assert!(matches!(err, Error::Asm(_)), "got {err:?}");
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn display_is_informative() {
        assert!(Error::NoSymbolicInput.to_string().contains("__sym_input"));
        let missing = Error::MissingBinary.to_string();
        assert!(missing.contains("binary()"));
        assert!(
            !missing.contains("executor()"),
            "no builder method of that name exists"
        );
        let e = Error::InvalidConfig {
            what: "path limit must be nonzero",
        };
        assert!(e.to_string().contains("path limit"));
    }
}
