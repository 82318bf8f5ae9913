//! The executable formal specification: instruction semantics expressed in
//! the primitive DSL, bound to the encoding table.
//!
//! [`Spec`] is the single authoritative artifact every tool in this
//! repository derives from — the concrete interpreter, the symbolic engine,
//! the disassembler in the benchmark harness — mirroring the paper's central
//! claim that one formal ISA specification should feed the whole toolchain.
//!
//! Custom instruction set extensions are added at runtime with
//! [`Spec::register_custom`] (encoding in the riscv-opcodes YAML format of
//! Fig. 3, semantics as a DSL program as in Fig. 4); no interpreter needs to
//! change, which is precisely the paper's §IV case study.

pub mod rv32i;
pub mod rv32m;
pub mod zbb;

use std::fmt;
use std::sync::Arc;

use crate::decode::{self, DecodeError, Decoded};
use crate::encoding::{InstrDesc, InstrId, InstrTable, RegisterError, YamlError};
use crate::stmt::Stmt;

/// A semantics function: maps decoded operands to a DSL program.
pub type SemanticsFn = Arc<dyn Fn(&Decoded) -> Vec<Stmt> + Send + Sync>;

/// Error raised when registering a custom instruction.
#[derive(Debug)]
pub enum CustomError {
    /// The YAML description failed to parse or register.
    Yaml(YamlError),
    /// The description registered an unexpected number of instructions.
    NotExactlyOne(usize),
    /// Direct registration failed.
    Register(RegisterError),
}

impl fmt::Display for CustomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CustomError::Yaml(e) => write!(f, "{e}"),
            CustomError::NotExactlyOne(n) => {
                write!(
                    f,
                    "expected exactly one instruction in description, got {n}"
                )
            }
            CustomError::Register(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CustomError {}

/// The executable formal ISA specification: encodings + semantics.
///
/// Cloning is cheap: clones share one instruction table and one set of
/// semantics handlers behind an [`Arc`], and [`Spec::register_custom`] /
/// [`Spec::register_custom_desc`] copy them on write, so extending a clone
/// leaves every other clone unchanged. The symbolic engine clones the
/// spec into every machine it builds.
///
/// # Example
/// ```
/// use binsym_isa::Spec;
///
/// let spec = Spec::rv32im();
/// // divu a1, a0, a1 — the instruction of the paper's Fig. 2.
/// let raw = (1 << 25) | (11 << 20) | (10 << 15) | (5 << 12) | (11 << 7) | 0x33;
/// let d = spec.decode(raw)?;
/// assert_eq!(spec.name(d.id), "divu");
/// let program = spec.semantics(&d);
/// assert!(!program.is_empty());
/// # Ok::<(), binsym_isa::DecodeError>(())
/// ```
#[derive(Clone)]
pub struct Spec {
    tables: Arc<Tables>,
}

/// What a [`Spec`] is made of: the encodings and, at the same index, the
/// semantics of each instruction.
#[derive(Clone)]
struct Tables {
    table: InstrTable,
    handlers: Vec<SemanticsFn>,
}

impl fmt::Debug for Spec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Spec")
            .field("instructions", &self.tables.table.len())
            .finish()
    }
}

impl Spec {
    /// The standard RV32I + M specification.
    pub fn rv32im() -> Spec {
        let table = InstrTable::rv32im();
        let mut handlers: Vec<Option<SemanticsFn>> = vec![None; table.len()];
        for (name, f) in rv32i::handlers().into_iter().chain(rv32m::handlers()) {
            let id = table
                .by_name(name)
                .unwrap_or_else(|| panic!("builtin handler for unknown instruction {name}"));
            handlers[id.index()] = Some(f);
        }
        let handlers = handlers
            .into_iter()
            .enumerate()
            .map(|(i, h)| {
                h.unwrap_or_else(|| panic!("missing semantics for builtin instruction #{i}"))
            })
            .collect();
        Spec {
            tables: Arc::new(Tables { table, handlers }),
        }
    }

    /// The encoding table.
    pub fn table(&self) -> &InstrTable {
        &self.tables.table
    }

    /// Mnemonic of an instruction.
    pub fn name(&self, id: InstrId) -> &str {
        &self.tables.table.desc(id).name
    }

    /// Decodes a raw instruction word.
    ///
    /// # Errors
    /// Returns [`DecodeError`] for illegal instructions.
    pub fn decode(&self, raw: u32) -> Result<Decoded, DecodeError> {
        decode::decode(&self.tables.table, raw)
    }

    /// The DSL program giving the semantics of a decoded instruction.
    pub fn semantics(&self, d: &Decoded) -> Vec<Stmt> {
        (self.tables.handlers[d.id.index()])(d)
    }

    /// Registers one instruction through `register` on a private copy of
    /// the tables, and installs the copy only on success.
    fn extend(
        &mut self,
        register: impl FnOnce(&mut InstrTable) -> Result<InstrId, CustomError>,
        semantics: SemanticsFn,
    ) -> Result<InstrId, CustomError> {
        let mut tables = Tables::clone(&self.tables);
        let id = register(&mut tables.table)?;
        debug_assert_eq!(id.index(), tables.handlers.len());
        tables.handlers.push(semantics);
        self.tables = Arc::new(tables);
        Ok(id)
    }

    /// Registers a custom instruction from a YAML description (Fig. 3
    /// format, exactly one instruction) and its semantics (Fig. 4 style).
    ///
    /// # Errors
    /// Returns [`CustomError`] on parse errors, encoding conflicts, or if
    /// the description does not contain exactly one instruction; the spec
    /// is then unchanged.
    pub fn register_custom(
        &mut self,
        yaml: &str,
        semantics: SemanticsFn,
    ) -> Result<InstrId, CustomError> {
        self.extend(
            |table| {
                let ids = table.register_yaml(yaml).map_err(CustomError::Yaml)?;
                match ids[..] {
                    [id] => Ok(id),
                    _ => Err(CustomError::NotExactlyOne(ids.len())),
                }
            },
            semantics,
        )
    }

    /// Registers a custom instruction from a programmatic description.
    ///
    /// # Errors
    /// Returns [`CustomError::Register`] on encoding conflicts; the spec is
    /// then unchanged.
    pub fn register_custom_desc(
        &mut self,
        desc: InstrDesc,
        semantics: SemanticsFn,
    ) -> Result<InstrId, CustomError> {
        self.extend(
            |table| table.register(desc).map_err(CustomError::Register),
            semantics,
        )
    }
}

/// The paper's §IV case study: semantics of the custom `MADD` instruction
/// (Fig. 4) — `(rs1 × rs2) + rs3` with 64-bit intermediate multiplication —
/// expressed entirely in existing language primitives.
///
/// Register it with:
/// ```
/// use binsym_isa::encoding::MADD_YAML;
/// use binsym_isa::spec::{madd_semantics, Spec};
///
/// let mut spec = Spec::rv32im();
/// spec.register_custom(MADD_YAML, madd_semantics()).expect("registers");
/// ```
pub fn madd_semantics() -> SemanticsFn {
    use crate::expr::Expr;
    Arc::new(|d: &Decoded| {
        let (rs1, rs2, rs3, rd) = (d.rs1(), d.rs2(), d.rs3(), d.rd());
        let mult_result = Expr::reg(rs1).sext(64).mul(Expr::reg(rs2).sext(64));
        let mult_trunc = mult_result.extract(31, 0);
        vec![Stmt::write_reg(rd, mult_trunc.add(Expr::reg(rs3)))]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::MADD_YAML;
    use crate::expr::Expr;
    use crate::reg::Reg;

    #[test]
    fn rv32im_spec_has_all_handlers() {
        let spec = Spec::rv32im();
        assert_eq!(spec.table().len(), 48);
        // Every instruction's semantics type-checks.
        for (id, desc) in spec.table().iter() {
            // Construct a plausible encoding: match value with distinct regs.
            let raw = desc.match_val | (1 << 7) | (2 << 15) | (3 << 20);
            // Only decode when the operand bits do not clash with the mask.
            let raw = (raw & !desc.mask) | desc.match_val;
            if let Ok(d) = spec.decode(raw) {
                if d.id == id {
                    for s in spec.semantics(&d) {
                        s.check().unwrap_or_else(|e| {
                            panic!("semantics of {} ill-typed: {e}", desc.name)
                        });
                    }
                }
            }
        }
    }

    #[test]
    fn divu_semantics_matches_paper() {
        // Fig. 2 ④: runIfElse (rs2 == 0) (rd := 0xffffffff) (rd := rs1 / rs2)
        let spec = Spec::rv32im();
        let raw = (1 << 25) | (11 << 20) | (10 << 15) | (5 << 12) | (11 << 7) | 0x33;
        let d = spec.decode(raw).unwrap();
        assert_eq!(spec.name(d.id), "divu");
        let prog = spec.semantics(&d);
        assert_eq!(prog.len(), 1);
        match &prog[0] {
            Stmt::If { cond, then, els } => {
                assert_eq!(
                    *cond,
                    Expr::reg(Reg::A1).eq(Expr::imm(0)),
                    "condition must be rs2 == 0"
                );
                assert_eq!(then.len(), 1);
                assert_eq!(els.len(), 1);
                match &then[0] {
                    Stmt::WriteRegister { rd, value } => {
                        assert_eq!(*rd, Reg::A1);
                        assert_eq!(*value, Expr::imm(0xffff_ffff));
                    }
                    other => panic!("unexpected then-branch {other:?}"),
                }
            }
            other => panic!("divu must start with runIfElse, got {other:?}"),
        }
    }

    #[test]
    fn madd_registers_and_decodes() {
        let mut spec = Spec::rv32im();
        let id = spec
            .register_custom(MADD_YAML, madd_semantics())
            .expect("registers");
        assert_eq!(spec.name(id), "madd");
        let raw = (4 << 27) | (1 << 25) | (3 << 20) | (2 << 15) | (1 << 7) | 0x43;
        let d = spec.decode(raw).unwrap();
        assert_eq!(d.id, id);
        let prog = spec.semantics(&d);
        assert_eq!(prog.len(), 1);
        prog[0].check().expect("madd semantics type-check");
    }

    #[test]
    fn custom_rejects_conflicting_encoding() {
        let mut spec = Spec::rv32im();
        let clash = "\
myinstr:
  mask: '0x7f'
  match: '0x33'
";
        let err = spec.register_custom(clash, madd_semantics());
        assert!(err.is_err());
    }

    #[test]
    fn failed_registration_leaves_the_spec_unchanged() {
        let mut spec = Spec::rv32im();
        let two = "\
first:
  mask: '0x707f'
  match: '0x0000000b'
second:
  mask: '0x707f'
  match: '0x0000100b'
";
        assert!(matches!(
            spec.register_custom(two, madd_semantics()),
            Err(CustomError::NotExactlyOne(2))
        ));
        assert_eq!(spec.table().len(), 48);
        assert!(spec.decode(0x0000_000b).is_err());
    }
}
