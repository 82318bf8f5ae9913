//! `binsym-lifter` — the *indirect IR-based* baseline: a hand-written
//! RISC-V → IR lifter plus an IR-level symbolic executor.
//!
//! This crate reproduces the translation methodology the paper argues
//! against (Fig. 1, path (2)): instead of interpreting a formal ISA
//! specification, each binary instruction is *lifted* by hand-written code
//! into a VEX-like register-transfer IR, and symbolic execution happens at
//! the IR level. Hand-written lifters are error-prone — §V-A of the paper
//! documents five previously unknown bugs in angr's RISC-V lifter, all of
//! which this crate can faithfully reinstate via [`LifterBugs`]:
//!
//! 1. arithmetic right shift modeled as a logical shift (`SRA`/`SRAI`),
//! 2. R-type shifts using the rs2 register *index* instead of its value,
//! 3. loads not sign-/zero-extending the loaded value correctly,
//! 4. I-type shift amounts treated as signed 5-bit two's complement,
//! 5. signed comparisons (`SLT`/`SLTI`/`BLT`/`BGE`) comparing unsigned.
//!
//! Engine personas for the paper's evaluation are configured through
//! [`EngineConfig`]:
//! * [`EngineConfig::angr`] — all five bugs, no lift cache, interpreter
//!   overhead modeling angr's Python-based execution;
//! * [`EngineConfig::angr_fixed`] — the post-report fixed angr (§V-B uses
//!   this for the performance comparison);
//! * [`EngineConfig::binsec`] — no bugs, block-lift caching, no overhead:
//!   a mature, optimized native IR engine.
//!
//! The exploration loop and SMT solver are shared with the `binsym` core
//! (the paper's experimental control: same Z3, same search strategy); only
//! the binary→symbolic-expression translation differs.

#![warn(missing_docs)]

pub mod engine;
pub mod ir;
pub mod lift;

pub use engine::{EngineConfig, LifterExecutor};
pub use ir::{IrBinop, IrBlock, IrExpr, IrStmt};
pub use lift::{lift_instruction, LiftError, Lifter, LifterBugs};
