//! `binsym-smt` — a self-contained SMT solver for the quantifier-free theory
//! of fixed-size bitvectors (QF_BV), built for the BinSym reproduction.
//!
//! The paper's BinSym engine encodes the arithmetic/logic primitives of a
//! formal ISA specification into SMT bitvector terms and discharges branch
//! feasibility queries with Z3. Z3 is not available in this environment, so
//! this crate provides the complete replacement stack:
//!
//! * [`term`] — hash-consed term DAG with bottom-up rewriting/simplification,
//! * [`eval`] — concrete evaluation of terms under variable assignments,
//! * [`analysis`] — word-level static analysis (known-bits masks, unsigned
//!   intervals, assumed-fact order closure) used by the engine to prune
//!   flip queries before any bit-blasting,
//! * [`sat`] — a CDCL SAT solver (two-watched literals, VSIDS, 1UIP clause
//!   learning, Luby restarts, clause-database reduction),
//! * [`bitblast`] — Tseitin encoding of bitvector terms to CNF,
//! * [`solver`] — an incremental `assert`/`check_sat` façade that poses
//!   queries as assumptions, with model extraction,
//! * [`prefix`] — reusable blasted path-prefix contexts for the parallel
//!   engine's deterministic warm start (each flip query solved on a
//!   disposable clone; models bit-identical to a cold per-query solver),
//! * [`smtlib`] — an SMT-LIB v2 printer (with `let`-sharing for multiply
//!   referenced internal nodes) used to regenerate the paper's Fig. 2
//!   solver query.
//!
//! # Example
//!
//! ```
//! use binsym_smt::{Solver, SatResult, TermManager};
//!
//! let mut tm = TermManager::new();
//! let x = tm.var("x", 32);
//! let five = tm.bv_const(5, 32);
//! let cond = tm.ult(five, x); // 5 <u x
//! let mut solver = Solver::new();
//! assert_eq!(solver.check_sat(&mut tm, &[cond]), SatResult::Sat);
//! let model = solver.model(&tm).expect("sat implies model");
//! assert!(model.value("x").unwrap() > 5);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod bitblast;
pub mod eval;
pub mod model;
pub mod prefix;
pub mod sat;
pub mod smtlib;
pub mod solver;
pub mod term;

pub use analysis::{Analysis, BvFact};
pub use model::Model;
pub use prefix::{PrefixContext, PrefixError, PrefixSolveReport};
pub use sat::{Lit, RollbackError, SatCheckpoint, SatResult, SatSolver};
pub use solver::Solver;
pub use term::{Op, Sort, Term, TermManager};
