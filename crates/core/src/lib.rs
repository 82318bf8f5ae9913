//! `binsym` — symbolic execution of RISC-V binary code based on formal ISA
//! semantics.
//!
//! This is the Rust reproduction of the paper's BinSym engine: a *symbolic
//! modular interpreter* for the executable formal specification in
//! `binsym-isa`. The engine never looks at instruction words itself — it
//! interprets the specification's language primitives:
//!
//! * arithmetic/logic primitives ([`binsym_isa::Expr`]) are mapped to SMT
//!   bitvector terms (`binsym-smt`) — the *encode* step of Fig. 1;
//! * stateful primitives ([`binsym_isa::Stmt`]) operate on symbolic variants
//!   of the register file and memory, reusing the specification's generic
//!   components — the *semanticize* step;
//! * the `runIfElse` primitive triggers branch feasibility reasoning: when a
//!   condition depends on symbolic input, the engine queries the solver for
//!   both outcomes and explores the feasible ones.
//!
//! Exploration is driven by a [`Session`], assembled with a builder over
//! two pluggable seams:
//!
//! * [`PathStrategy`] — which pending branch flip to try next ([`Dfs`],
//!   the paper's §III-B policy and the default; [`Bfs`]; [`RandomRestart`];
//!   [`CoverageGuided`], ranking flips against a lock-free [`CoverageMap`]),
//!   each one [`FrontierPolicy`] serving the sequential and sharded engines;
//! * [`Observer`] — instrumentation hooks (`on_step`/`on_branch`/
//!   `on_path`/`on_query`) for cost models and coverage tracking.
//!
//! Every feasibility query goes to the in-tree bit-blasting solver
//! (`binsym_smt::Solver`), as in the paper, behind a word-level
//! static-analysis gate ([`StaticGate`], on by default) that drops flip
//! queries the path condition already proves infeasible (see
//! [`SessionBuilder::static_analysis`] and [`backend`]).
//!
//! Paths stream lazily from [`Session::paths`]; [`Session::run_all`]
//! drains them into a [`Summary`]. All errors unify under [`Error`].
//!
//! The same builder also assembles a **sharded** exploration:
//! `.workers(n).build_parallel()` yields a [`ParallelSession`] whose worker
//! threads each own a complete engine and exchange pending paths as
//! plain-data, replayable [`Prescription`]s through work-stealing shard
//! frontiers — with results merged deterministically into the sequential
//! discovery order (see [`parallel`] and [`prescribe`]). Both engines run
//! one pipeline per flip: the same query builder, gate, solve step and
//! path step; they differ only in where the solver context lives (one
//! incremental solver for the whole exploration, or a fresh or cached
//! context per prescription).
//!
//! # Quickstart
//! ```
//! use binsym::Session;
//! use binsym_asm::Assembler;
//! use binsym_isa::Spec;
//!
//! // if (x == 42) exit(1) else exit(0), with x read from symbolic input.
//! let elf = Assembler::new().assemble(r#"
//!         .data
//! __sym_input:
//!         .word 0
//!         .text
//! _start:
//!         la a0, __sym_input
//!         lw a1, 0(a0)
//!         li a2, 42
//!         beq a1, a2, hit
//!         li a0, 0
//!         li a7, 93
//!         ecall
//! hit:
//!         li a0, 1
//!         li a7, 93
//!         ecall
//! "#)?;
//! let mut session = Session::builder(Spec::rv32im()).binary(&elf).build()?;
//! let summary = session.run_all()?;
//! assert_eq!(summary.paths, 2);
//! assert_eq!(summary.error_paths.len(), 1); // the exit(1) path
//!
//! // Or stream the paths lazily and stop at the first bug:
//! let mut session = Session::builder(Spec::rv32im()).binary(&elf).build()?;
//! let bug = session.paths().find(|p| p.as_ref().is_ok_and(|p| p.is_error()));
//! assert_eq!(bug.unwrap()?.input, vec![42, 0, 0, 0]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod coverage;
pub mod error;
pub mod machine;
pub mod memory;
pub mod metrics;
pub mod observe;
pub mod parallel;
pub mod persist;
pub mod prescribe;
pub mod session;
pub mod strategy;
pub mod trace;
pub mod value;

pub use backend::StaticGate;
pub use coverage::{CoverageMap, CoverageObserver};
pub use error::Error;
pub use machine::{ExecError, StepResult, SymMachine, TrailEntry};
pub use memory::{AddressPolicyKind, Resolution};
pub use metrics::{
    Histogram, HistogramSnapshot, MetricsRegistry, MetricsReport, Phase, WorkerMetrics,
};
pub use observe::{
    CheckpointEvent, CountingObserver, NullObserver, Observer, StaticAnalysisStats, WarmQueryStats,
};
pub use parallel::{ExecutorFactory, ObserverFactory, ParallelSession, ShardStrategyFactory};
pub use persist::{
    decode_one, decode_seq, encode_one, encode_seq, Dec, Document, Enc, PersistError, Wire,
};
pub use prescribe::{Flip, PathId, PathRecord, Prescription};
pub use session::{
    find_sym_input, ErrorPath, PathExecutor, PathOutcome, Paths, Session, SessionBuilder,
    SpecExecutor, Summary,
};
pub use strategy::{
    Bfs, BranchSited, Candidate, CoverageGuided, Dfs, FrontierPolicy, PathStrategy,
    PrescriptionStrategy, RandomRestart,
};
pub use trace::{ChromeTraceSink, TraceSink};
pub use value::{SymByte, SymWord};

/// Name of the symbol marking the symbolic input region in SUT binaries
/// (the harness replaces its bytes with fresh symbolic variables).
pub const SYM_INPUT_SYMBOL: &str = "__sym_input";

/// Syscall number of `exit` in the harness ABI.
pub const SYSCALL_EXIT: u32 = 93;
