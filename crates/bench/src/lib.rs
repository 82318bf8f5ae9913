//! `binsym-bench` — benchmark programs, engine personas, and the harnesses
//! that regenerate the paper's evaluation (§V).
//!
//! * [`programs`] — the five benchmark programs of Table I / Fig. 6
//!   (three RIOT-derived modules: `base64-encode`, `clif-parser`,
//!   `uri-parser`; two synthetic sorts), written in RV32 assembly and
//!   assembled in-process.
//! * [`engines`] — the four engines compared in the paper, all running on
//!   the shared DSE loop and SMT solver: BinSym (formal semantics), BINSEC
//!   (optimized IR), SymEx-VP (BinSym semantics inside a SystemC-style DES
//!   simulation), and angr (buggy or fixed IR lifter, interpreted). One
//!   entry point, [`run`], drives every persona under a [`RunSpec`]:
//!   sequential or sharded on a work-stealing [`binsym::ParallelSession`],
//!   under any [`SearchStrategy`] (depth-first, breadth-first, or
//!   coverage-guided with covered-PC reporting) and memory policy, with
//!   optional metrics, tracing, and checkpoint/resume.
//! * [`cli`] — shared `--workers`/`--strategy`/`--json`/`--trace` plumbing
//!   and the dependency-free JSON writer behind the `BENCH_*.json`
//!   summaries.
//!
//! Reproduce the paper's artifacts with:
//!
//! ```text
//! cargo run --release -p binsym-bench --bin table1
//! cargo run --release -p binsym-bench --bin fig6
//! ```
//!
//! Wall-time measurements of the plain engine (no persona cost model) live
//! in the hunt benchmark (`huntbench/`) and in ablation 3 of the
//! `ablation` bin.

#![warn(missing_docs)]

pub mod cli;
pub mod engines;
pub mod programs;

pub use cli::{BenchOpts, Json};
pub use engines::{
    memory_policy_from_opts, parse_memory_policy, policy_trajectory, run, run_engine, Engine,
    GhcRuntimeObserver, PolicyTrajectory, RunResult, RunSpec, SearchStrategy, VpObserver, VpStats,
};
pub use programs::{all_programs, by_name, Program, TABLE_LOOKUP, TABLE_LOOKUP_SYMBOLIC_PATHS};
