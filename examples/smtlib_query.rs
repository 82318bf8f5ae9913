//! The paper's Fig. 2: the SMT-LIB solver queries generated for a branch in
//! a binary, derived from the formal ISA semantics.
//!
//! ```text
//! cargo run --example smtlib_query
//! ```
//!
//! Executes the two-instruction snippet `DIVU a1, a0, a1; BLTU a0, a1, fail`
//! symbolically and prints the solver queries the engine poses while
//! reasoning about the `fail` branch, in SMT-LIB v2 (Fig. 2 ③).
//!
//! With the formal DIVU semantics the `runIfElse (rs2 == 0)` guard is itself
//! a branch point, so the engine reasons in two steps, exactly as §III-B
//! describes: *"if a SUT executes a RISC-V DIVU instruction with a symbolic
//! divisor operand, we construct an SMT query to check if it is possible for
//! the divisor to be zero/non-zero"*:
//!
//! 1. on the initial path (divisor ≠ 0) the `fail` branch is infeasible —
//!    division truly shrinks values;
//! 2. flipping the DIVU guard (divisor = 0) makes `z = 0xffffffff`, and on
//!    the re-executed path the `fail` branch *is* taken: the edge case of
//!    the paper's running example.

use binsym_repro::asm::Assembler;
use binsym_repro::binsym::{SymMachine, SymWord, TrailEntry};
use binsym_repro::isa::{Reg, Spec};
use binsym_repro::smt::{smtlib, SatResult, Solver, Term, TermManager};

fn run_snippet(
    tm: &mut TermManager,
    x0: u32,
    y0: u32,
) -> Result<Vec<TrailEntry>, Box<dyn std::error::Error>> {
    let elf = Assembler::new().assemble(
        r#"
_start:
        divu a1, a0, a1
        bltu a0, a1, fail
        li   a0, 0
        li   a7, 93
        ecall
fail:
        li   a0, 1
        li   a7, 93
        ecall
"#,
    )?;
    let mut m = SymMachine::new(Spec::rv32im());
    m.load_elf(&elf);
    let x = tm.var("x", 32);
    let y = tm.var("y", 32);
    m.regs.write(Reg::A0, SymWord::symbolic(x0, x));
    m.regs.write(Reg::A1, SymWord::symbolic(y0, y));
    m.step(tm)?; // DIVU
    m.step(tm)?; // BLTU
    Ok(m.trail)
}

fn check(tm: &mut TermManager, assertions: &[Term]) -> SatResult {
    println!("{}", smtlib::query_to_smtlib(tm, assertions));
    let mut solver = Solver::new();
    for &a in assertions {
        solver.assert_term(tm, a);
    }
    let r = solver.check_sat(tm, &[]);
    println!(
        ";; --> {}\n",
        if r == SatResult::Sat {
            "satisfiable"
        } else {
            "unsatisfiable"
        }
    );
    r
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut tm = TermManager::new();

    // First execution with x = 1000, y = 3: DIVU takes the divisor != 0
    // side, BLTU falls through.
    let trail = run_snippet(&mut tm, 1000, 3)?;
    let conds: Vec<(Term, bool)> = trail
        .iter()
        .map(|e| match *e {
            TrailEntry::Branch { cond, taken, .. } => (cond, taken),
            TrailEntry::Concretize { .. } => unreachable!("no symbolic addresses here"),
        })
        .collect();
    assert_eq!(conds.len(), 2, "DIVU guard + BLTU branch");
    let (divu_guard, divu_taken) = conds[0];
    let (bltu_cond, _) = conds[1];
    assert!(!divu_taken, "concrete divisor 3 is nonzero");

    // Query 1: can the fail branch be taken on this path (divisor != 0)?
    println!(";; query 1: prefix [divisor != 0], flipped branch [x < x/y]");
    let not_zero = tm.not(divu_guard);
    let q1 = check(&mut tm, &[not_zero, bltu_cond]);
    assert_eq!(q1, SatResult::Unsat, "division by nonzero shrinks values");

    // Query 2: flip the DIVU guard itself — is a zero divisor possible?
    println!(";; query 2: flipped DIVU guard [divisor = 0]");
    let q2 = check(&mut tm, &[divu_guard]);
    assert_eq!(q2, SatResult::Sat);

    // Re-execute with the zero divisor: now BLTU is taken concretely, and
    // the path condition of the *taken* fail branch is satisfiable — the
    // query shown in the paper's Fig. 2.
    let trail = run_snippet(&mut tm, 1000, 0)?;
    let assertions: Vec<Term> = trail.iter().map(|e| e.path_term(&mut tm)).collect();
    println!(";; query 3: path condition of the executed fail path (Fig. 2 ③)");
    let q3 = check(&mut tm, &assertions);
    assert_eq!(q3, SatResult::Sat);
    println!(";; the fail branch is reachable via the DIVU division-by-zero semantics");

    Ok(())
}
