//! Incremental SMT solver façade: `assert` / `push` / `pop` / `check_sat`
//! with model extraction.
//!
//! Incrementality is implemented MiniSat-style: the Tseitin definitional
//! clauses emitted by the bit-blaster are *valid* (they define fresh gate
//! variables) and therefore stay in the SAT database forever; only the
//! top-level assertions are retractable. Each assertion frame owns a guard
//! literal `g`; asserting `t` in that frame adds the clause `¬g ∨ lit(t)`,
//! and `check_sat` solves under the assumption that every live guard is
//! true. Popping a frame permanently disables its guard.
//!
//! A popped frame's clauses stay in the database, satisfied by the unit
//! `¬g`, so a solver grows with every frame it ever held. A caller that
//! poses unboundedly many frames bounds that by starting a fresh solver
//! now and then; the sequential `binsym::Session` does so at a fixed path
//! interval.

use crate::bitblast::BitBlaster;
use crate::model::Model;
use crate::sat::{Lit, SatResult, SatSolver};
use crate::term::{Sort, Term, TermManager};

/// Incremental QF_BV solver.
///
/// A `Solver` must be used with a single [`TermManager`] for its whole
/// lifetime (term handles are cached internally).
///
/// # Example
/// ```
/// use binsym_smt::{SatResult, Solver, TermManager};
///
/// let mut tm = TermManager::new();
/// let x = tm.var("x", 32);
/// let c = tm.bv_const(100, 32);
/// let lt = tm.ult(x, c);
/// let mut s = Solver::new();
/// s.push();
/// s.assert_term(&mut tm, lt);
/// assert_eq!(s.check_sat(&mut tm, &[]), SatResult::Sat);
/// s.pop();
/// ```
#[derive(Debug)]
pub struct Solver {
    sat: SatSolver,
    blaster: BitBlaster,
    /// Guard literal of each live frame (index 0 = bottom frame).
    frames: Vec<Lit>,
    /// Statistics: number of `check_sat` calls.
    num_checks: u64,
    last_was_sat: bool,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates a solver with one (non-poppable) bottom frame.
    pub fn new() -> Self {
        let mut s = Solver {
            sat: SatSolver::new(),
            blaster: BitBlaster::new(),
            frames: Vec::new(),
            num_checks: 0,
            last_was_sat: false,
        };
        s.push();
        s
    }

    /// Number of `check_sat` calls so far (useful for benchmark reporting).
    pub fn num_checks(&self) -> u64 {
        self.num_checks
    }

    /// Opens a new assertion frame.
    pub fn push(&mut self) {
        let g = Lit::pos(self.sat.new_var());
        self.frames.push(g);
    }

    /// Closes the top assertion frame, retracting its assertions.
    ///
    /// # Panics
    /// Panics with `"cannot pop the bottom frame"` when no matching
    /// [`Solver::push`] is open. The bottom frame is the solver's permanent
    /// assertion context: silently ignoring (or worse, popping) it would
    /// desynchronize the guard-literal stack from the SAT database and
    /// corrupt every later query, so an unbalanced `pop` is a hard error
    /// at the call site instead.
    pub fn pop(&mut self) {
        assert!(self.frames.len() > 1, "cannot pop the bottom frame");
        let g = self.frames.pop().expect("frame");
        // Permanently disable the guard so the frame's clauses are vacuous.
        self.sat.add_clause(&[!g]);
    }

    /// Current frame depth (1 = only the bottom frame).
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Asserts a boolean term in the current frame.
    ///
    /// # Panics
    /// Panics if `t` is not boolean.
    pub fn assert_term(&mut self, tm: &mut TermManager, t: Term) {
        assert_eq!(tm.sort(t), Sort::Bool, "assertions must be boolean");
        let lit = self.blaster.blast_bool(tm, &mut self.sat, t);
        let g = *self.frames.last().expect("frame");
        self.sat.add_clause(&[!g, lit]);
    }

    /// Checks satisfiability of the live assertions plus the extra
    /// `assumptions` (boolean terms that are not retained).
    pub fn check_sat(&mut self, tm: &mut TermManager, assumptions: &[Term]) -> SatResult {
        self.num_checks += 1;
        let mut assume: Vec<Lit> = self.frames.clone();
        for &t in assumptions {
            assert_eq!(tm.sort(t), Sort::Bool);
            let lit = self.blaster.blast_bool(tm, &mut self.sat, t);
            assume.push(lit);
        }
        let r = self.sat.solve(&assume);
        self.last_was_sat = r == SatResult::Sat;
        r
    }

    /// Extracts the model of the last [`Solver::check_sat`] that returned
    /// [`SatResult::Sat`]. Returns `None` if the last check was unsatisfiable
    /// or no check has been performed.
    pub fn model(&self, tm: &TermManager) -> Option<Model> {
        if !self.last_was_sat {
            return None;
        }
        Some(extract_model(&self.blaster, &self.sat, tm))
    }
}

/// Reads the model of a satisfiable `(blaster, sat)` pair: every variable
/// registered in `tm`, with variables that never reached the solver
/// defaulting to 0 (unconstrained). The **single** definition of model
/// completion — [`Solver::model`] and the warm-start
/// [`crate::PrefixContext::model`] both go through it, so the "warm models
/// bit-identical to cold" contract cannot drift.
pub(crate) fn extract_model(blaster: &BitBlaster, sat: &SatSolver, tm: &TermManager) -> Model {
    let mut m = Model::new();
    for (id, name, _sort) in tm.iter_vars() {
        let Some(bits) = blaster.var_literals(id) else {
            // Variable never reached the solver: unconstrained, default 0.
            m.insert(id, name, 0);
            continue;
        };
        let mut val = 0u64;
        for (i, &l) in bits.iter().enumerate() {
            let assigned = sat.value(l.var()).unwrap_or(false);
            if assigned != l.is_neg() {
                val |= 1 << i;
            }
        }
        m.insert(id, name, val);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Value;

    #[test]
    fn sat_with_model() {
        let mut tm = TermManager::new();
        let x = tm.var("x", 32);
        let y = tm.var("y", 32);
        let s = tm.add(x, y);
        let c = tm.bv_const(1000, 32);
        let eq = tm.eq(s, c);
        let mut solver = Solver::new();
        solver.assert_term(&mut tm, eq);
        assert_eq!(solver.check_sat(&mut tm, &[]), SatResult::Sat);
        let m = solver.model(&tm).expect("model");
        let xv = m.value("x").unwrap();
        let yv = m.value("y").unwrap();
        assert_eq!((xv + yv) & 0xffff_ffff, 1000);
        // The model must satisfy the asserted term under evaluation.
        assert_eq!(m.eval(&tm, eq), Value::Bool(true));
    }

    #[test]
    fn push_pop_restores() {
        let mut tm = TermManager::new();
        let x = tm.var("x", 8);
        let zero = tm.bv_const(0, 8);
        let one = tm.bv_const(1, 8);
        let is0 = tm.eq(x, zero);
        let is1 = tm.eq(x, one);
        let mut solver = Solver::new();
        solver.assert_term(&mut tm, is0);
        solver.push();
        solver.assert_term(&mut tm, is1); // contradiction with is0
        assert_eq!(solver.check_sat(&mut tm, &[]), SatResult::Unsat);
        solver.pop();
        assert_eq!(solver.check_sat(&mut tm, &[]), SatResult::Sat);
        let m = solver.model(&tm).expect("model");
        assert_eq!(m.value("x"), Some(0));
    }

    #[test]
    fn default_solver_answers_like_new() {
        // `default()` must have the bottom frame `new()` pushes: asserting
        // into it and popping back to it both work.
        let run = |mut solver: Solver| {
            let mut tm = TermManager::new();
            let x = tm.var("x", 8);
            let c = tm.bv_const(100, 8);
            let lt = tm.ult(x, c);
            let ge = tm.not(lt);
            solver.assert_term(&mut tm, lt);
            solver.push();
            solver.assert_term(&mut tm, ge);
            let inner = solver.check_sat(&mut tm, &[]);
            solver.pop();
            let outer = solver.check_sat(&mut tm, &[]);
            (inner, outer, solver.model(&tm), solver.depth())
        };
        let fresh = run(Solver::new());
        assert_eq!(fresh.0, SatResult::Unsat);
        assert_eq!(fresh.1, SatResult::Sat);
        assert_eq!(run(Solver::default()), fresh);
    }

    #[test]
    #[should_panic(expected = "cannot pop the bottom frame")]
    fn popping_the_bottom_frame_panics() {
        let mut solver = Solver::new();
        solver.push();
        solver.pop(); // balanced: fine
        solver.pop(); // unbalanced: must panic, not corrupt the frame stack
    }

    #[test]
    fn pop_panic_leaves_no_partial_state() {
        // The depth stays observable and usable after a caught unbalanced
        // pop (the assert fires before any mutation).
        let mut solver = Solver::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| solver.pop()));
        assert!(caught.is_err());
        assert_eq!(solver.depth(), 1, "bottom frame must survive");
        let mut tm = TermManager::new();
        let t = tm.tt();
        solver.assert_term(&mut tm, t);
        assert_eq!(solver.check_sat(&mut tm, &[]), SatResult::Sat);
    }

    #[test]
    fn assumptions_are_not_retained() {
        let mut tm = TermManager::new();
        let x = tm.var("x", 8);
        let five = tm.bv_const(5, 8);
        let eq5 = tm.eq(x, five);
        let ne5 = tm.not(eq5);
        let mut solver = Solver::new();
        assert_eq!(solver.check_sat(&mut tm, &[eq5]), SatResult::Sat);
        assert_eq!(solver.model(&tm).unwrap().value("x"), Some(5));
        assert_eq!(solver.check_sat(&mut tm, &[ne5]), SatResult::Sat);
        assert_ne!(solver.model(&tm).unwrap().value("x"), Some(5));
        // Contradictory assumptions are fine and leave state intact.
        assert_eq!(solver.check_sat(&mut tm, &[eq5, ne5]), SatResult::Unsat);
        assert_eq!(solver.check_sat(&mut tm, &[]), SatResult::Sat);
    }

    #[test]
    fn divu_bltu_paper_example() {
        // The running example of the paper (Fig. 2): z = x /u y with the
        // RISC-V semantics (x/0 = all-ones) makes `x <u z` reachable.
        let mut tm = TermManager::new();
        let x = tm.var("x", 32);
        let y = tm.var("y", 32);
        let z = tm.udiv(x, y);
        let taken = tm.ult(x, z);
        let mut solver = Solver::new();
        solver.assert_term(&mut tm, taken);
        assert_eq!(solver.check_sat(&mut tm, &[]), SatResult::Sat);
        let m = solver.model(&tm).expect("model");
        // Division truly shrinks values unless y == 0, so the model must
        // exhibit the division-by-zero edge case (or y=... making z > x is
        // impossible otherwise).
        assert_eq!(m.value("y"), Some(0));
    }

    #[test]
    fn model_of_unconstrained_variable_defaults() {
        let mut tm = TermManager::new();
        let _ = tm.var("unused", 16);
        let t = tm.tt();
        let mut solver = Solver::new();
        solver.assert_term(&mut tm, t);
        assert_eq!(solver.check_sat(&mut tm, &[]), SatResult::Sat);
        let m = solver.model(&tm).expect("model");
        assert_eq!(m.value("unused"), Some(0));
    }

    #[test]
    fn many_incremental_checks() {
        let mut tm = TermManager::new();
        let x = tm.var("x", 16);
        let mut solver = Solver::new();
        for i in 0..50u64 {
            let c = tm.bv_const(i, 16);
            let eq = tm.eq(x, c);
            assert_eq!(solver.check_sat(&mut tm, &[eq]), SatResult::Sat);
            assert_eq!(solver.model(&tm).unwrap().value("x"), Some(i));
        }
        assert_eq!(solver.num_checks(), 50);
    }
}
