//! Incremental SMT solver façade: `assert` / `check_sat` under
//! assumptions, with model extraction.
//!
//! Incrementality is implemented MiniSat-style (Eén & Sörensson, "Temporal
//! Induction by Incremental SAT Solving", BMC 2003): the Tseitin
//! definitional clauses emitted by the bit-blaster are *valid* (they define
//! fresh gate variables) and therefore stay in the SAT database forever,
//! and so does every learnt clause. A query that must not be retained is
//! posed as assumption terms of [`Solver::check_sat`]: their literals are
//! assumed for that check only and leave nothing behind but the definitions
//! of terms not blasted before. Posing an already-blasted query again adds
//! no variable and no clause, so a solver that serves a whole exploration
//! grows only with the distinct terms it has seen. [`Solver::assert_term`]
//! adds a permanent unit clause instead.
//!
//! A call that adds clauses ([`Solver::assert_term`], [`Solver::blast`])
//! returns the SAT solver to decision level 0, which clears the assignment
//! the last model was read from, so it invalidates the last model:
//! [`Solver::model`] is `None` until the next check.

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
/// let ge = tm.not(lt);
/// let mut s = Solver::new();
/// assert_eq!(s.check_sat(&mut tm, &[lt]), SatResult::Sat);
/// assert_eq!(s.check_sat(&mut tm, &[lt, ge]), SatResult::Unsat);
/// assert_eq!(s.check_sat(&mut tm, &[ge]), SatResult::Sat);
/// ```
#[derive(Debug, Default)]
pub struct Solver {
    sat: SatSolver,
    blaster: BitBlaster,
    /// Statistics: number of `check_sat` calls.
    num_checks: u64,
    /// Whether the SAT assignment holds the model of a satisfiable check.
    has_model: bool,
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver::default()
    }

    /// Number of `check_sat` calls so far (useful for benchmark reporting).
    pub fn num_checks(&self) -> u64 {
        self.num_checks
    }

    /// Bit-blasts a boolean term and returns its literal.
    fn literal(&mut self, tm: &TermManager, t: Term) -> Lit {
        assert_eq!(tm.sort(t), Sort::Bool, "assertions must be boolean");
        self.blaster.blast_bool(tm, &mut self.sat, t)
    }

    /// Asserts a boolean term for the solver's whole lifetime, and
    /// invalidates the last model.
    ///
    /// # Panics
    /// Panics if `t` is not boolean.
    pub fn assert_term(&mut self, tm: &mut TermManager, t: Term) {
        self.has_model = false;
        let lit = self.literal(tm, t);
        self.sat.add_clause(&[lit]);
    }

    /// Bit-blasts boolean terms, in order, ahead of the [`Solver::check_sat`]
    /// that assumes them (so blasting and searching can be timed apart),
    /// and invalidates the last model. Terms blasted before add nothing.
    ///
    /// # Panics
    /// Panics if a term is not boolean.
    pub fn blast(&mut self, tm: &TermManager, terms: &[Term]) {
        self.has_model = false;
        for &t in terms {
            self.literal(tm, t);
        }
    }

    /// Checks satisfiability of the asserted terms plus the `assumptions`
    /// (boolean terms that hold for this check only), blasting any
    /// assumption not blasted before.
    ///
    /// # Panics
    /// Panics if an assumption is not boolean.
    pub fn check_sat(&mut self, tm: &mut TermManager, assumptions: &[Term]) -> SatResult {
        self.num_checks += 1;
        let assume: Vec<Lit> = assumptions.iter().map(|&t| self.literal(tm, t)).collect();
        let r = self.sat.solve(&assume);
        self.has_model = r == SatResult::Sat;
        r
    }

    /// Extracts the model of the last [`Solver::check_sat`] if it returned
    /// [`SatResult::Sat`]. Returns `None` if the last check was
    /// unsatisfiable, no check has been performed, or a clause was added
    /// since (by [`Solver::assert_term`] or [`Solver::blast`]).
    pub fn model(&self, tm: &TermManager) -> Option<Model> {
        if !self.has_model {
            return None;
        }
        Some(extract_model(&self.blaster, &self.sat, tm))
    }
}

/// Reads the model of a satisfiable `(blaster, sat)` pair: every variable
/// registered in `tm`, with variables that never reached the solver
/// defaulting to 0 (unconstrained). The **single** definition of model
/// completion — [`Solver::model`] and [`crate::PrefixContext::model`] both
/// go through it, so the "prefix-context models bit-identical to a fresh
/// solver's" contract cannot drift.
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
    fn default_solver_answers_like_new() {
        let run = |mut solver: Solver| {
            let mut tm = TermManager::new();
            let x = tm.var("x", 8);
            let c = tm.bv_const(100, 8);
            let lt = tm.ult(x, c);
            let ge = tm.not(lt);
            solver.assert_term(&mut tm, lt);
            let assumed = solver.check_sat(&mut tm, &[ge]);
            let plain = solver.check_sat(&mut tm, &[]);
            (assumed, plain, solver.model(&tm))
        };
        let fresh = run(Solver::new());
        assert_eq!(fresh.0, SatResult::Unsat);
        assert_eq!(fresh.1, SatResult::Sat);
        assert_eq!(run(Solver::default()), fresh);
    }

    #[test]
    fn adding_a_clause_invalidates_the_model() {
        // Adding a clause returns the SAT solver to level 0 and clears the
        // assignment the model is read from: no model may be read from it.
        let mut tm = TermManager::new();
        let x = tm.var("x", 8);
        let c = tm.bv_const(200, 8);
        let is200 = tm.eq(x, c);
        let mut solver = Solver::new();
        assert_eq!(solver.check_sat(&mut tm, &[is200]), SatResult::Sat);
        assert_eq!(solver.model(&tm).expect("sat").value("x"), Some(200));
        let y = tm.var("y", 8);
        let y_lt_x = tm.ult(y, x);
        solver.assert_term(&mut tm, y_lt_x);
        assert!(solver.model(&tm).is_none(), "assert_term invalidates");
        assert_eq!(solver.check_sat(&mut tm, &[is200]), SatResult::Sat);
        let m = solver.model(&tm).expect("sat");
        assert_eq!(m.value("x"), Some(200));
        assert!(m.value("y").unwrap() < 200);
    }

    #[test]
    fn reposing_a_blasted_query_adds_no_variable_and_no_clause() {
        // A flip query's shape: a prefix of dependent conjuncts and a
        // flipped condition, posed as assumptions.
        let mut tm = TermManager::new();
        let x = tm.var("x", 16);
        let y = tm.var("y", 16);
        let prod = tm.mul(x, y);
        let c = tm.bv_const(1000, 16);
        let big = tm.ult(c, prod);
        let sum = tm.add(x, y);
        let d = tm.bv_const(300, 16);
        let small = tm.ult(sum, d);
        let e = tm.bv_const(7, 16);
        let is7 = tm.eq(x, e);
        let flipped = tm.not(is7);
        let query = [big, small, flipped];
        let mut solver = Solver::new();
        solver.blast(&tm, &query);
        let size = |s: &Solver| (s.sat.num_vars(), s.sat.num_clauses());
        let blasted = size(&solver);
        assert_eq!(solver.check_sat(&mut tm, &query), SatResult::Sat);
        assert_eq!(size(&solver), blasted, "the check blasts nothing new");
        for _ in 0..20 {
            solver.blast(&tm, &query);
            assert!(solver.model(&tm).is_none(), "blast invalidates");
            assert_eq!(solver.check_sat(&mut tm, &query), SatResult::Sat);
            assert_eq!(size(&solver), blasted);
        }
        let m = solver.model(&tm).expect("sat");
        for t in query {
            assert_eq!(m.eval(&tm, t), Value::Bool(true));
        }
        // The other side of the flip was blasted with it: posing that
        // query adds nothing either.
        let other_side = [big, small, is7];
        assert_eq!(solver.check_sat(&mut tm, &other_side), SatResult::Sat);
        assert_eq!(solver.model(&tm).expect("sat").value("x"), Some(7));
        assert_eq!(size(&solver), blasted);
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
