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
//! # Retired frames are swept
//!
//! Disabling a guard adds the unit clause `¬g`, which leaves the frame's
//! clauses `¬g ∨ lit` satisfied at decision level 0 but still in the
//! watch lists. The exploration engines pose one frame per flip query and
//! re-assert the whole path prefix in it, so without clean-up every query
//! walks the dead clauses of all earlier queries that asserted the other
//! direction of a shared branch, and the cost per query grows with the
//! length of the session. [`Solver::pop`] therefore counts the clauses it
//! retires and, once they reach both a floor of 1024 and half the clause
//! store, removes every satisfied two-literal problem clause (MiniSat's
//! level-0 clause removal; Eén & Sörensson, "An Extensible SAT-solver",
//! SAT 2003). That keeps the sweep's cost amortized O(1) per retired
//! clause.
//!
//! The sweep cannot change a model: propagation only ever skips such a
//! clause at its blocker check, and the swept watches leave tombstones
//! that keep the visiting order of the others, so every propagation,
//! conflict, learnt clause, VSIDS bump and model is what an unswept solver
//! would produce (see `SatSolver::sweep_satisfied_binaries`).

use crate::bitblast::BitBlaster;
use crate::model::Model;
use crate::sat::{Lit, SatResult, SatSolver};
use crate::term::{Sort, Term, TermManager};

/// Fewest retired clauses that trigger a sweep (see the module docs).
const SWEEP_FLOOR: usize = 1024;

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
#[derive(Debug, Default)]
pub struct Solver {
    sat: SatSolver,
    blaster: BitBlaster,
    /// Guard literal of each live frame (index 0 = bottom frame).
    frames: Vec<Lit>,
    /// Assertions of each frame (kept for model completion / debugging).
    assertions: Vec<Vec<Term>>,
    /// Statistics: number of `check_sat` calls.
    num_checks: u64,
    last_was_sat: bool,
    /// Assertions of frames popped since the last sweep.
    retired: usize,
}

impl Solver {
    /// Creates a solver with one (non-poppable) bottom frame.
    pub fn new() -> Self {
        let mut s = Solver {
            sat: SatSolver::new(),
            blaster: BitBlaster::new(),
            frames: Vec::new(),
            assertions: Vec::new(),
            num_checks: 0,
            last_was_sat: false,
            retired: 0,
        };
        s.push();
        s
    }

    /// Number of `check_sat` calls so far (useful for benchmark reporting).
    pub fn num_checks(&self) -> u64 {
        self.num_checks
    }

    /// Access to the underlying SAT solver statistics.
    pub fn sat_stats(&self) -> crate::sat::SatStats {
        self.sat.stats()
    }

    /// Opens a new assertion frame.
    pub fn push(&mut self) {
        let g = Lit::pos(self.sat.new_var());
        self.frames.push(g);
        self.assertions.push(Vec::new());
    }

    /// Closes the top assertion frame, retracting its assertions, and
    /// sweeps the clauses of retired frames when enough have piled up (see
    /// the module docs).
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
        self.retired += self.assertions.pop().expect("frame").len();
        // Permanently disable the guard so the frame's clauses are vacuous.
        self.sat.add_clause(&[!g]);
        if self.retired >= SWEEP_FLOOR.max(self.sat.clause_store_len() / 2) {
            self.sat.sweep_satisfied_binaries();
            self.retired = 0;
        }
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
        self.assertions
            .last_mut()
            .expect("at least the bottom frame")
            .push(t);
        let lit = self.blaster.blast_bool(tm, &mut self.sat, t);
        let g = *self.frames.last().expect("frame");
        self.sat.add_clause(&[!g, lit]);
    }

    /// All currently live assertions, bottom frame first.
    pub fn assertions(&self) -> impl Iterator<Item = Term> + '_ {
        self.assertions.iter().flatten().copied()
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

    /// The reference the sweep is checked against: the same solver with its
    /// retired-clause count cleared before every pop, so it never sweeps.
    struct Unswept(Solver);

    impl Unswept {
        fn pop(&mut self) {
            self.0.retired = 0;
            self.0.pop();
        }
    }

    fn xorshift(seed: &mut u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    }

    /// Random branch conditions over four 8-bit inputs. Their circuits
    /// share subterms, so the watch lists of a condition's literal hold
    /// live gate clauses next to the guard clauses of retired frames.
    fn random_conditions(tm: &mut TermManager, seed: &mut u64, n: usize) -> Vec<Term> {
        let vars: Vec<Term> = (0..4).map(|i| tm.var(&format!("v{i}"), 8)).collect();
        let operand = |tm: &mut TermManager, seed: &mut u64| {
            let a = vars[(xorshift(seed) % 4) as usize];
            let b = vars[(xorshift(seed) % 4) as usize];
            let c = tm.bv_const(xorshift(seed) % 256, 8);
            match xorshift(seed) % 5 {
                0 => tm.add(a, c),
                1 => tm.bv_xor(a, b),
                2 => tm.sub(a, b),
                3 => tm.bv_and(a, c),
                _ => a,
            }
        };
        (0..n)
            .map(|_| {
                let x = operand(tm, seed);
                let y = operand(tm, seed);
                match xorshift(seed) % 4 {
                    0 => tm.ult(x, y),
                    1 => tm.eq(x, y),
                    2 => tm.slt(x, y),
                    _ => {
                        let lt = tm.ult(x, y);
                        let odd = tm.extract(x, 0, 0);
                        let one = tm.bv_const(1, 1);
                        let odd = tm.eq(odd, one);
                        tm.or(lt, odd)
                    }
                }
            })
            .collect()
    }

    /// Runs the same random concolic query stream — each query a frame
    /// holding a path prefix and one flipped branch, the engines' pattern —
    /// through a sweeping solver and an unswept twin, and requires the same
    /// result, model and SAT statistics at every check.
    #[test]
    fn sweeping_retired_frames_is_invisible_to_the_search() {
        let mut tm = TermManager::new();
        let mut seed = 0x5eed_5eed_u64;
        let conds = random_conditions(&mut tm, &mut seed, 24);
        let mut swept = Solver::new();
        let mut twin = Unswept(Solver::new());
        let mut path: Vec<Term> = (0..20)
            .map(|_| conds[(xorshift(&mut seed) % 24) as usize])
            .collect();
        let mut input = Model::new();
        let (mut sweeps, mut peak_store) = (0, 0);
        for q in 0..1600u64 {
            let mut taken: Vec<Term> = Vec::with_capacity(path.len());
            for &c in &path {
                let holds = input.eval(&tm, c) == Value::Bool(true);
                taken.push(if holds { c } else { tm.not(c) });
            }
            let k = (xorshift(&mut seed) % path.len() as u64) as usize;
            let flipped = tm.not(taken[k]);
            let nested = q % 5 == 0;
            let assumption = (q % 3 == 0).then(|| conds[(xorshift(&mut seed) % 24) as usize]);
            let mut results = Vec::new();
            for s in [&mut swept, &mut twin.0] {
                s.push();
                for &t in &taken[..k] {
                    s.assert_term(&mut tm, t);
                }
                if nested {
                    s.push();
                }
                s.assert_term(&mut tm, flipped);
                let r = s.check_sat(&mut tm, assumption.as_slice());
                results.push((r, s.model(&tm), s.sat_stats()));
            }
            assert_eq!(results[0], results[1], "query {q}");
            let (r, model, _) = results.pop().expect("twin result");
            let retired = swept.retired;
            swept.pop();
            twin.pop();
            sweeps += usize::from(swept.retired < retired);
            if nested {
                let outer = swept.check_sat(&mut tm, &[]);
                assert_eq!(outer, twin.0.check_sat(&mut tm, &[]), "query {q}");
                assert_eq!(swept.model(&tm), twin.0.model(&tm), "query {q}");
                assert_eq!(swept.sat_stats(), twin.0.sat_stats(), "query {q}");
                let retired = swept.retired;
                swept.pop();
                twin.pop();
                sweeps += usize::from(swept.retired < retired);
            }
            peak_store = peak_store.max(swept.sat.clause_store_len());
            if r == SatResult::Sat {
                // Follow the flip, as a depth-first search would, and let
                // the tail of the path take new branches.
                input = model.expect("sat has a model");
                for c in &mut path[k + 1..] {
                    if xorshift(&mut seed) % 2 == 0 {
                        *c = conds[(xorshift(&mut seed) % 24) as usize];
                    }
                }
            }
        }
        assert!(sweeps >= 3, "the sweep ran only {sweeps} times");
        let unswept_store = twin.0.sat.clause_store_len();
        assert!(
            2 * peak_store < unswept_store,
            "swept store peaked at {peak_store} clauses, the unswept one holds {unswept_store}"
        );
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
