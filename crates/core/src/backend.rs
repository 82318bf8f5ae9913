//! Branch-flip feasibility queries: the static gate, then one solve step.
//!
//! Every flip query `prefix ∧ flipped` of every engine takes the same two
//! steps:
//!
//! 1. the [`StaticGate`]: a word-level screen (assumed literals and the
//!    `≤`/`<` order closure — `binsym_smt::analysis`) that drops provably
//!    infeasible flips with **zero** SAT calls;
//! 2. `solve`: blast `prefix ++ [flipped]`, check it as assumptions and
//!    read the model on a [`binsym_smt::Solver`], timed as
//!    [`Phase::BitBlast`] and [`Phase::Solve`].
//!
//! `discharge` chains the two steps for the one exploration loop. The
//! engines differ only in how long its solver lives: the sequential
//! [`crate::Session`] keeps one incremental solver for its whole
//! exploration, and a [`crate::ParallelSession`] worker one per unit of up
//! to 256 paths (a query leaves only the definitions of the terms it
//! blasted, and every query shares the bit-blast cache and the learnt
//! clauses).
//!
//! An SMT-LIB v2 rendering of a flip query is a function of its terms:
//! `binsym_smt::smtlib::query_to_smtlib(tm, prefix ++ [flipped])`.

use binsym_smt::{smtlib, Analysis, Model, SatResult, Solver, Term, TermManager};

use crate::metrics::{Instruments, Phase};
use crate::observe::{Observer, StaticAnalysisStats};
use crate::prescribe::witness_bytes;

/// The word-level static-analysis gate in front of the solver.
///
/// For each flip query `prefix ∧ flipped` the gate assumes every prefix
/// conjunct into a fresh [`Analysis`] and asks for a verdict on the
/// flipped condition. Two rules decide it: the flipped condition negates a
/// prefix literal (the branch was met before on this path), or the
/// `≤`/`<` order closure of the prefix's comparisons refutes it.
///
/// * **false** — the flip is reported UNSAT with zero SAT calls;
/// * **anything else** — the query is residual and goes to the solver,
///   asserting the **original** terms (not simplified ones: rewriting the
///   asserted graph could change CNF variable order and therefore which
///   model the SAT solver picks, breaking the byte-identical-records
///   determinism contract). That includes a constant-true verdict, which
///   the engines' query streams never produce: the parent input satisfies
///   `prefix ∧ ¬flipped`, so `flipped` can never be a *consequence* of the
///   prefix.
///
/// The analysis allocates no terms, so screening cannot perturb
/// hash-consing order — an analysis-on run builds exactly the same term
/// DAG as an analysis-off run.
///
/// With the `BINSYM_SA_SHADOW` environment variable set, every elimination
/// is cross-checked against the full SAT query in a fresh solver; a
/// disagreement panics with the offending query's SMT-LIB dump. (The shadow
/// solver *does* intern auxiliary terms, so shadow mode is a correctness
/// tool, not part of the determinism contract.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticGate {
    enabled: bool,
    shadow: bool,
}

impl StaticGate {
    /// Builds a gate; shadow mode is switched on by a non-empty, non-`"0"`
    /// `BINSYM_SA_SHADOW` environment variable (and implies the gate itself
    /// is enabled).
    pub fn new(enabled: bool) -> Self {
        let shadow = std::env::var("BINSYM_SA_SHADOW").is_ok_and(|v| !v.is_empty() && v != "0");
        StaticGate {
            enabled: enabled || shadow,
            shadow,
        }
    }

    /// A gate with shadow mode on, whatever the environment says.
    #[cfg(test)]
    pub(crate) fn shadowed() -> Self {
        StaticGate {
            enabled: true,
            shadow: true,
        }
    }

    /// A gate that never screens anything (analysis off, no shadow).
    pub fn disabled() -> Self {
        StaticGate {
            enabled: false,
            shadow: false,
        }
    }

    /// Whether the gate screens queries at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Whether eliminations are cross-checked against the full SAT query.
    pub fn shadow(&self) -> bool {
        self.shadow
    }

    /// Screens one flip query under the [`Phase::Gate`] timer (so a
    /// screen's cost shows up per phase in the metrics report and as a
    /// `gate` span in the trace), reports the screen through
    /// [`Observer::on_static_analysis`], and returns whether the flip was
    /// proved infeasible. A disabled gate proves nothing and fires no
    /// static-analysis hook. The gate's one call site.
    pub(crate) fn eliminates(
        &self,
        tm: &mut TermManager,
        prefix: &[Term],
        flipped: Term,
        instr: &Instruments,
        observer: &mut dyn Observer,
    ) -> bool {
        let started = instr.begin(Phase::Gate);
        let stats = self.enabled.then(|| {
            let mut an = Analysis::new();
            for &c in prefix {
                an.assume(tm, c);
            }
            let eliminated = an.verdict(tm, flipped) == Some(false);
            if eliminated && self.shadow {
                shadow_check(tm, prefix, flipped);
            }
            StaticAnalysisStats {
                eliminated,
                conjuncts: prefix.len() as u64,
                facts: an.fact_count(),
            }
        });
        instr.finish(started, Phase::Gate, observer);
        stats.is_some_and(|stats| {
            observer.on_static_analysis(&stats);
            stats.eliminated
        })
    }
}

/// Discharges the full query in a fresh solver and panics (with the query's
/// SMT-LIB script) unless it is UNSAT, as the analysis proved.
fn shadow_check(tm: &mut TermManager, prefix: &[Term], flipped: Term) {
    let all = [prefix, &[flipped]].concat();
    let got = Solver::new().check_sat(tm, &all);
    if got != SatResult::Unsat {
        panic!(
            "static-analysis shadow check failed: analysis proved the flip UNSAT, \
             solver says {got:?}\n{}",
            smtlib::query_to_smtlib(tm, &all)
        );
    }
}

/// The solve step of every flip query `prefix ∧ flipped`: blast `prefix
/// ++ [flipped]` in order, check it as assumptions and read the model on
/// `solver`, timed as [`Phase::BitBlast`] and [`Phase::Solve`]. Returns the
/// solver's result and, on SAT, its model. The caller reports the result
/// through [`Observer::on_query`].
///
/// [`discharge`]'s solve step.
pub(crate) fn solve(
    solver: &mut Solver,
    tm: &mut TermManager,
    prefix: &[Term],
    flipped: Term,
    instr: &Instruments,
    observer: &mut dyn Observer,
) -> (SatResult, Option<Model>) {
    let query = [prefix, &[flipped]].concat();
    let blast_started = instr.begin(Phase::BitBlast);
    solver.blast(tm, &query);
    instr.finish(blast_started, Phase::BitBlast, observer);
    let solve_started = instr.begin(Phase::Solve);
    let r = solver.check_sat(tm, &query);
    let solve_nanos = instr.finish(solve_started, Phase::Solve, observer);
    if solve_started.is_some() {
        instr.record_query(solve_nanos);
    }
    (r, solver.model(tm))
}

/// Discharges one flip query on `solver`: the gate, then [`solve`], then
/// [`Observer::on_query`]. Returns the solver's result (`None` when the
/// gate eliminated the query, which then fires no `on_query` and counts as
/// no solver check) and, on SAT, the model's witness input. The
/// exploration loop's one call into this module.
#[allow(clippy::too_many_arguments)]
pub(crate) fn discharge(
    solver: &mut Solver,
    tm: &mut TermManager,
    gate: StaticGate,
    prefix: &[Term],
    flipped: Term,
    input_len: u32,
    instr: &Instruments,
    observer: &mut dyn Observer,
) -> (Option<SatResult>, Option<Vec<u8>>) {
    if gate.eliminates(tm, prefix, flipped, instr, observer) {
        return (None, None);
    }
    let (r, model) = solve(solver, tm, prefix, flipped, instr, observer);
    observer.on_query(r);
    let bytes =
        (r == SatResult::Sat).then(|| witness_bytes(&model.expect("sat has model"), input_len));
    (Some(r), bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::NullObserver;

    fn x_lt_5(tm: &mut TermManager) -> Term {
        let x = tm.var("x", 8);
        let five = tm.bv_const(5, 8);
        tm.ult(x, five)
    }

    /// Runs the gate untimed; returns its verdict and the stats it reported
    /// through [`Observer::on_static_analysis`] (`None`: no hook fired).
    fn screen(
        gate: StaticGate,
        tm: &mut TermManager,
        prefix: &[Term],
        flipped: Term,
    ) -> (bool, Option<StaticAnalysisStats>) {
        struct LastScreen(Option<StaticAnalysisStats>);
        impl Observer for LastScreen {
            fn on_static_analysis(&mut self, stats: &StaticAnalysisStats) {
                self.0 = Some(*stats);
            }
        }
        let mut last = LastScreen(None);
        let eliminated = gate.eliminates(tm, prefix, flipped, &Instruments::disabled(), &mut last);
        (eliminated, last.0)
    }

    #[test]
    fn incremental_and_fresh_agree() {
        // The solve step answers alike on one incremental solver (the
        // sequential session, a unit) and on a fresh solver per query (the
        // gate's shadow check).
        let mut tm = TermManager::new();
        let lt5 = x_lt_5(&mut tm);
        let ge5 = tm.not(lt5);
        let x = tm.var("x", 8);
        let three = tm.bv_const(3, 8);
        let is3 = tm.eq(x, three);
        let not3 = tm.not(is3);
        let queries: [(&[Term], Term, SatResult); 4] = [
            (&[], lt5, SatResult::Sat),
            (&[lt5], ge5, SatResult::Unsat),
            (&[lt5], not3, SatResult::Sat),
            (&[not3], is3, SatResult::Unsat),
        ];
        let mut long_lived = Solver::new();
        for (prefix, flipped, expected) in queries {
            for solver in [&mut long_lived, &mut Solver::new()] {
                let (r, model) = solve(
                    solver,
                    &mut tm,
                    prefix,
                    flipped,
                    &Instruments::disabled(),
                    &mut NullObserver,
                );
                assert_eq!(r, expected);
                let Some(model) = model else {
                    assert_eq!(r, SatResult::Unsat, "sat has a model");
                    continue;
                };
                let x = model.value("x").expect("x is constrained");
                assert!(x < 5);
                assert!(prefix.is_empty() || x != 3);
            }
        }
        assert_eq!(long_lived.num_checks(), 4);
    }

    #[test]
    fn gate_eliminates_reencountered_flip() {
        let mut tm = TermManager::new();
        let x = tm.var("in0", 8);
        let y = tm.var("in1", 8);
        let cond = tm.ule(x, y);
        let flipped = tm.not(cond);
        // Shadow on: the verdict is cross-checked against a real solver.
        let (eliminated, stats) = screen(StaticGate::shadowed(), &mut tm, &[cond], flipped);
        let stats = stats.expect("enabled");
        assert!(eliminated);
        assert!(stats.eliminated);
        assert!(stats.facts > 0);
    }

    #[test]
    fn gate_passes_residual_queries_through() {
        let mut tm = TermManager::new();
        let x = tm.var("in0", 8);
        let y = tm.var("in1", 8);
        let cond = tm.ule(x, y);
        let other = tm.var("in2", 8);
        let unrelated = tm.ult(other, x);
        let (eliminated, stats) = screen(StaticGate::new(true), &mut tm, &[cond], unrelated);
        assert!(!eliminated);
        assert!(!stats.expect("enabled").eliminated);
    }

    #[test]
    fn gate_leaves_implied_flips_to_the_solver() {
        // The gate decides only infeasibility: a flip the prefix implies is
        // residual like any undecided query.
        let mut tm = TermManager::new();
        let x = tm.var("in0", 8);
        let c = tm.bv_const(42, 8);
        let pin = tm.eq(x, c);
        let bound = tm.bv_const(50, 8);
        let implied = tm.ult(x, bound); // follows from in0 = 42
        let (eliminated, stats) = screen(StaticGate::shadowed(), &mut tm, &[pin], implied);
        assert!(!eliminated);
        assert!(!stats.expect("enabled").eliminated);
    }

    #[test]
    fn disabled_gate_screens_nothing() {
        let mut tm = TermManager::new();
        let cond = x_lt_5(&mut tm);
        let flipped = tm.not(cond);
        let (eliminated, stats) = screen(StaticGate::disabled(), &mut tm, &[cond], flipped);
        assert!(!eliminated);
        assert!(stats.is_none(), "a disabled gate fires no hook");
    }

    #[test]
    fn gate_and_shadow_pass_array_queries_through() {
        // A 64-entry table with one magic slot, read at a symbolic index —
        // the query shape the symbolic memory policy emits. The word-level
        // analysis has no array theory, so a select-valued flip must come
        // back residual (handed to the solver), never wrongly decided.
        let mut tm = TermManager::new();
        let idx = tm.var("in0", 8);
        let base = tm.array_const(0, 8, 8);
        let slot = tm.bv_const(37, 8);
        let magic = tm.bv_const(90, 8);
        let arr = tm.store(base, slot, magic);
        let v = tm.select(arr, idx);
        let bound = tm.bv_const(64, 8);
        let in_bounds = tm.ult(idx, bound);
        let hit = tm.eq(v, magic);

        let gate = StaticGate::shadowed();
        let (eliminated, _) = screen(gate, &mut tm, &[in_bounds], hit);
        assert!(
            !eliminated,
            "select terms are residual to the word-level gate"
        );

        // The residual query still discharges through the bit-blasted
        // array lowering: feasible exactly at the magic slot.
        let mut solver = Solver::new();
        solver.assert_term(&mut tm, in_bounds);
        solver.assert_term(&mut tm, hit);
        assert_eq!(solver.check_sat(&mut tm, &[]), SatResult::Sat);
        let zero = tm.bv_const(0, 8);
        let pin = tm.eq(idx, zero);
        solver.assert_term(&mut tm, pin);
        assert_eq!(solver.check_sat(&mut tm, &[]), SatResult::Unsat);

        // An elimination the analysis *can* reach from its word-level facts
        // must shadow-check cleanly even when the prefix carries array
        // terms: the fresh shadow solver bit-blasts the select and has to
        // agree, or shadow_check panics and fails this test.
        let beyond = tm.ule(bound, idx);
        let (eliminated, _) = screen(gate, &mut tm, &[in_bounds, hit], beyond);
        assert!(
            eliminated,
            "the order edge idx < 64 of the bounds check refutes 64 <= idx"
        );
    }
}
