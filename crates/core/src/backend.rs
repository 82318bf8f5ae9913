//! Pluggable solver backends for branch-flip feasibility queries.
//!
//! The DSE loop only needs a small constraint interface: scoped assertion
//! frames (`push`/`pop`), boolean assertions, `check_sat`, and model
//! extraction. [`SolverBackend`] captures exactly that seam, so the solving
//! layer becomes a swappable component of [`crate::Session`]:
//!
//! * [`BitblastBackend`] — the in-tree bit-blasting + CDCL-SAT stack
//!   (`binsym_smt::Solver`), either *incremental* (one solver instance,
//!   MiniSat-style retractable assertion frames, shared learned clauses —
//!   the default) or *fresh-per-query* (a new solver per `check_sat`; the
//!   ablation baseline quantifying what incrementality buys);
//! * [`SmtLibDump`] — a recording decorator: forwards every operation to an
//!   inner backend while rendering each discharged query as a complete
//!   SMT-LIB v2 script (via `binsym_smt::smtlib`) for offline replay with
//!   an external solver.
//!
//! Ahead of any backend sits the [`StaticGate`]: a word-level screening
//! stage (known bits, intervals, order closure — `binsym_smt::analysis`)
//! that drops provably infeasible flip queries with **zero** SAT calls and
//! passes only residual queries on to bit-blasting.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use binsym_smt::{smtlib, Analysis, Model, SatResult, Solver, Term, TermManager};

use crate::metrics::{Instruments, Phase};
use crate::observe::{Observer, StaticAnalysisStats};
use crate::prescribe::witness_bytes;

/// A solver usable by the exploration loop: scoped assertions plus
/// satisfiability checking with model extraction.
///
/// A backend must be used with a single [`TermManager`] for its whole
/// lifetime (term handles may be cached internally).
pub trait SolverBackend: fmt::Debug {
    /// Human-readable backend name (for logs and summaries).
    fn name(&self) -> &'static str;

    /// Opens a new assertion frame.
    fn push(&mut self);

    /// Closes the top assertion frame, retracting its assertions.
    fn pop(&mut self);

    /// Asserts a boolean term in the current frame.
    fn assert_term(&mut self, tm: &mut TermManager, t: Term);

    /// Checks satisfiability of all live assertions.
    fn check_sat(&mut self, tm: &mut TermManager) -> SatResult;

    /// Model of the last [`SolverBackend::check_sat`] that returned
    /// [`SatResult::Sat`]; `None` if it was unsatisfiable or never ran.
    fn model(&self, tm: &TermManager) -> Option<Model>;

    /// Number of `check_sat` calls issued so far.
    fn num_checks(&self) -> u64;
}

/// The in-tree bit-blasting backend (wraps [`binsym_smt::Solver`]).
#[derive(Debug)]
pub struct BitblastBackend {
    mode: Mode,
}

#[derive(Debug)]
enum Mode {
    /// One incremental solver with retractable assertion frames.
    Incremental(Solver),
    /// A fresh solver per query: assertions are staged per-frame and
    /// replayed into a new solver on every `check_sat`.
    FreshPerQuery {
        frames: Vec<Vec<Term>>,
        checks: u64,
        last: Option<Solver>,
    },
}

impl BitblastBackend {
    /// Creates the default incremental backend.
    pub fn new() -> Self {
        BitblastBackend {
            mode: Mode::Incremental(Solver::new()),
        }
    }

    /// Creates the fresh-solver-per-query ablation backend: every
    /// feasibility query is discharged in a brand-new solver instance,
    /// forgoing the shared bit-blast cache and learned clauses. Path
    /// results are identical to the incremental mode; only solving time
    /// differs (see the `ablation` harness).
    pub fn fresh_per_query() -> Self {
        BitblastBackend {
            mode: Mode::FreshPerQuery {
                frames: vec![Vec::new()],
                checks: 0,
                last: None,
            },
        }
    }
}

impl Default for BitblastBackend {
    fn default() -> Self {
        BitblastBackend::new()
    }
}

impl SolverBackend for BitblastBackend {
    fn name(&self) -> &'static str {
        match self.mode {
            Mode::Incremental(_) => "bitblast",
            Mode::FreshPerQuery { .. } => "bitblast-fresh",
        }
    }

    fn push(&mut self) {
        match &mut self.mode {
            Mode::Incremental(s) => s.push(),
            Mode::FreshPerQuery { frames, .. } => frames.push(Vec::new()),
        }
    }

    fn pop(&mut self) {
        match &mut self.mode {
            Mode::Incremental(s) => s.pop(),
            Mode::FreshPerQuery { frames, .. } => {
                assert!(frames.len() > 1, "cannot pop the bottom frame");
                frames.pop();
            }
        }
    }

    fn assert_term(&mut self, tm: &mut TermManager, t: Term) {
        match &mut self.mode {
            Mode::Incremental(s) => s.assert_term(tm, t),
            Mode::FreshPerQuery { frames, .. } => {
                frames
                    .last_mut()
                    .expect("at least the bottom frame")
                    .push(t);
            }
        }
    }

    fn check_sat(&mut self, tm: &mut TermManager) -> SatResult {
        match &mut self.mode {
            Mode::Incremental(s) => s.check_sat(tm, &[]),
            Mode::FreshPerQuery {
                frames,
                checks,
                last,
            } => {
                let mut s = Solver::new();
                for &t in frames.iter().flatten() {
                    s.assert_term(tm, t);
                }
                let r = s.check_sat(tm, &[]);
                *checks += 1;
                *last = Some(s);
                r
            }
        }
    }

    fn model(&self, tm: &TermManager) -> Option<Model> {
        match &self.mode {
            Mode::Incremental(s) => s.model(tm),
            Mode::FreshPerQuery { last, .. } => last.as_ref().and_then(|s| s.model(tm)),
        }
    }

    fn num_checks(&self) -> u64 {
        match &self.mode {
            Mode::Incremental(s) => s.num_checks(),
            Mode::FreshPerQuery { checks, .. } => *checks,
        }
    }
}

/// Shared handle to the scripts recorded by an [`SmtLibDump`] backend.
///
/// The backend is moved into the [`crate::Session`], so callers keep a
/// clone of this handle to read the scripts afterwards.
#[derive(Debug, Clone, Default)]
pub struct ScriptSink(Rc<RefCell<Vec<String>>>);

impl ScriptSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        ScriptSink::default()
    }

    /// Number of recorded scripts (one per `check_sat`).
    pub fn len(&self) -> usize {
        self.0.borrow().len()
    }

    /// True when no query has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.0.borrow().is_empty()
    }

    /// A copy of all recorded scripts, in query order.
    pub fn snapshot(&self) -> Vec<String> {
        self.0.borrow().clone()
    }

    fn record(&self, script: String) {
        self.0.borrow_mut().push(script);
    }
}

/// A recording decorator: forwards to an inner backend while rendering
/// every discharged query as a complete SMT-LIB v2 script
/// (`(set-logic QF_BV) … (check-sat)`), for offline replay with an
/// external solver such as Z3 — the paper's Fig. 2 ③ artifact, produced
/// for *every* query of an exploration.
#[derive(Debug)]
pub struct SmtLibDump<B = BitblastBackend> {
    inner: B,
    /// Mirror of the live assertion frames (the inner solver does the real
    /// bookkeeping; this copy is only for printing complete scripts).
    frames: Vec<Vec<Term>>,
    sink: ScriptSink,
}

impl SmtLibDump<BitblastBackend> {
    /// Wraps the default incremental [`BitblastBackend`].
    pub fn new() -> Self {
        SmtLibDump::wrapping(BitblastBackend::new())
    }
}

impl Default for SmtLibDump<BitblastBackend> {
    fn default() -> Self {
        SmtLibDump::new()
    }
}

impl<B: SolverBackend> SmtLibDump<B> {
    /// Wraps an arbitrary inner backend.
    pub fn wrapping(inner: B) -> Self {
        SmtLibDump {
            inner,
            frames: vec![Vec::new()],
            sink: ScriptSink::new(),
        }
    }

    /// Handle to the recorded scripts; clone it before moving the backend
    /// into a session.
    pub fn scripts(&self) -> ScriptSink {
        self.sink.clone()
    }
}

impl<B: SolverBackend> SolverBackend for SmtLibDump<B> {
    fn name(&self) -> &'static str {
        "smtlib-dump"
    }

    fn push(&mut self) {
        self.frames.push(Vec::new());
        self.inner.push();
    }

    fn pop(&mut self) {
        assert!(self.frames.len() > 1, "cannot pop the bottom frame");
        self.frames.pop();
        self.inner.pop();
    }

    fn assert_term(&mut self, tm: &mut TermManager, t: Term) {
        self.frames
            .last_mut()
            .expect("at least the bottom frame")
            .push(t);
        self.inner.assert_term(tm, t);
    }

    fn check_sat(&mut self, tm: &mut TermManager) -> SatResult {
        let assertions: Vec<Term> = self.frames.iter().flatten().copied().collect();
        self.sink.record(smtlib::query_to_smtlib(tm, &assertions));
        self.inner.check_sat(tm)
    }

    fn model(&self, tm: &TermManager) -> Option<Model> {
        self.inner.model(tm)
    }

    fn num_checks(&self) -> u64 {
        self.inner.num_checks()
    }
}

/// Outcome of screening one flip query through the [`StaticGate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScreenReport {
    /// True when the analysis proved the flip infeasible: the query is
    /// UNSAT and needs no solver call. False means the query is residual
    /// and must be discharged by the backend.
    pub eliminated: bool,
    /// Per-query accounting for [`crate::Observer::on_static_analysis`].
    pub stats: StaticAnalysisStats,
}

/// The word-level static-analysis gate in front of a [`SolverBackend`].
///
/// For each flip query `prefix ∧ flipped` the gate assumes every prefix
/// conjunct into a fresh [`Analysis`] and asks for a verdict on the
/// flipped condition:
///
/// * **constant false** — the flip is reported UNSAT with zero SAT calls;
/// * **anything else** — the query is residual and goes to the backend,
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

    /// Screens one flip query. Returns `None` when the gate is disabled
    /// (the caller proceeds exactly as without a gate and fires no
    /// static-analysis observer hook).
    pub fn screen(
        &self,
        tm: &mut TermManager,
        prefix: &[Term],
        flipped: Term,
    ) -> Option<ScreenReport> {
        if !self.enabled {
            return None;
        }
        let mut an = Analysis::new();
        for &c in prefix {
            an.assume(tm, c);
        }
        let eliminated = an.verdict(tm, flipped) == Some(false);
        if eliminated && self.shadow {
            shadow_check(tm, prefix, flipped);
        }
        Some(ScreenReport {
            eliminated,
            stats: StaticAnalysisStats {
                eliminated,
                conjuncts: prefix.len() as u64,
                facts: an.fact_count(),
            },
        })
    }

    /// Screens one flip query under the [`Phase::Gate`] timer (so a
    /// screen's cost shows up per phase in the metrics report and as a
    /// `gate` span in the trace), reports the screen through
    /// [`Observer::on_static_analysis`], and returns whether the flip was
    /// proved infeasible. The gate's one call site in all three engines.
    pub(crate) fn eliminates(
        &self,
        tm: &mut TermManager,
        prefix: &[Term],
        flipped: Term,
        instr: &Instruments,
        observer: &mut dyn Observer,
    ) -> bool {
        let started = instr.begin(Phase::Gate);
        let screened = self.screen(tm, prefix, flipped);
        instr.finish(started, Phase::Gate, observer);
        screened.is_some_and(|report| {
            observer.on_static_analysis(&report.stats);
            report.eliminated
        })
    }
}

/// Discharges the full query in a fresh solver and panics (with the query's
/// SMT-LIB script) unless it is UNSAT, as the analysis proved.
fn shadow_check(tm: &mut TermManager, prefix: &[Term], flipped: Term) {
    let mut solver = Solver::new();
    for &c in prefix {
        solver.assert_term(tm, c);
    }
    solver.assert_term(tm, flipped);
    let got = solver.check_sat(tm, &[]);
    if got != SatResult::Unsat {
        let mut all: Vec<Term> = prefix.to_vec();
        all.push(flipped);
        panic!(
            "static-analysis shadow check failed: analysis proved the flip UNSAT, \
             solver says {got:?}\n{}",
            smtlib::query_to_smtlib(tm, &all)
        );
    }
}

/// Discharges one flip query `prefix ∧ flipped`: the gate screen, then
/// push, assert, check and pop on `backend`, timed as [`Phase::BitBlast`]
/// and [`Phase::Solve`]. Returns the solver's result (`None` when the gate
/// eliminated the query, which then fires no [`Observer::on_query`] and
/// counts as no solver check) and, on SAT, the model's witness input.
///
/// The sequential session runs it on its long-lived incremental backend,
/// cold replay on a fresh one per prescription; the step itself is one
/// implementation.
#[allow(clippy::too_many_arguments)]
pub(crate) fn discharge(
    backend: &mut dyn SolverBackend,
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
    let blast_started = instr.begin(Phase::BitBlast);
    backend.push();
    for &t in prefix {
        backend.assert_term(tm, t);
    }
    backend.assert_term(tm, flipped);
    instr.finish(blast_started, Phase::BitBlast, observer);
    let solve_started = instr.begin(Phase::Solve);
    let r = backend.check_sat(tm);
    let solve_nanos = instr.finish(solve_started, Phase::Solve, observer);
    if solve_started.is_some() {
        instr.record_query(solve_nanos);
    }
    observer.on_query(r);
    let bytes = (r == SatResult::Sat)
        .then(|| witness_bytes(&backend.model(tm).expect("sat has model"), input_len));
    backend.pop();
    (Some(r), bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x_lt_5(tm: &mut TermManager) -> Term {
        let x = tm.var("x", 8);
        let five = tm.bv_const(5, 8);
        tm.ult(x, five)
    }

    #[test]
    fn incremental_and_fresh_agree() {
        let mut tm = TermManager::new();
        let cond = x_lt_5(&mut tm);
        for mut backend in [BitblastBackend::new(), BitblastBackend::fresh_per_query()] {
            backend.push();
            backend.assert_term(&mut tm, cond);
            assert_eq!(backend.check_sat(&mut tm), SatResult::Sat);
            let m = backend.model(&tm).expect("model");
            assert!(m.value("x").unwrap() < 5, "{}", backend.name());
            let not = tm.not(cond);
            backend.assert_term(&mut tm, not);
            assert_eq!(backend.check_sat(&mut tm), SatResult::Unsat);
            backend.pop();
            assert_eq!(backend.check_sat(&mut tm), SatResult::Sat);
            assert_eq!(backend.num_checks(), 3);
        }
    }

    #[test]
    fn dump_records_complete_scripts() {
        let mut tm = TermManager::new();
        let cond = x_lt_5(&mut tm);
        let mut backend = SmtLibDump::new();
        let scripts = backend.scripts();
        backend.push();
        backend.assert_term(&mut tm, cond);
        assert_eq!(backend.check_sat(&mut tm), SatResult::Sat);
        backend.pop();
        assert_eq!(scripts.len(), 1);
        let s = &scripts.snapshot()[0];
        assert!(s.starts_with("(set-logic QF_BV)"), "{s}");
        assert!(s.contains("(declare-const x (_ BitVec 8))"), "{s}");
        assert!(s.contains("(assert (bvult x #x05))"), "{s}");
        assert!(s.ends_with("(check-sat)\n"), "{s}");
    }

    #[test]
    #[should_panic(expected = "cannot pop the bottom frame")]
    fn fresh_backend_bottom_pop_panics() {
        BitblastBackend::fresh_per_query().pop();
    }

    #[test]
    fn gate_eliminates_reencountered_flip() {
        let mut tm = TermManager::new();
        let x = tm.var("in0", 8);
        let y = tm.var("in1", 8);
        let cond = tm.ule(x, y);
        let flipped = tm.not(cond);
        // Shadow on: the verdict is cross-checked against a real solver.
        let gate = StaticGate::shadowed();
        let report = gate.screen(&mut tm, &[cond], flipped).expect("enabled");
        assert!(report.eliminated);
        assert!(report.stats.eliminated);
        assert!(report.stats.facts > 0);
    }

    #[test]
    fn gate_passes_residual_queries_through() {
        let mut tm = TermManager::new();
        let x = tm.var("in0", 8);
        let y = tm.var("in1", 8);
        let cond = tm.ule(x, y);
        let other = tm.var("in2", 8);
        let unrelated = tm.ult(other, x);
        let gate = StaticGate::new(true);
        let report = gate.screen(&mut tm, &[cond], unrelated).expect("enabled");
        assert!(!report.eliminated);
        assert!(!report.stats.eliminated);
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
        let gate = StaticGate::shadowed();
        let report = gate.screen(&mut tm, &[pin], implied).expect("enabled");
        assert!(!report.eliminated);
        assert!(!report.stats.eliminated);
    }

    #[test]
    fn disabled_gate_screens_nothing() {
        let mut tm = TermManager::new();
        let cond = x_lt_5(&mut tm);
        let flipped = tm.not(cond);
        assert!(StaticGate::disabled()
            .screen(&mut tm, &[cond], flipped)
            .is_none());
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
        let report = gate.screen(&mut tm, &[in_bounds], hit).expect("gate on");
        assert!(
            !report.eliminated,
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
        let wide = tm.bv_const(128, 8);
        let below = tm.ult(idx, wide);
        let beyond = tm.not(below);
        let report = gate
            .screen(&mut tm, &[in_bounds, hit], beyond)
            .expect("gate on");
        assert!(
            report.eliminated,
            "the interval fact from the bounds check decides the flip"
        );
    }
}
