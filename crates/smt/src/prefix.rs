//! Reusable blasted path-prefix contexts, once the parallel engine's
//! deterministic warm start.
//!
//! No engine code calls this module any more: a warm `ParallelSession`
//! (`binsym-core`) now explores each unit of many paths on one incremental
//! solver. Its last callers are the hunt benchmark's `prefix.*` and
//! `clone.*` layer rows (`huntbench/src/layers.rs`), which drive it
//! directly; the benchmark change that retires those rows deletes it,
//! together with the SAT op log ([`SatSolver::rollback`]) and the blaster
//! journal ([`BitBlaster::rollback`]) that only it uses.
//!
//! A cold per-flip solver discharges every branch-flip query from
//! scratch: blast the replayed path prefix, blast the flipped condition,
//! solve. Consecutive
//! prescriptions from the same subtree replay — and re-blast — the *same*
//! prefix. A [`PrefixContext`] holds that blasted prefix open as a
//! reusable context, with each flip query solved on a disposable clone of
//! it, so the shared work is paid once.
//!
//! # Determinism: wall time only, never models
//!
//! The hard requirement is that caching must not change any result: the
//! warm path must return **bit-identical** models to the cold path (a
//! fresh solver per query), or the parallel engine's merged records would
//! depend on cache hit patterns and thus on scheduling. A long-lived
//! incremental solver cannot guarantee that — learnt clauses, VSIDS
//! activity, and saved phases from earlier queries steer later searches
//! toward different (equally valid) models. The context therefore keeps
//! its retained state **pristine**:
//!
//! * the retained prefix is only ever *constructed* (the Tseitin
//!   variables and clauses of its terms, plus one literal per conjunct) —
//!   no search ever runs on it, so it stays bit-identical to what the cold
//!   path would have built at the same point;
//! * each flip query runs on a throwaway **scratch clone** of the context:
//!   the flipped condition is blasted into the clone, which is solved
//!   under the cold path's assumptions (the prefix literals, then the
//!   flipped one). That reproduces the cold path's remaining operations
//!   exactly — same clause database, same variable numbering, same search,
//!   same model — while the learnt clauses and search state die with the
//!   clone;
//! * when a query needs a *shorter* prefix than is retained (depth-first
//!   siblings arrive deepest-first), the context truncates back to the
//!   exact construction point ([`SatSolver::rollback`] and
//!   [`BitBlaster::rollback`]). The retained solver was never searched on,
//!   so its clause store, watch lists and heap only grew, and cutting them
//!   back restores the bit-identical cold-path state.
//!
//! The context can therefore only change *when* work happens, never *what*
//! is computed: results are a pure function of the query, exactly as in
//! the cold path. That holds whatever the context retains, because
//! [`PrefixContext::solve_flip`] recomputes the shared term run on every
//! query: one context can serve every query of a worker, whichever parent
//! path it comes from.
//!
//! # Error discipline
//!
//! The contexts were built to run on worker threads, where a panic poisons
//! the whole exploration; everything fallible on the cached-context
//! rollback path is therefore typed. [`SatSolver::rollback`] and
//! [`BitBlaster::rollback`] report stale, foreign or unlogged checkpoints
//! and a retained solver that is no longer pristine as [`RollbackError`];
//! [`PrefixContext::solve_flip`] forwards them (and a missing internal
//! mark) as [`PrefixError`]. The caller drops the context and answers
//! that query cold, which gives the same answer. The `expect`s that
//! remain on this path are infallible by construction (checkpointing a
//! solver that was *just* created with logging enabled) and documented at
//! each site; sort mismatches panic exactly as the cold path's
//! `check_sat` does.

use crate::bitblast::{BitBlaster, BlastCheckpoint};
use crate::model::Model;
use crate::sat::{Lit, RollbackError, SatResult, SatSolver};
use crate::term::{Sort, Term, TermManager};

/// What one [`PrefixContext::solve_flip`] call did, for cache-efficiency
/// reporting (hit/miss counters in the engine's observers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixSolveReport {
    /// The query result.
    pub result: SatResult,
    /// Prefix terms served from the retained context (already blasted).
    pub reused: usize,
    /// Prefix terms blasted anew for this query.
    pub blasted: usize,
}

/// A warm-start failure: a stale or foreign cached context checkpoint (an
/// engine bug) or a retained solver that is no longer pristine. Surfaced
/// as a typed error so the caller can drop the context and solve cold
/// instead of panicking on a worker thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixError(RollbackError);

impl PrefixError {
    /// Static description of the failure (usable in `&'static str` error
    /// payloads).
    pub fn as_str(&self) -> &'static str {
        match self.0 {
            RollbackError::LogDisabled => "cached context lost its op log",
            RollbackError::ForeignCheckpoint => {
                "cached context checkpoint belongs to a different context"
            }
            RollbackError::StaleCheckpoint => "cached context checkpoint is stale",
            RollbackError::NotPristine => "cached context was searched on",
        }
    }
}

impl std::fmt::Display for PrefixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "warm-start context rollback failed: {}", self.0)
    }
}

impl std::error::Error for PrefixError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.0)
    }
}

impl From<RollbackError> for PrefixError {
    fn from(e: RollbackError) -> Self {
        PrefixError(e)
    }
}

/// Checkpoint pair marking the context state with a given number of prefix
/// terms blasted.
#[derive(Debug, Clone, Copy)]
struct Mark {
    sat: crate::sat::SatCheckpoint,
    blast: BlastCheckpoint,
}

/// The scratch clone of the last query, kept for model extraction.
#[derive(Debug)]
struct Scratch {
    sat: SatSolver,
    blaster: BitBlaster,
    result: SatResult,
}

/// A blasted path prefix held open for reuse, with each flip query solved
/// on a disposable clone.
///
/// Mirrors the exact operation sequence of the cold path, a fresh
/// [`crate::Solver`] that checks `prefix ++ [flipped]` as assumptions: the
/// prefix terms blasted in order, then the flipped term, then one search
/// under their literals. See the [module docs](self) for the determinism
/// argument.
///
/// Like [`crate::Solver`], a context must be used with a single
/// [`TermManager`] for its whole lifetime.
#[derive(Debug)]
pub struct PrefixContext {
    sat: SatSolver,
    blaster: BitBlaster,
    /// The retained prefix terms, in blasting order.
    prefix: Vec<Term>,
    /// The literal of each retained prefix term: the assumptions every
    /// flip query starts with.
    lits: Vec<Lit>,
    /// `marks[k]` = context state with `prefix[..k]` blasted
    /// (`marks.len() == prefix.len() + 1`).
    marks: Vec<Mark>,
    scratch: Option<Scratch>,
    checks: u64,
}

impl PrefixContext {
    /// Creates an empty context (no prefix blasted yet).
    pub fn new() -> Self {
        let sat = SatSolver::with_op_log();
        let blaster = BitBlaster::with_journal();
        let mark = Mark {
            sat: sat.checkpoint().expect("op-logged solver"),
            blast: blaster.checkpoint().expect("journaled blaster"),
        };
        PrefixContext {
            sat,
            blaster,
            prefix: Vec::new(),
            lits: Vec::new(),
            marks: vec![mark],
            scratch: None,
            checks: 0,
        }
    }

    /// Number of prefix terms currently retained.
    pub fn prefix_len(&self) -> usize {
        self.prefix.len()
    }

    /// Number of flip queries discharged through this context.
    pub fn num_checks(&self) -> u64 {
        self.checks
    }

    /// Discharges one branch-flip query: blasts `prefix` (reusing the
    /// longest already-retained leading run, rolling back or extending as
    /// needed) and solves it together with `flipped` on a disposable
    /// scratch clone. Returns the result and the reuse accounting.
    ///
    /// The model (when [`SatResult::Sat`]) is available from
    /// [`PrefixContext::model`] until the next call, and is bit-identical
    /// to the model a fresh [`crate::Solver`] returns for
    /// `check_sat(prefix ++ [flipped])`.
    ///
    /// # Errors
    /// [`PrefixError`] when the context cannot roll back to the shared
    /// run: its retained checkpoints are stale or its solver is no longer
    /// pristine. The retained prefix is left as it was; the caller should
    /// discard the context and fall back to a cold solve.
    ///
    /// # Panics
    /// Panics if any term is not boolean (as the cold path's `check_sat`
    /// does).
    pub fn solve_flip(
        &mut self,
        tm: &mut TermManager,
        prefix: &[Term],
        flipped: Term,
    ) -> Result<PrefixSolveReport, PrefixError> {
        self.scratch = None;
        let shared = self
            .prefix
            .iter()
            .zip(prefix.iter())
            .take_while(|(a, b)| a == b)
            .count();
        if shared < self.prefix.len() {
            // Shrink: return to the exact construction point after
            // `prefix[..shared]` — bit-identical to a cold build of that
            // prefix. A missing mark is a corrupted context (the same
            // class of failure as a stale checkpoint) and must surface as
            // a typed error, not an index panic on a worker thread.
            let mark = *self
                .marks
                .get(shared)
                .ok_or(PrefixError(RollbackError::StaleCheckpoint))?;
            self.sat.rollback(&mark.sat)?;
            self.blaster.rollback(&mark.blast)?;
            self.prefix.truncate(shared);
            self.lits.truncate(shared);
            self.marks.truncate(shared + 1);
        }
        for &t in &prefix[shared..] {
            assert_eq!(tm.sort(t), Sort::Bool, "assertions must be boolean");
            let lit = self.blaster.blast_bool(tm, &mut self.sat, t);
            self.prefix.push(t);
            self.lits.push(lit);
            self.marks.push(Mark {
                sat: self.sat.checkpoint()?,
                blast: self.blaster.checkpoint()?,
            });
        }
        // The flip runs on a scratch clone of the pristine context.
        // Learnt clauses and search state die with it.
        let mut sat = self.sat.clone_unlogged();
        let mut blaster = self.blaster.clone_unjournaled();
        assert_eq!(tm.sort(flipped), Sort::Bool, "assertions must be boolean");
        let mut assumptions = self.lits.clone();
        assumptions.push(blaster.blast_bool(tm, &mut sat, flipped));
        let result = sat.solve(&assumptions);
        self.checks += 1;
        self.scratch = Some(Scratch {
            sat,
            blaster,
            result,
        });
        Ok(PrefixSolveReport {
            result,
            reused: shared,
            blasted: prefix.len() - shared,
        })
    }

    /// Model of the last [`PrefixContext::solve_flip`] that returned
    /// [`SatResult::Sat`]; `None` if it was unsatisfiable or never ran.
    /// Same completion rules as [`crate::Solver::model`] — literally the
    /// same code: both go through `solver::extract_model`, so the warm
    /// and cold model encodings cannot drift apart.
    pub fn model(&self, tm: &TermManager) -> Option<Model> {
        let scratch = self.scratch.as_ref()?;
        if scratch.result != SatResult::Sat {
            return None;
        }
        Some(crate::solver::extract_model(
            &scratch.blaster,
            &scratch.sat,
            tm,
        ))
    }
}

impl Default for PrefixContext {
    fn default() -> Self {
        PrefixContext::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Solver;

    /// The cold path: a fresh solver and one check of `prefix ++
    /// [flipped]` as assumptions — what the parallel engine's cache-off
    /// replay does per query.
    fn cold_solve(
        tm: &mut TermManager,
        prefix: &[Term],
        flipped: Term,
    ) -> (SatResult, Option<Model>) {
        let mut query = prefix.to_vec();
        query.push(flipped);
        let mut s = Solver::new();
        let r = s.check_sat(tm, &query);
        (r, s.model(tm))
    }

    /// A chain of dependent byte constraints mimicking a path condition.
    fn chain(tm: &mut TermManager, n: usize) -> Vec<Term> {
        let mut terms = Vec::new();
        let mut acc = tm.bv_const(0, 8);
        for i in 0..n {
            let b = tm.var(&format!("in{i}"), 8);
            acc = tm.add(acc, b);
            let bound = tm.bv_const(200 + (i as u64 % 40), 8);
            terms.push(tm.ult(acc, bound));
        }
        terms
    }

    #[test]
    fn warm_models_are_bit_identical_to_cold_for_every_pattern() {
        let mut tm = TermManager::new();
        let terms = chain(&mut tm, 6);
        let mut ctx = PrefixContext::new();
        // Exercise equal, growing, and shrinking prefixes (the parallel
        // engine's sibling patterns), flipping the next condition each
        // time.
        for &cut in &[4usize, 4, 5, 2, 5, 0, 3] {
            let flipped = tm.not(terms[cut]);
            let report = ctx.solve_flip(&mut tm, &terms[..cut], flipped).expect("ok");
            let (cold_r, cold_m) = cold_solve(&mut tm, &terms[..cut], flipped);
            assert_eq!(report.result, cold_r, "cut {cut}");
            assert_eq!(ctx.model(&tm), cold_m, "cut {cut}: bit-identical model");
        }
        assert_eq!(ctx.num_checks(), 7);
    }

    #[test]
    fn reuse_accounting_tracks_shared_prefixes() {
        let mut tm = TermManager::new();
        let terms = chain(&mut tm, 5);
        let mut ctx = PrefixContext::new();
        let flip = tm.not(terms[4]);
        let r = ctx.solve_flip(&mut tm, &terms[..4], flip).expect("ok");
        assert_eq!((r.reused, r.blasted), (0, 4), "cold context blasts all");
        // Same prefix again: full reuse.
        let r = ctx.solve_flip(&mut tm, &terms[..4], flip).expect("ok");
        assert_eq!((r.reused, r.blasted), (4, 0));
        // Longer prefix: extend only.
        let flip5 = tm.var("q", 1);
        let one = tm.bv_const(1, 1);
        let flip5 = tm.eq(flip5, one);
        let r = ctx.solve_flip(&mut tm, &terms[..5], flip5).expect("ok");
        assert_eq!((r.reused, r.blasted), (4, 1));
        // Shorter prefix (depth-first sibling): roll back, reuse the rest.
        let flip2 = tm.not(terms[2]);
        let r = ctx.solve_flip(&mut tm, &terms[..2], flip2).expect("ok");
        assert_eq!((r.reused, r.blasted), (2, 0));
        assert_eq!(ctx.prefix_len(), 2);
    }

    #[test]
    fn unsat_flip_yields_no_model_and_context_survives() {
        let mut tm = TermManager::new();
        let x = tm.var("x", 8);
        let ten = tm.bv_const(10, 8);
        let lt = tm.ult(x, ten);
        let not_lt = tm.not(lt);
        let mut ctx = PrefixContext::new();
        let r = ctx.solve_flip(&mut tm, &[lt], not_lt).expect("ok");
        assert_eq!(r.result, SatResult::Unsat);
        assert!(ctx.model(&tm).is_none());
        // The retained prefix is untouched by the unsat query.
        let twenty = tm.bv_const(20, 8);
        let lt20 = tm.ult(x, twenty);
        let r = ctx.solve_flip(&mut tm, &[lt], lt20).expect("ok");
        assert_eq!(r.result, SatResult::Sat);
        assert_eq!((r.reused, r.blasted), (1, 0));
        let m = ctx.model(&tm).expect("sat has model");
        assert!(m.value("x").unwrap() < 10);
    }

    #[test]
    fn shrinking_a_searched_context_is_refused() {
        let mut tm = TermManager::new();
        let terms = chain(&mut tm, 4);
        let mut ctx = PrefixContext::new();
        let flip = tm.not(terms[3]);
        ctx.solve_flip(&mut tm, &terms[..3], flip).expect("ok");
        // A search on the retained solver itself (flips only ever solve on
        // scratch clones) leaves nothing to truncate back to.
        assert_eq!(ctx.sat.solve(&[]), SatResult::Sat);
        let flip1 = tm.not(terms[1]);
        let err = ctx
            .solve_flip(&mut tm, &terms[..1], flip1)
            .expect_err("shrinking needs a pristine solver");
        assert_eq!(err, PrefixError(RollbackError::NotPristine));
        assert_eq!(err.as_str(), "cached context was searched on");
        assert_eq!(ctx.prefix_len(), 3, "the retained prefix is left as it was");
        assert!(ctx.model(&tm).is_none(), "no stale model survives");
    }

    #[test]
    fn model_before_any_check_is_none() {
        let tm = TermManager::new();
        let ctx = PrefixContext::new();
        assert!(ctx.model(&tm).is_none());
    }
}
