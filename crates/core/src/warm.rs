//! The deterministic solver warm start of the parallel engine.
//!
//! Cache-off prescription replay ([`crate::parallel`]) pays twice per
//! flip query: it re-executes the parent input's path prefix to reproduce
//! the trail, and it bit-blasts that prefix into a brand-new solver.
//! Consecutive prescriptions from the same subtree — siblings under DFS,
//! affine pops under [`crate::CoverageGuided`] — replay the same parent,
//! or parents whose prefixes share a long leading run. A per-worker
//! `WarmCache` keeps both kinds of work over one shared [`TermManager`]:
//!
//! * the **parent trails**, keyed by the parent's concrete input (the
//!   trail's witness values are input-dependent): a list of at most
//!   [`WARM_CAPACITY`] trails, most recently used first. A cached trail is
//!   re-executed only when a later query needs a *deeper* prefix than was
//!   recorded;
//! * one retained [`PrefixContext`] that every residual flip query of the
//!   worker solves through. Execution is deterministic and the shared
//!   term manager hash-conses, so two parents that take the same leading
//!   decisions derive identical prefix terms, and the context reuses the
//!   blasted run a query shares with the previous one, whichever parent
//!   that came from.
//!
//! # Determinism
//!
//! The cache must be invisible in the results: merged parallel records
//! are byte-identical across worker counts, schedules, *and cache hit
//! patterns* — the cache affects wall time only, never models. Three
//! facts carry the argument:
//!
//! 1. Trail reuse is sound because execution is deterministic: the cached
//!    trail of input `I` is the trail any fresh replay of `I` would
//!    record (prefixes of deeper runs included).
//! 2. [`PrefixContext`] guarantees bit-identical models to a cold
//!    per-query solver *regardless of its retained state*: the retained
//!    prefix is pristine (never solved on), every flip runs in a scratch
//!    clone, and [`PrefixContext::solve_flip`] recomputes the true
//!    term-level shared run on every query — so a query that shares
//!    nothing with the previous one only costs time (a full rollback and
//!    re-blast), never correctness (see `binsym_smt::prefix` for the full
//!    argument).
//! 3. Dropping state only discards work: a trail pushed off the list is
//!    rebuilt by the same pure function, and a context that cannot roll
//!    back is dropped while its query is solved cold, bit-identically.
//!
//! Everything observable beyond timing — results, models, spawned
//! prescriptions — is therefore a pure function of the prescription, as
//! in cache-off mode; only the counters surfaced through
//! [`crate::Observer::on_warm_query`] reveal the cache at all.

use binsym_smt::{PrefixContext, SatResult, Solver, TermManager};

use crate::backend::{solve, StaticGate};
use crate::error::Error;
use crate::machine::TrailEntry;
use crate::metrics::{Instruments, Phase};
use crate::observe::{Observer, WarmQueryStats};
use crate::prescribe::{witness_bytes, Flip};
use crate::session::PathExecutor;

/// Bound on the parent trails each worker keeps. A trail is cheap, so the
/// bound leans toward covering a depth-first worker's ancestor chain.
pub const WARM_CAPACITY: usize = 16;

/// One cached parent input: the longest trail recorded for it so far.
struct CachedTrail {
    /// The parent path's concrete input (the lookup key).
    input: Vec<u8>,
    /// Longest trail recorded for this input so far.
    trail: Vec<TrailEntry>,
    /// Number of branch entries in `trail`.
    branches: usize,
}

/// The per-worker warm-start cache of a [`crate::ParallelSession`]: the
/// most recently used parent trails and one retained prefix context, over
/// one shared term manager.
pub(crate) struct WarmCache {
    /// One shared term manager for every cached trail and the context.
    /// Never reset while the cache lives — hash-consing is what makes the
    /// same decisions taken by *different parents* derive identical term
    /// handles, so the context reuses its blasted run across them.
    tm: TermManager,
    /// Cached parent trails, most recently used first; at most `capacity`.
    trails: Vec<CachedTrail>,
    capacity: usize,
    /// The retained context and the parent input of its previous query.
    /// `None` until the first residual query, and again after a context
    /// failed to roll back.
    context: Option<(PrefixContext, Vec<u8>)>,
}

impl WarmCache {
    /// Creates an empty cache keeping at most `capacity` parent trails.
    pub(crate) fn new(capacity: usize) -> Self {
        WarmCache {
            tm: TermManager::new(),
            trails: Vec::new(),
            capacity: capacity.max(1),
            context: None,
        }
    }

    /// Moves the cached trail of `input` to the front of the list, first
    /// executing the parent prefix when the trail is missing or has no
    /// branch `ord` yet. A new trail pushes the least recently used one
    /// off a full list. Returns `(cache_hit, replayed)`.
    fn trail_for(
        &mut self,
        executor: &mut dyn PathExecutor,
        input: &[u8],
        ord: usize,
        fuel: u64,
        instr: &Instruments,
        observer: &mut dyn Observer,
    ) -> Result<(bool, bool), Error> {
        let hit = match self.trails.iter().position(|t| t.input == input) {
            Some(i) => {
                self.trails[..=i].rotate_right(1);
                true
            }
            None => false,
        };
        if hit && self.trails[0].branches > ord {
            return Ok((true, false));
        }
        // Execute on the shared term manager: hash-consing reproduces the
        // handles of any prefix it executed before exactly.
        let replay_started = instr.begin(Phase::Replay);
        let trail = executor.execute_prefix(&mut self.tm, input, fuel, ord + 1);
        instr.finish(replay_started, Phase::Replay, observer);
        let trail = trail?;
        let fresh = CachedTrail {
            input: input.to_vec(),
            branches: trail.iter().filter(|t| t.is_branch()).count(),
            trail,
        };
        if hit {
            self.trails[0] = fresh;
        } else {
            self.trails.truncate(self.capacity - 1);
            self.trails.insert(0, fresh);
        }
        Ok((hit, true))
    }

    /// Discharges the flip query of one prescription through the cache,
    /// with the same contract as cold replay's [`crate::backend::discharge`]:
    /// returns the query result (`None` when the static gate eliminated
    /// the query) and the witness input bytes on SAT. A query that reaches
    /// a solver fires [`Observer::on_query`] and then
    /// [`Observer::on_warm_query`] with its cache accounting.
    ///
    /// Results are bit-identical to the cache-off replay of the same
    /// prescription (see the [module docs](self)).
    ///
    /// # Errors
    /// The same errors cache-off replay produces (execution failure,
    /// fuel exhaustion, [`Error::ReplayDivergence`]), plus
    /// [`Error::WarmStart`] for broken solver invariants. A context that
    /// cannot roll back (a stale frame, a solver that is no longer
    /// pristine) is not an error here: the context is dropped and the
    /// query falls back to the cold solve, whose answer is bit-identical —
    /// so even that failure mode cannot change results.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn solve_flip(
        &mut self,
        executor: &mut dyn PathExecutor,
        input: &[u8],
        flip: Flip,
        fuel: u64,
        gate: StaticGate,
        instr: &Instruments,
        observer: &mut dyn Observer,
    ) -> Result<(Option<SatResult>, Option<Vec<u8>>), Error> {
        let (hit, replayed) = self.trail_for(executor, input, flip.ord, fuel, instr, observer)?;
        let WarmCache {
            tm,
            trails,
            context,
            ..
        } = self;
        let (prefix, flipped) = flip.query(&trails[0].trail, tm)?;
        if gate.eliminates(tm, &prefix, flipped, instr, observer) {
            return Ok((None, None));
        }
        // The query that builds the worker's context blasts its whole
        // prefix into it and is timed as `WarmPromote`; the queries riding
        // the retained context are `WarmSolve`.
        let phase = match context {
            Some(_) => Phase::WarmSolve,
            None => Phase::WarmPromote,
        };
        let (ctx, last_parent) =
            context.get_or_insert_with(|| (PrefixContext::new(), input.to_vec()));
        let cross_parent_reuse = last_parent.as_slice() != input;
        if cross_parent_reuse {
            last_parent.clear();
            last_parent.extend_from_slice(input);
        }
        let warm_started = instr.begin(phase);
        let solved = ctx.solve_flip(tm, &prefix, flipped);
        let warm_nanos = instr.finish(warm_started, phase, observer);
        let (result, reused, blasted, model) = match solved {
            Ok(report) => {
                if warm_started.is_some() {
                    instr.record_query(warm_nanos);
                }
                (
                    report.result,
                    report.reused as u64,
                    report.blasted as u64,
                    ctx.model(tm),
                )
            }
            Err(_) => {
                // A context that cannot roll back must not change results:
                // drop it and answer with cold replay's solve step, which
                // is bit-identical. The next query builds a fresh context.
                instr.instant("warm_rollback");
                *context = None;
                let (r, model) = solve(&mut Solver::new(), tm, &prefix, flipped, instr, observer);
                (r, 0, prefix.len() as u64, model)
            }
        };
        observer.on_query(result);
        observer.on_warm_query(&WarmQueryStats {
            result,
            cache_hit: hit,
            replay_skipped: !replayed,
            prefix_reused: reused,
            prefix_blasted: blasted,
            cross_parent_reuse,
        });
        if result != SatResult::Sat {
            return Ok((Some(result), None));
        }
        let model = model.ok_or(Error::WarmStart {
            what: "satisfiable warm query produced no model",
        })?;
        Ok((
            Some(result),
            Some(witness_bytes(&model, executor.input_len())),
        ))
    }

    /// Number of resident parent trails.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.trails.len()
    }

    /// Parent inputs currently resident in the trail list, least
    /// recently used first (test observability for the eviction order).
    #[cfg(test)]
    pub(crate) fn resident_inputs_lru_first(&self) -> Vec<Vec<u8>> {
        self.trails.iter().rev().map(|t| t.input.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::CountingObserver;
    use crate::session::{PathOutcome, SpecExecutor};
    use binsym_asm::Assembler;
    use binsym_isa::Spec;

    const THREE_COMPARES: &str = r#"
        .data
__sym_input: .byte 0, 0, 0
        .text
_start:
    la a0, __sym_input
    li a2, 100
    lbu a1, 0(a0)
    bltu a1, a2, c1
c1: lbu a1, 1(a0)
    bltu a1, a2, c2
c2: lbu a1, 2(a0)
    bltu a1, a2, c3
c3:
    li a0, 0
    li a7, 93
    ecall
"#;

    fn executor() -> SpecExecutor {
        let elf = Assembler::new()
            .assemble(THREE_COMPARES)
            .expect("assembles");
        SpecExecutor::new(Spec::rv32im(), &elf, None).expect("sym input")
    }

    /// Keeps the cache accounting of the last query.
    #[derive(Default)]
    struct LastWarm(Option<WarmQueryStats>);

    impl Observer for LastWarm {
        fn on_warm_query(&mut self, stats: &WarmQueryStats) {
            self.0 = Some(*stats);
        }
    }

    /// Gate-off cache query: the oracle tests compare against a gate-free
    /// cold path, so every query is residual and carries warm stats.
    fn warm_solve(
        cache: &mut WarmCache,
        exec: &mut SpecExecutor,
        input: &[u8],
        flip: Flip,
    ) -> Result<(SatResult, Option<Vec<u8>>, WarmQueryStats), Error> {
        let mut last = LastWarm::default();
        let (r, bytes) = cache.solve_flip(
            exec,
            input,
            flip,
            10_000,
            StaticGate::disabled(),
            &Instruments::disabled(),
            &mut last,
        )?;
        Ok((
            r.expect("gate disabled: every query is residual"),
            bytes,
            last.0.expect("a solved query carries warm stats"),
        ))
    }

    /// Cache-off reference: the exact replay sequence of the cold worker
    /// path (fresh tm + fresh solver per query). This is an
    /// *intentionally independent* re-implementation — it must not share
    /// code with the production paths it is the oracle for.
    fn cold_solve(
        executor: &mut SpecExecutor,
        input: &[u8],
        flip: Flip,
    ) -> (SatResult, Option<Vec<u8>>) {
        use crate::session::PathExecutor as _;
        let mut tm = TermManager::new();
        let trail = executor
            .execute_prefix(&mut tm, input, 10_000, flip.ord + 1)
            .expect("replays");
        let mut ord = 0usize;
        let mut cut = None;
        for (i, entry) in trail.iter().enumerate() {
            if let TrailEntry::Branch { cond, taken, pc } = *entry {
                if ord == flip.ord {
                    cut = Some((i, cond, taken, pc));
                    break;
                }
                ord += 1;
            }
        }
        let (i, cond, taken, _) = cut.expect("branch exists");
        let mut solver = Solver::new();
        solver.push();
        for entry in &trail[..i] {
            let t = entry.path_term(&mut tm);
            solver.assert_term(&mut tm, t);
        }
        let flipped = if taken { tm.not(cond) } else { cond };
        solver.assert_term(&mut tm, flipped);
        let r = solver.check_sat(&mut tm, &[]);
        if r != SatResult::Sat {
            return (r, None);
        }
        let model = solver.model(&tm).expect("sat has model");
        let bytes = (0..executor.input_len())
            .map(|b| model.value(&format!("in{b}")).unwrap_or(0) as u8)
            .collect();
        (r, Some(bytes))
    }

    /// The parent trail's flips, as the engine would prescribe them.
    fn flips_of(executor: &mut SpecExecutor, input: &[u8]) -> Vec<Flip> {
        let mut tm = TermManager::new();
        let mut out = Vec::new();
        let outcome: PathOutcome = executor
            .execute_path(&mut tm, input, 10_000, &mut crate::observe::NullObserver)
            .expect("executes");
        for entry in &outcome.trail {
            if let TrailEntry::Branch { taken, pc, .. } = *entry {
                out.push(Flip {
                    ord: out.len(),
                    taken,
                    pc,
                });
            }
        }
        out
    }

    #[test]
    fn warm_answers_match_cold_replay_bit_for_bit() {
        let mut exec = executor();
        let flips = flips_of(&mut exec, &[0, 0, 0]);
        assert_eq!(flips.len(), 3);
        let mut cache = WarmCache::new(4);
        // Deepest-first (the DFS sibling order), then revisit ascending.
        for &ord in &[2usize, 1, 0, 1, 2] {
            let flip = flips[ord];
            let (r, bytes, stats) =
                warm_solve(&mut cache, &mut exec, &[0, 0, 0], flip).expect("solves");
            let (cold_r, cold_bytes) = cold_solve(&mut exec, &[0, 0, 0], flip);
            assert_eq!(r, cold_r, "ord {ord}");
            assert_eq!(bytes, cold_bytes, "ord {ord}: bit-identical witness");
            assert_eq!(stats.result, r);
        }
    }

    #[test]
    fn trail_and_context_reuse_is_reported() {
        let mut exec = executor();
        let flips = flips_of(&mut exec, &[0, 0, 0]);
        let mut cache = WarmCache::new(4);
        let (_, _, first) =
            warm_solve(&mut cache, &mut exec, &[0, 0, 0], flips[2]).expect("solves");
        assert!(!first.cache_hit, "first query records the trail");
        assert!(!first.replay_skipped, "first query executes the prefix");
        assert_eq!(
            (first.prefix_reused, first.prefix_blasted),
            (0, 2),
            "first query blasts its whole prefix into the fresh context"
        );
        let (_, _, sibling) =
            warm_solve(&mut cache, &mut exec, &[0, 0, 0], flips[1]).expect("solves");
        assert!(sibling.cache_hit, "sibling reuses the cached trail");
        assert!(sibling.replay_skipped, "sibling skips the re-execution");
        assert_eq!(
            (sibling.prefix_reused, sibling.prefix_blasted),
            (1, 0),
            "the shorter sibling prefix rolls back and reuses the rest"
        );
        let (_, _, repeat) =
            warm_solve(&mut cache, &mut exec, &[0, 0, 0], flips[1]).expect("solves");
        assert!(repeat.cache_hit);
        assert!(repeat.replay_skipped);
        assert_eq!(repeat.prefix_reused, 1, "repeated prefix: all reuse");
        assert_eq!(repeat.prefix_blasted, 0, "same prefix: pure reuse");
        assert!(!repeat.cross_parent_reuse, "one parent throughout");
    }

    #[test]
    fn lru_eviction_keeps_the_bound_and_answers_stay_correct() {
        let mut exec = executor();
        let flips = flips_of(&mut exec, &[0, 0, 0]);
        let mut cache = WarmCache::new(2);
        let inputs: [&[u8]; 3] = [&[0, 0, 0], &[200, 0, 0], &[0, 200, 0]];
        for input in inputs {
            let local = flips_of(&mut exec, input);
            let flip = local[0];
            let (r, bytes, _) = warm_solve(&mut cache, &mut exec, input, flip).expect("ok");
            let (cold_r, cold_bytes) = cold_solve(&mut exec, input, flip);
            assert_eq!(r, cold_r);
            assert_eq!(bytes, cold_bytes);
            assert!(cache.len() <= 2, "capacity bound holds");
        }
        // The first input was evicted; a revisit is a miss but still
        // bit-identical.
        let (r, bytes, stats) =
            warm_solve(&mut cache, &mut exec, &[0, 0, 0], flips[2]).expect("ok");
        assert!(!stats.cache_hit, "evicted entry rebuilt");
        let (cold_r, cold_bytes) = cold_solve(&mut exec, &[0, 0, 0], flips[2]);
        assert_eq!(r, cold_r);
        assert_eq!(bytes, cold_bytes);
    }

    #[test]
    fn lru_eviction_order_is_pinned_least_recent_first() {
        let mut exec = executor();
        let mut cache = WarmCache::new(2);
        let a: &[u8] = &[0, 0, 0];
        let b: &[u8] = &[200, 0, 0];
        let c: &[u8] = &[0, 200, 0];
        for input in [a, b] {
            let flip = flips_of(&mut exec, input)[0];
            warm_solve(&mut cache, &mut exec, input, flip).expect("ok");
        }
        // Touch `a` again: `b` becomes the least-recently-used entry.
        let fa = flips_of(&mut exec, a)[0];
        let (_, _, s) = warm_solve(&mut cache, &mut exec, a, fa).expect("ok");
        assert!(s.cache_hit);
        assert_eq!(
            cache.resident_inputs_lru_first(),
            vec![b.to_vec(), a.to_vec()]
        );
        // Inserting `c` at capacity must evict exactly `b`.
        let fc = flips_of(&mut exec, c)[0];
        warm_solve(&mut cache, &mut exec, c, fc).expect("ok");
        assert_eq!(
            cache.resident_inputs_lru_first(),
            vec![a.to_vec(), c.to_vec()]
        );
        let (_, _, sa) = warm_solve(&mut cache, &mut exec, a, fa).expect("ok");
        assert!(sa.cache_hit, "a survived the eviction");
        let fb = flips_of(&mut exec, b)[0];
        let (_, _, sb) = warm_solve(&mut cache, &mut exec, b, fb).expect("ok");
        assert!(!sb.cache_hit, "b was the deterministic victim");
    }

    #[test]
    fn sibling_parents_share_one_structural_context() {
        let mut exec = executor();
        // Two different parent inputs with the *same* decision prefix:
        // both are < 100 at every compare, so their trails are
        // structurally identical while their witness bytes differ.
        let a: &[u8] = &[0, 0, 0];
        let b: &[u8] = &[1, 1, 1];
        let fa = flips_of(&mut exec, a)[2];
        let fb = flips_of(&mut exec, b)[2];
        let mut cache = WarmCache::new(4);
        let (_, _, first) = warm_solve(&mut cache, &mut exec, a, fa).expect("ok");
        assert!(
            !first.cross_parent_reuse,
            "a fresh context has no previous parent"
        );
        assert_eq!(first.prefix_reused, 0);
        // Parent `b` rides the context parent `a` built: the full prefix
        // is served from the retained bit-blast and the answer is still
        // bit-identical to a cold replay of `b`.
        let (r, bytes, s) = warm_solve(&mut cache, &mut exec, b, fb).expect("ok");
        assert!(!s.cache_hit, "`b` records its own trail");
        assert!(s.cross_parent_reuse, "a context built by `a` served `b`");
        assert!(s.prefix_reused > 0, "cross-parent bit-blast reuse");
        assert_eq!(s.prefix_blasted, 0, "identical prefix: nothing re-blasted");
        let (cold_r, cold_bytes) = cold_solve(&mut exec, b, fb);
        assert_eq!(r, cold_r);
        assert_eq!(bytes, cold_bytes, "bit-identical witness across parents");
        // A structurally different parent (first compare falls the other
        // way) shares no prefix term: the same context rolls back all the
        // way and blasts the new prefix, still bit-identically.
        let c: &[u8] = &[200, 0, 0];
        let fc = flips_of(&mut exec, c)[1];
        let (r, bytes, sc) = warm_solve(&mut cache, &mut exec, c, fc).expect("ok");
        assert!(sc.cross_parent_reuse);
        assert_eq!(
            (sc.prefix_reused, sc.prefix_blasted),
            (0, 1),
            "divergent prefix: nothing shared"
        );
        assert_eq!((r, bytes), cold_solve(&mut exec, c, fc));
    }

    #[test]
    fn divergent_prescriptions_error_like_cold_replay() {
        let mut exec = executor();
        let flips = flips_of(&mut exec, &[0, 0, 0]);
        let mut cache = WarmCache::new(4);
        // Too-deep ordinal: fewer branches than prescribed.
        let bogus = Flip {
            ord: 17,
            taken: true,
            pc: 0,
        };
        assert!(matches!(
            warm_solve(&mut cache, &mut exec, &[0, 0, 0], bogus),
            Err(Error::ReplayDivergence { .. })
        ));
        // Wrong direction.
        let wrong_dir = Flip {
            taken: !flips[0].taken,
            ..flips[0]
        };
        assert!(matches!(
            warm_solve(&mut cache, &mut exec, &[0, 0, 0], wrong_dir),
            Err(Error::ReplayDivergence { .. })
        ));
        // Wrong site.
        let wrong_pc = Flip {
            pc: flips[0].pc ^ 4,
            ..flips[0]
        };
        assert!(matches!(
            warm_solve(&mut cache, &mut exec, &[0, 0, 0], wrong_pc),
            Err(Error::ReplayDivergence { .. })
        ));
    }

    #[test]
    fn gate_eliminates_reencountered_flip_through_the_cache() {
        // The same comparison is branched on twice: flipping the second
        // occurrence contradicts the first (which sits in the prefix), so
        // the static gate decides it UNSAT without any solver.
        const SAME_COND_TWICE: &str = r#"
        .data
__sym_input: .byte 0
        .text
_start:
    la a0, __sym_input
    lbu a1, 0(a0)
    li a2, 100
    bltu a1, a2, c1
c1: bltu a1, a2, c2
c2:
    li a0, 0
    li a7, 93
    ecall
"#;
        let elf = Assembler::new().assemble(SAME_COND_TWICE).expect("asm");
        let mut exec = SpecExecutor::new(Spec::rv32im(), &elf, None).expect("sym input");
        let flips = flips_of(&mut exec, &[0]);
        assert_eq!(flips.len(), 2);
        let mut cache = WarmCache::new(4);
        let gate = StaticGate::shadowed();
        let mut counts = CountingObserver::new();
        let (r, bytes) = cache
            .solve_flip(
                &mut exec,
                &[0],
                flips[1],
                10_000,
                gate,
                &Instruments::disabled(),
                &mut counts,
            )
            .expect("solves");
        assert_eq!(r, None, "eliminated: no solver result");
        assert!(bytes.is_none());
        assert_eq!(counts.sa_queries, 1, "gate screened the query");
        assert_eq!(counts.sa_queries_eliminated, 1);
        assert_eq!(counts.queries, 0, "eliminated query reaches no solver");
        assert_eq!(
            counts.warm_hits + counts.warm_misses,
            0,
            "eliminated query carries no warm stats"
        );
        // The first flip is residual: the gate screens it but the solver
        // decides it, bit-identically to a gate-free cold replay.
        let (r0, b0) = cache
            .solve_flip(
                &mut exec,
                &[0],
                flips[0],
                10_000,
                gate,
                &Instruments::disabled(),
                &mut counts,
            )
            .expect("solves");
        let (cold_r, cold_b) = cold_solve(&mut exec, &[0], flips[0]);
        assert_eq!(r0, Some(cold_r));
        assert_eq!(b0, cold_b);
        assert_eq!(counts.sa_queries, 2);
        assert_eq!(counts.sa_queries_eliminated, 1, "residual, not eliminated");
        assert_eq!(counts.queries, 1);
        assert_eq!(
            counts.warm_hits + counts.warm_misses,
            1,
            "residual query carries warm stats"
        );
    }
}
