//! Observation hooks into the execution and exploration loops.
//!
//! Instrumentation concerns — per-instruction cost models (the benchmark
//! personas), coverage tracking, event counting — used to require
//! writing a whole [`crate::PathExecutor`] that duplicated the machine
//! loop. An [`Observer`] instead receives callbacks from the executor and
//! the [`crate::Session`] loop, so instrumentation composes with *any*
//! executor without touching its internals.
//!
//! All hooks have empty default bodies: implement only what you need.

use std::sync::{Arc, Mutex};

use binsym_smt::{SatResult, Term};

use crate::metrics::Phase;
use crate::session::PathOutcome;

/// Per-query accounting of the deterministic warm-start cache
/// ([`crate::SessionBuilder::warm_start`]), reported by parallel workers
/// through [`Observer::on_warm_query`] right after [`Observer::on_query`].
///
/// The cache affects wall time only, never results, so these counters are
/// the *only* observable difference between a warm and a cold run — use
/// them to quantify how much replayed-prefix work the cache clawed back
/// (the engines bench and ablation 3 aggregate them via
/// [`crate::CountingObserver`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmQueryStats {
    /// The query result (same value the paired `on_query` received).
    pub result: SatResult,
    /// A cache entry for the parent input was resident (its trail — and,
    /// for a promoted parent, its retained solver context — was reused).
    /// Promotion is lazy, so a hit does *not* imply a retained context:
    /// [`WarmQueryStats::prefix_reused`] is the context-reuse signal.
    pub cache_hit: bool,
    /// The parent-prefix re-execution was skipped entirely (the trail was
    /// served from the cache).
    pub replay_skipped: bool,
    /// Prefix path terms served from the retained solver context
    /// (bit-blast reused).
    pub prefix_reused: u64,
    /// Prefix path terms bit-blasted anew for this query.
    pub prefix_blasted: u64,
    /// No structurally matching context key was resident, so the query
    /// opened a fresh structural-context entry.
    pub context_key_created: bool,
    /// The structural context entry serving this query was last used by a
    /// *different* parent input — the cross-parent sharing the structural
    /// keying exists for.
    pub cross_parent_reuse: bool,
}

/// Per-query accounting of the word-level static-analysis gate
/// ([`crate::SessionBuilder::static_analysis`]), reported through
/// [`Observer::on_static_analysis`] for **every** screened flip query —
/// eliminated or residual.
///
/// Like the warm cache, the gate affects wall time only, never merged
/// results: an eliminated query fires *neither* [`Observer::on_query`]
/// nor [`Observer::on_warm_query`] and does not count as a solver check,
/// so analysis-on and analysis-off runs stay byte-identical in their
/// records and differ only in these counters (and in `solver_checks`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticAnalysisStats {
    /// True when the analysis proved the query infeasible without any SAT
    /// call; false for residual queries that went to the solver.
    pub eliminated: bool,
    /// Path-condition conjuncts assumed by the analysis.
    pub conjuncts: u64,
    /// Word-level facts derived (boolean truth values, interval
    /// refinements, and order-closure edges).
    pub facts: u64,
}

/// A checkpoint lifecycle event, reported through
/// [`Observer::on_checkpoint`] by sessions with
/// [`crate::SessionBuilder::checkpoint`] or
/// [`crate::SessionBuilder::resume`] configured.
///
/// Checkpointing affects wall time only, never merged results, so — like
/// [`WarmQueryStats`] — these events are the only observable difference
/// between a checkpointed and a plain run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointEvent {
    /// A checkpoint file was atomically written; `paths` is the number of
    /// committed path records it captures.
    Written {
        /// Committed path records in the checkpoint.
        paths: u64,
    },
    /// The session seeded itself from a resume checkpoint carrying
    /// `records` already-materialized records.
    Resumed {
        /// Records restored from the checkpoint.
        records: u64,
    },
}

/// Callbacks fired during path execution and exploration.
///
/// `on_step`/`on_branch` fire inside [`crate::PathExecutor::execute_path`];
/// `on_path`/`on_query` fire in the [`crate::Session`] exploration loop.
pub trait Observer {
    /// An instruction is about to execute at `pc`; `steps` instructions
    /// have completed on the current path so far.
    fn on_step(&mut self, pc: u32, steps: u64) {
        let _ = (pc, steps);
    }

    /// A symbolic branch was recorded on the trail; `pc` is the branch
    /// site (the address of the branching instruction).
    fn on_branch(&mut self, pc: u32, cond: Term, taken: bool) {
        let _ = (pc, cond, taken);
    }

    /// A path finished executing under `input`.
    fn on_path(&mut self, input: &[u8], outcome: &PathOutcome) {
        let _ = (input, outcome);
    }

    /// A branch-flip feasibility query was discharged.
    fn on_query(&mut self, result: SatResult) {
        let _ = result;
    }

    /// The query just reported through [`Observer::on_query`] went through
    /// the warm-start cache; `stats` carries its hit/miss and prefix-reuse
    /// accounting. Fires only in parallel sessions with
    /// [`crate::SessionBuilder::warm_start`] enabled.
    fn on_warm_query(&mut self, stats: &WarmQueryStats) {
        let _ = stats;
    }

    /// The static-analysis gate screened a flip query; `stats` says
    /// whether it was eliminated (no SAT call — in that case no
    /// [`Observer::on_query`] fires for it) or residual. Fires only with
    /// [`crate::SessionBuilder::static_analysis`] enabled (the default).
    fn on_static_analysis(&mut self, stats: &StaticAnalysisStats) {
        let _ = stats;
    }

    /// A timed engine [`Phase`] completed, taking `nanos` wall nanoseconds.
    ///
    /// Fires only when instrumentation is active — a metrics registry
    /// ([`crate::SessionBuilder::metrics`]) or a trace sink
    /// ([`crate::SessionBuilder::trace`]) is installed — because the engine
    /// measures no clocks otherwise, keeping the disabled path free.
    fn on_phase(&mut self, phase: Phase, nanos: u64) {
        let _ = (phase, nanos);
    }

    /// A checkpoint was written, or the session resumed from one. Workers
    /// report [`CheckpointEvent::Written`] through their own observer; the
    /// coordinator reports [`CheckpointEvent::Resumed`] (and the final
    /// drain checkpoint) through an extra observer drawn from the factory.
    fn on_checkpoint(&mut self, event: CheckpointEvent) {
        let _ = event;
    }
}

/// Generates every forwarding [`Observer`] impl from one list of hook
/// signatures, so a new hook is declared in exactly two places — the trait
/// and this list — instead of being hand-copied into each wrapper impl (a
/// proven drift hazard while the catalog grows). Every hook argument is
/// `Copy` (scalars, `Term`, or shared references), which is what lets the
/// pair impl fan the same arguments out to both members.
macro_rules! forward_observer_hooks {
    ($(fn $hook:ident(&mut self $(, $arg:ident: $ty:ty)*);)+) => {
        /// Sharing an observer: the session takes ownership of its
        /// observer, so to read accumulated state back afterwards, wrap the
        /// observer in `Rc<RefCell<…>>`, keep a clone, and hand the other
        /// clone to the builder.
        impl<O: Observer> Observer for std::rc::Rc<std::cell::RefCell<O>> {
            $(fn $hook(&mut self $(, $arg: $ty)*) {
                self.borrow_mut().$hook($($arg),*);
            })+
        }

        /// Sharing an accumulator **across worker threads**: the
        /// `Rc<RefCell<…>>` wrapper above is not `Send`, so it cannot serve
        /// the per-worker observers of a [`crate::ParallelSession`]. Wrap
        /// the accumulator in `Arc<Mutex<…>>` instead, keep one clone, and
        /// hand further clones out of
        /// [`crate::SessionBuilder::observer_factory`] — every worker then
        /// feeds the same state behind the lock. (For high-frequency
        /// signals prefer a lock-free structure such as
        /// [`crate::CoverageMap`] with a dedicated observer, or the
        /// sharded [`crate::MetricsRegistry`]; the mutex forwarding is for
        /// arbitrary accumulators.)
        impl<O: Observer> Observer for Arc<Mutex<O>> {
            $(fn $hook(&mut self $(, $arg: $ty)*) {
                self.lock().expect("observer lock").$hook($($arg),*);
            })+
        }

        /// Boxed observers forward: lets composed observers (see the pair
        /// impl below) mix concrete and type-erased parts.
        impl<O: Observer + ?Sized> Observer for Box<O> {
            $(fn $hook(&mut self $(, $arg: $ty)*) {
                (**self).$hook($($arg),*);
            })+
        }

        /// Composing observers: a pair fans every callback out to both
        /// members (in order), so e.g. a persona cost model and a coverage
        /// tracker can watch the same session. Nest pairs for more than
        /// two.
        impl<A: Observer, B: Observer> Observer for (A, B) {
            $(fn $hook(&mut self $(, $arg: $ty)*) {
                self.0.$hook($($arg),*);
                self.1.$hook($($arg),*);
            })+
        }
    };
}

forward_observer_hooks! {
    fn on_step(&mut self, pc: u32, steps: u64);
    fn on_branch(&mut self, pc: u32, cond: Term, taken: bool);
    fn on_path(&mut self, input: &[u8], outcome: &PathOutcome);
    fn on_query(&mut self, result: SatResult);
    fn on_warm_query(&mut self, stats: &WarmQueryStats);
    fn on_static_analysis(&mut self, stats: &StaticAnalysisStats);
    fn on_phase(&mut self, phase: Phase, nanos: u64);
    fn on_checkpoint(&mut self, event: CheckpointEvent);
}

/// The do-nothing observer (the default).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// An observer counting events — useful for tests, progress displays, and
/// cheap coverage proxies.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingObserver {
    /// Instructions executed across all paths.
    pub steps: u64,
    /// Symbolic branches recorded across all paths.
    pub branches: u64,
    /// Paths completed.
    pub paths: u64,
    /// Feasibility queries discharged (both SAT and UNSAT).
    pub queries: u64,
    /// Queries that came back satisfiable.
    pub sat_queries: u64,
    /// Warm-start queries that found a cache entry for their parent
    /// input (see [`WarmQueryStats::cache_hit`]).
    pub warm_hits: u64,
    /// Warm-start queries that had to build a fresh cache entry.
    pub warm_misses: u64,
    /// Warm-start queries that skipped the parent-prefix re-execution.
    pub warm_replays_skipped: u64,
    /// Prefix path terms served from retained solver contexts.
    pub warm_prefix_reused: u64,
    /// Prefix path terms bit-blasted anew by warm-start queries.
    pub warm_prefix_blasted: u64,
    /// Structural context keys opened (fresh context-cache entries).
    pub warm_context_keys: u64,
    /// Warm-start queries served by a structural context entry last used
    /// by a different parent input (cross-parent sharing).
    pub warm_cross_parent_reuse: u64,
    /// Flip queries screened by the static-analysis gate.
    pub sa_queries: u64,
    /// Screened queries eliminated without any SAT call.
    pub sa_queries_eliminated: u64,
    /// Word-level facts derived across all screened queries.
    pub sa_facts: u64,
    /// Checkpoint files written ([`CheckpointEvent::Written`]).
    pub checkpoints_written: u64,
    /// Resume seedings observed ([`CheckpointEvent::Resumed`]; 0 or 1 per
    /// session).
    pub resumed_from: u64,
}

impl CountingObserver {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        CountingObserver::default()
    }
}

impl Observer for CountingObserver {
    fn on_step(&mut self, _pc: u32, _steps: u64) {
        self.steps += 1;
    }

    fn on_branch(&mut self, _pc: u32, _cond: Term, _taken: bool) {
        self.branches += 1;
    }

    fn on_path(&mut self, _input: &[u8], _outcome: &PathOutcome) {
        self.paths += 1;
    }

    fn on_query(&mut self, result: SatResult) {
        self.queries += 1;
        if result == SatResult::Sat {
            self.sat_queries += 1;
        }
    }

    fn on_warm_query(&mut self, stats: &WarmQueryStats) {
        if stats.cache_hit {
            self.warm_hits += 1;
        } else {
            self.warm_misses += 1;
        }
        if stats.replay_skipped {
            self.warm_replays_skipped += 1;
        }
        self.warm_prefix_reused += stats.prefix_reused;
        self.warm_prefix_blasted += stats.prefix_blasted;
        if stats.context_key_created {
            self.warm_context_keys += 1;
        }
        if stats.cross_parent_reuse {
            self.warm_cross_parent_reuse += 1;
        }
    }

    fn on_static_analysis(&mut self, stats: &StaticAnalysisStats) {
        self.sa_queries += 1;
        if stats.eliminated {
            self.sa_queries_eliminated += 1;
        }
        self.sa_facts += stats.facts;
    }

    fn on_checkpoint(&mut self, event: CheckpointEvent) {
        match event {
            CheckpointEvent::Written { .. } => self.checkpoints_written += 1,
            CheckpointEvent::Resumed { .. } => self.resumed_from += 1,
        }
    }
}
