//! The deterministic structurally-keyed solver warm start of the
//! parallel engine.
//!
//! Cache-off prescription replay ([`crate::parallel`]) pays twice per
//! flip query: it re-executes the parent input's path prefix to reproduce
//! the trail, and it bit-blasts that prefix into a brand-new solver.
//! Consecutive prescriptions from the same subtree — siblings under DFS,
//! affine pops under [`crate::CoverageGuided`] — replay prefixes that are
//! *structurally* identical even when their parent inputs differ. A
//! per-worker [`WarmCache`] therefore splits the shared work into two
//! caches over one shared [`TermManager`]:
//!
//! * the **trail cache** keys recorded trails by the parent's concrete
//!   input (the trail's witness values are input-dependent); a cached
//!   trail is re-executed only when a later query needs a *deeper*
//!   prefix than was recorded;
//! * the **context cache** keys retained
//!   [`binsym_smt::PrefixContext`]s by the **structural decision
//!   prefix** — the sequence of [`DecisionKey`]s: one per trail entry,
//!   `(branch-site pc, asserted direction)` for branches and
//!   `(site pc, concretization choice)` for address concretizations.
//!   The key is input-independent. Execution is deterministic, so
//!   two parents whose trails share a leading decision run derive the
//!   *same* path-condition terms for it (the shared term manager
//!   hash-conses them to identical handles), and one retained bit-blast
//!   serves them both: a query is routed to the resident entry sharing
//!   the longest leading run with its own key (ties to the most recently
//!   used entry), and the entry's key follows the last query served.
//!   Contexts are **lazily promoted** ([`PROMOTE_AFTER_QUERIES`]): the
//!   promotion counter lives on the structural entry, so sibling parents
//!   pool their queries toward promotion and the retained context's
//!   bookkeeping (op log, per-query scratch clone) taxes only regions
//!   with proven reuse.
//!
//! Both caches are bounded and LRU-evicted through an intrusive recency
//! list ([`Lru`]): touch, insert, and evict are all O(1) (the previous
//! per-insertion `min_by_key` scan was O(entries)).
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
//!    term-level shared run on every query — so even routing a query to
//!    a structurally unrelated context only costs time (a full rollback
//!    and re-blast), never correctness (see `binsym_smt::prefix` for the
//!    full argument). Structural matching is purely a search heuristic.
//! 3. Eviction only discards cached state; a rebuilt trail or context
//!    reproduces the evicted one's answers exactly (same pure function).
//!
//! Everything observable beyond timing — results, models, spawned
//! prescriptions — is therefore a pure function of the prescription, as
//! in cache-off mode; only the hit/miss counters surfaced through
//! [`crate::Observer::on_warm_query`] reveal the cache at all.

use std::collections::HashMap;

use binsym_smt::{PrefixContext, SatResult, Solver, TermManager};

use crate::backend::{solve, StaticGate};
use crate::error::Error;
use crate::machine::TrailEntry;
use crate::metrics::{Instruments, Phase};
use crate::observe::{Observer, WarmQueryStats};
use crate::prescribe::{witness_bytes, Flip};
use crate::session::PathExecutor;

/// Bound on each cache half per worker (resident parent trails, and
/// resident structural contexts). Unpromoted entries are cheap (a trail and
/// a promotion counter), so the bound leans toward covering a depth-first
/// worker's ancestor chain.
pub const WARM_CAPACITY: usize = 16;

/// Number of flip queries a parent must receive before it is promoted to
/// a retained [`PrefixContext`]. Promotion re-blasts the prefix into the
/// context and pays the context's bookkeeping (op log, per-query scratch
/// clone) from then on, so it must only happen where further siblings are
/// actually likely: the measured query-multiplicity distribution is
/// heavily skewed (most parents are queried once or twice, a few hubs
/// tens of times), and promoting on the *fourth* query captures the hubs
/// while never taxing the long tail — interleaved A/B timing across the
/// Table I shapes shows earlier promotion regressing the tail-heavy
/// programs and this threshold winning on all of them.
const PROMOTE_AFTER_QUERIES: u32 = 3;

/// Sentinel for "no slot" in the intrusive recency list.
const NIL: u32 = u32::MAX;

/// One element of a structural decision prefix — the input-independent
/// identity of one trail entry. Both kinds of trail decisions are keyed:
/// two prefixes only share a bit-blast when they agree on every branch
/// direction *and* every address-concretization choice, because a
/// concretization pin (`addr == c`, or a window constraint) is part of the
/// path condition exactly like a branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum DecisionKey {
    /// A symbolic branch: site and the direction asserted on this path.
    Branch {
        /// Program counter of the branch site.
        pc: u32,
        /// Direction the path took.
        taken: bool,
    },
    /// An address concretization: site and the choice the policy pinned
    /// (the concrete address under the eq/min policies, the window base
    /// under the symbolic policy).
    Concretize {
        /// Program counter of the memory access.
        pc: u32,
        /// The concretization decision recorded in the trail.
        choice: u64,
    },
}

impl DecisionKey {
    /// The structural identity of one trail entry.
    fn of(entry: &TrailEntry) -> DecisionKey {
        match *entry {
            TrailEntry::Branch { taken, pc, .. } => DecisionKey::Branch { pc, taken },
            TrailEntry::Concretize { pc, choice, .. } => DecisionKey::Concretize { pc, choice },
        }
    }
}

/// Intrusive doubly-linked recency list over slab slot indices: touch,
/// insert, and least-recent eviction are all O(1), replacing the former
/// O(entries) `min_by_key` stamp scan per insertion. Eviction order is
/// exactly least-recently-used and thus deterministic for a given query
/// sequence.
#[derive(Debug)]
struct Lru {
    head: u32,
    tail: u32,
    prev: Vec<u32>,
    next: Vec<u32>,
}

impl Lru {
    fn new() -> Self {
        Lru {
            head: NIL,
            tail: NIL,
            prev: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Links `slot` (currently unlinked) at the most-recent end.
    fn push_front(&mut self, slot: u32) {
        let n = slot as usize + 1;
        if self.prev.len() < n {
            self.prev.resize(n, NIL);
            self.next.resize(n, NIL);
        }
        self.prev[slot as usize] = NIL;
        self.next[slot as usize] = self.head;
        if self.head != NIL {
            self.prev[self.head as usize] = slot;
        } else {
            self.tail = slot;
        }
        self.head = slot;
    }

    /// Unlinks `slot` (currently linked).
    fn unlink(&mut self, slot: u32) {
        let (p, n) = (self.prev[slot as usize], self.next[slot as usize]);
        if p != NIL {
            self.next[p as usize] = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        } else {
            self.tail = p;
        }
        self.prev[slot as usize] = NIL;
        self.next[slot as usize] = NIL;
    }

    /// Moves a linked `slot` to the most-recent end.
    fn touch(&mut self, slot: u32) {
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
    }

    /// Unlinks and returns the least-recently-used slot.
    fn pop_back(&mut self) -> Option<u32> {
        let t = self.tail;
        if t == NIL {
            return None;
        }
        self.unlink(t);
        Some(t)
    }
}

/// One cached parent input: the longest trail recorded for it so far.
/// Trails are input-keyed because their witness values depend on the
/// concrete input; the input-independent half (the bit-blasted prefix)
/// lives in the structurally-keyed [`CtxSlot`]s instead.
struct TrailSlot {
    /// The parent path's concrete input (the cache key).
    input: Vec<u8>,
    /// Longest trail recorded for this input so far.
    trail: Vec<TrailEntry>,
    /// Number of branch entries in `trail`.
    branches: usize,
}

/// The bounded, LRU-evicted parent-input → trail half of the cache.
struct TrailCache {
    capacity: usize,
    /// Slab of slots; `None` marks a freed slot awaiting reuse.
    slots: Vec<Option<TrailSlot>>,
    free: Vec<u32>,
    index: HashMap<Vec<u8>, u32>,
    lru: Lru,
}

impl TrailCache {
    fn new(capacity: usize) -> Self {
        TrailCache {
            capacity: capacity.max(1),
            slots: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(),
            lru: Lru::new(),
        }
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    /// Looks `input` up, marking the entry most-recently used on a hit.
    fn lookup(&mut self, input: &[u8]) -> Option<u32> {
        let slot = *self.index.get(input)?;
        self.lru.touch(slot);
        Some(slot)
    }

    fn slot_mut(&mut self, slot: u32) -> &mut TrailSlot {
        self.slots[slot as usize].as_mut().expect("live trail slot")
    }

    /// Inserts a fresh trail for `input` (not resident), evicting the
    /// least-recently-used entry at capacity. Returns the slot id.
    fn insert(&mut self, input: &[u8], trail: Vec<TrailEntry>, branches: usize) -> u32 {
        if self.index.len() >= self.capacity {
            let victim = self.lru.pop_back().expect("capacity >= 1");
            let old = self.slots[victim as usize].take().expect("linked slot");
            self.index.remove(&old.input);
            self.free.push(victim);
        }
        let fresh = TrailSlot {
            input: input.to_vec(),
            trail,
            branches,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(fresh);
                s
            }
            None => {
                self.slots.push(Some(fresh));
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(input.to_vec(), slot);
        self.lru.push_front(slot);
        slot
    }
}

/// One structural region: a promotion counter and (once the region has
/// proven reuse) the retained solver context over its blasted prefix.
struct CtxSlot {
    /// Structural key: the [`DecisionKey`]s of the most recent query's
    /// prefix — every branch direction and every concretization choice.
    /// Adaptive — it follows the last query served, so the entry drifts
    /// with the worker's current subtree.
    key: Vec<DecisionKey>,
    /// Parent input of the most recent query (cross-parent accounting
    /// only; never used for matching).
    last_parent: Vec<u8>,
    /// The retained blasted-prefix solver context. **Lazy**: most
    /// regions see only a few queries, and a context's bookkeeping (op
    /// log, per-query scratch clone) would tax them for nothing — so
    /// early queries solve cold from the cached trail and only the
    /// [`PROMOTE_AFTER_QUERIES`]-exceeding query builds the context.
    ctx: Option<PrefixContext>,
    /// Flip queries routed to this region so far (pooled across sibling
    /// parents — the point of structural keying).
    queries: u32,
    /// Recency stamp for deterministic best-match tie-breaks.
    stamp: u64,
}

/// The bounded, LRU-evicted structural-prefix → context half of the
/// cache.
struct ContextCache {
    capacity: usize,
    slots: Vec<Option<CtxSlot>>,
    free: Vec<u32>,
    lru: Lru,
}

/// Length of the shared leading run of two structural keys.
fn shared_run(a: &[DecisionKey], b: &[DecisionKey]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

impl ContextCache {
    fn new(capacity: usize) -> Self {
        ContextCache {
            capacity: capacity.max(1),
            slots: Vec::new(),
            free: Vec::new(),
            lru: Lru::new(),
        }
    }

    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    fn slot_mut(&mut self, slot: u32) -> &mut CtxSlot {
        self.slots[slot as usize].as_mut().expect("live ctx slot")
    }

    /// Routes a query to the resident entry sharing the longest leading
    /// structural run with `key` (ties to the larger recency stamp —
    /// deterministic), opening a fresh entry when nothing shares at
    /// least one decision. The chosen entry's key is rewritten to `key`
    /// and its recency updated. Returns
    /// `(slot, created, cross_parent_reuse)`.
    fn lookup_or_insert(
        &mut self,
        key: &[DecisionKey],
        input: &[u8],
        tick: u64,
    ) -> (u32, bool, bool) {
        let mut best: Option<(usize, u64, u32)> = None;
        for (s, slot) in self.slots.iter().enumerate() {
            let Some(e) = slot else { continue };
            let share = shared_run(&e.key, key);
            if share == 0 && !(key.is_empty() && e.key.is_empty()) {
                continue;
            }
            if best.map_or(true, |(bs, bst, _)| (share, e.stamp) > (bs, bst)) {
                best = Some((share, e.stamp, s as u32));
            }
        }
        match best {
            Some((_, _, s)) => {
                let e = self.slots[s as usize].as_mut().expect("live ctx slot");
                let cross = e.last_parent != input;
                if cross {
                    e.last_parent.clear();
                    e.last_parent.extend_from_slice(input);
                }
                e.key.clear();
                e.key.extend_from_slice(key);
                e.stamp = tick;
                self.lru.touch(s);
                (s, false, cross)
            }
            None => {
                if self.len() >= self.capacity {
                    let victim = self.lru.pop_back().expect("capacity >= 1");
                    self.slots[victim as usize] = None;
                    self.free.push(victim);
                }
                let fresh = CtxSlot {
                    key: key.to_vec(),
                    last_parent: input.to_vec(),
                    ctx: None,
                    queries: 0,
                    stamp: tick,
                };
                let slot = match self.free.pop() {
                    Some(s) => {
                        self.slots[s as usize] = Some(fresh);
                        s
                    }
                    None => {
                        self.slots.push(Some(fresh));
                        (self.slots.len() - 1) as u32
                    }
                };
                self.lru.push_front(slot);
                (slot, true, false)
            }
        }
    }
}

/// The per-worker warm-start cache of a [`crate::ParallelSession`]: an
/// input-keyed [`TrailCache`] and a structurally-keyed [`ContextCache`]
/// over one shared term manager, each bounded to `capacity` entries with
/// its own O(1) LRU.
pub(crate) struct WarmCache {
    /// One shared term manager for every cached trail and context.
    /// Never reset while the cache lives — hash-consing is what makes
    /// structurally identical prefixes from *different parents* derive
    /// identical term handles, so one retained context can serve them
    /// all. (The former per-parent managers duplicated every shared
    /// prefix per entry; sharing roughly cancels the lifetime growth.)
    tm: TermManager,
    trails: TrailCache,
    contexts: ContextCache,
    tick: u64,
}

impl WarmCache {
    /// Creates an empty cache; each half is bounded to `capacity`.
    pub(crate) fn new(capacity: usize) -> Self {
        WarmCache {
            tm: TermManager::new(),
            trails: TrailCache::new(capacity),
            contexts: ContextCache::new(capacity),
            tick: 0,
        }
    }

    /// Discharges the flip query of one prescription through the cache,
    /// with the same contract as cold replay's [`crate::backend::discharge`]:
    /// returns the query result (`None` when the static gate eliminated
    /// the query) and the witness input bytes on SAT. A query that reaches
    /// a solver fires [`Observer::on_query`] and then
    /// [`Observer::on_warm_query`] with its cache accounting.
    ///
    /// The gate screens *before* the promotion counter ticks: an
    /// eliminated query does not advance a parent toward context
    /// promotion — promotion affects wall time only, so this cannot
    /// change results.
    ///
    /// Results are bit-identical to the cache-off replay of the same
    /// prescription (see the [module docs](self)).
    ///
    /// # Errors
    /// The same errors cache-off replay produces (execution failure,
    /// fuel exhaustion, [`Error::ReplayDivergence`]), plus
    /// [`Error::WarmStart`] for broken solver invariants. A *corrupted
    /// cached context* (stale/foreign frame) is not an error here: the
    /// context is discarded and the query falls back to the cold solve,
    /// whose answer is bit-identical — so even that failure mode cannot
    /// change results.
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
        self.tick += 1;
        let tick = self.tick;
        let pos = self.trails.lookup(input);
        let hit = pos.is_some();
        let mut replayed = false;
        let slot = match pos {
            Some(s) => {
                if self.trails.slot_mut(s).branches <= flip.ord {
                    // The cached trail is too shallow for this flip:
                    // execute deeper on the shared term manager
                    // (hash-consing reproduces the shared prefix's
                    // handles exactly).
                    let replay_started = instr.begin(Phase::Replay);
                    let trail = executor.execute_prefix(&mut self.tm, input, fuel, flip.ord + 1);
                    instr.finish(replay_started, Phase::Replay, observer);
                    let trail = trail?;
                    let e = self.trails.slot_mut(s);
                    e.branches = trail.iter().filter(|t| t.is_branch()).count();
                    e.trail = trail;
                    replayed = true;
                }
                s
            }
            None => {
                let replay_started = instr.begin(Phase::Replay);
                let trail = executor.execute_prefix(&mut self.tm, input, fuel, flip.ord + 1);
                instr.finish(replay_started, Phase::Replay, observer);
                let trail = trail?;
                replayed = true;
                let branches = trail.iter().filter(|t| t.is_branch()).count();
                self.trails.insert(input, trail, branches)
            }
        };
        let WarmCache {
            tm,
            trails,
            contexts,
            ..
        } = self;
        let trail = &trails.slot_mut(slot).trail;
        let (prefix, flipped) = flip.query(trail, tm)?;
        if gate.eliminates(tm, &prefix, flipped, instr, observer) {
            return Ok((None, None));
        }
        // The input-independent structural identity of this query's
        // prefix: the context cache routes on it. Every trail entry keys —
        // concretization choices included, since a pin is part of the path
        // condition exactly like a branch direction.
        let skey: Vec<DecisionKey> = trail[..prefix.len()].iter().map(DecisionKey::of).collect();
        let (cslot, created, cross_parent) = contexts.lookup_or_insert(&skey, input, tick);
        let centry = contexts.slot_mut(cslot);
        let promote = centry.queries >= PROMOTE_AFTER_QUERIES;
        centry.queries += 1;
        let ctx = &mut centry.ctx;
        let mut warm_result = None;
        if ctx.is_some() || promote {
            // Proven reuse: solve through the retained prefix context
            // (built once the region exceeds the promotion gate). The
            // promoting query — the one that builds the context and blasts
            // the whole prefix into it — is timed as `WarmPromote`; later
            // queries riding the retained context are `WarmSolve`.
            let promoting = ctx.is_none();
            let c = ctx.get_or_insert_with(PrefixContext::new);
            let phase = if promoting {
                Phase::WarmPromote
            } else {
                Phase::WarmSolve
            };
            let warm_started = instr.begin(phase);
            let solved = c.solve_flip(tm, &prefix, flipped);
            let warm_nanos = instr.finish(warm_started, phase, observer);
            match solved {
                Ok(report) => {
                    if warm_started.is_some() {
                        instr.record_query(warm_nanos);
                    }
                    warm_result = Some((
                        report.result,
                        report.reused as u64,
                        report.blasted as u64,
                        c.model(tm),
                    ));
                }
                Err(_) => {
                    // A corrupted context (stale/foreign frame) must not
                    // change results: discard it and fall through to the
                    // cold solve, which answers bit-identically. The
                    // determinism invariant survives even the failure
                    // mode the typed errors exist for.
                    instr.instant("warm_rollback");
                    *ctx = None;
                }
            }
        }
        let (result, reused, blasted, model) = match warm_result {
            Some(r) => r,
            None => {
                // Unpromoted parent (or discarded context): cold replay's
                // solve step on a fresh solver, from the cached trail — the
                // exact cache-off op sequence minus the prefix
                // re-execution, with none of a context's bookkeeping (most
                // parents are queried only once or twice and would never
                // amortize it).
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
            context_key_created: created,
            cross_parent_reuse: cross_parent,
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

    /// Number of resident structural context entries.
    #[cfg(test)]
    pub(crate) fn context_len(&self) -> usize {
        self.contexts.len()
    }

    /// Parent inputs currently resident in the trail cache, least
    /// recently used first (test observability for the eviction order).
    #[cfg(test)]
    pub(crate) fn resident_inputs_lru_first(&self) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let mut s = self.trails.lru.tail;
        while s != NIL {
            out.push(
                self.trails.slots[s as usize]
                    .as_ref()
                    .expect("linked slot")
                    .input
                    .clone(),
            );
            s = self.trails.lru.prev[s as usize];
        }
        out
    }
}

impl std::fmt::Debug for WarmCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarmCache")
            .field("trail_capacity", &self.trails.capacity)
            .field("trails_resident", &self.trails.len())
            .field("context_capacity", &self.contexts.capacity)
            .field("contexts_resident", &self.contexts.len())
            .finish()
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
        assert!(!first.cache_hit, "first query builds the context");
        assert!(!first.replay_skipped, "first query executes the prefix");
        let (_, _, second) =
            warm_solve(&mut cache, &mut exec, &[0, 0, 0], flips[1]).expect("solves");
        assert!(second.cache_hit, "sibling reuses the cached trail");
        assert!(second.replay_skipped, "sibling skips the re-execution");
        // The PROMOTE_AFTER_QUERIES-exceeding query promotes the parent
        // to a retained context (the prefix is blasted into it); the one
        // after is pure context reuse.
        for _ in 2..=PROMOTE_AFTER_QUERIES {
            let (_, _, s) =
                warm_solve(&mut cache, &mut exec, &[0, 0, 0], flips[1]).expect("solves");
            assert_eq!(s.prefix_reused, 0, "unpromoted queries solve cold");
        }
        let (_, _, promoting) =
            warm_solve(&mut cache, &mut exec, &[0, 0, 0], flips[1]).expect("solves");
        assert!(promoting.cache_hit);
        let (_, _, reusing) =
            warm_solve(&mut cache, &mut exec, &[0, 0, 0], flips[1]).expect("solves");
        assert!(reusing.cache_hit);
        assert!(reusing.replay_skipped);
        assert!(reusing.prefix_reused >= promoting.prefix_reused);
        assert_eq!(reusing.prefix_blasted, 0, "same prefix: pure reuse");
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
        assert!(first.context_key_created, "first query opens the region");
        assert!(!first.cross_parent_reuse);
        // Pool queries on the region through parent `a` until promotion.
        for _ in 1..=PROMOTE_AFTER_QUERIES {
            warm_solve(&mut cache, &mut exec, a, fa).expect("ok");
        }
        assert_eq!(cache.context_len(), 1, "one structural region");
        // Parent `b` rides the context parent `a` promoted: the full
        // prefix is served from the retained bit-blast and the answer is
        // still bit-identical to a cold replay of `b`.
        let (r, bytes, s) = warm_solve(&mut cache, &mut exec, b, fb).expect("ok");
        assert!(!s.context_key_created, "same structural key: no new region");
        assert!(s.cross_parent_reuse, "a context built by `a` served `b`");
        assert!(s.prefix_reused > 0, "cross-parent bit-blast reuse");
        assert_eq!(s.prefix_blasted, 0, "identical prefix: nothing re-blasted");
        assert_eq!(cache.context_len(), 1, "still one region");
        let (cold_r, cold_bytes) = cold_solve(&mut exec, b, fb);
        assert_eq!(r, cold_r);
        assert_eq!(bytes, cold_bytes, "bit-identical witness across parents");
        // A structurally different parent (first compare falls the other
        // way) opens its own region instead of riding this one.
        let c: &[u8] = &[200, 0, 0];
        let fc = flips_of(&mut exec, c)[1];
        let (_, _, sc) = warm_solve(&mut cache, &mut exec, c, fc).expect("ok");
        assert!(sc.context_key_created, "divergent prefix: new region");
        assert_eq!(cache.context_len(), 2);
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
