//! A CDCL SAT solver in the MiniSat lineage.
//!
//! Features: two-watched-literal propagation, VSIDS decision heuristic with
//! an indexed max-heap, first-UIP conflict analysis with clause learning,
//! phase saving, Luby restarts, and activity-based learnt-clause database
//! reduction. Solving is *incremental*: clauses persist across calls and
//! queries are posed under assumptions, which is how the SMT layer poses a
//! flip query without retaining it.
//!
//! Values are stored per literal: two entries per variable, both written by
//! `enqueue` and cleared by `backtrack`, so propagation reads a literal's
//! value with one load and no sign test.
//!
//! A satisfiable query assigns every variable, including the Tseitin
//! variables of terms blasted for earlier queries. Once the trail holds all
//! of them, `decide` empties the VSIDS heap in one pass instead of popping
//! it. The search cannot tell: each pop would return an assigned variable
//! for `decide` to discard, the pops would end in the same empty heap, and
//! neither touches the activities, phases or trail from which `backtrack`
//! refills it.
//!
//! A solver made by [`SatSolver::with_op_log`] stamps every construction
//! operation (variable allocation, clause addition) with a version, so it
//! can hand out checkpoints and roll back to them. Rollback only
//! truncates: until a search runs or a propagation moves a watch, the
//! clause store, the watch lists and the heap only grow, so cutting them
//! back to a checkpoint's lengths leaves exactly the state a fresh
//! construction of the same operations builds. A solver that is no longer
//! append-only refuses with [`RollbackError::NotPristine`]; the
//! warm-start prefix contexts never search on their retained solver, and
//! their owner answers a refusal with a fresh context.
//!
//! The solver is deliberately free of unsafe code; the workloads produced by
//! bit-blasting the paper's benchmarks (a few thousand variables) are well
//! within its comfort zone.

use std::fmt;

/// A propositional variable, numbered from 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

/// A literal: a variable together with a polarity.
///
/// Encoded as `var << 1 | negated`, so `lit.var()` and `lit.is_neg()` are
/// bit operations and literals index watch lists directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// Negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit((v.0 << 1) | 1)
    }

    /// Creates a literal with an explicit sign (`true` = negated).
    pub fn new(v: Var, negated: bool) -> Lit {
        Lit((v.0 << 1) | u32::from(negated))
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// True if the literal is negated.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// Index usable for watch lists (0..2*nvars).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_neg() {
            write!(f, "-{}", self.var().0 + 1)
        } else {
            write!(f, "{}", self.var().0 + 1)
        }
    }
}

/// Ternary assignment value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LBool {
    True,
    False,
    Undef,
}

/// Result of a satisfiability query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// A satisfying assignment exists (and is available via `value`).
    Sat,
    /// No satisfying assignment exists under the given assumptions.
    Unsat,
}

/// Per-clause metadata; the literals live in the [`ClauseStore`] arena at
/// `off..off + len`.
#[derive(Debug, Clone, Copy)]
struct ClauseHeader {
    off: u32,
    len: u32,
    learnt: bool,
    activity: f64,
}

/// Flat clause storage: one shared literal arena plus (offset, length)
/// headers, replacing the former `Vec<Clause{lits: Vec<Lit>}>`. Cloning
/// the whole database — the warm-start path's per-flip scratch clone —
/// is two `memcpy`s instead of one small-`Vec` clone per clause.
///
/// Clauses are appended in arena order and only ever removed from the
/// tail ([`ClauseStore::truncate`], used by rollback) or by a full
/// compacting rebuild (`reduce_db`), so the arena never fragments.
#[derive(Debug, Default, Clone)]
struct ClauseStore {
    arena: Vec<Lit>,
    headers: Vec<ClauseHeader>,
}

impl ClauseStore {
    fn len(&self) -> usize {
        self.headers.len()
    }

    fn push(&mut self, lits: &[Lit], learnt: bool, activity: f64) -> u32 {
        let idx = self.headers.len() as u32;
        let off = self.arena.len() as u32;
        self.arena.extend_from_slice(lits);
        self.headers.push(ClauseHeader {
            off,
            len: lits.len() as u32,
            learnt,
            activity,
        });
        idx
    }

    fn lits(&self, ci: usize) -> &[Lit] {
        let h = self.headers[ci];
        &self.arena[h.off as usize..(h.off + h.len) as usize]
    }

    fn is_learnt(&self, ci: usize) -> bool {
        self.headers[ci].learnt
    }

    fn activity(&self, ci: usize) -> f64 {
        self.headers[ci].activity
    }

    fn add_activity(&mut self, ci: usize, inc: f64) {
        self.headers[ci].activity += inc;
    }

    fn scale_learnt_activities(&mut self, factor: f64) {
        for h in self.headers.iter_mut().filter(|h| h.learnt) {
            h.activity *= factor;
        }
    }

    /// Drops every clause `>= n` (tail-only, in arena order).
    fn truncate(&mut self, n: usize) {
        let end = match n {
            0 => 0,
            _ => {
                let h = self.headers[n - 1];
                (h.off + h.len) as usize
            }
        };
        self.headers.truncate(n);
        self.arena.truncate(end);
    }
}

/// One watch-list entry: a clause watching the list's literal, with a
/// literal of the clause whose truth lets propagation skip it.
#[derive(Debug, Clone, Copy)]
struct Watch {
    clause: u32,
    blocker: Lit,
}

/// One literal's watch list inside the [`WatchLists`] arena: a segment of
/// `data` at `start..start + cap`, of which the first `len` are live.
#[derive(Debug, Default, Clone, Copy)]
struct WatchSeg {
    start: u32,
    len: u32,
    cap: u32,
}

/// Flattened watch lists: one `Watch` arena plus a per-literal segment
/// table, replacing the former `Vec<Vec<Watch>>` (one heap allocation per
/// literal). Cloning — again the per-flip scratch-clone hot path — is two
/// `memcpy`s.
///
/// A list that outgrows its segment relocates to the arena tail with
/// doubled capacity (preserving order); the hole it leaves is reclaimed
/// lazily when a rollback truncates the arena past it. Capacity doubling
/// bounds the total hole volume by the live volume, so the arena stays
/// within a small constant of a perfectly compact layout.
#[derive(Debug, Default, Clone)]
struct WatchLists {
    data: Vec<Watch>,
    segs: Vec<WatchSeg>,
}

impl WatchLists {
    const DUMMY: Watch = Watch {
        clause: u32::MAX,
        blocker: Lit(u32::MAX),
    };

    /// Grows the table to `n` lists (new lists empty).
    fn grow_lists(&mut self, n: usize) {
        self.segs.resize(n, WatchSeg::default());
    }

    fn push(&mut self, l: Lit, w: Watch) {
        let idx = l.index();
        let seg = self.segs[idx];
        if seg.len == seg.cap {
            // Relocate to the tail with doubled capacity, preserving
            // order (order determines propagation order and therefore
            // learnt clauses and models — it must never change).
            let new_cap = (seg.cap * 2).max(4);
            let new_start = self.data.len() as u32;
            for i in 0..seg.len {
                let live = self.data[(seg.start + i) as usize];
                self.data.push(live);
            }
            self.data
                .resize(new_start as usize + new_cap as usize, Self::DUMMY);
            self.segs[idx] = WatchSeg {
                start: new_start,
                len: seg.len,
                cap: new_cap,
            };
        }
        let seg = &mut self.segs[idx];
        self.data[(seg.start + seg.len) as usize] = w;
        seg.len += 1;
    }

    fn pop(&mut self, l: Lit) -> Option<Watch> {
        let seg = &mut self.segs[l.index()];
        if seg.len == 0 {
            return None;
        }
        seg.len -= 1;
        Some(self.data[(seg.start + seg.len) as usize])
    }

    /// Removes entry `i` of the list ending at `end`, moving the last entry
    /// into its place, and returns the new end.
    fn swap_remove(&mut self, i: usize, end: usize) -> usize {
        self.data.swap(i, end - 1);
        end - 1
    }

    /// Drops every list `>= n` and reclaims the arena tail past the last
    /// surviving segment (relocation holes below it are kept — they are
    /// bounded by capacity doubling and vanish at the next truncation
    /// below them).
    fn truncate_lists(&mut self, n: usize) {
        self.segs.truncate(n);
        let end = self.segs.iter().map(|s| s.start + s.cap).max().unwrap_or(0);
        self.data.truncate(end as usize);
    }

    /// In-place per-list `retain` + clause-index remap (order-preserving)
    /// for learnt-clause reduction: a watch of clause `c` becomes a watch of
    /// `map[c]`, or goes away when `map[c]` is `None`.
    fn retain_remap(&mut self, map: &[Option<u32>]) {
        for si in 0..self.segs.len() {
            let seg = self.segs[si];
            let start = seg.start as usize;
            let mut live = start;
            for r in start..start + seg.len as usize {
                let mut watch = self.data[r];
                if let Some(ni) = map[watch.clause as usize] {
                    watch.clause = ni;
                    self.data[live] = watch;
                    live += 1;
                }
            }
            self.segs[si].len = (live - start) as u32;
        }
    }
}

/// Indexed max-heap over variable activities (the VSIDS order).
#[derive(Debug, Default, Clone)]
struct VarHeap {
    heap: Vec<Var>,
    /// Position of each variable in `heap`, or [`VarHeap::ABSENT`].
    pos: Vec<u32>,
}

impl VarHeap {
    const ABSENT: u32 = u32::MAX;

    fn grow(&mut self, nvars: usize) {
        self.pos.resize(nvars, Self::ABSENT);
    }

    fn push(&mut self, v: Var, act: &[f64]) {
        if self.pos[v.0 as usize] != Self::ABSENT {
            return;
        }
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn pop(&mut self, act: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("nonempty");
        self.pos[top.0 as usize] = Self::ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0, act);
        }
        Some(top)
    }

    /// Removes every variable: the state that popping until empty leaves.
    fn clear(&mut self) {
        for v in self.heap.drain(..) {
            self.pos[v.0 as usize] = Self::ABSENT;
        }
    }

    fn update(&mut self, v: Var, act: &[f64]) {
        let i = self.pos[v.0 as usize];
        if i != Self::ABSENT {
            self.sift_up(i as usize, act);
        }
    }

    /// Moves the variable at `i` up past every parent of lower activity,
    /// shifting those parents down into the hole it leaves.
    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let pv = self.heap[parent];
            if act[v.0 as usize] <= act[pv.0 as usize] {
                break;
            }
            self.place(pv, i);
            i = parent;
        }
        self.place(v, i);
    }

    /// Moves the variable at `i` down past every larger child, shifting
    /// the larger child up into the hole at each level.
    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        let v = self.heap[i];
        loop {
            let mut child = 2 * i + 1;
            if child >= self.heap.len() {
                break;
            }
            let r = child + 1;
            if r < self.heap.len()
                && act[self.heap[r].0 as usize] > act[self.heap[child].0 as usize]
            {
                child = r;
            }
            let cv = self.heap[child];
            if act[cv.0 as usize] <= act[v.0 as usize] {
                break;
            }
            self.place(cv, i);
            i = child;
        }
        self.place(v, i);
    }

    fn place(&mut self, v: Var, i: usize) {
        self.heap[i] = v;
        self.pos[v.0 as usize] = i as u32;
    }

    /// Drops every variable `>= nvars`, preserving the relative order of
    /// the survivors (exact for rollback: with untouched zero activities
    /// the heap array is plain insertion order, which a fresh construction
    /// reproduces).
    fn truncate_vars(&mut self, nvars: usize) {
        self.heap.retain(|v| (v.0 as usize) < nvars);
        self.pos.truncate(nvars);
        for (i, v) in self.heap.iter().enumerate() {
            self.pos[v.0 as usize] = i as u32;
        }
    }
}

/// Opaque handle to a construction point of an op-logged [`SatSolver`].
///
/// Obtained from [`SatSolver::checkpoint`]; passing it to
/// [`SatSolver::rollback`] returns a pristine solver to a state
/// **bit-identical** to a fresh solver that performed only the
/// construction operations (variable allocations and clause additions) up
/// to the checkpoint. A checkpoint stays valid as long as its operations
/// survive; rolling back past it invalidates it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SatCheckpoint {
    /// Instance id of the solver that issued the checkpoint.
    solver: u64,
    /// Number of construction operations the checkpoint denotes.
    ops: usize,
    /// Version counter at issue time: every operation the checkpoint
    /// denotes must carry an older version, or they were truncated and
    /// regrown with different content after this checkpoint was issued —
    /// which makes it stale even when the counts coincide again.
    version: u64,
    /// Snapshot of the growth-only lengths and flags at checkpoint time,
    /// which rollback truncates back to.
    vars: usize,
    clauses: usize,
    trail: usize,
    unsat: bool,
    /// Statistics snapshot, so rollback restores the counters a fresh
    /// construction would show.
    stats: SatStats,
}

/// Why a checkpoint operation could not be performed.
///
/// These conditions are engine bugs (a stale or foreign checkpoint) or a
/// retained solver that is no longer pristine, so they surface as typed
/// errors rather than panics: the warm-start cache runs on worker threads,
/// where a panic would poison the whole exploration instead of failing one
/// prescription.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RollbackError {
    /// The solver was not created with [`SatSolver::with_op_log`].
    LogDisabled,
    /// The checkpoint was issued by a different solver instance.
    ForeignCheckpoint,
    /// The checkpoint denotes operations that no longer survive (it was
    /// invalidated by an earlier rollback).
    StaleCheckpoint,
    /// The solver is no longer construct-only since the checkpoint: a
    /// search ran on it, or propagation moved a watch or assigned a
    /// variable the checkpoint keeps, so truncation would not restore the
    /// checkpoint's state exactly. The solver is left unchanged.
    NotPristine,
}

impl fmt::Display for RollbackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RollbackError::LogDisabled => write!(f, "solver has no op log"),
            RollbackError::ForeignCheckpoint => {
                write!(f, "checkpoint was issued by a different solver")
            }
            RollbackError::StaleCheckpoint => {
                write!(f, "checkpoint was invalidated by an earlier rollback")
            }
            RollbackError::NotPristine => {
                write!(f, "solver was searched or propagated past the checkpoint")
            }
        }
    }
}

impl std::error::Error for RollbackError {}

/// Statistics counters exposed for benchmarking and tests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SatStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently in the database.
    pub learnts: u64,
}

/// The CDCL solver.
///
/// # Example
/// ```
/// use binsym_smt::sat::{Lit, SatResult, SatSolver, Var};
///
/// let mut s = SatSolver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
/// s.add_clause(&[Lit::neg(a)]);
/// assert_eq!(s.solve(&[]), SatResult::Sat);
/// assert_eq!(s.value(b), Some(true));
/// ```
#[derive(Debug)]
pub struct SatSolver {
    clauses: ClauseStore,
    watches: WatchLists, // one list per Lit::index
    vals: Vec<LBool>,    // one value per Lit::index
    phase: Vec<bool>,
    reason: Vec<Option<u32>>,
    level: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<u32>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    heap: VarHeap,
    seen: Vec<bool>,
    /// `add_clause`'s scratch buffer for the simplified clause.
    add_buf: Vec<Lit>,
    unsat: bool, // became unsat at level 0
    stats: SatStats,
    max_learnts: f64,
    /// Instance id tying checkpoints to the solver that issued them
    /// (0 = unlogged: no checkpoints, no rollback).
    log_id: u64,
    /// One append version per construction operation of a logged solver,
    /// from the monotone `log_version` counter: lets
    /// [`SatSolver::rollback`] detect a checkpoint whose operations were
    /// truncated and regrown (same count, different operations) instead of
    /// silently restoring the wrong state.
    op_versions: Vec<u64>,
    /// Next value of the append-version counter (never reset).
    log_version: u64,
    /// True once [`SatSolver::solve`] has run: search perturbs activities,
    /// phases, and the heap, so rollback is refused from then on.
    solved: bool,
    /// True once unit propagation has modified any watch list (moved a
    /// watch, updated a blocker): pre-existing lists are then no longer
    /// append-only, so truncation would not restore them exactly. Stays
    /// false through normal clause construction.
    watches_perturbed: bool,
}

/// Monotonic instance ids for op-logged solvers, so a checkpoint handed to
/// the wrong solver is detected instead of silently truncating an
/// unrelated one.
static NEXT_LOG_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

const VAR_DECAY: f64 = 0.95;
const CLA_DECAY: f64 = 0.999;
const RESCALE_LIMIT: f64 = 1e100;

impl Default for SatSolver {
    fn default() -> Self {
        SatSolver::new()
    }
}

impl SatSolver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        SatSolver {
            clauses: ClauseStore::default(),
            watches: WatchLists::default(),
            vals: Vec::new(),
            phase: Vec::new(),
            reason: Vec::new(),
            level: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            heap: VarHeap::default(),
            seen: Vec::new(),
            add_buf: Vec::new(),
            unsat: false,
            stats: SatStats::default(),
            max_learnts: 3000.0,
            log_id: 0,
            op_versions: Vec::new(),
            log_version: 0,
            solved: false,
            watches_perturbed: false,
        }
    }

    /// Creates an empty solver that versions its construction operations
    /// (variable allocations and clause additions), enabling
    /// [`SatSolver::checkpoint`] / [`SatSolver::rollback`].
    ///
    /// The log costs one version stamp per operation; use it only where
    /// rollback is actually needed (the warm-start prefix contexts).
    pub fn with_op_log() -> Self {
        let mut s = SatSolver::new();
        s.log_id = NEXT_LOG_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        s
    }

    /// A checkpoint denoting the construction operations performed so far.
    ///
    /// # Errors
    /// [`RollbackError::LogDisabled`] unless the solver was created with
    /// [`SatSolver::with_op_log`].
    pub fn checkpoint(&self) -> Result<SatCheckpoint, RollbackError> {
        if self.log_id == 0 {
            return Err(RollbackError::LogDisabled);
        }
        Ok(SatCheckpoint {
            solver: self.log_id,
            ops: self.op_versions.len(),
            version: self.log_version,
            vars: self.num_vars(),
            clauses: self.clauses.len(),
            trail: self.trail.len(),
            unsat: self.unsat,
            stats: self.stats,
        })
    }

    /// Returns a pristine solver to the state of `cp`.
    ///
    /// The resulting state is *bit-identical* to a brand-new solver that
    /// performed exactly the construction operations up to the checkpoint:
    /// later clauses and variables are gone, and a solve after `rollback`
    /// behaves exactly like a solve on that fresh solver. A solver that was
    /// never solved on and whose watch lists were never perturbed by
    /// propagation is still an append-only structure, so rolling back is
    /// an O(removed) truncation. The warm-start prefix contexts keep their
    /// retained solver that way: they shrink it to a depth-first sibling's
    /// shorter prefix on almost every query and solve only on clones.
    ///
    /// # Errors
    /// [`RollbackError`] when the solver has no op log, the checkpoint is
    /// stale or foreign, or the solver is no longer pristine
    /// ([`RollbackError::NotPristine`]); the solver is left unchanged.
    pub fn rollback(&mut self, cp: &SatCheckpoint) -> Result<(), RollbackError> {
        if self.log_id == 0 {
            return Err(RollbackError::LogDisabled);
        }
        if cp.solver != self.log_id {
            return Err(RollbackError::ForeignCheckpoint);
        }
        if cp.ops > self.op_versions.len() {
            return Err(RollbackError::StaleCheckpoint);
        }
        // A prefix of the right length is not enough: if an earlier
        // rollback truncated below `cp.ops` and the solver regrew, the ops
        // now in the prefix are different (newer) than the ones the
        // checkpoint denoted — restoring them would be silently wrong.
        if cp.ops > 0 && self.op_versions[cp.ops - 1] >= cp.version {
            return Err(RollbackError::StaleCheckpoint);
        }
        if !self.truncation_applies(cp) {
            return Err(RollbackError::NotPristine);
        }
        self.truncate_to(cp);
        self.op_versions.truncate(cp.ops);
        Ok(())
    }

    /// True when truncation restores `cp`'s state exactly: the solver is
    /// pristine (never solved, watch lists append-only, no decision
    /// levels), nothing shrank below the checkpoint counters, and every
    /// assignment made since the checkpoint binds a variable that the
    /// truncation removes wholesale.
    fn truncation_applies(&self, cp: &SatCheckpoint) -> bool {
        !self.solved
            && !self.watches_perturbed
            && self.trail_lim.is_empty()
            && cp.vars <= self.num_vars()
            && cp.clauses <= self.clauses.len()
            && cp.trail <= self.trail.len()
            && self.trail[cp.trail..]
                .iter()
                .all(|l| (l.var().0 as usize) >= cp.vars)
    }

    /// The truncation behind [`SatSolver::rollback`]: pops the watches of
    /// removed clauses (append-only lists, removed in reverse attach order,
    /// so each sits at its list's tail) and truncates every growth-only
    /// structure.
    fn truncate_to(&mut self, cp: &SatCheckpoint) {
        // `!self.solved` (checked by the caller) implies no learnt
        // clauses: they are only ever attached inside `solve`.
        debug_assert!((0..self.clauses.len()).all(|ci| !self.clauses.is_learnt(ci)));
        for ci in (cp.clauses..self.clauses.len()).rev() {
            let w0 = self.clauses.lits(ci)[0];
            let w1 = self.clauses.lits(ci)[1];
            let a = self.watches.pop(!w0);
            let b = self.watches.pop(!w1);
            debug_assert_eq!(a.map(|w| w.clause), Some(ci as u32), "append-only watches");
            debug_assert_eq!(b.map(|w| w.clause), Some(ci as u32), "append-only watches");
        }
        self.clauses.truncate(cp.clauses);
        self.trail.truncate(cp.trail);
        self.qhead = self.trail.len();
        self.vals.truncate(2 * cp.vars);
        self.phase.truncate(cp.vars);
        self.reason.truncate(cp.vars);
        self.level.truncate(cp.vars);
        self.activity.truncate(cp.vars);
        self.seen.truncate(cp.vars);
        self.watches.truncate_lists(2 * cp.vars);
        self.heap.truncate_vars(cp.vars);
        self.unsat = cp.unsat;
        self.stats = cp.stats;
    }

    /// A clone sharing the full solver state but carrying no op log — the
    /// scratch instance the warm-start path layers a flip query on, leaving
    /// the logged context untouched.
    pub fn clone_unlogged(&self) -> SatSolver {
        SatSolver {
            clauses: self.clauses.clone(),
            watches: self.watches.clone(),
            vals: self.vals.clone(),
            phase: self.phase.clone(),
            reason: self.reason.clone(),
            level: self.level.clone(),
            trail: self.trail.clone(),
            trail_lim: self.trail_lim.clone(),
            qhead: self.qhead,
            activity: self.activity.clone(),
            var_inc: self.var_inc,
            cla_inc: self.cla_inc,
            heap: self.heap.clone(),
            seen: self.seen.clone(),
            add_buf: Vec::new(),
            unsat: self.unsat,
            stats: self.stats,
            max_learnts: self.max_learnts,
            log_id: 0,
            op_versions: Vec::new(),
            log_version: 0,
            solved: self.solved,
            watches_perturbed: self.watches_perturbed,
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vals.len() / 2
    }

    /// Number of problem (non-learnt) clauses.
    pub fn num_clauses(&self) -> usize {
        (0..self.clauses.len())
            .filter(|&ci| !self.clauses.is_learnt(ci))
            .count()
    }

    /// Solver statistics.
    pub fn stats(&self) -> SatStats {
        self.stats
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        self.log_op();
        let v = Var(self.num_vars() as u32);
        self.vals.extend([LBool::Undef; 2]);
        self.phase.push(false);
        self.reason.push(None);
        self.level.push(0);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.grow_lists(self.vals.len());
        self.heap.grow(self.num_vars());
        self.heap.push(v, &self.activity);
        v
    }

    /// Stamps one construction operation of a logged solver.
    fn log_op(&mut self) {
        if self.log_id != 0 {
            self.op_versions.push(self.log_version);
            self.log_version += 1;
        }
    }

    fn lit_value(&self, l: Lit) -> LBool {
        self.vals[l.index()]
    }

    /// Value of `v` in the model found by the last successful [`SatSolver::solve`].
    ///
    /// Returns `None` for unassigned variables (possible for variables that
    /// do not influence satisfiability).
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.lit_value(Lit::pos(v)) {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }

    /// Adds a clause. An empty (or all-false at level 0) clause makes the
    /// instance permanently unsatisfiable.
    ///
    /// Must be called with the solver at decision level 0 (it always is
    /// between [`SatSolver::solve`] calls).
    pub fn add_clause(&mut self, lits: &[Lit]) {
        self.log_op();
        // Adding clauses invalidates any model found by a previous solve;
        // return to decision level 0 first.
        self.backtrack(0);
        if self.unsat {
            return;
        }
        // Simplify into the reusable buffer: dedupe, drop false literals,
        // and add nothing for a satisfied clause or a tautology.
        let mut c = std::mem::take(&mut self.add_buf);
        c.clear();
        let keep = lits.iter().all(|&l| match self.lit_value(l) {
            LBool::True => false,
            LBool::False => true,
            LBool::Undef if c.contains(&!l) => false,
            LBool::Undef => {
                if !c.contains(&l) {
                    c.push(l);
                }
                true
            }
        });
        match c.len() {
            _ if !keep => {}
            0 => self.unsat = true,
            1 => {
                self.enqueue(c[0], None);
                if self.propagate().is_some() {
                    self.unsat = true;
                }
            }
            _ => {
                self.attach_clause(&c, false);
            }
        }
        self.add_buf = c;
    }

    fn attach_clause(&mut self, lits: &[Lit], learnt: bool) -> u32 {
        debug_assert!(lits.len() >= 2);
        let w0 = lits[0];
        let w1 = lits[1];
        let idx = self.clauses.push(lits, learnt, 0.0);
        self.watches.push(
            !w0,
            Watch {
                clause: idx,
                blocker: w1,
            },
        );
        self.watches.push(
            !w1,
            Watch {
                clause: idx,
                blocker: w0,
            },
        );
        if learnt {
            self.stats.learnts += 1;
        }
        idx
    }

    fn enqueue(&mut self, l: Lit, reason: Option<u32>) {
        debug_assert_eq!(self.lit_value(l), LBool::Undef);
        let v = l.var().0 as usize;
        self.vals[l.index()] = LBool::True;
        self.vals[(!l).index()] = LBool::False;
        self.phase[v] = !l.is_neg();
        self.reason[v] = reason;
        self.level[v] = self.decision_level();
        self.trail.push(l);
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Unit propagation; returns the index of a conflicting clause, if any.
    ///
    /// Iterates `p`'s watch list in place: a moved watch is pushed onto
    /// `!l`'s list, and `l == !p` is impossible there (`l` is non-false
    /// while `!p` is false), so no push can ever relocate or grow the list
    /// being iterated. Its segment start, read once, stays valid throughout,
    /// and its length is kept in `end` and stored back after the walk.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let seg = self.watches.segs[p.index()];
            let mut i = seg.start as usize;
            let mut end = i + seg.len as usize;
            let mut conflict: Option<u32> = None;
            'watches: while i < end {
                let w = self.watches.data[i];
                // Quick check: blocker already true?
                if self.vals[w.blocker.index()] == LBool::True {
                    i += 1;
                    continue;
                }
                let h = self.clauses.headers[w.clause as usize];
                let lits = &mut self.clauses.arena[h.off as usize..(h.off + h.len) as usize];
                // Ensure the false literal (!p) is at position 1.
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                    self.watches_perturbed = true;
                }
                debug_assert_eq!(lits[1], false_lit);
                let first = lits[0];
                if first != w.blocker && self.vals[first.index()] == LBool::True {
                    self.watches.data[i].blocker = first;
                    self.watches_perturbed = true;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..lits.len() {
                    let l = lits[k];
                    if self.vals[l.index()] != LBool::False {
                        lits.swap(1, k);
                        self.watches.push(
                            !l,
                            Watch {
                                clause: w.clause,
                                blocker: first,
                            },
                        );
                        end = self.watches.swap_remove(i, end);
                        self.watches_perturbed = true;
                        continue 'watches;
                    }
                }
                // Clause is unit or conflicting.
                self.watches.data[i].blocker = first;
                self.watches_perturbed = true;
                if self.vals[first.index()] == LBool::False {
                    conflict = Some(w.clause);
                    self.qhead = self.trail.len();
                    break;
                }
                self.enqueue(first, Some(w.clause));
                i += 1;
            }
            self.watches.segs[p.index()].len = (end - seg.start as usize) as u32;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        let a = &mut self.activity[v.0 as usize];
        *a += self.var_inc;
        if *a > RESCALE_LIMIT {
            for x in &mut self.activity {
                *x *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.update(v, &self.activity);
    }

    fn bump_clause(&mut self, ci: usize) {
        if !self.clauses.is_learnt(ci) {
            return;
        }
        self.clauses.add_activity(ci, self.cla_inc);
        if self.clauses.activity(ci) > RESCALE_LIMIT {
            self.clauses.scale_learnt_activities(1e-100);
            self.cla_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis. Returns (learnt clause, backtrack level).
    fn analyze(&mut self, confl: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot for the asserting literal
        let mut counter = 0u32;
        let mut p: Option<Lit> = None;
        let mut clause = confl;
        let mut index = self.trail.len();

        loop {
            self.bump_clause(clause as usize);
            let lits: Vec<Lit> = self.clauses.lits(clause as usize).to_vec();
            let start = usize::from(p.is_some());
            for &q in &lits[start..] {
                let v = q.var().0 as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(q.var());
                    if self.level[v] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select next literal to look at.
            loop {
                index -= 1;
                let l = self.trail[index];
                if self.seen[l.var().0 as usize] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.expect("found literal").var().0 as usize;
            self.seen[pv] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !p.expect("uip");
                break;
            }
            clause = self.reason[pv].expect("non-decision literal has a reason");
        }

        // Cheap clause minimization: drop literals implied by others in the
        // clause (their reason's literals are all already in the clause).
        let keep: Vec<Lit> = learnt[1..]
            .iter()
            .copied()
            .filter(|&l| !self.redundant(l, &learnt))
            .collect();
        let mut out = vec![learnt[0]];
        out.extend(keep);

        for &l in &out {
            self.seen[l.var().0 as usize] = false;
        }
        // Also clear any remaining seen flags from minimization bookkeeping.
        for &l in &learnt {
            self.seen[l.var().0 as usize] = false;
        }

        let bt = if out.len() == 1 {
            0
        } else {
            // Move the literal with the highest level (other than [0]) to [1].
            let mut max_i = 1;
            for i in 2..out.len() {
                if self.level[out[i].var().0 as usize] > self.level[out[max_i].var().0 as usize] {
                    max_i = i;
                }
            }
            out.swap(1, max_i);
            self.level[out[1].var().0 as usize]
        };
        (out, bt)
    }

    /// A literal is redundant if its reason clause's other literals are all
    /// marked seen (single-step minimization).
    fn redundant(&self, l: Lit, _learnt: &[Lit]) -> bool {
        let v = l.var().0 as usize;
        match self.reason[v] {
            None => false,
            Some(ci) => self.clauses.lits(ci as usize).iter().all(|&q| {
                q.var() == l.var()
                    || self.seen[q.var().0 as usize]
                    || self.level[q.var().0 as usize] == 0
            }),
        }
    }

    fn backtrack(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize] as usize;
        for i in (lim..self.trail.len()).rev() {
            let l = self.trail[i];
            self.vals[l.index()] = LBool::Undef;
            self.vals[(!l).index()] = LBool::Undef;
            self.reason[l.var().0 as usize] = None;
            self.heap.push(l.var(), &self.activity);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn decide(&mut self) -> Option<Lit> {
        // Every variable is assigned: popping would throw each one away.
        if self.trail.len() == self.num_vars() {
            self.heap.clear();
            return None;
        }
        while let Some(v) = self.heap.pop(&self.activity) {
            if self.lit_value(Lit::pos(v)) == LBool::Undef {
                let phase = self.phase[v.0 as usize];
                return Some(Lit::new(v, !phase));
            }
        }
        None
    }

    fn reduce_db(&mut self) {
        // Sort learnt clause indices by activity and remove the weaker half.
        let mut learnt_idx: Vec<usize> = (0..self.clauses.len())
            .filter(|&i| {
                self.clauses.is_learnt(i) && !self.is_reason(i) && self.clauses.lits(i).len() > 2
            })
            .collect();
        learnt_idx.sort_by(|&a, &b| {
            self.clauses
                .activity(a)
                .partial_cmp(&self.clauses.activity(b))
                .expect("activities are finite")
        });
        let remove = &learnt_idx[..learnt_idx.len() / 2];
        if remove.is_empty() {
            return;
        }
        self.stats.learnts -= remove.len() as u64;
        // Rebuild the clause arena without the removed clauses (compacting
        // out the holes) and remap the watches and reasons to the surviving
        // indices, in order.
        let mut map: Vec<Option<u32>> = vec![Some(0); self.clauses.len()];
        for &i in remove {
            map[i] = None;
        }
        let mut kept = ClauseStore::default();
        for (i, slot) in map.iter_mut().enumerate() {
            if slot.is_some() {
                let lits = self.clauses.lits(i);
                *slot = Some(kept.push(lits, self.clauses.is_learnt(i), self.clauses.activity(i)));
            }
        }
        self.clauses = kept;
        self.watches.retain_remap(&map);
        for r in &mut self.reason {
            if let Some(ci) = *r {
                *r = map[ci as usize]; // reasons of kept assignments survive
            }
        }
    }

    /// True when clause `ci` is the reason of an assignment (MiniSat's
    /// "locked"). Only the variable of its `lits[0]` can be: `enqueue`
    /// records a clause as the reason of its `lits[0]`, propagation never
    /// moves a true `lits[0]`, and `backtrack` clears the reason with the
    /// assignment.
    fn is_reason(&self, ci: usize) -> bool {
        let first = self.clauses.lits(ci)[0];
        self.reason[first.var().0 as usize] == Some(ci as u32)
    }

    fn luby(x: u64) -> u64 {
        // Luby sequence (0-based): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
        let mut size = 1u64;
        let mut seq = 0u32;
        while size < x + 1 {
            seq += 1;
            size = 2 * size + 1;
        }
        let mut x = x;
        while size - 1 != x {
            size = (size - 1) >> 1;
            seq -= 1;
            x %= size;
        }
        1u64 << seq
    }

    /// Solves the instance under the given assumption literals.
    ///
    /// On [`SatResult::Sat`], variable values are available via
    /// [`SatSolver::value`] until the next call. On [`SatResult::Unsat`] the
    /// instance has no model extending the assumptions (the clause database
    /// is unchanged and further queries may be posed).
    pub fn solve(&mut self, assumptions: &[Lit]) -> SatResult {
        self.solved = true;
        if self.unsat {
            return SatResult::Unsat;
        }
        self.backtrack(0);
        if self.propagate().is_some() {
            self.unsat = true;
            return SatResult::Unsat;
        }

        let mut restart_count = 0u64;
        let mut conflicts_until_restart = Self::luby(restart_count) * 100;
        let mut conflicts_this_restart = 0u64;

        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_this_restart += 1;
                if self.decision_level() == 0 {
                    self.unsat = true;
                    return SatResult::Unsat;
                }
                // Conflict within assumption prefix => UNSAT under assumptions.
                if self.decision_level() <= assumptions.len() as u32 {
                    let all_assumed = self.trail_lim.iter().take(assumptions.len()).count();
                    // If every decision so far is an assumption, the conflict
                    // depends only on assumptions: report unsat.
                    if self.decision_level() as usize <= all_assumed {
                        self.backtrack(0);
                        return SatResult::Unsat;
                    }
                }
                let (learnt, bt) = self.analyze(confl);
                self.backtrack(bt);
                // Re-establish assumptions later; backtracking below the
                // assumption prefix is fine, the main loop re-assumes.
                if learnt.len() == 1 {
                    if self.lit_value(learnt[0]) == LBool::False {
                        self.unsat = true;
                        return SatResult::Unsat;
                    }
                    self.backtrack(0);
                    if self.lit_value(learnt[0]) == LBool::Undef {
                        self.enqueue(learnt[0], None);
                    }
                } else {
                    let ci = self.attach_clause(&learnt, true);
                    self.enqueue(learnt[0], Some(ci));
                }
                self.var_inc /= VAR_DECAY;
                self.cla_inc /= CLA_DECAY;
                if f64::from(self.stats.learnts as u32) > self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= 1.3;
                }
                if conflicts_this_restart >= conflicts_until_restart {
                    self.stats.restarts += 1;
                    restart_count += 1;
                    conflicts_this_restart = 0;
                    conflicts_until_restart = Self::luby(restart_count) * 100;
                    self.backtrack(0);
                }
            } else {
                // Extend assumptions one level at a time.
                let dl = self.decision_level() as usize;
                if dl < assumptions.len() {
                    let a = assumptions[dl];
                    match self.lit_value(a) {
                        LBool::True => {
                            // already satisfied: introduce a dummy level so the
                            // indexing of assumptions by level stays aligned
                            self.trail_lim.push(self.trail.len() as u32);
                        }
                        LBool::False => {
                            self.backtrack(0);
                            return SatResult::Unsat;
                        }
                        LBool::Undef => {
                            self.stats.decisions += 1;
                            self.trail_lim.push(self.trail.len() as u32);
                            self.enqueue(a, None);
                        }
                    }
                    continue;
                }
                match self.decide() {
                    None => return SatResult::Sat,
                    Some(l) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len() as u32);
                        self.enqueue(l, None);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(s: &mut SatSolver, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn trivial_sat() {
        let mut s = SatSolver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
        assert_eq!(s.solve(&[]), SatResult::Sat);
    }

    #[test]
    fn trivial_unsat() {
        let mut s = SatSolver::new();
        let v = lits(&mut s, 1);
        s.add_clause(&[Lit::pos(v[0])]);
        s.add_clause(&[Lit::neg(v[0])]);
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_unsat() {
        let mut s = SatSolver::new();
        let _ = lits(&mut s, 1);
        s.add_clause(&[]);
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = SatSolver::new();
        let v = lits(&mut s, 4);
        s.add_clause(&[Lit::pos(v[0])]);
        s.add_clause(&[Lit::neg(v[0]), Lit::pos(v[1])]);
        s.add_clause(&[Lit::neg(v[1]), Lit::pos(v[2])]);
        s.add_clause(&[Lit::neg(v[2]), Lit::pos(v[3])]);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        for x in v {
            assert_eq!(s.value(x), Some(true));
        }
    }

    #[test]
    fn assumptions_unsat_then_sat() {
        let mut s = SatSolver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
        // Assuming both false must be unsat, but the instance stays usable.
        assert_eq!(s.solve(&[Lit::neg(v[0]), Lit::neg(v[1])]), SatResult::Unsat);
        assert_eq!(s.solve(&[Lit::neg(v[0])]), SatResult::Sat);
        assert_eq!(s.value(v[1]), Some(true));
        assert_eq!(s.solve(&[]), SatResult::Sat);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: var p_i_h = pigeon i in hole h.
        let mut s = SatSolver::new();
        let v = lits(&mut s, 6);
        let p = |i: usize, h: usize| v[i * 2 + h];
        for i in 0..3 {
            s.add_clause(&[Lit::pos(p(i, 0)), Lit::pos(p(i, 1))]);
        }
        for h in 0..2 {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    s.add_clause(&[Lit::neg(p(i, h)), Lit::neg(p(j, h))]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_3_sat() {
        let mut s = SatSolver::new();
        let v = lits(&mut s, 9);
        let p = |i: usize, h: usize| v[i * 3 + h];
        for i in 0..3 {
            s.add_clause(&[Lit::pos(p(i, 0)), Lit::pos(p(i, 1)), Lit::pos(p(i, 2))]);
        }
        for h in 0..3 {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    s.add_clause(&[Lit::neg(p(i, h)), Lit::neg(p(j, h))]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SatResult::Sat);
    }

    #[test]
    fn random_3sat_consistency() {
        // Deterministic pseudo-random 3-SAT instances; verify SAT answers by
        // checking the model satisfies all clauses.
        let mut seed = 0x12345678u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..30 {
            let nvars = 20 + (round % 10);
            let nclauses = (f64::from(nvars as u32) * 4.0) as usize;
            let mut s = SatSolver::new();
            let vars = lits(&mut s, nvars);
            let mut clauses = Vec::new();
            for _ in 0..nclauses {
                let mut cl = Vec::new();
                for _ in 0..3 {
                    let v = vars[(rng() % nvars as u64) as usize];
                    let neg = rng() % 2 == 0;
                    cl.push(Lit::new(v, neg));
                }
                clauses.push(cl);
            }
            for cl in &clauses {
                s.add_clause(cl);
            }
            if s.solve(&[]) == SatResult::Sat {
                for cl in &clauses {
                    assert!(
                        cl.iter().any(|&l| s.value(l.var()) == Some(!l.is_neg())
                            || s.value(l.var()).is_none()),
                        "model does not satisfy clause"
                    );
                }
            }
        }
    }

    #[test]
    fn luby_sequence() {
        let expect = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(SatSolver::luby(i as u64), e, "luby({i})");
        }
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut s = SatSolver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[0]), Lit::neg(v[1])]);
        s.add_clause(&[Lit::pos(v[1]), Lit::neg(v[1])]); // tautology: dropped
        assert_eq!(s.solve(&[]), SatResult::Sat);
    }

    /// Drives a solver through a battery of assumption queries and records
    /// every result together with the full model — a behavioural
    /// fingerprint that is only equal for bit-identical solver states.
    fn fingerprint(s: &mut SatSolver, nvars: usize) -> Vec<(SatResult, Vec<Option<bool>>)> {
        let mut out = Vec::new();
        for i in 0..nvars {
            for neg in [false, true] {
                let r = s.solve(&[Lit::new(Var(i as u32), neg)]);
                let model = (0..nvars).map(|v| s.value(Var(v as u32))).collect();
                out.push((r, model));
            }
        }
        out.push((
            s.solve(&[]),
            (0..nvars).map(|v| s.value(Var(v as u32))).collect(),
        ));
        out
    }

    #[test]
    fn pristine_rollback_takes_the_truncation_path_and_is_exact() {
        // Construct-only solvers roll back by truncation; the result must
        // be bit-equivalent to a fresh construction of the prefix.
        let build_prefix = |s: &mut SatSolver| {
            let v = lits(s, 3);
            s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
            s.add_clause(&[Lit::neg(v[1]), Lit::pos(v[2]), Lit::neg(v[0])]);
        };
        let mut s = SatSolver::with_op_log();
        build_prefix(&mut s);
        let cp = s.checkpoint().expect("logged");
        assert!(s.truncation_applies(&cp), "pristine solver truncates");

        // Extend with more vars and clauses (still no solve).
        let extra = lits(&mut s, 2);
        s.add_clause(&[Lit::pos(extra[0]), Lit::neg(extra[1])]);
        s.add_clause(&[Lit::neg(Var(0)), Lit::pos(extra[1])]);
        assert!(s.truncation_applies(&cp), "extension stays pristine");
        s.rollback(&cp).expect("valid");
        assert_eq!(s.num_vars(), 3);
        assert_eq!(s.num_clauses(), 2);

        let mut control = SatSolver::new();
        build_prefix(&mut control);
        assert_eq!(
            s.stats(),
            control.stats(),
            "observable counters restored to a fresh construction's"
        );
        assert_eq!(
            fingerprint(&mut s, 3),
            fingerprint(&mut control, 3),
            "truncation rollback must be bit-equivalent to fresh construction"
        );
    }

    #[test]
    fn solved_rollback_is_refused_and_leaves_the_solver_unchanged() {
        let build = |s: &mut SatSolver| {
            let v = lits(s, 3);
            s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
            s.add_clause(&[Lit::neg(v[1]), Lit::pos(v[2])]);
        };
        let mut s = SatSolver::with_op_log();
        let cp = s.checkpoint().expect("logged");
        build(&mut s);
        assert_eq!(s.solve(&[Lit::neg(Var(0))]), SatResult::Sat);
        assert!(!s.truncation_applies(&cp), "search state blocks truncation");
        assert_eq!(s.rollback(&cp), Err(RollbackError::NotPristine));
        assert_eq!(s.num_vars(), 3, "nothing shed");
        // The refused rollback touched nothing: the solver answers exactly
        // like a twin that ran the same construction and solve.
        let mut twin = SatSolver::new();
        build(&mut twin);
        assert_eq!(twin.solve(&[Lit::neg(Var(0))]), SatResult::Sat);
        assert_eq!(s.stats(), twin.stats());
        assert_eq!(fingerprint(&mut s, 3), fingerprint(&mut twin, 3));
    }

    #[test]
    fn rollback_to_empty_and_repeated_rollbacks() {
        let mut s = SatSolver::with_op_log();
        let cp0 = s.checkpoint().expect("logged");
        let v = lits(&mut s, 2);
        s.add_clause(&[Lit::pos(v[0])]);
        let cp1 = s.checkpoint().expect("logged");
        s.add_clause(&[Lit::neg(v[0])]); // now unsat
        assert_eq!(s.clone_unlogged().solve(&[]), SatResult::Unsat);
        s.rollback(&cp1).expect("valid");
        // Solve on clones: a search would leave `s` no longer pristine.
        let mut shed = s.clone_unlogged();
        assert_eq!(shed.solve(&[]), SatResult::Sat, "unsat state shed");
        assert_eq!(shed.value(v[0]), Some(true));
        // cp1 is still valid after rolling back to it; cp0 too.
        s.rollback(&cp1)
            .expect("checkpoint at current prefix stays valid");
        s.rollback(&cp0).expect("earlier checkpoint stays valid");
        assert_eq!(s.num_vars(), 0);
        // But cp1 now points past the truncated log.
        assert_eq!(s.rollback(&cp1), Err(RollbackError::StaleCheckpoint));
    }

    #[test]
    fn regrown_log_invalidates_checkpoints_of_the_old_prefix() {
        // A checkpoint denotes specific op *content*, not just a length:
        // truncating below it and regrowing the log with different ops
        // must leave it stale even when the lengths coincide again.
        let mut s = SatSolver::with_op_log();
        let base = s.checkpoint().expect("logged");
        let v0 = s.new_var();
        s.add_clause(&[Lit::pos(v0)]);
        let old = s.checkpoint().expect("logged");
        s.rollback(&base).expect("valid");
        let v0b = s.new_var();
        s.add_clause(&[Lit::neg(v0b)]); // same length, different content
        assert_eq!(s.rollback(&old), Err(RollbackError::StaleCheckpoint));
        // The surviving state is the regrown one, untouched.
        assert_eq!(s.solve(&[]), SatResult::Sat);
        assert_eq!(s.value(v0b), Some(false));
    }

    #[test]
    fn rollback_rejects_foreign_and_unlogged() {
        let mut a = SatSolver::with_op_log();
        let mut b = SatSolver::with_op_log();
        let _ = a.new_var();
        let cp = a.checkpoint().expect("logged");
        assert_eq!(b.rollback(&cp), Err(RollbackError::ForeignCheckpoint));
        let mut plain = SatSolver::new();
        assert_eq!(plain.checkpoint(), Err(RollbackError::LogDisabled));
        assert_eq!(plain.rollback(&cp), Err(RollbackError::LogDisabled));
    }

    #[test]
    fn unlogged_clone_matches_original_behaviour() {
        let mut s = SatSolver::with_op_log();
        let v = lits(&mut s, 3);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
        s.add_clause(&[Lit::neg(v[1]), Lit::pos(v[2])]);
        let mut clone = s.clone_unlogged();
        assert_eq!(clone.checkpoint(), Err(RollbackError::LogDisabled));
        assert_eq!(fingerprint(&mut clone, 3), fingerprint(&mut s, 3));
        // Mutating the clone leaves the original untouched.
        clone.add_clause(&[Lit::neg(v[0])]);
        assert_eq!(s.solve(&[Lit::pos(v[0])]), SatResult::Sat);
    }

    /// FNV-1a fold of one `u64` into a running hash.
    fn fnv(h: &mut u64, x: u64) {
        *h ^= x;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Folds a full fingerprint battery (results + models) and the stats
    /// counters into `h`, so two solvers hash equal only when their
    /// observable behaviour is bit-identical.
    fn fold_fingerprint(h: &mut u64, s: &mut SatSolver, nvars: usize) {
        for (r, model) in fingerprint(s, nvars) {
            fnv(h, u64::from(r == SatResult::Sat));
            for v in model {
                fnv(
                    h,
                    match v {
                        None => 0,
                        Some(false) => 1,
                        Some(true) => 2,
                    },
                );
            }
        }
        let st = s.stats();
        fnv(h, st.conflicts);
        fnv(h, st.decisions);
        fnv(h, st.propagations);
        fnv(h, st.restarts);
        fnv(h, st.learnts);
    }

    fn xorshift(seed: &mut u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    }

    /// Builds a seeded random k-SAT instance on a fresh batch of variables.
    fn random_instance(s: &mut SatSolver, seed: &mut u64, nvars: usize, nclauses: usize) {
        let vars = lits(s, nvars);
        for _ in 0..nclauses {
            let mut cl = Vec::new();
            for _ in 0..3 {
                let v = vars[(xorshift(seed) % nvars as u64) as usize];
                cl.push(Lit::new(v, xorshift(seed) % 2 == 0));
            }
            s.add_clause(&cl);
        }
    }

    /// The behavioural pin of the clause-store layout: seeded random CNF
    /// instances driven through assumption batteries, truncation rollback,
    /// and a forced learnt-clause reduction, hashed bit-for-bit. The
    /// constants were recorded from the pre-arena `Vec<Clause>` /
    /// `Vec<Vec<Watch>>` layout; the flat-arena store must reproduce every
    /// result, model bit, and statistics counter exactly.
    #[test]
    fn clause_store_fingerprints_match_the_pre_arena_layout() {
        // Plain incremental solving over a spread of densities.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut seed = 0x5eed_0001u64;
        for round in 0..6u64 {
            let nvars = 18 + 3 * (round as usize);
            let nclauses = nvars * 4 + (round as usize % 3);
            let mut s = SatSolver::new();
            random_instance(&mut s, &mut seed, nvars, nclauses);
            fold_fingerprint(&mut h, &mut s, nvars);
        }
        assert_eq!(h, 0x4c22_c0f3_8b81_c30b, "plain battery drifted");

        // Truncation-path rollback: pristine construction, checkpoint,
        // extend, roll back, battery.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut seed = 0x5eed_0002u64;
        for _ in 0..4u64 {
            let mut s = SatSolver::with_op_log();
            random_instance(&mut s, &mut seed, 16, 40);
            let cp = s.checkpoint().expect("logged");
            assert!(s.truncation_applies(&cp), "construct-only stays pristine");
            random_instance(&mut s, &mut seed, 10, 30);
            s.rollback(&cp).expect("valid");
            fold_fingerprint(&mut h, &mut s, 16);
        }
        assert_eq!(h, 0xe578_0b47_fb12_f25b, "truncation rollback drifted");

        // Learnt-clause reduction: accumulate learnt clauses across
        // incremental queries, force `reduce_db`, and pin the surviving
        // behaviour (clause remapping, watch rebuild, reason remapping).
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut seed = 0x5eed_0004u64;
        for round in 0..3u64 {
            let nvars = 40 + 4 * (round as usize);
            let mut s = SatSolver::new();
            random_instance(&mut s, &mut seed, nvars, nvars * 4 + 8);
            // Assumption batteries breed learnt clauses deterministically.
            for i in 0..nvars {
                let a = Lit::new(Var(i as u32), i % 2 == 0);
                let b = Lit::new(Var(((i + 7) % nvars) as u32), i % 3 == 0);
                let _ = s.solve(&[a, b]);
            }
            fnv(&mut h, s.stats().learnts);
            s.reduce_db();
            fnv(&mut h, s.stats().learnts);
            fold_fingerprint(&mut h, &mut s, nvars);
        }
        assert_eq!(h, 0x79a6_b8b5_6e7f_278f, "reduce_db behaviour drifted");

        // Unlogged clone: the scratch instance must behave identically to
        // its origin.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut seed = 0x5eed_0005u64;
        let mut s = SatSolver::with_op_log();
        random_instance(&mut s, &mut seed, 24, 96);
        let mut clone = s.clone_unlogged();
        fold_fingerprint(&mut h, &mut clone, 24);
        fold_fingerprint(&mut h, &mut s, 24);
        assert_eq!(h, 0x2cd5_5097_e3b2_46a1, "unlogged clone drifted");
    }

    #[test]
    fn default_solver_is_new() {
        // `default()` must start from `new()`'s activity increments and
        // learnt-clause budget, not from zeros.
        let mut seed = 0x5eed_0006u64;
        for round in 0..3u64 {
            let nvars = 40 + 4 * (round as usize);
            let (mut a, mut b) = (SatSolver::new(), SatSolver::default());
            let mut seed_b = seed;
            random_instance(&mut a, &mut seed, nvars, nvars * 4 + 8);
            random_instance(&mut b, &mut seed_b, nvars, nvars * 4 + 8);
            assert_eq!(fingerprint(&mut b, nvars), fingerprint(&mut a, nvars));
            assert_eq!(b.stats(), a.stats());
        }
    }

    #[test]
    fn incremental_use_after_unsat_assumptions() {
        let mut s = SatSolver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
        s.add_clause(&[Lit::neg(v[1]), Lit::pos(v[2])]);
        for _ in 0..10 {
            assert_eq!(s.solve(&[Lit::neg(v[0]), Lit::neg(v[1])]), SatResult::Unsat);
            assert_eq!(s.solve(&[Lit::neg(v[0])]), SatResult::Sat);
            assert_eq!(s.value(v[2]), Some(true));
        }
    }
}
