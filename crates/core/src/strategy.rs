//! Pluggable path-selection strategies for the DSE worklist.
//!
//! The exploration loop maintains a *frontier* of pending branch flips.
//! Which entry is discharged next is the search policy — the paper's engine
//! hard-wires depth-first selection (§III-B), but the policy is orthogonal
//! to both the executor and the solver, so it is a pluggable seam. Every
//! policy implements [`FrontierPolicy`] once, generically over the item it
//! schedules, and so serves two frontiers:
//!
//! * the **sequential** frontier of [`crate::Session`], holding
//!   [`Candidate`]s (a prescription plus the parent's live trail, continued
//!   in place) behind the [`PathStrategy`] trait, which every
//!   `FrontierPolicy<Candidate>` implements;
//! * the **shard-local** frontiers of [`crate::ParallelSession`], holding
//!   plain-data [`Prescription`]s behind the [`PrescriptionStrategy`]
//!   trait — the same policies, whose [`steal`](FrontierPolicy::steal) end
//!   serves idle workers.
//!
//! The policies:
//!
//! * [`Dfs`] — depth-first (the paper's behaviour, and the default): flip
//!   the deepest unexplored branch of the most recent path first;
//! * [`Bfs`] — breadth-first: flip the oldest, shallowest branch first,
//!   covering short prefixes before deep suffixes;
//! * [`RandomRestart`] — pick a uniformly pseudo-random frontier entry,
//!   restarting exploration from an unrelated part of the program; a
//!   deterministic seed keeps runs reproducible;
//! * [`CoverageGuided`] — pick the pending flip whose branch site is least
//!   covered in a shared [`CoverageMap`], surfacing unexecuted code early
//!   under a path budget (ties broken depth-first, so the order is a pure
//!   function of the coverage snapshots).
//!
//! All strategies enumerate the same complete path set on terminating
//! programs — only the discovery *order* (and thus which paths a truncated
//! exploration sees) differs. In a parallel session the policy affects
//! *scheduling only*: the merged results are canonically ordered and
//! identical for every policy (see [`crate::ParallelSession`]).

use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use crate::coverage::CoverageMap;
use crate::machine::TrailEntry;
use crate::prescribe::Prescription;

/// A pending branch flip on the sequential frontier: the plain-data
/// [`Prescription`] naming it, plus the recorded trail of the path it
/// branches off, from which the session builds the flip query in place
/// instead of replaying the parent.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Replayable plain-data identity of this pending path; its
    /// [`Prescription::flip`] names the branch to flip.
    pub prescription: Prescription,
    /// The parent path's trail (live term handles into the session's term
    /// manager), one copy shared by every flip of that path.
    pub trail: Rc<[TrailEntry]>,
}

/// A worklist policy over frontier items of type `T`, deciding which
/// pending branch flip to discharge next — the one implementation of each
/// policy, shared by the sequential frontier ([`PathStrategy`], `T =`
/// [`Candidate`]) and the shard-local ones ([`PrescriptionStrategy`],
/// `T =` [`Prescription`]).
///
/// Implementations must hand back every pushed item exactly once across
/// `pop` and `steal`, in any order; the engines handle feasibility checking
/// and deduplication of the shared prefix.
pub trait FrontierPolicy<T>: fmt::Debug {
    /// Human-readable policy name (for logs and summaries).
    fn name(&self) -> &'static str;

    /// Adds an item to the frontier.
    fn push(&mut self, item: T);

    /// Removes and returns the owner's next item, or `None` when the
    /// frontier is exhausted.
    fn pop(&mut self) -> Option<T>;

    /// Removes and returns an item for a *stealing* worker: the entry the
    /// owner would schedule **last** (the classic work-stealing discipline:
    /// the thief takes the biggest pending subtree, minimizing contention
    /// on the owner's hot end). Default: same as [`FrontierPolicy::pop`].
    fn steal(&mut self) -> Option<T> {
        self.pop()
    }

    /// Number of pending items.
    fn frontier_len(&self) -> usize;
}

/// The sequential frontier of [`crate::Session`], over [`Candidate`]s.
///
/// Every [`FrontierPolicy<Candidate>`] is a `PathStrategy`; implement this
/// trait directly only to wrap one (for example, to note each popped
/// candidate's [`Prescription::id`]).
pub trait PathStrategy: fmt::Debug {
    /// Human-readable policy name (for logs and summaries).
    fn name(&self) -> &'static str;

    /// Adds a candidate to the frontier.
    fn push(&mut self, candidate: Candidate);

    /// Removes and returns the next candidate to try, or `None` when the
    /// frontier is exhausted.
    fn pop(&mut self) -> Option<Candidate>;

    /// Number of pending candidates.
    fn frontier_len(&self) -> usize;
}

impl<S: FrontierPolicy<Candidate>> PathStrategy for S {
    fn name(&self) -> &'static str {
        <S as FrontierPolicy<Candidate>>::name(self)
    }

    fn push(&mut self, candidate: Candidate) {
        <S as FrontierPolicy<Candidate>>::push(self, candidate);
    }

    fn pop(&mut self) -> Option<Candidate> {
        <S as FrontierPolicy<Candidate>>::pop(self)
    }

    fn frontier_len(&self) -> usize {
        <S as FrontierPolicy<Candidate>>::frontier_len(self)
    }
}

impl PathStrategy for Box<dyn PathStrategy> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn push(&mut self, candidate: Candidate) {
        (**self).push(candidate);
    }

    fn pop(&mut self) -> Option<Candidate> {
        (**self).pop()
    }

    fn frontier_len(&self) -> usize {
        (**self).frontier_len()
    }
}

/// A shard-local frontier of [`crate::ParallelSession`], over plain-data
/// [`Prescription`]s: every [`FrontierPolicy<Prescription>`] that is
/// [`Send`] is one.
///
/// Each worker owns one instance and pushes/pops through it; idle workers
/// steal from a victim's instance through [`FrontierPolicy::steal`]. The
/// policy only shapes scheduling; every pushed prescription must be handed
/// out exactly once across `pop` and `steal`. A checkpoint holds none of
/// its state: the run's ledger keeps every pending prescription, and a
/// resume redistributes them over fresh shards.
pub trait PrescriptionStrategy: FrontierPolicy<Prescription> + Send {}

impl<S: FrontierPolicy<Prescription> + Send> PrescriptionStrategy for S {}

/// Depth-first selection (the paper's §III-B policy, and the default).
///
/// Generic over the scheduled item: `Dfs<Candidate>` (the default) is the
/// sequential [`PathStrategy`], `Dfs<Prescription>` the shard-local
/// [`PrescriptionStrategy`] — there the owner pops the deepest entry while
/// thieves steal the shallowest (largest) pending subtree.
#[derive(Debug)]
pub struct Dfs<T = Candidate> {
    stack: VecDeque<T>,
}

impl<T> Dfs<T> {
    /// Creates an empty depth-first frontier.
    pub fn new() -> Self {
        Dfs {
            stack: VecDeque::new(),
        }
    }
}

impl<T> Default for Dfs<T> {
    fn default() -> Self {
        Dfs::new()
    }
}

impl<T: fmt::Debug> FrontierPolicy<T> for Dfs<T> {
    fn name(&self) -> &'static str {
        "dfs"
    }

    fn push(&mut self, item: T) {
        self.stack.push_back(item);
    }

    /// The deepest (most recently pushed) item.
    fn pop(&mut self) -> Option<T> {
        self.stack.pop_back()
    }

    /// The shallowest (oldest) item.
    fn steal(&mut self) -> Option<T> {
        self.stack.pop_front()
    }

    fn frontier_len(&self) -> usize {
        self.stack.len()
    }
}

/// Breadth-first selection: oldest (shallowest) branch flips first.
///
/// Generic like [`Dfs`]; as a shard policy, thieves steal from the deep
/// end while the owner drains shallow prefixes.
#[derive(Debug)]
pub struct Bfs<T = Candidate> {
    queue: VecDeque<T>,
}

impl<T> Bfs<T> {
    /// Creates an empty breadth-first frontier.
    pub fn new() -> Self {
        Bfs {
            queue: VecDeque::new(),
        }
    }
}

impl<T> Default for Bfs<T> {
    fn default() -> Self {
        Bfs::new()
    }
}

impl<T: fmt::Debug> FrontierPolicy<T> for Bfs<T> {
    fn name(&self) -> &'static str {
        "bfs"
    }

    fn push(&mut self, item: T) {
        self.queue.push_back(item);
    }

    /// The oldest (shallowest) item.
    fn pop(&mut self) -> Option<T> {
        self.queue.pop_front()
    }

    /// The newest (deepest) item.
    fn steal(&mut self) -> Option<T> {
        self.queue.pop_back()
    }

    fn frontier_len(&self) -> usize {
        self.queue.len()
    }
}

/// Random selection with restarts: each flip is drawn uniformly from the
/// whole frontier, so exploration repeatedly "restarts" from unrelated
/// program regions instead of draining one subtree.
///
/// The generator is a deterministic xorshift64*, so a given seed always
/// reproduces the same exploration order. Generic like [`Dfs`]; as a shard
/// policy both the owner and thieves draw randomly (in a parallel session
/// this only perturbs scheduling — the merged results are canonical).
#[derive(Debug)]
pub struct RandomRestart<T = Candidate> {
    frontier: Vec<T>,
    state: u64,
}

impl<T> RandomRestart<T> {
    /// Creates the strategy with an explicit seed (any value; 0 is mapped
    /// to a fixed nonzero constant).
    pub fn with_seed(seed: u64) -> Self {
        RandomRestart {
            frontier: Vec::new(),
            state: if seed == 0 {
                0x9e37_79b9_7f4a_7c15
            } else {
                seed
            },
        }
    }

    /// Creates the strategy with the default seed.
    pub fn new() -> Self {
        RandomRestart::with_seed(0x5eed_cafe_f00d_beef)
    }

    // Intentional fork of `binsym_testutil::Rng`'s xorshift64* step: the
    // product crate must not depend on a test-support crate, and the
    // strategy's exploration order is a stable, documented behaviour that
    // should not silently shift with test-generator tweaks.
    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Draws a uniform index below `n` by rejection sampling: draws whose
    /// value falls in the tail remainder of the 2⁶⁴ space are discarded, so
    /// every index is exactly equally likely (a bare `next_u64() % n` would
    /// favor small indices whenever `n` does not divide 2⁶⁴). Still a pure
    /// function of the seed.
    fn next_below(&mut self, n: usize) -> usize {
        let n = n as u64;
        debug_assert!(n > 0);
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let x = self.next_u64();
            if x < zone {
                return (x % n) as usize;
            }
        }
    }
}

impl<T> Default for RandomRestart<T> {
    fn default() -> Self {
        RandomRestart::new()
    }
}

impl<T: fmt::Debug> FrontierPolicy<T> for RandomRestart<T> {
    fn name(&self) -> &'static str {
        "random-restart"
    }

    fn push(&mut self, item: T) {
        self.frontier.push(item);
    }

    /// A uniformly pseudo-random item.
    fn pop(&mut self) -> Option<T> {
        if self.frontier.is_empty() {
            return None;
        }
        let i = self.next_below(self.frontier.len());
        Some(self.frontier.swap_remove(i))
    }

    fn frontier_len(&self) -> usize {
        self.frontier.len()
    }
}

/// A frontier item that knows the branch flip it describes — the hook the
/// [`CoverageGuided`] policy ranks by. Implemented by both frontier item
/// kinds ([`Candidate`] and [`Prescription`]).
pub trait BranchSited {
    /// The branch site's program counter and the direction the flip would
    /// *assert* (the opposite of what the parent path took). `None` for
    /// the root prescription, which always schedules first.
    fn flip_site(&self) -> Option<(u32, bool)>;
}

impl BranchSited for Candidate {
    fn flip_site(&self) -> Option<(u32, bool)> {
        self.prescription.flip_site()
    }
}

impl BranchSited for Prescription {
    fn flip_site(&self) -> Option<(u32, bool)> {
        self.flip.map(|f| (f.pc, !f.taken))
    }
}

/// Coverage-guided selection: pop the pending flip whose branch site is
/// least covered in a shared [`CoverageMap`] — concretely, a flip ranks as
/// **uncovered** while no explored path has ever driven its branch in the
/// direction the flip asserts (the site itself always executed: the parent
/// path went through it). Discharging an uncovered flip is therefore
/// guaranteed new behaviour, which is what should surface first under a
/// path budget ([`crate::SessionBuilder::limit`]).
///
/// With the map's one-bit-per-direction signal "least covered" is binary:
/// **uncovered before covered**. Within each class the tie-break is
/// deterministic depth-first (most recently pushed entry first), so the
/// pop order is a pure function of the push sequence and the coverage
/// snapshots at pop time — a sequential session is exactly reproducible,
/// and a parallel session's merged results are canonical for 1..N workers
/// regardless of how the racy snapshots perturb scheduling (see
/// [`crate::ParallelSession`]).
///
/// Generic like [`Dfs`]: `CoverageGuided<Candidate>` (the default) is the
/// sequential [`PathStrategy`] — pair it with a
/// [`crate::CoverageObserver`] on the same map so executed paths feed the
/// signal — and `CoverageGuided<Prescription>` the shard-local
/// [`PrescriptionStrategy`], where thieves steal from the cold end (the
/// oldest *covered* entry, falling back to the oldest entry).
pub struct CoverageGuided<T = Candidate> {
    frontier: Vec<T>,
    map: Arc<CoverageMap>,
}

impl<T> fmt::Debug for CoverageGuided<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoverageGuided")
            .field("frontier_len", &self.frontier.len())
            .field("covered", &self.map.covered_count())
            .finish()
    }
}

impl<T: BranchSited> CoverageGuided<T> {
    /// Creates the strategy reading the shared coverage `map`.
    pub fn new(map: Arc<CoverageMap>) -> Self {
        CoverageGuided {
            frontier: Vec::new(),
            map,
        }
    }

    /// The shared map this strategy ranks against.
    pub fn map(&self) -> &Arc<CoverageMap> {
        &self.map
    }

    /// True when the direction this item's flip asserts has never been
    /// observed at its branch site (the root prescription counts as
    /// uncovered: it must run before anything else can).
    fn is_uncovered(&self, item: &T) -> bool {
        match item.flip_site() {
            None => true,
            Some((pc, dir)) => !self.map.is_direction_covered(pc, dir),
        }
    }
}

impl<T: BranchSited> FrontierPolicy<T> for CoverageGuided<T> {
    fn name(&self) -> &'static str {
        "coverage"
    }

    fn push(&mut self, item: T) {
        self.frontier.push(item);
    }

    /// The most recently pushed *uncovered* entry, falling back to the
    /// most recently pushed entry (plain depth-first) when every branch
    /// site is already covered.
    fn pop(&mut self) -> Option<T> {
        let i = self
            .frontier
            .iter()
            .rposition(|item| self.is_uncovered(item))
            .or_else(|| self.frontier.len().checked_sub(1))?;
        Some(self.frontier.remove(i))
    }

    /// The oldest *covered* entry, falling back to the oldest entry.
    fn steal(&mut self) -> Option<T> {
        if self.frontier.is_empty() {
            return None;
        }
        let i = self
            .frontier
            .iter()
            .position(|item| !self.is_uncovered(item))
            .unwrap_or(0);
        Some(self.frontier.remove(i))
    }

    fn frontier_len(&self) -> usize {
        self.frontier.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prescribe::{Flip, PathId};

    fn candidate(ord: usize) -> Candidate {
        Candidate {
            prescription: prescription(ord),
            trail: Rc::new([]),
        }
    }

    /// The flip ordinal a candidate names.
    fn ord_of(c: Candidate) -> usize {
        c.prescription.flip.expect("flip candidate").ord
    }

    fn prescription(ord: usize) -> Prescription {
        // A distinct 4-byte-aligned branch site per ordinal, so coverage
        // tests can mark individual sites.
        Prescription {
            id: PathId::root().child(ord),
            input: vec![0],
            flip: Some(Flip {
                ord,
                taken: true,
                pc: 0x1000 + 4 * ord as u32,
            }),
            policy: crate::memory::AddressPolicyKind::default(),
        }
    }

    /// A policy behind the sequential engine's face.
    fn sequential(policy: impl PathStrategy + 'static) -> Box<dyn PathStrategy> {
        Box::new(policy)
    }

    #[test]
    fn dfs_pops_most_recent_first() {
        let mut s = sequential(Dfs::new());
        for i in 0..3 {
            s.push(candidate(i));
        }
        assert_eq!(s.frontier_len(), 3);
        assert_eq!(s.pop().map(ord_of), Some(2));
        assert_eq!(s.pop().map(ord_of), Some(1));
        assert_eq!(s.pop().map(ord_of), Some(0));
        assert!(s.pop().is_none());
    }

    #[test]
    fn bfs_pops_oldest_first() {
        let mut s = sequential(Bfs::new());
        for i in 0..3 {
            s.push(candidate(i));
        }
        assert_eq!(s.pop().map(ord_of), Some(0));
        assert_eq!(s.pop().map(ord_of), Some(1));
        assert_eq!(s.pop().map(ord_of), Some(2));
        assert!(s.pop().is_none());
    }

    #[test]
    fn random_restart_is_seed_deterministic_and_complete() {
        let order = |seed: u64| {
            let mut s = sequential(RandomRestart::with_seed(seed));
            for i in 0..8 {
                s.push(candidate(i));
            }
            let mut seen = Vec::new();
            while let Some(c) = s.pop() {
                seen.push(ord_of(c));
            }
            seen
        };
        let a = order(42);
        let b = order(42);
        assert_eq!(a, b, "same seed, same order");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..8).collect::<Vec<_>>(),
            "every candidate popped once"
        );
        assert_ne!(order(42), order(43), "different seeds diverge");
    }

    #[test]
    fn shard_policies_steal_from_the_cold_end() {
        let ord_of = |p: Prescription| p.flip.unwrap().ord;

        let mut dfs = Dfs::<Prescription>::new();
        for i in 0..3 {
            dfs.push(prescription(i));
        }
        assert_eq!(dfs.steal().map(ord_of), Some(0), "dfs thief takes oldest");
        assert_eq!(dfs.pop().map(ord_of), Some(2), "dfs owner keeps newest");

        let mut bfs = Bfs::<Prescription>::new();
        for i in 0..3 {
            bfs.push(prescription(i));
        }
        assert_eq!(bfs.steal().map(ord_of), Some(2), "bfs thief takes newest");
        assert_eq!(bfs.pop().map(ord_of), Some(0));
    }

    #[test]
    fn shard_policies_hand_out_every_item_once() {
        fn drain(mut s: Box<dyn PrescriptionStrategy>) -> Vec<usize> {
            let mut out = Vec::new();
            loop {
                // Alternate owner pops and steals to exercise both ends.
                let next = if out.len() % 2 == 0 {
                    s.pop()
                } else {
                    s.steal()
                };
                match next {
                    Some(p) => out.push(p.flip.unwrap().ord),
                    None => break,
                }
            }
            out
        }
        let map = Arc::new(CoverageMap::new(0x1000, 0x100));
        map.mark_direction(0x1004, false); // ord 1 covered: exercise ranking too
        let policies: [Box<dyn PrescriptionStrategy>; 4] = [
            Box::new(Dfs::<Prescription>::new()),
            Box::new(Bfs::<Prescription>::new()),
            Box::new(RandomRestart::<Prescription>::with_seed(7)),
            Box::new(CoverageGuided::<Prescription>::new(map)),
        ];
        for mut s in policies {
            for i in 0..6 {
                s.push(prescription(i));
            }
            assert_eq!(s.frontier_len(), 6);
            let mut seen = drain(s);
            seen.sort_unstable();
            assert_eq!(seen, (0..6).collect::<Vec<_>>());
        }
    }

    #[test]
    fn random_restart_pop_is_unbiased() {
        // Rejection sampling: for frontier lengths that do not divide 2^64
        // the old `next_u64() % len` draw was (infinitesimally) biased; the
        // uniformity of the *generator + draw* pipeline is what this sanity
        // test pins — each index must be hit in proportion over many draws.
        for len in [3usize, 5, 6, 7] {
            let mut s = RandomRestart::<Prescription>::with_seed(0x5eed ^ len as u64);
            let trials = 3000;
            let mut hits = vec![0u32; len];
            for _ in 0..trials {
                for i in 0..len {
                    s.push(prescription(i));
                }
                let first = s.pop().expect("non-empty").flip.unwrap().ord;
                hits[first] += 1;
                while s.pop().is_some() {}
            }
            let expected = trials as f64 / len as f64;
            for (i, &h) in hits.iter().enumerate() {
                let dev = (f64::from(h) - expected).abs() / expected;
                assert!(
                    dev < 0.25,
                    "len {len}: index {i} hit {h} times (expected ~{expected:.0})"
                );
            }
        }
    }

    #[test]
    fn random_restart_rejection_sampling_stays_seed_deterministic() {
        let order = |seed: u64| {
            let mut s = RandomRestart::<Prescription>::with_seed(seed);
            for i in 0..7 {
                s.push(prescription(i));
            }
            let mut seen = Vec::new();
            while let Some(p) = s.pop() {
                seen.push(p.flip.unwrap().ord);
            }
            seen
        };
        assert_eq!(order(123), order(123));
    }

    #[test]
    fn coverage_guided_prefers_uncovered_branch_sites() {
        let map = Arc::new(CoverageMap::new(0x1000, 0x100));
        let mut s = CoverageGuided::<Prescription>::new(Arc::clone(&map));
        for i in 0..4 {
            s.push(prescription(i));
        }
        // The directions flips 2 and 3 would assert (`taken: true` parents,
        // so the flips drive `false`) were already observed: the policy
        // must pick the newest *uncovered* flip (ord 1), not the newest
        // overall (ord 3). Executing the sites alone changes nothing — a
        // pending flip's site always executed on its parent path.
        map.mark(0x1008);
        map.mark(0x100c);
        map.mark_direction(0x1008, false);
        map.mark_direction(0x100c, false);
        assert_eq!(s.pop().unwrap().flip.unwrap().ord, 1);
        assert_eq!(s.pop().unwrap().flip.unwrap().ord, 0);
        // All remaining sites covered: fall back to plain depth-first.
        assert_eq!(s.pop().unwrap().flip.unwrap().ord, 3);
        assert_eq!(s.pop().unwrap().flip.unwrap().ord, 2);
        assert!(s.pop().is_none());
    }

    #[test]
    fn coverage_guided_schedules_root_first_and_steals_covered_first() {
        let map = Arc::new(CoverageMap::new(0x1000, 0x100));
        let mut s = CoverageGuided::<Prescription>::new(Arc::clone(&map));
        s.push(Prescription::root(
            vec![0],
            crate::memory::AddressPolicyKind::default(),
        ));
        assert!(
            s.pop().unwrap().flip.is_none(),
            "root counts as uncovered and schedules"
        );

        for i in 0..3 {
            s.push(prescription(i));
        }
        map.mark_direction(0x1004, false); // ord 1's flip direction covered
        let stolen = s.steal().unwrap();
        assert_eq!(
            stolen.flip.unwrap().ord,
            1,
            "thief takes the covered entry the owner wants least"
        );
        // No covered entries left: thief falls back to the oldest.
        let stolen = s.steal().unwrap();
        assert_eq!(stolen.flip.unwrap().ord, 0);
        assert_eq!(s.pop().unwrap().flip.unwrap().ord, 2);
    }

    #[test]
    fn coverage_guided_serves_the_sequential_frontier_too() {
        let map = Arc::new(CoverageMap::new(0x1000, 0x100));
        let mut s: Box<dyn PathStrategy> = Box::new(CoverageGuided::<Candidate>::new(map));
        assert_eq!(s.name(), "coverage");
        for i in 0..3 {
            s.push(candidate(i));
        }
        assert_eq!(s.frontier_len(), 3);
        let mut seen: Vec<usize> = std::iter::from_fn(|| s.pop().map(ord_of)).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
    }
}
