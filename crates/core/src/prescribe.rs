//! Replayable path prescriptions: plain-data descriptions of pending paths.
//!
//! The exploration loop continues a pending branch flip *in place*: the
//! [`crate::Candidate`] it queues shares the parent path's recorded trail,
//! whose [`Term`] handles point into the explorer's own term manager, so a
//! candidate is only meaningful to the engine that created it. That
//! coupling is what pins an exploration to one thread — term handles are
//! engine-local (see [`binsym_smt::TermManager::reset`] on handle hygiene)
//! and the `Rc`-based observer/executor plumbing is not `Sync`.
//!
//! A [`Prescription`] breaks the coupling. It identifies the same pending
//! path with plain data only — the concrete input of the *parent* path plus
//! the ordinal of the branch to flip — and is therefore `Send + 'static`.
//! Any engine can *replay* it from scratch: re-execute the parent input,
//! recording the symbolic trail up to the prescribed branch (execution is
//! deterministic, so the trail is reproduced exactly), and continue the
//! loop from the candidate that trail makes.
//!
//! A [`crate::ParallelSession`] worker starts each *unit* that way, from a
//! fresh term manager and a fresh solver, so a unit is a pure function of
//! its root prescription — the foundation of the deterministic
//! work-stealing exploration.
//!
//! [`Term`]: binsym_smt::Term

use std::cmp::Ordering;

use binsym_smt::{Model, Term, TermManager};

use crate::error::Error;
use crate::machine::{StepResult, TrailEntry};
use crate::memory::AddressPolicyKind;

/// Canonical identity of a path in the exploration tree.
///
/// The root path (the all-zero input) has the empty id; a path discovered
/// by flipping branch ordinal `k` of path `p` has id `p.child(k)`. The
/// [`Ord`] impl reproduces the *sequential depth-first discovery order* of
/// [`crate::Session`] with the default [`crate::Dfs`] strategy: parents
/// order before their children, and among siblings the deeper flip orders
/// first (the sequential engine pushes a path's flip candidates shallow to
/// deep and pops the deepest first). Sorting any set of outcomes by their
/// `PathId` therefore yields the exact order a sequential exploration would
/// have produced them in — independent of how many workers found them.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct PathId(Vec<u32>);

impl PathId {
    /// The id of the root path (initial all-zero input).
    pub fn root() -> Self {
        PathId(Vec::new())
    }

    /// The id of the path obtained by flipping branch ordinal `ord` of the
    /// path identified by `self`.
    pub fn child(&self, ord: usize) -> Self {
        let mut v = Vec::with_capacity(self.0.len() + 1);
        v.extend_from_slice(&self.0);
        v.push(ord as u32);
        PathId(v)
    }

    /// The flip ordinals from the root, outermost first.
    pub fn as_slice(&self) -> &[u32] {
        &self.0
    }

    /// Rebuilds an id from its ordinal list (the [`crate::persist`] codec's
    /// decode path — the wire carries exactly `as_slice`).
    pub(crate) fn from_ordinals(ordinals: Vec<u32>) -> PathId {
        PathId(ordinals)
    }

    /// Tree depth (number of flips from the root path).
    pub fn depth(&self) -> usize {
        self.0.len()
    }
}

impl Ord for PathId {
    fn cmp(&self, other: &Self) -> Ordering {
        for (a, b) in self.0.iter().zip(other.0.iter()) {
            // Deeper flips first: DESCENDING ordinal at the first divergence.
            match b.cmp(a) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        // A parent (prefix) orders before its descendants.
        self.0.len().cmp(&other.0.len())
    }
}

impl PartialOrd for PathId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The branch flip a [`Prescription`] asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flip {
    /// Ordinal of the branch to flip, counted among the *branch* entries of
    /// the parent path's trail.
    pub ord: usize,
    /// Direction the parent path took at that branch; the replay asserts
    /// the opposite.
    pub taken: bool,
    /// Program counter of the branch site. Carried so scheduling policies
    /// (e.g. [`crate::CoverageGuided`]) can rank pending flips against a
    /// coverage map *without* replaying them; a unit root's replay also
    /// cross-checks it against the reproduced trail as a divergence guard.
    pub pc: u32,
}

impl Flip {
    /// Locates this flip in a replayed parent trail: returns the trail
    /// index of the prescribed branch and its condition term, after
    /// cross-checking ordinal, direction, and branch site against the
    /// reproduced trail. These are **the** divergence guards of
    /// prescription replay, which every unit root of a
    /// [`crate::ParallelSession`] passes.
    ///
    /// # Errors
    /// [`Error::ReplayDivergence`] when the trail has fewer branches than
    /// prescribed, or the branch at the ordinal differs in direction or
    /// site.
    pub fn locate(&self, trail: &[TrailEntry]) -> Result<(usize, Term), Error> {
        let mut ord = 0usize;
        for (i, entry) in trail.iter().enumerate() {
            if let TrailEntry::Branch { cond, taken, pc } = *entry {
                if ord == self.ord {
                    if taken != self.taken {
                        return Err(Error::ReplayDivergence {
                            what: "parent replay took the prescribed branch in the other direction",
                        });
                    }
                    if pc != self.pc {
                        return Err(Error::ReplayDivergence {
                            what: "parent replay reached the prescribed branch at a different site",
                        });
                    }
                    return Ok((i, cond));
                }
                ord += 1;
            }
        }
        Err(Error::ReplayDivergence {
            what: "parent replay recorded fewer branches than prescribed",
        })
    }

    /// Builds this flip's feasibility query from the parent trail: the path
    /// terms of every entry before the prescribed branch, and the branch
    /// condition in the direction the flip asserts. The exploration loop's
    /// one query builder, so every engine interns the same terms in the
    /// same order — prefix first — and hands its solver identical queries.
    ///
    /// # Errors
    /// As [`Flip::locate`].
    pub(crate) fn query(
        &self,
        trail: &[TrailEntry],
        tm: &mut TermManager,
    ) -> Result<(Vec<Term>, Term), Error> {
        let (i, cond) = self.locate(trail)?;
        let prefix = trail[..i].iter().map(|e| e.path_term(tm)).collect();
        let flipped = if self.taken { tm.not(cond) } else { cond };
        Ok((prefix, flipped))
    }
}

/// Extracts the `in{i}` witness bytes of a feasibility model — the
/// concrete input that drives execution down the materialized path.
pub fn witness_bytes(model: &Model, input_len: u32) -> Vec<u8> {
    (0..input_len)
        .map(|i| model.value(&format!("in{i}")).unwrap_or(0) as u8)
        .collect()
}

/// A pending path as plain data: `Send + 'static`, replayable on any
/// engine.
///
/// See the [module docs](self) for the replay algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prescription {
    /// Canonical identity of the path this prescription materializes.
    pub id: PathId,
    /// Concrete input driving the replay: the path's own input for the
    /// root prescription (`flip == None`), the *parent* path's input
    /// otherwise.
    pub input: Vec<u8>,
    /// The branch flip to apply; `None` for the root prescription, whose
    /// input is executed directly without a feasibility query.
    pub flip: Option<Flip>,
    /// The address-concretization policy the prescribing exploration ran
    /// under. Recorded so replay is exact: a replaying engine cross-checks
    /// this against its own executor's [`crate::PathExecutor::policy`] and
    /// refuses ([`Error::ReplayDivergence`]) to replay under a different
    /// one — the trail, and with it every branch ordinal, depends on how
    /// symbolic addresses were resolved.
    pub policy: AddressPolicyKind,
}

impl Prescription {
    /// The root prescription: execute `input` directly (no solver query)
    /// under the given address policy.
    pub fn root(input: Vec<u8>, policy: AddressPolicyKind) -> Self {
        Prescription {
            id: PathId::root(),
            input,
            flip: None,
            policy,
        }
    }
}

/// Plain-data record of one materialized path — the `Send` counterpart of
/// [`crate::PathOutcome`], with the engine-local trail terms replaced by
/// scalar facts. [`crate::ParallelSession`] returns these, sorted by
/// [`PathId`], as its deterministic merged event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathRecord {
    /// Canonical identity of the path.
    pub id: PathId,
    /// The concrete input that drove execution down this path.
    pub input: Vec<u8>,
    /// How the path terminated.
    pub exit: StepResult,
    /// Instructions executed on the path.
    pub steps: u64,
    /// Length of the path trail (branches + concretizations).
    pub trail_len: usize,
    /// The direction taken at each symbolic branch, in trail order — the
    /// model-independent fingerprint of the path (two explorations agree on
    /// a path iff they agree on its decisions, even when their solvers
    /// return different witness inputs).
    pub decisions: Vec<bool>,
}

impl PathRecord {
    /// True when the path terminated abnormally (nonzero exit or `ebreak`).
    pub fn is_error(&self) -> bool {
        !matches!(self.exit, StepResult::Exited(0) | StepResult::Continue)
    }

    /// Number of symbolic branches on the path.
    pub fn branches(&self) -> u64 {
        self.decisions.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(ords: &[usize]) -> PathId {
        let mut id = PathId::root();
        for &o in ords {
            id = id.child(o);
        }
        id
    }

    #[test]
    fn ordering_matches_sequential_dfs_discovery() {
        // The worked example from the session tests: three branches on the
        // root path, flips always feasible. Sequential DFS discovers:
        // [], [2], [1], [1,2], [0], [0,2], [0,1], [0,1,2].
        let discovery = [
            id(&[]),
            id(&[2]),
            id(&[1]),
            id(&[1, 2]),
            id(&[0]),
            id(&[0, 2]),
            id(&[0, 1]),
            id(&[0, 1, 2]),
        ];
        let mut sorted = discovery.to_vec();
        sorted.reverse(); // scramble
        sorted.sort();
        assert_eq!(sorted.as_slice(), discovery.as_slice());
    }

    #[test]
    fn parent_orders_before_children_and_deep_flips_first() {
        assert!(id(&[]) < id(&[5]));
        assert!(id(&[3]) < id(&[3, 7]));
        assert!(id(&[7]) < id(&[3]), "deeper sibling flip first");
        assert!(id(&[3, 9]) < id(&[2, 1]), "first divergence decides");
        assert_eq!(id(&[4, 2]).cmp(&id(&[4, 2])), Ordering::Equal);
    }

    #[test]
    fn prescription_is_send_and_static() {
        fn assert_send<T: Send + 'static>() {}
        assert_send::<Prescription>();
        assert_send::<PathId>();
        assert_send::<PathRecord>();
    }

    #[test]
    fn divergent_prescriptions_error_like_cold_replay() {
        // The divergence guards a unit root's replayed parent trail must
        // pass: the prescribed ordinal exists, and the branch there has the
        // recorded direction and site.
        use crate::observe::NullObserver;
        use crate::session::{PathExecutor, SpecExecutor};
        use binsym_asm::Assembler;
        use binsym_isa::Spec;

        let elf = Assembler::new()
            .assemble(
                ".data\n__sym_input: .byte 0, 0\n.text\n_start:\n    la a0, __sym_input\n    \
                 li a2, 100\n    lbu a1, 0(a0)\n    bltu a1, a2, c1\nc1: lbu a1, 1(a0)\n    \
                 bltu a1, a2, c2\nc2: li a0, 0\n    li a7, 93\n    ecall\n",
            )
            .expect("assembles");
        let mut exec = SpecExecutor::new(Spec::rv32im(), &elf, None).expect("sym input");
        let mut tm = TermManager::new();
        let trail = exec
            .execute_path(&mut tm, &[0, 0], 1000, &mut NullObserver)
            .expect("executes")
            .trail;
        let (at, pc) = trail
            .iter()
            .enumerate()
            .find_map(|(i, e)| match *e {
                TrailEntry::Branch { pc, taken, .. } => Some(((i, taken), pc)),
                TrailEntry::Concretize { .. } => None,
            })
            .expect("a branch");
        let (index, taken) = at;
        let flip = Flip { ord: 0, taken, pc };
        assert_eq!(flip.locate(&trail).map(|(i, _)| i).ok(), Some(index));
        let divergent = [
            Flip { ord: 17, ..flip },
            Flip {
                taken: !taken,
                ..flip
            },
            Flip { pc: pc ^ 4, ..flip },
        ];
        for bogus in divergent {
            assert!(
                matches!(bogus.locate(&trail), Err(Error::ReplayDivergence { .. })),
                "{bogus:?}"
            );
        }
    }

    #[test]
    fn record_error_classification() {
        let rec = |exit| PathRecord {
            id: PathId::root(),
            input: vec![0],
            exit,
            steps: 1,
            trail_len: 0,
            decisions: Vec::new(),
        };
        assert!(!rec(StepResult::Exited(0)).is_error());
        assert!(rec(StepResult::Exited(3)).is_error());
        assert!(rec(StepResult::Break).is_error());
    }
}
