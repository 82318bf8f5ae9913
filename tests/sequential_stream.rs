//! Pins the sequential engine's path stream byte for byte.
//!
//! The determinism suites compare the sequential `Session` with the sharded
//! engine only up to solver model choice (path sets, counts and totals), so
//! they would not notice a change in which witness bytes the sequential
//! engine's incremental solver returns. This test hashes, for every path in
//! discovery order, the witness input, the exit, the step count, the trail
//! length and the branch decisions, and compares the digest with a constant
//! recorded from the engine. A deliberate change to the sequential stream
//! re-pins these constants; any other change to them is a regression.
//!
//! The witnesses are models of the incremental solver, so they depend on
//! the CNF the bit-blaster emits: the borrow chain of majority gates of
//! every comparison and the XOR3/majority full adders of every addition
//! (`binsym_smt::bitblast`). Changing an encoding re-pins the digests
//! whose models it moves.
//!
//! The session keeps one solver for its whole exploration and poses each
//! flip query as assumptions: the prefix and the flipped condition are
//! blasted in that order and assumed for one check. So each witness also
//! depends on the learnt clauses, activities and saved phases of every
//! earlier query, and a change to how queries are posed re-pins the
//! digests.

use binsym_repro::bench::programs::{self, Program};
use binsym_repro::binsym::{AddressPolicyKind, PathOutcome, Session, StepResult, TrailEntry};
use binsym_repro::isa::Spec;

/// 64-bit FNV-1a: a fixed, toolchain-independent digest.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn path(&mut self, outcome: &PathOutcome) {
        self.u64(outcome.input.len() as u64);
        self.bytes(&outcome.input);
        match outcome.exit {
            StepResult::Exited(code) => {
                self.bytes(&[0]);
                self.u64(u64::from(code));
            }
            StepResult::Break => self.bytes(&[1]),
            StepResult::Continue => self.bytes(&[2]),
        }
        self.u64(outcome.steps);
        self.u64(outcome.trail.len() as u64);
        let decisions: Vec<u8> = outcome
            .trail
            .iter()
            .filter_map(|e| match *e {
                TrailEntry::Branch { taken, .. } => Some(u8::from(taken)),
                TrailEntry::Concretize { .. } => None,
            })
            .collect();
        self.u64(decisions.len() as u64);
        self.bytes(&decisions);
    }
}

/// Path count and stream digest of a default sequential exploration.
fn stream_digest(program: &Program, policy: AddressPolicyKind) -> (u64, u64) {
    let elf = program.build();
    let mut session = Session::builder(Spec::rv32im())
        .binary(&elf)
        .address_policy(policy)
        .build()
        .expect("builds");
    let mut digest = Fnv::new();
    let mut paths = 0;
    for outcome in session.paths() {
        digest.path(&outcome.expect("path executes"));
        paths += 1;
    }
    (paths, digest.0)
}

#[test]
fn clif_parser_stream_is_pinned() {
    let (paths, digest) = stream_digest(&programs::CLIF_PARSER, AddressPolicyKind::ConcretizeEq);
    assert_eq!(paths, programs::CLIF_PARSER.expected_paths);
    assert_eq!(digest, 0xb2a2_6e2d_0a22_194b, "digest {digest:#018x}");
}

#[test]
fn table_lookup_symbolic_stream_is_pinned() {
    let (paths, digest) = stream_digest(
        &programs::TABLE_LOOKUP,
        AddressPolicyKind::Symbolic { window: 64 },
    );
    assert_eq!(paths, programs::TABLE_LOOKUP_SYMBOLIC_PATHS);
    assert_eq!(digest, 0x7db9_70b8_aa17_1245, "digest {digest:#018x}");
}

#[test]
fn bubble_sort_stream_is_pinned() {
    let (paths, digest) = stream_digest(&programs::BUBBLE_SORT, AddressPolicyKind::ConcretizeEq);
    assert_eq!(paths, programs::BUBBLE_SORT.expected_paths);
    assert_eq!(digest, 0x1571_db00_9b7e_c162, "digest {digest:#018x}");
}

#[test]
fn uri_parser_stream_is_pinned() {
    let (paths, digest) = stream_digest(&programs::URI_PARSER, AddressPolicyKind::ConcretizeEq);
    assert_eq!(paths, programs::URI_PARSER.expected_paths);
    assert_eq!(digest, 0xe574_3f42_913c_bf41, "digest {digest:#018x}");
}

#[test]
#[ignore = "heavy: run in release (CI runs with --include-ignored)"]
fn base64_encode_stream_is_pinned() {
    let (paths, digest) = stream_digest(&programs::BASE64_ENCODE, AddressPolicyKind::ConcretizeEq);
    assert_eq!(paths, programs::BASE64_ENCODE.expected_paths);
    assert_eq!(digest, 0xc9a2_337e_7a5d_4311, "digest {digest:#018x}");
}

#[test]
#[ignore = "heavy: run in release (CI runs with --include-ignored)"]
fn insertion_sort_stream_is_pinned() {
    let (paths, digest) = stream_digest(&programs::INSERTION_SORT, AddressPolicyKind::ConcretizeEq);
    assert_eq!(paths, programs::INSERTION_SORT.expected_paths);
    assert_eq!(digest, 0x6d5f_d6e8_d1b9_7899, "digest {digest:#018x}");
}
