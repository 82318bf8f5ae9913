//! Integration tests for the `Session` builder API: builder misuse, the
//! lazy `paths()` iterator vs. `run_all()`, and path-selection strategies.

use std::cell::RefCell;
use std::rc::Rc;

use binsym_repro::asm::Assembler;
use binsym_repro::bench::programs::CLIF_PARSER;
use binsym_repro::binsym::{
    AddressPolicyKind, Bfs, Candidate, Dfs, Error, PathId, PathOutcome, PathStrategy, Prescription,
    RandomRestart, Session,
};
use binsym_repro::elf::ElfFile;
use binsym_repro::isa::Spec;

/// The quickstart example's DIVU program (the paper's running example):
/// y == 0 makes 1000 / y overflow to 0xffffffff and the assert fail.
const QUICKSTART_DIVU: &str = r#"
        .data
        .globl __sym_input
__sym_input:
        .word 0                 # y: 4 symbolic bytes

        .text
        .globl _start
_start:
        la   a0, __sym_input
        lw   a1, 0(a0)          # y  (symbolic)
        li   a2, 1000           # x = 1000
        divu a3, a2, a1         # z = x / y
        bltu a2, a3, fail
        li   a0, 0
        li   a7, 93
        ecall
fail:
        li   a0, 1
        li   a7, 93
        ecall
"#;

/// Two sequential symbolic byte comparisons: 4 paths, and the flip order
/// distinguishes depth-first from breadth-first selection.
const TWO_COMPARES: &str = r#"
        .data
        .globl __sym_input
__sym_input: .byte 0, 0
        .text
        .globl _start
_start:
        la   a0, __sym_input
        li   a2, 100
        lbu  a1, 0(a0)
        bltu a1, a2, c1
c1:     lbu  a1, 1(a0)
        bltu a1, a2, c2
c2:     li   a0, 0
        li   a7, 93
        ecall
"#;

fn assemble(src: &str) -> ElfFile {
    Assembler::new().assemble(src).expect("assembles")
}

#[test]
fn builder_rejects_missing_binary() {
    let err = Session::builder(Spec::rv32im()).build().unwrap_err();
    assert!(matches!(err, Error::MissingBinary), "got {err:?}");
    assert!(err.to_string().contains("binary"));
}

#[test]
fn builder_rejects_zero_path_limit() {
    let elf = assemble(QUICKSTART_DIVU);
    let err = Session::builder(Spec::rv32im())
        .binary(&elf)
        .limit(0)
        .build()
        .unwrap_err();
    assert!(matches!(err, Error::InvalidConfig { .. }), "got {err:?}");
    assert!(err.to_string().contains("path limit"));
}

#[test]
fn paths_iterator_is_equivalent_to_run_all_on_quickstart() {
    let elf = assemble(QUICKSTART_DIVU);

    // Batch exploration.
    let summary = Session::builder(Spec::rv32im())
        .binary(&elf)
        .build()
        .expect("builds")
        .run_all()
        .expect("explores");

    // Streaming exploration of a fresh session.
    let mut session = Session::builder(Spec::rv32im())
        .binary(&elf)
        .build()
        .expect("builds");
    let outcomes: Vec<PathOutcome> = session.paths().map(|r| r.expect("path runs")).collect();

    assert_eq!(outcomes.len() as u64, summary.paths);
    assert_eq!(
        outcomes.iter().map(|o| o.steps).sum::<u64>(),
        summary.total_steps
    );
    let streamed_errors: Vec<&PathOutcome> = outcomes.iter().filter(|o| o.is_error()).collect();
    assert_eq!(streamed_errors.len(), summary.error_paths.len());
    assert_eq!(summary.error_paths.len(), 1, "the divu bug");
    assert_eq!(streamed_errors[0].input, summary.error_paths[0].input);
    // The streaming session's accumulated summary matches the batch one.
    let s2 = session.summary();
    assert_eq!(s2.paths, summary.paths);
    assert_eq!(s2.solver_checks, summary.solver_checks);
    assert_eq!(s2.error_paths, summary.error_paths);
}

#[test]
fn bfs_and_dfs_discover_the_same_paths_in_different_orders() {
    let run = |bfs: bool| -> Vec<Vec<u8>> {
        let elf = assemble(TWO_COMPARES);
        let mut builder = Session::builder(Spec::rv32im()).binary(&elf);
        builder = if bfs {
            builder.strategy(Bfs::new())
        } else {
            builder.strategy(Dfs::new())
        };
        let mut session = builder.build().expect("builds");
        let inputs: Vec<Vec<u8>> = session
            .paths()
            .map(|r| r.expect("path runs").input)
            .collect();
        inputs
    };

    let dfs = run(false);
    let bfs = run(true);
    assert_eq!(dfs.len(), 4);
    assert_eq!(bfs.len(), 4);

    // Same path set. Concrete witness bytes differ across strategies
    // (unconstrained bytes get arbitrary model values), so canonicalize
    // each input to its branch-outcome pattern before comparing.
    let pattern = |input: &Vec<u8>| (input[0] < 100, input[1] < 100);
    let mut dfs_patterns: Vec<_> = dfs.iter().map(pattern).collect();
    let mut bfs_patterns: Vec<_> = bfs.iter().map(pattern).collect();
    dfs_patterns.sort();
    bfs_patterns.sort();
    assert_eq!(
        dfs_patterns, bfs_patterns,
        "strategies must agree on the set"
    );
    assert_eq!(dfs_patterns.len(), 4);
    dfs_patterns.dedup();
    assert_eq!(dfs_patterns.len(), 4, "all four branch patterns covered");

    // …different discovery order: after the all-zero seed path, DFS flips
    // the *deepest* branch (second byte) first, BFS the *shallowest*
    // (first byte).
    assert_ne!(dfs, bfs, "selection policy must change the order");
    assert_eq!(dfs[0], vec![0, 0]);
    assert_eq!(bfs[0], vec![0, 0]);
    assert!(
        dfs[1][0] < 100 && dfs[1][1] >= 100,
        "dfs flips the deepest branch first: {:?}",
        dfs[1]
    );
    assert!(
        bfs[1][0] >= 100,
        "bfs flips the shallowest branch first: {:?}",
        bfs[1]
    );
}

#[test]
fn random_restart_and_alternate_backends_reproduce_quickstart_counts() {
    // The acceptance bar: quickstart explores 2 paths with 1 error path,
    // whatever the strategy.
    let elf = assemble(QUICKSTART_DIVU);
    let strategies: [fn() -> Box<dyn binsym_repro::binsym::PathStrategy>; 3] = [
        || Box::new(Dfs::new()),
        || Box::new(Bfs::new()),
        || Box::new(RandomRestart::with_seed(7)),
    ];
    for make in strategies {
        let s = Session::builder(Spec::rv32im())
            .binary(&elf)
            .strategy(make())
            .build()
            .expect("builds")
            .run_all()
            .expect("explores");
        assert_eq!(s.paths, 2, "quickstart has 2 paths");
        assert_eq!(s.error_paths.len(), 1, "and 1 error path");
        let y = u32::from_le_bytes(s.error_paths[0].input[..4].try_into().unwrap());
        assert_eq!(y, 0);
    }
}

#[test]
fn parallel_builder_reproduces_quickstart_and_finds_the_witness() {
    // The same builder grows the sharded session; the divu bug's witness
    // (y == 0) is the unique model, so even the input bytes must match
    // the sequential run's.
    let elf = assemble(QUICKSTART_DIVU);
    let mut session = Session::builder(Spec::rv32im())
        .binary(&elf)
        .workers(2)
        .build_parallel()
        .expect("builds");
    let s = session.run_all().expect("explores");
    assert_eq!(s.paths, 2, "quickstart has 2 paths");
    assert_eq!(s.error_paths.len(), 1, "and 1 error path");
    let y = u32::from_le_bytes(s.error_paths[0].input[..4].try_into().unwrap());
    assert_eq!(y, 0);
    // The merged record stream is available, in canonical order.
    assert_eq!(session.records().len(), 2);
    assert!(session.records().iter().any(|r| r.is_error()));
}

/// A user strategy wrapping the built-in depth-first policy and noting the
/// id of every candidate it hands out — the shape the hunt benchmark uses
/// to name each sequential path. Only `PathStrategy` is in scope, so the
/// calls on the wrapped `Dfs<Candidate>` resolve through it.
#[derive(Debug)]
struct IdTap {
    dfs: Dfs<Candidate>,
    last: Rc<RefCell<PathId>>,
}

impl PathStrategy for IdTap {
    fn name(&self) -> &'static str {
        self.dfs.name()
    }
    fn push(&mut self, candidate: Candidate) {
        PathStrategy::push(&mut self.dfs, candidate);
    }
    fn pop(&mut self) -> Option<Candidate> {
        let candidate = PathStrategy::pop(&mut self.dfs)?;
        *self.last.borrow_mut() = candidate.prescription.id.clone();
        Some(candidate)
    }
    fn frontier_len(&self) -> usize {
        self.dfs.frontier_len()
    }
}

#[test]
fn user_strategy_wrapping_dfs_names_each_sequential_path() {
    // name() and frontier_len() forward to the wrapped policy.
    let last = Rc::new(RefCell::new(PathId::root()));
    let mut tap = IdTap {
        dfs: Dfs::new(),
        last: Rc::clone(&last),
    };
    assert_eq!(tap.name(), "dfs");
    for ord in 0..3 {
        tap.push(Candidate {
            prescription: Prescription {
                id: PathId::root().child(ord),
                input: vec![0],
                flip: None,
                policy: AddressPolicyKind::default(),
            },
            trail: Rc::new([]),
        });
    }
    assert_eq!(tap.frontier_len(), 3);
    let popped = tap.pop().expect("pending").prescription.id;
    assert_eq!(popped, PathId::root().child(2), "depth-first");
    assert_eq!(*last.borrow(), popped);
    assert_eq!(tap.frontier_len(), 2);

    // Each path a session yields gets the id of the most recent pop (the
    // root path, which is never pushed, keeps `PathId::root()`): one id
    // per path, strictly increasing in depth-first discovery order.
    let elf = CLIF_PARSER.build();
    let last = Rc::new(RefCell::new(PathId::root()));
    let mut session = Session::builder(Spec::rv32im())
        .binary(&elf)
        .strategy(IdTap {
            dfs: Dfs::new(),
            last: Rc::clone(&last),
        })
        .build()
        .expect("builds");
    assert!(format!("{session:?}").contains("strategy: \"dfs\""));
    let mut ids = Vec::new();
    for path in session.paths() {
        path.expect("explores");
        ids.push(last.borrow().clone());
    }
    assert_eq!(ids.len() as u64, CLIF_PARSER.expected_paths);
    assert_eq!(ids[0], PathId::root());
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids strictly increase");
}
