//! One checkpointable sharded hunt of a Table I program — the driver
//! behind the CI memory-policy and kill/resume smokes.
//!
//! ```text
//! cargo run --release -p binsym-bench --bin hunt -- \
//!     --benchmark NAME [--workers N] [--records PATH] \
//!     [--checkpoint PATH] [--checkpoint-every N] [--resume PATH] \
//!     [--memory-policy eq|symbolic:N]
//! ```
//!
//! The hunt runs on a sharded session with the warm cache, coverage-guided
//! shard policies over a shared map, and the static gate all on, and
//! asserts the program's pinned path count. `--records` writes the merged
//! record stream in the canonical wire encoding, so two runs compare with
//! `cmp`(1).
//!
//! Unlike `table1`/`fig6` (which run many sessions per invocation and
//! suffix their checkpoint files per run), `hunt` drives exactly one
//! session, so `--checkpoint`/`--resume` name the file directly — which
//! is what the CI smoke needs to kill a run mid-hunt and resume from the
//! very file it watched appear.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use binsym::{
    encode_seq, AddressPolicyKind, CoverageGuided, CoverageMap, CoverageObserver, Prescription,
    Session, SessionBuilder,
};
use binsym_bench::cli::BenchOpts;
use binsym_bench::engines::memory_policy_from_opts;
use binsym_bench::{programs, TABLE_LOOKUP, TABLE_LOOKUP_SYMBOLIC_PATHS};
use binsym_elf::ElfFile;
use binsym_isa::Spec;

/// Flags specific to this bin, layered over the shared [`BenchOpts`].
const HUNT_FLAGS: [&str; 2] = ["--benchmark", "--records"];

/// The values of [`HUNT_FLAGS`].
struct HuntArgs {
    benchmark: String,
    records: Option<PathBuf>,
}

impl HuntArgs {
    fn from_env() -> HuntArgs {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let value_of = |flag: &str| -> Option<&String> {
            args.iter()
                .position(|a| a == flag)
                .map(|i| match args.get(i + 1) {
                    Some(v) if !v.starts_with("--") => v,
                    _ => {
                        eprintln!("{flag} needs a value");
                        std::process::exit(2);
                    }
                })
        };
        let benchmark = value_of("--benchmark").cloned().unwrap_or_else(|| {
            eprintln!("--benchmark NAME is required (one of the Table I programs)");
            std::process::exit(2);
        });
        HuntArgs {
            benchmark,
            records: value_of("--records").map(PathBuf::from),
        }
    }
}

fn main() {
    let opts = BenchOpts::from_env(&HUNT_FLAGS);
    let args = HuntArgs::from_env();
    run_hunt(&args, &opts);
}

/// The invariant configuration of the hunt: sharded session with the warm
/// cache, coverage-guided scheduling over a shared map, and the word-level
/// static gate — all on. Determinism must survive the full stack, so the
/// driver exercises nothing less.
fn hunt_builder(elf: &ElfFile, workers: usize, policy: AddressPolicyKind) -> SessionBuilder {
    let map = CoverageMap::shared_for(elf);
    let policy_map = Arc::clone(&map);
    let observer_map = Arc::clone(&map);
    Session::builder(Spec::rv32im())
        .binary(elf)
        .workers(workers)
        .warm_start(true)
        .static_analysis(true)
        .address_policy(policy)
        .shard_strategy(move |_| {
            Box::new(CoverageGuided::<Prescription>::new(Arc::clone(&policy_map)))
        })
        .observer_factory(move |_| Box::new(CoverageObserver::new(Arc::clone(&observer_map))))
}

fn program(name: &str) -> programs::Program {
    programs::by_name(name).unwrap_or_else(|| {
        eprintln!("unknown benchmark {name:?} (expected a Table I program name)");
        std::process::exit(2);
    })
}

/// The pinned path count for `p` under `policy`. The `eq` concretization
/// reproduces the pinned counts everywhere (it is the default semantics);
/// the windowed model is pinned on `table-lookup` for any window covering
/// the whole table, and inert elsewhere (every other program's addresses
/// are concrete).
fn expected_paths(p: &programs::Program, policy: AddressPolicyKind) -> u64 {
    match policy {
        AddressPolicyKind::Symbolic { window } if p.name == TABLE_LOOKUP.name => {
            assert!(
                window >= 64,
                "windows smaller than the table carry no pinned count"
            );
            TABLE_LOOKUP_SYMBOLIC_PATHS
        }
        _ => p.expected_paths,
    }
}

fn run_hunt(args: &HuntArgs, opts: &BenchOpts) {
    let p = program(&args.benchmark);
    let elf = p.build();
    let workers = opts.workers.unwrap_or(2).max(1);
    let policy = memory_policy_from_opts(opts);
    let started = Instant::now();
    let mut builder = hunt_builder(&elf, workers, policy);
    if let Some(path) = &opts.checkpoint {
        builder = builder.checkpoint(path, opts.checkpoint_interval());
    }
    if let Some(path) = &opts.resume {
        builder = builder.resume(path);
    }
    let mut session = builder.build_parallel().expect("hunt session builds");
    let summary = session.run_all().expect("hunt explores");
    assert_eq!(
        summary.paths,
        expected_paths(&p, policy),
        "checkpointing/resuming must not change the path count"
    );
    if let Some(path) = &args.records {
        std::fs::write(path, encode_seq(session.records())).expect("records file writes");
    }
    println!(
        "hunt: {} — {} paths, {} solver checks in {:.2}s{}",
        p.name,
        summary.paths,
        summary.solver_checks,
        started.elapsed().as_secs_f64(),
        if opts.resume.is_some() {
            " (resumed)"
        } else {
            ""
        }
    );
}
