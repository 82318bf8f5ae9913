//! Sharded bug hunting with `ParallelSession`: the same builder that runs
//! the paper's sequential engine fans the exploration out across worker
//! threads, each owning a complete engine, exchanging pending paths as
//! plain-data replayable prescriptions.
//!
//! ```text
//! cargo run --release --example parallel_hunt [workers]
//! ```
//!
//! The SUT checks a 4-byte "PIN" digit by digit — a classic DSE workload
//! with an exponential path frontier. The merged summary is deterministic:
//! any worker count produces the identical result, with paths ordered as a
//! sequential depth-first exploration would discover them.

use binsym_repro::asm::Assembler;
use binsym_repro::binsym::Session;
use binsym_repro::isa::Spec;

const PIN_CHECK: &str = r#"
        .data
        .globl __sym_input
__sym_input:
        .space 4

        .text
        .globl _start
_start:
        la   s0, __sym_input
        li   s1, 0              # index
        li   s2, 0              # matches
loop:
        li   t0, 4
        beq  s1, t0, done
        add  t1, s0, s1
        lbu  t2, 0(t1)          # digit (symbolic)
        li   t3, 10
        bgeu t2, t3, next       # not a digit: no match
        addi t4, s1, 3          # expected digit: 3 + index
        bne  t2, t4, next
        addi s2, s2, 1
next:
        addi s1, s1, 1
        j    loop
done:
        li   t0, 4
        bne  s2, t0, ok         # all four digits correct?
        ebreak                  # "vault opens": report as a bug witness
ok:
        li   a0, 0
        li   a7, 93
        ecall
"#;

fn main() {
    let workers: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let elf = Assembler::new().assemble(PIN_CHECK).expect("assembles");

    let mut session = Session::builder(Spec::rv32im())
        .binary(&elf)
        .workers(workers)
        .build_parallel()
        .expect("builds");
    println!(
        "exploring with {} workers ({} shard policy)…",
        session.workers(),
        session.strategy_name(),
    );

    let summary = session.run_all().expect("explores");
    println!(
        "{} paths, {} solver checks, {} instructions",
        summary.paths, summary.solver_checks, summary.total_steps
    );
    for bug in &summary.error_paths {
        println!("PIN found: {:?}", bug.input);
    }
    assert_eq!(
        summary.error_paths.len(),
        1,
        "exactly one PIN opens the vault"
    );
    assert_eq!(summary.error_paths[0].input, vec![3, 4, 5, 6]);

    // The merged record stream is canonical: re-running with any worker
    // count reproduces it byte for byte.
    let first = session.records().to_vec();
    let mut again = Session::builder(Spec::rv32im())
        .binary(&elf)
        .workers(workers + 1)
        .build_parallel()
        .expect("builds");
    again.run_all().expect("explores");
    assert_eq!(first, again.records(), "deterministic merge");
    println!("re-run with {} workers: identical records ✓", workers + 1);
}
