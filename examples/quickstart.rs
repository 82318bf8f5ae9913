//! Quickstart: assemble a tiny RISC-V program, explore it symbolically, and
//! inspect the discovered paths.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! The program reads a 32-bit word from the symbolic input region, divides a
//! constant by it, and asserts a property that only fails when the divisor
//! is zero — the RISC-V `DIVU` edge case of the paper's running example.

use binsym_repro::asm::Assembler;
use binsym_repro::binsym::Session;
use binsym_repro::isa::Spec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build the software under test. Programs mark their symbolic input
    //    with the `__sym_input` symbol and exit via `ecall` (a7 = 93).
    let elf = Assembler::new().assemble(
        r#"
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
        divu a3, a2, a1         # z = x / y   (RISC-V: x/0 = 0xffffffff)
        bltu a2, a3, fail       # "x < z" should be impossible... right?
        li   a0, 0
        li   a7, 93
        ecall
fail:
        li   a0, 1              # nonzero exit = assertion failure
        li   a7, 93
        ecall
"#,
    )?;

    // 2. Build a session and explore every feasible path. The defaults are
    //    the paper's engine: depth-first path selection, incremental
    //    bit-blast solver behind the static gate. Swap the path selection
    //    with `.strategy(...)`.
    let mut session = Session::builder(Spec::rv32im()).binary(&elf).build()?;
    let summary = session.run_all()?;

    println!("paths explored : {}", summary.paths);
    println!("solver queries : {}", summary.solver_checks);
    println!("instructions   : {}", summary.total_steps);

    // 3. Inspect the bug reports: the fail branch IS reachable, because
    //    division by zero yields all-ones (larger than x).
    for err in &summary.error_paths {
        let y = u32::from_le_bytes([err.input[0], err.input[1], err.input[2], err.input[3]]);
        println!(
            "assertion failure with input y = {y} (exit code {:?})",
            err.exit_code
        );
        assert_eq!(y, 0, "the only failing divisor is zero");
    }
    assert_eq!(summary.error_paths.len(), 1);

    // 4. Or stream paths lazily and stop at the first bug — no solver work
    //    is spent on paths beyond the ones actually consumed.
    let mut session = Session::builder(Spec::rv32im()).binary(&elf).build()?;
    let first_bug = session
        .paths()
        .find_map(|p| p.ok().filter(|p| p.is_error()))
        .expect("the divu bug is found");
    println!(
        "first failing path found after {} total instructions",
        first_bug.steps
    );
    Ok(())
}
