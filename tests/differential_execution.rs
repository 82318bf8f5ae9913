//! Differential property tests across the three independent execution
//! stacks in this repository:
//!
//! 1. the concrete reference interpreter (`binsym-interp`),
//! 2. the symbolic modular interpreter (`binsym` core) driven with fully
//!    concrete-valued symbolic inputs,
//! 3. the (fixed) IR-lifter engine (`binsym-lifter`).
//!
//! Random straight-line RV32IM programs are generated, assembled, and
//! executed on all three; architectural results must agree bit-for-bit.
//! This is the in-repo analog of the paper's translational-correctness
//! argument: three different translations of the same binary must have the
//! same semantics.
//!
//! The path-set oracle goes one step further. Random programs with forward
//! branches and input-indexed table accesses read only one or two
//! symbolic bytes, so the interpreter can run every input and group them
//! into classes by pc sequence. Each exploration (sequential, sharded over
//! 1 and 4 cold workers and over 4 warm-start workers, and the fixed IR
//! lifter run sequentially, under `eq` and `symbolic:64`) must be sound —
//! every witness replays to the recorded exit and step count, and no two
//! paths share a class — and, where the policy loses nothing, complete:
//! one path per class. The five angr lifter bugs serve as its mutants:
//! each single-bug lifter must miss paths on some program.
//!
//! Random cases come from a deterministic in-repo generator (no third-party
//! property-testing dependency is available in the build environment); the
//! fixed seeds keep failures reproducible.

use std::collections::HashSet;

use binsym_repro::asm::Assembler;
use binsym_repro::binsym::{
    AddressPolicyKind, NullObserver, PathExecutor, Session, SpecExecutor, StepResult, SymMachine,
};
use binsym_repro::elf::ElfFile;
use binsym_repro::interp::{self, Exit, Machine};
use binsym_repro::isa::Spec;
use binsym_repro::lifter::{EngineConfig, LifterBugs, LifterExecutor};
use binsym_repro::smt::TermManager;
use binsym_testutil::Rng;

/// A random 8-byte symbolic-input image.
fn input(rng: &mut Rng) -> [u8; 8] {
    let mut out = [0u8; 8];
    for b in &mut out {
        *b = rng.next_u8();
    }
    out
}

/// ALU register-register mnemonics to sample from. The last [`DIVIDES`]
/// branch inside their rv32m semantics (division by zero, signed
/// overflow); both sides of such a branch share one pc sequence.
const ALU_RR: &[&str] = &[
    "add", "sub", "xor", "or", "and", "sll", "srl", "sra", "slt", "sltu", "mul", "mulh", "mulhu",
    "mulhsu", "div", "divu", "rem", "remu",
];

/// The division mnemonics at the end of [`ALU_RR`].
const DIVIDES: usize = 4;

/// Conditional branch mnemonics.
const BRANCHES: &[&str] = &["beq", "bne", "blt", "bge", "bltu", "bgeu"];

/// ALU register-immediate mnemonics.
const ALU_RI: &[&str] = &["addi", "xori", "ori", "andi", "slti", "sltiu"];

/// Shift-immediate mnemonics.
const SHIFT_I: &[&str] = &["slli", "srli", "srai"];

/// Registers the generator may use freely (avoids the s0/s1/s2 bases, the
/// t3-t5 temporaries and a7).
const POOL: &[&str] = &["a0", "a1", "a2", "a3", "a4", "a5", "t0", "t1", "t2"];

/// Symbolic input bytes of the straight-line programs.
const WIDE_INPUT: usize = 8;

/// A generated program.
struct Program {
    src: String,
    /// Whether it loads or stores through the table at an input-derived
    /// index (which `eq` pins, so that policy may miss paths).
    indexes_table: bool,
}

/// Builds a random program over `input_len` symbolic bytes from a byte
/// recipe, one operation per 4 recipe bytes: ALU ops, a store and load
/// through a scratch buffer, or a load from the input.
///
/// With `control`, an operation may also be a forward branch or a byte
/// load/store through a 64-byte table at an input-derived index, and no
/// division is emitted. Every branch skips at least one instruction, so
/// its two sides trace different pc sequences. The table sits first,
/// 64-aligned, so the `symbolic:64` window of every index is the table;
/// `__sym_input` sits last, so the input region ends the data segment.
fn gen_program(recipe: &[u8], input_len: usize, control: bool) -> Program {
    let mut body = String::new();
    let reg = |b: u8| POOL[(b as usize) % POOL.len()];
    let (ops, alu_rr) = if control {
        (10, &ALU_RR[..ALU_RR.len() - DIVIDES])
    } else {
        (6, ALU_RR)
    };
    let mut indexes_table = false;
    // Open branches: (label, operations still to skip).
    let mut open: Vec<(usize, u8)> = Vec::new();
    let mut i = 0;
    while i + 4 <= recipe.len() {
        let [op, a, b, c] = [recipe[i], recipe[i + 1], recipe[i + 2], recipe[i + 3]];
        i += 4;
        match op % ops {
            0 | 1 => {
                let m = alu_rr[(op as usize / 7) % alu_rr.len()];
                body.push_str(&format!("        {m} {}, {}, {}\n", reg(a), reg(b), reg(c)));
            }
            2 => {
                let m = ALU_RI[(op as usize / 7) % ALU_RI.len()];
                let imm = i32::from(b as i8) * 13;
                body.push_str(&format!("        {m} {}, {}, {imm}\n", reg(a), reg(c)));
            }
            3 => {
                let m = SHIFT_I[(op as usize / 7) % SHIFT_I.len()];
                body.push_str(&format!("        {m} {}, {}, {}\n", reg(a), reg(c), b % 32));
            }
            4 => {
                // Store then load back from the scratch buffer.
                let off = (b % 60) & !3;
                let (st, ld) = match c % 3 {
                    0 => ("sb", "lbu"),
                    1 => ("sh", "lh"),
                    _ => ("sw", "lw"),
                };
                body.push_str(&format!("        {st} {}, {off}(s1)\n", reg(a)));
                body.push_str(&format!("        {ld} {}, {off}(s1)\n", reg(c)));
            }
            5 => {
                let signed_loads = ["lb", "lbu", "lh", "lhu"];
                let m = signed_loads[(c as usize) % signed_loads.len()];
                let off = b as usize % input_len;
                body.push_str(&format!("        {m} {}, {off}(s0)\n", reg(a)));
            }
            6..=8 => {
                // Forward branch over the next 1-3 operations, against
                // another register or a byte constant.
                let m = BRANCHES[(op as usize / 10) % BRANCHES.len()];
                let (lhs, rhs) = if c % 2 == 0 {
                    body.push_str(&format!("        andi t3, {}, 255\n", reg(a)));
                    body.push_str(&format!("        li   t5, {b}\n"));
                    ("t3", "t5")
                } else {
                    (reg(a), reg(c / 2))
                };
                let label = i / 4;
                body.push_str(&format!("        {m} {lhs}, {rhs}, skip{label}\n"));
                open.push((label, 1 + a / 9 % 3));
                continue;
            }
            _ => {
                indexes_table = true;
                body.push_str(&format!("        andi t4, {}, 63\n", reg(b)));
                body.push_str("        add  t4, t4, s2\n");
                let line = match c % 3 {
                    0 => format!("        sb   {}, 0(t4)\n", reg(a)),
                    1 => format!("        lbu  {}, 0(t4)\n", reg(a)),
                    _ => format!("        lb   {}, 0(t4)\n", reg(a)),
                };
                body.push_str(&line);
            }
        }
        open.retain_mut(|(label, left)| {
            *left -= 1;
            if *left == 0 {
                body.push_str(&format!("skip{label}:\n"));
            }
            *left > 0
        });
    }
    // Branches still open skip at least the fold below.
    let closing: String = open
        .iter()
        .map(|(label, _)| format!("skip{label}:\n"))
        .collect();
    // 64 distinct bytes (167 is odd, so k -> 167k is a bijection mod 256).
    let table = (0..64u8)
        .map(|k| k.wrapping_mul(167).wrapping_add(recipe[0]).to_string())
        .collect::<Vec<_>>()
        .join(", ");
    // The pool registers load the input bytes in turn; one that repeats an
    // earlier byte gets a distinct constant mixed in.
    let loads: String = POOL
        .iter()
        .enumerate()
        .map(|(k, r)| {
            let load = format!("        lbu  {r}, {}(s0)\n", k % input_len);
            if k < input_len {
                load
            } else {
                format!("{load}        xori {r}, {r}, {}\n", k * 37)
            }
        })
        .collect();
    let src = format!(
        r#"
        .data
        .balign 64
table:
        .byte {table}
scratch:
        .space 64
        .globl __sym_input
__sym_input:
        .space {input_len}

        .text
        .globl _start
_start:
        la   s0, __sym_input
        la   s1, scratch
        la   s2, table
{loads}{body}
        # fold the architectural state into the exit code
        xor  a0, a0, a1
        xor  a0, a0, a2
        xor  a0, a0, a3
        xor  a0, a0, a4
        xor  a0, a0, a5
        xor  a0, a0, t0
        xor  a0, a0, t1
        xor  a0, a0, t2
{closing}        li   a7, 93
        ecall
"#
    );
    Program { src, indexes_table }
}

fn run_concrete(src: &str, input: &[u8; 8]) -> (u32, Vec<u32>) {
    let elf = Assembler::new().assemble(src).expect("assembles");
    let mut m = Machine::new(Spec::rv32im());
    m.load_elf(&elf);
    let base = elf.symbol("__sym_input").expect("symbol").value;
    m.mem.store_slice(base, input);
    match m.run(100_000).expect("runs") {
        Exit::Exited(code) => {
            let regs = m.regs.iter().map(|(_, &v)| v).collect();
            (code, regs)
        }
        other => panic!("unexpected exit {other:?}"),
    }
}

fn run_symbolic(src: &str, input: &[u8; 8]) -> (u32, Vec<u32>) {
    let elf = Assembler::new().assemble(src).expect("assembles");
    let mut tm = TermManager::new();
    let mut m = SymMachine::new(Spec::rv32im());
    m.load_elf(&elf);
    let base = elf.symbol("__sym_input").expect("symbol").value;
    m.mark_symbolic(&mut tm, base, 8, "in", input);
    for _ in 0..100_000 {
        match m.step(&mut tm).expect("steps") {
            StepResult::Continue => {}
            StepResult::Exited(code) => {
                let regs = m.regs.iter().map(|(_, v)| v.concrete).collect();
                return (code, regs);
            }
            StepResult::Break => panic!("unexpected break"),
        }
    }
    panic!("out of fuel");
}

fn run_lifter(src: &str, input: &[u8; 8]) -> u32 {
    let elf = Assembler::new().assemble(src).expect("assembles");
    let mut exec = LifterExecutor::new(
        &elf,
        EngineConfig {
            bugs: LifterBugs::NONE,
            cache_blocks: true,
            interp_overhead: 0,
        },
    )
    .expect("sym input");
    let mut tm = TermManager::new();
    let out = exec
        .execute_path(&mut tm, input, 100_000, &mut NullObserver)
        .expect("executes");
    match out.exit {
        StepResult::Exited(code) => code,
        other => panic!("unexpected exit {other:?}"),
    }
}

fn run_spec_executor(src: &str, input: &[u8; 8]) -> u32 {
    let elf = Assembler::new().assemble(src).expect("assembles");
    let mut exec = SpecExecutor::new(Spec::rv32im(), &elf, None).expect("sym input");
    let mut tm = TermManager::new();
    let out = exec
        .execute_path(&mut tm, input, 100_000, &mut NullObserver)
        .expect("executes");
    match out.exit {
        StepResult::Exited(code) => code,
        other => panic!("unexpected exit {other:?}"),
    }
}

#[test]
fn concrete_and_symbolic_interpreters_agree() {
    let mut rng = Rng::new(0xd1ff_0001);
    for _ in 0..48 {
        let len = 8 + (rng.next_u64() as usize) % 56;
        let recipe = rng.bytes(len);
        let input = input(&mut rng);
        let src = gen_program(&recipe, WIDE_INPUT, false).src;
        let (code_c, regs_c) = run_concrete(&src, &input);
        let (code_s, regs_s) = run_symbolic(&src, &input);
        assert_eq!(code_c, code_s, "exit codes differ\n{src}");
        assert_eq!(regs_c, regs_s, "register files differ\n{src}");
    }
}

#[test]
fn lifter_engine_agrees_with_formal_semantics() {
    let mut rng = Rng::new(0xd1ff_0002);
    for _ in 0..48 {
        let len = 8 + (rng.next_u64() as usize) % 56;
        let recipe = rng.bytes(len);
        let input = input(&mut rng);
        let src = gen_program(&recipe, WIDE_INPUT, false).src;
        let (code_c, _) = run_concrete(&src, &input);
        let code_l = run_lifter(&src, &input);
        assert_eq!(code_c, code_l, "lifter diverges\n{src}");
        let code_e = run_spec_executor(&src, &input);
        assert_eq!(code_c, code_e, "spec executor diverges\n{src}");
    }
}

/// One run's termination: how it ended and after how many instructions.
type Ending = (StepResult, u64);

/// Runs `input` concretely from `template` (a machine with the program
/// loaded); returns the FNV-1a hash of the pc sequence and the ending.
fn concrete_class(template: &Machine, addr: u32, input: &[u8]) -> (u64, Ending) {
    let mut m = template.clone();
    m.mem.store_slice(addr, input);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    loop {
        for b in m.pc.to_le_bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let exit = match m.step().expect("interpreter runs") {
            interp::StepResult::Continue => continue,
            interp::StepResult::Exited(code) => StepResult::Exited(code),
            interp::StepResult::Break => StepResult::Break,
        };
        return (hash, (exit, m.steps));
    }
}

/// One exploration of the path-set oracle.
#[derive(Debug, Clone, Copy)]
enum Run {
    /// The sequential `Session` on the formal semantics.
    Sequential,
    /// A `ParallelSession` with `workers` workers, warm-started when `warm`.
    Parallel { workers: usize, warm: bool },
    /// The sequential `Session` on the IR lifter with `bugs` reinstated.
    Lifter(LifterBugs),
}

/// Every (witness, ending) pair of one exploration of `elf` under `policy`.
fn explore(elf: &ElfFile, policy: AddressPolicyKind, run: Run) -> Vec<(Vec<u8>, Ending)> {
    let builder = match run {
        Run::Lifter(bugs) => {
            let config = EngineConfig {
                bugs,
                ..EngineConfig::binsec()
            };
            let exec = LifterExecutor::new(elf, config).expect("sym input");
            Session::executor_builder(exec.with_policy(policy))
        }
        Run::Sequential | Run::Parallel { .. } => Session::builder(Spec::rv32im())
            .binary(elf)
            .address_policy(policy),
    };
    match run {
        Run::Sequential | Run::Lifter(_) => builder
            .build()
            .expect("builds")
            .paths()
            .map(|p| {
                let p = p.expect("path runs");
                (p.input, (p.exit, p.steps))
            })
            .collect(),
        Run::Parallel { workers, warm } => {
            let mut session = builder
                .workers(workers)
                .warm_start(warm)
                .build_parallel()
                .expect("builds");
            session.run_all().expect("explores");
            session
                .records()
                .iter()
                .map(|r| (r.input.clone(), (r.exit, r.steps)))
                .collect()
        }
    }
}

/// A program and the concrete path classes of all `256^input_len` inputs.
struct ClassSet {
    elf: ElfFile,
    /// The interpreter with the program loaded.
    template: Machine,
    /// Address of `__sym_input`.
    addr: u32,
    classes: HashSet<u64>,
}

impl ClassSet {
    fn new(program: &Program, input_len: usize) -> Self {
        let elf = Assembler::new().assemble(&program.src).expect("assembles");
        let addr = elf.symbol("__sym_input").expect("symbol").value;
        let mut template = Machine::new(Spec::rv32im());
        template.load_elf(&elf);
        let classes = (0..1u32 << (8 * input_len))
            .map(|v| concrete_class(&template, addr, &v.to_le_bytes()[..input_len]).0)
            .collect();
        ClassSet {
            elf,
            template,
            addr,
            classes,
        }
    }

    /// Judges an exploration's paths: returns the first unsound witness
    /// (one that replays to another ending, or repeats an earlier path's
    /// class), described, and the number of missed paths: classes that no
    /// witness reaches with the ending the exploration recorded for it.
    fn audit(&self, paths: &[(Vec<u8>, Ending)]) -> (Option<String>, usize) {
        let mut seen = HashSet::new();
        let mut found = HashSet::new();
        let mut unsound = None;
        for (input, ending) in paths {
            let (class, replayed) = concrete_class(&self.template, self.addr, input);
            let fresh = seen.insert(class);
            if replayed == *ending {
                found.insert(class);
            }
            let why = if replayed != *ending {
                "replays differently"
            } else if !fresh {
                "repeats another path's pc sequence"
            } else {
                continue;
            };
            unsound.get_or_insert_with(|| format!("witness {input:?} {why}"));
        }
        let missed = self.classes.difference(&found).count();
        (unsound, missed)
    }
}

/// Checks every exploration of `program` against the concrete path
/// classes of all `256^input_len` inputs; returns the class count.
fn check_path_set(program: &Program, input_len: usize) -> usize {
    let src = &program.src;
    let set = ClassSet::new(program, input_len);
    let policies = [
        AddressPolicyKind::ConcretizeEq,
        AddressPolicyKind::Symbolic { window: 64 },
    ];
    for policy in policies {
        let runs = [
            Run::Sequential,
            Run::Parallel {
                workers: 1,
                warm: false,
            },
            Run::Parallel {
                workers: 4,
                warm: false,
            },
            Run::Parallel {
                workers: 4,
                warm: true,
            },
            Run::Lifter(LifterBugs::NONE),
        ];
        for run in runs {
            let what = format!("{policy}, {run:?}");
            let paths = explore(&set.elf, policy, run);
            let (unsound, _) = set.audit(&paths);
            if let Some(why) = unsound {
                panic!("{what}: {why}\n{src}");
            }
            let lossless =
                matches!(policy, AddressPolicyKind::Symbolic { .. }) || !program.indexes_table;
            if lossless {
                assert_eq!(
                    paths.len(),
                    set.classes.len(),
                    "{what}: paths != concrete classes\n{src}"
                );
            }
        }
    }
    set.classes.len()
}

/// Generates `count` control-flow programs over `input_len` bytes from
/// `seed`.
fn random_programs(seed: u64, count: usize, input_len: usize) -> impl Iterator<Item = Program> {
    let mut rng = Rng::new(seed);
    (0..count).map(move |_| {
        let len = 16 + (rng.next_u64() as usize) % 64;
        gen_program(&rng.bytes(len), input_len, true)
    })
}

/// Checks the path set of each of `count` control-flow programs over
/// `input_len` bytes from `seed`; returns the total class count.
fn check_random_path_sets(seed: u64, count: usize, input_len: usize) -> usize {
    random_programs(seed, count, input_len)
        .map(|program| check_path_set(&program, input_len))
        .sum()
}

#[test]
fn exhaustive_path_sets_match_concrete_classes() {
    let classes = check_random_path_sets(0xd1ff_0003, 32, 1);
    assert!(classes > 32, "programs should branch: {classes} classes");
}

#[test]
#[ignore = "heavy: 512 one-byte and 16 two-byte programs; run in release"]
fn exhaustive_path_sets_match_concrete_classes_heavy() {
    check_random_path_sets(0xd1ff_0004, 512, 1);
    check_random_path_sets(0xd1ff_0005, 16, 2);
}

#[test]
#[ignore = "heavy: 512 one-byte programs under five mutant lifters; run in release"]
fn every_angr_bug_misses_paths_on_some_program() {
    let none = LifterBugs::NONE;
    let mutants = [
        (
            "sra_logical",
            LifterBugs {
                sra_logical: true,
                ..none
            },
        ),
        (
            "shift_uses_reg_index",
            LifterBugs {
                shift_uses_reg_index: true,
                ..none
            },
        ),
        (
            "load_extension",
            LifterBugs {
                load_extension: true,
                ..none
            },
        ),
        (
            "shamt_signed",
            LifterBugs {
                shamt_signed: true,
                ..none
            },
        ),
        (
            "signed_cmp_unsigned",
            LifterBugs {
                signed_cmp_unsigned: true,
                ..none
            },
        ),
    ];
    let policy = AddressPolicyKind::Symbolic { window: 64 };
    // Per mutant: programs with an unsound witness or a missed class, and
    // programs with a missed class.
    let mut flagged = [0usize; 5];
    let mut missing = [0usize; 5];
    for program in random_programs(0xd1ff_0004, 512, 1) {
        let set = ClassSet::new(&program, 1);
        for (k, &(_, bugs)) in mutants.iter().enumerate() {
            let (unsound, missed) = set.audit(&explore(&set.elf, policy, Run::Lifter(bugs)));
            flagged[k] += usize::from(unsound.is_some() || missed > 0);
            missing[k] += usize::from(missed > 0);
        }
    }
    for (k, (name, _)) in mutants.iter().enumerate() {
        println!(
            "bug {} ({name}): {} of 512 programs flagged, {} with missed paths",
            k + 1,
            flagged[k],
            missing[k]
        );
    }
    for (k, (name, _)) in mutants.iter().enumerate() {
        assert!(missing[k] > 0, "bug {} ({name}) misses no path", k + 1);
    }
}
