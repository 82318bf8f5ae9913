//! Per-layer replay: each layer's public entry points, re-driven from
//! outside the engine on a hunt's own witnesses and timed call by call (or
//! batch by batch where a call is shorter than the clock's overhead).
//!
//! | Layer | Entry point | Rows |
//! |---|---|---|
//! | `binsym-isa` | `Spec::decode` | `isa.decode_ns` |
//! | `binsym::machine` | `SymMachine::step` | `machine.step_ns` |
//! | `binsym_smt::bitblast` | `BitBlaster::blast_bool` | `bitblast.*`, `blast.<op>.*` |
//! | `binsym_smt::sat` | `SatSolver::solve` | `sat.*` |
//! | `binsym_smt::analysis` | `Analysis::assume` + `verdict` | `analysis.*` |
//! | `binsym_smt::prefix` | `PrefixContext::solve_flip`, scratch clones | `prefix.*`, `clone.*` |
//! | `binsym::persist` | `encode_seq` / `decode_seq` | `persist.*` |
//!
//! Witnesses are sampled deterministically (the same blocks of every
//! program's depth-first path list on every run), so every count here
//! repeats exactly; only the times vary.

use std::hint::black_box;
use std::time::{Duration, Instant};

use binsym::{decode_seq, encode_seq, find_sym_input, PathRecord, StepResult, SymMachine};
use binsym_elf::ElfFile;
use binsym_isa::Spec;
use binsym_smt::bitblast::BitBlaster;
use binsym_smt::{Analysis, Lit, PrefixContext, SatSolver, Term, TermManager};

use crate::{median, Explored};

/// Contiguous blocks of depth-first siblings sampled per program.
const BLOCKS: usize = 4;
/// Witnesses per sampled block.
const BLOCK_LEN: usize = 12;

/// Totals of the witness replay over every sampled path.
#[derive(Debug, Default, Clone)]
pub struct WitnessRows {
    /// Dynamic instructions decoded and stepped.
    pub instructions: u64,
    /// Time in `Spec::decode`.
    pub decode: Duration,
    /// Time in `SymMachine::step`.
    pub step: Duration,
    /// Trail path terms blasted, one fresh solver per witness.
    pub terms: u64,
    /// Clauses those terms produced.
    pub clauses: u64,
    /// Time in `BitBlaster::blast_bool`.
    pub blast: Duration,
    /// Flip queries (prefix ∧ ¬branch) solved.
    pub queries: u64,
    /// Conflicts of those solves.
    pub conflicts: u64,
    /// Time in `SatSolver::solve`.
    pub solve: Duration,
    /// Flip queries screened by a fresh `Analysis`.
    pub analysis_queries: u64,
    /// Screened queries the analysis decided.
    pub analysis_decided: u64,
    /// Time in `Analysis::assume` + `verdict`.
    pub analysis: Duration,
    /// Flip queries solved through a retained `PrefixContext`.
    pub flips: u64,
    /// Prefix terms served from the retained context.
    pub prefix_reused: u64,
    /// Prefix terms blasted anew.
    pub prefix_blasted: u64,
    /// Time in `PrefixContext::solve_flip`.
    pub prefix: Duration,
}

/// The depth-first indices of `n` paths that the replay samples:
/// [`BLOCKS`] evenly spaced runs of [`BLOCK_LEN`] consecutive paths (all
/// of them for small programs).
fn sample(n: usize) -> Vec<usize> {
    if n <= BLOCKS * BLOCK_LEN {
        return (0..n).collect();
    }
    (0..BLOCKS)
        .flat_map(|b| {
            let start = b * (n - BLOCK_LEN) / (BLOCKS - 1);
            start..start + BLOCK_LEN
        })
        .collect()
}

/// Replays the sampled witnesses of every exploration through the decode,
/// step, blast, SAT, analysis and prefix-context layers.
///
/// # Errors
/// A witness that fails to re-execute symbolically, or a prefix-context
/// failure.
pub fn replay_witnesses(hunt: &[Explored]) -> Result<WitnessRows, String> {
    let spec = Spec::rv32im();
    let mut rows = WitnessRows::default();
    for ex in hunt {
        let name = ex.job.program.name;
        let (addr, len) = find_sym_input(&ex.elf, Some(ex.job.program.input_len))
            .map_err(|e| format!("{name}: {e}"))?;
        // One term manager and one retained context per program, as a
        // warm-start worker keeps them.
        let mut tm = TermManager::new();
        let mut ctx = PrefixContext::new();
        for i in sample(ex.witnesses.len()) {
            let w = &ex.witnesses[i];
            let mut m = SymMachine::new(spec.clone());
            m.policy = ex.job.policy;
            m.load_elf(&ex.elf);
            m.mark_symbolic(&mut tm, addr, len, "in", &w.input);
            let mut pcs = Vec::with_capacity(w.steps as usize);
            let started = Instant::now();
            loop {
                pcs.push(m.pc);
                let r = m
                    .step(&mut tm)
                    .map_err(|e| format!("{name} path {i}: {e}"))?;
                if r != StepResult::Continue || pcs.len() as u64 > w.steps {
                    break;
                }
            }
            rows.step += started.elapsed();
            rows.instructions += pcs.len() as u64;

            let words: Vec<u32> = pcs.iter().map(|&pc| word_at(&ex.elf, pc)).collect();
            let started = Instant::now();
            for &raw in &words {
                let _ = black_box(spec.decode(black_box(raw)));
            }
            rows.decode += started.elapsed();

            let terms: Vec<Term> = m.trail.iter().map(|e| e.path_term(&mut tm)).collect();
            let branches: Vec<usize> = (0..terms.len())
                .filter(|&k| m.trail[k].is_branch())
                .collect();
            let flipped: Vec<Term> = branches.iter().map(|&k| tm.not(terms[k])).collect();

            let mut sat = SatSolver::new();
            let mut blaster = BitBlaster::new();
            let started = Instant::now();
            let lits: Vec<Lit> = terms
                .iter()
                .map(|&t| blaster.blast_bool(&tm, &mut sat, t))
                .collect();
            rows.blast += started.elapsed();
            rows.terms += terms.len() as u64;
            rows.clauses += sat.num_clauses() as u64;

            for &k in &branches {
                let mut assumptions = lits[..k].to_vec();
                assumptions.push(!lits[k]);
                let before = sat.stats().conflicts;
                let started = Instant::now();
                black_box(sat.solve(&assumptions));
                rows.solve += started.elapsed();
                rows.conflicts += sat.stats().conflicts - before;
                rows.queries += 1;
            }

            for (&k, &flip) in branches.iter().zip(&flipped) {
                let started = Instant::now();
                let mut an = Analysis::new();
                for &c in &terms[..k] {
                    an.assume(&tm, c);
                }
                let verdict = an.verdict(&tm, flip);
                rows.analysis += started.elapsed();
                rows.analysis_queries += 1;
                rows.analysis_decided += u64::from(verdict.is_some());
            }

            for (&k, &flip) in branches.iter().zip(&flipped) {
                let started = Instant::now();
                let report = ctx
                    .solve_flip(&mut tm, &terms[..k], flip)
                    .map_err(|e| format!("{name} path {i}: {e}"))?;
                rows.prefix += started.elapsed();
                rows.flips += 1;
                rows.prefix_reused += report.reused as u64;
                rows.prefix_blasted += report.blasted as u64;
            }
        }
    }
    Ok(rows)
}

/// The little-endian instruction word at `pc` in `elf`'s segments.
fn word_at(elf: &ElfFile, pc: u32) -> u32 {
    let byte = |a: u32| {
        elf.segments
            .iter()
            .find_map(|s| {
                let off = a.checked_sub(s.vaddr)? as usize;
                s.data.get(off).copied()
            })
            .unwrap_or(0)
    };
    u32::from_le_bytes([byte(pc), byte(pc + 1), byte(pc + 2), byte(pc + 3)])
}

/// Persist rows over a hunt's merged records.
#[derive(Debug, Clone, Copy)]
pub struct PersistRows {
    /// Encoded megabytes (10^6 bytes) per second of `encode_seq`.
    pub encode_mb_s: f64,
    /// Decoded megabytes per second of `decode_seq`.
    pub decode_mb_s: f64,
    /// Encoded bytes per path record.
    pub bytes_per_path: f64,
}

/// Times `encode_seq` and `decode_seq` of `records` (median over repeated
/// rounds) and checks the round trip.
///
/// # Errors
/// A decode failure or a round trip that changes the records.
pub fn persist_rows(records: &[PathRecord]) -> Result<PersistRows, String> {
    let bytes = encode_seq(records);
    let decoded: Vec<PathRecord> = decode_seq(&bytes).map_err(|e| format!("decode_seq: {e}"))?;
    if decoded != records {
        return Err("persist round trip changed the records".into());
    }
    let mb = bytes.len() as f64 / 1e6;
    let encode = repeat_median(|| {
        black_box(encode_seq(black_box(records)));
    });
    let decode = repeat_median(|| {
        let _ = black_box(decode_seq::<PathRecord>(black_box(&bytes)));
    });
    Ok(PersistRows {
        encode_mb_s: mb / encode,
        decode_mb_s: mb / decode,
        bytes_per_path: bytes.len() as f64 / records.len().max(1) as f64,
    })
}

/// Median seconds of one call of `f`, over at least 15 calls and at least
/// 60 ms.
fn repeat_median(mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 15 || started.elapsed() < Duration::from_millis(60) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// One 32-bit operator blasted into a fresh solver.
#[derive(Debug, Clone, Copy)]
pub struct OpRow {
    /// Operator name (`add`, `mul`, `udiv`, `ult`, `select`).
    pub op: &'static str,
    /// Clauses the blast adds (exact).
    pub clauses: u64,
    /// Median nanoseconds of the blast.
    pub ns: f64,
}

/// The bit-blasting cost of the heavy operators: 32-bit `add`, `mul`,
/// `udiv`, `ult` over two variables, and a `select` at a symbolic index
/// over a 64-entry store chain of symbolic bytes.
pub fn op_rows() -> Vec<OpRow> {
    ["add", "mul", "udiv", "ult", "select"]
        .into_iter()
        .map(|op| {
            let mut tm = TermManager::new();
            let a = tm.var("a", 32);
            let b = tm.var("b", 32);
            let term = match op {
                "add" => tm.add(a, b),
                "mul" => tm.mul(a, b),
                "udiv" => tm.udiv(a, b),
                "ult" => tm.ult(a, b),
                _ => {
                    let mut arr = tm.array_const(0, 32, 8);
                    for i in 0..64 {
                        let idx = tm.bv_const(i, 32);
                        let v = tm.var(&format!("v{i}"), 8);
                        arr = tm.store(arr, idx, v);
                    }
                    tm.select(arr, a)
                }
            };
            let is_bool = op == "ult";
            let mut clauses = 0;
            let mut samples = Vec::new();
            let started = Instant::now();
            while samples.len() < 25 || started.elapsed() < Duration::from_millis(40) {
                let mut sat = SatSolver::new();
                let mut blaster = BitBlaster::new();
                let t = Instant::now();
                if is_bool {
                    black_box(blaster.blast_bool(&tm, &mut sat, term));
                } else {
                    black_box(blaster.blast_bits(&tm, &mut sat, term));
                }
                samples.push(t.elapsed().as_nanos() as f64);
                clauses = sat.num_clauses() as u64;
            }
            OpRow {
                op,
                clauses,
                ns: median(&samples),
            }
        })
        .collect()
}

/// Nanoseconds per warm-path scratch clone (`SatSolver::clone_unlogged`
/// plus `BitBlaster::clone_unjournaled`) of a chain-shaped prefix of
/// `depth` conjuncts: running 8-bit sums of the inputs compared against
/// constants, the shape of the engines bench's clone series. Median over
/// batches of clones.
pub fn clone_ns(depth: usize) -> f64 {
    let mut tm = TermManager::new();
    let mut sat = SatSolver::with_op_log();
    let mut blaster = BitBlaster::with_journal();
    let mut acc = tm.bv_const(0, 8);
    for i in 0..depth {
        let v = tm.var(&format!("in{i}"), 8);
        acc = tm.add(acc, v);
        let bound = tm.bv_const(200 + (i % 40) as u64, 8);
        let cond = tm.ult(acc, bound);
        let lit = blaster.blast_bool(&tm, &mut sat, cond);
        sat.add_clause(&[lit]);
    }
    const BATCH: u32 = 20;
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 15 || started.elapsed() < Duration::from_millis(40) {
        let t = Instant::now();
        for _ in 0..BATCH {
            black_box((sat.clone_unlogged(), blaster.clone_unjournaled()));
        }
        samples.push(t.elapsed().as_nanos() as f64 / f64::from(BATCH));
    }
    median(&samples)
}
