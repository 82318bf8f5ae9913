//! The witness oracle: every explored path's witness input is re-run on the
//! concrete interpreter (`binsym-interp`), which shares no code with the
//! symbolic engine beyond the ISA specification.
//!
//! A path passes when the interpreter, started with the witness bytes at
//! `__sym_input`, terminates the way the engine recorded — same exit and
//! the same instruction count. Each program's passing witnesses must also
//! trace pairwise-distinct pc sequences (one witness per path), and their
//! number must equal the program's pinned path count.

use std::collections::HashSet;

use binsym::{find_sym_input, StepResult};
use binsym_elf::ElfFile;
use binsym_interp::{Machine, StepResult as Concrete};
use binsym_isa::Spec;

use crate::{Job, Witness};

/// Oracle verdict over one or more explorations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OracleReport {
    /// Paths checked: the witnesses seen, or the pinned count when the
    /// engine found fewer.
    pub attempted: u64,
    /// Paths that failed a check (or are missing from the pinned count).
    pub failed: u64,
    /// One line per failure, for the report on standard error.
    pub problems: Vec<String>,
}

impl OracleReport {
    /// Adds `other` into this report.
    pub fn merge(&mut self, other: OracleReport) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }
}

/// Checks the witnesses of one exploration of `job` over `elf`.
pub fn check(job: &Job, elf: &ElfFile, witnesses: &[Witness]) -> OracleReport {
    let name = job.program.name;
    let mut report = OracleReport::default();
    let (addr, len) = match find_sym_input(elf, Some(job.program.input_len)) {
        Ok(region) => region,
        Err(e) => {
            report.attempted = job.expected_paths.max(witnesses.len() as u64);
            report.failed = report.attempted;
            report.problems.push(format!("{name}: {e}"));
            return report;
        }
    };
    let mut template = Machine::new(Spec::rv32im());
    template.load_elf(elf);
    let mut signatures = HashSet::with_capacity(witnesses.len());
    for (i, w) in witnesses.iter().enumerate() {
        match replay(&template, addr, len, w) {
            Ok(signature) if signatures.insert(signature) => {}
            Ok(_) => report.problems.push(format!(
                "{name} path {i}: pc sequence repeats an earlier path's"
            )),
            Err(why) => report.problems.push(format!("{name} path {i}: {why}")),
        }
    }
    let found = witnesses.len() as u64;
    let passed = signatures.len() as u64;
    report.attempted = found.max(job.expected_paths);
    report.failed = report.attempted - passed.min(job.expected_paths);
    if found != job.expected_paths {
        report.problems.push(format!(
            "{name}: {found} paths explored, {} pinned",
            job.expected_paths
        ));
    }
    report
}

/// Runs one witness concretely; returns the FNV-1a hash of its pc
/// sequence, or why it disagrees with the engine's record.
fn replay(template: &Machine, addr: u32, len: u32, w: &Witness) -> Result<u64, String> {
    let mut m = template.clone();
    for i in 0..len {
        let byte = w.input.get(i as usize).copied().unwrap_or(0);
        m.mem.store(addr.wrapping_add(i), byte);
    }
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    while m.steps < w.steps {
        for b in m.pc.to_le_bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let exit = match m.step().map_err(|e| format!("interpreter error: {e}"))? {
            Concrete::Continue => continue,
            Concrete::Exited(code) => StepResult::Exited(code),
            Concrete::Break => StepResult::Break,
        };
        if exit != w.exit || m.steps != w.steps {
            return Err(format!(
                "interpreter ends with {exit:?} after {} steps, engine recorded {:?} after {}",
                m.steps, w.exit, w.steps
            ));
        }
        return Ok(hash);
    }
    Err(format!(
        "interpreter still running after the {} recorded steps",
        w.steps
    ))
}
