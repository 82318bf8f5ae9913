//! The five benchmark programs of the paper's evaluation (§V), with their
//! expected path counts.
//!
//! Sources live in `crates/bench/programs/*.s` and are assembled on demand
//! with the in-repo assembler. Each program documents how its path count
//! arises and which angr lifter bugs (if any) affect it.

use binsym_asm::Assembler;
use binsym_elf::ElfFile;

/// A benchmark program.
#[derive(Debug, Clone, Copy)]
pub struct Program {
    /// Benchmark name as used in the paper's Table I.
    pub name: &'static str,
    /// Assembly source.
    pub source: &'static str,
    /// Symbolic input size in bytes.
    pub input_len: u32,
    /// Path count a *correct* engine must find on our re-implementation.
    pub expected_paths: u64,
    /// Path count the buggy angr persona finds (fewer when the program is
    /// sensitive to the lifter bugs).
    pub expected_paths_buggy_angr: u64,
    /// The paper's Table I path count for correct engines (the absolute
    /// values differ from ours for the RIOT-derived programs because source
    /// and compiler differ; see the README, "Persona cost models and path
    /// counts").
    pub paper_paths: u64,
    /// The paper's Table I path count for angr.
    pub paper_paths_angr: u64,
}

impl Program {
    /// Assembles the program into an ELF image.
    ///
    /// # Panics
    /// Panics if the bundled source fails to assemble (a repo bug).
    pub fn build(&self) -> ElfFile {
        Assembler::new()
            .assemble(self.source)
            .unwrap_or_else(|e| panic!("benchmark {} fails to assemble: {e}", self.name))
    }
}

/// `base64-encode`: 5^5 classification leaves × 2 parity outcomes = 6250
/// paths, matching Table I exactly. Sensitive to angr bugs #3/#5 (the
/// sign-dependent classification leaf disappears): the buggy engine finds
/// only 4^5 × 2 = 2048 paths.
pub const BASE64_ENCODE: Program = Program {
    name: "base64-encode",
    source: include_str!("../programs/base64_encode.s"),
    input_len: 5,
    expected_paths: 6250,
    expected_paths_buggy_angr: 2048,
    paper_paths: 6250,
    paper_paths_angr: 125,
};

/// `bubble-sort`: 6 symbolic elements, one path per ordering: 6! = 720,
/// matching Table I exactly. Bug-neutral (all engines agree), as in the
/// paper.
pub const BUBBLE_SORT: Program = Program {
    name: "bubble-sort",
    source: include_str!("../programs/bubble_sort.s"),
    input_len: 6,
    expected_paths: 720,
    expected_paths_buggy_angr: 720,
    paper_paths: 720,
    paper_paths_angr: 720,
};

/// `clif-parser`: CoRE link-format scanner over 4 symbolic bytes.
/// Bug-neutral, as in the paper. The count is a property of our
/// re-implementation (the paper's 11424 belongs to the RIOT source
/// compiled with GCC); it is pinned here to catch regressions.
pub const CLIF_PARSER: Program = Program {
    name: "clif-parser",
    source: include_str!("../programs/clif_parser.s"),
    input_len: 4,
    expected_paths: 120,
    expected_paths_buggy_angr: 120,
    paper_paths: 11424,
    paper_paths_angr: 11424,
};

/// `insertion-sort`: 7 symbolic elements: 7! = 5040, matching Table I
/// exactly. Bug-neutral.
pub const INSERTION_SORT: Program = Program {
    name: "insertion-sort",
    source: include_str!("../programs/insertion_sort.s"),
    input_len: 7,
    expected_paths: 5040,
    expected_paths_buggy_angr: 5040,
    paper_paths: 5040,
    paper_paths_angr: 5040,
};

/// `uri-parser`: URI front-end scanner over 4 symbolic bytes:
/// 2 + 6 × 7³ = 2060 paths. The 2 IRI paths need a correct signed
/// high-bit check, so buggy angr finds 2058 — the paper's small
/// uri-parser miss (8194 vs 8240).
pub const URI_PARSER: Program = Program {
    name: "uri-parser",
    source: include_str!("../programs/uri_parser.s"),
    input_len: 4,
    expected_paths: 2060,
    expected_paths_buggy_angr: 2058,
    paper_paths: 8240,
    paper_paths_angr: 8194,
};

/// `table-lookup`: a bounds-checked 64-entry table read through a
/// genuinely symbolic index — the memory-model benchmark, *not* a Table I
/// row (the paper's evaluation predates the pluggable memory layer, so it
/// stays out of [`all_programs`] and is reachable via [`by_name`]).
///
/// The pinned `expected_paths: 2` is the count under the default
/// [`binsym::AddressPolicyKind::ConcretizeEq`] policy: the §III-B pin
/// freezes the index to the seed's value inside the path prefix, so the
/// three branches on the *loaded* value never become symbolic and the
/// magic/odd/high leaves stay unreached. Under
/// `AddressPolicyKind::Symbolic { window: 64 }` the same program reaches
/// every instruction in [`TABLE_LOOKUP_SYMBOLIC_PATHS`] paths (asserted by
/// ablation 7 and the memory-policy acceptance tests).
pub const TABLE_LOOKUP: Program = Program {
    name: "table-lookup",
    source: include_str!("../programs/table_lookup.s"),
    input_len: 1,
    expected_paths: 2,
    expected_paths_buggy_angr: 2,
    paper_paths: 0,
    paper_paths_angr: 0,
};

/// Complete path count of [`TABLE_LOOKUP`] under the
/// `symbolic:64` memory policy: 1 out-of-bounds path + the magic slot +
/// the 4 feasible parity × magnitude value classes.
pub const TABLE_LOOKUP_SYMBOLIC_PATHS: u64 = 6;

/// All five benchmarks in the paper's Table I row order.
pub fn all_programs() -> [Program; 5] {
    [
        BASE64_ENCODE,
        BUBBLE_SORT,
        CLIF_PARSER,
        INSERTION_SORT,
        URI_PARSER,
    ]
}

/// Looks up a benchmark by name: the five Table I rows plus the
/// memory-model benchmark [`TABLE_LOOKUP`].
pub fn by_name(name: &str) -> Option<Program> {
    all_programs()
        .into_iter()
        .chain([TABLE_LOOKUP])
        .find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every bundled program: the Table I rows plus the memory-model
    /// benchmark, so the shared invariants cover both.
    fn bundled() -> Vec<Program> {
        all_programs().into_iter().chain([TABLE_LOOKUP]).collect()
    }

    #[test]
    fn all_programs_assemble() {
        for p in bundled() {
            let elf = p.build();
            assert!(elf.symbol("__sym_input").is_some(), "{}", p.name);
            assert!(!elf.segments.is_empty(), "{}", p.name);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(by_name("bubble-sort").unwrap().expected_paths, 720);
        assert_eq!(by_name("table-lookup").unwrap().input_len, 1);
        assert!(by_name("quicksort").is_none());
    }

    #[test]
    fn table_lookup_stays_out_of_table1() {
        // The memory-model benchmark is not a Table I row: the table1/fig6
        // campaigns and their pinned counts must not pick it up.
        assert!(all_programs().iter().all(|p| p.name != "table-lookup"));
    }

    #[test]
    fn table_lookup_table_is_window_aligned() {
        // The symbolic policy windows to `addr - addr % window`; keeping
        // the table 64-aligned makes the aligned 64-byte window coincide
        // with the table for every in-bounds index.
        let elf = TABLE_LOOKUP.build();
        let table = elf.symbol("table").expect("table symbol").value;
        assert_eq!(table % 64, 0, "table must be 64-aligned, is {table:#x}");
    }

    #[test]
    fn programs_terminate_concretely() {
        // Zero input must drive every benchmark to a normal exit in the
        // concrete reference interpreter.
        for p in bundled() {
            let elf = p.build();
            let mut m = binsym_interp::Machine::new(binsym_isa::Spec::rv32im());
            m.load_elf(&elf);
            let exit = m
                .run(1_000_000)
                .unwrap_or_else(|e| panic!("{}: {e}", p.name));
            assert_eq!(
                exit,
                binsym_interp::Exit::Exited(0),
                "{} must exit(0) on zero input",
                p.name
            );
        }
    }
}
