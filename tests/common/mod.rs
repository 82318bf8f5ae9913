//! A test program shared by the integration suites.

use binsym_repro::bench::programs::Program;

/// A program of several units of sharded exploration: `table-lookup` (a
/// symbolic index into a 64-entry table, then three branches on the
/// loaded value) followed by eight independent byte compares on the value
/// class the all-zero input reaches and on the out-of-bounds side. The
/// root unit explores the in-bounds compares' 256 paths and leaves the
/// flips before them as further units: the bounds check's, whose unit
/// explores the other 256 compare paths, under the default `eq` policy
/// (512 paths), and also the three value branches' under `symbolic:64`
/// (516 paths), whose replays run through the symbolic load. The long
/// bounds-check unit keeps a checkpoint cut at the root unit's commit
/// mid-run on every schedule. The angr persona's and the paper's counts
/// are not measured (0).
pub const TABLE_UNITS: Program = Program {
    name: "table-units",
    source: TABLE_UNITS_SOURCE,
    input_len: 9,
    expected_paths: 512,
    expected_paths_buggy_angr: 0,
    paper_paths: 0,
    paper_paths_angr: 0,
};

const TABLE_UNITS_SOURCE: &str = r#"
        .data
        # The table comes first, so the symbolic input region is exactly
        # the nine bytes of `__sym_input`.
        .balign 64
table:
        .byte 0, 1, 2, 3, 4, 5, 6, 7
        .byte 8, 9, 10, 11, 12, 13, 14, 15
        .byte 16, 17, 18, 19, 20, 21, 22, 23
        .byte 24, 25, 26, 27, 28, 29, 30, 31
        .byte 32, 33, 34, 35, 36, 90, 38, 39
        .byte 40, 41, 42, 43, 44, 45, 46, 47
        .byte 48, 49, 50, 51, 52, 53, 54, 55
        .byte 56, 57, 58, 59, 60, 61, 62, 63
        .globl __sym_input
__sym_input:
        .space 9

        .text
        .globl _start
_start:
        la   s0, __sym_input
        lbu  s1, 0(s0)
        li   t0, 64
        bgeu s1, t0, compares   # bounds check
        la   s2, table
        add  s2, s2, s1         # symbolic address
        lbu  s3, 0(s2)
        li   s4, 0              # value class
        li   t0, 90
        bne  s3, t0, parity     # the magic slot, table[37]
        addi s4, s4, 1
parity:
        andi t1, s3, 1
        beqz t1, magnitude      # value parity
        addi s4, s4, 2
magnitude:
        li   t0, 16
        bltu s3, t0, low        # value magnitude
        addi s4, s4, 8
        j    classified
low:
        addi s4, s4, 4
classified:
        li   t0, 4
        bne  s4, t0, exit       # only even, low, non-magic values go on
compares:
        li   t0, 100
        lbu  a1, 1(s0)
        bltu a1, t0, c1
c1:     lbu  a1, 2(s0)
        bltu a1, t0, c2
c2:     lbu  a1, 3(s0)
        bltu a1, t0, c3
c3:     lbu  a1, 4(s0)
        bltu a1, t0, c4
c4:     lbu  a1, 5(s0)
        bltu a1, t0, c5
c5:     lbu  a1, 6(s0)
        bltu a1, t0, c6
c6:     lbu  a1, 7(s0)
        bltu a1, t0, c7
c7:     lbu  a1, 8(s0)
        bltu a1, t0, exit
exit:
        li   a0, 0
        li   a7, 93
        ecall
"#;
