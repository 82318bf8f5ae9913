//! Disassembler derived from the encoding table.
//!
//! Another tool generated from the single authoritative specification (the
//! paper's design-automation argument): the disassembler walks the same
//! riscv-opcodes table as the decoder and the assembler, so custom
//! extensions registered at runtime disassemble without code changes.

use crate::decode::{decode, Decoded};
use crate::encoding::{InstrTable, OperandField};

/// Disassembles one instruction word at `pc` (the address affects how
/// branch/jump targets are rendered).
///
/// Returns `None` if the word matches no known encoding.
pub fn disassemble(table: &InstrTable, raw: u32, pc: u32) -> Option<String> {
    let d = decode(table, raw).ok()?;
    Some(render(table, &d, pc))
}

/// Renders a decoded instruction in conventional assembly syntax.
pub fn render(table: &InstrTable, d: &Decoded, pc: u32) -> String {
    let desc = table.desc(d.id);
    let name = &desc.name;
    let has = |f: OperandField| desc.fields.contains(&f);
    let rd = d.rd();
    let rs1 = d.rs1();
    let rs2 = d.rs2();

    // Operand layout by field shape (mirrors the assembler's classifier).
    if desc.fields.is_empty() {
        return name.clone();
    }
    if has(OperandField::ImmU) {
        return format!("{name} {rd}, {:#x}", d.imm() >> 12);
    }
    if has(OperandField::ImmJ) {
        let target = pc.wrapping_add(d.imm());
        return format!("{name} {rd}, {target:#x}");
    }
    if has(OperandField::ImmB) {
        let target = pc.wrapping_add(d.imm());
        return format!("{name} {rs1}, {rs2}, {target:#x}");
    }
    if has(OperandField::ImmS) {
        return format!("{name} {rs2}, {}({rs1})", d.imm() as i32);
    }
    if has(OperandField::Shamt) {
        return format!("{name} {rd}, {rs1}, {}", d.shamt());
    }
    if has(OperandField::ImmI) {
        if is_load(name) || name == "jalr" {
            return format!("{name} {rd}, {}({rs1})", d.imm() as i32);
        }
        return format!("{name} {rd}, {rs1}, {}", d.imm() as i32);
    }
    if has(OperandField::Rs3) {
        return format!("{name} {rd}, {rs1}, {rs2}, {}", d.rs3());
    }
    if has(OperandField::Rs2) {
        return format!("{name} {rd}, {rs1}, {rs2}");
    }
    if has(OperandField::Rs1) {
        return format!("{name} {rd}, {rs1}");
    }
    format!("{name} {rd}")
}

fn is_load(name: &str) -> bool {
    matches!(name, "lb" | "lh" | "lw" | "lbu" | "lhu")
}

/// Disassembles a byte slice as a sequence of 32-bit instructions starting
/// at `base`, emitting `addr: word  text` lines. Undecodable words are
/// rendered as `.word`.
pub fn disassemble_range(table: &InstrTable, bytes: &[u8], base: u32) -> String {
    let mut out = String::new();
    for (i, chunk) in bytes.chunks_exact(4).enumerate() {
        let raw = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let pc = base + 4 * i as u32;
        let text = disassemble(table, raw, pc).unwrap_or_else(|| format!(".word {raw:#010x}"));
        out.push_str(&format!("{pc:#010x}: {raw:08x}  {text}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> InstrTable {
        InstrTable::rv32im()
    }

    #[test]
    fn renders_common_instructions() {
        let table = t();
        // addi a0, zero, 5
        assert_eq!(
            disassemble(&table, 0x0050_0513, 0).as_deref(),
            Some("addi a0, zero, 5")
        );
        // add a0, a1, a2
        assert_eq!(
            disassemble(&table, 0x00c5_8533, 0).as_deref(),
            Some("add a0, a1, a2")
        );
        // lw a0, 4(sp)
        assert_eq!(
            disassemble(&table, 0x0041_2503, 0).as_deref(),
            Some("lw a0, 4(sp)")
        );
        // sw a0, 4(sp)
        assert_eq!(
            disassemble(&table, 0x00a1_2223, 0).as_deref(),
            Some("sw a0, 4(sp)")
        );
        // srai a0, a0, 31
        assert_eq!(
            disassemble(&table, 0x41f5_5513, 0).as_deref(),
            Some("srai a0, a0, 31")
        );
        assert_eq!(
            disassemble(&table, 0x0000_0073, 0).as_deref(),
            Some("ecall")
        );
    }

    #[test]
    fn renders_branch_targets_pc_relative() {
        let table = t();
        // beq a0, a1, +8 encoded at 0x1000 -> target 0x1008
        let raw = (11 << 20) | (10 << 15) | (4 << 8) | 0x63;
        let s = disassemble(&table, raw, 0x1000).unwrap();
        assert_eq!(s, "beq a0, a1, 0x1008");
    }

    #[test]
    fn undecodable_word_is_none() {
        assert_eq!(disassemble(&t(), 0, 0), None);
    }

    #[test]
    fn range_rendering() {
        let table = t();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&0x0050_0513u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let text = disassemble_range(&table, &bytes, 0x100);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("addi a0, zero, 5"));
        assert!(lines[1].contains(".word"));
    }

    #[test]
    fn custom_extension_disassembles() {
        let mut table = t();
        table
            .register_yaml(crate::encoding::MADD_YAML)
            .expect("registers");
        let raw = (4 << 27) | (1 << 25) | (3 << 20) | (2 << 15) | (1 << 7) | 0x43;
        let s = disassemble(&table, raw, 0).unwrap();
        assert_eq!(s, "madd ra, sp, gp, tp");
    }
}
