//! `binsym-elf` — a minimal ELF32 (little-endian, RISC-V) reader and writer.
//!
//! The paper's BinSym takes RISC-V binary code *in the ELF format* as input.
//! No RISC-V cross-toolchain exists in this environment, so this crate
//! provides both directions: the in-repo assembler (`binsym-asm`) emits ELF
//! executables through [`ElfFile::to_bytes`], and every engine loads them
//! back through [`ElfFile::parse`] — the engines therefore exercise the same
//! binary-input code path as the paper's tooling.
//!
//! Supported surface: `ET_EXEC` files with `PT_LOAD` program headers and an
//! optional symbol table (`.symtab`/`.strtab`), which is everything the
//! loader, the symbolic engines, and the test harness need.
//!
//! # Example
//! ```
//! use binsym_elf::{ElfFile, Segment, Symbol, PF_R, PF_X};
//!
//! let mut elf = ElfFile::new(0x1000);
//! elf.segments.push(Segment {
//!     vaddr: 0x1000,
//!     data: vec![0x13, 0x00, 0x00, 0x00], // nop
//!     flags: PF_R | PF_X,
//! });
//! elf.symbols.push(Symbol { name: "_start".into(), value: 0x1000, size: 4 });
//! let bytes = elf.to_bytes();
//! let back = ElfFile::parse(&bytes)?;
//! assert_eq!(back.entry, 0x1000);
//! assert_eq!(back.symbol("_start").unwrap().value, 0x1000);
//! # Ok::<(), binsym_elf::ElfError>(())
//! ```

#![warn(missing_docs)]

use std::fmt;

/// Program-header flag: executable segment.
pub const PF_X: u32 = 1;
/// Program-header flag: writable segment.
pub const PF_W: u32 = 2;
/// Program-header flag: readable segment.
pub const PF_R: u32 = 4;

/// ELF machine number for RISC-V.
pub const EM_RISCV: u16 = 243;

/// Largest segment [`ElfFile::parse`] accepts, in bytes of memory
/// (`p_memsz`): 16 MiB, far above every bundled program (each loads a few
/// KiB). The parser zero-fills each segment to its memory size and the
/// loaders store every byte, so an unchecked `p_memsz` of up to 4 GiB
/// from a corrupt header would be allocated and written in full.
pub const MAX_SEGMENT_SIZE: u32 = 16 << 20;

const EI_NIDENT: usize = 16;
const ET_EXEC: u16 = 2;
const PT_LOAD: u32 = 1;
const SHT_SYMTAB: u32 = 2;
const SHT_STRTAB: u32 = 3;
const SHT_PROGBITS: u32 = 1;

/// A loadable segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Virtual load address.
    pub vaddr: u32,
    /// Segment contents (filesz == memsz; zero-fill is made explicit by the
    /// producer).
    pub data: Vec<u8>,
    /// `PF_*` permission flags.
    pub flags: u32,
}

/// A symbol-table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    /// Symbol name.
    pub name: String,
    /// Symbol value (address).
    pub value: u32,
    /// Symbol size in bytes (0 when unknown).
    pub size: u32,
}

/// An ELF32 executable image.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ElfFile {
    /// Entry-point address.
    pub entry: u32,
    /// Loadable segments.
    pub segments: Vec<Segment>,
    /// Symbols (global, function/object distinction is not tracked).
    pub symbols: Vec<Symbol>,
}

/// Error produced by [`ElfFile::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElfError {
    /// The file is too short or a header points outside the file.
    Truncated {
        /// What was being read.
        context: &'static str,
    },
    /// Magic number / class / endianness mismatch.
    BadMagic,
    /// The file is not an executable for 32-bit little-endian RISC-V.
    Unsupported {
        /// Explanation.
        what: String,
    },
    /// A loadable segment runs past the end of the 32-bit address space.
    SegmentWraps {
        /// Load address of the segment.
        vaddr: u32,
        /// Its size in memory.
        memsz: u32,
    },
    /// A loadable segment is larger than [`MAX_SEGMENT_SIZE`].
    SegmentTooLarge {
        /// Load address of the segment.
        vaddr: u32,
        /// Its size in memory.
        memsz: u32,
    },
}

impl fmt::Display for ElfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElfError::Truncated { context } => write!(f, "truncated ELF while reading {context}"),
            ElfError::BadMagic => write!(f, "not an ELF32 little-endian file"),
            ElfError::Unsupported { what } => write!(f, "unsupported ELF: {what}"),
            ElfError::SegmentWraps { vaddr, memsz } => write!(
                f,
                "segment of {memsz} bytes at {vaddr:#010x} runs past the end of the address space"
            ),
            ElfError::SegmentTooLarge { vaddr, memsz } => write!(
                f,
                "segment of {memsz} bytes at {vaddr:#010x} exceeds the {MAX_SEGMENT_SIZE}-byte limit"
            ),
        }
    }
}

impl std::error::Error for ElfError {}

struct Reader<'a> {
    data: &'a [u8],
}

impl<'a> Reader<'a> {
    fn u16_at(&self, off: usize, ctx: &'static str) -> Result<u16, ElfError> {
        let b = self
            .data
            .get(off..off + 2)
            .ok_or(ElfError::Truncated { context: ctx })?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32_at(&self, off: usize, ctx: &'static str) -> Result<u32, ElfError> {
        let b = self
            .data
            .get(off..off + 4)
            .ok_or(ElfError::Truncated { context: ctx })?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn bytes_at(&self, off: usize, len: usize, ctx: &'static str) -> Result<&'a [u8], ElfError> {
        self.data
            .get(off..off + len)
            .ok_or(ElfError::Truncated { context: ctx })
    }
}

impl ElfFile {
    /// Creates an empty image with the given entry point.
    pub fn new(entry: u32) -> Self {
        ElfFile {
            entry,
            segments: Vec::new(),
            symbols: Vec::new(),
        }
    }

    /// Looks up a symbol by name.
    pub fn symbol(&self, name: &str) -> Option<&Symbol> {
        self.symbols.iter().find(|s| s.name == name)
    }

    /// Parses an ELF32 little-endian executable.
    ///
    /// # Errors
    /// Returns [`ElfError`] for malformed, truncated, or non-RISC-V files.
    pub fn parse(data: &[u8]) -> Result<ElfFile, ElfError> {
        let r = Reader { data };
        let ident = r.bytes_at(0, EI_NIDENT, "e_ident")?;
        if &ident[0..4] != b"\x7fELF" {
            return Err(ElfError::BadMagic);
        }
        if ident[4] != 1 || ident[5] != 1 {
            return Err(ElfError::BadMagic); // not ELFCLASS32 / ELFDATA2LSB
        }
        let e_type = r.u16_at(16, "e_type")?;
        if e_type != ET_EXEC {
            return Err(ElfError::Unsupported {
                what: format!("e_type {e_type} (want ET_EXEC)"),
            });
        }
        let e_machine = r.u16_at(18, "e_machine")?;
        if e_machine != EM_RISCV {
            return Err(ElfError::Unsupported {
                what: format!("e_machine {e_machine} (want RISC-V)"),
            });
        }
        let entry = r.u32_at(24, "e_entry")?;
        let phoff = r.u32_at(28, "e_phoff")? as usize;
        let shoff = r.u32_at(32, "e_shoff")? as usize;
        let phentsize = r.u16_at(42, "e_phentsize")? as usize;
        let phnum = r.u16_at(44, "e_phnum")? as usize;
        let shentsize = r.u16_at(46, "e_shentsize")? as usize;
        let shnum = r.u16_at(48, "e_shnum")? as usize;

        let mut out = ElfFile::new(entry);
        for i in 0..phnum {
            let base = phoff + i * phentsize;
            let p_type = r.u32_at(base, "p_type")?;
            if p_type != PT_LOAD {
                continue;
            }
            let p_offset = r.u32_at(base + 4, "p_offset")? as usize;
            let p_vaddr = r.u32_at(base + 8, "p_vaddr")?;
            let p_filesz = r.u32_at(base + 16, "p_filesz")?;
            let p_memsz = r.u32_at(base + 20, "p_memsz")?;
            let p_flags = r.u32_at(base + 24, "p_flags")?;
            let memsz = p_memsz.max(p_filesz);
            if u64::from(p_vaddr) + u64::from(memsz) > 1 << 32 {
                return Err(ElfError::SegmentWraps {
                    vaddr: p_vaddr,
                    memsz,
                });
            }
            if memsz > MAX_SEGMENT_SIZE {
                return Err(ElfError::SegmentTooLarge {
                    vaddr: p_vaddr,
                    memsz,
                });
            }
            let file_bytes = r.bytes_at(p_offset, p_filesz as usize, "segment data")?;
            let mut seg_data = file_bytes.to_vec();
            seg_data.resize(memsz as usize, 0); // zero-fill bss tail
            out.segments.push(Segment {
                vaddr: p_vaddr,
                data: seg_data,
                flags: p_flags,
            });
        }

        // Locate .symtab and its linked string table.
        for i in 0..shnum {
            let base = shoff + i * shentsize;
            let sh_type = r.u32_at(base + 4, "sh_type")?;
            if sh_type != SHT_SYMTAB {
                continue;
            }
            let sh_offset = r.u32_at(base + 16, "sh_offset")? as usize;
            let sh_size = r.u32_at(base + 20, "sh_size")? as usize;
            let sh_link = r.u32_at(base + 24, "sh_link")? as usize;
            let sh_entsize = r.u32_at(base + 36, "sh_entsize")? as usize;
            if sh_entsize == 0 {
                continue;
            }
            // The linked section is the string table.
            let str_base = shoff + sh_link * shentsize;
            let str_off = r.u32_at(str_base + 16, "strtab offset")? as usize;
            let str_size = r.u32_at(str_base + 20, "strtab size")? as usize;
            let strtab = r.bytes_at(str_off, str_size, "strtab data")?;
            let count = sh_size / sh_entsize;
            for s in 0..count {
                let sb = sh_offset + s * sh_entsize;
                let st_name = r.u32_at(sb, "st_name")? as usize;
                let st_value = r.u32_at(sb + 4, "st_value")?;
                let st_size = r.u32_at(sb + 8, "st_size")?;
                if st_name == 0 {
                    continue; // null or unnamed symbol
                }
                let name_bytes: Vec<u8> = strtab
                    .get(st_name..)
                    .unwrap_or(&[])
                    .iter()
                    .take_while(|&&b| b != 0)
                    .copied()
                    .collect();
                let name = String::from_utf8_lossy(&name_bytes).into_owned();
                out.symbols.push(Symbol {
                    name,
                    value: st_value,
                    size: st_size,
                });
            }
        }
        Ok(out)
    }

    /// Serializes the image as an ELF32 executable with program headers, a
    /// symbol table, and the section headers needed to find it again.
    pub fn to_bytes(&self) -> Vec<u8> {
        let ehsize = 52usize;
        let phentsize = 32usize;
        let shentsize = 40usize;
        let phnum = self.segments.len();

        // ----- build .strtab -----
        let mut strtab: Vec<u8> = vec![0];
        let mut name_offsets = Vec::with_capacity(self.symbols.len());
        for s in &self.symbols {
            name_offsets.push(strtab.len() as u32);
            strtab.extend_from_slice(s.name.as_bytes());
            strtab.push(0);
        }

        // ----- build .symtab (entry 0 is the null symbol) -----
        let symentsize = 16usize;
        let mut symtab: Vec<u8> = vec![0; symentsize];
        for (s, &noff) in self.symbols.iter().zip(&name_offsets) {
            symtab.extend_from_slice(&noff.to_le_bytes());
            symtab.extend_from_slice(&s.value.to_le_bytes());
            symtab.extend_from_slice(&s.size.to_le_bytes());
            symtab.push(0x10); // STB_GLOBAL << 4 | STT_NOTYPE
            symtab.push(0); // st_other
            symtab.extend_from_slice(&1u16.to_le_bytes()); // st_shndx: arbitrary
        }

        // ----- build .shstrtab -----
        let mut shstrtab: Vec<u8> = vec![0];
        let shstr = |tab: &mut Vec<u8>, name: &str| -> u32 {
            let off = tab.len() as u32;
            tab.extend_from_slice(name.as_bytes());
            tab.push(0);
            off
        };
        let n_text = shstr(&mut shstrtab, ".progdata");
        let n_symtab = shstr(&mut shstrtab, ".symtab");
        let n_strtab = shstr(&mut shstrtab, ".strtab");
        let n_shstrtab = shstr(&mut shstrtab, ".shstrtab");

        // ----- layout -----
        let phoff = ehsize;
        let mut pos = phoff + phnum * phentsize;
        let mut seg_offsets = Vec::with_capacity(phnum);
        for seg in &self.segments {
            // Align segment file offsets to 4 bytes.
            pos = (pos + 3) & !3;
            seg_offsets.push(pos);
            pos += seg.data.len();
        }
        pos = (pos + 3) & !3;
        let symtab_off = pos;
        pos += symtab.len();
        let strtab_off = pos;
        pos += strtab.len();
        let shstrtab_off = pos;
        pos += shstrtab.len();
        pos = (pos + 3) & !3;
        let shoff = pos;
        // Sections: NULL, .progdata (covers first segment, informational),
        // .symtab, .strtab, .shstrtab
        let shnum = 5usize;

        let mut out = Vec::with_capacity(shoff + shnum * shentsize);
        // ----- ELF header -----
        out.extend_from_slice(b"\x7fELF");
        out.push(1); // ELFCLASS32
        out.push(1); // ELFDATA2LSB
        out.push(1); // EV_CURRENT
        out.extend_from_slice(&[0; 9]); // padding
        out.extend_from_slice(&ET_EXEC.to_le_bytes());
        out.extend_from_slice(&EM_RISCV.to_le_bytes());
        out.extend_from_slice(&1u32.to_le_bytes()); // e_version
        out.extend_from_slice(&self.entry.to_le_bytes());
        out.extend_from_slice(&(phoff as u32).to_le_bytes());
        out.extend_from_slice(&(shoff as u32).to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // e_flags
        out.extend_from_slice(&(ehsize as u16).to_le_bytes());
        out.extend_from_slice(&(phentsize as u16).to_le_bytes());
        out.extend_from_slice(&(phnum as u16).to_le_bytes());
        out.extend_from_slice(&(shentsize as u16).to_le_bytes());
        out.extend_from_slice(&(shnum as u16).to_le_bytes());
        out.extend_from_slice(&4u16.to_le_bytes()); // e_shstrndx

        // ----- program headers -----
        for (seg, &off) in self.segments.iter().zip(&seg_offsets) {
            out.extend_from_slice(&PT_LOAD.to_le_bytes());
            out.extend_from_slice(&(off as u32).to_le_bytes());
            out.extend_from_slice(&seg.vaddr.to_le_bytes()); // p_vaddr
            out.extend_from_slice(&seg.vaddr.to_le_bytes()); // p_paddr
            out.extend_from_slice(&(seg.data.len() as u32).to_le_bytes()); // filesz
            out.extend_from_slice(&(seg.data.len() as u32).to_le_bytes()); // memsz
            out.extend_from_slice(&seg.flags.to_le_bytes());
            out.extend_from_slice(&4u32.to_le_bytes()); // p_align
        }

        // ----- segment data -----
        for (seg, &off) in self.segments.iter().zip(&seg_offsets) {
            out.resize(off, 0);
            out.extend_from_slice(&seg.data);
        }
        out.resize(symtab_off, 0);
        out.extend_from_slice(&symtab);
        debug_assert_eq!(out.len(), strtab_off);
        out.extend_from_slice(&strtab);
        debug_assert_eq!(out.len(), shstrtab_off);
        out.extend_from_slice(&shstrtab);
        out.resize(shoff, 0);

        // ----- section headers -----
        let mut sh = |name: u32,
                      sh_type: u32,
                      offset: usize,
                      size: usize,
                      link: u32,
                      entsize: usize,
                      addr: u32| {
            out.extend_from_slice(&name.to_le_bytes());
            out.extend_from_slice(&sh_type.to_le_bytes());
            out.extend_from_slice(&0u32.to_le_bytes()); // sh_flags
            out.extend_from_slice(&addr.to_le_bytes());
            out.extend_from_slice(&(offset as u32).to_le_bytes());
            out.extend_from_slice(&(size as u32).to_le_bytes());
            out.extend_from_slice(&link.to_le_bytes());
            out.extend_from_slice(&0u32.to_le_bytes()); // sh_info
            out.extend_from_slice(&4u32.to_le_bytes()); // sh_addralign
            out.extend_from_slice(&(entsize as u32).to_le_bytes());
        };
        sh(0, 0, 0, 0, 0, 0, 0); // NULL
        let (first_off, first_len, first_addr) = self
            .segments
            .first()
            .map(|s| (seg_offsets[0], s.data.len(), s.vaddr))
            .unwrap_or((0, 0, 0));
        sh(n_text, SHT_PROGBITS, first_off, first_len, 0, 0, first_addr);
        sh(
            n_symtab,
            SHT_SYMTAB,
            symtab_off,
            symtab.len(),
            3,
            symentsize,
            0,
        );
        sh(n_strtab, SHT_STRTAB, strtab_off, strtab.len(), 0, 0, 0);
        sh(
            n_shstrtab,
            SHT_STRTAB,
            shstrtab_off,
            shstrtab.len(),
            0,
            0,
            0,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ElfFile {
        let mut elf = ElfFile::new(0x8000_0000);
        elf.segments.push(Segment {
            vaddr: 0x8000_0000,
            data: vec![0x93, 0x02, 0x50, 0x00, 0x73, 0x00, 0x00, 0x00],
            flags: PF_R | PF_X,
        });
        elf.segments.push(Segment {
            vaddr: 0x8001_0000,
            data: vec![1, 2, 3, 4, 5],
            flags: PF_R | PF_W,
        });
        elf.symbols.push(Symbol {
            name: "_start".into(),
            value: 0x8000_0000,
            size: 8,
        });
        elf.symbols.push(Symbol {
            name: "__sym_input".into(),
            value: 0x8001_0000,
            size: 5,
        });
        elf
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let elf = sample();
        let bytes = elf.to_bytes();
        let back = ElfFile::parse(&bytes).expect("parses");
        assert_eq!(back.entry, elf.entry);
        assert_eq!(back.segments, elf.segments);
        assert_eq!(back.symbols, elf.symbols);
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(ElfFile::parse(b"not an elf").is_err()); // short: truncated
        let junk = [0u8; 64];
        assert_eq!(ElfFile::parse(&junk), Err(ElfError::BadMagic));
        let mut bytes = sample().to_bytes();
        bytes[5] = 2; // big-endian
        assert_eq!(ElfFile::parse(&bytes), Err(ElfError::BadMagic));
    }

    #[test]
    fn rejects_truncation() {
        let bytes = sample().to_bytes();
        for cut in [10, 40, 60] {
            assert!(ElfFile::parse(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn rejects_wrong_machine() {
        let mut bytes = sample().to_bytes();
        bytes[18] = 0x3e; // x86-64
        assert!(matches!(
            ElfFile::parse(&bytes),
            Err(ElfError::Unsupported { .. })
        ));
    }

    /// A file holding only the ELF header and one `PT_LOAD` program
    /// header with no file bytes and the given address and memory size.
    fn one_segment_header(vaddr: u32, memsz: u32) -> Vec<u8> {
        let mut bytes = ElfFile::new(0).to_bytes()[..52].to_vec();
        bytes[28..32].copy_from_slice(&52u32.to_le_bytes()); // e_phoff
        bytes[32..36].copy_from_slice(&0u32.to_le_bytes()); // e_shoff
        bytes[44..46].copy_from_slice(&1u16.to_le_bytes()); // e_phnum
        bytes[48..50].copy_from_slice(&0u16.to_le_bytes()); // e_shnum
        for field in [PT_LOAD, 84, vaddr, vaddr, 0, memsz, PF_R | PF_W, 4] {
            bytes.extend_from_slice(&field.to_le_bytes());
        }
        bytes
    }

    #[test]
    fn segments_past_the_address_space_are_rejected() {
        let bytes = one_segment_header(0x8000_0000, 0xffff_ffff);
        assert!(bytes.len() < 100);
        assert_eq!(
            ElfFile::parse(&bytes),
            Err(ElfError::SegmentWraps {
                vaddr: 0x8000_0000,
                memsz: 0xffff_ffff
            })
        );
        let top = ElfFile::parse(&one_segment_header(0xffff_f000, 0x1000)).expect("ends at 2^32");
        assert_eq!(top.segments[0].data.len(), 0x1000);
    }

    #[test]
    fn segments_above_the_size_limit_are_rejected() {
        let limit = ElfFile::parse(&one_segment_header(0, MAX_SEGMENT_SIZE)).expect("at the limit");
        assert_eq!(limit.segments[0].data.len(), MAX_SEGMENT_SIZE as usize);
        assert_eq!(
            ElfFile::parse(&one_segment_header(0, MAX_SEGMENT_SIZE + 1)),
            Err(ElfError::SegmentTooLarge {
                vaddr: 0,
                memsz: MAX_SEGMENT_SIZE + 1
            })
        );
    }

    #[test]
    fn symbol_lookup() {
        let elf = sample();
        assert_eq!(elf.symbol("_start").unwrap().value, 0x8000_0000);
        assert!(elf.symbol("nope").is_none());
    }

    #[test]
    fn empty_file_roundtrip() {
        let elf = ElfFile::new(0x1234);
        let back = ElfFile::parse(&elf.to_bytes()).expect("parses");
        assert_eq!(back.entry, 0x1234);
        assert!(back.segments.is_empty());
        assert!(back.symbols.is_empty());
    }
}
