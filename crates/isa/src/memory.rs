//! Generic sparse byte-addressed memory, parameterized over the byte type.
//!
//! Like [`crate::RegFile`], this component is shared between interpreters:
//! `Memory<u8>` for concrete execution, `Memory<SymByte>` for symbolic
//! execution. Memory is organized in lazily allocated 1 KiB pages, kept in
//! a table sorted by page number: a program touches a handful of pages, so
//! a binary search over that table finds one without hashing.
//!
//! Pages are shared copy-on-write (`Arc` + `make_mut`): cloning a memory
//! copies the page table, not the pages, and the first store into a page
//! a clone shares copies that one page. An engine that loads a program
//! image once and starts every path from a clone of it therefore pays for
//! the pages a path writes, not for the whole image. A clone is
//! independent of its original either way; `Memory` stays `Send` whenever
//! the byte type is `Send + Sync`.

use std::sync::Arc;

/// A page is the unit a clone copies on its first store into it, so it is
/// kept small: a 1 KiB page of symbolic bytes is 12 KB, a 4 KiB one 48 KB.
const PAGE_BITS: u32 = 10;
const PAGE_SIZE: usize = 1 << PAGE_BITS;

/// Sparse byte-addressed memory over a 32-bit address space.
///
/// Unwritten locations read as the default byte supplied at construction.
///
/// # Example
/// ```
/// use binsym_isa::Memory;
///
/// let mut mem: Memory<u8> = Memory::new(0);
/// mem.store(0x8000_0000, 0xab);
/// assert_eq!(*mem.load(0x8000_0000), 0xab);
/// assert_eq!(*mem.load(0x8000_0001), 0x00);
/// ```
#[derive(Debug, Clone)]
pub struct Memory<V> {
    /// Resident pages by page number, sorted; shared with clones until
    /// one side writes.
    pages: Vec<(u32, Arc<[V; PAGE_SIZE]>)>,
    default: V,
}

impl<V: Clone> Memory<V> {
    /// Creates an empty memory; unwritten bytes read as `default`.
    pub fn new(default: V) -> Self {
        Memory {
            pages: Vec::new(),
            default,
        }
    }

    fn page_of(addr: u32) -> (u32, usize) {
        (addr >> PAGE_BITS, (addr as usize) & (PAGE_SIZE - 1))
    }

    /// Position of page `p` in the table, or where it would be inserted.
    fn find(&self, p: u32) -> Result<usize, usize> {
        self.pages.binary_search_by_key(&p, |&(n, _)| n)
    }

    /// Reads the byte at `addr`.
    pub fn load(&self, addr: u32) -> &V {
        let (p, o) = Self::page_of(addr);
        match self.find(p) {
            Ok(i) => &self.pages[i].1[o],
            Err(_) => &self.default,
        }
    }

    /// Reads `out.len()` consecutive bytes starting at `addr` into `out`.
    /// A range within one page costs one page lookup; a range that
    /// straddles a page boundary (or wraps around the address space) is
    /// read byte by byte.
    pub fn load_into(&self, addr: u32, out: &mut [V]) {
        let (p, o) = Self::page_of(addr);
        if o + out.len() <= PAGE_SIZE {
            match self.find(p) {
                Ok(i) => out.clone_from_slice(&self.pages[i].1[o..o + out.len()]),
                Err(_) => out.fill(self.default.clone()),
            }
        } else {
            for (i, v) in out.iter_mut().enumerate() {
                *v = self.load(addr.wrapping_add(i as u32)).clone();
            }
        }
    }

    /// Writes the byte at `addr`.
    pub fn store(&mut self, addr: u32, v: V) {
        let (p, o) = Self::page_of(addr);
        let i = match self.find(p) {
            Ok(i) => i,
            Err(i) => {
                // Collected straight into the `Arc`'s allocation: a page
                // built on the stack and then moved cost an engine that
                // starts each path from an empty memory twice as much.
                let page: Arc<[V]> = std::iter::repeat(self.default.clone())
                    .take(PAGE_SIZE)
                    .collect();
                let page = page.try_into().ok().expect("PAGE_SIZE bytes");
                self.pages.insert(i, (p, page));
                i
            }
        };
        Arc::make_mut(&mut self.pages[i].1)[o] = v;
    }

    /// Copies a slice of values to consecutive addresses starting at `addr`.
    pub fn store_slice(&mut self, addr: u32, values: &[V]) {
        for (i, v) in values.iter().enumerate() {
            self.store(addr.wrapping_add(i as u32), v.clone());
        }
    }

    /// Number of resident (allocated) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Removes all contents.
    pub fn clear(&mut self) {
        self.pages.clear();
    }
}

impl Memory<u8> {
    /// Reads a little-endian 32-bit word.
    pub fn load_u32(&self, addr: u32) -> u32 {
        let mut b = [0; 4];
        self.load_into(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Writes a little-endian 32-bit word.
    pub fn store_u32(&mut self, addr: u32, v: u32) {
        self.store_slice(addr, &v.to_le_bytes());
    }

    /// Reads a little-endian 16-bit halfword.
    pub fn load_u16(&self, addr: u32) -> u16 {
        let mut b = [0; 2];
        self.load_into(addr, &mut b);
        u16::from_le_bytes(b)
    }

    /// Writes a little-endian 16-bit halfword.
    pub fn store_u16(&mut self, addr: u32, v: u16) {
        self.store_slice(addr, &v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_reads() {
        let mem: Memory<u8> = Memory::new(0xcc);
        assert_eq!(*mem.load(1234), 0xcc);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn page_boundary_access() {
        let mut mem: Memory<u8> = Memory::new(0);
        let addr = (1 << PAGE_BITS) - 2; // crosses into the next page
        mem.store_u32(addr, 0xdead_beef);
        assert_eq!(mem.load_u32(addr), 0xdead_beef);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn word_roundtrip_little_endian() {
        let mut mem: Memory<u8> = Memory::new(0);
        mem.store_u32(0x100, 0x0102_0304);
        assert_eq!(*mem.load(0x100), 0x04);
        assert_eq!(*mem.load(0x103), 0x01);
        assert_eq!(mem.load_u16(0x100), 0x0304);
    }

    #[test]
    fn address_space_wraps() {
        let mut mem: Memory<u8> = Memory::new(0);
        mem.store_u32(0xffff_fffe, 0xaabb_ccdd);
        assert_eq!(*mem.load(0xffff_ffff), 0xcc);
        assert_eq!(*mem.load(0x0000_0000), 0xbb);
        assert_eq!(*mem.load(0x0000_0001), 0xaa);
    }

    #[test]
    fn reads_within_and_across_pages_agree_with_byte_loads() {
        let mut mem: Memory<u8> = Memory::new(0xcc);
        let base = (3 << PAGE_BITS) - 3;
        mem.store_slice(base, &[1, 2, 3, 4, 5, 6]);
        for addr in base - 2..base + 8 {
            let mut out = [0; 4];
            mem.load_into(addr, &mut out);
            let bytes: Vec<u8> = (0..4).map(|i| *mem.load(addr + i)).collect();
            assert_eq!(out.to_vec(), bytes, "at {addr:#x}");
        }
        let mut out = [0; 3];
        mem.load_into(0x9000, &mut out);
        assert_eq!(out, [0xcc; 3], "a page never written reads the default");
        mem.store_u16(0xffff_ffff, 0x1234);
        assert_eq!(mem.load_u16(0xffff_ffff), 0x1234, "wraps like byte loads");
    }

    #[test]
    fn clones_are_independent() {
        let mut original: Memory<u8> = Memory::new(0xee);
        original.store_u32(0x1000, 0x0403_0201);
        original.store(0x5000, 9);
        let mut clone = original.clone();
        clone.store(0x1001, 0xaa);
        original.store(0x1002, 0xbb);
        clone.store(0x7000, 1);
        assert_eq!(original.load_u32(0x1000), 0x04bb_0201);
        assert_eq!(clone.load_u32(0x1000), 0x0403_aa01);
        assert_eq!((*original.load(0x5000), *clone.load(0x5000)), (9, 9));
        assert_eq!(*original.load(0x7000), 0xee, "the clone's new page");
        assert_eq!(*clone.load(0x7000), 1);
        assert_eq!((original.resident_pages(), clone.resident_pages()), (2, 3));
        for mem in [&original, &clone] {
            assert_eq!(*mem.load(0x1004), 0xee, "unwritten byte of a page");
            assert_eq!(*mem.load(0x9000), 0xee, "unwritten page");
        }
    }

    #[test]
    fn generic_over_value_type() {
        #[derive(Clone, Debug, PartialEq)]
        struct SymByte(Option<String>);
        let mut mem: Memory<SymByte> = Memory::new(SymByte(None));
        mem.store(10, SymByte(Some("in0".to_owned())));
        assert_eq!(*mem.load(10), SymByte(Some("in0".to_owned())));
        assert_eq!(*mem.load(11), SymByte(None));
    }
}
