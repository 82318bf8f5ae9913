//! Lock-free program-counter coverage: [`CoverageMap`] and
//! [`CoverageObserver`].
//!
//! Coverage-guided search needs two signals: *has this instruction been
//! executed yet?* and *has this branch ever gone the other way?* The map
//! is a fixed-size bitmap over the binary's text segment — per (4-byte
//! aligned) instruction slot, one **instruction** bit (fed by
//! [`Observer::on_step`]) plus two **direction** bits (taken / not-taken,
//! fed by [`Observer::on_branch`]) — packed into [`AtomicU64`] words, so
//! marking is a single `fetch_or` and reading a single load. No locks
//! anywhere: one map can be shared (via [`Arc`]) between the worker
//! observers of a [`crate::ParallelSession`] feeding it and the
//! [`CoverageGuided`] shard policies reading it, without serializing the
//! workers.
//!
//! The direction plane is what makes ranking *pending flips* meaningful: a
//! flip's branch site was by definition executed by its parent path, so
//! instruction coverage alone cannot distinguish one pending flip from
//! another — but the *direction the flip would assert* is uncovered
//! exactly when no explored path has ever taken the branch that way, i.e.
//! when discharging the flip is guaranteed to visit unexecuted behaviour.
//!
//! The map is a *heuristic* signal: in a parallel session the exact
//! interleaving of marks is scheduling-dependent, which may reorder the
//! [`CoverageGuided`] policy's picks between runs — but policies only
//! shape scheduling, so the merged results stay canonical (see
//! [`crate::parallel`]). A sequential [`crate::Session`] is single-threaded,
//! so its coverage snapshots — and therefore its exploration order — are
//! exactly reproducible.
//!
//! [`CoverageGuided`]: crate::CoverageGuided
//! [`Observer::on_step`]: crate::Observer::on_step
//! [`Observer::on_branch`]: crate::Observer::on_branch
//! [`Arc`]: std::sync::Arc

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use binsym_elf::{ElfFile, PF_X};

use crate::observe::Observer;

/// Byte granularity of one coverage slot (RV32IM(+Zbb) instructions are
/// 4-byte aligned).
const SLOT_BYTES: u32 = 4;

/// Most slots a map tracks: one per instruction of the largest segment the
/// ELF reader accepts. Every map's snapshot therefore fits the checkpoint
/// format, whose decoder rejects larger geometries (see `crate::persist`).
pub(crate) const MAX_SLOTS: u32 = binsym_elf::MAX_SEGMENT_SIZE / SLOT_BYTES;

/// A fixed-size, lock-free bitmap of executed program counters and
/// observed branch directions.
///
/// Construct one per binary with [`CoverageMap::from_elf`] (or an explicit
/// range with [`CoverageMap::new`]), feed it through a
/// [`CoverageObserver`], and read it from a [`crate::CoverageGuided`]
/// strategy — or directly via [`CoverageMap::is_covered`] /
/// [`CoverageMap::is_direction_covered`] / [`CoverageMap::covered_count`].
#[derive(Debug)]
pub struct CoverageMap {
    /// Lowest covered address (inclusive).
    base: u32,
    /// Number of instruction slots tracked.
    slots: u32,
    /// One bit per slot: the instruction at this pc has executed.
    insns: Vec<AtomicU64>,
    /// Two bits per slot: the branch at this pc has been observed taken
    /// (even bit) / not taken (odd bit).
    dirs: Vec<AtomicU64>,
}

impl CoverageMap {
    /// Creates a map covering `span` bytes starting at `base`.
    ///
    /// PCs outside the range are ignored by the marking methods and report
    /// as covered by the queries (out-of-text sites carry no exploration
    /// signal, so they never win the "uncovered" priority). A span above
    /// [`binsym_elf::MAX_SEGMENT_SIZE`] is cut to it.
    pub fn new(base: u32, span: u32) -> Self {
        let slots = span.div_ceil(SLOT_BYTES).min(MAX_SLOTS);
        let zeroed = |bits: u32| {
            (0..bits.div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect::<Vec<_>>()
        };
        CoverageMap {
            base,
            slots,
            insns: zeroed(slots),
            dirs: zeroed(slots * 2),
        }
    }

    /// Creates a map spanning the executable segments of `elf` (all
    /// segments, when none is flagged executable).
    pub fn from_elf(elf: &ElfFile) -> Self {
        let exec: Vec<&binsym_elf::Segment> = {
            let flagged: Vec<_> = elf
                .segments
                .iter()
                .filter(|s| s.flags & PF_X != 0)
                .collect();
            if flagged.is_empty() {
                elf.segments.iter().collect()
            } else {
                flagged
            }
        };
        let base = exec.iter().map(|s| s.vaddr).min().unwrap_or(0);
        // Widen to u64: a segment ending at the top of the address space
        // must not wrap (and so silently drop its span).
        let end = exec
            .iter()
            .map(|s| u64::from(s.vaddr) + s.data.len() as u64)
            .max()
            .unwrap_or(0);
        let span = end.saturating_sub(u64::from(base)).min(u64::from(u32::MAX)) as u32;
        CoverageMap::new(base, span)
    }

    /// Convenience: a freshly shared (all-zero) map for `elf`.
    pub fn shared_for(elf: &ElfFile) -> Arc<CoverageMap> {
        Arc::new(CoverageMap::from_elf(elf))
    }

    fn slot(&self, pc: u32) -> Option<u32> {
        let off = pc.wrapping_sub(self.base) / SLOT_BYTES;
        (pc >= self.base && off < self.slots).then_some(off)
    }

    // Relaxed everywhere: the map is a monotone heuristic signal; no other
    // memory is published through it.
    fn set(words: &[AtomicU64], bit: u32) {
        words[(bit / 64) as usize].fetch_or(1u64 << (bit % 64), Ordering::Relaxed);
    }

    fn get(words: &[AtomicU64], bit: u32) -> bool {
        words[(bit / 64) as usize].load(Ordering::Relaxed) & (1u64 << (bit % 64)) != 0
    }

    /// Marks the instruction at `pc` as executed. Out-of-range PCs are
    /// ignored.
    pub fn mark(&self, pc: u32) {
        if let Some(slot) = self.slot(pc) {
            Self::set(&self.insns, slot);
        }
    }

    /// Marks the branch at `pc` as observed going in direction `taken`.
    /// Out-of-range PCs are ignored.
    pub fn mark_direction(&self, pc: u32, taken: bool) {
        if let Some(slot) = self.slot(pc) {
            Self::set(&self.dirs, slot * 2 + u32::from(taken));
        }
    }

    /// True when the instruction at `pc` has executed (out-of-range PCs
    /// report covered, so they never outrank real uncovered text).
    pub fn is_covered(&self, pc: u32) -> bool {
        match self.slot(pc) {
            Some(slot) => Self::get(&self.insns, slot),
            None => true,
        }
    }

    /// True when the branch at `pc` has been observed going in direction
    /// `taken` (out-of-range PCs report covered).
    pub fn is_direction_covered(&self, pc: u32, taken: bool) -> bool {
        match self.slot(pc) {
            Some(slot) => Self::get(&self.dirs, slot * 2 + u32::from(taken)),
            None => true,
        }
    }

    /// Number of distinct instruction slots executed so far.
    pub fn covered_count(&self) -> u64 {
        self.insns
            .iter()
            .map(|w| u64::from(w.load(Ordering::Relaxed).count_ones()))
            .sum()
    }

    /// Number of distinct (branch site, direction) pairs observed so far.
    pub fn covered_directions(&self) -> u64 {
        self.dirs
            .iter()
            .map(|w| u64::from(w.load(Ordering::Relaxed).count_ones()))
            .sum()
    }

    /// Number of instruction slots the map tracks (text span / 4).
    pub fn tracked_slots(&self) -> u64 {
        u64::from(self.slots)
    }

    /// Lowest tracked address.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Captures the current bitmap contents as plain words.
    ///
    /// The snapshot is a *consistent-enough* copy for persistence: the map
    /// is monotone (bits are only ever set), so any interleaving of
    /// concurrent marks yields a snapshot that is a valid past state of the
    /// map — exactly what a checkpoint needs.
    pub fn snapshot(&self) -> CoverageSnapshot {
        let load = |words: &[AtomicU64]| {
            words
                .iter()
                .map(|w| w.load(Ordering::Relaxed))
                .collect::<Vec<u64>>()
        };
        CoverageSnapshot {
            base: self.base,
            slots: self.slots,
            insns: load(&self.insns),
            dirs: load(&self.dirs),
        }
    }

    /// ORs a snapshot's bits back into this map.
    ///
    /// Fails with [`crate::Error::Persist`] when the snapshot was taken
    /// from a map with different geometry (base address or slot count) —
    /// restoring foreign coverage would mislabel addresses.
    pub fn restore(&self, snapshot: &CoverageSnapshot) -> Result<(), crate::Error> {
        if snapshot.base != self.base || snapshot.slots != self.slots {
            return Err(crate::Error::Persist(
                crate::persist::PersistError::Mismatch {
                    what: "coverage map geometry (base/slots)",
                },
            ));
        }
        let merge = |words: &[AtomicU64], saved: &[u64]| {
            for (w, s) in words.iter().zip(saved) {
                w.fetch_or(*s, Ordering::Relaxed);
            }
        };
        merge(&self.insns, &snapshot.insns);
        merge(&self.dirs, &snapshot.dirs);
        Ok(())
    }
}

/// A plain-data copy of a [`CoverageMap`]'s bitmap, as captured by
/// [`CoverageMap::snapshot`] and persisted (run-length encoded — the map is
/// mostly zeros) by the [`crate::persist`] codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageSnapshot {
    pub(crate) base: u32,
    pub(crate) slots: u32,
    pub(crate) insns: Vec<u64>,
    pub(crate) dirs: Vec<u64>,
}

/// An [`Observer`] feeding a shared [`CoverageMap`]: every executed
/// instruction (`on_step`) marks its instruction bit, every recorded
/// branch (`on_branch`) its site and direction bits.
///
/// Clone freely — clones share the same map — and hand clones to
/// [`crate::SessionBuilder::observer`] (sequential) or out of
/// [`crate::SessionBuilder::observer_factory`] (one per worker; the map
/// itself is lock-free, so workers never serialize on it).
#[derive(Debug, Clone)]
pub struct CoverageObserver {
    map: Arc<CoverageMap>,
}

impl CoverageObserver {
    /// Creates an observer feeding `map`.
    pub fn new(map: Arc<CoverageMap>) -> Self {
        CoverageObserver { map }
    }

    /// The shared map this observer feeds.
    pub fn map(&self) -> &Arc<CoverageMap> {
        &self.map
    }
}

impl Observer for CoverageObserver {
    fn on_step(&mut self, pc: u32, _steps: u64) {
        self.map.mark(pc);
    }

    fn on_branch(&mut self, pc: u32, _cond: binsym_smt::Term, taken: bool) {
        self.map.mark(pc);
        self.map.mark_direction(pc, taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_and_query_roundtrip() {
        let map = CoverageMap::new(0x1000, 0x100);
        assert_eq!(map.tracked_slots(), 64);
        assert_eq!(map.covered_count(), 0);
        assert!(!map.is_covered(0x1000));
        map.mark(0x1000);
        map.mark(0x10fc);
        assert!(map.is_covered(0x1000));
        assert!(map.is_covered(0x10fc));
        assert!(!map.is_covered(0x1004));
        assert_eq!(map.covered_count(), 2);
        // Re-marking is idempotent.
        map.mark(0x1000);
        assert_eq!(map.covered_count(), 2);
    }

    #[test]
    fn direction_bits_are_independent_of_instruction_bits() {
        let map = CoverageMap::new(0x1000, 0x100);
        map.mark(0x1004);
        assert!(
            !map.is_direction_covered(0x1004, true),
            "executing the branch instruction observes no direction"
        );
        assert!(!map.is_direction_covered(0x1004, false));
        map.mark_direction(0x1004, true);
        assert!(map.is_direction_covered(0x1004, true));
        assert!(
            !map.is_direction_covered(0x1004, false),
            "directions are tracked separately"
        );
        map.mark_direction(0x1004, false);
        assert!(map.is_direction_covered(0x1004, false));
        assert_eq!(map.covered_directions(), 2);
        assert_eq!(map.covered_count(), 1);
    }

    #[test]
    fn out_of_range_pcs_are_ignored_and_report_covered() {
        let map = CoverageMap::new(0x1000, 0x10);
        map.mark(0x0ffc);
        map.mark(0x1010);
        map.mark(u32::MAX);
        map.mark_direction(0x1010, false);
        assert_eq!(map.covered_count(), 0);
        assert_eq!(map.covered_directions(), 0);
        assert!(map.is_covered(0x0ffc), "below base reports covered");
        assert!(map.is_covered(0x1010), "past end reports covered");
        assert!(map.is_direction_covered(0x1010, false));
    }

    #[test]
    fn map_is_send_and_sync() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<CoverageMap>();
        assert_sync::<CoverageObserver>();
    }

    #[test]
    fn from_elf_spans_executable_segments() {
        use binsym_elf::{Segment, PF_R, PF_W};
        let elf = ElfFile {
            entry: 0x2000,
            segments: vec![
                Segment {
                    vaddr: 0x2000,
                    data: vec![0; 32],
                    flags: PF_R | PF_X,
                },
                Segment {
                    vaddr: 0x9000,
                    data: vec![0; 64],
                    flags: PF_R | PF_W,
                },
            ],
            symbols: Vec::new(),
        };
        let map = CoverageMap::from_elf(&elf);
        assert_eq!(map.base(), 0x2000);
        assert_eq!(map.tracked_slots(), 8, "data segment is not tracked");
        assert!(map.is_covered(0x9000), "data pc carries no signal");
    }

    #[test]
    fn observer_marks_steps_and_branch_directions() {
        let map = Arc::new(CoverageMap::new(0, 0x40));
        let mut obs = CoverageObserver::new(Arc::clone(&map));
        obs.on_step(0x0, 0);
        obs.on_step(0x4, 1);
        let mut tm = binsym_smt::TermManager::new();
        let v = tm.var("c", 1);
        let one = tm.bv_const(1, 1);
        let cond = tm.eq(v, one);
        obs.on_branch(0x8, cond, true);
        assert_eq!(map.covered_count(), 3);
        assert!(map.is_covered(0x8));
        assert!(map.is_direction_covered(0x8, true));
        assert!(!map.is_direction_covered(0x8, false));
    }
}
