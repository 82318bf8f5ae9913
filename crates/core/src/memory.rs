//! The pluggable symbolic-memory layer: address-concretization policies.
//!
//! Both executors (the formal-semantics [`crate::SymMachine`] and the
//! IR-lifter baseline) hit the same question whenever a memory access goes
//! through a symbolic address: *which* concrete cell does this path touch?
//! The paper's §III-B answer — pin the address to its current concrete
//! value with an equality constraint — is one point in a design space this
//! module makes explicit:
//!
//! * [`AddressPolicyKind::ConcretizeEq`] — pin `addr == current concrete
//!   value`. Today's behavior, bit for bit, and the default.
//! * [`AddressPolicyKind::Symbolic`] — keep the address symbolic inside an
//!   aligned window of `window` bytes: loads become array-theory `select`
//!   terms over a `store`-chain of the window's bytes, stores become
//!   per-byte if-then-else weak updates. One path covers every index in the
//!   window, where the concretizing policies explore one address per path.
//!   Accesses that do not fit the window fall back to equality
//!   concretization.
//!
//! Every resolution appends a [`TrailEntry::Concretize`] entry carrying the
//! policy's *choice* (the pinned address, or the window base), so replay
//! and the warm-start cache can key on the decision exactly.
//!
//! Control-flow targets (`WritePc`, indirect jumps) always concretize by
//! equality regardless of policy — a symbolic program counter would fork
//! the fetch itself, which offline DSE does not model. Use
//! [`concretize_jump`] for those sites.

use binsym_isa::Memory;
use binsym_smt::{Term, TermManager};

use crate::machine::TrailEntry;
use crate::value::{SymByte, SymWord};

/// Selects the address-concretization policy of an executor; plain data,
/// threadable through builders, prescriptions, and the persist wire format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AddressPolicyKind {
    /// Pin symbolic addresses to their current concrete value (default;
    /// the paper's §III-B behavior).
    #[default]
    ConcretizeEq,
    /// Keep addresses symbolic within an aligned window of this many
    /// bytes; accesses that do not fit the window fall back to
    /// equality concretization.
    Symbolic {
        /// Window size in bytes (aligned to itself). Accesses that fit an
        /// aligned `window`-byte span stay symbolic within it.
        window: u32,
    },
}

impl AddressPolicyKind {
    /// Resolves the address of a `size`-byte access at instruction `pc`
    /// under this policy, appending a [`TrailEntry::Concretize`] entry to
    /// `trail` when the address is symbolic (the hot path of both
    /// executors).
    ///
    /// Resolution is *deterministic*: it depends only on the address value,
    /// the trail so far, and the policy — never on wall clock, allocation
    /// order, or thread identity. The parallel engine's byte-identical-merge
    /// contract extends over it.
    pub fn resolve(
        self,
        tm: &mut TermManager,
        addr: SymWord,
        size: u32,
        pc: u32,
        trail: &mut Vec<TrailEntry>,
    ) -> Resolution {
        let Some(t) = addr.term else {
            return Resolution::Concrete(addr.concrete);
        };
        let c = addr.concrete;
        match self {
            AddressPolicyKind::ConcretizeEq => {
                pin_eq(tm, t, c, pc, trail);
                Resolution::Concrete(c)
            }
            AddressPolicyKind::Symbolic { window } => {
                let base = c - (c % window.max(1));
                // The whole access must fit the window, and the window
                // bound `base + window` must not wrap the address space.
                let fits = size <= window
                    && base.checked_add(window).is_some()
                    && c - base <= window - size;
                if !fits {
                    pin_eq(tm, t, c, pc, trail);
                    return Resolution::Concrete(c);
                }
                // Constrain addr into [base, base + window - size]: true
                // under the current input (base <= c <= base + window -
                // size), so the path's concrete payloads stay consistent
                // with its constraints.
                let lo = tm.bv_const(u64::from(base), 32);
                let hi = tm.bv_const(u64::from(base + window - size), 32);
                let ge = tm.ule(lo, t);
                let le = tm.ule(t, hi);
                let constraint = tm.and(ge, le);
                if tm.as_bool_const(constraint) != Some(true) {
                    trail.push(TrailEntry::Concretize {
                        constraint,
                        pc,
                        choice: u64::from(base),
                    });
                }
                Resolution::Window {
                    concrete: c,
                    base,
                    term: t,
                    window,
                }
            }
        }
    }
}

impl std::fmt::Display for AddressPolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AddressPolicyKind::ConcretizeEq => write!(f, "eq"),
            AddressPolicyKind::Symbolic { window } => write!(f, "symbolic:{window}"),
        }
    }
}

/// How a (possibly symbolic) address was resolved for one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// The access reads/writes exactly this concrete address (the address
    /// was concrete, or the policy pinned it).
    Concrete(u32),
    /// The access stays symbolic within `[base, base + window)`: the
    /// executor must go through [`load_window_bytes`]/
    /// [`store_window_bytes`] so the term-level view covers every cell the
    /// address could select.
    Window {
        /// Current concrete value of the address (drives concrete
        /// payloads).
        concrete: u32,
        /// First byte of the window.
        base: u32,
        /// The 32-bit address term.
        term: Term,
        /// Window size in bytes.
        window: u32,
    },
}

impl Resolution {
    /// The concrete address the current input drives the access to.
    pub fn concrete(&self) -> u32 {
        match *self {
            Resolution::Concrete(a) => a,
            Resolution::Window { concrete, .. } => concrete,
        }
    }
}

/// Records the §III-B equality pin `addr_term == concrete` on the trail
/// (skipping constant-true constraints, which carry no information).
fn pin_eq(tm: &mut TermManager, t: Term, concrete: u32, pc: u32, trail: &mut Vec<TrailEntry>) {
    let c = tm.bv_const(u64::from(concrete), 32);
    let constraint = tm.eq(t, c);
    if tm.as_bool_const(constraint) != Some(true) {
        trail.push(TrailEntry::Concretize {
            constraint,
            pc,
            choice: u64::from(concrete),
        });
    }
}

/// Concretizes a control-flow target by equality, regardless of the active
/// data policy: the program counter is always concrete in offline DSE.
/// Shared by `WritePc` in the formal-semantics machine and `JumpInd` in the
/// lifter engine.
pub fn concretize_jump(
    tm: &mut TermManager,
    target: SymWord,
    pc: u32,
    trail: &mut Vec<TrailEntry>,
) -> u32 {
    if let Some(t) = target.term {
        pin_eq(tm, t, target.concrete, pc, trail);
    }
    target.concrete
}

/// Loads `n` bytes through a [`Resolution::Window`]: the concrete payload
/// comes from the cell the current input selects, while the term reads
/// `select(A, addr + k)` per byte over an array `A` holding the window's
/// byte terms as a `store` chain. Returns the little-endian `(concrete,
/// term)` pair; the term is always present (the address is symbolic, so
/// the loaded value is input-dependent by construction).
pub fn load_window_bytes(
    tm: &mut TermManager,
    mem: &Memory<SymByte>,
    base: u32,
    window: u32,
    addr_term: Term,
    concrete_addr: u32,
    n: u32,
) -> (u32, Term) {
    let arr = window_array(tm, mem, base, window);
    let mut concrete: u32 = 0;
    let mut bytes = Vec::with_capacity(n as usize);
    for k in 0..n {
        concrete |= u32::from(mem.load(concrete_addr.wrapping_add(k)).concrete) << (8 * k);
        let kc = tm.bv_const(u64::from(k), 32);
        let idx = tm.add(addr_term, kc);
        bytes.push(tm.select(arr, idx));
    }
    // Little-endian concat: byte n-1 is the most significant.
    let mut t = bytes[bytes.len() - 1];
    for &b in bytes.iter().rev().skip(1) {
        t = tm.concat(t, b);
    }
    (concrete, t)
}

/// Stores `n` bytes through a [`Resolution::Window`] as a *weak update*:
/// every window cell's term becomes `ite(addr + k == cell, value_byte_k,
/// old)`, while concrete payloads update only at the cell the current
/// input selects. `value_term` (when present) must be at least `8 * n`
/// bits wide; byte `k` is extracted at `[8k+7 : 8k]`.
#[allow(clippy::too_many_arguments)]
pub fn store_window_bytes(
    tm: &mut TermManager,
    mem: &mut Memory<SymByte>,
    base: u32,
    window: u32,
    addr_term: Term,
    concrete_addr: u32,
    value_concrete: u32,
    value_term: Option<Term>,
    n: u32,
) {
    // Byte terms of the stored value, shared across all window cells.
    let value_bytes: Vec<Term> = (0..n)
        .map(|k| match value_term {
            Some(vt) => tm.extract(vt, 8 * k + 7, 8 * k),
            None => tm.bv_const(u64::from((value_concrete >> (8 * k)) as u8), 8),
        })
        .collect();
    for i in 0..window {
        let a = base.wrapping_add(i);
        let old = *mem.load(a);
        let old_t = old.term_or_const(tm);
        let ac = tm.bv_const(u64::from(a), 32);
        // Nested ite ladder, byte 0 outermost: with distinct offsets k the
        // guards are mutually exclusive, so any fixed order is sound.
        let mut acc = old_t;
        for k in (0..n).rev() {
            let kc = tm.bv_const(u64::from(k), 32);
            let at = tm.add(addr_term, kc);
            let hit = tm.eq(at, ac);
            acc = tm.ite(hit, value_bytes[k as usize], acc);
        }
        let off = a.wrapping_sub(concrete_addr);
        let concrete = if off < n {
            (value_concrete >> (8 * off)) as u8
        } else {
            old.concrete
        };
        // Extracting from constants folds away; drop constant terms like
        // the concrete store path does.
        let term = Some(acc).filter(|t| tm.as_const(*t).is_none());
        mem.store(a, SymByte { concrete, term });
    }
}

/// Builds the array term for a window: a `store` chain over an all-zero
/// constant array, one store per window byte, innermost = lowest address.
fn window_array(tm: &mut TermManager, mem: &Memory<SymByte>, base: u32, window: u32) -> Term {
    let mut arr = tm.array_const(0, 32, 8);
    for i in 0..window {
        let a = base.wrapping_add(i);
        let idx = tm.bv_const(u64::from(a), 32);
        let val = mem.load(a).term_or_const(tm);
        arr = tm.store(arr, idx, val);
    }
    arr
}

#[cfg(test)]
mod tests {
    use super::*;
    use binsym_smt::{SatResult, Solver};

    fn sym_addr(tm: &mut TermManager, concrete: u32) -> SymWord {
        let x = tm.var("a", 32);
        SymWord::symbolic(concrete, x)
    }

    #[test]
    fn eq_policy_pins_current_value() {
        let mut tm = TermManager::new();
        let mut trail = Vec::new();
        let addr = sym_addr(&mut tm, 0x100);
        let r = AddressPolicyKind::ConcretizeEq.resolve(&mut tm, addr, 4, 0x80, &mut trail);
        assert_eq!(r, Resolution::Concrete(0x100));
        assert!(matches!(
            trail.as_slice(),
            [TrailEntry::Concretize {
                pc: 0x80,
                choice: 0x100,
                ..
            }]
        ));
    }

    #[test]
    fn concrete_addresses_record_nothing() {
        let mut tm = TermManager::new();
        let mut trail = Vec::new();
        for kind in [
            AddressPolicyKind::ConcretizeEq,
            AddressPolicyKind::Symbolic { window: 16 },
        ] {
            let r = kind.resolve(&mut tm, SymWord::concrete(0x44), 4, 0, &mut trail);
            assert_eq!(r, Resolution::Concrete(0x44));
        }
        assert!(trail.is_empty());
    }

    #[test]
    fn symbolic_policy_windows_the_access() {
        let mut tm = TermManager::new();
        let mut trail = Vec::new();
        let addr = sym_addr(&mut tm, 0x103);
        let r =
            AddressPolicyKind::Symbolic { window: 16 }.resolve(&mut tm, addr, 1, 0x90, &mut trail);
        match r {
            Resolution::Window {
                concrete,
                base,
                window,
                ..
            } => {
                assert_eq!(concrete, 0x103);
                assert_eq!(base, 0x100);
                assert_eq!(window, 16);
            }
            other => panic!("expected window resolution, got {other:?}"),
        }
        // The window constraint records the base as the decision.
        assert!(matches!(
            trail.as_slice(),
            [TrailEntry::Concretize {
                choice: 0x100,
                pc: 0x90,
                ..
            }]
        ));
    }

    #[test]
    fn symbolic_policy_falls_back_when_access_does_not_fit() {
        // A 4-byte access at offset 14 of a 16-byte window crosses the
        // window end: fall back to the eq pin.
        let mut tm = TermManager::new();
        let mut trail = Vec::new();
        let addr = sym_addr(&mut tm, 0x10e);
        let r =
            AddressPolicyKind::Symbolic { window: 16 }.resolve(&mut tm, addr, 4, 0x90, &mut trail);
        assert_eq!(r, Resolution::Concrete(0x10e));
        assert!(matches!(
            trail.as_slice(),
            [TrailEntry::Concretize { choice: 0x10e, .. }]
        ));
    }

    #[test]
    fn window_load_selects_every_cell() {
        // mem[0x100..0x104] = [10, 20, 30, 40]; a symbolic index with
        // concrete value 2 loads 30 concretely, and the term must evaluate
        // to the right cell for *any* in-window index.
        let mut tm = TermManager::new();
        let mut mem: Memory<SymByte> = Memory::new(SymByte::concrete(0));
        for (i, v) in [10u8, 20, 30, 40].iter().enumerate() {
            mem.store(0x100 + i as u32, SymByte::concrete(*v));
        }
        let x = tm.var("a", 32);
        let (concrete, term) = load_window_bytes(&mut tm, &mem, 0x100, 4, x, 0x102, 1);
        assert_eq!(concrete, 30);
        // Pin the index to each cell and check the circuit agrees.
        let mut solver = Solver::new();
        for (i, v) in [10u64, 20, 30, 40].iter().enumerate() {
            let ic = tm.bv_const(0x100 + i as u64, 32);
            let pin = tm.eq(x, ic);
            let vc = tm.bv_const(*v, 8);
            let want = tm.eq(term, vc);
            let both = tm.and(pin, want);
            assert_eq!(solver.check_sat(&mut tm, &[both]), SatResult::Sat);
            let nw = tm.not(want);
            let deny = tm.and(pin, nw);
            assert_eq!(solver.check_sat(&mut tm, &[deny]), SatResult::Unsat);
        }
    }

    #[test]
    fn window_store_weakly_updates_every_cell() {
        // Store value 0x5A at symbolic address (concrete 0x101) into a
        // 4-byte window: concretely only 0x101 changes, symbolically every
        // cell's term is an ite on the address.
        let mut tm = TermManager::new();
        let mut mem: Memory<SymByte> = Memory::new(SymByte::concrete(0));
        for i in 0..4u32 {
            mem.store(0x100 + i, SymByte::concrete(i as u8));
        }
        let x = tm.var("a", 32);
        store_window_bytes(&mut tm, &mut mem, 0x100, 4, x, 0x101, 0x5A, None, 1);
        assert_eq!(mem.load(0x101).concrete, 0x5A);
        assert_eq!(mem.load(0x100).concrete, 0);
        assert_eq!(mem.load(0x102).concrete, 2);
        // Cell 0x102's term must yield 0x5A iff the address picks it.
        let t = mem.load(0x102).term.expect("weak update leaves a term");
        let mut solver = Solver::new();
        let ic = tm.bv_const(0x102, 32);
        let pin = tm.eq(x, ic);
        solver.assert_term(&mut tm, pin);
        let vc = tm.bv_const(0x5A, 8);
        let want = tm.eq(t, vc);
        assert_eq!(solver.check_sat(&mut tm, &[want]), SatResult::Sat);
        let deny = tm.not(want);
        assert_eq!(solver.check_sat(&mut tm, &[deny]), SatResult::Unsat);
    }

    #[test]
    fn policy_kind_display_round_trips_the_cli_spelling() {
        assert_eq!(AddressPolicyKind::ConcretizeEq.to_string(), "eq");
        assert_eq!(
            AddressPolicyKind::Symbolic { window: 64 }.to_string(),
            "symbolic:64"
        );
    }
}
