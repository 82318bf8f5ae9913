//! The symbolic modular interpreter.
//!
//! [`SymMachine`] executes one path of the SUT *concolically*: the concrete
//! payloads of [`SymWord`]/[`SymByte`] values decide control flow, while the
//! attached SMT terms record, per value, how it was computed from the
//! symbolic inputs. Interpreting a specification statement does three things:
//!
//! 1. **encode** — expression primitives are translated to SMT terms
//!    (`Add` → `bvadd`, `UDiv` → `bvudiv`, `Eq` → `=`, …);
//! 2. **update** — stateful primitives write the symbolic register
//!    file/memory (the generic components reused from `binsym-isa`);
//! 3. **record** — every `runIfElse` whose condition depends on symbolic
//!    input appends a [`TrailEntry::Branch`] to the path trail, and every
//!    memory access through a symbolic address appends a
//!    [`TrailEntry::Concretize`] constraint pinning the address to its
//!    concrete value (the paper's address concretization).
//!
//! The offline exploration loop in [`crate::session`] replays and flips
//! these trail entries to enumerate paths.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use binsym_elf::ElfFile;
use binsym_isa::{Expr, MemWidth, Memory, Reg, RegFile, Spec, Stmt};
use binsym_smt::hash::FxHashMap;
use binsym_smt::{Term, TermManager};

use crate::memory::{self, AddressPolicyKind, Resolution};
use crate::value::{SymByte, SymWord};
use crate::SYSCALL_EXIT;

/// One entry of the path trail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrailEntry {
    /// A `runIfElse` on a symbolic condition: `cond` is the boolean term,
    /// `taken` the direction the concrete payload chose, `pc` the address
    /// of the branching instruction (the *branch site* — the unit of the
    /// coverage map, see [`crate::CoverageMap`]).
    Branch {
        /// Boolean condition term.
        cond: Term,
        /// Direction taken on this path.
        taken: bool,
        /// Program counter of the branching instruction.
        pc: u32,
    },
    /// An address-concretization constraint (always true on this path and
    /// never flipped).
    Concretize {
        /// Boolean constraint recorded by the address policy: `addr_term =
        /// pinned_addr` for the concretizing policies, a window-membership
        /// conjunction for [`crate::AddressPolicyKind::Symbolic`].
        constraint: Term,
        /// Program counter of the accessing instruction.
        pc: u32,
        /// The policy's decision: the pinned address for the concretizing
        /// policies, the window base for the symbolic policy. Together with
        /// `pc` this keys the decision for replay.
        choice: u64,
    },
}

impl TrailEntry {
    /// The boolean term this entry contributes to the path condition.
    pub fn path_term(&self, tm: &mut TermManager) -> Term {
        match *self {
            TrailEntry::Branch { cond, taken, .. } => {
                if taken {
                    cond
                } else {
                    tm.not(cond)
                }
            }
            TrailEntry::Concretize { constraint, .. } => constraint,
        }
    }

    /// True for flippable branch entries.
    pub fn is_branch(&self) -> bool {
        matches!(self, TrailEntry::Branch { .. })
    }
}

/// Result of a single [`SymMachine::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult {
    /// Execution continues.
    Continue,
    /// `ecall` exit; payload is the concrete `a0`.
    Exited(u32),
    /// `ebreak`.
    Break,
}

/// Execution error during symbolic interpretation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Illegal instruction.
    Decode(binsym_isa::DecodeError),
    /// `ecall` with an unsupported syscall number.
    UnknownSyscall {
        /// Value of `a7`.
        number: u32,
        /// Program counter of the `ecall`.
        pc: u32,
    },
    /// The program counter became symbolic in a way that could not be
    /// concretized (should not happen for well-formed SUTs).
    SymbolicPc {
        /// Program counter before the jump.
        pc: u32,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Decode(e) => write!(f, "{e}"),
            ExecError::UnknownSyscall { number, pc } => {
                write!(f, "unknown syscall {number} at pc {pc:#010x}")
            }
            ExecError::SymbolicPc { pc } => write!(f, "symbolic jump target at {pc:#010x}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<binsym_isa::DecodeError> for ExecError {
    fn from(e: binsym_isa::DecodeError) -> Self {
        ExecError::Decode(e)
    }
}

/// Internal evaluated value: concrete payload + optional term, where 1-bit
/// expressions are represented as boolean terms.
#[derive(Debug, Clone, Copy)]
struct Sv {
    c: u64,
    t: Option<TermV>,
}

#[derive(Debug, Clone, Copy)]
enum TermV {
    Bv(Term),
    Bool(Term),
}

impl Sv {
    fn concrete(c: u64) -> Sv {
        Sv { c, t: None }
    }

    fn bv_term(self, tm: &mut TermManager, width: u32) -> Term {
        match self.t {
            Some(TermV::Bv(t)) => t,
            Some(TermV::Bool(b)) => tm.bool_to_bv(b, width),
            None => tm.bv_const(self.c, width),
        }
    }

    fn bool_term(self, tm: &mut TermManager) -> Term {
        match self.t {
            Some(TermV::Bool(b)) => b,
            Some(TermV::Bv(t)) => {
                let one = tm.bv_const(1, tm.width(t));
                tm.eq(t, one)
            }
            None => tm.bool_const(self.c != 0),
        }
    }

    fn is_symbolic(self) -> bool {
        self.t.is_some()
    }
}

#[inline]
fn mask(v: u64, w: u32) -> u64 {
    if w >= 64 {
        v
    } else {
        v & ((1u64 << w) - 1)
    }
}

#[inline]
fn sext(v: u64, w: u32) -> i64 {
    let sh = 64 - w;
    ((v << sh) as i64) >> sh
}

/// The symbolic RV32 machine state for one path execution.
///
/// A step fetches the instruction word at `pc` with one page lookup,
/// decodes it and runs its semantics program from the [`Spec`]. Decoding
/// and semantics are memoized per raw instruction word (not per `pc`, so
/// code a program overwrites runs as its new words) in a map hashed with
/// [`binsym_smt::hash::FxHasher`], and a clone shares the memo with the
/// machine it was cloned from. A clone also shares the memory pages
/// copy-on-write (see [`Memory`]): it copies the page table, and a page
/// only when one side first writes it. The engine's
/// [`crate::SpecExecutor`] therefore loads the ELF into one machine and
/// starts every path from a clone of it: the load, the decode and the
/// semantics construction are paid once per executor, and a path copies
/// only the pages it writes. Sharing the memo makes a machine neither
/// `Send` nor `Sync`; build one per thread.
#[derive(Debug, Clone)]
pub struct SymMachine {
    spec: Spec,
    /// Semantics programs by raw instruction word, shared with clones (one
    /// map per thread, so a step takes no lock). Keyed by words the machine
    /// fetched, so it hashes with the fixed multiplicative hasher.
    memo: Rc<RefCell<FxHashMap<u32, Rc<[Stmt]>>>>,
    /// Symbolic register file (generic component from the specification).
    pub regs: RegFile<SymWord>,
    /// Symbolic memory (generic component from the specification).
    pub mem: Memory<SymByte>,
    /// Program counter (always concrete; DSE concretizes control flow).
    pub pc: u32,
    /// Instructions executed on this path.
    pub steps: u64,
    /// The path trail: symbolic branches and concretization constraints.
    pub trail: Vec<TrailEntry>,
    /// How memory accesses through symbolic addresses are resolved (see
    /// [`crate::memory`]); defaults to [`AddressPolicyKind::ConcretizeEq`],
    /// the paper's behavior.
    pub policy: AddressPolicyKind,
    next_pc: Option<u32>,
}

impl SymMachine {
    /// Creates a machine with zeroed concrete state and no symbolic values.
    pub fn new(spec: Spec) -> Self {
        SymMachine {
            spec,
            memo: Rc::default(),
            regs: RegFile::new(SymWord::concrete(0)),
            mem: Memory::new(SymByte::concrete(0)),
            pc: 0,
            steps: 0,
            trail: Vec::new(),
            policy: AddressPolicyKind::default(),
            next_pc: None,
        }
    }

    /// The interpreted specification.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// Loads an ELF image (segments + entry point) as concrete memory.
    pub fn load_elf(&mut self, elf: &ElfFile) {
        for seg in &elf.segments {
            for (i, &b) in seg.data.iter().enumerate() {
                self.mem
                    .store(seg.vaddr.wrapping_add(i as u32), SymByte::concrete(b));
            }
        }
        self.pc = elf.entry;
    }

    /// Replaces `len` bytes at `addr` with fresh symbolic variables named
    /// `{prefix}{i}`, whose concrete payloads come from `concrete` (zero
    /// padded). Returns the variable terms.
    pub fn mark_symbolic(
        &mut self,
        tm: &mut TermManager,
        addr: u32,
        len: u32,
        prefix: &str,
        concrete: &[u8],
    ) -> Vec<Term> {
        let mut vars = Vec::with_capacity(len as usize);
        for i in 0..len {
            let name = format!("{prefix}{i}");
            let var = tm.var(&name, 8);
            let c = concrete.get(i as usize).copied().unwrap_or(0);
            self.mem
                .store(addr.wrapping_add(i), SymByte::symbolic(c, var));
            vars.push(var);
        }
        vars
    }

    /// Evaluates an expression primitive: concrete payload plus (when any
    /// operand is symbolic) the SMT term. This is the paper's *encode* step.
    fn eval(&self, tm: &mut TermManager, e: &Expr) -> Sv {
        let w = e.width();
        // Helper for binary bitvector operations.
        macro_rules! bv_binop {
            ($a:expr, $b:expr, $cfn:expr, $tfn:ident) => {{
                let (a, b) = (self.eval(tm, $a), self.eval(tm, $b));
                let c = $cfn(a.c, b.c);
                let t = if a.is_symbolic() || b.is_symbolic() {
                    let ta = a.bv_term(tm, w);
                    let tb = b.bv_term(tm, w);
                    Some(TermV::Bv(tm.$tfn(ta, tb)))
                } else {
                    None
                };
                Sv { c, t }
            }};
        }
        // Helper for comparison predicates (1-bit result, boolean term).
        macro_rules! bv_cmp {
            ($a:expr, $b:expr, $cfn:expr, $tfn:ident) => {{
                let (a, b) = (self.eval(tm, $a), self.eval(tm, $b));
                let aw = $a.width();
                let c = u64::from($cfn(a.c, b.c, aw));
                let t = if a.is_symbolic() || b.is_symbolic() {
                    let ta = a.bv_term(tm, aw);
                    let tb = b.bv_term(tm, aw);
                    Some(TermV::Bool(tm.$tfn(ta, tb)))
                } else {
                    None
                };
                Sv { c, t }
            }};
        }
        match e {
            Expr::Const { value, width } => Sv::concrete(mask(*value, *width)),
            Expr::Reg(r) => {
                let v = *self.regs.read(*r);
                Sv {
                    c: u64::from(v.concrete),
                    t: v.term.map(TermV::Bv),
                }
            }
            Expr::Pc => Sv::concrete(u64::from(self.pc)),
            Expr::Not(a) => {
                let a = self.eval(tm, a);
                if w == 1 {
                    let t = if a.is_symbolic() {
                        let b = a.bool_term(tm);
                        Some(TermV::Bool(tm.not(b)))
                    } else {
                        None
                    };
                    Sv {
                        c: u64::from(a.c == 0),
                        t,
                    }
                } else {
                    let t = if a.is_symbolic() {
                        let ta = a.bv_term(tm, w);
                        Some(TermV::Bv(tm.bv_not(ta)))
                    } else {
                        None
                    };
                    Sv {
                        c: mask(!a.c, w),
                        t,
                    }
                }
            }
            Expr::Neg(a) => {
                let a = self.eval(tm, a);
                let t = if a.is_symbolic() {
                    let ta = a.bv_term(tm, w);
                    Some(TermV::Bv(tm.bv_neg(ta)))
                } else {
                    None
                };
                Sv {
                    c: mask(a.c.wrapping_neg(), w),
                    t,
                }
            }
            Expr::Add(a, b) => bv_binop!(a, b, |x: u64, y: u64| mask(x.wrapping_add(y), w), add),
            Expr::Sub(a, b) => bv_binop!(a, b, |x: u64, y: u64| mask(x.wrapping_sub(y), w), sub),
            Expr::Mul(a, b) => bv_binop!(a, b, |x: u64, y: u64| mask(x.wrapping_mul(y), w), mul),
            Expr::UDiv(a, b) => bv_binop!(
                a,
                b,
                |x: u64, y: u64| x.checked_div(y).unwrap_or(mask(u64::MAX, w)),
                udiv
            ),
            Expr::SDiv(a, b) => bv_binop!(
                a,
                b,
                |x: u64, y: u64| {
                    let (xs, ys) = (sext(x, w), sext(y, w));
                    let r = if ys == 0 { -1 } else { xs.wrapping_div(ys) };
                    mask(r as u64, w)
                },
                sdiv
            ),
            Expr::URem(a, b) => {
                bv_binop!(a, b, |x: u64, y: u64| if y == 0 { x } else { x % y }, urem)
            }
            Expr::SRem(a, b) => bv_binop!(
                a,
                b,
                |x: u64, y: u64| {
                    let (xs, ys) = (sext(x, w), sext(y, w));
                    let r = if ys == 0 { xs } else { xs.wrapping_rem(ys) };
                    mask(r as u64, w)
                },
                srem
            ),
            Expr::And(a, b) if w == 1 => {
                let (a, b) = (self.eval(tm, a), self.eval(tm, b));
                let c = u64::from(a.c != 0 && b.c != 0);
                let t = if a.is_symbolic() || b.is_symbolic() {
                    let ta = a.bool_term(tm);
                    let tb = b.bool_term(tm);
                    Some(TermV::Bool(tm.and(ta, tb)))
                } else {
                    None
                };
                Sv { c, t }
            }
            Expr::Or(a, b) if w == 1 => {
                let (a, b) = (self.eval(tm, a), self.eval(tm, b));
                let c = u64::from(a.c != 0 || b.c != 0);
                let t = if a.is_symbolic() || b.is_symbolic() {
                    let ta = a.bool_term(tm);
                    let tb = b.bool_term(tm);
                    Some(TermV::Bool(tm.or(ta, tb)))
                } else {
                    None
                };
                Sv { c, t }
            }
            Expr::Xor(a, b) if w == 1 => {
                let (a, b) = (self.eval(tm, a), self.eval(tm, b));
                let c = u64::from((a.c != 0) ^ (b.c != 0));
                let t = if a.is_symbolic() || b.is_symbolic() {
                    let ta = a.bool_term(tm);
                    let tb = b.bool_term(tm);
                    Some(TermV::Bool(tm.xor(ta, tb)))
                } else {
                    None
                };
                Sv { c, t }
            }
            Expr::And(a, b) => bv_binop!(a, b, |x: u64, y: u64| x & y, bv_and),
            Expr::Or(a, b) => bv_binop!(a, b, |x: u64, y: u64| x | y, bv_or),
            Expr::Xor(a, b) => bv_binop!(a, b, |x: u64, y: u64| x ^ y, bv_xor),
            Expr::Shl(a, b) => bv_binop!(
                a,
                b,
                |x: u64, y: u64| if y >= u64::from(w) {
                    0
                } else {
                    mask(x << y, w)
                },
                shl
            ),
            Expr::LShr(a, b) => bv_binop!(
                a,
                b,
                |x: u64, y: u64| if y >= u64::from(w) { 0 } else { x >> y },
                lshr
            ),
            Expr::AShr(a, b) => bv_binop!(
                a,
                b,
                |x: u64, y: u64| {
                    let xs = sext(x, w);
                    let sh = y.min(u64::from(w) - 1) as u32;
                    mask((xs >> sh) as u64, w)
                },
                ashr
            ),
            Expr::Eq(a, b) => bv_cmp!(a, b, |x, y, _| x == y, eq),
            Expr::Ne(a, b) => bv_cmp!(a, b, |x, y, _| x != y, ne),
            Expr::Ult(a, b) => bv_cmp!(a, b, |x, y, _| x < y, ult),
            Expr::Slt(a, b) => bv_cmp!(a, b, |x, y, aw| sext(x, aw) < sext(y, aw), slt),
            Expr::Uge(a, b) => bv_cmp!(a, b, |x, y, _| x >= y, uge),
            Expr::Sge(a, b) => bv_cmp!(a, b, |x, y, aw| sext(x, aw) >= sext(y, aw), sge),
            Expr::Ite { cond, then, els } => {
                let c = self.eval(tm, cond);
                let tv = self.eval(tm, then);
                let ev = self.eval(tm, els);
                let concrete = if c.c != 0 { tv.c } else { ev.c };
                let any_sym = c.is_symbolic() || tv.is_symbolic() || ev.is_symbolic();
                let t = if any_sym {
                    let cb = c.bool_term(tm);
                    let tt = tv.bv_term(tm, w);
                    let te = ev.bv_term(tm, w);
                    Some(TermV::Bv(tm.ite(cb, tt, te)))
                } else {
                    None
                };
                Sv { c: concrete, t }
            }
            Expr::SExt { value, to } => {
                let vw = value.width();
                let v = self.eval(tm, value);
                let c = mask(sext(v.c, vw) as u64, *to);
                let t = if v.is_symbolic() {
                    let tv = v.bv_term(tm, vw);
                    Some(TermV::Bv(tm.sext(tv, *to)))
                } else {
                    None
                };
                Sv { c, t }
            }
            Expr::ZExt { value, to } => {
                let vw = value.width();
                let v = self.eval(tm, value);
                let t = if v.is_symbolic() {
                    let tv = v.bv_term(tm, vw);
                    Some(TermV::Bv(tm.zext(tv, *to)))
                } else {
                    None
                };
                Sv { c: v.c, t }
            }
            Expr::Extract { value, hi, lo } => {
                let vw = value.width();
                let v = self.eval(tm, value);
                let c = mask(v.c >> lo, hi - lo + 1);
                let t = if v.is_symbolic() {
                    let tv = v.bv_term(tm, vw);
                    Some(TermV::Bv(tm.extract(tv, *hi, *lo)))
                } else {
                    None
                };
                Sv { c, t }
            }
            Expr::Concat(a, b) => {
                let bw = b.width();
                let aw = a.width();
                let av = self.eval(tm, a);
                let bv = self.eval(tm, b);
                let c = mask((av.c << bw) | bv.c, w);
                let t = if av.is_symbolic() || bv.is_symbolic() {
                    let ta = av.bv_term(tm, aw);
                    let tb = bv.bv_term(tm, bw);
                    Some(TermV::Bv(tm.concat(ta, tb)))
                } else {
                    None
                };
                Sv { c, t }
            }
        }
    }

    /// Evaluates a 32-bit expression to a [`SymWord`].
    fn eval_word(&self, tm: &mut TermManager, e: &Expr) -> SymWord {
        let v = self.eval(tm, e);
        debug_assert_eq!(e.width(), 32);
        SymWord {
            concrete: v.c as u32,
            term: v.t.map(|t| match t {
                TermV::Bv(t) => t,
                TermV::Bool(b) => tm.bool_to_bv(b, 32),
            }),
        }
    }

    /// Resolves an address expression for a `size`-byte access through the
    /// machine's [`AddressPolicyKind`] (§III-B address concretization, or a
    /// windowed symbolic resolution — see [`crate::memory`]).
    fn resolve_addr(&mut self, tm: &mut TermManager, e: &Expr, size: u32) -> Resolution {
        let v = self.eval_word(tm, e);
        self.policy.resolve(tm, v, size, self.pc, &mut self.trail)
    }

    fn load_word_bytes(&self, tm: &mut TermManager, addr: u32, n: u32) -> SymWord {
        let mut word = [SymByte::concrete(0); 4];
        let bytes = &mut word[..n as usize];
        self.mem.load_into(addr, bytes);
        let mut concrete: u32 = 0;
        for (i, b) in bytes.iter().enumerate() {
            concrete |= u32::from(b.concrete) << (8 * i);
        }
        let any_sym = bytes.iter().any(|b| b.is_symbolic());
        let term = if any_sym {
            // Little-endian: byte n-1 is the most significant.
            let mut t = bytes[bytes.len() - 1].term_or_const(tm);
            for b in bytes.iter().rev().skip(1) {
                let tb = b.term_or_const(tm);
                t = tm.concat(t, tb);
            }
            Some(t)
        } else {
            None
        };
        SymWord { concrete, term }
    }

    fn store_word_bytes(&mut self, tm: &mut TermManager, addr: u32, v: SymWord, n: u32) {
        for i in 0..n {
            let c = (v.concrete >> (8 * i)) as u8;
            let t = v
                .term
                .map(|t| tm.extract(t, 8 * i + 7, 8 * i))
                // Extracting from a constant folds away; drop constant terms.
                .filter(|t| tm.as_const(*t).is_none());
            self.mem.store(
                addr.wrapping_add(i),
                SymByte {
                    concrete: c,
                    term: t,
                },
            );
        }
    }

    fn exec_stmts(
        &mut self,
        tm: &mut TermManager,
        stmts: &[Stmt],
    ) -> Result<StepResult, ExecError> {
        for s in stmts {
            match s {
                Stmt::WriteRegister { rd, value } => {
                    let v = self.eval_word(tm, value);
                    self.regs.write(*rd, v);
                }
                Stmt::WritePc(e) => {
                    // Symbolic jump targets always concretize by equality,
                    // regardless of the data-access policy.
                    let v = self.eval_word(tm, e);
                    let target = memory::concretize_jump(tm, v, self.pc, &mut self.trail);
                    self.next_pc = Some(target);
                }
                Stmt::Load {
                    rd,
                    width,
                    signed,
                    addr,
                } => {
                    let n = width.bytes();
                    let raw = match self.resolve_addr(tm, addr, n) {
                        Resolution::Concrete(a) => self.load_word_bytes(tm, a, n),
                        Resolution::Window {
                            concrete,
                            base,
                            term,
                            window,
                        } => {
                            let (c, t) = memory::load_window_bytes(
                                tm, &self.mem, base, window, term, concrete, n,
                            );
                            SymWord {
                                concrete: c,
                                term: Some(t),
                            }
                        }
                    };
                    let v = match (width, signed) {
                        (MemWidth::Word, _) => raw,
                        (_, false) => SymWord {
                            concrete: raw.concrete & (width.bits_mask()),
                            term: raw.term.map(|t| {
                                let e = tm.extract(t, width.bits() - 1, 0);
                                tm.zext(e, 32)
                            }),
                        },
                        (_, true) => {
                            let bits = width.bits();
                            let se = mask(sext(u64::from(raw.concrete), bits) as u64, 32) as u32;
                            SymWord {
                                concrete: se,
                                term: raw.term.map(|t| {
                                    let e = tm.extract(t, bits - 1, 0);
                                    tm.sext(e, 32)
                                }),
                            }
                        }
                    };
                    self.regs.write(*rd, v);
                }
                Stmt::Store { width, addr, value } => {
                    let n = width.bytes();
                    match self.resolve_addr(tm, addr, n) {
                        Resolution::Concrete(a) => {
                            let v = self.eval_word(tm, value);
                            self.store_word_bytes(tm, a, v, n);
                        }
                        Resolution::Window {
                            concrete,
                            base,
                            term,
                            window,
                        } => {
                            let v = self.eval_word(tm, value);
                            memory::store_window_bytes(
                                tm,
                                &mut self.mem,
                                base,
                                window,
                                term,
                                concrete,
                                v.concrete,
                                v.term,
                                n,
                            );
                        }
                    }
                }
                Stmt::If { cond, then, els } => {
                    let c = self.eval(tm, cond);
                    let taken = c.c != 0;
                    if c.is_symbolic() {
                        let cb = c.bool_term(tm);
                        // A constant condition (after simplification) is not
                        // a real branch point.
                        match tm.as_bool_const(cb) {
                            Some(_) => {}
                            None => self.trail.push(TrailEntry::Branch {
                                cond: cb,
                                taken,
                                pc: self.pc,
                            }),
                        }
                    }
                    let branch = if taken { then } else { els };
                    let r = self.exec_stmts(tm, branch)?;
                    if r != StepResult::Continue {
                        return Ok(r);
                    }
                }
                Stmt::Ecall => {
                    let num = self.regs.read(Reg::A7).concrete;
                    if num == SYSCALL_EXIT {
                        return Ok(StepResult::Exited(self.regs.read(Reg::A0).concrete));
                    }
                    return Err(ExecError::UnknownSyscall {
                        number: num,
                        pc: self.pc,
                    });
                }
                Stmt::Ebreak => return Ok(StepResult::Break),
                Stmt::Fence => {}
            }
        }
        Ok(StepResult::Continue)
    }

    /// Fetch–decode–execute of one instruction. Fetch reads the *concrete*
    /// payload of the bytes at `pc` (code is concretized): a program that
    /// stores new concrete words over its own code runs the new words.
    /// The four bytes cost one page lookup, or one per byte for a word
    /// that straddles two pages (`jalr` can reach a pc ≡ 2 mod 4).
    ///
    /// # Errors
    /// Returns [`ExecError`] on illegal instructions or unknown syscalls.
    pub fn step(&mut self, tm: &mut TermManager) -> Result<StepResult, ExecError> {
        let mut word = [SymByte::concrete(0); 4];
        self.mem.load_into(self.pc, &mut word);
        let raw = u32::from_le_bytes(word.map(|b| b.concrete));
        let prog = self.program(raw)?;
        self.next_pc = None;
        let r = self.exec_stmts(tm, &prog)?;
        self.steps += 1;
        if r == StepResult::Continue {
            self.pc = self.next_pc.unwrap_or(self.pc.wrapping_add(4));
        }
        Ok(r)
    }

    /// The semantics program of instruction word `raw`, decoded and built
    /// on its first execution and memoized from then on.
    fn program(&self, raw: u32) -> Result<Rc<[Stmt]>, ExecError> {
        if let Some(prog) = self.memo.borrow().get(&raw) {
            return Ok(Rc::clone(prog));
        }
        let d = self.spec.decode(raw).map_err(|mut e| {
            e.addr = Some(self.pc);
            e
        })?;
        let prog: Rc<[Stmt]> = self.spec.semantics(&d).into();
        self.memo.borrow_mut().insert(raw, Rc::clone(&prog));
        Ok(prog)
    }
}

trait MemWidthExt {
    fn bits_mask(self) -> u32;
}

impl MemWidthExt for MemWidth {
    fn bits_mask(self) -> u32 {
        match self {
            MemWidth::Byte => 0xff,
            MemWidth::Half => 0xffff,
            MemWidth::Word => 0xffff_ffff,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use binsym_asm::Assembler;

    fn machine_with(src: &str) -> (SymMachine, TermManager) {
        let elf = Assembler::new().assemble(src).expect("assembles");
        let mut m = SymMachine::new(Spec::rv32im());
        m.load_elf(&elf);
        (m, TermManager::new())
    }

    fn run(m: &mut SymMachine, tm: &mut TermManager, fuel: u64) -> StepResult {
        for _ in 0..fuel {
            match m.step(tm).expect("step") {
                StepResult::Continue => {}
                r => return r,
            }
        }
        panic!("out of fuel");
    }

    /// Runs `patch` once as `li a0, 1`, overwrites it with the word of
    /// `li a0, 7` and runs it again: the second run must execute what
    /// memory now holds, although the first run memoized the old word.
    const SELF_MODIFYING: &str = r#"
_start:
    li s0, 0
patch:
    li a0, 1
    bnez s0, done
    li s0, 1
    la t0, patch
    li t1, 0x00700513
    sw t1, 0(t0)
    j patch
done:
    li a7, 93
    ecall
"#;

    #[test]
    fn overwritten_code_runs_its_new_word() {
        let (mut m, mut tm) = machine_with(SELF_MODIFYING);
        assert_eq!(run(&mut m, &mut tm, 100), StepResult::Exited(7));
    }

    #[test]
    fn clones_share_the_memo_but_not_the_memory() {
        let (image, mut tm) = machine_with(SELF_MODIFYING);
        let word_at = |m: &SymMachine, addr: u32| -> Vec<u8> {
            (0..4).map(|i| m.mem.load(addr + i).concrete).collect()
        };
        let patch = image.pc + 4;
        let original = word_at(&image, patch);
        let mut memo_sizes = Vec::new();
        for _ in 0..2 {
            let mut m = image.clone();
            assert_eq!(run(&mut m, &mut tm, 100), StepResult::Exited(7));
            assert_eq!(word_at(&m, patch), 0x0070_0513u32.to_le_bytes());
            memo_sizes.push(image.memo.borrow().len());
        }
        assert_eq!(
            word_at(&image, patch),
            original,
            "the image stays as loaded"
        );
        assert!(memo_sizes[0] > 0, "the first clone fills the image's memo");
        assert_eq!(
            memo_sizes[0], memo_sizes[1],
            "the second clone only reads it"
        );
    }

    #[test]
    fn extending_a_clone_of_the_spec_leaves_the_original_unchanged() {
        use binsym_isa::encoding::MADD_YAML;
        use binsym_isa::spec::madd_semantics;
        // madd a0, a1, a2, a3
        let madd = (13 << 27) | (1 << 25) | (12 << 20) | (11 << 15) | (10 << 7) | 0x43;
        let elf = Assembler::new()
            .assemble(&format!(
                "_start:\n li a1, 3\n li a2, 4\n li a3, 5\n .word {madd}\n li a7, 93\n ecall\n"
            ))
            .expect("assembles");
        let original = Spec::rv32im();
        let mut extended = original.clone();
        extended
            .register_custom(MADD_YAML, madd_semantics())
            .expect("registers");
        assert_eq!(original.table().len() + 1, extended.table().len());

        let mut tm = TermManager::new();
        let mut m = SymMachine::new(extended);
        m.load_elf(&elf);
        assert_eq!(run(&mut m, &mut tm, 10), StepResult::Exited(3 * 4 + 5));
        let mut m = SymMachine::new(original);
        m.load_elf(&elf);
        let err = (0..4).find_map(|_| m.step(&mut tm).err());
        assert!(matches!(err, Some(ExecError::Decode(_))), "{err:?}");
    }

    #[test]
    fn concrete_execution_records_no_trail() {
        let (mut m, mut tm) = machine_with(
            r#"
_start:
    li a0, 5
    li a1, 3
    blt a1, a0, done
    li a0, 0
done:
    li a7, 93
    ecall
"#,
        );
        let r = run(&mut m, &mut tm, 100);
        assert_eq!(r, StepResult::Exited(5));
        assert!(m.trail.is_empty(), "concrete branches must not be recorded");
    }

    #[test]
    fn symbolic_branch_recorded() {
        let (mut m, mut tm) = machine_with(
            r#"
        .data
__sym_input: .word 0
        .text
_start:
    la a0, __sym_input
    lw a1, 0(a0)
    beqz a1, zero_case
    li a0, 1
    li a7, 93
    ecall
zero_case:
    li a0, 0
    li a7, 93
    ecall
"#,
        );
        let elf_sym = 0; // input concrete value zero
        let addr = {
            // find the __sym_input address by re-assembling (symbols are in
            // the ELF; easier: it is the data base)
            let elf = Assembler::new()
                .assemble(
                    r#"
        .data
__sym_input: .word 0
        .text
_start: ecall
"#,
                )
                .unwrap();
            elf.symbol("__sym_input").unwrap().value
        };
        let _ = elf_sym;
        m.mark_symbolic(&mut tm, addr, 4, "in", &[0, 0, 0, 0]);
        let r = run(&mut m, &mut tm, 100);
        assert_eq!(r, StepResult::Exited(0));
        let branches: Vec<_> = m.trail.iter().filter(|t| t.is_branch()).collect();
        assert_eq!(branches.len(), 1, "one symbolic branch expected");
        match branches[0] {
            TrailEntry::Branch { taken, .. } => assert!(taken, "a1 == 0 is true concretely"),
            _ => unreachable!(),
        }
    }

    #[test]
    fn symbolic_dataflow_through_registers_and_memory() {
        let (mut m, mut tm) = machine_with(
            r#"
        .data
__sym_input: .byte 0
scratch:     .word 0
        .text
_start:
    la a0, __sym_input
    lbu a1, 0(a0)
    slli a1, a1, 2
    la a2, scratch
    sw a1, 0(a2)
    lw a3, 0(a2)
    li a7, 93
    mv a0, a3
    ecall
"#,
        );
        let elf = Assembler::new()
            .assemble(
                r#"
        .data
__sym_input: .byte 0
scratch:     .word 0
        .text
_start: ecall
"#,
            )
            .unwrap();
        let addr = elf.symbol("__sym_input").unwrap().value;
        m.mark_symbolic(&mut tm, addr, 1, "in", &[5]);
        let r = run(&mut m, &mut tm, 100);
        // Concrete payload: 5 << 2 = 20.
        assert_eq!(r, StepResult::Exited(20));
        // The value must still be symbolic after the store/load roundtrip.
        assert!(m.regs.read(binsym_isa::Reg::new(13)).is_symbolic());
    }

    #[test]
    fn address_concretization_constraint_recorded() {
        let (mut m, mut tm) = machine_with(
            r#"
        .data
__sym_input: .byte 0
table:       .byte 10, 20, 30, 40
        .text
_start:
    la a0, __sym_input
    lbu a1, 0(a0)
    andi a1, a1, 3
    la a2, table
    add a2, a2, a1      # symbolic address
    lbu a0, 0(a2)
    li a7, 93
    ecall
"#,
        );
        let elf = Assembler::new()
            .assemble(
                r#"
        .data
__sym_input: .byte 0
table:       .byte 10, 20, 30, 40
        .text
_start: ecall
"#,
            )
            .unwrap();
        let addr = elf.symbol("__sym_input").unwrap().value;
        m.mark_symbolic(&mut tm, addr, 1, "in", &[2]);
        let r = run(&mut m, &mut tm, 100);
        assert_eq!(r, StepResult::Exited(30)); // table[2]
        assert!(
            m.trail
                .iter()
                .any(|t| matches!(t, TrailEntry::Concretize { .. })),
            "symbolic load address must be concretized"
        );
    }
}
