//! Hash-consed bitvector/boolean term DAG.
//!
//! All terms live in a [`TermManager`] arena and are identified by the opaque
//! handle [`Term`]. Structurally identical terms are shared (hash-consing),
//! which keeps the DAGs produced by symbolic execution compact and makes
//! equality checks O(1). Constructors perform bottom-up rewriting (constant
//! folding and algebraic identities), so the stored DAG is already simplified
//! — this mirrors the "encode" step of the paper's Fig. 1 pipeline, where
//! LibRISCV arithmetic/logic primitives are mapped onto solver operations.
//!
//! Bitvector widths from 1 to 64 bits are supported; constants are stored
//! masked to their width.

use std::collections::HashMap;
use std::fmt;

/// Maximum supported bitvector width.
pub const MAX_WIDTH: u32 = 64;

/// The sort (type) of a term: boolean or fixed-width bitvector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Sort {
    /// The boolean sort, produced by predicates such as [`TermManager::eq`].
    Bool,
    /// A bitvector sort of the given width in bits (1..=64).
    BitVec(u32),
    /// An SMT array from `idx_w`-bit indices to `elem_w`-bit elements.
    ///
    /// Array-sorted terms are always *ground chains*: a
    /// [`TermManager::array_const`] leaf wrapped in zero or more
    /// [`TermManager::store`]s. There are no array variables, so every
    /// [`Op::Select`] can be lowered to a finite ite-ladder.
    Array {
        /// Index width in bits.
        idx_w: u32,
        /// Element width in bits.
        elem_w: u32,
    },
}

impl Sort {
    /// Width of a bitvector sort.
    ///
    /// # Panics
    /// Panics if the sort is not a bitvector.
    pub fn width(self) -> u32 {
        match self {
            Sort::BitVec(w) => w,
            Sort::Bool => panic!("Sort::width called on Bool"),
            Sort::Array { .. } => panic!("Sort::width called on Array"),
        }
    }

    /// Returns true for bitvector sorts.
    pub fn is_bitvec(self) -> bool {
        matches!(self, Sort::BitVec(_))
    }

    /// Returns true for array sorts.
    pub fn is_array(self) -> bool {
        matches!(self, Sort::Array { .. })
    }
}

impl fmt::Display for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sort::Bool => write!(f, "Bool"),
            Sort::BitVec(w) => write!(f, "(_ BitVec {w})"),
            Sort::Array { idx_w, elem_w } => {
                write!(f, "(Array (_ BitVec {idx_w}) (_ BitVec {elem_w}))")
            }
        }
    }
}

/// Identifier of a free variable inside a [`TermManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// A handle to a term stored in a [`TermManager`].
///
/// Handles are cheap to copy and compare; two handles are equal iff the terms
/// are structurally identical (guaranteed by hash-consing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Term(pub(crate) u32);

impl Term {
    /// Raw arena index, useful for dense side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Term operators.
///
/// Leaf operators carry their payload; everything else takes its operands
/// from the argument list of the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Bitvector constant (value masked to the node's width).
    BvConst(u64),
    /// Boolean constant.
    BoolConst(bool),
    /// Free variable (bitvector or boolean, per the node's sort).
    Var(VarId),

    // Boolean connectives.
    /// Boolean negation.
    Not,
    /// Boolean conjunction (binary).
    And,
    /// Boolean disjunction (binary).
    Or,
    /// Boolean exclusive or (binary).
    Xor,
    /// Boolean implication.
    Implies,

    /// If-then-else: `args = [cond, then, else]`; result sort is the branch sort.
    Ite,

    // Predicates over bitvectors (result sort Bool).
    /// Equality (also defined on booleans, where it is "iff").
    Eq,
    /// Unsigned less-than.
    Ult,
    /// Signed less-than.
    Slt,
    /// Unsigned less-or-equal.
    Ule,
    /// Signed less-or-equal.
    Sle,

    // Bitvector operations.
    /// Bitwise complement.
    BvNot,
    /// Two's-complement negation.
    BvNeg,
    /// Bitwise and.
    BvAnd,
    /// Bitwise or.
    BvOr,
    /// Bitwise xor.
    BvXor,
    /// Addition (modular).
    BvAdd,
    /// Subtraction (modular).
    BvSub,
    /// Multiplication (modular).
    BvMul,
    /// Unsigned division; division by zero yields all-ones (SMT-LIB).
    BvUdiv,
    /// Unsigned remainder; remainder by zero yields the dividend (SMT-LIB).
    BvUrem,
    /// Signed division (SMT-LIB semantics; `MIN / -1 = MIN`).
    BvSdiv,
    /// Signed remainder (sign follows dividend).
    BvSrem,
    /// Left shift; shift amounts >= width yield zero.
    BvShl,
    /// Logical right shift; shift amounts >= width yield zero.
    BvLshr,
    /// Arithmetic right shift; shift amounts >= width replicate the sign bit.
    BvAshr,
    /// Concatenation: `args = [hi, lo]`, width = w(hi)+w(lo).
    Concat,
    /// Bit extraction, inclusive bounds; result width `hi - lo + 1`.
    Extract {
        /// Most significant extracted bit.
        hi: u32,
        /// Least significant extracted bit.
        lo: u32,
    },
    /// Zero extension by `add` bits.
    ZeroExt {
        /// Number of zero bits prepended.
        add: u32,
    },
    /// Sign extension by `add` bits.
    SignExt {
        /// Number of sign bits prepended.
        add: u32,
    },

    // Theory of arrays (ground chains only — see [`Sort::Array`]).
    /// Constant array: every index maps to the payload value (masked to
    /// the element width of the node's sort).
    ConstArray(u64),
    /// Array store: `args = [array, index, value]`; result sort is the
    /// array sort.
    Store,
    /// Array read: `args = [array, index]`; result sort is the element
    /// bitvector sort.
    Select,
}

impl Op {
    /// True for operators whose argument order is canonicalized.
    fn is_commutative(self) -> bool {
        matches!(
            self,
            Op::And
                | Op::Or
                | Op::Xor
                | Op::Eq
                | Op::BvAnd
                | Op::BvOr
                | Op::BvXor
                | Op::BvAdd
                | Op::BvMul
        )
    }
}

/// One node of the term DAG.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Node {
    pub op: Op,
    pub args: Vec<Term>,
    pub sort: Sort,
}

/// Mask selecting the low `w` bits of a `u64`.
#[inline]
pub fn mask(w: u32) -> u64 {
    debug_assert!((1..=MAX_WIDTH).contains(&w));
    if w == 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

/// Sign-extend a `w`-bit value stored in a `u64` to an `i64`.
#[inline]
pub fn to_signed(v: u64, w: u32) -> i64 {
    debug_assert!((1..=MAX_WIDTH).contains(&w));
    let shift = 64 - w;
    ((v << shift) as i64) >> shift
}

/// Arena and hash-consing table for terms, plus the variable registry.
///
/// All term construction goes through the methods of this type; they fold
/// constants and apply light algebraic rewrites before interning the node.
#[derive(Debug, Default)]
pub struct TermManager {
    nodes: Vec<Node>,
    interned: HashMap<Node, Term>,
    vars: Vec<(String, Sort)>,
    var_by_name: HashMap<String, VarId>,
}

impl TermManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of interned nodes (useful to gauge DAG growth in benchmarks).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of registered variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Clears every term and variable, returning the manager to the state
    /// of a fresh [`TermManager::new`] while keeping its allocations.
    ///
    /// # Handle hygiene
    /// [`Term`] and [`VarId`] handles are plain indices into this manager's
    /// arena: they are only meaningful for the manager (and reset
    /// generation) that produced them. After `reset`, every previously
    /// handed-out handle is dangling — using one is not memory-unsafe but
    /// will resolve to an unrelated term or panic on an out-of-range index.
    /// Engines that replay work on a per-task context (one reset per task)
    /// must therefore never let handles escape the task that created them;
    /// cross-task data has to travel as plain data (inputs, decisions),
    /// not as term handles.
    ///
    /// Because term and variable numbering restart from zero, a reset
    /// manager reproduces handle assignment exactly like a brand-new one:
    /// replaying the same construction sequence yields the same handles,
    /// which keeps reset-based engine reuse bit-deterministic.
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.interned.clear();
        self.vars.clear();
        self.var_by_name.clear();
    }

    pub(crate) fn node(&self, t: Term) -> &Node {
        &self.nodes[t.index()]
    }

    /// Operator of `t`.
    pub fn op(&self, t: Term) -> Op {
        self.node(t).op
    }

    /// Arguments of `t`.
    pub fn args(&self, t: Term) -> &[Term] {
        &self.node(t).args
    }

    /// Sort of `t`.
    pub fn sort(&self, t: Term) -> Sort {
        self.node(t).sort
    }

    /// Width of a bitvector term.
    ///
    /// # Panics
    /// Panics if `t` is boolean.
    pub fn width(&self, t: Term) -> u32 {
        self.sort(t).width()
    }

    /// Name of a variable.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.vars[v.0 as usize].0
    }

    /// Sort of a variable.
    pub fn var_sort(&self, v: VarId) -> Sort {
        self.vars[v.0 as usize].1
    }

    /// Iterate over all registered variables.
    pub fn iter_vars(&self) -> impl Iterator<Item = (VarId, &str, Sort)> {
        self.vars
            .iter()
            .enumerate()
            .map(|(i, (n, s))| (VarId(i as u32), n.as_str(), *s))
    }

    /// If `t` is a bitvector constant, return its value.
    pub fn as_const(&self, t: Term) -> Option<u64> {
        match self.op(t) {
            Op::BvConst(v) => Some(v),
            _ => None,
        }
    }

    /// If `t` is a boolean constant, return its value.
    pub fn as_bool_const(&self, t: Term) -> Option<bool> {
        match self.op(t) {
            Op::BoolConst(b) => Some(b),
            _ => None,
        }
    }

    fn intern(&mut self, node: Node) -> Term {
        if let Some(&t) = self.interned.get(&node) {
            return t;
        }
        let t = Term(self.nodes.len() as u32);
        self.nodes.push(node.clone());
        self.interned.insert(node, t);
        t
    }

    fn mk(&mut self, op: Op, args: Vec<Term>, sort: Sort) -> Term {
        let mut args = args;
        if op.is_commutative() && args.len() == 2 && args[0] > args[1] {
            args.swap(0, 1);
        }
        self.intern(Node { op, args, sort })
    }

    // ------------------------------------------------------------------
    // Leaves
    // ------------------------------------------------------------------

    /// Bitvector constant of the given width; the value is masked.
    ///
    /// # Panics
    /// Panics if `width` is 0 or greater than [`MAX_WIDTH`].
    pub fn bv_const(&mut self, value: u64, width: u32) -> Term {
        assert!(
            (1..=MAX_WIDTH).contains(&width),
            "unsupported width {width}"
        );
        self.mk(
            Op::BvConst(value & mask(width)),
            vec![],
            Sort::BitVec(width),
        )
    }

    /// The boolean constant `true`.
    pub fn tt(&mut self) -> Term {
        self.mk(Op::BoolConst(true), vec![], Sort::Bool)
    }

    /// The boolean constant `false`.
    pub fn ff(&mut self) -> Term {
        self.mk(Op::BoolConst(false), vec![], Sort::Bool)
    }

    /// Boolean constant from a Rust `bool`.
    pub fn bool_const(&mut self, b: bool) -> Term {
        if b {
            self.tt()
        } else {
            self.ff()
        }
    }

    /// A fresh-or-existing bitvector variable of the given name and width.
    ///
    /// Calling `var` twice with the same name returns the same term; the
    /// widths must then agree.
    ///
    /// # Panics
    /// Panics if `width` is 0 or greater than [`MAX_WIDTH`], or on a width
    /// mismatch with an earlier registration.
    pub fn var(&mut self, name: &str, width: u32) -> Term {
        assert!(
            (1..=MAX_WIDTH).contains(&width),
            "unsupported width {width}"
        );
        self.typed_var(name, Sort::BitVec(width))
    }

    /// A boolean variable (see [`TermManager::var`]).
    pub fn bool_var(&mut self, name: &str) -> Term {
        self.typed_var(name, Sort::Bool)
    }

    fn typed_var(&mut self, name: &str, sort: Sort) -> Term {
        let id = if let Some(&id) = self.var_by_name.get(name) {
            assert_eq!(
                self.vars[id.0 as usize].1, sort,
                "variable {name} re-registered with a different sort"
            );
            id
        } else {
            let id = VarId(self.vars.len() as u32);
            self.vars.push((name.to_owned(), sort));
            self.var_by_name.insert(name.to_owned(), id);
            id
        };
        self.mk(Op::Var(id), vec![], sort)
    }

    /// Looks up a variable id by name.
    pub fn find_var(&self, name: &str) -> Option<VarId> {
        self.var_by_name.get(name).copied()
    }

    // ------------------------------------------------------------------
    // Boolean connectives
    // ------------------------------------------------------------------

    /// Boolean negation.
    pub fn not(&mut self, a: Term) -> Term {
        debug_assert_eq!(self.sort(a), Sort::Bool);
        if let Some(b) = self.as_bool_const(a) {
            return self.bool_const(!b);
        }
        if self.op(a) == Op::Not {
            return self.args(a)[0];
        }
        self.mk(Op::Not, vec![a], Sort::Bool)
    }

    /// Boolean conjunction.
    pub fn and(&mut self, a: Term, b: Term) -> Term {
        match (self.as_bool_const(a), self.as_bool_const(b)) {
            (Some(true), _) => return b,
            (_, Some(true)) => return a,
            (Some(false), _) | (_, Some(false)) => return self.ff(),
            _ => {}
        }
        if a == b {
            return a;
        }
        self.mk(Op::And, vec![a, b], Sort::Bool)
    }

    /// Boolean disjunction.
    pub fn or(&mut self, a: Term, b: Term) -> Term {
        match (self.as_bool_const(a), self.as_bool_const(b)) {
            (Some(false), _) => return b,
            (_, Some(false)) => return a,
            (Some(true), _) | (_, Some(true)) => return self.tt(),
            _ => {}
        }
        if a == b {
            return a;
        }
        self.mk(Op::Or, vec![a, b], Sort::Bool)
    }

    /// Boolean exclusive or.
    pub fn xor(&mut self, a: Term, b: Term) -> Term {
        match (self.as_bool_const(a), self.as_bool_const(b)) {
            (Some(x), Some(y)) => return self.bool_const(x ^ y),
            (Some(false), _) => return b,
            (_, Some(false)) => return a,
            (Some(true), _) => return self.not(b),
            (_, Some(true)) => return self.not(a),
            _ => {}
        }
        if a == b {
            return self.ff();
        }
        self.mk(Op::Xor, vec![a, b], Sort::Bool)
    }

    /// Boolean implication `a -> b`.
    pub fn implies(&mut self, a: Term, b: Term) -> Term {
        match (self.as_bool_const(a), self.as_bool_const(b)) {
            (Some(false), _) | (_, Some(true)) => return self.tt(),
            (Some(true), _) => return b,
            (_, Some(false)) => return self.not(a),
            _ => {}
        }
        self.mk(Op::Implies, vec![a, b], Sort::Bool)
    }

    // ------------------------------------------------------------------
    // Predicates
    // ------------------------------------------------------------------

    /// Equality; defined on two bitvectors of equal width or two booleans.
    pub fn eq(&mut self, a: Term, b: Term) -> Term {
        debug_assert_eq!(self.sort(a), self.sort(b), "eq sort mismatch");
        if a == b {
            return self.tt();
        }
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.bool_const(x == y);
        }
        if let (Some(x), Some(y)) = (self.as_bool_const(a), self.as_bool_const(b)) {
            return self.bool_const(x == y);
        }
        self.mk(Op::Eq, vec![a, b], Sort::Bool)
    }

    /// Disequality (`not eq`).
    pub fn ne(&mut self, a: Term, b: Term) -> Term {
        let e = self.eq(a, b);
        self.not(e)
    }

    /// Unsigned less-than.
    pub fn ult(&mut self, a: Term, b: Term) -> Term {
        debug_assert_eq!(self.sort(a), self.sort(b));
        if a == b {
            return self.ff();
        }
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.bool_const(x < y);
        }
        if self.as_const(b) == Some(0) {
            return self.ff(); // nothing is < 0 unsigned
        }
        self.mk(Op::Ult, vec![a, b], Sort::Bool)
    }

    /// Signed less-than.
    pub fn slt(&mut self, a: Term, b: Term) -> Term {
        debug_assert_eq!(self.sort(a), self.sort(b));
        if a == b {
            return self.ff();
        }
        let w = self.width(a);
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.bool_const(to_signed(x, w) < to_signed(y, w));
        }
        self.mk(Op::Slt, vec![a, b], Sort::Bool)
    }

    /// Unsigned less-or-equal.
    pub fn ule(&mut self, a: Term, b: Term) -> Term {
        debug_assert_eq!(self.sort(a), self.sort(b));
        if a == b {
            return self.tt();
        }
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.bool_const(x <= y);
        }
        self.mk(Op::Ule, vec![a, b], Sort::Bool)
    }

    /// Signed less-or-equal.
    pub fn sle(&mut self, a: Term, b: Term) -> Term {
        debug_assert_eq!(self.sort(a), self.sort(b));
        if a == b {
            return self.tt();
        }
        let w = self.width(a);
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.bool_const(to_signed(x, w) <= to_signed(y, w));
        }
        self.mk(Op::Sle, vec![a, b], Sort::Bool)
    }

    /// Unsigned greater-or-equal (`b ule a`).
    pub fn uge(&mut self, a: Term, b: Term) -> Term {
        self.ule(b, a)
    }

    /// Signed greater-or-equal (`b sle a`).
    pub fn sge(&mut self, a: Term, b: Term) -> Term {
        self.sle(b, a)
    }

    // ------------------------------------------------------------------
    // If-then-else
    // ------------------------------------------------------------------

    /// If-then-else over bitvectors or booleans.
    pub fn ite(&mut self, cond: Term, then: Term, els: Term) -> Term {
        debug_assert_eq!(self.sort(cond), Sort::Bool);
        debug_assert_eq!(self.sort(then), self.sort(els));
        if let Some(c) = self.as_bool_const(cond) {
            return if c { then } else { els };
        }
        if then == els {
            return then;
        }
        let sort = self.sort(then);
        self.mk(Op::Ite, vec![cond, then, els], sort)
    }

    // ------------------------------------------------------------------
    // Bitvector operations
    // ------------------------------------------------------------------

    fn binop_consts(&self, a: Term, b: Term) -> Option<(u64, u64, u32)> {
        let w = self.width(a);
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => Some((x, y, w)),
            _ => None,
        }
    }

    /// Bitwise complement.
    pub fn bv_not(&mut self, a: Term) -> Term {
        let w = self.width(a);
        if let Some(x) = self.as_const(a) {
            return self.bv_const(!x, w);
        }
        if self.op(a) == Op::BvNot {
            return self.args(a)[0];
        }
        self.mk(Op::BvNot, vec![a], Sort::BitVec(w))
    }

    /// Two's complement negation.
    pub fn bv_neg(&mut self, a: Term) -> Term {
        let w = self.width(a);
        if let Some(x) = self.as_const(a) {
            return self.bv_const(x.wrapping_neg(), w);
        }
        if self.op(a) == Op::BvNeg {
            return self.args(a)[0];
        }
        self.mk(Op::BvNeg, vec![a], Sort::BitVec(w))
    }

    /// Bitwise and.
    pub fn bv_and(&mut self, a: Term, b: Term) -> Term {
        debug_assert_eq!(self.sort(a), self.sort(b));
        let w = self.width(a);
        if let Some((x, y, w)) = self.binop_consts(a, b) {
            return self.bv_const(x & y, w);
        }
        if self.as_const(a) == Some(0) || self.as_const(b) == Some(0) {
            return self.bv_const(0, w);
        }
        if self.as_const(a) == Some(mask(w)) {
            return b;
        }
        if self.as_const(b) == Some(mask(w)) {
            return a;
        }
        if a == b {
            return a;
        }
        self.mk(Op::BvAnd, vec![a, b], Sort::BitVec(w))
    }

    /// Bitwise or.
    pub fn bv_or(&mut self, a: Term, b: Term) -> Term {
        debug_assert_eq!(self.sort(a), self.sort(b));
        let w = self.width(a);
        if let Some((x, y, w)) = self.binop_consts(a, b) {
            return self.bv_const(x | y, w);
        }
        if self.as_const(a) == Some(0) {
            return b;
        }
        if self.as_const(b) == Some(0) {
            return a;
        }
        if self.as_const(a) == Some(mask(w)) || self.as_const(b) == Some(mask(w)) {
            return self.bv_const(mask(w), w);
        }
        if a == b {
            return a;
        }
        self.mk(Op::BvOr, vec![a, b], Sort::BitVec(w))
    }

    /// Bitwise xor.
    pub fn bv_xor(&mut self, a: Term, b: Term) -> Term {
        debug_assert_eq!(self.sort(a), self.sort(b));
        let w = self.width(a);
        if let Some((x, y, w)) = self.binop_consts(a, b) {
            return self.bv_const(x ^ y, w);
        }
        if self.as_const(a) == Some(0) {
            return b;
        }
        if self.as_const(b) == Some(0) {
            return a;
        }
        if a == b {
            return self.bv_const(0, w);
        }
        self.mk(Op::BvXor, vec![a, b], Sort::BitVec(w))
    }

    /// Modular addition.
    pub fn add(&mut self, a: Term, b: Term) -> Term {
        debug_assert_eq!(self.sort(a), self.sort(b));
        let w = self.width(a);
        if let Some((x, y, w)) = self.binop_consts(a, b) {
            return self.bv_const(x.wrapping_add(y), w);
        }
        if self.as_const(a) == Some(0) {
            return b;
        }
        if self.as_const(b) == Some(0) {
            return a;
        }
        self.mk(Op::BvAdd, vec![a, b], Sort::BitVec(w))
    }

    /// Modular subtraction.
    pub fn sub(&mut self, a: Term, b: Term) -> Term {
        debug_assert_eq!(self.sort(a), self.sort(b));
        let w = self.width(a);
        if let Some((x, y, w)) = self.binop_consts(a, b) {
            return self.bv_const(x.wrapping_sub(y), w);
        }
        if self.as_const(b) == Some(0) {
            return a;
        }
        if a == b {
            return self.bv_const(0, w);
        }
        self.mk(Op::BvSub, vec![a, b], Sort::BitVec(w))
    }

    /// Modular multiplication.
    pub fn mul(&mut self, a: Term, b: Term) -> Term {
        debug_assert_eq!(self.sort(a), self.sort(b));
        let w = self.width(a);
        if let Some((x, y, w)) = self.binop_consts(a, b) {
            return self.bv_const(x.wrapping_mul(y), w);
        }
        if self.as_const(a) == Some(0) || self.as_const(b) == Some(0) {
            return self.bv_const(0, w);
        }
        if self.as_const(a) == Some(1) {
            return b;
        }
        if self.as_const(b) == Some(1) {
            return a;
        }
        self.mk(Op::BvMul, vec![a, b], Sort::BitVec(w))
    }

    /// Unsigned division (`a / 0 = all-ones`, as in SMT-LIB and RISC-V DIVU).
    pub fn udiv(&mut self, a: Term, b: Term) -> Term {
        debug_assert_eq!(self.sort(a), self.sort(b));
        let w = self.width(a);
        if let Some((x, y, w)) = self.binop_consts(a, b) {
            // Division by zero folds to all-ones (RISC-V / SMT-LIB).
            let r = x.checked_div(y).unwrap_or(mask(w));
            return self.bv_const(r, w);
        }
        if self.as_const(b) == Some(1) {
            return a;
        }
        self.mk(Op::BvUdiv, vec![a, b], Sort::BitVec(w))
    }

    /// Unsigned remainder (`a % 0 = a`).
    pub fn urem(&mut self, a: Term, b: Term) -> Term {
        debug_assert_eq!(self.sort(a), self.sort(b));
        let w = self.width(a);
        if let Some((x, y, w)) = self.binop_consts(a, b) {
            let r = if y == 0 { x } else { x % y };
            return self.bv_const(r, w);
        }
        if self.as_const(b) == Some(1) {
            return self.bv_const(0, w);
        }
        self.mk(Op::BvUrem, vec![a, b], Sort::BitVec(w))
    }

    /// Signed division (`a / 0 = -1`; `MIN / -1 = MIN`), matching RISC-V DIV.
    pub fn sdiv(&mut self, a: Term, b: Term) -> Term {
        debug_assert_eq!(self.sort(a), self.sort(b));
        let w = self.width(a);
        if let Some((x, y, w)) = self.binop_consts(a, b) {
            let xs = to_signed(x, w);
            let ys = to_signed(y, w);
            let r = if ys == 0 { -1i64 } else { xs.wrapping_div(ys) };
            return self.bv_const(r as u64, w);
        }
        self.mk(Op::BvSdiv, vec![a, b], Sort::BitVec(w))
    }

    /// Signed remainder (`a % 0 = a`; `MIN % -1 = 0`), matching RISC-V REM.
    pub fn srem(&mut self, a: Term, b: Term) -> Term {
        debug_assert_eq!(self.sort(a), self.sort(b));
        let w = self.width(a);
        if let Some((x, y, w)) = self.binop_consts(a, b) {
            let xs = to_signed(x, w);
            let ys = to_signed(y, w);
            let r = if ys == 0 { xs } else { xs.wrapping_rem(ys) };
            return self.bv_const(r as u64, w);
        }
        self.mk(Op::BvSrem, vec![a, b], Sort::BitVec(w))
    }

    /// Left shift; the shift amount is an unsigned bitvector of the same
    /// width, amounts `>= width` produce zero.
    pub fn shl(&mut self, a: Term, b: Term) -> Term {
        debug_assert_eq!(self.sort(a), self.sort(b));
        let w = self.width(a);
        if let Some((x, y, w)) = self.binop_consts(a, b) {
            let r = if y >= u64::from(w) { 0 } else { x << y };
            return self.bv_const(r, w);
        }
        if self.as_const(b) == Some(0) {
            return a;
        }
        if let Some(y) = self.as_const(b) {
            if y >= u64::from(w) {
                return self.bv_const(0, w);
            }
        }
        self.mk(Op::BvShl, vec![a, b], Sort::BitVec(w))
    }

    /// Logical right shift; amounts `>= width` produce zero.
    pub fn lshr(&mut self, a: Term, b: Term) -> Term {
        debug_assert_eq!(self.sort(a), self.sort(b));
        let w = self.width(a);
        if let Some((x, y, w)) = self.binop_consts(a, b) {
            let r = if y >= u64::from(w) { 0 } else { x >> y };
            return self.bv_const(r, w);
        }
        if self.as_const(b) == Some(0) {
            return a;
        }
        if let Some(y) = self.as_const(b) {
            if y >= u64::from(w) {
                return self.bv_const(0, w);
            }
        }
        self.mk(Op::BvLshr, vec![a, b], Sort::BitVec(w))
    }

    /// Arithmetic right shift; amounts `>= width` replicate the sign bit.
    pub fn ashr(&mut self, a: Term, b: Term) -> Term {
        debug_assert_eq!(self.sort(a), self.sort(b));
        let w = self.width(a);
        if let Some((x, y, w)) = self.binop_consts(a, b) {
            let xs = to_signed(x, w);
            let sh = y.min(u64::from(w) - 1) as u32;
            return self.bv_const((xs >> sh) as u64, w);
        }
        if self.as_const(b) == Some(0) {
            return a;
        }
        self.mk(Op::BvAshr, vec![a, b], Sort::BitVec(w))
    }

    /// Concatenation (`a` becomes the high bits).
    ///
    /// # Panics
    /// Panics if the combined width exceeds [`MAX_WIDTH`].
    pub fn concat(&mut self, a: Term, b: Term) -> Term {
        let wa = self.width(a);
        let wb = self.width(b);
        let w = wa + wb;
        assert!(w <= MAX_WIDTH, "concat width {w} exceeds maximum");
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.bv_const((x << wb) | y, w);
        }
        self.mk(Op::Concat, vec![a, b], Sort::BitVec(w))
    }

    /// Extract bits `hi..=lo` (inclusive).
    ///
    /// # Panics
    /// Panics if `hi < lo` or `hi` is out of range for the operand width.
    pub fn extract(&mut self, a: Term, hi: u32, lo: u32) -> Term {
        let w = self.width(a);
        assert!(
            hi >= lo && hi < w,
            "invalid extract [{hi}:{lo}] from width {w}"
        );
        let rw = hi - lo + 1;
        if rw == w {
            return a;
        }
        if let Some(x) = self.as_const(a) {
            return self.bv_const(x >> lo, rw);
        }
        // extract of extract
        if let Op::Extract { lo: ilo, .. } = self.op(a) {
            let inner = self.args(a)[0];
            return self.extract(inner, ilo + hi, ilo + lo);
        }
        // extract of zero/sign extension entirely within the original bits
        if let Op::ZeroExt { .. } | Op::SignExt { .. } = self.op(a) {
            let inner = self.args(a)[0];
            let iw = self.width(inner);
            if hi < iw {
                return self.extract(inner, hi, lo);
            }
        }
        self.mk(Op::Extract { hi, lo }, vec![a], Sort::BitVec(rw))
    }

    /// Zero-extend `a` to `new_width`.
    ///
    /// # Panics
    /// Panics if `new_width` is smaller than the operand width or too large.
    pub fn zext(&mut self, a: Term, new_width: u32) -> Term {
        let w = self.width(a);
        assert!(new_width >= w && new_width <= MAX_WIDTH);
        if new_width == w {
            return a;
        }
        if let Some(x) = self.as_const(a) {
            return self.bv_const(x, new_width);
        }
        self.mk(
            Op::ZeroExt { add: new_width - w },
            vec![a],
            Sort::BitVec(new_width),
        )
    }

    /// Sign-extend `a` to `new_width`.
    ///
    /// # Panics
    /// Panics if `new_width` is smaller than the operand width or too large.
    pub fn sext(&mut self, a: Term, new_width: u32) -> Term {
        let w = self.width(a);
        assert!(new_width >= w && new_width <= MAX_WIDTH);
        if new_width == w {
            return a;
        }
        if let Some(x) = self.as_const(a) {
            return self.bv_const(to_signed(x, w) as u64, new_width);
        }
        self.mk(
            Op::SignExt { add: new_width - w },
            vec![a],
            Sort::BitVec(new_width),
        )
    }

    /// `1`-width bitvector from a boolean (`ite(b, 1, 0)`).
    pub fn bool_to_bv(&mut self, b: Term, width: u32) -> Term {
        let one = self.bv_const(1, width);
        let zero = self.bv_const(0, width);
        self.ite(b, one, zero)
    }

    // ------------------------------------------------------------------
    // Theory of arrays
    // ------------------------------------------------------------------

    /// Constant array mapping every `idx_w`-bit index to `default`
    /// (masked to `elem_w` bits) — the root of every ground store chain.
    ///
    /// # Panics
    /// Panics if either width is 0 or greater than [`MAX_WIDTH`].
    pub fn array_const(&mut self, default: u64, idx_w: u32, elem_w: u32) -> Term {
        assert!(
            (1..=MAX_WIDTH).contains(&idx_w) && (1..=MAX_WIDTH).contains(&elem_w),
            "unsupported array widths ({idx_w}, {elem_w})"
        );
        self.mk(
            Op::ConstArray(default & mask(elem_w)),
            vec![],
            Sort::Array { idx_w, elem_w },
        )
    }

    /// Array store `a[i := v]`.
    ///
    /// Shadowing fold: a store at the same *constant* index as the
    /// immediately enclosing store replaces it
    /// (`store(store(A, c, _), c, v) → store(A, c, v)`).
    ///
    /// # Panics
    /// Panics (in debug builds) unless `a` is array-sorted with an index
    /// width matching `i` and an element width matching `v`.
    pub fn store(&mut self, a: Term, i: Term, v: Term) -> Term {
        let sort = self.sort(a);
        debug_assert!(
            matches!(sort, Sort::Array { idx_w, elem_w }
                if self.sort(i) == Sort::BitVec(idx_w) && self.sort(v) == Sort::BitVec(elem_w)),
            "store sort mismatch"
        );
        let mut base = a;
        // Shadowed writes at the same constant address fold away.
        if let Some(ci) = self.as_const(i) {
            while self.op(base) == Op::Store {
                let inner_i = self.args(base)[1];
                if self.as_const(inner_i) == Some(ci) {
                    base = self.args(base)[0];
                } else {
                    break;
                }
            }
            // Writing the default value onto the untouched constant array
            // is a no-op.
            if let Op::ConstArray(d) = self.op(base) {
                if self.as_const(v) == Some(d) && base == a {
                    return a;
                }
            }
        }
        self.mk(Op::Store, vec![base, i, v], sort)
    }

    /// Array read `a[i]`, element-sorted.
    ///
    /// Folds: `select(store(A, i, v), i) → v` (syntactically equal
    /// indices); with a *constant* index, stores at definitely-different
    /// constant indices are skipped, and a read that reaches the
    /// [`TermManager::array_const`] root folds to its default value.
    ///
    /// # Panics
    /// Panics (in debug builds) unless `a` is array-sorted with an index
    /// width matching `i`.
    pub fn select(&mut self, a: Term, i: Term) -> Term {
        let Sort::Array { idx_w, elem_w } = self.sort(a) else {
            panic!("select on a non-array term");
        };
        debug_assert_eq!(self.sort(i), Sort::BitVec(idx_w), "select index width");
        let ci = self.as_const(i);
        let mut cur = a;
        loop {
            match self.op(cur) {
                Op::Store => {
                    let args = self.args(cur);
                    let (inner, si, sv) = (args[0], args[1], args[2]);
                    if si == i {
                        return sv; // read-over-write at the same index
                    }
                    match (ci, self.as_const(si)) {
                        (Some(x), Some(y)) if x != y => cur = inner, // definitely misses
                        _ => break, // may or may not alias — keep the chain
                    }
                }
                Op::ConstArray(d) => return self.bv_const(d, elem_w),
                _ => break,
            }
        }
        self.mk(Op::Select, vec![cur, i], Sort::BitVec(elem_w))
    }

    /// Collects the set of variables occurring in `t` (post-order, deduped).
    pub fn vars_of(&self, t: Term) -> Vec<VarId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut out = Vec::new();
        let mut stack = vec![t];
        while let Some(x) = stack.pop() {
            if seen[x.index()] {
                continue;
            }
            seen[x.index()] = true;
            if let Op::Var(v) = self.op(x) {
                out.push(v);
            }
            stack.extend_from_slice(self.args(x));
        }
        out.sort();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_shares_nodes() {
        let mut tm = TermManager::new();
        let a = tm.var("a", 32);
        let b = tm.var("b", 32);
        let s1 = tm.add(a, b);
        let s2 = tm.add(b, a); // commutative normalization
        assert_eq!(s1, s2);
        let n = tm.num_nodes();
        let _ = tm.add(a, b);
        assert_eq!(tm.num_nodes(), n);
    }

    #[test]
    fn constants_fold() {
        let mut tm = TermManager::new();
        let a = tm.bv_const(7, 32);
        let b = tm.bv_const(5, 32);
        let s = tm.add(a, b);
        assert_eq!(tm.as_const(s), Some(12));
        let m = tm.mul(a, b);
        assert_eq!(tm.as_const(m), Some(35));
        let d = tm.udiv(a, b);
        assert_eq!(tm.as_const(d), Some(1));
        let z = tm.bv_const(0, 32);
        let dz = tm.udiv(a, z);
        assert_eq!(tm.as_const(dz), Some(0xffff_ffff));
        // `x ^ x → 0` holds for non-constant operands too.
        let x = tm.var("x", 32);
        let y = tm.var("y", 32);
        let sum = tm.add(x, y);
        let xx = tm.bv_xor(sum, sum);
        assert_eq!(tm.as_const(xx), Some(0));
    }

    #[test]
    fn signed_ops_fold() {
        let mut tm = TermManager::new();
        let minus1 = tm.bv_const(0xffff_ffff, 32);
        let two = tm.bv_const(2, 32);
        let q = tm.sdiv(minus1, two);
        assert_eq!(tm.as_const(q), Some(0)); // -1 / 2 = 0
        let r = tm.srem(minus1, two);
        assert_eq!(tm.as_const(r), Some(0xffff_ffff)); // -1 % 2 = -1
        let lt = tm.slt(minus1, two);
        assert_eq!(tm.as_bool_const(lt), Some(true));
        let ult = tm.ult(minus1, two);
        assert_eq!(tm.as_bool_const(ult), Some(false));
    }

    #[test]
    fn div_by_zero_semantics() {
        let mut tm = TermManager::new();
        let a = tm.bv_const(123, 32);
        let z = tm.bv_const(0, 32);
        let q = tm.udiv(a, z);
        assert_eq!(tm.as_const(q), Some(0xffff_ffff));
        let r = tm.urem(a, z);
        assert_eq!(tm.as_const(r), Some(123));
        let sq = tm.sdiv(a, z);
        assert_eq!(tm.as_const(sq), Some(0xffff_ffff)); // -1
        let sr = tm.srem(a, z);
        assert_eq!(tm.as_const(sr), Some(123));
    }

    #[test]
    fn sdiv_overflow() {
        let mut tm = TermManager::new();
        let min = tm.bv_const(0x8000_0000, 32);
        let m1 = tm.bv_const(0xffff_ffff, 32);
        let q = tm.sdiv(min, m1);
        assert_eq!(tm.as_const(q), Some(0x8000_0000));
        let r = tm.srem(min, m1);
        assert_eq!(tm.as_const(r), Some(0));
    }

    #[test]
    fn shift_identities() {
        let mut tm = TermManager::new();
        let x = tm.var("x", 32);
        let z = tm.bv_const(0, 32);
        assert_eq!(tm.shl(x, z), x);
        assert_eq!(tm.lshr(x, z), x);
        assert_eq!(tm.ashr(x, z), x);
        let big = tm.bv_const(32, 32);
        let s = tm.shl(x, big);
        assert_eq!(tm.as_const(s), Some(0));
    }

    #[test]
    fn extract_of_extract_flattens() {
        let mut tm = TermManager::new();
        let x = tm.var("x", 32);
        let e1 = tm.extract(x, 23, 8); // 16 bits
        let e2 = tm.extract(e1, 7, 0); // bits 15..8 of x
        assert_eq!(tm.op(e2), Op::Extract { hi: 15, lo: 8 });
        assert_eq!(tm.args(e2)[0], x);
    }

    #[test]
    fn ite_simplifies() {
        let mut tm = TermManager::new();
        let x = tm.var("x", 32);
        let y = tm.var("y", 32);
        let t = tm.tt();
        assert_eq!(tm.ite(t, x, y), x);
        let c = tm.bool_var("c");
        assert_eq!(tm.ite(c, x, x), x);
    }

    #[test]
    fn vars_of_collects() {
        let mut tm = TermManager::new();
        let x = tm.var("x", 32);
        let y = tm.var("y", 32);
        let s = tm.add(x, y);
        let e = tm.eq(s, x);
        let vars = tm.vars_of(e);
        assert_eq!(vars.len(), 2);
    }

    #[test]
    fn masked_constants() {
        let mut tm = TermManager::new();
        let a = tm.bv_const(0x1ff, 8);
        assert_eq!(tm.as_const(a), Some(0xff));
        let b = tm.bv_const(u64::MAX, 64);
        assert_eq!(tm.as_const(b), Some(u64::MAX));
    }

    #[test]
    fn to_signed_works() {
        assert_eq!(to_signed(0xff, 8), -1);
        assert_eq!(to_signed(0x7f, 8), 127);
        assert_eq!(to_signed(0x8000_0000, 32), i64::from(i32::MIN));
        assert_eq!(to_signed(u64::MAX, 64), -1);
    }

    #[test]
    fn select_of_store_forwards() {
        let mut tm = TermManager::new();
        let a0 = tm.array_const(0, 32, 8);
        let i = tm.var("i", 32);
        let v = tm.var("v", 8);
        let a1 = tm.store(a0, i, v);
        // Same (symbolic) index: read-over-write forwards the value.
        assert_eq!(tm.select(a1, i), v);
        // Definitely-different constant indices skip the store.
        let c1 = tm.bv_const(1, 32);
        let c2 = tm.bv_const(2, 32);
        let seven = tm.bv_const(7, 8);
        let a2 = tm.store(a0, c1, seven);
        let r = tm.select(a2, c2);
        assert_eq!(tm.as_const(r), Some(0)); // falls through to the default
        let r1 = tm.select(a2, c1);
        assert_eq!(tm.as_const(r1), Some(7));
    }

    #[test]
    fn store_shadows_equal_constant_index() {
        let mut tm = TermManager::new();
        let a0 = tm.array_const(0, 32, 8);
        let c = tm.bv_const(4, 32);
        let v1 = tm.bv_const(1, 8);
        let v2 = tm.bv_const(2, 8);
        let s1 = tm.store(a0, c, v1);
        let s2 = tm.store(s1, c, v2);
        // The shadowed write folds away: s2 = store(a0, c, v2).
        assert_eq!(tm.op(s2), Op::Store);
        assert_eq!(tm.args(s2)[0], a0);
        let direct = tm.store(a0, c, v2);
        assert_eq!(s2, direct);
    }

    #[test]
    fn array_sort_display_and_predicates() {
        let mut tm = TermManager::new();
        let a = tm.array_const(0x2a, 32, 8);
        let s = tm.sort(a);
        assert!(s.is_array());
        assert!(!s.is_bitvec());
        assert_eq!(s.to_string(), "(Array (_ BitVec 32) (_ BitVec 8))");
        // Selecting straight from the constant array folds.
        let i = tm.bv_const(99, 32);
        let r = tm.select(a, i);
        assert_eq!(tm.as_const(r), Some(0x2a));
    }

    #[test]
    fn reset_reproduces_fresh_handle_assignment() {
        let build = |tm: &mut TermManager| {
            let x = tm.var("x", 32);
            let five = tm.bv_const(5, 32);
            (x, five, tm.ult(x, five))
        };
        let mut tm = TermManager::new();
        let first = build(&mut tm);
        // Interleave unrelated construction so a second fresh run would
        // diverge without the reset.
        let _ = tm.var("noise", 8);
        tm.reset();
        assert_eq!(tm.num_nodes(), 0);
        assert_eq!(tm.num_vars(), 0);
        let second = build(&mut tm);
        assert_eq!(first, second, "reset restarts handle numbering");
        assert!(tm.find_var("noise").is_none());
    }

    #[test]
    #[should_panic(expected = "unsupported width 0")]
    fn zero_width_var_is_rejected() {
        TermManager::new().var("x", 0);
    }

    #[test]
    #[should_panic(expected = "unsupported width 65")]
    fn var_wider_than_max_width_is_rejected() {
        TermManager::new().var("x", MAX_WIDTH + 1);
    }
}
