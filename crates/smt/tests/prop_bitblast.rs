//! Property tests: the bit-blasted circuit agrees with the ground-truth
//! evaluator on every operator, at random points.
//!
//! For a random term `t` over variables `v1..vn` and a random concrete
//! assignment `A`, the formula `(∧ vi = A(vi)) ∧ (t = eval(t, A))` must be
//! SAT and `(∧ vi = A(vi)) ∧ (t ≠ eval(t, A))` must be UNSAT. Together these
//! pin the circuit's output at the point `A` to the evaluator's result.
//!
//! Random cases come from a deterministic in-repo generator (no third-party
//! property-testing dependency is available in the build environment); the
//! fixed seeds keep failures reproducible.

use std::collections::HashMap;

use binsym_smt::eval::{eval, Value};
use binsym_smt::term::VarId;
use binsym_smt::{SatResult, Solver, Term, TermManager};
use binsym_testutil::Rng;

/// A serializable description of a random binary operator.
#[derive(Debug, Clone, Copy)]
enum BinOp {
    Add,
    Sub,
    Mul,
    Udiv,
    Urem,
    Sdiv,
    Srem,
    And,
    Or,
    Xor,
    Shl,
    Lshr,
    Ashr,
}

const BIN_OPS: [BinOp; 13] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Udiv,
    BinOp::Urem,
    BinOp::Sdiv,
    BinOp::Srem,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Lshr,
    BinOp::Ashr,
];

fn apply(tm: &mut TermManager, op: BinOp, a: Term, b: Term) -> Term {
    match op {
        BinOp::Add => tm.add(a, b),
        BinOp::Sub => tm.sub(a, b),
        BinOp::Mul => tm.mul(a, b),
        BinOp::Udiv => tm.udiv(a, b),
        BinOp::Urem => tm.urem(a, b),
        BinOp::Sdiv => tm.sdiv(a, b),
        BinOp::Srem => tm.srem(a, b),
        BinOp::And => tm.bv_and(a, b),
        BinOp::Or => tm.bv_or(a, b),
        BinOp::Xor => tm.bv_xor(a, b),
        BinOp::Shl => tm.shl(a, b),
        BinOp::Lshr => tm.lshr(a, b),
        BinOp::Ashr => tm.ashr(a, b),
    }
}

/// Builds a random term over two 8-bit variables from a recipe of op indices.
fn build_term(tm: &mut TermManager, recipe: &[u8]) -> Term {
    let x = tm.var("x", 8);
    let y = tm.var("y", 8);
    let mut pool = vec![x, y];
    for (i, &r) in recipe.iter().enumerate() {
        let op = BIN_OPS[(r as usize) % BIN_OPS.len()];
        let a = pool[(r as usize / 13) % pool.len()];
        let b = pool[(r as usize / 29 + i) % pool.len()];
        let t = apply(tm, op, a, b);
        pool.push(t);
    }
    *pool.last().expect("nonempty")
}

fn check_point(recipe: &[u8], xv: u8, yv: u8) {
    let mut tm = TermManager::new();
    let t = build_term(&mut tm, recipe);
    let x = tm.var("x", 8);
    let y = tm.var("y", 8);
    let xid = tm.find_var("x").unwrap();
    let yid = tm.find_var("y").unwrap();
    let mut assignment: HashMap<VarId, u64> = HashMap::new();
    assignment.insert(xid, u64::from(xv));
    assignment.insert(yid, u64::from(yv));
    let expected = match eval(&tm, t, &assignment).expect("assigned") {
        Value::BitVec(v) => v,
        Value::Bool(_) | Value::Array(_) => unreachable!("bv term"),
    };

    let xc = tm.bv_const(u64::from(xv), 8);
    let yc = tm.bv_const(u64::from(yv), 8);
    let ec = tm.bv_const(expected, 8);
    let px = tm.eq(x, xc);
    let py = tm.eq(y, yc);
    let pe = tm.eq(t, ec);

    let mut solver = Solver::new();
    solver.assert_term(&mut tm, px);
    solver.assert_term(&mut tm, py);
    assert_eq!(
        solver.check_sat(&mut tm, &[pe]),
        SatResult::Sat,
        "circuit disagrees with evaluator (expected {expected:#x} for x={xv:#x} y={yv:#x})"
    );
    let npe = tm.not(pe);
    assert_eq!(
        solver.check_sat(&mut tm, &[npe]),
        SatResult::Unsat,
        "circuit is underconstrained at x={xv:#x} y={yv:#x}"
    );
}

#[test]
fn circuit_matches_evaluator() {
    let mut rng = Rng::new(0xb1a5_0001);
    for _ in 0..64 {
        let len = 1 + (rng.next_u64() as usize) % 5;
        let recipe = rng.bytes(len);
        let xv = rng.next_u8();
        let yv = rng.next_u8();
        check_point(&recipe, xv, yv);
    }
}

#[test]
fn comparisons_match_evaluator() {
    let mut rng = Rng::new(0xb1a5_0002);
    for _ in 0..64 {
        let xv = rng.next_u8();
        let yv = rng.next_u8();
        let which = rng.next_u8() % 6;
        let mut tm = TermManager::new();
        let x = tm.var("x", 8);
        let y = tm.var("y", 8);
        let pred = match which {
            0 => tm.ult(x, y),
            1 => tm.slt(x, y),
            2 => tm.ule(x, y),
            3 => tm.sle(x, y),
            4 => tm.eq(x, y),
            _ => tm.ne(x, y),
        };
        let xid = tm.find_var("x").unwrap();
        let yid = tm.find_var("y").unwrap();
        let mut assignment = HashMap::new();
        assignment.insert(xid, u64::from(xv));
        assignment.insert(yid, u64::from(yv));
        let expected = eval(&tm, pred, &assignment).unwrap().as_bool();

        let xc = tm.bv_const(u64::from(xv), 8);
        let yc = tm.bv_const(u64::from(yv), 8);
        let px = tm.eq(x, xc);
        let py = tm.eq(y, yc);
        let mut solver = Solver::new();
        solver.assert_term(&mut tm, px);
        solver.assert_term(&mut tm, py);
        let want = if expected { pred } else { tm.not(pred) };
        assert_eq!(solver.check_sat(&mut tm, &[want]), SatResult::Sat);
        let deny = tm.not(want);
        assert_eq!(solver.check_sat(&mut tm, &[deny]), SatResult::Unsat);
    }
}

/// An operator whose bits go through the majority and XOR3 gates: a
/// comparison (borrow chain) or an adder.
#[derive(Debug, Clone, Copy)]
enum GateOp {
    Ult,
    Ule,
    Slt,
    Sle,
    Add,
    Sub,
    Neg,
}

/// How the operands of a [`GateOp`] share literals. The random points
/// above only ever pair two free variables, so a wrong fold of a constant,
/// equal or complementary gate input would pass them.
#[derive(Debug, Clone, Copy)]
enum Shape {
    VarVar,
    VarConst,
    ConstVar,
    /// `x` against `bv_not(x)`: complementary literals at every bit.
    NotSelf,
    /// `x` against itself: equal literals at every bit (only `add(x, x)`
    /// reaches the blaster; the term manager folds the other operators).
    Same,
    /// `x` against `x`'s bits 3..1 over `y`'s bit 0: the borrow out of
    /// bit 0 is free, so each comparator bit above it sees a complementary
    /// pair (`¬xᵢ`, `xᵢ`) beside a free input. The shapes above reach a
    /// complementary pair only beside a constant carry or borrow, which
    /// folds first.
    SharedHigh,
    /// As [`Shape::SharedHigh`] with `¬x`'s bits: each adder bit above
    /// bit 0 sees a complementary pair beside a free carry.
    FlippedHigh,
}

/// Pins the circuit of `op` over `shape` to the evaluator at one 4-bit
/// point: the unary `bv_neg` takes the shape's right operand.
fn check_gate_point(op: GateOp, shape: Shape, xv: u64, yv: u64) {
    let mut tm = TermManager::new();
    let x = tm.var("x", 4);
    let y = tm.var("y", 4);
    let (a, b) = match shape {
        Shape::VarVar => (x, y),
        Shape::VarConst => (x, tm.bv_const(yv, 4)),
        Shape::ConstVar => (tm.bv_const(xv, 4), y),
        Shape::NotSelf => (x, tm.bv_not(x)),
        Shape::Same => (x, x),
        Shape::SharedHigh | Shape::FlippedHigh => {
            let high = if matches!(shape, Shape::SharedHigh) {
                x
            } else {
                tm.bv_not(x)
            };
            let high = tm.extract(high, 3, 1);
            let low = tm.extract(y, 0, 0);
            (x, tm.concat(high, low))
        }
    };
    let t = match op {
        GateOp::Ult => tm.ult(a, b),
        GateOp::Ule => tm.ule(a, b),
        GateOp::Slt => tm.slt(a, b),
        GateOp::Sle => tm.sle(a, b),
        GateOp::Add => tm.add(a, b),
        GateOp::Sub => tm.sub(a, b),
        GateOp::Neg => tm.bv_neg(b),
    };
    let mut assignment: HashMap<VarId, u64> = HashMap::new();
    assignment.insert(tm.find_var("x").unwrap(), xv);
    assignment.insert(tm.find_var("y").unwrap(), yv);
    let pin = match eval(&tm, t, &assignment).expect("assigned") {
        Value::Bool(true) => t,
        Value::Bool(false) => tm.not(t),
        Value::BitVec(v) => {
            let c = tm.bv_const(v, 4);
            tm.eq(t, c)
        }
        Value::Array(_) => unreachable!("bv or bool term"),
    };

    let xc = tm.bv_const(xv, 4);
    let yc = tm.bv_const(yv, 4);
    let px = tm.eq(x, xc);
    let py = tm.eq(y, yc);
    let mut solver = Solver::new();
    solver.assert_term(&mut tm, px);
    solver.assert_term(&mut tm, py);
    let what = format!("{op:?} over {shape:?} at x={xv} y={yv}");
    assert_eq!(
        solver.check_sat(&mut tm, &[pin]),
        SatResult::Sat,
        "{what}: circuit disagrees with evaluator"
    );
    let deny = tm.not(pin);
    assert_eq!(
        solver.check_sat(&mut tm, &[deny]),
        SatResult::Unsat,
        "{what}: circuit is underconstrained"
    );
}

#[test]
fn gate_folds_match_evaluator_at_every_4_bit_point() {
    let ops = [
        GateOp::Ult,
        GateOp::Ule,
        GateOp::Slt,
        GateOp::Sle,
        GateOp::Add,
        GateOp::Sub,
        GateOp::Neg,
    ];
    let shapes = [
        Shape::VarVar,
        Shape::VarConst,
        Shape::ConstVar,
        Shape::NotSelf,
        Shape::Same,
        Shape::SharedHigh,
        Shape::FlippedHigh,
    ];
    for op in ops {
        for shape in shapes {
            for xv in 0..16 {
                for yv in 0..16 {
                    check_gate_point(op, shape, xv, yv);
                }
            }
        }
    }
}

#[test]
fn extract_concat_extend_roundtrip() {
    let mut rng = Rng::new(0xb1a5_0003);
    for _ in 0..64 {
        let v = rng.next_u64() as u32;
        let mut tm = TermManager::new();
        let x = tm.var("x", 32);
        let lo = tm.extract(x, 15, 0);
        let hi = tm.extract(x, 31, 16);
        let back = tm.concat(hi, lo);
        let eq = tm.eq(back, x);
        let xc = tm.bv_const(u64::from(v), 32);
        let px = tm.eq(x, xc);
        let mut solver = Solver::new();
        solver.assert_term(&mut tm, px);
        let ne = tm.not(eq);
        assert_eq!(solver.check_sat(&mut tm, &[ne]), SatResult::Unsat);
    }
}

#[test]
fn select_store_matches_concrete_memory_oracle() {
    // Random store chains over an 8-bit-indexed byte array, read back at a
    // random (possibly symbolic) index: both the evaluator and the blasted
    // circuit must agree with a concrete `[u8; 256]` oracle at the point.
    let mut rng = Rng::new(0xb1a5_0009);
    for _ in 0..32 {
        let xv = rng.next_u8();
        let yv = rng.next_u8();
        let default = rng.next_u8();
        let mut tm = TermManager::new();
        let x = tm.var("x", 8);
        let y = tm.var("y", 8);
        let mut mem = [default; 256];
        let mut arr = tm.array_const(u64::from(default), 8, 8);
        // An index expression is either a constant, a variable, or var+k —
        // returns the term and its concrete value at (xv, yv).
        let operand = |tm: &mut TermManager, rng: &mut Rng| -> (Term, u8) {
            match rng.next_u8() % 4 {
                0 => {
                    let c = rng.next_u8();
                    (tm.bv_const(u64::from(c), 8), c)
                }
                1 => (x, xv),
                2 => (y, yv),
                _ => {
                    let k = rng.next_u8();
                    let kc = tm.bv_const(u64::from(k), 8);
                    (tm.add(x, kc), xv.wrapping_add(k))
                }
            }
        };
        let stores = 1 + (rng.next_u64() as usize) % 4;
        for _ in 0..stores {
            let (it, ic) = operand(&mut tm, &mut rng);
            let (vt, vc) = operand(&mut tm, &mut rng);
            mem[usize::from(ic)] = vc;
            arr = tm.store(arr, it, vt);
        }
        let (rt, rc) = operand(&mut tm, &mut rng);
        let sel = tm.select(arr, rt);
        let expected = mem[usize::from(rc)];

        let xid = tm.find_var("x").unwrap();
        let yid = tm.find_var("y").unwrap();
        let mut assignment: HashMap<VarId, u64> = HashMap::new();
        assignment.insert(xid, u64::from(xv));
        assignment.insert(yid, u64::from(yv));
        assert_eq!(
            eval(&tm, sel, &assignment).expect("assigned"),
            Value::BitVec(u64::from(expected)),
            "evaluator disagrees with memory oracle at x={xv:#x} y={yv:#x}"
        );

        let xc = tm.bv_const(u64::from(xv), 8);
        let yc = tm.bv_const(u64::from(yv), 8);
        let ec = tm.bv_const(u64::from(expected), 8);
        let px = tm.eq(x, xc);
        let py = tm.eq(y, yc);
        let pe = tm.eq(sel, ec);
        let mut solver = Solver::new();
        solver.assert_term(&mut tm, px);
        solver.assert_term(&mut tm, py);
        assert_eq!(
            solver.check_sat(&mut tm, &[pe]),
            SatResult::Sat,
            "select circuit disagrees with memory oracle at x={xv:#x} y={yv:#x}"
        );
        let npe = tm.not(pe);
        assert_eq!(
            solver.check_sat(&mut tm, &[npe]),
            SatResult::Unsat,
            "select circuit underconstrained at x={xv:#x} y={yv:#x}"
        );
    }
}

#[test]
fn models_satisfy_assertions() {
    let mut rng = Rng::new(0xb1a5_0004);
    for _ in 0..64 {
        let len = 1 + (rng.next_u64() as usize) % 4;
        let recipe = rng.bytes(len);
        let target = rng.next_u8();
        let mut tm = TermManager::new();
        let t = build_term(&mut tm, &recipe);
        let tc = tm.bv_const(u64::from(target), 8);
        let eq = tm.eq(t, tc);
        let mut solver = Solver::new();
        solver.assert_term(&mut tm, eq);
        if solver.check_sat(&mut tm, &[]) == SatResult::Sat {
            let m = solver.model(&tm).expect("model");
            assert_eq!(m.eval(&tm, eq), Value::Bool(true));
        }
    }
}
