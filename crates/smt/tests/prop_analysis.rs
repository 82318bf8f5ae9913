//! Property test for the word-level static-analysis layer.
//!
//! Verdicts are checked against the ground-truth evaluator at random
//! points from the shared deterministic generator: whenever the analysis
//! decides a boolean term under assumptions satisfied by `σ`, the
//! evaluator agrees. The assumptions compare random terms with constants
//! and with each other, so the order closure has chains to follow, and the
//! run must see it decide at least one verdict that no assumed literal
//! decides.
//!
//! Soundness here is one-directional by design: the analysis may always
//! answer "don't know", it may never answer wrongly.

use std::collections::HashMap;

use binsym_smt::analysis::Analysis;
use binsym_smt::eval::{eval, Value};
use binsym_smt::term::VarId;
use binsym_smt::{Op, Term, TermManager};
use binsym_testutil::Rng;

/// A random comparison between two same-width bitvector terms.
fn random_pred_over(tm: &mut TermManager, rng: &mut Rng, a: Term, b: Term) -> Term {
    match rng.below(6) {
        0 => tm.ult(a, b),
        1 => tm.slt(a, b),
        2 => tm.ule(a, b),
        3 => tm.sle(a, b),
        4 => tm.eq(a, b),
        _ => tm.ne(a, b),
    }
}

/// Builds a random 8-bit term over variables `x`/`y` by growing a pool,
/// mixing arithmetic, bitwise and shift operators with width-changing
/// extract/extend/concat shapes and `ite`.
fn random_bv(tm: &mut TermManager, rng: &mut Rng, steps: usize) -> Term {
    let x = tm.var("x", 8);
    let y = tm.var("y", 8);
    let c = tm.bv_const(u64::from(rng.next_u8()), 8);
    let z = tm.bv_const(0, 8);
    let mut pool = vec![x, y, c, z];
    for _ in 0..steps {
        let a = pool[rng.below(pool.len() as u64) as usize];
        let b = pool[rng.below(pool.len() as u64) as usize];
        let t = match rng.below(19) {
            0 => tm.add(a, b),
            1 => tm.sub(a, b),
            2 => tm.mul(a, b),
            3 => tm.udiv(a, b),
            4 => tm.urem(a, b),
            5 => tm.bv_and(a, b),
            6 => tm.bv_or(a, b),
            7 => tm.bv_xor(a, b),
            8 => tm.shl(a, b),
            9 => tm.lshr(a, b),
            10 => tm.ashr(a, b),
            11 => tm.bv_not(a),
            12 => tm.bv_neg(a),
            13 => {
                let w = tm.zext(a, 16);
                tm.extract(w, 7, 0)
            }
            14 => {
                let w = tm.sext(a, 16);
                tm.extract(w, 15, 8)
            }
            15 => {
                let cc = tm.concat(a, b);
                let lo = rng.below(9) as u32;
                tm.extract(cc, lo + 7, lo)
            }
            16 => {
                let w = tm.zext(a, 12);
                let v = tm.zext(b, 12);
                let s = tm.add(w, v);
                tm.extract(s, 7, 0)
            }
            17 => {
                let p = random_pred_over(tm, rng, a, b);
                tm.ite(p, a, b)
            }
            _ => {
                let p = random_pred_over(tm, rng, a, b);
                tm.bool_to_bv(p, 8)
            }
        };
        pool.push(t);
    }
    *pool.last().expect("nonempty")
}

fn assignment(tm: &TermManager, xv: u8, yv: u8) -> HashMap<VarId, u64> {
    let mut sigma = HashMap::new();
    sigma.insert(tm.find_var("x").expect("x interned"), u64::from(xv));
    sigma.insert(tm.find_var("y").expect("y interned"), u64::from(yv));
    sigma
}

fn eval_bv(tm: &TermManager, t: Term, sigma: &HashMap<VarId, u64>) -> u64 {
    match eval(tm, t, sigma).expect("assigned") {
        Value::BitVec(v) => v,
        Value::Bool(_) | Value::Array(_) => unreachable!("bv term"),
    }
}

/// `x`, `y`, a term equal to `x` at every point, and a few random terms
/// over them: the terms that assumptions and queries compare, so that they
/// share order-closure nodes, and some pairs are equal.
fn term_pool(tm: &mut TermManager, rng: &mut Rng) -> Vec<Term> {
    let (x, y) = (tm.var("x", 8), tm.var("y", 8));
    let sum = tm.add(x, y);
    let alias = tm.sub(sum, y);
    let mut pool = vec![x, y, alias];
    for _ in 0..3 {
        let steps = 1 + rng.below(3) as usize;
        pool.push(random_bv(tm, rng, steps));
    }
    pool
}

fn pick(rng: &mut Rng, pool: &[Term]) -> Term {
    pool[rng.below(pool.len() as u64) as usize]
}

/// A comparison of two pool terms that holds under `sigma`.
fn true_order(
    tm: &mut TermManager,
    rng: &mut Rng,
    sigma: &HashMap<VarId, u64>,
    pool: &[Term],
) -> Term {
    let (a, b) = (pick(rng, pool), pick(rng, pool));
    let (va, vb) = (eval_bv(tm, a, sigma), eval_bv(tm, b, sigma));
    // `lo ≤ hi` under `sigma`.
    let (lo, hi) = if va <= vb { (a, b) } else { (b, a) };
    match rng.below(4) {
        0 => tm.ule(lo, hi),
        1 if va != vb => tm.ult(lo, hi),
        1 => tm.eq(a, b),
        2 => {
            let gt = tm.ult(hi, lo);
            tm.not(gt)
        }
        _ if va != vb => tm.ne(a, b),
        _ => tm.eq(a, b),
    }
}

/// A comparison of a pool term against a constant that holds under
/// `sigma`: equalities and bounds derived from the term's concrete value,
/// plus negations of off-by-one falsehoods.
fn true_bound(
    tm: &mut TermManager,
    rng: &mut Rng,
    sigma: &HashMap<VarId, u64>,
    pool: &[Term],
) -> Term {
    let t = pick(rng, pool);
    let v = eval_bv(tm, t, sigma);
    match rng.below(5) {
        0 => {
            let c = tm.bv_const(v, 8);
            tm.eq(t, c)
        }
        1 => {
            // v <= c for a random c in [v, 255].
            let c = v + rng.below(256 - v);
            let c = tm.bv_const(c, 8);
            tm.ule(t, c)
        }
        2 => {
            // c <= v for a random c in [0, v].
            let c = rng.below(v + 1);
            let c = tm.bv_const(c, 8);
            tm.ule(c, t)
        }
        3 => {
            // ¬(t = c) for some c ≠ v.
            let c = (v + 1 + rng.below(255)) & 0xff;
            let c = tm.bv_const(c, 8);
            tm.ne(t, c)
        }
        _ => {
            // c < v when possible, else v < c.
            if v > 0 {
                let c = rng.below(v);
                let c = tm.bv_const(c, 8);
                tm.ult(c, t)
            } else {
                let c = 1 + rng.below(255);
                let c = tm.bv_const(c, 8);
                tm.ult(t, c)
            }
        }
    }
}

/// `t` with its negations stripped.
fn atom(tm: &TermManager, mut t: Term) -> Term {
    while tm.op(t) == Op::Not {
        t = tm.args(t)[0];
    }
    t
}

#[test]
fn facts_verdicts_and_forced_values_are_sound_under_assumptions() {
    let mut rng = Rng::new(0xb1a5_0008);
    let mut closure_decided = 0;
    for _ in 0..256 {
        let mut tm = TermManager::new();
        let xv = rng.next_u8();
        let yv = rng.next_u8();
        let pool = term_pool(&mut tm, &mut rng);
        let sigma = assignment(&tm, xv, yv);
        let n = 1 + rng.below(5) as usize;
        let assumed: Vec<Term> = (0..n)
            .map(|_| {
                let a = if rng.below(2) == 0 {
                    true_order(&mut tm, &mut rng, &sigma, &pool)
                } else {
                    true_bound(&mut tm, &mut rng, &sigma, &pool)
                };
                assert_eq!(eval(&tm, a, &sigma).expect("assigned"), Value::Bool(true));
                a
            })
            .collect();
        let mut an = Analysis::new();
        for &a in &assumed {
            an.assume(&tm, a);
        }
        // The assumptions themselves must verdict true (they were assumed).
        for &a in &assumed {
            assert_eq!(an.verdict(&tm, a), Some(true), "assumed fact not closed");
        }

        for _ in 0..4 {
            let (t, u) = (pick(&mut rng, &pool), pick(&mut rng, &pool));
            let p = random_pred_over(&mut tm, &mut rng, t, u);
            let Some(decided) = an.verdict(&tm, p) else {
                continue;
            };
            let truth = eval(&tm, p, &sigma).expect("assigned").as_bool();
            assert_eq!(decided, truth, "verdict disagrees with the evaluator");
            let a = atom(&tm, p);
            if !matches!(tm.op(a), Op::BoolConst(_)) && !assumed.iter().any(|&f| atom(&tm, f) == a)
            {
                closure_decided += 1;
            }
        }
    }
    assert!(
        closure_decided > 0,
        "the order closure never decided a verdict: the check is vacuous"
    );
}
