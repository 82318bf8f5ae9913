//! The intermediate representation of the baseline engine.
//!
//! A small VEX-flavored register-transfer IR: temporaries in SSA-ish style,
//! explicit guest-register get/put, expression loads, guarded exits. One
//! guest instruction lifts to one [`IrBlock`] (the engine may cache lifted
//! blocks, see [`crate::EngineConfig`]).

use std::fmt;

/// Identifier of an IR temporary.
pub type TempId = u32;

/// Memory access width in bytes (1, 2, or 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessWidth {
    /// 8-bit access.
    Byte,
    /// 16-bit access.
    Half,
    /// 32-bit access.
    Word,
}

impl AccessWidth {
    /// Size in bits.
    pub fn bits(self) -> u32 {
        match self {
            AccessWidth::Byte => 8,
            AccessWidth::Half => 16,
            AccessWidth::Word => 32,
        }
    }

    /// Size in bytes.
    pub fn bytes(self) -> u32 {
        self.bits() / 8
    }
}

/// Binary IR operators. Comparisons yield 1-bit values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IrBinop {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Unsigned division (division by zero yields all-ones).
    DivU,
    /// Signed division (RISC-V M edge semantics).
    DivS,
    /// Unsigned remainder.
    RemU,
    /// Signed remainder.
    RemS,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift.
    Shl,
    /// Logical right shift.
    Shr,
    /// Arithmetic right shift.
    Sar,
    /// Equality (1-bit).
    CmpEq,
    /// Disequality (1-bit).
    CmpNe,
    /// Unsigned less-than (1-bit).
    CmpLtU,
    /// Signed less-than (1-bit).
    CmpLtS,
    /// Unsigned greater-or-equal (1-bit).
    CmpGeU,
    /// Signed greater-or-equal (1-bit).
    CmpGeS,
}

/// IR expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrExpr {
    /// Constant of explicit width.
    Const {
        /// Value (masked by evaluators).
        value: u64,
        /// Width in bits.
        width: u32,
    },
    /// Read of an IR temporary.
    Temp(TempId),
    /// Read of guest register `x{0..31}` (32 bits).
    GetReg(u8),
    /// Binary operation.
    Binop {
        /// Operator.
        op: IrBinop,
        /// Left operand.
        lhs: Box<IrExpr>,
        /// Right operand.
        rhs: Box<IrExpr>,
    },
    /// Memory load of the raw access width (no extension).
    Load {
        /// Access width.
        width: AccessWidth,
        /// Address (32 bits).
        addr: Box<IrExpr>,
    },
    /// Widening (zero or sign extension).
    Widen {
        /// True for sign extension.
        signed: bool,
        /// Target width.
        to: u32,
        /// Operand.
        arg: Box<IrExpr>,
    },
    /// Bit extraction `hi..=lo`.
    Extract {
        /// High bit (inclusive).
        hi: u32,
        /// Low bit (inclusive).
        lo: u32,
        /// Operand.
        arg: Box<IrExpr>,
    },
}

impl IrExpr {
    /// 32-bit constant.
    pub fn c32(v: u32) -> IrExpr {
        IrExpr::Const {
            value: u64::from(v),
            width: 32,
        }
    }

    /// Binary operation helper.
    pub fn binop(op: IrBinop, lhs: IrExpr, rhs: IrExpr) -> IrExpr {
        IrExpr::Binop {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Width of the expression in bits (1 for comparisons).
    pub fn width(&self) -> u32 {
        match self {
            IrExpr::Const { width, .. } => *width,
            IrExpr::Temp(_) | IrExpr::GetReg(_) => 32,
            IrExpr::Binop { op, lhs, .. } => match op {
                IrBinop::CmpEq
                | IrBinop::CmpNe
                | IrBinop::CmpLtU
                | IrBinop::CmpLtS
                | IrBinop::CmpGeU
                | IrBinop::CmpGeS => 1,
                _ => lhs.width(),
            },
            IrExpr::Load { width, .. } => width.bits(),
            IrExpr::Widen { to, .. } => *to,
            IrExpr::Extract { hi, lo, .. } => hi - lo + 1,
        }
    }
}

/// IR statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrStmt {
    /// Defines a temporary.
    SetTemp {
        /// Temporary id (unique within the block).
        temp: TempId,
        /// Value.
        value: IrExpr,
    },
    /// Writes a guest register (writes to `x0` are discarded).
    PutReg {
        /// Guest register number.
        reg: u8,
        /// 32-bit value.
        value: IrExpr,
    },
    /// Memory store of the low bits of a value.
    Store {
        /// Access width.
        width: AccessWidth,
        /// Address (32 bits).
        addr: IrExpr,
        /// Value whose low bits are stored.
        value: IrExpr,
    },
    /// Guarded exit: if `cond` (1-bit) is true, jump to `target`.
    Exit {
        /// 1-bit condition.
        cond: IrExpr,
        /// Jump target.
        target: u32,
    },
    /// Unconditional jump to a constant address.
    JumpConst(u32),
    /// Unconditional jump to a computed address.
    JumpInd(IrExpr),
    /// Environment call.
    Syscall,
    /// Breakpoint.
    Breakpoint,
}

/// One lifted guest instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrBlock {
    /// Statements in execution order.
    pub stmts: Vec<IrStmt>,
    /// Address of the next sequential instruction (fall-through).
    pub fallthrough: u32,
}

impl fmt::Display for IrBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.stmts {
            writeln!(f, "  {s:?}")?;
        }
        write!(f, "  -> {:#010x}", self.fallthrough)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        let c = IrExpr::c32(5);
        assert_eq!(c.width(), 32);
        let cmp = IrExpr::binop(IrBinop::CmpLtU, IrExpr::GetReg(1), IrExpr::GetReg(2));
        assert_eq!(cmp.width(), 1);
        let load = IrExpr::Load {
            width: AccessWidth::Byte,
            addr: Box::new(IrExpr::c32(0)),
        };
        assert_eq!(load.width(), 8);
        let wide = IrExpr::Widen {
            signed: true,
            to: 32,
            arg: Box::new(load),
        };
        assert_eq!(wide.width(), 32);
    }
}
