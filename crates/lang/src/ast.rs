//! The root of a parsed KF1 program, and the operators of its expressions.
//!
//! There is one tree: [`crate::parse`] reads each subroutine straight into
//! the resolved nodes of `resolve.rs` — names interned as frame
//! slots, byte [`crate::Span`]s on every node a diagnostic points at — and
//! the analyzer, the static plans and the interpreter all read it.

use crate::resolve::RSub;

/// A whole source file: its subroutines, resolved, and the source text
/// they were parsed from (kept so spans can be rendered later).
#[derive(Debug, Clone)]
pub struct Program {
    pub src: String,
    /// The subroutines in text order; a `call` names one by its index.
    pub(crate) code: Vec<RSub>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Not,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}
