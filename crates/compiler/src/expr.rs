//! Expression lowering: [`q100_dbms::Expr`] trees → BoolGen / ALU
//! instruction chains.

use q100_columnar::Value;
use q100_core::{AluOp, CmpOp, GraphBuilder, PortRef};
use q100_dbms::{ArithKind, CmpKind, Expr};

use crate::error::{CompileError, Result};

/// Resolves a column name to its port in the current relation.
pub(crate) trait ColumnEnv {
    fn port(&self, name: &str) -> Option<PortRef>;
}

impl ColumnEnv for [(String, PortRef)] {
    fn port(&self, name: &str) -> Option<PortRef> {
        self.iter().find(|(n, _)| n == name).map(|(_, p)| *p)
    }
}

fn cmp_op(kind: CmpKind) -> CmpOp {
    match kind {
        CmpKind::Eq => CmpOp::Eq,
        CmpKind::Neq => CmpOp::Neq,
        CmpKind::Lt => CmpOp::Lt,
        CmpKind::Lte => CmpOp::Lte,
        CmpKind::Gt => CmpOp::Gt,
        CmpKind::Gte => CmpOp::Gte,
    }
}

fn flip(kind: CmpKind) -> CmpKind {
    match kind {
        CmpKind::Eq => CmpKind::Eq,
        CmpKind::Neq => CmpKind::Neq,
        CmpKind::Lt => CmpKind::Gt,
        CmpKind::Lte => CmpKind::Gte,
        CmpKind::Gt => CmpKind::Lt,
        CmpKind::Gte => CmpKind::Lte,
    }
}

fn arith_op(kind: ArithKind) -> AluOp {
    match kind {
        ArithKind::Add => AluOp::Add,
        ArithKind::Sub => AluOp::Sub,
        ArithKind::Mul => AluOp::Mul,
        ArithKind::Div => AluOp::Div,
    }
}

/// Lowers an expression into instructions appended to `b`, returning
/// the port of the resulting column.
///
/// # Errors
///
/// Returns [`CompileError::Unsupported`] for shapes without a Q100
/// counterpart: bare constants outside an operator, constants on the
/// non-commutative left of `-`/`/`, and constant-only operands.
pub(crate) fn lower_expr(
    b: &mut GraphBuilder,
    env: &[(String, PortRef)],
    expr: &Expr,
) -> Result<PortRef> {
    match expr {
        Expr::Col(name) => env.port(name).ok_or_else(|| CompileError::UnknownColumn(name.clone())),
        Expr::Const(_) => Err(CompileError::Unsupported(
            "bare constant outside a comparison or arithmetic operator".into(),
        )),
        Expr::Cmp(kind, lhs, rhs) => match (lhs.as_ref(), rhs.as_ref()) {
            (Expr::Const(v), Expr::Const(_)) => {
                let _ = v;
                Err(CompileError::Unsupported("constant-to-constant comparison".into()))
            }
            (Expr::Const(v), other) => {
                let col = lower_expr(b, env, other)?;
                Ok(b.bool_gen_const(col, cmp_op(flip(*kind)), v.clone()))
            }
            (other, Expr::Const(v)) => {
                let col = lower_expr(b, env, other)?;
                Ok(b.bool_gen_const(col, cmp_op(*kind), v.clone()))
            }
            (l, r) => {
                let lc = lower_expr(b, env, l)?;
                let rc = lower_expr(b, env, r)?;
                Ok(b.bool_gen(lc, cmp_op(*kind), rc))
            }
        },
        Expr::Arith(kind, lhs, rhs) => match (lhs.as_ref(), rhs.as_ref()) {
            (Expr::Const(_), Expr::Const(_)) => {
                Err(CompileError::Unsupported("constant-only arithmetic".into()))
            }
            (Expr::Const(v), other) => {
                // Constants commute for + and *; the ALU has no
                // const-minuend subtract or const-dividend divide.
                match kind {
                    ArithKind::Add | ArithKind::Mul => {
                        let col = lower_expr(b, env, other)?;
                        Ok(b.alu_const(col, arith_op(*kind), v.clone()))
                    }
                    ArithKind::Sub | ArithKind::Div => Err(CompileError::Unsupported(
                        "constant on the left of a non-commutative operator".into(),
                    )),
                }
            }
            (other, Expr::Const(v)) => {
                let col = lower_expr(b, env, other)?;
                Ok(b.alu_const(col, arith_op(*kind), v.clone()))
            }
            (l, r) => {
                let lc = lower_expr(b, env, l)?;
                let rc = lower_expr(b, env, r)?;
                Ok(b.alu(lc, arith_op(*kind), rc))
            }
        },
        Expr::And(l, r) => {
            let lc = lower_expr(b, env, l)?;
            let rc = lower_expr(b, env, r)?;
            Ok(b.alu(lc, AluOp::And, rc))
        }
        Expr::Or(l, r) => {
            let lc = lower_expr(b, env, l)?;
            let rc = lower_expr(b, env, r)?;
            Ok(b.alu(lc, AluOp::Or, rc))
        }
        Expr::Not(inner) => {
            let c = lower_expr(b, env, inner)?;
            Ok(b.alu_not(c))
        }
        Expr::InList(inner, values) => {
            let Some((first, rest)) = values.split_first() else {
                return Err(CompileError::Unsupported("empty IN list".into()));
            };
            let col = lower_expr(b, env, inner)?;
            let mut acc = b.bool_gen_const(col, CmpOp::Eq, first.clone());
            for v in rest {
                let eq = b.bool_gen_const(col, CmpOp::Eq, v.clone());
                acc = b.alu(acc, AluOp::Or, eq);
            }
            Ok(acc)
        }
    }
}

/// Columns referenced by an expression, used to avoid selecting unused
/// columns out of the current relation.
pub(crate) fn referenced_columns(expr: &Expr, into: &mut Vec<String>) {
    match expr {
        Expr::Col(name) => {
            if !into.iter().any(|n| n == name) {
                into.push(name.clone());
            }
        }
        Expr::Const(_) => {}
        Expr::Cmp(_, a, c) | Expr::Arith(_, a, c) | Expr::And(a, c) | Expr::Or(a, c) => {
            referenced_columns(a, into);
            referenced_columns(c, into);
        }
        Expr::Not(a) | Expr::InList(a, _) => referenced_columns(a, into),
    }
}

/// A `Value` placeholder re-export used by unit tests.
#[allow(dead_code)]
pub(crate) fn _value_ty(v: &Value) -> q100_columnar::LogicalType {
    v.ty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use q100_columnar::{Column, MemoryCatalog, Table};
    use q100_core::QueryGraph;

    fn env_with(b: &mut GraphBuilder) -> Vec<(String, PortRef)> {
        let x = b.col_select_base("t", "x");
        let y = b.col_select_base("t", "y");
        vec![("x".into(), x), ("y".into(), y)]
    }

    fn run_expr(expr: &Expr) -> Vec<i64> {
        let t =
            Table::new(vec![Column::from_ints("x", [1, 5, 10]), Column::from_ints("y", [4, 5, 6])])
                .unwrap();
        let cat = MemoryCatalog::new(vec![("t".into(), t.clone())]);
        let mut b = QueryGraph::builder("e");
        let env = env_with(&mut b);
        let port = lower_expr(&mut b, &env, expr).unwrap();
        let g = b.finish().unwrap();
        let run = q100_core::execute(&g, &cat).unwrap();
        let col = run.outputs[port.node][port.port].as_col(0).unwrap().clone();
        // Cross-check against the software evaluator.
        let sw = expr.eval(&t).unwrap();
        assert_eq!(col.data(), &sw.data[..], "lowered expr diverges from software");
        col.data().to_vec()
    }

    #[test]
    fn comparisons_and_flipping() {
        assert_eq!(run_expr(&Expr::col("x").cmp(CmpKind::Gt, Expr::int(4))), vec![0, 1, 1]);
        // Constant on the left flips.
        assert_eq!(run_expr(&Expr::int(4).cmp(CmpKind::Gt, Expr::col("x"))), vec![1, 0, 0]);
        assert_eq!(run_expr(&Expr::col("x").eq(Expr::col("y"))), vec![0, 1, 0]);
    }

    #[test]
    fn arithmetic_trees() {
        let e = Expr::col("x")
            .arith(ArithKind::Mul, Expr::int(3))
            .arith(ArithKind::Add, Expr::col("y"));
        assert_eq!(run_expr(&e), vec![7, 20, 36]);
        let commuted = Expr::int(3).arith(ArithKind::Mul, Expr::col("x"));
        assert_eq!(run_expr(&commuted), vec![3, 15, 30]);
    }

    #[test]
    fn logic_and_in_list() {
        let e = Expr::col("x")
            .cmp(CmpKind::Gte, Expr::int(5))
            .and(Expr::col("y").cmp(CmpKind::Lte, Expr::int(5)).negate());
        assert_eq!(run_expr(&e), vec![0, 0, 1]);
        let e = Expr::col("x").in_list(vec![Value::Int(1), Value::Int(10)]);
        assert_eq!(run_expr(&e), vec![1, 0, 1]);
    }

    #[test]
    fn unsupported_shapes_error() {
        let mut b = QueryGraph::builder("u");
        let env = env_with(&mut b);
        assert!(matches!(
            lower_expr(&mut b, &env, &Expr::int(3)),
            Err(CompileError::Unsupported(_))
        ));
        let bad = Expr::int(1).arith(ArithKind::Sub, Expr::col("x"));
        assert!(matches!(lower_expr(&mut b, &env, &bad), Err(CompileError::Unsupported(_))));
        assert!(matches!(
            lower_expr(&mut b, &env, &Expr::col("zz")),
            Err(CompileError::UnknownColumn(_))
        ));
    }

    #[test]
    fn referenced_columns_dedup() {
        let e = Expr::col("x")
            .arith(ArithKind::Add, Expr::col("x").arith(ArithKind::Mul, Expr::col("y")));
        let mut cols = Vec::new();
        referenced_columns(&e, &mut cols);
        assert_eq!(cols, vec!["x".to_string(), "y".to_string()]);
    }
}
