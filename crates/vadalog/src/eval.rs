//! Scalar expression evaluation over rule bindings.

use crate::ast::{BinOp, Expr, Var};
use kgm_common::{KgmError, Result, SkolemRegistry, Value};
use std::cmp::Ordering;

/// Evaluation context: the process-wide Skolem registry (linker functors
/// must be shared across rules so independent rules *link up* on the same
/// derived OIDs, Section 4).
pub struct EvalCtx<'a> {
    /// Shared Skolem registry.
    pub skolems: &'a SkolemRegistry,
}

/// A rule binding as expression evaluation reads it: the value of a
/// variable, `None` while it is unbound.
pub type Binding<'a> = dyn Fn(Var) -> Option<Value> + 'a;

/// Read a bound variable.
fn var(binding: &Binding, v: Var) -> Result<Value> {
    binding(v).ok_or_else(|| KgmError::Internal(format!("unbound variable #{}", v.0)))
}

fn numeric2(a: &Value, b: &Value, op: &str) -> Result<(f64, f64, bool)> {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => Ok((x, y, a.as_i64().is_some() && b.as_i64().is_some())),
        _ => Err(KgmError::Type(format!(
            "`{op}` expects numbers, got {a:?} and {b:?}"
        ))),
    }
}

fn finite(x: f64, op: &str) -> Result<f64> {
    if x.is_finite() {
        Ok(x)
    } else {
        Err(KgmError::Type(format!(
            "`{op}` produced a non-finite value"
        )))
    }
}

/// The integer-overflow counterpart of [`finite`]: surface a checked-i64
/// result as a typed error instead of silently wrapping.
fn checked_int(r: Option<i64>, op: &str) -> Result<Value> {
    r.map(Value::Int)
        .ok_or_else(|| KgmError::Type(format!("`{op}` overflowed the i64 range")))
}

/// Largest magnitude `f64` represents exactly for every integer (2^53).
const F64_EXACT_INT: u64 = 1 << 53;

/// Evaluate `expr` under `binding`.
pub fn eval(expr: &Expr, binding: &Binding, ctx: &EvalCtx) -> Result<Value> {
    match expr {
        Expr::Const(v) => Ok(v.clone()),
        Expr::Var(v) => var(binding, *v),
        Expr::Not(e) => match eval(e, binding, ctx)? {
            Value::Bool(b) => Ok(Value::Bool(!b)),
            other => Err(KgmError::Type(format!("`!` expects bool, got {other:?}"))),
        },
        Expr::Bin(op, a, b) => {
            let a = eval(a, binding, ctx)?;
            let b = eval(b, binding, ctx)?;
            bin(*op, &a, &b)
        }
        Expr::Skolem(name, args) => {
            let values: Vec<Value> = args
                .iter()
                .map(|a| eval(a, binding, ctx))
                .collect::<Result<_>>()?;
            let f = ctx.skolems.functor(name);
            Ok(Value::Oid(ctx.skolems.apply(f, &values)))
        }
        Expr::Call(name, args) => {
            let values: Vec<Value> = args
                .iter()
                .map(|a| eval(a, binding, ctx))
                .collect::<Result<_>>()?;
            call(name, &values)
        }
    }
}

/// [`eval`] under a binding held as one value slot per variable, as the
/// naive oracle holds it.
pub fn eval_slots(expr: &Expr, binding: &[Option<Value>], ctx: &EvalCtx) -> Result<Value> {
    eval(
        expr,
        &|v| binding.get(v.0 as usize).and_then(Clone::clone),
        ctx,
    )
}

/// Apply a binary operator.
pub fn bin(op: BinOp, a: &Value, b: &Value) -> Result<Value> {
    match op {
        BinOp::Add => match (a, b) {
            (Value::Str(x), Value::Str(y)) => Ok(Value::str(format!("{x}{y}"))),
            _ => {
                let (x, y, int) = numeric2(a, b, "+")?;
                if int {
                    checked_int(a.as_i64().unwrap().checked_add(b.as_i64().unwrap()), "+")
                } else {
                    Ok(Value::Float(finite(x + y, "+")?))
                }
            }
        },
        BinOp::Sub => {
            let (x, y, int) = numeric2(a, b, "-")?;
            if int {
                checked_int(a.as_i64().unwrap().checked_sub(b.as_i64().unwrap()), "-")
            } else {
                Ok(Value::Float(finite(x - y, "-")?))
            }
        }
        BinOp::Mul => {
            let (x, y, int) = numeric2(a, b, "*")?;
            if int {
                checked_int(a.as_i64().unwrap().checked_mul(b.as_i64().unwrap()), "*")
            } else {
                Ok(Value::Float(finite(x * y, "*")?))
            }
        }
        BinOp::Div => {
            let (x, y, int) = numeric2(a, b, "/")?;
            if int {
                // Integer division never detours through f64: a round trip
                // above 2^53 would silently change the operands.
                let (xi, yi) = (a.as_i64().unwrap(), b.as_i64().unwrap());
                if yi == 0 {
                    return Err(KgmError::Type("division by zero".to_string()));
                }
                // checked_rem is None only for i64::MIN / -1 — mathematically
                // exact, but the quotient overflows i64, so route it through
                // checked_div's error.
                if xi.checked_rem(yi).unwrap_or(0) == 0 {
                    return checked_int(xi.checked_div(yi), "/");
                }
                if xi.unsigned_abs() > F64_EXACT_INT || yi.unsigned_abs() > F64_EXACT_INT {
                    return Err(KgmError::Type(format!(
                        "`/` on {xi} and {yi}: fractional quotient with an operand \
                         beyond f64's exact-integer range (2^53)"
                    )));
                }
                return Ok(Value::Float(finite(xi as f64 / yi as f64, "/")?));
            }
            if y == 0.0 {
                Err(KgmError::Type("division by zero".to_string()))
            } else {
                Ok(Value::Float(finite(x / y, "/")?))
            }
        }
        BinOp::Mod => match (a.as_i64(), b.as_i64()) {
            (Some(x), Some(y)) if y != 0 => checked_int(x.checked_rem_euclid(y), "%"),
            (Some(_), Some(_)) => Err(KgmError::Type("modulo by zero".to_string())),
            _ => Err(KgmError::Type(format!(
                "`%` expects integers, got {a:?} and {b:?}"
            ))),
        },
        BinOp::Eq => Ok(Value::Bool(a == b)),
        BinOp::Ne => Ok(Value::Bool(a != b)),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            // A labelled null stands for an unknown value, such as an absent
            // optional attribute: no order holds with it, as SQL's
            // `NULL > 2` does not hold.
            if a.is_labelled_null() || b.is_labelled_null() {
                return Ok(Value::Bool(false));
            }
            let ord = a.total_cmp(b);
            Ok(Value::Bool(match op {
                BinOp::Lt => ord == Ordering::Less,
                BinOp::Le => ord != Ordering::Greater,
                BinOp::Gt => ord == Ordering::Greater,
                BinOp::Ge => ord != Ordering::Less,
                _ => unreachable!(),
            }))
        }
        BinOp::And | BinOp::Or => match (a.as_bool(), b.as_bool()) {
            (Some(x), Some(y)) => Ok(Value::Bool(if op == BinOp::And { x && y } else { x || y })),
            _ => Err(KgmError::Type(format!(
                "logical operator expects bools, got {a:?} and {b:?}"
            ))),
        },
    }
}

/// Built-in scalar functions.
fn call(name: &str, args: &[Value]) -> Result<Value> {
    match (name, args) {
        ("abs", [v]) => match v {
            Value::Int(i) => checked_int(i.checked_abs(), "abs"),
            Value::Float(f) => Ok(Value::Float(f.abs())),
            other => Err(KgmError::Type(format!(
                "abs expects a number, got {other:?}"
            ))),
        },
        ("min2", [a, b]) => Ok(if a.total_cmp(b) == Ordering::Greater {
            b.clone()
        } else {
            a.clone()
        }),
        ("max2", [a, b]) => Ok(if a.total_cmp(b) == Ordering::Less {
            b.clone()
        } else {
            a.clone()
        }),
        ("concat", _) => {
            let mut s = String::new();
            for a in args {
                s.push_str(&a.to_string());
            }
            Ok(Value::str(s))
        }
        ("to_string", [v]) => Ok(Value::str(v.to_string())),
        _ => Err(KgmError::NotFound(format!(
            "function `{name}`/{}",
            args.len()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgm_common::{Oid, OidSpace};

    fn ctx() -> SkolemRegistry {
        SkolemRegistry::new()
    }

    fn ev(e: &Expr, binding: &[Option<Value>]) -> Result<Value> {
        let reg = ctx();
        eval_slots(e, binding, &EvalCtx { skolems: &reg })
    }

    #[test]
    fn arithmetic_preserves_int_when_possible() {
        assert_eq!(
            bin(BinOp::Add, &Value::Int(2), &Value::Int(3)).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            bin(BinOp::Add, &Value::Int(2), &Value::Float(0.5)).unwrap(),
            Value::Float(2.5)
        );
        assert_eq!(
            bin(BinOp::Div, &Value::Int(1), &Value::Int(2)).unwrap(),
            Value::Float(0.5)
        );
    }

    #[test]
    fn string_concatenation_via_plus() {
        assert_eq!(
            bin(BinOp::Add, &Value::str("a"), &Value::str("b")).unwrap(),
            Value::str("ab")
        );
    }

    #[test]
    fn division_by_zero_is_an_error() {
        assert!(bin(BinOp::Div, &Value::Int(1), &Value::Int(0)).is_err());
        assert!(bin(BinOp::Mod, &Value::Int(1), &Value::Int(0)).is_err());
    }

    #[test]
    fn int_overflow_is_a_type_error_not_a_wrap() {
        // i64::MAX + 1 used to wrap to i64::MIN silently.
        for (op, a, b) in [
            (BinOp::Add, i64::MAX, 1),
            (BinOp::Add, i64::MIN, -1),
            (BinOp::Sub, i64::MIN, 1),
            (BinOp::Sub, i64::MAX, -1),
            (BinOp::Mul, i64::MAX, 2),
            (BinOp::Mul, i64::MIN, -1),
        ] {
            let err = bin(op, &Value::Int(a), &Value::Int(b)).unwrap_err();
            assert!(
                matches!(err, KgmError::Type(_)),
                "{op:?} on {a}, {b}: {err}"
            );
        }
        // In-range results are untouched.
        assert_eq!(
            bin(BinOp::Add, &Value::Int(i64::MAX - 1), &Value::Int(1)).unwrap(),
            Value::Int(i64::MAX)
        );
        assert_eq!(
            bin(BinOp::Mul, &Value::Int(1 << 31), &Value::Int(1 << 31)).unwrap(),
            Value::Int(1 << 62)
        );
    }

    #[test]
    fn abs_and_mod_overflow_are_errors() {
        assert!(call("abs", &[Value::Int(i64::MIN)]).is_err());
        assert_eq!(
            call("abs", &[Value::Int(i64::MIN + 1)]).unwrap(),
            Value::Int(i64::MAX)
        );
        assert!(bin(BinOp::Mod, &Value::Int(i64::MIN), &Value::Int(-1)).is_err());
    }

    #[test]
    fn exact_int_division_keeps_full_precision() {
        const BIG: i64 = (1i64 << 53) + 1; // not representable in f64
                                           // (2^53 + 1) / 1 used to come back as 2^53.0, off by one.
        assert_eq!(
            bin(BinOp::Div, &Value::Int(BIG), &Value::Int(1)).unwrap(),
            Value::Int(BIG)
        );
        assert_eq!(
            bin(BinOp::Div, &Value::Int(i64::MAX), &Value::Int(i64::MAX)).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            bin(BinOp::Div, &Value::Int(1 << 60), &Value::Int(1 << 10)).unwrap(),
            Value::Int(1 << 50)
        );
        assert_eq!(
            bin(BinOp::Div, &Value::Int(-9), &Value::Int(3)).unwrap(),
            Value::Int(-3)
        );
        // The one exact quotient that leaves i64.
        assert!(bin(BinOp::Div, &Value::Int(i64::MIN), &Value::Int(-1)).is_err());
    }

    #[test]
    fn fractional_int_division_guards_the_f64_boundary() {
        const EXACT: i64 = 1 << 53;
        // Small fractional quotients still produce the documented float.
        assert_eq!(
            bin(BinOp::Div, &Value::Int(3), &Value::Int(2)).unwrap(),
            Value::Float(1.5)
        );
        // Operands at the boundary are fine…
        assert_eq!(
            bin(BinOp::Div, &Value::Int(EXACT - 1), &Value::Int(2)).unwrap(),
            Value::Float((EXACT - 1) as f64 / 2.0)
        );
        // …and exactly representable even at 2^53.
        assert_eq!(
            bin(BinOp::Div, &Value::Int(EXACT), &Value::Int(2)).unwrap(),
            Value::Int(EXACT / 2)
        );
        // Beyond it, a fractional quotient would silently lose precision:
        // (2^53 + 1) / 2 has no exact f64 answer, so it must error.
        let err = bin(BinOp::Div, &Value::Int(EXACT + 1), &Value::Int(2)).unwrap_err();
        assert!(matches!(err, KgmError::Type(_)), "{err}");
        assert!(bin(BinOp::Div, &Value::Int(3), &Value::Int(-EXACT - 1)).is_err());
    }

    #[test]
    fn comparisons_work_cross_numeric() {
        assert_eq!(
            bin(BinOp::Lt, &Value::Int(1), &Value::Float(1.5)).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            bin(BinOp::Ge, &Value::Float(2.0), &Value::Int(2)).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn no_order_holds_with_a_labelled_null() {
        let (null, two) = (Value::Oid(Oid::new(OidSpace::Null, 0)), Value::Int(2));
        for op in [BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge] {
            for (a, b) in [(&null, &two), (&two, &null), (&null, &null)] {
                assert_eq!(
                    bin(op, a, b).unwrap(),
                    Value::Bool(false),
                    "{op:?} {a:?} {b:?}"
                );
            }
        }
        // Equality keeps value identity.
        assert_eq!(bin(BinOp::Eq, &null, &null).unwrap(), Value::Bool(true));
        assert_eq!(bin(BinOp::Ne, &null, &two).unwrap(), Value::Bool(true));
    }

    #[test]
    fn skolem_expressions_are_deterministic() {
        let reg = ctx();
        let c = EvalCtx { skolems: &reg };
        let e = Expr::Skolem("skN".into(), vec![Expr::Const(Value::Int(7))]);
        let a = eval_slots(&e, &[], &c).unwrap();
        let b = eval_slots(&e, &[], &c).unwrap();
        assert_eq!(a, b);
        assert!(matches!(a, Value::Oid(o) if o.space() == kgm_common::OidSpace::Skolem));
    }

    #[test]
    fn unbound_variable_is_an_error() {
        assert!(ev(&Expr::Var(Var(0)), &[None]).is_err());
        assert!(ev(&Expr::Var(Var(3)), &[]).is_err());
    }

    #[test]
    fn builtin_functions() {
        assert_eq!(
            ev(
                &Expr::Call("abs".into(), vec![Expr::Const(Value::Int(-4))]),
                &[]
            )
            .unwrap(),
            Value::Int(4)
        );
        assert_eq!(
            ev(
                &Expr::Call(
                    "concat".into(),
                    vec![Expr::Const(Value::str("a")), Expr::Const(Value::Int(1))]
                ),
                &[]
            )
            .unwrap(),
            Value::str("a1")
        );
        assert!(ev(&Expr::Call("nope".into(), vec![]), &[]).is_err());
    }

    #[test]
    fn logic_operators() {
        assert_eq!(
            bin(BinOp::And, &Value::Bool(true), &Value::Bool(false)).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            bin(BinOp::Or, &Value::Bool(true), &Value::Bool(false)).unwrap(),
            Value::Bool(true)
        );
        assert!(bin(BinOp::And, &Value::Int(1), &Value::Bool(true)).is_err());
    }
}
