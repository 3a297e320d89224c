//! Pretty-printing Vadalog programs back to parseable source.
//!
//! Programs constructed programmatically (e.g. the Algorithm 2 view rules of
//! `kgm-core`) can be rendered for inspection exactly like MTV's generated
//! text, and the output round-trips through the parser (tested) — with one
//! caveat: constants that have no literal syntax (OIDs) print as
//! `⟨oid:...⟩` placeholders and make the output non-parseable, flagged by
//! [`to_source`]'s return.

use crate::ast::{Aggregate, AggregateFunc, Atom, BinOp, Expr, Program, Rule, RuleStep, Term};
use crate::bindings::InputSource;
use kgm_common::Value;
use std::fmt::Write;

/// Escape a string for a double-quoted Vadalog literal. Mirrors the escape
/// sequences the lexer understands (`\\`, `\"`, `\n`, `\t`); without the
/// last two, a string containing a newline would print as a literal line
/// break and fail to reparse.
fn escape_str(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
        .replace('\t', "\\t")
}

fn literal(v: &Value, parseable: &mut bool) -> String {
    match v {
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f:?}"),
        Value::Str(s) => format!("\"{}\"", escape_str(s)),
        Value::Date(d) => d.to_string(),
        Value::Oid(o) => {
            *parseable = false;
            format!("⟨oid:{o:?}⟩")
        }
    }
}

fn term(t: &Term, rule: &Rule, parseable: &mut bool) -> String {
    match t {
        Term::Const(v) => literal(v, parseable),
        Term::Var(v) => rule.var_name(*v).to_string(),
    }
}

fn atom(a: &Atom, rule: &Rule, parseable: &mut bool) -> String {
    let args: Vec<String> = a.terms.iter().map(|t| term(t, rule, parseable)).collect();
    format!("{}({})", a.predicate, args.join(", "))
}

fn binop(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Mod => "mod",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::And => "&&",
        BinOp::Or => "||",
    }
}

fn expr(e: &Expr, rule: &Rule, parseable: &mut bool) -> String {
    match e {
        Expr::Const(v) => literal(v, parseable),
        Expr::Var(v) => rule.var_name(*v).to_string(),
        Expr::Bin(op, a, b) => format!(
            "({} {} {})",
            expr(a, rule, parseable),
            binop(*op),
            expr(b, rule, parseable)
        ),
        Expr::Not(a) => format!("!({})", expr(a, rule, parseable)),
        Expr::Skolem(name, args) => {
            let mut parts = vec![format!("\"{}\"", escape_str(name))];
            parts.extend(args.iter().map(|a| expr(a, rule, parseable)));
            format!("skolem({})", parts.join(", "))
        }
        Expr::Call(name, args) => {
            let parts: Vec<String> = args.iter().map(|a| expr(a, rule, parseable)).collect();
            format!("{name}({})", parts.join(", "))
        }
    }
}

fn agg_name(f: AggregateFunc) -> &'static str {
    match f {
        AggregateFunc::Sum => "sum",
        AggregateFunc::MSum => "msum",
        AggregateFunc::Count => "count",
        AggregateFunc::MCount => "mcount",
        AggregateFunc::Min => "min",
        AggregateFunc::MMin => "mmin",
        AggregateFunc::Max => "max",
        AggregateFunc::MMax => "mmax",
        AggregateFunc::Prod => "prod",
        AggregateFunc::MProd => "mprod",
        AggregateFunc::Avg => "avg",
    }
}

fn rule_source(rule: &Rule, parseable: &mut bool) -> String {
    let mut parts: Vec<String> = rule.body.iter().map(|a| atom(a, rule, parseable)).collect();
    for step in &rule.steps {
        match step {
            RuleStep::Condition(e) => parts.push(expr(e, rule, parseable)),
            RuleStep::Assign(v, e) => parts.push(format!(
                "{} = {}",
                rule.var_name(*v),
                expr(e, rule, parseable)
            )),
            RuleStep::Aggregate(Aggregate {
                target,
                func,
                arg,
                contributors,
            }) => {
                let mut inner = String::new();
                if let Some(a) = arg {
                    inner.push_str(&expr(a, rule, parseable));
                }
                if !contributors.is_empty() {
                    if !inner.is_empty() {
                        inner.push_str(", ");
                    }
                    let cs: Vec<&str> = contributors.iter().map(|v| rule.var_name(*v)).collect();
                    inner.push_str(&format!("<{}>", cs.join(", ")));
                }
                parts.push(format!(
                    "{} = {}({inner})",
                    rule.var_name(*target),
                    agg_name(*func)
                ));
            }
            RuleStep::Negated(a) => parts.push(format!("not {}", atom(a, rule, parseable))),
        }
    }
    let heads: Vec<String> = rule.head.iter().map(|a| atom(a, rule, parseable)).collect();
    format!("{} -> {}.", parts.join(", "), heads.join(", "))
}

/// Render one rule as Vadalog source — for explanation trees and
/// diagnostics, where parseability does not matter (OID constants print as
/// placeholders).
pub fn rule_to_source(rule: &Rule) -> String {
    let mut parseable = true;
    rule_source(rule, &mut parseable)
}

/// Render a whole program as Vadalog source. Returns the text and whether
/// it is parseable (false when OID constants had to be printed as
/// placeholders).
pub fn to_source(program: &Program) -> (String, bool) {
    let mut parseable = true;
    let mut out = String::new();
    for f in &program.facts {
        // Facts are ground atoms; reuse the atom printer with a dummy rule.
        let dummy = Rule {
            body: vec![],
            steps: vec![],
            head: vec![],
            var_names: vec![],
        };
        writeln!(out, "{}.", atom(f, &dummy, &mut parseable)).ok();
    }
    for r in &program.rules {
        writeln!(out, "{}", rule_source(r, &mut parseable)).ok();
    }
    for b in &program.inputs {
        let line = match &b.source {
            InputSource::Facts => format!("@input({}, facts).", b.predicate),
            InputSource::PgNodes {
                graph,
                label,
                props,
            } => format!(
                "@input({}, nodes, \"{graph}\", \"{label}\", \"{}\").",
                b.predicate,
                props.join(",")
            ),
            InputSource::PgEdges {
                graph,
                label,
                props,
            } => format!(
                "@input({}, edges, \"{graph}\", \"{label}\", \"{}\").",
                b.predicate,
                props.join(",")
            ),
            InputSource::RelTable { catalog, table } => {
                format!(
                    "@input({}, table, \"{catalog}\", \"{table}\").",
                    b.predicate
                )
            }
        };
        writeln!(out, "{line}").ok();
    }
    for o in &program.outputs {
        writeln!(out, "@output({}).", o.predicate).ok();
    }
    (out, parseable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn round_trip(src: &str) {
        let p1 = parse_program(src).unwrap();
        let (printed, parseable) = to_source(&p1);
        assert!(parseable, "{printed}");
        let p2 = parse_program(&printed).unwrap();
        // Programs compare equal up to variable naming, which the printer
        // preserves; full equality must hold.
        assert_eq!(p1, p2, "printed:\n{printed}");
    }

    #[test]
    fn control_program_round_trips() {
        round_trip(
            r#"
            company(X) -> controls(X, X).
            controls(X, Z), own(Z, Y, W), V = msum(W, <Z>), V > 0.5
                -> controls(X, Y).
            @input(company, nodes, "kg", "Company", "").
            @input(own, edges, "kg", "OWNS", "percentage").
            @output(controls).
            "#,
        );
    }

    #[test]
    fn facts_negation_and_expressions_round_trip() {
        round_trip(
            r#"
            p(1). p(2). q("x", 2.5, true).
            a(X), not b(X), X > 3 || X < 1, Y = X * 2 + 1 -> c(Y).
            d(X), N = skolem("skN", X, "tag") -> e(N).
            f(X, Y), C = count(<Y>) -> g(X, C).
            "#,
        );
    }

    #[test]
    fn oid_constants_are_flagged_unparseable() {
        use crate::ast::{Atom, Term};
        use kgm_common::Oid;
        let program = Program {
            rules: vec![Rule {
                body: vec![Atom::new(
                    "p",
                    vec![Term::Const(Value::Oid(Oid::ground(5)))],
                )],
                steps: vec![],
                head: vec![Atom::new("q", vec![Term::Const(Value::Int(1))])],
                var_names: vec![],
            }],
            ..Default::default()
        };
        let (text, parseable) = to_source(&program);
        assert!(!parseable);
        assert!(text.contains("⟨oid:"));
    }

    #[test]
    fn existential_heads_print_verbatim() {
        let p = parse_program("a(X) -> b(X, N).").unwrap();
        let (text, ok) = to_source(&p);
        assert!(ok);
        assert!(text.contains("a(X) -> b(X, N)."));
    }
}
