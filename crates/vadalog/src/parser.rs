//! Textual Vadalog syntax.
//!
//! A close transcription of how the paper writes Vadalog programs
//! (Examples 4.2 and 4.4):
//!
//! ```text
//! % company control (Example 4.2)
//! company(X) -> controls(X, X).
//! controls(X, Z), own(Z, Y, W), V = msum(W, <Z>), V > 0.5 -> controls(X, Y).
//! @input(company, nodes, "kg", "Company", "").
//! @input(own, edges, "kg", "OWNS", "percentage").
//! @output(controls).
//! ```
//!
//! Conventions (chosen to avoid the Prolog case ambiguity, since MetaLog
//! labels such as `Business` are capitalized while the paper's variables are
//! lowercase): **any bare identifier in term position is a variable**;
//! constants are numbers, quoted strings, `true`/`false`. `_` is the
//! anonymous variable (fresh at each occurrence). Head variables not bound
//! in the body are existential. `skolem("skN", X, ...)` applies a linker
//! Skolem functor. Comments run from `%` or `#` to end of line; the tokens
//! are those of [`crate::lexer`], which MetaLog shares.

use crate::ast::{
    Aggregate, AggregateFunc, Atom, BinOp, Expr, Program, Rule, RuleStep, Term, Var,
};
use crate::bindings::{InputBinding, InputSource, OutputBinding};
use crate::lexer::{Cursor, Tok};
use kgm_common::{FxHashMap, Result, Value};
use std::ops::{Deref, DerefMut};

/// The grammar, over the token helpers of [`Cursor`].
struct Parser(Cursor);

impl Deref for Parser {
    type Target = Cursor;
    fn deref(&self) -> &Cursor {
        &self.0
    }
}

impl DerefMut for Parser {
    fn deref_mut(&mut self) -> &mut Cursor {
        &mut self.0
    }
}

struct RuleCtx {
    vars: FxHashMap<String, Var>,
    names: Vec<String>,
}

impl RuleCtx {
    fn new() -> Self {
        RuleCtx {
            vars: FxHashMap::default(),
            names: Vec::new(),
        }
    }

    fn var(&mut self, name: &str) -> Var {
        if name == "_" {
            // Anonymous: always fresh.
            let v = Var(self.names.len() as u16);
            self.names.push(format!("_{}", self.names.len()));
            return v;
        }
        if let Some(&v) = self.vars.get(name) {
            return v;
        }
        let v = Var(self.names.len() as u16);
        self.names.push(name.to_string());
        self.vars.insert(name.to_string(), v);
        v
    }
}

impl Parser {
    fn program(&mut self) -> Result<Program> {
        let mut prog = Program::default();
        while self.peek().is_some() {
            if self.eat("@") {
                self.annotation(&mut prog)?;
            } else {
                self.rule_or_fact(&mut prog)?;
            }
        }
        Ok(prog)
    }

    fn annotation(&mut self, prog: &mut Program) -> Result<()> {
        let kind = self.ident()?;
        self.expect("(")?;
        match kind.as_str() {
            "input" => {
                let predicate = self.ident()?;
                self.expect(",")?;
                let mode = self.ident()?;
                let source = match mode.as_str() {
                    "facts" => InputSource::Facts,
                    "nodes" | "edges" => {
                        self.expect(",")?;
                        let graph = self.string()?;
                        self.expect(",")?;
                        let label = self.string()?;
                        let props = if self.eat(",") {
                            let list = self.string()?;
                            if list.is_empty() {
                                Vec::new()
                            } else {
                                list.split(',').map(|s| s.trim().to_string()).collect()
                            }
                        } else {
                            Vec::new()
                        };
                        if mode == "nodes" {
                            InputSource::PgNodes {
                                graph,
                                label,
                                props,
                            }
                        } else {
                            InputSource::PgEdges {
                                graph,
                                label,
                                props,
                            }
                        }
                    }
                    "table" => {
                        self.expect(",")?;
                        let catalog = self.string()?;
                        self.expect(",")?;
                        let table = self.string()?;
                        InputSource::RelTable { catalog, table }
                    }
                    other => {
                        return Err(self.error(format!("unknown @input mode `{other}`")));
                    }
                };
                prog.inputs.push(InputBinding { predicate, source });
            }
            "output" => {
                let predicate = self.ident()?;
                prog.outputs.push(OutputBinding { predicate });
            }
            other => return Err(self.error(format!("unknown annotation `@{other}`"))),
        }
        self.expect(")")?;
        self.expect(".")?;
        Ok(())
    }

    fn rule_or_fact(&mut self, prog: &mut Program) -> Result<()> {
        let mut ctx = RuleCtx::new();
        let mut body: Vec<Atom> = Vec::new();
        let mut steps: Vec<RuleStep> = Vec::new();
        loop {
            self.body_item(&mut ctx, &mut body, &mut steps)?;
            if self.eat(",") {
                continue;
            }
            break;
        }
        if self.eat(".") {
            // A fact (or a set of facts, comma-joined — only atoms allowed).
            if !steps.is_empty() {
                return Err(self.error("facts cannot contain conditions or assignments"));
            }
            for a in &body {
                if a.vars().next().is_some() {
                    return Err(self.error(format!(
                        "fact `{}` contains variables",
                        a.predicate
                    )));
                }
            }
            prog.facts.extend(body);
            return Ok(());
        }
        self.expect("->")?;
        let mut head = Vec::new();
        loop {
            head.push(self.atom(&mut ctx)?);
            if self.eat(",") {
                continue;
            }
            break;
        }
        self.expect(".")?;
        prog.rules.push(Rule {
            body,
            steps,
            head,
            var_names: ctx.names,
        });
        Ok(())
    }

    fn body_item(
        &mut self,
        ctx: &mut RuleCtx,
        body: &mut Vec<Atom>,
        steps: &mut Vec<RuleStep>,
    ) -> Result<()> {
        // `not atom`
        if matches!(self.peek(), Some(Tok::Ident(s)) if s == "not")
            && matches!(self.peek_at(1), Some(Tok::Ident(_)))
        {
            self.pos += 1;
            let a = self.atom(ctx)?;
            steps.push(RuleStep::Negated(a));
            return Ok(());
        }
        // `ident(` → atom, but only if nothing follows that makes it an
        // expression (expressions with calls only appear behind `=` or in
        // conditions that start with a variable or constant — calls as a
        // condition head are not valid Vadalog).
        if let (Some(Tok::Ident(name)), Some(Tok::Punct("("))) = (self.peek(), self.peek_at(1)) {
            if AggregateFunc::parse(name).is_none() && name != "skolem" {
                let a = self.atom(ctx)?;
                if !steps.is_empty() {
                    // The paper always writes positive atoms first; enforcing
                    // it keeps evaluation order well-defined.
                    return Err(self.error(format!(
                        "positive atom `{}` must precede conditions/assignments",
                        a.predicate
                    )));
                }
                body.push(a);
                return Ok(());
            }
        }
        // `Var = aggregate(...)` or `Var = expr`
        if let (Some(Tok::Ident(_)), Some(Tok::Punct("="))) = (self.peek(), self.peek_at(1)) {
            let name = self.ident()?;
            self.expect("=")?;
            let target = ctx.var(&name);
            if let (Some(Tok::Ident(f)), Some(Tok::Punct("("))) = (self.peek(), self.peek_at(1)) {
                if let Some(func) = AggregateFunc::parse(f) {
                    self.pos += 2; // ident + (
                    let agg = self.aggregate(ctx, target, func)?;
                    steps.push(RuleStep::Aggregate(agg));
                    return Ok(());
                }
            }
            let e = self.expr(ctx)?;
            steps.push(RuleStep::Assign(target, e));
            return Ok(());
        }
        // Otherwise: condition expression.
        let e = self.expr(ctx)?;
        steps.push(RuleStep::Condition(e));
        Ok(())
    }

    /// Parses the inside of `func( ... )` after the opening paren.
    fn aggregate(&mut self, ctx: &mut RuleCtx, target: Var, func: AggregateFunc) -> Result<Aggregate> {
        let mut arg = None;
        let mut contributors = Vec::new();
        if !matches!(self.peek(), Some(Tok::Punct(")"))) {
            if !matches!(self.peek(), Some(Tok::Punct("<"))) {
                arg = Some(self.expr(ctx)?);
                if self.eat(",") {
                    // fall through to contributor list
                } else {
                    self.expect(")")?;
                    return Ok(Aggregate {
                        target,
                        func,
                        arg,
                        contributors,
                    });
                }
            }
            self.expect("<")?;
            loop {
                let v = self.ident()?;
                contributors.push(ctx.var(&v));
                if !self.eat(",") {
                    break;
                }
            }
            self.expect(">")?;
        }
        self.expect(")")?;
        if arg.is_none() && !matches!(func, AggregateFunc::Count | AggregateFunc::MCount) {
            return Err(self.error(format!("{func:?} requires an argument expression")));
        }
        Ok(Aggregate {
            target,
            func,
            arg,
            contributors,
        })
    }

    fn atom(&mut self, ctx: &mut RuleCtx) -> Result<Atom> {
        let predicate = self.ident()?;
        self.expect("(")?;
        let mut terms = Vec::new();
        if !self.eat(")") {
            loop {
                terms.push(self.term(ctx)?);
                if self.eat(",") {
                    continue;
                }
                break;
            }
            self.expect(")")?;
        }
        Ok(Atom { predicate, terms })
    }

    fn term(&mut self, ctx: &mut RuleCtx) -> Result<Term> {
        match self.next() {
            Some(Tok::Ident(s)) => match s.as_str() {
                "true" => Ok(Term::Const(Value::Bool(true))),
                "false" => Ok(Term::Const(Value::Bool(false))),
                _ => Ok(Term::Var(ctx.var(&s))),
            },
            Some(Tok::Int(i)) => Ok(Term::Const(Value::Int(i))),
            Some(Tok::Float(f)) => Ok(Term::Const(Value::Float(f))),
            Some(Tok::Str(s)) => Ok(Term::Const(Value::str(s))),
            Some(Tok::Punct("-")) => match self.next() {
                Some(Tok::Int(i)) => Ok(Term::Const(Value::Int(-i))),
                Some(Tok::Float(f)) => Ok(Term::Const(Value::Float(-f))),
                other => Err(self.error(format!("expected number after `-`, found {other:?}"))),
            },
            other => Err(self.error(format!("expected term, found {other:?}"))),
        }
    }

    // Precedence-climbing expression parser.
    fn expr(&mut self, ctx: &mut RuleCtx) -> Result<Expr> {
        self.expr_or(ctx)
    }

    fn expr_or(&mut self, ctx: &mut RuleCtx) -> Result<Expr> {
        let mut lhs = self.expr_and(ctx)?;
        while self.eat("||") {
            let rhs = self.expr_and(ctx)?;
            lhs = Expr::Bin(BinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn expr_and(&mut self, ctx: &mut RuleCtx) -> Result<Expr> {
        let mut lhs = self.expr_cmp(ctx)?;
        while self.eat("&&") {
            let rhs = self.expr_cmp(ctx)?;
            lhs = Expr::Bin(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn expr_cmp(&mut self, ctx: &mut RuleCtx) -> Result<Expr> {
        let lhs = self.expr_add(ctx)?;
        let op = match self.peek() {
            Some(Tok::Punct("==")) => Some(BinOp::Eq),
            Some(Tok::Punct("!=")) => Some(BinOp::Ne),
            Some(Tok::Punct("<")) => Some(BinOp::Lt),
            Some(Tok::Punct("<=")) => Some(BinOp::Le),
            Some(Tok::Punct(">")) => Some(BinOp::Gt),
            Some(Tok::Punct(">=")) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.expr_add(ctx)?;
            Ok(Expr::Bin(op, Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn expr_add(&mut self, ctx: &mut RuleCtx) -> Result<Expr> {
        let mut lhs = self.expr_mul(ctx)?;
        loop {
            let op = match self.peek() {
                Some(Tok::Punct("+")) => BinOp::Add,
                Some(Tok::Punct("-")) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.expr_mul(ctx)?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn expr_mul(&mut self, ctx: &mut RuleCtx) -> Result<Expr> {
        let mut lhs = self.expr_unary(ctx)?;
        loop {
            // `%` opens a comment in the lexer, so modulo is spelled `mod`.
            let op = match self.peek() {
                Some(Tok::Punct("*")) => BinOp::Mul,
                Some(Tok::Punct("/")) => BinOp::Div,
                Some(Tok::Ident(s)) if s == "mod" => BinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.expr_unary(ctx)?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn expr_unary(&mut self, ctx: &mut RuleCtx) -> Result<Expr> {
        if self.eat("!") {
            return Ok(Expr::Not(Box::new(self.expr_unary(ctx)?)));
        }
        if self.eat("-") {
            let inner = self.expr_unary(ctx)?;
            // Fold a negated numeric literal into a negative constant so
            // `-3` means `Const(-3)` in expressions exactly as it does in
            // atom argument position — without the fold, printing a
            // negative constant and reparsing it would yield `0 - 3`.
            return Ok(match inner {
                Expr::Const(Value::Int(i)) => Expr::Const(Value::Int(-i)),
                Expr::Const(Value::Float(f)) => Expr::Const(Value::Float(-f)),
                other => Expr::Bin(
                    BinOp::Sub,
                    Box::new(Expr::Const(Value::Int(0))),
                    Box::new(other),
                ),
            });
        }
        self.expr_primary(ctx)
    }

    fn expr_primary(&mut self, ctx: &mut RuleCtx) -> Result<Expr> {
        match self.next() {
            Some(Tok::Int(i)) => Ok(Expr::Const(Value::Int(i))),
            Some(Tok::Float(f)) => Ok(Expr::Const(Value::Float(f))),
            Some(Tok::Str(s)) => Ok(Expr::Const(Value::str(s))),
            Some(Tok::Punct("(")) => {
                let e = self.expr(ctx)?;
                self.expect(")")?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => {
                match name.as_str() {
                    "true" => return Ok(Expr::Const(Value::Bool(true))),
                    "false" => return Ok(Expr::Const(Value::Bool(false))),
                    _ => {}
                }
                if matches!(self.peek(), Some(Tok::Punct("("))) {
                    self.pos += 1;
                    let mut args = Vec::new();
                    if !self.eat(")") {
                        loop {
                            args.push(self.expr(ctx)?);
                            if self.eat(",") {
                                continue;
                            }
                            break;
                        }
                        self.expect(")")?;
                    }
                    if name == "skolem" {
                        let fname = match args.first() {
                            Some(Expr::Const(Value::Str(s))) => s.to_string(),
                            _ => {
                                return Err(self.error(
                                    "skolem's first argument must be a string literal",
                                ))
                            }
                        };
                        return Ok(Expr::Skolem(fname, args.into_iter().skip(1).collect()));
                    }
                    return Ok(Expr::Call(name, args));
                }
                Ok(Expr::Var(ctx.var(&name)))
            }
            other => Err(self.error(format!("expected expression, found {other:?}"))),
        }
    }
}

/// Parse a Vadalog program from text.
pub fn parse_program(src: &str) -> Result<Program> {
    Parser(Cursor::new("Vadalog", src)?).program()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_facts_and_simple_rule() {
        let p = parse_program(
            r#"
            % facts
            edge(1, 2). edge(2, 3).
            edge(X, Y) -> path(X, Y).
            path(X, Y), edge(Y, Z) -> path(X, Z).
            "#,
        )
        .unwrap();
        assert_eq!(p.facts.len(), 2);
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.rules[1].body.len(), 2);
    }

    #[test]
    fn shared_variables_unify_within_a_rule() {
        let p = parse_program("edge(X, Y), edge(Y, Z) -> two(X, Z).").unwrap();
        let r = &p.rules[0];
        // X Y Y Z: Y must be the same Var in both atoms.
        assert_eq!(r.body[0].terms[1], r.body[1].terms[0]);
    }

    #[test]
    fn parse_control_program_of_example_4_2() {
        let p = parse_program(
            r#"
            company(X) -> controls(X, X).
            controls(X, Z), own(Z, Y, W), V = msum(W, <Z>), V > 0.5
                -> controls(X, Y).
            @input(company, nodes, "kg", "Company", "").
            @input(own, edges, "kg", "OWNS", "percentage").
            @output(controls).
            "#,
        )
        .unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.inputs.len(), 2);
        assert_eq!(p.outputs.len(), 1);
        let r = &p.rules[1];
        let agg = r.aggregate().unwrap();
        assert_eq!(agg.func, AggregateFunc::MSum);
        assert_eq!(agg.contributors.len(), 1);
        assert_eq!(r.var_name(agg.contributors[0]), "Z");
        assert!(matches!(r.steps.last(), Some(RuleStep::Condition(_))));
    }

    #[test]
    fn existential_head_variable() {
        let p = parse_program("business(X) -> controls(C, X).").unwrap();
        let r = &p.rules[0];
        assert_eq!(r.existential_vars().len(), 1);
        assert_eq!(r.var_name(r.existential_vars()[0]), "C");
    }

    #[test]
    fn skolem_expression() {
        let p = parse_program(r#"a(X), N = skolem("skN", X) -> node(N, X)."#).unwrap();
        let r = &p.rules[0];
        match &r.steps[0] {
            RuleStep::Assign(_, Expr::Skolem(name, args)) => {
                assert_eq!(name, "skN");
                assert_eq!(args.len(), 1);
            }
            other => panic!("expected skolem assignment, got {other:?}"),
        }
        assert!(r.existential_vars().is_empty());
    }

    #[test]
    fn negation_and_conditions() {
        let p = parse_program(r#"a(X), not b(X), X > 3, Y = X * 2 + 1 -> c(Y)."#).unwrap();
        let r = &p.rules[0];
        assert_eq!(r.body.len(), 1);
        assert_eq!(r.steps.len(), 3);
        assert!(matches!(r.steps[0], RuleStep::Negated(_)));
        assert!(matches!(r.steps[1], RuleStep::Condition(_)));
        assert!(matches!(r.steps[2], RuleStep::Assign(..)));
    }

    #[test]
    fn anonymous_variables_are_fresh() {
        let p = parse_program("a(_, _) -> b(1).").unwrap();
        let r = &p.rules[0];
        let vs: Vec<Var> = r.body[0].vars().collect();
        assert_ne!(vs[0], vs[1]);
    }

    #[test]
    fn constants_in_atoms() {
        let p = parse_program(r#"a("x", 3, 2.5, true, -7) -> b(1)."#).unwrap();
        let t = &p.rules[0].body[0].terms;
        assert_eq!(t[0], Term::Const(Value::str("x")));
        assert_eq!(t[1], Term::Const(Value::Int(3)));
        assert_eq!(t[2], Term::Const(Value::Float(2.5)));
        assert_eq!(t[3], Term::Const(Value::Bool(true)));
        assert_eq!(t[4], Term::Const(Value::Int(-7)));
    }

    #[test]
    fn facts_with_variables_are_rejected() {
        assert!(parse_program("edge(X, 2).").is_err());
    }

    #[test]
    fn atoms_after_conditions_are_rejected() {
        assert!(parse_program("a(X), X > 1, b(X) -> c(X).").is_err());
    }

    #[test]
    fn table_input_annotation() {
        let p = parse_program(r#"@input(own, table, "db", "ownership")."#).unwrap();
        assert_eq!(
            p.inputs[0].source,
            InputSource::RelTable {
                catalog: "db".into(),
                table: "ownership".into()
            }
        );
    }

    #[test]
    fn count_without_argument() {
        let p = parse_program("a(X, Y), N = count(<Y>) -> cnt(X, N).").unwrap();
        let agg = p.rules[0].aggregate().unwrap().clone();
        assert_eq!(agg.func, AggregateFunc::Count);
        assert!(agg.arg.is_none());
        assert_eq!(agg.contributors.len(), 1);
    }

    #[test]
    fn unterminated_rule_is_an_error() {
        assert!(parse_program("a(X) -> b(X)").is_err());
        assert!(parse_program("a(X) -> ").is_err());
        assert!(parse_program(r#"@input(p, nodes, "g")."#).is_err());
    }

    #[test]
    fn metalog_only_punctuation_is_rejected_with_its_line() {
        for src in ["a(1).\n[", "a(1).\nb(X) -> c(X); d(X).", "a(1).\np(x: 1)."] {
            let err = parse_program(src).unwrap_err().to_string();
            assert!(err.contains("line 2"), "{src:?}: {err}");
        }
    }

    #[test]
    fn string_escapes() {
        let p = parse_program(r#"a("he said \"hi\"\n") -> b(1)."#).unwrap();
        assert_eq!(
            p.rules[0].body[0].terms[0],
            Term::Const(Value::str("he said \"hi\"\n"))
        );
    }
}
