//! The MetaLog parser.
//!
//! ASCII transcription of the paper's notation:
//!
//! ```text
//! % Example 4.1 — company control
//! (x: Business) -> (x)[c: CONTROLS](x).
//! (x: Business)[: CONTROLS](z: Business)[: OWNS; percentage: w](y: Business),
//!     v = sum(w, <z>), v > 0.5 -> (x)[c: CONTROLS](y).
//!
//! % Example 4.3 — descendants via a regular path pattern
//! (x: SM_Node) ([: SM_CHILD]- . [: SM_PARENT])* (y: SM_Node)
//!     -> (x)[w: DESCFROM](y).
//! ```
//!
//! `-` is the postfix inverse, `.` concatenation, `|` alternation, `*` the
//! Kleene star. Scalar body elements (conditions, assignments, aggregates)
//! are kept as verbatim text and re-emitted into the generated Vadalog; the
//! tokens are those of [`kgm_vadalog::lexer`], so that text lexes the same
//! in both languages.

use crate::ast::{
    EdgeAtom, MetaBodyElem, MetaProgram, MetaRule, NodeAtom, PathPattern, PathRegex, TermLike,
};
use kgm_common::{Result, Value};
use kgm_vadalog::lexer::{Cursor, Tok};
use std::ops::{Deref, DerefMut};

/// The grammar, over the token helpers of [`Cursor`]; `src` is kept for
/// the verbatim text of scalar elements.
struct Parser<'a> {
    src: &'a str,
    cur: Cursor,
}

impl Deref for Parser<'_> {
    type Target = Cursor;
    fn deref(&self) -> &Cursor {
        &self.cur
    }
}

impl DerefMut for Parser<'_> {
    fn deref_mut(&mut self) -> &mut Cursor {
        &mut self.cur
    }
}

impl Parser<'_> {
    fn program(&mut self) -> Result<MetaProgram> {
        let mut rules = Vec::new();
        while self.peek().is_some() {
            rules.push(self.rule()?);
        }
        Ok(MetaProgram { rules })
    }

    fn rule(&mut self) -> Result<MetaRule> {
        let mut body = Vec::new();
        loop {
            body.push(self.body_elem()?);
            if self.eat(",") {
                continue;
            }
            break;
        }
        self.expect("->")?;
        let mut head = Vec::new();
        loop {
            let p = self.path_pattern()?;
            for (regex, _) in &p.segments {
                if !regex.is_simple() {
                    return Err(self.error(
                        "head path patterns must use simple (possibly inverted) edge atoms",
                    ));
                }
            }
            head.push(p);
            if self.eat(",") {
                continue;
            }
            break;
        }
        self.expect(".")?;
        Ok(MetaRule { body, head })
    }

    #[allow(clippy::collapsible_match)]
    fn body_elem(&mut self) -> Result<MetaBodyElem> {
        if matches!(self.peek(), Some(Tok::Ident(s)) if s == "not")
            && matches!(self.peek_at(1), Some(Tok::Punct("(")))
        {
            self.pos += 1;
            let n = self.node_atom()?;
            return Ok(MetaBodyElem::NegatedNode(n));
        }
        if matches!(self.peek(), Some(Tok::Punct("("))) {
            return Ok(MetaBodyElem::Path(self.path_pattern()?));
        }
        // Scalar element: verbatim tokens until a top-level `,` or `->`.
        let start_tok = self.pos;
        let mut depth = 0i32;
        let mut angle = 0i32;
        while let Some(t) = self.peek() {
            match t {
                Tok::Punct("(") | Tok::Punct("[") => depth += 1,
                Tok::Punct(")") | Tok::Punct("]") => depth -= 1,
                Tok::Punct("<") => {
                    // `<` opens a contributor list only right after `(` or `,`.
                    if self.pos > start_tok {
                        if let Some(prev) = self.toks.get(self.pos - 1) {
                            if matches!(prev.tok, Tok::Punct("(") | Tok::Punct(",")) {
                                angle += 1;
                            }
                        }
                    }
                }
                Tok::Punct(">") => {
                    if angle > 0 {
                        angle -= 1;
                    }
                }
                Tok::Punct(",") if depth == 0 && angle == 0 => break,
                Tok::Punct("->") if depth == 0 => break,
                Tok::Punct(".") if depth == 0 => break,
                _ => {}
            }
            self.pos += 1;
        }
        if self.pos == start_tok {
            return Err(self.error("empty body element"));
        }
        let from = self.toks[start_tok].start;
        let to = self.toks[self.pos - 1].end;
        Ok(MetaBodyElem::Scalar(self.src[from..to].trim().to_string()))
    }

    fn path_pattern(&mut self) -> Result<PathPattern> {
        let src = self.node_atom()?;
        let mut segments = Vec::new();
        loop {
            match self.peek() {
                Some(Tok::Punct("[")) => {
                    let regex = self.regex_concat()?;
                    let node = self.node_atom()?;
                    segments.push((regex, node));
                }
                Some(Tok::Punct("(")) if self.lookahead_is_group() => {
                    let regex = self.regex_concat()?;
                    let node = self.node_atom()?;
                    segments.push((regex, node));
                }
                _ => break,
            }
        }
        Ok(PathPattern { src, segments })
    }

    /// After consecutive `(`, a `[` means a regex group; anything else means
    /// a node atom.
    fn lookahead_is_group(&self) -> bool {
        let mut off = 0;
        while matches!(self.peek_at(off), Some(Tok::Punct("("))) {
            off += 1;
        }
        matches!(self.peek_at(off), Some(Tok::Punct("[")))
    }

    // regex := alt; alt := concat ("|" concat)*; handled bottom-up so that
    // `a . b | c` parses as `(a.b) | c`.
    fn regex_concat(&mut self) -> Result<PathRegex> {
        let mut alts = vec![self.regex_seq()?];
        while self.eat("|") {
            alts.push(self.regex_seq()?);
        }
        if alts.len() == 1 {
            Ok(alts.pop().expect("one"))
        } else {
            Ok(PathRegex::Alt(alts))
        }
    }

    fn regex_seq(&mut self) -> Result<PathRegex> {
        let mut items = vec![self.regex_postfix()?];
        loop {
            if self.eat(".") {
                items.push(self.regex_postfix()?);
                continue;
            }
            // Juxtaposition continues the sequence only for `[`; a `(` here
            // belongs to the following node atom unless it is a group.
            if matches!(self.peek(), Some(Tok::Punct("["))) {
                items.push(self.regex_postfix()?);
                continue;
            }
            if matches!(self.peek(), Some(Tok::Punct("("))) && self.lookahead_is_group() {
                items.push(self.regex_postfix()?);
                continue;
            }
            break;
        }
        if items.len() == 1 {
            Ok(items.pop().expect("one"))
        } else {
            Ok(PathRegex::Concat(items))
        }
    }

    fn regex_postfix(&mut self) -> Result<PathRegex> {
        let mut r = self.regex_primary()?;
        loop {
            if self.eat("-") {
                r = PathRegex::Inverse(Box::new(r));
            } else if self.eat("*") {
                r = PathRegex::Star(Box::new(r));
            } else {
                break;
            }
        }
        Ok(r)
    }

    fn regex_primary(&mut self) -> Result<PathRegex> {
        if self.eat("(") {
            let r = self.regex_concat()?;
            self.expect(")")?;
            return Ok(r);
        }
        Ok(PathRegex::Edge(self.edge_atom()?))
    }

    fn node_atom(&mut self) -> Result<NodeAtom> {
        self.expect("(")?;
        let a = self.atom_interior(")")?;
        Ok(NodeAtom {
            var: a.0,
            label: a.1,
            props: a.2,
        })
    }

    fn edge_atom(&mut self) -> Result<EdgeAtom> {
        self.expect("[")?;
        let a = self.atom_interior("]")?;
        Ok(EdgeAtom {
            var: a.0,
            label: a.1,
            props: a.2,
        })
    }

    #[allow(clippy::type_complexity)]
    fn atom_interior(
        &mut self,
        close: &str,
    ) -> Result<(Option<String>, Option<String>, Vec<(String, TermLike)>)> {
        // [var] [":" label] [";" props]
        let mut var = None;
        let mut label = None;
        let mut props = Vec::new();
        if let Some(Tok::Ident(_)) = self.peek() {
            var = Some(self.ident()?);
        }
        if self.eat(":") {
            label = Some(self.ident()?);
        }
        if self.eat(";") {
            loop {
                let name = self.ident()?;
                self.expect(":")?;
                let term = self.term()?;
                props.push((name, term));
                if self.eat(",") {
                    continue;
                }
                break;
            }
        }
        self.expect(close)?;
        Ok((var, label, props))
    }

    fn term(&mut self) -> Result<TermLike> {
        match self.next() {
            Some(Tok::Ident(s)) => match s.as_str() {
                "true" => Ok(TermLike::Const(Value::Bool(true))),
                "false" => Ok(TermLike::Const(Value::Bool(false))),
                _ => Ok(TermLike::Var(s)),
            },
            Some(Tok::Int(i)) => Ok(TermLike::Const(Value::Int(i))),
            Some(Tok::Float(f)) => Ok(TermLike::Const(Value::Float(f))),
            Some(Tok::Str(s)) => Ok(TermLike::Const(Value::str(s))),
            Some(Tok::Punct("-")) => match self.next() {
                Some(Tok::Int(i)) => Ok(TermLike::Const(Value::Int(-i))),
                Some(Tok::Float(f)) => Ok(TermLike::Const(Value::Float(-f))),
                other => Err(self.error(format!("expected number, found {other:?}"))),
            },
            other => Err(self.error(format!("expected term, found {other:?}"))),
        }
    }
}

/// Parse a MetaLog program from text.
pub fn parse_metalog(src: &str) -> Result<MetaProgram> {
    let cur = Cursor::new("MetaLog", src)?;
    Parser { src, cur }.program()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_control_rule_example_4_1() {
        let p = parse_metalog(
            r#"
            (x: Business) -> (x)[c: CONTROLS](x).
            (x: Business)[: CONTROLS](z: Business)[: OWNS; percentage: w](y: Business),
                v = sum(w, <z>), v > 0.5 -> (x)[c: CONTROLS](y).
            "#,
        )
        .unwrap();
        assert_eq!(p.rules.len(), 2);
        let r = &p.rules[1];
        assert_eq!(r.body.len(), 3);
        match &r.body[0] {
            MetaBodyElem::Path(path) => {
                assert_eq!(path.src.label.as_deref(), Some("Business"));
                assert_eq!(path.segments.len(), 2);
                let (regex, mid) = &path.segments[0];
                assert!(regex.is_simple());
                assert_eq!(mid.label.as_deref(), Some("Business"));
                let (owns, _) = &path.segments[1];
                match owns {
                    PathRegex::Edge(e) => {
                        assert_eq!(e.label.as_deref(), Some("OWNS"));
                        assert_eq!(e.props.len(), 1);
                        assert_eq!(e.props[0].0, "percentage");
                    }
                    other => panic!("expected edge, got {other:?}"),
                }
            }
            other => panic!("expected path, got {other:?}"),
        }
        assert_eq!(
            r.body[1],
            MetaBodyElem::Scalar("v = sum(w, <z>)".to_string())
        );
        assert_eq!(r.body[2], MetaBodyElem::Scalar("v > 0.5".to_string()));
        assert_eq!(r.head.len(), 1);
    }

    #[test]
    fn parse_descfrom_example_4_3() {
        let p = parse_metalog(
            "(x: SM_Node) ([: SM_CHILD]- . [: SM_PARENT])* (y: SM_Node)
                -> (x)[w: DESCFROM](y).",
        )
        .unwrap();
        let r = &p.rules[0];
        match &r.body[0] {
            MetaBodyElem::Path(path) => {
                let (regex, _) = &path.segments[0];
                match regex {
                    PathRegex::Star(inner) => match inner.as_ref() {
                        PathRegex::Concat(items) => {
                            assert_eq!(items.len(), 2);
                            assert!(matches!(items[0], PathRegex::Inverse(_)));
                            assert!(matches!(items[1], PathRegex::Edge(_)));
                        }
                        other => panic!("expected concat, got {other:?}"),
                    },
                    other => panic!("expected star, got {other:?}"),
                }
            }
            other => panic!("expected path, got {other:?}"),
        }
    }

    #[test]
    fn parse_alternation() {
        let p = parse_metalog("(x: A) ([: R] | [: S]- . [: T]) (y: B) -> (x)[e: OUT](y).").unwrap();
        match &p.rules[0].body[0] {
            MetaBodyElem::Path(path) => match &path.segments[0].0 {
                PathRegex::Alt(alts) => {
                    assert_eq!(alts.len(), 2);
                    assert!(matches!(alts[0], PathRegex::Edge(_)));
                    assert!(matches!(alts[1], PathRegex::Concat(_)));
                }
                other => panic!("expected alt, got {other:?}"),
            },
            other => panic!("expected path, got {other:?}"),
        }
    }

    #[test]
    fn head_with_inverse_edge_as_in_example_5_2() {
        let p =
            parse_metalog("(c: SM_Node) -> (x)[u: SM_FROM]-(f: SM_Edge)[t: SM_TO](z).").unwrap();
        let head = &p.rules[0].head[0];
        assert_eq!(head.segments.len(), 2);
        assert!(matches!(head.segments[0].0, PathRegex::Inverse(_)));
    }

    #[test]
    fn head_with_star_is_rejected() {
        assert!(parse_metalog("(x: A) -> (x)([: R])*(y).").is_err());
    }

    #[test]
    fn node_atom_with_props_and_anonymous_parts() {
        let p = parse_metalog(
            r#"(x: PhysicalPerson; name: n, gender: "male"), (: Place) -> (x)[r: RESIDES](y: Place)."#,
        )
        .unwrap();
        let r = &p.rules[0];
        match &r.body[0] {
            MetaBodyElem::Path(path) => {
                assert_eq!(path.src.props.len(), 2);
                assert_eq!(path.src.props[1].1, TermLike::Const(Value::str("male")));
            }
            other => panic!("{other:?}"),
        }
        match &r.body[1] {
            MetaBodyElem::Path(path) => {
                assert!(path.src.var.is_none());
                assert_eq!(path.src.label.as_deref(), Some("Place"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn negated_node_atom() {
        let p = parse_metalog("(x: A), not (x: Excluded) -> (x)[e: OK](x).").unwrap();
        assert!(matches!(p.rules[0].body[1], MetaBodyElem::NegatedNode(_)));
    }

    #[test]
    fn scalar_with_skolem_assignment() {
        let p = parse_metalog(
            r#"(n: SM_Node; schemaOID: s), s == 123, x = skolem("skN", n)
               -> (x: SM_Node; schemaOID: 124)."#,
        )
        .unwrap();
        let r = &p.rules[0];
        assert_eq!(r.body[1], MetaBodyElem::Scalar("s == 123".to_string()));
        assert_eq!(
            r.body[2],
            MetaBodyElem::Scalar(r#"x = skolem("skN", n)"#.to_string())
        );
    }

    #[test]
    fn labels_are_collected() {
        let p =
            parse_metalog("(x: Business)[: OWNS](y: Business) -> (x)[c: CONTROLS](y).").unwrap();
        assert_eq!(p.node_labels(), vec!["Business"]);
        assert_eq!(p.edge_labels(), vec!["OWNS"]);
    }

    #[test]
    fn comparison_inside_scalar_does_not_open_angle() {
        let p = parse_metalog("(x: A; v: w), w < 3, w > 1 -> (x)[e: OK](x).").unwrap();
        assert_eq!(
            p.rules[0].body[1],
            MetaBodyElem::Scalar("w < 3".to_string())
        );
        assert_eq!(
            p.rules[0].body[2],
            MetaBodyElem::Scalar("w > 1".to_string())
        );
    }

    #[test]
    fn vadalog_only_punctuation_is_rejected_with_its_line() {
        for src in [
            "(x: A)\n@ -> (x)[e: E](x).",
            "(x: A) -> (x)[e: E](x).\n@output(p).",
        ] {
            let err = parse_metalog(src).unwrap_err().to_string();
            assert!(err.contains("line 2"), "{src:?}: {err}");
        }
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(parse_metalog("(x: A) -> ").is_err());
        assert!(parse_metalog("(x A) -> (x)[e: E](x).").is_err());
        assert!(parse_metalog("(x: A) (y: B) -> (x)[e: E](y).").is_err());
    }
}
