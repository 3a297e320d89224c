//! GSL — the Graph Schema Language.
//!
//! The paper's GSL is a *visual* language (Section 3: graphemes produced by
//! the rendering function Γ_SM, Figure 3). This module provides the textual
//! equivalent — every grapheme has a syntactic counterpart — plus the parser
//! producing validated [`SuperSchema`]s. The [`crate::render`] module emits
//! the visual form (DOT) from the same super-schema, closing the loop.
//!
//! ```text
//! schema Company {
//!   node Person {
//!     id fiscalCode: string unique;   % identifying + SM_UniqueAttributeModifier
//!     name: string;
//!     opt birthDate: date;            % optional attribute (hollow lollipop)
//!   }
//!   intensional node Family { }      % dashed grapheme
//!   generalization total disjoint Person -> PhysicalPerson, LegalPerson;
//!   edge HOLDS: Person [1..N] -> [0..N] Share { percentage: float; }
//!   intensional edge OWNS: Person -> Business;
//! }
//! ```

use crate::supermodel::{
    Cardinality, Modifier, SmAttribute, SmEdge, SmGeneralization, SmNode, SuperSchema,
};
use kgm_common::{KgmError, Result, ValueType};

struct Lexer {
    pos: usize,
    line: u32,
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Punct(char),
    Arrow,
    Range, // ..
}

impl Lexer {
    fn tokens(src: &str) -> Result<Vec<(Tok, u32)>> {
        let mut lx = Lexer { pos: 0, line: 1 };
        let mut out = Vec::new();
        let bytes = src.as_bytes();
        while let Some(c) = src[lx.pos..].chars().next() {
            match c {
                '\n' => {
                    lx.line += 1;
                    lx.pos += 1;
                }
                c if c.is_whitespace() => lx.pos += c.len_utf8(),
                '%' | '#' => {
                    while lx.pos < bytes.len() && bytes[lx.pos] != b'\n' {
                        lx.pos += 1;
                    }
                }
                '"' => {
                    lx.pos += 1;
                    let start = lx.pos;
                    while lx.pos < bytes.len() && bytes[lx.pos] != b'"' {
                        if bytes[lx.pos] == b'\n' {
                            return Err(KgmError::parse(
                                "GSL",
                                format!("line {}: unterminated string", lx.line),
                            ));
                        }
                        lx.pos += 1;
                    }
                    if lx.pos >= bytes.len() {
                        return Err(KgmError::parse(
                            "GSL",
                            format!("line {}: unterminated string", lx.line),
                        ));
                    }
                    out.push((Tok::Str(src[start..lx.pos].to_string()), lx.line));
                    lx.pos += 1;
                }
                c if c.is_alphanumeric() || c == '_' => {
                    let rest = &src[lx.pos..];
                    let len = rest
                        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                        .unwrap_or(rest.len());
                    out.push((Tok::Ident(rest[..len].to_string()), lx.line));
                    lx.pos += len;
                }
                '-' if bytes.get(lx.pos + 1) == Some(&b'>') => {
                    out.push((Tok::Arrow, lx.line));
                    lx.pos += 2;
                }
                '.' if bytes.get(lx.pos + 1) == Some(&b'.') => {
                    out.push((Tok::Range, lx.line));
                    lx.pos += 2;
                }
                '{' | '}' | '(' | ')' | '[' | ']' | ':' | ';' | ',' => {
                    out.push((Tok::Punct(c), lx.line));
                    lx.pos += 1;
                }
                _ => {
                    return Err(KgmError::parse(
                        "GSL",
                        format!("line {}: unexpected `{c}`", lx.line),
                    ))
                }
            }
        }
        Ok(out)
    }
}

struct Parser {
    toks: Vec<(Tok, u32)>,
    pos: usize,
}

impl Parser {
    fn error(&self, msg: impl Into<String>) -> KgmError {
        let line = self
            .toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|(_, l)| *l)
            .unwrap_or(0);
        KgmError::parse("GSL", format!("line {line}: {}", msg.into()))
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.peek().cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.peek() == Some(&Tok::Punct(c)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, c: char) -> Result<()> {
        if self.eat_punct(c) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{c}`, found {:?}", self.peek())))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{kw}`, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.error(format!("expected identifier, found {other:?}"))),
        }
    }

    fn schema(&mut self) -> Result<SuperSchema> {
        self.expect_kw("schema")?;
        let name = self.ident()?;
        self.expect_punct('{')?;
        let mut schema = SuperSchema::new(name);
        loop {
            if self.eat_punct('}') {
                break;
            }
            let intensional = self.eat_kw("intensional");
            if self.eat_kw("node") {
                let node = self.node(intensional)?;
                schema.add_node(node);
            } else if self.eat_kw("edge") {
                let edge = self.edge(intensional)?;
                schema.add_edge(edge);
            } else if !intensional && self.eat_kw("generalization") {
                let g = self.generalization()?;
                schema.add_generalization(g);
            } else {
                return Err(self.error(format!(
                    "expected `node`, `edge` or `generalization`, found {:?}",
                    self.peek()
                )));
            }
        }
        if self.peek().is_some() {
            return Err(self.error("trailing input after schema"));
        }
        schema.validate()?;
        Ok(schema)
    }

    fn node(&mut self, is_intensional: bool) -> Result<SmNode> {
        let name = self.ident()?;
        let mut attributes = Vec::new();
        if self.eat_punct('{') {
            loop {
                if self.eat_punct('}') {
                    break;
                }
                attributes.push(self.attribute()?);
                // `;` separators are optional before `}`.
                while self.eat_punct(';') {}
            }
        } else {
            // Nodes without a body still need a terminator.
            self.expect_punct(';')?;
        }
        Ok(SmNode {
            name,
            is_intensional,
            attributes,
        })
    }

    fn attribute(&mut self) -> Result<SmAttribute> {
        let mut is_id = false;
        let mut is_opt = false;
        let mut is_intensional = false;
        loop {
            if self.eat_kw("id") {
                is_id = true;
            } else if self.eat_kw("opt") {
                is_opt = true;
            } else if self.eat_kw("intensional") {
                is_intensional = true;
            } else {
                break;
            }
        }
        let name = self.ident()?;
        self.expect_punct(':')?;
        let ty_name = self.ident()?;
        let ty = ValueType::parse(&ty_name)
            .ok_or_else(|| self.error(format!("unknown type `{ty_name}`")))?;
        let mut modifiers = Vec::new();
        loop {
            if self.eat_kw("unique") {
                modifiers.push(Modifier::Unique);
            } else if self.eat_kw("enum") {
                self.expect_punct('(')?;
                let mut values = Vec::new();
                loop {
                    match self.next() {
                        Some(Tok::Str(s)) => values.push(s),
                        other => {
                            return Err(
                                self.error(format!("expected string in enum, found {other:?}"))
                            )
                        }
                    }
                    if self.eat_punct(',') {
                        continue;
                    }
                    break;
                }
                self.expect_punct(')')?;
                modifiers.push(Modifier::Enum(values));
            } else {
                break;
            }
        }
        Ok(SmAttribute {
            name,
            ty,
            is_opt,
            is_id,
            is_intensional,
            modifiers,
        })
    }

    fn cardinality(&mut self) -> Result<Cardinality> {
        // "[" ("0"|"1") ".." ("1"|"N") "]"
        self.expect_punct('[')?;
        let min = self.ident()?;
        if self.peek() != Some(&Tok::Range) {
            return Err(self.error("expected `..` in cardinality"));
        }
        self.pos += 1;
        let max = self.ident()?;
        self.expect_punct(']')?;
        let is_opt = match min.as_str() {
            "0" => true,
            "1" => false,
            other => return Err(self.error(format!("cardinality min must be 0 or 1, got {other}"))),
        };
        let is_fun = match max.as_str() {
            "1" => true,
            "N" | "n" => false,
            other => return Err(self.error(format!("cardinality max must be 1 or N, got {other}"))),
        };
        Ok(Cardinality { is_opt, is_fun })
    }

    fn edge(&mut self, is_intensional: bool) -> Result<SmEdge> {
        let name = self.ident()?;
        self.expect_punct(':')?;
        let from = self.ident()?;
        let from_card = if self.peek() == Some(&Tok::Punct('[')) {
            self.cardinality()?
        } else {
            Cardinality::many()
        };
        if self.next() != Some(Tok::Arrow) {
            return Err(self.error("expected `->` in edge declaration"));
        }
        let to_card = if self.peek() == Some(&Tok::Punct('[')) {
            self.cardinality()?
        } else {
            Cardinality::many()
        };
        let to = self.ident()?;
        let mut attributes = Vec::new();
        if self.eat_punct('{') {
            loop {
                if self.eat_punct('}') {
                    break;
                }
                attributes.push(self.attribute()?);
                while self.eat_punct(';') {}
            }
        } else {
            self.expect_punct(';')?;
        }
        Ok(SmEdge {
            name,
            from,
            to,
            is_intensional,
            from_card,
            to_card,
            attributes,
        })
    }

    fn generalization(&mut self) -> Result<SmGeneralization> {
        let mut is_total = false;
        let mut is_disjoint = false;
        loop {
            if self.eat_kw("total") {
                is_total = true;
            } else if self.eat_kw("disjoint") {
                is_disjoint = true;
            } else {
                break;
            }
        }
        let parent = self.ident()?;
        if self.next() != Some(Tok::Arrow) {
            return Err(self.error("expected `->` in generalization"));
        }
        let mut children = Vec::new();
        loop {
            children.push(self.ident()?);
            if self.eat_punct(',') {
                continue;
            }
            break;
        }
        self.expect_punct(';')?;
        Ok(SmGeneralization {
            parent,
            children,
            is_total,
            is_disjoint,
        })
    }
}

/// Parse and validate a GSL schema.
pub fn parse_gsl(src: &str) -> Result<SuperSchema> {
    let toks = Lexer::tokens(src)?;
    let mut p = Parser { toks, pos: 0 };
    p.schema()
}

/// Emit a super-schema back as GSL source. `parse_gsl(&to_gsl(s)) == s`
/// for every valid schema (property-tested).
pub fn to_gsl(schema: &SuperSchema) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "schema {} {{", schema.name).ok();
    let attr = |a: &SmAttribute| {
        let mut line = String::from("    ");
        if a.is_id {
            line.push_str("id ");
        }
        if a.is_opt {
            line.push_str("opt ");
        }
        if a.is_intensional {
            line.push_str("intensional ");
        }
        line.push_str(&format!("{}: {}", a.name, a.ty));
        for m in &a.modifiers {
            match m {
                Modifier::Unique => line.push_str(" unique"),
                Modifier::Enum(values) => {
                    let vs: Vec<String> = values.iter().map(|v| format!("\"{v}\"")).collect();
                    line.push_str(&format!(" enum({})", vs.join(", ")));
                }
            }
        }
        line.push(';');
        line
    };
    for n in &schema.nodes {
        let prefix = if n.is_intensional { "intensional " } else { "" };
        if n.attributes.is_empty() {
            writeln!(out, "  {prefix}node {};", n.name).ok();
        } else {
            writeln!(out, "  {prefix}node {} {{", n.name).ok();
            for a in &n.attributes {
                writeln!(out, "{}", attr(a)).ok();
            }
            writeln!(out, "  }}").ok();
        }
        // Emit this node's generalization right after it, preserving order.
        for g in schema.generalizations.iter().filter(|g| g.parent == n.name) {
            let total = if g.is_total { "total " } else { "" };
            let disjoint = if g.is_disjoint { "disjoint " } else { "" };
            writeln!(
                out,
                "  generalization {total}{disjoint}{} -> {};",
                g.parent,
                g.children.join(", ")
            )
            .ok();
        }
    }
    for e in &schema.edges {
        let prefix = if e.is_intensional { "intensional " } else { "" };
        let head = format!(
            "  {prefix}edge {}: {} [{}] -> [{}] {}",
            e.name,
            e.from,
            e.from_card.display(),
            e.to_card.display(),
            e.to
        );
        if e.attributes.is_empty() {
            writeln!(out, "{head};").ok();
        } else {
            writeln!(out, "{head} {{").ok();
            for a in &e.attributes {
                writeln!(out, "{}", attr(a)).ok();
            }
            writeln!(out, "  }}").ok();
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
        schema Sample {
          node Person {
            id fiscalCode: string unique;
            name: string;
            opt birthDate: date;
          }
          node PhysicalPerson {
            gender: string enum("male", "female");
          }
          node LegalPerson {
            businessName: string;
            opt website: string;
          }
          generalization total disjoint Person -> PhysicalPerson, LegalPerson;
          node Share { id shareId: string; percentage: float; }
          edge HOLDS: Person [1..N] -> [0..N] Share { right: string; }
          intensional edge OWNS: Person -> LegalPerson;
          intensional node Family;
          intensional edge BELONGS_TO_FAMILY: PhysicalPerson -> Family;
        }
        "#;

    #[test]
    fn parse_full_sample() {
        let s = parse_gsl(SAMPLE).unwrap();
        assert_eq!(s.name, "Sample");
        assert_eq!(s.nodes.len(), 5);
        assert_eq!(s.edges.len(), 3);
        assert_eq!(s.generalizations.len(), 1);
        let person = s.node("Person").unwrap();
        assert!(person.attributes[0].is_id);
        assert_eq!(person.attributes[0].modifiers, vec![Modifier::Unique]);
        assert!(person.attributes[2].is_opt);
        let pp = s.node("PhysicalPerson").unwrap();
        assert!(matches!(&pp.attributes[0].modifiers[0], Modifier::Enum(v) if v.len() == 2));
        let holds = s.edge("HOLDS").unwrap();
        assert_eq!(holds.from_card.display(), "1..N");
        assert_eq!(holds.to_card.display(), "0..N");
        assert!(s.edge("OWNS").unwrap().is_intensional);
        assert!(s.node("Family").unwrap().is_intensional);
    }

    #[test]
    fn default_cardinality_is_many() {
        let s = parse_gsl("schema T { node A { id k: int; } edge R: A -> A; }").unwrap();
        assert_eq!(s.edge("R").unwrap().from_card, Cardinality::many());
    }

    #[test]
    fn validation_failures_propagate() {
        // Missing identifier on extensional node.
        assert!(parse_gsl("schema T { node A { x: int; } }").is_err());
        // Unknown edge endpoint.
        assert!(parse_gsl("schema T { node A { id k: int; } edge R: A -> B; }").is_err());
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let err = parse_gsl("schema T {\n  node A {\n    id k int;\n  }\n}").unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn comments_are_ignored() {
        let s = parse_gsl("% header\nschema T { # inline\n node A { id k: int; } % trailing\n }")
            .unwrap();
        assert_eq!(s.nodes.len(), 1);
    }

    #[test]
    fn unicode_names_parse_and_other_characters_are_errors() {
        let s = parse_gsl("schema S { node Società { id nome: string; } }").unwrap();
        assert_eq!(s.node("Società").unwrap().attributes[0].name, "nome");
        let s = parse_gsl("schema S { node Company { id città: string; } }").unwrap();
        assert_eq!(s.node("Company").unwrap().attributes[0].name, "città");
        let err = parse_gsl("schema S {\n  node A { id k: int; } « }").unwrap_err();
        assert!(err.to_string().contains("line 2: unexpected `«`"), "{err}");
    }

    #[test]
    fn trailing_input_is_rejected() {
        assert!(parse_gsl("schema T { node A { id k: int; } } extra").is_err());
    }

    #[test]
    fn to_gsl_round_trips_the_sample() {
        let s1 = parse_gsl(SAMPLE).unwrap();
        let text = to_gsl(&s1);
        let s2 = parse_gsl(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        // Generalization emission reorders them next to their parents;
        // compare by content, not declaration order.
        assert_eq!(s1.nodes, s2.nodes);
        assert_eq!(s1.edges, s2.edges);
        let mut g1 = s1.generalizations.clone();
        let mut g2 = s2.generalizations.clone();
        g1.sort_by(|a, b| a.parent.cmp(&b.parent));
        g2.sort_by(|a, b| a.parent.cmp(&b.parent));
        assert_eq!(g1, g2);
    }

    #[test]
    fn one_to_one_cardinality() {
        let s = parse_gsl(
            "schema T { node A { id k: int; } node B { id j: int; } \
             edge R: A [1..1] -> [0..1] B; }",
        )
        .unwrap();
        let r = s.edge("R").unwrap();
        assert_eq!(r.from_card, Cardinality::one());
        assert_eq!(r.to_card, Cardinality::opt_one());
    }
}
