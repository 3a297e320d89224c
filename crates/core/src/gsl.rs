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
use kgm_common::lexer::{quote, Cursor, Tok};
use kgm_common::{Result, ValueType};

/// Parse and validate a GSL schema. Its tokens are those of
/// [`kgm_common::lexer`].
pub fn parse_gsl(src: &str) -> Result<SuperSchema> {
    let mut c = Cursor::new("GSL", src)?;
    c.expect_word("schema")?;
    let mut schema = SuperSchema::new(c.ident()?);
    c.expect("{")?;
    while !c.eat("}") {
        let intensional = c.eat_word("intensional");
        if c.eat_word("node") {
            let name = c.ident()?;
            let attributes = attributes(&mut c)?;
            schema.add_node(SmNode {
                name,
                is_intensional: intensional,
                attributes,
            });
        } else if c.eat_word("edge") {
            schema.add_edge(edge(&mut c, intensional)?);
        } else if !intensional && c.eat_word("generalization") {
            schema.add_generalization(generalization(&mut c)?);
        } else {
            return Err(c.error(format!(
                "expected `node`, `edge` or `generalization`, found {:?}",
                c.peek()
            )));
        }
    }
    c.end()?;
    schema.validate()?;
    Ok(schema)
}

/// A node's or an edge's attributes: `{ attribute; … }` (`;` separators
/// are optional before `}`), or `;` for none.
fn attributes(c: &mut Cursor) -> Result<Vec<SmAttribute>> {
    let mut attributes = Vec::new();
    if !c.eat("{") {
        c.expect(";")?;
        return Ok(attributes);
    }
    while !c.eat("}") {
        attributes.push(attribute(c)?);
        while c.eat(";") {}
    }
    Ok(attributes)
}

fn attribute(c: &mut Cursor) -> Result<SmAttribute> {
    let (mut is_id, mut is_opt, mut is_intensional) = (false, false, false);
    loop {
        if c.eat_word("id") {
            is_id = true;
        } else if c.eat_word("opt") {
            is_opt = true;
        } else if c.eat_word("intensional") {
            is_intensional = true;
        } else {
            break;
        }
    }
    let name = c.ident()?;
    c.expect(":")?;
    let ty_name = c.ident()?;
    let ty =
        ValueType::parse(&ty_name).ok_or_else(|| c.error(format!("unknown type `{ty_name}`")))?;
    let mut modifiers = Vec::new();
    loop {
        if c.eat_word("unique") {
            modifiers.push(Modifier::Unique);
        } else if c.eat_word("enum") {
            c.expect("(")?;
            let mut values = vec![c.string()?];
            while c.eat(",") {
                values.push(c.string()?);
            }
            c.expect(")")?;
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

/// An optional `[min..max]`, where min is 0 or 1 and max is 1 or N; absent
/// means `[0..N]`.
fn cardinality(c: &mut Cursor) -> Result<Cardinality> {
    if !c.eat("[") {
        return Ok(Cardinality::many());
    }
    let is_opt = match c.next() {
        Some(Tok::Int(0)) => true,
        Some(Tok::Int(1)) => false,
        other => return Err(c.error(format!("cardinality min must be 0 or 1, got {other:?}"))),
    };
    c.expect("..")?;
    let is_fun = match c.next() {
        Some(Tok::Int(1)) => true,
        Some(Tok::Ident(n)) if n == "N" || n == "n" => false,
        other => return Err(c.error(format!("cardinality max must be 1 or N, got {other:?}"))),
    };
    c.expect("]")?;
    Ok(Cardinality { is_opt, is_fun })
}

fn edge(c: &mut Cursor, is_intensional: bool) -> Result<SmEdge> {
    let name = c.ident()?;
    c.expect(":")?;
    let from = c.ident()?;
    let from_card = cardinality(c)?;
    c.expect("->")?;
    let to_card = cardinality(c)?;
    let to = c.ident()?;
    Ok(SmEdge {
        name,
        from,
        to,
        is_intensional,
        from_card,
        to_card,
        attributes: attributes(c)?,
    })
}

fn generalization(c: &mut Cursor) -> Result<SmGeneralization> {
    let (mut is_total, mut is_disjoint) = (false, false);
    loop {
        if c.eat_word("total") {
            is_total = true;
        } else if c.eat_word("disjoint") {
            is_disjoint = true;
        } else {
            break;
        }
    }
    let parent = c.ident()?;
    c.expect("->")?;
    let mut children = vec![c.ident()?];
    while c.eat(",") {
        children.push(c.ident()?);
    }
    c.expect(";")?;
    Ok(SmGeneralization {
        parent,
        children,
        is_total,
        is_disjoint,
    })
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
                    let vs: Vec<String> = values.iter().map(|v| quote(v)).collect();
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
