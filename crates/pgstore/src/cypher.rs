//! A minimal Cypher fragment: the language of `@input` annotations.
//!
//! MTV (Section 4) emits bindings like
//!
//! ```text
//! @input(SM_PARENT, "(n:SM_Node)-[p:SM_PARENT]->(g:SM_Generalization) return (p,g,n)").
//! ```
//!
//! for graph targets. This module parses and executes exactly that fragment —
//! a single node pattern or a single triple pattern with an optional inverse
//! arrow, followed by a `return` list — so the generated annotations are not
//! just display strings but runnable queries against [`PropertyGraph`].

use crate::graph::{Direction, PropertyGraph};
use crate::pattern::{EdgePattern, NodePattern};
use kgm_common::lexer::{Cursor, Tok};
use kgm_common::{Result, Value};

/// A parsed `@input` query.
#[derive(Debug, Clone, PartialEq)]
pub enum CypherQuery {
    /// `(v:Label) return v`
    NodeScan {
        /// The node variable.
        var: String,
        /// The node label (optional: `(v)` scans everything).
        label: Option<String>,
        /// Returned variables (must all equal `var`).
        returns: Vec<String>,
    },
    /// `(a:L)-[e:R]->(b:M) return (e,a,b)` or the `<-[...]-` inverse form.
    TripleScan {
        /// Source variable and label.
        src: (String, Option<String>),
        /// Edge variable and label.
        edge: (String, Option<String>),
        /// Target variable and label.
        dst: (String, Option<String>),
        /// True for `<-[...]-` (edge physically points dst → src).
        inverted: bool,
        /// Returned variables in order.
        returns: Vec<String>,
    },
}

/// A variable and an optional label: `var? (:Label)?`.
fn var_label(c: &mut Cursor) -> Result<(String, Option<String>)> {
    let var = match c.peek() {
        Some(Tok::Ident(_)) => c.ident()?,
        _ => String::new(),
    };
    let label = if c.eat(":") { Some(c.ident()?) } else { None };
    Ok((var, label))
}

/// `(var? (:Label)?)`
fn node_pattern(c: &mut Cursor) -> Result<(String, Option<String>)> {
    c.expect("(")?;
    let node = var_label(c)?;
    c.expect(")")?;
    Ok(node)
}

/// `return v, …` or `return (v, …)`, in either case of the keyword, with
/// every variable one of `vars`.
fn return_list(c: &mut Cursor, vars: &[&str]) -> Result<Vec<String>> {
    if !(c.eat_word("return") || c.eat_word("RETURN")) {
        return Err(c.error(format!("expected `return`, found {:?}", c.peek())));
    }
    let parens = c.eat("(");
    let mut out = vec![c.ident()?];
    while c.eat(",") {
        out.push(c.ident()?);
    }
    if parens {
        c.expect(")")?;
    }
    c.end()?;
    match out.iter().find(|r| !vars.contains(&r.as_str())) {
        Some(r) => Err(c.error(format!("unknown return variable `{r}`"))),
        None => Ok(out),
    }
}

/// Parse an `@input`-style Cypher fragment. Its tokens are those of
/// [`kgm_common::lexer`].
pub fn parse(text: &str) -> Result<CypherQuery> {
    let mut c = Cursor::new("Cypher", text)?;
    let src = node_pattern(&mut c)?;
    if matches!(c.peek(), Some(Tok::Ident(_))) {
        let returns = return_list(&mut c, &[&src.0])?;
        return Ok(CypherQuery::NodeScan {
            var: src.0,
            label: src.1,
            returns,
        });
    }
    // Edge chain: `-[..]->` or `<-[..]-`.
    let inverted = c.eat("<");
    c.expect("-")?;
    c.expect("[")?;
    let edge = var_label(&mut c)?;
    c.expect("]")?;
    c.expect(if inverted { "-" } else { "->" })?;
    let dst = node_pattern(&mut c)?;
    let returns = return_list(&mut c, &[&src.0, &edge.0, &dst.0])?;
    Ok(CypherQuery::TripleScan {
        src,
        edge,
        dst,
        inverted,
        returns,
    })
}

/// Execute a parsed query, returning one row of OID values per match, in the
/// order of the `return` list.
pub fn run(g: &PropertyGraph, q: &CypherQuery) -> Vec<Vec<Value>> {
    match q {
        CypherQuery::NodeScan { label, returns, .. } => {
            let pat = match label {
                Some(l) => NodePattern::label(l.clone()),
                None => NodePattern::any(),
            };
            g.match_nodes(&pat)
                .into_iter()
                .map(|n| returns.iter().map(|_| Value::Oid(g.node_oid(n))).collect())
                .collect()
        }
        CypherQuery::TripleScan {
            src,
            edge,
            dst,
            inverted,
            returns,
        } => {
            let src_pat = match &src.1 {
                Some(l) => NodePattern::label(l.clone()),
                None => NodePattern::any(),
            };
            let dst_pat = match &dst.1 {
                Some(l) => NodePattern::label(l.clone()),
                None => NodePattern::any(),
            };
            let mut edge_pat = match &edge.1 {
                Some(l) => EdgePattern::label(l.clone()),
                None => EdgePattern::default(),
            };
            if *inverted {
                edge_pat.direction = Direction::Incoming;
            }
            g.match_triples(&src_pat, &edge_pat, &dst_pat)
                .into_iter()
                .map(|m| {
                    returns
                        .iter()
                        .map(|r| {
                            if *r == src.0 {
                                Value::Oid(g.node_oid(m.src))
                            } else if *r == edge.0 {
                                Value::Oid(g.edge_oid(m.edge))
                            } else {
                                Value::Oid(g.node_oid(m.dst))
                            }
                        })
                        .collect()
                })
                .collect()
        }
    }
}

/// Parse and execute in one step.
pub fn query(g: &PropertyGraph, text: &str) -> Result<Vec<Vec<Value>>> {
    Ok(run(g, &parse(text)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dictionary() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let n1 = g.add_node(["SM_Node"], vec![]).unwrap();
        let n2 = g.add_node(["SM_Node"], vec![]).unwrap();
        let gen = g.add_node(["SM_Generalization"], vec![]).unwrap();
        g.add_edge(n1, gen, "SM_PARENT", vec![]).unwrap();
        g.add_edge(gen, n2, "SM_CHILD", vec![]).unwrap();
        g
    }

    #[test]
    fn parse_node_scan() {
        let q = parse("(n:SM_Node) return n").unwrap();
        assert_eq!(
            q,
            CypherQuery::NodeScan {
                var: "n".into(),
                label: Some("SM_Node".into()),
                returns: vec!["n".into()],
            }
        );
    }

    #[test]
    fn run_node_scan() {
        let g = dictionary();
        let rows = query(&g, "(n:SM_Node) return n").unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn parse_and_run_forward_triple() {
        let g = dictionary();
        let rows = query(
            &g,
            "(n:SM_Node)-[p:SM_PARENT]->(g:SM_Generalization) return (p,g,n)",
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].len(), 3);
    }

    #[test]
    fn parse_and_run_inverted_triple() {
        // The exact annotation of Example 4.4:
        // (n:SM_Node)<-[c:SM_CHILD]-(g:SM_Generalization) return (c,g,n)
        let g = dictionary();
        let rows = query(
            &g,
            "(n:SM_Node)<-[c:SM_CHILD]-(g:SM_Generalization) return (c,g,n)",
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn unknown_return_variable_is_rejected() {
        assert!(parse("(n:SM_Node) return x").is_err());
        assert!(parse("(a:X)-[e:R]->(b:Y) return (a,q)").is_err());
    }

    #[test]
    fn malformed_queries_are_rejected() {
        assert!(parse("n:SM_Node return n").is_err());
        assert!(parse("(n:SM_Node)").is_err());
        assert!(parse("(n:SM_Node)-[e:R](m:Y) return e").is_err());
    }

    #[test]
    fn anonymous_label_scan() {
        let g = dictionary();
        let rows = query(&g, "(n) return n").unwrap();
        assert_eq!(rows.len(), 3);
    }
}
