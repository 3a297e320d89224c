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
use kgm_common::{KgmError, Result, Value};

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

struct Scanner<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn new(text: &'a str) -> Self {
        Scanner { text, pos: 0 }
    }

    fn skip_ws(&mut self) {
        let rest = &self.text[self.pos..];
        self.pos += rest.len() - rest.trim_start().len();
    }

    fn eat(&mut self, tok: &str) -> bool {
        self.skip_ws();
        if self.text[self.pos..].starts_with(tok) {
            self.pos += tok.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &str) -> Result<()> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(KgmError::parse(
                "Cypher",
                format!("expected `{tok}` at byte {} in {:?}", self.pos, self.text),
            ))
        }
    }

    fn ident(&mut self) -> Result<String> {
        self.skip_ws();
        let start = self.pos;
        for (i, c) in self.text[start..].char_indices() {
            if c.is_alphanumeric() || c == '_' {
                self.pos = start + i + c.len_utf8();
            } else {
                break;
            }
        }
        if self.pos == start {
            Err(KgmError::parse(
                "Cypher",
                format!("expected identifier at byte {start} in {:?}", self.text),
            ))
        } else {
            Ok(self.text[start..self.pos].to_string())
        }
    }

    /// `(var? (:Label)?)`
    fn node_pattern(&mut self) -> Result<(String, Option<String>)> {
        self.expect("(")?;
        self.skip_ws();
        let var = if self.text[self.pos..].starts_with(|c: char| c.is_alphanumeric() || c == '_') {
            self.ident()?
        } else {
            String::new()
        };
        let label = if self.eat(":") {
            Some(self.ident()?)
        } else {
            None
        };
        self.expect(")")?;
        Ok((var, label))
    }

    /// `[var? : Label]`
    fn edge_body(&mut self) -> Result<(String, Option<String>)> {
        self.expect("[")?;
        self.skip_ws();
        let var = if self.text[self.pos..].starts_with(|c: char| c.is_alphanumeric() || c == '_') {
            self.ident()?
        } else {
            String::new()
        };
        let label = if self.eat(":") {
            Some(self.ident()?)
        } else {
            None
        };
        self.expect("]")?;
        Ok((var, label))
    }

    fn return_list(&mut self) -> Result<Vec<String>> {
        self.skip_ws();
        // lowercase/uppercase RETURN
        if !(self.eat("return") || self.eat("RETURN")) {
            return Err(KgmError::parse(
                "Cypher",
                format!("expected `return` in {:?}", self.text),
            ));
        }
        let mut out = Vec::new();
        if self.eat("(") {
            loop {
                out.push(self.ident()?);
                if !self.eat(",") {
                    break;
                }
            }
            self.expect(")")?;
        } else {
            out.push(self.ident()?);
            while self.eat(",") {
                out.push(self.ident()?);
            }
        }
        Ok(out)
    }
}

/// Parse an `@input`-style Cypher fragment.
pub fn parse(text: &str) -> Result<CypherQuery> {
    let mut s = Scanner::new(text);
    let src = s.node_pattern()?;
    s.skip_ws();
    let rest = &s.text[s.pos..];
    if rest.starts_with("return") || rest.starts_with("RETURN") {
        let returns = s.return_list()?;
        for r in &returns {
            if *r != src.0 {
                return Err(KgmError::parse(
                    "Cypher",
                    format!("unknown return variable `{r}`"),
                ));
            }
        }
        return Ok(CypherQuery::NodeScan {
            var: src.0,
            label: src.1,
            returns,
        });
    }
    // Edge chain: `-[..]->` or `<-[..]-`.
    let inverted = if s.eat("-") {
        false
    } else if s.eat("<-") {
        true
    } else {
        return Err(KgmError::parse(
            "Cypher",
            format!("expected edge pattern in {:?}", text),
        ));
    };
    let edge = s.edge_body()?;
    if inverted {
        s.expect("-")?;
    } else {
        s.expect("->")?;
    }
    let dst = s.node_pattern()?;
    let returns = s.return_list()?;
    for r in &returns {
        if *r != src.0 && *r != edge.0 && *r != dst.0 {
            return Err(KgmError::parse(
                "Cypher",
                format!("unknown return variable `{r}`"),
            ));
        }
    }
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
