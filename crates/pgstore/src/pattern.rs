//! Structural pattern matching over a [`PropertyGraph`].
//!
//! This is the execution backend for the `@input` bindings that MTV
//! generates (Section 4): a PG node atom `(x : L; K)` becomes a
//! [`NodePattern`], a PG edge atom `[x : L; K]` an [`EdgePattern`], and the
//! binary relation `x ρ y` a triple scan. The matcher picks the cheaper side
//! (label-index cardinality) to drive the scan.

use crate::graph::{Direction, EdgeId, NodeId, PropertyGraph};
use kgm_common::Value;

/// A node selection: optional label plus required property equalities.
#[derive(Debug, Clone, Default)]
pub struct NodePattern {
    /// Required node label, if any.
    pub label: Option<String>,
    /// Required `property = constant` equalities.
    pub props: Vec<(String, Value)>,
}

impl NodePattern {
    /// Pattern matching any node with `label`.
    pub fn label(label: impl Into<String>) -> Self {
        NodePattern {
            label: Some(label.into()),
            props: Vec::new(),
        }
    }

    /// Match any node.
    pub fn any() -> Self {
        NodePattern::default()
    }

    /// Add a property equality requirement.
    pub fn with_prop(mut self, key: impl Into<String>, value: Value) -> Self {
        self.props.push((key.into(), value));
        self
    }

    /// Does `node` satisfy this pattern in `g`?
    pub fn matches(&self, g: &PropertyGraph, node: NodeId) -> bool {
        if let Some(l) = &self.label {
            if !g.node_has_label(node, l) {
                return false;
            }
        }
        self.props
            .iter()
            .all(|(k, v)| g.node_prop(node, k) == Some(v))
    }
}

/// An edge selection: optional label plus required property equalities and a
/// traversal direction (inverse atoms `ρ⁻` flip to [`Direction::Incoming`]).
#[derive(Debug, Clone)]
pub struct EdgePattern {
    /// Required edge label, if any.
    pub label: Option<String>,
    /// Required `property = constant` equalities.
    pub props: Vec<(String, Value)>,
    /// Which way the edge is traversed from the source node.
    pub direction: Direction,
}

impl Default for EdgePattern {
    fn default() -> Self {
        EdgePattern {
            label: None,
            props: Vec::new(),
            direction: Direction::Outgoing,
        }
    }
}

impl EdgePattern {
    /// Pattern matching outgoing edges with `label`.
    pub fn label(label: impl Into<String>) -> Self {
        EdgePattern {
            label: Some(label.into()),
            ..Default::default()
        }
    }

    /// Flip the traversal direction (the `−` inverse operator of Section 4).
    pub fn inverse(mut self) -> Self {
        self.direction = match self.direction {
            Direction::Outgoing => Direction::Incoming,
            Direction::Incoming => Direction::Outgoing,
            Direction::Both => Direction::Both,
        };
        self
    }

    /// Add a property equality requirement.
    pub fn with_prop(mut self, key: impl Into<String>, value: Value) -> Self {
        self.props.push((key.into(), value));
        self
    }

    /// Does `edge` satisfy label and property requirements (ignoring
    /// direction, which the scan handles)?
    pub fn matches_edge(&self, g: &PropertyGraph, edge: EdgeId) -> bool {
        if let Some(l) = &self.label {
            if g.interner().get(l) != Some(g.edge_label_sym(edge)) {
                return false;
            }
        }
        self.props
            .iter()
            .all(|(k, v)| g.edge_prop(edge, k) == Some(v))
    }
}

/// A regular path pattern over edge patterns — the Section 4 regular
/// expressions `ρ | ρ⁻ | R·R | R "|" R | (R)*` evaluated directly on the
/// graph (MTV compiles the same grammar to Vadalog rules; this is the
/// in-store evaluator used by pattern `@input` bindings and by tests as an
/// independent semantics check).
#[derive(Debug, Clone)]
pub enum PathPattern {
    /// A single edge traversal.
    Edge(EdgePattern),
    /// Concatenation `R₁ · R₂ · …` (empty sequence = ε).
    Seq(Vec<PathPattern>),
    /// Alternation `R₁ | R₂ | …` (empty alternation = ∅).
    Alt(Vec<PathPattern>),
    /// Kleene star `(R)*` — reflexive-transitive closure.
    Star(Box<PathPattern>),
}

impl PathPattern {
    /// A single labelled forward edge.
    pub fn edge(label: impl Into<String>) -> Self {
        PathPattern::Edge(EdgePattern::label(label))
    }

    /// Concatenation of `parts`.
    pub fn seq(parts: impl IntoIterator<Item = PathPattern>) -> Self {
        PathPattern::Seq(parts.into_iter().collect())
    }

    /// Alternation of `parts`.
    pub fn alt(parts: impl IntoIterator<Item = PathPattern>) -> Self {
        PathPattern::Alt(parts.into_iter().collect())
    }

    /// Kleene star over `self`.
    pub fn star(self) -> Self {
        PathPattern::Star(Box::new(self))
    }

    /// The inverse pattern `R⁻`, pushed down through the structure:
    /// `(R·S)⁻ = S⁻·R⁻`, `(R|S)⁻ = R⁻|S⁻`, `(R*)⁻ = (R⁻)*`, and an edge
    /// flips its traversal direction. `match_pairs(R⁻)` is exactly
    /// `match_pairs(R)` with every pair reversed (tested).
    pub fn inverse(self) -> Self {
        match self {
            PathPattern::Edge(e) => PathPattern::Edge(e.inverse()),
            PathPattern::Seq(parts) => {
                PathPattern::Seq(parts.into_iter().rev().map(PathPattern::inverse).collect())
            }
            PathPattern::Alt(parts) => {
                PathPattern::Alt(parts.into_iter().map(PathPattern::inverse).collect())
            }
            PathPattern::Star(inner) => PathPattern::Star(Box::new(inner.inverse())),
        }
    }
}

/// One result row of a triple scan: `(source, edge, target)` where `source`
/// matched the source pattern *after* direction resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TripleMatch {
    /// The node bound to the pattern's source position.
    pub src: NodeId,
    /// The matched edge.
    pub edge: EdgeId,
    /// The node bound to the pattern's target position.
    pub dst: NodeId,
}

impl PropertyGraph {
    /// All nodes matching `pattern`, driven by the label index when present.
    pub fn match_nodes(&self, pattern: &NodePattern) -> Vec<NodeId> {
        let candidates: Vec<NodeId> = match &pattern.label {
            Some(l) => self.nodes_with_label(l),
            None => self.nodes().collect(),
        };
        candidates
            .into_iter()
            .filter(|&n| pattern.matches(self, n))
            .collect()
    }

    /// All `(src, edge, dst)` triples where `src` matches `src_pat`, `dst`
    /// matches `dst_pat` and the connecting edge matches `edge_pat` under its
    /// direction. With [`Direction::Both`] each undirected match is reported
    /// once per orientation that satisfies the patterns (semi-path
    /// semantics).
    pub fn match_triples(
        &self,
        src_pat: &NodePattern,
        edge_pat: &EdgePattern,
        dst_pat: &NodePattern,
    ) -> Vec<TripleMatch> {
        let mut out = Vec::new();
        // Drive by edge-label index when available: usually most selective.
        let edges: Vec<EdgeId> = match &edge_pat.label {
            Some(l) => self.edges_with_label(l),
            None => self.edges().collect(),
        };
        for e in edges {
            if !edge_pat.matches_edge(self, e) {
                continue;
            }
            let (f, t) = self.edge_endpoints(e);
            let forward = |out: &mut Vec<TripleMatch>| {
                if src_pat.matches(self, f) && dst_pat.matches(self, t) {
                    out.push(TripleMatch {
                        src: f,
                        edge: e,
                        dst: t,
                    });
                }
            };
            let backward = |out: &mut Vec<TripleMatch>| {
                if src_pat.matches(self, t) && dst_pat.matches(self, f) {
                    out.push(TripleMatch {
                        src: t,
                        edge: e,
                        dst: f,
                    });
                }
            };
            match edge_pat.direction {
                Direction::Outgoing => forward(&mut out),
                Direction::Incoming => backward(&mut out),
                Direction::Both => {
                    forward(&mut out);
                    backward(&mut out);
                }
            }
        }
        out
    }

    /// All `(src, dst)` node pairs connected by a path matching `pattern`,
    /// sorted and deduplicated. Evaluation is relation-algebraic: an edge
    /// pattern scans its triples, `Seq` composes relations, `Alt` unions
    /// them, and `Star` is the reflexive-transitive closure (reflexive over
    /// *all* nodes, matching the `x == y` base case MTV emits for `(R)*`).
    pub fn match_pairs(&self, pattern: &PathPattern) -> Vec<(NodeId, NodeId)> {
        let mut pairs: Vec<(NodeId, NodeId)> = self.eval_path(pattern).into_iter().collect();
        pairs.sort();
        pairs
    }

    fn eval_path(&self, pattern: &PathPattern) -> std::collections::BTreeSet<(NodeId, NodeId)> {
        use std::collections::BTreeSet;
        match pattern {
            PathPattern::Edge(e) => self
                .match_triples(&NodePattern::any(), e, &NodePattern::any())
                .into_iter()
                .map(|m| (m.src, m.dst))
                .collect(),
            PathPattern::Seq(parts) => {
                // ε: the identity relation over all nodes.
                let mut acc: BTreeSet<(NodeId, NodeId)> =
                    self.nodes().map(|n| (n, n)).collect();
                for p in parts {
                    let rel = self.eval_path(p);
                    acc = acc
                        .iter()
                        .flat_map(|&(a, b)| {
                            rel.iter()
                                .filter(move |&&(c, _)| c == b)
                                .map(move |&(_, d)| (a, d))
                        })
                        .collect();
                }
                acc
            }
            PathPattern::Alt(parts) => parts
                .iter()
                .flat_map(|p| self.eval_path(p))
                .collect(),
            PathPattern::Star(inner) => {
                let step = self.eval_path(inner);
                let mut acc: BTreeSet<(NodeId, NodeId)> =
                    self.nodes().map(|n| (n, n)).collect();
                loop {
                    let next: Vec<(NodeId, NodeId)> = acc
                        .iter()
                        .flat_map(|&(a, b)| {
                            step.iter()
                                .filter(move |&&(c, _)| c == b)
                                .map(move |&(_, d)| (a, d))
                        })
                        .filter(|p| !acc.contains(p))
                        .collect();
                    if next.is_empty() {
                        break acc;
                    }
                    acc.extend(next);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (PropertyGraph, NodeId, NodeId, NodeId) {
        let mut g = PropertyGraph::new();
        let p = g
            .add_node(
                ["Person", "PhysicalPerson"],
                vec![("name".to_string(), Value::str("Ada"))],
            )
            .unwrap();
        let b = g
            .add_node(["Business"], vec![("name".to_string(), Value::str("ACME"))])
            .unwrap();
        let c = g
            .add_node(["Business"], vec![("name".to_string(), Value::str("Globex"))])
            .unwrap();
        g.add_edge(
            p,
            b,
            "OWNS",
            vec![("percentage".to_string(), Value::Float(0.7))],
        )
        .unwrap();
        g.add_edge(
            b,
            c,
            "OWNS",
            vec![("percentage".to_string(), Value::Float(0.4))],
        )
        .unwrap();
        g.add_edge(p, c, "HAS_ROLE", vec![]).unwrap();
        (g, p, b, c)
    }

    #[test]
    fn node_pattern_by_label_and_prop() {
        let (g, p, ..) = sample();
        let hits = g.match_nodes(&NodePattern::label("PhysicalPerson"));
        assert_eq!(hits, vec![p]);
        let hits = g.match_nodes(
            &NodePattern::label("Business").with_prop("name", Value::str("ACME")),
        );
        assert_eq!(hits.len(), 1);
        let none = g.match_nodes(
            &NodePattern::label("Business").with_prop("name", Value::str("NONE")),
        );
        assert!(none.is_empty());
    }

    #[test]
    fn any_pattern_matches_everything() {
        let (g, ..) = sample();
        assert_eq!(g.match_nodes(&NodePattern::any()).len(), 3);
    }

    #[test]
    fn triple_match_outgoing() {
        let (g, p, b, _) = sample();
        let ms = g.match_triples(
            &NodePattern::label("Person"),
            &EdgePattern::label("OWNS"),
            &NodePattern::label("Business"),
        );
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].src, p);
        assert_eq!(ms[0].dst, b);
    }

    #[test]
    fn triple_match_inverse_swaps_roles() {
        let (g, p, b, _) = sample();
        let ms = g.match_triples(
            &NodePattern::label("Business"),
            &EdgePattern::label("OWNS").inverse(),
            &NodePattern::label("Person"),
        );
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].src, b);
        assert_eq!(ms[0].dst, p);
    }

    #[test]
    fn triple_match_edge_prop_filter() {
        let (g, ..) = sample();
        let ms = g.match_triples(
            &NodePattern::any(),
            &EdgePattern::label("OWNS").with_prop("percentage", Value::Float(0.4)),
            &NodePattern::any(),
        );
        assert_eq!(ms.len(), 1);
    }

    /// Reverse every pair of a relation.
    fn reversed(mut pairs: Vec<(NodeId, NodeId)>) -> Vec<(NodeId, NodeId)> {
        for p in &mut pairs {
            *p = (p.1, p.0);
        }
        pairs.sort();
        pairs
    }

    #[test]
    fn star_closes_ownership_chains() {
        // p -OWNS-> b -OWNS-> c: (OWNS)* is reflexive plus the three
        // forward reachability pairs.
        let (g, p, b, c) = sample();
        let pairs = g.match_pairs(&PathPattern::edge("OWNS").star());
        for n in [p, b, c] {
            assert!(pairs.contains(&(n, n)), "missing reflexive pair");
        }
        assert!(pairs.contains(&(p, b)));
        assert!(pairs.contains(&(b, c)));
        assert!(pairs.contains(&(p, c)), "missing 2-hop closure");
        assert!(!pairs.contains(&(c, p)));
    }

    #[test]
    fn inverse_commutes_with_star() {
        // ((OWNS)⁻)* must equal ((OWNS)*)⁻ — i.e. the forward closure with
        // every pair flipped. This is the inverse-under-Kleene-star law the
        // MTV translation relies on.
        let (g, ..) = sample();
        let fwd_star = g.match_pairs(&PathPattern::edge("OWNS").star());
        let inv_star = g.match_pairs(&PathPattern::edge("OWNS").inverse().star());
        let star_inv = g.match_pairs(&PathPattern::edge("OWNS").star().inverse());
        assert_eq!(inv_star, star_inv);
        assert_eq!(inv_star, reversed(fwd_star));
    }

    #[test]
    fn alternation_of_inverses_is_inverse_of_alternation() {
        // (OWNS⁻ | HAS_ROLE⁻) = (OWNS | HAS_ROLE)⁻: both must equal the
        // union of the reversed base relations.
        let (g, ..) = sample();
        let fwd = g.match_pairs(&PathPattern::alt([
            PathPattern::edge("OWNS"),
            PathPattern::edge("HAS_ROLE"),
        ]));
        let alt_of_inv = g.match_pairs(&PathPattern::alt([
            PathPattern::edge("OWNS").inverse(),
            PathPattern::edge("HAS_ROLE").inverse(),
        ]));
        let inv_of_alt = g.match_pairs(
            &PathPattern::alt([PathPattern::edge("OWNS"), PathPattern::edge("HAS_ROLE")])
                .inverse(),
        );
        assert_eq!(alt_of_inv, inv_of_alt);
        assert_eq!(alt_of_inv, reversed(fwd));
        assert_eq!(alt_of_inv.len(), 3);
    }

    #[test]
    fn star_over_alternation_reaches_both_directions() {
        // (OWNS | OWNS⁻)* connects every node of the ownership chain to
        // every other, in both directions.
        let (g, p, b, c) = sample();
        let pairs = g.match_pairs(
            &PathPattern::alt([
                PathPattern::edge("OWNS"),
                PathPattern::edge("OWNS").inverse(),
            ])
            .star(),
        );
        for x in [p, b, c] {
            for y in [p, b, c] {
                assert!(pairs.contains(&(x, y)), "missing ({x:?}, {y:?})");
            }
        }
    }

    #[test]
    fn seq_composes_and_inverse_reverses_seq() {
        // OWNS · OWNS is exactly the 2-hop pair; its inverse walks the
        // chain backwards (inverse reverses the concatenation order).
        let (g, p, _, c) = sample();
        let two_hop = PathPattern::seq([PathPattern::edge("OWNS"), PathPattern::edge("OWNS")]);
        assert_eq!(g.match_pairs(&two_hop), vec![(p, c)]);
        assert_eq!(g.match_pairs(&two_hop.clone().inverse()), vec![(c, p)]);
        // ε (the empty sequence) is the identity relation.
        let eps = g.match_pairs(&PathPattern::seq([]));
        assert_eq!(eps.len(), 3);
        assert!(eps.iter().all(|&(a, b)| a == b));
    }

    #[test]
    fn triple_match_both_directions_reports_each_orientation() {
        let (g, _, b, c) = sample();
        let ms = g.match_triples(
            &NodePattern::label("Business"),
            &EdgePattern {
                label: Some("OWNS".into()),
                props: vec![],
                direction: Direction::Both,
            },
            &NodePattern::label("Business"),
        );
        // b -OWNS-> c matches as (b,c) forward and (c,b) backward.
        assert_eq!(ms.len(), 2);
        assert!(ms.iter().any(|m| m.src == b && m.dst == c));
        assert!(ms.iter().any(|m| m.src == c && m.dst == b));
    }
}
