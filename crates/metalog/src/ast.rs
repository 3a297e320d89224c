//! MetaLog abstract syntax.

use kgm_common::Value;

/// A term inside a PG atom's property list: a variable or a constant.
#[derive(Debug, Clone, PartialEq)]
pub enum TermLike {
    /// A named variable (`_` is anonymous and always fresh).
    Var(String),
    /// A constant.
    Const(Value),
}

/// A PG node atom `(x : L; k₁ : t₁, …)`.
///
/// All parts are optional: `(x)` references an already-bound node variable,
/// `(: L)` selects by label anonymously.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeAtom {
    /// The atom identifier variable (`x`), if named.
    pub var: Option<String>,
    /// The node label (`L`), if constrained.
    pub label: Option<String>,
    /// Named property terms (`K`).
    pub props: Vec<(String, TermLike)>,
}

/// A PG edge atom `[x : L; k₁ : t₁, …]`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EdgeAtom {
    /// The atom identifier variable, if named.
    pub var: Option<String>,
    /// The edge label.
    pub label: Option<String>,
    /// Named property terms.
    pub props: Vec<(String, TermLike)>,
}

/// A regular expression over PG edge atoms (the alphabet `A` of Section 4).
#[derive(Debug, Clone, PartialEq)]
pub enum PathRegex {
    /// A single edge atom.
    Edge(EdgeAtom),
    /// The inverse `ρ⁻` (postfix `-`).
    Inverse(Box<PathRegex>),
    /// Concatenation `S · T` (infix `.`).
    Concat(Vec<PathRegex>),
    /// Alternation `S | T`.
    Alt(Vec<PathRegex>),
    /// Kleene star `S*`.
    Star(Box<PathRegex>),
}

impl PathRegex {
    /// True if the empty path belongs to the language (only `*` introduces ε).
    pub fn nullable(&self) -> bool {
        match self {
            PathRegex::Edge(_) => false,
            PathRegex::Inverse(r) => r.nullable(),
            PathRegex::Concat(rs) => rs.iter().all(PathRegex::nullable),
            PathRegex::Alt(rs) => rs.iter().any(PathRegex::nullable),
            PathRegex::Star(_) => true,
        }
    }

    /// True if the regex is a single (possibly inverted) edge atom — the
    /// only shape allowed in rule heads.
    pub fn is_simple(&self) -> bool {
        match self {
            PathRegex::Edge(_) => true,
            PathRegex::Inverse(r) => r.is_simple(),
            _ => false,
        }
    }

    /// All edge atoms in the regex.
    pub fn edge_atoms(&self) -> Vec<&EdgeAtom> {
        match self {
            PathRegex::Edge(e) => vec![e],
            PathRegex::Inverse(r) | PathRegex::Star(r) => r.edge_atoms(),
            PathRegex::Concat(rs) | PathRegex::Alt(rs) => {
                rs.iter().flat_map(PathRegex::edge_atoms).collect()
            }
        }
    }

    /// True if the regex uses the Kleene star anywhere.
    pub fn has_star(&self) -> bool {
        match self {
            PathRegex::Edge(_) => false,
            PathRegex::Inverse(r) => r.has_star(),
            PathRegex::Concat(rs) | PathRegex::Alt(rs) => rs.iter().any(PathRegex::has_star),
            PathRegex::Star(_) => true,
        }
    }
}

/// A path pattern: a source node atom followed by (regex, node-atom)
/// segments — `(x:L) R₁ (y:M) R₂ (z:N) …`.
#[derive(Debug, Clone, PartialEq)]
pub struct PathPattern {
    /// The source node atom.
    pub src: NodeAtom,
    /// The chained segments.
    pub segments: Vec<(PathRegex, NodeAtom)>,
}

/// One body element of a MetaLog rule.
#[derive(Debug, Clone, PartialEq)]
pub enum MetaBodyElem {
    /// A path pattern (possibly a lone node atom).
    Path(PathPattern),
    /// A negated node atom `not (x : L)`.
    NegatedNode(NodeAtom),
    /// A scalar element — condition, assignment or aggregate assignment —
    /// kept as verbatim source text and passed through to Vadalog.
    Scalar(String),
}

/// A MetaLog rule `body → head`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetaRule {
    /// Body elements, in written order.
    pub body: Vec<MetaBodyElem>,
    /// Head path patterns; every segment regex must be a simple
    /// (possibly inverted) edge atom.
    pub head: Vec<PathPattern>,
}

/// A MetaLog program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetaProgram {
    /// The rules, in source order.
    pub rules: Vec<MetaRule>,
}

impl MetaProgram {
    /// The node labels the rule bodies read, sorted: a label that only
    /// heads write is not among them.
    pub fn node_labels(&self) -> Vec<String> {
        let mut out = Vec::new();
        for e in self.rules.iter().flat_map(|r| &r.body) {
            let nodes: Vec<&NodeAtom> = match e {
                MetaBodyElem::Path(p) => std::iter::once(&p.src)
                    .chain(p.segments.iter().map(|(_, n)| n))
                    .collect(),
                MetaBodyElem::NegatedNode(n) => vec![n],
                MetaBodyElem::Scalar(_) => Vec::new(),
            };
            out.extend(nodes.into_iter().filter_map(|n| n.label.clone()));
        }
        out.sort();
        out.dedup();
        out
    }

    /// The edge labels the rule bodies read, sorted: a label that only
    /// heads write is not among them.
    pub fn edge_labels(&self) -> Vec<String> {
        let mut out = Vec::new();
        for e in self.rules.iter().flat_map(|r| &r.body) {
            if let MetaBodyElem::Path(p) = e {
                for (regex, _) in &p.segments {
                    for ea in regex.edge_atoms() {
                        out.extend(ea.label.clone());
                    }
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(label: &str) -> PathRegex {
        PathRegex::Edge(EdgeAtom {
            var: None,
            label: Some(label.to_string()),
            props: vec![],
        })
    }

    #[test]
    fn nullable_is_star_only() {
        assert!(!edge("R").nullable());
        assert!(PathRegex::Star(Box::new(edge("R"))).nullable());
        assert!(
            !PathRegex::Concat(vec![edge("R"), PathRegex::Star(Box::new(edge("S")))]).nullable()
        );
        assert!(PathRegex::Concat(vec![
            PathRegex::Star(Box::new(edge("R"))),
            PathRegex::Star(Box::new(edge("S")))
        ])
        .nullable());
        assert!(PathRegex::Alt(vec![edge("R"), PathRegex::Star(Box::new(edge("S")))]).nullable());
    }

    #[test]
    fn simple_shapes() {
        assert!(edge("R").is_simple());
        assert!(PathRegex::Inverse(Box::new(edge("R"))).is_simple());
        assert!(!PathRegex::Star(Box::new(edge("R"))).is_simple());
        assert!(!PathRegex::Concat(vec![edge("R"), edge("S")]).is_simple());
    }

    #[test]
    fn has_star_recurses() {
        let r = PathRegex::Concat(vec![
            PathRegex::Inverse(Box::new(edge("A"))),
            PathRegex::Alt(vec![edge("B"), PathRegex::Star(Box::new(edge("C")))]),
        ]);
        assert!(r.has_star());
        assert_eq!(r.edge_atoms().len(), 3);
    }
}
