//! Derivation-tree explanations over the chase's why-provenance.
//!
//! With `EngineConfig::provenance` on, every derived fact carries a
//! `(rule, parents[])` edge in the database's [`crate::factdb::ProvStore`]
//! (first derivation wins, deterministic at any thread count). [`explain`]
//! unfolds those edges into a [`DerivationTree`]: EDB facts — anything
//! inserted outside a rule firing — become leaves, and each derived fact
//! becomes one internal node for the single firing that inserted it. The
//! tree is *minimal* in two senses: every node is one actual firing (no
//! alternative derivations are enumerated), and a derived fact appearing
//! more than once is expanded only at its first (preorder) occurrence —
//! later occurrences are marked [`DerivationTree::shared`] and elided, so
//! the tree is bounded by the number of distinct facts even when the
//! derivation DAG fans in heavily.
//!
//! [`render`] produces a deterministic text form (stable across runs,
//! thread counts and platforms — pinned by a golden snapshot), which is
//! what `paper-harness explain` prints.

use crate::ast::Program;
use crate::factdb::{FactDb, FactId};
use crate::printer::rule_to_source;
use kgm_common::{FxHashSet, Value};
use std::fmt::Write;

/// One node of a derivation tree: a fact, the rule that derived it (`None`
/// for EDB leaves), and the sub-derivations of its parent facts.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivationTree {
    /// Predicate of the explained fact.
    pub predicate: String,
    /// The fact's tuple.
    pub tuple: Vec<Value>,
    /// Index of the rule whose firing inserted the fact; `None` marks an
    /// EDB leaf (program fact or pre-loaded input).
    pub rule: Option<usize>,
    /// Derivations of the firing's parent facts, in body-atom order (for
    /// aggregate firings: in contribution order). Empty for leaves and
    /// shared nodes.
    pub children: Vec<DerivationTree>,
    /// True when this derived fact was already expanded earlier in the
    /// tree (preorder); its subtree is elided here.
    pub shared: bool,
}

impl DerivationTree {
    /// Number of nodes in the tree (shared stubs count once).
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(DerivationTree::node_count)
            .sum::<usize>()
    }

    /// Depth of the tree (a single leaf has depth 1).
    pub fn depth(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(DerivationTree::depth)
            .max()
            .unwrap_or(0)
    }
}

/// Explain why `predicate(tuple)` holds in `db`: unfold its recorded
/// provenance edges into a derivation tree. Returns `None` when the fact
/// is not in the database at all.
///
/// A fact without a recorded edge (every fact, when provenance was off)
/// comes back as a bare EDB leaf — callers that require derived-fact
/// explanations should check [`DerivationTree::rule`].
pub fn explain(db: &FactDb, predicate: &str, tuple: &[Value]) -> Option<DerivationTree> {
    let id = db.find_id(predicate, tuple)?;
    let mut seen = FxHashSet::default();
    Some(build(db, id, &mut seen))
}

fn build(db: &FactDb, id: FactId, seen: &mut FxHashSet<FactId>) -> DerivationTree {
    let (pred, tuple) = db
        .fact_values(id)
        .expect("provenance edges point at stored facts");
    let predicate = pred.to_string();
    match db.prov_edge(id) {
        None => DerivationTree {
            predicate,
            tuple,
            rule: None,
            children: Vec::new(),
            shared: false,
        },
        Some((rule, parents)) => {
            if !seen.insert(id) {
                return DerivationTree {
                    predicate,
                    tuple,
                    rule: Some(rule as usize),
                    children: Vec::new(),
                    shared: true,
                };
            }
            // Parents always precede their children in insertion order, so
            // the edge relation is a DAG and this recursion terminates.
            let children = parents.iter().map(|&p| build(db, p, seen)).collect();
            DerivationTree {
                predicate,
                tuple,
                rule: Some(rule as usize),
                children,
                shared: false,
            }
        }
    }
}

fn fact_text(predicate: &str, tuple: &[Value]) -> String {
    let args: Vec<String> = tuple.iter().map(|v| format!("{v:?}")).collect();
    format!("{predicate}({})", args.join(", "))
}

fn node_label(tree: &DerivationTree, program: &Program) -> String {
    let fact = fact_text(&tree.predicate, &tree.tuple);
    match tree.rule {
        None => format!("{fact}  [edb]"),
        Some(ri) => {
            let rule = program
                .rules
                .get(ri)
                .map(rule_to_source)
                .unwrap_or_else(|| "<unknown rule>".to_string());
            if tree.shared {
                format!("{fact}  [shared: derived above via rule {ri}]")
            } else {
                format!("{fact}  <- rule {ri}: {rule}")
            }
        }
    }
}

fn render_into(tree: &DerivationTree, program: &Program, prefix: &str, out: &mut String) {
    let n = tree.children.len();
    for (i, child) in tree.children.iter().enumerate() {
        let last = i + 1 == n;
        let (branch, cont) = if last {
            ("└─ ", "   ")
        } else {
            ("├─ ", "│  ")
        };
        let _ = writeln!(out, "{prefix}{branch}{}", node_label(child, program));
        render_into(child, program, &format!("{prefix}{cont}"), out);
    }
}

/// Render a derivation tree as deterministic box-drawing text. The output
/// depends only on the tree (which is itself bit-identical at any thread
/// count), making it safe to golden-snapshot.
pub fn render(tree: &DerivationTree, program: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}", node_label(tree, program));
    render_into(tree, program, "", &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::parser::parse_program as parse;

    fn prov_config() -> EngineConfig {
        EngineConfig {
            provenance: true,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn linear_chain_explains_to_edb_leaves() {
        let src = "edge(X, Y) -> path(X, Y). path(X, Y), edge(Y, Z) -> path(X, Z). @output(path).";
        let program = parse(src).unwrap();
        let engine = Engine::with_config(program, prov_config()).unwrap();
        let (db, _) = engine
            .run_with_facts(&[(
                "edge",
                vec![
                    vec![Value::Int(1), Value::Int(2)],
                    vec![Value::Int(2), Value::Int(3)],
                ],
            )])
            .unwrap();
        let t = explain(&db, "path", &[Value::Int(1), Value::Int(3)]).unwrap();
        assert_eq!(t.rule, Some(1));
        assert_eq!(t.children.len(), 2);
        // First parent: path(1,2) via rule 0 from edge(1,2).
        assert_eq!(t.children[0].predicate, "path");
        assert_eq!(t.children[0].rule, Some(0));
        assert_eq!(t.children[0].children.len(), 1);
        assert_eq!(t.children[0].children[0].rule, None, "edge(1,2) is EDB");
        // Second parent: edge(2,3), an EDB leaf.
        assert_eq!(t.children[1].predicate, "edge");
        assert_eq!(t.children[1].rule, None);
        assert_eq!(t.depth(), 3);
        // Rendering is stable and names the rule.
        let text = render(&t, engine.program());
        assert!(text.starts_with("path(1, 3)  <- rule 1:"), "{text}");
        assert!(text.contains("[edb]"), "{text}");
    }

    #[test]
    fn shared_subtrees_collapse() {
        // d needs b twice (via two different mid predicates).
        let src = "b(X) -> m1(X). b(X) -> m2(X). m1(X), m2(X) -> d(X). @output(d).";
        let program = parse(src).unwrap();
        let engine = Engine::with_config(program, prov_config()).unwrap();
        let (db, _) = engine
            .run_with_facts(&[("b", vec![vec![Value::Int(7)]])])
            .unwrap();
        let t = explain(&db, "d", &[Value::Int(7)]).unwrap();
        assert_eq!(t.children.len(), 2);
        // b(7) is EDB, reached through both branches: EDB leaves are never
        // marked shared (they carry no subtree to elide).
        let leaves: Vec<&DerivationTree> = t.children.iter().flat_map(|c| &c.children).collect();
        assert_eq!(leaves.len(), 2);
        assert!(leaves.iter().all(|l| l.rule.is_none() && !l.shared));
    }

    #[test]
    fn explain_missing_fact_is_none_and_edb_fact_is_leaf() {
        let src = "b(X) -> d(X). @output(d).";
        let program = parse(src).unwrap();
        let engine = Engine::with_config(program, prov_config()).unwrap();
        let (db, _) = engine
            .run_with_facts(&[("b", vec![vec![Value::Int(1)]])])
            .unwrap();
        assert!(explain(&db, "d", &[Value::Int(99)]).is_none());
        let leaf = explain(&db, "b", &[Value::Int(1)]).unwrap();
        assert_eq!(leaf.rule, None);
        assert_eq!(leaf.node_count(), 1);
    }

    #[test]
    fn derived_shared_fact_is_stubbed_on_second_occurrence() {
        // mid is itself derived and feeds d through two paths.
        let src = "b(X) -> mid(X). mid(X) -> m1(X). mid(X) -> m2(X). \
                   m1(X), m2(X) -> d(X). @output(d).";
        let program = parse(src).unwrap();
        let engine = Engine::with_config(program, prov_config()).unwrap();
        let (db, _) = engine
            .run_with_facts(&[("b", vec![vec![Value::Int(3)]])])
            .unwrap();
        let t = explain(&db, "d", &[Value::Int(3)]).unwrap();
        let mid_nodes: Vec<&DerivationTree> = t
            .children
            .iter()
            .flat_map(|c| &c.children)
            .filter(|n| n.predicate == "mid")
            .collect();
        assert_eq!(mid_nodes.len(), 2);
        let expanded: Vec<_> = mid_nodes.iter().filter(|n| !n.shared).collect();
        let stubs: Vec<_> = mid_nodes.iter().filter(|n| n.shared).collect();
        assert_eq!((expanded.len(), stubs.len()), (1, 1));
        assert!(!expanded[0].children.is_empty());
        assert!(stubs[0].children.is_empty());
        let text = render(&t, engine.program());
        assert!(
            text.contains("[shared: derived above via rule 0]"),
            "{text}"
        );
    }
}
