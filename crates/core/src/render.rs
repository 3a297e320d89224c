//! The rendering functions Γ_MM and Γ_SM (Section 3) as Graphviz DOT
//! emitters.
//!
//! The paper defines an *instance rendering function* Γ_M mapping construct
//! instances to graphemes. Our grapheme vocabulary transliterates Figure 3
//! to DOT:
//!
//! | construct | grapheme |
//! |---|---|
//! | extensional `SM_Node` | solid ellipse |
//! | intensional `SM_Node` | dashed ellipse |
//! | extensional `SM_Edge` | solid labelled arrow with `min..max` cardinalities |
//! | intensional `SM_Edge` | dashed labelled arrow |
//! | mandatory `SM_Attribute` | `● name: type` row (filled lollipop) |
//! | optional `SM_Attribute` | `○ name: type` row (hollow lollipop) |
//! | identifying `SM_Attribute` | `◉ name: type` row (underlined lollipop) |
//! | `SM_Generalization` | point node; `total` = bold parent arrow, `disjoint` = filled arrowhead |
//!
//! Output is deterministic (stable ordering) so diagram artefacts can be
//! compared across runs — the property the `paper-harness` relies on when
//! regenerating Figures 2–4.

use crate::supermodel::{SmAttribute, SuperSchema};
use kgm_pgstore::PropertyGraph;

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn attr_row(a: &SmAttribute) -> String {
    let bullet = if a.is_id {
        "◉"
    } else if a.is_opt {
        "○"
    } else {
        "●"
    };
    let intensional = if a.is_intensional { " (int)" } else { "" };
    let unique = if a
        .modifiers
        .iter()
        .any(|m| matches!(m, crate::supermodel::Modifier::Unique))
    {
        " (U)"
    } else {
        ""
    };
    format!("{bullet} {}: {}{}{}", a.name, a.ty, intensional, unique)
}

/// Γ_SM: render a super-schema (a GSL design diagram such as Figure 4) as
/// DOT.
pub fn render_super_schema(schema: &SuperSchema) -> String {
    let mut out = String::new();
    out.push_str(&format!("digraph \"{}\" {{\n", esc(&schema.name)));
    out.push_str("  rankdir=TB;\n  node [fontname=\"Helvetica\"];\n");
    for n in &schema.nodes {
        let style = if n.is_intensional { "dashed" } else { "solid" };
        let mut label = format!("{}\\n", n.name);
        for a in &n.attributes {
            label.push_str(&esc(&attr_row(a)));
            label.push_str("\\l");
        }
        out.push_str(&format!(
            "  \"{}\" [shape=box, style=\"rounded,{style}\", label=\"{label}\"];\n",
            esc(&n.name)
        ));
    }
    for e in &schema.edges {
        let style = if e.is_intensional { "dashed" } else { "solid" };
        let mut label = format!(
            "{} [{} → {}]",
            e.name,
            e.from_card.display(),
            e.to_card.display()
        );
        for a in &e.attributes {
            label.push_str(&format!("\\n{}", esc(&attr_row(a))));
        }
        out.push_str(&format!(
            "  \"{}\" -> \"{}\" [style={style}, label=\"{}\"];\n",
            esc(&e.from),
            esc(&e.to),
            esc(&label)
        ));
    }
    for (i, g) in schema.generalizations.iter().enumerate() {
        let point = format!("gen_{i}");
        out.push_str(&format!(
            "  \"{point}\" [shape=point, width=0.08, label=\"\"];\n"
        ));
        let parent_style = if g.is_total { "bold" } else { "solid" };
        let arrowhead = if g.is_disjoint { "normal" } else { "empty" };
        out.push_str(&format!(
            "  \"{point}\" -> \"{}\" [style={parent_style}, arrowhead={arrowhead}, \
             label=\"{}{}\"];\n",
            esc(&g.parent),
            if g.is_total { "t" } else { "p" },
            if g.is_disjoint { ",d" } else { ",o" },
        ));
        for c in &g.children {
            out.push_str(&format!("  \"{}\" -> \"{point}\" [dir=none];\n", esc(c)));
        }
    }
    out.push_str("}\n");
    out
}

/// Γ_MM: render a dictionary property graph (the meta-model of Figure 2 or
/// the super-model dictionary of Figure 3) as DOT — labelled circles for
/// nodes, labelled arrows for edges, lollipop rows for properties.
pub fn render_pg(graph: &PropertyGraph, title: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("digraph \"{}\" {{\n", esc(title)));
    out.push_str("  node [fontname=\"Helvetica\", shape=ellipse];\n");
    let mut nodes: Vec<_> = graph.nodes().collect();
    nodes.sort_by_key(|n| graph.node_oid(*n));
    for n in nodes {
        let labels = graph.node_labels(n).join(":");
        let mut props: Vec<(String, kgm_common::Value)> = graph.node_props(n);
        props.sort_by(|a, b| a.0.cmp(&b.0));
        let mut label = labels;
        for (k, v) in props {
            label.push_str(&format!("\\n{k} = {v}"));
        }
        out.push_str(&format!(
            "  n{} [label=\"{}\"];\n",
            graph.node_oid(n).payload(),
            esc(&label)
        ));
    }
    let mut edges: Vec<_> = graph.edges().collect();
    edges.sort_by_key(|e| graph.edge_oid(*e));
    for e in edges {
        let (f, t) = graph.edge_endpoints(e);
        out.push_str(&format!(
            "  n{} -> n{} [label=\"{}\"];\n",
            graph.node_oid(f).payload(),
            graph.node_oid(t).payload(),
            esc(&graph.edge_label(e))
        ));
    }
    out.push_str("}\n");
    out
}

/// The tabular rendering of Γ_SM (the right column of Figure 3): one row
/// per super-construct with its grapheme description.
pub fn gamma_sm_table() -> String {
    let rows: &[(&str, &str, &str)] = &[
        (
            "SM_Node",
            "isIntensional=false",
            "solid ellipse, name from SM_Type",
        ),
        (
            "SM_Node",
            "isIntensional=true",
            "dashed ellipse, name from SM_Type",
        ),
        (
            "SM_Edge",
            "isIntensional=false",
            "solid labelled arrow, cardinalities from isOpt/isFun",
        ),
        (
            "SM_Edge",
            "isIntensional=true",
            "dashed labelled arrow, cardinalities from isOpt/isFun",
        ),
        ("SM_Type", "name", "label text"),
        ("SM_HAS_NODE_PROPERTY", "", "(structural, not drawn)"),
        ("SM_HAS_EDGE_PROPERTY", "", "(structural, not drawn)"),
        ("SM_FROM", "", "(structural, not drawn)"),
        ("SM_TO", "", "(structural, not drawn)"),
        (
            "SM_Attribute",
            "isOpt=false, isId=false",
            "filled lollipop ●",
        ),
        (
            "SM_Attribute",
            "isOpt=true, isId=false",
            "hollow lollipop ○",
        ),
        (
            "SM_Attribute",
            "isOpt=false, isId=true",
            "identifier lollipop ◉",
        ),
        (
            "SM_Generalization",
            "isTotal=true, isDisjoint=true",
            "bold arrow, filled head",
        ),
        (
            "SM_Generalization",
            "isTotal=false, isDisjoint=true",
            "solid arrow, filled head",
        ),
        (
            "SM_Generalization",
            "isTotal=true, isDisjoint=false",
            "bold arrow, hollow head",
        ),
        (
            "SM_Generalization",
            "isTotal=false, isDisjoint=false",
            "solid arrow, hollow head",
        ),
        ("SM_PARENT", "", "(structural, not drawn)"),
        ("SM_CHILD", "", "(structural, not drawn)"),
    ];
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:<32} {}\n",
        "Super-construct", "Attributes", "Grapheme"
    ));
    out.push_str(&"-".repeat(96));
    out.push('\n');
    for (c, a, g) in rows {
        out.push_str(&format!("{c:<22} {a:<32} {g}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsl::parse_gsl;

    fn sample() -> SuperSchema {
        parse_gsl(
            r#"
            schema S {
              node Person { id fiscalCode: string unique; opt birthDate: date; }
              node PhysicalPerson { gender: string; }
              generalization total disjoint Person -> PhysicalPerson;
              intensional node Family;
              intensional edge BELONGS_TO_FAMILY: PhysicalPerson -> Family;
              edge KNOWS: Person [0..N] -> [0..N] Person;
            }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn super_schema_dot_contains_all_graphemes() {
        let dot = render_super_schema(&sample());
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("\"Person\""));
        // Identifier + unique lollipop.
        assert!(dot.contains("◉ fiscalCode: string (U)"), "{dot}");
        // Optional lollipop.
        assert!(dot.contains("○ birthDate: date"));
        // Intensional node dashed.
        assert!(dot.contains("\"Family\" [shape=box, style=\"rounded,dashed\""));
        // Intensional edge dashed; extensional solid with cardinalities.
        assert!(dot.contains("[style=dashed, label=\"BELONGS_TO_FAMILY"));
        assert!(dot.contains("KNOWS [0..N → 0..N]"));
        // Total-disjoint generalization: bold + filled head.
        assert!(dot.contains("style=bold, arrowhead=normal"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = render_super_schema(&sample());
        let b = render_super_schema(&sample());
        assert_eq!(a, b);
    }

    #[test]
    fn pg_rendering_covers_nodes_and_edges() {
        let g = crate::metamodel::meta_model().unwrap();
        let dot = render_pg(&g, "meta-model");
        assert!(dot.contains("MM_Entity"));
        assert!(dot.contains("MM_SOURCE"));
        assert!(dot.contains("MM_HAS_PROPERTY"));
    }

    #[test]
    fn gamma_table_lists_all_construct_rows() {
        let t = gamma_sm_table();
        for c in [
            "SM_Node",
            "SM_Edge",
            "SM_Attribute",
            "SM_Generalization",
            "SM_PARENT",
        ] {
            assert!(t.contains(c), "missing {c}");
        }
        assert!(t.lines().count() >= 18);
    }
}
