//! Close links — GUIDELINE (EU) 2018/876 of the ECB (the paper's third
//! example of an intensional component: *«peculiar forms of financial
//! conflict of interest between graph entities involved in the issuance and
//! use as collateral of asset-backed securities»*).
//!
//! Two entities `x` and `y` are **closely linked** when:
//!
//! 1. `x` owns, directly or indirectly, ≥ 20% of the capital of `y`; or
//! 2. `y` owns, directly or indirectly, ≥ 20% of the capital of `x`; or
//! 3. a third party `z` owns, directly or indirectly, ≥ 20% of both.
//!
//! Built on [`crate::ownership::integrated_ownership`]; the direct-only 20%
//! case is also provided as a MetaLog program for the Algorithm 2 pipeline.

use crate::ownership::IntegratedOwnership;
use kgm_common::{FxHashMap, FxHashSet};
use kgm_pgstore::NodeId;

/// The ECB threshold.
pub const CLOSE_LINK_THRESHOLD: f64 = 0.2;

/// The direct-ownership fragment of close links as a MetaLog program
/// (cases (1)/(2) restricted to one hop), usable with
/// `kgm_core::intensional::materialize` on a schema declaring the
/// intensional `CLOSELY_LINKED` edge.
pub const CLOSE_LINKS_METALOG: &str = r#"
(x: Business)[: OWNS; percentage: w](y: Business), w >= 0.2
    -> (x)[c: CLOSELY_LINKED](y), (y)[d: CLOSELY_LINKED](x).
"#;

/// Compute the full (indirect) close-links relation from an integrated
/// ownership table. Pairs are returned with the lower OID first.
pub fn close_links(io: &IntegratedOwnership) -> FxHashSet<(NodeId, NodeId)> {
    let mut out: FxHashSet<(NodeId, NodeId)> = FxHashSet::default();
    let ordered = |a: NodeId, b: NodeId| if a <= b { (a, b) } else { (b, a) };
    // Cases (1) and (2): a qualifying integrated ownership either way.
    for ((x, y), &p) in io {
        if p >= CLOSE_LINK_THRESHOLD {
            out.insert(ordered(*x, *y));
        }
    }
    // Case (3): common qualifying owner.
    let mut held_by: FxHashMap<NodeId, Vec<NodeId>> = FxHashMap::default();
    for ((x, y), &p) in io {
        if p >= CLOSE_LINK_THRESHOLD {
            held_by.entry(*x).or_default().push(*y);
        }
    }
    for targets in held_by.values() {
        for i in 0..targets.len() {
            for j in (i + 1)..targets.len() {
                out.insert(ordered(targets[i], targets[j]));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ownership::integrated_ownership;
    use kgm_common::Value;
    use kgm_pgstore::PropertyGraph;

    fn graph(edges: &[(usize, usize, f64)], n: usize) -> (PropertyGraph, Vec<NodeId>) {
        let mut g = PropertyGraph::new();
        let ids: Vec<NodeId> = (0..n)
            .map(|i| {
                g.add_node(
                    ["Business"],
                    vec![("pid".to_string(), Value::str(format!("c{i}")))],
                )
                .unwrap()
            })
            .collect();
        for &(f, t, w) in edges {
            g.add_edge(
                ids[f],
                ids[t],
                "OWNS",
                vec![("percentage".to_string(), Value::Float(w))],
            )
            .unwrap();
        }
        (g, ids)
    }

    #[test]
    fn direct_twenty_percent_links() {
        let (g, ids) = graph(&[(0, 1, 0.25), (0, 2, 0.1)], 3);
        let io = integrated_ownership(&g, 1e-12, 100);
        let cl = close_links(&io);
        assert!(cl.contains(&(ids[0], ids[1])));
        assert!(!cl.contains(&(ids[0], ids[2])), "10% is below threshold");
    }

    #[test]
    fn indirect_ownership_counts() {
        // 0 →50% 1 →50% 2 ⇒ IO(0,2) = 25% ≥ 20%.
        let (g, ids) = graph(&[(0, 1, 0.5), (1, 2, 0.5)], 3);
        let io = integrated_ownership(&g, 1e-12, 100);
        let cl = close_links(&io);
        assert!(cl.contains(&(ids[0], ids[2])));
    }

    #[test]
    fn common_owner_creates_a_link_between_siblings() {
        // 0 owns 30% of both 1 and 2: 1 and 2 are closely linked through 0.
        let (g, ids) = graph(&[(0, 1, 0.3), (0, 2, 0.3)], 3);
        let io = integrated_ownership(&g, 1e-12, 100);
        let cl = close_links(&io);
        assert!(cl.contains(&(ids[1], ids[2])));
    }

    #[test]
    fn links_are_symmetric_by_construction() {
        let (g, ids) = graph(&[(1, 0, 0.9)], 2);
        let io = integrated_ownership(&g, 1e-12, 100);
        let cl = close_links(&io);
        assert!(cl.contains(&(ids[0].min(ids[1]), ids[0].max(ids[1]))));
        assert_eq!(cl.len(), 1, "one undirected pair");
    }

    #[test]
    fn metalog_fragment_parses() {
        kgm_metalog::parse_metalog(CLOSE_LINKS_METALOG).unwrap();
    }

    #[test]
    fn metalog_fragment_materializes_direct_links() {
        use kgm_core::intensional::{materialize, MaterializationMode};
        let schema = kgm_core::parse_gsl(
            r#"
            schema T {
              node Person { id pid: string; }
              node Business { }
              generalization Person -> Business;
              edge OWNS: Person [0..N] -> [0..N] Business { percentage: float; }
              intensional edge CLOSELY_LINKED: Business -> Business;
            }
            "#,
        )
        .unwrap();
        let mut g = PropertyGraph::new();
        let mk = |g: &mut PropertyGraph, n: &str| {
            g.add_node(
                ["Business", "Person"],
                vec![("pid".to_string(), Value::str(n))],
            )
            .unwrap()
        };
        let a = mk(&mut g, "a");
        let b = mk(&mut g, "b");
        let c = mk(&mut g, "c");
        g.add_edge(
            a,
            b,
            "OWNS",
            vec![("percentage".to_string(), Value::Float(0.25))],
        )
        .unwrap();
        g.add_edge(
            a,
            c,
            "OWNS",
            vec![("percentage".to_string(), Value::Float(0.1))],
        )
        .unwrap();
        materialize(
            &mut g,
            &schema,
            CLOSE_LINKS_METALOG,
            MaterializationMode::SinglePass,
        )
        .unwrap();
        let links: Vec<(NodeId, NodeId)> = g
            .edges_with_label("CLOSELY_LINKED")
            .into_iter()
            .map(|e| g.edge_endpoints(e))
            .collect();
        // a–b both ways (≥ 20%), nothing for the 10% stake.
        assert_eq!(links.len(), 2);
        assert!(links.contains(&(a, b)));
        assert!(links.contains(&(b, a)));
    }
}
