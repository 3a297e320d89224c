//! Integrated ownership (Section 2.1 cites Romei–Ruggieri–Turini, "The
//! layered structure of company share networks").
//!
//! The integrated ownership of `x` in `y` is the total share `x` owns in
//! `y` *directly and indirectly throughout the whole graph*: the sum over
//! all ownership paths of the product of the percentages along the path —
//! the geometric series `IO = W + W² + W³ + …` of the direct-ownership
//! matrix `W`. Because each company's incoming shares sum to ≤ 1, the
//! series converges even through cross-ownership cycles.
//!
//! Computed by sparse fixpoint iteration `IO ← W + IO·W` with an absolute
//! tolerance, per source node.

use kgm_common::{FxHashMap, FxHashSet};
use kgm_pgstore::{NodeId, PropertyGraph};

/// Sparse integrated-ownership result: `(owner, owned) → share`.
pub type IntegratedOwnership = FxHashMap<(NodeId, NodeId), f64>;

/// Compute integrated ownership over the `OWNS` edges of `g`.
///
/// `tolerance` bounds the truncation error per entry; `max_rounds` is a
/// safety cap (a round multiplies by `W` once).
pub fn integrated_ownership(
    g: &PropertyGraph,
    tolerance: f64,
    max_rounds: usize,
) -> IntegratedOwnership {
    // W as adjacency: owner → [(owned, pct)], parallel edges collapsed by
    // summation (two distinct share packages both count here — unlike
    // control's contributor semantics, integrated ownership is additive).
    let mut w: FxHashMap<NodeId, FxHashMap<NodeId, f64>> = FxHashMap::default();
    for e in g.edges_with_label("OWNS") {
        let (f, t) = g.edge_endpoints(e);
        let pct = g
            .edge_prop(e, "percentage")
            .and_then(kgm_common::Value::as_f64)
            .unwrap_or(0.0);
        *w.entry(f).or_default().entry(t).or_insert(0.0) += pct;
    }
    let sources: Vec<NodeId> = w.keys().copied().collect();
    let mut io: IntegratedOwnership = FxHashMap::default();
    for &x in &sources {
        // Per-source geometric series: frontier holds the path-products of
        // the current length.
        let mut total: FxHashMap<NodeId, f64> = FxHashMap::default();
        let mut frontier: FxHashMap<NodeId, f64> = FxHashMap::default();
        frontier.insert(x, 1.0);
        for _ in 0..max_rounds {
            let mut next: FxHashMap<NodeId, f64> = FxHashMap::default();
            for (&z, &p) in &frontier {
                if let Some(holdings) = w.get(&z) {
                    for (&y, &pct) in holdings {
                        *next.entry(y).or_insert(0.0) += p * pct;
                    }
                }
            }
            let mut mass = 0.0f64;
            for (&y, &p) in &next {
                *total.entry(y).or_insert(0.0) += p;
                mass = mass.max(p);
            }
            frontier = next;
            if mass < tolerance {
                break;
            }
        }
        for (y, p) in total {
            if y != x && p > tolerance {
                io.insert((x, y), p);
            }
        }
    }
    io
}

/// Companies in which `owner` integrally owns at least `threshold`.
pub fn majority_integrated(
    io: &IntegratedOwnership,
    owner: NodeId,
    threshold: f64,
) -> FxHashSet<NodeId> {
    io.iter()
        .filter(|((x, _), &p)| *x == owner && p >= threshold)
        .map(|((_, y), _)| *y)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgm_common::Value;

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
    fn direct_ownership_is_reported() {
        let (g, ids) = graph(&[(0, 1, 0.4)], 2);
        let io = integrated_ownership(&g, 1e-9, 100);
        assert!((io[&(ids[0], ids[1])] - 0.4).abs() < 1e-9);
    }

    #[test]
    fn indirect_ownership_multiplies_along_paths() {
        // 0 →50% 1 →40% 2 ⇒ IO(0,2) = 0.2.
        let (g, ids) = graph(&[(0, 1, 0.5), (1, 2, 0.4)], 3);
        let io = integrated_ownership(&g, 1e-12, 100);
        assert!((io[&(ids[0], ids[2])] - 0.2).abs() < 1e-9);
    }

    #[test]
    fn parallel_paths_add_up() {
        // 0 →30% 2 directly plus 0 →50% 1 →40% 2 ⇒ 0.3 + 0.2 = 0.5.
        let (g, ids) = graph(&[(0, 2, 0.3), (0, 1, 0.5), (1, 2, 0.4)], 3);
        let io = integrated_ownership(&g, 1e-12, 100);
        assert!((io[&(ids[0], ids[2])] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn cycles_converge_to_the_geometric_limit() {
        // 0 →60% 1, 1 →50% 0 (cross-ownership): IO(0,1) = 0.6·Σ(0.3)^k =
        // 0.6 / (1 − 0.3) ≈ 0.857142…
        let (g, ids) = graph(&[(0, 1, 0.6), (1, 0, 0.5)], 2);
        let io = integrated_ownership(&g, 1e-12, 10_000);
        assert!(
            (io[&(ids[0], ids[1])] - 0.6 / 0.7).abs() < 1e-6,
            "got {}",
            io[&(ids[0], ids[1])]
        );
    }

    #[test]
    fn majority_threshold_query() {
        let (g, ids) = graph(&[(0, 1, 0.6), (1, 2, 0.9)], 3);
        let io = integrated_ownership(&g, 1e-12, 100);
        let maj = majority_integrated(&io, ids[0], 0.5);
        assert!(maj.contains(&ids[1]));
        assert!(maj.contains(&ids[2]), "0.54 integrated in company 2");
        assert_eq!(majority_integrated(&io, ids[2], 0.5).len(), 0);
    }

    #[test]
    fn tolerance_prunes_negligible_entries() {
        let (g, ids) = graph(&[(0, 1, 0.001)], 2);
        let io = integrated_ownership(&g, 0.01, 100);
        assert!(!io.contains_key(&(ids[0], ids[1])));
    }
}
