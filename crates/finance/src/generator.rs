//! Synthetic shareholding-registry generation.
//!
//! The paper's extensional data comes from the Italian Chambers of Commerce
//! — proprietary. Section 2.1 characterizes its shareholding projection
//! instead: 11.97M nodes, 14.18M edges (≈ 1.185 edges/node), almost all
//! SCCs singletons (cross-ownership cycles are rare but exist, largest SCC
//! 1.9k), a giant WCC with > 6M nodes, average in-degree ≈ 3.12 / out-degree
//! ≈ 1.78 over active nodes, clustering ≈ 0.0086, hub nodes with in-degree
//! up to 16.9k and *«the degree distribution follows a power-law»*.
//!
//! This generator reproduces those properties at configurable scale with a
//! **preferential-attachment** process (Barabási–Albert style, the standard
//! scale-free model the paper cites):
//!
//! - a mix of `Person` and `Business` nodes arrives over time;
//! - each new node places a geometric number of shareholding (`OWNS`) edges
//!   (mean [`ShareholdingConfig::edges_per_node`]) on existing *businesses*
//!   chosen with probability ∝ in-degree + 1 — widely-held companies become
//!   hubs, in-degrees follow a power law;
//! - a small [`ShareholdingConfig::cross_ownership`] fraction of reciprocal
//!   edges creates the rare SCCs of real financial networks;
//! - each company's incoming percentages are normalized so they sum to at
//!   most 1, making control semantics meaningful.

use kgm_common::{Result, Value};
use kgm_pgstore::{EdgeId, NodeId, PropertyGraph};
use kgm_runtime::Rng;

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct ShareholdingConfig {
    /// Total nodes (persons + businesses).
    pub nodes: usize,
    /// Mean outgoing shareholding edges per node (paper ratio ≈ 1.185).
    pub edges_per_node: f64,
    /// Fraction of nodes that are physical persons (never owned).
    pub person_fraction: f64,
    /// Probability that an edge is answered by a reciprocal edge
    /// (cross-ownership, the source of non-trivial SCCs).
    pub cross_ownership: f64,
    /// Fraction of nodes that are institutional investors placing many
    /// holdings — the source of the out-degree tail (§2.1 reports a maximum
    /// out-degree above 5.1k on 11.97M nodes).
    pub institutional_fraction: f64,
    /// Mean holdings of an institutional investor.
    pub institutional_holdings: f64,
    /// RNG seed (generation is fully deterministic given the config).
    pub seed: u64,
}

impl Default for ShareholdingConfig {
    fn default() -> Self {
        ShareholdingConfig {
            nodes: 10_000,
            edges_per_node: 1.185,
            person_fraction: 0.5,
            cross_ownership: 0.002,
            institutional_fraction: 0.002,
            institutional_holdings: 40.0,
            seed: 42,
        }
    }
}

impl ShareholdingConfig {
    /// Convenience constructor with the default calibration.
    pub fn with_nodes(nodes: usize) -> Self {
        ShareholdingConfig {
            nodes,
            ..Default::default()
        }
    }
}

/// Generate a shareholding graph conforming to the
/// [`crate::schema::simple_ownership_schema`] PG translation: multi-labelled
/// `Business`/`Person` nodes with `pid`, and weighted `OWNS` edges.
pub fn generate_shareholding(config: &ShareholdingConfig) -> Result<PropertyGraph> {
    // Telemetry must stay outside the sampling loop: the RNG stream is
    // pinned by a golden test, so instrumentation only observes results.
    let span = kgm_runtime::span!("finance.generate", "{} nodes", config.nodes);
    let mut rng = Rng::seed_from_u64(config.seed);
    let mut g = PropertyGraph::new();
    let mut businesses: Vec<NodeId> = Vec::new();
    // Repeated-node list for O(1) preferential sampling: a business appears
    // once per incoming edge (+1 baseline from creation).
    let mut attachment_pool: Vec<NodeId> = Vec::new();
    let mut all: Vec<NodeId> = Vec::with_capacity(config.nodes);
    // Each edge's drawn weight by edge id, and each node's running sum of
    // its incoming ones, for `normalize_percentages`.
    let mut weights: Vec<f64> = Vec::new();
    let mut incoming: Vec<f64> = Vec::with_capacity(config.nodes);

    for i in 0..config.nodes {
        let is_person = rng.gen_bool(config.person_fraction.clamp(0.0, 1.0));
        let node = if is_person {
            g.add_node(
                ["Person"],
                vec![("pid".to_string(), Value::str(format!("P{i}")))],
            )?
        } else {
            let n = g.add_node(
                ["Business", "Person"],
                vec![("pid".to_string(), Value::str(format!("B{i}")))],
            )?;
            businesses.push(n);
            attachment_pool.push(n);
            n
        };
        all.push(node);
        incoming.push(0.0);
        if businesses.is_empty() {
            continue;
        }
        // Geometric number of holdings with the configured mean;
        // institutional investors place far more (the out-degree tail).
        let institutional = rng.gen_bool(config.institutional_fraction.clamp(0.0, 1.0));
        let mean = if institutional {
            config.institutional_holdings
        } else {
            config.edges_per_node
        };
        let p = 1.0 / (1.0 + mean);
        let cap = if institutional { 4096 } else { 64 };
        let mut holdings = 0usize;
        while rng.gen_bool(1.0 - p) && holdings < cap {
            holdings += 1;
        }
        for _ in 0..holdings {
            let target = attachment_pool[rng.gen_range(0..attachment_pool.len())];
            if target == node {
                continue;
            }
            // The percentage is written once, normalized, at the end.
            let mut owns = |from: NodeId, to: NodeId, w: f64| -> Result<()> {
                g.add_edge(from, to, "OWNS", Vec::new())?;
                weights.push(w);
                incoming[to.0 as usize] += w;
                Ok(())
            };
            owns(node, target, rng.gen_range(0.01..1.0))?;
            attachment_pool.push(target);
            // Rare reciprocal (cross-ownership) edge from businesses only.
            if !is_person && rng.gen_bool(config.cross_ownership.clamp(0.0, 1.0)) {
                owns(target, node, rng.gen_range(0.01..0.3))?;
                attachment_pool.push(node);
            }
        }
    }

    {
        let _s = kgm_runtime::span!("finance.normalize");
        normalize_percentages(&mut g, &mut rng, &weights, &incoming)?;
    }
    if span.is_active() {
        kgm_runtime::telemetry::record("nodes", g.node_count() as i64);
        kgm_runtime::telemetry::record("edges", g.edge_count() as i64);
    }
    kgm_runtime::telemetry::counter_add("finance.graphs_generated", 1);
    kgm_runtime::telemetry::histogram_record("finance.graph_edges", g.edge_count() as u64);
    Ok(g)
}

/// Rescale each company's incoming `OWNS` percentages so they sum to a
/// random total in `[0.55, 1.0]` — most companies have a well-defined
/// majority structure, as in a real registry.
///
/// `weights[e]` is edge `e`'s drawn weight and `incoming[n]` the sum of node
/// `n`'s incoming ones, added in edge order as the edges were made. Totals
/// are drawn per owned company in node order, and each edge's `percentage`
/// property is set once, to its weight's share of the total.
fn normalize_percentages(
    g: &mut PropertyGraph,
    rng: &mut Rng,
    weights: &[f64],
    incoming: &[f64],
) -> Result<()> {
    let totals: Vec<f64> = incoming
        .iter()
        .map(|&sum| {
            if sum > 0.0 {
                rng.gen_range(0.55..1.0)
            } else {
                0.0
            }
        })
        .collect();
    for (e, &w) in weights.iter().enumerate() {
        let e = EdgeId(e as u32);
        let to = g.edge_endpoints(e).1 .0 as usize;
        g.set_edge_prop(e, "percentage", Value::Float(w / incoming[to] * totals[to]))?;
    }
    Ok(())
}

/// Extract the weighted ownership edges as `(owner, owned, percentage)`
/// OID triples — the input shape of the baseline algorithms.
pub fn ownership_triples(g: &PropertyGraph) -> Vec<(NodeId, NodeId, f64)> {
    g.edges_with_label("OWNS")
        .into_iter()
        .map(|e| {
            let (f, t) = g.edge_endpoints(e);
            let w = g
                .edge_prop(e, "percentage")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            (f, t, w)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgm_pgstore::algo::EdgeFilter;
    use kgm_pgstore::GraphStats;

    #[test]
    fn generation_is_deterministic() {
        let cfg = ShareholdingConfig::with_nodes(500);
        let a = generate_shareholding(&cfg).unwrap();
        let b = generate_shareholding(&cfg).unwrap();
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        let (na, ea) = kgm_pgstore::csv::export(&a);
        let (nb, eb) = kgm_pgstore::csv::export(&b);
        assert_eq!(na, nb);
        assert_eq!(ea, eb);
    }

    #[test]
    fn generation_is_pinned_across_releases() {
        // Golden fingerprint under the workspace PRNG (kgm-runtime
        // xoshiro256**, seed 42): counts plus the first ten `pid`s, which
        // encode the person/business coin flips and therefore the whole
        // early RNG stream. If this fails, the generator or the PRNG
        // changed and every published experiment number shifts with it.
        let g = generate_shareholding(&ShareholdingConfig::with_nodes(1_000)).unwrap();
        let pids: Vec<&str> = g
            .nodes()
            .take(10)
            .map(|n| g.node_prop(n, "pid").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(
            (g.node_count(), g.edge_count()),
            (1_000, 1_117),
            "node/edge counts moved"
        );
        assert_eq!(
            pids,
            ["P0", "P1", "B2", "B3", "B4", "P5", "B6", "P7", "P8", "P9"],
            "early RNG stream moved"
        );
    }

    #[test]
    fn edge_node_ratio_matches_calibration() {
        let cfg = ShareholdingConfig::with_nodes(20_000);
        let g = generate_shareholding(&cfg).unwrap();
        let ratio = g.edge_count() as f64 / g.node_count() as f64;
        assert!(
            (ratio - 1.185).abs() < 0.3,
            "edges/node = {ratio}, expected ≈ 1.185"
        );
    }

    /// The E7/E8 registry experiments and the `paper-harness scale-smoke`
    /// CI gate generate graphs at 100k–1M+ nodes, which only works because
    /// preferential attachment is implemented with the O(n) repeated-
    /// endpoints pool rather than a per-edge degree rescan. Pin the
    /// registry-fraction case: a 150k-node graph must come out with the
    /// same calibrated edge ratio as the small graphs (no size-dependent
    /// drift) and the E7 control-pipeline config must stay generable too.
    #[test]
    fn generation_scales_to_registry_fractions() {
        let g = generate_shareholding(&ShareholdingConfig {
            nodes: 150_000,
            person_fraction: 0.3,
            cross_ownership: 0.01,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(g.node_count(), 150_000);
        let ratio = g.edge_count() as f64 / g.node_count() as f64;
        assert!(
            (1.0..1.6).contains(&ratio),
            "edges/node = {ratio} at 150k nodes, expected the small-graph \
             calibration to hold"
        );
    }

    #[test]
    fn institutional_investors_create_the_out_degree_tail() {
        let with = generate_shareholding(&ShareholdingConfig {
            nodes: 10_000,
            institutional_fraction: 0.01,
            institutional_holdings: 100.0,
            ..Default::default()
        })
        .unwrap();
        let without = generate_shareholding(&ShareholdingConfig {
            nodes: 10_000,
            institutional_fraction: 0.0,
            ..Default::default()
        })
        .unwrap();
        let max_out =
            |g: &kgm_pgstore::PropertyGraph| g.nodes().map(|n| g.degree(n).0).max().unwrap_or(0);
        assert!(
            max_out(&with) > 2 * max_out(&without),
            "institutional investors must dominate the out-degree tail: {} vs {}",
            max_out(&with),
            max_out(&without)
        );
    }

    #[test]
    fn percentages_are_normalized_below_one() {
        let g = generate_shareholding(&ShareholdingConfig::with_nodes(2_000)).unwrap();
        for n in g.nodes() {
            let sum: f64 = g
                .incident_edges(n, kgm_pgstore::Direction::Incoming)
                .into_iter()
                .filter(|&e| g.edge_label(e) == "OWNS")
                .map(|e| {
                    g.edge_prop(e, "percentage")
                        .and_then(Value::as_f64)
                        .unwrap()
                })
                .sum();
            assert!(sum <= 1.0 + 1e-9, "incoming shares sum to {sum}");
        }
    }

    #[test]
    fn only_businesses_are_owned() {
        let g = generate_shareholding(&ShareholdingConfig::with_nodes(2_000)).unwrap();
        for e in g.edges_with_label("OWNS") {
            let (_, t) = g.edge_endpoints(e);
            assert!(g.node_has_label(t, "Business"));
        }
    }

    #[test]
    fn topology_is_scale_free_shaped() {
        // The qualitative Section 2.1 shape at small scale: singleton-ish
        // SCCs, a dominant WCC, small clustering, a heavy-tailed in-degree.
        let g = generate_shareholding(&ShareholdingConfig::with_nodes(8_000)).unwrap();
        let stats = GraphStats::compute(&g, &EdgeFilter::label("OWNS"));
        assert!(
            stats.scc_count as f64 >= 0.99 * stats.nodes as f64,
            "almost all SCCs are singletons: {} vs {}",
            stats.scc_count,
            stats.nodes
        );
        assert!(
            stats.largest_wcc as f64 > 0.3 * stats.nodes as f64,
            "a giant weak component exists ({} of {})",
            stats.largest_wcc,
            stats.nodes
        );
        assert!(
            stats.clustering_coefficient < 0.05,
            "clustering is tiny: {}",
            stats.clustering_coefficient
        );
        assert!(
            stats.max_in_degree > 20,
            "hubs emerge: max in-degree {}",
            stats.max_in_degree
        );
        let alpha = stats.power_law_alpha.expect("estimable");
        assert!(
            (1.5..4.5).contains(&alpha),
            "power-law exponent in a plausible range: {alpha}"
        );
    }

    #[test]
    fn cross_ownership_produces_nontrivial_sccs() {
        let cfg = ShareholdingConfig {
            nodes: 4_000,
            cross_ownership: 0.2,
            person_fraction: 0.2,
            ..Default::default()
        };
        let g = generate_shareholding(&cfg).unwrap();
        let stats = GraphStats::compute(&g, &EdgeFilter::label("OWNS"));
        assert!(
            stats.largest_scc > 1,
            "reciprocal edges must create a cycle (largest SCC = {})",
            stats.largest_scc
        );
    }

    #[test]
    fn ownership_triples_match_edges() {
        let g = generate_shareholding(&ShareholdingConfig::with_nodes(300)).unwrap();
        let triples = ownership_triples(&g);
        assert_eq!(triples.len(), g.edges_with_label("OWNS").len());
        assert!(triples.iter().all(|(_, _, w)| *w > 0.0 && *w <= 1.0));
    }
}
