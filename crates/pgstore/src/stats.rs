//! Aggregate topology statistics — the Section 2.1 "table".
//!
//! The paper characterizes the Central Bank of Italy shareholding graph with
//! the measures collected in [`GraphStats`]. The `paper-harness e1` binary
//! prints this structure side by side with the paper's reported values.

use crate::algo::{
    average_clustering_coefficient, power_law_alpha, strongly_connected_components,
    weakly_connected_components, EdgeFilter,
};
use crate::graph::PropertyGraph;

/// The topology statistics reported in Section 2.1 of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of (live) nodes.
    pub nodes: usize,
    /// Number of (live) edges matching the filter.
    pub edges: usize,
    /// Number of strongly connected components.
    pub scc_count: usize,
    /// Size of the largest SCC.
    pub largest_scc: usize,
    /// Number of weakly connected components.
    pub wcc_count: usize,
    /// Size of the largest WCC.
    pub largest_wcc: usize,
    /// Average in-degree (== average out-degree in a directed graph; the
    /// paper reports them over different node subsets, we report edges/nodes
    /// for "avg out" and in-degree over nodes with ≥1 in-edge for "avg in",
    /// matching the asymmetry of the paper's ≈3.12 vs ≈1.78 figures).
    pub avg_in_degree: f64,
    /// Average out-degree over nodes with at least one outgoing edge.
    pub avg_out_degree: f64,
    /// Maximum in-degree.
    pub max_in_degree: usize,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Average local clustering coefficient.
    pub clustering_coefficient: f64,
    /// MLE power-law exponent of the total-degree distribution (if defined).
    pub power_law_alpha: Option<f64>,
}

impl GraphStats {
    /// Compute every statistic over the sub-graph selected by `filter`.
    pub fn compute(g: &PropertyGraph, filter: &EdgeFilter) -> GraphStats {
        let sccs = strongly_connected_components(g, filter);
        let wccs = weakly_connected_components(g, filter);

        let mut edges = 0usize;
        let mut in_deg: Vec<usize> = Vec::new();
        let mut out_deg: Vec<usize> = Vec::new();
        let mut total_deg: Vec<usize> = Vec::new();
        for n in g.nodes() {
            let (mut o, mut i) = (0usize, 0usize);
            for e in g.incident_edges(n, crate::graph::Direction::Outgoing) {
                if filter.admits(g, e) {
                    o += 1;
                }
            }
            for e in g.incident_edges(n, crate::graph::Direction::Incoming) {
                if filter.admits(g, e) {
                    i += 1;
                }
            }
            edges += o;
            in_deg.push(i);
            out_deg.push(o);
            total_deg.push(i + o);
        }

        let avg_over_positive = |d: &[usize]| {
            let (sum, n) = d
                .iter()
                .filter(|&&k| k > 0)
                .fold((0usize, 0usize), |(s, c), &k| (s + k, c + 1));
            if n == 0 {
                0.0
            } else {
                sum as f64 / n as f64
            }
        };

        GraphStats {
            nodes: g.node_count(),
            edges,
            scc_count: sccs.len(),
            largest_scc: sccs.iter().map(|c| c.len()).max().unwrap_or(0),
            wcc_count: wccs.len(),
            largest_wcc: wccs.iter().map(|c| c.len()).max().unwrap_or(0),
            avg_in_degree: avg_over_positive(&in_deg),
            avg_out_degree: avg_over_positive(&out_deg),
            max_in_degree: in_deg.iter().copied().max().unwrap_or(0),
            max_out_degree: out_deg.iter().copied().max().unwrap_or(0),
            clustering_coefficient: average_clustering_coefficient(g, filter),
            power_law_alpha: power_law_alpha(&total_deg, 2),
        }
    }
}

/// In-degree histogram of the filtered sub-graph: `(degree, node count)`
/// pairs sorted by degree — the data behind the paper's *"degree
/// distribution follows a power-law"* claim. Plot log(count) vs log(degree)
/// to see the straight line.
pub fn in_degree_histogram(
    g: &PropertyGraph,
    filter: &crate::algo::EdgeFilter,
) -> Vec<(usize, usize)> {
    use kgm_common::FxHashMap;
    let mut hist: FxHashMap<usize, usize> = FxHashMap::default();
    for n in g.nodes() {
        let k = g
            .incident_edges(n, crate::graph::Direction::Incoming)
            .into_iter()
            .filter(|&e| filter.admits(g, e))
            .count();
        *hist.entry(k).or_insert(0) += 1;
    }
    let mut out: Vec<(usize, usize)> = hist.into_iter().collect();
    out.sort_unstable();
    out
}

/// Render the histogram as a log-log table with an ASCII bar per row
/// (skipping degree 0, which has no log).
pub fn degree_distribution_table(hist: &[(usize, usize)]) -> String {
    let mut out = String::new();
    out.push_str("degree    count   log10(k)  log10(n)  
");
    for &(k, n) in hist {
        if k == 0 {
            continue;
        }
        let bar = "#".repeat(((n as f64).log10().max(0.0) * 8.0) as usize + 1);
        out.push_str(&format!(
            "{k:>6} {n:>8} {:>9.2} {:>9.2}  {bar}
",
            (k as f64).log10(),
            (n as f64).log10()
        ));
    }
    out
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "nodes                 {:>12}", self.nodes)?;
        writeln!(f, "edges                 {:>12}", self.edges)?;
        writeln!(f, "SCCs                  {:>12}", self.scc_count)?;
        writeln!(f, "largest SCC           {:>12}", self.largest_scc)?;
        writeln!(f, "WCCs                  {:>12}", self.wcc_count)?;
        writeln!(f, "largest WCC           {:>12}", self.largest_wcc)?;
        writeln!(f, "avg in-degree         {:>12.2}", self.avg_in_degree)?;
        writeln!(f, "avg out-degree        {:>12.2}", self.avg_out_degree)?;
        writeln!(f, "max in-degree         {:>12}", self.max_in_degree)?;
        writeln!(f, "max out-degree        {:>12}", self.max_out_degree)?;
        writeln!(
            f,
            "clustering coeff.     {:>12.4}",
            self.clustering_coefficient
        )?;
        match self.power_law_alpha {
            Some(a) => writeln!(f, "power-law α (MLE)     {a:>12.2}"),
            None => writeln!(f, "power-law α (MLE)              n/a"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_a_small_dag() {
        let mut g = PropertyGraph::new();
        let a = g.add_node(["N"], vec![]).unwrap();
        let b = g.add_node(["N"], vec![]).unwrap();
        let c = g.add_node(["N"], vec![]).unwrap();
        g.add_edge(a, b, "OWNS", vec![]).unwrap();
        g.add_edge(a, c, "OWNS", vec![]).unwrap();
        g.add_edge(b, c, "OWNS", vec![]).unwrap();
        let s = GraphStats::compute(&g, &EdgeFilter::all());
        assert_eq!(s.nodes, 3);
        assert_eq!(s.edges, 3);
        assert_eq!(s.scc_count, 3);
        assert_eq!(s.largest_scc, 1);
        assert_eq!(s.wcc_count, 1);
        assert_eq!(s.largest_wcc, 3);
        assert_eq!(s.max_out_degree, 2);
        assert_eq!(s.max_in_degree, 2);
        // a has out 2, b has out 1 → avg over positive = 1.5
        assert!((s.avg_out_degree - 1.5).abs() < 1e-12);
        // b has in 1, c has in 2 → 1.5
        assert!((s.avg_in_degree - 1.5).abs() < 1e-12);
    }

    #[test]
    fn filter_restricts_edge_counts() {
        let mut g = PropertyGraph::new();
        let a = g.add_node(["N"], vec![]).unwrap();
        let b = g.add_node(["N"], vec![]).unwrap();
        g.add_edge(a, b, "OWNS", vec![]).unwrap();
        g.add_edge(a, b, "HAS_ROLE", vec![]).unwrap();
        let all = GraphStats::compute(&g, &EdgeFilter::all());
        let owns = GraphStats::compute(&g, &EdgeFilter::label("OWNS"));
        assert_eq!(all.edges, 2);
        assert_eq!(owns.edges, 1);
    }

    #[test]
    fn empty_graph_stats_are_zero() {
        let g = PropertyGraph::new();
        let s = GraphStats::compute(&g, &EdgeFilter::all());
        assert_eq!(s.nodes, 0);
        assert_eq!(s.edges, 0);
        assert_eq!(s.avg_in_degree, 0.0);
        assert!(s.power_law_alpha.is_none());
    }

    #[test]
    fn in_degree_histogram_counts_correctly() {
        let mut g = PropertyGraph::new();
        let a = g.add_node(["N"], vec![]).unwrap();
        let b = g.add_node(["N"], vec![]).unwrap();
        let c = g.add_node(["N"], vec![]).unwrap();
        g.add_edge(a, c, "E", vec![]).unwrap();
        g.add_edge(b, c, "E", vec![]).unwrap();
        let hist = in_degree_histogram(&g, &EdgeFilter::all());
        // a, b have in-degree 0; c has in-degree 2.
        assert_eq!(hist, vec![(0, 2), (2, 1)]);
        let table = degree_distribution_table(&hist);
        assert!(table.contains("log10"));
        assert!(!table.contains("
     0"), "degree 0 skipped");
    }

    #[test]
    fn display_is_complete() {
        let g = PropertyGraph::new();
        let s = GraphStats::compute(&g, &EdgeFilter::all());
        let text = s.to_string();
        for key in ["nodes", "SCCs", "WCCs", "clustering", "power-law"] {
            assert!(text.contains(key), "missing {key} in\n{text}");
        }
    }
}
