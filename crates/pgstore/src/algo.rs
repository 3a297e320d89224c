//! Graph algorithms backing the Section 2.1 topology statistics.
//!
//! The paper characterizes the Bank of Italy shareholding graph by its
//! strongly/weakly connected components, degree statistics and clustering
//! coefficient. These algorithms compute the same measures on any
//! [`PropertyGraph`] (optionally restricted to one edge label, since the
//! paper's numbers are for the plain shareholding sub-graph).

use crate::graph::{Direction, EdgeId, NodeId, PropertyGraph};
use kgm_common::{FxHashMap, FxHashSet};

/// A restriction of a graph to the edges carrying one label (or all).
#[derive(Debug, Clone, Default)]
pub struct EdgeFilter {
    /// Only traverse edges with this label; `None` means all edges.
    pub label: Option<String>,
}

impl EdgeFilter {
    /// Traverse every edge.
    pub fn all() -> Self {
        EdgeFilter::default()
    }

    /// Traverse only edges labelled `label`.
    pub fn label(label: impl Into<String>) -> Self {
        EdgeFilter {
            label: Some(label.into()),
        }
    }

    /// True if edge `e` passes the filter. Compares interned symbols, so no
    /// label string is built per edge.
    pub(crate) fn admits(&self, g: &PropertyGraph, e: EdgeId) -> bool {
        self.label
            .as_ref()
            .is_none_or(|l| g.interner().get(l) == Some(g.edge_label_sym(e)))
    }

    fn out_neighbors(&self, g: &PropertyGraph, n: NodeId) -> Vec<NodeId> {
        g.incident_edges(n, Direction::Outgoing)
            .into_iter()
            .filter(|&e| self.admits(g, e))
            .map(|e| g.edge_endpoints(e).1)
            .collect()
    }

    fn und_neighbors(&self, g: &PropertyGraph, n: NodeId) -> Vec<NodeId> {
        g.incident_edges(n, Direction::Both)
            .into_iter()
            .filter(|&e| self.admits(g, e))
            .map(|e| {
                let (f, t) = g.edge_endpoints(e);
                if f == n {
                    t
                } else {
                    f
                }
            })
            .collect()
    }
}

/// Strongly connected components via an iterative Tarjan algorithm.
///
/// Returns one `Vec<NodeId>` per component; components appear in reverse
/// topological order of the condensation (Tarjan's natural output order).
pub fn strongly_connected_components(g: &PropertyGraph, filter: &EdgeFilter) -> Vec<Vec<NodeId>> {
    #[derive(Clone, Copy)]
    struct Frame {
        node: NodeId,
        next_child: usize,
    }

    let mut index: FxHashMap<NodeId, u32> = FxHashMap::default();
    let mut lowlink: FxHashMap<NodeId, u32> = FxHashMap::default();
    let mut on_stack: FxHashSet<NodeId> = FxHashSet::default();
    let mut stack: Vec<NodeId> = Vec::new();
    let mut components: Vec<Vec<NodeId>> = Vec::new();
    let mut counter: u32 = 0;
    let mut adj_cache: FxHashMap<NodeId, Vec<NodeId>> = FxHashMap::default();

    for root in g.nodes() {
        if index.contains_key(&root) {
            continue;
        }
        let mut call_stack = vec![Frame {
            node: root,
            next_child: 0,
        }];
        index.insert(root, counter);
        lowlink.insert(root, counter);
        counter += 1;
        stack.push(root);
        on_stack.insert(root);

        while let Some(frame) = call_stack.last_mut() {
            let v = frame.node;
            let children = adj_cache
                .entry(v)
                .or_insert_with(|| filter.out_neighbors(g, v));
            if frame.next_child < children.len() {
                let w = children[frame.next_child];
                frame.next_child += 1;
                if let Some(&wi) = index.get(&w) {
                    if on_stack.contains(&w) {
                        let low = lowlink[&v].min(wi);
                        lowlink.insert(v, low);
                    }
                } else {
                    index.insert(w, counter);
                    lowlink.insert(w, counter);
                    counter += 1;
                    stack.push(w);
                    on_stack.insert(w);
                    call_stack.push(Frame {
                        node: w,
                        next_child: 0,
                    });
                }
            } else {
                // Post-order: pop and propagate lowlink to parent.
                let finished = call_stack.pop().expect("frame exists");
                let v = finished.node;
                if let Some(parent) = call_stack.last() {
                    let low = lowlink[&parent.node].min(lowlink[&v]);
                    lowlink.insert(parent.node, low);
                }
                if lowlink[&v] == index[&v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("scc stack underflow");
                        on_stack.remove(&w);
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    components.push(comp);
                }
            }
        }
    }
    components
}

/// Weakly connected components via union-find with path halving and union by
/// size.
pub fn weakly_connected_components(g: &PropertyGraph, filter: &EdgeFilter) -> Vec<Vec<NodeId>> {
    let nodes: Vec<NodeId> = g.nodes().collect();
    let mut slot: FxHashMap<NodeId, usize> = FxHashMap::default();
    for (i, &n) in nodes.iter().enumerate() {
        slot.insert(n, i);
    }
    let mut parent: Vec<usize> = (0..nodes.len()).collect();
    let mut size: Vec<usize> = vec![1; nodes.len()];

    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]]; // path halving
            x = parent[x];
        }
        x
    }

    for e in g.edges() {
        if !filter.admits(g, e) {
            continue;
        }
        let (f, t) = g.edge_endpoints(e);
        let (mut a, mut b) = (find(&mut parent, slot[&f]), find(&mut parent, slot[&t]));
        if a != b {
            if size[a] < size[b] {
                std::mem::swap(&mut a, &mut b);
            }
            parent[b] = a;
            size[a] += size[b];
        }
    }

    let mut comps: FxHashMap<usize, Vec<NodeId>> = FxHashMap::default();
    for (i, &n) in nodes.iter().enumerate() {
        comps.entry(find(&mut parent, i)).or_default().push(n);
    }
    comps.into_values().collect()
}

/// Average local clustering coefficient of the undirected simple projection.
///
/// `C_i = 2·T_i / (k_i·(k_i−1))` where `T_i` counts links among the distinct
/// neighbours of `i`; nodes of degree < 2 contribute 0, and the average runs
/// over all nodes (the convention under which the paper reports ≈ 0.0086).
pub fn average_clustering_coefficient(g: &PropertyGraph, filter: &EdgeFilter) -> f64 {
    let mut neigh: FxHashMap<NodeId, FxHashSet<NodeId>> = FxHashMap::default();
    for n in g.nodes() {
        let set: FxHashSet<NodeId> = filter
            .und_neighbors(g, n)
            .into_iter()
            .filter(|&m| m != n) // ignore self loops
            .collect();
        neigh.insert(n, set);
    }
    let mut total = 0.0f64;
    let mut count = 0usize;
    for (n, ns) in &neigh {
        count += 1;
        let k = ns.len();
        if k < 2 {
            continue;
        }
        let mut links = 0usize;
        let members: Vec<NodeId> = ns.iter().copied().collect();
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                if neigh[&members[i]].contains(&members[j]) {
                    links += 1;
                }
            }
        }
        let _ = n;
        total += (2.0 * links as f64) / (k as f64 * (k as f64 - 1.0));
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Maximum-likelihood estimate of a discrete power-law exponent
/// `α ≈ 1 + n / Σ ln(k_i / (k_min − ½))` over the degrees ≥ `k_min`.
///
/// Used to verify the scale-free claim of Section 2.1 on generated graphs.
pub fn power_law_alpha(degrees: &[usize], k_min: usize) -> Option<f64> {
    let k_min = k_min.max(1);
    let tail: Vec<f64> = degrees
        .iter()
        .filter(|&&k| k >= k_min)
        .map(|&k| k as f64)
        .collect();
    if tail.len() < 2 {
        return None;
    }
    let denom: f64 = tail
        .iter()
        .map(|&k| (k / (k_min as f64 - 0.5)).ln())
        .sum();
    if denom <= 0.0 {
        return None;
    }
    Some(1.0 + tail.len() as f64 / denom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgm_common::Value;

    fn line(n: usize) -> (PropertyGraph, Vec<NodeId>) {
        let mut g = PropertyGraph::new();
        let ids: Vec<NodeId> = (0..n)
            .map(|i| {
                g.add_node(["N"], vec![("i".to_string(), Value::Int(i as i64))])
                    .unwrap()
            })
            .collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], "E", vec![]).unwrap();
        }
        (g, ids)
    }

    #[test]
    fn scc_of_a_line_is_singletons() {
        let (g, ids) = line(5);
        let sccs = strongly_connected_components(&g, &EdgeFilter::all());
        assert_eq!(sccs.len(), ids.len());
        assert!(sccs.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn scc_detects_cycles() {
        let (mut g, ids) = line(5);
        // Close a cycle over the first three nodes.
        g.add_edge(ids[2], ids[0], "E", vec![]).unwrap();
        let sccs = strongly_connected_components(&g, &EdgeFilter::all());
        assert_eq!(sccs.len(), 3); // {0,1,2}, {3}, {4}
        let largest = sccs.iter().map(|c| c.len()).max().unwrap();
        assert_eq!(largest, 3);
    }

    #[test]
    fn scc_respects_edge_filter() {
        let (mut g, ids) = line(3);
        g.add_edge(ids[2], ids[0], "OTHER", vec![]).unwrap();
        let all = strongly_connected_components(&g, &EdgeFilter::all());
        assert_eq!(all.len(), 1);
        let only_e = strongly_connected_components(&g, &EdgeFilter::label("E"));
        assert_eq!(only_e.len(), 3);
    }

    #[test]
    fn wcc_merges_across_direction() {
        let mut g = PropertyGraph::new();
        let a = g.add_node(["N"], vec![]).unwrap();
        let b = g.add_node(["N"], vec![]).unwrap();
        let c = g.add_node(["N"], vec![]).unwrap();
        let d = g.add_node(["N"], vec![]).unwrap();
        g.add_edge(a, b, "E", vec![]).unwrap();
        g.add_edge(c, b, "E", vec![]).unwrap(); // opposite direction still connects weakly
        let comps = weakly_connected_components(&g, &EdgeFilter::all());
        assert_eq!(comps.len(), 2);
        let sizes: Vec<usize> = {
            let mut s: Vec<usize> = comps.iter().map(|c| c.len()).collect();
            s.sort_unstable();
            s
        };
        assert_eq!(sizes, vec![1, 3]);
        let _ = d;
    }

    #[test]
    fn triangle_has_clustering_one() {
        let mut g = PropertyGraph::new();
        let a = g.add_node(["N"], vec![]).unwrap();
        let b = g.add_node(["N"], vec![]).unwrap();
        let c = g.add_node(["N"], vec![]).unwrap();
        g.add_edge(a, b, "E", vec![]).unwrap();
        g.add_edge(b, c, "E", vec![]).unwrap();
        g.add_edge(c, a, "E", vec![]).unwrap();
        let cc = average_clustering_coefficient(&g, &EdgeFilter::all());
        assert!((cc - 1.0).abs() < 1e-12, "triangle clustering = {cc}");
    }

    #[test]
    fn line_has_clustering_zero() {
        let (g, _) = line(10);
        let cc = average_clustering_coefficient(&g, &EdgeFilter::all());
        assert_eq!(cc, 0.0);
    }

    #[test]
    fn star_center_has_zero_clustering() {
        let mut g = PropertyGraph::new();
        let hub = g.add_node(["N"], vec![]).unwrap();
        for _ in 0..5 {
            let leaf = g.add_node(["N"], vec![]).unwrap();
            g.add_edge(hub, leaf, "E", vec![]).unwrap();
        }
        assert_eq!(average_clustering_coefficient(&g, &EdgeFilter::all()), 0.0);
    }

    #[test]
    fn power_law_alpha_recovers_exponent() {
        // Degrees sampled deterministically from P(k) ∝ k^-2.5, k ≥ 1,
        // via inverse CDF on a uniform grid.
        let alpha_true = 2.5f64;
        let k_min = 10usize;
        let degrees: Vec<usize> = (1..5000)
            .map(|i| {
                let u = i as f64 / 5000.0;
                // continuous inverse CDF: k = kmin * (1-u)^{-1/(alpha-1)};
                // rounding at k ≥ 10 barely perturbs the MLE
                (k_min as f64 * (1.0 - u).powf(-1.0 / (alpha_true - 1.0))).round() as usize
            })
            .collect();
        let est = power_law_alpha(&degrees, k_min).unwrap();
        assert!(
            (est - alpha_true).abs() < 0.25,
            "estimated {est}, expected ≈ {alpha_true}"
        );
    }

    #[test]
    fn power_law_alpha_degenerate_inputs() {
        assert!(power_law_alpha(&[], 1).is_none());
        assert!(power_law_alpha(&[3], 1).is_none());
        // All-equal degrees at k_min=1: denominator ln(1/0.5) > 0, fine.
        assert!(power_law_alpha(&[1, 1, 1], 1).is_some());
    }

    #[test]
    fn scc_iterative_handles_deep_chains() {
        // A recursive Tarjan would blow the stack here; ours must not.
        let (g, _) = line(50_000);
        let sccs = strongly_connected_components(&g, &EdgeFilter::all());
        assert_eq!(sccs.len(), 50_000);
    }
}
