//! Property tests on the Vadalog engine: transitive closure against a
//! brute-force oracle, chase termination on warded programs, monotonic
//! aggregation against the independent control baseline, and SCC/WCC
//! algorithms against naive reachability.
//!
//! Runs under the in-workspace harness (`kgm_runtime::prop`): 64 seeded
//! cases per property, counterexamples shrunk and reported with the seed.

#![allow(clippy::needless_range_loop)]

use kgm_runtime::prop::{check, shrink_vec, CaseResult, Config};
use kgm_runtime::rng::Rng;
use kgm_runtime::{prop_assert_eq, prop_assume};
use kgmodel::common::Value;
use kgmodel::finance::control::{baseline_control, control_vadalog};
use kgmodel::pgstore::algo::{
    strongly_connected_components, weakly_connected_components, EdgeFilter,
};
use kgmodel::pgstore::{NodeId, PropertyGraph};
use kgmodel::vadalog::{parse_program, Engine, FactDb};
use std::collections::BTreeSet;

fn reachability(n: usize, edges: &[(usize, usize)]) -> BTreeSet<(usize, usize)> {
    // Floyd-Warshall-style closure over at most 10 nodes.
    let mut reach = vec![vec![false; n]; n];
    for &(a, b) in edges {
        reach[a][b] = true;
    }
    for k in 0..n {
        for i in 0..n {
            if reach[i][k] {
                for j in 0..n {
                    if reach[k][j] {
                        reach[i][j] = true;
                    }
                }
            }
        }
    }
    let mut out = BTreeSet::new();
    for (i, row) in reach.iter().enumerate() {
        for (j, &r) in row.iter().enumerate() {
            if r {
                out.insert((i, j));
            }
        }
    }
    out
}

/// `(n, random pairs)` — the shared input shape of the graph properties.
fn gen_graph(rng: &mut Rng, max_edges: usize) -> (usize, Vec<(usize, usize)>) {
    let n = rng.gen_range(1usize..9);
    let m = rng.gen_range(0usize..max_edges);
    let edges = (0..m)
        .map(|_| (rng.gen_range(0usize..9), rng.gen_range(0usize..9)))
        .collect();
    (n, edges)
}

/// Shrink by dropping edges; the node count stays fixed.
fn shrink_graph(input: &(usize, Vec<(usize, usize)>)) -> Vec<(usize, Vec<(usize, usize)>)> {
    let (n, edges) = input;
    shrink_vec(edges).into_iter().map(|e| (*n, e)).collect()
}

#[test]
fn transitive_closure_matches_floyd_warshall() {
    check(
        "transitive_closure_matches_floyd_warshall",
        &Config::with_cases(64),
        |rng| gen_graph(rng, 20),
        shrink_graph,
        |(n, raw)| -> CaseResult {
            let n = *n;
            let edges: Vec<(usize, usize)> = raw.iter().map(|&(a, b)| (a % n, b % n)).collect();
            let program =
                parse_program("edge(X,Y) -> path(X,Y). path(X,Y), edge(Y,Z) -> path(X,Z).")
                    .unwrap();
            let engine = Engine::new(program).unwrap();
            let facts: Vec<Vec<Value>> = edges
                .iter()
                .map(|&(a, b)| vec![Value::Int(a as i64), Value::Int(b as i64)])
                .collect();
            let (db, _) = engine.run_with_facts(&[("edge", facts)]).unwrap();
            let derived: BTreeSet<(usize, usize)> = db
                .facts_iter("path")
                .map(|t| {
                    (
                        t[0].as_i64().unwrap() as usize,
                        t[1].as_i64().unwrap() as usize,
                    )
                })
                .collect();
            prop_assert_eq!(derived, reachability(n, &edges));
            Ok(())
        },
    );
}

/// The existential rule `b(X) → c(X, N)` must mint exactly one null per
/// ground fact (Skolem chase determinism) and terminate.
#[test]
fn skolem_chase_is_deterministic() {
    check(
        "skolem_chase_is_deterministic",
        &Config::with_cases(64),
        |rng| {
            let m = rng.gen_range(0usize..20);
            (0..m)
                .map(|_| rng.gen_range(0i64..50))
                .collect::<BTreeSet<i64>>()
        },
        |values| {
            let v: Vec<i64> = values.iter().copied().collect();
            shrink_vec(&v)
                .into_iter()
                .map(|w| w.into_iter().collect())
                .collect()
        },
        |values| -> CaseResult {
            let program = parse_program("b(X) -> c(X, N).").unwrap();
            let engine = Engine::new(program).unwrap();
            let facts: Vec<Vec<Value>> = values.iter().map(|&v| vec![Value::Int(v)]).collect();
            let (db, stats) = engine.run_with_facts(&[("b", facts)]).unwrap();
            prop_assert_eq!(db.len("c"), values.len());
            prop_assert_eq!(stats.nulls_created, values.len());
            // Distinct ground values get distinct nulls.
            let nulls: BTreeSet<u64> = db
                .facts_iter("c")
                .map(|t| t[1].as_oid().unwrap().payload())
                .collect();
            prop_assert_eq!(nulls.len(), values.len());
            Ok(())
        },
    );
}

/// Monotonic-aggregate control agrees with the independent baseline on
/// random weighted ownership graphs.
#[test]
fn control_engine_matches_baseline() {
    check(
        "control_engine_matches_baseline",
        &Config::with_cases(64),
        |rng| {
            let n = rng.gen_range(2usize..9);
            let m = rng.gen_range(0usize..16);
            let edges: Vec<(usize, usize, u32)> = (0..m)
                .map(|_| {
                    (
                        rng.gen_range(0usize..9),
                        rng.gen_range(0usize..9),
                        rng.gen_range(1u32..100),
                    )
                })
                .collect();
            (n, edges)
        },
        |(n, edges)| shrink_vec(edges).into_iter().map(|e| (*n, e)).collect(),
        |(n, edges)| -> CaseResult {
            let n = *n;
            let mut g = PropertyGraph::new();
            let ids: Vec<NodeId> = (0..n)
                .map(|i| {
                    g.add_node(
                        ["Business", "Person"],
                        vec![("pid".to_string(), Value::str(format!("c{i}")))],
                    )
                    .unwrap()
                })
                .collect();
            for &(a, b, w) in edges {
                let (a, b) = (a % n, b % n);
                if a == b {
                    continue;
                }
                g.add_edge(
                    ids[a],
                    ids[b],
                    "OWNS",
                    vec![("percentage".to_string(), Value::Float(w as f64 / 100.0))],
                )
                .unwrap();
            }
            let (engine_pairs, _) = control_vadalog(&g).unwrap();
            prop_assert_eq!(engine_pairs, baseline_control(&g));
            Ok(())
        },
    );
}

/// SCC count + membership agree with brute-force mutual reachability.
#[test]
fn scc_matches_mutual_reachability() {
    check(
        "scc_matches_mutual_reachability",
        &Config::with_cases(64),
        |rng| gen_graph(rng, 18),
        shrink_graph,
        |(n, raw)| -> CaseResult {
            let n = *n;
            let edges: Vec<(usize, usize)> = raw.iter().map(|&(a, b)| (a % n, b % n)).collect();
            let mut g = PropertyGraph::new();
            let ids: Vec<NodeId> = (0..n).map(|_| g.add_node(["N"], vec![]).unwrap()).collect();
            for &(a, b) in &edges {
                g.add_edge(ids[a], ids[b], "E", vec![]).unwrap();
            }
            let sccs = strongly_connected_components(&g, &EdgeFilter::all());
            // Oracle: i ≡ j iff i reaches j and j reaches i (or i == j).
            let reach = reachability(n, &edges);
            let same =
                |i: usize, j: usize| i == j || (reach.contains(&(i, j)) && reach.contains(&(j, i)));
            // Build the expected partition sizes.
            let mut expected: Vec<BTreeSet<usize>> = Vec::new();
            for i in 0..n {
                if expected.iter().any(|c| c.contains(&i)) {
                    continue;
                }
                expected.push((0..n).filter(|&j| same(i, j)).collect());
            }
            let mut got: Vec<BTreeSet<usize>> = sccs
                .iter()
                .map(|c| {
                    c.iter()
                        .map(|id| ids.iter().position(|x| x == id).unwrap())
                        .collect()
                })
                .collect();
            got.sort();
            expected.sort();
            prop_assert_eq!(got, expected);
            Ok(())
        },
    );
}

/// WCC partition matches undirected reachability.
#[test]
fn wcc_matches_undirected_reachability() {
    check(
        "wcc_matches_undirected_reachability",
        &Config::with_cases(64),
        |rng| gen_graph(rng, 14),
        shrink_graph,
        |(n, raw)| -> CaseResult {
            let n = *n;
            let edges: Vec<(usize, usize)> = raw.iter().map(|&(a, b)| (a % n, b % n)).collect();
            let mut und: Vec<(usize, usize)> = edges.clone();
            und.extend(edges.iter().map(|&(a, b)| (b, a)));
            let reach = reachability(n, &und);
            let mut g = PropertyGraph::new();
            let ids: Vec<NodeId> = (0..n).map(|_| g.add_node(["N"], vec![]).unwrap()).collect();
            for &(a, b) in &edges {
                g.add_edge(ids[a], ids[b], "E", vec![]).unwrap();
            }
            let comps = weakly_connected_components(&g, &EdgeFilter::all());
            let mut got: Vec<BTreeSet<usize>> = comps
                .iter()
                .map(|c| {
                    c.iter()
                        .map(|id| ids.iter().position(|x| x == id).unwrap())
                        .collect()
                })
                .collect();
            got.sort();
            let mut expected: Vec<BTreeSet<usize>> = Vec::new();
            for i in 0..n {
                if expected.iter().any(|c| c.contains(&i)) {
                    continue;
                }
                expected.push(
                    (0..n)
                        .filter(|&j| i == j || reach.contains(&(i, j)))
                        .collect(),
                );
            }
            expected.sort();
            prop_assert_eq!(got, expected);
            Ok(())
        },
    );
}

// Keep prop_assume linked into at least one suite so the re-export is
// exercised from an integration-test context.
#[test]
fn assume_is_usable_from_integration_tests() {
    check(
        "assume_smoke",
        &Config::with_cases(8),
        |rng| rng.gen_range(0u32..100),
        kgm_runtime::prop::no_shrink,
        |&v| -> CaseResult {
            prop_assume!(v % 2 == 0);
            prop_assert_eq!(v % 2, 0);
            Ok(())
        },
    );
}

#[test]
fn stratified_negation_is_deterministic_across_runs() {
    let src = "a(X) -> b(X). c(X), not b(X) -> d(X).";
    let mut outputs = BTreeSet::new();
    for _ in 0..5 {
        let engine = Engine::new(parse_program(src).unwrap()).unwrap();
        let mut db = FactDb::new();
        db.add_facts("a", vec![vec![Value::Int(1)]]).unwrap();
        db.add_facts("c", vec![vec![Value::Int(1)], vec![Value::Int(2)]])
            .unwrap();
        engine.run(&mut db).unwrap();
        outputs.insert(format!("{:?}", db.facts("d")));
    }
    assert_eq!(outputs.len(), 1, "negation must be deterministic");
}
