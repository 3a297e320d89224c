//! Property test: the quasi-inverse round trip of Section 6.
//!
//! Loading a random instance into the `I_SM_*` super-components and flushing
//! it back reproduces the instance exactly (node/edge multisets with labels
//! and properties) — *"any potential information loss is never caused by the
//! inversion"*.
//!
//! Runs under the in-workspace harness (`kgm_runtime::prop`): 64 seeded
//! cases per property, with the failing seed reported for reproduction.

use kgm_runtime::prop::{check, no_shrink, CaseResult, Config};
use kgm_runtime::prop_assert_eq;
use kgm_runtime::rng::Rng;
use kgmodel::common::Value;
use kgmodel::core::dictionary::Dictionary;
use kgmodel::core::instances::{flush_instance, load_instance};
use kgmodel::core::parse_gsl;
use kgmodel::pgstore::{NodeId, PropertyGraph};
use std::collections::BTreeMap;

fn schema_src() -> &'static str {
    r#"
    schema T {
      node Person { id pid: string; opt nick: string; }
      node Company { budget: float; }
      generalization Person -> Company;
      node Place { id placeId: string; }
      edge WORKS_AT: Person [0..N] -> [0..N] Company { since: int; }
      edge LOCATED: Company [0..N] -> [0..1] Place;
    }
    "#
}

/// Canonical multiset fingerprint of a graph: sorted node descriptors and
/// edge descriptors (labels + sorted properties).
fn fingerprint(g: &PropertyGraph) -> (Vec<String>, Vec<String>) {
    let node_desc = |n: NodeId| {
        let mut labels = g.node_labels(n);
        labels.sort();
        let mut props: Vec<(String, Value)> = g.node_props(n);
        props.sort_by(|a, b| a.0.cmp(&b.0));
        format!("{labels:?}|{props:?}")
    };
    let mut nodes: Vec<String> = g.nodes().map(node_desc).collect();
    nodes.sort();
    let mut edges: Vec<String> = g
        .edges()
        .map(|e| {
            let (f, t) = g.edge_endpoints(e);
            let mut props: Vec<(String, Value)> = g.edge_props(e);
            props.sort_by(|a, b| a.0.cmp(&b.0));
            format!(
                "{}|{}→{}|{props:?}",
                g.edge_label(e),
                node_desc(f),
                node_desc(t)
            )
        })
        .collect();
    edges.sort();
    (nodes, edges)
}

#[derive(Debug, Clone)]
struct RandomInstance {
    people: Vec<(String, Option<String>)>,
    companies: Vec<(String, f64)>,
    places: Vec<String>,
    works_at: Vec<(usize, usize, i64)>,
    located: Vec<(usize, usize)>,
}

/// A random identifier shaped like the old `p[a-z]{2}[0-9]{2}` regexes.
fn gen_word(rng: &mut Rng, prefix: char, alphas: usize, digits: usize) -> String {
    let mut s = String::new();
    s.push(prefix);
    for _ in 0..alphas {
        s.push((b'a' + rng.gen_range(0u8..26)) as char);
    }
    for _ in 0..digits {
        s.push((b'0' + rng.gen_range(0u8..10)) as char);
    }
    s
}

fn gen_instance(rng: &mut Rng) -> RandomInstance {
    let np = rng.gen_range(0usize..5);
    let people = (0..np)
        .map(|_| {
            let pid = gen_word(rng, 'p', 2, 2);
            let nick = if rng.gen_bool(0.5) {
                Some(gen_word(rng, 'n', 3, 0))
            } else {
                None
            };
            (pid, nick)
        })
        .collect();
    let nc = rng.gen_range(1usize..5);
    let companies = (0..nc)
        .map(|_| (gen_word(rng, 'c', 2, 2), rng.gen_range(0.0f64..100.0)))
        .collect();
    let nl = rng.gen_range(0usize..3);
    let places = (0..nl).map(|_| gen_word(rng, 'l', 3, 0)).collect();
    let nw = rng.gen_range(0usize..6);
    let works_at = (0..nw)
        .map(|_| {
            (
                rng.gen_range(0usize..8),
                rng.gen_range(0usize..8),
                rng.gen_range(0i64..3000),
            )
        })
        .collect();
    let nloc = rng.gen_range(0usize..4);
    let located = (0..nloc)
        .map(|_| (rng.gen_range(0usize..8), rng.gen_range(0usize..8)))
        .collect();
    RandomInstance {
        people,
        companies,
        places,
        works_at,
        located,
    }
}

fn build(inst: &RandomInstance) -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let mut persons: Vec<NodeId> = Vec::new();
    // Distinct pids per node (suffix with index to avoid collisions).
    for (i, (pid, nick)) in inst.people.iter().enumerate() {
        let mut props = vec![("pid".to_string(), Value::str(format!("{pid}{i}")))];
        if let Some(n) = nick {
            props.push(("nick".to_string(), Value::str(n)));
        }
        persons.push(g.add_node(["Person"], props).unwrap());
    }
    let mut companies: Vec<NodeId> = Vec::new();
    for (i, (pid, budget)) in inst.companies.iter().enumerate() {
        companies.push(
            g.add_node(
                ["Company", "Person"],
                vec![
                    ("pid".to_string(), Value::str(format!("C{pid}{i}"))),
                    ("budget".to_string(), Value::Float(*budget)),
                ],
            )
            .unwrap(),
        );
    }
    let mut places: Vec<NodeId> = Vec::new();
    for (i, pl) in inst.places.iter().enumerate() {
        places.push(
            g.add_node(
                ["Place"],
                vec![("placeId".to_string(), Value::str(format!("{pl}{i}")))],
            )
            .unwrap(),
        );
    }
    let all_persons: Vec<NodeId> = persons.iter().chain(companies.iter()).copied().collect();
    for &(p, c, since) in &inst.works_at {
        if all_persons.is_empty() || companies.is_empty() {
            continue;
        }
        let f = all_persons[p % all_persons.len()];
        let t = companies[c % companies.len()];
        g.add_edge(
            f,
            t,
            "WORKS_AT",
            vec![("since".to_string(), Value::Int(since))],
        )
        .unwrap();
    }
    for &(c, l) in &inst.located {
        if companies.is_empty() || places.is_empty() {
            continue;
        }
        g.add_edge(
            companies[c % companies.len()],
            places[l % places.len()],
            "LOCATED",
            vec![],
        )
        .unwrap();
    }
    g
}

#[test]
fn load_then_flush_is_identity() {
    check(
        "load_then_flush_is_identity",
        &Config::with_cases(64),
        gen_instance,
        no_shrink,
        |inst| -> CaseResult {
            let schema = parse_gsl(schema_src()).unwrap();
            let data = build(inst);
            let mut dict = Dictionary::new();
            dict.encode(&schema, 1).unwrap();
            load_instance(&mut dict, &schema, 1, 55, &data).unwrap();
            let back = flush_instance(&dict, &schema, 55).unwrap();
            prop_assert_eq!(fingerprint(&back), fingerprint(&data));
            Ok(())
        },
    );
}

#[test]
fn double_round_trip_is_stable() {
    check(
        "double_round_trip_is_stable",
        &Config::with_cases(64),
        gen_instance,
        no_shrink,
        |inst| -> CaseResult {
            let schema = parse_gsl(schema_src()).unwrap();
            let data = build(inst);
            let mut dict = Dictionary::new();
            dict.encode(&schema, 1).unwrap();
            load_instance(&mut dict, &schema, 1, 55, &data).unwrap();
            let once = flush_instance(&dict, &schema, 55).unwrap();
            let mut dict2 = Dictionary::new();
            dict2.encode(&schema, 1).unwrap();
            load_instance(&mut dict2, &schema, 1, 56, &once).unwrap();
            let twice = flush_instance(&dict2, &schema, 56).unwrap();
            prop_assert_eq!(fingerprint(&twice), fingerprint(&once));
            Ok(())
        },
    );
}

#[test]
fn counts_survive_a_bigger_instance() {
    let schema = parse_gsl(schema_src()).unwrap();
    let mut g = PropertyGraph::new();
    let mut map: BTreeMap<usize, NodeId> = BTreeMap::new();
    for i in 0..200 {
        map.insert(
            i,
            g.add_node(
                ["Company", "Person"],
                vec![
                    ("pid".to_string(), Value::str(format!("c{i}"))),
                    ("budget".to_string(), Value::Float(i as f64)),
                ],
            )
            .unwrap(),
        );
    }
    for i in 0..199 {
        g.add_edge(
            map[&i],
            map[&(i + 1)],
            "WORKS_AT",
            vec![("since".to_string(), Value::Int(i as i64))],
        )
        .unwrap();
    }
    let mut dict = Dictionary::new();
    dict.encode(&schema, 1).unwrap();
    let (stats, _) = load_instance(&mut dict, &schema, 1, 9, &g).unwrap();
    assert_eq!(stats.nodes, 200);
    assert_eq!(stats.edges, 199);
    let back = flush_instance(&dict, &schema, 9).unwrap();
    assert_eq!(fingerprint(&back), fingerprint(&g));
}
