//! Property test: MTV's path-pattern compilation (Section 4, step (3))
//! agrees with a brute-force NFA-product evaluation of the regular
//! semi-path semantics on random graphs.
//!
//! The brute force is an independent oracle: the regex is normalized
//! (inverses pushed to the letters), compiled to a Thompson NFA whose
//! letters are (edge label, direction), and the pairs `⟨x, y⟩` connected by
//! a conforming semi-path are found by BFS over the (node, state) product.
//!
//! Runs under the in-workspace harness (`kgm_runtime::prop`): 64 seeded
//! cases, counterexamples shrunk by dropping edges.

use kgm_metalog::ast::{MetaBodyElem, MetaRule, NodeAtom, PathPattern};
use kgm_metalog::{translate, EdgeAtom, MetaProgram, PathRegex, PgSchema};
use kgm_runtime::prop::{check, shrink_vec, CaseResult, Config};
use kgm_runtime::rng::Rng;
use kgm_runtime::{prop_assert, prop_assert_eq};
use kgmodel::common::Value;
use kgmodel::pgstore::{NodeId, PropertyGraph};
use kgmodel::vadalog::{Engine, EngineConfig, FactDb, SourceRegistry};
use std::collections::BTreeSet;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Oracle: Thompson NFA over (label, direction) letters.
// ---------------------------------------------------------------------

/// Push inverses down to the letters: `(S·T)⁻ = T⁻·S⁻`, `(S|T)⁻ = S⁻|T⁻`,
/// `(S*)⁻ = (S⁻)*`.
fn normalize(r: &PathRegex, flipped: bool) -> Vec<NfaRegex> {
    match r {
        PathRegex::Edge(e) => vec![NfaRegex::Letter(
            e.label.clone().expect("labelled"),
            !flipped,
        )],
        PathRegex::Inverse(i) => normalize(i, !flipped),
        PathRegex::Concat(xs) => {
            let mut parts: Vec<Vec<NfaRegex>> = xs.iter().map(|x| normalize(x, flipped)).collect();
            if flipped {
                parts.reverse();
            }
            vec![NfaRegex::Concat(
                parts.into_iter().map(NfaRegex::seq).collect(),
            )]
        }
        PathRegex::Alt(xs) => vec![NfaRegex::Alt(
            xs.iter()
                .map(|x| NfaRegex::seq(normalize(x, flipped)))
                .collect(),
        )],
        PathRegex::Star(i) => vec![NfaRegex::Star(Box::new(NfaRegex::seq(normalize(
            i, flipped,
        ))))],
    }
}

#[derive(Debug, Clone)]
enum NfaRegex {
    Letter(String, bool), // label, forward?
    Concat(Vec<NfaRegex>),
    Alt(Vec<NfaRegex>),
    Star(Box<NfaRegex>),
}

impl NfaRegex {
    fn seq(mut v: Vec<NfaRegex>) -> NfaRegex {
        if v.len() == 1 {
            v.pop().unwrap()
        } else {
            NfaRegex::Concat(v)
        }
    }
}

#[derive(Default)]
struct Nfa {
    eps: Vec<Vec<usize>>,
    steps: Vec<Vec<(String, bool, usize)>>,
}

impl Nfa {
    fn state(&mut self) -> usize {
        self.eps.push(Vec::new());
        self.steps.push(Vec::new());
        self.eps.len() - 1
    }

    fn build(&mut self, r: &NfaRegex) -> (usize, usize) {
        match r {
            NfaRegex::Letter(l, fwd) => {
                let s = self.state();
                let t = self.state();
                self.steps[s].push((l.clone(), *fwd, t));
                (s, t)
            }
            NfaRegex::Concat(xs) => {
                let (mut s, mut t) = (usize::MAX, usize::MAX);
                for x in xs {
                    let (xs_, xt) = self.build(x);
                    if s == usize::MAX {
                        s = xs_;
                    } else {
                        self.eps[t].push(xs_);
                    }
                    t = xt;
                }
                (s, t)
            }
            NfaRegex::Alt(xs) => {
                let s = self.state();
                let t = self.state();
                for x in xs {
                    let (xs_, xt) = self.build(x);
                    self.eps[s].push(xs_);
                    self.eps[xt].push(t);
                }
                (s, t)
            }
            NfaRegex::Star(i) => {
                let s = self.state();
                let t = self.state();
                let (is, it) = self.build(i);
                self.eps[s].push(is);
                self.eps[s].push(t);
                self.eps[it].push(is);
                self.eps[it].push(t);
                (s, t)
            }
        }
    }
}

/// All `(x, y)` pairs connected by a semi-path conforming to `regex`.
fn brute_force_pairs(g: &PropertyGraph, regex: &PathRegex) -> BTreeSet<(u64, u64)> {
    let normalized = NfaRegex::seq(normalize(regex, false));
    let mut nfa = Nfa::default();
    let (start, accept) = nfa.build(&normalized);
    let nodes: Vec<NodeId> = g.nodes().collect();
    let mut out = BTreeSet::new();
    for &x in &nodes {
        // BFS over (node, state) with ε-closure.
        let mut seen: BTreeSet<(u32, usize)> = BTreeSet::new();
        let mut stack = vec![(x, start)];
        while let Some((n, q)) = stack.pop() {
            if !seen.insert((n.0, q)) {
                continue;
            }
            if q == accept {
                out.insert((g.node_oid(x).payload(), g.node_oid(n).payload()));
            }
            for &e in &nfa.eps[q] {
                stack.push((n, e));
            }
            for (label, fwd, to) in nfa.steps[q].clone() {
                for edge in g.incident_edges(
                    n,
                    if fwd {
                        kgmodel::pgstore::Direction::Outgoing
                    } else {
                        kgmodel::pgstore::Direction::Incoming
                    },
                ) {
                    if g.edge_label(edge) != label {
                        continue;
                    }
                    let (f, t) = g.edge_endpoints(edge);
                    let next = if fwd { t } else { f };
                    stack.push((next, to));
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// The MTV + engine route.
// ---------------------------------------------------------------------

fn mtv_pairs(g: Arc<PropertyGraph>, regex: &PathRegex) -> Result<BTreeSet<(u64, u64)>, String> {
    let mut catalog = PgSchema::new();
    catalog
        .declare_node("N", Vec::<String>::new())
        .declare_edge("A", Vec::<String>::new())
        .declare_edge("B", Vec::<String>::new())
        .declare_edge("RESULT", Vec::<String>::new());
    let rule = MetaRule {
        body: vec![MetaBodyElem::Path(PathPattern {
            src: NodeAtom {
                var: Some("x".into()),
                label: Some("N".into()),
                props: vec![],
            },
            segments: vec![(
                regex.clone(),
                NodeAtom {
                    var: Some("y".into()),
                    label: Some("N".into()),
                    props: vec![],
                },
            )],
        })],
        head: vec![PathPattern {
            src: NodeAtom {
                var: Some("x".into()),
                label: None,
                props: vec![],
            },
            segments: vec![(
                PathRegex::Edge(EdgeAtom {
                    var: Some("e".into()),
                    label: Some("RESULT".into()),
                    props: vec![],
                }),
                NodeAtom {
                    var: Some("y".into()),
                    label: None,
                    props: vec![],
                },
            )],
        }],
    };
    let program = MetaProgram { rules: vec![rule] };
    let out = translate(&program, &catalog, "g").map_err(|e| e.to_string())?;
    let engine =
        Engine::with_config(out.program, EngineConfig::default()).map_err(|e| e.to_string())?;
    let mut registry = SourceRegistry::new();
    registry.add_graph("g", g);
    let mut db = FactDb::new();
    engine
        .load_inputs(&registry, &mut db)
        .map_err(|e| e.to_string())?;
    engine.run(&mut db).map_err(|e| e.to_string())?;
    Ok(db
        .facts_iter("RESULT")
        .filter_map(|t| Some((t[1].as_oid()?.payload(), t[2].as_oid()?.payload())))
        .collect())
}

// ---------------------------------------------------------------------
// Generators.
// ---------------------------------------------------------------------

fn gen_letter(rng: &mut Rng) -> PathRegex {
    let l = if rng.gen_bool(0.5) { "A" } else { "B" };
    PathRegex::Edge(EdgeAtom {
        var: None,
        label: Some(l.to_string()),
        props: vec![],
    })
}

/// Weighted like the original strategy: 3× letter, 1× each combinator.
fn gen_regex(rng: &mut Rng, depth: u32) -> PathRegex {
    if depth == 0 {
        return gen_letter(rng);
    }
    match rng.gen_range(0u32..7) {
        0..=2 => gen_letter(rng),
        3 => PathRegex::Inverse(Box::new(gen_regex(rng, depth - 1))),
        4 => PathRegex::Concat(vec![gen_regex(rng, depth - 1), gen_regex(rng, depth - 1)]),
        5 => PathRegex::Alt(vec![gen_regex(rng, depth - 1), gen_regex(rng, depth - 1)]),
        _ => PathRegex::Star(Box::new(gen_regex(rng, depth - 1))),
    }
}

type Case = (usize, Vec<(usize, usize, bool)>, PathRegex);

fn gen_case(rng: &mut Rng) -> Case {
    let n = rng.gen_range(2usize..7);
    let m = rng.gen_range(0usize..14);
    let edges = (0..m)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n), rng.gen_bool(0.5)))
        .collect();
    (n, edges, gen_regex(rng, 2))
}

/// Shrink by dropping graph edges; the regex and node count stay fixed.
fn shrink_case(input: &Case) -> Vec<Case> {
    let (n, edges, regex) = input;
    shrink_vec(edges)
        .into_iter()
        .map(|e| (*n, e, regex.clone()))
        .collect()
}

fn build_graph(n: usize, edges: &[(usize, usize, bool)]) -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let ids: Vec<NodeId> = (0..n)
        .map(|i| {
            g.add_node(["N"], vec![("i".to_string(), Value::Int(i as i64))])
                .unwrap()
        })
        .collect();
    for &(f, t, is_a) in edges {
        g.add_edge(ids[f], ids[t], if is_a { "A" } else { "B" }, vec![])
            .unwrap();
    }
    g
}

/// The Section 4 step-(3) translation is semantics-preserving.
#[test]
fn mtv_path_patterns_match_brute_force() {
    check(
        "mtv_path_patterns_match_brute_force",
        &Config::with_cases(64),
        gen_case,
        shrink_case,
        |(n, edges, regex)| -> CaseResult {
            let g = build_graph(*n, edges);
            let expected = brute_force_pairs(&g, regex);
            match mtv_pairs(Arc::new(g), regex) {
                Ok(actual) => prop_assert_eq!(actual, expected),
                // The only legal rejection is the documented unsupported shape:
                // a nullable sub-pattern inside a concatenation.
                Err(e) => prop_assert!(
                    e.contains("nullable"),
                    "unexpected translation failure: {}",
                    e
                ),
            }
            Ok(())
        },
    );
}

#[test]
fn concrete_star_of_inverse_pair() {
    // A regression-style fixed case: ([A]⁻ · [B])* over a small cycle.
    let mut g = PropertyGraph::new();
    let a = g.add_node(["N"], vec![]).unwrap();
    let b = g.add_node(["N"], vec![]).unwrap();
    let c = g.add_node(["N"], vec![]).unwrap();
    g.add_edge(b, a, "A", vec![]).unwrap(); // a ←A– b, traversed A⁻: a→b
    g.add_edge(b, c, "B", vec![]).unwrap(); // b –B→ c
    let regex = PathRegex::Star(Box::new(PathRegex::Concat(vec![
        PathRegex::Inverse(Box::new(PathRegex::Edge(EdgeAtom {
            var: None,
            label: Some("A".into()),
            props: vec![],
        }))),
        PathRegex::Edge(EdgeAtom {
            var: None,
            label: Some("B".into()),
            props: vec![],
        }),
    ])));
    let expected = brute_force_pairs(&g, &regex);
    let actual = mtv_pairs(Arc::new(g), &regex).unwrap();
    assert_eq!(actual, expected);
    // a →(A⁻) b →(B) c is one round of the star; plus all the ε pairs.
    assert!(expected.len() >= 4);
}
