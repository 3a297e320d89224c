//! Algorithm 2 against MTV's direct program, on random instances.
//!
//! Section 4 defines MetaLog by its translation to Vadalog, whose generated
//! `@input` annotations read the data graph; Section 6 evaluates the same Σ
//! through Algorithm 2's quasi-inverse load, input views and flush. The two
//! must agree. Each case draws an instance of a small schema with a
//! generalization, optional attributes and parallel edges. For each of
//! three Σs, `materialize` in both modes must flush exactly the `LINK`
//! pairs that the naive oracle derives from MTV's translation of Σ over the
//! same graph, compared by data-graph OID.
//!
//! `KGM_PROP_SEED` re-runs the suite under another seed and
//! `KGM_PROP_CASES` scales its case count.

use std::sync::Arc;

use kgm_common::{FxHashSet, KgmError, Value};
use kgm_core::intensional::{materialize, pg_schema_of, MaterializationMode};
use kgm_core::{parse_gsl, SuperSchema};
use kgm_metalog::{parse_metalog, translate};
use kgm_pgstore::{NodeId, PropertyGraph};
use kgm_runtime::prop::{check, shrink_vec, CaseError, CaseResult, Config};
use kgm_runtime::rng::Rng;
use kgm_vadalog::oracle::{naive_chase_with, OracleConfig};
use kgm_vadalog::SourceRegistry;

/// `Investor` inherits the identifier `pid` and the optional `nick`;
/// `HOLDS` has the mandatory `share` and the optional `since`.
const SCHEMA: &str = r#"
schema Holdings {
  node Person { id pid: string; opt nick: string; }
  node Investor { budget: int; }
  generalization Person -> Investor;
  node Company { id cid: string; }
  edge HOLDS: Person -> Company { share: float; opt since: int; }
  intensional edge LINK: Person -> Company;
}
"#;

/// Three Σs deriving `LINK`. The first reads `Person`, whose instances
/// include every `Investor`, with a condition on `share`. The second sums
/// an investor's shares in a company with `msum`: its contributions are
/// keyed by `<p, w>`, which determines the value, because a contributor
/// keeps its first contribution and the two paths bind in different
/// orders. The third binds the optional `nick` and `since`.
const SIGMAS: [&str; 3] = [
    "(p: Person)[: HOLDS; share: s](c: Company), s > 0.5 -> (p)[l: LINK](c).",
    "(p: Investor)[: HOLDS; share: w](c: Company), v = msum(w, <p, w>), v > 0.5 \
     -> (p)[l: LINK](c).",
    "(p: Person; nick: n)[: HOLDS; since: y](c: Company), n != \"a\", y > 2 \
     -> (p)[l: LINK](c).",
];

/// One drawn instance.
#[derive(Debug, Clone)]
struct Case {
    people: Vec<Person>,
    companies: usize,
    holds: Vec<Holds>,
}

#[derive(Debug, Clone)]
struct Person {
    /// Labelled `Investor` and `Person`, with a `budget`, or `Person` only.
    investor: bool,
    nick: Option<&'static str>,
}

/// A `HOLDS` edge. Several may join the same person and company.
#[derive(Debug, Clone)]
struct Holds {
    person: usize,
    company: usize,
    /// The share in sixteenths: sums of them are exact in any order, so
    /// no summation order can cross the threshold differently.
    sixteenths: u8,
    since: Option<i64>,
}

fn gen_case(rng: &mut Rng) -> Case {
    let people = (0..rng.gen_range(1usize..6))
        .map(|_| Person {
            investor: rng.gen_bool(0.5),
            nick: rng.gen_bool(0.6).then(|| *rng.choose(&["a", "b"]).unwrap()),
        })
        .collect::<Vec<_>>();
    let companies = rng.gen_range(1usize..4);
    let holds = (0..rng.gen_range(0usize..9))
        .map(|_| Holds {
            person: rng.gen_range(0..people.len()),
            company: rng.gen_range(0..companies),
            sixteenths: rng.gen_range(1u8..13),
            since: rng.gen_bool(0.6).then(|| rng.gen_range(1i64..5)),
        })
        .collect();
    Case {
        people,
        companies,
        holds,
    }
}

/// Fewer edges, or one person fewer with the edges it holds.
fn shrink(case: &Case) -> Vec<Case> {
    let mut out: Vec<Case> = shrink_vec(&case.holds)
        .into_iter()
        .map(|holds| Case {
            holds,
            ..case.clone()
        })
        .collect();
    for i in 0..case.people.len() {
        let mut c = case.clone();
        c.people.remove(i);
        c.holds.retain(|h| h.person != i);
        for h in &mut c.holds {
            h.person -= usize::from(h.person > i);
        }
        out.push(c);
    }
    out
}

/// The data graph of `case`. Building it twice gives the same OIDs.
fn graph(case: &Case) -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let prop = |k: &str, v: Value| (k.to_string(), v);
    let people: Vec<NodeId> = case
        .people
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut props = vec![prop("pid", Value::str(format!("p{i}")))];
            props.extend(p.nick.map(|n| prop("nick", Value::str(n))));
            let labels: &[&str] = if p.investor {
                props.push(prop("budget", Value::Int(i as i64)));
                &["Investor", "Person"]
            } else {
                &["Person"]
            };
            g.add_node(labels, props).unwrap()
        })
        .collect();
    let companies: Vec<NodeId> = (0..case.companies)
        .map(|i| {
            let props = [prop("cid", Value::str(format!("c{i}")))];
            g.add_node(["Company"], props).unwrap()
        })
        .collect();
    for h in &case.holds {
        let mut props = vec![prop("share", Value::Float(f64::from(h.sixteenths) / 16.0))];
        props.extend(h.since.map(|y| prop("since", Value::Int(y))));
        let (p, c) = (people[h.person], companies[h.company]);
        g.add_edge(p, c, "HOLDS", props).unwrap();
    }
    g
}

type Pairs = FxHashSet<(u64, u64)>;

/// The `LINK` pairs the naive oracle derives from MTV's translation of
/// `sigma`, its `@input` facts read from `g`.
fn oracle_links(schema: &SuperSchema, sigma: &str, g: PropertyGraph) -> Result<Pairs, KgmError> {
    let mtv = translate(&parse_metalog(sigma)?, &pg_schema_of(schema), "g")?;
    let mut registry = SourceRegistry::new();
    registry.add_graph("g", Arc::new(g));
    let inputs = mtv
        .program
        .inputs
        .iter()
        .map(|b| Ok((b.predicate.as_str(), registry.load(b)?)))
        .collect::<Result<Vec<_>, KgmError>>()?;
    let db = naive_chase_with(&mtv.program, &inputs, &OracleConfig::default())?;
    Ok(db
        .facts("LINK")
        .iter()
        .filter_map(|t| Some((t[1].as_oid()?.payload(), t[2].as_oid()?.payload())))
        .collect())
}

/// The `LINK` pairs Algorithm 2 flushes into `g`.
fn flushed_links(
    schema: &SuperSchema,
    sigma: &str,
    mut g: PropertyGraph,
    mode: MaterializationMode,
) -> Result<Pairs, KgmError> {
    materialize(&mut g, schema, sigma, mode)?;
    Ok(g.edges_with_label("LINK")
        .into_iter()
        .map(|e| {
            let (f, t) = g.edge_endpoints(e);
            (g.node_oid(f).payload(), g.node_oid(t).payload())
        })
        .collect())
}

#[test]
fn algorithm2_flushes_what_mtv_derives() {
    let schema = parse_gsl(SCHEMA).unwrap();
    let modes = [MaterializationMode::SinglePass, MaterializationMode::Staged];
    let prop = |case: &Case| -> CaseResult {
        let fail = |e: KgmError| CaseError::fail(e.to_string());
        let mut differ = Vec::new();
        for (s, sigma) in SIGMAS.iter().enumerate() {
            let want = oracle_links(&schema, sigma, graph(case)).map_err(fail)?;
            for mode in modes {
                let got = flushed_links(&schema, sigma, graph(case), mode).map_err(fail)?;
                if got != want {
                    differ.push(format!(
                        "Σ{s} {mode:?}: flushed {got:?}, the oracle derived {want:?}"
                    ));
                }
            }
        }
        if differ.is_empty() {
            Ok(())
        } else {
            Err(CaseError::fail(differ.join("\n")))
        }
    };
    check(
        "algorithm2_flushes_what_mtv_derives",
        &Config::default(),
        gen_case,
        shrink,
        prop,
    );
}
