//! No text entry point panics: every parser and importer returns `Ok` or
//! `Err` on any input.
//!
//! Each property takes an input that ships with the repository (the
//! company-control programs, the Figure 4 GSL schema, the serving query
//! forms, a Cypher pattern, the CSV export of a small registry, a CSV
//! deployment with its manifest, a `KGM_FAULT` spec) and applies
//! a few seeded edits: delete a run of characters, insert a fragment, or
//! truncate. The fragments mix the grammars' punctuation with multi-byte
//! letters, symbols and whitespace. `check` turns a panic into a failure;
//! the shrinker drops characters until the panicking input is small.
//!
//! Runs under the in-workspace harness (`kgm_runtime::prop`): 64 seeded
//! cases per property, counterexamples shrunk and reported with the seed.

use kgm_runtime::fault::FaultConfig;
use kgm_runtime::prop::{check, CaseResult, Config};
use kgm_runtime::rng::Rng;
use kgmodel::common::Value;
use kgmodel::core::models::csvmodel::{export_instance, import_instance, CsvExport};
use kgmodel::core::models::PgModelSchema;
use kgmodel::core::parse_gsl;
use kgmodel::core::sst::{translate_to_pg, PgGeneralizationStrategy};
use kgmodel::finance::control::{CONTROL_METALOG, CONTROL_VADALOG};
use kgmodel::finance::{company_kg_gsl, generate_registry, RegistryConfig};
use kgmodel::metalog::{parse_metalog, translate, PgSchema};
use kgmodel::pgstore::{csv, cypher, PropertyGraph};
use kgmodel::vadalog::{parse_program, Engine, EpochSnapshot, FactDb, ServingLayer, Termination};
use std::sync::Arc;

/// What a mutation may insert.
const FRAGMENTS: &[&str] = &[
    "(", ")", "[", "]", "{", "}", ",", ".", "..", ";", ":", "\"", "\\", "%", "#", "-", "->", "=",
    "<", ">", "|", "!", "@", "*", "/", "~", "0", "1.5", "x", "_", " ", "\n", "é", "à", "Società",
    "città", "«", "»", "…", "—", "€", "日本", "🦀", "\u{301}", "\u{a0}", "\u{3000}",
];

/// One to three seeded edits of `base`.
fn mutate(rng: &mut Rng, base: &str) -> String {
    let mut chars: Vec<char> = base.chars().collect();
    for _ in 0..rng.gen_range(1usize..4) {
        let at = rng.gen_range(0..chars.len() + 1);
        match rng.gen_range(0u32..5) {
            0 | 1 => {
                let end = (at + rng.gen_range(1usize..8)).min(chars.len());
                chars.drain(at..end);
            }
            2 | 3 => {
                let frag = rng.choose(FRAGMENTS).expect("fragments are non-empty");
                chars.splice(at..at, frag.chars());
            }
            _ => chars.truncate(at),
        }
    }
    chars.into_iter().collect()
}

/// Drop runs of characters: halves first, then quarters, down to single
/// characters.
fn shrink_text(s: &str) -> Vec<String> {
    let chars: Vec<char> = s.chars().collect();
    let mut out = Vec::new();
    let mut len = chars.len() / 2;
    while len > 0 {
        for start in (0..chars.len()).step_by(len) {
            let end = (start + len).min(chars.len());
            out.push(chars[..start].iter().chain(&chars[end..]).collect());
        }
        len /= 2;
    }
    if chars.len() == 1 {
        out.push(String::new());
    }
    out
}

/// The property: `f` returns without panicking (`check` reports a panic).
fn never_panics<T>(name: &str, gen: impl Fn(&mut Rng) -> String, f: impl Fn(&str) -> T) {
    check(
        name,
        &Config::default(),
        gen,
        |text: &String| shrink_text(text),
        |text: &String| -> CaseResult {
            let _ = f(text);
            Ok(())
        },
    );
}

#[test]
fn vadalog_text_never_panics() {
    never_panics(
        "parse_program",
        |rng| mutate(rng, CONTROL_VADALOG),
        parse_program,
    );
}

#[test]
fn metalog_text_never_panics() {
    let mut catalog = PgSchema::new();
    catalog
        .declare_node("Business", Vec::<String>::new())
        .declare_edge("CONTROLS", Vec::<String>::new())
        .declare_edge("OWNS", ["percentage"]);
    never_panics(
        "parse_metalog",
        |rng| mutate(rng, CONTROL_METALOG),
        |text| parse_metalog(text).and_then(|meta| translate(&meta, &catalog, "kg")),
    );
}

#[test]
fn gsl_text_never_panics() {
    never_panics("parse_gsl", |rng| mutate(rng, company_kg_gsl()), parse_gsl);
}

/// The serving query forms, over the epoch [`control_epoch`] publishes.
const QUERIES: &[&str] = &[
    "point controls(0, 2)",
    r#"point name(0, "Società per Azioni")"#,
    "rel controls",
    "count own",
    "sum own 2",
    "min own 2",
    "max own 2",
    "path own/~own | controls*",
    "cypher (a:v)-[e:own]->(b:v) return (a,b)",
    "cypher (c:company) return c",
];

/// Company control over four companies, one of them named, published as
/// one epoch.
fn control_epoch() -> Arc<EpochSnapshot> {
    let mut db = FactDb::new();
    db.add_facts("company", (0..4).map(|i| vec![Value::Int(i)]).collect())
        .unwrap();
    let own = [(0, 1, 0.6), (1, 2, 0.3), (0, 2, 0.3), (2, 3, 0.9)];
    db.add_facts(
        "own",
        own.iter()
            .map(|&(a, b, w)| vec![Value::Int(a), Value::Int(b), Value::Float(w)])
            .collect(),
    )
    .unwrap();
    db.add_facts(
        "name",
        vec![vec![Value::Int(0), Value::str("Società per Azioni")]],
    )
    .unwrap();
    let engine = Engine::new(parse_program(CONTROL_VADALOG).unwrap()).unwrap();
    engine.run(&mut db).unwrap();
    ServingLayer::new().publish(&db, Termination::Complete)
}

#[test]
fn serving_queries_never_panic() {
    let epoch = control_epoch();
    assert_eq!(epoch.query(QUERIES[1]).unwrap().rows.len(), 1);
    never_panics(
        "EpochSnapshot::query",
        |rng| {
            let base = *rng.choose(QUERIES).expect("queries are non-empty");
            mutate(rng, base)
        },
        |text| epoch.query(text),
    );
}

#[test]
fn cypher_patterns_never_panic() {
    never_panics(
        "cypher::parse",
        |rng| {
            mutate(
                rng,
                "(n:SM_Node)-[p:SM_PARENT]->(g:SM_Generalization) return (p,g,n)",
            )
        },
        cypher::parse,
    );
}

/// The CSV export of a small registry.
fn registry_csv() -> (String, String) {
    let g = generate_registry(&RegistryConfig {
        persons: 6,
        businesses: 4,
        non_businesses: 1,
        places: 2,
        events: 1,
        shares_per_business: 1.0,
        seed: 7,
    })
    .unwrap();
    csv::export(&g)
}

#[test]
fn csv_node_text_never_panics() {
    let (nodes, edges) = registry_csv();
    csv::import(&nodes, &edges).unwrap();
    never_panics(
        "csv::import nodes",
        |rng| mutate(rng, &nodes),
        |text| csv::import(text, &edges),
    );
}

#[test]
fn csv_edge_text_never_panics() {
    let (nodes, edges) = registry_csv();
    never_panics(
        "csv::import edges",
        |rng| mutate(rng, &edges),
        |text| csv::import(&nodes, text),
    );
}

/// A two-node instance of a small ownership schema, exported as a CSV
/// deployment (manifest, nodes, edges), with the PG schema it checks
/// against.
fn csv_deployment() -> (PgModelSchema, CsvExport) {
    let schema = parse_gsl(
        r#"
        schema T {
          node Person { id pid: string; name: string; }
          node Business { capital: float; }
          generalization Person -> Business;
          edge OWNS: Person -> Business { percentage: float; }
        }
        "#,
    )
    .unwrap();
    let pg = translate_to_pg(&schema, PgGeneralizationStrategy::MultiLabel).unwrap();
    let person = |pid: &str, name: &str| {
        vec![
            ("pid".to_string(), Value::str(pid)),
            ("name".to_string(), Value::str(name)),
        ]
    };
    let mut g = PropertyGraph::new();
    let a = g.add_node(["Person"], person("p1", "Ada")).unwrap();
    let mut business = person("b1", "Società per Azioni");
    business.push(("capital".to_string(), Value::Float(10.0)));
    let b = g.add_node(["Business", "Person"], business).unwrap();
    let share = vec![("percentage".to_string(), Value::Float(0.4))];
    g.add_edge(a, b, "OWNS", share).unwrap();
    let export = export_instance(&pg, &g).unwrap();
    (pg, export)
}

#[test]
fn csv_deployments_never_panic() {
    let (schema, export) = csv_deployment();
    import_instance(&schema, &export).unwrap();
    let docs = [export.manifest, export.nodes_csv, export.edges_csv];
    // Each case mutates one of the three documents. They travel as one
    // text joined by a record separator, which no fragment contains, so
    // the shrinker can drop characters from any of them.
    never_panics(
        "csvmodel::import_instance",
        |rng| {
            let mut parts = docs.clone();
            let k = rng.gen_range(0..parts.len());
            parts[k] = mutate(rng, &parts[k]);
            parts.join("\u{1e}")
        },
        |text| {
            let parts: Vec<&str> = text.splitn(3, '\u{1e}').collect();
            let part = |i: usize| parts.get(i).copied().unwrap_or_default().to_string();
            let export = CsvExport {
                manifest: part(0),
                nodes_csv: part(1),
                edges_csv: part(2),
            };
            import_instance(&schema, &export)
        },
    );
}

#[test]
fn fault_specs_never_panic() {
    FaultConfig::parse("chase.insert:0.05:42").unwrap();
    never_panics(
        "FaultConfig::parse",
        |rng| mutate(rng, "chase.insert:0.05:42"),
        FaultConfig::parse,
    );
}

#[test]
fn vadalog_string_constants_keep_their_characters() {
    let program = parse_program(r#"p("Società per Azioni")."#).unwrap();
    let mut db = FactDb::new();
    Engine::new(program).unwrap().run(&mut db).unwrap();
    assert_eq!(db.facts("p"), vec![vec![Value::str("Società per Azioni")]]);
}

#[test]
fn vadalog_rules_over_unicode_predicates_parse() {
    let program = parse_program("società(X) -> controllò(X, X).").unwrap();
    assert_eq!(program.rules[0].body[0].predicate, "società");
    assert_eq!(program.rules[0].head[0].predicate, "controllò");
}

#[test]
fn cypher_skips_multibyte_whitespace_by_whole_characters() {
    assert!(cypher::parse("\u{a0}").is_err());
    assert!(cypher::parse("(n:A)\u{3000}return\u{a0}n").is_ok());
}
