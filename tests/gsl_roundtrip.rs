//! Property test: GSL emission is the exact inverse of GSL parsing on
//! arbitrary valid super-schemas.
//!
//! Runs under the in-workspace harness (`kgm_runtime::prop`): 64 seeded
//! cases, with the failing seed reported for reproduction.

#![allow(clippy::needless_range_loop)]

use kgm_common::ValueType;
use kgm_runtime::prop::{check, no_shrink, CaseResult, Config};
use kgm_runtime::rng::Rng;
use kgm_runtime::{prop_assert_eq, prop_assume};
use kgmodel::core::supermodel::{
    Cardinality, Modifier, SmAttribute, SmEdge, SmGeneralization, SmNode, SuperSchema,
};
use kgmodel::core::{parse_gsl, to_gsl};

fn gen_type(rng: &mut Rng) -> ValueType {
    match rng.gen_range(0u32..5) {
        0 => ValueType::Bool,
        1 => ValueType::Int,
        2 => ValueType::Float,
        3 => ValueType::Str,
        _ => ValueType::Date,
    }
}

fn gen_attr(rng: &mut Rng, name: String, is_id: bool) -> SmAttribute {
    let ty = gen_type(rng);
    let (opt, unique, intensional) = (rng.gen_bool(0.5), rng.gen_bool(0.5), rng.gen_bool(0.5));
    let mut a = SmAttribute::new(name, ty);
    if is_id {
        a = a.id();
    } else {
        if opt {
            a = a.opt();
        }
        if intensional && !opt {
            a = a.intensional();
        }
    }
    if unique {
        a = a.with_modifier(Modifier::Unique);
    }
    a
}

/// 2-5 nodes named N0..; node 0 is the hierarchy root, later nodes may be
/// children of earlier ones; 0-4 edges between random nodes.
fn gen_schema(rng: &mut Rng) -> SuperSchema {
    let n = rng.gen_range(2usize..6);
    let total = rng.gen_bool(0.5);
    let mut s = SuperSchema::new("P");
    for i in 0..n {
        let mut attributes = vec![SmAttribute::new(format!("k{i}"), ValueType::Str).id()];
        let extra = rng.gen_range(0usize..3);
        for j in 0..extra {
            attributes.push(gen_attr(rng, format!("a{i}_{j}"), false));
        }
        s.add_node(SmNode {
            name: format!("N{i}"),
            is_intensional: false,
            attributes,
        });
    }
    // A forest: node i may specialize a node with smaller index. Ids of the
    // child merge into the parent's identifier set, which validation allows.
    for i in 1..n {
        if rng.gen_bool(0.5) {
            let p = rng.gen_range(0usize..n);
            if p < i {
                s.add_generalization(SmGeneralization {
                    parent: format!("N{p}"),
                    children: vec![format!("N{i}")],
                    is_total: total,
                    is_disjoint: !total,
                });
            }
        }
    }
    let m = rng.gen_range(0usize..5);
    for k in 0..m {
        let (f, t) = (rng.gen_range(0usize..n), rng.gen_range(0usize..n));
        s.add_edge(SmEdge {
            name: format!("E{k}"),
            from: format!("N{f}"),
            to: format!("N{t}"),
            is_intensional: k % 2 == 0,
            from_card: Cardinality {
                is_opt: rng.gen_bool(0.5),
                is_fun: rng.gen_bool(0.5),
            },
            to_card: Cardinality {
                is_opt: rng.gen_bool(0.5),
                is_fun: rng.gen_bool(0.5),
            },
            attributes: vec![],
        });
    }
    s
}

#[test]
fn emit_parse_round_trip() {
    check(
        "emit_parse_round_trip",
        &Config::with_cases(64),
        gen_schema,
        no_shrink,
        |schema| -> CaseResult {
            // Only valid schemas are in scope for the inverse property.
            prop_assume!(schema.validate().is_ok());
            let text = to_gsl(schema);
            let parsed =
                parse_gsl(&text).unwrap_or_else(|e| panic!("emitted GSL must parse: {e}\n{text}"));
            prop_assert_eq!(&parsed.nodes, &schema.nodes);
            prop_assert_eq!(&parsed.edges, &schema.edges);
            let mut g1 = schema.generalizations.clone();
            let mut g2 = parsed.generalizations.clone();
            g1.sort_by_key(|a| (a.parent.clone(), a.children.clone()));
            g2.sort_by_key(|a| (a.parent.clone(), a.children.clone()));
            prop_assert_eq!(g1, g2);
            Ok(())
        },
    );
}
