//! Additional MTV behaviour tests: annotation shapes, scalar pass-through
//! fidelity, multi-path bodies, and the documented unsupported shapes.

use kgm_common::Value;
use kgm_metalog::{parse_metalog, translate, PgSchema};
use kgm_vadalog::ast::BinOp;
use kgm_vadalog::{parse_program, Engine, Expr, RuleStep};

fn catalog() -> PgSchema {
    let mut s = PgSchema::new();
    s.declare_node("A", ["p", "q"])
        .declare_node("B", Vec::<String>::new())
        .declare_edge("R", ["w"])
        .declare_edge("S", Vec::<String>::new())
        .declare_edge("OUT", Vec::<String>::new());
    s
}

#[test]
fn generated_source_is_parseable_vadalog() {
    let meta = parse_metalog(
        r#"
        (x: A; p: v)[e: R; w: u](y: B), v > 1, z = u * 2 + v
            -> (x)[o: OUT](y).
        "#,
    )
    .unwrap();
    let out = translate(&meta, &catalog(), "g").unwrap();
    // Re-parse the emitted text independently.
    let reparsed = parse_program(&out.vadalog_source).unwrap();
    assert_eq!(reparsed.rules.len(), out.program.rules.len());
    Engine::new(reparsed).unwrap();
}

#[test]
fn multiple_path_patterns_share_variables() {
    // Two body paths joined on `b` — the families-program shape.
    let meta = parse_metalog(
        r#"
        (x: A)[: R](b: B), (y: A)[: R](b: B), x != y -> (x)[o: OUT](y).
        "#,
    )
    .unwrap();
    let out = translate(&meta, &catalog(), "g").unwrap();
    let rule = &out.program.rules[0];
    // B(b) appears twice textually but binds one variable: the two R atoms
    // must share their target variable.
    let src = &out.vadalog_source;
    assert!(src.contains("R(_, x, b"), "{src}");
    assert!(src.contains("R(_, y, b"), "{src}");
    assert!(rule.body.len() >= 4);
}

#[test]
fn annotations_cover_exactly_the_used_labels() {
    let meta = parse_metalog("(x: A)[: R](y: B) -> (x)[o: OUT](y).").unwrap();
    let out = translate(&meta, &catalog(), "g").unwrap();
    let inputs: Vec<&str> = out
        .program
        .inputs
        .iter()
        .map(|b| b.predicate.as_str())
        .collect();
    assert_eq!(inputs, vec!["A", "B", "R"]);
    let outputs: Vec<&str> = out
        .program
        .outputs
        .iter()
        .map(|o| o.predicate.as_str())
        .collect();
    assert_eq!(outputs, vec!["OUT"]);
    // Display strings match the paper's annotation shape.
    assert_eq!(out.program.inputs[0].display_query(), "(n:A) return n");
    assert_eq!(
        out.program.inputs[2].display_query(),
        "(a)-[e:R]->(b) return (e,a,b)"
    );
}

#[test]
fn nullable_inside_concat_is_the_documented_unsupported_shape() {
    let meta = parse_metalog("(x: A) ([: R]* . [: S]) (y: B) -> (x)[o: OUT](y).").unwrap();
    let err = translate(&meta, &catalog(), "g").unwrap_err();
    assert!(err.to_string().contains("nullable"), "{err}");
}

#[test]
fn star_of_star_collapses() {
    let meta = parse_metalog("(x: A) (([: R])*)* (y: B) -> (x)[o: OUT](y).").unwrap();
    let out = translate(&meta, &catalog(), "g").unwrap();
    // Exactly one transitive-closure predicate is introduced.
    let tc_defs = out
        .vadalog_source
        .lines()
        .filter(|l| l.contains("-> ml_tc_1(h, q)."))
        .count();
    assert_eq!(tc_defs, 1, "{}", out.vadalog_source);
    assert!(!out.vadalog_source.contains("ml_tc_2"));
    Engine::new(out.program).unwrap();
}

#[test]
fn alternation_of_stars_becomes_star_of_alternation() {
    // (R* | S*)* ≡ (R | S)*: ε-elimination inside the star.
    let meta = parse_metalog("(x: A) (([: R]* | [: S]*))* (y: B) -> (x)[o: OUT](y).").unwrap();
    let out = translate(&meta, &catalog(), "g").unwrap();
    // One β with two base rules through an α or direct alternation.
    assert!(
        out.vadalog_source.contains("ml_tc_1"),
        "{}",
        out.vadalog_source
    );
    Engine::new(out.program).unwrap();
}

#[test]
fn edge_property_constants_are_allowed_under_composites() {
    // Constants (unlike named variables) are fine under `|` and `*`.
    let meta = parse_metalog(r#"(x: A) ([: R; w: 3] | [: S]) (y: B) -> (x)[o: OUT](y)."#).unwrap();
    let out = translate(&meta, &catalog(), "g").unwrap();
    assert!(
        out.vadalog_source.contains("R(_, h, q, 3)"),
        "{}",
        out.vadalog_source
    );
}

#[test]
fn negated_node_atom_translates_to_not() {
    let meta = parse_metalog("(x: A), not (x: B) -> (x)[o: OUT](x).").unwrap();
    let out = translate(&meta, &catalog(), "g").unwrap();
    assert!(
        out.vadalog_source.contains("not B(x)"),
        "{}",
        out.vadalog_source
    );
}

#[test]
fn anonymous_source_node_gets_a_fresh_variable() {
    let meta = parse_metalog("(: A)[: R](y: B) -> (y)[o: OUT](y).").unwrap();
    let out = translate(&meta, &catalog(), "g").unwrap();
    assert!(
        out.vadalog_source.contains("A(mlv_"),
        "{}",
        out.vadalog_source
    );
}

#[test]
fn unicode_labels_and_string_constants_survive_translation() {
    let mut catalog = PgSchema::new();
    catalog
        .declare_node("Società", ["nome"])
        .declare_edge("OUT", Vec::<String>::new());
    let meta =
        parse_metalog(r#"(x: Società; nome: n), n == "Società per Azioni" -> (x)[o: OUT](x)."#)
            .unwrap();
    let out = translate(&meta, &catalog, "g").unwrap();
    let rule = &out.program.rules[0];
    assert_eq!(rule.body[0].predicate, "Società");
    match rule.steps.as_slice() {
        [RuleStep::Condition(Expr::Bin(BinOp::Eq, _, rhs))] => {
            assert_eq!(**rhs, Expr::Const(Value::str("Società per Azioni")));
        }
        other => panic!("expected one equality condition, got {other:?}"),
    }
}
