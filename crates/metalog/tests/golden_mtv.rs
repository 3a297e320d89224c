//! Golden snapshots of the MTV compiler's output: the exact Vadalog source
//! emitted for representative MetaLog programs is pinned under
//! `tests/golden/`. A diff here means the compilation scheme changed —
//! review it, then re-bless with `KGM_BLESS=1 cargo test -p kgm-metalog`.
//! CI runs with `KGM_GOLDEN_FROZEN=1`, which also treats a missing golden
//! as a failure.

use kgm_metalog::{parse_metalog, translate, PgSchema};
use kgm_runtime::snapshot::assert_snapshot;

fn golden(name: &str) -> String {
    format!("{}/tests/golden/{name}.vadalog", env!("CARGO_MANIFEST_DIR"))
}

fn catalog() -> PgSchema {
    let mut s = PgSchema::new();
    s.declare_node("A", ["p", "q"])
        .declare_node("B", Vec::<String>::new())
        .declare_edge("R", ["w"])
        .declare_edge("S", Vec::<String>::new())
        .declare_edge("OUT", Vec::<String>::new());
    s
}

fn compile(src: &str) -> String {
    let meta = parse_metalog(src).unwrap();
    translate(&meta, &catalog(), "g").unwrap().vadalog_source
}

/// Single edge pattern with property bindings, a comparison, and scalar
/// arithmetic — the minimal "everything in one rule" compilation.
#[test]
fn golden_edge_with_conditions() {
    let out = compile(
        r#"
        (x: A; p: v)[e: R; w: u](y: B), v > 1, z = u * 2 + v
            -> (x)[o: OUT](y).
        "#,
    );
    assert_snapshot(golden("edge_with_conditions"), &out);
}

/// Kleene star over a single edge label: compiles to the auxiliary
/// reachability predicate with base + step rules (the paper's §4 regular
/// path translation).
#[test]
fn golden_kleene_star_reachability() {
    let out = compile("(x: A) ([: R])* (y: A) -> (x)[e: OUT](y).");
    assert_snapshot(golden("kleene_star_reachability"), &out);
}

/// Alternation of an inverse and a forward edge under a star — both
/// traversal directions must show in the generated step rules.
#[test]
fn golden_star_over_inverse_alternation() {
    let out = compile("(x: A) ([: R]- | [: S])* (y: B) -> (x)[o: OUT](y).");
    assert_snapshot(golden("star_over_inverse_alternation"), &out);
}

/// Two path patterns joined on a shared node variable (the families-program
/// shape) — exercises variable unification across patterns.
#[test]
fn golden_multi_path_join() {
    let out = compile(
        r#"
        (x: A)[: R](b: B), (y: A)[: R](b: B), x != y -> (x)[o: OUT](y).
        "#,
    );
    assert_snapshot(golden("multi_path_join"), &out);
}
