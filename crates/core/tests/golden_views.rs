//! Golden text of the view programs Algorithm 2 generates (lines 5–6,
//! Example 6.2): the input views `V_I` that read the instance relations into
//! label atoms, and the output views `V_O` that write head-label facts back
//! as instance constructs. The chase runs exactly these rules, so a change
//! to one rule, its order, a predicate name or a variable shows here.
//!
//! Three inputs:
//! - `simple_ownership_schema` with `CONTROL_METALOG`, the program the
//!   `pipeline_100k` benchmark workload runs;
//! - a small schema whose node label has an optional and an inherited
//!   attribute and whose edge label has a mandatory and an optional one;
//! - the same schema with a Σ that reads `Person`, whose descendant
//!   `Investor` gives it a second construct: `Person`'s rule is emitted
//!   once per construct of the subtree.
//!
//! Re-bless after an intentional change with
//! `KGM_BLESS=1 cargo test -p kgm-core --test golden_views`. CI runs
//! `KGM_GOLDEN_FROZEN=1`.

use kgm_core::intensional::view_programs;
use kgm_core::parse_gsl;
use kgm_finance::control::CONTROL_METALOG;
use kgm_finance::schema::simple_ownership_schema;
use kgm_runtime::snapshot::assert_snapshot;
use std::fmt::Write;

/// `Investor` inherits `pid` (an identifier) and `nick` (optional) from
/// `Person` and owns the intensional `holdings`; `HOLDS` has the mandatory
/// `share` and the optional `since`.
const MODIFIERS_GSL: &str = r#"
schema Modifiers {
  node Person { id pid: string; opt nick: string; }
  node Investor { intensional holdings: int; }
  generalization Person -> Investor;
  node Company { id cid: string; }
  edge HOLDS: Investor -> Company { share: float; opt since: date; }
  intensional edge CONTROLS: Investor -> Company;
}
"#;

/// Reads `Investor`, `Company` and `HOLDS`; writes `CONTROLS` and the
/// `Investor` node with its derived attribute.
const MODIFIERS_SIGMA: &str = r#"
(i: Investor)[: HOLDS; share: s](c: Company), s > 0.5 -> (i)[k: CONTROLS](c).
(i: Investor)[: HOLDS](c: Company), n = count(<c>) -> (i: Investor; holdings: n).
"#;

/// Reads `Person`, whose instances include every `Investor`.
const PARENT_SIGMA: &str = r#"
(p: Person)[: HOLDS](c: Company) -> (p)[k: CONTROLS](c).
"#;

#[test]
fn golden_view_programs() {
    let inputs = [
        (
            "simple_ownership_schema, CONTROL_METALOG",
            simple_ownership_schema().unwrap(),
            CONTROL_METALOG,
        ),
        (
            "optional, inherited and intensional attributes",
            parse_gsl(MODIFIERS_GSL).unwrap(),
            MODIFIERS_SIGMA,
        ),
        (
            "a label with a descendant",
            parse_gsl(MODIFIERS_GSL).unwrap(),
            PARENT_SIGMA,
        ),
    ];
    let mut out = String::new();
    for (name, schema, sigma) in &inputs {
        let (vi, vo) = view_programs(schema, sigma).unwrap();
        writeln!(out, "# {name}").unwrap();
        writeln!(out, "## V_I").unwrap();
        out.push_str(&vi);
        writeln!(out, "## V_O").unwrap();
        out.push_str(&vo);
    }
    assert_snapshot(
        format!(
            "{}/tests/golden/view_programs.txt",
            env!("CARGO_MANIFEST_DIR")
        ),
        &out,
    );
}
