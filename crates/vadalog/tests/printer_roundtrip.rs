//! Round-trip property: for every generated program `p`,
//! `parse(print(p)) == p` — full AST equality, including variable
//! numbering (the generator emits source text, so variable indices follow
//! the parser's first-occurrence order on both sides).
//!
//! This suite is what forced two real fixes:
//!
//! - the printer emitted string literals with raw `\n`/`\t` bytes even
//!   though the lexer only accepts them as `\\n`/`\\t` escapes, so any
//!   program with a multi-line string failed to reparse;
//! - the parser desugared a negated numeric literal in expression position
//!   to `0 - c`, so a printed `-3` did not reparse to `Const(-3)`.

use kgm_runtime::prop::{check, CaseError, CaseResult, Config};
use kgm_runtime::rng::Rng;
use kgm_vadalog::genprog::{gen_case, shrink_case};
use kgm_vadalog::{parse_program, to_source, GenConfig};

fn round_trips(src: &str) -> CaseResult {
    let p1 =
        parse_program(src).map_err(|e| CaseError::fail(format!("original does not parse: {e}")))?;
    let (printed, parseable) = to_source(&p1);
    if !parseable {
        return Err(CaseError::fail(format!(
            "printer flagged generated program unparseable:\n{printed}"
        )));
    }
    let p2 = parse_program(&printed)
        .map_err(|e| CaseError::fail(format!("printed form does not reparse: {e}\n{printed}")))?;
    if p1 != p2 {
        return Err(CaseError::fail(format!(
            "parse(print(p)) != p\nprinted:\n{printed}\noriginal AST: {p1:#?}\nreparsed AST: {p2:#?}"
        )));
    }
    Ok(())
}

#[test]
fn parse_print_parse_is_identity_on_generated_programs() {
    check(
        "printer_roundtrip::parse_print_parse_is_identity_on_generated_programs",
        &Config::with_cases(256),
        |rng: &mut Rng| gen_case(rng, &GenConfig::default()),
        shrink_case,
        |case| round_trips(&case.source()),
    );
}

/// Directed cases for the two bugs the property found, so they stay fixed
/// even if the generator's string pool changes.
#[test]
fn escapes_and_negative_literals_round_trip() {
    for src in [
        "p(\"line\\nbreak\", \"tab\\there\").",
        "p(\"back\\\\slash \\\"quoted\\\"\").",
        "a(X), Y = X + -3 -> b(Y).",
        "a(X), Y = -2.5 * X -> b(Y).",
        "a(X), S = skolem(\"s\\nk\", X) -> b(S).",
    ] {
        round_trips(src).unwrap_or_else(|e| panic!("{src}: {e:?}"));
    }
}
