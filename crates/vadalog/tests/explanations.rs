//! Differential property suite for why-provenance and derivation trees.
//!
//! Over genprog-fuzzed warded programs, with `EngineConfig::provenance` on,
//! at 1 and 4 worker threads, every derivation tree the engine can produce
//! must be:
//!
//! - **grounded** — every leaf is an EDB fact (a program fact), every
//!   non-EDB fact in the database carries exactly one provenance edge, and
//!   no EDB fact carries one;
//! - **sound** — for every internal node, re-running *just that node's
//!   rule* over *just its recorded parents* through the independent naive
//!   oracle re-derives the node's fact. Facts are compared modulo a
//!   consistent per-tuple renaming of invented values (labelled nulls and
//!   Skolem OIDs), since a re-run mints its own payloads.
//!
//! The per-node re-derivation check is exact for the programs genprog
//! emits: exact aggregates are non-recursive and their contributor keys
//! determine the contributed value (so the restricted group recomputes the
//! same aggregate), and monotonic aggregates are threshold-gated with the
//! target never reaching the head (so any superset of contributions that
//! crosses the threshold re-derives the same head).
//!
//! As a cross-implementation check, the engine's edge count must equal the
//! naive oracle's own derived-fact count ([`naive_chase_prov`] — an
//! independent provenance implementation on the row store).

use std::collections::HashSet;

use kgm_common::{Oid, OidSpace, Value};
use kgm_runtime::prop::{check, CaseError, CaseResult, Config};
use kgm_runtime::rng::Rng;
use kgm_vadalog::genprog::{gen_case, shrink_case};
use kgm_vadalog::oracle::{naive_chase_with, OracleConfig};
use kgm_vadalog::{
    explain, naive_chase_prov, Atom, DerivationTree, Engine, EngineConfig, FactDb, GenCase,
    GenConfig, Program, Term,
};

fn config(threads: usize) -> EngineConfig {
    EngineConfig {
        threads,
        min_parallel_batch: 1,
        deadline_ms: None,
        provenance: true,
        ..EngineConfig::default()
    }
}

type Fact = (String, Vec<Value>);

fn edb_facts(program: &Program) -> HashSet<Fact> {
    program
        .facts
        .iter()
        .map(|f| {
            let tuple: Vec<Value> = f
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(v) => v.clone(),
                    Term::Var(_) => unreachable!("facts are ground"),
                })
                .collect();
            (f.predicate.clone(), tuple)
        })
        .collect()
}

/// `candidate` (from a re-run) matches `target` (from the engine) modulo a
/// consistent per-tuple bijection of invented values: ground positions must
/// be equal; invented positions must share the OID space and map
/// one-to-one.
fn unifies(candidate: &[Value], target: &[Value]) -> bool {
    if candidate.len() != target.len() {
        return false;
    }
    let invented = |v: &Value| match v {
        Value::Oid(o) if o.space() != OidSpace::Ground => Some(*o),
        _ => None,
    };
    let mut fwd = std::collections::HashMap::new();
    let mut bwd = std::collections::HashMap::new();
    for (c, t) in candidate.iter().zip(target.iter()) {
        match (invented(c), invented(t)) {
            (Some(co), Some(to)) => {
                if co.space() != to.space() {
                    return false;
                }
                if *fwd.entry(co).or_insert(to) != to || *bwd.entry(to).or_insert(co) != co {
                    return false;
                }
            }
            (None, None) => {
                if c != t {
                    return false;
                }
            }
            _ => return false,
        }
    }
    true
}

/// Rewrite every invented value into a high payload range (preserving
/// identity and OID space) so that the soundness re-run's freshly minted
/// nulls — whose payloads restart from zero — can never numerically
/// collide with an engine-minted null smuggled in through the restricted
/// EDB. Without this, `unifies` can reject a genuinely sound derivation.
fn remap_invented(tuple: &[Value], map: &mut std::collections::HashMap<Oid, Oid>) -> Vec<Value> {
    const HIGH: u64 = 1 << 40;
    tuple
        .iter()
        .map(|v| match v {
            Value::Oid(o) if o.space() != OidSpace::Ground => {
                let mapped = match map.get(o) {
                    Some(m) => *m,
                    None => {
                        let m = Oid::new(o.space(), HIGH + map.len() as u64);
                        map.insert(*o, m);
                        m
                    }
                };
                Value::Oid(mapped)
            }
            _ => v.clone(),
        })
        .collect()
}

/// Soundness of one internal node: a single-rule program whose EDB is
/// exactly the node's recorded parents must re-derive the node's fact.
fn check_node_sound(program: &Program, tree: &DerivationTree) -> Result<(), CaseError> {
    let ri = tree.rule.expect("internal node");
    let mut restricted = Program {
        rules: vec![program.rules[ri].clone()],
        ..Program::default()
    };
    let mut oid_map = std::collections::HashMap::new();
    let target = remap_invented(&tree.tuple, &mut oid_map);
    for child in &tree.children {
        restricted.facts.push(Atom::new(
            &child.predicate,
            remap_invented(&child.tuple, &mut oid_map)
                .into_iter()
                .map(Term::Const)
                .collect(),
        ));
    }
    let rdb = naive_chase_with(&restricted, &[], &OracleConfig::default()).map_err(|e| {
        CaseError::fail(format!(
            "soundness re-run of rule {ri} for {}{:?} errored: {e}",
            tree.predicate, tree.tuple
        ))
    })?;
    if !rdb
        .facts(&tree.predicate)
        .iter()
        .any(|t| unifies(t, &target))
    {
        return Err(CaseError::fail(format!(
            "unsound derivation: rule {ri} over recorded parents does not re-derive \
             {}{:?} (re-run found {:?})",
            tree.predicate,
            tree.tuple,
            rdb.facts(&tree.predicate)
        )));
    }
    Ok(())
}

fn check_tree(
    program: &Program,
    tree: &DerivationTree,
    edb: &HashSet<Fact>,
) -> Result<(), CaseError> {
    match tree.rule {
        None => {
            // Groundedness: every leaf must be an EDB fact.
            if !edb.contains(&(tree.predicate.clone(), tree.tuple.clone())) {
                return Err(CaseError::fail(format!(
                    "ungrounded leaf: {}{:?} is not an EDB fact",
                    tree.predicate, tree.tuple
                )));
            }
        }
        Some(_) if tree.shared => {
            // Expanded (and checked) at its first preorder occurrence.
            debug_assert!(tree.children.is_empty());
        }
        Some(_) => {
            check_node_sound(program, tree)?;
            for child in &tree.children {
                check_tree(program, child, edb)?;
            }
        }
    }
    Ok(())
}

fn explanations_property(case: &GenCase) -> CaseResult {
    let program = case.program();
    let edb = edb_facts(&program);
    let (_, oracle_edges) = naive_chase_prov(&program, &[], &OracleConfig::default())
        .map_err(|e| CaseError::fail(format!("oracle error: {e}")))?;
    for threads in [1usize, 4] {
        let engine = Engine::with_config(case.program(), config(threads))
            .map_err(|e| CaseError::reject(format!("engine admission: {e}")))?;
        let mut db = FactDb::new();
        let stats = engine
            .run(&mut db)
            .map_err(|e| CaseError::fail(format!("engine({threads} threads) error: {e}")))?;
        if !stats.termination.is_complete() {
            return Err(CaseError::fail(format!(
                "engine({threads} threads) truncated: {:?}",
                stats.termination
            )));
        }
        // Independent implementations must agree on how many facts are
        // derived (= carry an edge).
        if stats.profile.prov_edges != oracle_edges.len() {
            return Err(CaseError::fail(format!(
                "engine({threads} threads) recorded {} edges, oracle derived {} facts",
                stats.profile.prov_edges,
                oracle_edges.len()
            )));
        }
        for pred in db.predicates() {
            for tuple in db.facts(&pred) {
                let id = db.find_id(&pred, &tuple).expect("listed fact resolves");
                let has_edge = db.prov_edge(id).is_some();
                let is_edb = edb.contains(&(pred.clone(), tuple.clone()));
                if has_edge == is_edb {
                    return Err(CaseError::fail(format!(
                        "{}{:?}: edge={} but edb={} — every fact must be exactly one \
                         of derived-with-edge or EDB (threads={threads})",
                        pred, tuple, has_edge, is_edb
                    )));
                }
                if has_edge {
                    let tree = explain(&db, &pred, &tuple).ok_or_else(|| {
                        CaseError::fail(format!("explain lost fact {pred}{tuple:?}"))
                    })?;
                    check_tree(&program, &tree, &edb)?;
                }
            }
        }
    }
    Ok(())
}

/// The gate the issue asks for: sound + grounded derivation trees for every
/// derived fact, at 1 and 4 threads, across fuzzed warded programs.
#[test]
fn derivation_trees_are_sound_and_grounded() {
    check(
        "explanations::derivation_trees_are_sound_and_grounded",
        &Config::with_cases(96),
        |rng: &mut Rng| gen_case(rng, &GenConfig::default()),
        shrink_case,
        explanations_property,
    );
}
