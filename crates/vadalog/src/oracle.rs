//! Naive-chase reference interpreter and labelled-null isomorphism.
//!
//! The optimized engine in [`crate::engine`] earns its speed from deltas,
//! hash-join indexes, sharded parallel evaluation, and per-stratum
//! bookkeeping — all of which are exactly the places where a subtle bug
//! could silently change the *answers*, not just the timings. This module
//! is the independent definition of correctness those optimizations are
//! differentially tested against:
//!
//! - [`naive_chase`] evaluates a program the slowest obviously-correct
//!   way: per stratum, re-enumerate **every** rule over **all** facts with
//!   nested loops in written atom order (no indexes, no deltas, no join
//!   reordering) and insert to fixpoint. It reuses only the leaf semantics
//!   the engine and the oracle must share by definition — expression
//!   evaluation ([`crate::eval`]), Skolem-chase null reuse keyed by
//!   `(rule, variable, frontier)`, and the aggregate combine tables —
//!   while re-implementing all control flow from scratch.
//! - [`canonical_facts`] renders a database into a canonical text form in
//!   which labelled nulls and Skolem OIDs are renumbered by a greedy
//!   canonical labelling, so two chase runs can be compared for
//!   *isomorphism* (set equality modulo a bijective renaming of invented
//!   values) rather than payload-exact equality — null payloads depend on
//!   mint order, which is an implementation detail.
//!
//! Equal canonical forms always mean genuinely isomorphic databases (the
//! canonical text determines the structure up to renaming). Before the
//! greedy pass, colour refinement gives every invented value a colour
//! computed from the facts it occurs in, never from their order, and the
//! greedy pass orders unassigned values by it. Only values that refinement
//! cannot tell apart can still tie, so in pathologically symmetric
//! databases two isomorphic runs could in principle canonicalize
//! differently — a false *alarm*, never a false *pass* — but the chase
//! distinguishes every null by its ground frontier context, so this does
//! not arise for chase outputs.

use crate::analysis::{AggMode, ProgramAnalysis};
use crate::ast::{Aggregate, AggregateFunc, BinOp, Program, Rule, RuleStep, Term, Var};
use crate::engine::FactDb;
use crate::eval::{bin, eval, EvalCtx};
use kgm_common::{
    FxHashMap, FxHashSet, KgmError, Oid, OidGen, OidSpace, Result, SkolemRegistry, Value,
};

/// A deliberately row-oriented fact store: one `Vec<Vec<Value>>` per
/// predicate in insertion order, deduplicated through an `FxHashSet` that
/// stores every tuple a second time — exactly the physical layout
/// [`FactDb`] had before it went columnar. The oracle keeps it on purpose:
/// with the engine on packed per-column ids and the oracle on plain value
/// rows, the differential suite compares two independent *physical
/// representations*, not just two evaluation strategies, so an interning or
/// packing bug cannot cancel out of the comparison.
#[derive(Default, Debug)]
pub struct RowDb {
    rels: FxHashMap<String, RowRel>,
    total: usize,
}

#[derive(Debug)]
struct RowRel {
    arity: usize,
    tuples: Vec<Vec<Value>>,
    set: FxHashSet<Vec<Value>>,
}

impl RowDb {
    pub fn new() -> RowDb {
        RowDb::default()
    }

    /// Insert one fact; returns `true` if it was new. Duplicates are decided
    /// by `Value` equality (`Int(1) == Float(1.0)`), first insert wins —
    /// the contract the columnar store must reproduce.
    pub fn insert(&mut self, predicate: &str, tuple: Vec<Value>) -> Result<bool> {
        let rel = self
            .rels
            .entry(predicate.to_string())
            .or_insert_with(|| RowRel {
                arity: tuple.len(),
                tuples: Vec::new(),
                set: FxHashSet::default(),
            });
        if rel.arity != tuple.len() {
            return Err(KgmError::Schema(format!(
                "predicate `{predicate}` has arity {}, got tuple of length {}",
                rel.arity,
                tuple.len()
            )));
        }
        if !rel.set.insert(tuple.clone()) {
            return Ok(false);
        }
        rel.tuples.push(tuple);
        self.total += 1;
        Ok(true)
    }

    /// Bulk insert.
    pub fn add_facts(&mut self, predicate: &str, tuples: Vec<Vec<Value>>) -> Result<usize> {
        let mut n = 0;
        for t in tuples {
            if self.insert(predicate, t)? {
                n += 1;
            }
        }
        Ok(n)
    }

    /// The facts of `predicate` in insertion order (empty if unknown). Row
    /// layout makes this a plain borrow.
    pub fn facts(&self, predicate: &str) -> &[Vec<Value>] {
        self.rels.get(predicate).map_or(&[], |r| &r.tuples)
    }

    /// Exact containment test.
    pub fn contains(&self, predicate: &str, tuple: &[Value]) -> bool {
        self.rels
            .get(predicate)
            .is_some_and(|r| r.set.contains(tuple))
    }

    /// Number of facts for `predicate`.
    pub fn len(&self, predicate: &str) -> usize {
        self.rels.get(predicate).map_or(0, |r| r.tuples.len())
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Total fact count across predicates.
    pub fn total_facts(&self) -> usize {
        self.total
    }

    /// All predicate names, sorted.
    pub fn predicates(&self) -> Vec<String> {
        let mut v: Vec<String> = self.rels.keys().cloned().collect();
        v.sort();
        v
    }
}

/// Safety caps for the oracle. The naive chase has no governor, deadline,
/// or cancellation — these two limits exist only so a buggy generated
/// program fails a test instead of hanging it.
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// Maximum fixpoint passes per stratum.
    pub max_iterations: usize,
    /// Maximum total facts in the database.
    pub max_facts: usize,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            max_iterations: 10_000,
            max_facts: 1_000_000,
        }
    }
}

/// Monotonic-aggregate accumulator: one per `(rule, group)`, holding the
/// idempotent contributor set and the current running value. Mirrors the
/// engine's semantics (first contribution per key wins; re-contributions
/// are no-ops).
struct MonoState {
    contributors: FxHashMap<Vec<Value>, Value>,
    current: Value,
    /// With provenance on: every parent fact of every accepted
    /// contribution so far, in contribution order — an aggregate firing's
    /// edge carries the full accumulated snapshot, exactly like the engine.
    parents: ProvParents,
}

/// Parent facts of one derivation, as plain `(predicate, tuple)` values —
/// the oracle's storage-independent analogue of the engine's dense fact
/// ids.
pub type ProvParents = Vec<(String, Vec<Value>)>;

/// Why-provenance recorded by [`naive_chase_prov`]: for each *derived*
/// fact, the rule index and parent facts of the firing that first inserted
/// it. EDB facts (inputs and program facts) have no entry.
pub type OracleProvEdges = FxHashMap<(String, Vec<Value>), (usize, ProvParents)>;

/// The body-match trail threaded through [`enumerate`]: when `on`, the
/// matched tuple of every body atom bound so far, in written atom order.
struct Trail {
    on: bool,
    items: ProvParents,
}

fn initial_value(func: AggregateFunc) -> Value {
    match func {
        AggregateFunc::Sum | AggregateFunc::MSum | AggregateFunc::Avg => Value::Int(0),
        AggregateFunc::Count | AggregateFunc::MCount => Value::Int(0),
        AggregateFunc::Prod | AggregateFunc::MProd => Value::Int(1),
        AggregateFunc::Min | AggregateFunc::MMin => Value::Float(f64::MAX),
        AggregateFunc::Max | AggregateFunc::MMax => Value::Float(f64::MIN),
    }
}

fn combine(func: AggregateFunc, acc: &Value, v: &Value) -> Result<Value> {
    match func {
        AggregateFunc::Sum | AggregateFunc::MSum | AggregateFunc::Avg => bin(BinOp::Add, acc, v),
        AggregateFunc::Count | AggregateFunc::MCount => bin(BinOp::Add, acc, &Value::Int(1)),
        AggregateFunc::Prod | AggregateFunc::MProd => bin(BinOp::Mul, acc, v),
        AggregateFunc::Min | AggregateFunc::MMin => Ok(if v.total_cmp(acc).is_lt() {
            v.clone()
        } else {
            acc.clone()
        }),
        AggregateFunc::Max | AggregateFunc::MMax => Ok(if v.total_cmp(acc).is_gt() {
            v.clone()
        } else {
            acc.clone()
        }),
    }
}

/// Per-rule facts the oracle needs, computed once up front.
struct OracleMeta {
    stratum: usize,
    group_vars: Vec<Var>,
    existentials: Vec<Var>,
    frontier: Vec<Var>,
    agg_step: Option<usize>,
    agg_mode: Option<AggMode>,
}

/// Run the naive chase over `program` with default safety caps.
pub fn naive_chase(program: &Program) -> Result<RowDb> {
    naive_chase_with(program, &[], &OracleConfig::default())
}

/// Run the naive chase: `inputs` are loaded first (mirroring
/// `Engine::run_with_facts`), then the program's own facts, then every
/// stratum runs exact-aggregate rules once followed by an
/// everything-every-pass fixpoint over the remaining rules.
pub fn naive_chase_with(
    program: &Program,
    inputs: &[(&str, Vec<Vec<Value>>)],
    config: &OracleConfig,
) -> Result<RowDb> {
    let (db, _) = naive_chase_impl(program, inputs, config, false)?;
    Ok(db)
}

/// From-scratch reference for [`crate::engine::Engine::apply_update`]: the
/// naive chase over the *updated* EDB — `base` in its original insertion
/// order, minus `deletes` (applied first, like the engine), with `inserts`
/// appended last (where `Engine::apply_update` physically puts them). An
/// incremental run must be isomorphic to this database.
pub fn naive_chase_updated(
    program: &Program,
    base: &[(String, Vec<Value>)],
    deletes: &[(String, Vec<Value>)],
    inserts: &[(String, Vec<Value>)],
    config: &OracleConfig,
) -> Result<RowDb> {
    fn push_to(grouped: &mut Vec<(String, Vec<Vec<Value>>)>, pred: &str, tuple: Vec<Value>) {
        if let Some((_, rows)) = grouped.iter_mut().find(|(p, _)| p == pred) {
            rows.push(tuple);
        } else {
            grouped.push((pred.to_string(), vec![tuple]));
        }
    }
    // Per-predicate relative order is what the engine's physical row order
    // preserves across deletions, so it is what the oracle must see.
    let mut grouped: Vec<(String, Vec<Vec<Value>>)> = Vec::new();
    for (pred, tuple) in base.iter().filter(|f| !deletes.contains(f)) {
        push_to(&mut grouped, pred, tuple.clone());
    }
    for (pred, tuple) in inserts {
        push_to(&mut grouped, pred, tuple.clone());
    }
    let refs: Vec<(&str, Vec<Vec<Value>>)> = grouped
        .iter()
        .map(|(p, rows)| (p.as_str(), rows.clone()))
        .collect();
    naive_chase_with(program, &refs, config)
}

/// [`naive_chase_with`] recording why-provenance as it goes: returns the
/// fixpoint database together with one `(rule, parents)` edge per derived
/// fact (first insertion wins, parents deduplicated in first-occurrence
/// order). This is an *independent* provenance implementation — value-row
/// trails through the nested-loop enumerator, no fact ids, no deltas — so
/// the engine's `ProvStore` can be differentially tested against it.
pub fn naive_chase_prov(
    program: &Program,
    inputs: &[(&str, Vec<Vec<Value>>)],
    config: &OracleConfig,
) -> Result<(RowDb, OracleProvEdges)> {
    naive_chase_impl(program, inputs, config, true)
}

fn naive_chase_impl(
    program: &Program,
    inputs: &[(&str, Vec<Vec<Value>>)],
    config: &OracleConfig,
    prov: bool,
) -> Result<(RowDb, OracleProvEdges)> {
    let analysis = ProgramAnalysis::analyze(program)?;
    let mut db = RowDb::new();
    for (pred, tuples) in inputs {
        db.add_facts(pred, tuples.clone())?;
    }
    for f in &program.facts {
        let tuple: Vec<Value> = f
            .terms
            .iter()
            .map(|t| match t {
                Term::Const(v) => v.clone(),
                Term::Var(_) => unreachable!("facts are ground"),
            })
            .collect();
        db.insert(&f.predicate, tuple)?;
    }

    let meta: Vec<OracleMeta> = program
        .rules
        .iter()
        .enumerate()
        .map(|(ri, rule)| {
            let stratum = rule
                .head
                .iter()
                .map(|h| analysis.stratification.of(&h.predicate))
                .max()
                .unwrap_or(0);
            let mut group_vars: Vec<Var> = Vec::new();
            if let Some(agg) = rule.aggregate() {
                let bound: std::collections::HashSet<Var> = rule.bound_vars().into_iter().collect();
                group_vars = rule.head[0]
                    .vars()
                    .filter(|v| *v != agg.target && bound.contains(v))
                    .collect();
                group_vars.sort_unstable();
                group_vars.dedup();
            }
            OracleMeta {
                stratum,
                group_vars,
                existentials: rule.existential_vars(),
                frontier: rule.frontier(),
                agg_step: rule
                    .steps
                    .iter()
                    .position(|s| matches!(s, RuleStep::Aggregate(_))),
                agg_mode: analysis.agg_modes.get(&ri).copied(),
            }
        })
        .collect();

    let skolems = SkolemRegistry::new();
    let null_gen = OidGen::new(OidSpace::Null);
    let mut nulls: FxHashMap<(usize, Var, Vec<Value>), Oid> = FxHashMap::default();
    let mut mono: FxHashMap<(usize, Vec<Value>), MonoState> = FxHashMap::default();
    let mut edges: OracleProvEdges = OracleProvEdges::default();

    for s in 0..analysis.stratification.count {
        // 1. Exact-aggregate rules: their bodies live strictly below this
        //    stratum, so the relations are complete — evaluate each once.
        for (ri, rule) in program.rules.iter().enumerate() {
            if meta[ri].stratum != s || meta[ri].agg_mode != Some(AggMode::Exact) {
                continue;
            }
            let (out, prov_out) = eval_exact_rule(
                &db, ri, rule, &meta[ri], &skolems, &null_gen, &mut nulls, prov,
            )?;
            for (i, (pred, tuple)) in out.into_iter().enumerate() {
                record_insert(&mut db, &mut edges, prov, &prov_out, i, pred, tuple)?;
            }
        }
        // 2. All remaining rules of the stratum, every rule over all facts,
        //    to fixpoint. Head batches insert after a full pass, so every
        //    rule in a pass sees the same frozen database (negation
        //    included) — the same per-iteration snapshot the engine uses.
        let rules: Vec<usize> = (0..program.rules.len())
            .filter(|&ri| meta[ri].stratum == s && meta[ri].agg_mode != Some(AggMode::Exact))
            .collect();
        if rules.is_empty() {
            continue;
        }
        let mut iterations = 0usize;
        loop {
            if iterations >= config.max_iterations {
                return Err(KgmError::ResourceExhausted(format!(
                    "oracle: stratum {s} exceeded {} naive passes",
                    config.max_iterations
                )));
            }
            iterations += 1;
            let mut out: Vec<(String, Vec<Value>)> = Vec::new();
            let mut prov_out: Vec<(usize, ProvParents)> = Vec::new();
            for &ri in &rules {
                let rule = &program.rules[ri];
                let mut binding: Vec<Option<Value>> = vec![None; rule.var_names.len()];
                let mut trail = Trail {
                    on: prov,
                    items: Vec::new(),
                };
                enumerate(
                    &db,
                    rule,
                    0,
                    &mut binding,
                    &mut trail,
                    &mut |binding, parents| {
                        fire(
                            &db,
                            ri,
                            rule,
                            &meta[ri],
                            binding,
                            parents,
                            &skolems,
                            &null_gen,
                            &mut nulls,
                            &mut mono,
                            &mut out,
                            prov,
                            &mut prov_out,
                        )
                    },
                )?;
            }
            let mut inserted = 0usize;
            for (i, (pred, tuple)) in out.into_iter().enumerate() {
                if record_insert(&mut db, &mut edges, prov, &prov_out, i, pred, tuple)? {
                    inserted += 1;
                }
            }
            if db.total_facts() > config.max_facts {
                return Err(KgmError::ResourceExhausted(format!(
                    "oracle: {} facts exceed the cap of {}",
                    db.total_facts(),
                    config.max_facts
                )));
            }
            if inserted == 0 {
                break;
            }
        }
    }
    Ok((db, edges))
}

/// Insert one head fact and, with provenance on, record its `(rule,
/// parents)` edge when (and only when) the insert was new — first
/// derivation wins, duplicate parents dropped in first-occurrence order,
/// EDB facts never recorded. Mirrors the engine's `ProvStore` contract.
fn record_insert(
    db: &mut RowDb,
    edges: &mut OracleProvEdges,
    prov: bool,
    prov_out: &[(usize, ProvParents)],
    i: usize,
    pred: String,
    tuple: Vec<Value>,
) -> Result<bool> {
    if !prov {
        return db.insert(&pred, tuple);
    }
    if !db.insert(&pred, tuple.clone())? {
        return Ok(false);
    }
    let (ri, parents) = &prov_out[i];
    let mut seen: FxHashSet<&(String, Vec<Value>)> = FxHashSet::default();
    let deduped: ProvParents = parents
        .iter()
        .filter(|p| seen.insert(*p))
        .cloned()
        .collect();
    edges.insert((pred, tuple), (*ri, deduped));
    Ok(true)
}

/// Nested-loop enumeration of every complete match of `rule.body`, in
/// written atom order, with no indexes: for each tuple of atom `ai` that
/// is consistent with the binding so far, recurse into atom `ai + 1`.
fn enumerate(
    db: &RowDb,
    rule: &Rule,
    ai: usize,
    binding: &mut Vec<Option<Value>>,
    trail: &mut Trail,
    on_match: &mut dyn FnMut(&mut Vec<Option<Value>>, &[(String, Vec<Value>)]) -> Result<()>,
) -> Result<()> {
    if ai == rule.body.len() {
        return on_match(binding, &trail.items);
    }
    let atom = &rule.body[ai];
    for tuple in db.facts(&atom.predicate) {
        if tuple.len() != atom.terms.len() {
            return Err(KgmError::Schema(format!(
                "oracle: atom {}/{} joined against arity-{} relation",
                atom.predicate,
                atom.terms.len(),
                tuple.len()
            )));
        }
        let mut newly_bound: Vec<Var> = Vec::new();
        let mut ok = true;
        for (t, v) in atom.terms.iter().zip(tuple.iter()) {
            match t {
                Term::Const(c) => {
                    if c != v {
                        ok = false;
                        break;
                    }
                }
                Term::Var(x) => match &binding[x.0 as usize] {
                    Some(b) => {
                        if b != v {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        binding[x.0 as usize] = Some(v.clone());
                        newly_bound.push(*x);
                    }
                },
            }
        }
        if ok {
            if trail.on {
                trail.items.push((atom.predicate.clone(), tuple.clone()));
            }
            enumerate(db, rule, ai + 1, binding, trail, on_match)?;
            if trail.on {
                trail.items.pop();
            }
        }
        for x in newly_bound {
            binding[x.0 as usize] = None;
        }
    }
    Ok(())
}

/// Run one matched binding through the rule's steps and, if it survives,
/// emit the heads. Mirrors the engine's step semantics exactly: conditions
/// must evaluate to a boolean, assignments bind, negation checks the
/// frozen database, and a monotonic aggregate contributes idempotently and
/// only emits when its running value moves.
#[allow(clippy::too_many_arguments)]
fn fire(
    db: &RowDb,
    ri: usize,
    rule: &Rule,
    meta: &OracleMeta,
    binding: &mut Vec<Option<Value>>,
    parents: &[(String, Vec<Value>)],
    skolems: &SkolemRegistry,
    null_gen: &OidGen,
    nulls: &mut FxHashMap<(usize, Var, Vec<Value>), Oid>,
    mono: &mut FxHashMap<(usize, Vec<Value>), MonoState>,
    out: &mut Vec<(String, Vec<Value>)>,
    prov: bool,
    prov_out: &mut Vec<(usize, ProvParents)>,
) -> Result<()> {
    let ctx = EvalCtx { skolems };
    let mut assigned: Vec<Var> = Vec::new();
    let mut emit = true;
    // The firing's edge parents: the body-match trail for plain rules,
    // replaced by the accumulated contributor snapshot when a monotonic
    // aggregate moves (an aggregate head depends on *every* contribution).
    let mut edge_parents: ProvParents = if prov { parents.to_vec() } else { Vec::new() };
    for step in &rule.steps {
        match step {
            RuleStep::Condition(e) => match eval(e, binding, &ctx) {
                Ok(Value::Bool(true)) => {}
                Ok(Value::Bool(false)) => {
                    emit = false;
                    break;
                }
                Ok(other) => {
                    undo(binding, &assigned);
                    return Err(KgmError::Type(format!(
                        "condition evaluated to non-bool {other:?}"
                    )));
                }
                Err(e) => {
                    undo(binding, &assigned);
                    return Err(e);
                }
            },
            RuleStep::Assign(v, e) => match eval(e, binding, &ctx) {
                Ok(val) => {
                    binding[v.0 as usize] = Some(val);
                    assigned.push(*v);
                }
                Err(e) => {
                    undo(binding, &assigned);
                    return Err(e);
                }
            },
            RuleStep::Negated(a) => {
                let tuple: Vec<Value> = a
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Const(v) => v.clone(),
                        Term::Var(v) => {
                            binding[v.0 as usize].clone().expect("safety-checked bound")
                        }
                    })
                    .collect();
                if db.contains(&a.predicate, &tuple) {
                    emit = false;
                    break;
                }
            }
            RuleStep::Aggregate(agg) => {
                let func = match meta.agg_mode {
                    Some(AggMode::Monotonic(f)) => f,
                    _ => {
                        undo(binding, &assigned);
                        return Err(KgmError::Internal(
                            "oracle: exact aggregate in fixpoint path".to_string(),
                        ));
                    }
                };
                match contribute(
                    agg,
                    func,
                    ri,
                    meta,
                    binding,
                    mono,
                    &ctx,
                    prov,
                    &mut edge_parents,
                ) {
                    Ok(Some(updated)) => {
                        binding[agg.target.0 as usize] = Some(updated);
                        assigned.push(agg.target);
                    }
                    Ok(None) => {
                        emit = false;
                        break;
                    }
                    Err(e) => {
                        undo(binding, &assigned);
                        return Err(e);
                    }
                }
            }
        }
    }
    if emit {
        emit_heads(
            ri,
            rule,
            meta,
            binding,
            null_gen,
            nulls,
            out,
            prov,
            &edge_parents,
            prov_out,
        );
    }
    undo(binding, &assigned);
    Ok(())
}

fn undo(binding: &mut [Option<Value>], assigned: &[Var]) {
    for v in assigned {
        binding[v.0 as usize] = None;
    }
}

/// Register one monotonic contribution. Returns the new running value when
/// it moved (the match should continue and emit), `None` when the
/// contribution was idempotent or did not change the aggregate.
#[allow(clippy::too_many_arguments)]
fn contribute(
    agg: &Aggregate,
    func: AggregateFunc,
    ri: usize,
    meta: &OracleMeta,
    binding: &[Option<Value>],
    mono: &mut FxHashMap<(usize, Vec<Value>), MonoState>,
    ctx: &EvalCtx,
    prov: bool,
    edge_parents: &mut ProvParents,
) -> Result<Option<Value>> {
    let group: Vec<Value> = meta
        .group_vars
        .iter()
        .map(|v| binding[v.0 as usize].clone().expect("bound"))
        .collect();
    let contrib_key: Vec<Value> = agg
        .contributors
        .iter()
        .map(|v| binding[v.0 as usize].clone().expect("bound"))
        .collect();
    let val = match &agg.arg {
        Some(e) => eval(e, binding, ctx)?,
        None => Value::Int(1),
    };
    let state = mono.entry((ri, group)).or_insert_with(|| MonoState {
        contributors: FxHashMap::default(),
        current: initial_value(func),
        parents: Vec::new(),
    });
    if state.contributors.contains_key(&contrib_key) {
        return Ok(None);
    }
    let updated = combine(func, &state.current, &val)?;
    let changed = updated != state.current;
    state.contributors.insert(contrib_key, val);
    state.current = updated.clone();
    if prov {
        // Every accepted contribution's body match feeds the group, even
        // when it does not move the accumulator; an emitting firing's edge
        // is the full snapshot.
        state.parents.extend_from_slice(edge_parents);
        if changed {
            edge_parents.clear();
            edge_parents.extend_from_slice(&state.parents);
        }
    }
    Ok(if changed { Some(updated) } else { None })
}

/// Mint (or reuse) the rule's labelled nulls keyed by the frontier values
/// and push one tuple per head atom — the Skolem chase. With provenance
/// on, pushes one `(rule, parents)` record per head so `prov_out` stays
/// aligned 1:1 with `out`.
#[allow(clippy::too_many_arguments)]
fn emit_heads(
    ri: usize,
    rule: &Rule,
    meta: &OracleMeta,
    binding: &[Option<Value>],
    null_gen: &OidGen,
    nulls: &mut FxHashMap<(usize, Var, Vec<Value>), Oid>,
    out: &mut Vec<(String, Vec<Value>)>,
    prov: bool,
    edge_parents: &[(String, Vec<Value>)],
    prov_out: &mut Vec<(usize, ProvParents)>,
) {
    let mut null_values: FxHashMap<Var, Value> = FxHashMap::default();
    if !meta.existentials.is_empty() {
        let frontier: Vec<Value> = meta
            .frontier
            .iter()
            .map(|v| binding[v.0 as usize].clone().expect("frontier bound"))
            .collect();
        for &v in &meta.existentials {
            let oid = *nulls
                .entry((ri, v, frontier.clone()))
                .or_insert_with(|| null_gen.fresh());
            null_values.insert(v, Value::Oid(oid));
        }
    }
    for h in &rule.head {
        let tuple: Vec<Value> = h
            .terms
            .iter()
            .map(|t| match t {
                Term::Const(v) => v.clone(),
                Term::Var(v) => binding[v.0 as usize]
                    .clone()
                    .unwrap_or_else(|| null_values[v].clone()),
            })
            .collect();
        out.push((h.predicate.clone(), tuple));
        if prov {
            prov_out.push((ri, edge_parents.to_vec()));
        }
    }
}

/// Evaluate one exact-aggregate rule: enumerate all body matches, run
/// pre-aggregate steps inline, group contributions (first value per
/// contributor key wins, insertion order preserved), fold each group, then
/// run post-aggregate steps and emit heads once per group.
#[allow(clippy::too_many_arguments)]
fn eval_exact_rule(
    db: &RowDb,
    ri: usize,
    rule: &Rule,
    meta: &OracleMeta,
    skolems: &SkolemRegistry,
    null_gen: &OidGen,
    nulls: &mut FxHashMap<(usize, Var, Vec<Value>), Oid>,
    prov: bool,
) -> Result<(Vec<(String, Vec<Value>)>, Vec<(usize, ProvParents)>)> {
    let agg_step = meta.agg_step.expect("exact agg rule");
    let agg = rule.aggregate().expect("exact agg rule").clone();
    let ctx = EvalCtx { skolems };

    struct Group {
        contributors: FxHashMap<Vec<Value>, Value>,
        order: Vec<Vec<Value>>,
        parents: ProvParents,
    }
    // Group keys in first-seen order so pass 2 is deterministic.
    let mut groups: FxHashMap<Vec<Value>, Group> = FxHashMap::default();
    let mut group_order: Vec<Vec<Value>> = Vec::new();
    let mut binding: Vec<Option<Value>> = vec![None; rule.var_names.len()];
    let mut trail = Trail {
        on: prov,
        items: Vec::new(),
    };
    let pre_steps = &rule.steps[..agg_step];
    enumerate(
        db,
        rule,
        0,
        &mut binding,
        &mut trail,
        &mut |binding, parents| {
            let mut assigned: Vec<Var> = Vec::new();
            let mut keep = true;
            for step in pre_steps {
                match step {
                    RuleStep::Condition(e) => match eval(e, binding, &ctx) {
                        Ok(Value::Bool(true)) => {}
                        Ok(Value::Bool(false)) => {
                            keep = false;
                            break;
                        }
                        Ok(other) => {
                            undo(binding, &assigned);
                            return Err(KgmError::Type(format!(
                                "condition evaluated to non-bool {other:?}"
                            )));
                        }
                        Err(e) => {
                            undo(binding, &assigned);
                            return Err(e);
                        }
                    },
                    RuleStep::Assign(v, e) => match eval(e, binding, &ctx) {
                        Ok(val) => {
                            binding[v.0 as usize] = Some(val);
                            assigned.push(*v);
                        }
                        Err(e) => {
                            undo(binding, &assigned);
                            return Err(e);
                        }
                    },
                    RuleStep::Negated(a) => {
                        let tuple: Vec<Value> = a
                            .terms
                            .iter()
                            .map(|t| match t {
                                Term::Const(v) => v.clone(),
                                Term::Var(v) => binding[v.0 as usize].clone().expect("bound"),
                            })
                            .collect();
                        if db.contains(&a.predicate, &tuple) {
                            keep = false;
                            break;
                        }
                    }
                    RuleStep::Aggregate(_) => unreachable!("pre-aggregate steps only"),
                }
            }
            if keep {
                let gk: Vec<Value> = meta
                    .group_vars
                    .iter()
                    .map(|v| binding[v.0 as usize].clone().expect("bound"))
                    .collect();
                // Contributor key: the ⟨z̄⟩ variables if given, otherwise the
                // full binding (every distinct match contributes once).
                let ck: Vec<Value> = if agg.contributors.is_empty() {
                    binding.iter().flatten().cloned().collect()
                } else {
                    agg.contributors
                        .iter()
                        .map(|v| binding[v.0 as usize].clone().expect("bound"))
                        .collect()
                };
                let val = match &agg.arg {
                    Some(e) => eval(e, binding, &ctx),
                    None => Ok(Value::Int(1)),
                };
                let val = match val {
                    Ok(v) => v,
                    Err(e) => {
                        undo(binding, &assigned);
                        return Err(e);
                    }
                };
                if !groups.contains_key(&gk) {
                    group_order.push(gk.clone());
                }
                let g = groups.entry(gk).or_insert_with(|| Group {
                    contributors: FxHashMap::default(),
                    order: Vec::new(),
                    parents: Vec::new(),
                });
                if !g.contributors.contains_key(&ck) {
                    g.contributors.insert(ck.clone(), val);
                    g.order.push(ck);
                    if prov {
                        g.parents.extend_from_slice(parents);
                    }
                }
            }
            undo(binding, &assigned);
            Ok(())
        },
    )?;

    let mut out = Vec::new();
    let mut prov_out: Vec<(usize, ProvParents)> = Vec::new();
    for gk in group_order {
        let group = &groups[&gk];
        let mut acc = initial_value(agg.func);
        let mut n = 0usize;
        for ck in &group.order {
            acc = combine(agg.func, &acc, &group.contributors[ck])?;
            n += 1;
        }
        if agg.func == AggregateFunc::Avg && n > 0 {
            acc = bin(BinOp::Div, &acc, &Value::Int(n as i64))?;
        }
        let mut binding: Vec<Option<Value>> = vec![None; rule.var_names.len()];
        for (v, val) in meta.group_vars.iter().zip(gk.iter()) {
            binding[v.0 as usize] = Some(val.clone());
        }
        binding[agg.target.0 as usize] = Some(acc);
        let mut keep = true;
        for step in &rule.steps[agg_step + 1..] {
            match step {
                RuleStep::Condition(e) => match eval(e, &binding, &ctx)? {
                    Value::Bool(true) => {}
                    Value::Bool(false) => {
                        keep = false;
                        break;
                    }
                    other => {
                        return Err(KgmError::Type(format!(
                            "condition evaluated to non-bool {other:?}"
                        )))
                    }
                },
                RuleStep::Assign(v, e) => {
                    let val = eval(e, &binding, &ctx)?;
                    binding[v.0 as usize] = Some(val);
                }
                RuleStep::Negated(a) => {
                    let tuple: Vec<Value> = a
                        .terms
                        .iter()
                        .map(|t| match t {
                            Term::Const(v) => v.clone(),
                            Term::Var(v) => binding[v.0 as usize].clone().expect("bound"),
                        })
                        .collect();
                    if db.contains(&a.predicate, &tuple) {
                        keep = false;
                        break;
                    }
                }
                RuleStep::Aggregate(_) => unreachable!("single aggregate"),
            }
        }
        if keep {
            emit_heads(
                ri,
                rule,
                meta,
                &binding,
                null_gen,
                nulls,
                &mut out,
                prov,
                &group.parents,
                &mut prov_out,
            );
        }
    }
    Ok((out, prov_out))
}

// ---------------------------------------------------------------------------
// Canonical labelled-null isomorphism
// ---------------------------------------------------------------------------

/// One term of a fact under canonicalization, ordered so that ground
/// values sort before already-canonicalized invented values, which sort
/// before not-yet-assigned ones (compared by their colour, then by their
/// first-occurrence pattern *within* the fact — `p(ν1, ν1)` and
/// `p(ν2, ν3)` get different keys regardless of payloads).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
enum CanonKey {
    Ground(String),
    Assigned(u8, usize),
    Local(u8, usize, usize),
}

fn space_rank(space: OidSpace) -> u8 {
    match space {
        OidSpace::Ground => 0,
        OidSpace::Null => 1,
        OidSpace::Skolem => 2,
    }
}

fn is_invented(v: &Value) -> Option<(Oid, u8)> {
    match v {
        Value::Oid(o) if o.space() != OidSpace::Ground => Some((*o, space_rank(o.space()))),
        _ => None,
    }
}

fn ground_key(v: &Value) -> String {
    // `to_text` is type-tagged (`I:3` vs `S:3`), so distinct values never
    // collide and the ordering is deterministic. The store keeps `0.0` and
    // `-0.0` as one fact, and which sign survives depends on which body
    // atom bound it first, so both print as `F:0`. `Int` and `Float` stay
    // apart, so a wrong arithmetic result type still shows.
    match v {
        Value::Float(f) if *f == 0.0 => Value::Float(0.0).to_text(),
        _ => v.to_text(),
    }
}

/// The key of one fact: its predicate, then its terms, where an unassigned
/// invented value is keyed by its colour and its first position among the
/// fact's unassigned values.
fn fact_key(
    pred: &str,
    tuple: &[Value],
    assigned: &FxHashMap<Oid, usize>,
    colour: &FxHashMap<Oid, usize>,
) -> (String, Vec<CanonKey>) {
    let mut local: FxHashMap<Oid, usize> = FxHashMap::default();
    let keys = tuple
        .iter()
        .map(|v| match is_invented(v) {
            Some((oid, rank)) => match assigned.get(&oid) {
                Some(&id) => CanonKey::Assigned(rank, id),
                None => {
                    let next = local.len();
                    let first = *local.entry(oid).or_insert(next);
                    CanonKey::Local(rank, colour.get(&oid).copied().unwrap_or(0), first)
                }
            },
            None => CanonKey::Ground(ground_key(v)),
        })
        .collect();
    (pred.to_string(), keys)
}

/// Colour refinement over the invented values of `facts`. Every value
/// starts with colour 0. Each round keys a value by its colour and the
/// sorted keys of the facts it occurs in, each with the value's position
/// among the fact's invented values, and renumbers the distinct keys in
/// sorted order. Rounds stop when no colour class splits. Nothing here reads
/// input order or payloads, so isomorphic fact sets get the same colours.
fn colours(facts: &[(String, Vec<Value>)]) -> FxHashMap<Oid, usize> {
    let unassigned = FxHashMap::default();
    let mut colour: FxHashMap<Oid, usize> = FxHashMap::default();
    let mut classes = 1;
    loop {
        type Occurrence = ((String, Vec<CanonKey>), usize);
        let mut seen: FxHashMap<Oid, Vec<Occurrence>> = FxHashMap::default();
        for (pred, tuple) in facts {
            let key = fact_key(pred, tuple, &unassigned, &colour);
            let mut local: Vec<Oid> = Vec::new();
            for (oid, _) in tuple.iter().filter_map(is_invented) {
                if !local.contains(&oid) {
                    seen.entry(oid)
                        .or_default()
                        .push((key.clone(), local.len()));
                    local.push(oid);
                }
            }
        }
        let mut keyed: Vec<((usize, Vec<Occurrence>), Oid)> = seen
            .into_iter()
            .map(|(oid, mut occurrences)| {
                occurrences.sort();
                let old = colour.get(&oid).copied().unwrap_or(0);
                ((old, occurrences), oid)
            })
            .collect();
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        let mut next: FxHashMap<Oid, usize> = FxHashMap::default();
        let mut id = 0;
        for (i, (key, oid)) in keyed.iter().enumerate() {
            if i > 0 && *key != keyed[i - 1].0 {
                id += 1;
            }
            next.insert(*oid, id);
        }
        colour = next;
        if id < classes {
            return colour;
        }
        classes = id + 1;
    }
}

/// Render a database as sorted canonical fact lines: ground values print
/// their type-tagged text, labelled nulls print as `ν<i>` and Skolem
/// values as `σ<i>` where `<i>` is the canonical id chosen by the greedy
/// labelling (not the mint-order payload).
pub fn canonical_facts(db: &FactDb) -> Vec<String> {
    let mut facts: Vec<(String, Vec<Value>)> = Vec::new();
    for pred in db.predicates() {
        for tuple in db.facts_iter(&pred) {
            facts.push((pred.clone(), tuple));
        }
    }
    canonical_lines(facts)
}

/// [`canonical_facts`] for an arbitrary flat fact dump — the form the
/// serving consistency suite uses to compare a pinned
/// [`crate::serving::EpochSnapshot`] (via
/// [`crate::serving::EpochSnapshot::fact_dump`]) against an oracle run on
/// the same logical epoch.
pub fn canonical_fact_lines(facts: Vec<(String, Vec<Value>)>) -> Vec<String> {
    canonical_lines(facts)
}

/// [`canonical_facts`] for the oracle's row-oriented store.
pub fn canonical_facts_rows(db: &RowDb) -> Vec<String> {
    let mut facts: Vec<(String, Vec<Value>)> = Vec::new();
    for pred in db.predicates() {
        for tuple in db.facts(&pred) {
            facts.push((pred.clone(), tuple.clone()));
        }
    }
    canonical_lines(facts)
}

/// The greedy canonical labelling over a flat fact dump — shared by both
/// storage representations so their canonical forms are directly comparable.
fn canonical_lines(facts: Vec<(String, Vec<Value>)>) -> Vec<String> {
    let mut lines: Vec<String> = Vec::with_capacity(facts.len());
    // A fact without invented values takes no part in the labelling.
    let (mut facts, ground): (Vec<_>, Vec<_>) = facts
        .into_iter()
        .partition(|(_, t)| t.iter().any(|v| is_invented(v).is_some()));
    for (pred, tuple) in ground {
        let rendered: Vec<String> = tuple.iter().map(ground_key).collect();
        lines.push(format!("{pred}({})", rendered.join(", ")));
    }
    let colour = colours(&facts);
    let mut assigned: FxHashMap<Oid, usize> = FxHashMap::default();
    let mut next: [usize; 3] = [0; 3];
    while !facts.is_empty() {
        // Greedy canonical labelling: repeatedly pick the minimal fact
        // under the renaming-invariant key, then assign canonical ids to
        // its unassigned invented values left to right.
        let (idx, _) = facts
            .iter()
            .enumerate()
            .map(|(i, (p, t))| (i, fact_key(p, t, &assigned, &colour)))
            .min_by(|a, b| a.1.cmp(&b.1))
            .expect("nonempty");
        let (pred, tuple) = facts.swap_remove(idx);
        let rendered: Vec<String> = tuple
            .iter()
            .map(|v| match is_invented(v) {
                Some((oid, rank)) => {
                    let id = *assigned.entry(oid).or_insert_with(|| {
                        let id = next[rank as usize];
                        next[rank as usize] += 1;
                        id
                    });
                    let sigil = if rank == 1 { "ν" } else { "σ" };
                    format!("{sigil}{id}")
                }
                None => ground_key(v),
            })
            .collect();
        lines.push(format!("{pred}({})", rendered.join(", ")));
    }
    lines.sort();
    lines
}

/// True when the two databases hold the same facts modulo a bijective
/// renaming of labelled nulls (and Skolem values).
pub fn isomorphic(a: &FactDb, b: &FactDb) -> bool {
    canonical_facts(a) == canonical_facts(b)
}

/// `None` when isomorphic; otherwise a report of the canonical fact lines
/// present on only one side (`-` = only in `a`, `+` = only in `b`).
pub fn canonical_diff(a: &FactDb, b: &FactDb) -> Option<String> {
    lines_diff(canonical_facts(a), canonical_facts(b))
}

/// [`canonical_diff`] between the row-oriented oracle store (`-` side) and
/// an engine [`FactDb`] (`+` side) — the differential suite's comparison.
pub fn canonical_diff_oracle(a: &RowDb, b: &FactDb) -> Option<String> {
    lines_diff(canonical_facts_rows(a), canonical_facts(b))
}

fn lines_diff(ca: Vec<String>, cb: Vec<String>) -> Option<String> {
    if ca == cb {
        return None;
    }
    let sa: std::collections::BTreeSet<&String> = ca.iter().collect();
    let sb: std::collections::BTreeSet<&String> = cb.iter().collect();
    let mut report = String::new();
    for line in sa.difference(&sb) {
        report.push_str(&format!("- {line}\n"));
    }
    for line in sb.difference(&sa) {
        report.push_str(&format!("+ {line}\n"));
    }
    if report.is_empty() {
        // Same line *sets* but different multiplicity cannot happen (facts
        // are sets); differing orderings of equal sets cannot reach here.
        report.push_str("(canonical forms differ only in ordering)\n");
    }
    Some(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::parser::parse_program;

    fn oracle_vs_engine(src: &str) {
        let program = parse_program(src).unwrap();
        let oracle_db = naive_chase(&program).unwrap();
        let engine = Engine::new(parse_program(src).unwrap()).unwrap();
        let mut engine_db = FactDb::new();
        engine.run(&mut engine_db).unwrap();
        if let Some(diff) = canonical_diff_oracle(&oracle_db, &engine_db) {
            panic!("oracle and engine disagree on:\n{src}\n{diff}");
        }
    }

    #[test]
    fn transitive_closure_matches_engine() {
        oracle_vs_engine(
            "e(1,2). e(2,3). e(3,4). e(2,1).\n\
             e(X,Y) -> t(X,Y).\n\
             t(X,Y), e(Y,Z) -> t(X,Z).",
        );
    }

    #[test]
    fn existential_nulls_match_engine_modulo_renaming() {
        oracle_vs_engine(
            "p(1). p(2).\n\
             p(X) -> q(X,N).\n\
             q(X,N) -> r(N).",
        );
    }

    #[test]
    fn skolem_functors_match_engine() {
        oracle_vs_engine(
            "p(1). p(2).\n\
             p(X), K = skolem(\"sk\", X) -> h(X,K).\n\
             h(X,K) -> g(K).",
        );
    }

    #[test]
    fn exact_aggregates_match_engine() {
        oracle_vs_engine(
            "s(1,10). s(1,20). s(2,5).\n\
             s(X,W), V = sum(W) -> total(X,V).",
        );
    }

    #[test]
    fn negation_and_conditions_match_engine() {
        oracle_vs_engine(
            "e(1,2). e(2,3). blocked(2,3).\n\
             e(X,Y), X < Y, not blocked(X,Y) -> ok(X,Y).",
        );
    }

    #[test]
    fn company_control_matches_engine() {
        oracle_vs_engine(
            "own(1,2,0.6). own(2,3,0.6). own(1,3,0.2).\n\
             own(X,Y,W) -> control(X,X).\n\
             control(X,Z), own(Z,Y,W), V = msum(W, <Z>), V > 0.5 -> control(X,Y).",
        );
    }

    #[test]
    fn oracle_provenance_records_first_derivation_with_edb_parents() {
        let program = parse_program(
            "e(1,2). e(2,3).\n\
             e(X,Y) -> t(X,Y).\n\
             t(X,Y), e(Y,Z) -> t(X,Z).",
        )
        .unwrap();
        let (db, edges) = naive_chase_prov(&program, &[], &OracleConfig::default()).unwrap();
        // Derived: t(1,2), t(2,3), t(1,3) — and only those get edges.
        assert_eq!(edges.len(), 3);
        assert!(!edges.contains_key(&("e".to_string(), vec![Value::Int(1), Value::Int(2)])));
        let (ri, parents) = &edges[&("t".to_string(), vec![Value::Int(1), Value::Int(3)])];
        assert_eq!(*ri, 1);
        assert_eq!(
            parents,
            &vec![
                ("t".to_string(), vec![Value::Int(1), Value::Int(2)]),
                ("e".to_string(), vec![Value::Int(2), Value::Int(3)]),
            ],
            "parents in written body-atom order"
        );
        // Recording must not perturb the fixpoint itself.
        let plain = naive_chase(&program).unwrap();
        assert_eq!(canonical_facts_rows(&plain), canonical_facts_rows(&db));
    }

    #[test]
    fn oracle_exact_aggregate_edges_cover_all_group_matches() {
        let program = parse_program(
            "s(1,10). s(1,20). s(2,5).\n\
             s(X,W), V = sum(W) -> total(X,V).",
        )
        .unwrap();
        let (_, edges) = naive_chase_prov(&program, &[], &OracleConfig::default()).unwrap();
        let (ri, parents) = &edges[&("total".to_string(), vec![Value::Int(1), Value::Int(30)])];
        assert_eq!(*ri, 0);
        assert_eq!(
            parents,
            &vec![
                ("s".to_string(), vec![Value::Int(1), Value::Int(10)]),
                ("s".to_string(), vec![Value::Int(1), Value::Int(20)]),
            ],
            "an exact-aggregate edge holds every contributing match of its group"
        );
        let (_, parents2) = &edges[&("total".to_string(), vec![Value::Int(2), Value::Int(5)])];
        assert_eq!(
            parents2,
            &vec![("s".to_string(), vec![Value::Int(2), Value::Int(5)])]
        );
    }

    #[test]
    fn oracle_monotonic_aggregate_edges_snapshot_all_contributions() {
        let program = parse_program(
            "own(1,2,0.6). own(2,3,0.6). own(1,3,0.2).\n\
             own(X,Y,W) -> control(X,X).\n\
             control(X,Z), own(Z,Y,W), V = msum(W, <Z>), V > 0.5 -> control(X,Y).",
        )
        .unwrap();
        let (db, edges) = naive_chase_prov(&program, &[], &OracleConfig::default()).unwrap();
        assert!(db.contains("control", &[Value::Int(1), Value::Int(3)]));
        let (ri, parents) = &edges[&("control".to_string(), vec![Value::Int(1), Value::Int(3)])];
        assert_eq!(*ri, 1);
        // control(1,3) needs both ownership paths (0.2 + 0.6 > 0.5): the
        // firing's edge must carry the accumulated contributions, not just
        // the final match's trail.
        let own_parents: Vec<&(String, Vec<Value>)> =
            parents.iter().filter(|(p, _)| p == "own").collect();
        assert_eq!(own_parents.len(), 2, "{parents:?}");
    }

    #[test]
    fn row_store_dedups_by_value_equality_first_insert_wins() {
        let mut db = RowDb::new();
        assert!(db.insert("p", vec![Value::Int(1)]).unwrap());
        assert!(!db.insert("p", vec![Value::Float(1.0)]).unwrap());
        assert!(db.contains("p", &[Value::Float(1.0)]));
        assert_eq!(db.facts("p"), &[vec![Value::Int(1)]]);
        assert_eq!(db.total_facts(), 1);
        assert!(db.insert("p", vec![Value::Int(1), Value::Int(2)]).is_err());
    }

    #[test]
    fn cross_representation_diff_matches_equal_stores() {
        let mut rows = RowDb::new();
        let mut cols = FactDb::new();
        for db_insert in [
            ("p", vec![Value::Int(1), Value::str("x")]),
            ("q", vec![Value::Oid(Oid::new(OidSpace::Null, 5))]),
        ] {
            rows.insert(db_insert.0, db_insert.1.clone()).unwrap();
            cols.insert(db_insert.0, db_insert.1).unwrap();
        }
        assert_eq!(canonical_diff_oracle(&rows, &cols), None);
        cols.insert("p", vec![Value::Int(2), Value::str("y")])
            .unwrap();
        let diff = canonical_diff_oracle(&rows, &cols).unwrap();
        assert!(diff.contains("+ p(I:2, S:y)"), "{diff}");
    }

    #[test]
    fn isomorphism_ignores_null_payloads() {
        let mut a = FactDb::new();
        let mut b = FactDb::new();
        let n = |p: u64| Value::Oid(Oid::new(OidSpace::Null, p));
        a.insert("p", vec![n(1)]).unwrap();
        a.insert("q", vec![n(1), Value::Int(7)]).unwrap();
        b.insert("p", vec![n(9)]).unwrap();
        b.insert("q", vec![n(9), Value::Int(7)]).unwrap();
        assert!(isomorphic(&a, &b));
    }

    #[test]
    fn isomorphism_distinguishes_linkage() {
        // a: the same null in p and q. b: two different nulls.
        let mut a = FactDb::new();
        let mut b = FactDb::new();
        let n = |p: u64| Value::Oid(Oid::new(OidSpace::Null, p));
        a.insert("p", vec![n(1)]).unwrap();
        a.insert("q", vec![n(1)]).unwrap();
        b.insert("p", vec![n(1)]).unwrap();
        b.insert("q", vec![n(2)]).unwrap();
        assert!(!isomorphic(&a, &b));
        let diff = canonical_diff(&a, &b).unwrap();
        assert!(diff.contains("+ q(ν1)"), "{diff}");
    }

    #[test]
    fn isomorphic_fact_sets_print_alike_in_any_input_order() {
        // `e0(X, Y, Z), U = skolem("sk0", Y) -> s1(Y, U). s1(X, Y) -> c2(Y).`
        // The two `c2(σ)` facts tie on their own; only the `s1` facts tell
        // their Skolem values apart. The second set swaps the payloads.
        let sk = |p: u64| Value::Oid(Oid::new(OidSpace::Skolem, p));
        let set = |a: u64, b: u64| {
            vec![
                (
                    "e0".to_string(),
                    vec![Value::Int(1), Value::Int(2), Value::Int(3)],
                ),
                (
                    "e0".to_string(),
                    vec![Value::Int(4), Value::Int(5), Value::Int(6)],
                ),
                ("s1".to_string(), vec![Value::Int(2), sk(a)]),
                ("s1".to_string(), vec![Value::Int(5), sk(b)]),
                ("c2".to_string(), vec![sk(a)]),
                ("c2".to_string(), vec![sk(b)]),
            ]
        };
        let want = canonical_fact_lines(set(1, 2));
        for facts in [set(1, 2), set(2, 1)] {
            let mut reversed = facts.clone();
            reversed.reverse();
            assert_eq!(canonical_fact_lines(facts), want);
            assert_eq!(canonical_fact_lines(reversed), want);
        }
        assert!(want.contains(&"s1(I:2, σ0)".to_string()), "{want:?}");
    }

    #[test]
    fn signed_zeros_print_alike_but_ints_stay_apart() {
        let one = |v: Value| canonical_fact_lines(vec![("p".to_string(), vec![v])]);
        assert_eq!(one(Value::Float(-0.0)), one(Value::Float(0.0)));
        assert_ne!(one(Value::Int(0)), one(Value::Float(0.0)));
    }

    #[test]
    fn nulls_never_unify_with_skolems() {
        let mut a = FactDb::new();
        let mut b = FactDb::new();
        a.insert("p", vec![Value::Oid(Oid::new(OidSpace::Null, 1))])
            .unwrap();
        b.insert("p", vec![Value::Oid(Oid::new(OidSpace::Skolem, 1))])
            .unwrap();
        assert!(!isomorphic(&a, &b));
    }

    #[test]
    fn oracle_caps_runaway_programs() {
        // Value-inventing recursion: X+1 forever. The cap must trip.
        let program = parse_program(
            "n(0).\n\
             n(X), Y = X + 1 -> n(Y).",
        )
        .unwrap();
        let err = naive_chase_with(
            &program,
            &[],
            &OracleConfig {
                max_iterations: 50,
                max_facts: 1_000_000,
            },
        )
        .unwrap_err();
        assert!(matches!(err, KgmError::ResourceExhausted(_)), "{err:?}");
    }
}
