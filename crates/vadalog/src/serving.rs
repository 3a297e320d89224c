//! Epoch-based snapshot read-serving over the columnar [`FactDb`].
//!
//! The chase owns its `FactDb` mutably — `Engine::run` and
//! `Engine::apply_update` both take `&mut FactDb` — so concurrent readers
//! can never touch the live store. This module gives them something better:
//! **immutable epochs**. After every materialization step the writer calls
//! [`ServingLayer::publish`], which freezes a copy of the columnar store
//! (tombstoned rows from DRed deletions stay invisible in it) into an
//! [`EpochSnapshot`] and atomically swaps it into a [`Published`] cell.
//! Readers call [`ServingLayer::pin`] to get an
//! [`EpochPin`] — an `Arc` handle to *some* published epoch — and answer
//! any number of queries against it without ever blocking the writer or
//! observing a half-applied update.
//!
//! The epoch lifecycle is **publish → pin → retire → reclaim**:
//!
//! - *publish*: the writer copies the store's cells into a read-only
//!   [`FactDb`] and swaps the handle; the previous epoch is retired but
//!   stays alive while pinned;
//! - *pin*: `O(1)` — an `Arc` clone of the current epoch;
//! - *retire*: a later publish replaces the cell's handle; new pins see
//!   the new epoch, existing pins keep the old one;
//! - *reclaim*: when the last pin of a retired epoch drops, its memory is
//!   freed (plain `Arc` reference counting — verified by the stress suite
//!   through [`ServingLayer::resident_bytes`]).
//!
//! On top of the snapshot sits a small query front-end
//! ([`EpochSnapshot::query`]) dispatching point lookups (the store's own
//! dedup probe), whole-relation scans, aggregates over one column's cells,
//! relation-algebraic [`PathPattern`] evaluation and the pgstore Cypher
//! fragment over a lazily built property-graph projection of the epoch.
//! Parsed query plans are cached **per epoch** and keyed by query text — a
//! new epoch starts with a cold cache, so a plan can never leak artifacts
//! (like the graph projection) across epochs.
//!
//! Every [`QueryResponse`] carries the [`Termination`] of the run that
//! produced its epoch: an epoch published from a budget-truncated chase
//! answers with `complete == false`, so a reader can never mistake a
//! prefix-consistent partial materialization for the full fixpoint.

use crate::engine::{FactDb, Termination};
use kgm_common::{FxHashMap, KgmError, Oid, OidSpace, Result, Value};
use kgm_pgstore::cypher::{self, CypherQuery};
use kgm_pgstore::graph::PropertyGraph;
use kgm_pgstore::pattern::{EdgePattern, PathPattern};
use kgm_runtime::sync::{Mutex, Published};
use kgm_runtime::telemetry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// An immutable snapshot of the logical fact set at one publish point.
///
/// Its facts are a read-only copy of the columnar store
/// ([`FactDb::frozen`]), and every query reads them through the store's
/// own reads. Three lazily built, internally synchronized caches sit
/// beside it: the per-predicate [`EpochSnapshot::rows`], the per-epoch
/// query-plan table and the property-graph projection. None affects
/// answers — they only memoize work — so a pinned epoch's query results
/// are byte-stable for the life of the pin.
#[derive(Debug)]
pub struct EpochSnapshot {
    id: u64,
    termination: Termination,
    db: FactDb,
    /// [`EpochSnapshot::rows`] of each predicate, by its id in `db`.
    rows: Vec<OnceLock<Vec<Vec<Value>>>>,
    plans: Mutex<FxHashMap<String, Arc<Plan>>>,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    projection: Mutex<Option<Arc<Projection>>>,
}

impl EpochSnapshot {
    /// Epoch `id` over the frozen store `db`.
    fn new(id: u64, db: FactDb, termination: Termination) -> EpochSnapshot {
        EpochSnapshot {
            id,
            termination,
            rows: db.pred_names().iter().map(|_| OnceLock::new()).collect(),
            db,
            plans: Mutex::new(FxHashMap::default()),
            plan_hits: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
            projection: Mutex::new(None),
        }
    }

    /// The epoch number (0 for the initial empty epoch, then 1, 2, … in
    /// publish order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Why the run that produced this epoch stopped.
    pub fn termination(&self) -> Termination {
        self.termination
    }

    /// Did the producing run reach every fixpoint? `false` marks a
    /// prefix-consistent *partial* materialization (deadline, fact cap, …).
    pub fn is_complete(&self) -> bool {
        self.termination.is_complete()
    }

    /// Predicates with at least one physical row at publish time, sorted.
    pub fn predicates(&self) -> &[String] {
        // The frozen store numbers its predicates in name order.
        self.db.pred_names()
    }

    /// The live rows of `predicate` at publish time, in insertion order,
    /// de-interned on the first call for that predicate.
    pub fn rows(&self, predicate: &str) -> &[Vec<Value>] {
        match self.db.rel(predicate) {
            Some(rel) => self.rows[rel.pred_id as usize].get_or_init(|| self.db.facts(predicate)),
            None => &[],
        }
    }

    /// Arity of `predicate` (`None` if unknown to this epoch).
    pub fn arity(&self, predicate: &str) -> Option<usize> {
        self.db.rel(predicate).map(|r| r.arity)
    }

    /// Point lookup: did this epoch contain `tuple` in `predicate`?
    pub fn contains(&self, predicate: &str, tuple: &[Value]) -> bool {
        self.db.contains(predicate, tuple)
    }

    /// Live facts across all predicates.
    pub fn fact_count(&self) -> usize {
        self.db.total_facts()
    }

    /// The full logical fact set of this epoch as one flat dump (predicates
    /// in sorted order, rows in insertion order) — what the consistency
    /// suite canonicalizes and compares against the oracle.
    pub fn fact_dump(&self) -> Vec<(String, Vec<Value>)> {
        self.predicates()
            .iter()
            .flat_map(|p| self.db.facts_iter(p).map(move |t| (p.clone(), t)))
            .collect()
    }

    /// Approximate resident bytes of the frozen store (the lazily built
    /// rows, projection and plan cache are excluded — they are bounded by
    /// the queries actually asked).
    pub fn approx_bytes(&self) -> usize {
        self.db.approx_bytes()
    }

    /// `(hits, misses)` of this epoch's query-plan cache so far.
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        (
            self.plan_hits.load(Ordering::Relaxed),
            self.plan_misses.load(Ordering::Relaxed),
        )
    }

    /// Answer `text` using the per-epoch plan cache (parse once per epoch
    /// per query text, execute on every call).
    pub fn query(&self, text: &str) -> Result<QueryResponse> {
        let cached = self.plans.lock().get(text).cloned();
        let plan = match cached {
            Some(p) => {
                self.plan_hits.fetch_add(1, Ordering::Relaxed);
                telemetry::counter_add("serving.plan_cache.hit", 1);
                p
            }
            None => {
                self.plan_misses.fetch_add(1, Ordering::Relaxed);
                telemetry::counter_add("serving.plan_cache.miss", 1);
                let p = Arc::new(Plan::parse(text)?);
                self.plans
                    .lock()
                    .entry(text.to_string())
                    .or_insert_with(|| Arc::clone(&p))
                    .clone()
            }
        };
        self.execute(&plan)
    }

    /// Answer `text` with a freshly parsed plan, bypassing (and not
    /// populating) the cache — the differential baseline the plan-cache
    /// property suite compares cache hits against.
    pub fn query_uncached(&self, text: &str) -> Result<QueryResponse> {
        let plan = Plan::parse(text)?;
        self.execute(&plan)
    }

    fn execute(&self, plan: &Plan) -> Result<QueryResponse> {
        let rows = match plan {
            Plan::Point(pred, tuple) => {
                telemetry::counter_add("serving.query.point", 1);
                if self.db.contains(pred, tuple) {
                    vec![tuple.clone()]
                } else {
                    Vec::new()
                }
            }
            Plan::Rel(pred) => {
                telemetry::counter_add("serving.query.rel", 1);
                self.db.facts(pred)
            }
            Plan::Count(pred) => {
                telemetry::counter_add("serving.query.aggregate", 1);
                vec![vec![Value::Int(self.db.len(pred) as i64)]]
            }
            Plan::Agg(kind, pred, col) => {
                if let Some(arity) = self.arity(pred).filter(|arity| col >= arity) {
                    return Err(parse_err(format!(
                        "column {col} of `{pred}`, whose arity is {arity}"
                    )));
                }
                telemetry::counter_add("serving.query.aggregate", 1);
                self.aggregate(*kind, pred, *col)
            }
            Plan::Path(pattern) => {
                telemetry::counter_add("serving.query.path", 1);
                let proj = self.projection();
                proj.graph
                    .match_pairs(pattern)
                    .into_iter()
                    .map(|(a, b)| {
                        vec![
                            proj.node_values[a.0 as usize].clone(),
                            proj.node_values[b.0 as usize].clone(),
                        ]
                    })
                    .collect()
            }
            Plan::Cypher(q) => {
                telemetry::counter_add("serving.query.cypher", 1);
                let proj = self.projection();
                cypher::run(&proj.graph, q)
                    .into_iter()
                    .map(|row| row.into_iter().map(|v| proj.to_value(v)).collect())
                    .collect()
            }
        };
        Ok(QueryResponse {
            epoch: self.id,
            termination: self.termination,
            complete: self.termination.is_complete(),
            rows,
        })
    }

    /// Fold the numbers among the live cells of column `col` of `pred`.
    fn aggregate(&self, kind: AggKind, pred: &str, col: usize) -> Vec<Vec<Value>> {
        let pool = self.db.pool();
        let nums = self.db.rel(pred).into_iter().flat_map(|rel| {
            let cells = rel.column(col).iter().enumerate();
            cells
                .filter(|&(row, _)| !rel.is_dead(row))
                .filter_map(|(_, &cell)| pool.pooled(cell)?.as_f64())
        });
        match kind {
            AggKind::Sum => {
                vec![vec![Value::Float(nums.fold(0.0, |a, b| a + b))]]
            }
            AggKind::Min => nums
                .fold(None::<f64>, |acc, v| Some(acc.map_or(v, |a| a.min(v))))
                .map_or_else(Vec::new, |v| vec![vec![Value::Float(v)]]),
            AggKind::Max => nums
                .fold(None::<f64>, |acc, v| Some(acc.map_or(v, |a| a.max(v))))
                .map_or_else(Vec::new, |v| vec![vec![Value::Float(v)]]),
        }
    }

    /// The property-graph projection of this epoch, built on first use and
    /// cached for the epoch's lifetime (so path/Cypher answers are stable
    /// for the life of a pin).
    fn projection(&self) -> Arc<Projection> {
        let mut slot = self.projection.lock();
        if let Some(p) = slot.as_ref() {
            return Arc::clone(p);
        }
        let p = Arc::new(Projection::build(self));
        *slot = Some(Arc::clone(&p));
        p
    }
}

// ---------------------------------------------------------------------------
// Graph projection
// ---------------------------------------------------------------------------

/// A property-graph view of an epoch: every value appearing in the first
/// two columns of an arity ≥ 2 predicate becomes a node (label `v`), every
/// such row an edge labelled with the predicate name (columns 2… attached
/// as edge properties `p2`, `p3`, …), and every unary fact adds its
/// predicate as an extra label on the value's node. This is what the
/// [`PathPattern`] evaluator and the Cypher fragment run against.
struct Projection {
    graph: PropertyGraph,
    /// `NodeId.0 → projected value`, for mapping match results back.
    node_values: Vec<Value>,
}

impl std::fmt::Debug for Projection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Projection")
            .field("nodes", &self.graph.node_count())
            .field("edges", &self.graph.edge_count())
            .finish()
    }
}

impl Projection {
    fn build(snap: &EpochSnapshot) -> Projection {
        let mut graph = PropertyGraph::new();
        let mut node_values: Vec<Value> = Vec::new();
        let mut node_of: FxHashMap<Value, kgm_pgstore::graph::NodeId> = FxHashMap::default();
        let mut node = |graph: &mut PropertyGraph, node_values: &mut Vec<Value>, v: &Value| {
            *node_of.entry(v.clone()).or_insert_with(|| {
                let id = graph
                    .add_node(["v"], Vec::new())
                    .expect("fresh projection node");
                debug_assert_eq!(id.0 as usize, node_values.len());
                node_values.push(v.clone());
                id
            })
        };
        for pred in snap.predicates() {
            match snap.arity(pred) {
                Some(0) | None => {}
                Some(1) => {
                    for row in snap.db.facts_iter(pred) {
                        let id = node(&mut graph, &mut node_values, &row[0]);
                        let _ = graph.add_node_label(id, pred);
                    }
                }
                Some(_) => {
                    for row in snap.db.facts_iter(pred) {
                        let from = node(&mut graph, &mut node_values, &row[0]);
                        let to = node(&mut graph, &mut node_values, &row[1]);
                        let props: Vec<(String, Value)> = row[2..]
                            .iter()
                            .enumerate()
                            .map(|(i, v)| (format!("p{}", i + 2), v.clone()))
                            .collect();
                        let _ = graph.add_edge(from, to, pred, props);
                    }
                }
            }
        }
        Projection { graph, node_values }
    }

    /// Map a Cypher result value back into the epoch's value space: node
    /// OIDs become the projected value, anything else (edge OIDs) passes
    /// through.
    fn to_value(&self, v: Value) -> Value {
        if let Value::Oid(o) = &v {
            if let Some(id) = self.graph.node_by_oid(*o) {
                return self.node_values[id.0 as usize].clone();
            }
        }
        v
    }
}

// ---------------------------------------------------------------------------
// Query plans
// ---------------------------------------------------------------------------

/// Aggregate kinds beyond `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AggKind {
    Sum,
    Min,
    Max,
}

/// A prepared query — the unit the per-epoch plan cache stores.
#[derive(Debug)]
enum Plan {
    /// `point p(1, "a")` — membership of one tuple.
    Point(String, Vec<Value>),
    /// `rel p` — the whole relation.
    Rel(String),
    /// `count p` — live fact count.
    Count(String),
    /// `sum p 2` / `min p 0` / `max p 1` — numeric fold over one column.
    Agg(AggKind, String, usize),
    /// `path own/~own | controls*` — regular path pairs over the projection.
    Path(PathPattern),
    /// `cypher (a:v)-[e:own]->(b:v) return (a,b)` — the pgstore fragment.
    Cypher(CypherQuery),
}

fn parse_err(msg: impl Into<String>) -> KgmError {
    KgmError::parse("serving", msg.into())
}

impl Plan {
    fn parse(text: &str) -> Result<Plan> {
        let text = text.trim();
        let (verb, rest) = text
            .split_once(char::is_whitespace)
            .map(|(v, r)| (v, r.trim()))
            .ok_or_else(|| parse_err(format!("query `{text}` has no arguments")))?;
        match verb {
            "point" => {
                let open = rest
                    .find('(')
                    .ok_or_else(|| parse_err(format!("point query `{rest}` lacks `(`")))?;
                let close = rest
                    .rfind(')')
                    .filter(|&c| c > open)
                    .ok_or_else(|| parse_err(format!("point query `{rest}` lacks `)`")))?;
                let pred = predicate(rest[..open].trim())?;
                let trailing = rest[close + 1..].trim();
                if !trailing.is_empty() {
                    return Err(parse_err(format!("text `{trailing}` after a point query")));
                }
                let inner = rest[open + 1..close].trim();
                let tuple = if inner.is_empty() {
                    Vec::new()
                } else {
                    // Split on the commas outside double-quoted strings.
                    let mut quoted = false;
                    inner
                        .split(|c| {
                            quoted ^= c == '"';
                            c == ',' && !quoted
                        })
                        .map(|t| parse_value(t.trim()))
                        .collect::<Result<Vec<Value>>>()?
                };
                Ok(Plan::Point(pred, tuple))
            }
            "rel" => Ok(Plan::Rel(predicate(rest)?)),
            "count" => Ok(Plan::Count(predicate(rest)?)),
            "sum" | "min" | "max" => {
                let (pred, col) = rest
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| parse_err(format!("{verb} query `{rest}` lacks a column")))?;
                let col: usize = col
                    .trim()
                    .parse()
                    .map_err(|_| parse_err(format!("{verb} column `{col}` is not a number")))?;
                let kind = match verb {
                    "sum" => AggKind::Sum,
                    "min" => AggKind::Min,
                    _ => AggKind::Max,
                };
                Ok(Plan::Agg(kind, predicate(pred)?, col))
            }
            "path" => Ok(Plan::Path(parse_path(rest)?)),
            "cypher" => Ok(Plan::Cypher(cypher::parse(rest)?)),
            other => Err(parse_err(format!(
                "unknown query verb `{other}` (expected point/rel/count/sum/min/max/path/cypher)"
            ))),
        }
    }
}

/// A predicate name: one identifier, as the Vadalog lexer reads them (a
/// letter or `_`, then letters, digits or `_`).
fn predicate(text: &str) -> Result<String> {
    let mut chars = text.chars();
    let first = chars.next().is_some_and(|c| c.is_alphabetic() || c == '_');
    if first && chars.all(|c| c.is_alphanumeric() || c == '_') {
        Ok(text.to_string())
    } else {
        Err(parse_err(format!("`{text}` is not a predicate name")))
    }
}

/// Literal values in `point` queries: ints, floats, quoted strings, ground
/// OIDs (`#42`), booleans. Labelled nulls are unaddressable by design —
/// their payloads depend on mint order, which is not part of the serving
/// contract.
fn parse_value(t: &str) -> Result<Value> {
    if t == "true" {
        return Ok(Value::Bool(true));
    }
    if t == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(p) = t.strip_prefix('#') {
        let payload: u64 = p
            .parse()
            .map_err(|_| parse_err(format!("`{t}` is not a ground oid")))?;
        return Ok(Value::Oid(Oid::new(OidSpace::Ground, payload)));
    }
    if t.len() >= 2 && t.starts_with('"') && t.ends_with('"') {
        return Ok(Value::str(&t[1..t.len() - 1]));
    }
    if t.contains('.') {
        if let Ok(f) = t.parse::<f64>() {
            return Ok(Value::Float(f));
        }
    }
    t.parse::<i64>()
        .map(Value::Int)
        .map_err(|_| parse_err(format!("`{t}` is not a value literal")))
}

/// Regular path grammar over predicate names (Section 4's `ρ | ρ⁻ | R·R |
/// R "|" R | (R)*` with ASCII spellings): `|` alternation, `/` sequence,
/// postfix `*`, prefix `~` inverse, parentheses.
fn parse_path(text: &str) -> Result<PathPattern> {
    let tokens = path_tokens(text)?;
    let mut pos = 0usize;
    let p = path_alt(&tokens, &mut pos)?;
    if pos != tokens.len() {
        return Err(parse_err(format!(
            "trailing tokens in path query `{text}` at {:?}",
            &tokens[pos..]
        )));
    }
    Ok(p)
}

fn path_tokens(text: &str) -> Result<Vec<String>> {
    let mut out = Vec::new();
    let mut ident = String::new();
    for c in text.chars() {
        if c.is_alphanumeric() || c == '_' {
            ident.push(c);
            continue;
        }
        if !ident.is_empty() {
            out.push(std::mem::take(&mut ident));
        }
        match c {
            '|' | '/' | '*' | '~' | '(' | ')' => out.push(c.to_string()),
            c if c.is_whitespace() => {}
            other => {
                return Err(parse_err(format!("unexpected `{other}` in path query")));
            }
        }
    }
    if !ident.is_empty() {
        out.push(ident);
    }
    Ok(out)
}

fn path_alt(tokens: &[String], pos: &mut usize) -> Result<PathPattern> {
    let mut parts = vec![path_seq(tokens, pos)?];
    while tokens.get(*pos).is_some_and(|t| t == "|") {
        *pos += 1;
        parts.push(path_seq(tokens, pos)?);
    }
    Ok(if parts.len() == 1 {
        parts.pop().expect("one part")
    } else {
        PathPattern::alt(parts)
    })
}

fn path_seq(tokens: &[String], pos: &mut usize) -> Result<PathPattern> {
    let mut parts = vec![path_star(tokens, pos)?];
    while tokens.get(*pos).is_some_and(|t| t == "/") {
        *pos += 1;
        parts.push(path_star(tokens, pos)?);
    }
    Ok(if parts.len() == 1 {
        parts.pop().expect("one part")
    } else {
        PathPattern::seq(parts)
    })
}

fn path_star(tokens: &[String], pos: &mut usize) -> Result<PathPattern> {
    let mut p = path_atom(tokens, pos)?;
    while tokens.get(*pos).is_some_and(|t| t == "*") {
        *pos += 1;
        p = p.star();
    }
    Ok(p)
}

fn path_atom(tokens: &[String], pos: &mut usize) -> Result<PathPattern> {
    match tokens.get(*pos).map(String::as_str) {
        Some("(") => {
            *pos += 1;
            let p = path_alt(tokens, pos)?;
            if tokens.get(*pos).is_some_and(|t| t == ")") {
                *pos += 1;
                Ok(p)
            } else {
                Err(parse_err("unclosed `(` in path query"))
            }
        }
        Some("~") => {
            *pos += 1;
            Ok(path_atom(tokens, pos)?.inverse())
        }
        Some(ident) if ident.chars().all(|c| c.is_alphanumeric() || c == '_') => {
            *pos += 1;
            Ok(PathPattern::Edge(EdgePattern::label(ident)))
        }
        other => Err(parse_err(format!(
            "expected predicate or `(` in path query, got {other:?}"
        ))),
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// One answered query, stamped with the epoch it was answered on and that
/// epoch's completeness marker.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// The epoch the answer was computed on.
    pub epoch: u64,
    /// Why the run that produced the epoch stopped.
    pub termination: Termination,
    /// `termination.is_complete()` — `false` means the answer is computed
    /// over a prefix-consistent *partial* materialization (budget-truncated
    /// chase) and may be missing derivable facts.
    pub complete: bool,
    /// Result rows (tuple per row; single-cell rows for aggregates).
    pub rows: Vec<Vec<Value>>,
}

// ---------------------------------------------------------------------------
// The layer
// ---------------------------------------------------------------------------

struct ServingShared {
    current: Published<EpochSnapshot>,
    /// Weak registry of every epoch ever published, pruned on publish —
    /// the accounting behind [`ServingLayer::resident_bytes`], which the
    /// stress suite uses to prove that unpinned epochs are reclaimed.
    epochs: Mutex<Vec<Weak<EpochSnapshot>>>,
    next_id: AtomicU64,
}

/// The shared writer/reader handle: the writer publishes epochs, readers
/// pin them. Cloning is cheap (`Arc` internally) — hand one clone to each
/// reader thread.
#[derive(Clone)]
pub struct ServingLayer {
    inner: Arc<ServingShared>,
}

impl Default for ServingLayer {
    fn default() -> Self {
        ServingLayer::new()
    }
}

impl ServingLayer {
    /// A fresh layer serving the empty epoch 0.
    pub fn new() -> ServingLayer {
        let layer = ServingLayer {
            inner: Arc::new(ServingShared {
                current: Published::new(EpochSnapshot::new(
                    0,
                    FactDb::new(),
                    Termination::Complete,
                )),
                epochs: Mutex::new(Vec::new()),
                next_id: AtomicU64::new(1),
            }),
        };
        let first = layer.inner.current.load();
        layer.inner.epochs.lock().push(Arc::downgrade(&first));
        layer
    }

    /// Freeze the live contents of `db` as the next epoch and publish it.
    /// `termination` is the producing run's stop reason — it is surfaced in
    /// every [`QueryResponse`] answered on this epoch.
    pub fn publish(&self, db: &FactDb, termination: Termination) -> Arc<EpochSnapshot> {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let snap = Arc::new(EpochSnapshot::new(id, db.frozen(), termination));
        let mut epochs = self.inner.epochs.lock();
        let before = epochs.len();
        epochs.retain(|w| w.strong_count() > 0);
        let reclaimed = before - epochs.len();
        epochs.push(Arc::downgrade(&snap));
        drop(epochs);
        self.inner.current.publish_arc(Arc::clone(&snap));
        telemetry::counter_add("serving.publish", 1);
        if reclaimed > 0 {
            telemetry::counter_add("serving.epoch.reclaimed", reclaimed as i64);
        }
        snap
    }

    /// Pin the current epoch: `O(1)`, never blocks the writer beyond a
    /// pointer swap. The returned pin keeps its epoch alive (and its
    /// answers byte-stable) until dropped.
    pub fn pin(&self) -> EpochPin {
        telemetry::counter_add("serving.pin", 1);
        EpochPin {
            snap: self.inner.current.load(),
        }
    }

    /// The id of the currently published epoch.
    pub fn current_epoch(&self) -> u64 {
        self.inner.current.load().id
    }

    /// Number of epochs still resident in memory (the current one plus any
    /// kept alive by outstanding pins).
    pub fn resident_epochs(&self) -> usize {
        self.inner
            .epochs
            .lock()
            .iter()
            .filter(|w| w.strong_count() > 0)
            .count()
    }

    /// Approximate bytes across all resident epochs — the quantity the
    /// stress suite bounds to prove unpinned epochs are actually reclaimed
    /// rather than accumulated.
    pub fn resident_bytes(&self) -> usize {
        self.inner
            .epochs
            .lock()
            .iter()
            .filter_map(Weak::upgrade)
            .map(|s| s.approx_bytes())
            .sum()
    }
}

/// A reader's handle to one immutable epoch. Derefs to [`EpochSnapshot`];
/// every query answered through the same pin sees the same fact set.
#[derive(Clone)]
pub struct EpochPin {
    snap: Arc<EpochSnapshot>,
}

impl std::ops::Deref for EpochPin {
    type Target = EpochSnapshot;

    fn deref(&self) -> &EpochSnapshot {
        &self.snap
    }
}

impl EpochPin {
    /// The underlying shared snapshot (for callers that want to hold the
    /// `Arc` directly).
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&self.snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::parser::parse_program;

    fn tc_db() -> (Engine, FactDb) {
        let program = parse_program(
            "edge(1,2). edge(2,3). edge(3,4). kind(\"acme\").\n\
             edge(X,Y) -> path(X,Y). path(X,Y), edge(Y,Z) -> path(X,Z).",
        )
        .unwrap();
        let engine = Engine::with_config(program, EngineConfig::default()).unwrap();
        let mut db = FactDb::new();
        engine.run(&mut db).unwrap();
        (engine, db)
    }

    #[test]
    fn publish_pin_and_point_queries() {
        let (_, db) = tc_db();
        let layer = ServingLayer::new();
        assert_eq!(layer.current_epoch(), 0);
        assert_eq!(layer.pin().fact_count(), 0);
        layer.publish(&db, Termination::Complete);
        let pin = layer.pin();
        assert_eq!(pin.id(), 1);
        assert!(pin.is_complete());
        assert_eq!(pin.rows("edge").len(), 3);
        assert_eq!(pin.rows("path").len(), 6);
        let r = pin.query("point path(1, 4)").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert!(r.complete);
        assert_eq!(r.epoch, 1);
        let r = pin.query("point path(4, 1)").unwrap();
        assert!(r.rows.is_empty());
        // Int/Float class equality carries into the snapshot index.
        let r = pin.query("point path(1.0, 4)").unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn rows_are_built_once_per_predicate_and_not_counted() {
        let (_, db) = tc_db();
        let snap = ServingLayer::new().publish(&db, Termination::Complete);
        let bytes = snap.approx_bytes();
        let start = std::sync::Barrier::new(4);
        let slices: Vec<Vec<(usize, usize)>> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        let rows = snap.predicates().iter().map(|p| snap.rows(p));
                        rows.map(|r| (r.as_ptr() as usize, r.len())).collect()
                    })
                })
                .collect();
            readers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(slices.iter().all(|s| *s == slices[0]), "{slices:?}");
        let lens: Vec<usize> = slices[0].iter().map(|&(_, len)| len).collect();
        assert_eq!(snap.predicates(), ["edge", "kind", "path"]);
        assert_eq!(lens, [3, 1, 6]);
        assert_eq!(snap.rows("edge").as_ptr() as usize, slices[0][0].0);
        assert!(snap.rows("nope").is_empty());
        assert_eq!(snap.approx_bytes(), bytes);
    }

    #[test]
    fn point_queries_keep_commas_inside_strings() {
        let mut db = FactDb::new();
        db.add_facts("name", vec![vec![Value::str("Smith, John"), Value::Int(7)]])
            .unwrap();
        let layer = ServingLayer::new();
        layer.publish(&db, Termination::Complete);
        let pin = layer.pin();
        let r = pin.query("point name(\"Smith, John\", 7)").unwrap();
        assert_eq!(r.rows.len(), 1);
        let r = pin.query("point name(\"Smith\", 7)").unwrap();
        assert!(r.rows.is_empty());
    }

    #[test]
    fn aggregates_and_rel_scans() {
        let (_, db) = tc_db();
        let layer = ServingLayer::new();
        layer.publish(&db, Termination::Complete);
        let pin = layer.pin();
        let r = pin.query("count path").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(6)]]);
        let r = pin.query("sum edge 1").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Float(9.0)]]);
        let r = pin.query("min edge 0").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Float(1.0)]]);
        let r = pin.query("max edge 1").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Float(4.0)]]);
        let r = pin.query("rel edge").unwrap();
        assert_eq!(r.rows.len(), 3);
        // Unknown predicates answer empty/zero, not an error.
        assert_eq!(
            pin.query("count nope").unwrap().rows,
            vec![vec![Value::Int(0)]]
        );
        assert!(pin.query("min nope 0").unwrap().rows.is_empty());
    }

    #[test]
    fn path_queries_run_on_the_projection() {
        let (_, db) = tc_db();
        let layer = ServingLayer::new();
        layer.publish(&db, Termination::Complete);
        let pin = layer.pin();
        let r = pin.query("path edge/edge").unwrap();
        // Two-hop pairs: (1,3), (2,4).
        assert_eq!(r.rows.len(), 2);
        assert!(r.rows.contains(&vec![Value::Int(1), Value::Int(3)]));
        // `path` answers must agree with the chased closure: edge/edge* vs
        // the `path` relation.
        let closure = pin.query("path edge/edge*").unwrap();
        let mut derived: Vec<Vec<Value>> = pin.rows("path").to_vec();
        derived.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        let mut got = closure.rows.clone();
        got.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        assert_eq!(got, derived);
        // Inverse flips pairs.
        let inv = pin.query("path ~edge").unwrap();
        assert!(inv.rows.contains(&vec![Value::Int(2), Value::Int(1)]));
    }

    #[test]
    fn cypher_queries_map_back_to_values() {
        let (_, db) = tc_db();
        let layer = ServingLayer::new();
        layer.publish(&db, Termination::Complete);
        let pin = layer.pin();
        let r = pin
            .query("cypher (a:v)-[e:edge]->(b:v) return (a,b)")
            .unwrap();
        assert_eq!(r.rows.len(), 3);
        assert!(r.rows.contains(&vec![Value::Int(1), Value::Int(2)]));
        // Unary predicates label their nodes.
        let r = pin.query("cypher (k:kind) return k").unwrap();
        assert_eq!(r.rows, vec![vec![Value::str("acme")]]);
    }

    #[test]
    fn plan_cache_hits_after_first_parse() {
        let (_, db) = tc_db();
        let layer = ServingLayer::new();
        layer.publish(&db, Termination::Complete);
        let pin = layer.pin();
        assert_eq!(pin.plan_cache_stats(), (0, 0));
        let a = pin.query("count path").unwrap();
        let b = pin.query("count path").unwrap();
        assert_eq!(a, b);
        assert_eq!(pin.plan_cache_stats(), (1, 1));
        // A new epoch starts cold.
        layer.publish(&db, Termination::Complete);
        let pin2 = layer.pin();
        assert_eq!(pin2.plan_cache_stats(), (0, 0));
    }

    #[test]
    fn pinned_epoch_survives_publishes_and_is_reclaimed_after() {
        let (engine, mut db) = tc_db();
        let layer = ServingLayer::new();
        layer.publish(&db, Termination::Complete);
        let pin = layer.pin();
        let before = pin.query("count path").unwrap();
        engine
            .apply_update(
                &mut db,
                crate::engine::Update {
                    inserts: vec![("edge".into(), vec![Value::Int(4), Value::Int(5)])],
                    deletes: vec![],
                },
            )
            .unwrap();
        layer.publish(&db, Termination::Complete);
        // The pinned epoch still answers from its frozen fact set…
        assert_eq!(pin.query("count path").unwrap(), before);
        // …while new pins see the update.
        assert_eq!(
            layer.pin().query("count path").unwrap().rows,
            vec![vec![Value::Int(10)]]
        );
        assert_eq!(layer.resident_epochs(), 2);
        drop(pin);
        // The next publish prunes the registry; the retired epoch is gone.
        layer.publish(&db, Termination::Complete);
        assert_eq!(layer.resident_epochs(), 1);
    }

    #[test]
    fn malformed_queries_are_structured_errors() {
        let layer = ServingLayer::new();
        let pin = layer.pin();
        assert!(pin.query("frobnicate x").is_err());
        assert!(pin.query("point p(").is_err());
        assert!(pin.query("sum p notacol").is_err());
        assert!(pin.query("path (edge").is_err());
        assert!(pin.query("point p(@bad)").is_err());
        assert!(pin.query("rel").is_err());
        // Text after a point query's `)`, a predicate of two words, and a
        // column at or past a known predicate's arity.
        let (_, db) = tc_db();
        layer.publish(&db, Termination::Complete);
        let pin = layer.pin();
        for text in [
            "point path(1, 3) junk",
            "count path extra",
            "rel path extra",
            "max path.x 1",
            "point path x(1, 3)",
            "sum edge 7",
            "max edge 5",
            "min edge 2",
        ] {
            match pin.query(text) {
                Err(KgmError::Parse { .. }) => {}
                other => panic!("`{text}` must be a Parse error, got {other:?}"),
            }
        }
        // Unknown predicates still answer empty or zero.
        assert_eq!(
            pin.query("sum nope 7").unwrap().rows,
            vec![vec![Value::Float(0.0)]]
        );
        assert!(pin.query("max nope 5").unwrap().rows.is_empty());
    }

    #[test]
    fn path_grammar_precedence_and_parens() {
        // a/b|c parses as (a/b)|c; ~ binds tighter than *.
        let p = parse_path("a/b|c").unwrap();
        assert!(matches!(p, PathPattern::Alt(ref v) if v.len() == 2));
        let p = parse_path("~a*").unwrap();
        assert!(matches!(p, PathPattern::Star(_)));
        let p = parse_path("(a|b)/c").unwrap();
        assert!(matches!(p, PathPattern::Seq(ref v) if v.len() == 2));
    }
}
