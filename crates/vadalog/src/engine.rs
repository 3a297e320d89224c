//! The chase engine: stratified semi-naive evaluation with existentials,
//! Skolem functors and aggregation.
//!
//! The evaluation strategy follows Section 4 of the paper and the Vadalog
//! literature it builds on:
//!
//! - **Skolem chase for existentials**: a head variable not bound by the
//!   body is realized as a labelled null (OID space `N`) keyed by
//!   `(rule, variable, frontier values)` — re-firing a rule on the same
//!   ground tuple reuses the same null, which (together with wardedness)
//!   terminates on the paper's programs. An explicit fact cap is the
//!   engine's safety net.
//! - **Stratified execution**: negation and *exact* aggregation read only
//!   strictly lower strata; within a stratum, rules run to a semi-naive
//!   fixpoint, whose delta pass over a body atom reads the atoms before it
//!   in their old rows only, so each new match is found exactly once.
//! - **Monotonic aggregation in recursion**: contributor-keyed accumulation
//!   (Example 4.2's `sum(w, ⟨z⟩)`): each distinct contributor tuple is
//!   counted once, updates re-fire the rule with the refined value.

use crate::analysis::{AggMode, ProgramAnalysis};
use crate::ast::{AggregateFunc, Atom, Expr, Program, Rule, RuleStep, Term, Var};
use crate::bindings::SourceRegistry;
use crate::chase_state::{ChaseState, MonoTable, NullTable};
use crate::eval::{eval, EvalCtx};
use kgm_common::pool::{pending_cell, pending_slot, Classes, NO_CELL};
use kgm_common::{
    FxHashMap, FxHashSet, KgmError, OidGen, OidSpace, Result, SkolemRegistry, Value, ValuePool,
};
use kgm_runtime::sync::CancelToken;
use kgm_runtime::telemetry;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Fact storage
// ---------------------------------------------------------------------
//
// The columnar store lives in `crate::factdb`: per-column `u64` cell
// arrays (OIDs held inline, every other value a `ValuePool` id), a packed
// tuple-hash dedup table, and posting-list join indexes that are built
// incrementally by the single writer and reused (read-only) across
// semi-naive iterations and shard workers. `FactDb` is re-exported here
// so `engine::FactDb` remains the canonical path.

pub use crate::factdb::FactDb;
use crate::factdb::{fact_id, FactId, Relation};

// ---------------------------------------------------------------------
// Cells from column to store
// ---------------------------------------------------------------------
//
// A rule evaluation moves `u64` cells (see `kgm_common::pool`), not
// `Value`s: the join binds the exact cells it reads from the columns, and
// a `Value` is made only where a condition, assignment, aggregate,
// negation or null key reads one. A value a step computes that the pool
// has never interned travels as a pending cell naming a slot in a side
// list until the writer interns it on insert. Survivors, heads and
// provenance parents are buffered in flat arrays: no tuple owns a heap
// block between the join and the store.

/// Emitted head tuples as flat cell rows, in emission order. Each row is a
/// header word ([`head_header`]: the head predicate's slot in
/// `Engine::head_preds` and the row's arity), then its cells, exact or
/// pending. An iteration's `out` is one `Heads`; a spawned shard worker
/// fills its own, which the writer appends.
#[derive(Default)]
struct Heads {
    rows: Vec<u64>,
    /// Number of rows.
    len: usize,
    /// The values the rows' pending cells name.
    side: Vec<Value>,
    /// With `EngineConfig::provenance` on, per row: its rule id and how
    /// many fact ids of `parents` are its parents. Empty when off.
    prov: Vec<(u32, u32)>,
    /// The parent fact ids of every row, flat, in row order.
    parents: Vec<FactId>,
}

/// The header word of a head row of `arity` cells for head slot `slot`.
fn head_header(slot: u32, arity: usize) -> u64 {
    (arity as u64) << 32 | u64::from(slot)
}

/// The head slot and arity a [`head_header`] word holds.
fn split_header(word: u64) -> (usize, usize) {
    (word as u32 as usize, (word >> 32) as usize)
}

impl Heads {
    fn len(&self) -> usize {
        self.len
    }

    /// Append `other`'s rows, renumbering its pending cells past this side
    /// list.
    fn append(&mut self, other: Heads) {
        if self.rows.is_empty() && self.side.is_empty() {
            *self = other;
            return;
        }
        let (start, off) = (self.rows.len(), self.side.len());
        self.rows.extend_from_slice(&other.rows);
        if !other.side.is_empty() {
            let mut at = start;
            while at < self.rows.len() {
                let (_, arity) = split_header(self.rows[at]);
                for cell in &mut self.rows[at + 1..=at + arity] {
                    if let Some(slot) = pending_slot(*cell) {
                        *cell = pending_cell(slot + off);
                    }
                }
                at += 1 + arity;
            }
        }
        self.len += other.len;
        self.side.extend(other.side);
        self.prov.extend_from_slice(&other.prov);
        self.parents.extend_from_slice(&other.parents);
    }
}

/// Where a match's cells get their values: the store's pool, and the
/// values its pending cells name. Slots below `base.len()` are in `base`,
/// the side list of the buffer the cells came from; later slots are in
/// `locals`, the values this match's steps computed.
struct Scope<'a> {
    pool: &'a ValuePool,
    base: &'a [Value],
    locals: Vec<Value>,
}

impl<'a> Scope<'a> {
    fn new(pool: &'a ValuePool, base: &'a [Value]) -> Self {
        Scope {
            pool,
            base,
            locals: Vec::new(),
        }
    }

    /// The value of `cell`; `None` for [`NO_CELL`], an unbound variable.
    fn value(&self, cell: u64) -> Option<Value> {
        if cell == NO_CELL {
            return None;
        }
        Some(match pending_slot(cell) {
            Some(slot) => match slot.checked_sub(self.base.len()) {
                Some(local) => self.locals[local].clone(),
                None => self.base[slot].clone(),
            },
            None => self.pool.get(cell),
        })
    }

    /// The cell of a value a step computed: an OID's own cell, else a
    /// pending cell naming a new local slot. Most computed values never
    /// reach a row (an aggregate's running sum is compared and dropped), so
    /// none is looked up in the pool here; a row's writer interns it.
    fn cell(&mut self, v: Value) -> u64 {
        if let Value::Oid(_) = v {
            return self.pool.exact(&v).expect("an OID is its own cell");
        }
        self.locals.push(v);
        pending_cell(self.base.len() + self.locals.len() - 1)
    }

    /// `cell` as a cell of a buffer whose pending values are `side`: a
    /// pending cell's value moves to a new slot at the end of `side`.
    fn export(&self, cell: u64, side: &mut Vec<Value>) -> u64 {
        if pending_slot(cell).is_none() {
            return cell;
        }
        side.push(self.value(cell).expect("a pending cell has a value"));
        pending_cell(side.len() - 1)
    }
}

/// One shard's share of a rule evaluation ([`Engine::eval_rule`]), in
/// enumeration order.
#[derive(Default)]
struct ShardOut {
    /// Head tuples the shard emitted itself.
    heads: Heads,
    /// Bindings that survived the shard's step prefix (prefix assigns
    /// applied) and still need the writer's order-sensitive suffix: one
    /// cell per rule variable each, [`NO_CELL`] where none is bound yet.
    survivors: Vec<u64>,
    /// The values the survivors' pending cells name.
    side: Vec<Value>,
    /// Provenance: the body-atom-order parent fact ids of each survivor,
    /// one per body atom. Empty when provenance is off.
    parents: Vec<FactId>,
    /// Matches that survived the shard's step prefix.
    survived: usize,
    /// Complete body matches enumerated (pre-filter).
    enumerated: usize,
}

/// One atom of a join order, as [`Engine::join`] reads it. Which of its
/// positions form the index key, bind a variable or repeat one depends
/// only on the atoms before it in the order, so [`join_plan`] fixes them
/// once per rule evaluation.
struct Level<'a> {
    /// Body atom index.
    index: usize,
    atom: &'a Atom,
    /// The atom's relation; `None` while its predicate has no facts.
    rel: Option<&'a Relation>,
    /// Index key positions, ascending, and where each key cell comes from.
    positions: Vec<usize>,
    key: Vec<KeyCell>,
    /// `(position, variable)`: positions that bind a variable.
    binds: Vec<(usize, usize)>,
    /// `(position, variable)`: positions repeating a variable bound at an
    /// earlier position of this atom.
    checks: Vec<(usize, usize)>,
}

/// What [`Engine::join`] calls on a full match: the binding and the
/// join-order trail of matched fact ids.
type OnMatch<'a> = dyn FnMut(&mut [u64], &[FactId]) -> Result<()> + 'a;

/// Where one class cell of a join index key comes from.
#[derive(Clone, Copy)]
enum KeyCell {
    /// A constant's class cell; `None` when the pool holds no equal value,
    /// so no stored tuple matches.
    Const(Option<u64>),
    /// The class of the variable's bound cell.
    Var(usize),
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

/// Engine limits and policy.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Fixpoint iteration cap per stratum.
    pub max_iterations: usize,
    /// Global derived-fact cap (chase safety net).
    pub max_facts: usize,
    /// Worker threads. Every rule evaluation splits the outermost join
    /// atom's scan range into shards and runs them through one path: `1`
    /// keeps the whole range in one shard on the calling thread, larger
    /// values spawn that many shard workers over ranges of at least
    /// `min_parallel_batch` (and as many dedup partitions per insert
    /// batch). Defaults to the `KGM_THREADS` environment variable (falling
    /// back to the machine's parallelism). Any value produces bit-identical
    /// output.
    pub threads: usize,
    /// Minimum scan-range size (tuples of the outermost join atom) before a
    /// rule evaluation is split into several shards; smaller ranges stay
    /// one shard on the calling thread because thread spawn would dominate.
    /// Tests pin this to 1 to force spawned shards on tiny inputs.
    pub min_parallel_batch: usize,
    /// Wall-clock budget for the whole run in milliseconds (`None` =
    /// unbounded). `0` stops at the first governor check — useful to prove
    /// degradation paths deterministically. Defaults to the
    /// `KGM_DEADLINE_MS` environment variable when set.
    pub deadline_ms: Option<u64>,
    /// Approximate memory budget in bytes (`None` = unbounded), measured
    /// against [`FactDb::approx_bytes`] — which includes the persisted
    /// resume state — plus the labelled-null and monotonic-aggregate
    /// tables the running chase holds until it ends.
    pub max_bytes: Option<usize>,
    /// Budget/cancellation policy. `false` (the default): exceeding a
    /// budget degrades gracefully — [`Engine::run`] returns `Ok` with the
    /// partial `FactDb` intact and [`RunStats::termination`] naming the
    /// stop reason. `true`: restore the historical behavior of returning
    /// `Err` ([`KgmError::ResourceExhausted`] / [`KgmError::Cancelled`]).
    /// The per-stratum `max_iterations` cap never errors in either mode.
    pub strict: bool,
    /// Cooperative cancellation token, polled between governor checkpoints
    /// and (counter-gated) inside binding loops and shard workers. `None`
    /// disables polling entirely.
    pub cancel: Option<CancelToken>,
    /// Record why-provenance: every derived fact gets a `(rule, parents[])`
    /// edge in the database's [`crate::factdb::ProvStore`], queryable via
    /// [`crate::explain`]. The fact output is bit-identical with the flag
    /// on or off, at any thread count; the overhead contract (< 2× chase
    /// time on the paper's control workload) is CI's `paper-harness gates`
    /// provenance gate.
    pub provenance: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_iterations: 1_000_000,
            max_facts: 50_000_000,
            threads: kgm_runtime::par::threads_from_env(),
            min_parallel_batch: 256,
            deadline_ms: kgm_runtime::env::parsed(
                "KGM_DEADLINE_MS",
                "milliseconds (an unsigned integer)",
            ),
            max_bytes: None,
            strict: false,
            cancel: None,
            provenance: false,
        }
    }
}

/// Why a chase run stopped — [`RunStats::termination`].
///
/// Everything except [`Termination::Complete`] marks a *truncated* run: the
/// `FactDb` then holds the facts inserted up to the last completed
/// fixpoint-iteration boundary (plus, for `FactCap`, the batch that crossed
/// the cap), which is a prefix of what the unbounded run would have
/// inserted. [`Termination::IterationCap`] is the one *soft* stop: the
/// affected stratum is truncated but subsequent strata still execute,
/// preserving the long-standing `max_iterations` semantics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Termination {
    /// Every stratum reached its fixpoint.
    #[default]
    Complete,
    /// `max_facts` was exceeded.
    FactCap,
    /// At least one stratum hit `max_iterations` before its fixpoint.
    IterationCap,
    /// `deadline_ms` elapsed.
    Deadline,
    /// The configured [`CancelToken`] was tripped.
    Cancelled,
    /// `max_bytes` was exceeded.
    MemoryBudget,
}

impl Termination {
    /// Stable machine-readable name (used by the `chase.termination.<name>`
    /// telemetry counters).
    pub fn as_str(self) -> &'static str {
        match self {
            Termination::Complete => "complete",
            Termination::FactCap => "fact_cap",
            Termination::IterationCap => "iteration_cap",
            Termination::Deadline => "deadline",
            Termination::Cancelled => "cancelled",
            Termination::MemoryBudget => "memory_budget",
        }
    }

    /// Did the run reach every fixpoint?
    pub fn is_complete(self) -> bool {
        self == Termination::Complete
    }
}

impl std::fmt::Display for Termination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Statistics of one reasoning run. `iterations`, `derived_facts`,
/// `duplicates_rejected` and `nulls_created` are the sums of the
/// per-stratum counters in `profile.strata`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Number of strata executed.
    pub strata: usize,
    /// Total fixpoint iterations across strata.
    pub iterations: usize,
    /// Facts newly derived by rules (input facts excluded).
    pub derived_facts: usize,
    /// Labelled nulls minted for existentials.
    pub nulls_created: usize,
    /// Emitted head tuples already present in the database.
    pub duplicates_rejected: usize,
    /// Wall-clock time of the whole run in milliseconds.
    pub elapsed_ms: f64,
    /// Why the run stopped; anything but [`Termination::Complete`] marks a
    /// truncated (but internally consistent) result.
    pub termination: Termination,
    /// Stratum index where the run stopped (the last executed stratum for
    /// complete runs).
    pub stopped_stratum: usize,
    /// Fixpoint iterations executed *within* `stopped_stratum` when the
    /// run stopped.
    pub stopped_iteration: usize,
    /// Per-stratum and per-rule breakdown.
    pub profile: ChaseProfile,
}

/// Per-stratum and per-rule breakdown of one chase run — the detail behind
/// the [`RunStats`] totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaseProfile {
    /// One entry per executed stratum, in execution order.
    pub strata: Vec<StratumProfile>,
    /// One entry per program rule, indexed by rule number (rules that never
    /// ran keep zeroed counters).
    pub rules: Vec<RuleProfile>,
    /// Shard workers spawned across all rule evaluations (0 when every
    /// evaluation ran as one shard on the calling thread).
    pub shards_spawned: usize,
    /// Candidate bindings shard workers handed to the merge writer.
    pub worker_candidates: usize,
    /// Cancellation/deadline polls performed inside binding loops (0 when
    /// neither a cancel token nor a deadline was configured).
    pub cancel_polls: usize,
    /// Faults `kgm_runtime::fault` injected while this run executed (only
    /// observable in the stats when the run still returned them, i.e. the
    /// injected failure was tolerated or struck another thread).
    pub faults_injected: usize,
    /// Provenance edges recorded by this run (0 when
    /// `EngineConfig::provenance` is off).
    pub prov_edges: usize,
    /// Parent fact references across those edges (post-dedup).
    pub prov_parents: usize,
    /// New EDB facts an [`Engine::apply_update`] call inserted (0 for plain
    /// runs and for updates whose inserts were all duplicates).
    pub update_inserted: usize,
    /// Facts an update tombstoned on direct request, derived ones named by
    /// a delete included.
    pub update_deleted: usize,
    /// Derived facts the over-deletion tombstoned: those (transitively)
    /// supported by a deleted fact, or every derived row.
    pub update_overdeleted: usize,
    /// Over-deleted facts the re-derivation pass brought back through an
    /// alternative support (not tracked — 0 — when every derived row was
    /// over-deleted).
    pub update_rederived: usize,
    /// 1 when the update over-deleted every derived row, because the
    /// provenance closure of its deletes could not be trusted.
    pub update_fallbacks: usize,
}

/// Chase counters for one stratum.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StratumProfile {
    /// Stratum number (0-based, execution order).
    pub stratum: usize,
    /// Fixpoint iterations run in this stratum.
    pub iterations: usize,
    /// Facts newly inserted by this stratum's rules.
    pub derived_facts: usize,
    /// Emitted tuples rejected as duplicates in this stratum.
    pub duplicates_rejected: usize,
    /// Labelled nulls minted while this stratum ran.
    pub nulls_minted: usize,
    /// Wall-clock milliseconds spent in this stratum.
    pub elapsed_ms: f64,
}

/// Chase counters for one rule, accumulated across all its evaluations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuleProfile {
    /// Rule index in the program.
    pub rule: usize,
    /// Head predicate(s) of the rule, comma-joined — for human-readable
    /// reports.
    pub head: String,
    /// Total evaluation calls (full passes plus delta-restricted passes).
    pub evaluations: usize,
    /// Evaluations restricted to a delta of one body atom.
    pub delta_evaluations: usize,
    /// Complete body matches enumerated (join results reaching the head).
    pub bindings_enumerated: usize,
    /// Head tuples emitted (before database deduplication).
    pub facts_emitted: usize,
    /// Wall-clock milliseconds spent evaluating this rule.
    pub elapsed_ms: f64,
}

/// Process-unique token minted per [`Engine`] so persisted [`ChaseState`]
/// can be matched back to the engine that wrote it.
static ENGINE_TOKENS: AtomicU64 = AtomicU64::new(1);

/// Per-rule precomputed metadata.
struct RuleMeta {
    stratum: usize,
    /// head variables except the aggregate target (group key), in var order.
    group_vars: Vec<Var>,
    existentials: Vec<Var>,
    frontier: Vec<Var>,
    agg_mode: Option<AggMode>,
    /// Index of the aggregate step in `rule.steps`.
    agg_step: Option<usize>,
    /// The aggregate's contributor variables: its `⟨…⟩` list, or, for an
    /// exact aggregate without one, every variable bound at the aggregate
    /// step (each distinct match then contributes).
    contributors: Vec<Var>,
    /// Steps `[0..pure_steps)` are order-independent (no aggregate state
    /// update, no Skolem minting) and safe to run on shard workers;
    /// everything from `pure_steps` on must run on the single writer in
    /// deterministic match order.
    pure_steps: usize,
    /// `(predicate, key positions)` of the join indexes each of this
    /// rule's join orders probes: entry `ai` for `join_order(rule, ai)`,
    /// the order of a delta pass over body atom `ai` (a full pass runs
    /// entry 0's, which an empty body has too). The writer builds the
    /// entries of exactly the passes it evaluates before evaluating them,
    /// so the parallel phase reads a frozen database and no index is built
    /// that nothing probes.
    index_needs: Vec<Vec<(String, Vec<usize>)>>,
    /// Each head atom's slot in `Engine::head_preds`.
    head_slots: Vec<u32>,
}

/// The resource governor: the one place a run's budgets and its cancel
/// token are held.
///
/// [`Governor::check`] runs at stratum boundaries and once per fixpoint
/// iteration, and maps an exceeded budget (or a tripped cancel token) to
/// the [`Termination`] that stops the run, most urgent first: cancellation,
/// the deadline, the memory proxy, the fact cap.
///
/// [`Governor::interrupted`] is polled inside binding loops. The one-shard
/// join and every spawned shard worker poll the same governor (its counters
/// are atomics), so a cancel or deadline stops a parallel chase within one
/// batch. Polling is counter-gated: the cancel token and the clock are
/// consulted once every `POLL_MASK + 1` join steps. When neither is
/// configured the whole poll is two branches on immutable `None`s, so the
/// default path costs nothing measurable.
struct Governor {
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
    max_bytes: Option<usize>,
    max_facts: usize,
    steps: AtomicU32,
    polls: AtomicUsize,
    /// 0 = not interrupted, 1 = cancelled, 2 = deadline.
    hit: AtomicU8,
}

impl Governor {
    const POLL_MASK: u32 = 1023;

    /// The governor of a run that started at `t_run`.
    fn new(config: &EngineConfig, t_run: Instant) -> Governor {
        Governor {
            cancel: config.cancel.clone(),
            deadline: config
                .deadline_ms
                .map(|ms| t_run + Duration::from_millis(ms)),
            max_bytes: config.max_bytes,
            max_facts: config.max_facts,
            steps: AtomicU32::new(0),
            polls: AtomicUsize::new(0),
            hit: AtomicU8::new(0),
        }
    }

    /// `run_bytes` is the heap the run holds outside `db`: its null and
    /// aggregate tables, which reach the database only when the run ends.
    fn check(&self, db: &FactDb, run_bytes: usize) -> Option<Termination> {
        if let Some(t) = self.interruption() {
            return Some(t);
        }
        if let Some(b) = self.max_bytes {
            if db.approx_bytes() + run_bytes > b {
                return Some(Termination::MemoryBudget);
            }
        }
        if db.total_facts() > self.max_facts {
            return Some(Termination::FactCap);
        }
        None
    }

    /// The tripped cancel token or the elapsed deadline, if either.
    fn interruption(&self) -> Option<Termination> {
        if let Some(tok) = &self.cancel {
            if tok.is_cancelled() {
                return Some(Termination::Cancelled);
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Some(Termination::Deadline);
            }
        }
        None
    }

    /// What [`Governor::interrupted`] has observed, if anything.
    fn hit(&self) -> Option<Termination> {
        match self.hit.load(Ordering::Acquire) {
            0 => None,
            1 => Some(Termination::Cancelled),
            _ => Some(Termination::Deadline),
        }
    }

    /// True when the run should stop enumerating. Sticky: once an
    /// interruption is observed every subsequent call returns `true`.
    fn interrupted(&self) -> bool {
        if self.cancel.is_none() && self.deadline.is_none() {
            return false;
        }
        if self.hit.load(Ordering::Relaxed) != 0 {
            return true;
        }
        let n = self.steps.fetch_add(1, Ordering::Relaxed);
        if n & Self::POLL_MASK != 0 {
            return false;
        }
        self.polls.fetch_add(1, Ordering::Relaxed);
        let Some(t) = self.interruption() else {
            return false;
        };
        let code = if t == Termination::Cancelled { 1 } else { 2 };
        self.hit.store(code, Ordering::Release);
        true
    }
}

/// The sentinel error binding loops raise to unwind out of a join when
/// [`Governor::interrupted`] fires. `Engine::run` inspects
/// [`Governor::hit`] before propagating evaluation errors, so this
/// never escapes to callers (in graceful mode it becomes a recorded
/// [`Termination`]; in strict mode it is rebuilt with a proper message).
fn interrupt_sentinel() -> KgmError {
    KgmError::Cancelled("chase interrupted".to_string())
}

/// Human-readable panic payload of a caught shard-worker panic.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// One incremental change to the extensional database, applied by
/// [`Engine::apply_update`]: facts to retract and facts to assert. Deletes
/// apply before inserts. Deleting an absent fact and inserting a present
/// input fact are no-ops; inserting a fact the chase derived makes it an
/// input fact, which outlives its derivations.
#[derive(Debug, Clone, Default)]
pub struct Update {
    /// EDB facts to insert, as `(predicate, tuple)` pairs.
    pub inserts: Vec<(String, Vec<Value>)>,
    /// EDB facts to delete (with their derived consequences, via DRed).
    pub deletes: Vec<(String, Vec<Value>)>,
}

impl Update {
    /// True when the update changes nothing.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }
}

/// The Vadalog reasoner.
pub struct Engine {
    program: Program,
    analysis: ProgramAnalysis,
    config: EngineConfig,
    skolems: Arc<SkolemRegistry>,
    meta: Vec<RuleMeta>,
    /// Every predicate a rule head names, once, in program order; head
    /// rows name their predicate by its index here.
    head_preds: Vec<String>,
    /// Process-unique identity, stamped into persisted [`ChaseState`].
    token: u64,
}

impl Engine {
    /// Build an engine with default configuration.
    pub fn new(program: Program) -> Result<Engine> {
        Engine::with_config(program, EngineConfig::default())
    }

    /// Build an engine with an explicit configuration.
    pub fn with_config(program: Program, config: EngineConfig) -> Result<Engine> {
        let analysis = ProgramAnalysis::analyze(&program)?;
        if !analysis.warded {
            return Err(KgmError::Analysis(format!(
                "program is not warded: {}",
                analysis.warded_violations.join("; ")
            )));
        }
        let mut meta = Vec::with_capacity(program.rules.len());
        let mut head_preds: Vec<String> = Vec::new();
        for (ri, rule) in program.rules.iter().enumerate() {
            let stratum = rule
                .head
                .iter()
                .map(|h| analysis.stratification.of(&h.predicate))
                .max()
                .unwrap_or(0);
            let agg_mode = analysis.agg_modes.get(&ri).copied();
            let agg_step = rule
                .steps
                .iter()
                .position(|s| matches!(s, RuleStep::Aggregate(_)));
            let mut group_vars: Vec<Var> = Vec::new();
            let mut contributors: Vec<Var> = Vec::new();
            if let Some(agg) = rule.aggregate() {
                if rule.head.len() != 1 {
                    return Err(KgmError::Analysis(format!(
                        "rule #{ri}: aggregate rules must have exactly one head atom"
                    )));
                }
                let bound: FxHashSet<Var> = rule.bound_vars().into_iter().collect();
                group_vars = rule.head[0]
                    .vars()
                    .filter(|v| *v != agg.target && bound.contains(v))
                    .collect();
                group_vars.sort_unstable();
                group_vars.dedup();
                let agg_at = agg_step.expect("agg exists");
                contributors = agg.contributors.clone();
                if contributors.is_empty() && agg_mode == Some(AggMode::Exact) {
                    contributors = rule.positive_vars();
                    contributors.extend(rule.steps[..agg_at].iter().filter_map(|s| match s {
                        RuleStep::Assign(v, _) => Some(*v),
                        _ => None,
                    }));
                    contributors.sort_unstable();
                    contributors.dedup();
                }
                // Exact mode: post-aggregate steps and the head may only use
                // group vars + the target (other body vars are collapsed by
                // grouping).
                if agg_mode == Some(AggMode::Exact) {
                    let allowed: FxHashSet<Var> = group_vars
                        .iter()
                        .copied()
                        .chain(std::iter::once(agg.target))
                        .collect();
                    for s in &rule.steps[agg_at + 1..] {
                        let mut vs = Vec::new();
                        match s {
                            RuleStep::Condition(e) => e.vars(&mut vs),
                            RuleStep::Assign(_, e) => e.vars(&mut vs),
                            RuleStep::Negated(a) => vs.extend(a.vars()),
                            RuleStep::Aggregate(_) => unreachable!("single aggregate"),
                        }
                        for v in vs {
                            if !allowed.contains(&v) {
                                return Err(KgmError::Analysis(format!(
                                    "rule #{ri}: step after an exact aggregate uses \
                                     non-group variable `{}`",
                                    rule.var_name(v)
                                )));
                            }
                        }
                    }
                }
            }
            let pure_steps = rule
                .steps
                .iter()
                .position(|s| match s {
                    RuleStep::Aggregate(_) => true,
                    RuleStep::Condition(e) | RuleStep::Assign(_, e) => expr_has_skolem(e),
                    RuleStep::Negated(_) => false,
                })
                .unwrap_or(rule.steps.len());
            let head_slots = rule
                .head
                .iter()
                .map(|h| {
                    let slot = head_preds.iter().position(|p| *p == h.predicate);
                    slot.unwrap_or_else(|| {
                        head_preds.push(h.predicate.clone());
                        head_preds.len() - 1
                    }) as u32
                })
                .collect();
            meta.push(RuleMeta {
                stratum,
                group_vars,
                existentials: rule.existential_vars(),
                frontier: rule.frontier(),
                agg_mode,
                agg_step,
                contributors,
                pure_steps,
                index_needs: static_index_needs(rule),
                head_slots,
            });
        }
        Ok(Engine {
            program,
            analysis,
            config,
            skolems: Arc::new(SkolemRegistry::new()),
            meta,
            head_preds,
            token: ENGINE_TOKENS.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// The analyzed program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The analysis results.
    pub fn analysis(&self) -> &ProgramAnalysis {
        &self.analysis
    }

    /// The engine's Skolem registry (shared with MetaLog translations).
    pub fn skolems(&self) -> &Arc<SkolemRegistry> {
        &self.skolems
    }

    /// Load every `@input` binding of the program from `registry` into `db`.
    pub fn load_inputs(&self, registry: &SourceRegistry, db: &mut FactDb) -> Result<usize> {
        let mut n = 0;
        for b in &self.program.inputs {
            let facts = registry.load(b)?;
            n += db.add_facts(&b.predicate, facts)?;
        }
        Ok(n)
    }

    /// Run the chase to fixpoint over `db`.
    ///
    /// Emits a `chase.run` telemetry span with one `chase.stratum` child per
    /// stratum and one `chase.rule` leaf per evaluated rule; the same
    /// numbers are returned in [`RunStats::profile`] regardless of whether
    /// any sink is listening.
    pub fn run(&self, db: &mut FactDb) -> Result<RunStats> {
        let root_span = kgm_runtime::span!(
            "chase.run",
            "{} rules, {} strata",
            self.program.rules.len(),
            self.analysis.stratification.count
        );
        // Provenance recording must be live before any rule fires; program
        // facts (like pre-loaded inputs) get no edges — that edge-lessness
        // is what marks them as EDB leaves in explanation trees.
        if self.config.provenance {
            db.enable_provenance();
        }
        for f in &self.program.facts {
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
        let stats = self.run_inner(db, None, None)?;
        self.emit_telemetry(&stats, &root_span, false);
        Ok(stats)
    }

    /// [`Engine::run`], then publish the result as the next serving epoch.
    ///
    /// The epoch carries the run's [`Termination`], so readers pinning a
    /// budget-truncated (graceful-mode) materialization see `complete ==
    /// false` in every [`crate::serving::QueryResponse`] rather than
    /// silently being served a prefix as the full fixpoint. Nothing is
    /// published on `Err` (strict-mode budget errors included) — the layer
    /// keeps serving the previous epoch.
    pub fn run_serving(
        &self,
        db: &mut FactDb,
        serving: &crate::serving::ServingLayer,
    ) -> Result<RunStats> {
        let stats = self.run(db)?;
        serving.publish(db, stats.termination);
        Ok(stats)
    }

    /// [`Engine::apply_update`], then publish the updated database as the
    /// next serving epoch (stamped with the update run's [`Termination`],
    /// same contract as [`Engine::run_serving`]). Readers holding pins keep
    /// their pre-update epoch; new pins see the update applied in full —
    /// never a half-applied DRed deletion.
    pub fn apply_update_serving(
        &self,
        db: &mut FactDb,
        update: Update,
        serving: &crate::serving::ServingLayer,
    ) -> Result<RunStats> {
        let stats = self.apply_update(db, update)?;
        serving.publish(db, stats.termination);
        Ok(stats)
    }

    /// The chase proper, shared by [`Engine::run`] (fresh evaluation) and
    /// [`Engine::apply_update`] (resumed evaluation).
    ///
    /// `seed` switches every stratum from a full first pass to
    /// delta-restricted passes seeded with the given per-predicate physical
    /// watermarks — the insert-only incremental path: everything at or past
    /// a watermark (new EDB facts and this run's own derivations) is the
    /// delta, everything before it is the already-chased base.
    ///
    /// `resume` carries a prior run's [`ChaseState`]: the null generator
    /// continues past `null_count` (ids already embedded in stored facts
    /// are never re-minted), and the null/monotonic-aggregate tables pick
    /// up where the prior run stopped. The (possibly updated) state is
    /// re-persisted on `db` at the end of every graceful run.
    fn run_inner(
        &self,
        db: &mut FactDb,
        seed: Option<&FxHashMap<String, usize>>,
        resume: Option<ChaseState>,
    ) -> Result<RunStats> {
        let t_run = Instant::now();
        let governor = Governor::new(&self.config, t_run);
        let faults_before = kgm_runtime::fault::injected_total();
        // Graceful-stop reason, set when a stratum breaks out below; `None`
        // means the run either completed or soft-stopped on the iteration cap.
        let mut stop: Option<Termination> = None;
        let mut stats = RunStats::default();
        stats.profile.rules = self
            .program
            .rules
            .iter()
            .enumerate()
            .map(|(ri, rule)| RuleProfile {
                rule: ri,
                head: rule
                    .head
                    .iter()
                    .map(|h| h.predicate.as_str())
                    .collect::<Vec<_>>()
                    .join(","),
                ..RuleProfile::default()
            })
            .collect();
        let prov_edges_before = db.prov_edges();
        let prov_parents_before = db.prov_parent_refs();

        let (null_gen, mut nulls, mut mono) = match resume {
            Some(st) => (
                OidGen::resume(OidSpace::Null, st.null_count),
                st.nulls,
                st.mono,
            ),
            None => (
                OidGen::new(OidSpace::Null),
                NullTable::default(),
                MonoTable::default(),
            ),
        };
        for s in 0..self.analysis.stratification.count {
            let stratum_span = kgm_runtime::span!("chase.stratum", "{s}");
            let t_stratum = Instant::now();
            let nulls_before = null_gen.count() as usize;
            // The open stratum's counters; the run totals are summed from
            // them once the run ends.
            let mut sp = StratumProfile {
                stratum: s,
                ..StratumProfile::default()
            };
            stop = 'stratum: {
                // Shared stop path for every governed budget. Strict mode
                // keeps the historical erroring behavior; graceful mode ends
                // the stratum (and the run) with the termination, leaving
                // the partial `FactDb` exactly as of the last completed
                // insert batch.
                macro_rules! stop_run {
                    ($t:expr) => {{
                        let t = $t;
                        if self.config.strict {
                            let run_bytes = nulls.approx_bytes() + mono.approx_bytes();
                            return Err(self.budget_error(t, db, run_bytes));
                        }
                        // Tail expression (no semicolon): the macro has type `!`
                        // so it can sit in expression position (match arms).
                        break 'stratum Some(t);
                    }};
                }
                macro_rules! governed {
                    () => {
                        let run_bytes = nulls.approx_bytes() + mono.approx_bytes();
                        if let Some(t) = governor.check(db, run_bytes) {
                            stop_run!(t);
                        }
                    };
                }
                // 1. Exact aggregate rules of this stratum (body is complete):
                //    one full pass each, with a fresh aggregate table.
                for (ri, rule) in self.program.rules.iter().enumerate() {
                    let meta = &self.meta[ri];
                    if meta.stratum != s || meta.agg_mode != Some(AggMode::Exact) {
                        continue;
                    }
                    governed!();
                    for (pred, positions) in &meta.index_needs[0] {
                        db.ensure_index(pred, positions);
                    }
                    let mut out = Heads::default();
                    let result = self.eval_rule(
                        db,
                        ri,
                        rule,
                        None,
                        &[],
                        &null_gen,
                        &mut nulls,
                        &mut MonoTable::default(),
                        &mut out,
                        &mut stats.profile,
                        &governor,
                    );
                    if let Err(e) = result {
                        // Interrupted mid-join: the whole rule evaluation is
                        // discarded (nothing was inserted yet), keeping the
                        // database prefix-consistent. Genuine errors still
                        // propagate.
                        match governor.hit() {
                            Some(t) => stop_run!(t),
                            None => return Err(e),
                        }
                    }
                    let emitted = out.len();
                    let inserted = self.insert_out(db, out)?;
                    sp.derived_facts += inserted;
                    sp.duplicates_rejected += emitted - inserted;
                }
                // 2. Semi-naive fixpoint over the remaining rules of the stratum.
                let rules: Vec<usize> = (0..self.program.rules.len())
                    .filter(|&ri| {
                        self.meta[ri].stratum == s && self.meta[ri].agg_mode != Some(AggMode::Exact)
                    })
                    .collect();
                if rules.is_empty() {
                    break 'stratum None;
                }
                // Delta bookkeeping: predicate → physical row count before this
                // iteration. A seeded run starts every stratum in delta mode:
                // the seed watermarks (pre-update sizes) make "everything the
                // update added or derived so far" the first delta.
                let (mut first, mut watermark) = match seed {
                    None => (true, FxHashMap::default()),
                    Some(base) => (false, base.clone()),
                };
                let mut reached_fixpoint = false;
                for _iter in 0..self.config.max_iterations {
                    governed!();
                    sp.iterations += 1;
                    // Plan the iteration's passes, then freeze the database
                    // for them: build the indexes of exactly the join orders
                    // they run, so the evaluation phase (possibly on shard
                    // workers) is strictly read-only.
                    let plan: Vec<(usize, Vec<Pass>)> = rules
                        .iter()
                        .map(|&ri| (ri, passes(&self.program.rules[ri], db, first, &watermark)))
                        .collect();
                    for (ri, passes) in &plan {
                        for (delta, _) in passes {
                            let ai = delta.as_ref().map_or(0, |(ai, _)| *ai);
                            for (pred, positions) in &self.meta[*ri].index_needs[ai] {
                                db.ensure_index(pred, positions);
                            }
                        }
                    }
                    let mut out = Heads::default();
                    let mut hit: Option<Termination> = None;
                    'rules: for (ri, passes) in plan {
                        let rule = &self.program.rules[ri];
                        for (delta, old) in passes {
                            let result = self.eval_rule(
                                db,
                                ri,
                                rule,
                                delta,
                                &old,
                                &null_gen,
                                &mut nulls,
                                &mut mono,
                                &mut out,
                                &mut stats.profile,
                                &governor,
                            );
                            if let Err(e) = result {
                                match governor.hit() {
                                    Some(t) => {
                                        hit = Some(t);
                                        break 'rules;
                                    }
                                    None => return Err(e),
                                }
                            }
                        }
                    }
                    if let Some(t) = hit {
                        // Interrupted mid-evaluation: discard this iteration's
                        // partial `out` so the database stops exactly at the
                        // previous insert batch — the prefix-consistency
                        // guarantee of graceful degradation.
                        drop(out);
                        stop_run!(t);
                    }
                    // Advance watermarks to the lengths *before* inserting the
                    // new facts, so the next iteration's deltas cover them.
                    for &ri in &rules {
                        for a in &self.program.rules[ri].body {
                            watermark.insert(a.predicate.clone(), db.rows_of(&a.predicate));
                        }
                    }
                    let emitted = out.len();
                    let inserted = self.insert_out(db, out)?;
                    sp.derived_facts += inserted;
                    sp.duplicates_rejected += emitted - inserted;
                    // Post-insert check (the fact cap's historical timing): the
                    // batch that crossed the cap is kept — still a prefix of the
                    // unbounded run's insertion order.
                    governed!();
                    if inserted == 0 {
                        reached_fixpoint = true;
                        break;
                    }
                    first = false;
                }
                if !reached_fixpoint {
                    // The per-stratum iteration cap truncated this fixpoint: a
                    // *soft* stop — record it but keep executing later strata,
                    // preserving the long-standing `max_iterations` semantics.
                    stats.termination = Termination::IterationCap;
                    stats.stopped_stratum = s;
                    stats.stopped_iteration = sp.iterations;
                }
                None
            };
            sp.nulls_minted = null_gen.count() as usize - nulls_before;
            sp.elapsed_ms = t_stratum.elapsed().as_secs_f64() * 1e3;
            if stratum_span.is_active() {
                telemetry::record("iterations", sp.iterations as i64);
                telemetry::record("derived", sp.derived_facts as i64);
                telemetry::record("duplicates", sp.duplicates_rejected as i64);
                telemetry::record("nulls", sp.nulls_minted as i64);
            }
            stats.profile.strata.push(sp);
            if stop.is_some() {
                break;
            }
        }
        let strata = &stats.profile.strata;
        stats.strata = strata.len();
        stats.iterations = strata.iter().map(|sp| sp.iterations).sum();
        stats.derived_facts = strata.iter().map(|sp| sp.derived_facts).sum();
        stats.duplicates_rejected = strata.iter().map(|sp| sp.duplicates_rejected).sum();
        stats.nulls_created = strata.iter().map(|sp| sp.nulls_minted).sum();
        stats.elapsed_ms = t_run.elapsed().as_secs_f64() * 1e3;
        if let Some(t) = stop {
            // A hard stop overrides any earlier soft IterationCap.
            stats.termination = t;
        }
        if stats.termination != Termination::IterationCap {
            // Complete or hard-stopped: the run stopped in the last stratum
            // it executed.
            let last = strata.last();
            stats.stopped_stratum = last.map_or(0, |sp| sp.stratum);
            stats.stopped_iteration = last.map_or(0, |sp| sp.iterations);
        }
        stats.profile.cancel_polls = governor.polls.load(Ordering::Relaxed);
        stats.profile.faults_injected =
            (kgm_runtime::fault::injected_total() - faults_before) as usize;
        stats.profile.prov_edges = db.prov_edges() - prov_edges_before;
        stats.profile.prov_parents = db.prov_parent_refs() - prov_parents_before;
        // Persist the resume state — truncated runs included: the database
        // is prefix-consistent, so continuing (or updating) from it later
        // must still see the minted nulls and accumulated aggregates.
        db.set_chase_state(ChaseState {
            engine_token: self.token,
            null_count: null_gen.count(),
            nulls,
            mono,
        });
        Ok(stats)
    }

    /// Write a finished run's numbers to telemetry: the one place a chase
    /// counter reaches the metrics registry or the run's root span, and
    /// every value comes from `stats`. The root span (`chase.run`, or
    /// `chase.update` when `update` is set) gets the `derived`,
    /// `duplicates`, `nulls` and `shards` records and one `chase.rule` leaf
    /// per evaluated rule; the registry gets the `chase.*` counters, the
    /// `chase.update.*` ones for an update, and the
    /// `chase.iterations_per_run` histogram.
    fn emit_telemetry(&self, stats: &RunStats, root_span: &telemetry::SpanGuard, update: bool) {
        let p = &stats.profile;
        if root_span.is_active() {
            for rp in p.rules.iter().filter(|rp| rp.evaluations > 0) {
                telemetry::annotate_child(
                    "chase.rule",
                    &rp.head,
                    (rp.elapsed_ms * 1e6) as u128,
                    vec![
                        ("evals".to_string(), rp.evaluations as i64),
                        ("delta_evals".to_string(), rp.delta_evaluations as i64),
                        ("bindings".to_string(), rp.bindings_enumerated as i64),
                        ("emitted".to_string(), rp.facts_emitted as i64),
                    ],
                );
            }
            telemetry::record("derived", stats.derived_facts as i64);
            telemetry::record("duplicates", stats.duplicates_rejected as i64);
            telemetry::record("nulls", stats.nulls_created as i64);
            telemetry::record("shards", p.shards_spawned as i64);
        }
        telemetry::counter_add("chase.runs", 1);
        telemetry::counter_add("chase.facts_derived", stats.derived_facts as i64);
        telemetry::counter_add(
            "chase.duplicates_rejected",
            stats.duplicates_rejected as i64,
        );
        telemetry::counter_add("chase.nulls_created", stats.nulls_created as i64);
        // Event counters (shards, fallbacks) stay out of the registry until
        // their event first happens.
        if p.shards_spawned > 0 {
            telemetry::counter_add("chase.shards_spawned", p.shards_spawned as i64);
        }
        if self.config.provenance {
            telemetry::counter_add("chase.prov.edges", p.prov_edges as i64);
            telemetry::counter_add("chase.prov.parents", p.prov_parents as i64);
        }
        telemetry::counter_add(&format!("chase.termination.{}", stats.termination), 1);
        telemetry::histogram_record("chase.iterations_per_run", stats.iterations as u64);
        if update {
            telemetry::counter_add("chase.update.runs", 1);
            telemetry::counter_add("chase.update.inserted", p.update_inserted as i64);
            telemetry::counter_add("chase.update.deleted", p.update_deleted as i64);
            telemetry::counter_add("chase.update.overdeleted", p.update_overdeleted as i64);
            telemetry::counter_add("chase.update.rederived", p.update_rederived as i64);
            if p.update_fallbacks > 0 {
                telemetry::counter_add("chase.update.fallbacks", p.update_fallbacks as i64);
            }
        }
    }

    /// The strict-mode error for a governed stop: the historical `Err`
    /// behavior, with messages naming both the configured budget and the
    /// observed value. `run_bytes` is what [`Governor::check`] adds to the
    /// store for the run's own tables.
    fn budget_error(&self, t: Termination, db: &FactDb, run_bytes: usize) -> KgmError {
        match t {
            Termination::FactCap => KgmError::ResourceExhausted(format!(
                "fact cap exceeded: {} facts > configured max_facts {}",
                db.total_facts(),
                self.config.max_facts
            )),
            Termination::Deadline => KgmError::ResourceExhausted(format!(
                "chase deadline exceeded (deadline_ms={:?})",
                self.config.deadline_ms
            )),
            Termination::MemoryBudget => KgmError::ResourceExhausted(format!(
                "memory budget exceeded: ~{} bytes (store and chase tables) > configured \
                 max_bytes {}",
                db.approx_bytes() + run_bytes,
                self.config.max_bytes.unwrap_or(usize::MAX)
            )),
            Termination::Cancelled => {
                KgmError::Cancelled("chase cancelled via CancelToken".to_string())
            }
            Termination::Complete | Termination::IterationCap => {
                KgmError::Internal("budget_error called for a non-erroring termination".to_string())
            }
        }
    }

    /// Convenience: run over the given input facts and return the database.
    pub fn run_with_facts(&self, inputs: &[(&str, Vec<Vec<Value>>)]) -> Result<(FactDb, RunStats)> {
        let mut db = FactDb::new();
        for (pred, tuples) in inputs {
            db.add_facts(pred, tuples.clone())?;
        }
        let stats = self.run(&mut db)?;
        Ok((db, stats))
    }

    /// Incrementally maintain a database previously materialized by
    /// [`Engine::run`] under an EDB [`Update`] — deletions first, then
    /// insertions — leaving `db` in the state a from-scratch chase over the
    /// updated input would produce (up to labelled-null renaming).
    ///
    /// Two paths, picked automatically:
    ///
    /// - **Insert-only** (the fast path): the new EDB facts become the
    ///   initial semi-naive delta and every stratum runs delta passes
    ///   against the persisted [`ChaseState`] — existing derivations are
    ///   never re-enumerated, so a small update on a large database costs a
    ///   small fraction of full materialization.
    /// - **Over-delete and re-derive**: the requested deletes are
    ///   tombstoned, then everything they may have supported is
    ///   over-deleted. With provenance on, that is DRed's downward closure
    ///   over the recorded `(rule, parents)` edges, each derived fact's
    ///   single recorded support; the over-deleted facts that come back are
    ///   reported as `update_rederived`. Where that closure cannot be
    ///   trusted (no persisted state, stratified negation, exact
    ///   aggregation combined with inserts, or deletions without
    ///   provenance), every derived row is over-deleted, which
    ///   `update_fallbacks` counts. The inserts are applied, and full
    ///   passes over the surviving store re-derive every fact that still
    ///   has a support.
    ///
    /// The update's effect is recorded in the returned stats
    /// (`profile.update_*`) and on the `chase.update.*` telemetry
    /// counters. Requires the same [`Engine`] that materialized `db` when
    /// persisted state exists — a different engine's rule numbering would
    /// reinterpret the state arbitrarily, so that call errors instead.
    pub fn apply_update(&self, db: &mut FactDb, update: Update) -> Result<RunStats> {
        let root_span = kgm_runtime::span!(
            "chase.update",
            "{} inserts, {} deletes",
            update.inserts.len(),
            update.deletes.len()
        );
        let mut state = db.take_chase_state();
        if state
            .as_ref()
            .is_some_and(|st| st.engine_token != self.token)
        {
            db.set_chase_state(*state.take().expect("checked above"));
            return Err(KgmError::Constraint(
                "apply_update requires the engine that materialized the database: \
                 the persisted chase state was written by a different engine"
                    .to_string(),
            ));
        }
        let has_negation = self
            .program
            .rules
            .iter()
            .any(|r| r.steps.iter().any(|s| matches!(s, RuleStep::Negated(_))));
        let has_exact_agg = self.meta.iter().any(|m| m.agg_mode == Some(AggMode::Exact));
        // Negation is non-monotone in both directions; an exact aggregate's
        // stale output rows are only cleaned up by over-deletion, so inserts
        // alongside one must over-delete too; deletions need the recorded
        // provenance edges to know what a fact supported.
        let fallback = state.is_none()
            || has_negation
            || (has_exact_agg && !update.inserts.is_empty())
            || (!update.deletes.is_empty() && !self.config.provenance);
        let insert_only = !fallback && update.deletes.is_empty();
        // Insert-only: seed every stratum's watermarks with the pre-update
        // physical sizes, making the new EDB facts (and the update run's own
        // derivations) the delta.
        let seed: Option<FxHashMap<String, usize>> = insert_only.then(|| {
            let preds = db.predicates().into_iter();
            preds.map(|p| (p.clone(), db.rows_of(&p))).collect()
        });
        let mut deleted = 0usize;
        let mut overdeleted = 0usize;
        // The tuples DRed over-deleted, to count how many come back.
        let mut closure_tuples: Vec<(String, Vec<Value>)> = Vec::new();
        if !insert_only {
            // Tombstone the requested deletes, then over-delete what they may
            // have supported: the downward closure of their provenance edges
            // (the recorded edge is each fact's single support — first
            // derivation wins — so a child dies with any parent) or, where
            // that closure cannot be trusted, every derived row.
            let mut seeds: Vec<FactId> = Vec::new();
            for (pred, tuple) in &update.deletes {
                if let Some(id) = db.find_id(pred, tuple) {
                    if db.tombstone(id) {
                        seeds.push(id);
                    }
                }
            }
            deleted = seeds.len();
            if fallback {
                overdeleted = db.tombstone_derived();
            } else {
                let mut children: FxHashMap<FactId, Vec<FactId>> = FxHashMap::default();
                for (child, parents) in db.prov_edges_iter() {
                    for &p in parents {
                        children.entry(p).or_default().push(child);
                    }
                }
                let mut dead: FxHashSet<FactId> = seeds.iter().copied().collect();
                while let Some(f) = seeds.pop() {
                    for &k in children.get(&f).into_iter().flatten() {
                        if !dead.insert(k) {
                            continue;
                        }
                        seeds.push(k);
                        let tuple = db.fact_values(k).map(|(p, t)| (p.to_string(), t));
                        if db.tombstone(k) {
                            overdeleted += 1;
                            closure_tuples.extend(tuple);
                        }
                    }
                }
            }
        }
        let mut inserted_new = 0usize;
        for (pred, tuple) in &update.inserts {
            if db.insert_input(pred, tuple)? {
                inserted_new += 1;
            }
        }
        let resume = match state {
            Some(st) if insert_only => *st,
            // After an over-deletion, full passes over the surviving store
            // re-derive. The null table and counter are kept (re-derived
            // existential facts reuse their nulls, so surviving facts
            // referencing them stay linked, and fresh nulls never collide
            // with ones embedded in kept rows); the aggregate accumulators
            // restart from zero, since the old ones may count deleted
            // contributors.
            st => {
                let (null_count, nulls) =
                    st.map_or((0, NullTable::default()), |st| (st.null_count, st.nulls));
                ChaseState {
                    engine_token: self.token,
                    null_count,
                    nulls,
                    mono: MonoTable::default(),
                }
            }
        };
        let mut stats = self.run_inner(db, seed.as_ref(), Some(resume))?;
        stats.profile.update_inserted = inserted_new;
        stats.profile.update_deleted = deleted;
        stats.profile.update_overdeleted = overdeleted;
        stats.profile.update_rederived = closure_tuples
            .iter()
            .filter(|(p, t)| db.contains(p, t))
            .count();
        stats.profile.update_fallbacks = usize::from(fallback);
        self.emit_telemetry(&stats, &root_span, true);
        Ok(stats)
    }

    /// Insert a batch of emitted head rows into `db`, in emission order,
    /// returning how many were new.
    ///
    /// One loop walks the batch in emission order and probe-and-inserts
    /// each row on the calling thread, so the insertion order, and
    /// therefore every downstream delta range, null OID and counter, is
    /// bit-identical at any `KGM_THREADS`. A row's pending cells are
    /// interned first, in row order, and its exact cells go to
    /// [`FactDb::insert_cells`] under the predicate id its head slot
    /// resolves to once per batch.
    ///
    /// With `EngineConfig::provenance` on, each row that actually inserts
    /// records its `(rule, parents)` entry as its derivation edge (first
    /// derivation wins — duplicates never touch the store), keyed by the
    /// [`FactId`] the insert returns. Because the insertion order is
    /// bit-identical at any thread count, so is the recorded edge set.
    fn insert_out(&self, db: &mut FactDb, out: Heads) -> Result<usize> {
        let Heads {
            mut rows,
            side,
            prov,
            parents,
            ..
        } = out;
        let record = self.config.provenance;
        let mut pred_ids: Vec<Option<u32>> = vec![None; self.head_preds.len()];
        let (mut at, mut row, mut parent_at, mut inserted) = (0, 0, 0, 0);
        while at < rows.len() {
            let (slot, arity) = split_header(rows[at]);
            let cells = &mut rows[at + 1..=at + arity];
            at += 1 + arity;
            let (rule, n) = if record { prov[row] } else { (0, 0) };
            let row_parents = &parents[parent_at..parent_at + n as usize];
            parent_at += n as usize;
            row += 1;
            let name = &self.head_preds[slot];
            if let Some(msg) = kgm_runtime::fault::trip("chase.insert") {
                return Err(KgmError::Internal(format!("{msg} ({name})")));
            }
            let pred = match pred_ids[slot] {
                Some(pred) => pred,
                None => *pred_ids[slot].insert(db.relation_id(name, arity)?),
            };
            for cell in cells.iter_mut() {
                if let Some(s) = pending_slot(*cell) {
                    *cell = db.intern(&side[s])?;
                }
            }
            let Some(id) = db.insert_cells(pred, cells)? else {
                continue;
            };
            db.mark_derived(id);
            if record {
                db.record_prov(id, rule, row_parents);
            }
            inserted += 1;
        }
        Ok(inserted)
    }

    // -----------------------------------------------------------------
    // Rule evaluation
    // -----------------------------------------------------------------

    /// Evaluate one rule over `db`, appending emitted head rows to `out`.
    ///
    /// `delta` restricts one body atom to a row range; `None` is a full
    /// pass, which is the delta pass over atom 0's complete range (with
    /// nothing bound, `join_order` would pick atom 0 first anyway), and
    /// `old` the old-row counts of the atoms before the delta atom
    /// ([`passes`]). That outer scan range is split into shards: one when
    /// `threads == 1` or the range is under `min_parallel_batch`,
    /// `split_range(range, threads)` otherwise. Every shard runs the same per-match code
    /// ([`Engine::eval_shard`]):
    ///
    /// - The **one shard** runs on the calling thread with the whole step
    ///   list against the real null and aggregate tables, and emits
    ///   straight into `out`.
    /// - **Spawned workers** run only the pure step prefix
    ///   (`RuleMeta::pure_steps`) against the frozen database. The single
    ///   writer then replays their surviving bindings **in shard order** —
    ///   concatenated, exactly the one-shard enumeration order — through
    ///   the order-sensitive suffix (monotonic aggregate updates, Skolem
    ///   minting) and the head emission (labelled-null minting). A rule
    ///   with no suffix and no existentials has nothing to replay, so its
    ///   workers emit the heads themselves.
    ///
    /// An exact aggregate's rule runs as one full pass with a fresh `mono`,
    /// which its matches only contribute to. After the pass, its groups are
    /// folded in creation order, run through the post-aggregate steps and
    /// emitted with the parents of all their contributions.
    ///
    /// Output is therefore bit-identical at any thread count. Workers never
    /// touch telemetry (spans are thread-local) nor shared mutable state;
    /// errors surface in shard order, so the earliest failing match wins.
    #[allow(clippy::too_many_arguments)]
    fn eval_rule(
        &self,
        db: &FactDb,
        ri: usize,
        rule: &Rule,
        delta: Option<(usize, Range<usize>)>,
        old: &[usize],
        null_gen: &OidGen,
        nulls: &mut NullTable,
        mono: &mut MonoTable,
        out: &mut Heads,
        profile: &mut ChaseProfile,
        governor: &Governor,
    ) -> Result<()> {
        let t_rule = Instant::now();
        let emitted_before = out.len();
        let is_delta = delta.is_some();
        let (atom, range) = delta.unwrap_or_else(|| {
            let rows = rule.body.first().map_or(0, |a| db.rows_of(&a.predicate));
            (0, 0..rows)
        });
        let plan = join_plan(rule, &join_order(rule, atom), db);
        let threads = self.config.threads;
        let one_shard = threads <= 1 || range.len() < self.config.min_parallel_batch.max(1);
        let shards = if one_shard {
            vec![range]
        } else {
            kgm_runtime::par::split_range(range, threads)
        };
        let all_steps = rule.steps.len();
        let pure_end = self.meta[ri].pure_steps;
        let emit = one_shard || (pure_end == all_steps && self.meta[ri].existentials.is_empty());
        let span = (!one_shard).then(|| {
            kgm_runtime::span_debug!("chase.shard_eval", "rule {ri}: {} shard(s)", shards.len())
        });
        let results: Vec<Result<ShardOut>> = if one_shard {
            // The shard emits straight into `out`, which moves into its head
            // buffer and back: never copied, no survivors buffered.
            let mut so = ShardOut {
                heads: std::mem::take(out),
                ..ShardOut::default()
            };
            let r = self.eval_shard(
                db, ri, rule, &plan, &shards[0], old, all_steps, true, null_gen, nulls, mono,
                &mut so, governor,
            );
            *out = std::mem::take(&mut so.heads);
            vec![r.map(|()| so)]
        } else {
            kgm_runtime::par::par_map(&shards, shards.len(), |r| {
                // A panicking worker must not abort the whole process via
                // `map_shards`' join: catch it here and surface a structured
                // error carrying the rule id instead. The chase state is
                // safe to keep — workers only read the frozen database.
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if kgm_runtime::fault::should_inject("chase.shard") {
                        panic!("injected fault at chase.shard");
                    }
                    let mut so = ShardOut::default();
                    // The pure prefix stops before any aggregate step, and
                    // an emitting worker's rule mints no nulls: both tables
                    // stay empty.
                    self.eval_shard(
                        db,
                        ri,
                        rule,
                        &plan,
                        r,
                        old,
                        pure_end,
                        emit,
                        null_gen,
                        &mut NullTable::default(),
                        &mut MonoTable::default(),
                        &mut so,
                        governor,
                    )?;
                    Ok(so)
                }))
                .unwrap_or_else(|payload| {
                    Err(KgmError::Internal(format!(
                        "chase shard worker panicked evaluating rule {ri}: {}",
                        panic_message(&*payload)
                    )))
                })
            })
        };
        let mut enumerated = 0usize;
        let mut candidates = 0usize;
        let stride = rule.var_names.len();
        let parent_stride = if self.config.provenance {
            rule.body.len()
        } else {
            0
        };
        let mut binding = vec![NO_CELL; stride];
        let (mut parents, mut assigned) = (Vec::new(), Vec::new());
        for res in results {
            let so = res?;
            enumerated += so.enumerated;
            candidates += so.survived;
            // Shard-order concatenation of emitted heads *is* the one-shard
            // emission order.
            out.append(so.heads);
            if emit {
                continue;
            }
            let mut scope = Scope::new(db.pool(), &so.side);
            for i in 0..so.survived {
                binding.copy_from_slice(&so.survivors[i * stride..][..stride]);
                parents.clear();
                parents.extend_from_slice(&so.parents[i * parent_stride..][..parent_stride]);
                scope.locals.clear();
                let keep = self.run_steps(
                    db,
                    ri,
                    rule,
                    pure_end..all_steps,
                    &mut scope,
                    &mut binding,
                    &mut assigned,
                    mono,
                    &mut parents,
                )?;
                assigned.clear();
                if keep {
                    self.emit_heads(
                        ri,
                        rule,
                        &scope,
                        &mut binding,
                        null_gen,
                        nulls,
                        out,
                        &parents,
                    )?;
                }
            }
        }
        if self.meta[ri].agg_mode == Some(AggMode::Exact) {
            let agg = rule.aggregate().expect("exact aggregate rule");
            let after = self.meta[ri].agg_step.expect("exact aggregate rule") + 1;
            let group_vars = &self.meta[ri].group_vars;
            let mut scope = Scope::new(db.pool(), &[]);
            for (key, value, contributors, parents) in mono.groups_in_order(group_vars.len()) {
                binding.fill(NO_CELL);
                scope.locals.clear();
                for (v, val) in group_vars.iter().zip(key) {
                    binding[v.0 as usize] = scope.cell(val);
                }
                let target = match agg.func {
                    AggregateFunc::Avg => crate::eval::bin(
                        crate::ast::BinOp::Div,
                        value,
                        &Value::Int(contributors as i64),
                    )?,
                    _ => value.clone(),
                };
                binding[agg.target.0 as usize] = scope.cell(target);
                let keep = self.run_steps(
                    db,
                    ri,
                    rule,
                    after..all_steps,
                    &mut scope,
                    &mut binding,
                    &mut assigned,
                    &mut MonoTable::default(),
                    &mut Vec::new(),
                )?;
                assigned.clear();
                if keep {
                    self.emit_heads(
                        ri,
                        rule,
                        &scope,
                        &mut binding,
                        null_gen,
                        nulls,
                        out,
                        parents,
                    )?;
                }
            }
        }
        if let Some(span) = span {
            profile.shards_spawned += shards.len();
            profile.worker_candidates += candidates;
            if span.is_active() {
                telemetry::record("shards", shards.len() as i64);
                telemetry::record("candidates", candidates as i64);
            }
        }
        let prof = &mut profile.rules[ri];
        prof.evaluations += 1;
        if is_delta {
            prof.delta_evaluations += 1;
        }
        prof.bindings_enumerated += enumerated;
        prof.facts_emitted += out.len() - emitted_before;
        prof.elapsed_ms += t_rule.elapsed().as_secs_f64() * 1e3;
        Ok(())
    }

    /// One shard of [`Engine::eval_rule`]: join over `range` of the
    /// outermost atom (`plan[0]`), then run steps
    /// `0..steps_end` on every match. A surviving match emits its heads
    /// into `so.heads` when `emit` is set, and is otherwise appended to
    /// `so.survivors` for the writer, its pending values to `so.side`.
    #[allow(clippy::too_many_arguments)]
    fn eval_shard(
        &self,
        db: &FactDb,
        ri: usize,
        rule: &Rule,
        plan: &[Level],
        range: &Range<usize>,
        old: &[usize],
        steps_end: usize,
        emit: bool,
        null_gen: &OidGen,
        nulls: &mut NullTable,
        mono: &mut MonoTable,
        so: &mut ShardOut,
        governor: &Governor,
    ) -> Result<()> {
        let prov = self.config.provenance;
        let mut binding = vec![NO_CELL; rule.var_names.len()];
        let mut trail: Vec<FactId> = Vec::new();
        let mut scope = Scope::new(db.pool(), &[]);
        let (mut parents, mut assigned) = (Vec::new(), Vec::new());
        self.join(
            plan,
            db.pool().classes(),
            Some(range.clone()),
            old,
            &mut binding,
            &mut trail,
            governor,
            &mut |binding, trail| {
                so.enumerated += 1;
                // Reorder the join-order trail to body-atom order: parent ids
                // must not depend on which atom carried the delta.
                parents.clear();
                if prov {
                    parents.resize(trail.len(), 0);
                    for (level, &id) in plan.iter().zip(trail) {
                        parents[level.index] = id;
                    }
                }
                // Variables assigned by steps are undone before returning so
                // sibling matches start clean.
                scope.locals.clear();
                let keep = self.run_steps(
                    db,
                    ri,
                    rule,
                    0..steps_end,
                    &mut scope,
                    binding,
                    &mut assigned,
                    mono,
                    &mut parents,
                );
                let result = match keep {
                    Ok(true) => {
                        so.survived += 1;
                        if emit {
                            self.emit_heads(
                                ri,
                                rule,
                                &scope,
                                binding,
                                null_gen,
                                nulls,
                                &mut so.heads,
                                &parents,
                            )
                        } else {
                            for &cell in binding.iter() {
                                so.survivors.push(scope.export(cell, &mut so.side));
                            }
                            so.parents.extend_from_slice(&parents);
                            Ok(())
                        }
                    }
                    other => other.map(drop),
                };
                for v in assigned.drain(..) {
                    binding[v.0 as usize] = NO_CELL;
                }
                result
            },
        )
    }

    /// Join the atoms of `plan` (a join order, [`join_plan`]), invoking
    /// `on_match` on full matches. Starting the order at the delta atom is
    /// what makes the semi-naive evaluation actually incremental: all other
    /// atoms then join through bound variables instead of rescanning their
    /// relations. The first atom reads `first`; any other body atom `j`
    /// reads rows `0..old[j]` if `old` has that entry, else all its rows.
    ///
    /// `binding` holds one cell per rule variable, [`NO_CELL`] while
    /// unbound; the join binds the exact cells it reads from the columns and
    /// keys its index probes by their class cells.
    ///
    /// With provenance on, `trail` carries the [`FactId`] of each matched
    /// atom along the descent (join order — one id per level entered),
    /// handed to `on_match` alongside the binding; it stays empty
    /// otherwise.
    #[allow(clippy::too_many_arguments)]
    fn join(
        &self,
        plan: &[Level],
        classes: Classes,
        first: Option<Range<usize>>,
        old: &[usize],
        binding: &mut [u64],
        trail: &mut Vec<FactId>,
        governor: &Governor,
        on_match: &mut OnMatch,
    ) -> Result<()> {
        if governor.interrupted() {
            // Unwind out of the binding loops with the sentinel; `run`
            // translates it into a graceful stop (or a proper strict error).
            return Err(interrupt_sentinel());
        }
        let Some((level, rest)) = plan.split_first() else {
            return on_match(binding, trail);
        };
        let Some(rel) = level.rel else {
            return Ok(());
        };
        if rel.arity != level.atom.terms.len() {
            return Err(KgmError::Schema(format!(
                "atom `{}` has arity {}, relation has {}",
                level.atom.predicate,
                level.atom.terms.len(),
                rel.arity
            )));
        }
        // Key positions hold class cells. A constant the pool never
        // interned cannot appear in any stored tuple, so it ends this
        // branch of the join immediately.
        let mut small = [0u64; 8];
        let mut large = Vec::new();
        let key: &mut [u64] = match small.get_mut(..level.key.len()) {
            Some(key) => key,
            None => {
                large.resize(level.key.len(), 0);
                &mut large
            }
        };
        for (k, part) in key.iter_mut().zip(&level.key) {
            *k = match *part {
                KeyCell::Const(Some(class)) => class,
                KeyCell::Const(None) => return Ok(()),
                KeyCell::Var(v) => classes.of(binding[v]),
            };
        }
        let range =
            first.unwrap_or_else(|| 0..old.get(level.index).copied().unwrap_or_else(|| rel.rows()));
        for ci in rel.lookup(&level.positions, key, &range, classes) {
            let row = ci as usize;
            // Key positions are already filtered by `lookup`; only variables
            // repeated *within* this atom still need an equality check, on
            // class cells so cross-numeric equality applies.
            for &(i, v) in &level.binds {
                binding[v] = rel.id_at(row, i);
            }
            let same =
                |&(i, v): &(usize, usize)| classes.of(binding[v]) == classes.of(rel.id_at(row, i));
            if !level.checks.iter().all(same) {
                continue;
            }
            if self.config.provenance {
                trail.push(fact_id(rel.pred_id, ci));
            }
            self.join(rest, classes, None, old, binding, trail, governor, on_match)?;
            if self.config.provenance {
                trail.pop();
            }
        }
        for &(_, v) in &level.binds {
            binding[v] = NO_CELL;
        }
        Ok(())
    }

    /// Run the rule steps in `range` against `binding`, pushing every
    /// variable it binds onto `assigned` (the caller undoes them when the
    /// binding is reused across matches). Returns `Ok(false)` when a
    /// condition, negation, or idempotent aggregate update filtered the
    /// match out. Steps read their values through `scope`, and a value a
    /// step computes is bound as an OID's cell or as a pending cell
    /// ([`Scope::cell`]).
    ///
    /// `edge_parents` is the provenance in/out slot: callers initialize it
    /// with the match's own body-atom parent ids; a monotonic-aggregate
    /// step that fires replaces it with the accumulated parents of *every*
    /// contributing match, since the emitted value depends on all of them.
    /// Untouched (and expected empty) when provenance is off.
    #[allow(clippy::too_many_arguments, clippy::ptr_arg)]
    fn run_steps(
        &self,
        db: &FactDb,
        ri: usize,
        rule: &Rule,
        range: Range<usize>,
        scope: &mut Scope,
        binding: &mut [u64],
        assigned: &mut Vec<Var>,
        mono: &mut MonoTable,
        edge_parents: &mut Vec<FactId>,
    ) -> Result<bool> {
        let ctx = EvalCtx {
            skolems: &self.skolems,
        };
        for step in &rule.steps[range] {
            let read = |v: Var| scope.value(binding[v.0 as usize]);
            match step {
                RuleStep::Condition(e) => match eval(e, &read, &ctx)? {
                    Value::Bool(true) => {}
                    Value::Bool(false) => return Ok(false),
                    other => {
                        return Err(KgmError::Type(format!(
                            "condition evaluated to non-bool {other:?}"
                        )))
                    }
                },
                RuleStep::Assign(v, e) => {
                    let val = eval(e, &read, &ctx)?;
                    binding[v.0 as usize] = scope.cell(val);
                    assigned.push(*v);
                }
                RuleStep::Negated(a) => {
                    let tuple: Vec<Value> = a
                        .terms
                        .iter()
                        .map(|t| match t {
                            Term::Const(v) => v.clone(),
                            Term::Var(v) => read(*v).expect("safety-checked bound"),
                        })
                        .collect();
                    if db.contains(&a.predicate, &tuple) {
                        return Ok(false);
                    }
                }
                RuleStep::Aggregate(agg) => {
                    let meta = &self.meta[ri];
                    let (func, fire) = match meta.agg_mode {
                        Some(AggMode::Monotonic(f)) => (f, true),
                        _ => (agg.func, false),
                    };
                    let val = match &agg.arg {
                        Some(e) => eval(e, &read, &ctx)?,
                        None => Value::Int(1),
                    };
                    let prov = self.config.provenance.then_some(&mut *edge_parents);
                    let Some(updated) = mono.contribute(
                        ri,
                        func,
                        &meta.group_vars,
                        &meta.contributors,
                        &|v| read(v).expect("aggregate key bound"),
                        &val,
                        fire,
                        prov,
                    )?
                    else {
                        // Already counted, the aggregate did not move, or
                        // an exact aggregate's match, whose group
                        // `eval_rule` emits after the pass.
                        return Ok(false);
                    };
                    binding[agg.target.0 as usize] = scope.cell(updated);
                    assigned.push(agg.target);
                }
            }
        }
        Ok(true)
    }

    /// Emit the rule's head rows for one surviving binding into `out`,
    /// moving the values of pending cells to its side list. With
    /// provenance on, each emitted row gets a matching `(rule, parents)`
    /// entry (all heads of one firing share the parents).
    #[allow(clippy::too_many_arguments)]
    fn emit_heads(
        &self,
        ri: usize,
        rule: &Rule,
        scope: &Scope,
        binding: &mut [u64],
        null_gen: &OidGen,
        nulls: &mut NullTable,
        out: &mut Heads,
        parents: &[FactId],
    ) -> Result<()> {
        // Mint (or reuse) labelled nulls for the rule's existentials, keyed
        // by the frontier values (Skolem chase), and bind them for the
        // heads.
        let meta = &self.meta[ri];
        if !meta.existentials.is_empty() {
            let frontier: Vec<Value> = meta
                .frontier
                .iter()
                .map(|v| scope.value(binding[v.0 as usize]).expect("frontier bound"))
                .collect();
            for &v in &meta.existentials {
                let oid = Value::Oid(nulls.get_or_mint(ri, v, &frontier, null_gen));
                binding[v.0 as usize] = scope.pool.exact(&oid).expect("an OID is its own cell");
            }
        }
        for (h, &slot) in rule.head.iter().zip(&meta.head_slots) {
            out.rows.push(head_header(slot, h.terms.len()));
            for t in &h.terms {
                let cell = match t {
                    Term::Const(v) => scope.pool.exact(v).unwrap_or_else(|| {
                        out.side.push(v.clone());
                        pending_cell(out.side.len() - 1)
                    }),
                    Term::Var(v) => scope.export(binding[v.0 as usize], &mut out.side),
                };
                out.rows.push(cell);
            }
            out.len += 1;
            if self.config.provenance {
                out.prov.push((ri as u32, parents.len() as u32));
                out.parents.extend_from_slice(parents);
            }
        }
        for &v in &meta.existentials {
            binding[v.0 as usize] = NO_CELL;
        }
        Ok(())
    }
}

/// The join plan of `order` over `rule`'s body: one [`Level`] per atom,
/// with the relation it reads in `db` and the class cells of its
/// constants. A key position is a constant or a variable an earlier atom
/// bound — the key [`static_index_needs`] builds indexes for.
fn join_plan<'a>(rule: &'a Rule, order: &[usize], db: &'a FactDb) -> Vec<Level<'a>> {
    let mut bound = vec![false; rule.var_names.len()];
    order
        .iter()
        .map(|&index| {
            let atom = &rule.body[index];
            let mut level = Level {
                index,
                atom,
                rel: db.rel(&atom.predicate),
                positions: Vec::new(),
                key: Vec::new(),
                binds: Vec::new(),
                checks: Vec::new(),
            };
            for (i, t) in atom.terms.iter().enumerate() {
                let part = match t {
                    Term::Const(v) => KeyCell::Const(db.pool().lookup(v)),
                    Term::Var(v) if bound[v.0 as usize] => KeyCell::Var(v.0 as usize),
                    Term::Var(v) => {
                        let v = v.0 as usize;
                        if level.binds.iter().any(|&(_, w)| w == v) {
                            level.checks.push((i, v));
                        } else {
                            level.binds.push((i, v));
                        }
                        continue;
                    }
                };
                level.positions.push(i);
                level.key.push(part);
            }
            for &(_, v) in &level.binds {
                bound[v] = true;
            }
            level
        })
        .collect()
}

/// Choose the atom evaluation order: the outermost (delta) atom first, then
/// greedily the atom sharing the most already-bound variables (ties by
/// written order). Constants count as bound. An empty body has an empty
/// order.
fn join_order(rule: &Rule, first: usize) -> Vec<usize> {
    let mut order: Vec<usize> = Vec::with_capacity(rule.body.len());
    let mut remaining: Vec<usize> = (0..rule.body.len()).filter(|&x| x != first).collect();
    let mut bound: FxHashSet<Var> = FxHashSet::default();
    if let Some(atom) = rule.body.get(first) {
        order.push(first);
        bound.extend(atom.vars());
    }
    while !remaining.is_empty() {
        let (pick_pos, &pick) = remaining
            .iter()
            .enumerate()
            .max_by_key(|(i, &a)| {
                let shared = rule.body[a].vars().filter(|v| bound.contains(v)).count();
                // Prefer more shared vars; tie-break towards written order
                // (earlier atoms win, hence the negated index).
                (shared, usize::MAX - *i)
            })
            .expect("non-empty");
        order.push(pick);
        remaining.remove(pick_pos);
        bound.extend(rule.body[pick].vars());
    }
    order
}

/// True if evaluating `e` could mint a Skolem OID (and must therefore run
/// on the writer, in deterministic match order).
fn expr_has_skolem(e: &Expr) -> bool {
    match e {
        Expr::Skolem(_, _) => true,
        Expr::Const(_) | Expr::Var(_) => false,
        Expr::Not(a) => expr_has_skolem(a),
        Expr::Bin(_, a, b) => expr_has_skolem(a) || expr_has_skolem(b),
        Expr::Call(_, args) => args.iter().any(expr_has_skolem),
    }
}

/// Statically enumerate the `(predicate, key positions)` pairs each join
/// order of `rule` probes: one list per delta order (`join_order(rule,
/// ai)` for body atom `ai`; a full pass uses atom 0's, so an empty body
/// gets one empty list). At atom `p` of an order, the index key is the
/// constant positions plus the positions of variables bound by atoms
/// earlier in the order — repeated variables *within* an atom do not
/// contribute (the runtime key is built before the tuple extends the
/// binding), matching [`Engine::join`] exactly.
fn static_index_needs(rule: &Rule) -> Vec<Vec<(String, Vec<usize>)>> {
    let order_needs = |order: Vec<usize>| {
        let mut needs: Vec<(String, Vec<usize>)> = Vec::new();
        let mut bound: FxHashSet<Var> = FxHashSet::default();
        for idx in order {
            let atom = &rule.body[idx];
            let mut positions: Vec<usize> = Vec::new();
            for (i, t) in atom.terms.iter().enumerate() {
                match t {
                    Term::Const(_) => positions.push(i),
                    Term::Var(v) => {
                        if bound.contains(v) {
                            positions.push(i);
                        }
                    }
                }
            }
            let need = (atom.predicate.clone(), positions);
            if !need.1.is_empty() && !needs.contains(&need) {
                needs.push(need);
            }
            bound.extend(atom.vars());
        }
        needs
    };
    (0..rule.body.len().max(1))
        .map(|ai| order_needs(join_order(rule, ai)))
        .collect()
}

/// One evaluation of a rule within a fixpoint iteration: a full pass
/// (`None`, in atom 0's join order) or a delta pass over the rows one body
/// atom gained (`Some((atom, rows))`, in that atom's join order), with the
/// old-row counts of the body atoms before that atom.
type Pass = (Option<(usize, Range<usize>)>, Vec<usize>);

/// The passes one semi-naive iteration evaluates for `rule`: the first
/// iteration of a from-scratch stratum runs one full pass; every other
/// iteration runs one delta pass per body atom `ai` whose predicate grew
/// past its watermark, which reads the atoms before `ai` in their old rows
/// (`0..watermark`) only and skips when one has none. A match whose new
/// facts sit at the atoms in `S` is found once, in the pass of `min(S)`,
/// the first pass that would find it if every other atom were read in
/// full: the order of first derivations, and every output with it, is
/// that of reading them in full. The writer plans each iteration with this
/// once, builds the indexes of exactly these passes, then evaluates them.
fn passes(
    rule: &Rule,
    db: &FactDb,
    first: bool,
    watermark: &FxHashMap<String, usize>,
) -> Vec<Pass> {
    if first {
        return vec![(None, Vec::new())];
    }
    let (mut out, mut old) = (Vec::new(), Vec::new());
    for (ai, atom) in rule.body.iter().enumerate() {
        let prev = watermark.get(&atom.predicate).copied().unwrap_or(0);
        let cur = db.rows_of(&atom.predicate);
        if cur > prev {
            out.push((Some((ai, prev..cur)), old.clone()));
        }
        if prev == 0 {
            break; // every later pass reads this atom in its old rows only
        }
        old.push(prev);
    }
    out
}

pub(crate) fn initial_value(func: AggregateFunc) -> Value {
    match func {
        AggregateFunc::Sum | AggregateFunc::MSum | AggregateFunc::Avg => Value::Int(0),
        AggregateFunc::Count | AggregateFunc::MCount => Value::Int(0),
        AggregateFunc::Prod | AggregateFunc::MProd => Value::Int(1),
        AggregateFunc::Min | AggregateFunc::MMin => Value::Float(f64::MAX),
        AggregateFunc::Max | AggregateFunc::MMax => Value::Float(f64::MIN),
    }
}

pub(crate) fn combine(func: AggregateFunc, acc: &Value, v: &Value) -> Result<Value> {
    use crate::ast::BinOp;
    use crate::eval::bin;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn run(src: &str, inputs: &[(&str, Vec<Vec<Value>>)]) -> FactDb {
        let engine = Engine::new(parse_program(src).unwrap()).unwrap();
        let (db, _) = engine.run_with_facts(inputs).unwrap();
        db
    }

    fn ints(rows: &[&[i64]]) -> Vec<Vec<Value>> {
        rows.iter()
            .map(|r| r.iter().map(|&i| Value::Int(i)).collect())
            .collect()
    }

    // Storage-level lookup/index/iterator tests live in `crate::factdb`
    // next to the columnar implementation they exercise.

    #[test]
    fn transitive_closure() {
        let db = run(
            "edge(X,Y) -> path(X,Y). path(X,Y), edge(Y,Z) -> path(X,Z).",
            &[("edge", ints(&[&[1, 2], &[2, 3], &[3, 4]]))],
        );
        assert_eq!(db.len("path"), 6); // 12 13 14 23 24 34
        assert!(db.contains("path", &[Value::Int(1), Value::Int(4)]));
        assert!(!db.contains("path", &[Value::Int(4), Value::Int(1)]));
    }

    #[test]
    fn transitive_closure_with_cycle_terminates() {
        let db = run(
            "edge(X,Y) -> path(X,Y). path(X,Y), edge(Y,Z) -> path(X,Z).",
            &[("edge", ints(&[&[1, 2], &[2, 1]]))],
        );
        assert_eq!(db.len("path"), 4); // 11 12 21 22
    }

    #[test]
    fn facts_in_program_text() {
        let db = run("p(1). p(2). p(X) -> q(X).", &[]);
        assert_eq!(db.len("q"), 2);
    }

    #[test]
    fn conditions_filter() {
        let db = run(
            "n(X), X > 2 -> big(X).",
            &[("n", ints(&[&[1], &[2], &[3], &[4]]))],
        );
        assert_eq!(db.len("big"), 2);
    }

    #[test]
    fn assignments_compute() {
        let db = run("n(X), Y = X * X + 1 -> sq(X, Y).", &[("n", ints(&[&[3]]))]);
        assert_eq!(db.facts("sq"), vec![vec![Value::Int(3), Value::Int(10)]]);
    }

    #[test]
    fn stratified_negation() {
        let db = run(
            "a(X) -> b(X).
             c(X), not b(X) -> only_c(X).",
            &[("a", ints(&[&[1]])), ("c", ints(&[&[1], &[2]]))],
        );
        assert_eq!(db.facts("only_c"), vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn existential_creates_reusable_null() {
        let engine =
            Engine::new(parse_program("b(X) -> c(X, N). b(X) -> d(X, N).").unwrap()).unwrap();
        let (db, stats) = engine
            .run_with_facts(&[("b", ints(&[&[1], &[2]]))])
            .unwrap();
        assert_eq!(db.len("c"), 2);
        assert_eq!(db.len("d"), 2);
        // Each rule/var/frontier gets its own null: 2 facts × 2 rules.
        assert_eq!(stats.nulls_created, 4);
        let c = db.facts("c");
        assert!(c.iter().all(|t| t[1].is_labelled_null()));
        // Re-running derivations does not mint more nulls (Skolem chase):
        // the fixpoint already reached stability, so nulls == 4 not more.
    }

    #[test]
    fn skolem_chase_does_not_loop_on_guarded_recursion() {
        // person(X) -> parent(X, Y). parent(X, Y) -> person(Y).
        // The restricted chase would terminate; the Skolem chase generates a
        // chain — the fact cap must stop it, proving the cap works.
        let engine = Engine::with_config(
            parse_program("person(X) -> parent(X, Y). parent(X, Y) -> person(Y).").unwrap(),
            EngineConfig {
                max_facts: 1000,
                strict: true,
                ..Default::default()
            },
        )
        .unwrap();
        let err = engine
            .run_with_facts(&[("person", ints(&[&[1]]))])
            .unwrap_err();
        assert!(matches!(err, KgmError::ResourceExhausted(_)));
        // Graceful mode (the default) keeps the partial database instead.
        let engine = Engine::with_config(
            parse_program("person(X) -> parent(X, Y). parent(X, Y) -> person(Y).").unwrap(),
            EngineConfig {
                max_facts: 1000,
                ..Default::default()
            },
        )
        .unwrap();
        let (db, stats) = engine.run_with_facts(&[("person", ints(&[&[1]]))]).unwrap();
        assert_eq!(stats.termination, Termination::FactCap);
        assert!(db.total_facts() > 1000, "the crossing batch is kept");
    }

    #[test]
    fn exact_count_aggregate() {
        let db = run(
            "holds(P, S), N = count(<P>) -> stakeholders(S, N).",
            &[("holds", ints(&[&[1, 10], &[2, 10], &[3, 10], &[1, 20]]))],
        );
        let mut facts = db.facts("stakeholders");
        facts.sort_by(|a, b| a[0].total_cmp(&b[0]));
        assert_eq!(
            facts,
            vec![
                vec![Value::Int(10), Value::Int(3)],
                vec![Value::Int(20), Value::Int(1)],
            ]
        );
    }

    #[test]
    fn exact_sum_with_duplicate_contributors_counts_once() {
        // Two `holds` rows with the same contributor key P share one
        // contribution (first wins), like the paper's sum over ⟨z⟩.
        let engine =
            Engine::new(parse_program("holds(P, S, W), V = sum(W, <P>) -> total(S, V).").unwrap())
                .unwrap();
        let (db, _) = engine
            .run_with_facts(&[(
                "holds",
                vec![
                    vec![Value::Int(1), Value::Int(10), Value::Float(0.4)],
                    vec![Value::Int(1), Value::Int(10), Value::Float(0.4)],
                    vec![Value::Int(2), Value::Int(10), Value::Float(0.3)],
                ],
            )])
            .unwrap();
        let facts = db.facts("total");
        assert_eq!(facts.len(), 1);
        assert_eq!(facts[0][1], Value::Float(0.7));
    }

    #[test]
    fn company_control_example_4_2() {
        // The running example of the paper. Ownership:
        //   a owns 60% of b; a owns 30% of c; b owns 30% of c.
        // a controls b directly; a controls c jointly through b (30+30 > 50).
        let src = r#"
            company(X) -> controls(X, X).
            controls(X, Z), own(Z, Y, W), V = msum(W, <Z>), V > 0.5
                -> controls(X, Y).
            "#;
        let companies = ints(&[&[1], &[2], &[3]]);
        let own = vec![
            vec![Value::Int(1), Value::Int(2), Value::Float(0.6)],
            vec![Value::Int(1), Value::Int(3), Value::Float(0.3)],
            vec![Value::Int(2), Value::Int(3), Value::Float(0.3)],
        ];
        let db = run(src, &[("company", companies), ("own", own)]);
        let controls: FxHashSet<(i64, i64)> = db
            .facts("controls")
            .into_iter()
            .map(|t| (t[0].as_i64().unwrap(), t[1].as_i64().unwrap()))
            .collect();
        assert!(controls.contains(&(1, 2)), "direct majority");
        assert!(controls.contains(&(1, 3)), "joint control via subsidiary");
        assert!(!controls.contains(&(2, 3)), "b alone holds only 30%");
        assert!(!controls.contains(&(3, 2)));
    }

    #[test]
    fn control_does_not_double_count_same_contributor() {
        // x controls z; z owns 30% of y via two ownership facts with the
        // same contributor z — only one contribution may count, so no
        // control edge.
        let src = r#"
            company(X) -> controls(X, X).
            controls(X, Z), own(Z, Y, W), V = msum(W, <Z>), V > 0.5
                -> controls(X, Y).
            "#;
        let db = run(
            src,
            &[
                ("company", ints(&[&[1], &[2]])),
                (
                    "own",
                    vec![
                        vec![Value::Int(1), Value::Int(2), Value::Float(0.3)],
                        // duplicate fact is deduped at the fact level anyway;
                        // a *different* weight with same contributor must not
                        // stack either:
                        vec![Value::Int(1), Value::Int(2), Value::Float(0.25)],
                    ],
                ),
            ],
        );
        let controls: FxHashSet<(i64, i64)> = db
            .facts("controls")
            .into_iter()
            .map(|t| (t[0].as_i64().unwrap(), t[1].as_i64().unwrap()))
            .collect();
        assert!(
            !controls.contains(&(1, 2)),
            "two facts for the same (owner, owned) pair must contribute once"
        );
    }

    /// Monotonic-aggregate keys compare by `Value` equality: a group and a
    /// contributor reached once as `Int(1)`/`Int(7)` and once as
    /// `Float(1.0)`/`Float(7.0)` are one group and one contributor, counted
    /// once, at any thread count and as in the naive oracle.
    #[test]
    fn monotonic_aggregate_keys_follow_value_equality() {
        let src = r#"
            start(X) -> reach(X).
            reach(X), link(X, Y, C, W), T = msum(W, <C>) -> total(Y, T).
            total(Y, T), T > 0.5 -> reach(Y).
        "#;
        let (int, float) = (Value::Int, Value::Float);
        let inputs = vec![
            ("start", vec![vec![int(0)]]),
            (
                "link",
                vec![
                    vec![int(0), int(1), int(7), float(0.3)],
                    // Group 1 and contributor 7 again, as floats: already
                    // counted, so 0.4 never joins the sum.
                    vec![int(0), float(1.0), float(7.0), float(0.4)],
                    // A second contributor tips group 1 over the majority.
                    vec![int(0), int(1), int(9), float(0.3)],
                    vec![float(1.0), int(2), int(8), float(0.6)],
                ],
            ),
        ];
        let exact = |db: &FactDb| -> Vec<(String, Vec<String>)> {
            db.predicates()
                .into_iter()
                .flat_map(|p| {
                    db.facts_iter(&p)
                        .map(|t| (p.clone(), t.iter().map(Value::to_text).collect()))
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        let (mut db, _) = run_with_threads(src, &inputs, 1);
        let state = db.take_chase_state().expect("a run persists its state");
        assert_eq!(state.mono.groups(), 2, "Y = 1 and Y = 2");
        assert_eq!(
            state.mono.contributors(),
            3,
            "7 (once) and 9 in group 1, 8 in group 2"
        );
        let totals: Vec<(f64, f64)> = db
            .facts_iter("total")
            .map(|t| (t[0].as_f64().unwrap(), t[1].as_f64().unwrap()))
            .collect();
        assert_eq!(totals, vec![(1.0, 0.3), (1.0, 0.6), (2.0, 0.6)]);
        assert!(db.contains("reach", &[Value::Int(2)]));
        let (sharded, _) = run_with_threads(src, &inputs, 4);
        assert_eq!(exact(&db), exact(&sharded), "1 vs 4 threads");
        let oracle = crate::oracle::naive_chase_with(
            &parse_program(src).unwrap(),
            &inputs,
            &crate::oracle::OracleConfig::default(),
        )
        .unwrap();
        assert_eq!(crate::oracle::canonical_diff_oracle(&oracle, &db), None);
    }

    #[test]
    fn multi_head_rules_emit_all_heads() {
        let db = run("a(X) -> b(X), c(X, X).", &[("a", ints(&[&[5]]))]);
        assert_eq!(db.len("b"), 1);
        assert_eq!(db.facts("c"), vec![vec![Value::Int(5), Value::Int(5)]]);
    }

    #[test]
    fn skolem_links_across_rules() {
        // Two rules using the same linker functor on the same argument must
        // produce the same OID (Section 4: deterministic linker functors).
        let src = r#"
            a(X), N = skolem("skN", X) -> left(X, N).
            a(X), N = skolem("skN", X) -> right(X, N).
            "#;
        let db = run(src, &[("a", ints(&[&[7]]))]);
        let l = db.facts("left")[0][1].clone();
        let r = db.facts("right")[0][1].clone();
        assert_eq!(l, r);
        assert!(matches!(l, Value::Oid(o) if o.space() == OidSpace::Skolem));
    }

    #[test]
    fn non_warded_program_is_refused() {
        let p = parse_program(
            "p(X) -> q(X, N).
             q(X, N), q(Y, N) -> r(N).",
        )
        .unwrap();
        assert!(matches!(Engine::new(p), Err(KgmError::Analysis(_))));
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let engine = Engine::new(parse_program("p(X, Y) -> q(X).").unwrap()).unwrap();
        let err = engine.run_with_facts(&[("p", ints(&[&[1]]))]).unwrap_err();
        assert!(matches!(err, KgmError::Schema(_)));
    }

    #[test]
    fn repeated_variable_in_atom_filters() {
        let db = run(
            "e(X, X) -> loops(X).",
            &[("e", ints(&[&[1, 1], &[1, 2], &[3, 3]]))],
        );
        assert_eq!(db.len("loops"), 2);
    }

    #[test]
    fn run_stats_are_reported() {
        let engine = Engine::new(
            parse_program("edge(X,Y) -> path(X,Y). path(X,Y), edge(Y,Z) -> path(X,Z).").unwrap(),
        )
        .unwrap();
        let (_, stats) = engine
            .run_with_facts(&[("edge", ints(&[&[1, 2], &[2, 3]]))])
            .unwrap();
        assert!(stats.iterations >= 2);
        assert_eq!(stats.derived_facts, 3);
        assert_eq!(stats.strata, 1);
    }

    #[test]
    fn exact_min_max_avg() {
        let db = run(
            "v(G, X), M = min(X, <X>) -> lo(G, M).
             v(G, X), M = max(X, <X>) -> hi(G, M).
             v(G, X), M = avg(X, <X>) -> mean(G, M).",
            &[("v", ints(&[&[1, 10], &[1, 20], &[1, 30]]))],
        );
        assert_eq!(db.facts("lo")[0][1], Value::Int(10));
        assert_eq!(db.facts("hi")[0][1], Value::Int(30));
        assert_eq!(db.facts("mean")[0][1], Value::Float(20.0));
    }

    /// Chase program mixing recursion, monotonic aggregation, existentials,
    /// and Skolem functors — every order-sensitive feature at once.
    const PARALLEL_MIX_SRC: &str = r#"
        company(X) -> controls(X, X).
        controls(X, Z), own(Z, Y, W), V = msum(W, <Z>), V > 0.5
            -> controls(X, Y).
        own(X, Y, W) -> shell(X, N).
        company(X), S = skolem("skC", X) -> tagged(X, S).
    "#;

    fn parallel_mix_inputs() -> Vec<(&'static str, Vec<Vec<Value>>)> {
        let n = 24i64;
        let companies: Vec<Vec<Value>> = (0..n).map(|i| vec![Value::Int(i)]).collect();
        let mut own = Vec::new();
        for i in 0..n - 1 {
            own.push(vec![Value::Int(i), Value::Int(i + 1), Value::Float(0.6)]);
        }
        // Joint-control diamonds: i and i+2 each hold 30% of i+5, so the
        // control edge needs two msum contributions.
        for i in 0..n - 5 {
            own.push(vec![Value::Int(i), Value::Int(i + 5), Value::Float(0.3)]);
            own.push(vec![
                Value::Int(i + 2),
                Value::Int(i + 5),
                Value::Float(0.3),
            ]);
        }
        vec![("company", companies), ("own", own)]
    }

    fn run_with_threads(
        src: &str,
        inputs: &[(&str, Vec<Vec<Value>>)],
        threads: usize,
    ) -> (FactDb, RunStats) {
        let engine = Engine::with_config(
            parse_program(src).unwrap(),
            EngineConfig {
                threads,
                min_parallel_batch: 1, // force the parallel path on tiny deltas
                ..Default::default()
            },
        )
        .unwrap();
        engine.run_with_facts(inputs).unwrap()
    }

    /// Full database image: every predicate's facts in insertion order, so
    /// the comparison covers fact *order* (and thus null/Skolem OID
    /// assignment), not just set membership.
    fn db_fingerprint(db: &FactDb) -> Vec<(String, Vec<Vec<Value>>)> {
        db.predicates()
            .into_iter()
            .map(|p| {
                let facts = db.facts(&p);
                (p, facts)
            })
            .collect()
    }

    #[test]
    fn parallel_chase_is_bit_identical_to_sequential() {
        let inputs = parallel_mix_inputs();
        let (base_db, base_stats) = run_with_threads(PARALLEL_MIX_SRC, &inputs, 1);
        assert_eq!(
            base_stats.profile.shards_spawned, 0,
            "threads=1 must never shard"
        );
        for threads in [2, 4, 7] {
            let (db, stats) = run_with_threads(PARALLEL_MIX_SRC, &inputs, threads);
            assert_eq!(
                db_fingerprint(&base_db),
                db_fingerprint(&db),
                "threads={threads}"
            );
            assert_eq!(base_stats.derived_facts, stats.derived_facts);
            assert_eq!(base_stats.nulls_created, stats.nulls_created);
            assert_eq!(base_stats.duplicates_rejected, stats.duplicates_rejected);
            assert_eq!(base_stats.iterations, stats.iterations);
        }
    }

    #[test]
    fn parallel_eval_reports_shard_counters() {
        let inputs = parallel_mix_inputs();
        let (_, stats) = run_with_threads(PARALLEL_MIX_SRC, &inputs, 4);
        assert!(stats.profile.shards_spawned > 0, "parallel run must shard");
        assert!(stats.profile.worker_candidates > 0);
        // Default config on the same input: batches below the threshold run
        // sequentially even with many threads configured.
        let engine = Engine::with_config(
            parse_program(PARALLEL_MIX_SRC).unwrap(),
            EngineConfig {
                threads: 4,
                min_parallel_batch: 1_000_000,
                ..Default::default()
            },
        )
        .unwrap();
        let (_, seq_stats) = engine.run_with_facts(&inputs).unwrap();
        assert_eq!(seq_stats.profile.shards_spawned, 0);
        assert_eq!(seq_stats.derived_facts, stats.derived_facts);
    }

    /// Run counters that must not depend on the shard count: the totals
    /// plus every rule's evaluation, binding and emission counts.
    #[allow(clippy::type_complexity)]
    fn shard_invariant_counters(
        s: &RunStats,
    ) -> (
        usize,
        usize,
        usize,
        usize,
        usize,
        Termination,
        Vec<[usize; 4]>,
    ) {
        let rules = s.profile.rules.iter().map(|r| {
            [
                r.evaluations,
                r.delta_evaluations,
                r.bindings_enumerated,
                r.facts_emitted,
            ]
        });
        (
            s.strata,
            s.iterations,
            s.derived_facts,
            s.nulls_created,
            s.duplicates_rejected,
            s.termination,
            rules.collect(),
        )
    }

    /// Run `src` as one shard (1 thread) and as spawned shards (4 threads,
    /// `min_parallel_batch: 1`), require identical facts and counters, and
    /// return the one-shard run.
    fn run_one_and_many_shards(
        src: &str,
        inputs: &[(&str, Vec<Vec<Value>>)],
    ) -> (FactDb, RunStats) {
        let (db1, s1) = run_with_threads(src, inputs, 1);
        let (db4, s4) = run_with_threads(src, inputs, 4);
        assert_eq!(db_fingerprint(&db1), db_fingerprint(&db4), "{src}");
        assert_eq!(
            shard_invariant_counters(&s1),
            shard_invariant_counters(&s4),
            "{src}"
        );
        (db1, s1)
    }

    #[test]
    fn empty_body_rule_fires_exactly_once() {
        // Rule 1's first delta pass over `p` is spawned at 4 threads.
        let src = "X = 1, Y = X + 1 -> p(X, Y). p(X, Y), Z = Y * 10 -> q(Z).";
        let (db, stats) = run_one_and_many_shards(src, &[]);
        assert_eq!(db.facts("p"), ints(&[&[1, 2]]));
        assert_eq!(db.facts("q"), ints(&[&[20]]));
        let rp = &stats.profile.rules[0];
        assert_eq!(
            (rp.evaluations, rp.bindings_enumerated, rp.facts_emitted),
            (1, 1, 1)
        );
    }

    #[test]
    fn delta_over_an_empty_range_fires_zero_times() {
        let mut counters = Vec::new();
        for threads in [1, 4] {
            let engine = Engine::with_config(
                parse_program(TC_SRC).unwrap(),
                EngineConfig {
                    threads,
                    min_parallel_batch: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            let (db, _) = engine
                .run_with_facts(&[("edge", ints(&[&[1, 2], &[2, 3]]))])
                .unwrap();
            let end = db.rows_of("path");
            let mut profile = ChaseProfile {
                rules: vec![RuleProfile::default(); 2],
                ..Default::default()
            };
            let mut out = Heads::default();
            engine
                .eval_rule(
                    &db,
                    1,
                    &engine.program.rules[1],
                    Some((0, end..end)),
                    &[],
                    &OidGen::new(OidSpace::Null),
                    &mut NullTable::default(),
                    &mut MonoTable::default(),
                    &mut out,
                    &mut profile,
                    &Governor::new(&engine.config, Instant::now()),
                )
                .unwrap();
            assert_eq!(out.len(), 0, "threads={threads}");
            assert_eq!(profile.shards_spawned, 0, "an empty range is one shard");
            let rp = &profile.rules[1];
            counters.push([
                rp.evaluations,
                rp.delta_evaluations,
                rp.bindings_enumerated,
                rp.facts_emitted,
            ]);
        }
        assert_eq!(counters, vec![[1, 1, 0, 0]; 2]);
    }

    #[test]
    fn a_match_over_two_new_facts_is_found_once() {
        // `p` and `q` are new in the same iteration, so every match of the
        // third rule has new facts at both body atoms: the delta pass over
        // `p` finds it, and the one over `q` reads `p` in its old rows only.
        let src = "a(X) -> p(X). b(X) -> q(X). p(X), q(X) -> r(X).";
        let values: Vec<Vec<Value>> = (0..100).map(|i| vec![Value::Int(i)]).collect();
        let inputs = [("a", values.clone()), ("b", values)];
        let (db, stats) = run_with_threads(src, &inputs, 1);
        assert_eq!(db.len("r"), 100);
        assert_eq!(stats.profile.rules[2].bindings_enumerated, 100);
        assert_eq!(stats.duplicates_rejected, 0);
        let (prov_db, _) = run_prov_with_threads(src, &inputs, 1);
        let (par_db, _) = run_with_threads(src, &inputs, 4);
        let (par_prov_db, _) = run_prov_with_threads(src, &inputs, 4);
        for other in [&prov_db, &par_db, &par_prov_db] {
            assert_eq!(db_fingerprint(other), db_fingerprint(&db));
        }
        assert_eq!(prov_fingerprint(&par_prov_db), prov_fingerprint(&prov_db));
    }

    #[test]
    fn exact_aggregate_runs_steps_around_the_aggregate() {
        // Pre-aggregate negation and assign; post-aggregate condition and
        // assign. Group 1: 9 is banned, (5+1) + (7+1) = 14. Group 2 sums
        // to 9 and fails `S > 10`. Group 3: 21.
        let src = "v(G, X), not banned(X), Y = X + 1, S = sum(Y, <X>), S > 10, \
                   T = S * 2 -> total(G, S).";
        let inputs = vec![
            (
                "v",
                ints(&[&[1, 5], &[1, 7], &[1, 9], &[2, 3], &[2, 4], &[3, 20]]),
            ),
            ("banned", ints(&[&[9]])),
        ];
        let (db, _) = run_one_and_many_shards(src, &inputs);
        assert_eq!(db.len("total"), 2);
        assert!(db.contains("total", &[Value::Int(1), Value::Int(14)]));
        assert!(db.contains("total", &[Value::Int(3), Value::Int(21)]));
    }

    #[test]
    fn exact_aggregate_shards_like_any_rule() {
        let src = "v(G, X), S = sum(X, <X>) -> total(G, S).";
        let rows: Vec<Vec<Value>> = (0..64)
            .map(|i| vec![Value::Int(i % 4), Value::Int(i)])
            .collect();
        let (db, stats) = run_with_threads(src, &[("v", rows)], 4);
        assert!(stats.profile.shards_spawned > 0);
        assert_eq!(stats.profile.rules[0].bindings_enumerated, 64);
        // Group g sums 4k + g over k = 0..16.
        let want: Vec<Vec<Value>> = (0..4)
            .map(|g| vec![Value::Int(g), Value::Int(480 + 16 * g)])
            .collect();
        assert_eq!(
            db.facts("total"),
            want,
            "one head per group, in creation order"
        );
    }

    #[test]
    fn exact_aggregate_groups_read_back_as_first_contributed() {
        // `Int(0)` shares a class with the `Float(0.0)` contributor the
        // aggregate table saw first: group 0 must still read back as `Int`.
        let db = run(
            "v(G, Z), N = count(<Z>) -> n(G, N).",
            &[(
                "v",
                vec![
                    vec![Value::Int(5), Value::Float(0.0)],
                    vec![Value::Int(0), Value::Int(7)],
                ],
            )],
        );
        let facts = db.facts("n");
        assert_eq!(facts.len(), 2);
        assert!(matches!(facts[1][0], Value::Int(0)), "{facts:?}");
    }

    #[test]
    fn non_bool_condition_is_the_same_type_error_at_any_shard_count() {
        for (src, want) in [
            ("p(X), X + 1 -> q(X).", "condition evaluated to non-bool 2"),
            (
                "p(X), S = sum(X, <X>), S + 1 -> t(S).",
                "condition evaluated to non-bool 4",
            ),
        ] {
            for threads in [1, 4] {
                let engine = Engine::with_config(
                    parse_program(src).unwrap(),
                    EngineConfig {
                        threads,
                        min_parallel_batch: 1,
                        ..Default::default()
                    },
                )
                .unwrap();
                match engine.run_with_facts(&[("p", ints(&[&[1], &[2]]))]).err() {
                    Some(KgmError::Type(msg)) => assert_eq!(msg, want, "{src} threads={threads}"),
                    other => panic!("{src} threads={threads}: want a type error, got {other:?}"),
                }
            }
        }
    }

    fn run_prov_with_threads(
        src: &str,
        inputs: &[(&str, Vec<Vec<Value>>)],
        threads: usize,
    ) -> (FactDb, RunStats) {
        let engine = Engine::with_config(
            parse_program(src).unwrap(),
            EngineConfig {
                threads,
                min_parallel_batch: 1,
                provenance: true,
                ..Default::default()
            },
        )
        .unwrap();
        engine.run_with_facts(inputs).unwrap()
    }

    /// Value-level image of every provenance edge: `(fact, rule, parent
    /// facts)` for each derived fact, in insertion order per predicate —
    /// id-free, so it compares across independently built databases.
    fn prov_fingerprint(db: &FactDb) -> Vec<(String, Vec<Value>, u32, Vec<(String, Vec<Value>)>)> {
        let mut out = Vec::new();
        for pred in db.predicates() {
            for tuple in db.facts(&pred) {
                let id = db.find_id(&pred, &tuple).unwrap();
                if let Some((rule, parents)) = db.prov_edge(id) {
                    let parent_facts = parents
                        .iter()
                        .map(|&p| {
                            let (pp, pt) = db.fact_values(p).unwrap();
                            (pp.to_string(), pt)
                        })
                        .collect();
                    out.push((pred.clone(), tuple, rule, parent_facts));
                }
            }
        }
        out
    }

    #[test]
    fn provenance_on_is_bit_identical_to_off_at_any_thread_count() {
        let inputs = parallel_mix_inputs();
        let (base_db, base_stats) = run_with_threads(PARALLEL_MIX_SRC, &inputs, 1);
        assert_eq!(
            base_stats.profile.prov_edges, 0,
            "provenance off must record nothing"
        );
        let (prov_db, prov_stats) = run_prov_with_threads(PARALLEL_MIX_SRC, &inputs, 1);
        assert_eq!(
            db_fingerprint(&base_db),
            db_fingerprint(&prov_db),
            "recording provenance must not change the facts"
        );
        assert!(prov_stats.profile.prov_edges > 0);
        assert!(prov_stats.profile.prov_parents >= prov_stats.profile.prov_edges);
        let base_prov = prov_fingerprint(&prov_db);
        assert_eq!(
            base_prov.len(),
            prov_stats.profile.prov_edges,
            "exactly one edge per derived fact"
        );
        for threads in [2, 4, 8] {
            let (db, stats) = run_prov_with_threads(PARALLEL_MIX_SRC, &inputs, threads);
            assert_eq!(
                db_fingerprint(&base_db),
                db_fingerprint(&db),
                "threads={threads}"
            );
            assert_eq!(base_prov, prov_fingerprint(&db), "threads={threads}");
            assert_eq!(stats.profile.prov_edges, prov_stats.profile.prov_edges);
            assert_eq!(stats.profile.prov_parents, prov_stats.profile.prov_parents);
        }
    }

    #[test]
    fn aggregate_provenance_snapshots_all_contributions() {
        // Example 4.2: controls(1,3) needs both 30% stakes, so its edge
        // must carry the accumulated contributor matches — including the
        // earlier firing's parents — not just the trail that tipped the
        // threshold.
        let src = r#"
            company(X) -> controls(X, X).
            controls(X, Z), own(Z, Y, W), V = msum(W, <Z>), V > 0.5
                -> controls(X, Y).
            "#;
        let inputs = vec![
            ("company", ints(&[&[1], &[2], &[3]])),
            (
                "own",
                vec![
                    vec![Value::Int(1), Value::Int(2), Value::Float(0.6)],
                    vec![Value::Int(1), Value::Int(3), Value::Float(0.3)],
                    vec![Value::Int(2), Value::Int(3), Value::Float(0.3)],
                ],
            ),
        ];
        let (db, _) = run_prov_with_threads(src, &inputs, 1);
        let joint = db
            .find_id("controls", &[Value::Int(1), Value::Int(3)])
            .expect("joint control derived");
        let (rule, parents) = db.prov_edge(joint).expect("derived fact has an edge");
        assert_eq!(rule, 1);
        let own_parents: Vec<(String, Vec<Value>)> = parents
            .iter()
            .map(|&p| {
                let (pp, pt) = db.fact_values(p).unwrap();
                (pp.to_string(), pt)
            })
            .filter(|(p, _)| p == "own")
            .collect();
        assert_eq!(own_parents.len(), 2, "{own_parents:?}");
        // EDB facts never get edges.
        let edb = db.find_id("own", &own_parents[0].1).unwrap();
        assert!(db.prov_edge(edb).is_none());
    }

    // ---- incremental updates (apply_update) ----

    const TC_SRC: &str = "edge(X,Y) -> path(X,Y). path(X,Y), edge(Y,Z) -> path(X,Z).";

    const CONTROL_SRC: &str = r#"
        company(X) -> controls(X, X).
        controls(X, Z), own(Z, Y, W), V = msum(W, <Z>), V > 0.5
            -> controls(X, Y).
        "#;

    fn update_engine(src: &str, provenance: bool) -> Engine {
        Engine::with_config(
            parse_program(src).unwrap(),
            EngineConfig {
                provenance,
                ..Default::default()
            },
        )
        .unwrap()
    }

    fn edge(a: i64, b: i64) -> (String, Vec<Value>) {
        ("edge".to_string(), vec![Value::Int(a), Value::Int(b)])
    }

    fn own(z: i64, y: i64, w: f64) -> (String, Vec<Value>) {
        (
            "own".to_string(),
            vec![Value::Int(z), Value::Int(y), Value::Float(w)],
        )
    }

    #[test]
    fn incremental_insert_extends_the_fixpoint_without_fallback() {
        let engine = update_engine(TC_SRC, false);
        let (mut db, _) = engine
            .run_with_facts(&[("edge", ints(&[&[1, 2], &[2, 3]]))])
            .unwrap();
        let stats = engine
            .apply_update(
                &mut db,
                Update {
                    inserts: vec![edge(3, 4)],
                    deletes: vec![],
                },
            )
            .unwrap();
        assert_eq!(stats.profile.update_inserted, 1);
        assert_eq!(stats.profile.update_fallbacks, 0);
        // Exactly the new suffix paths derive: (3,4), (2,4), (1,4).
        assert_eq!(stats.derived_facts, 3);
        assert!(db.contains("path", &[Value::Int(1), Value::Int(4)]));
        let (scratch, _) = engine
            .run_with_facts(&[("edge", ints(&[&[1, 2], &[2, 3], &[3, 4]]))])
            .unwrap();
        assert_eq!(crate::oracle::canonical_diff(&db, &scratch), None);
    }

    #[test]
    fn incremental_insert_tips_a_monotonic_aggregate() {
        // Example 4.2 replayed incrementally: the base run leaves a's stake
        // in c at 30%; the update adds b's 30% and the resumed accumulator
        // must fold it in (0.3 + 0.3 > 0.5) without re-reading old rows.
        let engine = update_engine(CONTROL_SRC, false);
        let (mut db, _) = engine
            .run_with_facts(&[
                ("company", ints(&[&[1], &[2], &[3]])),
                (
                    "own",
                    vec![
                        vec![Value::Int(1), Value::Int(2), Value::Float(0.6)],
                        vec![Value::Int(1), Value::Int(3), Value::Float(0.3)],
                    ],
                ),
            ])
            .unwrap();
        assert!(!db.contains("controls", &[Value::Int(1), Value::Int(3)]));
        let stats = engine
            .apply_update(
                &mut db,
                Update {
                    inserts: vec![own(2, 3, 0.3)],
                    deletes: vec![],
                },
            )
            .unwrap();
        assert_eq!(stats.profile.update_fallbacks, 0);
        assert!(
            db.contains("controls", &[Value::Int(1), Value::Int(3)]),
            "the resumed msum accumulator must fold the new stake in"
        );
    }

    #[test]
    fn dred_delete_removes_the_downward_closure() {
        let engine = update_engine(TC_SRC, true);
        let (mut db, _) = engine
            .run_with_facts(&[("edge", ints(&[&[1, 2], &[2, 3], &[3, 4]]))])
            .unwrap();
        let stats = engine
            .apply_update(
                &mut db,
                Update {
                    inserts: vec![],
                    deletes: vec![edge(3, 4)],
                },
            )
            .unwrap();
        assert_eq!(stats.profile.update_deleted, 1);
        assert_eq!(stats.profile.update_fallbacks, 0);
        // Everything supported by edge(3,4): path(3,4), path(2,4), path(1,4).
        assert_eq!(stats.profile.update_overdeleted, 3);
        assert_eq!(stats.profile.update_rederived, 0);
        let (scratch, _) = engine
            .run_with_facts(&[("edge", ints(&[&[1, 2], &[2, 3]]))])
            .unwrap();
        assert_eq!(crate::oracle::canonical_diff(&db, &scratch), None);
    }

    #[test]
    fn dred_rederives_facts_with_alternative_supports() {
        // Diamond: 1→2→4 and 1→3→4. The recorded support of path(1,4) is
        // its first derivation (via edge(2,4)), so deleting edge(2,4)
        // over-deletes it — and the re-derivation pass must bring it back
        // through the surviving 1→3→4 branch.
        let engine = update_engine(TC_SRC, true);
        let (mut db, _) = engine
            .run_with_facts(&[("edge", ints(&[&[1, 2], &[2, 4], &[1, 3], &[3, 4]]))])
            .unwrap();
        let stats = engine
            .apply_update(
                &mut db,
                Update {
                    inserts: vec![],
                    deletes: vec![edge(2, 4)],
                },
            )
            .unwrap();
        assert_eq!(stats.profile.update_fallbacks, 0);
        assert_eq!(stats.profile.update_deleted, 1);
        // Over-deleted: path(2,4) and path(1,4); only the latter comes back.
        assert_eq!(stats.profile.update_overdeleted, 2);
        assert_eq!(stats.profile.update_rederived, 1);
        assert!(db.contains("path", &[Value::Int(1), Value::Int(4)]));
        assert!(!db.contains("path", &[Value::Int(2), Value::Int(4)]));
        let (scratch, _) = engine
            .run_with_facts(&[("edge", ints(&[&[1, 2], &[1, 3], &[3, 4]]))])
            .unwrap();
        assert_eq!(crate::oracle::canonical_diff(&db, &scratch), None);
    }

    #[test]
    fn dred_delete_untips_a_monotonic_aggregate() {
        let engine = update_engine(CONTROL_SRC, true);
        let (mut db, _) = engine
            .run_with_facts(&[
                ("company", ints(&[&[1], &[2], &[3]])),
                (
                    "own",
                    vec![
                        vec![Value::Int(1), Value::Int(2), Value::Float(0.6)],
                        vec![Value::Int(1), Value::Int(3), Value::Float(0.3)],
                        vec![Value::Int(2), Value::Int(3), Value::Float(0.3)],
                    ],
                ),
            ])
            .unwrap();
        assert!(db.contains("controls", &[Value::Int(1), Value::Int(3)]));
        let stats = engine
            .apply_update(
                &mut db,
                Update {
                    inserts: vec![],
                    deletes: vec![own(2, 3, 0.3)],
                },
            )
            .unwrap();
        assert_eq!(stats.profile.update_fallbacks, 0);
        assert!(
            !db.contains("controls", &[Value::Int(1), Value::Int(3)]),
            "joint control must lapse with the withdrawn stake"
        );
        let (scratch, _) = engine
            .run_with_facts(&[
                ("company", ints(&[&[1], &[2], &[3]])),
                (
                    "own",
                    vec![
                        vec![Value::Int(1), Value::Int(2), Value::Float(0.6)],
                        vec![Value::Int(1), Value::Int(3), Value::Float(0.3)],
                    ],
                ),
            ])
            .unwrap();
        assert_eq!(crate::oracle::canonical_diff(&db, &scratch), None);
    }

    #[test]
    fn combined_insert_and_delete_matches_from_scratch() {
        let engine = update_engine(TC_SRC, true);
        let (mut db, _) = engine
            .run_with_facts(&[("edge", ints(&[&[1, 2], &[2, 3]]))])
            .unwrap();
        let stats = engine
            .apply_update(
                &mut db,
                Update {
                    inserts: vec![edge(2, 4)],
                    deletes: vec![edge(2, 3)],
                },
            )
            .unwrap();
        assert_eq!(stats.profile.update_fallbacks, 0);
        assert_eq!(stats.profile.update_inserted, 1);
        assert_eq!(stats.profile.update_deleted, 1);
        let (scratch, _) = engine
            .run_with_facts(&[("edge", ints(&[&[1, 2], &[2, 4]]))])
            .unwrap();
        assert_eq!(crate::oracle::canonical_diff(&db, &scratch), None);
    }

    #[test]
    fn delete_without_provenance_falls_back_to_rebuild() {
        let engine = update_engine(TC_SRC, false);
        let (mut db, _) = engine
            .run_with_facts(&[("edge", ints(&[&[1, 2], &[2, 3], &[3, 4]]))])
            .unwrap();
        let stats = engine
            .apply_update(
                &mut db,
                Update {
                    inserts: vec![],
                    deletes: vec![edge(3, 4)],
                },
            )
            .unwrap();
        assert_eq!(stats.profile.update_fallbacks, 1);
        // The fallback tombstones every derived row (all 6 paths).
        assert_eq!(stats.profile.update_overdeleted, 6);
        let (scratch, _) = engine
            .run_with_facts(&[("edge", ints(&[&[1, 2], &[2, 3]]))])
            .unwrap();
        assert_eq!(crate::oracle::canonical_diff(&db, &scratch), None);
    }

    #[test]
    fn negation_forces_fallback_and_stays_correct() {
        // Inserting a(2) must *retract* only_c(2): non-monotone in the
        // insert direction, so the incremental path refuses and rebuilds.
        let engine = update_engine("a(X) -> b(X). c(X), not b(X) -> only_c(X).", true);
        let (mut db, _) = engine
            .run_with_facts(&[("a", ints(&[&[1]])), ("c", ints(&[&[1], &[2]]))])
            .unwrap();
        assert_eq!(db.len("only_c"), 1);
        let stats = engine
            .apply_update(
                &mut db,
                Update {
                    inserts: vec![("a".to_string(), vec![Value::Int(2)])],
                    deletes: vec![],
                },
            )
            .unwrap();
        assert_eq!(stats.profile.update_fallbacks, 1);
        assert_eq!(db.len("only_c"), 0);
        let (scratch, _) = engine
            .run_with_facts(&[("a", ints(&[&[1], &[2]])), ("c", ints(&[&[1], &[2]]))])
            .unwrap();
        assert_eq!(crate::oracle::canonical_diff(&db, &scratch), None);
    }

    #[test]
    fn update_rejects_a_foreign_engines_database() {
        let engine = update_engine(TC_SRC, true);
        let (mut db, _) = engine
            .run_with_facts(&[("edge", ints(&[&[1, 2]]))])
            .unwrap();
        let other = update_engine(TC_SRC, true);
        let err = other
            .apply_update(
                &mut db,
                Update {
                    inserts: vec![edge(2, 3)],
                    deletes: vec![],
                },
            )
            .unwrap_err();
        assert!(matches!(err, KgmError::Constraint(_)), "{err}");
        // The refusal restores the state: the owning engine still runs the
        // fast path afterwards.
        let stats = engine
            .apply_update(
                &mut db,
                Update {
                    inserts: vec![edge(2, 3)],
                    deletes: vec![],
                },
            )
            .unwrap();
        assert_eq!(stats.profile.update_fallbacks, 0);
        assert!(db.contains("path", &[Value::Int(1), Value::Int(3)]));
    }

    #[test]
    fn update_on_a_never_materialized_database_falls_back() {
        let engine = update_engine(TC_SRC, false);
        let mut db = FactDb::new();
        db.add_facts("edge", ints(&[&[1, 2]])).unwrap();
        let stats = engine
            .apply_update(
                &mut db,
                Update {
                    inserts: vec![edge(2, 3)],
                    deletes: vec![],
                },
            )
            .unwrap();
        assert_eq!(stats.profile.update_fallbacks, 1);
        assert_eq!(db.len("path"), 3);
    }

    #[test]
    fn deleting_an_absent_fact_is_a_noop() {
        let engine = update_engine(TC_SRC, true);
        let (mut db, _) = engine
            .run_with_facts(&[("edge", ints(&[&[1, 2], &[2, 3]]))])
            .unwrap();
        let before = db_fingerprint(&db);
        let stats = engine
            .apply_update(
                &mut db,
                Update {
                    inserts: vec![],
                    deletes: vec![edge(7, 8)],
                },
            )
            .unwrap();
        assert_eq!(stats.profile.update_deleted, 0);
        assert_eq!(stats.profile.update_overdeleted, 0);
        assert_eq!(db_fingerprint(&db), before);
        // An empty update is equally inert.
        let stats = engine.apply_update(&mut db, Update::default()).unwrap();
        assert_eq!(stats.derived_facts, 0);
        assert_eq!(db_fingerprint(&db), before);
    }

    #[test]
    fn asserting_a_derived_fact_makes_it_an_input_fact() {
        // b(1) is derived from a(1), then asserted: it must outlive a(1), as
        // in a from-scratch chase over the final input {b(1)}.
        for provenance in [false, true] {
            let engine = update_engine("a(X) -> b(X).", provenance);
            let (mut db, _) = engine.run_with_facts(&[("a", ints(&[&[1]]))]).unwrap();
            for (inserts, deletes) in [
                (vec![("b".to_string(), vec![Value::Int(1)])], vec![]),
                (vec![], vec![("a".to_string(), vec![Value::Int(1)])]),
            ] {
                engine
                    .apply_update(&mut db, Update { inserts, deletes })
                    .unwrap();
            }
            let (scratch, _) = engine.run_with_facts(&[("b", ints(&[&[1]]))]).unwrap();
            assert_eq!(
                crate::oracle::canonical_diff(&db, &scratch),
                None,
                "provenance={provenance}"
            );
        }
    }

    #[test]
    fn updates_chain_across_calls() {
        // State re-persists after every update, so a long edit session
        // stays on the incremental path throughout.
        let engine = update_engine(TC_SRC, true);
        let (mut db, _) = engine
            .run_with_facts(&[("edge", ints(&[&[1, 2]]))])
            .unwrap();
        let mut edges: Vec<(i64, i64)> = vec![(1, 2)];
        for (ins, del) in [
            ((2, 3), None),
            ((3, 4), None),
            ((4, 5), Some((2, 3))),
            ((2, 4), None),
        ] {
            let deletes = del.map(|(a, b)| edge(a, b)).into_iter().collect();
            let stats = engine
                .apply_update(
                    &mut db,
                    Update {
                        inserts: vec![edge(ins.0, ins.1)],
                        deletes,
                    },
                )
                .unwrap();
            assert_eq!(stats.profile.update_fallbacks, 0);
            edges.push(ins);
            if let Some(d) = del {
                edges.retain(|&e| e != d);
            }
        }
        let rows: Vec<Vec<Value>> = edges
            .iter()
            .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)])
            .collect();
        let (scratch, _) = engine.run_with_facts(&[("edge", rows)]).unwrap();
        assert_eq!(crate::oracle::canonical_diff(&db, &scratch), None);
    }
}
