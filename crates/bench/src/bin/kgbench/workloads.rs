//! The four workloads. Each sets up [`Workload::setups`] times (their
//! median is `setup_s`), runs passes of fixed work while the next pass is
//! expected to end within `--seconds`, and checks every output against an
//! answer computed independently and untimed. Every layer is timed from
//! outside, around calls into public functions; the program is not
//! instrumented for the benchmark.

use crate::measure::{self, median, quantile, ratio, LAYERS, UNATTRIBUTED};
use crate::streams::{Event, EventStream, Query, QueryStream};
use kgm_common::{FxHashSet, Oid, Result, Value};
use kgm_core::intensional::{materialize, pg_schema_of, MaterializationMode};
use kgm_finance::control::{baseline_control, load_shareholding, CONTROL_METALOG, CONTROL_VADALOG};
use kgm_finance::{generate_shareholding, simple_ownership_schema, ShareholdingConfig};
use kgm_pgstore::PropertyGraph;
use kgm_runtime::telemetry::{self, Collector, SpanGuard, SpanNode};
use kgm_vadalog::{parse_program, Engine, EngineConfig, EpochPin, FactDb, RunStats, ServingLayer};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Pipeline,
    Chase,
    Update,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Pipeline,
        Workload::Chase,
        Workload::Update,
        Workload::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Pipeline => "pipeline_100k",
            Workload::Chase => "chase_1m",
            Workload::Update => "update_20k",
            Workload::Serve => "serve_20k",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Registry nodes at the benchmark's scale.
    pub fn nodes(self) -> usize {
        match self {
            Workload::Pipeline => 100_000,
            Workload::Chase => 1_000_000,
            Workload::Update | Workload::Serve => 20_000,
        }
    }

    /// Operations per pass at the benchmark's scale: events for
    /// `update_20k`, ticks for `serve_20k`, one chase for the other two.
    pub fn pass_len(self) -> usize {
        match self {
            Workload::Pipeline | Workload::Chase => 1,
            Workload::Update => 2_000,
            Workload::Serve => 400,
        }
    }

    /// Set-ups per run; `setup_s` is their median. A shared host runs in
    /// slower phases lasting from a fraction of a second to several
    /// seconds, so the set-ups of a run span about three seconds (ten for
    /// the 1M-node one) rather than landing in a single phase.
    pub fn setups(self) -> usize {
        match self {
            Workload::Pipeline => 25,
            Workload::Chase => 5,
            Workload::Update | Workload::Serve => 45,
        }
    }
}

pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Another pass starts only while it is expected to end within this
    /// many seconds of the first.
    pub seconds: f64,
    /// Capture spans and report per-layer metrics.
    pub trace: bool,
    pub nodes: usize,
    /// Operations per pass ([`Workload::pass_len`] outside tests).
    pub pass_len: usize,
}

/// What one run measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The first failures, for the log.
    pub failures: Vec<String>,
    /// Every metric measured, as `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines: the traced run's layer table.
    pub notes: Vec<String>,
    /// The trace document of a traced run.
    pub trace: Option<String>,
}

impl Report {
    /// Count one attempted operation, failed unless `ok`.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Count a failure of an operation already counted as attempted.
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(what);
        }
    }

    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<(f64, &'static str)> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, u)| (v, u))
    }
}

/// Per-layer metrics only some workloads exercise; the others report 0.
const WORKLOAD_SPECIFIC: [(&str, &str); 9] = [
    ("pipeline.reason_ratio", "ratio"),
    ("pipeline.new_edges", "count"),
    ("mtv.generated_rules", "count"),
    ("update.overdeleted", "count"),
    ("update.rederived", "count"),
    ("update.rederive_ratio", "ratio"),
    ("serve.plan_cache_hit_ratio", "ratio"),
    ("serve.resident_epochs_max", "count"),
    ("serve.epoch_mb", "MB"),
];

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn span(name: &str) -> SpanGuard {
    SpanGuard::enter(name, String::new())
}

/// Root spans of the traced parts of a run.
struct Tracer {
    roots: Vec<SpanNode>,
}

impl Tracer {
    /// Run `f` under the root span `root`, captured when `traced`.
    fn run<R>(&mut self, traced: bool, root: &str, f: impl FnOnce() -> R) -> R {
        if !traced {
            return f();
        }
        let collector = Collector::install();
        let r = {
            let _root = span(root);
            f()
        };
        self.roots.extend(collector.finish());
        r
    }
}

/// Traced and untraced operations alternate, so the pair gives the
/// tracing overhead.
fn traced(cfg: &Config, op: usize) -> bool {
    cfg.trace && op.is_multiple_of(2)
}

/// Passes of fixed work: at least `min`, and another only while it is
/// expected, at the mean pass time so far, to end within `seconds`.
struct Passes {
    start: Instant,
    seconds: f64,
    min: usize,
    done: usize,
}

impl Passes {
    fn new(cfg: &Config, min: usize) -> Passes {
        Passes {
            start: Instant::now(),
            seconds: cfg.seconds,
            min,
            done: 0,
        }
    }

    /// The index of the next pass, if one starts.
    fn next(&mut self) -> Option<usize> {
        let ends = secs(self.start) * (self.done + 1) as f64 / self.done.max(1) as f64;
        if self.done >= self.min && ends > self.seconds {
            return None;
        }
        self.done += 1;
        Some(self.done - 1)
    }
}

/// Chase counters from the most recent chase of the run.
#[derive(Default, Clone, Copy)]
struct Counts {
    iterations: usize,
    derived: usize,
    duplicates: usize,
    shards: usize,
    threads: usize,
    store_bytes: usize,
    store_facts: usize,
}

/// Samples shared by every workload.
#[derive(Default)]
struct Run {
    setup: Vec<f64>,
    generate: Vec<f64>,
    compile: Vec<f64>,
    load: Vec<f64>,
    chase_run: Vec<f64>,
    chase_rules: Vec<f64>,
    /// Seconds per program rule, one sample per chase.
    per_rule: Vec<Vec<f64>>,
    counts: Counts,
    /// `(traced, seconds)` per operation, for the tracing overhead.
    ops: Vec<(bool, f64)>,
    /// Every latency sample, in seconds.
    latency: Vec<f64>,
    /// Quantile of `latency` reported as `latency_tail_ms` (1.0 is the
    /// maximum).
    tail: f64,
    /// The passes of the run; every pass does the same work.
    passes: Vec<Pass>,
}

/// The operations of one pass.
#[derive(Default)]
struct Pass {
    latency: Vec<f64>,
    done: f64,
    busy: f64,
}

impl Run {
    fn new(tail: f64) -> Run {
        Run {
            tail,
            ..Run::default()
        }
    }

    /// Start a pass; the operations recorded next belong to it.
    fn pass(&mut self) {
        self.passes.push(Pass::default());
    }

    /// Record one operation of the current pass: its latency samples, the
    /// units of work it completed and the seconds it took. Only untraced
    /// operations count towards the timings.
    fn op(&mut self, traced: bool, latency: &[f64], done: f64, busy: f64) {
        self.ops.push((traced, busy));
        if traced {
            return;
        }
        self.latency.extend_from_slice(latency);
        let p = self
            .passes
            .last_mut()
            .expect("an operation belongs to a pass");
        p.latency.extend_from_slice(latency);
        p.done += done;
        p.busy += busy;
    }

    /// `latency_p50_ms` and `throughput_per_s`: the median over passes of
    /// each pass's median latency and of its throughput (passes of traced
    /// operations only are left out).
    fn per_pass(&self) -> (f64, f64) {
        let timed = || self.passes.iter().filter(|p| !p.latency.is_empty());
        let medians: Vec<f64> = timed().map(|p| median(&p.latency)).collect();
        let rates: Vec<f64> = timed().map(|p| ratio(p.done, p.busy)).collect();
        (median(&medians), median(&rates))
    }

    fn record_chase(&mut self, stats: &RunStats, threads: usize, db: &FactDb) {
        self.chase_run.push(stats.elapsed_ms / 1e3);
        self.chase_rules.push(
            stats
                .profile
                .rules
                .iter()
                .map(|r| r.elapsed_ms)
                .sum::<f64>()
                / 1e3,
        );
        self.per_rule
            .resize_with(stats.profile.rules.len().max(self.per_rule.len()), Vec::new);
        for (samples, r) in self.per_rule.iter_mut().zip(&stats.profile.rules) {
            samples.push(r.elapsed_ms / 1e3);
        }
        self.counts = Counts {
            iterations: stats.iterations,
            derived: stats.derived_facts,
            duplicates: stats.duplicates_rejected,
            shards: stats.profile.shards_spawned,
            threads,
            store_bytes: db.approx_bytes(),
            store_facts: db.total_facts(),
        };
    }
}

/// Generate the seeded registry.
fn registry(cfg: &Config, run: &mut Run) -> Result<PropertyGraph> {
    let t = Instant::now();
    let g = generate_shareholding(&ShareholdingConfig {
        nodes: cfg.nodes,
        person_fraction: 0.3,
        cross_ownership: 0.01,
        seed: cfg.seed,
        ..Default::default()
    })?;
    run.generate.push(secs(t));
    Ok(g)
}

/// Example 4.2 over `g`: compile, load and chase, each timed.
fn chase(g: &PropertyGraph, config: EngineConfig, run: &mut Run) -> Result<(Engine, FactDb)> {
    let threads = config.threads;
    let t = Instant::now();
    let engine = {
        let _s = span("kgbench.compile");
        Engine::with_config(parse_program(CONTROL_VADALOG)?, config)?
    };
    run.compile.push(secs(t));
    let t = Instant::now();
    let mut db = FactDb::new();
    {
        let _s = span("kgbench.load");
        load_shareholding(g, &mut db)?;
    }
    run.load.push(secs(t));
    let stats = {
        let _s = span("kgbench.chase");
        engine.run(&mut db)?
    };
    if !stats.termination.is_complete() {
        return Err(kgm_common::KgmError::Internal(format!(
            "chase stopped early: {}",
            stats.termination
        )));
    }
    run.record_chase(&stats, threads, &db);
    Ok((engine, db))
}

/// `(controller, controlled)` payload pairs of the `controls` facts.
fn controls(db: &FactDb, reflexive: bool) -> FxHashSet<(u64, u64)> {
    db.facts_iter("controls")
        .filter_map(|t| Some((t[0].as_oid()?.payload(), t[1].as_oid()?.payload())))
        .filter(|(a, b)| reflexive || a != b)
        .collect()
}

/// Non-reflexive control pairs the pipeline flushed into `g`.
fn graph_controls(g: &PropertyGraph) -> FxHashSet<(u64, u64)> {
    g.edges_with_label("CONTROLS")
        .into_iter()
        .map(|e| g.edge_endpoints(e))
        .filter(|(f, t)| f != t)
        .map(|(f, t)| (g.node_oid(f).payload(), g.node_oid(t).payload()))
        .collect()
}

/// Does a from-scratch chase over the live EDB of `db` derive exactly the
/// `controls` relation incremental maintenance left in `db`?
fn matches_from_scratch(db: &FactDb) -> Result<bool> {
    let mut fresh = FactDb::new();
    fresh.add_facts("company", db.facts("company"))?;
    fresh.add_facts("own", db.facts("own"))?;
    let engine = Engine::with_config(parse_program(CONTROL_VADALOG)?, EngineConfig::default())?;
    let stats = engine.run(&mut fresh)?;
    Ok(stats.termination.is_complete() && controls(&fresh, true) == controls(db, true))
}

fn event_stream(seed: u64, db: &FactDb) -> EventStream {
    let oid = |v: &Value| v.as_oid().expect("registry facts hold oids");
    let companies: Vec<Oid> = db.facts_iter("company").map(|t| oid(&t[0])).collect();
    let own: Vec<(Oid, Oid, f64)> = db
        .facts_iter("own")
        .map(|t| {
            (
                oid(&t[0]),
                oid(&t[1]),
                t[2].as_f64().expect("weights are numbers"),
            )
        })
        .collect();
    EventStream::new(seed, companies, &own)
}

/// Run one workload and report every metric it measures.
pub fn run(cfg: &Config) -> Result<Report> {
    let mut rep = Report::default();
    let mut run = Run::new(match cfg.workload {
        Workload::Pipeline | Workload::Chase => 1.0,
        Workload::Update => 0.99,
        Workload::Serve => 0.999,
    });
    let mut tr = Tracer { roots: Vec::new() };
    match cfg.workload {
        Workload::Pipeline => pipeline(cfg, &mut rep, &mut tr, &mut run)?,
        Workload::Chase => chase_1m(cfg, &mut rep, &mut tr, &mut run)?,
        Workload::Update => update(cfg, &mut rep, &mut tr, &mut run)?,
        Workload::Serve => serve(cfg, &mut rep, &mut tr, &mut run)?,
    }
    finish(cfg, &run, &tr, &mut rep);
    Ok(rep)
}

/// Algorithm 2 end to end over a fresh registry per run.
fn pipeline(cfg: &Config, rep: &mut Report, tr: &mut Tracer, run: &mut Run) -> Result<()> {
    let schema = simple_ownership_schema()?;
    let mut graph = None;
    for _ in 0..cfg.workload.setups() {
        drop(graph.take());
        let t = Instant::now();
        graph = Some(registry(cfg, run)?);
        run.setup.push(secs(t));
    }
    let expected = baseline_control(graph.as_ref().expect("at least one set-up"));
    let mtv = kgm_metalog::translate(
        &kgm_metalog::parse_metalog(CONTROL_METALOG)?,
        &pg_schema_of(&schema),
        "unused",
    )?;
    let mut parts: [Vec<f64>; 5] = Default::default();
    let mut last = kgm_core::intensional::MaterializationStats::default();
    let mut passes = Passes::new(cfg, if cfg.trace { 2 } else { 1 });
    while let Some(i) = passes.next() {
        let traced = traced(cfg, i);
        // Materialization writes CONTROLS edges into the graph, so every run
        // after the first starts from a freshly generated one (not timed).
        let mut graph = match graph.take() {
            Some(g) => g,
            None => registry(cfg, run)?,
        };
        let first_root = tr.roots.len();
        run.pass();
        let t = Instant::now();
        let res = tr.run(traced, "kgbench.op", || {
            let _s = span("kgbench.materialize");
            materialize(
                &mut graph,
                &schema,
                CONTROL_METALOG,
                MaterializationMode::SinglePass,
            )
        });
        let s = secs(t);
        run.op(traced, &[s], 1.0, s);
        match res {
            Ok(stats) => {
                let got = graph_controls(&graph);
                rep.check(stats.termination.is_complete() && got == expected, || {
                    format!(
                        "pipeline: {} control pairs ({}), baseline has {}",
                        got.len(),
                        stats.termination,
                        expected.len()
                    )
                });
                let (l, r, f) = (
                    stats.load_ms / 1e3,
                    stats.reason_ms / 1e3,
                    stats.flush_ms / 1e3,
                );
                for (v, x) in parts
                    .iter_mut()
                    .zip([l, r, f, s - l - r - f, ratio(r, l + f)])
                {
                    v.push(x);
                }
                run.load.push(l);
                last = stats;
            }
            Err(e) => rep.check(false, || format!("pipeline: {e}")),
        }
        // The chase and MTV compile inside `materialize` are seen only
        // through the spans the program emits, so only traced runs have them.
        for root in &tr.roots[first_root..] {
            if let Some(c) = root.find("chase.run") {
                let rules = c.children.iter().filter(|s| s.name == "chase.rule");
                run.chase_run.push(c.elapsed_ns as f64 / 1e9);
                run.chase_rules
                    .push(rules.map(|s| s.elapsed_ns as f64).sum::<f64>() / 1e9);
                let count = |k: &str| c.counter(k).unwrap_or(0) as usize;
                run.counts = Counts {
                    iterations: c
                        .children
                        .iter()
                        .filter_map(|s| s.counter("iterations"))
                        .sum::<i64>() as usize,
                    derived: count("derived"),
                    duplicates: count("duplicates"),
                    shards: count("shards"),
                    threads: EngineConfig::default().threads,
                    ..Counts::default()
                };
            }
            if let Some(m) = root.find("mtv.translate") {
                run.compile.push(m.elapsed_ns as f64 / 1e9);
            }
        }
    }
    let [load, reason, flush, other, ratios] = parts;
    rep.put("materialize_s", median(&run.latency), "s");
    rep.put("pipeline.load_s", median(&load), "s");
    rep.put("pipeline.reason_s", median(&reason), "s");
    rep.put("pipeline.flush_s", median(&flush), "s");
    rep.put("pipeline.unattributed_s", median(&other), "s");
    rep.put("pipeline.reason_ratio", median(&ratios), "ratio");
    rep.put("pipeline.derived_facts", last.derived_facts as f64, "count");
    rep.put("pipeline.new_edges", last.new_edges as f64, "count");
    rep.put(
        "mtv.generated_rules",
        mtv.program.rules.len() as f64,
        "count",
    );
    Ok(())
}

/// Example 4.2 chased directly over a 1M-node registry.
fn chase_1m(cfg: &Config, rep: &mut Report, tr: &mut Tracer, run: &mut Run) -> Result<()> {
    let mut graph = None;
    for _ in 0..cfg.workload.setups() {
        drop(graph.take()); // one registry resident at a time
        let t = Instant::now();
        graph = Some(registry(cfg, run)?);
        run.setup.push(secs(t));
    }
    let graph = graph.expect("at least one set-up");
    let expected = baseline_control(&graph);
    let mut passes = Passes::new(cfg, if cfg.trace { 2 } else { 1 });
    while let Some(i) = passes.next() {
        let traced = traced(cfg, i);
        run.pass();
        let t = Instant::now();
        let res = tr.run(traced, "kgbench.op", || {
            chase(&graph, EngineConfig::default(), run)
        });
        let s = secs(t);
        run.op(traced, &[s], 1.0, s);
        match res {
            Ok((_, db)) => {
                let got = controls(&db, false);
                rep.check(got == expected, || {
                    format!(
                        "chase: {} control pairs, baseline has {}",
                        got.len(),
                        expected.len()
                    )
                });
            }
            Err(e) => rep.check(false, || format!("chase: {e}")),
        }
    }
    rep.put("materialize_s", median(&run.latency), "s");
    Ok(())
}

fn apply(engine: &Engine, db: &mut FactDb, ev: Event) -> Result<RunStats> {
    let _s = span(if ev.is_delete() {
        "kgbench.delete"
    } else {
        "kgbench.insert"
    });
    engine.apply_update(db, ev.to_update())
}

/// Incremental-maintenance samples, shared by `update_20k` and `serve_20k`.
#[derive(Default)]
struct Maintenance {
    insert: Vec<f64>,
    delete: Vec<f64>,
    overdeleted: usize,
    rederived: usize,
}

impl Maintenance {
    fn record(&mut self, rep: &mut Report, ev: Event, secs: f64, res: &Result<RunStats>) {
        if ev.is_delete() {
            self.delete.push(secs);
        } else {
            self.insert.push(secs);
        }
        match res {
            Ok(st) => {
                self.overdeleted += st.profile.update_overdeleted;
                self.rederived += st.profile.update_rederived;
                rep.check(
                    st.termination.is_complete() && st.profile.update_fallbacks == 0,
                    || {
                        format!(
                            "{ev:?}: {} with {} rebuild fallbacks",
                            st.termination, st.profile.update_fallbacks
                        )
                    },
                );
            }
            Err(e) => rep.check(false, || format!("{ev:?}: {e}")),
        }
    }

    /// Percentiles over every event of the run; totals and counts per pass.
    fn put(&self, rep: &mut Report, passes: usize) {
        let per_pass = |x: f64| x / passes.max(1) as f64;
        rep.put(
            "update.events",
            per_pass((self.insert.len() + self.delete.len()) as f64),
            "count",
        );
        rep.put("update_insert_p50_us", median(&self.insert) * 1e6, "us");
        rep.put(
            "update_insert_p99_us",
            quantile(&self.insert, 0.99) * 1e6,
            "us",
        );
        rep.put("update_delete_p50_ms", median(&self.delete) * 1e3, "ms");
        rep.put(
            "update_delete_p95_ms",
            quantile(&self.delete, 0.95) * 1e3,
            "ms",
        );
        rep.put(
            "update.insert_total_s",
            per_pass(self.insert.iter().sum()),
            "s",
        );
        rep.put(
            "update.delete_total_s",
            per_pass(self.delete.iter().sum()),
            "s",
        );
        rep.put(
            "update.overdeleted",
            per_pass(self.overdeleted as f64),
            "count",
        );
        rep.put("update.rederived", per_pass(self.rederived as f64), "count");
        rep.put(
            "update.rederive_ratio",
            ratio(self.rederived as f64, self.overdeleted as f64),
            "ratio",
        );
    }
}

/// Incremental maintenance of a 20k-node registry under the event stream.
fn update(cfg: &Config, rep: &mut Report, tr: &mut Tracer, run: &mut Run) -> Result<()> {
    // Single-threaded, so every event's time is the maintenance cost alone.
    let config = || EngineConfig {
        threads: 1,
        provenance: true,
        ..Default::default()
    };
    let setup = |run: &mut Run| -> Result<(Engine, FactDb)> {
        let t = Instant::now();
        let state = chase(&registry(cfg, run)?, config(), run)?;
        run.setup.push(secs(t));
        Ok(state)
    };
    // Every pass sets up afresh; the extra set-ups only add samples.
    for _ in 1..cfg.workload.setups() {
        drop(setup(run)?);
    }
    let mut maint = Maintenance::default();
    let mut passes = Passes::new(cfg, 1);
    while passes.next().is_some() {
        let (engine, mut db) = setup(run)?;
        run.pass();
        for (i, ev) in event_stream(cfg.seed, &db).take(cfg.pass_len).enumerate() {
            let traced = traced(cfg, i);
            let t = Instant::now();
            let res = tr.run(traced, "kgbench.op", || apply(&engine, &mut db, ev));
            let s = secs(t);
            run.op(traced, &[s], 1.0, s);
            maint.record(rep, ev, s, &res);
        }
        rep.check(matches_from_scratch(&db)?, || {
            "update: maintained controls differ from a from-scratch chase".to_string()
        });
    }
    maint.put(rep, run.passes.len());
    Ok(())
}

/// What the reader measured in one batch.
#[derive(Default)]
struct Read {
    latency: Vec<(Query, f64)>,
    failures: Vec<String>,
    busy: f64,
    plan_hits: u64,
    plan_misses: u64,
    spans: Vec<SpanNode>,
}

/// Answer one batch on the pinned epoch, timing each query.
fn read_batch(pin: &EpochPin, batch: &[Query], traced: bool) -> Read {
    let collector = traced.then(Collector::install);
    let mut read = Read::default();
    let t0 = Instant::now();
    {
        let _batch = span("kgbench.batch");
        // Per-layer query time, attached to the batch span as leaves.
        let mut ns = [0u128; 3];
        for &q in batch {
            let (text, row) = q.text(pin);
            let t = Instant::now();
            let res = pin.query(&text);
            let dt = t.elapsed();
            ns[match q {
                Query::Point { .. } => 0,
                Query::Aggregate(_) => 1,
                _ => 2,
            }] += dt.as_nanos();
            read.latency.push((q, dt.as_secs_f64()));
            if let Err(why) = verify(pin, q, &text, row, res) {
                read.failures.push(why);
            }
        }
        for (name, ns) in ["kgbench.point", "kgbench.aggregate", "kgbench.graph"]
            .into_iter()
            .zip(ns)
        {
            telemetry::annotate_child(name, "", ns, Vec::new());
        }
    }
    read.busy = secs(t0);
    (read.plan_hits, read.plan_misses) = pin.plan_cache_stats();
    read.spans = collector.map(Collector::finish).unwrap_or_default();
    read
}

/// A response must be `Ok`, complete and stamped with the pinned epoch; a
/// point hit returns exactly its row, a miss nothing, and counts and
/// `path controls` agree with the epoch's relations.
fn verify(
    pin: &EpochPin,
    q: Query,
    text: &str,
    row: Option<Vec<Value>>,
    res: Result<kgm_vadalog::QueryResponse>,
) -> std::result::Result<(), String> {
    let r = res.map_err(|e| format!("`{text}`: {e}"))?;
    if !r.complete || r.epoch != pin.id() {
        return Err(format!(
            "`{text}`: answered on epoch {} (complete: {}) with epoch {} pinned",
            r.epoch,
            r.complete,
            pin.id()
        ));
    }
    let ok = match q {
        Query::Point { miss: true, .. } => r.rows.is_empty(),
        Query::Point { .. } => row.is_some_and(|row| r.rows == [row]),
        Query::PathCold | Query::PathWarm => r.rows.len() == pin.rows("controls").len(),
        Query::Cypher => r.rows.len() == pin.rows("own").len(),
        Query::Aggregate(_) => match text.strip_prefix("count ") {
            Some(pred) => r.rows == [vec![Value::Int(pin.rows(pred).len() as i64)]],
            None => r.rows.len() == 1,
        },
    };
    if ok {
        Ok(())
    } else {
        Err(format!("`{text}`: wrong answer on epoch {}", pin.id()))
    }
}

/// What the writer measured in one tick.
struct Write {
    result: Result<RunStats>,
    apply: f64,
    publish: f64,
    resident: usize,
    epoch_bytes: usize,
}

/// Apply one event and publish the result as the next epoch.
fn write_tick(engine: &Engine, db: &mut FactDb, layer: &ServingLayer, ev: Event) -> Write {
    let t = Instant::now();
    let result = apply(engine, db, ev);
    let apply_s = secs(t);
    let t = Instant::now();
    let snap = result.as_ref().ok().map(|st| {
        let _s = span("kgbench.publish");
        layer.publish(db, st.termination)
    });
    let publish = secs(t);
    Write {
        result,
        apply: apply_s,
        publish,
        resident: layer.resident_epochs(),
        epoch_bytes: snap.map_or(0, |s| s.approx_bytes()),
    }
}

/// Lock-step serving: in each tick the writer applies one event and
/// publishes the next epoch while the reader answers a batch on the epoch
/// it pinned when the tick began.
fn serve(cfg: &Config, rep: &mut Report, tr: &mut Tracer, run: &mut Run) -> Result<()> {
    // The writer's chase workers and the reader together use every core.
    let config = || EngineConfig {
        threads: measure::nproc().saturating_sub(1).max(1),
        provenance: true,
        ..Default::default()
    };
    let setup = |run: &mut Run| -> Result<(Engine, FactDb, ServingLayer)> {
        let t = Instant::now();
        let (engine, db) = chase(&registry(cfg, run)?, config(), run)?;
        let layer = ServingLayer::new();
        layer.publish(&db, kgm_vadalog::Termination::Complete);
        run.setup.push(secs(t));
        Ok((engine, db, layer))
    };
    // Every pass sets up afresh; the extra set-ups only add samples.
    for _ in 1..cfg.workload.setups() {
        drop(setup(run)?);
    }
    let mut maint = Maintenance::default();
    let (mut tick, mut pin_s, mut apply_s, mut publish_s) = (vec![], vec![], vec![], vec![]);
    let mut kinds: [Vec<f64>; 4] = Default::default(); // point, aggregate, cold, warm
    let (mut reader_busy, mut writer_busy) = (0.0, 0.0);
    let (mut hits, mut misses, mut resident, mut epoch_bytes) = (0u64, 0u64, 0usize, 0usize);
    let mut passes = Passes::new(cfg, 1);
    while passes.next().is_some() {
        let (engine, mut db, layer) = setup(run)?;
        run.pass();
        let events = event_stream(cfg.seed, &db).take(cfg.pass_len);
        let mut queries = QueryStream::new(cfg.seed);
        for (i, ev) in events.enumerate() {
            let traced = traced(cfg, i);
            let batch = queries.batch();
            let t = Instant::now();
            let (read, write, pinned) = tr.run(traced, "kgbench.tick", || {
                let t = Instant::now();
                let pin = {
                    let _s = span("kgbench.pin");
                    layer.pin()
                };
                let pinned = secs(t);
                // With one core the OS time-slices the two threads.
                let (read, write) = std::thread::scope(|scope| {
                    let reader = scope.spawn(|| read_batch(&pin, &batch, traced));
                    let write = write_tick(&engine, &mut db, &layer, ev);
                    (reader.join().expect("the reader thread panicked"), write)
                });
                (read, write, pinned)
            });
            let s = secs(t);
            let latency: Vec<f64> = read.latency.iter().map(|&(_, dt)| dt).collect();
            run.op(traced, &latency, latency.len() as f64, s);
            tr.roots.extend(read.spans);
            tick.push(s);
            pin_s.push(pinned);
            apply_s.push(write.apply);
            publish_s.push(write.publish);
            reader_busy += read.busy;
            writer_busy += write.apply + write.publish;
            hits += read.plan_hits;
            misses += read.plan_misses;
            resident = resident.max(write.resident);
            epoch_bytes = write.epoch_bytes;
            maint.record(rep, ev, write.apply, &write.result);
            rep.attempted += read.latency.len() as u64;
            for why in read.failures {
                rep.fail(why);
            }
            for (q, dt) in read.latency {
                kinds[match q {
                    Query::Point { .. } => 0,
                    Query::Aggregate(_) => 1,
                    Query::PathCold => 2,
                    Query::PathWarm | Query::Cypher => 3,
                }]
                .push(dt);
            }
        }
        rep.check(matches_from_scratch(&db)?, || {
            "serve: maintained controls differ from a from-scratch chase".to_string()
        });
    }
    let n = run.passes.len();
    let per_pass = |x: f64| x / n as f64;
    let loop_s: f64 = tick.iter().sum();
    let fresh: Vec<f64> = apply_s.iter().zip(&publish_s).map(|(a, p)| a + p).collect();
    let (ms, us) = (1e3, 1e6);
    rep.put("serve.ticks", per_pass(tick.len() as f64), "count");
    rep.put("query_p50_us", median(&run.latency) * us, "us");
    rep.put("query_p999_us", quantile(&run.latency, 0.999) * us, "us");
    rep.put(
        "queries_per_s",
        ratio(run.latency.len() as f64, loop_s),
        "1/s",
    );
    rep.put("freshness_p50_ms", median(&fresh) * ms, "ms");
    rep.put("freshness_p99_ms", quantile(&fresh, 0.99) * ms, "ms");
    rep.put("serve.apply_p50_ms", median(&apply_s) * ms, "ms");
    rep.put("serve.publish_p50_ms", median(&publish_s) * ms, "ms");
    rep.put(
        "serve.publish_p99_ms",
        quantile(&publish_s, 0.99) * ms,
        "ms",
    );
    rep.put("serve.pin_p50_us", median(&pin_s) * us, "us");
    rep.put("serve.point_p50_us", median(&kinds[0]) * us, "us");
    rep.put("serve.point_p99_us", quantile(&kinds[0], 0.99) * us, "us");
    rep.put("serve.aggregate_p50_us", median(&kinds[1]) * us, "us");
    rep.put("serve.graph_cold_p50_ms", median(&kinds[2]) * ms, "ms");
    rep.put("serve.graph_warm_p50_ms", median(&kinds[3]) * ms, "ms");
    rep.put("serve.reader_busy_s", per_pass(reader_busy), "s");
    rep.put("serve.reader_wait_s", per_pass(loop_s - reader_busy), "s");
    rep.put("serve.writer_busy_s", per_pass(writer_busy), "s");
    rep.put("serve.writer_wait_s", per_pass(loop_s - writer_busy), "s");
    rep.put(
        "serve.plan_cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );
    rep.put("serve.resident_epochs_max", resident as f64, "count");
    rep.put("serve.epoch_mb", epoch_bytes as f64 / MIB, "MB");
    maint.put(rep, n);
    Ok(())
}

const MIB: f64 = 1024.0 * 1024.0;

/// The metrics every workload reports: the end-to-end set, the per-layer
/// set common to all workloads, and the layer split of the traced run.
fn finish(cfg: &Config, run: &Run, tr: &Tracer, rep: &mut Report) {
    let ms = |s: f64| s * 1e3;
    let (p50, throughput) = run.per_pass();
    rep.put("setup_s", median(&run.setup), "s");
    rep.put("latency_p50_ms", ms(p50), "ms");
    rep.put("throughput_per_s", throughput, "1/s");
    rep.put("peak_rss_mb", measure::peak_rss_mb(), "MB");
    rep.put(
        "latency_tail_ms",
        ms(quantile(&run.latency, run.tail)),
        "ms",
    );

    rep.put("gen.registry_s", median(&run.generate), "s");
    rep.put("load_s", median(&run.load), "s");
    rep.put("compile_ms", ms(median(&run.compile)), "ms");
    rep.put("chase.run_s", median(&run.chase_run), "s");
    rep.put("chase.rules_s", median(&run.chase_rules), "s");
    let outside_rules: Vec<f64> = run
        .chase_run
        .iter()
        .zip(&run.chase_rules)
        .map(|(r, x)| r - x)
        .collect();
    rep.put("chase.unattributed_s", median(&outside_rules), "s");
    for (i, r) in run.per_rule.iter().enumerate() {
        rep.put(&format!("chase.rule{i}_s"), median(r), "s");
    }
    let c = run.counts;
    rep.put("chase.iterations", c.iterations as f64, "count");
    rep.put("chase.derived_facts", c.derived as f64, "count");
    rep.put("chase.duplicates_rejected", c.duplicates as f64, "count");
    rep.put(
        "chase.useful_ratio",
        ratio(c.derived as f64, (c.derived + c.duplicates) as f64),
        "ratio",
    );
    rep.put("chase.shards_spawned", c.shards as f64, "count");
    rep.put("chase.threads", c.threads as f64, "count");
    rep.put("store.mb", c.store_bytes as f64 / MIB, "MB");
    rep.put("store.facts", c.store_facts as f64, "count");
    for (name, unit) in WORKLOAD_SPECIFIC {
        if rep.get(name).is_none() {
            rep.put(name, 0.0, unit);
        }
    }

    let tree = measure::merge(&tr.roots);
    let layers = measure::layer_seconds(&tree);
    let total: f64 = layers.iter().sum();
    let ops = |traced: bool| -> Vec<f64> {
        run.ops
            .iter()
            .filter(|o| o.0 == traced)
            .map(|o| o.1)
            .collect()
    };
    let overhead = ratio(median(&ops(true)), median(&ops(false)));
    rep.put("trace.total_s", total, "s");
    rep.put("trace.unattributed_s", layers[LAYERS.len() - 1], "s");
    rep.put("trace.overhead", overhead, "ratio");
    for (layer, s) in LAYERS.iter().zip(layers) {
        rep.put(&format!("share.{layer}"), 100.0 * ratio(s, total), "%");
    }
    if !cfg.trace {
        return;
    }
    rep.notes.push(format!(
        "layer self times of the traced run ({total:.3} s traced):"
    ));
    for (layer, s) in LAYERS.iter().zip(layers) {
        if s != 0.0 || *layer == UNATTRIBUTED {
            let share = 100.0 * ratio(s, total);
            rep.notes
                .push(format!("  {layer:<18} {s:>10.4} s {share:>6.2} %"));
        }
    }
    rep.notes.push(format!(
        "tracing overhead (traced / untraced operation): {overhead:.3}"
    ));
    let layer_json: Vec<String> = LAYERS
        .iter()
        .zip(layers)
        .map(|(l, s)| format!("{{\"layer\": \"{l}\", \"self_s\": {s}}}"))
        .collect();
    rep.trace = Some(format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"traced_s\": {total}, \"overhead\": {overhead}, \
         \"layers\": [{}], \"spans\": {}}}\n",
        cfg.workload.name(),
        cfg.seed,
        layer_json.join(", "),
        measure::tree_json(&tree)
    ));
}
