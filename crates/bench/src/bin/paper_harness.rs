//! `paper-harness` — regenerate every table and figure of the paper.
//!
//! ```text
//! paper-harness all            # every experiment at default scales
//! paper-harness e1 [nodes]     # §2.1 topology statistics
//! paper-harness e2             # Figures 2–3 (DOT + Γ_SM table)
//! paper-harness e3             # Figure 4 (DOT)
//! paper-harness e4             # Figure 6 (PG translation)
//! paper-harness e5             # Figure 8 (relational translation + DDL)
//! paper-harness e6 [nodes]     # Figure 9 (instance constructs)
//! paper-harness e7 [n1,n2,..]  # §6 control pipeline sweep
//! paper-harness e8 [nodes]     # MTV overhead comparison
//! paper-harness e9             # §5.1 strategy ablation
//! paper-harness e10 [nodes]    # §6 staging ablation
//! ```
//!
//! Artefact files (DOT diagrams, DDL, RDF-S) are written under
//! `target/paper-artifacts/`.
//!
//! Observability flags (combine with any experiment):
//!
//! ```text
//! paper-harness e7 --profile   # capture the span tree + metrics and write
//!                              # target/paper-artifacts/run_report_e7.json
//! paper-harness e7 --trace     # force the JSONL trace sink on
//!                              # (target/kgm-trace/trace-<pid>-<n>.jsonl,
//!                              # run-unique even across pid recycling)
//! paper-harness e7 --threads 4 # pin the chase worker count for the whole
//!                              # run (sets KGM_THREADS; output is
//!                              # bit-identical for any value)
//! KGM_LOG=span paper-harness … # print the live span tree to stderr
//! paper-harness validate-json FILE…   # exit non-zero unless every FILE is
//!                                     # valid JSON (CI smoke helper)
//! paper-harness scale-smoke [nodes]   # registry-scale chase at 1 vs 8
//!                                     # worker threads, then under a
//!                                     # max_bytes budget; exit non-zero if
//!                                     # the outputs diverge or the budget
//!                                     # does not stop the chase (CI gate
//!                                     # for deterministic sharded
//!                                     # evaluation and the memory
//!                                     # governor; default 100000 nodes)
//! paper-harness explain [nodes] [x y] # run company control with
//!                                     # why-provenance on over the seeded
//!                                     # registry and print the derivation
//!                                     # tree of controls(x, y) (or, with no
//!                                     # pair, of the deepest control fact)
//! paper-harness prov-smoke [nodes]    # CI gate for why-provenance: the
//!                                     # provenance-on chase at 1 and 4
//!                                     # worker threads must produce the
//!                                     # exact fact set of the provenance-off
//!                                     # run, with identical edge counts
//! paper-harness update [nodes]        # CI gate for incremental view
//!                                     # maintenance: one fixed incorporation
//!                                     # plus one shareholding retraction
//!                                     # applied via Engine::apply_update
//!                                     # must reproduce the from-scratch
//!                                     # control relation at 1 and 4 worker
//!                                     # threads without taking the rebuild
//!                                     # fallback (default 2000 nodes)
//! paper-harness gates                 # CI's three timing gates, each a
//!                                     # ratio of two legs timed in this
//!                                     # process: provenance on < 2x off,
//!                                     # one update < 0.10x a full chase,
//!                                     # 4 readers <= 1.10x 1 reader under
//!                                     # a live writer; exit non-zero
//!                                     # naming every gate that fails
//! ```
//!
//! Failures are propagated, not panicked: every experiment error reaches
//! `main`, is printed to stderr, and exits non-zero (unknown experiments
//! exit 2) — so CI and the chaos smoke can assert on exit codes. That
//! includes a malformed number in an argument: `e7 abc` or `--threads four`
//! is an error naming the argument, never a silent default.

use kgm_bench::*;
use kgm_common::{KgmError, Oid, OidSpace, Result, Value};
use kgm_core::intensional::MaterializationMode;
use kgm_finance::control::{
    control_vadalog, control_vadalog_prov, control_vadalog_threads, load_shareholding,
    CONTROL_VADALOG,
};
use kgm_runtime::telemetry;
use kgm_vadalog::{
    explain, parse_program, render, Engine, EngineConfig, FactDb, ServingLayer, Termination, Update,
};
use std::fs;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

fn artifacts_dir() -> Result<PathBuf> {
    let dir = PathBuf::from("target/paper-artifacts");
    fs::create_dir_all(&dir)
        .map_err(|e| KgmError::Internal(format!("create artifacts dir: {e}")))?;
    Ok(dir)
}

fn save(name: &str, content: &str) -> Result<()> {
    let path = artifacts_dir()?.join(name);
    fs::write(&path, content)
        .map_err(|e| KgmError::Internal(format!("write artifact {}: {e}", path.display())))?;
    println!("  [artifact] {}", path.display());
    Ok(())
}

fn run_e1(nodes: usize) -> Result<()> {
    let r = e1_graph_stats(nodes)?;
    println!("{}", r.report);
    save("e1_degree_distribution.txt", &r.degree_distribution)
}

fn run_e2() -> Result<()> {
    let (mm, sm, table) = e2_meta_and_super_model()?;
    println!("E2 — Figures 2–3 regenerated.");
    println!("{table}");
    save("figure2_meta_model.dot", &mm)?;
    save("figure3_super_model.dot", &sm)?;
    save("figure3_gamma_sm.txt", &table)
}

fn run_e3() -> Result<()> {
    let (_, dot) = e3_company_kg_diagram()?;
    println!("E3 — Figure 4 (Company KG GSL diagram) regenerated.");
    save("figure4_company_kg.dot", &dot)
}

fn run_e4() -> Result<()> {
    let (_, report) = e4_pg_translation()?;
    println!("{report}");
    save("figure6_pg_schema.txt", &report)
}

fn run_e5() -> Result<()> {
    let (rel, report) = e5_relational_translation()?;
    println!(
        "E5 — Figure 8: {} tables, {} foreign keys (full DDL in artifact)",
        rel.tables.len(),
        rel.foreign_keys.len()
    );
    save("figure8_relational.sql", &report)
}

fn run_e6(nodes: usize) -> Result<()> {
    let report = e6_instance_constructs(nodes)?;
    println!("{report}");
    Ok(())
}

fn run_e7(sizes: &[usize]) -> Result<()> {
    let rows = sizes
        .iter()
        .map(|&n| e7_control_pipeline(n, MaterializationMode::SinglePass))
        .collect::<Result<Vec<E7Row>>>()?;
    let report = e7_report(&rows);
    println!("{report}");
    save("e7_control_pipeline.txt", &report)
}

fn run_e8(nodes: usize) -> Result<()> {
    let r = e8_mtv_overhead(nodes)?;
    println!("{}", r.report);
    Ok(())
}

fn run_e9() -> Result<()> {
    let report = e9_strategies()?;
    println!("{report}");
    Ok(())
}

fn run_e10(nodes: usize) -> Result<()> {
    let report = e10_staging(nodes)?;
    println!("{report}");
    Ok(())
}

/// Parse the argument `what` from `raw`. A malformed argument is an error
/// that names it; it never falls back to a default.
fn parse_arg<T: FromStr>(what: &str, raw: &str) -> Result<T> {
    raw.parse()
        .map_err(|_| KgmError::parse("argument", format!("{what}: `{raw}` is not a valid number")))
}

/// The comma-separated `e7` size list: every entry must parse.
fn e7_sizes(list: &str) -> Result<Vec<usize>> {
    list.split(',').map(|x| parse_arg("e7 size", x)).collect()
}

/// Order-independent digest of a control relation: each `(controller,
/// controlled)` pair is mixed through splitmix64 and the mixes are summed,
/// so two runs agree iff they derived the same set of pairs regardless of
/// hash-set iteration order.
fn control_digest(pairs: &kgm_common::FxHashSet<(u64, u64)>) -> u64 {
    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
    pairs.iter().fold(0u64, |acc, &(a, b)| {
        acc.wrapping_add(splitmix64(splitmix64(a) ^ b.rotate_left(32)))
    })
}

/// One Example 4.2 chase over `g` under `config`: the chased store, the
/// run's stats, and the store's `approx_bytes` once loaded.
fn sized_control_chase(
    g: &kgm_pgstore::PropertyGraph,
    config: EngineConfig,
) -> Result<(FactDb, kgm_vadalog::RunStats, usize)> {
    let engine = Engine::with_config(parse_program(CONTROL_VADALOG)?, config)?;
    let mut db = FactDb::new();
    load_shareholding(g, &mut db)?;
    let loaded = db.approx_bytes();
    let stats = engine.run(&mut db)?;
    Ok((db, stats, loaded))
}

/// `scale-smoke [nodes]` — the CI gate for deterministic sharded
/// evaluation and the memory governor at registry scale: generate a
/// shareholding graph once, run the company-control chase at 1 and 8
/// worker threads, and require both runs to produce the same control
/// relation (digest), derived-fact count, and null count. Then rerun the
/// chase with `max_bytes` halfway between the loaded store's and the
/// chased store's `approx_bytes`: it must stop with `MemoryBudget`,
/// keeping a strict subset of the control pairs. Exits non-zero on any
/// divergence. Wall times are printed but not compared — on a
/// single-core runner t8 is expected to match t1, not beat it.
fn run_scale_smoke(nodes: usize) -> Result<ExitCode> {
    let g = bench_graph(nodes);
    println!("scale-smoke: {nodes} nodes, {} OWNS edges", g.edge_count());
    let mut runs: Vec<(usize, u64, usize, usize)> = Vec::new();
    let mut unbounded = None;
    for t in [1usize, 8] {
        let t0 = std::time::Instant::now();
        let config = EngineConfig {
            threads: t,
            ..Default::default()
        };
        let (db, stats, loaded) = sized_control_chase(&g, config)?;
        let secs = t0.elapsed().as_secs_f64();
        let (controls, chased) = (control_pairs(&db), db.approx_bytes());
        let digest = control_digest(&controls);
        println!(
            "  t{t}: {} control pairs, {} derived facts, digest {digest:016x}, {secs:.2}s, \
             store {loaded} -> {chased} bytes",
            controls.len(),
            stats.derived_facts,
        );
        runs.push((t, digest, stats.derived_facts, stats.nulls_created));
        unbounded.get_or_insert((controls, loaded, chased));
    }
    let (_, d0, f0, n0) = runs[0];
    for &(t, d, f, n) in &runs[1..] {
        if (d, f, n) != (d0, f0, n0) {
            eprintln!(
                "scale-smoke: t{t} diverged from t1: digest {d:016x} vs {d0:016x}, \
                 derived {f} vs {f0}, nulls {n} vs {n0}"
            );
            return Ok(ExitCode::FAILURE);
        }
    }
    println!("scale-smoke: thread counts agree");

    let (all, loaded, chased) = unbounded.expect("two unbounded runs");
    let budget = loaded + chased.saturating_sub(loaded) / 2;
    let config = EngineConfig {
        max_bytes: Some(budget),
        ..Default::default()
    };
    let (db, stats, _) = sized_control_chase(&g, config)?;
    let partial = control_pairs(&db);
    println!(
        "  max_bytes {budget}: {} after {} iterations, {} of {} control pairs, \
         store {} bytes",
        stats.termination,
        stats.iterations,
        partial.len(),
        all.len(),
        db.approx_bytes(),
    );
    if stats.termination != Termination::MemoryBudget
        || partial.len() >= all.len()
        || !partial.is_subset(&all)
    {
        eprintln!(
            "scale-smoke: max_bytes {budget} did not stop the chase with a strict \
             subset of the control pairs"
        );
        return Ok(ExitCode::FAILURE);
    }
    println!("scale-smoke: the memory governor stops the chase with a partial result");
    Ok(ExitCode::SUCCESS)
}

/// Non-reflexive `(controller, controlled)` payload pairs from a chased
/// control database — the prov-on counterpart of what
/// [`control_vadalog_threads`] returns.
fn control_pairs(db: &FactDb) -> kgm_common::FxHashSet<(u64, u64)> {
    let mut out = kgm_common::FxHashSet::default();
    for t in db.facts_iter("controls") {
        let (Some(a), Some(b)) = (t[0].as_oid(), t[1].as_oid()) else {
            continue;
        };
        if a != b {
            out.insert((a.payload(), b.payload()));
        }
    }
    out
}

/// `explain [nodes] [x y]` — answer "why does company x control company y?"
/// over the seeded synthetic registry: run Example 4.2 with provenance on
/// and print the derivation tree of `controls(#x, #y)`. Without a pair, the
/// non-reflexive control fact with the largest derivation tree (smallest
/// payload pair on ties) is explained — output is deterministic either way.
fn run_explain(nodes: usize, pair: &[String]) -> Result<ExitCode> {
    let target: Option<(u64, u64)> = match pair {
        [x, y, ..] => {
            let parse = |s: &str| parse_arg("explain node", s.trim_start_matches('#'));
            Some((parse(x)?, parse(y)?))
        }
        _ => None,
    };
    let g = bench_graph(nodes);
    let (engine, db, stats) = control_vadalog_prov(&g, EngineConfig::default().threads)?;
    println!(
        "explain: {nodes} nodes, {} control facts, {} provenance edges ({} parent refs)",
        db.facts_iter("controls").count(),
        stats.profile.prov_edges,
        stats.profile.prov_parents,
    );
    let mut best: Option<(usize, (u64, u64), Vec<kgm_common::Value>)> = None;
    for t in db.facts_iter("controls") {
        let (Some(a), Some(b)) = (t[0].as_oid(), t[1].as_oid()) else {
            continue;
        };
        let pair = (a.payload(), b.payload());
        if let Some(want) = target {
            if pair == want {
                best = Some((0, pair, t));
                break;
            }
            continue;
        }
        if a == b {
            continue;
        }
        let tree = explain(&db, "controls", &t).expect("listed fact explains");
        let key = (tree.node_count(), pair);
        let better = match &best {
            None => true,
            Some((n, p, _)) => key.0 > *n || (key.0 == *n && key.1 < *p),
        };
        if better {
            best = Some((key.0, key.1, t));
        }
    }
    let Some((_, pair, tuple)) = best else {
        if let Some((x, y)) = target {
            eprintln!("explain: controls(#{x}, #{y}) was not derived");
            return Ok(ExitCode::FAILURE);
        }
        println!("explain: no non-reflexive control facts derived at this scale");
        return Ok(ExitCode::SUCCESS);
    };
    let tree = explain(&db, "controls", &tuple).expect("selected fact explains");
    println!(
        "\nwhy does #{} control #{}? ({} nodes, depth {})\n",
        pair.0,
        pair.1,
        tree.node_count(),
        tree.depth()
    );
    print!("{}", render(&tree, engine.program()));
    Ok(ExitCode::SUCCESS)
}

/// `prov-smoke [nodes]` — the CI gate for why-provenance: recording must be
/// a pure sidecar. The provenance-on chase at 1 and 4 worker threads must
/// produce a fact set bit-identical (digest, derived-fact count, null
/// count) to the provenance-off baseline, with identical edge counts at
/// both thread counts, and the baseline itself must record no edges.
fn run_prov_smoke(nodes: usize) -> Result<ExitCode> {
    let g = bench_graph(nodes);
    println!("prov-smoke: {nodes} nodes, {} OWNS edges", g.edge_count());
    let (base, base_stats) = control_vadalog_threads(&g, 1)?;
    let d0 = control_digest(&base);
    println!(
        "  off t1: {} control pairs, {} derived facts, digest {d0:016x}",
        base.len(),
        base_stats.derived_facts,
    );
    if base_stats.profile.prov_edges != 0 {
        eprintln!(
            "prov-smoke: provenance-off run recorded {} edges",
            base_stats.profile.prov_edges
        );
        return Ok(ExitCode::FAILURE);
    }
    let mut edge_counts: Vec<usize> = Vec::new();
    for t in [1usize, 4] {
        let (_, db, stats) = control_vadalog_prov(&g, t)?;
        let pairs = control_pairs(&db);
        let d = control_digest(&pairs);
        println!(
            "  on  t{t}: {} control pairs, {} derived facts, digest {d:016x}, \
             {} edges / {} parent refs",
            pairs.len(),
            stats.derived_facts,
            stats.profile.prov_edges,
            stats.profile.prov_parents,
        );
        if d != d0
            || stats.derived_facts != base_stats.derived_facts
            || stats.nulls_created != base_stats.nulls_created
        {
            eprintln!("prov-smoke: provenance-on t{t} diverged from the off baseline");
            return Ok(ExitCode::FAILURE);
        }
        if stats.profile.prov_edges == 0 {
            eprintln!("prov-smoke: provenance-on t{t} recorded no edges");
            return Ok(ExitCode::FAILURE);
        }
        edge_counts.push(stats.profile.prov_edges);
    }
    if edge_counts.windows(2).any(|w| w[0] != w[1]) {
        eprintln!("prov-smoke: edge counts differ across thread counts: {edge_counts:?}");
        return Ok(ExitCode::FAILURE);
    }
    println!("prov-smoke: provenance is a pure sidecar at every thread count");
    Ok(ExitCode::SUCCESS)
}

/// `update [nodes]` — the CI gate for incremental view maintenance:
/// materialize Example 4.2 over the seeded registry with provenance on,
/// apply one fixed corporate event (a new company 60%-owned by the first
/// registered company, plus retraction of the registry's first shareholding
/// edge), and require the incrementally maintained control relation to
/// match a from-scratch chase over the updated input — at 1 and 4 worker
/// threads, without ever taking the rebuild fallback. Exits non-zero on
/// divergence or fallback.
fn run_update_smoke(nodes: usize) -> Result<ExitCode> {
    let g = bench_graph(nodes);
    println!("update-smoke: {nodes} nodes, {} OWNS edges", g.edge_count());
    for t in [1usize, 4] {
        let t0 = std::time::Instant::now();
        let (engine, mut db, _) = control_vadalog_prov(&g, t)?;
        let full_secs = t0.elapsed().as_secs_f64();
        let owner = first_company(&db)?;
        // Retract a majority stake when one exists: such an edge necessarily
        // supports a derived control fact, so the deletion exercises the
        // real DRed over-delete/re-derive cycle, not just an EDB tombstone.
        let gone = db
            .facts_iter("own")
            .find(|f| f[2].as_f64().is_some_and(|w| w > 0.5))
            .or_else(|| db.facts_iter("own").next())
            .ok_or_else(|| {
                KgmError::Internal("update-smoke: registry has no shareholdings".into())
            })?;
        let mut update = incorporation(&owner, 0);
        update.deletes.push(("own".to_string(), gone.clone()));
        let t0 = std::time::Instant::now();
        let stats = engine.apply_update(&mut db, update.clone())?;
        let update_secs = t0.elapsed().as_secs_f64();
        println!(
            "  t{t}: full chase {full_secs:.2}s, update {update_secs:.3}s \
             ({} inserted, {} deleted, {} over-deleted, {} re-derived)",
            stats.profile.update_inserted,
            stats.profile.update_deleted,
            stats.profile.update_overdeleted,
            stats.profile.update_rederived,
        );
        if stats.profile.update_fallbacks != 0 {
            eprintln!("update-smoke: t{t} took the rebuild fallback");
            return Ok(ExitCode::FAILURE);
        }
        let incremental = control_digest(&control_pairs(&db));
        // From-scratch reference: the same registry minus the retracted
        // edge, plus the incorporation facts, chased from nothing.
        let mut loaded = FactDb::new();
        load_shareholding(&g, &mut loaded)?;
        let mut companies: Vec<Vec<Value>> = loaded.facts_iter("company").collect();
        companies.push(update.inserts[0].1.clone());
        let mut own: Vec<Vec<Value>> = loaded.facts_iter("own").filter(|f| *f != gone).collect();
        own.push(update.inserts[1].1.clone());
        let mut scratch = FactDb::new();
        scratch.add_facts("company", companies)?;
        scratch.add_facts("own", own)?;
        let reference = Engine::with_config(
            parse_program(CONTROL_VADALOG)?,
            EngineConfig {
                threads: t,
                ..Default::default()
            },
        )?;
        reference.run(&mut scratch)?;
        let from_scratch = control_digest(&control_pairs(&scratch));
        if incremental != from_scratch {
            eprintln!(
                "update-smoke: t{t} incremental digest {incremental:016x} \
                 != from-scratch {from_scratch:016x}"
            );
            return Ok(ExitCode::FAILURE);
        }
    }
    println!("update-smoke: incremental maintenance matches from-scratch at 1 and 4 threads");
    Ok(ExitCode::SUCCESS)
}

/// Build the mixed read workload for the `gates` readers from the currently
/// published epoch: mostly point lookups over real `own` rows (every
/// fourth one a deliberate miss), a spread of aggregates, and an
/// occasional path / Cypher query (the expensive tail — each forces the
/// per-epoch graph projection, so its cost recurs with every published
/// epoch a reader lands on).
fn serve_query_mix(layer: &ServingLayer, batch: usize) -> Vec<String> {
    let pin = layer.pin();
    let own: Vec<Vec<Value>> = pin.rows("own").to_vec();
    assert!(!own.is_empty(), "gates registry has no shareholdings");
    let lit = |v: &Value| -> String {
        match v {
            Value::Oid(o) => format!("#{}", o.payload()),
            Value::Float(f) => format!("{f:?}"),
            Value::Int(i) => i.to_string(),
            other => panic!("unexpected own value {other:?}"),
        }
    };
    let aggregates = [
        "count control".to_string(),
        "count own".to_string(),
        "sum own 2".to_string(),
        "max own 2".to_string(),
    ];
    let mut queries = Vec::with_capacity(batch);
    let mut i = 0usize;
    while queries.len() < batch {
        let slot = queries.len() % 256;
        let q = match slot {
            // ~0.8% of the mix is the graph-projection tail.
            0 => "path own".to_string(),
            1 => "cypher (c:company) return c".to_string(),
            // ~12% aggregates.
            s if s % 8 == 2 => aggregates[(s / 8) % aggregates.len()].clone(),
            // The rest: point lookups, every fourth a guaranteed miss (no
            // shareholding weight is ever 9.9 in the generator).
            s => {
                i += 1;
                let row = &own[i % own.len()];
                let w = if s % 4 == 3 {
                    "9.9".to_string()
                } else {
                    lit(&row[2])
                };
                format!("point own({}, {}, {w})", lit(&row[0]), lit(&row[1]))
            }
        };
        queries.push(q);
    }
    queries
}

/// Run one batch of queries: split `queries` across `readers` scoped
/// threads, each pinning the current epoch and re-pinning every 256
/// queries (so a long batch observes the live update stream). Returns the
/// number of result rows touched, as a do-not-optimize sink.
fn serve_run_batch(layer: &ServingLayer, queries: &[String], readers: usize) -> Result<usize> {
    std::thread::scope(|s| {
        let chunk = queries.len().div_ceil(readers);
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|slice| {
                s.spawn(move || -> Result<usize> {
                    let mut rows = 0usize;
                    let mut pin = layer.pin();
                    for (qi, q) in slice.iter().enumerate() {
                        if qi % 256 == 255 {
                            pin = layer.pin();
                        }
                        rows += pin.query(q)?.rows.len();
                    }
                    Ok(rows)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("gates reader panicked"))
            .sum()
    })
}

/// One incorporation event: a new company, distinct for every `serial`, of
/// which `owner` holds 60%.
fn incorporation(owner: &Value, serial: u64) -> Update {
    let newco = Value::Oid(Oid::new(OidSpace::Ground, (1 << 40) + serial));
    Update {
        inserts: vec![
            ("company".to_string(), vec![newco.clone()]),
            (
                "own".to_string(),
                vec![owner.clone(), newco, Value::Float(0.6)],
            ),
        ],
        deletes: Vec::new(),
    }
}

/// The first registered company of a chased control database.
fn first_company(db: &FactDb) -> Result<Value> {
    let company = db
        .facts_iter("company")
        .next()
        .ok_or_else(|| KgmError::Internal("registry has no companies".into()))?;
    Ok(company[0].clone())
}

/// Time one leg of `gates`: one warm-up call sizes a batch of calls lasting
/// about 5 ms (1 to 100,000 calls), then each of 5 samples is the mean time
/// of a call over one batch, in ns. Returned sorted ascending.
fn sample<R>(mut f: impl FnMut() -> Result<R>) -> Result<Vec<f64>> {
    let t0 = Instant::now();
    black_box(f()?);
    // A warm-up under the clock's resolution reads 0: then 1,000 calls.
    let calls = 5_000_000u128
        .checked_div(t0.elapsed().as_nanos())
        .map_or(1_000, |n| n.clamp(1, 100_000));
    let mut samples = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..calls {
            black_box(f()?);
        }
        samples.push(t.elapsed().as_nanos() as f64 / calls as f64);
    }
    samples.sort_by(f64::total_cmp);
    Ok(samples)
}

/// Nearest-rank percentile `p` of non-empty ascending `samples`: 0 is the
/// fastest sample.
fn percentile(samples: &[f64], p: f64) -> f64 {
    samples[(p / 100.0 * (samples.len() - 1) as f64).round() as usize]
}

/// One timing gate: the `percentile` of one leg over the same percentile of
/// its reference leg must stay under `bound`, or at it when `inclusive`.
struct Gate {
    name: &'static str,
    percentile: f64,
    bound: f64,
    inclusive: bool,
}

/// Recording why-provenance costs under 2x the plain chase (fastest samples).
const PROVENANCE: Gate = Gate {
    name: "provenance",
    percentile: 0.0,
    bound: 2.0,
    inclusive: false,
};
/// One incorporation through `apply_update` costs under 0.10x a full
/// provenance-on chase (fastest samples): incremental maintenance must not
/// pay for the whole chase again.
const UPDATE: Gate = Gate {
    name: "update",
    percentile: 0.0,
    bound: 0.10,
    inclusive: false,
};
/// A batch split over 4 readers takes at most 1.10x the batch on 1 reader
/// (medians: the writer grows the registry as the legs run, so the fastest
/// sample drifts). A global lock across readers would show up as a
/// multiple; the gate is about lock-freedom, not speed-up, so it holds on
/// fewer cores than readers too.
const READERS: Gate = Gate {
    name: "readers",
    percentile: 50.0,
    bound: 1.10,
    inclusive: true,
};

impl Gate {
    /// The ratio of `leg` to `reference` on this gate's percentile, and
    /// whether it is within the bound.
    fn judge(&self, leg: &[f64], reference: &[f64]) -> (f64, bool) {
        let ratio = percentile(leg, self.percentile) / percentile(reference, self.percentile);
        let holds = if self.inclusive {
            ratio <= self.bound
        } else {
            ratio < self.bound
        };
        (ratio, holds)
    }
}

/// `gates` — CI's three timing gates, every leg timed in this process:
/// - provenance: `control_vadalog` vs `control_vadalog_prov` at the default
///   thread count, on the 400-node registry;
/// - update: a full `control_vadalog_prov` at one thread vs one
///   [`incorporation`] per call through `apply_update` on the chased
///   store, on the 2,000-node registry;
/// - readers: 4,096-query [`serve_query_mix`] batches at 1 and 4 readers,
///   while a writer thread streams incorporations through
///   `apply_update_serving` on the 2,000-node registry.
///
/// Prints min, median and p95 of every leg and each gate's ratio. Exits
/// non-zero naming every gate that fails, and fails the readers gate if
/// the writer applied no update. A noisy leg (p95 well above min) is
/// printed, not failed: on two cores a reader leg's p95 can exceed twice
/// its min.
fn run_gates() -> Result<ExitCode> {
    let small = bench_graph(400);
    let plain = sample(|| control_vadalog(&small))?;
    let prov = sample(|| control_vadalog_prov(&small, EngineConfig::default().threads))?;

    let g = bench_graph(2_000);
    let full = sample(|| control_vadalog_prov(&g, 1))?;
    let (engine, mut db, _) = control_vadalog_prov(&g, 1)?;
    let owner = first_company(&db)?;
    let mut serial = 0;
    let update = sample(|| {
        serial += 1;
        engine.apply_update(&mut db, incorporation(&owner, serial))
    })?;

    let (engine, mut db, stats) = control_vadalog_prov(&g, 1)?;
    let layer = ServingLayer::new();
    layer.publish(&db, stats.termination);
    let queries = serve_query_mix(&layer, 4_096);
    let stop = AtomicBool::new(false);
    let (readers, updates) = std::thread::scope(|s| {
        let writer = s.spawn(|| -> Result<u64> {
            let mut serial = 0;
            while !stop.load(Ordering::Acquire) {
                serial += 1;
                engine.apply_update_serving(&mut db, incorporation(&owner, serial), &layer)?;
            }
            Ok(serial)
        });
        let readers: Result<Vec<Vec<f64>>> = [1, 4]
            .into_iter()
            .map(|r| sample(|| serve_run_batch(&layer, &queries, r)))
            .collect();
        stop.store(true, Ordering::Release);
        (readers, writer.join().expect("gates writer panicked"))
    });
    let (readers, updates) = (readers?, updates?);

    println!("gates: 5 samples per leg, each the mean call time over a ~5 ms batch");
    let legs = [
        ("chase, 400 nodes", &plain),
        ("chase + provenance, 400 nodes", &prov),
        ("chase + provenance, 2,000 nodes", &full),
        ("one update, 2,000 nodes", &update),
        ("4,096 queries, 1 reader", &readers[0]),
        ("4,096 queries, 4 readers", &readers[1]),
    ];
    for (name, samples) in legs {
        println!(
            "  {name:<32} min {:>10}   median {:>10}   p95 {:>10}",
            telemetry::fmt_ns(percentile(samples, 0.0)),
            telemetry::fmt_ns(percentile(samples, 50.0)),
            telemetry::fmt_ns(percentile(samples, 95.0)),
        );
    }
    println!("  writer applied {updates} updates during the reader legs");
    let mut failed = Vec::new();
    for (gate, leg, reference) in [
        (PROVENANCE, &prov, &plain),
        (UPDATE, &update, &full),
        (READERS, &readers[1], &readers[0]),
    ] {
        let (ratio, holds) = gate.judge(leg, reference);
        println!(
            "  {:<10} ratio {ratio:.4} at p{} (bound {} {})  {}",
            gate.name,
            gate.percentile,
            if gate.inclusive { "<=" } else { "<" },
            gate.bound,
            if holds { "ok" } else { "FAILED" },
        );
        if !holds {
            failed.push(gate.name);
        }
    }
    if updates == 0 {
        failed.push("readers (the writer applied no update)");
    }
    if failed.is_empty() {
        return Ok(ExitCode::SUCCESS);
    }
    eprintln!("gates: failed: {}", failed.join(", "));
    Ok(ExitCode::FAILURE)
}

/// Assemble the machine-readable run report: captured span trees plus the
/// global metrics snapshot.
fn run_report_json(cmd: &str, spans: &[telemetry::SpanNode]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"experiment\": \"{cmd}\",\n"));
    out.push_str("  \"spans\": [");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&s.to_json());
    }
    out.push_str("],\n");
    out.push_str("  \"metrics\": ");
    out.push_str(&telemetry::snapshot().to_json());
    out.push_str("\n}\n");
    out
}

fn validate_json_files(files: &[String]) -> ExitCode {
    let mut failed = false;
    for f in files {
        let verdict = fs::read_to_string(f)
            .map_err(|e| e.to_string())
            .and_then(|text| {
                if f.ends_with(".jsonl") {
                    kgm_runtime::json::validate_jsonl(&text)
                } else {
                    kgm_runtime::json::validate(&text)
                }
            });
        match verdict {
            Ok(()) => println!("ok    {f}"),
            Err(e) => {
                println!("FAIL  {f}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn run_cli() -> Result<ExitCode> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let profile = raw.iter().any(|a| a == "--profile");
    let trace = raw.iter().any(|a| a == "--trace");
    // `--threads N` (or `--threads=N`) pins the chase worker count for the
    // whole run by setting KGM_THREADS before any engine is constructed —
    // every EngineConfig::default() downstream picks it up. Results are
    // bit-identical for any value; only wall-clock changes.
    let mut threads_flag: Option<usize> = None;
    let mut args: Vec<String> = Vec::new();
    let mut iter = raw.iter();
    while let Some(a) = iter.next() {
        if let Some(v) = a.strip_prefix("--threads=") {
            threads_flag = Some(parse_arg("--threads", v)?);
        } else if a == "--threads" {
            let v = iter.next().map_or("", String::as_str);
            threads_flag = Some(parse_arg("--threads", v)?);
        } else if !a.starts_with("--") {
            args.push(a.clone());
        }
    }
    if let Some(n) = threads_flag {
        std::env::set_var("KGM_THREADS", n.max(1).to_string());
    }
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    // Positional argument `i` (named `what` in an error), or `default` when
    // it is absent.
    let num = |i: usize, what: &str, default: usize| -> Result<usize> {
        args.get(i).map_or(Ok(default), |s| parse_arg(what, s))
    };
    match cmd {
        "validate-json" => return Ok(validate_json_files(&args[1..])),
        "scale-smoke" => return run_scale_smoke(num(1, "scale-smoke nodes", 100_000)?),
        "explain" => {
            let pair = args.get(2..).unwrap_or(&[]);
            return run_explain(num(1, "explain nodes", 400)?, pair);
        }
        "prov-smoke" => return run_prov_smoke(num(1, "prov-smoke nodes", 2_000)?),
        "update" => return run_update_smoke(num(1, "update nodes", 2_000)?),
        "gates" if args.len() > 1 => {
            return Err(KgmError::parse("argument", "gates takes no arguments"))
        }
        "gates" => return run_gates(),
        _ => {}
    }
    if trace {
        telemetry::force_trace(true);
    }
    let collector = profile.then(telemetry::Collector::install);
    match cmd {
        "e1" => run_e1(num(1, "e1 nodes", 100_000)?)?,
        "e2" => run_e2()?,
        "e3" => run_e3()?,
        "e4" => run_e4()?,
        "e5" => run_e5()?,
        "e6" => run_e6(num(1, "e6 nodes", 2_000)?)?,
        "e7" => match args.get(1) {
            Some(list) => run_e7(&e7_sizes(list)?)?,
            None => run_e7(&[1_000, 2_000, 5_000, 10_000])?,
        },
        "e8" => run_e8(num(1, "e8 nodes", 2_000)?)?,
        "e9" => run_e9()?,
        "e10" => run_e10(num(1, "e10 nodes", 1_000)?)?,
        "all" => {
            run_e1(50_000)?;
            println!();
            run_e2()?;
            println!();
            run_e3()?;
            println!();
            run_e4()?;
            println!();
            run_e5()?;
            println!();
            run_e6(2_000)?;
            println!();
            run_e7(&[500, 1_000, 2_000, 5_000])?;
            println!();
            run_e8(2_000)?;
            println!();
            run_e9()?;
            println!();
            run_e10(1_000)?;
        }
        other => {
            eprintln!("unknown experiment `{other}`; use e1..e10 or all");
            return Ok(ExitCode::from(2));
        }
    }
    if let Some(collector) = collector {
        let spans = collector.finish();
        println!("\nprofile: {} root span(s) captured", spans.len());
        for s in &spans {
            print!("{}", s.render_tree());
        }
        let report = run_report_json(cmd, &spans);
        save(&format!("run_report_{cmd}.json"), &report)?;
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run_cli() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("paper-harness: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_arguments_are_errors_that_name_them() {
        assert_eq!(parse_arg::<usize>("e1 nodes", "20000").unwrap(), 20_000);
        for raw in ["abc", "1k", "four", "", "-3", "2.5"] {
            let e = parse_arg::<usize>("--threads", raw).unwrap_err();
            let e = e.to_string();
            assert!(e.contains("--threads"), "{e}");
            assert!(e.contains(&format!("`{raw}`")), "{e}");
        }
        assert_eq!(e7_sizes("1000,2000").unwrap(), vec![1_000, 2_000]);
        for list in ["abc", "", ",", "1000,abc", "1000,"] {
            let e = e7_sizes(list).unwrap_err().to_string();
            assert!(e.contains("e7 size"), "{list:?}: {e}");
        }
    }

    /// Five sorted samples with the given fastest and median values.
    fn samples(min: f64, median: f64) -> Vec<f64> {
        vec![min, median, median, median, 2.0 * median]
    }

    #[test]
    fn gates_hold_their_bounds() {
        let reference = samples(1.0, 1.0);
        let (under, over) = (1.0 - 1e-9, 1.0 + 1e-9);
        assert_eq!(
            (PROVENANCE.bound, UPDATE.bound, READERS.bound),
            (2.0, 0.10, 1.10)
        );
        // Strict, on the fastest samples: a median far over the bound does
        // not fail them.
        for gate in [&PROVENANCE, &UPDATE] {
            let b = gate.bound;
            let holds = |min: f64| gate.judge(&samples(min, 10.0 * b), &reference).1;
            assert!(holds(b * under), "{}", gate.name);
            assert!(!holds(b), "{}", gate.name);
            assert!(!holds(b * over), "{}", gate.name);
        }
        // At most the bound, on the medians: a fastest sample far under the
        // bound does not pass it.
        let b = READERS.bound;
        let holds = |median: f64| READERS.judge(&samples(0.1 * b, median), &reference).1;
        assert!(holds(b * under));
        assert!(holds(b));
        assert!(!holds(b * over));
        let (ratio, _) = READERS.judge(&samples(0.5, 1.5), &samples(1.0, 2.0));
        assert_eq!(ratio, 0.75);
    }
}
