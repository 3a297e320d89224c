//! `kgbench` — the repository's benchmark: four seeded workloads over the
//! company-control knowledge graph, end-to-end metrics from untraced runs
//! and per-layer metrics from traced ones.
//!
//! ```text
//! kgbench run --workload W --seed S [--seconds N] [--trace 0|1]
//! kgbench all --seed S [--seconds N]
//! kgbench compare BASE.json[,BASE.json…] HEAD.json[,HEAD.json…]
//! ```
//!
//! It is a binary of `kgm-bench`, found by Cargo's target discovery. Run it
//! from the repository root:
//! `cargo run --release -p kgm-bench --bin kgbench -- all --seed 1`;
//! `cargo test -p kgm-bench --bin kgbench` runs its tests.
//! `BENCHMARK.json` at the root names the workloads, the metrics with
//! their units and directions, the bounds and `run_seconds` (the default
//! for `--seconds`).
//!
//! - `run` runs one workload in this process. It prints every metric it
//!   measured as a `workload metric value unit` line, comment lines
//!   starting with `#`, and, last, one JSON object: `correct`, `attempted`,
//!   `failed` and `metrics`, which holds the `end_to_end` metrics of
//!   `BENCHMARK.json` with `--trace 0` and the `per_layer` ones with
//!   `--trace 1`. A traced run also writes its layer split and merged span
//!   tree to `target/kgbench/trace-<workload>-<seed>.json`.
//! - `all` runs every workload untraced and traced, each in a child
//!   process (so `peak_rss_mb` is per workload), prints every metric plus
//!   `error_rate`, writes `target/kgbench/run-<seed>.json` with the machine
//!   record (`nproc`, commit, `EngineConfig::default().threads`, seed,
//!   scales), and exits non-zero if any check failed.
//! - `compare` applies the `BENCHMARK.json` bounds to two sets of run files
//!   and names, for each regressed workload, the per-layer metric that
//!   moved most. It exits non-zero if anything regressed.
//!
//! The benchmark writes only under `target/`; it never touches the
//! repository-root `BENCH_*.json` trajectory files.
//!
//! # Workloads
//!
//! Registries come from `generate_shareholding` with
//! `ShareholdingConfig::seed` set to `--seed`; the event and query streams
//! derive from the same seed, so a seed fixes every input. Each run sets up
//! several times (`setup_s` is the median), then runs passes of fixed
//! work — each pass the same in every run with that seed — while the next
//! pass is expected to end within `--seconds` (at least one pass), and
//! checks every output untimed.
//!
//! - `pipeline_100k`: `materialize(CONTROL_METALOG, SinglePass)` over a
//!   100k-node registry, freshly generated (untimed) for every pass. A pass
//!   is one materialization, its one operation. 25 set-ups.
//! - `chase_1m`: Example 4.2 over a 1M-node registry: `parse_program` +
//!   `Engine::with_config`, `load_shareholding` and `Engine::run` at
//!   `EngineConfig::default().threads`. A pass is one such chase. Five
//!   set-ups.
//! - `update_20k`: a 20k-node registry materialized with provenance, then
//!   2000 events of the seeded stream (in every window of ten events: five
//!   incorporate, four acquire, one divest of a live majority stake)
//!   through `Engine::apply_update` on one thread. The operation is one
//!   event; a pass is the 2000 events from a fresh set-up, so the store
//!   grows the same way in every pass. 45 set-ups.
//! - `serve_20k`: the same set-up and event stream in 400 lock-step ticks
//!   per pass (about 20 seconds on two cores). At the start of tick k the
//!   current epoch is pinned; the
//!   writer (engine at `nproc − 1` threads) applies event k and publishes
//!   the next epoch while one reader thread answers a 256-query batch on
//!   the pinned epoch: `path controls` at slots 0 (builds the projection)
//!   and 128, Cypher at slot 1, 32 aggregates, and point lookups on seeded
//!   `own` rows, every fourth a guaranteed miss. The tick ends when both
//!   sides are done. The operation is one query. 45 set-ups.
//!
//! Thread budget: one workload process at a time, and no more busy threads
//! than `nproc` — the default thread count for the two chases, one thread
//! for `update_20k`, and `nproc − 1` writer threads plus one reader thread
//! for `serve_20k` (on one core the OS time-slices the two).
//!
//! # End-to-end metrics (every workload, untraced)
//!
//! - `setup_s` (bound 0.25): the median set-up: generation, plus the
//!   initial chase and publish where the workload has them.
//! - `peak_rss_mb` (bound 0.1): the process's `VmHWM`.
//!
//! The operation timings are per-layer metrics, without a bound, because
//! they cannot be held within 10% on a shared 2-vCPU VM (Intel Xeon):
//!
//! - `latency_p50_ms`: the median over passes of the pass's median
//!   operation latency (an event for `update_20k`, a query for
//!   `serve_20k`, a chase for the other two);
//! - `throughput_per_s`: the median over passes of operations completed
//!   per second of operation time (for `serve_20k`, queries per second of
//!   the tick loop);
//! - `latency_tail_ms`: the highest quantile with at least ten samples
//!   beyond it: p99 of events for `update_20k` (2000 a pass), p99.9 of
//!   queries for `serve_20k` (102k a pass; it falls among the
//!   cold-projection graph queries), and the slowest chase for the other
//!   two, which have only a handful.
//!
//! On that VM a core runs at up to 1.8× its usual time in phases of a
//! fraction of a second to several seconds, and how much of a run falls
//! in them drifts over minutes. Across ten seeds, the interquartile range
//! over the median of these timings was 0.14–0.20 for `update_20k` and
//! 0.16 for `pipeline_100k` (0.10–0.11 repeating one seed), against the
//! 10% bound an end-to-end metric gets, and longer runs do not fit the
//! benchmark's time budget. `setup_s` takes the largest bound for the
//! same reason: one set-up lasts 0.06–2 s, so the median of a run's
//! set-ups still moves with the share of slow phases (two sets of ten
//! runs differed by up to 23%).
//!
//! An operation fails when it returns `Err`, ends in a `Termination` other
//! than `Complete`, takes the rebuild fallback, returns a response marked
//! incomplete or stamped with another epoch, gives a wrong point answer or
//! count, or disagrees with the independent answer: `baseline_control` for
//! the two chases, a from-scratch chase over the final EDB for the two
//! maintenance workloads (one more attempted operation each).
//! `error_rate` = failed / attempted.
//!
//! # Per-layer metrics (every workload, traced)
//!
//! Times are measured from outside, around calls into public functions;
//! for the pipeline, the `intensional.*`, `mtv.*` and `chase.*` spans the
//! program already emits are captured too. Traced and untraced operations
//! alternate; `trace.overhead` is the ratio of their medians, and the
//! operation timings come from the untraced ones. Each span's
//! self time goes to one layer, and `share.<layer>` is that layer's part
//! of `trace.total_s` (the traced operations, summed over threads), with
//! the benchmark's own glue as `share.unattributed`. Set-ups are not
//! traced; their layers show in `gen.registry_s`, `load_s`, `compile_ms`
//! and, for the maintenance workloads, `chase.*`.
//! Metrics of a layer a workload does not exercise read 0; `store.*` reads
//! 0 for the pipeline, whose store is internal to `materialize`.
//!
//! Which end-to-end metric or operation timing each layer metric should
//! move, on which workload:
//!
//! | per-layer metric | moves | workload |
//! |---|---|---|
//! | `gen.registry_s` (`finance::generator`) | `setup_s` | all |
//! | `load_s`, `compile_ms`, `share.intensional.*`, `share.mtv`, `pipeline.reason_ratio` | `latency_p50_ms`, `throughput_per_s` | `pipeline_100k` |
//! | `chase.run_s`, `chase.rules_s`, `chase.unattributed_s`, `chase.*` counts | `latency_p50_ms`, `throughput_per_s` | `chase_1m`, `pipeline_100k` |
//! | `store.mb`, `store.facts` (`vadalog::factdb`) | `peak_rss_mb` | `chase_1m` |
//! | `share.update.insert` | `latency_p50_ms` | `update_20k` |
//! | `share.update.delete`, `update.*` | `throughput_per_s` | `update_20k` |
//! | `share.serving.publish`, `share.serving.wait` | `throughput_per_s` | `serve_20k` |
//! | `share.serving.point`, `share.serving.aggregate`, `share.serving.pin`, `serve.plan_cache_hit_ratio` | `latency_p50_ms` | `serve_20k` |
//! | `share.serving.graph` | `throughput_per_s` (and `latency_tail_ms`) | `serve_20k` |
//! | `serve.epoch_mb`, `serve.resident_epochs_max` | `peak_rss_mb` | `serve_20k` |
//!
//! Each workload also prints detail metrics that are not in
//! `BENCHMARK.json`: `materialize_s` and the load/reason/flush split for
//! the pipeline; per-rule chase times; insert and delete percentiles for
//! the maintenance workloads; query, freshness (apply + publish), publish,
//! pin and reader/writer busy and wait figures for `serve_20k`.

mod compare;
mod json;
mod measure;
mod streams;
mod workloads;

use json::{quote, Json};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Config, Workload};

/// The benchmark's contract, compiled in.
const BENCHMARK: &str = include_str!("../../../../../BENCHMARK.json");

pub struct Metric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

pub struct Spec {
    pub run_seconds: f64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn spec() -> Spec {
    let doc = json::parse(BENCHMARK).expect("BENCHMARK.json is valid JSON");
    let metrics = |key: &str| -> Vec<Metric> {
        doc.get(key)
            .map(Json::arr)
            .unwrap_or_default()
            .iter()
            .map(|m| Metric {
                name: m
                    .get("name")
                    .and_then(Json::str)
                    .unwrap_or_default()
                    .to_string(),
                unit: m
                    .get("unit")
                    .and_then(Json::str)
                    .unwrap_or_default()
                    .to_string(),
                lower_is_better: m.get("better").and_then(Json::str) == Some("lower"),
                bound: m.get("bound").and_then(Json::num).unwrap_or(0.0),
            })
            .collect()
    };
    Spec {
        run_seconds: doc.get("run_seconds").and_then(Json::num).unwrap_or(10.0),
        end_to_end: metrics("end_to_end"),
        per_layer: metrics("per_layer"),
    }
}

/// The value of `--name`.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)
        .map(|v| v.parse().map_err(|_| format!("{name}: cannot parse `{v}`")))
        .transpose()
}

fn run_one(args: &[String], spec: &Spec) -> Result<ExitCode, String> {
    let name = flag(args, "--workload").ok_or("run needs --workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let cfg = Config {
        workload,
        seed: parsed(args, "--seed")?.ok_or("run needs --seed")?,
        seconds: parsed(args, "--seconds")?.unwrap_or(spec.run_seconds),
        trace,
        nodes: workload.nodes(),
        pass_len: workload.pass_len(),
    };
    let rep = workloads::run(&cfg).map_err(|e| format!("{name}: {e}"))?;
    for (metric, value, unit) in &rep.metrics {
        println!("{name} {metric} {value} {unit}");
    }
    for note in &rep.notes {
        println!("# {note}");
    }
    if let Some(doc) = &rep.trace {
        let path = format!("target/kgbench/trace-{name}-{}.json", cfg.seed);
        std::fs::create_dir_all("target/kgbench")
            .and_then(|()| std::fs::write(&path, doc))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("# trace written to {path}");
    }
    for why in &rep.failures {
        eprintln!("kgbench: {name}: check failed: {why}");
    }
    let wanted = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut fields = Vec::new();
    for m in wanted {
        let (value, unit) = rep
            .get(&m.name)
            .ok_or_else(|| format!("{name} did not measure `{}`", m.name))?;
        fields.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            quote(&m.name),
            quote(unit)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.failed == 0,
        rep.attempted,
        rep.failed,
        fields.join(", ")
    );
    Ok(ExitCode::SUCCESS)
}

/// Every workload untraced and traced, each in a child process.
fn run_all(args: &[String], spec: &Spec) -> Result<ExitCode, String> {
    let seed: u64 = parsed(args, "--seed")?.ok_or("all needs --seed")?;
    let seconds: f64 = parsed(args, "--seconds")?.unwrap_or(spec.run_seconds);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    let mut entries = Vec::new();
    for w in Workload::ALL {
        let (mut attempted, mut failed) = (0.0, 0.0);
        let mut metrics = Vec::new();
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .args(["run", "--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", trace])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("start {}: {e}", w.name()))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let result = text.lines().last().and_then(|l| json::parse(l).ok());
            let Some(result) = result.filter(|_| out.status.success()) else {
                eprintln!("kgbench: {} (trace {trace}) produced no result", w.name());
                ok = false;
                continue;
            };
            let num = |k: &str| result.get(k).and_then(Json::num).unwrap_or(0.0);
            attempted += num("attempted");
            failed += num("failed");
            for line in text.lines() {
                if line.starts_with('#') {
                    println!("{line}");
                    continue;
                }
                let f: Vec<&str> = line.split_whitespace().collect();
                if let [_, metric, value, unit] = f[..] {
                    // Per-layer numbers come from the traced run, all
                    // others from the untraced one.
                    let layer = spec.per_layer.iter().any(|m| m.name == metric);
                    if layer == (trace == "1") {
                        println!("{line}");
                        metrics.push(format!(
                            "{}: {{\"value\": {value}, \"unit\": {}}}",
                            quote(metric),
                            quote(unit)
                        ));
                    }
                }
            }
        }
        let error_rate = measure::ratio(failed, attempted.max(1.0));
        println!("{} error_rate {error_rate} ratio", w.name());
        ok &= failed == 0.0 && attempted > 0.0;
        entries.push(format!(
            "{}: {{\"nodes\": {}, \"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"error_rate\": {error_rate}, \"metrics\": {{{}}}}}",
            quote(w.name()),
            w.nodes(),
            failed == 0.0,
            metrics.join(", ")
        ));
    }
    let doc = format!(
        "{{\"seed\": {seed}, \"run_seconds\": {seconds}, \"nproc\": {}, \"commit\": {}, \
         \"engine_threads\": {}, \"workloads\": {{{}}}}}\n",
        measure::nproc(),
        quote(&measure::commit()),
        kgm_vadalog::EngineConfig::default().threads,
        entries.join(", ")
    );
    let path = format!("target/kgbench/run-{seed}.json");
    std::fs::create_dir_all("target/kgbench")
        .and_then(|()| std::fs::write(&path, doc))
        .map_err(|e| format!("write {path}: {e}"))?;
    println!("# results written to {path}");
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cli(args: &[String]) -> Result<ExitCode, String> {
    let spec = spec();
    match args.first().map(String::as_str) {
        Some("run") => run_one(&args[1..], &spec),
        Some("all") => run_all(&args[1..], &spec),
        Some("compare") => match &args[1..] {
            [base, head] => compare::compare(base, head, &spec),
            _ => Err("compare takes BASE.json HEAD.json".to_string()),
        },
        _ => Err("usage: kgbench run|all|compare … (see the module documentation)".to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    cli(&args).unwrap_or_else(|e| {
        eprintln!("kgbench: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_the_four_workloads() {
        let doc = json::parse(BENCHMARK).unwrap();
        let names: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .arr()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::str))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
        let spec = spec();
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
        assert!(spec.end_to_end.iter().all(|m| m.bound > 0.0));
    }

    /// Every workload at tiny scale, untraced and traced: each metric
    /// `BENCHMARK.json` names is emitted with its unit, end-to-end metrics
    /// are never 0, and no operation fails.
    #[test]
    fn every_workload_emits_every_metric_at_tiny_scale() {
        let spec = spec();
        for workload in Workload::ALL {
            for trace in [false, true] {
                // No time budget: one pass, two chases when tracing.
                let cfg = Config {
                    workload,
                    seed: 5,
                    seconds: 0.0,
                    trace,
                    nodes: 2_000,
                    pass_len: 20,
                };
                let name = workload.name();
                let rep = workloads::run(&cfg).unwrap();
                assert_eq!(rep.failed, 0, "{name}: {:?}", rep.failures);
                assert!(rep.attempted > 0, "{name}");
                let wanted = if trace {
                    &spec.per_layer
                } else {
                    &spec.end_to_end
                };
                for m in wanted {
                    let (value, unit) = rep
                        .get(&m.name)
                        .unwrap_or_else(|| panic!("{name} did not emit {}", m.name));
                    assert_eq!(unit, m.unit, "{name} {}", m.name);
                    assert!(trace || value > 0.0, "{name} {} is {value}", m.name);
                }
                assert_eq!(trace, rep.trace.is_some(), "{name}");
                if trace {
                    let (total, _) = rep.get("trace.total_s").unwrap();
                    assert!(total > 0.0, "{name}: the traced run captured no spans");
                }
            }
        }
    }
}
