//! Zero-dependency observability: hierarchical wall-clock spans, a process
//! metrics registry, and pluggable sinks.
//!
//! The workspace previously timed hot paths with scattered `Instant` pairs
//! and free-form `println!`s. This module gives every subsystem one code
//! path for timing and counting:
//!
//! - **Spans** — RAII guards ([`SpanGuard`], usually via the [`span!`]
//!   macro) form a per-thread tree of named, timed regions. Counters can be
//!   attached to the innermost open span ([`record`]) and fully-measured
//!   leaf children can be appended ([`annotate_child`], used for per-rule
//!   chase metrics whose time is accumulated rather than scoped).
//! - **Metrics** — a global registry of monotonic counters and
//!   log₂-bucketed histograms ([`counter_add`], [`histogram_record`]),
//!   snapshot-able for machine-readable reports.
//! - **Sinks** — controlled by the `KGM_LOG` environment variable
//!   (`off|summary|span|debug`, default `off`):
//!     - `summary`: one console line per finished root span;
//!     - `span`: an indented console tree per finished root span **and** a
//!       JSONL trace file under `target/kgm-trace/` (one JSON object per
//!       span, depth-first), also forceable via [`force_trace`];
//!     - `debug`: like `span`, but spans opened at [`Level::Debug`] are
//!       kept too.
//! - **Collectors** — [`Collector::install`] captures finished root spans
//!   of the current thread programmatically (regardless of `KGM_LOG`), the
//!   basis of `paper-harness --profile` run reports.
//!
//! Timing is measured whenever *anyone* is listening (sink, collector, or a
//! [`time`] caller that needs the elapsed value); with `KGM_LOG=off` and no
//! collector, `span!` is a cheap no-op.
//!
//! **Spans are thread-local.** The span tree, the active-span stack, and any
//! installed [`Collector`] all live in thread-local storage, so a span
//! opened on a `kgm_runtime::par` worker thread lands in that worker's
//! (unobserved) tree, not the caller's. Parallel code must therefore emit
//! spans and [`record`] calls only from the coordinating thread — the
//! sharded chase, for instance, times whole shard batches from the writer
//! side and folds per-worker counts into the span after the join. The
//! global *metrics* registry ([`counter_add`] & friends) is shared and safe
//! to touch from any thread.

use crate::sync::Mutex;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

// ---------------------------------------------------------------------
// Verbosity
// ---------------------------------------------------------------------

/// Console-sink verbosity, parsed once from `KGM_LOG`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verbosity {
    /// No console output, no trace file (the default).
    Off,
    /// One line per finished root span.
    Summary,
    /// Indented span tree per finished root span + JSONL trace file.
    Span,
    /// Like `Span`, and [`Level::Debug`] spans are kept too.
    Debug,
}

/// Span importance: `Debug` spans are dropped unless `KGM_LOG=debug` (or a
/// collector is installed, which always captures everything).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Always kept when telemetry is on.
    Info,
    /// Kept only under `KGM_LOG=debug` or a collector.
    Debug,
}

impl Verbosity {
    fn parse(s: &str) -> Verbosity {
        match s.trim().to_ascii_lowercase().as_str() {
            "summary" => Verbosity::Summary,
            "span" | "spans" | "trace" => Verbosity::Span,
            "debug" | "all" => Verbosity::Debug,
            _ => Verbosity::Off,
        }
    }
}

/// The active verbosity (`KGM_LOG`, read once per process).
pub fn verbosity() -> Verbosity {
    static V: OnceLock<Verbosity> = OnceLock::new();
    *V.get_or_init(|| {
        std::env::var("KGM_LOG")
            .map(|s| Verbosity::parse(&s))
            .unwrap_or(Verbosity::Off)
    })
}

static FORCE_TRACE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Force the JSONL trace sink on (equivalent to `KGM_LOG=span` for the file
/// sink only) — used by `paper-harness --trace`.
pub fn force_trace(on: bool) {
    FORCE_TRACE.store(on, std::sync::atomic::Ordering::Relaxed);
}

fn trace_enabled() -> bool {
    verbosity() >= Verbosity::Span || FORCE_TRACE.load(std::sync::atomic::Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Span tree
// ---------------------------------------------------------------------

/// One finished span: a named, timed region with attached counters and
/// nested children.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanNode {
    /// Dotted span name, e.g. `chase.stratum`.
    pub name: String,
    /// Free-form detail (stratum number, predicate name, …).
    pub detail: String,
    /// Wall-clock duration in nanoseconds.
    pub elapsed_ns: u128,
    /// Counters recorded while the span was the innermost open one.
    pub counters: Vec<(String, i64)>,
    /// Nested spans, in open order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Elapsed milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed_ns as f64 / 1e6
    }

    /// Total number of spans in this subtree (including `self`).
    pub fn span_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(SpanNode::span_count)
            .sum::<usize>()
    }

    /// Depth-first search for the first span named `name`.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// The value of counter `key` on this span, if recorded.
    pub fn counter(&self, key: &str) -> Option<i64> {
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
    }

    /// Render the subtree as the human-readable console tree.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        let label = if self.detail.is_empty() {
            self.name.clone()
        } else {
            format!("{} [{}]", self.name, self.detail)
        };
        let w = 44usize.saturating_sub(depth * 2);
        let _ = write!(out, "▸ {label:<w$} {:>10}", fmt_ns(self.elapsed_ns as f64));
        for (k, v) in &self.counters {
            let _ = write!(out, "  {k}={v}");
        }
        out.push('\n');
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }

    /// Serialize the subtree as one JSON object (hand-rolled, matching the
    /// hermetic-codec policy of the workspace).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.json_into(&mut out);
        out
    }

    fn json_into(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"detail\": \"{}\", \"elapsed_ns\": {}, \"counters\": {{",
            escape_json(&self.name),
            escape_json(&self.detail),
            self.elapsed_ns
        );
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {v}", escape_json(k));
        }
        out.push_str("}, \"children\": [");
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            c.json_into(out);
        }
        out.push_str("]}");
    }
}

/// Render nanoseconds human-readably (ns/µs/ms/s).
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// Per-thread telemetry state: the open-span stack and an optional capture
// buffer for finished root spans (the Collector).
struct ThreadState {
    stack: Vec<SpanNode>,
    capture: Option<Vec<SpanNode>>,
}

thread_local! {
    static STATE: RefCell<ThreadState> = const {
        RefCell::new(ThreadState {
            stack: Vec::new(),
            capture: None,
        })
    };
}

fn listening() -> bool {
    verbosity() != Verbosity::Off || trace_enabled() || STATE.with(|s| s.borrow().capture.is_some())
}

/// RAII guard for one span. Create via [`span!`] (or [`SpanGuard::enter`]);
/// the span closes when the guard drops.
pub struct SpanGuard {
    start: Option<Instant>,
}

impl SpanGuard {
    /// Open a span at [`Level::Info`].
    pub fn enter(name: impl Into<String>, detail: String) -> SpanGuard {
        SpanGuard::enter_level(Level::Info, name, detail)
    }

    /// Open a span at an explicit level. A no-op guard is returned when
    /// nobody is listening (or the level is filtered out).
    pub fn enter_level(level: Level, name: impl Into<String>, detail: String) -> SpanGuard {
        let keep = match level {
            Level::Info => listening(),
            Level::Debug => {
                verbosity() >= Verbosity::Debug || STATE.with(|s| s.borrow().capture.is_some())
            }
        };
        if !keep {
            return SpanGuard { start: None };
        }
        STATE.with(|s| {
            s.borrow_mut().stack.push(SpanNode {
                name: name.into(),
                detail,
                ..SpanNode::default()
            })
        });
        SpanGuard {
            start: Some(Instant::now()),
        }
    }

    /// Is this guard actually recording?
    pub fn is_active(&self) -> bool {
        self.start.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = start.elapsed().as_nanos();
        STATE.with(|s| {
            let mut st = s.borrow_mut();
            let Some(mut node) = st.stack.pop() else {
                return;
            };
            node.elapsed_ns = elapsed;
            if let Some(parent) = st.stack.last_mut() {
                parent.children.push(node);
            } else {
                finish_root(&mut st, node);
            }
        });
    }
}

/// Attach (or bump) a counter on the innermost open span. No-op outside an
/// active span.
pub fn record(key: &str, value: i64) {
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        if let Some(top) = st.stack.last_mut() {
            if let Some(entry) = top.counters.iter_mut().find(|(k, _)| k == key) {
                entry.1 += value;
            } else {
                top.counters.push((key.to_string(), value));
            }
        }
    });
}

/// The process's peak and current resident set in KiB: `VmHWM` and
/// `VmRSS` of `/proc/self/status`. `None` where that file, or either line,
/// is missing.
pub fn resident_kib() -> Option<(i64, i64)> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let field = |key: &str| -> Option<i64> {
        let line = status.lines().find_map(|l| l.strip_prefix(key))?;
        line.trim().strip_suffix("kB")?.trim().parse().ok()
    };
    Some((field("VmHWM:")?, field("VmRSS:")?))
}

/// Record the process's `vm_hwm_kib` and `vm_rss_kib` ([`resident_kib`])
/// on the innermost open span, as a phase closes. Reads nothing when no
/// span is open, and records nothing where the figures are missing.
pub fn record_resident() {
    if STATE.with(|s| s.borrow().stack.is_empty()) {
        return;
    }
    if let Some((hwm, rss)) = resident_kib() {
        record("vm_hwm_kib", hwm);
        record("vm_rss_kib", rss);
    }
}

/// Append a fully-measured leaf child to the innermost open span — for
/// metrics whose time is accumulated across many disjoint slices (per-rule
/// chase totals) rather than scoped by one guard.
pub fn annotate_child(name: &str, detail: &str, elapsed_ns: u128, counters: Vec<(String, i64)>) {
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        if let Some(top) = st.stack.last_mut() {
            top.children.push(SpanNode {
                name: name.to_string(),
                detail: detail.to_string(),
                elapsed_ns,
                counters,
                children: Vec::new(),
            });
        }
    });
}

fn finish_root(st: &mut ThreadState, root: SpanNode) {
    match verbosity() {
        Verbosity::Summary => {
            println!(
                "[kgm] {}{} {} ({} spans)",
                root.name,
                if root.detail.is_empty() {
                    String::new()
                } else {
                    format!(" [{}]", root.detail)
                },
                fmt_ns(root.elapsed_ns as f64),
                root.span_count()
            );
        }
        Verbosity::Span | Verbosity::Debug => print!("{}", root.render_tree()),
        Verbosity::Off => {}
    }
    if trace_enabled() {
        write_trace(&root);
    }
    if let Some(buf) = st.capture.as_mut() {
        buf.push(root);
    }
}

/// Run `f` inside a span and return `(result, elapsed_ms)` — the one code
/// path for "time this phase and keep the number".
pub fn time<R>(name: &str, detail: String, f: impl FnOnce() -> R) -> (R, f64) {
    let guard = SpanGuard::enter(name, detail);
    let t = Instant::now();
    let r = f();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    drop(guard);
    (r, ms)
}

/// Open a span: `span!("chase.stratum")` or `span!("chase.stratum", "{s}")`.
/// Bind the returned guard (`let _g = span!(..)`) — dropping it closes the
/// span.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::telemetry::SpanGuard::enter($name, String::new())
    };
    ($name:expr, $($arg:tt)+) => {
        $crate::telemetry::SpanGuard::enter($name, format!($($arg)+))
    };
}

/// Open a [`Level::Debug`] span (kept only under `KGM_LOG=debug` or a
/// collector).
#[macro_export]
macro_rules! span_debug {
    ($name:expr) => {
        $crate::telemetry::SpanGuard::enter_level(
            $crate::telemetry::Level::Debug, $name, String::new())
    };
    ($name:expr, $($arg:tt)+) => {
        $crate::telemetry::SpanGuard::enter_level(
            $crate::telemetry::Level::Debug, $name, format!($($arg)+))
    };
}

// ---------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------

/// Captures every root span finished on the current thread between
/// [`Collector::install`] and [`Collector::finish`]. Nesting is not
/// supported: installing replaces any previous capture buffer.
pub struct Collector {
    _private: (),
}

impl Collector {
    /// Start capturing root spans on this thread.
    pub fn install() -> Collector {
        STATE.with(|s| s.borrow_mut().capture = Some(Vec::new()));
        Collector { _private: () }
    }

    /// Stop capturing and return the finished root spans in order.
    pub fn finish(self) -> Vec<SpanNode> {
        STATE.with(|s| s.borrow_mut().capture.take().unwrap_or_default())
    }
}

// ---------------------------------------------------------------------
// JSONL trace sink
// ---------------------------------------------------------------------

/// The trace directory: `KGM_TRACE_DIR` or `target/kgm-trace` (cwd-relative).
pub fn trace_dir() -> PathBuf {
    std::env::var_os("KGM_TRACE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target").join("kgm-trace"))
}

/// Monotonic per-process counter for trace file names. Starts at 0 and
/// only moves forward, so even if the sink were re-initialized the names
/// keep advancing.
static TRACE_SEQ: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);

/// Pick a run-unique trace file path in `dir`: `trace-<pid>-<n>.jsonl` for
/// the first monotonic counter value `n` whose file does not already
/// exist. Pids recycle, so a bare `trace-<pid>.jsonl` could silently
/// append to a *previous* process's trace; probing the counter forward
/// guarantees back-to-back (and concurrent same-pid-namespace) runs each
/// get a fresh file.
pub fn unique_trace_path(dir: &std::path::Path, pid: u32) -> PathBuf {
    loop {
        let n = TRACE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = dir.join(format!("trace-{pid}-{n}.jsonl"));
        if !path.exists() {
            return path;
        }
        // Name taken (leftover from a recycled pid): advance and retry. The
        // counter is u32-bounded, which no real directory approaches.
    }
}

/// The trace file path this process will write to (`trace-<pid>-<n>.jsonl`),
/// chosen once per process on first use.
pub fn trace_path() -> PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| unique_trace_path(&trace_dir(), std::process::id()))
        .clone()
}

fn write_trace(root: &SpanNode) {
    static FILE: OnceLock<Option<Mutex<std::fs::File>>> = OnceLock::new();
    let file = FILE.get_or_init(|| {
        let dir = trace_dir();
        if std::fs::create_dir_all(&dir).is_err() {
            return None;
        }
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(trace_path())
            .ok()
            .map(Mutex::new)
    });
    let Some(file) = file else { return };
    // One line per span, depth-first, with a slash-joined path for grep-able
    // context (`chase.run/chase.stratum`).
    let mut lines = String::new();
    fn walk(n: &SpanNode, path: &str, out: &mut String) {
        let here = if path.is_empty() {
            n.name.clone()
        } else {
            format!("{path}/{}", n.name)
        };
        let _ = write!(
            out,
            "{{\"path\": \"{}\", \"detail\": \"{}\", \"elapsed_ns\": {}, \"counters\": {{",
            escape_json(&here),
            escape_json(&n.detail),
            n.elapsed_ns
        );
        for (i, (k, v)) in n.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {v}", escape_json(k));
        }
        out.push_str("}}\n");
        for c in &n.children {
            walk(c, &here, out);
        }
    }
    walk(root, "", &mut lines);
    let mut f = file.lock();
    let _ = f.write_all(lines.as_bytes());
}

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

/// A log₂-bucketed histogram of non-negative integer observations: bucket
/// `i` holds values whose bit length is `i` (bucket 0 ⇔ value 0). Covers
/// the full `u64` range in 65 buckets at O(1) record cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Record one observation.
    pub fn record(&mut self, v: u64) {
        let bucket = (64 - v.leading_zeros()) as usize; // 0 for v == 0
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Maximum observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Upper bound (inclusive) of the smallest bucket containing the given
    /// quantile — a log-scale percentile estimate.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target.max(1) {
                return bucket_bound(i);
            }
        }
        u64::MAX
    }

    /// `(bucket_upper_bound, count)` pairs for non-empty buckets.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_bound(i), c))
            .collect()
    }
}

/// Inclusive upper bound of bucket `i`: the largest value of bit length `i`
/// (`u64::MAX` for bucket 64).
fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        u64::MAX >> (64 - i)
    }
}

#[derive(Default)]
struct MetricsInner {
    counters: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

fn metrics() -> &'static Mutex<MetricsInner> {
    static M: OnceLock<Mutex<MetricsInner>> = OnceLock::new();
    M.get_or_init(|| Mutex::new(MetricsInner::default()))
}

/// Add `delta` to the named counter (creating it at 0).
pub fn counter_add(name: &str, delta: i64) {
    let mut m = metrics().lock();
    *m.counters.entry(name.to_string()).or_insert(0) += delta;
}

/// Record one observation into the named log-scale histogram.
pub fn histogram_record(name: &str, value: u64) {
    let mut m = metrics().lock();
    m.histograms
        .entry(name.to_string())
        .or_default()
        .record(value);
}

/// A point-in-time copy of the metrics registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter name → accumulated value.
    pub counters: BTreeMap<String, i64>,
    /// Histogram name → histogram.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Serialize as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {v}", escape_json(k));
        }
        out.push_str("}, \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"count\": {}, \"mean\": {:.2}, \"max\": {}, \"p50\": {}, \"p95\": {}}}",
                escape_json(k),
                h.count(),
                h.mean(),
                h.max(),
                h.quantile_bound(0.50),
                h.quantile_bound(0.95),
            );
        }
        out.push_str("}}");
        out
    }
}

/// Copy the current metrics registry.
pub fn snapshot() -> MetricsSnapshot {
    let m = metrics().lock();
    MetricsSnapshot {
        counters: m.counters.clone(),
        histograms: m.histograms.clone(),
    }
}

/// Clear every counter and histogram (tests, per-experiment reports).
pub fn reset_metrics() {
    let mut m = metrics().lock();
    m.counters.clear();
    m.histograms.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate as kgm_runtime; // let the exported macros resolve `$crate` paths

    #[test]
    fn collector_captures_nested_spans_with_counters() {
        let c = Collector::install();
        {
            let _root = kgm_runtime::span!("outer", "detail {}", 7);
            record("hits", 2);
            record("hits", 3);
            {
                let _child = kgm_runtime::span!("inner");
                record("facts", 10);
            }
            annotate_child("leaf", "r0", 1_500, vec![("evals".into(), 4)]);
        }
        let roots = c.finish();
        assert_eq!(roots.len(), 1);
        let root = &roots[0];
        assert_eq!(root.name, "outer");
        assert_eq!(root.detail, "detail 7");
        assert_eq!(root.counter("hits"), Some(5), "records accumulate");
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].name, "inner");
        assert_eq!(root.children[0].counter("facts"), Some(10));
        assert_eq!(root.children[1].name, "leaf");
        assert_eq!(root.children[1].elapsed_ns, 1_500);
        assert_eq!(root.span_count(), 3);
        assert!(root.find("inner").is_some());
        assert!(root.find("absent").is_none());
    }

    #[test]
    fn the_resident_set_is_recorded_on_the_open_span() {
        record_resident(); // no span is open: nothing to record on
        let c = Collector::install();
        {
            let _phase = kgm_runtime::span!("phase");
            record_resident();
        }
        let phase = &c.finish()[0];
        let (hwm, rss) = (phase.counter("vm_hwm_kib"), phase.counter("vm_rss_kib"));
        if resident_kib().is_some() {
            let (hwm, rss) = (hwm.expect("VmHWM"), rss.expect("VmRSS"));
            assert!(hwm >= rss && rss > 0, "{hwm} {rss}");
        } else {
            assert!(phase.counters.is_empty(), "{:?}", phase.counters);
        }
    }

    #[test]
    fn spans_are_noops_when_nobody_listens() {
        // No collector, KGM_LOG unset in tests → guard must be inactive.
        if verbosity() == Verbosity::Off {
            let g = kgm_runtime::span!("quiet");
            assert!(!g.is_active());
        }
    }

    #[test]
    fn debug_spans_are_captured_by_collectors() {
        let c = Collector::install();
        {
            let _root = kgm_runtime::span!("r");
            let _d = kgm_runtime::span_debug!("fine", "{}", 1);
        }
        let roots = c.finish();
        assert_eq!(roots[0].children.len(), 1);
        assert_eq!(roots[0].children[0].name, "fine");
    }

    #[test]
    fn time_returns_elapsed_even_when_off() {
        let (v, ms) = time("work", String::new(), || {
            std::hint::black_box((0..10_000u64).sum::<u64>())
        });
        assert_eq!(v, 49_995_000);
        assert!(ms >= 0.0);
    }

    #[test]
    fn span_json_and_tree_render() {
        let node = SpanNode {
            name: "a".into(),
            detail: "d\"x".into(),
            elapsed_ns: 2_000_000,
            counters: vec![("k".into(), 3)],
            children: vec![SpanNode {
                name: "b".into(),
                elapsed_ns: 1_000,
                ..SpanNode::default()
            }],
        };
        let json = node.to_json();
        assert!(json.contains("\"name\": \"a\""), "{json}");
        assert!(json.contains("d\\\"x"), "{json}");
        assert!(json.contains("\"k\": 3"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let tree = node.render_tree();
        assert!(tree.contains("▸ a [d\"x]"), "{tree}");
        assert!(tree.contains("k=3"), "{tree}");
        assert!(tree.contains("  ▸ b"), "{tree}");
    }

    #[test]
    fn metrics_registry_counts_gauges_histograms() {
        // Resetting clears `config.env.invalid` under the env tests too.
        let _serial = crate::env::INVALID_COUNTER.lock();
        reset_metrics();
        counter_add("t.c", 4);
        counter_add("t.c", 1);
        for v in [0u64, 1, 1, 7, 1000] {
            histogram_record("t.h", v);
        }
        let s = snapshot();
        assert_eq!(s.counters["t.c"], 5);
        let h = &s.histograms["t.h"];
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 201.8).abs() < 1e-9);
        // p50 of [0,1,1,7,1000] lands in the bit-length-1 bucket (bound 1).
        assert_eq!(h.quantile_bound(0.5), 1);
        assert!(h.quantile_bound(0.99) >= 1000);
        let json = s.to_json();
        assert!(json.contains("\"t.c\": 5"), "{json}");
        assert!(json.contains("\"count\": 5"), "{json}");
        reset_metrics();
        assert!(snapshot().counters.is_empty());
    }

    #[test]
    fn histogram_buckets_are_log_scale() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 8, 1 << 20] {
            h.record(v);
        }
        let buckets = h.nonzero_buckets();
        // 0 → bucket 0; 1 → bound 1; 2,3 → bound 3; 4 → bound 7; 8 → 15;
        // 2^20 → bound 2^21-1.
        let bounds: Vec<u64> = buckets.iter().map(|(b, _)| *b).collect();
        assert_eq!(bounds, vec![0, 1, 3, 7, 15, (1 << 21) - 1]);
        assert_eq!(buckets[2].1, 2, "2 and 3 share a bucket");
    }

    #[test]
    fn histogram_top_bucket_bounds_the_full_u64_range() {
        let mut h = Histogram::default();
        h.record(u64::MAX);
        assert_eq!(h.quantile_bound(0.5), u64::MAX);
        assert_eq!(h.nonzero_buckets(), vec![(u64::MAX, 1)]);
        // Bucket 63 keeps its own bound below the top bucket's.
        h.record((1 << 63) - 1);
        assert_eq!(h.quantile_bound(0.5), (1 << 63) - 1);
        assert_eq!(h.nonzero_buckets(), vec![((1 << 63) - 1, 1), (u64::MAX, 1)]);
    }

    #[test]
    fn trace_paths_are_run_unique_even_when_pids_recycle() {
        let dir = std::env::temp_dir().join(format!(
            "kgm-trace-test-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        // Two picks in one process never collide (monotonic counter).
        let a = unique_trace_path(&dir, 4242);
        let b = unique_trace_path(&dir, 4242);
        assert_ne!(a, b);
        let name = a.file_name().unwrap().to_str().unwrap();
        assert!(
            name.starts_with("trace-4242-") && name.ends_with(".jsonl"),
            "{name}"
        );
        // A leftover file from a previous process with a recycled pid must
        // be skipped, not appended to: pre-create the next candidate names
        // and check the picked path is fresh.
        let seq_floor: u32 = b
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .trim_start_matches("trace-4242-")
            .trim_end_matches(".jsonl")
            .parse()
            .unwrap();
        for n in seq_floor + 1..seq_floor + 4 {
            std::fs::write(dir.join(format!("trace-4242-{n}.jsonl")), b"stale").unwrap();
        }
        let c = unique_trace_path(&dir, 4242);
        assert!(!c.exists(), "picked path must not be a stale file");
        assert_ne!(c, a);
        assert_ne!(c, b);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verbosity_parses_kgm_log_values() {
        assert_eq!(Verbosity::parse("off"), Verbosity::Off);
        assert_eq!(Verbosity::parse("Summary"), Verbosity::Summary);
        assert_eq!(Verbosity::parse("span"), Verbosity::Span);
        assert_eq!(Verbosity::parse("debug"), Verbosity::Debug);
        assert_eq!(Verbosity::parse("nonsense"), Verbosity::Off);
        assert!(Verbosity::Debug > Verbosity::Span);
    }

    #[test]
    fn format_ns_scales_units() {
        assert_eq!(fmt_ns(12.0), "12.0 ns");
        assert_eq!(fmt_ns(12_500.0), "12.50 µs");
        assert_eq!(fmt_ns(12_500_000.0), "12.50 ms");
        assert_eq!(fmt_ns(2_000_000_000.0), "2.000 s");
    }
}
