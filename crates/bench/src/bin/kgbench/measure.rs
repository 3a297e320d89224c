//! Measurement helpers: quantiles, peak RSS, the machine record, and the
//! layer attribution of a captured span trace.

use kgm_runtime::telemetry::SpanNode;
use std::fmt::Write as _;

/// The `q`-quantile of `samples` by linear interpolation between closest
/// ranks (0 for no samples).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The checked-out commit, read from `.git` in the working directory
/// (`unknown` outside a git checkout).
pub fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Span calls merged by call path: every span with the same name under the
/// same merged parent adds its calls and time.
pub struct Merged {
    pub name: String,
    pub calls: u64,
    pub ns: u128,
    pub children: Vec<Merged>,
}

fn merge_into(into: &mut Vec<Merged>, span: &SpanNode) {
    let i = match into.iter().position(|m| m.name == span.name) {
        Some(i) => i,
        None => {
            into.push(Merged {
                name: span.name.clone(),
                calls: 0,
                ns: 0,
                children: Vec::new(),
            });
            into.len() - 1
        }
    };
    let m = &mut into[i];
    m.calls += 1;
    m.ns += span.elapsed_ns;
    for c in &span.children {
        merge_into(&mut m.children, c);
    }
}

pub fn merge(roots: &[SpanNode]) -> Vec<Merged> {
    let mut out = Vec::new();
    for r in roots {
        merge_into(&mut out, r);
    }
    out
}

/// The layers a traced run's time is split into, by module. Every span
/// maps to one; the benchmark's own glue is `unattributed`.
pub const LAYERS: [&str; 17] = [
    "mtv",
    "intensional.load",
    "intensional.views",
    "intensional.flush",
    "compile",
    "factdb.load",
    "chase.rules",
    "chase.other",
    "update.insert",
    "update.delete",
    "serving.publish",
    "serving.pin",
    "serving.point",
    "serving.aggregate",
    "serving.graph",
    "serving.wait",
    UNATTRIBUTED,
];

pub const UNATTRIBUTED: &str = "unattributed";

/// The layer a span's self time belongs to. Benchmark spans (`kgbench.*`)
/// name the public call they wrap; program spans are mapped where they
/// mark a layer boundary and otherwise inherit their parent's layer.
fn layer_of(name: &str, parent: &'static str) -> &'static str {
    match name {
        "kgbench.compile" => "compile",
        "kgbench.load" => "factdb.load",
        "kgbench.insert" => "update.insert",
        "kgbench.delete" => "update.delete",
        "kgbench.publish" => "serving.publish",
        "kgbench.pin" => "serving.pin",
        "kgbench.point" => "serving.point",
        "kgbench.aggregate" => "serving.aggregate",
        "kgbench.graph" => "serving.graph",
        "kgbench.tick" => "serving.wait",
        "intensional.load" => "intensional.load",
        "intensional.reason" => "intensional.views",
        "intensional.flush" => "intensional.flush",
        "kgbench.chase" | "chase.run" | "chase.stratum" => "chase.other",
        n if n.starts_with("mtv.") => "mtv",
        n if n.starts_with("kgbench.") || n == "intensional.materialize" => UNATTRIBUTED,
        _ => parent,
    }
}

fn attribute(m: &Merged, parent: &'static str, acc: &mut [f64; LAYERS.len()]) {
    let layer = layer_of(&m.name, parent);
    let slot = |l: &str| LAYERS.iter().position(|x| *x == l).expect("known layer");
    let mut children_ns = 0u128;
    for c in &m.children {
        // `chase.rule` leaves carry each rule's time accumulated across the
        // run; that time lies inside the sibling `chase.stratum` spans, so
        // it moves from `chase.other` to `chase.rules` instead of being
        // subtracted from the parent.
        if c.name == "chase.rule" {
            let s = c.ns as f64 / 1e9;
            acc[slot("chase.rules")] += s;
            acc[slot("chase.other")] -= s;
        } else {
            children_ns += c.ns;
            attribute(c, layer, acc);
        }
    }
    acc[slot(layer)] += (m.ns as f64 - children_ns as f64) / 1e9;
}

/// Self seconds per layer, in [`LAYERS`] order. They sum to the traced
/// time, the total of the root spans.
pub fn layer_seconds(tree: &[Merged]) -> [f64; LAYERS.len()] {
    let mut acc = [0.0; LAYERS.len()];
    for root in tree {
        attribute(root, UNATTRIBUTED, &mut acc);
    }
    acc
}

/// The merged tree as JSON.
pub fn tree_json(tree: &[Merged]) -> String {
    let mut out = String::from("[");
    for (i, m) in tree.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"name\": {}, \"calls\": {}, \"seconds\": {}, \"children\": {}}}",
            crate::json::quote(&m.name),
            m.calls,
            m.ns as f64 / 1e9,
            tree_json(&m.children)
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, ms: u128, children: Vec<SpanNode>) -> SpanNode {
        SpanNode {
            name: name.to_string(),
            elapsed_ns: ms * 1_000_000,
            children,
            ..SpanNode::default()
        }
    }

    #[test]
    fn self_times_sum_to_the_traced_total() {
        let roots = vec![
            span(
                "kgbench.op",
                100,
                vec![
                    // An unmapped program span inherits its parent's layer.
                    span(
                        "kgbench.publish",
                        20,
                        vec![span("serving.freeze", 19, vec![])],
                    ),
                    span(
                        "kgbench.chase",
                        70,
                        vec![span(
                            "chase.run",
                            68,
                            vec![
                                span("chase.stratum", 60, vec![]),
                                span("chase.rule", 45, vec![]),
                            ],
                        )],
                    ),
                ],
            ),
            span("kgbench.op", 10, vec![span("kgbench.load", 9, vec![])]),
        ];
        let tree = merge(&roots);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].calls, 2);
        let secs = layer_seconds(&tree);
        let total: f64 = secs.iter().sum();
        assert!((total - 0.110).abs() < 1e-9, "{total}");
        let get = |l: &str| secs[LAYERS.iter().position(|x| *x == l).unwrap()];
        assert!((get("serving.publish") - 0.020).abs() < 1e-9);
        assert!((get("chase.rules") - 0.045).abs() < 1e-9);
        assert!((get("chase.other") - 0.025).abs() < 1e-9);
        assert!((get("factdb.load") - 0.009).abs() < 1e-9);
        assert!((get(UNATTRIBUTED) - 0.011).abs() < 1e-9);
    }

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
