//! Seeded random Vadalog program + database generator for differential
//! testing.
//!
//! [`gen_case`] draws a self-contained program (facts embedded in the
//! source text, so a failing case prints as a copy-pasteable repro) from a
//! [`kgm_runtime::rng::Rng`], covering the language surface the engine
//! optimizes: multi-atom joins, comparisons and arithmetic, stratified
//! negation, existential heads (labelled nulls) and null-consuming rules,
//! Skolem functors, exact aggregates, negation-free recursion, and
//! monotonic-aggregate recursion.
//!
//! Generated programs are **valid by construction and checked by
//! validation**: every candidate must parse and pass `Engine::new` (safety,
//! stratification, wardedness); the generator retries from fresh draws
//! until one does, falling back to a tiny transitive-closure program. They
//! are also **deterministic across evaluation strategies** so a naive
//! oracle, the sequential engine, and the parallel engine must agree
//! modulo null renaming:
//!
//! - recursion never invents values (no arithmetic or existentials inside
//!   a recursive cycle), so every chase terminates;
//! - aggregate contributor keys always functionally determine the
//!   contributed value (the key includes the argument variable, or the key
//!   is the full binding), so first-contribution-wins grouping is
//!   enumeration-order independent;
//! - monotonic aggregates contribute non-negative values, keep the target
//!   out of the head, and gate it with a monotone `>` threshold, so the
//!   emitted fact set does not depend on contribution order;
//! - division is never generated and modulo divisors are positive
//!   constants, so expression evaluation cannot fail at runtime.

use crate::ast::{Program, Term};
use crate::engine::Engine;
use crate::parser::parse_program;
use kgm_common::Value;
use kgm_runtime::rng::Rng;

/// Size and shape knobs for the generator.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Maximum extensional predicates (≥ 1).
    pub max_edb: usize,
    /// Maximum facts per extensional predicate (≥ 1).
    pub max_facts: usize,
    /// Maximum rules (≥ 1).
    pub max_rules: usize,
    /// Maximum predicate arity (≥ 1).
    pub max_arity: usize,
    /// Integer constants are drawn from `-2..int_domain`.
    pub int_domain: i64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_edb: 3,
            max_facts: 7,
            max_rules: 5,
            max_arity: 3,
            int_domain: 6,
        }
    }
}

/// One generated (program, database) pair, kept as source lines so that
/// shrinking can drop whole statements and `Debug` prints a repro.
#[derive(Clone, PartialEq)]
pub struct GenCase {
    /// Ground fact statements, one per line (e.g. `e0(1, "a").`).
    pub fact_lines: Vec<String>,
    /// Rule statements, one per line.
    pub rule_lines: Vec<String>,
}

impl GenCase {
    /// The program as Vadalog source text.
    pub fn source(&self) -> String {
        let mut s = String::new();
        for l in &self.fact_lines {
            s.push_str(l);
            s.push('\n');
        }
        for l in &self.rule_lines {
            s.push_str(l);
            s.push('\n');
        }
        s
    }

    /// Parse the source. Generated and shrunk cases always parse (enforced
    /// by [`is_valid`] during generation).
    pub fn program(&self) -> Program {
        parse_program(&self.source()).expect("generated case parses")
    }
}

impl std::fmt::Debug for GenCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The repro a human pastes into a test — lead with a newline so the
        // program starts at column zero inside the prop failure report.
        write!(f, "program:\n{}", self.source())
    }
}

/// True when the case parses and passes engine admission (safety,
/// stratification, wardedness, aggregate restrictions).
pub fn is_valid(case: &GenCase) -> bool {
    match parse_program(&case.source()) {
        Ok(p) => Engine::new(p).is_ok(),
        Err(_) => false,
    }
}

// ---------------------------------------------------------------------------
// Internal generation state
// ---------------------------------------------------------------------------

/// Advisory column types used to steer generation (joins mostly on equal
/// types, arithmetic only over ints, invented values never compared). A
/// mismatch is never unsound — it just yields empty joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    Int,
    Str,
    Float,
    /// Carries labelled nulls or Skolem values; pass-through only.
    Anon,
}

#[derive(Clone)]
struct PredSig {
    name: String,
    cols: Vec<Ty>,
}

impl PredSig {
    fn has_anon(&self) -> bool {
        self.cols.contains(&Ty::Anon)
    }
}

const VAR_NAMES: [&str; 18] = [
    "X", "Y", "Z", "U", "V", "W", "T", "S", "R", "Q", "N", "M", "A", "B", "C", "D", "E", "F",
];

/// Per-rule variable allocator: fresh names in a fixed order.
struct Vars {
    used: usize,
    /// `(name, type)` of every variable bound by a positive atom or assign.
    bound: Vec<(String, Ty)>,
}

impl Vars {
    fn new() -> Vars {
        Vars {
            used: 0,
            bound: Vec::new(),
        }
    }

    fn fresh(&mut self) -> String {
        let name = if self.used < VAR_NAMES.len() {
            VAR_NAMES[self.used].to_string()
        } else {
            format!("X{}", self.used)
        };
        self.used += 1;
        name
    }

    fn fresh_bound(&mut self, ty: Ty) -> String {
        let n = self.fresh();
        self.bound.push((n.clone(), ty));
        n
    }

    fn pick_bound(&self, rng: &mut Rng, ty: Ty) -> Option<String> {
        let of_ty: Vec<&String> = self
            .bound
            .iter()
            .filter(|(_, t)| *t == ty)
            .map(|(n, _)| n)
            .collect();
        rng.choose(&of_ty).map(|s| (*s).clone())
    }

    fn pick_any(&self, rng: &mut Rng) -> Option<(String, Ty)> {
        let all: Vec<&(String, Ty)> = self.bound.iter().collect();
        rng.choose(&all).map(|p| (*p).clone())
    }
}

const STR_POOL: [&str; 8] = ["a", "b", "c", "d e", "f\"g", "h\\i", "nl\nnl", "tab\tx"];
const FLOAT_POOL: [f64; 4] = [0.5, 1.5, 2.25, 3.0];

/// Render a string constant as a source literal with the lexer's escapes.
fn str_lit(s: &str) -> String {
    let escaped = s
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
        .replace('\t', "\\t");
    format!("\"{escaped}\"")
}

fn const_lit(rng: &mut Rng, ty: Ty, cfg: &GenConfig) -> String {
    match ty {
        Ty::Int => rng.gen_range(-2..cfg.int_domain).to_string(),
        Ty::Str => str_lit(rng.choose(&STR_POOL).unwrap()),
        Ty::Float => format!("{:?}", rng.choose(&FLOAT_POOL).unwrap()),
        Ty::Anon => unreachable!("anon columns never take constants"),
    }
}

struct GenState<'a> {
    rng: &'a mut Rng,
    cfg: &'a GenConfig,
    /// Predicates with no invented-value columns: usable anywhere.
    plain: Vec<PredSig>,
    /// Predicates carrying nulls/Skolems: single-atom bodies only (keeps
    /// every rule trivially warded).
    anon: Vec<PredSig>,
    next_pred: usize,
}

impl GenState<'_> {
    fn fresh_pred(&mut self, prefix: &str) -> String {
        let n = self.next_pred;
        self.next_pred += 1;
        format!("{prefix}{n}")
    }

    fn register(&mut self, sig: PredSig) {
        if sig.has_anon() {
            self.anon.push(sig);
        } else {
            self.plain.push(sig);
        }
    }

    /// Emit `k` positive body atoms over plain predicates, binding fresh
    /// variables and reusing bound ones (joins) or constants.
    fn body_atoms(&mut self, k: usize, vars: &mut Vars) -> Vec<String> {
        let mut atoms = Vec::new();
        for ai in 0..k {
            let sig = self.plain[self.rng.gen_range(0..self.plain.len())].clone();
            let mut args = Vec::new();
            for &ty in &sig.cols {
                if ty == Ty::Int && self.rng.gen_bool(0.12) {
                    args.push(const_lit(self.rng, ty, self.cfg));
                } else if ai > 0 && self.rng.gen_bool(0.55) {
                    // Prefer joining on an existing variable of this type.
                    match vars.pick_bound(self.rng, ty) {
                        Some(v) => args.push(v),
                        None => args.push(vars.fresh_bound(ty)),
                    }
                } else if self.rng.gen_bool(0.15) {
                    match vars.pick_bound(self.rng, ty) {
                        Some(v) => args.push(v),
                        None => args.push(vars.fresh_bound(ty)),
                    }
                } else {
                    args.push(vars.fresh_bound(ty));
                }
            }
            atoms.push(format!("{}({})", sig.name, args.join(", ")));
        }
        atoms
    }

    /// Build a head atom from bound variables (plus occasional constants)
    /// and register its signature.
    fn head_from_bound(&mut self, vars: &Vars, extra: &[(String, Ty)]) -> String {
        let name = self.fresh_pred("p");
        let pool: Vec<(String, Ty)> = vars
            .bound
            .iter()
            .cloned()
            .chain(extra.iter().cloned())
            .collect();
        let arity = self.rng.gen_range(1..self.cfg.max_arity as i64 + 1) as usize;
        let mut args = Vec::new();
        let mut cols = Vec::new();
        for _ in 0..arity {
            if pool.is_empty() || self.rng.gen_bool(0.1) {
                args.push(const_lit(self.rng, Ty::Int, self.cfg));
                cols.push(Ty::Int);
            } else {
                let (n, t) = pool[self.rng.gen_range(0..pool.len())].clone();
                args.push(n);
                cols.push(t);
            }
        }
        self.register(PredSig {
            name: name.clone(),
            cols,
        });
        format!("{name}({})", args.join(", "))
    }

    fn shape_join(&mut self) -> Vec<String> {
        let mut vars = Vars::new();
        let k = self.rng.gen_range(1..4i64) as usize;
        let atoms = self.body_atoms(k, &mut vars);
        let head = self.head_from_bound(&vars, &[]);
        vec![format!("{} -> {head}.", atoms.join(", "))]
    }

    fn shape_arith(&mut self) -> Vec<String> {
        let mut vars = Vars::new();
        let k = self.rng.gen_range(1..3i64) as usize;
        let mut parts = self.body_atoms(k, &mut vars);
        let mut extra: Vec<(String, Ty)> = Vec::new();
        // Optional comparison condition over int (or string-equality) vars.
        if self.rng.gen_bool(0.7) {
            if let Some(x) = vars.pick_bound(self.rng, Ty::Int) {
                let c = self.rng.gen_range(0..self.cfg.int_domain);
                let cond = match self.rng.gen_range(0..5i64) {
                    0 => match vars.pick_bound(self.rng, Ty::Int) {
                        Some(y) => format!("{x} <= {y}"),
                        None => format!("{x} <= {c}"),
                    },
                    1 => format!("{x} < {c}"),
                    2 => format!("{x} != {c}"),
                    3 => format!("{x} >= 0 && {x} < {c}"),
                    _ => format!("{x} > {c} || {x} < 1"),
                };
                parts.push(cond);
            } else if let Some(s) = vars.pick_bound(self.rng, Ty::Str) {
                parts.push(format!("{s} != {}", str_lit("zz")));
            }
        }
        // Optional arithmetic assignment (no division; modulo by positive
        // constants only — evaluation can never fail).
        if self.rng.gen_bool(0.8) {
            if let Some(x) = vars.pick_bound(self.rng, Ty::Int) {
                let t = vars.fresh();
                let e = match self.rng.gen_range(0..4i64) {
                    0 => format!(
                        "{x} * {} + {}",
                        self.rng.gen_range(1..4i64),
                        self.rng.gen_range(0..5i64)
                    ),
                    1 => format!("{x} mod {}", self.rng.gen_range(2..6i64)),
                    2 => match vars.pick_bound(self.rng, Ty::Int) {
                        Some(y) => format!("{x} + {y}"),
                        None => format!("{x} + 1"),
                    },
                    _ => format!("{x} - {}", self.rng.gen_range(0..4i64)),
                };
                parts.push(format!("{t} = {e}"));
                extra.push((t, Ty::Int));
            }
        }
        let head = self.head_from_bound(&vars, &extra);
        vec![format!("{} -> {head}.", parts.join(", "))]
    }

    fn shape_existential(&mut self) -> Vec<String> {
        // Single-atom body keeps the rule trivially warded even when the
        // body predicate itself carries nulls.
        let mut vars = Vars::new();
        let all: Vec<PredSig> = self.plain.iter().chain(self.anon.iter()).cloned().collect();
        let sig = all[self.rng.gen_range(0..all.len())].clone();
        let args: Vec<String> = sig.cols.iter().map(|&t| vars.fresh_bound(t)).collect();
        let name = self.fresh_pred("x");
        let n_exist = self.rng.gen_range(1..3i64) as usize;
        let mut head_args: Vec<String> = Vec::new();
        let mut cols: Vec<Ty> = Vec::new();
        for _ in 0..self.rng.gen_range(1..self.cfg.max_arity as i64 + 1) as usize {
            if let Some((v, t)) = vars.pick_any(self.rng) {
                head_args.push(v);
                cols.push(t);
            }
        }
        for _ in 0..n_exist {
            head_args.push(vars.fresh()); // head-only variable → existential
            cols.push(Ty::Anon);
        }
        self.register(PredSig {
            name: name.clone(),
            cols,
        });
        vec![format!(
            "{}({}) -> {name}({}).",
            sig.name,
            args.join(", "),
            head_args.join(", ")
        )]
    }

    fn shape_consume_anon(&mut self) -> Vec<String> {
        if self.anon.is_empty() {
            return self.shape_join();
        }
        let mut vars = Vars::new();
        let sig = self.anon[self.rng.gen_range(0..self.anon.len())].clone();
        let args: Vec<String> = sig.cols.iter().map(|&t| vars.fresh_bound(t)).collect();
        let mut parts = vec![format!("{}({})", sig.name, args.join(", "))];
        if self.rng.gen_bool(0.4) {
            if let Some(x) = vars.pick_bound(self.rng, Ty::Int) {
                parts.push(format!("{x} >= 0 || {x} < 0")); // tautology: exercises Or
            }
        }
        // Project a permutation/subset of the columns (nulls included).
        let name = self.fresh_pred("c");
        let arity = self.rng.gen_range(1..args.len() as i64 + 1) as usize;
        let mut head_args = Vec::new();
        let mut cols = Vec::new();
        for _ in 0..arity {
            let i = self.rng.gen_range(0..args.len() as i64) as usize;
            head_args.push(args[i].clone());
            cols.push(sig.cols[i]);
        }
        self.register(PredSig {
            name: name.clone(),
            cols,
        });
        vec![format!(
            "{} -> {name}({}).",
            parts.join(", "),
            head_args.join(", ")
        )]
    }

    fn shape_negation(&mut self, edb: &[PredSig]) -> Vec<String> {
        let mut vars = Vars::new();
        let k = self.rng.gen_range(1..3i64) as usize;
        let mut parts = self.body_atoms(k, &mut vars);
        // Negate an extensional predicate (always in a lower stratum), with
        // every variable bound by the positive body.
        let sig = edb[self.rng.gen_range(0..edb.len() as i64) as usize].clone();
        let args: Vec<String> = sig
            .cols
            .iter()
            .map(|&t| match vars.pick_bound(self.rng, t) {
                Some(v) if self.rng.gen_bool(0.7) => v,
                _ => const_lit(self.rng, t, self.cfg),
            })
            .collect();
        parts.push(format!("not {}({})", sig.name, args.join(", ")));
        let head = self.head_from_bound(&vars, &[]);
        vec![format!("{} -> {head}.", parts.join(", "))]
    }

    fn shape_exact_agg(&mut self) -> Vec<String> {
        let mut vars = Vars::new();
        let k = self.rng.gen_range(1..3i64) as usize;
        let parts = self.body_atoms(k, &mut vars);
        let arg = vars.pick_bound(self.rng, Ty::Int);
        // Contributor keys must determine the contributed value, so grouped
        // first-contribution-wins is enumeration-order independent: either
        // no explicit contributors (key = full binding) or a key that
        // includes the argument variable. `count` contributes a constant, so
        // any key works. `prod` is excluded (overflow risk), `avg` allowed
        // (integer sums fold order-independently).
        let (func, arg_txt, target_ty) = match (&arg, self.rng.gen_range(0..5i64)) {
            (_, 0) | (None, _) => ("count", None, Ty::Int),
            (Some(a), 1) => ("sum", Some(a.clone()), Ty::Int),
            (Some(a), 2) => ("min", Some(a.clone()), Ty::Int),
            (Some(a), 3) => ("max", Some(a.clone()), Ty::Int),
            (Some(a), _) => ("avg", Some(a.clone()), Ty::Float),
        };
        let contributors: Vec<String> = match &arg_txt {
            None => {
                if self.rng.gen_bool(0.5) {
                    Vec::new()
                } else {
                    vars.pick_any(self.rng)
                        .map(|(v, _)| vec![v])
                        .unwrap_or_default()
                }
            }
            Some(a) => {
                if self.rng.gen_bool(0.4) {
                    Vec::new()
                } else {
                    let mut c = vec![a.clone()];
                    if let Some((v, _)) = vars.pick_any(self.rng) {
                        if v != *a {
                            c.push(v);
                        }
                    }
                    c
                }
            }
        };
        let target = vars.fresh();
        let inner = match (&arg_txt, contributors.is_empty()) {
            (Some(a), true) => a.clone(),
            (Some(a), false) => format!("{a}, <{}>", contributors.join(", ")),
            (None, true) => String::new(),
            (None, false) => format!("<{}>", contributors.join(", ")),
        };
        let mut parts = parts;
        parts.push(format!("{target} = {func}({inner})"));
        // Group variables: a small subset of the bound vars in the head.
        let mut group: Vec<(String, Ty)> = Vec::new();
        for _ in 0..self.rng.gen_range(0..3i64) {
            if let Some((v, t)) = vars.pick_any(self.rng) {
                if !group.iter().any(|(g, _)| *g == v) {
                    group.push((v, t));
                }
            }
        }
        // Optional post-aggregate condition (group vars + target only).
        if self.rng.gen_bool(0.3) {
            parts.push(format!("{target} >= {}", self.rng.gen_range(0..3i64)));
        }
        let name = self.fresh_pred("g");
        let mut head_args: Vec<String> = group.iter().map(|(v, _)| v.clone()).collect();
        head_args.push(target);
        let mut cols: Vec<Ty> = group.iter().map(|(_, t)| *t).collect();
        cols.push(target_ty);
        self.register(PredSig {
            name: name.clone(),
            cols,
        });
        vec![format!(
            "{} -> {name}({}).",
            parts.join(", "),
            head_args.join(", ")
        )]
    }

    fn shape_tc(&mut self) -> Vec<String> {
        let wide: Vec<PredSig> = self
            .plain
            .iter()
            .filter(|s| s.cols.len() >= 2)
            .cloned()
            .collect();
        let Some(e) = wide.get(self.rng.gen_range(0..wide.len().max(1) as i64) as usize) else {
            return self.shape_join();
        };
        let e = e.clone();
        let t = self.fresh_pred("t");
        // Seed rule: project the first two columns.
        let mut vars = Vars::new();
        let args: Vec<String> = e.cols.iter().map(|&ty| vars.fresh_bound(ty)).collect();
        let seed = format!(
            "{}({}) -> {t}({}, {}).",
            e.name,
            args.join(", "),
            args[0],
            args[1]
        );
        // Recursive rule: t(X, Y), e(Y, Z, ...) -> t(X, Z). No value
        // invention in the cycle, so the closure is finite.
        let mut vars = Vars::new();
        let x = vars.fresh();
        let y = vars.fresh();
        let mut eargs: Vec<String> = vec![y.clone()];
        for _ in 1..e.cols.len() {
            eargs.push(vars.fresh());
        }
        let z = eargs[1].clone();
        let rec = format!(
            "{t}(X, {y}), {}({}) -> {t}({x}, {z}).",
            e.name,
            eargs.join(", ")
        );
        self.register(PredSig {
            name: t,
            cols: vec![e.cols[0], e.cols[1]],
        });
        vec![seed, rec]
    }

    fn shape_mono_agg(&mut self) -> Vec<String> {
        let wide: Vec<PredSig> = self
            .plain
            .iter()
            .filter(|s| s.cols.len() >= 2)
            .cloned()
            .collect();
        let Some(e) = wide.get(self.rng.gen_range(0..wide.len().max(1) as i64) as usize) else {
            return self.shape_join();
        };
        let e = e.clone();
        let t = self.fresh_pred("t");
        let mut vars = Vars::new();
        let args: Vec<String> = e.cols.iter().map(|&ty| vars.fresh_bound(ty)).collect();
        let seed = format!(
            "{}({}) -> {t}({}, {}).",
            e.name,
            args.join(", "),
            args[0],
            args[1]
        );
        // Recursive monotonic-aggregate rule, constrained so the emitted
        // fact set is independent of contribution order: the aggregate is
        // non-decreasing with non-negative contributions, gated by a
        // monotone `>` threshold, the target never reaches the head, and
        // the contributor key determines the contributed value.
        let mut vars = Vars::new();
        let x = vars.fresh();
        let y = vars.fresh();
        let mut eargs: Vec<String> = vec![y.clone()];
        for _ in 1..e.cols.len() {
            eargs.push(vars.fresh());
        }
        let z = eargs[1].clone();
        let int_col = e.cols.iter().position(|&c| c == Ty::Int);
        let v = vars.fresh();
        let (agg, threshold) = match int_col {
            Some(i) if self.rng.gen_bool(0.66) => {
                let w = eargs[i].clone();
                if self.rng.gen_bool(0.5) {
                    // Squaring keeps contributions non-negative even though
                    // fact values may be negative.
                    (
                        format!("{v} = msum({w} * {w}, <{y}, {w}>)"),
                        self.rng.gen_range(1..9i64),
                    )
                } else {
                    (
                        format!("{v} = mmax({w}, <{y}, {w}>)"),
                        self.rng.gen_range(0..4i64),
                    )
                }
            }
            _ => (
                format!("{v} = mcount(<{y}, {z}>)"),
                self.rng.gen_range(1..4i64),
            ),
        };
        let rec = format!(
            "{t}({x}, {y}), {}({}), {agg}, {v} > {threshold} -> {t}({x}, {z}).",
            e.name,
            eargs.join(", ")
        );
        self.register(PredSig {
            name: t,
            cols: vec![e.cols[0], e.cols[1]],
        });
        vec![seed, rec]
    }

    fn shape_skolem(&mut self) -> Vec<String> {
        let mut vars = Vars::new();
        let parts = self.body_atoms(1, &mut vars);
        let mut parts = parts;
        let k = vars.fresh();
        let functor = self.fresh_pred("sk");
        let mut sk_args: Vec<String> = Vec::new();
        for _ in 0..self.rng.gen_range(1..3i64) {
            if let Some((v, _)) = vars.pick_any(self.rng) {
                if !sk_args.contains(&v) {
                    sk_args.push(v);
                }
            }
        }
        if sk_args.is_empty() {
            return self.shape_join();
        }
        parts.push(format!(
            "{k} = skolem({}, {})",
            str_lit(&functor),
            sk_args.join(", ")
        ));
        let name = self.fresh_pred("s");
        let mut head_args = sk_args.clone();
        head_args.push(k);
        let mut cols = vec![Ty::Int; sk_args.len()]; // advisory only
        cols.push(Ty::Anon);
        self.register(PredSig {
            name: name.clone(),
            cols,
        });
        vec![format!(
            "{} -> {name}({}).",
            parts.join(", "),
            head_args.join(", ")
        )]
    }
}

fn gen_candidate(rng: &mut Rng, cfg: &GenConfig) -> GenCase {
    // 1. Extensional predicates + facts.
    let n_edb = rng.gen_range(1..cfg.max_edb as i64 + 1) as usize;
    let mut edb = Vec::new();
    let mut fact_lines = Vec::new();
    for i in 0..n_edb {
        let arity = rng.gen_range(1..cfg.max_arity as i64 + 1) as usize;
        let cols: Vec<Ty> = (0..arity)
            .map(|_| {
                let r = rng.gen_f64();
                if r < 0.7 {
                    Ty::Int
                } else if r < 0.9 {
                    Ty::Str
                } else {
                    Ty::Float
                }
            })
            .collect();
        let sig = PredSig {
            name: format!("e{i}"),
            cols,
        };
        let n_facts = rng.gen_range(1..cfg.max_facts as i64 + 1) as usize;
        for _ in 0..n_facts {
            let vals: Vec<String> = sig.cols.iter().map(|&t| const_lit(rng, t, cfg)).collect();
            fact_lines.push(format!("{}({}).", sig.name, vals.join(", ")));
        }
        edb.push(sig);
    }
    fact_lines.sort();
    fact_lines.dedup();

    // 2. Rules.
    let n_rules = rng.gen_range(1..cfg.max_rules as i64 + 1) as usize;
    let mut st = GenState {
        rng,
        cfg,
        plain: edb.clone(),
        anon: Vec::new(),
        next_pred: 0,
    };
    let mut rule_lines = Vec::new();
    while rule_lines.len() < n_rules {
        let roll = st.rng.gen_range(0..100i64);
        let lines = match roll {
            0..=24 => st.shape_join(),
            25..=44 => st.shape_arith(),
            45..=54 => st.shape_existential(),
            55..=64 => st.shape_consume_anon(),
            65..=74 => st.shape_negation(&edb),
            75..=84 => st.shape_exact_agg(),
            85..=89 => st.shape_skolem(),
            90..=94 => st.shape_tc(),
            _ => st.shape_mono_agg(),
        };
        rule_lines.extend(lines);
    }

    GenCase {
        fact_lines,
        rule_lines,
    }
}

/// Generate one valid case: draw candidates until one passes parsing and
/// engine admission (wardedness included), falling back to a minimal
/// transitive-closure program if the retry budget is exhausted.
pub fn gen_case(rng: &mut Rng, cfg: &GenConfig) -> GenCase {
    for _ in 0..32 {
        let c = gen_candidate(rng, cfg);
        if is_valid(&c) {
            return c;
        }
    }
    GenCase {
        fact_lines: vec!["e0(1, 2).".into(), "e0(2, 3).".into(), "e0(3, 1).".into()],
        rule_lines: vec![
            "e0(X, Y) -> t0(X, Y).".into(),
            "t0(X, Y), e0(Y, Z) -> t0(X, Z).".into(),
        ],
    }
}

/// One step of a fuzzed update sequence for
/// [`crate::engine::Engine::apply_update`]: EDB facts to remove and add,
/// applied in that order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UpdateBatch {
    /// Facts to insert, as `(predicate, tuple)` pairs.
    pub inserts: Vec<(String, Vec<Value>)>,
    /// Facts to delete. May name absent facts (a legal no-op the engine
    /// must survive).
    pub deletes: Vec<(String, Vec<Value>)>,
}

/// Draw `n` update batches against `case`'s extensional database.
///
/// Deletions target the case's own facts (tracked through a simulated live
/// set so later batches can only hit what earlier batches left standing),
/// with an occasional deliberate miss. Insertions reuse the per-column
/// value pools observed in the case's facts — so new tuples actually join
/// the existing data — and sometimes mint a fresh integer from outside the
/// generator's domain, so genuinely-new values flow through the delta too.
/// Only predicates with facts are ever touched: the generator never puts
/// facts in rule heads, so these are pure EDB predicates.
pub fn gen_updates(rng: &mut Rng, case: &GenCase, n: usize) -> Vec<UpdateBatch> {
    let mut pools: Vec<(String, Vec<Vec<Value>>)> = Vec::new();
    let mut live: Vec<(String, Vec<Value>)> = Vec::new();
    for atom in &case.program().facts {
        let tuple: Vec<Value> = atom
            .terms
            .iter()
            .map(|t| match t {
                Term::Const(v) => v.clone(),
                Term::Var(_) => unreachable!("facts are ground"),
            })
            .collect();
        match pools.iter_mut().find(|(p, _)| *p == atom.predicate) {
            Some((_, cols)) => {
                for (col, v) in cols.iter_mut().zip(&tuple) {
                    if !col.contains(v) {
                        col.push(v.clone());
                    }
                }
            }
            None => pools.push((
                atom.predicate.clone(),
                tuple.iter().map(|v| vec![v.clone()]).collect(),
            )),
        }
        let fact = (atom.predicate.clone(), tuple);
        if !live.contains(&fact) {
            live.push(fact);
        }
    }
    let mut fresh_int = 1000i64;
    let fresh = |n: &mut i64| {
        *n += 1;
        Value::Int(*n - 1)
    };
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mut batch = UpdateBatch::default();
        for _ in 0..rng.gen_range(0..3i64) {
            if live.is_empty() {
                break;
            }
            let i = rng.gen_range(0..live.len() as i64) as usize;
            if rng.gen_bool(0.85) {
                batch.deletes.push(live.remove(i));
            } else {
                // A deliberate miss: an int column swapped for a value no
                // fact ever held.
                let (p, mut t) = live[i].clone();
                if let Some(v) = t.iter_mut().find(|v| matches!(v, Value::Int(_))) {
                    *v = fresh(&mut fresh_int);
                    batch.deletes.push((p, t));
                }
            }
        }
        for _ in 0..rng.gen_range(0..4i64) {
            if pools.is_empty() {
                break;
            }
            let (pred, cols) = pools[rng.gen_range(0..pools.len() as i64) as usize].clone();
            let tuple: Vec<Value> = cols
                .iter()
                .map(|pool| {
                    let v = pool[rng.gen_range(0..pool.len() as i64) as usize].clone();
                    if matches!(v, Value::Int(_)) && rng.gen_bool(0.3) {
                        fresh(&mut fresh_int)
                    } else {
                        v
                    }
                })
                .collect();
            let fact = (pred, tuple);
            if !live.contains(&fact) {
                live.push(fact.clone());
            }
            batch.inserts.push(fact);
        }
        out.push(batch);
    }
    out
}

/// Shrink candidates: drop rules (later rules first — they depend on
/// earlier heads), halve the fact set, then drop single facts. Candidates
/// that no longer pass validation are filtered out, so the shrinker never
/// wanders into invalid programs.
pub fn shrink_case(case: &GenCase) -> Vec<GenCase> {
    let mut out = Vec::new();
    for i in (0..case.rule_lines.len()).rev() {
        let mut c = case.clone();
        c.rule_lines.remove(i);
        if !c.rule_lines.is_empty() {
            out.push(c);
        }
    }
    if case.fact_lines.len() > 1 {
        let mid = case.fact_lines.len() / 2;
        let mut first = case.clone();
        first.fact_lines.truncate(mid);
        out.push(first);
        let mut second = case.clone();
        second.fact_lines.drain(..mid);
        out.push(second);
    }
    for i in 0..case.fact_lines.len() {
        if case.fact_lines.len() == 1 {
            break;
        }
        let mut c = case.clone();
        c.fact_lines.remove(i);
        out.push(c);
    }
    out.retain(is_valid);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_cases_are_valid_across_seeds() {
        let cfg = GenConfig::default();
        for seed in 0..40u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let case = gen_case(&mut rng, &cfg);
            assert!(is_valid(&case), "seed {seed} produced invalid:\n{case:?}");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = GenConfig::default();
        let a = gen_case(&mut Rng::seed_from_u64(7), &cfg);
        let b = gen_case(&mut Rng::seed_from_u64(7), &cfg);
        assert_eq!(a.source(), b.source());
    }

    #[test]
    fn shrink_preserves_validity() {
        let cfg = GenConfig::default();
        let mut rng = Rng::seed_from_u64(11);
        let case = gen_case(&mut rng, &cfg);
        for c in shrink_case(&case) {
            assert!(is_valid(&c), "shrink produced invalid:\n{c:?}");
        }
    }

    #[test]
    fn update_batches_are_deterministic_and_well_typed() {
        let cfg = GenConfig::default();
        for seed in 0..20u64 {
            let case = gen_case(&mut Rng::seed_from_u64(seed), &cfg);
            let a = gen_updates(&mut Rng::seed_from_u64(seed * 31), &case, 6);
            let b = gen_updates(&mut Rng::seed_from_u64(seed * 31), &case, 6);
            assert_eq!(a, b, "seed {seed}: generation must be deterministic");
            assert_eq!(a.len(), 6);
            // Every touched predicate is one of the case's EDB predicates,
            // at its observed arity.
            let program = case.program();
            for batch in &a {
                for (pred, tuple) in batch.inserts.iter().chain(&batch.deletes) {
                    let arity = program
                        .facts
                        .iter()
                        .find(|f| f.predicate == *pred)
                        .map(|f| f.terms.len());
                    assert_eq!(arity, Some(tuple.len()), "{pred} in seed {seed}");
                }
            }
        }
        // Across seeds the corpus must exercise both hits and inserts.
        let mut any_delete = false;
        let mut any_insert = false;
        for seed in 0..20u64 {
            let case = gen_case(&mut Rng::seed_from_u64(seed), &cfg);
            for b in gen_updates(&mut Rng::seed_from_u64(seed + 100), &case, 6) {
                any_delete |= !b.deletes.is_empty();
                any_insert |= !b.inserts.is_empty();
            }
        }
        assert!(any_delete && any_insert);
    }

    #[test]
    fn generator_covers_the_language_surface() {
        // Across a seed range, the corpus must exercise every major
        // construct at least once — a guard against silently dead shapes.
        let cfg = GenConfig {
            max_rules: 8,
            ..GenConfig::default()
        };
        let mut all = String::new();
        for seed in 0..60u64 {
            let mut rng = Rng::seed_from_u64(seed);
            all.push_str(&gen_case(&mut rng, &cfg).source());
        }
        for needle in [
            "not ", "skolem(", "msum(", "mcount(", " = sum(", "count(", "mod",
        ] {
            assert!(all.contains(needle), "corpus never generated `{needle}`");
        }
    }
}
