//! Static program analysis: safety, stratification, wardedness and
//! piecewise linearity.
//!
//! Wardedness is the syntactic restriction that keeps reasoning with
//! existential rules decidable and PTIME in data complexity (Section 4 of
//! the paper, after Bellomarini–Gottlob–Pieris–Sallinger). Piecewise
//! linearity is the stronger fragment targeted by MetaLog's tractability
//! rule for the Kleene star ("The Space-Efficient Core of Vadalog", PODS
//! 2019).

use crate::ast::{Aggregate, AggregateFunc, Atom, Program, Rule, RuleStep, Var};
use kgm_common::{FxHashMap, FxHashSet, KgmError, Result};

/// How a rule's aggregate will be evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggMode {
    /// Body relations are complete before the rule runs: exact grouping.
    Exact,
    /// The rule is recursive: Vadalog-style monotonic accumulation with the
    /// (possibly auto-promoted) monotonic function.
    Monotonic(AggregateFunc),
}

/// Per-predicate and per-rule analysis results.
#[derive(Debug, Clone)]
pub struct ProgramAnalysis {
    /// Stratum of each predicate.
    pub stratification: Stratification,
    /// Rule index → aggregate mode (only for rules with aggregates).
    pub agg_modes: FxHashMap<usize, AggMode>,
    /// True if the (existential part of the) program is warded.
    pub warded: bool,
    /// Human-readable wardedness violations (empty iff `warded`).
    pub warded_violations: Vec<String>,
    /// True if every rule has at most one recursive body atom.
    pub piecewise_linear: bool,
    /// Affected positions `(predicate, position)` — positions that may carry
    /// labelled nulls.
    pub affected: FxHashSet<(String, usize)>,
}

/// A stratification of the program's predicates.
#[derive(Debug, Clone, Default)]
pub struct Stratification {
    /// Predicate → stratum (0-based).
    pub stratum: FxHashMap<String, usize>,
    /// Number of strata.
    pub count: usize,
}

impl Stratification {
    /// The stratum of `pred` (predicates never in a head default to 0).
    pub fn of(&self, pred: &str) -> usize {
        self.stratum.get(pred).copied().unwrap_or(0)
    }
}

/// SCCs of the predicate dependency graph (positive edges only are enough
/// for recursion detection — negative edges inside an SCC are rejected by
/// stratification before this matters).
fn predicate_sccs(program: &Program) -> FxHashMap<String, usize> {
    // Collect edges body → head (positive and negative alike: recursion
    // through either is recursion).
    let mut preds: Vec<String> = program.predicates();
    preds.sort();
    let index: FxHashMap<&str, usize> = preds
        .iter()
        .enumerate()
        .map(|(i, p)| (p.as_str(), i))
        .collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); preds.len()];
    for r in &program.rules {
        for h in &r.head {
            let hi = index[h.predicate.as_str()];
            for b in r.body.iter() {
                adj[index[b.predicate.as_str()]].push(hi);
            }
            for s in &r.steps {
                if let RuleStep::Negated(a) = s {
                    adj[index[a.predicate.as_str()]].push(hi);
                }
            }
        }
    }
    // Iterative Tarjan over the small predicate graph.
    let n = preds.len();
    let mut idx = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut counter = 0u32;
    let mut comp_of = vec![usize::MAX; n];
    let mut comp_count = 0usize;

    for root in 0..n {
        if idx[root] != u32::MAX {
            continue;
        }
        let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
        idx[root] = counter;
        low[root] = counter;
        counter += 1;
        stack.push(root);
        on_stack[root] = true;
        while !frames.is_empty() {
            let (v, next) = {
                let top = frames.last_mut().expect("non-empty");
                let v = top.0;
                if top.1 < adj[v].len() {
                    let w = adj[v][top.1];
                    top.1 += 1;
                    (v, Some(w))
                } else {
                    (v, None)
                }
            };
            match next {
                Some(w) => {
                    if idx[w] == u32::MAX {
                        idx[w] = counter;
                        low[w] = counter;
                        counter += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        frames.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(idx[w]);
                    }
                }
                None => {
                    frames.pop();
                    if let Some(&(p, _)) = frames.last() {
                        low[p] = low[p].min(low[v]);
                    }
                    if low[v] == idx[v] {
                        loop {
                            let w = stack.pop().expect("scc stack");
                            on_stack[w] = false;
                            comp_of[w] = comp_count;
                            if w == v {
                                break;
                            }
                        }
                        comp_count += 1;
                    }
                }
            }
        }
    }
    preds
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, comp_of[i]))
        .collect()
}

fn rule_is_recursive(rule: &Rule, sccs: &FxHashMap<String, usize>) -> bool {
    rule.head.iter().any(|h| {
        let hc = sccs[&h.predicate];
        rule.body.iter().any(|b| sccs[&b.predicate] == hc)
    })
}

/// Run every safety check on `rule` (bound variables, single aggregate).
fn check_safety(rule_idx: usize, rule: &Rule) -> Result<()> {
    let err = |msg: String| {
        Err(KgmError::Analysis(format!(
            "rule #{rule_idx} ({rule}): {msg}"
        )))
    };
    let mut bound: FxHashSet<Var> = rule.positive_vars().into_iter().collect();
    let mut agg_seen = false;
    for s in &rule.steps {
        match s {
            RuleStep::Condition(e) => {
                let mut vs = Vec::new();
                e.vars(&mut vs);
                for v in vs {
                    if !bound.contains(&v) {
                        return err(format!("condition uses unbound `{}`", rule.var_name(v)));
                    }
                }
            }
            RuleStep::Assign(v, e) => {
                let mut vs = Vec::new();
                e.vars(&mut vs);
                for u in vs {
                    if !bound.contains(&u) {
                        return err(format!("assignment uses unbound `{}`", rule.var_name(u)));
                    }
                }
                bound.insert(*v);
            }
            RuleStep::Aggregate(Aggregate {
                target,
                arg,
                contributors,
                ..
            }) => {
                if agg_seen {
                    return err("at most one aggregate per rule".to_string());
                }
                agg_seen = true;
                let mut vs = Vec::new();
                if let Some(a) = arg {
                    a.vars(&mut vs);
                }
                vs.extend(contributors.iter().copied());
                for u in vs {
                    if !bound.contains(&u) {
                        return err(format!("aggregate uses unbound `{}`", rule.var_name(u)));
                    }
                }
                bound.insert(*target);
            }
            RuleStep::Negated(a) => {
                for v in a.vars() {
                    if !bound.contains(&v) {
                        return err(format!(
                            "negated atom `{}` uses unbound `{}`",
                            a.predicate,
                            rule.var_name(v)
                        ));
                    }
                }
            }
        }
    }
    if rule.head.is_empty() {
        return err("empty head".to_string());
    }
    Ok(())
}

fn stratify(program: &Program, agg_modes: &FxHashMap<usize, AggMode>) -> Result<Stratification> {
    let preds = program.predicates();
    let mut stratum: FxHashMap<String, usize> = preds.iter().map(|p| (p.clone(), 0)).collect();
    let n = preds.len().max(1);
    // Iterate to fixpoint; if a stratum exceeds the number of predicates we
    // have a cycle through a strict edge.
    for _ in 0..=n * n {
        let mut changed = false;
        for (ri, r) in program.rules.iter().enumerate() {
            // A rule with an exact aggregate needs its whole body strictly
            // below, like negation.
            let exact_agg = matches!(agg_modes.get(&ri), Some(AggMode::Exact));
            let mut need = 0usize;
            for b in &r.body {
                let s = stratum[&b.predicate];
                need = need.max(if exact_agg { s + 1 } else { s });
            }
            for s in &r.steps {
                if let RuleStep::Negated(a) = s {
                    need = need.max(stratum[&a.predicate] + 1);
                }
            }
            // All heads of one rule share a stratum, so a rule runs exactly
            // once in the schedule and every head is complete at the same
            // point.
            let target = r
                .head
                .iter()
                .map(|h| stratum[&h.predicate])
                .max()
                .unwrap_or(0)
                .max(need);
            for h in &r.head {
                let cur = stratum.get_mut(&h.predicate).expect("known pred");
                if target > *cur {
                    if target > n {
                        return Err(KgmError::Analysis(format!(
                            "program is not stratifiable: cycle through negation or \
                             exact aggregation at predicate `{}`",
                            h.predicate
                        )));
                    }
                    *cur = target;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    let count = stratum.values().copied().max().unwrap_or(0) + 1;
    Ok(Stratification { stratum, count })
}

/// Compute the affected positions of the program (positions that may carry
/// labelled nulls), by the standard fixpoint.
fn affected_positions(program: &Program) -> FxHashSet<(String, usize)> {
    let mut affected: FxHashSet<(String, usize)> = FxHashSet::default();
    // Base: positions of existential head variables.
    for r in &program.rules {
        let ex: FxHashSet<Var> = r.existential_vars().into_iter().collect();
        for h in &r.head {
            for (i, t) in h.terms.iter().enumerate() {
                if t.as_var().is_some_and(|v| ex.contains(&v)) {
                    affected.insert((h.predicate.clone(), i));
                }
            }
        }
    }
    // Propagation: a frontier variable occurring in the body only at
    // affected positions propagates affectedness to its head positions.
    loop {
        let mut changed = false;
        for r in &program.rules {
            for v in r.positive_vars() {
                let occurrences: Vec<(&Atom, usize)> = r
                    .body
                    .iter()
                    .flat_map(|a| {
                        a.terms
                            .iter()
                            .enumerate()
                            .filter(move |(_, t)| t.as_var() == Some(v))
                            .map(move |(i, _)| (a, i))
                    })
                    .collect();
                let all_affected = !occurrences.is_empty()
                    && occurrences
                        .iter()
                        .all(|(a, i)| affected.contains(&(a.predicate.clone(), *i)));
                if all_affected {
                    for h in &r.head {
                        for (i, t) in h.terms.iter().enumerate() {
                            if t.as_var() == Some(v) && affected.insert((h.predicate.clone(), i)) {
                                changed = true;
                            }
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    affected
}

/// Check wardedness given the affected positions.
fn check_warded(program: &Program, affected: &FxHashSet<(String, usize)>) -> (bool, Vec<String>) {
    let mut violations = Vec::new();
    for (ri, r) in program.rules.iter().enumerate() {
        // Classify body variables.
        let mut harmful: FxHashSet<Var> = FxHashSet::default();
        for v in r.positive_vars() {
            let occurrences: Vec<bool> = r
                .body
                .iter()
                .flat_map(|a| {
                    a.terms
                        .iter()
                        .enumerate()
                        .filter(move |(_, t)| t.as_var() == Some(v))
                        .map(move |(i, _)| affected.contains(&(a.predicate.clone(), i)))
                })
                .collect();
            if !occurrences.is_empty() && occurrences.iter().all(|&b| b) {
                harmful.insert(v);
            }
        }
        let head_vars: FxHashSet<Var> = r.head.iter().flat_map(|a| a.vars()).collect();
        let dangerous: Vec<Var> = harmful
            .iter()
            .copied()
            .filter(|v| head_vars.contains(v))
            .collect();
        if dangerous.is_empty() {
            continue;
        }
        // All dangerous variables must co-occur in one body atom (the ward)…
        let ward = r.body.iter().find(|a| {
            let avars: FxHashSet<Var> = a.vars().collect();
            dangerous.iter().all(|v| avars.contains(v))
        });
        let Some(ward) = ward else {
            violations.push(format!(
                "rule #{ri}: dangerous variables {:?} do not share a single body atom",
                dangerous.iter().map(|v| r.var_name(*v)).collect::<Vec<_>>()
            ));
            continue;
        };
        // …and the ward may share only harmless variables with other atoms.
        let ward_vars: FxHashSet<Var> = ward.vars().collect();
        for other in r.body.iter() {
            if std::ptr::eq(other, ward) {
                continue;
            }
            for v in other.vars() {
                if ward_vars.contains(&v) && harmful.contains(&v) {
                    violations.push(format!(
                        "rule #{ri}: harmful variable `{}` is shared between the ward \
                         `{}` and `{}`",
                        r.var_name(v),
                        ward.predicate,
                        other.predicate
                    ));
                }
            }
        }
    }
    (violations.is_empty(), violations)
}

impl ProgramAnalysis {
    /// Analyze `program`; fails on safety or stratification errors.
    /// Wardedness and piecewise-linearity are reported, not enforced —
    /// callers decide (the engine refuses non-warded programs unless
    /// configured otherwise).
    pub fn analyze(program: &Program) -> Result<ProgramAnalysis> {
        for (ri, r) in program.rules.iter().enumerate() {
            check_safety(ri, r)?;
        }
        let sccs = predicate_sccs(program);

        // Aggregate modes + promotion check.
        let mut agg_modes: FxHashMap<usize, AggMode> = FxHashMap::default();
        for (ri, r) in program.rules.iter().enumerate() {
            if let Some(agg) = r.aggregate() {
                if rule_is_recursive(r, &sccs) {
                    let promoted = agg.func.monotonic().ok_or_else(|| {
                        KgmError::Analysis(format!(
                            "rule #{ri}: aggregate {:?} has no monotonic form and the \
                             rule is recursive",
                            agg.func
                        ))
                    })?;
                    agg_modes.insert(ri, AggMode::Monotonic(promoted));
                } else {
                    agg_modes.insert(ri, AggMode::Exact);
                }
            }
        }

        let stratification = stratify(program, &agg_modes)?;
        let affected = affected_positions(program);
        let (warded, warded_violations) = check_warded(program, &affected);

        let piecewise_linear = program.rules.iter().all(|r| {
            let hc: FxHashSet<usize> = r.head.iter().map(|h| sccs[&h.predicate]).collect();
            let recursive_atoms = r
                .body
                .iter()
                .filter(|b| hc.contains(&sccs[&b.predicate]))
                .count();
            recursive_atoms <= 1
        });

        Ok(ProgramAnalysis {
            stratification,
            agg_modes,
            warded,
            warded_violations,
            piecewise_linear,
            affected,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn transitive_closure_is_one_stratum_and_pwl() {
        let p =
            parse_program("edge(X,Y) -> path(X,Y). path(X,Y), edge(Y,Z) -> path(X,Z).").unwrap();
        let a = ProgramAnalysis::analyze(&p).unwrap();
        assert_eq!(a.stratification.count, 1);
        assert!(a.warded);
        assert!(a.piecewise_linear);
    }

    #[test]
    fn nonlinear_closure_is_not_pwl() {
        let p =
            parse_program("edge(X,Y) -> path(X,Y). path(X,Y), path(Y,Z) -> path(X,Z).").unwrap();
        let a = ProgramAnalysis::analyze(&p).unwrap();
        assert!(!a.piecewise_linear);
        assert!(a.warded);
    }

    #[test]
    fn negation_raises_stratum() {
        let p = parse_program("a(X) -> b(X). a(X), not b(X) -> c(X).").unwrap();
        let a = ProgramAnalysis::analyze(&p).unwrap();
        assert!(a.stratification.of("c") > a.stratification.of("b"));
    }

    #[test]
    fn negation_cycle_is_rejected() {
        let p = parse_program("a(X), not b(X) -> c(X). c(X) -> b(X).").unwrap();
        assert!(ProgramAnalysis::analyze(&p).is_err());
    }

    #[test]
    fn unbound_condition_variable_is_rejected() {
        let p = parse_program("a(X), Y > 3 -> b(X).").unwrap();
        assert!(ProgramAnalysis::analyze(&p).is_err());
    }

    #[test]
    fn unbound_negated_variable_is_rejected() {
        let p = parse_program("a(X), not b(Y) -> c(X).").unwrap();
        assert!(ProgramAnalysis::analyze(&p).is_err());
    }

    #[test]
    fn recursive_sum_is_promoted_to_msum() {
        let p =
            parse_program("controls(X,Z), own(Z,Y,W), V = sum(W, <Z>), V > 0.5 -> controls(X,Y).")
                .unwrap();
        let a = ProgramAnalysis::analyze(&p).unwrap();
        assert_eq!(
            a.agg_modes.get(&0),
            Some(&AggMode::Monotonic(AggregateFunc::MSum))
        );
    }

    #[test]
    fn recursive_avg_is_rejected() {
        let p = parse_program("f(X,Z), g(Z,Y,W), V = avg(W, <Z>) -> f(X,V).").unwrap();
        assert!(ProgramAnalysis::analyze(&p).is_err());
    }

    #[test]
    fn nonrecursive_aggregate_is_exact_and_stratified() {
        let p = parse_program("holds(P, S), N = count(<P>) -> stakeholders(S, N).").unwrap();
        let a = ProgramAnalysis::analyze(&p).unwrap();
        assert_eq!(a.agg_modes.get(&0), Some(&AggMode::Exact));
        assert!(a.stratification.of("stakeholders") > a.stratification.of("holds"));
    }

    #[test]
    fn existential_positions_are_affected() {
        let p = parse_program("b(X) -> c(X, N).").unwrap();
        let a = ProgramAnalysis::analyze(&p).unwrap();
        assert!(a.affected.contains(&("c".to_string(), 1)));
        assert!(!a.affected.contains(&("c".to_string(), 0)));
        assert!(a.warded);
    }

    #[test]
    fn affectedness_propagates_through_rules() {
        let p = parse_program("b(X) -> c(X, N). c(X, N) -> d(N).").unwrap();
        let a = ProgramAnalysis::analyze(&p).unwrap();
        assert!(a.affected.contains(&("d".to_string(), 0)));
    }

    #[test]
    fn classic_non_warded_program_is_flagged() {
        // The standard example: the null flows through two different body
        // atoms that share the dangerous variable.
        let p = parse_program(
            "p(X) -> q(X, N).
             q(X, N), q(Y, N) -> r(N).",
        )
        .unwrap();
        let a = ProgramAnalysis::analyze(&p).unwrap();
        // N is dangerous; it occurs in two body atoms which share it: the
        // ward-sharing condition is violated.
        assert!(!a.warded, "violations: {:?}", a.warded_violations);
        assert!(!a.warded_violations.is_empty());
    }

    #[test]
    fn warded_single_ward_is_accepted() {
        // Dangerous variable confined to one atom: warded.
        let p = parse_program(
            "p(X) -> q(X, N).
             q(X, N), p(X) -> s(N).",
        )
        .unwrap();
        let a = ProgramAnalysis::analyze(&p).unwrap();
        assert!(a.warded, "violations: {:?}", a.warded_violations);
    }

    #[test]
    fn two_aggregates_are_rejected() {
        let p = parse_program("a(X, Y), U = sum(Y, <X>), V = sum(X, <Y>) -> b(U, V).").unwrap();
        assert!(ProgramAnalysis::analyze(&p).is_err());
    }
}
