//! MTV — the MetaLog-to-Vadalog compiler (Section 4 of the paper).
//!
//! The compiler emits a complete Vadalog **source text** (so the generated
//! program can be inspected exactly like Example 4.4 prints it) and the
//! parsed [`kgm_vadalog::Program`] ready for the engine:
//!
//! - node/edge atoms become relational atoms padded to the schema arity with
//!   anonymous variables (steps (1)–(2));
//! - path patterns are resolved inductively (step (3)): inverse swaps
//!   endpoints, concatenation inlines with fresh midpoints, alternation and
//!   star introduce fresh `ml_alt`/`ml_tc` predicates defined by the exact
//!   auxiliary rules printed in the paper;
//! - `@input` bindings for every body label and `@output` bindings for every
//!   head label are generated against the given source graph name;
//! - the tractability rule is enforced: star in a recursive program is
//!   rejected (Section 4, "to guarantee decidability and tractability").
//!
//! Since the paper's `∗`-translation defines the auxiliary `β` predicate by
//! one and two-or-more step rules, the zero-step case of the star (`ε`) is
//! compiled as an additional rule variant in which the two endpoint node
//! atoms are required to bind the same OID — preserving the reflexive
//! semi-path semantics of Section 4.

use crate::ast::{EdgeAtom, MetaBodyElem, MetaProgram, MetaRule, NodeAtom, PathPattern, PathRegex};
use crate::schema::PgSchema;
use kgm_common::{FxHashMap, FxHashSet, KgmError, Result, Value};
use kgm_runtime::telemetry;
use kgm_vadalog::{parse_program, Program};

use crate::ast::TermLike;

/// The result of an MTV compilation.
#[derive(Debug, Clone)]
pub struct MtvOutput {
    /// The generated Vadalog program text (rules + auxiliary rules +
    /// annotations).
    pub vadalog_source: String,
    /// The parsed program, ready for `kgm_vadalog::Engine`.
    pub program: Program,
}

struct Gen<'a> {
    schema: &'a PgSchema,
    graph: &'a str,
    fresh: usize,
    aux_rules: Vec<String>,
    aux_count: usize,
}

impl<'a> Gen<'a> {
    fn fresh_var(&mut self) -> String {
        self.fresh += 1;
        format!("mlv_{}", self.fresh)
    }

    fn fresh_pred(&mut self, kind: &str) -> String {
        self.aux_count += 1;
        format!("ml_{kind}_{}", self.aux_count)
    }
}

fn literal(v: &Value) -> Result<String> {
    Ok(match v {
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f:?}"),
        Value::Str(s) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
        Value::Date(d) => d.to_string(),
        Value::Oid(_) => {
            return Err(KgmError::Translation(
                "OID constants cannot appear in MetaLog source".to_string(),
            ))
        }
    })
}

fn term_text(t: &TermLike) -> Result<String> {
    match t {
        TermLike::Var(v) => Ok(v.clone()),
        TermLike::Const(c) => literal(c),
    }
}

/// Render a node atom as a relational atom `L(id, p₁, …, pₙ)`.
fn node_atom_text(gen: &Gen, atom: &NodeAtom, id_var: &str) -> Result<String> {
    let label = atom
        .label
        .as_ref()
        .expect("caller checks labelled node atoms");
    let schema_props = gen.schema.node_props(label)?;
    let mut args = vec![id_var.to_string()];
    for p in schema_props {
        match atom.props.iter().find(|(k, _)| k == p) {
            Some((_, t)) => args.push(term_text(t)?),
            None => args.push("_".to_string()),
        }
    }
    for (k, _) in &atom.props {
        if !schema_props.contains(k) {
            return Err(KgmError::Translation(format!(
                "property `{k}` is not declared for node label `{label}`"
            )));
        }
    }
    Ok(format!("{}({})", label, args.join(", ")))
}

/// Render an edge atom as `Lₑ(id, from, to, p₁, …, pₘ)`.
fn edge_atom_text(
    gen: &mut Gen,
    atom: &EdgeAtom,
    from: &str,
    to: &str,
    allow_named: bool,
) -> Result<String> {
    let label = atom
        .label
        .as_ref()
        .ok_or_else(|| KgmError::Translation("edge atoms must carry a label".to_string()))?;
    if !allow_named {
        if atom.var.is_some() {
            return Err(KgmError::Translation(format!(
                "edge atom `[{label}]` under `*`/`|` cannot bind a named identifier"
            )));
        }
        if atom
            .props
            .iter()
            .any(|(_, t)| matches!(t, TermLike::Var(_)))
        {
            return Err(KgmError::Translation(format!(
                "edge atom `[{label}]` under `*`/`|` cannot bind named property variables"
            )));
        }
    }
    let schema_props = gen.schema.edge_props(label)?;
    let id = atom.var.clone().unwrap_or_else(|| "_".to_string());
    let mut args = vec![id, from.to_string(), to.to_string()];
    for p in schema_props {
        match atom.props.iter().find(|(k, _)| k == p) {
            Some((_, t)) => args.push(term_text(t)?),
            None => args.push("_".to_string()),
        }
    }
    for (k, _) in &atom.props {
        if !schema_props.contains(k) {
            return Err(KgmError::Translation(format!(
                "property `{k}` is not declared for edge label `{label}`"
            )));
        }
    }
    Ok(format!("{}({})", label, args.join(", ")))
}

/// Remove ε from a nullable regex without changing its star:
/// `(R)* = (strip(R))*` where `strip` is ε-elimination.
fn strip_nullable(r: &PathRegex) -> PathRegex {
    match r {
        PathRegex::Edge(e) => PathRegex::Edge(e.clone()),
        PathRegex::Inverse(i) => PathRegex::Inverse(Box::new(strip_nullable(i))),
        PathRegex::Star(i) => strip_nullable(i),
        PathRegex::Alt(xs) => PathRegex::Alt(
            xs.iter()
                .map(|x| {
                    if x.nullable() {
                        strip_nullable(x)
                    } else {
                        x.clone()
                    }
                })
                .collect(),
        ),
        PathRegex::Concat(xs) => {
            if r.nullable() {
                // (a* · b*)* ≡ (a | b)*: an all-nullable concatenation under a
                // star collapses to the alternation of the stripped parts.
                PathRegex::Alt(xs.iter().map(strip_nullable).collect())
            } else {
                PathRegex::Concat(xs.clone())
            }
        }
    }
}

/// Translate `from R to` into a conjunction of Vadalog atoms, creating
/// auxiliary predicates/rules for `|` and `*` (paper step (3)).
/// `top_level` permits named variable bindings on simple edges.
fn regex_atoms(
    gen: &mut Gen,
    regex: &PathRegex,
    from: &str,
    to: &str,
    top_level: bool,
) -> Result<Vec<String>> {
    match regex {
        PathRegex::Edge(e) => Ok(vec![edge_atom_text(gen, e, from, to, top_level)?]),
        PathRegex::Inverse(i) => regex_atoms(gen, i, to, from, top_level),
        PathRegex::Concat(parts) => {
            let mut atoms = Vec::new();
            let mut cur = from.to_string();
            for (i, p) in parts.iter().enumerate() {
                let next = if i + 1 == parts.len() {
                    to.to_string()
                } else {
                    gen.fresh_var()
                };
                if p.nullable() {
                    return Err(KgmError::Translation(
                        "nullable sub-pattern inside a concatenation is not supported; \
                         lift the `*` to the whole group"
                            .to_string(),
                    ));
                }
                atoms.extend(regex_atoms(gen, p, &cur, &next, top_level)?);
                cur = next;
            }
            Ok(atoms)
        }
        PathRegex::Alt(alts) => {
            // α(h, q) defined by one rule per alternative (paper step (3)).
            let alpha = gen.fresh_pred("alt");
            for a in alts {
                if a.nullable() {
                    return Err(KgmError::Translation(
                        "nullable alternative inside `|` is not supported; \
                         lift the `*` to the whole group"
                            .to_string(),
                    ));
                }
                let atoms = regex_atoms(gen, a, "h", "q", false)?;
                gen.aux_rules
                    .push(format!("{} -> {alpha}(h, q).", atoms.join(", ")));
            }
            Ok(vec![format!("{alpha}({from}, {to})")])
        }
        PathRegex::Star(inner) => {
            // β(h, q) by the two rules of the paper: base and extension.
            let core = if inner.nullable() {
                strip_nullable(inner)
            } else {
                (**inner).clone()
            };
            let beta = gen.fresh_pred("tc");
            let base = regex_atoms(gen, &core, "h", "q", false)?;
            gen.aux_rules
                .push(format!("{} -> {beta}(h, q).", base.join(", ")));
            let step = regex_atoms(gen, &core, "h", "q", false)?;
            gen.aux_rules.push(format!(
                "{beta}(v, h), {} -> {beta}(v, q).",
                step.join(", ")
            ));
            Ok(vec![format!("{beta}({from}, {to})")])
        }
    }
}

/// One body path pattern, translated into conjunction *variants*: the
/// cartesian expansion of the zero-step (ε) cases of nullable segments.
/// Each variant is a list of conjunct strings.
fn path_variants(gen: &mut Gen, path: &PathPattern) -> Result<Vec<Vec<String>>> {
    // Node variables: named or fresh.
    let mut node_vars: Vec<String> = Vec::new();
    let mut node_atoms: Vec<Option<String>> = Vec::new();
    let all_nodes: Vec<&NodeAtom> = std::iter::once(&path.src)
        .chain(path.segments.iter().map(|(_, n)| n))
        .collect();
    for n in &all_nodes {
        let var = n.var.clone().unwrap_or_else(|| gen.fresh_var());
        if n.label.is_none() && !n.props.is_empty() {
            return Err(KgmError::Translation(
                "node atoms with properties must carry a label".to_string(),
            ));
        }
        let atom = if n.label.is_some() {
            Some(node_atom_text(gen, n, &var)?)
        } else {
            None
        };
        node_vars.push(var);
        node_atoms.push(atom);
    }
    let mut variants: Vec<Vec<String>> = vec![node_atoms.iter().flatten().cloned().collect()];
    for (i, (regex, _)) in path.segments.iter().enumerate() {
        let from = node_vars[i].clone();
        let to = node_vars[i + 1].clone();
        let atoms = regex_atoms(gen, regex, &from, &to, true)?;
        let nullable = regex.nullable();
        let mut next: Vec<Vec<String>> = Vec::new();
        for v in &variants {
            let mut with = v.clone();
            with.extend(atoms.iter().cloned());
            next.push(with);
            if nullable {
                // ε case: both endpoints must denote the same node.
                if all_nodes[i].label.is_none() || all_nodes[i + 1].label.is_none() {
                    return Err(KgmError::Translation(
                        "a nullable path segment requires labelled endpoints".to_string(),
                    ));
                }
                let mut eps = v.clone();
                eps.push(format!("{from} == {to}"));
                next.push(eps);
            }
        }
        variants = next;
    }
    Ok(variants)
}

/// Translate a head path pattern into head atom strings. Existential
/// identifiers (unnamed node/edge ids) become fresh head-only variables,
/// i.e. labelled nulls.
fn head_atoms(gen: &mut Gen, path: &PathPattern) -> Result<Vec<String>> {
    let mut out = Vec::new();
    let mut node_vars: Vec<String> = Vec::new();
    let all_nodes: Vec<&NodeAtom> = std::iter::once(&path.src)
        .chain(path.segments.iter().map(|(_, n)| n))
        .collect();
    for n in &all_nodes {
        let var = n.var.clone().unwrap_or_else(|| gen.fresh_var());
        if let Some(_l) = &n.label {
            out.push(node_atom_text(gen, n, &var)?);
        }
        node_vars.push(var);
    }
    for (i, (regex, _)) in path.segments.iter().enumerate() {
        let (edge, inverted) = match regex {
            PathRegex::Edge(e) => (e, false),
            PathRegex::Inverse(inner) => match inner.as_ref() {
                PathRegex::Edge(e) => (e, true),
                _ => {
                    return Err(KgmError::Translation(
                        "head edges must be simple atoms".to_string(),
                    ))
                }
            },
            _ => {
                return Err(KgmError::Translation(
                    "head edges must be simple atoms".to_string(),
                ))
            }
        };
        let (from, to) = if inverted {
            (node_vars[i + 1].clone(), node_vars[i].clone())
        } else {
            (node_vars[i].clone(), node_vars[i + 1].clone())
        };
        // In the head an unnamed edge id is an existential (paper: ∃c).
        let mut e = edge.clone();
        if e.var.is_none() {
            e.var = Some(gen.fresh_var());
        }
        out.push(edge_atom_text(gen, &e, &from, &to, true)?);
    }
    Ok(out)
}

/// Is the MetaLog program recursive — a cycle in the rule dependency graph?
///
/// Rule `A` depends on rule `B` when some head atom of `B` can feed a body
/// atom of `A`: same label *and* compatible `schemaOID` tags. The tag of a
/// node atom is its constant `schemaOID` property (if written inline); the
/// tag of an edge atom is inherited from a tagged endpoint node atom of the
/// same rule. Tags make the §5 mapping programs — which read one schema OID
/// and write another through the *same* super-construct labels — correctly
/// non-recursive, exactly as the paper treats Example 5.1.
#[allow(clippy::collapsible_match, clippy::needless_range_loop)]
fn is_recursive(meta: &MetaProgram) -> bool {
    type Tagged = (String, Option<i64>);

    fn tag_of_node(n: &crate::ast::NodeAtom) -> Option<i64> {
        n.props.iter().find_map(|(k, t)| {
            if k == "schemaOID" {
                if let TermLike::Const(Value::Int(i)) = t {
                    return Some(*i);
                }
            }
            None
        })
    }

    /// Collect (label, tag) atoms of one path pattern, resolving edge tags
    /// through endpoint variables.
    fn collect_path(p: &PathPattern, var_tags: &FxHashMap<String, i64>, out: &mut Vec<Tagged>) {
        let node_tag = |n: &crate::ast::NodeAtom| -> Option<i64> {
            tag_of_node(n).or_else(|| n.var.as_ref().and_then(|v| var_tags.get(v).copied()))
        };
        if let Some(l) = &p.src.label {
            out.push((l.clone(), node_tag(&p.src)));
        }
        let mut prev_tag = node_tag(&p.src);
        for (regex, n) in &p.segments {
            let next_tag = node_tag(n);
            let edge_tag = prev_tag.or(next_tag);
            for e in regex.edge_atoms() {
                if let Some(l) = &e.label {
                    out.push((l.clone(), edge_tag));
                }
            }
            if let Some(l) = &n.label {
                out.push((l.clone(), next_tag));
            }
            prev_tag = next_tag;
        }
    }

    /// Variable → tag map from every labelled node atom in the rule.
    fn var_tags(r: &MetaRule) -> FxHashMap<String, i64> {
        let mut m = FxHashMap::default();
        let mut visit = |p: &PathPattern| {
            let mut add = |n: &crate::ast::NodeAtom| {
                if let (Some(v), Some(t)) = (&n.var, tag_of_node(n)) {
                    m.insert(v.clone(), t);
                }
            };
            add(&p.src);
            for (_, n) in &p.segments {
                add(n);
            }
        };
        for b in &r.body {
            if let MetaBodyElem::Path(p) = b {
                visit(p);
            }
        }
        for h in &r.head {
            visit(h);
        }
        m
    }

    let n = meta.rules.len();
    let mut bodies: Vec<Vec<Tagged>> = Vec::with_capacity(n);
    let mut heads: Vec<Vec<Tagged>> = Vec::with_capacity(n);
    for r in &meta.rules {
        let tags = var_tags(r);
        let mut b = Vec::new();
        for e in &r.body {
            match e {
                MetaBodyElem::Path(p) => collect_path(p, &tags, &mut b),
                MetaBodyElem::NegatedNode(na) => {
                    if let Some(l) = &na.label {
                        b.push((l.clone(), tag_of_node(na)));
                    }
                }
                MetaBodyElem::Scalar(_) => {}
            }
        }
        let mut h = Vec::new();
        for hp in &r.head {
            collect_path(hp, &tags, &mut h);
        }
        bodies.push(b);
        heads.push(h);
    }
    let compatible = |a: &Tagged, b: &Tagged| {
        a.0 == b.0
            && match (a.1, b.1) {
                (Some(x), Some(y)) => x == y,
                _ => true,
            }
    };
    // adj[i] = rules whose body can consume rule i's heads.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for j in 0..n {
            if heads[i]
                .iter()
                .any(|h| bodies[j].iter().any(|b| compatible(h, b)))
            {
                adj[i].push(j);
            }
        }
    }
    // Cycle detection over the rule graph.
    let mut color = vec![0u8; n]; // 0 white, 1 grey, 2 black
    fn dfs(v: usize, adj: &[Vec<usize>], color: &mut [u8]) -> bool {
        color[v] = 1;
        for &w in &adj[v] {
            match color[w] {
                1 => return true,
                0 => {
                    if dfs(w, adj, color) {
                        return true;
                    }
                }
                _ => {}
            }
        }
        color[v] = 2;
        false
    }
    (0..n).any(|v| color[v] == 0 && dfs(v, &adj, &mut color))
}

/// Compile a MetaLog program to Vadalog (the MTV tool of Section 2.2).
///
/// `graph` is the registered name of the source property graph that the
/// generated `@input` annotations will read from.
pub fn translate(meta: &MetaProgram, schema: &PgSchema, graph: &str) -> Result<MtvOutput> {
    let root_span = kgm_runtime::span!("mtv.translate", "{} rules", meta.rules.len());
    // Tractability rule (Section 4): star only in non-recursive programs.
    {
        let _s = kgm_runtime::span!("mtv.tractability");
        let uses_star = meta.rules.iter().any(|r| {
            r.body.iter().any(|b| match b {
                MetaBodyElem::Path(p) => p.segments.iter().any(|(regex, _)| regex.has_star()),
                _ => false,
            })
        });
        if uses_star && is_recursive(meta) {
            return Err(KgmError::Analysis(
                "transitive closure (Kleene star) is only allowed in non-recursive \
                 MetaLog programs (Section 4 tractability rule)"
                    .to_string(),
            ));
        }
    }

    let mut gen = Gen {
        schema,
        graph,
        fresh: 0,
        aux_rules: Vec::new(),
        aux_count: 0,
    };
    let mut main_rules: Vec<String> = Vec::new();

    for (ri, rule) in meta.rules.iter().enumerate() {
        let rule_span = kgm_runtime::span!("mtv.rule", "#{ri}");
        let variants_before = main_rules.len();
        let aux_before = gen.aux_rules.len();
        translate_rule(&mut gen, rule, &mut main_rules)?;
        if rule_span.is_active() {
            telemetry::record("variants", (main_rules.len() - variants_before) as i64);
            telemetry::record("aux_rules", (gen.aux_rules.len() - aux_before) as i64);
        }
    }

    // Annotations: body labels get @input, head labels @output.
    let annotation_span = kgm_runtime::span!("mtv.annotations");
    let mut body_node_labels: FxHashSet<String> = FxHashSet::default();
    let mut body_edge_labels: FxHashSet<String> = FxHashSet::default();
    let mut head_labels: FxHashSet<String> = FxHashSet::default();
    for r in &meta.rules {
        for b in &r.body {
            match b {
                MetaBodyElem::Path(p) => {
                    if let Some(l) = &p.src.label {
                        body_node_labels.insert(l.clone());
                    }
                    for (regex, n) in &p.segments {
                        if let Some(l) = &n.label {
                            body_node_labels.insert(l.clone());
                        }
                        for e in regex.edge_atoms() {
                            if let Some(l) = &e.label {
                                body_edge_labels.insert(l.clone());
                            }
                        }
                    }
                }
                MetaBodyElem::NegatedNode(n) => {
                    if let Some(l) = &n.label {
                        body_node_labels.insert(l.clone());
                    }
                }
                MetaBodyElem::Scalar(_) => {}
            }
        }
        for h in &r.head {
            if let Some(l) = &h.src.label {
                head_labels.insert(l.clone());
            }
            for (regex, n) in &h.segments {
                if let Some(l) = &n.label {
                    head_labels.insert(l.clone());
                }
                for e in regex.edge_atoms() {
                    if let Some(l) = &e.label {
                        head_labels.insert(l.clone());
                    }
                }
            }
        }
    }
    let mut annotations: Vec<String> = Vec::new();
    let mut sorted_nodes: Vec<&String> = body_node_labels.iter().collect();
    sorted_nodes.sort();
    for l in sorted_nodes {
        let props = gen.schema.node_props(l)?.join(",");
        annotations.push(format!(
            "@input({l}, nodes, \"{}\", \"{l}\", \"{props}\").",
            gen.graph
        ));
    }
    let mut sorted_edges: Vec<&String> = body_edge_labels.iter().collect();
    sorted_edges.sort();
    for l in sorted_edges {
        let props = gen.schema.edge_props(l)?.join(",");
        annotations.push(format!(
            "@input({l}, edges, \"{}\", \"{l}\", \"{props}\").",
            gen.graph
        ));
    }
    let mut sorted_heads: Vec<&String> = head_labels.iter().collect();
    sorted_heads.sort();
    for l in sorted_heads {
        annotations.push(format!("@output({l})."));
    }
    if annotation_span.is_active() {
        telemetry::record("annotations", annotations.len() as i64);
    }
    drop(annotation_span);

    let mut source = String::new();
    source.push_str("% Generated by MTV (MetaLog-to-Vadalog translator).\n");
    for r in &main_rules {
        source.push_str(r);
        source.push('\n');
    }
    if !gen.aux_rules.is_empty() {
        source.push_str("% Auxiliary path-pattern predicates (Section 4, step 3).\n");
        for r in &gen.aux_rules {
            source.push_str(r);
            source.push('\n');
        }
    }
    for a in &annotations {
        source.push_str(a);
        source.push('\n');
    }

    let program = {
        let _s = kgm_runtime::span!("mtv.parse", "{} bytes", source.len());
        parse_program(&source).map_err(|e| {
            KgmError::Translation(format!(
                "MTV generated invalid Vadalog ({e}); source:\n{source}"
            ))
        })?
    };
    if root_span.is_active() {
        telemetry::record("main_rules", main_rules.len() as i64);
        telemetry::record("aux_rules", gen.aux_rules.len() as i64);
        telemetry::record("generated_rules", program.rules.len() as i64);
    }
    telemetry::counter_add("mtv.translations", 1);
    telemetry::counter_add("mtv.generated_rules", program.rules.len() as i64);
    Ok(MtvOutput {
        vadalog_source: source,
        program,
    })
}

fn translate_rule(gen: &mut Gen, rule: &MetaRule, out: &mut Vec<String>) -> Result<()> {
    // Body: path variants (ε expansion) × scalar/negated elements.
    let mut variant_sets: Vec<Vec<String>> = vec![Vec::new()];
    for elem in &rule.body {
        match elem {
            MetaBodyElem::Path(p) => {
                let vs = path_variants(gen, p)?;
                let mut next = Vec::new();
                for base in &variant_sets {
                    for v in &vs {
                        let mut combined = base.clone();
                        combined.extend(v.iter().cloned());
                        next.push(combined);
                    }
                }
                variant_sets = next;
            }
            MetaBodyElem::NegatedNode(n) => {
                let var = n.var.clone().unwrap_or_else(|| "_".to_string());
                let atom = node_atom_text(gen, n, &var)?;
                for v in &mut variant_sets {
                    v.push(format!("not {atom}"));
                }
            }
            MetaBodyElem::Scalar(s) => {
                for v in &mut variant_sets {
                    v.push(s.clone());
                }
            }
        }
    }
    // Atom ordering: the Vadalog parser requires positive atoms before
    // scalar steps, so sort each variant: atoms first (they start with an
    // identifier followed by `(` and are not `not`), preserving relative
    // order.
    for v in &mut variant_sets {
        let (atoms, rest): (Vec<String>, Vec<String>) = v.drain(..).partition(|s| {
            !s.starts_with("not ")
                && s.split('(').next().is_some_and(|p| {
                    !p.trim().is_empty()
                        && p.trim().chars().all(|c| c.is_alphanumeric() || c == '_')
                        && !s.contains("==")
                        && !s.contains('=')
                })
        });
        v.extend(atoms);
        v.extend(rest);
    }

    // Head: shared across variants, but fresh existentials per variant so
    // each generated Vadalog rule is self-contained.
    for variant in &variant_sets {
        let mut heads = Vec::new();
        for h in &rule.head {
            heads.extend(head_atoms(gen, h)?);
        }
        if variant.is_empty() {
            return Err(KgmError::Translation(
                "MetaLog rules need at least one body element".to_string(),
            ));
        }
        out.push(format!("{} -> {}.", variant.join(", "), heads.join(", ")));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_metalog;
    use kgm_vadalog::Engine;

    fn company_schema() -> PgSchema {
        let mut s = PgSchema::new();
        s.declare_node("Business", ["name"])
            .declare_edge("OWNS", ["percentage"])
            .declare_edge("CONTROLS", Vec::<String>::new());
        s
    }

    #[test]
    fn control_program_translates_and_parses() {
        let meta = parse_metalog(
            r#"
            (x: Business) -> (x)[c: CONTROLS](x).
            (x: Business)[: CONTROLS](z: Business)[: OWNS; percentage: w](y: Business),
                v = msum(w, <z>), v > 0.5 -> (x)[c: CONTROLS](y).
            "#,
        )
        .unwrap();
        let out = translate(&meta, &company_schema(), "kg").unwrap();
        assert!(out.vadalog_source.contains("CONTROLS"));
        assert!(out
            .vadalog_source
            .contains("@input(Business, nodes, \"kg\", \"Business\", \"name\")."));
        assert!(out
            .vadalog_source
            .contains("@input(OWNS, edges, \"kg\", \"OWNS\", \"percentage\")."));
        assert!(out.vadalog_source.contains("@output(CONTROLS)."));
        assert_eq!(out.program.rules.len(), 2);
        // The engine must accept the generated program.
        Engine::new(out.program).unwrap();
    }

    #[test]
    fn padding_with_anonymous_vars_matches_schema_arity() {
        let mut schema = PgSchema::new();
        schema.declare_node("P", ["a", "b", "c"]);
        schema.declare_edge("E", Vec::<String>::new());
        let meta = parse_metalog("(x: P; b: v) -> (x)[e: E](x).").unwrap();
        let out = translate(&meta, &schema, "g").unwrap();
        // P(x, _, v, _): id + 3 props with b bound.
        assert!(
            out.vadalog_source.contains("P(x, _, v, _)"),
            "{}",
            out.vadalog_source
        );
    }

    #[test]
    fn descfrom_star_translation_matches_example_4_4() {
        let mut schema = PgSchema::new();
        schema
            .declare_node("SM_Node", Vec::<String>::new())
            .declare_edge("SM_CHILD", Vec::<String>::new())
            .declare_edge("SM_PARENT", Vec::<String>::new())
            .declare_edge("DESCFROM", Vec::<String>::new());
        let meta = parse_metalog(
            "(x: SM_Node) ([: SM_CHILD]- . [: SM_PARENT])* (y: SM_Node)
                -> (x)[w: DESCFROM](y).",
        )
        .unwrap();
        let out = translate(&meta, &schema, "dict").unwrap();
        // β base + step rules exist (names are ml_tc_*):
        assert!(out.vadalog_source.contains("ml_tc_1(h, q)"));
        assert!(out.vadalog_source.contains("ml_tc_1(v, h)"));
        // Inverse of SM_CHILD swaps endpoints: SM_CHILD(_, mid, h) pattern.
        assert!(out.vadalog_source.contains("SM_CHILD(_, "));
        // ε-variant: endpoints equal.
        assert!(
            out.vadalog_source.contains("x == y"),
            "{}",
            out.vadalog_source
        );
        Engine::new(out.program).unwrap();
    }

    #[test]
    fn star_in_recursive_program_is_rejected() {
        let mut schema = PgSchema::new();
        schema
            .declare_node("A", Vec::<String>::new())
            .declare_edge("R", Vec::<String>::new());
        // R feeds itself through the head: recursive + star → reject.
        let meta = parse_metalog("(x: A) ([: R])* (y: A) -> (x)[e: R](y).").unwrap();
        let err = translate(&meta, &schema, "g").unwrap_err();
        assert!(matches!(err, KgmError::Analysis(_)));
    }

    #[test]
    fn alternation_generates_alpha_rules() {
        let mut schema = PgSchema::new();
        schema
            .declare_node("A", Vec::<String>::new())
            .declare_node("B", Vec::<String>::new())
            .declare_edge("R", Vec::<String>::new())
            .declare_edge("S", Vec::<String>::new())
            .declare_edge("OUT", Vec::<String>::new());
        let meta = parse_metalog("(x: A) ([: R] | [: S]) (y: B) -> (x)[e: OUT](y).").unwrap();
        let out = translate(&meta, &schema, "g").unwrap();
        let alpha_rules = out
            .vadalog_source
            .lines()
            .filter(|l| l.contains("-> ml_alt_1(h, q)."))
            .count();
        assert_eq!(alpha_rules, 2);
        Engine::new(out.program).unwrap();
    }

    #[test]
    fn named_vars_under_star_are_rejected() {
        let mut schema = PgSchema::new();
        schema
            .declare_node("A", Vec::<String>::new())
            .declare_edge("R", ["w"])
            .declare_edge("OUT", Vec::<String>::new());
        let meta = parse_metalog("(x: A) ([: R; w: v])* (y: A) -> (x)[e: OUT](y).").unwrap();
        assert!(translate(&meta, &schema, "g").is_err());
        let meta = parse_metalog("(x: A) ([z: R])* (y: A) -> (x)[e: OUT](y).").unwrap();
        assert!(translate(&meta, &schema, "g").is_err());
    }

    #[test]
    fn undeclared_labels_and_props_are_rejected() {
        let schema = company_schema();
        let meta = parse_metalog("(x: Unknown) -> (x)[c: CONTROLS](x).").unwrap();
        assert!(translate(&meta, &schema, "g").is_err());
        let meta = parse_metalog("(x: Business; nope: v) -> (x)[c: CONTROLS](x).").unwrap();
        assert!(translate(&meta, &schema, "g").is_err());
    }

    #[test]
    fn head_existentials_become_head_only_vars() {
        let meta = parse_metalog("(x: Business) -> (x)[: CONTROLS](x).").unwrap();
        let out = translate(&meta, &company_schema(), "g").unwrap();
        let rule = &out.program.rules[0];
        assert_eq!(rule.existential_vars().len(), 1, "{}", out.vadalog_source);
    }

    #[test]
    fn end_to_end_descfrom_over_facts() {
        // Dictionary fragment with natural edge orientations:
        // parent -SM_PARENT-> generalization -SM_CHILD-> child. A descendant
        // walks child --SM_CHILD⁻--> generalization --SM_PARENT⁻--> parent,
        // so both letters carry the inverse operator.
        let mut schema = PgSchema::new();
        schema
            .declare_node("SM_Node", Vec::<String>::new())
            .declare_edge("SM_CHILD", Vec::<String>::new())
            .declare_edge("SM_PARENT", Vec::<String>::new())
            .declare_edge("DESCFROM", Vec::<String>::new());
        let meta = parse_metalog(
            "(x: SM_Node) ([: SM_CHILD]- . [: SM_PARENT]-)* (y: SM_Node)
                -> (x)[w: DESCFROM](y).",
        )
        .unwrap();
        let out = translate(&meta, &schema, "dict").unwrap();
        let engine = Engine::new(out.program).unwrap();
        use kgm_common::Value;
        let n = |i: i64| Value::Int(i);
        // child 2 --SM_CHILD--> gen 10; gen 10 <--SM_PARENT-- parent 1:
        // edge tuples are (id, from, to).
        let facts: Vec<(&str, Vec<Vec<Value>>)> = vec![
            ("SM_Node", vec![vec![n(1)], vec![n(2)], vec![n(3)]]),
            // g10: parent 1, child 2;  g11: parent 2, child 3.
            (
                "SM_PARENT",
                vec![vec![n(100), n(1), n(10)], vec![n(101), n(2), n(11)]],
            ),
            (
                "SM_CHILD",
                vec![vec![n(200), n(10), n(2)], vec![n(201), n(11), n(3)]],
            ),
        ];
        let (db, _) = engine.run_with_facts(&facts).unwrap();
        // Pairs (x descendant-or-self, y ancestor): with ε every node pairs
        // with itself; 2→1, 3→2, 3→1 via two steps.
        let pairs: std::collections::BTreeSet<(i64, i64)> = db
            .facts_iter("DESCFROM")
            .map(|t| (t[1].as_i64().unwrap(), t[2].as_i64().unwrap()))
            .collect();
        assert!(pairs.contains(&(2, 1)));
        assert!(pairs.contains(&(3, 2)));
        assert!(pairs.contains(&(3, 1)), "two-step ancestry: {pairs:?}");
        assert!(pairs.contains(&(1, 1)), "ε reflexivity: {pairs:?}");
    }

    #[test]
    fn wait_edge_atom_direction_in_path() {
        // (a)[:SM_PARENT](g): edge goes a → g, so SM_PARENT(_, a, g).
        let mut schema = PgSchema::new();
        schema
            .declare_node("SM_Node", Vec::<String>::new())
            .declare_node("SM_Generalization", Vec::<String>::new())
            .declare_edge("SM_PARENT", Vec::<String>::new())
            .declare_edge("OUT", Vec::<String>::new());
        let meta =
            parse_metalog("(a: SM_Node)[: SM_PARENT](g: SM_Generalization) -> (a)[e: OUT](g).")
                .unwrap();
        let out = translate(&meta, &schema, "g").unwrap();
        assert!(
            out.vadalog_source.contains("SM_PARENT(_, a, g)"),
            "{}",
            out.vadalog_source
        );
    }
}
