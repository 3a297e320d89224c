//! Algorithm 2 — materialization of the intensional component.
//!
//! Given an instance `D` of a schema generated from super-schema `S`, and an
//! intensional component `Σ` written in MetaLog over `S`'s constructs, the
//! materialization proceeds exactly as the paper's Algorithm 2:
//!
//! 1. `D` is **loaded** into the instance-level super-constructs `I_SM_*`
//!    of the dictionary via the quasi-inverse copy mapping
//!    ([`crate::instances::load_instance`], line 4). The load writes the
//!    eight instance relations (`i_sm_node`, `sm_ref`, …) straight into the
//!    dictionary's fact store, and that store becomes the chase's input;
//! 2. **input views** `V_I^Σ` are generated from a static analysis of `Σ`:
//!    for every node/edge label in `Σ`'s bodies, Vadalog rules aggregate the
//!    `I_SM_Node` / `I_SM_Edge` / `I_SM_Attribute` facts into the high-level
//!    atoms `L(oid, a₁, …, aₖ)` (lines 5, Example 6.2) — optional attributes
//!    default to the reserved *absent* null via stratified negation;
//! 3. `Σ` is compiled by **MTV** and evaluated together with the views
//!    (lines 7–8);
//! 4. **output views** `V_O^Σ` de-normalize head-label facts back into
//!    instance constructs (`vo_node` / `vo_edge` / attribute facts, line 6),
//!    which the **flush** step materializes into the target database `D`
//!    (line 9).
//!
//! The §6 performance note — materialize `V_I` into a staging area first,
//! then reason without overhead — is the [`MaterializationMode::Staged`]
//! variant; [`MaterializationMode::SinglePass`] runs views and `Σ` in one
//! fixpoint. Experiment E10 compares the two.

use crate::dictionary::{ConstructNames, Dictionary};
use crate::instances::{load_instance, InstanceMap};
use crate::supermodel::SuperSchema;
use kgm_common::{FxHashMap, FxHashSet, KgmError, Oid, OidSpace, Result, Symbol, Value};
use kgm_metalog::{parse_metalog, translate, PgSchema};
use kgm_pgstore::{NodeId, PropertyGraph};
use kgm_runtime::telemetry;
use kgm_vadalog::{
    Atom, Engine, EngineConfig, FactDb, Program, Rule, RuleStep, Term, Termination, Var,
};

/// The reserved "absent optional attribute" null.
fn absent() -> Value {
    Value::Oid(Oid::new(OidSpace::Null, 0))
}

/// How `V_I` and `Σ` are scheduled (the §6 staging optimization).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaterializationMode {
    /// One engine runs `V_I ∪ Σ ∪ V_O` to a joint fixpoint.
    #[default]
    SinglePass,
    /// `V_I` is materialized into a staging fact store first; `Σ ∪ V_O`
    /// then runs over the staged facts.
    Staged,
}

/// Outcome of one materialization run.
#[derive(Debug, Clone, Default)]
pub struct MaterializationStats {
    /// Instance-loading wall time (ms) — the paper's "loading phase".
    pub load_ms: f64,
    /// Reasoning wall time (ms).
    pub reason_ms: f64,
    /// Flush wall time (ms).
    pub flush_ms: f64,
    /// New nodes written to the target database.
    pub new_nodes: usize,
    /// New edges written to the target database.
    pub new_edges: usize,
    /// Attribute values written to the target database.
    pub new_attrs: usize,
    /// Facts derived by the reasoner.
    pub derived_facts: usize,
    /// Why the chase stopped. Anything but `Termination::Complete` means
    /// the materialized view is a *truncated* (prefix-consistent) result —
    /// callers decide whether a partial view is acceptable.
    pub termination: Termination,
}

/// Rule construction helper: named variables with per-rule indices.
struct RuleBuilder {
    names: Vec<String>,
    body: Vec<Atom>,
    steps: Vec<RuleStep>,
    head: Vec<Atom>,
}

impl RuleBuilder {
    fn new() -> Self {
        RuleBuilder {
            names: Vec::new(),
            body: Vec::new(),
            steps: Vec::new(),
            head: Vec::new(),
        }
    }

    fn var(&mut self, name: &str) -> Var {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return Var(i as u16);
        }
        self.names.push(name.to_string());
        Var((self.names.len() - 1) as u16)
    }

    fn v(&mut self, name: &str) -> Term {
        Term::Var(self.var(name))
    }

    fn fresh(&mut self) -> Term {
        let n = format!("_anon{}", self.names.len());
        self.names.push(n);
        Term::Var(Var((self.names.len() - 1) as u16))
    }

    fn c(value: Value) -> Term {
        Term::Const(value)
    }

    fn body(mut self, pred: &str, terms: Vec<Term>) -> Self {
        self.body.push(Atom::new(pred, terms));
        self
    }

    fn negated(mut self, pred: &str, terms: Vec<Term>) -> Self {
        self.steps.push(RuleStep::Negated(Atom::new(pred, terms)));
        self
    }

    fn head(mut self, pred: &str, terms: Vec<Term>) -> Self {
        self.head.push(Atom::new(pred, terms));
        self
    }

    fn build(self) -> Rule {
        Rule {
            body: self.body,
            steps: self.steps,
            head: self.head,
            var_names: self.names,
        }
    }
}

/// The MTV label catalog derived from a super-schema: node labels expose
/// their full inherited attribute lists (own first, then ancestors), edges
/// their own attributes — the tuple shapes `V_I` produces.
pub fn pg_schema_of(schema: &SuperSchema) -> PgSchema {
    let mut s = PgSchema::new();
    for n in &schema.nodes {
        let props: Vec<String> = schema
            .inherited_attributes(&n.name)
            .into_iter()
            .map(|a| a.name.clone())
            .collect();
        s.declare_node(&n.name, props);
    }
    for e in &schema.edges {
        let props: Vec<String> = e.attributes.iter().map(|a| a.name.clone()).collect();
        s.declare_edge(&e.name, props);
    }
    s
}

/// Everything the generated views need to know about the dictionary side of
/// one (schema, instance) pair.
struct ViewCtx<'a> {
    dict: &'a Dictionary,
    schema: &'a SuperSchema,
    schema_oid: i64,
    instance_oid: i64,
}

impl<'a> ViewCtx<'a> {
    /// The dictionary OID of an `SM_Node`.
    fn node_oid(&self, label: &str) -> Result<Oid> {
        self.dict
            .sm_node_by_name(label, self.schema_oid)
            .map(|n| self.dict.graph.node_oid(n))
            .ok_or_else(|| KgmError::NotFound(format!("SM_Node `{label}`")))
    }

    /// The dictionary OID of an `SM_Edge`.
    fn edge_oid(&self, label: &str) -> Result<Oid> {
        self.dict
            .sm_edge_by_name(label, self.schema_oid)
            .map(|n| self.dict.graph.node_oid(n))
            .ok_or_else(|| KgmError::NotFound(format!("SM_Edge `{label}`")))
    }

    /// `(attribute name, dictionary attr OID, optional?)` for a node label,
    /// in the inherited order used everywhere.
    fn node_attr_oids(&self, label: &str) -> Result<Vec<(String, Oid, bool)>> {
        let mut out = Vec::new();
        let mut chain = vec![label.to_string()];
        chain.extend(self.schema.ancestors(label).iter().map(|s| s.to_string()));
        for l in chain {
            let n = self
                .dict
                .sm_node_by_name(&l, self.schema_oid)
                .ok_or_else(|| KgmError::NotFound(format!("SM_Node `{l}`")))?;
            for a in self.dict.attributes_of(n, "SM_HAS_NODE_ATTR") {
                let name = self
                    .dict
                    .graph
                    .node_prop(a, "name")
                    .map(|v| v.to_string())
                    .unwrap_or_default();
                let opt = self.dict.graph.node_prop(a, "isOpt") == Some(&Value::Bool(true))
                    || self.dict.graph.node_prop(a, "isIntensional") == Some(&Value::Bool(true));
                out.push((name, self.dict.graph.node_oid(a), opt));
            }
        }
        Ok(out)
    }

    fn edge_attr_oids(&self, label: &str) -> Result<Vec<(String, Oid, bool)>> {
        let e = self
            .dict
            .sm_edge_by_name(label, self.schema_oid)
            .ok_or_else(|| KgmError::NotFound(format!("SM_Edge `{label}`")))?;
        Ok(self
            .dict
            .attributes_of(e, "SM_HAS_EDGE_ATTR")
            .into_iter()
            .map(|a| {
                let name = self
                    .dict
                    .graph
                    .node_prop(a, "name")
                    .map(|v| v.to_string())
                    .unwrap_or_default();
                let opt = self.dict.graph.node_prop(a, "isOpt") == Some(&Value::Bool(true))
                    || self.dict.graph.node_prop(a, "isIntensional") == Some(&Value::Bool(true));
                (name, self.dict.graph.node_oid(a), opt)
            })
            .collect())
    }
}

/// Generate the input views `V_I^Σ` for the given body labels. They read
/// the instance relations the quasi-inverse load writes
/// ([`crate::instances`]).
fn input_views(
    ctx: &ViewCtx<'_>,
    node_labels: &[String],
    edge_labels: &[String],
) -> Result<Program> {
    let mut prog = Program::default();
    let inst = Value::Int(ctx.instance_oid);
    for label in node_labels {
        let node_oid = ctx.node_oid(label)?;
        // is_L(I) ← i_sm_node(I, inst), sm_ref(_, I, ⟨L⟩).
        let is_pred = format!("vi_is_{label}");
        {
            let mut rb = RuleBuilder::new();
            let i = rb.v("I");
            let anon = rb.fresh();
            prog.rules.push(
                rb.body("i_sm_node", vec![i.clone(), RuleBuilder::c(inst.clone())])
                    .body(
                        "sm_ref",
                        vec![anon, i.clone(), RuleBuilder::c(Value::Oid(node_oid))],
                    )
                    .head(&is_pred, vec![i])
                    .build(),
            );
        }
        let attrs = ctx.node_attr_oids(label)?;
        for (name, attr_oid, _opt) in &attrs {
            let avp = format!("vi_avp_{label}_{name}");
            let has = format!("vi_has_{label}_{name}");
            let av = format!("vi_av_{label}_{name}");
            // avp(I, V) ← is_L(I), i_has_nattr(_, I, A), sm_ref(_, A, ⟨a⟩),
            //             i_sm_attr(A, V).
            {
                let mut rb = RuleBuilder::new();
                let i = rb.v("I");
                let a = rb.v("A");
                let v = rb.v("V");
                let x1 = rb.fresh();
                let x2 = rb.fresh();
                prog.rules.push(
                    rb.body(&is_pred, vec![i.clone()])
                        .body("i_has_nattr", vec![x1, i.clone(), a.clone()])
                        .body(
                            "sm_ref",
                            vec![x2, a.clone(), RuleBuilder::c(Value::Oid(*attr_oid))],
                        )
                        .body("i_sm_attr", vec![a, v.clone()])
                        .head(&avp, vec![i, v])
                        .build(),
                );
            }
            // av(I, V) ← avp(I, V);  has(I) ← avp(I, _);
            // av(I, absent) ← is_L(I), not has(I).
            // (Two separate rules: a shared rule would force `av` and `has`
            // into one stratum and break stratification.)
            {
                let mut rb = RuleBuilder::new();
                let i = rb.v("I");
                let v = rb.v("V");
                prog.rules.push(
                    rb.body(&avp, vec![i.clone(), v.clone()])
                        .head(&av, vec![i, v])
                        .build(),
                );
            }
            {
                let mut rb = RuleBuilder::new();
                let i = rb.v("I");
                let v = rb.fresh();
                prog.rules.push(
                    rb.body(&avp, vec![i.clone(), v])
                        .head(&has, vec![i])
                        .build(),
                );
            }
            {
                let mut rb = RuleBuilder::new();
                let i = rb.v("I");
                prog.rules.push(
                    rb.body(&is_pred, vec![i.clone()])
                        .negated(&has, vec![i.clone()])
                        .head(&av, vec![i, RuleBuilder::c(absent())])
                        .build(),
                );
            }
        }
        // L(I, V1, …, Vk) ← is_L(I), av_a1(I, V1), …
        {
            let mut rb = RuleBuilder::new();
            let i = rb.v("I");
            rb = rb.body(&is_pred, vec![i.clone()]);
            let mut head_terms = vec![i];
            for (idx, (name, ..)) in attrs.iter().enumerate() {
                let mut rb2 = rb;
                let vi = rb2.v(&format!("V{idx}"));
                let i2 = rb2.v("I");
                rb = rb2.body(&format!("vi_av_{label}_{name}"), vec![i2, vi.clone()]);
                head_terms.push(vi);
            }
            prog.rules.push(rb.head(label, head_terms).build());
        }
    }
    for label in edge_labels {
        let edge_oid = ctx.edge_oid(label)?;
        let is_pred = format!("vi_ise_{label}");
        {
            let mut rb = RuleBuilder::new();
            let ie = rb.v("IE");
            let f = rb.v("F");
            let t = rb.v("T");
            let x0 = rb.fresh();
            let x1 = rb.fresh();
            let x2 = rb.fresh();
            let x3 = rb.fresh();
            prog.rules.push(
                rb.body("i_sm_edge", vec![ie.clone(), x0])
                    .body(
                        "sm_ref",
                        vec![x1, ie.clone(), RuleBuilder::c(Value::Oid(edge_oid))],
                    )
                    .body("i_from", vec![x2, ie.clone(), f.clone()])
                    .body("i_to", vec![x3, ie.clone(), t.clone()])
                    .head(&is_pred, vec![ie, f, t])
                    .build(),
            );
        }
        let attrs = ctx.edge_attr_oids(label)?;
        for (name, attr_oid, _opt) in &attrs {
            let avp = format!("vi_eavp_{label}_{name}");
            let has = format!("vi_ehas_{label}_{name}");
            let av = format!("vi_eav_{label}_{name}");
            {
                let mut rb = RuleBuilder::new();
                let ie = rb.v("IE");
                let a = rb.v("A");
                let v = rb.v("V");
                let x0 = rb.fresh();
                let x1 = rb.fresh();
                let x2 = rb.fresh();
                let x3 = rb.fresh();
                prog.rules.push(
                    rb.body(&is_pred, vec![ie.clone(), x0, x1])
                        .body("i_has_eattr", vec![x2, ie.clone(), a.clone()])
                        .body(
                            "sm_ref",
                            vec![x3, a.clone(), RuleBuilder::c(Value::Oid(*attr_oid))],
                        )
                        .body("i_sm_attr", vec![a, v.clone()])
                        .head(&avp, vec![ie, v])
                        .build(),
                );
            }
            {
                let mut rb = RuleBuilder::new();
                let ie = rb.v("IE");
                let v = rb.v("V");
                prog.rules.push(
                    rb.body(&avp, vec![ie.clone(), v.clone()])
                        .head(&av, vec![ie, v])
                        .build(),
                );
            }
            {
                let mut rb = RuleBuilder::new();
                let ie = rb.v("IE");
                let v = rb.fresh();
                prog.rules.push(
                    rb.body(&avp, vec![ie.clone(), v])
                        .head(&has, vec![ie])
                        .build(),
                );
            }
            {
                let mut rb = RuleBuilder::new();
                let ie = rb.v("IE");
                let f = rb.v("F");
                let t = rb.v("T");
                prog.rules.push(
                    rb.body(&is_pred, vec![ie.clone(), f, t])
                        .negated(&has, vec![ie.clone()])
                        .head(&av, vec![ie, RuleBuilder::c(absent())])
                        .build(),
                );
            }
        }
        {
            let mut rb = RuleBuilder::new();
            let ie = rb.v("IE");
            let f = rb.v("F");
            let t = rb.v("T");
            rb = rb.body(&is_pred, vec![ie.clone(), f.clone(), t.clone()]);
            let mut head_terms = vec![ie, f, t];
            for (idx, (name, ..)) in attrs.iter().enumerate() {
                let mut rb2 = rb;
                let vi = rb2.v(&format!("V{idx}"));
                let ie2 = rb2.v("IE");
                rb = rb2.body(&format!("vi_eav_{label}_{name}"), vec![ie2, vi.clone()]);
                head_terms.push(vi);
            }
            prog.rules.push(rb.head(label, head_terms).build());
        }
    }
    Ok(prog)
}

/// Generate the output views `V_O^Σ` for the given head labels: pass-through
/// rules de-normalizing label facts into `vo_node` / `vo_nattr` /
/// `vo_edge` / `vo_eattr` instance-construct facts.
fn output_views(
    ctx: &ViewCtx<'_>,
    head_node_labels: &[String],
    head_edge_labels: &[String],
) -> Result<Program> {
    let mut prog = Program::default();
    for label in head_node_labels {
        let node_oid = ctx.node_oid(label)?;
        let attrs = ctx.node_attr_oids(label)?;
        let mut rb = RuleBuilder::new();
        let i = rb.v("I");
        let mut terms = vec![i.clone()];
        let mut heads: Vec<(String, Vec<Term>)> = vec![(
            "vo_node".into(),
            vec![i.clone(), RuleBuilder::c(Value::Oid(node_oid))],
        )];
        for (idx, (_, attr_oid, _)) in attrs.iter().enumerate() {
            let v = rb.v(&format!("V{idx}"));
            terms.push(v.clone());
            heads.push((
                "vo_nattr".into(),
                vec![i.clone(), RuleBuilder::c(Value::Oid(*attr_oid)), v],
            ));
        }
        rb = rb.body(label, terms);
        for (p, t) in heads {
            rb = rb.head(&p, t);
        }
        prog.rules.push(rb.build());
    }
    for label in head_edge_labels {
        let edge_oid = ctx.edge_oid(label)?;
        let attrs = ctx.edge_attr_oids(label)?;
        let mut rb = RuleBuilder::new();
        let ie = rb.v("IE");
        let f = rb.v("F");
        let t = rb.v("T");
        let mut terms = vec![ie.clone(), f.clone(), t.clone()];
        let mut heads: Vec<(String, Vec<Term>)> = vec![(
            "vo_edge".into(),
            vec![ie.clone(), f, t, RuleBuilder::c(Value::Oid(edge_oid))],
        )];
        for (idx, (_, attr_oid, _)) in attrs.iter().enumerate() {
            let v = rb.v(&format!("V{idx}"));
            terms.push(v.clone());
            heads.push((
                "vo_eattr".into(),
                vec![ie.clone(), RuleBuilder::c(Value::Oid(*attr_oid)), v],
            ));
        }
        rb = rb.body(label, terms);
        for (p, tm) in heads {
            rb = rb.head(&p, tm);
        }
        prog.rules.push(rb.build());
    }
    Ok(prog)
}

/// Collect the node/edge labels used in Σ's bodies and heads (the static
/// analysis of Σ that drives view generation, Section 6).
fn sigma_labels(
    sigma: &kgm_metalog::MetaProgram,
    schema: &SuperSchema,
) -> (Vec<String>, Vec<String>, Vec<String>, Vec<String>) {
    let node_labels: FxHashSet<String> = schema.nodes.iter().map(|n| n.name.clone()).collect();
    let mut body_nodes: FxHashSet<String> = FxHashSet::default();
    let mut body_edges: FxHashSet<String> = FxHashSet::default();
    let mut head_nodes: FxHashSet<String> = FxHashSet::default();
    let mut head_edges: FxHashSet<String> = FxHashSet::default();
    for l in sigma.node_labels() {
        if node_labels.contains(&l) {
            body_nodes.insert(l);
        }
    }
    for l in sigma.edge_labels() {
        body_edges.insert(l);
    }
    for r in &sigma.rules {
        for p in &r.head {
            if let Some(l) = &p.src.label {
                head_nodes.insert(l.clone());
            }
            for (regex, n) in &p.segments {
                if let Some(l) = &n.label {
                    head_nodes.insert(l.clone());
                }
                for e in regex.edge_atoms() {
                    if let Some(l) = &e.label {
                        head_edges.insert(l.clone());
                    }
                }
            }
        }
    }
    // Body views must not include head-only (purely derived) labels that do
    // not exist extensionally — but views are harmless for them (no facts),
    // so we include every referenced label that exists in the schema.
    body_edges.retain(|l| schema.edge(l).is_some());
    head_edges.retain(|l| schema.edge(l).is_some());
    head_nodes.retain(|l| schema.node(l).is_some());
    let sort = |s: FxHashSet<String>| {
        let mut v: Vec<String> = s.into_iter().collect();
        v.sort();
        v
    };
    (
        sort(std::mem::take(&mut body_nodes)),
        sort(std::mem::take(&mut body_edges)),
        sort(std::mem::take(&mut head_nodes)),
        sort(std::mem::take(&mut head_edges)),
    )
}

/// Render the automatically generated `V_I` / `V_O` view programs for a
/// (schema, Σ) pair as Vadalog source — the inspectable counterpart of
/// Examples 6.1/6.2. OID constants (dictionary references resolved at
/// generation time) print as `⟨oid:…⟩` placeholders.
pub fn view_programs(schema: &SuperSchema, sigma_src: &str) -> Result<(String, String)> {
    let schema_oid = 1i64;
    let instance_oid = 100i64;
    let mut dict = Dictionary::new();
    dict.encode(schema, schema_oid)?;
    let sigma = parse_metalog(sigma_src)?;
    let ctx = ViewCtx {
        dict: &dict,
        schema,
        schema_oid,
        instance_oid,
    };
    let (body_nodes, body_edges, head_nodes, head_edges) = sigma_labels(&sigma, schema);
    let vi = input_views(&ctx, &body_nodes, &body_edges)?;
    let vo = output_views(&ctx, &head_nodes, &head_edges)?;
    let (vi_src, _) = kgm_vadalog::to_source(&vi);
    let (vo_src, _) = kgm_vadalog::to_source(&vo);
    Ok((vi_src, vo_src))
}

/// Materialize the intensional component `sigma` (MetaLog source) into the
/// data graph. Returns statistics mirroring the §6 load/reason/flush split.
/// Every chase runs with [`EngineConfig::default()`]; see
/// [`materialize_with`] for budgets.
pub fn materialize(
    data: &mut PropertyGraph,
    schema: &SuperSchema,
    sigma_src: &str,
    mode: MaterializationMode,
) -> Result<MaterializationStats> {
    materialize_with(data, schema, sigma_src, mode, EngineConfig::default())
}

/// [`materialize`] with every chase it runs configured by `config`, so its
/// budgets (`max_bytes`, `deadline_ms`, `max_stratum_ms`, `cancel`) reach
/// Algorithm 2. The chase runs on the loaded instance relations, so
/// `max_bytes` counts them too. In [`MaterializationMode::Staged`] each of
/// the two chases gets the whole budget.
///
/// A budget that stops the chase gracefully still flushes: the data graph
/// gets the prefix-consistent partial result, and
/// [`MaterializationStats::termination`] names the stop. With
/// `config.strict`, the budget error returns before the flush, and the data
/// graph is left as it was.
pub fn materialize_with(
    data: &mut PropertyGraph,
    schema: &SuperSchema,
    sigma_src: &str,
    mode: MaterializationMode,
    config: EngineConfig,
) -> Result<MaterializationStats> {
    let _span = kgm_runtime::span!("intensional.materialize", "{mode:?}");
    let mut stats = MaterializationStats::default();
    let schema_oid = 1i64;
    let instance_oid = 100i64;

    // --- Load (Algorithm 2 line 4). `telemetry::time` both scopes the
    // phase span and yields the elapsed ms kept in the stats, so the
    // harness report and the trace agree by construction.
    let (loaded, load_ms) = telemetry::time("intensional.load", String::new(), || {
        let mut dict = Dictionary::new();
        dict.encode(schema, schema_oid)?;
        let (_lstats, imap) = load_instance(&mut dict, schema, schema_oid, instance_oid, data)?;
        Ok::<_, KgmError>((dict, imap))
    });
    let (mut dict, imap) = loaded?;
    stats.load_ms = load_ms;

    // --- Views + Σ (lines 5–8).
    let (reasoned, reason_ms) = telemetry::time("intensional.reason", format!("{mode:?}"), || {
        let sigma = parse_metalog(sigma_src)?;
        let pg_schema = pg_schema_of(schema);
        let mut mtv = translate(&sigma, &pg_schema, "unused")?;
        mtv.program.inputs.clear(); // atoms come from V_I, not raw graph scans
        let ctx = ViewCtx {
            dict: &dict,
            schema,
            schema_oid,
            instance_oid,
        };
        let (body_nodes, body_edges, head_nodes, head_edges) = sigma_labels(&sigma, schema);
        let vi = input_views(&ctx, &body_nodes, &body_edges)?;
        let vo = output_views(&ctx, &head_nodes, &head_edges)?;
        // The loaded instance relations are the chase's input.
        let instances = std::mem::take(&mut dict.instances);

        let db = match mode {
            MaterializationMode::SinglePass => {
                let mut program = vi;
                program.extend(mtv.program);
                program.extend(vo);
                let engine = Engine::with_config(program, config)?;
                let mut db = instances;
                let run = engine.run(&mut db)?;
                stats.derived_facts = run.derived_facts;
                stats.termination = run.termination;
                db
            }
            MaterializationMode::Staged => {
                // Stage 1: materialize V_I into a staging area, the
                // instance relations themselves.
                let engine_vi = Engine::with_config(vi, config.clone())?;
                let mut staged = instances;
                let run1 = engine_vi.run(&mut staged)?;
                // Stage 2: Σ ∪ V_O over the staged label facts only.
                let mut program = mtv.program;
                program.extend(vo);
                let engine = Engine::with_config(program, config)?;
                let mut db = FactDb::new();
                for l in body_nodes.iter().chain(body_edges.iter()) {
                    db.add_facts(l, staged.facts(l))?;
                }
                drop(staged);
                let run2 = engine.run(&mut db)?;
                stats.derived_facts = run1.derived_facts + run2.derived_facts;
                // The earlier stage's truncation dominates: a truncated
                // staging area taints everything derived from it.
                stats.termination = if !run1.termination.is_complete() {
                    run1.termination
                } else {
                    run2.termination
                };
                db
            }
        };
        Ok::<_, KgmError>(db)
    });
    let db = reasoned?;
    stats.reason_ms = reason_ms;

    // --- Flush (line 9).
    let (flushed, flush_ms) = telemetry::time("intensional.flush", String::new(), || {
        flush(&db, &dict, schema, &imap, data, &mut stats)
    });
    flushed?;
    stats.flush_ms = flush_ms;
    Ok(stats)
}

/// Materialize the `vo_*` facts into the data graph.
fn flush(
    db: &FactDb,
    dict: &Dictionary,
    schema: &SuperSchema,
    imap: &InstanceMap,
    data: &mut PropertyGraph,
    stats: &mut MaterializationStats,
) -> Result<()> {
    let mut names = ConstructNames::new(dict);
    // vo_node(I, ⟨SM_Node⟩): resolve each identity to a data node once —
    // ground instance OIDs through the load map, labelled nulls and Skolems
    // to a node created on first sight.
    let mut node_of: FxHashMap<Value, NodeId> = FxHashMap::default();
    for t in db.facts_iter("vo_node") {
        let sm_oid = t[1]
            .as_oid()
            .ok_or_else(|| KgmError::Internal("vo_node without SM oid".into()))?;
        let loaded = t[0]
            .as_oid()
            .and_then(|oid| imap.instance_to_node.get(&oid).copied());
        if let Some(n) = loaded.or_else(|| node_of.get(&t[0]).copied()) {
            node_of.insert(t[0].clone(), n);
            continue;
        }
        let labels = names
            .node_labels(sm_oid, schema)
            .ok_or_else(|| KgmError::NotFound(format!("SM_Node oid {sm_oid:?}")))?;
        let n = data.add_node(labels, vec![])?;
        stats.new_nodes += 1;
        node_of.insert(t[0].clone(), n);
    }
    // vo_nattr(I, ⟨SM_Attribute⟩, V): set known, non-null values.
    for t in db.facts_iter("vo_nattr") {
        if t[2].is_labelled_null() {
            continue; // unknown / absent value
        }
        let Some(&n) = node_of.get(&t[0]) else {
            continue;
        };
        let attr_oid = t[1]
            .as_oid()
            .ok_or_else(|| KgmError::Internal("vo_nattr without attr oid".into()))?;
        let name = names
            .get(attr_oid)
            .ok_or_else(|| KgmError::NotFound("SM_Attribute".into()))?;
        if data.node_prop(n, name) != Some(&t[2]) {
            data.set_node_prop(n, name, t[2].clone())?;
            stats.new_attrs += 1;
        }
    }
    // vo_edge(IE, F, T, ⟨SM_Edge⟩): create missing edges, dedup on
    // (label, endpoints).
    let mut edge_of: FxHashMap<Value, kgm_pgstore::EdgeId> = FxHashMap::default();
    let mut existing: FxHashSet<(Symbol, NodeId, NodeId)> = FxHashSet::default();
    for e in data.edges() {
        let (f, t) = data.edge_endpoints(e);
        existing.insert((data.edge_label_sym(e), f, t));
    }
    // Endpoints must be resolvable: either loaded instance nodes or nodes
    // created by vo_node.
    let resolve_endpoint = |v: &Value| -> Option<NodeId> {
        v.as_oid()
            .and_then(|oid| imap.instance_to_node.get(&oid).copied())
            .or_else(|| node_of.get(v).copied())
    };
    for t in db.facts_iter("vo_edge") {
        let sm_oid = t[3]
            .as_oid()
            .ok_or_else(|| KgmError::Internal("vo_edge without SM oid".into()))?;
        let label = names
            .get(sm_oid)
            .ok_or_else(|| KgmError::NotFound("SM_Edge".into()))?;
        let (Some(f), Some(tt)) = (resolve_endpoint(&t[1]), resolve_endpoint(&t[2])) else {
            continue;
        };
        if !existing.insert((data.sym(label), f, tt)) {
            continue;
        }
        let e = data.add_edge(f, tt, label, vec![])?;
        edge_of.insert(t[0].clone(), e);
        stats.new_edges += 1;
    }
    for t in db.facts_iter("vo_eattr") {
        if t[2].is_labelled_null() {
            continue;
        }
        let Some(&e) = edge_of.get(&t[0]) else {
            continue;
        };
        let attr_oid = t[1]
            .as_oid()
            .ok_or_else(|| KgmError::Internal("vo_eattr without attr oid".into()))?;
        let name = names
            .get(attr_oid)
            .ok_or_else(|| KgmError::NotFound("SM_Attribute".into()))?;
        data.set_edge_prop(e, name, t[2].clone())?;
        stats.new_attrs += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsl::parse_gsl;

    fn company_schema() -> SuperSchema {
        parse_gsl(
            r#"
            schema Company {
              node Business { id name: string; }
              edge OWNS: Business -> Business { percentage: float; }
              intensional edge CONTROLS: Business -> Business;
            }
            "#,
        )
        .unwrap()
    }

    /// The control program of Example 4.1 in MetaLog.
    const CONTROL: &str = r#"
        (x: Business) -> (x)[c: CONTROLS](x).
        (x: Business)[: CONTROLS](z: Business)[: OWNS; percentage: w](y: Business),
            v = msum(w, <z>), v > 0.5 -> (x)[c: CONTROLS](y).
    "#;

    fn ownership_graph() -> PropertyGraph {
        // a →60% b, a →30% c, b →30% c: a controls b directly and c jointly.
        let mut g = PropertyGraph::new();
        let mk = |g: &mut PropertyGraph, name: &str| {
            g.add_node(["Business"], vec![("name".to_string(), Value::str(name))])
                .unwrap()
        };
        let a = mk(&mut g, "a");
        let b = mk(&mut g, "b");
        let c = mk(&mut g, "c");
        let own = |g: &mut PropertyGraph, f, t, p: f64| {
            g.add_edge(
                f,
                t,
                "OWNS",
                vec![("percentage".to_string(), Value::Float(p))],
            )
            .unwrap();
        };
        own(&mut g, a, b, 0.6);
        own(&mut g, a, c, 0.3);
        own(&mut g, b, c, 0.3);
        g
    }

    fn controls_of(g: &PropertyGraph) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = g
            .edges_with_label("CONTROLS")
            .into_iter()
            .map(|e| {
                let (f, t) = g.edge_endpoints(e);
                (
                    g.node_prop(f, "name").unwrap().to_string(),
                    g.node_prop(t, "name").unwrap().to_string(),
                )
            })
            .filter(|(f, t)| f != t) // drop the reflexive base-case edges
            .collect();
        out.sort();
        out
    }

    #[test]
    fn control_materializes_into_the_data_graph() {
        let schema = company_schema();
        let mut g = ownership_graph();
        let stats = materialize(&mut g, &schema, CONTROL, MaterializationMode::SinglePass).unwrap();
        assert!(stats.new_edges >= 2, "{stats:?}");
        assert_eq!(
            controls_of(&g),
            vec![
                ("a".to_string(), "b".to_string()),
                ("a".to_string(), "c".to_string()),
            ]
        );
        assert!(stats.reason_ms >= 0.0);
    }

    #[test]
    fn staged_mode_produces_the_same_result() {
        let schema = company_schema();
        let mut g1 = ownership_graph();
        let mut g2 = ownership_graph();
        materialize(&mut g1, &schema, CONTROL, MaterializationMode::SinglePass).unwrap();
        materialize(&mut g2, &schema, CONTROL, MaterializationMode::Staged).unwrap();
        assert_eq!(controls_of(&g1), controls_of(&g2));
    }

    /// A `max_bytes` of one byte, which the loaded instance relations
    /// already exceed, under `strict` or not.
    fn one_byte_budget(strict: bool) -> EngineConfig {
        EngineConfig {
            max_bytes: Some(1),
            strict,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn a_graceful_budget_stop_flushes_the_partial_result_and_names_the_stop() {
        let schema = company_schema();
        for mode in [MaterializationMode::SinglePass, MaterializationMode::Staged] {
            let mut g = ownership_graph();
            let edges = g.edge_count();
            let stats =
                materialize_with(&mut g, &schema, CONTROL, mode, one_byte_budget(false)).unwrap();
            assert_eq!(stats.termination, Termination::MemoryBudget, "{mode:?}");
            // The budget stopped the chase before its first derivation, so
            // the flushed prefix is empty.
            assert_eq!((stats.derived_facts, stats.new_edges), (0, 0), "{mode:?}");
            assert_eq!(g.edge_count(), edges, "{mode:?}");
        }
    }

    #[test]
    fn a_strict_budget_stop_errs_before_the_flush() {
        let schema = company_schema();
        let mut g = ownership_graph();
        let edges = g.edge_count();
        let mode = MaterializationMode::SinglePass;
        match materialize_with(&mut g, &schema, CONTROL, mode, one_byte_budget(true)) {
            Err(KgmError::ResourceExhausted(msg)) => assert!(msg.contains("max_bytes"), "{msg}"),
            other => panic!("strict mode must fail with ResourceExhausted, got {other:?}"),
        }
        assert_eq!(g.edge_count(), edges, "the data graph gets no edge");
        assert!(g.edges_with_label("CONTROLS").is_empty());
    }

    #[test]
    fn materialization_is_idempotent() {
        let schema = company_schema();
        let mut g = ownership_graph();
        materialize(&mut g, &schema, CONTROL, MaterializationMode::SinglePass).unwrap();
        let edges_before = g.edge_count();
        let stats2 =
            materialize(&mut g, &schema, CONTROL, MaterializationMode::SinglePass).unwrap();
        assert_eq!(g.edge_count(), edges_before, "{stats2:?}");
    }

    #[test]
    fn view_programs_are_renderable() {
        let schema = company_schema();
        let (vi, vo) = view_programs(&schema, CONTROL).unwrap();
        // V_I aggregates instance constructs into the Business/OWNS atoms.
        assert!(vi.contains("vi_is_Business"), "{vi}");
        assert!(vi.contains("i_sm_node"), "{vi}");
        // Its rules read the instance relations the load writes.
        let reads_instances = |l: &str| {
            l.contains("i_sm_node(") && l.contains("sm_ref(") && l.contains("-> vi_is_Business(")
        };
        assert!(vi.lines().any(reads_instances), "{vi}");
        // V_O de-normalizes CONTROLS facts into instance-construct facts.
        assert!(vo.contains("vo_edge"), "{vo}");
        assert!(vo.contains("CONTROLS"), "{vo}");
    }

    #[test]
    fn optional_attribute_views_use_absent_null() {
        // A schema with an optional attribute; a node lacking it must still
        // flow through the views.
        let schema = parse_gsl(
            r#"
            schema T {
              node P { id k: string; opt nick: string; }
              intensional edge SELF: P -> P;
            }
            "#,
        )
        .unwrap();
        let mut g = PropertyGraph::new();
        g.add_node(["P"], vec![("k".to_string(), Value::str("x"))])
            .unwrap();
        let sigma = "(x: P) -> (x)[e: SELF](x).";
        let stats = materialize(&mut g, &schema, sigma, MaterializationMode::SinglePass).unwrap();
        assert_eq!(stats.new_edges, 1);
        assert_eq!(g.edges_with_label("SELF").len(), 1);
    }

    #[test]
    fn derived_attributes_are_written_back() {
        // numberOfStakeholders as an intensional attribute (the §3.3
        // walkthrough introduces exactly this property on Business).
        let schema = parse_gsl(
            r#"
            schema T {
              node Person { id pid: string; }
              node Business { id name: string; intensional numberOfStakeholders: int; }
              edge HOLDS: Person -> Business;
            }
            "#,
        )
        .unwrap();
        let mut g = PropertyGraph::new();
        let p1 = g
            .add_node(["Person"], vec![("pid".to_string(), Value::str("p1"))])
            .unwrap();
        let p2 = g
            .add_node(["Person"], vec![("pid".to_string(), Value::str("p2"))])
            .unwrap();
        let b = g
            .add_node(["Business"], vec![("name".to_string(), Value::str("acme"))])
            .unwrap();
        g.add_edge(p1, b, "HOLDS", vec![]).unwrap();
        g.add_edge(p2, b, "HOLDS", vec![]).unwrap();
        let sigma = r#"
            (p: Person)[: HOLDS](b: Business), n = count(<p>)
                -> (b: Business; numberOfStakeholders: n).
        "#;
        let stats = materialize(&mut g, &schema, sigma, MaterializationMode::SinglePass).unwrap();
        assert!(stats.new_attrs >= 1, "{stats:?}");
        assert_eq!(g.node_prop(b, "numberOfStakeholders"), Some(&Value::Int(2)));
    }
}
