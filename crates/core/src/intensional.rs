//! Algorithm 2 — materialization of the intensional component.
//!
//! Given an instance `D` of a schema generated from super-schema `S`, and an
//! intensional component `Σ` written in MetaLog over `S`'s constructs, the
//! materialization proceeds exactly as the paper's Algorithm 2:
//!
//! 1. `D` is **loaded** into the instance-level super-constructs `I_SM_*`
//!    of the dictionary via the quasi-inverse copy mapping
//!    ([`crate::instances::load_instance`], line 4). The load writes the
//!    three instance relations (`i_sm_node`, `i_sm_edge`, `i_sm_attr`), one
//!    row per construct with its links as columns, straight into the
//!    dictionary's fact store, and that store becomes the chase's input;
//! 2. **input views** `V_I^Σ` are generated from a static analysis of `Σ`:
//!    for every node/edge label in `Σ`'s bodies, Vadalog rules aggregate the
//!    `I_SM_Node` / `I_SM_Edge` / `I_SM_Attribute` facts into the high-level
//!    atoms `L(oid, a₁, …, aₖ)` (lines 5, Example 6.2). A label's views
//!    read the instances of its descendants too, as PG-Schema makes an
//!    instance of a subtype an instance of its supertype. The load rejects
//!    an element without a mandatory attribute and writes the reserved
//!    *absent* null for a missing optional one, so every attribute joins
//!    its value straight into the label's atom: a label's view is one
//!    conjunctive rule per construct of its subtree, without negation;
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

use crate::dictionary::{Catalog, CatalogAttr, CatalogLabel, ConstructNames, Dictionary};
use crate::instances::{load_with, InstanceMap, I_SM_ATTR, I_SM_EDGE, I_SM_NODE};
use crate::supermodel::SuperSchema;
use kgm_common::{FxHashMap, KgmError, Oid, Result, Value};
use kgm_metalog::{parse_metalog, translate, MetaProgram, PgSchema};
use kgm_pgstore::{NodeId, PropertyGraph};
use kgm_runtime::telemetry;
use kgm_vadalog::{Atom, Engine, EngineConfig, FactDb, Program, Rule, Term, Termination, Var};
use std::collections::BTreeSet;

fn c(value: Value) -> Term {
    Term::Const(value)
}

/// A dictionary reference, resolved when the views are generated.
fn oid(oid: Oid) -> Term {
    c(Value::Oid(oid))
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
#[derive(Default)]
struct RuleBuilder {
    names: Vec<String>,
    body: Vec<Atom>,
    head: Vec<Atom>,
}

impl RuleBuilder {
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

    fn vars(&mut self, names: &[&str]) -> Vec<Term> {
        names.iter().map(|n| self.v(n)).collect()
    }

    fn fresh(&mut self) -> Term {
        self.v(&format!("_anon{}", self.names.len()))
    }

    fn body(mut self, pred: &str, terms: Vec<Term>) -> Self {
        self.body.push(Atom::new(pred, terms));
        self
    }

    fn head(mut self, pred: &str, terms: Vec<Term>) -> Self {
        self.head.push(Atom::new(pred, terms));
        self
    }

    fn build(self) -> Rule {
        Rule {
            body: self.body,
            steps: Vec::new(),
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

/// A node or an edge label. Their views differ only in the variables of an
/// instance, the relation that holds one and the names of the predicates.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Node,
    Edge,
}

impl Kind {
    /// The variables of an instance: its OID, then an edge's endpoints.
    fn keys(self) -> &'static [&'static str] {
        match self {
            Kind::Node => &["I"],
            Kind::Edge => &["IE", "F", "T"],
        }
    }

    /// The relation of its instances.
    fn relation(self) -> &'static str {
        match self {
            Kind::Node => I_SM_NODE,
            Kind::Edge => I_SM_EDGE,
        }
    }

    /// The output relations of an instance and of its attributes.
    fn outputs(self) -> (&'static str, &'static str) {
        match self {
            Kind::Node => ("vo_node", "vo_nattr"),
            Kind::Edge => ("vo_edge", "vo_eattr"),
        }
    }
}

/// A label Σ reads or writes, with its catalog entry.
type Construct<'c> = (Kind, &'c str, &'c CatalogLabel);

/// The schema OID and the instance OID Algorithm 2 encodes and loads
/// under.
const SCHEMA_OID: i64 = 1;
const INSTANCE_OID: i64 = 100;

/// Add to `rb` the atom that recognizes an instance of the schema construct
/// `sm`, and return its key terms: `i_sm_node(I, inst, ⟨sm⟩)` for a node
/// label, and `i_sm_edge(IE, inst, ⟨sm⟩, F, T)` for an edge label.
fn instance_atom(mut rb: RuleBuilder, kind: Kind, sm: Oid) -> (RuleBuilder, Vec<Term>) {
    let k = rb.vars(kind.keys());
    let mut terms = vec![k[0].clone(), c(Value::Int(INSTANCE_OID)), oid(sm)];
    terms.extend_from_slice(&k[1..]);
    (rb.body(kind.relation(), terms), k)
}

/// Add to `rb` the atom that reads the value `v` of attribute `attr` of the
/// instance `i`: `i_sm_attr(_, I, ⟨a⟩, V)`.
fn attr_atom(mut rb: RuleBuilder, attr: &CatalogAttr, i: Term, v: Term) -> RuleBuilder {
    let a = rb.fresh();
    rb.body(I_SM_ATTR, vec![a, i, oid(attr.oid), v])
}

/// Generate the input views `V_I^Σ` for the labels Σ's bodies read. They
/// read the instance relations the quasi-inverse load writes
/// ([`crate::instances`]), where every attribute of an instance has a row:
/// a missing optional one holds the absent null. So each label's view is
/// one conjunctive rule per construct of its subtree (the load gives an
/// instance its most specific construct): the instance atom, then one
/// `i_sm_attr` atom per attribute. An inherited attribute's rows reference
/// the ancestor's `SM_Attribute`, so the attribute atoms are the same for
/// every construct.
fn input_views(labels: &[Construct<'_>]) -> Program {
    let mut prog = Program::default();
    for &(kind, label, construct) in labels {
        for &sm in &construct.subtree {
            let (mut rb, mut head) = instance_atom(RuleBuilder::default(), kind, sm);
            for (idx, attr) in construct.attrs.iter().enumerate() {
                let v = rb.v(&format!("V{idx}"));
                rb = attr_atom(rb, attr, head[0].clone(), v.clone());
                head.push(v);
            }
            prog.rules.push(rb.head(label, head).build());
        }
    }
    prog
}

/// Generate the output views `V_O^Σ` for the labels Σ's heads write:
/// pass-through rules de-normalizing label facts into `vo_node` /
/// `vo_nattr` / `vo_edge` / `vo_eattr` instance-construct facts.
fn output_views(labels: &[Construct<'_>]) -> Program {
    let mut prog = Program::default();
    for &(kind, label, construct) in labels {
        let (vo, vo_attr) = kind.outputs();
        let mut rb = RuleBuilder::default();
        let k = rb.vars(kind.keys());
        let mut instance = k.clone();
        instance.push(oid(construct.oid));
        rb = rb.head(vo, instance);
        let mut body = k.clone();
        for (idx, attr) in construct.attrs.iter().enumerate() {
            let v = rb.v(&format!("V{idx}"));
            body.push(v.clone());
            rb = rb.head(vo_attr, vec![k[0].clone(), oid(attr.oid), v]);
        }
        prog.rules.push(rb.body(label, body).build());
    }
    prog
}

/// The labels Σ's bodies read and its heads write, each list sorted by
/// name with node labels first — the static analysis of Σ that drives view
/// generation (Section 6). Labels outside the schema get no views.
fn sigma_labels<'c>(
    sigma: &MetaProgram,
    catalog: &'c Catalog,
) -> (Vec<Construct<'c>>, Vec<Construct<'c>>) {
    let mut head_nodes: BTreeSet<String> = BTreeSet::new();
    let mut head_edges: BTreeSet<String> = BTreeSet::new();
    for p in sigma.rules.iter().flat_map(|r| &r.head) {
        head_nodes.extend(p.src.label.clone());
        for (regex, n) in &p.segments {
            head_nodes.extend(n.label.clone());
            head_edges.extend(
                regex
                    .edge_atoms()
                    .into_iter()
                    .filter_map(|e| e.label.clone()),
            );
        }
    }
    let resolve = |nodes: BTreeSet<String>, edges: BTreeSet<String>| -> Vec<Construct<'c>> {
        let nodes = nodes.into_iter().map(|l| (Kind::Node, l, &catalog.nodes));
        let edges = edges.into_iter().map(|l| (Kind::Edge, l, &catalog.edges));
        nodes
            .chain(edges)
            .filter_map(|(kind, l, in_schema)| {
                let (label, construct) = in_schema.get_key_value(&l)?;
                Some((kind, label.as_str(), construct))
            })
            .collect()
    };
    let body_nodes = sigma.node_labels().into_iter().collect();
    let body_edges = sigma.edge_labels().into_iter().collect();
    (
        resolve(body_nodes, body_edges),
        resolve(head_nodes, head_edges),
    )
}

/// The input and output views of Σ, and the labels its bodies read.
fn views<'c>(sigma: &MetaProgram, catalog: &'c Catalog) -> (Program, Program, Vec<&'c str>) {
    let (body, head) = sigma_labels(sigma, catalog);
    let read = body.iter().map(|&(_, label, _)| label).collect();
    (input_views(&body), output_views(&head), read)
}

/// Render the automatically generated `V_I` / `V_O` view programs for a
/// (schema, Σ) pair as Vadalog source — the inspectable counterpart of
/// Examples 6.1/6.2. OID constants (dictionary references resolved at
/// generation time) print as `⟨oid:…⟩` placeholders.
pub fn view_programs(schema: &SuperSchema, sigma_src: &str) -> Result<(String, String)> {
    let mut dict = Dictionary::new();
    dict.encode(schema, SCHEMA_OID)?;
    let catalog = dict.catalog(schema, SCHEMA_OID)?;
    let (vi, vo, _) = views(&parse_metalog(sigma_src)?, &catalog);
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
/// budgets (`max_bytes`, `deadline_ms`, `cancel`) reach
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

    // --- Load (Algorithm 2 line 4), after resolving the schema's labels
    // once for the load and the views. `telemetry::time` both scopes the
    // phase span and yields the elapsed ms kept in the stats, so the
    // harness report and the trace agree by construction.
    let (loaded, load_ms) = telemetry::time("intensional.load", String::new(), || {
        let catalog_span = kgm_runtime::span!("intensional.load.catalog");
        let mut dict = Dictionary::new();
        dict.encode(schema, SCHEMA_OID)?;
        let catalog = dict.catalog(schema, SCHEMA_OID)?;
        drop(catalog_span);
        let (_lstats, imap) = load_with(&mut dict, &catalog, INSTANCE_OID, data)?;
        telemetry::record_resident();
        Ok::<_, KgmError>((dict, catalog, imap))
    });
    let (mut dict, catalog, imap) = loaded?;
    stats.load_ms = load_ms;

    // --- Views + Σ (lines 5–8).
    let (reasoned, reason_ms) = telemetry::time("intensional.reason", format!("{mode:?}"), || {
        let sigma = parse_metalog(sigma_src)?;
        let pg_schema = pg_schema_of(schema);
        let mut mtv = translate(&sigma, &pg_schema, "unused")?;
        mtv.program.inputs.clear(); // atoms come from V_I, not raw graph scans
        let (vi, vo, read) = views(&sigma, &catalog);
        // The loaded instance relations are the chase's input.
        let instances = std::mem::take(&mut dict.instances);

        let mut db = match mode {
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
                for l in read {
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
        // The instance level is a staging area for the chase (§6): the
        // flush reads only the output relations, so nothing else outlives
        // the reasoning.
        let (node, nattr) = Kind::Node.outputs();
        let (edge, eattr) = Kind::Edge.outputs();
        db.retain_relations(&[node, nattr, edge, eattr]);
        telemetry::record_resident();
        Ok::<_, KgmError>(db)
    });
    let db = reasoned?;
    stats.reason_ms = reason_ms;

    // --- Flush (line 9).
    let (flushed, flush_ms) = telemetry::time("intensional.flush", String::new(), || {
        let flushed = flush(&db, &dict, schema, &imap, data, &mut stats);
        telemetry::record_resident();
        flushed
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
    let nodes_span = kgm_runtime::span!("intensional.flush.nodes");
    // vo_node(I, ⟨SM_Node⟩): a loaded instance resolves through the load
    // map; a labelled null or a Skolem value gets a node on first sight.
    let mut created: FxHashMap<Value, NodeId> = FxHashMap::default();
    let node_of = |created: &FxHashMap<Value, NodeId>, v: &Value| -> Option<NodeId> {
        v.as_oid()
            .and_then(|oid| imap.node(oid))
            .or_else(|| created.get(v).copied())
    };
    for t in db.facts_iter("vo_node") {
        let sm_oid = t[1]
            .as_oid()
            .ok_or_else(|| KgmError::Internal("vo_node without SM oid".into()))?;
        if node_of(&created, &t[0]).is_some() {
            continue;
        }
        let labels = names
            .node_labels(sm_oid, schema)
            .ok_or_else(|| KgmError::NotFound(format!("SM_Node oid {sm_oid:?}")))?;
        let n = data.add_node(labels, vec![])?;
        stats.new_nodes += 1;
        created.insert(t[0].clone(), n);
    }
    // vo_nattr(I, ⟨SM_Attribute⟩, V): set known, non-null values.
    for t in db.facts_iter("vo_nattr") {
        if t[2].is_labelled_null() {
            continue; // unknown / absent value
        }
        let Some(n) = node_of(&created, &t[0]) else {
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
    drop(nodes_span);
    let _edges_span = kgm_runtime::span!("intensional.flush.edges");
    // vo_edge(IE, F, T, ⟨SM_Edge⟩): add each edge whose endpoints resolve
    // and that the data graph lacks (by label and endpoints). Only
    // vo_eattr reads which edge an identity became.
    let mut edge_of: FxHashMap<Value, kgm_pgstore::EdgeId> = FxHashMap::default();
    let edge_attrs = db.len("vo_eattr") > 0;
    for t in db.facts_iter("vo_edge") {
        let sm_oid = t[3]
            .as_oid()
            .ok_or_else(|| KgmError::Internal("vo_edge without SM oid".into()))?;
        let label = names
            .get(sm_oid)
            .ok_or_else(|| KgmError::NotFound("SM_Edge".into()))?;
        let (Some(f), Some(tt)) = (node_of(&created, &t[1]), node_of(&created, &t[2])) else {
            continue;
        };
        if data.has_edge(f, data.sym(label), tt) {
            continue;
        }
        let e = data.add_edge(f, tt, label, vec![])?;
        if edge_attrs {
            edge_of.insert(t[0].clone(), e);
        }
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
    fn rematerializing_a_written_only_label_copies_nothing() {
        // Σ reads Business and OWNS and only writes CONTROLS, so the
        // CONTROLS edges of the first run get no input view in the second.
        let schema = company_schema();
        let sigma = "(x: Business)[: OWNS; percentage: w](y: Business), w > 0.5 \
                     -> (x)[c: CONTROLS](y).";
        let mut g = ownership_graph();
        let mode = MaterializationMode::SinglePass;
        let first = materialize(&mut g, &schema, sigma, mode).unwrap();
        assert_eq!(first.new_edges, 1);
        let second = materialize(&mut g, &schema, sigma, mode).unwrap();
        assert_eq!(second.new_edges, 0);
        assert_eq!(second.derived_facts, first.derived_facts);
    }

    #[test]
    fn view_programs_are_renderable() {
        let schema = company_schema();
        let (vi, vo) = view_programs(&schema, CONTROL).unwrap();
        // V_I aggregates instance constructs into the Business/OWNS atoms:
        // Business's one attribute is mandatory, so its rule reads the
        // instance relations the load writes directly.
        let reads_instances = |l: &str| {
            l.contains("i_sm_node(") && l.contains("i_sm_attr(") && l.contains("-> Business(")
        };
        assert!(vi.lines().any(reads_instances), "{vi}");
        // V_O de-normalizes CONTROLS facts into instance-construct facts.
        assert!(vo.contains("vo_edge"), "{vo}");
        assert!(vo.contains("CONTROLS"), "{vo}");
    }

    #[test]
    fn input_views_read_only_their_instance() {
        // One graph loaded twice, as instances 100 and 200, into one
        // dictionary: the views of instance 100 see each element once.
        let schema = company_schema();
        let g = ownership_graph();
        let mut dict = Dictionary::new();
        dict.encode(&schema, SCHEMA_OID).unwrap();
        let catalog = dict.catalog(&schema, SCHEMA_OID).unwrap();
        for instance in [INSTANCE_OID, 200] {
            load_with(&mut dict, &catalog, instance, &g).unwrap();
        }
        let (vi, _, _) = views(&parse_metalog(CONTROL).unwrap(), &catalog);
        let mut db = std::mem::take(&mut dict.instances);
        Engine::new(vi).unwrap().run(&mut db).unwrap();
        assert_eq!(db.len("Business"), g.node_count());
        assert_eq!(db.len("OWNS"), g.edge_count());
    }

    #[test]
    fn a_missing_mandatory_attribute_fails_materialize_before_any_edge() {
        // An OWNS edge without its mandatory percentage: the load rejects
        // it, so the data graph gets no CONTROLS edge in either mode.
        let schema = company_schema();
        for mode in [MaterializationMode::SinglePass, MaterializationMode::Staged] {
            let mut g = ownership_graph();
            let a = g.nodes_with_label("Business")[0];
            let c = g.nodes_with_label("Business")[2];
            g.add_edge(c, a, "OWNS", vec![]).unwrap();
            let edges = g.edge_count();
            match materialize(&mut g, &schema, CONTROL, mode) {
                Err(KgmError::Constraint(msg)) => assert!(msg.contains("`percentage`"), "{msg}"),
                other => panic!("{mode:?}: want a Constraint error, got {other:?}"),
            }
            assert_eq!(g.edge_count(), edges, "{mode:?}");
            assert!(g.edges_with_label("CONTROLS").is_empty(), "{mode:?}");
        }
    }

    #[test]
    fn materialize_times_the_load_and_the_flush_phase_by_phase() {
        let collector = telemetry::Collector::install();
        let mut g = ownership_graph();
        materialize(
            &mut g,
            &company_schema(),
            CONTROL,
            MaterializationMode::SinglePass,
        )
        .unwrap();
        let roots = collector.finish();
        let root = roots
            .iter()
            .find(|r| r.name == "intensional.materialize")
            .expect("materialize opens its root span");
        let children = |parent: &str| -> Vec<&str> {
            let span = root
                .find(parent)
                .unwrap_or_else(|| panic!("no {parent} span"));
            span.children.iter().map(|c| c.name.as_str()).collect()
        };
        assert_eq!(
            children("intensional.load"),
            [
                "intensional.load.catalog",
                "intensional.load.nodes",
                "intensional.load.edges"
            ]
        );
        assert_eq!(
            children("intensional.flush"),
            ["intensional.flush.nodes", "intensional.flush.edges"]
        );
    }

    #[test]
    fn materialize_records_the_resident_set_as_each_phase_closes() {
        let collector = telemetry::Collector::install();
        let mut g = ownership_graph();
        let mode = MaterializationMode::Staged;
        materialize(&mut g, &company_schema(), CONTROL, mode).unwrap();
        let roots = collector.finish();
        let root = roots
            .iter()
            .find(|r| r.name == "intensional.materialize")
            .expect("materialize opens its root span");
        let proc_status = telemetry::resident_kib().is_some();
        for phase in [
            "intensional.load",
            "intensional.reason",
            "intensional.flush",
        ] {
            let span = root
                .find(phase)
                .unwrap_or_else(|| panic!("no {phase} span"));
            for key in ["vm_hwm_kib", "vm_rss_kib"] {
                let got = span.counter(key);
                assert_eq!(got.is_some_and(|kib| kib > 0), proc_status, "{phase} {key}");
            }
        }
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
    fn an_order_condition_on_a_missing_optional_attribute_does_not_hold() {
        // The only OWNS edge has no `since`, so `y > 2` compares the absent
        // null, and no order holds with it.
        let schema = parse_gsl(
            "schema T { node B { id name: string; } edge OWNS: B -> B { opt since: int; } \
             intensional edge LINK: B -> B; }",
        )
        .unwrap();
        let sigma = "(p: B)[: OWNS; since: y](c: B), y > 2 -> (p)[l: LINK](c).";
        for mode in [MaterializationMode::SinglePass, MaterializationMode::Staged] {
            let mut g = PropertyGraph::new();
            let b = g
                .add_node(["B"], vec![("name".to_string(), Value::str("b"))])
                .unwrap();
            g.add_edge(b, b, "OWNS", vec![]).unwrap();
            let stats = materialize(&mut g, &schema, sigma, mode).unwrap();
            assert_eq!(stats.new_edges, 0, "{mode:?}");
        }
    }

    #[test]
    fn a_parent_label_reads_its_descendants_instances() {
        // The load gives the second node its most specific label,
        // PhysicalPerson; Σ reads Person, as MTV's direct program does.
        let schema = parse_gsl(
            r#"
            schema T {
              node Person { id pid: string; }
              node PhysicalPerson { gender: string; }
              generalization Person -> PhysicalPerson;
              intensional edge SELF: Person -> Person;
            }
            "#,
        )
        .unwrap();
        let sigma = "(x: Person) -> (x)[e: SELF](x).";
        for mode in [MaterializationMode::SinglePass, MaterializationMode::Staged] {
            let mut g = PropertyGraph::new();
            let prop = |k: &str, v: &str| (k.to_string(), Value::str(v));
            g.add_node(["Person"], vec![prop("pid", "p")]).unwrap();
            let pp = vec![prop("pid", "q"), prop("gender", "f")];
            g.add_node(["PhysicalPerson", "Person"], pp).unwrap();
            let stats = materialize(&mut g, &schema, sigma, mode).unwrap();
            assert_eq!(stats.new_edges, 2, "{mode:?}");
            assert_eq!(g.edges_with_label("SELF").len(), 2, "{mode:?}");
        }
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
