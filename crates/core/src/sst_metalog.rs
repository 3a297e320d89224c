//! The paper-faithful SSST execution path: Eliminate/Copy **MetaLog mapping
//! programs** run over the dictionary graph (Section 5, Examples 5.1/5.2).
//!
//! Algorithm 1, literally:
//!
//! 1. the mapping `M(M)` for the PG model is selected from the repository
//!    ([`PG_ELIMINATE`], [`PG_COPY`] — MetaLog source, one rule per step of
//!    §5.2);
//! 2. MTV compiles each program to Vadalog (`V(M)`, line 3);
//! 3. `S⁻ = Reason(S, M(M).Eliminate)` (line 4): the engine runs over the
//!    dictionary facts and the derived facts are materialized into a new
//!    dictionary graph — generalizations are eliminated by type
//!    accumulation and attribute copy-down along the
//!    `([: SM_CHILD]⁻ · [: SM_PARENT]⁻)*` path pattern of Example 5.1;
//! 4. `S' = Reason(S⁻, M(M).Copy)` (line 5): super-constructs are downcast
//!    into the PG-model constructs `Node`, `Label`, `Property`,
//!    `Relationship`, `UniquePropertyModifier` (Figure 5).
//!
//! New construct OIDs are minted by **linker Skolem functors** (`skN`,
//! `skT`, `skAD`, …), whose determinism makes independent mapping rules
//! link up on shared derived objects and makes re-derived facts deduplicate
//! — exactly the property Section 4 introduces them for.
//!
//! Scope note (documented substitution): the default pipeline realizes the
//! **multi-label** implementation strategy, where edge inheritance
//! (Example 5.2) is unnecessary because descendants carry their ancestors'
//! labels. The Example 5.2 edge-inheritance rule itself is exercised by
//! [`EDGE_INHERITANCE`] and its test.

use crate::dictionary::{dictionary_pg_schema, Dictionary};
use crate::models::pg::{PgModelSchema, PgNodeType, PgProperty, PgRelationship};
use crate::supermodel::SuperSchema;
use kgm_common::{FxHashMap, KgmError, Result, Value, ValueType};
use kgm_metalog::{parse_metalog, translate, PgSchema};
use kgm_pgstore::{Direction, NodeId, PropertyGraph};
use kgm_vadalog::{Engine, EngineConfig, FactDb, SourceRegistry};
use std::sync::Arc;

/// Schema OID of the source super-schema `S` in the dictionary.
pub const SRC_OID: i64 = 1;
/// Schema OID of the intermediate super-schema `S⁻`.
pub const MID_OID: i64 = 2;
/// Schema OID of the target schema `S'`.
pub const DST_OID: i64 = 3;

/// `M(PG).Eliminate` — the §5.2 elimination programs as MetaLog source.
pub const PG_ELIMINATE: &str = r#"
% Eliminate.CopyNodes
(n: SM_Node; schemaOID: 1, isIntensional: b), x = skolem("skN", n)
  -> (x: SM_Node; schemaOID: 2, isIntensional: b).

% Eliminate.DeleteGeneralizations(1) — type accumulation (Example 5.1):
% every node inherits the SM_Type of each of its ancestors (the 0-step case
% of the star keeps its own type).
(n: SM_Node; schemaOID: 1) ([: SM_CHILD]- . [: SM_PARENT]-)* (a: SM_Node; schemaOID: 1)
  [: SM_HAS_NODE_TYPE] (t: SM_Type; schemaOID: 1, name: w),
  x = skolem("skN", n), l = skolem("skT", t)
  -> (x)[h: SM_HAS_NODE_TYPE](l: SM_Type; schemaOID: 2, name: w).

% Eliminate.DeleteGeneralizations(2) — attribute copy-down: ancestors'
% attributes are cloned onto every descendant (Skolem key (attr, node)).
(n: SM_Node; schemaOID: 1) ([: SM_CHILD]- . [: SM_PARENT]-)* (a: SM_Node; schemaOID: 1)
  [: SM_HAS_NODE_ATTR] (at: SM_Attribute; schemaOID: 1, name: w, type: ty, isOpt: o,
                        isId: d, isIntensional: b, ord: r),
  x = skolem("skN", n), y = skolem("skAD", at, n)
  -> (x)[h: SM_HAS_NODE_ATTR](y: SM_Attribute; schemaOID: 2, name: w,
        type: ty, isOpt: o, isId: d, isIntensional: b, ord: r).

% Eliminate.CopyUniqueAttributeModifiers (copied down with their attribute).
(n: SM_Node; schemaOID: 1) ([: SM_CHILD]- . [: SM_PARENT]-)* (a: SM_Node; schemaOID: 1)
  [: SM_HAS_NODE_ATTR] (at: SM_Attribute; schemaOID: 1),
  (at)[: SM_HAS_MODIFIER](m: SM_UniqueAttributeModifier; schemaOID: 1),
  y = skolem("skAD", at, n), u = skolem("skMD", m, n)
  -> (y)[h: SM_HAS_MODIFIER](u: SM_UniqueAttributeModifier; schemaOID: 2).

% Eliminate.CopyEdges — edges, their types and endpoints.
(e: SM_Edge; schemaOID: 1, isIntensional: b, isOpt1: o1, isFun1: f1,
             isOpt2: o2, isFun2: f2)
  [: SM_HAS_EDGE_TYPE](t: SM_Type; schemaOID: 1, name: w),
  (e)[: SM_FROM](n: SM_Node; schemaOID: 1), (e)[: SM_TO](m: SM_Node; schemaOID: 1),
  x = skolem("skE", e), l = skolem("skT2", t),
  nf = skolem("skN", n), nt = skolem("skN", m)
  -> (x: SM_Edge; schemaOID: 2, isIntensional: b, isOpt1: o1, isFun1: f1,
        isOpt2: o2, isFun2: f2),
     (x)[h1: SM_HAS_EDGE_TYPE](l: SM_Type; schemaOID: 2, name: w),
     (x)[h2: SM_FROM](nf), (x)[h3: SM_TO](nt).

% Eliminate.CopyEdgeAttributes
(e: SM_Edge; schemaOID: 1)
  [: SM_HAS_EDGE_ATTR](at: SM_Attribute; schemaOID: 1, name: w, type: ty, isOpt: o,
                       isId: d, isIntensional: b, ord: r),
  x = skolem("skE", e), y = skolem("skA", at)
  -> (x)[h: SM_HAS_EDGE_ATTR](y: SM_Attribute; schemaOID: 2, name: w,
        type: ty, isOpt: o, isId: d, isIntensional: b, ord: r).
"#;

/// `M(PG).Copy` — downcast `S⁻` super-constructs into PG-model constructs
/// (Figure 5: each construct is suffixed with the super-construct it
/// instantiates).
pub const PG_COPY: &str = r#"
% Copy.StoreNodes
(n: SM_Node; schemaOID: 2, isIntensional: b), x = skolem("skCN", n)
  -> (x: Node; schemaOID: 3, isIntensional: b).

% Copy.StoreLabels (SM_Type -> Label; multi-tagging via accumulated types)
(n: SM_Node; schemaOID: 2)[: SM_HAS_NODE_TYPE](t: SM_Type; schemaOID: 2, name: w),
  x = skolem("skCN", n), l = skolem("skCL", t)
  -> (x)[h: HAS_LABEL](l: Label; schemaOID: 3, name: w).

% Copy.StoreProperties
(n: SM_Node; schemaOID: 2)
  [: SM_HAS_NODE_ATTR](a: SM_Attribute; schemaOID: 2, name: w, type: ty, isOpt: o,
                       isId: d, isIntensional: b, ord: r),
  x = skolem("skCN", n), p = skolem("skCP", a)
  -> (x)[h: HAS_PROPERTY](p: Property; schemaOID: 3, name: w, type: ty,
        isOpt: o, isId: d, isIntensional: b, ord: r).

% Copy.StoreUniquePropertyModifiers
(a: SM_Attribute; schemaOID: 2)[: SM_HAS_MODIFIER](m: SM_UniqueAttributeModifier; schemaOID: 2),
  p = skolem("skCP", a), u = skolem("skCU", m)
  -> (p)[h: HAS_UNIQUE_MODIFIER](u: UniquePropertyModifier; schemaOID: 3).

% Copy.StoreRelationships (type name folded onto the Relationship)
(e: SM_Edge; schemaOID: 2, isIntensional: b)
  [: SM_HAS_EDGE_TYPE](t: SM_Type; schemaOID: 2, name: w),
  (e)[: SM_FROM](n: SM_Node; schemaOID: 2), (e)[: SM_TO](m: SM_Node; schemaOID: 2),
  r = skolem("skCR", e), nf = skolem("skCN", n), nt = skolem("skCN", m)
  -> (r: Relationship; schemaOID: 3, name: w, isIntensional: b),
     (r)[h1: REL_FROM](nf), (r)[h2: REL_TO](nt).

% Copy.StoreRelationshipProperties
(e: SM_Edge; schemaOID: 2)
  [: SM_HAS_EDGE_ATTR](a: SM_Attribute; schemaOID: 2, name: w, type: ty, isOpt: o,
                       isIntensional: b, ord: r2),
  r = skolem("skCR", e), p = skolem("skCRP", a)
  -> (r)[h: REL_HAS_PROPERTY](p: Property; schemaOID: 3, name: w, type: ty,
        isOpt: o, isId: false, isIntensional: b, ord: r2).
"#;

/// The Example 5.2 edge-inheritance rule (Eliminate.DeleteGeneralizations(3)
/// for outgoing edges), provided for the parent-edge strategy and exercised
/// directly in tests: a new `SM_Edge` is created from every descendant `c`
/// of the declared source `n` to the declared target `m`.
pub const EDGE_INHERITANCE: &str = r#"
(c: SM_Node; schemaOID: 1) ([: SM_CHILD]- . [: SM_PARENT]-)* (n: SM_Node; schemaOID: 1)
  [: SM_FROM]- (e: SM_Edge; schemaOID: 1) [: SM_TO] (m: SM_Node; schemaOID: 1),
  f = skolem("skED", e, c), x = skolem("skN", c), z = skolem("skN", m),
  u = skolem("skFR", e, c), t = skolem("skTO", e, c)
  -> (x)[u2: SM_FROM]-(f: SM_Edge; schemaOID: 2)[t2: SM_TO](z).
"#;

/// The MTV label catalog covering both the dictionary layout and the
/// PG-model constructs of Figure 5.
pub fn pg_model_dictionary_schema() -> PgSchema {
    let mut s = dictionary_pg_schema();
    s.declare_node("Node", ["schemaOID", "isIntensional"])
        .declare_node("Label", ["schemaOID", "name"])
        .declare_node(
            "Property",
            [
                "schemaOID",
                "name",
                "type",
                "isOpt",
                "isId",
                "isIntensional",
                "ord",
            ],
        )
        .declare_node("Relationship", ["schemaOID", "name", "isIntensional"])
        .declare_node("UniquePropertyModifier", ["schemaOID"])
        .declare_edge("HAS_LABEL", Vec::<String>::new())
        .declare_edge("HAS_PROPERTY", Vec::<String>::new())
        .declare_edge("REL_HAS_PROPERTY", Vec::<String>::new())
        .declare_edge("REL_FROM", Vec::<String>::new())
        .declare_edge("REL_TO", Vec::<String>::new())
        .declare_edge("HAS_UNIQUE_MODIFIER", Vec::<String>::new());
    s
}

/// Run one MetaLog mapping program over `graph` and materialize the derived
/// node/edge facts into a fresh graph.
///
/// `node_labels` / `edge_labels` name the head labels to materialize; their
/// tuple shapes come from `catalog`. Returns the result graph and the
/// generated Vadalog source (for inspection, like Example 4.4).
pub fn run_mapping(
    graph: Arc<PropertyGraph>,
    catalog: &PgSchema,
    metalog_src: &str,
    node_labels: &[&str],
    edge_labels: &[&str],
) -> Result<(PropertyGraph, String)> {
    let _span = kgm_runtime::span!(
        "sst.run_mapping",
        "{} node labels, {} edge labels",
        node_labels.len(),
        edge_labels.len()
    );
    let meta = parse_metalog(metalog_src)?;
    let out = translate(&meta, catalog, "dict")?;
    // Strict: a truncated schema-transformation chase would silently drop
    // result constructs, so budget overruns must error, not degrade.
    let engine = Engine::with_config(
        out.program,
        EngineConfig {
            strict: true,
            ..EngineConfig::default()
        },
    )?;
    let mut registry = SourceRegistry::new();
    registry.add_graph("dict", graph);
    let mut db = FactDb::new();
    engine.load_inputs(&registry, &mut db)?;
    // Watermarks separate input facts from derived facts: only derived
    // constructs belong to the result schema.
    let mut watermarks: FxHashMap<String, usize> = FxHashMap::default();
    for l in node_labels.iter().chain(edge_labels.iter()) {
        watermarks.insert((*l).to_string(), db.len(l));
    }
    engine.run(&mut db)?;
    let result = materialize_facts(&db, catalog, node_labels, edge_labels, &watermarks)?;
    Ok((result, out.vadalog_source))
}

/// Build a property graph from relational label facts (`L(oid, props…)`
/// node facts, `E(oid, from, to, props…)` edge facts). Labelled-null
/// property values (unknowns from head padding) are skipped.
pub fn materialize_facts(
    db: &FactDb,
    catalog: &PgSchema,
    node_labels: &[&str],
    edge_labels: &[&str],
    watermarks: &FxHashMap<String, usize>,
) -> Result<PropertyGraph> {
    let span = kgm_runtime::span!("sst.materialize");
    let start = |l: &str| watermarks.get(l).copied().unwrap_or(0);
    let mut g = PropertyGraph::new();
    let mut by_id: FxHashMap<Value, NodeId> = FxHashMap::default();
    for label in node_labels {
        let props = catalog.node_props(label)?.to_vec();
        for fact in db.facts_after_iter(label, start(label)) {
            if fact.len() != props.len() + 1 {
                return Err(KgmError::Internal(format!(
                    "{label} fact arity {} != {}",
                    fact.len(),
                    props.len() + 1
                )));
            }
            let id = fact[0].clone();
            let entry = by_id.get(&id).copied();
            let node = match entry {
                Some(n) => n,
                None => {
                    let n = g.add_node([*label], vec![])?;
                    by_id.insert(id, n);
                    n
                }
            };
            // A node id derived by several rules may accumulate labels.
            g.add_node_label(node, label)?;
            for (p, v) in props.iter().zip(fact[1..].iter()) {
                if v.is_labelled_null() {
                    continue;
                }
                g.set_node_prop(node, p, v.clone())?;
            }
        }
    }
    for label in edge_labels {
        let props = catalog.edge_props(label)?.to_vec();
        let mut seen: FxHashMap<(NodeId, NodeId), kgm_pgstore::EdgeId> = FxHashMap::default();
        for fact in db.facts_after_iter(label, start(label)) {
            if fact.len() != props.len() + 3 {
                return Err(KgmError::Internal(format!(
                    "{label} edge fact arity {} != {}",
                    fact.len(),
                    props.len() + 3
                )));
            }
            let (Some(&f), Some(&t)) = (by_id.get(&fact[1]), by_id.get(&fact[2])) else {
                // Dangling endpoints: the head referenced a node this
                // materialization pass does not cover.
                continue;
            };
            let e = match seen.get(&(f, t)) {
                Some(&e) => e,
                None => {
                    let e = g.add_edge(f, t, label, vec![])?;
                    seen.insert((f, t), e);
                    e
                }
            };
            for (p, v) in props.iter().zip(fact[3..].iter()) {
                if v.is_labelled_null() {
                    continue;
                }
                g.set_edge_prop(e, p, v.clone())?;
            }
        }
    }
    if span.is_active() {
        kgm_runtime::telemetry::record("nodes", g.node_count() as i64);
        kgm_runtime::telemetry::record("edges", g.edge_count() as i64);
    }
    Ok(g)
}

/// Statistics/artefacts of one MetaLog-driven SSST run.
#[derive(Debug, Clone)]
pub struct MetalogSstRun {
    /// The translated PG-model schema.
    pub schema: PgModelSchema,
    /// Vadalog source compiled from `M(PG).Eliminate` (inspectable).
    pub eliminate_vadalog: String,
    /// Vadalog source compiled from `M(PG).Copy`.
    pub copy_vadalog: String,
    /// Number of constructs in `S⁻`.
    pub intermediate_constructs: usize,
}

/// Execute Algorithm 1 for the PG model with the MetaLog mapping programs.
pub fn translate_to_pg_via_metalog(schema: &SuperSchema) -> Result<MetalogSstRun> {
    let _span = kgm_runtime::span!("sst.metalog_pg");
    // Line "encode S into the dictionary".
    let mut dict = Dictionary::new();
    dict.encode(schema, SRC_OID)?;
    let catalog = pg_model_dictionary_schema();

    // Line 4: S⁻ ← Reason(S, M(M).Eliminate).
    let sm_nodes = [
        "SM_Node",
        "SM_Type",
        "SM_Attribute",
        "SM_Edge",
        "SM_UniqueAttributeModifier",
    ];
    let sm_edges = [
        "SM_HAS_NODE_TYPE",
        "SM_HAS_NODE_ATTR",
        "SM_HAS_EDGE_TYPE",
        "SM_HAS_EDGE_ATTR",
        "SM_FROM",
        "SM_TO",
        "SM_HAS_MODIFIER",
    ];
    let (s_minus, eliminate_vadalog) = run_mapping(
        Arc::new(std::mem::take(&mut dict.graph)),
        &catalog,
        PG_ELIMINATE,
        &sm_nodes,
        &sm_edges,
    )?;
    let intermediate_constructs = s_minus.node_count() + s_minus.edge_count();

    // Line 5: S' ← Reason(S⁻, M(M).Copy).
    let (s_prime, copy_vadalog) = run_mapping(
        Arc::new(s_minus),
        &catalog,
        PG_COPY,
        &[
            "Node",
            "Label",
            "Property",
            "Relationship",
            "UniquePropertyModifier",
        ],
        &[
            "HAS_LABEL",
            "HAS_PROPERTY",
            "REL_HAS_PROPERTY",
            "REL_FROM",
            "REL_TO",
            "HAS_UNIQUE_MODIFIER",
        ],
    )?;

    let decoded = decode_pg_model(&s_prime, schema)?;
    Ok(MetalogSstRun {
        schema: decoded,
        eliminate_vadalog,
        copy_vadalog,
        intermediate_constructs,
    })
}

/// Decode a PG-model dictionary graph (`Node`/`Label`/`Property`/
/// `Relationship` constructs) into a [`PgModelSchema`]. The source
/// super-schema provides the specificity order used to pick each node's
/// primary label.
pub fn decode_pg_model(g: &PropertyGraph, schema: &SuperSchema) -> Result<PgModelSchema> {
    let mut out = PgModelSchema::default();
    let specificity = |l: &str| schema.ancestors(l).len();
    let mut primary_of: FxHashMap<NodeId, String> = FxHashMap::default();
    for n in g.nodes_with_label("Node") {
        let mut labels: Vec<String> = Vec::new();
        let mut properties: Vec<PgProperty> = Vec::new();
        let mut unique: Vec<String> = Vec::new();
        for e in g.incident_edges(n, Direction::Outgoing) {
            match g.edge_label(e).as_str() {
                "HAS_LABEL" => {
                    let l = g.edge_endpoints(e).1;
                    if let Some(name) = g.node_prop(l, "name") {
                        labels.push(name.to_string());
                    }
                }
                "HAS_PROPERTY" => {
                    let p = g.edge_endpoints(e).1;
                    let name = g
                        .node_prop(p, "name")
                        .map(|v| v.to_string())
                        .unwrap_or_default();
                    let ty = g
                        .node_prop(p, "type")
                        .and_then(|v| v.as_str().map(str::to_string))
                        .and_then(|t| ValueType::parse(&t))
                        .ok_or_else(|| {
                            KgmError::Schema(format!("property `{name}` has a bad type"))
                        })?;
                    let is_opt = g.node_prop(p, "isOpt") == Some(&Value::Bool(true));
                    let intensional = g.node_prop(p, "isIntensional") == Some(&Value::Bool(true));
                    properties.push(PgProperty {
                        name: name.clone(),
                        ty,
                        mandatory: !is_opt && !intensional,
                        intensional,
                    });
                    let has_unique = g
                        .incident_edges(p, Direction::Outgoing)
                        .into_iter()
                        .any(|m| g.edge_label(m) == "HAS_UNIQUE_MODIFIER");
                    if has_unique {
                        unique.push(name);
                    }
                }
                _ => {}
            }
        }
        let primary = labels
            .iter()
            .max_by_key(|l| specificity(l))
            .cloned()
            .ok_or_else(|| KgmError::Schema("Node without labels".into()))?;
        primary_of.insert(n, primary.clone());
        let intensional = g.node_prop(n, "isIntensional") == Some(&Value::Bool(true));
        out.node_types.push(PgNodeType {
            label: primary,
            labels,
            properties,
            unique,
            intensional,
        });
    }
    for r in g.nodes_with_label("Relationship") {
        let name = g
            .node_prop(r, "name")
            .map(|v| v.to_string())
            .ok_or_else(|| KgmError::Schema("Relationship without name".into()))?;
        let endpoint = |label: &str| -> Result<String> {
            g.incident_edges(r, Direction::Outgoing)
                .into_iter()
                .filter(|&e| g.edge_label(e) == label)
                .map(|e| g.edge_endpoints(e).1)
                .next()
                .and_then(|n| primary_of.get(&n).cloned())
                .ok_or_else(|| KgmError::Schema(format!("Relationship without {label}")))
        };
        let mut properties = Vec::new();
        for e in g.incident_edges(r, Direction::Outgoing) {
            if g.edge_label(e) != "REL_HAS_PROPERTY" {
                continue;
            }
            let p = g.edge_endpoints(e).1;
            let name = g
                .node_prop(p, "name")
                .map(|v| v.to_string())
                .unwrap_or_default();
            let ty = g
                .node_prop(p, "type")
                .and_then(|v| v.as_str().map(str::to_string))
                .and_then(|t| ValueType::parse(&t))
                .ok_or_else(|| KgmError::Schema(format!("bad type on `{name}`")))?;
            let is_opt = g.node_prop(p, "isOpt") == Some(&Value::Bool(true));
            let intensional = g.node_prop(p, "isIntensional") == Some(&Value::Bool(true));
            properties.push(PgProperty {
                name,
                ty,
                mandatory: !is_opt && !intensional,
                intensional,
            });
        }
        out.relationships.push(PgRelationship {
            name,
            from: endpoint("REL_FROM")?,
            to: endpoint("REL_TO")?,
            properties,
            intensional: g.node_prop(r, "isIntensional") == Some(&Value::Bool(true)),
        });
    }
    out.normalize();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsl::parse_gsl;
    use crate::sst::{translate_to_pg, PgGeneralizationStrategy};

    fn sample() -> SuperSchema {
        parse_gsl(
            r#"
            schema S {
              node Person {
                id fiscalCode: string unique;
                name: string;
                opt birthDate: date;
              }
              node PhysicalPerson { gender: string; }
              node LegalPerson { businessName: string; }
              generalization total disjoint Person -> PhysicalPerson, LegalPerson;
              node Business;
              generalization LegalPerson -> Business;
              node Share { id shareId: string; percentage: float; }
              edge HOLDS: Person [0..N] -> [0..N] Share { right: string; }
              intensional edge CONTROLS: Person -> Business;
            }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn metalog_path_matches_native_multilabel() {
        let schema = sample();
        let run = translate_to_pg_via_metalog(&schema).unwrap();
        let mut native = translate_to_pg(&schema, PgGeneralizationStrategy::MultiLabel).unwrap();
        native.normalize();
        // Compare piecewise for better failure messages.
        assert_eq!(
            run.schema.node_types.len(),
            native.node_types.len(),
            "node type counts"
        );
        for (a, b) in run.schema.node_types.iter().zip(native.node_types.iter()) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.labels, b.labels, "labels of {}", a.label);
            assert_eq!(a.properties, b.properties, "properties of {}", a.label);
            assert_eq!(a.unique, b.unique, "unique of {}", a.label);
            assert_eq!(a.intensional, b.intensional, "intensional of {}", a.label);
        }
        assert_eq!(run.schema.relationships, native.relationships);
    }

    #[test]
    fn generated_vadalog_sources_are_inspectable() {
        let run = translate_to_pg_via_metalog(&sample()).unwrap();
        // The Example 5.1 star translation appears as a β predicate.
        assert!(run.eliminate_vadalog.contains("ml_tc_"), "star compiled");
        assert!(run.eliminate_vadalog.contains("@input(SM_Node"));
        assert!(run.copy_vadalog.contains("Relationship"));
        assert!(run.intermediate_constructs > 0);
    }

    #[test]
    fn business_inherits_types_attributes_and_uniques() {
        // Business is two generalization levels below Person: the star in
        // the mapping must accumulate both levels.
        let run = translate_to_pg_via_metalog(&sample()).unwrap();
        let b = run.schema.node_type("Business").unwrap();
        assert_eq!(b.labels, vec!["Business", "LegalPerson", "Person"]);
        let names: Vec<&str> = b.properties.iter().map(|p| p.name.as_str()).collect();
        for p in ["businessName", "fiscalCode", "name", "birthDate"] {
            assert!(names.contains(&p), "missing {p}");
        }
        assert_eq!(b.unique, vec!["fiscalCode"]);
    }

    #[test]
    fn edge_inheritance_rule_of_example_5_2() {
        // Run only the Example 5.2 rule and check each descendant of the
        // declared source gets its own copied SM_Edge in S⁻.
        let schema = sample();
        let mut dict = Dictionary::new();
        dict.encode(&schema, SRC_OID).unwrap();
        let catalog = pg_model_dictionary_schema();
        // CopyNodes supplies the S⁻ node copies the inherited edges attach
        // to (linker Skolems make the two rules link up, Section 4).
        let program = format!(
            "{}\n{}",
            "(n: SM_Node; schemaOID: 1, isIntensional: b), x = skolem(\"skN\", n) \
             -> (x: SM_Node; schemaOID: 2, isIntensional: b).",
            EDGE_INHERITANCE
        );
        let (s_minus, _) = run_mapping(
            Arc::new(std::mem::take(&mut dict.graph)),
            &catalog,
            &program,
            &["SM_Edge", "SM_Node"],
            &["SM_FROM", "SM_TO"],
        )
        .unwrap();
        // HOLDS from Person (3 descendants + self) and CONTROLS from Person:
        // the rule copies each edge once per descendant-or-self of its
        // source: HOLDS×4 + CONTROLS×4 = 8 SM_Edges.
        assert_eq!(s_minus.nodes_with_label("SM_Edge").len(), 8);
        assert_eq!(s_minus.edges_with_label("SM_FROM").len(), 8);
        assert_eq!(s_minus.edges_with_label("SM_TO").len(), 8);
    }

    #[test]
    fn schema_without_generalizations_translates_cleanly() {
        let schema =
            parse_gsl("schema T { node A { id k: int; } node B { id j: int; } edge R: A -> B; }")
                .unwrap();
        let run = translate_to_pg_via_metalog(&schema).unwrap();
        let native = translate_to_pg(&schema, PgGeneralizationStrategy::MultiLabel).unwrap();
        assert_eq!(run.schema, native);
    }
}
