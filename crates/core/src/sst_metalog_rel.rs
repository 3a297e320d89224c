//! The §5.3 mapping — super-model to **relational model** — as MetaLog
//! programs over the dictionary, mirroring [`crate::sst_metalog`] for the PG
//! model.
//!
//! The Eliminate phase performs exactly the §5.3 simplifications:
//!
//! - generalizations are deleted by the FK-per-child tactic («we use a
//!   relation for each generalization member, connecting each child relation
//!   to the respective parent relation via foreign keys»): identifier
//!   attributes are copied down the `([: SM_CHILD]⁻ · [: SM_PARENT]⁻)*`
//!   hierarchy and each child gains a functional `SM_Edge` to its parent;
//! - many-to-many edges are deleted (`Eliminate.DeleteManyToManyEdges`):
//!   a new bridge `SM_Node` takes the edge's `SM_Type` and attributes, and
//!   two functional `SM_Edge`s `fk⁻ₙ` / `fk⁻ₘ` connect it to the endpoint
//!   relations, carrying the endpoints' identifying attributes;
//! - one-to-many edges are copied, normalized so the FK-holding side is
//!   always the `SM_FROM` end (`Eliminate.CopyOneToManyEdges` and its
//!   symmetric case).
//!
//! The Copy phase downcasts into the Figure 7 constructs: `Predicate`
//! (`SM_Node`), `Relation` (`SM_Type`), `Field` (`SM_Attribute`) and
//! `ForeignKey` (`SM_Edge`) with `HAS_SOURCE_FIELD` links, plus the derived
//! FK column fields on the holder predicates.
//!
//! The result is compared against the native §5.3 translation *structurally*
//! (table set, per-table column sets, FK table pairs) — naming conventions
//! (snake_case) are applied when rendering toward the target system, as the
//! paper leaves concrete identifier mangling to the deployment step.

use crate::dictionary::Dictionary;
use crate::models::relational::RelationalSchema;
use crate::sst::snake;
use crate::sst_metalog::{pg_model_dictionary_schema, run_mapping};
use crate::supermodel::SuperSchema;
use kgm_common::{FxHashMap, KgmError, Result};
use kgm_metalog::PgSchema;
use kgm_pgstore::{Direction, PropertyGraph};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// `M(REL).Eliminate` — §5.3 elimination as MetaLog (schema OID 1 → 2).
pub const REL_ELIMINATE: &str = r#"
% Eliminate.CopyNodes
(n: SM_Node; schemaOID: 1, isIntensional: b), x = skolem("rkN", n)
  -> (x: SM_Node; schemaOID: 2, isIntensional: b, isBridge: false).

% Eliminate.CopyTypes (no accumulation in the relational tactic)
(n: SM_Node; schemaOID: 1)[: SM_HAS_NODE_TYPE](t: SM_Type; schemaOID: 1, name: w),
  x = skolem("rkN", n), l = skolem("rkT", t)
  -> (x)[h: SM_HAS_NODE_TYPE](l: SM_Type; schemaOID: 2, name: w).

% Eliminate.CopyNodeAttributes (own attributes)
(n: SM_Node; schemaOID: 1)
  [: SM_HAS_NODE_ATTR](at: SM_Attribute; schemaOID: 1, name: w, type: ty,
                       isOpt: o, isId: d, isIntensional: b, ord: r),
  x = skolem("rkN", n), y = skolem("rkA", at, n)
  -> (x)[h: SM_HAS_NODE_ATTR](y: SM_Attribute; schemaOID: 2, name: w,
        type: ty, isOpt: o, isId: d, isIntensional: b, ord: r).

% Eliminate.DeleteGeneralizations (a): identifier copy-down — ancestors'
% identifying attributes become fields of every descendant relation. The
% Skolem key (attribute, node) matches CopyNodeAttributes', so the 0-step
% case coincides with it and deduplicates.
(n: SM_Node; schemaOID: 1) ([: SM_CHILD]- . [: SM_PARENT]-)* (a: SM_Node; schemaOID: 1)
  [: SM_HAS_NODE_ATTR](at: SM_Attribute; schemaOID: 1, isId: true, name: w,
                       type: ty, ord: r),
  x = skolem("rkN", n), y = skolem("rkA", at, n)
  -> (x)[h: SM_HAS_NODE_ATTR](y: SM_Attribute; schemaOID: 2, name: w,
        type: ty, isOpt: false, isId: true, isIntensional: false, ord: r).

% Eliminate.DeleteGeneralizations (b): each child gains a functional edge
% to its direct parent (the future foreign key).
(c: SM_Node; schemaOID: 1) [: SM_CHILD]- (g: SM_Generalization; schemaOID: 1)
  [: SM_PARENT]- (p: SM_Node; schemaOID: 1),
  (c)[: SM_HAS_NODE_TYPE](ct: SM_Type; schemaOID: 1, name: cn),
  (p)[: SM_HAS_NODE_TYPE](pt: SM_Type; schemaOID: 1, name: pn),
  xc = skolem("rkN", c), xp = skolem("rkN", p),
  f = skolem("rkG", g, c), ft = skolem("rkGT", g, c),
  nm = concat("is_a_", pn)
  -> (f: SM_Edge; schemaOID: 2, isIntensional: false, isGen: true,
        isOpt1: false, isFun1: false, isOpt2: false, isFun2: true),
     (f)[h1: SM_HAS_EDGE_TYPE](ft: SM_Type; schemaOID: 2, name: nm),
     (f)[h2: SM_FROM](xc), (f)[h3: SM_TO](xp).

% Eliminate.CopyOneToManyEdges — FK-holder side is the FROM end.
(e: SM_Edge; schemaOID: 1, isFun2: true, isIntensional: b, isOpt1: o1,
             isFun1: f1, isOpt2: o2)
  [: SM_HAS_EDGE_TYPE](t: SM_Type; schemaOID: 1, name: w),
  (e)[: SM_FROM](n: SM_Node; schemaOID: 1), (e)[: SM_TO](m: SM_Node; schemaOID: 1),
  x = skolem("rkE", e), l = skolem("rkET", t),
  nf = skolem("rkN", n), nt = skolem("rkN", m)
  -> (x: SM_Edge; schemaOID: 2, isIntensional: b, isGen: false,
        isOpt1: o1, isFun1: f1, isOpt2: o2, isFun2: true),
     (x)[h1: SM_HAS_EDGE_TYPE](l: SM_Type; schemaOID: 2, name: w),
     (x)[h2: SM_FROM](nf), (x)[h3: SM_TO](nt).

% …the symmetric many-to-one case: normalize so the holder is FROM.
(e: SM_Edge; schemaOID: 1, isFun1: true, isFun2: false, isIntensional: b,
             isOpt1: o1, isOpt2: o2)
  [: SM_HAS_EDGE_TYPE](t: SM_Type; schemaOID: 1, name: w),
  (e)[: SM_FROM](n: SM_Node; schemaOID: 1), (e)[: SM_TO](m: SM_Node; schemaOID: 1),
  x = skolem("rkE", e), l = skolem("rkET", t),
  nf = skolem("rkN", n), nt = skolem("rkN", m)
  -> (x: SM_Edge; schemaOID: 2, isIntensional: b, isGen: false,
        isOpt1: o2, isFun1: false, isOpt2: o1, isFun2: true),
     (x)[h1: SM_HAS_EDGE_TYPE](l: SM_Type; schemaOID: 2, name: w),
     (x)[h2: SM_FROM](nt), (x)[h3: SM_TO](nf).

% Attributes of functional edges ride along on the copied edge.
(e: SM_Edge; schemaOID: 1, isFun2: true)
  [: SM_HAS_EDGE_ATTR](at: SM_Attribute; schemaOID: 1, name: w, type: ty,
                       isOpt: o, isIntensional: b, ord: r),
  x = skolem("rkE", e), y = skolem("rkEA", at)
  -> (x)[h: SM_HAS_EDGE_ATTR](y: SM_Attribute; schemaOID: 2, name: w,
        type: ty, isOpt: o, isId: false, isIntensional: b, ord: r).
(e: SM_Edge; schemaOID: 1, isFun1: true, isFun2: false)
  [: SM_HAS_EDGE_ATTR](at: SM_Attribute; schemaOID: 1, name: w, type: ty,
                       isOpt: o, isIntensional: b, ord: r),
  x = skolem("rkE", e), y = skolem("rkEA", at)
  -> (x)[h: SM_HAS_EDGE_ATTR](y: SM_Attribute; schemaOID: 2, name: w,
        type: ty, isOpt: o, isId: false, isIntensional: b, ord: r).

% Eliminate.DeleteManyToManyEdges (1): the bridge node takes the edge type.
(e: SM_Edge; schemaOID: 1, isFun1: false, isFun2: false, isIntensional: b)
  [: SM_HAS_EDGE_TYPE](t: SM_Type; schemaOID: 1, name: w),
  pB = skolem("rkP", e), tB = skolem("rkPT", t)
  -> (pB: SM_Node; schemaOID: 2, isIntensional: b, isBridge: true),
     (pB)[h: SM_HAS_NODE_TYPE](tB: SM_Type; schemaOID: 2, name: w).

% (1 cont.): the edge's attributes become bridge-node attributes.
(e: SM_Edge; schemaOID: 1, isFun1: false, isFun2: false)
  [: SM_HAS_EDGE_ATTR](at: SM_Attribute; schemaOID: 1, name: w, type: ty,
                       isOpt: o, isIntensional: b, ord: r),
  pB = skolem("rkP", e), y = skolem("rkPA", at)
  -> (pB)[h: SM_HAS_NODE_ATTR](y: SM_Attribute; schemaOID: 2, name: w,
        type: ty, isOpt: o, isId: false, isIntensional: b, ord: r).

% (2)/(3): fk⁻ₙ and fk⁻ₘ — functional edges from the bridge to each
% endpoint, fixed attributes as in the paper.
(e: SM_Edge; schemaOID: 1, isFun1: false, isFun2: false, isOpt1: o1, isOpt2: o2)
  [: SM_FROM](n: SM_Node; schemaOID: 1),
  (e)[: SM_TO](m: SM_Node; schemaOID: 1),
  pB = skolem("rkP", e),
  fkn = skolem("rkFN", e), fknT = skolem("rkFNT", e),
  fkm = skolem("rkFM", e), fkmT = skolem("rkFMT", e),
  xn = skolem("rkN", n), xm = skolem("rkN", m)
  -> (fkn: SM_Edge; schemaOID: 2, isIntensional: false, isGen: false,
        isOpt1: o1, isFun1: false, isOpt2: false, isFun2: true),
     (fkn)[h1: SM_HAS_EDGE_TYPE](fknT: SM_Type; schemaOID: 2, name: "src"),
     (fkn)[h2: SM_FROM](pB), (fkn)[h3: SM_TO](xn),
     (fkm: SM_Edge; schemaOID: 2, isIntensional: false, isGen: false,
        isOpt1: o2, isFun1: false, isOpt2: false, isFun2: true),
     (fkm)[h4: SM_HAS_EDGE_TYPE](fkmT: SM_Type; schemaOID: 2, name: "dst"),
     (fkm)[h5: SM_FROM](pB), (fkm)[h6: SM_TO](xm).
"#;

/// `M(REL).Copy` — downcast into the Figure 7 constructs (OID 2 → 3).
pub const REL_COPY: &str = r#"
% Copy.StorePredicatesAndRelations
(n: SM_Node; schemaOID: 2)[: SM_HAS_NODE_TYPE](t: SM_Type; schemaOID: 2, name: w),
  x = skolem("rkCP", n), l = skolem("rkCR", t)
  -> (x: Predicate; schemaOID: 3)[h: HAS_RELATION](l: Relation; schemaOID: 3, name: w).

% Copy.StoreNodeAttributes → Fields
(n: SM_Node; schemaOID: 2)
  [: SM_HAS_NODE_ATTR](a: SM_Attribute; schemaOID: 2, name: w, type: ty,
                       isOpt: o, isId: d, ord: r),
  x = skolem("rkCP", n), f = skolem("rkCF", a)
  -> (x)[h: HAS_FIELD](f: Field; schemaOID: 3, name: w, type: ty,
        isOpt: o, isId: d, ord: r).

% Copy.StoreOneToManyEdges → ForeignKeys between predicates
(e: SM_Edge; schemaOID: 2, isFun2: true, isOpt1: o1)
  [: SM_HAS_EDGE_TYPE](t: SM_Type; schemaOID: 2, name: w),
  (e)[: SM_FROM](n: SM_Node; schemaOID: 2), (e)[: SM_TO](m: SM_Node; schemaOID: 2),
  fk = skolem("rkCK", e), xn = skolem("rkCP", n), xm = skolem("rkCP", m)
  -> (fk: ForeignKey; schemaOID: 3, name: w, isOpt: o1),
     (fk)[h1: FK_FROM](xn), (fk)[h2: FK_TO](xm).

% HAS_SOURCE_FIELD: the referenced relation's identifier fields.
(e: SM_Edge; schemaOID: 2, isFun2: true)[: SM_TO](m: SM_Node; schemaOID: 2),
  (m)[: SM_HAS_NODE_ATTR](a: SM_Attribute; schemaOID: 2, isId: true),
  fk = skolem("rkCK", e), f = skolem("rkCF", a)
  -> (fk)[h: HAS_SOURCE_FIELD](f).

% The FK columns materialize as fields of the holder predicate: one per
% identifying attribute of the target. Generalization FKs reuse the copied
% identifier columns and create none. Bridge predicates key on them.
(e: SM_Edge; schemaOID: 2, isFun2: true, isGen: false)
  [: SM_FROM](n: SM_Node; schemaOID: 2, isBridge: false),
  (e)[: SM_TO](m: SM_Node; schemaOID: 2),
  (m)[: SM_HAS_NODE_ATTR](a: SM_Attribute; schemaOID: 2, isId: true, name: w,
                          type: ty),
  (e)[: SM_HAS_EDGE_TYPE](t: SM_Type; schemaOID: 2, name: en),
  x = skolem("rkCP", n), f = skolem("rkCKF", e, a),
  nm = concat(en, "_", w)
  -> (x)[h: HAS_FIELD](f: Field; schemaOID: 3, name: nm, type: ty,
        isOpt: false, isId: false, ord: 90).
(e: SM_Edge; schemaOID: 2, isFun2: true, isGen: false)
  [: SM_FROM](n: SM_Node; schemaOID: 2, isBridge: true),
  (e)[: SM_TO](m: SM_Node; schemaOID: 2),
  (m)[: SM_HAS_NODE_ATTR](a: SM_Attribute; schemaOID: 2, isId: true, name: w,
                          type: ty),
  (e)[: SM_HAS_EDGE_TYPE](t: SM_Type; schemaOID: 2, name: en),
  x = skolem("rkCP", n), f = skolem("rkCKF", e, a),
  nm = concat(en, "_", w)
  -> (x)[h: HAS_FIELD](f: Field; schemaOID: 3, name: nm, type: ty,
        isOpt: false, isId: true, ord: 90).

% Edge attributes of functional edges become fields of the holder.
(e: SM_Edge; schemaOID: 2, isFun2: true)
  [: SM_FROM](n: SM_Node; schemaOID: 2),
  (e)[: SM_HAS_EDGE_ATTR](a: SM_Attribute; schemaOID: 2, name: w, type: ty,
                          isOpt: o, ord: r),
  (e)[: SM_HAS_EDGE_TYPE](t: SM_Type; schemaOID: 2, name: en),
  x = skolem("rkCP", n), f = skolem("rkCEF", a),
  nm = concat(en, "_", w)
  -> (x)[h: HAS_FIELD](f: Field; schemaOID: 3, name: nm, type: ty,
        isOpt: o, isId: false, ord: 91).
"#;

/// The MTV catalog extended with the `isGen`/`isBridge` markers and the
/// Figure 7 relational-model constructs.
pub fn rel_model_dictionary_schema() -> PgSchema {
    let mut s = pg_model_dictionary_schema();
    // Re-declare the super-constructs that carry the extra elimination
    // markers (the declaration order must match the encoded tuple shape,
    // so the markers go last).
    s.declare_node("SM_Node", ["schemaOID", "isIntensional", "isBridge"])
        .declare_node(
            "SM_Edge",
            [
                "schemaOID",
                "isIntensional",
                "isOpt1",
                "isFun1",
                "isOpt2",
                "isFun2",
                "isGen",
            ],
        )
        .declare_node("Predicate", ["schemaOID"])
        .declare_node("Relation", ["schemaOID", "name"])
        .declare_node(
            "Field",
            ["schemaOID", "name", "type", "isOpt", "isId", "ord"],
        )
        .declare_node("ForeignKey", ["schemaOID", "name", "isOpt"])
        .declare_edge("HAS_RELATION", Vec::<String>::new())
        .declare_edge("HAS_FIELD", Vec::<String>::new())
        .declare_edge("FK_FROM", Vec::<String>::new())
        .declare_edge("FK_TO", Vec::<String>::new())
        .declare_edge("HAS_SOURCE_FIELD", Vec::<String>::new());
    s
}

/// A naming-convention-independent structural summary of a relational
/// schema: used to compare the MetaLog-driven output with the native one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelStructure {
    /// table name → column names (snake_case).
    pub tables: BTreeMap<String, BTreeSet<String>>,
    /// (referencing table, referenced table) pairs.
    pub fk_pairs: BTreeSet<(String, String)>,
}

/// Summarize a native [`RelationalSchema`].
pub fn native_structure(rel: &RelationalSchema) -> RelStructure {
    let tables = rel
        .tables
        .iter()
        .map(|t| {
            (
                t.name.clone(),
                t.columns.iter().map(|c| c.name.clone()).collect(),
            )
        })
        .collect();
    let fk_pairs = rel
        .foreign_keys
        .iter()
        .map(|fk| (fk.table.clone(), fk.ref_table.clone()))
        .collect();
    RelStructure { tables, fk_pairs }
}

/// Decode the `S'` relational-model dictionary graph into a structure.
pub fn decode_structure(g: &PropertyGraph) -> Result<RelStructure> {
    let mut tables: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut name_of: FxHashMap<kgm_pgstore::NodeId, String> = FxHashMap::default();
    for p in g.nodes_with_label("Predicate") {
        let mut relname = None;
        let mut columns: BTreeSet<String> = BTreeSet::new();
        for e in g.incident_edges(p, Direction::Outgoing) {
            match g.edge_label(e).as_str() {
                "HAS_RELATION" => {
                    let r = g.edge_endpoints(e).1;
                    relname = g.node_prop(r, "name").map(|v| snake(&v.to_string()));
                }
                "HAS_FIELD" => {
                    let f = g.edge_endpoints(e).1;
                    if let Some(n) = g.node_prop(f, "name") {
                        columns.insert(snake(&n.to_string()));
                    }
                }
                _ => {}
            }
        }
        let relname =
            relname.ok_or_else(|| KgmError::Schema("Predicate without Relation".into()))?;
        name_of.insert(p, relname.clone());
        tables.insert(relname, columns);
    }
    let mut fk_pairs: BTreeSet<(String, String)> = BTreeSet::new();
    for fk in g.nodes_with_label("ForeignKey") {
        let endpoint = |label: &str| -> Result<String> {
            g.incident_edges(fk, Direction::Outgoing)
                .into_iter()
                .filter(|&e| g.edge_label(e) == label)
                .map(|e| g.edge_endpoints(e).1)
                .next()
                .and_then(|n| name_of.get(&n).cloned())
                .ok_or_else(|| KgmError::Schema(format!("ForeignKey without {label}")))
        };
        fk_pairs.insert((endpoint("FK_FROM")?, endpoint("FK_TO")?));
    }
    Ok(RelStructure { tables, fk_pairs })
}

/// Execute Algorithm 1 for the relational model with the MetaLog mapping
/// programs; returns the structural summary plus the generated Vadalog
/// sources.
pub struct RelMetalogRun {
    /// Structural summary of `S'`.
    pub structure: RelStructure,
    /// Compiled Eliminate program.
    pub eliminate_vadalog: String,
    /// Compiled Copy program.
    pub copy_vadalog: String,
}

/// Run the §5.3 MetaLog mapping pipeline.
pub fn translate_to_relational_via_metalog(schema: &SuperSchema) -> Result<RelMetalogRun> {
    let _span = kgm_runtime::span!("sst.metalog_rel");
    let mut dict = Dictionary::new();
    dict.encode(schema, 1)?;
    let catalog = rel_model_dictionary_schema();

    let (s_minus, eliminate_vadalog) = run_mapping(
        Arc::new(std::mem::take(&mut dict.graph)),
        &catalog,
        REL_ELIMINATE,
        &["SM_Node", "SM_Type", "SM_Attribute", "SM_Edge"],
        &[
            "SM_HAS_NODE_TYPE",
            "SM_HAS_NODE_ATTR",
            "SM_HAS_EDGE_TYPE",
            "SM_HAS_EDGE_ATTR",
            "SM_FROM",
            "SM_TO",
        ],
    )?;
    let (s_prime, copy_vadalog) = run_mapping(
        Arc::new(s_minus),
        &catalog,
        REL_COPY,
        &["Predicate", "Relation", "Field", "ForeignKey"],
        &[
            "HAS_RELATION",
            "HAS_FIELD",
            "FK_FROM",
            "FK_TO",
            "HAS_SOURCE_FIELD",
        ],
    )?;
    Ok(RelMetalogRun {
        structure: decode_structure(&s_prime)?,
        eliminate_vadalog,
        copy_vadalog,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsl::parse_gsl;
    use crate::sst::{translate_to_relational, RelGeneralizationStrategy};

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
              node Business { shareholdingCapital: float; }
              generalization LegalPerson -> Business;
              node Share { id shareId: string; percentage: float; }
              node Place { id placeId: string; city: string; }
              edge HOLDS: Person [0..N] -> [0..N] Share { right: string; }
              edge BELONGS_TO: Share [1..N] -> [1..1] Business;
              edge RESIDES: Person [0..N] -> [0..1] Place;
            }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn metalog_relational_matches_native_structure() {
        let schema = sample();
        let native = native_structure(
            &translate_to_relational(&schema, RelGeneralizationStrategy::ForeignKeyPerChild)
                .unwrap(),
        );
        let run = translate_to_relational_via_metalog(&schema).unwrap();
        assert_eq!(
            run.structure.tables.keys().collect::<Vec<_>>(),
            native.tables.keys().collect::<Vec<_>>(),
            "table sets must agree"
        );
        for (t, cols) in &native.tables {
            assert_eq!(
                run.structure.tables.get(t),
                Some(cols),
                "columns of `{t}` must agree"
            );
        }
        assert_eq!(
            run.structure.fk_pairs, native.fk_pairs,
            "FK pairs must agree"
        );
    }

    #[test]
    fn bridge_table_has_both_fk_column_sets() {
        let run = translate_to_relational_via_metalog(&sample()).unwrap();
        let holds = run.structure.tables.get("holds").expect("bridge table");
        assert!(holds.contains("src_fiscal_code"), "{holds:?}");
        assert!(holds.contains("dst_share_id"), "{holds:?}");
        assert!(holds.contains("right"), "edge attribute rides along");
    }

    #[test]
    fn generalization_fk_creates_no_extra_columns() {
        let run = translate_to_relational_via_metalog(&sample()).unwrap();
        let pp = run.structure.tables.get("physical_person").unwrap();
        // Only the copied identifier + own attribute.
        assert_eq!(
            pp.iter().collect::<Vec<_>>(),
            vec!["fiscal_code", "gender"],
            "{pp:?}"
        );
        assert!(run
            .structure
            .fk_pairs
            .contains(&("physical_person".to_string(), "person".to_string())));
    }

    #[test]
    fn many_to_one_edge_is_normalized_onto_the_functional_side() {
        // R: A [1..1] -> [0..N] B — each B relates to one A: FK on b.
        let schema = parse_gsl(
            "schema T { node A { id k: int; } node B { id j: int; } \
             edge R: A [1..1] -> [0..N] B; }",
        )
        .unwrap();
        let run = translate_to_relational_via_metalog(&schema).unwrap();
        assert!(
            run.structure.tables["b"].contains("r_k"),
            "{:?}",
            run.structure
        );
        assert!(run
            .structure
            .fk_pairs
            .contains(&("b".to_string(), "a".to_string())));
        let native = native_structure(
            &translate_to_relational(&schema, RelGeneralizationStrategy::ForeignKeyPerChild)
                .unwrap(),
        );
        assert_eq!(run.structure, native);
    }

    #[test]
    fn extensional_company_kg_matches_native_structure() {
        // The full Figure 4 schema, restricted to its extensional part
        // (the deployable relational schema): four-level hierarchy, two
        // many-to-many edges with attributes, functional edges.
        let full = parse_gsl(kgm_company_kg_src()).unwrap();
        let schema = full.extensional_only();
        schema.validate().unwrap();
        let native = native_structure(
            &translate_to_relational(&schema, RelGeneralizationStrategy::ForeignKeyPerChild)
                .unwrap(),
        );
        let run = translate_to_relational_via_metalog(&schema).unwrap();
        assert_eq!(run.structure, native);
    }

    /// A local copy of the Figure 4 GSL source (kgm-core cannot depend on
    /// kgm-finance).
    fn kgm_company_kg_src() -> &'static str {
        r#"
        schema CompanyKG {
          node Person { id fiscalCode: string unique; name: string; }
          node PhysicalPerson { gender: string; opt birthDate: date; }
          node LegalPerson { businessName: string; legalNature: string; opt website: string; }
          generalization total disjoint Person -> PhysicalPerson, LegalPerson;
          node Business { shareholdingCapital: float; intensional numberOfStakeholders: int; }
          node NonBusiness { isGovernmental: bool; }
          generalization total disjoint LegalPerson -> Business, NonBusiness;
          node PublicListedCompany { stockExchange: string; opt ticker: string; }
          generalization Business -> PublicListedCompany;
          node Place { id placeId: string; street: string; city: string; opt postalCode: string; }
          node Share { id shareId: string; percentage: float; }
          node StockShare { numberOfStocks: int; }
          generalization Share -> StockShare;
          node BusinessEvent { id eventId: string; type: string; date: date; }
          edge HOLDS: Person [0..N] -> [1..N] Share { right: string; }
          edge BELONGS_TO: Share [1..N] -> [1..1] Business;
          edge RESIDES: Person [0..N] -> [0..1] Place;
          edge HAS_ROLE: Person [0..N] -> [0..N] LegalPerson { role: string; }
          edge REPRESENTS: PhysicalPerson [0..N] -> [0..N] LegalPerson;
          edge PARTICIPATES: Business [0..N] -> [0..N] BusinessEvent { role: string; }
        }
        "#
    }

    #[test]
    fn generated_vadalog_is_inspectable() {
        let run = translate_to_relational_via_metalog(&sample()).unwrap();
        assert!(run.eliminate_vadalog.contains("SM_Edge"));
        assert!(run.copy_vadalog.contains("ForeignKey"));
        assert!(run.copy_vadalog.contains("HAS_SOURCE_FIELD"));
    }
}
