//! SSST — the Super-Schema to Schema Translator (Algorithm 1).
//!
//! Given a super-schema `S` and a target model `M`, SSST selects a mapping
//! `M(M)` (possibly refined by the data engineer's *implementation
//! strategy*), eliminates the super-constructs `M` does not support, and
//! downcasts the rest into `M`'s constructs.
//!
//! Two execution paths are provided:
//!
//! - this module: the **native** translation — a direct Rust implementation
//!   of the §5.2 (property graph) and §5.3 (relational) mappings, used as
//!   the production/baseline path;
//! - [`crate::sst_metalog`]: the **paper-faithful** path, where the
//!   Eliminate/Copy steps are real MetaLog programs (Examples 5.1/5.2)
//!   compiled by MTV and executed by the Vadalog engine over the dictionary
//!   graph.
//!
//! Tests assert the two paths produce isomorphic schemas; the `strategies`
//! bench (experiment E9) compares the implementation strategies.

use crate::models::pg::{PgModelSchema, PgNodeType, PgProperty, PgRelationship};
use crate::models::relational::RelationalSchema;
use crate::supermodel::{Modifier, SmAttribute, SmEdge, SuperSchema};
use kgm_common::{KgmError, Result, ValueType};
use kgm_relstore::{Column, ForeignKey, TableSchema};

/// How generalizations are realized in a PG target (Section 5.1 names this
/// exact choice as the example of an implementation strategy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PgGeneralizationStrategy {
    /// Nodes accumulate ancestor labels (multi-tagging) and inherit
    /// attributes — the mapping spelled out in §5.2.
    #[default]
    MultiLabel,
    /// Single label per node plus explicit `IS_A` relationships; edges are
    /// copied down to concrete endpoint types.
    ParentEdge,
}

/// How generalizations are realized in a relational target (§5.3 mentions
/// multiple tactics from the data-volume literature).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RelGeneralizationStrategy {
    /// One relation per generalization member; children reference their
    /// parent via foreign keys on the shared identifier (the tactic the
    /// paper adopts in §5.3).
    #[default]
    ForeignKeyPerChild,
    /// One relation per hierarchy root with the union of descendant fields
    /// (nullable) and a `kind` discriminator.
    SingleTable,
}

pub(crate) fn snake(name: &str) -> String {
    let mut out = String::new();
    let mut prev_lower = false;
    for c in name.chars() {
        if c.is_uppercase() {
            if prev_lower {
                out.push('_');
            }
            out.extend(c.to_lowercase());
            prev_lower = false;
        } else if c == '-' || c == ' ' {
            out.push('_');
            prev_lower = false;
        } else {
            out.push(c);
            prev_lower = c.is_lowercase() || c.is_ascii_digit();
        }
    }
    out
}

fn pg_property(a: &SmAttribute) -> PgProperty {
    PgProperty {
        name: a.name.clone(),
        ty: a.ty,
        mandatory: !a.is_opt && !a.is_intensional,
        intensional: a.is_intensional,
    }
}

// ---------------------------------------------------------------------
// §5.2 — super-model to property-graph model
// ---------------------------------------------------------------------

/// Translate a super-schema into the PG model.
pub fn translate_to_pg(
    schema: &SuperSchema,
    strategy: PgGeneralizationStrategy,
) -> Result<PgModelSchema> {
    let span = kgm_runtime::span!("sst.translate_pg", "{strategy:?}");
    schema.validate()?;
    let mut out = PgModelSchema::default();
    for n in &schema.nodes {
        let (labels, attrs): (Vec<String>, Vec<&SmAttribute>) = match strategy {
            PgGeneralizationStrategy::MultiLabel => {
                // Eliminate.DeleteGeneralizations (1): type accumulation;
                // (2): attribute copy-down.
                let mut labels = vec![n.name.clone()];
                labels.extend(schema.ancestors(&n.name).iter().map(|s| s.to_string()));
                (labels, schema.inherited_attributes(&n.name))
            }
            PgGeneralizationStrategy::ParentEdge => {
                (vec![n.name.clone()], n.attributes.iter().collect())
            }
        };
        let unique: Vec<String> = attrs
            .iter()
            .filter(|a| a.modifiers.iter().any(|m| matches!(m, Modifier::Unique)))
            .map(|a| a.name.clone())
            .collect();
        out.node_types.push(PgNodeType {
            label: n.name.clone(),
            labels,
            properties: attrs.iter().map(|a| pg_property(a)).collect(),
            unique,
            intensional: n.is_intensional,
        });
    }
    for e in &schema.edges {
        let props: Vec<PgProperty> = e.attributes.iter().map(pg_property).collect();
        match strategy {
            PgGeneralizationStrategy::MultiLabel => {
                // Multi-tagging makes descendants match the declared
                // endpoint labels; the relationship is stored once.
                out.relationships.push(PgRelationship {
                    name: e.name.clone(),
                    from: e.from.clone(),
                    to: e.to.clone(),
                    properties: props,
                    intensional: e.is_intensional,
                });
            }
            PgGeneralizationStrategy::ParentEdge => {
                // Eliminate.DeleteGeneralizations (3)/(4): copy the edge to
                // every concrete endpoint pair.
                let mut froms = vec![e.from.clone()];
                froms.extend(schema.descendants(&e.from).iter().map(|s| s.to_string()));
                let mut tos = vec![e.to.clone()];
                tos.extend(schema.descendants(&e.to).iter().map(|s| s.to_string()));
                for f in &froms {
                    for t in &tos {
                        out.relationships.push(PgRelationship {
                            name: e.name.clone(),
                            from: f.clone(),
                            to: t.clone(),
                            properties: props.clone(),
                            intensional: e.is_intensional,
                        });
                    }
                }
            }
        }
    }
    if strategy == PgGeneralizationStrategy::ParentEdge {
        for g in &schema.generalizations {
            for c in &g.children {
                out.relationships.push(PgRelationship {
                    name: "IS_A".into(),
                    from: c.clone(),
                    to: g.parent.clone(),
                    properties: vec![],
                    intensional: false,
                });
            }
        }
    }
    out.normalize();
    if span.is_active() {
        kgm_runtime::telemetry::record("node_types", out.node_types.len() as i64);
        kgm_runtime::telemetry::record("relationships", out.relationships.len() as i64);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// §5.3 — super-model to relational model
// ---------------------------------------------------------------------

fn column(a: &SmAttribute) -> Column {
    let mut c = Column::new(snake(&a.name), a.ty);
    if !a.is_opt && !a.is_intensional && !a.is_id {
        c = c.not_null();
    }
    if a.is_id {
        c = c.not_null();
    }
    if a.modifiers.iter().any(|m| matches!(m, Modifier::Unique)) && !a.is_id {
        c = c.unique();
    }
    c
}

/// Identifier columns (snake-cased) of a node's table.
fn id_columns(schema: &SuperSchema, node: &str) -> Vec<(String, ValueType)> {
    schema
        .identifier_of(node)
        .into_iter()
        .map(|a| (snake(&a.name), a.ty))
        .collect()
}

/// The table a node maps to under the chosen strategy (for SingleTable the
/// hierarchy root's table).
fn table_of<'a>(
    schema: &'a SuperSchema,
    node: &'a str,
    strategy: RelGeneralizationStrategy,
) -> &'a str {
    match strategy {
        RelGeneralizationStrategy::ForeignKeyPerChild => node,
        RelGeneralizationStrategy::SingleTable => {
            schema.ancestors(node).last().copied().unwrap_or(node)
        }
    }
}

/// Translate a super-schema into the relational model.
pub fn translate_to_relational(
    schema: &SuperSchema,
    strategy: RelGeneralizationStrategy,
) -> Result<RelationalSchema> {
    let span = kgm_runtime::span!("sst.translate_rel", "{strategy:?}");
    schema.validate()?;
    let mut out = RelationalSchema::default();

    // --- Relations for nodes (Eliminate.DeleteGeneralizations + Copy).
    match strategy {
        RelGeneralizationStrategy::ForeignKeyPerChild => {
            for n in &schema.nodes {
                let tname = snake(&n.name);
                let ids = id_columns(schema, &n.name);
                if ids.is_empty() && !n.is_intensional {
                    return Err(KgmError::Schema(format!("`{}` has no identifier", n.name)));
                }
                let mut cols: Vec<Column> = Vec::new();
                // Identifier columns first (copied down from the root).
                for (name, ty) in &ids {
                    cols.push(Column::new(name.clone(), *ty).not_null());
                }
                // Own non-id attributes.
                for a in &n.attributes {
                    if a.is_id {
                        continue;
                    }
                    cols.push(column(a));
                }
                // Intensional nodes without identifiers get a surrogate key.
                if ids.is_empty() {
                    cols.insert(0, Column::new("oid", ValueType::Oid).not_null());
                }
                let pk: Vec<String> = if ids.is_empty() {
                    vec!["oid".into()]
                } else {
                    ids.iter().map(|(c, _)| c.clone()).collect()
                };
                out.tables
                    .push(TableSchema::new(tname.clone(), cols).with_pk(pk.clone()));
                if let Some(parent) = schema.parent_of(&n.name) {
                    out.foreign_keys.push(ForeignKey {
                        name: format!("fk_{tname}_{}", snake(parent)),
                        table: tname,
                        columns: pk.clone(),
                        ref_table: snake(parent),
                        ref_columns: pk,
                    });
                }
            }
        }
        RelGeneralizationStrategy::SingleTable => {
            for n in &schema.nodes {
                if schema.parent_of(&n.name).is_some() {
                    continue; // folded into the root's table
                }
                let tname = snake(&n.name);
                let ids = id_columns(schema, &n.name);
                let mut cols: Vec<Column> = ids
                    .iter()
                    .map(|(name, ty)| Column::new(name.clone(), *ty).not_null())
                    .collect();
                if ids.is_empty() {
                    cols.insert(0, Column::new("oid", ValueType::Oid).not_null());
                }
                let descendants = schema.descendants(&n.name);
                if !descendants.is_empty() {
                    cols.push(Column::new("kind", ValueType::Str));
                }
                for a in &n.attributes {
                    if a.is_id {
                        continue;
                    }
                    cols.push(column(a));
                }
                for d in &descendants {
                    for a in &schema.node(d).expect("validated").attributes {
                        if a.is_id {
                            continue;
                        }
                        // Descendant fields are nullable in the fused table.
                        let mut c = Column::new(snake(&a.name), a.ty);
                        if a.modifiers.iter().any(|m| matches!(m, Modifier::Unique)) {
                            c = c.unique();
                        }
                        cols.push(c);
                    }
                }
                let pk: Vec<String> = if ids.is_empty() {
                    vec!["oid".into()]
                } else {
                    ids.iter().map(|(c, _)| c.clone()).collect()
                };
                out.tables.push(TableSchema::new(tname, cols).with_pk(pk));
            }
        }
    }

    // --- Edges: FK for functional ends, bridge tables for many-to-many.
    for e in &schema.edges {
        translate_edge(schema, e, strategy, &mut out)?;
    }
    out.normalize();
    if span.is_active() {
        kgm_runtime::telemetry::record("tables", out.tables.len() as i64);
    }
    Ok(out)
}

fn translate_edge(
    schema: &SuperSchema,
    e: &SmEdge,
    strategy: RelGeneralizationStrategy,
    out: &mut RelationalSchema,
) -> Result<()> {
    let from_table = snake(table_of(schema, &e.from, strategy));
    let to_table = snake(table_of(schema, &e.to, strategy));
    let ename = snake(&e.name);
    let from_ids = id_columns(schema, &e.from);
    let to_ids = id_columns(schema, &e.to);
    let surrogate = |ids: &Vec<(String, ValueType)>| {
        if ids.is_empty() {
            vec![("oid".to_string(), ValueType::Oid)]
        } else {
            ids.clone()
        }
    };
    let from_ids = surrogate(&from_ids);
    let to_ids = surrogate(&to_ids);

    let many_to_many = !e.from_card.is_fun && !e.to_card.is_fun;
    if many_to_many {
        // Eliminate.DeleteManyToManyEdges: a new relation with FKs to both
        // endpoint relations; edge attributes ride along; PK spans both FK
        // column sets.
        let mut cols: Vec<Column> = Vec::new();
        let mut src_cols: Vec<String> = Vec::new();
        let mut dst_cols: Vec<String> = Vec::new();
        for (c, ty) in &from_ids {
            let name = format!("src_{c}");
            cols.push(Column::new(name.clone(), *ty).not_null());
            src_cols.push(name);
        }
        for (c, ty) in &to_ids {
            let name = format!("dst_{c}");
            cols.push(Column::new(name.clone(), *ty).not_null());
            dst_cols.push(name);
        }
        for a in &e.attributes {
            cols.push(column(a));
        }
        let pk: Vec<String> = src_cols.iter().chain(dst_cols.iter()).cloned().collect();
        out.tables
            .push(TableSchema::new(ename.clone(), cols).with_pk(pk));
        out.foreign_keys.push(ForeignKey {
            name: format!("fk_{ename}_src"),
            table: ename.clone(),
            columns: src_cols,
            ref_table: from_table,
            ref_columns: from_ids.iter().map(|(c, _)| c.clone()).collect(),
        });
        out.foreign_keys.push(ForeignKey {
            name: format!("fk_{ename}_dst"),
            table: ename,
            columns: dst_cols,
            ref_table: to_table,
            ref_columns: to_ids.iter().map(|(c, _)| c.clone()).collect(),
        });
        return Ok(());
    }

    // Functional end(s): Eliminate.CopyOneToManyEdges — an FK on the side
    // that sees at most one partner.
    let (holder, holder_card, target_table, target_ids) = if e.to_card.is_fun {
        // Each `from` relates to ≤1 `to`: FK on the from-table.
        (from_table.clone(), e.to_card, to_table.clone(), &to_ids)
    } else {
        // Each `to` relates to ≤1 `from`: FK on the to-table.
        (to_table.clone(), e.from_card, from_table.clone(), &from_ids)
    };
    let table = out
        .tables
        .iter_mut()
        .find(|t| t.name == holder)
        .ok_or_else(|| KgmError::Internal(format!("missing table `{holder}`")))?;
    let mut fk_cols = Vec::new();
    for (c, ty) in target_ids {
        let name = format!("{ename}_{c}");
        let mut col = Column::new(name.clone(), *ty);
        if !holder_card.is_opt {
            col = col.not_null();
        }
        if e.from_card.is_fun && e.to_card.is_fun {
            col = col.unique(); // one-to-one
        }
        table.columns.push(col);
        fk_cols.push(name);
    }
    for a in &e.attributes {
        let mut c = Column::new(format!("{ename}_{}", snake(&a.name)), a.ty);
        if a.modifiers.iter().any(|m| matches!(m, Modifier::Unique)) {
            c = c.unique();
        }
        table.columns.push(c);
    }
    out.foreign_keys.push(ForeignKey {
        name: format!("fk_{holder}_{ename}"),
        table: holder,
        columns: fk_cols,
        ref_table: target_table,
        ref_columns: target_ids.iter().map(|(c, _)| c.clone()).collect(),
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsl::parse_gsl;

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
              node LegalPerson { businessName: string; opt website: string; }
              generalization total disjoint Person -> PhysicalPerson, LegalPerson;
              node Business { intensional numberOfStakeholders: int; }
              generalization LegalPerson -> Business;
              node Share { id shareId: string; percentage: float; }
              node Place { id placeId: string; city: string; }
              edge HOLDS: Person [0..N] -> [0..N] Share { right: string; }
              edge BELONGS_TO: Share [1..N] -> [1..1] Business;
              edge RESIDES: Person [0..N] -> [0..1] Place;
              intensional edge OWNS: Person -> Business { percentage: float; }
              intensional edge CONTROLS: Person -> Business;
            }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn snake_case_conversion() {
        assert_eq!(snake("PhysicalPerson"), "physical_person");
        assert_eq!(snake("OWNS"), "owns");
        assert_eq!(snake("BELONGS_TO"), "belongs_to");
        assert_eq!(snake("fiscalCode"), "fiscal_code");
        assert_eq!(snake("PublicListedCompany"), "public_listed_company");
    }

    #[test]
    fn pg_multilabel_accumulates_types_and_attributes() {
        let s = sample();
        let pg = translate_to_pg(&s, PgGeneralizationStrategy::MultiLabel).unwrap();
        let business = pg.node_type("Business").unwrap();
        // Figure 6: Business nodes carry Business, LegalPerson, Person.
        assert_eq!(business.labels, vec!["Business", "LegalPerson", "Person"]);
        let prop_names: Vec<&str> = business
            .properties
            .iter()
            .map(|p| p.name.as_str())
            .collect();
        for p in ["numberOfStakeholders", "businessName", "fiscalCode", "name"] {
            assert!(prop_names.contains(&p), "missing {p}");
        }
        assert_eq!(business.unique, vec!["fiscalCode"]);
        // Relationships stay at declared endpoints under multi-label.
        let holds: Vec<_> = pg
            .relationships
            .iter()
            .filter(|r| r.name == "HOLDS")
            .collect();
        assert_eq!(holds.len(), 1);
        assert_eq!(holds[0].from, "Person");
    }

    #[test]
    fn pg_parent_edge_expands_relationships_and_adds_is_a() {
        let s = sample();
        let pg = translate_to_pg(&s, PgGeneralizationStrategy::ParentEdge).unwrap();
        let pp = pg.node_type("PhysicalPerson").unwrap();
        assert_eq!(pp.labels, vec!["PhysicalPerson"]);
        // HOLDS copied to every concrete Person specialization.
        let holds: Vec<_> = pg
            .relationships
            .iter()
            .filter(|r| r.name == "HOLDS")
            .collect();
        // Person, PhysicalPerson, LegalPerson, Business as sources.
        assert_eq!(holds.len(), 4);
        let is_a: Vec<_> = pg
            .relationships
            .iter()
            .filter(|r| r.name == "IS_A")
            .collect();
        assert_eq!(is_a.len(), 3);
    }

    #[test]
    fn relational_fk_per_child_builds_figure_8_shape() {
        let s = sample();
        let rel =
            translate_to_relational(&s, RelGeneralizationStrategy::ForeignKeyPerChild).unwrap();
        // A table per node.
        for t in [
            "person",
            "physical_person",
            "legal_person",
            "business",
            "share",
            "place",
        ] {
            assert!(rel.table(t).is_some(), "missing table {t}");
        }
        // Child tables keyed by the inherited identifier + FK to parent.
        let pp = rel.table("physical_person").unwrap();
        assert_eq!(pp.primary_key, vec!["fiscal_code"]);
        assert!(rel
            .foreign_keys
            .iter()
            .any(|fk| fk.table == "physical_person" && fk.ref_table == "person"));
        assert!(rel
            .foreign_keys
            .iter()
            .any(|fk| fk.table == "business" && fk.ref_table == "legal_person"));
        // Many-to-many HOLDS becomes a bridge table with both FKs.
        let holds = rel.table("holds").unwrap();
        assert_eq!(holds.primary_key, vec!["src_fiscal_code", "dst_share_id"]);
        assert!(holds.column_index("right").is_some());
        // Functional RESIDES becomes an FK column on person.
        let person = rel.table("person").unwrap();
        assert!(person.column_index("resides_place_id").is_some());
        // BELONGS_TO (to_card 1..1) is an FK on share, NOT NULL.
        let share = rel.table("share").unwrap();
        let i = share.column_index("belongs_to_fiscal_code").unwrap();
        assert!(share.columns[i].not_null);
        // The whole thing must instantiate as a valid catalog + DDL.
        let ddl = rel.ddl().unwrap();
        assert!(ddl.contains("CREATE TABLE \"person\""));
        assert!(ddl.contains("FOREIGN KEY"));
    }

    #[test]
    fn relational_single_table_fuses_hierarchies() {
        let s = sample();
        let rel = translate_to_relational(&s, RelGeneralizationStrategy::SingleTable).unwrap();
        assert!(rel.table("physical_person").is_none());
        assert!(rel.table("legal_person").is_none());
        let person = rel.table("person").unwrap();
        for c in ["kind", "gender", "business_name", "number_of_stakeholders"] {
            assert!(person.column_index(c).is_some(), "missing column {c}");
        }
        // Edges to subtypes now point at the root table.
        assert!(rel
            .foreign_keys
            .iter()
            .any(|fk| fk.table == "share" && fk.ref_table == "person"));
        rel.ddl().unwrap();
    }

    #[test]
    fn one_to_one_edge_gets_unique_fk() {
        let s = parse_gsl(
            "schema T { node A { id k: int; } node B { id j: int; } \
             edge R: A [1..1] -> [1..1] B; }",
        )
        .unwrap();
        let rel =
            translate_to_relational(&s, RelGeneralizationStrategy::ForeignKeyPerChild).unwrap();
        let a = rel.table("a").unwrap();
        let i = a.column_index("r_j").unwrap();
        assert!(a.columns[i].unique);
        assert!(a.columns[i].not_null);
    }

    #[test]
    fn one_to_many_fk_lands_on_the_functional_side() {
        // Each B relates to exactly one A (from side functional): FK on b.
        let s = parse_gsl(
            "schema T { node A { id k: int; } node B { id j: int; } \
             edge R: A [1..1] -> [0..N] B; }",
        )
        .unwrap();
        let rel =
            translate_to_relational(&s, RelGeneralizationStrategy::ForeignKeyPerChild).unwrap();
        let b = rel.table("b").unwrap();
        assert!(b.column_index("r_k").is_some());
        assert!(rel.table("a").unwrap().column_index("r_j").is_none());
    }

    #[test]
    fn intensional_node_without_id_gets_surrogate_key() {
        let s = parse_gsl(
            "schema T { node A { id k: int; } intensional node Family; \
             intensional edge IN_FAM: A -> Family; }",
        )
        .unwrap();
        let rel =
            translate_to_relational(&s, RelGeneralizationStrategy::ForeignKeyPerChild).unwrap();
        let fam = rel.table("family").unwrap();
        assert_eq!(fam.primary_key, vec!["oid"]);
        let bridge = rel.table("in_fam").unwrap();
        assert!(bridge.column_index("dst_oid").is_some());
    }

    #[test]
    fn both_pg_strategies_cover_all_nodes() {
        let s = sample();
        let a = translate_to_pg(&s, PgGeneralizationStrategy::MultiLabel).unwrap();
        let b = translate_to_pg(&s, PgGeneralizationStrategy::ParentEdge).unwrap();
        assert_eq!(a.node_types.len(), b.node_types.len());
        assert_eq!(a.node_types.len(), s.nodes.len());
    }
}
