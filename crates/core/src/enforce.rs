//! Schema enforcement artefacts per target system (Section 5).
//!
//! *"Schemas then contain all the information needed to be deployed and
//! enforced, with different methods, depending on the target systems"*:
//! DDL for relational systems, constraint commands for graph databases,
//! RDF-S documents for triple stores. This module renders each artefact and
//! can apply it to the corresponding in-process substrate.

use crate::models::pg::PgModelSchema;
use crate::models::relational::RelationalSchema;
use crate::supermodel::SuperSchema;
use kgm_common::Result;
use kgm_relstore::Catalog;
use kgm_triplestore::RdfsVocabulary;

/// Render Neo4j-style constraint commands for a PG model schema (the
/// deployable artefact for schema-less graph targets).
pub fn pg_constraint_commands(schema: &PgModelSchema) -> Vec<String> {
    let mut out = Vec::new();
    for nt in &schema.node_types {
        for u in &nt.unique {
            out.push(format!(
                "CREATE CONSTRAINT uniq_{}_{} FOR (n:{}) REQUIRE n.{} IS UNIQUE;",
                nt.label.to_lowercase(),
                u.to_lowercase(),
                nt.label,
                u
            ));
        }
        for p in nt.properties.iter().filter(|p| p.mandatory) {
            out.push(format!(
                "CREATE CONSTRAINT exist_{}_{} FOR (n:{}) REQUIRE n.{} IS NOT NULL;",
                nt.label.to_lowercase(),
                p.name.to_lowercase(),
                nt.label,
                p.name
            ));
        }
    }
    out.sort();
    out
}

/// Render the relational DDL script.
pub fn relational_ddl(schema: &RelationalSchema) -> Result<String> {
    schema.ddl()
}

/// Create and return the enforced catalog.
pub fn apply_relational(schema: &RelationalSchema) -> Result<Catalog> {
    schema.create_catalog()
}

/// Render the RDF-S document for a super-schema.
pub fn rdfs_document(schema: &SuperSchema, base: &str) -> String {
    let v: RdfsVocabulary = crate::models::rdf::to_rdfs(schema, base);
    v.to_document()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsl::parse_gsl;
    use crate::sst::{translate_to_pg, translate_to_relational};
    use crate::sst::{PgGeneralizationStrategy, RelGeneralizationStrategy};

    fn sample() -> SuperSchema {
        parse_gsl(
            r#"
            schema S {
              node Person { id fiscalCode: string unique; name: string; }
              node Share { id shareId: string; }
              edge HOLDS: Person -> Share;
            }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn constraint_commands_cover_unique_and_mandatory() {
        let pg = translate_to_pg(&sample(), PgGeneralizationStrategy::MultiLabel).unwrap();
        let cmds = pg_constraint_commands(&pg);
        assert!(cmds
            .iter()
            .any(|c| c.contains("REQUIRE n.fiscalCode IS UNIQUE")));
        assert!(cmds.iter().any(|c| c.contains("n.name IS NOT NULL")));
    }

    #[test]
    fn relational_artifacts_round_trip() {
        let rel = translate_to_relational(&sample(), RelGeneralizationStrategy::ForeignKeyPerChild)
            .unwrap();
        let ddl = relational_ddl(&rel).unwrap();
        assert!(ddl.contains("CREATE TABLE"));
        let catalog = apply_relational(&rel).unwrap();
        assert_eq!(catalog.table_names().len(), rel.tables.len());
    }

    #[test]
    fn rdfs_document_renders() {
        let doc = rdfs_document(&sample(), "http://example.org/#");
        assert!(doc.contains("rdf-schema#Class"));
        assert!(doc.contains("HOLDS"));
    }
}
