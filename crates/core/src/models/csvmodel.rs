//! The CSV model — Section 2.2 lists *"plain CSV files"* among the
//! non-graph-like models frequently used to serialize KGs.
//!
//! A CSV deployment of a KG is a triple of documents: a **manifest**
//! describing the schema (one row per node type / relationship with its
//! property catalog — the model-level information), plus the node and edge
//! data files in the `kgm-pgstore` long CSV format. Import validates the
//! data against the manifest's schema.

use crate::models::pg::PgModelSchema;
use kgm_common::{KgmError, Result};
use kgm_pgstore::{csv, PropertyGraph};

/// A complete CSV deployment of a KG instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvExport {
    /// Schema manifest (one line per construct).
    pub manifest: String,
    /// Node data document.
    pub nodes_csv: String,
    /// Edge data document.
    pub edges_csv: String,
}

/// Render the schema manifest.
pub fn manifest_of(schema: &PgModelSchema) -> String {
    let mut out = String::from("kind,name,labels,properties\n");
    for nt in &schema.node_types {
        let props: Vec<String> = nt
            .properties
            .iter()
            .map(|p| format!("{}:{}{}", p.name, p.ty, if p.mandatory { "!" } else { "" }))
            .collect();
        out.push_str(&format!(
            "node,{},{},{}\n",
            nt.label,
            nt.labels.join(";"),
            props.join(";")
        ));
    }
    for r in &schema.relationships {
        let props: Vec<String> = r
            .properties
            .iter()
            .map(|p| format!("{}:{}", p.name, p.ty))
            .collect();
        out.push_str(&format!(
            "edge,{},{}->{},{}\n",
            r.name,
            r.from,
            r.to,
            props.join(";")
        ));
    }
    out
}

/// Export an instance together with its schema manifest. The instance is
/// validated against the schema first.
pub fn export_instance(schema: &PgModelSchema, g: &PropertyGraph) -> Result<CsvExport> {
    schema.check_instance(g)?;
    let (nodes_csv, edges_csv) = csv::export(g);
    Ok(CsvExport {
        manifest: manifest_of(schema),
        nodes_csv,
        edges_csv,
    })
}

/// Import a CSV deployment, re-validating the data against the schema.
pub fn import_instance(schema: &PgModelSchema, export: &CsvExport) -> Result<PropertyGraph> {
    if export.manifest != manifest_of(schema) {
        return Err(KgmError::Schema(
            "CSV manifest does not match the expected schema".to_string(),
        ));
    }
    let g = csv::import(&export.nodes_csv, &export.edges_csv)?;
    schema.check_instance(&g)?;
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsl::parse_gsl;
    use crate::sst::{translate_to_pg, PgGeneralizationStrategy};
    use kgm_common::Value;

    fn setup() -> (PgModelSchema, PropertyGraph) {
        let schema = parse_gsl(
            r#"
            schema T {
              node Person { id pid: string; name: string; }
              node Business { capital: float; }
              generalization Person -> Business;
              edge OWNS: Person -> Business { percentage: float; }
            }
            "#,
        )
        .unwrap();
        let pg = translate_to_pg(&schema, PgGeneralizationStrategy::MultiLabel).unwrap();
        let mut g = PropertyGraph::new();
        let a = g
            .add_node(
                ["Person"],
                vec![
                    ("pid".to_string(), Value::str("p1")),
                    ("name".to_string(), Value::str("Ada")),
                ],
            )
            .unwrap();
        let b = g
            .add_node(
                ["Business", "Person"],
                vec![
                    ("pid".to_string(), Value::str("b1")),
                    ("name".to_string(), Value::str("ACME")),
                    ("capital".to_string(), Value::Float(10.0)),
                ],
            )
            .unwrap();
        g.add_edge(
            a,
            b,
            "OWNS",
            vec![("percentage".to_string(), Value::Float(0.4))],
        )
        .unwrap();
        (pg, g)
    }

    #[test]
    fn manifest_describes_both_construct_kinds() {
        let (pg, _) = setup();
        let m = manifest_of(&pg);
        assert!(m.contains("node,Business,Business;Person,"));
        assert!(m.contains("capital:float"));
        assert!(m.contains("pid:string!"), "mandatory marker");
        assert!(m.contains("edge,OWNS,Person->Business,percentage:float"));
    }

    #[test]
    fn export_import_round_trip() {
        let (pg, g) = setup();
        let export = export_instance(&pg, &g).unwrap();
        let back = import_instance(&pg, &export).unwrap();
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.edge_count(), g.edge_count());
        let owns = back.edges_with_label("OWNS");
        assert_eq!(
            back.edge_prop(owns[0], "percentage"),
            Some(&Value::Float(0.4))
        );
    }

    #[test]
    fn invalid_instance_is_rejected_at_export() {
        let (pg, mut g) = setup();
        g.add_node(["Business", "Person"], vec![]).unwrap(); // misses pid/name
        assert!(export_instance(&pg, &g).is_err());
    }

    #[test]
    fn manifest_mismatch_is_rejected_at_import() {
        let (pg, g) = setup();
        let mut export = export_instance(&pg, &g).unwrap();
        export.manifest.push_str("node,Alien,Alien,\n");
        assert!(import_instance(&pg, &export).is_err());
    }
}
