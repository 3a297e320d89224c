//! The property-graph model (Figure 5).
//!
//! Constructs, each suffixed in the paper with the super-construct it
//! instantiates: `Node: SM_Node`, `Relationship: SM_Edge`,
//! `Property: SM_Attribute`, `Label: SM_Type`,
//! `UniquePropertyModifier: SM_UniqueAttributeModifier`. The model supports
//! multi-tagged nodes and uniqueness constraints but no generalizations —
//! which is exactly what the §5.2 mapping eliminates.

use kgm_common::{KgmError, Result, ValueType};
use kgm_pgstore::PropertyGraph;

/// A typed property of a node type or relationship.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct PgProperty {
    /// Property name.
    pub name: String,
    /// Value domain.
    pub ty: ValueType,
    /// Mandatory (NOT NULL-like; enforced at load time)?
    pub mandatory: bool,
    /// Derived by reasoning?
    pub intensional: bool,
}

/// One node type of the translated schema: the label set a conforming node
/// carries plus its property catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PgNodeType {
    /// The primary label (the entity's own type name).
    pub label: String,
    /// All labels a conforming node carries (primary + inherited ancestors
    /// under the multi-label strategy; just the primary otherwise).
    pub labels: Vec<String>,
    /// Properties (own + copied down from ancestors, §5.2 step (2)).
    pub properties: Vec<PgProperty>,
    /// Property names under a uniqueness constraint.
    pub unique: Vec<String>,
    /// Intensional node type?
    pub intensional: bool,
}

/// One relationship type of the translated schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PgRelationship {
    /// Relationship type name.
    pub name: String,
    /// Source label.
    pub from: String,
    /// Target label.
    pub to: String,
    /// Properties.
    pub properties: Vec<PgProperty>,
    /// Intensional relationship?
    pub intensional: bool,
}

/// A schema of the PG model — the output of the §5.2 translation
/// (Figure 6).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PgModelSchema {
    /// Node types, sorted by primary label.
    pub node_types: Vec<PgNodeType>,
    /// Relationships, sorted by (name, from, to).
    pub relationships: Vec<PgRelationship>,
}

impl PgModelSchema {
    /// Normalize ordering so schemas from different translation paths
    /// compare equal.
    pub fn normalize(&mut self) {
        for nt in &mut self.node_types {
            nt.labels.sort();
            nt.properties.sort();
            nt.unique.sort();
        }
        self.node_types.sort_by(|a, b| a.label.cmp(&b.label));
        for r in &mut self.relationships {
            r.properties.sort();
        }
        self.relationships
            .sort_by(|a, b| (&a.name, &a.from, &a.to).cmp(&(&b.name, &b.from, &b.to)));
    }

    /// Look up a node type.
    pub fn node_type(&self, label: &str) -> Option<&PgNodeType> {
        self.node_types.iter().find(|n| n.label == label)
    }

    /// Enforce the schema on a `kgm-pgstore` graph: declare every uniqueness
    /// constraint (the "ad-hoc methodologies" enforcement of Section 5 for
    /// schema-less graph systems).
    pub fn enforce(&self, graph: &mut PropertyGraph) -> Result<usize> {
        let mut n = 0;
        for nt in &self.node_types {
            for u in &nt.unique {
                graph.add_unique_constraint(&nt.label, u)?;
                n += 1;
            }
        }
        Ok(n)
    }

    /// Validate a data graph against this schema: labels known, mandatory
    /// properties present with the right types, relationship endpoints
    /// correctly labelled.
    pub fn check_instance(&self, graph: &PropertyGraph) -> Result<()> {
        for nt in &self.node_types {
            for node in graph.nodes_with_label(&nt.label) {
                for p in &nt.properties {
                    match graph.node_prop(node, &p.name) {
                        Some(v) => {
                            let vt = v.value_type();
                            let ok =
                                vt == p.ty || (p.ty == ValueType::Float && vt == ValueType::Int);
                            if !ok {
                                return Err(KgmError::Constraint(format!(
                                    "{}.{} expects {}, found {v:?}",
                                    nt.label, p.name, p.ty
                                )));
                            }
                        }
                        None if p.mandatory && !p.intensional => {
                            return Err(KgmError::Constraint(format!(
                                "node {:?} misses mandatory property {}.{}",
                                graph.node_oid(node),
                                nt.label,
                                p.name
                            )));
                        }
                        None => {}
                    }
                }
            }
        }
        for r in &self.relationships {
            for e in graph.edges_with_label(&r.name) {
                let (f, t) = graph.edge_endpoints(e);
                if !graph.node_has_label(f, &r.from) {
                    return Err(KgmError::Constraint(format!(
                        "edge {} starts at a node without label {}",
                        r.name, r.from
                    )));
                }
                if !graph.node_has_label(t, &r.to) {
                    return Err(KgmError::Constraint(format!(
                        "edge {} ends at a node without label {}",
                        r.name, r.to
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgm_common::Value;

    fn schema() -> PgModelSchema {
        let mut s = PgModelSchema {
            node_types: vec![PgNodeType {
                label: "Business".into(),
                labels: vec!["Business".into(), "LegalPerson".into(), "Person".into()],
                properties: vec![
                    PgProperty {
                        name: "fiscalCode".into(),
                        ty: ValueType::Str,
                        mandatory: true,
                        intensional: false,
                    },
                    PgProperty {
                        name: "capital".into(),
                        ty: ValueType::Float,
                        mandatory: false,
                        intensional: false,
                    },
                ],
                unique: vec!["fiscalCode".into()],
                intensional: false,
            }],
            relationships: vec![PgRelationship {
                name: "OWNS".into(),
                from: "Person".into(),
                to: "Business".into(),
                properties: vec![],
                intensional: true,
            }],
        };
        s.normalize();
        s
    }

    #[test]
    fn enforce_declares_unique_constraints() {
        let s = schema();
        let mut g = PropertyGraph::new();
        assert_eq!(s.enforce(&mut g).unwrap(), 1);
        g.add_node(
            ["Business"],
            vec![("fiscalCode".to_string(), Value::str("A"))],
        )
        .unwrap();
        assert!(g
            .add_node(
                ["Business"],
                vec![("fiscalCode".to_string(), Value::str("A"))],
            )
            .is_err());
    }

    #[test]
    fn check_instance_flags_missing_mandatory() {
        let s = schema();
        let mut g = PropertyGraph::new();
        g.add_node(["Business"], vec![]).unwrap();
        assert!(s.check_instance(&g).is_err());
    }

    #[test]
    fn check_instance_flags_bad_type_and_endpoint() {
        let s = schema();
        let mut g = PropertyGraph::new();
        let b = g
            .add_node(
                ["Business", "Person", "LegalPerson"],
                vec![("fiscalCode".to_string(), Value::Int(3))],
            )
            .unwrap();
        assert!(s.check_instance(&g).is_err());
        g.set_node_prop(b, "fiscalCode", Value::str("A")).unwrap();
        s.check_instance(&g).unwrap();
        // Edge from a node lacking the Person label is rejected.
        let x = g
            .add_node(
                ["Business", "LegalPerson", "Person"],
                vec![("fiscalCode".to_string(), Value::str("B"))],
            )
            .unwrap();
        let other = g.add_node(["Place"], vec![]).unwrap();
        g.add_edge(other, x, "OWNS", vec![]).unwrap();
        assert!(s.check_instance(&g).is_err());
    }

    #[test]
    fn int_widens_to_float_property() {
        let s = schema();
        let mut g = PropertyGraph::new();
        g.add_node(
            ["Business"],
            vec![
                ("fiscalCode".to_string(), Value::str("A")),
                ("capital".to_string(), Value::Int(100)),
            ],
        )
        .unwrap();
        s.check_instance(&g).unwrap();
    }

    #[test]
    fn normalize_is_idempotent_and_ordering_insensitive() {
        let mut a = schema();
        let mut b = schema();
        b.node_types[0].labels.reverse();
        b.node_types[0].properties.reverse();
        a.normalize();
        b.normalize();
        assert_eq!(a, b);
    }
}
