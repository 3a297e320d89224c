//! The label→properties catalog MTV translates against.
//!
//! The PG-to-relational mapping of Section 4, step (1), turns an `L`-labelled
//! node into a fact `L(c_x, c_{f_1}, …, c_{f_n})` with **one constant per
//! property of `L`** — so the translator must know, for every label, the
//! ordered property list. In KGModel this information comes from the graph
//! schema (the super-schema or a model schema); [`PgSchema`] is that catalog.

use kgm_common::{KgmError, Result};
use std::collections::BTreeMap;

/// Ordered property lists per node and edge label.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PgSchema {
    nodes: BTreeMap<String, Vec<String>>,
    edges: BTreeMap<String, Vec<String>>,
}

impl PgSchema {
    /// Empty catalog.
    pub fn new() -> Self {
        PgSchema::default()
    }

    /// Declare a node label with its ordered properties.
    pub fn declare_node<I, S>(&mut self, label: impl Into<String>, props: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.nodes
            .insert(label.into(), props.into_iter().map(Into::into).collect());
        self
    }

    /// Declare an edge label with its ordered properties.
    pub fn declare_edge<I, S>(&mut self, label: impl Into<String>, props: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.edges
            .insert(label.into(), props.into_iter().map(Into::into).collect());
        self
    }

    /// Properties of a node label.
    pub fn node_props(&self, label: &str) -> Result<&[String]> {
        self.nodes
            .get(label)
            .map(Vec::as_slice)
            .ok_or_else(|| KgmError::NotFound(format!("node label `{label}` in PG schema")))
    }

    /// Properties of an edge label.
    pub fn edge_props(&self, label: &str) -> Result<&[String]> {
        self.edges
            .get(label)
            .map(Vec::as_slice)
            .ok_or_else(|| KgmError::NotFound(format!("edge label `{label}` in PG schema")))
    }

    /// True if the node label is declared.
    pub fn has_node(&self, label: &str) -> bool {
        self.nodes.contains_key(label)
    }

    /// True if the edge label is declared.
    pub fn has_edge(&self, label: &str) -> bool {
        self.edges.contains_key(label)
    }

    /// All declared node labels, sorted.
    pub fn node_labels(&self) -> Vec<&str> {
        self.nodes.keys().map(String::as_str).collect()
    }

    /// All declared edge labels, sorted.
    pub fn edge_labels(&self) -> Vec<&str> {
        self.edges.keys().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_and_lookup() {
        let mut s = PgSchema::new();
        s.declare_node("Business", ["fiscalCode", "businessName"])
            .declare_edge("OWNS", ["percentage"]);
        assert_eq!(
            s.node_props("Business").unwrap(),
            ["fiscalCode", "businessName"]
        );
        assert_eq!(s.edge_props("OWNS").unwrap(), ["percentage"]);
        assert!(s.node_props("Missing").is_err());
        assert!(s.has_node("Business"));
        assert!(!s.has_edge("CONTROLS"));
    }

    #[test]
    fn labels_are_sorted() {
        let mut s = PgSchema::new();
        s.declare_node("Z", Vec::<String>::new());
        s.declare_node("A", Vec::<String>::new());
        assert_eq!(s.node_labels(), vec!["A", "Z"]);
    }
}
