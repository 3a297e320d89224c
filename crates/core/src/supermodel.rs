//! The super-model: typed super-constructs and the super-schema builder.
//!
//! Section 3.2 of the paper: the super-model provides the data engineer with
//! model-independent conceptual elements. A [`SuperSchema`] is an instance of
//! the super-model — a set of [`SmNode`]s, [`SmEdge`]s, [`SmAttribute`]s and
//! [`SmGeneralization`]s — with the structural invariants the paper states:
//!
//! - every `SM_Node` has exactly one identifier, composed of a set of
//!   identifying attributes (inherited through generalizations);
//! - `SM_Edge`s carry one single `SM_Type`, so *super-schemas are simple
//!   graphs by construction*;
//! - generalization is acyclic and each node has at most one parent
//!   generalization (a forest, as in the paper's Company KG).

use kgm_common::{KgmError, Result, ValueType};
use std::collections::{BTreeMap, BTreeSet};

/// Attribute modifiers (`SM_AttributeModifier` specializations, §3.2).
#[derive(Debug, Clone, PartialEq)]
pub enum Modifier {
    /// `SM_UniqueAttributeModifier`: unique among nodes of the same type.
    Unique,
    /// `SM_EnumAttributeModifier`: the closed list of admissible values.
    Enum(Vec<String>),
}

/// An `SM_Attribute`.
#[derive(Debug, Clone, PartialEq)]
pub struct SmAttribute {
    /// Attribute name (camelCase by the paper's convention).
    pub name: String,
    /// Value domain.
    pub ty: ValueType,
    /// Optional (minimum cardinality 0)?
    pub is_opt: bool,
    /// Part of the owner's identifier?
    pub is_id: bool,
    /// Intensional (derived by reasoning)?
    pub is_intensional: bool,
    /// Attached modifiers.
    pub modifiers: Vec<Modifier>,
}

impl SmAttribute {
    /// A mandatory, non-identifying, extensional attribute.
    pub fn new(name: impl Into<String>, ty: ValueType) -> Self {
        SmAttribute {
            name: name.into(),
            ty,
            is_opt: false,
            is_id: false,
            is_intensional: false,
            modifiers: Vec::new(),
        }
    }

    /// Mark identifying.
    pub fn id(mut self) -> Self {
        self.is_id = true;
        self
    }

    /// Mark optional.
    pub fn opt(mut self) -> Self {
        self.is_opt = true;
        self
    }

    /// Mark intensional.
    pub fn intensional(mut self) -> Self {
        self.is_intensional = true;
        self
    }

    /// Attach a modifier.
    pub fn with_modifier(mut self, m: Modifier) -> Self {
        self.modifiers.push(m);
        self
    }
}

/// An `SM_Node`: a named entity with its own identity and attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct SmNode {
    /// The node's `SM_Type` name (PascalCase).
    pub name: String,
    /// Intensional (derived) node type?
    pub is_intensional: bool,
    /// Declared attributes (inherited ones live on ancestors).
    pub attributes: Vec<SmAttribute>,
}

/// Edge-end cardinality, encoded as in the paper: `isFun` = max 1,
/// `isOpt` = min 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cardinality {
    /// Minimum participation is 0.
    pub is_opt: bool,
    /// Maximum participation is 1 (functional).
    pub is_fun: bool,
}

impl Cardinality {
    /// `0..N` — the default.
    pub fn many() -> Self {
        Cardinality {
            is_opt: true,
            is_fun: false,
        }
    }

    /// `0..1`.
    pub fn opt_one() -> Self {
        Cardinality {
            is_opt: true,
            is_fun: true,
        }
    }

    /// `1..1`.
    pub fn one() -> Self {
        Cardinality {
            is_opt: false,
            is_fun: true,
        }
    }

    /// `1..N`.
    pub fn at_least_one() -> Self {
        Cardinality {
            is_opt: false,
            is_fun: false,
        }
    }

    /// Render as `min..max`.
    pub fn display(&self) -> String {
        format!(
            "{}..{}",
            if self.is_opt { "0" } else { "1" },
            if self.is_fun { "1" } else { "N" }
        )
    }
}

/// An `SM_Edge`: a binary aggregation of two `SM_Node`s.
#[derive(Debug, Clone, PartialEq)]
pub struct SmEdge {
    /// The edge's `SM_Type` name (UPPER_CASE).
    pub name: String,
    /// Source node name.
    pub from: String,
    /// Target node name.
    pub to: String,
    /// Intensional (derived) edge type?
    pub is_intensional: bool,
    /// Cardinality at the source end.
    pub from_card: Cardinality,
    /// Cardinality at the target end.
    pub to_card: Cardinality,
    /// Edge attributes.
    pub attributes: Vec<SmAttribute>,
}

/// An `SM_Generalization` between a parent and its children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmGeneralization {
    /// Parent node name.
    pub parent: String,
    /// Child node names (≥ 1).
    pub children: Vec<String>,
    /// Every parent instance is an instance of some child.
    pub is_total: bool,
    /// Parent instances belong to at most one child.
    pub is_disjoint: bool,
}

/// A validated super-schema (an instance of the super-model).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SuperSchema {
    /// Schema name.
    pub name: String,
    /// Nodes, in declaration order.
    pub nodes: Vec<SmNode>,
    /// Edges, in declaration order.
    pub edges: Vec<SmEdge>,
    /// Generalizations, in declaration order.
    pub generalizations: Vec<SmGeneralization>,
}

impl SuperSchema {
    /// An empty schema named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        SuperSchema {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Add a node.
    pub fn add_node(&mut self, node: SmNode) -> &mut Self {
        self.nodes.push(node);
        self
    }

    /// Add an edge.
    pub fn add_edge(&mut self, edge: SmEdge) -> &mut Self {
        self.edges.push(edge);
        self
    }

    /// Add a generalization.
    pub fn add_generalization(&mut self, g: SmGeneralization) -> &mut Self {
        self.generalizations.push(g);
        self
    }

    /// Look up a node by name.
    pub fn node(&self, name: &str) -> Option<&SmNode> {
        self.nodes.iter().find(|n| n.name == name)
    }

    /// Look up an edge by name.
    pub fn edge(&self, name: &str) -> Option<&SmEdge> {
        self.edges.iter().find(|e| e.name == name)
    }

    /// The parent of `node` through its (at most one) generalization.
    pub fn parent_of(&self, node: &str) -> Option<&str> {
        self.generalizations
            .iter()
            .find(|g| g.children.iter().any(|c| c == node))
            .map(|g| g.parent.as_str())
    }

    /// Ancestors of `node`, nearest first.
    pub fn ancestors(&self, node: &str) -> Vec<&str> {
        let mut out = Vec::new();
        let mut cur = node;
        while let Some(p) = self.parent_of(cur) {
            out.push(p);
            cur = p;
        }
        out
    }

    /// Direct children of `node` across its generalizations.
    pub fn children_of(&self, node: &str) -> Vec<&str> {
        self.generalizations
            .iter()
            .filter(|g| g.parent == node)
            .flat_map(|g| g.children.iter().map(String::as_str))
            .collect()
    }

    /// All descendants of `node` (transitive), preorder.
    pub fn descendants(&self, node: &str) -> Vec<&str> {
        let mut out = Vec::new();
        let mut stack: Vec<&str> = self.children_of(node);
        while let Some(c) = stack.pop() {
            out.push(c);
            stack.extend(self.children_of(c));
        }
        out
    }

    /// Leaf-to-root attribute view: `node`'s own attributes plus everything
    /// inherited from ancestors (own first, then nearest ancestor, …).
    pub fn inherited_attributes(&self, node: &str) -> Vec<&SmAttribute> {
        let mut out: Vec<&SmAttribute> = Vec::new();
        if let Some(n) = self.node(node) {
            out.extend(n.attributes.iter());
        }
        for a in self.ancestors(node) {
            if let Some(n) = self.node(a) {
                out.extend(n.attributes.iter());
            }
        }
        out
    }

    /// The identifying attributes of `node` (own or inherited).
    pub fn identifier_of(&self, node: &str) -> Vec<&SmAttribute> {
        self.inherited_attributes(node)
            .into_iter()
            .filter(|a| a.is_id)
            .collect()
    }

    /// Edges incident to `node` or any of its ancestors (the inheritance of
    /// relationships down generalization hierarchies, §3.3).
    pub fn inherited_edges(&self, node: &str) -> Vec<&SmEdge> {
        let mut family: Vec<&str> = vec![node];
        family.extend(self.ancestors(node));
        self.edges
            .iter()
            .filter(|e| family.contains(&e.from.as_str()) || family.contains(&e.to.as_str()))
            .collect()
    }

    /// Validate all structural invariants. Returns `self` for chaining.
    pub fn validate(&self) -> Result<&Self> {
        // Unique node names.
        let mut names: BTreeSet<&str> = BTreeSet::new();
        for n in &self.nodes {
            if !names.insert(&n.name) {
                return Err(KgmError::Schema(format!("duplicate SM_Node `{}`", n.name)));
            }
            let mut attrs: BTreeSet<&str> = BTreeSet::new();
            for a in &n.attributes {
                if !attrs.insert(&a.name) {
                    return Err(KgmError::Schema(format!(
                        "duplicate attribute `{}` on `{}`",
                        a.name, n.name
                    )));
                }
                if a.is_id && a.is_opt {
                    return Err(KgmError::Schema(format!(
                        "identifying attribute `{}.{}` cannot be optional",
                        n.name, a.name
                    )));
                }
                if a.is_id && a.is_intensional {
                    return Err(KgmError::Schema(format!(
                        "identifying attribute `{}.{}` cannot be intensional",
                        n.name, a.name
                    )));
                }
            }
        }
        // Unique edge names (single SM_Type ⇒ simple graph).
        let mut edge_names: BTreeSet<&str> = BTreeSet::new();
        for e in &self.edges {
            if !edge_names.insert(&e.name) {
                return Err(KgmError::Schema(format!("duplicate SM_Edge `{}`", e.name)));
            }
            for end in [&e.from, &e.to] {
                if self.node(end).is_none() {
                    return Err(KgmError::Schema(format!(
                        "edge `{}` references unknown node `{end}`",
                        e.name
                    )));
                }
            }
            let mut attrs: BTreeSet<&str> = BTreeSet::new();
            for a in &e.attributes {
                if !attrs.insert(&a.name) {
                    return Err(KgmError::Schema(format!(
                        "duplicate attribute `{}` on edge `{}`",
                        a.name, e.name
                    )));
                }
                if a.is_id {
                    return Err(KgmError::Schema(format!(
                        "edge attribute `{}.{}` cannot be identifying",
                        e.name, a.name
                    )));
                }
            }
        }
        // Generalizations: known nodes, one parent per child, acyclic.
        let mut child_seen: BTreeMap<&str, &str> = BTreeMap::new();
        for g in &self.generalizations {
            if self.node(&g.parent).is_none() {
                return Err(KgmError::Schema(format!(
                    "generalization parent `{}` unknown",
                    g.parent
                )));
            }
            if g.children.is_empty() {
                return Err(KgmError::Schema(format!(
                    "generalization of `{}` has no children",
                    g.parent
                )));
            }
            for c in &g.children {
                if self.node(c).is_none() {
                    return Err(KgmError::Schema(format!(
                        "generalization child `{c}` unknown"
                    )));
                }
                if c == &g.parent {
                    return Err(KgmError::Schema(format!("`{c}` cannot specialize itself")));
                }
                if let Some(prev) = child_seen.insert(c, &g.parent) {
                    return Err(KgmError::Schema(format!(
                        "`{c}` has two parents (`{prev}` and `{}`)",
                        g.parent
                    )));
                }
            }
        }
        // Acyclicity via ancestor walk with a visited cap.
        for n in &self.nodes {
            let mut cur = n.name.as_str();
            let mut steps = 0;
            while let Some(p) = self.parent_of(cur) {
                steps += 1;
                if steps > self.nodes.len() {
                    return Err(KgmError::Schema(format!(
                        "generalization cycle through `{}`",
                        n.name
                    )));
                }
                cur = p;
            }
        }
        // Identifier: every extensional root node needs ≥1 id attribute;
        // children inherit.
        for n in &self.nodes {
            if n.is_intensional {
                continue;
            }
            if self.identifier_of(&n.name).is_empty() {
                return Err(KgmError::Schema(format!(
                    "`{}` has no identifier (an SM_Node always has one single \
                     identifier, §3.2)",
                    n.name
                )));
            }
            // Attribute names must not clash along the hierarchy.
            let mut seen: BTreeSet<&str> = BTreeSet::new();
            for a in self.inherited_attributes(&n.name) {
                if !seen.insert(&a.name) {
                    return Err(KgmError::Schema(format!(
                        "attribute `{}` declared twice along the hierarchy of `{}`",
                        a.name, n.name
                    )));
                }
            }
        }
        Ok(self)
    }

    /// Extensional subset: the schema without intensional nodes/edges/
    /// attributes (what gets enforced in the target database before
    /// reasoning materializes the rest).
    pub fn extensional_only(&self) -> SuperSchema {
        let nodes: Vec<SmNode> = self
            .nodes
            .iter()
            .filter(|n| !n.is_intensional)
            .map(|n| SmNode {
                name: n.name.clone(),
                is_intensional: false,
                attributes: n
                    .attributes
                    .iter()
                    .filter(|a| !a.is_intensional)
                    .cloned()
                    .collect(),
            })
            .collect();
        let node_names: BTreeSet<&String> = nodes.iter().map(|n| &n.name).collect();
        SuperSchema {
            name: self.name.clone(),
            edges: self
                .edges
                .iter()
                .filter(|e| {
                    !e.is_intensional && node_names.contains(&e.from) && node_names.contains(&e.to)
                })
                .cloned()
                .collect(),
            generalizations: self
                .generalizations
                .iter()
                .filter(|g| {
                    node_names.contains(&g.parent)
                        && g.children.iter().all(|c| node_names.contains(c))
                })
                .cloned()
                .collect(),
            nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn person_schema() -> SuperSchema {
        let mut s = SuperSchema::new("test");
        s.add_node(SmNode {
            name: "Person".into(),
            is_intensional: false,
            attributes: vec![
                SmAttribute::new("fiscalCode", ValueType::Str)
                    .id()
                    .with_modifier(Modifier::Unique),
                SmAttribute::new("name", ValueType::Str),
            ],
        });
        s.add_node(SmNode {
            name: "PhysicalPerson".into(),
            is_intensional: false,
            attributes: vec![
                SmAttribute::new("gender", ValueType::Str)
                    .with_modifier(Modifier::Enum(vec!["male".into(), "female".into()])),
                SmAttribute::new("birthDate", ValueType::Date).opt(),
            ],
        });
        s.add_node(SmNode {
            name: "LegalPerson".into(),
            is_intensional: false,
            attributes: vec![SmAttribute::new("businessName", ValueType::Str)],
        });
        s.add_generalization(SmGeneralization {
            parent: "Person".into(),
            children: vec!["PhysicalPerson".into(), "LegalPerson".into()],
            is_total: true,
            is_disjoint: true,
        });
        s.add_edge(SmEdge {
            name: "KNOWS".into(),
            from: "Person".into(),
            to: "Person".into(),
            is_intensional: false,
            from_card: Cardinality::many(),
            to_card: Cardinality::many(),
            attributes: vec![SmAttribute::new("since", ValueType::Date)],
        });
        s
    }

    #[test]
    fn valid_schema_passes() {
        person_schema().validate().unwrap();
    }

    #[test]
    fn inheritance_of_attributes_and_identifier() {
        let s = person_schema();
        let attrs = s.inherited_attributes("PhysicalPerson");
        let names: Vec<&str> = attrs.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, vec!["gender", "birthDate", "fiscalCode", "name"]);
        let id = s.identifier_of("PhysicalPerson");
        assert_eq!(id.len(), 1);
        assert_eq!(id[0].name, "fiscalCode");
    }

    #[test]
    fn ancestors_and_descendants() {
        let s = person_schema();
        assert_eq!(s.ancestors("PhysicalPerson"), vec!["Person"]);
        let mut d = s.descendants("Person");
        d.sort();
        assert_eq!(d, vec!["LegalPerson", "PhysicalPerson"]);
        assert!(s.descendants("PhysicalPerson").is_empty());
    }

    #[test]
    fn inherited_edges_cover_ancestor_relationships() {
        let s = person_schema();
        let edges = s.inherited_edges("PhysicalPerson");
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].name, "KNOWS");
    }

    #[test]
    fn missing_identifier_is_rejected() {
        let mut s = SuperSchema::new("t");
        s.add_node(SmNode {
            name: "X".into(),
            is_intensional: false,
            attributes: vec![SmAttribute::new("a", ValueType::Int)],
        });
        assert!(s.validate().is_err());
        // Intensional nodes are exempt.
        let mut s = SuperSchema::new("t");
        s.add_node(SmNode {
            name: "Family".into(),
            is_intensional: true,
            attributes: vec![],
        });
        s.validate().unwrap();
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut s = person_schema();
        s.add_node(SmNode {
            name: "Person".into(),
            is_intensional: false,
            attributes: vec![SmAttribute::new("x", ValueType::Int).id()],
        });
        assert!(s.validate().is_err());
    }

    #[test]
    fn optional_id_attribute_is_rejected() {
        let mut s = SuperSchema::new("t");
        s.add_node(SmNode {
            name: "X".into(),
            is_intensional: false,
            attributes: vec![SmAttribute::new("k", ValueType::Int).id().opt()],
        });
        assert!(s.validate().is_err());
    }

    #[test]
    fn edge_to_unknown_node_is_rejected() {
        let mut s = person_schema();
        s.add_edge(SmEdge {
            name: "OWNS".into(),
            from: "Person".into(),
            to: "Business".into(),
            is_intensional: false,
            from_card: Cardinality::many(),
            to_card: Cardinality::many(),
            attributes: vec![],
        });
        assert!(s.validate().is_err());
    }

    #[test]
    fn two_parents_are_rejected() {
        let mut s = person_schema();
        s.add_node(SmNode {
            name: "Other".into(),
            is_intensional: false,
            attributes: vec![SmAttribute::new("k", ValueType::Int).id()],
        });
        s.add_generalization(SmGeneralization {
            parent: "Other".into(),
            children: vec!["PhysicalPerson".into()],
            is_total: false,
            is_disjoint: false,
        });
        assert!(s.validate().is_err());
    }

    #[test]
    fn generalization_cycle_is_rejected() {
        let mut s = SuperSchema::new("t");
        for n in ["A", "B"] {
            s.add_node(SmNode {
                name: n.into(),
                is_intensional: false,
                attributes: vec![SmAttribute::new("k", ValueType::Int).id()],
            });
        }
        s.add_generalization(SmGeneralization {
            parent: "A".into(),
            children: vec!["B".into()],
            is_total: false,
            is_disjoint: false,
        });
        s.add_generalization(SmGeneralization {
            parent: "B".into(),
            children: vec!["A".into()],
            is_total: false,
            is_disjoint: false,
        });
        assert!(s.validate().is_err());
    }

    #[test]
    fn attribute_name_clash_along_hierarchy_is_rejected() {
        let mut s = person_schema();
        // PhysicalPerson redeclares `name`, clashing with Person's.
        s.nodes[1]
            .attributes
            .push(SmAttribute::new("name", ValueType::Str));
        assert!(s.validate().is_err());
    }

    #[test]
    fn extensional_only_strips_intensional_parts() {
        let mut s = person_schema();
        s.add_node(SmNode {
            name: "Family".into(),
            is_intensional: true,
            attributes: vec![],
        });
        s.add_edge(SmEdge {
            name: "BELONGS_TO_FAMILY".into(),
            from: "PhysicalPerson".into(),
            to: "Family".into(),
            is_intensional: true,
            from_card: Cardinality::many(),
            to_card: Cardinality::many(),
            attributes: vec![],
        });
        s.nodes[0]
            .attributes
            .push(SmAttribute::new("numberOfRelatives", ValueType::Int).intensional());
        s.validate().unwrap();
        let ext = s.extensional_only();
        assert!(ext.node("Family").is_none());
        assert!(ext.edge("BELONGS_TO_FAMILY").is_none());
        assert!(!ext
            .node("Person")
            .unwrap()
            .attributes
            .iter()
            .any(|a| a.name == "numberOfRelatives"));
        ext.validate().unwrap();
    }

    #[test]
    fn cardinality_display() {
        assert_eq!(Cardinality::many().display(), "0..N");
        assert_eq!(Cardinality::one().display(), "1..1");
        assert_eq!(Cardinality::opt_one().display(), "0..1");
        assert_eq!(Cardinality::at_least_one().display(), "1..N");
    }
}
