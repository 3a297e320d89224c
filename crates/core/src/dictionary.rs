//! Graph dictionaries: super-schemas serialized as property graphs, and
//! the instances loaded against them as relations.
//!
//! Section 2.2: *"KGModel stores super-schemas and schemas into graph
//! dictionaries"*. The schema level is a [`PropertyGraph`] whose encoding
//! mirrors the super-model dictionary layout of Figure 3:
//!
//! - one `SM_Node` node per entity, linked by `SM_HAS_NODE_TYPE` to an
//!   `SM_Type` node carrying the `name`;
//! - one `SM_Attribute` node per attribute, linked by
//!   `SM_HAS_NODE_ATTR`/`SM_HAS_EDGE_ATTR`, with modifiers attached via
//!   `SM_HAS_MODIFIER`;
//! - one `SM_Edge` node per edge, with `SM_FROM`/`SM_TO` links to its
//!   endpoint `SM_Node`s (oriented edge → node, the orientation Example 5.2
//!   traverses with `[r: SM_FROM]⁻`);
//! - one `SM_Generalization` node per generalization, with `SM_PARENT`
//!   (parent node → generalization) and `SM_CHILD` (generalization → child
//!   node) links, the orientations of the Example 4.4 annotations.
//!
//! Every construct carries `schemaOID`, so several super-schemas share one
//! dictionary (Example 5.1 filters on `schemaOID : 123`).
//!
//! The instance level of Figure 9 is relational: [`Dictionary::instances`]
//! holds the rows of the `I_SM_*` relations the quasi-inverse load writes
//! ([`crate::instances`]). MetaLog's semantics is defined by translation to
//! Vadalog over relations, and the generated input views read exactly
//! these rows, so the store is handed to the chase as its input.

use crate::supermodel::{
    Cardinality, Modifier, SmAttribute, SmEdge, SmGeneralization, SmNode, SuperSchema,
};
use kgm_common::{FxHashMap, KgmError, Oid, Result, Value, ValueType};
use kgm_metalog::PgSchema;
use kgm_pgstore::{Direction, NodeId, PropertyGraph};
use kgm_vadalog::FactDb;

fn props(pairs: &[(&str, Value)]) -> Vec<(String, Value)> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

/// A dictionary: one or more encoded super-schemas and the instances
/// loaded against them.
pub struct Dictionary {
    /// The schema level: every encoded super-schema, as a property graph.
    /// Instance OIDs are minted from its generator too, so schema- and
    /// instance-level OIDs never collide.
    pub graph: PropertyGraph,
    /// The instance level: the rows of the three `I_SM_*` relations
    /// (`i_sm_node`, `i_sm_edge`, `i_sm_attr`) of every loaded instance,
    /// one row per construct, with each of its links as a column.
    pub instances: FactDb,
}

impl Default for Dictionary {
    fn default() -> Self {
        Dictionary::new()
    }
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Dictionary {
            graph: PropertyGraph::new(),
            instances: FactDb::new(),
        }
    }

    /// Encode `schema` under `schema_oid`, returning the created `SM_Node`
    /// ids by entity name.
    pub fn encode(&mut self, schema: &SuperSchema, schema_oid: i64) -> Result<()> {
        schema.validate()?;
        let g = &mut self.graph;
        let soid = Value::Int(schema_oid);
        let mut node_ids: Vec<(String, NodeId)> = Vec::new();
        for n in &schema.nodes {
            let node = g.add_node(
                ["SM_Node"],
                props(&[
                    ("schemaOID", soid.clone()),
                    ("isIntensional", Value::Bool(n.is_intensional)),
                ]),
            )?;
            let ty = g.add_node(
                ["SM_Type"],
                props(&[("schemaOID", soid.clone()), ("name", Value::str(&n.name))]),
            )?;
            g.add_edge(node, ty, "SM_HAS_NODE_TYPE", props(&[]))?;
            for (ord, a) in n.attributes.iter().enumerate() {
                let attr = encode_attribute(g, a, &soid, ord)?;
                g.add_edge(node, attr, "SM_HAS_NODE_ATTR", props(&[]))?;
            }
            node_ids.push((n.name.clone(), node));
        }
        let find_node = |name: &str| -> Result<NodeId> {
            node_ids
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, id)| *id)
                .ok_or_else(|| KgmError::NotFound(format!("SM_Node `{name}`")))
        };
        for e in &schema.edges {
            let edge = g.add_node(
                ["SM_Edge"],
                props(&[
                    ("schemaOID", soid.clone()),
                    ("isIntensional", Value::Bool(e.is_intensional)),
                    ("isOpt1", Value::Bool(e.from_card.is_opt)),
                    ("isFun1", Value::Bool(e.from_card.is_fun)),
                    ("isOpt2", Value::Bool(e.to_card.is_opt)),
                    ("isFun2", Value::Bool(e.to_card.is_fun)),
                ]),
            )?;
            let ty = g.add_node(
                ["SM_Type"],
                props(&[("schemaOID", soid.clone()), ("name", Value::str(&e.name))]),
            )?;
            g.add_edge(edge, ty, "SM_HAS_EDGE_TYPE", props(&[]))?;
            g.add_edge(edge, find_node(&e.from)?, "SM_FROM", props(&[]))?;
            g.add_edge(edge, find_node(&e.to)?, "SM_TO", props(&[]))?;
            for (ord, a) in e.attributes.iter().enumerate() {
                let attr = encode_attribute(g, a, &soid, ord)?;
                g.add_edge(edge, attr, "SM_HAS_EDGE_ATTR", props(&[]))?;
            }
        }
        for ge in &schema.generalizations {
            let gen = g.add_node(
                ["SM_Generalization"],
                props(&[
                    ("schemaOID", soid.clone()),
                    ("isTotal", Value::Bool(ge.is_total)),
                    ("isDisjoint", Value::Bool(ge.is_disjoint)),
                ]),
            )?;
            g.add_edge(find_node(&ge.parent)?, gen, "SM_PARENT", props(&[]))?;
            for (ord, c) in ge.children.iter().enumerate() {
                g.add_edge(
                    gen,
                    find_node(c)?,
                    "SM_CHILD",
                    props(&[("ord", Value::Int(ord as i64))]),
                )?;
            }
        }
        Ok(())
    }

    fn schema_filter(&self, id: NodeId, schema_oid: i64) -> bool {
        self.graph.node_prop(id, "schemaOID") == Some(&Value::Int(schema_oid))
    }

    /// Resolve every node and edge label of `schema`, encoded under
    /// `schema_oid`, in one walk of the dictionary. A label the dictionary
    /// lacks is a `NotFound` error.
    pub(crate) fn catalog(&self, schema: &SuperSchema, schema_oid: i64) -> Result<Catalog> {
        let g = &self.graph;
        // Each SM_Node and SM_Edge of the schema, with its own attributes.
        let own = |construct: &str, type_link: &str, attr_link: &str| {
            let constructs = g.nodes_with_label(construct).into_iter();
            constructs
                .filter(|&c| self.schema_filter(c, schema_oid))
                .filter_map(|c| {
                    let attrs = self.attributes_of(c, attr_link).into_iter();
                    let attrs = attrs.filter_map(|a| {
                        let flag = |key| g.node_prop(a, key) == Some(&Value::Bool(true));
                        Some(CatalogAttr {
                            name: g.node_prop(a, "name")?.to_string(),
                            oid: g.node_oid(a),
                            optional: flag("isOpt") || flag("isIntensional"),
                        })
                    });
                    Some((
                        self.type_name(c, type_link)?,
                        (g.node_oid(c), attrs.collect()),
                    ))
                })
                .collect::<FxHashMap<String, (Oid, Vec<CatalogAttr>)>>()
        };
        let nodes = own("SM_Node", "SM_HAS_NODE_TYPE", "SM_HAS_NODE_ATTR");
        let mut edges = own("SM_Edge", "SM_HAS_EDGE_TYPE", "SM_HAS_EDGE_ATTR");
        let missing = |construct, name: &str| KgmError::NotFound(format!("{construct} `{name}`"));
        let mut catalog = Catalog::default();
        for n in &schema.nodes {
            // The label itself, then its ancestors, nearest first.
            let chain = std::iter::once(n.name.as_str()).chain(schema.ancestors(&n.name));
            let chain = chain
                .map(|l| nodes.get(l).ok_or_else(|| missing("SM_Node", l)))
                .collect::<Result<Vec<_>>>()?;
            // The label itself, then its descendants (a node the
            // dictionary lacks fails its own chain).
            let subtree = std::iter::once(n.name.as_str()).chain(schema.descendants(&n.name));
            let label = CatalogLabel {
                oid: chain[0].0,
                depth: chain.len() - 1,
                attrs: chain.iter().flat_map(|(_, a)| a.iter().cloned()).collect(),
                subtree: subtree.filter_map(|l| Some(nodes.get(l)?.0)).collect(),
            };
            catalog.nodes.insert(n.name.clone(), label);
        }
        for e in &schema.edges {
            let (oid, attrs) = edges
                .remove(&e.name)
                .ok_or_else(|| missing("SM_Edge", &e.name))?;
            let label = CatalogLabel {
                oid,
                depth: 0,
                attrs,
                subtree: vec![oid],
            };
            catalog.edges.insert(e.name.clone(), label);
        }
        Ok(catalog)
    }

    /// The type name attached to a construct via the given `SM_HAS_*_TYPE`
    /// link.
    pub fn type_name(&self, construct: NodeId, link: &str) -> Option<String> {
        let g = &self.graph;
        g.incident_edges(construct, Direction::Outgoing)
            .into_iter()
            .filter(|&e| g.edge_label(e) == link)
            .map(|e| g.edge_endpoints(e).1)
            .find_map(|ty| g.node_prop(ty, "name").map(|v| v.to_string()))
    }

    /// Attribute dictionary nodes of a construct, in declaration order.
    pub fn attributes_of(&self, construct: NodeId, link: &str) -> Vec<NodeId> {
        let g = &self.graph;
        let mut attrs: Vec<NodeId> = g
            .incident_edges(construct, Direction::Outgoing)
            .into_iter()
            .filter(|&e| g.edge_label(e) == link)
            .map(|e| g.edge_endpoints(e).1)
            .collect();
        attrs.sort_by_key(|&a| {
            g.node_prop(a, "ord")
                .and_then(Value::as_i64)
                .unwrap_or(i64::MAX)
        });
        attrs
    }

    /// Decode the super-schema stored under `schema_oid`.
    pub fn decode(&self, name: impl Into<String>, schema_oid: i64) -> Result<SuperSchema> {
        let g = &self.graph;
        let mut schema = SuperSchema::new(name);
        let mut node_names: Vec<(NodeId, String)> = Vec::new();
        let mut nodes: Vec<NodeId> = g
            .nodes_with_label("SM_Node")
            .into_iter()
            .filter(|&n| self.schema_filter(n, schema_oid))
            .collect();
        nodes.sort_by_key(|n| g.node_oid(*n));
        for n in nodes {
            let tyname = self
                .type_name(n, "SM_HAS_NODE_TYPE")
                .ok_or_else(|| KgmError::Schema("SM_Node without SM_Type".into()))?;
            let attributes = self
                .attributes_of(n, "SM_HAS_NODE_ATTR")
                .into_iter()
                .map(|a| decode_attribute(g, a))
                .collect::<Result<Vec<_>>>()?;
            schema.add_node(SmNode {
                name: tyname.clone(),
                is_intensional: g.node_prop(n, "isIntensional") == Some(&Value::Bool(true)),
                attributes,
            });
            node_names.push((n, tyname));
        }
        let name_of = |id: NodeId| -> Result<String> {
            node_names
                .iter()
                .find(|(n, _)| *n == id)
                .map(|(_, s)| s.clone())
                .ok_or_else(|| KgmError::Schema("dangling SM_FROM/SM_TO".into()))
        };
        let mut edges: Vec<NodeId> = g
            .nodes_with_label("SM_Edge")
            .into_iter()
            .filter(|&n| self.schema_filter(n, schema_oid))
            .collect();
        edges.sort_by_key(|n| g.node_oid(*n));
        for e in edges {
            let tyname = self
                .type_name(e, "SM_HAS_EDGE_TYPE")
                .ok_or_else(|| KgmError::Schema("SM_Edge without SM_Type".into()))?;
            let endpoint = |label: &str| -> Result<String> {
                let id = g
                    .incident_edges(e, Direction::Outgoing)
                    .into_iter()
                    .filter(|&x| g.edge_label(x) == label)
                    .map(|x| g.edge_endpoints(x).1)
                    .next()
                    .ok_or_else(|| KgmError::Schema(format!("SM_Edge without {label}")))?;
                name_of(id)
            };
            let bool_prop = |key: &str| g.node_prop(e, key) == Some(&Value::Bool(true));
            let attributes = self
                .attributes_of(e, "SM_HAS_EDGE_ATTR")
                .into_iter()
                .map(|a| decode_attribute(g, a))
                .collect::<Result<Vec<_>>>()?;
            schema.add_edge(SmEdge {
                name: tyname,
                from: endpoint("SM_FROM")?,
                to: endpoint("SM_TO")?,
                is_intensional: bool_prop("isIntensional"),
                from_card: Cardinality {
                    is_opt: bool_prop("isOpt1"),
                    is_fun: bool_prop("isFun1"),
                },
                to_card: Cardinality {
                    is_opt: bool_prop("isOpt2"),
                    is_fun: bool_prop("isFun2"),
                },
                attributes,
            });
        }
        let mut gens: Vec<NodeId> = g
            .nodes_with_label("SM_Generalization")
            .into_iter()
            .filter(|&n| self.schema_filter(n, schema_oid))
            .collect();
        gens.sort_by_key(|n| g.node_oid(*n));
        for gen in gens {
            let parent = g
                .incident_edges(gen, Direction::Incoming)
                .into_iter()
                .filter(|&x| g.edge_label(x) == "SM_PARENT")
                .map(|x| g.edge_endpoints(x).0)
                .next()
                .ok_or_else(|| KgmError::Schema("generalization without parent".into()))?;
            let mut children: Vec<(i64, NodeId)> = g
                .incident_edges(gen, Direction::Outgoing)
                .into_iter()
                .filter(|&x| g.edge_label(x) == "SM_CHILD")
                .map(|x| {
                    let ord = g
                        .edge_prop(x, "ord")
                        .and_then(Value::as_i64)
                        .unwrap_or(i64::MAX);
                    (ord, g.edge_endpoints(x).1)
                })
                .collect();
            children.sort_by_key(|(o, _)| *o);
            let bool_prop = |key: &str| g.node_prop(gen, key) == Some(&Value::Bool(true));
            schema.add_generalization(SmGeneralization {
                parent: name_of(parent)?,
                children: children
                    .into_iter()
                    .map(|(_, c)| name_of(c))
                    .collect::<Result<Vec<_>>>()?,
                is_total: bool_prop("isTotal"),
                is_disjoint: bool_prop("isDisjoint"),
            });
        }
        schema.validate()?;
        Ok(schema)
    }
}

/// The labels of one encoded schema as the instance load reads them and
/// the generated views (Algorithm 2, lines 4–6) write them:
/// [`Dictionary::catalog`].
#[derive(Debug, Default)]
pub(crate) struct Catalog {
    pub(crate) nodes: FxHashMap<String, CatalogLabel>,
    pub(crate) edges: FxHashMap<String, CatalogLabel>,
}

/// A node or edge label, resolved to its dictionary construct.
#[derive(Debug)]
pub(crate) struct CatalogLabel {
    /// The `SM_Node` or `SM_Edge` OID its instances reference.
    pub(crate) oid: Oid,
    /// Ancestor count, 0 for an edge: a data node's most specific label
    /// wins.
    pub(crate) depth: usize,
    /// Own attributes in declaration order, then each ancestor's, nearest
    /// first: the attribute columns of the label's atom, as
    /// [`crate::intensional::pg_schema_of`] declares them.
    pub(crate) attrs: Vec<CatalogAttr>,
    /// The construct OIDs of the label's subtree, its own first: an
    /// instance of a descendant is an instance of the label too, but the
    /// load gives it its most specific construct. An edge label's subtree
    /// is the label itself.
    pub(crate) subtree: Vec<Oid>,
}

/// An attribute of a label.
#[derive(Debug, Clone)]
pub(crate) struct CatalogAttr {
    pub(crate) name: String,
    /// The `SM_Attribute` OID its instances reference.
    pub(crate) oid: Oid,
    /// `isOpt || isIntensional`: an instance may lack a value. The load
    /// rejects an instance that lacks a mandatory one, and writes the
    /// absent null for a missing optional one.
    pub(crate) optional: bool,
}

/// Names of schema-level constructs, each looked up in the dictionary graph
/// at most once per OID: flushing meets the same few constructs once per
/// row or fact.
pub(crate) struct ConstructNames<'a> {
    dict: &'a Dictionary,
    names: FxHashMap<Oid, Option<String>>,
}

impl<'a> ConstructNames<'a> {
    pub(crate) fn new(dict: &'a Dictionary) -> Self {
        ConstructNames {
            dict,
            names: FxHashMap::default(),
        }
    }

    /// The name the construct `oid` stands for: the type name of an
    /// `SM_Node` or `SM_Edge`, the name of an `SM_Attribute`. `None` for an
    /// unknown OID or a construct without one.
    pub(crate) fn get(&mut self, oid: Oid) -> Option<&str> {
        let dict = self.dict;
        let lookup = || {
            let g = &dict.graph;
            let n = g.node_by_oid(oid)?;
            if g.node_has_label(n, "SM_Node") {
                dict.type_name(n, "SM_HAS_NODE_TYPE")
            } else if g.node_has_label(n, "SM_Edge") {
                dict.type_name(n, "SM_HAS_EDGE_TYPE")
            } else {
                g.node_prop(n, "name").map(|v| v.to_string())
            }
        };
        self.names.entry(oid).or_insert_with(lookup).as_deref()
    }

    /// The labels a flushed node of the `SM_Node` `oid` carries under the
    /// multi-label strategy: its type name, then its ancestors'.
    pub(crate) fn node_labels(&mut self, oid: Oid, schema: &SuperSchema) -> Option<Vec<String>> {
        let name = self.get(oid)?;
        let mut labels = vec![name.to_string()];
        labels.extend(schema.ancestors(name).iter().map(|s| s.to_string()));
        Some(labels)
    }
}

fn encode_attribute(
    g: &mut PropertyGraph,
    a: &SmAttribute,
    soid: &Value,
    ord: usize,
) -> Result<NodeId> {
    let attr = g.add_node(
        ["SM_Attribute"],
        props(&[
            ("schemaOID", soid.clone()),
            ("name", Value::str(&a.name)),
            ("type", Value::str(a.ty.to_string())),
            ("isOpt", Value::Bool(a.is_opt)),
            ("isId", Value::Bool(a.is_id)),
            ("isIntensional", Value::Bool(a.is_intensional)),
            ("ord", Value::Int(ord as i64)),
        ]),
    )?;
    for m in &a.modifiers {
        let mnode = match m {
            Modifier::Unique => g.add_node(
                ["SM_UniqueAttributeModifier", "SM_AttributeModifier"],
                props(&[("schemaOID", soid.clone())]),
            )?,
            Modifier::Enum(values) => g.add_node(
                ["SM_EnumAttributeModifier", "SM_AttributeModifier"],
                props(&[
                    ("schemaOID", soid.clone()),
                    ("values", Value::str(values.join("|"))),
                ]),
            )?,
        };
        g.add_edge(attr, mnode, "SM_HAS_MODIFIER", props(&[]))?;
    }
    Ok(attr)
}

fn decode_attribute(g: &PropertyGraph, a: NodeId) -> Result<SmAttribute> {
    let name = g
        .node_prop(a, "name")
        .ok_or_else(|| KgmError::Schema("SM_Attribute without name".into()))?
        .to_string();
    let ty = g
        .node_prop(a, "type")
        .and_then(|v| v.as_str().map(str::to_string))
        .and_then(|t| ValueType::parse(&t))
        .ok_or_else(|| KgmError::Schema(format!("attribute `{name}` has a bad type")))?;
    let bool_prop = |key: &str| g.node_prop(a, key) == Some(&Value::Bool(true));
    let mut modifiers = Vec::new();
    for e in g.incident_edges(a, Direction::Outgoing) {
        if g.edge_label(e) != "SM_HAS_MODIFIER" {
            continue;
        }
        let m = g.edge_endpoints(e).1;
        if g.node_has_label(m, "SM_UniqueAttributeModifier") {
            modifiers.push(Modifier::Unique);
        } else if g.node_has_label(m, "SM_EnumAttributeModifier") {
            let values = g
                .node_prop(m, "values")
                .and_then(|v| v.as_str().map(str::to_string))
                .unwrap_or_default();
            modifiers.push(Modifier::Enum(
                values.split('|').map(str::to_string).collect(),
            ));
        }
    }
    Ok(SmAttribute {
        name,
        ty,
        is_opt: bool_prop("isOpt"),
        is_id: bool_prop("isId"),
        is_intensional: bool_prop("isIntensional"),
        modifiers,
    })
}

/// The MTV label catalog for dictionary graphs: every `SM_*` label with its
/// property list, so MetaLog mapping programs (Examples 5.1, 5.2) can be
/// compiled against dictionaries.
pub fn dictionary_pg_schema() -> PgSchema {
    let mut s = PgSchema::new();
    s.declare_node("SM_Node", ["schemaOID", "isIntensional"])
        .declare_node(
            "SM_Edge",
            [
                "schemaOID",
                "isIntensional",
                "isOpt1",
                "isFun1",
                "isOpt2",
                "isFun2",
            ],
        )
        .declare_node("SM_Type", ["schemaOID", "name"])
        .declare_node(
            "SM_Attribute",
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
        .declare_node("SM_Generalization", ["schemaOID", "isTotal", "isDisjoint"])
        .declare_node("SM_UniqueAttributeModifier", ["schemaOID"])
        .declare_node("SM_EnumAttributeModifier", ["schemaOID", "values"])
        .declare_edge("SM_HAS_NODE_TYPE", Vec::<String>::new())
        .declare_edge("SM_HAS_EDGE_TYPE", Vec::<String>::new())
        .declare_edge("SM_HAS_NODE_ATTR", Vec::<String>::new())
        .declare_edge("SM_HAS_EDGE_ATTR", Vec::<String>::new())
        .declare_edge("SM_FROM", Vec::<String>::new())
        .declare_edge("SM_TO", Vec::<String>::new())
        .declare_edge("SM_PARENT", Vec::<String>::new())
        .declare_edge("SM_CHILD", ["ord"])
        .declare_edge("SM_HAS_MODIFIER", Vec::<String>::new());
    s
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
              node PhysicalPerson { gender: string enum("male", "female"); }
              node LegalPerson { businessName: string; }
              generalization total disjoint Person -> PhysicalPerson, LegalPerson;
              node Share { id shareId: string; percentage: float; }
              edge HOLDS: Person [1..N] -> [0..N] Share { right: string; }
              intensional edge OWNS: Person -> LegalPerson;
            }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn encode_decode_round_trip() {
        let schema = sample();
        let mut dict = Dictionary::new();
        dict.encode(&schema, 123).unwrap();
        let decoded = dict.decode("S", 123).unwrap();
        assert_eq!(decoded, schema);
    }

    #[test]
    fn multiple_schemas_coexist_by_schema_oid() {
        let schema = sample();
        let mut other = SuperSchema::new("Other");
        other.add_node(SmNode {
            name: "Thing".into(),
            is_intensional: false,
            attributes: vec![SmAttribute::new("k", ValueType::Int).id()],
        });
        let mut dict = Dictionary::new();
        dict.encode(&schema, 123).unwrap();
        dict.encode(&other, 456).unwrap();
        let a = dict.decode("S", 123).unwrap();
        let b = dict.decode("Other", 456).unwrap();
        assert_eq!(a, schema);
        assert_eq!(b, other);
    }

    #[test]
    fn lookups_by_type_name() {
        let schema = sample();
        let mut dict = Dictionary::new();
        dict.encode(&schema, 7).unwrap();
        let catalog = dict.catalog(&schema, 7).unwrap();
        let person = dict.graph.node_by_oid(catalog.nodes["Person"].oid).unwrap();
        assert_eq!(
            dict.type_name(person, "SM_HAS_NODE_TYPE").as_deref(),
            Some("Person")
        );
        assert_eq!(dict.attributes_of(person, "SM_HAS_NODE_ATTR").len(), 3);
        assert!(matches!(
            dict.catalog(&schema, 8),
            Err(KgmError::NotFound(m)) if m == "SM_Node `Person`"
        ));
        let owns = dict.graph.node_by_oid(catalog.edges["OWNS"].oid).unwrap();
        assert_eq!(
            dict.graph.node_prop(owns, "isIntensional"),
            Some(&Value::Bool(true))
        );
    }

    /// The columns `V_I` writes for a label (the catalog's attributes) are
    /// the columns Σ reads (`pg_schema_of`'s properties), in order.
    #[test]
    fn catalog_columns_match_the_mtv_label_catalog() {
        let schema = parse_gsl(
            r#"
            schema Chain {
              node Party { id code: string; opt alias: string; }
              node Firm { name: string; intensional stakeholders: int; }
              node Bank { opt swift: string; rating: int; }
              generalization Party -> Firm;
              generalization Firm -> Bank;
              edge OWNS: Party -> Firm { share: float; opt since: date; }
              intensional edge CONTROLS: Party -> Firm { intensional weight: float; }
            }
            "#,
        )
        .unwrap();
        let mut dict = Dictionary::new();
        dict.encode(&schema, 3).unwrap();
        let catalog = dict.catalog(&schema, 3).unwrap();
        let pg = crate::intensional::pg_schema_of(&schema);
        let columns = |label: &CatalogLabel| -> Vec<(String, bool)> {
            label
                .attrs
                .iter()
                .map(|a| (a.name.clone(), a.optional))
                .collect()
        };
        let cols = |pairs: &[(&str, bool)]| -> Vec<(String, bool)> {
            pairs.iter().map(|&(n, o)| (n.to_string(), o)).collect()
        };
        let nodes = [
            ("Party", 0, cols(&[("code", false), ("alias", true)])),
            (
                "Firm",
                1,
                cols(&[
                    ("name", false),
                    ("stakeholders", true),
                    ("code", false),
                    ("alias", true),
                ]),
            ),
            (
                "Bank",
                2,
                cols(&[
                    ("swift", true),
                    ("rating", false),
                    ("name", false),
                    ("stakeholders", true),
                    ("code", false),
                    ("alias", true),
                ]),
            ),
        ];
        assert_eq!(catalog.nodes.len(), nodes.len());
        for (name, depth, want) in nodes {
            let label = &catalog.nodes[name];
            assert_eq!(label.depth, depth, "{name}");
            assert_eq!(columns(label), want, "{name}");
            let names: Vec<String> = want.into_iter().map(|(n, _)| n).collect();
            assert_eq!(pg.node_props(name).unwrap(), names.as_slice(), "{name}");
        }
        let edges = [
            ("OWNS", cols(&[("share", false), ("since", true)])),
            ("CONTROLS", cols(&[("weight", true)])),
        ];
        assert_eq!(catalog.edges.len(), edges.len());
        for (name, want) in edges {
            let label = &catalog.edges[name];
            assert_eq!(label.depth, 0, "{name}");
            assert_eq!(columns(label), want, "{name}");
            let names: Vec<String> = want.into_iter().map(|(n, _)| n).collect();
            assert_eq!(pg.edge_props(name).unwrap(), names.as_slice(), "{name}");
        }
    }

    #[test]
    fn dictionary_pg_schema_covers_all_labels() {
        let s = dictionary_pg_schema();
        for label in [
            "SM_Node",
            "SM_Edge",
            "SM_Type",
            "SM_Attribute",
            "SM_Generalization",
        ] {
            assert!(s.has_node(label), "missing node label {label}");
        }
        for label in ["SM_FROM", "SM_TO", "SM_PARENT", "SM_CHILD"] {
            assert!(s.has_edge(label), "missing edge label {label}");
        }
    }

    #[test]
    fn generalization_orientation_matches_example_4_4() {
        // (n:SM_Node)-[p:SM_PARENT]->(g:SM_Generalization) and
        // (n:SM_Node)<-[c:SM_CHILD]-(g:SM_Generalization).
        let mut dict = Dictionary::new();
        dict.encode(&sample(), 1).unwrap();
        let g = &dict.graph;
        for e in g.edges_with_label("SM_PARENT") {
            let (f, t) = g.edge_endpoints(e);
            assert!(g.node_has_label(f, "SM_Node"));
            assert!(g.node_has_label(t, "SM_Generalization"));
        }
        for e in g.edges_with_label("SM_CHILD") {
            let (f, t) = g.edge_endpoints(e);
            assert!(g.node_has_label(f, "SM_Generalization"));
            assert!(g.node_has_label(t, "SM_Node"));
        }
    }
}
