//! Instance-level super-constructs (Figure 9) and instance loading.
//!
//! Section 6 extends the super-model dictionary with an `I_C` instance
//! counterpart for every super-construct `C`, which references `C`.
//! Loading a database instance `D` into these *super-components* is the
//! quasi-inverse step of Algorithm 2 (line 4): since information loss can
//! only happen in the *elimination* phase of a mapping, the *copy* phase is
//! invertible by construction, and `(V(M).copy)⁻¹` reads the data back into
//! the super-model.
//!
//! For the PG model the copy phase is label/attribute renaming, so the
//! quasi-inverse resolves each data node to its most specific `SM_Node`
//! (the label with the longest ancestor chain among the node's labels) and
//! records one attribute instance per schema-known property.
//!
//! The quasi-inverse writes relations, not graph elements: every instance
//! construct is a row in [`Dictionary::instances`], keyed by an OID minted
//! from the dictionary graph's generator.
//!
//! | relation | row | meaning |
//! |---|---|---|
//! | `i_sm_node` | `(I, instanceOID)` | an `I_SM_Node` |
//! | `i_sm_edge` | `(IE, instanceOID)` | an `I_SM_Edge` |
//! | `i_sm_attr` | `(A, value)` | an `I_SM_Attribute` |
//! | `sm_ref` | `(R, X, C)` | instance construct `X` references schema construct `C` |
//! | `i_has_nattr` | `(R, I, A)` | node `I` has attribute `A` |
//! | `i_has_eattr` | `(R, IE, A)` | edge `IE` has attribute `A` |
//! | `i_from`, `i_to` | `(R, IE, I)` | edge `IE` leaves, enters node `I` |
//!
//! Construct rows are `(oid, property)` and link rows `(oid, from, to)`, the
//! tuple shapes of the PG-to-relational mapping (Section 4, step (1)) that
//! the generated input views `V_I` read.

use crate::dictionary::{ConstructNames, Dictionary};
use crate::supermodel::SuperSchema;
use kgm_common::{FxHashMap, KgmError, Oid, Result, Symbol, Value};
use kgm_pgstore::{NodeId, PropertyGraph};
use kgm_vadalog::FactDb;

/// Statistics of one instance load.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// `I_SM_Node`s created.
    pub nodes: usize,
    /// `I_SM_Edge`s created.
    pub edges: usize,
    /// `I_SM_Attribute`s created.
    pub attributes: usize,
    /// Data nodes skipped because no schema label matched.
    pub skipped_nodes: usize,
    /// Data edges skipped because no schema edge type matched.
    pub skipped_edges: usize,
}

/// The correspondence between a loaded instance and the source data graph.
#[derive(Debug, Default)]
pub struct InstanceMap {
    /// `I_SM_Node` OID → data node.
    pub instance_to_node: FxHashMap<Oid, NodeId>,
}

/// A schema node label, resolved against the dictionary once per load.
struct NodeType<'s> {
    name: &'s str,
    /// Ancestor count: a data node's most specific label wins.
    depth: usize,
    /// The label's `SM_Node`, if the dictionary has it.
    sm: Option<Oid>,
    /// `(name, SM_Attribute)`: own attributes, then inherited ones.
    attrs: Vec<(String, Oid)>,
}

/// A schema edge label, resolved against the dictionary once per load.
struct EdgeType {
    sm: Oid,
    attrs: Vec<(String, Oid)>,
}

/// `(name, OID)` of a construct's `SM_Attribute`s, in declaration order.
fn named_attributes(dict: &Dictionary, construct: NodeId, link: &str) -> Vec<(String, Oid)> {
    let g = &dict.graph;
    dict.attributes_of(construct, link)
        .into_iter()
        .filter_map(|a| {
            g.node_prop(a, "name")
                .map(|v| (v.to_string(), g.node_oid(a)))
        })
        .collect()
}

/// Load a data graph (an instance of the PG schema generated from
/// `schema`) into the instance-level relations of `dict`.
pub fn load_instance(
    dict: &mut Dictionary,
    schema: &SuperSchema,
    schema_oid: i64,
    instance_oid: i64,
    data: &PropertyGraph,
) -> Result<(LoadStats, InstanceMap)> {
    let mut stats = LoadStats::default();
    let mut map = InstanceMap::default();
    let iv = Value::Int(instance_oid);

    // Resolve every schema label the data graph knows, keyed by its
    // data-graph symbol, before touching any data.
    let mut node_types: FxHashMap<Symbol, NodeType<'_>> = FxHashMap::default();
    for n in &schema.nodes {
        let Some(sym) = data.interner().get(&n.name) else {
            continue;
        };
        let ancestors = schema.ancestors(&n.name);
        let sm = dict.sm_node_by_name(&n.name, schema_oid);
        // Own attributes, then the inherited ones of the ancestor SM_Nodes.
        let attrs = sm
            .into_iter()
            .chain(
                ancestors
                    .iter()
                    .filter_map(|a| dict.sm_node_by_name(a, schema_oid)),
            )
            .flat_map(|c| named_attributes(dict, c, "SM_HAS_NODE_ATTR"))
            .collect();
        let ty = NodeType {
            name: &n.name,
            depth: ancestors.len(),
            sm: sm.map(|sm| dict.graph.node_oid(sm)),
            attrs,
        };
        node_types.insert(sym, ty);
    }
    let mut edge_types: FxHashMap<Symbol, EdgeType> = FxHashMap::default();
    for e in &schema.edges {
        let (Some(sym), Some(sm)) = (
            data.interner().get(&e.name),
            dict.sm_edge_by_name(&e.name, schema_oid),
        ) else {
            continue;
        };
        let ty = EdgeType {
            sm: dict.graph.node_oid(sm),
            attrs: named_attributes(dict, sm, "SM_HAS_EDGE_ATTR"),
        };
        edge_types.insert(sym, ty);
    }

    // OIDs are minted one per construct and one per link, in the order the
    // rows are written.
    let g = &dict.graph;
    let db = &mut dict.instances;
    let o = Value::Oid;
    let mut instance_of: FxHashMap<NodeId, Oid> = FxHashMap::default();
    for n in data.nodes() {
        let best = data
            .node_label_syms(n)
            .iter()
            .filter_map(|l| node_types.get(l))
            .max_by_key(|ty| ty.depth);
        let Some(ty) = best else {
            stats.skipped_nodes += 1;
            continue;
        };
        let sm = ty
            .sm
            .ok_or_else(|| KgmError::NotFound(format!("SM_Node `{}` in dictionary", ty.name)))?;
        let inode = g.fresh_oid();
        db.insert_ref("i_sm_node", &[o(inode), iv.clone()])?;
        db.insert_ref("sm_ref", &[o(g.fresh_oid()), o(inode), o(sm)])?;
        stats.nodes += 1;
        instance_of.insert(n, inode);
        map.instance_to_node.insert(inode, n);

        // Attributes: every schema-known property of the node.
        for (name, attr) in &ty.attrs {
            if let Some(value) = data.node_prop(n, name) {
                let ia = g.fresh_oid();
                db.insert_ref("i_sm_attr", &[o(ia), value.clone()])?;
                db.insert_ref("i_has_nattr", &[o(g.fresh_oid()), o(inode), o(ia)])?;
                db.insert_ref("sm_ref", &[o(g.fresh_oid()), o(ia), o(*attr)])?;
                stats.attributes += 1;
            }
        }
    }

    for e in data.edges() {
        let Some(ty) = edge_types.get(&data.edge_label_sym(e)) else {
            stats.skipped_edges += 1;
            continue;
        };
        let (f, t) = data.edge_endpoints(e);
        let (Some(&fi), Some(&ti)) = (instance_of.get(&f), instance_of.get(&t)) else {
            stats.skipped_edges += 1;
            continue;
        };
        let iedge = g.fresh_oid();
        db.insert_ref("i_sm_edge", &[o(iedge), iv.clone()])?;
        db.insert_ref("sm_ref", &[o(g.fresh_oid()), o(iedge), o(ty.sm)])?;
        db.insert_ref("i_from", &[o(g.fresh_oid()), o(iedge), o(fi)])?;
        db.insert_ref("i_to", &[o(g.fresh_oid()), o(iedge), o(ti)])?;
        stats.edges += 1;
        for (name, attr) in &ty.attrs {
            if let Some(value) = data.edge_prop(e, name) {
                let ia = g.fresh_oid();
                db.insert_ref("i_sm_attr", &[o(ia), value.clone()])?;
                db.insert_ref("i_has_eattr", &[o(g.fresh_oid()), o(iedge), o(ia)])?;
                db.insert_ref("sm_ref", &[o(g.fresh_oid()), o(ia), o(*attr)])?;
                stats.attributes += 1;
            }
        }
    }
    Ok((stats, map))
}

/// The `(from, to)` pairs of a link relation, in row order.
fn links<'a>(db: &'a FactDb, relation: &'a str) -> impl Iterator<Item = (Oid, Oid)> + 'a {
    db.facts_iter(relation)
        .filter_map(|t| Some((t[1].as_oid()?, t[2].as_oid()?)))
}

/// Flush the instance constructs of `instance_oid` back into a fresh data
/// graph (the inverse of [`load_instance`]; applying load ∘ flush is the
/// quasi-inverse round trip of Section 6).
pub fn flush_instance(
    dict: &Dictionary,
    schema: &SuperSchema,
    instance_oid: i64,
) -> Result<PropertyGraph> {
    let db = &dict.instances;
    let iv = Value::Int(instance_oid);
    let refs: FxHashMap<Oid, Oid> = links(db, "sm_ref").collect();
    let values: FxHashMap<Oid, Value> = db
        .facts_iter("i_sm_attr")
        .filter_map(|mut t| Some((t[0].as_oid()?, t.pop()?)))
        .collect();
    let grouped = |relation: &str| {
        let mut m: FxHashMap<Oid, Vec<Oid>> = FxHashMap::default();
        for (owner, attr) in links(db, relation) {
            m.entry(owner).or_default().push(attr);
        }
        m
    };
    let node_attrs = grouped("i_has_nattr");
    let edge_attrs = grouped("i_has_eattr");
    let mut names = ConstructNames::new(dict);
    let props_of = |attrs: Option<&Vec<Oid>>, names: &mut ConstructNames<'_>| {
        attrs
            .into_iter()
            .flatten()
            .filter_map(|ia| {
                let name = names.get(*refs.get(ia)?)?.to_string();
                Some((name, values.get(ia)?.clone()))
            })
            .collect::<Vec<(String, Value)>>()
    };

    let mut out = PropertyGraph::new();
    let mut out_node: FxHashMap<Oid, NodeId> = FxHashMap::default();
    for row in db.facts_iter("i_sm_node") {
        let Some(i) = row[0].as_oid().filter(|_| row[1] == iv) else {
            continue;
        };
        let sm = refs
            .get(&i)
            .ok_or_else(|| KgmError::Schema("I_SM_Node without sm_ref".into()))?;
        let node_props = props_of(node_attrs.get(&i), &mut names);
        // Multi-label strategy on flush: own type + ancestors.
        let labels = names
            .node_labels(*sm, schema)
            .ok_or_else(|| KgmError::Schema("SM_Node without type".into()))?;
        out_node.insert(i, out.add_node(labels, node_props)?);
    }

    let from: FxHashMap<Oid, Oid> = links(db, "i_from").collect();
    let to: FxHashMap<Oid, Oid> = links(db, "i_to").collect();
    for row in db.facts_iter("i_sm_edge") {
        let Some(ie) = row[0].as_oid().filter(|_| row[1] == iv) else {
            continue;
        };
        let sm = refs
            .get(&ie)
            .ok_or_else(|| KgmError::Schema("I_SM_Edge without sm_ref".into()))?;
        let endpoint = |ends: &FxHashMap<Oid, Oid>, relation: &str| -> Result<NodeId> {
            ends.get(&ie)
                .and_then(|n| out_node.get(n).copied())
                .ok_or_else(|| KgmError::Schema(format!("I_SM_Edge without {relation}")))
        };
        let (f, t) = (endpoint(&from, "i_from")?, endpoint(&to, "i_to")?);
        let edge_props = props_of(edge_attrs.get(&ie), &mut names);
        let label = names
            .get(*sm)
            .ok_or_else(|| KgmError::Schema("SM_Edge without type".into()))?;
        out.add_edge(f, t, label, edge_props)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsl::parse_gsl;
    use kgm_common::FxHashSet;

    fn schema() -> SuperSchema {
        parse_gsl(
            r#"
            schema S {
              node Person { id fiscalCode: string; name: string; }
              node PhysicalPerson { gender: string; }
              generalization Person -> PhysicalPerson;
              node Share { id shareId: string; percentage: float; }
              edge HOLDS: Person -> Share { right: string; }
            }
            "#,
        )
        .unwrap()
    }

    fn data() -> PropertyGraph {
        let mut d = PropertyGraph::new();
        let p = d
            .add_node(
                ["PhysicalPerson", "Person"],
                vec![
                    ("fiscalCode".to_string(), Value::str("AAA")),
                    ("name".to_string(), Value::str("Ada")),
                    ("gender".to_string(), Value::str("female")),
                ],
            )
            .unwrap();
        let s = d
            .add_node(
                ["Share"],
                vec![
                    ("shareId".to_string(), Value::str("S1")),
                    ("percentage".to_string(), Value::Float(1.0)),
                ],
            )
            .unwrap();
        d.add_edge(
            p,
            s,
            "HOLDS",
            vec![("right".to_string(), Value::str("ownership"))],
        )
        .unwrap();
        d
    }

    fn loaded() -> (Dictionary, SuperSchema) {
        let schema = schema();
        let mut dict = Dictionary::new();
        dict.encode(&schema, 1).unwrap();
        let (stats, _) = load_instance(&mut dict, &schema, 1, 100, &data()).unwrap();
        assert_eq!(stats.nodes, 2);
        assert_eq!(stats.edges, 1);
        // fiscalCode, name, gender, shareId, percentage, right = 6.
        assert_eq!(stats.attributes, 6);
        assert_eq!(stats.skipped_nodes, 0);
        (dict, schema)
    }

    #[test]
    fn load_creates_instance_constructs() {
        let (dict, _) = loaded();
        let rows = |relation: &str| dict.instances.len(relation);
        assert_eq!(rows("i_sm_node"), 2);
        assert_eq!(rows("i_sm_edge"), 1);
        assert_eq!(rows("i_sm_attr"), 6);
        // One reference per construct: 2 nodes, 1 edge, 6 attributes.
        assert_eq!(rows("sm_ref"), 9);
        assert_eq!(rows("i_has_nattr"), 5);
        assert_eq!(rows("i_has_eattr"), 1);
        assert_eq!(rows("i_from"), 1);
        assert_eq!(rows("i_to"), 1);
    }

    #[test]
    fn most_specific_label_wins() {
        let (dict, _) = loaded();
        // The person instance must reference PhysicalPerson, not Person.
        let inode = dict.instances.facts("i_sm_node")[0][0].clone();
        let sm = dict
            .instances
            .facts_iter("sm_ref")
            .find(|t| t[1] == inode)
            .and_then(|t| t[2].as_oid())
            .and_then(|oid| dict.graph.node_by_oid(oid))
            .unwrap();
        assert_eq!(
            dict.type_name(sm, "SM_HAS_NODE_TYPE").as_deref(),
            Some("PhysicalPerson")
        );
    }

    #[test]
    fn flush_round_trips_the_instance() {
        let (dict, schema) = loaded();
        let out = flush_instance(&dict, &schema, 100).unwrap();
        assert_eq!(out.node_count(), 2);
        assert_eq!(out.edge_count(), 1);
        let people = out.nodes_with_label("PhysicalPerson");
        assert_eq!(people.len(), 1);
        assert!(
            out.node_has_label(people[0], "Person"),
            "ancestor labels restored"
        );
        assert_eq!(
            out.node_prop(people[0], "gender"),
            Some(&Value::str("female"))
        );
        assert_eq!(
            out.node_prop(people[0], "fiscalCode"),
            Some(&Value::str("AAA"))
        );
        let holds = out.edges_with_label("HOLDS");
        assert_eq!(holds.len(), 1);
        assert_eq!(
            out.edge_prop(holds[0], "right"),
            Some(&Value::str("ownership"))
        );
    }

    #[test]
    fn unknown_labels_are_counted_not_fatal() {
        let schema = schema();
        let mut dict = Dictionary::new();
        dict.encode(&schema, 1).unwrap();
        let mut d = data();
        d.add_node(["Mystery"], vec![]).unwrap();
        let (stats, _) = load_instance(&mut dict, &schema, 1, 100, &d).unwrap();
        assert_eq!(stats.skipped_nodes, 1);
        assert_eq!(stats.nodes, 2);
    }

    #[test]
    fn instances_are_separated_by_instance_oid() {
        let schema = schema();
        let mut dict = Dictionary::new();
        dict.encode(&schema, 1).unwrap();
        load_instance(&mut dict, &schema, 1, 100, &data()).unwrap();
        load_instance(&mut dict, &schema, 1, 200, &data()).unwrap();
        let a = flush_instance(&dict, &schema, 100).unwrap();
        let b = flush_instance(&dict, &schema, 200).unwrap();
        assert_eq!(a.node_count(), 2);
        assert_eq!(b.node_count(), 2);
        let all = flush_instance(&dict, &schema, 999).unwrap();
        assert_eq!(all.node_count(), 0);
    }

    #[test]
    fn instance_oids_never_collide_with_schema_oids() {
        let schema = schema();
        let mut dict = Dictionary::new();
        dict.encode(&schema, 1).unwrap();
        load_instance(&mut dict, &schema, 1, 100, &data()).unwrap();
        load_instance(&mut dict, &schema, 1, 200, &data()).unwrap();
        let mut keys = FxHashSet::default();
        for relation in dict.instances.predicates() {
            for t in dict.instances.facts_iter(&relation) {
                let oid = t[0].as_oid().unwrap();
                assert!(dict.graph.node_by_oid(oid).is_none(), "{relation} {t:?}");
                assert!(dict.graph.edge_by_oid(oid).is_none(), "{relation} {t:?}");
                assert!(keys.insert(oid), "{relation} {t:?}: OID minted twice");
            }
        }
        assert_eq!(keys.len(), 2 * 26, "26 rows per load");
    }
}
