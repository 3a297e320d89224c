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
//! records one attribute instance per schema-known attribute. An element
//! without a value for a mandatory attribute (neither `opt` nor
//! `intensional`) is a `Constraint` error; a missing optional one is a row
//! holding the reserved *absent* null ([`absent`], the one MTV's `@input`
//! bindings write), as Section 5.3 stores a missing value as a NULL column.
//!
//! The quasi-inverse writes relations, not graph elements: every instance
//! construct is one row in [`Dictionary::instances`], keyed by an OID
//! minted from the dictionary graph's generator. The node OIDs are minted
//! first, as one block with one OID per node slot of the data graph, so
//! data node `n`'s instance OID is the block's first plus `n` (see
//! [`InstanceMap`]); edge and attribute OIDs follow in row order. A row's
//! key is a fresh OID, so no row can repeat: the load appends the rows
//! through [`FactDb::extend_distinct`], without a dedup table.
//!
//! Every link of Figure 9 is functional (a construct references one
//! schema construct, an edge has one source and one target, an attribute
//! one owner), so each is a column on its functional side, the relational
//! tactic of Section 5.3 (`RESIDES` and `BELONGS_TO` in Figure 8):
//!
//! | relation | row | meaning |
//! |---|---|---|
//! | `i_sm_node` | `(I, inst, SM)` | node `I` of instance `inst` is an `SM_Node` `SM` |
//! | `i_sm_edge` | `(IE, inst, SM, F, T)` | edge `IE` of instance `inst` is an `SM_Edge` `SM` from node `F` to node `T` |
//! | `i_sm_attr` | `(A, Owner, SM, V)` | attribute `A` of node or edge `Owner` is an `SM_Attribute` `SM` with value `V` |
//! | `i_sm_attr` | `(A, Owner, SM, absent)` | node or edge `Owner` has no value for the optional `SM_Attribute` `SM` |
//!
//! `inst` is the instance OID; `I`, `IE`, `A`, `F`, `T` and `Owner` are
//! instance-construct OIDs, and `SM` a schema-construct OID. The generated
//! input views `V_I` read these tuples with one atom per construct, and
//! [`flush_instance`] leaves the absent rows out.

use crate::dictionary::{Catalog, CatalogAttr, CatalogLabel, ConstructNames, Dictionary};
use crate::supermodel::SuperSchema;
use kgm_common::{FxHashMap, KgmError, Oid, Result, Symbol, Value};
use kgm_pgstore::{NodeId, PropertyGraph};
use kgm_vadalog::bindings::absent;
use kgm_vadalog::FactDb;

/// `i_sm_node(I, inst, SM)`: an `I_SM_Node` (see the module table).
pub(crate) const I_SM_NODE: &str = "i_sm_node";
/// `i_sm_edge(IE, inst, SM, F, T)`: an `I_SM_Edge` (see the module table).
pub(crate) const I_SM_EDGE: &str = "i_sm_edge";
/// `i_sm_attr(A, Owner, SM, V)`: an `I_SM_Attribute` (see the module table).
pub(crate) const I_SM_ATTR: &str = "i_sm_attr";

/// Statistics of one instance load.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// `I_SM_Node`s created.
    pub nodes: usize,
    /// `I_SM_Edge`s created.
    pub edges: usize,
    /// `I_SM_Attribute`s created, absent ones included.
    pub attributes: usize,
    /// Data nodes skipped because no schema label matched.
    pub skipped_nodes: usize,
    /// Data edges skipped because no schema edge type matched.
    pub skipped_edges: usize,
}

/// The correspondence between a loaded instance and the source data graph.
///
/// The load mints the instance OIDs of the data graph's node slots as one
/// consecutive block, so data node `n`'s `I_SM_Node` OID is the block's
/// first plus `n`, and resolving an instance OID is a subtraction. A
/// bitmap marks the nodes the load wrote: a node without a schema label,
/// or a removed node's slot, has an OID in the block but no instance.
#[derive(Debug)]
pub struct InstanceMap {
    /// The instance OID of node slot 0.
    base: Oid,
    /// Bit `n` is set when data node `n` was loaded.
    loaded: Vec<u64>,
}

impl InstanceMap {
    /// A map whose node slots `0..slots` own the OIDs from `base` on, with
    /// no node loaded yet.
    fn new(base: Oid, slots: usize) -> Self {
        InstanceMap {
            base,
            loaded: vec![0; slots.div_ceil(64)],
        }
    }

    /// The instance OID of the node in slot `n`.
    fn oid(&self, n: NodeId) -> Oid {
        Oid::new(self.base.space(), self.base.payload() + u64::from(n.0))
    }

    /// Mark data node `n` as loaded.
    fn mark(&mut self, n: NodeId) {
        self.loaded[n.0 as usize >> 6] |= 1 << (n.0 & 63);
    }

    /// The instance OID of data node `n`, if it was loaded.
    fn instance(&self, n: NodeId) -> Option<Oid> {
        self.is_loaded(n.0 as u64).then(|| self.oid(n))
    }

    /// True if node slot `slot` (any value) holds a loaded node.
    fn is_loaded(&self, slot: u64) -> bool {
        let word = usize::try_from(slot >> 6).ok();
        word.and_then(|w| self.loaded.get(w))
            .is_some_and(|w| (w >> (slot & 63)) & 1 == 1)
    }

    /// The data node loaded as the `I_SM_Node` `oid`, if any.
    pub fn node(&self, oid: Oid) -> Option<NodeId> {
        let slot = oid.payload().checked_sub(self.base.payload())?;
        let ours = oid.space() == self.base.space() && self.is_loaded(slot);
        ours.then_some(NodeId(slot as u32))
    }
}

/// Load a data graph (an instance of the PG schema generated from
/// `schema`) into the instance-level relations of `dict`, where `schema` is
/// encoded under `schema_oid`.
pub fn load_instance(
    dict: &mut Dictionary,
    schema: &SuperSchema,
    schema_oid: i64,
    instance_oid: i64,
    data: &PropertyGraph,
) -> Result<(LoadStats, InstanceMap)> {
    let catalog = dict.catalog(schema, schema_oid)?;
    load_with(dict, &catalog, instance_oid, data)
}

/// [`load_instance`] against the schema's catalog.
pub(crate) fn load_with(
    dict: &mut Dictionary,
    catalog: &Catalog,
    instance_oid: i64,
    data: &PropertyGraph,
) -> Result<(LoadStats, InstanceMap)> {
    let mut stats = LoadStats::default();
    let iv = Value::Int(instance_oid);

    // The schema labels the data graph knows, with their names, keyed by
    // data-graph symbol.
    let known = |name: &str| data.interner().get(name);
    let node_types: FxHashMap<Symbol, (&str, &CatalogLabel)> = catalog
        .nodes
        .iter()
        .filter_map(|(n, l)| Some((known(n)?, (n.as_str(), l))))
        .collect();
    let edge_types: FxHashMap<Symbol, (&str, &CatalogLabel)> = catalog
        .edges
        .iter()
        .filter_map(|(e, l)| Some((known(e)?, (e.as_str(), l))))
        .collect();

    // One OID per node slot as one block, then one per edge and attribute
    // in the order the rows are written. Each relation is resolved once.
    let g = &dict.graph;
    let db = &mut dict.instances;
    let node_rel = db.relation_id(I_SM_NODE, 3)?;
    let attr_rel = db.relation_id(I_SM_ATTR, 4)?;
    let edge_rel = db.relation_id(I_SM_EDGE, 5)?;
    let slots = data.node_slots();
    let mut map = InstanceMap::new(g.fresh_oids(slots as u64), slots);
    let o = Value::Oid;
    let nodes_span = kgm_runtime::span!("intensional.load.nodes");
    for n in data.nodes() {
        let best = data
            .node_label_syms(n)
            .iter()
            .filter_map(|l| node_types.get(l))
            .max_by_key(|(_, ty)| ty.depth);
        let Some(&(label, ty)) = best else {
            stats.skipped_nodes += 1;
            continue;
        };
        let inode = map.oid(n);
        db.extend_distinct(node_rel, [[o(inode), iv.clone(), o(ty.oid)]])?;
        stats.nodes += 1;
        map.mark(n);
        let props = |name: &str| data.node_prop(n, name);
        let element = || format!("node {} ({label})", data.node_oid(n));
        stats.attributes += load_attributes(g, db, attr_rel, inode, &ty.attrs, element, props)?;
    }
    drop(nodes_span);

    let _edges_span = kgm_runtime::span!("intensional.load.edges");
    for e in data.edges() {
        let Some(&(label, ty)) = edge_types.get(&data.edge_label_sym(e)) else {
            stats.skipped_edges += 1;
            continue;
        };
        let (f, t) = data.edge_endpoints(e);
        let (Some(fi), Some(ti)) = (map.instance(f), map.instance(t)) else {
            stats.skipped_edges += 1;
            continue;
        };
        let iedge = g.fresh_oid();
        let row = [o(iedge), iv.clone(), o(ty.oid), o(fi), o(ti)];
        db.extend_distinct(edge_rel, [row])?;
        stats.edges += 1;
        let props = |name: &str| data.edge_prop(e, name);
        let element = || format!("edge {} ({label})", data.edge_oid(e));
        stats.attributes += load_attributes(g, db, attr_rel, iedge, &ty.attrs, element, props)?;
    }
    Ok((stats, map))
}

/// Write into the `i_sm_attr` relation `rel` an `I_SM_Attribute` of
/// `owner` for every attribute of `attrs`, holding [`absent`] where the
/// element has no value for an optional one; returns how many. An element
/// without a value for a mandatory attribute is a `Constraint` error that
/// names it by `element` (its data-graph OID and label).
fn load_attributes<'d>(
    g: &PropertyGraph,
    db: &mut FactDb,
    rel: u32,
    owner: Oid,
    attrs: &[CatalogAttr],
    element: impl Fn() -> String,
    value_of: impl Fn(&str) -> Option<&'d Value>,
) -> Result<usize> {
    let o = Value::Oid;
    let mut written = 0;
    for attr in attrs {
        let value = match value_of(&attr.name) {
            Some(value) => value.clone(),
            None if attr.optional => absent(),
            None => {
                return Err(KgmError::Constraint(format!(
                    "{} has no value for the mandatory attribute `{}`",
                    element(),
                    attr.name
                )))
            }
        };
        let row = [o(g.fresh_oid()), o(owner), o(attr.oid), value];
        db.extend_distinct(rel, [row])?;
        written += 1;
    }
    Ok(written)
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
    let mut names = ConstructNames::new(dict);
    // Each owner's properties, in row order; an absent row is no property.
    let mut props: FxHashMap<Oid, Vec<(String, Value)>> = FxHashMap::default();
    for row in db.facts_iter(I_SM_ATTR).filter(|row| row[3] != absent()) {
        let name = row[2].as_oid().and_then(|sm| names.get(sm));
        let (Some(owner), Some(name)) = (row[1].as_oid(), name) else {
            continue;
        };
        let prop = (name.to_string(), row[3].clone());
        props.entry(owner).or_default().push(prop);
    }
    let mut props_of = |owner: Oid| props.remove(&owner).unwrap_or_default();
    let rows_of = |relation| db.facts_iter(relation).filter(|row| row[1] == iv);

    let mut out = PropertyGraph::new();
    let mut out_node: FxHashMap<Oid, NodeId> = FxHashMap::default();
    for row in rows_of(I_SM_NODE) {
        let (Some(i), Some(sm)) = (row[0].as_oid(), row[2].as_oid()) else {
            continue;
        };
        // Multi-label strategy on flush: own type + ancestors.
        let labels = names
            .node_labels(sm, schema)
            .ok_or_else(|| KgmError::Schema("SM_Node without type".into()))?;
        out_node.insert(i, out.add_node(labels, props_of(i))?);
    }

    for row in rows_of(I_SM_EDGE) {
        let (Some(ie), Some(sm)) = (row[0].as_oid(), row[2].as_oid()) else {
            continue;
        };
        let endpoint = |v: &Value| v.as_oid().and_then(|n| out_node.get(&n).copied());
        let (Some(f), Some(t)) = (endpoint(&row[3]), endpoint(&row[4])) else {
            return Err(KgmError::Schema(
                "I_SM_Edge endpoint outside its instance".into(),
            ));
        };
        let label = names
            .get(sm)
            .ok_or_else(|| KgmError::Schema("SM_Edge without type".into()))?;
        out.add_edge(f, t, label, props_of(ie))?;
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
        data_without("")
    }

    /// The instance of [`data`] with the property `missing` left out
    /// wherever it occurs.
    fn data_without(missing: &str) -> PropertyGraph {
        let props = |pairs: &[(&str, Value)]| -> Vec<(String, Value)> {
            pairs
                .iter()
                .filter(|(k, _)| *k != missing)
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect()
        };
        let mut d = PropertyGraph::new();
        let p = d
            .add_node(
                ["PhysicalPerson", "Person"],
                props(&[
                    ("fiscalCode", Value::str("AAA")),
                    ("name", Value::str("Ada")),
                    ("gender", Value::str("female")),
                ]),
            )
            .unwrap();
        let s = d
            .add_node(
                ["Share"],
                props(&[
                    ("shareId", Value::str("S1")),
                    ("percentage", Value::Float(1.0)),
                ]),
            )
            .unwrap();
        d.add_edge(p, s, "HOLDS", props(&[("right", Value::str("ownership"))]))
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
        let db = &dict.instances;
        // One row per construct: 2 nodes, 1 edge, 6 attributes, and no
        // relation of links.
        let mut relations = db.predicates();
        relations.sort();
        assert_eq!(relations, [I_SM_ATTR, I_SM_EDGE, I_SM_NODE]);
        assert_eq!(db.len(I_SM_NODE), 2);
        assert_eq!(db.len(I_SM_EDGE), 1);
        assert_eq!(db.len(I_SM_ATTR), 6);
        // The edge runs from the person to the share, and each attribute
        // has one of the three constructs as its owner.
        let nodes: Vec<Value> = db.facts_iter(I_SM_NODE).map(|t| t[0].clone()).collect();
        let edge = &db.facts(I_SM_EDGE)[0];
        assert_eq!(edge[3..], nodes[..]);
        let owners: Vec<Value> = db.facts_iter(I_SM_ATTR).map(|t| t[1].clone()).collect();
        let (p, s, e) = (&nodes[0], &nodes[1], &edge[0]);
        assert_eq!(owners, [p, p, p, s, s, e].map(Value::clone));
    }

    #[test]
    fn most_specific_label_wins() {
        let (dict, _) = loaded();
        // The person instance must reference PhysicalPerson, not Person.
        let sm = dict.instances.facts(I_SM_NODE)[0][2]
            .as_oid()
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

    /// The `Constraint` message of loading [`data`] without `missing`.
    fn load_error_without(missing: &str) -> String {
        let schema = schema();
        let mut dict = Dictionary::new();
        dict.encode(&schema, 1).unwrap();
        match load_instance(&mut dict, &schema, 1, 100, &data_without(missing)) {
            Err(KgmError::Constraint(msg)) => msg,
            other => panic!("a missing `{missing}` must be a Constraint error, got {other:?}"),
        }
    }

    #[test]
    fn a_node_without_a_mandatory_attribute_fails_the_load() {
        // `gender` is PhysicalPerson's own attribute, `name` one it
        // inherits from Person.
        let msg = load_error_without("gender");
        assert!(msg.contains("`gender`"), "{msg}");
        assert!(msg.contains("node #1 (PhysicalPerson)"), "{msg}");
        let msg = load_error_without("name");
        assert!(msg.contains("`name`"), "{msg}");
    }

    #[test]
    fn an_edge_without_a_mandatory_attribute_fails_the_load() {
        let msg = load_error_without("right");
        assert!(msg.contains("`right`"), "{msg}");
        assert!(msg.contains("edge #3 (HOLDS)"), "{msg}");
    }

    #[test]
    fn a_missing_optional_attribute_is_an_absent_row() {
        let schema = parse_gsl("schema T { node P { id k: string; opt nick: string; } }").unwrap();
        let mut dict = Dictionary::new();
        dict.encode(&schema, 1).unwrap();
        let mut d = PropertyGraph::new();
        d.add_node(["P"], vec![("k".to_string(), Value::str("x"))])
            .unwrap();
        let (stats, _) = load_instance(&mut dict, &schema, 1, 100, &d).unwrap();
        assert_eq!(stats.attributes, 2);
        let nick = &dict.instances.facts(I_SM_ATTR)[1];
        assert_eq!(nick[3], absent());
        let nick_oid = nick[2].as_oid().unwrap();
        assert_eq!(ConstructNames::new(&dict).get(nick_oid), Some("nick"));
        // The flush restores the node without the property.
        let out = flush_instance(&dict, &schema, 100).unwrap();
        let p = out.nodes_with_label("P")[0];
        assert_eq!(out.node_prop(p, "k"), Some(&Value::str("x")));
        assert_eq!(out.node_prop(p, "nick"), None);
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
        assert_eq!(keys.len(), 2 * 9, "9 rows per load");
    }
}
