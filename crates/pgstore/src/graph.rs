//! The property-graph store.
//!
//! Implements the regular property graph of Section 4 of the paper:
//! `G = (N, E, μ, λ, σ)` with a total incidence function `μ : E → N²`, a
//! labelling function `λ` (here: multi-label on nodes as in the §5.2 PG
//! model, single label on edges so edge atoms have one type), and a property
//! function `σ`.
//!
//! Nodes and edges are stored in dense arenas indexed by [`NodeId`]/[`EdgeId`]
//! with tombstone deletion; every element additionally carries a stable
//! external [`Oid`] (the paper assumes *"every node has an internal OID"* in
//! the PG-to-relational mapping, Section 4 step (1)).

use kgm_common::{FxHashMap, Interner, KgmError, Oid, OidGen, Result, Symbol, Value};
use std::sync::Arc;

/// Dense node handle, valid only within the owning [`PropertyGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Dense edge handle, valid only within the owning [`PropertyGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

/// Traversal direction for adjacency queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Follow edges from source to target.
    Outgoing,
    /// Follow edges from target to source.
    Incoming,
    /// Follow edges both ways (semi-path traversal, Section 4).
    Both,
}

#[derive(Debug, Clone)]
pub(crate) struct NodeData {
    pub oid: Oid,
    pub labels: Vec<Symbol>,
    pub props: Vec<(Symbol, Value)>,
    pub out: Vec<EdgeId>,
    pub inc: Vec<EdgeId>,
    pub alive: bool,
}

#[derive(Debug, Clone)]
pub(crate) struct EdgeData {
    pub oid: Oid,
    pub label: Symbol,
    pub from: NodeId,
    pub to: NodeId,
    pub props: Vec<(Symbol, Value)>,
    pub alive: bool,
}

/// An in-memory property graph with label indexes and unique constraints.
pub struct PropertyGraph {
    interner: Arc<Interner>,
    oid_gen: OidGen,
    nodes: Vec<NodeData>,
    edges: Vec<EdgeData>,
    node_label_index: FxHashMap<Symbol, Vec<NodeId>>,
    edge_label_index: FxHashMap<Symbol, Vec<EdgeId>>,
    oid_to_node: FxHashMap<Oid, NodeId>,
    oid_to_edge: FxHashMap<Oid, EdgeId>,
    /// (label, property) → value → node, for unique-property constraints.
    unique: FxHashMap<(Symbol, Symbol), FxHashMap<Value, NodeId>>,
    live_nodes: usize,
    live_edges: usize,
}

impl Default for PropertyGraph {
    fn default() -> Self {
        PropertyGraph::new()
    }
}

impl PropertyGraph {
    /// Create an empty graph with its own interner.
    pub fn new() -> Self {
        PropertyGraph::with_interner(Arc::new(Interner::new()))
    }

    /// Create an empty graph sharing an existing interner (so symbols are
    /// comparable across graphs, e.g. dictionary ↔ instance graphs).
    pub fn with_interner(interner: Arc<Interner>) -> Self {
        PropertyGraph {
            interner,
            oid_gen: OidGen::default(),
            nodes: Vec::new(),
            edges: Vec::new(),
            node_label_index: FxHashMap::default(),
            edge_label_index: FxHashMap::default(),
            oid_to_node: FxHashMap::default(),
            oid_to_edge: FxHashMap::default(),
            unique: FxHashMap::default(),
            live_nodes: 0,
            live_edges: 0,
        }
    }

    /// The shared interner.
    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// Intern a label/property name.
    pub fn sym(&self, s: &str) -> Symbol {
        self.interner.intern(s)
    }

    /// Resolve a symbol to text.
    pub fn sym_name(&self, s: Symbol) -> String {
        self.interner.resolve(s).to_string()
    }

    // ------------------------------------------------------------------
    // Constraints
    // ------------------------------------------------------------------

    /// Declare a uniqueness constraint on `property` among nodes labelled
    /// `label` (the `SM_UniqueAttributeModifier` of the paper, rendered as a
    /// `UniquePropertyModifier` in the PG model of §5.2).
    ///
    /// Fails if existing data violates it.
    pub fn add_unique_constraint(&mut self, label: &str, property: &str) -> Result<()> {
        let l = self.sym(label);
        let p = self.sym(property);
        let mut index: FxHashMap<Value, NodeId> = FxHashMap::default();
        for (id, n) in self.iter_node_data() {
            if n.labels.contains(&l) {
                if let Some(v) = prop_of(&n.props, p) {
                    if let Some(prev) = index.insert(v.clone(), id) {
                        return Err(KgmError::Constraint(format!(
                            "unique({label}.{property}) violated by nodes {prev:?} and {id:?}"
                        )));
                    }
                }
            }
        }
        self.unique.insert((l, p), index);
        Ok(())
    }

    /// The declared unique constraints as (label, property) names.
    pub fn unique_constraints(&self) -> Vec<(String, String)> {
        let mut v: Vec<(String, String)> = self
            .unique
            .keys()
            .map(|(l, p)| (self.sym_name(*l), self.sym_name(*p)))
            .collect();
        v.sort();
        v
    }

    fn check_unique_on_insert(
        &self,
        labels: &[Symbol],
        props: &[(Symbol, Value)],
    ) -> Result<()> {
        for ((cl, cp), index) in &self.unique {
            if labels.contains(cl) {
                if let Some(v) = prop_of(props, *cp) {
                    if let Some(prev) = index.get(v) {
                        return Err(KgmError::Constraint(format!(
                            "unique({}.{}) violated: value {v:?} already on node {prev:?}",
                            self.sym_name(*cl),
                            self.sym_name(*cp)
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Mutation
    // ------------------------------------------------------------------

    /// Add a node with `labels` and `props`. Returns its dense id.
    pub fn add_node<L, P>(&mut self, labels: L, props: P) -> Result<NodeId>
    where
        L: IntoIterator,
        L::Item: AsRef<str>,
        P: IntoIterator<Item = (String, Value)>,
    {
        let labels: Vec<Symbol> = labels.into_iter().map(|l| self.sym(l.as_ref())).collect();
        let props: Vec<(Symbol, Value)> = props
            .into_iter()
            .map(|(k, v)| (self.sym(&k), v))
            .collect();
        self.check_unique_on_insert(&labels, &props)?;
        let oid = self.oid_gen.fresh();
        let id = NodeId(u32::try_from(self.nodes.len()).expect("node arena overflow"));
        for &l in &labels {
            self.node_label_index.entry(l).or_default().push(id);
        }
        for ((cl, cp), index) in &mut self.unique {
            if labels.contains(cl) {
                if let Some(v) = prop_of(&props, *cp) {
                    index.insert(v.clone(), id);
                }
            }
        }
        self.oid_to_node.insert(oid, id);
        self.nodes.push(NodeData {
            oid,
            labels,
            props,
            out: Vec::new(),
            inc: Vec::new(),
            alive: true,
        });
        self.live_nodes += 1;
        Ok(id)
    }

    /// Add an edge `from -[label]-> to`.
    pub fn add_edge<P>(&mut self, from: NodeId, to: NodeId, label: &str, props: P) -> Result<EdgeId>
    where
        P: IntoIterator<Item = (String, Value)>,
    {
        if !self.is_live_node(from) {
            return Err(KgmError::NotFound(format!("edge source {from:?}")));
        }
        if !self.is_live_node(to) {
            return Err(KgmError::NotFound(format!("edge target {to:?}")));
        }
        let label = self.sym(label);
        let props: Vec<(Symbol, Value)> = props
            .into_iter()
            .map(|(k, v)| (self.sym(&k), v))
            .collect();
        let oid = self.oid_gen.fresh();
        let id = EdgeId(u32::try_from(self.edges.len()).expect("edge arena overflow"));
        self.edges.push(EdgeData {
            oid,
            label,
            from,
            to,
            props,
            alive: true,
        });
        self.nodes[from.0 as usize].out.push(id);
        self.nodes[to.0 as usize].inc.push(id);
        self.edge_label_index.entry(label).or_default().push(id);
        self.oid_to_edge.insert(oid, id);
        self.live_edges += 1;
        Ok(id)
    }

    /// Remove an edge (tombstone).
    pub fn remove_edge(&mut self, id: EdgeId) -> Result<()> {
        let e = self
            .edges
            .get_mut(id.0 as usize)
            .filter(|e| e.alive)
            .ok_or_else(|| KgmError::NotFound(format!("{id:?}")))?;
        e.alive = false;
        let oid = e.oid;
        self.oid_to_edge.remove(&oid);
        self.live_edges -= 1;
        Ok(())
    }

    /// Remove a node and all its incident edges (tombstone).
    pub fn remove_node(&mut self, id: NodeId) -> Result<()> {
        if !self.is_live_node(id) {
            return Err(KgmError::NotFound(format!("{id:?}")));
        }
        let incident: Vec<EdgeId> = self.nodes[id.0 as usize]
            .out
            .iter()
            .chain(self.nodes[id.0 as usize].inc.iter())
            .copied()
            .collect();
        for e in incident {
            if self.edges[e.0 as usize].alive {
                self.remove_edge(e)?;
            }
        }
        // Drop from unique indexes.
        let (labels, props) = {
            let n = &self.nodes[id.0 as usize];
            (n.labels.clone(), n.props.clone())
        };
        for ((cl, cp), index) in &mut self.unique {
            if labels.contains(cl) {
                if let Some(v) = prop_of(&props, *cp) {
                    index.remove(v);
                }
            }
        }
        let n = &mut self.nodes[id.0 as usize];
        n.alive = false;
        self.oid_to_node.remove(&n.oid.clone());
        self.live_nodes -= 1;
        Ok(())
    }

    /// Set (insert or overwrite) a node property.
    pub fn set_node_prop(&mut self, id: NodeId, key: &str, value: Value) -> Result<()> {
        if !self.is_live_node(id) {
            return Err(KgmError::NotFound(format!("{id:?}")));
        }
        let k = self.sym(key);
        // Unique maintenance.
        let labels = self.nodes[id.0 as usize].labels.clone();
        let old = prop_of(&self.nodes[id.0 as usize].props, k).cloned();
        for ((cl, cp), index) in &mut self.unique {
            if *cp == k && labels.contains(cl) {
                if let Some(prev) = index.get(&value) {
                    if *prev != id {
                        return Err(KgmError::Constraint(format!(
                            "unique constraint violated on value {value:?}"
                        )));
                    }
                }
                if let Some(o) = &old {
                    index.remove(o);
                }
                index.insert(value.clone(), id);
            }
        }
        set_prop(&mut self.nodes[id.0 as usize].props, k, value);
        Ok(())
    }

    /// Set (insert or overwrite) an edge property.
    pub fn set_edge_prop(&mut self, id: EdgeId, key: &str, value: Value) -> Result<()> {
        let k = self.sym(key);
        let e = self
            .edges
            .get_mut(id.0 as usize)
            .filter(|e| e.alive)
            .ok_or_else(|| KgmError::NotFound(format!("{id:?}")))?;
        set_prop(&mut e.props, k, value);
        Ok(())
    }

    /// Add a label to an existing node (multi-tagging, §5.2).
    pub fn add_node_label(&mut self, id: NodeId, label: &str) -> Result<()> {
        if !self.is_live_node(id) {
            return Err(KgmError::NotFound(format!("{id:?}")));
        }
        let l = self.sym(label);
        let n = &mut self.nodes[id.0 as usize];
        if !n.labels.contains(&l) {
            n.labels.push(l);
            self.node_label_index.entry(l).or_default().push(id);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Lookup
    // ------------------------------------------------------------------

    /// True if the node id refers to a live node.
    pub fn is_live_node(&self, id: NodeId) -> bool {
        self.nodes.get(id.0 as usize).is_some_and(|n| n.alive)
    }

    /// True if the edge id refers to a live edge.
    pub fn is_live_edge(&self, id: EdgeId) -> bool {
        self.edges.get(id.0 as usize).is_some_and(|e| e.alive)
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.live_nodes
    }

    /// Number of live edges.
    pub fn edge_count(&self) -> usize {
        self.live_edges
    }

    /// The stable OID of a node.
    pub fn node_oid(&self, id: NodeId) -> Oid {
        self.nodes[id.0 as usize].oid
    }

    /// The stable OID of an edge.
    pub fn edge_oid(&self, id: EdgeId) -> Oid {
        self.edges[id.0 as usize].oid
    }

    /// Mint an OID from this graph's generator without adding an element,
    /// for records kept outside the graph that must never share an OID with
    /// its nodes and edges.
    pub fn fresh_oid(&self) -> Oid {
        self.oid_gen.fresh()
    }

    /// Resolve an OID back to its node.
    pub fn node_by_oid(&self, oid: Oid) -> Option<NodeId> {
        self.oid_to_node.get(&oid).copied()
    }

    /// Resolve an OID back to its edge.
    pub fn edge_by_oid(&self, oid: Oid) -> Option<EdgeId> {
        self.oid_to_edge.get(&oid).copied()
    }

    /// The labels of a node, as strings.
    pub fn node_labels(&self, id: NodeId) -> Vec<String> {
        self.nodes[id.0 as usize]
            .labels
            .iter()
            .map(|&l| self.sym_name(l))
            .collect()
    }

    /// The label symbols of a node.
    pub fn node_label_syms(&self, id: NodeId) -> &[Symbol] {
        &self.nodes[id.0 as usize].labels
    }

    /// True if the node carries `label`.
    pub fn node_has_label(&self, id: NodeId, label: &str) -> bool {
        self.interner
            .get(label)
            .is_some_and(|l| self.nodes[id.0 as usize].labels.contains(&l))
    }

    /// The label of an edge, as a string.
    pub fn edge_label(&self, id: EdgeId) -> String {
        self.sym_name(self.edges[id.0 as usize].label)
    }

    /// The label symbol of an edge.
    pub fn edge_label_sym(&self, id: EdgeId) -> Symbol {
        self.edges[id.0 as usize].label
    }

    /// Endpoints `(from, to)` of an edge.
    pub fn edge_endpoints(&self, id: EdgeId) -> (NodeId, NodeId) {
        let e = &self.edges[id.0 as usize];
        (e.from, e.to)
    }

    /// Read a node property.
    pub fn node_prop(&self, id: NodeId, key: &str) -> Option<&Value> {
        let k = self.interner.get(key)?;
        prop_of(&self.nodes[id.0 as usize].props, k)
    }

    /// Read an edge property.
    pub fn edge_prop(&self, id: EdgeId, key: &str) -> Option<&Value> {
        let k = self.interner.get(key)?;
        prop_of(&self.edges[id.0 as usize].props, k)
    }

    /// All properties of a node as (name, value) pairs.
    pub fn node_props(&self, id: NodeId) -> Vec<(String, Value)> {
        self.nodes[id.0 as usize]
            .props
            .iter()
            .map(|(k, v)| (self.sym_name(*k), v.clone()))
            .collect()
    }

    /// All properties of an edge as (name, value) pairs.
    pub fn edge_props(&self, id: EdgeId) -> Vec<(String, Value)> {
        self.edges[id.0 as usize]
            .props
            .iter()
            .map(|(k, v)| (self.sym_name(*k), v.clone()))
            .collect()
    }

    // ------------------------------------------------------------------
    // Iteration / adjacency
    // ------------------------------------------------------------------

    pub(crate) fn iter_node_data(&self) -> impl Iterator<Item = (NodeId, &NodeData)> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive)
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Iterate all live nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.iter_node_data().map(|(id, _)| id)
    }

    /// Iterate all live edges.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.alive)
            .map(|(i, _)| EdgeId(i as u32))
    }

    /// Live nodes carrying `label` (via the label index).
    pub fn nodes_with_label(&self, label: &str) -> Vec<NodeId> {
        let Some(l) = self.interner.get(label) else {
            return Vec::new();
        };
        self.node_label_index
            .get(&l)
            .map(|v| {
                v.iter()
                    .copied()
                    .filter(|&id| self.is_live_node(id) && self.nodes[id.0 as usize].labels.contains(&l))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Live edges carrying `label` (via the label index).
    pub fn edges_with_label(&self, label: &str) -> Vec<EdgeId> {
        let Some(l) = self.interner.get(label) else {
            return Vec::new();
        };
        self.edge_label_index
            .get(&l)
            .map(|v| v.iter().copied().filter(|&id| self.is_live_edge(id)).collect())
            .unwrap_or_default()
    }

    /// Live incident edges in `dir`.
    pub fn incident_edges(&self, id: NodeId, dir: Direction) -> Vec<EdgeId> {
        let n = &self.nodes[id.0 as usize];
        let mut out: Vec<EdgeId> = Vec::new();
        if matches!(dir, Direction::Outgoing | Direction::Both) {
            out.extend(n.out.iter().copied().filter(|&e| self.is_live_edge(e)));
        }
        if matches!(dir, Direction::Incoming | Direction::Both) {
            out.extend(n.inc.iter().copied().filter(|&e| self.is_live_edge(e)));
        }
        out
    }

    /// Neighbours of a node in `dir` (deduplicated only by edge, not node).
    pub fn neighbors(&self, id: NodeId, dir: Direction) -> Vec<NodeId> {
        self.incident_edges(id, dir)
            .into_iter()
            .map(|e| {
                let (f, t) = self.edge_endpoints(e);
                if f == id {
                    t
                } else {
                    f
                }
            })
            .collect()
    }

    /// (out-degree, in-degree) of a node, counting live edges.
    pub fn degree(&self, id: NodeId) -> (usize, usize) {
        let n = &self.nodes[id.0 as usize];
        let out = n.out.iter().filter(|&&e| self.is_live_edge(e)).count();
        let inc = n.inc.iter().filter(|&&e| self.is_live_edge(e)).count();
        (out, inc)
    }
}

pub(crate) fn prop_of(props: &[(Symbol, Value)], key: Symbol) -> Option<&Value> {
    props.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

fn set_prop(props: &mut Vec<(Symbol, Value)>, key: Symbol, value: Value) {
    if let Some(slot) = props.iter_mut().find(|(k, _)| *k == key) {
        slot.1 = value;
    } else {
        props.push((key, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn props(pairs: &[(&str, Value)]) -> Vec<(String, Value)> {
        pairs.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()
    }

    #[test]
    fn add_and_read_nodes() {
        let mut g = PropertyGraph::new();
        let n = g
            .add_node(["Business"], props(&[("name", Value::str("ACME"))]))
            .unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.node_labels(n), vec!["Business"]);
        assert_eq!(g.node_prop(n, "name"), Some(&Value::str("ACME")));
        assert_eq!(g.node_prop(n, "missing"), None);
    }

    #[test]
    fn add_and_traverse_edges() {
        let mut g = PropertyGraph::new();
        let a = g.add_node(["Person"], props(&[])).unwrap();
        let b = g.add_node(["Business"], props(&[])).unwrap();
        let e = g
            .add_edge(a, b, "OWNS", props(&[("percentage", Value::Float(0.6))]))
            .unwrap();
        assert_eq!(g.edge_label(e), "OWNS");
        assert_eq!(g.edge_endpoints(e), (a, b));
        assert_eq!(g.edge_prop(e, "percentage"), Some(&Value::Float(0.6)));
        assert_eq!(g.neighbors(a, Direction::Outgoing), vec![b]);
        assert_eq!(g.neighbors(b, Direction::Incoming), vec![a]);
        assert_eq!(g.neighbors(a, Direction::Incoming), vec![]);
        assert_eq!(g.degree(a), (1, 0));
        assert_eq!(g.degree(b), (0, 1));
    }

    #[test]
    fn label_index_tracks_multi_labels() {
        let mut g = PropertyGraph::new();
        let n = g.add_node(["Business"], props(&[])).unwrap();
        g.add_node_label(n, "LegalPerson").unwrap();
        g.add_node_label(n, "Person").unwrap();
        assert!(g.node_has_label(n, "Person"));
        assert_eq!(g.nodes_with_label("LegalPerson"), vec![n]);
        // Adding an existing label is a no-op.
        g.add_node_label(n, "Person").unwrap();
        assert_eq!(g.nodes_with_label("Person"), vec![n]);
    }

    #[test]
    fn unique_constraint_rejects_duplicates() {
        let mut g = PropertyGraph::new();
        g.add_unique_constraint("Person", "fiscalCode").unwrap();
        g.add_node(
            ["Person"],
            props(&[("fiscalCode", Value::str("AAA"))]),
        )
        .unwrap();
        let err = g
            .add_node(["Person"], props(&[("fiscalCode", Value::str("AAA"))]))
            .unwrap_err();
        assert!(matches!(err, KgmError::Constraint(_)));
        // Different label is unaffected.
        g.add_node(["Place"], props(&[("fiscalCode", Value::str("AAA"))]))
            .unwrap();
    }

    #[test]
    fn unique_constraint_on_existing_data() {
        let mut g = PropertyGraph::new();
        g.add_node(["P"], props(&[("k", Value::Int(1))])).unwrap();
        g.add_node(["P"], props(&[("k", Value::Int(1))])).unwrap();
        assert!(g.add_unique_constraint("P", "k").is_err());
        assert!(g.unique_constraints().is_empty());
    }

    #[test]
    fn set_prop_respects_unique() {
        let mut g = PropertyGraph::new();
        g.add_unique_constraint("P", "k").unwrap();
        let a = g.add_node(["P"], props(&[("k", Value::Int(1))])).unwrap();
        let b = g.add_node(["P"], props(&[("k", Value::Int(2))])).unwrap();
        assert!(g.set_node_prop(b, "k", Value::Int(1)).is_err());
        // Setting a node's own value again is fine.
        g.set_node_prop(a, "k", Value::Int(1)).unwrap();
        // Moving to a free value frees the old one.
        g.set_node_prop(a, "k", Value::Int(3)).unwrap();
        g.set_node_prop(b, "k", Value::Int(1)).unwrap();
    }

    #[test]
    fn remove_node_removes_incident_edges_and_unique_entries() {
        let mut g = PropertyGraph::new();
        g.add_unique_constraint("P", "k").unwrap();
        let a = g.add_node(["P"], props(&[("k", Value::Int(1))])).unwrap();
        let b = g.add_node(["P"], props(&[("k", Value::Int(2))])).unwrap();
        g.add_edge(a, b, "R", props(&[])).unwrap();
        g.add_edge(b, a, "R", props(&[])).unwrap();
        g.remove_node(a).unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
        assert!(g.neighbors(b, Direction::Both).is_empty());
        // The value 1 is free again.
        g.add_node(["P"], props(&[("k", Value::Int(1))])).unwrap();
    }

    #[test]
    fn oid_round_trip() {
        let mut g = PropertyGraph::new();
        let n = g.add_node(["X"], props(&[])).unwrap();
        let o = g.node_oid(n);
        assert_eq!(g.node_by_oid(o), Some(n));
        g.remove_node(n).unwrap();
        assert_eq!(g.node_by_oid(o), None);
    }

    #[test]
    fn edges_with_label_filters_dead() {
        let mut g = PropertyGraph::new();
        let a = g.add_node(["X"], props(&[])).unwrap();
        let b = g.add_node(["X"], props(&[])).unwrap();
        let e1 = g.add_edge(a, b, "R", props(&[])).unwrap();
        let e2 = g.add_edge(a, b, "R", props(&[])).unwrap();
        g.remove_edge(e1).unwrap();
        assert_eq!(g.edges_with_label("R"), vec![e2]);
        assert_eq!(g.edges_with_label("MISSING"), vec![]);
    }

    #[test]
    fn edge_to_dead_node_is_rejected() {
        let mut g = PropertyGraph::new();
        let a = g.add_node(["X"], props(&[])).unwrap();
        let b = g.add_node(["X"], props(&[])).unwrap();
        g.remove_node(b).unwrap();
        assert!(g.add_edge(a, b, "R", props(&[])).is_err());
    }
}
