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
//!
//! **Layout.** No node or edge owns a heap allocation; every per-element
//! record is fixed-size and points into shared arenas:
//!
//! - A node holds its OID, an interned label-set id, the head of its
//!   property chain and the headers of its two adjacency segments. An edge
//!   holds its OID, label, endpoints and property-chain head.
//! - Label sets: each node's label sequence, as given (repeats included), is
//!   interned once into one flat symbol array, so nodes with equal labels
//!   share an id. PG-Schema models a node's labels as a set; the sequence is
//!   kept only so labels read back in the order they were given.
//! - Properties: one `(key, next, value)` arena. An element's properties are
//!   a chain in insertion order; a repeated key stays in the chain, and
//!   reads see its first occurrence.
//! - Adjacency: two [`SegmentArena`]s — the join index's posting structure —
//!   hold each node's outgoing and incoming edge ids in insertion order.
//!
//! Removal only tombstones: a removed element keeps its record, its
//! properties and its place in adjacency segments and label indexes, which
//! reads skip.
//!
//! **OID order.** [`PropertyGraph::add_node`] and [`PropertyGraph::add_edge`]
//! mint from the graph's own [`OidGen`], and elements are only ever
//! appended, so the node and the edge arrays are each sorted by OID.
//! [`PropertyGraph::node_by_oid`] and [`PropertyGraph::edge_by_oid`]
//! binary-search them and then check liveness; no OID map exists.

use kgm_common::hash::fx_hash_one;
use kgm_common::{
    FxHashMap, Interner, KgmError, Oid, OidGen, Result, SegmentArena, SlotTable, Symbol, Value,
};
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

/// End of a property chain.
const NIL: u32 = u32::MAX;

/// A node record. Its adjacency segments live in the graph's `out` and
/// `inc` arenas.
#[derive(Debug, Clone, Copy)]
struct Node {
    oid: Oid,
    out_start: u64,
    inc_start: u64,
    out_len: u32,
    inc_len: u32,
    /// Interned label-set id.
    labels: u32,
    /// First property in the property arena, or [`NIL`].
    props: u32,
}

/// An edge record.
#[derive(Debug, Clone, Copy)]
struct Edge {
    oid: Oid,
    label: Symbol,
    from: NodeId,
    to: NodeId,
    /// First property in the property arena, or [`NIL`].
    props: u32,
}

/// One property in a chain.
#[derive(Debug, Clone)]
struct Prop {
    key: Symbol,
    /// Next property of the same element, or [`NIL`].
    next: u32,
    value: Value,
}

/// A dense `u32` id for the next element of an arena of `len` records.
fn next_id(len: usize, arena: &str) -> u32 {
    u32::try_from(len)
        .ok()
        .filter(|&id| id != NIL)
        .unwrap_or_else(|| panic!("{arena} arena overflow"))
}

/// Every element's properties, as chains through one arena.
#[derive(Default)]
struct Props(Vec<Prop>);

impl Props {
    /// The `(key, value)` pairs of the chain at `head`, in insertion order.
    fn iter(&self, head: u32) -> impl Iterator<Item = (Symbol, &Value)> + '_ {
        let mut at = head;
        std::iter::from_fn(move || {
            let p = self.0.get(at as usize)?;
            at = p.next;
            Some((p.key, &p.value))
        })
    }

    /// The first value under `key` in the chain at `head`.
    fn get(&self, head: u32, key: Symbol) -> Option<&Value> {
        self.iter(head).find(|&(k, _)| k == key).map(|(_, v)| v)
    }

    /// Append `props` as a new chain and return its head.
    fn push_chain(
        &mut self,
        interner: &Interner,
        props: impl IntoIterator<Item = (String, Value)>,
    ) -> u32 {
        let mut head = NIL;
        for (k, value) in props {
            let id = next_id(self.0.len(), "property");
            if head == NIL {
                head = id;
            } else {
                self.0[id as usize - 1].next = id;
            }
            self.0.push(Prop {
                key: interner.intern(&k),
                next: NIL,
                value,
            });
        }
        head
    }

    /// Overwrite the first `key` of the chain at `head`, or append it at the
    /// chain's end. Returns the chain's head.
    fn set(&mut self, head: u32, key: Symbol, value: Value) -> u32 {
        let (mut at, mut tail) = (head, NIL);
        while at != NIL {
            let p = &mut self.0[at as usize];
            if p.key == key {
                p.value = value;
                return head;
            }
            tail = at;
            at = p.next;
        }
        let id = next_id(self.0.len(), "property");
        self.0.push(Prop {
            key,
            next: NIL,
            value,
        });
        if tail == NIL {
            id
        } else {
            self.0[tail as usize].next = id;
            head
        }
    }
}

/// Interned label sequences. Set `i` is the slice `syms[start..start + len]`
/// at `sets[i]`; `table` finds a sequence's id by comparing with the stored
/// slices, so each distinct sequence is stored once.
#[derive(Default)]
struct LabelSets {
    syms: Vec<Symbol>,
    sets: Vec<(u32, u32)>,
    table: SlotTable,
}

impl LabelSets {
    /// The labels of set `id`.
    fn get(&self, id: u32) -> &[Symbol] {
        let (start, len) = self.sets[id as usize];
        &self.syms[start as usize..start as usize + len as usize]
    }

    /// The id of `labels`, interned if new.
    fn intern(&mut self, labels: impl IntoIterator<Item = Symbol>) -> u32 {
        let from = self.syms.len();
        self.syms.extend(labels);
        self.intern_tail(from)
    }

    /// The id of set `id` extended by `label`, interned if new.
    fn with_label(&mut self, id: u32, label: Symbol) -> u32 {
        let (start, len) = self.sets[id as usize];
        let from = self.syms.len();
        self.syms
            .extend_from_within(start as usize..start as usize + len as usize);
        self.syms.push(label);
        self.intern_tail(from)
    }

    /// Intern the sequence `syms[from..]`, dropping it again if it is known.
    fn intern_tail(&mut self, from: usize) -> u32 {
        let tail = &self.syms[from..];
        let h = fx_hash_one(&tail);
        if let Some(id) = self.table.find(h, |id| self.get(id) == tail) {
            self.syms.truncate(from);
            return id;
        }
        let id = next_id(self.sets.len(), "label-set");
        let start = u32::try_from(from).expect("label arena overflow");
        let len = u32::try_from(tail.len()).expect("label arena overflow");
        self.sets.push((start, len));
        self.table.insert(h, id);
        id
    }
}

/// True if bit `i` of a lazily sized bitmap is set.
#[inline]
fn bit_get(bits: &[u64], i: u32) -> bool {
    bits.get(i as usize >> 6)
        .is_some_and(|w| (w >> (i & 63)) & 1 == 1)
}

/// Set bit `i` of a lazily sized bitmap, growing it on demand.
fn bit_set(bits: &mut Vec<u64>, i: u32) {
    let w = i as usize >> 6;
    if bits.len() <= w {
        bits.resize(w + 1, 0);
    }
    bits[w] |= 1 << (i & 63);
}

/// An in-memory property graph with label indexes and unique constraints.
pub struct PropertyGraph {
    interner: Arc<Interner>,
    oid_gen: OidGen,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    /// Tombstone bitmaps over node and edge ids, empty until a removal.
    dead_nodes: Vec<u64>,
    dead_edges: Vec<u64>,
    label_sets: LabelSets,
    props: Props,
    /// Outgoing and incoming edge ids of every node.
    out: SegmentArena,
    inc: SegmentArena,
    node_label_index: FxHashMap<Symbol, Vec<NodeId>>,
    edge_label_index: FxHashMap<Symbol, Vec<EdgeId>>,
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
            dead_nodes: Vec::new(),
            dead_edges: Vec::new(),
            label_sets: LabelSets::default(),
            props: Props::default(),
            out: SegmentArena::default(),
            inc: SegmentArena::default(),
            node_label_index: FxHashMap::default(),
            edge_label_index: FxHashMap::default(),
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
        for id in self.nodes() {
            let n = &self.nodes[id.0 as usize];
            if self.label_sets.get(n.labels).contains(&l) {
                if let Some(v) = self.props.get(n.props, p) {
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

    /// Fails if a node carrying `labels` and the property chain at `props`
    /// would share a unique value with a node other than `id` (`None` for a
    /// node not yet added).
    fn check_unique(&self, labels: &[Symbol], props: u32, id: Option<NodeId>) -> Result<()> {
        for ((cl, cp), index) in &self.unique {
            if labels.contains(cl) {
                if let Some(v) = self.props.get(props, *cp) {
                    if let Some(prev) = index.get(v).filter(|&&prev| Some(prev) != id) {
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
        let interner = &self.interner;
        let labels = self
            .label_sets
            .intern(labels.into_iter().map(|l| interner.intern(l.as_ref())));
        let mark = self.props.0.len();
        let head = self.props.push_chain(interner, props);
        if let Err(e) = self.check_unique(self.label_sets.get(labels), head, None) {
            self.props.0.truncate(mark);
            return Err(e);
        }
        let oid = self.oid_gen.fresh();
        debug_assert!(self.nodes.last().is_none_or(|n| n.oid < oid));
        let id = NodeId(next_id(self.nodes.len(), "node"));
        for &l in self.label_sets.get(labels) {
            self.node_label_index.entry(l).or_default().push(id);
        }
        for ((cl, cp), index) in &mut self.unique {
            if self.label_sets.get(labels).contains(cl) {
                if let Some(v) = self.props.get(head, *cp) {
                    index.insert(v.clone(), id);
                }
            }
        }
        self.nodes.push(Node {
            oid,
            out_start: 0,
            inc_start: 0,
            out_len: 0,
            inc_len: 0,
            labels,
            props: head,
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
        let head = self.props.push_chain(&self.interner, props);
        let oid = self.oid_gen.fresh();
        debug_assert!(self.edges.last().is_none_or(|e| e.oid < oid));
        let id = EdgeId(next_id(self.edges.len(), "edge"));
        self.edges.push(Edge {
            oid,
            label,
            from,
            to,
            props: head,
        });
        let f = &mut self.nodes[from.0 as usize];
        self.out.push(&mut f.out_start, &mut f.out_len, id.0);
        let t = &mut self.nodes[to.0 as usize];
        self.inc.push(&mut t.inc_start, &mut t.inc_len, id.0);
        self.edge_label_index.entry(label).or_default().push(id);
        self.live_edges += 1;
        Ok(id)
    }

    /// Remove an edge (tombstone).
    pub fn remove_edge(&mut self, id: EdgeId) -> Result<()> {
        if !self.is_live_edge(id) {
            return Err(KgmError::NotFound(format!("{id:?}")));
        }
        bit_set(&mut self.dead_edges, id.0);
        self.live_edges -= 1;
        Ok(())
    }

    /// Remove a node and all its incident edges (tombstone).
    pub fn remove_node(&mut self, id: NodeId) -> Result<()> {
        if !self.is_live_node(id) {
            return Err(KgmError::NotFound(format!("{id:?}")));
        }
        let n = self.nodes[id.0 as usize];
        let incident = self
            .out
            .segment(n.out_start, n.out_len)
            .iter()
            .chain(self.inc.segment(n.inc_start, n.inc_len));
        for &e in incident {
            if !bit_get(&self.dead_edges, e) {
                bit_set(&mut self.dead_edges, e);
                self.live_edges -= 1;
            }
        }
        // Drop from unique indexes.
        let labels = self.label_sets.get(n.labels);
        for ((cl, cp), index) in &mut self.unique {
            if labels.contains(cl) {
                if let Some(v) = self.props.get(n.props, *cp) {
                    index.remove(v);
                }
            }
        }
        bit_set(&mut self.dead_nodes, id.0);
        self.live_nodes -= 1;
        Ok(())
    }

    /// Set (insert or overwrite) a node property.
    pub fn set_node_prop(&mut self, id: NodeId, key: &str, value: Value) -> Result<()> {
        if !self.is_live_node(id) {
            return Err(KgmError::NotFound(format!("{id:?}")));
        }
        let k = self.sym(key);
        let n = self.nodes[id.0 as usize];
        let labels = self.label_sets.get(n.labels);
        // Check every constraint before changing any index.
        for ((cl, cp), index) in &self.unique {
            if *cp == k && labels.contains(cl) && index.get(&value).is_some_and(|&p| p != id) {
                return Err(KgmError::Constraint(format!(
                    "unique constraint violated on value {value:?}"
                )));
            }
        }
        let old = self.props.get(n.props, k);
        for ((cl, cp), index) in &mut self.unique {
            if *cp == k && labels.contains(cl) {
                if let Some(o) = old {
                    index.remove(o);
                }
                index.insert(value.clone(), id);
            }
        }
        self.nodes[id.0 as usize].props = self.props.set(n.props, k, value);
        Ok(())
    }

    /// Set (insert or overwrite) an edge property.
    pub fn set_edge_prop(&mut self, id: EdgeId, key: &str, value: Value) -> Result<()> {
        let k = self.sym(key);
        if !self.is_live_edge(id) {
            return Err(KgmError::NotFound(format!("{id:?}")));
        }
        let e = &mut self.edges[id.0 as usize];
        e.props = self.props.set(e.props, k, value);
        Ok(())
    }

    /// Add a label to an existing node (multi-tagging, §5.2). Fails if the
    /// node's value for a property declared unique under `label` is already
    /// taken.
    pub fn add_node_label(&mut self, id: NodeId, label: &str) -> Result<()> {
        if !self.is_live_node(id) {
            return Err(KgmError::NotFound(format!("{id:?}")));
        }
        let l = self.sym(label);
        let n = self.nodes[id.0 as usize];
        if self.label_sets.get(n.labels).contains(&l) {
            return Ok(());
        }
        self.check_unique(&[l], n.props, Some(id))?;
        for ((cl, cp), index) in &mut self.unique {
            if *cl == l {
                if let Some(v) = self.props.get(n.props, *cp) {
                    index.insert(v.clone(), id);
                }
            }
        }
        self.nodes[id.0 as usize].labels = self.label_sets.with_label(n.labels, l);
        self.node_label_index.entry(l).or_default().push(id);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Lookup
    // ------------------------------------------------------------------

    /// True if the node id refers to a live node.
    pub fn is_live_node(&self, id: NodeId) -> bool {
        (id.0 as usize) < self.nodes.len() && !bit_get(&self.dead_nodes, id.0)
    }

    /// True if the edge id refers to a live edge.
    pub fn is_live_edge(&self, id: EdgeId) -> bool {
        (id.0 as usize) < self.edges.len() && !bit_get(&self.dead_edges, id.0)
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

    /// Mint `n` consecutive OIDs from this graph's generator, as
    /// [`PropertyGraph::fresh_oid`] mints one, and return the first.
    pub fn fresh_oids(&self, n: u64) -> Oid {
        self.oid_gen.fresh_block(n)
    }

    /// Number of node ids handed out, removed nodes included: every
    /// [`NodeId`] of this graph is below it.
    pub fn node_slots(&self) -> usize {
        self.nodes.len()
    }

    /// Resolve an OID back to its node.
    pub fn node_by_oid(&self, oid: Oid) -> Option<NodeId> {
        let i = self.nodes.binary_search_by_key(&oid, |n| n.oid).ok()?;
        Some(NodeId(i as u32)).filter(|&id| self.is_live_node(id))
    }

    /// Resolve an OID back to its edge.
    pub fn edge_by_oid(&self, oid: Oid) -> Option<EdgeId> {
        let i = self.edges.binary_search_by_key(&oid, |e| e.oid).ok()?;
        Some(EdgeId(i as u32)).filter(|&id| self.is_live_edge(id))
    }

    /// The labels of a node, as strings.
    pub fn node_labels(&self, id: NodeId) -> Vec<String> {
        self.node_label_syms(id)
            .iter()
            .map(|&l| self.sym_name(l))
            .collect()
    }

    /// The label symbols of a node.
    pub fn node_label_syms(&self, id: NodeId) -> &[Symbol] {
        self.label_sets.get(self.nodes[id.0 as usize].labels)
    }

    /// True if the node carries `label`.
    pub fn node_has_label(&self, id: NodeId, label: &str) -> bool {
        self.interner
            .get(label)
            .is_some_and(|l| self.node_label_syms(id).contains(&l))
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
        self.props.get(self.nodes[id.0 as usize].props, k)
    }

    /// Read an edge property.
    pub fn edge_prop(&self, id: EdgeId, key: &str) -> Option<&Value> {
        let k = self.interner.get(key)?;
        self.props.get(self.edges[id.0 as usize].props, k)
    }

    /// All properties of a node as (name, value) pairs.
    pub fn node_props(&self, id: NodeId) -> Vec<(String, Value)> {
        self.named_props(self.nodes[id.0 as usize].props)
    }

    /// All properties of an edge as (name, value) pairs.
    pub fn edge_props(&self, id: EdgeId) -> Vec<(String, Value)> {
        self.named_props(self.edges[id.0 as usize].props)
    }

    fn named_props(&self, head: u32) -> Vec<(String, Value)> {
        self.props
            .iter(head)
            .map(|(k, v)| (self.sym_name(k), v.clone()))
            .collect()
    }

    // ------------------------------------------------------------------
    // Iteration / adjacency
    // ------------------------------------------------------------------

    /// Iterate all live nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32)
            .map(NodeId)
            .filter(|&id| !bit_get(&self.dead_nodes, id.0))
    }

    /// Iterate all live edges.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32)
            .map(EdgeId)
            .filter(|&id| !bit_get(&self.dead_edges, id.0))
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
                    .filter(|&id| self.is_live_node(id) && self.node_label_syms(id).contains(&l))
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
            .map(|v| {
                v.iter()
                    .copied()
                    .filter(|&id| self.is_live_edge(id))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// All edge ids in `dir` from a node, dead ones included: outgoing, then
    /// incoming.
    fn adjacent(&self, id: NodeId, dir: Direction) -> impl Iterator<Item = EdgeId> + '_ {
        let n = &self.nodes[id.0 as usize];
        let out: &[u32] = match dir {
            Direction::Outgoing | Direction::Both => self.out.segment(n.out_start, n.out_len),
            Direction::Incoming => &[],
        };
        let inc: &[u32] = match dir {
            Direction::Incoming | Direction::Both => self.inc.segment(n.inc_start, n.inc_len),
            Direction::Outgoing => &[],
        };
        out.iter().chain(inc).map(|&e| EdgeId(e))
    }

    /// True if a live edge `from -[label]-> to` exists.
    pub fn has_edge(&self, from: NodeId, label: Symbol, to: NodeId) -> bool {
        self.adjacent(from, Direction::Outgoing).any(|e| {
            let edge = &self.edges[e.0 as usize];
            edge.label == label && edge.to == to && self.is_live_edge(e)
        })
    }

    /// Live incident edges in `dir`.
    pub fn incident_edges(&self, id: NodeId, dir: Direction) -> Vec<EdgeId> {
        self.adjacent(id, dir)
            .filter(|&e| self.is_live_edge(e))
            .collect()
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
        let live = |dir| {
            self.adjacent(id, dir)
                .filter(|&e| self.is_live_edge(e))
                .count()
        };
        (live(Direction::Outgoing), live(Direction::Incoming))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn props(pairs: &[(&str, Value)]) -> Vec<(String, Value)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
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
        g.add_node(["Person"], props(&[("fiscalCode", Value::str("AAA"))]))
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

    #[test]
    fn add_node_label_respects_unique() {
        let mut g = PropertyGraph::new();
        g.add_unique_constraint("P", "k").unwrap();
        let p = g.add_node(["P"], props(&[("k", Value::Int(1))])).unwrap();
        let q = g.add_node(["Q"], props(&[("k", Value::Int(1))])).unwrap();
        let err = g.add_node_label(q, "P").unwrap_err();
        assert!(matches!(err, KgmError::Constraint(_)), "{err:?}");
        assert_eq!(g.nodes_with_label("P"), vec![p]);
        assert_eq!(g.node_labels(q), vec!["Q"]);
        // A label that takes a free value enters the index.
        let r = g.add_node(["Q"], props(&[("k", Value::Int(2))])).unwrap();
        g.add_node_label(r, "P").unwrap();
        assert_eq!(g.nodes_with_label("P"), vec![p, r]);
        assert!(g.add_node(["P"], props(&[("k", Value::Int(2))])).is_err());
    }

    #[test]
    fn set_node_prop_checks_every_constraint_before_changing_one() {
        // Which constraint's index the check visits first depends on hash
        // order, so both declaration orders are covered.
        for order in [["A", "B"], ["B", "A"]] {
            let mut g = PropertyGraph::new();
            for label in order {
                g.add_unique_constraint(label, "k").unwrap();
            }
            let n = g
                .add_node(["A", "B"], props(&[("k", Value::Int(1))]))
                .unwrap();
            g.add_node(["B"], props(&[("k", Value::Int(2))])).unwrap();
            // 2 is taken under B, so the set fails and changes nothing...
            assert!(g.set_node_prop(n, "k", Value::Int(2)).is_err(), "{order:?}");
            assert_eq!(g.node_prop(n, "k"), Some(&Value::Int(1)));
            // ...so n still holds 1 under A.
            let err = g
                .add_node(["A"], props(&[("k", Value::Int(1))]))
                .unwrap_err();
            assert!(matches!(err, KgmError::Constraint(_)), "{order:?}: {err:?}");
            g.add_node(["A"], props(&[("k", Value::Int(2))])).unwrap();
        }
    }

    // ------------------------------------------------------------------
    // Model check: the arena layout against one `Vec` per element
    // ------------------------------------------------------------------

    use kgm_common::OidSpace;
    use kgm_runtime::prop::{check, shrink_vec, CaseError, Config};
    use kgm_runtime::{prop_assert, prop_assert_eq, Rng};

    const NODE_LABELS: [&str; 3] = ["A", "B", "C"];
    const EDGE_LABELS: [&str; 2] = ["R", "S"];
    const KEYS: [&str; 2] = ["k", "m"];

    /// A property value: a small number, as an `Int` or an equal `Float`,
    /// so unique values collide often and across representations.
    type Num = (i64, bool);

    fn num((n, as_float): Num) -> Value {
        if as_float {
            Value::Float(n as f64)
        } else {
            Value::Int(n)
        }
    }

    /// One mutation. Element indices are taken modulo one more than the
    /// element count, so some name no element.
    #[derive(Debug, Clone)]
    enum Op {
        AddNode(Vec<usize>, Vec<(usize, Num)>),
        AddEdge(usize, usize, usize, Vec<(usize, Num)>),
        RemoveEdge(usize),
        RemoveNode(usize),
        SetNodeProp(usize, usize, Num),
        SetEdgeProp(usize, usize, Num),
        AddNodeLabel(usize, usize),
        AddUnique(usize, usize),
        FreshOid,
        /// Mint a block of this many OIDs.
        FreshOids(u64),
    }

    fn gen_graph_ops(rng: &mut Rng) -> Vec<Op> {
        let steps = rng.gen_range(0usize..200);
        let num = |rng: &mut Rng| (rng.gen_range(0i64..4), rng.gen_bool(0.3));
        let props = |rng: &mut Rng| {
            let n = rng.gen_range(0usize..3);
            (0..n)
                .map(|_| (rng.gen_range(0..KEYS.len()), num(rng)))
                .collect()
        };
        (0..steps)
            .map(|_| match rng.gen_range(0u32..100) {
                0..=19 => {
                    let n = rng.gen_range(0usize..4);
                    let labels = (0..n)
                        .map(|_| rng.gen_range(0..NODE_LABELS.len()))
                        .collect();
                    Op::AddNode(labels, props(rng))
                }
                20..=49 => {
                    let from = rng.gen_range(0usize..64);
                    // Self-loops on purpose, not by chance alone.
                    let to = if rng.gen_bool(0.1) {
                        from
                    } else {
                        rng.gen_range(0usize..64)
                    };
                    Op::AddEdge(from, to, rng.gen_range(0..EDGE_LABELS.len()), props(rng))
                }
                50..=56 => Op::RemoveEdge(rng.gen_range(0usize..64)),
                57..=61 => Op::RemoveNode(rng.gen_range(0usize..64)),
                62..=73 => Op::SetNodeProp(
                    rng.gen_range(0usize..64),
                    rng.gen_range(0..KEYS.len()),
                    num(rng),
                ),
                74..=80 => Op::SetEdgeProp(
                    rng.gen_range(0usize..64),
                    rng.gen_range(0..KEYS.len()),
                    num(rng),
                ),
                81..=89 => Op::AddNodeLabel(
                    rng.gen_range(0usize..64),
                    rng.gen_range(0..NODE_LABELS.len()),
                ),
                90..=95 => Op::AddUnique(
                    rng.gen_range(0..NODE_LABELS.len()),
                    rng.gen_range(0..KEYS.len()),
                ),
                96..=97 => Op::FreshOid,
                _ => Op::FreshOids(rng.gen_range(0u64..4)),
            })
            .collect()
    }

    #[derive(Debug)]
    struct ModelNode {
        oid: u64,
        labels: Vec<String>,
        props: Vec<(String, Value)>,
        out: Vec<usize>,
        inc: Vec<usize>,
        alive: bool,
    }

    #[derive(Debug)]
    struct ModelEdge {
        oid: u64,
        label: String,
        from: usize,
        to: usize,
        props: Vec<(String, Value)>,
        alive: bool,
    }

    /// The graph as it was stored before the arenas: one `Vec` per
    /// element, label lists appended to as labels are given, and unique
    /// constraints checked by scanning every live node.
    #[derive(Debug, Default)]
    struct Model {
        nodes: Vec<ModelNode>,
        edges: Vec<ModelEdge>,
        label_index: Vec<(String, Vec<usize>)>,
        unique: Vec<(String, String)>,
        /// OIDs minted so far; payloads run from 1.
        minted: u64,
    }

    /// What a mutation returned: its variant, and the new id if any.
    #[derive(Debug, PartialEq)]
    enum Outcome {
        Ok(Option<u32>),
        Constraint,
        NotFound,
    }

    fn outcome<T>(r: Result<T>, id: impl Fn(T) -> Option<u32>) -> Outcome {
        match r {
            Ok(v) => Outcome::Ok(id(v)),
            Err(KgmError::Constraint(_)) => Outcome::Constraint,
            Err(KgmError::NotFound(_)) => Outcome::NotFound,
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }

    fn first<'a>(props: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
        props.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn set_first(props: &mut Vec<(String, Value)>, key: &str, value: Value) {
        match props.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value,
            None => props.push((key.to_string(), value)),
        }
    }

    impl Model {
        fn live_node(&self, n: usize) -> bool {
            self.nodes.get(n).is_some_and(|n| n.alive)
        }

        fn mint(&mut self) -> u64 {
            self.minted += 1;
            self.minted
        }

        /// True if a live node other than `except` carries `label` and
        /// holds `value` under `key`.
        fn taken(&self, label: &str, key: &str, value: &Value, except: Option<usize>) -> bool {
            self.nodes.iter().enumerate().any(|(i, n)| {
                n.alive
                    && Some(i) != except
                    && n.labels.iter().any(|l| l == label)
                    && first(&n.props, key) == Some(value)
            })
        }

        fn index_label(&mut self, label: &str, node: usize) {
            match self.label_index.iter_mut().find(|(l, _)| l == label) {
                Some((_, ids)) => ids.push(node),
                None => self.label_index.push((label.to_string(), vec![node])),
            }
        }

        fn apply(&mut self, op: &Op) -> Outcome {
            let (nodes, edges) = (self.nodes.len() + 1, self.edges.len() + 1);
            let node_ix = |n: usize| n % nodes;
            let edge_ix = |e: usize| e % edges;
            match op {
                Op::AddNode(labels, props) => {
                    let labels: Vec<String> =
                        labels.iter().map(|&l| NODE_LABELS[l].to_string()).collect();
                    let props: Vec<(String, Value)> = props
                        .iter()
                        .map(|&(k, v)| (KEYS[k].to_string(), num(v)))
                        .collect();
                    let clash = self.unique.iter().any(|(l, k)| {
                        labels.contains(l)
                            && first(&props, k).is_some_and(|v| self.taken(l, k, v, None))
                    });
                    if clash {
                        return Outcome::Constraint;
                    }
                    let id = self.nodes.len();
                    for l in &labels {
                        self.index_label(l, id);
                    }
                    let oid = self.mint();
                    self.nodes.push(ModelNode {
                        oid,
                        labels,
                        props,
                        out: Vec::new(),
                        inc: Vec::new(),
                        alive: true,
                    });
                    Outcome::Ok(Some(id as u32))
                }
                Op::AddEdge(from, to, label, props) => {
                    let (from, to) = (node_ix(*from), node_ix(*to));
                    if !self.live_node(from) || !self.live_node(to) {
                        return Outcome::NotFound;
                    }
                    let id = self.edges.len();
                    let oid = self.mint();
                    self.edges.push(ModelEdge {
                        oid,
                        label: EDGE_LABELS[*label].to_string(),
                        from,
                        to,
                        props: props
                            .iter()
                            .map(|&(k, v)| (KEYS[k].to_string(), num(v)))
                            .collect(),
                        alive: true,
                    });
                    self.nodes[from].out.push(id);
                    self.nodes[to].inc.push(id);
                    Outcome::Ok(Some(id as u32))
                }
                Op::RemoveEdge(e) => match self.edges.get_mut(edge_ix(*e)) {
                    Some(e) if e.alive => {
                        e.alive = false;
                        Outcome::Ok(None)
                    }
                    _ => Outcome::NotFound,
                },
                Op::RemoveNode(n) => {
                    let n = node_ix(*n);
                    if !self.live_node(n) {
                        return Outcome::NotFound;
                    }
                    let node = &mut self.nodes[n];
                    node.alive = false;
                    for &e in node.out.iter().chain(&node.inc) {
                        self.edges[e].alive = false;
                    }
                    Outcome::Ok(None)
                }
                Op::SetNodeProp(n, k, v) => {
                    let (n, key, value) = (node_ix(*n), KEYS[*k], num(*v));
                    if !self.live_node(n) {
                        return Outcome::NotFound;
                    }
                    let clash = self.unique.iter().any(|(l, uk)| {
                        uk == key
                            && self.nodes[n].labels.contains(l)
                            && self.taken(l, key, &value, Some(n))
                    });
                    if clash {
                        return Outcome::Constraint;
                    }
                    set_first(&mut self.nodes[n].props, key, value);
                    Outcome::Ok(None)
                }
                Op::SetEdgeProp(e, k, v) => match self.edges.get_mut(edge_ix(*e)) {
                    Some(e) if e.alive => {
                        set_first(&mut e.props, KEYS[*k], num(*v));
                        Outcome::Ok(None)
                    }
                    _ => Outcome::NotFound,
                },
                Op::AddNodeLabel(n, l) => {
                    let (n, label) = (node_ix(*n), NODE_LABELS[*l]);
                    if !self.live_node(n) {
                        return Outcome::NotFound;
                    }
                    if self.nodes[n].labels.iter().any(|x| x == label) {
                        return Outcome::Ok(None);
                    }
                    let clash = self.unique.iter().any(|(ul, k)| {
                        ul == label
                            && first(&self.nodes[n].props, k)
                                .is_some_and(|v| self.taken(label, k, v, Some(n)))
                    });
                    if clash {
                        return Outcome::Constraint;
                    }
                    self.nodes[n].labels.push(label.to_string());
                    self.index_label(label, n);
                    Outcome::Ok(None)
                }
                Op::AddUnique(l, k) => {
                    let (label, key) = (NODE_LABELS[*l], KEYS[*k]);
                    let values: Vec<&Value> = self
                        .nodes
                        .iter()
                        .filter(|n| n.alive && n.labels.iter().any(|x| x == label))
                        .filter_map(|n| first(&n.props, key))
                        .collect();
                    let dup = values
                        .iter()
                        .enumerate()
                        .any(|(i, v)| values[..i].contains(v));
                    if dup {
                        return Outcome::Constraint;
                    }
                    let c = (label.to_string(), key.to_string());
                    if !self.unique.contains(&c) {
                        self.unique.push(c);
                    }
                    Outcome::Ok(None)
                }
                Op::FreshOid => {
                    self.mint();
                    Outcome::Ok(None)
                }
                Op::FreshOids(n) => {
                    let first = self.minted + 1;
                    self.minted += n;
                    Outcome::Ok(Some(first as u32))
                }
            }
        }
    }

    fn apply_graph(g: &mut PropertyGraph, m: &Model, op: &Op) -> Outcome {
        let node = |n: usize| NodeId((n % (m.nodes.len() + 1)) as u32);
        let edge = |e: usize| EdgeId((e % (m.edges.len() + 1)) as u32);
        let props = |ps: &[(usize, Num)]| -> Vec<(String, Value)> {
            ps.iter()
                .map(|&(k, v)| (KEYS[k].to_string(), num(v)))
                .collect()
        };
        match op {
            Op::AddNode(labels, ps) => {
                let labels = labels.iter().map(|&l| NODE_LABELS[l]);
                outcome(g.add_node(labels, props(ps)), |id| Some(id.0))
            }
            Op::AddEdge(f, t, l, ps) => outcome(
                g.add_edge(node(*f), node(*t), EDGE_LABELS[*l], props(ps)),
                |id| Some(id.0),
            ),
            Op::RemoveEdge(e) => outcome(g.remove_edge(edge(*e)), |_| None),
            Op::RemoveNode(n) => outcome(g.remove_node(node(*n)), |_| None),
            Op::SetNodeProp(n, k, v) => {
                outcome(g.set_node_prop(node(*n), KEYS[*k], num(*v)), |_| None)
            }
            Op::SetEdgeProp(e, k, v) => {
                outcome(g.set_edge_prop(edge(*e), KEYS[*k], num(*v)), |_| None)
            }
            Op::AddNodeLabel(n, l) => {
                outcome(g.add_node_label(node(*n), NODE_LABELS[*l]), |_| None)
            }
            Op::AddUnique(l, k) => {
                outcome(g.add_unique_constraint(NODE_LABELS[*l], KEYS[*k]), |_| None)
            }
            Op::FreshOid => {
                g.fresh_oid();
                Outcome::Ok(None)
            }
            Op::FreshOids(n) => Outcome::Ok(Some(g.fresh_oids(*n).payload() as u32)),
        }
    }

    /// Every read accessor of `g` against the model, removed elements
    /// included: a removed element keeps its record in both.
    fn same_reads(g: &PropertyGraph, m: &Model) -> std::result::Result<(), CaseError> {
        let live_nodes: Vec<NodeId> = (0..m.nodes.len())
            .filter(|&i| m.nodes[i].alive)
            .map(|i| NodeId(i as u32))
            .collect();
        let live_edges: Vec<EdgeId> = (0..m.edges.len())
            .filter(|&i| m.edges[i].alive)
            .map(|i| EdgeId(i as u32))
            .collect();
        prop_assert_eq!(g.node_count(), live_nodes.len());
        prop_assert_eq!(g.node_slots(), m.nodes.len());
        prop_assert_eq!(g.edge_count(), live_edges.len());
        prop_assert_eq!(g.nodes().collect::<Vec<_>>(), live_nodes);
        prop_assert_eq!(g.edges().collect::<Vec<_>>(), live_edges);
        let sym = |s: &str| {
            g.interner()
                .get(s)
                .expect("every name in the model is interned")
        };
        for (i, n) in m.nodes.iter().enumerate() {
            let id = NodeId(i as u32);
            prop_assert_eq!(g.is_live_node(id), n.alive);
            prop_assert_eq!(g.node_oid(id), Oid::ground(n.oid));
            prop_assert_eq!(g.node_labels(id), n.labels.clone());
            let syms: Vec<Symbol> = n.labels.iter().map(|l| sym(l)).collect();
            prop_assert_eq!(g.node_label_syms(id), &syms[..]);
            for l in NODE_LABELS {
                prop_assert_eq!(g.node_has_label(id, l), n.labels.iter().any(|x| x == l));
            }
            prop_assert_eq!(g.node_props(id), n.props.clone());
            for k in KEYS {
                prop_assert_eq!(g.node_prop(id, k), first(&n.props, k));
            }
            let live = |es: &[usize]| -> Vec<EdgeId> {
                es.iter()
                    .filter(|&&e| m.edges[e].alive)
                    .map(|&e| EdgeId(e as u32))
                    .collect()
            };
            let (out, inc) = (live(&n.out), live(&n.inc));
            let both: Vec<EdgeId> = out.iter().chain(&inc).copied().collect();
            prop_assert_eq!(g.incident_edges(id, Direction::Outgoing), out.clone());
            prop_assert_eq!(g.incident_edges(id, Direction::Incoming), inc.clone());
            prop_assert_eq!(g.incident_edges(id, Direction::Both), both.clone());
            let other = |e: &EdgeId| {
                let me = &m.edges[e.0 as usize];
                NodeId(if me.from == i { me.to } else { me.from } as u32)
            };
            for (dir, es) in [
                (Direction::Outgoing, &out),
                (Direction::Incoming, &inc),
                (Direction::Both, &both),
            ] {
                prop_assert_eq!(
                    g.neighbors(id, dir),
                    es.iter().map(other).collect::<Vec<_>>()
                );
            }
            prop_assert_eq!(g.degree(id), (out.len(), inc.len()));
        }
        for (i, e) in m.edges.iter().enumerate() {
            let id = EdgeId(i as u32);
            prop_assert_eq!(g.is_live_edge(id), e.alive);
            prop_assert_eq!(g.edge_oid(id), Oid::ground(e.oid));
            prop_assert_eq!(g.edge_label(id), e.label.clone());
            prop_assert_eq!(g.edge_label_sym(id), sym(&e.label));
            prop_assert_eq!(
                g.edge_endpoints(id),
                (NodeId(e.from as u32), NodeId(e.to as u32))
            );
            prop_assert_eq!(g.edge_props(id), e.props.clone());
            for k in KEYS {
                prop_assert_eq!(g.edge_prop(id, k), first(&e.props, k));
            }
        }
        for l in NODE_LABELS {
            let want: Vec<NodeId> = m
                .label_index
                .iter()
                .filter(|(x, _)| x == l)
                .flat_map(|(_, ids)| ids)
                .filter(|&&n| m.nodes[n].alive)
                .map(|&n| NodeId(n as u32))
                .collect();
            prop_assert_eq!(g.nodes_with_label(l), want);
        }
        for l in EDGE_LABELS {
            let want: Vec<EdgeId> = live_edges
                .iter()
                .copied()
                .filter(|e| m.edges[e.0 as usize].label == l)
                .collect();
            prop_assert_eq!(g.edges_with_label(l), want);
        }
        // Every OID minted so far, live, removed or a `fresh_oid` gap, one
        // past them, and the same payloads in the other two spaces.
        for payload in 0..=m.minted + 1 {
            let node = m.nodes.iter().position(|n| n.alive && n.oid == payload);
            let edge = m.edges.iter().position(|e| e.alive && e.oid == payload);
            let oid = Oid::ground(payload);
            prop_assert_eq!(g.node_by_oid(oid), node.map(|i| NodeId(i as u32)));
            prop_assert_eq!(g.edge_by_oid(oid), edge.map(|i| EdgeId(i as u32)));
            for space in [OidSpace::Null, OidSpace::Skolem] {
                prop_assert_eq!(g.node_by_oid(Oid::new(space, payload)), None);
                prop_assert_eq!(g.edge_by_oid(Oid::new(space, payload)), None);
            }
        }
        let mut unique = m.unique.clone();
        unique.sort();
        prop_assert_eq!(g.unique_constraints(), unique);
        Ok(())
    }

    /// Runs `ops` against a graph and the model, comparing every outcome
    /// and then every read. Reports whether an adjacency segment moved.
    fn graph_matches_model(ops: &[Op]) -> std::result::Result<bool, CaseError> {
        let (mut g, mut m) = (PropertyGraph::new(), Model::default());
        for op in ops {
            let got = apply_graph(&mut g, &m, op);
            let want = m.apply(op);
            prop_assert!(got == want, "{op:?}: graph {got:?}, model {want:?}");
            same_reads(&g, &m)?;
        }
        let live_slots = |lens: &mut dyn Iterator<Item = u32>| -> usize {
            lens.map(|l| {
                if l == 0 {
                    0
                } else {
                    (l as usize).next_power_of_two()
                }
            })
            .sum()
        };
        let out = live_slots(&mut g.nodes.iter().map(|n| n.out_len));
        let inc = live_slots(&mut g.nodes.iter().map(|n| n.inc_len));
        prop_assert!(g.out.len() < 2 * out.max(1) && g.inc.len() < 2 * inc.max(1));
        Ok(g.out.len() > out || g.inc.len() > inc)
    }

    #[test]
    fn arena_layout_matches_a_vec_per_element_model() {
        let moved = std::cell::Cell::new(0);
        check(
            "arena_layout_matches_a_vec_per_element_model",
            &Config::with_cases(64),
            gen_graph_ops,
            |ops| shrink_vec(ops),
            |ops| {
                moved.set(moved.get() + graph_matches_model(ops)? as usize);
                Ok(())
            },
        );
        assert!(moved.get() > 0, "no case moved an adjacency segment");
    }
}
