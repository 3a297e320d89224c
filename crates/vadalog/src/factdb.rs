//! Columnar fact storage for the chase engine.
//!
//! Tuples are packed through a [`ValuePool`] into `u64` *cells* and stored
//! as flat per-column arrays — one `Vec<u64>` per attribute — instead of the
//! row-oriented `Vec<Vec<Value>>` of earlier revisions. A cell holds an OID
//! itself and any other value as a pool id; only the pool reads a cell's
//! bits. Three structures hang off each relation:
//!
//! - **Columns** (`cols[p][row]`): the cell of attribute `p` in tuple `row`.
//!   Insertion order is the row order, so semi-naive delta ranges are still
//!   plain index ranges.
//! - **Tuple dedup**: a [`SlotTable`] from the class-cell tuple hash to the
//!   row, whose equality test reads the row back from the columns, so no
//!   tuple and no hash is stored a second time. It replaces the
//!   `FxHashSet<Vec<Value>>` that used to store every tuple twice.
//! - **Join indexes**: per key-position set, the ascending rows of every
//!   distinct key, built incrementally by the single writer via
//!   [`Relation::ensure_index`] for the join orders an iteration evaluates,
//!   and *reused across semi-naive iterations* — `built_upto` records how
//!   far an index reaches, so a catch-up only folds in the rows added since
//!   instead of rebuilding. An index starts *unique*: while no key repeats,
//!   it is a [`SlotTable`] from the key hash to the key's one row, compared
//!   on the columns, and nothing else. The first repeated key rebuilds it
//!   once in the *segment* layout: the slot table finds a key's dense id by
//!   comparing with the key's first row, and each key's rows are one
//!   contiguous segment of a single `u32` arena per index
//!   ([`SegmentArena`], shared with the property graph's adjacency). Either
//!   way an index allocates O(log keys) times, never per key.
//!
//! Cells are two-level (see [`ValuePool`]): columns store **exact cells** so
//! tuples read back with the representation they were inserted with, while
//! row hashes, dedup comparisons and index keys use **class cells** — the
//! [`Value`]-equality classes under which `Int(1) == Float(1.0)` — so the
//! columnar store deduplicates and joins exactly like its row-oriented
//! `FxHashSet<Vec<Value>>` predecessor. An OID is its own class, so the hot
//! loops map a cell to its class through the pool's [`Classes`] view
//! without a table read for OIDs. A frozen `FactDb` is `Sync`; shard
//! workers probe columns, dedup table and posting lists concurrently without
//! locks.
//!
//! **Tombstones (incremental maintenance).** Deletion never compacts: a
//! deleted fact keeps its row — and therefore its [`FactId`] — forever, but
//! is marked dead in a per-relation bitmap. Dead rows are invisible to dedup
//! probes ([`FactDb::contains`] / [`FactDb::find_id`]), to `lookup`
//! candidates, to fact iteration, and to the live counts ([`FactDb::len`],
//! [`FactDb::total_facts`]); the physical row space — which the engine's
//! semi-naive watermarks and delta ranges are defined over — stays reachable
//! through `rows_of`. A tombstoned row never matches a dedup probe again (the
//! dedup table drops it when it next grows), so re-inserting the same tuple
//! appends a fresh row under a fresh id: ids name insertion events, not
//! tuples.

use kgm_common::pool::Classes;
use kgm_common::{
    FxHashMap, FxHashSet, FxHasher, KgmError, Result, SegmentArena, SlotTable, Value, ValuePool,
};
use std::hash::Hasher;
use std::ops::Range;

/// Dense identity of one stored fact: the owning relation's predicate id in
/// the high 32 bits, the row index in the low 32. Ids are stable for the
/// lifetime of the database (rows are never *reused* — deletion tombstones a
/// row but never reassigns its index) and cheap to hand to the provenance
/// layer — packing beats a `(String, usize)` pair on both size and hash
/// cost. The packing caps a database at [`MAX_PREDICATES`] relations of
/// [`MAX_ROWS_PER_RELATION`] rows each; inserts beyond either cap fail with
/// [`KgmError::ResourceExhausted`] instead of silently truncating the id.
pub type FactId = u64;

/// Hard row cap per relation implied by the 32-bit row half of [`FactId`].
/// Rows are the dedup table's [`SlotTable`] ids, which stop one short of
/// `2^32` ([`SlotTable::MAX_IDS`]), so the cap does too.
pub const MAX_ROWS_PER_RELATION: usize = u32::MAX as usize;

/// Hard predicate cap implied by the 32-bit predicate half of [`FactId`].
pub const MAX_PREDICATES: usize = u32::MAX as usize;

/// Reject the insertion of row number `rows` (0-based count so far) into
/// `predicate` once the [`FactId`] row space is exhausted.
fn guard_row_capacity(predicate: &str, rows: usize) -> Result<()> {
    if rows >= MAX_ROWS_PER_RELATION {
        return Err(KgmError::ResourceExhausted(format!(
            "relation `{predicate}` is full: {rows} rows exhaust the 32-bit FactId row space"
        )));
    }
    Ok(())
}

/// Reject the creation of predicate number `count` (0-based count so far)
/// once the [`FactId`] predicate space is exhausted.
fn guard_pred_capacity(count: usize) -> Result<()> {
    if count >= MAX_PREDICATES {
        return Err(KgmError::ResourceExhausted(format!(
            "predicate limit reached: {count} relations exhaust the 32-bit FactId predicate space"
        )));
    }
    Ok(())
}

/// Test a bit in a lazily-sized bitmap (absent words read as zero).
#[inline]
fn bit_get(bits: &[u64], i: usize) -> bool {
    bits.get(i >> 6).is_some_and(|w| (w >> (i & 63)) & 1 == 1)
}

/// Set a bit in a lazily-sized bitmap, growing it on demand.
#[inline]
fn bit_set(bits: &mut Vec<u64>, i: usize) {
    let w = i >> 6;
    if bits.len() <= w {
        bits.resize(w + 1, 0);
    }
    bits[w] |= 1 << (i & 63);
}

/// Clear a bit in a lazily-sized bitmap (absent words already read as zero).
fn bit_clear(bits: &mut [u64], i: usize) {
    if let Some(w) = bits.get_mut(i >> 6) {
        *w &= !(1 << (i & 63));
    }
}

/// Pack a `(predicate id, row)` pair into a [`FactId`].
#[inline]
pub fn fact_id(pred: u32, row: u32) -> FactId {
    ((pred as u64) << 32) | row as u64
}

/// The predicate id of a [`FactId`].
#[inline]
pub fn fact_pred(id: FactId) -> u32 {
    (id >> 32) as u32
}

/// The row index of a [`FactId`].
#[inline]
pub fn fact_row(id: FactId) -> u32 {
    id as u32
}

/// Why-provenance edges for derived facts: one `(rule, parents[])` record
/// per fact id, arena-packed so a multi-million-edge chase costs two flat
/// `Vec`s plus one map entry per derived fact.
///
/// The store follows *first-derivation-wins* semantics: the edge recorded
/// is the one for the firing that actually inserted the fact, and later
/// re-derivations never overwrite it. Because the chase inserts facts in a
/// deterministic order (bit-identical at any thread count), the recorded
/// edges are equally deterministic — and every parent id refers to a fact
/// inserted *before* its child, so the edge relation is acyclic and
/// explanation trees always terminate.
#[derive(Default)]
pub struct ProvStore {
    /// fact id → (rule id, start, len) into `parents`.
    index: FxHashMap<FactId, (u32, u32, u32)>,
    /// Parent-id arena; each edge owns one contiguous slice.
    parents: Vec<FactId>,
    /// Scratch set for per-edge parent dedup (kept to avoid re-allocation).
    scratch: FxHashSet<FactId>,
}

impl ProvStore {
    /// Record the derivation edge of `fact` unless one exists already
    /// (first derivation wins). Duplicate parents are dropped, preserving
    /// first-occurrence order — a fact matched by two body atoms is one
    /// parent.
    pub fn record(&mut self, fact: FactId, rule: u32, parents: &[FactId]) {
        if self.index.contains_key(&fact) {
            return;
        }
        let start = self.parents.len() as u32;
        self.scratch.clear();
        for &p in parents {
            if self.scratch.insert(p) {
                self.parents.push(p);
            }
        }
        let len = self.parents.len() as u32 - start;
        self.index.insert(fact, (rule, start, len));
    }

    /// The `(rule, parents)` edge of `fact`, if one was recorded.
    pub fn edge(&self, fact: FactId) -> Option<(u32, &[FactId])> {
        let &(rule, start, len) = self.index.get(&fact)?;
        Some((rule, &self.parents[start as usize..(start + len) as usize]))
    }

    /// Number of recorded edges (= derived facts with provenance).
    pub fn edges(&self) -> usize {
        self.index.len()
    }

    /// Total parent references across all edges.
    pub fn parent_refs(&self) -> usize {
        self.parents.len()
    }

    /// Drop the edge of `fact` — a tombstoned fact must not explain anything
    /// anymore, nor an asserted one. The parent slice stays behind as arena
    /// garbage: deletion batches are small relative to the arena, and the
    /// wholesale over-deletion calls [`ProvStore::clear`] instead.
    pub(crate) fn remove(&mut self, fact: FactId) {
        self.index.remove(&fact);
    }

    /// Forget every edge and reset the arena (used when every derived row
    /// is tombstoned).
    pub(crate) fn clear(&mut self) {
        self.index.clear();
        self.parents.clear();
    }

    /// Iterate all recorded edges as `(child, parents)` pairs, in no
    /// particular order. The DRed over-deletion pass builds its reverse
    /// adjacency from this.
    pub(crate) fn edges_iter(&self) -> impl Iterator<Item = (FactId, &[FactId])> + '_ {
        self.index.iter().map(move |(&fact, &(_, start, len))| {
            (fact, &self.parents[start as usize..(start + len) as usize])
        })
    }

    /// Heap footprint: the parent arena, the index map, and the scratch
    /// dedup set. The scratch set grows to the widest edge ever recorded
    /// and previously went uncounted; set slots cost the 8-byte key plus
    /// hashbrown's control byte and capacity slack, folded into a flat 9
    /// bytes (the map idiom from `ValuePool::approx_bytes`).
    fn approx_bytes(&self) -> usize {
        self.parents.capacity() * 8
            + self.index.capacity() * (8 + 12 + 8)
            + self.scratch.capacity() * 9
    }
}

/// Hash of a class-cell key: a whole tuple for dedup, the key positions for
/// a join index. Build and probe sides gather the ids differently, so the
/// hash takes any iterator of them.
fn hash_ids(ids: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = FxHasher::default();
    for id in ids {
        h.write_u64(id);
    }
    h.finish()
}

/// The class-cell key of `row` at `positions`.
#[inline]
fn key_at<'a>(
    positions: &'a [usize],
    cols: &'a [Vec<u64>],
    class: Classes<'a>,
    row: usize,
) -> impl Iterator<Item = u64> + 'a {
    positions.iter().map(move |&p| class.of(cols[p][row]))
}

/// One join index: every distinct class-cell key at its positions → the
/// key's rows, ascending.
///
/// Nothing is allocated per key, and no key is stored: `keys` is a
/// [`SlotTable`] over key hashes whose equality test reads a row back from
/// the columns (rows never move, and a tombstoned row keeps its values).
/// An index has one of two layouts:
///
/// - **Unique**, where every index starts: no key has repeated, so `keys`
///   maps each key to its one row and the slot table is the whole index.
/// - **Segments**: the first repeated key rebuilds the index from row 0,
///   once. `keys` then maps a key to a dense key id, tested through the
///   key's first row, and key `k`'s rows are the segment of `len[k]`
///   postings at `start[k]` in a [`SegmentArena`] — the same arena type the
///   property graph keeps its adjacency in — which stays under twice its
///   live slots without compaction.
#[derive(Default)]
struct Index {
    /// Key hash → the key's row (unique) or its key id (segments).
    keys: SlotTable,
    /// Arena offset of each key's segment; empty while unique. `u64`,
    /// because the arena can outgrow the 32-bit row space: up to four
    /// slots per row.
    start: Vec<u64>,
    /// Rows in each key's segment (at least one); empty while unique.
    len: Vec<u32>,
    postings: SegmentArena,
    /// Rows `0..built_upto` are reflected in the index; the tail is not.
    built_upto: usize,
}

impl Index {
    /// True in the unique layout. A segment index always has a key: the
    /// rebuild that made it covered two rows holding one.
    #[inline]
    fn is_unique(&self) -> bool {
        self.len.is_empty()
    }

    /// The rows of key id `k`, ascending (segment layout).
    #[inline]
    fn segment(&self, k: u32) -> &[u32] {
        self.postings
            .segment(self.start[k as usize], self.len[k as usize])
    }

    /// The indexed rows in `range` of the key under `hash`, ascending;
    /// `same_key` tests a row for holding that key.
    fn rows(
        &self,
        hash: u64,
        mut same_key: impl FnMut(usize) -> bool,
        range: Range<usize>,
    ) -> Rows<'_> {
        if self.is_unique() {
            return Rows::Range(match self.keys.find(hash, |r| same_key(r as usize)) {
                Some(r) if range.contains(&(r as usize)) => r..r + 1,
                _ => 0..0,
            });
        }
        let v = self
            .keys
            .find(hash, |k| same_key(self.segment(k)[0] as usize))
            .map_or(&[][..], |k| self.segment(k));
        let lo = v.partition_point(|&i| (i as usize) < range.start);
        let up = v.partition_point(|&i| (i as usize) < range.end);
        Rows::Slice(v[lo..up].iter())
    }

    /// Fold rows `built_upto..rows` into the index. In the unique layout,
    /// the first row whose key an indexed row already holds rebuilds the
    /// index in the segment layout from row 0.
    fn catch_up(&mut self, positions: &[usize], cols: &[Vec<u64>], class: Classes, rows: usize) {
        let key = |row: usize| key_at(positions, cols, class, row);
        for row in self.built_upto..rows {
            let h = hash_ids(key(row));
            if self.is_unique() {
                if self
                    .keys
                    .find(h, |r| key(r as usize).eq(key(row)))
                    .is_none()
                {
                    self.keys.insert(h, row as u32);
                    continue;
                }
                self.keys = SlotTable::default();
                for earlier in 0..row {
                    self.add(hash_ids(key(earlier)), earlier, key);
                }
            }
            self.add(h, row, key);
        }
        self.built_upto = rows;
    }

    /// Append `row`, whose key hashes to `h`, to its key's segment, or open
    /// a segment for a new key (segment layout).
    fn add<K: Iterator<Item = u64>>(&mut self, h: u64, row: usize, key: impl Fn(usize) -> K) {
        let same_key = |k: u32| key(self.segment(k)[0] as usize).eq(key(row));
        match self.keys.find(h, same_key) {
            Some(k) => {
                let k = k as usize;
                self.postings
                    .push(&mut self.start[k], &mut self.len[k], row as u32);
            }
            None => {
                // At most one key per row, so key ids stay under the row
                // cap and hence under `SlotTable::MAX_IDS`.
                self.keys.insert(h, self.len.len() as u32);
                let (mut start, mut len) = (0, 0);
                self.postings.push(&mut start, &mut len, row as u32);
                self.start.push(start);
                self.len.push(len);
            }
        }
    }

    /// Heap bytes, from the capacities of the slot table and the three
    /// arrays.
    fn approx_bytes(&self) -> usize {
        self.keys.approx_bytes()
            + self.start.capacity() * 8
            + self.len.capacity() * 4
            + self.postings.approx_bytes()
    }
}

/// Candidate rows produced by [`Relation::lookup`], ascending. Borrows the
/// postings when the index fully covers the probe, so the hot join path
/// allocates nothing per probe, and skips tombstoned rows as it reaches
/// them, so a relation with dead rows does not allocate either.
pub(crate) struct Candidates<'a> {
    rows: Rows<'a>,
    /// The relation's tombstone bitmap; empty until a row dies, so a
    /// tombstone-free relation tests nothing but the slice length.
    dead: &'a [u64],
}

/// Where [`Candidates`] come from, dead rows included.
enum Rows<'a> {
    Range(Range<u32>),
    Slice(std::slice::Iter<'a, u32>),
    Owned(std::vec::IntoIter<u32>),
}

impl Iterator for Rows<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        match self {
            Rows::Range(r) => r.next(),
            Rows::Slice(it) => it.next().copied(),
            Rows::Owned(it) => it.next(),
        }
    }
}

impl Iterator for Candidates<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        let dead = self.dead;
        self.rows.find(|&row| !bit_get(dead, row as usize))
    }
}

/// One predicate's extension in columnar form.
///
/// Methods that compare or key rows take `class` — the pool's exact cell →
/// class cell view ([`ValuePool::classes`]) — because the columns hold
/// exact cells while equality is defined on classes.
pub(crate) struct Relation {
    pub(crate) arity: usize,
    /// Dense predicate id (creation order), the high half of this
    /// relation's [`FactId`]s.
    pub(crate) pred_id: u32,
    /// `cols[p][row]` = exact cell of attribute `p` of tuple `row`.
    cols: Vec<Vec<u64>>,
    /// Physical row count; an arity-0 relation has no column to measure.
    rows: usize,
    /// Dedup index: class-cell tuple hash → row, compared on the columns.
    table: SlotTable,
    indexes: FxHashMap<Vec<usize>, Index>,
    /// Tombstone bitmap (lazily sized): dead rows stay physically present
    /// but are invisible to probes, lookups, iteration and live counts.
    dead: Vec<u64>,
    /// Number of set bits in `dead`.
    dead_rows: usize,
    /// Rows inserted by rule firings (as opposed to loaded EDB facts); the
    /// incremental-update fallback tombstones exactly these.
    derived: Vec<u64>,
}

impl Relation {
    fn new(arity: usize, pred_id: u32) -> Self {
        Relation {
            arity,
            pred_id,
            cols: (0..arity).map(|_| Vec::new()).collect(),
            rows: 0,
            table: SlotTable::default(),
            indexes: FxHashMap::default(),
            dead: Vec::new(),
            dead_rows: 0,
            derived: Vec::new(),
        }
    }

    /// Number of physical rows, dead ones included. Delta ranges, watermarks
    /// and [`FactId`] rows are defined over this space.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of live (non-tombstoned) tuples.
    pub(crate) fn live(&self) -> usize {
        self.rows - self.dead_rows
    }

    /// True if `row` is tombstoned.
    #[inline]
    pub(crate) fn is_dead(&self, row: usize) -> bool {
        self.dead_rows > 0 && bit_get(&self.dead, row)
    }

    /// Tombstone `row`; returns `false` if it already was dead.
    fn mark_dead(&mut self, row: usize) -> bool {
        if bit_get(&self.dead, row) {
            return false;
        }
        bit_set(&mut self.dead, row);
        self.dead_rows += 1;
        true
    }

    /// True if `row` was marked as rule-derived.
    #[inline]
    fn is_derived_row(&self, row: usize) -> bool {
        bit_get(&self.derived, row)
    }

    /// The id at `(row, col)`.
    #[inline]
    pub(crate) fn id_at(&self, row: usize, col: usize) -> u64 {
        self.cols[col][row]
    }

    /// The exact cells of column `col`, one per physical row.
    pub(crate) fn column(&self, col: usize) -> &[u64] {
        &self.cols[col]
    }

    /// Row index of a *live* tuple given its packed **class-cell** key and
    /// that key's hash, if present. A dead row matching the key does not
    /// end the probe — a live re-insert of the same tuple may sit in a
    /// later slot.
    fn find(&self, h: u64, key: &[u64], class: Classes) -> Option<u32> {
        self.table.find(h, |r| {
            let row = r as usize;
            self.cols
                .iter()
                .zip(key)
                .all(|(c, &k)| class.of(c[row]) == k)
                && !self.is_dead(row)
        })
    }

    /// Append a row known (by the caller) to be absent and under the row
    /// cap; `h` is its class-cell tuple hash. Tombstoned rows drop out of
    /// the dedup table when this insert grows it.
    fn append_row(&mut self, h: u64, ids: &[u64]) {
        debug_assert!(self.rows < MAX_ROWS_PER_RELATION);
        let dead = &self.dead;
        self.table
            .insert_keeping(h, self.rows as u32, |r| !bit_get(dead, r as usize));
        self.rows += 1;
        for (c, &id) in self.cols.iter_mut().zip(ids) {
            c.push(id);
        }
    }

    /// Create (or catch up) the join index over `positions` so that
    /// subsequent [`Relation::lookup`]s on that key set are O(hits). Called
    /// by the single writer before the join orders that probe the index
    /// run; between calls the index is reused as-is by every shard worker.
    pub(crate) fn ensure_index(&mut self, positions: &[usize], class: Classes) {
        if positions.is_empty() {
            return;
        }
        let idx = self.indexes.entry(positions.to_vec()).or_default();
        idx.catch_up(positions, &self.cols, class, self.rows);
    }

    /// Live rows matching the packed **class-cell** `key` at `positions`,
    /// restricted to `range`, ascending. Read-only: where the index covers
    /// the whole range, the key's one row (unique layout) or a borrowed
    /// sub-slice of its postings (segment layout: postings are ascending, so
    /// the range restriction is two binary searches) comes back; the
    /// unindexed tail is scanned linearly. The index covers dead rows too:
    /// deletion does not rebuild it, the returned [`Candidates`] skip dead
    /// rows instead.
    pub(crate) fn lookup(
        &self,
        positions: &[usize],
        key: &[u64],
        range: &Range<usize>,
        class: Classes,
    ) -> Candidates<'_> {
        let skip_dead = |rows| Candidates {
            rows,
            dead: &self.dead,
        };
        let hi = range.end.min(self.rows);
        if positions.is_empty() {
            return skip_dead(Rows::Range(range.start as u32..hi as u32));
        }
        let (hits, indexed_upto) = match self.indexes.get(positions) {
            Some(idx) => {
                let same_key =
                    |rep| key_at(positions, &self.cols, class, rep).eq(key.iter().copied());
                let covered = range.start..hi.min(idx.built_upto);
                let hash = hash_ids(key.iter().copied());
                (idx.rows(hash, same_key, covered), idx.built_upto)
            }
            None => (Rows::Range(0..0), 0),
        };
        let tail_start = range.start.max(indexed_upto);
        if tail_start >= hi {
            // Fully covered by the index: no allocation.
            return skip_dead(hits);
        }
        let mut out: Vec<u32> = hits.collect();
        for i in tail_start..hi {
            if key_at(positions, &self.cols, class, i).eq(key.iter().copied()) {
                out.push(i as u32);
            }
        }
        skip_dead(Rows::Owned(out.into_iter()))
    }

    /// Heap footprint of this relation, from capacities: columns, the dedup
    /// table, the index map and every index, and the bitmaps.
    fn approx_bytes(&self) -> usize {
        let cols: usize = self.cols.iter().map(|c| c.capacity() * 8).sum();
        let index_slots =
            self.indexes.capacity() * (std::mem::size_of::<(Vec<usize>, Index)>() + 1);
        let indexes: usize = self
            .indexes
            .iter()
            .map(|(pos, idx)| pos.capacity() * 8 + idx.approx_bytes())
            .sum();
        let bitmaps = (self.dead.capacity() + self.derived.capacity()) * 8;
        cols + self.table.approx_bytes() + index_slots + indexes + bitmaps
    }
}

/// The fact database the engine reads from and writes to.
///
/// Values are packed into cells by a private [`ValuePool`]; all
/// per-relation state is cells and row ids (see the module docs), and the
/// relations sit in a `Vec` indexed by predicate id. The public API still
/// speaks [`Value`]s: iteration materializes tuples on demand (a `Value`
/// clone is at most an `Arc` bump), containment and insertion translate
/// through the pool, and [`FactDb::extend`] streams a loader's rows into
/// one relation. The chase's writer inserts exact cells under a predicate
/// id instead ([`FactDb::insert_cells`]).
#[derive(Default)]
pub struct FactDb {
    pool: ValuePool,
    /// Relations in creation order; index = [`Relation::pred_id`].
    rels: Vec<Relation>,
    /// Predicate names in creation order, aligned with `rels`.
    pred_names: Vec<String>,
    /// Predicate name → index into `rels`.
    ids: FxHashMap<String, u32>,
    /// Why-provenance edges, present only when the engine enabled them
    /// (`EngineConfig::provenance`); `None` keeps the hot path free of even
    /// a branch-per-parent cost.
    prov: Option<ProvStore>,
    total: usize,
    scratch: Vec<u64>,
    scratch_class: Vec<u64>,
    /// Resume state the engine persists after materializing this database
    /// (labelled-null keys, monotonic-aggregate accumulators, null counter),
    /// consumed by `Engine::apply_update` to continue the chase instead of
    /// restarting it. Boxed: most databases never run incrementally.
    chase_state: Option<Box<crate::chase_state::ChaseState>>,
}

impl FactDb {
    /// Empty database.
    pub fn new() -> Self {
        FactDb::default()
    }

    /// Insert one fact. Returns `true` if it was new.
    pub fn insert(&mut self, predicate: &str, tuple: Vec<Value>) -> Result<bool> {
        self.insert_ref(predicate, &tuple)
    }

    /// [`FactDb::insert`] without consuming the tuple (values are interned,
    /// so ownership buys nothing).
    pub fn insert_ref(&mut self, predicate: &str, tuple: &[Value]) -> Result<bool> {
        Ok(self.insert_id(predicate, tuple)?.is_some())
    }

    /// Insert one fact and return its [`FactId`] if it was new (`None` for
    /// duplicates). The provenance layer needs the id of a *just-inserted*
    /// fact to key its derivation edge.
    ///
    /// Errors with [`KgmError::ResourceExhausted`] when the insert would
    /// exceed the [`FactId`] packing caps — [`MAX_ROWS_PER_RELATION`] rows
    /// per relation or [`MAX_PREDICATES`] relations — or when a new value
    /// would exceed the pool's [`kgm_common::pool::MAX_POOL_VALUES`]. A
    /// *duplicate* of a stored tuple is still `Ok(None)` at the row cap:
    /// capacity only gates growth.
    pub fn insert_id(&mut self, predicate: &str, tuple: &[Value]) -> Result<Option<FactId>> {
        let pred = self.relation_id(predicate, tuple.len())?;
        self.insert_values(pred, tuple)
    }

    /// The predicate id of `predicate`, creating its relation with `arity`
    /// columns if it has none yet. Creation order numbers the relations,
    /// and so the high half of every [`FactId`].
    pub(crate) fn relation_id(&mut self, predicate: &str, arity: usize) -> Result<u32> {
        // Probe by `&str`: only a new relation allocates its name.
        if let Some(&pred) = self.ids.get(predicate) {
            return Ok(pred);
        }
        guard_pred_capacity(self.rels.len())?;
        let pred = self.rels.len() as u32;
        self.rels.push(Relation::new(arity, pred));
        self.pred_names.push(predicate.to_string());
        self.ids.insert(predicate.to_string(), pred);
        Ok(pred)
    }

    /// Insert `tuple` into relation `pred`, interning its values.
    fn insert_values(&mut self, pred: u32, tuple: &[Value]) -> Result<Option<FactId>> {
        self.check_arity(pred, tuple.len())?;
        let mut cells = std::mem::take(&mut self.scratch);
        cells.clear();
        let interned = tuple.iter().try_for_each(|v| {
            cells.push(self.pool.intern(v)?);
            Ok(())
        });
        let inserted = interned.and_then(|()| self.insert_cells(pred, &cells));
        self.scratch = cells;
        inserted
    }

    /// Insert the row of **exact cells** `cells` into relation `pred` (a
    /// [`FactDb::relation_id`]) and return its [`FactId`] if it was new.
    /// The chase's writer inserts its head rows through this: their cells
    /// were read from this store's columns or interned in its pool, so the
    /// row is neither looked up by name nor interned again. Errors as
    /// [`FactDb::insert_id`] does.
    pub(crate) fn insert_cells(&mut self, pred: u32, cells: &[u64]) -> Result<Option<FactId>> {
        self.check_arity(pred, cells.len())?;
        let classes = self.pool.classes();
        self.scratch_class.clear();
        self.scratch_class
            .extend(cells.iter().map(|&c| classes.of(c)));
        let h = hash_ids(self.scratch_class.iter().copied());
        let rel = &mut self.rels[pred as usize];
        if rel.find(h, &self.scratch_class, classes).is_some() {
            return Ok(None);
        }
        guard_row_capacity(&self.pred_names[pred as usize], rel.rows())?;
        rel.append_row(h, cells);
        self.total += 1;
        Ok(Some(fact_id(pred, (rel.rows() - 1) as u32)))
    }

    /// The schema error for a row of `len` values into relation `pred` of
    /// another arity.
    fn check_arity(&self, pred: u32, len: usize) -> Result<()> {
        let arity = self.rels[pred as usize].arity;
        if arity != len {
            return Err(KgmError::Schema(format!(
                "predicate `{}` has arity {arity}, got tuple of length {len}",
                self.pred_names[pred as usize]
            )));
        }
        Ok(())
    }

    /// Intern `v` in the store's pool and return its exact cell, for a
    /// pending cell on its way into a row (see [`kgm_common::pool`]).
    pub(crate) fn intern(&mut self, v: &Value) -> Result<u64> {
        self.pool.intern(v)
    }

    /// Assert an input fact, as an update does: a new tuple is inserted as
    /// by [`FactDb::insert_ref`], and a stored one becomes input, losing its
    /// derived mark and its provenance edge, so it outlives its
    /// derivations. Returns `true` if the tuple was new.
    pub(crate) fn insert_input(&mut self, predicate: &str, tuple: &[Value]) -> Result<bool> {
        let Some(id) = self.find_id(predicate, tuple) else {
            return self.insert_ref(predicate, tuple);
        };
        let rel = &mut self.rels[fact_pred(id) as usize];
        bit_clear(&mut rel.derived, fact_row(id) as usize);
        if let Some(p) = self.prov.as_mut() {
            p.remove(id);
        }
        Ok(false)
    }

    /// Bulk insert.
    pub fn add_facts(&mut self, predicate: &str, tuples: Vec<Vec<Value>>) -> Result<usize> {
        self.extend(predicate, tuples)
    }

    /// Bulk append: insert each row `rows` yields into `predicate`, in
    /// order, looking the relation up once. A loader streams its rows
    /// through this (a row can be an array on the stack) instead of
    /// collecting them first. Returns how many rows were new.
    pub fn extend<R: AsRef<[Value]>>(
        &mut self,
        predicate: &str,
        rows: impl IntoIterator<Item = R>,
    ) -> Result<usize> {
        let (mut pred, mut n) = (None, 0);
        for row in rows {
            let row = row.as_ref();
            let p = match pred {
                Some(p) => p,
                None => *pred.insert(self.relation_id(predicate, row.len())?),
            };
            n += usize::from(self.insert_values(p, row)?.is_some());
        }
        Ok(n)
    }

    /// Snapshot of a predicate's facts (empty if unknown).
    ///
    /// Materializes every tuple; prefer [`FactDb::facts_iter`] when streaming
    /// is enough (post-run result scans, counting, projections).
    pub fn facts(&self, predicate: &str) -> Vec<Vec<Value>> {
        self.facts_iter(predicate).collect()
    }

    /// Streaming view of a predicate's facts, in insertion order (empty if
    /// unknown). Tuples materialize lazily from the columns — one small
    /// allocation per yielded tuple, cheap interned `Value` clones — instead
    /// of the up-front whole-relation clone [`FactDb::facts`] performs.
    pub fn facts_iter(&self, predicate: &str) -> impl Iterator<Item = Vec<Value>> + '_ {
        self.facts_after_iter(predicate, 0)
    }

    /// The facts of `predicate` from index `start` on — used to separate
    /// derived facts from previously loaded input facts.
    ///
    /// Prefer [`FactDb::facts_after_iter`] when streaming is enough.
    pub fn facts_after(&self, predicate: &str, start: usize) -> Vec<Vec<Value>> {
        self.facts_after_iter(predicate, start).collect()
    }

    /// Streaming view of the facts of `predicate` from physical row `start`
    /// on. Tombstoned rows are skipped.
    pub fn facts_after_iter(
        &self,
        predicate: &str,
        start: usize,
    ) -> impl Iterator<Item = Vec<Value>> + '_ {
        let rel = self.rel(predicate);
        let rows = rel.map_or(0, Relation::rows);
        (start.min(rows)..rows)
            .filter(move |&row| !rel.is_some_and(|r| r.is_dead(row)))
            .map(move |row| {
                let rel = rel.expect("rows > 0 implies the relation exists");
                (0..rel.arity)
                    .map(|c| self.pool.get(rel.id_at(row, c)))
                    .collect()
            })
    }

    /// A read-only copy of this store for one serving epoch: columns, dedup
    /// tables, tombstone bitmaps, predicate names and the value pool. The
    /// copy numbers its predicates in name order, so its name list is
    /// sorted. Join indexes, provenance and the chase's resume state stay
    /// behind; reads need none of them. Later inserts, tombstones and index
    /// builds here never reach the copy.
    pub(crate) fn frozen(&self) -> FactDb {
        let pred_names = self.predicates();
        let rels = pred_names
            .iter()
            .enumerate()
            .map(|(pid, name)| {
                let rel = self.rel(name).expect("a listed predicate");
                Relation {
                    arity: rel.arity,
                    pred_id: pid as u32,
                    cols: rel.cols.clone(),
                    rows: rel.rows,
                    table: rel.table.clone(),
                    indexes: FxHashMap::default(),
                    dead: rel.dead.clone(),
                    dead_rows: rel.dead_rows,
                    derived: Vec::new(),
                }
            })
            .collect();
        let ids = pred_names
            .iter()
            .enumerate()
            .map(|(pid, name)| (name.clone(), pid as u32))
            .collect();
        FactDb {
            pool: self.pool.clone(),
            rels,
            pred_names,
            ids,
            total: self.total,
            ..FactDb::default()
        }
    }

    /// Number of live facts for `predicate`.
    pub fn len(&self, predicate: &str) -> usize {
        self.rel(predicate).map_or(0, Relation::live)
    }

    /// Number of *physical* rows of `predicate`, tombstoned ones included.
    /// The engine's semi-naive watermarks and delta ranges run over physical
    /// row indexes, which [`FactDb::len`] no longer exposes once a database
    /// has seen deletions.
    pub(crate) fn rows_of(&self, predicate: &str) -> usize {
        self.rel(predicate).map_or(0, Relation::rows)
    }

    /// True if the database holds no facts at all.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Total live fact count across predicates.
    pub fn total_facts(&self) -> usize {
        self.total
    }

    /// Approximate resident bytes of the store: packed columns, dedup
    /// slots, join indexes, the value pool (including string payloads),
    /// provenance, and the engine's persisted resume state (its
    /// labelled-null and monotonic-aggregate tables). Unlike the old
    /// row-oriented proxy this is real capacity accounting — the
    /// [`crate::EngineConfig::max_bytes`] governor budget tracks actual
    /// allocation within small constant factors (pinned by a regression
    /// test against a counting allocator).
    pub fn approx_bytes(&self) -> usize {
        let rels: usize = self.rels.iter().map(Relation::approx_bytes).sum();
        let prov = self.prov.as_ref().map_or(0, ProvStore::approx_bytes);
        let state = self.chase_state.as_ref().map_or(0, |st| st.approx_bytes());
        rels + prov + state + self.pool.approx_bytes()
    }

    /// Exact containment test. Read-only (never interns): a tuple with any
    /// never-seen value cannot be stored.
    pub fn contains(&self, predicate: &str, tuple: &[Value]) -> bool {
        self.find_id(predicate, tuple).is_some()
    }

    /// The [`FactId`] of a stored fact, if present. Read-only, same probe
    /// as [`FactDb::contains`].
    pub fn find_id(&self, predicate: &str, tuple: &[Value]) -> Option<FactId> {
        let rel = self.rel(predicate)?;
        if rel.arity != tuple.len() {
            return None;
        }
        let mut ids = [0u64; 8];
        let mut idv: Vec<u64>;
        let ids: &mut [u64] = if tuple.len() <= 8 {
            &mut ids[..tuple.len()]
        } else {
            idv = vec![0; tuple.len()];
            &mut idv
        };
        for (slot, v) in ids.iter_mut().zip(tuple) {
            match self.pool.lookup(v) {
                Some(class) => *slot = class,
                None => return None,
            }
        }
        rel.find(hash_ids(ids.iter().copied()), ids, self.pool.classes())
            .map(|row| fact_id(rel.pred_id, row))
    }

    /// Resolve a [`FactId`] back to `(predicate, tuple)`. `None` for ids
    /// that don't name a stored row. Deliberately *physical*: a tombstoned
    /// row still resolves, so deletion passes can read back the tuples they
    /// just removed (e.g. to check which ones were re-derived).
    pub fn fact_values(&self, id: FactId) -> Option<(&str, Vec<Value>)> {
        let pred = self.pred_names.get(fact_pred(id) as usize)?;
        let rel = &self.rels[fact_pred(id) as usize];
        let row = fact_row(id) as usize;
        if row >= rel.rows() {
            return None;
        }
        let tuple = (0..rel.arity)
            .map(|c| self.pool.get(rel.id_at(row, c)))
            .collect();
        Some((pred.as_str(), tuple))
    }

    // -----------------------------------------------------------------
    // Tombstones & incremental-update support
    // -----------------------------------------------------------------

    /// Tombstone the fact `id`: it disappears from probes, lookups,
    /// iteration and counts, and its provenance edge (if any) is dropped.
    /// Returns `false` if the id names no live row (already dead, row out
    /// of range, unknown predicate) — tombstoning is idempotent.
    pub(crate) fn tombstone(&mut self, id: FactId) -> bool {
        let Some(rel) = self.rels.get_mut(fact_pred(id) as usize) else {
            return false;
        };
        let row = fact_row(id) as usize;
        if row >= rel.rows() || !rel.mark_dead(row) {
            return false;
        }
        self.total -= 1;
        if let Some(p) = self.prov.as_mut() {
            p.remove(id);
        }
        true
    }

    /// Mark the fact `id` as rule-derived (as opposed to loaded EDB). The
    /// engine calls this on every successful rule-head insert; the marks
    /// let [`FactDb::tombstone_derived`] wipe exactly the derived portion.
    pub(crate) fn mark_derived(&mut self, id: FactId) {
        if let Some(rel) = self.rels.get_mut(fact_pred(id) as usize) {
            bit_set(&mut rel.derived, fact_row(id) as usize);
        }
    }

    /// Tombstone every row marked derived; returns how many were newly
    /// tombstoned. This is the "rewind to EDB" primitive behind the
    /// incremental update's wholesale over-deletion: what survives is
    /// exactly the input, ready for a full re-derivation. Only derived rows
    /// have provenance edges, so every edge goes too.
    pub(crate) fn tombstone_derived(&mut self) -> usize {
        let mut n = 0;
        for rel in &mut self.rels {
            for row in 0..rel.rows() {
                if rel.is_derived_row(row) && rel.mark_dead(row) {
                    n += 1;
                }
            }
        }
        if let Some(p) = self.prov.as_mut() {
            p.clear();
        }
        self.total -= n;
        n
    }

    /// Store the engine's resume state (overwriting any previous state).
    pub(crate) fn set_chase_state(&mut self, state: crate::chase_state::ChaseState) {
        self.chase_state = Some(Box::new(state));
    }

    /// Take the engine's resume state, leaving `None` behind.
    pub(crate) fn take_chase_state(&mut self) -> Option<Box<crate::chase_state::ChaseState>> {
        self.chase_state.take()
    }

    // -----------------------------------------------------------------
    // Provenance
    // -----------------------------------------------------------------

    /// Turn on why-provenance recording. Facts inserted *before* the call
    /// (and any inserted without an explicit [`FactDb::record_prov`]) stay
    /// edge-less, which is exactly how EDB facts are distinguished from
    /// derived ones.
    pub fn enable_provenance(&mut self) {
        if self.prov.is_none() {
            self.prov = Some(ProvStore::default());
        }
    }

    /// True when [`FactDb::enable_provenance`] was called.
    pub fn provenance_enabled(&self) -> bool {
        self.prov.is_some()
    }

    /// Record the derivation edge of a fact (no-op when provenance is off;
    /// first derivation wins — see [`ProvStore::record`]).
    pub fn record_prov(&mut self, fact: FactId, rule: u32, parents: &[FactId]) {
        if let Some(p) = self.prov.as_mut() {
            p.record(fact, rule, parents);
        }
    }

    /// The `(rule, parents)` derivation edge of a fact. `None` both for EDB
    /// facts and when provenance is off.
    pub fn prov_edge(&self, fact: FactId) -> Option<(u32, &[FactId])> {
        self.prov.as_ref()?.edge(fact)
    }

    /// Number of recorded provenance edges.
    pub fn prov_edges(&self) -> usize {
        self.prov.as_ref().map_or(0, ProvStore::edges)
    }

    /// Total parent references across recorded provenance edges.
    pub fn prov_parent_refs(&self) -> usize {
        self.prov.as_ref().map_or(0, ProvStore::parent_refs)
    }

    /// Iterate all recorded provenance edges as `(child, parents)` pairs
    /// (empty when provenance is off). Order is unspecified.
    pub(crate) fn prov_edges_iter(&self) -> impl Iterator<Item = (FactId, &[FactId])> + '_ {
        self.prov.iter().flat_map(ProvStore::edges_iter)
    }

    /// All predicate names, sorted.
    pub fn predicates(&self) -> Vec<String> {
        let mut v = self.pred_names.clone();
        v.sort();
        v
    }

    /// Build (or catch up) the posting-list index of `predicate` over
    /// `positions`. A no-op for unknown predicates.
    pub(crate) fn ensure_index(&mut self, predicate: &str, positions: &[usize]) {
        if let Some(&pred) = self.ids.get(predicate) {
            self.rels[pred as usize].ensure_index(positions, self.pool.classes());
        }
    }

    /// The columnar relation of `predicate`, for the engine's join loop.
    pub(crate) fn rel(&self, predicate: &str) -> Option<&Relation> {
        self.ids
            .get(predicate)
            .map(|&pred| &self.rels[pred as usize])
    }

    /// Predicate names in creation order: index = [`Relation::pred_id`].
    pub(crate) fn pred_names(&self) -> &[String] {
        &self.pred_names
    }

    /// The value pool, for packing join keys and resolving cells.
    pub(crate) fn pool(&self) -> &ValuePool {
        &self.pool
    }
}

impl std::fmt::Debug for FactDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut preds = self.predicates();
        preds.truncate(16);
        f.debug_struct("FactDb")
            .field("total", &self.total)
            .field("predicates", &preds)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgm_common::{Oid, OidSpace};
    use kgm_runtime::prop::{check, shrink_vec, CaseError, Config};
    use kgm_runtime::{prop_assert_eq, Rng};
    use std::cell::Cell;

    fn ids(
        db: &FactDb,
        pred: &str,
        positions: &[usize],
        key: &[u64],
        range: Range<usize>,
    ) -> Vec<u32> {
        let rel = db.rel(pred).unwrap();
        rel.lookup(positions, key, &range, db.pool().classes())
            .collect()
    }

    #[test]
    fn dedup_matches_value_equality() {
        let mut db = FactDb::new();
        assert!(db.insert("p", vec![Value::Int(1), Value::Int(2)]).unwrap());
        // Float(1.0) == Int(1): the columnar store must reject it like the
        // old row-oriented FxHashSet<Vec<Value>> did.
        assert!(!db
            .insert("p", vec![Value::Float(1.0), Value::Int(2)])
            .unwrap());
        assert!(db.contains("p", &[Value::Float(1.0), Value::Float(2.0)]));
        assert_eq!(db.len("p"), 1);
        assert_eq!(db.facts("p"), vec![vec![Value::Int(1), Value::Int(2)]]);
    }

    #[test]
    fn signed_zeros_dedup_alike_in_either_order() {
        let zeros = [Value::Float(0.0), Value::Float(-0.0), Value::Int(0)];
        for order in [[0, 1, 2], [2, 1, 0]] {
            let mut db = FactDb::new();
            for i in order {
                db.insert("p", vec![zeros[i].clone()]).unwrap();
            }
            assert_eq!(db.len("p"), 1, "insertion order {order:?}");
        }
    }

    #[test]
    fn dedup_table_survives_growth() {
        let mut db = FactDb::new();
        for i in 0..10_000i64 {
            assert!(db
                .insert("p", vec![Value::Int(i), Value::Int(i % 7)])
                .unwrap());
        }
        for i in 0..10_000i64 {
            assert!(!db
                .insert("p", vec![Value::Int(i), Value::Int(i % 7)])
                .unwrap());
            assert!(db.contains("p", &[Value::Int(i), Value::Int(i % 7)]));
        }
        assert!(!db.contains("p", &[Value::Int(3), Value::Int(4)]));
        assert_eq!(db.total_facts(), 10_000);
    }

    #[test]
    fn lookup_index_catches_up_after_inserts() {
        let mut db = FactDb::new();
        db.insert("r", vec![Value::Int(1), Value::Int(10)]).unwrap();
        db.insert("r", vec![Value::Int(2), Value::Int(20)]).unwrap();
        db.ensure_index("r", &[0]);
        // New tuples arrive after the index was built...
        db.insert("r", vec![Value::Int(1), Value::Int(30)]).unwrap();
        let one = db.pool().lookup(&Value::Int(1)).unwrap();
        // ...the unindexed tail is still found by the linear fallback...
        assert_eq!(ids(&db, "r", &[0], &[one], 0..3), vec![0, 2]);
        // ...and catching the index up folds the tail into the postings.
        db.ensure_index("r", &[0]);
        let rel = db.rel("r").unwrap();
        assert!(matches!(
            rel.lookup(&[0], &[one], &(0..3), db.pool().classes()).rows,
            Rows::Slice(_)
        ));
        assert_eq!(ids(&db, "r", &[0], &[one], 0..3), vec![0, 2]);
    }

    #[test]
    fn lookup_range_restricts_delta_evaluation() {
        let mut db = FactDb::new();
        for i in 0..6i64 {
            db.insert("r", vec![Value::Int(i % 2), Value::Int(i)])
                .unwrap();
        }
        db.ensure_index("r", &[0]);
        let zero = db.pool().lookup(&Value::Int(0)).unwrap();
        // Rows with first column 0 sit at 0, 2, 4; the delta range 2..6
        // must drop row 0 — via binary search on the ascending postings.
        assert_eq!(ids(&db, "r", &[0], &[zero], 2..6), vec![2, 4]);
        assert_eq!(ids(&db, "r", &[0], &[zero], 0..6), vec![0, 2, 4]);
        assert_eq!(ids(&db, "r", &[0], &[zero], 5..6), Vec::<u32>::new());
        // An empty key set enumerates the range itself.
        assert_eq!(ids(&db, "r", &[], &[], 2..4), vec![2, 3]);
    }

    #[test]
    fn lookup_keeps_differing_position_sets_isolated() {
        let mut db = FactDb::new();
        db.insert("r", vec![Value::Int(1), Value::Int(2)]).unwrap();
        db.insert("r", vec![Value::Int(2), Value::Int(1)]).unwrap();
        db.ensure_index("r", &[0]);
        db.ensure_index("r", &[1]);
        db.ensure_index("r", &[0, 1]);
        let one = db.pool().lookup(&Value::Int(1)).unwrap();
        let two = db.pool().lookup(&Value::Int(2)).unwrap();
        assert_eq!(ids(&db, "r", &[0], &[one], 0..2), vec![0]);
        assert_eq!(ids(&db, "r", &[1], &[one], 0..2), vec![1]);
        assert_eq!(ids(&db, "r", &[0, 1], &[one, two], 0..2), vec![0]);
        assert_eq!(ids(&db, "r", &[0, 1], &[two, two], 0..2), Vec::<u32>::new());
    }

    #[test]
    fn stored_tuples_keep_their_numeric_representation() {
        // Interning must not bleed representations across tuples: a Float
        // interned first elsewhere must not rewrite a later Int fact (a
        // downstream `mod` would suddenly type-error). Caught originally by
        // the differential fuzzer.
        let mut db = FactDb::new();
        db.insert("a", vec![Value::Float(3.0)]).unwrap();
        db.insert("b", vec![Value::Int(3)]).unwrap();
        assert_eq!(
            db.facts("a")[0][0].value_type(),
            kgm_common::ValueType::Float
        );
        assert_eq!(db.facts("b")[0][0].value_type(), kgm_common::ValueType::Int);
        // Joins and dedup still see them as equal.
        assert!(db.contains("a", &[Value::Int(3)]));
        assert!(!db.insert("b", vec![Value::Float(3.0)]).unwrap());
    }

    #[test]
    fn index_lookups_match_across_numeric_representations() {
        let mut db = FactDb::new();
        db.insert("r", vec![Value::Float(1.0), Value::Int(10)])
            .unwrap();
        db.insert("r", vec![Value::Int(1), Value::Int(20)]).unwrap();
        db.insert("r", vec![Value::Int(2), Value::Int(30)]).unwrap();
        db.ensure_index("r", &[0]);
        // Probing with either representation finds both rows keyed by the
        // shared equality class.
        let k_int = db.pool().lookup(&Value::Int(1)).unwrap();
        let k_float = db.pool().lookup(&Value::Float(1.0)).unwrap();
        assert_eq!(k_int, k_float, "lookup is class-keyed");
        assert_eq!(ids(&db, "r", &[0], &[k_int], 0..3), vec![0, 1]);
    }

    #[test]
    fn facts_iter_variants_stream_in_insertion_order() {
        let mut db = FactDb::new();
        db.add_facts(
            "p",
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(2)],
                vec![Value::Int(3)],
            ],
        )
        .unwrap();
        let all: Vec<Vec<Value>> = db.facts_iter("p").collect();
        assert_eq!(all, db.facts("p"));
        let tail: Vec<Vec<Value>> = db.facts_after_iter("p", 2).collect();
        assert_eq!(tail, vec![vec![Value::Int(3)]]);
        assert_eq!(db.facts_after("p", 1).len(), 2);
        assert_eq!(db.facts_iter("absent").count(), 0);
        assert_eq!(db.facts_after_iter("p", 99).count(), 0);
    }

    #[test]
    fn fact_ids_round_trip_and_dups_return_none() {
        let mut db = FactDb::new();
        let a = db.insert_id("p", &[Value::Int(1)]).unwrap().unwrap();
        let b = db
            .insert_id("q", &[Value::Int(1), Value::Int(2)])
            .unwrap()
            .unwrap();
        let c = db.insert_id("p", &[Value::Int(2)]).unwrap().unwrap();
        assert_eq!(db.insert_id("p", &[Value::Int(1)]).unwrap(), None);
        // Equal-class duplicate is still a duplicate.
        assert_eq!(db.insert_id("p", &[Value::Float(1.0)]).unwrap(), None);
        assert_eq!(db.fact_values(a), Some(("p", vec![Value::Int(1)])));
        assert_eq!(
            db.fact_values(b),
            Some(("q", vec![Value::Int(1), Value::Int(2)]))
        );
        assert_eq!(db.fact_values(c), Some(("p", vec![Value::Int(2)])));
        assert_eq!(db.find_id("p", &[Value::Int(1)]), Some(a));
        assert_eq!(db.find_id("p", &[Value::Float(2.0)]), Some(c));
        assert_eq!(db.find_id("p", &[Value::Int(9)]), None);
        assert_eq!(db.find_id("absent", &[Value::Int(1)]), None);
        assert_eq!(db.fact_values(fact_id(7, 0)), None);
        assert_eq!(db.fact_values(fact_id(fact_pred(a), 99)), None);
        assert_eq!((fact_pred(b), fact_row(b)), (1, 0));
    }

    #[test]
    fn prov_store_first_derivation_wins_and_dedups_parents() {
        let mut db = FactDb::new();
        let e1 = db.insert_id("e", &[Value::Int(1)]).unwrap().unwrap();
        let e2 = db.insert_id("e", &[Value::Int(2)]).unwrap().unwrap();
        assert_eq!(db.prov_edges(), 0, "recording is off by default");
        db.record_prov(e1, 0, &[]);
        assert_eq!(db.prov_edge(e1), None, "record before enable is a no-op");
        db.enable_provenance();
        let d = db.insert_id("d", &[Value::Int(3)]).unwrap().unwrap();
        db.record_prov(d, 2, &[e1, e2, e1]);
        assert_eq!(
            db.prov_edge(d),
            Some((2, &[e1, e2][..])),
            "parents dedup in order"
        );
        db.record_prov(d, 5, &[e2]);
        assert_eq!(
            db.prov_edge(d),
            Some((2, &[e1, e2][..])),
            "first derivation wins"
        );
        assert_eq!(db.prov_edge(e1), None, "EDB facts stay edge-less");
        assert_eq!((db.prov_edges(), db.prov_parent_refs()), (1, 2));
    }

    #[test]
    fn capacity_guards_name_the_exhausted_space() {
        // The caps themselves (2^32 rows / predicates) are unreachable in a
        // test, so the guard functions are exercised directly — insert_id
        // calls them with exactly these arguments at the boundary.
        assert!(guard_row_capacity("p", MAX_ROWS_PER_RELATION - 1).is_ok());
        let err = guard_row_capacity("p", MAX_ROWS_PER_RELATION).unwrap_err();
        assert!(
            matches!(&err, KgmError::ResourceExhausted(m) if m.contains("`p`")),
            "{err}"
        );
        assert!(guard_pred_capacity(MAX_PREDICATES - 1).is_ok());
        let err = guard_pred_capacity(MAX_PREDICATES).unwrap_err();
        assert!(matches!(err, KgmError::ResourceExhausted(_)), "{err}");
        // Every row fits the dedup table's id space.
        assert_eq!(MAX_ROWS_PER_RELATION, SlotTable::MAX_IDS);
    }

    #[test]
    fn tombstoned_rows_vanish_from_every_read_path() {
        let mut db = FactDb::new();
        let a = db.insert_id("p", &[Value::Int(1)]).unwrap().unwrap();
        let b = db.insert_id("p", &[Value::Int(2)]).unwrap().unwrap();
        db.insert_id("p", &[Value::Int(3)]).unwrap().unwrap();
        db.ensure_index("p", &[0]);
        assert!(db.tombstone(b));
        assert!(!db.tombstone(b), "tombstoning is idempotent");
        // Probes, counts and iteration all skip the dead row.
        assert!(!db.contains("p", &[Value::Int(2)]));
        assert_eq!(db.find_id("p", &[Value::Int(2)]), None);
        assert_eq!(db.len("p"), 2);
        assert_eq!(db.rows_of("p"), 3);
        assert_eq!(db.total_facts(), 2);
        assert_eq!(
            db.facts("p"),
            vec![vec![Value::Int(1)], vec![Value::Int(3)]]
        );
        // Indexed and range lookups filter the dead row out.
        let two = db.pool().lookup(&Value::Int(2)).unwrap();
        assert_eq!(ids(&db, "p", &[0], &[two], 0..3), Vec::<u32>::new());
        assert_eq!(ids(&db, "p", &[], &[], 0..3), vec![0, 2]);
        // fact_values stays physical: the dead tuple is still readable.
        assert_eq!(db.fact_values(b), Some(("p", vec![Value::Int(2)])));
        // Re-inserting the tuple appends a fresh row under a fresh id.
        let b2 = db.insert_id("p", &[Value::Int(2)]).unwrap().unwrap();
        assert_ne!(b2, b);
        assert_eq!(fact_row(b2), 3);
        assert_eq!(db.find_id("p", &[Value::Int(2)]), Some(b2));
        assert_eq!(db.len("p"), 3);
        // Untouched rows keep their ids.
        assert_eq!(db.find_id("p", &[Value::Int(1)]), Some(a));
        // Tombstoning an unknown id is a no-op.
        assert!(!db.tombstone(fact_id(9, 0)));
        assert!(!db.tombstone(fact_id(fact_pred(a), 99)));
    }

    #[test]
    fn dedup_table_growth_drops_tombstones_but_keeps_live_rows_findable() {
        let mut db = FactDb::new();
        let mut ids_in = Vec::new();
        for i in 0..64i64 {
            ids_in.push(db.insert_id("p", &[Value::Int(i)]).unwrap().unwrap());
        }
        for id in ids_in.iter().step_by(2) {
            assert!(db.tombstone(*id));
        }
        // Force several table growths past the tombstoning.
        for i in 64..2_000i64 {
            db.insert_id("p", &[Value::Int(i)]).unwrap();
        }
        for i in 0..64i64 {
            let alive = i % 2 == 1;
            assert_eq!(db.contains("p", &[Value::Int(i)]), alive, "i={i}");
        }
        assert_eq!(db.len("p"), 2_000 - 32);
        assert_eq!(db.rows_of("p"), 2_000);
    }

    #[test]
    fn derived_marks_drive_tombstone_derived() {
        let mut db = FactDb::new();
        db.enable_provenance();
        let edb = db.insert_id("p", &[Value::Int(1)]).unwrap().unwrap();
        let d1 = db.insert_id("q", &[Value::Int(2)]).unwrap().unwrap();
        let d2 = db.insert_id("p", &[Value::Int(3)]).unwrap().unwrap();
        db.mark_derived(d1);
        db.mark_derived(d2);
        db.record_prov(d1, 0, &[edb]);
        db.record_prov(d2, 1, &[d1]);
        assert_eq!(db.prov_edges(), 2);
        assert_eq!(db.tombstone_derived(), 2);
        assert_eq!(db.tombstone_derived(), 0, "second wipe finds nothing");
        assert_eq!(db.total_facts(), 1);
        assert!(db.contains("p", &[Value::Int(1)]));
        assert!(!db.contains("p", &[Value::Int(3)]));
        assert!(!db.contains("q", &[Value::Int(2)]));
        assert_eq!(db.prov_edges(), 0, "derived edges dropped with the rows");
        assert!(db.provenance_enabled(), "the wipe leaves recording enabled");
    }

    #[test]
    fn prov_edges_iterate_and_remove() {
        let mut db = FactDb::new();
        db.enable_provenance();
        let a = db.insert_id("e", &[Value::Int(1)]).unwrap().unwrap();
        let b = db.insert_id("d", &[Value::Int(2)]).unwrap().unwrap();
        let c = db.insert_id("d", &[Value::Int(3)]).unwrap().unwrap();
        db.record_prov(b, 0, &[a]);
        db.record_prov(c, 1, &[a, b]);
        let mut edges: Vec<(FactId, Vec<FactId>)> = db
            .prov_edges_iter()
            .map(|(f, ps)| (f, ps.to_vec()))
            .collect();
        edges.sort();
        assert_eq!(edges, vec![(b, vec![a]), (c, vec![a, b])]);
        // Tombstoning removes the fact's edge but leaves others intact.
        assert!(db.tombstone(b));
        assert_eq!(db.prov_edges(), 1);
        assert_eq!(db.prov_edge(b), None);
        assert_eq!(db.prov_edge(c), Some((1, &[a, b][..])));
    }

    #[test]
    fn approx_bytes_reflects_columnar_footprint() {
        let mut db = FactDb::new();
        let empty = db.approx_bytes();
        for i in 0..10_000i64 {
            db.insert(
                "p",
                vec![Value::Int(i), Value::Int(i + 1), Value::Int(i + 2)],
            )
            .unwrap();
        }
        let grown = db.approx_bytes();
        // 10k rows × 3 columns × 8 bytes = 240kB of columns alone; the old
        // proxy would have claimed ~1.4MB for Value-sized rows stored twice.
        assert!(grown > empty + 240_000, "{empty} -> {grown}");
        assert!(grown < 4_000_000, "columnar accounting exploded: {grown}");
    }

    /// One step of the index model check.
    #[derive(Debug, Clone)]
    enum Op {
        /// Insert a tuple, one value per column.
        Insert(Vec<Val>),
        /// Build or catch up the index over these positions.
        Ensure(Vec<usize>),
        /// Tombstone physical row `n % rows`.
        Tombstone(usize),
        /// Look up a key at these positions over the row range `lo..hi`.
        Lookup(Vec<usize>, Vec<Val>, usize, usize),
    }

    /// A generated column value: a pooled number or an inline OID.
    #[derive(Debug, Clone, Copy)]
    enum Val {
        /// A number, and whether it is drawn as an equal `Float`.
        Num(i64, bool),
        /// An OID of some space.
        Oid(OidSpace, u64),
    }

    fn value(v: Val) -> Value {
        match v {
            Val::Num(n, false) => Value::Int(n),
            Val::Num(n, true) => Value::Float(n as f64),
            Val::Oid(space, payload) => Value::Oid(Oid::new(space, payload)),
        }
    }

    /// An arity of 1–3 and up to 300 steps over a domain of 2–40 numbers,
    /// each drawn as an `Int` or an equal `Float`, and as many OID payloads
    /// per space, the largest payloads included: enough distinct keys to
    /// grow an index's slot table, and enough repeats to move segments.
    /// Both index layouts occur: an index over every position stays unique
    /// (dedup keeps its keys distinct) until a tombstoned tuple comes back,
    /// and one over fewer positions converts on its first repeated key.
    fn gen_ops(rng: &mut Rng) -> (usize, Vec<Op>) {
        let arity = rng.gen_range(1usize..4);
        let domain = rng.gen_range(2i64..40);
        let steps = rng.gen_range(0usize..300);
        let draw = |rng: &mut Rng| {
            let n = rng.gen_range(0..domain);
            if rng.gen_bool(0.6) {
                return Val::Num(n, rng.gen_bool(0.3));
            }
            let spaces = [OidSpace::Ground, OidSpace::Null, OidSpace::Skolem];
            let space = spaces[rng.gen_range(0usize..3)];
            let top = (1u64 << 62) - 1;
            let payload = if rng.gen_bool(0.2) {
                top - n as u64 % 2
            } else {
                n as u64
            };
            Val::Oid(space, payload)
        };
        let positions = |rng: &mut Rng| (0..arity).filter(|_| rng.gen_bool(0.5)).collect();
        let ops = (0..steps)
            .map(|_| match rng.gen_range(0u32..100) {
                0..=54 => Op::Insert((0..arity).map(|_| draw(rng)).collect()),
                55..=64 => Op::Ensure(positions(rng)),
                65..=71 => Op::Tombstone(rng.gen_range(0usize..1_000)),
                _ => {
                    let pos: Vec<usize> = positions(rng);
                    let key = pos.iter().map(|_| draw(rng)).collect();
                    let lo = rng.gen_range(0usize..steps + 2);
                    let hi = lo + rng.gen_range(0usize..steps + 2);
                    Op::Lookup(pos, key, lo, hi)
                }
            })
            .collect();
        (arity, ops)
    }

    /// What one model-check case made its indexes do.
    #[derive(Default)]
    struct Seen {
        /// An index outgrew its first slot table.
        grew: bool,
        /// A segment moved.
        moved: bool,
        /// An index kept the unique layout to the end, past a slot-table
        /// growth.
        unique: bool,
        /// An index left the unique layout after holding several keys.
        converted: bool,
    }

    /// Runs `ops` against a store and a row-list model; every insert must
    /// agree on novelty, and every lookup must return the ascending live
    /// model rows in range whose values equal the key.
    fn index_matches_scan(ops: &[Op]) -> std::result::Result<Seen, CaseError> {
        let mut db = FactDb::new();
        let mut model: Vec<(Vec<Value>, bool)> = Vec::new();
        let mut seen = Seen::default();
        // Is the index over `pos` unique over at least two keys?
        let unique_over_several = |db: &FactDb, pos: &Vec<usize>| {
            let idx = db.rel("r").and_then(|rel| rel.indexes.get(pos));
            idx.is_some_and(|idx| idx.is_unique() && idx.built_upto > 1)
        };
        for op in ops {
            match op {
                Op::Insert(t) => {
                    let tuple: Vec<Value> = t.iter().copied().map(value).collect();
                    let novel = !model.iter().any(|(row, live)| *live && *row == tuple);
                    let got = db.insert_id("r", &tuple).unwrap();
                    prop_assert_eq!(got, novel.then(|| fact_id(0, model.len() as u32)));
                    if novel {
                        model.push((tuple, true));
                    }
                }
                Op::Ensure(pos) => {
                    let was_unique = unique_over_several(&db, pos);
                    db.ensure_index("r", pos);
                    let idx = db.rel("r").and_then(|rel| rel.indexes.get(pos));
                    seen.converted |= was_unique && idx.is_some_and(|idx| !idx.is_unique());
                }
                Op::Tombstone(n) => {
                    if !model.is_empty() {
                        let row = n % model.len();
                        prop_assert_eq!(db.tombstone(fact_id(0, row as u32)), model[row].1);
                        model[row].1 = false;
                    }
                }
                Op::Lookup(pos, key, lo, hi) => {
                    let key: Vec<Value> = key.iter().copied().map(value).collect();
                    let want: Vec<u32> = (*lo..(*hi).min(model.len()))
                        .filter(|&r| {
                            let (row, live) = &model[r];
                            *live && pos.iter().zip(&key).all(|(&p, v)| row[p] == *v)
                        })
                        .map(|r| r as u32)
                        .collect();
                    let ids: Option<Vec<u64>> = key.iter().map(|v| db.pool().lookup(v)).collect();
                    let got = match (db.rel("r"), ids) {
                        (Some(rel), Some(ids)) => rel
                            .lookup(pos, &ids, &(*lo..*hi), db.pool().classes())
                            .collect(),
                        _ => Vec::new(),
                    };
                    prop_assert_eq!(got, want);
                }
            }
        }
        for (r, (tuple, live)) in model.iter().enumerate() {
            if *live {
                prop_assert_eq!(db.find_id("r", tuple), Some(fact_id(0, r as u32)));
            }
        }
        let indexes: Vec<&Index> = db
            .rel("r")
            .map_or(Vec::new(), |rel| rel.indexes.values().collect());
        let grew = |idx: &Index| idx.keys.approx_bytes() > 16 * 8;
        seen.grew = indexes.iter().any(|idx| grew(idx));
        seen.moved = indexes
            .iter()
            .any(|idx| idx.postings.len() > live_capacity(idx));
        seen.unique = indexes.iter().any(|idx| idx.is_unique() && grew(idx));
        Ok(seen)
    }

    /// Arena slots the live segments of `idx` reserve.
    fn live_capacity(idx: &Index) -> usize {
        idx.len
            .iter()
            .map(|&l| (l as usize).next_power_of_two())
            .sum()
    }

    #[test]
    fn index_lookups_match_a_filtered_scan() {
        let [grew, moved, unique, converted] = [(); 4].map(|()| Cell::new(0));
        check(
            "index_lookups_match_a_filtered_scan",
            &Config::with_cases(64),
            gen_ops,
            |(arity, ops)| shrink_vec(ops).into_iter().map(|o| (*arity, o)).collect(),
            |(_, ops)| {
                let seen = index_matches_scan(ops)?;
                grew.set(grew.get() + seen.grew as usize);
                moved.set(moved.get() + seen.moved as usize);
                unique.set(unique.get() + seen.unique as usize);
                converted.set(converted.get() + seen.converted as usize);
                Ok(())
            },
        );
        assert!(grew.get() > 0, "no case grew an index's slot table");
        assert!(moved.get() > 0, "no case moved a posting segment");
        assert!(unique.get() > 0, "no case kept an index unique");
        assert!(converted.get() > 0, "no case converted a unique index");
    }

    #[test]
    fn index_growth_and_segment_moves_keep_lookups_exact() {
        let mut db = FactDb::new();
        // Column 0 holds 100 keys of 10 rows each, interleaved, so their
        // segments keep moving; column 1 holds 1,000 distinct keys.
        for i in 0..1_000i64 {
            db.insert("r", vec![Value::Int(i % 100), Value::Float(i as f64)])
                .unwrap();
            if i % 37 == 0 {
                db.ensure_index("r", &[0]);
                db.ensure_index("r", &[1]);
            }
        }
        // One key in column 0, so its segment always ends the arena.
        for i in 0..100i64 {
            db.insert("hot", vec![Value::Int(7), Value::Int(i)])
                .unwrap();
        }
        db.ensure_index("r", &[0]);
        db.ensure_index("r", &[1]);
        db.ensure_index("hot", &[0]);
        let r = db.rel("r").unwrap();
        let distinct = &r.indexes[&vec![1]];
        assert!(
            distinct.is_unique(),
            "1,000 distinct keys keep the unique layout"
        );
        assert!(
            distinct.keys.approx_bytes() >= 1_000 * 8 * 8 / 7,
            "slot table grew"
        );
        let shared = &r.indexes[&vec![0]];
        assert_eq!(shared.len.len(), 100);
        assert!(
            shared.postings.len() > live_capacity(shared),
            "segments moved"
        );
        assert!(shared.postings.len() < 2 * live_capacity(shared));
        let hot = &db.rel("hot").unwrap().indexes[&vec![0]];
        assert_eq!(hot.postings.len(), 128, "grown in place: no abandoned slot");
        for k in 0..100i64 {
            let id = db.pool().lookup(&Value::Float(k as f64)).unwrap();
            let want: Vec<u32> = (k as u32..1_000).step_by(100).collect();
            assert_eq!(ids(&db, "r", &[0], &[id], 0..1_000), want);
            assert_eq!(ids(&db, "r", &[0], &[id], 500..600), vec![500 + k as u32]);
        }
        let seven = db.pool().lookup(&Value::Int(7)).unwrap();
        assert_eq!(
            ids(&db, "hot", &[0], &[seven], 0..100),
            (0..100).collect::<Vec<u32>>()
        );
        let last = db.pool().lookup(&Value::Int(999)).unwrap();
        assert_eq!(ids(&db, "r", &[1], &[last], 0..1_000), vec![999]);
    }
}
