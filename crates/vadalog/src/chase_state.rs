//! The chase's resumable state: the labelled-null table and the
//! monotonic-aggregate table.
//!
//! A run holds both tables until it ends and then persists them on the
//! [`crate::FactDb`] as a [`ChaseState`], which `Engine::apply_update`
//! resumes. Both tables report their heap bytes from capacities — never by
//! walking their entries — so the memory governor can add them to every
//! check.
//!
//! Both tables lay their keys out as fixed-stride records of the same
//! 64-bit exact cells as the fact store's columns, and hash and compare
//! them by class, as the store's dedup does (see [`kgm_common::pool`]): an
//! OID key value, the common case, is its own cell, and any other key value
//! is interned in the table's own pool. The pools are the tables' own
//! because the fact store's is read-only while shard workers run. Every key
//! of one aggregate rule, and every frontier of one existential, has the
//! same length, so a record sits at its id times the stride: no entry owns
//! a heap block or an index column.

use crate::ast::{AggregateFunc, Var};
use crate::engine::{combine, initial_value};
use crate::factdb::FactId;
use kgm_common::pool::Classes;
use kgm_common::{FxHashMap, FxHasher, KgmError, Oid, OidGen, Result, SlotTable, Value, ValuePool};
use std::hash::Hasher;
use std::mem::size_of;

/// The chase's resumable evaluation state, persisted on the
/// [`crate::FactDb`] at the end of every run and consumed by
/// `Engine::apply_update`. Holding it is what lets an update *continue*
/// the Skolem chase instead of restarting it: resumed runs reuse the
/// labelled-null table (so re-derived existential facts keep their nulls
/// and the result stays isomorphic to a from-scratch chase) and never
/// re-mint a null payload already embedded in stored facts.
pub(crate) struct ChaseState {
    /// Token of the `Engine` that produced this state; an update through a
    /// *different* engine is rejected (its rule numbering, strata and
    /// aggregate modes would reinterpret the state arbitrarily).
    pub(crate) engine_token: u64,
    /// Labelled nulls minted so far (the null generator resumes past them).
    pub(crate) null_count: u64,
    pub(crate) nulls: NullTable,
    pub(crate) mono: MonoTable,
}

impl ChaseState {
    /// Heap bytes of the null and aggregate tables.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.nulls.approx_bytes() + self.mono.approx_bytes()
    }
}

/// `n` as the next 32-bit id of a `what` in a chase table, or the
/// `ResourceExhausted` error once `what`s fill the id space.
fn next_id(n: usize, what: &str) -> Result<u32> {
    if n >= SlotTable::MAX_IDS {
        return Err(KgmError::ResourceExhausted(format!(
            "chase table is full: {n} {what} exhaust its 32-bit ids"
        )));
    }
    Ok(n as u32)
}

/// Append to `out` the exact cells of the values `value_of` gives `vars`.
fn push_cells(
    pool: &mut ValuePool,
    vars: &[Var],
    value_of: &dyn Fn(Var) -> Value,
    out: &mut Vec<u64>,
) -> Result<()> {
    for &v in vars {
        out.push(pool.intern(&value_of(v))?);
    }
    Ok(())
}

/// The hash of `key`'s class cells, after `seed` (the group id of a
/// contributor key, 0 for other keys).
fn class_hash(seed: u32, key: &[u64], class: Classes) -> u64 {
    let mut h = FxHasher::default();
    h.write_u32(seed);
    key.iter().for_each(|&c| h.write_u64(class.of(c)));
    h.finish()
}

/// True if `a` and `b` hold the same class cells.
fn same_class(a: &[u64], b: &[u64], class: Classes) -> bool {
    a.iter().zip(b).all(|(&x, &y)| class.of(x) == class.of(y))
}

// ---------------------------------------------------------------------
// Labelled nulls
// ---------------------------------------------------------------------

/// The Skolem-chase null table: `(rule, existential, frontier values) →
/// labelled null`. Each `(rule, existential)` keeps its frontiers as
/// fixed-stride cell records behind a [`SlotTable`], with the minted OIDs
/// in a parallel column.
#[derive(Default)]
pub(crate) struct NullTable {
    tables: FxHashMap<(usize, Var), Frontiers>,
    /// Interns the frontier values that are not OIDs.
    pool: ValuePool,
    /// The exact cells of the frontier being probed.
    probe: Vec<u64>,
}

/// One existential's frontier records: null `i`'s frontier cells sit at
/// `i × stride` of `cells`, and its OID at `oids[i]`.
#[derive(Default)]
struct Frontiers {
    cells: Vec<u64>,
    oids: Vec<Oid>,
    index: SlotTable,
}

impl NullTable {
    /// The null of existential `var` of rule `ri` at the frontier the
    /// values `value_of` gives `frontier` form, minted from `gen` the first
    /// time that frontier is seen. Frontiers compare by `Value` equality:
    /// `Int(1)` and `Float(1.0)` name one null.
    pub(crate) fn get_or_mint(
        &mut self,
        ri: usize,
        var: Var,
        frontier: &[Var],
        value_of: &dyn Fn(Var) -> Value,
        gen: &OidGen,
    ) -> Result<Oid> {
        self.probe.clear();
        push_cells(&mut self.pool, frontier, value_of, &mut self.probe)?;
        let class = self.pool.classes();
        let key = &self.probe[..];
        let t = self.tables.entry((ri, var)).or_default();
        let hash = class_hash(0, key, class);
        let stride = key.len();
        let found = t.index.find(hash, |i| {
            same_class(&t.cells[i as usize * stride..][..stride], key, class)
        });
        if let Some(i) = found {
            return Ok(t.oids[i as usize]);
        }
        let i = next_id(t.oids.len(), "labelled nulls")?;
        let oid = gen.fresh();
        t.cells.extend_from_slice(key);
        t.oids.push(oid);
        t.index.insert(hash, i);
        Ok(oid)
    }

    /// Heap bytes: the per-existential map, every table's records, OIDs
    /// and index, the pool and the probe.
    pub(crate) fn approx_bytes(&self) -> usize {
        let bucket = size_of::<((usize, Var), Frontiers)>() + 1;
        let tables: usize = self
            .tables
            .values()
            .map(|t| {
                t.cells.capacity() * size_of::<u64>()
                    + t.oids.capacity() * size_of::<Oid>()
                    + t.index.approx_bytes()
            })
            .sum();
        self.tables.capacity() * 8 / 7 * bucket
            + tables
            + self.pool.approx_bytes()
            + self.probe.capacity() * size_of::<u64>()
    }
}

// ---------------------------------------------------------------------
// Aggregates
// ---------------------------------------------------------------------

/// The state of an aggregate: per `(rule, group)` the running value, and
/// the set of `(group, contributor)` keys already counted. The chase keeps
/// one table for every monotonic aggregate (Vadalog's `msum`, `mcount`, …
/// inside recursion) and gives each exact aggregate's pass a fresh one.
///
/// Each aggregate rule has its own [`RuleGroups`]: groups get dense `u32`
/// ids in creation order, and a group's record holds its key cells and
/// the cells of its first contributor. A group's later contributors, rare
/// on the paper's workloads, go to the rule's overflow records. Keys hash
/// and compare by class, so `Int(1)` and `Float(1.0)` name the same group,
/// and the same contributor, and a group's key reads back in the
/// representation of its first contribution.
#[derive(Default)]
pub(crate) struct MonoTable {
    /// Per rule id: its groups, once the rule contributed.
    rules: Vec<Option<RuleGroups>>,
    /// Interns the key values that are not OIDs and the running values
    /// that are not numbers.
    pool: ValuePool,
    /// The exact cells of the group key then the contributor key being
    /// probed.
    probe: Vec<u64>,
}

/// One aggregate rule's groups. Group `g`'s record is the `stride` cells
/// at `g × stride` of `records`: its key, then its first contributor's
/// key. Its running value is `values[g]` read through `tags[g]`
/// ([`ValueTag`]).
struct RuleGroups {
    /// Cells of a group key; a contributor key has the rest of `stride`.
    group_len: usize,
    stride: usize,
    records: Vec<u64>,
    values: Vec<u64>,
    tags: Vec<ValueTag>,
    /// Group ids, keyed by the class cells of their keys.
    index: SlotTable,
    /// Every contributor after its group's first, as `1 + contributor
    /// length` cells at `id × (1 + contributor length)`: the group id, then
    /// the contributor's key.
    more: Vec<u64>,
    /// Overflow ids, keyed by the group id and the contributor's class
    /// cells.
    more_index: SlotTable,
    /// With provenance on, per group: the `(start, len)` of its snapshot in
    /// `parents`. Empty with provenance off.
    snapshots: Vec<(u64, u32)>,
    parents: Snapshots,
}

/// How a [`RuleGroups`] value word reads back: one byte per group.
#[derive(Clone, Copy)]
#[repr(u8)]
enum ValueTag {
    /// The bits of an `i64`.
    Int,
    /// The bits of an `f64`.
    Float,
    /// An exact cell of the [`MonoTable`]'s pool: any other value, which
    /// only `min`/`max` aggregates can hold.
    Cell,
}

/// `v` as a value word and its tag, interning a non-number in `pool`.
fn store_value(pool: &mut ValuePool, v: &Value) -> Result<(u64, ValueTag)> {
    Ok(match v {
        Value::Int(i) => (*i as u64, ValueTag::Int),
        Value::Float(f) => (f.to_bits(), ValueTag::Float),
        other => (pool.intern(other)?, ValueTag::Cell),
    })
}

/// The value a [`store_value`] word and tag hold.
fn load_value(pool: &ValuePool, word: u64, tag: ValueTag) -> Value {
    match tag {
        ValueTag::Int => Value::Int(word as i64),
        ValueTag::Float => Value::Float(f64::from_bits(word)),
        ValueTag::Cell => pool.get(word),
    }
}

impl RuleGroups {
    fn new(group_len: usize, contributor_len: usize) -> RuleGroups {
        RuleGroups {
            group_len,
            stride: group_len + contributor_len,
            records: Vec::new(),
            values: Vec::new(),
            tags: Vec::new(),
            index: SlotTable::default(),
            more: Vec::new(),
            more_index: SlotTable::default(),
            snapshots: Vec::new(),
            parents: Snapshots::default(),
        }
    }

    fn len(&self) -> usize {
        self.values.len()
    }

    /// Per group, in creation order: its number of contributors.
    fn contributor_counts(&self) -> Vec<usize> {
        let mut counts = vec![1usize; self.len()];
        let more_stride = 1 + self.stride - self.group_len;
        for entry in self.more.chunks_exact(more_stride) {
            counts[entry[0] as usize] += 1;
        }
        counts
    }

    fn approx_bytes(&self) -> usize {
        (self.records.capacity() + self.values.capacity() + self.more.capacity()) * size_of::<u64>()
            + self.tags.capacity() * size_of::<ValueTag>()
            + self.index.approx_bytes()
            + self.more_index.approx_bytes()
            + self.snapshots.capacity() * size_of::<(u64, u32)>()
            + self.parents.approx_bytes()
    }
}

/// Growable `FactId` lists in one flat arena, laid out as
/// [`kgm_common::SegmentArena`] lays out `u32` lists: a segment of `len`
/// ids has room for `len.next_power_of_two()` and grows in place when it
/// ends the arena, else moves to the end at the next power of two, so the
/// arena stays under twice the live ids without compaction.
#[derive(Default)]
struct Snapshots {
    ids: Vec<FactId>,
}

impl Snapshots {
    /// The ids of the segment `(start, len)`.
    fn segment(&self, (start, len): (u64, u32)) -> &[FactId] {
        if len == 0 {
            return &[];
        }
        &self.ids[start as usize..][..len as usize]
    }

    /// Append `more` to the segment `seg`, moving it (and updating its
    /// start) when it has no room.
    fn extend(&mut self, seg: &mut (u64, u32), more: &[FactId]) -> Result<()> {
        let (at, n) = (seg.0 as usize, seg.1 as usize);
        let len = n + more.len();
        let room = if n == 0 { 0 } else { n.next_power_of_two() };
        if len > room {
            let end = self.ids.len();
            if n == 0 || at + room != end {
                self.ids.extend_from_within(at..at + n);
                seg.0 = end as u64;
            }
            self.ids.resize(seg.0 as usize + len.next_power_of_two(), 0);
        }
        let at = seg.0 as usize + n;
        self.ids[at..at + more.len()].copy_from_slice(more);
        seg.1 = next_id(len, "parent ids in one snapshot")?;
        Ok(())
    }

    fn approx_bytes(&self) -> usize {
        self.ids.capacity() * size_of::<FactId>()
    }
}

impl MonoTable {
    /// Count one match of the aggregate rule `ri`, which adds `val` under
    /// `func`. The match's group key is the values `value_of` gives the
    /// variables of `group`, and its contributor key those of
    /// `contributor`.
    ///
    /// A monotonic aggregate's match (`fire` set) fires when its
    /// contributor is new and moved the aggregate: the group's new value
    /// comes back. `None` comes back when the contributor was already
    /// counted (an idempotent re-contribution), left the value where it
    /// was, or belongs to an exact aggregate, whose matches only contribute
    /// and whose groups are read back with [`MonoTable::groups_in_order`].
    ///
    /// With provenance on, `parents` carries the match's parent fact ids:
    /// they join the group's snapshot when the contributor is new, and a
    /// firing replaces them with the whole snapshot, since the emitted
    /// value is a fold over every contribution.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn contribute(
        &mut self,
        ri: usize,
        func: AggregateFunc,
        group: &[Var],
        contributor: &[Var],
        value_of: &dyn Fn(Var) -> Value,
        val: &Value,
        fire: bool,
        parents: Option<&mut Vec<FactId>>,
    ) -> Result<Option<Value>> {
        let MonoTable { rules, pool, probe } = self;
        probe.clear();
        push_cells(pool, group, value_of, probe)?;
        push_cells(pool, contributor, value_of, probe)?;
        if rules.len() <= ri {
            rules.resize_with(ri + 1, || None);
        }
        let t = rules[ri].get_or_insert_with(|| RuleGroups::new(group.len(), contributor.len()));
        let class = pool.classes();
        let (key, first) = probe.split_at(group.len());
        let hash = class_hash(0, key, class);
        let stride = t.stride;
        let found = t.index.find(hash, |g| {
            same_class(&t.records[g as usize * stride..][..key.len()], key, class)
        });
        let (gi, current) = match found {
            Some(g) => {
                let gi = g as usize;
                let counted = &t.records[gi * stride + t.group_len..][..first.len()];
                if same_class(counted, first, class) {
                    return Ok(None);
                }
                let more_hash = class_hash(g, first, class);
                let more_stride = 1 + first.len();
                let more = &t.more;
                let seen = t.more_index.find(more_hash, |i| {
                    let entry = &more[i as usize * more_stride..][..more_stride];
                    entry[0] == u64::from(g) && same_class(&entry[1..], first, class)
                });
                if seen.is_some() {
                    return Ok(None);
                }
                let i = next_id(t.more.len() / more_stride, "contributors")?;
                t.more.push(u64::from(g));
                t.more.extend_from_slice(first);
                t.more_index.insert(more_hash, i);
                (gi, load_value(pool, t.values[gi], t.tags[gi]))
            }
            None => {
                let g = next_id(t.len(), "groups")?;
                t.records.extend_from_slice(probe);
                t.index.insert(hash, g);
                t.values.push(0);
                t.tags.push(ValueTag::Int);
                (g as usize, initial_value(func))
            }
        };
        let updated = combine(func, &current, val)?;
        let moved = fire && updated != current;
        (t.values[gi], t.tags[gi]) = store_value(pool, &updated)?;
        if let Some(edge) = parents {
            if t.snapshots.len() <= gi {
                t.snapshots.resize(gi + 1, (0, 0));
            }
            // Every new contributor joins the group's snapshot, whether or
            // not the value moved.
            let seg = &mut t.snapshots[gi];
            t.parents.extend(seg, edge)?;
            if moved {
                edge.clear();
                edge.extend_from_slice(t.parents.segment(*seg));
            }
        }
        Ok(moved.then_some(updated))
    }

    /// Every group of the aggregate rule `ri` in creation order: its key
    /// (the values of its group variables), its value, its number of
    /// contributors and the parent fact ids of its contributions (empty
    /// with provenance off). An exact aggregate's pass reads its fresh
    /// table back through this.
    pub(crate) fn groups_in_order(
        &self,
        ri: usize,
    ) -> impl Iterator<Item = (Vec<Value>, Value, usize, &[FactId])> + '_ {
        let t = self.rules.get(ri).and_then(Option::as_ref);
        t.into_iter().flat_map(move |t| {
            let counts = t.contributor_counts().into_iter().enumerate();
            counts.map(move |(g, contributors)| {
                let key = t.records[g * t.stride..][..t.group_len]
                    .iter()
                    .map(|&c| self.pool.get(c))
                    .collect();
                let value = load_value(&self.pool, t.values[g], t.tags[g]);
                let parents = t
                    .snapshots
                    .get(g)
                    .map_or(&[][..], |&seg| t.parents.segment(seg));
                (key, value, contributors, parents)
            })
        })
    }

    /// Number of groups, over all rules.
    #[cfg(test)]
    pub(crate) fn groups(&self) -> usize {
        self.rules.iter().flatten().map(RuleGroups::len).sum()
    }

    /// Number of counted contributors, over all groups.
    #[cfg(test)]
    pub(crate) fn contributors(&self) -> usize {
        self.rules
            .iter()
            .flatten()
            .map(|t| t.contributor_counts().iter().sum::<usize>())
            .sum()
    }

    /// Heap bytes: every rule's records, values, tags, overflow, indexes
    /// and provenance snapshots, the pool and the probe.
    pub(crate) fn approx_bytes(&self) -> usize {
        let rules: usize = self
            .rules
            .iter()
            .flatten()
            .map(RuleGroups::approx_bytes)
            .sum();
        rules
            + self.rules.capacity() * size_of::<Option<RuleGroups>>()
            + self.pool.approx_bytes()
            + self.probe.capacity() * size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgm_common::OidSpace;

    /// `chase_1m`'s aggregate traffic in miniature: every group of the
    /// control rule's `msum` is keyed by two OIDs and almost every one has a
    /// single OID contributor. Such a group costs its record, value word,
    /// tag and index slot, under 72 B at 100,000 groups; a slot-table id,
    /// owner and start per group and per contributor and a 24-byte `Value`
    /// per running value cost 115.3 B.
    #[test]
    fn a_single_contributor_group_costs_at_most_72_bytes() {
        const GROUPS: u64 = 100_000;
        let mut t = MonoTable::default();
        let (x, y, z) = (Var(0), Var(1), Var(2));
        for g in 0..GROUPS {
            let value_of = |v: Var| Value::Oid(Oid::ground(3 * g + u64::from(v.0)));
            let fired = t
                .contribute(
                    0,
                    AggregateFunc::MSum,
                    &[x, y],
                    &[z],
                    &value_of,
                    &Value::Float(0.6),
                    true,
                    None,
                )
                .unwrap();
            assert_eq!(fired, Some(Value::Float(0.6)));
        }
        assert_eq!((t.groups(), t.contributors()), (100_000, 100_000));
        let per_group = t.approx_bytes() as f64 / GROUPS as f64;
        assert!(per_group <= 72.0, "{per_group:.1} B per group (at most 72)");
    }

    /// A group's later contributors count once each, in the overflow
    /// records, and its value and provenance snapshot fold every one.
    #[test]
    fn later_contributors_fold_into_the_value_and_the_snapshot() {
        let mut t = MonoTable::default();
        let (g, c) = (Var(0), Var(1));
        let contribute = |t: &mut MonoTable, contributor: Value, parent: FactId| {
            let value_of = |v: Var| {
                if v == g {
                    Value::str("g")
                } else {
                    contributor.clone()
                }
            };
            let mut edge = vec![parent];
            let fired = t
                .contribute(
                    4,
                    AggregateFunc::MSum,
                    &[g],
                    &[c],
                    &value_of,
                    &Value::Int(2),
                    true,
                    Some(&mut edge),
                )
                .unwrap();
            (fired, edge)
        };
        assert_eq!(
            contribute(&mut t, Value::Int(1), 10),
            (Some(Value::Int(2)), vec![10])
        );
        // `Float(1.0)` is the first contributor again: not counted.
        assert_eq!(contribute(&mut t, Value::Float(1.0), 11), (None, vec![11]));
        for (i, parent) in (2..6).zip(12..) {
            let (fired, edge) = contribute(&mut t, Value::Int(i), parent);
            assert_eq!(fired, Some(Value::Int(2 * i)));
            assert_eq!(
                edge,
                [10].into_iter().chain(12..=parent).collect::<Vec<_>>()
            );
        }
        assert_eq!(contribute(&mut t, Value::Float(3.0), 20), (None, vec![20]));
        let groups: Vec<_> = t.groups_in_order(4).collect();
        assert_eq!(groups.len(), 1);
        let (key, value, contributors, parents) = &groups[0];
        assert_eq!(key, &vec![Value::str("g")]);
        assert_eq!((value, *contributors), (&Value::Int(10), 5));
        assert_eq!(parents, &[10, 12, 13, 14, 15]);
        assert_eq!(t.groups_in_order(3).count(), 0, "rule 3 never contributed");
    }

    /// `max` can hold any value; a non-number reads back from the table's
    /// pool.
    #[test]
    fn a_string_running_value_reads_back() {
        let mut t = MonoTable::default();
        for s in ["m", "x", "b"] {
            let contributor = Value::str(s);
            let value_of = |_: Var| contributor.clone();
            t.contribute(
                0,
                AggregateFunc::Max,
                &[],
                &[Var(0)],
                &value_of,
                &contributor,
                false,
                None,
            )
            .unwrap();
        }
        let (_, value, contributors, _) = t.groups_in_order(0).next().unwrap();
        assert_eq!((value, contributors), (Value::str("x"), 3));
    }

    /// Frontiers compare by `Value` equality, per `(rule, existential)`.
    #[test]
    fn equal_frontiers_share_a_null() {
        let mut nulls = NullTable::default();
        let gen = OidGen::new(OidSpace::Null);
        let mut mint = |ri: usize, var: u16, x: Value| {
            nulls
                .get_or_mint(ri, Var(var), &[Var(0)], &|_| x.clone(), &gen)
                .unwrap()
        };
        let one = mint(0, 1, Value::Int(1));
        assert_eq!(mint(0, 1, Value::Float(1.0)), one);
        assert_ne!(mint(0, 1, Value::Int(2)), one);
        assert_ne!(mint(0, 2, Value::Int(1)), one, "another existential");
        assert_ne!(mint(1, 1, Value::Int(1)), one, "another rule");
        assert_eq!(mint(0, 1, Value::str("a")), mint(0, 1, Value::str("a")));
        assert_eq!(gen.count(), 5);
    }
}
