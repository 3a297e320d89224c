//! The chase's resumable state: the labelled-null table and the
//! monotonic-aggregate table.
//!
//! A run holds both tables until it ends and then persists them on the
//! [`crate::FactDb`] as a [`ChaseState`], which `Engine::apply_update`
//! resumes. Both tables report their heap bytes from capacities and
//! running counters — never by walking their entries — so the memory
//! governor can add them to every check.
//!
//! The aggregate table stores its group and contributor keys as the same
//! 64-bit exact cells as the fact store's columns, and hashes and compares
//! them by class, as the store's dedup does (see [`kgm_common::pool`]): an
//! OID key, the common case, is its own cell, and any other key value is
//! interned in the table's own pool. The null table still keys on
//! `Value`s.

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

/// The Skolem-chase null table: `(rule, variable, frontier values) →
/// labelled null`.
#[derive(Default)]
pub(crate) struct NullTable {
    map: FxHashMap<(usize, Var, Vec<Value>), Oid>,
    /// Heap bytes of the frontier keys.
    key_bytes: usize,
}

impl NullTable {
    /// The null of existential `var` of rule `ri` at `frontier`, minted
    /// from `gen` the first time that key is seen.
    pub(crate) fn get_or_mint(
        &mut self,
        ri: usize,
        var: Var,
        frontier: &[Value],
        gen: &OidGen,
    ) -> Oid {
        use std::collections::hash_map::Entry;
        match self.map.entry((ri, var, frontier.to_vec())) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                self.key_bytes += std::mem::size_of_val(frontier);
                *e.insert(gen.fresh())
            }
        }
    }

    /// Heap bytes: the map's buckets (at most 7/8 full, one control byte
    /// each) and the frontier keys.
    pub(crate) fn approx_bytes(&self) -> usize {
        let bucket = size_of::<((usize, Var, Vec<Value>), Oid)>() + 1;
        self.map.capacity() * 8 / 7 * bucket + self.key_bytes
    }
}

/// The state of an aggregate: per `(rule, group)` the running value, and
/// the set of `(group, contributor)` keys already counted. The chase keeps
/// one table for every monotonic aggregate (Vadalog's `msum`, `mcount`, …
/// inside recursion) and gives each exact aggregate's pass a fresh one.
///
/// Groups and contributors get dense `u32` ids in creation order. Their
/// keys sit once, flat, in `keys`, as the exact cells of the table's own
/// [`ValuePool`] (an OID is its own cell, so the pool holds only the other
/// key values); the two [`KeyIds`] indexes hold ids only. Keys hash and
/// compare by class, so `Int(1)` and `Float(1.0)` name the same group, and
/// the same contributor, and a group's key reads back in the
/// representation of its first contribution. The pool is the table's own
/// because the fact store's is read-only while shard workers run.
#[derive(Default)]
pub(crate) struct MonoTable {
    /// Group ids, keyed by `(rule, group key)`.
    groups: KeyIds,
    /// Contributor ids, keyed by `(group, contributor key)`.
    contributors: KeyIds,
    /// Every group and contributor key, flat, as exact cells of `pool`.
    keys: Vec<u64>,
    /// Interns the key values that are not OIDs.
    pool: ValuePool,
    /// The exact cells of the key being probed.
    probe: Vec<u64>,
    /// Per group: the running aggregate value.
    current: Vec<Value>,
    /// Per group, with provenance on: the parent fact ids of every counted
    /// contribution, in contribution order. Empty with provenance off.
    parents: Vec<Vec<FactId>>,
    /// Heap bytes of the `parents` lists.
    parent_bytes: usize,
}

/// Dense `u32` ids for `(owner, key)` pairs whose key cells live in the
/// [`MonoTable`]'s flat `keys`. All keys of one owner (a rule for groups,
/// a group for contributors) have the same length, so an id records only
/// its owner and where its key starts.
#[derive(Default)]
struct KeyIds {
    index: SlotTable,
    owner: Vec<u32>,
    start: Vec<u32>,
}

/// `n` as the next 32-bit id of the aggregate table, or the
/// `ResourceExhausted` error once `what` fill the id space.
fn next_id(n: usize, what: &str) -> Result<u32> {
    if n >= SlotTable::MAX_IDS {
        return Err(KgmError::ResourceExhausted(format!(
            "monotonic-aggregate table is full: {n} {what} exhaust its 32-bit ids"
        )));
    }
    Ok(n as u32)
}

/// Set `out` to the exact cells of the values of `vars` in `binding`.
fn key_cells(
    pool: &mut ValuePool,
    vars: &[Var],
    binding: &[Option<Value>],
    out: &mut Vec<u64>,
) -> Result<()> {
    out.clear();
    for v in vars {
        let val = binding[v.0 as usize].as_ref().expect("aggregate key bound");
        out.push(pool.intern(val)?);
    }
    Ok(())
}

impl KeyIds {
    /// The id of `(owner, key)` and whether it is new, comparing key cells
    /// by class. A new pair's key cells are appended to `keys`.
    fn get_or_add(
        &mut self,
        owner: u32,
        key: &[u64],
        keys: &mut Vec<u64>,
        class: Classes,
        what: &str,
    ) -> Result<(u32, bool)> {
        let mut h = FxHasher::default();
        h.write_u32(owner);
        key.iter().for_each(|&c| h.write_u64(class.of(c)));
        let hash = h.finish();
        let found = self.index.find(hash, |id| {
            let start = self.start[id as usize] as usize;
            self.owner[id as usize] == owner
                && keys[start..start + key.len()]
                    .iter()
                    .zip(key)
                    .all(|(&a, &b)| class.of(a) == class.of(b))
        });
        if let Some(id) = found {
            return Ok((id, false));
        }
        let id = next_id(self.owner.len(), what)?;
        let start = next_id(keys.len(), "key values")?;
        keys.extend_from_slice(key);
        self.index.insert(hash, id);
        self.owner.push(owner);
        self.start.push(start);
        Ok((id, true))
    }

    fn approx_bytes(&self) -> usize {
        self.index.approx_bytes() + (self.owner.capacity() + self.start.capacity()) * 4
    }
}

impl MonoTable {
    /// Count one match of the aggregate rule `ri`, which adds `val` under
    /// `func`. The match's group key is the values of `group` in `binding`
    /// and its contributor key the values of `contributor`.
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
        binding: &[Option<Value>],
        val: &Value,
        fire: bool,
        parents: Option<&mut Vec<FactId>>,
    ) -> Result<Option<Value>> {
        key_cells(&mut self.pool, group, binding, &mut self.probe)?;
        let class = self.pool.classes();
        let (g, new_group) =
            self.groups
                .get_or_add(ri as u32, &self.probe, &mut self.keys, class, "groups")?;
        if new_group {
            self.current.push(initial_value(func));
        }
        key_cells(&mut self.pool, contributor, binding, &mut self.probe)?;
        let class = self.pool.classes();
        let (_, new) =
            self.contributors
                .get_or_add(g, &self.probe, &mut self.keys, class, "contributors")?;
        if !new {
            return Ok(None);
        }
        let gi = g as usize;
        let updated = combine(func, &self.current[gi], val)?;
        let moved = fire && updated != self.current[gi];
        self.current[gi] = updated;
        if let Some(edge) = parents {
            if self.parents.len() <= gi {
                self.parents.resize_with(gi + 1, Vec::new);
            }
            // Every new contributor joins the group's snapshot, whether or
            // not the value moved.
            let snapshot = &mut self.parents[gi];
            let before = snapshot.capacity();
            snapshot.extend_from_slice(edge);
            self.parent_bytes += (snapshot.capacity() - before) * size_of::<FactId>();
            if moved {
                edge.clear();
                edge.extend_from_slice(snapshot);
            }
        }
        Ok(moved.then(|| self.current[gi].clone()))
    }

    /// Every group in creation order: its key (the values of its `arity`
    /// group variables), its value, its number of contributors and the
    /// parent fact ids of its contributions (empty with provenance off).
    /// An exact aggregate's pass reads its fresh table back through this.
    pub(crate) fn groups_in_order(
        &self,
        arity: usize,
    ) -> impl Iterator<Item = (Vec<Value>, &Value, usize, &[FactId])> + '_ {
        let mut contributors = vec![0usize; self.current.len()];
        for &g in &self.contributors.owner {
            contributors[g as usize] += 1;
        }
        self.current.iter().enumerate().map(move |(g, value)| {
            let start = self.groups.start[g] as usize;
            let key = self.keys[start..start + arity]
                .iter()
                .map(|&c| self.pool.get(c))
                .collect();
            let parents = self.parents.get(g).map_or(&[][..], Vec::as_slice);
            (key, value, contributors[g], parents)
        })
    }

    /// Number of groups.
    #[cfg(test)]
    pub(crate) fn groups(&self) -> usize {
        self.current.len()
    }

    /// Number of counted contributors, over all groups.
    #[cfg(test)]
    pub(crate) fn contributors(&self) -> usize {
        self.contributors.owner.len()
    }

    /// Heap bytes: both id indexes, the flat key cells and their pool, the
    /// running values and the provenance snapshots.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.groups.approx_bytes()
            + self.contributors.approx_bytes()
            + (self.keys.capacity() + self.probe.capacity()) * size_of::<u64>()
            + self.pool.approx_bytes()
            + self.current.capacity() * size_of::<Value>()
            + self.parents.capacity() * size_of::<Vec<FactId>>()
            + self.parent_bytes
    }
}
