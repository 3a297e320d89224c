//! Open-addressing id tables over keys the caller stores itself.
//!
//! A [`SlotTable`] indexes dense `u32` ids (`0..n`) whose keys live in the
//! owner's own flat storage — the value pool's `vals`, the chase's
//! aggregate-group keys, the fact store's columns (tuple dedup and join-index
//! keys) — so no key is ever stored a second time, as a `HashMap` key would
//! be. The caller hashes a key once, and the table hands each candidate id
//! back to a caller-supplied equality test.
//!
//! Layout: a power-of-two `Vec<u64>` with linear probing, kept at most 7/8
//! full. Each occupied slot packs the upper 32 bits of the key's hash — the
//! *tag*, which also picks the home slot — above the 32-bit id. A probe only
//! calls the equality test on a tag match, and growth re-places entries from
//! their tags alone, without touching or re-hashing any key (an owner whose
//! ids can die may drop them there, see [`SlotTable::insert_keeping`]).

/// Empty-slot marker. An occupied slot never equals it because ids stop
/// short of `u32::MAX` ([`SlotTable::MAX_IDS`]).
const EMPTY: u64 = u64::MAX;

/// An open-addressing index of `u32` ids keyed by caller-computed hashes
/// (see the module docs).
#[derive(Debug, Default, Clone)]
pub struct SlotTable {
    slots: Vec<u64>,
    /// Ids stored.
    len: usize,
}

impl SlotTable {
    /// Most ids one table can hold: ids run `0..MAX_IDS`, because id
    /// `u32::MAX` would make an occupied slot look empty. Owners turn an
    /// id at the cap into a structured error before inserting it.
    pub const MAX_IDS: usize = u32::MAX as usize;

    /// The first stored id under `hash` whose key `is_key` accepts.
    #[inline]
    pub fn find(&self, hash: u64, mut is_key: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let tag = hash >> 32;
        let mask = self.slots.len() - 1;
        let mut i = tag as usize & mask;
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                return None;
            }
            if s >> 32 == tag && is_key(s as u32) {
                return Some(s as u32);
            }
            i = (i + 1) & mask;
        }
    }

    /// Store `id` under `hash`. The caller has checked (with
    /// [`SlotTable::find`]) that no equal key is stored, and keeps ids
    /// under [`SlotTable::MAX_IDS`].
    pub fn insert(&mut self, hash: u64, id: u32) {
        self.insert_keeping(hash, id, |_| true);
    }

    /// [`SlotTable::insert`] for owners whose ids can die: when this insert
    /// grows the table, stored ids that `keep` rejects are not re-placed,
    /// so growth is when their slots are reclaimed.
    pub fn insert_keeping(&mut self, hash: u64, id: u32, mut keep: impl FnMut(u32) -> bool) {
        debug_assert!((id as usize) < Self::MAX_IDS, "id {id} is the empty marker");
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            let grown = vec![EMPTY; (self.slots.len() * 2).max(16)];
            for entry in std::mem::replace(&mut self.slots, grown) {
                if entry == EMPTY {
                    continue;
                }
                if keep(entry as u32) {
                    self.place(entry);
                } else {
                    self.len -= 1;
                }
            }
        }
        self.place((hash >> 32 << 32) | id as u64);
        self.len += 1;
    }

    /// Put a packed entry into the first free slot from its home slot.
    fn place(&mut self, entry: u64) {
        let mask = self.slots.len() - 1;
        let mut i = (entry >> 32) as usize & mask;
        while self.slots[i] != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = entry;
    }

    /// Heap bytes of the slot array.
    pub fn approx_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::fx_hash_one;

    #[test]
    fn finds_every_id_across_growth() {
        let keys: Vec<u64> = (0..10_000u64).map(|i| i * 7919).collect();
        let mut t = SlotTable::default();
        for (id, k) in keys.iter().enumerate() {
            assert_eq!(t.find(fx_hash_one(k), |i| keys[i as usize] == *k), None);
            t.insert(fx_hash_one(k), id as u32);
        }
        for (id, k) in keys.iter().enumerate() {
            assert_eq!(
                t.find(fx_hash_one(k), |i| keys[i as usize] == *k),
                Some(id as u32)
            );
        }
        assert_eq!(t.find(fx_hash_one(&3u64), |i| keys[i as usize] == 3), None);
        assert!(t.approx_bytes() >= keys.len() * 8 * 8 / 7);
    }

    #[test]
    fn equal_hashes_are_told_apart_by_the_key_test() {
        // One hash for every key: the table degenerates to a linear scan
        // but still answers exactly.
        let keys = ["a", "b", "c", "d"];
        let mut t = SlotTable::default();
        for id in 0..keys.len() as u32 {
            t.insert(42 << 32, id);
        }
        for (id, k) in keys.iter().enumerate() {
            assert_eq!(
                t.find(42 << 32, |i| keys[i as usize] == *k),
                Some(id as u32)
            );
        }
        assert_eq!(t.find(42 << 32, |_| false), None);
        assert_eq!(t.find(7 << 32, |_| true), None, "another tag never matches");
    }

    #[test]
    fn growth_drops_the_ids_keep_rejects() {
        let hash = |id: u32| fx_hash_one(&id);
        let mut t = SlotTable::default();
        for id in 0..14u32 {
            t.insert(hash(id), id);
        }
        assert_eq!(t.approx_bytes(), 16 * 8, "14 of 16 slots: no growth yet");
        // The 15th id crosses 7/8 load; the odd ids are dropped as it grows.
        t.insert_keeping(hash(14), 14, |id| id % 2 == 0);
        assert_eq!(t.approx_bytes(), 32 * 8);
        assert_eq!(t.len, 8);
        for id in 0..15u32 {
            let found = t.find(hash(id), |i| i == id);
            assert_eq!(found.is_some(), id % 2 == 0, "id {id}");
        }
    }
}
