//! Open-addressing id tables over keys the caller stores itself.
//!
//! A [`SlotTable`] indexes dense `u32` ids (`0..n`) whose keys live in the
//! owner's own flat storage — the value pool's `vals`, the chase's
//! aggregate-group keys — so no key is ever stored a second time, as a
//! `HashMap` key would be. The caller hashes a key once, and the table
//! hands each candidate id back to a caller-supplied equality test.
//!
//! Layout: a power-of-two `Vec<u64>` with linear probing, kept at most 7/8
//! full (the idiom of the fact store's tuple-dedup table). Each occupied
//! slot packs the upper 32 bits of the key's hash — the *tag*, which also
//! picks the home slot — above the 32-bit id. A probe only calls the
//! equality test on a tag match, and growth re-places entries from their
//! tags alone, without touching or re-hashing any key.

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
        debug_assert!((id as usize) < Self::MAX_IDS, "id {id} is the empty marker");
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            let grown = vec![EMPTY; (self.slots.len() * 2).max(16)];
            for entry in std::mem::replace(&mut self.slots, grown) {
                if entry != EMPTY {
                    self.place(entry);
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
}
