//! Growable `u32` lists packed into one flat arena.
//!
//! A [`SegmentArena`] stores many lists — a join index's rows per key, a
//! property graph's edge ids per node — as *segments* of a single
//! `Vec<u32>`, so no list owns a heap allocation. The owner keeps each
//! list's header, its arena offset and its length, beside its other
//! per-list state, and passes it to [`SegmentArena::segment`] and
//! [`SegmentArena::push`].
//!
//! A segment of `len` values has room for `len.next_power_of_two()`; an
//! empty one has no room, and its offset means nothing. A push into a full
//! segment grows it in place when it ends the arena, else moves it to the
//! end at twice the size; a push into an empty segment takes one slot at
//! the end. A list's abandoned segments sum to less than its live one, so
//! the arena stays under twice the live slots without compaction.

/// Variable-length `u32` lists in one arena (see the module docs).
#[derive(Debug, Default, Clone)]
pub struct SegmentArena {
    slots: Vec<u32>,
}

impl SegmentArena {
    /// The `len` values of the segment at `start`.
    #[inline]
    pub fn segment(&self, start: u64, len: u32) -> &[u32] {
        if len == 0 {
            return &[];
        }
        let start = start as usize;
        &self.slots[start..start + len as usize]
    }

    /// Append `value` to the segment at `*start` holding `*len` values,
    /// moving the segment (and updating `*start`) when it is full.
    pub fn push(&mut self, start: &mut u64, len: &mut u32, value: u32) {
        let n = *len as usize;
        if n == 0 || n.is_power_of_two() {
            // Full: open or double it at the arena's end.
            let at = *start as usize;
            let end = self.slots.len();
            if n == 0 {
                *start = end as u64;
            } else if at + n != end {
                self.slots.extend_from_within(at..at + n);
                *start = end as u64;
            }
            self.slots.resize(*start as usize + (2 * n).max(1), 0);
        }
        self.slots[*start as usize + n] = value;
        *len += 1;
    }

    /// Slots in the arena, abandoned ones included.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no segment ever held a value.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Heap bytes of the slot array.
    pub fn approx_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_segments_open_at_the_end_and_grow_in_place_there() {
        let mut a = SegmentArena::default();
        let (mut start, mut len) = (0u64, 0u32);
        assert_eq!(a.segment(start, len), &[] as &[u32]);
        for v in 0..100u32 {
            a.push(&mut start, &mut len, v);
        }
        assert_eq!(a.segment(start, len), (0..100).collect::<Vec<u32>>());
        assert_eq!(a.len(), 128, "grown in place: no abandoned slot");
    }

    #[test]
    fn interleaved_segments_move_and_stay_under_twice_the_live_slots() {
        let mut a = SegmentArena::default();
        let mut heads = vec![(0u64, 0u32); 50];
        for v in 0..5_000u32 {
            let (start, len) = &mut heads[(v as usize * 7) % 50];
            a.push(start, len, v);
        }
        for (i, &(start, len)) in heads.iter().enumerate() {
            let want: Vec<u32> = (0..5_000u32)
                .filter(|v| (*v as usize * 7) % 50 == i)
                .collect();
            assert_eq!(a.segment(start, len), want);
        }
        let live: usize = heads
            .iter()
            .map(|&(_, len)| (len as usize).next_power_of_two())
            .sum();
        assert!(a.len() > live, "segments moved");
        assert!(a.len() < 2 * live);
    }
}
