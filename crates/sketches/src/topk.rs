//! Top-K key tracking — the "TopKeys" store of Fig. 7.
//!
//! Sketches answer *point* queries; to report heavy hitters one must also
//! remember *which* keys are heavy. The standard companion structure is a
//! size-bounded min-heap of `(key, estimate)` pairs with a hash index for
//! in-place estimate updates. The paper's bottleneck analysis charges this
//! structure the per-packet cost `P` (Table 2 shows `heap_find` + `heapify`
//! at ~15% CPU); NitroSketch only touches it on *sampled* updates, which is
//! Idea A's third saving.
//!
//! Implementation: an array-backed binary min-heap ordered by estimate, plus
//! a `HashMap<key, slot>` so `offer` can find and sift an existing key in
//! `O(log k)` without scanning.

use crate::fxmap::FlowKeyMap;
use crate::traits::FlowKey;

/// A bounded top-k tracker ordered by estimated weight.
#[derive(Clone, Debug)]
pub struct TopK {
    capacity: usize,
    /// Min-heap over estimates: `heap[0]` is the smallest tracked flow.
    heap: Vec<(FlowKey, f64)>,
    /// Key → heap slot (fast flow-key hashing — this map sits on the
    /// per-sampled-packet path).
    index: FlowKeyMap<usize>,
}

impl TopK {
    /// Create a tracker keeping at most `capacity` keys (`capacity ≥ 1`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "TopK capacity must be ≥ 1");
        Self {
            capacity,
            heap: Vec::with_capacity(capacity),
            index: FlowKeyMap::with_capacity_and_hasher(capacity * 2, Default::default()),
        }
    }

    /// Most keys tracked at once.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of keys currently tracked.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no keys are tracked.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The smallest tracked estimate (the admission threshold), or 0.
    pub fn min_estimate(&self) -> f64 {
        self.heap.first().map(|&(_, e)| e).unwrap_or(0.0)
    }

    /// Present `key` with a fresh `estimate`.
    ///
    /// - If tracked: update its estimate in place and restore heap order.
    /// - Else if there is room: insert.
    /// - Else if `estimate` beats the current minimum: evict the minimum.
    /// - Else: ignore.
    pub fn offer(&mut self, key: FlowKey, estimate: f64) {
        if let Some(&slot) = self.index.get(&key) {
            let old = self.heap[slot].1;
            self.heap[slot].1 = estimate;
            if estimate > old {
                self.sift_down(slot);
            } else {
                self.sift_up(slot);
            }
        } else if self.heap.len() < self.capacity {
            let slot = self.heap.len();
            self.heap.push((key, estimate));
            self.index.insert(key, slot);
            self.sift_up(slot);
        } else if estimate > self.heap[0].1 {
            let (evicted, _) = self.heap[0];
            self.index.remove(&evicted);
            self.heap[0] = (key, estimate);
            self.index.insert(key, 0);
            self.sift_down(0);
        }
    }

    /// The tracked estimate for `key`, if present.
    pub fn get(&self, key: FlowKey) -> Option<f64> {
        self.index.get(&key).map(|&slot| self.heap[slot].1)
    }

    /// All tracked `(key, estimate)` pairs in unspecified order.
    pub fn entries(&self) -> impl Iterator<Item = (FlowKey, f64)> + '_ {
        self.heap.iter().copied()
    }

    /// Tracked pairs sorted by estimate, heaviest first.
    pub fn sorted_desc(&self) -> Vec<(FlowKey, f64)> {
        let mut v: Vec<_> = self.heap.clone();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Remove everything.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.index.clear();
    }

    /// Approximate resident bytes (heap entries + index entries).
    pub fn memory_bytes(&self) -> usize {
        self.heap.capacity() * std::mem::size_of::<(FlowKey, f64)>()
            + self.index.capacity()
                * (std::mem::size_of::<FlowKey>() + std::mem::size_of::<usize>() + 8)
    }

    fn sift_up(&mut self, mut slot: usize) {
        while slot > 0 {
            let parent = (slot - 1) / 2;
            if self.heap[slot].1 < self.heap[parent].1 {
                self.swap_slots(slot, parent);
                slot = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut slot: usize) {
        loop {
            let l = 2 * slot + 1;
            let r = 2 * slot + 2;
            let mut smallest = slot;
            if l < self.heap.len() && self.heap[l].1 < self.heap[smallest].1 {
                smallest = l;
            }
            if r < self.heap.len() && self.heap[r].1 < self.heap[smallest].1 {
                smallest = r;
            }
            if smallest == slot {
                break;
            }
            self.swap_slots(slot, smallest);
            slot = smallest;
        }
    }

    fn swap_slots(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.index.insert(self.heap[a].0, a);
        self.index.insert(self.heap[b].0, b);
    }

    #[cfg(test)]
    fn check_invariants(&self) {
        assert_eq!(self.heap.len(), self.index.len());
        for (slot, &(k, e)) in self.heap.iter().enumerate() {
            assert_eq!(self.index[&k], slot, "index out of sync for key {k}");
            if slot > 0 {
                let parent = self.heap[(slot - 1) / 2].1;
                assert!(parent <= e, "heap order violated at slot {slot}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_heaviest_keys() {
        let mut t = TopK::new(3);
        for k in 0..10u64 {
            t.offer(k, k as f64);
            t.check_invariants();
        }
        let kept: Vec<u64> = t.sorted_desc().iter().map(|&(k, _)| k).collect();
        assert_eq!(kept, vec![9, 8, 7]);
    }

    #[test]
    fn updates_existing_key_in_place() {
        let mut t = TopK::new(3);
        t.offer(1, 1.0);
        t.offer(2, 2.0);
        t.offer(3, 3.0);
        t.offer(1, 10.0); // promote the minimum
        t.check_invariants();
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(1), Some(10.0));
        assert_eq!(t.min_estimate(), 2.0);
    }

    #[test]
    fn downgrade_restores_order() {
        let mut t = TopK::new(4);
        for k in 1..=4u64 {
            t.offer(k, 10.0 * k as f64);
        }
        t.offer(4, 1.0); // demote the maximum below everyone
        t.check_invariants();
        assert_eq!(t.min_estimate(), 1.0);
    }

    #[test]
    fn rejects_small_keys_when_full() {
        let mut t = TopK::new(2);
        t.offer(1, 100.0);
        t.offer(2, 200.0);
        t.offer(3, 50.0); // below the min — ignored
        t.check_invariants();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(3), None);
        assert_eq!(t.get(1), Some(100.0));
    }

    #[test]
    fn eviction_removes_index_entry() {
        let mut t = TopK::new(1);
        t.offer(1, 1.0);
        t.offer(2, 2.0);
        t.check_invariants();
        assert_eq!(t.get(1), None);
        assert_eq!(t.get(2), Some(2.0));
    }

    #[test]
    fn randomized_against_reference() {
        // Compare against a naive "sort the final estimates" model where
        // every key's *latest* estimate only grows (monotone offers, as the
        // sketch-driven usage produces).
        let mut t = TopK::new(16);
        let mut latest: HashMap<u64, f64> = HashMap::new();
        let mut rng = nitro_hash::Xoshiro256StarStar::new(9);
        for _ in 0..20_000 {
            let k = rng.next_range(200);
            let e = latest.get(&k).copied().unwrap_or(0.0) + rng.next_f64() * 5.0;
            latest.insert(k, e);
            t.offer(k, e);
        }
        t.check_invariants();
        // Every key the tracker holds must report its latest offered value…
        for (k, e) in t.entries() {
            assert_eq!(e, latest[&k], "stale estimate for {k}");
        }
        // …and the tracker's minimum must be ≥ the 16th-largest latest value
        // times a slack factor (monotone offers can transiently shuffle
        // membership, but not by much).
        let mut vals: Vec<f64> = latest.values().copied().collect();
        vals.sort_by(|a, b| b.total_cmp(a));
        assert!(t.min_estimate() >= vals[15] * 0.5);
    }

    #[test]
    fn clear_empties() {
        let mut t = TopK::new(4);
        t.offer(1, 1.0);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.min_estimate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        TopK::new(0);
    }

    use std::collections::HashMap;
}
