//! Lock-free single-producer/single-consumer ring buffer.
//!
//! The separate-thread integration (§6, "modified from \[16\]" — the
//! `readerwriterqueue` FIFO) has the vswitchd PMD thread push sampled flow
//! keys into a shared buffer while the NitroSketch thread drains it. This is
//! a classic bounded SPSC ring: one atomic head, one atomic tail, power-of-
//! two capacity, acquire/release ordering, no locks on either side. Each side
//! additionally keeps a private snapshot of the peer's index so the hot path
//! (ring neither full nor empty) performs no cross-core acquire load at all;
//! the batched entry points amortise one refreshed snapshot over a whole
//! slice of items.

use std::cell::{Cell, UnsafeCell};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A bounded wait-free SPSC ring for `Copy` items.
///
/// Exactly one thread may call [`SpscRing::push`]/[`SpscRing::push_batch`]
/// and exactly one (other) thread [`SpscRing::pop`]/[`SpscRing::pop_batch`].
pub struct SpscRing<T: Copy> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot the producer writes (only the producer mutates).
    head: AtomicUsize,
    /// Next slot the consumer reads (only the consumer mutates).
    tail: AtomicUsize,
    /// Producer-private snapshot of `tail`: while it still proves free
    /// space, a push is one release store with no cross-core acquire load.
    cached_tail: Cell<usize>,
    /// Consumer-private snapshot of `head`: while it still proves queued
    /// items, a pop skips the acquire load of `head` the same way.
    cached_head: Cell<usize>,
}

// SAFETY: the SPSC discipline (one producer thread, one consumer thread)
// combined with acquire/release on head/tail guarantees each slot is
// accessed exclusively: the producer only writes slots in [head, tail+cap),
// the consumer only reads slots in [tail, head). The `Cell` caches are
// split by the same discipline: `cached_tail` is touched only by the
// producer and `cached_head` only by the consumer, and a stale cache is
// always conservative (it can under-report free space / queued items,
// never fabricate them).
unsafe impl<T: Copy + Send> Sync for SpscRing<T> {}
unsafe impl<T: Copy + Send> Send for SpscRing<T> {}

impl<T: Copy> SpscRing<T> {
    /// Create a ring with at least `capacity` slots (rounded up to a power
    /// of two, minimum 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        let buf: Vec<UnsafeCell<MaybeUninit<T>>> = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        Self {
            buf: buf.into_boxed_slice(),
            mask: cap - 1,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            cached_tail: Cell::new(0),
            cached_head: Cell::new(0),
        }
    }

    /// Slots in the ring.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Items currently queued (approximate under concurrency).
    pub fn len(&self) -> usize {
        self.head
            .load(Ordering::Acquire)
            .wrapping_sub(self.tail.load(Ordering::Acquire))
    }

    /// True when nothing is queued (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fill fraction in `[0, 1]` (approximate under concurrency) — the
    /// backpressure signal the supervised tap samples to decide when to
    /// request a sampling downshift instead of dropping.
    pub fn occupancy(&self) -> f64 {
        self.len() as f64 / self.buf.len() as f64
    }

    /// Producer: refresh the cached tail and return the free-slot count at
    /// `head`. Only called once the cache stops proving enough space.
    #[inline]
    fn producer_free(&self, head: usize) -> usize {
        self.cached_tail.set(self.tail.load(Ordering::Acquire));
        self.buf.len() - head.wrapping_sub(self.cached_tail.get())
    }

    /// Producer: enqueue one item; `false` when the ring is full (the
    /// caller counts it as a drop, as the paper's buffer would).
    #[inline]
    pub fn push(&self, item: T) -> bool {
        let head = self.head.load(Ordering::Relaxed);
        if head.wrapping_sub(self.cached_tail.get()) == self.buf.len()
            && self.producer_free(head) == 0
        {
            return false;
        }
        // SAFETY: slot `head` is past every index the consumer may read
        // (tail..head) and the producer is single-threaded.
        unsafe {
            (*self.buf[head & self.mask].get()).write(item);
        }
        self.head.store(head.wrapping_add(1), Ordering::Release);
        true
    }

    /// Producer: enqueue as many of `items` as fit; returns how many.
    pub fn push_batch(&self, items: &[T]) -> usize {
        let head = self.head.load(Ordering::Relaxed);
        let mut free = self.buf.len() - head.wrapping_sub(self.cached_tail.get());
        if free < items.len() {
            // The cache can only under-report free space; refresh it before
            // truncating the batch.
            free = self.producer_free(head);
        }
        let n = items.len().min(free);
        for (i, &item) in items[..n].iter().enumerate() {
            // SAFETY: as in `push`; all n slots are free.
            unsafe {
                (*self.buf[(head + i) & self.mask].get()).write(item);
            }
        }
        self.head.store(head.wrapping_add(n), Ordering::Release);
        n
    }

    /// Consumer: refresh the cached head and return the queued-item count
    /// at `tail`. Only called once the cache stops proving enough items.
    #[inline]
    fn consumer_avail(&self, tail: usize) -> usize {
        self.cached_head.set(self.head.load(Ordering::Acquire));
        self.cached_head.get().wrapping_sub(tail)
    }

    /// Consumer: dequeue one item.
    #[inline]
    pub fn pop(&self) -> Option<T> {
        let tail = self.tail.load(Ordering::Relaxed);
        if tail == self.cached_head.get() && self.consumer_avail(tail) == 0 {
            return None;
        }
        // SAFETY: slot `tail` was published by the producer's release store.
        let item = unsafe { (*self.buf[tail & self.mask].get()).assume_init() };
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        Some(item)
    }

    /// Consumer: dequeue up to `out.len()` items; returns how many were
    /// written to the front of `out`.
    pub fn pop_batch(&self, out: &mut [T]) -> usize {
        let tail = self.tail.load(Ordering::Relaxed);
        let mut avail = self.cached_head.get().wrapping_sub(tail);
        if avail < out.len() {
            // A stale cache only under-reports; refresh before truncating
            // the drain.
            avail = self.consumer_avail(tail);
        }
        let n = out.len().min(avail);
        for (i, slot) in out[..n].iter_mut().enumerate() {
            // SAFETY: slots tail..tail+n were published by the producer.
            *slot = unsafe { (*self.buf[(tail + i) & self.mask].get()).assume_init() };
        }
        self.tail.store(tail.wrapping_add(n), Ordering::Release);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_single_thread() {
        let r = SpscRing::new(8);
        for i in 0..8 {
            assert!(r.push(i));
        }
        assert!(!r.push(99), "ring should be full");
        for i in 0..8 {
            assert_eq!(r.pop(), Some(i));
        }
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn wraparound_works() {
        let r = SpscRing::new(4);
        for round in 0..100u64 {
            assert!(r.push(round));
            assert_eq!(r.pop(), Some(round));
        }
        assert!(r.is_empty());
    }

    #[test]
    fn batch_push_and_pop() {
        let r = SpscRing::new(16);
        let wrote = r.push_batch(&(0..20u64).collect::<Vec<_>>());
        assert_eq!(wrote, 16);
        let mut out = [0u64; 10];
        assert_eq!(r.pop_batch(&mut out), 10);
        assert_eq!(out, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(r.len(), 6);
    }

    #[test]
    fn capacity_rounds_up() {
        let r: SpscRing<u64> = SpscRing::new(100);
        assert_eq!(r.capacity(), 128);
    }

    #[test]
    fn cross_thread_transfer_is_lossless_and_ordered() {
        let r = Arc::new(SpscRing::<u64>::new(1024));
        let n = 1_000_000u64;
        let prod = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                let mut pushed = 0u64;
                while pushed < n {
                    if r.push(pushed) {
                        pushed += 1;
                    } else {
                        std::hint::spin_loop();
                    }
                }
            })
        };
        let cons = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                let mut expect = 0u64;
                let mut buf = [0u64; 64];
                while expect < n {
                    let got = r.pop_batch(&mut buf);
                    for &v in &buf[..got] {
                        assert_eq!(v, expect, "out of order");
                        expect += 1;
                    }
                    if got == 0 {
                        std::hint::spin_loop();
                    }
                }
            })
        };
        prod.join().unwrap();
        cons.join().unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn full_ring_reports_drops() {
        let r = SpscRing::new(4);
        let mut dropped = 0;
        for i in 0..10 {
            if !r.push(i) {
                dropped += 1;
            }
        }
        assert_eq!(dropped, 6);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn occupancy_tracks_fill_level() {
        let r = SpscRing::new(8);
        assert_eq!(r.occupancy(), 0.0);
        for i in 0..4 {
            r.push(i);
        }
        assert_eq!(r.occupancy(), 0.5);
        for i in 4..8 {
            r.push(i);
        }
        assert_eq!(r.occupancy(), 1.0);
        r.pop();
        assert_eq!(r.occupancy(), 7.0 / 8.0);
        // Occupancy stays in [0, 1] across index wraparound.
        for round in 0..100u64 {
            r.push(round);
            r.pop();
            let o = r.occupancy();
            assert!((0.0..=1.0).contains(&o), "occupancy {o}");
        }
    }

    #[test]
    fn batch_transfer_stress_across_capacities() {
        // Multi-thread stress: batched producer vs batched consumer at
        // several capacities (including tiny rings that wrap every few
        // pushes). Every item must arrive exactly once, in order. Blocked
        // sides yield rather than spin: on a single-core machine a spinning
        // peer would starve the other thread for whole scheduler quanta.
        for capacity in [2usize, 8, 64, 1024] {
            let r = Arc::new(SpscRing::<u64>::new(capacity));
            let n = if capacity < 64 { 20_000u64 } else { 200_000u64 };
            let prod = {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    let items: Vec<u64> = (0..n).collect();
                    let mut at = 0usize;
                    // Vary batch size so pushes land on every alignment
                    // relative to the ring boundary.
                    let mut size = 1usize;
                    while at < items.len() {
                        let end = (at + size).min(items.len());
                        let wrote = r.push_batch(&items[at..end]);
                        at += wrote;
                        if wrote == 0 {
                            std::thread::yield_now();
                        }
                        size = size % 7 + 1;
                    }
                })
            };
            let cons = {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    let mut expect = 0u64;
                    let mut buf = [0u64; 13];
                    while expect < n {
                        let got = r.pop_batch(&mut buf);
                        for &v in &buf[..got] {
                            assert_eq!(v, expect, "capacity {capacity}: out of order");
                            expect += 1;
                        }
                        if got == 0 {
                            std::thread::yield_now();
                        }
                    }
                })
            };
            prod.join().unwrap();
            cons.join().unwrap();
            assert!(r.is_empty(), "capacity {capacity}: residue left");
        }
    }

    #[test]
    fn mixed_scalar_and_batch_stress() {
        // Producer alternates push/push_batch while the consumer alternates
        // pop/pop_batch — the four entry points must compose safely.
        let r = Arc::new(SpscRing::<u64>::new(32));
        let n = 50_000u64;
        let prod = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                let mut next = 0u64;
                while next < n {
                    let progressed = if next.is_multiple_of(3) {
                        if r.push(next) {
                            next += 1;
                            true
                        } else {
                            false
                        }
                    } else {
                        let end = (next + 5).min(n);
                        let batch: Vec<u64> = (next..end).collect();
                        let wrote = r.push_batch(&batch) as u64;
                        next += wrote;
                        wrote > 0
                    };
                    if !progressed {
                        std::thread::yield_now();
                    }
                }
            })
        };
        let cons = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                let mut expect = 0u64;
                let mut buf = [0u64; 7];
                while expect < n {
                    let progressed = if expect.is_multiple_of(2) {
                        if let Some(v) = r.pop() {
                            assert_eq!(v, expect);
                            expect += 1;
                            true
                        } else {
                            false
                        }
                    } else {
                        let got = r.pop_batch(&mut buf);
                        for &v in &buf[..got] {
                            assert_eq!(v, expect);
                            expect += 1;
                        }
                        got > 0
                    };
                    if !progressed {
                        std::thread::yield_now();
                    }
                }
            })
        };
        prod.join().unwrap();
        cons.join().unwrap();
        assert!(r.is_empty());
    }
}
