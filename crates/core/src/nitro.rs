//! The generic NitroSketch wrapper — Algorithm 1 of the paper.
//!
//! `NitroSketch<S>` owns a [`RowSketch`] and decides, via one geometric skip
//! sequence, which `(packet, row)` slots update counters. At `p = 1` it is
//! bit-identical to the vanilla sketch; at `p < 1` each row update carries
//! weight `p⁻¹·g_r(key)` so every counter remains an unbiased estimator
//! (Theorem 2). Heavy-key tracking (the `P` bottleneck) only runs on sampled
//! packets.

use crate::mode::{Decision, Mode, ModeState};
use nitro_hash::GeometricSampler;
use nitro_sketches::checkpoint::{Decoder, Encoder};
use nitro_sketches::{Checkpoint, CheckpointError, DirtyLines, FlowKey, RowSketch, Slot, TopK};

/// Operation counters — the reproduction's stand-in for VTune's per-function
/// CPU shares (Table 2) and the basis of the cost model in `nitro-switch`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NitroStats {
    /// Packets offered to the wrapper.
    pub packets: u64,
    /// Packets that performed at least one row update.
    pub sampled_packets: u64,
    /// Individual row updates (= hash computations = counter updates).
    pub row_updates: u64,
    /// Top-k heap operations performed.
    pub heap_updates: u64,
    /// Packets rejected before any counter was touched (non-finite weight —
    /// a NaN multiplied into a counter would poison every later estimate).
    pub rejected: u64,
    /// Backpressure downshifts applied ([`NitroSketch::downshift`]).
    pub downshifts: u64,
}

/// A sketch accelerated by NitroSketch's counter-array sampling.
///
/// ```
/// use nitro_core::{Mode, NitroSketch};
/// use nitro_sketches::CountSketch;
///
/// let mut nitro = NitroSketch::new(
///     CountSketch::new(5, 4096, 1),
///     Mode::Fixed { p: 0.05 },
///     2,
/// );
/// for _ in 0..10_000 {
///     nitro.process(42, 1.0);
/// }
/// // ~5% of (packet, row) slots updated, estimate still on target.
/// assert!(nitro.stats().row_updates < 4_000);
/// let est = nitro.estimate(42);
/// assert!((est - 10_000.0).abs() / 10_000.0 < 0.1);
/// ```
#[derive(Clone, Debug)]
pub struct NitroSketch<S: RowSketch> {
    sketch: S,
    sched: Schedule,
    mode: ModeState,
    topk: Option<TopK>,
    stats: NitroStats,
    /// Slot table: `depth` slots per sampled packet of the burst in hand
    /// (one packet's on the scalar path). Only scheduled rows' are filled
    /// unless top-k is on, whose estimate reads them all.
    slots: Vec<Slot>,
    /// Per row, the ordinals (into `sampled_keys` and `slots`) of the
    /// buffered packets scheduled for it: the batched path's staging
    /// (Idea D), applied row by row at flush.
    row_ords: Vec<Vec<u32>>,
    /// Keys sampled in the current batch (for deferred heap maintenance).
    sampled_keys: Vec<FlowKey>,
}

/// The geometric skip schedule over row-major `(packet, row)` slots
/// (Algorithm 1): which packets are sampled, and which of their rows.
#[derive(Clone, Debug)]
struct Schedule {
    sampler: GeometricSampler,
    /// Packets to pass untouched before the next sampled packet.
    skip: u64,
    /// Row scheduled for the next update.
    next_row: usize,
    /// `p⁻¹` captured when the pending skip was drawn, so updates stay
    /// unbiased across adaptive probability changes.
    pending_pinv: f64,
}

impl Schedule {
    /// Draw a fresh schedule. Algorithm 1 line 4: r ← −1, so the first
    /// draw lands on slot g − 1 in row-major (packet, row) order.
    fn restart(&mut self, depth: usize) {
        let pos = self.sampler.next_skip() - 1;
        self.skip = pos / depth as u64;
        self.next_row = (pos % depth as u64) as usize;
        self.pending_pinv = 1.0 / self.sampler.p();
    }

    /// Call `visit(row, p⁻¹)` for each row scheduled for the sampled packet
    /// in hand, in increasing row order, and advance past the packet.
    #[inline]
    fn each_row(&mut self, depth: usize, mut visit: impl FnMut(usize, f64)) {
        let depth = depth as u64;
        loop {
            visit(self.next_row, self.pending_pinv);
            let g = self.sampler.next_skip();
            self.pending_pinv = 1.0 / self.sampler.p();
            let pos = self.next_row as u64 + g;
            if pos < depth {
                // Same packet, later row (Fig. 5's "skip three arrays,
                // update Array 5").
                self.next_row = pos as usize;
            } else {
                self.skip = pos / depth - 1;
                self.next_row = (pos % depth) as usize;
                break;
            }
        }
    }
}

impl<S: RowSketch> NitroSketch<S> {
    /// Wrap `sketch` under the given sampling `mode`; `seed` drives the
    /// geometric skip sequence.
    pub fn new(sketch: S, mode: Mode, seed: u64) -> Self {
        let depth = sketch.depth();
        assert!(depth >= 1);
        let mode = ModeState::new(mode, depth);
        let mut sched = Schedule {
            sampler: GeometricSampler::new(mode.p(), seed),
            skip: 0,
            next_row: 0,
            pending_pinv: 1.0,
        };
        sched.restart(depth);
        Self {
            sched,
            topk: None,
            stats: NitroStats::default(),
            slots: vec![Slot::default(); depth],
            row_ords: vec![Vec::new(); depth],
            sampled_keys: Vec::new(),
            sketch,
            mode,
        }
    }

    /// Enable top-k heavy-key tracking with `k` slots.
    pub fn with_topk(mut self, k: usize) -> Self {
        self.topk = Some(TopK::new(k));
        self
    }

    /// Process one packet (no trace clock — fixed and always-correct modes).
    /// Returns whether the packet updated any counter.
    #[inline]
    pub fn process(&mut self, key: FlowKey, weight: f64) -> bool {
        self.process_inner(key, weight, None)
    }

    /// Process one packet with its trace timestamp (nanoseconds) so
    /// AlwaysLineRate can measure the arrival rate.
    #[inline]
    pub fn process_ts(&mut self, key: FlowKey, weight: f64, ts_ns: u64) -> bool {
        self.process_inner(key, weight, Some(ts_ns))
    }

    fn handle_decision(&mut self, d: Decision) {
        match d {
            Decision::None => {}
            Decision::Reconfigure => {
                self.sched.sampler.set_p(self.mode.p());
            }
            Decision::CheckConvergence => {
                let t = self
                    .mode
                    .convergence_threshold()
                    .expect("CheckConvergence only in AlwaysCorrect mode");
                if self.sketch.l2_squared_estimate() > t {
                    let p = self.mode.mark_converged();
                    self.sched.sampler.set_p(p);
                }
            }
        }
    }

    fn process_inner(&mut self, key: FlowKey, weight: f64, ts_ns: Option<u64>) -> bool {
        if !weight.is_finite() {
            self.stats.rejected += 1;
            return false;
        }
        let d = self.mode.on_packet(ts_ns);
        self.handle_decision(d);
        self.stats.packets += 1;
        if self.sched.skip > 0 {
            self.sched.skip -= 1;
            return false;
        }
        // Each slot is computed once: for the update of a scheduled row and,
        // with top-k on, for the estimate over all rows that follows.
        let depth = self.sketch.depth();
        let all_rows = self.topk.is_some();
        // A burst may have left the table any length, empty included.
        self.slots.resize(depth, Slot::default());
        let slots = &mut self.slots[..];
        if all_rows {
            for (r, slot) in slots.iter_mut().enumerate() {
                *slot = self.sketch.slot(r, key);
            }
        }
        let (sketch, stats) = (&mut self.sketch, &mut self.stats);
        self.sched.each_row(depth, |r, pinv| {
            if !all_rows {
                slots[r] = sketch.slot(r, key);
            }
            sketch.add_at(r, [slots[r]], weight * pinv);
            stats.row_updates += 1;
        });
        self.stats.sampled_packets += 1;
        if let Some(topk) = &mut self.topk {
            topk.offer(key, self.sketch.estimate_at(slots));
            self.stats.heap_updates += 1;
        }
        true
    }

    /// Process a batch of packets with buffered counter updates — the
    /// paper's Idea D. Counter state is identical to calling
    /// [`Self::process`] per packet when `p` is constant over the batch
    /// (always true in `Fixed` mode; adaptive modes flush at boundaries).
    ///
    /// Returns the number of sampled packets in the batch.
    pub fn process_batch(&mut self, keys: &[FlowKey], weight: f64) -> usize {
        self.process_batch_inner(keys, weight, None)
    }

    /// Batched processing with a trace timestamp for the whole burst, so
    /// AlwaysLineRate can measure the arrival rate (batch-granular, which
    /// is how the DPDK integration observes time anyway).
    pub fn process_batch_ts(&mut self, keys: &[FlowKey], weight: f64, ts_ns: u64) -> usize {
        self.process_batch_inner(keys, weight, Some(ts_ns))
    }

    fn process_batch_inner(&mut self, keys: &[FlowKey], weight: f64, ts_ns: Option<u64>) -> usize {
        if !weight.is_finite() {
            self.stats.rejected += keys.len() as u64;
            return 0;
        }
        let depth = self.sketch.depth();
        let all_rows = self.topk.is_some();
        self.sampled_keys.clear();
        self.slots.clear();
        // The batched path holds p constant between flushes (each decision
        // flushes first), so one p⁻¹ covers everything buffered.
        let mut pinv_in_flight = self.sched.pending_pinv;

        for &key in keys {
            let d = self.mode.on_packet(ts_ns);
            if d != Decision::None {
                // p may change: flush what we buffered under the old p.
                self.flush_rows(pinv_in_flight * weight);
                self.handle_decision(d);
                pinv_in_flight = self.sched.pending_pinv;
            }
            self.stats.packets += 1;
            if self.sched.skip > 0 {
                self.sched.skip -= 1;
                continue;
            }
            let ord = self.sampled_keys.len() as u32;
            self.sampled_keys.push(key);
            let base = self.slots.len();
            self.slots.resize(base + depth, Slot::default());
            let slots = &mut self.slots[base..];
            if all_rows {
                for (r, slot) in slots.iter_mut().enumerate() {
                    *slot = self.sketch.slot(r, key);
                }
            }
            let (sketch, row_ords) = (&self.sketch, &mut self.row_ords);
            self.sched.each_row(depth, |r, _| {
                if !all_rows {
                    slots[r] = sketch.slot(r, key);
                }
                row_ords[r].push(ord);
            });
        }
        self.flush_rows(pinv_in_flight * weight);

        // Deferred heap maintenance: one estimate per sampled packet, after
        // the counters landed (same ordering as the paper's Fig. 7 step 4),
        // read through the slots the updates used.
        let sampled = self.sampled_keys.len();
        self.stats.sampled_packets += sampled as u64;
        if let Some(topk) = &mut self.topk {
            for (&key, slots) in self.sampled_keys.iter().zip(self.slots.chunks(depth)) {
                topk.offer(key, self.sketch.estimate_at(slots));
                self.stats.heap_updates += 1;
            }
        }
        sampled
    }

    /// Apply the buffered updates row by row, each row's in packet order.
    fn flush_rows(&mut self, delta: f64) {
        let depth = self.sketch.depth();
        for (r, ords) in self.row_ords.iter_mut().enumerate() {
            if ords.is_empty() {
                continue;
            }
            let slots = &self.slots;
            let at = ords.iter().map(|&o| slots[o as usize * depth + r]);
            self.sketch.add_at(r, at, delta);
            self.stats.row_updates += ords.len() as u64;
            ords.clear();
        }
    }

    /// Sampling-robust frequency estimate (Alg. 1 `Query`).
    pub fn estimate(&self, key: FlowKey) -> f64 {
        self.sketch.estimate_robust(key)
    }

    /// Tracked heavy hitters with fresh estimates ≥ `threshold`, heaviest
    /// first. Requires [`Self::with_topk`].
    pub fn heavy_hitters(&self, threshold: f64) -> Vec<(FlowKey, f64)> {
        let Some(topk) = &self.topk else {
            return Vec::new();
        };
        let mut out: Vec<(FlowKey, f64)> = topk
            .entries()
            .map(|(k, _)| (k, self.sketch.estimate_robust(k)))
            .filter(|&(_, e)| e >= threshold)
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// The wrapped sketch.
    pub fn inner(&self) -> &S {
        &self.sketch
    }

    /// The wrapped sketch, mutable (control-plane operations).
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.sketch
    }

    /// Unwrap into the underlying sketch (e.g. to subtract two epochs'
    /// K-ary grids in change detection).
    pub fn into_inner(self) -> S {
        self.sketch
    }

    /// Current sampling probability.
    pub fn p(&self) -> f64 {
        self.mode.p()
    }

    /// The sampling discipline's parameter-independent discriminant
    /// (telemetry gauge).
    pub fn mode_kind(&self) -> crate::mode::ModeKind {
        self.mode.mode().kind()
    }

    /// Whether guarantees currently hold (AlwaysCorrect: always true by
    /// construction; other modes: true once enough packets arrived — the
    /// controller's view).
    pub fn converged(&self) -> bool {
        self.mode.converged()
    }

    /// Operation counters.
    pub fn stats(&self) -> NitroStats {
        self.stats
    }

    /// The heavy-key tracker, if enabled.
    pub fn topk(&self) -> Option<&TopK> {
        self.topk.as_ref()
    }

    /// Reset counters, heap, statistics, and the skip schedule (the mode
    /// state persists: an adaptive controller keeps its learned rate).
    pub fn clear(&mut self) {
        self.sketch.clear_rows();
        if let Some(t) = &mut self.topk {
            t.clear();
        }
        self.stats = NitroStats::default();
        self.sched.restart(self.sketch.depth());
    }

    /// Resident bytes (sketch + heap).
    pub fn memory_bytes(&self) -> usize {
        self.sketch.row_memory_bytes() + self.topk.as_ref().map_or(0, |t| t.memory_bytes())
    }

    /// Backpressure downshift: drop the sampling probability one grid step
    /// (see [`ModeState::downshift`]) so an overloaded consumer sheds work
    /// instead of dropping packets. Returns the new `p` if it changed.
    pub fn downshift(&mut self) -> Option<f64> {
        let new_p = self.mode.downshift()?;
        self.sched.sampler.set_p(new_p);
        self.stats.downshifts += 1;
        Some(new_p)
    }

    /// Timestamps clamped forward because they ran backwards (see
    /// [`ModeState::ts_clamped`]).
    pub fn ts_clamped(&self) -> u64 {
        self.mode.ts_clamped()
    }

    /// Collision-skew measurement of the wrapped sketch (one O(d·w) scan;
    /// control-plane only — the pipeline samples this on epoch views).
    pub fn skew(&self) -> crate::anomaly::SkewEstimate {
        crate::anomaly::SkewEstimate::measure(&self.sketch)
    }

    /// Carry another instance's measurement across a **seed rotation**: the
    /// peers share geometry but *not* hash seeds, so counters cannot merge
    /// bit-for-bit ([`Self::try_merge_from`] correctly rejects that). What
    /// survives a rotation instead is the decoded view — each key tracked
    /// by `other`'s heavy-key tracker is re-inserted here at its decoded
    /// robust estimate (a vanilla full-row update under *this* instance's
    /// fresh seeds), and the operation statistics add so fleet accounting
    /// stays exact. The untracked tail is intentionally dropped: it is
    /// bounded by the tracker's admission threshold, and dropping it is
    /// what evicts the attacker's colliding junk.
    ///
    /// Requires matching geometry; returns the number of keys folded.
    pub fn fold_decoded_from(&mut self, other: &Self) -> Result<usize, CheckpointError> {
        if self.sketch.depth() != other.sketch.depth() {
            return Err(CheckpointError::Mismatch("depth"));
        }
        if self.sketch.width() != other.sketch.width() {
            return Err(CheckpointError::Mismatch("width"));
        }
        let entries: Vec<(FlowKey, f64)> = other
            .topk
            .as_ref()
            .map_or_else(Vec::new, |t| t.entries().collect());
        for &(key, _) in &entries {
            let est = other.sketch.estimate_robust(key);
            if !(est.is_finite() && est > 0.0) {
                continue;
            }
            for row in 0..self.sketch.depth() {
                self.sketch.update_row(row, key, est);
            }
            self.stats.row_updates += self.sketch.depth() as u64;
            if let Some(mine) = &mut self.topk {
                let merged = self.sketch.estimate_robust(key);
                mine.offer(key, merged);
            }
        }
        self.stats.packets += other.stats.packets;
        self.stats.sampled_packets += other.stats.sampled_packets;
        self.stats.heap_updates += other.stats.heap_updates;
        self.stats.rejected += other.stats.rejected;
        self.stats.downshifts += other.stats.downshifts;
        Ok(entries.len())
    }
}

/// "NSCK" — NitroSketch wrapper checkpoint magic.
const NITRO_MAGIC: u32 = 0x4E53_434B;

impl<S: RowSketch + Checkpoint> NitroSketch<S> {
    /// Serialize the full measurement state — controller, statistics,
    /// heavy-key tracker, and the wrapped sketch — for supervisor
    /// checkpointing. Restoring on a parameter-compatible instance resumes
    /// measurement with at most the traffic since the snapshot missing.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.snapshot_into(&mut out);
        out
    }

    /// [`Self::snapshot`] appended to `out` — one pass over the counters
    /// and, into a cleared recycled buffer, no allocation: the wrapped
    /// sketch writes its blob in place behind a back-patched length.
    pub fn snapshot_into(&self, out: &mut Vec<u8>) {
        let at = out.len();
        self.write_image(out, at, None);
    }

    /// [`Checkpoint::write_image`] for the whole measurement: the head —
    /// controller, statistics and heavy-key table, 16 KB at 1 024 tracked
    /// keys — is re-encoded in place, and the wrapped sketch patches its counter
    /// tail. When the head's length changed since the older image (the
    /// top-k table grew or was cleared), the sketch finds its tail out of
    /// place and writes every counter: the full encode.
    pub fn write_image(&self, out: &mut Vec<u8>, at: usize, dirty: Option<&DirtyLines>) {
        let mut e = Encoder::at(out, at, NITRO_MAGIC);
        let mode = self.mode.export();
        e.f64(mode.p).u8(mode.converged as u8).u64(mode.packets);
        e.u64(self.stats.packets)
            .u64(self.stats.sampled_packets)
            .u64(self.stats.row_updates)
            .u64(self.stats.heap_updates)
            .u64(self.stats.rejected)
            .u64(self.stats.downshifts);
        e.u8(self.topk.is_some() as u8);
        e.u32(self.topk.as_ref().map_or(0, TopK::len) as u32);
        for (k, est) in self.topk.iter().flat_map(TopK::entries) {
            e.u64(k).f64(est);
        }
        e.nested(|out, at| self.sketch.write_image(out, at, dirty));
    }

    /// The wrapped sketch's [`Checkpoint::take_dirty`]: only its counters
    /// are tracked, the head is always rewritten.
    pub fn take_dirty(&mut self, into: &mut DirtyLines) {
        self.sketch.take_dirty(into);
    }

    /// Restore a [`Self::snapshot`] into this instance. The receiver must
    /// wrap a parameter-compatible sketch (the inner restore verifies
    /// geometry and seeds). The skip schedule is redrawn under the restored
    /// `p` — the schedule is sampling state, not measurement state, so a
    /// fresh draw preserves unbiasedness.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let mut d = Decoder::new(bytes, NITRO_MAGIC)?;
        let mode = crate::mode::ModeCheckpoint {
            p: d.f64()?,
            converged: d.u8()? != 0,
            packets: d.u64()?,
        };
        // A corrupt probability would poison the sampler (its setter
        // asserts the range); reject it as malformed input instead.
        if !(mode.p > 0.0 && mode.p <= 1.0) {
            return Err(CheckpointError::Malformed("sampling probability"));
        }
        let stats = NitroStats {
            packets: d.u64()?,
            sampled_packets: d.u64()?,
            row_updates: d.u64()?,
            heap_updates: d.u64()?,
            rejected: d.u64()?,
            downshifts: d.u64()?,
        };
        // Checked before the first write: everything below the inner
        // restore commits, and an error must leave `self` untouched.
        let had_topk = d.u8()? != 0;
        if had_topk && self.topk.is_none() {
            return Err(CheckpointError::Mismatch("top-k tracker"));
        }
        // Bound the entry count by the bytes actually present before
        // reserving: a corrupt count must fail, not amplify into a
        // multi-gigabyte allocation.
        let n_raw = d.u32()? as usize;
        let n_topk = d.counted(n_raw, 16)?;
        let mut topk_entries = Vec::with_capacity(n_topk);
        for _ in 0..n_topk {
            topk_entries.push((d.u64()?, d.f64()?));
        }
        // Inner sketch last: it decodes into the live counters, but only
        // after its own checks passed — the last point this can fail.
        self.sketch.restore(d.bytes()?)?;
        self.mode.import(mode);
        self.stats = stats;
        if let Some(t) = &mut self.topk {
            t.clear();
            for (k, est) in topk_entries {
                t.offer(k, est);
            }
        }
        self.sched.sampler.set_p(mode.p);
        self.sched.restart(self.sketch.depth());
        Ok(())
    }

    /// Fold another instance's measurement into this one, verifying merge
    /// compatibility first: the wrapped sketches must agree on geometry and
    /// per-row hash seeds, or counters from different hash spaces would be
    /// silently summed into garbage. On error `self` is untouched.
    ///
    /// This is the entry point the sharded query plane uses when folding
    /// per-shard snapshots into the merged epoch view.
    pub fn try_merge_from(&mut self, other: &Self) -> Result<(), CheckpointError> {
        self.sketch.merge_compatible(&other.sketch)?;
        self.merge_from(other);
        Ok(())
    }

    /// Fold another instance's measurement into this one: counters merge by
    /// linearity, statistics add, and the heavy-key tracker re-offers the
    /// other's tracked keys under merged estimates.
    ///
    /// # Panics
    /// Panics if the wrapped sketches are parameter-incompatible; prefer
    /// [`Self::try_merge_from`] when the peer's provenance is not
    /// statically known.
    pub fn merge_from(&mut self, other: &Self) {
        self.sketch.merge_from(&other.sketch);
        self.stats.packets += other.stats.packets;
        self.stats.sampled_packets += other.stats.sampled_packets;
        self.stats.row_updates += other.stats.row_updates;
        self.stats.heap_updates += other.stats.heap_updates;
        self.stats.rejected += other.stats.rejected;
        self.stats.downshifts += other.stats.downshifts;
        if let (Some(mine), Some(theirs)) = (&mut self.topk, other.topk.as_ref()) {
            let keys: Vec<FlowKey> = theirs.entries().map(|(k, _)| k).collect();
            for k in keys {
                let est = self.sketch.estimate_robust(k);
                mine.offer(k, est);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nitro_sketches::{CountMin, CountSketch, KarySketch, Sketch};
    use std::collections::HashMap;

    fn skewed_stream(n: usize, flows: u64, seed: u64) -> Vec<u64> {
        let mut rng = nitro_hash::Xoshiro256StarStar::new(seed);
        (0..n)
            .map(|_| ((flows as f64) * rng.next_f64().powi(4)) as u64)
            .collect()
    }

    fn truth_of(stream: &[u64]) -> HashMap<u64, f64> {
        let mut t = HashMap::new();
        for &k in stream {
            *t.entry(k).or_insert(0.0) += 1.0;
        }
        t
    }

    #[test]
    fn p_one_is_bit_identical_to_vanilla() {
        let mut vanilla = CountSketch::new(5, 256, 7);
        let mut nitro = NitroSketch::new(CountSketch::new(5, 256, 7), Mode::Fixed { p: 1.0 }, 1);
        let stream = skewed_stream(10_000, 500, 2);
        for &k in &stream {
            vanilla.update(k, 1.0);
            nitro.process(k, 1.0);
        }
        for k in 0..500u64 {
            assert_eq!(vanilla.estimate(k), nitro.estimate(k), "key {k}");
        }
        let s = nitro.stats();
        assert_eq!(s.packets, 10_000);
        assert_eq!(s.sampled_packets, 10_000);
        assert_eq!(s.row_updates, 50_000);
    }

    #[test]
    fn sampling_rate_controls_work() {
        let p = 0.05;
        let mut nitro = NitroSketch::new(CountSketch::new(5, 4096, 3), Mode::Fixed { p }, 4);
        let n = 200_000;
        for i in 0..n {
            nitro.process(i % 1000, 1.0);
        }
        let s = nitro.stats();
        let expected_updates = p * (n * 5) as f64;
        let ratio = s.row_updates as f64 / expected_updates;
        assert!((0.9..1.1).contains(&ratio), "row updates {}", s.row_updates);
        // Sampled packets ≤ row updates, and far fewer than total packets.
        assert!(s.sampled_packets < n / 4);
    }

    #[test]
    fn estimates_unbiased_under_sampling() {
        // Mean estimate over independent seeds ≈ truth for a heavy flow.
        let mut total = 0.0;
        let trials = 30;
        let per_flow = 2000u64;
        for seed in 0..trials {
            let mut nitro = NitroSketch::new(
                CountSketch::new(5, 8192, 100 + seed),
                Mode::Fixed { p: 0.02 },
                seed,
            );
            for i in 0..per_flow * 10 {
                nitro.process(i % 10, 1.0); // 10 flows, 2000 packets each
            }
            total += nitro.estimate(3);
        }
        let mean = total / trials as f64;
        let rel = (mean - per_flow as f64).abs() / per_flow as f64;
        assert!(rel < 0.05, "mean estimate {mean} vs {per_flow}");
    }

    #[test]
    fn accuracy_close_to_vanilla_after_convergence() {
        // The paper's headline: sampled accuracy ≈ vanilla accuracy once
        // enough packets are seen (Fig. 11/12).
        let stream = skewed_stream(400_000, 2000, 5);
        let truth = truth_of(&stream);
        let mut vanilla = CountSketch::new(5, 8192, 9);
        let mut nitro = NitroSketch::new(CountSketch::new(5, 8192, 9), Mode::Fixed { p: 0.01 }, 6);
        for &k in &stream {
            vanilla.update(k, 1.0);
            nitro.process(k, 1.0);
        }
        let mut flows: Vec<(u64, f64)> = truth.iter().map(|(&k, &v)| (k, v)).collect();
        flows.sort_by(|a, b| b.1.total_cmp(&a.1));
        let top: Vec<(u64, f64)> = flows.into_iter().take(20).collect();
        let err = |est: &dyn Fn(u64) -> f64| -> f64 {
            top.iter()
                .map(|&(k, t)| (est(k) - t).abs() / t)
                .sum::<f64>()
                / top.len() as f64
        };
        let vanilla_err = err(&|k| vanilla.estimate(k));
        let nitro_err = err(&|k| nitro.estimate(k));
        assert!(vanilla_err < 0.02, "vanilla err {vanilla_err}");
        assert!(nitro_err < 0.12, "nitro err {nitro_err}");
    }

    #[test]
    fn always_correct_starts_vanilla_then_samples() {
        let mut nitro = NitroSketch::new(
            CountSketch::new(5, 4096, 11),
            Mode::AlwaysCorrect {
                epsilon: 0.1,
                q: 1000,
                p_after: 0.01,
            },
            7,
        );
        assert_eq!(nitro.p(), 1.0);
        assert!(!nitro.converged());
        // Threshold: 121·(1+0.1·0.1)·0.1⁻⁴·0.01⁻² ≈ 1.22e10 → needs
        // L2² > 1.2e10, i.e. e.g. one flow with ~110k packets.
        let mut i = 0u64;
        while !nitro.converged() && i < 400_000 {
            nitro.process(i % 4, 1.0);
            i += 1;
        }
        assert!(nitro.converged(), "did not converge in {i} packets");
        assert_eq!(nitro.p(), 0.01);
        // And it keeps sampling from here on.
        let before = nitro.stats().row_updates;
        for j in 0..100_000u64 {
            nitro.process(j % 4, 1.0);
        }
        let added = nitro.stats().row_updates - before;
        assert!(added < 20_000, "post-convergence updates {added}");
    }

    #[test]
    fn topk_tracks_heavy_flows_with_few_heap_ops() {
        let stream = skewed_stream(100_000, 1000, 8);
        let truth = truth_of(&stream);
        let mut nitro = NitroSketch::new(CountSketch::new(5, 8192, 13), Mode::Fixed { p: 0.05 }, 9)
            .with_topk(64);
        for &k in &stream {
            nitro.process(k, 1.0);
        }
        let s = nitro.stats();
        assert!(s.heap_updates < 30_000, "heap ops {}", s.heap_updates);
        // Top-5 true flows must all be tracked.
        let mut flows: Vec<(u64, f64)> = truth.iter().map(|(&k, &v)| (k, v)).collect();
        flows.sort_by(|a, b| b.1.total_cmp(&a.1));
        let hh = nitro.heavy_hitters(0.0);
        let reported: Vec<u64> = hh.iter().map(|&(k, _)| k).collect();
        for &(k, _) in flows.iter().take(5) {
            assert!(reported.contains(&k), "missing heavy flow {k}");
        }
    }

    #[test]
    fn works_with_count_min_too() {
        let stream = skewed_stream(200_000, 1000, 12);
        let truth = truth_of(&stream);
        let mut nitro = NitroSketch::new(CountMin::new(5, 20_000, 19), Mode::Fixed { p: 0.01 }, 23);
        for &k in &stream {
            nitro.process(k, 1.0);
        }
        let mut flows: Vec<(u64, f64)> = truth.iter().map(|(&k, &v)| (k, v)).collect();
        flows.sort_by(|a, b| b.1.total_cmp(&a.1));
        for &(k, t) in flows.iter().take(5) {
            let e = nitro.estimate(k);
            assert!((e - t).abs() / t < 0.15, "key {k}: {e} vs {t}");
        }
    }

    #[test]
    fn clear_resets_counters_and_stats() {
        let mut nitro =
            NitroSketch::new(CountSketch::new(3, 256, 23), Mode::Fixed { p: 0.5 }, 29).with_topk(8);
        for i in 0..1000u64 {
            nitro.process(i % 10, 1.0);
        }
        nitro.clear();
        assert_eq!(nitro.stats(), NitroStats::default());
        assert_eq!(nitro.estimate(3), 0.0);
        assert!(nitro.heavy_hitters(0.0).is_empty());
    }

    #[test]
    fn line_rate_mode_adapts_with_timestamps() {
        let mut nitro = NitroSketch::new(
            CountSketch::new(5, 4096, 31),
            Mode::line_rate(1_000_000.0),
            37,
        );
        // 10 Mpps for 300 ms: p must fall below 1.
        for i in 0..3_000_000u64 {
            nitro.process_ts(i % 100, 1.0, i * 100);
        }
        assert!(nitro.p() < 0.1, "p = {}", nitro.p());
        // Estimates remain sane for the uniform flows (30k each).
        let e = nitro.estimate(5);
        assert!((e - 30_000.0).abs() / 30_000.0 < 0.25, "estimate {e}");
    }

    #[test]
    fn non_finite_weights_rejected_before_counters() {
        fn check<S: RowSketch + Sketch + Checkpoint + Clone>(sketch: S) {
            let mut vanilla = sketch.clone();
            let mut nitro = NitroSketch::new(sketch, Mode::Fixed { p: 1.0 }, 62).with_topk(4);
            nitro.process(1, 5.0);
            vanilla.update(1, 5.0);
            let (counters, slots) = (nitro.inner().snapshot(), nitro.slots.clone());
            assert!(!nitro.process(1, f64::NAN));
            assert!(!nitro.process(1, f64::INFINITY));
            assert!(!nitro.process_ts(1, f64::NEG_INFINITY, 100));
            assert_eq!(nitro.process_batch(&[1, 2, 3], f64::NAN), 0);
            let s = nitro.stats();
            assert_eq!(s.rejected, 6);
            assert_eq!(s.packets, 1, "rejected packets never reach the mode");
            assert_eq!(nitro.slots, slots, "rejected packets compute no slot");
            assert_eq!(nitro.inner().snapshot(), counters, "counters untouched");
            assert!(nitro.inner().l2_squared_estimate().is_finite());
            // An empty burst empties the slot table; the scalar path after
            // it still updates every row.
            assert_eq!(nitro.process_batch(&[], 1.0), 0);
            assert!(nitro.process(1, 5.0));
            vanilla.update(1, 5.0);
            assert_eq!(nitro.estimate(1), vanilla.estimate_robust(1));
            assert_eq!(
                nitro.heavy_hitters(0.0),
                vec![(1, vanilla.estimate_robust(1))]
            );
        }
        check(CountMin::new(3, 256, 61));
        check(CountSketch::new(3, 256, 61));
        check(KarySketch::new(3, 256, 61));
    }

    #[test]
    fn downshift_lowers_p_and_counts() {
        let mut nitro = NitroSketch::new(CountSketch::new(3, 256, 63), Mode::Fixed { p: 1.0 }, 64);
        assert_eq!(nitro.downshift(), Some(0.5));
        assert_eq!(nitro.downshift(), Some(0.25));
        assert_eq!(nitro.p(), 0.25);
        assert_eq!(nitro.stats().downshifts, 2);
        // Sampling actually thins out after the downshift.
        for i in 0..40_000u64 {
            nitro.process(i % 10, 1.0);
        }
        let s = nitro.stats();
        let ratio = s.row_updates as f64 / (40_000.0 * 3.0);
        assert!((0.2..0.3).contains(&ratio), "row-update ratio {ratio}");
    }

    #[test]
    fn snapshot_restore_roundtrip_preserves_measurement() {
        let stream = skewed_stream(80_000, 600, 65);
        let mut nitro =
            NitroSketch::new(CountSketch::new(5, 4096, 66), Mode::Fixed { p: 0.05 }, 67)
                .with_topk(32);
        for &k in &stream {
            nitro.process(k, 1.0);
        }
        let snap = nitro.snapshot();
        let mut fresh = NitroSketch::new(
            CountSketch::new(5, 4096, 66),
            Mode::Fixed { p: 0.05 },
            99, // different skip seed: schedule is redrawn anyway
        )
        .with_topk(32);
        fresh.restore(&snap).unwrap();
        assert_eq!(fresh.stats(), nitro.stats());
        assert_eq!(fresh.p(), nitro.p());
        for k in 0..600u64 {
            assert_eq!(fresh.estimate(k), nitro.estimate(k), "key {k}");
        }
        let a = nitro.heavy_hitters(0.0);
        let b = fresh.heavy_hitters(0.0);
        assert_eq!(a, b, "tracked heavy-hitter sets must survive restore");
        // The restored instance keeps measuring correctly.
        for &k in &stream {
            fresh.process(k, 1.0);
        }
        assert!(fresh.stats().packets == 2 * nitro.stats().packets);
    }

    #[test]
    fn restore_rejects_incompatible_sketch() {
        use nitro_sketches::CheckpointError;
        let nitro = NitroSketch::new(CountSketch::new(5, 4096, 1), Mode::Fixed { p: 0.5 }, 2);
        let snap = nitro.snapshot();
        let mut wrong = NitroSketch::new(CountSketch::new(5, 4096, 7), Mode::Fixed { p: 0.5 }, 2);
        assert_eq!(
            wrong.restore(&snap).unwrap_err(),
            CheckpointError::Mismatch("hash seeds")
        );
        // Failed restore leaves the receiver's own state intact.
        assert_eq!(wrong.p(), 0.5);
        assert_eq!(wrong.stats(), NitroStats::default());
    }

    #[test]
    fn restore_resumes_always_correct_where_it_left_off() {
        let mode = Mode::AlwaysCorrect {
            epsilon: 0.1,
            q: 1000,
            p_after: 0.01,
        };
        let mut nitro = NitroSketch::new(CountSketch::new(5, 4096, 70), mode.clone(), 71);
        let mut i = 0u64;
        while !nitro.converged() && i < 400_000 {
            nitro.process(i % 4, 1.0);
            i += 1;
        }
        assert!(nitro.converged());
        let snap = nitro.snapshot();
        let mut fresh = NitroSketch::new(CountSketch::new(5, 4096, 70), mode, 72);
        assert_eq!(fresh.p(), 1.0);
        fresh.restore(&snap).unwrap();
        // Convergence is not forgotten across a restart.
        assert!(fresh.converged());
        assert_eq!(fresh.p(), 0.01);
    }

    #[test]
    fn merge_from_combines_measurements() {
        let mut a = NitroSketch::new(CountSketch::new(5, 4096, 73), Mode::Fixed { p: 1.0 }, 74)
            .with_topk(16);
        let mut b = NitroSketch::new(CountSketch::new(5, 4096, 73), Mode::Fixed { p: 1.0 }, 75)
            .with_topk(16);
        for _ in 0..1000 {
            a.process(11, 1.0);
            b.process(22, 1.0);
        }
        a.merge_from(&b);
        assert_eq!(a.estimate(11), 1000.0);
        assert_eq!(a.estimate(22), 1000.0);
        assert_eq!(a.stats().packets, 2000);
        let hh: Vec<u64> = a.heavy_hitters(500.0).iter().map(|&(k, _)| k).collect();
        assert!(hh.contains(&11) && hh.contains(&22));
    }

    #[test]
    fn try_merge_from_rejects_mismatched_geometry_and_seeds() {
        use nitro_sketches::CheckpointError;
        let base = || NitroSketch::new(CountSketch::new(5, 4096, 73), Mode::Fixed { p: 1.0 }, 74);
        let mut a = base();
        for _ in 0..500 {
            a.process(7, 1.0);
        }
        let stats_before = a.stats();

        // Different hash seeds: same geometry, incompatible hash space.
        let mut b = NitroSketch::new(CountSketch::new(5, 4096, 99), Mode::Fixed { p: 1.0 }, 74);
        b.process(8, 1.0);
        assert_eq!(
            a.try_merge_from(&b).unwrap_err(),
            CheckpointError::Mismatch("hash seeds")
        );

        // Different width.
        let c = NitroSketch::new(CountSketch::new(5, 2048, 73), Mode::Fixed { p: 1.0 }, 74);
        assert_eq!(
            a.try_merge_from(&c).unwrap_err(),
            CheckpointError::Mismatch("width")
        );

        // Different depth.
        let d = NitroSketch::new(CountSketch::new(4, 4096, 73), Mode::Fixed { p: 1.0 }, 74);
        assert_eq!(
            a.try_merge_from(&d).unwrap_err(),
            CheckpointError::Mismatch("depth")
        );

        // Failed merges leave the receiver untouched.
        assert_eq!(a.stats(), stats_before);
        assert_eq!(a.estimate(7), 500.0);
        assert_eq!(a.estimate(8), 0.0);

        // And a compatible peer still merges fine through the same path.
        let mut e = base();
        e.process(7, 1.0);
        a.try_merge_from(&e).unwrap();
        assert_eq!(a.estimate(7), 501.0);
    }

    #[test]
    fn fold_decoded_carries_tracked_keys_across_seed_rotation() {
        use nitro_sketches::CheckpointError;
        // Old-seed instance with heavy keys tracked.
        let mut old =
            NitroSketch::new(CountMin::new(4, 4096, 11), Mode::Fixed { p: 1.0 }, 1).with_topk(16);
        for _ in 0..5_000 {
            old.process(111, 1.0);
        }
        for _ in 0..3_000 {
            old.process(222, 1.0);
        }
        // New-seed instance: bit-merge must be rejected, decoded fold works.
        let mut fresh =
            NitroSketch::new(CountMin::new(4, 4096, 99), Mode::Fixed { p: 1.0 }, 2).with_topk(16);
        assert_eq!(
            fresh.try_merge_from(&old).unwrap_err(),
            CheckpointError::Mismatch("hash seeds")
        );
        let folded = fresh.fold_decoded_from(&old).unwrap();
        assert_eq!(folded, 2);
        // Exact at p = 1 with only the folded keys present (Count-Min min
        // rule sees at least one collision-free row).
        assert_eq!(fresh.estimate(111), 5_000.0);
        assert_eq!(fresh.estimate(222), 3_000.0);
        assert_eq!(fresh.stats().packets, old.stats().packets);
        let hh: Vec<u64> = fresh
            .heavy_hitters(1_000.0)
            .iter()
            .map(|&(k, _)| k)
            .collect();
        assert!(hh.contains(&111) && hh.contains(&222));

        // Geometry mismatches are rejected.
        let mut narrow = NitroSketch::new(CountMin::new(4, 2048, 99), Mode::Fixed { p: 1.0 }, 2);
        assert_eq!(
            narrow.fold_decoded_from(&old).unwrap_err(),
            CheckpointError::Mismatch("width")
        );
    }

    #[test]
    fn always_correct_converges_through_batch_path() {
        let mut nitro = NitroSketch::new(
            CountSketch::new(5, 4096, 51),
            Mode::AlwaysCorrect {
                epsilon: 0.1,
                q: 1000,
                p_after: 0.01,
            },
            52,
        );
        let keys: Vec<u64> = (0..400_000u64).map(|i| i % 4).collect();
        for chunk in keys.chunks(32) {
            nitro.process_batch(chunk, 1.0);
        }
        assert!(nitro.converged(), "batch path never ran the Q-check");
        assert_eq!(nitro.p(), 0.01);
        // Estimates stay sane across the mode switch.
        let est = nitro.estimate(1);
        assert!((est - 100_000.0).abs() / 100_000.0 < 0.05, "estimate {est}");
    }
}
