//! Sketch checkpoint/restore — the state-transfer layer behind the
//! supervised measurement daemon's crash recovery.
//!
//! *Distributed Recoverable Sketches* (Cohen, Friedman & Shahout) observes
//! that counter-array sketches are cheap to checkpoint and merge: the
//! counters are the whole running state, and linearity means a restored
//! snapshot plus the traffic replayed since is exactly the sketch of the
//! union stream. This module defines the [`Checkpoint`] trait the
//! supervisor uses; `CountMin`, `CountSketch` and `KarySketch` implement it
//! in their own modules.
//!
//! The wire format is a little-endian, self-describing layout with a
//! per-type magic word and explicit length checks — no external
//! serialization dependency, every byte accounted for.
//!
//! A snapshot embeds the sketch geometry (depth, width, per-row hash
//! seeds); [`Checkpoint::restore`] verifies them against the receiving
//! instance so a checkpoint can never be loaded into an incompatible
//! sketch (which would silently answer garbage).

use std::fmt;

/// Current checkpoint wire-format version, written by [`Encoder::new`]
/// right after the magic word and verified by [`Decoder::new`]. Bump it on
/// any layout change: a newer-versioned blob (e.g. written by a future
/// build into the durable store) is rejected with
/// [`CheckpointError::Version`] instead of being misparsed as counters.
pub const CHECKPOINT_VERSION: u8 = 1;

/// Why a snapshot could not be restored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Fewer bytes than the format requires.
    Truncated {
        /// Bytes the decoder needed.
        need: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The magic word does not match this sketch type.
    BadMagic,
    /// The blob was written by a newer, unsupported format version.
    Version {
        /// Version byte found in the header.
        found: u8,
        /// Newest version this build understands.
        supported: u8,
    },
    /// A structurally invalid field (oversized length prefix, out-of-range
    /// probability, …) — the bytes cannot have come from a well-formed
    /// snapshot.
    Malformed(&'static str),
    /// The snapshot's geometry or hash seeds differ from the receiver's.
    Mismatch(&'static str),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated { need, got } => {
                write!(f, "checkpoint truncated: need {need} bytes, got {got}")
            }
            CheckpointError::BadMagic => write!(f, "checkpoint magic mismatch"),
            CheckpointError::Version { found, supported } => {
                write!(
                    f,
                    "checkpoint version {found} not supported (this build reads <= {supported})"
                )
            }
            CheckpointError::Malformed(what) => {
                write!(f, "checkpoint malformed: {what}")
            }
            CheckpointError::Mismatch(what) => {
                write!(f, "checkpoint incompatible with receiver: {what} differs")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// State snapshot, restore, and merge for crash recovery and distributed
/// aggregation.
///
/// Contract: `restore` after `snapshot` reproduces counter state exactly
/// (estimates are bit-identical); `merge_from` of two sketches over
/// disjoint streams equals the sketch of the concatenated stream
/// (linearity).
pub trait Checkpoint: Sized {
    /// Write the full state into `out` from byte `at` on, in the checkpoint
    /// wire format — the one definition of the format. Afterwards
    /// `out[at..]` is exactly [`Checkpoint::snapshot`]'s bytes.
    ///
    /// `out[at..]` is either empty (the snapshot is appended) or holds an
    /// older snapshot of a same-geometry instance, which is overwritten in
    /// place. With `dirty == Some(lines)` it must be *this* instance's
    /// snapshot from before every counter line set in `lines` was last
    /// written: the fixed header is rewritten and, of the counter tail
    /// (which sits at a fixed offset), only those lines. With `None` every
    /// line is written — a full encode is the same path with every line
    /// dirty. Starting at `at` lets a wrapper nest this blob inside its own
    /// ([`Encoder::nested`]).
    fn write_image(&self, out: &mut Vec<u8>, at: usize, dirty: Option<&DirtyLines>);

    /// Append the full state to `out`; a caller recycling a buffer clears
    /// it first and pays no allocation.
    fn snapshot_into(&self, out: &mut Vec<u8>) {
        let at = out.len();
        self.write_image(out, at, None);
    }

    /// [`Checkpoint::snapshot_into`] a fresh buffer.
    fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.snapshot_into(&mut out);
        out
    }

    /// Move the set of counter lines written since the last call into
    /// `into`, and start a new, empty set. Every counter write marks its
    /// line — update, merge, restore and clear alike — so the sets taken
    /// between two snapshots cover everything [`Checkpoint::write_image`]
    /// has to copy to bring the older one up to date. Tracking starts at
    /// the first call, which hands over every line: an instance that is
    /// never checkpointed this way pays no more per write than a length
    /// check.
    fn take_dirty(&mut self, into: &mut DirtyLines);

    /// Load a snapshot into this instance, decoding straight into its
    /// existing counters. The receiver must have been built with the same
    /// parameters (depth, width, seed); geometry, hash seeds and length are
    /// verified before any state is touched, so an error leaves `self`
    /// exactly as it was.
    fn restore(&mut self, bytes: &[u8]) -> Result<(), CheckpointError>;

    /// Fold another instance's counters into this one (linearity).
    ///
    /// # Panics
    /// Panics when the instances are parameter-incompatible; use
    /// [`Checkpoint::try_merge_from`] when the peer's provenance is not
    /// statically known (e.g. a snapshot shipped from another shard).
    fn merge_from(&mut self, other: &Self);

    /// Check that `other` could be merged into `self`: identical geometry
    /// (depth, width) and identical per-row hash seeds. Returns the first
    /// mismatch found, without touching either instance.
    fn merge_compatible(&self, other: &Self) -> Result<(), CheckpointError>;

    /// Fallible merge: verifies [`Checkpoint::merge_compatible`] first and
    /// leaves `self` untouched on error. This is the entry point the
    /// sharded query plane uses — a shard that restarted with the wrong
    /// template must surface an error, not silently fold incompatible rows.
    fn try_merge_from(&mut self, other: &Self) -> Result<(), CheckpointError> {
        self.merge_compatible(other)?;
        self.merge_from(other);
        Ok(())
    }

    /// Configuration fingerprint: an xxHash64 of the full snapshot bytes.
    ///
    /// A snapshot embeds geometry (depth, width) and per-row hash seeds, so
    /// two **blank** instances fingerprint equal exactly when a checkpoint
    /// from one restores into the other. The cluster handshake compares
    /// blank-template fingerprints before any frame crosses the wire —
    /// a node built with different geometry or a different seed band is
    /// rejected at connect time instead of failing every merge later.
    /// Called on a non-blank instance this hashes the live counters too,
    /// which makes it a state digest, not a configuration check.
    fn fingerprint(&self) -> u64 {
        // Seed spells "NFPT" twice; any fixed constant works, it only has
        // to differ from the store/wire CRC seeds so a fingerprint never
        // doubles as a frame checksum.
        nitro_hash::xxhash::xxh64(&self.snapshot(), 0x4E46_5054_4E46_5054)
    }
}

/// Counters per dirty-tracking line: 64 bytes of `f64` counters.
pub const LINE_COUNTERS: usize = 8;

/// One bit per line of [`LINE_COUNTERS`] counters: the lines written since
/// the set was last taken ([`Checkpoint::take_dirty`]). A 4 MB arena needs
/// 8 KB of bits, small enough to stay in L1 beside the hot path's stores.
/// The default set has no bits and tracks nothing: marking it is a no-op.
///
/// The line, not a wider block, is the unit because sampled updates
/// scatter: a 10 000-packet interval at p = 0.1 writes 0.6 % of a 2 MiB
/// Count Sketch's counters, which is 4.6 % of its lines but 31 % of its
/// 64-counter blocks.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DirtyLines {
    words: Vec<u64>,
    lines: usize,
}

impl DirtyLines {
    /// An empty set sized for `counters` counters.
    pub fn new(counters: usize) -> Self {
        let lines = counters.div_ceil(LINE_COUNTERS);
        Self {
            words: vec![0; lines.div_ceil(64)],
            lines,
        }
    }

    /// Mark the line holding counter `index` (a no-op on a set that
    /// tracks nothing).
    #[inline(always)]
    pub fn mark(&mut self, index: usize) {
        let line = index / LINE_COUNTERS;
        if let Some(word) = self.words.get_mut(line / 64) {
            *word |= 1 << (line % 64);
        }
    }

    /// Mark every line.
    pub fn mark_all(&mut self) {
        self.words.fill(!0);
        if !self.lines.is_multiple_of(64) {
            if let Some(last) = self.words.last_mut() {
                *last = (1u64 << (self.lines % 64)) - 1;
            }
        }
    }

    /// Copy this set into `into` (reusing its allocation) and empty this
    /// one. A set that tracked nothing hands over every line of `counters`
    /// counters — it cannot tell which were written — and tracks from here
    /// on.
    pub fn take_into(&mut self, into: &mut DirtyLines, counters: usize) {
        if self.words.is_empty() {
            *self = DirtyLines::new(counters);
            into.clone_from(self);
            into.mark_all();
        } else {
            into.clone_from(self);
            self.words.fill(0);
        }
    }

    /// Add every line of `other`, a set over the same counters.
    pub fn union(&mut self, other: &DirtyLines) {
        debug_assert_eq!(self.lines, other.lines, "sets over different counters");
        for (mine, theirs) in self.words.iter_mut().zip(&other.words) {
            *mine |= theirs;
        }
    }

    /// Lines marked.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Lines covered, marked or not.
    pub fn lines(&self) -> usize {
        self.lines
    }

    /// Call `f` with each maximal run of marked lines, as the counter index
    /// range it covers (clipped to `counters`), in increasing order.
    pub fn for_each_run(&self, counters: usize, mut f: impl FnMut(std::ops::Range<usize>)) {
        let mut run: Option<std::ops::Range<usize>> = None;
        for (w, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let lo = bits.trailing_zeros() as usize;
                let len = (bits >> lo).trailing_ones() as usize;
                let end = lo + len;
                bits = if end == 64 { 0 } else { bits & (!0 << end) };
                let lines = w * 64 + lo..w * 64 + lo + len;
                match &mut run {
                    Some(r) if r.end == lines.start => r.end = lines.end,
                    _ => {
                        if let Some(r) = run.replace(lines) {
                            f(r.start * LINE_COUNTERS..(r.end * LINE_COUNTERS).min(counters));
                        }
                    }
                }
            }
        }
        if let Some(r) = run {
            f(r.start * LINE_COUNTERS..(r.end * LINE_COUNTERS).min(counters));
        }
    }
}

/// Values staged per [`extend_le`] block: 4 KB of bytes, L1-resident.
const LE_BLOCK: usize = 512;

/// Append `vs` as little-endian 8-byte words. Staging a block at a time
/// makes the copy into `buf` one `extend_from_slice` per 4 KB instead of a
/// capacity check per value — memcpy speed over a multi-megabyte arena.
/// Kept out of line: inlined into the encoder, its staging loop ran about
/// 10 % slower over a 4.2 MB arena.
#[inline(never)]
fn extend_le<T: Copy>(buf: &mut Vec<u8>, vs: &[T], to_le: impl Fn(T) -> [u8; 8]) {
    buf.reserve(vs.len() * 8);
    let mut block = [0u8; LE_BLOCK * 8];
    for group in vs.chunks(LE_BLOCK) {
        let bytes = &mut block[..group.len() * 8];
        for (dst, &v) in bytes.chunks_exact_mut(8).zip(group) {
            dst.copy_from_slice(&to_le(v));
        }
        buf.extend_from_slice(bytes);
    }
}

/// Overwrite `dst` with `vs` as little-endian 8-byte words.
fn write_le<T: Copy>(dst: &mut [u8], vs: &[T], to_le: impl Fn(T) -> [u8; 8]) {
    for (dst, &v) in dst.chunks_exact_mut(8).zip(vs) {
        dst.copy_from_slice(&to_le(v));
    }
}

/// Little-endian checkpoint encoder: a cursor into a caller-owned buffer
/// that overwrites the bytes already there and appends past the end. An
/// image's last field ([`Encoder::counters`] or [`Encoder::nested`]) ends
/// the buffer, cutting off whatever an older, longer image left behind.
#[derive(Debug)]
pub struct Encoder<'a> {
    buf: &'a mut Vec<u8>,
    at: usize,
}

impl<'a> Encoder<'a> {
    /// Start a snapshot at the end of `buf` with a type magic word followed
    /// by the format version byte ([`CHECKPOINT_VERSION`]).
    pub fn new(buf: &'a mut Vec<u8>, magic: u32) -> Self {
        let at = buf.len();
        Self::at(buf, at, magic)
    }

    /// [`Encoder::new`], but starting at byte `at` of `buf`, over whatever
    /// image lies there.
    ///
    /// # Panics
    /// Panics when `at` is past the end of `buf`.
    pub fn at(buf: &'a mut Vec<u8>, at: usize, magic: u32) -> Self {
        assert!(at <= buf.len(), "encoder starts past the buffer's end");
        let mut e = Self { buf, at };
        e.put(&magic.to_le_bytes());
        e.put(&[CHECKPOINT_VERSION]);
        e
    }

    fn put(&mut self, bytes: &[u8]) {
        let over = (self.buf.len() - self.at).min(bytes.len());
        self.buf[self.at..self.at + over].copy_from_slice(&bytes[..over]);
        self.buf.extend_from_slice(&bytes[over..]);
        self.at += bytes.len();
    }

    fn words<T: Copy>(&mut self, vs: &[T], to_le: impl Fn(T) -> [u8; 8] + Copy) {
        let over = ((self.buf.len() - self.at) / 8).min(vs.len());
        write_le(
            &mut self.buf[self.at..self.at + over * 8],
            &vs[..over],
            to_le,
        );
        if over < vs.len() {
            self.buf.truncate(self.at + over * 8);
            extend_le(self.buf, &vs[over..], to_le);
        }
        self.at += vs.len() * 8;
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.put(&[v]);
        self
    }

    /// Write a u32.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.put(&v.to_le_bytes());
        self
    }

    /// Write a u64.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.put(&v.to_le_bytes());
        self
    }

    /// Write an f64.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.put(&v.to_le_bytes());
        self
    }

    /// Write a u64 slice.
    pub fn u64s(&mut self, vs: &[u64]) -> &mut Self {
        self.words(vs, u64::to_le_bytes);
        self
    }

    /// Write an f64 slice.
    pub fn f64s(&mut self, vs: &[f64]) -> &mut Self {
        self.words(vs, f64::to_le_bytes);
        self
    }

    /// Write a counter array as the image's last field, ending the buffer.
    /// When exactly its length in bytes is left in the buffer, those bytes
    /// are the same array in an older image, and `Some(dirty)` copies only
    /// the lines it marks; otherwise (and with `None`) every counter is
    /// written.
    pub fn counters(&mut self, vs: &[f64], dirty: Option<&DirtyLines>) -> &mut Self {
        match dirty {
            Some(dirty) if self.buf.len() - self.at == vs.len() * 8 => {
                let tail = &mut self.buf[self.at..];
                dirty.for_each_run(vs.len(), |run| {
                    let bytes = &mut tail[run.start * 8..run.end * 8];
                    write_le(bytes, &vs[run], f64::to_le_bytes);
                });
                self.at += vs.len() * 8;
            }
            _ => {
                self.f64s(vs);
                self.buf.truncate(self.at);
            }
        }
        self
    }

    /// Write a length-prefixed nested blob, the image's last field:
    /// `write(buf, start)` writes it from `start` to the buffer's end, over
    /// whatever is there. The u64 length is back-patched once the blob's
    /// size is known, so the blob is never built in a buffer of its own and
    /// copied.
    pub fn nested(&mut self, write: impl FnOnce(&mut Vec<u8>, usize)) -> &mut Self {
        let prefix = self.at;
        self.u64(0);
        write(self.buf, self.at);
        let len = (self.buf.len() - self.at) as u64;
        self.buf[prefix..prefix + 8].copy_from_slice(&len.to_le_bytes());
        self.at = self.buf.len();
        self
    }
}

/// Little-endian checkpoint decoder with explicit bounds checks.
#[derive(Clone, Copy, Debug)]
pub struct Decoder<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> Decoder<'a> {
    /// Open a snapshot, verifying the type magic word and the format
    /// version byte. A version newer than [`CHECKPOINT_VERSION`] is
    /// rejected — a blob from a future build must never be misread as
    /// counter state.
    pub fn new(data: &'a [u8], magic: u32) -> Result<Self, CheckpointError> {
        let mut d = Self { data, at: 0 };
        if d.u32()? != magic {
            return Err(CheckpointError::BadMagic);
        }
        let version = d.u8()?;
        if version > CHECKPOINT_VERSION {
            return Err(CheckpointError::Version {
                found: version,
                supported: CHECKPOINT_VERSION,
            });
        }
        Ok(d)
    }

    fn need(&self, n: usize) -> Result<(), CheckpointError> {
        // Saturating arithmetic: `n` may come straight from an untrusted
        // length prefix, and a corrupt value must report `Truncated`, not
        // overflow a usize computation.
        if self.data.len().saturating_sub(self.at) < n {
            Err(CheckpointError::Truncated {
                need: self.at.saturating_add(n),
                got: self.data.len(),
            })
        } else {
            Ok(())
        }
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        self.need(1)?;
        let v = self.data[self.at];
        self.at += 1;
        Ok(v)
    }

    /// Read a u32.
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        self.need(4)?;
        let v = u32::from_le_bytes(self.data[self.at..self.at + 4].try_into().unwrap());
        self.at += 4;
        Ok(v)
    }

    /// Read a u64.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        self.need(8)?;
        let v = u64::from_le_bytes(self.data[self.at..self.at + 8].try_into().unwrap());
        self.at += 8;
        Ok(v)
    }

    /// Read an f64.
    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read `n` u64 values. The byte budget is checked (overflow-safely)
    /// before any allocation, so a decoder-driven `n` can never trigger an
    /// oversized reservation.
    pub fn u64s(&mut self, n: usize) -> Result<Vec<u64>, CheckpointError> {
        let total = n
            .checked_mul(8)
            .ok_or(CheckpointError::Malformed("u64 array length overflows"))?;
        self.need(total)?;
        Ok((0..n).map(|_| self.u64().unwrap()).collect())
    }

    /// Fill `out` with the next `out.len()` f64 values. All or nothing:
    /// the byte budget is checked before the first slot is written, so on
    /// error `out` is untouched — in-place `restore` relies on this being
    /// its last fallible step.
    pub fn f64s_into(&mut self, out: &mut [f64]) -> Result<(), CheckpointError> {
        let total = out.len() * 8;
        self.need(total)?;
        let src = &self.data[self.at..self.at + total];
        for (slot, word) in out.iter_mut().zip(src.chunks_exact(8)) {
            *slot = f64::from_le_bytes(word.try_into().unwrap());
        }
        self.at += total;
        Ok(())
    }

    /// Read a length-prefixed nested byte blob. An untrusted length prefix
    /// larger than the remaining payload reports `Truncated` before any
    /// slicing (and before the cast can wrap on 32-bit targets).
    pub fn bytes(&mut self) -> Result<&'a [u8], CheckpointError> {
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return Err(CheckpointError::Truncated {
                need: self.at.saturating_add(n.min(usize::MAX as u64) as usize),
                got: self.data.len(),
            });
        }
        let n = n as usize;
        let v = &self.data[self.at..self.at + n];
        self.at += n;
        Ok(v)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.at
    }

    /// Read the `(magic, version)` header of a checkpoint blob without
    /// committing to a sketch type. Replication and the durable store ship
    /// snapshots as opaque payloads; a standby applier uses this to sanity-
    /// check a frame (any known magic, supported version) before handing it
    /// to `restore`, which then does the full typed validation.
    pub fn peek_header(bytes: &[u8]) -> Result<(u32, u8), CheckpointError> {
        let mut d = Decoder { data: bytes, at: 0 };
        let magic = d.u32()?;
        let version = d.u8()?;
        if version > CHECKPOINT_VERSION {
            return Err(CheckpointError::Version {
                found: version,
                supported: CHECKPOINT_VERSION,
            });
        }
        Ok((magic, version))
    }

    /// Validate an element count read from the stream against the bytes
    /// actually remaining: each element needs at least `elem_size` bytes,
    /// so a count that cannot fit is malformed — callers can reserve
    /// `count` slots afterwards without an allocation amplification risk.
    pub fn counted(&self, count: usize, elem_size: usize) -> Result<usize, CheckpointError> {
        let total = count
            .checked_mul(elem_size)
            .ok_or(CheckpointError::Malformed("element count overflows"))?;
        if total > self.remaining() {
            return Err(CheckpointError::Truncated {
                need: self.at.saturating_add(total),
                got: self.data.len(),
            });
        }
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoder_decoder_roundtrip() {
        let mut buf = Vec::new();
        let mut e = Encoder::new(&mut buf, 0xABCD_1234);
        e.u8(7).u32(42).u64(1 << 50).f64(-2.5);
        e.u64s(&[1, 2, 3])
            .f64s(&[0.5, 1.5])
            .nested(|out, _| out.extend_from_slice(b"nested"));

        let mut d = Decoder::new(&buf, 0xABCD_1234).unwrap();
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 42);
        assert_eq!(d.u64().unwrap(), 1 << 50);
        assert_eq!(d.f64().unwrap(), -2.5);
        assert_eq!(d.u64s(3).unwrap(), vec![1, 2, 3]);
        let mut fs = [0.0; 2];
        d.f64s_into(&mut fs).unwrap();
        assert_eq!(fs, [0.5, 1.5]);
        assert_eq!(d.bytes().unwrap(), b"nested");
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn dirty_runs_coalesce_across_words_and_clip_to_the_array() {
        let counters = 130 * LINE_COUNTERS - 3;
        let mut dirty = DirtyLines::new(counters);
        assert_eq!((dirty.lines(), dirty.count()), (130, 0));
        for index in [0, 7, 8, 63 * 8, 64 * 8 + 5, counters - 1] {
            dirty.mark(index);
        }
        let mut runs = Vec::new();
        dirty.for_each_run(counters, |run| runs.push(run));
        assert_eq!(runs, [0..16, 504..520, counters - 5..counters]);
        assert_eq!(dirty.count(), 5);

        let mut taken = DirtyLines::default();
        dirty.take_into(&mut taken, counters);
        assert_eq!((taken.count(), dirty.count()), (5, 0));
        dirty.mark_all();
        assert_eq!(dirty.count(), 130);
        runs.clear();
        dirty.for_each_run(counters, |run| runs.push(run));
        assert_eq!(runs, vec![0..counters]);
        taken.union(&dirty);
        assert_eq!(taken, dirty);

        // The default set tracks nothing until first taken, and then hands
        // over every line.
        let mut untracked = DirtyLines::default();
        untracked.mark(0);
        untracked.mark_all();
        untracked.take_into(&mut taken, counters);
        assert_eq!(taken.count(), 130);
        assert_eq!((untracked.lines(), untracked.count()), (130, 0));
        untracked.mark(9);
        assert_eq!(untracked.count(), 1);
    }

    #[test]
    fn encoder_patches_an_older_image_to_the_full_encode() {
        let old: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let mut new = old.clone();
        let mut dirty = DirtyLines::new(new.len());
        for i in [3, 40, 99] {
            new[i] = -1.0;
            dirty.mark(i);
        }
        let encode = |header: u64, vs: &[f64], out: &mut Vec<u8>, dirty: Option<&DirtyLines>| {
            Encoder::at(out, 2, 9).u64(header).counters(vs, dirty);
        };
        let mut full = b"ab".to_vec();
        encode(5, &new, &mut full, None);
        let mut image = b"ab".to_vec();
        encode(4, &old, &mut image, None);
        encode(5, &new, &mut image, Some(&dirty));
        assert_eq!(image, full, "patched in place");
        // An older image of another length cannot be patched: its tail is
        // rewritten whole, and the buffer ends where the image does.
        for extra in [0, 3, 800] {
            let mut image = b"ab".to_vec();
            encode(4, &old[..old.len() - 1], &mut image, None);
            image.extend(std::iter::repeat_n(7, extra));
            encode(5, &new, &mut image, Some(&dirty));
            assert_eq!(image, full, "{extra} extra bytes");
        }
    }

    #[test]
    fn slices_round_trip_across_staging_block_edges() {
        for n in [0, 1, LE_BLOCK - 1, LE_BLOCK, LE_BLOCK + 1, 3 * LE_BLOCK + 7] {
            let fs: Vec<f64> = (0..n).map(|i| i as f64 - 0.5).collect();
            let us: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
            let mut buf = Vec::new();
            Encoder::new(&mut buf, 5).f64s(&fs).u64s(&us);
            assert_eq!(buf.len(), 5 + 16 * n);
            let mut d = Decoder::new(&buf, 5).unwrap();
            let mut back = vec![f64::NAN; n];
            d.f64s_into(&mut back).unwrap();
            assert_eq!(back, fs, "n = {n}");
            assert_eq!(d.u64s(n).unwrap(), us, "n = {n}");
        }
    }

    #[test]
    fn future_version_rejected_with_clear_error() {
        // A blob stamped with a future format version — e.g. written into
        // the durable store by a newer build — must be refused up front.
        let mut buf = 7u32.to_le_bytes().to_vec();
        buf.push(CHECKPOINT_VERSION + 1);
        buf.extend_from_slice(&123u64.to_le_bytes());
        let err = Decoder::new(&buf, 7).unwrap_err();
        assert_eq!(
            err,
            CheckpointError::Version {
                found: CHECKPOINT_VERSION + 1,
                supported: CHECKPOINT_VERSION,
            }
        );
        assert!(err.to_string().contains("not supported"));
    }

    #[test]
    fn current_version_accepted() {
        let mut buf = Vec::new();
        Encoder::new(&mut buf, 7).u64(9);
        assert_eq!(buf[4], CHECKPOINT_VERSION, "version byte follows magic");
        let mut d = Decoder::new(&buf, 7).unwrap();
        assert_eq!(d.u64().unwrap(), 9);
    }

    #[test]
    fn oversized_length_prefixes_are_errors_not_allocations() {
        // A corrupt u64 length prefix near u64::MAX must neither allocate
        // nor overflow offset arithmetic.
        let mut buf = Vec::new();
        Encoder::new(&mut buf, 3).u64(u64::MAX - 7);
        let mut d = Decoder::new(&buf, 3).unwrap();
        assert!(matches!(d.bytes(), Err(CheckpointError::Truncated { .. })));
        let d2 = Decoder::new(&buf, 3).unwrap();
        assert!(matches!(
            d2.counted(usize::MAX, 16),
            Err(CheckpointError::Malformed(_))
        ));
        assert!(matches!(
            d2.counted(1 << 40, 8),
            Err(CheckpointError::Truncated { .. })
        ));
        let mut d3 = Decoder::new(&buf, 3).unwrap();
        assert!(matches!(
            d3.u64s(usize::MAX / 4),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn peek_header_reads_magic_and_version_without_consuming() {
        let mut buf = Vec::new();
        Encoder::new(&mut buf, 0xFEED_BEEF).u64(11);
        assert_eq!(
            Decoder::peek_header(&buf).unwrap(),
            (0xFEED_BEEF, CHECKPOINT_VERSION)
        );
        // Truncated and future-versioned blobs are refused the same way
        // the full decoder would refuse them.
        assert!(matches!(
            Decoder::peek_header(&buf[..3]),
            Err(CheckpointError::Truncated { .. })
        ));
        let mut future = buf.clone();
        future[4] = CHECKPOINT_VERSION + 1;
        assert!(matches!(
            Decoder::peek_header(&future),
            Err(CheckpointError::Version { .. })
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        Encoder::new(&mut buf, 1);
        assert_eq!(
            Decoder::new(&buf, 2).unwrap_err(),
            CheckpointError::BadMagic
        );
    }

    #[test]
    fn truncation_reported_not_panicked() {
        let mut buf = Vec::new();
        Encoder::new(&mut buf, 9).u64(5);
        let mut d = Decoder::new(&buf[..8], 9).unwrap();
        assert!(matches!(d.u64(), Err(CheckpointError::Truncated { .. })));
        // NaN round-trips bit-exactly through the f64 codec.
        let mut buf = Vec::new();
        Encoder::new(&mut buf, 9).f64(f64::NAN);
        let mut d = Decoder::new(&buf, 9).unwrap();
        assert!(d.f64().unwrap().is_nan());
    }
    // ---- Seed-band carryover properties (adversarial seed rotation) ----
    //
    // A seed rotation replaces every shard's hash space. Old-seed state
    // must never bit-merge into new-seed state (the counters live in
    // different hash spaces); what carries over instead is the *decoded*
    // view: per-key estimates re-inserted under the new seeds. These
    // properties pin down both halves.

    use crate::Sketch as _;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Same geometry, differing seed band: `merge_compatible` must
        /// reject, and the failed merge must leave the receiver untouched.
        #[test]
        fn merge_across_seed_bands_is_rejected(
            master in 0u64..10_000,
            band in 1u64..10_000,
            depth in 1usize..5,
            width_pow in 6usize..11,
            stream in prop::collection::vec((0u64..200, 1u32..4), 1..80),
        ) {
            let width = 1usize << width_pow;
            let mut a = crate::CountMin::new(depth, width, master);
            let mut b = crate::CountMin::new(depth, width, master + band);
            for &(k, w) in &stream {
                a.update(k, w as f64);
                b.update(k ^ 0x5A5A, w as f64);
            }
            prop_assert_eq!(
                a.merge_compatible(&b).unwrap_err(),
                CheckpointError::Mismatch("hash seeds")
            );
            let before = a.snapshot();
            prop_assert!(a.try_merge_from(&b).is_err());
            prop_assert_eq!(a.snapshot(), before, "failed merge must not mutate");

            // The sign-sketch family rejects the same way.
            let ca = crate::CountSketch::new(depth, width, master);
            let cb = crate::CountSketch::new(depth, width, master + band);
            prop_assert_eq!(
                ca.merge_compatible(&cb).unwrap_err(),
                CheckpointError::Mismatch("hash seeds")
            );
        }

        /// Post-rotation carryover (decoded-estimate fold) on matching
        /// geometry: re-inserting one decoded key into a blank new-seed
        /// sketch is *exact*, and multi-key folds are sandwiched by the
        /// Count-Min overestimate bound (min rule: exact up to collisions
        /// with other folded keys, never an underestimate).
        #[test]
        fn decoded_fold_across_seed_bands_is_exact(
            master in 0u64..10_000,
            band in 1u64..10_000,
            raw_keys in prop::collection::vec(0u64..100_000, 1..8),
            weight in 1u32..10_000,
        ) {
            let depth = 4;
            let width = 1024;
            let mut keys = raw_keys.clone();
            keys.sort_unstable();
            keys.dedup();
            let mut old = crate::CountMin::new(depth, width, master);
            let decoded: Vec<(u64, f64)> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| (k, (weight as f64) + i as f64))
                .collect();
            for &(k, w) in &decoded {
                old.update(k, w);
            }

            // Single-key fold: exact, always.
            let (k0, _) = decoded[0];
            let est0 = old.estimate(k0);
            let mut solo = crate::CountMin::new(depth, width, master + band);
            solo.update(k0, est0);
            prop_assert_eq!(solo.estimate(k0), est0);

            // Multi-key fold: never an underestimate, and bounded above by
            // the decoded weight plus everything else folded (the min-rule
            // collision ceiling).
            let mut fresh = crate::CountMin::new(depth, width, master + band);
            let total: f64 = decoded.iter().map(|&(k, _)| old.estimate(k)).sum();
            for &(k, _) in &decoded {
                fresh.update(k, old.estimate(k));
            }
            for &(k, _) in &decoded {
                let d = old.estimate(k);
                let e = fresh.estimate(k);
                prop_assert!(e >= d, "fold underestimated: {} < {}", e, d);
                prop_assert!(e <= total, "fold above collision ceiling");
            }
        }
    }
}
