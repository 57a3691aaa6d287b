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
    /// Append the full counter state to `out` in the checkpoint wire
    /// format — the one definition of the format. Appending lets a wrapper
    /// nest this blob inside its own ([`Encoder::nested`]); a caller
    /// recycling a buffer clears it first and pays no allocation.
    fn snapshot_into(&self, out: &mut Vec<u8>);

    /// [`Checkpoint::snapshot_into`] a fresh buffer.
    fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.snapshot_into(&mut out);
        out
    }

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

/// Values staged per [`extend_le`] block: 4 KB of bytes, L1-resident.
const LE_BLOCK: usize = 512;

/// Append `vs` as little-endian 8-byte words. Staging a block at a time
/// makes the copy into `buf` one `extend_from_slice` per 4 KB instead of a
/// capacity check per value — memcpy speed over a multi-megabyte arena.
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

/// Little-endian checkpoint encoder, appending to a caller-owned buffer.
#[derive(Debug)]
pub struct Encoder<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Encoder<'a> {
    /// Start a snapshot at the end of `buf` with a type magic word followed
    /// by the format version byte ([`CHECKPOINT_VERSION`]).
    pub fn new(buf: &'a mut Vec<u8>, magic: u32) -> Self {
        buf.extend_from_slice(&magic.to_le_bytes());
        buf.push(CHECKPOINT_VERSION);
        Self { buf }
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Append a u32.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a u64.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append an f64.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a u64 slice.
    pub fn u64s(&mut self, vs: &[u64]) -> &mut Self {
        extend_le(self.buf, vs, u64::to_le_bytes);
        self
    }

    /// Append an f64 slice.
    pub fn f64s(&mut self, vs: &[f64]) -> &mut Self {
        extend_le(self.buf, vs, f64::to_le_bytes);
        self
    }

    /// Append a length-prefixed nested blob that `write` appends in place:
    /// the u64 length is back-patched once the blob's size is known, so the
    /// blob is never built in a buffer of its own and copied.
    pub fn nested(&mut self, write: impl FnOnce(&mut Vec<u8>)) -> &mut Self {
        let prefix = self.buf.len();
        self.u64(0);
        write(self.buf);
        let len = (self.buf.len() - prefix - 8) as u64;
        self.buf[prefix..prefix + 8].copy_from_slice(&len.to_le_bytes());
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
            .nested(|out| out.extend_from_slice(b"nested"));

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
