//! Crash-consistent durable checkpoint store — the disk layer under the
//! sharded pipeline's supervision story.
//!
//! PRs 1–2 made the measurement plane survive worker-thread panics, but
//! every checkpoint lived in process memory: an OOM kill or host restart
//! lost the whole fleet's sketch state. *Distributed Recoverable Sketches*
//! (Cohen, Friedman & Shahout) shows that persisting sketch snapshots and
//! merging them on recovery bounds the error by the checkpoint interval —
//! the same bound the supervisor already gives for thread restarts, now
//! extended to full process death.
//!
//! **Layout.** One directory per fleet:
//!
//! ```text
//! dir/
//!   MANIFEST                 # fleet identity: version, generation, shards
//!   shard-0000/
//!     seg-00000001.log       # sealed segment (immutable)
//!     active.log             # open segment, appended + fsync'd per frame
//!   shard-0001/…
//! ```
//!
//! **Frames.** Each checkpoint is one append-only [`crate::frame`]: a
//! [`StoreHeader`] (shard, generation, sequence, processed-at count) and a
//! payload, checksummed by xxHash64. A frame is valid iff the header
//! parses, the length fits the file, and the checksum matches — torn
//! writes, bit flips, and truncation are all caught by the same predicate.
//! The manifest is a [`ManifestHeader`] frame of the same codec.
//!
//! **Keyframes and deltas.** A checkpoint payload (the
//! `sketches::checkpoint` codec, or whatever a cluster log stores) is
//! written as one of two frame kinds ([`LogHeader`]). A *keyframe* holds
//! the payload itself, byte for byte a frame of the format before deltas.
//! A *delta* holds only the 64-byte lines, aligned at the end of the
//! payload, that differ from the previous frame of the same segment,
//! whichever writer appended it. It is written under [`DELTA_VERSION`], so
//! a build that reads only keyframes refuses it as a newer version instead
//! of misreading it.
//!
//! The store never diffs. The caller, who holds the payload it persisted
//! before, cuts the runs ([`cut`]) and names that payload by sequence
//! number and length ([`Cut`]); the store appends them as a delta only
//! when they name the segment's previous durable frame, and a keyframe
//! otherwise: when a segment opens, after an append that failed once it
//! reached the file, for a cut against another frame, and without a cut
//! (no earlier payload, or a delta no smaller than the payload). So no
//! frame is larger than the keyframe it replaces: a segment's replay reads
//! no more bytes than a segment of keyframes would, and a corrupt byte at
//! any offset of a segment ends it at a frame no older than it would have
//! there. A log whose records carry their own deltas appends keyframes
//! only. A replay rebuilds a delta's payload in place, in a buffer with
//! slack in front (`Image`), so it costs the delta's runs whatever the
//! head's length.
//!
//! **Rotation.** After `rotate_after` frames the active segment is sealed
//! by an atomic `rename(2)` to its numbered name and a directory fsync;
//! sealed segments beyond `keep_segments` are deleted. Every segment opens
//! with a keyframe, so deleting a whole one never strands a delta, and a
//! log keeps `rotate_after × keep_segments` sealed frames whatever kind
//! they are. The manifest is replaced atomically (tmp write + fsync +
//! rename) whenever the generation changes.
//!
//! **Recovery.** [`CheckpointStore::recover`] reads the manifest, scans
//! each shard's segments oldest-to-newest, replaying each segment's
//! keyframe and deltas into full payloads, truncates any torn tail off the
//! active segment, rejects corrupt or version-incompatible frames (a
//! corrupt frame ends its segment at the last good payload, as it did when
//! every frame was a keyframe), and returns the newest valid frame per
//! shard — behind the crashed process by that shard's `persist_lag` (one
//! checkpoint interval plus the updates made during one in-flight
//! persist). The reopened store continues appending under a bumped
//! generation without clobbering surviving segments. Every reader
//! ([`CheckpointStore::recover`], [`CheckpointStore::newest_frame`],
//! [`CheckpointStore::frames`], and the aggregation log's streaming
//! replay) returns full payloads, and reads a segment a frame at a time.

use crate::faults::{DiskAction, DiskFaultPlan};
use crate::frame::{self, Frame, FrameError, Header, Reader};
use nitro_hash::xxhash::xxh64;
use nitro_metrics::telemetry::ShardTelemetry;
use nitro_sketches::checkpoint::DirtyLines;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// On-disk format version of keyframes and the manifest.
pub const STORE_VERSION: u8 = 1;
/// Version byte of a delta frame. A reader of [`STORE_VERSION`] frames
/// refuses it as a newer format instead of misreading its payload.
pub const DELTA_VERSION: u8 = 2;
/// Seed of the frame/manifest checksum hash.
const CRC_SEED: u64 = 0x4E49_5452_4F53_4B45;
/// Checkpoint frame bytes before the payload.
const FRAME_HEADER: usize = frame::head_len::<StoreHeader>();
/// The flags bit of a delta frame's header.
const DELTA_FLAG: u8 = 1;
/// Unit of the delta diff: payloads are compared in lines of this many
/// bytes, counted from the end of the payload.
const LINE: usize = 64;

/// Header of a checkpoint frame ("NFRM"): keyframes in the store's
/// segment logs and the cluster's epoch frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreHeader {
    /// Shard (for an epoch frame: cluster node) the frame belongs to.
    pub shard: u16,
    /// Fleet generation the frame was written under.
    pub generation: u64,
    /// Checkpoint sequence within that generation.
    pub seq: u64,
    /// Observations the checkpoint covers.
    pub processed_at: u64,
}

impl StoreHeader {
    fn write_flagged(&self, flags: u8, out: &mut Vec<u8>) {
        out.push(flags);
        out.extend_from_slice(&self.shard.to_le_bytes());
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.processed_at.to_le_bytes());
    }

    fn read_flagged(r: &mut Reader<'_>) -> Result<(u8, Self), FrameError> {
        let flags = r.u8()?;
        let header = Self {
            shard: r.u16()?,
            generation: r.u64()?,
            seq: r.u64()?,
            processed_at: r.u64()?,
        };
        Ok((flags, header))
    }
}

impl Header for StoreHeader {
    const MAGIC: u32 = 0x4E46_524D; // "NFRM"
    const VERSION: u8 = STORE_VERSION;
    const SEED: u64 = CRC_SEED;
    /// Reserved flags `u8`, shard `u16`, generation, seq, processed-at.
    const FIELDS: usize = 27;

    fn write(&self, out: &mut Vec<u8>) {
        self.write_flagged(0, out);
    }

    fn read(r: &mut Reader<'_>, _version: u8) -> Result<Self, FrameError> {
        Ok(Self::read_flagged(r)?.1)
    }
}

/// Header of a frame in a segment log: an "NFRM" frame that is either a
/// keyframe, whose payload is the checkpoint itself and whose bytes are a
/// [`StoreHeader`] frame's, or a delta, whose payload holds the lines that
/// differ from the previous frame of the same segment.
///
/// A delta is written under [`DELTA_VERSION`] with its delta flag set, so
/// a build that reads only [`StoreHeader`] frames refuses it as a newer
/// version. Version 2 adds exactly that one kind: a version-2 frame without
/// the flag is a newer keyframe format than this build reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogHeader {
    /// The checkpoint fields every frame carries.
    pub frame: StoreHeader,
    /// Whether the payload is a delta against the previous frame.
    pub delta: bool,
}

impl Header for LogHeader {
    const MAGIC: u32 = StoreHeader::MAGIC;
    const VERSION: u8 = DELTA_VERSION;
    const SEED: u64 = CRC_SEED;
    const FIELDS: usize = StoreHeader::FIELDS;

    fn version(&self) -> u8 {
        if self.delta {
            DELTA_VERSION
        } else {
            STORE_VERSION
        }
    }

    fn write(&self, out: &mut Vec<u8>) {
        let flags = if self.delta { DELTA_FLAG } else { 0 };
        self.frame.write_flagged(flags, out);
    }

    fn read(r: &mut Reader<'_>, version: u8) -> Result<Self, FrameError> {
        let (flags, frame) = StoreHeader::read_flagged(r)?;
        let delta = version == DELTA_VERSION;
        if delta && flags != DELTA_FLAG {
            return Err(FrameError::Version {
                found: version,
                supported: STORE_VERSION,
            });
        }
        Ok(Self { frame, delta })
    }
}

/// The fleet manifest ("NMAN"): a fixed-size record with no payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ManifestHeader {
    /// Fleet generation (1 for a fresh store, +1 per recovery).
    pub generation: u64,
    /// Live shard count.
    pub shards: u32,
}

impl Header for ManifestHeader {
    const MAGIC: u32 = 0x4E4D_414E; // "NMAN"
    const VERSION: u8 = STORE_VERSION;
    const SEED: u64 = CRC_SEED;
    const FIELDS: usize = 12;
    const SIZED: bool = false;

    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&self.shards.to_le_bytes());
    }

    fn read(r: &mut Reader<'_>, _version: u8) -> Result<Self, FrameError> {
        Ok(Self {
            generation: r.u64()?,
            shards: r.u32()?,
        })
    }
}

/// Why the store could not open, append, or recover.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// No manifest in the directory — nothing to recover from.
    ManifestMissing,
    /// The manifest exists but is not a valid frame (corrupt, or written
    /// by a newer format version).
    Manifest(FrameError),
    /// A fresh store was requested over an existing manifest.
    AlreadyExists,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "checkpoint store I/O: {e}"),
            StoreError::ManifestMissing => write!(f, "no MANIFEST in store directory"),
            StoreError::Manifest(e) => write!(f, "MANIFEST unreadable: {e}"),
            StoreError::AlreadyExists => {
                write!(f, "store directory already holds a MANIFEST")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Manifest(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Durability tuning for [`CheckpointStore`].
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Frames appended to a segment before it is sealed and a fresh active
    /// segment starts.
    pub rotate_after: u64,
    /// Sealed segments retained per shard (older ones are deleted), each
    /// of `rotate_after` frames whether they are keyframes or deltas.
    /// Every segment opens with a keyframe and the newest frame holds the
    /// whole state, so for a checkpoint log history is redundancy, not
    /// data.
    pub keep_segments: usize,
    /// `fdatasync` each frame before acknowledging it durable. Turning
    /// this off trades the crash-consistency bound for throughput — only
    /// safe when the filesystem is battery-backed or the data is
    /// expendable.
    pub fsync: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            rotate_after: 16,
            keep_segments: 2,
            fsync: true,
        }
    }
}

/// A sink the supervisor hands its periodic checkpoints to. Implemented by
/// [`ShardWriter`]; the indirection keeps `supervisor` free of any
/// filesystem knowledge (and lets tests count persists without a disk).
pub trait CheckpointSink: Send + Sync {
    /// Persist one checkpoint, whole. `seq` is the worker's checkpoint
    /// counter, `processed_at` the observations covered. An error means the
    /// bytes did not become durable; the worker keeps measuring and retries
    /// at its next checkpoint.
    fn persist(&self, seq: u64, processed_at: u64, bytes: &[u8]) -> io::Result<()>;

    /// [`CheckpointSink::persist`] of a checkpoint the caller has cut
    /// against one it handed to this sink before, named by the cut. A sink
    /// that uses the runs applies them only to that checkpoint, and only
    /// if it is durable. The supervisor persists through this; a sink with
    /// no use for the runs keeps the default, which drops them.
    fn persist_cut(
        &self,
        seq: u64,
        processed_at: u64,
        bytes: &[u8],
        cut: Option<Cut<'_>>,
    ) -> io::Result<()> {
        let _ = cut;
        self.persist(seq, processed_at, bytes)
    }
}

/// Cloneable, `Debug`-friendly handle around a [`CheckpointSink`] so it
/// can ride inside `SupervisorConfig` (which derives `Debug`).
#[derive(Clone)]
pub struct SinkHandle(pub Arc<dyn CheckpointSink>);

impl fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SinkHandle(..)")
    }
}

impl std::ops::Deref for SinkHandle {
    type Target = dyn CheckpointSink;
    fn deref(&self) -> &Self::Target {
        &*self.0
    }
}

/// Per-shard append state behind the store's mutex.
#[derive(Debug)]
struct ShardLog {
    /// Open active segment (lazily created on first append).
    file: Option<File>,
    /// Frames already in the active segment.
    frames_in_active: u64,
    /// Id the active segment takes when sealed (monotonic per shard).
    next_segment: u64,
    /// The frame being appended, assembled here under the shard's lock and
    /// kept between appends: a multi-megabyte frame re-uses warm pages
    /// instead of faulting in a fresh allocation per checkpoint.
    frame: Vec<u8>,
    /// Sequence number and length of the newest payload durable in the
    /// active segment: the only base a caller's cut is appended against.
    /// Cleared by a seal and by an append that failed after reaching the
    /// file, so the next frame is a keyframe.
    based: Option<(u64, usize)>,
}

impl ShardLog {
    fn new(next_segment: u64) -> Mutex<Self> {
        Mutex::new(Self {
            file: None,
            frames_in_active: 0,
            next_segment,
            frame: Vec::new(),
            based: None,
        })
    }
}

/// The append-only crash-consistent checkpoint log for one fleet.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    cfg: StoreConfig,
    generation: u64,
    /// Live shard count (manifest value); changes only via
    /// [`CheckpointStore::resize`].
    shards: AtomicUsize,
    /// A frozen store drops every append — the chaos harness's simulated
    /// process death: writes after the "crash instant" never reach disk.
    frozen: AtomicBool,
    /// Appends that became durable.
    persisted: AtomicU64,
    fault_plan: Option<DiskFaultPlan>,
    /// Per-shard append state. Behind an `RwLock` so an online resize can
    /// grow the vector; the vector never shrinks — after a scale-down,
    /// entries past the live count stay usable by writers of shards that
    /// are still draining, and their directories become recovery-invisible
    /// orphans once the manifest records the smaller fleet.
    logs: RwLock<Vec<Mutex<ShardLog>>>,
}

impl CheckpointStore {
    /// Create a fresh store for `shards` shards. Fails with
    /// [`StoreError::AlreadyExists`] if the directory already holds a
    /// manifest (use [`CheckpointStore::recover`] to reopen one).
    pub fn create(
        dir: impl AsRef<Path>,
        shards: usize,
        cfg: StoreConfig,
    ) -> Result<Arc<Self>, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        if dir.join("MANIFEST").exists() {
            return Err(StoreError::AlreadyExists);
        }
        fs::create_dir_all(&dir)?;
        for i in 0..shards {
            fs::create_dir_all(shard_dir(&dir, i))?;
        }
        write_manifest(&dir, 1, shards)?;
        Ok(Arc::new(Self::assemble(
            dir,
            cfg,
            1,
            shards,
            vec![0; shards],
        )))
    }

    /// Reopen an existing store: read the manifest, scan every shard's
    /// segments, truncate torn tails, and return the newest valid frame
    /// per shard together with a recovery report. The store continues
    /// appending under a bumped generation.
    pub fn recover(
        dir: impl AsRef<Path>,
        cfg: StoreConfig,
    ) -> Result<(Arc<Self>, RecoveryReport), StoreError> {
        let dir = dir.as_ref().to_path_buf();
        let (gen, shards) = read_manifest(&dir)?;
        let generation = gen + 1;
        let mut report = RecoveryReport {
            generation,
            shards,
            ..Default::default()
        };
        let mut next_segments = Vec::with_capacity(shards);
        for shard in 0..shards {
            let sdir = shard_dir(&dir, shard);
            fs::create_dir_all(&sdir)?;
            let (newest, max_segment) = scan_shard(&sdir, shard, &mut report)?;
            report.recovered.push(newest);
            next_segments.push(max_segment + 1);
        }
        write_manifest(&dir, generation, shards)?;
        Ok((
            Arc::new(Self::assemble(dir, cfg, generation, shards, next_segments)),
            report,
        ))
    }

    fn assemble(
        dir: PathBuf,
        cfg: StoreConfig,
        generation: u64,
        shards: usize,
        next_segments: Vec<u64>,
    ) -> Self {
        Self {
            dir,
            cfg,
            generation,
            shards: AtomicUsize::new(shards),
            frozen: AtomicBool::new(false),
            persisted: AtomicU64::new(0),
            fault_plan: None,
            logs: RwLock::new(next_segments.into_iter().map(ShardLog::new).collect()),
        }
    }

    /// Arm a disk fault plan: every subsequent append consults it. Must be
    /// called before writers are handed out (builder position).
    pub fn with_fault_plan(self: Arc<Self>, plan: DiskFaultPlan) -> Arc<Self> {
        let mut s = Arc::try_unwrap(self).unwrap_or_else(|_| {
            panic!("with_fault_plan must be called before the store is shared")
        });
        s.fault_plan = Some(plan);
        Arc::new(s)
    }

    /// Live shards (manifest value; changes via
    /// [`CheckpointStore::resize`]).
    pub fn num_shards(&self) -> usize {
        self.shards.load(Ordering::Acquire)
    }

    /// Current fleet generation (1 for a fresh store, +1 per recovery).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends that became durable so far.
    pub fn persisted(&self) -> u64 {
        self.persisted.load(Ordering::Relaxed)
    }

    /// Stop all persistence, instantly and permanently: the chaos
    /// harness's "process dies now" switch. In-memory state keeps running
    /// (threads must still be joined), but nothing after this instant
    /// reaches disk — recovery sees exactly what was durable before.
    pub fn freeze(&self) {
        self.frozen.store(true, Ordering::Release);
    }

    /// Whether [`CheckpointStore::freeze`] was called.
    pub fn is_frozen(&self) -> bool {
        self.frozen.load(Ordering::Acquire)
    }

    /// A persistence handle for one shard, to be wired into that shard's
    /// supervisor as its checkpoint sink.
    pub fn writer(self: &Arc<Self>, shard: usize) -> ShardWriter {
        self.writer_from(shard, 0)
    }

    /// A persistence handle whose frames carry `seq_base + seq` instead of
    /// the worker's raw checkpoint counter. Every promoted or respawned
    /// daemon starts counting checkpoints from 1 again; basing its writer
    /// in a strictly higher sequence band keeps newest-wins recovery
    /// (`(generation, seq)` ordering) correct across incarnations.
    pub fn writer_from(self: &Arc<Self>, shard: usize, seq_base: u64) -> ShardWriter {
        assert!(shard < self.num_shards(), "shard {shard} out of range");
        ShardWriter {
            store: Arc::clone(self),
            shard,
            seq_base,
            telemetry: None,
        }
    }

    /// Read the newest valid durable frame for `shard` from the live log
    /// files, without repairing anything — the promotion path's gap-replay
    /// source. Taken under the shard's append lock, so the scan never races
    /// a half-written frame; a torn or corrupt tail simply ends the scan at
    /// the last valid frame, exactly like recovery would.
    pub fn newest_frame(&self, shard: usize) -> Option<RecoveredFrame> {
        let mut newest: Option<RecoveredFrame> = None;
        self.for_each_frame(shard, |h, bytes| {
            if newest
                .as_ref()
                .is_none_or(|n| (h.generation, h.seq) >= (n.generation, n.seq))
            {
                newest = Some(RecoveredFrame::of(h, bytes));
            }
        });
        newest
    }

    /// Every valid durable frame for `shard`, in append order (sealed
    /// segments oldest-first, then the active log), each with its full
    /// payload (deltas replayed onto their segment's keyframe) — the
    /// cluster agent's backfill source: a node that reconnects after a
    /// partition replays the epochs the aggregator never saw straight out
    /// of this scan.
    /// Taken under the shard's append lock like
    /// [`CheckpointStore::newest_frame`]; torn or corrupt tails end a
    /// segment's contribution at its last valid frame.
    pub fn frames(&self, shard: usize) -> Vec<RecoveredFrame> {
        let mut out = Vec::new();
        self.for_each_frame(shard, |h, bytes| out.push(RecoveredFrame::of(h, bytes)));
        out
    }

    /// [`CheckpointStore::frames`] one frame at a time: each valid frame's
    /// header and full payload, lent to `on_frame` in append order. The
    /// segments are read a frame at a time too, so a scan holds one frame
    /// and one payload however long the log is.
    pub(crate) fn for_each_frame(
        &self,
        shard: usize,
        mut on_frame: impl FnMut(&StoreHeader, &[u8]),
    ) {
        let logs = self.logs.read().unwrap_or_else(|p| p.into_inner());
        let Some(log) = logs.get(shard) else {
            return;
        };
        let _guard = log.lock().unwrap_or_else(|p| p.into_inner());
        let sdir = shard_dir(&self.dir, shard);
        let mut ids = sealed_segment_ids(&sdir).unwrap_or_default();
        ids.sort_unstable();
        for id in ids {
            let path = sdir.join(format!("seg-{id:08}.log"));
            let _ = scan_segment(&path, shard, &mut on_frame);
        }
        let _ = scan_segment(&sdir.join("active.log"), shard, &mut on_frame);
    }

    /// Id the active segment of `shard` takes when sealed: the next append
    /// lands in a segment other than the last one's iff this moved.
    pub(crate) fn active_segment(&self, shard: usize) -> u64 {
        let logs = self.logs.read().unwrap_or_else(|p| p.into_inner());
        let log = logs[shard].lock().unwrap_or_else(|p| p.into_inner());
        log.next_segment
    }

    /// Online resize to `new_shards` (grow or shrink), for the pipeline's
    /// rescale: create the new shard directories, extend the append state,
    /// and rewrite the manifest so recovery sees the new fleet width. The
    /// log vector never shrinks — writers of shards still draining after a
    /// scale-down keep working against directories the manifest no longer
    /// lists (orphans, invisible to recovery; their in-memory state is
    /// carried over by the pipeline's merge, not by the store).
    pub fn resize(&self, new_shards: usize) -> Result<(), StoreError> {
        assert!(new_shards >= 1, "a store needs at least one shard");
        let mut logs = self.logs.write().unwrap_or_else(|p| p.into_inner());
        for i in logs.len()..new_shards {
            fs::create_dir_all(shard_dir(&self.dir, i))?;
            logs.push(ShardLog::new(0));
        }
        write_manifest(&self.dir, self.generation, new_shards)?;
        self.shards.store(new_shards, Ordering::Release);
        Ok(())
    }

    /// Append one checkpoint for `shard`, encoded as `encoding` says: a
    /// delta of the caller's runs when they were cut against the segment's
    /// previous frame, a keyframe otherwise. Returns the payload bytes
    /// appended, or an error when the frame did not become durable (frozen
    /// store, injected fault, or real I/O failure).
    fn append(
        &self,
        shard: usize,
        seq: u64,
        processed_at: u64,
        encoding: Encoding<'_>,
    ) -> io::Result<usize> {
        let frozen = || io::Error::new(io::ErrorKind::BrokenPipe, "checkpoint store frozen");
        if self.is_frozen() {
            return Err(frozen());
        }
        let action = self
            .fault_plan
            .as_ref()
            .map_or(DiskAction::Pass, DiskFaultPlan::next_action);
        match action {
            DiskAction::IoError => {
                return Err(io::Error::other("injected transient I/O error"));
            }
            // A torn write IS the crash instant, so the store freezes the
            // moment the fault is drawn — not once the frame is assembled,
            // which would let a sibling shard slip a whole frame in behind
            // the "crash".
            DiskAction::TornWrite => self.freeze(),
            // Held outside the shard's lock, so readers of the log
            // (`newest_frame`, `frames`) are not held with it.
            DiskAction::Block => {
                if let Some(plan) = &self.fault_plan {
                    plan.wait_released();
                }
                if self.is_frozen() {
                    return Err(frozen());
                }
            }
            _ => {}
        }
        let logs = self.logs.read().unwrap_or_else(|p| p.into_inner());
        let mut log = logs[shard].lock().unwrap_or_else(|p| p.into_inner());
        // The base is cleared here and set again only once this frame is
        // durable, so an append that fails from here on leaves the next
        // one a keyframe. Runs apply only to the payload their cut names.
        let based = log.based.take();
        let delta = matches!(encoding, Encoding::Cut(_, cut)
            if based == Some((cut.base_seq, cut.base_len)));
        let header = LogHeader {
            frame: StoreHeader {
                shard: shard as u16,
                generation: self.generation,
                seq,
                processed_at,
            },
            delta,
        };
        let ShardLog {
            file, frame: buf, ..
        } = &mut *log;
        frame::encode_into(buf, &header, |out| match encoding {
            Encoding::Cut(payload, cut) if delta => {
                encode_delta(out, cut.base_len, payload, cut.runs)
            }
            Encoding::Cut(payload, _) => out.extend_from_slice(payload),
            Encoding::Whole(parts) => parts.iter().for_each(|p| out.extend_from_slice(p)),
        });
        let body = buf.len() - FRAME_HEADER - frame::TRAILER;
        match action {
            DiskAction::BitFlip => {
                // Flip one payload bit, deterministically placed by the
                // sequence number: silent corruption the checksum must
                // catch at recovery, not at write time.
                let at = FRAME_HEADER + (xxh64(&seq.to_le_bytes(), 1) as usize) % body.max(1);
                buf[at] ^= 1 << (seq % 8);
            }
            DiskAction::TornWrite => {
                // Keep the header and roughly half the payload — the
                // classic torn tail.
                buf.truncate(FRAME_HEADER + body / 2);
            }
            _ => {}
        }
        let sdir = shard_dir(&self.dir, shard);
        if file.is_none() {
            *file = Some(
                OpenOptions::new()
                    .append(true)
                    .create(true)
                    .open(sdir.join("active.log"))?,
            );
        }
        let f = file.as_mut().unwrap();
        f.write_all(buf)?;
        if self.cfg.fsync {
            f.sync_data()?;
        }
        if action == DiskAction::TornWrite {
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected torn write (store frozen)",
            ));
        }
        let len = match encoding {
            Encoding::Cut(payload, _) => payload.len(),
            Encoding::Whole(_) => body,
        };
        log.based = Some((seq, len));
        log.frames_in_active += 1;
        self.persisted.fetch_add(1, Ordering::Relaxed);
        if log.frames_in_active >= self.cfg.rotate_after {
            self.seal(&mut log, &sdir)?;
        }
        Ok(body)
    }

    /// Seal the active segment: atomic rename to its numbered name, fsync
    /// the directory so the rename is durable, GC old segments, and start
    /// a fresh active file, opened by a keyframe, on the next append.
    fn seal(&self, log: &mut ShardLog, sdir: &Path) -> io::Result<()> {
        // The frames are already fsync'd; close before renaming.
        log.file = None;
        log.based = None;
        let sealed = sdir.join(format!("seg-{:08}.log", log.next_segment));
        fs::rename(sdir.join("active.log"), &sealed)?;
        sync_dir(sdir)?;
        log.next_segment += 1;
        log.frames_in_active = 0;
        // GC: every segment opens with a keyframe, so a whole segment is
        // the unit of history; beyond the configured redundancy it is
        // garbage.
        let mut ids = sealed_segment_ids(sdir)?;
        ids.sort_unstable();
        while ids.len() > self.cfg.keep_segments {
            let id = ids.remove(0);
            let _ = fs::remove_file(sdir.join(format!("seg-{id:08}.log")));
        }
        Ok(())
    }
}

/// Per-shard persistence handle: the [`CheckpointSink`] the supervisor
/// feeds.
pub struct ShardWriter {
    store: Arc<CheckpointStore>,
    shard: usize,
    /// Added to every frame's sequence number; see
    /// [`CheckpointStore::writer_from`].
    seq_base: u64,
    /// Optional telemetry: successful appends count frames and payload
    /// bytes into the shard's live cells.
    telemetry: Option<Arc<ShardTelemetry>>,
}

impl ShardWriter {
    /// The sequence band this writer stamps frames into.
    pub fn seq_base(&self) -> u64 {
        self.seq_base
    }

    /// Attach a telemetry instance; every durably appended frame bumps
    /// its `frames_persisted` counter and adds its payload bytes (a delta
    /// frame's, not the checkpoint's) to `bytes_persisted`.
    pub fn with_telemetry(mut self, telemetry: Arc<ShardTelemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }
}

impl ShardWriter {
    /// Persist the concatenation of `parts` as a keyframe: for a log whose
    /// records carry their own deltas.
    pub(crate) fn persist_whole(
        &self,
        seq: u64,
        processed_at: u64,
        parts: &[&[u8]],
    ) -> io::Result<()> {
        self.persist_as(seq, processed_at, Encoding::Whole(parts))
    }

    fn persist_as(&self, seq: u64, processed_at: u64, encoding: Encoding<'_>) -> io::Result<()> {
        let appended =
            self.store
                .append(self.shard, self.seq_base + seq, processed_at, encoding)?;
        if let Some(tel) = &self.telemetry {
            tel.frames_persisted.incr();
            tel.bytes_persisted.add(appended as u64);
        }
        Ok(())
    }
}

impl CheckpointSink for ShardWriter {
    /// A keyframe.
    fn persist(&self, seq: u64, processed_at: u64, bytes: &[u8]) -> io::Result<()> {
        self.persist_as(seq, processed_at, Encoding::Whole(&[bytes]))
    }

    /// A delta of the cut's runs when the payload it names (its sequence
    /// number in this writer's band, and its length) is the segment's
    /// previous frame; a keyframe otherwise, and without a cut.
    fn persist_cut(
        &self,
        seq: u64,
        processed_at: u64,
        bytes: &[u8],
        cut: Option<Cut<'_>>,
    ) -> io::Result<()> {
        let encoding = match cut {
            Some(cut) => Encoding::Cut(
                bytes,
                Cut {
                    base_seq: self.seq_base + cut.base_seq,
                    ..cut
                },
            ),
            None => Encoding::Whole(&[bytes]),
        };
        self.persist_as(seq, processed_at, encoding)
    }
}

/// The runs of a payload that differ from an earlier payload, cut once by
/// the holder of both ([`cut`]) and reused by every log and wire that
/// payload goes to.
#[derive(Clone, Copy, Debug)]
pub struct Cut<'a> {
    /// Sequence number the earlier payload was handed to the sink under.
    pub base_seq: u64,
    /// The earlier payload's length.
    pub base_len: usize,
    /// The runs, as [`cut`] gave them: a delta of them is smaller than the
    /// payload.
    pub runs: &'a [Range<usize>],
}

/// How [`CheckpointStore::append`] encodes a payload.
#[derive(Clone, Copy)]
enum Encoding<'a> {
    /// As a delta of runs the caller cut, when the segment's previous
    /// frame is the payload they were cut against; else as a keyframe.
    Cut(&'a [u8], Cut<'a>),
    /// As a keyframe of these parts, in order.
    Whole(&'a [&'a [u8]]),
}

/// One recovered checkpoint: the newest frame of a shard that passed every
/// integrity check.
#[derive(Clone, Debug)]
pub struct RecoveredFrame {
    /// Fleet generation the frame was written under.
    pub generation: u64,
    /// Worker checkpoint sequence within that generation.
    pub seq: u64,
    /// Observations the checkpoint covers.
    pub processed_at: u64,
    /// The checkpoint payload (`sketches::checkpoint` codec).
    pub bytes: Vec<u8>,
}

impl RecoveredFrame {
    fn of(header: &StoreHeader, bytes: &[u8]) -> Self {
        Self {
            generation: header.generation,
            seq: header.seq,
            processed_at: header.processed_at,
            bytes: bytes.to_vec(),
        }
    }
}

/// What recovery found and repaired.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Generation the reopened store now writes under.
    pub generation: u64,
    /// Shards in the manifest.
    pub shards: usize,
    /// Frames whose header and checksum both verified.
    pub frames_valid: u64,
    /// Frames rejected by a checksum or header mismatch inside sealed
    /// data (bit flips, splices).
    pub corrupt_frames: u64,
    /// Frames rejected for a newer format version.
    pub version_rejected: u64,
    /// Torn tails truncated off active segments.
    pub torn_tails_truncated: u64,
    /// Newest valid frame per shard (`None`: no durable state survived
    /// for that shard — it restarts blank).
    pub recovered: Vec<Option<RecoveredFrame>>,
}

impl RecoveryReport {
    /// Shards that recovered no durable state at all.
    pub fn blank_shards(&self) -> Vec<usize> {
        self.recovered
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_none())
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether recovery had to repair or reject anything.
    pub fn is_pristine(&self) -> bool {
        self.corrupt_frames == 0 && self.version_rejected == 0 && self.torn_tails_truncated == 0
    }
}

fn shard_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:04}"))
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    // Directory fsync makes the rename itself durable on POSIX
    // filesystems; best-effort elsewhere.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Decode the frame at the head of `data`, refusing one addressed to a
/// shard other than `shard`.
fn decode_addressed(data: &[u8], shard: usize) -> Result<Frame<'_, LogHeader>, FrameError> {
    // The header is checked before the length: a frame addressed to
    // another shard is corrupt, not torn, even when it is cut short.
    if frame::peek::<LogHeader>(data)?.0.frame.shard as usize != shard {
        return Err(FrameError::Malformed("frame addressed to another shard"));
    }
    frame::decode(data)
}

/// Fill `runs` with the byte runs of `image` that differ from `base`, and
/// say whether a delta of them is smaller than `image`.
///
/// The two are compared in [`LINE`]-byte lines aligned at their ends: a
/// checkpoint's counters are the tail of its image, so a head that
/// changes length (a heavy-hitter table, an epoch report) shifts nothing
/// after it. A line of `image` with no counterpart in `base` differs.
/// Adjacent differing lines make one run. The size decides alone: a delta
/// smaller than the image appends and replays faster at any density
/// (DESIGN.md, "Delta frames", has the measurement).
pub(crate) fn diff_lines(base: &[u8], image: &[u8], runs: &mut Vec<Range<usize>>) -> bool {
    let n = image.len();
    let mut diff = Diff::new(base, image, runs);
    let mut at = 0;
    let mut end = match n % LINE {
        0 => LINE.min(n),
        head => head,
    };
    while at < n {
        if !diff.line(at..end) {
            return false;
        }
        at = end;
        end += LINE;
    }
    diff.small()
}

/// Cut `payload` against `base`, a payload the caller persisted or sent
/// before: fill `runs` with the byte runs of `payload` that differ from it,
/// compared in 64-byte lines aligned at the payloads' ends (adjacent
/// differing lines make one run), and say whether a delta of them is
/// smaller than `payload`. The store appends such runs as they are
/// ([`Cut`]), and the cluster wire ships them.
///
/// `lines`, when the caller knows them, are counter lines of an array that
/// ends both payloads, counted from its end: those written since `base`
/// (outside them only the head may differ), or with `exact` those whose
/// counters changed. Then only the head and, unless `exact`, those lines
/// are compared, for the same runs; lines covering more counters than
/// either payload holds are ignored. Debug builds check the guided runs
/// against a whole diff and abort on a difference.
pub fn cut(
    base: &[u8],
    payload: &[u8],
    lines: Option<&DirtyLines>,
    exact: bool,
    runs: &mut Vec<Range<usize>>,
) -> bool {
    let fits = |lines: &&DirtyLines| lines.counters() * 8 <= base.len().min(payload.len());
    let Some(lines) = lines.filter(fits) else {
        return diff_lines(base, payload, runs);
    };
    let small = diff_marked(base, payload, lines, exact, runs);
    if cfg!(debug_assertions) {
        // The differential oracle: the guided compare is the whole one. A
        // mismatch aborts, as a panic in a sink or a seal would only be
        // caught and retried.
        let mut whole = Vec::new();
        let again = diff_lines(base, payload, &mut whole);
        if again != small || (small && whole != *runs) {
            eprintln!("a lines-guided diff differs from a whole one");
            std::process::abort();
        }
    }
    small
}

/// [`diff_lines`] of an `image` that repeats `base` outside its head and
/// the counter lines `lines` marks (see [`cut`]; the array must fit in
/// both): the same runs and the same answer, for a compare of the head and
/// the marked lines only. With `exact`, the marked lines are the ones
/// whose counters changed, so they differ and are not compared either.
///
/// The counter array ends both payloads, and its lines are aligned at its
/// end as the grid of `diff_lines` is at the payload's: each counter line
/// is one grid line. Every grid line left out lies in an unmarked counter
/// line, so it is equal, and `diff_lines` would have passed over it
/// without a run or a byte of size.
fn diff_marked(
    base: &[u8],
    image: &[u8],
    lines: &DirtyLines,
    exact: bool,
    runs: &mut Vec<Range<usize>>,
) -> bool {
    let n = image.len();
    let first = match n % LINE {
        0 => LINE.min(n),
        head => head,
    };
    // The bytes of grid line `g`, and the grid lines in all.
    let span = |g: usize| match g {
        0 => 0..first,
        g => first + (g - 1) * LINE..first + g * LINE,
    };
    let grid = (n - first) / LINE + usize::from(n > 0);
    // The head's grid lines, the one it shares with a short first counter
    // line included, are compared whole; counter line `l` is grid line
    // `grid - lines + l`.
    let tail = n - lines.counters() * 8;
    let head = if tail == 0 {
        0
    } else {
        1 + (tail - first.min(tail)).div_ceil(LINE)
    };
    let offset = grid - lines.lines();
    let mut diff = Diff::new(base, image, runs);
    if (0..head).any(|g| !diff.line(span(g))) {
        return false;
    }
    let mut small = true;
    lines.for_each_line(|l| {
        let g = offset + l;
        if small && g >= head {
            small = if exact {
                diff.differs(span(g))
            } else {
                diff.line(span(g))
            };
        }
    });
    small && diff.small()
}

/// One pass of [`diff_lines`]' comparison, a grid line at a time, in
/// increasing order: the runs found so far and the size of their delta.
struct Diff<'a> {
    base: &'a [u8],
    image: &'a [u8],
    runs: &'a mut Vec<Range<usize>>,
    size: usize,
}

impl<'a> Diff<'a> {
    fn new(base: &'a [u8], image: &'a [u8], runs: &'a mut Vec<Range<usize>>) -> Self {
        runs.clear();
        Self {
            base,
            image,
            runs,
            size: 8,
        }
    }

    /// Compare grid line `at..end` of the image with its counterpart in
    /// the base, aligned at the ends, adding it to the runs if it differs
    /// (a line the base has no counterpart for differs). `false` once the
    /// delta is no smaller than the image.
    fn line(&mut self, line: Range<usize>) -> bool {
        let (n, base) = (self.image.len(), self.base);
        let fresh = n.saturating_sub(base.len());
        let same = line.start >= fresh && {
            let b = line.start + base.len() - n;
            self.image[line.clone()] == base[b..b + line.len()]
        };
        if same {
            self.small()
        } else {
            self.differs(line)
        }
    }

    /// Add grid line `at..end`, known to differ, to the runs.
    fn differs(&mut self, Range { start: at, end }: Range<usize>) -> bool {
        match self.runs.last_mut() {
            Some(run) if run.end == at => run.end = end,
            _ => {
                self.runs.push(at..end);
                self.size += 8;
            }
        }
        self.size += end - at;
        self.small()
    }

    fn small(&self) -> bool {
        self.size < self.image.len()
    }
}

/// Append the payload of a delta frame: the image's length, its base's
/// length, then each run of `image` as `at u32 · len u32 · bytes`. Bytes
/// outside every run are the base's, aligned at the end.
pub(crate) fn encode_delta(
    out: &mut Vec<u8>,
    base_len: usize,
    image: &[u8],
    runs: &[Range<usize>],
) {
    out.extend_from_slice(&(image.len() as u32).to_le_bytes());
    out.extend_from_slice(&(base_len as u32).to_le_bytes());
    for r in runs {
        out.extend_from_slice(&(r.start as u32).to_le_bytes());
        out.extend_from_slice(&(r.len() as u32).to_le_bytes());
        out.extend_from_slice(&image[r.clone()]);
    }
}

/// Free bytes an [`Image`] keeps in front of its payload when a delta
/// outgrows the slack it had: a head that keeps growing moves the payload
/// once per this many bytes.
const SLACK: usize = 64 * 1024;

/// A payload that deltas rewrite in place. The payload is `buf[start..]`,
/// and the `start` bytes before it are slack: a delta is aligned at the
/// payload's end, so a head that grows or shrinks moves `start` and no
/// byte after it, and an apply costs the delta's runs, not the payload.
#[derive(Clone, Default)]
pub(crate) struct Image {
    buf: Vec<u8>,
    start: usize,
}

impl PartialEq for Image {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for Image {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Image({} bytes)", self.as_slice().len())
    }
}

impl Image {
    /// The image of `payload`, taken without a copy.
    pub(crate) fn new(payload: Vec<u8>) -> Self {
        Self {
            buf: payload,
            start: 0,
        }
    }

    /// The payload.
    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    /// Replace the payload by a copy of `payload`, in the buffer it has.
    pub(crate) fn set(&mut self, payload: &[u8]) {
        self.buf.clear();
        self.buf.extend_from_slice(payload);
        self.start = 0;
    }

    /// Turn the payload, the one `delta` was cut against, into the payload
    /// `delta` encodes. A delta cut against another base, with runs out of
    /// order or out of bounds, or leaving bytes its base never had, is
    /// malformed. On an error the payload may be left half rewritten.
    pub(crate) fn apply(&mut self, delta: &[u8]) -> Result<(), FrameError> {
        let mut r = Reader::new(delta);
        let len = r.u32()? as usize;
        let base_len = r.u32()? as usize;
        if base_len != self.buf.len() - self.start {
            return Err(FrameError::Malformed("delta cut against another base"));
        }
        // Bytes the base lacks come from the runs, so they fit in the delta:
        // a larger claim is refused before anything is allocated for it.
        let fresh = len.saturating_sub(base_len);
        if fresh > delta.len() {
            return Err(FrameError::Malformed("delta leaves bytes its base lacks"));
        }
        // Realign the base at the end of the new length: move the start,
        // or the payload once, behind new slack, when the head outgrew it.
        if len < base_len {
            self.start += base_len - len;
        } else if fresh <= self.start {
            self.start -= fresh;
        } else {
            let mut buf = Vec::with_capacity(SLACK + len);
            buf.resize(SLACK + fresh, 0);
            buf.extend_from_slice(&self.buf[self.start..]);
            self.buf = buf;
            self.start = SLACK;
        }
        let image = &mut self.buf[self.start..];
        let mut done = 0;
        while !r.is_empty() {
            let at = r.u32()? as usize;
            let n = r.u32()? as usize;
            let bytes = r.take(n)?;
            if at < done || at > len || n > len - at {
                return Err(FrameError::Malformed("delta run out of order or bounds"));
            }
            if done < fresh && at != done {
                return Err(FrameError::Malformed("delta leaves bytes its base lacks"));
            }
            image[at..at + n].copy_from_slice(bytes);
            done = at + n;
        }
        if done < fresh {
            return Err(FrameError::Malformed("delta leaves bytes its base lacks"));
        }
        Ok(())
    }
}

/// Read the frame at `file`'s position into `buf`: its head, then as much
/// of the length the head claims as the `left` bytes of the file hold, so
/// a frame the file cuts short decodes as truncated.
fn read_frame(file: &mut File, buf: &mut Vec<u8>, left: usize) -> io::Result<()> {
    buf.clear();
    file.take(FRAME_HEADER.min(left) as u64).read_to_end(buf)?;
    if let Ok((_, need)) = frame::peek::<LogHeader>(buf) {
        let rest = need.min(left) - buf.len();
        buf.reserve(rest);
        file.take(rest as u64).read_to_end(buf)?;
    }
    Ok(())
}

/// Scan one segment file, lending every valid frame for `shard` to
/// `on_frame` in append order, with its payload replayed in full: a
/// keyframe's as read, a delta's applied to the frame before it. The file
/// is read a frame at a time. Returns where and why the scan stopped short
/// of the end of the file, if it did.
fn scan_segment(
    path: &Path,
    shard: usize,
    mut on_frame: impl FnMut(&StoreHeader, &[u8]),
) -> io::Result<Option<(usize, FrameError)>> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let size = file.metadata()?.len() as usize;
    // The payload of the frame just read: the next delta's base. A
    // keyframe becomes it where it was read, its frame head the slack.
    let mut image = Image::default();
    let mut buf = Vec::new();
    let mut at = 0usize;
    while at < size {
        read_frame(&mut file, &mut buf, size - at)?;
        let (header, len) = match decode_addressed(&buf, shard) {
            Ok(f) => (f.header, f.len),
            Err(e) => return Ok(Some((at, e))),
        };
        let replayed = match (header.delta, at) {
            (false, _) => {
                buf.truncate(len - frame::TRAILER);
                std::mem::swap(&mut image.buf, &mut buf);
                image.start = FRAME_HEADER;
                Ok(())
            }
            (true, 0) => Err(FrameError::Malformed("segment opens with a delta")),
            (true, _) => image.apply(&buf[FRAME_HEADER..len - frame::TRAILER]),
        };
        if let Err(e) = replayed {
            return Ok(Some((at, e)));
        }
        on_frame(&header.frame, image.as_slice());
        at += len;
    }
    Ok(None)
}

/// Scan all of one shard's segments (sealed in id order, then the active
/// log), repair the active log's torn tail, and return the newest valid
/// frame plus the highest sealed segment id seen.
fn scan_shard(
    sdir: &Path,
    shard: usize,
    report: &mut RecoveryReport,
) -> Result<(Option<RecoveredFrame>, u64), StoreError> {
    let mut ids = sealed_segment_ids(sdir)?;
    ids.sort_unstable();
    let max_segment = ids.last().copied().unwrap_or(0);
    let mut newest: Option<RecoveredFrame> = None;
    let mut valid = 0u64;
    let mut take = |h: &StoreHeader, bytes: &[u8]| {
        valid += 1;
        // Append order within a file and (generation, seq) across files
        // agree for honest histories; the explicit comparison keeps a
        // stale file copied back into place from shadowing newer state.
        if newest
            .as_ref()
            .is_none_or(|n| (h.generation, h.seq) >= (n.generation, n.seq))
        {
            newest = Some(RecoveredFrame::of(h, bytes));
        }
    };
    for &id in &ids {
        let path = sdir.join(format!("seg-{id:08}.log"));
        match scan_segment(&path, shard, &mut take)? {
            None => {}
            Some((_, FrameError::Version { .. })) => report.version_rejected += 1,
            Some(_) => report.corrupt_frames += 1,
        }
    }
    let active = sdir.join("active.log");
    match scan_segment(&active, shard, &mut take)? {
        None => {}
        Some((_, FrameError::Version { .. })) => report.version_rejected += 1,
        Some((at, e)) => {
            // A torn tail is the classic crash signature: a half-written
            // last frame. After any other break, everything from the
            // broken frame on is untrustworthy in an append-only log.
            // Either way, truncate so the reopened log appends from a
            // clean edge.
            let f = OpenOptions::new().write(true).open(&active)?;
            f.set_len(at as u64)?;
            f.sync_all()?;
            if matches!(e, FrameError::Truncated { .. }) {
                report.torn_tails_truncated += 1;
            } else {
                report.corrupt_frames += 1;
            }
        }
    }
    report.frames_valid += valid;
    Ok((newest, max_segment))
}

fn sealed_segment_ids(sdir: &Path) -> io::Result<Vec<u64>> {
    let mut ids = Vec::new();
    for entry in fs::read_dir(sdir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(id) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".log"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            ids.push(id);
        }
    }
    Ok(ids)
}

/// Write the fleet manifest atomically: tmp file + fsync + rename + dir
/// fsync.
fn write_manifest(dir: &Path, generation: u64, shards: usize) -> io::Result<()> {
    let header = ManifestHeader {
        generation,
        shards: shards as u32,
    };
    let buf = frame::encode(&header, &[]);
    let tmp = dir.join("MANIFEST.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&buf)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, dir.join("MANIFEST"))?;
    sync_dir(dir)
}

fn read_manifest(dir: &Path) -> Result<(u64, usize), StoreError> {
    let data = match fs::read(dir.join("MANIFEST")) {
        Ok(d) => d,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(StoreError::ManifestMissing),
        Err(e) => return Err(StoreError::Io(e)),
    };
    let m = frame::decode_exact::<ManifestHeader>(&data)
        .map_err(StoreError::Manifest)?
        .header;
    Ok((m.generation, m.shards as usize))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "nitro-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn payload(tag: u8, len: usize) -> Vec<u8> {
        (0..len).map(|i| tag ^ (i as u8)).collect()
    }

    /// A caller that holds the payload it persisted last and cuts each
    /// next one against it, as the supervisor and the agent do.
    struct Cutting<'a> {
        w: &'a ShardWriter,
        prev: Option<(u64, Vec<u8>)>,
        runs: Vec<Range<usize>>,
    }

    impl<'a> Cutting<'a> {
        fn new(w: &'a ShardWriter) -> Self {
            Self {
                w,
                prev: None,
                runs: Vec::new(),
            }
        }

        fn persist(&mut self, seq: u64, processed_at: u64, payload: &[u8]) -> io::Result<()> {
            let runs = &mut self.runs;
            let cut = self.prev.as_ref().and_then(|(base_seq, base)| {
                cut(base, payload, None, false, runs).then_some(Cut {
                    base_seq: *base_seq,
                    base_len: base.len(),
                    runs,
                })
            });
            let result = self.w.persist_cut(seq, processed_at, payload, cut);
            self.prev = result.is_ok().then(|| (seq, payload.to_vec()));
            result
        }
    }

    /// One keyframe, encoded into a fresh buffer.
    fn keyframe(
        shard: u16,
        generation: u64,
        seq: u64,
        processed_at: u64,
        payload: &[u8],
    ) -> Vec<u8> {
        let header = StoreHeader {
            shard,
            generation,
            seq,
            processed_at,
        };
        frame::encode(&header, payload)
    }

    #[test]
    fn append_recover_roundtrip_returns_newest_frame_per_shard() {
        let dir = tmpdir("roundtrip");
        let store = CheckpointStore::create(&dir, 2, StoreConfig::default()).unwrap();
        let w0 = store.writer(0);
        let w1 = store.writer(1);
        for seq in 1..=3u64 {
            w0.persist(seq, seq * 100, &payload(seq as u8, 64)).unwrap();
        }
        w1.persist(1, 7, &payload(9, 32)).unwrap();
        drop((w0, w1));
        drop(store);

        let (reopened, report) = CheckpointStore::recover(&dir, StoreConfig::default()).unwrap();
        assert_eq!(report.generation, 2);
        assert_eq!(reopened.generation(), 2);
        assert_eq!(report.frames_valid, 4);
        assert!(report.is_pristine());
        let f0 = report.recovered[0].as_ref().unwrap();
        assert_eq!((f0.seq, f0.processed_at), (3, 300));
        assert_eq!(f0.bytes, payload(3, 64));
        let f1 = report.recovered[1].as_ref().unwrap();
        assert_eq!(f1.bytes, payload(9, 32));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_existing_manifest() {
        let dir = tmpdir("exists");
        let _s = CheckpointStore::create(&dir, 1, StoreConfig::default()).unwrap();
        assert!(matches!(
            CheckpointStore::create(&dir, 1, StoreConfig::default()),
            Err(StoreError::AlreadyExists)
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_seals_segments_and_gc_keeps_configured_history() {
        let dir = tmpdir("rotate");
        let cfg = StoreConfig {
            rotate_after: 2,
            keep_segments: 1,
            fsync: false,
        };
        let store = CheckpointStore::create(&dir, 1, cfg.clone()).unwrap();
        let w = store.writer(0);
        for seq in 1..=9u64 {
            w.persist(seq, seq, &payload(seq as u8, 40)).unwrap();
        }
        // 9 appends at rotate_after=2 → 4 seals; GC keeps 1 sealed + the
        // active file holding frame 9.
        let sdir = shard_dir(&dir, 0);
        let ids = sealed_segment_ids(&sdir).unwrap();
        assert_eq!(ids.len(), 1, "gc must keep exactly one sealed segment");
        assert!(sdir.join("active.log").exists());

        drop(w);
        drop(store);
        let (_, report) = CheckpointStore::recover(&dir, cfg).unwrap();
        let newest = report.recovered[0].as_ref().unwrap();
        assert_eq!(newest.seq, 9, "newest frame survives rotation + gc");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_previous_frame_recovered() {
        let dir = tmpdir("torn");
        let store = CheckpointStore::create(&dir, 1, StoreConfig::default()).unwrap();
        let w = store.writer(0);
        w.persist(1, 10, &payload(1, 64)).unwrap();
        w.persist(2, 20, &payload(2, 64)).unwrap();
        drop(w);
        drop(store);
        // Tear the tail by hand: chop the last 30 bytes of the active log.
        let active = shard_dir(&dir, 0).join("active.log");
        let len = fs::metadata(&active).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&active)
            .unwrap()
            .set_len(len - 30)
            .unwrap();

        let (_, report) = CheckpointStore::recover(&dir, StoreConfig::default()).unwrap();
        assert_eq!(report.torn_tails_truncated, 1);
        let newest = report.recovered[0].as_ref().unwrap();
        assert_eq!(newest.seq, 1, "frame 2 was torn; frame 1 must win");
        assert_eq!(
            fs::metadata(&active).unwrap().len(),
            (FRAME_HEADER + 64 + frame::TRAILER) as u64,
            "the torn bytes must be gone from disk"
        );
        // The repaired log keeps appending cleanly.
        let (reopened, _) = CheckpointStore::recover(&dir, StoreConfig::default()).unwrap();
        reopened.writer(0).persist(5, 50, &payload(5, 16)).unwrap();
        drop(reopened);
        let (_, report) = CheckpointStore::recover(&dir, StoreConfig::default()).unwrap();
        assert_eq!(report.recovered[0].as_ref().unwrap().seq, 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_rejected_by_checksum_and_older_frame_wins() {
        let dir = tmpdir("flip");
        let store = CheckpointStore::create(&dir, 1, StoreConfig::default()).unwrap();
        let w = store.writer(0);
        w.persist(1, 10, &payload(1, 64)).unwrap();
        w.persist(2, 20, &payload(2, 64)).unwrap();
        drop(w);
        drop(store);
        // Flip one bit inside the *second* frame's payload.
        let active = shard_dir(&dir, 0).join("active.log");
        let mut data = fs::read(&active).unwrap();
        let frame2 = FRAME_HEADER + 64 + frame::TRAILER;
        data[frame2 + FRAME_HEADER + 13] ^= 0x10;
        fs::write(&active, &data).unwrap();

        let (_, report) = CheckpointStore::recover(&dir, StoreConfig::default()).unwrap();
        assert_eq!(report.corrupt_frames, 1);
        assert_eq!(report.recovered[0].as_ref().unwrap().seq, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_frame_for_another_shard_is_corrupt_even_when_cut_short() {
        let dir = tmpdir("misaddressed");
        let store = CheckpointStore::create(&dir, 1, StoreConfig::default()).unwrap();
        store.writer(0).persist(1, 10, &payload(1, 64)).unwrap();
        drop(store);
        let active = shard_dir(&dir, 0).join("active.log");
        let mut data = fs::read(&active).unwrap();
        let good = data.len();
        let stray = keyframe(1, 1, 2, 20, &payload(2, 64));
        data.extend_from_slice(&stray[..stray.len() - 10]);
        fs::write(&active, &data).unwrap();

        let (_, report) = CheckpointStore::recover(&dir, StoreConfig::default()).unwrap();
        assert_eq!((report.corrupt_frames, report.torn_tails_truncated), (1, 0));
        assert_eq!(report.recovered[0].as_ref().unwrap().seq, 1);
        assert_eq!(fs::metadata(&active).unwrap().len(), good as u64);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn future_version_frame_rejected() {
        let dir = tmpdir("ver");
        let store = CheckpointStore::create(&dir, 1, StoreConfig::default()).unwrap();
        store.writer(0).persist(1, 10, &payload(1, 32)).unwrap();
        drop(store);
        // Stamp the frame with a future version (and fix nothing else —
        // versioning must reject before the checksum is even consulted).
        let active = shard_dir(&dir, 0).join("active.log");
        let mut data = fs::read(&active).unwrap();
        data[4] = STORE_VERSION + 1;
        fs::write(&active, &data).unwrap();
        let (_, report) = CheckpointStore::recover(&dir, StoreConfig::default()).unwrap();
        assert_eq!(report.version_rejected, 1);
        assert!(report.recovered[0].is_none());
        assert_eq!(report.blank_shards(), vec![0]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_is_a_typed_error() {
        let dir = tmpdir("manifest");
        let _ = CheckpointStore::create(&dir, 3, StoreConfig::default()).unwrap();
        let m = dir.join("MANIFEST");
        let mut data = fs::read(&m).unwrap();
        *data.last_mut().unwrap() ^= 0xFF;
        fs::write(&m, &data).unwrap();
        assert!(matches!(
            CheckpointStore::recover(&dir, StoreConfig::default()),
            Err(StoreError::Manifest(FrameError::BadChecksum))
        ));
        fs::remove_dir_all(&dir).unwrap();
        assert!(matches!(
            CheckpointStore::recover(&dir, StoreConfig::default()),
            Err(StoreError::ManifestMissing | StoreError::Io(_))
        ));
    }

    #[test]
    fn newest_frame_reads_live_state_without_repairing() {
        let dir = tmpdir("newest");
        let cfg = StoreConfig {
            rotate_after: 2,
            keep_segments: 2,
            fsync: false,
        };
        let store = CheckpointStore::create(&dir, 2, cfg).unwrap();
        assert!(store.newest_frame(0).is_none(), "empty shard has no frame");
        let w = store.writer(0);
        for seq in 1..=5u64 {
            w.persist(seq, seq * 10, &payload(seq as u8, 48)).unwrap();
        }
        let f = store.newest_frame(0).unwrap();
        assert_eq!((f.seq, f.processed_at), (5, 50));
        assert_eq!(f.bytes, payload(5, 48));
        assert!(store.newest_frame(1).is_none());
        assert!(store.newest_frame(7).is_none(), "out of range is None");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn based_writer_shadows_lower_sequence_bands() {
        let dir = tmpdir("seqbase");
        let store = CheckpointStore::create(&dir, 1, StoreConfig::default()).unwrap();
        // Primary writes seqs 1..=3; its promoted successor restarts its
        // own counter at 1 but in a higher band, so newest-wins ordering
        // must pick the successor's frame.
        let primary = store.writer(0);
        for seq in 1..=3u64 {
            primary.persist(seq, seq, &payload(0xAA, 32)).unwrap();
        }
        let promoted = store.writer_from(0, 1 << 32);
        assert_eq!(promoted.seq_base(), 1 << 32);
        promoted.persist(1, 100, &payload(0xBB, 32)).unwrap();
        let f = store.newest_frame(0).unwrap();
        assert_eq!(f.seq, (1 << 32) + 1);
        assert_eq!(f.bytes, payload(0xBB, 32));
        drop((primary, promoted));
        drop(store);
        let (_, report) = CheckpointStore::recover(&dir, StoreConfig::default()).unwrap();
        assert_eq!(
            report.recovered[0].as_ref().unwrap().bytes,
            payload(0xBB, 32)
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resize_grows_and_shrinks_the_manifest_fleet() {
        let dir = tmpdir("resize");
        let store = CheckpointStore::create(&dir, 2, StoreConfig::default()).unwrap();
        store.writer(1).persist(1, 5, &payload(7, 24)).unwrap();
        store.resize(4).unwrap();
        assert_eq!(store.num_shards(), 4);
        store.writer(3).persist(1, 9, &payload(3, 24)).unwrap();
        // Shrink below the old width: the manifest drops to 1 shard, but
        // writers for draining shards keep appending into orphan dirs.
        store.resize(1).unwrap();
        assert_eq!(store.num_shards(), 1);
        store.writer(0).persist(1, 2, &payload(1, 24)).unwrap();
        assert!(
            store.newest_frame(3).is_some(),
            "orphan dirs stay readable while the store is open"
        );
        drop(store);
        let (reopened, report) = CheckpointStore::recover(&dir, StoreConfig::default()).unwrap();
        assert_eq!(report.shards, 1, "recovery sees the post-shrink fleet");
        assert_eq!(reopened.num_shards(), 1);
        assert_eq!(report.recovered.len(), 1);
        assert_eq!(report.recovered[0].as_ref().unwrap().bytes, payload(1, 24));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn frozen_store_drops_appends_like_a_dead_process() {
        let dir = tmpdir("frozen");
        let store = CheckpointStore::create(&dir, 1, StoreConfig::default()).unwrap();
        let w = store.writer(0);
        w.persist(1, 10, &payload(1, 32)).unwrap();
        store.freeze();
        assert!(w.persist(2, 20, &payload(2, 32)).is_err());
        drop(w);
        drop(store);
        let (_, report) = CheckpointStore::recover(&dir, StoreConfig::default()).unwrap();
        assert_eq!(
            report.recovered[0].as_ref().unwrap().seq,
            1,
            "post-freeze writes must never reach disk"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_torn_write_freezes_and_recovery_repairs() {
        let dir = tmpdir("fault-torn");
        let plan = DiskFaultPlan::new();
        let store = CheckpointStore::create(&dir, 1, StoreConfig::default())
            .unwrap()
            .with_fault_plan(plan.clone());
        let w = store.writer(0);
        w.persist(1, 10, &payload(1, 64)).unwrap();
        plan.torn_write_after(0);
        assert!(w.persist(2, 20, &payload(2, 64)).is_err());
        assert_eq!(plan.fired(), 1);
        assert!(store.is_frozen(), "a torn write is the crash instant");
        drop(w);
        drop(store);
        let (_, report) = CheckpointStore::recover(&dir, StoreConfig::default()).unwrap();
        assert_eq!(report.torn_tails_truncated, 1);
        assert_eq!(report.recovered[0].as_ref().unwrap().seq, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recycled_frame_buffer_writes_the_bytes_a_fresh_encode_would() {
        let dir = tmpdir("recycled");
        let plan = DiskFaultPlan::new();
        let cfg = StoreConfig {
            rotate_after: 2,
            keep_segments: 2,
            fsync: false,
        };
        let store = CheckpointStore::create(&dir, 1, cfg)
            .unwrap()
            .with_fault_plan(plan.clone());
        let w = store.writer(0);
        // Long, longer, short, long: a stale tail left in the per-shard
        // buffer by a longer frame must never reach the file.
        let payloads = [
            payload(1, 64),
            payload(2, 200),
            payload(3, 32),
            payload(4, 100),
        ];
        let frame = |seq: u64| keyframe(0, 1, seq, seq * 10, &payloads[seq as usize - 1]);
        w.persist(1, 10, &payloads[0]).unwrap();
        plan.bit_flip_after(0);
        w.persist(2, 20, &payloads[1]).unwrap(); // second frame: seals seg-0
        w.persist(3, 30, &payloads[2]).unwrap();
        plan.torn_write_after(0);
        assert!(w.persist(4, 40, &payloads[3]).is_err());

        let mut flipped = frame(2);
        flipped[FRAME_HEADER + (xxh64(&2u64.to_le_bytes(), 1) as usize) % 200] ^= 1 << 2;
        let sdir = shard_dir(&dir, 0);
        assert_eq!(
            fs::read(sdir.join("seg-00000000.log")).unwrap(),
            [frame(1), flipped].concat()
        );
        let mut torn = frame(4);
        torn.truncate(FRAME_HEADER + 50);
        assert_eq!(
            fs::read(sdir.join("active.log")).unwrap(),
            [frame(3), torn].concat()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Frame lengths in the active log of shard 0, and whether each is a
    /// delta.
    fn active_frames(dir: &Path) -> Vec<(usize, bool)> {
        let data = fs::read(shard_dir(dir, 0).join("active.log")).unwrap();
        let mut at = 0;
        let mut out = Vec::new();
        while at < data.len() {
            let f = frame::decode::<LogHeader>(&data[at..]).unwrap();
            out.push((f.payload.len(), f.header.delta));
            at += f.len;
        }
        out
    }

    #[test]
    fn a_changed_line_is_appended_as_a_delta_aligned_at_the_end() {
        let dir = tmpdir("delta");
        let cfg = StoreConfig {
            fsync: false,
            ..StoreConfig::default()
        };
        let store = CheckpointStore::create(&dir, 1, cfg.clone()).unwrap();
        let w = store.writer(0);
        let mut w = Cutting::new(&w);
        let tail = payload(7, 4096);
        let image = |head: &[u8], poke: Option<usize>| {
            let mut p = [head, &tail[..]].concat();
            if let Some(at) = poke {
                let at = p.len() - at;
                p[at] ^= 0xFF;
            }
            p
        };
        let history = [
            image(&[1; 10], None),
            // One counter moves: one line.
            image(&[1; 10], Some(100)),
            // The head grows by 30 bytes: only the head's line changes.
            image(&[2; 40], Some(100)),
            // Everything moves: a delta would outgrow the payload, so a
            // keyframe.
            payload(9, 4136),
        ];
        for (seq, p) in history.iter().enumerate() {
            w.persist(seq as u64 + 1, 0, p).unwrap();
        }
        assert_eq!(
            active_frames(&dir),
            vec![
                (4106, false),
                (8 + 8 + 64, true),
                (8 + 8 + 40, true),
                (4136, false)
            ]
        );
        let read: Vec<_> = store.frames(0).into_iter().map(|f| f.bytes).collect();
        assert_eq!(read, history);
        drop(store);
        let (_, report) = CheckpointStore::recover(&dir, cfg).unwrap();
        assert!(report.is_pristine());
        assert_eq!(report.recovered[0].as_ref().unwrap().bytes, history[3]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_log_of_sparse_deltas_keeps_rotate_after_times_keep_segments_frames() {
        let dir = tmpdir("retention");
        let cfg = StoreConfig {
            rotate_after: 4,
            keep_segments: 3,
            fsync: false,
        };
        let store = CheckpointStore::create(&dir, 1, cfg).unwrap();
        let w = store.writer(0);
        let mut w = Cutting::new(&w);
        let mut p = vec![0u8; 64 * 40];
        let mut history = Vec::new();
        // One line moves per append: every frame after a segment's first
        // is a small delta, and none of them seals a segment early.
        for seq in 1..=30u64 {
            p[(seq as usize % 40) * 64] = seq as u8;
            w.persist(seq, 0, &p).unwrap();
            history.push(p.clone());
        }
        for id in 4..7 {
            let seg = fs::read(shard_dir(&dir, 0).join(format!("seg-{id:08}.log"))).unwrap();
            assert_eq!(
                seg.len(),
                (FRAME_HEADER + frame::TRAILER) * 4 + p.len() + 3 * (8 + 8 + 64)
            );
        }
        assert_eq!(
            active_frames(&dir),
            vec![(p.len(), false), (8 + 8 + 64, true)]
        );
        // 3 sealed segments of 4 frames, then the 2 in the active one.
        let frames = store.frames(0);
        assert_eq!(
            frames.iter().map(|f| f.seq).collect::<Vec<_>>(),
            (17..=30).collect::<Vec<_>>()
        );
        for f in &frames {
            assert_eq!(f.bytes, history[f.seq as usize - 1]);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_delta_replays_only_onto_the_base_it_was_cut_against() {
        let base = payload(1, 1024);
        // 44 bytes the base lacks, then the base with one byte changed.
        let mut image = [&[9; 44][..], &base].concat();
        image[500] ^= 1;
        let mut runs = Vec::new();
        assert!(diff_lines(&base, &image, &mut runs));
        let mut delta = Vec::new();
        encode_delta(&mut delta, base.len(), &image, &runs);
        let mut replayed = Image::new(base.clone());
        replayed.apply(&delta).unwrap();
        assert_eq!(replayed.as_slice(), image);
        // Another base, or no bytes for the head the base lacks, is
        // malformed rather than silently wrong.
        let mut other = Image::new(payload(1, 1000));
        assert!(other.apply(&delta).is_err());
        let mut headless = Vec::new();
        encode_delta(&mut headless, base.len(), &image, &runs[1..]);
        let mut replayed = Image::new(base.clone());
        assert!(replayed.apply(&headless).is_err());
        // A length no run could fill is refused before it is allocated.
        let mut huge = delta.clone();
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut replayed = Image::new(base.clone());
        assert!(replayed.apply(&huge).is_err());
        assert_eq!(replayed.as_slice(), base);
    }

    #[test]
    fn a_head_that_grows_and_shrinks_moves_the_start_not_the_bytes() {
        let tail = payload(3, 4096);
        let mut prev = [&[0; 10][..], &tail].concat();
        let mut image = Image::new(prev.clone());
        let mut runs = Vec::new();
        // Grow past the slack once, then shrink and grow within it.
        for (step, head) in [200, 100, 30, SLACK / 2, 10, 2 * SLACK]
            .into_iter()
            .enumerate()
        {
            let mut next = [&vec![step as u8 + 1; head][..], &tail].concat();
            let last = next.len() - 1;
            next[last] ^= step as u8 + 1;
            assert!(diff_lines(&prev, &next, &mut runs), "step {step}");
            let mut delta = Vec::new();
            encode_delta(&mut delta, prev.len(), &next, &runs);
            let moved = image.buf.as_ptr();
            image.apply(&delta).unwrap();
            assert_eq!(image.as_slice(), next, "step {step}");
            if step > 0 && step != 5 {
                assert_eq!(image.buf.as_ptr(), moved, "step {step} moved the payload");
            }
            prev = next;
        }
    }

    #[test]
    fn a_segment_that_opens_with_a_delta_is_corrupt() {
        let dir = tmpdir("headless");
        let cfg = StoreConfig {
            fsync: false,
            ..StoreConfig::default()
        };
        let store = CheckpointStore::create(&dir, 1, cfg.clone()).unwrap();
        let w = store.writer(0);
        let mut w = Cutting::new(&w);
        let mut p = payload(5, 2048);
        w.persist(1, 0, &p).unwrap();
        p[7] ^= 1;
        w.persist(2, 0, &p).unwrap();
        drop(store);
        let active = shard_dir(&dir, 0).join("active.log");
        let data = fs::read(&active).unwrap();
        let keyframe = FRAME_HEADER + 2048 + frame::TRAILER;
        fs::write(&active, &data[keyframe..]).unwrap();
        let (_, report) = CheckpointStore::recover(&dir, cfg).unwrap();
        assert_eq!(report.corrupt_frames, 1);
        assert!(report.recovered[0].is_none());
        assert_eq!(fs::metadata(&active).unwrap().len(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_bit_flip_is_silent_at_write_and_caught_at_recovery() {
        let dir = tmpdir("fault-flip");
        let plan = DiskFaultPlan::new();
        let store = CheckpointStore::create(&dir, 1, StoreConfig::default())
            .unwrap()
            .with_fault_plan(plan.clone());
        let w = store.writer(0);
        w.persist(1, 10, &payload(1, 64)).unwrap();
        plan.bit_flip_after(0);
        assert!(
            w.persist(2, 20, &payload(2, 64)).is_ok(),
            "silent corruption reports success at write time"
        );
        drop(w);
        drop(store);
        let (_, report) = CheckpointStore::recover(&dir, StoreConfig::default()).unwrap();
        assert_eq!(report.corrupt_frames, 1);
        assert_eq!(report.recovered[0].as_ref().unwrap().seq, 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
