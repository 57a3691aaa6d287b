//! Delta frames in the checkpoint store.
//!
//! A log appends a delta, the lines that differ from the segment's
//! previous frame, whenever that is smaller than the payload, and a
//! keyframe otherwise. Every
//! reader must still get back exactly the payloads that were acknowledged,
//! and a corrupt frame must cut exactly the frames it cuts from a log of
//! keyframes: the rest of its segment. The property below drives random
//! payload histories (sparse changes, dense changes, heads that change
//! length, payloads of unrelated length) through faults, rotations,
//! interleaved writers and reopens against a model of those rules. A
//! golden pins a delta frame's bytes, and that a reader of keyframes only
//! refuses one as a newer version.

use nitrosketch::switch::frame::{self, FrameError};
use nitrosketch::switch::store::{LogHeader, StoreHeader, DELTA_VERSION};
use nitrosketch::switch::{
    CheckpointSink, CheckpointStore, DiskFaultPlan, RecoveredFrame, StoreConfig, STORE_VERSION,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("nitro-store-delta-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// One acknowledged append, as every reader must return it.
#[derive(Clone, Debug, PartialEq)]
struct Acked {
    generation: u64,
    seq: u64,
    processed_at: u64,
    bytes: Vec<u8>,
}

impl From<RecoveredFrame> for Acked {
    fn from(f: RecoveredFrame) -> Self {
        Self {
            generation: f.generation,
            seq: f.seq,
            processed_at: f.processed_at,
            bytes: f.bytes,
        }
    }
}

/// The log as a list of keyframes would hold it: segments of acknowledged
/// frames, each flagged when its bytes were corrupted on the way to disk.
#[derive(Default)]
struct Model {
    sealed: Vec<Vec<(Acked, bool)>>,
    active: Vec<(Acked, bool)>,
    /// Frames appended to the active segment since it opened or the store
    /// was reopened: the store seals at `rotate_after` of them.
    since_open: u64,
    /// A torn frame trails the active segment.
    torn: bool,
}

impl Model {
    /// What a scan reads: each segment up to its first corrupt frame.
    fn frames(&self) -> Vec<Acked> {
        self.sealed
            .iter()
            .chain(std::iter::once(&self.active))
            .flat_map(|seg| {
                seg.iter()
                    .take_while(|(_, bad)| !bad)
                    .map(|(a, _)| a.clone())
            })
            .collect()
    }

    /// Newest by `(generation, seq)`, as recovery picks it.
    fn newest(&self) -> Option<Acked> {
        self.frames()
            .into_iter()
            .max_by_key(|a| (a.generation, a.seq))
    }

    fn seal(&mut self, keep: usize) {
        self.since_open = 0;
        self.sealed.push(std::mem::take(&mut self.active));
        let excess = self.sealed.len().saturating_sub(keep);
        self.sealed.drain(..excess);
    }

    /// Recovery's repair: the active segment loses everything from its
    /// first corrupt frame on, and any torn tail. Returns the
    /// `(corrupt_frames, torn_tails_truncated)` the report must show.
    fn recover(&mut self) -> (u64, u64) {
        let bad = |seg: &[(Acked, bool)]| seg.iter().any(|(_, b)| *b);
        let sealed_bad = self.sealed.iter().filter(|s| bad(s)).count() as u64;
        let active_bad = bad(&self.active);
        let torn = self.torn && !active_bad;
        let keep = self.active.iter().take_while(|(_, b)| !b).count();
        self.active.truncate(keep);
        self.torn = false;
        self.since_open = 0;
        (sealed_bad + active_bad as u64, torn as u64)
    }
}

/// A small deterministic generator for payload edits.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn below(&mut self, n: usize) -> usize {
        self.next() as usize % n.max(1)
    }

    /// Up to `max - 1` random bytes.
    fn bytes(&mut self, max: usize) -> Vec<u8> {
        let n = self.below(max);
        (0..n).map(|_| self.next() as u8).collect()
    }

    /// `n` bytes, one in 256 nonzero: counters of a sparse sketch.
    fn sparse(&mut self, n: usize) -> Vec<u8> {
        (0..n)
            .map(|_| match self.below(256) {
                0 => 1 + self.below(255) as u8,
                _ => 0,
            })
            .collect()
    }
}

/// A checkpoint-shaped payload: a head that may change length, then a
/// tail of counters, mostly zero like a sketch's.
struct Image {
    head: Vec<u8>,
    tail: Vec<u8>,
}

impl Image {
    fn edit(&mut self, kind: u8, rng: &mut Rng) {
        match kind % 6 {
            // Unchanged: an empty delta.
            0 => {}
            // Sparse: a few counters move. Half the moves clear a
            // counter, so a line can come to equal its zero neighbours.
            1 | 2 => {
                for _ in 0..1 + rng.below(4) {
                    let set: Vec<usize> = (0..self.tail.len())
                        .filter(|&i| self.tail[i] != 0)
                        .collect();
                    if rng.next() & 1 == 1 && !set.is_empty() {
                        self.tail[set[rng.below(set.len())]] = 0;
                    } else if !self.tail.is_empty() {
                        let at = rng.below(self.tail.len());
                        self.tail[at] = 1 + rng.below(255) as u8;
                    }
                }
            }
            // Dense: every counter is redrawn.
            3 => self.tail = rng.sparse(self.tail.len()),
            // The head changes length and content; the tail only shifts.
            4 => self.head = rng.bytes(160),
            // A payload of unrelated length.
            _ => {
                let n = rng.below(3_000);
                self.tail = rng.sparse(n);
            }
        }
    }

    fn bytes(&self) -> Vec<u8> {
        [&self.head[..], &self.tail[..]].concat()
    }
}

const SECOND_BAND: u64 = 1 << 32;

/// One history: `ops` are `(op, fault, entropy)`. Op 0 reopens the store;
/// any other op edits the payload and appends it through one of two
/// writers in different sequence bands (like a promoted writer next to
/// the one it replaced). Faults: 4 I/O error, 5 torn write, 6 bit flip,
/// 7 blocked disk, anything else none.
fn run_history(tag: &str, rotate_after: u64, keep: usize, ops: &[(u8, u8, u64)]) {
    let dir = tmp_dir(tag);
    let cfg = StoreConfig {
        rotate_after,
        keep_segments: keep,
        fsync: false,
    };
    let mut plan = DiskFaultPlan::new();
    let mut store = CheckpointStore::create(&dir, 1, cfg.clone())
        .unwrap()
        .with_fault_plan(plan.clone());
    let active = dir.join("shard-0000").join("active.log");
    let mut model = Model::default();
    let mut generation = 1;
    let mut frozen = false;
    let mut counters = [0u64; 2];
    let mut rng = Rng(ops.len() as u64 ^ rotate_after << 8);
    let mut image = Image {
        head: rng.bytes(24),
        tail: rng.sparse(2_048),
    };
    for (step, &(op, fault, entropy)) in ops.iter().enumerate() {
        if op == 0 {
            drop(store);
            let (expect_corrupt, expect_torn) = model.recover();
            let (reopened, report) = CheckpointStore::recover(&dir, cfg.clone()).unwrap();
            generation += 1;
            frozen = false;
            prop_assert_eq!(
                (report.corrupt_frames, report.torn_tails_truncated),
                (expect_corrupt, expect_torn),
                "step {}: {:?}",
                step,
                report
            );
            prop_assert_eq!(report.version_rejected, 0);
            prop_assert_eq!(
                report.recovered[0].clone().map(Acked::from),
                model.newest(),
                "step {}: recovery",
                step
            );
            plan = DiskFaultPlan::new();
            store = reopened.with_fault_plan(plan.clone());
        } else {
            rng.0 ^= entropy;
            image.edit(op, &mut rng);
            let payload = image.bytes();
            let w = (entropy >> 40) as usize & 1;
            counters[w] += 1;
            let writer = if w == 0 {
                store.writer(0)
            } else {
                store.writer_from(0, SECOND_BAND)
            };
            let seq = writer.seq_base() + counters[w];
            let persist = || writer.persist(counters[w], seq * 3, &payload);
            if frozen {
                prop_assert!(persist().is_err(), "a frozen store appends nothing");
                continue;
            }
            let result = match fault {
                4 => {
                    plan.io_error_after(0);
                    persist()
                }
                5 => {
                    plan.torn_write_after(0);
                    persist()
                }
                6 => {
                    plan.bit_flip_after(0);
                    persist()
                }
                7 => {
                    plan.block_appends();
                    let fired = plan.fired();
                    std::thread::scope(|s| {
                        // Released once the append has drawn its block.
                        s.spawn(|| {
                            while plan.fired() == fired {
                                std::thread::yield_now();
                            }
                            plan.release();
                        });
                        persist()
                    })
                }
                _ => persist(),
            };
            match fault {
                4 => prop_assert!(result.is_err()),
                5 => {
                    prop_assert!(result.is_err());
                    frozen = true;
                    model.torn = true;
                }
                _ => {
                    prop_assert!(result.is_ok(), "step {}: {:?}", step, result);
                    let acked = Acked {
                        generation,
                        seq,
                        processed_at: seq * 3,
                        bytes: payload,
                    };
                    model.active.push((acked, fault == 6));
                    model.since_open += 1;
                    // Deltas never seal a segment early: retention is
                    // `rotate_after × keep` frames, as for keyframes.
                    // Right after a seal there is no active segment.
                    let seal = model.since_open == rotate_after;
                    prop_assert_eq!(active.exists(), !seal, "step {}: rotation", step);
                    if seal {
                        model.seal(keep);
                    }
                }
            }
        }
        let frames: Vec<Acked> = store.frames(0).into_iter().map(Acked::from).collect();
        prop_assert_eq!(frames, model.frames(), "step {}: frames()", step);
        prop_assert_eq!(
            store.newest_frame(0).map(Acked::from),
            model.newest(),
            "step {}: newest_frame()",
            step
        );
    }
    drop(store);
    let (expect_corrupt, _) = model.recover();
    let (_, report) = CheckpointStore::recover(&dir, cfg).unwrap();
    prop_assert_eq!(report.corrupt_frames, expect_corrupt);
    prop_assert_eq!(report.recovered[0].clone().map(Acked::from), model.newest());
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every reader returns exactly the acknowledged payloads, whatever
    /// mix of deltas and keyframes the store chose to write them as.
    #[test]
    fn every_reader_returns_the_acknowledged_payloads(
        case in 0u64..u64::MAX,
        rotate_after in 1u64..7,
        keep in 1usize..4,
        ops in prop::collection::vec((0u8..14, 0u8..16, prop::num::u64::ANY), 1..48),
    ) {
        run_history(&format!("prop-{case}"), rotate_after, keep, &ops);
    }
}

#[test]
fn sparse_histories_write_deltas_and_still_read_back() {
    // 40 small edits, no faults: most frames are deltas, and the chain is
    // bounded by rotation.
    let ops: Vec<(u8, u8, u64)> = (0..40u64).map(|i| (1, 0, i * 7919)).collect();
    run_history("sparse", 16, 2, &ops);
}

/// A head that grows and shrinks between frames, as an epoch payload's
/// report and tracked keys do, is appended as a delta of the lines that
/// changed, and every reader rebuilds each frame byte for byte: heads that
/// shrink, grow within the slack a replay keeps in front of its payload,
/// and grow past it.
#[test]
fn heads_that_grow_and_shrink_are_deltas_that_read_back() {
    let dir = tmp_dir("heads");
    let cfg = StoreConfig {
        rotate_after: 64,
        keep_segments: 2,
        fsync: false,
    };
    let store = CheckpointStore::create(&dir, 1, cfg.clone()).unwrap();
    let w = store.writer(0);
    let mut tail = vec![0u8; 256 * 1024];
    let mut history = Vec::new();
    let heads = [
        10, 300, 20, 5_000, 70_000, 100, 150_000, 64, 0, 90_000, 90_001,
    ];
    for (seq, head) in heads.into_iter().enumerate() {
        tail[(seq * 4099) % (256 * 1024)] = seq as u8 + 1;
        let payload = [&vec![seq as u8 + 1; head][..], &tail].concat();
        w.persist(seq as u64 + 1, 0, &payload).unwrap();
        history.push(payload);
    }
    let data = std::fs::read(dir.join("shard-0000/active.log")).unwrap();
    let mut kinds = Vec::new();
    let mut at = 0;
    while at < data.len() {
        let f = frame::decode::<LogHeader>(&data[at..]).unwrap();
        kinds.push(f.header.delta);
        at += f.len;
    }
    assert_eq!(kinds.len(), heads.len());
    assert!(!kinds[0] && kinds[1..].iter().all(|&d| d), "{kinds:?}");
    let read: Vec<Vec<u8>> = store.frames(0).into_iter().map(|f| f.bytes).collect();
    for (seq, (got, want)) in read.iter().zip(&history).enumerate() {
        assert!(got == want, "frame {} differs", seq + 1);
    }
    assert_eq!(read.len(), history.len());
    assert!(store.newest_frame(0).unwrap().bytes == history[heads.len() - 1]);
    drop((w, store));
    let (_, report) = CheckpointStore::recover(&dir, cfg).unwrap();
    assert!(report.is_pristine());
    assert!(report.recovered[0].as_ref().unwrap().bytes == history[heads.len() - 1]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pins a delta frame's bytes: a 1 024-byte checkpoint, then the same
/// checkpoint with one byte changed. The first frame is a keyframe,
/// byte-identical to a frame written before deltas existed.
#[test]
fn a_delta_frame_has_pinned_bytes_and_keyframe_readers_refuse_it() {
    const DELTA: &str = "4d52464e0201000001000000000000000200000000000000140000000000000050000000000400000004000000010000400000000001020304050607c8090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f8cbe188a2f56df0c";
    let dir = tmp_dir("golden");
    let cfg = StoreConfig {
        fsync: false,
        ..StoreConfig::default()
    };
    let store = CheckpointStore::create(&dir, 1, cfg.clone()).unwrap();
    let base: Vec<u8> = (0..1024).map(|i| i as u8).collect();
    let mut changed = base.clone();
    changed[0x108] = 0xC8;
    store.writer(0).persist(1, 10, &base).unwrap();
    store.writer(0).persist(2, 20, &changed).unwrap();
    let log = std::fs::read(dir.join("shard-0000").join("active.log")).unwrap();
    drop(store);

    let keyframe = frame::encode(
        &StoreHeader {
            shard: 0,
            generation: 1,
            seq: 1,
            processed_at: 10,
        },
        &base,
    );
    assert_eq!(&log[..keyframe.len()], &keyframe[..], "keyframe bytes");
    let delta = &log[keyframe.len()..];
    let hex: String = delta.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, DELTA, "delta frame bytes");

    // A build that reads only keyframes refuses the delta from its header
    // as a newer version: recovery counts that, and never truncates on it.
    let newer = FrameError::Version {
        found: DELTA_VERSION,
        supported: STORE_VERSION,
    };
    assert_eq!(frame::peek::<StoreHeader>(delta).unwrap_err(), newer);
    assert_eq!(frame::decode::<StoreHeader>(delta).unwrap_err(), newer);
    let f = frame::decode_exact::<LogHeader>(delta).unwrap();
    assert!(f.header.delta);
    assert_eq!((f.header.frame.seq, f.header.frame.processed_at), (2, 20));

    let (_, report) = CheckpointStore::recover(&dir, cfg).unwrap();
    assert!(report.is_pristine(), "{report:?}");
    assert_eq!(report.recovered[0].as_ref().unwrap().bytes, changed);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The bytes appended per checkpoint follow what changed, not what exists.
#[test]
fn persisted_bytes_count_the_delta_not_the_image() {
    use nitrosketch::metrics::telemetry::ShardTelemetry;
    let dir = tmp_dir("bytes");
    let cfg = StoreConfig {
        fsync: false,
        ..StoreConfig::default()
    };
    let store = CheckpointStore::create(&dir, 1, cfg).unwrap();
    let tel = Arc::new(ShardTelemetry::detached(0));
    let writer = store.writer(0).with_telemetry(Arc::clone(&tel));
    let mut image = vec![0u8; 64 * 1024];
    writer.persist(1, 1, &image).unwrap();
    assert_eq!(tel.bytes_persisted.get(), image.len() as u64);
    image[1000] = 1;
    writer.persist(2, 2, &image).unwrap();
    // Image length, base length, one run header, one 64-byte line.
    assert_eq!(tel.bytes_persisted.get(), image.len() as u64 + 8 + 8 + 64);
    assert_eq!(tel.frames_persisted.get(), 2);
    let log = std::fs::metadata(dir.join("shard-0000").join("active.log")).unwrap();
    let framing = frame::head_len::<StoreHeader>() + frame::TRAILER;
    assert_eq!(log.len() as usize, 2 * framing + image.len() + 80);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every file of a store's directory, by path relative to it.
fn files(dir: &std::path::Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut out = Vec::new();
    for shard in std::fs::read_dir(dir).unwrap() {
        let shard = shard.unwrap().path();
        if !shard.is_dir() {
            continue;
        }
        for f in std::fs::read_dir(&shard).unwrap() {
            let f = f.unwrap().path();
            let name = f.strip_prefix(dir).unwrap().to_path_buf();
            out.push((name, std::fs::read(&f).unwrap()));
        }
    }
    out.sort();
    out
}

/// One history appended twice: through `persist`, which diffs whole
/// payloads, and through `persist_written`, which names the image each
/// payload follows and the counter lines written since (a superset of
/// those that changed, as a worker's write history is). `counters` need
/// not be a multiple of 8: then the first counter line is short and
/// shares a line of the store's grid with the head. Some steps name an
/// image the store does not hold, or mark most lines, and must fall back
/// to the whole diff.
fn guided_history(tag: &str, counters: usize, seed: u64, steps: usize) {
    use nitrosketch::sketches::checkpoint::{DirtyLines, LINE_COUNTERS};
    use nitrosketch::switch::store::Written;
    let cfg = StoreConfig {
        fsync: false,
        rotate_after: 5,
        ..StoreConfig::default()
    };
    let (whole_dir, guided_dir) = (
        tmp_dir(&format!("{tag}-whole")),
        tmp_dir(&format!("{tag}-guided")),
    );
    let whole = CheckpointStore::create(&whole_dir, 1, cfg.clone()).unwrap();
    let guided = CheckpointStore::create(&guided_dir, 1, cfg).unwrap();
    let (whole_writer, guided_writer) = (whole.writer(0), guided.writer(0));
    let mut rng = Rng(seed);
    let mut head = rng.bytes(200);
    let mut tail = vec![0u64; counters];
    for seq in 1..=steps as u64 {
        let mut lines = DirtyLines::new(counters);
        match rng.below(8) {
            // The head alone changes, in length and content.
            0 => head = rng.bytes(200),
            // Every line is rewritten.
            1 => {
                for c in tail.iter_mut() {
                    *c = rng.next() & 0xff;
                }
                lines.mark_all();
            }
            // A few counters move, marked with lines that did not change.
            _ => {
                for _ in 0..1 + rng.below(6) {
                    let i = rng.below(counters);
                    tail[i] = rng.next() & 0xff;
                    lines.mark(i);
                }
                for _ in 0..rng.below(4) {
                    lines.mark(rng.below(counters));
                }
                // A counter written back to its value: marked, unchanged.
                lines.mark(LINE_COUNTERS * rng.below(counters / LINE_COUNTERS));
            }
        }
        let payload: Vec<u8> = head
            .iter()
            .copied()
            .chain(tail.iter().flat_map(|c| c.to_le_bytes()))
            .collect();
        let since = match rng.below(10) {
            0 => None,
            1 => Some((seq + 1000, &lines)),
            _ => Some((seq - 1, &lines)),
        };
        whole_writer.persist(seq, seq * 10, &payload).unwrap();
        let written = Written { image: seq, since };
        guided_writer
            .persist_written(seq, seq * 10, &payload, written)
            .unwrap();
    }
    assert_eq!(
        files(&whole_dir),
        files(&guided_dir),
        "{tag}: segment files differ"
    );
    std::fs::remove_dir_all(&whole_dir).unwrap();
    std::fs::remove_dir_all(&guided_dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A lines-guided append writes the bytes the whole diff writes,
    /// whatever the array's length modulo a line.
    #[test]
    fn a_lines_guided_append_writes_the_files_a_whole_diff_writes(
        counters in 1usize..8 * 48,
        seed in 0u64..u64::MAX,
        steps in 2usize..16,
    ) {
        guided_history(&format!("guided-{seed}"), counters, seed, steps);
    }
}

/// The short first line pinned: 8·k + 3 counters, so the first counter
/// line holds three counters and the rest of its grid line is head.
#[test]
fn a_short_first_counter_line_is_compared_with_the_head() {
    for seed in 0..8 {
        guided_history(&format!("short-{seed}"), 8 * 200 + 3, seed, 12);
    }
}
