//! The checkpoint contract after the move to recycled buffers and in-place
//! restore: the bytes are the ones the previous format wrote, encoding into
//! a dirty buffer changes nothing, and a restore either takes the whole
//! snapshot or leaves the receiver exactly as it was.

use nitrosketch::core::{Mode, NitroSketch};
use nitrosketch::sketches::checkpoint::{CheckpointError, CHECKPOINT_VERSION};
use nitrosketch::sketches::{Checkpoint, CountMin, CountSketch, KarySketch, RowSketch, Sketch};
use nitrosketch::switch::{CheckpointStore, StoreConfig, STORE_VERSION};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// What the tests need of a checkpointable thing, so one body covers the
/// three counter-array sketches and the `NitroSketch` wrapper.
trait Codec: Clone {
    fn feed(&mut self, key: u64, weight: f64);
    fn snap(&self) -> Vec<u8>;
    fn snap_into(&self, out: &mut Vec<u8>);
    fn load(&mut self, bytes: &[u8]) -> Result<(), CheckpointError>;
    /// Everything a restore determines: the snapshot bytes plus the derived
    /// per-row Σ C² (bit patterns, so NaN and −0.0 compare too).
    fn state(&self) -> (Vec<u8>, Vec<u64>);
}

macro_rules! codec_for_sketch {
    ($($sketch:ty),*) => {$(
        impl Codec for $sketch {
            fn feed(&mut self, key: u64, weight: f64) {
                self.update(key, weight);
            }
            fn snap(&self) -> Vec<u8> {
                self.snapshot()
            }
            fn snap_into(&self, out: &mut Vec<u8>) {
                self.snapshot_into(out);
            }
            fn load(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
                self.restore(bytes)
            }
            fn state(&self) -> (Vec<u8>, Vec<u64>) {
                let ss = (0..self.depth()).map(|r| self.row_sum_squares(r).to_bits());
                (self.snapshot(), ss.collect())
            }
        }
    )*};
}
codec_for_sketch!(CountMin, CountSketch, KarySketch);

impl Codec for NitroSketch<CountSketch> {
    fn feed(&mut self, key: u64, weight: f64) {
        self.process(key, weight);
    }
    fn snap(&self) -> Vec<u8> {
        self.snapshot()
    }
    fn snap_into(&self, out: &mut Vec<u8>) {
        self.snapshot_into(out);
    }
    fn load(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        self.restore(bytes)
    }
    fn state(&self) -> (Vec<u8>, Vec<u64>) {
        (self.snapshot(), self.inner().state().1)
    }
}

fn fed<C: Codec>(mut c: C, stream: &[(u64, u32)]) -> C {
    for &(k, w) in stream {
        c.feed(k, w as f64);
    }
    c
}

/// `snapshot_into` appends exactly `snapshot()`, whatever the buffer held
/// and however much capacity it brought.
fn check_snapshot_into<C: Codec>(blank: C, stream: &[(u64, u32)], dirt: &[u8]) {
    let c = fed(blank, stream);
    let expected = c.snap();
    let mut recycled = dirt.repeat(expected.len() / dirt.len().max(1) + 2);
    recycled.clear();
    c.snap_into(&mut recycled);
    assert_eq!(recycled, expected, "into a cleared, over-long buffer");
    let mut prefixed = dirt.to_vec();
    c.snap_into(&mut prefixed);
    assert_eq!(prefixed, [dirt, &expected].concat(), "appended");
}

/// In-place restore: into a dirty receiver it gives what a blank one gets;
/// every truncation fails; a flipped header bit either fails or is taken
/// exactly as a blank receiver takes it; and a failure changes nothing.
fn check_restore_in_place<C: Codec>(blank: C, stream: &[(u64, u32)], dirt: &[(u64, u32)]) {
    let snapshot = fed(blank.clone(), stream).snap();
    let dirty = fed(blank.clone(), dirt);
    let before = dirty.state();

    let mut onto_blank = blank.clone();
    onto_blank.load(&snapshot).expect("own snapshot restores");
    let mut onto_dirty = dirty.clone();
    onto_dirty.load(&snapshot).expect("own snapshot restores");
    assert_eq!(onto_dirty.state(), onto_blank.state());

    for cut in 0..snapshot.len() {
        let mut receiver = dirty.clone();
        assert!(receiver.load(&snapshot[..cut]).is_err(), "cut at {cut}");
        assert_eq!(
            receiver.state(),
            before,
            "cut at {cut} changed the receiver"
        );
    }
    // Everything ahead of the last counter row is header of some kind
    // (magic, version, mode, stats, top-k table, geometry, seeds).
    let header = snapshot.len().min(160);
    for bit in 0..header * 8 {
        let mut flipped = snapshot.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        let mut receiver = dirty.clone();
        match receiver.load(&flipped) {
            Err(_) => assert_eq!(receiver.state(), before, "bit {bit} changed the receiver"),
            Ok(()) => {
                let mut reference = blank.clone();
                reference
                    .load(&flipped)
                    .expect("accepted by the dirty receiver");
                assert_eq!(receiver.state(), reference.state(), "bit {bit}");
            }
        }
    }
}

fn wrapper() -> NitroSketch<CountSketch> {
    NitroSketch::new(CountSketch::new(3, 16, 24), Mode::Fixed { p: 0.5 }, 25).with_topk(4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn snapshot_into_a_dirty_recycled_buffer_equals_snapshot(
        stream in prop::collection::vec((0u64..200, 1u32..8), 0..200),
        dirt in prop::collection::vec(prop::num::u8::ANY, 1..40),
    ) {
        check_snapshot_into(CountMin::new(4, 160, 21), &stream, &dirt);
        check_snapshot_into(CountSketch::new(5, 96, 22), &stream, &dirt);
        check_snapshot_into(KarySketch::new(3, 200, 23), &stream, &dirt);
        check_snapshot_into(wrapper(), &stream, &dirt);
    }

    #[test]
    fn restore_in_place_is_all_or_nothing(
        stream in prop::collection::vec((0u64..200, 1u32..8), 1..120),
        dirt in prop::collection::vec((0u64..200, 1u32..8), 1..120),
    ) {
        check_restore_in_place(CountMin::new(2, 16, 21), &stream, &dirt);
        check_restore_in_place(CountSketch::new(3, 8, 22), &stream, &dirt);
        check_restore_in_place(KarySketch::new(2, 16, 23), &stream, &dirt);
        check_restore_in_place(wrapper(), &stream, &dirt);
    }
}

/// A snapshot taken with a top-k tracker, restored into a receiver built
/// without one, is rejected before anything is written.
#[test]
fn topk_mismatch_is_rejected_before_the_first_write() {
    let stream: Vec<u64> = (0..3_000u64).map(|i| i % 37).collect();
    let mut with_topk =
        NitroSketch::new(CountSketch::new(3, 64, 9), Mode::Fixed { p: 0.5 }, 1).with_topk(8);
    let mut receiver = NitroSketch::new(CountSketch::new(3, 64, 9), Mode::Fixed { p: 1.0 }, 2);
    for &k in &stream {
        with_topk.process(k, 1.0);
        receiver.process(k ^ 1, 2.0);
    }
    let mut untouched = receiver.clone();

    assert_eq!(
        receiver.restore(&with_topk.snapshot()).unwrap_err(),
        CheckpointError::Mismatch("top-k tracker")
    );
    assert_eq!(receiver.snapshot(), untouched.snapshot());
    assert_eq!(receiver.stats(), untouched.stats());
    assert_eq!(receiver.p(), untouched.p());
    for k in 0..40u64 {
        assert_eq!(
            receiver.estimate(k).to_bits(),
            untouched.estimate(k).to_bits()
        );
    }
    // Not even the skip schedule moved: both keep sampling identically.
    for &k in &stream {
        receiver.process(k, 1.0);
        untouched.process(k, 1.0);
    }
    assert_eq!(receiver.snapshot(), untouched.snapshot());
}

// ---- Format pins: bytes written by the commit before this contract ----

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn golden(name: &str) -> Vec<u8> {
    let text = std::fs::read_to_string(fixture(name)).unwrap();
    let digits: Vec<u8> = text.bytes().filter(u8::is_ascii_hexdigit).collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

/// The stream the golden snapshots were taken over.
fn golden_feed<S: RowSketch>(mut n: NitroSketch<S>) -> NitroSketch<S> {
    for i in 0..400u64 {
        n.process(i % 13, 1.0 + (i % 3) as f64);
    }
    n
}

fn golden_cs() -> NitroSketch<CountSketch> {
    golden_feed(
        NitroSketch::new(CountSketch::new(3, 8, 11), Mode::Fixed { p: 0.5 }, 5).with_topk(4),
    )
}

fn golden_cm() -> NitroSketch<CountMin> {
    let mut cm = NitroSketch::new(CountMin::new(2, 8, 12), Mode::Fixed { p: 1.0 }, 6).with_topk(4);
    cm.inner_mut().set_conservative(true);
    golden_feed(cm)
}

fn golden_kary() -> NitroSketch<KarySketch> {
    golden_feed(NitroSketch::new(
        KarySketch::new(2, 8, 13),
        Mode::Fixed { p: 0.25 },
        7,
    ))
}

#[test]
fn snapshot_bytes_are_the_previous_formats() {
    assert_eq!(CHECKPOINT_VERSION, 1);
    assert_eq!(STORE_VERSION, 1);
    assert_eq!(golden_cs().snapshot(), golden("checkpoint_v1_cs.hex"));
    assert_eq!(golden_cm().snapshot(), golden("checkpoint_v1_cm.hex"));
    assert_eq!(golden_kary().snapshot(), golden("checkpoint_v1_kary.hex"));
    // Blank-template fingerprints gate the cluster handshake: a node built
    // from this commit must still be admitted by one built from the last.
    assert_eq!(
        CountSketch::new(5, 1024, 1).fingerprint(),
        0x7045_5726_7064_1c2b
    );
    assert_eq!(
        CountMin::new(4, 512, 2).fingerprint(),
        0xaa3a_07b0_bea2_0f6e
    );
    assert_eq!(
        KarySketch::new(3, 256, 3).fingerprint(),
        0x6a7c_d354_9471_2de4
    );
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}

/// `tests/fixtures/store_v1` was written by the previous commit's
/// `ShardWriter` (2 shards, `rotate_after` 2: one sealed segment, two
/// active logs). It must recover without a repair.
#[test]
fn a_store_written_by_the_previous_format_recovers_pristine() {
    use nitrosketch::switch::CheckpointSink;
    let dir = std::env::temp_dir().join(format!("nitro-store-v1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    copy_dir(&fixture("store_v1"), &dir);
    let cfg = StoreConfig {
        rotate_after: 2,
        keep_segments: 2,
        fsync: false,
    };
    let (store, report) = CheckpointStore::recover(&dir, cfg.clone()).unwrap();
    assert!(report.is_pristine(), "{report:?}");
    assert_eq!(
        (report.generation, report.shards, report.frames_valid),
        (2, 2, 4)
    );
    let newest = report.recovered[0].as_ref().unwrap();
    assert_eq!((newest.seq, newest.processed_at), (3, 300));
    assert_eq!(newest.bytes, golden("checkpoint_v1_kary.hex"));
    assert_eq!(
        report.recovered[1].as_ref().unwrap().bytes,
        golden("checkpoint_v1_cm.hex")
    );
    // And it keeps appending: old and new frames scan as one log.
    store
        .writer(1)
        .persist(2, 100, &golden_cs().snapshot())
        .unwrap();
    drop(store);
    let (_, report) = CheckpointStore::recover(&dir, cfg).unwrap();
    assert!(report.is_pristine(), "{report:?}");
    assert_eq!(report.frames_valid, 5);
    assert_eq!(
        report.recovered[1].as_ref().unwrap().bytes,
        golden("checkpoint_v1_cs.hex")
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
