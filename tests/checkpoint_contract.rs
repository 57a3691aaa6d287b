//! The checkpoint contract after the move to recycled buffers and in-place
//! restore: the bytes are the ones the previous format wrote, encoding into
//! a dirty buffer changes nothing, patching an older image with the lines
//! written since gives the full encode, a restore either takes the
//! whole snapshot or leaves the receiver exactly as it was, and folding an
//! image in place is restoring it into a blank copy and merging that.

use nitrosketch::core::{Mode, NitroSketch, SkewEstimate};
use nitrosketch::sketches::checkpoint::{CheckpointError, DirtyLines, CHECKPOINT_VERSION};
use nitrosketch::sketches::{
    Checkpoint, CountMin, CountSketch, KarySketch, RowSketch, RowTotals, Sketch,
};
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
    /// `merge_image`.
    fn fold_image(&mut self, bytes: &[u8]) -> Result<(), CheckpointError>;
    /// `check_image`.
    fn check(&self, bytes: &[u8]) -> Result<(), CheckpointError>;
    /// `try_merge_from`.
    fn merge(&mut self, other: &Self) -> Result<(), CheckpointError>;
    /// What the skew detector reads (bit patterns), measured on `self`.
    fn skew(&self) -> Vec<u64>;
    /// The same, read off an image of a compatible instance.
    fn image_skew(&self, bytes: &[u8]) -> Result<Vec<u64>, CheckpointError>;
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
            fn fold_image(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
                self.merge_image(bytes)
            }
            fn check(&self, bytes: &[u8]) -> Result<(), CheckpointError> {
                self.check_image(bytes)
            }
            fn merge(&mut self, other: &Self) -> Result<(), CheckpointError> {
                self.try_merge_from(other)
            }
            fn skew(&self) -> Vec<u64> {
                totals_bits((0..self.depth()).map(|r| RowTotals::of(self, r)))
            }
            fn image_skew(&self, bytes: &[u8]) -> Result<Vec<u64>, CheckpointError> {
                Ok(totals_bits(self.image_totals(bytes)?))
            }
            fn state(&self) -> (Vec<u8>, Vec<u64>) {
                let ss = (0..self.depth()).map(|r| self.row_sum_squares(r).to_bits());
                (self.snapshot(), ss.collect())
            }
        }
    )*};
}
codec_for_sketch!(CountMin, CountSketch, KarySketch);

impl<S: RowSketch + Checkpoint + Codec> Codec for NitroSketch<S> {
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
    fn fold_image(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        self.merge_image(bytes)
    }
    fn check(&self, bytes: &[u8]) -> Result<(), CheckpointError> {
        self.check_image(bytes)
    }
    fn merge(&mut self, other: &Self) -> Result<(), CheckpointError> {
        self.try_merge_from(other)
    }
    fn skew(&self) -> Vec<u64> {
        skew_bits(&NitroSketch::skew(self))
    }
    fn image_skew(&self, bytes: &[u8]) -> Result<Vec<u64>, CheckpointError> {
        Ok(skew_bits(&NitroSketch::image_skew(self, bytes)?))
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

/// Row totals as bit patterns, so NaN and −0.0 compare too.
fn totals_bits(totals: impl IntoIterator<Item = RowTotals>) -> Vec<u64> {
    let bits = totals
        .into_iter()
        .map(|t| [t.max_abs, t.abs_total, t.signed_total]);
    bits.flatten().map(f64::to_bits).collect()
}

fn skew_bits(skew: &SkewEstimate) -> Vec<u64> {
    let bits = skew.rows().iter().map(|r| [r.load_factor, r.sign_bias]);
    bits.flatten().map(f64::to_bits).collect()
}

/// What folding an image in place must equal: the image restored into a
/// blank copy, then merged. Also returns the copy's skew.
fn restore_then_merge<C: Codec>(
    blank: &C,
    target: &C,
    bytes: &[u8],
) -> Result<(C, Vec<u64>), CheckpointError> {
    let mut copy = blank.clone();
    copy.load(bytes)?;
    let mut merged = target.clone();
    merged.merge(&copy)?;
    Ok((merged, copy.skew()))
}

/// `merge_image` of a snapshot into a blank and into a fed target is
/// restore-then-`try_merge_from` to the bit (snapshot and Σ C²), the skew
/// read off the image is the restored copy's, `check_image` agrees, and
/// every truncation or rejected header bit leaves the target as it was.
fn check_merge_image<C: Codec>(blank: C, stream: &[(u64, u32)], onto: &[(u64, u32)]) {
    let image = fed(blank.clone(), stream).snap();
    for target in [blank.clone(), fed(blank.clone(), onto)] {
        let before = target.state();
        let (reference, skew) = restore_then_merge(&blank, &target, &image).unwrap();
        let mut merged = target.clone();
        merged.fold_image(&image).unwrap();
        assert_eq!(merged.state(), reference.state());
        assert!(target.check(&image).is_ok());
        assert_eq!(target.image_skew(&image).unwrap(), skew);

        for cut in 0..image.len() {
            let mut receiver = target.clone();
            assert!(receiver.fold_image(&image[..cut]).is_err(), "cut at {cut}");
            assert!(target.check(&image[..cut]).is_err(), "cut at {cut}");
            assert!(target.image_skew(&image[..cut]).is_err(), "cut at {cut}");
            assert_eq!(receiver.state(), before, "cut at {cut} changed the target");
        }
        let header = image.len().min(160);
        for bit in 0..header * 8 {
            let mut flipped = image.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let mut receiver = target.clone();
            let checked = target.check(&flipped);
            let image_skew = target.image_skew(&flipped);
            match (
                receiver.fold_image(&flipped),
                restore_then_merge(&blank, &target, &flipped),
            ) {
                (Err(e), Err(reference)) => {
                    assert_eq!(e, reference, "bit {bit}");
                    assert_eq!(checked, Err(e.clone()), "bit {bit}");
                    assert_eq!(image_skew, Err(e), "bit {bit}");
                    assert_eq!(receiver.state(), before, "bit {bit} changed the target");
                }
                (Ok(()), Ok((reference, skew))) => {
                    assert!(checked.is_ok(), "bit {bit}");
                    assert_eq!(image_skew, Ok(skew), "bit {bit}");
                    assert_eq!(receiver.state(), reference.state(), "bit {bit}");
                }
                (got, reference) => panic!("bit {bit}: {:?} vs {:?}", got.err(), reference.err()),
            }
        }
    }
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

    #[test]
    fn merge_image_is_restore_then_merge(
        stream in prop::collection::vec((0u64..200, 1u32..8), 0..120),
        onto in prop::collection::vec((0u64..200, 1u32..8), 1..120),
    ) {
        check_merge_image(CountMin::new(2, 16, 21), &stream, &onto);
        check_merge_image(CountSketch::new(3, 8, 22), &stream, &onto);
        check_merge_image(KarySketch::new(2, 16, 23), &stream, &onto);
        check_merge_image(wrapper(), &stream, &onto);
        check_merge_image(
            NitroSketch::new(CountSketch::new(3, 16, 24), Mode::Fixed { p: 0.5 }, 26),
            &stream,
            &onto,
        );
        check_merge_image(
            NitroSketch::new(CountMin::new(2, 16, 21), Mode::Fixed { p: 1.0 }, 27).with_topk(3),
            &stream,
            &onto,
        );
        check_merge_image(
            NitroSketch::new(KarySketch::new(2, 16, 23), Mode::Fixed { p: 0.5 }, 28).with_topk(5),
            &stream,
            &onto,
        );
    }
}

/// Every named rejection of `merge_image` — seeds, geometry, a sampling
/// probability out of range, a top-k table the target cannot hold —
/// leaves the target's bytes as they were, and `check_image` reports the
/// same error.
#[test]
fn merge_image_rejections_change_nothing() {
    fn rejected<C: Codec>(target: &C, bytes: &[u8], expected: CheckpointError) {
        let mut receiver = target.clone();
        assert_eq!(receiver.fold_image(bytes).unwrap_err(), expected);
        assert_eq!(target.check(bytes).unwrap_err(), expected);
        assert_eq!(target.image_skew(bytes).unwrap_err(), expected);
        assert_eq!(receiver.state(), target.state());
    }
    let stream: Vec<(u64, u32)> = (0..2_000u64)
        .map(|i| (i % 53, 1 + (i % 3) as u32))
        .collect();
    let onto: Vec<(u64, u32)> = stream.iter().map(|&(k, w)| (k ^ 7, w)).collect();
    let target = fed(wrapper(), &onto);
    let plain = |sketch: CountSketch| NitroSketch::new(sketch, Mode::Fixed { p: 0.5 }, 25);

    let seeds = fed(plain(CountSketch::new(3, 16, 99)).with_topk(4), &stream).snap();
    rejected(&target, &seeds, CheckpointError::Mismatch("hash seeds"));
    let width = fed(plain(CountSketch::new(3, 32, 24)).with_topk(4), &stream).snap();
    rejected(&target, &width, CheckpointError::Mismatch("width"));
    let depth = fed(plain(CountSketch::new(5, 16, 24)).with_topk(4), &stream).snap();
    rejected(&target, &depth, CheckpointError::Mismatch("depth"));

    // The sampling probability is the first field after magic and version.
    let good = fed(wrapper(), &stream).snap();
    for p in [0.0, -0.5, 1.5, f64::NAN] {
        let mut bad = good.clone();
        bad[5..13].copy_from_slice(&p.to_le_bytes());
        rejected(
            &target,
            &bad,
            CheckpointError::Malformed("sampling probability"),
        );
    }

    let untracked = fed(plain(CountSketch::new(3, 16, 24)), &onto);
    rejected(
        &untracked,
        &good,
        CheckpointError::Mismatch("top-k tracker"),
    );
    // The other way round is accepted: a tracker-less image offers no keys.
    let mut tracking = target.clone();
    let bare = fed(plain(CountSketch::new(3, 16, 24)), &stream).snap();
    let (reference, _) = restore_then_merge(&wrapper(), &target, &bare).unwrap();
    tracking.merge_image(&bare).unwrap();
    assert_eq!(tracking.state(), reference.state());

    let raw = fed(CountMin::new(2, 16, 21), &onto);
    rejected(&raw, &good, CheckpointError::BadMagic);
}

/// One step of a measurement's life between checkpoints.
#[derive(Clone, Debug)]
enum Op {
    Process(u64, u32),
    Batch(Vec<u64>, u32),
    /// A vanilla update of the wrapped sketch (Count-Min's conservative
    /// update path, here).
    Vanilla(u64, u32),
    /// Merge an instance fed these keys.
    Merge(Vec<u64>),
    /// Restore the snapshot of an instance fed these keys.
    Restore(Vec<u64>),
    Clear,
    Downshift,
    /// Checkpoint into the image this many checkpoints back, recycled
    /// (0, or further back than the first image: a fresh buffer).
    Checkpoint(usize),
}

/// Op sequences of up to 120 steps, weighted toward updates and
/// checkpoints.
struct Ops;

impl Strategy for Ops {
    type Value = Vec<Op>;
    fn generate(&self, rng: &mut TestRng) -> Vec<Op> {
        let keys = |rng: &mut TestRng| prop::collection::vec(0u64..300, 0..48).generate(rng);
        let n = (1usize..120).generate(rng);
        (0..n)
            .map(|_| {
                let (k, w) = (0u64..300, 1u32..4).generate(rng);
                match rng.next_u64() % 22 {
                    0..=7 => Op::Process(k, w),
                    8..=10 => Op::Batch(keys(rng), w),
                    11..=12 => Op::Vanilla(k, w),
                    13 => Op::Merge(keys(rng)),
                    14 => Op::Restore(keys(rng)),
                    15 => Op::Clear,
                    16 => Op::Downshift,
                    _ => Op::Checkpoint((0usize..5).generate(rng)),
                }
            })
            .collect()
    }
}

/// Replay `ops` on `blank`, keeping every checkpoint image and the lines
/// each checkpoint interval wrote. Each checkpoint patches a recycled older
/// image with the union of the intervals since it, and must come out as
/// `snapshot()`.
fn check_patched_images<S>(blank: NitroSketch<S>, ops: &[Op])
where
    S: RowSketch + Sketch + Checkpoint + Clone,
{
    let fed = |keys: &[u64]| {
        let mut other = blank.clone();
        other.process_batch(keys, 1.0);
        other
    };
    let mut m = blank.clone();
    let mut images: Vec<Vec<u8>> = Vec::new();
    // `intervals[i]`: the lines written between images i − 1 and i.
    let mut intervals: Vec<DirtyLines> = Vec::new();
    for op in ops {
        match op {
            Op::Process(k, w) => {
                m.process(*k, *w as f64);
            }
            Op::Batch(ks, w) => {
                m.process_batch(ks, *w as f64);
            }
            Op::Vanilla(k, w) => m.inner_mut().update(*k, *w as f64),
            Op::Merge(ks) => m.merge_from(&fed(ks)),
            Op::Restore(ks) => m.restore(&fed(ks).snapshot()).unwrap(),
            Op::Clear => m.clear(),
            Op::Downshift => {
                m.downshift();
            }
            Op::Checkpoint(back) => {
                let mut lines = DirtyLines::default();
                m.take_dirty(&mut lines);
                intervals.push(lines);
                let n = images.len();
                let mut image = Vec::new();
                if (1..=n).contains(back) {
                    image = images[n - back].clone();
                    let mut since = intervals[n - back + 1].clone();
                    for lines in &intervals[n - back + 2..] {
                        since.union(lines);
                    }
                    m.write_image(&mut image, 0, Some(&since));
                } else {
                    m.write_image(&mut image, 0, None);
                }
                assert!(
                    image == m.snapshot(),
                    "image {n} patched from {back} back differs from a full encode"
                );
                images.push(image);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn an_image_patched_with_the_lines_written_since_equals_snapshot(ops in Ops) {
        // Widths that leave a partial last line, and top-k tables that grow
        // and are cleared (the head changes length).
        let mut cm = CountMin::new(3, 37, 31);
        cm.set_conservative(true);
        check_patched_images(
            NitroSketch::new(cm, Mode::Fixed { p: 0.5 }, 32).with_topk(4),
            &ops,
        );
        check_patched_images(
            NitroSketch::new(CountSketch::new(3, 50, 33), Mode::Fixed { p: 1.0 }, 34)
                .with_topk(4),
            &ops,
        );
        check_patched_images(
            NitroSketch::new(KarySketch::new(2, 64, 35), Mode::Fixed { p: 0.25 }, 36),
            &ops,
        );
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
