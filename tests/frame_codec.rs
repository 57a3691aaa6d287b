//! The framings the switch writes to disk and sends to peers: the store's
//! checkpoint frame, the fleet manifest, the cluster wire messages, the
//! epoch report and the epoch payload.
//!
//! Golden bytes pin each one to what the codecs wrote before they shared
//! one implementation, so a durable log from that build still reads as
//! before. The six wire messages are pinned at wire version 2, re-recorded
//! when a keyframe seal stopped wrapping its epoch payload in a store
//! frame: every message's version byte and checksum changed, and the
//! keyframe's body is the bare payload. A keyframe of version 1 is kept as
//! a fixture, to pin what a version-2 aggregator does with one. One set of
//! properties then runs over every framing of the shared codec: round
//! trip, truncation, bit flips, future versions, oversized lengths and
//! cross-framing splices.

use nitrosketch::core::{Mode, NitroSketch};
use nitrosketch::hash::xxhash::xxh64;
use nitrosketch::sketches::{Checkpoint, CountMin};
use nitrosketch::switch::cluster::proto::AggregatorSession;
use nitrosketch::switch::cluster::wire::{
    decode_epoch_payload, encode_epoch_payload, Message, WireHeader,
};
use nitrosketch::switch::cluster::{
    AgentOutput, AgentSession, AggEvent, AggLog, AggOutput, ReconnectPolicy,
};
use nitrosketch::switch::frame::{self, FrameError, Header};
use nitrosketch::switch::store::{ManifestHeader, StoreHeader};
use nitrosketch::switch::{CheckpointSink, CheckpointStore, EpochReport, StoreConfig};
use proptest::prelude::*;
use std::fmt::Debug;
use std::time::Duration;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn report() -> EpochReport {
    EpochReport {
        switch_id: 3,
        epoch: 5,
        packets: 1_000,
        heavy_hitters: vec![(0xBEEF, 400.0), (0xCAFE, 250.5)],
        entropy_bits: 7.25,
        distinct: 123.0,
        l2: 456.5,
        memory_bytes: 4096,
    }
}

fn epoch_payload() -> Vec<u8> {
    encode_epoch_payload(&report(), b"sketch snapshot")
}

/// The delta seal an agent cuts for epoch 6 against its seal of epoch 5,
/// whose payloads differ in their report's epoch and one snapshot byte.
fn delta_seal() -> Message {
    let snapshot = |last: u8| {
        let mut s: Vec<u8> = (0..200).map(|i| i as u8).collect();
        s[199] = last;
        s
    };
    let mut agent = AgentSession::new(3, 0, 2, 5, ReconnectPolicy::default());
    agent.transport_connected();
    let ack = Message::HelloAck {
        accepted: true,
        last_epoch: 4,
        cluster_epoch: 4,
    };
    agent.on_message(ack, 0).unwrap();
    agent.finish_seal(5, &mut encode_epoch_payload(&report(), &snapshot(0)));
    let sixth = EpochReport {
        epoch: 6,
        ..report()
    };
    agent.finish_seal(6, &mut encode_epoch_payload(&sixth, &snapshot(1)));
    match agent.drain().pop() {
        Some(AgentOutput::Send(msg @ Message::SealDelta { .. })) => msg,
        other => panic!("expected a delta seal, got {other:?}"),
    }
}

fn messages() -> Vec<(&'static str, Message)> {
    vec![
        (
            "hello",
            Message::Hello {
                node_id: 3,
                generation: 2,
                next_epoch: 5,
                fingerprint: 0x0123_4567_89AB_CDEF,
            },
        ),
        (
            "hello_ack",
            Message::HelloAck {
                accepted: true,
                last_epoch: 4,
                cluster_epoch: 6,
            },
        ),
        (
            "seal_epoch",
            Message::SealEpoch {
                node_id: 3,
                epoch: 5,
                backfill: true,
                frame: epoch_payload(),
            },
        ),
        ("seal_delta", delta_seal()),
        (
            "heartbeat",
            Message::Heartbeat {
                node_id: 3,
                epoch: 5,
                processed: 777,
            },
        ),
        ("goodbye", Message::Goodbye { node_id: 3 }),
    ]
}

/// Every framing, by name, as this build writes it.
fn framings() -> Vec<(&'static str, Vec<u8>)> {
    let dir = std::env::temp_dir().join(format!("nitro-frame-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = StoreConfig {
        fsync: false,
        ..StoreConfig::default()
    };
    let store = CheckpointStore::create(&dir, 2, cfg).unwrap();
    store
        .writer(1)
        .persist(7, 700, b"checkpoint payload")
        .unwrap();
    drop(store);
    let manifest = std::fs::read(dir.join("MANIFEST")).unwrap();
    let frame = std::fs::read(dir.join("shard-0001/active.log")).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    let mut out = vec![
        ("manifest", manifest),
        ("store_frame", frame),
        ("report", report().to_bytes()),
        ("epoch_payload", epoch_payload()),
    ];
    out.extend(messages().into_iter().map(|(n, m)| (n, m.to_bytes())));
    out.push(("agg_log_delta", agg_log_delta()));
    out
}

/// The blank sketch of the aggregation-log goldens and fixture.
fn small_template() -> NitroSketch<CountMin> {
    NitroSketch::new(CountMin::new(2, 64, 9), Mode::Fixed { p: 1.0 }, 3)
}

/// The aggregation-log record of a delta seal: node 3's seal of epoch 6,
/// cut by an `AgentSession` against its seal of epoch 5 and logged by an
/// `AggLog` as the wire delta itself, behind the node, the epoch and the
/// base epoch.
fn agg_log_delta() -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("nitro-agg-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = StoreConfig {
        fsync: false,
        ..StoreConfig::default()
    };
    let mut log = AggLog::open(&dir, &cfg).unwrap();
    let mut session = AggregatorSession::new(small_template(), 0, Duration::from_secs(60));
    let fingerprint = small_template().inner().fingerprint();
    let mut agent = AgentSession::new(3, fingerprint, 2, 5, ReconnectPolicy::default());
    let conn = session.conn_open();
    agent.transport_connected();
    let mut sketch = small_template();
    let mut wire_delta = Vec::new();
    for epoch in [0, 5, 6] {
        if epoch > 0 {
            sketch.process(epoch, 1.0);
            let report = EpochReport { epoch, ..report() };
            let mut payload = encode_epoch_payload(&report, &sketch.snapshot());
            agent.begin_seal(epoch).unwrap();
            agent.finish_seal(epoch, &mut payload);
        }
        for out in agent.drain() {
            let AgentOutput::Send(msg) = out else {
                continue;
            };
            if let Message::SealDelta { delta, .. } = &msg {
                wire_delta = delta.clone();
            }
            session.on_message(conn, msg, 0);
            for out in session.drain() {
                match out {
                    AggOutput::Send { msg, .. } => agent.on_message(msg, 0).unwrap(),
                    AggOutput::Append(record) => log.append(record, &session).unwrap(),
                    _ => {}
                }
            }
        }
    }
    let record = log.store().frames(0).pop().unwrap().bytes;
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(record[21..], wire_delta[..], "the record is the wire delta");
    record
}

/// Written by the three separate codecs (store frame + manifest, cluster
/// wire, epoch report) before they were folded into one; the wire
/// messages as wire version 2 writes them.
const GOLDEN: &[(&str, &str)] = &[
    ("manifest", "4e414d4e010100000000000000020000007e457ab828e1e57a"),
    ("store_frame", "4d52464e0100010001000000000000000700000000000000bc0200000000000012000000636865636b706f696e74207061796c6f61646b48ab97baa94f21"),
    ("report", "5254494e030000000500000000000000e8030000000000000000000000001d400000000000c05e400000000000887c40001000000000000002000000efbe0000000000000000000000007940feca0000000000000000000000506f40"),
    ("epoch_payload", "5c0000005254494e030000000500000000000000e8030000000000000000000000001d400000000000c05e400000000000887c40001000000000000002000000efbe0000000000000000000000007940feca0000000000000000000000506f400f000000736b6574636820736e617073686f74"),
    ("hello", "554c434e020100001c0000000300000002000000000000000500000000000000efcdab89674523015d47ee9526045a77"),
    ("hello_ack", "554c434e0202000011000000010400000000000000060000000000000056ee440aec2e60ab"),
    ("seal_epoch", "554c434e020300008400000003000000050000000000000001730000005c0000005254494e030000000500000000000000e8030000000000000000000000001d400000000000c05e400000000000887c40001000000000000002000000efbe0000000000000000000000007940feca0000000000000000000000506f400f000000736b6574636820736e617073686f74f2c8861607fa46b7"),
    ("seal_delta", "554c434e020600009c0000000300000006000000000000000500000000000000840000002c0100002c010000000000002c0000005c0000005254494e030000000600000000000000e8030000000000000000000000001d400000000000c05e40ec0000004000000088898a8b8c8d8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1c2c3c4c5c6018c7ed69f12131c59"),
    ("heartbeat", "554c434e02040000140000000300000005000000000000000903000000000000d24b2918e81d84ec"),
    ("goodbye", "554c434e020500000400000003000000e5d636677159fe49"),
    ("agg_log_delta", "030300000006000000000000000500000000000000dd040000dd040000000000001d0000005c0000005254494e030000000600000000000000e803000000000000005d00000080000000506f40790400004b43534e01000000000000f03f000200000000000000020000000000000002000000000000000400000000000000000000000000000000000000000000000000000000000000000000000026040000000000004b534d43010200000040000000646070befe52afae62eaaf875e8a2dc00000000000000000401d010000400000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000f03fdd020000400000000000000000000000000000000000f03f000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"),
];

/// The `seal_epoch` golden as wire version 1 wrote it: the same fields,
/// with the epoch payload inside a store frame (node 3 as its shard,
/// generation 2, sequence 5, 1 000 processed).
const SEAL_EPOCH_V1: &str = "554c434e01030000b0000000030000000500000000000000019f0000004d52464e0100030002000000000000000500000000000000e803000000000000730000005c0000005254494e030000000500000000000000e8030000000000000000000000001d400000000000c05e400000000000887c40001000000000000002000000efbe0000000000000000000000007940feca0000000000000000000000506f400f000000736b6574636820736e617073686f7444395cefa4ee06233098242b6346324c";

#[test]
fn every_framing_writes_the_previous_bytes() {
    let actual = framings();
    let names: Vec<_> = actual.iter().map(|(n, _)| *n).collect();
    let golden: Vec<_> = GOLDEN.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, golden, "one golden value per framing");
    let wrong: Vec<String> = actual
        .iter()
        .zip(GOLDEN)
        .filter(|((_, bytes), (_, want))| hex(bytes) != *want)
        .map(|((name, bytes), _)| format!("    (\"{name}\", \"{}\"),", hex(bytes)))
        .collect();
    assert!(wrong.is_empty(), "bytes changed:\n{}", wrong.join("\n"));
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap())
        .collect()
}

fn golden(name: &str) -> Vec<u8> {
    unhex(GOLDEN.iter().find(|(n, _)| *n == name).unwrap().1)
}

#[test]
fn the_previous_bytes_read_back_as_what_was_written() {
    let manifest = golden("manifest");
    let m = frame::decode_exact::<ManifestHeader>(&manifest).unwrap();
    assert_eq!(
        m.header,
        ManifestHeader {
            generation: 1,
            shards: 2
        }
    );
    let stored = golden("store_frame");
    let f = frame::decode_exact::<StoreHeader>(&stored).unwrap();
    assert_eq!(
        f.header,
        StoreHeader {
            shard: 1,
            generation: 1,
            seq: 7,
            processed_at: 700
        }
    );
    assert_eq!(f.payload, b"checkpoint payload");
    assert_eq!(
        EpochReport::from_bytes(&golden("report")).unwrap(),
        report()
    );
    for (name, msg) in messages() {
        let bytes = golden(name);
        assert_eq!(
            Message::decode(&bytes).unwrap(),
            (msg, bytes.len()),
            "{name}"
        );
    }
}

/// An aggregation log written before delta records — format 1: whole
/// frame records and membership snapshots, which the store itself
/// diffed — replays in full under format 2, whose records are a superset.
/// The fixture is what a format-1 TCP aggregator logged for two nodes
/// sealing epochs 1–3 (node `n` counted key 7 `n + 1` times and key
/// `100 + n` once per epoch number), in two sealed segments of four
/// records that hold store deltas.
#[test]
fn a_log_written_before_delta_records_replays() {
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/agg_log_v1");
    let dir = std::env::temp_dir().join(format!("nitro-agg-v1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("shard-0000")).unwrap();
    for file in [
        "MANIFEST",
        "shard-0000/seg-00000000.log",
        "shard-0000/seg-00000001.log",
    ] {
        std::fs::copy(fixture.join(file), dir.join(file)).unwrap();
    }
    let cfg = StoreConfig {
        rotate_after: 4,
        keep_segments: 8,
        fsync: false,
    };
    let template = || small_template().with_topk(4);
    let mut log = AggLog::open(&dir, &cfg).unwrap();
    let (session, got) = log.recover(template(), 0, Duration::from_secs(60));
    assert_eq!((got.epochs, got.nodes, got.records), (3, 2, 8));
    for epoch in 1..=3u64 {
        let mut merged = template();
        for n in 0..2u64 {
            let mut sketch = template();
            for _ in 0..=n {
                sketch.process(7, 1.0);
            }
            for _ in 0..epoch {
                sketch.process(100 + n, 1.0);
            }
            merged.merge_image(&sketch.snapshot()).unwrap();
        }
        assert!(session.status_of(epoch).is_complete(), "epoch {epoch}");
        let view = session.view(epoch).unwrap();
        assert!(
            view.sketch().snapshot() == merged.snapshot(),
            "epoch {epoch}"
        );
        assert_eq!(view.estimate(7), 3.0);
        assert_eq!(view.estimate(100), epoch as f64);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A version-1 keyframe still decodes as a message, since its fields kept
/// their layout, but its body is no epoch payload: a version-2 aggregator
/// refuses the seal and closes the connection, and merges and logs
/// nothing.
#[test]
fn a_version_1_keyframe_is_refused_by_a_version_2_aggregator() {
    let bytes = unhex(SEAL_EPOCH_V1);
    let (msg, used) = Message::decode(&bytes).unwrap();
    assert_eq!(used, bytes.len());
    let Message::SealEpoch { frame, .. } = &msg else {
        panic!("expected a keyframe, got {msg:?}");
    };
    assert!(decode_epoch_payload(frame).is_err());

    let template = NitroSketch::new(CountMin::new(2, 64, 9), Mode::Fixed { p: 1.0 }, 3);
    let fingerprint = template.inner().fingerprint();
    let mut session = AggregatorSession::new(template, 0, Duration::from_secs(60));
    let conn = session.conn_open();
    let hello = Message::Hello {
        node_id: 3,
        generation: 2,
        next_epoch: 5,
        fingerprint,
    };
    session.on_message(conn, hello, 0);
    session.drain();
    session.on_message(conn, msg, 1);
    let outs = session.drain();
    assert!(
        outs.contains(&AggOutput::Event(AggEvent::FrameRejected { node: 3 })),
        "{outs:?}"
    );
    assert!(outs.contains(&AggOutput::Close { conn }), "{outs:?}");
    assert!(
        !outs.iter().any(|o| matches!(
            o,
            AggOutput::Append(_) | AggOutput::Event(AggEvent::FrameMerged { .. })
        )),
        "{outs:?}"
    );
    assert_eq!(session.packets_of(5), None);
}

// ---- One set of properties over every framing ----

/// A header built from drawn values, so one property body covers every
/// framing.
trait Drawn: Header + Debug + PartialEq {
    fn drawn(a: u64, b: u64) -> Self;
}

impl Drawn for StoreHeader {
    fn drawn(a: u64, b: u64) -> Self {
        Self {
            shard: a as u16,
            generation: b,
            seq: a ^ b,
            processed_at: a.wrapping_mul(b),
        }
    }
}

impl Drawn for ManifestHeader {
    fn drawn(a: u64, b: u64) -> Self {
        Self {
            generation: a,
            shards: b as u32,
        }
    }
}

impl Drawn for WireHeader {
    fn drawn(a: u64, _: u64) -> Self {
        Self { kind: a as u8 }
    }
}

/// A frame of framing `H`. A fixed-size record carries no payload.
fn sample<H: Drawn>(a: u64, b: u64, payload: &[u8]) -> (H, Vec<u8>, Vec<u8>) {
    let payload = if H::SIZED {
        payload.to_vec()
    } else {
        Vec::new()
    };
    let header = H::drawn(a, b);
    let bytes = frame::encode(&header, &payload);
    (header, payload, bytes)
}

/// Rewrite the checksum so only a deliberate edit differs.
fn reseal<H: Header>(bytes: &mut [u8]) {
    let at = bytes.len() - frame::TRAILER;
    let crc = xxh64(&bytes[..at], H::SEED);
    bytes[at..].copy_from_slice(&crc.to_le_bytes());
}

fn check_round_trip<H: Drawn>(a: u64, b: u64, payload: &[u8]) {
    let (header, payload, bytes) = sample::<H>(a, b, payload);
    prop_assert_eq!(
        bytes.len(),
        frame::head_len::<H>() + payload.len() + frame::TRAILER
    );
    let mut stream = bytes.clone();
    stream.extend_from_slice(&bytes);
    let f = frame::decode::<H>(&stream).expect("own encoding decodes");
    prop_assert_eq!(&f.header, &header);
    prop_assert_eq!(f.payload, &payload[..]);
    prop_assert_eq!(f.len, bytes.len(), "the next frame is left in place");
    prop_assert_eq!(frame::peek::<H>(&bytes).unwrap(), (header, bytes.len()));
    prop_assert_eq!(
        frame::decode_exact::<H>(&stream).unwrap_err(),
        FrameError::Malformed("trailing bytes after frame")
    );
}

fn check_truncation<H: Drawn>(a: u64, b: u64, payload: &[u8]) {
    let (_, _, bytes) = sample::<H>(a, b, payload);
    for cut in 0..bytes.len() {
        match frame::decode::<H>(&bytes[..cut]) {
            Err(FrameError::Truncated { need, got }) => {
                prop_assert_eq!(got, cut);
                prop_assert!(
                    need > cut && need <= bytes.len(),
                    "need {} at cut {}",
                    need,
                    cut
                );
            }
            other => prop_assert!(false, "prefix {}: expected Truncated, got {:?}", cut, other),
        }
    }
}

fn check_bit_flip<H: Drawn>(a: u64, b: u64, payload: &[u8], pos: u64, bit: usize) {
    let (_, _, mut bytes) = sample::<H>(a, b, payload);
    let at = pos as usize % bytes.len();
    bytes[at] ^= 1 << bit;
    if let Ok(f) = frame::decode::<H>(&bytes) {
        prop_assert!(false, "byte {} bit {} flipped, decoded as {:?}", at, bit, f);
    }
}

fn check_future_version<H: Drawn>(a: u64, b: u64, bump: u8) {
    let (_, _, mut bytes) = sample::<H>(a, b, &[7; 9]);
    let found = H::VERSION.saturating_add(bump);
    bytes[4] = found;
    reseal::<H>(&mut bytes);
    let want = FrameError::Version {
        found,
        supported: H::VERSION,
    };
    prop_assert_eq!(frame::decode::<H>(&bytes).unwrap_err(), want.clone());
    prop_assert_eq!(frame::peek::<H>(&bytes).unwrap_err(), want);
}

fn check_oversized<H: Drawn>(a: u64, b: u64, excess: u32) {
    if !H::SIZED {
        return;
    }
    let (_, _, mut bytes) = sample::<H>(a, b, &[]);
    let len_at = frame::head_len::<H>() - 4;
    let len = frame::MAX_PAYLOAD.saturating_add(excess.max(1));
    bytes[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
    // Only the header is looked at: no allocation, no read of the body.
    prop_assert_eq!(
        frame::decode::<H>(&bytes).unwrap_err(),
        FrameError::Oversized {
            len: len as u64,
            max: frame::MAX_PAYLOAD as u64,
        }
    );
}

/// A frame of framing `A` is never accepted as framing `B`.
fn check_splice<A: Drawn, B: Drawn>(a: u64, b: u64, payload: &[u8]) {
    let (_, _, bytes) = sample::<A>(a, b, payload);
    let mut padded = bytes.clone();
    padded.resize(bytes.len().max(frame::head_len::<B>()), 0);
    prop_assert_eq!(
        frame::decode::<B>(&padded).unwrap_err(),
        FrameError::BadMagic
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_framing_round_trips_and_peels_off_a_stream(
        (a, b) in (prop::num::u64::ANY, prop::num::u64::ANY),
        payload in prop::collection::vec(prop::num::u8::ANY, 0..96),
    ) {
        check_round_trip::<StoreHeader>(a, b, &payload);
        check_round_trip::<ManifestHeader>(a, b, &payload);
        check_round_trip::<WireHeader>(a, b, &payload);
    }

    #[test]
    fn every_prefix_of_every_framing_is_truncated(
        (a, b) in (prop::num::u64::ANY, prop::num::u64::ANY),
        payload in prop::collection::vec(prop::num::u8::ANY, 0..48),
    ) {
        check_truncation::<StoreHeader>(a, b, &payload);
        check_truncation::<ManifestHeader>(a, b, &payload);
        check_truncation::<WireHeader>(a, b, &payload);
    }

    #[test]
    fn any_bit_flip_in_any_framing_is_rejected(
        (a, b) in (prop::num::u64::ANY, prop::num::u64::ANY),
        payload in prop::collection::vec(prop::num::u8::ANY, 0..48),
        (pos, bit) in (prop::num::u64::ANY, 0usize..8),
    ) {
        check_bit_flip::<StoreHeader>(a, b, &payload, pos, bit);
        check_bit_flip::<ManifestHeader>(a, b, &payload, pos, bit);
        check_bit_flip::<WireHeader>(a, b, &payload, pos, bit);
    }

    #[test]
    fn future_versions_and_oversized_lengths_are_refused_from_the_header(
        (a, b) in (prop::num::u64::ANY, prop::num::u64::ANY),
        bump in 1u8..255,
        excess in prop::num::u32::ANY,
    ) {
        check_future_version::<StoreHeader>(a, b, bump);
        check_future_version::<ManifestHeader>(a, b, bump);
        check_future_version::<WireHeader>(a, b, bump);
        check_oversized::<StoreHeader>(a, b, excess);
        check_oversized::<WireHeader>(a, b, excess);
    }

    #[test]
    fn no_framing_passes_as_another(
        (a, b) in (prop::num::u64::ANY, prop::num::u64::ANY),
        payload in prop::collection::vec(prop::num::u8::ANY, 0..48),
    ) {
        check_splice::<StoreHeader, WireHeader>(a, b, &payload);
        check_splice::<StoreHeader, ManifestHeader>(a, b, &payload);
        check_splice::<WireHeader, StoreHeader>(a, b, &payload);
        check_splice::<WireHeader, ManifestHeader>(a, b, &payload);
        check_splice::<ManifestHeader, StoreHeader>(a, b, &payload);
        check_splice::<ManifestHeader, WireHeader>(a, b, &payload);
    }
}
