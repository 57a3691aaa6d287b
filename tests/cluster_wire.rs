//! Property-based fuzzing of the cluster wire protocol and epoch codecs:
//! every well-formed frame round-trips bit-exactly, and every damaged
//! frame — truncated, bit-flipped, version-bumped — is rejected with a
//! typed [`FrameError`], never a panic and never a silent misparse.
//!
//! A second block drives the sans-io [`AggregatorSession`] directly with
//! duplicated and reordered seal-frame deliveries — the traffic a
//! reconnect storm's backfills actually produce — asserting merge
//! idempotence (packets counted exactly once), epoch completeness, and
//! watermark/completeness monotonicity. A third wires agent sessions to
//! aggregator sessions, and a last test runs a real agent against a real
//! aggregator over loopback TCP.

use nitrosketch::core::{Mode, NitroSketch};
use nitrosketch::hash::SplitMix64;
use nitrosketch::sketches::{Checkpoint, CountMin};
use nitrosketch::switch::cluster::proto::AggregatorSession;
use nitrosketch::switch::cluster::wire::{
    decode_epoch_payload, encode_epoch_payload, Message, WireHeader, WIRE_VERSION,
};
use nitrosketch::switch::cluster::{AgentOutput, AgentSession, AggEvent, ReconnectPolicy};
use nitrosketch::switch::cluster::{AggLog, AggOutput, ConnId, EpochStatus};
use nitrosketch::switch::frame;
use nitrosketch::switch::{
    Aggregator, AggregatorConfig, CheckpointSink, CheckpointStore, EpochReport, FrameError,
    MergedView, NodeAgent, NodeAgentConfig, RecoveredFrame, StoreConfig,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Deterministically expand a handful of drawn scalars into one of the
/// six message variants. (The offline proptest stand-in has no
/// `prop_oneof`/`prop_map`; selecting the variant from a drawn index
/// keeps the coverage while staying inside its strategy vocabulary.)
fn build_message(variant: usize, a: u64, b: u64, c: u64, flag: bool, frame: Vec<u8>) -> Message {
    match variant {
        0 => Message::Hello {
            node_id: a as u32,
            generation: b,
            next_epoch: c,
            fingerprint: a ^ b,
        },
        1 => Message::HelloAck {
            accepted: flag,
            last_epoch: b,
            cluster_epoch: c,
        },
        2 => Message::SealEpoch {
            node_id: a as u32,
            epoch: b,
            backfill: flag,
            frame,
        },
        3 => Message::Heartbeat {
            node_id: a as u32,
            epoch: b,
            processed: c,
        },
        4 => Message::Goodbye { node_id: a as u32 },
        _ => Message::SealDelta {
            node_id: a as u32,
            epoch: b,
            base_epoch: c,
            delta: frame,
        },
    }
}

/// Variants [`build_message`] draws from.
const VARIANTS: usize = 6;

/// Build a report from drawn scalars; estimates stay finite (NaN breaks
/// `==` comparison, and the control plane encodes "missing" scalars as
/// NaN through a separate path).
fn build_report(
    ids: (u64, u64, u64, u64),
    heavy_hitters: Vec<(u64, f64)>,
    scalars: (f64, f64, f64),
) -> EpochReport {
    EpochReport {
        switch_id: ids.0 as u32,
        epoch: ids.1,
        packets: ids.2,
        heavy_hitters,
        entropy_bits: scalars.0,
        distinct: scalars.1,
        l2: scalars.2,
        memory_bytes: ids.3,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any message survives encode → decode bit-exactly, and the decoder
    /// reports exactly the bytes it consumed.
    #[test]
    fn message_roundtrips(
        variant in 0usize..VARIANTS,
        (a, b, c) in (prop::num::u64::ANY, prop::num::u64::ANY, prop::num::u64::ANY),
        flag in prop::bool::ANY,
        frame in prop::collection::vec(prop::num::u8::ANY, 0..256),
    ) {
        let msg = build_message(variant, a, b, c, flag, frame);
        let bytes = msg.to_bytes();
        let (back, used) = Message::decode(&bytes).expect("own encoding must decode");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(back, msg);
    }

    /// Two concatenated messages peel off one at a time, in order.
    #[test]
    fn concatenated_messages_peel_in_order(
        (va, vb) in (0usize..VARIANTS, 0usize..VARIANTS),
        (a, b, c) in (prop::num::u64::ANY, prop::num::u64::ANY, prop::num::u64::ANY),
        flag in prop::bool::ANY,
        frame in prop::collection::vec(prop::num::u8::ANY, 0..64),
    ) {
        let first = build_message(va, a, b, c, flag, frame.clone());
        let second = build_message(vb, c, a, b, !flag, frame);
        let mut stream = first.to_bytes();
        let split = stream.len();
        stream.extend_from_slice(&second.to_bytes());
        let (m1, used) = Message::decode(&stream).expect("first frame");
        prop_assert_eq!(used, split);
        prop_assert_eq!(m1, first);
        let (m2, used2) = Message::decode(&stream[used..]).expect("second frame");
        prop_assert_eq!(used + used2, stream.len());
        prop_assert_eq!(m2, second);
    }

    /// Every strict prefix is `Truncated` — the retryable "read more
    /// bytes" signal a buffering reader depends on — never a panic and
    /// never a bogus success.
    #[test]
    fn every_truncation_is_retryable(
        variant in 0usize..VARIANTS,
        (a, b, c) in (prop::num::u64::ANY, prop::num::u64::ANY, prop::num::u64::ANY),
        flag in prop::bool::ANY,
        frame in prop::collection::vec(prop::num::u8::ANY, 0..128),
    ) {
        let bytes = build_message(variant, a, b, c, flag, frame).to_bytes();
        for cut in 0..bytes.len() {
            match Message::decode(&bytes[..cut]) {
                Err(FrameError::Truncated { need, got }) => {
                    prop_assert_eq!(got, cut);
                    prop_assert!(need > cut);
                }
                other => prop_assert!(false, "prefix {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    /// A whole frame with a valid checksum whose payload is cut short of
    /// its message's fields can never be completed by reading more: it is
    /// refused as corrupt, never reported `Truncated`, which would leave a
    /// buffering reader waiting for bytes that are not coming.
    #[test]
    fn a_whole_frame_with_a_cut_payload_is_not_retryable(
        variant in 0usize..VARIANTS,
        (a, b, c) in (prop::num::u64::ANY, prop::num::u64::ANY, prop::num::u64::ANY),
        flag in prop::bool::ANY,
        frame in prop::collection::vec(prop::num::u8::ANY, 0..64),
    ) {
        let bytes = build_message(variant, a, b, c, flag, frame).to_bytes();
        let whole = frame::decode::<WireHeader>(&bytes).expect("own encoding");
        for cut in 0..whole.payload.len() {
            let reframed = frame::encode(&whole.header, &whole.payload[..cut]);
            match Message::decode(&reframed) {
                Err(FrameError::Truncated { .. }) | Ok(_) => {
                    prop_assert!(false, "payload cut at {cut} of {}", whole.payload.len())
                }
                Err(_) => {}
            }
        }
    }

    /// Any single bit flip anywhere in the frame is rejected. Depending
    /// on where the flip lands this surfaces as a magic, version,
    /// checksum, length, type, or truncation error — all typed, none a
    /// panic, and never a silently wrong message.
    #[test]
    fn single_bit_flips_are_rejected(
        variant in 0usize..VARIANTS,
        (a, b, c) in (prop::num::u64::ANY, prop::num::u64::ANY, prop::num::u64::ANY),
        flag in prop::bool::ANY,
        frame in prop::collection::vec(prop::num::u8::ANY, 0..64),
        (pos, bit) in (prop::num::u64::ANY, 0usize..8),
    ) {
        let mut bytes = build_message(variant, a, b, c, flag, frame).to_bytes();
        let at = pos as usize % bytes.len();
        bytes[at] ^= 1 << bit;
        if let Ok((back, _)) = Message::decode(&bytes) {
            prop_assert!(false, "corrupt frame (byte {at} bit {bit}) decoded as {back:?}");
        }
    }

    /// A frame stamped with a future protocol version is refused up
    /// front, not misparsed under today's layout.
    #[test]
    fn future_versions_are_refused(
        variant in 0usize..VARIANTS,
        (a, b, c) in (prop::num::u64::ANY, prop::num::u64::ANY, prop::num::u64::ANY),
        flag in prop::bool::ANY,
        bump in 1u8..255,
    ) {
        let mut bytes = build_message(variant, a, b, c, flag, Vec::new()).to_bytes();
        bytes[4] = WIRE_VERSION.wrapping_add(bump);
        match Message::decode(&bytes) {
            Err(FrameError::Version { found, supported }) => {
                prop_assert_eq!(found, WIRE_VERSION.wrapping_add(bump));
                prop_assert_eq!(supported, WIRE_VERSION);
            }
            other => prop_assert!(false, "expected Version error, got {other:?}"),
        }
    }

    /// `EpochReport` round-trips through its own codec.
    #[test]
    fn epoch_report_roundtrips(
        ids in (prop::num::u64::ANY, prop::num::u64::ANY, prop::num::u64::ANY, prop::num::u64::ANY),
        hh in prop::collection::vec((prop::num::u64::ANY, -1.0e12f64..1.0e12), 0..32),
        scalars in (-1.0e6f64..1.0e6, 0.0f64..1.0e9, 0.0f64..1.0e9),
    ) {
        let report = build_report(ids, hh, scalars);
        let back = EpochReport::from_bytes(&report.to_bytes()).expect("own encoding must decode");
        prop_assert_eq!(back, report);
    }

    /// Truncating a report anywhere yields a typed `Truncated` with an
    /// honest byte count, and bytes past the last heavy-hitter entry are
    /// refused the way every `Message` variant refuses them.
    #[test]
    fn truncated_reports_are_typed(
        ids in (prop::num::u64::ANY, prop::num::u64::ANY, prop::num::u64::ANY, prop::num::u64::ANY),
        hh in prop::collection::vec((prop::num::u64::ANY, -1.0e12f64..1.0e12), 0..16),
        scalars in (-1.0e6f64..1.0e6, 0.0f64..1.0e9, 0.0f64..1.0e9),
        frac in 0.0f64..1.0,
    ) {
        let bytes = build_report(ids, hh, scalars).to_bytes();
        let cut = ((bytes.len() as f64) * frac) as usize;
        if cut < bytes.len() {
            match EpochReport::from_bytes(&bytes[..cut]) {
                Err(FrameError::Truncated { got, .. }) => prop_assert_eq!(got, cut),
                other => prop_assert!(false, "cut {cut}: expected Truncated, got {other:?}"),
            }
        }
        let mut long = bytes.clone();
        long.resize(bytes.len() + 1 + cut % 16, 0xA5);
        prop_assert_eq!(
            EpochReport::from_bytes(&long),
            Err(FrameError::Malformed("trailing payload bytes"))
        );
    }

    /// The epoch payload (`report ++ snapshot`) round-trips with the
    /// snapshot bytes intact, and any strict prefix is rejected.
    #[test]
    fn epoch_payload_roundtrips_and_rejects_prefixes(
        ids in (prop::num::u64::ANY, prop::num::u64::ANY, prop::num::u64::ANY, prop::num::u64::ANY),
        hh in prop::collection::vec((prop::num::u64::ANY, -1.0e12f64..1.0e12), 0..16),
        scalars in (-1.0e6f64..1.0e6, 0.0f64..1.0e9, 0.0f64..1.0e9),
        snapshot in prop::collection::vec(prop::num::u8::ANY, 0..512),
    ) {
        let report = build_report(ids, hh, scalars);
        let payload = encode_epoch_payload(&report, &snapshot);
        let (back, snap) = decode_epoch_payload(&payload).expect("own encoding must decode");
        prop_assert_eq!(back, report);
        prop_assert_eq!(snap, &snapshot[..]);
        for cut in 0..payload.len() {
            prop_assert!(
                decode_epoch_payload(&payload[..cut]).is_err(),
                "prefix {cut} decoded"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Sans-io aggregator session under duplicated / reordered delivery
// ---------------------------------------------------------------------------

/// The sketch every simulated node and the aggregator share; geometry and
/// seeds must match for the fingerprint handshake to admit the node.
fn agg_template() -> NitroSketch<CountMin> {
    NitroSketch::new(CountMin::new(2, 128, 9), Mode::Fixed { p: 1.0 }, 3).with_topk(16)
}

/// One node's wire-correct seal message for `epoch`, a pure function of
/// `(node, epoch)` so a redelivery is byte-identical to the original.
/// Returns the message and the packet count its report claims.
fn seal_message(node: u32, epoch: u64, backfill: bool) -> (Message, u64) {
    let mut sketch = agg_template();
    let mut rng = SplitMix64::new(((node as u64) << 32) | epoch);
    let packets = 3 + rng.next_u64() % 6;
    for _ in 0..packets {
        sketch.process(rng.next_u64() % 16, 1.0);
    }
    let report = EpochReport {
        switch_id: node,
        epoch,
        packets,
        heavy_hitters: sketch.heavy_hitters(0.0),
        entropy_bits: f64::NAN,
        distinct: f64::NAN,
        l2: 0.0,
        memory_bytes: 0,
    };
    (
        Message::SealEpoch {
            node_id: node,
            epoch,
            backfill,
            frame: encode_epoch_payload(&report, &sketch.snapshot()),
        },
        packets,
    )
}

/// Open a connection and run the `Hello` handshake for `node`; panics if
/// the aggregator refuses. Returns the bound connection and the
/// `last_epoch` watermark the ack carried.
fn join(session: &mut AggregatorSession<CountMin>, node: u32, fingerprint: u64) -> (ConnId, u64) {
    let conn = session.conn_open();
    session.on_message(
        conn,
        Message::Hello {
            node_id: node,
            generation: 1,
            next_epoch: 1,
            fingerprint,
        },
        0,
    );
    for out in session.drain() {
        if let AggOutput::Send {
            msg:
                Message::HelloAck {
                    accepted,
                    last_epoch,
                    ..
                },
            ..
        } = out
        {
            assert!(accepted, "n{node}: handshake refused");
            return (conn, last_epoch);
        }
    }
    panic!("n{node}: no HelloAck in handshake outputs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The same seal delivered several times — a fresh keyframe, a delta
    /// or a backfill, the redelivery traffic a reconnect storm produces —
    /// merges exactly once: per-epoch packets equal the sum of each node's
    /// single seal, every epoch completes, and every node reports exactly
    /// once. A set bit seals that epoch while the node is cut off, so it
    /// arrives as backfill on the redial and the redial's next seal is a
    /// keyframe again.
    #[test]
    fn duplicated_seal_frames_merge_exactly_once(
        dup in 1usize..4,
        nodes in 1usize..4,
        epochs in 1usize..5,
        backfill_bits in prop::num::u64::ANY,
    ) {
        let mut wire = Wire::new(nodes, false, backfill_bits);
        wire.copies = dup;
        for n in 0..nodes {
            wire.dial(n);
        }
        for n in 0..nodes {
            for e in 1..=epochs as u64 {
                let bit = (n as u64).wrapping_mul(epochs as u64).wrapping_add(e) % 64;
                if (backfill_bits >> bit) & 1 == 1 {
                    wire.sever(n);
                    wire.seal(n, false);
                    wire.dial(n);
                } else {
                    wire.seal(n, false);
                }
            }
        }
        prop_assert_eq!(wire.rejected, 0);
        let session = &wire.aggs[0];
        for e in 1..=epochs as u64 {
            prop_assert_eq!(session.packets_of(e), Some(wire.sealed_packets(e)), "epoch {}", e);
            prop_assert!(
                session.status_of(e).is_complete(),
                "epoch {} not complete: {:?}", e, session.status_of(e)
            );
            let reporting = session.reporting_of(e).expect("epoch has frames");
            prop_assert_eq!(
                reporting.len(), nodes,
                "epoch {}: duplicate deliveries changed the reporting set", e
            );
        }
    }

    /// Delta seals are a transport detail: over random seal sequences on
    /// 1–3 nodes with duplicated deliveries, lost seals, severs and
    /// redials, an aggregator fed what the agents send serves, epoch for
    /// epoch, the same views (byte-identical snapshots), statuses, packet
    /// counts and reporting sets as one fed every delta as the keyframe of
    /// the payload it encodes.
    #[test]
    fn delta_seals_serve_what_keyframes_serve(
        seed in prop::num::u64::ANY,
        nodes in 1usize..4,
        steps in 16usize..48,
    ) {
        let mut wire = Wire::new(nodes, true, seed);
        let last = wire.storm(seed, steps);
        prop_assert_eq!(wire.rejected, 0);
        prop_assert!(wire.deltas >= nodes as u64, "{:?}", wire.sent);
        let (deltas, keyframes) = (&wire.aggs[0], &wire.aggs[1]);
        for e in 1..=last {
            prop_assert_eq!(deltas.status_of(e), keyframes.status_of(e), "epoch {}", e);
            prop_assert!(deltas.status_of(e).is_complete(), "epoch {}", e);
            prop_assert_eq!(deltas.packets_of(e), keyframes.packets_of(e), "epoch {}", e);
            prop_assert_eq!(deltas.packets_of(e), Some(wire.sealed_packets(e)), "epoch {}", e);
            prop_assert_eq!(deltas.reporting_of(e), keyframes.reporting_of(e), "epoch {}", e);
            let (a, b) = (deltas.view(e).expect("view"), keyframes.view(e).expect("view"));
            prop_assert!(a.sketch().snapshot() == b.sketch().snapshot(), "epoch {} view differs", e);
        }
    }

    /// A fully shuffled interleaving of every node's seals, each
    /// duplicated, across connections: packets still count exactly once,
    /// an epoch that turns `Complete` never regresses while the rest of
    /// the storm lands (the member set is fixed here), `latest_complete`
    /// is monotone, and a fresh handshake afterwards acks the true
    /// high-water mark for every node.
    #[test]
    fn reordered_duplicated_delivery_is_idempotent_and_monotone(
        order_seed in prop::num::u64::ANY,
        dup in 1usize..3,
        nodes in 2usize..4,
        epochs in 2usize..6,
    ) {
        let template = agg_template();
        let fp = template.inner().fingerprint();
        let mut session = AggregatorSession::new(template, 0, Duration::from_secs(3600));
        let conns: Vec<ConnId> = (0..nodes)
            .map(|n| join(&mut session, n as u32, fp).0)
            .collect();

        // Build the duplicated delivery plan, then shuffle it.
        let mut plan: Vec<(usize, Message)> = Vec::new();
        let mut want: BTreeMap<u64, u64> = BTreeMap::new();
        for n in 0..nodes {
            for e in 1..=epochs as u64 {
                let (msg, packets) = seal_message(n as u32, e, true);
                *want.entry(e).or_insert(0) += packets;
                for _ in 0..dup {
                    plan.push((n, msg.clone()));
                }
            }
        }
        let mut rng = SplitMix64::new(order_seed);
        for i in (1..plan.len()).rev() {
            plan.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }

        let mut complete: Vec<bool> = vec![false; epochs + 1];
        let mut best = session.latest_complete();
        for (at, (n, msg)) in plan.into_iter().enumerate() {
            session.on_message(conns[n], msg, at as u64);
            let _ = session.drain();
            for e in 1..=epochs as u64 {
                let is = session.status_of(e).is_complete();
                prop_assert!(
                    is || !complete[e as usize],
                    "epoch {} regressed from Complete mid-storm",
                    e
                );
                complete[e as usize] = is;
            }
            let latest = session.latest_complete();
            prop_assert!(latest >= best, "latest_complete went backwards");
            best = latest;
        }

        for e in 1..=epochs as u64 {
            prop_assert_eq!(session.packets_of(e), Some(want[&e]), "epoch {}", e);
            prop_assert!(session.status_of(e).is_complete(), "epoch {}", e);
        }
        // A reconnect's ack carries the per-node watermark: it must be the
        // max sealed epoch no matter what order the frames landed in.
        for n in 0..nodes {
            let (_, last_epoch) = join(&mut session, n as u32, fp);
            prop_assert_eq!(last_epoch, epochs as u64, "n{} watermark", n);
        }
    }
}

// ---------------------------------------------------------------------------
// Agent sessions wired to aggregator sessions
// ---------------------------------------------------------------------------

/// The sketch of a wired cluster: wide enough that an epoch of a few
/// packets rewrites a few of its lines, so most seals go out as deltas.
fn wire_template() -> NitroSketch<CountMin> {
    NitroSketch::new(CountMin::new(2, 1024, 9), Mode::Fixed { p: 1.0 }, 3).with_topk(16)
}

/// One node: its agent session, the cumulative sketch it seals and its
/// durable epoch log.
struct WiredNode {
    agent: AgentSession,
    sketch: NitroSketch<CountMin>,
    log: Vec<RecoveredFrame>,
    /// The live connection (the same id on every aggregator).
    conn: Option<ConnId>,
    rng: SplitMix64,
}

/// Agent sessions and aggregator sessions joined by an in-memory network
/// that delivers every seal `copies` times. `aggs[0]` gets what the
/// agents send; a twin, when asked for, gets every delta seal as the
/// keyframe of the payload it encodes and is otherwise fed alike. An
/// aggregator given a log appends to it what it emits.
struct Wire {
    aggs: Vec<AggregatorSession<CountMin>>,
    logs: Vec<Option<AggLog>>,
    nodes: Vec<WiredNode>,
    copies: usize,
    /// Every message delivered, by node, in order.
    sent: Vec<(usize, Message)>,
    deltas: u64,
    /// Seals `aggs[0]` rejected.
    rejected: u64,
    now: u64,
}

impl Wire {
    fn new(nodes: usize, keyframe_twin: bool, seed: u64) -> Self {
        let aggs = (0..1 + usize::from(keyframe_twin))
            .map(|_| AggregatorSession::new(wire_template(), 0, Duration::from_secs(3600)))
            .collect();
        let fingerprint = wire_template().inner().fingerprint();
        let nodes = (0..nodes as u32)
            .map(|id| WiredNode {
                agent: AgentSession::new(id, fingerprint, 1, 1, ReconnectPolicy::default()),
                sketch: wire_template(),
                log: Vec::new(),
                conn: None,
                rng: SplitMix64::new(seed ^ u64::from(id) << 40),
            })
            .collect();
        Self {
            logs: (0..1 + usize::from(keyframe_twin)).map(|_| None).collect(),
            aggs,
            nodes,
            copies: 1,
            sent: Vec::new(),
            deltas: 0,
            rejected: 0,
            now: 0,
        }
    }

    /// Open a connection for node `n`, handshake, and backfill.
    fn dial(&mut self, n: usize) {
        let conns: Vec<ConnId> = self.aggs.iter_mut().map(|a| a.conn_open()).collect();
        assert!(conns.windows(2).all(|c| c[0] == c[1]), "twins allot alike");
        self.nodes[n].conn = Some(conns[0]);
        self.nodes[n].agent.transport_connected();
        self.pump(n);
    }

    /// Drop node `n`'s connection at both ends.
    fn sever(&mut self, n: usize) {
        let Some(conn) = self.nodes[n].conn.take() else {
            return;
        };
        self.nodes[n].agent.connection_lost(self.now);
        for agg in &mut self.aggs {
            agg.conn_closed(conn, true);
            agg.drain();
        }
    }

    /// Seal node `n`'s next epoch after a few more packets. A `lost` seal
    /// dies in flight and its connection with it.
    fn seal(&mut self, n: usize, lost: bool) -> u64 {
        let node = &mut self.nodes[n];
        let epoch = node.agent.next_epoch();
        let packets = 1 + node.rng.next_u64() % 8;
        for _ in 0..packets {
            node.sketch.process(node.rng.next_u64() % 64, 1.0);
        }
        let report = EpochReport {
            switch_id: n as u32,
            epoch,
            packets,
            heavy_hitters: node.sketch.heavy_hitters(0.0),
            entropy_bits: f64::NAN,
            distinct: f64::NAN,
            l2: 0.0,
            memory_bytes: 0,
        };
        let mut payload = encode_epoch_payload(&report, &node.sketch.snapshot());
        node.log.push(RecoveredFrame {
            generation: 1,
            seq: epoch,
            processed_at: packets,
            bytes: payload.clone(),
        });
        node.agent.begin_seal(epoch).expect("epochs advance");
        node.agent.finish_seal(epoch, &mut payload);
        if lost {
            node.agent.drain();
            self.sever(n);
        } else {
            self.pump(n);
        }
        epoch
    }

    /// Carry out node `n`'s queued agent outputs.
    fn pump(&mut self, n: usize) {
        loop {
            let outs = self.nodes[n].agent.drain();
            if outs.is_empty() {
                return;
            }
            for out in outs {
                match out {
                    AgentOutput::Send(msg) => self.deliver(n, msg),
                    AgentOutput::Backfill { .. } => {
                        let node = &mut self.nodes[n];
                        for f in &node.log {
                            node.agent.offer_backfill(f.clone());
                        }
                    }
                    AgentOutput::Dial | AgentOutput::Backoff { .. } | AgentOutput::GaveUp => {}
                }
            }
        }
    }

    /// Deliver one message from node `n` to every aggregator (a seal
    /// `copies` times), and the first aggregator's replies back.
    fn deliver(&mut self, n: usize, msg: Message) {
        let Some(conn) = self.nodes[n].conn else {
            return;
        };
        self.now += 1;
        let copies = match msg {
            Message::SealEpoch { .. } => self.copies,
            Message::SealDelta { .. } => {
                self.deltas += 1;
                self.copies
            }
            _ => 1,
        };
        let mut replies: Vec<Vec<Message>> = Vec::new();
        let mut closed = false;
        for (i, (agg, log)) in self.aggs.iter_mut().zip(&mut self.logs).enumerate() {
            let msg = if i == 0 {
                msg.clone()
            } else {
                as_keyframe(&self.nodes[n].log, &msg)
            };
            for _ in 0..copies {
                agg.on_message(conn, msg.clone(), self.now);
            }
            let mut sends = Vec::new();
            for out in agg.drain() {
                match out {
                    AggOutput::Send { msg, .. } => sends.push(msg),
                    AggOutput::Close { .. } => closed = true,
                    AggOutput::Event(AggEvent::FrameRejected { .. }) if i == 0 => {
                        self.rejected += 1
                    }
                    AggOutput::Append(record) => {
                        if let Some(log) = log {
                            log.append(record, agg).expect("log append");
                        }
                    }
                    AggOutput::Event(_) => {}
                }
            }
            replies.push(sends);
        }
        self.sent.push((n, msg));
        assert!(
            replies.windows(2).all(|r| r[0] == r[1]),
            "the twins answer alike"
        );
        if closed {
            self.sever(n);
            return;
        }
        for reply in replies.swap_remove(0) {
            self.nodes[n]
                .agent
                .on_message(reply, self.now)
                .expect("handshake accepted");
        }
    }

    /// Give aggregator `i` an aggregation log in `dir`.
    fn log_to(&mut self, i: usize, dir: &Path, cfg: &StoreConfig) {
        self.logs[i] = Some(AggLog::open(dir, cfg).expect("open log"));
    }

    /// Dial every node, then run `steps` random steps drawn from `seed`:
    /// seals (each delivered once or twice), seals lost with their
    /// connection, severs and redials. Then heal, and bring every node to
    /// the same last epoch: a cluster seals common windows, and an epoch
    /// completes once every member sealed it. Two epochs past the newest,
    /// every node ships a keyframe and then a delta on its last
    /// connection. Returns that last epoch.
    fn storm(&mut self, seed: u64, steps: usize) -> u64 {
        let nodes = self.nodes.len();
        let mut net = SplitMix64::new(seed ^ 0x5eed);
        for n in 0..nodes {
            self.dial(n);
        }
        for _ in 0..steps {
            let n = (net.next_u64() % nodes as u64) as usize;
            self.copies = 1 + usize::from(net.next_u64().is_multiple_of(3));
            match net.next_u64() % 10 {
                0 => self.sever(n),
                1 => {
                    self.seal(n, true);
                }
                2 | 3 if self.nodes[n].conn.is_none() => self.dial(n),
                _ => {
                    self.seal(n, false);
                }
            }
        }
        let last = 2 + self
            .nodes
            .iter()
            .map(|n| n.agent.next_epoch() - 1)
            .max()
            .unwrap_or(0);
        for n in 0..nodes {
            if self.nodes[n].conn.is_none() {
                self.dial(n);
            }
            while self.nodes[n].agent.next_epoch() <= last {
                self.seal(n, false);
            }
        }
        last
    }

    /// Node `n`'s sealed payload of `epoch`.
    fn payload(&self, n: u32, epoch: u64) -> &[u8] {
        let log = &self.nodes[n as usize].log;
        &log.iter().find(|f| f.seq == epoch).expect("sealed").bytes
    }

    /// Packets every node sealed for `epoch`.
    fn sealed_packets(&self, epoch: u64) -> u64 {
        let logs = self.nodes.iter().flat_map(|n| &n.log);
        logs.filter(|f| f.seq == epoch)
            .map(|f| f.processed_at)
            .sum()
    }

    /// Node `n`'s delivered messages, in order, as short labels.
    fn transcript(&self, n: usize) -> Vec<String> {
        let mine = self.sent.iter().filter(|(m, _)| *m == n);
        mine.map(|(_, msg)| match msg {
            Message::Hello { .. } => "hello".to_string(),
            Message::SealEpoch {
                epoch,
                backfill: true,
                ..
            } => format!("backfill {epoch}"),
            Message::SealEpoch { epoch, .. } => format!("keyframe {epoch}"),
            Message::SealDelta {
                epoch, base_epoch, ..
            } => format!("delta {epoch}/{base_epoch}"),
            other => format!("{other:?}"),
        })
        .collect()
    }
}

/// `msg` with a delta seal replaced by the keyframe of the payload it
/// encodes, from the node's log.
fn as_keyframe(log: &[RecoveredFrame], msg: &Message) -> Message {
    let Message::SealDelta { node_id, epoch, .. } = *msg else {
        return msg.clone();
    };
    let f = log.iter().find(|f| f.seq == epoch).expect("sealed payload");
    Message::SealEpoch {
        node_id,
        epoch,
        backfill: false,
        frame: f.bytes.clone(),
    }
}

/// A delta cut against anything but the connection's base is refused and
/// closes the connection; the redial backfills what it dropped and
/// opens with a keyframe. A redelivered delta is ignored.
#[test]
fn a_delta_against_a_stale_or_foreign_base_is_refused_and_repaired() {
    let mut wire = Wire::new(1, false, 7);
    // Every key seen up front fills the heavy-key tracker, so every
    // payload has one length: only the named base tells a stale delta
    // from a fresh one.
    for key in 0..64 {
        wire.nodes[0].sketch.process(key, 1.0);
    }
    let last_sent = |wire: &Wire| wire.sent.last().expect("a message").1.clone();
    wire.dial(0);
    wire.seal(0, false);
    wire.seal(0, false);
    let second = last_sent(&wire);
    // A redelivery of the delta that built the base changes nothing.
    wire.deliver(0, second.clone());
    assert_eq!(wire.rejected, 0);
    wire.seal(0, false);
    // Stale: cut against epoch 1 while the connection's base is epoch 3.
    wire.deliver(0, second);
    assert_eq!(wire.rejected, 1);
    assert!(
        wire.nodes[0].conn.is_none(),
        "a refusal closes the connection"
    );
    wire.seal(0, false); // epoch 4, sealed while cut off
    wire.dial(0);
    wire.seal(0, false);
    wire.seal(0, false);
    let sixth = last_sent(&wire);
    // Foreign: cut on the previous connection, delivered on a new one.
    wire.sever(0);
    wire.dial(0);
    wire.deliver(0, sixth);
    assert_eq!(wire.rejected, 2);
    assert!(
        wire.nodes[0].conn.is_none(),
        "a refusal closes the connection"
    );
    wire.dial(0);
    wire.seal(0, false);
    assert_eq!(
        wire.transcript(0),
        [
            "hello",
            "keyframe 1",
            "delta 2/1",
            "delta 2/1",
            "delta 3/2",
            "delta 2/1",
            "hello",
            "backfill 4",
            "keyframe 5",
            "delta 6/5",
            "hello",
            "delta 6/5",
            "hello",
            "keyframe 7",
        ]
    );
    let lengths: Vec<usize> = wire.nodes[0].log.iter().map(|f| f.bytes.len()).collect();
    assert!(lengths.windows(2).all(|l| l[0] == l[1]), "{lengths:?}");
    let session = &wire.aggs[0];
    for e in 1..=7 {
        assert!(session.status_of(e).is_complete(), "epoch {e}");
        assert_eq!(
            session.packets_of(e),
            Some(wire.sealed_packets(e)),
            "epoch {e}"
        );
    }
}

/// A seal's payload is bound to its message by the report alone: a
/// keyframe, or a delta rebuilt on the connection's base, whose report
/// names another node or another epoch than the message is refused and
/// closes the connection, and nothing of it is merged or logged.
#[test]
fn a_seal_whose_report_names_another_node_or_epoch_is_refused() {
    let fingerprint = wire_template().inner().fingerprint();
    let mut sketch = wire_template();
    for key in 0..8 {
        sketch.process(key, 1.0);
    }
    let payload = |switch_id: u32, epoch: u64| {
        let report = EpochReport {
            switch_id,
            epoch,
            packets: 8,
            heavy_hitters: sketch.heavy_hitters(0.0),
            entropy_bits: f64::NAN,
            distinct: f64::NAN,
            l2: 0.0,
            memory_bytes: 0,
        };
        encode_epoch_payload(&report, &sketch.snapshot())
    };
    // Node 0 seals epoch 2; its report names node 1, or epoch 3.
    for (switch_id, named_epoch) in [(1, 2), (0, 3)] {
        for delta in [false, true] {
            let case = format!("report n{switch_id} e{named_epoch}, delta {delta}");
            let mut agent = AgentSession::new(0, fingerprint, 1, 1, ReconnectPolicy::default());
            agent.transport_connected();
            let ack = Message::HelloAck {
                accepted: true,
                last_epoch: 0,
                cluster_epoch: 0,
            };
            agent.on_message(ack, 0).unwrap();
            if delta {
                agent.finish_seal(1, &mut payload(0, 1));
            }
            agent.finish_seal(2, &mut payload(switch_id, named_epoch));
            let mut seals: Vec<Message> = agent
                .drain()
                .into_iter()
                .filter_map(|out| match out {
                    AgentOutput::Send(
                        msg @ (Message::SealEpoch { .. } | Message::SealDelta { .. }),
                    ) => Some(msg),
                    _ => None,
                })
                .collect();
            let bad = seals.pop().expect("a seal");
            assert_eq!(
                matches!(bad, Message::SealDelta { .. }),
                delta,
                "{case}: {bad:?}"
            );

            let mut session = AggregatorSession::new(wire_template(), 0, Duration::from_secs(3600));
            let (conn, _) = join(&mut session, 0, fingerprint);
            for good in seals {
                session.on_message(conn, good, 1);
            }
            session.drain();
            session.on_message(conn, bad, 2);
            let outs = session.drain();
            assert!(
                outs.contains(&AggOutput::Event(AggEvent::FrameRejected { node: 0 })),
                "{case}: {outs:?}"
            );
            assert!(
                outs.contains(&AggOutput::Close { conn }),
                "{case}: {outs:?}"
            );
            assert!(
                !outs.iter().any(|o| matches!(
                    o,
                    AggOutput::Append(_) | AggOutput::Event(AggEvent::FrameMerged { .. })
                )),
                "{case}: {outs:?}"
            );
            for epoch in [2, 3] {
                assert_eq!(session.packets_of(epoch), None, "{case}: epoch {epoch}");
            }
            assert_eq!(session.packets_of(1), delta.then_some(8), "{case}");
        }
    }
}

// ---------------------------------------------------------------------------
// The aggregation log: one delta per seal, chained per node
// ---------------------------------------------------------------------------

/// A fresh directory for a test's logs.
fn log_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "nitro-wire-log-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An aggregation-log record read by its head, in the layout
/// tests/frame_codec.rs pins: its tag (1 a whole frame, 2 a membership
/// snapshot, 3 a delta) and, for a seal, its node and epoch.
#[derive(Debug, PartialEq)]
struct Logged {
    tag: u8,
    node: u32,
    epoch: u64,
}

fn logged(record: &[u8]) -> Logged {
    let epoch = match record[0] {
        2 => 0,
        _ => u64::from_le_bytes(record[5..13].try_into().unwrap()),
    };
    Logged {
        tag: record[0],
        node: u32::from_le_bytes(record[1..5].try_into().unwrap()),
        epoch,
    }
}

/// A log that never rotates.
fn one_segment() -> StoreConfig {
    StoreConfig {
        rotate_after: 1 << 20,
        keep_segments: 1,
        fsync: false,
    }
}

/// Write `records` as an aggregation log in `dir`, in order.
fn write_log(dir: &Path, records: &[Vec<u8>]) {
    let store = CheckpointStore::create(dir, 1, one_segment()).unwrap();
    let w = store.writer(0);
    for (seq, record) in records.iter().enumerate() {
        w.persist(seq as u64 + 1, 0, record).unwrap();
    }
}

/// A live seal after a connection's first arrives as a delta and is
/// logged as that delta, on its node's chain; each node's first seal
/// record in each segment is whole, so deleting whole segments never
/// orphans a delta. The recovered log serves what the live session does.
#[test]
fn every_live_seal_after_a_connections_first_is_logged_as_a_per_node_delta() {
    let dir = log_dir("chains");
    let cfg = StoreConfig {
        rotate_after: 7,
        keep_segments: 64,
        fsync: false,
    };
    let mut wire = Wire::new(3, false, 11);
    wire.log_to(0, &dir, &cfg);
    for n in 0..3 {
        wire.dial(n);
    }
    for round in 0..12 {
        // Node 1 seals round 5's epoch cut off, backfills it on the
        // redial, and opens its new connection with a keyframe.
        match round {
            5 => wire.sever(1),
            6 => wire.dial(1),
            _ => {}
        }
        for n in 0..3 {
            wire.seal(n, false);
        }
    }
    let arrived: BTreeMap<(u32, u64), bool> = (wire.sent.iter())
        .filter_map(|(_, msg)| match *msg {
            Message::SealEpoch { node_id, epoch, .. } => Some(((node_id, epoch), false)),
            Message::SealDelta { node_id, epoch, .. } => Some(((node_id, epoch), true)),
            _ => None,
        })
        .collect();
    let mut log = wire.logs[0].take().unwrap();
    let records: Vec<Logged> = (log.store().frames(0).iter())
        .map(|f| logged(&f.bytes))
        .collect();
    let seals = records.iter().filter(|r| r.tag != 2).count();
    assert_eq!((records.len(), seals), (40, 36), "{records:?}");
    let mut deltas = 0;
    for (i, segment) in records.chunks(cfg.rotate_after as usize).enumerate() {
        let mut opened = BTreeSet::new();
        for r in segment.iter().filter(|r| r.tag != 2) {
            let first = opened.insert(r.node);
            let delta = arrived[&(r.node, r.epoch)] && !first;
            assert_eq!(r.tag, if delta { 3 } else { 1 }, "segment {i}: {r:?}");
            deltas += usize::from(delta);
        }
    }
    // The other 19: six segments open three chains each (node 1's
    // backfill opens its chain in the fourth), and node 1's first seal on
    // its new connection is a keyframe.
    assert_eq!(deltas, 17, "{records:?}");

    let hour = Duration::from_secs(3600);
    let (recovered, got) = log.recover(wire_template(), 0, hour);
    assert_eq!(got.records, 40);
    let live = &wire.aggs[0];
    for e in 1..=12 {
        assert_eq!(recovered.reporting_of(e), live.reporting_of(e), "epoch {e}");
        assert_eq!(recovered.packets_of(e), live.packets_of(e), "epoch {e}");
        let (a, b) = (recovered.view(e).unwrap(), live.view(e).unwrap());
        assert!(
            a.sketch().snapshot() == b.sketch().snapshot(),
            "epoch {e} view differs"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A delta record whose base record is missing, or that names another
/// base epoch than its node's record before it, is skipped: its epoch is
/// served Degraded without that node, nothing of it is merged, and the
/// node's watermark stays below it so a backfill can still repair it.
#[test]
fn a_delta_record_without_its_base_is_skipped_and_its_epoch_degraded() {
    let dir = log_dir("orphans");
    let mut wire = Wire::new(2, false, 5);
    wire.log_to(0, &dir.join("live"), &one_segment());
    for n in 0..2 {
        wire.dial(n);
    }
    for _ in 0..4 {
        for n in 0..2 {
            wire.seal(n, false);
        }
    }
    let records: Vec<Vec<u8>> = (wire.logs[0].as_ref().unwrap().store().frames(0))
        .into_iter()
        .map(|f| f.bytes)
        .collect();
    let node0: Vec<(u8, u64)> = (records.iter().map(|r| logged(r)))
        .filter(|r| r.node == 0 && r.tag != 2)
        .map(|r| (r.tag, r.epoch))
        .collect();
    assert_eq!(node0, [(1, 1), (3, 2), (3, 3), (3, 4)]);
    let delta_2 = Logged {
        tag: 3,
        node: 0,
        epoch: 2,
    };
    // Missing: node 0's delta of epoch 2 is gone, so its delta of epoch 3
    // finds epoch 1 on the chain. Foreign: that delta names epoch 1 as its
    // base while the chain holds epoch 2.
    let missing: Vec<Vec<u8>> = (records.iter())
        .filter(|r| logged(r) != delta_2)
        .cloned()
        .collect();
    let foreign: Vec<Vec<u8>> = (records.iter().cloned())
        .map(|mut r| {
            if logged(&r).tag == 3 && logged(&r).node == 0 && logged(&r).epoch == 3 {
                r[13..21].copy_from_slice(&1u64.to_le_bytes());
            }
            r
        })
        .collect();
    let sealed = |n: usize, e: u64| {
        let f = wire.nodes[n].log.iter().find(|f| f.seq == e).unwrap();
        f.processed_at
    };
    for (case, records, skipped) in [("missing", missing, 2..=4), ("foreign", foreign, 3..=4)] {
        write_log(&dir.join(case), &records);
        let mut log = AggLog::open(dir.join(case), &one_segment()).unwrap();
        let (session, _) = log.recover(wire_template(), 0, Duration::from_secs(3600));
        for e in 1..=4 {
            let merged0 = !skipped.contains(&e);
            let status = session.status_of(e);
            assert_eq!(status.is_complete(), merged0, "{case}: epoch {e}");
            if !merged0 {
                assert_eq!(status, EpochStatus::Degraded { missing: vec![0] });
            }
            let want: BTreeSet<u32> = [0, 1].into_iter().filter(|&n| merged0 || n == 1).collect();
            assert_eq!(session.reporting_of(e), Some(want), "{case}: epoch {e}");
            let packets = sealed(1, e) + if merged0 { sealed(0, e) } else { 0 };
            assert_eq!(session.packets_of(e), Some(packets), "{case}: epoch {e}");
        }
        let watermark = if case == "missing" { 1 } else { 2 };
        assert_eq!(session.node_watermark(0), Some(watermark), "{case}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Recovery replays each node's chain. Over random storms on 1–3
    /// nodes (severs, redials, backfills, duplicated deliveries) logged
    /// into a log so small that rotation cuts every chain and GC deletes
    /// segments, a session recovered from the log holds every seal whose
    /// record survived, and serves each epoch byte for byte as a session
    /// recovered from the same records with every delta replaced by the
    /// whole record of its payload, and, where every record of the epoch
    /// survived, as the live session.
    #[test]
    fn a_recovered_log_serves_what_keyframes_and_the_live_session_serve(
        seed in prop::num::u64::ANY,
        nodes in 1usize..4,
        steps in 16usize..48,
        rotate_after in 2u64..5,
        keep_segments in 1usize..4,
    ) {
        let dir = log_dir("storm");
        let cfg = StoreConfig { rotate_after, keep_segments, fsync: false };
        let mut wire = Wire::new(nodes, false, seed);
        wire.log_to(0, &dir.join("deltas"), &cfg);
        wire.storm(seed, steps);
        let mut log = wire.logs[0].take().unwrap();
        let records: Vec<Vec<u8>> = log.store().frames(0).into_iter().map(|f| f.bytes).collect();
        let mut kept: BTreeMap<u64, BTreeSet<u32>> = BTreeMap::new();
        let whole: Vec<Vec<u8>> = records
            .iter()
            .map(|r| {
                let Logged { tag, node, epoch } = logged(r);
                if tag == 2 {
                    return r.clone();
                }
                kept.entry(epoch).or_default().insert(node);
                [&[1u8][..], &r[1..13], wire.payload(node, epoch)].concat()
            })
            .collect();
        write_log(&dir.join("keyframes"), &whole);

        let hour = Duration::from_secs(3600);
        let (recovered, got) = log.recover(wire_template(), 0, hour);
        let mut keyframes = AggLog::open(dir.join("keyframes"), &one_segment()).unwrap();
        let (keyframed, want) = keyframes.recover(wire_template(), 0, hour);
        prop_assert_eq!(got, want);
        prop_assert_eq!(recovered.epochs(), kept.keys().copied().collect::<Vec<_>>());
        prop_assert_eq!(recovered.node_watermarks(), keyframed.node_watermarks());
        let live = &wire.aggs[0];
        for e in recovered.epochs() {
            let reporting = recovered.reporting_of(e).unwrap();
            prop_assert_eq!(&reporting, &kept[&e], "epoch {}", e);
            prop_assert_eq!(recovered.status_of(e), keyframed.status_of(e), "epoch {}", e);
            prop_assert_eq!(recovered.packets_of(e), keyframed.packets_of(e), "epoch {}", e);
            prop_assert_eq!(Some(&reporting), keyframed.reporting_of(e).as_ref());
            let view = recovered.view(e).unwrap().sketch().snapshot();
            prop_assert!(view == keyframed.view(e).unwrap().sketch().snapshot(), "epoch {}", e);
            if Some(&reporting) == live.reporting_of(e).as_ref() {
                prop_assert!(view == live.view(e).unwrap().sketch().snapshot(), "epoch {}", e);
                prop_assert_eq!(recovered.packets_of(e), live.packets_of(e), "epoch {}", e);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Over loopback TCP
// ---------------------------------------------------------------------------

/// Node ids are `u32` end to end: a node whose id does not fit a `u16`
/// opens its agent, ships a keyframe and then a delta to a real
/// aggregator, backfills the epoch it sealed while severed, and has every
/// epoch merged.
#[test]
fn a_node_id_above_u16_max_seals_deltas_and_backfills() {
    let agg = Aggregator::spawn(agg_template(), "127.0.0.1:0", AggregatorConfig::default())
        .expect("spawn aggregator");
    let id = u16::MAX as u32 + 1;
    let dir =
        std::env::temp_dir().join(format!("nitro-cluster-wire-wide-id-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = NodeAgentConfig::new(id, agg_template().inner().fingerprint());
    // No redial of its own: only the explicit connect below repairs the
    // sever.
    cfg.reconnect = ReconnectPolicy {
        base_backoff: Duration::from_secs(3600),
        max_backoff: Duration::from_secs(3600),
        ..Default::default()
    };
    let mut agent = NodeAgent::open(&dir, cfg).expect("open agent");
    assert_eq!(agent.connect(agg.local_addr()).expect("connect"), 0);
    let mut sketch = agg_template();
    let mut seal = |agent: &mut NodeAgent, epoch: u64| {
        for _ in 0..100 {
            sketch.process(epoch, 1.0);
        }
        let view = MergedView::from_sketch(epoch, sketch.clone());
        agent
            .seal_epoch(epoch, &view, 10.0)
            .expect("seal")
            .delivered
    };
    assert!(seal(&mut agent, 1), "keyframe");
    assert!(seal(&mut agent, 2), "delta");
    agent.sever();
    assert!(!seal(&mut agent, 3), "durable only");
    assert_eq!(
        agent.connect(agg.local_addr()).expect("redial"),
        1,
        "backfill"
    );
    assert!(seal(&mut agent, 4), "keyframe");
    for epoch in 1..=4 {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !agg.epoch_status(epoch).is_complete() {
            assert!(
                Instant::now() < deadline,
                "epoch {epoch}: {:?}",
                agg.epoch_status(epoch)
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(agg.view(epoch).expect("view").estimate(epoch), 100.0);
    }
    assert_eq!(agg.known_nodes(), vec![id]);
    assert!(agg.scrape().contains("nitro_cluster_delta_seals_total 1\n"));
    agent.close();
    agg.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sketch whose counter array, 3 × 50 001 counters, is no multiple of a
/// 64-byte line: its first line is short.
fn short_lined_template(sampler: u64) -> NitroSketch<CountMin> {
    NitroSketch::new(CountMin::new(3, 50_001, 9), Mode::Fixed { p: 1.0 }, sampler).with_topk(16)
}

/// Every file under `dir`, by path relative to it.
fn tree(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(at) = stack.pop() {
        for entry in std::fs::read_dir(&at).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let bytes = std::fs::read(&path).unwrap();
                out.insert(path.strip_prefix(dir).unwrap().to_path_buf(), bytes);
            }
        }
    }
    out
}

/// Two agents seal the same epochs of a one-shard pipeline: one the
/// pipeline's views, which patch, so the agent compares only the head and
/// takes the lines they changed as its cut; the other standalone copies
/// of the same sketches, which it diffs whole. Their
/// epoch logs are the same bytes and their aggregators serve the same
/// views — with heavy-hitter lists of changing length (heads that grow
/// and shrink), a sever, seals while severed, and a redial that backfills.
#[test]
fn a_guided_cut_is_the_whole_diff() {
    use nitrosketch::switch::{spawn_sharded, PipelineConfig, SupervisorConfig};
    let fingerprint = short_lined_template(0).inner().fingerprint();
    let no_redial = ReconnectPolicy {
        base_backoff: Duration::from_secs(3600),
        max_backoff: Duration::from_secs(3600),
        ..Default::default()
    };
    let mut sides = Vec::new();
    for tag in ["guided", "whole"] {
        let agg = Aggregator::spawn(
            short_lined_template(0),
            "127.0.0.1:0",
            AggregatorConfig::default(),
        )
        .expect("spawn aggregator");
        let dir = log_dir(&format!("agent-{tag}"));
        let mut cfg = NodeAgentConfig::new(7, fingerprint);
        cfg.reconnect = no_redial;
        let mut agent = NodeAgent::open(&dir, cfg).expect("open agent");
        agent.connect(agg.local_addr()).expect("connect");
        sides.push((agg, dir, agent));
    }
    let (mut tap, mut pipeline) = spawn_sharded(
        |i| short_lined_template(i as u64),
        PipelineConfig {
            shards: 1,
            supervisor: SupervisorConfig {
                checkpoint_every: 700,
                high_water: 2.0,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("spawn pipeline");
    let mut rng = SplitMix64::new(47);
    let (mut offered, mut patched) = (0, 0);
    let epochs = 12;
    for epoch in 1..=epochs {
        // Few enough packets that an epoch writes a sparse set of lines.
        for _ in 0..100 + rng.next_u64() % 600 {
            // A few heavy keys over a light tail.
            let key = match rng.next_u64() % 4 {
                0 => rng.next_u64() % 8,
                _ => rng.next_u64() % 50_000,
            };
            tap.offer(key, offered);
            offered += 1;
        }
        while pipeline.processed() < offered {
            std::thread::yield_now();
        }
        let view = pipeline.epoch_view().expect("epoch view");
        patched += view.changed().is_some() as usize;
        let whole = MergedView::from_sketch(epoch, NitroSketch::clone(view.sketch()));
        // Heavy-hitter lists of changing length: the head moves.
        let threshold = [5.0, 400.0, 40.0, 1e9][epoch as usize % 4];
        if epoch == 5 {
            for (_, _, agent) in &mut sides {
                agent.sever();
            }
        }
        let [(_, _, a), (_, _, b)] = &mut sides[..] else {
            unreachable!()
        };
        let sealed = a.seal_epoch(epoch, &view, threshold).expect("seal");
        let twin = b.seal_epoch(epoch, &whole, threshold).expect("seal");
        assert_eq!(sealed, twin, "epoch {epoch}");
        assert_eq!(sealed.delivered, !(5..=6).contains(&epoch), "epoch {epoch}");
        if epoch == 6 {
            for (agg, _, agent) in &mut sides {
                assert_eq!(agent.connect(agg.local_addr()).expect("redial"), 2);
            }
        }
    }
    assert!(patched >= epochs as usize - 2, "{patched} patched views");
    drop(tap);
    pipeline.finish().expect("clean run");
    for epoch in 1..=epochs {
        let views: Vec<_> = sides
            .iter()
            .map(|(agg, _, _)| {
                let deadline = Instant::now() + Duration::from_secs(10);
                while !agg.epoch_status(epoch).is_complete() {
                    assert!(Instant::now() < deadline, "epoch {epoch} incomplete");
                    std::thread::sleep(Duration::from_millis(5));
                }
                agg.view(epoch).expect("view").sketch().snapshot()
            })
            .collect();
        assert!(
            views[0] == views[1],
            "epoch {epoch}'s aggregated views differ"
        );
    }
    let [(agg_a, dir_a, a), (agg_b, dir_b, b)] = <[_; 2]>::try_from(sides).ok().unwrap();
    a.close();
    b.close();
    agg_a.shutdown();
    agg_b.shutdown();
    assert!(tree(&dir_a) == tree(&dir_b), "the epoch logs differ");
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}
