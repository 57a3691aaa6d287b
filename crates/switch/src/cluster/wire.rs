//! The cluster wire protocol: length-prefixed, versioned, checksummed
//! messages between a [`crate::cluster::NodeAgent`] and the
//! [`crate::cluster::Aggregator`].
//!
//! Layout mirrors the durable store's frame format (`store.rs`) — magic
//! word, version byte, explicit little-endian lengths, xxHash64 trailer
//! over everything before it — so the same torn/corrupt/version taxonomy
//! applies on the network as on disk:
//!
//! ```text
//! +-------+-----+------+----------+--------+---------------+---------+
//! | magic | ver | type | reserved | len    | payload       | xxh64   |
//! | u32   | u8  | u8   | u16      | u32 LE | len bytes     | u64 LE  |
//! +-------+-----+------+----------+--------+---------------+---------+
//! ```
//!
//! Decoding is slice-based ([`Message::decode`]) so a connection handler
//! can buffer partial reads and peel complete messages off the front —
//! a read timeout mid-frame is "come back with more bytes"
//! ([`WireError::Truncated`]), never a desynchronized stream.
//!
//! An epoch's durable payload ([`encode_epoch_payload`]) bundles the
//! [`EpochReport`] summary with the full merged-sketch checkpoint
//! (`sketches::checkpoint` codec), so the frame a node persists locally is
//! byte-identical to the frame it ships — backfill after a partition is a
//! re-send of disk bytes, not a re-computation.

use nitro_hash::xxhash::xxh64;
use nitro_sketches::FlowKey;
use std::fmt;
use std::io::{self, Read, Write};

/// Current cluster wire-format version; bump on any layout change. A
/// peer speaking a newer version is rejected with [`WireError::Version`]
/// instead of being misparsed.
pub const WIRE_VERSION: u8 = 1;

/// "NCLU" — distinguishes cluster messages from store frames ("NFRM")
/// and epoch reports ("NITR") at the first four bytes.
const WIRE_MAGIC: u32 = 0x4E43_4C55;

/// Fixed header: magic(4) + version(1) + type(1) + reserved(2) + len(4).
const WIRE_HEADER: usize = 12;

/// xxHash64 trailer.
const WIRE_TRAILER: usize = 8;

/// Checksum seed — distinct from the store's CRC seed so a spliced disk
/// frame can never pass as a wire message.
const WIRE_CRC_SEED: u64 = 0x4E43_4C55_5749_5245; // "NCLUWIRE"

/// Refuse absurd length prefixes before allocating.
pub const MAX_WIRE_PAYLOAD: u32 = 1 << 30;

/// Why wire bytes could not be decoded (or a wire I/O step failed).
///
/// Shared by the cluster protocol and the epoch-report codec
/// ([`EpochReport::from_bytes`]) — one taxonomy for every byte that
/// crosses the control plane, mirroring `CheckpointError` on the state
/// side.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the format requires. Over a stream this means
    /// "read more and retry"; over a complete buffer it is corruption.
    Truncated {
        /// Bytes the decoder needed.
        need: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The magic word does not match the expected codec.
    BadMagic,
    /// Written by a newer, unsupported format version.
    Version {
        /// Version byte found in the header.
        found: u8,
        /// Newest version this build understands.
        supported: u8,
    },
    /// The xxHash64 trailer does not match the message bytes.
    BadChecksum,
    /// An unknown message-type byte (valid frame, unintelligible intent).
    UnknownMessage(u8),
    /// A length prefix beyond [`MAX_WIRE_PAYLOAD`].
    Oversized {
        /// The length the header claimed.
        len: u64,
        /// The maximum this build accepts.
        max: u64,
    },
    /// A structurally invalid field — the bytes cannot have come from a
    /// well-formed message.
    Malformed(&'static str),
    /// The underlying transport failed (connect, read, write).
    Io(io::ErrorKind),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { need, got } => {
                write!(f, "wire bytes truncated: need {need}, got {got}")
            }
            WireError::BadMagic => write!(f, "wire magic mismatch"),
            WireError::Version { found, supported } => write!(
                f,
                "wire version {found} not supported (this build reads <= {supported})"
            ),
            WireError::BadChecksum => write!(f, "wire checksum mismatch"),
            WireError::UnknownMessage(t) => write!(f, "unknown wire message type {t}"),
            WireError::Oversized { len, max } => {
                write!(f, "wire payload length {len} exceeds maximum {max}")
            }
            WireError::Malformed(what) => write!(f, "wire message malformed: {what}"),
            WireError::Io(kind) => write!(f, "wire transport error: {kind:?}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e.kind())
    }
}

/// One cluster control-plane message.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Agent → aggregator, first message on every connection.
    Hello {
        /// Operator-assigned node id (must fit `u16`; it doubles as the
        /// durable frame's shard field).
        node_id: u32,
        /// The node's store generation (bumps on every local recovery).
        generation: u64,
        /// The next epoch this node will seal.
        next_epoch: u64,
        /// Blank-template configuration fingerprint
        /// (`Checkpoint::fingerprint`): geometry + seed band digest.
        fingerprint: u64,
    },
    /// Aggregator → agent handshake reply.
    HelloAck {
        /// Whether the node was admitted (fingerprint matched).
        accepted: bool,
        /// Newest epoch the aggregator already holds a frame for from
        /// this node (0: none) — the agent backfills everything after it.
        last_epoch: u64,
        /// Newest epoch any node has reported cluster-wide (0: none),
        /// so a fresh node can see where the fleet is.
        cluster_epoch: u64,
    },
    /// Agent → aggregator: one sealed epoch's durable frame.
    SealEpoch {
        /// Sending node.
        node_id: u32,
        /// Epoch the frame covers (also the frame's sequence number).
        epoch: u64,
        /// Whether this is a replay from the durable log (reconnect
        /// repair) rather than a freshly sealed epoch.
        backfill: bool,
        /// The store-framed bytes (`store.rs` CRC framing around an
        /// epoch payload) — exactly what the node's segment log holds.
        frame: Vec<u8>,
    },
    /// Agent → aggregator liveness signal between seals.
    Heartbeat {
        /// Sending node.
        node_id: u32,
        /// The epoch currently accumulating on the node.
        epoch: u64,
        /// Observations processed so far (monotonic).
        processed: u64,
    },
    /// Agent → aggregator: clean shutdown; epochs after the last sealed
    /// one are not expected from this node.
    Goodbye {
        /// Departing node.
        node_id: u32,
    },
}

const TYPE_HELLO: u8 = 1;
const TYPE_HELLO_ACK: u8 = 2;
const TYPE_SEAL_EPOCH: u8 = 3;
const TYPE_HEARTBEAT: u8 = 4;
const TYPE_GOODBYE: u8 = 5;

/// Little-endian field reader over a payload slice.
struct Cursor<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.data.len() < self.at + n {
            return Err(WireError::Truncated {
                need: self.at + n,
                got: self.data.len(),
            });
        }
        let s = &self.data[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn done(&self) -> Result<(), WireError> {
        if self.at == self.data.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing payload bytes"))
        }
    }
}

impl Message {
    fn type_byte(&self) -> u8 {
        match self {
            Message::Hello { .. } => TYPE_HELLO,
            Message::HelloAck { .. } => TYPE_HELLO_ACK,
            Message::SealEpoch { .. } => TYPE_SEAL_EPOCH,
            Message::Heartbeat { .. } => TYPE_HEARTBEAT,
            Message::Goodbye { .. } => TYPE_GOODBYE,
        }
    }

    fn payload(&self) -> Vec<u8> {
        let mut p = Vec::new();
        match self {
            Message::Hello {
                node_id,
                generation,
                next_epoch,
                fingerprint,
            } => {
                p.extend_from_slice(&node_id.to_le_bytes());
                p.extend_from_slice(&generation.to_le_bytes());
                p.extend_from_slice(&next_epoch.to_le_bytes());
                p.extend_from_slice(&fingerprint.to_le_bytes());
            }
            Message::HelloAck {
                accepted,
                last_epoch,
                cluster_epoch,
            } => {
                p.push(*accepted as u8);
                p.extend_from_slice(&last_epoch.to_le_bytes());
                p.extend_from_slice(&cluster_epoch.to_le_bytes());
            }
            Message::SealEpoch {
                node_id,
                epoch,
                backfill,
                frame,
            } => {
                p.extend_from_slice(&node_id.to_le_bytes());
                p.extend_from_slice(&epoch.to_le_bytes());
                p.push(*backfill as u8);
                p.extend_from_slice(&(frame.len() as u32).to_le_bytes());
                p.extend_from_slice(frame);
            }
            Message::Heartbeat {
                node_id,
                epoch,
                processed,
            } => {
                p.extend_from_slice(&node_id.to_le_bytes());
                p.extend_from_slice(&epoch.to_le_bytes());
                p.extend_from_slice(&processed.to_le_bytes());
            }
            Message::Goodbye { node_id } => {
                p.extend_from_slice(&node_id.to_le_bytes());
            }
        }
        p
    }

    /// Encode to one self-contained wire frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload = self.payload();
        let mut buf = Vec::with_capacity(WIRE_HEADER + payload.len() + WIRE_TRAILER);
        buf.extend_from_slice(&WIRE_MAGIC.to_le_bytes());
        buf.push(WIRE_VERSION);
        buf.push(self.type_byte());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        debug_assert_eq!(buf.len(), WIRE_HEADER);
        buf.extend_from_slice(&payload);
        let crc = xxh64(&buf, WIRE_CRC_SEED);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Decode one message from the head of `data`, returning it with the
    /// bytes consumed. [`WireError::Truncated`] means the buffer holds a
    /// prefix of a valid frame — read more and retry; every other error
    /// means the stream is corrupt and must be dropped.
    pub fn decode(data: &[u8]) -> Result<(Message, usize), WireError> {
        if data.len() < WIRE_HEADER {
            return Err(WireError::Truncated {
                need: WIRE_HEADER,
                got: data.len(),
            });
        }
        if u32::from_le_bytes(data[0..4].try_into().unwrap()) != WIRE_MAGIC {
            return Err(WireError::BadMagic);
        }
        if data[4] > WIRE_VERSION {
            return Err(WireError::Version {
                found: data[4],
                supported: WIRE_VERSION,
            });
        }
        let ty = data[5];
        let len = u32::from_le_bytes(data[8..12].try_into().unwrap());
        if len > MAX_WIRE_PAYLOAD {
            return Err(WireError::Oversized {
                len: len as u64,
                max: MAX_WIRE_PAYLOAD as u64,
            });
        }
        let total = WIRE_HEADER + len as usize + WIRE_TRAILER;
        if data.len() < total {
            return Err(WireError::Truncated {
                need: total,
                got: data.len(),
            });
        }
        let crc_at = WIRE_HEADER + len as usize;
        let stored = u64::from_le_bytes(data[crc_at..total].try_into().unwrap());
        if xxh64(&data[..crc_at], WIRE_CRC_SEED) != stored {
            return Err(WireError::BadChecksum);
        }
        let mut c = Cursor::new(&data[WIRE_HEADER..crc_at]);
        let msg = match ty {
            TYPE_HELLO => {
                let m = Message::Hello {
                    node_id: c.u32()?,
                    generation: c.u64()?,
                    next_epoch: c.u64()?,
                    fingerprint: c.u64()?,
                };
                c.done()?;
                m
            }
            TYPE_HELLO_ACK => {
                let m = Message::HelloAck {
                    accepted: c.u8()? != 0,
                    last_epoch: c.u64()?,
                    cluster_epoch: c.u64()?,
                };
                c.done()?;
                m
            }
            TYPE_SEAL_EPOCH => {
                let node_id = c.u32()?;
                let epoch = c.u64()?;
                let backfill = c.u8()? != 0;
                let flen = c.u32()? as usize;
                let frame = c.take(flen)?.to_vec();
                c.done()?;
                Message::SealEpoch {
                    node_id,
                    epoch,
                    backfill,
                    frame,
                }
            }
            TYPE_HEARTBEAT => {
                let m = Message::Heartbeat {
                    node_id: c.u32()?,
                    epoch: c.u64()?,
                    processed: c.u64()?,
                };
                c.done()?;
                m
            }
            TYPE_GOODBYE => {
                let m = Message::Goodbye { node_id: c.u32()? };
                c.done()?;
                m
            }
            other => return Err(WireError::UnknownMessage(other)),
        };
        Ok((msg, total))
    }

    /// Write this message to a blocking stream.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), WireError> {
        w.write_all(&self.to_bytes())?;
        w.flush()?;
        Ok(())
    }

    /// Read exactly one message from a blocking stream (handshake path;
    /// connection handlers use buffered [`Message::decode`] instead so
    /// read timeouts cannot tear a frame).
    pub fn read_from(r: &mut impl Read) -> Result<Message, WireError> {
        let mut head = [0u8; WIRE_HEADER];
        r.read_exact(&mut head)?;
        // Validate the header before trusting its length.
        if u32::from_le_bytes(head[0..4].try_into().unwrap()) != WIRE_MAGIC {
            return Err(WireError::BadMagic);
        }
        if head[4] > WIRE_VERSION {
            return Err(WireError::Version {
                found: head[4],
                supported: WIRE_VERSION,
            });
        }
        let len = u32::from_le_bytes(head[8..12].try_into().unwrap());
        if len > MAX_WIRE_PAYLOAD {
            return Err(WireError::Oversized {
                len: len as u64,
                max: MAX_WIRE_PAYLOAD as u64,
            });
        }
        let mut rest = vec![0u8; len as usize + WIRE_TRAILER];
        r.read_exact(&mut rest)?;
        let mut whole = Vec::with_capacity(WIRE_HEADER + rest.len());
        whole.extend_from_slice(&head);
        whole.extend_from_slice(&rest);
        Message::decode(&whole).map(|(m, _)| m)
    }
}

/// One data-plane epoch's exported results (§6 "Control Plane Module":
/// what the data plane hands the controller at the end of each epoch), in
/// a compact self-contained little-endian format. A cluster epoch frame
/// embeds one next to the full sketch checkpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochReport {
    /// Which switch produced this (operator-assigned).
    pub switch_id: u32,
    /// Epoch sequence number.
    pub epoch: u64,
    /// Packets observed in the epoch.
    pub packets: u64,
    /// `(flow key, estimated packets)` for flows above the HH threshold.
    pub heavy_hitters: Vec<(FlowKey, f64)>,
    /// Entropy estimate in bits (NaN encoded as missing → use `f64::NAN`).
    pub entropy_bits: f64,
    /// Distinct-flow estimate.
    pub distinct: f64,
    /// L2-norm estimate.
    pub l2: f64,
    /// Resident bytes of the data-plane structure.
    pub memory_bytes: u64,
}

const REPORT_MAGIC: u32 = 0x4E495452; // "NITR"

/// Fixed part of a report: magic(4) + switch_id(4) + epoch(8) + packets(8)
/// + entropy(8) + distinct(8) + l2(8) + memory_bytes(8) + hh count(4).
const REPORT_FIXED: usize = 60;

/// One heavy-hitter entry: key(8) + estimate(8).
const REPORT_ENTRY: usize = 16;

impl EpochReport {
    /// Encode to the compact little-endian wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(REPORT_FIXED + self.heavy_hitters.len() * REPORT_ENTRY);
        out.extend_from_slice(&REPORT_MAGIC.to_le_bytes());
        out.extend_from_slice(&self.switch_id.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.packets.to_le_bytes());
        out.extend_from_slice(&self.entropy_bits.to_le_bytes());
        out.extend_from_slice(&self.distinct.to_le_bytes());
        out.extend_from_slice(&self.l2.to_le_bytes());
        out.extend_from_slice(&self.memory_bytes.to_le_bytes());
        out.extend_from_slice(&(self.heavy_hitters.len() as u32).to_le_bytes());
        for &(k, e) in &self.heavy_hitters {
            out.extend_from_slice(&k.to_le_bytes());
            out.extend_from_slice(&e.to_le_bytes());
        }
        out
    }

    /// Decode from the wire format. `data` must hold exactly one report.
    pub fn from_bytes(data: &[u8]) -> Result<Self, WireError> {
        let mut c = Cursor::new(data);
        // Both parts are taken whole before any field is read, so a short
        // buffer reports the length the report needs, not the first field
        // that happens to be missing.
        let mut fixed = Cursor::new(c.take(REPORT_FIXED)?);
        if fixed.u32()? != REPORT_MAGIC {
            return Err(WireError::BadMagic);
        }
        let switch_id = fixed.u32()?;
        let epoch = fixed.u64()?;
        let packets = fixed.u64()?;
        let entropy_bits = fixed.f64()?;
        let distinct = fixed.f64()?;
        let l2 = fixed.f64()?;
        let memory_bytes = fixed.u64()?;
        let count = fixed.u32()? as usize;
        let mut entries = Cursor::new(c.take(count * REPORT_ENTRY)?);
        c.done()?;
        let heavy_hitters = (0..count)
            .map(|_| Ok((entries.u64()?, entries.f64()?)))
            .collect::<Result<_, WireError>>()?;
        Ok(Self {
            switch_id,
            epoch,
            packets,
            heavy_hitters,
            entropy_bits,
            distinct,
            l2,
            memory_bytes,
        })
    }
}

/// Bundle one epoch's [`EpochReport`] summary with the merged sketch
/// checkpoint into the payload a node both persists and ships:
/// `[report_len u32][report][snapshot_len u32][snapshot]`.
pub fn encode_epoch_payload(report: &EpochReport, snapshot: &[u8]) -> Vec<u8> {
    let r = report.to_bytes();
    let mut out = Vec::with_capacity(8 + r.len() + snapshot.len());
    out.extend_from_slice(&(r.len() as u32).to_le_bytes());
    out.extend_from_slice(&r);
    out.extend_from_slice(&(snapshot.len() as u32).to_le_bytes());
    out.extend_from_slice(snapshot);
    out
}

/// Inverse of [`encode_epoch_payload`]; the snapshot is returned borrowed
/// so the (potentially large) checkpoint is not copied before restore.
pub fn decode_epoch_payload(data: &[u8]) -> Result<(EpochReport, &[u8]), WireError> {
    let mut c = Cursor::new(data);
    let rlen = c.u32()? as usize;
    let report = EpochReport::from_bytes(c.take(rlen)?)?;
    let slen = c.u32()? as usize;
    let snapshot = c.take(slen)?;
    c.done()?;
    Ok((report, snapshot))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Hello {
                node_id: 7,
                generation: 3,
                next_epoch: 12,
                fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            },
            Message::HelloAck {
                accepted: true,
                last_epoch: 11,
                cluster_epoch: 12,
            },
            Message::SealEpoch {
                node_id: 7,
                epoch: 12,
                backfill: false,
                frame: vec![1, 2, 3, 4, 5],
            },
            Message::Heartbeat {
                node_id: 7,
                epoch: 12,
                processed: 100_000,
            },
            Message::Goodbye { node_id: 7 },
        ]
    }

    #[test]
    fn roundtrip_every_variant() {
        for msg in sample_messages() {
            let bytes = msg.to_bytes();
            let (back, used) = Message::decode(&bytes).unwrap();
            assert_eq!(back, msg);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn decode_peels_from_a_concatenated_stream() {
        let msgs = sample_messages();
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&m.to_bytes());
        }
        let mut at = 0;
        let mut back = Vec::new();
        while at < stream.len() {
            let (m, used) = Message::decode(&stream[at..]).unwrap();
            back.push(m);
            at += used;
        }
        assert_eq!(back, msgs);
    }

    #[test]
    fn truncation_is_retryable_at_every_prefix() {
        let bytes = sample_messages()[2].to_bytes();
        for cut in 0..bytes.len() {
            match Message::decode(&bytes[..cut]) {
                Err(WireError::Truncated { need, got }) => {
                    assert_eq!(got, cut);
                    assert!(need > cut);
                }
                other => panic!("prefix {cut} decoded as {other:?}"),
            }
        }
    }

    #[test]
    fn every_bit_flip_is_rejected() {
        let bytes = sample_messages()[0].to_bytes();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    Message::decode(&bad).is_err(),
                    "flip at byte {byte} bit {bit} decoded"
                );
            }
        }
    }

    #[test]
    fn newer_version_is_rejected_not_misparsed() {
        let mut bytes = sample_messages()[0].to_bytes();
        bytes[4] = WIRE_VERSION + 1;
        // Recompute the checksum so only the version differs.
        let crc_at = bytes.len() - WIRE_TRAILER;
        let crc = xxh64(&bytes[..crc_at], WIRE_CRC_SEED);
        bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            Message::decode(&bytes),
            Err(WireError::Version {
                found: WIRE_VERSION + 1,
                supported: WIRE_VERSION,
            })
        );
    }

    #[test]
    fn unknown_type_is_rejected() {
        let mut bytes = Message::Goodbye { node_id: 1 }.to_bytes();
        bytes[5] = 99;
        let crc_at = bytes.len() - WIRE_TRAILER;
        let crc = xxh64(&bytes[..crc_at], WIRE_CRC_SEED);
        bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(Message::decode(&bytes), Err(WireError::UnknownMessage(99)));
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut bytes = Message::Goodbye { node_id: 1 }.to_bytes();
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::Oversized { .. })
        ));
    }

    fn sample_report() -> EpochReport {
        EpochReport {
            switch_id: 3,
            epoch: 7,
            packets: 1_000_000,
            heavy_hitters: vec![(0xDEAD, 5000.0), (0xBEEF, 2500.5)],
            entropy_bits: 11.25,
            distinct: 78_000.0,
            l2: 12_345.6,
            memory_bytes: 2 << 20,
        }
    }

    #[test]
    fn report_roundtrips() {
        let r = sample_report();
        let bytes = r.to_bytes();
        assert_eq!(bytes.len(), REPORT_FIXED + 2 * REPORT_ENTRY);
        assert_eq!(EpochReport::from_bytes(&bytes).unwrap(), r);
    }

    #[test]
    fn report_rejects_garbage_with_typed_errors() {
        assert_eq!(
            EpochReport::from_bytes(&[0u8; 10]),
            Err(WireError::Truncated { need: 60, got: 10 })
        );
        assert_eq!(
            EpochReport::from_bytes(&[0u8; 100]),
            Err(WireError::BadMagic)
        );
        let mut ok = sample_report().to_bytes();
        ok.truncate(ok.len() - 1); // truncated HH list
        assert!(matches!(
            EpochReport::from_bytes(&ok),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn report_with_empty_heavy_hitter_list_roundtrips() {
        let mut r = sample_report();
        r.heavy_hitters.clear();
        assert_eq!(EpochReport::from_bytes(&r.to_bytes()).unwrap(), r);
    }

    #[test]
    fn epoch_payload_roundtrips() {
        let report = EpochReport {
            switch_id: 2,
            epoch: 9,
            packets: 1234,
            heavy_hitters: vec![(5, 100.0), (6, 50.0)],
            entropy_bits: f64::NAN,
            distinct: 42.0,
            l2: 111.5,
            memory_bytes: 4096,
        };
        let snapshot = vec![9u8; 333];
        let payload = encode_epoch_payload(&report, &snapshot);
        let (r, s) = decode_epoch_payload(&payload).unwrap();
        assert_eq!(r.switch_id, report.switch_id);
        assert_eq!(r.heavy_hitters, report.heavy_hitters);
        assert_eq!(s, &snapshot[..]);
        // Truncation anywhere inside is an error, never a panic.
        for cut in 0..payload.len() {
            assert!(decode_epoch_payload(&payload[..cut]).is_err());
        }
    }
}
