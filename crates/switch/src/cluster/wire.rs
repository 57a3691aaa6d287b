//! The cluster wire protocol: length-prefixed, versioned, checksummed
//! messages between a [`crate::cluster::NodeAgent`] and the
//! [`crate::cluster::Aggregator`].
//!
//! Each message is one [`crate::frame`] with a [`WireHeader`] — the same
//! codec the durable store frames its checkpoints with, so the same
//! torn/corrupt/version taxonomy applies on the network as on disk:
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
//! ([`FrameError::Truncated`]), never a desynchronized stream.
//!
//! An epoch's payload ([`encode_epoch_payload`]) bundles the
//! [`EpochReport`] summary with the full merged-sketch checkpoint
//! (`sketches::checkpoint` codec). A node persists it in its epoch log and
//! ships it as is: a [`Message::SealEpoch`] keyframe carries the payload
//! itself, checked by the wire frame's checksum alone, and backfill after
//! a partition re-sends the payloads the log replays, not a
//! re-computation. A fresh seal after the first on a connection ships as
//! a [`Message::SealDelta`]: only the 64-byte lines of that payload that
//! changed since the node's previous seal on the connection, in the
//! checkpoint store's delta encoding.

use crate::frame::{self, FrameError, Header, Reader};
use nitro_sketches::FlowKey;
use std::io::{Read, Write};

/// Current cluster wire-format version; bump on any layout change. A
/// peer speaking a newer version is rejected with [`FrameError::Version`]
/// instead of being misparsed. Version 2 ships a keyframe's epoch payload
/// bare; version 1 wrapped it in a store frame, which a version-2
/// aggregator refuses as a malformed payload.
pub const WIRE_VERSION: u8 = 2;

/// Header of a cluster wire message ("NCLU").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireHeader {
    /// Message type byte.
    pub kind: u8,
}

impl Header for WireHeader {
    /// "NCLU" — distinguishes cluster messages from store frames ("NFRM")
    /// and epoch reports ("NITR") at the first four bytes.
    const MAGIC: u32 = 0x4E43_4C55;
    const VERSION: u8 = WIRE_VERSION;
    /// Distinct from the store's checksum seed so a spliced disk frame can
    /// never pass as a wire message.
    const SEED: u64 = 0x4E43_4C55_5749_5245; // "NCLUWIRE"
    /// Type `u8` and a reserved `u16`.
    const FIELDS: usize = 3;

    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&[self.kind, 0, 0]);
    }

    fn read(r: &mut Reader<'_>, _version: u8) -> Result<Self, FrameError> {
        let kind = r.u8()?;
        r.u16()?; // reserved
        Ok(Self { kind })
    }
}

/// One cluster control-plane message.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Agent → aggregator, first message on every connection.
    Hello {
        /// Operator-assigned node id.
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
    /// Agent → aggregator: one sealed epoch's payload, whole (a
    /// keyframe).
    SealEpoch {
        /// Sending node.
        node_id: u32,
        /// Epoch the payload covers.
        epoch: u64,
        /// Whether this is a replay from the durable log (reconnect
        /// repair) rather than a freshly sealed epoch.
        backfill: bool,
        /// The [`encode_epoch_payload`] bytes, as the node's epoch log
        /// replays them. Their report must name this node and epoch.
        frame: Vec<u8>,
    },
    /// Agent → aggregator: one freshly sealed epoch's payload as the
    /// lines that differ from the payload of the node's previous seal on
    /// this connection, `base_epoch`. The aggregator keeps that payload
    /// per connection and rebuilds this one from it; the first seal on a
    /// connection, and every backfill, is a [`Message::SealEpoch`].
    SealDelta {
        /// Sending node.
        node_id: u32,
        /// Epoch the payload covers.
        epoch: u64,
        /// Epoch of the seal the delta was cut against.
        base_epoch: u64,
        /// The store's delta encoding (`store::encode_delta`) of the epoch
        /// payload against the base's payload.
        delta: Vec<u8>,
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
const TYPE_SEAL_DELTA: u8 = 6;

impl Message {
    fn type_byte(&self) -> u8 {
        match self {
            Message::Hello { .. } => TYPE_HELLO,
            Message::HelloAck { .. } => TYPE_HELLO_ACK,
            Message::SealEpoch { .. } => TYPE_SEAL_EPOCH,
            Message::SealDelta { .. } => TYPE_SEAL_DELTA,
            Message::Heartbeat { .. } => TYPE_HEARTBEAT,
            Message::Goodbye { .. } => TYPE_GOODBYE,
        }
    }

    fn write_payload(&self, p: &mut Vec<u8>) {
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
            Message::SealDelta {
                node_id,
                epoch,
                base_epoch,
                delta,
            } => {
                p.extend_from_slice(&node_id.to_le_bytes());
                p.extend_from_slice(&epoch.to_le_bytes());
                p.extend_from_slice(&base_epoch.to_le_bytes());
                p.extend_from_slice(&(delta.len() as u32).to_le_bytes());
                p.extend_from_slice(delta);
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
    }

    /// Encode to one self-contained wire frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        // Header, fixed fields and trailer fit in 64 bytes; only a seal
        // carries more, and the buffer is sized for it up front.
        let body = match self {
            Message::SealEpoch { frame, .. } => frame.len(),
            Message::SealDelta { delta, .. } => delta.len(),
            _ => 0,
        };
        let mut buf = Vec::with_capacity(64 + body);
        let header = WireHeader {
            kind: self.type_byte(),
        };
        frame::encode_into(&mut buf, &header, |p| self.write_payload(p));
        buf
    }

    /// Decode one message from the head of `data`, returning it with the
    /// bytes consumed. [`FrameError::Truncated`] means the buffer holds a
    /// prefix of a valid frame — read more and retry; every other error
    /// means the stream is corrupt and must be dropped. A whole frame
    /// whose payload is shorter than its message's fields is
    /// [`FrameError::Malformed`]: more bytes cannot complete it.
    pub fn decode(data: &[u8]) -> Result<(Message, usize), FrameError> {
        let f = frame::decode::<WireHeader>(data)?;
        let msg = Self::decode_payload(f.header.kind, f.payload).map_err(|e| match e {
            FrameError::Truncated { .. } => FrameError::Malformed("message payload cut short"),
            e => e,
        })?;
        Ok((msg, f.len))
    }

    /// The message of type `kind` whose fields are exactly `payload`.
    fn decode_payload(kind: u8, payload: &[u8]) -> Result<Message, FrameError> {
        let mut c = Reader::new(payload);
        let msg = match kind {
            TYPE_HELLO => Message::Hello {
                node_id: c.u32()?,
                generation: c.u64()?,
                next_epoch: c.u64()?,
                fingerprint: c.u64()?,
            },
            TYPE_HELLO_ACK => Message::HelloAck {
                accepted: c.u8()? != 0,
                last_epoch: c.u64()?,
                cluster_epoch: c.u64()?,
            },
            TYPE_SEAL_EPOCH => {
                let node_id = c.u32()?;
                let epoch = c.u64()?;
                let backfill = c.u8()? != 0;
                let flen = c.u32()? as usize;
                Message::SealEpoch {
                    node_id,
                    epoch,
                    backfill,
                    frame: c.take(flen)?.to_vec(),
                }
            }
            TYPE_SEAL_DELTA => {
                let node_id = c.u32()?;
                let epoch = c.u64()?;
                let base_epoch = c.u64()?;
                let dlen = c.u32()? as usize;
                Message::SealDelta {
                    node_id,
                    epoch,
                    base_epoch,
                    delta: c.take(dlen)?.to_vec(),
                }
            }
            TYPE_HEARTBEAT => Message::Heartbeat {
                node_id: c.u32()?,
                epoch: c.u64()?,
                processed: c.u64()?,
            },
            TYPE_GOODBYE => Message::Goodbye { node_id: c.u32()? },
            other => return Err(FrameError::UnknownType(other)),
        };
        c.done()?;
        Ok(msg)
    }

    /// Write this message to a blocking stream.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), FrameError> {
        w.write_all(&self.to_bytes())?;
        w.flush()?;
        Ok(())
    }

    /// Read exactly one message from a blocking stream (handshake path;
    /// connection handlers use buffered [`Message::decode`] instead so
    /// read timeouts cannot tear a frame).
    pub fn read_from(r: &mut impl Read) -> Result<Message, FrameError> {
        let mut whole = vec![0u8; frame::head_len::<WireHeader>()];
        r.read_exact(&mut whole)?;
        // Validate the header before trusting its length.
        let (_, len) = frame::peek::<WireHeader>(&whole)?;
        let head = whole.len();
        whole.resize(len, 0);
        r.read_exact(&mut whole[head..])?;
        Message::decode(&whole).map(|(m, _)| m)
    }
}

/// One data-plane epoch's exported results (§6 "Control Plane Module":
/// what the data plane hands the controller at the end of each epoch), in
/// a compact self-contained little-endian format. A cluster epoch
/// payload embeds one next to the full sketch checkpoint.
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
    pub fn from_bytes(data: &[u8]) -> Result<Self, FrameError> {
        let mut c = Reader::new(data);
        // Both parts are taken whole before any field is read, so a short
        // buffer reports the length the report needs, not the first field
        // that happens to be missing.
        let mut fixed = Reader::new(c.take(REPORT_FIXED)?);
        if fixed.u32()? != REPORT_MAGIC {
            return Err(FrameError::BadMagic);
        }
        let switch_id = fixed.u32()?;
        let epoch = fixed.u64()?;
        let packets = fixed.u64()?;
        let entropy_bits = fixed.f64()?;
        let distinct = fixed.f64()?;
        let l2 = fixed.f64()?;
        let memory_bytes = fixed.u64()?;
        let count = fixed.u32()? as usize;
        let mut entries = Reader::new(c.take(count * REPORT_ENTRY)?);
        c.done()?;
        let heavy_hitters = (0..count)
            .map(|_| Ok((entries.u64()?, entries.f64()?)))
            .collect::<Result<_, FrameError>>()?;
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
    let mut out = Vec::with_capacity(
        8 + REPORT_FIXED + report.heavy_hitters.len() * REPORT_ENTRY + snapshot.len(),
    );
    encode_epoch_payload_into(&mut out, report, |out| out.extend_from_slice(snapshot));
    out
}

/// [`encode_epoch_payload`] into `out`, replacing its contents. `snapshot`
/// appends the checkpoint in place, so a recycled buffer takes the whole
/// payload without the image being built, and copied, on its own.
pub(crate) fn encode_epoch_payload_into(
    out: &mut Vec<u8>,
    report: &EpochReport,
    snapshot: impl FnOnce(&mut Vec<u8>),
) {
    let r = report.to_bytes();
    out.clear();
    out.extend_from_slice(&(r.len() as u32).to_le_bytes());
    out.extend_from_slice(&r);
    let len_at = out.len();
    out.extend_from_slice(&[0; 4]);
    snapshot(out);
    let len = out.len() - len_at - 4;
    out[len_at..len_at + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Inverse of [`encode_epoch_payload`]; the snapshot is returned borrowed
/// so the (potentially large) checkpoint is not copied before restore.
pub fn decode_epoch_payload(data: &[u8]) -> Result<(EpochReport, &[u8]), FrameError> {
    let mut c = Reader::new(data);
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
            Message::SealDelta {
                node_id: 7,
                epoch: 13,
                base_epoch: 12,
                delta: vec![6, 7, 8],
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
    fn unknown_type_is_rejected() {
        let bytes = frame::encode(&WireHeader { kind: 99 }, &1u32.to_le_bytes());
        assert_eq!(Message::decode(&bytes), Err(FrameError::UnknownType(99)));
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
            Err(FrameError::Truncated { need: 60, got: 10 })
        );
        assert_eq!(
            EpochReport::from_bytes(&[0u8; 100]),
            Err(FrameError::BadMagic)
        );
        let mut ok = sample_report().to_bytes();
        ok.truncate(ok.len() - 1); // truncated HH list
        assert!(matches!(
            EpochReport::from_bytes(&ok),
            Err(FrameError::Truncated { .. })
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
