//! The one checksummed frame codec: every record the switch writes to disk
//! or sends to a peer is a frame of this shape.
//!
//! ```text
//! +-------+-----+----------------+--------+---------------+---------+
//! | magic | ver | typed header   | len    | payload       | xxh64   |
//! | u32   | u8  | H::FIELDS      | u32 LE | len bytes     | u64 LE  |
//! +-------+-----+----------------+--------+---------------+---------+
//! ```
//!
//! A [`Header`] type names one framing: its magic, its newest version, its
//! checksum seed and its fields. There are three: the store's checkpoint
//! frame (`store::StoreHeader`, "NFRM"), the fleet manifest
//! (`store::ManifestHeader`, "NMAN", a fixed-size record with no length
//! and no payload) and the cluster wire message (`cluster::wire`'s
//! header, "NCLU"). The xxHash64 trailer covers everything before it and
//! is seeded per framing, so one framing's bytes never pass as another's.
//!
//! A frame is accepted whole or not at all, and every reason it is not is
//! one [`FrameError`]: [`FrameError::Truncated`] means "a prefix of a
//! frame, read more" (a torn tail on disk, a partial delivery on a
//! socket); everything else means the bytes are not a frame.
//!
//! Payloads nested inside frames (the epoch report and epoch payload, the
//! aggregation-log records) carry no checksum of their own; they are read
//! with the same [`Reader`] and fail with the same error.

use nitro_hash::xxhash::xxh64;
use std::fmt;
use std::io;

/// Largest payload a frame may declare. A corrupt length prefix beyond it
/// is rejected before anything is allocated.
pub const MAX_PAYLOAD: u32 = 1 << 30;

/// Trailing checksum bytes.
pub const TRAILER: usize = 8;

/// Why bytes could not be decoded as a frame or a nested payload, or why
/// the transport carrying them failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the format requires. Over a stream or an
    /// append-only log this is a prefix of a frame; over a complete buffer
    /// it is corruption.
    Truncated {
        /// Bytes the decoder needed.
        need: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The magic word does not match the expected framing.
    BadMagic,
    /// Written by a newer, unsupported format version.
    Version {
        /// Version byte found in the header.
        found: u8,
        /// Newest version this build understands.
        supported: u8,
    },
    /// The xxHash64 trailer does not match the frame bytes.
    BadChecksum,
    /// A length prefix beyond [`MAX_PAYLOAD`].
    Oversized {
        /// The length the header claimed.
        len: u64,
        /// The maximum this build accepts.
        max: u64,
    },
    /// An unknown message or record type byte: a valid frame whose intent
    /// this build does not know.
    UnknownType(u8),
    /// A structurally invalid field: the bytes cannot have come from a
    /// well-formed record.
    Malformed(&'static str),
    /// The underlying transport failed (connect, read, write).
    Io(io::ErrorKind),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { need, got } => {
                write!(f, "frame truncated: need {need} bytes, got {got}")
            }
            FrameError::BadMagic => write!(f, "frame magic mismatch"),
            FrameError::Version { found, supported } => write!(
                f,
                "frame version {found} not supported (this build reads <= {supported})"
            ),
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame payload length {len} exceeds maximum {max}")
            }
            FrameError::UnknownType(t) => write!(f, "unknown frame type {t}"),
            FrameError::Malformed(what) => write!(f, "frame malformed: {what}"),
            FrameError::Io(kind) => write!(f, "frame transport error: {kind:?}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e.kind())
    }
}

/// The typed fields of one framing, between its version byte and its
/// payload length.
pub trait Header: Sized {
    /// Magic word at offset 0.
    const MAGIC: u32;
    /// Newest version this build writes and reads.
    const VERSION: u8;
    /// Seed of the xxHash64 trailer.
    const SEED: u64;
    /// Bytes [`Header::write`] appends and [`Header::read`] consumes.
    const FIELDS: usize;
    /// Whether a `u32` payload length follows the fields. A fixed-size
    /// record has none, and its payload is empty.
    const SIZED: bool = true;

    /// The version byte this header's frame is written under: the oldest
    /// version whose readers decode it correctly.
    fn version(&self) -> u8 {
        Self::VERSION
    }

    /// Append exactly [`Header::FIELDS`] bytes.
    fn write(&self, out: &mut Vec<u8>);

    /// Read the fields back; `r` holds exactly [`Header::FIELDS`] bytes and
    /// `version` is the frame's version byte (at most [`Header::VERSION`]).
    fn read(r: &mut Reader<'_>, version: u8) -> Result<Self, FrameError>;
}

/// Bytes ahead of the payload: magic, version, fields and length.
pub const fn head_len<H: Header>() -> usize {
    5 + H::FIELDS + if H::SIZED { 4 } else { 0 }
}

/// Replace the contents of `buf` with one frame. `payload` appends the
/// payload in place, so a large one is never built in a buffer of its own
/// and copied; its length is written once it is known.
pub fn encode_into<H: Header>(buf: &mut Vec<u8>, header: &H, payload: impl FnOnce(&mut Vec<u8>)) {
    buf.clear();
    buf.extend_from_slice(&H::MAGIC.to_le_bytes());
    buf.push(header.version());
    header.write(buf);
    debug_assert_eq!(buf.len(), 5 + H::FIELDS);
    let len_at = buf.len();
    if H::SIZED {
        buf.extend_from_slice(&[0; 4]);
    }
    payload(buf);
    let len = buf.len() - head_len::<H>();
    if H::SIZED {
        // A longer payload would be written as a frame no decoder accepts.
        assert!(len <= MAX_PAYLOAD as usize, "frame payload of {len} bytes");
        buf[len_at..len_at + 4].copy_from_slice(&(len as u32).to_le_bytes());
    } else {
        debug_assert_eq!(len, 0, "a fixed-size record has no payload");
    }
    let crc = xxh64(buf, H::SEED);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// One frame in a fresh buffer.
pub fn encode<H: Header>(header: &H, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(head_len::<H>() + payload.len() + TRAILER);
    encode_into(&mut buf, header, |out| out.extend_from_slice(payload));
    buf
}

/// A decoded frame, borrowing its payload from the input.
#[derive(Debug)]
pub struct Frame<'a, H> {
    /// The typed header fields.
    pub header: H,
    /// The payload bytes.
    pub payload: &'a [u8],
    /// Bytes the frame occupies at the head of the input.
    pub len: usize,
}

/// Validate the header at the head of `data` (magic, version, fields and
/// the length bound) without touching the payload. Returns the header and
/// the length of the whole frame, so a stream reader knows how much more
/// to read before it trusts anything.
pub fn peek<H: Header>(data: &[u8]) -> Result<(H, usize), FrameError> {
    let head = head_len::<H>();
    let Some(head_bytes) = data.get(..head) else {
        return Err(FrameError::Truncated {
            need: head,
            got: data.len(),
        });
    };
    let mut r = Reader::new(head_bytes);
    if r.u32()? != H::MAGIC {
        return Err(FrameError::BadMagic);
    }
    let found = r.u8()?;
    if found > H::VERSION {
        return Err(FrameError::Version {
            found,
            supported: H::VERSION,
        });
    }
    let header = H::read(&mut Reader::new(r.take(H::FIELDS)?), found)?;
    let len = if H::SIZED { r.u32()? } else { 0 };
    if len > MAX_PAYLOAD {
        return Err(FrameError::Oversized {
            len: len as u64,
            max: MAX_PAYLOAD as u64,
        });
    }
    Ok((header, head + len as usize + TRAILER))
}

/// Decode the frame at the head of `data`; bytes after it are left for
/// the caller (the next frame of a log or a stream).
pub fn decode<H: Header>(data: &[u8]) -> Result<Frame<'_, H>, FrameError> {
    let (header, len) = peek::<H>(data)?;
    if data.len() < len {
        return Err(FrameError::Truncated {
            need: len,
            got: data.len(),
        });
    }
    let crc_at = len - TRAILER;
    let stored = u64::from_le_bytes(data[crc_at..len].try_into().unwrap());
    if xxh64(&data[..crc_at], H::SEED) != stored {
        return Err(FrameError::BadChecksum);
    }
    Ok(Frame {
        header,
        payload: &data[head_len::<H>()..crc_at],
        len,
    })
}

/// [`decode`] a buffer that must hold exactly one frame.
pub fn decode_exact<H: Header>(data: &[u8]) -> Result<Frame<'_, H>, FrameError> {
    let frame = decode::<H>(data)?;
    if frame.len != data.len() {
        return Err(FrameError::Malformed("trailing bytes after frame"));
    }
    Ok(frame)
}

/// Little-endian field reader over a byte slice: frame headers, message
/// bodies and nested payloads are all read through it.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// Read `data` from its start.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, at: 0 }
    }

    /// The next `n` bytes. `n` may come from an untrusted length prefix:
    /// a value past the end is [`FrameError::Truncated`], never an
    /// overflow.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.data.len() - self.at < n {
            return Err(FrameError::Truncated {
                need: self.at.saturating_add(n),
                got: self.data.len(),
            });
        }
        let s = &self.data[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        Ok(self.take(N)?.try_into().unwrap())
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A little-endian `f64`, bit-exact (NaN payloads included).
    pub fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Everything not yet read.
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.data[self.at..];
        self.at = self.data.len();
        s
    }

    /// Whether every byte was read.
    pub fn is_empty(&self) -> bool {
        self.at == self.data.len()
    }

    /// Succeed only if every byte was read.
    pub fn done(&self) -> Result<(), FrameError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(FrameError::Malformed("trailing payload bytes"))
        }
    }
}
