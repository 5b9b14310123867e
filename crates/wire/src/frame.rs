//! CRC-framed protocol messages.
//!
//! Every message on the wire is one frame:
//!
//! ```text
//! u8  kind | u32 len (LE, payload bytes) | payload | u32 crc32 (LE)
//! ```
//!
//! The trailing CRC covers the kind byte, the length field, and the
//! payload, so a torn or bit-flipped frame is detected before any field
//! is believed. Decoding is **fail-closed and allocation-safe**: a
//! declared length above [`MAX_FRAME_PAYLOAD`] — or an inner count that
//! could not possibly fit in the bytes actually present — is rejected
//! with a typed [`FrameError::Oversized`] *before* any buffer is
//! allocated, so a hostile peer cannot make the receiver reserve
//! gigabytes with a five-byte header.
//!
//! The frame vocabulary maps one-to-one onto the simulator's protocol
//! events: [`Frame::Unit`] is the simulated transfer unit (same CRC
//! arithmetic, real payload bytes), [`Frame::Hello`]'s resume entries
//! are the session checkpoint's per-class delivered watermarks, and
//! [`Frame::Welcome`] carries the NSUM manifest frame opaquely so the
//! client can pin it exactly as the Byzantine layer does in simulation.

use std::io::{self, Read};

use crate::caps;
use crate::crc::crc32;

/// Protocol version carried in every [`Frame::Hello`].
///
/// Version 2 added the restructure **generation** to [`Frame::Welcome`]
/// so a mirror-fleet client can order two manifests it has seen.
/// Manifest epochs are layout *fingerprints* — good for equality,
/// useless for ordering — so without the generation a client failing
/// over
/// mid-rollover could not tell "this mirror restructured ahead of me"
/// (follow it) from "this mirror is serving yesterday's layout" (back
/// off) from "this mirror is lying under my pinned generation"
/// (quarantine it).
pub const PROTOCOL_VERSION: u16 = 2;

/// Hello-payload magic: identifies the protocol and its byte order.
pub const HELLO_MAGIC: [u8; 4] = *b"NSWP";

/// Hard cap on a frame's declared payload length. The largest honest
/// frame is a class prelude unit or a manifest-bearing Welcome — tens
/// of kilobytes; one mebibyte leaves two orders of magnitude of slack
/// while keeping a forged length harmless.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 20;

/// Cap on the benchmark-name field in a Hello.
pub const MAX_NAME_BYTES: usize = 64;

/// Bytes of frame overhead around a payload: kind + length prefix +
/// CRC trailer.
pub const FRAME_OVERHEAD: usize = 1 + 4 + 4;

/// Why a frame could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer or stream ended before the declared frame did.
    Truncated,
    /// A declared length exceeds its sanity cap (or the bytes actually
    /// present). Rejected before allocating — this is the DoS guard.
    Oversized {
        /// Which field declared the length.
        what: &'static str,
        /// The declared value.
        declared: u64,
        /// The cap it violated.
        cap: u64,
    },
    /// The CRC trailer does not match the frame content.
    CrcMismatch,
    /// The kind byte is not a known frame kind.
    UnknownKind(u8),
    /// A Hello carried the wrong magic or an unsupported version.
    BadVersion(u16),
    /// Structurally impossible content inside a well-framed payload.
    Malformed(&'static str),
    /// The underlying stream failed.
    Io(io::ErrorKind),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::Oversized {
                what,
                declared,
                cap,
            } => write!(f, "oversized {what}: declared {declared}, cap {cap}"),
            FrameError::CrcMismatch => write!(f, "frame CRC mismatch"),
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
            FrameError::Io(kind) => write!(f, "stream error: {kind:?}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e.kind())
        }
    }
}

/// Checks a declared element count against both its sanity cap and the
/// bytes still available to carry it (`min_bytes_each` per element),
/// before any allocation happens. Shared with the session checkpoint
/// decoder in `nonstrict-core`.
///
/// # Errors
///
/// [`FrameError::Oversized`] when the count exceeds `cap`;
/// [`FrameError::Truncated`] when the remaining bytes cannot possibly
/// hold `declared` elements.
pub fn check_count(
    what: &'static str,
    declared: u64,
    cap: usize,
    remaining: usize,
    min_bytes_each: usize,
) -> Result<usize, FrameError> {
    if declared > cap as u64 {
        return Err(FrameError::Oversized {
            what,
            declared,
            cap: cap as u64,
        });
    }
    let declared = declared as usize;
    if declared
        .checked_mul(min_bytes_each)
        .is_none_or(|need| need > remaining)
    {
        return Err(FrameError::Truncated);
    }
    Ok(declared)
}

/// One per-class resume watermark the client offers in its Hello: the
/// session checkpoint's `(epoch, delivered)` pair for `class`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeEntry {
    /// Class index.
    pub class: u32,
    /// Layout epoch the watermark was recorded under.
    pub epoch: u32,
    /// Delivered-unit watermark (units `0..delivered` are held).
    pub delivered: u32,
}

/// One per-class advert in the server's Welcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassAdvert {
    /// Current layout epoch of the class.
    pub epoch: u32,
    /// Total units the class streams.
    pub units: u32,
    /// First unit the server will send this session (nonzero only when
    /// a resume watermark survived negotiation).
    pub start: u32,
}

/// Why the server evicted a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictReason {
    /// The client consumed too slowly (slow-loris guard).
    SlowConsumer,
    /// The server is draining for shutdown; reconnect elsewhere/later.
    Drain,
    /// The Hello was incompatible (unknown benchmark, bad version).
    Incompatible,
}

impl EvictReason {
    fn code(self) -> u8 {
        match self {
            EvictReason::SlowConsumer => 0,
            EvictReason::Drain => 1,
            EvictReason::Incompatible => 2,
        }
    }

    fn from_code(code: u8) -> Result<EvictReason, FrameError> {
        match code {
            0 => Ok(EvictReason::SlowConsumer),
            1 => Ok(EvictReason::Drain),
            2 => Ok(EvictReason::Incompatible),
            _ => Err(FrameError::Malformed("unknown evict reason")),
        }
    }
}

/// A protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client → server: open (or resume) a session.
    Hello {
        /// Protocol version ([`PROTOCOL_VERSION`]).
        version: u16,
        /// Benchmark name the client wants streamed.
        benchmark: String,
        /// Ordering code (see [`crate::config::ORDERINGS`]).
        ordering: u8,
        /// Per-class resume watermarks from the client's journal.
        resume: Vec<ResumeEntry>,
    },
    /// Server → client: session accepted; layout + resume verdicts.
    Welcome {
        /// Restructure generation: a monotonic counter the origin bumps
        /// on every live re-restructure. Unlike the manifest epoch (a
        /// hash, unordered), generations let a client *order* two
        /// layouts: newer generation → legitimate rollover, follow it;
        /// older → stale mirror, back off; same generation but a
        /// different manifest → equivocation, quarantine the mirror.
        generation: u32,
        /// Combined manifest epoch of the served layout.
        manifest_epoch: u64,
        /// The NSUM unit-manifest frame, opaque to this layer; the
        /// client pins its digest exactly as the simulator's Byzantine
        /// layer does.
        manifest: Vec<u8>,
        /// Per-class epochs, unit counts, and negotiated start units.
        classes: Vec<ClassAdvert>,
    },
    /// Server → client: admission rejected; typed retry-after.
    Retry {
        /// Suggested backoff before reconnecting, in milliseconds.
        after_ms: u32,
    },
    /// Server → client: one transfer unit's bytes.
    Unit {
        /// Class index.
        class: u32,
        /// Unit index within the class (0 = prelude).
        unit: u32,
        /// The unit's bytes.
        payload: Vec<u8>,
    },
    /// Server → client: this connection is over, but the session is
    /// resumable from the client's watermarks.
    Evict {
        /// Why.
        reason: EvictReason,
        /// Suggested backoff before reconnecting, in milliseconds.
        resume_after_ms: u32,
    },
    /// Server → client: every class streamed to completion.
    Bye {
        /// Classes completed this connection.
        classes: u32,
        /// Payload bytes sent this connection.
        bytes: u64,
    },
}

const KIND_HELLO: u8 = 0x01;
const KIND_WELCOME: u8 = 0x02;
const KIND_RETRY: u8 = 0x03;
pub(crate) const KIND_UNIT: u8 = 0x04;
const KIND_EVICT: u8 = 0x05;
const KIND_BYE: u8 = 0x06;

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len")))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len")))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len")))
    }
}

impl Frame {
    /// Encodes the frame: kind, length prefix, payload, CRC trailer.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Frame::Hello {
                version,
                benchmark,
                ordering,
                resume,
            } => seal(&mut out, KIND_HELLO, |p| {
                p.extend_from_slice(&HELLO_MAGIC);
                p.extend_from_slice(&version.to_le_bytes());
                let name = benchmark.as_bytes();
                assert!(name.len() <= MAX_NAME_BYTES, "benchmark name fits");
                p.push(u8::try_from(name.len()).expect("name fits u8"));
                p.extend_from_slice(name);
                p.push(*ordering);
                p.extend_from_slice(
                    &u32::try_from(resume.len())
                        .expect("resume fits u32")
                        .to_le_bytes(),
                );
                for r in resume {
                    p.extend_from_slice(&r.class.to_le_bytes());
                    p.extend_from_slice(&r.epoch.to_le_bytes());
                    p.extend_from_slice(&r.delivered.to_le_bytes());
                }
            }),
            Frame::Welcome {
                generation,
                manifest_epoch,
                manifest,
                classes,
            } => seal(&mut out, KIND_WELCOME, |p| {
                p.extend_from_slice(&generation.to_le_bytes());
                p.extend_from_slice(&manifest_epoch.to_le_bytes());
                p.extend_from_slice(
                    &u32::try_from(manifest.len())
                        .expect("manifest fits u32")
                        .to_le_bytes(),
                );
                p.extend_from_slice(manifest);
                p.extend_from_slice(
                    &u32::try_from(classes.len())
                        .expect("classes fit u32")
                        .to_le_bytes(),
                );
                for c in classes {
                    p.extend_from_slice(&c.epoch.to_le_bytes());
                    p.extend_from_slice(&c.units.to_le_bytes());
                    p.extend_from_slice(&c.start.to_le_bytes());
                }
            }),
            Frame::Retry { after_ms } => seal(&mut out, KIND_RETRY, |p| {
                p.extend_from_slice(&after_ms.to_le_bytes());
            }),
            Frame::Unit {
                class,
                unit,
                payload,
            } => encode_unit(&mut out, *class, *unit, payload),
            Frame::Evict {
                reason,
                resume_after_ms,
            } => seal(&mut out, KIND_EVICT, |p| {
                p.push(reason.code());
                p.extend_from_slice(&resume_after_ms.to_le_bytes());
            }),
            Frame::Bye { classes, bytes } => seal(&mut out, KIND_BYE, |p| {
                p.extend_from_slice(&classes.to_le_bytes());
                p.extend_from_slice(&bytes.to_le_bytes());
            }),
        }
        out
    }

    /// Decodes one frame from the front of `buf`, returning the frame
    /// and the bytes it consumed.
    ///
    /// # Errors
    ///
    /// [`FrameError::Truncated`] when `buf` holds less than one whole
    /// frame (callers streaming from a socket read more and retry);
    /// every other variant is a fail-closed protocol error.
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), FrameError> {
        if buf.len() < 5 {
            return Err(FrameError::Truncated);
        }
        let kind = buf[0];
        let len = u32::from_le_bytes(buf[1..5].try_into().expect("len")) as usize;
        if len > MAX_FRAME_PAYLOAD {
            return Err(FrameError::Oversized {
                what: "frame payload",
                declared: len as u64,
                cap: MAX_FRAME_PAYLOAD as u64,
            });
        }
        let total = FRAME_OVERHEAD + len;
        if buf.len() < total {
            return Err(FrameError::Truncated);
        }
        let stored = u32::from_le_bytes(buf[total - 4..total].try_into().expect("len"));
        if crc32(&buf[..total - 4]) != stored {
            return Err(FrameError::CrcMismatch);
        }
        let frame = Frame::decode_payload(kind, &buf[5..5 + len])?;
        Ok((frame, total))
    }

    fn decode_payload(kind: u8, payload: &[u8]) -> Result<Frame, FrameError> {
        let mut c = Cursor {
            buf: payload,
            pos: 0,
        };
        let frame = match kind {
            KIND_HELLO => {
                if c.take(4)? != HELLO_MAGIC {
                    return Err(FrameError::Malformed("hello magic mismatch"));
                }
                let version = c.u16()?;
                if version != PROTOCOL_VERSION {
                    return Err(FrameError::BadVersion(version));
                }
                let name_len = c.u8()? as usize;
                if name_len > MAX_NAME_BYTES {
                    return Err(FrameError::Oversized {
                        what: "benchmark name",
                        declared: name_len as u64,
                        cap: MAX_NAME_BYTES as u64,
                    });
                }
                let benchmark = std::str::from_utf8(c.take(name_len)?)
                    .map_err(|_| FrameError::Malformed("benchmark name not utf-8"))?
                    .to_owned();
                let ordering = c.u8()?;
                let n = check_count(
                    "resume entries",
                    c.u32()?.into(),
                    caps::MAX_CLASSES,
                    c.remaining(),
                    12,
                )?;
                let mut resume = Vec::with_capacity(n);
                for _ in 0..n {
                    resume.push(ResumeEntry {
                        class: c.u32()?,
                        epoch: c.u32()?,
                        delivered: c.u32()?,
                    });
                }
                Frame::Hello {
                    version,
                    benchmark,
                    ordering,
                    resume,
                }
            }
            KIND_WELCOME => {
                let generation = c.u32()?;
                let manifest_epoch = c.u64()?;
                let mlen = check_count(
                    "manifest bytes",
                    c.u32()?.into(),
                    MAX_FRAME_PAYLOAD,
                    c.remaining(),
                    1,
                )?;
                let manifest = c.take(mlen)?.to_vec();
                let n = check_count(
                    "class adverts",
                    c.u32()?.into(),
                    caps::MAX_CLASSES,
                    c.remaining(),
                    12,
                )?;
                let mut classes = Vec::with_capacity(n);
                for _ in 0..n {
                    classes.push(ClassAdvert {
                        epoch: c.u32()?,
                        units: c.u32()?,
                        start: c.u32()?,
                    });
                }
                Frame::Welcome {
                    generation,
                    manifest_epoch,
                    manifest,
                    classes,
                }
            }
            KIND_RETRY => Frame::Retry { after_ms: c.u32()? },
            KIND_UNIT => {
                let class = c.u32()?;
                let unit = c.u32()?;
                let payload = c.take(c.remaining())?.to_vec();
                Frame::Unit {
                    class,
                    unit,
                    payload,
                }
            }
            KIND_EVICT => Frame::Evict {
                reason: EvictReason::from_code(c.u8()?)?,
                resume_after_ms: c.u32()?,
            },
            KIND_BYE => Frame::Bye {
                classes: c.u32()?,
                bytes: c.u64()?,
            },
            other => return Err(FrameError::UnknownKind(other)),
        };
        if c.remaining() != 0 {
            return Err(FrameError::Malformed("trailing bytes after payload"));
        }
        Ok(frame)
    }
}

/// Writes one frame into `out`, replacing its contents: the kind byte,
/// the length prefix, the payload that `payload` appends, and the CRC
/// trailer.
fn seal(out: &mut Vec<u8>, kind: u8, payload: impl FnOnce(&mut Vec<u8>)) {
    out.clear();
    out.push(kind);
    out.extend_from_slice(&[0; 4]);
    payload(out);
    let len = out.len() - 5;
    debug_assert!(len <= MAX_FRAME_PAYLOAD, "honest frames fit");
    out[1..5].copy_from_slice(&u32::try_from(len).expect("payload fits u32").to_le_bytes());
    let crc = crc32(out);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Encodes a [`Frame::Unit`] from borrowed bytes into `out`, replacing
/// its contents. This is the one Unit layout: [`Frame::encode`] calls it
/// too, so a server that keeps one `out` per connection writes exactly
/// the bytes of `Frame::Unit { class, unit, payload }.encode()` without
/// copying the payload into a frame first.
pub fn encode_unit(out: &mut Vec<u8>, class: u32, unit: u32, payload: &[u8]) {
    out.clear();
    out.reserve(FRAME_OVERHEAD + 8 + payload.len());
    seal(out, KIND_UNIT, |p| {
        p.extend_from_slice(&class.to_le_bytes());
        p.extend_from_slice(&unit.to_le_bytes());
        p.extend_from_slice(payload);
    });
}

/// Reads exactly one frame from `r` (blocking, honoring the stream's
/// read timeout).
///
/// # Errors
///
/// [`FrameError::Io`]/[`FrameError::Truncated`] on stream failure or
/// EOF; any decode variant on a hostile or torn frame. The length cap
/// is enforced before the payload buffer is allocated.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let whole = read_raw_frame(r)?;
    let (frame, consumed) = Frame::decode(&whole)?;
    debug_assert_eq!(consumed, whole.len());
    Ok(frame)
}

/// Reads one frame from `r` as raw encoded bytes without validating its
/// CRC — the chaos proxy uses this to find frame boundaries while still
/// forwarding (possibly deliberately corrupted) bytes untouched.
///
/// # Errors
///
/// [`FrameError::Io`]/[`FrameError::Truncated`] on stream failure;
/// [`FrameError::Oversized`] (pre-allocation) on an absurd length.
pub fn read_raw_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; 5];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header[1..5].try_into().expect("len")) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(FrameError::Oversized {
            what: "frame payload",
            declared: len as u64,
            cap: MAX_FRAME_PAYLOAD as u64,
        });
    }
    let mut whole = vec![0u8; FRAME_OVERHEAD + len];
    whole[..5].copy_from_slice(&header);
    r.read_exact(&mut whole[5..])?;
    Ok(whole)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Frame> {
        vec![
            Frame::Hello {
                version: PROTOCOL_VERSION,
                benchmark: "hanoi".to_owned(),
                ordering: 0,
                resume: vec![
                    ResumeEntry {
                        class: 0,
                        epoch: 0xaaaa_bbbb,
                        delivered: 3,
                    },
                    ResumeEntry {
                        class: 1,
                        epoch: 0xcccc_dddd,
                        delivered: 0,
                    },
                ],
            },
            Frame::Welcome {
                generation: 3,
                manifest_epoch: 0x1234_5678_9abc_def0,
                manifest: vec![1, 2, 3, 4, 5],
                classes: vec![ClassAdvert {
                    epoch: 7,
                    units: 9,
                    start: 3,
                }],
            },
            Frame::Retry { after_ms: 250 },
            Frame::Unit {
                class: 2,
                unit: 5,
                payload: b"method bytes".to_vec(),
            },
            Frame::Evict {
                reason: EvictReason::SlowConsumer,
                resume_after_ms: 100,
            },
            Frame::Bye {
                classes: 3,
                bytes: 123_456,
            },
        ]
    }

    #[test]
    fn encode_decode_round_trips_every_kind() {
        for f in samples() {
            let bytes = f.encode();
            let (back, consumed) = Frame::decode(&bytes).unwrap();
            assert_eq!(back, f);
            assert_eq!(consumed, bytes.len());
            // io-path agrees with buffer-path
            let mut cursor = std::io::Cursor::new(bytes.clone());
            assert_eq!(read_frame(&mut cursor).unwrap(), f);
        }
    }

    #[test]
    fn every_prefix_truncation_fails_closed() {
        for f in samples() {
            let bytes = f.encode();
            for n in 0..bytes.len() {
                assert!(
                    Frame::decode(&bytes[..n]).is_err(),
                    "prefix of {n} bytes decoded"
                );
            }
        }
    }

    #[test]
    fn every_byte_flip_is_detected() {
        for f in samples() {
            let bytes = f.encode();
            for i in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[i] ^= 0x40;
                if let Ok((frame, _)) = Frame::decode(&bad) {
                    panic!("flip at {i} decoded as {frame:?}");
                }
            }
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut bytes = Frame::Retry { after_ms: 1 }.encode();
        // Forge an absurd length field; the CRC no longer matters
        // because the cap check must fire first.
        bytes[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::Oversized {
                what: "frame payload",
                ..
            })
        ));
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn inner_counts_are_capped_against_remaining_bytes() {
        // A Hello declaring 1M resume entries inside a tiny payload
        // must be rejected as truncated before any Vec is reserved.
        let f = Frame::Hello {
            version: PROTOCOL_VERSION,
            benchmark: "x".to_owned(),
            ordering: 0,
            resume: vec![],
        };
        let mut bytes = f.encode();
        let count_at = bytes.len() - 4 - 4; // the resume-count field
        bytes[count_at..count_at + 4].copy_from_slice(&1_000u32.to_le_bytes());
        let crc_at = bytes.len() - 4;
        let crc = crc32(&bytes[..crc_at]);
        bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(Frame::decode(&bytes), Err(FrameError::Truncated));
    }

    #[test]
    fn future_protocol_versions_fail_closed() {
        let f = Frame::Hello {
            version: PROTOCOL_VERSION,
            benchmark: "hanoi".to_owned(),
            ordering: 0,
            resume: vec![],
        };
        let mut bytes = f.encode();
        bytes[5 + 4] = 0xff; // low byte of the version field
        let crc_at = bytes.len() - 4;
        let crc = crc32(&bytes[..crc_at]);
        bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::BadVersion(_))
        ));
    }

    #[test]
    fn unknown_kind_fails_closed() {
        let mut bytes = Frame::Retry { after_ms: 1 }.encode();
        bytes[0] = 0x7f;
        let crc_at = bytes.len() - 4;
        let crc = crc32(&bytes[..crc_at]);
        bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(Frame::decode(&bytes), Err(FrameError::UnknownKind(0x7f)));
    }

    #[test]
    fn raw_frame_reader_finds_boundaries() {
        let a = Frame::Unit {
            class: 0,
            unit: 0,
            payload: vec![9; 10],
        }
        .encode();
        let b = Frame::Bye {
            classes: 1,
            bytes: 10,
        }
        .encode();
        let mut stream = Vec::new();
        stream.extend_from_slice(&a);
        stream.extend_from_slice(&b);
        let mut cursor = std::io::Cursor::new(stream);
        assert_eq!(read_raw_frame(&mut cursor).unwrap(), a);
        assert_eq!(read_raw_frame(&mut cursor).unwrap(), b);
        assert_eq!(read_raw_frame(&mut cursor), Err(FrameError::Truncated));
    }
}
