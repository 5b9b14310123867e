//! The `NSJL` append-oriented record log with torn-tail recovery.
//!
//! A journal that rewrites itself whole on every watermark update
//! would turn each delivered unit into a full-file write; this log
//! appends one small CRC-framed record instead, and pushes all the
//! crash complexity into recovery:
//!
//! * file = `NSJL` magic + version, then zero or more frames;
//! * frame = `len: u32 | payload | crc32(len ‖ payload)`;
//! * recovery scans front to back. A **torn tail** — the file ends
//!   mid-frame, which is exactly what a power cut does to an in-flight
//!   append — is truncated back to the last complete valid frame,
//!   compacted durably, and reported. Everything else (bad magic, bad
//!   version, a CRC mismatch on a *complete* frame, an oversized
//!   declared length) is bit rot or forgery, not a crash artifact, and
//!   fails closed with a typed [`StoreError`]: the caller cold-starts
//!   rather than trusting a poisoned log.
//!
//! An append never reads the file. The log learns once whether its
//! file starts with the header — from the first append's probe, or
//! from [`JournalLog::recover`], [`JournalLog::rewrite`] or
//! [`JournalLog::remove`] — and remembers it, so journalling a session
//! costs O(bytes), not O(bytes²). The log must be the only writer of
//! its file; clones share what it remembers.

use std::ops::Range;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use nonstrict_wire::crc32;

use crate::vfs::Vfs;
use crate::StoreError;

/// Log magic: identifies the file and its byte order.
pub const LOG_MAGIC: [u8; 4] = *b"NSJL";

/// Current log format version.
pub const LOG_VERSION: u16 = 1;

/// Sanity cap on one record's declared length: a rotted or forged
/// length field must not make recovery allocate gigabytes.
pub const MAX_RECORD_BYTES: u64 = 1 << 24;

const HEADER_LEN: usize = 6;
/// Bytes of a frame's length prefix, before its record.
pub(crate) const LEN_PREFIX: usize = 4;
const FRAME_OVERHEAD: usize = LEN_PREFIX + 4; // len u32 + crc u32

/// What recovery found: the log's bytes, read once, and where each
/// record sits in them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Recovered {
    /// The log file's bytes up to the end of its last valid frame
    /// (empty for an absent log).
    pub bytes: Vec<u8>,
    /// Each complete, CRC-valid record's range in `bytes`, in append
    /// order.
    pub spans: Vec<Range<usize>>,
    /// Bytes of torn tail that were truncated away (zero on a clean
    /// log).
    pub torn_bytes: u64,
}

impl Recovered {
    /// Every surviving record's bytes, in append order.
    pub fn records(&self) -> impl DoubleEndedIterator<Item = &[u8]> + ExactSizeIterator + '_ {
        self.spans.iter().map(|span| &self.bytes[span.clone()])
    }
}

/// What a [`JournalLog`] knows about its file's header.
const HEADER_UNKNOWN: u8 = 0;
const HEADER_ABSENT: u8 = 1;
const HEADER_PRESENT: u8 = 2;

/// An append-oriented record log over one [`Vfs`] file.
#[derive(Clone)]
pub struct JournalLog {
    vfs: Arc<dyn Vfs>,
    name: String,
    /// `HEADER_*`: whether the file is known to hold the header.
    header: Arc<AtomicU8>,
}

impl JournalLog {
    /// A log stored at `name` inside `vfs`.
    #[must_use]
    pub fn new(vfs: Arc<dyn Vfs>, name: &str) -> JournalLog {
        JournalLog {
            vfs,
            name: name.to_owned(),
            header: Arc::new(AtomicU8::new(HEADER_UNKNOWN)),
        }
    }

    fn set_header(&self, state: u8) {
        self.header.store(state, Ordering::Relaxed);
    }

    /// Appends one record, creating the file (with its header) on
    /// first use. The record is framed with its own CRC so a torn
    /// append is detectable and truncatable. Only the first append of
    /// a log that has not yet seen its file reads it.
    ///
    /// # Errors
    ///
    /// [`StoreError::Oversized`] for a record beyond
    /// [`MAX_RECORD_BYTES`]; otherwise whatever the VFS reports.
    pub fn append_record(&self, payload: &[u8]) -> Result<(), StoreError> {
        self.append_parts(&mut Vec::new(), &[payload])
    }

    /// [`append_record`](JournalLog::append_record) of the record
    /// `parts` concatenated, framed in `frame`: a buffer the caller
    /// keeps across appends, so a steady stream of appends allocates
    /// nothing and copies each byte once before its one VFS append.
    ///
    /// # Errors
    ///
    /// As for [`append_record`](JournalLog::append_record).
    pub fn append_parts(&self, frame: &mut Vec<u8>, parts: &[&[u8]]) -> Result<(), StoreError> {
        check_len(parts.iter().map(|p| p.len()).sum())?;
        let mut state = self.header.load(Ordering::Relaxed);
        if state == HEADER_UNKNOWN {
            state = match self.vfs.read(&self.name) {
                Ok(_) => HEADER_PRESENT,
                Err(StoreError::NotFound { .. }) => HEADER_ABSENT,
                Err(e) => return Err(e),
            };
        }
        // Until both appends land, a failure leaves the file in a
        // state only a recovery can tell.
        self.set_header(HEADER_UNKNOWN);
        if state == HEADER_ABSENT {
            self.vfs.append(&self.name, &header())?;
        }
        frame.clear();
        push_frame(frame, parts);
        self.vfs.append(&self.name, frame)?;
        self.set_header(HEADER_PRESENT);
        Ok(())
    }

    /// Deletes the log's file; the next append starts a fresh log.
    ///
    /// # Errors
    ///
    /// Whatever the VFS reports.
    pub fn remove(&self) -> Result<(), StoreError> {
        self.set_header(HEADER_UNKNOWN);
        self.vfs.remove(&self.name)?;
        self.set_header(HEADER_ABSENT);
        Ok(())
    }

    /// Scans the log in one walk over its bytes, truncates a torn
    /// tail back to the last valid frame (rewriting the file durably
    /// when it does), and returns the bytes with every surviving
    /// record's span.
    ///
    /// The per-frame check is a parameter: `frame_crc(at, frame)`
    /// returns the CRC32 of `frame` — a complete frame's length prefix
    /// and record, starting at byte `at` of [`Recovered::bytes`] — and
    /// the walk compares it with the frame's trailer. It sees every
    /// complete frame once, in log order. A plain caller passes
    /// `|_, frame| crc32(frame)`; a caller that needs its own sums over
    /// a record computes them in the same pass. When a check fails,
    /// recovery fails, voiding everything the callback saw.
    ///
    /// An absent file is an empty log. A file too short to hold the
    /// header is all torn tail: it is removed and reported, because a
    /// crash during the very first append can legitimately leave just
    /// a header prefix. Every *non-prefix* defect fails closed.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadMagic`] / [`StoreError::BadVersion`] for a file
    /// that was never this log; [`StoreError::CrcMismatch`] for a
    /// complete frame whose trailer disagrees (bit rot — nothing after
    /// it can be ordered, so nothing is trusted);
    /// [`StoreError::Oversized`] for a hostile declared length.
    pub fn recover(
        &self,
        mut frame_crc: impl FnMut(usize, &[u8]) -> u32,
    ) -> Result<Recovered, StoreError> {
        self.set_header(HEADER_UNKNOWN);
        let mut bytes = match self.vfs.read(&self.name) {
            Ok(b) => b,
            Err(StoreError::NotFound { .. }) => {
                self.set_header(HEADER_ABSENT);
                return Ok(Recovered::default());
            }
            Err(e) => return Err(e),
        };
        if bytes.len() < HEADER_LEN {
            // A crash mid-first-append can cut the header itself: all
            // torn tail, nothing recoverable.
            self.remove()?;
            return Ok(Recovered {
                torn_bytes: bytes.len() as u64,
                ..Recovered::default()
            });
        }
        if bytes[..4] != LOG_MAGIC {
            return Err(StoreError::BadMagic { what: "NSJL log" });
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().expect("len"));
        if version != LOG_VERSION {
            return Err(StoreError::BadVersion {
                what: "NSJL log",
                version,
            });
        }
        let mut spans = Vec::new();
        let mut pos = HEADER_LEN;
        while pos < bytes.len() {
            let remaining = bytes.len() - pos;
            if remaining < LEN_PREFIX {
                break; // torn: not even a length prefix
            }
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("len")) as usize;
            if len as u64 > MAX_RECORD_BYTES {
                return Err(StoreError::Oversized {
                    what: "log record",
                    declared: len as u64,
                    cap: MAX_RECORD_BYTES,
                });
            }
            if remaining < len + FRAME_OVERHEAD {
                break; // torn: the frame never finished landing
            }
            let frame_end = pos + LEN_PREFIX + len;
            let stored =
                u32::from_le_bytes(bytes[frame_end..frame_end + 4].try_into().expect("len"));
            if frame_crc(pos, &bytes[pos..frame_end]) != stored {
                // The frame is fully present but wrong: that is rot or
                // forgery, not a torn write. Fail closed — append order
                // beyond this point cannot be trusted.
                return Err(StoreError::CrcMismatch { what: "NSJL log" });
            }
            spans.push(pos + LEN_PREFIX..frame_end);
            pos = frame_end + 4;
        }
        let torn_bytes = (bytes.len() - pos) as u64;
        if torn_bytes > 0 {
            // Compact the torn tail away so the next append starts at a
            // frame boundary.
            bytes.truncate(pos);
            self.vfs.write_atomic(&self.name, &bytes)?;
        }
        self.set_header(HEADER_PRESENT);
        Ok(Recovered {
            bytes,
            spans,
            torn_bytes,
        })
    }

    /// Replaces the whole log with `records` in one atomic write —
    /// compaction for a caller that has already folded history.
    ///
    /// # Errors
    ///
    /// [`StoreError::Oversized`] for any over-cap record; otherwise
    /// whatever the VFS reports.
    pub fn rewrite(&self, records: &[Vec<u8>]) -> Result<(), StoreError> {
        let mut buf = header();
        for payload in records {
            check_len(payload.len())?;
            push_frame(&mut buf, &[payload]);
        }
        self.set_header(HEADER_UNKNOWN);
        self.vfs.write_atomic(&self.name, &buf)?;
        self.set_header(HEADER_PRESENT);
        Ok(())
    }
}

fn header() -> Vec<u8> {
    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(&LOG_MAGIC);
    header.extend_from_slice(&LOG_VERSION.to_le_bytes());
    header
}

fn check_len(len: usize) -> Result<(), StoreError> {
    if len as u64 > MAX_RECORD_BYTES {
        return Err(StoreError::Oversized {
            what: "log record",
            declared: len as u64,
            cap: MAX_RECORD_BYTES,
        });
    }
    Ok(())
}

/// Appends `len ‖ payload ‖ crc32(len ‖ payload)` to `buf`, where
/// `payload` is `parts` concatenated.
fn push_frame(buf: &mut Vec<u8>, parts: &[&[u8]]) {
    let at = buf.len();
    let len: usize = parts.iter().map(|p| p.len()).sum();
    buf.reserve(len + FRAME_OVERHEAD);
    buf.extend_from_slice(&u32::try_from(len).expect("cap fits u32").to_le_bytes());
    for part in parts {
        buf.extend_from_slice(part);
    }
    let crc = crc32(&buf[at..]);
    buf.extend_from_slice(&crc.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultFs, FaultKnobs};

    fn mem() -> Arc<FaultFs> {
        Arc::new(FaultFs::new(FaultKnobs::quiet(1)))
    }

    /// Recovers `log` with the plain frame check.
    fn plain(log: &JournalLog) -> Result<Recovered, StoreError> {
        log.recover(|_, frame| crc32(frame))
    }

    /// The records `recovered` holds, copied out.
    fn records(recovered: &Recovered) -> Vec<Vec<u8>> {
        recovered.records().map(<[u8]>::to_vec).collect()
    }

    /// An honest store that counts `read` calls.
    struct ReadCounting {
        inner: FaultFs,
        reads: std::sync::atomic::AtomicU64,
    }

    impl ReadCounting {
        fn reads(&self) -> u64 {
            self.reads.load(Ordering::Relaxed)
        }
    }

    impl Vfs for ReadCounting {
        fn read(&self, name: &str) -> Result<Vec<u8>, StoreError> {
            self.reads.fetch_add(1, Ordering::Relaxed);
            self.inner.read(name)
        }
        fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
            self.inner.write_atomic(name, bytes)
        }
        fn append(&self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
            self.inner.append(name, bytes)
        }
        fn remove(&self, name: &str) -> Result<(), StoreError> {
            self.inner.remove(name)
        }
        fn list(&self) -> Result<Vec<String>, StoreError> {
            self.inner.list()
        }
    }

    fn counting() -> Arc<ReadCounting> {
        Arc::new(ReadCounting {
            inner: FaultFs::new(FaultKnobs::quiet(1)),
            reads: Default::default(),
        })
    }

    #[test]
    fn appends_after_the_first_never_read_the_file() {
        let fs = counting();
        let log = JournalLog::new(fs.clone(), "j.nsjl");
        log.append_record(b"first").unwrap();
        assert_eq!(fs.reads(), 1, "the first append probes for the header");
        for i in 0..64u8 {
            log.append_record(&[i]).unwrap();
        }
        assert_eq!(fs.reads(), 1, "later appends must not read the file");
        let got = plain(&log).unwrap();
        assert_eq!(records(&got).len(), 65);
        assert_eq!(records(&got)[0], b"first".to_vec());
        // A log that has recovered, rewritten or removed its file knows
        // the header state without a probe.
        for step in 0..3 {
            match step {
                0 => drop(plain(&log).unwrap()),
                1 => log.rewrite(&[b"kept".to_vec()]).unwrap(),
                _ => log.remove().unwrap(),
            }
            let before = fs.reads();
            log.append_record(b"next").unwrap();
            assert_eq!(fs.reads(), before, "step {step}");
        }
    }

    #[test]
    fn append_after_remove_or_rewrite_writes_a_valid_header() {
        let fs = counting();
        let log = JournalLog::new(fs.clone(), "j.nsjl");
        log.append_record(b"old").unwrap();
        // A clone shares what the log knows about its file.
        log.clone().remove().unwrap();
        log.append_record(b"fresh").unwrap();
        assert_eq!(records(&plain(&log).unwrap()), vec![b"fresh".to_vec()]);
        log.rewrite(&[b"base".to_vec()]).unwrap();
        log.append_record(b"tail").unwrap();
        assert_eq!(
            records(&plain(&log).unwrap()),
            vec![b"base".to_vec(), b"tail".to_vec()]
        );
        log.rewrite(&[]).unwrap();
        log.append_record(b"only").unwrap();
        let got = plain(&JournalLog::new(fs.clone(), "j.nsjl")).unwrap();
        assert_eq!(records(&got), vec![b"only".to_vec()]);
    }

    #[test]
    fn append_and_recover_round_trip_in_order() {
        let fs = mem();
        let log = JournalLog::new(fs.clone(), "j.nsjl");
        assert_eq!(plain(&log).unwrap(), Recovered::default());
        log.append_record(b"one").unwrap();
        log.append_record(b"").unwrap();
        log.append_record(b"three").unwrap();
        let got = plain(&log).unwrap();
        assert_eq!(got.torn_bytes, 0);
        assert_eq!(
            records(&got),
            vec![b"one".to_vec(), Vec::new(), b"three".to_vec()]
        );
    }

    #[test]
    fn every_truncation_recovers_a_clean_prefix_or_fails_closed() {
        let fs = mem();
        let log = JournalLog::new(fs.clone(), "j.nsjl");
        log.append_record(b"alpha").unwrap();
        log.append_record(b"beta").unwrap();
        log.append_record(b"gamma").unwrap();
        let full = fs.read("j.nsjl").unwrap();
        let whole = records(&plain(&log).unwrap());
        assert_eq!(whole.len(), 3);
        for cut in 0..full.len() {
            let fs2 = mem();
            fs2.set_durable("j.nsjl", full[..cut].to_vec());
            let log2 = JournalLog::new(fs2.clone(), "j.nsjl");
            let got = plain(&log2).expect("prefix truncation is always a torn tail");
            // The recovered records are a prefix of the full set.
            assert!(records(&got).len() <= whole.len());
            assert_eq!(
                records(&got)[..],
                whole[..records(&got).len()],
                "cut at {cut}"
            );
            assert!(
                got.torn_bytes > 0 || records(&got).len() < whole.len(),
                "cut at {cut} lost bytes without reporting a torn tail"
            );
            // Recovery compacted: a second recovery is clean and equal.
            let again = plain(&log2).unwrap();
            assert_eq!(again.torn_bytes, 0, "cut at {cut}");
            assert_eq!(records(&again), records(&got), "cut at {cut}");
        }
    }

    #[test]
    fn mid_file_rot_fails_closed_with_typed_errors() {
        let fs = mem();
        let log = JournalLog::new(fs.clone(), "j.nsjl");
        log.append_record(b"alpha").unwrap();
        log.append_record(b"beta").unwrap();
        let full = fs.read("j.nsjl").unwrap();
        // Flip one payload bit of the *first* record: a complete frame
        // with a wrong CRC is rot, not a torn tail.
        let mut rotted = full.clone();
        rotted[HEADER_LEN + 5] ^= 0x10;
        fs.set_durable("j.nsjl", rotted);
        assert_eq!(
            plain(&log),
            Err(StoreError::CrcMismatch { what: "NSJL log" })
        );
        // Wrong magic.
        let mut bad = full.clone();
        bad[0] ^= 0xff;
        fs.set_durable("j.nsjl", bad);
        assert_eq!(plain(&log), Err(StoreError::BadMagic { what: "NSJL log" }));
        // Future version.
        let mut newer = full.clone();
        newer[4] = 0xee;
        fs.set_durable("j.nsjl", newer);
        assert!(matches!(
            plain(&log),
            Err(StoreError::BadVersion { version: 0xee, .. })
        ));
        // Forged huge length, re-sealed CRC: rejected before allocation.
        let mut forged = full[..HEADER_LEN].to_vec();
        let mut frame = u32::MAX.to_le_bytes().to_vec();
        let crc = crc32(&frame);
        frame.extend_from_slice(&crc.to_le_bytes());
        forged.extend_from_slice(&frame);
        fs.set_durable("j.nsjl", forged);
        assert!(matches!(
            plain(&log),
            Err(StoreError::Oversized {
                what: "log record",
                ..
            })
        ));
    }

    #[test]
    fn killed_append_is_recovered_as_at_most_one_lost_record() {
        for seed in 0..48 {
            let fs = Arc::new(FaultFs::new(FaultKnobs::quiet(seed)));
            let log = JournalLog::new(fs.clone(), "j.nsjl");
            log.append_record(b"stable-record").unwrap();
            fs.set_kill_at(1);
            log.append_record(b"doomed-record").unwrap_err();
            fs.crash();
            let got = plain(&log).expect("a killed append must stay recoverable");
            assert!(
                !records(&got).is_empty(),
                "seed {seed}: the fsynced record survives"
            );
            assert_eq!(records(&got)[0], b"stable-record".to_vec());
            assert!(records(&got).len() <= 2, "seed {seed}");
            if records(&got).len() == 2 {
                assert_eq!(records(&got)[1], b"doomed-record".to_vec());
            }
        }
    }

    #[test]
    fn rewrite_compacts_to_an_equivalent_log() {
        let fs = mem();
        let log = JournalLog::new(fs.clone(), "j.nsjl");
        for i in 0..10u8 {
            log.append_record(&[i]).unwrap();
        }
        log.rewrite(&[vec![42], vec![43]]).unwrap();
        let got = plain(&log).unwrap();
        assert_eq!(records(&got), vec![vec![42], vec![43]]);
        assert_eq!(got.torn_bytes, 0);
    }
}
