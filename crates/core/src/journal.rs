//! The simulator's crash checkpoint: one `NSJL` record.
//!
//! A mobile client that is killed or partitioned mid-transfer must not
//! restart from byte zero. The checkpoint is the client's crash-safe
//! record of everything the session has durably achieved: per-class
//! **delivered** unit watermarks (the resumable streams are strictly
//! in-order, so a watermark is exact), per-class **verified** state
//! (which prefixes already paid their verification charge, and the
//! incremental linker's arrival/resolution verdicts), the accounting
//! ledger so the resumed run's cycle books continue exactly, and the
//! demand-fetch log that lets the server reconstruct its transfer state
//! from the client's requests alone.
//!
//! It persists as one record of a [`JournalLog`], the same `NSJL` log
//! the wire client's [`nonstrict_store::DurableSession`] writes. The log
//! owns integrity: magic, version, a CRC per frame, and torn-tail
//! recovery. The record is a one-byte [`CHECKPOINT_TAG`] followed by
//! the payload; the tag names the payload layout the way
//! `DurableSession` tags its records. Resume is fail-closed: any
//! [`StoreError`] from recovery or decoding, or a log with no record
//! left, makes [`negotiate`] return [`Negotiation::FailClosed`] — the
//! client discards the cache and restarts strict. Consistency across
//! sessions is guarded by **epochs**: the checkpoint records a CRC
//! fingerprint of each class's restructured unit layout plus a
//! whole-manifest epoch. If the server restructured some class files
//! while the client was away, only those classes' epochs mismatch, and
//! negotiation returns a **targeted invalidation**: the stale classes
//! are refetched and re-verified from scratch while every other
//! watermark survives.

use std::sync::Arc;

use nonstrict_netsim::crc32;
use nonstrict_store::{FaultFs, FaultKnobs, JournalLog, StoreError};
use nonstrict_wire::caps;
use nonstrict_wire::frame::{check_count, FrameError};

use crate::metrics::CycleLedger;

/// Record tag of a checkpoint. A different payload layout gets a new
/// tag, so a reader meets a record it does not understand as
/// [`StoreError::Malformed`]. Disjoint from `DurableSession`'s record
/// tags (`0x01..=0x06`), so neither log's records read as the other's.
pub const CHECKPOINT_TAG: u8 = 0x10;

/// File name of the checkpoint log on an in-memory or simulated store.
pub const CHECKPOINT_LOG: &str = "sim.nsjl";

/// The format name every checkpoint [`StoreError`] carries.
const WHAT: &str = "NSJL checkpoint";

/// One demand-fetch the client issued: enough for the server to replay
/// its transfer-scheduling decisions on reconnect. Only the *first*
/// request per `(class, unit)` is recorded — later requests are pure
/// timeline lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchRecord {
    /// Class index.
    pub class: u32,
    /// Unit index within the class.
    pub unit: u32,
    /// Replica that served the unit (0 outside a replica set). On
    /// reconnect the client can tell each mirror which of its units it
    /// already holds.
    pub replica: u32,
    /// Base-timeline cycle of the request.
    pub at: u64,
}

/// Checkpointed state of one class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassCheckpoint {
    /// CRC fingerprint of the class's restructured unit layout when the
    /// units were fetched. A mismatch against the server's current
    /// manifest invalidates exactly this class.
    pub epoch: u32,
    /// Delivered-unit watermark: units `0..delivered` arrived and were
    /// accepted. Streams deliver strictly in order, so this is exact.
    pub delivered: u32,
    /// Whether the class's global data already paid its verification
    /// charge (steps 1–2).
    pub globals_verified: bool,
    /// Per-method (by method index) verification charges already paid
    /// (steps 3–4).
    pub methods_verified: Vec<bool>,
    /// Linker: whether the prelude arrived (structure verified, statics
    /// prepared).
    pub linker_globals: bool,
    /// Linker: per-method (by layout position) arrival verification.
    pub linker_verified: Vec<bool>,
    /// Linker: per-method (by layout position) first-execution
    /// resolution.
    pub linker_resolved: Vec<bool>,
    /// Whether degradation pressure demoted this class to strict
    /// demand-fetch.
    pub demoted: bool,
    /// Stall events charged against this class (degradation pressure).
    pub stall_events: u64,
}

impl ClassCheckpoint {
    /// A pristine checkpoint (nothing delivered or verified) for a
    /// class of `methods` methods under `epoch`.
    #[must_use]
    pub fn fresh(epoch: u32, methods: usize) -> ClassCheckpoint {
        ClassCheckpoint {
            epoch,
            delivered: 0,
            globals_verified: false,
            methods_verified: vec![false; methods],
            linker_globals: false,
            linker_verified: vec![false; methods],
            linker_resolved: vec![false; methods],
            demoted: false,
            stall_events: 0,
        }
    }

    /// Discards every cached verdict, as targeted invalidation must
    /// when the server's layout epoch moved. The degradation history
    /// (demotion, stall pressure) survives — it describes the link, not
    /// the bytes.
    pub fn invalidate(&mut self, new_epoch: u32) {
        self.epoch = new_epoch;
        self.delivered = 0;
        self.globals_verified = false;
        self.methods_verified.iter_mut().for_each(|v| *v = false);
        self.linker_verified.iter_mut().for_each(|v| *v = false);
        self.linker_resolved.iter_mut().for_each(|v| *v = false);
        self.linker_globals = false;
    }
}

/// The durable session checkpoint: everything a resumed session needs
/// to continue bit-for-bit from where the interrupted one died.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionJournal {
    /// Whole-manifest epoch: the combined fingerprint of every class
    /// epoch. Fast path — if it matches, no class can be stale.
    pub manifest_epoch: u64,
    /// Pinned unit-manifest digest: the CRC fingerprint of the
    /// content-addressed unit manifest the session pinned from the
    /// origin (zero when no byzantine protection is armed). A reconnect
    /// compares it against the origin's current manifest and re-pins on
    /// mismatch before trusting any further digest check.
    pub manifest_digest: u32,
    /// Index of the next trace event to replay.
    pub next_event: u64,
    /// Base-timeline clock at the checkpoint.
    pub clock: u64,
    /// The cycle buckets so far. `queue` is always 0 and is not
    /// recorded: server queueing is charged by the fleet layer after a
    /// session ends, never inside one.
    pub ledger: CycleLedger,
    /// Stall-event count so far.
    pub stalls: u32,
    /// Outages survived so far.
    pub outages: u32,
    /// Journal-backed resumes performed so far.
    pub resumes: u32,
    /// Classes refetched after epoch invalidation so far.
    pub refetched_classes: u32,
    /// Invocation latency, if the entry method already ran.
    pub invocation_latency: Option<u64>,
    /// Whether the whole session degraded to strict execution.
    pub session_degraded: bool,
    /// Per-class checkpoints.
    pub classes: Vec<ClassCheckpoint>,
    /// First-request log driving server-side transfer reconstruction.
    pub fetch_log: Vec<FetchRecord>,
}

/// The server's view of the session: current layout epochs to validate
/// a returning client's checkpoint against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionManifest {
    /// Combined fingerprint of every class epoch.
    pub epoch: u64,
    /// Per-class layout fingerprints.
    pub class_epochs: Vec<u32>,
    /// Per-class method counts (structural sanity for bitmaps).
    pub method_counts: Vec<usize>,
}

impl SessionManifest {
    /// Builds a manifest from per-class layout fingerprints and method
    /// counts, deriving the combined epoch.
    #[must_use]
    pub fn new(class_epochs: Vec<u32>, method_counts: Vec<usize>) -> SessionManifest {
        let mut buf = Vec::with_capacity(4 * class_epochs.len());
        for e in &class_epochs {
            buf.extend_from_slice(&e.to_le_bytes());
        }
        let epoch = (u64::from(crc32(&buf)) << 32) | class_epochs.len() as u64;
        SessionManifest {
            epoch,
            class_epochs,
            method_counts,
        }
    }
}

/// The reconnect negotiation's verdict on a stored checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Negotiation {
    /// The checkpoint is intact and structurally compatible: resume.
    /// `stale` lists the classes whose epochs moved while the client
    /// was away — their caches must be discarded and refetched; every
    /// other watermark survives.
    Resume {
        /// The decoded, trusted checkpoint.
        journal: Box<SessionJournal>,
        /// Classes needing targeted invalidation and refetch.
        stale: Vec<usize>,
    },
    /// The checkpoint is intact but describes a different application
    /// shape (class count or method counts changed): nothing in it can
    /// be mapped, start a fresh session.
    Fresh,
    /// The checkpoint cannot be trusted at all (torn or rotted log,
    /// undecodable record, no record left): fail closed — discard the
    /// cache and restart under strict execution.
    FailClosed(StoreError),
}

/// Loads the checkpoint from `log`, validates it against the server's
/// `manifest`, and decides how the session continues. This is the
/// paper-system's reconnect handshake: log integrity and record
/// structure first (fail-closed), then per-class epoch comparison
/// (targeted invalidation).
#[must_use]
pub fn negotiate(log: &JournalLog, manifest: &SessionManifest) -> Negotiation {
    let journal = match SessionJournal::load(log) {
        Ok(j) => j,
        Err(e) => return Negotiation::FailClosed(e),
    };
    if journal.classes.len() != manifest.class_epochs.len() {
        return Negotiation::Fresh;
    }
    for (c, cp) in journal.classes.iter().enumerate() {
        if cp.methods_verified.len() != manifest.method_counts[c] {
            return Negotiation::Fresh;
        }
    }
    let stale: Vec<usize> = journal
        .classes
        .iter()
        .enumerate()
        .filter(|(c, cp)| cp.epoch != manifest.class_epochs[*c])
        .map(|(c, _)| c)
        .collect();
    debug_assert!(
        journal.manifest_epoch == manifest.epoch || !stale.is_empty(),
        "a moved manifest epoch must implicate at least one class"
    );
    Negotiation::Resume {
        journal: Box::new(journal),
        stale,
    }
}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bits(&mut self, bits: &[bool]) {
        // Length-prefixed little-endian bitmap, packed 8 per byte.
        self.u32(u32::try_from(bits.len()).expect("bitmap fits u32"));
        for chunk in bits.chunks(8) {
            let mut b = 0u8;
            for (i, &bit) in chunk.iter().enumerate() {
                b |= u8::from(bit) << i;
            }
            self.buf.push(b);
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or(StoreError::Truncated { what: WHAT })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len")))
    }
    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len")))
    }
    fn flag(&mut self) -> Result<bool, StoreError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(StoreError::Malformed {
                what: WHAT,
                why: "flag byte must be 0 or 1",
            }),
        }
    }
    fn bits(&mut self) -> Result<Vec<bool>, StoreError> {
        let n = self.u32()? as usize;
        if n > caps::MAX_BITMAP_BITS {
            return Err(StoreError::Oversized {
                what: "bitmap",
                declared: n as u64,
                cap: caps::MAX_BITMAP_BITS as u64,
            });
        }
        // `take` bounds the read against the real buffer before the
        // output Vec is allocated.
        let bytes = self.take(n.div_ceil(8))?;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(bytes[i / 8] >> (i % 8) & 1 == 1);
        }
        Ok(out)
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    /// Reads a declared element count and vets it with [`check_count`]
    /// before anything is allocated for it.
    fn count(
        &mut self,
        what: &'static str,
        cap: usize,
        min_bytes_each: usize,
    ) -> Result<usize, StoreError> {
        let declared = self.u32()?.into();
        check_count(what, declared, cap, self.remaining(), min_bytes_each).map_err(|e| match e {
            FrameError::Oversized {
                what,
                declared,
                cap,
            } => StoreError::Oversized {
                what,
                declared,
                cap,
            },
            _ => StoreError::Truncated { what: WHAT },
        })
    }
}

impl SessionJournal {
    /// Serializes the checkpoint into one log record: the
    /// [`CHECKPOINT_TAG`], then the content.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer {
            buf: Vec::with_capacity(256),
        };
        w.u8(CHECKPOINT_TAG);
        w.u64(self.manifest_epoch);
        w.u32(self.manifest_digest);
        w.u64(self.next_event);
        w.u64(self.clock);
        let l = &self.ledger;
        w.u64(l.exec);
        w.u64(l.stall);
        w.u64(l.recovery);
        w.u64(l.verify);
        w.u64(l.resume);
        w.u64(l.hedge);
        w.u64(l.integrity);
        w.u32(self.stalls);
        w.u32(self.outages);
        w.u32(self.resumes);
        w.u32(self.refetched_classes);
        w.u64(self.invocation_latency.map_or(u64::MAX, |v| v));
        w.u8(u8::from(self.session_degraded));
        w.u32(u32::try_from(self.classes.len()).expect("class count fits u32"));
        for cp in &self.classes {
            w.u32(cp.epoch);
            w.u32(cp.delivered);
            w.u8(u8::from(cp.globals_verified));
            w.bits(&cp.methods_verified);
            w.u8(u8::from(cp.linker_globals));
            w.bits(&cp.linker_verified);
            w.bits(&cp.linker_resolved);
            w.u8(u8::from(cp.demoted));
            w.u64(cp.stall_events);
        }
        w.u32(u32::try_from(self.fetch_log.len()).expect("fetch log fits u32"));
        for f in &self.fetch_log {
            w.u32(f.class);
            w.u32(f.unit);
            w.u32(f.replica);
            w.u64(f.at);
        }
        w.buf
    }

    /// Deserializes one checkpoint record. Integrity is the log's job;
    /// this checks structure.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] when the record ends early,
    /// [`StoreError::Oversized`] for a count beyond its cap (before any
    /// allocation), and [`StoreError::Malformed`] for a foreign tag, a
    /// bad flag byte, disagreeing bitmap lengths or trailing bytes; a
    /// record either decodes exactly or not at all.
    pub fn decode(record: &[u8]) -> Result<SessionJournal, StoreError> {
        let mut r = Reader {
            buf: record,
            pos: 0,
        };
        if r.u8()? != CHECKPOINT_TAG {
            return Err(StoreError::Malformed {
                what: WHAT,
                why: "unknown record tag",
            });
        }
        let manifest_epoch = r.u64()?;
        let manifest_digest = r.u32()?;
        let next_event = r.u64()?;
        let clock = r.u64()?;
        // Fields evaluate in the order written, which is record order.
        let ledger = CycleLedger {
            exec: r.u64()?,
            stall: r.u64()?,
            recovery: r.u64()?,
            verify: r.u64()?,
            resume: r.u64()?,
            hedge: r.u64()?,
            integrity: r.u64()?,
            queue: 0,
        };
        let stalls = r.u32()?;
        let outages = r.u32()?;
        let resumes = r.u32()?;
        let refetched_classes = r.u32()?;
        let invocation_latency = match r.u64()? {
            u64::MAX => None,
            v => Some(v),
        };
        let session_degraded = r.flag()?;
        // 31 = the minimum encoded size of one class checkpoint (two
        // u32s, four flags, three empty bitmaps, one u64).
        let nclasses = r.count("class count", caps::MAX_CLASSES, 31)?;
        let mut classes = Vec::with_capacity(nclasses);
        for _ in 0..nclasses {
            let epoch = r.u32()?;
            let delivered = r.u32()?;
            let globals_verified = r.flag()?;
            let methods_verified = r.bits()?;
            let linker_globals = r.flag()?;
            let linker_verified = r.bits()?;
            let linker_resolved = r.bits()?;
            if linker_verified.len() != methods_verified.len()
                || linker_resolved.len() != methods_verified.len()
            {
                return Err(StoreError::Malformed {
                    what: WHAT,
                    why: "bitmap lengths disagree",
                });
            }
            let demoted = r.flag()?;
            let stall_events = r.u64()?;
            classes.push(ClassCheckpoint {
                epoch,
                delivered,
                globals_verified,
                methods_verified,
                linker_globals,
                linker_verified,
                linker_resolved,
                demoted,
                stall_events,
            });
        }
        // 20 = the encoded size of one fetch record (three u32s + u64).
        let nfetch = r.count("fetch log", caps::MAX_FETCH_LOG, 20)?;
        let mut fetch_log = Vec::with_capacity(nfetch);
        for _ in 0..nfetch {
            fetch_log.push(FetchRecord {
                class: r.u32()?,
                unit: r.u32()?,
                replica: r.u32()?,
                at: r.u64()?,
            });
        }
        if r.remaining() != 0 {
            return Err(StoreError::Malformed {
                what: WHAT,
                why: "trailing bytes after content",
            });
        }
        Ok(SessionJournal {
            manifest_epoch,
            manifest_digest,
            next_event,
            clock,
            ledger,
            stalls,
            outages,
            resumes,
            refetched_classes,
            invocation_latency,
            session_degraded,
            classes,
            fetch_log,
        })
    }

    /// Recovers `log` and decodes its last record, the newest
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// Whatever recovery reports (bad magic or version, a rotted
    /// frame, an oversized length, I/O); [`StoreError::Truncated`] when
    /// no record survived (the checkpoint's append was torn away or
    /// never landed); otherwise the [`SessionJournal::decode`] error.
    pub fn load(log: &JournalLog) -> Result<SessionJournal, StoreError> {
        let recovered = log.recover()?;
        let record = recovered
            .records
            .last()
            .ok_or(StoreError::Truncated { what: WHAT })?;
        SessionJournal::decode(record)
    }

    /// An honest in-memory log holding this checkpoint as its only
    /// record: how a caller without a disk hands a checkpoint to
    /// [`crate::sim::Session::resume`], still through the encoded
    /// record.
    #[must_use]
    pub fn in_memory(&self) -> JournalLog {
        let log = JournalLog::new(Arc::new(FaultFs::new(FaultKnobs::quiet(0))), CHECKPOINT_LOG);
        log.append_record(&self.encode())
            .expect("an honest in-memory store takes every checkpoint");
        log
    }

    /// Rejects a checkpoint whose replay state points outside the
    /// session: a fetch-log entry naming a class or unit that does not
    /// exist (`unit_counts[c]` units in class `c`), or a next event
    /// beyond the `trace_len`-event trace. The frame CRC is not a MAC,
    /// so a forged record can be well framed and still out of shape;
    /// replay must never index with it.
    ///
    /// # Errors
    ///
    /// [`StoreError::Malformed`] naming the first field out of range.
    pub fn check_replayable(
        &self,
        unit_counts: &[usize],
        trace_len: usize,
    ) -> Result<(), StoreError> {
        let malformed = |why| Err(StoreError::Malformed { what: WHAT, why });
        if self.next_event > trace_len as u64 {
            return malformed("next event beyond the trace");
        }
        for f in &self.fetch_log {
            match unit_counts.get(f.class as usize) {
                None => return malformed("fetch-log class out of range"),
                Some(&n) if f.unit as usize >= n => {
                    return malformed("fetch-log unit out of range")
                }
                Some(_) => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SessionJournal {
        SessionJournal {
            manifest_epoch: 0xdead_beef_cafe_0042,
            manifest_digest: 0x5eed_d1e5,
            next_event: 17,
            clock: 1_234_567,
            ledger: CycleLedger {
                exec: 900_000,
                stall: 300_000,
                recovery: 30_000,
                verify: 4_000,
                resume: 567,
                hedge: 1_200,
                integrity: 9_800,
                ..CycleLedger::default()
            },
            stalls: 9,
            outages: 2,
            resumes: 2,
            refetched_classes: 1,
            invocation_latency: Some(42_000),
            session_degraded: false,
            classes: vec![
                ClassCheckpoint {
                    epoch: 0x1111_2222,
                    delivered: 3,
                    globals_verified: true,
                    methods_verified: vec![true, false, true],
                    linker_globals: true,
                    linker_verified: vec![true, true, false],
                    linker_resolved: vec![true, false, false],
                    demoted: false,
                    stall_events: 5,
                },
                ClassCheckpoint::fresh(0x3333_4444, 9),
            ],
            fetch_log: vec![
                FetchRecord {
                    class: 0,
                    unit: 1,
                    replica: 0,
                    at: 100,
                },
                FetchRecord {
                    class: 1,
                    unit: 0,
                    replica: 2,
                    at: 777,
                },
            ],
        }
    }

    fn manifest_for(j: &SessionJournal) -> SessionManifest {
        SessionManifest {
            epoch: j.manifest_epoch,
            class_epochs: j.classes.iter().map(|c| c.epoch).collect(),
            method_counts: j.classes.iter().map(|c| c.methods_verified.len()).collect(),
        }
    }

    /// The sample checkpoint persisted to a fresh in-memory store, plus
    /// the store (for tampering) and the log file's durable bytes.
    fn persisted() -> (Arc<FaultFs>, JournalLog, Vec<u8>) {
        let fs = Arc::new(FaultFs::new(FaultKnobs::quiet(1)));
        let log = JournalLog::new(fs.clone(), CHECKPOINT_LOG);
        log.append_record(&sample().encode()).unwrap();
        let bytes = fs.durable(CHECKPOINT_LOG).unwrap();
        (fs, log, bytes)
    }

    /// A log holding one arbitrary `record`.
    fn log_of(record: &[u8]) -> JournalLog {
        let log = JournalLog::new(Arc::new(FaultFs::new(FaultKnobs::quiet(1))), CHECKPOINT_LOG);
        log.append_record(record).unwrap();
        log
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let j = sample();
        assert_eq!(SessionJournal::decode(&j.encode()).unwrap(), j);
        assert_eq!(SessionJournal::load(&j.in_memory()).unwrap(), j);
        // None latency round-trips through the sentinel.
        let mut j2 = j;
        j2.invocation_latency = None;
        assert_eq!(SessionJournal::decode(&j2.encode()).unwrap(), j2);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let (fs, log, bytes) = persisted();
        for i in 0..bytes.len() {
            for bit in [0x01u8, 0x80u8] {
                let mut bad = bytes.clone();
                bad[i] ^= bit;
                fs.set_durable(CHECKPOINT_LOG, bad);
                assert!(
                    SessionJournal::load(&log).is_err(),
                    "flip at byte {i} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let (fs, log, bytes) = persisted();
        for n in 0..bytes.len() {
            fs.set_durable(CHECKPOINT_LOG, bytes[..n].to_vec());
            assert!(
                SessionJournal::load(&log).is_err(),
                "truncation to {n} bytes went undetected"
            );
        }
        // Garbage after the content, inside a well-framed record.
        let mut padded = sample().encode();
        padded.push(0);
        assert_eq!(
            SessionJournal::load(&log_of(&padded)),
            Err(StoreError::Malformed {
                what: WHAT,
                why: "trailing bytes after content"
            }),
            "appended garbage went undetected"
        );
    }

    #[test]
    fn negotiate_resumes_a_clean_journal_with_no_stale_classes() {
        let j = sample();
        let m = manifest_for(&j);
        match negotiate(&j.in_memory(), &m) {
            Negotiation::Resume { journal, stale } => {
                assert_eq!(*journal, j);
                assert!(stale.is_empty());
            }
            other => panic!("expected resume, got {other:?}"),
        }
    }

    #[test]
    fn negotiate_targets_only_the_moved_epochs() {
        let j = sample();
        let mut m = manifest_for(&j);
        m.class_epochs[1] ^= 0xffff;
        match negotiate(&j.in_memory(), &m) {
            Negotiation::Resume { stale, .. } => assert_eq!(stale, vec![1]),
            other => panic!("expected targeted invalidation, got {other:?}"),
        }
    }

    #[test]
    fn negotiate_fails_closed_on_garbage_and_fresh_on_shape_change() {
        let j = sample();
        let m = manifest_for(&j);
        let mut torn = j.encode();
        torn.truncate(torn.len() / 2);
        assert_eq!(
            negotiate(&log_of(&torn), &m),
            Negotiation::FailClosed(StoreError::Truncated { what: WHAT })
        );
        assert!(matches!(
            negotiate(&log_of(b"not a journal at all"), &m),
            Negotiation::FailClosed(StoreError::Malformed {
                why: "unknown record tag",
                ..
            })
        ));
        // A log whose checkpoint never landed.
        let empty = JournalLog::new(Arc::new(FaultFs::new(FaultKnobs::quiet(1))), CHECKPOINT_LOG);
        assert_eq!(
            negotiate(&empty, &m),
            Negotiation::FailClosed(StoreError::Truncated { what: WHAT })
        );
        let mut grown = manifest_for(&j);
        grown.class_epochs.push(1);
        grown.method_counts.push(0);
        assert_eq!(negotiate(&j.in_memory(), &grown), Negotiation::Fresh);
        let mut reshaped = manifest_for(&j);
        reshaped.method_counts[0] += 1;
        assert_eq!(negotiate(&j.in_memory(), &reshaped), Negotiation::Fresh);
    }

    #[test]
    fn invalidate_discards_verdicts_but_keeps_link_history() {
        let mut cp = sample().classes[0].clone();
        cp.demoted = true;
        cp.invalidate(0x9999);
        assert_eq!(cp.epoch, 0x9999);
        assert_eq!(cp.delivered, 0);
        assert!(!cp.globals_verified);
        assert!(cp.methods_verified.iter().all(|v| !v));
        assert!(cp.linker_verified.iter().all(|v| !v));
        assert!(cp.linker_resolved.iter().all(|v| !v));
        assert!(cp.demoted, "link-quality history survives invalidation");
        assert_eq!(cp.stall_events, 5);
    }

    #[test]
    fn manifest_epoch_tracks_class_epochs() {
        let a = SessionManifest::new(vec![1, 2, 3], vec![0, 0, 0]);
        let b = SessionManifest::new(vec![1, 2, 4], vec![0, 0, 0]);
        assert_ne!(a.epoch, b.epoch);
        assert_eq!(a, SessionManifest::new(vec![1, 2, 3], vec![0, 0, 0]));
    }

    /// Byte offset of the class-count field: tag (1) + manifest
    /// epoch/digest (12) + next_event/clock (16) + seven cycle buckets
    /// (56) + four u32 counters (16) + latency (8) + degraded flag (1).
    const NCLASSES_AT: usize = 110;

    fn patched(mut record: Vec<u8>, at: usize, value: u32) -> Vec<u8> {
        record[at..at + 4].copy_from_slice(&value.to_le_bytes());
        record
    }

    #[test]
    fn forged_class_count_is_oversized_before_allocation() {
        let record = sample().encode();
        assert_eq!(
            u32::from_le_bytes(record[NCLASSES_AT..NCLASSES_AT + 4].try_into().unwrap()),
            2,
            "offset constant drifted from the encoder layout"
        );
        // Above the cap: the typed Oversized guard fires even inside a
        // well-framed record (the frame CRC is not a MAC).
        let huge = patched(record.clone(), NCLASSES_AT, u32::MAX);
        assert!(matches!(
            SessionJournal::load(&log_of(&huge)),
            Err(StoreError::Oversized {
                what: "class count",
                ..
            })
        ));
        // Under the cap but far beyond the bytes actually present: the
        // remaining-bytes check rejects it before reserving anything.
        let hollow = patched(record, NCLASSES_AT, 100_000);
        assert_eq!(
            SessionJournal::decode(&hollow),
            Err(StoreError::Truncated { what: WHAT })
        );
    }

    #[test]
    fn forged_bitmap_length_is_oversized_before_allocation() {
        let record = sample().encode();
        // The first per-class bitmap length sits after the class
        // header: nclasses (4) + epoch (4) + delivered (4) + flag (1).
        let bitmap_at = NCLASSES_AT + 4 + 4 + 4 + 1;
        assert_eq!(
            u32::from_le_bytes(record[bitmap_at..bitmap_at + 4].try_into().unwrap()),
            3,
            "offset constant drifted from the encoder layout"
        );
        let forged = patched(record, bitmap_at, u32::MAX);
        assert!(matches!(
            SessionJournal::decode(&forged),
            Err(StoreError::Oversized { what: "bitmap", .. })
        ));
    }

    #[test]
    fn out_of_shape_replay_state_is_malformed() {
        // The sample's classes hold 2 and 10 units; its trace has 17
        // events replayed so far.
        let units = [2, 10];
        assert_eq!(sample().check_replayable(&units, 17), Ok(()));
        let malformed = |why| Err(StoreError::Malformed { what: WHAT, why });
        let mut j = sample();
        j.fetch_log[1].class = 2;
        assert_eq!(
            j.check_replayable(&units, 17),
            malformed("fetch-log class out of range")
        );
        let mut j = sample();
        j.fetch_log[0].unit = 9999;
        assert_eq!(
            j.check_replayable(&units, 17),
            malformed("fetch-log unit out of range")
        );
        let mut j = sample();
        j.next_event = u64::MAX;
        assert_eq!(
            j.check_replayable(&units, 17),
            malformed("next event beyond the trace")
        );
        assert_eq!(
            sample().check_replayable(&units, 16),
            malformed("next event beyond the trace")
        );
    }
}
