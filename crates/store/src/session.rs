//! [`DurableSession`]: the wire client's persistence hook, durably.
//!
//! A [`DurableSession`] implements [`SessionStore`] so a
//! [`nonstrict_wire::WireClient`] journals every state transition into
//! one `NSJL` file, [`JOURNAL_NAME`]: the manifest pin carries the
//! manifest's bytes, each accepted unit carries its payload, and class
//! resets, negotiated truncations and completion are small records.
//! A pin or a generation rollover compacts the log with
//! [`JournalLog::rewrite`], so the file holds at most one generation,
//! and a unit costs one append, framed in one buffer the session
//! reuses. After a process kill, [`DurableSession::warm_start`] rebuilds
//! the session from the **longest verified prefix** that file can
//! prove, in one walk over the journal's bytes ([`JournalLog::recover`]).
//! The file is read once and no record is copied; for each complete
//! frame, in order, the walk:
//!
//! 1. decodes the record. A record that does not decode, or a `Pin`
//!    whose manifest does not decode, fails closed once the walk ends,
//!    unless a later frame fails first: a frame error outranks a record
//!    error. A `Pin` starts a generation, with one class entry per class
//!    of its manifest; a record for any other class is dropped;
//! 2. places a unit record by its own class/unit identity. A *gap* in a
//!    class's unit sequence (an acked-but-never-durable append, i.e. an
//!    fsync lie) ends that class's trusted prefix at the gap, because
//!    everything after it was journaled under assumptions the disk
//!    silently dropped;
//! 3. checks a unit record that extends its class in one pass over its
//!    payload ([`unit_sums`]): the frame CRC, continued from the length
//!    prefix and the record head; the payload's own CRC for
//!    [`WarmClass::crcs`]; and the content digest under the epoch of the
//!    pinned manifest. Every other record's frame gets a plain CRC;
//! 4. compares the frame CRC with the frame's trailer. A mismatch is rot
//!    — a rotted unit record included — and fails the whole journal
//!    closed, because the frame CRC no longer vouches for anything after
//!    it. A torn tail is truncated.
//!
//! When the walk ends, each class's prefix ends at its first unit whose
//! digest disagrees with the **pinned manifest's** — a self-consistent
//! but poisoned record; the tail is refetched from the wire, never
//! executed from disk. The [`WarmSession`] handed to the client owns
//! the recovered bytes, and names the manifest and every payload by its
//! span in them.
//!
//! The replay is fail-closed at every layer, but never fail-*stuck*: a
//! broken store yields a cold start, and a cold start always converges,
//! because the wire protocol re-delivers from unit 0.

use std::ops::Range;
use std::sync::Arc;

use nonstrict_wire::client::{SessionStore, StoreFault, WarmClass, WarmSession};
use nonstrict_wire::crc::unit_sums;
use nonstrict_wire::crc32;
use nonstrict_wire::manifest::UnitManifest;

use crate::log::{JournalLog, LEN_PREFIX};
use crate::vfs::Vfs;
use crate::StoreError;

/// File name the session journal lives under — the session's only
/// durable file.
pub const JOURNAL_NAME: &str = "session.nsjl";

const TAG_PIN: u8 = 0x01;
const TAG_UNIT: u8 = 0x02;
const TAG_RESET_CLASS: u8 = 0x03;
const TAG_TRUNCATE: u8 = 0x04;
const TAG_COMPLETE: u8 = 0x06;

/// Bytes before a `Pin` record's manifest: tag, generation.
const PIN_HEAD: usize = 5;
/// Bytes before a `Unit` record's payload: tag, class, unit, epoch,
/// units. No record's head is longer.
const UNIT_HEAD: usize = 17;

/// One journal record, decoded; variable-length fields borrow from the
/// recovered record.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Record<'a> {
    /// Starts a generation: everything journaled before it is void.
    Pin {
        generation: u32,
        manifest: &'a [u8],
    },
    Unit {
        class: u32,
        unit: u32,
        epoch: u32,
        units: u32,
        payload: &'a [u8],
    },
    ResetClass {
        class: u32,
        epoch: u32,
        units: u32,
    },
    Truncate {
        class: u32,
        delivered: u32,
    },
    Complete,
}

impl<'a> Record<'a> {
    /// Writes the record's tag and fixed fields into `head`, and returns
    /// their length with the variable-length body that follows them (a
    /// manifest, a payload, or nothing).
    fn split(&self, head: &mut [u8; UNIT_HEAD]) -> (usize, &'a [u8]) {
        let (tag, fields, n, body): (u8, [u32; 4], usize, &'a [u8]) = match *self {
            Record::Pin {
                generation,
                manifest,
            } => (TAG_PIN, [generation, 0, 0, 0], 1, manifest),
            Record::Unit {
                class,
                unit,
                epoch,
                units,
                payload,
            } => (TAG_UNIT, [class, unit, epoch, units], 4, payload),
            Record::ResetClass {
                class,
                epoch,
                units,
            } => (TAG_RESET_CLASS, [class, epoch, units, 0], 3, &[]),
            Record::Truncate { class, delivered } => {
                (TAG_TRUNCATE, [class, delivered, 0, 0], 2, &[])
            }
            Record::Complete => (TAG_COMPLETE, [0; 4], 0, &[]),
        };
        head[0] = tag;
        for (slot, field) in head[1..].chunks_exact_mut(4).zip(&fields[..n]) {
            slot.copy_from_slice(&field.to_le_bytes());
        }
        (1 + 4 * n, body)
    }

    fn encode(&self) -> Vec<u8> {
        let mut head = [0; UNIT_HEAD];
        let (n, body) = self.split(&mut head);
        [&head[..n], body].concat()
    }

    fn decode(bytes: &'a [u8]) -> Result<Record<'a>, StoreError> {
        let what = "NSJL session record";
        let need = |n: usize, exact: bool| -> Result<(), StoreError> {
            if bytes.len() == n || (!exact && bytes.len() > n) {
                Ok(())
            } else {
                Err(StoreError::Malformed {
                    what,
                    why: "record length does not match its tag",
                })
            }
        };
        let u32_at = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().expect("len"));
        match bytes.first() {
            Some(&TAG_PIN) => {
                need(PIN_HEAD, false)?;
                Ok(Record::Pin {
                    generation: u32_at(1),
                    manifest: &bytes[PIN_HEAD..],
                })
            }
            Some(&TAG_UNIT) => {
                need(UNIT_HEAD, false)?;
                Ok(Record::Unit {
                    class: u32_at(1),
                    unit: u32_at(5),
                    epoch: u32_at(9),
                    units: u32_at(13),
                    payload: &bytes[UNIT_HEAD..],
                })
            }
            Some(&TAG_RESET_CLASS) => {
                need(13, true)?;
                Ok(Record::ResetClass {
                    class: u32_at(1),
                    epoch: u32_at(5),
                    units: u32_at(9),
                })
            }
            Some(&TAG_TRUNCATE) => {
                need(9, true)?;
                Ok(Record::Truncate {
                    class: u32_at(1),
                    delivered: u32_at(5),
                })
            }
            Some(&TAG_COMPLETE) => {
                need(1, true)?;
                Ok(Record::Complete)
            }
            Some(_) => Err(StoreError::Malformed {
                what,
                why: "unknown record tag",
            }),
            None => Err(StoreError::Malformed {
                what,
                why: "empty record",
            }),
        }
    }
}

/// What a typed recovery found on disk — the testable face of
/// [`DurableSession::warm_start`], with the fail-closed decisions made
/// visible instead of collapsed into `None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredSession {
    /// The verified state, exactly as the warm start hands it to the
    /// client: the recovered bytes, the pinned manifest's span in them
    /// and each class's verified prefix.
    pub warm: WarmSession,
    /// Bytes the journal recovery truncated as a torn tail.
    pub torn_bytes: u64,
    /// Unit records dropped during replay or verification: sequence
    /// gaps (fsync lies), and records whose payload does not re-hash to
    /// the pinned manifest's digest.
    pub dropped_units: u64,
    /// Whether a Complete record survived.
    pub completed: bool,
}

/// One recovery walk: the replay of every record the walk has checked
/// so far, built frame by frame inside [`JournalLog::recover`].
#[derive(Default)]
struct Replay {
    pin: Option<Pinned>,
    dropped: u64,
    completed: bool,
    /// The first record that did not decode. It is reported only once
    /// every frame has checked out, because a frame error outranks a
    /// record error; no record after it is replayed.
    error: Option<StoreError>,
}

/// The last `Pin` record and what was replayed under it.
struct Pinned {
    generation: u32,
    /// The manifest's span in the recovered bytes.
    span: Range<usize>,
    manifest: UnitManifest,
    /// One entry per class of the manifest: a record for any other
    /// class cannot be verified, so it is dropped.
    classes: Vec<ReplayClass>,
}

#[derive(Default)]
struct ReplayClass {
    warm: WarmClass,
    /// The first unit whose payload does not re-hash to the pinned
    /// manifest's digest: the warm prefix ends there.
    poisoned: Option<usize>,
    /// Set when a sequence gap ended this class's trusted prefix; no
    /// later record for the class may extend it.
    gapped: bool,
}

impl ReplayClass {
    /// Keeps units `..n`: a truncation, or a re-delivery of unit `n`.
    fn truncate(&mut self, n: usize) {
        self.warm.crcs.truncate(n);
        self.warm.sizes.truncate(n);
        self.warm.payloads.truncate(n);
        if self.poisoned.is_some_and(|p| p >= n) {
            self.poisoned = None;
        }
    }
}

impl Replay {
    /// The walk's per-frame check: replays the record of `frame` (its
    /// length prefix, then its record), which starts at `at` in the
    /// recovered bytes, and returns the frame's CRC32. A unit record
    /// that extends a class is checked by one pass over its payload,
    /// which also yields the payload's CRC and its content digest.
    fn frame(&mut self, at: usize, frame: &[u8]) -> u32 {
        if self.error.is_some() {
            return crc32(frame);
        }
        match Record::decode(&frame[LEN_PREFIX..]) {
            Err(e) => self.error = Some(e),
            Ok(Record::Pin {
                generation,
                manifest,
            }) => match UnitManifest::decode(manifest) {
                Ok(manifest) => {
                    self.pin = Some(Pinned {
                        generation,
                        span: at + LEN_PREFIX + PIN_HEAD..at + frame.len(),
                        classes: (0..manifest.unit_digests.len())
                            .map(|_| ReplayClass::default())
                            .collect(),
                        manifest,
                    });
                    self.completed = false;
                }
                Err(_) => {
                    self.error = Some(StoreError::Malformed {
                        what: "pinned manifest",
                        why: "the Pin record's manifest does not decode",
                    });
                }
            },
            Ok(Record::Unit {
                class,
                unit,
                epoch,
                units,
                ..
            }) => {
                if let Some(crc) = self.unit(at, frame, class, unit, epoch, units) {
                    return crc;
                }
            }
            Ok(Record::ResetClass {
                class,
                epoch,
                units,
            }) => {
                if let Some(c) = self.class(class) {
                    *c = ReplayClass::default();
                    c.warm.epoch = epoch;
                    c.warm.units = units;
                }
            }
            Ok(Record::Truncate { class, delivered }) => {
                if let Some(c) = self.class(class) {
                    c.truncate(delivered as usize);
                }
            }
            Ok(Record::Complete) => self.completed = true,
        }
        crc32(frame)
    }

    fn class(&mut self, class: u32) -> Option<&mut ReplayClass> {
        self.pin.as_mut()?.classes.get_mut(class as usize)
    }

    /// Replays a unit record; returns its frame's CRC32, or `None` when
    /// the record is dropped unchecked: its class is not in the pinned
    /// manifest, or a gap precedes it.
    fn unit(
        &mut self,
        at: usize,
        frame: &[u8],
        class: u32,
        unit: u32,
        epoch: u32,
        units: u32,
    ) -> Option<u32> {
        let Some(pin) = self.pin.as_mut() else {
            self.dropped += 1;
            return None;
        };
        let digests = pin.manifest.unit_digests.get(class as usize);
        let (Some(c), Some(digests)) = (pin.classes.get_mut(class as usize), digests) else {
            self.dropped += 1;
            return None;
        };
        let ui = unit as usize;
        if c.gapped || ui > c.warm.crcs.len() {
            // A record for a unit we never journaled the predecessor
            // of: an earlier acked append was never durable. Everything
            // from the gap on is untrusted for this class.
            c.gapped = true;
            self.dropped += 1;
            return None;
        }
        let head = LEN_PREFIX + UNIT_HEAD;
        let payload = &frame[head..];
        let sums = unit_sums(&frame[..head], pin.manifest.epoch, class, unit, payload);
        c.warm.epoch = epoch;
        c.warm.units = units;
        // unit <= delivered: later records win (a re-delivery after
        // truncation overwrites).
        c.truncate(ui);
        if c.warm.crcs.capacity() == 0 {
            // Only units the manifest has digests for can verify: size
            // the class's lists once, not per unit.
            c.warm.crcs.reserve(digests.len());
            c.warm.sizes.reserve(digests.len());
            c.warm.payloads.reserve(digests.len());
        }
        c.warm.crcs.push(sums.payload_crc);
        c.warm
            .sizes
            .push(u32::try_from(payload.len()).unwrap_or(u32::MAX));
        c.warm.payloads.push(at + head..at + frame.len());
        if c.poisoned.is_none() && digests.get(ui) != Some(&sums.digest) {
            // Poisoned, or a unit the manifest has no digest for: the
            // warm prefix will end here unless a later record replaces
            // it.
            c.poisoned = Some(ui);
        }
        Some(sums.frame_crc)
    }

    /// The verified session over the walk's `bytes`: each class's
    /// prefix ends at its first poisoned unit, whose tail is refetched
    /// from the wire, never executed.
    fn finish(
        self,
        bytes: Vec<u8>,
        torn_bytes: u64,
    ) -> Result<Option<RecoveredSession>, StoreError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let Some(pin) = self.pin else {
            return Ok(None);
        };
        let mut dropped = self.dropped;
        let classes = pin
            .classes
            .into_iter()
            .map(|mut c| {
                if let Some(p) = c.poisoned {
                    dropped += (c.warm.crcs.len() - p) as u64;
                    c.truncate(p);
                }
                c.warm
            })
            .collect();
        Ok(Some(RecoveredSession {
            warm: WarmSession {
                generation: pin.generation,
                bytes,
                manifest: pin.span,
                classes,
            },
            torn_bytes,
            dropped_units: dropped,
            completed: self.completed,
        }))
    }
}

/// The durable session store: one [`JournalLog`] over one [`Vfs`].
pub struct DurableSession {
    log: JournalLog,
    /// Whether a manifest is pinned: set by `on_pin` and by a warm
    /// start. A unit record before any pin is refused.
    pinned: bool,
    /// The buffer every appended record is framed in, reused so that
    /// journaling a unit allocates nothing.
    frame: Vec<u8>,
}

impl DurableSession {
    /// A session persisted in `vfs`.
    #[must_use]
    pub fn new(vfs: Arc<dyn Vfs>) -> DurableSession {
        DurableSession {
            log: JournalLog::new(vfs, JOURNAL_NAME),
            pinned: false,
            frame: Vec::new(),
        }
    }

    fn fault(op: &'static str, e: &StoreError) -> StoreFault {
        StoreFault {
            op,
            detail: e.to_string(),
        }
    }

    fn append(&mut self, op: &'static str, record: &Record) -> Result<(), StoreFault> {
        let mut head = [0; UNIT_HEAD];
        let (n, body) = record.split(&mut head);
        self.log
            .append_parts(&mut self.frame, &[&head[..n], body])
            .map_err(|e| Self::fault(op, &e))
    }

    /// Typed recovery: everything [`warm_start`](SessionStore::warm_start)
    /// does, with the errors visible. `Ok(None)` means a clean cold
    /// start (no journal, or no pin survived); `Err` is an integrity
    /// failure a caller may want to distinguish (the trait impl maps
    /// both to a cold start).
    ///
    /// # Errors
    ///
    /// Typed [`StoreError`] for journal rot, malformed records, or a
    /// pinned manifest that does not decode.
    pub fn recover_session(&mut self) -> Result<Option<RecoveredSession>, StoreError> {
        self.pinned = false;
        let mut replay = Replay::default();
        let recovered = self.log.recover(|at, frame| replay.frame(at, frame))?;
        let session = replay.finish(recovered.bytes, recovered.torn_bytes)?;
        self.pinned = session.is_some();
        Ok(session)
    }
}

impl SessionStore for DurableSession {
    fn warm_start(&mut self) -> Option<WarmSession> {
        // Fail closed to a cold start on any integrity failure — and
        // scrub the broken log so the restarted session journals onto
        // a clean slate instead of appending after rot.
        match self.recover_session() {
            Ok(r) => r.map(|r| r.warm),
            Err(_) => {
                let _ = self.log.remove();
                None
            }
        }
    }

    fn on_pin(&mut self, generation: u32, manifest: &[u8]) -> Result<(), StoreFault> {
        UnitManifest::decode(manifest).map_err(|e| StoreFault {
            op: "on_pin",
            detail: format!("manifest does not decode: {e:?}"),
        })?;
        let pin = Record::Pin {
            generation,
            manifest,
        };
        self.log
            .rewrite(&[pin.encode()])
            .map_err(|e| Self::fault("on_pin", &e))?;
        self.pinned = true;
        Ok(())
    }

    fn on_unit(
        &mut self,
        class: u32,
        unit: u32,
        epoch: u32,
        units: u32,
        payload: &[u8],
    ) -> Result<(), StoreFault> {
        if !self.pinned {
            return Err(StoreFault {
                op: "on_unit",
                detail: "unit accepted before any manifest pin".to_owned(),
            });
        }
        self.append(
            "on_unit",
            &Record::Unit {
                class,
                unit,
                epoch,
                units,
                payload,
            },
        )
    }

    fn on_reset_class(&mut self, class: u32, epoch: u32, units: u32) -> Result<(), StoreFault> {
        self.append(
            "on_reset_class",
            &Record::ResetClass {
                class,
                epoch,
                units,
            },
        )
    }

    fn on_truncate(&mut self, class: u32, delivered: u32) -> Result<(), StoreFault> {
        self.append("on_truncate", &Record::Truncate { class, delivered })
    }

    fn on_reset_all(&mut self) -> Result<(), StoreFault> {
        self.pinned = false;
        self.log
            .rewrite(&[])
            .map_err(|e| Self::fault("on_reset_all", &e))
    }

    fn on_complete(&mut self) -> Result<(), StoreFault> {
        self.append("on_complete", &Record::Complete)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultFs, FaultKnobs};

    fn payloads() -> Vec<Vec<Vec<u8>>> {
        vec![
            vec![b"c0u0".to_vec(), b"c0u1-longer".to_vec(), b"c0u2".to_vec()],
            vec![b"c1u0-prelude".to_vec(), b"c1u1".to_vec()],
        ]
    }

    fn manifest() -> UnitManifest {
        UnitManifest::from_payloads(&payloads(), 0xabcd_0001)
    }

    /// Every class's recovered payloads, copied out.
    fn warm_payloads(r: &RecoveredSession) -> Vec<Vec<Vec<u8>>> {
        let warm = &r.warm;
        warm.classes
            .iter()
            .map(|c| warm.payloads(c).expect("spans lie in the recovered bytes"))
            .collect()
    }

    /// Streams the whole scripted session through a store; returns the
    /// number of mutating VFS ops it took.
    fn stream_all(fs: &Arc<FaultFs>) -> Result<u64, StoreFault> {
        let before = fs.ops();
        let mut s = DurableSession::new(fs.clone());
        s.on_pin(7, &manifest().encode())?;
        for (ci, class) in payloads().iter().enumerate() {
            let n = u32::try_from(class.len()).unwrap();
            for (ui, p) in class.iter().enumerate() {
                s.on_unit(ci as u32, ui as u32, 1, n, p)?;
            }
        }
        s.on_complete()?;
        Ok(fs.ops() - before)
    }

    #[test]
    fn full_session_round_trips_through_recovery() {
        let fs = Arc::new(FaultFs::new(FaultKnobs::quiet(1)));
        stream_all(&fs).unwrap();
        let mut s = DurableSession::new(fs.clone());
        let r = s.recover_session().unwrap().unwrap();
        assert_eq!(r.warm.generation, 7);
        assert!(r.completed);
        assert_eq!(r.torn_bytes, 0);
        assert_eq!(r.dropped_units, 0);
        assert_eq!(r.warm.classes.len(), 2);
        assert_eq!(warm_payloads(&r), payloads());
        for (ci, class) in payloads().iter().enumerate() {
            let crcs: Vec<u32> = class.iter().map(|p| crc32(p)).collect();
            assert_eq!(r.warm.classes[ci].crcs, crcs);
            let sizes: Vec<u32> = class.iter().map(|p| p.len() as u32).collect();
            assert_eq!(r.warm.classes[ci].sizes, sizes);
        }
        assert_eq!(r.warm.bytes[r.warm.manifest.clone()], manifest().encode());
    }

    #[test]
    fn kill_at_every_op_recovers_a_verified_prefix() {
        let quiet = Arc::new(FaultFs::new(FaultKnobs::quiet(2)));
        let total = stream_all(&quiet).unwrap();
        let full = {
            let mut s = DurableSession::new(quiet.clone());
            s.recover_session().unwrap().unwrap()
        };
        for k in 1..=total {
            let fs = Arc::new(FaultFs::new(FaultKnobs::quiet(1000 + k)));
            fs.set_kill_at(k);
            let died = stream_all(&fs).is_err();
            assert!(died, "kill at op {k} did not surface");
            fs.crash();
            let mut s = DurableSession::new(fs.clone());
            // Recovery may fail closed (e.g. the pin never made it);
            // what it must never do is hand back a wrong byte.
            if let Ok(Some(r)) = s.recover_session() {
                assert_eq!(r.warm.generation, 7, "kill at op {k}");
                let (got, want) = (warm_payloads(&r), warm_payloads(&full));
                for (ci, warm) in r.warm.classes.iter().enumerate() {
                    let n = got[ci].len();
                    assert!(
                        n <= want[ci].len()
                            && got[ci][..] == want[ci][..n]
                            && warm.crcs[..] == full.warm.classes[ci].crcs[..n],
                        "kill at op {k}: class {ci} prefix diverges"
                    );
                }
            }
        }
    }

    #[test]
    fn fsync_lie_on_a_unit_append_ends_the_prefix_at_the_gap() {
        // Find a seed where at least one unit append is acked but never
        // durable, then check the recovered prefix stops at the gap.
        let mut exercised = false;
        for seed in 0..64u64 {
            let fs = Arc::new(FaultFs::new(FaultKnobs {
                seed,
                lie_pm: 200_000,
                ..FaultKnobs::default()
            }));
            if stream_all(&fs).is_err() {
                continue;
            }
            fs.crash();
            let mut s = DurableSession::new(fs.clone());
            match s.recover_session() {
                Ok(Some(r)) => {
                    let full = payloads();
                    for (ci, warm) in warm_payloads(&r).iter().enumerate() {
                        let n = warm.len();
                        assert!(
                            warm[..] == full[ci][..n],
                            "seed {seed}: class {ci} warm prefix diverges"
                        );
                        if n < full[ci].len() {
                            exercised = true;
                        }
                    }
                    if r.dropped_units > 0 {
                        exercised = true;
                    }
                }
                // A lie can also eat the pin: that's a (correct) cold
                // start, or typed rot.
                Ok(None) | Err(_) => exercised = true,
            }
        }
        assert!(exercised, "no seed produced an observable fsync lie");
    }

    #[test]
    fn a_session_is_one_file_and_one_append_per_unit() {
        let fs = Arc::new(FaultFs::new(FaultKnobs::quiet(4)));
        let ops = stream_all(&fs).unwrap();
        let units: usize = payloads().iter().map(Vec::len).sum();
        // The pin's rewrite, one append per unit, the completion.
        assert_eq!(ops, 2 + units as u64);
        assert_eq!(fs.list().unwrap(), vec![JOURNAL_NAME.to_owned()]);
    }

    /// Flips one bit inside class 0 unit 1's payload in the durable
    /// journal.
    fn rot_unit_record(fs: &FaultFs) {
        let mut bytes = fs.durable(JOURNAL_NAME).unwrap();
        let needle = &payloads()[0][1];
        let at = bytes
            .windows(needle.len())
            .position(|w| w == needle.as_slice())
            .expect("unit payload journaled");
        bytes[at + 2] ^= 0x40;
        fs.set_durable(JOURNAL_NAME, bytes);
    }

    #[test]
    fn rotted_cache_entry_shrinks_the_warm_prefix() {
        // The unit bytes live in the journal now, so a rotted unit is a
        // mid-log CRC failure: it fails the whole log closed (append
        // order after it is untrusted), shrinking every class's warm
        // prefix to nothing, and the warm start scrubs the log.
        let fs = Arc::new(FaultFs::new(FaultKnobs::quiet(5)));
        stream_all(&fs).unwrap();
        rot_unit_record(&fs);
        let mut s = DurableSession::new(fs.clone());
        assert_eq!(
            s.recover_session(),
            Err(StoreError::CrcMismatch { what: "NSJL log" })
        );
        assert!(s.warm_start().is_none());
        assert!(fs.read(JOURNAL_NAME).is_err());
    }

    #[test]
    fn manifest_pin_disagreement_fails_closed_and_warm_start_scrubs() {
        // Rot in the pinned manifest's bytes, either caught by the
        // frame CRC or — re-sealed under a fresh CRC — by the manifest
        // decoder: the pin cannot be trusted, so nothing is.
        for reseal in [false, true] {
            let fs = Arc::new(FaultFs::new(FaultKnobs::quiet(6)));
            stream_all(&fs).unwrap();
            let log = JournalLog::new(fs.clone(), JOURNAL_NAME);
            let mut records: Vec<Vec<u8>> = log
                .recover(|_, frame| crc32(frame))
                .unwrap()
                .records()
                .map(<[u8]>::to_vec)
                .collect();
            let last = records[0].len() - 1;
            records[0][last] ^= 0x01;
            let want = if reseal {
                log.rewrite(&records).unwrap();
                StoreError::Malformed {
                    what: "pinned manifest",
                    why: "the Pin record's manifest does not decode",
                }
            } else {
                let mut bytes = fs.durable(JOURNAL_NAME).unwrap();
                // The Pin record is the first frame: past the 6-byte log
                // header and its 4-byte length prefix.
                let pin_last = 6 + 4 + records[0].len() - 1;
                bytes[pin_last] ^= 0x01;
                fs.set_durable(JOURNAL_NAME, bytes);
                StoreError::CrcMismatch { what: "NSJL log" }
            };
            let mut s = DurableSession::new(fs.clone());
            assert_eq!(s.recover_session(), Err(want), "reseal {reseal}");
            assert!(s.warm_start().is_none());
            // The scrub must leave a journal-free slate.
            assert!(fs.list().unwrap().is_empty(), "reseal {reseal}");
        }
    }

    #[test]
    fn unit_record_for_a_class_the_manifest_lacks_is_dropped() {
        // The frame CRC is not a MAC: a well-sealed record may still
        // name any class. It must be dropped, not sized into memory.
        let fs = Arc::new(FaultFs::new(FaultKnobs::quiet(9)));
        stream_all(&fs).unwrap();
        let forged = Record::Unit {
            class: u32::MAX,
            unit: 0,
            epoch: 1,
            units: 1,
            payload: b"forged",
        };
        let log = JournalLog::new(fs.clone(), JOURNAL_NAME);
        log.append_record(&forged.encode()).unwrap();
        let r = DurableSession::new(fs).recover_session().unwrap().unwrap();
        assert_eq!(r.warm.classes.len(), payloads().len());
        assert_eq!(r.dropped_units, 1);
    }

    #[test]
    fn reset_all_discards_everything_pinned_before() {
        let fs = Arc::new(FaultFs::new(FaultKnobs::quiet(7)));
        let mut s = DurableSession::new(fs.clone());
        s.on_pin(3, &manifest().encode()).unwrap();
        s.on_unit(0, 0, 1, 3, b"old-gen unit").unwrap();
        s.on_reset_all().unwrap();
        let m2 = UnitManifest::from_payloads(&payloads(), 0xabcd_0002);
        s.on_pin(4, &m2.encode()).unwrap();
        s.on_unit(0, 0, 1, 3, &payloads()[0][0]).unwrap();
        let mut s2 = DurableSession::new(fs.clone());
        let r = s2.recover_session().unwrap().unwrap();
        assert_eq!(r.warm.generation, 4);
        assert_eq!(warm_payloads(&r)[0], vec![payloads()[0][0].clone()]);
    }

    #[test]
    fn truncate_record_rewinds_the_watermark() {
        let fs = Arc::new(FaultFs::new(FaultKnobs::quiet(8)));
        let mut s = DurableSession::new(fs.clone());
        s.on_pin(1, &manifest().encode()).unwrap();
        for (ui, p) in payloads()[0].iter().enumerate() {
            s.on_unit(0, ui as u32, 1, 3, p).unwrap();
        }
        s.on_truncate(0, 1).unwrap();
        // Re-delivery after the negotiated truncation.
        s.on_unit(0, 1, 1, 3, &payloads()[0][1]).unwrap();
        let mut s2 = DurableSession::new(fs.clone());
        let r = s2.recover_session().unwrap().unwrap();
        assert_eq!(warm_payloads(&r)[0], payloads()[0][..2].to_vec());
    }
}
