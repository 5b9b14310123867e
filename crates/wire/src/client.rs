//! The resumable, mirror-fleet wire client.
//!
//! The client is the protocol's fault domain: everything the chaos
//! proxy throws at the stream — torn frames, bit flips, stalls, aborts,
//! reordering — lands here, and the recovery story is always the same
//! **fail-closed** move: drop the connection, keep the journal
//! watermarks (which only ever advance at verified unit boundaries),
//! back off with capped exponential delay, reconnect, and offer the
//! watermarks in the next Hello. A unit is recorded exactly once, in
//! order, CRC-verified, or the session dies having recorded nothing for
//! it — the same invariant the simulator's journal enforces at cycle
//! granularity.
//!
//! PR 9 widens the fault domain from one server to a **fleet of
//! mirrors**, and the client grows the two defenses the simulator's
//! replica/Byzantine tiers already proved out:
//!
//! * **Failover.** Each mirror carries an EWMA health score (same ppm
//!   semantics as `netsim::replica`: decay on fault, fold goodput in on
//!   every delivered unit) and a per-mirror capped backoff clock. A
//!   reconnect goes to the healthiest eligible mirror; the resume
//!   watermarks in the Hello make the hand-off seamless, because
//!   negotiation is the same epoch-fenced `ServePlan` logic regardless
//!   of which mirror answers. The session fails for good only when
//!   every mirror is quarantined or the attempt budget is spent.
//! * **Integrity.** The first `Welcome` pins the NSUM manifest
//!   (trust-on-first-use, exactly like the simulator's Byzantine
//!   layer), and from then on every delivered unit must match its
//!   pinned byte-level content digest, and every later `Welcome` must
//!   agree with the pin. A mirror that diverges *under the pinned
//!   generation* — a different manifest, or a unit whose bytes don't
//!   hash to the manifest entry — is **equivocating** and is
//!   quarantined: permanently removed from the rotation, never
//!   contributing a delivered unit. Only a `Welcome` carrying a
//!   *newer* restructure generation may replace the pin (a live
//!   rollover), and it discards every unit held under the old one —
//!   a session never splices bytes from two layouts.
//!
//! PR 10 widens the fault domain again, from connection death to
//! **process** death: an optional [`SessionStore`] hook persists the
//! manifest pin, per-unit watermarks, and unit bytes as they are
//! accepted, and a fresh client warm-resumes from whatever verified
//! prefix the store can prove after a kill. The store is untrusted on
//! reload — `nonstrict-store` re-verifies every journaled unit against
//! the pinned manifest digest before it is offered back — so the
//! fail-closed invariant survives the round trip through disk.
//!
//! Each unit costs one pass over its bytes. A connection reads every
//! frame into one buffer it reuses, keeps a `Unit` as a slice of that
//! buffer, and checks it with one fused loop
//! (`crc::unit_sums`) that yields the frame CRC, the payload's
//! own CRC for [`ClientReport::unit_crcs`] and the content digest. The
//! checks still run in the fail-closed order: CRC (stream fault), then
//! order (order violation), then digest (quarantine), then acceptance.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::time::{Duration, Instant};

use crate::crc::crc32;
use crate::frame::{
    read_frame_into, ClassAdvert, EvictReason, Frame, FrameError, FrameView, ResumeEntry, UnitFrame,
};
use crate::manifest::UnitManifest;

/// Capacity of the buffer a connection reads its frames through. One
/// socket read refills it, so a run of small unit frames costs one read
/// between them instead of two reads (header, then body) per frame.
pub const READ_BUFFER_BYTES: usize = 64 * 1024;

/// The reader a client connection reads its Welcome and every later
/// frame through. Each refill is one read of `inner`, so a socket's read
/// timeout still bounds every wait, and `frame::read_frame_into`
/// still checks a frame's length cap before growing its buffer.
pub fn frame_reader<R: Read>(inner: R) -> BufReader<R> {
    BufReader::with_capacity(READ_BUFFER_BYTES, inner)
}

/// Full health in parts-per-million — a mirror that has never faulted.
///
/// This is the workspace's one mirror-health policy: the scale, the
/// EWMA and the decay below score the real client's mirrors here and
/// the simulated replica set in `netsim::replica`, so the simulated and
/// real failover policies stay interchangeable.
pub const HEALTH_FULL_PPM: u32 = 1_000_000;

/// EWMA shift: each update folds in 1/8 new signal, 7/8 history.
const HEALTH_EWMA_SHIFT: u32 = 3;

/// One multiplicative decay step after a fault, explicitly saturating
/// at zero. The shifted step `h >> HEALTH_EWMA_SHIFT` truncates to zero
/// once `h` drops below `1 << HEALTH_EWMA_SHIFT`, which would freeze a
/// dying score at a small positive value forever; the step is therefore
/// floored at one and the subtraction saturates, so repeated decay is
/// monotone, converges to exactly zero, and can never wrap.
#[must_use]
#[inline]
pub fn decay_health(health_ppm: u32) -> u32 {
    health_ppm.saturating_sub((health_ppm >> HEALTH_EWMA_SHIFT).max(1))
}

/// One EWMA step folding a goodput `sample` (ppm) into the score.
/// Bounded by [`HEALTH_FULL_PPM`] when both inputs are.
#[must_use]
#[inline]
pub fn ewma_health(health_ppm: u32, sample: u32) -> u32 {
    health_ppm - (health_ppm >> HEALTH_EWMA_SHIFT) + (sample >> HEALTH_EWMA_SHIFT)
}

/// One EWMA goodput step after a verified delivered unit: fold a
/// full-health sample into the score.
#[must_use]
pub fn boost_health(health_ppm: u32) -> u32 {
    ewma_health(health_ppm, HEALTH_FULL_PPM)
}

/// A durable-store write failed mid-session. The client treats this
/// as process death: recording a unit without persisting it would let
/// an in-memory watermark run ahead of the journal, which is exactly
/// the divergence the store exists to prevent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreFault {
    /// The persistence hook that failed.
    pub op: &'static str,
    /// The underlying store error, stringified.
    pub detail: String,
}

/// One class of a warm-resumed session: the verified prefix a durable
/// store could prove after a process kill.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WarmClass {
    /// Layout epoch the prefix was delivered under.
    pub epoch: u32,
    /// Advertised unit total (0 when never welcomed).
    pub units: u32,
    /// CRC32 of each verified unit, in unit order; its length is the
    /// resumed delivered watermark.
    pub crcs: Vec<u32>,
    /// Size of each verified unit, in unit order.
    pub sizes: Vec<u32>,
    /// Where each verified unit's payload sits in
    /// [`WarmSession::bytes`], in unit order.
    pub payloads: Vec<Range<usize>>,
}

/// A warm-start snapshot: everything a [`SessionStore`] could verify
/// from its journal. It owns the bytes the store read back, and names
/// the manifest and every payload by its span in them, so nothing is
/// copied on the way to the client. The client re-decodes and re-pins
/// the manifest bytes itself — the store proves integrity, the client
/// still owns the trust decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmSession {
    /// Restructure generation of the pinned manifest.
    pub generation: u32,
    /// The bytes the store recovered.
    pub bytes: Vec<u8>,
    /// Where the pinned manifest's encoded NSUM bytes sit in `bytes`.
    pub manifest: Range<usize>,
    /// Per-class verified prefixes.
    pub classes: Vec<WarmClass>,
}

impl WarmSession {
    /// `class`'s verified payloads copied out of [`WarmSession::bytes`],
    /// in unit order; `None` when a span lies outside them.
    #[must_use]
    pub fn payloads(&self, class: &WarmClass) -> Option<Vec<Vec<u8>>> {
        class
            .payloads
            .iter()
            .map(|span| self.bytes.get(span.clone()).map(<[u8]>::to_vec))
            .collect()
    }
}

/// The client's durable-state hook. Implementations (see
/// `nonstrict-store`) persist the manifest pin, per-unit watermarks,
/// and unit bytes so a later process can warm-resume; every mutating
/// hook returns `Err` to signal that durability was lost and the
/// session must fail closed rather than run ahead of its journal.
pub trait SessionStore: Send {
    /// Recovers whatever verified state survives on disk. Integrity
    /// failures inside the store must fail closed to `None` (cold
    /// start) — never surface unverified bytes.
    fn warm_start(&mut self) -> Option<WarmSession>;

    /// A manifest was pinned (first Welcome, or a generation
    /// rollover re-pin).
    ///
    /// # Errors
    ///
    /// [`StoreFault`] when the pin could not be made durable.
    fn on_pin(&mut self, generation: u32, manifest: &[u8]) -> Result<(), StoreFault>;

    /// A unit passed every check and was accepted at the boundary.
    ///
    /// # Errors
    ///
    /// [`StoreFault`] when the unit could not be made durable.
    fn on_unit(
        &mut self,
        class: u32,
        unit: u32,
        epoch: u32,
        units: u32,
        payload: &[u8],
    ) -> Result<(), StoreFault>;

    /// A class's layout epoch moved: its held units were discarded.
    ///
    /// # Errors
    ///
    /// [`StoreFault`] when the reset could not be made durable.
    fn on_reset_class(&mut self, class: u32, epoch: u32, units: u32) -> Result<(), StoreFault>;

    /// Resume negotiation truncated a class back to `delivered`.
    ///
    /// # Errors
    ///
    /// [`StoreFault`] when the truncation could not be made durable.
    fn on_truncate(&mut self, class: u32, delivered: u32) -> Result<(), StoreFault>;

    /// A generation rollover discarded every held unit.
    ///
    /// # Errors
    ///
    /// [`StoreFault`] when the reset could not be made durable.
    fn on_reset_all(&mut self) -> Result<(), StoreFault>;

    /// The session completed every class.
    ///
    /// # Errors
    ///
    /// [`StoreFault`] when the completion record could not be made
    /// durable.
    fn on_complete(&mut self) -> Result<(), StoreFault>;
}

/// Tuning for one [`WireClient`] session.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Ordered mirror endpoints. Order is the tiebreak: equal health
    /// prefers the earlier mirror, so a single-entry list behaves
    /// exactly like the pre-fleet client.
    pub mirrors: Vec<SocketAddr>,
    /// Benchmark to request.
    pub benchmark: String,
    /// Ordering code (see [`crate::config::ordering_code`]).
    pub ordering: u8,
    /// TCP connect deadline.
    pub connect_timeout: Duration,
    /// Per-frame read deadline (a stalled stream turns into a
    /// reconnect, not a hang).
    pub read_timeout: Duration,
    /// Total connection attempts before giving up.
    pub max_attempts: u32,
    /// First reconnect backoff (per mirror).
    pub backoff_base: Duration,
    /// Backoff cap (per-mirror exponential growth stops here).
    pub backoff_cap: Duration,
    /// Test hook: deliberately drop the connection once, after this
    /// many units have been delivered in total — the wire-level
    /// crash-anywhere probe.
    pub disconnect_after_units: Option<u64>,
    /// Test hook: die for good (typed [`ClientError::Killed`]) once
    /// this many units have been delivered in total — the *process*
    /// crash probe. Unlike `disconnect_after_units` the session does
    /// not reconnect; a warm restart from a [`SessionStore`] is the
    /// only way forward.
    pub kill_after_units: Option<u64>,
    /// Keep full unit payloads in the report (the differential test
    /// feeds them back through the class-file stream loader).
    pub keep_payloads: bool,
}

impl ClientConfig {
    /// A single-mirror config with test-friendly defaults — the
    /// pre-fleet client, unchanged.
    #[must_use]
    pub fn new(addr: SocketAddr, benchmark: &str) -> ClientConfig {
        ClientConfig::with_mirrors(vec![addr], benchmark)
    }

    /// A config for an ordered mirror fleet.
    #[must_use]
    pub fn with_mirrors(mirrors: Vec<SocketAddr>, benchmark: &str) -> ClientConfig {
        ClientConfig {
            mirrors,
            benchmark: benchmark.to_owned(),
            ordering: 0,
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(2),
            max_attempts: 10,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(100),
            disconnect_after_units: None,
            kill_after_units: None,
            keep_payloads: false,
        }
    }
}

/// Why a session failed for good.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The config listed no mirrors at all.
    NoMirrors,
    /// Every allowed attempt was spent without completing.
    Exhausted {
        /// Attempts made.
        attempts: u32,
    },
    /// Every mirror equivocated against the pinned manifest or served
    /// forged units — there is nowhere trustworthy left to fetch from,
    /// and fail-closed beats executing unverified bytes.
    AllMirrorsQuarantined {
        /// How many mirrors were quarantined (the whole fleet).
        quarantined: u32,
    },
    /// The server declared the Hello incompatible (unknown benchmark or
    /// protocol mismatch) — retrying cannot help.
    Incompatible,
    /// The process-kill probe fired ([`ClientConfig::kill_after_units`]):
    /// the session is dead mid-transfer and only a warm restart from
    /// its durable store can continue it.
    Killed {
        /// Units delivered when the kill fired.
        delivered: u64,
    },
    /// A durable-store write failed: the session fails closed rather
    /// than let in-memory watermarks run ahead of the journal.
    Store {
        /// The persistence hook that failed.
        op: &'static str,
        /// The underlying store error, stringified.
        detail: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::NoMirrors => write!(f, "no mirrors configured"),
            ClientError::Exhausted { attempts } => {
                write!(f, "gave up after {attempts} connection attempts")
            }
            ClientError::AllMirrorsQuarantined { quarantined } => {
                write!(f, "all {quarantined} mirrors quarantined for equivocation")
            }
            ClientError::Incompatible => write!(f, "server rejected the session as incompatible"),
            ClientError::Killed { delivered } => {
                write!(f, "process killed after {delivered} delivered units")
            }
            ClientError::Store { op, detail } => {
                write!(f, "durable store failed at {op}: {detail}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// What one completed session looked like.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClientReport {
    /// Per-class delivered-unit watermarks.
    pub delivered: Vec<u32>,
    /// Per-class unit totals advertised by the server.
    pub units: Vec<u32>,
    /// Per-class layout epochs.
    pub epochs: Vec<u32>,
    /// CRC32 of every delivered unit payload, per class in unit order.
    pub unit_crcs: Vec<Vec<u32>>,
    /// Full unit payloads when [`ClientConfig::keep_payloads`] is set.
    pub payloads: Option<Vec<Vec<Vec<u8>>>>,
    /// Restructure generation of the pinned manifest.
    pub generation: u32,
    /// Manifest epoch pinned from the first Welcome.
    pub manifest_epoch: u64,
    /// CRC32 of the pinned manifest bytes.
    pub manifest_crc: u32,
    /// Connection attempts made (including the successful ones).
    pub connects: u32,
    /// Reconnects that landed on a different mirror than the previous
    /// attempt.
    pub failovers: u32,
    /// Mirrors quarantined for equivocation or forged units.
    pub quarantines: u32,
    /// Units refused because their bytes did not hash to the pinned
    /// manifest digest (each one quarantined its mirror).
    pub digest_rejects: u32,
    /// Welcomes refused for carrying a manifest that diverged from the
    /// pin under the same generation.
    pub equivocations: u32,
    /// Welcomes refused for carrying an older generation than the pin
    /// (a lagging mirror — backed off, not quarantined).
    pub stale_welcomes: u32,
    /// Admission Retry frames honored.
    pub admission_retries: u32,
    /// Evictions honored (drain or slow-consumer).
    pub evictions: u32,
    /// Stream faults survived: torn frames, CRC mismatches, timeouts,
    /// resets — anything that forced a fail-closed reconnect.
    pub stream_faults: u32,
    /// Protocol-order violations observed (out-of-order or out-of-range
    /// units) — each one forced a reconnect.
    pub order_violations: u32,
    /// Units delivered by each configured mirror, in mirror order —
    /// where the bytes actually came from.
    pub mirror_units: Vec<u64>,
    /// Final EWMA health of each configured mirror, in mirror order
    /// (zero for quarantined mirrors).
    pub mirror_health: Vec<u32>,
    /// Payload bytes accepted into the journal.
    pub bytes: u64,
    /// Units restored from the durable store at warm start (already
    /// verified against the pinned manifest; never refetched).
    pub warm_units: u64,
    /// True when every class reached its advertised unit total.
    pub complete: bool,
}

#[derive(Clone, Default)]
struct ClassState {
    epoch: u32,
    units: u32,
    delivered: u32,
    crcs: Vec<u32>,
    sizes: Vec<u32>,
    payloads: Vec<Vec<u8>>,
}

impl ClassState {
    fn bytes(&self) -> u64 {
        self.sizes.iter().map(|&s| u64::from(s)).sum()
    }
}

/// Per-mirror rotation state: health, backoff clock, quarantine flag.
struct MirrorState {
    addr: SocketAddr,
    health_ppm: u32,
    failures: u32,
    not_before: Option<Instant>,
    quarantined: bool,
    units: u64,
}

impl MirrorState {
    fn new(addr: SocketAddr) -> MirrorState {
        MirrorState {
            addr,
            health_ppm: HEALTH_FULL_PPM,
            failures: 0,
            not_before: None,
            quarantined: false,
            units: 0,
        }
    }
}

/// The manifest pinned from the first Welcome: the session's one source
/// of truth about what honest bytes look like.
struct PinnedManifest {
    generation: u32,
    epoch: u64,
    crc: u32,
    /// Decoded per-class, per-unit content digests.
    digests: Vec<Vec<u32>>,
}

/// The client session driver.
pub struct WireClient {
    config: ClientConfig,
    classes: Vec<ClassState>,
    mirrors: Vec<MirrorState>,
    pin: Option<PinnedManifest>,
    report: ClientReport,
    disconnect_fired: bool,
    delivered_total: u64,
    store: Option<Box<dyn SessionStore>>,
}

#[derive(Debug)]
enum Attempt {
    Done,
    /// Back off this mirror and reconnect (possibly elsewhere).
    /// `decay` distinguishes a fault (health drops) from polite
    /// admission pushback (health untouched).
    Backoff {
        hint: Duration,
        decay: bool,
    },
    /// This mirror diverged from the pinned manifest: remove it from
    /// the rotation permanently.
    Quarantine,
    Fatal(ClientError),
}

/// What a Welcome did to the pinned manifest.
enum Adopt {
    /// Consistent (or newly pinned): per-class expected next units.
    Go(Vec<u32>),
    /// Older generation than the pin: a lagging mirror.
    Stale,
    /// Same generation, different manifest: equivocation.
    Equivocation,
    /// Structurally impossible (undecodable manifest, advert/manifest
    /// shape mismatch, watermark regression).
    Violation,
    /// The durable store failed while persisting the pin or a reset:
    /// fail closed, the session is over.
    Broken(StoreFault),
}

impl WireClient {
    /// A fresh session for `config`.
    #[must_use]
    pub fn new(config: ClientConfig) -> WireClient {
        let mirrors = config
            .mirrors
            .iter()
            .copied()
            .map(MirrorState::new)
            .collect();
        WireClient {
            config,
            classes: Vec::new(),
            mirrors,
            pin: None,
            report: ClientReport::default(),
            disconnect_fired: false,
            delivered_total: 0,
            store: None,
        }
    }

    /// A session backed by a durable store: state recovered by
    /// [`SessionStore::warm_start`] seeds the session before the first
    /// connect, and every accepted unit is persisted at the boundary.
    #[must_use]
    pub fn with_store(config: ClientConfig, store: Box<dyn SessionStore>) -> WireClient {
        let mut client = WireClient::new(config);
        client.store = Some(store);
        client
    }

    /// Seeds the session from a warm-start snapshot. The manifest is
    /// re-decoded and re-pinned here — a snapshot whose manifest fails
    /// to decode, or whose spans lie outside its bytes, is discarded
    /// wholesale (cold start), because nothing in it can be verified
    /// without the pin. Payloads are copied out of the snapshot only
    /// when [`ClientConfig::keep_payloads`] is set.
    fn apply_warm(&mut self, warm: WarmSession) {
        let Some(manifest) = warm.bytes.get(warm.manifest.clone()) else {
            return;
        };
        let Ok(decoded) = UnitManifest::decode(manifest) else {
            return;
        };
        let payloads: Option<Vec<_>> = if self.config.keep_payloads {
            warm.classes.iter().map(|c| warm.payloads(c)).collect()
        } else {
            Some(vec![Vec::new(); warm.classes.len()])
        };
        let Some(payloads) = payloads else {
            return;
        };
        let crc = crc32(manifest);
        self.report.generation = warm.generation;
        self.report.manifest_epoch = decoded.epoch;
        self.report.manifest_crc = crc;
        self.pin = Some(PinnedManifest {
            generation: warm.generation,
            epoch: decoded.epoch,
            crc,
            digests: decoded.unit_digests,
        });
        self.classes = warm
            .classes
            .into_iter()
            .zip(payloads)
            .map(|(c, payloads)| ClassState {
                epoch: c.epoch,
                units: c.units,
                delivered: u32::try_from(c.crcs.len()).unwrap_or(u32::MAX),
                crcs: c.crcs,
                sizes: c.sizes,
                payloads,
            })
            .collect();
        self.delivered_total = self.classes.iter().map(|c| u64::from(c.delivered)).sum();
        self.report.warm_units = self.delivered_total;
    }

    /// Runs the session to completion: connect to the healthiest
    /// eligible mirror, resume from watermarks, survive faults by
    /// failing over with per-mirror capped backoff, and verify every
    /// unit against the pinned manifest.
    ///
    /// # Errors
    ///
    /// [`ClientError::Exhausted`] when `max_attempts` connections all
    /// fail to finish; [`ClientError::AllMirrorsQuarantined`] when
    /// every mirror equivocated; [`ClientError::Incompatible`] on a
    /// server-side rejection that retrying cannot fix;
    /// [`ClientError::NoMirrors`] on an empty mirror list.
    pub fn run(mut self) -> Result<ClientReport, ClientError> {
        if self.mirrors.is_empty() {
            return Err(ClientError::NoMirrors);
        }
        if let Some(mut store) = self.store.take() {
            let warm = store.warm_start();
            self.store = Some(store);
            if let Some(warm) = warm {
                self.apply_warm(warm);
            }
        }
        let mut last_mirror: Option<usize> = None;
        while self.report.connects < self.config.max_attempts {
            let Some(mi) = self.pick_mirror() else {
                return Err(ClientError::AllMirrorsQuarantined {
                    quarantined: u32::try_from(self.mirrors.len()).unwrap_or(u32::MAX),
                });
            };
            if let Some(not_before) = self.mirrors[mi].not_before.take() {
                let now = Instant::now();
                if not_before > now {
                    std::thread::sleep(not_before - now);
                }
            }
            self.report.connects += 1;
            if last_mirror.is_some_and(|prev| prev != mi) {
                self.report.failovers += 1;
            }
            last_mirror = Some(mi);
            match self.attempt(mi) {
                Attempt::Done => {
                    if let Some(store) = self.store.as_mut() {
                        if let Err(e) = store.on_complete() {
                            // The completion record never landed: the
                            // process is as good as dead at that write.
                            return Err(ClientError::Store {
                                op: e.op,
                                detail: e.detail,
                            });
                        }
                    }
                    self.finish_report();
                    return Ok(self.report);
                }
                Attempt::Backoff { hint, decay } => {
                    let mirror = &mut self.mirrors[mi];
                    if decay {
                        mirror.health_ppm = decay_health(mirror.health_ppm);
                    }
                    mirror.failures += 1;
                    let backoff = backoff_delay(
                        self.config.backoff_base,
                        self.config.backoff_cap,
                        mirror.failures,
                    );
                    let delay = hint.max(backoff).min(self.config.backoff_cap);
                    mirror.not_before = Some(Instant::now() + delay);
                }
                Attempt::Quarantine => {
                    let mirror = &mut self.mirrors[mi];
                    mirror.quarantined = true;
                    mirror.health_ppm = 0;
                    self.report.quarantines += 1;
                }
                Attempt::Fatal(e) => return Err(e),
            }
        }
        Err(ClientError::Exhausted {
            attempts: self.report.connects,
        })
    }

    /// The next mirror to try: healthiest non-quarantined mirror whose
    /// backoff clock has expired (ties prefer the earlier mirror); if
    /// every survivor is backing off, the one eligible soonest. `None`
    /// only when the whole fleet is quarantined.
    fn pick_mirror(&self) -> Option<usize> {
        let now = Instant::now();
        let mut best_ready: Option<usize> = None;
        for (i, mirror) in self.mirrors.iter().enumerate() {
            if mirror.quarantined {
                continue;
            }
            if mirror.not_before.is_none_or(|nb| nb <= now)
                && best_ready.is_none_or(|b| mirror.health_ppm > self.mirrors[b].health_ppm)
            {
                best_ready = Some(i);
            }
        }
        if best_ready.is_some() {
            return best_ready;
        }
        self.mirrors
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.quarantined)
            .min_by_key(|(_, m)| m.not_before.unwrap_or(now))
            .map(|(i, _)| i)
    }

    fn attempt(&mut self, mi: usize) -> Attempt {
        let addr = self.mirrors[mi].addr;
        let mut stream = match TcpStream::connect_timeout(&addr, self.config.connect_timeout) {
            Ok(s) => s,
            Err(_) => {
                self.report.stream_faults += 1;
                return Attempt::Backoff {
                    hint: Duration::ZERO,
                    decay: true,
                };
            }
        };
        if stream
            .set_read_timeout(Some(self.config.read_timeout))
            .is_err()
            || stream
                .set_write_timeout(Some(self.config.read_timeout))
                .is_err()
        {
            return Attempt::Backoff {
                hint: Duration::ZERO,
                decay: true,
            };
        }

        let hello = Frame::Hello {
            version: crate::frame::PROTOCOL_VERSION,
            benchmark: self.config.benchmark.clone(),
            ordering: self.config.ordering,
            resume: self.watermarks(),
        };
        if stream.write_all(&hello.encode()).is_err() || stream.flush().is_err() {
            self.report.stream_faults += 1;
            return Attempt::Backoff {
                hint: Duration::ZERO,
                decay: true,
            };
        }

        // Everything the server sends is read through one buffer, and
        // each frame is read out of it into a second one; this
        // connection owns both, so a reconnect starts fresh, and any
        // bytes still buffered are dropped with the connection.
        let mut reader = frame_reader(&stream);
        let mut frame = Vec::new();
        // First response decides the session: Welcome, Retry, or Evict.
        let first = read_frame_into(&mut reader, &mut frame).and_then(Frame::decode);
        let mut expected: Vec<u32> = match first.map(|(f, _)| f) {
            Ok(Frame::Welcome {
                generation,
                manifest_epoch,
                manifest,
                classes,
            }) => match self.adopt_welcome(generation, manifest_epoch, &manifest, &classes) {
                Adopt::Go(starts) => starts,
                Adopt::Stale => {
                    self.report.stale_welcomes += 1;
                    return Attempt::Backoff {
                        hint: Duration::ZERO,
                        decay: true,
                    };
                }
                Adopt::Equivocation => {
                    self.report.equivocations += 1;
                    return Attempt::Quarantine;
                }
                Adopt::Violation => {
                    self.report.order_violations += 1;
                    return Attempt::Backoff {
                        hint: Duration::ZERO,
                        decay: true,
                    };
                }
                Adopt::Broken(e) => {
                    return Attempt::Fatal(ClientError::Store {
                        op: e.op,
                        detail: e.detail,
                    })
                }
            },
            Ok(Frame::Retry { after_ms }) => {
                self.report.admission_retries += 1;
                // Polite pushback, not a fault: the mirror is healthy,
                // just busy — honor the hint without decaying it.
                return Attempt::Backoff {
                    hint: Duration::from_millis(u64::from(after_ms)),
                    decay: false,
                };
            }
            Ok(Frame::Evict {
                reason: EvictReason::Incompatible,
                ..
            }) => return Attempt::Fatal(ClientError::Incompatible),
            Ok(Frame::Evict {
                resume_after_ms, ..
            }) => {
                self.report.evictions += 1;
                return Attempt::Backoff {
                    hint: Duration::from_millis(u64::from(resume_after_ms)),
                    decay: true,
                };
            }
            Ok(_) => {
                self.report.order_violations += 1;
                return Attempt::Backoff {
                    hint: Duration::ZERO,
                    decay: true,
                };
            }
            Err(e) => return self.stream_fault(e),
        };

        loop {
            match read_frame_into(&mut reader, &mut frame).and_then(FrameView::parse) {
                Ok(FrameView::Unit(unit)) => {
                    if let Some(end) = self.on_unit(mi, &unit, &mut expected) {
                        return end;
                    }
                }
                Ok(FrameView::Other(Frame::Evict {
                    reason: EvictReason::Incompatible,
                    ..
                })) => return Attempt::Fatal(ClientError::Incompatible),
                Ok(FrameView::Other(Frame::Evict {
                    resume_after_ms, ..
                })) => {
                    self.report.evictions += 1;
                    return Attempt::Backoff {
                        hint: Duration::from_millis(u64::from(resume_after_ms)),
                        decay: true,
                    };
                }
                Ok(FrameView::Other(Frame::Bye { .. })) => {
                    if !self.classes.is_empty()
                        && self.classes.iter().all(|c| c.delivered == c.units)
                    {
                        return Attempt::Done;
                    }
                    // A premature Bye is a protocol violation; keep the
                    // watermarks and try again.
                    self.report.order_violations += 1;
                    return Attempt::Backoff {
                        hint: Duration::ZERO,
                        decay: true,
                    };
                }
                Ok(FrameView::Other(_)) => {
                    self.report.order_violations += 1;
                    return Attempt::Backoff {
                        hint: Duration::ZERO,
                        decay: true,
                    };
                }
                Err(e) => return self.stream_fault(e),
            }
        }
    }

    /// Takes one Unit frame, fail-closed in this order: a bad CRC is a
    /// stream fault; then an out-of-order or out-of-range unit is an
    /// order violation; then bytes that do not hash to the pinned
    /// manifest entry quarantine the mirror; only then is the unit
    /// accepted. Returns how the attempt ends, or `None` to read on.
    fn on_unit(&mut self, mi: usize, frame: &UnitFrame, expected: &mut [u32]) -> Option<Attempt> {
        let pin = self.pin.as_ref().expect("welcome pinned before units");
        let sums = match frame.check(pin.epoch) {
            Ok(sums) => sums,
            Err(e) => return Some(self.stream_fault(e)),
        };
        let (class, unit) = (frame.class, frame.unit);
        let ci = class as usize;
        let want = pin.digests.get(ci).and_then(|d| d.get(unit as usize));
        let Some(&want) = want.filter(|_| expected.get(ci) == Some(&unit)) else {
            // Out-of-order or out-of-range: fail closed. Nothing is
            // journaled; the reconnect resumes from the last good
            // boundary.
            self.report.order_violations += 1;
            return Some(Attempt::Backoff {
                hint: Duration::ZERO,
                decay: true,
            });
        };
        if sums.digest != want {
            // The frame CRC passed — whoever forged the bytes re-sealed
            // it — but the bytes don't hash to the *pinned* manifest
            // entry. This mirror is serving a different program:
            // quarantine.
            self.report.digest_rejects += 1;
            return Some(Attempt::Quarantine);
        }
        if let Err(e) = self.accept_unit(mi, ci, frame.payload, sums.payload_crc) {
            return Some(Attempt::Fatal(ClientError::Store {
                op: e.op,
                detail: e.detail,
            }));
        }
        expected[ci] += 1;
        if let Some(k) = self.config.kill_after_units {
            if self.delivered_total >= k {
                // The process-crash probe: die for good at this unit
                // boundary. The journal keeps everything accepted so
                // far.
                return Some(Attempt::Fatal(ClientError::Killed {
                    delivered: self.delivered_total,
                }));
            }
        }
        if let Some(k) = self.config.disconnect_after_units {
            if !self.disconnect_fired && self.delivered_total >= k {
                // The crash-anywhere probe: die exactly at this unit
                // boundary, once.
                self.disconnect_fired = true;
                self.report.stream_faults += 1;
                return Some(Attempt::Backoff {
                    hint: Duration::ZERO,
                    decay: true,
                });
            }
        }
        None
    }

    fn stream_fault(&mut self, _e: FrameError) -> Attempt {
        self.report.stream_faults += 1;
        Attempt::Backoff {
            hint: Duration::ZERO,
            decay: true,
        }
    }

    fn watermarks(&self) -> Vec<ResumeEntry> {
        self.classes
            .iter()
            .enumerate()
            .filter(|(_, c)| c.delivered > 0)
            .map(|(ci, c)| ResumeEntry {
                class: u32::try_from(ci).unwrap_or(u32::MAX),
                epoch: c.epoch,
                delivered: c.delivered,
            })
            .collect()
    }

    /// Applies a Welcome against the pinned manifest: orders its
    /// generation against the pin, verifies the manifest decodes and
    /// structurally matches the adverts, and reconciles per-class
    /// epochs and negotiated starts against local state.
    fn adopt_welcome(
        &mut self,
        generation: u32,
        manifest_epoch: u64,
        manifest: &[u8],
        adverts: &[ClassAdvert],
    ) -> Adopt {
        let manifest_crc = crc32(manifest);
        let repin = match &self.pin {
            None => true,
            Some(pin) if generation < pin.generation => return Adopt::Stale,
            Some(pin) if generation > pin.generation => {
                // A live rollover: the origin restructured ahead of us.
                // Everything held belongs to the old layout — discard
                // it all; a session never splices two generations.
                self.classes.clear();
                self.delivered_total = 0;
                if let Some(store) = self.store.as_mut() {
                    if let Err(e) = store.on_reset_all() {
                        return Adopt::Broken(e);
                    }
                }
                true
            }
            Some(pin) => {
                if pin.epoch != manifest_epoch || pin.crc != manifest_crc {
                    return Adopt::Equivocation;
                }
                false
            }
        };
        if repin {
            let Ok(decoded) = UnitManifest::decode(manifest) else {
                return Adopt::Violation;
            };
            if decoded.epoch != manifest_epoch {
                return Adopt::Violation;
            }
            if let Some(store) = self.store.as_mut() {
                if let Err(e) = store.on_pin(generation, manifest) {
                    return Adopt::Broken(e);
                }
            }
            self.report.generation = generation;
            self.report.manifest_epoch = manifest_epoch;
            self.report.manifest_crc = manifest_crc;
            self.pin = Some(PinnedManifest {
                generation,
                epoch: manifest_epoch,
                crc: manifest_crc,
                digests: decoded.unit_digests,
            });
        }
        // Structural agreement between the (pinned) manifest and this
        // Welcome's adverts: same class count, same per-class unit
        // counts. A mismatch means the mirror's Welcome contradicts the
        // manifest it just presented — fail closed.
        let pin = self.pin.as_ref().expect("pin exists after repin");
        if adverts.len() != pin.digests.len()
            || adverts
                .iter()
                .zip(&pin.digests)
                .any(|(a, d)| a.units as usize != d.len())
        {
            return Adopt::Violation;
        }
        if self.classes.len() > adverts.len() {
            return Adopt::Violation;
        }
        // A warm-start snapshot only knows the classes that journaled a
        // unit before the crash; the tail it never heard of is fresh.
        self.classes.resize_with(adverts.len(), ClassState::default);
        let mut expected = Vec::with_capacity(adverts.len());
        for (ci, advert) in adverts.iter().enumerate() {
            let class = &mut self.classes[ci];
            let class_id = u32::try_from(ci).unwrap_or(u32::MAX);
            if class.delivered == 0 {
                class.epoch = advert.epoch;
                class.units = advert.units;
            } else if class.epoch != advert.epoch || class.units != advert.units {
                // Epoch moved for a class we hold bytes of: discard the
                // stale bytes and restart the class.
                self.delivered_total -= u64::from(class.delivered);
                *class = ClassState {
                    epoch: advert.epoch,
                    units: advert.units,
                    ..ClassState::default()
                };
                if let Some(store) = self.store.as_mut() {
                    if let Err(e) = store.on_reset_class(class_id, advert.epoch, advert.units) {
                        return Adopt::Broken(e);
                    }
                }
            }
            let class = &mut self.classes[ci];
            if advert.start > class.delivered {
                // The server claims we hold units we never journaled.
                return Adopt::Violation;
            }
            // advert.start <= delivered: the server resumes from its
            // negotiated (possibly more conservative) start; re-receipt
            // of units we already hold would arrive out of order, so
            // truncate local state back to the negotiated start.
            if advert.start < class.delivered {
                let dropped = class.delivered - advert.start;
                self.delivered_total -= u64::from(dropped);
                class.crcs.truncate(advert.start as usize);
                class.sizes.truncate(advert.start as usize);
                class.payloads.truncate(advert.start as usize);
                class.delivered = advert.start;
                if let Some(store) = self.store.as_mut() {
                    if let Err(e) = store.on_truncate(class_id, advert.start) {
                        return Adopt::Broken(e);
                    }
                }
            }
            // Room for every unit the class still streams, so accepting
            // one never reallocates. The count is the pinned manifest's,
            // checked against the advert above.
            let room = (advert.units as usize).saturating_sub(class.crcs.len());
            class.crcs.reserve_exact(room);
            class.sizes.reserve_exact(room);
            expected.push(advert.start);
        }
        Adopt::Go(expected)
    }

    fn accept_unit(
        &mut self,
        mi: usize,
        ci: usize,
        payload: &[u8],
        crc: u32,
    ) -> Result<(), StoreFault> {
        let class = &mut self.classes[ci];
        class.crcs.push(crc);
        class
            .sizes
            .push(u32::try_from(payload.len()).unwrap_or(u32::MAX));
        if self.config.keep_payloads {
            class.payloads.push(payload.to_vec());
        }
        class.delivered += 1;
        let (unit, epoch, units) = (class.delivered - 1, class.epoch, class.units);
        self.delivered_total += 1;
        let mirror = &mut self.mirrors[mi];
        mirror.units += 1;
        mirror.health_ppm = boost_health(mirror.health_ppm);
        if let Some(store) = self.store.as_mut() {
            // Persist *before* the unit counts as delivered to any
            // observer: a store failure here is process death, and the
            // journal must never lag what the session believes.
            store.on_unit(
                u32::try_from(ci).unwrap_or(u32::MAX),
                unit,
                epoch,
                units,
                payload,
            )?;
        }
        Ok(())
    }

    fn finish_report(&mut self) {
        self.report.bytes = self.classes.iter().map(ClassState::bytes).sum();
        self.report.delivered = self.classes.iter().map(|c| c.delivered).collect();
        self.report.units = self.classes.iter().map(|c| c.units).collect();
        self.report.epochs = self.classes.iter().map(|c| c.epoch).collect();
        self.report.unit_crcs = self.classes.iter().map(|c| c.crcs.clone()).collect();
        if self.config.keep_payloads {
            self.report.payloads = Some(self.classes.iter().map(|c| c.payloads.clone()).collect());
        }
        self.report.mirror_units = self.mirrors.iter().map(|m| m.units).collect();
        self.report.mirror_health = self.mirrors.iter().map(|m| m.health_ppm).collect();
        self.report.complete =
            !self.classes.is_empty() && self.classes.iter().all(|c| c.delivered == c.units);
    }
}

fn backoff_delay(base: Duration, cap: Duration, consecutive_failures: u32) -> Duration {
    let shift = consecutive_failures.saturating_sub(1).min(16);
    base.saturating_mul(1u32 << shift).min(cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One attempt against a fake mirror that answers the Hello with
    /// the `tiny` plan's Welcome followed by `frames`, then holds the
    /// connection open until the client hangs up (so the attempt ends on
    /// what the frames did, never on an early EOF).
    fn attempt_against(frames: Vec<u8>) -> (WireClient, Attempt) {
        use std::net::TcpListener;
        let plan = crate::server::tests::tiny_plan();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mirror = std::thread::spawn(move || {
            let (mut peer, _) = listener.accept().expect("accept");
            crate::frame::read_frame(&mut peer).expect("hello");
            let mut out = Frame::Welcome {
                generation: plan.generation,
                manifest_epoch: plan.manifest_epoch,
                manifest: plan.manifest.clone(),
                classes: plan.negotiate(&[]),
            }
            .encode();
            out.extend_from_slice(&frames);
            peer.write_all(&out).expect("frames");
            let _ = peer.read(&mut [0u8; 1]);
        });
        let mut client = WireClient::new(ClientConfig::new(addr, "tiny"));
        let end = client.attempt(0);
        mirror.join().expect("mirror");
        (client, end)
    }

    /// `tiny`'s unit `unit` of class 0, with `payload` in place of its
    /// bytes when given, under a valid frame CRC.
    fn tiny_unit(unit: u32, payload: Option<&[u8]>) -> Vec<u8> {
        let plan = crate::server::tests::tiny_plan();
        let bytes = payload.unwrap_or(&plan.classes[0].units[unit as usize]);
        Frame::Unit {
            class: 0,
            unit,
            payload: bytes.to_vec(),
        }
        .encode()
    }

    #[test]
    fn a_corrupted_unit_frame_is_a_stream_fault_before_anything_else() {
        // Byte 5 is the class id: flipped, the frame also names a class
        // that does not exist, which must not count as an order
        // violation. Byte 13 is the payload: flipped, the bytes also
        // miss their digest, which must not quarantine the mirror.
        for at in [5, 13] {
            let mut frame = tiny_unit(0, None);
            frame[at] ^= 0x40;
            let (client, end) = attempt_against(frame);
            assert!(
                matches!(end, Attempt::Backoff { decay: true, .. }),
                "{at}: {end:?}"
            );
            let r = &client.report;
            assert_eq!(r.stream_faults, 1, "flip at {at}");
            assert_eq!(
                (r.order_violations, r.digest_rejects),
                (0, 0),
                "flip at {at}"
            );
            assert_eq!(client.delivered_total, 0);
        }
    }

    #[test]
    fn an_out_of_order_unit_is_an_order_violation_before_a_digest_check() {
        let (client, end) = attempt_against(tiny_unit(1, Some(b"forged and early")));
        assert!(
            matches!(end, Attempt::Backoff { decay: true, .. }),
            "{end:?}"
        );
        let r = &client.report;
        assert_eq!(
            (r.stream_faults, r.order_violations, r.digest_rejects),
            (0, 1, 0)
        );
    }

    #[test]
    fn a_forged_unit_under_a_valid_crc_quarantines_its_mirror() {
        let (client, end) = attempt_against(tiny_unit(0, Some(b"prelude bytez")));
        assert!(matches!(end, Attempt::Quarantine), "{end:?}");
        let r = &client.report;
        assert_eq!(
            (r.stream_faults, r.order_violations, r.digest_rejects),
            (0, 0, 1)
        );
        assert_eq!(client.delivered_total, 0, "a forged unit is never accepted");
    }

    #[test]
    fn a_unit_frame_too_short_for_its_ids_is_a_stream_fault() {
        for len in 0..8u32 {
            let mut frame = vec![crate::frame::KIND_UNIT];
            frame.extend_from_slice(&len.to_le_bytes());
            frame.resize(5 + len as usize, 0);
            let crc = crc32(&frame);
            frame.extend_from_slice(&crc.to_le_bytes());
            let (client, end) = attempt_against(frame);
            assert!(
                matches!(end, Attempt::Backoff { decay: true, .. }),
                "{len}: {end:?}"
            );
            let r = &client.report;
            assert_eq!((r.stream_faults, r.order_violations), (1, 0), "len {len}");
        }
    }

    #[test]
    fn honest_units_are_accepted_with_their_payload_crcs() {
        let mut frames = tiny_unit(0, None);
        frames.extend(tiny_unit(1, None));
        frames.extend(
            Frame::Bye {
                classes: 1,
                bytes: 0,
            }
            .encode(),
        );
        let (client, end) = attempt_against(frames);
        assert!(matches!(end, Attempt::Done), "{end:?}");
        let plan = crate::server::tests::tiny_plan();
        let want: Vec<u32> = plan.classes[0].units.iter().map(|u| crc32(u)).collect();
        assert_eq!(client.classes[0].crcs, want);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let base = Duration::from_millis(2);
        let cap = Duration::from_millis(50);
        assert_eq!(backoff_delay(base, cap, 1), Duration::from_millis(2));
        assert_eq!(backoff_delay(base, cap, 2), Duration::from_millis(4));
        assert_eq!(backoff_delay(base, cap, 3), Duration::from_millis(8));
        assert_eq!(backoff_delay(base, cap, 10), cap);
        assert_eq!(backoff_delay(base, cap, 33), cap);
    }

    #[test]
    fn health_decays_to_exactly_zero_and_boosts_back_to_full() {
        // Property hammer: from every starting point — full score,
        // powers of two, the sub-shift band where an unfloored step
        // would freeze, and a seeded spread of values — repeated decay
        // is strictly monotone while positive, never wraps, reaches
        // exactly zero in bounded steps, and zero is a fixed point.
        let starts: Vec<u32> = (0..=16)
            .map(|k| 1u32 << k)
            .chain([HEALTH_FULL_PPM, 999_999, 12_345, 7, 6, 5, 4, 3, 2, 1, 0])
            .chain((0..64).map(|i| {
                crate::SplitMix64(0x000d_eca7 ^ i).next_u64() as u32 % (HEALTH_FULL_PPM + 1)
            }))
            .collect();
        for start in starts {
            let mut h = start;
            let mut steps = 0u32;
            while h > 0 {
                let next = decay_health(h);
                assert!(next < h, "decay from {start} stalled at {h}");
                h = next;
                steps += 1;
                assert!(steps <= 256, "decay from {start} did not converge");
            }
            assert_eq!(decay_health(0), 0, "zero is a fixed point");
        }
        // Goodput recovers: folding full-health samples converges back
        // to (and never exceeds) full.
        let mut h = 0u32;
        for _ in 0..256 {
            h = boost_health(h);
            assert!(h <= HEALTH_FULL_PPM);
        }
        assert_eq!(boost_health(HEALTH_FULL_PPM), HEALTH_FULL_PPM);
        // Any in-range goodput sample keeps an in-range score in range.
        for h in [0, 7, 12_345, 999_999, HEALTH_FULL_PPM] {
            for sample in [0, 1, 500_000, HEALTH_FULL_PPM] {
                assert!(ewma_health(h, sample) <= HEALTH_FULL_PPM);
            }
        }
    }

    #[test]
    fn mirror_selection_prefers_health_then_order() {
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let config = ClientConfig::with_mirrors(vec![addr, addr, addr], "hanoi");
        let mut client = WireClient::new(config);
        // All healthy: order is the tiebreak.
        assert_eq!(client.pick_mirror(), Some(0));
        // Mirror 0 faults: the healthier mirror 1 wins.
        client.mirrors[0].health_ppm = decay_health(client.mirrors[0].health_ppm);
        assert_eq!(client.pick_mirror(), Some(1));
        // Mirror 1 backing off: mirror 2 is the healthiest *eligible*.
        client.mirrors[1].not_before = Some(Instant::now() + Duration::from_secs(60));
        assert_eq!(client.pick_mirror(), Some(2));
        // Everyone quarantined or waiting: soonest-eligible survivor.
        client.mirrors[2].quarantined = true;
        client.mirrors[0].not_before = Some(Instant::now() + Duration::from_secs(120));
        assert_eq!(client.pick_mirror(), Some(1));
        // Whole fleet quarantined: nowhere left.
        client.mirrors[0].quarantined = true;
        client.mirrors[1].quarantined = true;
        assert_eq!(client.pick_mirror(), None);
    }
}
