//! # nonstrict-store
//!
//! Crash-safe durable state for the non-strict transfer client.
//!
//! The paper's premise is that a mobile client starts executing before
//! transfer completes — but on a real device the client *process* dies
//! too: power loss, OOM kill, app eviction. Every robustness tier below
//! this crate survives **connection** death; this crate makes the
//! session survive **process** death, and does it under a storage fault
//! model as hostile as the network one the chaos conductor already
//! composes.
//!
//! * [`vfs`] — a tiny [`vfs::Vfs`] trait with two implementations:
//!   [`vfs::RealFs`], which enforces the write-temp / fsync /
//!   atomic-rename discipline on a real directory, and [`vfs::FaultFs`],
//!   a seeded in-memory twin that models what a power cut actually does
//!   to undisciplined storage — torn writes (prefix truncation at any
//!   byte), fsync lies (acknowledged writes that never became durable,
//!   which is also how reordered writes surface: a later write persists
//!   while an earlier acked one vanishes), post-hoc bit rot, and a
//!   kill-at-operation counter that dies at exactly the Nth mutating
//!   VFS call.
//! * [`log`] — [`log::JournalLog`], an append-oriented CRC-framed record
//!   log (`NSJL`). Recovery scans frames front to back: a torn tail
//!   (the crash cut an append mid-frame) is truncated back to the last
//!   valid frame and reported; anything else — bad magic, bad version,
//!   a mid-file CRC mismatch, an oversized declared length — fails
//!   closed with a typed [`StoreError`]. An append writes one frame and
//!   never reads the file back.
//! * [`session`] — [`session::DurableSession`], the glue: it implements
//!   the wire client's [`nonstrict_wire::client::SessionStore`] hook so
//!   a [`nonstrict_wire::WireClient`] persists its manifest pin, its
//!   per-unit watermarks and the unit bytes as it streams — all of it
//!   in one NSJL file, one append per unit — and can warm-resume after
//!   a process kill from the longest verified prefix the store can
//!   prove. Every reloaded unit is re-hashed against the pinned
//!   manifest's NSUM content digest, so a rotted or poisoned record is
//!   detected and refetched — never executed.
//!
//! The crate sits directly above `nonstrict-wire` (for the shared CRC32
//! and the NSUM digest arithmetic) and below everything else, so both
//! the simulator's chaos conductor and the real wire client reach the
//! same durability code.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod log;
pub mod session;
pub mod vfs;

pub use log::{JournalLog, Recovered, LOG_MAGIC, LOG_VERSION, MAX_RECORD_BYTES};
pub use session::{DurableSession, RecoveredSession, JOURNAL_NAME};
pub use vfs::{FaultFs, FaultKnobs, RealFs, Vfs};

/// Why a store operation failed. Every on-disk artifact this crate
/// reads is hostile until proven otherwise: decode problems map to a
/// typed variant, never a panic, and integrity problems are
/// distinguished from plain I/O so callers can fail closed on the
/// former and retry the latter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The named file does not exist.
    NotFound {
        /// The missing name.
        name: String,
    },
    /// An operating-system I/O failure.
    Io {
        /// The VFS operation that failed.
        op: &'static str,
        /// The file it failed on.
        name: String,
        /// The OS error, stringified.
        detail: String,
    },
    /// The fault-injecting backend killed the process at this mutating
    /// operation (the storage crash-anywhere probe). Every later call
    /// on the same [`FaultFs`] keeps failing with this until
    /// [`FaultFs::crash`] restarts it.
    Killed {
        /// The 1-based mutating-operation index the kill fired at.
        op: u64,
    },
    /// A frame does not start with its expected magic.
    BadMagic {
        /// Which format was being decoded.
        what: &'static str,
    },
    /// A frame declares a version this reader does not understand.
    BadVersion {
        /// Which format was being decoded.
        what: &'static str,
        /// The declared version.
        version: u16,
    },
    /// The bytes end before the declared content does (torn write).
    Truncated {
        /// Which format was being decoded.
        what: &'static str,
    },
    /// A CRC32 trailer does not match the content (bit rot or forgery).
    CrcMismatch {
        /// Which format was being decoded.
        what: &'static str,
    },
    /// A declared length exceeds its sanity cap — rejected before any
    /// allocation, exactly like the wire frame and NSUM decoders.
    Oversized {
        /// Which field declared the length.
        what: &'static str,
        /// The declared value.
        declared: u64,
        /// The cap it violated.
        cap: u64,
    },
    /// Structurally impossible content.
    Malformed {
        /// Which format was being decoded.
        what: &'static str,
        /// What was wrong with it.
        why: &'static str,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NotFound { name } => write!(f, "{name}: not found"),
            StoreError::Io { op, name, detail } => write!(f, "{op} {name}: {detail}"),
            StoreError::Killed { op } => write!(f, "killed at store operation {op}"),
            StoreError::BadMagic { what } => write!(f, "{what}: magic mismatch"),
            StoreError::BadVersion { what, version } => {
                write!(f, "{what}: unsupported version {version}")
            }
            StoreError::Truncated { what } => write!(f, "{what}: truncated (torn write)"),
            StoreError::CrcMismatch { what } => write!(f, "{what}: CRC mismatch"),
            StoreError::Oversized {
                what,
                declared,
                cap,
            } => write!(f, "oversized {what}: declared {declared}, cap {cap}"),
            StoreError::Malformed { what, why } => write!(f, "malformed {what}: {why}"),
        }
    }
}

impl std::error::Error for StoreError {}
