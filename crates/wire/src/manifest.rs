//! The content-addressed NSUM unit manifest, at the wire layer.
//!
//! A mirror fleet is only as trustworthy as its least honest mirror: a
//! forged unit can pass the frame-level CRC perfectly — the CRC travels
//! *with* the bytes, so whoever forges the bytes can re-seal the
//! trailer too. The defense is to move the fingerprints out of band:
//! the client pins the manifest carried by the **first** `Welcome` of a
//! session and verifies every delivered unit against its manifest entry
//! at the unit boundary, so a mirror serving wrong bytes is detected
//! one unit after it first diverges, quarantined, and failed over like
//! a dead mirror.
//!
//! This module owns the NSUM wire format (magic, version, epoch,
//! per-class digest lists, CRC32 trailer over every preceding byte) so
//! the real wire client can decode what it pinned. The simulator's
//! manifest layer (`nonstrict-core`) re-exports this codec — the
//! simulated Byzantine defenses and the socket-level ones share one
//! frame format and one decoder, exactly as they share one CRC32.
//!
//! Two digest flavors coexist, both FNV-1a folded to 32 bits and both
//! keyed by the restructure epoch (non-linear on purpose: CRC32 is
//! affine, so an epoch bump would shift every digest by one XOR
//! constant, and that uniform difference can cancel inside the outer
//! frame CRC):
//!
//! * [`UnitManifest::digest_of`] — the **size-bound** digest the
//!   co-simulator uses; it models content at unit-size granularity.
//! * [`content_digest_of`] — the **byte-level** digest the real wire
//!   uses; it covers the unit's actual payload, so a same-size byte
//!   forgery with a re-sealed frame CRC is still caught at the
//!   boundary.

use crate::caps;
use crate::crc::crc32;
use crate::frame::{check_count, FrameError};

/// Manifest magic: identifies the frame and its byte order.
pub const MANIFEST_MAGIC: [u8; 4] = *b"NSUM";

/// Current manifest wire-format version.
pub const MANIFEST_VERSION: u16 = 1;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Why a manifest frame could not be trusted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManifestError {
    /// The buffer does not start with [`MANIFEST_MAGIC`].
    BadMagic,
    /// The version field is newer than this reader understands.
    BadVersion(u16),
    /// The buffer ended before the declared content did (torn write).
    Truncated,
    /// The CRC32 trailer does not match the content.
    CrcMismatch,
    /// Structurally impossible content.
    Malformed(&'static str),
    /// A declared count exceeds its sanity cap. Rejected *before* any
    /// buffer is allocated — a forged length field (the CRC is not a
    /// MAC) must not make the decoder reserve gigabytes.
    Oversized {
        /// Which field declared the count.
        what: &'static str,
        /// The declared value.
        declared: u64,
        /// The cap it violated (see [`crate::caps`]).
        cap: u64,
    },
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::BadMagic => write!(f, "manifest magic mismatch"),
            ManifestError::BadVersion(v) => write!(f, "unsupported manifest version {v}"),
            ManifestError::Truncated => write!(f, "manifest truncated (torn write)"),
            ManifestError::CrcMismatch => write!(f, "manifest CRC mismatch"),
            ManifestError::Malformed(what) => write!(f, "malformed manifest: {what}"),
            ManifestError::Oversized {
                what,
                declared,
                cap,
            } => write!(
                f,
                "oversized manifest {what}: declared {declared}, cap {cap}"
            ),
        }
    }
}

impl std::error::Error for ManifestError {}

/// The byte-level content digest of one unit under `epoch`: FNV-1a
/// over the epoch/class/unit header followed by the unit's payload
/// bytes, folded to 32 bits. This is what the wire client recomputes
/// for every delivered `Unit` frame and compares against the pinned
/// manifest entry — a forged payload of the *same size* under a
/// re-sealed frame CRC still lands on a different digest.
///
/// The wire client and the durable store compute the same value inside
/// their one pass over a unit's bytes ([`crate::crc::unit_sums`]), from
/// the same head, step and fold helpers.
#[must_use]
pub fn content_digest_of(epoch: u64, class: u32, unit: u32, payload: &[u8]) -> u32 {
    digest_fold(fnv(digest_head(epoch, class, unit), payload))
}

/// The content digest's state after its key: FNV-1a over `epoch`,
/// `class` and `unit`, little-endian.
#[must_use]
pub(crate) fn digest_head(epoch: u64, class: u32, unit: u32) -> u64 {
    let mut head = [0u8; 16];
    head[..8].copy_from_slice(&epoch.to_le_bytes());
    head[8..12].copy_from_slice(&class.to_le_bytes());
    head[12..16].copy_from_slice(&unit.to_le_bytes());
    fnv(FNV_OFFSET, &head)
}

/// One FNV-1a step: folds `byte` into the state `h`.
#[must_use]
#[inline]
pub(crate) fn digest_step(h: u64, byte: u8) -> u64 {
    (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
}

/// Folds a 64-bit FNV-1a state to the 32-bit digest.
#[must_use]
#[inline]
pub(crate) fn digest_fold(h: u64) -> u32 {
    #[allow(clippy::cast_possible_truncation)]
    {
        (h ^ (h >> 32)) as u32
    }
}

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| digest_step(h, b))
}

/// The content-addressed unit manifest: one digest per transfer unit,
/// all bound to the restructure epoch they were published under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitManifest {
    /// Restructure-epoch id: the combined layout fingerprint of the
    /// restructured program this manifest describes. Re-restructuring
    /// moves the epoch, and with it every unit digest.
    pub epoch: u64,
    /// Per-class, per-unit digests, in stream order (unit 0 is the
    /// prelude).
    pub unit_digests: Vec<Vec<u32>>,
}

impl UnitManifest {
    /// The size-bound digest of one unit under `epoch`: a fingerprint
    /// of the unit's identity and size bound to the restructure epoch.
    /// The co-simulator models content at unit-size granularity, so
    /// this is the fingerprint it computes; the real wire uses the
    /// byte-level [`content_digest_of`] instead.
    #[must_use]
    pub fn digest_of(epoch: u64, class: u32, unit: u32, size: u64) -> u32 {
        let mut buf = [0u8; 24];
        buf[..8].copy_from_slice(&epoch.to_le_bytes());
        buf[8..12].copy_from_slice(&class.to_le_bytes());
        buf[12..16].copy_from_slice(&unit.to_le_bytes());
        buf[16..24].copy_from_slice(&size.to_le_bytes());
        digest_fold(fnv(FNV_OFFSET, &buf))
    }

    /// Builds a manifest from per-class unit payloads using the
    /// byte-level [`content_digest_of`] — the flavor the wire serves
    /// and the wire client verifies against.
    #[must_use]
    pub fn from_payloads(units: &[Vec<Vec<u8>>], epoch: u64) -> UnitManifest {
        let unit_digests = units
            .iter()
            .enumerate()
            .map(|(c, class)| {
                let class_id = u32::try_from(c).expect("class index fits u32");
                class
                    .iter()
                    .enumerate()
                    .map(|(i, payload)| {
                        let unit = u32::try_from(i).expect("unit index fits u32");
                        content_digest_of(epoch, class_id, unit, payload)
                    })
                    .collect()
            })
            .collect();
        UnitManifest {
            epoch,
            unit_digests,
        }
    }

    /// Serializes the manifest: magic, version, epoch, per-class digest
    /// lists, CRC32 trailer — the same fail-closed framing as the
    /// session journal.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(usize::try_from(self.wire_bytes()).unwrap_or(64));
        buf.extend_from_slice(&MANIFEST_MAGIC);
        buf.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        buf.extend_from_slice(&self.epoch.to_le_bytes());
        let nclasses = u32::try_from(self.unit_digests.len()).expect("class count fits u32");
        buf.extend_from_slice(&nclasses.to_le_bytes());
        for class in &self.unit_digests {
            let n = u32::try_from(class.len()).expect("unit count fits u32");
            buf.extend_from_slice(&n.to_le_bytes());
            for d in class {
                buf.extend_from_slice(&d.to_le_bytes());
            }
        }
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Deserializes and integrity-checks a manifest frame.
    ///
    /// # Errors
    ///
    /// Any structural or integrity problem — wrong magic, unknown
    /// version, truncation, CRC mismatch, trailing garbage — is an
    /// error; a manifest either decodes exactly or not at all.
    pub fn decode(bytes: &[u8]) -> Result<UnitManifest, ManifestError> {
        if bytes.len() < MANIFEST_MAGIC.len() + 2 + 8 + 4 + 4 {
            return Err(ManifestError::Truncated);
        }
        if bytes[..4] != MANIFEST_MAGIC {
            return Err(ManifestError::BadMagic);
        }
        let (content, trailer) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(trailer.try_into().expect("len"));
        if crc32(content) != stored {
            return Err(ManifestError::CrcMismatch);
        }
        let mut pos = 4;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], ManifestError> {
            let end = pos.checked_add(n).ok_or(ManifestError::Truncated)?;
            if end > content.len() {
                return Err(ManifestError::Truncated);
            }
            let s = &content[*pos..end];
            *pos = end;
            Ok(s)
        };
        let version = u16::from_le_bytes(take(&mut pos, 2)?.try_into().expect("len"));
        if version != MANIFEST_VERSION {
            return Err(ManifestError::BadVersion(version));
        }
        let epoch = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("len"));
        // Length-prefix sanity: every declared count is checked against
        // its cap AND the bytes actually remaining before any Vec is
        // reserved — a forged count re-sealed under a fresh CRC must
        // not make the decoder allocate gigabytes.
        let checked = |pos: usize, what: &'static str, n: u32, cap: usize, each: usize| {
            let remaining = content.len().saturating_sub(pos);
            check_count(what, u64::from(n), cap, remaining, each).map_err(|e| match e {
                FrameError::Oversized {
                    what,
                    declared,
                    cap,
                } => ManifestError::Oversized {
                    what,
                    declared,
                    cap,
                },
                _ => ManifestError::Truncated,
            })
        };
        let nclasses = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("len"));
        let nclasses = checked(pos, "class count", nclasses, caps::MAX_CLASSES, 4)?;
        let mut unit_digests = Vec::with_capacity(nclasses);
        for _ in 0..nclasses {
            let n = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("len"));
            let n = checked(pos, "unit count", n, caps::MAX_UNITS_PER_CLASS, 4)?;
            let mut class = Vec::with_capacity(n);
            for _ in 0..n {
                class.push(u32::from_le_bytes(
                    take(&mut pos, 4)?.try_into().expect("len"),
                ));
            }
            unit_digests.push(class);
        }
        if pos != content.len() {
            return Err(ManifestError::Malformed("trailing bytes after content"));
        }
        Ok(UnitManifest {
            epoch,
            unit_digests,
        })
    }

    /// Exact wire size of the encoded frame, without encoding: this is
    /// what the client's initial pin (and every epoch-fence re-pin)
    /// pays on the link.
    #[must_use]
    pub fn wire_bytes(&self) -> u64 {
        let header = 4 + 2 + 8 + 4;
        let body: u64 = self
            .unit_digests
            .iter()
            .map(|c| 4 + 4 * c.len() as u64)
            .sum();
        header + body + 4
    }

    /// The pinned manifest digest: the frame's own CRC trailer, i.e.
    /// the CRC32 of every encoded byte *before* the trailer. (Hashing
    /// the whole frame including the trailer would be useless: CRC32
    /// of a message with its own CRC appended is the constant residue
    /// `0x2144_DF1C` for every message.) The client stores this in its
    /// session journal (format v3) so a reconnect can tell whether the
    /// origin's manifest moved while it was away.
    #[must_use]
    pub fn digest(&self) -> u32 {
        let frame = self.encode();
        crc32(&frame[..frame.len() - 4])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> UnitManifest {
        UnitManifest {
            epoch: 0x1234_5678_9abc_def0,
            unit_digests: vec![vec![1, 2, 3], vec![], vec![0xdead_beef]],
        }
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let m = sample();
        let bytes = m.encode();
        assert_eq!(bytes.len() as u64, m.wire_bytes());
        assert_eq!(UnitManifest::decode(&bytes).unwrap(), m);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            for bit in [0x01u8, 0x80u8] {
                let mut bad = bytes.clone();
                bad[i] ^= bit;
                assert!(
                    UnitManifest::decode(&bad).is_err(),
                    "flip at byte {i} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample().encode();
        for n in 0..bytes.len() {
            assert!(
                UnitManifest::decode(&bytes[..n]).is_err(),
                "truncation to {n} bytes went undetected"
            );
        }
        let mut padded = bytes;
        padded.push(0);
        assert!(UnitManifest::decode(&padded).is_err());
    }

    #[test]
    fn forged_counts_are_oversized_before_allocation() {
        let bytes = sample().encode();
        let reseal = |mut b: Vec<u8>, at: usize, v: u32| {
            b[at..at + 4].copy_from_slice(&v.to_le_bytes());
            let crc_at = b.len() - 4;
            let crc = crc32(&b[..crc_at]);
            b[crc_at..].copy_from_slice(&crc.to_le_bytes());
            b
        };
        // Class count sits after magic (4) + version (2) + epoch (8).
        let nclasses_at = 14;
        let huge = reseal(bytes.clone(), nclasses_at, u32::MAX);
        assert!(matches!(
            UnitManifest::decode(&huge),
            Err(ManifestError::Oversized {
                what: "class count",
                ..
            })
        ));
        // Under the cap but beyond the bytes present: truncated, still
        // before any allocation.
        let hollow = reseal(bytes.clone(), nclasses_at, 10_000);
        assert_eq!(UnitManifest::decode(&hollow), Err(ManifestError::Truncated));
        // First per-class unit count sits right after the class count.
        let forged_units = reseal(bytes, nclasses_at + 4, u32::MAX);
        assert!(matches!(
            UnitManifest::decode(&forged_units),
            Err(ManifestError::Oversized {
                what: "unit count",
                ..
            })
        ));
    }

    #[test]
    fn size_digests_move_with_epoch_class_unit_and_size() {
        let base = UnitManifest::digest_of(7, 1, 2, 100);
        assert_eq!(base, UnitManifest::digest_of(7, 1, 2, 100));
        assert_ne!(base, UnitManifest::digest_of(8, 1, 2, 100));
        assert_ne!(base, UnitManifest::digest_of(7, 2, 2, 100));
        assert_ne!(base, UnitManifest::digest_of(7, 1, 3, 100));
        assert_ne!(base, UnitManifest::digest_of(7, 1, 2, 101));
    }

    #[test]
    fn content_digests_move_with_every_byte_and_every_key() {
        let payload = b"method bytes".to_vec();
        let base = content_digest_of(7, 1, 2, &payload);
        assert_eq!(base, content_digest_of(7, 1, 2, &payload));
        assert_ne!(base, content_digest_of(8, 1, 2, &payload));
        assert_ne!(base, content_digest_of(7, 2, 2, &payload));
        assert_ne!(base, content_digest_of(7, 1, 3, &payload));
        for i in 0..payload.len() {
            let mut forged = payload.clone();
            forged[i] ^= 0x01;
            assert_ne!(
                base,
                content_digest_of(7, 1, 2, &forged),
                "same-size forgery at byte {i} went undetected"
            );
        }
        // Size changes move the digest too (append and truncate).
        let mut longer = payload.clone();
        longer.push(0);
        assert_ne!(base, content_digest_of(7, 1, 2, &longer));
        assert_ne!(
            base,
            content_digest_of(7, 1, 2, &payload[..payload.len() - 1])
        );
    }

    #[test]
    fn from_payloads_matches_recomputed_content_digests() {
        let units = vec![
            vec![b"prelude".to_vec(), b"method a".to_vec()],
            vec![b"other prelude".to_vec()],
        ];
        let m = UnitManifest::from_payloads(&units, 42);
        assert_eq!(m.unit_digests.len(), 2);
        for (c, class) in units.iter().enumerate() {
            for (u, payload) in class.iter().enumerate() {
                assert_eq!(
                    m.unit_digests[c][u],
                    content_digest_of(42, c as u32, u as u32, payload)
                );
            }
        }
        // An epoch bump moves every content digest.
        let moved = UnitManifest::from_payloads(&units, 43);
        for (a, b) in m
            .unit_digests
            .iter()
            .flatten()
            .zip(moved.unit_digests.iter().flatten())
        {
            assert_ne!(a, b, "an epoch bump must move every unit digest");
        }
        assert_ne!(m.digest(), moved.digest());
    }
}
