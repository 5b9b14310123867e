//! The canonical CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//!
//! One implementation serves every integrity check in the workspace:
//! the simulated per-unit trailer in `nonstrict-netsim`, the NSJL log
//! frames in `nonstrict-store`, the NSUM manifest frame,
//! and every wire frame this crate puts on a socket. Sharing the arithmetic is what
//! makes the simulator an honest test double for the wire — a unit that
//! passes the simulated check passes the real one, bit for bit.
//!
//! The arithmetic is table-driven slicing-by-8: eight 256-entry tables,
//! built at compile time by a `const fn`, fold eight input bytes per
//! step, and a tail shorter than eight bytes takes the one-table
//! bytewise step. It returns the same value as the bit-at-a-time
//! definition for every input, so frames, NSJL/NSUC files and corpus
//! artifacts written before it still verify. The tests keep that
//! bitwise loop as the oracle and compare the two on every chunk-tail
//! shape.
//!
//! [`unit_sums`] runs a unit's frame CRC, the payload's own CRC and
//! its FNV-1a content digest in one loop over the payload instead of
//! three. The wire client checks each `Unit` frame with it, and the
//! durable store checks each journaled unit record with it on a warm
//! restart.

use crate::manifest::{digest_fold, digest_head, digest_step};

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC32 of `data`.
///
/// ```
/// use nonstrict_wire::crc32;
/// assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
/// assert_eq!(crc32(b""), 0);
/// ```
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    !update(!0, data)
}

/// The CRC register after `data`, continuing from register `crc` (the
/// un-inverted state; a fresh CRC starts from `!0`).
fn update(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        crc = step8(crc, c);
    }
    chunks.remainder().iter().fold(crc, |crc, &b| step1(crc, b))
}

/// Folds one 8-byte chunk into the register: the slicing-by-8 step.
#[inline]
fn step8(crc: u32, c: &[u8]) -> u32 {
    let t = &TABLES;
    let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
    t[7][(lo & 0xff) as usize]
        ^ t[6][((lo >> 8) & 0xff) as usize]
        ^ t[5][((lo >> 16) & 0xff) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xff) as usize]
        ^ t[2][((hi >> 8) & 0xff) as usize]
        ^ t[1][((hi >> 16) & 0xff) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// Folds one byte into the register: the bytewise step.
#[inline]
fn step1(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xff) as usize]
}

/// The three sums a unit's payload is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitSums {
    /// CRC32 of the frame up to its trailer: its head, then the
    /// payload.
    pub frame_crc: u32,
    /// CRC32 of the payload alone (the client's per-unit report).
    pub payload_crc: u32,
    /// The payload's content digest, as
    /// [`crate::manifest::content_digest_of`] computes it.
    pub digest: u32,
}

/// Computes a unit's three sums in one pass over `payload`: the frame
/// CRC continued from `frame_head` (the frame's bytes before the
/// payload), the payload's own CRC, and the content digest of unit
/// `unit` of class `class` under `epoch`. The two CRC registers take
/// table steps while the digest's multiply chain runs, so the pass
/// costs about as much as the digest alone.
///
/// ```
/// use nonstrict_wire::crc::unit_sums;
/// use nonstrict_wire::crc32;
/// use nonstrict_wire::manifest::content_digest_of;
///
/// let sums = unit_sums(b"head", 7, 1, 2, b"payload");
/// assert_eq!(sums.frame_crc, crc32(b"headpayload"));
/// assert_eq!(sums.payload_crc, crc32(b"payload"));
/// assert_eq!(sums.digest, content_digest_of(7, 1, 2, b"payload"));
/// ```
#[must_use]
pub fn unit_sums(frame_head: &[u8], epoch: u64, class: u32, unit: u32, payload: &[u8]) -> UnitSums {
    let mut frame = update(!0, frame_head);
    let mut own = !0u32;
    let mut h = digest_head(epoch, class, unit);
    let mut chunks = payload.chunks_exact(8);
    for c in &mut chunks {
        frame = step8(frame, c);
        own = step8(own, c);
        for &b in c {
            h = digest_step(h, b);
        }
    }
    for &b in chunks.remainder() {
        frame = step1(frame, b);
        own = step1(own, b);
        h = digest_step(h, b);
    }
    UnitSums {
        frame_crc: !frame,
        payload_crc: !own,
        digest: digest_fold(h),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::content_digest_of;
    use crate::SplitMix64;

    /// The bit-at-a-time definition, kept as the oracle.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    fn random_bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.next_u64().to_le_bytes()[0]).collect()
    }

    #[test]
    fn reference_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_ne!(crc32(b"123456789"), crc32(b"123456788"));
    }

    #[test]
    fn matches_the_bitwise_oracle_on_every_chunk_tail() {
        let buf = random_bytes(&mut SplitMix64(0x5eed), 1024 + 8);
        for start in 0..8 {
            for len in 0..=1024 {
                let slice = &buf[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bitwise(slice),
                    "start {start}, len {len}"
                );
            }
        }
    }

    #[test]
    fn matches_the_bitwise_oracle_on_seeded_random_buffers() {
        let mut rng = SplitMix64(1998);
        for _ in 0..32 {
            let len = usize::try_from(rng.below(64 * 1024 + 1)).expect("fits");
            let buf = random_bytes(&mut rng, len);
            assert_eq!(crc32(&buf), crc32_bitwise(&buf), "len {len}");
        }
    }

    /// The fused pass against its three definitions: the frame CRC of
    /// `head ‖ payload`, the payload's own CRC and its content digest.
    fn assert_fused_matches(head: &[u8], payload: &[u8]) {
        let (epoch, class, unit) = (0x1234_5678_9abc_def0, 7, 11);
        let whole: Vec<u8> = head.iter().chain(payload).copied().collect();
        assert_eq!(
            unit_sums(head, epoch, class, unit, payload),
            UnitSums {
                frame_crc: crc32(&whole),
                payload_crc: crc32(payload),
                digest: content_digest_of(epoch, class, unit, payload),
            },
            "head {}, payload {}",
            head.len(),
            payload.len()
        );
    }

    #[test]
    fn fused_unit_sums_match_their_definitions_on_every_chunk_tail() {
        let buf = random_bytes(&mut SplitMix64(0xf05e), 256 + 8 + 13);
        for start in 0..8 {
            for len in 0..=256 {
                let payload = &buf[13 + start..13 + start + len];
                assert_fused_matches(&buf[..13], payload);
                assert_fused_matches(&[], payload);
            }
        }
    }

    #[test]
    fn fused_unit_sums_match_their_definitions_on_seeded_buffers() {
        let mut rng = SplitMix64(1998);
        for _ in 0..32 {
            let len = usize::try_from(rng.below(16 * 1024 + 1)).expect("fits");
            let head = random_bytes(&mut rng, 13);
            assert_fused_matches(&head, &random_bytes(&mut rng, len));
        }
    }

    #[test]
    fn crc_of_a_message_with_its_crc_appended_is_the_residue() {
        let mut rng = SplitMix64(7);
        for len in [0, 1, 7, 8, 9, 63, 4096] {
            let mut msg = random_bytes(&mut rng, len);
            let crc = crc32(&msg);
            msg.extend_from_slice(&crc.to_le_bytes());
            assert_eq!(crc32(&msg), 0x2144_DF1C, "len {len}");
        }
    }
}
