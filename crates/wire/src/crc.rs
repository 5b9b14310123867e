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
    let t = &TABLES;
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
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
