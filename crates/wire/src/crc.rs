//! The canonical CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//!
//! One implementation serves every integrity check in the workspace:
//! the simulated per-unit trailer in `nonstrict-netsim`, the NSJL log
//! and NSUC cache frames in `nonstrict-store`, the NSUM manifest frame,
//! and every wire frame this crate puts on a socket. Sharing the arithmetic is what
//! makes the simulator an honest test double for the wire — a unit that
//! passes the simulated check passes the real one, bit for bit.

/// CRC32 of `data`.
///
/// ```
/// use nonstrict_wire::crc32;
/// assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
/// assert_eq!(crc32(b""), 0);
/// ```
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_ne!(crc32(b"123456789"), crc32(b"123456788"));
    }
}
