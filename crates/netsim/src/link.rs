//! Link models: bandwidth expressed in machine cycles per byte.

use std::fmt;

/// Error constructing a [`Link`] from raw bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkError {
    /// The requested bandwidth was zero bits per second.
    ZeroBandwidth,
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::ZeroBandwidth => write!(f, "link bandwidth must be positive"),
        }
    }
}

impl std::error::Error for LinkError {}

/// A network link, as the paper models it: a fixed number of CPU cycles
/// to transfer one byte (§6.1).
///
/// ```
/// use nonstrict_netsim::Link;
///
/// // 10 KB over the paper's modem costs ~1.38 billion Alpha cycles.
/// let cycles = Link::MODEM_28_8.cycles_for(10 * 1024);
/// assert_eq!(cycles, 10 * 1024 * 134_698);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Link {
    /// Machine cycles to deliver one byte.
    pub cycles_per_byte: u64,
    /// Human-readable name for reports.
    pub name: &'static str,
}

impl Link {
    /// The paper's T1 line (~1 Mbit/s): 3,815 cycles per byte on a
    /// 500 MHz Alpha.
    pub const T1: Link = Link {
        cycles_per_byte: 3_815,
        name: "T1",
    };

    /// The paper's 28.8 Kbaud modem (~29 Kbit/s): 134,698 cycles per
    /// byte.
    pub const MODEM_28_8: Link = Link {
        cycles_per_byte: 134_698,
        name: "Modem",
    };

    /// A link from raw bandwidth and CPU frequency.
    ///
    /// The cycle cost is clamped to at least one cycle per byte: a link
    /// faster than the CPU still spends a cycle moving each byte, and a
    /// zero cost would make every transfer free and erase all stalls.
    ///
    /// # Errors
    ///
    /// Returns [`LinkError::ZeroBandwidth`] if `bits_per_second` is zero.
    pub fn from_bandwidth(bits_per_second: u64, cpu_hz: u64) -> Result<Link, LinkError> {
        if bits_per_second == 0 {
            return Err(LinkError::ZeroBandwidth);
        }
        let cpb = u128::from(cpu_hz) * 8 / u128::from(bits_per_second);
        let cpb = u64::try_from(cpb).unwrap_or(u64::MAX).max(1);
        Ok(Link {
            cycles_per_byte: cpb,
            name: "custom",
        })
    }

    /// Looks up one of the paper's named links by its CLI/scenario
    /// label (case-insensitive): `"t1"` or `"modem"`. Delegates to the
    /// `nonstrict-wire` link table — the single name table for every
    /// surface that names a link, so CLI flags, chaos repro files, the
    /// wire server, and the loadgen all agree on spelling and numbers.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Link> {
        let spec = nonstrict_wire::LinkSpec::by_name(name)?;
        match spec.name {
            "t1" => Some(Link::T1),
            "modem" => Some(Link::MODEM_28_8),
            _ => None,
        }
    }

    /// Parses a link spelling: a named link ([`Link::by_name`]) or
    /// `cpb:N`, a custom link of `N` cycles per byte (at least one).
    #[must_use]
    pub fn parse(s: &str) -> Option<Link> {
        if let Some(l) = Link::by_name(s) {
            return Some(l);
        }
        let cpb: u64 = s.strip_prefix("cpb:")?.parse().ok()?;
        Some(Link {
            cycles_per_byte: cpb.max(1),
            name: "custom",
        })
    }

    /// The spelling [`Link::parse`] reads back: the table name of a
    /// paper link, `cpb:N` for any other.
    #[must_use]
    pub fn spelling(&self) -> String {
        if *self == Link::T1 {
            "t1".to_owned()
        } else if *self == Link::MODEM_28_8 {
            "modem".to_owned()
        } else {
            format!("cpb:{}", self.cycles_per_byte)
        }
    }

    /// This link slowed `i` steps of `spread_pm` parts per million:
    /// cycles per byte scale by `1 + i * spread_pm / 1e6`. Replica sets
    /// spread their mirrors this way, fleets their clients' access
    /// links.
    #[must_use]
    pub fn spread(self, spread_pm: u32, i: u32) -> Link {
        let cpb = u128::from(self.cycles_per_byte)
            * (1_000_000 + u128::from(spread_pm) * u128::from(i))
            / 1_000_000;
        Link {
            cycles_per_byte: u64::try_from(cpb).unwrap_or(u64::MAX),
            name: self.name,
        }
    }

    /// Cycles to transfer `bytes` at full bandwidth.
    ///
    /// Computed in `u128` and saturated: `bytes * cycles_per_byte` can
    /// exceed `u64` for multi-gigabyte payloads on the modem link.
    #[must_use]
    pub fn cycles_for(&self, bytes: u64) -> u64 {
        let cycles = u128::from(bytes) * u128::from(self.cycles_per_byte);
        u64::try_from(cycles).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        assert_eq!(Link::T1.cycles_per_byte, 3_815);
        assert_eq!(Link::MODEM_28_8.cycles_per_byte, 134_698);
    }

    #[test]
    fn wire_table_agrees_with_paper_constants() {
        assert_eq!(
            nonstrict_wire::LinkSpec::T1.cycles_per_byte,
            Link::T1.cycles_per_byte
        );
        assert_eq!(
            nonstrict_wire::LinkSpec::MODEM_28_8.cycles_per_byte,
            Link::MODEM_28_8.cycles_per_byte
        );
    }

    #[test]
    fn by_name_round_trips_the_paper_links() {
        assert_eq!(Link::by_name("t1"), Some(Link::T1));
        assert_eq!(Link::by_name("T1"), Some(Link::T1));
        assert_eq!(Link::by_name("modem"), Some(Link::MODEM_28_8));
        assert_eq!(Link::by_name("Modem"), Some(Link::MODEM_28_8));
        assert_eq!(Link::by_name("dsl"), None);
    }

    #[test]
    fn spellings_round_trip_named_and_custom_links() {
        for link in [Link::T1, Link::MODEM_28_8, Link::T1.spread(500_000, 1)] {
            assert_eq!(
                Link::parse(&link.spelling()).map(|l| l.cycles_per_byte),
                Some(link.cycles_per_byte)
            );
        }
        assert_eq!(Link::parse("cpb:0").unwrap().cycles_per_byte, 1);
        assert_eq!(Link::parse("cpb:x"), None);
        assert_eq!(Link::T1.spread(500_000, 1).cycles_per_byte, 5_722);
        assert_eq!(Link::T1.spread(0, 7), Link::T1);
    }

    #[test]
    fn from_bandwidth_matches_paper_t1_ballpark() {
        // 2^20-bit/s "T1" on a 500 MHz CPU: the paper's 3,815.
        let t1 = Link::from_bandwidth(1_048_576, 500_000_000).unwrap();
        assert_eq!(t1.cycles_per_byte, 3_814); // integer division of the exact 3814.7
    }

    #[test]
    fn from_bandwidth_clamps_fast_links_to_one_cycle_per_byte() {
        // A 100 Gbit/s link on a 500 MHz CPU would round to zero cycles
        // per byte; the clamp keeps transfers from becoming free.
        let fast = Link::from_bandwidth(100_000_000_000, 500_000_000).unwrap();
        assert_eq!(fast.cycles_per_byte, 1);
    }

    #[test]
    fn from_bandwidth_rejects_zero_bandwidth() {
        assert_eq!(
            Link::from_bandwidth(0, 500_000_000).unwrap_err(),
            LinkError::ZeroBandwidth
        );
    }

    #[test]
    fn cycles_scale_linearly() {
        assert_eq!(Link::T1.cycles_for(100), 381_500);
        assert_eq!(Link::T1.cycles_for(0), 0);
    }

    #[test]
    fn cycles_for_saturates_instead_of_overflowing() {
        // 137 TB on the modem overflows u64 (137e12 * 134_698 > 2^64);
        // the boundary must saturate, not wrap.
        let huge = u64::MAX / Link::MODEM_28_8.cycles_per_byte + 1;
        assert_eq!(Link::MODEM_28_8.cycles_for(huge), u64::MAX);
        // One byte below the boundary is still exact.
        let edge = u64::MAX / Link::MODEM_28_8.cycles_per_byte;
        assert_eq!(
            Link::MODEM_28_8.cycles_for(edge),
            edge * Link::MODEM_28_8.cycles_per_byte
        );
    }
}
