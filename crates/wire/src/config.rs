//! The shared link / ordering / fault-knob vocabulary.
//!
//! Three surfaces accept scenario descriptions: the CLI simulator
//! (`nonstrict simulate --link modem --loss 500`), the wire server and
//! loadgen (`nonstrict serve` / `nonstrict loadgen`), and chaos repro files.
//! This module is the single parser for the names they share, so a
//! scenario moves between the simulated wire and the real one without
//! translation — the same `--link t1 --fault-seed 7 --loss 500`
//! spelling drives both.

use std::fmt;

/// Error parsing a shared config name or value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The link name is not in the table.
    UnknownLink(String),
    /// The ordering name is not in the table.
    UnknownOrdering(String),
    /// A fault-knob value failed to parse as its numeric type.
    BadValue {
        /// The knob key.
        key: &'static str,
        /// The offending spelling.
        value: String,
    },
    /// A `--mirrors` entry failed to parse as a socket address.
    BadMirror(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::UnknownLink(name) => {
                write!(f, "unknown link {name:?}; use t1|modem")
            }
            ConfigError::UnknownOrdering(name) => {
                write!(f, "unknown ordering {name:?}; use scg|train|test|source")
            }
            ConfigError::BadValue { key, value } => {
                write!(f, "bad value {value:?} for --{key}")
            }
            ConfigError::BadMirror(entry) => {
                write!(
                    f,
                    "bad mirror {entry:?}; use comma-separated host:port addresses"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A named link: bandwidth expressed as machine cycles per byte, the
/// paper's §6.1 model. `nonstrict_netsim::Link` carries the same
/// numbers; its `by_name` delegates here so the table exists once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkSpec {
    /// Canonical lower-case CLI spelling.
    pub name: &'static str,
    /// Machine cycles to deliver one byte (500 MHz Alpha).
    pub cycles_per_byte: u64,
}

impl LinkSpec {
    /// The paper's T1 line (~1 Mbit/s).
    pub const T1: LinkSpec = LinkSpec {
        name: "t1",
        cycles_per_byte: 3_815,
    };

    /// The paper's 28.8 Kbaud modem.
    pub const MODEM_28_8: LinkSpec = LinkSpec {
        name: "modem",
        cycles_per_byte: 134_698,
    };

    /// Every named link, in CLI-help order.
    pub const ALL: [LinkSpec; 2] = [LinkSpec::T1, LinkSpec::MODEM_28_8];

    /// Case-insensitive lookup by CLI/scenario label.
    #[must_use]
    pub fn by_name(name: &str) -> Option<LinkSpec> {
        LinkSpec::ALL
            .iter()
            .copied()
            .find(|l| l.name.eq_ignore_ascii_case(name))
    }

    /// [`LinkSpec::by_name`] with the canonical CLI error.
    ///
    /// # Errors
    ///
    /// [`ConfigError::UnknownLink`] for names outside the table.
    pub fn parse(name: &str) -> Result<LinkSpec, ConfigError> {
        LinkSpec::by_name(name).ok_or_else(|| ConfigError::UnknownLink(name.to_owned()))
    }
}

/// The ordering vocabulary: CLI spelling ↔ the wire code a Hello frame
/// carries. Codes are wire-stable; never renumber.
pub const ORDERINGS: [(&str, u8); 4] = [("scg", 0), ("train", 1), ("test", 2), ("source", 3)];

/// The wire code for an ordering spelling.
///
/// # Errors
///
/// [`ConfigError::UnknownOrdering`] for spellings outside the table.
pub fn ordering_code(name: &str) -> Result<u8, ConfigError> {
    ORDERINGS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, c)| c)
        .ok_or_else(|| ConfigError::UnknownOrdering(name.to_owned()))
}

/// The canonical spelling for a wire ordering code.
#[must_use]
pub fn ordering_name(code: u8) -> Option<&'static str> {
    ORDERINGS.iter().find(|(_, c)| *c == code).map(|&(n, _)| n)
}

/// Parses a `--mirrors` spec: comma-separated `host:port` socket
/// addresses, in failover-priority order (the first entry is the
/// preferred mirror on equal health). Whitespace around entries is
/// tolerated; empty entries are not.
///
/// # Errors
///
/// [`ConfigError::BadMirror`] for an empty spec or any entry that is
/// not a socket address.
pub fn parse_mirrors(spec: &str) -> Result<Vec<std::net::SocketAddr>, ConfigError> {
    let mirrors: Vec<std::net::SocketAddr> = spec
        .split(',')
        .map(|entry| {
            entry
                .trim()
                .parse()
                .map_err(|_| ConfigError::BadMirror(entry.trim().to_owned()))
        })
        .collect::<Result<_, _>>()?;
    if mirrors.is_empty() {
        return Err(ConfigError::BadMirror(spec.to_owned()));
    }
    Ok(mirrors)
}

/// The six shared fault knobs, exactly as the simulator spells them:
/// `--fault-seed` plus five parts-per-million rates. The simulator maps
/// them to `FaultConfig`; the chaos proxy maps them to socket-level
/// faults (loss → mid-frame cut, drop → connection abort, corrupt →
/// byte flip, droop → stall, semantic → frame reorder).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultKnobs {
    /// `--fault-seed`: deterministic seed for the fault stream.
    pub seed: u64,
    /// `--loss PPM`: per-unit (per-frame) cut probability.
    pub loss_pm: u32,
    /// `--drop PPM`: connection-abort probability.
    pub drop_pm: u32,
    /// `--corrupt PPM`: byte-corruption probability.
    pub corrupt_pm: u32,
    /// `--droop PPM`: stall probability.
    pub droop_pm: u32,
    /// `--semantic PPM`: frame-reorder probability.
    pub semantic_pm: u32,
}

impl FaultKnobs {
    /// The CLI keys this struct accepts, in help order. Every surface
    /// that parses fault flags iterates this array — adding a knob here
    /// adds it to the simulator, the loadgen, and the chaos proxy at
    /// once.
    pub const KEYS: [&'static str; 6] =
        ["fault-seed", "loss", "drop", "corrupt", "droop", "semantic"];

    /// Applies one CLI `key=value` pair. Returns `false` (untouched)
    /// when `key` is not a fault knob, so callers can chain other
    /// vocabularies.
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadValue`] when the value fails to parse.
    pub fn set(&mut self, key: &str, value: &str) -> Result<bool, ConfigError> {
        fn num<T: std::str::FromStr>(key: &'static str, value: &str) -> Result<T, ConfigError> {
            value.parse().map_err(|_| ConfigError::BadValue {
                key,
                value: value.to_owned(),
            })
        }
        match key {
            "fault-seed" => self.seed = num("fault-seed", value)?,
            "loss" => self.loss_pm = num("loss", value)?,
            "drop" => self.drop_pm = num("drop", value)?,
            "corrupt" => self.corrupt_pm = num("corrupt", value)?,
            "droop" => self.droop_pm = num("droop", value)?,
            "semantic" => self.semantic_pm = num("semantic", value)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// True when every rate is zero — no fault can ever fire,
    /// regardless of seed.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.loss_pm == 0
            && self.drop_pm == 0
            && self.corrupt_pm == 0
            && self.droop_pm == 0
            && self.semantic_pm == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_table_matches_paper_constants() {
        assert_eq!(LinkSpec::by_name("t1").unwrap().cycles_per_byte, 3_815);
        assert_eq!(LinkSpec::by_name("T1").unwrap().cycles_per_byte, 3_815);
        assert_eq!(LinkSpec::by_name("Modem").unwrap().cycles_per_byte, 134_698);
        assert!(LinkSpec::by_name("dsl").is_none());
        assert_eq!(
            LinkSpec::parse("dsl"),
            Err(ConfigError::UnknownLink("dsl".to_owned()))
        );
    }

    #[test]
    fn ordering_codes_round_trip_and_stay_stable() {
        for (name, code) in ORDERINGS {
            assert_eq!(ordering_code(name).unwrap(), code);
            assert_eq!(ordering_name(code).unwrap(), name);
        }
        assert_eq!(ordering_code("scg").unwrap(), 0);
        assert!(ordering_code("alphabetical").is_err());
        assert!(ordering_name(200).is_none());
    }

    #[test]
    fn fault_knobs_accept_the_simulator_vocabulary() {
        let mut fk = FaultKnobs::default();
        assert!(fk.is_quiet());
        for key in FaultKnobs::KEYS {
            assert!(fk.set(key, "7").unwrap(), "key {key} not recognised");
        }
        assert_eq!(fk.seed, 7);
        assert_eq!(fk.loss_pm, 7);
        assert_eq!(fk.semantic_pm, 7);
        assert!(!fk.is_quiet());
        assert!(!fk.set("link", "t1").unwrap());
        assert!(matches!(
            fk.set("loss", "many"),
            Err(ConfigError::BadValue { key: "loss", .. })
        ));
    }

    #[test]
    fn mirrors_parse_in_order_and_fail_closed() {
        let mirrors = parse_mirrors("127.0.0.1:7001, 127.0.0.1:7002,127.0.0.1:7003").unwrap();
        assert_eq!(mirrors.len(), 3);
        assert_eq!(mirrors[0].port(), 7001);
        assert_eq!(mirrors[2].port(), 7003);
        assert!(matches!(
            parse_mirrors("127.0.0.1:7001,,127.0.0.1:7002"),
            Err(ConfigError::BadMirror(_))
        ));
        assert!(matches!(
            parse_mirrors("not-an-addr"),
            Err(ConfigError::BadMirror(_))
        ));
        assert!(matches!(parse_mirrors(""), Err(ConfigError::BadMirror(_))));
    }

    #[test]
    fn seed_alone_is_still_quiet() {
        let mut fk = FaultKnobs::default();
        fk.set("fault-seed", "99").unwrap();
        assert!(fk.is_quiet());
    }
}
