//! Seeded Byzantine misbehavior plans for replica-set transfer.
//!
//! The fault layer ([`crate::faults`]) models *random* damage — bits
//! flip, packets drop, links droop — and CRC32 catches all of it. A
//! Byzantine mirror is worse: it serves **internally consistent wrong
//! bytes** (a stale restructure epoch, or an equivocated unit body
//! whose link CRC is valid), so nothing below the content-addressed
//! manifest layer can tell the difference. A [`ByzantinePlan`] is the
//! seeded, deterministic description of which mirrors misbehave and
//! how:
//!
//! * [`ByzantineMode::StaleEpoch`] — the mirror never picks up the
//!   origin's mid-stream re-restructure. Every unit it serves after
//!   the epoch fence carries the old layout's epoch id and fails the
//!   fence check on arrival.
//! * [`ByzantineMode::Equivocate`] — the mirror serves divergent bytes
//!   for a seeded fraction of units. The per-unit manifest digest
//!   catches each divergence at the unit boundary.
//! * [`ByzantineMode::Collude`] — divergent bytes crafted to pass the
//!   (weak, CRC-based) manifest digest. Only the cross-mirror audit
//!   sampler — re-fetching a seeded fraction of units from the
//!   runner-up mirror and comparing bodies — can observe the
//!   divergence.
//!
//! Like every other plan in this crate, all draws are pure functions
//! of `(seed, replica, class, unit)` via `splitmix` with
//! domain-separation salts, so a run replays bit for bit and the plan
//! can be consulted eagerly when [`crate::faults::FaultLayer`] routes a
//! replica set, without perturbing the routing clock.

use crate::faults::splitmix;

/// Per-unit probability (ppm) that a Byzantine mirror serves divergent
/// bytes for a given unit under [`ByzantineMode::Equivocate`] and
/// [`ByzantineMode::Collude`]. High enough that a multi-unit stream is
/// certain to hit divergence, low enough that the first units often
/// route cleanly — which is what makes detection latency measurable.
pub const DIVERGENCE_RATE_PM: u32 = 200_000;

/// Cycles the client spends computing and comparing one unit's
/// manifest digest (software CRC over a few-KB unit, ~2 cycles/byte is
/// folded into a flat per-unit charge on the 500 MHz Alpha).
pub const DIGEST_CHECK_CYCLES: u64 = 8_192;

/// Cycles charged for one cross-mirror audit round: issuing the
/// duplicate fetch to the runner-up and comparing the bodies. The
/// audited bytes themselves ride otherwise-idle mirror capacity, so
/// only the fixed compare round lands on the client's timeline.
pub const AUDIT_COMPARE_CYCLES: u64 = 25_000;

/// Cycles charged for quarantining a mirror once divergence is proven:
/// tearing down its stream and re-negotiating with the fallback
/// (~0.2 ms on the 500 MHz Alpha).
pub const QUARANTINE_CYCLES: u64 = 100_000;

/// Domain-separation salts for the equivocation and audit draws.
const SALT_DIVERGE: u64 = 0x4259_5a44_4956_4531;
const SALT_AUDIT: u64 = 0x4155_4449_5453_4d50;

/// How a Byzantine mirror misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ByzantineMode {
    /// Serves the previous restructure epoch after the origin re-keys:
    /// every post-fence unit fails the manifest's epoch check.
    StaleEpoch,
    /// Serves divergent unit bodies at a seeded rate; each one fails
    /// its manifest digest at the unit boundary.
    #[default]
    Equivocate,
    /// Serves divergent bodies crafted to pass the manifest digest;
    /// only the cross-mirror audit sampler can catch them.
    Collude,
}

impl ByzantineMode {
    /// The CLI/report label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ByzantineMode::StaleEpoch => "stale-epoch",
            ByzantineMode::Equivocate => "equivocate",
            ByzantineMode::Collude => "collude",
        }
    }

    /// Parses a CLI label.
    #[must_use]
    pub fn parse(s: &str) -> Option<ByzantineMode> {
        match s {
            "stale-epoch" | "stale" => Some(ByzantineMode::StaleEpoch),
            "equivocate" => Some(ByzantineMode::Equivocate),
            "collude" => Some(ByzantineMode::Collude),
            _ => None,
        }
    }

    /// Whether the manifest digest alone catches this mode's divergent
    /// units at the unit boundary (collusion forges the digest, so it
    /// needs the audit sampler).
    #[must_use]
    pub fn detected_inline(self) -> bool {
        !matches!(self, ByzantineMode::Collude)
    }
}

/// A seeded, deterministic misbehavior plan: which mirrors of a replica
/// set are Byzantine, how they diverge, and how aggressively the client
/// cross-audits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ByzantinePlan {
    /// Seed for every divergence and audit draw.
    pub seed: u64,
    /// Number of Byzantine mirrors. The **highest-indexed** mirrors of
    /// the set misbehave, so mirror 0 (the origin-seeded primary)
    /// stays honest whenever `byzantine < replicas`.
    pub byzantine: u32,
    /// How the Byzantine mirrors misbehave.
    pub mode: ByzantineMode,
    /// Cross-mirror audit sampling rate in ppm of delivered units.
    pub audit_rate_pm: u32,
    /// Encoded size of the origin's unit manifest in wire bytes; the
    /// client fetches and pins it before the first unit, and re-pins
    /// it when the epoch fence crosses.
    pub manifest_bytes: u64,
}

impl ByzantinePlan {
    /// An all-honest plan (no Byzantine mirrors, auditing off).
    #[must_use]
    pub fn honest(seed: u64) -> ByzantinePlan {
        ByzantinePlan {
            seed,
            byzantine: 0,
            mode: ByzantineMode::Equivocate,
            audit_rate_pm: 0,
            manifest_bytes: 0,
        }
    }

    /// Whether mirror `replica` of an `n`-mirror set is Byzantine: the
    /// highest `byzantine` indices misbehave.
    #[must_use]
    pub fn is_byzantine(&self, replica: usize, n: usize) -> bool {
        let byz = (self.byzantine as usize).min(n);
        replica >= n - byz
    }

    /// The deterministic draw for `(replica, class, unit, salt)`.
    fn draw(&self, replica: usize, class: usize, unit: usize, salt: u64) -> u64 {
        let mut h = splitmix(self.seed ^ salt);
        h = splitmix(h ^ replica as u64);
        h = splitmix(h ^ class as u64);
        h = splitmix(h ^ unit as u64);
        h
    }

    /// Whether a uniform draw `h` lands under `rate_pm`.
    fn hits(rate_pm: u32, h: u64) -> bool {
        u128::from(h) * 1_000_000 < u128::from(rate_pm) << 64
    }

    /// Whether mirror `replica` serves divergent bytes for
    /// `(class, unit)` of an `n`-mirror set. `past_fence` is whether
    /// the routing instant is past the origin's re-restructure; only
    /// [`ByzantineMode::StaleEpoch`] keys on it.
    #[must_use]
    pub fn diverges(
        &self,
        replica: usize,
        class: usize,
        unit: usize,
        n: usize,
        past_fence: bool,
    ) -> bool {
        if !self.is_byzantine(replica, n) {
            return false;
        }
        match self.mode {
            ByzantineMode::StaleEpoch => past_fence,
            ByzantineMode::Equivocate | ByzantineMode::Collude => Self::hits(
                DIVERGENCE_RATE_PM,
                self.draw(replica, class, unit, SALT_DIVERGE),
            ),
        }
    }

    /// Whether the audit sampler re-fetches `(class, unit)` from the
    /// runner-up mirror. Replica-independent, so the sample is a pure
    /// function of the stream and never depends on routing history.
    #[must_use]
    pub fn audits(&self, class: usize, unit: usize) -> bool {
        if self.audit_rate_pm == 0 {
            return false;
        }
        Self::hits(self.audit_rate_pm, self.draw(0, class, unit, SALT_AUDIT))
    }
}

/// Aggregate integrity-layer counters for one engine.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityStats {
    /// Whether the integrity layer was armed for this run.
    pub armed: bool,
    /// Manifest fetch-and-pin rounds (the initial pin plus one re-pin
    /// per epoch-fence crossing).
    pub manifest_pins: u32,
    /// Per-unit manifest digest checks performed.
    pub digest_checks: u64,
    /// Units a mirror served with divergent bytes (whether or not the
    /// digest caught them inline).
    pub divergent_units: u64,
    /// Divergent units that passed the digest check and were linked
    /// before any audit observed the divergence (collusion only): the
    /// wrong-but-verifiable prefix the threat model worries about.
    pub undetected_units: u64,
    /// Cross-mirror audit rounds sampled.
    pub audits: u64,
    /// Audit rounds whose two mirrors disagreed.
    pub audit_mismatches: u64,
    /// Mirrors quarantined for proven divergence.
    pub quarantines: u32,
    /// Post-fence units a stale mirror tried to serve that were
    /// refetched from an honest mirror (targeted refetch).
    pub fence_refetches: u64,
    /// Payload bytes refetched because of divergence or quarantine.
    pub refetched_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_labels_round_trip() {
        for m in [
            ByzantineMode::StaleEpoch,
            ByzantineMode::Equivocate,
            ByzantineMode::Collude,
        ] {
            assert_eq!(ByzantineMode::parse(m.label()), Some(m));
        }
        assert_eq!(
            ByzantineMode::parse("stale"),
            Some(ByzantineMode::StaleEpoch)
        );
        assert_eq!(ByzantineMode::parse("nope"), None);
    }

    #[test]
    fn highest_indexed_mirrors_are_byzantine() {
        let plan = ByzantinePlan {
            byzantine: 2,
            ..ByzantinePlan::honest(7)
        };
        assert!(!plan.is_byzantine(0, 4));
        assert!(!plan.is_byzantine(1, 4));
        assert!(plan.is_byzantine(2, 4));
        assert!(plan.is_byzantine(3, 4));
        // More byzantine than mirrors: everyone misbehaves, nothing
        // underflows.
        assert!(ByzantinePlan {
            byzantine: 9,
            ..ByzantinePlan::honest(7)
        }
        .is_byzantine(0, 2));
    }

    #[test]
    fn honest_mirrors_never_diverge() {
        let plan = ByzantinePlan {
            byzantine: 1,
            mode: ByzantineMode::Equivocate,
            ..ByzantinePlan::honest(3)
        };
        for c in 0..8 {
            for u in 0..8 {
                assert!(!plan.diverges(0, c, u, 2, true));
            }
        }
    }

    #[test]
    fn equivocation_draws_are_deterministic_and_seeded() {
        let mk = |seed| ByzantinePlan {
            seed,
            byzantine: 1,
            mode: ByzantineMode::Equivocate,
            audit_rate_pm: 0,
            manifest_bytes: 0,
        };
        let a: Vec<bool> = (0..256)
            .map(|u| mk(1).diverges(1, 0, u, 2, false))
            .collect();
        let b: Vec<bool> = (0..256)
            .map(|u| mk(1).diverges(1, 0, u, 2, false))
            .collect();
        let c: Vec<bool> = (0..256)
            .map(|u| mk(2).diverges(1, 0, u, 2, false))
            .collect();
        assert_eq!(a, b, "same seed must draw identically");
        assert_ne!(a, c, "seeds must matter");
        let rate = a.iter().filter(|&&d| d).count();
        assert!(rate > 20 && rate < 90, "≈20% of 256 draws, got {rate}");
    }

    #[test]
    fn stale_epoch_keys_on_the_fence_only() {
        let plan = ByzantinePlan {
            byzantine: 1,
            mode: ByzantineMode::StaleEpoch,
            ..ByzantinePlan::honest(5)
        };
        for u in 0..32 {
            assert!(
                !plan.diverges(1, 0, u, 2, false),
                "pre-fence units are honest"
            );
            assert!(
                plan.diverges(1, 0, u, 2, true),
                "every post-fence unit is stale"
            );
        }
    }

    #[test]
    fn audit_sampler_matches_its_rate() {
        let plan = ByzantinePlan {
            audit_rate_pm: 250_000,
            ..ByzantinePlan::honest(11)
        };
        let hits = (0..1024).filter(|&u| plan.audits(0, u)).count();
        assert!(hits > 180 && hits < 330, "≈25% of 1024 draws, got {hits}");
        let off = ByzantinePlan::honest(11);
        assert!((0..1024).all(|u| !off.audits(0, u)));
    }

    #[test]
    fn collude_diverges_but_is_not_inline_detectable() {
        assert!(ByzantineMode::Equivocate.detected_inline());
        assert!(ByzantineMode::StaleEpoch.detected_inline());
        assert!(!ByzantineMode::Collude.detected_inline());
    }
}
