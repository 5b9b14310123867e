//! Fault injection and the resilient transfer protocol.
//!
//! A [`FaultPlan`] describes everything that can go wrong on a link,
//! deterministically: per-unit payload loss, unit corruption (detected
//! by the CRC32 trailer of [`crate::unit::CHECKSUM_BYTES`]), connection
//! drops with a reconnect latency, and periodic bandwidth-droop windows.
//! Every decision is a pure function of `(seed, class, unit, attempt)`,
//! so the same plan always produces the same timeline — there is no
//! hidden RNG state, and replaying a run with the same seed reproduces
//! it bit for bit.
//!
//! [`FaultLayer`] is the one layer every fault dimension of a transfer
//! charges through. Over any perfect-link [`TransferEngine`] it applies
//! a single-origin plan or a replica set
//! ([`crate::replica::ReplicaSet`]); a single-origin plan rewrites the
//! piecewise-linear delivery timeline in closed form:
//!
//! * droop windows stretch the clock through a monotone piecewise-linear
//!   remap (delivery runs at half rate inside a window, so a window of
//!   base-time length `L` costs `L` extra wall cycles);
//! * each unit's recovery penalty (timeouts, retransmissions, capped
//!   exponential backoff, reconnects) accumulates along its class
//!   stream — a resumable stream re-requests from the last verified
//!   unit, never from byte zero, so a fault on unit `k` delays units
//!   `k..` of that class but nothing it already delivered.
//!
//! The retry loop is bounded: after [`RETRY_CAP`] attempts the delivery
//! is forced to succeed, so every faulted transfer terminates and every
//! simulated execution completes. Deliveries whose final attempt only
//! succeeded because of the cap — the draws for that attempt would have
//! failed again — are counted in [`FaultStats::forced`] so the model's
//! optimism is visible instead of silent.

use crate::byzantine::IntegrityStats;
use crate::engine::{Surcharge, TransferEngine};
use crate::link::Link;
use crate::replica::{ReplicaSet, ReplicaStats};
use crate::unit::ClassUnits;

/// Maximum delivery attempts per unit; the final attempt always
/// succeeds, bounding recovery time and guaranteeing termination.
pub const RETRY_CAP: u32 = 8;

/// First-retry backoff in cycles (~0.1 ms on the 500 MHz Alpha); each
/// further retry doubles it up to [`BACKOFF_CAP_CYCLES`].
pub const BACKOFF_BASE_CYCLES: u64 = 65_536;

/// Ceiling on the exponential backoff (~17 ms on the Alpha).
pub const BACKOFF_CAP_CYCLES: u64 = 8_388_608;

/// Floor added to the loss-detection timeout so tiny units still wait a
/// round-trip before being re-requested.
pub const TIMEOUT_FLOOR_CYCLES: u64 = 262_144;

/// Base-time period of the droop-window pattern (~8 ms on the Alpha):
/// each period carries one half-rate window whose length is set by the
/// plan's droop rate.
pub const DROOP_PERIOD_CYCLES: u64 = 1 << 22;

/// Aggregate fault-protocol counters for one engine.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Retransmissions of any kind (lost + corrupted + dropped).
    pub retries: u64,
    /// Units whose payload was lost in transit (detected by timeout).
    pub lost: u64,
    /// Units that arrived with a CRC mismatch.
    pub corrupted: u64,
    /// Units that passed the CRC but failed semantic validation at the
    /// verified-prefix gate and were quarantined and re-fetched.
    pub quarantined: u64,
    /// Connection drops (each costs the reconnect latency).
    pub drops: u64,
    /// Bytes sent more than once.
    pub retransmitted_bytes: u64,
    /// Deliveries that exhausted every retry and only completed because
    /// [`RETRY_CAP`] forces the final attempt to succeed. A non-zero
    /// count means the plan's fault rates are beyond what the protocol
    /// can genuinely recover from, and the timeline is optimistic.
    pub forced: u64,
}

/// The outcome of delivering one unit under a plan.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct UnitDelivery {
    /// Attempts used (1 = clean first try).
    pub attempts: u32,
    /// Failed attempts that forced a retransmission.
    pub retries: u32,
    /// Losses among the failed attempts.
    pub lost: u32,
    /// CRC failures among the failed attempts.
    pub corrupted: u32,
    /// Semantic-validation failures (quarantines) among the failed
    /// attempts.
    pub quarantined: u32,
    /// Connection drops among the failed attempts.
    pub drops: u32,
    /// Extra cycles this unit's stream spends recovering.
    pub penalty_cycles: u64,
    /// Whether the final attempt succeeded only because [`RETRY_CAP`]
    /// forces it to — the draws for that attempt would have failed
    /// again.
    pub forced: bool,
}

/// A deterministic, seeded description of everything that can go wrong
/// on a link. All rates are parts-per-million so the plan stays `Eq` and
/// `Hash`-able; a plan with every rate zero is a perfect link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    /// Seed for every per-unit draw and the droop-window phase.
    pub seed: u64,
    /// Per-attempt probability (ppm) a unit's payload is lost.
    pub loss_pm: u32,
    /// Per-attempt probability (ppm) a unit arrives corrupted.
    pub corrupt_pm: u32,
    /// Per-attempt probability (ppm) the connection drops mid-unit.
    pub drop_pm: u32,
    /// Per-attempt probability (ppm) a unit passes its CRC but fails
    /// semantic validation at the verified-prefix gate (an adversarial
    /// or garbled-in-flight unit whose damage the checksum missed). The
    /// receiver quarantines it and re-fetches, exactly like a CRC
    /// failure.
    pub semantic_pm: u32,
    /// Fraction (ppm) of base delivery time spent in half-rate droop
    /// windows.
    pub droop_pm: u32,
    /// Cycles to re-establish the connection after a drop.
    pub reconnect_cycles: u64,
}

/// SplitMix64: the standard 64-bit finalizer used for per-unit draws
/// (shared with the outage model in [`crate::outage`]).
pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Domain-separation salts so the loss, corruption, drop, and
/// droop-phase draws are independent streams of the same seed.
const SALT_LOSS: u64 = 0x4c4f_5353_4c4f_5353;
const SALT_CORRUPT: u64 = 0x4352_4350_4352_4350;
const SALT_DROP: u64 = 0x4452_4f50_4452_4f50;
const SALT_PHASE: u64 = 0x5048_4153_5048_4153;
const SALT_SEMANTIC: u64 = 0x5345_4d41_5345_4d41;

impl FaultPlan {
    /// A perfect link under `seed`: every rate zero, default reconnect.
    #[must_use]
    pub fn perfect(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            loss_pm: 0,
            corrupt_pm: 0,
            drop_pm: 0,
            semantic_pm: 0,
            droop_pm: 0,
            reconnect_cycles: 1_000_000,
        }
    }

    /// Whether this plan can never perturb a timeline.
    #[must_use]
    pub fn is_perfect(&self) -> bool {
        self.loss_pm == 0
            && self.corrupt_pm == 0
            && self.drop_pm == 0
            && self.semantic_pm == 0
            && self.droop_pm == 0
    }

    /// The deterministic draw for `(class, unit, attempt, salt)`.
    fn draw(&self, class: usize, unit: usize, attempt: u32, salt: u64) -> u64 {
        let mut h = splitmix(self.seed ^ salt);
        h = splitmix(h ^ class as u64);
        h = splitmix(h ^ unit as u64);
        h = splitmix(h ^ u64::from(attempt));
        h
    }

    /// Whether a uniform draw `h` lands under `rate_pm`.
    fn hits(rate_pm: u32, h: u64) -> bool {
        // h / 2^64 < rate / 1e6, exactly, in integers.
        u128::from(h) * 1_000_000 < u128::from(rate_pm) << 64
    }

    /// Delivers one unit whose clean transmission takes `tx_cycles`,
    /// returning the attempt count and accumulated recovery penalty.
    /// Deterministic in `(seed, class, unit)`; bounded by [`RETRY_CAP`].
    #[must_use]
    pub fn unit_delivery(&self, class: usize, unit: usize, tx_cycles: u64) -> UnitDelivery {
        let mut d = UnitDelivery {
            attempts: 1,
            ..UnitDelivery::default()
        };
        if self.loss_pm == 0 && self.corrupt_pm == 0 && self.drop_pm == 0 && self.semantic_pm == 0 {
            return d;
        }
        for attempt in 0..RETRY_CAP - 1 {
            let dropped = Self::hits(self.drop_pm, self.draw(class, unit, attempt, SALT_DROP));
            let lost = Self::hits(self.loss_pm, self.draw(class, unit, attempt, SALT_LOSS));
            let corrupted = Self::hits(
                self.corrupt_pm,
                self.draw(class, unit, attempt, SALT_CORRUPT),
            );
            let quarantined = Self::hits(
                self.semantic_pm,
                self.draw(class, unit, attempt, SALT_SEMANTIC),
            );
            if !(dropped || lost || corrupted || quarantined) {
                break;
            }
            d.attempts += 1;
            d.retries += 1;
            let backoff = (BACKOFF_BASE_CYCLES << attempt).min(BACKOFF_CAP_CYCLES);
            if dropped {
                // The connection died mid-unit: reconnect, then the
                // resumable stream re-requests this unit only (earlier
                // units were already verified).
                d.drops += 1;
                d.penalty_cycles += self.reconnect_cycles + tx_cycles + backoff;
            } else if lost {
                // Nothing arrived: wait out the per-unit timeout, then
                // retransmit.
                d.lost += 1;
                d.penalty_cycles += loss_timeout(tx_cycles) + tx_cycles + backoff;
            } else if corrupted {
                // Full receipt, CRC mismatch: immediate NAK, retransmit.
                d.corrupted += 1;
                d.penalty_cycles += tx_cycles + backoff;
            } else {
                // Full receipt, CRC fine, but the verified-prefix gate
                // rejected the unit's contents: quarantine it and
                // re-fetch, same timing as a CRC NAK.
                d.quarantined += 1;
                d.penalty_cycles += tx_cycles + backoff;
            }
        }
        if d.retries == RETRY_CAP - 1 {
            // Every real attempt failed and the cap is about to force
            // the final one through. Draw for it anyway: if the dice
            // say it would have failed too, the success is synthetic
            // and must be reported, not hidden. (The draw changes no
            // timing, so existing timelines stay bit-identical.)
            let a = RETRY_CAP - 1;
            d.forced = Self::hits(self.drop_pm, self.draw(class, unit, a, SALT_DROP))
                || Self::hits(self.loss_pm, self.draw(class, unit, a, SALT_LOSS))
                || Self::hits(self.corrupt_pm, self.draw(class, unit, a, SALT_CORRUPT))
                || Self::hits(self.semantic_pm, self.draw(class, unit, a, SALT_SEMANTIC));
        }
        d
    }

    /// Rewrites a base-timeline instant into wall time by stretching
    /// every droop window it crosses (half rate inside a window doubles
    /// its cost). Monotone and piecewise linear; identity when
    /// `droop_pm` is zero.
    #[must_use]
    pub fn remap(&self, t: u64) -> u64 {
        if self.droop_pm == 0 {
            return t;
        }
        let period = DROOP_PERIOD_CYCLES;
        let window = (u128::from(period) * u128::from(self.droop_pm) / 1_000_000) as u64;
        let phase = splitmix(self.seed ^ SALT_PHASE) % period;
        let s = t.saturating_sub(phase);
        let full = s / period;
        let partial = (s % period).min(window);
        t.saturating_add(full.saturating_mul(window))
            .saturating_add(partial)
    }
}

/// Loss is detected by timeout: twice the unit's clean transmission
/// time, floored so tiny units still wait a round trip.
fn loss_timeout(tx_cycles: u64) -> u64 {
    tx_cycles.saturating_mul(2).max(TIMEOUT_FLOOR_CYCLES)
}

/// The one fault layer over a perfect-link engine ([`crate::StrictEngine`],
/// [`crate::ParallelEngine`], [`crate::InterleavedEngine`]): a
/// single-origin [`FaultPlan`], or a replica set
/// ([`crate::replica::ReplicaSet`]) with or without a Byzantine plan.
/// Every unit's surcharge is computed eagerly at construction and kept
/// as per-class prefix sums along each stream, so arrivals are pure
/// lookups: `remap(base) + prefix`.
pub struct FaultLayer {
    base: Box<dyn TransferEngine>,
    /// The single-origin plan whose droop windows remap the base clock.
    /// A perfect plan (the identity) for a replica set, whose mirrors
    /// charge their droop per unit instead.
    droop: FaultPlan,
    /// Cumulative surcharge through each unit, per class.
    pub(crate) prefix: Vec<Vec<Surcharge>>,
    /// Serving replica per `(class, unit)`; the single origin is
    /// replica 0.
    pub(crate) serving: Vec<Vec<u32>>,
    /// Fault events (retransmissions) per class, for degradation
    /// pressure accounting upstream.
    class_events: Vec<u64>,
    faults: FaultStats,
    pub(crate) replicas: ReplicaStats,
    pub(crate) integrity: IntegrityStats,
    last: Surcharge,
}

impl FaultLayer {
    /// Layers `faults` — or, when given, a replica set — over `base`,
    /// precomputing every unit's surcharge for `units` over `link`. A
    /// replica set owns fault modeling: each mirror runs its own seeded
    /// plan, so `faults` is not applied on top of it. With neither, the
    /// base timeline passes through bit for bit.
    #[must_use]
    pub fn new(
        base: Box<dyn TransferEngine>,
        units: &[ClassUnits],
        link: Link,
        faults: Option<FaultPlan>,
        replicas: Option<ReplicaSet<'_>>,
    ) -> Self {
        let mut layer = FaultLayer {
            base,
            droop: FaultPlan::perfect(0),
            prefix: Vec::with_capacity(units.len()),
            serving: Vec::with_capacity(units.len()),
            class_events: vec![0; units.len()],
            faults: FaultStats::default(),
            replicas: ReplicaStats::default(),
            integrity: IntegrityStats::default(),
            last: Surcharge::default(),
        };
        if let Some(set) = replicas {
            layer.route(&set, units, link);
            return layer;
        }
        // The single origin: each unit's recovery penalty accumulates
        // along its class stream.
        let plan = faults.unwrap_or(layer.droop);
        layer.droop = plan;
        for (c, u) in units.iter().enumerate() {
            let mut acc = 0u64;
            let mut prefix = Vec::with_capacity(u.unit_count());
            for (i, bytes) in u.sizes().enumerate() {
                let d = plan.unit_delivery(c, i, link.cycles_for(bytes));
                acc = acc.saturating_add(d.penalty_cycles);
                prefix.push(Surcharge {
                    recovery: acc,
                    ..Surcharge::default()
                });
                layer.record(c, bytes, &d);
            }
            layer.prefix.push(prefix);
            layer.serving.push(vec![0; u.unit_count()]);
        }
        layer
    }

    /// Folds one delivered unit's outcome into the fault counters and
    /// its class's fault events.
    pub(crate) fn record(&mut self, class: usize, bytes: u64, d: &UnitDelivery) {
        let f = &mut self.faults;
        f.retries += u64::from(d.retries);
        f.lost += u64::from(d.lost);
        f.corrupted += u64::from(d.corrupted);
        f.quarantined += u64::from(d.quarantined);
        f.drops += u64::from(d.drops);
        f.retransmitted_bytes += bytes * u64::from(d.retries);
        f.forced += u64::from(d.forced);
        self.class_events[class] += u64::from(d.retries);
    }

    /// The surcharge embedded in the most recent
    /// [`TransferEngine::unit_ready`] answer, split by cause; the
    /// co-simulator splits a stall by it.
    #[must_use]
    pub fn last_surcharge(&self) -> Surcharge {
        self.last
    }

    /// Cumulative fault events (retransmissions) charged to `class`,
    /// for graceful-degradation pressure accounting.
    #[must_use]
    pub fn class_fault_events(&self, class: usize) -> u64 {
        self.class_events[class]
    }

    /// The replica that serves the given unit (0 for the single origin).
    #[must_use]
    pub fn serving_replica(&self, class: usize, unit: usize) -> u32 {
        self.serving[class][unit]
    }

    /// Aggregate fault-protocol counters.
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        self.faults
    }

    /// Aggregate replica-set counters (all zero for the single origin).
    #[must_use]
    pub fn replica_stats(&self) -> ReplicaStats {
        self.replicas
    }

    /// Aggregate integrity counters (all zero unless a Byzantine plan
    /// armed the manifest layer).
    #[must_use]
    pub fn integrity_stats(&self) -> IntegrityStats {
        self.integrity
    }
}

impl TransferEngine for FaultLayer {
    fn unit_ready(&mut self, class: usize, unit: usize, now: u64) -> u64 {
        let base = self.base.unit_ready(class, unit, now);
        let s = self.prefix[class][unit];
        let wall = self.droop.remap(base);
        self.last = Surcharge {
            recovery: s.recovery.saturating_add(wall - base),
            ..s
        };
        wall.saturating_add(s.total())
    }

    fn finish_time(&mut self) -> u64 {
        // Run the base timeline to completion, then apply each class
        // stream's full surcharge to its last arrival.
        let base_finish = self.base.finish_time();
        let mut finish = self.droop.remap(base_finish);
        for c in 0..self.prefix.len() {
            let last = self.prefix[c].len() - 1;
            let b = self.base.unit_ready(c, last, base_finish);
            finish = finish.max(
                self.droop
                    .remap(b)
                    .saturating_add(self.prefix[c][last].total()),
            );
        }
        finish
    }

    fn total_bytes(&self) -> u64 {
        // Unique payload bytes: hedged duplicates are canceled, not
        // delivered, and retransmissions are counted in
        // `fault_stats().retransmitted_bytes`.
        self.base.total_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ParallelSchedule;
    use crate::ParallelEngine;

    const LINK: Link = Link {
        cycles_per_byte: 10,
        name: "test",
    };

    fn lossy(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            loss_pm: 200_000,
            corrupt_pm: 100_000,
            drop_pm: 50_000,
            semantic_pm: 50_000,
            droop_pm: 100_000,
            reconnect_cycles: 500_000,
        }
    }

    fn sample_units() -> Vec<ClassUnits> {
        vec![
            ClassUnits {
                prelude: 100,
                methods: vec![50, 50],
                trailing: 0,
            },
            ClassUnits {
                prelude: 40,
                methods: vec![20],
                trailing: 10,
            },
        ]
    }

    fn engine(units: &[ClassUnits]) -> ParallelEngine {
        let schedule = ParallelSchedule {
            class_order: (0..units.len()).collect(),
            thresholds: vec![0; units.len()],
        };
        ParallelEngine::new(LINK, units.to_vec(), &schedule, 4)
    }

    fn layer(units: &[ClassUnits], plan: FaultPlan) -> FaultLayer {
        FaultLayer::new(Box::new(engine(units)), units, LINK, Some(plan), None)
    }

    #[test]
    fn perfect_plan_is_the_identity() {
        let plan = FaultPlan::perfect(42);
        assert!(plan.is_perfect());
        assert_eq!(plan.remap(123_456_789), 123_456_789);
        let d = plan.unit_delivery(3, 7, 10_000);
        assert_eq!(
            d,
            UnitDelivery {
                attempts: 1,
                ..UnitDelivery::default()
            }
        );
    }

    #[test]
    fn zero_rate_wrapper_matches_the_inner_engine_exactly() {
        let units = sample_units();
        let mut bare = engine(&units);
        let mut faulted = layer(&units, FaultPlan::perfect(9));
        for (c, u) in units.iter().enumerate() {
            for i in 0..u.unit_count() {
                assert_eq!(faulted.unit_ready(c, i, 0), bare.unit_ready(c, i, 0));
                assert_eq!(faulted.last_surcharge(), Surcharge::default());
            }
        }
        assert_eq!(faulted.finish_time(), bare.finish_time());
        assert_eq!(faulted.fault_stats(), FaultStats::default());
    }

    #[test]
    fn deliveries_are_deterministic_and_seed_sensitive() {
        let plan = lossy(7);
        let a = plan.unit_delivery(1, 2, 5_000);
        let b = plan.unit_delivery(1, 2, 5_000);
        assert_eq!(a, b, "same (seed, class, unit) must replay identically");
        // With aggressive rates, some (class, unit) across seeds must
        // differ — two seeds that agree everywhere would mean the seed
        // is ignored.
        let other = lossy(8);
        let differs =
            (0..20).any(|u| plan.unit_delivery(0, u, 5_000) != other.unit_delivery(0, u, 5_000));
        assert!(differs);
    }

    #[test]
    fn retry_cap_bounds_every_delivery() {
        // Certain loss: every attempt fails, but the cap forces
        // completion with a bounded penalty.
        let plan = FaultPlan {
            seed: 1,
            loss_pm: 1_000_000,
            corrupt_pm: 0,
            drop_pm: 0,
            semantic_pm: 0,
            droop_pm: 0,
            reconnect_cycles: 0,
        };
        let d = plan.unit_delivery(0, 0, 1_000);
        assert_eq!(d.attempts, RETRY_CAP);
        assert_eq!(d.retries, RETRY_CAP - 1);
        assert!(
            d.forced,
            "certain loss means the final attempt only succeeded by force"
        );
        let per_attempt = loss_timeout(1_000) + 1_000 + BACKOFF_CAP_CYCLES;
        assert!(d.penalty_cycles <= u64::from(RETRY_CAP) * per_attempt);
    }

    #[test]
    fn semantic_failures_quarantine_and_refetch_like_crc_failures() {
        // A plan with only semantic faults: every failed attempt is a
        // quarantine, charged the same NAK timing as a corruption.
        let semantic = FaultPlan {
            seed: 6,
            loss_pm: 0,
            corrupt_pm: 0,
            drop_pm: 0,
            semantic_pm: 400_000,
            droop_pm: 0,
            reconnect_cycles: 0,
        };
        let crc = FaultPlan {
            corrupt_pm: 400_000,
            semantic_pm: 0,
            ..semantic
        };
        let mut saw_quarantine = false;
        for u in 0..40 {
            let d = semantic.unit_delivery(0, u, 3_000);
            assert_eq!(d.retries, d.quarantined, "only quarantines can retry");
            assert_eq!(d.lost + d.corrupted + d.drops, 0);
            saw_quarantine |= d.quarantined > 0;
            // Same per-failure penalty shape as a CRC NAK: for a unit
            // where both plans fail the same number of attempts, the
            // penalties agree.
            let c = crc.unit_delivery(0, u, 3_000);
            if c.retries == d.retries {
                assert_eq!(c.penalty_cycles, d.penalty_cycles);
            }
        }
        assert!(saw_quarantine, "40% semantic rate must quarantine units");
    }

    #[test]
    fn remap_is_monotone_and_piecewise_linear() {
        let plan = lossy(3);
        let mut last = 0;
        for k in 0..200 {
            let t = k * (DROOP_PERIOD_CYCLES / 7);
            let r = plan.remap(t);
            assert!(r >= t, "droop only delays");
            assert!(r >= last, "remap must be monotone");
            last = r;
        }
        // 10% droop at half rate adds at most ~10% extra time.
        let horizon = 100 * DROOP_PERIOD_CYCLES;
        let extra = plan.remap(horizon) - horizon;
        assert!(
            extra <= horizon / 9,
            "extra {extra} too large for 10% droop"
        );
    }

    #[test]
    fn faulted_arrivals_stay_monotone_within_each_stream() {
        let units = sample_units();
        let mut faulted = layer(&units, lossy(11));
        let finish = faulted.finish_time();
        let mut recovery = 0;
        for (c, u) in units.iter().enumerate() {
            let mut last = 0;
            for i in 0..u.unit_count() {
                let t = faulted.unit_ready(c, i, 0);
                assert!(t >= last, "class {c} unit {i}");
                assert!(t <= finish, "no arrival after the faulted finish");
                last = t;
                recovery += faulted.last_surcharge().recovery;
            }
        }
        let stats = faulted.fault_stats();
        assert!(stats.retries > 0, "aggressive rates must cause retries");
        assert!(recovery > 0);
    }

    #[test]
    fn lossy_surcharge_is_exactly_the_delay_over_the_bare_engine() {
        let units = sample_units();
        let mut charged = 0;
        for seed in 0..8 {
            let mut bare = engine(&units);
            let mut faulted = layer(&units, lossy(seed));
            for (c, u) in units.iter().enumerate() {
                for i in 0..u.unit_count() {
                    let t = faulted.unit_ready(c, i, 0);
                    let s = faulted.last_surcharge();
                    assert_eq!(
                        t - bare.unit_ready(c, i, 0),
                        s.total(),
                        "seed {seed} ({c},{i})"
                    );
                    assert_eq!((s.hedge, s.integrity), (0, 0), "faults only recover");
                    charged += s.recovery;
                }
            }
        }
        assert!(charged > 0, "aggressive rates must surcharge some arrival");
    }

    #[test]
    fn stream_penalties_never_leak_across_classes() {
        // A plan that only ever faults class 0's units must leave class
        // 1's arrivals untouched (modulo shared-bandwidth effects, which
        // the base engine already covers — so drive each class alone).
        let units = vec![ClassUnits {
            prelude: 100,
            methods: vec![],
            trailing: 0,
        }];
        let plan = lossy(5);
        let mut faulted = layer(&units, plan);
        let d = plan.unit_delivery(0, 0, LINK.cycles_for(100));
        let base = engine(&units).unit_ready(0, 0, 0);
        assert_eq!(
            faulted.unit_ready(0, 0, 0),
            plan.remap(base) + d.penalty_cycles
        );
    }
}
