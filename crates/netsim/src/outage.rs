//! Full-connection-loss (outage) injection.
//!
//! A [`FaultPlan`](crate::faults::FaultPlan) perturbs individual unit
//! deliveries inside a live connection; an [`OutagePlan`] models the
//! failures *between* connections: the client is partitioned or killed
//! outright, nothing flows for the outage's duration, and on reconnect
//! the session pays a negotiation handshake before bytes move again.
//!
//! Like the fault layer, everything is deterministic: whether period `k`
//! of the base timeline suffers an outage, where in the period it
//! starts, and how long it lasts are all pure functions of
//! `(seed, period)` through the same SplitMix64 scheme, so a seeded run
//! replays bit for bit. An outage freezes the client and the link
//! *together*, so the base timeline (what would have happened without
//! outages) is undisturbed — wall time is the base time plus the total
//! downtime of every outage that began before it. [`OutageSchedule`]
//! materializes events lazily and answers that shift in `O(log n)`.

use crate::faults::splitmix;

/// Base-time length of one outage-draw period (~134 ms on the 500 MHz
/// Alpha): each period independently suffers at most one outage.
pub const OUTAGE_PERIOD_CYCLES: u64 = 1 << 26;

/// Domain-separation salts for the outage draws, disjoint from the
/// fault-layer salts.
const SALT_OUTAGE_HIT: u64 = 0x4f55_5447_4f55_5447;
const SALT_OUTAGE_START: u64 = 0x5354_5254_5354_5254;
const SALT_OUTAGE_LEN: u64 = 0x4c45_4e47_4c45_4e47;

/// A deterministic, seeded description of full connection losses
/// (client partitioned or killed), layered on top of whatever the
/// [`FaultPlan`](crate::faults::FaultPlan) does to the live link. Rates
/// are parts-per-million per [`OUTAGE_PERIOD_CYCLES`] so the plan stays
/// `Copy`, `Eq` and `Hash`-able; a zero-rate plan never interrupts
/// anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OutagePlan {
    /// Seed for every per-period draw; same seed, same outages, bit for
    /// bit.
    pub seed: u64,
    /// Probability (ppm) that a given base-time period contains an
    /// outage.
    pub rate_pm: u32,
    /// Shortest connection-loss duration, in cycles.
    pub min_cycles: u64,
    /// Longest connection-loss duration, in cycles.
    pub max_cycles: u64,
    /// Reconnect-and-resume handshake paid after every outage: link
    /// re-establishment plus journal validation on the server.
    pub negotiation_cycles: u64,
}

/// One materialized outage on the base timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageEvent {
    /// Base-timeline cycle the connection died.
    pub start: u64,
    /// Cycles the connection stayed down.
    pub outage_cycles: u64,
    /// Total wall-clock cost: the loss itself plus the resume
    /// negotiation on reconnect.
    pub downtime: u64,
}

impl OutagePlan {
    /// Default resume-negotiation latency (~1 ms on the 500 MHz Alpha):
    /// connection setup plus the journal CRC/epoch exchange.
    pub const DEFAULT_NEGOTIATION_CYCLES: u64 = 500_000;

    /// Default shortest outage (~8 ms on the Alpha).
    pub const DEFAULT_MIN_CYCLES: u64 = 1 << 22;

    /// Default longest outage (~537 ms on the Alpha).
    pub const DEFAULT_MAX_CYCLES: u64 = 1 << 28;

    /// A plan with rate zero under `seed` and the default durations and
    /// negotiation: the resume machinery is armed but the connection
    /// never actually dies.
    #[must_use]
    pub fn seeded(seed: u64) -> OutagePlan {
        OutagePlan {
            seed,
            rate_pm: 0,
            min_cycles: Self::DEFAULT_MIN_CYCLES,
            max_cycles: Self::DEFAULT_MAX_CYCLES,
            negotiation_cycles: Self::DEFAULT_NEGOTIATION_CYCLES,
        }
    }

    /// Whether an outage can actually occur. An inactive plan perturbs
    /// no timeline: results are byte-identical to an uninterrupted run.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.rate_pm > 0 && self.max_cycles > 0
    }

    fn draw(&self, period: u64, salt: u64) -> u64 {
        splitmix(splitmix(self.seed ^ salt) ^ period)
    }

    /// The outage in base-time period `k`, if the dice produce one.
    /// Deterministic in `(seed, k)`.
    #[must_use]
    pub fn event_in_period(&self, k: u64) -> Option<OutageEvent> {
        if !self.is_active() {
            return None;
        }
        let h = self.draw(k, SALT_OUTAGE_HIT);
        // h / 2^64 < rate / 1e6, exactly, in integers.
        if u128::from(h) * 1_000_000 >= u128::from(self.rate_pm) << 64 {
            return None;
        }
        let start = k
            .saturating_mul(OUTAGE_PERIOD_CYCLES)
            .saturating_add(self.draw(k, SALT_OUTAGE_START) % OUTAGE_PERIOD_CYCLES);
        let lo = self.min_cycles.min(self.max_cycles);
        let span = self.max_cycles - lo;
        let outage_cycles = lo + self.draw(k, SALT_OUTAGE_LEN) % (span + 1);
        Some(OutageEvent {
            start,
            outage_cycles,
            downtime: outage_cycles.saturating_add(self.negotiation_cycles),
        })
    }
}

/// Lazily materialized outage timeline for one plan. Events are
/// generated period by period as queries advance, so the schedule costs
/// nothing past the horizon a run actually reaches.
#[derive(Debug, Clone)]
pub struct OutageSchedule {
    plan: OutagePlan,
    /// Materialized events paired with the cumulative downtime through
    /// each (inclusive), sorted by start.
    events: Vec<(OutageEvent, u64)>,
    next_period: u64,
}

impl OutageSchedule {
    /// A schedule over `plan`, with nothing materialized yet.
    #[must_use]
    pub fn new(plan: OutagePlan) -> Self {
        OutageSchedule {
            plan,
            events: Vec::new(),
            next_period: 0,
        }
    }

    /// Materializes every period whose events could start before `t`.
    fn ensure(&mut self, t: u64) {
        if !self.plan.is_active() {
            return;
        }
        while self.next_period.saturating_mul(OUTAGE_PERIOD_CYCLES) <= t {
            if let Some(e) = self.plan.event_in_period(self.next_period) {
                let cum = self.events.last().map_or(0, |&(_, c)| c);
                self.events.push((e, cum.saturating_add(e.downtime)));
            }
            self.next_period += 1;
        }
    }

    /// Total downtime of every outage that began strictly before base
    /// time `t` — the shift turning a base instant into wall time.
    #[must_use]
    pub fn shift_before(&mut self, t: u64) -> u64 {
        self.ensure(t);
        let idx = self.events.partition_point(|&(e, _)| e.start < t);
        if idx == 0 {
            0
        } else {
            self.events[idx - 1].1
        }
    }

    /// Number of outages that began strictly before base time `t`.
    #[must_use]
    pub fn outages_before(&mut self, t: u64) -> u32 {
        self.ensure(t);
        u32::try_from(self.events.partition_point(|&(e, _)| e.start < t)).unwrap_or(u32::MAX)
    }

    /// Rewrites a base-timeline instant into wall time. Monotone (an
    /// outage only ever delays), and the identity for an inactive plan.
    #[must_use]
    pub fn remap(&mut self, t: u64) -> u64 {
        let s = self.shift_before(t);
        t.saturating_add(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stormy(seed: u64) -> OutagePlan {
        OutagePlan {
            rate_pm: 400_000,
            min_cycles: 1 << 20,
            max_cycles: 1 << 24,
            negotiation_cycles: 250_000,
            ..OutagePlan::seeded(seed)
        }
    }

    #[test]
    fn quiet_plan_is_the_identity() {
        let mut s = OutageSchedule::new(OutagePlan::seeded(7));
        for t in [0, 1, 12_345, u64::MAX / 2] {
            assert_eq!(s.remap(t), t);
            assert_eq!(s.shift_before(t), 0);
            assert_eq!(s.outages_before(t), 0);
        }
    }

    #[test]
    fn events_are_deterministic_and_seed_sensitive() {
        let plan = stormy(3);
        for k in 0..64 {
            assert_eq!(plan.event_in_period(k), plan.event_in_period(k));
        }
        let other = stormy(4);
        let differs = (0..64).any(|k| plan.event_in_period(k) != other.event_in_period(k));
        assert!(
            differs,
            "two seeds agreeing everywhere would ignore the seed"
        );
    }

    #[test]
    fn durations_respect_the_plan_bounds() {
        let plan = stormy(11);
        let mut seen = 0;
        for k in 0..256 {
            if let Some(e) = plan.event_in_period(k) {
                seen += 1;
                assert!(e.outage_cycles >= plan.min_cycles);
                assert!(e.outage_cycles <= plan.max_cycles);
                assert_eq!(e.downtime, e.outage_cycles + plan.negotiation_cycles);
                assert!(e.start >= k * OUTAGE_PERIOD_CYCLES);
                assert!(e.start < (k + 1) * OUTAGE_PERIOD_CYCLES);
            }
        }
        assert!(seen > 0, "a 40% rate over 256 periods must produce outages");
    }

    #[test]
    fn remap_is_monotone_and_matches_the_naive_sum() {
        let plan = stormy(5);
        let mut sched = OutageSchedule::new(plan);
        let mut last = 0;
        for i in 0..400 {
            let t = i * (OUTAGE_PERIOD_CYCLES / 3);
            let r = sched.remap(t);
            assert!(r >= t, "outages only delay");
            assert!(r >= last, "remap must be monotone");
            last = r;
            let naive: u64 = (0..=t / OUTAGE_PERIOD_CYCLES)
                .filter_map(|k| plan.event_in_period(k))
                .filter(|e| e.start < t)
                .map(|e| e.downtime)
                .sum();
            assert_eq!(
                r - t,
                naive,
                "shift must equal the sum of crossed downtimes"
            );
        }
    }

    #[test]
    fn shift_is_stable_across_query_orders() {
        // Lazy materialization must not depend on the query pattern.
        let plan = stormy(9);
        let mut forward = OutageSchedule::new(plan);
        let mut jumped = OutageSchedule::new(plan);
        let horizon = 100 * OUTAGE_PERIOD_CYCLES;
        let far = jumped.shift_before(horizon);
        let mut acc = 0;
        for i in 0..=100 {
            acc = forward.shift_before(i * OUTAGE_PERIOD_CYCLES);
        }
        assert_eq!(acc, far);
        assert_eq!(jumped.shift_before(0), 0);
    }
}
