//! Replica-set transfer: health-scored mirrors, hedged demand fetches,
//! and mid-stream failover.
//!
//! A [`ReplicaProfile`] describes one mirror of the restructured
//! program: its own bandwidth (the base link plus a per-mirror spread),
//! its own seeded [`FaultPlan`] (independent loss/corruption/droop
//! draws), its own seeded [`OutagePlan`] (windows where the mirror is
//! unreachable), and an optional death instant for failover testing.
//!
//! Given a [`ReplicaSet`], the fault layer ([`FaultLayer`]) routes
//! every transfer unit to a mirror:
//!
//! * the client keeps an **EWMA health score** per replica (goodput of
//!   the units it served, decayed by every outage window it was caught
//!   in) and routes each unit to the best-scored live replica;
//! * a unit whose delivery would stall past the **hedge deadline** gets
//!   a duplicate fetch to the second-best replica; the first verified
//!   arrival wins, the loser is canceled, and only the winner plus a
//!   fixed [`HEDGE_OVERHEAD_CYCLES`] charge lands on the timeline;
//! * a dead or unreachable mirror triggers **failover** at the next
//!   unit boundary: verified units never re-transfer, because the
//!   class stream's delivered watermark (PR 2/3 machinery upstream)
//!   survives the switch untouched.
//!
//! Routing decisions run on the deterministic class-major strict
//! timeline (the cumulative base-link transfer clock), so the whole
//! assignment is a pure function of `(profiles, units, link)` computed
//! eagerly at construction — arrivals stay pure lookups, probes cannot
//! perturb the schedule, and a seeded run replays bit for bit. A set
//! of identical perfect mirrors is a transparent wrapper: every
//! surcharge is zero and the inner engine's timeline passes through
//! unchanged.

use std::cmp::Reverse;

use nonstrict_wire::{decay_health, ewma_health, HEALTH_FULL_PPM};

use crate::byzantine::{
    ByzantineMode, ByzantinePlan, IntegrityStats, AUDIT_COMPARE_CYCLES, DIGEST_CHECK_CYCLES,
    QUARANTINE_CYCLES,
};
use crate::engine::Surcharge;
use crate::faults::{splitmix, FaultLayer, FaultPlan};
use crate::link::Link;
use crate::outage::{OutagePlan, OUTAGE_PERIOD_CYCLES};
use crate::unit::ClassUnits;

/// Hard cap on mirrors in one replica set; keeps per-run summaries
/// fixed-size (and `Copy`) all the way up the stack.
pub const MAX_REPLICAS: usize = 8;

/// Cycles charged for issuing (and later canceling) a hedged duplicate
/// fetch: the request send plus the cancel round (~0.1 ms on the
/// 500 MHz Alpha). The loser's transfer itself is never charged.
pub const HEDGE_OVERHEAD_CYCLES: u64 = 50_000;

/// Domain-separation salt for per-replica sub-seed derivation.
const SALT_REPLICA: u64 = 0x5245_504c_4943_4131;

/// Derives the seed for replica `index` from a base seed. Replica 0
/// keeps the base seed exactly, so a one-mirror set is the single
/// origin it replaces, bit for bit.
#[must_use]
pub fn replica_seed(base: u64, index: u32) -> u64 {
    if index == 0 {
        base
    } else {
        splitmix(base ^ SALT_REPLICA ^ u64::from(index))
    }
}

/// One mirror of the restructured program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReplicaProfile {
    /// The mirror's own link (base link slowed by the per-mirror
    /// spread).
    pub link: Link,
    /// The mirror's independently seeded fault profile.
    pub faults: FaultPlan,
    /// The mirror's independently seeded unreachability windows.
    pub outages: OutagePlan,
    /// Base-timeline cycle at which the mirror dies for good, if it
    /// does (failover testing).
    pub dead_from: Option<u64>,
}

/// Final per-replica accounting for one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaHealth {
    /// Units this replica ended up serving (hedge winners included).
    pub units_served: u32,
    /// Payload bytes of the units it served.
    pub bytes_served: u64,
    /// Retransmissions its fault profile forced on those units.
    pub retries: u64,
    /// Routing instants that caught this replica inside one of its
    /// outage windows.
    pub outage_hits: u32,
    /// Final EWMA health score (ppm; 1,000,000 = perfect goodput).
    pub health_ppm: u32,
    /// Whether the replica was still alive when the transfer ended.
    pub alive: bool,
    /// Units this replica served with bytes diverging from the pinned
    /// manifest (zero when no Byzantine protection is armed).
    pub equivocations: u32,
    /// Whether proven divergence expelled the replica from the set.
    pub quarantined: bool,
}

/// Aggregate replica-set counters for one engine.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Mirrors in the set (0 when no replica routing is active).
    pub replicas: u32,
    /// Hedged duplicate fetches issued.
    pub hedges: u64,
    /// Hedges whose duplicate arrived (verified) first.
    pub hedge_wins: u64,
    /// Unit boundaries where the serving replica changed inside one
    /// class stream (failover or hedge winner switch).
    pub failovers: u64,
    /// Whether routing was ever down to at most one live replica — the
    /// session above fails closed to strict execution from the sole
    /// survivor.
    pub sole_survivor: bool,
    /// Per-replica accounting, `health[..replicas as usize]` valid.
    pub health: [ReplicaHealth; MAX_REPLICAS],
}

/// Remaining unreachability if base instant `t` falls inside one of the
/// plan's outage windows; zero otherwise. Windows can outlast their
/// draw period, so every period that could still cover `t` is checked.
fn outage_wait(plan: &OutagePlan, t: u64) -> u64 {
    if plan.is_quiet() {
        return 0;
    }
    let first = t.saturating_sub(plan.max_cycles) / OUTAGE_PERIOD_CYCLES;
    let last = t / OUTAGE_PERIOD_CYCLES;
    let mut wait = 0u64;
    for k in first..=last {
        if let Some(e) = plan.event_in_period(k) {
            let end = e.start.saturating_add(e.outage_cycles);
            if e.start <= t && t < end {
                wait = wait.max(end - t);
            }
        }
    }
    wait
}

/// A replica set for [`FaultLayer::new`]: the mirrors, the hedge
/// deadline, and the Byzantine plan that arms the manifest layer, if
/// any.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaSet<'a> {
    /// The mirrors, truncated to [`MAX_REPLICAS`].
    pub profiles: &'a [ReplicaProfile],
    /// Stall past which a unit is hedged to the runner-up; zero
    /// disables hedging.
    pub hedge_deadline: u64,
    /// With a plan, every delivered unit is checked against its pinned
    /// manifest digest, divergent mirrors are quarantined and failed
    /// over, a seeded fraction of units is cross-audited on the
    /// runner-up mirror, and a [`ByzantineMode::StaleEpoch`] plan gets
    /// an epoch fence at the midpoint of the class-major strict
    /// timeline (the origin's mid-stream re-restructure).
    pub byzantine: Option<ByzantinePlan>,
}

impl FaultLayer {
    /// Routes every unit of `units` to the healthiest live mirror of
    /// `set`, hedging past-deadline deliveries to the runner-up. Every
    /// routing decision, health update, and surcharge is computed on
    /// the deterministic class-major strict clock over the base `link`.
    pub(crate) fn route(&mut self, set: &ReplicaSet<'_>, units: &[ClassUnits], link: Link) {
        let (profiles, hedge_deadline, plan) = (set.profiles, set.hedge_deadline, set.byzantine);
        let n = profiles.len().clamp(1, MAX_REPLICAS);
        let profiles = &profiles[..n];
        let mut health = [HEALTH_FULL_PPM; MAX_REPLICAS];
        let mut rstats = ReplicaStats {
            replicas: u32::try_from(n).unwrap_or(u32::MAX),
            ..ReplicaStats::default()
        };
        let mut istats = IntegrityStats {
            armed: plan.is_some(),
            ..IntegrityStats::default()
        };
        let mut quarantined = [false; MAX_REPLICAS];
        // The epoch fence: a stale-epoch plan models the origin
        // re-restructuring halfway through the class-major strict
        // timeline; honest mirrors pick the new epoch up instantly,
        // the stale mirrors keep serving the old layout.
        let fence_est: Option<u64> =
            plan.filter(|p| p.mode == ByzantineMode::StaleEpoch)
                .map(|_| {
                    units
                        .iter()
                        .flat_map(ClassUnits::sizes)
                        .map(|b| link.cycles_for(b))
                        .sum::<u64>()
                        / 2
                });
        let mut fence_crossed = false;
        // The routing clock: the class-major strict timeline. It only
        // depends on (units, link), so routing is probe-proof.
        let mut est = 0u64;
        for (c, u) in units.iter().enumerate() {
            let mut pre = Vec::with_capacity(u.unit_count());
            let mut assign = Vec::with_capacity(u.unit_count());
            let mut acc = Surcharge::default();
            let mut prev_serving: Option<usize> = None;
            for (i, bytes) in u.sizes().enumerate() {
                let base_tx = link.cycles_for(bytes);
                // The candidates: replicas still alive at the routing
                // instant and not quarantined for proven divergence,
                // ranked reachable-first, then healthiest, then lowest
                // id.
                let mut ranked: Vec<(usize, u64)> = (0..n)
                    .filter(|&r| profiles[r].dead_from.is_none_or(|d| est < d) && !quarantined[r])
                    .map(|r| (r, outage_wait(&profiles[r].outages, est)))
                    .collect();
                ranked.sort_by_key(|&(r, wait)| (wait > 0, Reverse(health[r]), r));
                if ranked.len() <= 1 && n >= 2 {
                    rstats.sole_survivor = true;
                }
                // Every reachability check decays the health of a
                // replica caught inside one of its outage windows.
                for &(r, wait) in &ranked {
                    if wait > 0 {
                        rstats.health[r].outage_hits += 1;
                        health[r] = decay_health(health[r]);
                    }
                }
                let cost_of = |r: usize, wait: u64| {
                    let p = &profiles[r];
                    let tx = p.link.cycles_for(bytes);
                    let d = p.faults.unit_delivery(c, i, tx);
                    let droop = p
                        .faults
                        .remap(est.saturating_add(tx))
                        .saturating_sub(p.faults.remap(est))
                        .saturating_sub(tx);
                    let cost = tx
                        .saturating_sub(base_tx)
                        .saturating_add(d.penalty_cycles)
                        .saturating_add(droop)
                        .saturating_add(wait);
                    (cost, d, tx)
                };
                let (primary, wait_p) = ranked.first().copied().unwrap_or((0, 0));
                let (cost_p, d_p, tx_p) = cost_of(primary, wait_p);
                let mut serving = primary;
                let mut recovery = cost_p;
                let mut delivery = d_p;
                let mut tx_s = tx_p;
                let mut hedge = 0u64;
                if hedge_deadline > 0 && cost_p > hedge_deadline {
                    if let Some(&(second, wait_s)) = ranked.get(1) {
                        // The primary stalled past the deadline: issue
                        // a duplicate to the runner-up and take the
                        // first arrival, charging only the winner plus
                        // the issue/cancel overhead.
                        rstats.hedges += 1;
                        let (cost_s, d_s, t_s) = cost_of(second, wait_s);
                        let hedged = hedge_deadline
                            .saturating_add(cost_s)
                            .saturating_add(HEDGE_OVERHEAD_CYCLES);
                        if hedged < cost_p {
                            rstats.hedge_wins += 1;
                            serving = second;
                            recovery = cost_s;
                            delivery = d_s;
                            tx_s = t_s;
                            hedge = hedge_deadline + HEDGE_OVERHEAD_CYCLES;
                        } else {
                            hedge = HEDGE_OVERHEAD_CYCLES;
                        }
                    }
                }
                // The integrity layer: check the delivered unit against
                // its pinned manifest digest, cross-audit a seeded
                // sample on the runner-up, and quarantine + refetch on
                // proven divergence. Everything the misbehavior causes
                // — the wasted divergent transmission, teardown, audit
                // arbitration, fence re-pins — lands in the integrity
                // surcharge; the honest refetch that replaces a
                // divergent unit is accounted like any normal delivery.
                let mut integrity = 0u64;
                if let Some(p) = plan {
                    istats.digest_checks += 1;
                    integrity = integrity.saturating_add(DIGEST_CHECK_CYCLES);
                    if fence_est.is_some_and(|f| est >= f) && !fence_crossed {
                        // First routing instant past the origin's
                        // re-restructure: re-fetch and pin the new
                        // manifest epoch before linking anything else.
                        fence_crossed = true;
                        istats.manifest_pins += 1;
                        integrity = integrity
                            .saturating_add(link.cycles_for(p.manifest_bytes))
                            .saturating_add(DIGEST_CHECK_CYCLES);
                    }
                    let past_fence = fence_est.is_some_and(|f| est >= f);
                    let diverged = p.diverges(serving, c, i, n, past_fence);
                    let audited = p.audits(c, i);
                    if audited {
                        istats.audits += 1;
                        integrity = integrity.saturating_add(AUDIT_COMPARE_CYCLES);
                    }
                    if diverged {
                        istats.divergent_units += 1;
                        rstats.health[serving].equivocations += 1;
                        if p.mode.detected_inline() || audited {
                            if audited && !p.mode.detected_inline() {
                                istats.audit_mismatches += 1;
                            }
                            // Refetch chain: quarantine the divergent
                            // mirror and re-fetch from the next-ranked
                            // candidate — whose bytes are digest-checked
                            // too, so a whole stale sub-fleet is
                            // quarantined in one walk. Stops at the
                            // first digest-clean source, or fails
                            // closed when none is left (the last source
                            // is never expelled: the engine still needs
                            // a defined timeline for the session above
                            // to fail closed from).
                            loop {
                                let alt = ranked
                                    .iter()
                                    .copied()
                                    .find(|&(r, _)| r != serving && !quarantined[r]);
                                let Some((r2, wait2)) = alt else {
                                    rstats.sole_survivor = true;
                                    break;
                                };
                                // Quarantined like a dead mirror: out
                                // of the candidate set from the next
                                // routing instant, score floored.
                                quarantined[serving] = true;
                                rstats.health[serving].quarantined = true;
                                health[serving] = 0;
                                istats.quarantines += 1;
                                if p.mode == ByzantineMode::StaleEpoch && past_fence {
                                    istats.fence_refetches += 1;
                                }
                                // The divergent attempt was wasted: its
                                // full transmission plus whatever
                                // recovery it dragged in, plus the
                                // teardown.
                                istats.refetched_bytes += bytes;
                                integrity = integrity
                                    .saturating_add(QUARANTINE_CYCLES)
                                    .saturating_add(base_tx)
                                    .saturating_add(recovery);
                                if !p.mode.detected_inline() {
                                    // Collusion linked a wrong-but-
                                    // verifiable prefix before the
                                    // audit caught it: everything the
                                    // mirror served so far re-transfers
                                    // from the runner-up.
                                    let prev = rstats.health[serving].bytes_served;
                                    istats.refetched_bytes += prev;
                                    integrity = integrity
                                        .saturating_add(profiles[r2].link.cycles_for(prev));
                                }
                                // The refetch is a normal delivery from
                                // the runner-up...
                                let (cost2, d2, t2) = cost_of(r2, wait2);
                                serving = r2;
                                recovery = cost2;
                                delivery = d2;
                                tx_s = t2;
                                istats.digest_checks += 1;
                                integrity = integrity.saturating_add(DIGEST_CHECK_CYCLES);
                                if !p.diverges(r2, c, i, n, past_fence) {
                                    break;
                                }
                                // ...unless the runner-up equivocates
                                // too: caught by the same digest check,
                                // walk on.
                                istats.divergent_units += 1;
                                rstats.health[r2].equivocations += 1;
                            }
                        } else {
                            // Collusion passed the digest and the audit
                            // sampler skipped this unit: wrong bytes
                            // were linked and executed.
                            istats.undetected_units += 1;
                        }
                    }
                }
                if prev_serving.is_some_and(|p| p != serving) {
                    rstats.failovers += 1;
                }
                prev_serving = Some(serving);
                acc.recovery = acc.recovery.saturating_add(recovery);
                acc.hedge = acc.hedge.saturating_add(hedge);
                acc.integrity = acc.integrity.saturating_add(integrity);
                pre.push(acc);
                assign.push(u32::try_from(serving).unwrap_or(u32::MAX));
                self.record(c, bytes, &delivery);
                let h = &mut rstats.health[serving];
                h.units_served += 1;
                h.bytes_served += bytes;
                h.retries += u64::from(delivery.retries);
                if tx_s > 0 {
                    // Goodput sample in ppm: clean transmission over
                    // transmission-plus-recovery.
                    let sample = u32::try_from(
                        u128::from(tx_s) * u128::from(HEALTH_FULL_PPM)
                            / u128::from(tx_s.saturating_add(recovery)),
                    )
                    .unwrap_or(HEALTH_FULL_PPM);
                    health[serving] = ewma_health(health[serving], sample);
                }
                est = est.saturating_add(base_tx);
            }
            self.prefix.push(pre);
            self.serving.push(assign);
        }
        for (r, p) in profiles.iter().enumerate() {
            rstats.health[r].health_ppm = health[r];
            rstats.health[r].alive = p.dead_from.is_none_or(|d| d > est);
        }
        self.replicas = rstats;
        self.integrity = istats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TransferEngine;
    use crate::faults::FaultStats;
    use crate::schedule::ParallelSchedule;
    use crate::ParallelEngine;

    const LINK: Link = Link {
        cycles_per_byte: 10,
        name: "test",
    };

    fn sample_units() -> Vec<ClassUnits> {
        vec![
            ClassUnits {
                prelude: 100,
                methods: vec![50, 50, 80],
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

    fn perfect_profile(seed: u64) -> ReplicaProfile {
        ReplicaProfile {
            link: LINK,
            faults: FaultPlan::perfect(seed),
            outages: OutagePlan::quiet(seed),
            dead_from: None,
        }
    }

    fn lossy_profile(seed: u64) -> ReplicaProfile {
        ReplicaProfile {
            faults: FaultPlan {
                seed,
                loss_pm: 400_000,
                corrupt_pm: 100_000,
                drop_pm: 50_000,
                semantic_pm: 0,
                droop_pm: 0,
                reconnect_cycles: 500_000,
            },
            ..perfect_profile(seed)
        }
    }

    fn layered(
        units: &[ClassUnits],
        profiles: &[ReplicaProfile],
        hedge_deadline: u64,
        byzantine: Option<ByzantinePlan>,
    ) -> FaultLayer {
        let set = ReplicaSet {
            profiles,
            hedge_deadline,
            byzantine,
        };
        FaultLayer::new(Box::new(engine(units)), units, LINK, None, Some(set))
    }

    /// The surcharge the engine charged across the whole transfer, by
    /// cause. Each class stream's surcharge accumulates along the
    /// stream, so the last arrival of a class carries the sum of every
    /// arrival's share; summed over classes, that is the total.
    fn charged(set: &mut FaultLayer, units: &[ClassUnits]) -> Surcharge {
        let mut total = Surcharge::default();
        for (c, u) in units.iter().enumerate() {
            set.unit_ready(c, u.unit_count() - 1, 0);
            let s = set.last_surcharge();
            total.recovery += s.recovery;
            total.hedge += s.hedge;
            total.integrity += s.integrity;
        }
        total
    }

    #[test]
    fn identical_perfect_mirrors_are_transparent() {
        let units = sample_units();
        let profiles = [perfect_profile(1), perfect_profile(2), perfect_profile(3)];
        let mut bare = engine(&units);
        let mut set = layered(&units, &profiles, 1_000, None);
        for (c, u) in units.iter().enumerate() {
            for i in 0..u.unit_count() {
                assert_eq!(set.unit_ready(c, i, 0), bare.unit_ready(c, i, 0));
                assert_eq!(set.last_surcharge(), Surcharge::default());
                assert_eq!(set.serving_replica(c, i), 0, "ties go to the primary");
            }
        }
        assert_eq!(set.finish_time(), bare.finish_time());
        assert_eq!(set.fault_stats(), FaultStats::default());
        let r = set.replica_stats();
        assert_eq!(r.replicas, 3);
        assert_eq!(
            (
                r.hedges,
                r.hedge_wins,
                charged(&mut set, &units).hedge,
                r.failovers
            ),
            (0, 0, 0, 0)
        );
        assert!(!r.sole_survivor);
        assert!(r.health[..3]
            .iter()
            .all(|h| h.health_ppm == HEALTH_FULL_PPM && h.alive));
    }

    #[test]
    fn routing_is_deterministic_and_seed_sensitive() {
        let units = sample_units();
        let mk = |seed| {
            layered(
                &units,
                &[lossy_profile(seed), lossy_profile(seed + 100)],
                200_000,
                None,
            )
        };
        let a = mk(7).replica_stats();
        let b = mk(7).replica_stats();
        assert_eq!(a, b, "same profiles must route identically");
        let c = mk(8).replica_stats();
        assert_ne!(a.health, c.health, "seeds must matter");
    }

    #[test]
    fn heavy_primary_faults_trigger_hedges_that_win() {
        // Enough same-shaped units that a 40%-loss plan is certain to
        // fault some of them under this fixed seed.
        let units: Vec<ClassUnits> = (0..2)
            .map(|_| ClassUnits {
                prelude: 100,
                methods: vec![50, 50, 80],
                trailing: 0,
            })
            .collect();
        let profiles = [lossy_profile(3), perfect_profile(4)];
        let mut set = layered(&units, &profiles, 100_000, None);
        let r = set.replica_stats();
        assert!(r.hedges > 0, "40% loss must stall units past the deadline");
        assert!(r.hedge_wins > 0, "a perfect runner-up must win some hedges");
        assert!(charged(&mut set, &units).hedge > 0);
        // Hedging is bounded: every unit's total surcharge is at most
        // deadline + runner-up cost + overhead, so arrivals stay
        // monotone and finite.
        let finish = set.finish_time();
        for (c, u) in units.iter().enumerate() {
            let mut last = 0;
            for i in 0..u.unit_count() {
                let t = set.unit_ready(c, i, 0);
                assert!(t >= last, "class {c} unit {i} must stay monotone");
                assert!(t <= finish);
                assert_eq!(set.last_surcharge().integrity, 0, "no plan, no digests");
                last = t;
            }
        }
        assert_eq!(set.integrity_stats(), IntegrityStats::default());
    }

    #[test]
    fn dead_replica_fails_over_at_the_next_unit_boundary() {
        let units = sample_units();
        let profiles = [
            ReplicaProfile {
                dead_from: Some(1), // dies before the second routing instant
                ..perfect_profile(1)
            },
            perfect_profile(2),
            perfect_profile(3),
        ];
        let mut set = layered(&units, &profiles, 0, None);
        let r = set.replica_stats();
        assert_eq!(set.serving_replica(0, 0), 0, "first unit routes at est 0");
        for (c, u) in units.iter().enumerate() {
            for i in 0..u.unit_count() {
                if (c, i) != (0, 0) {
                    assert_ne!(set.serving_replica(c, i), 0, "dead mirrors serve nothing");
                }
            }
        }
        assert!(
            r.failovers >= 1,
            "the switch off the dead mirror is a failover"
        );
        assert!(!r.health[0].alive);
        assert!(!r.sole_survivor, "two mirrors survive");
        // Identical surviving mirrors: the timeline is unperturbed.
        let mut bare = engine(&units);
        assert_eq!(set.finish_time(), bare.finish_time());
    }

    #[test]
    fn killing_all_but_one_raises_the_sole_survivor_flag() {
        let units = sample_units();
        let profiles = [
            ReplicaProfile {
                dead_from: Some(0),
                ..perfect_profile(1)
            },
            perfect_profile(2),
        ];
        let set = layered(&units, &profiles, 0, None);
        let r = set.replica_stats();
        assert!(r.sole_survivor);
        assert_eq!(
            r.health[1].units_served as usize,
            units.iter().map(ClassUnits::unit_count).sum::<usize>()
        );
    }

    #[test]
    fn health_scores_rank_a_faulty_mirror_below_a_clean_one() {
        let units: Vec<ClassUnits> = (0..6)
            .map(|_| ClassUnits {
                prelude: 200,
                methods: vec![100, 100, 100],
                trailing: 50,
            })
            .collect();
        let profiles = [lossy_profile(5), perfect_profile(6)];
        let set = layered(&units, &profiles, 0, None);
        let r = set.replica_stats();
        assert!(
            r.health[0].health_ppm < r.health[1].health_ppm,
            "a 40%-loss mirror must score below a perfect one: {:?}",
            r.health
        );
        assert!(
            r.health[1].units_served > 0,
            "routing must shift work to the healthy mirror"
        );
    }

    #[test]
    fn outage_windows_divert_routing_and_decay_health() {
        let units: Vec<ClassUnits> = (0..4)
            .map(|_| ClassUnits {
                prelude: 1 << 20, // big units so est crosses outage periods
                methods: vec![1 << 19],
                trailing: 0,
            })
            .collect();
        let stormy = ReplicaProfile {
            outages: OutagePlan {
                seed: 9,
                rate_pm: 1_000_000,
                min_cycles: OUTAGE_PERIOD_CYCLES / 2,
                max_cycles: OUTAGE_PERIOD_CYCLES / 2,
                negotiation_cycles: 0,
            },
            ..perfect_profile(9)
        };
        let profiles = [stormy, perfect_profile(10)];
        let set = layered(&units, &profiles, 0, None);
        let r = set.replica_stats();
        assert!(
            r.health[0].outage_hits > 0,
            "an every-period outage plan must catch some routing instants"
        );
        assert!(r.health[0].health_ppm < HEALTH_FULL_PPM);
        assert!(
            r.health[1].units_served > 0,
            "routing must avoid the unreachable mirror"
        );
    }

    #[test]
    fn equivocating_mirror_is_quarantined_at_first_divergence() {
        // Enough units that a 20% divergence plan certainly fires.
        let units: Vec<ClassUnits> = (0..4)
            .map(|_| ClassUnits {
                prelude: 200,
                methods: vec![100, 100, 100, 100],
                trailing: 50,
            })
            .collect();
        let profiles = [perfect_profile(1), perfect_profile(2)];
        let plan = ByzantinePlan {
            seed: 5,
            byzantine: 1,
            mode: ByzantineMode::Equivocate,
            audit_rate_pm: 0,
            manifest_bytes: 64,
        };
        // Kill mirror 0 so the byzantine mirror 1 serves first.
        let dead_primary = [
            ReplicaProfile {
                dead_from: Some(0),
                ..profiles[0]
            },
            profiles[1],
        ];
        let set = layered(&units, &dead_primary, 0, Some(plan));
        let st = set.integrity_stats();
        assert!(st.armed);
        assert!(st.digest_checks > 0);
        assert!(st.divergent_units >= 1, "a 20% plan must diverge somewhere");
        let r = set.replica_stats();
        assert!(r.health[1].equivocations >= 1);
        // With no honest mirror left the set fails closed instead of
        // quarantining into an empty candidate list.
        assert!(r.sole_survivor);
        assert_eq!(st.quarantines, 0, "the last source is never expelled");
        assert_eq!(
            st.undetected_units, 0,
            "inline detection executes nothing wrong"
        );
    }

    #[test]
    fn equivocation_quarantines_and_fails_over() {
        let units: Vec<ClassUnits> = (0..4)
            .map(|_| ClassUnits {
                prelude: 200,
                methods: vec![100, 100, 100, 100],
                trailing: 50,
            })
            .collect();
        let profiles = [perfect_profile(1), perfect_profile(2), perfect_profile(3)];
        let plan = ByzantinePlan {
            seed: 5,
            byzantine: 2,
            mode: ByzantineMode::Equivocate,
            audit_rate_pm: 0,
            manifest_bytes: 64,
        };
        // Kill the honest primary's rank: mirrors 1 and 2 are
        // byzantine, mirror 0 honest; force routing through a
        // byzantine mirror by killing mirror 0 for the first units.
        let p = [
            ReplicaProfile {
                dead_from: Some(1),
                ..profiles[0]
            },
            profiles[1],
            profiles[2],
        ];
        let mut set = layered(&units, &p, 0, Some(plan));
        let st = set.integrity_stats();
        let r = set.replica_stats();
        assert!(
            st.quarantines >= 1,
            "a diverging mirror must be quarantined"
        );
        assert!(charged(&mut set, &units).integrity > 0);
        assert!(st.refetched_bytes > 0);
        let quarantined: Vec<usize> = (1..3).filter(|&i| r.health[i].quarantined).collect();
        assert!(!quarantined.is_empty());
        // A quarantined mirror serves nothing after its divergence:
        // walk the assignment and check no unit maps to it after its
        // equivocation was caught.
        let mut seen_quarantine = false;
        for (c, u) in units.iter().enumerate() {
            for i in 0..u.unit_count() {
                let s = set.serving_replica(c, i) as usize;
                if seen_quarantine {
                    assert!(
                        !r.health[s].quarantined,
                        "unit ({c},{i}) served by quarantined mirror {s}"
                    );
                }
                if r.health[s].quarantined {
                    seen_quarantine = true;
                }
            }
        }
    }

    #[test]
    fn colluding_mirror_is_caught_only_by_audits() {
        let units: Vec<ClassUnits> = (0..6)
            .map(|_| ClassUnits {
                prelude: 200,
                methods: vec![100, 100, 100, 100],
                trailing: 50,
            })
            .collect();
        let p = [
            ReplicaProfile {
                dead_from: Some(1),
                ..perfect_profile(1)
            },
            perfect_profile(2),
            perfect_profile(3),
        ];
        let mk = |audit_rate_pm| {
            let plan = ByzantinePlan {
                seed: 5,
                byzantine: 2,
                mode: ByzantineMode::Collude,
                audit_rate_pm,
                manifest_bytes: 64,
            };
            layered(&units, &p, 0, Some(plan)).integrity_stats()
        };
        let no_audit = mk(0);
        assert_eq!(no_audit.quarantines, 0, "forged digests pass inline checks");
        assert!(
            no_audit.undetected_units > 0,
            "unaudited collusion executes wrong bytes"
        );
        let audited = mk(500_000);
        assert!(audited.audits > 0);
        assert!(
            audited.audit_mismatches > 0 && audited.quarantines > 0,
            "a 50% audit rate must catch a 20% divergence stream: {audited:?}"
        );
        assert!(
            audited.undetected_units < no_audit.undetected_units,
            "auditing must shrink the wrong-prefix exposure"
        );
    }

    #[test]
    fn stale_epoch_mirror_serves_nothing_after_the_fence() {
        let units: Vec<ClassUnits> = (0..6)
            .map(|_| ClassUnits {
                prelude: 200,
                methods: vec![100, 100, 100, 100],
                trailing: 50,
            })
            .collect();
        // Mirror 1 is byzantine-stale; mirror 0 honest and healthy.
        let p = [perfect_profile(1), perfect_profile(2)];
        let plan = ByzantinePlan {
            seed: 5,
            byzantine: 1,
            mode: ByzantineMode::StaleEpoch,
            audit_rate_pm: 0,
            manifest_bytes: 64,
        };
        let set = layered(&units, &p, 0, Some(plan));
        let st = set.integrity_stats();
        // Healthy honest primary keeps the stale mirror idle: no
        // divergence ever observed, but the fence re-pin still fires.
        assert_eq!(st.manifest_pins, 1, "the fence re-pins the manifest");
        assert_eq!(st.fence_refetches, 0);
        // Now make the stale mirror the preferred server: pair it with
        // an honest-but-lossy primary whose health decays fast.
        let p = [lossy_profile(1), perfect_profile(2)];
        let mut set = layered(&units, &p, 0, Some(plan));
        let st = set.integrity_stats();
        let r = set.replica_stats();
        assert!(
            r.health[1].units_served > 0,
            "the clean stale mirror must out-rank the lossy one pre-fence"
        );
        assert!(
            st.fence_refetches >= 1,
            "a serving stale mirror must be caught at the fence: {st:?}"
        );
        assert!(r.health[1].quarantined);
        // No post-fence unit may remain assigned to the stale mirror:
        // detection refetches it from the honest one.
        let total: u64 = units
            .iter()
            .flat_map(ClassUnits::sizes)
            .map(|b| LINK.cycles_for(b))
            .sum();
        let fence = total / 2;
        let mut est = 0u64;
        for (c, u) in units.iter().enumerate() {
            for (i, bytes) in u.sizes().enumerate() {
                let s = set.serving_replica(c, i) as usize;
                assert!(
                    est < fence || !plan.is_byzantine(s, 2),
                    "post-fence unit ({c},{i}) assigned to stale mirror {s}"
                );
                est += LINK.cycles_for(bytes);
            }
        }
        let _ = set.finish_time();
    }

    #[test]
    fn hedged_armed_surcharge_is_exactly_the_delay_over_the_bare_engine() {
        let units: Vec<ClassUnits> = (0..4)
            .map(|_| ClassUnits {
                prelude: 200,
                methods: vec![100, 100, 100, 100],
                trailing: 50,
            })
            .collect();
        let profiles = [lossy_profile(3), lossy_profile(4), lossy_profile(5)];
        let plan = ByzantinePlan {
            seed: 5,
            byzantine: 1,
            mode: ByzantineMode::Equivocate,
            audit_rate_pm: 200_000,
            manifest_bytes: 64,
        };
        let mut bare = engine(&units);
        let mut set = layered(&units, &profiles, 100_000, Some(plan));
        for (c, u) in units.iter().enumerate() {
            for i in 0..u.unit_count() {
                let t = set.unit_ready(c, i, 0);
                let s = set.last_surcharge();
                assert_eq!(t - bare.unit_ready(c, i, 0), s.total(), "({c},{i}): {s:?}");
            }
        }
        let total = charged(&mut set, &units);
        assert!(
            set.replica_stats().hedges > 0,
            "the lossy primary must hedge"
        );
        assert!(
            total.recovery > 0 && total.hedge > 0 && total.integrity > 0,
            "{total:?}"
        );
    }

    #[test]
    fn replica_seed_zero_is_the_base_seed() {
        assert_eq!(replica_seed(0xabcd, 0), 0xabcd);
        assert_ne!(replica_seed(0xabcd, 1), 0xabcd);
        assert_ne!(replica_seed(0xabcd, 1), replica_seed(0xabcd, 2));
        assert_ne!(replica_seed(1, 1), replica_seed(2, 1));
    }
}
