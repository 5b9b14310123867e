//! Multi-client server contention: fair-share scheduling, admission
//! control, and the load-shed ladder.
//!
//! A deployment server pushes restructured class files to many clients
//! at once through one egress pipe.  This module models the three
//! server-side defenses the fleet layer (`core::fleet`) composes:
//!
//! * [`drr_schedule`] — deficit-round-robin fair sharing of the egress
//!   pipe over per-client queues of whole transfer units.  The server
//!   clock only advances while bytes move (or jumps to the next
//!   arrival when every queue is empty), so the schedule is
//!   work-conserving by construction, and each client's contention
//!   delay falls out exactly: `finish − arrival − bytes·cpb`.
//! * [`AdmissionController`] — a token bucket over session admissions.
//!   An empty bucket yields a typed [`Rejected`] carrying the earliest
//!   cycle at which a token can exist again; clients honor it with
//!   seeded jittered backoff ([`jitter`]).
//! * [`ShedLadder`] — the ordered degradation ladder applied to
//!   clients whose queueing delay crosses a rung: drop hedged fetches,
//!   then force strict sequential transfer, then shed the session to a
//!   journal checkpoint for later resume.
//!
//! Everything is seeded and deterministic: the only randomness is the
//! SplitMix64 finalizer shared with the fault and outage models.

use crate::faults::splitmix;
use std::fmt;

/// Domain-separation salt for admission backoff jitter draws.
const SALT_JITTER: u64 = 0x4a49_5454_4a49_5454;

/// One client's demand on the shared egress pipe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientDemand {
    /// DRR weight (share of the pipe).  Clamped to at least 1.
    pub weight: u32,
    /// Wall cycle at which the client's session is admitted and its
    /// units enter the server queue.
    pub arrival: u64,
    /// Byte size of each transfer unit, in stream order.  Zero-byte
    /// units are allowed (empty trailing slots) and cost nothing.
    pub units: Vec<u64>,
}

impl ClientDemand {
    /// Total bytes this client pulls through the pipe.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.units.iter().sum()
    }
}

/// What the DRR schedule delivered to one client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientService {
    /// Wall cycle at which the client's last unit finished sending.
    /// Equal to `arrival` for a client with no bytes.
    pub finish: u64,
    /// Total bytes served.
    pub bytes: u64,
    /// Contention delay: `finish − arrival − bytes·cpb`.  Zero when
    /// the client had the pipe to itself.
    pub queue_cycles: u64,
}

/// Deficit-round-robin schedule of `clients` through one egress pipe
/// of `egress_cpb` cycles per byte.
///
/// Classic DRR (Shreedhar & Varghese): each round, every backlogged
/// client's deficit grows by `quantum × weight`; whole head-of-line
/// units are sent while the deficit covers them; a client that drains
/// its queue forfeits its leftover deficit.  The server clock advances
/// only while a unit is on the wire; when every arrived queue is empty
/// it jumps straight to the next arrival (work conservation: the
/// server is idle iff all queues are empty).
///
/// `quantum` and all weights are clamped to at least 1 so every
/// backlogged client makes progress in every round (no starvation).
///
/// ```
/// use nonstrict_netsim::contention::{drr_schedule, ClientDemand};
///
/// // A lone client sees zero queueing delay at any quantum.
/// let lone = [ClientDemand { weight: 1, arrival: 7, units: vec![100, 50] }];
/// let served = drr_schedule(10, 32, &lone);
/// assert_eq!(served[0].finish, 7 + 150 * 10);
/// assert_eq!(served[0].queue_cycles, 0);
/// ```
#[must_use]
pub fn drr_schedule(egress_cpb: u64, quantum: u64, clients: &[ClientDemand]) -> Vec<ClientService> {
    let quantum = quantum.max(1);
    let mut next_unit = vec![0usize; clients.len()];
    let mut deficit = vec![0u64; clients.len()];
    let mut finish: Vec<u64> = clients.iter().map(|c| c.arrival).collect();
    // Server clock starts at the first arrival; it never runs ahead of
    // demand.
    let mut now = clients.iter().map(|c| c.arrival).min().unwrap_or(0);
    loop {
        let mut sent_any = false;
        let mut backlog = false;
        let mut arrived_backlog = false;
        for (i, c) in clients.iter().enumerate() {
            if next_unit[i] >= c.units.len() {
                continue;
            }
            if c.arrival > now {
                backlog = true;
                continue;
            }
            deficit[i] =
                deficit[i].saturating_add(quantum.saturating_mul(u64::from(c.weight.max(1))));
            while next_unit[i] < c.units.len() && c.units[next_unit[i]] <= deficit[i] {
                let bytes = c.units[next_unit[i]];
                deficit[i] -= bytes;
                now = now.saturating_add(cycles_for(bytes, egress_cpb));
                next_unit[i] += 1;
                finish[i] = now;
                sent_any = true;
            }
            if next_unit[i] >= c.units.len() {
                // Drained queue forfeits its leftover deficit.
                deficit[i] = 0;
            } else {
                backlog = true;
                arrived_backlog = true;
            }
        }
        if !backlog {
            break;
        }
        if !sent_any && !arrived_backlog {
            // Every arrived queue is empty: the only backlog is future
            // arrivals, so jump to the next one.  An arrived client
            // whose head unit still exceeds its deficit (sent_any
            // false, arrived_backlog true) instead keeps taking
            // zero-time rounds until its deficit covers the unit —
            // jumping over it would idle the pipe with work waiting
            // and break the work-conservation invariant.
            if let Some(next) = clients
                .iter()
                .enumerate()
                .filter(|(i, c)| next_unit[*i] < c.units.len() && c.arrival > now)
                .map(|(_, c)| c.arrival)
                .min()
            {
                now = next;
            }
        }
    }
    clients
        .iter()
        .zip(&finish)
        .map(|(c, &f)| {
            let bytes = c.total_bytes();
            ClientService {
                finish: f,
                bytes,
                queue_cycles: f - c.arrival - cycles_for(bytes, egress_cpb),
            }
        })
        .collect()
}

/// `bytes × cpb` in `u128`, saturated to `u64` (the same guard as
/// [`crate::link::Link::cycles_for`]).
fn cycles_for(bytes: u64, cpb: u64) -> u64 {
    u64::try_from(u128::from(bytes) * u128::from(cpb)).unwrap_or(u64::MAX)
}

/// Token-bucket admission controller over new sessions, here on the
/// wall cycle clock. Re-exported from `nonstrict-wire`: the simulated
/// fleet and the real server admit through the same bucket.
///
/// ```
/// use nonstrict_netsim::contention::AdmissionController;
///
/// let mut ctl = AdmissionController::new(1, 1, 1_000);
/// assert!(ctl.admit(0).is_ok());
/// let rej = ctl.admit(10).unwrap_err();
/// assert_eq!(rej.retry_after, 990); // next refill at cycle 1_000
/// assert!(ctl.admit(1_000).is_ok());
/// ```
pub use nonstrict_wire::AdmissionController;
pub use nonstrict_wire::Rejected;

/// Seeded jitter draw in `[0, span)` for admission backoff: attempt
/// `attempt` of client `client` always draws the same value for the
/// same fleet seed.  Returns 0 when `span` is 0.
#[must_use]
pub fn jitter(seed: u64, client: u64, attempt: u32, span: u64) -> u64 {
    if span == 0 {
        return 0;
    }
    let draw = splitmix(splitmix(seed ^ SALT_JITTER) ^ splitmix(client) ^ u64::from(attempt));
    draw % span
}

/// Error constructing a [`ShedLadder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderError {
    /// The rung thresholds were not in non-decreasing order.
    Unordered,
}

impl fmt::Display for LadderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LadderError::Unordered => write!(
                f,
                "shed ladder rungs must be non-decreasing: drop-hedges <= force-strict <= shed"
            ),
        }
    }
}

impl std::error::Error for LadderError {}

/// The load-shedding action chosen for one client, in degradation
/// order.  Later rungs imply the earlier ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedAction {
    /// Queue delay below every rung: serve the session unmodified.
    None,
    /// First rung: cancel hedged duplicate fetches (the cheapest
    /// bandwidth to reclaim — hedges are pure redundancy).
    DropHedges,
    /// Second rung: force strict sequential transfer and execution,
    /// giving up overlap to shrink the client's peak demand.
    ForceStrict,
    /// Final rung: checkpoint the session to a journal and park it for
    /// later resume, freeing its share of the pipe entirely.
    Shed,
}

impl ShedAction {
    /// Stable lowercase label for reports and CSVs.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ShedAction::None => "serve",
            ShedAction::DropHedges => "drop-hedges",
            ShedAction::ForceStrict => "force-strict",
            ShedAction::Shed => "shed",
        }
    }
}

/// The three-rung load-shedding ladder: queue-delay thresholds (in
/// cycles) at which an overloaded client is degraded.
///
/// ```
/// use nonstrict_netsim::contention::{ShedAction, ShedLadder};
///
/// let ladder = ShedLadder::new(100, 200, 300).unwrap();
/// assert_eq!(ladder.action_for(50), ShedAction::None);
/// assert_eq!(ladder.action_for(100), ShedAction::DropHedges);
/// assert_eq!(ladder.action_for(250), ShedAction::ForceStrict);
/// assert_eq!(ladder.action_for(u64::MAX), ShedAction::Shed);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShedLadder {
    /// Queue delay at which hedged fetches are dropped.
    pub drop_hedges: u64,
    /// Queue delay at which the session is forced strict.
    pub force_strict: u64,
    /// Queue delay at which the session is shed to a journal.
    pub shed: u64,
}

impl ShedLadder {
    /// A ladder with the given rung thresholds.
    ///
    /// # Errors
    ///
    /// [`LadderError::Unordered`] unless
    /// `drop_hedges <= force_strict <= shed`.
    pub fn new(drop_hedges: u64, force_strict: u64, shed: u64) -> Result<ShedLadder, LadderError> {
        if drop_hedges <= force_strict && force_strict <= shed {
            Ok(ShedLadder {
                drop_hedges,
                force_strict,
                shed,
            })
        } else {
            Err(LadderError::Unordered)
        }
    }

    /// The highest rung `queue_cycles` reaches (thresholds are
    /// inclusive), or [`ShedAction::None`] below the first rung.
    #[must_use]
    pub fn action_for(&self, queue_cycles: u64) -> ShedAction {
        if queue_cycles >= self.shed {
            ShedAction::Shed
        } else if queue_cycles >= self.force_strict {
            ShedAction::ForceStrict
        } else if queue_cycles >= self.drop_hedges {
            ShedAction::DropHedges
        } else {
            ShedAction::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(weight: u32, arrival: u64, units: &[u64]) -> ClientDemand {
        ClientDemand {
            weight,
            arrival,
            units: units.to_vec(),
        }
    }

    #[test]
    fn lone_client_sees_no_queueing_at_any_quantum() {
        for quantum in [1, 7, 100, 10_000] {
            let served = drr_schedule(10, quantum, &[demand(1, 42, &[100, 5, 0, 30])]);
            assert_eq!(served[0].bytes, 135);
            assert_eq!(served[0].finish, 42 + 1_350);
            assert_eq!(served[0].queue_cycles, 0);
        }
    }

    #[test]
    fn empty_fleet_and_empty_clients_are_fine() {
        assert!(drr_schedule(10, 100, &[]).is_empty());
        let served = drr_schedule(10, 100, &[demand(1, 5, &[])]);
        assert_eq!(served[0].finish, 5);
        assert_eq!(served[0].queue_cycles, 0);
    }

    #[test]
    fn two_equal_clients_split_the_pipe() {
        let served = drr_schedule(
            1,
            100,
            &[demand(1, 0, &[100; 10]), demand(1, 0, &[100; 10])],
        );
        // 2,000 bytes total at 1 cpb: the last finisher lands at 2,000.
        assert_eq!(served.iter().map(|s| s.finish).max(), Some(2_000));
        // Each client alone would need 1,000 cycles; both are delayed.
        for s in &served {
            assert!(s.queue_cycles > 0);
            assert_eq!(s.finish, s.bytes + s.queue_cycles);
        }
    }

    #[test]
    fn weights_bias_the_share() {
        // Heavier client finishes the same backlog sooner.
        let served = drr_schedule(
            1,
            100,
            &[demand(3, 0, &[100; 12]), demand(1, 0, &[100; 12])],
        );
        assert!(served[0].finish < served[1].finish);
        assert!(served[0].queue_cycles < served[1].queue_cycles);
    }

    #[test]
    fn late_arrival_joins_mid_schedule() {
        let served = drr_schedule(1, 100, &[demand(1, 0, &[100; 4]), demand(1, 350, &[100])]);
        // Client 1 arrives while client 0 is mid-stream and must queue
        // behind at least part of it.
        assert!(served[1].finish >= 450);
        assert_eq!(
            served[1].finish,
            350 + 100 + served[1].queue_cycles,
            "finish decomposes into arrival + service + queue"
        );
    }

    #[test]
    fn deficit_starved_head_unit_does_not_yield_to_future_arrivals() {
        // The head unit (10_000 bytes) dwarfs the quantum (100), so
        // the lone arrived client needs many zero-time deficit rounds
        // before it can send.  The clock must NOT jump to the later
        // arrival while that client is backlogged: it sends at cycle 0
        // with zero queueing, and the late client queues behind
        // nothing (the pipe is free again by 10_000 cycles).
        let served = drr_schedule(
            1,
            100,
            &[demand(1, 0, &[10_000]), demand(1, 50_000, &[100])],
        );
        assert_eq!(served[0].finish, 10_000);
        assert_eq!(served[0].queue_cycles, 0, "work conservation: no idle jump");
        assert_eq!(served[1].finish, 50_100);
        assert_eq!(served[1].queue_cycles, 0);
    }

    #[test]
    fn idle_gap_jumps_to_next_arrival() {
        // Client 0 done at cycle 100; client 1 arrives at 10_000.
        let served = drr_schedule(1, 100, &[demand(1, 0, &[100]), demand(1, 10_000, &[50])]);
        assert_eq!(served[0].finish, 100);
        assert_eq!(served[1].finish, 10_050);
        assert_eq!(served[1].queue_cycles, 0);
    }

    #[test]
    fn admission_bucket_spends_burst_then_rejects_with_refill_time() {
        let mut ctl = AdmissionController::new(2, 3, 1_000);
        assert!(ctl.admit(0).is_ok());
        assert!(ctl.admit(0).is_ok());
        assert!(ctl.admit(100).is_ok());
        let rej = ctl.admit(250).unwrap_err();
        assert_eq!(rej.retry_after, 750);
        // The refill at cycle 1_000 grants `rate` = 2 tokens.
        assert!(ctl.admit(1_000).is_ok());
        assert!(ctl.admit(1_001).is_ok());
        assert!(ctl.admit(1_002).is_err());
    }

    #[test]
    fn admission_refill_caps_at_burst() {
        let mut ctl = AdmissionController::new(10, 2, 100);
        assert!(ctl.admit(0).is_ok());
        assert!(ctl.admit(0).is_ok());
        // Many idle periods refill at most `burst` tokens.
        assert!(ctl.admit(10_000).is_ok());
        assert!(ctl.admit(10_000).is_ok());
        assert!(ctl.admit(10_000).is_err());
    }

    #[test]
    fn admission_near_u64_max_saturates_instead_of_overflowing() {
        // period near u64::MAX / period_cycles: the next refill
        // boundary is unrepresentable, so retry_after clamps.
        let mut ctl = AdmissionController::new(1, 1, 2);
        assert!(ctl.admit(u64::MAX).is_ok());
        let rej = ctl.admit(u64::MAX).unwrap_err();
        assert_eq!(rej.retry_after, 0, "clamped, not wrapped");
    }

    #[test]
    fn jitter_is_deterministic_and_in_range() {
        for attempt in 0..8 {
            let a = jitter(0xfeed, 3, attempt, 500);
            let b = jitter(0xfeed, 3, attempt, 500);
            assert_eq!(a, b);
            assert!(a < 500);
        }
        assert_eq!(jitter(0xfeed, 3, 0, 0), 0);
        // Different clients draw different streams (overwhelmingly).
        let distinct: std::collections::HashSet<u64> =
            (0..16).map(|c| jitter(0xfeed, c, 0, u64::MAX)).collect();
        assert!(distinct.len() > 10);
    }

    #[test]
    fn ladder_rejects_unordered_rungs() {
        assert_eq!(ShedLadder::new(200, 100, 300), Err(LadderError::Unordered));
        assert_eq!(ShedLadder::new(100, 300, 200), Err(LadderError::Unordered));
        assert!(ShedLadder::new(100, 100, 100).is_ok());
    }

    #[test]
    fn ladder_labels_are_stable() {
        assert_eq!(ShedAction::None.label(), "serve");
        assert_eq!(ShedAction::DropHedges.label(), "drop-hedges");
        assert_eq!(ShedAction::ForceStrict.label(), "force-strict");
        assert_eq!(ShedAction::Shed.label(), "shed");
    }
}
