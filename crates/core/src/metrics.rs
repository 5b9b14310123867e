//! Result metrics, normalized the way the paper reports them.

use nonstrict_netsim::Surcharge;

/// Normalized execution time as a percent of the strict baseline
/// (§7.2): 60 means 60% of the base — a 40% improvement. Smaller is
/// better.
#[must_use]
pub fn normalized_percent(cycles: u64, baseline_cycles: u64) -> f64 {
    share_percent(cycles, baseline_cycles)
}

/// Percent reduction relative to a baseline (Table 4's parenthesized
/// numbers). Positive means improvement.
#[must_use]
pub fn reduction_percent(cycles: u64, baseline_cycles: u64) -> f64 {
    100.0 - normalized_percent(cycles, baseline_cycles)
}

/// Arithmetic mean, for the paper's "AVG" rows.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Converts cycles on the paper's 500 MHz Alpha to seconds (the
/// parenthesized seconds in Table 3).
#[must_use]
pub fn cycles_to_seconds(cycles: u64) -> f64 {
    cycles as f64 / 500.0e6
}

/// `part` as a percent of `total`, or 0 when `total` is 0: the share of
/// a run's time one accounting bucket took (recovery, verify, resume,
/// hedge, queue or integrity cycles over the total) — each sweep
/// report's headline column.
#[must_use]
pub fn share_percent(part: u64, total: u64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    100.0 * part as f64 / total as f64
}

/// Nearest-rank percentile of `sorted` (ascending), `p` in `[0, 100]`.
/// Returns 0 for an empty slice. `p50`/`p95`/`p99` of per-client fleet
/// totals are reported with this.
#[must_use]
pub fn percentile(sorted: &[u64], p: u32) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let p = p.min(100) as usize;
    // Nearest-rank: the ⌈p/100 · n⌉-th smallest value (1-indexed).
    let rank = (p * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// The eight exact accounting buckets of one run. Every cycle of a
/// session's total lands in exactly one bucket:
///
/// `total = exec + stall + recovery + verify + resume + hedge + queue + integrity`
///
/// The identity is debug-asserted at every place a total is formed via
/// [`CycleLedger::assert_exact`], so a new bucket is added in exactly
/// one place (here) and every call site inherits it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CycleLedger {
    /// Pure execution cycles.
    pub exec: u64,
    /// Transfer-wait stall cycles (fault, outage, hedge, queue, and
    /// integrity shares split out into their own buckets).
    pub stall: u64,
    /// Fault-recovery cycles.
    pub recovery: u64,
    /// Prefix-verification cycles.
    pub verify: u64,
    /// Outage downtime, reconnect negotiation, and refetch cycles.
    pub resume: u64,
    /// Hedged-fetch deadline waits and issue/cancel overhead.
    pub hedge: u64,
    /// Server-egress queueing delay plus admission backoff wait.
    pub queue: u64,
    /// Byzantine-protection cycles: manifest pinning, per-unit digest
    /// mismatch refetches, cross-mirror audit arbitration, and
    /// epoch-fence refetches.
    pub integrity: u64,
}

impl CycleLedger {
    /// The sum of all eight buckets.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.buckets().iter().map(|(_, cycles)| cycles).sum()
    }

    /// Each bucket's name and cycles, in ledger order.
    #[must_use]
    pub fn buckets(&self) -> [(&'static str, u64); 8] {
        [
            ("exec", self.exec),
            ("stall", self.stall),
            ("recovery", self.recovery),
            ("verify", self.verify),
            ("resume", self.resume),
            ("hedge", self.hedge),
            ("queue", self.queue),
            ("integrity", self.integrity),
        ]
    }

    /// Books a transfer-wait `stall` whose arrival carried surcharge
    /// `s`: each cause takes its share of what is left of the stall, in
    /// the order recovery, hedge, integrity, and the rest is plain
    /// transfer wait.
    pub fn charge_stall(&mut self, stall: u64, s: Surcharge) {
        let recovery = s.recovery.min(stall);
        let hedge = s.hedge.min(stall - recovery);
        let integrity = s.integrity.min(stall - recovery - hedge);
        self.recovery += recovery;
        self.hedge += hedge;
        self.integrity += integrity;
        self.stall += stall - recovery - hedge - integrity;
    }

    /// Debug-asserts that `total` is exactly the eight-bucket sum.
    /// `context` names the call site in the failure message.
    pub fn assert_exact(&self, total: u64, context: &str) {
        debug_assert_eq!(
            total,
            self.total(),
            "{context}: total = exec + stall + recovery + verify + resume + hedge + queue \
             + integrity ({} + {} + {} + {} + {} + {} + {} + {})",
            self.exec,
            self.stall,
            self.recovery,
            self.verify,
            self.resume,
            self.hedge,
            self.queue,
            self.integrity,
        );
        let _ = (total, context);
    }
}

impl std::ops::AddAssign for CycleLedger {
    /// Bucket-wise sum: exactness survives summation over runs.
    fn add_assign(&mut self, other: CycleLedger) {
        self.exec += other.exec;
        self.stall += other.stall;
        self.recovery += other.recovery;
        self.verify += other.verify;
        self.resume += other.resume;
        self.hedge += other.hedge;
        self.queue += other.queue;
        self.integrity += other.integrity;
    }
}

/// Fraction of runs that executed to completion, as a percent. The
/// resilient protocol's retry cap makes this 100 by construction; the
/// report still computes it from the results rather than asserting it.
#[must_use]
pub fn completion_rate_percent(completed: usize, total: usize) -> f64 {
    if total == 0 {
        return 100.0;
    }
    100.0 * completed as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_examples_from_the_paper() {
        // "a percent normalized execution time of 60 means ... a 40%
        // improvement"
        assert!((normalized_percent(60, 100) - 60.0).abs() < 1e-12);
        assert!((reduction_percent(60, 100) - 40.0).abs() < 1e-12);
    }

    #[test]
    fn zero_baseline_is_safe() {
        assert_eq!(normalized_percent(5, 0), 0.0);
    }

    #[test]
    fn mean_handles_empty_and_typical() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn recovery_share_and_completion_rate() {
        assert_eq!(share_percent(0, 1_000), 0.0);
        assert!((share_percent(250, 1_000) - 25.0).abs() < 1e-12);
        assert_eq!(share_percent(5, 0), 0.0);
        // The normalized time is the same share, of the baseline.
        assert_eq!(normalized_percent(80, 1_000), share_percent(80, 1_000));
        assert_eq!(completion_rate_percent(0, 0), 100.0);
        assert!((completion_rate_percent(3, 4) - 75.0).abs() < 1e-12);
    }

    #[test]
    fn queue_share_and_percentiles() {
        assert!((share_percent(300, 1_000) - 30.0).abs() < 1e-12);
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[7], 0), 7);
        assert_eq!(percentile(&[7], 100), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 95), 95);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&[10, 20, 30], 50), 20);
    }

    #[test]
    fn ledger_totals_and_asserts() {
        let l = CycleLedger {
            exec: 1,
            stall: 2,
            recovery: 3,
            verify: 4,
            resume: 5,
            hedge: 6,
            queue: 7,
            integrity: 8,
        };
        assert_eq!(l.total(), 36);
        l.assert_exact(36, "test");
    }

    #[test]
    #[should_panic(expected = "total = exec + stall")]
    #[cfg(debug_assertions)]
    fn ledger_rejects_a_leaked_cycle() {
        CycleLedger::default().assert_exact(1, "leak");
    }

    #[test]
    fn seconds_on_a_500mhz_alpha() {
        // Table 3: 1141 Mcycles ≈ 2.3 s
        let s = cycles_to_seconds(1_141_000_000);
        assert!((s - 2.282).abs() < 0.01);
    }
}
