//! The server's content model and resume negotiation.
//!
//! A [`ServePlan`] is what a benchmark looks like from the wire's point
//! of view: per class, an epoch (a digest of the restructured layout)
//! and the real unit byte payloads produced by splitting the class file
//! at unit boundaries (prelude first, then one unit per method). The
//! `core::serve` bridge builds plans from restructured benchmarks; this
//! crate only streams them, so the protocol layer stays free of class-
//! file knowledge.
//!
//! Resume negotiation mirrors the session checkpoint's rule: a client's
//! delivered watermark survives only if it was recorded under the epoch
//! the server is serving *now*; on any mismatch the class restarts from
//! unit zero (fail-closed, never trusting a stale layout).

use crate::frame::{ClassAdvert, ResumeEntry};

/// One class as served on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassPlan {
    /// Layout epoch: changes whenever the restructured bytes change.
    pub epoch: u32,
    /// Real unit payloads, in stream order (index 0 is the prelude).
    pub units: Vec<Vec<u8>>,
}

/// Everything the server streams for one benchmark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServePlan {
    /// Benchmark name clients ask for in their Hello.
    pub benchmark: String,
    /// Restructure generation advertised in the Welcome: a monotonic
    /// counter the origin bumps on every live re-restructure. Manifest
    /// epochs are hashes (unordered), so this is the only field that
    /// lets a failing-over client order two layouts it has seen.
    pub generation: u32,
    /// Combined manifest epoch advertised in the Welcome.
    pub manifest_epoch: u64,
    /// The encoded NSUM manifest frame, carried opaquely.
    pub manifest: Vec<u8>,
    /// Per-class plans, indexed by class id.
    pub classes: Vec<ClassPlan>,
}

/// The typed fate of one offered resume watermark — what
/// [`ServePlan::negotiate_checked`] decided and why. Every rejection is
/// a *restart from zero* for that class, never a partial splice: a
/// watermark recorded under another layout says nothing about which
/// prefix of the current layout the client holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeVerdict {
    /// The watermark survived: the class will stream from `start`
    /// (`start == units` means nothing is left and the session heads
    /// straight for its `Bye`).
    Honored {
        /// Class the verdict is about.
        class: u32,
        /// Negotiated first unit.
        start: u32,
    },
    /// The entry names a class the served plan does not have.
    UnknownClass {
        /// Class the entry named.
        class: u32,
    },
    /// The watermark was recorded under another layout epoch.
    StaleEpoch {
        /// Class the verdict is about.
        class: u32,
        /// Epoch the client recorded.
        offered: u32,
        /// Epoch the server serves now.
        served: u32,
    },
    /// The watermark exceeds the units the class actually has.
    OutOfRange {
        /// Class the verdict is about.
        class: u32,
        /// Watermark the client claimed.
        delivered: u32,
        /// Units the class actually streams.
        units: u32,
    },
}

impl ServePlan {
    /// Total units across every class.
    #[must_use]
    pub fn total_units(&self) -> usize {
        self.classes.iter().map(|c| c.units.len()).sum()
    }

    /// Total payload bytes across every class.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.classes
            .iter()
            .flat_map(|c| c.units.iter())
            .map(|u| u.len() as u64)
            .sum()
    }

    /// Negotiates a client's resume watermarks into per-class adverts.
    ///
    /// A watermark is honored (the advert's `start` is the delivered
    /// count) only when the class exists, the recorded epoch equals the
    /// served epoch, and the count is within range; anything else —
    /// unknown class, stale epoch, absurd watermark — restarts that
    /// class from zero. Duplicate entries for one class keep the most
    /// conservative (lowest) surviving start.
    #[must_use]
    pub fn negotiate(&self, resume: &[ResumeEntry]) -> Vec<ClassAdvert> {
        self.negotiate_checked(resume).0
    }

    /// [`ServePlan::negotiate`] with a typed verdict per offered entry,
    /// in offer order — the auditable form: a soak can assert not just
    /// where each class started but *why* every rejected watermark was
    /// rejected.
    #[must_use]
    pub fn negotiate_checked(
        &self,
        resume: &[ResumeEntry],
    ) -> (Vec<ClassAdvert>, Vec<ResumeVerdict>) {
        let mut adverts: Vec<ClassAdvert> = self
            .classes
            .iter()
            .map(|c| ClassAdvert {
                epoch: c.epoch,
                units: u32::try_from(c.units.len()).unwrap_or(u32::MAX),
                start: 0,
            })
            .collect();
        let mut verdicts = Vec::with_capacity(resume.len());
        let mut seen = vec![false; adverts.len()];
        for entry in resume {
            let Some(class) = self.classes.get(entry.class as usize) else {
                verdicts.push(ResumeVerdict::UnknownClass { class: entry.class });
                continue;
            };
            let advert = &mut adverts[entry.class as usize];
            if entry.epoch != class.epoch {
                verdicts.push(ResumeVerdict::StaleEpoch {
                    class: entry.class,
                    offered: entry.epoch,
                    served: class.epoch,
                });
                continue;
            }
            if entry.delivered > advert.units {
                verdicts.push(ResumeVerdict::OutOfRange {
                    class: entry.class,
                    delivered: entry.delivered,
                    units: advert.units,
                });
                continue;
            }
            let idx = entry.class as usize;
            advert.start = if seen[idx] {
                advert.start.min(entry.delivered)
            } else {
                entry.delivered
            };
            seen[idx] = true;
            verdicts.push(ResumeVerdict::Honored {
                class: entry.class,
                start: advert.start,
            });
        }
        (adverts, verdicts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> ServePlan {
        ServePlan {
            benchmark: "hanoi".to_owned(),
            generation: 0,
            manifest_epoch: 42,
            manifest: vec![1, 2, 3],
            classes: vec![
                ClassPlan {
                    epoch: 100,
                    units: vec![vec![0; 8], vec![1; 4], vec![2; 4]],
                },
                ClassPlan {
                    epoch: 200,
                    units: vec![vec![3; 16], vec![4; 2]],
                },
            ],
        }
    }

    #[test]
    fn totals_count_every_unit_and_byte() {
        let p = plan();
        assert_eq!(p.total_units(), 5);
        assert_eq!(p.total_bytes(), 8 + 4 + 4 + 16 + 2);
    }

    #[test]
    fn fresh_client_starts_every_class_at_zero() {
        let adverts = plan().negotiate(&[]);
        assert_eq!(adverts.len(), 2);
        assert!(adverts.iter().all(|a| a.start == 0));
        assert_eq!(adverts[0].units, 3);
        assert_eq!(adverts[1].units, 2);
    }

    #[test]
    fn matching_epoch_watermark_survives() {
        let adverts = plan().negotiate(&[ResumeEntry {
            class: 0,
            epoch: 100,
            delivered: 2,
        }]);
        assert_eq!(adverts[0].start, 2);
        assert_eq!(adverts[1].start, 0);
    }

    #[test]
    fn stale_epoch_restarts_from_zero() {
        let adverts = plan().negotiate(&[ResumeEntry {
            class: 0,
            epoch: 101,
            delivered: 2,
        }]);
        assert_eq!(adverts[0].start, 0);
    }

    #[test]
    fn out_of_range_watermark_and_unknown_class_are_ignored() {
        let adverts = plan().negotiate(&[
            ResumeEntry {
                class: 0,
                epoch: 100,
                delivered: 4, // only 3 units exist
            },
            ResumeEntry {
                class: 9, // no such class
                epoch: 100,
                delivered: 1,
            },
        ]);
        assert_eq!(adverts[0].start, 0);
        assert_eq!(adverts.len(), 2);
    }

    #[test]
    fn delivered_equal_to_units_means_class_complete() {
        let adverts = plan().negotiate(&[ResumeEntry {
            class: 1,
            epoch: 200,
            delivered: 2,
        }]);
        assert_eq!(adverts[1].start, 2);
        assert_eq!(adverts[1].units, 2);
    }

    #[test]
    fn verdicts_name_every_rejection_reason() {
        let p = plan();
        let (adverts, verdicts) = p.negotiate_checked(&[
            ResumeEntry {
                class: 0,
                epoch: 100,
                delivered: 3, // == units: complete, straight to Bye
            },
            ResumeEntry {
                class: 0,
                epoch: 101,
                delivered: 1,
            },
            ResumeEntry {
                class: 1,
                epoch: 200,
                delivered: 3, // only 2 units exist
            },
            ResumeEntry {
                class: 9,
                epoch: 100,
                delivered: 1,
            },
        ]);
        assert_eq!(
            verdicts,
            vec![
                ResumeVerdict::Honored { class: 0, start: 3 },
                ResumeVerdict::StaleEpoch {
                    class: 0,
                    offered: 101,
                    served: 100,
                },
                ResumeVerdict::OutOfRange {
                    class: 1,
                    delivered: 3,
                    units: 2,
                },
                ResumeVerdict::UnknownClass { class: 9 },
            ]
        );
        // The stale duplicate did not claw back the honored watermark.
        assert_eq!(adverts[0].start, 3);
        assert_eq!(adverts[1].start, 0);
    }

    /// Seeded property sweep: negotiation never panics and never
    /// produces an advert outside the served plan, whatever watermark
    /// garbage a client offers — including `delivered == u32::MAX`,
    /// class ids far beyond the plan, and duplicate/conflicting
    /// entries.
    #[test]
    fn negotiation_survives_seeded_watermark_garbage() {
        let p = plan();
        let mut rng = crate::SplitMix64(0x5eed_0009);
        for _ in 0..512 {
            let n = rng.below(8) as usize;
            let entries: Vec<ResumeEntry> = (0..n)
                .map(|_| ResumeEntry {
                    class: match rng.below(4) {
                        0 => u32::MAX,
                        1 => rng.below(64) as u32,
                        _ => rng.below(p.classes.len() as u64 + 1) as u32,
                    },
                    epoch: match rng.below(3) {
                        0 => 100,
                        1 => 200,
                        _ => rng.next_u64() as u32,
                    },
                    delivered: match rng.below(4) {
                        0 => u32::MAX,
                        1 => rng.below(1 << 20) as u32,
                        _ => rng.below(4) as u32,
                    },
                })
                .collect();
            let (adverts, verdicts) = p.negotiate_checked(&entries);
            assert_eq!(adverts.len(), p.classes.len());
            assert_eq!(verdicts.len(), entries.len());
            for (i, a) in adverts.iter().enumerate() {
                assert!(
                    a.start <= a.units,
                    "advert start {} beyond units {}",
                    a.start,
                    a.units
                );
                assert_eq!(a.units as usize, p.classes[i].units.len());
                assert_eq!(a.epoch, p.classes[i].epoch);
            }
            for (entry, v) in entries.iter().zip(&verdicts) {
                match *v {
                    ResumeVerdict::Honored { class, start } => {
                        assert_eq!(class, entry.class);
                        assert_eq!(entry.epoch, p.classes[class as usize].epoch);
                        assert!(start <= entry.delivered);
                    }
                    // Every rejection restarts the class from zero or
                    // leaves an earlier honored watermark in place —
                    // never a splice above the honored start.
                    ResumeVerdict::StaleEpoch { class, .. }
                    | ResumeVerdict::OutOfRange { class, .. } => {
                        assert_eq!(class, entry.class);
                    }
                    ResumeVerdict::UnknownClass { class } => {
                        assert!(class as usize >= p.classes.len());
                    }
                }
            }
        }
    }

    #[test]
    fn duplicate_entries_keep_the_most_conservative_start() {
        let adverts = plan().negotiate(&[
            ResumeEntry {
                class: 0,
                epoch: 100,
                delivered: 2,
            },
            ResumeEntry {
                class: 0,
                epoch: 100,
                delivered: 1,
            },
        ]);
        assert_eq!(adverts[0].start, 1);
    }
}
