//! Transfer units: the byte chunks whose arrival gates execution.
//!
//! Per class, in stream order:
//!
//! * unit 0 — the **prelude**: the whole global data (no partitioning)
//!   or just the needed-first slice (§7.3 partitioning);
//! * units `1..=M` — one per method *in restructured file order*: its
//!   GMD chunk (partitioning only), local data, code, and the method
//!   delimiter the non-strict JVM looks for (§3);
//! * a final **trailing** unit: unused global data under partitioning
//!   (zero bytes otherwise).
//!
//! All sizes are wire-scaled by the application's calibration factor.

use nonstrict_bytecode::Application;
use nonstrict_reorder::{ClassPartition, RestructuredApp};

/// Bytes of the per-method delimiter marker the non-strict format
/// appends after each method's data and code (§3: "a method delimiter is
/// placed after each procedure and its data").
pub const DELIMITER_BYTES: u64 = 2;

/// Bytes of the CRC32 trailer the resilient transfer protocol appends
/// to every non-empty unit, extending the method-delimiter wire format:
/// the receiver verifies each unit before acknowledging it, so corrupted
/// units are detected and re-requested instead of linked.
pub const CHECKSUM_BYTES: u64 = 4;

/// CRC32 (IEEE 802.3, reflected) of `data` — the per-unit trailer the
/// resilient protocol verifies on receipt. Re-exported from
/// `nonstrict-wire`: the simulated trailer and the real wire frames use
/// the same arithmetic, bit for bit, so the simulator is an honest test
/// double for the socket protocol.
///
/// ```
/// use nonstrict_netsim::unit::crc32;
/// assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub use nonstrict_wire::crc32;

/// Adds the per-unit CRC32 trailer to every non-empty unit, in place.
/// Called when the fault protocol is active; empty units (a zero-byte
/// trailing slot) carry nothing and get no trailer.
pub fn add_checksum_overhead(units: &mut [ClassUnits]) {
    for u in units {
        if u.prelude > 0 {
            u.prelude += CHECKSUM_BYTES;
        }
        for m in &mut u.methods {
            if *m > 0 {
                *m += CHECKSUM_BYTES;
            }
        }
        if u.trailing > 0 {
            u.trailing += CHECKSUM_BYTES;
        }
    }
}

/// The transfer units of one class, in stream order.
///
/// ```
/// use nonstrict_netsim::ClassUnits;
///
/// let units = ClassUnits { prelude: 100, methods: vec![40, 60], trailing: 10 };
/// assert_eq!(units.total(), 210);
/// assert_eq!(units.boundary(0), 100);                     // prelude done
/// assert_eq!(units.boundary(ClassUnits::method_unit(1)), 200); // second method done
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassUnits {
    /// Prelude bytes (unit 0).
    pub prelude: u64,
    /// Method unit bytes, by file position (units `1..=len`).
    pub methods: Vec<u64>,
    /// Trailing bytes (last unit).
    pub trailing: u64,
}

impl ClassUnits {
    /// Number of units (prelude + methods + trailing).
    #[must_use]
    pub fn unit_count(&self) -> usize {
        self.methods.len() + 2
    }

    /// Total bytes of the class on the wire.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.sizes().sum()
    }

    /// Each unit's bytes, in stream order: prelude, methods, trailing.
    pub fn sizes(&self) -> impl Iterator<Item = u64> + '_ {
        std::iter::once(self.prelude)
            .chain(self.methods.iter().copied())
            .chain(std::iter::once(self.trailing))
    }

    /// Cumulative byte offset at which unit `i` completes.
    #[must_use]
    pub fn boundary(&self, unit: usize) -> u64 {
        let mut acc = self.prelude;
        if unit == 0 {
            return acc;
        }
        for (k, &m) in self.methods.iter().enumerate() {
            acc += m;
            if unit == k + 1 {
                return acc;
            }
        }
        acc + self.trailing
    }

    /// The unit index of the method at file position `pos`.
    #[must_use]
    pub fn method_unit(pos: usize) -> usize {
        pos + 1
    }
}

/// Builds the transfer units for every class of a restructured
/// application.
///
/// * `partitions` — `Some` enables §7.3 global-data partitioning: the
///   prelude shrinks to the needed-first slice, each method unit gains
///   its GMD chunk, and unused globals trail.
/// * `delimiter` — per-method delimiter bytes ([`DELIMITER_BYTES`] for
///   non-strict transfer, 0 to model the unmodified format).
#[must_use]
pub fn class_units(
    app: &Application,
    restructured: &RestructuredApp,
    partitions: Option<&[ClassPartition]>,
    delimiter: u64,
) -> Vec<ClassUnits> {
    let scale = app.wire_scale;
    restructured
        .classes
        .iter()
        .zip(&restructured.layouts)
        .enumerate()
        .map(|(ci, (class, layout))| {
            let method_base: Vec<u64> = class
                .methods
                .iter()
                .map(|m| scale.apply(m.local_data_size()) + scale.apply(m.code_size()) + delimiter)
                .collect();
            match partitions {
                None => ClassUnits {
                    prelude: scale.apply(class.global_data_size()),
                    methods: method_base,
                    trailing: 0,
                },
                Some(parts) => {
                    let p = &parts[ci];
                    let gmd = p.gmd_sizes(&layout.file_order);
                    ClassUnits {
                        prelude: scale.apply(u32::try_from(p.needed_first).expect("fits")),
                        methods: method_base
                            .iter()
                            .zip(&gmd)
                            .map(|(&b, &g)| b + scale.apply(u32::try_from(g).expect("fits")))
                            .collect(),
                        trailing: scale.apply(u32::try_from(p.unused).expect("fits")),
                    }
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonstrict_reorder::{partition_app, restructure, static_first_use, FirstUseOrder};

    fn setup() -> (Application, RestructuredApp, Vec<ClassPartition>) {
        let app = nonstrict_workloads::hanoi::build();
        let order: FirstUseOrder = static_first_use(&app.program);
        let r = restructure(&app, &order);
        let parts = partition_app(&app);
        (app, r, parts)
    }

    #[test]
    fn unpartitioned_units_cover_the_file_plus_delimiters() {
        let (app, r, _) = setup();
        let units = class_units(&app, &r, None, DELIMITER_BYTES);
        for (ci, u) in units.iter().enumerate() {
            let file = app.wire_scale.apply(app.classes[ci].total_size());
            let delims = DELIMITER_BYTES * app.classes[ci].methods.len() as u64;
            // method local+code are scaled per part; allow ±1 byte per
            // method of rounding versus scaling the whole file at once
            let total = u.total();
            let slack = 1 + app.classes[ci].methods.len() as u64 * 2;
            assert!(
                total >= file && total <= file + delims + slack,
                "class {ci}: units {total} vs file {file} + delims {delims}"
            );
            assert_eq!(u.trailing, 0);
        }
    }

    #[test]
    fn partitioned_units_conserve_global_bytes() {
        let (app, r, parts) = setup();
        let whole = class_units(&app, &r, None, 0);
        let split = class_units(&app, &r, Some(&parts), 0);
        for (ci, (w, s)) in whole.iter().zip(&split).enumerate() {
            // prelude shrinks, per-method grows, trailing appears; totals
            // match up to per-unit rounding of the wire scale
            assert!(s.prelude < w.prelude, "class {ci} prelude must shrink");
            let slack = 2 * (s.methods.len() as u64 + 2);
            let (a, b) = (w.total(), s.total());
            assert!(a.abs_diff(b) <= slack, "class {ci}: {a} vs {b}");
        }
    }

    #[test]
    fn boundaries_are_monotone_and_end_at_total() {
        let (app, r, parts) = setup();
        let units = class_units(&app, &r, Some(&parts), DELIMITER_BYTES);
        for u in &units {
            let mut last = 0;
            for i in 0..u.unit_count() {
                let b = u.boundary(i);
                assert!(b >= last);
                last = b;
            }
            assert_eq!(last, u.total());
        }
    }

    #[test]
    fn method_unit_indexing() {
        assert_eq!(ClassUnits::method_unit(0), 1);
        assert_eq!(ClassUnits::method_unit(5), 6);
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        // Corruption is detected: flipping one bit changes the CRC.
        assert_ne!(crc32(b"123456789"), crc32(b"123456788"));
    }

    #[test]
    fn checksum_overhead_skips_empty_units() {
        let mut units = vec![
            ClassUnits {
                prelude: 100,
                methods: vec![40, 0, 60],
                trailing: 0,
            },
            ClassUnits {
                prelude: 0,
                methods: vec![],
                trailing: 8,
            },
        ];
        add_checksum_overhead(&mut units);
        assert_eq!(units[0].prelude, 100 + CHECKSUM_BYTES);
        assert_eq!(
            units[0].methods,
            vec![40 + CHECKSUM_BYTES, 0, 60 + CHECKSUM_BYTES]
        );
        assert_eq!(
            units[0].trailing, 0,
            "empty trailing slot carries no trailer"
        );
        assert_eq!(units[1].prelude, 0);
        assert_eq!(units[1].trailing, 8 + CHECKSUM_BYTES);
    }
}
