//! The simulator's side of the content-addressed unit manifest.
//!
//! The NSUM codec lives at the bottom of the stack, in
//! [`nonstrict_wire::manifest`], where the real wire client pins the
//! manifest from its first Welcome and verifies every delivered unit's
//! *content* digest ([`nonstrict_wire::content_digest_of`]) against it.
//! The co-simulator models content at unit-size granularity, so
//! [`build_manifest`] fingerprints a [`ClassUnits`] layout with the
//! size-bound [`UnitManifest::digest_of`] instead (see
//! `nonstrict_classfile::unit_digest` for the byte-level version).

use nonstrict_netsim::ClassUnits;
use nonstrict_wire::UnitManifest;

/// Builds the manifest the simulated origin publishes for `units` under
/// `epoch`: one size-bound digest per transfer unit (unit 0 is the
/// prelude), all bound to the restructure epoch so a re-restructure
/// moves every digest.
#[must_use]
pub fn build_manifest(units: &[ClassUnits], epoch: u64) -> UnitManifest {
    let unit_digests = units
        .iter()
        .enumerate()
        .map(|(c, u)| {
            let class = u32::try_from(c).expect("class index fits u32");
            u.sizes()
                .enumerate()
                .map(|(i, size)| {
                    let unit = u32::try_from(i).expect("unit index fits u32");
                    UnitManifest::digest_of(epoch, class, unit, size)
                })
                .collect()
        })
        .collect();
    UnitManifest {
        epoch,
        unit_digests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_restructure_moves_every_unit_digest() {
        let units = vec![ClassUnits {
            prelude: 100,
            methods: vec![40, 60],
            trailing: 8,
        }];
        let before = build_manifest(&units, 1);
        let after = build_manifest(&units, 2);
        assert_eq!(before.unit_digests[0].len(), units[0].unit_count());
        for (b, a) in before.unit_digests[0].iter().zip(&after.unit_digests[0]) {
            assert_ne!(b, a, "an epoch bump must move every unit digest");
        }
        assert_ne!(before.digest(), after.digest());
    }

    #[test]
    fn built_manifests_round_trip_through_the_wire_codec() {
        let units = vec![
            ClassUnits {
                prelude: 64,
                methods: vec![16, 32, 48],
                trailing: 4,
            },
            ClassUnits {
                prelude: 128,
                methods: vec![],
                trailing: 0,
            },
        ];
        let m = build_manifest(&units, 9);
        assert_eq!(UnitManifest::decode(&m.encode()).unwrap(), m);
    }
}
