//! Codec timings over a wire workload's real plan frames: what each
//! delivered unit costs the client, split by function.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use nonstrict_wire::{content_digest_of, crc32, Frame, ServePlan, UnitManifest};

use crate::instrument::elapsed_ns;
use crate::stats::ratio;
use crate::trace::span;

/// Frames timed per function, at least: enough that the hanoi plan's 61
/// units are repeated a few hundred times.
const MIN_FRAMES: usize = 20_000;
/// Manifest decodes timed.
const MANIFEST_REPS: usize = 100;

/// Times `Frame::encode`/`decode`, `crc32`, `content_digest_of` and
/// `UnitManifest::decode` over `plan`, and checks each result against
/// the plan: a frame that does not round-trip, or a digest that differs
/// from the manifest's, is a failure. Returns (checked, failed).
pub fn probe(plan: &ServePlan, layer: &mut BTreeMap<&'static str, f64>) -> (u64, u64) {
    let frames: Vec<Frame> = plan
        .classes
        .iter()
        .enumerate()
        .flat_map(|(ci, c)| {
            c.units.iter().enumerate().map(move |(ui, p)| Frame::Unit {
                class: u32::try_from(ci).expect("class index fits u32"),
                unit: u32::try_from(ui).expect("unit index fits u32"),
                payload: p.clone(),
            })
        })
        .collect();
    let n = frames.len().max(1);
    let reps = MIN_FRAMES.div_ceil(n);
    let per_frame = |ns: u64| ratio(ns as f64, (reps * n) as f64);

    let t = Instant::now();
    span("wire.frame.encode", None, || {
        for _ in 0..reps {
            for f in &frames {
                black_box(black_box(f).encode());
            }
        }
    });
    layer.insert("wire.frame.encode_ns", per_frame(elapsed_ns(t)));

    let encoded: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
    let t = Instant::now();
    span("wire.frame.decode", None, || {
        for _ in 0..reps {
            for b in &encoded {
                let _ = black_box(Frame::decode(black_box(b)));
            }
        }
    });
    layer.insert("wire.frame.decode_ns", per_frame(elapsed_ns(t)));

    let payloads: Vec<&[u8]> = plan
        .classes
        .iter()
        .flat_map(|c| c.units.iter().map(Vec::as_slice))
        .collect();
    let bytes: usize = payloads.iter().map(|p| p.len()).sum();
    let t = Instant::now();
    span("wire.crc32", None, || {
        for _ in 0..reps {
            for p in &payloads {
                black_box(crc32(black_box(p)));
            }
        }
    });
    let secs = elapsed_ns(t) as f64 / 1e9;
    layer.insert("wire.crc32_mb_s", ratio((reps * bytes) as f64 / 1e6, secs));

    let t = Instant::now();
    let digests = span("wire.digest", None, || {
        let mut last = Vec::new();
        for _ in 0..reps {
            last = unit_digests(plan);
        }
        last
    });
    layer.insert("wire.digest_ns", per_frame(elapsed_ns(t)));

    let t = Instant::now();
    let manifest = span("wire.manifest.decode", None, || {
        let mut last = None;
        for _ in 0..MANIFEST_REPS {
            last = Some(UnitManifest::decode(black_box(&plan.manifest)));
        }
        last.expect("at least one decode ran")
    });
    layer.insert(
        "wire.manifest.decode_us",
        elapsed_ns(t) as f64 / 1e3 / MANIFEST_REPS as f64,
    );

    let mut failed = 0u64;
    for (f, b) in frames.iter().zip(&encoded) {
        if !matches!(Frame::decode(b), Ok((ref d, used)) if d == f && used == b.len()) {
            failed += 1;
        }
    }
    match manifest {
        Ok(m) if m.unit_digests == digests => {}
        _ => failed += 1,
    }
    (frames.len() as u64 + 1, failed)
}

fn unit_digests(plan: &ServePlan) -> Vec<Vec<u32>> {
    (0u32..)
        .zip(&plan.classes)
        .map(|(ci, c)| {
            (0u32..)
                .zip(&c.units)
                .map(|(ui, p)| content_digest_of(plan.manifest_epoch, ci, ui, black_box(p)))
                .collect()
        })
        .collect()
}
