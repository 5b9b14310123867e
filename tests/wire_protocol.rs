//! The wire protocol against real content: frames built from an actual
//! restructured benchmark must survive encode∘decode bit for bit, fail
//! closed under truncation at *every* prefix length, and negotiate
//! resume watermarks from what a client's report proves it holds.

use std::io::Read;

use nonstrict_core::build_plan;
use nonstrict_core::model::OrderingSource;
use nonstrict_wire::client::{frame_reader, READ_BUFFER_BYTES};
use nonstrict_wire::frame::{encode_unit, read_frame};
use nonstrict_wire::{
    crc32, ClientReport, Frame, FrameError, ResumeEntry, UnitManifest, MAX_FRAME_PAYLOAD,
    PROTOCOL_VERSION,
};

/// One plan for the whole file: hanoi is the smallest benchmark that
/// still has multi-method classes to negotiate over.
fn plan() -> nonstrict_wire::ServePlan {
    build_plan("hanoi", OrderingSource::StaticCallGraph).expect("hanoi builds")
}

/// Every frame kind, loaded with real content from the serve plan.
fn real_frames(plan: &nonstrict_wire::ServePlan) -> Vec<Frame> {
    vec![
        Frame::Hello {
            version: PROTOCOL_VERSION,
            benchmark: plan.benchmark.clone(),
            ordering: 0,
            resume: vec![ResumeEntry {
                class: 0,
                epoch: plan.classes[0].epoch,
                delivered: 1,
            }],
        },
        Frame::Welcome {
            generation: plan.generation,
            manifest_epoch: plan.manifest_epoch,
            manifest: plan.manifest.clone(),
            classes: plan.negotiate(&[]),
        },
        Frame::Retry { after_ms: 100 },
        Frame::Unit {
            class: 0,
            unit: 0,
            payload: plan.classes[0].units[0].clone(),
        },
        Frame::Evict {
            reason: nonstrict_wire::EvictReason::Drain,
            resume_after_ms: 50,
        },
        Frame::Bye {
            classes: plan.classes.len() as u32,
            bytes: plan.total_bytes(),
        },
    ]
}

#[test]
fn every_frame_kind_round_trips_with_real_content() {
    let plan = plan();
    for frame in real_frames(&plan) {
        let bytes = frame.encode();
        let (back, consumed) = Frame::decode(&bytes).expect("round trip");
        assert_eq!(consumed, bytes.len());
        assert_eq!(back, frame);
        // The streaming reader agrees with the buffer decoder.
        let mut reader = bytes.as_slice();
        assert_eq!(read_frame(&mut reader).expect("stream read"), frame);
    }
    // The server encodes each unit from the plan's bytes into one buffer
    // it reuses: whatever that buffer held before, its bytes must be
    // exactly the owned frame's. The largest payload fills the frame to
    // its cap, and comes first so every later frame reuses its buffer.
    let largest = vec![0xa5; MAX_FRAME_PAYLOAD - 8];
    let units = plan.classes.iter().enumerate().flat_map(|(ci, class)| {
        (class.units.iter().enumerate()).map(move |(ui, p)| (ci as u32, ui as u32, p.as_slice()))
    });
    let mut buf = Vec::new();
    let mut encoded = 0;
    for (class, unit, payload) in [(7, 9, largest.as_slice())]
        .into_iter()
        .chain(units)
        .chain([(1, 2, &[][..])])
    {
        encode_unit(&mut buf, class, unit, payload);
        let owned = Frame::Unit {
            class,
            unit,
            payload: payload.to_vec(),
        };
        assert_eq!(buf, owned.encode(), "unit {class}/{unit}");
        assert_eq!(Frame::decode(&buf), Ok((owned, buf.len())));
        encoded += 1;
    }
    assert_eq!(encoded, plan.total_units() + 2);
}

/// A reader over `bytes` that counts its calls and returns at most
/// `max_per_read` bytes from each.
struct CountingReader<'a> {
    bytes: &'a [u8],
    max_per_read: usize,
    reads: usize,
}

impl Read for CountingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.reads += 1;
        let n = buf.len().min(self.max_per_read).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// The client reads a connection through one buffer: every frame of a
/// whole jess session decodes through it even when each underlying read
/// yields one byte, and a stream that has the bytes ready costs one
/// underlying read per buffer refill instead of two per frame.
#[test]
fn the_client_reader_decodes_a_session_in_few_reads() {
    let plan = build_plan("jess", OrderingSource::StaticCallGraph).expect("jess builds");
    let mut frames = vec![Frame::Welcome {
        generation: plan.generation,
        manifest_epoch: plan.manifest_epoch,
        manifest: plan.manifest.clone(),
        classes: plan.negotiate(&[]),
    }];
    for (ci, class) in plan.classes.iter().enumerate() {
        for (ui, payload) in class.units.iter().enumerate() {
            frames.push(Frame::Unit {
                class: ci as u32,
                unit: ui as u32,
                payload: payload.clone(),
            });
        }
    }
    frames.push(Frame::Bye {
        classes: plan.classes.len() as u32,
        bytes: plan.total_bytes(),
    });
    let stream: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
    let read_all = |max_per_read: usize| {
        let mut inner = CountingReader {
            bytes: &stream,
            max_per_read,
            reads: 0,
        };
        let mut reader = frame_reader(&mut inner);
        for (i, frame) in frames.iter().enumerate() {
            assert_eq!(read_frame(&mut reader).as_ref(), Ok(frame), "frame {i}");
        }
        drop(reader);
        assert!(inner.bytes.is_empty(), "every byte was read");
        inner.reads
    };
    assert_eq!(read_all(1), stream.len(), "one byte per read");
    let reads = read_all(usize::MAX);
    let bound = stream.len().div_ceil(READ_BUFFER_BYTES) + 1;
    assert!(
        reads <= bound,
        "{reads} reads for {} frames ({} bytes); at most {bound}",
        frames.len(),
        stream.len()
    );
    // Unbuffered, the same stream costs a header and a body read each.
    let mut raw = CountingReader {
        bytes: &stream,
        max_per_read: usize::MAX,
        reads: 0,
    };
    for _ in &frames {
        read_frame(&mut raw).expect("unbuffered read");
    }
    assert_eq!(raw.reads, 2 * frames.len());
}

#[test]
fn truncation_at_every_prefix_fails_closed() {
    let plan = plan();
    for frame in real_frames(&plan) {
        let bytes = frame.encode();
        for cut in 0..bytes.len() {
            match Frame::decode(&bytes[..cut]) {
                Err(_) => {}
                Ok((got, _)) => panic!("prefix {cut}/{} decoded as {got:?}", bytes.len()),
            }
        }
    }
}

#[test]
fn forged_manifest_length_is_oversized_before_allocation() {
    let plan = plan();
    let frame = Frame::Welcome {
        generation: plan.generation,
        manifest_epoch: plan.manifest_epoch,
        manifest: plan.manifest.clone(),
        classes: plan.negotiate(&[]),
    };
    let mut bytes = frame.encode();
    // Forge the manifest's inner length field (u32 at offset 17 after
    // kind+len+generation+epoch) to a multi-gigabyte claim, then
    // re-seal the frame CRC so only the forged count is under test.
    bytes[17..21].copy_from_slice(&u32::MAX.to_le_bytes());
    let crc_at = bytes.len() - 4;
    let crc = crc32(&bytes[..crc_at]);
    bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
    match Frame::decode(&bytes) {
        Err(FrameError::Oversized { declared, .. }) => {
            assert_eq!(declared, u64::from(u32::MAX));
        }
        other => panic!("forged manifest length produced {other:?}"),
    }
}

#[test]
fn resume_negotiation_round_trips_through_the_journal() {
    let plan = plan();
    // A client that delivered a partial prefix of every class.
    let delivered: Vec<u32> = plan
        .classes
        .iter()
        .enumerate()
        .map(|(i, c)| (i as u32) % (c.units.len() as u32 + 1))
        .collect();
    let report = ClientReport {
        delivered: delivered.clone(),
        units: plan.classes.iter().map(|c| c.units.len() as u32).collect(),
        epochs: plan.classes.iter().map(|c| c.epoch).collect(),
        manifest_epoch: plan.manifest_epoch,
        manifest_crc: crc32(&plan.manifest),
        ..ClientReport::default()
    };
    // Offer the report's nonzero watermarks, as a reconnecting client's
    // Hello does.
    let entries: Vec<ResumeEntry> = report
        .delivered
        .iter()
        .zip(&report.epochs)
        .enumerate()
        .filter(|(_, (&d, _))| d > 0)
        .map(|(i, (&delivered, &epoch))| ResumeEntry {
            class: i as u32,
            epoch,
            delivered,
        })
        .collect();
    let adverts = plan.negotiate(&entries);
    for (i, advert) in adverts.iter().enumerate() {
        assert_eq!(
            advert.start, delivered[i],
            "class {i}: the offered watermark must survive negotiation"
        );
        assert_eq!(advert.epoch, plan.classes[i].epoch);
    }
    // The report pinned the manifest the client saw.
    let manifest = UnitManifest::decode(&plan.manifest).expect("NSUM decodes");
    assert_eq!(manifest.epoch, report.manifest_epoch);
}

#[test]
fn stale_epochs_restart_from_zero() {
    let plan = plan();
    let entries: Vec<ResumeEntry> = plan
        .classes
        .iter()
        .enumerate()
        .map(|(i, c)| ResumeEntry {
            class: i as u32,
            epoch: c.epoch.wrapping_add(1), // recorded under another layout
            delivered: 1,
        })
        .collect();
    for advert in plan.negotiate(&entries) {
        assert_eq!(advert.start, 0, "stale watermarks must not survive");
    }
    // Out-of-range watermarks are clamped out too.
    let over: Vec<ResumeEntry> = plan
        .classes
        .iter()
        .enumerate()
        .map(|(i, c)| ResumeEntry {
            class: i as u32,
            epoch: c.epoch,
            delivered: c.units.len() as u32 + 7,
        })
        .collect();
    for advert in plan.negotiate(&over) {
        assert_eq!(advert.start, 0, "impossible watermarks must not survive");
    }
}

#[test]
fn resume_edges_get_typed_verdicts_on_real_content() {
    use nonstrict_wire::ResumeVerdict;
    let plan = plan();
    let class0_units = plan.classes[0].units.len() as u32;
    let class0_epoch = plan.classes[0].epoch;

    // Watermark exactly at the total: honored, advert starts at the
    // end, nothing left to stream for that class (the server proceeds
    // straight to its Bye for a fully-delivered plan).
    let full = vec![ResumeEntry {
        class: 0,
        epoch: class0_epoch,
        delivered: class0_units,
    }];
    let (adverts, verdicts) = plan.negotiate_checked(&full);
    assert_eq!(adverts[0].start, class0_units);
    assert_eq!(
        verdicts,
        vec![ResumeVerdict::Honored {
            class: 0,
            start: class0_units,
        }]
    );

    // Watermark beyond the total: a typed out-of-range reject, never a
    // panic, and the advert restarts the class from zero.
    let beyond = vec![ResumeEntry {
        class: 0,
        epoch: class0_epoch,
        delivered: class0_units + 1,
    }];
    let (adverts, verdicts) = plan.negotiate_checked(&beyond);
    assert_eq!(adverts[0].start, 0);
    assert_eq!(
        verdicts,
        vec![ResumeVerdict::OutOfRange {
            class: 0,
            delivered: class0_units + 1,
            units: class0_units,
        }]
    );

    // Stale per-class epoch: full refetch of that class — a watermark
    // recorded under another layout must never splice into this one.
    let stale = vec![ResumeEntry {
        class: 0,
        epoch: class0_epoch.wrapping_add(1),
        delivered: 1,
    }];
    let (adverts, verdicts) = plan.negotiate_checked(&stale);
    assert_eq!(adverts[0].start, 0);
    assert_eq!(
        verdicts,
        vec![ResumeVerdict::StaleEpoch {
            class: 0,
            offered: class0_epoch.wrapping_add(1),
            served: class0_epoch,
        }]
    );

    // A class id the plan never served: typed unknown-class reject.
    let unknown = vec![ResumeEntry {
        class: u32::MAX,
        epoch: 1,
        delivered: 1,
    }];
    let (_, verdicts) = plan.negotiate_checked(&unknown);
    assert_eq!(
        verdicts,
        vec![ResumeVerdict::UnknownClass { class: u32::MAX }]
    );
}

#[test]
fn orderings_produce_distinct_wire_plans_with_shared_vocabulary() {
    // The wire ordering table and the simulator agree on every code.
    for (name, code) in nonstrict_wire::config::ORDERINGS {
        let source = nonstrict_core::ordering_from_wire(code)
            .unwrap_or_else(|| panic!("wire ordering {name} has no simulator source"));
        assert_eq!(nonstrict_core::ordering_to_wire(source), code);
        assert_eq!(nonstrict_wire::config::ordering_code(name).unwrap(), code);
    }
}
