//! Storage-layer durability tests: the crash-anywhere differential at
//! the VFS-write granularity, real-filesystem warm restarts, and the
//! hostile on-disk corpus.
//!
//! The wire suite already proves crash-at-every-unit-boundary over
//! sockets; this suite moves the kill *inside the storage stack* — the
//! client process dies at every single mutating VFS operation its
//! durable store issues — and requires the warm restart to converge
//! byte-identical to the uninterrupted run, or fail closed to a cold
//! start that still converges. No intermediate outcome is acceptable.

use std::sync::Arc;
use std::time::Duration;

use nonstrict_core::build_plan;
use nonstrict_core::model::OrderingSource;
use nonstrict_store::{
    DurableSession, FaultFs, FaultKnobs, JournalLog, RealFs, StoreError, JOURNAL_NAME,
};
use nonstrict_wire::client::SessionStore;
use nonstrict_wire::manifest::{content_digest_of, UnitManifest};
use nonstrict_wire::{
    crc32, ClientConfig, ClientError, ServerConfig, SplitMix64, WireClient, WireServer,
};

mod common;

fn hanoi_server(config: ServerConfig) -> WireServer {
    let plan = build_plan("hanoi", OrderingSource::StaticCallGraph).expect("hanoi builds");
    WireServer::bind("127.0.0.1:0", vec![plan], config).expect("loopback bind")
}

fn fast_client(addr: std::net::SocketAddr) -> ClientConfig {
    let mut c = ClientConfig::new(addr, "hanoi");
    c.keep_payloads = true;
    c.backoff_base = Duration::from_millis(1);
    c.backoff_cap = Duration::from_millis(10);
    c
}

fn durable_client(addr: std::net::SocketAddr, fs: &Arc<FaultFs>) -> WireClient {
    WireClient::with_store(fast_client(addr), Box::new(DurableSession::new(fs.clone())))
}

/// The storage crash-anywhere differential: kill the client at every
/// mutating VFS operation its durable store performs, power-cycle the
/// store, and warm-restart. Every restart must complete with payloads
/// byte-identical to the uninterrupted baseline — whether it resumed a
/// verified warm prefix or failed closed to a cold start.
#[test]
fn crash_at_every_storage_write_converges_to_baseline() {
    let server = hanoi_server(ServerConfig::default());
    let addr = server.local_addr();

    // Baseline: uninterrupted durable run over an honest store, which
    // also measures the sweep bound — how many mutating VFS ops one
    // full session costs.
    let quiet = Arc::new(FaultFs::new(FaultKnobs::quiet(1)));
    let baseline = durable_client(addr, &quiet).run().expect("baseline");
    assert!(baseline.complete, "uninterrupted durable run completes");
    let total_ops = quiet.ops();
    assert!(
        total_ops > 4,
        "a session must cost more than a handful of store ops (got {total_ops})"
    );

    let mut warm_restores = 0u64;
    for k in 1..=total_ops {
        let fs = Arc::new(FaultFs::new(FaultKnobs::quiet(0xd15c + k)));
        fs.set_kill_at(k);
        match durable_client(addr, &fs).run() {
            // The store op died mid-write and the session failed closed.
            Err(ClientError::Store { .. }) => {}
            Err(e) => panic!("kill at store op {k}: unexpected error {e}"),
            Ok(r) => panic!("kill at store op {k} never fired (complete={})", r.complete),
        }
        fs.crash();
        let warm = durable_client(addr, &fs)
            .run()
            .unwrap_or_else(|e| panic!("kill at store op {k}: warm restart failed: {e}"));
        assert!(warm.complete, "kill at store op {k}: restart incomplete");
        assert_eq!(
            warm.unit_crcs, baseline.unit_crcs,
            "kill at store op {k}: restarted payloads diverged"
        );
        assert_eq!(warm.delivered, baseline.delivered, "kill at store op {k}");
        assert_eq!(
            warm.manifest_epoch, baseline.manifest_epoch,
            "kill at store op {k}"
        );
        assert_eq!(
            warm.payloads, baseline.payloads,
            "kill at store op {k}: byte-level divergence"
        );
        warm_restores += warm.warm_units;
    }
    assert!(
        warm_restores > 0,
        "at least some kills must land after durable progress existed to warm-restore"
    );
    let drained = server.drain(Duration::from_secs(5));
    assert!(drained.clean);
}

/// The process-kill probe against the *real* filesystem backend: kill
/// after N units, then restart a brand-new session over the same
/// `--journal-dir` and require a warm resume that never refetches what
/// the journal already proved.
#[test]
fn realfs_process_kill_then_warm_restart_completes() {
    let server = hanoi_server(ServerConfig::default());
    let addr = server.local_addr();
    let baseline = WireClient::new(fast_client(addr)).run().expect("baseline");

    let root =
        std::env::temp_dir().join(format!("nonstrict-store-durability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let journal = Arc::new(RealFs::open(root.join("journal")).expect("journal dir"));

    let mut cfg = fast_client(addr);
    cfg.kill_after_units = Some(3);
    let err = WireClient::with_store(cfg, Box::new(DurableSession::new(journal.clone())))
        .run()
        .expect_err("the kill probe must fire");
    assert!(
        matches!(err, ClientError::Killed { delivered: 3 }),
        "unexpected kill shape: {err}"
    );

    // A brand-new client over the same directories models the restarted
    // process: nothing survives but the disk.
    let warm = WireClient::with_store(fast_client(addr), Box::new(DurableSession::new(journal)))
        .run()
        .expect("warm restart");
    assert!(warm.complete);
    assert_eq!(
        warm.warm_units, 3,
        "every journaled unit must resume from disk, not the wire"
    );
    assert_eq!(warm.unit_crcs, baseline.unit_crcs);
    assert_eq!(warm.payloads, baseline.payloads);

    let _ = std::fs::remove_dir_all(&root);
    let drained = server.drain(Duration::from_secs(5));
    assert!(drained.clean);
}

/// Elevated storage faults — torn writes, fsync lies, bit rot — across
/// several seeds and repeated kill/restart cycles. However mangled the
/// store gets, the final clean restart must converge byte-identical to
/// the faultless baseline (warm prefix or cold start, never a wrong
/// byte).
#[test]
fn storage_fault_seeds_converge_after_repeated_restarts() {
    let server = hanoi_server(ServerConfig::default());
    let addr = server.local_addr();
    let baseline = WireClient::new(fast_client(addr)).run().expect("baseline");

    // 4 seeds locally; CI's `soak` job elevates the count.
    for seed in 1..=common::disk_seeds() {
        let fs = Arc::new(FaultFs::new(FaultKnobs {
            seed,
            torn_pm: 300_000,
            lie_pm: 120_000,
            bitrot_pm: 250_000,
        }));
        let mut rng = SplitMix64(seed ^ 0xd15c_cafe);
        // Several killed attempts, each crash giving bit rot its chance
        // to gnaw the survivors, then one clean run.
        for round in 0..4u64 {
            fs.set_kill_at(1 + rng.below(12));
            match durable_client(addr, &fs).run() {
                // The armed kill fired (or a lie-damaged store failed
                // closed); power-cycle and go again.
                Err(ClientError::Store { .. }) => {}
                // The kill index landed past the ops this (possibly
                // warm) session needed: it completed early.
                Ok(r) => {
                    assert!(r.complete, "seed {seed} round {round}");
                    break;
                }
                Err(e) => panic!("seed {seed} round {round}: {e}"),
            }
            fs.crash();
        }
        fs.crash();
        let report = durable_client(addr, &fs)
            .run()
            .unwrap_or_else(|e| panic!("seed {seed}: clean restart failed: {e}"));
        assert!(report.complete, "seed {seed} converges");
        assert_eq!(
            report.unit_crcs, baseline.unit_crcs,
            "seed {seed}: storage faults leaked a wrong byte into the session"
        );
    }
    let drained = server.drain(Duration::from_secs(5));
    assert!(drained.clean);
}

/// Every strict prefix of an encoded `NSUM` manifest must fail closed —
/// at the raw decoder, and through session recovery when the journal's
/// `Pin` record carries the cut manifest under a valid frame CRC.
#[test]
fn every_manifest_prefix_truncation_fails_closed() {
    let server = hanoi_server(ServerConfig::default());
    let addr = server.local_addr();
    let fs = Arc::new(FaultFs::new(FaultKnobs::quiet(11)));
    let report = durable_client(addr, &fs).run().expect("session");
    assert!(report.complete);
    let drained = server.drain(Duration::from_secs(5));
    assert!(drained.clean);

    let log = JournalLog::new(fs.clone(), JOURNAL_NAME);
    let records: Vec<Vec<u8>> = log
        .recover(|_, frame| crc32(frame))
        .expect("journal recovers")
        .records()
        .map(<[u8]>::to_vec)
        .collect();
    // A compacted session log starts with its Pin record: the tag, the
    // generation (u32) and the manifest bytes.
    let (pin_head, full) = records[0].split_at(PIN_HEAD);
    assert!(
        UnitManifest::decode(full).is_ok(),
        "the pinned manifest must round-trip before we start cutting it"
    );
    for len in 0..full.len() {
        let prefix = &full[..len];
        assert!(
            UnitManifest::decode(prefix).is_err(),
            "manifest prefix of {len}/{} bytes decoded",
            full.len()
        );
        let mut resealed = records.clone();
        resealed[0] = [pin_head, prefix].concat();
        log.rewrite(&resealed).expect("rewrite");
        fs.crash();
        let mut session = DurableSession::new(fs.clone());
        let err = session
            .recover_session()
            .expect_err(&format!("manifest prefix of {len} bytes recovered"));
        assert!(
            matches!(err, StoreError::Malformed { .. }),
            "manifest prefix of {len} bytes: wrong error shape: {err}"
        );
    }
}

// ---------------------------------------------------------------------------
// Hostile on-disk corpus
// ---------------------------------------------------------------------------

/// Bytes before a session `Pin` record's manifest: tag, generation.
const PIN_HEAD: usize = 5;
/// Manifest epoch the corpus units are pinned under.
const CORPUS_EPOCH: u64 = 0x1122_3344_5566_7788;
/// Payload the pinned manifest expects for class 0 unit 0.
const CORPUS_TRUE_PAYLOAD: &[u8] = b"the unit payload the manifest pinned";
/// Payload the poisoned artifacts actually carry.
const CORPUS_EVIL_PAYLOAD: &[u8] = b"a self-consistent but unpinned payload";
/// Payload the pinned manifest expects for class 0 unit 1.
const CORPUS_SECOND_PAYLOAD: &[u8] = b"the second pinned unit";

fn corpus_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(name)
}

fn read_corpus(name: &str) -> Vec<u8> {
    std::fs::read(corpus_path(name))
        .unwrap_or_else(|e| panic!("corpus artifact {name} unreadable: {e}"))
}

/// A clean two-record journal followed by a torn tail: a frame whose
/// length prefix promises 8 bytes but whose payload was cut at 3 by the
/// power loss.
fn gen_torn_tail_journal() -> Vec<u8> {
    let fs = Arc::new(FaultFs::new(FaultKnobs::quiet(0)));
    let log = JournalLog::new(fs.clone(), "gen.nsjl");
    log.append_record(b"alpha").expect("append");
    log.append_record(b"beta").expect("append");
    let mut bytes = fs.durable("gen.nsjl").expect("journal bytes");
    bytes.extend_from_slice(&8u32.to_le_bytes());
    bytes.extend_from_slice(b"cut");
    bytes
}

/// A journal whose last frame is fully present but fails its CRC — rot
/// or forgery, not a torn write, so recovery must refuse the whole file.
fn gen_rotted_frame_journal() -> Vec<u8> {
    let fs = Arc::new(FaultFs::new(FaultKnobs::quiet(0)));
    let log = JournalLog::new(fs.clone(), "gen.nsjl");
    log.append_record(b"alpha").expect("append");
    log.append_record(b"beta").expect("append");
    let mut bytes = fs.durable("gen.nsjl").expect("journal bytes");
    let flip = bytes.len() - 6; // inside the last frame's payload
    bytes[flip] ^= 0x20;
    bytes
}

/// The manifest every corpus session pins: one class of two units.
fn corpus_manifest() -> Vec<u8> {
    UnitManifest::from_payloads(
        &[vec![
            CORPUS_TRUE_PAYLOAD.to_vec(),
            CORPUS_SECOND_PAYLOAD.to_vec(),
        ]],
        CORPUS_EPOCH,
    )
    .encode()
}

/// A session journal pinned to [`corpus_manifest`] holding class 0's
/// units `units` — the honest first unit, then whatever follows.
fn gen_session_journal(units: &[&[u8]]) -> Vec<u8> {
    let fs = Arc::new(FaultFs::new(FaultKnobs::quiet(0)));
    let mut session = DurableSession::new(fs.clone());
    session.on_pin(1, &corpus_manifest()).expect("pin");
    for (ui, payload) in units.iter().enumerate() {
        session
            .on_unit(0, ui as u32, 1, 2, payload)
            .expect("unit record");
    }
    fs.durable(JOURNAL_NAME).expect("journal bytes")
}

/// A session journal whose unit record is fully present but has one
/// bit of post-hoc rot in its payload: the frame CRC no longer matches.
fn gen_rotted_unit_journal() -> Vec<u8> {
    let mut bytes = gen_session_journal(&[CORPUS_TRUE_PAYLOAD]);
    let flip = bytes.len() - 8; // inside the unit's payload
    bytes[flip] ^= 0x08;
    bytes
}

/// A session journal whose second unit record is perfectly framed but
/// carries bytes that hash to a digest the pinned manifest never
/// issued: poisoned, not rotted. Only the manifest comparison can
/// catch it.
fn gen_wrong_digest_unit_journal() -> Vec<u8> {
    gen_session_journal(&[CORPUS_TRUE_PAYLOAD, CORPUS_EVIL_PAYLOAD])
}

/// A unit-cache entry in the retired `NSUC` format: magic, version 1,
/// manifest epoch, class, unit, content digest, payload length, the
/// payload, and a CRC32 over everything before it. Kept so the two
/// cache artifacts below stay generated and byte-checked.
fn nsuc_entry(payload: &[u8]) -> Vec<u8> {
    let mut bytes = b"NSUC".to_vec();
    bytes.extend_from_slice(&1u16.to_le_bytes());
    bytes.extend_from_slice(&CORPUS_EPOCH.to_le_bytes());
    bytes.extend_from_slice(&[0; 8]); // class 0, unit 0
    bytes.extend_from_slice(&content_digest_of(CORPUS_EPOCH, 0, 0, payload).to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(payload);
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

/// A once-valid cache entry with a single bit of post-hoc rot in the
/// payload: the CRC trailer no longer matches.
fn gen_bitrot_cache_entry() -> Vec<u8> {
    let mut bytes = nsuc_entry(CORPUS_TRUE_PAYLOAD);
    bytes[34] ^= 0x08; // inside the payload, past the 30-byte header
    bytes
}

/// A well-formed cache entry whose payload hashes to a digest the
/// pinned manifest never issued.
fn gen_wrong_digest_cache_entry() -> Vec<u8> {
    nsuc_entry(CORPUS_EVIL_PAYLOAD)
}

/// The committed corpus must be byte-identical to what the generators
/// produce — the artifacts are self-verifying, and
/// `NONSTRICT_WRITE_CORPUS=1 cargo test corpus_artifacts` regenerates
/// them after a deliberate format change.
#[test]
fn corpus_artifacts_match_their_generators() {
    let artifacts: [(&str, Vec<u8>); 6] = [
        ("torn-tail.nsjl", gen_torn_tail_journal()),
        ("rotted-frame.nsjl", gen_rotted_frame_journal()),
        ("rotted-unit.nsjl", gen_rotted_unit_journal()),
        ("wrong-digest-unit.nsjl", gen_wrong_digest_unit_journal()),
        ("bitrot-entry.nsuc", gen_bitrot_cache_entry()),
        ("wrong-digest-entry.nsuc", gen_wrong_digest_cache_entry()),
    ];
    for (name, want) in artifacts {
        if std::env::var("NONSTRICT_WRITE_CORPUS").is_ok() {
            std::fs::write(corpus_path(name), &want)
                .unwrap_or_else(|e| panic!("writing corpus {name}: {e}"));
            continue;
        }
        assert_eq!(
            read_corpus(name),
            want,
            "committed corpus artifact {name} drifted from its generator"
        );
    }
}

/// The torn-tail journal recovers exactly the clean prefix: both
/// records survive, the 7 torn bytes are truncated (and the durable
/// file compacted), and nothing of the cut frame leaks through.
#[test]
fn corpus_torn_journal_tail_truncates_to_last_valid_frame() {
    let fs = Arc::new(FaultFs::new(FaultKnobs::quiet(0)));
    fs.set_durable(JOURNAL_NAME, read_corpus("torn-tail.nsjl"));
    let log = JournalLog::new(fs.clone(), JOURNAL_NAME);
    let recovered = log
        .recover(|_, frame| crc32(frame))
        .expect("torn tail is recoverable");
    assert!(recovered.records().eq([b"alpha".as_slice(), b"beta"]));
    assert_eq!(
        recovered.torn_bytes, 7,
        "4-byte length prefix + 3 cut bytes"
    );
    // The compaction rewrote the durable file: a second recovery sees a
    // clean log with no torn tail.
    let again = log
        .recover(|_, frame| crc32(frame))
        .expect("compacted log recovers");
    assert_eq!(again.records().len(), 2);
    assert_eq!(again.torn_bytes, 0);
}

/// The rotted-frame journal fails closed with the typed CRC error —
/// a complete-but-wrong frame means append order cannot be trusted.
#[test]
fn corpus_rotted_journal_frame_fails_closed() {
    let fs = Arc::new(FaultFs::new(FaultKnobs::quiet(0)));
    fs.set_durable(JOURNAL_NAME, read_corpus("rotted-frame.nsjl"));
    let log = JournalLog::new(fs.clone(), JOURNAL_NAME);
    assert_eq!(
        log.recover(|_, frame| crc32(frame))
            .expect_err("rot must not recover"),
        StoreError::CrcMismatch { what: "NSJL log" }
    );
}

/// A session store holding `name`'s artifact under `file`.
fn store_with(file: &str, name: &str) -> (Arc<FaultFs>, DurableSession) {
    let fs = Arc::new(FaultFs::new(FaultKnobs::quiet(0)));
    fs.set_durable(file, read_corpus(name));
    let session = DurableSession::new(fs.clone());
    (fs, session)
}

/// The rotted unit record fails the whole journal closed with the
/// typed CRC error, and the warm start scrubs it to a cold start.
#[test]
fn corpus_rotted_unit_record_fails_closed_and_scrubs() {
    let (fs, mut session) = store_with(JOURNAL_NAME, "rotted-unit.nsjl");
    assert_eq!(
        session.recover_session(),
        Err(StoreError::CrcMismatch { what: "NSJL log" })
    );
    assert!(session.warm_start().is_none(), "rot must cold-start");
    assert_eq!(fs.durable(JOURNAL_NAME), None, "the scrub removes the log");
}

/// The wrong-digest unit record passes every frame check — only the
/// pinned manifest can unmask it, and it must: the class prefix ends
/// before it, and the drop is counted.
#[test]
fn corpus_wrong_digest_unit_record_ends_the_class_prefix() {
    let (_fs, mut session) = store_with(JOURNAL_NAME, "wrong-digest-unit.nsjl");
    let r = session
        .recover_session()
        .expect("the poison is self-consistent")
        .expect("the pin survives");
    let honest = Some(vec![CORPUS_TRUE_PAYLOAD.to_vec()]);
    assert_eq!(r.warm.payloads(&r.warm.classes[0]), honest);
    assert_eq!(r.dropped_units, 1);
    let warm = session.warm_start().expect("a warm start");
    assert_eq!(warm.payloads(&warm.classes[0]), honest);
}

/// A retired-format cache entry fails closed wherever it lands: under
/// its own name beside an honest pinned journal it never contributes a
/// warm unit, and in the journal's place it is not an NSJL log.
fn assert_cache_entry_fails_closed(name: &str) {
    let (_fs, mut session) = store_with("c0-u0.nsuc", name);
    session.on_pin(1, &corpus_manifest()).expect("pin");
    let r = session
        .recover_session()
        .expect("the journal is honest")
        .expect("the pin survives");
    assert!(
        r.warm.classes.iter().all(|c| c.payloads.is_empty()),
        "{name} contributed a warm unit"
    );
    let (_fs, mut session) = store_with(JOURNAL_NAME, name);
    assert_eq!(
        session.recover_session(),
        Err(StoreError::BadMagic { what: "NSJL log" })
    );
    assert!(session.warm_start().is_none());
}

/// The bit-rotted cache entry never yields its payload.
#[test]
fn corpus_bitrot_cache_entry_is_rejected() {
    assert_cache_entry_fails_closed("bitrot-entry.nsuc");
}

/// The wrong-digest cache entry never yields its poison.
#[test]
fn corpus_wrong_digest_cache_entry_is_rejected() {
    assert_cache_entry_fails_closed("wrong-digest-entry.nsuc");
}

// ---------------------------------------------------------------------------
// Decoded-field mutation
// ---------------------------------------------------------------------------

/// Session record tags, as `nonstrict_store::session` writes them.
const PIN_TAG: u8 = 0x01;
const UNIT_TAG: u8 = 0x02;
const RESET_CLASS_TAG: u8 = 0x03;
const TRUNCATE_TAG: u8 = 0x04;

/// The classes the mutation session streams: two of a few units each.
fn mutation_payloads() -> Vec<Vec<Vec<u8>>> {
    vec![
        vec![
            b"c0u0".to_vec(),
            b"c0u1-a longer unit".to_vec(),
            b"c0u2".to_vec(),
        ],
        vec![b"c1u0-prelude".to_vec(), b"c1u1".to_vec()],
    ]
}

/// An honest session journal holding every record kind — a Pin, units,
/// a negotiated truncation and its re-delivery, a class reset and its
/// refetch, and the completion — recovered as its raw records.
fn honest_session_records() -> (Arc<FaultFs>, Vec<Vec<u8>>) {
    let payloads = mutation_payloads();
    let manifest = UnitManifest::from_payloads(&payloads, 0x5eed_0001).encode();
    let fs = Arc::new(FaultFs::new(FaultKnobs::quiet(0)));
    let mut s = DurableSession::new(fs.clone());
    s.on_pin(2, &manifest).expect("pin");
    for (ci, class) in payloads.iter().enumerate() {
        let n = class.len() as u32;
        for (ui, p) in class.iter().enumerate() {
            s.on_unit(ci as u32, ui as u32, 1, n, p).expect("unit");
        }
    }
    s.on_truncate(0, 2).expect("truncate");
    s.on_unit(0, 2, 1, 3, &payloads[0][2]).expect("re-delivery");
    s.on_reset_class(1, 1, 2).expect("reset");
    for (ui, p) in payloads[1].iter().enumerate() {
        s.on_unit(1, ui as u32, 1, 2, p).expect("refetch");
    }
    s.on_complete().expect("complete");
    let records = JournalLog::new(fs.clone(), JOURNAL_NAME)
        .recover(|_, frame| crc32(frame))
        .expect("honest journal")
        .records()
        .map(<[u8]>::to_vec)
        .collect();
    (fs, records)
}

/// The byte ranges of a record's decoded fields, by its tag: the tag
/// itself, then each little-endian u32 (a Pin's generation; a Unit's
/// class, unit, epoch and units; a ResetClass's class, epoch and units;
/// a Truncate's class and delivered count). Also the record's head
/// length: everything before its variable-length body.
fn record_fields(record: &[u8]) -> (Vec<std::ops::Range<usize>>, usize) {
    let words = match record[0] {
        PIN_TAG => 1,
        UNIT_TAG => 4,
        RESET_CLASS_TAG => 3,
        TRUNCATE_TAG => 2,
        _ => 0,
    };
    let fields = std::iter::once(0..1)
        .chain((0..words).map(|w| 1 + 4 * w..5 + 4 * w))
        .collect();
    (fields, 1 + 4 * words)
}

/// Each class's recovered payloads, copied out.
fn recovered_payloads(warm: &nonstrict_wire::WarmSession) -> Vec<Vec<Vec<u8>>> {
    warm.classes
        .iter()
        .map(|c| warm.payloads(c).expect("spans lie in the recovered bytes"))
        .collect()
}

/// A decoded-field fuzzer for the warm start: the frame CRC rejects
/// a raw bit flip before any field is decoded, so each case mutates one
/// decoded field of one record — to 0, 1, MAX−1, MAX or a seeded value
/// — or cuts a record's head short, or cuts a Pin's manifest so it no
/// longer decodes, and re-seals the log with valid CRCs. Recovery must
/// return a typed error, a cold start, or a prefix of the honest
/// recovery: never a payload the honest journal did not prove, and
/// never a panic under the dev profile's overflow checks.
#[test]
fn mutated_record_fields_recover_a_prefix_or_fail_typed() {
    let (fs, honest_records) = honest_session_records();
    let honest = DurableSession::new(fs.clone())
        .recover_session()
        .expect("honest recovery")
        .expect("the pin survives");
    let honest_payloads = recovered_payloads(&honest.warm);
    assert_eq!(honest_payloads, mutation_payloads());
    let log = JournalLog::new(fs.clone(), JOURNAL_NAME);
    let mut rng = SplitMix64(0x00f1_e1d5);
    let (mut typed, mut prefixes) = (0u64, 0u64);
    for case in 0..common::fuzz_cases() {
        let mut records = honest_records.clone();
        let r = rng.below(records.len() as u64) as usize;
        let (fields, head) = record_fields(&records[r]);
        let record = &mut records[r];
        let what = match rng.below(8) {
            // Cut the head short: the record no longer fits its tag.
            0 => {
                record.truncate(rng.below(head as u64) as usize);
                "short head"
            }
            // Cut a Pin's manifest short: it no longer decodes.
            1 if record[0] == PIN_TAG => {
                let body = (record.len() - head) as u64;
                record.truncate(head + rng.below(body) as usize);
                "cut manifest"
            }
            _ => {
                let field = fields[rng.below(fields.len() as u64) as usize].clone();
                let max = if field.len() == 1 {
                    0xff
                } else {
                    u64::from(u32::MAX)
                };
                let value = match rng.below(5) {
                    0 => 0,
                    1 => 1,
                    2 => max - 1,
                    3 => max,
                    _ => rng.below(max + 1),
                };
                record[field.clone()].copy_from_slice(&value.to_le_bytes()[..field.len()]);
                "field"
            }
        };
        log.rewrite(&records).expect("re-seal");
        match DurableSession::new(fs.clone()).recover_session() {
            Err(e) => {
                assert!(
                    matches!(e, StoreError::Malformed { .. }),
                    "case {case} ({what} of record {r}): untyped failure {e}"
                );
                typed += 1;
            }
            Ok(None) => typed += 1,
            Ok(Some(got)) => {
                assert_eq!(
                    got.warm.bytes[got.warm.manifest.clone()],
                    honest.warm.bytes[honest.warm.manifest.clone()],
                    "case {case} ({what} of record {r}): another manifest pinned"
                );
                let payloads = recovered_payloads(&got.warm);
                assert_eq!(payloads.len(), honest_payloads.len(), "case {case}");
                for (ci, (class, want)) in got
                    .warm
                    .classes
                    .iter()
                    .zip(&honest.warm.classes)
                    .enumerate()
                {
                    let n = payloads[ci].len();
                    assert!(
                        n <= want.crcs.len()
                            && payloads[ci][..] == honest_payloads[ci][..n]
                            && class.crcs[..] == want.crcs[..n]
                            && class.sizes[..] == want.sizes[..n],
                        "case {case} ({what} of record {r}): class {ci} is not an honest prefix"
                    );
                }
                prefixes += 1;
            }
        }
    }
    eprintln!("{typed} typed failures or cold starts, {prefixes} honest prefixes");
}

/// A journal with a malformed record *and*, after it, a rotted frame
/// fails as rot: the frame error outranks the record error, however
/// the walk that finds both is arranged.
#[test]
fn a_rotted_frame_after_a_malformed_record_still_fails_as_rot() {
    let (fs, mut records) = honest_session_records();
    records[1] = vec![0xee]; // an unknown record tag, well framed
    let log = JournalLog::new(fs.clone(), JOURNAL_NAME);
    log.rewrite(&records).expect("re-seal");
    assert!(matches!(
        DurableSession::new(fs.clone()).recover_session(),
        Err(StoreError::Malformed { .. })
    ));
    let mut bytes = fs.durable(JOURNAL_NAME).expect("journal bytes");
    // The last frame is the Complete record: its one byte sits before
    // the 4-byte CRC trailer, well past the malformed record.
    let flip = bytes.len() - 5;
    bytes[flip] ^= 0x01;
    fs.set_durable(JOURNAL_NAME, bytes);
    assert_eq!(
        DurableSession::new(fs.clone()).recover_session(),
        Err(StoreError::CrcMismatch { what: "NSJL log" })
    );
}
