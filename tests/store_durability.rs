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
    CacheEntry, DurableSession, FaultFs, FaultKnobs, JournalLog, RealFs, StoreError, UnitCache,
    JOURNAL_NAME,
};
use nonstrict_wire::manifest::content_digest_of;
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
/// `--journal-dir`/`--cache-dir` pair and require a warm resume that
/// never refetches what the journal already proved.
#[test]
fn realfs_process_kill_then_warm_restart_completes() {
    let server = hanoi_server(ServerConfig::default());
    let addr = server.local_addr();
    let baseline = WireClient::new(fast_client(addr)).run().expect("baseline");

    let root =
        std::env::temp_dir().join(format!("nonstrict-store-durability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let journal = Arc::new(RealFs::open(root.join("journal")).expect("journal dir"));
    let cache = Arc::new(RealFs::open(root.join("cache")).expect("cache dir"));

    let mut cfg = fast_client(addr);
    cfg.kill_after_units = Some(3);
    let err = WireClient::with_store(
        cfg,
        Box::new(DurableSession::split(journal.clone(), cache.clone())),
    )
    .run()
    .expect_err("the kill probe must fire");
    assert!(
        matches!(err, ClientError::Killed { delivered: 3 }),
        "unexpected kill shape: {err}"
    );

    // A brand-new client over the same directories models the restarted
    // process: nothing survives but the disk.
    let warm = WireClient::with_store(
        fast_client(addr),
        Box::new(DurableSession::split(journal, cache)),
    )
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
/// at the raw decoder, and through session recovery when the stored
/// manifest file is the one truncated.
#[test]
fn every_manifest_prefix_truncation_fails_closed() {
    use nonstrict_store::MANIFEST_NAME;
    let server = hanoi_server(ServerConfig::default());
    let addr = server.local_addr();
    let fs = Arc::new(FaultFs::new(FaultKnobs::quiet(11)));
    let report = durable_client(addr, &fs).run().expect("session");
    assert!(report.complete);
    let drained = server.drain(Duration::from_secs(5));
    assert!(drained.clean);

    let full = fs.durable(MANIFEST_NAME).expect("manifest persisted");
    assert!(
        nonstrict_wire::manifest::UnitManifest::decode(&full).is_ok(),
        "the stored manifest must round-trip before we start cutting it"
    );
    for len in 0..full.len() {
        let prefix = full[..len].to_vec();
        assert!(
            nonstrict_wire::manifest::UnitManifest::decode(&prefix).is_err(),
            "manifest prefix of {len}/{} bytes decoded",
            full.len()
        );
        fs.set_durable(MANIFEST_NAME, prefix);
        fs.crash();
        let mut session = DurableSession::new(fs.clone());
        let err = session
            .recover_session()
            .expect_err(&format!("manifest prefix of {len} bytes recovered"));
        assert!(
            matches!(
                err,
                StoreError::ManifestMismatch { .. } | StoreError::Malformed { .. }
            ),
            "manifest prefix of {len} bytes: wrong error shape: {err}"
        );
    }
}

// ---------------------------------------------------------------------------
// Hostile on-disk corpus
// ---------------------------------------------------------------------------

/// Manifest epoch the corpus cache entries are sealed under.
const CORPUS_EPOCH: u64 = 0x1122_3344_5566_7788;
/// Payload the pinned manifest expects for class 0 unit 0.
const CORPUS_TRUE_PAYLOAD: &[u8] = b"the unit payload the manifest pinned";
/// Payload the poisoned entry actually carries.
const CORPUS_EVIL_PAYLOAD: &[u8] = b"a self-consistent but unpinned payload";

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

/// A once-valid cache entry with a single bit of post-hoc rot in the
/// payload: the CRC trailer no longer matches.
fn gen_bitrot_cache_entry() -> Vec<u8> {
    let entry = CacheEntry::sealed(CORPUS_EPOCH, 0, 0, CORPUS_TRUE_PAYLOAD.to_vec());
    let mut bytes = entry.encode();
    bytes[34] ^= 0x08; // inside the payload, past the 30-byte header
    bytes
}

/// A perfectly well-formed entry that hashes to a digest the pinned
/// manifest never issued: poisoned, not rotted. Frame checks all pass;
/// only the manifest comparison can catch it.
fn gen_wrong_digest_cache_entry() -> Vec<u8> {
    CacheEntry::sealed(CORPUS_EPOCH, 0, 0, CORPUS_EVIL_PAYLOAD.to_vec()).encode()
}

/// The committed corpus must be byte-identical to what the generators
/// produce — the artifacts are self-verifying, and
/// `NONSTRICT_WRITE_CORPUS=1 cargo test corpus_artifacts` regenerates
/// them after a deliberate format change.
#[test]
fn corpus_artifacts_match_their_generators() {
    let artifacts: [(&str, Vec<u8>); 4] = [
        ("torn-tail.nsjl", gen_torn_tail_journal()),
        ("rotted-frame.nsjl", gen_rotted_frame_journal()),
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
    let recovered = log.recover().expect("torn tail is recoverable");
    assert_eq!(recovered.records, vec![b"alpha".to_vec(), b"beta".to_vec()]);
    assert_eq!(
        recovered.torn_bytes, 7,
        "4-byte length prefix + 3 cut bytes"
    );
    // The compaction rewrote the durable file: a second recovery sees a
    // clean log with no torn tail.
    let again = log.recover().expect("compacted log recovers");
    assert_eq!(again.records.len(), 2);
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
        log.recover().expect_err("rot must not recover"),
        StoreError::CrcMismatch { what: "NSJL log" }
    );
}

/// The bit-rotted cache entry is rejected at decode with the typed CRC
/// error, and through `load_verified` the payload never escapes.
#[test]
fn corpus_bitrot_cache_entry_is_rejected() {
    let bytes = read_corpus("bitrot-entry.nsuc");
    assert_eq!(
        CacheEntry::decode(&bytes).expect_err("rot must not decode"),
        StoreError::CrcMismatch {
            what: "NSUC cache entry"
        }
    );
    let fs = Arc::new(FaultFs::new(FaultKnobs::quiet(0)));
    fs.set_durable(&UnitCache::entry_name(0, 0), bytes);
    let cache = UnitCache::new(fs);
    let expect = content_digest_of(CORPUS_EPOCH, 0, 0, CORPUS_TRUE_PAYLOAD);
    assert!(matches!(
        cache.load_verified(CORPUS_EPOCH, 0, 0, expect),
        Err(StoreError::CrcMismatch { .. })
    ));
}

/// The wrong-digest entry passes every self-consistency check — only
/// the pinned manifest can unmask it, and it must.
#[test]
fn corpus_wrong_digest_cache_entry_is_rejected() {
    let bytes = read_corpus("wrong-digest-entry.nsuc");
    let entry = CacheEntry::decode(&bytes).expect("the poison is self-consistent");
    assert_eq!(entry.payload, CORPUS_EVIL_PAYLOAD);
    let fs = Arc::new(FaultFs::new(FaultKnobs::quiet(0)));
    fs.set_durable(&UnitCache::entry_name(0, 0), bytes);
    let cache = UnitCache::new(fs);
    let expect = content_digest_of(CORPUS_EPOCH, 0, 0, CORPUS_TRUE_PAYLOAD);
    let got = content_digest_of(CORPUS_EPOCH, 0, 0, CORPUS_EVIL_PAYLOAD);
    assert_ne!(expect, got, "the two payloads must not collide");
    assert_eq!(
        cache
            .load_verified(CORPUS_EPOCH, 0, 0, expect)
            .expect_err("poison must not load"),
        StoreError::DigestMismatch {
            class: 0,
            unit: 0,
            want: expect,
            got,
        }
    );
    let _ = crc32(&entry.payload); // the journal CRC is orthogonal to the digest
}
