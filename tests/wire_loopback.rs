//! Live TCP loopback tests: the real server, the real client, and the
//! socket-level chaos proxy, exercising the robustness ladder the
//! simulator only models.
//!
//! The centerpiece is the wire-level **crash-anywhere differential**:
//! disconnect at *every* unit boundary of a session, reconnect-resume
//! from the client's watermarks, and require the delivered payloads and
//! their stream-loader verification outcomes to be identical to an
//! uninterrupted run. The simulator proved this property over virtual
//! cycles; this proves it over sockets.

use std::time::Duration;

use nonstrict_core::model::OrderingSource;
use nonstrict_core::{build_plan, verify_payloads};
use nonstrict_wire::{
    ChaosConfig, ChaosProxy, ClientConfig, FaultKnobs, LoadgenConfig, ServerConfig, WireClient,
    WireServer,
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

/// Disconnect at every unit boundary; every resumed session must be
/// indistinguishable from the uninterrupted one.
#[test]
fn crash_at_every_unit_boundary_matches_uninterrupted_run() {
    let server = hanoi_server(ServerConfig::default());
    let addr = server.local_addr();

    let baseline = WireClient::new(fast_client(addr)).run().expect("baseline");
    assert!(baseline.complete, "uninterrupted run completes");
    let total_units: u64 = baseline.units.iter().map(|&u| u64::from(u)).sum();
    assert!(total_units > 2, "hanoi streams more than a prelude");
    let baseline_methods =
        verify_payloads(baseline.payloads.as_ref().unwrap()).expect("baseline verifies");

    for k in 1..total_units {
        let mut config = fast_client(addr);
        config.disconnect_after_units = Some(k);
        let report = WireClient::new(config)
            .run()
            .unwrap_or_else(|e| panic!("crash at unit {k}: {e}"));
        assert!(report.complete, "crash at unit {k} still completes");
        assert!(
            report.connects >= 2,
            "crash at unit {k} actually reconnected"
        );
        assert_eq!(
            report.unit_crcs, baseline.unit_crcs,
            "crash at unit {k}: delivered payloads diverged"
        );
        assert_eq!(report.delivered, baseline.delivered);
        assert_eq!(report.manifest_epoch, baseline.manifest_epoch);
        assert_eq!(report.manifest_crc, baseline.manifest_crc);
        let methods = verify_payloads(report.payloads.as_ref().unwrap())
            .unwrap_or_else(|e| panic!("crash at unit {k}: verification diverged: {e}"));
        assert_eq!(methods, baseline_methods, "crash at unit {k}");
    }
    let drained = server.drain(Duration::from_secs(5));
    assert!(drained.clean);
}

/// The chaos proxy injects socket-level faults at several seeds; every
/// client must still converge to the exact baseline payloads.
#[test]
fn chaos_seeds_converge_to_identical_payloads() {
    let server = hanoi_server(ServerConfig {
        pace_per_unit: Some(Duration::from_micros(100)),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let baseline = WireClient::new(fast_client(addr)).run().expect("baseline");

    // 4 seeds locally; CI's `soak` job elevates the count.
    for seed in 1..=common::chaos_seeds() {
        let knobs = FaultKnobs {
            seed,
            loss_pm: 30_000,
            drop_pm: 10_000,
            corrupt_pm: 30_000,
            droop_pm: 5_000,
            semantic_pm: 20_000,
        };
        let mut chaos = ChaosConfig::new(knobs);
        chaos.stall = Duration::from_millis(5);
        let proxy = ChaosProxy::spawn(addr, chaos).expect("proxy spawns");
        let mut config = fast_client(proxy.local_addr());
        config.max_attempts = 50;
        let report = WireClient::new(config)
            .run()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(report.complete, "seed {seed} completes under chaos");
        assert_eq!(
            report.unit_crcs, baseline.unit_crcs,
            "seed {seed}: chaos corrupted an accepted payload"
        );
        verify_payloads(report.payloads.as_ref().unwrap())
            .unwrap_or_else(|e| panic!("seed {seed}: verification failed: {e}"));
        let stats = proxy.stop();
        assert!(stats.connections >= 1, "seed {seed} saw traffic");
    }
    let drained = server.drain(Duration::from_secs(5));
    assert!(drained.clean);
}

/// Token-bucket admission turns the burst-exhausted tail of a thundering
/// herd away with typed Retry frames, and every client still finishes.
#[test]
fn admission_control_retries_then_completes() {
    let server = hanoi_server(ServerConfig {
        accept_burst: 2,
        accept_refill_per_sec: 20,
        retry_after_ms: 30,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let report = nonstrict_wire::run_loadgen(&LoadgenConfig {
        client: {
            let mut c = fast_client(addr);
            c.keep_payloads = false;
            c.max_attempts = 50;
            c
        },
        clients: 8,
        seed: 3,
        arrival_spread: Duration::from_millis(1),
        stores: None,
    });
    assert_eq!(report.completed, 8, "violations: {:?}", report.violations);
    assert_eq!(report.failed, 0);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(
        report.admission_retries > 0,
        "an 8-client herd against burst 2 must see Retry frames"
    );
    assert!(server.stats().retried > 0);
    let drained = server.drain(Duration::from_secs(5));
    assert!(drained.clean);
}

/// Drain mid-stream: in-flight connections finish at a unit boundary,
/// the evicted client keeps its watermarks, and a reconnect against a
/// fresh server resumes rather than restarting.
#[test]
fn drain_evicts_at_unit_boundaries_and_clients_resume() {
    let server = hanoi_server(ServerConfig {
        // Slow the stream down so the drain lands mid-session.
        pace_per_unit: Some(Duration::from_millis(20)),
        resume_after_ms: 5,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    // One client limited to a single attempt: the drain evicts it, and
    // its report preserves the partial watermarks.
    let handle = std::thread::spawn(move || {
        let mut config = fast_client(addr);
        config.max_attempts = 1;
        WireClient::new(config).run()
    });
    std::thread::sleep(Duration::from_millis(120));
    let drained = server.drain(Duration::from_secs(5));
    assert!(drained.clean, "pacing connections drain at unit boundaries");
    assert_eq!(drained.forced, 0);
    let evicted = handle.join().unwrap();
    // A single-attempt client either got lucky and finished before the
    // drain or was evicted with partial progress; both reports keep
    // consistent watermarks.
    let report = match evicted {
        Ok(r) => r,
        Err(nonstrict_wire::ClientError::Exhausted { .. }) => return,
        Err(e) => panic!("unexpected client error: {e}"),
    };
    if !report.complete {
        assert!(report.evictions >= 1, "incomplete without an eviction");
        let partial: u64 = report.delivered.iter().map(|&d| u64::from(d)).sum();
        assert!(partial > 0, "drain should land mid-stream, not pre-Hello");
    }
}

/// A consumer draining far below the configured byte-rate floor is a
/// slow-loris attack on the send queue; the server must evict it
/// instead of letting it pin a connection slot.
#[test]
fn slow_consumer_floor_evicts_stalled_clients() {
    use std::io::Read;
    let server = hanoi_server(ServerConfig {
        min_bytes_per_sec: 1 << 20,
        slow_grace: Duration::from_millis(50),
        write_timeout: Duration::from_millis(200),
        // Pace the stream past the grace window: hanoi is small enough
        // to vanish into the loopback socket buffer otherwise, and a
        // connection that finishes before the grace expires never meets
        // the floor check.
        pace_per_unit: Some(Duration::from_millis(20)),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    // A slow-loris client: sends a valid Hello, then reads one byte per
    // 50ms — far below the 1 MiB/s floor.
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let hello = nonstrict_wire::Frame::Hello {
        version: nonstrict_wire::PROTOCOL_VERSION,
        benchmark: "hanoi".to_owned(),
        ordering: 0,
        resume: Vec::new(),
    };
    std::io::Write::write_all(&mut stream, &hello.encode()).expect("hello");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("timeout");
    // Consume one byte per 50 ms in the background — far below the
    // floor. The eviction is observed on the server's counter; the
    // loris itself only sees EOF after draining whatever the kernel
    // already buffered, which can take arbitrarily long by design.
    std::thread::spawn(move || {
        let mut buf = [0u8; 1];
        loop {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => std::thread::sleep(Duration::from_millis(50)),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(_) => break,
            }
        }
    });
    let started = std::time::Instant::now();
    while server.stats().evicted_slow == 0 && started.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        server.stats().evicted_slow >= 1,
        "a slow-loris consumer must be evicted"
    );
    let drained = server.drain(Duration::from_secs(5));
    assert!(drained.clean);
}
