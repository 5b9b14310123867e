//! Mirror fleets over real TCP: mid-stream failover, Byzantine
//! quarantine, the crash-restarting supervisor, and live epoch
//! rollover.
//!
//! The headline is the wire-level **kill-any-mirror** differential:
//! with a fleet of mirrors serving the same plan, hard-kill one at
//! *every* delivered-unit boundary (no Evict, no Bye — the socket just
//! dies) and require every client to fail over mid-stream and converge
//! to payloads byte-identical to an uninterrupted single-server run,
//! verified through the same stream loader a live non-strict JVM would
//! apply. The simulator's replica layer proved this over virtual
//! cycles (PR 5–6); this proves it over sockets.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use nonstrict_core::model::OrderingSource;
use nonstrict_core::{build_plan, verify_payloads};
use nonstrict_wire::{
    run_loadgen, ChaosConfig, ChaosProxy, ClientConfig, CrashPlan, FaultKnobs, FleetConfig,
    FleetSupervisor, LoadgenConfig, ServePlan, ServerConfig, WireClient, WireServer,
    HEALTH_FULL_PPM,
};

mod common;

fn hanoi_plan(ordering: OrderingSource) -> ServePlan {
    build_plan("hanoi", ordering).expect("hanoi builds")
}

fn fleet_client(mirrors: Vec<SocketAddr>) -> ClientConfig {
    let mut c = ClientConfig::with_mirrors(mirrors, "hanoi");
    c.keep_payloads = true;
    c.backoff_base = Duration::from_millis(1);
    c.backoff_cap = Duration::from_millis(20);
    c
}

/// Hard-kill the preferred mirror at every global unit boundary; the
/// client must fail over to the surviving mirror mid-stream and still
/// deliver byte-identical, loader-clean payloads.
#[test]
fn kill_any_mirror_at_every_unit_boundary_converges() {
    let plan = hanoi_plan(OrderingSource::StaticCallGraph);
    let reference =
        WireServer::bind("127.0.0.1:0", vec![plan.clone()], ServerConfig::default()).expect("bind");
    let baseline = WireClient::new(fleet_client(vec![reference.local_addr()]))
        .run()
        .expect("baseline");
    assert!(baseline.complete);
    let total_units: u64 = baseline.units.iter().map(|&u| u64::from(u)).sum();
    assert!(total_units > 2, "hanoi streams more than a prelude");
    let baseline_methods =
        verify_payloads(baseline.payloads.as_ref().unwrap()).expect("baseline verifies");

    for k in 1..=total_units {
        let dying = WireServer::bind(
            "127.0.0.1:0",
            vec![plan.clone()],
            ServerConfig {
                kill_after_units: Some(k),
                ..ServerConfig::default()
            },
        )
        .expect("bind dying");
        let survivor = WireServer::bind("127.0.0.1:0", vec![plan.clone()], ServerConfig::default())
            .expect("bind survivor");
        let report = WireClient::new(fleet_client(vec![
            dying.local_addr(),
            survivor.local_addr(),
        ]))
        .run()
        .unwrap_or_else(|e| panic!("kill at unit {k}: {e}"));
        assert!(report.complete, "kill at unit {k} still completes");
        assert!(dying.is_killed(), "kill at unit {k} actually fired");
        assert!(
            report.failovers >= 1,
            "kill at unit {k} must force a failover"
        );
        assert_eq!(report.quarantines, 0, "a crash is not Byzantine");
        assert_eq!(
            report.unit_crcs, baseline.unit_crcs,
            "kill at unit {k}: delivered payloads diverged"
        );
        assert_eq!(report.delivered, baseline.delivered);
        let methods = verify_payloads(report.payloads.as_ref().unwrap())
            .unwrap_or_else(|e| panic!("kill at unit {k}: verification diverged: {e}"));
        assert_eq!(methods, baseline_methods, "kill at unit {k}");
        // The survivor served whatever the dead mirror could not.
        assert_eq!(
            report.mirror_units.iter().sum::<u64>(),
            u64::from(report.delivered.iter().map(|&d| u64::from(d)).sum::<u64>() as u32),
            "every accepted unit is attributed to a mirror"
        );
        // At the final boundary the dying mirror races its own kill:
        // if the writer flushes unit `total_units` before the socket
        // shutdown lands, the survivor only serves the Complete
        // handshake and contributes no units. Anywhere earlier it must
        // serve real payload.
        assert!(
            report.mirror_units[1] > 0 || k == total_units,
            "kill at unit {k}: survivor idle"
        );
    }
    let drained = reference.drain(Duration::from_secs(5));
    assert!(drained.clean);
}

/// A mirror whose proxy forges unit payloads under re-sealed frame CRCs
/// is caught by the pinned-manifest digest check at its first divergent
/// unit, quarantined, and never contributes a delivered unit.
#[test]
fn forging_mirror_is_quarantined_and_contributes_nothing() {
    let plan = hanoi_plan(OrderingSource::StaticCallGraph);
    let honest =
        WireServer::bind("127.0.0.1:0", vec![plan.clone()], ServerConfig::default()).expect("bind");
    let baseline = WireClient::new(fleet_client(vec![honest.local_addr()]))
        .run()
        .expect("baseline");

    let forged_backend =
        WireServer::bind("127.0.0.1:0", vec![plan], ServerConfig::default()).expect("bind");
    let mut chaos = ChaosConfig::new(FaultKnobs::default());
    chaos.forge_pm = 1_000_000; // forge every unit frame
    let proxy = ChaosProxy::spawn(forged_backend.local_addr(), chaos).expect("proxy");

    // The forging mirror is listed first, so it is pinned and trusted
    // until its first unit fails the digest check.
    let report = WireClient::new(fleet_client(vec![proxy.local_addr(), honest.local_addr()]))
        .run()
        .expect("session completes from the honest mirror");
    assert!(report.complete);
    assert!(report.digest_rejects >= 1, "the forgery was detected");
    assert!(report.quarantines >= 1, "the forger was quarantined");
    assert_eq!(
        report.mirror_units[0], 0,
        "a forging mirror must never contribute a delivered unit"
    );
    assert_eq!(report.mirror_health[0], 0, "quarantine zeroes health");
    assert_eq!(
        report.unit_crcs, baseline.unit_crcs,
        "the honest mirror's payloads are untouched"
    );
    verify_payloads(report.payloads.as_ref().unwrap()).expect("verifies clean");
    let stats = proxy.stop();
    assert!(stats.forges >= 1, "the proxy actually forged frames");
}

/// Two mirrors serving *different programs* under the same generation
/// is equivocation: whichever layout the client pinned first wins, and
/// the divergent mirror is quarantined at its Welcome — before a single
/// unit flows from it.
#[test]
fn equivocating_mirror_is_quarantined_at_welcome() {
    // Same benchmark name, structurally different layouts (different
    // restructure orderings), both claiming generation 0.
    let plan_a = hanoi_plan(OrderingSource::StaticCallGraph);
    let plan_b = hanoi_plan(OrderingSource::SourceOrder);
    assert_ne!(
        plan_a.manifest_epoch, plan_b.manifest_epoch,
        "the two layouts must actually diverge"
    );
    let pinned =
        WireServer::bind("127.0.0.1:0", vec![plan_a], ServerConfig::default()).expect("bind");
    let divergent =
        WireServer::bind("127.0.0.1:0", vec![plan_b], ServerConfig::default()).expect("bind");

    // The probe disconnect forces one failover after two units, so the
    // client actually visits the divergent mirror mid-session.
    let mut config = fleet_client(vec![pinned.local_addr(), divergent.local_addr()]);
    config.disconnect_after_units = Some(2);
    let report = WireClient::new(config)
        .run()
        .expect("completes from the pinned mirror");
    assert!(report.complete);
    assert!(report.equivocations >= 1, "the equivocation was detected");
    assert!(report.quarantines >= 1, "the equivocator was quarantined");
    assert_eq!(
        report.mirror_units[1], 0,
        "an equivocating mirror must never contribute a unit"
    );
    assert!(report.mirror_units[0] > 0);
    verify_payloads(report.payloads.as_ref().unwrap()).expect("verifies clean");
}

/// The supervisor kills and restarts every mirror per its seeded crash
/// plan while a client fleet streams; every client converges and the
/// cross-client invariant holds across mirrors and incarnations.
#[test]
fn supervised_fleet_survives_seeded_kills_and_restarts() {
    let plan = hanoi_plan(OrderingSource::StaticCallGraph);
    let factory: nonstrict_wire::PlanFactory = Arc::new(move |_gen| vec![plan.clone()]);
    let supervisor = FleetSupervisor::launch(
        FleetConfig {
            mirrors: 3,
            server: ServerConfig {
                // Keep sessions in flight long enough to meet a kill.
                pace_per_unit: Some(Duration::from_millis(3)),
                ..ServerConfig::default()
            },
            crash: Some(CrashPlan {
                seed: 0x5eed_f1ee7,
                kills_per_mirror: 1,
                min_uptime: Duration::from_millis(40),
                uptime_spread: Duration::from_millis(80),
            }),
            restart_delay: Duration::from_millis(25),
            health_interval: Duration::from_millis(100),
            drain_deadline: Duration::from_secs(5),
        },
        factory,
    )
    .expect("fleet launches");

    let loadgen = run_loadgen(&LoadgenConfig {
        client: {
            let mut c = fleet_client(supervisor.addrs().to_vec());
            c.keep_payloads = false;
            c.max_attempts = 60;
            c
        },
        clients: 6,
        seed: 9,
        arrival_spread: Duration::from_millis(60),
        stores: None,
    });
    assert_eq!(loadgen.completed, 6, "violations: {:?}", loadgen.violations);
    assert!(loadgen.violations.is_empty(), "{:?}", loadgen.violations);
    assert_eq!(loadgen.quarantines, 0, "honest mirrors, no quarantine");
    assert_eq!(loadgen.mirror_units.len(), 3);
    assert!(loadgen.mirror_units.iter().sum::<u64>() > 0);

    // The clients may finish before every scheduled kill fires: wait for
    // the three kills and the restarts after them.
    assert!(
        supervisor.wait_for(3, 6, Duration::from_secs(10)),
        "every mirror is killed once and restarted"
    );
    let report = supervisor.shutdown();
    assert_eq!(report.total_kills(), 3, "one seeded kill per mirror");
    assert_eq!(
        report.total_starts(),
        6,
        "each mirror restarted after its kill"
    );
    for m in &report.mirrors {
        assert_eq!(m.kills, 1);
        assert_eq!(m.starts, 2);
    }
}

/// A live epoch rollover mid-fleet: the generation bumps, mirrors drain
/// behind Evict fences and restart with the re-restructured plans, and
/// clients — including one caught mid-stream — refetch under the new
/// epoch instead of splicing layouts.
#[test]
fn epoch_rollover_refetches_under_the_new_generation() {
    let plan_gen0 = hanoi_plan(OrderingSource::StaticCallGraph);
    let plan_gen1 = hanoi_plan(OrderingSource::SourceOrder);
    assert_ne!(plan_gen0.manifest_epoch, plan_gen1.manifest_epoch);
    let (p0, p1) = (plan_gen0.clone(), plan_gen1.clone());
    let factory: nonstrict_wire::PlanFactory = Arc::new(move |generation| {
        vec![if generation == 0 {
            p0.clone()
        } else {
            p1.clone()
        }]
    });
    let supervisor = FleetSupervisor::launch(
        FleetConfig {
            mirrors: 2,
            server: ServerConfig {
                pace_per_unit: Some(Duration::from_millis(10)),
                resume_after_ms: 5,
                ..ServerConfig::default()
            },
            crash: None,
            restart_delay: Duration::from_millis(20),
            health_interval: Duration::from_millis(100),
            drain_deadline: Duration::from_secs(5),
        },
        factory,
    )
    .expect("fleet launches");
    let mirrors = supervisor.addrs().to_vec();

    // A pre-rollover session pins generation 0.
    let before = WireClient::new(fleet_client(mirrors.clone()))
        .run()
        .expect("pre-rollover session");
    assert!(before.complete);
    assert_eq!(before.generation, 0);
    assert_eq!(before.manifest_epoch, plan_gen0.manifest_epoch);

    // Catch a client mid-stream when the fence lands.
    let mid_config = {
        let mut c = fleet_client(mirrors.clone());
        c.max_attempts = 60;
        c
    };
    let (store, mid_stream) = common::FirstUnitSignal::new();
    let mid = std::thread::spawn(move || WireClient::with_store(mid_config, store).run());
    mid_stream.recv().expect("the client accepts a first unit");
    supervisor.rollover();
    let mid = mid.join().unwrap().expect("mid-rollover session");
    assert!(mid.complete);

    // `rollover` returned after the fence: no backend serves
    // generation 0 any more, so the first fresh session must pin the
    // new generation and the re-restructured epoch.
    let after = WireClient::new({
        let mut c = fleet_client(mirrors.clone());
        c.max_attempts = 60;
        c
    })
    .run()
    .expect("post-rollover session");
    assert!(after.complete);
    assert_eq!(after.generation, 1, "the fleet rolled to generation 1");
    assert_eq!(after.manifest_epoch, plan_gen1.manifest_epoch);
    verify_payloads(after.payloads.as_ref().unwrap()).expect("new layout verifies");

    // The mid-stream client pinned exactly one of the two layouts —
    // whole-generation delivery, never a splice.
    if mid.generation == 1 {
        assert_eq!(mid.manifest_epoch, plan_gen1.manifest_epoch);
        assert_eq!(mid.unit_crcs, after.unit_crcs);
    } else {
        assert_eq!(mid.manifest_epoch, plan_gen0.manifest_epoch);
        assert_eq!(mid.unit_crcs, before.unit_crcs);
    }
    verify_payloads(mid.payloads.as_ref().unwrap()).expect("mid-rollover payloads verify");

    let report = supervisor.shutdown();
    assert_eq!(report.rollovers, 1);
}

/// A single honest mirror behaves exactly like the pre-fleet client:
/// one connect, no failovers, no quarantines, full health.
#[test]
fn honest_single_mirror_matches_the_plain_client() {
    let plan = hanoi_plan(OrderingSource::StaticCallGraph);
    let server =
        WireServer::bind("127.0.0.1:0", vec![plan], ServerConfig::default()).expect("bind");
    let report = WireClient::new(fleet_client(vec![server.local_addr()]))
        .run()
        .expect("plain session");
    assert!(report.complete);
    assert_eq!(report.connects, 1);
    assert_eq!(report.failovers, 0);
    assert_eq!(report.quarantines, 0);
    assert_eq!(report.digest_rejects, 0);
    assert_eq!(report.equivocations, 0);
    assert_eq!(report.stale_welcomes, 0);
    assert_eq!(report.mirror_health, vec![HEALTH_FULL_PPM]);
    assert_eq!(
        report.mirror_units,
        vec![report.delivered.iter().map(|&d| u64::from(d)).sum::<u64>()]
    );
    let drained = server.drain(Duration::from_secs(5));
    assert!(drained.clean);
}
