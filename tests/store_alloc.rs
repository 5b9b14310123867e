//! The allocation bound of one warm restart. A counting global
//! allocator sees every allocation in this test binary — client,
//! server and store alike — so the file holds a single test: a second
//! one running in parallel would add its own counts.
//!
//! A javacup session over an in-memory store is killed at half its
//! units, then restarted from the journal it left. The restart
//! recovers the journal, verifies every journaled unit, and fetches
//! the rest over loopback. Its allocations must not grow with the
//! units: at most [`PER_CLASS`] per class (the manifest's digest lists,
//! decoded by the store and again by the client; each class's CRC,
//! size and span lists; the report's copies) plus [`PER_SESSION`] for
//! the journal's bytes and record spans, the connection, the threads
//! and the frames around the units.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use nonstrict_core::build_plan;
use nonstrict_core::model::OrderingSource;
use nonstrict_store::{DurableSession, FaultFs, FaultKnobs};
use nonstrict_wire::{ClientConfig, ClientError, ServerConfig, WireClient, WireServer};

/// Allocations allowed per class of the session.
const PER_CLASS: u64 = 6;
/// Allocations allowed per session on top of the per-class ones.
const PER_SESSION: u64 = 96;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator;
// the wrapper only counts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Waits until the server has no connection left and has counted
/// `completed` sessions complete.
fn wait_idle(server: &WireServer, completed: u64) {
    let idle = server.wait_until(Duration::from_secs(10), |s, active| {
        s.completed >= completed && active == 0
    });
    assert!(idle, "the handler never exited");
}

#[test]
fn a_javacup_warm_restart_allocates_per_class_not_per_unit() {
    let plan = build_plan("javacup", OrderingSource::StaticCallGraph).expect("javacup builds");
    let classes = plan.classes.len() as u64;
    let units = plan.total_units() as u64;
    let server = WireServer::bind("127.0.0.1:0", vec![plan], ServerConfig::default())
        .expect("loopback bind");
    let addr = server.local_addr();
    let fs = Arc::new(FaultFs::new(FaultKnobs::quiet(1)));
    let store = || Box::new(DurableSession::new(fs.clone()));

    let mut killed = ClientConfig::new(addr, "javacup");
    killed.kill_after_units = Some(units / 2);
    let err = WireClient::with_store(killed, store())
        .run()
        .expect_err("the kill probe fires");
    assert!(matches!(err, ClientError::Killed { .. }), "{err}");
    let completed = server.stats().completed;
    wait_idle(&server, completed);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = WireClient::with_store(ClientConfig::new(addr, "javacup"), store())
        .run()
        .expect("the restart completes");
    // The server counts its session complete after the client has read
    // the Bye; its allocations belong to the restart too.
    wait_idle(&server, completed + 1);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert!(report.complete);
    assert_eq!(
        report.warm_units,
        units / 2,
        "the journal proves every unit"
    );
    let bound = PER_CLASS * classes + PER_SESSION;
    eprintln!("javacup restart: {allocations} allocations for {classes} classes and {units} units");
    assert!(
        allocations <= bound,
        "{allocations} allocations for {classes} classes and {units} units; at most {bound}"
    );
    drop(report);
    assert!(server.drain(Duration::from_secs(5)).clean);
}
