//! The allocation bound of one wire session. A counting global
//! allocator sees every allocation in this test binary, client and
//! server threads alike, so the file holds a single test: a second one
//! running in parallel would add its own counts.
//!
//! A cold jess session over loopback streams 1,665 units of 97 classes.
//! Its allocations must not grow with the units: at most
//! [`PER_CLASS`] per class (the pinned manifest's digest list, the
//! reserved CRC and size lists, the report's copy) plus [`PER_SESSION`]
//! for the connection, the threads and the frames around the units.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use nonstrict_core::build_plan;
use nonstrict_core::model::OrderingSource;
use nonstrict_wire::{ClientConfig, ServerConfig, WireClient, WireServer};

/// Allocations allowed per class of the session.
const PER_CLASS: u64 = 5;
/// Allocations allowed per session on top of the per-class ones.
const PER_SESSION: u64 = 64;

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

#[test]
fn a_cold_jess_session_allocates_per_class_not_per_unit() {
    let plan = build_plan("jess", OrderingSource::StaticCallGraph).expect("jess builds");
    let classes = plan.classes.len() as u64;
    let units = plan.total_units();
    let server = WireServer::bind("127.0.0.1:0", vec![plan], ServerConfig::default())
        .expect("loopback bind");
    let config = ClientConfig::new(server.local_addr(), "jess");

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = WireClient::new(config).run().expect("session completes");
    // The server's handler counts its session complete after the client
    // has read the Bye; its allocations belong to the session too.
    let idle = server.wait_until(Duration::from_secs(10), |s, active| {
        s.completed > 0 && active == 0
    });
    assert!(idle, "the handler never exited");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert!(report.complete);
    let bound = PER_CLASS * classes + PER_SESSION;
    eprintln!("jess: {allocations} allocations for {classes} classes and {units} units");
    assert!(
        allocations <= bound,
        "{allocations} allocations for {classes} classes and {units} units; at most {bound}"
    );
    drop(report);
    assert!(server.drain(Duration::from_secs(5)).clean);
}
