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
//!
//! The warm jess sessions after it, driven by a raw client that
//! allocates nothing while it reads, show the server's own cost of a
//! session: at most [`SERVER_PER_SESSION`] allocations, because each
//! one runs on the handler thread the cold session left parked. A
//! thread spawned per connection adds allocations of its own (three
//! per spawn when this was written: 64 over the 8 sessions) and breaks
//! that bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use nonstrict_core::build_plan;
use nonstrict_core::model::OrderingSource;
use nonstrict_wire::{
    crc32, ClientConfig, Frame, ServerConfig, WireClient, WireServer, PROTOCOL_VERSION,
};

/// Allocations allowed per class of the session.
const PER_CLASS: u64 = 5;
/// Allocations allowed per session on top of the per-class ones.
const PER_SESSION: u64 = 64;
/// Warm sessions measured from the server's side.
const WARM_SESSIONS: u64 = 8;
/// The server's allocations per warm session: the handler's job, the
/// Hello's frame and benchmark name, the resume negotiation's adverts
/// and seen-classes list, and the outbox buffer.
const SERVER_PER_SESSION: u64 = 6;
/// One-time allocations across the warm sessions: the first hand-off
/// grows the queue of jobs for parked handlers; one more to spare.
const WARM_ONCE: u64 = 2;

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

    warm_sessions_cost_the_server_no_thread(&server, units);
    assert!(server.drain(Duration::from_secs(5)).clean);
}

/// Runs [`WARM_SESSIONS`] raw jess sessions after the cold one. The
/// client's buffers exist before the count starts, so the count is the
/// server's alone.
fn warm_sessions_cost_the_server_no_thread(server: &WireServer, units: usize) {
    let hello = Frame::Hello {
        version: PROTOCOL_VERSION,
        benchmark: "jess".to_owned(),
        ordering: 0,
        resume: Vec::new(),
    }
    .encode();
    let mut stream = Vec::with_capacity(1 << 20);
    let mut first = None;

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for n in 1..=WARM_SESSIONS {
        stream.clear();
        let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
        raw.write_all(&hello).expect("hello");
        // The handler closes the socket once it has sent the Bye.
        raw.read_to_end(&mut stream).expect("the stream ends");
        let parked = server.wait_until(Duration::from_secs(10), |s, active| {
            s.completed == 1 + n && active == 0
        });
        assert!(parked, "warm session {n} never finished");
        let sum = (stream.len(), crc32(&stream));
        assert_eq!(*first.get_or_insert(sum), sum, "warm session {n} differs");
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let bound = WARM_SESSIONS * SERVER_PER_SESSION + WARM_ONCE;
    eprintln!("jess: {allocations} server allocations in {WARM_SESSIONS} warm sessions");
    assert!(
        allocations <= bound,
        "{allocations} allocations in {WARM_SESSIONS} warm sessions; at most {bound}"
    );
    // The last stream is a whole session: Welcome, every unit, Bye.
    let mut frames = Vec::new();
    let mut rest = &stream[..];
    while !rest.is_empty() {
        let (frame, used) = Frame::decode(rest).expect("a whole frame");
        frames.push(frame);
        rest = &rest[used..];
    }
    assert!(matches!(frames.first(), Some(Frame::Welcome { .. })));
    assert!(matches!(frames.last(), Some(Frame::Bye { .. })));
    assert_eq!(frames.len(), units + 2);
}
