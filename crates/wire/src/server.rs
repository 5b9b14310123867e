//! The fault-tolerant transfer server.
//!
//! A small threaded accept/stream stack (std only, one thread per
//! admitted connection plus a writer thread per connection) with the
//! robustness ladder the issue demands:
//!
//! * **Accept-side admission**: a token bucket gates new connections;
//!   when it is dry — or the concurrent-connection cap is reached — the
//!   connection gets a typed [`Frame::Retry`] with a suggested backoff
//!   instead of a silent RST, then closes.
//! * **Per-connection deadlines**: every socket gets read and write
//!   timeouts; a peer that stops participating cannot pin a thread.
//! * **Slow-consumer eviction**: the writer tracks delivered bytes per
//!   second after a grace window; a client draining slower than the
//!   configured floor (a slow-loris keeping the socket barely alive) is
//!   evicted.
//! * **Bounded send queue**: frames flow to the writer through a
//!   bounded channel, so a stalled socket backpressures the producer
//!   instead of buffering the whole benchmark in memory.
//! * **Graceful drain**: [`WireServer::drain`] stops admission, lets
//!   every in-flight connection finish its current unit, sends a
//!   resumable [`Frame::Evict`] at the unit boundary, and reports
//!   whether the fleet drained inside the deadline. Clients resume from
//!   their journal watermarks on reconnect.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::accept::{accept_until_stopped, StopSignal};
use crate::frame::{read_frame, EvictReason, Frame};
use crate::plan::ServePlan;

/// Tuning for a [`WireServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent admitted connections cap.
    pub max_connections: usize,
    /// Token-bucket burst capacity for admission.
    pub accept_burst: u32,
    /// Token-bucket refill rate, tokens per second.
    pub accept_refill_per_sec: u32,
    /// Suggested client backoff carried in Retry frames, milliseconds.
    pub retry_after_ms: u32,
    /// Suggested client backoff carried in drain Evicts, milliseconds.
    pub resume_after_ms: u32,
    /// Per-socket read deadline (Hello must arrive within it).
    pub read_timeout: Duration,
    /// Per-socket write deadline for one queued write.
    pub write_timeout: Duration,
    /// Bounded send-queue depth, in frames.
    pub send_queue_depth: usize,
    /// Slow-consumer floor: evict a connection draining below this many
    /// bytes per second once the grace window has passed. Zero disables
    /// the check.
    pub min_bytes_per_sec: u64,
    /// Grace window before the slow-consumer floor applies.
    pub slow_grace: Duration,
    /// Optional pacing delay between units (keeps connections in
    /// flight long enough for drain and chaos tests to observe them).
    pub pace_per_unit: Option<Duration>,
    /// Crash hook: hard-kill the whole server the moment its global
    /// `units_sent` counter reaches this value — no Evict, no Bye,
    /// every socket torn down mid-session. This is the wire-level
    /// crash-anywhere probe from the *server* side: sweeping it across
    /// every delivered-unit boundary proves clients converge to
    /// byte-identical payloads no matter where a mirror dies.
    pub kill_after_units: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            accept_burst: 32,
            accept_refill_per_sec: 64,
            retry_after_ms: 100,
            resume_after_ms: 50,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            send_queue_depth: 8,
            min_bytes_per_sec: 0,
            slow_grace: Duration::from_secs(2),
            pace_per_unit: None,
            kill_after_units: None,
        }
    }
}

/// Monotonic counters, snapshotted by [`WireServer::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted at the socket level.
    pub accepted: u64,
    /// Connections admitted past the token bucket.
    pub admitted: u64,
    /// Connections turned away with a Retry frame.
    pub retried: u64,
    /// Sessions that resumed from a nonzero watermark.
    pub resumed: u64,
    /// Connections evicted as slow consumers (floor or write timeout).
    pub evicted_slow: u64,
    /// Connections evicted by drain at a unit boundary.
    pub evicted_drain: u64,
    /// Connections rejected as incompatible (bad Hello).
    pub incompatible: u64,
    /// Sessions that streamed to a Bye.
    pub completed: u64,
    /// Unit frames sent.
    pub units_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
}

#[derive(Default)]
struct StatsInner {
    accepted: AtomicU64,
    admitted: AtomicU64,
    retried: AtomicU64,
    resumed: AtomicU64,
    evicted_slow: AtomicU64,
    evicted_drain: AtomicU64,
    incompatible: AtomicU64,
    completed: AtomicU64,
    units_sent: AtomicU64,
    bytes_sent: AtomicU64,
}

/// Outcome of a graceful drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// True when every connection reached a unit boundary and exited
    /// before the deadline, without force-closing any socket.
    pub clean: bool,
    /// Connections in flight when the drain began.
    pub in_flight_at_drain: usize,
    /// Connections still alive when the deadline forced their sockets
    /// closed (zero on a clean drain).
    pub forced: usize,
    /// Wall-clock time the drain took.
    pub elapsed: Duration,
}

struct Shared {
    plans: HashMap<String, Arc<ServePlan>>,
    config: ServerConfig,
    stats: StatsInner,
    /// Raised by drain, kill and drop: stops admission and wakes the
    /// accept loop; handlers honor it at the next unit boundary.
    draining: StopSignal,
    killed: AtomicBool,
    /// Admitted connections whose handler has not yet exited.
    active: Mutex<usize>,
    /// Signalled by every handler as it exits; drain waits on it.
    handler_exited: Condvar,
    next_conn: AtomicU64,
    conns: Mutex<HashMap<u64, TcpStream>>,
}

/// Locks the live-connection registry, recovering from poison: a
/// connection thread that panicked while holding the lock must not
/// wedge `stats()`, `drain()`, or `kill()` for the whole server. The
/// registry's only invariant — entries map conn ids to their sockets —
/// cannot be torn by a mid-update panic (insert/remove are atomic on
/// `HashMap`), so the poisoned guard's data is safe to keep using.
fn lock_conns(shared: &Shared) -> MutexGuard<'_, HashMap<u64, TcpStream>> {
    shared.conns.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// A hard crash: tear down every live socket with no farewell
    /// frame. Unlike drain, nothing reaches a unit boundary first —
    /// this models `kill -9`, not graceful shutdown.
    fn kill(&self) {
        self.killed.store(true, Ordering::SeqCst);
        self.draining.raise();
        let conns = lock_conns(self);
        for stream in conns.values() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Locks the admitted-connection count (poison-tolerant for the
    /// same reason as [`lock_conns`]: it is a plain counter).
    fn lock_active(&self) -> MutexGuard<'_, usize> {
        self.active.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits until no admitted handler is left or `until` passes;
    /// returns how many are still running.
    fn wait_for_handlers(&self, until: Instant) -> usize {
        let mut active = self.lock_active();
        while *active != 0 {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            active = self
                .handler_exited
                .wait_timeout(active, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        *active
    }
}

/// The server: bind, serve until [`WireServer::drain`].
pub struct WireServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl WireServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configuration failures.
    pub fn bind(
        addr: &str,
        plans: Vec<ServePlan>,
        config: ServerConfig,
    ) -> std::io::Result<WireServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let draining = StopSignal::new(&listener)?;
        let shared = Arc::new(Shared {
            plans: plans
                .into_iter()
                .map(|p| (p.benchmark.clone(), Arc::new(p)))
                .collect(),
            config,
            stats: StatsInner::default(),
            draining,
            killed: AtomicBool::new(false),
            active: Mutex::new(0),
            handler_exited: Condvar::new(),
            next_conn: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || accept_loop(listener, &accept_shared));
        Ok(WireServer {
            shared,
            addr: local,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently admitted and streaming.
    #[must_use]
    pub fn active_connections(&self) -> usize {
        *self.shared.lock_active()
    }

    /// A stats snapshot.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        let s = &self.shared.stats;
        ServerStats {
            accepted: s.accepted.load(Ordering::Relaxed),
            admitted: s.admitted.load(Ordering::Relaxed),
            retried: s.retried.load(Ordering::Relaxed),
            resumed: s.resumed.load(Ordering::Relaxed),
            evicted_slow: s.evicted_slow.load(Ordering::Relaxed),
            evicted_drain: s.evicted_drain.load(Ordering::Relaxed),
            incompatible: s.incompatible.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            units_sent: s.units_sent.load(Ordering::Relaxed),
            bytes_sent: s.bytes_sent.load(Ordering::Relaxed),
        }
    }

    /// Hard-kills the server: stops admission and tears down every
    /// live socket immediately, with no Evict or Bye. Clients observe
    /// a mid-stream reset and fail over; their journals still hold
    /// every unit delivered before the kill, because watermarks only
    /// ever advance at verified unit boundaries. The fleet supervisor
    /// uses this to model a mirror crash.
    pub fn kill(&self) {
        self.shared.kill();
    }

    /// True once [`WireServer::kill`] (or the
    /// [`ServerConfig::kill_after_units`] crash hook) has fired.
    #[must_use]
    pub fn is_killed(&self) -> bool {
        self.shared.killed.load(Ordering::SeqCst)
    }

    /// Gracefully drains: stops admission, lets in-flight connections
    /// finish their current unit and receive a resumable Evict, then
    /// waits up to `deadline`. Connections still alive at the deadline
    /// have their sockets force-closed and the drain is reported
    /// unclean.
    pub fn drain(mut self, deadline: Duration) -> DrainReport {
        let started = Instant::now();
        let in_flight = self.active_connections();
        self.shared.draining.raise();
        let mut forced = self.shared.wait_for_handlers(started + deadline);
        if forced != 0 {
            let conns = lock_conns(&self.shared);
            for stream in conns.values() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
            forced = self.active_connections();
            drop(conns);
            // Give forced handlers a beat to observe the closed socket
            // and exit.
            self.shared
                .wait_for_handlers(Instant::now() + Duration::from_secs(2));
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        DrainReport {
            clean: forced == 0,
            in_flight_at_drain: in_flight,
            forced,
            elapsed: started.elapsed(),
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shared.draining.raise();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

struct TokenBucket {
    tokens_micro: u64,
    burst_micro: u64,
    refill_per_sec: u64,
    last: Instant,
}

impl TokenBucket {
    const SCALE: u64 = 1_000_000;

    fn new(burst: u32, refill_per_sec: u32) -> TokenBucket {
        TokenBucket {
            tokens_micro: u64::from(burst) * TokenBucket::SCALE,
            burst_micro: u64::from(burst) * TokenBucket::SCALE,
            refill_per_sec: u64::from(refill_per_sec),
            last: Instant::now(),
        }
    }

    fn try_take(&mut self) -> bool {
        let now = Instant::now();
        let elapsed_micros =
            u64::try_from(now.duration_since(self.last).as_micros()).unwrap_or(u64::MAX);
        self.last = now;
        self.tokens_micro = self
            .tokens_micro
            .saturating_add(elapsed_micros.saturating_mul(self.refill_per_sec))
            .min(self.burst_micro);
        if self.tokens_micro >= TokenBucket::SCALE {
            self.tokens_micro -= TokenBucket::SCALE;
            true
        } else {
            false
        }
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let mut bucket = TokenBucket::new(
        shared.config.accept_burst,
        shared.config.accept_refill_per_sec,
    );
    accept_until_stopped(listener, &shared.draining, |stream| {
        shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
        let admit = {
            let mut active = shared.lock_active();
            let admit = *active < shared.config.max_connections && bucket.try_take();
            *active += usize::from(admit);
            admit
        };
        if !admit {
            shared.stats.retried.fetch_add(1, Ordering::Relaxed);
            send_and_close(
                stream,
                &Frame::Retry {
                    after_ms: shared.config.retry_after_ms,
                },
                shared.config.write_timeout,
            );
            return None;
        }
        shared.stats.admitted.fetch_add(1, Ordering::Relaxed);
        let conn_id = shared.next_conn.fetch_add(1, Ordering::SeqCst);
        let conn_shared = Arc::clone(shared);
        Some(std::thread::spawn(move || {
            handle_connection(stream, conn_id, &conn_shared);
            lock_conns(&conn_shared).remove(&conn_id);
            *conn_shared.lock_active() -= 1;
            conn_shared.handler_exited.notify_all();
        }))
    });
}

fn send_and_close(mut stream: TcpStream, frame: &Frame, write_timeout: Duration) {
    let _ = stream.set_write_timeout(Some(write_timeout));
    let _ = stream.write_all(&frame.encode());
    let _ = stream.flush();
}

/// Why the producer stopped streaming.
enum StreamEnd {
    Completed,
    Drained,
    /// The server was hard-killed: say nothing, the socket is already
    /// dead.
    Killed,
    WriterGone,
}

fn handle_connection(stream: TcpStream, conn_id: u64, shared: &Arc<Shared>) {
    let cfg = &shared.config;
    if stream.set_read_timeout(Some(cfg.read_timeout)).is_err()
        || stream.set_write_timeout(Some(cfg.write_timeout)).is_err()
    {
        return;
    }
    // Register for forced shutdown at the drain deadline; the accept
    // loop removes the entry when this handler returns, so the registry
    // never outgrows the live connection set.
    if let Ok(clone) = stream.try_clone() {
        lock_conns(shared).insert(conn_id, clone);
    }

    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let hello = match read_frame(&mut reader) {
        Ok(Frame::Hello {
            benchmark,
            ordering: _,
            resume,
            ..
        }) => (benchmark, resume),
        _ => {
            shared.stats.incompatible.fetch_add(1, Ordering::Relaxed);
            send_and_close(
                stream,
                &Frame::Evict {
                    reason: EvictReason::Incompatible,
                    resume_after_ms: 0,
                },
                cfg.write_timeout,
            );
            return;
        }
    };
    let (benchmark, resume) = hello;
    let Some(plan) = shared.plans.get(&benchmark).cloned() else {
        shared.stats.incompatible.fetch_add(1, Ordering::Relaxed);
        send_and_close(
            stream,
            &Frame::Evict {
                reason: EvictReason::Incompatible,
                resume_after_ms: 0,
            },
            cfg.write_timeout,
        );
        return;
    };

    let adverts = plan.negotiate(&resume);
    if adverts.iter().any(|a| a.start > 0) {
        shared.stats.resumed.fetch_add(1, Ordering::Relaxed);
    }

    // Writer thread behind a bounded queue: backpressure + deadlines +
    // the slow-consumer floor all live on this side of the channel.
    let (tx, rx): (SyncSender<Vec<u8>>, Receiver<Vec<u8>>) = sync_channel(cfg.send_queue_depth);
    let writer_shared = Arc::clone(shared);
    let writer_stream = stream;
    let writer = std::thread::spawn(move || write_loop(writer_stream, &rx, &writer_shared));

    let welcome = Frame::Welcome {
        generation: plan.generation,
        manifest_epoch: plan.manifest_epoch,
        manifest: plan.manifest.clone(),
        classes: adverts.clone(),
    };
    let mut end = if tx.send(welcome.encode()).is_err() {
        StreamEnd::WriterGone
    } else {
        stream_units(&plan, &adverts, &tx, shared)
    };

    let bytes: u64 = adverts
        .iter()
        .zip(plan.classes.iter())
        .flat_map(|(a, c)| c.units.iter().skip(a.start as usize))
        .map(|u| u.len() as u64)
        .sum();
    match end {
        StreamEnd::Completed => {
            let bye = Frame::Bye {
                classes: u32::try_from(plan.classes.len()).unwrap_or(u32::MAX),
                bytes,
            };
            if tx.send(bye.encode()).is_err() {
                end = StreamEnd::WriterGone;
            }
        }
        StreamEnd::Drained => {
            shared.stats.evicted_drain.fetch_add(1, Ordering::Relaxed);
            let evict = Frame::Evict {
                reason: EvictReason::Drain,
                resume_after_ms: cfg.resume_after_ms,
            };
            let _ = tx.send(evict.encode());
        }
        StreamEnd::Killed | StreamEnd::WriterGone => {}
    }
    drop(tx);
    let _ = writer.join();
    if matches!(end, StreamEnd::Completed) {
        shared.stats.completed.fetch_add(1, Ordering::Relaxed);
    }
}

fn stream_units(
    plan: &ServePlan,
    adverts: &[crate::frame::ClassAdvert],
    tx: &SyncSender<Vec<u8>>,
    shared: &Arc<Shared>,
) -> StreamEnd {
    for (ci, class) in plan.classes.iter().enumerate() {
        let start = adverts[ci].start as usize;
        for (ui, payload) in class.units.iter().enumerate().skip(start) {
            // A hard kill outranks everything and says nothing.
            if shared.killed.load(Ordering::SeqCst) {
                return StreamEnd::Killed;
            }
            // Drain is only honored here, between units: an in-flight
            // unit always finishes, so the client's journal watermark
            // lands exactly on a unit boundary.
            if shared.draining.is_raised() {
                return StreamEnd::Drained;
            }
            let frame = Frame::Unit {
                class: u32::try_from(ci).unwrap_or(u32::MAX),
                unit: u32::try_from(ui).unwrap_or(u32::MAX),
                payload: payload.clone(),
            };
            if tx.send(frame.encode()).is_err() {
                return StreamEnd::WriterGone;
            }
            let sent_now = shared.stats.units_sent.fetch_add(1, Ordering::Relaxed) + 1;
            shared
                .stats
                .bytes_sent
                .fetch_add(payload.len() as u64, Ordering::Relaxed);
            if shared
                .config
                .kill_after_units
                .is_some_and(|k| sent_now >= k)
            {
                // The seeded crash plan landed on this unit boundary:
                // die server-wide, right now.
                shared.kill();
                return StreamEnd::Killed;
            }
            if let Some(pace) = shared.config.pace_per_unit {
                std::thread::sleep(pace);
            }
        }
    }
    StreamEnd::Completed
}

fn write_loop(mut stream: TcpStream, rx: &Receiver<Vec<u8>>, shared: &Arc<Shared>) {
    let cfg = &shared.config;
    let started = Instant::now();
    let mut written = 0u64;
    for buf in rx.iter() {
        if stream.write_all(&buf).is_err() || stream.flush().is_err() {
            // Write deadline fired or the peer vanished: either way the
            // consumer is not keeping up. Dropping the receiver makes
            // the producer's next send fail, which tears the session
            // down at a frame boundary.
            shared.stats.evicted_slow.fetch_add(1, Ordering::Relaxed);
            return;
        }
        written += buf.len() as u64;
        let elapsed = started.elapsed();
        if cfg.min_bytes_per_sec > 0 && elapsed >= cfg.slow_grace {
            let floor = u128::from(cfg.min_bytes_per_sec) * elapsed.as_millis() / 1000;
            if u128::from(written) < floor {
                shared.stats.evicted_slow.fetch_add(1, Ordering::Relaxed);
                let _ = stream.shutdown(std::net::Shutdown::Both);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accept::returns_within_10s;
    use crate::client::{ClientConfig, WireClient};
    use crate::manifest::UnitManifest;
    use crate::plan::ClassPlan;

    fn tiny_plan() -> ServePlan {
        let units = vec![vec![b"prelude bytes".to_vec(), b"method one".to_vec()]];
        let manifest = UnitManifest::from_payloads(&units, 7);
        ServePlan {
            benchmark: "tiny".to_owned(),
            generation: 0,
            manifest_epoch: 7,
            manifest: manifest.encode(),
            classes: vec![ClassPlan {
                epoch: 1,
                units: units.into_iter().next().expect("one class"),
            }],
        }
    }

    /// A handler thread that panics while holding the conns lock must
    /// not wedge the rest of the server: stats(), new sessions, kill(),
    /// and drain() all recover the poisoned guard and keep going.
    #[test]
    fn poisoned_conns_lock_does_not_wedge_the_server() {
        let server = WireServer::bind("127.0.0.1:0", vec![tiny_plan()], ServerConfig::default())
            .expect("bind");
        // Deliberately panic while holding the registry lock, the way a
        // buggy connection handler would.
        let poisoner = Arc::clone(&server.shared);
        let panicked = std::thread::spawn(move || {
            let _guard = poisoner.conns.lock().expect("first lock");
            panic!("deliberate: poison the conns registry");
        })
        .join();
        assert!(panicked.is_err(), "the poisoner must have panicked");
        assert!(server.shared.conns.is_poisoned(), "lock must be poisoned");
        // A full session still registers, streams, and cleans up
        // through the poisoned lock.
        let report = WireClient::new(ClientConfig::new(server.local_addr(), "tiny"))
            .run()
            .expect("session survives a poisoned registry");
        assert!(report.complete);
        // The handler bumps `completed` after the client has already
        // seen Bye; give it a beat.
        let deadline = Instant::now() + Duration::from_secs(2);
        while server.stats().completed == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(server.stats().completed, 1);
        // kill() walks the registry; drain() force-closes through it.
        server.kill();
        assert!(server.is_killed());
        let drained = server.drain(Duration::from_secs(2));
        assert!(drained.clean, "nothing in flight: drain must be clean");
    }

    /// The kill_after_units crash hook dies at exactly the configured
    /// global unit boundary and says nothing — no Evict, no Bye.
    #[test]
    fn kill_after_units_crashes_at_the_boundary() {
        let config = ServerConfig {
            kill_after_units: Some(1),
            ..ServerConfig::default()
        };
        let server = WireServer::bind("127.0.0.1:0", vec![tiny_plan()], config).expect("bind");
        let mut client_config = ClientConfig::new(server.local_addr(), "tiny");
        client_config.max_attempts = 3;
        client_config.backoff_cap = Duration::from_millis(10);
        let err = WireClient::new(client_config)
            .run()
            .expect_err("a crashed single mirror cannot complete");
        assert!(matches!(err, crate::client::ClientError::Exhausted { .. }));
        assert!(server.is_killed());
        assert_eq!(server.stats().units_sent, 1, "died at the boundary");
        assert_eq!(server.stats().completed, 0);
        assert_eq!(server.stats().evicted_drain, 0, "no farewell frame");
    }

    /// Drain wakes an idle listener with no client ever connecting —
    /// on loopback and on the unspecified address, which is woken over
    /// loopback — and the wake connection is never counted. After the
    /// drain, a connect is refused or closed with no frame.
    #[test]
    fn drain_of_an_idle_server_returns_without_a_client() {
        for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
            let server =
                WireServer::bind(addr, vec![tiny_plan()], ServerConfig::default()).expect("bind");
            let shared = Arc::clone(&server.shared);
            let port = server.local_addr().port();
            let report = returns_within_10s("drain", move || server.drain(Duration::from_secs(5)));
            assert!(report.clean, "{addr}: {report:?}");
            assert_eq!(report.in_flight_at_drain, 0);
            assert_eq!(shared.stats.accepted.load(Ordering::Relaxed), 0, "{addr}");
            if let Ok(mut late) = TcpStream::connect(("127.0.0.1", port)) {
                let _ = late.set_read_timeout(Some(Duration::from_secs(5)));
                let mut buf = [0u8; 1];
                assert!(
                    !matches!(std::io::Read::read(&mut late, &mut buf), Ok(1)),
                    "{addr}: a stopped server sent a byte"
                );
            }
        }
    }

    /// Kill then drop wakes an idle listener the same way.
    #[test]
    fn kill_then_drop_of_an_idle_server_returns_without_a_client() {
        let server = WireServer::bind("127.0.0.1:0", vec![tiny_plan()], ServerConfig::default())
            .expect("bind");
        let shared = Arc::clone(&server.shared);
        returns_within_10s("kill + drop", move || {
            server.kill();
            drop(server);
        });
        assert_eq!(shared.stats.accepted.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn token_bucket_enforces_burst_then_refills() {
        let mut b = TokenBucket::new(2, 1000);
        assert!(b.try_take());
        assert!(b.try_take());
        // The burst is spent; an immediate third take fails (refill in
        // a few nanoseconds is far below one token at 1000/s).
        assert!(!b.try_take());
        std::thread::sleep(Duration::from_millis(5));
        assert!(b.try_take());
    }

    #[test]
    fn token_bucket_caps_at_burst() {
        let mut b = TokenBucket::new(1, 1000);
        std::thread::sleep(Duration::from_millis(5));
        // 5 ms at 1000 tokens/s would refill five tokens; the cap keeps
        // only the burst capacity of one available.
        assert!(b.try_take());
        assert!(!b.try_take());
    }
}
