//! The fault-tolerant transfer server.
//!
//! A small threaded accept/stream stack (std only): one thread per
//! admitted connection, which encodes each unit from the plan's bytes
//! into one buffer it reuses and writes every frame to the socket with
//! one write; the socket send buffer is the bounded queue. The
//! robustness ladder:
//!
//! * **Accept-side admission**: a token bucket
//!   ([`AdmissionController`]) gates new connections; when it is dry —
//!   or the concurrent-connection cap is reached — the connection gets
//!   a typed [`Frame::Retry`] with a suggested backoff instead of a
//!   silent RST, then closes.
//! * **Per-connection deadlines**: every socket gets read and write
//!   timeouts; a peer that stops participating cannot pin a thread.
//! * **Backpressure**: a stalled socket fills its kernel send buffer,
//!   and the next write blocks the connection's thread until the peer
//!   drains or the write deadline evicts it, so nothing buffers the
//!   whole benchmark in memory.
//! * **Slow-consumer eviction**: after every write the connection
//!   checks its delivered bytes per second against a floor, past a
//!   grace window; a client draining slower (a slow-loris keeping the
//!   socket barely alive) is evicted.
//! * **Graceful drain**: [`WireServer::drain`] stops admission, lets
//!   every in-flight connection finish its current unit, sends a
//!   resumable [`Frame::Evict`] at the unit boundary, and reports
//!   whether the fleet drained inside the deadline. Clients resume from
//!   their journal watermarks on reconnect.

use std::collections::HashMap;
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::accept::{accept_until_stopped, StopSignal};
use crate::frame::{encode_unit, read_frame, EvictReason, Frame};
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
    /// Per-socket write deadline for one frame.
    pub write_timeout: Duration,
    /// Slow-consumer floor: evict a connection draining below this many
    /// bytes per second once the grace window has passed. Zero disables
    /// the check.
    pub min_bytes_per_sec: u64,
    /// Grace window before the slow-consumer floor applies.
    pub slow_grace: Duration,
    /// Optional pacing delay between units (keeps connections in
    /// flight long enough for drain and chaos tests to observe them).
    /// Drain, kill and drop cut a pace short.
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
    /// accept loop; handlers honor it at the next unit boundary. Kill
    /// and a drain past its deadline close it, shutting down every
    /// admitted connection's socket.
    stop: StopSignal,
    killed: AtomicBool,
    /// Admitted connections whose handler has not yet exited.
    active: Mutex<usize>,
    /// Signalled by every handler as it exits; drain waits on it.
    handler_exited: Condvar,
}

impl Shared {
    /// A hard crash: tear down every live socket with no farewell
    /// frame. Unlike drain, nothing reaches a unit boundary first —
    /// this models `kill -9`, not graceful shutdown.
    fn kill(&self) {
        self.killed.store(true, Ordering::SeqCst);
        self.stop.close();
    }

    /// Locks the admitted-connection count, recovering from poison: it
    /// is a plain counter, which a panic cannot leave torn.
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
        let stop = StopSignal::new(&listener)?;
        let shared = Arc::new(Shared {
            plans: plans
                .into_iter()
                .map(|p| (p.benchmark.clone(), Arc::new(p)))
                .collect(),
            config,
            stats: StatsInner::default(),
            stop,
            killed: AtomicBool::new(false),
            active: Mutex::new(0),
            handler_exited: Condvar::new(),
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
        self.shared.stop.raise();
        let mut forced = self.shared.wait_for_handlers(started + deadline);
        if forced != 0 {
            self.shared.stop.close();
            forced = self.active_connections();
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
        self.shared.stop.raise();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Typed admission rejection: the token bucket is empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejected {
    /// Clock units from the rejected attempt until the bucket next
    /// refills: the earliest moment a retry can possibly succeed.
    pub retry_after: u64,
}

/// Token-bucket admission controller over new sessions, on any
/// monotone `u64` clock: the simulator's cycles, or the server's
/// nanoseconds since bind.
///
/// The bucket starts full at `burst` tokens and refills `rate` tokens
/// at every `period` boundary of the clock (capped at `burst`). Each
/// admission spends one token; an empty bucket yields a typed
/// [`Rejected`] telling the caller when the next refill lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionController {
    rate: u32,
    burst: u32,
    period: u64,
    tokens: u32,
    /// Index of the last refill period folded into `tokens`.
    refilled_through: u64,
}

impl AdmissionController {
    /// A controller refilling `rate` tokens per `period` clock units,
    /// with burst capacity `burst`. `rate`, `burst`, and `period` are
    /// clamped to at least 1 (a rate of zero would never admit anyone;
    /// "admission disabled" is a caller-level concept, not a controller
    /// state).
    #[must_use]
    pub fn new(rate: u32, burst: u32, period: u64) -> AdmissionController {
        let burst = burst.max(1);
        AdmissionController {
            rate: rate.max(1),
            burst,
            period: period.max(1),
            tokens: burst,
            refilled_through: 0,
        }
    }

    /// Try to admit a session at clock `now`. Calls must be monotone in
    /// `now`.
    ///
    /// # Errors
    ///
    /// [`Rejected`] when the bucket is empty, with `retry_after` set
    /// to the clock units remaining until the next refill boundary.
    pub fn admit(&mut self, now: u64) -> Result<(), Rejected> {
        let period = now / self.period;
        if period > self.refilled_through {
            let elapsed = period - self.refilled_through;
            let refill = u64::from(self.rate).saturating_mul(elapsed);
            self.tokens = u32::try_from(u64::from(self.tokens).saturating_add(refill))
                .unwrap_or(u32::MAX)
                .min(self.burst);
            self.refilled_through = period;
        }
        if self.tokens > 0 {
            self.tokens -= 1;
            Ok(())
        } else {
            Err(Rejected {
                // Saturating: near u64::MAX the next refill boundary
                // is unrepresentable, and a clamped (even zero)
                // retry_after is the sane answer rather than overflow.
                retry_after: period
                    .saturating_add(1)
                    .saturating_mul(self.period)
                    .saturating_sub(now),
            })
        }
    }
}

/// The server's admission bucket over nanoseconds: `accept_burst`
/// tokens, then one more every `1 / accept_refill_per_sec` seconds. A
/// zero refill rate is burst only — the period is the whole clock.
fn admission_bucket(cfg: &ServerConfig) -> AdmissionController {
    let period_ns = match cfg.accept_refill_per_sec {
        0 => u64::MAX,
        rate => 1_000_000_000 / u64::from(rate),
    };
    AdmissionController::new(1, cfg.accept_burst, period_ns)
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    // The admission clock: nanoseconds since the accept loop started,
    // which is bind.
    let clock = Instant::now();
    let mut bucket = admission_bucket(&shared.config);
    accept_until_stopped(listener, &shared.stop, |stream| {
        shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
        let admit = {
            let mut active = shared.lock_active();
            let now = u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let admit = *active < shared.config.max_connections && bucket.admit(now).is_ok();
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
        let conn_shared = Arc::clone(shared);
        Some(std::thread::spawn(move || {
            handle_connection(stream, &conn_shared);
            *conn_shared.lock_active() -= 1;
            conn_shared.handler_exited.notify_all();
        }))
    });
}

fn send_and_close(mut stream: TcpStream, frame: &Frame, write_timeout: Duration) {
    let _ = stream.set_write_timeout(Some(write_timeout));
    let _ = stream.write_all(&frame.encode());
}

/// Why the producer stopped streaming.
enum StreamEnd {
    Completed,
    Drained,
    /// The server was hard-killed or the connection evicted: say
    /// nothing more.
    Aborted,
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let cfg = &shared.config;
    if stream.set_read_timeout(Some(cfg.read_timeout)).is_err()
        || stream.set_write_timeout(Some(cfg.write_timeout)).is_err()
    {
        return;
    }
    // Register for kill and the drain deadline, which close the socket
    // to wake this thread from a blocked read or write.
    let Some(_registered) = shared.stop.register(&stream) else {
        return;
    };

    let hello = match read_frame(&mut &stream) {
        Ok(Frame::Hello {
            benchmark, resume, ..
        }) => shared
            .plans
            .get(&benchmark)
            .cloned()
            .map(|plan| (plan, resume)),
        _ => None,
    };
    let Some((plan, resume)) = hello else {
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

    // Each frame goes straight to the socket, whose send buffer and
    // write deadline are the bounded queue and its backpressure. A write
    // that hits its deadline or a breach of the byte-rate floor evicts
    // a slow consumer at this frame boundary; a reset or closed peer
    // just ends the connection.
    let started = Instant::now();
    let mut written = 0u64;
    let mut send = |buf: &[u8]| -> bool {
        if let Err(e) = (&stream).write_all(buf) {
            if matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock) {
                shared.stats.evicted_slow.fetch_add(1, Ordering::Relaxed);
            }
            return false;
        }
        written += buf.len() as u64;
        let elapsed = started.elapsed();
        if cfg.min_bytes_per_sec > 0 && elapsed >= cfg.slow_grace {
            let floor = u128::from(cfg.min_bytes_per_sec) * elapsed.as_millis() / 1000;
            if u128::from(written) < floor {
                shared.stats.evicted_slow.fetch_add(1, Ordering::Relaxed);
                let _ = stream.shutdown(std::net::Shutdown::Both);
                return false;
            }
        }
        true
    };
    let welcome = Frame::Welcome {
        generation: plan.generation,
        manifest_epoch: plan.manifest_epoch,
        manifest: plan.manifest.clone(),
        classes: adverts.clone(),
    };
    let end = if send(&welcome.encode()) {
        stream_units(&plan, &adverts, &mut send, shared)
    } else {
        StreamEnd::Aborted
    };

    match end {
        StreamEnd::Completed => {
            let bytes: u64 = adverts
                .iter()
                .zip(plan.classes.iter())
                .flat_map(|(a, c)| c.units.iter().skip(a.start as usize))
                .map(|u| u.len() as u64)
                .sum();
            let bye = Frame::Bye {
                classes: u32::try_from(plan.classes.len()).unwrap_or(u32::MAX),
                bytes,
            };
            if send(&bye.encode()) {
                shared.stats.completed.fetch_add(1, Ordering::Relaxed);
            }
        }
        StreamEnd::Drained => {
            shared.stats.evicted_drain.fetch_add(1, Ordering::Relaxed);
            send(
                &Frame::Evict {
                    reason: EvictReason::Drain,
                    resume_after_ms: cfg.resume_after_ms,
                }
                .encode(),
            );
        }
        StreamEnd::Aborted => {}
    }
}

/// Streams every unit the adverts leave to send, each encoded from the
/// plan's own bytes into one buffer that the whole connection reuses.
fn stream_units(
    plan: &ServePlan,
    adverts: &[crate::frame::ClassAdvert],
    send: &mut impl FnMut(&[u8]) -> bool,
    shared: &Shared,
) -> StreamEnd {
    let mut buf = Vec::new();
    for (ci, class) in plan.classes.iter().enumerate() {
        let start = adverts[ci].start as usize;
        for (ui, payload) in class.units.iter().enumerate().skip(start) {
            // A hard kill outranks everything and says nothing.
            if shared.killed.load(Ordering::SeqCst) {
                return StreamEnd::Aborted;
            }
            // Drain is only honored here, between units: an in-flight
            // unit always finishes, so the client's journal watermark
            // lands exactly on a unit boundary.
            if shared.stop.is_raised() {
                return StreamEnd::Drained;
            }
            encode_unit(
                &mut buf,
                u32::try_from(ci).unwrap_or(u32::MAX),
                u32::try_from(ui).unwrap_or(u32::MAX),
                payload,
            );
            if !send(&buf) {
                return StreamEnd::Aborted;
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
                return StreamEnd::Aborted;
            }
            if let Some(pace) = shared.config.pace_per_unit {
                // Drain, kill and drop raise the stop signal, which cuts
                // the pace short; the loop head then sees why.
                shared.stop.wait(pace);
            }
        }
    }
    StreamEnd::Completed
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::accept::returns_within_10s;
    use crate::client::{ClientConfig, WireClient};
    use crate::manifest::UnitManifest;
    use crate::plan::ClassPlan;

    /// A two-unit plan served as benchmark `tiny`.
    pub(crate) fn tiny_plan() -> ServePlan {
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
        let panicked = std::thread::spawn(move || poisoner.stop.poison_conns()).join();
        assert!(panicked.is_err(), "the poisoner must have panicked");
        assert!(server.shared.stop.conns_poisoned(), "lock must be poisoned");
        // A full session still registers, streams, and cleans up
        // through the poisoned lock.
        let report = WireClient::new(ClientConfig::new(server.local_addr(), "tiny"))
            .run()
            .expect("session survives a poisoned registry");
        assert!(report.complete);
        // The handler bumps `completed` after the client has already
        // seen Bye, then exits; wait for the exit.
        let left = server
            .shared
            .wait_for_handlers(Instant::now() + Duration::from_secs(2));
        assert_eq!(left, 0, "the handler exits after Bye");
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

    /// A server pacing `tiny` at 30 s a unit, and a client parked in
    /// that pace: it sent Hello and read the Welcome and the first unit.
    fn parked_in_a_30s_pace() -> (WireServer, TcpStream) {
        let config = ServerConfig {
            pace_per_unit: Some(Duration::from_secs(30)),
            ..ServerConfig::default()
        };
        let server = WireServer::bind("127.0.0.1:0", vec![tiny_plan()], config).expect("bind");
        let client = hello_tiny(&server);
        assert!(matches!(read_frame(&mut &client), Ok(Frame::Unit { .. })));
        (server, client)
    }

    /// Connects to `server`, asks for `tiny` and reads the Welcome.
    fn hello_tiny(server: &WireServer) -> TcpStream {
        let mut client = TcpStream::connect(server.local_addr()).expect("connect");
        let hello = Frame::Hello {
            version: crate::frame::PROTOCOL_VERSION,
            benchmark: "tiny".to_owned(),
            ordering: 0,
            resume: Vec::new(),
        };
        client.write_all(&hello.encode()).expect("hello");
        assert!(matches!(
            read_frame(&mut &client),
            Ok(Frame::Welcome { .. })
        ));
        client
    }

    /// Drain wakes a connection out of its pace and evicts it at the
    /// unit boundary, without waiting the pace out.
    #[test]
    fn drain_cuts_a_paced_session_short() {
        let (server, _client) = parked_in_a_30s_pace();
        let report = returns_within_10s("drain", move || server.drain(Duration::from_secs(5)));
        assert!(report.clean, "{report:?}");
        assert_eq!(report.in_flight_at_drain, 1);
    }

    /// Kill then drop wakes a paced connection the same way.
    #[test]
    fn kill_then_drop_cuts_a_paced_session_short() {
        let (server, _client) = parked_in_a_30s_pace();
        returns_within_10s("kill + drop", move || {
            server.kill();
            drop(server);
        });
    }

    /// A peer that hangs up mid-stream is gone, not slow: the failed
    /// write ends its connection without counting a slow eviction.
    #[test]
    fn a_peer_that_hangs_up_is_not_a_slow_consumer() {
        let config = ServerConfig {
            pace_per_unit: Some(Duration::from_millis(50)),
            ..ServerConfig::default()
        };
        let server = WireServer::bind("127.0.0.1:0", vec![tiny_plan()], config).expect("bind");
        drop(hello_tiny(&server));
        let left = server
            .shared
            .wait_for_handlers(Instant::now() + Duration::from_secs(10));
        assert_eq!(left, 0, "the handler exits once its peer is gone");
        assert_eq!(server.stats().completed, 0);
        assert_eq!(server.stats().evicted_slow, 0);
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

    fn bucket(burst: u32, refill_per_sec: u32) -> AdmissionController {
        admission_bucket(&ServerConfig {
            accept_burst: burst,
            accept_refill_per_sec: refill_per_sec,
            ..ServerConfig::default()
        })
    }

    #[test]
    fn token_bucket_enforces_burst_then_refills() {
        // 1000/s is one token per millisecond of the bind clock.
        let mut b = bucket(2, 1000);
        assert!(b.admit(0).is_ok());
        assert!(b.admit(0).is_ok());
        // The burst is spent, and a token is a whole millisecond away.
        assert_eq!(
            b.admit(400_000),
            Err(Rejected {
                retry_after: 600_000
            })
        );
        assert!(b.admit(1_000_000).is_ok());
        assert!(b.admit(1_000_000).is_err());
    }

    #[test]
    fn token_bucket_caps_at_burst() {
        let mut b = bucket(1, 1000);
        // 5 ms at 1000 tokens/s would refill five tokens; the cap keeps
        // only the burst capacity of one available.
        assert!(b.admit(5_000_000).is_ok());
        assert!(b.admit(5_000_000).is_err());
    }

    #[test]
    fn token_bucket_at_zero_refill_is_burst_only() {
        let mut b = bucket(2, 0);
        assert!(b.admit(0).is_ok());
        assert!(b.admit(1_000_000_000).is_ok());
        assert!(
            b.admit(3_600_000_000_000).is_err(),
            "an hour refills nothing"
        );
    }
}
