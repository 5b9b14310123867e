//! The mirror-fleet supervisor: crash plans, restarts, rollovers.
//!
//! A fleet is N mirrors serving the same benchmark layouts behind N
//! **stable slot addresses**. Each slot is a tiny byte-level proxy: a
//! listener that never moves, forwarding to whichever backend
//! incarnation of that mirror is currently alive. The indirection is
//! what makes *restart* honest on a real TCP stack: a killed listener's
//! port lingers in `TIME_WAIT`, so rebinding the same port immediately
//! is not portably possible with std sockets — instead the backend
//! reincarnates on a fresh ephemeral port and the slot repoints.
//! Clients keep one stable mirror list for the whole session; while a
//! mirror is down its slot accepts and immediately closes, which a
//! client experiences as an ordinary stream fault and fails over from.
//!
//! The supervisor's loop does three jobs, all seeded and deterministic
//! in schedule (wall-clock interleaving with clients is real
//! concurrency, which is the point):
//!
//! * **Crash plan**: each mirror draws its kill times from its own
//!   `SplitMix64` stream (`seed ^ mirror · φ`, the workspace's
//!   per-lane splitting convention) — a hard [`WireServer::kill`] at
//!   the drawn moment, no farewell frames, every socket torn down.
//! * **Restart**: after `restart_delay`, the mirror reincarnates from
//!   a freshly rebuilt [`ServePlan`] (the factory re-derives it, as a
//!   restarted origin would), and clients resume against it from their
//!   journal watermarks via ordinary negotiation.
//! * **Rollover**: on [`FleetSupervisor::rollover`] the fleet
//!   generation bumps and every mirror is *gracefully drained* —
//!   in-flight connections get an `Evict` fence at a unit boundary —
//!   then restarted serving the new generation's plans. Clients that
//!   pinned the old generation see the new one outrank their pin,
//!   discard the old bytes, and refetch under the new epoch.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::accept::{accept_until_stopped, pump, Job, StopSignal};
use crate::plan::ServePlan;
use crate::server::{ServerConfig, ServerStats, WireServer};
use crate::SplitMix64;

/// A seeded per-mirror kill schedule.
#[derive(Debug, Clone)]
pub struct CrashPlan {
    /// Seed for the kill-time draws; each mirror splits its own stream
    /// from this.
    pub seed: u64,
    /// Hard kills each mirror suffers over the run.
    pub kills_per_mirror: u32,
    /// Minimum uptime before a scheduled kill fires.
    pub min_uptime: Duration,
    /// Uniform extra uptime drawn on top of the minimum.
    pub uptime_spread: Duration,
}

/// Tuning for a [`FleetSupervisor`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Mirrors in the fleet.
    pub mirrors: usize,
    /// Per-backend server tuning (shared by every incarnation).
    pub server: ServerConfig,
    /// Optional seeded kill/restart schedule.
    pub crash: Option<CrashPlan>,
    /// Downtime between a kill and the reincarnation.
    pub restart_delay: Duration,
    /// Interval between supervisor health probes (TCP connect) of each
    /// live backend.
    pub health_interval: Duration,
    /// Drain deadline enforced on every graceful shutdown (rollover
    /// fences and final shutdown); connections past it are
    /// force-closed and the drain reported unclean.
    pub drain_deadline: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            mirrors: 3,
            server: ServerConfig::default(),
            crash: None,
            restart_delay: Duration::from_millis(50),
            health_interval: Duration::from_millis(250),
            drain_deadline: Duration::from_secs(5),
        }
    }
}

/// One mirror's lifetime accounting, across every incarnation.
#[derive(Debug, Clone, Default)]
pub struct MirrorStatus {
    /// Backend incarnations started (1 for a mirror that never died).
    pub starts: u32,
    /// Hard kills delivered by the crash plan.
    pub kills: u32,
    /// Supervisor health probes made.
    pub health_probes: u64,
    /// Probes that failed to connect.
    pub health_failures: u64,
    /// Server stats accumulated across every incarnation.
    pub stats: ServerStats,
}

/// What the fleet did over its lifetime.
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    /// Per-mirror accounting, in slot order.
    pub mirrors: Vec<MirrorStatus>,
    /// Live epoch rollovers driven.
    pub rollovers: u32,
    /// Graceful drains (rollover fences and shutdown) that finished
    /// inside the deadline.
    pub clean_drains: u32,
    /// Drains that had to force-close connections at the deadline.
    pub forced_drains: u32,
}

impl FleetReport {
    /// Total hard kills across the fleet.
    #[must_use]
    pub fn total_kills(&self) -> u32 {
        self.mirrors.iter().map(|m| m.kills).sum()
    }

    /// Total backend incarnations across the fleet.
    #[must_use]
    pub fn total_starts(&self) -> u32 {
        self.mirrors.iter().map(|m| m.starts).sum()
    }
}

/// Builds the plans one generation of the fleet serves. Called again on
/// every restart and rollover — a reincarnated origin rebuilds its
/// `ServePlan` rather than trusting leftover state. The supervisor
/// stamps the generation onto every returned plan.
pub type PlanFactory = Arc<dyn Fn(u32) -> Vec<ServePlan> + Send + Sync>;

type SharedAddr = Arc<Mutex<Option<SocketAddr>>>;

fn set_backend_addr(shared: &SharedAddr, addr: Option<SocketAddr>) {
    *shared.lock().unwrap_or_else(PoisonError::into_inner) = addr;
}

fn get_backend_addr(shared: &SharedAddr) -> Option<SocketAddr> {
    *shared.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Fleet-wide kill and start counts, published by the control loop
/// before each wait, for a caller blocked in
/// [`FleetSupervisor::wait_for`].
#[derive(Default)]
struct Progress {
    /// Crash-plan kills, then backend starts, summed over the mirrors.
    counts: Mutex<(u32, u32)>,
    changed: Condvar,
}

impl Progress {
    fn publish(&self, slots: &[Slot]) {
        let counts = slots.iter().fold((0, 0), |(kills, starts), slot| {
            (kills + slot.status.kills, starts + slot.status.starts)
        });
        *self.counts.lock().unwrap_or_else(PoisonError::into_inner) = counts;
        self.changed.notify_all();
    }
}

/// One mirror slot, owned by the control thread.
struct Slot {
    backend_addr: SharedAddr,
    backend: Option<WireServer>,
    rng: SplitMix64,
    kills_left: u32,
    next_kill: Option<Instant>,
    restart_at: Option<Instant>,
    last_probe: Instant,
    status: MirrorStatus,
}

impl Slot {
    /// The next instant the control loop must act on this slot: the
    /// scheduled kill or the next health probe while the backend is up,
    /// the restart while it is down (`None` there means right away).
    fn next_deadline(&self, health_interval: Duration) -> Instant {
        if self.backend.is_some() {
            let probe = self.last_probe + health_interval;
            self.next_kill.map_or(probe, |kill| kill.min(probe))
        } else {
            self.restart_at.unwrap_or_else(Instant::now)
        }
    }
}

/// The supervisor: spawn with [`FleetSupervisor::launch`], point
/// clients at [`FleetSupervisor::addrs`], drive rollovers, shut down
/// for the report.
pub struct FleetSupervisor {
    addrs: Vec<SocketAddr>,
    /// Rollover requests to the control loop, each carrying the sender
    /// the loop signals once the new generation is stored. Dropping it
    /// is the shutdown signal.
    rollover_tx: Option<Sender<Sender<()>>>,
    generation: Arc<AtomicU32>,
    progress: Arc<Progress>,
    control: Option<JoinHandle<FleetReport>>,
}

impl FleetSupervisor {
    /// Binds every slot listener, starts every mirror's first backend
    /// incarnation at generation 0, and spawns the control loop. When
    /// this returns, every slot address accepts and serves.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures for the slot listeners; a
    /// backend that fails its first bind is retried by the control
    /// loop like any other restart.
    pub fn launch(config: FleetConfig, factory: PlanFactory) -> std::io::Result<FleetSupervisor> {
        let (rollover_tx, rollover_rx) = mpsc::channel();
        let generation = Arc::new(AtomicU32::new(0));
        let mut addrs = Vec::with_capacity(config.mirrors);
        let mut slots = Vec::with_capacity(config.mirrors);
        let mut listeners = Vec::with_capacity(config.mirrors);
        for mirror in 0..config.mirrors {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            addrs.push(listener.local_addr()?);
            let stop = Arc::new(StopSignal::new(&listener)?);
            let backend_addr: SharedAddr = Arc::new(Mutex::new(None));
            listeners.push((listener, stop, Arc::clone(&backend_addr)));
            let seed = config.crash.as_ref().map_or(0, |c| {
                c.seed ^ (mirror as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            });
            let mut slot = Slot {
                backend_addr,
                backend: None,
                rng: SplitMix64(seed),
                kills_left: config.crash.as_ref().map_or(0, |c| c.kills_per_mirror),
                next_kill: None,
                restart_at: None,
                last_probe: Instant::now(),
                status: MirrorStatus::default(),
            };
            start_backend(&mut slot, 0, &factory, &config);
            slots.push(slot);
        }
        let progress = Arc::new(Progress::default());
        let control = {
            let generation = Arc::clone(&generation);
            let progress = Arc::clone(&progress);
            std::thread::spawn(move || {
                let slot_threads: Vec<(Arc<StopSignal>, JoinHandle<()>)> = listeners
                    .into_iter()
                    .map(|(listener, stop, backend_addr)| {
                        let accept_stop = Arc::clone(&stop);
                        let thread = std::thread::spawn(move || {
                            slot_accept_loop(listener, &backend_addr, &accept_stop);
                        });
                        (stop, thread)
                    })
                    .collect();
                let report = control_loop(
                    slots,
                    &factory,
                    &config,
                    &rollover_rx,
                    &generation,
                    &progress,
                );
                for (stop, _) in &slot_threads {
                    stop.close();
                }
                for (_, t) in slot_threads {
                    let _ = t.join();
                }
                report
            })
        };
        Ok(FleetSupervisor {
            addrs,
            rollover_tx: Some(rollover_tx),
            generation,
            progress,
            control: Some(control),
        })
    }

    /// The stable slot addresses clients should use as their mirror
    /// list, in slot order.
    #[must_use]
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// The fleet's current restructure generation.
    #[must_use]
    pub fn generation(&self) -> u32 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Blocks until the crash plan has killed `kills` backends and the
    /// fleet has started `starts` (first starts and restarts alike), or
    /// until `timeout` passes; returns whether both counts were
    /// reached. The control loop wakes the wait whenever it has acted.
    pub fn wait_for(&self, kills: u32, starts: u32, timeout: Duration) -> bool {
        let until = Instant::now() + timeout;
        let mut counts = self
            .progress
            .counts
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if counts.0 >= kills && counts.1 >= starts {
                return true;
            }
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            counts = self
                .progress
                .changed
                .wait_timeout(counts, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Drives a live epoch rollover: bumps the generation, drains every
    /// mirror behind an `Evict` fence, and restarts them serving the
    /// new generation's plans. Blocks until the control loop signals
    /// that the new generation is stored — from then on no backend
    /// serves the old one, and a caller that shuts the fleet down
    /// cannot observe a report with `rollovers == 0`. Returns early if
    /// the control loop has stopped: its end drops the signal.
    pub fn rollover(&self) {
        let (done_tx, done_rx) = mpsc::channel();
        if let Some(Ok(())) = self.rollover_tx.as_ref().map(|tx| tx.send(done_tx)) {
            let _ = done_rx.recv();
        }
    }

    /// Shuts the fleet down: drains every live backend against the
    /// configured deadline, stops the slots, and returns the
    /// accumulated report.
    #[must_use]
    pub fn shutdown(mut self) -> FleetReport {
        self.stop()
    }

    /// Hangs up the control channel, which ends the control loop, and
    /// joins it for the report.
    fn stop(&mut self) -> FleetReport {
        self.rollover_tx = None;
        self.control
            .take()
            .and_then(|t| t.join().ok())
            .unwrap_or_default()
    }
}

impl Drop for FleetSupervisor {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

fn start_backend(slot: &mut Slot, generation: u32, factory: &PlanFactory, config: &FleetConfig) {
    let mut plans = factory(generation);
    for plan in &mut plans {
        plan.generation = generation;
    }
    match WireServer::bind("127.0.0.1:0", plans, config.server.clone()) {
        Ok(server) => {
            set_backend_addr(&slot.backend_addr, Some(server.local_addr()));
            slot.backend = Some(server);
            slot.restart_at = None;
            slot.status.starts += 1;
            slot.next_kill = if slot.kills_left > 0 {
                let crash = config.crash.as_ref().expect("kills imply a crash plan");
                let spread_ms = u64::try_from(crash.uptime_spread.as_millis()).unwrap_or(u64::MAX);
                let extra = Duration::from_millis(slot.rng.below(spread_ms.max(1)));
                Some(Instant::now() + crash.min_uptime + extra)
            } else {
                None
            };
        }
        Err(_) => {
            // Ephemeral-port bind failures are transient; retry on the
            // normal restart cadence.
            slot.restart_at = Some(Instant::now() + config.restart_delay);
        }
    }
}

/// Takes a slot's backend down (hard or graceful), folding its stats
/// into the slot's accounting. Returns the server for the caller to
/// kill or drain.
fn take_backend(slot: &mut Slot) -> Option<WireServer> {
    let server = slot.backend.take()?;
    set_backend_addr(&slot.backend_addr, None);
    accumulate(&mut slot.status.stats, server.stats());
    slot.next_kill = None;
    Some(server)
}

fn accumulate(into: &mut ServerStats, s: ServerStats) {
    into.accepted += s.accepted;
    into.admitted += s.admitted;
    into.retried += s.retried;
    into.resumed += s.resumed;
    into.evicted_slow += s.evicted_slow;
    into.evicted_drain += s.evicted_drain;
    into.incompatible += s.incompatible;
    into.completed += s.completed;
    into.units_sent += s.units_sent;
    into.bytes_sent += s.bytes_sent;
}

fn control_loop(
    mut slots: Vec<Slot>,
    factory: &PlanFactory,
    config: &FleetConfig,
    rollover: &Receiver<Sender<()>>,
    generation: &AtomicU32,
    progress: &Progress,
) -> FleetReport {
    let mut report = FleetReport::default();
    loop {
        progress.publish(&slots);
        // Sleep until the earliest kill, restart or probe any slot is
        // due, unless a rollover request or the hang-up comes first.
        let due = slots
            .iter()
            .map(|slot| slot.next_deadline(config.health_interval))
            .min();
        let request = match due {
            Some(due) => rollover.recv_timeout(due.saturating_duration_since(Instant::now())),
            None => rollover.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        match request {
            Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {}
            Ok(done) => {
                // The epoch fence: drain (Evict at unit boundaries),
                // then reincarnate under the next generation. Mirrors
                // fence one after another; clients that race the fence
                // see a stale generation from not-yet-rolled mirrors and
                // simply back off until the fence reaches them.
                let next_gen = generation.load(Ordering::SeqCst) + 1;
                report.rollovers += 1;
                for slot in &mut slots {
                    if let Some(server) = take_backend(slot) {
                        let drained = server.drain(config.drain_deadline);
                        if drained.clean {
                            report.clean_drains += 1;
                        } else {
                            report.forced_drains += 1;
                        }
                    }
                    start_backend(slot, next_gen, factory, config);
                }
                generation.store(next_gen, Ordering::SeqCst);
                let _ = done.send(());
                continue;
            }
        }
        let now = Instant::now();
        let current_gen = generation.load(Ordering::SeqCst);
        for slot in &mut slots {
            if slot.backend.is_some() && slot.next_kill.is_some_and(|t| now >= t) {
                // The crash plan fires: no fence, no farewell — the
                // mirror is simply gone mid-stream.
                if let Some(server) = take_backend(slot) {
                    server.kill();
                    drop(server);
                }
                slot.status.kills += 1;
                slot.kills_left -= 1;
                slot.restart_at = Some(now + config.restart_delay);
                continue;
            }
            match &slot.backend {
                None => {
                    if slot.restart_at.is_none_or(|t| now >= t) {
                        start_backend(slot, current_gen, factory, config);
                    }
                }
                Some(server) => {
                    if now.duration_since(slot.last_probe) >= config.health_interval {
                        slot.last_probe = now;
                        slot.status.health_probes += 1;
                        let probe = TcpStream::connect_timeout(
                            &server.local_addr(),
                            Duration::from_millis(250),
                        );
                        match probe {
                            Ok(stream) => {
                                let _ = stream.shutdown(std::net::Shutdown::Both);
                            }
                            Err(_) => slot.status.health_failures += 1,
                        }
                    }
                }
            }
        }
    }
    // Final shutdown: drain everything still alive against the
    // deadline, so in-flight sessions end on a resumable fence.
    for slot in &mut slots {
        if let Some(server) = take_backend(slot) {
            let drained = server.drain(config.drain_deadline);
            if drained.clean {
                report.clean_drains += 1;
            } else {
                report.forced_drains += 1;
            }
        }
    }
    report.mirrors = slots.into_iter().map(|s| s.status).collect();
    report
}

/// The slot proxy's accept loop: forward to the live backend, or
/// accept-and-close while the mirror is down (the client sees a stream
/// fault and fails over — exactly what a crashed process looks like
/// from outside).
fn slot_accept_loop(listener: TcpListener, backend_addr: &SharedAddr, stop: &Arc<StopSignal>) {
    accept_until_stopped(listener, stop, |client| {
        // While the mirror is down, `client` drops here: accept-and-close.
        let target = get_backend_addr(backend_addr)?;
        let server = TcpStream::connect_timeout(&target, Duration::from_millis(500)).ok()?;
        let stop = Arc::clone(stop);
        Some(Box::new(Some(move || pump_pair(client, server, &stop))) as Job)
    });
}

/// Bidirectional byte pump between one client and one backend socket.
/// Pure transport — no framing, no inspection; the slot must be
/// invisible when the backend is healthy. Both sockets are registered,
/// so the slot's stop wakes both directions.
fn pump_pair(client: TcpStream, server: TcpStream, stop: &StopSignal) {
    let (Some(_client_reg), Some(_server_reg)) = (stop.register(&client), stop.register(&server))
    else {
        return;
    };
    std::thread::scope(|s| {
        s.spawn(|| pump(&server, &client));
        pump(&client, &server);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, Frame};
    use std::collections::HashSet;
    use std::io::Write;

    #[test]
    fn per_mirror_kill_streams_are_deterministic_and_distinct() {
        let seed = 42u64;
        let draws = |mirror: u64| {
            let mut rng = SplitMix64(seed ^ mirror.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            (0..8).map(|_| rng.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(draws(0), draws(0), "same mirror, same schedule");
        assert_ne!(draws(0), draws(1), "mirrors draw independent schedules");
        let mut distinct = HashSet::new();
        for m in 0..8u64 {
            distinct.insert(draws(m));
        }
        assert_eq!(distinct.len(), 8);
    }

    /// Shutdown wakes every idle slot listener and backend with no
    /// client ever connecting; no wake connection is counted.
    #[test]
    fn shutdown_of_an_idle_fleet_returns_without_a_client() {
        let config = FleetConfig {
            mirrors: 2,
            // No health probe may touch a backend during the test.
            health_interval: Duration::from_secs(3600),
            ..FleetConfig::default()
        };
        let fleet = FleetSupervisor::launch(config, Arc::new(|_| Vec::new())).expect("launch");
        let report = crate::accept::returns_within_10s("FleetSupervisor::shutdown", move || {
            fleet.shutdown()
        });
        assert_eq!(report.mirrors.len(), 2);
        for mirror in &report.mirrors {
            assert_eq!(mirror.starts, 1);
            assert_eq!(mirror.stats.accepted, 0, "{mirror:?}");
        }
        assert_eq!(report.clean_drains, 2);
    }

    /// Shutdown returns while a client holds a slot connection open
    /// mid-session without reading: the backend drains it cleanly and
    /// the slot's pumps are closed, with no poll.
    #[test]
    fn shutdown_with_an_open_idle_connection_returns() {
        let config = FleetConfig {
            mirrors: 1,
            server: ServerConfig {
                pace_per_unit: Some(Duration::from_millis(100)),
                ..ServerConfig::default()
            },
            ..FleetConfig::default()
        };
        let factory: PlanFactory = Arc::new(|_| vec![crate::server::tests::tiny_plan()]);
        let fleet = FleetSupervisor::launch(config, factory).expect("launch");
        let mut client = TcpStream::connect(fleet.addrs()[0]).expect("connect");
        let hello = Frame::Hello {
            version: crate::frame::PROTOCOL_VERSION,
            benchmark: "tiny".to_owned(),
            ordering: 0,
            resume: Vec::new(),
        };
        client.write_all(&hello.encode()).expect("hello");
        // The Welcome proves the slot is pumping to a live backend.
        let welcome = read_frame(&mut client).expect("welcome");
        assert!(matches!(welcome, Frame::Welcome { .. }), "{welcome:?}");
        let report = crate::accept::returns_within_10s("FleetSupervisor::shutdown", move || {
            fleet.shutdown()
        });
        assert_eq!(report.clean_drains, 1, "drained inside the deadline");
    }

    #[test]
    fn stats_accumulate_across_incarnations() {
        let mut total = ServerStats::default();
        let incarnation = ServerStats {
            accepted: 3,
            admitted: 2,
            units_sent: 10,
            bytes_sent: 1000,
            completed: 1,
            ..ServerStats::default()
        };
        accumulate(&mut total, incarnation);
        accumulate(&mut total, incarnation);
        assert_eq!(total.accepted, 6);
        assert_eq!(total.units_sent, 20);
        assert_eq!(total.bytes_sent, 2000);
        assert_eq!(total.completed, 2);
    }
}
