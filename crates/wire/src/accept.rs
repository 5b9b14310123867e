//! The one accept loop behind every listener in this crate.
//!
//! [`WireServer`](crate::WireServer), [`ChaosProxy`](crate::ChaosProxy)
//! and the fleet's slot proxies all block in `accept()`: a connection is
//! handed off the moment the kernel completes its handshake, with no
//! poll interval in front of it. Stopping is a [`StopSignal`]: raise the
//! flag, then self-connect once so the blocked `accept()` returns and
//! sees it. That wake connection — and any client that races the stop —
//! is dropped before the listener's `on_accept` runs, so no stats
//! counter ever sees it; once the loop exits the listener closes and
//! later connects are refused.
//!
//! Each accepted connection's handler — the job `on_accept` returns —
//! runs on a handler thread the loop reuses. A handler that finishes
//! its connection parks until the loop hands it the next job or the
//! listener stops, whichever comes first. A job goes only to a handler
//! parked at that moment; when none is, the loop spawns a new one, so
//! no connection ever queues behind a busy handler. The parked handlers
//! are therefore at most the peak number of connections in flight at
//! once (for the server, at most `max_connections`), and none exists
//! before the first connection. They wait on the signal's own condition
//! variable with no timeout, and raising the signal wakes them; the
//! loop joins every handler on its way out.
//!
//! The connections a listener has handed off block too, in reads and in
//! writes against a full send buffer, with no poll timeout. They
//! register their sockets with the signal, and [`StopSignal::close`]
//! shuts every one down, which returns each blocked call at once.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// One accepted connection's work, run on a handler thread.
pub(crate) trait Handler: Send {
    /// Handles the connection; called once.
    fn run(&mut self);
}

/// A closure runs once; what it captures is dropped as it returns.
impl<F: FnOnce() + Send> Handler for Option<F> {
    fn run(&mut self) {
        if let Some(f) = self.take() {
            f();
        }
    }
}

/// A handler thread's job. The thread drops it only once it has parked
/// again, so what a job holds past `run` (the server's admission slot)
/// is released when that thread can already take the next connection.
pub(crate) type Job = Box<dyn Handler>;

/// A listener's stop flag, the address that wakes its `accept()`, the
/// live sockets of its connections and its parked handler threads.
pub(crate) struct StopSignal {
    raised: AtomicBool,
    /// Notified under the `conns` lock when the flag is raised, so a
    /// [`StopSignal::wait`] cannot miss it.
    raised_cv: Condvar,
    /// Parked handlers wait on it under the `conns` lock: notified once
    /// per job handed off, and for all of them when the flag is raised.
    handoff: Condvar,
    wake: SocketAddr,
    conns: Mutex<Conns>,
    /// Handler threads the accept loop has spawned.
    spawned: AtomicU64,
}

#[derive(Default)]
struct Conns {
    next_id: u64,
    live: HashMap<u64, TcpStream>,
    /// Set by [`StopSignal::close`]: later registrations are refused.
    closed: bool,
    /// Handlers waiting in [`StopSignal::park`] that no queued job is
    /// meant for: the waiting handlers minus `jobs.len()`.
    parked: usize,
    /// Jobs handed to parked handlers and not yet taken.
    jobs: VecDeque<Job>,
}

/// A registered socket; dropping it takes the socket off the registry,
/// so the registry never outgrows the live connection set.
pub(crate) struct Registered<'a> {
    signal: &'a StopSignal,
    id: u64,
}

impl StopSignal {
    /// A lowered signal for `listener`. A listener bound to an
    /// unspecified IP (`0.0.0.0`, `::`) is woken over loopback.
    pub(crate) fn new(listener: &TcpListener) -> io::Result<StopSignal> {
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        Ok(StopSignal {
            raised: AtomicBool::new(false),
            raised_cv: Condvar::new(),
            handoff: Condvar::new(),
            wake,
            conns: Mutex::default(),
            spawned: AtomicU64::new(0),
        })
    }

    /// True once [`StopSignal::raise`] has run.
    pub(crate) fn is_raised(&self) -> bool {
        self.raised.load(Ordering::SeqCst)
    }

    /// Raises the flag and, the first time only, wakes the accept loop.
    /// Safe from any thread, including a connection handler of the
    /// listener being stopped.
    pub(crate) fn raise(&self) {
        if !self.raised.swap(true, Ordering::SeqCst) {
            {
                let _conns = self.lock_conns();
                self.raised_cv.notify_all();
                self.handoff.notify_all();
            }
            // Loopback completes the handshake without the accept loop's
            // help; the timeout only bounds a full backlog, in which case
            // `accept()` has connections to return and sees the flag anyway.
            let _ = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1));
        }
    }

    /// Sleeps until the flag is raised or `timeout` passes.
    pub(crate) fn wait(&self, timeout: Duration) {
        let conns = self.lock_conns();
        let _ = self
            .raised_cv
            .wait_timeout_while(conns, timeout, |_| !self.is_raised());
    }

    /// Raises the flag, shuts down every registered socket — every read
    /// or write blocked on one returns — and refuses later registrations.
    pub(crate) fn close(&self) {
        self.raise();
        let mut conns = self.lock_conns();
        conns.closed = true;
        for stream in conns.live.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Registers `stream` for [`StopSignal::close`]. `None` — the caller
    /// must drop the connection — once the signal is closed, so a
    /// connection that races a close cannot escape it, or when the
    /// socket cannot be cloned.
    pub(crate) fn register(&self, stream: &TcpStream) -> Option<Registered<'_>> {
        let clone = stream.try_clone().ok()?;
        let mut conns = self.lock_conns();
        if conns.closed {
            return None;
        }
        let id = conns.next_id;
        conns.next_id += 1;
        conns.live.insert(id, clone);
        Some(Registered { signal: self, id })
    }

    /// Queues `job` for a parked handler and wakes one, or gives `job`
    /// back when no handler is parked.
    fn hand_off(&self, job: Job) -> Option<Job> {
        let mut conns = self.lock_conns();
        if conns.parked == 0 {
            return Some(job);
        }
        conns.parked -= 1;
        conns.jobs.push_back(job);
        drop(conns);
        self.handoff.notify_one();
        None
    }

    /// Parks the calling handler, then drops its finished job, and
    /// waits until a job is handed to it — `Some` — or, with no job
    /// queued, the flag is raised — `None`. A queued job is taken even
    /// after a stop, so no connection the loop handed off is left
    /// unhandled.
    fn park(&self, done: Job) -> Option<Job> {
        self.lock_conns().parked += 1;
        drop(done);
        let mut conns = self.lock_conns();
        loop {
            if let Some(job) = conns.jobs.pop_front() {
                return Some(job);
            }
            if self.is_raised() {
                conns.parked -= 1;
                return None;
            }
            conns = self
                .handoff
                .wait(conns)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Handler threads the accept loop has spawned so far.
    #[cfg(test)]
    pub(crate) fn handlers_spawned(&self) -> u64 {
        self.spawned.load(Ordering::SeqCst)
    }

    /// Locks the registry, recovering from poison: a connection thread
    /// that panicked while holding the lock must not wedge a stop. Each
    /// update (a counter bump, a `HashMap` insert or remove, a flag)
    /// leaves the registry valid, so the poisoned guard's data is safe
    /// to keep using.
    fn lock_conns(&self) -> MutexGuard<'_, Conns> {
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Panics while holding the registry lock, poisoning it the way a
    /// buggy connection thread would.
    #[cfg(test)]
    pub(crate) fn poison_conns(&self) {
        let _guard = self.lock_conns();
        panic!("deliberate: poison the conns registry");
    }

    /// True once a thread panicked while holding the registry lock.
    #[cfg(test)]
    pub(crate) fn conns_poisoned(&self) -> bool {
        self.conns.is_poisoned()
    }
}

impl Drop for Registered<'_> {
    fn drop(&mut self) {
        self.signal.lock_conns().live.remove(&self.id);
    }
}

/// Accepts until `stop` is raised, handing each connection to
/// `on_accept`, which may return a job to run it. A parked handler
/// thread takes the job; with none parked, a new handler is spawned for
/// it. On exit the listener is closed first, then every handler is
/// joined: each finishes its job, and the raised flag ends its park. A
/// loop that ends on an `accept()` error waits in that join until its
/// owner raises the flag, as every owner does on stop and on drop.
pub(crate) fn accept_until_stopped(
    listener: TcpListener,
    stop: &Arc<StopSignal>,
    mut on_accept: impl FnMut(TcpStream) -> Option<Job>,
) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !stop.is_raised() {
        let Ok((stream, _peer)) = listener.accept() else {
            break;
        };
        if stop.is_raised() {
            break;
        }
        let Some(job) = on_accept(stream).and_then(|job| stop.hand_off(job)) else {
            continue;
        };
        // A handler that panicked is gone; forget its handle.
        handlers.retain(|h| !h.is_finished());
        stop.spawned.fetch_add(1, Ordering::SeqCst);
        let signal = Arc::clone(stop);
        handlers.push(std::thread::spawn(move || run_handler(&signal, job)));
    }
    drop(listener);
    for h in handlers {
        let _ = h.join();
    }
}

/// A handler thread: runs `job`, then each job handed to it while it is
/// parked, until the listener stops. A panicking job ends the thread,
/// which was not parked and so is never handed another; the job is
/// dropped as the thread unwinds.
fn run_handler(signal: &StopSignal, mut job: Job) {
    loop {
        job.run();
        match signal.park(job) {
            Some(next) => job = next,
            None => return,
        }
    }
}

/// The raw byte pump behind both proxies: copies `from` into `to` until
/// either side ends or fails, then shuts both sockets down so the pump
/// running the other way wakes too.
pub(crate) fn pump(mut from: &TcpStream, mut to: &TcpStream) {
    let _ = io::copy(&mut from, &mut to);
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

/// Runs `stop` on its own thread and fails the calling test if it has
/// not returned within 10 s — a missed wake leaves `accept()` or a
/// connection's read blocked forever, and a watchdog turns that hang
/// into a failure.
#[cfg(test)]
pub(crate) fn returns_within_10s<T: Send + 'static>(
    what: &str,
    stop: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(stop());
    });
    rx.recv_timeout(Duration::from_secs(10))
        .unwrap_or_else(|_| {
            panic!("{what} did not return within 10 s: a blocked call was never woken")
        })
}
