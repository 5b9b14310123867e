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
//! The connections a listener has handed off block too, in reads and in
//! writes against a full send buffer, with no poll timeout. They
//! register their sockets with the signal, and [`StopSignal::close`]
//! shuts every one down, which returns each blocked call at once.

use std::collections::HashMap;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// A listener's stop flag, the address that wakes its `accept()`, and
/// the live sockets of its connections.
pub(crate) struct StopSignal {
    raised: AtomicBool,
    wake: SocketAddr,
    conns: Mutex<Conns>,
}

#[derive(Default)]
struct Conns {
    next_id: u64,
    live: HashMap<u64, TcpStream>,
    /// Set by [`StopSignal::close`]: later registrations are refused.
    closed: bool,
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
            wake,
            conns: Mutex::default(),
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
            // Loopback completes the handshake without the accept loop's
            // help; the timeout only bounds a full backlog, in which case
            // `accept()` has connections to return and sees the flag anyway.
            let _ = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1));
        }
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
/// `on_accept`, which may return the handle of a thread it spawned.
/// On exit the listener is closed first, then every spawned thread
/// still running is joined.
pub(crate) fn accept_until_stopped(
    listener: TcpListener,
    stop: &StopSignal,
    mut on_accept: impl FnMut(TcpStream) -> Option<JoinHandle<()>>,
) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !stop.is_raised() {
        let Ok((stream, _peer)) = listener.accept() else {
            break;
        };
        if stop.is_raised() {
            break;
        }
        handlers.extend(on_accept(stream));
        handlers.retain(|h| !h.is_finished());
    }
    drop(listener);
    for h in handlers {
        let _ = h.join();
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
