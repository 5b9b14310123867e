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

use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::JoinHandle;
use std::time::Duration;

/// A listener's stop flag plus the address that wakes its `accept()`.
pub(crate) struct StopSignal {
    raised: AtomicBool,
    wake: SocketAddr,
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

/// Runs `stop` on its own thread and fails the calling test if it has
/// not returned within 10 s — a missed wake leaves `accept()` blocked
/// forever, and a watchdog turns that hang into a failure.
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
        .unwrap_or_else(|_| panic!("{what} did not return within 10 s: accept() was never woken"))
}
