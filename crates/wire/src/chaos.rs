//! The socket-level chaos proxy.
//!
//! Sits between client and server on loopback and injects faults on the
//! server→client stream **at frame boundaries** (it parses just enough
//! framing to know where one frame ends), while forwarding the
//! client→server stream untouched. The fault vocabulary is the
//! simulator's, knob for knob, mapped to its socket-level analogue:
//!
//! | knob        | simulated effect      | wire effect                      |
//! |-------------|-----------------------|----------------------------------|
//! | `loss`      | unit lost in flight   | frame cut mid-bytes, then abort  |
//! | `drop`      | connection dropped    | both sockets torn down           |
//! | `corrupt`   | unit payload flipped  | one byte flipped in frame body   |
//! | `droop`     | bandwidth sag         | stall before forwarding          |
//! | `semantic`  | plausible wrong bytes | adjacent frames swapped          |
//!
//! A seventh, deliberately *not* part of the shared knob vocabulary
//! (the simulator has no transport CRC to defeat): `forge`
//! ([`ChaosConfig::forge_pm`]) rewrites a Unit frame's payload and
//! re-seals the outer CRC, modeling a Byzantine mirror rather than a
//! noisy link. A `corrupt` fault is caught by the frame CRC; a `forge`
//! can only be caught by the client's pinned NSUM manifest digests.
//!
//! Fault draws are deterministic per accepted connection: connection
//! `n` uses `SplitMix64(seed ^ hash(n))`, so a failing run replays
//! exactly from its seed.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::accept::{accept_until_stopped, pump, Job, StopSignal};
use crate::config::FaultKnobs;
use crate::crc::crc32;
use crate::frame::{read_raw_frame, FRAME_OVERHEAD, KIND_UNIT};
use crate::SplitMix64;

/// Tuning for a [`ChaosProxy`].
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// The six shared fault knobs (`seed` + five ppm rates).
    pub knobs: FaultKnobs,
    /// How long a `droop` stall holds a frame. Longer than the client's
    /// read timeout turns a stall into a forced reconnect.
    pub stall: Duration,
    /// Byzantine forgery rate, ppm per Unit frame: flip payload bytes
    /// and then **re-seal the frame CRC**, so the forgery is invisible
    /// to the transport integrity check and only the pinned-manifest
    /// digest can catch it. This is what separates "the client detects
    /// equivocation" from "the client got lucky with CRC32": a `corrupt`
    /// fault is caught by the frame CRC, a `forge` never is.
    pub forge_pm: u32,
}

impl ChaosConfig {
    /// A config from knobs with a default 50 ms stall and no forgery.
    #[must_use]
    pub fn new(knobs: FaultKnobs) -> ChaosConfig {
        ChaosConfig {
            knobs,
            stall: Duration::from_millis(50),
            forge_pm: 0,
        }
    }
}

/// Injected-fault counts, snapshotted by [`ChaosProxy::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Frames cut mid-bytes (loss).
    pub cuts: u64,
    /// Connections torn down (drop).
    pub aborts: u64,
    /// Bytes flipped (corrupt).
    pub corruptions: u64,
    /// Stalls inserted (droop).
    pub stalls: u64,
    /// Adjacent-frame swaps (semantic).
    pub reorders: u64,
    /// Unit payloads forged under a re-sealed CRC (Byzantine).
    pub forges: u64,
    /// Connections proxied.
    pub connections: u64,
}

impl ChaosStats {
    /// Total faults injected across every category.
    #[must_use]
    pub fn total_faults(&self) -> u64 {
        self.cuts + self.aborts + self.corruptions + self.stalls + self.reorders + self.forges
    }
}

#[derive(Default)]
struct StatsInner {
    cuts: AtomicU64,
    aborts: AtomicU64,
    corruptions: AtomicU64,
    stalls: AtomicU64,
    reorders: AtomicU64,
    forges: AtomicU64,
    connections: AtomicU64,
}

/// The proxy: spawn, point clients at [`ChaosProxy::local_addr`], stop.
pub struct ChaosProxy {
    local: SocketAddr,
    stop: Arc<StopSignal>,
    accept_thread: Option<JoinHandle<()>>,
    stats: Arc<StatsInner>,
}

impl ChaosProxy {
    /// Binds an ephemeral loopback port and proxies every accepted
    /// connection to `upstream` with faults from `config`.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configuration failures.
    pub fn spawn(upstream: SocketAddr, config: ChaosConfig) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local = listener.local_addr()?;
        let stop = Arc::new(StopSignal::new(&listener)?);
        let stats = Arc::new(StatsInner::default());
        let accept_stop = Arc::clone(&stop);
        let accept_stats = Arc::clone(&stats);
        let accept_thread = std::thread::spawn(move || {
            accept_loop(listener, upstream, &config, &accept_stop, &accept_stats);
        });
        Ok(ChaosProxy {
            local,
            stop,
            accept_thread: Some(accept_thread),
            stats,
        })
    }

    /// The address clients should connect to.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// A snapshot of the injected-fault counters.
    #[must_use]
    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            cuts: self.stats.cuts.load(Ordering::Relaxed),
            aborts: self.stats.aborts.load(Ordering::Relaxed),
            corruptions: self.stats.corruptions.load(Ordering::Relaxed),
            stalls: self.stats.stalls.load(Ordering::Relaxed),
            reorders: self.stats.reorders.load(Ordering::Relaxed),
            forges: self.stats.forges.load(Ordering::Relaxed),
            connections: self.stats.connections.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting and tears the proxy down, closing every proxied
    /// connection.
    pub fn stop(mut self) -> ChaosStats {
        self.shutdown();
        self.stats()
    }

    fn shutdown(&mut self) {
        self.stop.close();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    upstream: SocketAddr,
    config: &ChaosConfig,
    stop: &Arc<StopSignal>,
    stats: &Arc<StatsInner>,
) {
    let mut conn_index = 0u64;
    accept_until_stopped(listener, stop, |client| {
        let n = conn_index;
        conn_index += 1;
        stats.connections.fetch_add(1, Ordering::Relaxed);
        let server = TcpStream::connect_timeout(&upstream, Duration::from_secs(2)).ok()?;
        let config = config.clone();
        let stop = Arc::clone(stop);
        let stats = Arc::clone(stats);
        Some(Box::new(Some(move || {
            proxy_connection(client, server, n, &config, &stop, &stats);
        })) as Job)
    });
}

fn proxy_connection(
    client: TcpStream,
    server: TcpStream,
    conn_index: u64,
    config: &ChaosConfig,
    stop: &StopSignal,
    stats: &StatsInner,
) {
    // Registered sockets are shut down on stop, which wakes both
    // directions' blocked reads.
    let (Some(_client_reg), Some(_server_reg)) = (stop.register(&client), stop.register(&server))
    else {
        return;
    };
    std::thread::scope(|s| {
        // Client → server: forwarded untouched (Hellos are small and
        // the interesting failure surface is the streamed response).
        s.spawn(|| pump(&client, &server));
        forward_frames(&client, &server, conn_index, config, stats);
    });
}

/// Server → client: frame-boundary faults, seeded per connection. Ends
/// by shutting both sockets down, which also ends the upstream pump.
fn forward_frames(
    client: &TcpStream,
    server: &TcpStream,
    conn_index: u64,
    config: &ChaosConfig,
    stats: &StatsInner,
) {
    let mut rng = SplitMix64(config.knobs.seed ^ conn_index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let knobs = config.knobs;
    let mut reader = server;
    let mut held: Option<Vec<u8>> = None;
    let mut down = client;
    while let Ok(frame) = read_raw_frame(&mut reader) {
        if knobs.drop_pm > 0 && rng.hit_pm(knobs.drop_pm) {
            stats.aborts.fetch_add(1, Ordering::Relaxed);
            let _ = client.shutdown(std::net::Shutdown::Both);
            let _ = server.shutdown(std::net::Shutdown::Both);
            break;
        }
        if knobs.loss_pm > 0 && rng.hit_pm(knobs.loss_pm) {
            // Cut the frame mid-bytes, then tear the connection down:
            // the wire version of a unit lost in flight.
            stats.cuts.fetch_add(1, Ordering::Relaxed);
            let cut = frame.len() / 2;
            let _ = down.write_all(&frame[..cut]);
            let _ = client.shutdown(std::net::Shutdown::Both);
            let _ = server.shutdown(std::net::Shutdown::Both);
            break;
        }
        if knobs.droop_pm > 0 && rng.hit_pm(knobs.droop_pm) {
            stats.stalls.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(config.stall);
        }
        let mut frame = frame;
        if config.forge_pm > 0
            && frame.first() == Some(&KIND_UNIT)
            && frame.len() > FRAME_OVERHEAD + 8
            && rng.hit_pm(config.forge_pm)
        {
            // The Byzantine mirror: flip a payload byte *past* the
            // class/unit header, then recompute the outer CRC so the
            // frame is transport-perfect. Only the client's pinned
            // NSUM digest can tell these bytes are not the program.
            stats.forges.fetch_add(1, Ordering::Relaxed);
            let body_at = 5 + 8; // kind+len, then class+unit ids
            let span = frame.len() - 4 - body_at;
            let at = body_at + usize::try_from(rng.below(span as u64)).unwrap_or(0);
            frame[at] ^= 0x55;
            let crc_at = frame.len() - 4;
            let crc = crc32(&frame[..crc_at]);
            frame[crc_at..].copy_from_slice(&crc.to_le_bytes());
        }
        if knobs.corrupt_pm > 0 && rng.hit_pm(knobs.corrupt_pm) {
            // Flip one byte past the length field (payload or CRC), so
            // framing stays parseable and the client's CRC check is
            // what must catch it.
            stats.corruptions.fetch_add(1, Ordering::Relaxed);
            let at = 5 + usize::try_from(rng.below((frame.len() - 5) as u64)).unwrap_or(0);
            frame[at] ^= 0x20;
        }
        if knobs.semantic_pm > 0 && held.is_none() && rng.hit_pm(knobs.semantic_pm) {
            // Hold this frame and release it after the next one: a
            // reorder at an exact frame boundary.
            stats.reorders.fetch_add(1, Ordering::Relaxed);
            held = Some(frame);
            continue;
        }
        if down.write_all(&frame).is_err() {
            break;
        }
        if let Some(h) = held.take() {
            if down.write_all(&h).is_err() {
                break;
            }
        }
    }
    if let Some(h) = held.take() {
        let _ = down.write_all(&h);
    }
    let _ = client.shutdown(std::net::Shutdown::Both);
    let _ = server.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_connection_rngs_are_deterministic_and_distinct() {
        let seed = 7u64;
        let mut a0 = SplitMix64(seed ^ 0u64.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut b0 = SplitMix64(seed ^ 0u64.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut a1 = SplitMix64(seed ^ 1u64.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        assert_eq!(a0.next_u64(), b0.next_u64());
        assert_ne!(a0.next_u64(), a1.next_u64());
    }

    #[test]
    fn forged_unit_frames_stay_transport_perfect() {
        // Replicate the forge transform on an encoded Unit frame and
        // prove the result still decodes cleanly — the transport CRC
        // must NOT catch a forge; only the manifest digest can.
        let original = crate::frame::Frame::Unit {
            class: 1,
            unit: 2,
            payload: b"honest program bytes".to_vec(),
        };
        let mut frame = original.encode();
        let body_at = 5 + 8;
        frame[body_at] ^= 0x55;
        let crc_at = frame.len() - 4;
        let crc = crc32(&frame[..crc_at]);
        frame[crc_at..].copy_from_slice(&crc.to_le_bytes());
        let (decoded, _) = crate::frame::Frame::decode(&frame).expect("forged frame decodes");
        match decoded {
            crate::frame::Frame::Unit {
                class,
                unit,
                payload,
            } => {
                assert_eq!(class, 1);
                assert_eq!(unit, 2);
                assert_ne!(payload, b"honest program bytes", "bytes were forged");
            }
            other => panic!("forge changed the frame kind: {other:?}"),
        }
    }

    /// Stop wakes an idle proxy with no client ever connecting, and the
    /// wake connection is never counted as a proxied connection.
    #[test]
    fn stop_of_an_idle_proxy_returns_without_a_client() {
        // Nothing listens upstream; no connection ever gets that far.
        let upstream: SocketAddr = "127.0.0.1:9".parse().expect("addr");
        let proxy =
            ChaosProxy::spawn(upstream, ChaosConfig::new(FaultKnobs::default())).expect("spawn");
        let stats = crate::accept::returns_within_10s("ChaosProxy::stop", move || proxy.stop());
        assert_eq!(stats, ChaosStats::default());
    }

    /// Stop closes a live proxied connection whose peers have both gone
    /// quiet: neither direction waits for traffic to notice the stop.
    #[test]
    fn stop_with_an_open_idle_connection_returns() {
        use std::io::Read;
        let upstream = TcpListener::bind("127.0.0.1:0").expect("bind upstream");
        let proxy = ChaosProxy::spawn(
            upstream.local_addr().expect("addr"),
            ChaosConfig::new(FaultKnobs::default()),
        )
        .expect("spawn");
        let mut client = TcpStream::connect(proxy.local_addr()).expect("connect");
        client.write_all(b"x").expect("write");
        // The byte arriving upstream proves the connection is proxied.
        let (mut server, _) = upstream.accept().expect("accept");
        let mut byte = [0u8; 1];
        server.read_exact(&mut byte).expect("proxied byte");
        let stats = crate::accept::returns_within_10s("ChaosProxy::stop", move || proxy.stop());
        assert_eq!(stats.connections, 1);
        assert_eq!(server.read(&mut byte).expect("EOF"), 0, "stop closed it");
    }

    #[test]
    fn quiet_knobs_never_fire() {
        let knobs = FaultKnobs::default();
        assert!(knobs.is_quiet());
        let mut rng = SplitMix64(1);
        assert!((0..1000).all(|_| !rng.hit_pm(knobs.loss_pm)));
    }
}
