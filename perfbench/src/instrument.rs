//! Benchmark-owned instruments, built only on the crates' public traits:
//! a timing [`SessionStore`] wrapper and a counting, timing [`Vfs`]
//! wrapper.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use nonstrict_store::{DurableSession, StoreError, Vfs};
use nonstrict_wire::{SessionStore, StoreFault, WarmSession};

use crate::trace;

/// What one session's store hooks saw. Handed back when the client
/// drops its store at the end of `WireClient::run`.
#[derive(Debug, Default)]
pub struct Stamps {
    /// First unit accepted at the boundary (first `on_unit` call).
    pub first_unit: Option<Instant>,
    /// Manifest pinned (first `on_pin` call). Traced runs only.
    pub pin: Option<Instant>,
    /// Last unit accepted. Traced runs only.
    pub last_unit: Option<Instant>,
    /// Units accepted over the wire (warm-restored units are not seen).
    /// Traced runs only, like the fields below.
    pub units: u64,
    /// Payload bytes of those units.
    pub bytes: u64,
    /// Sum of gaps between consecutive accepted units, ns.
    pub gap_ns: u64,
    /// Time inside the inner store's `on_unit`, ns.
    pub on_unit_ns: u64,
    /// Time inside the inner store's `warm_start`, ns.
    pub warm_start_ns: u64,
}

/// A [`SessionStore`] that stamps hook times and forwards to an optional
/// inner store: none for cold sessions, a [`DurableSession`] for warm
/// restarts. Untraced, it records only the first-unit instant.
pub struct TimingStore {
    inner: Option<DurableSession>,
    traced: bool,
    stamps: Stamps,
    out: Arc<Mutex<Option<Stamps>>>,
}

impl TimingStore {
    /// A wrapper whose stamps land in the returned slot when it drops.
    pub fn new(inner: Option<DurableSession>) -> (TimingStore, Arc<Mutex<Option<Stamps>>>) {
        let out = Arc::new(Mutex::new(None));
        let store = TimingStore {
            inner,
            traced: trace::enabled(),
            stamps: Stamps::default(),
            out: Arc::clone(&out),
        };
        (store, out)
    }

    fn forward(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut DurableSession) -> Result<(), StoreFault>,
    ) -> Result<(), StoreFault> {
        match self.inner.as_mut() {
            Some(inner) => trace::span(name, None, || f(inner)),
            None => Ok(()),
        }
    }
}

impl Drop for TimingStore {
    fn drop(&mut self) {
        if let Ok(mut slot) = self.out.lock() {
            *slot = Some(std::mem::take(&mut self.stamps));
        }
    }
}

impl SessionStore for TimingStore {
    fn warm_start(&mut self) -> Option<WarmSession> {
        let inner = self.inner.as_mut()?;
        let t = Instant::now();
        let warm = trace::span("store.warm_start", None, || inner.warm_start());
        self.stamps.warm_start_ns = elapsed_ns(t);
        warm
    }

    fn on_pin(&mut self, generation: u32, manifest: &[u8]) -> Result<(), StoreFault> {
        if self.traced && self.stamps.pin.is_none() {
            self.stamps.pin = Some(Instant::now());
        }
        self.forward("store.on_pin", |s| s.on_pin(generation, manifest))
    }

    fn on_unit(
        &mut self,
        class: u32,
        unit: u32,
        epoch: u32,
        units: u32,
        payload: &[u8],
    ) -> Result<(), StoreFault> {
        let now = Instant::now();
        if self.stamps.first_unit.is_none() {
            self.stamps.first_unit = Some(now);
        }
        if !self.traced {
            return self.forward("store.on_unit", |s| {
                s.on_unit(class, unit, epoch, units, payload)
            });
        }
        if let Some(last) = self.stamps.last_unit {
            self.stamps.gap_ns += u64::try_from((now - last).as_nanos()).unwrap_or(u64::MAX);
        }
        self.stamps.units += 1;
        self.stamps.bytes += payload.len() as u64;
        let r = self.forward("store.on_unit", |s| {
            s.on_unit(class, unit, epoch, units, payload)
        });
        let done = Instant::now();
        self.stamps.on_unit_ns += elapsed_ns(now);
        self.stamps.last_unit = Some(done);
        r
    }

    fn on_reset_class(&mut self, class: u32, epoch: u32, units: u32) -> Result<(), StoreFault> {
        self.forward("store.on_reset_class", |s| {
            s.on_reset_class(class, epoch, units)
        })
    }

    fn on_truncate(&mut self, class: u32, delivered: u32) -> Result<(), StoreFault> {
        self.forward("store.on_truncate", |s| s.on_truncate(class, delivered))
    }

    fn on_reset_all(&mut self) -> Result<(), StoreFault> {
        self.forward("store.on_reset_all", SessionStore::on_reset_all)
    }

    fn on_complete(&mut self) -> Result<(), StoreFault> {
        self.forward("store.on_complete", SessionStore::on_complete)
    }
}

/// Per-operation counters of a [`CountingVfs`].
#[derive(Debug, Default)]
pub struct VfsCounts {
    /// `read` calls.
    pub reads: AtomicU64,
    /// `write_atomic` calls (each is write + fsync + rename + dir fsync).
    pub atomic_writes: AtomicU64,
    /// `append` calls (each is write + fsync).
    pub appends: AtomicU64,
    /// Bytes written by `write_atomic` and `append`.
    pub bytes_written: AtomicU64,
    /// Time inside the inner store, ns.
    pub busy_ns: AtomicU64,
}

/// A plain copy of [`VfsCounts`] at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct VfsSnapshot {
    pub reads: u64,
    pub atomic_writes: u64,
    pub appends: u64,
    pub bytes_written: u64,
    pub busy_ns: u64,
}

impl VfsCounts {
    /// The counters now.
    pub fn snapshot(&self) -> VfsSnapshot {
        VfsSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            atomic_writes: self.atomic_writes.load(Ordering::Relaxed),
            appends: self.appends.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }
}

impl std::ops::Sub for VfsSnapshot {
    type Output = VfsSnapshot;
    fn sub(self, o: VfsSnapshot) -> VfsSnapshot {
        VfsSnapshot {
            reads: self.reads - o.reads,
            atomic_writes: self.atomic_writes - o.atomic_writes,
            appends: self.appends - o.appends,
            bytes_written: self.bytes_written - o.bytes_written,
            busy_ns: self.busy_ns - o.busy_ns,
        }
    }
}

/// A [`Vfs`] that counts and times every call into an inner store.
pub struct CountingVfs<V> {
    inner: V,
    counts: Arc<VfsCounts>,
}

impl<V: Vfs> CountingVfs<V> {
    /// Wraps `inner`, adding into `counts`.
    pub fn new(inner: V, counts: Arc<VfsCounts>) -> CountingVfs<V> {
        CountingVfs { inner, counts }
    }

    // No span per call: a javacup pair makes about 2,600 of them, and
    // the counters already carry the count and the busy time.
    fn timed<R>(&self, counter: Option<&AtomicU64>, f: impl FnOnce(&V) -> R) -> R {
        if let Some(c) = counter {
            c.fetch_add(1, Ordering::Relaxed);
        }
        let t = Instant::now();
        let r = f(&self.inner);
        self.counts
            .busy_ns
            .fetch_add(elapsed_ns(t), Ordering::Relaxed);
        r
    }
}

impl<V: Vfs> Vfs for CountingVfs<V> {
    fn read(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        self.timed(Some(&self.counts.reads), |v| v.read(name))
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.counts
            .bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.timed(Some(&self.counts.atomic_writes), |v| {
            v.write_atomic(name, bytes)
        })
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.counts
            .bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.timed(Some(&self.counts.appends), |v| v.append(name, bytes))
    }

    fn remove(&self, name: &str) -> Result<(), StoreError> {
        self.timed(None, |v| v.remove(name))
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        self.timed(None, Vfs::list)
    }
}

/// Nanoseconds since `t`.
pub fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
