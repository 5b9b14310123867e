//! The storage abstraction: one trait, a disciplined real-filesystem
//! backend, and a seeded fault-injecting twin.
//!
//! The namespace is deliberately flat — a store is one directory of
//! small files — so the whole surface is five operations, and the
//! fault model has exactly three places to bite: did the write tear,
//! did the fsync lie, did the bytes rot afterwards.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;

use nonstrict_wire::SplitMix64;

use crate::StoreError;

/// The store's view of a directory of files.
///
/// Durability contract: when [`Vfs::write_atomic`] or [`Vfs::append`]
/// returns `Ok`, an honest backend has the bytes on stable storage —
/// `write_atomic` via the write-temp / fsync / rename / fsync-dir
/// discipline (the file is either its old content or the full new
/// content, never a mix), `append` via fsync after the write (a crash
/// may still cut an *in-flight* append at any byte, which is why every
/// appended record carries its own CRC frame). [`FaultFs`] exists to
/// model the backends that break this contract.
pub trait Vfs: Send + Sync {
    /// Reads the full content of `name`.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] when absent; [`StoreError::Io`] or
    /// [`StoreError::Killed`] otherwise.
    fn read(&self, name: &str) -> Result<Vec<u8>, StoreError>;

    /// Replaces `name` with `bytes` atomically and durably.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] or [`StoreError::Killed`].
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), StoreError>;

    /// Appends `bytes` to `name` (creating it if absent) and syncs.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] or [`StoreError::Killed`].
    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), StoreError>;

    /// Removes `name`; removing an absent name is not an error.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] or [`StoreError::Killed`].
    fn remove(&self, name: &str) -> Result<(), StoreError>;

    /// Lists the file names present, sorted.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] or [`StoreError::Killed`].
    fn list(&self) -> Result<Vec<String>, StoreError>;
}

/// The real-filesystem backend: one flat directory, every mutation
/// disciplined.
///
/// * `write_atomic` writes `name.tmp`, fsyncs it, renames it over
///   `name`, then fsyncs the directory so the rename itself is
///   durable.
/// * `append` opens in append mode, writes, and fsyncs the file.
///
/// Temp files from a previous crash (`*.tmp`) are invisible to
/// [`Vfs::list`] and harmlessly overwritten by the next write.
#[derive(Debug)]
pub struct RealFs {
    root: PathBuf,
}

impl RealFs {
    /// Opens (creating if needed) `root` as a store directory.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<RealFs, StoreError> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(|e| StoreError::Io {
            op: "create_dir_all",
            name: root.display().to_string(),
            detail: e.to_string(),
        })?;
        Ok(RealFs { root })
    }

    /// The directory this store lives in.
    #[must_use]
    pub fn root(&self) -> &std::path::Path {
        &self.root
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    fn io(op: &'static str, name: &str, e: &std::io::Error) -> StoreError {
        StoreError::Io {
            op,
            name: name.to_owned(),
            detail: e.to_string(),
        }
    }

    fn sync_dir(&self) -> Result<(), StoreError> {
        // Directory fsync makes the rename durable. Some platforms
        // refuse to open a directory for writing; opening read-only is
        // enough for sync_all on the ones we run on.
        let dir = std::fs::File::open(&self.root)
            .map_err(|e| Self::io("open_dir", &self.root.display().to_string(), &e))?;
        dir.sync_all()
            .map_err(|e| Self::io("sync_dir", &self.root.display().to_string(), &e))
    }
}

impl Vfs for RealFs {
    fn read(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        match std::fs::read(self.path(name)) {
            Ok(b) => Ok(b),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(StoreError::NotFound {
                name: name.to_owned(),
            }),
            Err(e) => Err(Self::io("read", name, &e)),
        }
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let tmp = self.path(&format!("{name}.tmp"));
        {
            let mut f = std::fs::File::create(&tmp).map_err(|e| Self::io("create", name, &e))?;
            f.write_all(bytes)
                .map_err(|e| Self::io("write", name, &e))?;
            f.sync_all().map_err(|e| Self::io("fsync", name, &e))?;
        }
        std::fs::rename(&tmp, self.path(name)).map_err(|e| Self::io("rename", name, &e))?;
        self.sync_dir()
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(self.path(name))
            .map_err(|e| Self::io("open_append", name, &e))?;
        f.write_all(bytes)
            .map_err(|e| Self::io("append", name, &e))?;
        f.sync_all().map_err(|e| Self::io("fsync", name, &e))
    }

    fn remove(&self, name: &str) -> Result<(), StoreError> {
        match std::fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(Self::io("remove", name, &e)),
        }
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        let rd = std::fs::read_dir(&self.root)
            .map_err(|e| Self::io("read_dir", &self.root.display().to_string(), &e))?;
        let mut names = Vec::new();
        for entry in rd {
            let entry =
                entry.map_err(|e| Self::io("read_dir", &self.root.display().to_string(), &e))?;
            if !entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
                continue;
            }
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".tmp") {
                continue;
            }
            names.push(name);
        }
        names.sort();
        Ok(names)
    }
}

/// Rates and seed for the fault-injecting backend. All rates are in
/// parts per million; all zeros is a perfectly honest in-memory store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultKnobs {
    /// Seed for every fault draw.
    pub seed: u64,
    /// Probability that a kill interrupting `write_atomic` tears
    /// through the atomicity discipline anyway (a filesystem whose
    /// rename lands before its data), leaving a durable prefix of the
    /// *new* content at a seeded cut.
    pub torn_pm: u32,
    /// Probability that a completed write acks durability but never
    /// reaches it: the visible content updates, the durable content
    /// does not, and the write vanishes at the next crash. Because
    /// later writes may persist while an earlier lied one vanished,
    /// this is also the reordered-write model.
    pub lie_pm: u32,
    /// Per-file probability, applied at every crash/restart boundary,
    /// that one seeded bit of the durable content flips.
    pub bitrot_pm: u32,
}

impl FaultKnobs {
    /// An honest in-memory store under `seed` (the seed still drives
    /// the kill-at-operation crash semantics).
    #[must_use]
    pub fn quiet(seed: u64) -> FaultKnobs {
        FaultKnobs {
            seed,
            ..FaultKnobs::default()
        }
    }
}

struct FaultState {
    /// What survives a crash.
    durable: BTreeMap<String, Vec<u8>>,
    /// What the running process observes (page cache).
    visible: BTreeMap<String, Vec<u8>>,
    rng: SplitMix64,
    knobs: FaultKnobs,
    /// Mutating operations attempted so far.
    ops: u64,
    /// Die at this 1-based mutating-operation index.
    kill_at_op: Option<u64>,
    /// Set once the kill fired; every call fails until [`FaultFs::crash`].
    killed: bool,
}

/// The seeded fault-injecting in-memory backend: the power-cut model.
///
/// It tracks *visible* content (what the process reads back) separately
/// from *durable* content (what survives [`FaultFs::crash`]), so fsync
/// lies, torn writes, and kill-at-operation process death all behave
/// the way real storage stacks misbehave. With [`FaultKnobs::quiet`]
/// knobs it is an honest store whose only extra power is the kill
/// counter — which is exactly what the storage crash-anywhere
/// differential sweeps.
pub struct FaultFs {
    state: Mutex<FaultState>,
}

impl FaultFs {
    /// A fresh, empty store under `knobs`.
    #[must_use]
    pub fn new(knobs: FaultKnobs) -> FaultFs {
        FaultFs {
            state: Mutex::new(FaultState {
                durable: BTreeMap::new(),
                visible: BTreeMap::new(),
                rng: SplitMix64(knobs.seed ^ 0x5f0e_9d1c_ab37_6421),
                knobs,
                ops: 0,
                kill_at_op: None,
                killed: false,
            }),
        }
    }

    /// Arms the process-kill probe: the `op`-th (1-based) mutating
    /// operation from now on dies mid-write.
    pub fn set_kill_at(&self, op: u64) {
        let mut s = self.state.lock().expect("faultfs lock");
        let ops = s.ops;
        s.kill_at_op = Some(ops + op);
    }

    /// Mutating operations attempted so far (the sweep bound for the
    /// crash-anywhere differential).
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.state.lock().expect("faultfs lock").ops
    }

    /// Whether the armed kill has fired.
    #[must_use]
    pub fn is_killed(&self) -> bool {
        self.state.lock().expect("faultfs lock").killed
    }

    /// Power-cycles the store: everything not durable is lost, bit rot
    /// gets its per-file chance to gnaw the survivors, the kill switch
    /// is disarmed, and the store is usable again — the warm-restart
    /// starting point.
    pub fn crash(&self) {
        let mut s = self.state.lock().expect("faultfs lock");
        s.visible = s.durable.clone();
        s.killed = false;
        s.kill_at_op = None;
        let bitrot_pm = s.knobs.bitrot_pm;
        if bitrot_pm == 0 {
            return;
        }
        let names: Vec<String> = s.durable.keys().cloned().collect();
        for name in names {
            if !s.rng.hit_pm(bitrot_pm) {
                continue;
            }
            let len = s.durable[&name].len();
            if len == 0 {
                continue;
            }
            let byte = s.rng.below(len as u64) as usize;
            let mask = 1u8 << (s.rng.below(8) as u8);
            if let Some(content) = s.durable.get_mut(&name) {
                content[byte] ^= mask;
            }
            if let Some(content) = s.visible.get_mut(&name) {
                content[byte] ^= mask;
            }
        }
    }

    /// Test hook: the durable content of `name`, as a crash would
    /// reveal it.
    #[must_use]
    pub fn durable(&self, name: &str) -> Option<Vec<u8>> {
        self.state
            .lock()
            .expect("faultfs lock")
            .durable
            .get(name)
            .cloned()
    }

    /// Test hook: overwrite the durable content of `name` directly
    /// (hostile-artifact injection).
    pub fn set_durable(&self, name: &str, bytes: Vec<u8>) {
        let mut s = self.state.lock().expect("faultfs lock");
        s.visible.insert(name.to_owned(), bytes.clone());
        s.durable.insert(name.to_owned(), bytes);
    }

    /// Checks the kill switch and counts the op. `Err` means the
    /// process just died at this operation.
    fn arm(s: &mut FaultState) -> Result<bool, StoreError> {
        if s.killed {
            return Err(StoreError::Killed { op: s.ops });
        }
        s.ops += 1;
        if s.kill_at_op == Some(s.ops) {
            s.killed = true;
            return Ok(true);
        }
        Ok(false)
    }
}

impl Vfs for FaultFs {
    fn read(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        let s = self.state.lock().expect("faultfs lock");
        if s.killed {
            return Err(StoreError::Killed { op: s.ops });
        }
        s.visible
            .get(name)
            .cloned()
            .ok_or_else(|| StoreError::NotFound {
                name: name.to_owned(),
            })
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let mut s = self.state.lock().expect("faultfs lock");
        if Self::arm(&mut s)? {
            // The process dies mid-write. A disciplined filesystem
            // leaves either the old content (crash before the rename)
            // or the full new content (crash after); a torn one can
            // leave a prefix of the new bytes.
            let torn_pm = s.knobs.torn_pm;
            if s.rng.hit_pm(torn_pm) {
                let cut = s.rng.below(bytes.len() as u64 + 1) as usize;
                s.durable.insert(name.to_owned(), bytes[..cut].to_vec());
            } else if s.rng.below(2) == 1 {
                s.durable.insert(name.to_owned(), bytes.to_vec());
            }
            return Err(StoreError::Killed { op: s.ops });
        }
        s.visible.insert(name.to_owned(), bytes.to_vec());
        let lie_pm = s.knobs.lie_pm;
        if !s.rng.hit_pm(lie_pm) {
            s.durable.insert(name.to_owned(), bytes.to_vec());
        }
        Ok(())
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let mut s = self.state.lock().expect("faultfs lock");
        if Self::arm(&mut s)? {
            // A crash cuts an in-flight append at any byte: the durable
            // file keeps its old content plus a seeded prefix of the
            // appended bytes. This is normal power-cut semantics, not a
            // fault knob — append durability only covers *completed*
            // appends.
            let cut = s.rng.below(bytes.len() as u64 + 1) as usize;
            append_to(&mut s.durable, name, &bytes[..cut]);
            return Err(StoreError::Killed { op: s.ops });
        }
        append_to(&mut s.visible, name, bytes);
        let lie_pm = s.knobs.lie_pm;
        if !s.rng.hit_pm(lie_pm) {
            append_to(&mut s.durable, name, bytes);
        }
        Ok(())
    }

    fn remove(&self, name: &str) -> Result<(), StoreError> {
        let mut s = self.state.lock().expect("faultfs lock");
        if Self::arm(&mut s)? {
            // Whether the unlink became durable before the crash is a
            // coin flip.
            if s.rng.below(2) == 1 {
                s.durable.remove(name);
            }
            return Err(StoreError::Killed { op: s.ops });
        }
        s.visible.remove(name);
        let lie_pm = s.knobs.lie_pm;
        if !s.rng.hit_pm(lie_pm) {
            s.durable.remove(name);
        }
        Ok(())
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        let s = self.state.lock().expect("faultfs lock");
        if s.killed {
            return Err(StoreError::Killed { op: s.ops });
        }
        Ok(s.visible.keys().cloned().collect())
    }
}

/// Appends `bytes` to file `name` of `files`, creating it if absent;
/// only a new file allocates its name.
fn append_to(files: &mut BTreeMap<String, Vec<u8>>, name: &str, bytes: &[u8]) {
    match files.get_mut(name) {
        Some(content) => content.extend_from_slice(bytes),
        None => {
            files.insert(name.to_owned(), bytes.to_vec());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_faultfs_behaves_like_an_honest_store() {
        let fs = FaultFs::new(FaultKnobs::quiet(7));
        fs.write_atomic("a", b"alpha").unwrap();
        fs.append("log", b"one").unwrap();
        fs.append("log", b"two").unwrap();
        assert_eq!(fs.read("a").unwrap(), b"alpha");
        assert_eq!(fs.read("log").unwrap(), b"onetwo");
        assert_eq!(fs.list().unwrap(), vec!["a".to_owned(), "log".to_owned()]);
        fs.crash();
        assert_eq!(fs.read("a").unwrap(), b"alpha", "durable across crash");
        assert_eq!(fs.read("log").unwrap(), b"onetwo");
        fs.remove("a").unwrap();
        assert_eq!(
            fs.read("a"),
            Err(StoreError::NotFound {
                name: "a".to_owned()
            })
        );
    }

    #[test]
    fn kill_at_op_fires_once_and_poisons_until_crash() {
        let fs = FaultFs::new(FaultKnobs::quiet(3));
        fs.write_atomic("a", b"one").unwrap();
        fs.set_kill_at(1);
        let err = fs.write_atomic("a", b"two").unwrap_err();
        assert!(matches!(err, StoreError::Killed { .. }), "{err}");
        assert!(fs.is_killed());
        // Dead process: every later call fails too.
        assert!(matches!(fs.read("a"), Err(StoreError::Killed { .. })));
        assert!(matches!(
            fs.append("a", b"x"),
            Err(StoreError::Killed { .. })
        ));
        fs.crash();
        // Atomic discipline: after the crash the file is old or new,
        // never a mix (torn_pm is zero).
        let got = fs.read("a").unwrap();
        assert!(got == b"one" || got == b"two", "{got:?}");
    }

    #[test]
    fn killed_append_leaves_only_a_prefix_of_the_appended_bytes() {
        for seed in 0..32 {
            let fs = FaultFs::new(FaultKnobs::quiet(seed));
            fs.append("log", b"stable").unwrap();
            fs.set_kill_at(1);
            fs.append("log", b"DOOMED").unwrap_err();
            fs.crash();
            let got = fs.read("log").unwrap();
            assert!(got.starts_with(b"stable"), "{got:?}");
            assert!(got.len() <= b"stable".len() + b"DOOMED".len());
            assert!(
                b"stableDOOMED".starts_with(got.as_slice()),
                "append crash must leave a clean prefix: {got:?}"
            );
        }
    }

    #[test]
    fn fsync_lies_lose_acked_writes_at_the_crash() {
        // With lie_pm maxed, every ack is a lie: visible content
        // updates, durable does not.
        let fs = FaultFs::new(FaultKnobs {
            seed: 5,
            lie_pm: 1_000_000,
            ..FaultKnobs::default()
        });
        fs.write_atomic("a", b"acked").unwrap();
        assert_eq!(fs.read("a").unwrap(), b"acked", "visible before crash");
        fs.crash();
        assert_eq!(
            fs.read("a"),
            Err(StoreError::NotFound {
                name: "a".to_owned()
            }),
            "the lied write must vanish"
        );
    }

    #[test]
    fn bitrot_flips_exactly_one_seeded_bit() {
        let fs = FaultFs::new(FaultKnobs {
            seed: 11,
            bitrot_pm: 1_000_000,
            ..FaultKnobs::default()
        });
        let payload = vec![0u8; 64];
        fs.write_atomic("a", &payload).unwrap();
        fs.crash();
        let got = fs.read("a").unwrap();
        let flipped: u32 = got.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit flips per rot event");
    }

    #[test]
    fn realfs_round_trips_and_survives_reopen() {
        let root = std::env::temp_dir().join(format!("nonstrict-store-vfs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        {
            let fs = RealFs::open(&root).unwrap();
            fs.write_atomic("a.bin", b"alpha").unwrap();
            fs.write_atomic("a.bin", b"beta").unwrap();
            fs.append("log.bin", b"one").unwrap();
            fs.append("log.bin", b"two").unwrap();
        }
        {
            let fs = RealFs::open(&root).unwrap();
            assert_eq!(fs.read("a.bin").unwrap(), b"beta");
            assert_eq!(fs.read("log.bin").unwrap(), b"onetwo");
            assert_eq!(
                fs.list().unwrap(),
                vec!["a.bin".to_owned(), "log.bin".to_owned()]
            );
            fs.remove("a.bin").unwrap();
            fs.remove("a.bin").unwrap();
            assert!(matches!(fs.read("a.bin"), Err(StoreError::NotFound { .. })));
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
