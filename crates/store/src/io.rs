//! Pluggable storage I/O: real syscalls, or seeded write-path faults.
//!
//! [`StoreIo`] is the single seam between the durability layer and the
//! filesystem. [`StoreIo::real`] performs exactly the syscalls the
//! crate always made; [`StoreIo::faulty`] and [`StoreIo::fail_at`] wrap
//! them in a SplitMix64-seeded injector — the *write-path* sibling of
//! [`crate::inject::Corruptor`], which only injures bytes at rest —
//! that can fail an operation with EIO or ENOSPC, land only a prefix of
//! a write, or model the "fsyncgate" failure class: a failed
//! `sync_data` that also discards the unsynced page cache, exactly as
//! real kernels do (the dirty pages are marked clean on the first
//! failed fsync, so retrying the fsync later reports success while the
//! bytes are gone).
//!
//! The fail-safe contract built on top of this seam lives in
//! [`crate::wal`]: a failed write or fsync permanently poisons the
//! writer; see DESIGN.md §14.
//!
//! Injection is deterministic: equal seeds and equal operation
//! schedules produce equal faults, so a failing chaos-matrix case is
//! pinned by its seed. Targeted tests can also queue a one-shot fault
//! for a specific operation kind with [`StoreIo::inject_once`].

use crate::error::StoreError;
use iixml_gen::rng::DetRng;
use iixml_obs::keys;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// The operation kinds the durability layer performs through
/// [`StoreIo`] (the injector's targeting granularity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// Creating or opening a file for writing (segment, snapshot tmp).
    Create,
    /// `write_all` of frame or snapshot bytes.
    Write,
    /// `sync_data` on a file.
    Sync,
    /// `rename` (snapshot install, segment retirement).
    Rename,
    /// `remove_file` (tombstones, aborted snapshot tmp files).
    Remove,
    /// `sync_data` on the containing directory.
    DirSync,
}

/// The failure a faulty [`StoreIo`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The device reported an error (EIO).
    Eio,
    /// No space left on device (ENOSPC).
    Enospc,
    /// A prefix of the bytes lands on disk, then EIO — the shape of a
    /// torn write.
    ShortWrite,
    /// The fsync fails *and* the unsynced bytes are dropped from the
    /// file, as a kernel drops dirty pages it could not write back.
    FsyncLoss,
}

impl Fault {
    fn to_error(self, path: &Path) -> StoreError {
        let message = match self {
            Fault::Eio => "injected fault: Input/output error (os error 5)",
            Fault::Enospc => "injected fault: No space left on device (os error 28)",
            Fault::ShortWrite => {
                "injected fault: short write, then Input/output error (os error 5)"
            }
            Fault::FsyncLoss => {
                "injected fault: fsync failed and dropped unsynced pages (os error 5)"
            }
        };
        StoreError::Io {
            path: path.to_path_buf(),
            message: message.into(),
        }
    }
}

/// Seed-mixing constant, same idiom as [`crate::inject::Corruptor`]:
/// the injector draws from a stream disjoint from every other consumer
/// of the same base seed.
const SEED_MIX: u64 = 0xD15C_FA01_7E57_ED10;

struct FaultPlan {
    rng: DetRng,
    /// Per-operation fault probability.
    rate: f64,
    /// Fail exactly the Nth operation (1-based), regardless of `rate`.
    fail_at: Option<u64>,
    /// Operations decided so far.
    ops: u64,
    /// One-shot targeted faults, consumed on the next matching op.
    queued: Vec<(IoOp, Fault)>,
    /// Every fault injected, in order (ground truth for the chaos
    /// matrix's "no silent loss" assertion).
    injected: Vec<(IoOp, Fault)>,
}

enum Backend {
    Real,
    Faulty(Mutex<FaultPlan>),
}

/// A cloneable handle to a storage I/O implementation. Clones share the
/// same injector state, so one schedule spans every file the writer
/// touches.
#[derive(Clone)]
pub struct StoreIo(Arc<Backend>);

impl StoreIo {
    /// Exactly today's syscalls, no interposition.
    pub fn real() -> StoreIo {
        StoreIo(Arc::new(Backend::Real))
    }

    /// A seeded injector failing each operation with probability
    /// `rate` (clamped to `[0, 1]`). Equal seeds, equal fault
    /// schedules.
    pub fn faulty(seed: u64, rate: f64) -> StoreIo {
        StoreIo::plan(seed, rate.clamp(0.0, 1.0), None)
    }

    /// A seeded injector failing exactly the `nth` operation (1-based;
    /// the fault kind is still drawn from the seed).
    pub fn fail_at(seed: u64, nth: u64) -> StoreIo {
        StoreIo::plan(seed, 0.0, Some(nth.max(1)))
    }

    fn plan(seed: u64, rate: f64, fail_at: Option<u64>) -> StoreIo {
        StoreIo(Arc::new(Backend::Faulty(Mutex::new(FaultPlan {
            rng: DetRng::new(seed ^ SEED_MIX),
            rate,
            fail_at,
            ops: 0,
            queued: Vec::new(),
            injected: Vec::new(),
        }))))
    }

    /// The implementation the `IIXML_STORE_FAULT_*` environment knobs
    /// select: real I/O unless `IIXML_STORE_FAULT_AT` (fail the Nth
    /// operation) or `IIXML_STORE_FAULT_RATE` (per-operation
    /// probability) is set; `IIXML_STORE_FAULT_SEED` seeds the
    /// injector.
    pub fn from_env() -> StoreIo {
        fn read(key: &str) -> Option<String> {
            std::env::var(key).ok()
        }
        let seed = read(keys::ENV_STORE_FAULT_SEED)
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0xD15Cu64);
        let at = read(keys::ENV_STORE_FAULT_AT).and_then(|v| v.trim().parse::<u64>().ok());
        let rate = read(keys::ENV_STORE_FAULT_RATE).and_then(|v| v.trim().parse::<f64>().ok());
        match (at, rate) {
            (Some(n), _) => StoreIo::fail_at(seed, n),
            (None, Some(r)) => StoreIo::faulty(seed, r),
            (None, None) => StoreIo::real(),
        }
    }

    /// Is this the real, uninterposed implementation?
    pub fn is_real(&self) -> bool {
        matches!(&*self.0, Backend::Real)
    }

    /// Queues a one-shot fault consumed by the next operation of kind
    /// `op` (surgical injection for targeted tests). No-op on a real
    /// handle.
    pub fn inject_once(&self, op: IoOp, fault: Fault) {
        if let Backend::Faulty(plan) = &*self.0 {
            lock(plan).queued.push((op, fault));
        }
    }

    /// Every fault injected so far, in order — the ground truth a test
    /// compares reported faults against.
    pub fn injected(&self) -> Vec<(IoOp, Fault)> {
        match &*self.0 {
            Backend::Real => Vec::new(),
            Backend::Faulty(plan) => lock(plan).injected.clone(),
        }
    }

    /// Fast-path wrapper: on the real backend this folds to a
    /// discriminant check, cheap enough to sit on every write. The
    /// injector's bookkeeping lives out of line.
    #[inline]
    fn decide(&self, op: IoOp) -> Option<Fault> {
        match &*self.0 {
            Backend::Real => None,
            Backend::Faulty(plan) => StoreIo::decide_faulty(plan, op),
        }
    }

    fn decide_faulty(plan: &Mutex<FaultPlan>, op: IoOp) -> Option<Fault> {
        let mut p = lock(plan);
        if let Some(pos) = p.queued.iter().position(|&(o, _)| o == op) {
            let (_, fault) = p.queued.remove(pos);
            p.injected.push((op, fault));
            return Some(fault);
        }
        p.ops += 1;
        let rate = p.rate;
        let due = p.fail_at == Some(p.ops) || (rate > 0.0 && p.rng.bool(rate));
        if !due {
            return None;
        }
        // Draw a fault kind that makes sense for the operation.
        let fault = match op {
            IoOp::Write => *p
                .rng
                .choose(&[Fault::Eio, Fault::Enospc, Fault::ShortWrite]),
            IoOp::Sync => *p.rng.choose(&[Fault::Eio, Fault::FsyncLoss]),
            _ => *p.rng.choose(&[Fault::Eio, Fault::Enospc]),
        };
        p.injected.push((op, fault));
        Some(fault)
    }

    /// Creates a file that must not already exist (WAL segments), open
    /// for writing.
    pub(crate) fn create_new(&self, path: &Path) -> Result<StoreFile, StoreError> {
        if let Some(f) = self.decide(IoOp::Create) {
            return Err(f.to_error(path));
        }
        let file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(path)
            .map_err(|e| StoreError::io(path, e))?;
        Ok(self.wrap(file, path, 0))
    }

    /// Creates (or truncates) a file, open for writing (snapshot tmp
    /// files).
    pub(crate) fn create(&self, path: &Path) -> Result<StoreFile, StoreError> {
        if let Some(f) = self.decide(IoOp::Create) {
            return Err(f.to_error(path));
        }
        let file = File::create(path).map_err(|e| StoreError::io(path, e))?;
        Ok(self.wrap(file, path, 0))
    }

    /// Opens an existing file for appending; its current length is
    /// taken as already durable (recovery verified it).
    pub(crate) fn open_append(&self, path: &Path) -> Result<StoreFile, StoreError> {
        if let Some(f) = self.decide(IoOp::Create) {
            return Err(f.to_error(path));
        }
        let len = std::fs::metadata(path)
            .map_err(|e| StoreError::io(path, e))?
            .len();
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| StoreError::io(path, e))?;
        Ok(self.wrap(file, path, len))
    }

    fn wrap(&self, file: File, path: &Path, len: u64) -> StoreFile {
        StoreFile {
            io: self.clone(),
            file,
            path: path.to_path_buf(),
            len,
            synced_len: len,
        }
    }

    /// Renames `from` to `to` (atomic within a directory).
    pub(crate) fn rename(&self, from: &Path, to: &Path) -> Result<(), StoreError> {
        if let Some(f) = self.decide(IoOp::Rename) {
            return Err(f.to_error(from));
        }
        std::fs::rename(from, to).map_err(|e| StoreError::io(from, e))
    }

    /// Removes a file.
    pub(crate) fn remove_file(&self, path: &Path) -> Result<(), StoreError> {
        if let Some(f) = self.decide(IoOp::Remove) {
            return Err(f.to_error(path));
        }
        std::fs::remove_file(path).map_err(|e| StoreError::io(path, e))
    }

    /// Syncs a directory so a rename or removal inside it is durable.
    /// Platforms that cannot fsync a directory handle report
    /// `Unsupported`, which is a capability gap, not a lost
    /// acknowledgment — every other failure propagates.
    pub(crate) fn dir_sync(&self, dir: &Path) -> Result<(), StoreError> {
        if let Some(f) = self.decide(IoOp::DirSync) {
            return Err(f.to_error(dir));
        }
        let d = File::open(dir).map_err(|e| StoreError::io(dir, e))?;
        match d.sync_data() {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::Unsupported => Ok(()),
            Err(e) => Err(StoreError::io(dir, e)),
        }
    }
}

/// Locks an injector plan; a poisoned lock yields the inner state (the
/// plan has no invariants a panicked holder could have broken
/// half-way).
fn lock(plan: &Mutex<FaultPlan>) -> MutexGuard<'_, FaultPlan> {
    match plan.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A writable file handle routed through a [`StoreIo`]. Tracks the
/// written and last-synced lengths so the injector can model
/// fsync-failure-drops-buffered-pages faithfully.
pub struct StoreFile {
    io: StoreIo,
    file: File,
    path: PathBuf,
    len: u64,
    synced_len: u64,
}

impl StoreFile {
    /// Bytes written so far (durable or not).
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Writes all of `bytes`, or fails having written either nothing
    /// (EIO/ENOSPC) or a prefix (short write).
    #[inline]
    pub(crate) fn write_all(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        match self.io.decide(IoOp::Write) {
            None => {
                self.file
                    .write_all(bytes)
                    .map_err(|e| StoreError::io(&self.path, e))?;
                self.len += bytes.len() as u64;
                Ok(())
            }
            Some(Fault::ShortWrite) => {
                let (prefix, _) = bytes.split_at(bytes.len() / 2);
                // A prefix lands, the rest does not — the torn shape of
                // a failing write. If even the prefix fails to land,
                // strictly less survives, which recovery treats the
                // same way.
                self.len += self
                    .file
                    .write_all(prefix)
                    .map(|()| prefix.len() as u64)
                    .unwrap_or(0);
                Err(Fault::ShortWrite.to_error(&self.path))
            }
            Some(fault) => Err(fault.to_error(&self.path)),
        }
    }

    /// Syncs written bytes to disk. An injected [`Fault::FsyncLoss`]
    /// also truncates the file back to its last successfully-synced
    /// length, modeling a kernel dropping the dirty pages it failed to
    /// write back.
    pub(crate) fn sync_data(&mut self) -> Result<(), StoreError> {
        match self.io.decide(IoOp::Sync) {
            None => {
                self.file
                    .sync_data()
                    .map_err(|e| StoreError::io(&self.path, e))?;
                self.synced_len = self.len;
                Ok(())
            }
            Some(Fault::FsyncLoss) => {
                // fsyncgate: the unsynced suffix vanishes with the
                // failed writeback. If even the truncation fails, the
                // bytes merely survive — less loss than the model
                // permits, never more.
                self.len = self
                    .file
                    .set_len(self.synced_len)
                    .map(|()| self.synced_len)
                    .unwrap_or(self.len);
                Err(Fault::FsyncLoss.to_error(&self.path))
            }
            Some(fault) => Err(fault.to_error(&self.path)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        iixml_gen::testkit::scratch_dir("iixml-io", name)
    }

    #[test]
    fn real_io_roundtrips() {
        let dir = tmp("real");
        let io = StoreIo::real();
        assert!(io.is_real());
        let path = dir.join("f");
        let mut f = io.create_new(&path).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync_data().unwrap();
        assert_eq!(f.len(), 5);
        drop(f);
        let mut f = io.open_append(&path).unwrap();
        f.write_all(b" world").unwrap();
        assert_eq!(f.len(), 11);
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"hello world");
        let moved = dir.join("g");
        io.rename(&path, &moved).unwrap();
        io.dir_sync(&dir).unwrap();
        io.remove_file(&moved).unwrap();
        assert!(io.injected().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fail_at_hits_exactly_the_nth_operation() {
        let dir = tmp("nth");
        // Ops: create (1), write (2), sync (3) — fail the write.
        let io = StoreIo::fail_at(7, 2);
        let mut f = io.create_new(&dir.join("f")).unwrap();
        let err = f.write_all(b"doomed").unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }));
        assert_eq!(io.injected().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let run = |seed: u64| -> Vec<(IoOp, Fault)> {
            let dir = tmp(&format!("det-{seed}-{}", std::process::id()));
            let io = StoreIo::faulty(seed, 0.5);
            for i in 0..8 {
                let path = dir.join(format!("f{i}"));
                if let Ok(mut f) = io.create_new(&path) {
                    let _ = f.write_all(b"payload").and_then(|()| f.sync_data());
                }
            }
            let injected = io.injected();
            std::fs::remove_dir_all(&dir).unwrap();
            injected
        };
        assert_eq!(run(42), run(42));
        assert!(!run(42).is_empty(), "rate 0.5 over 24 ops injected nothing");
    }

    #[test]
    fn fsync_loss_drops_unsynced_bytes_only() {
        let dir = tmp("fsyncgate");
        let io = StoreIo::faulty(1, 0.0);
        let path = dir.join("f");
        let mut f = io.create_new(&path).unwrap();
        f.write_all(b"durable").unwrap();
        f.sync_data().unwrap();
        f.write_all(b" doomed").unwrap();
        io.inject_once(IoOp::Sync, Fault::FsyncLoss);
        assert!(f.sync_data().is_err());
        drop(f);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"durable",
            "synced bytes survive, unsynced bytes are gone"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_write_lands_a_prefix() {
        let dir = tmp("short");
        let io = StoreIo::faulty(1, 0.0);
        let path = dir.join("f");
        let mut f = io.create_new(&path).unwrap();
        io.inject_once(IoOp::Write, Fault::ShortWrite);
        assert!(f.write_all(b"0123456789").is_err());
        assert_eq!(f.len(), 5, "half the bytes landed");
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"01234");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
