//! Checksummed snapshots of the session state.
//!
//! A snapshot captures the alphabet and the current incomplete tree
//! (serialized with `core::io::write_incomplete_xml`) after a known
//! number of journal records, so recovery can start from it and replay
//! only the tail instead of the whole Refine chain.
//!
//! ## On-disk layout
//!
//! `snap-NNNNNN.snap` (NNNNNN = records covered), containing:
//!
//! ```text
//! +---------+---------+--------------+---------+
//! | IIXSNAP | version | crc32: u32 LE| payload |
//! +---------+---------+--------------+---------+
//! ```
//!
//! The payload (version 2) is the record count (`u64` LE), the alphabet
//! (count plus length-prefixed names in interning order), the initial
//! knowledge (presence byte plus length-prefixed XML), and the current
//! knowledge XML — everything needed to rebuild a `Refiner`, and to
//! replay quarantine/source-update resets in the tail, without the
//! journal prefix. Version-1 files (no initial field) still decode;
//! see CONTRIBUTING.md's versioning policy.
//!
//! Writes are atomic: the bytes go to a `.tmp` file, are synced, and the
//! file is renamed into place (then the directory is synced). A crash
//! mid-snapshot leaves at worst a stale `.tmp`, never a half snapshot
//! under the real name.

use crate::crc::crc32;
use crate::error::StoreError;
use crate::io::StoreIo;
use crate::wal::{OBS_DIR_SYNC_FAILS, OBS_FSYNCS, OBS_IO_FAULTS};
use iixml_obs::{keys, LazyHistogram};
use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};

/// Snapshot payload sizes, in bytes.
static OBS_SNAPSHOT_BYTES: LazyHistogram = LazyHistogram::new(keys::STORE_SNAPSHOT_BYTES);

pub use crate::format::{SNAPSHOT_MAGIC, SNAPSHOT_VERSION, SNAPSHOT_VERSION_V1};

use crate::format::SNAPSHOT_HEADER_LEN as HEADER_LEN;

/// A decoded snapshot: session state after `seq` journal records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Number of journal records this state reflects.
    pub seq: u64,
    /// Alphabet names in interning order.
    pub alpha: Vec<String>,
    /// The session's initial knowledge (`core::io` XML form), so a
    /// journal whose `Open` record was compacted away can still replay
    /// reset records. `None` when decoded from a version-1 file.
    pub initial: Option<String>,
    /// The knowledge (incomplete tree), `core::io` XML form.
    pub knowledge: String,
}

impl Snapshot {
    /// File name for the snapshot covering `seq` records.
    pub fn file_name(seq: u64) -> String {
        format!("snap-{seq:06}.snap")
    }

    fn payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&(self.alpha.len() as u32).to_le_bytes());
        for name in &self.alpha {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
        }
        match &self.initial {
            None => out.push(0),
            Some(initial) => {
                out.push(1);
                out.extend_from_slice(&(initial.len() as u32).to_le_bytes());
                out.extend_from_slice(initial.as_bytes());
            }
        }
        out.extend_from_slice(&(self.knowledge.len() as u32).to_le_bytes());
        out.extend_from_slice(self.knowledge.as_bytes());
        out
    }

    /// Writes the snapshot into `dir` atomically. Returns the file name
    /// and payload CRC (recorded in the journal's `SnapshotRef`).
    pub fn write(&self, dir: &Path) -> Result<(String, u32), StoreError> {
        self.write_with(dir, &StoreIo::real())
    }

    /// [`Snapshot::write`] through an explicit [`StoreIo`] handle.
    ///
    /// Fail-safe: any step's failure aborts cleanly — the `.tmp` file is
    /// removed, the previously installed snapshot (if any) is untouched,
    /// and the error is returned with `store.io_faults` bumped. A
    /// dir-fsync failure *after* the rename still fails the call (the
    /// install may not survive a power cut), but leaves the complete,
    /// checksummed file in place; the caller never records a
    /// `SnapshotRef` for it, so recovery treats it as a bonus anchor at
    /// best.
    pub fn write_with(&self, dir: &Path, io: &StoreIo) -> Result<(String, u32), StoreError> {
        let payload = self.payload();
        let crc = crc32(&payload);
        let name = Snapshot::file_name(self.seq);
        let tmp = dir.join(format!("{name}.tmp"));
        let dest = dir.join(&name);
        match write_steps(&payload, crc, io, &tmp, &dest, dir) {
            Ok(()) => {
                OBS_SNAPSHOT_BYTES.observe(payload.len() as u64);
                Ok((name, crc))
            }
            Err(e) => {
                OBS_IO_FAULTS.incr();
                if tmp.exists() {
                    match io.remove_file(&tmp) {
                        Ok(()) => {}
                        // The stale tmp is swept at the next recovery;
                        // the original fault is the one worth reporting.
                        Err(_) => OBS_IO_FAULTS.incr(),
                    }
                }
                Err(e)
            }
        }
    }

    /// Loads and verifies a snapshot file. Total over arbitrary bytes:
    /// corrupt input yields [`StoreError::SnapshotCorrupt`] (or
    /// `VersionMismatch`), never a panic.
    pub fn load(path: &Path) -> Result<Snapshot, StoreError> {
        let mut bytes = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| StoreError::io(path, e))?;
        Snapshot::decode(path, &bytes)
    }

    /// Verifies and decodes snapshot file bytes (header + payload).
    pub fn decode(path: &Path, bytes: &[u8]) -> Result<Snapshot, StoreError> {
        let corrupt = |reason: &str| StoreError::SnapshotCorrupt {
            path: path.to_path_buf(),
            reason: reason.to_string(),
        };
        if bytes.len() < HEADER_LEN {
            return Err(corrupt("file shorter than header"));
        }
        if bytes[..7] != SNAPSHOT_MAGIC {
            return Err(corrupt("bad magic"));
        }
        let version = bytes[7];
        if version != SNAPSHOT_VERSION && version != SNAPSHOT_VERSION_V1 {
            return Err(StoreError::VersionMismatch {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let crc = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        let payload = &bytes[HEADER_LEN..];
        if crc32(payload) != crc {
            crate::wal::OBS_CRC_REJECTS.incr();
            return Err(corrupt("payload checksum mismatch"));
        }
        // The payload is checksum-verified, but stay total anyway — the
        // CRC could itself have been rewritten along with the payload.
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], StoreError> {
            if payload.len() - *pos < n {
                return Err(corrupt("truncated payload"));
            }
            let s = &payload[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        let b = take(&mut pos, 8)?;
        let seq = u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
        let b = take(&mut pos, 4)?;
        let n = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize;
        if n > payload.len() {
            return Err(corrupt("alphabet count exceeds payload"));
        }
        let mut alpha = Vec::with_capacity(n);
        for _ in 0..n {
            let b = take(&mut pos, 4)?;
            let len = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize;
            let s = take(&mut pos, len)?;
            alpha.push(
                String::from_utf8(s.to_vec()).map_err(|_| corrupt("alphabet name not utf-8"))?,
            );
        }
        // Version 1 has no initial-knowledge field; version 2 carries a
        // presence byte followed by the length-prefixed XML.
        let initial = if version == SNAPSHOT_VERSION_V1 {
            None
        } else {
            match take(&mut pos, 1)? {
                [0] => None,
                [1] => {
                    let b = take(&mut pos, 4)?;
                    let len = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize;
                    let s = take(&mut pos, len)?;
                    Some(
                        String::from_utf8(s.to_vec())
                            .map_err(|_| corrupt("initial knowledge not utf-8"))?,
                    )
                }
                _ => return Err(corrupt("bad initial-knowledge presence byte")),
            }
        };
        let b = take(&mut pos, 4)?;
        let len = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize;
        let s = take(&mut pos, len)?;
        let knowledge =
            String::from_utf8(s.to_vec()).map_err(|_| corrupt("knowledge not utf-8"))?;
        if pos != payload.len() {
            return Err(corrupt("trailing payload bytes"));
        }
        Ok(Snapshot {
            seq,
            alpha,
            initial,
            knowledge,
        })
    }
}

/// The fallible step sequence of an atomic snapshot install:
/// create tmp → write header + payload → fsync → rename → dir-fsync.
/// Dir-fsync failures are propagated, not `.is_ok()`-swallowed — only a
/// platform that cannot sync directories at all (`Unsupported`) is
/// excused, inside [`StoreIo::dir_sync`].
fn write_steps(
    payload: &[u8],
    crc: u32,
    io: &StoreIo,
    tmp: &Path,
    dest: &Path,
    dir: &Path,
) -> Result<(), StoreError> {
    let mut f = io.create(tmp)?;
    f.write_all(&SNAPSHOT_MAGIC)?;
    f.write_all(&[SNAPSHOT_VERSION])?;
    f.write_all(&crc.to_le_bytes())?;
    f.write_all(payload)?;
    f.sync_data()?;
    OBS_FSYNCS.incr();
    drop(f);
    io.rename(tmp, dest)?;
    match io.dir_sync(dir) {
        Ok(()) => {
            OBS_FSYNCS.incr();
            Ok(())
        }
        Err(e) => {
            OBS_DIR_SYNC_FAILS.incr();
            Err(e)
        }
    }
}

/// Lists snapshot files in `dir`, sorted by covered record count.
pub fn list(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| StoreError::io(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io(dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = name
            .strip_prefix("snap-")
            .and_then(|s| s.strip_suffix(".snap"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((seq, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// Removes stale `.tmp` files left by a crash mid-snapshot.
pub fn sweep_tmp(dir: &Path) -> Result<(), StoreError> {
    let entries = std::fs::read_dir(dir).map_err(|e| StoreError::io(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io(dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with("snap-") && name.ends_with(".tmp") {
            let path = entry.path();
            std::fs::remove_file(&path).map_err(|e| StoreError::io(&path, e))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        iixml_gen::testkit::scratch_dir("iixml-snap", name)
    }

    fn sample() -> Snapshot {
        Snapshot {
            seq: 17,
            alpha: vec!["catalog".into(), "product".into(), "priçe".into()],
            initial: Some("<incomplete>\n</incomplete>\n".into()),
            knowledge: "<incomplete>\n  <data-node nid=\"0\" label=\"catalog\"/>\n</incomplete>\n"
                .into(),
        }
    }

    #[test]
    fn write_load_roundtrip() {
        let dir = tmp("roundtrip");
        let snap = sample();
        let (name, crc) = snap.write(&dir).unwrap();
        assert_eq!(name, "snap-000017.snap");
        assert_ne!(crc, 0);
        let loaded = Snapshot::load(&dir.join(&name)).unwrap();
        assert_eq!(loaded, snap);
        assert_eq!(list(&dir).unwrap(), vec![(17, dir.join(&name))]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bitflip_is_rejected() {
        let dir = tmp("bitflip");
        let (name, _) = sample().write(&dir).unwrap();
        let path = dir.join(&name);
        let bytes = std::fs::read(&path).unwrap();
        for i in [0usize, 7, 9, HEADER_LEN + 3, bytes.len() - 1] {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x40;
            std::fs::write(&path, &flipped).unwrap();
            assert!(Snapshot::load(&path).is_err(), "flip at byte {i} accepted");
        }
        // Restore and confirm it still loads (the flips were the problem).
        std::fs::write(&path, &bytes).unwrap();
        assert!(Snapshot::load(&path).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn absent_initial_roundtrips() {
        let dir = tmp("noinit");
        let snap = Snapshot {
            initial: None,
            ..sample()
        };
        let (name, _) = snap.write(&dir).unwrap();
        assert_eq!(Snapshot::load(&dir.join(&name)).unwrap(), snap);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The pinned version-1 bytes (CONTRIBUTING.md: readers keep every
    /// version they ever shipped). Layout: magic, version 1, payload
    /// CRC, then seq / alphabet / knowledge — no initial field.
    #[test]
    fn version_1_files_still_decode() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&3u64.to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&7u32.to_le_bytes());
        payload.extend_from_slice(b"catalog");
        let knowledge = b"<incomplete>\n</incomplete>\n";
        payload.extend_from_slice(&(knowledge.len() as u32).to_le_bytes());
        payload.extend_from_slice(knowledge);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SNAPSHOT_MAGIC);
        bytes.push(SNAPSHOT_VERSION_V1);
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let snap = Snapshot::decode(Path::new("pinned-v1.snap"), &bytes).unwrap();
        assert_eq!(snap.seq, 3);
        assert_eq!(snap.alpha, vec!["catalog".to_string()]);
        assert_eq!(snap.initial, None);
        assert_eq!(snap.knowledge, String::from_utf8_lossy(knowledge));
    }

    #[test]
    fn arbitrary_bytes_never_panic() {
        let dir = tmp("arb");
        let path = dir.join("snap-000000.snap");
        for junk in [
            &b""[..],
            &b"IIXSNAP"[..],
            &b"IIXSNAP\x01\0\0\0\0"[..],
            &[0xFFu8; 40][..],
        ] {
            std::fs::write(&path, junk).unwrap();
            assert!(Snapshot::load(&path).is_err());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_write_aborts_cleanly_and_keeps_the_old_snapshot() {
        use crate::io::{Fault, IoOp};
        let dir = tmp("abort");
        let old = Snapshot { seq: 5, ..sample() };
        old.write(&dir).unwrap();
        let io = StoreIo::faulty(23, 0.0);
        for fault in [
            (IoOp::Write, Fault::Enospc),
            (IoOp::Write, Fault::ShortWrite),
            (IoOp::Sync, Fault::Eio),
            (IoOp::Rename, Fault::Eio),
        ] {
            io.inject_once(fault.0, fault.1);
            let next = Snapshot { seq: 9, ..sample() };
            assert!(next.write_with(&dir, &io).is_err());
            assert!(
                !dir.join("snap-000009.snap.tmp").exists(),
                "tmp removed after {fault:?}"
            );
            assert!(!dir.join("snap-000009.snap").exists());
            // The previously installed snapshot is intact.
            let survivor = Snapshot::load(&dir.join(Snapshot::file_name(5))).unwrap();
            assert_eq!(survivor, old);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn post_rename_dir_sync_failure_still_fails_the_call() {
        use crate::io::{Fault, IoOp};
        let dir = tmp("dirsync");
        let io = StoreIo::faulty(29, 0.0);
        io.inject_once(IoOp::DirSync, Fault::Eio);
        let snap = sample();
        assert!(snap.write_with(&dir, &io).is_err());
        // The install happened (complete, checksummed file) but was not
        // acknowledged; the caller writes no SnapshotRef for it.
        assert!(Snapshot::load(&dir.join(Snapshot::file_name(17))).is_ok());
        assert!(!dir
            .join(format!("{}.tmp", Snapshot::file_name(17)))
            .exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_removes_stale_tmp() {
        let dir = tmp("sweep");
        std::fs::write(dir.join("snap-000003.snap.tmp"), b"half-written").unwrap();
        sample().write(&dir).unwrap();
        sweep_tmp(&dir).unwrap();
        assert!(!dir.join("snap-000003.snap.tmp").exists());
        assert_eq!(list(&dir).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
