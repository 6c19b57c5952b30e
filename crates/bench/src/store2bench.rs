//! Group-commit, compaction, and concurrent-recovery workloads — the
//! `BENCH_store2.json` emitter (PR 6).
//!
//! Four cost families of the upgraded durability layer:
//!
//! * `append baseline` — per-record durable append under the default
//!   flush policy (one fsync per record; the retired durability bench's
//!   ceiling);
//! * `append batched` — the same records through a batched
//!   [`FlushPolicy`] with an explicit `sync()` barrier at the end —
//!   the headline: one fsync amortized over a whole batch;
//! * `compaction` — live bytes and segments of a snapshotted chain
//!   after automatic segment retirement, against the same chain with
//!   no snapshots (nothing retirable), and the recovery time of each:
//!   the snapshot cadence turns O(chain) replay into snapshot + short
//!   tail (the cadence gate moved here from the retired durability
//!   bench);
//! * `recovery` — wall time of recovering a fleet of independent
//!   journals through `Webhouse::recover_sessions` at par widths 1 and
//!   4, with a byte-identity check across widths.
//!
//! The ≥10x group-commit claim has two in-run routes (see [`GATES`]):
//! the batched/baseline speedup, robust when the fsync is slow, or 10x
//! the per-record-fsync WAL's appends/sec, robust when the fsync is
//! fast. A machine fails only if group commit genuinely stopped
//! amortizing.

use crate::gates::with_gates;
use crate::harness::median_ns;
use iixml_core::Refiner;
use iixml_obs::json::Json;
use iixml_query::{Answer, PsQuery};
use iixml_store::wal::{encode_frame_into, Wal, FORMAT_VERSION, SEGMENT_MAGIC};
use iixml_store::{recover, FlushPolicy, RecoveryMode, RecoveryStatus, SessionJournal, StoreIo};
use iixml_tree::{Alphabet, DataTree};
use iixml_webhouse::{Source, Webhouse};
use std::path::PathBuf;

/// The gates `BENCH_store2.json` carries (see [`crate::gates`]). The
/// ≥10x group-commit claim has two routes, so either passes in-run;
/// the second's blessed value is 10x the per-record-fsync WAL of the
/// retired durability bench (6721.98157294789 appends/s, 1-core host).
pub const GATES: &str = r#"[
  {"metric": "append.batch_speedup", "rule": "at_least", "blessed": 10.0, "scope": "both",
   "any_of": "group_commit", "claim": "group commit vs per-record fsync"},
  {"metric": "append.batched_appends_per_sec", "rule": "at_least", "blessed": 67219.8157294789,
   "scope": "both", "any_of": "group_commit", "claim": "appends/sec vs 10x the per-record-fsync 6721.98/s"},
  {"metric": "append.io_overhead_ratio", "rule": "at_most", "blessed": 1.03, "scope": "run",
   "claim": "StoreIo seam vs the pre-seam writer"},
  {"metric": "compaction.cadence_recovery_ratio", "rule": "at_least", "blessed": 0.8,
   "scope": "run", "claim": "snapshot-cadence recovery vs plain replay"},
  {"metric": "recovery.recovery_par_ratio", "rule": "at_least", "blessed": 0.5, "scope": "both",
   "claim": "width-4 fleet recovery vs width 1"},
  {"metric": "recovery.deterministic", "rule": "equals", "blessed": 1.0, "scope": "run",
   "claim": "fleet recovery byte-identical across par widths"}
]"#;

/// Compaction outcome on a snapshotted chain.
pub struct CompactionStats {
    /// Records in the journal.
    pub chain: usize,
    /// Segments still on disk after automatic retirement.
    pub live_segments: usize,
    /// Segments retired (the first live segment's index).
    pub retired_segments: u64,
    /// Bytes on disk (segments only) after retirement.
    pub live_bytes: u64,
    /// Bytes the same chain occupies with no snapshot cadence (nothing
    /// retirable — the unbounded-log baseline).
    pub uncompacted_bytes: u64,
    /// Median ns to recover the snapshotted chain.
    pub compacted_recover_ns: f64,
    /// Median ns to recover the same chain with no snapshots.
    pub plain_recover_ns: f64,
}

/// Concurrent fleet recovery at two par widths.
pub struct ConcurrentRecovery {
    /// Independent journaled sessions recovered per run.
    pub sessions: usize,
    /// Records per journal.
    pub chain: usize,
    /// Median ns for the whole fleet at width 1.
    pub width1_ns: f64,
    /// Median ns for the whole fleet at width 4.
    pub width4_ns: f64,
    /// Whether the recovered knowledge was byte-identical across
    /// widths (the order-preserving determinism contract).
    pub deterministic: bool,
}

/// The full PR 6 durability report.
pub struct Store2Report {
    /// Whether this was a `--quick` (CI smoke) run.
    pub quick: bool,
    /// Refine appends per timed batch.
    pub append_records: usize,
    /// Median ns per durable append, default policy (fsync/record).
    pub baseline_ns: f64,
    /// Median ns per append under [`FlushPolicy::batched`] including
    /// the closing `sync()` barrier.
    pub batched_ns: f64,
    /// Appends per seam-probe burst (fsync excluded on both sides, so
    /// the burst measures the per-record write path alone).
    pub probe_records: usize,
    /// Best-burst ns per append routed through the [`StoreIo`] seam
    /// (`Wal::append` on the real backend, one seam crossing each).
    pub dispatch_ns: f64,
    /// Best-burst ns per append of the same burst through a handwritten
    /// encode + `write_all` loop with no seam.
    pub raw_ns: f64,
    /// Median of iteration-paired dispatch/raw ratios — the gate
    /// statistic (paired bursts share machine state, so the ratio is
    /// immune to frequency drift across the run).
    pub io_ratio: f64,
    /// Compaction outcome.
    pub compaction: CompactionStats,
    /// Concurrent recovery outcome.
    pub recovery: ConcurrentRecovery,
}

fn scratch(name: &str) -> PathBuf {
    iixml_gen::testkit::scratch_dir("iixml-store2", name)
}

/// A catalog fixture that keeps its document (fleet recovery needs a
/// fresh [`Source`] per session) and pre-generates the query pool so
/// the frozen alphabet can spell every record.
struct Fixture {
    alpha: Alphabet,
    initial: iixml_core::IncompleteTree,
    doc: DataTree,
    steps: Vec<(PsQuery, Answer)>,
}

fn fixture(products: usize, steps: usize, seed: u64) -> Fixture {
    let mut cat = iixml_gen::catalog(products, seed);
    let bounds = [150i64, 200, 250, 300, 400, 500];
    let mut queries: Vec<PsQuery> = bounds
        .iter()
        .map(|&b| iixml_gen::catalog_query_price_below(&mut cat.alpha, b))
        .collect();
    queries.push(iixml_gen::catalog_query_camera_pictures(&mut cat.alpha));
    let alpha = cat.alpha.clone();
    let initial = Refiner::new(&alpha).current().clone();
    let steps = queries
        .iter()
        .cycle()
        .take(steps)
        .map(|q| (q.clone(), q.eval(&cat.doc)))
        .collect();
    Fixture {
        alpha,
        initial,
        doc: cat.doc,
        steps,
    }
}

/// Appends the fixture's refine chain under `policy`, closing with the
/// `sync()` barrier, and returns the whole-chain cost (the caller
/// divides by the record count). Journal creation and the open record
/// happen *outside* the timed region — the measurement is the steady
/// state of the append path, where the policies actually differ.
fn timed_chain(fx: &Fixture, dir: &std::path::Path, policy: FlushPolicy, samples: usize) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).unwrap();
            let mut journal = SessionJournal::create(dir).unwrap();
            journal.set_segment_bytes(256 * 1024);
            journal.set_snapshot_every(None);
            journal.set_flush_policy(policy).unwrap();
            journal.log_open(&fx.alpha, &fx.initial).unwrap();
            let t0 = std::time::Instant::now();
            for (q, ans) in &fx.steps {
                journal.log_refine(&fx.alpha, q, ans).unwrap();
            }
            journal.sync().unwrap();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Stand-ins for the store's `OBS_APPENDS`/`OBS_FSYNCS` lazy counters:
/// same discipline (one-time slot resolution, relaxed add) without
/// registering bench-only keys in the metrics registry (iixml-vet's
/// metrics rule keeps the key catalog in `iixml_obs::keys`).
static RAW_APPENDS_CELL: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static RAW_APPENDS: std::sync::OnceLock<&'static std::sync::atomic::AtomicU64> =
    std::sync::OnceLock::new();

/// A faithful replica of the *pre-seam* WAL writer (the shape shipped
/// before the `StoreIo` abstraction): a bare `std::fs::File` plus the
/// same per-append bookkeeping — frame encode, roll check, error
/// mapping into [`StoreError`], sync-flag check, length accounting,
/// metrics touch. The one pre-seam cost deliberately *omitted* is the
/// per-append `seg_path` recomputation (a `PathBuf` build the seam
/// refactor removed); leaving it out handicaps the baseline in the
/// raw side's favor, so the measured ratio is an upper bound on the
/// seam's true cost.
struct PreSeamWal {
    dir: PathBuf,
    file: std::fs::File,
    seg_len: u64,
    segment_bytes: u64,
    sync: bool,
}

impl PreSeamWal {
    #[inline]
    fn append(&mut self, payload: &[u8]) -> Result<(), iixml_store::StoreError> {
        let mut frame = Vec::new();
        encode_frame_into(&mut frame, payload);
        self.write_batch(&frame, 1)
    }

    #[inline]
    fn write_batch(&mut self, bytes: &[u8], records: u64) -> Result<(), iixml_store::StoreError> {
        use std::io::Write as _;
        if self.seg_len >= self.segment_bytes {
            unreachable!("seam probe never rolls");
        }
        self.file
            .write_all(bytes)
            .map_err(|e| iixml_store::StoreError::io(&self.dir, e))?;
        if self.sync {
            self.file
                .sync_data()
                .map_err(|e| iixml_store::StoreError::io(&self.dir, e))?;
        }
        self.seg_len += bytes.len() as u64;
        RAW_APPENDS
            .get_or_init(|| &RAW_APPENDS_CELL)
            .fetch_add(records, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }
}

fn segment_bytes_on_disk(dir: &std::path::Path) -> u64 {
    iixml_store::wal::Wal::segments(dir)
        .unwrap()
        .iter()
        .map(|(_, p)| std::fs::metadata(p).unwrap().len())
        .sum()
}

/// Runs every group; `quick` shrinks workloads and sample counts.
pub fn run(quick: bool) -> Store2Report {
    // -- append: default policy vs batched policy ----------------------
    // Same burst size in both modes — the CI trajectory job diffs a
    // quick run against the committed full baseline, so the append
    // numbers must be commensurable; quick only trims the sample
    // count. (A fsync-bound sample is ~20 ms, so even the full sample
    // count is cheap.)
    let append_records = 128;
    let append_samples = if quick { 7 } else { 15 };
    let fx = fixture(2, append_records, 0xBE7C);
    let dir = scratch("append");
    let baseline_ns =
        timed_chain(&fx, &dir, FlushPolicy::default(), append_samples) / append_records as f64;
    // The workload is a burst of appends closed by one `sync()`
    // barrier, so the batched side uses byte-bounded batches sized to
    // hold the burst (a 256 KiB segment) — the barrier's fsync is the
    // batch's only fsync, which is exactly the group-commit claim
    // being measured. Record- and linger-bounded flushing is exercised
    // (and asserted on) in the wal unit tests and the torn-batch
    // recovery matrix.
    let burst = FlushPolicy {
        max_batch_bytes: 256 * 1024,
        max_batch_records: u64::MAX,
        max_linger_ticks: u64::MAX,
    };
    let batched_ns = timed_chain(&fx, &dir, burst, append_samples) / append_records as f64;
    let _ = std::fs::remove_dir_all(&dir);

    // -- io dispatch: the StoreIo seam on the append write path --------
    // PR 9 routes every durability byte through the StoreIo enum (real
    // vs fault-injecting backend), plus a sticky-fault check per
    // append. This measures that seam at its *densest* crossing rate:
    // `Wal::append` with per-append fsync off issues one seam-mediated
    // `write_all` per record, against a [`PreSeamWal`] — a faithful
    // replica of the writer as it shipped before the seam (bare
    // `std::fs::File`, same frame encode, roll check, error mapping,
    // length accounting, metrics touch) — so the delta is the StoreIo
    // indirection plus the sticky-fault check, the two things the
    // seam refactor added to the write path. Group-commit batching
    // crosses the seam once per *burst*, so the per-record ratio here
    // is a strict upper bound on the batched-append overhead. fsync is
    // excluded from the timed region on both sides: it is the identical
    // syscall through either path, and its device-dependent latency
    // (~100µs, heavy-tailed) would otherwise swamp the nanosecond-scale
    // seam signal. Payloads are sized to the measured mean journal
    // record (~390 B framed — see the compaction fixture's
    // bytes-per-record), so the per-call seam cost is weighed against
    // a realistic write, not a toy one. Machine state (CPU frequency,
    // container throttling) drifts across a run, so the gate statistic
    // is the median of *iteration-paired* ratios — the two sides of
    // one iteration run back-to-back under the same machine state, and
    // alternating their order cancels any systematic first-mover
    // advantage. The per-side ns figures reported alongside are each
    // side's best burst (pure CPU + page-cache writes, so the minimum
    // is the interference-free cost). The report gate requires the
    // ratio ≤ 1.03 (see DESIGN.md §14).
    let probe_records = 2048usize;
    let payloads: Vec<Vec<u8>> = (0..probe_records)
        .map(|i| format!("dispatch-probe-{i:04}-{}", "y".repeat(360)).into_bytes())
        .collect();
    // Bursts are fsync-free (~2ms each), so a deep sample pool is
    // cheap and the per-side minimum has many clean windows to find.
    let io_samples = if quick { 65 } else { 129 };
    let dispatch_dir = scratch("dispatch");
    let raw_dir = scratch("raw");
    let timed_dispatch = |payloads: &[Vec<u8>]| -> f64 {
        // Seam side: Wal::create_with(StoreIo::real()), one write_all
        // through the seam per append, durability barrier after t1.
        let _ = std::fs::remove_dir_all(&dispatch_dir);
        std::fs::create_dir_all(&dispatch_dir).unwrap();
        let mut wal = Wal::create_with(&dispatch_dir, StoreIo::real()).unwrap();
        wal.sync = false;
        wal.segment_bytes = u64::MAX;
        // Warm append outside the timed region so file creation and the
        // first page-cache extension bill neither side's burst.
        wal.append(b"warm").unwrap();
        let t0 = std::time::Instant::now();
        for p in payloads {
            wal.append(p).unwrap();
        }
        t0.elapsed().as_nanos() as f64
    };
    let timed_raw = |payloads: &[Vec<u8>]| -> f64 {
        let _ = std::fs::remove_dir_all(&raw_dir);
        std::fs::create_dir_all(&raw_dir).unwrap();
        let mut file = std::fs::File::create(raw_dir.join("seg-000000.wal")).unwrap();
        use std::io::Write as _;
        file.write_all(&SEGMENT_MAGIC).unwrap();
        file.write_all(&[FORMAT_VERSION]).unwrap();
        let mut warm = Vec::new();
        encode_frame_into(&mut warm, b"warm");
        file.write_all(&warm).unwrap();
        let mut wal = PreSeamWal {
            dir: raw_dir.clone(),
            file,
            seg_len: 8 + warm.len() as u64,
            segment_bytes: u64::MAX,
            sync: false,
        };
        let t0 = std::time::Instant::now();
        for p in payloads {
            wal.append(p).unwrap();
        }
        t0.elapsed().as_nanos() as f64
    };
    let mut dispatch_times: Vec<f64> = Vec::with_capacity(io_samples);
    let mut raw_times: Vec<f64> = Vec::with_capacity(io_samples);
    for s in 0..io_samples {
        if s % 2 == 0 {
            dispatch_times.push(timed_dispatch(&payloads));
            raw_times.push(timed_raw(&payloads));
        } else {
            raw_times.push(timed_raw(&payloads));
            dispatch_times.push(timed_dispatch(&payloads));
        }
    }
    let _ = std::fs::remove_dir_all(&dispatch_dir);
    let _ = std::fs::remove_dir_all(&raw_dir);
    let mut pair_ratios: Vec<f64> = dispatch_times
        .iter()
        .zip(&raw_times)
        .map(|(d, r)| d / r.max(1.0))
        .collect();
    pair_ratios.sort_by(f64::total_cmp);
    let io_ratio = pair_ratios[pair_ratios.len() / 2];
    dispatch_times.sort_by(f64::total_cmp);
    raw_times.sort_by(f64::total_cmp);
    let dispatch_ns = dispatch_times[0] / probe_records as f64;
    let raw_ns = raw_times[0] / probe_records as f64;

    // -- compaction: live footprint of a snapshotted chain -------------
    let chain = if quick { 64 } else { 192 };
    let cfx = fixture(3, chain, 0xC0DA);
    let build = |dir: &std::path::Path, every: Option<u64>| -> usize {
        let mut journal = SessionJournal::create(dir).unwrap();
        journal.set_segment_bytes(4 * 1024);
        journal.set_snapshot_every(every);
        let mut refiner = Refiner::new(&cfx.alpha);
        journal.log_open(&cfx.alpha, &cfx.initial).unwrap();
        for (q, ans) in &cfx.steps {
            refiner.refine(&cfx.alpha, q, ans).unwrap();
            journal.log_refine(&cfx.alpha, q, ans).unwrap();
            journal
                .maybe_snapshot(&cfx.alpha, refiner.current())
                .unwrap();
        }
        journal.seq() as usize
    };
    let compacted_dir = scratch("compact");
    let total = build(&compacted_dir, Some(16));
    let plain_dir = scratch("uncompacted");
    let plain_total = build(&plain_dir, None);
    let segs = iixml_store::wal::Wal::segments(&compacted_dir).unwrap();
    // The sample counts of the retired bench the cadence gate came from.
    let recover_samples = if quick { 3 } else { 7 };
    let recover_ns = |dir: &std::path::Path, records: usize| {
        median_ns(recover_samples, || {
            let rec = recover(dir, RecoveryMode::Degrade).unwrap();
            assert_eq!(rec.status, RecoveryStatus::Clean, "chain dirty");
            assert_eq!(rec.replayed, records, "chain lost records");
        })
    };
    let compaction = CompactionStats {
        chain: total,
        live_segments: segs.len(),
        retired_segments: segs.first().map_or(0, |&(i, _)| i),
        live_bytes: segment_bytes_on_disk(&compacted_dir),
        uncompacted_bytes: segment_bytes_on_disk(&plain_dir),
        compacted_recover_ns: recover_ns(&compacted_dir, total),
        plain_recover_ns: recover_ns(&plain_dir, plain_total),
    };
    let _ = std::fs::remove_dir_all(&compacted_dir);
    let _ = std::fs::remove_dir_all(&plain_dir);

    // -- recovery: fleet restart at widths 1 and 4 ---------------------
    let sessions = 8usize;
    let rchain = if quick { 16 } else { 48 };
    let fleet: Vec<(String, PathBuf, Fixture)> = (0..sessions)
        .map(|s| {
            let fx = fixture(2, rchain, 0xF1EE7 ^ s as u64);
            let dir = scratch(&format!("fleet-{s}"));
            let mut journal = SessionJournal::create(&dir).unwrap();
            journal.set_snapshot_every(Some(8));
            let mut refiner = Refiner::new(&fx.alpha);
            journal.log_open(&fx.alpha, &fx.initial).unwrap();
            for (q, ans) in &fx.steps {
                refiner.refine(&fx.alpha, q, ans).unwrap();
                journal.log_refine(&fx.alpha, q, ans).unwrap();
                journal
                    .maybe_snapshot(&fx.alpha, refiner.current())
                    .unwrap();
            }
            (format!("s{s:02}"), dir, fx)
        })
        .collect();
    let recover_fleet = || -> Vec<String> {
        let mut house: Webhouse<Source> = Webhouse::new();
        let journals = fleet
            .iter()
            .map(|(name, dir, fx)| (name.clone(), dir.clone(), Source::new(fx.doc.clone(), None)))
            .collect();
        house.recover_sessions(journals).unwrap();
        fleet
            .iter()
            .map(|(name, _, _)| {
                let session = house.session(name).unwrap();
                let alpha = session.alphabet().clone();
                iixml_core::io::write_incomplete_xml(session.knowledge(), &alpha)
            })
            .collect()
    };
    // The ratio of two fleet-recovery medians is diffed by the CI
    // trajectory gate, so it gets a higher sample count than the
    // one-sided measurements.
    let recovery_samples = if quick { 5 } else { 9 };
    let mut widths_ns = [0.0f64; 2];
    let mut knowledge: Vec<Vec<String>> = Vec::new();
    for (i, width) in [1usize, 4].into_iter().enumerate() {
        iixml_par::set_threads(Some(width));
        widths_ns[i] = median_ns(recovery_samples, || {
            let _ = recover_fleet();
        });
        knowledge.push(recover_fleet());
    }
    iixml_par::set_threads(None);
    let recovery = ConcurrentRecovery {
        sessions,
        chain: rchain,
        width1_ns: widths_ns[0],
        width4_ns: widths_ns[1],
        deterministic: knowledge[0] == knowledge[1],
    };
    for (_, dir, _) in &fleet {
        let _ = std::fs::remove_dir_all(dir);
    }

    Store2Report {
        quick,
        append_records,
        baseline_ns,
        batched_ns,
        probe_records,
        dispatch_ns,
        raw_ns,
        io_ratio,
        compaction,
        recovery,
    }
}

impl Store2Report {
    /// Appends per second under the default (fsync-per-record) policy.
    pub fn baseline_appends_per_sec(&self) -> f64 {
        1e9 / self.baseline_ns.max(1.0)
    }

    /// Appends per second under the batched policy (fsyncs amortized).
    pub fn batched_appends_per_sec(&self) -> f64 {
        1e9 / self.batched_ns.max(1.0)
    }

    /// The in-run group-commit speedup (the ≥10x gate reads this — it
    /// compares like with like on the same disk in the same run).
    pub fn batch_speedup(&self) -> f64 {
        self.baseline_ns / self.batched_ns.max(1.0)
    }

    /// StoreIo-seam cost per append-path write: `Wal::append` over the
    /// real backend vs the seamless handwritten loop (the ≤1.03 gate).
    /// One seam crossing per record bounds the batched path, which
    /// crosses once per burst.
    pub fn io_overhead_ratio(&self) -> f64 {
        self.io_ratio
    }

    /// Fleet-recovery ratio width1/width4 (≥ 1.0 means the pool helps;
    /// the gate only requires it not to *hurt* — single-core runners
    /// legitimately sit near 1.0).
    pub fn recovery_par_ratio(&self) -> f64 {
        self.recovery.width1_ns / self.recovery.width4_ns.max(1.0)
    }

    /// Live-bytes fraction of the unbounded log (< 1.0 once compaction
    /// retires anything).
    pub fn compaction_ratio(&self) -> f64 {
        self.compaction.live_bytes as f64 / (self.compaction.uncompacted_bytes as f64).max(1.0)
    }

    /// Plain-replay recovery time over snapshot-cadence recovery time
    /// on the same chain (the cadence must not slow recovery down).
    pub fn cadence_recovery_ratio(&self) -> f64 {
        self.compaction.plain_recover_ns / self.compaction.compacted_recover_ns.max(1.0)
    }

    /// The machine-readable form committed as `BENCH_store2.json`.
    pub fn to_json(&self) -> Json {
        let doc = Json::obj()
            .set("pr", 6u64)
            .set("quick", self.quick)
            .set(
                "append",
                Json::obj()
                    .set("records", self.append_records)
                    .set("baseline_ns_per_append", self.baseline_ns)
                    .set("batched_ns_per_append", self.batched_ns)
                    .set("baseline_appends_per_sec", self.baseline_appends_per_sec())
                    .set("batched_appends_per_sec", self.batched_appends_per_sec())
                    .set("batch_speedup", self.batch_speedup())
                    .set("probe_records", self.probe_records)
                    .set("dispatch_ns_per_append", self.dispatch_ns)
                    .set("raw_ns_per_append", self.raw_ns)
                    .set("io_overhead_ratio", self.io_overhead_ratio()),
            )
            .set(
                "compaction",
                Json::obj()
                    .set("chain", self.compaction.chain)
                    .set("live_segments", self.compaction.live_segments)
                    .set("retired_segments", self.compaction.retired_segments)
                    .set("live_bytes", self.compaction.live_bytes)
                    .set("uncompacted_bytes", self.compaction.uncompacted_bytes)
                    .set("compaction_ratio", self.compaction_ratio())
                    .set("compacted_recover_ns", self.compaction.compacted_recover_ns)
                    .set("plain_recover_ns", self.compaction.plain_recover_ns)
                    .set("cadence_recovery_ratio", self.cadence_recovery_ratio()),
            )
            .set(
                "recovery",
                Json::obj()
                    .set("sessions", self.recovery.sessions)
                    .set("chain", self.recovery.chain)
                    .set("width1_ns", self.recovery.width1_ns)
                    .set("width4_ns", self.recovery.width4_ns)
                    .set("recovery_par_ratio", self.recovery_par_ratio())
                    .set("deterministic", self.recovery.deterministic),
            );
        with_gates(doc, &[GATES])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_is_coherent() {
        let report = run(true);
        assert!(report.batch_speedup() > 1.0, "batching must not slow down");
        assert!(
            report.dispatch_ns > 0.0 && report.raw_ns > 0.0,
            "io-seam probe measured nothing"
        );
        assert!(report.recovery.deterministic);
        assert!(
            report.compaction.retired_segments > 0,
            "the compaction workload retired nothing"
        );
        assert!(report.compaction_ratio() < 1.0);
        let doc = report.to_json();
        for g in crate::gates::gates_of(&doc).unwrap() {
            assert!(
                doc.path(&g.metric).is_some(),
                "gate {} has no value",
                g.metric
            );
        }
        assert!(doc.path("compaction.compaction_ratio").is_some());
    }
}
