//! Seeded disk-fault chaos matrix over the fail-safe durability
//! contract (the PR-9 tentpole's acceptance bar).
//!
//! Where `store_recovery.rs` injures bytes *at rest*, this matrix
//! injects faults on the *write path* itself — EIO, ENOSPC, short
//! writes, and fsync-failure-drops-buffered-pages — through the
//! [`StoreIo`] seam, then crashes and recovers with honest I/O. Two
//! invariants must hold on every one of the ≥1000 seeded cases:
//!
//! 1. **Every `sync()` that returned `Ok` is recoverable**: the
//!    recovered frame count never falls below the acknowledged count.
//! 2. **Every lost record corresponds to a reported fault**: a record
//!    accepted by `append` can only go missing if the writer returned
//!    an explicit error, the drop-fault slot holds one, or the crash
//!    took the never-acknowledged buffer with it. Silent loss fails.
//!
//! The second phase drives journaled sessions into injected faults and
//! recovers the fleet through `Webhouse::recover_sessions` at parallel
//! widths 1 and 4 — the recovered knowledge must be byte-identical.
//!
//! `IIXML_TEST_SEED` rotates the whole matrix; a failing case prints
//! the seeds that replay it.

use iixml_core::io::write_incomplete_xml;
use iixml_gen::rng::DetRng;
use iixml_gen::testkit;
use iixml_query::PsQuery;
use iixml_store::wal::{self, Wal};
use iixml_store::{take_drop_fault, FlushPolicy, GroupCommit, StoreIo};
use std::path::PathBuf;

const FAMILIES: usize = 26;
const CASES_PER_FAMILY: usize = 40;

// The acceptance floor: the fault sweep is at least a thousand cases.
const _: () = assert!(FAMILIES * CASES_PER_FAMILY >= 1000);

fn scratch(name: &str) -> PathBuf {
    iixml_gen::testkit::scratch_dir("iixml-diskfault", name)
}

/// A family fixes the flush policy and segment size; its cases vary the
/// injector (rate-driven or fail-the-Nth), the operation schedule, and
/// the crash shape.
fn family_policy(f: usize, rng: &mut DetRng) -> (FlushPolicy, u64) {
    let seg_bytes = *rng.choose(&[192u64, 1024, Wal::DEFAULT_SEGMENT_BYTES]);
    let policy = match f % 4 {
        0 => FlushPolicy::default(), // fsync-per-record
        1 => FlushPolicy::batched(),
        2 => FlushPolicy {
            max_batch_bytes: u64::MAX,
            max_batch_records: rng.range_usize(2, 6) as u64,
            max_linger_ticks: 8,
        },
        // Never auto-flush: only explicit sync() barriers (and the
        // drop-time flush) move records to disk.
        _ => FlushPolicy {
            max_batch_bytes: u64::MAX,
            max_batch_records: u64::MAX,
            max_linger_ticks: u64::MAX,
        },
    };
    (policy, seg_bytes)
}

// Phase 1: the raw group-commit writer under seeded write-path faults.
// Both the matrix and the fleet phase share the process-global
// drop-fault slot, so they live in one sequential #[test].
#[test]
fn no_ok_sync_is_lost_and_no_loss_is_silent() {
    let base = testkit::base_seed();
    let mut faulted = 0usize;
    let mut clean_full = 0usize;
    let mut create_failed = 0usize;
    for f in 0..FAMILIES {
        let fam_seed = DetRng::new(base ^ 0xD15C).fork(f as u64).next_u64();
        let dir = scratch(&format!("fam{f}"));
        for c in 0..CASES_PER_FAMILY {
            let case_seed = DetRng::new(fam_seed).fork(c as u64).next_u64();
            let ctx = format!(
                "family {f} case {c} — replay with IIXML_TEST_SEED={base} \
                 (family seed {fam_seed}, case seed {case_seed})"
            );
            let mut rng = DetRng::new(case_seed);
            let (policy, seg_bytes) = family_policy(f, &mut rng);
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let _ = take_drop_fault(); // the slot is process-global; start clean

            let io = if rng.bool(0.5) {
                StoreIo::fail_at(case_seed, rng.range_usize(1, 40) as u64)
            } else {
                StoreIo::faulty(case_seed, *rng.choose(&[0.01, 0.03, 0.08, 0.2]))
            };
            let wal = match Wal::create_with(&dir, io.clone()) {
                Ok(w) => w,
                Err(_) => {
                    // The fault hit before the segment existed: nothing
                    // was ever acknowledged, so nothing can be lost.
                    assert!(!io.injected().is_empty(), "{ctx}: create failed uninjected");
                    create_failed += 1;
                    continue;
                }
            };
            let mut gc = GroupCommit::new(wal, policy);
            gc.set_segment_bytes(seg_bytes);

            let mut appended: Vec<Vec<u8>> = Vec::new();
            let mut acked = 0usize;
            let mut fault_seen = false;
            let steps = rng.range_usize(6, 30);
            for i in 0..steps {
                let op = rng.below(10);
                let result = if op < 7 {
                    let pad = "x".repeat(rng.range_usize(0, 40));
                    let payload = format!("fam{f}-case{c}-rec{i}-{pad}").into_bytes();
                    let r = gc.append(&payload);
                    // Even a failing append has already encoded its
                    // record into the batch: if the flush's write lands
                    // and only the fsync fails, those bytes can survive
                    // to recovery. Unacknowledged survival is not loss.
                    appended.push(payload);
                    r
                } else if op < 9 {
                    gc.tick()
                } else {
                    gc.sync()
                };
                match result {
                    Ok(()) => acked = appended.len() - gc.pending_records() as usize,
                    Err(e) => {
                        // First failure: the writer must be poisoned,
                        // permanently, with the same sticky fault.
                        fault_seen = true;
                        assert!(gc.fault().is_some(), "{ctx}: error without a sticky fault");
                        let again = gc.append(b"after-fault");
                        match again {
                            Ok(()) => panic!("{ctx}: poisoned writer accepted an append"),
                            Err(e2) => assert_eq!(
                                e2.to_string(),
                                e.to_string(),
                                "{ctx}: the sticky fault drifted"
                            ),
                        }
                        assert!(gc.sync().is_err(), "{ctx}: poisoned writer claimed a sync");
                        break;
                    }
                }
            }

            // Crash (forget: the buffer evaporates, as a killed process)
            // or orderly drop (the drop-time flush runs; its failure
            // must land in the drop-fault slot, never vanish).
            let pending = gc.pending_records() as usize;
            let crashed = rng.bool(0.5);
            if crashed {
                std::mem::forget(gc);
            } else {
                drop(gc);
            }
            let drop_fault = take_drop_fault();
            if fault_seen {
                assert!(
                    drop_fault.is_none(),
                    "{ctx}: an already-poisoned writer re-reported its fault at drop"
                );
            }

            // Recover with honest I/O and check the two invariants.
            let out = wal::scan(&dir).unwrap_or_else(|e| panic!("{ctx}: scan failed: {e}"));
            let recovered = out.frames.len();
            assert!(
                recovered <= appended.len(),
                "{ctx}: recovered {recovered} frames but only appended {}",
                appended.len()
            );
            for (k, frame) in out.frames.iter().enumerate() {
                assert_eq!(
                    frame.payload, appended[k],
                    "{ctx}: recovered record {k} is not the record appended"
                );
            }
            // Invariant 1: every sync() that returned Ok is recoverable.
            assert!(
                recovered >= acked,
                "{ctx}: lost an acknowledged record (recovered {recovered} < acked {acked})"
            );
            // Invariant 2: every lost record corresponds to a reported
            // fault (or to the never-acknowledged buffer a crash took).
            if recovered < appended.len() {
                let crash_accounted = crashed && appended.len() - recovered <= pending;
                assert!(
                    fault_seen || drop_fault.is_some() || crash_accounted,
                    "{ctx}: silently lost {} of {} records (no fault reported)",
                    appended.len() - recovered,
                    appended.len()
                );
            }
            // Write-path faults tear tails; they never damage the
            // durable middle of the log. And an undamaged log with no
            // fault anywhere means nothing was lost at all.
            if let Some(d) = &out.damage {
                assert!(
                    fault_seen || drop_fault.is_some(),
                    "{ctx}: damage on disk but no fault was ever reported"
                );
                assert!(
                    d.is_torn_tail(),
                    "{ctx}: a write-path fault produced mid-log damage: {:?}",
                    d.kind
                );
                // Repair converges: the torn tail truncates away and a
                // second scan sees the same frames, clean. When the
                // tear sat in the very first header (nothing durable
                // yet), repair removes the whole journal — allowed only
                // if nothing had been recovered.
                wal::repair(&dir, d).unwrap_or_else(|e| panic!("{ctx}: repair failed: {e}"));
                match wal::scan(&dir) {
                    Ok(again) => {
                        assert!(again.damage.is_none(), "{ctx}: repair left damage behind");
                        assert_eq!(
                            again.frames.len(),
                            recovered,
                            "{ctx}: repair changed the prefix"
                        );
                    }
                    Err(_) => assert_eq!(recovered, 0, "{ctx}: repair deleted verified frames"),
                }
            }
            if fault_seen || drop_fault.is_some() {
                faulted += 1;
            } else if recovered == appended.len() {
                clean_full += 1;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let total = FAMILIES * CASES_PER_FAMILY;
    // The matrix must actually bite from both sides: plenty of injected
    // faults, and plenty of clean full recoveries (the injector must
    // not fault everything into the typed-error escape hatch).
    assert!(
        faulted >= total / 4,
        "only {faulted} of {total} cases saw a fault — the injector is not biting \
         ({create_failed} create failures)"
    );
    assert!(
        clean_full >= total / 10,
        "only {clean_full} of {total} cases recovered clean and full"
    );

    fleet_recovery_is_byte_identical_across_widths(base);
}

/// Phase 2: journaled sessions hit injected faults mid-run, crash, and
/// the whole fleet recovers through `Webhouse::recover_sessions` at
/// parallel widths 1 and 4 — byte-identical, with every acknowledged
/// refine replayed.
fn fleet_recovery_is_byte_identical_across_widths(base: u64) {
    use iixml_webhouse::{RecoveryStatus, Session, Source, Webhouse};

    const FLEET: usize = 8;
    struct Case {
        name: String,
        dir: PathBuf,
        doc: iixml_tree::DataTree,
        alpha: iixml_tree::Alphabet,
        /// `states[k]` = serialized knowledge once `k` records are
        /// replayed (open + refines; runs are short of the snapshot
        /// cadence, so no SnapshotRef records appear).
        states: Vec<String>,
        /// Records acknowledged as durable: open + every Ok fetch.
        acked: usize,
    }

    let mut cases: Vec<Case> = Vec::new();
    for c in 0..FLEET * 2 {
        if cases.len() == FLEET {
            break;
        }
        let seed = DetRng::new(base ^ 0xF1EE7).fork(c as u64).next_u64();
        let mut rng = DetRng::new(seed);
        let mut cat = iixml_gen::catalog(2, rng.next_u64());
        let queries: Vec<PsQuery> = (0..8)
            .map(|_| iixml_gen::catalog_query_price_below(&mut cat.alpha, rng.range_i64(50, 500)))
            .collect();
        let alpha = cat.alpha.clone();
        let dir = scratch(&format!("fleet-c{c}"));
        let _ = take_drop_fault();

        // Fail the Nth store operation; the default fsync-per-record
        // policy costs a handful of ops per fetch, so this lands the
        // fault anywhere from inside open to beyond the run.
        let io = StoreIo::fail_at(seed, rng.range_usize(4, 40) as u64);
        let mut session = match Session::open_journaled_with_io(
            alpha.clone(),
            Source::new(cat.doc.clone(), None),
            &dir,
            io,
        ) {
            Ok(s) => s,
            Err(_) => {
                // Open itself failed: there is no journal to
                // recover, and nothing was acknowledged.
                let _ = std::fs::remove_dir_all(&dir);
                continue;
            }
        };
        let mut refiner_states = vec![String::new()];
        refiner_states.push(write_incomplete_xml(session.knowledge(), &alpha));
        let mut acked = 1usize; // the open record
        for q in &queries {
            match session.fetch(q) {
                Ok(_) => {
                    acked += 1;
                    refiner_states.push(write_incomplete_xml(session.knowledge(), &alpha));
                }
                Err(_) => {
                    // The refine is applied in memory before the append
                    // fails, and its bytes may or may not have landed —
                    // recovery may legitimately replay one past `acked`.
                    refiner_states.push(write_incomplete_xml(session.knowledge(), &alpha));
                    break;
                }
            }
        }
        drop(session); // crash; a poisoned journal drops quietly
        let _ = take_drop_fault();
        cases.push(Case {
            name: format!("fleet-{c:02}"),
            dir,
            doc: cat.doc.clone(),
            alpha,
            states: refiner_states,
            acked,
        });
    }
    assert!(
        cases.len() >= FLEET / 2,
        "the fault schedule killed almost every open — the fleet phase is vacuous"
    );

    let mut per_width: Vec<Vec<String>> = Vec::new();
    for &width in &[1usize, 4] {
        iixml_par::set_threads(Some(width));
        let mut house: Webhouse<Source> = Webhouse::new();
        let journals: Vec<(String, PathBuf, Source)> = cases
            .iter()
            .map(|c| {
                (
                    c.name.clone(),
                    c.dir.clone(),
                    Source::new(c.doc.clone(), None),
                )
            })
            .collect();
        let reports = house
            .recover_sessions(journals)
            .expect("a poisoned-then-crashed journal must still recover");
        assert_eq!(reports.len(), cases.len());
        let mut knowledge = Vec::with_capacity(cases.len());
        for (case, (name, report)) in cases.iter().zip(&reports) {
            assert_eq!(&case.name, name, "name order broke");
            assert_eq!(
                report.status,
                RecoveryStatus::Clean,
                "{name} width {width}: write-path faults tear tails, never durable bytes"
            );
            assert!(
                report.replayed >= case.acked,
                "{name} width {width}: lost an acknowledged record \
                 (replayed {} < {} acked)",
                report.replayed,
                case.acked
            );
            assert!(
                report.replayed < case.states.len(),
                "{name} width {width}: replayed records nobody appended"
            );
            let session = house.session(name).unwrap();
            let got = write_incomplete_xml(session.knowledge(), &case.alpha);
            assert_eq!(
                got, case.states[report.replayed],
                "{name} width {width}: state is not the state after {} records",
                report.replayed
            );
            knowledge.push(got);
        }
        per_width.push(knowledge);
    }
    iixml_par::set_threads(None);
    assert_eq!(
        per_width[0], per_width[1],
        "recovery width changed the recovered bytes"
    );
    for case in &cases {
        let _ = std::fs::remove_dir_all(&case.dir);
    }
}
