#![warn(missing_docs)]

//! `iixml-par` — std-only scoped data parallelism for the iixml
//! workspace.
//!
//! The Refine pipeline decomposes per symbol pair (`intersect`,
//! Lemma 3.3), per symbol (partition refinement in `minimize`), and per
//! source (the webhouse fan-out of Section 1) — all embarrassingly
//! parallel. This crate provides the one primitive those sites need:
//! [`par_map`], an *order-preserving* parallel map over an indexed task
//! list, built on `std::thread::scope` only (the workspace builds
//! offline against an empty registry, so no rayon/crossbeam).
//!
//! # Determinism contract
//!
//! `par_map(items, g, f)` returns exactly the vector that
//! `items.map(f).collect()` would: results are written into slots keyed
//! by input index, so the output is byte-identical regardless of thread
//! count or scheduling. Callers keep determinism as long as `f` is a
//! pure function of its item (shared counters/histograms in `f` are
//! fine — they commute).
//!
//! # Thread count
//!
//! The worker width is `IIXML_PAR_THREADS` (default: available
//! parallelism). Width 1 runs the *same* claim-loop code path on the
//! calling thread with zero spawns, so the sequential fallback is not a
//! separate implementation that could drift. Tests and benches can
//! switch width in-process with [`set_threads`].
//!
//! # Scheduling
//!
//! Workers claim task indices from a shared atomic counter (dynamic
//! load balancing — the E5 blowup chain has wildly uneven pair costs).
//! A task claimed outside a worker's fair static share is counted as a
//! *steal* in the `par.steals` metric; `par.tasks` counts tasks run and
//! `par.threads` records the width per invocation.

use iixml_obs::{keys, LazyCounter, LazyHistogram};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Tasks executed through [`par_map`] (all widths, including 1).
static OBS_TASKS: LazyCounter = LazyCounter::new(keys::PAR_TASKS);
/// Tasks a worker claimed outside its fair static share.
static OBS_STEALS: LazyCounter = LazyCounter::new(keys::PAR_STEALS);
/// Worker width per [`par_map`] invocation.
static OBS_THREADS: LazyHistogram = LazyHistogram::new(keys::PAR_THREADS);
/// Chunks dispatched through [`par_map_chunks`] (parallel path only).
static OBS_CHUNKS: LazyCounter = LazyCounter::new(keys::PAR_CHUNKS);

/// Environment variable selecting the worker width (`1` = sequential).
pub const ENV_THREADS: &str = keys::ENV_PAR_THREADS;
/// Environment variable overriding every [`par_map_chunks`] chunk size.
pub const ENV_CHUNK: &str = keys::ENV_PAR_CHUNK;
/// Environment variable overriding every [`par_map_chunks`] cutoff.
pub const ENV_CUTOFF: &str = keys::ENV_PAR_CUTOFF;

/// In-process override; 0 means "use the environment default".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);
static ENV_DEFAULT: OnceLock<usize> = OnceLock::new();
static ENV_CHUNK_OVERRIDE: OnceLock<Option<usize>> = OnceLock::new();
static ENV_CUTOFF_OVERRIDE: OnceLock<Option<usize>> = OnceLock::new();

fn env_tuning(var: &str, cache: &'static OnceLock<Option<usize>>) -> Option<usize> {
    *cache.get_or_init(|| {
        std::env::var(var)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
    })
}

/// The effective chunk size: [`ENV_CHUNK`] if set, else the caller's
/// default. Env wins so one knob retunes every chunked call site.
pub fn chunk_size(default: usize) -> usize {
    env_tuning(ENV_CHUNK, &ENV_CHUNK_OVERRIDE).unwrap_or(default.max(1))
}

/// The effective sequential cutoff: [`ENV_CUTOFF`] if set, else the
/// caller's default.
pub fn cutoff(default: usize) -> usize {
    env_tuning(ENV_CUTOFF, &ENV_CUTOFF_OVERRIDE).unwrap_or(default)
}

fn env_threads() -> usize {
    *ENV_DEFAULT.get_or_init(|| {
        std::env::var(ENV_THREADS)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// The configured worker width: the [`set_threads`] override if set,
/// otherwise [`ENV_THREADS`], otherwise available parallelism.
pub fn threads() -> usize {
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => env_threads(),
        n => n,
    }
}

/// Overrides the worker width in-process (`None` restores the
/// environment default). Used by benches and the determinism test
/// matrix; safe to flip at any time — the width never affects results,
/// only scheduling.
pub fn set_threads(n: Option<usize>) {
    OVERRIDE.store(n.map_or(0, |n| n.max(1)), Ordering::Relaxed);
}

/// Maps `f` over `items` in parallel, preserving input order exactly.
///
/// `grain` is the minimum number of tasks per worker: the width used is
/// `threads().min(items.len() / grain)` (at least 1), so small inputs
/// never pay thread-spawn overhead. Use `grain = 1` when each task is
/// expensive (e.g. one network-latency-bound source session per task).
///
/// Panics in `f` propagate to the caller after all workers have
/// stopped.
pub fn par_map<T, R, F>(items: Vec<T>, grain: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    run(slots.len(), grain, |i| {
        let item = slots[i]
            .lock()
            .expect("task slot poisoned")
            .take()
            .expect("each task index is claimed exactly once");
        f(item)
    })
}

/// [`par_map`] over shared references (no per-item locking).
pub fn par_map_ref<'a, T, R, F>(items: &'a [T], grain: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    run(items.len(), grain, |i| f(&items[i]))
}

/// [`par_map`] over exclusive references: each item is visited by
/// exactly one worker, results in input order.
pub fn par_map_mut<T, R, F>(items: &mut [T], grain: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    par_map(items.iter_mut().collect(), grain, f)
}

/// Chunked parallel map with per-worker scratch arenas, preserving
/// input order exactly.
///
/// Workers claim *chunks* of `chunk` consecutive items (after the
/// [`ENV_CHUNK`] override) instead of single items, so the atomic
/// claim counter is touched once per chunk and results stay
/// cache-contiguous. Each worker builds one scratch value with
/// `make_scratch` at start-up and reuses it for every item it runs —
/// the arena pattern: callers clear per-item state inside `f` but keep
/// the allocations. Results are written into slots keyed by input
/// index, so the output is byte-identical at any width provided `f` is
/// a pure function of `(item, index)` (the scratch must not carry
/// state between items that changes results).
///
/// Inputs of length ≤ `cutoff` (after the [`ENV_CUTOFF`] override) run
/// inline on the calling thread with a single scratch and *no* chunk
/// bookkeeping at all — small refine steps never pay for the
/// machinery. Width 1 takes the same inline path.
///
/// Panics in `f` propagate to the caller after all workers have
/// stopped.
pub fn par_map_chunks<T, R, S, I, F>(
    items: &[T],
    chunk: usize,
    cutoff_default: usize,
    make_scratch: I,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T, usize) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let chunk = chunk_size(chunk);
    let width = threads().min(n.div_ceil(chunk)).max(1);
    OBS_TASKS.add(n as u64);
    OBS_THREADS.observe(width as u64);
    if width == 1 || n <= cutoff(cutoff_default) {
        let mut scratch = make_scratch();
        let mut out = Vec::with_capacity(n);
        for (i, item) in items.iter().enumerate() {
            out.push(f(&mut scratch, item, i));
        }
        return out;
    }

    let n_chunks = n.div_ceil(chunk);
    OBS_CHUNKS.add(n_chunks as u64);
    let next = AtomicUsize::new(0);
    // Each worker drains chunk indices and returns (start, results) runs;
    // `lo..hi` is its fair static share of chunks, for steal accounting.
    let worker = |w: usize| -> (Vec<(usize, Vec<R>)>, u64) {
        let lo = w * n_chunks / width;
        let hi = (w + 1) * n_chunks / width;
        let mut scratch = make_scratch();
        let mut runs = Vec::with_capacity(hi - lo + 1);
        let mut steals = 0u64;
        loop {
            let c = next.fetch_add(1, Ordering::Relaxed);
            if c >= n_chunks {
                break;
            }
            if c < lo || c >= hi {
                steals += 1;
            }
            let start = c * chunk;
            let end = (start + chunk).min(n);
            let mut part = Vec::with_capacity(end - start);
            for (i, item) in items.iter().enumerate().take(end).skip(start) {
                part.push(f(&mut scratch, item, i));
            }
            runs.push((start, part));
        }
        (runs, steals)
    };

    let mut results: Vec<Option<R>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    std::thread::scope(|scope| {
        let worker = &worker;
        let handles: Vec<_> = (1..width).map(|w| scope.spawn(move || worker(w))).collect();
        let mut place = |runs: Vec<(usize, Vec<R>)>| {
            for (start, part) in runs {
                for (off, r) in part.into_iter().enumerate() {
                    results[start + off] = Some(r);
                }
            }
        };
        let (own, mut steals) = worker(0);
        place(own);
        for h in handles {
            match h.join() {
                Ok((runs, s)) => {
                    steals += s;
                    place(runs);
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        OBS_STEALS.add(steals);
    });
    results
        .into_iter()
        .map(|r| r.expect("every claimed chunk produced its results"))
        .collect()
}

/// The claim-loop core shared by every width (width 1 runs it inline on
/// the calling thread — the "sequential fallback through the same code
/// path" contract).
fn run<R, F>(tasks: usize, grain: usize, task: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if tasks == 0 {
        return Vec::new();
    }
    let width = threads().min(tasks / grain.max(1)).max(1);
    OBS_TASKS.add(tasks as u64);
    OBS_THREADS.observe(width as u64);

    let next = AtomicUsize::new(0);
    // Each worker drains the shared counter into a local (index, result)
    // list; `lo..hi` is its fair static share, used only for steal
    // accounting.
    let worker = |w: usize| -> (Vec<(usize, R)>, u64) {
        let lo = w * tasks / width;
        let hi = (w + 1) * tasks / width;
        let mut out = Vec::with_capacity(hi - lo + 1);
        let mut steals = 0u64;
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                break;
            }
            if i < lo || i >= hi {
                steals += 1;
            }
            out.push((i, task(i)));
        }
        (out, steals)
    };

    if width == 1 {
        // The claim loop visits indices in ascending order here, so the
        // collected results are already in input order.
        return worker(0).0.into_iter().map(|(_, r)| r).collect();
    }

    let mut results: Vec<Option<R>> = Vec::with_capacity(tasks);
    results.resize_with(tasks, || None);
    std::thread::scope(|scope| {
        let worker = &worker;
        let handles: Vec<_> = (1..width).map(|w| scope.spawn(move || worker(w))).collect();
        let (own, mut steals) = worker(0);
        for (i, r) in own {
            results[i] = Some(r);
        }
        for h in handles {
            match h.join() {
                Ok((part, s)) => {
                    steals += s;
                    for (i, r) in part {
                        results[i] = Some(r);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        OBS_STEALS.add(steals);
    });
    results
        .into_iter()
        .map(|r| r.expect("every claimed task produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_at_every_width() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for w in [1, 2, 3, 4, 8] {
            set_threads(Some(w));
            assert_eq!(par_map_ref(&items, 1, |&x| x * x), expect, "width {w}");
            assert_eq!(par_map(items.clone(), 1, |x| x * x), expect, "width {w}");
        }
        set_threads(None);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        set_threads(Some(4));
        let none: Vec<u32> = Vec::new();
        assert!(par_map(none, 1, |x: u32| x).is_empty());
        assert_eq!(par_map(vec![7u32], 1, |x| x + 1), vec![8]);
        set_threads(None);
    }

    #[test]
    fn grain_caps_width_but_not_results() {
        set_threads(Some(8));
        let items: Vec<usize> = (0..10).collect();
        // grain 16 > items: forced sequential, same answer.
        assert_eq!(
            par_map_ref(&items, 16, |&x| x + 1),
            (1..=10).collect::<Vec<_>>()
        );
        set_threads(None);
    }

    #[test]
    fn mutable_items_are_each_visited_once() {
        set_threads(Some(4));
        let mut items: Vec<u64> = vec![0; 100];
        let idx = par_map_mut(&mut items, 1, |slot| {
            *slot += 1;
            *slot
        });
        assert!(items.iter().all(|&v| v == 1));
        assert_eq!(idx, vec![1; 100]);
        set_threads(None);
    }

    #[test]
    fn chunked_map_preserves_order_at_every_width() {
        let items: Vec<u64> = (0..513).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for w in [1, 2, 3, 4, 8] {
            set_threads(Some(w));
            // Cutoff 0: always take the chunked path when width > 1.
            let got = par_map_chunks(&items, 7, 0, Vec::<u64>::new, |scratch, &x, i| {
                // Exercise the arena contract: per-item state is cleared,
                // the allocation is reused.
                scratch.clear();
                scratch.push(x);
                scratch[0] * 3 + i as u64 - x + 1
            });
            assert_eq!(got, expect, "width {w}");
        }
        set_threads(None);
    }

    #[test]
    fn chunked_map_cutoff_runs_inline() {
        set_threads(Some(4));
        // One scratch instance implies the inline path: count creations.
        let made = AtomicUsize::new(0);
        let got = par_map_chunks(
            &[1u32, 2, 3],
            1,
            8,
            || {
                made.fetch_add(1, Ordering::Relaxed);
            },
            |_, &x, _| x * 2,
        );
        assert_eq!(got, vec![2, 4, 6]);
        assert_eq!(made.load(Ordering::Relaxed), 1);
        set_threads(None);
    }

    #[test]
    fn chunked_map_empty_and_panics() {
        set_threads(Some(2));
        let none: Vec<u32> = Vec::new();
        assert!(par_map_chunks(&none, 4, 0, || (), |_, &x, _| x).is_empty());
        let r = std::panic::catch_unwind(|| {
            par_map_chunks(
                &[1u32, 2, 3, 4],
                1,
                0,
                || (),
                |_, &x, _| {
                    if x == 3 {
                        panic!("boom");
                    }
                    x
                },
            )
        });
        assert!(r.is_err());
        set_threads(None);
    }

    #[test]
    fn tuning_defaults_pass_through() {
        // The env overrides are unset in the test environment, so the
        // caller defaults win (and are clamped to ≥ 1 for chunk).
        assert_eq!(chunk_size(32), 32);
        assert_eq!(chunk_size(0), 1);
        assert_eq!(cutoff(128), 128);
    }

    #[test]
    fn set_threads_round_trips() {
        set_threads(Some(3));
        assert_eq!(threads(), 3);
        set_threads(Some(0)); // clamped to 1
        assert_eq!(threads(), 1);
        set_threads(None);
        assert!(threads() >= 1);
    }

    #[test]
    fn worker_panics_propagate() {
        set_threads(Some(2));
        let r = std::panic::catch_unwind(|| {
            par_map_ref(&[1u32, 2, 3, 4], 1, |&x| {
                if x == 3 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(r.is_err());
        set_threads(None);
    }

    #[test]
    fn metrics_are_recorded() {
        let before = iixml_obs::snapshot().counter("par.tasks").unwrap_or(0);
        set_threads(Some(2));
        par_map_ref(&[1u32; 64], 1, |&x| x);
        set_threads(None);
        let after = iixml_obs::snapshot().counter("par.tasks").unwrap_or(0);
        assert!(after >= before + 64);
    }
}
