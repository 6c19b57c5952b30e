//! Host speed, measured alongside the load.
//!
//! A shared host runs the benchmark at a speed that drifts over minutes:
//! other tenants' load changes the clock frequency, the cache and memory
//! bandwidth left over, and how often a core is taken away. On a 2-core
//! host that moved every wall-clock latency and throughput of a run by
//! up to a quarter either way. The timed phase therefore pauses both
//! clients between segments and times a fixed reference kernel on every
//! core. The run's timings are then also reported in reference units,
//! scaled by the median probe: a slow host slows the kernel and the
//! program alike and the ratio stays put, while a change to the program
//! moves the ratio.
//!
//! The kernel is this file's own code on the standard library only
//! (formatting, allocation, ordered maps, sorting and hashing: the kinds
//! of work a request does), so no change to the program changes it.
//!
//! A busy kernel does not see the other half of the drift: a request
//! that takes tens of microseconds is mostly thread wake-ups, and on a
//! virtual machine a wake-up onto an idle core waits for the hypervisor
//! to run that core again, which takes longer the busier the host is.
//! [`keep_awake`] removes that term by never letting a core go idle.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Keys the kernel builds per call; about 1 ms on a 2.1 GHz Xeon core.
const KEYS: u64 = 1500;
/// Timed kernel calls per core and probe, after one untimed warm-up
/// call; a probe reports their median.
const CALLS: usize = 8;

/// The length of time the reported units are scaled to: a figure in
/// `ref_us` is microseconds on a host where one kernel call takes
/// exactly this long.
pub const REF_US: f64 = 1000.0;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One call of the reference kernel: fixed work, whatever the seed.
fn kernel(seed: u64) -> u64 {
    let mut rng = seed;
    let mut map: BTreeMap<String, u64> = BTreeMap::new();
    for i in 0..KEYS {
        let r = splitmix(&mut rng);
        map.insert(
            format!("catalog/product{}/price[< {}]#{i}", r % 61, r % 500),
            r,
        );
    }
    let mut keys: Vec<&String> = map.keys().collect();
    keys.sort_by_key(|k| k.len());
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for k in keys {
        for b in k.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= map.get(k.as_str()).copied().unwrap_or(0);
    }
    h
}

/// Times the kernel on `threads` threads at once (one per client, so
/// every core the load used is measured); returns the median call time
/// in µs, over all threads' calls.
pub fn probe(threads: usize) -> f64 {
    let mut times: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    black_box(kernel(black_box(t as u64)));
                    (0..CALLS)
                        .map(|c| {
                            let t0 = Instant::now();
                            black_box(kernel(black_box((t * CALLS + c) as u64)));
                            t0.elapsed().as_nanos() as f64 / 1e3
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    });
    crate::stats::median(&mut times)
}

/// `struct sched_param` of `<sched.h>`.
#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

/// `SCHED_IDLE` of `<sched.h>` on Linux.
const SCHED_IDLE: i32 = 5;

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Moves the calling thread to the kernel's lowest scheduling class;
/// false when the kernel refused.
fn lowest_priority() -> bool {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a valid `sched_param` that outlives the call,
    // and pid 0 names the calling thread, so the call reads no other
    // memory and changes only this thread's policy.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

/// Sets the flag when dropped, so the spinners stop even if `f` panics.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Runs `f` while one spinning thread per core, in `SCHED_IDLE`, keeps
/// every core busy. Any thread of the program preempts a spinner at
/// once, so the spinners only take time the cores would have idled;
/// the spin loop's pause hint leaves a shared physical core to its
/// other thread. Returns `f`'s result and how many spinners ran (a
/// spinner that cannot get the idle class does not spin at all).
pub fn keep_awake<R>(cores: usize, f: impl FnOnce() -> R) -> (R, usize) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let spinners: Vec<_> = (0..cores)
            .map(|_| {
                scope.spawn(|| {
                    if !lowest_priority() {
                        return false;
                    }
                    // Only a stop flag: it publishes no other data.
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                    true
                })
            })
            .collect();
        let result = {
            let _stop = StopOnDrop(&stop);
            f()
        };
        let ran = spinners
            .into_iter()
            .map(|h| h.join())
            .filter(|r| matches!(r, Ok(true)))
            .count();
        (result, ran)
    })
}
