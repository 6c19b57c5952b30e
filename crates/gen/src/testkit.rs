//! A tiny deterministic property-test harness.
//!
//! The workspace's property tests ran on `proptest` in the seed, but an
//! external dependency cannot be guaranteed in offline builds, so tests
//! use this harness instead: a fixed default seed, a case count, and a
//! failure report that names the exact seed to replay.
//!
//! Environment knobs (both optional, both read per property):
//!
//! * `IIXML_PROPTEST_CASES` — cases per property (default 64);
//! * `IIXML_TEST_SEED` — base seed (default `0xA5EED`). CI pins both so
//!   runs are reproducible; see CONTRIBUTING.md.
//!
//! ```
//! iixml_gen::testkit::check("addition commutes", |rng| {
//!     let a = rng.range_i64(-1000, 1000);
//!     let b = rng.range_i64(-1000, 1000);
//!     assert_eq!(a + b, b + a);
//! });
//! ```

use crate::rng::DetRng;

/// Default number of cases per property.
pub const DEFAULT_CASES: usize = 64;

/// Default base seed.
pub const DEFAULT_SEED: u64 = 0xA5EED;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// Cases per property: `IIXML_PROPTEST_CASES` or [`DEFAULT_CASES`].
pub fn cases() -> usize {
    env_u64(iixml_obs::keys::ENV_PROPTEST_CASES, DEFAULT_CASES as u64) as usize
}

/// Base seed: `IIXML_TEST_SEED` or [`DEFAULT_SEED`].
pub fn base_seed() -> u64 {
    env_u64(iixml_obs::keys::ENV_TEST_SEED, DEFAULT_SEED)
}

/// A fresh, empty scratch directory `<tmp>/<prefix>-<pid>-<name>`,
/// emptied first if an earlier run left it behind.
pub fn scratch_dir(prefix: &str, name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("{prefix}-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the temp dir is writable");
    dir
}

/// Runs `property` once per case with an independent [`DetRng`]. On
/// panic, reports the property name and the case seed so the failure
/// replays with `IIXML_TEST_SEED=<seed> IIXML_PROPTEST_CASES=1`.
pub fn check<F>(name: &str, property: F)
where
    F: FnMut(&mut DetRng),
{
    check_with(name, usize::MAX, property);
}

/// Like [`check`], but capped at `max_cases` cases — for expensive
/// properties where the global default would dominate the test run.
/// `IIXML_PROPTEST_CASES` still lowers (never raises) the count.
pub fn check_with<F>(name: &str, max_cases: usize, mut property: F)
where
    F: FnMut(&mut DetRng),
{
    let n = cases().min(max_cases).max(1);
    let base = base_seed();
    for case in 0..n {
        let case_seed = DetRng::new(base).fork(case as u64).next_u64();
        let mut rng = DetRng::new(case_seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| property(&mut rng)));
        if let Err(payload) = outcome {
            eprintln!(
                "property '{name}' failed at case {case}/{n} — replay with \
                 IIXML_TEST_SEED={case_seed} IIXML_PROPTEST_CASES=1"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_runs_every_case() {
        let mut ran = 0usize;
        check("counts cases", |_| ran += 1);
        assert_eq!(ran, cases().max(1));
    }

    #[test]
    fn check_reports_failures() {
        let result = std::panic::catch_unwind(|| {
            check("always fails", |_| panic!("boom"));
        });
        assert!(result.is_err());
    }

    #[test]
    fn case_seeds_differ() {
        let mut seeds = Vec::new();
        check("collect seeds", |rng| seeds.push(rng.next_u64()));
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), cases().max(1), "each case gets its own rng");
    }
}
