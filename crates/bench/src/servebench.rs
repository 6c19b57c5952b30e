//! End-to-end server workloads — the `BENCH_serve.json` emitter
//! (PR 7).
//!
//! Three measurements against an in-process `iixml-serve` server with
//! journaled sessions (batched group commit, the production shape):
//!
//! * `honest` — the seeded query mix over concurrent connections:
//!   p50/p99 request latency, requests/sec, sessions/sec;
//! * `chaos` — the misbehaving-client storm running *while* a second
//!   honest load runs: the gate is that the server stays live and the
//!   honest load's p99 stays bounded (robustness as a benchmark, not
//!   just a test);
//! * `restart` — drain-and-sync shutdown followed by a cold start that
//!   recovers every journaled session: fleet recovery wall time.
//!
//! The diff gates (`report -- --diff`) floor-and-clamp requests/sec and
//! sessions/sec like the store gates, so a slower CI host fails only on
//! genuine regressions; see [`GATES`].

use crate::gates::with_gates;
use crate::loadgen::{run_chaos, run_load, ChaosReport, LoadConfig, LoadReport};
use iixml_obs::json::Json;
use iixml_serve::{ServeConfig, Server};
use std::path::PathBuf;
use std::time::Instant;

fn scratch(name: &str) -> PathBuf {
    iixml_gen::testkit::scratch_dir("iixml-serve", name)
}

fn server_config(journal_root: PathBuf) -> ServeConfig {
    let mut cfg = ServeConfig {
        port: 0,
        journal_root: Some(journal_root),
        batched_journal: true,
        ..ServeConfig::default()
    };
    // Generous quotas: the honest load must not shed (sheds are the
    // chaos measurement's business).
    cfg.admission.max_sessions = 4096;
    cfg.admission.max_inflight = 256;
    cfg.admission.quota_burst = 1_000_000;
    cfg.admission.quota_refill = 1_000_000;
    cfg
}

/// The gates `BENCH_serve.json` carries (see [`crate::gates`]). The
/// diff floors are an order of magnitude under the committed run: they
/// exist to catch the server falling over, not scheduler jitter.
pub const GATES: &str = r#"[
  {"metric": "honest.requests_per_sec", "rule": "at_least", "blessed": 500.0, "scope": "diff",
   "claim": "honest-load requests/sec"},
  {"metric": "honest.sessions_per_sec", "rule": "at_least", "blessed": 8.0, "scope": "diff",
   "claim": "honest-load sessions/sec"},
  {"metric": "honest.p99_us", "rule": "at_most", "blessed": 50000.0, "scope": "diff",
   "claim": "honest-load p99 latency (µs), quiet server"},
  {"metric": "chaos.server_alive", "rule": "equals", "blessed": 1.0, "scope": "run",
   "claim": "server answers after the chaos storm"},
  {"metric": "honest.errors", "rule": "equals", "blessed": 0.0, "scope": "run",
   "claim": "no transport errors on a quiet server"},
  {"metric": "honest.shed", "rule": "equals", "blessed": 0.0, "scope": "run",
   "claim": "no sheds on a quiet server"},
  {"metric": "restart.lost_sessions", "rule": "equals", "blessed": 0.0, "scope": "run",
   "claim": "restart recovers every session the honest load finished"}
]"#;

/// The full PR 7 server report.
pub struct ServeReport {
    /// Whether this was a `--quick` (CI smoke) run.
    pub quick: bool,
    /// Sessions in the honest load.
    pub sessions: usize,
    /// Requests per session.
    pub requests_per_session: usize,
    /// Honest load, quiet server.
    pub honest: LoadReport,
    /// Honest load measured *during* the chaos storm.
    pub honest_under_chaos: LoadReport,
    /// The storm itself.
    pub chaos: ChaosReport,
    /// Journaled sessions recovered at restart.
    pub recovered_sessions: usize,
    /// Cold-start fleet recovery wall time (ms).
    pub restart_ms: f64,
}

/// Runs every group; `quick` shrinks the load.
pub fn run(quick: bool) -> ServeReport {
    let root = scratch("bench");
    let sessions = if quick { 16 } else { 64 };
    let requests_per_session = if quick { 8 } else { 32 };
    let chaos_conns = if quick { 24 } else { 96 };

    // -- honest load on a quiet server ---------------------------------
    let server = Server::start(server_config(root.clone())).expect("server start");
    let port = server.port();
    let cfg = LoadConfig {
        port,
        tenants: 4,
        sessions,
        requests_per_session,
        products: 3,
        seed: 0x5EBE,
        concurrency: 8,
        sync_at_end: true,
        close_at_end: false,
        ..LoadConfig::default()
    };
    let honest = run_load(&cfg);

    // -- chaos storm concurrent with a second honest load --------------
    // Fresh session names so opens don't collide with round one.
    let chaos_cfg = LoadConfig {
        seed: 0xC405,
        sessions: sessions / 2,
        tenants: 2,
        ..cfg.clone()
    };
    let (honest_under_chaos, chaos) = std::thread::scope(|s| {
        let storm = s.spawn(|| run_chaos(port, chaos_conns, 0x57AB, 16));
        // Interleave: the honest load runs while connections misbehave.
        let load = run_load(&chaos_cfg);
        (load, storm.join().expect("chaos thread"))
    });

    // -- drain, restart, recover ---------------------------------------
    let drain = server.shutdown();
    assert!(drain.faults.is_empty(), "drain faults: {:?}", drain.faults);
    let t0 = Instant::now();
    let server2 = Server::start(server_config(root.clone())).expect("server restart");
    let restart_ms = t0.elapsed().as_secs_f64() * 1e3;
    let recovered_sessions = server2.session_names().len();
    drop(server2.shutdown());
    let _ = std::fs::remove_dir_all(&root);

    ServeReport {
        quick,
        sessions,
        requests_per_session,
        honest,
        honest_under_chaos,
        chaos,
        recovered_sessions,
        restart_ms,
    }
}

impl ServeReport {
    /// p99 inflation of the honest load under chaos (1.0 = unaffected;
    /// the in-run gate allows a generous factor — the property is
    /// "bounded", not "free").
    pub fn chaos_p99_inflation(&self) -> f64 {
        self.honest_under_chaos.p99_us / self.honest.p99_us.max(1e-9)
    }

    /// The machine-readable form committed as `BENCH_serve.json`.
    pub fn to_json(&self) -> Json {
        let doc = Json::obj()
            .set("pr", 7u64)
            .set("quick", self.quick)
            .set(
                "honest",
                Json::obj()
                    .set("sessions", self.sessions)
                    .set("requests_per_session", self.requests_per_session)
                    .set("requests", self.honest.requests)
                    .set("p50_us", self.honest.p50_us)
                    .set("p99_us", self.honest.p99_us)
                    .set("requests_per_sec", self.honest.requests_per_sec)
                    .set("sessions_per_sec", self.honest.sessions_per_sec)
                    .set("shed", self.honest.shed)
                    .set("errors", self.honest.errors)
                    .set("sessions_done", self.honest.sessions_done),
            )
            .set(
                "chaos",
                Json::obj()
                    .set("connections", self.chaos.connections)
                    .set("requests_issued", self.chaos.requests_issued)
                    .set("server_alive", self.chaos.server_alive)
                    .set("honest_p99_us", self.honest_under_chaos.p99_us)
                    .set("honest_errors", self.honest_under_chaos.errors)
                    .set("p99_inflation", self.chaos_p99_inflation()),
            )
            .set(
                "restart",
                Json::obj()
                    .set("recovered_sessions", self.recovered_sessions)
                    .set(
                        "lost_sessions",
                        self.honest
                            .sessions_done
                            .saturating_sub(self.recovered_sessions as u64),
                    )
                    .set("restart_ms", self.restart_ms),
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
        assert!(report.chaos.server_alive, "server died under chaos");
        assert_eq!(report.honest.errors, 0, "honest load saw errors");
        assert!(report.honest.requests > 0);
        assert!(
            report.recovered_sessions as u64 >= report.honest.sessions_done,
            "restart lost sessions"
        );
        let doc = report.to_json();
        for g in crate::gates::gates_of(&doc).unwrap() {
            assert!(
                doc.path(&g.metric).is_some(),
                "gate {} has no value",
                g.metric
            );
        }
        assert!(doc.path("restart.recovered_sessions").is_some());
        assert_eq!(crate::gates::check_run(&doc), Ok(true));
    }
}
