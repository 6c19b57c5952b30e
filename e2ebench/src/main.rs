//! End-to-end benchmark of served webhouse sessions.
//!
//! ```text
//! e2ebench --workload <catalog-mix|deep-refine|durable-writes>
//!          --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! With `--trace 0` it starts an in-process `iixml-serve` server with
//! journaled sessions, drives the workload over two closed-loop client
//! connections for `--seconds`, checks every answer, and prints the
//! end-to-end metrics. With `--trace 1` it serves a fixed slice of the
//! same streams, then replays them single-threaded through each layer's
//! public functions with spans around every call, and prints the
//! per-layer metrics. Either way the last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`; the exit
//! code is non-zero when any correctness check failed. Results and
//! spans go under `--out` (default `.e2ebench_out` in the current
//! directory).

mod calib;
mod layers;
mod plan;
mod replay;
mod served;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use iixml_obs::json::Json;
use iixml_serve::Server;

use plan::{Kind, Workload, CONNS, KINDS};
use replay::{journal_dir, journal_files, run_pass, Pass, PassOut, Reply};
use served::{Digest, Setup, Stop};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Set-ups per run; `setup_s` is their median. A set-up creates every
/// session's journal, so it waits on directory and file fsyncs whose
/// latency on a shared host swings several-fold over seconds and
/// minutes. The set-ups are split between the start of the run and its
/// end, so one slow stretch skews a minority of them, not the median.
const SETUP_REPEATS: usize = 21;
/// Crash-restarts per run; `recover_s` is their median.
const RECOVER_REPEATS: usize = 9;
/// The metrics of the final JSON line, which gates changes; every
/// other metric is printed and written to the results file only. The
/// fetch and ask medians are gated in reference units (see `calib`): on
/// a shared 2-core host the raw ones moved by up to a quarter between
/// runs of the same code. The mediate median is not: on catalog-mix and
/// durable-writes it is a containment-cache hit of 30 to 50 µs that
/// scales with host speed at a slope of 0.5 to 0.6, and over ten seeds it
/// spread 0.18 raw and 0.19 in reference units. Throughput, the tails
/// and `sync_p50` follow the latency of the host's fsync, which moved
/// two-fold between runs, and `recover_s` is bimodal per process: all
/// swing more than any bound a gate can use.
const GATED: &[&str] = &[
    "setup_s",
    "fetch_p50_ref_us",
    "ask_p50_ref_us",
    "journal_bytes_per_write",
    "peak_rss_mb",
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut out = PathBuf::from(".e2ebench_out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => trace = value()? == "1",
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.max(1),
        trace,
        out,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let base = args.out.join(format!("run-{}", std::process::id()));
    let result = std::fs::create_dir_all(&base)
        .map_err(|e| format!("{}: {e}", base.display()))
        .and_then(|_| run(&args, &base));
    let _ = std::fs::remove_dir_all(&base);
    match result {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}

/// Everything a run reports, before rendering.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// `(name, value, unit, note)` in print order.
    metrics: Vec<(String, f64, &'static str, String)>,
    /// Extra JSON for the results file.
    detail: Json,
}

fn run(args: &Args, base: &Path) -> Result<bool, String> {
    let w = Workload::new(args.kind, args.seed);
    let fsync_us = served::fsync_probe_us(base);
    let host = Json::obj()
        .set("cores", stats::cores())
        .set("fsync_4k_p50_us", fsync_us)
        .set("profile", stats::profile())
        .set("workload", args.kind.name())
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("trace", args.trace);
    println!(
        "host: cores={} fsync_4k_p50={fsync_us:.1}us profile={} workload={} seed={} trace={}",
        stats::cores(),
        stats::profile(),
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    );
    let (report, host) = if args.trace {
        (traced(&w, args, base)?, host)
    } else {
        // Every core kept busy through the whole measurement (see
        // `calib::keep_awake`).
        let (report, spinners) = calib::keep_awake(stats::cores(), || end_to_end(&w, args, base));
        println!("host: idle_spinners={spinners}");
        (report?, host.set("idle_spinners", spinners))
    };
    for (name, value, unit, note) in &report.metrics {
        println!("{} {name} = {value:.3} {unit}{note}", args.kind.name());
    }
    for f in report.failures.iter().take(20) {
        println!("FAILED: {f}");
    }
    let mut metrics = Json::obj();
    let mut gated = Json::obj();
    for (name, value, unit, _) in &report.metrics {
        let m = Json::obj().set("value", *value).set("unit", *unit);
        if args.trace || GATED.contains(&name.as_str()) {
            gated = gated.set(name.as_str(), m.clone());
        }
        metrics = metrics.set(name.as_str(), m);
    }
    let file = Json::obj()
        .set("host", host)
        .set("correct", report.correct)
        .set("attempted", report.attempted)
        .set("failed", report.failed)
        .set(
            "failures",
            Json::Arr(
                report
                    .failures
                    .iter()
                    .take(100)
                    .map(|f| Json::from(f.as_str()))
                    .collect(),
            ),
        )
        .set("metrics", metrics.clone())
        .set("detail", report.detail);
    let name = format!(
        "result-{}-trace{}.json",
        args.kind.name(),
        u8::from(args.trace)
    );
    let path = args.out.join(name);
    std::fs::write(&path, file.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "{}",
        Json::obj()
            .set("correct", report.correct)
            .set("attempted", report.attempted)
            .set("failed", report.failed)
            .set("metrics", gated)
            .render()
    );
    Ok(report.correct)
}

/// Runs `n` set-ups that are timed and shut down again, each on a
/// fresh journal root next to `root`; returns their wall times. The
/// roots stay until the run ends, so no deletion and its disk work
/// falls between timed set-ups.
fn spare_setups(w: &Workload, root: &Path, tag: &str, n: usize) -> Result<Vec<f64>, String> {
    let mut secs = Vec::new();
    for i in 0..n {
        let st = served::setup(w, &root.with_extension(format!("{tag}{i}")))?;
        secs.push(st.secs);
        let Setup { server, conns, .. } = st;
        drop(conns);
        drop(server.shutdown());
    }
    Ok(secs)
}

/// Runs `spare` set-ups, then the one on `root` that is kept for the
/// load; returns it and every set-up time.
fn repeated_setup(w: &Workload, root: &Path, spare: usize) -> Result<(Setup, Vec<f64>), String> {
    let mut secs = spare_setups(w, root, "pre", spare)?;
    let st = served::setup(w, root)?;
    secs.push(st.secs);
    Ok((st, secs))
}

/// The turns the replay must run to reproduce the served state: all
/// of them, or, for a workload that restarts its sessions every cycle,
/// the last cycle (every turn of a cycle is then covered, and the
/// replay ends where the server did).
fn replay_turns(w: &Workload, turns: &[u64]) -> Vec<(u64, u64)> {
    turns
        .iter()
        .map(|&k| {
            if w.cycle() > 1 {
                (k.saturating_sub(w.cycle()), k)
            } else {
                (0, k)
            }
        })
        .collect()
}

/// Expected responses for session `s`: set-up, then each served turn's
/// responses, taken from the replayed turn at the same place in the
/// cycle (`from..to` are the replayed turns).
fn expected(w: &Workload, s: usize, (from, to): (u64, u64), pass: &PassOut) -> Vec<Reply> {
    let get = |turn: Option<u64>| pass.responses.get(&(s, turn)).cloned().unwrap_or_default();
    let mut out = get(None);
    let cycle = w.cycle();
    for k in 0..to {
        let j = if k >= from {
            k
        } else {
            from + (k % cycle + cycle - from % cycle) % cycle
        };
        let mut resp = get(Some(j));
        // Turn 0 runs on the set-up session; later turns close and
        // reopen it first.
        if k == 0 && j > 0 {
            resp.drain(..2.min(resp.len()));
        }
        out.extend(resp);
    }
    out
}

/// What the post-load checks found.
struct Checked {
    /// Wrong answers: each served reply that differs from the replay's,
    /// each answer whose size disagrees with the catalog, and each
    /// session whose knowledge, `rep` or journal files are wrong.
    wrong: u64,
    failures: Vec<String>,
}

/// The post-load checks shared by both modes: answers, knowledge, `rep`
/// and journal files against the replay.
fn check(
    w: &Workload,
    server: &Server,
    served_root: &Path,
    served_resp: &[Digest],
    turns: &[(u64, u64)],
    pass: &PassOut,
    replay_root: &Path,
) -> Checked {
    let mut c = Checked {
        wrong: pass.truth_failures.len() as u64,
        failures: pass.truth_failures.clone(),
    };
    for (s, plan) in w.sessions.iter().enumerate() {
        let want = Digest::of(&expected(w, s, turns[s], pass));
        let got = &served_resp[s];
        let bad = got.mismatches(&want);
        if bad > 0 {
            c.wrong += bad;
            c.failures.push(format!(
                "{}: {bad} of the {} served responses differ from the replay's {}",
                plan.name,
                got.len(),
                want.len()
            ));
        }
        let want_k = pass.knowledge.get(&s);
        let got_k = server.with_session(&plan.tenant, &plan.name, |sess| {
            let xml = iixml_core::io::write_incomplete_xml(sess.knowledge(), sess.alphabet());
            (xml, sess.knowledge().contains(sess.source().document()))
        });
        match (got_k, want_k) {
            (Some((xml, has_doc)), Some(want)) => {
                if &xml != want {
                    c.wrong += 1;
                    c.failures.push(format!(
                        "{}: served knowledge differs from the replay",
                        plan.name
                    ));
                }
                if !has_doc {
                    c.wrong += 1;
                    c.failures
                        .push(format!("{}: rep no longer contains the source", plan.name));
                }
            }
            _ => {
                c.wrong += 1;
                c.failures
                    .push(format!("{}: session missing after the load", plan.name));
            }
        }
        let a = journal_files(&journal_dir(served_root, plan));
        let b = journal_files(&journal_dir(replay_root, plan));
        if a != b {
            c.wrong += 1;
            c.failures.push(format!(
                "{}: served journal files {a:?} differ from the replay's {b:?}",
                plan.name
            ));
        }
    }
    c
}

/// After a crash and restart, every session must hold exactly the
/// knowledge of its last acknowledged `Sync` (every turn ends with one).
/// Returns one failure per session that does not.
fn check_recovered(w: &Workload, server: &Server, pass: &PassOut) -> Vec<String> {
    let mut failures = Vec::new();
    for (s, plan) in w.sessions.iter().enumerate() {
        let got = server.with_session(&plan.tenant, &plan.name, |sess| {
            iixml_core::io::write_incomplete_xml(sess.knowledge(), sess.alphabet())
        });
        if got.as_ref() != pass.knowledge.get(&s) {
            failures.push(format!(
                "{}: recovered knowledge differs from the last sync",
                plan.name
            ));
        }
    }
    failures
}

/// Replays on one thread per connection (each connection's sessions
/// are independent), untraced, checking answers against the catalog.
fn correctness_pass(
    w: &Workload,
    turns: &[(u64, u64)],
    root: &Path,
    threads: usize,
) -> Result<PassOut, String> {
    let groups: Vec<Vec<usize>> = if threads > 1 {
        (0..CONNS)
            .map(|c| {
                (0..w.sessions.len())
                    .filter(|&s| w.sessions[s].conn == c)
                    .collect()
            })
            .collect()
    } else {
        vec![(0..w.sessions.len()).collect()]
    };
    let outs: Vec<Result<PassOut, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .iter()
            .map(|g| scope.spawn(move || run_pass(w, g, turns, root, Pass::Check)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("replay thread panicked".into()))
            })
            .collect()
    });
    let mut merged: Option<PassOut> = None;
    for out in outs {
        let out = out?;
        match merged.as_mut() {
            None => merged = Some(out),
            Some(m) => {
                m.responses.extend(out.responses);
                m.knowledge.extend(out.knowledge);
                m.truth_failures.extend(out.truth_failures);
                m.bytes_written += out.bytes_written;
                m.counters += out.counters;
            }
        }
    }
    merged.ok_or_else(|| "no replay ran".to_string())
}

fn end_to_end(w: &Workload, args: &Args, base: &Path) -> Result<Report, String> {
    let root = base.join("journal");
    let (mut st, mut setup_secs) = repeated_setup(w, &root, SETUP_REPEATS / 2)?;
    let segments = (args.seconds * 1000).div_ceil(served::SEGMENT.as_millis() as u64) as usize;
    let (turns, phase) = served::load(w, &mut st, Stop::Segments(segments));
    let rss = stats::peak_rss_mb();
    let logs = std::mem::take(&mut st.logs);
    let merged = served::merge(w, logs);
    let replay_root = base.join("replay");
    let rturns = replay_turns(w, &turns);
    // Both connections' replays write under one root; sessions never
    // share a journal directory.
    let pass = correctness_pass(w, &rturns, &replay_root, CONNS)?;
    let checked = check(
        w,
        &st.server,
        &root,
        &merged.responses,
        &rturns,
        &pass,
        &replay_root,
    );
    let Setup { server, conns, .. } = st;
    drop(conns);
    let (server, recover_secs) = served::crash_and_recover(server, &root, RECOVER_REPEATS)?;
    let recovered = check_recovered(w, &server, &pass);
    let failed = merged.failed + checked.wrong + recovered.len() as u64;
    let mut failures = merged.errors.clone();
    failures.extend(checked.failures);
    failures.extend(recovered);
    drop(server.shutdown());
    // The rest of the set-ups, at the end of the run.
    let after = SETUP_REPEATS - setup_secs.len();
    setup_secs.extend(spare_setups(w, &root, "post", after)?);

    // The host's slowness over the run, against the reference: a figure
    // in reference units is the raw one with it taken out.
    let host_ref_us = stats::median(&mut phase.probes_us.clone());
    let slow = host_ref_us / calib::REF_US;
    let mut metrics = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str, note: String| {
        metrics.push((name.to_string(), value, unit, note));
    };
    put(
        "setup_s",
        stats::median(&mut setup_secs.clone()),
        "s",
        format!(" (median of {SETUP_REPEATS})"),
    );
    let timed = segments.min(merged.answered.len());
    let mut rates: Vec<f64> = (0..timed)
        .map(|seg| merged.answered[seg] as f64 / phase.active_s[seg])
        .collect();
    let throughput = stats::median(&mut rates);
    let answered: u64 = merged.answered.iter().sum();
    let note = format!(" (median of {timed} segments; {answered} answered)");
    put("throughput_rps", throughput, "1/s", note.clone());
    put("throughput_ref_rps", throughput * slow, "1/ref_s", note);
    let mut samples = Json::obj();
    for (k, name) in KINDS.iter().enumerate() {
        let h = &merged.lat[k];
        let p50 = h.median() / 1e3;
        let (tail, pct) = h.tail();
        let n = h.len();
        let note = format!(" (n={n})");
        put(&format!("{name}_p50_us"), p50, "us", note.clone());
        put(&format!("{name}_p50_ref_us"), p50 / slow, "ref_us", note);
        put(
            &format!("{name}_p99_us"),
            tail / 1e3,
            "us",
            format!(" (p{pct:.1}; n={n})"),
        );
        samples = samples.set(*name, n);
    }
    put(
        "recover_s",
        stats::median(&mut recover_secs.clone()),
        "s",
        format!(" (median of {RECOVER_REPEATS})"),
    );
    let refines = pass.counters.refines.max(1);
    put(
        "journal_bytes_per_write",
        pass.bytes_written as f64 / refines as f64,
        "bytes",
        format!(
            " ({} bytes over {refines} refining requests)",
            pass.bytes_written
        ),
    );
    put("peak_rss_mb", rss, "MiB", String::new());
    put(
        "host_ref_us",
        host_ref_us,
        "us",
        format!(
            " (reference kernel call, median of {} probes)",
            phase.probes_us.len()
        ),
    );
    let failed_ratio = failed as f64 / merged.attempted.max(1) as f64;
    println!(
        "{} failed_ratio = {failed_ratio:.6} ratio ({failed} of {} attempted)",
        w.kind.name(),
        merged.attempted
    );
    let total_turns: u64 = turns.iter().sum();
    let list = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::from(x)).collect());
    let detail = Json::obj()
        .set("samples", samples)
        .set("turns", total_turns)
        .set("failed_ratio", failed_ratio)
        .set("setup_s_all", list(&setup_secs))
        .set("recover_s_all", list(&recover_secs))
        .set("probes_us", list(&phase.probes_us))
        .set("segment_active_s", list(&phase.active_s));
    Ok(Report {
        correct: failures.is_empty() && failed == 0,
        attempted: merged.attempted.max(1),
        failed,
        failures,
        metrics,
        detail,
    })
}

/// Rounds each connection serves in the traced run (a fixed slice of
/// the streams, so allocation counts repeat exactly).
fn trace_rounds(kind: Kind) -> u64 {
    match kind {
        Kind::CatalogMix => 1,
        Kind::DeepRefine => 1,
        Kind::DurableWrites => 24,
    }
}

fn traced(w: &Workload, args: &Args, base: &Path) -> Result<Report, String> {
    let root = base.join("journal");
    let (mut st, _) = repeated_setup(w, &root, 0)?;
    let (turns, _) = served::load(w, &mut st, Stop::Rounds(trace_rounds(w.kind)));
    let logs = std::mem::take(&mut st.logs);
    let merged = served::merge(w, logs);
    let replay_root = base.join("replay");
    let rturns = replay_turns(w, &turns);
    let pass = correctness_pass(w, &rturns, &replay_root, 1)?;
    let checked = check(
        w,
        &st.server,
        &root,
        &merged.responses,
        &rturns,
        &pass,
        &replay_root,
    );
    let Setup { server, conns, .. } = st;
    drop(conns);
    let (server, _) = served::crash_and_recover(server, &root, 1)?;
    let recovered = check_recovered(w, &server, &pass);
    let failed = merged.failed + checked.wrong + recovered.len() as u64;
    let mut failures = merged.errors.clone();
    failures.extend(checked.failures);
    failures.extend(recovered);
    drop(server.shutdown());
    let _ = std::fs::remove_dir_all(&root);

    // Timing passes: the same replay with span recording off and on,
    // alternating, until the run's seconds are spent. Kernels run at
    // width 1, so the replay is single-threaded and its allocation
    // counts repeat exactly (parallel chunk claiming varies run to run).
    iixml_par::set_threads(Some(1));
    let all: Vec<usize> = (0..w.sessions.len()).collect();
    let t0 = Instant::now();
    let mut walls: [Vec<f64>; 2] = Default::default();
    let mut totals: BTreeMap<&'static str, trace::LayerTotals> = BTreeMap::new();
    let mut roots: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut first_spans: Option<Vec<trace::Span>> = None;
    let mut recorded = 0usize;
    while walls[1].len() < 2 || t0.elapsed().as_secs() < args.seconds {
        for on in [false, true] {
            let timing_root = base.join("timing");
            let _ = std::fs::remove_dir_all(&timing_root);
            let out = run_pass(w, &all, &rturns, &timing_root, Pass::Timing { trace: on })?;
            walls[usize::from(on)].push(out.wall_ns as f64);
            if on {
                for (name, t) in trace::self_totals(&out.spans) {
                    let e = totals.entry(name).or_default();
                    e.calls += t.calls;
                    e.self_ns += t.self_ns;
                    e.self_allocs += t.self_allocs;
                }
                // Only the turns' requests: the served samples time
                // those, never the set-up.
                for s in &out.spans {
                    if s.parent.is_none()
                        && s.name.starts_with("request.")
                        && s.req > out.setup_requests
                    {
                        roots.entry(s.name).or_default().push(s.end_ns - s.start_ns);
                    }
                }
                recorded += 1;
                if first_spans.is_none() {
                    first_spans = Some(out.spans);
                }
            }
        }
    }
    iixml_par::set_threads(None);
    let spans_path = args.out.join(format!("spans-{}.jsonl", w.kind.name()));
    if let Some(spans) = &first_spans {
        std::fs::write(&spans_path, trace::spans_jsonl(spans))
            .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    }
    let per_call_us = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / t.calls.max(1) as f64 / 1e3)
    };
    let per_call_allocs = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.self_allocs as f64 / t.calls.max(1) as f64)
    };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let c = pass.counters;

    // Residual: served per-class p50 minus the replayed request's p50
    // over the same turns, weighted by served samples.
    let (mut res_sum, mut served_sum, mut n_sum) = (0.0, 0.0, 0.0);
    for (k, name) in KINDS.iter().enumerate() {
        let h = &merged.lat[k];
        let Some(r) = roots.get_mut(format!("request.{name}").as_str()) else {
            continue;
        };
        r.sort_unstable();
        let n = h.len() as f64;
        let served_p50 = h.median() / 1e3;
        res_sum += n * (served_p50 - stats::median_sorted(r) / 1e3);
        served_sum += n * served_p50;
        n_sum += n;
    }
    let residual_us = if n_sum > 0.0 { res_sum / n_sum } else { 0.0 };
    let residual_share = if served_sum > 0.0 {
        res_sum / served_sum
    } else {
        0.0
    };
    let mut wall_off = walls[0].clone();
    let mut wall_on = walls[1].clone();
    let overhead = stats::median(&mut wall_on) / stats::median(&mut wall_off);

    let value = |name: &str| -> f64 {
        match name {
            "serve.proto.bytes_per_req" => ratio(c.frame_bytes, c.requests),
            "serve.residual_us" => residual_us,
            "serve.residual_share" => residual_share,
            "contain.hit_ratio" => ratio(c.hits, c.lookups),
            "contain.fast_reject_ratio" => ratio(c.miss_fast_rejects, c.miss_entries),
            "webhouse.source_calls_per_req" => ratio(c.source_calls, c.requests),
            "webhouse.answer_nodes" => ratio(c.answer_nodes, c.source_calls),
            "core.refine.product_symbols" => ratio(c.product_symbols, c.refines),
            "core.refine.minimize_keep_ratio" => ratio(c.minimized_symbols, c.trimmed_symbols),
            "core.knowledge_symbols" => ratio(c.minimized_symbols, c.refines),
            "core.answer.complete_ratio" => ratio(c.local_complete, c.local_answers),
            "mediator.local_queries" => ratio(c.local_queries, c.completions),
            "store.bytes_per_record" => ratio(pass.bytes_written, c.records),
            "store.records_per_sync" => ratio(c.records, c.syncs),
            "trace.overhead_ratio" => overhead,
            n if n.ends_with(".allocs") => per_call_allocs(n.trim_end_matches(".allocs")),
            n => per_call_us(n.trim_end_matches("_us")),
        }
    };
    let mut metrics = Vec::new();
    let mut layer_json = Json::obj();
    for &(name, unit, moves) in layers::LAYERS {
        let v = value(name);
        let span = name.trim_end_matches("_us").trim_end_matches(".allocs");
        let calls = totals.get(span).map_or(0, |t| t.calls);
        metrics.push((
            name.to_string(),
            v,
            unit,
            format!("  [calls={calls}; moves: {moves}]"),
        ));
        layer_json = layer_json.set(
            name,
            Json::obj()
                .set("value", v)
                .set("calls", calls)
                .set("moves", moves),
        );
    }
    println!(
        "{} traced replay: {} requests, {recorded} traced and {} untraced passes, spans in {}",
        w.kind.name(),
        c.requests,
        walls[0].len(),
        spans_path.display()
    );
    let detail = Json::obj()
        .set("layers", layer_json)
        .set("replayed_requests", c.requests)
        .set("traced_passes", recorded);
    Ok(Report {
        correct: failures.is_empty() && failed == 0,
        attempted: merged.attempted.max(1),
        failed,
        failures,
        metrics,
        detail,
    })
}
