//! The served half: an in-process `iixml-serve` server with journaled
//! sessions, driven over two closed-loop client connections.

use std::path::Path;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use iixml_serve::proto::Request;
use iixml_serve::{Client, RespOp, ServeConfig, Server};

use crate::calib;
use crate::plan::{Workload, CONNS};
use crate::replay::{admission_config, to_request, Reply};
use crate::stats::Hist;

/// Client-side deadlines: generous, so only a wedged server times out.
const CLIENT_TIMEOUT_MS: u64 = 60_000;

pub fn server_config(root: &Path) -> ServeConfig {
    ServeConfig {
        port: 0,
        journal_root: Some(root.to_path_buf()),
        batched_journal: true,
        admission: admission_config(),
        ..ServeConfig::default()
    }
}

/// A client connection and the tenant it is bound to.
pub struct Conn {
    client: Client,
    tenant: String,
}

impl Conn {
    fn bind(&mut self, tenant: &str) -> Result<(), String> {
        if self.tenant == tenant {
            return Ok(());
        }
        let resp = self
            .client
            .call(&Request::Hello {
                tenant: tenant.to_string(),
            })
            .map_err(|e| e.to_string())?;
        if resp.op != RespOp::Ok {
            return Err(format!("hello refused: {}", resp.body));
        }
        self.tenant = tenant.to_string();
        Ok(())
    }
}

/// A session's responses as one FNV-1a hash each, over the opcode and
/// the body. The client keeps these instead of the bodies, so the
/// process's peak memory is the server's, not the benchmark's logs,
/// and a check can still count the replies that differ.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    hashes: Vec<u64>,
}

impl Digest {
    /// An empty digest with room reserved for a run's replies: address
    /// space only, so its pages join the resident set as replies come
    /// in, not in the doubling steps `peak_rss_mb` would pick up.
    fn reserved() -> Digest {
        Digest {
            hashes: Vec::with_capacity(REPLY_RESERVE),
        }
    }

    pub fn push(&mut self, (op, body): &Reply) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in std::iter::once(op.byte()).chain(body.bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.hashes.push(h);
    }

    pub fn of(replies: &[Reply]) -> Digest {
        let mut d = Digest::default();
        for r in replies {
            d.push(r);
        }
        d
    }

    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Replies that differ from `want`'s at the same position, plus
    /// those only one of the two has.
    pub fn mismatches(&self, want: &Digest) -> u64 {
        let differ = self
            .hashes
            .iter()
            .zip(&want.hashes)
            .filter(|(a, b)| a != b)
            .count();
        (differ + self.len().abs_diff(want.len())) as u64
    }
}

/// Replies reserved per session (see [`Digest::reserved`]).
const REPLY_RESERVE: usize = 1 << 15;

/// What one connection saw.
#[derive(Default)]
pub struct ConnLog {
    /// Per session (workload index): the digest of every response,
    /// set-up first.
    pub responses: Vec<(usize, Digest)>,
    /// Timed latencies per `plan::KINDS` class.
    pub lat: [Hist; 4],
    /// Requests sent after set-up.
    pub attempted: u64,
    /// Requests answered per segment of the timed phase.
    pub answered: Vec<u64>,
    /// Requests that errored, were shed or timed out.
    pub failed: u64,
    pub errors: Vec<String>,
}

/// A started server with its set-up done.
pub struct Setup {
    pub server: Server,
    pub conns: Vec<Conn>,
    pub logs: Vec<ConnLog>,
    pub secs: f64,
}

fn sessions_of(w: &Workload, conn: usize) -> Vec<usize> {
    (0..w.sessions.len())
        .filter(|&s| w.sessions[s].conn == conn)
        .collect()
}

/// Sends one request; returns the response, or records a failure.
fn call(conn: &mut Conn, req: &Request, log: &mut ConnLog) -> Option<Reply> {
    match conn.client.call(req) {
        Ok(r) if r.op == RespOp::Shed || r.op == RespOp::Err => {
            log.failed += 1;
            log.errors.push(format!("{:?}: {}", r.op, r.body));
            None
        }
        Ok(r) => Some((r.op, r.body)),
        Err(e) => {
            log.failed += 1;
            log.errors.push(format!("transport: {e}"));
            None
        }
    }
}

/// Starts a server on an empty journal root and runs every session's
/// set-up (open, plus pre-refining where the workload asks for it),
/// each connection its own sessions, concurrently.
pub fn setup(w: &Workload, root: &Path) -> Result<Setup, String> {
    let _ = std::fs::remove_dir_all(root);
    std::fs::create_dir_all(root).map_err(|e| format!("{}: {e}", root.display()))?;
    let t0 = Instant::now();
    let server = Server::start(server_config(root)).map_err(|e| e.to_string())?;
    let port = server.port();
    let results: Vec<Result<(Conn, ConnLog), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                scope.spawn(move || -> Result<(Conn, ConnLog), String> {
                    let mine = sessions_of(w, c);
                    let first = mine
                        .first()
                        .map_or("idle".to_string(), |&s| w.sessions[s].tenant.clone());
                    let client =
                        Client::connect(port, &first, CLIENT_TIMEOUT_MS, CLIENT_TIMEOUT_MS)
                            .map_err(|e| e.to_string())?;
                    let mut conn = Conn {
                        client,
                        tenant: first,
                    };
                    let mut log = ConnLog::default();
                    for s in mine {
                        let plan = &w.sessions[s];
                        conn.bind(&plan.tenant)?;
                        let mut got = Digest::reserved();
                        for op in &plan.setup {
                            let resp = call(&mut conn, &to_request(plan, op), &mut log)
                                .ok_or_else(|| format!("set-up failed: {:?}", log.errors))?;
                            got.push(&resp);
                        }
                        log.responses.push((s, got));
                    }
                    Ok((conn, log))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("set-up thread panicked".into()))
            })
            .collect()
    });
    let secs = t0.elapsed().as_secs_f64();
    let mut conns = Vec::new();
    let mut logs = Vec::new();
    for r in results {
        let (c, l) = r?;
        conns.push(c);
        logs.push(l);
    }
    Ok(Setup {
        server,
        conns,
        logs,
        secs,
    })
}

/// Length of one segment of the timed phase. Each segment is
/// summarized on its own and against the host speed probed at its two
/// ends, and a run reports the median over its segments.
pub const SEGMENT: Duration = Duration::from_millis(500);

/// How long the load runs.
#[derive(Clone, Copy)]
pub enum Stop {
    /// This many segments of [`SEGMENT`], with a host-speed probe before
    /// the first and after each while the clients wait; then each
    /// connection finishes its turn (and cycle), untimed.
    Segments(usize),
    /// This many rounds over each connection's sessions; every sample
    /// lands in segment 0.
    Rounds(u64),
}

/// What the timed phase measured besides the clients' samples.
#[derive(Default)]
pub struct Phase {
    /// Host-speed probes (µs per reference-kernel call): one before the
    /// first segment and one after each.
    pub probes_us: Vec<f64>,
    /// Each segment's time with the clients running (s).
    pub active_s: Vec<f64>,
}

/// Pauses the clients between segments: a client passes the gate
/// before every request and parks while it is shut.
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

struct GateState {
    shut: bool,
    /// Clients parked at the gate.
    parked: usize,
    /// Clients still driving load.
    active: usize,
    /// The segment requests now belong to; `None` once the phase is
    /// over.
    segment: Option<usize>,
}

const GATE_POISONED: &str = "a client panicked while holding the gate";

impl Gate {
    /// A shut gate: the clients park at their first request.
    fn new(clients: usize) -> Gate {
        Gate {
            state: Mutex::new(GateState {
                shut: true,
                parked: 0,
                active: clients,
                segment: Some(0),
            }),
            cv: Condvar::new(),
        }
    }

    /// Parks while the gate is shut; returns the segment a request sent
    /// now belongs to.
    fn pass(&self) -> Option<usize> {
        let mut g = self.state.lock().expect(GATE_POISONED);
        if g.shut {
            g.parked += 1;
            self.cv.notify_all();
            while g.shut {
                g = self.cv.wait(g).expect(GATE_POISONED);
            }
            g.parked -= 1;
        }
        g.segment
    }

    /// Shuts the gate and waits until every active client has parked.
    fn shut(&self) {
        let mut g = self.state.lock().expect(GATE_POISONED);
        g.shut = true;
        while g.parked < g.active {
            g = self.cv.wait(g).expect(GATE_POISONED);
        }
    }

    fn open(&self, segment: Option<usize>) {
        let mut g = self.state.lock().expect(GATE_POISONED);
        g.shut = false;
        g.segment = segment;
        self.cv.notify_all();
    }

    fn over(&self) -> bool {
        self.state.lock().expect(GATE_POISONED).segment.is_none()
    }
}

/// Takes a client out of the gate's count when it stops, on every path,
/// so the coordinator never waits for it to park.
struct Leave<'a>(Option<&'a Gate>);

impl Drop for Leave<'_> {
    fn drop(&mut self) {
        if let Some(gate) = self.0 {
            let mut g = gate
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            g.active -= 1;
            gate.cv.notify_all();
        }
    }
}

/// Drives the load: each connection serves its sessions round-robin,
/// one whole turn at a time, waiting for every reply. Returns the turns
/// served per session and, for [`Stop::Segments`], the probes and
/// segment times.
pub fn load(w: &Workload, setup: &mut Setup, stop: Stop) -> (Vec<u64>, Phase) {
    let gate = Gate::new(setup.conns.len());
    let gate = match stop {
        Stop::Segments(_) => Some(&gate),
        Stop::Rounds(_) => None,
    };
    let mut phase = Phase::default();
    let per_conn: Vec<Vec<(usize, u64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = setup
            .conns
            .iter_mut()
            .zip(setup.logs.iter_mut())
            .enumerate()
            .map(|(c, (conn, log))| {
                scope.spawn(move || {
                    let _leave = Leave(gate);
                    drive(w, c, conn, log, stop, gate)
                })
            })
            .collect();
        if let (Stop::Segments(n), Some(gate)) = (stop, gate) {
            gate.shut();
            phase.probes_us.push(calib::probe(CONNS));
            for seg in 0..n {
                let t0 = Instant::now();
                gate.open(Some(seg));
                std::thread::sleep(SEGMENT);
                gate.shut();
                phase.active_s.push(t0.elapsed().as_secs_f64());
                phase.probes_us.push(calib::probe(CONNS));
            }
            gate.open(None);
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let mut turns = vec![0u64; w.sessions.len()];
    for (s, k) in per_conn.into_iter().flatten() {
        turns[s] = k;
    }
    (turns, phase)
}

fn drive(
    w: &Workload,
    c: usize,
    conn: &mut Conn,
    log: &mut ConnLog,
    stop: Stop,
    gate: Option<&Gate>,
) -> Vec<(usize, u64)> {
    let mine = sessions_of(w, c);
    let mut turns = vec![0u64; mine.len()];
    let mut round = 0u64;
    'timed: loop {
        if let Stop::Rounds(r) = stop {
            if round >= r {
                break;
            }
        }
        for (i, &s) in mine.iter().enumerate() {
            if gate.is_some_and(Gate::over) {
                break 'timed;
            }
            if !serve_turn(w, s, turns[i], conn, log, gate) {
                return Vec::new();
            }
            turns[i] += 1;
        }
        round += 1;
    }
    // Finish each session's cycle, so the run ends in the same state
    // wherever the phase ended. Past the last segment these turns are
    // not timed; a run of whole rounds times them too, so its samples
    // cover every turn the traced replay runs.
    for (i, &s) in mine.iter().enumerate() {
        while !turns[i].is_multiple_of(w.cycle()) {
            if !serve_turn(w, s, turns[i], conn, log, gate) {
                return Vec::new();
            }
            turns[i] += 1;
        }
    }
    mine.into_iter().zip(turns).collect()
}

/// Serves session `s`'s turn `k`, recording every response and the
/// latency of every request sent inside a segment (with no gate, every
/// request is timed in segment 0). Returns false when the connection
/// failed.
fn serve_turn(
    w: &Workload,
    s: usize,
    k: u64,
    conn: &mut Conn,
    log: &mut ConnLog,
    gate: Option<&Gate>,
) -> bool {
    let pass = || gate.map_or(Some(0), Gate::pass);
    let plan = &w.sessions[s];
    pass();
    if let Err(e) = conn.bind(&plan.tenant) {
        log.failed += 1;
        log.errors.push(e);
        return false;
    }
    let slot = match log.responses.iter().position(|(x, _)| *x == s) {
        Some(i) => i,
        None => {
            log.responses.push((s, Digest::reserved()));
            log.responses.len() - 1
        }
    };
    for op in w.turn(s, k) {
        let req = to_request(plan, &op);
        let seg = pass();
        log.attempted += 1;
        let t0 = Instant::now();
        let resp = call(conn, &req, log);
        let ns = t0.elapsed().as_nanos() as u64;
        let Some(resp) = resp else {
            return false;
        };
        if let Some(seg) = seg {
            if log.answered.len() <= seg {
                log.answered.resize(seg + 1, 0);
            }
            log.answered[seg] += 1;
            if let Some(class) = op.kind() {
                log.lat[class].record(ns);
            }
        }
        log.responses[slot].1.push(&resp);
    }
    true
}

/// The connections' logs merged: responses per session, the timed
/// latencies per `plan::KINDS` class, and counts.
pub struct Merged {
    pub responses: Vec<Digest>,
    pub lat: [Hist; 4],
    pub attempted: u64,
    pub answered: Vec<u64>,
    pub failed: u64,
    pub errors: Vec<String>,
}

pub fn merge(w: &Workload, logs: Vec<ConnLog>) -> Merged {
    let mut m = Merged {
        responses: vec![Digest::default(); w.sessions.len()],
        lat: Default::default(),
        attempted: 0,
        answered: Vec::new(),
        failed: 0,
        errors: Vec::new(),
    };
    for log in logs {
        for (s, d) in log.responses {
            m.responses[s] = d;
        }
        for (all, h) in m.lat.iter_mut().zip(&log.lat) {
            all.merge(h);
        }
        if m.answered.len() < log.answered.len() {
            m.answered.resize(log.answered.len(), 0);
        }
        for (seg, n) in log.answered.into_iter().enumerate() {
            m.answered[seg] += n;
        }
        m.attempted += log.attempted;
        m.failed += log.failed;
        m.errors.extend(log.errors);
    }
    m
}

/// Kills the server (no flush, no drain) and restarts it on the same
/// journal root, `times` times; returns the restarted server and each
/// restart's wall time until every session was live.
pub fn crash_and_recover(
    server: Server,
    root: &Path,
    times: usize,
) -> Result<(Server, Vec<f64>), String> {
    let mut server = server;
    let mut secs = Vec::new();
    for _ in 0..times.max(1) {
        server.crash();
        let t0 = Instant::now();
        server = Server::start(server_config(root)).map_err(|e| e.to_string())?;
        secs.push(t0.elapsed().as_secs_f64());
    }
    Ok((server, secs))
}

/// Median latency of a write+fsync of 4 KiB on the filesystem holding
/// `dir` (µs), over 32 probes.
pub fn fsync_probe_us(dir: &Path) -> f64 {
    use std::io::Write;
    let path = dir.join("fsync-probe.tmp");
    let mut samples = Vec::new();
    let block = [0x5Au8; 4096];
    for _ in 0..32 {
        let t0 = Instant::now();
        let ok = std::fs::File::create(&path)
            .and_then(|mut f| f.write_all(&block).and_then(|_| f.sync_all()))
            .is_ok();
        if ok {
            samples.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    let _ = std::fs::remove_file(&path);
    crate::stats::median(&mut samples)
}
