//! The replay: the served request streams run single-threaded through
//! each layer's public functions, in the order the server's request
//! handler calls them, with a span around every call.
//!
//! Per request: client frame encode, server frame decode and request
//! parse, tenant admission, query parse, containment lookup, source
//! call and answer validation, Refine (T_{q,A}, intersect, trim,
//! minimize) with the journal check/append/snapshot around it, local
//! answering or mediator completion, journal sync, then response encode
//! and client decode. Each session's journal is written exactly as the
//! server writes it, so the replay's knowledge and journal files must
//! match the served ones byte for byte.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use iixml_contain::AnswerCache;
use iixml_core::refine::{intersect, query_answer_tree};
use iixml_core::IncompleteTree;
use iixml_mediator::Mediator;
use iixml_query::parse::parse_ps_query;
use iixml_query::{Answer, PsQuery};
use iixml_serve::proto::{self, ReqOp, Request, RespOp, HEADER_LEN};
use iixml_serve::{Admission, AdmissionConfig, TenantGate};
use iixml_store::{FlushPolicy, RecoveryMode, SessionJournal};
use iixml_tree::{Alphabet, DataTree};
use iixml_webhouse::validate::validate_answer;
use iixml_webhouse::{Source, SourceEndpoint};

use crate::plan::{Op, SessionPlan, Workload};
use crate::trace::{Span, Tracer};

/// A response as a client sees it: opcode and body.
pub type Reply = (RespOp, String);

/// What a replay pass records besides spans.
#[derive(Clone, Copy, Default, Debug)]
pub struct Counters {
    pub requests: u64,
    pub frame_bytes: u64,
    pub lookups: u64,
    pub hits: u64,
    pub miss_fast_rejects: u64,
    pub miss_entries: u64,
    pub source_calls: u64,
    pub answer_nodes: u64,
    pub refines: u64,
    pub product_symbols: u64,
    pub trimmed_symbols: u64,
    pub minimized_symbols: u64,
    pub local_answers: u64,
    pub local_complete: u64,
    pub completions: u64,
    pub local_queries: u64,
    pub records: u64,
    pub syncs: u64,
}

impl std::ops::AddAssign for Counters {
    fn add_assign(&mut self, o: Counters) {
        self.requests += o.requests;
        self.frame_bytes += o.frame_bytes;
        self.lookups += o.lookups;
        self.hits += o.hits;
        self.miss_fast_rejects += o.miss_fast_rejects;
        self.miss_entries += o.miss_entries;
        self.source_calls += o.source_calls;
        self.answer_nodes += o.answer_nodes;
        self.refines += o.refines;
        self.product_symbols += o.product_symbols;
        self.trimmed_symbols += o.trimmed_symbols;
        self.minimized_symbols += o.minimized_symbols;
        self.local_answers += o.local_answers;
        self.local_complete += o.local_complete;
        self.completions += o.completions;
        self.local_queries += o.local_queries;
        self.records += o.records;
        self.syncs += o.syncs;
    }
}

/// What a pass is for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pass {
    /// The correctness pass: also counts journal bytes written
    /// (directory scans between requests) and checks every exact
    /// answer's size against direct evaluation on the source.
    Check,
    /// A timing pass, with or without span recording; it ends by timing
    /// `iixml_store::recover` on every journal.
    Timing { trace: bool },
}

/// The outcome of one replay pass.
pub struct PassOut {
    /// Per session (workload index) and turn (`None` = set-up): the
    /// `(op, body)` of every request.
    pub responses: BTreeMap<(usize, Option<u64>), Vec<Reply>>,
    /// Per session: the final knowledge, serialized.
    pub knowledge: BTreeMap<usize, String>,
    /// Answers whose size disagrees with direct evaluation.
    pub truth_failures: Vec<String>,
    pub counters: Counters,
    pub spans: Vec<Span>,
    pub wall_ns: u64,
    /// Requests replayed during set-up; they carry request ids
    /// `1..=setup_requests`, the turns' requests the ids after.
    pub setup_requests: u64,
    /// Journal bytes written (WAL segments + snapshots), when tracked.
    pub bytes_written: u64,
}

struct RSession {
    alpha: Alphabet,
    source: Source,
    current: IncompleteTree,
    cache: AnswerCache,
    journal: Option<SessionJournal>,
    jdir: PathBuf,
}

/// The containment cache toggle, read from the environment the way
/// the webhouse reads it.
fn contain_enabled() -> bool {
    match std::env::var(iixml_obs::keys::ENV_CONTAIN_CACHE) {
        Ok(v) => !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "0" | "false" | "off" | "no"
        ),
        Err(_) => true,
    }
}

/// The admission limits the served runs use: high enough that honest
/// load never sheds.
pub fn admission_config() -> AdmissionConfig {
    AdmissionConfig {
        max_sessions: 4096,
        max_inflight: 256,
        quota_burst: 1 << 40,
        quota_refill: 1 << 40,
        refill_ms: 50,
    }
}

/// The journal directory of a session under `root`, as the server
/// lays it out.
pub fn journal_dir(root: &Path, plan: &SessionPlan) -> PathBuf {
    root.join(&plan.tenant).join(format!("{}.j", plan.name))
}

/// WAL segments and snapshots in a journal directory, with sizes.
pub fn journal_files(dir: &Path) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    if let Ok(rd) = std::fs::read_dir(dir) {
        for e in rd.flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            let keep = (name.starts_with("seg-") && name.ends_with(".wal"))
                || (name.starts_with("snap-") && name.ends_with(".snap"));
            if keep {
                out.push((name, e.metadata().map_or(0, |m| m.len())));
            }
        }
    }
    out.sort();
    out
}

struct Replayer<'w> {
    w: &'w Workload,
    root: PathBuf,
    pass: Pass,
    contain: bool,
    admission: Admission,
    gates: HashMap<String, Arc<TenantGate>>,
    sessions: BTreeMap<usize, RSession>,
    c: Counters,
    /// Largest size seen per live journal file.
    disk: HashMap<PathBuf, u64>,
    /// Bytes of journals that closed sessions deleted.
    disk_closed: u64,
    out: PassOut,
}

/// Replays sessions `which` of `w`: set-up, then turns
/// `turns[s].0..turns[s].1` round-robin by turn number, as the
/// connections served them. `root`
/// must hold no journals of these sessions; the journals stay there for
/// the caller to compare and remove.
pub fn run_pass(
    w: &Workload,
    which: &[usize],
    turns: &[(u64, u64)],
    root: &Path,
    pass: Pass,
) -> Result<PassOut, String> {
    std::fs::create_dir_all(root).map_err(|e| format!("{}: {e}", root.display()))?;
    let mut r = Replayer {
        w,
        root: root.to_path_buf(),
        pass,
        contain: contain_enabled(),
        admission: Admission::new(admission_config()),
        gates: HashMap::new(),
        sessions: BTreeMap::new(),
        c: Counters::default(),
        disk: HashMap::new(),
        disk_closed: 0,
        out: PassOut {
            responses: BTreeMap::new(),
            knowledge: BTreeMap::new(),
            truth_failures: Vec::new(),
            counters: Counters::default(),
            spans: Vec::new(),
            wall_ns: 0,
            setup_requests: 0,
            bytes_written: 0,
        },
    };
    let mut t = Tracer::new(pass == Pass::Timing { trace: true });
    let t0 = Instant::now();
    t.begin();
    let result = r.run(&mut t, which, turns);
    t.end();
    r.out.wall_ns = t0.elapsed().as_nanos() as u64;
    result?;
    for (&s, sess) in &r.sessions {
        r.out.knowledge.insert(
            s,
            iixml_core::io::write_incomplete_xml(&sess.current, &sess.alpha),
        );
    }
    r.out.counters = r.c;
    r.out.bytes_written = r.disk_closed + r.disk.values().sum::<u64>();
    r.out.spans = t.into_spans();
    Ok(r.out)
}

impl Replayer<'_> {
    fn run(&mut self, t: &mut Tracer, which: &[usize], turns: &[(u64, u64)]) -> Result<(), String> {
        for &s in which {
            for op in self.w.sessions[s].setup.clone() {
                self.request(t, s, None, &op)?;
            }
        }
        self.out.setup_requests = self.c.requests;
        let first = which.iter().map(|&s| turns[s].0).min().unwrap_or(0);
        let last = which.iter().map(|&s| turns[s].1).max().unwrap_or(0);
        for k in first..last {
            for &s in which {
                if (turns[s].0..turns[s].1).contains(&k) {
                    for op in self.w.turn(s, k) {
                        self.request(t, s, Some(k), &op)?;
                    }
                }
            }
        }
        if self.pass != Pass::Check {
            for &s in which {
                // A restart: the writer is dropped (every turn ended
                // with a sync), then the journal is read back.
                if let Some(sess) = self.sessions.get_mut(&s) {
                    drop(sess.journal.take());
                    let dir = sess.jdir.clone();
                    t.set_request(u64::MAX);
                    let rec = t.span("store.recover", |_| {
                        iixml_store::recover(&dir, RecoveryMode::Degrade)
                    });
                    rec.map_err(|e| format!("replay recovery of {}: {e}", dir.display()))?;
                }
            }
        }
        Ok(())
    }

    /// One request through every layer; records the response it
    /// produced.
    fn request(
        &mut self,
        t: &mut Tracer,
        s: usize,
        turn: Option<u64>,
        op: &Op,
    ) -> Result<(), String> {
        let w = self.w;
        let plan = &w.sessions[s];
        let req = to_request(plan, op);
        let root_name = match op {
            Op::Open(_) => "request.open",
            Op::Fetch(_) => "request.fetch",
            Op::Ask(_) => "request.ask",
            Op::Mediate(_) => "request.mediate",
            Op::Sync => "request.sync",
            Op::Close => "request.close",
        };
        self.c.requests += 1;
        t.set_request(self.c.requests);
        let gate = match self.gates.get(&plan.tenant) {
            Some(g) => Arc::clone(g),
            None => {
                let g = self.admission.gate(&plan.tenant);
                self.gates.insert(plan.tenant.clone(), Arc::clone(&g));
                g
            }
        };
        let (op_out, body) = t.span(root_name, |t| -> Result<Reply, String> {
            let frame = t.span("serve.proto.encode", |_| proto::encode_request(&req));
            let decoded = t.span("serve.proto.decode", |_| decode_request(&frame))?;
            let _guard = t
                .span("serve.tenant.admit", |_| self.admission.try_request(&gate))
                .map_err(|shed| format!("replay shed: {}", shed.reason()))?;
            let (op_out, body) = self.handle(t, s, decoded)?;
            let resp = t.span("serve.proto.encode", |_| {
                proto::encode_frame(op_out.byte(), body.as_bytes())
            });
            let (op_back, body_back) = t.span("serve.proto.decode", |_| decode_response(&resp))?;
            self.c.frame_bytes += (frame.len() + resp.len()) as u64;
            Ok((op_back, body_back))
        })?;
        if self.pass == Pass::Check && !matches!(op, Op::Ask(_) | Op::Close) {
            self.note_disk(&journal_dir(&self.root, plan));
        }
        self.out
            .responses
            .entry((s, turn))
            .or_default()
            .push((op_out, body));
        Ok(())
    }

    fn handle(&mut self, t: &mut Tracer, s: usize, req: Request) -> Result<Reply, String> {
        match req {
            Request::Open { seed, .. } => {
                let w = self.w;
                let plan = &w.sessions[s];
                let jdir = journal_dir(&self.root, plan);
                let sess = t.span("webhouse.open", |_| open_session(plan, seed, &jdir))?;
                self.sessions.insert(s, sess);
                Ok((RespOp::Opened, "created\nok".to_string()))
            }
            Request::Close { .. } => {
                let mut sess = self
                    .sessions
                    .remove(&s)
                    .ok_or("close of an unknown session")?;
                if let Some(j) = sess.journal.as_mut() {
                    t.span("store.journal.sync", |_| j.sync())
                        .map_err(|e| e.to_string())?;
                }
                drop(sess.journal.take());
                if self.pass == Pass::Check {
                    // A reopened session reuses the file names: bank
                    // this journal's bytes before it goes.
                    self.note_disk(&sess.jdir);
                    let gone: Vec<PathBuf> = self
                        .disk
                        .keys()
                        .filter(|p| p.starts_with(&sess.jdir))
                        .cloned()
                        .collect();
                    for p in gone {
                        self.disk_closed += self.disk.remove(&p).unwrap_or(0);
                    }
                }
                let _ = std::fs::remove_dir_all(&sess.jdir);
                Ok((RespOp::Ok, "closed\nok".to_string()))
            }
            Request::Sync { .. } => {
                let sess = self
                    .sessions
                    .get_mut(&s)
                    .ok_or("sync of an unknown session")?;
                if let Some(j) = sess.journal.as_mut() {
                    t.span("store.journal.sync", |_| j.sync())
                        .map_err(|e| e.to_string())?;
                }
                self.c.syncs += 1;
                Ok((RespOp::Ok, "synced\nok".to_string()))
            }
            Request::Fetch { query, .. } => {
                let (contain, c) = (self.contain, &mut self.c);
                let sess = self
                    .sessions
                    .get_mut(&s)
                    .ok_or("fetch on an unknown session")?;
                let q = t
                    .span("query.parse", |_| parse_ps_query(&query, &mut sess.alpha))
                    .map_err(|e| e.to_string())?;
                let (ans, hit) = fetch(t, sess, &q, contain, c)?;
                if self.pass == Pass::Check {
                    self.truth(s, &q, ans.len());
                }
                Ok((
                    RespOp::Answer,
                    format!("ok\nnodes={}\ncontain={}", ans.len(), hit_word(hit)),
                ))
            }
            Request::Ask { query, .. } => {
                let c = &mut self.c;
                let sess = self
                    .sessions
                    .get_mut(&s)
                    .ok_or("ask on an unknown session")?;
                let q = t
                    .span("query.parse", |_| parse_ps_query(&query, &mut sess.alpha))
                    .map_err(|e| e.to_string())?;
                match answer_locally(t, sess, &q, c) {
                    Some(tree) => {
                        let n = tree.as_ref().map_or(0, DataTree::len);
                        if self.pass == Pass::Check {
                            self.truth(s, &q, n);
                        }
                        Ok((RespOp::Answer, format!("ok\nnodes={n}")))
                    }
                    None => Ok((RespOp::Partial, "ok\npartial".to_string())),
                }
            }
            Request::Mediate { query, .. } => {
                let (contain, c) = (self.contain, &mut self.c);
                let sess = self
                    .sessions
                    .get_mut(&s)
                    .ok_or("mediate on an unknown session")?;
                let q = t
                    .span("query.parse", |_| parse_ps_query(&query, &mut sess.alpha))
                    .map_err(|e| e.to_string())?;
                let (tree, hit) = mediate(t, sess, &q, contain, c)?;
                let n = tree.as_ref().map_or(0, DataTree::len);
                if self.pass == Pass::Check {
                    self.truth(s, &q, n);
                }
                Ok((
                    RespOp::Answer,
                    format!("ok\nnodes={n}\ncontain={}", hit_word(hit)),
                ))
            }
            Request::Hello { .. } | Request::Stats | Request::Ping => {
                Err("the replay only carries session requests".to_string())
            }
        }
    }

    /// Records the sizes of a journal's files (they only grow until
    /// compaction deletes them).
    fn note_disk(&mut self, dir: &Path) {
        for (name, len) in journal_files(dir) {
            let seen = self.disk.entry(dir.join(name)).or_insert(0);
            *seen = (*seen).max(len);
        }
    }

    /// Checks an exact answer's size against evaluating the query
    /// directly on the generated catalog.
    fn truth(&mut self, s: usize, q: &PsQuery, nodes: usize) {
        let Some(sess) = self.sessions.get(&s) else {
            return;
        };
        let want = q.eval(sess.source.document()).len();
        if want != nodes {
            self.out.truth_failures.push(format!(
                "{}: {} answered {nodes} nodes, the catalog has {want}",
                self.w.sessions[s].name,
                q.to_text(&sess.alpha)
            ));
        }
    }
}

fn hit_word(hit: bool) -> &'static str {
    if hit {
        "hit"
    } else {
        "miss"
    }
}

/// The protocol request a client sends for `op`.
pub fn to_request(plan: &SessionPlan, op: &Op) -> Request {
    let session = plan.name.clone();
    match op {
        Op::Open(seed) => Request::Open {
            session,
            products: plan.products,
            seed: *seed,
        },
        Op::Fetch(q) => Request::Fetch {
            session,
            query: q.clone(),
        },
        Op::Ask(q) => Request::Ask {
            session,
            query: q.clone(),
        },
        Op::Mediate(q) => Request::Mediate {
            session,
            query: q.clone(),
        },
        Op::Sync => Request::Sync { session },
        Op::Close => Request::Close { session },
    }
}

fn split_frame(frame: &[u8]) -> Result<(u8, &[u8]), String> {
    let header: [u8; HEADER_LEN] = frame
        .get(..HEADER_LEN)
        .and_then(|h| h.try_into().ok())
        .ok_or("short frame")?;
    let (op, len) = proto::decode_header(&header).map_err(|e| e.to_string())?;
    let tail = frame.get(HEADER_LEN..).ok_or("short frame")?;
    let body = proto::check_body(op, tail, len).map_err(|e| e.to_string())?;
    Ok((op, body))
}

fn decode_request(frame: &[u8]) -> Result<Request, String> {
    let (op, body) = split_frame(frame)?;
    let op = ReqOp::from_byte(op).ok_or("unknown opcode")?;
    proto::parse_request(op, body).map_err(|e| e.to_string())
}

fn decode_response(frame: &[u8]) -> Result<Reply, String> {
    let (op, body) = split_frame(frame)?;
    let op = RespOp::from_byte(op).ok_or("unknown response opcode")?;
    let body = String::from_utf8(body.to_vec()).map_err(|_| "non-UTF-8 body")?;
    Ok((op, body))
}

/// Opens a session the way the server's `Open` does: the catalog
/// source, the declared type folded into empty knowledge, a journal
/// with its open record, then batched group commit.
fn open_session(plan: &SessionPlan, seed: u64, jdir: &Path) -> Result<RSession, String> {
    let cat = iixml_gen::catalog(plan.products, seed);
    let source = Source::new(cat.doc, Some(cat.ty));
    let alpha = cat.alpha;
    let mut current = iixml_core::Refiner::new(&alpha).current().clone();
    if let Some(ty) = source.declared_type() {
        current = iixml_core::type_intersect::restrict_to_type(&current, ty);
    }
    if let Some(parent) = jdir.parent() {
        std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
    }
    let mut journal = SessionJournal::create(jdir).map_err(|e| e.to_string())?;
    journal
        .log_open(&alpha, &current)
        .map_err(|e| e.to_string())?;
    journal
        .set_flush_policy(FlushPolicy::batched())
        .map_err(|e| e.to_string())?;
    Ok(RSession {
        alpha,
        source,
        current,
        cache: AnswerCache::new(),
        journal: Some(journal),
        jdir: jdir.to_path_buf(),
    })
}

/// The containment-cache lookup; counts hits, and on a miss the
/// candidates the skeleton signature pruned out of those present.
fn lookup(
    t: &mut Tracer,
    sess: &mut RSession,
    q: &PsQuery,
    contain: bool,
    c: &mut Counters,
) -> Option<Answer> {
    if !contain {
        return None;
    }
    let entries = sess.cache.len() as u64;
    let rejects = sess.cache.fast_rejects();
    let hit = t.span("contain.lookup", |_| sess.cache.lookup(q));
    c.lookups += 1;
    if hit.is_some() {
        c.hits += 1;
    } else {
        c.miss_entries += entries;
        c.miss_fast_rejects += sess.cache.fast_rejects() - rejects;
    }
    hit
}

fn record(t: &mut Tracer, sess: &mut RSession, q: &PsQuery, ans: &Answer, contain: bool) {
    if contain {
        t.span("contain.record", |_| sess.cache.record(q, ans));
    }
}

/// Asks the source (root or anchored) and validates the shipped answer.
fn ask_source(
    t: &mut Tracer,
    sess: &mut RSession,
    q: &PsQuery,
    at: Option<iixml_tree::Nid>,
    c: &mut Counters,
) -> Result<Answer, String> {
    let ans = t
        .span("webhouse.source", |_| match at {
            None => sess.source.ask(q),
            Some(n) => sess.source.ask_at(q, n),
        })
        .map_err(|e| e.to_string())?;
    c.source_calls += 1;
    c.answer_nodes += ans.len() as u64;
    t.span("webhouse.validate", |_| {
        validate_answer(q, &ans, at, sess.source.declared_type())
    })
    .map_err(|e| e.to_string())?;
    Ok(ans)
}

/// One journaled Refine step: check, T_{q,A}, intersect, trim,
/// minimize, append, snapshot when due.
fn apply_refine(
    t: &mut Tracer,
    sess: &mut RSession,
    q: &PsQuery,
    ans: &Answer,
    c: &mut Counters,
) -> Result<(), String> {
    if sess.journal.is_some() {
        t.span("store.journal.check", |_| {
            SessionJournal::check_journalable(&sess.alpha, q, ans)
        })
        .map_err(|e| e.to_string())?;
    }
    let tqa = t
        .span("core.refine.tqa", |_| {
            query_answer_tree(q, ans, &sess.alpha)
        })
        .map_err(|e| e.to_string())?;
    let combined = t
        .span("core.refine.intersect", |_| intersect(&sess.current, &tqa))
        .map_err(|e| e.to_string())?;
    let trimmed = t.span("core.refine.trim", |_| combined.trim());
    let minimized = t.span("core.refine.minimize", |_| trimmed.minimize());
    c.refines += 1;
    c.product_symbols += combined.ty().sym_count() as u64;
    c.trimmed_symbols += trimmed.ty().sym_count() as u64;
    c.minimized_symbols += minimized.ty().sym_count() as u64;
    sess.current = minimized;
    if let Some(j) = sess.journal.as_mut() {
        t.span("store.journal.append", |_| {
            j.log_refine(&sess.alpha, q, ans)
        })
        .map_err(|e| e.to_string())?;
        c.records += 1;
        t.span("store.journal.snapshot", |_| {
            j.maybe_snapshot(&sess.alpha, &sess.current)
        })
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn fetch(
    t: &mut Tracer,
    sess: &mut RSession,
    q: &PsQuery,
    contain: bool,
    c: &mut Counters,
) -> Result<(Answer, bool), String> {
    if let Some(ans) = lookup(t, sess, q, contain, c) {
        apply_refine(t, sess, q, &ans, c)?;
        return Ok((ans, true));
    }
    let ans = ask_source(t, sess, q, None, c)?;
    apply_refine(t, sess, q, &ans, c)?;
    record(t, sess, q, &ans, contain);
    Ok((ans, false))
}

/// Local answering: `Some(answer)` when the knowledge determines it.
fn answer_locally(
    t: &mut Tracer,
    sess: &mut RSession,
    q: &PsQuery,
    c: &mut Counters,
) -> Option<Option<DataTree>> {
    let out = t.span("core.answer.query", |_| {
        let qt = sess.current.query(q);
        qt.fully_answerable().then(|| qt.the_answer())
    });
    c.local_answers += 1;
    if out.is_some() {
        c.local_complete += 1;
    }
    out
}

/// Exact answering through the mediator (the resilient path, which on
/// an honest source always completes).
fn mediate(
    t: &mut Tracer,
    sess: &mut RSession,
    q: &PsQuery,
    contain: bool,
    c: &mut Counters,
) -> Result<(Option<DataTree>, bool), String> {
    let out = mediate_once(t, sess, q, contain, c)?;
    // The server's resilient path checks every completed answer for a
    // knowledge that represents nothing (a lie that slipped through).
    if t.span("webhouse.resilient_check", |_| sess.current.is_empty()) {
        return Err("knowledge became empty on an honest source".to_string());
    }
    Ok(out)
}

fn mediate_once(
    t: &mut Tracer,
    sess: &mut RSession,
    q: &PsQuery,
    contain: bool,
    c: &mut Counters,
) -> Result<(Option<DataTree>, bool), String> {
    if let Some(ans) = lookup(t, sess, q, contain, c) {
        return Ok((ans.tree, true));
    }
    if let Some(tree) = answer_locally(t, sess, q, c) {
        return Ok((tree, false));
    }
    let completion = t.span("mediator.complete", |_| {
        Mediator::new(&sess.current).complete(q)
    });
    c.completions += 1;
    c.local_queries += completion.queries.len() as u64;
    let answer = t.span("mediator.execute", |t| -> Result<Answer, String> {
        let mut known = sess.current.data_tree();
        for lq in &completion.queries {
            let ans = ask_source(t, sess, &lq.query, lq.at, c)?;
            let Some(tree) = ans.tree else { continue };
            match &mut known {
                Some(k) => k.graft(&tree)?,
                slot @ None => *slot = Some(tree),
            }
        }
        Ok(match &known {
            Some(k) => q.eval(k),
            None => Answer::empty(),
        })
    })?;
    apply_refine(t, sess, q, &answer, c)?;
    record(t, sess, q, &answer, contain);
    Ok((answer.tree, false))
}
