//! The three workloads as seeded request streams.
//!
//! A workload is a set of sessions, each owned by one of the two client
//! connections. A connection serves its sessions round-robin, one
//! *turn* at a time; a turn is a short conversation that ends with
//! `Sync`. Every turn is a pure function of `(seed, session, turn
//! number)`, so the traced replay regenerates exactly the requests the
//! server answered.

use iixml_gen::rng::DetRng;

/// Client connections driving the load.
pub const CONNS: usize = 2;

/// One protocol request of a session's stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Open the session on the catalog generated from this seed.
    Open(u64),
    Fetch(String),
    Ask(String),
    Mediate(String),
    Sync,
    Close,
}

/// Latency classes reported per workload.
pub const KINDS: [&str; 4] = ["fetch", "ask", "mediate", "sync"];

impl Op {
    /// Index into [`KINDS`] (open and close are not timed by class).
    pub fn kind(&self) -> Option<usize> {
        match self {
            Op::Fetch(_) => Some(0),
            Op::Ask(_) => Some(1),
            Op::Mediate(_) => Some(2),
            Op::Sync => Some(3),
            Op::Open(_) | Op::Close => None,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    CatalogMix,
    DeepRefine,
    DurableWrites,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "catalog-mix" => Some(Kind::CatalogMix),
            "deep-refine" => Some(Kind::DeepRefine),
            "durable-writes" => Some(Kind::DurableWrites),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::CatalogMix => "catalog-mix",
            Kind::DeepRefine => "deep-refine",
            Kind::DurableWrites => "durable-writes",
        }
    }
}

/// One served session.
#[derive(Clone, Debug)]
pub struct SessionPlan {
    pub tenant: String,
    pub name: String,
    /// Catalog size of the session's source.
    pub products: usize,
    /// The connection (0 or 1) that drives this session.
    pub conn: usize,
    /// Requests issued during set-up, `Open` first.
    pub setup: Vec<Op>,
    rng: DetRng,
    /// Deep-refine sessions rotate through these catalogs, one fixed
    /// chain each: turn `k` reopens the session on catalog
    /// `k % CYCLE` and runs its chain.
    variants: Vec<(u64, Vec<Op>)>,
    reader: bool,
}

/// A generated workload.
pub struct Workload {
    pub kind: Kind,
    pub sessions: Vec<SessionPlan>,
}

/// Price bounds of the catalog-mix queries (the honest mix of the
/// server load generator, `iixml-bench`'s `loadgen`).
const BOUNDS: [i64; 6] = [150, 200, 250, 300, 400, 500];
/// Requests in a catalog-mix turn before its `Sync`. Long enough that
/// fsync, which durable-writes measures, is a small part of a turn:
/// with a `Sync` every 8 requests, runs whose disk was slow were slow
/// on every class, and `throughput_rps` followed the fsync latency.
const MIX_TURN: usize = 32;
/// The journal's snapshot cadence (records).
const SNAPSHOT_EVERY: usize = iixml_store::SessionJournal::DEFAULT_SNAPSHOT_EVERY as usize;

fn price_below(b: i64) -> String {
    format!("catalog/product{{name, price[< {b}]}}")
}

fn elec_price_below(b: i64) -> String {
    format!("catalog/product{{name, price[< {b}], cat[= 1]/subcat}}")
}

fn plan(
    tenant: String,
    name: String,
    products: usize,
    catalog_seed: u64,
    conn: usize,
    rng: DetRng,
) -> SessionPlan {
    SessionPlan {
        tenant,
        name,
        products,
        conn,
        setup: vec![Op::Open(catalog_seed)],
        rng,
        variants: Vec::new(),
        reader: false,
    }
}

/// Catalogs each deep-refine session rotates through.
const CYCLE: u64 = 4;
/// Seed of the first deep-refine catalog.
const DEEP_CATALOGS: u64 = 0xDEE9_0000;
/// Seed of the first durable-writes catalog.
const DURABLE_CATALOGS: u64 = 0x3121_7E00;

impl Workload {
    pub fn new(kind: Kind, seed: u64) -> Workload {
        let root = DetRng::new(seed);
        let cat_seed = |i: usize| seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut sessions = Vec::new();
        match kind {
            Kind::CatalogMix => {
                // 64 three-product catalogs over 4 tenants; connection c
                // owns tenants 2c and 2c+1, so it re-binds its tenant
                // twice per round.
                for i in 0..64 {
                    let tenant = i / 16;
                    sessions.push(plan(
                        format!("t{tenant}"),
                        format!("s{i:02}"),
                        3,
                        cat_seed(i),
                        tenant / 2,
                        root.fork(i as u64),
                    ));
                }
            }
            Kind::DeepRefine => {
                for i in 0..4 {
                    let first = DEEP_CATALOGS + i as u64 * CYCLE;
                    let mut s = plan(
                        format!("d{}", i % CONNS),
                        format!("deep{i}"),
                        iixml_serve::proto::MAX_PRODUCTS,
                        first,
                        i % CONNS,
                        root.fork(i as u64),
                    );
                    // Catalogs and refining queries are fixed per variant;
                    // the seed picks the asks. Refine cost, journal size
                    // and recovery time depend steeply on a 64-product
                    // catalog's contents and on the order knowledge grows
                    // in, and 16 chains are too few to average that out
                    // between seeds.
                    s.variants = (first..first + CYCLE)
                        .map(|fixed| (fixed, deep_chain(&mut DetRng::new(fixed), &mut s.rng)))
                        .collect();
                    sessions.push(s);
                }
            }
            Kind::DurableWrites => {
                // 16 writers on connection 0, 16 pre-refined readers on
                // connection 1; names hash over the server's 8 shards.
                // Writer i journals 2i records during set-up, so the
                // writers sit at evenly spread points of the snapshot
                // cadence wherever the load stops, and restart replays
                // about the same work every run. The catalogs are fixed
                // and the seed picks the queries: the bytes a write
                // journals follow its catalog's answer sizes, and seeded
                // 8-product catalogs spread `journal_bytes_per_write` by
                // 8% between seeds; two seeds' `peak_rss_mb` also
                // differed by 1 MiB while repeats of each agreed to 2%.
                for i in 0..32 {
                    let reader = i >= 16;
                    let mut s = plan(
                        if reader { "reader" } else { "writer" }.to_string(),
                        format!("s{i:02}"),
                        8,
                        DURABLE_CATALOGS + i as u64,
                        usize::from(reader),
                        root.fork(i as u64),
                    );
                    if !reader {
                        let n = (2 * i) % SNAPSHOT_EVERY;
                        s.setup.extend(
                            (0..n).map(|j| Op::Fetch(price_below(BOUNDS[j % BOUNDS.len()]))),
                        );
                        s.setup.push(Op::Sync);
                    } else {
                        s.reader = true;
                        s.setup
                            .extend(BOUNDS.iter().map(|&b| Op::Fetch(price_below(b))));
                        s.setup.push(Op::Fetch(elec_price_below(500)));
                        s.setup.push(Op::Sync);
                    }
                    sessions.push(s);
                }
            }
        }
        Workload { kind, sessions }
    }

    /// Turns after which a session's conversation repeats from empty
    /// knowledge (1 = never restarts). A connection only stops at the
    /// end of a cycle, so every run ends in the same state.
    pub fn cycle(&self) -> u64 {
        if self.kind == Kind::DeepRefine {
            CYCLE
        } else {
            1
        }
    }

    /// The requests of session `s`'s turn `k`.
    pub fn turn(&self, s: usize, k: u64) -> Vec<Op> {
        let sess = &self.sessions[s];
        let mut rng = sess.rng.fork(k);
        match self.kind {
            Kind::CatalogMix => {
                let mut ops = Vec::with_capacity(MIX_TURN + 1);
                for _ in 0..MIX_TURN {
                    let b = BOUNDS[rng.below(BOUNDS.len() as u64) as usize];
                    ops.push(match rng.below(4) {
                        0 | 1 => Op::Fetch(price_below(b)),
                        2 => Op::Ask(price_below(b)),
                        _ => Op::Mediate(elec_price_below(b)),
                    });
                }
                ops.push(Op::Sync);
                ops
            }
            Kind::DeepRefine => {
                let (seed, chain) = &sess.variants[(k % CYCLE) as usize];
                let mut ops = Vec::with_capacity(chain.len() + 2);
                if k > 0 {
                    ops.push(Op::Close);
                    ops.push(Op::Open(*seed));
                }
                ops.extend(chain.iter().cloned());
                ops
            }
            Kind::DurableWrites => {
                let b = BOUNDS[rng.below(BOUNDS.len() as u64) as usize];
                if sess.reader {
                    // Reads only: every query is determined by the
                    // pre-refined knowledge, so a mediate is answered
                    // from the containment cache and never refines.
                    if rng.below(4) == 0 {
                        vec![Op::Mediate(elec_price_below(b))]
                    } else {
                        vec![Op::Ask(price_below(b))]
                    }
                } else {
                    let q = if rng.bool(0.5) {
                        price_below(b)
                    } else {
                        elec_price_below(b)
                    };
                    vec![Op::Fetch(q), Op::Sync]
                }
            }
        }
    }
}

/// A deep-refine chain: fetches that do not contain one another
/// (equal-width price windows, category and subcategory selections, the
/// paper's camera-pictures query), with asks and mediates over the
/// growing knowledge interleaved and a `Sync` every eight requests.
fn deep_chain(order: &mut DetRng, asks: &mut DetRng) -> Vec<Op> {
    let mut fetches: Vec<String> = Vec::new();
    // Windows of one width are never nested, so no window fetch
    // subsumes another.
    let mut lows: Vec<i64> = (0..24).map(|i| 10 + 20 * i).collect();
    shuffle(&mut lows, order);
    for lo in lows {
        fetches.push(format!(
            "catalog/product{{name, price[>= {lo} & < {}]}}",
            lo + 30
        ));
    }
    for c in 1..=4 {
        fetches.push(format!("catalog/product{{name, cat[= {c}]/subcat}}"));
    }
    for s in [11, 20, 21, 22, 23, 24] {
        fetches.push(format!(
            "catalog/product{{name, cat/subcat[= {s}], picture}}"
        ));
    }
    fetches.push("catalog/product{name, cat[= 1]/subcat[= 10], picture}".to_string());
    shuffle(&mut fetches, order);
    // Mediate windows share one width of their own.
    let mut med_lows: Vec<i64> = (0..12).map(|i| 10 + 35 * i).collect();
    shuffle(&mut med_lows, order);
    let mut chain = Vec::new();
    let mut since_sync = 0;
    let mut push = |chain: &mut Vec<Op>, op: Op| {
        chain.push(op);
        since_sync += 1;
        if since_sync == 8 {
            chain.push(Op::Sync);
            since_sync = 0;
        }
    };
    for (i, f) in fetches.into_iter().enumerate() {
        push(&mut chain, Op::Fetch(f));
        if i % 3 == 2 {
            let lo = med_lows[(i / 3) % med_lows.len()];
            push(
                &mut chain,
                Op::Mediate(format!(
                    "catalog/product{{name, price[>= {lo} & < {}], cat[= 1]/subcat}}",
                    lo + 50
                )),
            );
            let b = BOUNDS[asks.below(BOUNDS.len() as u64) as usize];
            push(&mut chain, Op::Ask(price_below(b)));
        }
    }
    if chain.last() != Some(&Op::Sync) {
        chain.push(Op::Sync);
    }
    chain
}

fn shuffle<T>(items: &mut [T], rng: &mut DetRng) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}
