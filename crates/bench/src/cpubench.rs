//! CPU kernels before/after ID-interning, the 16-source fan-out, and
//! the `BENCH_cpu.json` emitter.
//!
//! Two CPU-bound kernels are timed once each, in two variants. Both
//! variants are sequential loops, so the worker width does not enter:
//!
//! * **pre** — the structural paths (`refine::intersect_reference`,
//!   `IncompleteTree::minimize_reference`): hash-probed pair tables,
//!   nested-`Vec` signatures, fresh join buffers per emitted
//!   combination — the pre-interning algorithms re-measured on the
//!   current host.
//! * **post** — the shipping kernels: dense/interned ID tables and one
//!   scratch arena reused across the whole call.
//!
//! The gated headline per kernel is the **sequential speedup** —
//! pre ÷ post.
//!
//! The third group, `fanout16`, fans one query out over 16
//! latency-simulating sources at 1/2/4/8 worker threads
//! (`iixml_par::set_threads`). It is wait-bound, so its ≥1.5x 4-thread
//! gate holds even on a single core: sleeping sources overlap
//! regardless of CPU count.
//!
//! `cargo run -p iixml-bench --bin report -- --bench-cpu` runs these,
//! writes the JSON to the workspace root, and applies the in-run gates
//! (see [`GATES`]); `--quick` shrinks workloads and sample counts for
//! CI smoke runs.

use crate::gates::with_gates;
use crate::harness::{median_ns, THREADS};
use crate::refine_blowup_tree;
use iixml_obs::json::Json;
use iixml_webhouse::{LatentSource, Source, Webhouse};
use std::time::Duration;

/// One measured kernel: pre/post medians (ns).
pub struct KernelResult {
    /// Stable kernel key (also the JSON key).
    pub name: &'static str,
    /// Human description of the workload and its size.
    pub workload: String,
    /// Median of the structural pre-interning path.
    pub pre_ns: f64,
    /// Median of the shipping path.
    pub post_ns: f64,
}

/// Thread-scaling speedup of a `(threads, median_ns)` row list:
/// median@1 ÷ median@t.
fn speedup(rows: &[(usize, f64)], threads: usize) -> f64 {
    let at = |t: usize| {
        rows.iter()
            .find(|&&(rt, _)| rt == t)
            .map_or(f64::INFINITY, |&(_, ns)| ns)
    };
    at(1) / at(threads).max(1.0)
}

impl KernelResult {
    /// The headline: pre ÷ post — how much faster the interned kernel
    /// runs than the structural code.
    pub fn seq_speedup(&self) -> f64 {
        self.pre_ns / self.post_ns.max(1.0)
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .set("name", self.name)
            .set("workload", self.workload.clone())
            .set("pre_median_ns", self.pre_ns)
            .set("post_median_ns", self.post_ns)
            .set("seq_speedup", self.seq_speedup())
    }
}

/// The full CPU-kernel report.
pub struct CpuReport {
    /// Whether this was a `--quick` (CI smoke) run.
    pub quick: bool,
    /// `std::thread::available_parallelism` on the measuring host.
    pub threads_available: usize,
    /// The ⋊⋉ self-product kernel.
    pub intersect: KernelResult,
    /// The bisimulation-minimization kernel.
    pub minimize: KernelResult,
    /// Human description of the fan-out workload.
    pub fanout_workload: String,
    /// `(threads, median_ns)` of the 16-source fan-out.
    pub fanout_by_threads: Vec<(usize, f64)>,
}

/// Fans one catalog query out over `sources` freshly registered
/// latency-wrapped sessions. Fresh sessions every time, so each source
/// is actually contacted: a warm session answers locally and never
/// pays the latency.
fn fanout_once(sources: usize, latency: Duration) {
    let mut cat = iixml_gen::catalog(6, 17);
    let q = iixml_gen::catalog_query_price_below(&mut cat.alpha, 250);
    let mut wh = Webhouse::new();
    for i in 0..sources {
        let source = Source::new(cat.doc.clone(), Some(cat.ty.clone()));
        wh.register(
            format!("src{i:02}"),
            cat.alpha.clone(),
            LatentSource::new(source, latency),
        );
    }
    let outcomes = wh.fan_out(&q);
    assert_eq!(outcomes.len(), sources);
    assert!(outcomes.iter().all(|(_, a)| a.is_complete()));
}

/// The gates `BENCH_cpu.json` carries (see [`crate::gates`]).
pub const GATES: &str = r#"[
  {"metric": "intersect_seq_speedup", "rule": "at_least", "blessed": 1.3, "scope": "both",
   "claim": "interned intersect vs the reference path, 1 thread"},
  {"metric": "minimize_seq_speedup", "rule": "at_least", "blessed": 1.3, "scope": "both",
   "claim": "interned minimize vs the reference path, 1 thread"},
  {"metric": "fanout16_t4_speedup", "rule": "at_least", "blessed": 1.5, "scope": "run",
   "claim": "16-source fan-out, 4 threads vs 1"}
]"#;

/// Runs both kernels in both variants, and the fan-out at every width;
/// `quick` shrinks the workloads and sample counts for CI smoke runs.
pub fn run(quick: bool) -> CpuReport {
    let threads_available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let chain_n = if quick { 5 } else { 7 };
    let samples = if quick { 3 } else { 7 };
    let latency = Duration::from_millis(if quick { 2 } else { 4 });

    let base = refine_blowup_tree(chain_n);
    let product = iixml_core::refine::intersect(&base, &base).expect("self-product is compatible");
    let syms = base.ty().sym_count();
    let intersect = KernelResult {
        name: "intersect_product",
        workload: format!(
            "⋊⋉ self-product of the Example 3.2 chain, n = {chain_n} ({syms} × {syms} symbols)"
        ),
        pre_ns: median_ns(samples, || {
            let p = iixml_core::refine::intersect_reference(&base, &base)
                .expect("self-product is compatible");
            assert!(p.ty().sym_count() > 0);
        }),
        post_ns: median_ns(samples, || {
            let p =
                iixml_core::refine::intersect(&base, &base).expect("self-product is compatible");
            assert!(p.ty().sym_count() > 0);
        }),
    };
    let minimize = KernelResult {
        name: "minimize_product",
        workload: format!(
            "bisimulation partition of the chain's self-product ({} symbols)",
            product.ty().sym_count()
        ),
        pre_ns: median_ns(samples, || {
            let m = product.minimize_reference();
            assert!(m.ty().sym_count() <= product.ty().sym_count());
        }),
        post_ns: median_ns(samples, || {
            let m = product.minimize();
            assert!(m.ty().sym_count() <= product.ty().sym_count());
        }),
    };

    let mut fanout_by_threads = Vec::new();
    for &t in &THREADS {
        iixml_par::set_threads(Some(t));
        fanout_by_threads.push((t, median_ns(samples, || fanout_once(16, latency))));
    }
    iixml_par::set_threads(None);

    CpuReport {
        quick,
        threads_available,
        intersect,
        minimize,
        fanout_workload: format!(
            "one query fanned out over 16 sources with {latency:?} simulated latency each"
        ),
        fanout_by_threads,
    }
}

impl CpuReport {
    /// The machine-readable form committed as `BENCH_cpu.json`: per
    /// kernel rows, the fan-out rows, then the gated headlines.
    pub fn to_json(&self) -> Json {
        let fanout: Vec<Json> = self
            .fanout_by_threads
            .iter()
            .map(|&(t, ns)| {
                Json::obj()
                    .set("threads", t)
                    .set("median_ns", ns)
                    .set("speedup_vs_1", speedup(&self.fanout_by_threads, t))
            })
            .collect();
        let doc = Json::obj()
            .set("pr", 8u64)
            .set("quick", self.quick)
            .set("threads_available", self.threads_available)
            .set(
                "kernels",
                vec![self.intersect.to_json(), self.minimize.to_json()],
            )
            .set(
                "fanout16",
                Json::obj()
                    .set("workload", self.fanout_workload.clone())
                    .set("results", fanout),
            )
            .set("intersect_seq_speedup", self.intersect.seq_speedup())
            .set("minimize_seq_speedup", self.minimize.seq_speedup())
            .set("fanout16_t4_speedup", speedup(&self.fanout_by_threads, 4));
        with_gates(doc, &[GATES])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_and_shipping_kernels_agree() {
        let base = refine_blowup_tree(3);
        let fast = iixml_core::refine::intersect(&base, &base).unwrap();
        let slow = iixml_core::refine::intersect_reference(&base, &base).unwrap();
        assert_eq!(format!("{:?}", fast.ty()), format!("{:?}", slow.ty()));
        assert_eq!(
            format!("{:?}", fast.minimize().ty()),
            format!("{:?}", slow.minimize_reference().ty())
        );
    }

    #[test]
    fn quick_report_has_every_workload() {
        let r = run(true);
        for k in [&r.intersect, &r.minimize] {
            assert!(k.pre_ns > 0.0 && k.post_ns > 0.0);
            assert!(k.seq_speedup() > 0.0);
        }
        assert_eq!(r.fanout_by_threads.len(), THREADS.len());
        let doc = r.to_json();
        for g in crate::gates::gates_of(&doc).unwrap() {
            assert!(
                doc.path(&g.metric).is_some(),
                "gate {} has no value",
                g.metric
            );
        }
    }
}
