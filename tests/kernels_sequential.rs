//! The Refine kernels never touch the worker pool.
//!
//! `refine::intersect` (Lemma 3.3), `minimize` and
//! `type_intersect::restrict_to_type` (Theorem 3.5) are sequential
//! loops: spread over threads they ran slower than on one (DESIGN.md
//! §13). This test runs all three with the pool configured 4 wide and
//! checks that no task went through `iixml-par` — the `par.tasks`
//! counter and the `par.threads` histogram count stay where they were.
//!
//! One `#[test]` in its own binary, so no other test touches the pool
//! while it runs.

use iixml_core::type_intersect::restrict_to_type;
use iixml_core::Refiner;
use iixml_gen::{blowup_queries, catalog, catalog_query_price_below};
use iixml_obs::keys;
use iixml_query::Answer;
use iixml_tree::Alphabet;

/// `(par.tasks, par.threads observations)` so far.
fn pool_use() -> (u64, u64) {
    let snap = iixml_obs::snapshot();
    let tasks = snap.counter(keys::PAR_TASKS).unwrap_or(0);
    let widths = snap.histogram(keys::PAR_THREADS).map_or(0, |h| h.count);
    (tasks, widths)
}

#[test]
fn refine_kernels_run_without_the_pool() {
    // Histograms only record while collection is on.
    iixml_obs::set_enabled(true);
    iixml_par::set_threads(Some(4));
    let before = pool_use();

    // The Example 3.2 chain: one intersect and one minimize per step.
    let mut alpha = Alphabet::from_names(["root", "a", "b"]);
    let mut refiner = Refiner::new(&alpha);
    for q in &blowup_queries(&mut alpha, 5) {
        refiner.refine(&alpha, q, &Answer::empty()).unwrap();
    }
    let chain = refiner.current();
    let product = iixml_core::refine::intersect(chain, chain).unwrap();
    let minimized = product.minimize();
    assert!(minimized.ty().sym_count() <= product.ty().sym_count());

    // Theorem 3.5 on catalog knowledge.
    let mut cat = catalog(12, 0x5E9);
    let q = catalog_query_price_below(&mut cat.alpha, 250);
    let mut refiner = Refiner::new(&cat.alpha);
    refiner.refine(&cat.alpha, &q, &q.eval(&cat.doc)).unwrap();
    let known = restrict_to_type(refiner.current(), &cat.ty);
    assert!(
        known.contains(&cat.doc),
        "the true source stays represented"
    );

    let after = pool_use();
    iixml_par::set_threads(None);
    assert_eq!(before, after, "(par.tasks, par.threads count) moved");
}
