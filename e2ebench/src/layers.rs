//! The per-layer metrics of the traced run, and which end-to-end
//! metric each should move on which workload. Later changes cite these
//! names; `--trace 1` prints the table with the measured values.

/// `(name, unit, should move)`.
pub const LAYERS: &[(&str, &str, &str)] = &[
    (
        "serve.proto.encode_us",
        "us",
        "throughput_ref_rps, *_p50_ref_us on catalog-mix",
    ),
    (
        "serve.proto.decode_us",
        "us",
        "throughput_ref_rps, *_p50_ref_us on catalog-mix",
    ),
    (
        "serve.proto.bytes_per_req",
        "bytes",
        "throughput_ref_rps, *_p50_ref_us on catalog-mix",
    ),
    (
        "serve.tenant.admit_us",
        "us",
        "throughput_ref_rps on catalog-mix",
    ),
    (
        "serve.residual_us",
        "us",
        "ask_p99_us on durable-writes; throughput_ref_rps on catalog-mix",
    ),
    (
        "serve.residual_share",
        "ratio",
        "ask_p99_us on durable-writes; throughput_ref_rps on catalog-mix",
    ),
    (
        "query.parse_us",
        "us",
        "fetch_p50_ref_us, ask_p50_ref_us on catalog-mix",
    ),
    (
        "contain.lookup_us",
        "us",
        "fetch_p50_ref_us, mediate_p50_ref_us on catalog-mix; none on deep-refine",
    ),
    (
        "contain.record_us",
        "us",
        "fetch_p50_ref_us, mediate_p50_ref_us on catalog-mix; none on deep-refine",
    ),
    (
        "contain.hit_ratio",
        "ratio",
        "fetch_p50_ref_us, mediate_p50_ref_us on catalog-mix; stays near 0 on deep-refine",
    ),
    (
        "contain.fast_reject_ratio",
        "ratio",
        "fetch_p50_ref_us, mediate_p50_ref_us on catalog-mix",
    ),
    (
        "webhouse.source_us",
        "us",
        "fetch_p50_ref_us on catalog-mix and deep-refine",
    ),
    (
        "webhouse.source_calls_per_req",
        "count",
        "fetch_p50_ref_us on catalog-mix and deep-refine",
    ),
    (
        "webhouse.answer_nodes",
        "count",
        "fetch_p50_ref_us on catalog-mix and deep-refine",
    ),
    (
        "webhouse.validate_us",
        "us",
        "fetch_p50_ref_us on catalog-mix and deep-refine",
    ),
    (
        "core.refine.tqa_us",
        "us",
        "fetch_p50_ref_us, fetch_p99_us, throughput_ref_rps on deep-refine",
    ),
    (
        "core.refine.intersect_us",
        "us",
        "fetch_p50_ref_us, fetch_p99_us, throughput_ref_rps on deep-refine",
    ),
    (
        "core.refine.trim_us",
        "us",
        "fetch_p50_ref_us, fetch_p99_us, throughput_ref_rps on deep-refine",
    ),
    (
        "core.refine.minimize_us",
        "us",
        "fetch_p50_ref_us, fetch_p99_us, throughput_ref_rps on deep-refine",
    ),
    (
        "core.refine.product_symbols",
        "count",
        "fetch_p50_ref_us, fetch_p99_us, throughput_ref_rps on deep-refine",
    ),
    (
        "core.refine.minimize_keep_ratio",
        "ratio",
        "fetch_p50_ref_us, fetch_p99_us, throughput_ref_rps on deep-refine",
    ),
    (
        "core.knowledge_symbols",
        "count",
        "fetch_p50_ref_us, fetch_p99_us, throughput_ref_rps on deep-refine",
    ),
    (
        "core.answer.query_us",
        "us",
        "ask_p50_ref_us on deep-refine and durable-writes",
    ),
    (
        "core.answer.complete_ratio",
        "ratio",
        "ask_p50_ref_us on deep-refine and durable-writes",
    ),
    (
        "mediator.complete_us",
        "us",
        "mediate_p50_ref_us on deep-refine",
    ),
    (
        "mediator.local_queries",
        "count",
        "mediate_p50_ref_us on deep-refine",
    ),
    (
        "store.journal.check_us",
        "us",
        "sync_p50_us, sync_p99_us, journal_bytes_per_write on durable-writes",
    ),
    (
        "store.journal.append_us",
        "us",
        "sync_p50_us, sync_p99_us, journal_bytes_per_write on durable-writes",
    ),
    (
        "store.journal.snapshot_us",
        "us",
        "sync_p50_us, sync_p99_us, journal_bytes_per_write on durable-writes",
    ),
    (
        "store.journal.sync_us",
        "us",
        "sync_p50_us, sync_p99_us, journal_bytes_per_write on durable-writes",
    ),
    (
        "store.bytes_per_record",
        "bytes",
        "journal_bytes_per_write on durable-writes",
    ),
    (
        "store.records_per_sync",
        "count",
        "sync_p50_us, sync_p99_us on durable-writes",
    ),
    ("store.recover_us", "us", "recover_s on durable-writes"),
    (
        "query.parse.allocs",
        "count",
        "peak_rss_mb, fetch_p50_ref_us, ask_p50_ref_us on catalog-mix",
    ),
    (
        "contain.lookup.allocs",
        "count",
        "peak_rss_mb, fetch_p50_ref_us, mediate_p50_ref_us on catalog-mix",
    ),
    (
        "core.refine.intersect.allocs",
        "count",
        "peak_rss_mb, fetch_p50_ref_us on deep-refine",
    ),
    (
        "core.refine.minimize.allocs",
        "count",
        "peak_rss_mb, fetch_p50_ref_us on deep-refine",
    ),
    (
        "core.answer.query.allocs",
        "count",
        "peak_rss_mb, ask_p50_ref_us on deep-refine",
    ),
    (
        "store.journal.append.allocs",
        "count",
        "peak_rss_mb, sync_p50_us on durable-writes",
    ),
    ("trace.overhead_ratio", "ratio", "none"),
];
