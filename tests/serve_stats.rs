//! The serve `Stats` op reports the obs registry's `serve.*` and
//! `mediator.containment_*` counters. Counters are process-wide, so
//! this file holds a single test: every count it reads comes from the
//! client script below.

use iixml_obs::json::Json;
use iixml_obs::keys;
use iixml_serve::{Client, RespOp, ServeConfig, Server};

#[test]
fn stats_counters_match_what_the_client_did() {
    let server = Server::start(ServeConfig::default()).expect("server start");
    let mut client = Client::connect(server.port(), "acme", 5000, 5000).expect("connect");
    let (mut sent, mut opens, mut hit_replies) = (0u64, 0u64, 0u64);
    for (i, session) in ["s1", "s2"].into_iter().enumerate() {
        let opened = client.open(session, 3, 40 + i as u64).expect("open");
        assert_eq!(opened.op, RespOp::Opened, "{}", opened.body);
        sent += 1;
        opens += 1;
        // A wide view, a query it contains, and one it does not.
        for query in [
            "catalog/product{name, price[< 300]}",
            "catalog/product{name, price[< 200]}",
            "catalog/product{name, price[< 400]}",
        ] {
            let resp = client.fetch(session, query).expect("fetch");
            assert_eq!(resp.op, RespOp::Answer, "{}", resp.body);
            sent += 1;
            hit_replies += u64::from(resp.lines().contains(&"contain=hit"));
        }
    }
    assert_eq!(hit_replies, 2, "exactly the contained fetches hit");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.op, RespOp::StatsBody);
    let stats = Json::parse(&stats.body).expect("stats body is JSON");
    let counter = |key: &str| {
        stats
            .path("counters")
            .and_then(|c| c.get(key))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("stats lack {key}")) as u64
    };
    assert_eq!(counter(keys::SERVE_REQUESTS), sent);
    assert_eq!(counter(keys::SERVE_SESSIONS_OPENED), opens);
    assert_eq!(counter(keys::SERVE_ACCEPTED), 1);
    assert_eq!(counter(keys::SERVE_SHED), 0);
    assert_eq!(counter(keys::MEDIATOR_CONTAINMENT_HITS), hit_replies);
    assert!(counter(keys::MEDIATOR_CONTAINMENT_CHECKS) >= hit_replies);
    drop(client);
    drop(server.shutdown());
}
