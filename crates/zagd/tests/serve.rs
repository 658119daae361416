//! End-to-end tests: a real `zagd` server on an ephemeral port, driven
//! over TCP by the crate's blocking client.
//!
//! Each test binds its own server instance, so they can run in parallel
//! within the test binary without sharing caches or counters.

use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use zagd::json::Json;
use zagd::{client, demo, Server, ServerConfig};

fn start(workers: usize, queue_cap: usize) -> SocketAddr {
    Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_cap,
        cache_cap: 16,
        default_timeout_ms: 60_000,
    })
    .expect("bind ephemeral")
    .start()
}

fn body(source: &str, entry: &str, args: &str, threads: usize) -> String {
    format!(
        r#"{{"source": {}, "entry": "{entry}", "args": {args}, "threads": {threads}}}"#,
        Json::Str(source.to_string()).render()
    )
}

fn post_ok(addr: SocketAddr, body: &str) -> Json {
    let resp = client::post(addr, "/run", body).expect("transport");
    assert_eq!(resp.status, 200, "{}", resp.body);
    Json::parse(&resp.body).expect("response JSON")
}

#[test]
fn health_and_stats_respond() {
    let addr = start(2, 8);
    let health = client::get(addr, "/health").unwrap();
    assert_eq!(health.status, 200);
    let stats = client::get(addr, "/stats").unwrap();
    assert_eq!(stats.status, 200);
    let j = Json::parse(&stats.body).unwrap();
    assert_eq!(j.get("ok"), Some(&Json::Bool(true)));
    assert!(j.get("cache").and_then(|c| c.get("entries")).is_some());
}

#[test]
fn unknown_route_is_404_and_bad_json_is_400() {
    let addr = start(2, 8);
    let resp = client::get(addr, "/nope").unwrap();
    assert_eq!(resp.status, 404);
    let resp = client::post(addr, "/run", "{not json").unwrap();
    assert_eq!(resp.status, 400);
}

#[test]
fn concurrent_npb_programs_share_one_server() {
    let addr = start(4, 32);
    let cg = body(&demo::cg(), "cg_demo", "[400, 2, 2]", 2);
    let ep = body(&demo::ep(), "ep_demo", "[12, 8, 2]", 2);
    let is = body(&demo::is(), "is_demo", "[1500, 9, 4, 2]", 2);
    let bodies = [cg, ep, is];
    let handles: Vec<_> = (0..9)
        .map(|i| {
            let b = bodies[i % 3].clone();
            std::thread::spawn(move || post_ok(addr, &b))
        })
        .collect();
    for h in handles {
        let j = h.join().expect("request thread");
        assert_eq!(j.get("ok"), Some(&Json::Bool(true)));
        assert!(j.get("result").is_some());
    }
}

#[test]
fn resubmission_hits_the_cache() {
    let addr = start(2, 8);
    let b = body(&demo::ep(), "ep_demo", "[10, 8, 2]", 2);
    let first = post_ok(addr, &b);
    assert_eq!(first.get("cached"), Some(&Json::Bool(false)));
    let second = post_ok(addr, &b);
    assert_eq!(second.get("cached"), Some(&Json::Bool(true)));
    let stats = Json::parse(&client::get(addr, "/stats").unwrap().body).unwrap();
    let cache = stats.get("cache").unwrap();
    assert!(cache.get("hits").and_then(Json::as_i64).unwrap() >= 1);
    assert!(cache.get("hit_rate").and_then(Json::as_f64).unwrap() > 0.0);
}

#[test]
fn identical_programs_at_different_team_sizes_agree() {
    // The isolation claim, end to end: the same deterministic program
    // run concurrently under different per-request `threads` settings
    // returns bit-identical results.
    let addr = start(4, 16);
    let src = demo::is();
    let handles: Vec<_> = [1usize, 2, 4]
        .into_iter()
        .map(|nt| {
            let b = body(&src, "is_demo", "[1500, 9, 4, 2]", nt);
            std::thread::spawn(move || {
                post_ok(addr, &b)
                    .get("result")
                    .and_then(Json::as_i64)
                    .expect("integer result")
            })
        })
        .collect();
    let results: Vec<i64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(results[0], results[1]);
    assert_eq!(results[0], results[2]);
}

#[test]
fn queue_overflow_rejects_with_retry_after() {
    // One worker, queue of one. A slow request pins the worker; the next
    // connection fills the queue; the one after that must be rejected
    // immediately with 503 + Retry-After. (The spin loop carries `s`
    // through two ops per iteration, so no tier can strip-mine it away.)
    let addr = start(1, 1);
    let slow = format!(
        r#"{{"source": {}, "timeout_ms": 3000}}"#,
        Json::Str(
            "fn main() void {\n    var s: i64 = 1;\n    var i: i64 = 0;\n    while (i < 400000000) : (i += 1) { s = s * 3 + i; }\n}\n"
                .to_string()
        )
        .render()
    );
    let pin = std::thread::spawn(move || client::post(addr, "/run", &slow));
    std::thread::sleep(Duration::from_millis(300));
    // Occupies the single queue slot; never sends a request.
    let _parked = TcpStream::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(200));
    let resp = client::get(addr, "/stats").expect("rejected connection still gets a response");
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert_eq!(resp.header("retry-after"), Some("1"));
    let j = Json::parse(&resp.body).unwrap();
    assert_eq!(j.get("ok"), Some(&Json::Bool(false)));
    let _ = pin.join();
}

#[test]
fn deadline_exceeded_is_504_and_counted() {
    let addr = start(2, 8);
    let b = format!(
        r#"{{"source": {}, "timeout_ms": 250}}"#,
        Json::Str(
            "fn main() void {\n    var s: i64 = 1;\n    var i: i64 = 0;\n    while (i < 2000000000) : (i += 1) { s = s * 3 + i; }\n}\n"
                .to_string()
        )
        .render()
    );
    let resp = client::post(addr, "/run", &b).unwrap();
    assert_eq!(resp.status, 504, "{}", resp.body);
    let stats = Json::parse(&client::get(addr, "/stats").unwrap().body).unwrap();
    assert!(stats.get("timeouts").and_then(Json::as_i64).unwrap() >= 1);
    assert!(stats.get("abandoned").and_then(Json::as_i64).unwrap() >= 1);
}

#[test]
fn failed_request_does_not_poison_the_server() {
    let addr = start(2, 8);
    // Out-of-bounds read: a runtime error surfaced as 500 with the
    // output emitted before the fault.
    let bad = format!(
        r#"{{"source": {}}}"#,
        Json::Str(
            "fn main() void {\n    print(1);\n    var a: []f64 = @allocF(2);\n    print(a[9]);\n}\n"
                .to_string()
        )
        .render()
    );
    let resp = client::post(addr, "/run", &bad).unwrap();
    assert_eq!(resp.status, 500, "{}", resp.body);
    let j = Json::parse(&resp.body).unwrap();
    assert_eq!(j.get("ok"), Some(&Json::Bool(false)));

    // Compile error: 422 with structured diagnostics.
    let broken = format!(
        r#"{{"source": {}}}"#,
        Json::Str("fn main() void { var x: i64 = ; }".to_string()).render()
    );
    let resp = client::post(addr, "/run", &broken).unwrap();
    assert_eq!(resp.status, 422, "{}", resp.body);
    let j = Json::parse(&resp.body).unwrap();
    let diags = j.get("diagnostics").and_then(Json::as_arr).unwrap();
    assert!(!diags.is_empty());
    assert!(diags[0].get("line").is_some());

    // The server still executes good programs afterwards.
    let good = body(&demo::ep(), "ep_demo", "[10, 8, 2]", 2);
    let j = post_ok(addr, &good);
    assert_eq!(j.get("ok"), Some(&Json::Bool(true)));
}

#[test]
fn per_request_icvs_do_not_bleed_between_concurrent_requests() {
    let addr = start(4, 16);
    let src = "fn main() void {\n    var t: i64 = omp.get_max_threads();\n    var i: i64 = 0;\n    while (i < 200000) : (i += 1) {}\n    if (t != omp.get_max_threads()) {\n        print(-1);\n    } else {\n        print(t);\n    }\n}\n";
    let handles: Vec<_> = [1usize, 2, 3, 4]
        .into_iter()
        .map(|nt| {
            let b = format!(
                r#"{{"source": {}, "threads": {nt}}}"#,
                Json::Str(src.to_string()).render()
            );
            std::thread::spawn(move || {
                let j = post_ok(addr, &b);
                let out = j.get("output").unwrap().as_arr().unwrap()[0]
                    .as_str()
                    .unwrap()
                    .to_string();
                (nt, out)
            })
        })
        .collect();
    for h in handles {
        let (nt, out) = h.join().unwrap();
        assert_eq!(out, nt.to_string(), "request saw another request's ICVs");
    }
}

/// Runaway recursion in a request is that request's runtime error — on
/// both backends, also from inside a `parallel` region — and the server
/// answers the next request. (Before the call-depth limit the execution
/// thread overflowed its native stack and the whole process aborted.)
#[test]
fn runaway_recursion_fails_the_request_not_the_server() {
    let addr = start(2, 8);
    let source = "fn down(k: i64) i64 { if (k == 0) { return 0; } return 1 + down(k - 1); }
fn serial(k: i64) i64 { return down(k); }
fn forked(k: i64) i64 {
    var total: i64 = 0;
    //$omp parallel num_threads(2) firstprivate(k) reduction(+: total)
    {
        total = total + down(k);
    }
    return total;
}
";
    let limit = zomp::MAX_CALL_DEPTH as i64;
    let request = |backend: &str, entry: &str, k: i64| {
        let body = format!(
            r#"{{"source": {}, "entry": "{entry}", "args": [{k}], "backend": "{backend}"}}"#,
            Json::Str(source.to_string()).render()
        );
        client::post(addr, "/run", &body).expect("transport")
    };
    for backend in ["ast", "bytecode"] {
        for entry in ["serial", "forked"] {
            let resp = request(backend, entry, 100_000);
            assert_eq!(resp.status, 500, "{backend} {entry}: {}", resp.body);
            let j = Json::parse(&resp.body).unwrap();
            assert_eq!(j.get("ok"), Some(&Json::Bool(false)));
            let error = j.get("error").and_then(Json::as_str).unwrap_or_default();
            assert!(
                error.contains("stack overflow"),
                "{backend} {entry}: {error}"
            );

            // The deepest that runs: `limit` activations below the entry
            // function — `down(k)` is k + 1 of them, a region body one.
            let (k, teams) = if entry == "forked" {
                (limit - 2, 2)
            } else {
                (limit - 1, 1)
            };
            let resp = request(backend, entry, k + 1);
            assert_eq!(resp.status, 500, "{backend} {entry}: {}", resp.body);
            let resp = request(backend, entry, k);
            assert_eq!(resp.status, 200, "{backend} {entry}: {}", resp.body);
            let j = Json::parse(&resp.body).unwrap();
            assert_eq!(j.get("result"), Some(&Json::Int(teams * k)));
        }
    }
}
