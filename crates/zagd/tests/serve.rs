//! End-to-end tests: a real `zagd` server on an ephemeral port, driven
//! over TCP by the crate's blocking client.
//!
//! Each test binds its own server instance, so they can run in parallel
//! within the test binary without sharing caches or counters.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

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

/// A program in which one thread of the team fails inside a worksharing
/// loop is an ordinary failed request: the error comes back at once,
/// not as a 504 at the deadline with the worker written off, because the
/// failed thread's teammates no longer wait for it at the loop's barrier.
#[test]
fn a_thread_failing_inside_a_loop_fails_the_request_at_once() {
    const OOB_IN_LOOP: &str = include_str!("../../integration/fixtures/faults/oob_in_loop.zag");
    let addr = start(1, 8);
    for threads in [2, 4] {
        let bad = format!(
            r#"{{"source": {}, "threads": {threads}, "timeout_ms": 5000}}"#,
            Json::Str(OOB_IN_LOOP.to_string()).render()
        );
        let resp = client::post(addr, "/run", &bad).unwrap();
        assert_eq!(resp.status, 500, "team of {threads}: {}", resp.body);
        let j = Json::parse(&resp.body).unwrap();
        assert_eq!(j.get("ok"), Some(&Json::Bool(false)));
        let error = j.get("error").and_then(Json::as_str).unwrap_or_default();
        assert!(
            error.contains("out of bounds"),
            "team of {threads}: {}",
            resp.body
        );
        let s = stats(addr);
        assert_eq!(stat(&s, "timeouts"), 0, "{}", s.render());
        assert_eq!(stat(&s, "abandoned"), 0, "{}", s.render());
        // The one worker — and the pool threads of the failed team —
        // serve the next request.
        let good = body(&demo::ep(), "ep_demo", "[10, 8, 2]", threads);
        assert_eq!(post_ok(addr, &good).get("ok"), Some(&Json::Bool(true)));
    }
}

/// The same for a thread that fails *inside* `critical`: it lets go of
/// the lock, so the teammate waiting to enter does not hold the request
/// to its deadline, and the next request entering that `critical` runs.
#[test]
fn a_thread_failing_inside_critical_fails_the_request_at_once() {
    const FAIL_IN_CRITICAL: &str =
        include_str!("../../integration/fixtures/faults/fail_in_critical.zag");
    const COUNT: &str = "fn main() void {
    var count: i64 = 0;
    //$omp parallel shared(count)
    {
        //$omp critical
        {
            count = count + 1;
        }
    }
    print(count);
}
";
    let addr = start(1, 8);
    for threads in [2, 4] {
        let run = |source: &str| {
            let b = format!(
                r#"{{"source": {}, "threads": {threads}, "timeout_ms": 5000}}"#,
                Json::Str(source.to_string()).render()
            );
            client::post(addr, "/run", &b).unwrap()
        };
        let resp = run(FAIL_IN_CRITICAL);
        assert_eq!(resp.status, 500, "team of {threads}: {}", resp.body);
        let j = Json::parse(&resp.body).unwrap();
        assert_eq!(j.get("ok"), Some(&Json::Bool(false)));
        let error = j.get("error").and_then(Json::as_str).unwrap_or_default();
        assert!(
            error.contains("out of bounds"),
            "team of {threads}: {}",
            resp.body
        );
        let resp = run(COUNT);
        assert_eq!(resp.status, 200, "team of {threads}: {}", resp.body);
        let j = Json::parse(&resp.body).unwrap();
        let out = j.get("output").and_then(Json::as_arr).expect("output");
        assert_eq!(out[0].as_str(), Some(threads.to_string().as_str()));
        let s = stats(addr);
        assert_eq!(stat(&s, "timeouts"), 0, "{}", s.render());
        assert_eq!(stat(&s, "abandoned"), 0, "{}", s.render());
    }
}

/// `i64::MIN / -1` is an ordinary request: the wrapped value comes back
/// with 200, and no worker panics doing it.
#[test]
fn int_min_div_is_a_value_not_a_panic() {
    const INT_MIN_DIV: &str = include_str!("../../integration/fixtures/faults/int_min_div.zag");
    let addr = start(1, 8);
    for threads in [1, 2] {
        let b = format!(
            r#"{{"source": {}, "threads": {threads}}}"#,
            Json::Str(INT_MIN_DIV.to_string()).render()
        );
        let j = post_ok(addr, &b);
        let out = j.get("output").and_then(Json::as_arr).expect("output");
        let lines: Vec<&str> = out.iter().filter_map(Json::as_str).collect();
        let min = "-9223372036854775808";
        assert_eq!(
            lines,
            [
                format!("{min} 0"),
                format!("{min} 0"),
                format!("{min} {min}"),
                format!("{min} 0 -12"),
            ],
            "team of {threads}"
        );
    }
    assert_eq!(stat(&stats(addr), "panics"), 0);
}

/// An array length the allocator refuses, or a negative one, is that
/// request's runtime error: a 500 with the error text, no panic, and the
/// one worker serves the next request.
#[test]
fn bad_alloc_fails_the_request_not_the_server() {
    const BAD_ALLOC: &str = include_str!("../../integration/fixtures/faults/bad_alloc.zag");
    const NEGATIVE: &str = "fn main() void {\n    var a: []i64 = @allocI(-5);\n}\n";
    let addr = start(1, 8);
    for (source, want) in [
        (
            BAD_ALLOC,
            "@allocF cannot allocate 1125899906842624 elements",
        ),
        (NEGATIVE, "@allocI length -5 is negative"),
    ] {
        for threads in [1, 2] {
            let b = format!(
                r#"{{"source": {}, "threads": {threads}}}"#,
                Json::Str(source.to_string()).render()
            );
            let resp = client::post(addr, "/run", &b).unwrap();
            assert_eq!(resp.status, 500, "team of {threads}: {}", resp.body);
            let j = Json::parse(&resp.body).unwrap();
            assert_eq!(j.get("ok"), Some(&Json::Bool(false)));
            let error = j.get("error").and_then(Json::as_str).unwrap_or_default();
            assert!(error.contains(want), "team of {threads}: {}", resp.body);
            let good = body(&demo::ep(), "ep_demo", "[10, 8, 2]", threads);
            assert_eq!(post_ok(addr, &good).get("ok"), Some(&Json::Bool(true)));
        }
    }
    assert_eq!(stat(&stats(addr), "panics"), 0);
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

// ---- What running a request on the service worker itself changes ----

/// Runs `test` with the process to itself. The tests of this binary share
/// a process, and the thread count and the trace rings are process-wide;
/// so the harness's call of test `name` re-runs the binary for that test
/// alone, and the child (or a person who asked for `--exact`) does the
/// work.
fn alone(name: &str, test: impl FnOnce()) {
    if std::env::args().any(|a| a == "--exact") {
        return test();
    }
    let exe = std::env::current_exe().expect("the test binary's path");
    let out = std::process::Command::new(exe)
        .args([name, "--exact", "--nocapture"])
        .output()
        .expect("re-run the test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "`{name}` in a process of its own:\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `Threads:` of `/proc/self/status`.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"));
    line.expect("a Threads: line").trim().parse().unwrap()
}

/// The server's own threads, by name: `workers + 2` in the steady state.
fn zagd_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter(|task| {
            let comm = task.as_ref().unwrap().path().join("comm");
            std::fs::read_to_string(comm).is_ok_and(|name| name.starts_with("zagd-"))
        })
        .count()
}

/// A thread that has returned takes a moment to leave the count.
fn settles_to(count: impl Fn() -> usize, want: usize) -> bool {
    let t0 = Instant::now();
    while count() != want {
        if t0.elapsed() > Duration::from_secs(5) {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    true
}

fn stats(addr: SocketAddr) -> Json {
    Json::parse(&client::get(addr, "/stats").unwrap().body).unwrap()
}

fn stat(stats: &Json, key: &str) -> i64 {
    stats.get(key).and_then(Json::as_i64).unwrap()
}

/// `/stats` once no overdue run is executing any more.
fn stats_when_nothing_is_abandoned(addr: SocketAddr) -> Json {
    let t0 = Instant::now();
    loop {
        let s = stats(addr);
        if stat(&s, "abandoned") == 0 {
            return s;
        }
        assert!(t0.elapsed() < Duration::from_secs(120), "{}", s.render());
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The response is one whole message: as long as it says and one JSON
/// document (a second response behind the first would be neither).
fn assert_whole(resp: &client::Response) -> Json {
    assert_eq!(
        resp.header("content-length"),
        Some(resp.body.len().to_string().as_str()),
        "{}",
        resp.body
    );
    Json::parse(&resp.body).expect("one JSON document")
}

/// The slow request of these tests: `s` is carried through two ops per
/// iteration, so no tier strip-mines the loop away, and `n` is an
/// argument, so every length is the same cached program.
const SPIN: &str = "fn spin(n: i64) i64 {\n    var s: i64 = 1;\n    var i: i64 = 0;\n    while (i < n) : (i += 1) { s = s * 3 + i; }\n    return s;\n}\n";

fn spin_body(n: i64, timeout_ms: u64) -> String {
    format!(
        r#"{{"source": {}, "entry": "spin", "args": [{n}], "timeout_ms": {timeout_ms}}}"#,
        Json::Str(SPIN.to_string()).render()
    )
}

fn spin_result(n: i64) -> i64 {
    (0..n).fold(1i64, |s, i| s.wrapping_mul(3).wrapping_add(i))
}

/// Iterations of `spin` per millisecond in this build on this host, so the
/// tests can ask for a run of a given length. Two requests: the first
/// compiles.
fn spin_rate(addr: SocketAddr) -> f64 {
    post_ok(addr, &spin_body(1_000_000, 60_000));
    let n = 4_000_000;
    let j = post_ok(addr, &spin_body(n, 60_000));
    assert_eq!(j.get("result"), Some(&Json::Int(spin_result(n))));
    n as f64 / j.get("run_ms").and_then(Json::as_f64).unwrap()
}

/// The deadline when the thread that runs the program is the service
/// worker: the watchdog answers at the deadline, once; a replacement
/// worker serves the next request while the overdue run is still going;
/// and when that run ends its thread is gone and `abandoned` is 0 again.
#[test]
fn deadline_under_reuse_answers_once_and_replaces_the_worker() {
    alone(
        "deadline_under_reuse_answers_once_and_replaces_the_worker",
        || {
            const DEADLINE: Duration = Duration::from_millis(250);
            // From sending the request to having read the 504, on a host
            // whose two cores the spinner and the other tests share.
            const SLACK: Duration = Duration::from_millis(300);
            let workers = 1;
            let addr = start(workers, 8);
            let per_ms = spin_rate(addr);
            let idle = thread_count();
            assert_eq!(zagd_threads(), workers + 2);

            // About 1.5 s of spinning under a 250 ms deadline.
            let t0 = Instant::now();
            let resp = client::post(addr, "/run", &spin_body((1500.0 * per_ms) as i64, 250))
                .expect("transport");
            let took = t0.elapsed();
            assert_eq!(resp.status, 504, "{}", resp.body);
            let j = assert_whole(&resp);
            assert_eq!(j.get("ok"), Some(&Json::Bool(false)));
            assert_eq!(
                j.get("error").and_then(Json::as_str),
                Some("deadline exceeded after 250 ms")
            );
            assert!(DEADLINE <= took && took <= DEADLINE + SLACK, "{took:?}");

            // The only worker is still spinning; its replacement answers.
            let j = post_ok(addr, &spin_body(1000, 60_000));
            assert_eq!(j.get("result"), Some(&Json::Int(spin_result(1000))));
            let s = stats(addr);
            assert_eq!(stat(&s, "abandoned"), 1, "{}", s.render());
            assert_eq!(stat(&s, "timeouts"), 1);
            assert_eq!(stat(s.get("queue").unwrap(), "in_flight"), 0);
            // Two to calibrate, the spinner, the short one, this `/stats`.
            assert_eq!(stat(&s, "served"), 5);
            assert_eq!(zagd_threads(), workers + 2 + 1);

            // The spinner ends: nothing is abandoned, its thread is gone.
            let s = stats_when_nothing_is_abandoned(addr);
            assert_eq!(stat(&s, "timeouts"), 1);
            assert!(settles_to(zagd_threads, workers + 2));
            assert!(
                settles_to(thread_count, idle),
                "{} -> {}",
                idle,
                thread_count()
            );
            post_ok(addr, &spin_body(1000, 60_000));
        },
    );
}

/// Worker and watchdog finishing within microseconds of each other: run
/// lengths sweep from under to over the deadline, and every request gets
/// one whole response, `200` with the right result or `504`.
#[test]
fn one_response_per_request_when_the_run_ends_at_its_deadline() {
    alone(
        "one_response_per_request_when_the_run_ends_at_its_deadline",
        || {
            const DEADLINE_MS: u64 = 4;
            const CLIENTS: i64 = 2;
            const EACH: i64 = 300;
            let workers = 2;
            let addr = start(workers, 16);
            let per_ms = spin_rate(addr);
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    std::thread::spawn(move || {
                        let (mut in_time, mut late) = (0, 0);
                        for k in 0..EACH {
                            // 0.7 to 1.3 deadlines long, the clients interleaved.
                            let share = (k * CLIENTS + c) as f64 / (EACH * CLIENTS) as f64;
                            let n = ((0.7 + 0.6 * share) * DEADLINE_MS as f64 * per_ms) as i64;
                            let resp = client::post(addr, "/run", &spin_body(n, DEADLINE_MS))
                                .expect("transport");
                            let j = assert_whole(&resp);
                            match resp.status {
                                200 => {
                                    assert_eq!(j.get("result"), Some(&Json::Int(spin_result(n))));
                                    in_time += 1;
                                }
                                504 => {
                                    assert_eq!(j.get("ok"), Some(&Json::Bool(false)));
                                    late += 1;
                                }
                                other => panic!("status {other}: {}", resp.body),
                            }
                        }
                        (in_time, late)
                    })
                })
                .collect();
            let (mut in_time, mut late) = (0, 0);
            for c in clients {
                let (a, b) = c.join().expect("client thread");
                in_time += a;
                late += b;
            }
            assert_eq!(in_time + late, CLIENTS * EACH);
            assert!(in_time > 0 && late > 0, "{in_time} in time, {late} late");

            let s = stats_when_nothing_is_abandoned(addr);
            assert_eq!(stat(&s, "timeouts"), late, "{}", s.render());
            assert_eq!(stat(&s, "rejected"), 0);
            assert_eq!(stat(&s, "panics"), 0);
            assert_eq!(stat(s.get("queue").unwrap(), "in_flight"), 0);
            // `/stats` is asked until it reads 0 abandoned, so at least once.
            assert!(stat(&s, "served") > 2 + CLIENTS * EACH);
            assert!(settles_to(zagd_threads, workers + 2));
        },
    );
}

/// A worker is a long-lived VM thread now, so a request must leave it as
/// it found it: after each of these, in this order on the one worker, the
/// next gets the answer a fresh server gives.
#[test]
fn a_reused_worker_answers_like_a_fresh_server() {
    let source = |text: &str| Json::Str(text.to_string()).render();
    let recursion = source(
        "fn down(k: i64) i64 { if (k == 0) { return 0; } return 1 + down(k - 1); }
fn forked(k: i64) i64 {
    var total: i64 = 0;
    //$omp parallel num_threads(2) firstprivate(k) reduction(+: total)
    {
        total = total + down(k);
    }
    return total;
}
",
    );
    let racy = source(
        "fn main() void {\n    var total: i64 = 0;\n    //$omp parallel shared(total)\n    {\n        var i: i64 = 0;\n        //$omp while\n        while (i < 100) : (i += 1) {\n            total = total + i;\n        }\n    }\n    print(total);\n}\n",
    );
    let requests = [
        // An out-of-bounds read: a runtime error inside a call.
        (
            500,
            format!(
                r#"{{"source": {}}}"#,
                source("fn main() void {\n    print(1);\n    var a: []f64 = @allocF(2);\n    print(a[9]);\n}\n")
            ),
        ),
        // One call too deep, inside a 2-thread region.
        (
            500,
            format!(
                r#"{{"source": {recursion}, "entry": "forked", "args": [{}]}}"#,
                zomp::MAX_CALL_DEPTH - 1
            ),
        ),
        // A team size, then none: the default must be back.
        (
            200,
            format!(
                r#"{{"source": {}, "threads": 3}}"#,
                source("fn main() void {\n    print(omp.get_max_threads());\n}\n")
            ),
        ),
        (
            200,
            format!(
                r#"{{"source": {}}}"#,
                source("fn main() void {\n    print(0 + omp.get_max_threads());\n}\n")
            ),
        ),
        (
            422,
            format!(r#"{{"source": {racy}, "check": "deny"}}"#),
        ),
        (200, body(&demo::cg(), "cg_demo", "[400, 2, 2]", 2)),
        (200, body(&demo::ep(), "ep_demo", "[12, 8, 2]", 2)),
        (200, body(&demo::is(), "is_demo", "[1500, 9, 4, 2]", 2)),
    ];
    let answer = |addr: SocketAddr, body: &str| {
        let resp = client::post(addr, "/run", body).expect("transport");
        let Json::Obj(mut fields) = Json::parse(&resp.body).expect("response JSON") else {
            panic!("not an object: {}", resp.body);
        };
        fields.remove("compile_ms");
        fields.remove("run_ms");
        (resp.status, Json::Obj(fields).render())
    };
    let reused = start(1, 8);
    for (status, body) in &requests {
        let got = answer(reused, body);
        assert_eq!(got.0, *status, "{}", got.1);
        assert_eq!(got, answer(start(1, 8), body));
    }
    let s = stats(reused);
    assert_eq!(stat(&s, "panics"), 0);
    assert_eq!(stat(&s, "timeouts"), 0);
}

/// A thread that counts registers a trace ring that is never freed: with
/// the workers running the programs that is one per worker and pool
/// thread, not one per request.
#[test]
fn trace_rings_follow_the_workers_not_the_requests() {
    alone("trace_rings_follow_the_workers_not_the_requests", || {
        let (workers, team) = (2, 2);
        let addr = start(workers, 8);
        let b = body(&demo::ep(), "ep_demo", "[10, 8, 2]", team);
        zomp::trace::enable_counters();
        let before = zomp::trace::metrics().threads;
        for _ in 0..50 {
            post_ok(addr, &b);
        }
        let grown = zomp::trace::metrics().threads - before;
        zomp::trace::disable_all();
        assert!(
            (1..=(workers + team) as u64).contains(&grown),
            "{grown} new rings"
        );
    });
}

/// Overload must not create threads: 200 connections rejected while all
/// are open (each `503` used to get a thread of its own for half a second).
#[test]
fn rejected_connections_cost_no_threads() {
    alone("rejected_connections_cost_no_threads", || {
        let workers = 1;
        let addr = start(workers, 1);
        let per_ms = spin_rate(addr);
        let idle = thread_count();
        // As in `queue_overflow_rejects_with_retry_after`: pin the worker,
        // then fill the queue's one slot. Nothing outside the server shows
        // when it has got that far, hence the sleeps.
        let slow = spin_body((3000.0 * per_ms) as i64, 60_000);
        let pin = std::thread::spawn(move || client::post(addr, "/run", &slow));
        std::thread::sleep(Duration::from_millis(300));
        let parked = TcpStream::connect(addr).expect("connect");
        std::thread::sleep(Duration::from_millis(200));

        let mut conns: Vec<TcpStream> = (0..200)
            .map(|_| {
                let mut c = TcpStream::connect(addr).expect("connect");
                c.write_all(b"GET /stats HTTP/1.1\r\nHost: zagd\r\nContent-Length: 0\r\n\r\n")
                    .expect("send");
                c
            })
            .collect();
        let mut most = 0;
        for c in &mut conns {
            c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut raw = Vec::new();
            c.read_to_end(&mut raw).expect("a response, then the end");
            most = most.max(thread_count());
            let resp = client::parse_response(&raw).expect("a response");
            assert_eq!(resp.status, 503, "{}", resp.body);
            assert_eq!(resp.header("retry-after"), Some("1"));
            assert_eq!(assert_whole(&resp).get("ok"), Some(&Json::Bool(false)));
        }
        // `pin` is one of them.
        assert!(most <= idle + workers + 3, "idle {idle}, most {most}");
        drop(conns);
        // Or the worker waits out its read timeout on it.
        drop(parked);
        assert_eq!(pin.join().unwrap().expect("transport").status, 200);
        // Until the worker has taken `parked` off the queue, one more
        // connection is one more rejection.
        let mut rejected = 200;
        while client::get(addr, "/health").expect("transport").status == 503 {
            rejected += 1;
        }
        assert_eq!(stat(&stats(addr), "rejected"), rejected);
        assert!(settles_to(thread_count, idle));
    });
}

/// Malformed input is a `4xx`, not a panic, a leaked thread or a wedged
/// worker: after each, the one worker answers a well-formed request.
#[test]
fn malformed_requests_get_4xx_and_the_worker_goes_on() {
    alone("malformed_requests_get_4xx_and_the_worker_goes_on", || {
        let addr = start(1, 8);
        post_ok(addr, &spin_body(1000, 60_000));
        let idle = thread_count();
        let mut oversize_head = b"GET /health HTTP/1.1\r\nX-Pad: ".to_vec();
        oversize_head.resize(70 * 1024, b'a');
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        let mut deep_body = format!(
            "POST /run HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            deep.len()
        );
        deep_body.push_str(&deep);
        let nested = "(".repeat(20_000) + "1" + &")".repeat(20_000);
        let nested = format!(
            r#"{{"source": {}}}"#,
            Json::Str(format!("fn main() void {{ print({nested}); }}")).render()
        );
        let deep_source = format!(
            "POST /run HTTP/1.1\r\nContent-Length: {}\r\n\r\n{nested}",
            nested.len()
        );
        let corpus: [(&str, Vec<u8>); 9] = [
            (
                "body shorter than Content-Length, then close",
                b"POST /run HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"source\": ".to_vec(),
            ),
            (
                "Content-Length: abc",
                b"POST /run HTTP/1.1\r\nContent-Length: abc\r\n\r\n{}".to_vec(),
            ),
            (
                "declared body over 16 MB",
                b"POST /run HTTP/1.1\r\nContent-Length: 16777217\r\n\r\n{".to_vec(),
            ),
            ("headers over 64 KB", oversize_head),
            (
                "non-UTF-8 body",
                b"POST /run HTTP/1.1\r\nContent-Length: 4\r\n\r\n\xff\xfe\xfd\xfc".to_vec(),
            ),
            ("request line with no path", b"GET\r\n\r\n".to_vec()),
            ("empty connection", Vec::new()),
            ("body nested 100 000 deep", deep_body.into_bytes()),
            ("source nested 20 000 deep", deep_source.into_bytes()),
        ];
        for (what, bytes) in corpus {
            let mut conn = TcpStream::connect(addr).expect("connect");
            conn.set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            conn.write_all(&bytes).expect("send");
            conn.shutdown(Shutdown::Write).expect("half-close");
            let mut raw = Vec::new();
            conn.read_to_end(&mut raw)
                .expect("a response, then the end");
            // Nothing was asked on the empty one; a clean close will do.
            if !(bytes.is_empty() && raw.is_empty()) {
                let resp = client::parse_response(&raw).expect(what);
                assert!((400..500).contains(&resp.status), "{what}: {}", resp.body);
                let reply = assert_whole(&resp);
                assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
                if what.starts_with("source") {
                    // The ordinary compile-error reply, at the parser's bound.
                    assert_eq!(resp.status, 422, "{}", resp.body);
                    assert!(resp.body.contains("nesting deeper than"), "{}", resp.body);
                }
            }
            drop(conn);
            let j = post_ok(addr, &spin_body(1000, 60_000));
            assert_eq!(j.get("ok"), Some(&Json::Bool(true)), "after {what}");
            assert!(settles_to(thread_count, idle), "after {what}");
        }
        let s = stats(addr);
        assert_eq!(stat(&s, "panics"), 0);
        // The first request, one after each case, the deep body (a
        // request, refused by the JSON parser), the deep source (a request,
        // refused by the Zag parser) and this `/stats`: what could not be
        // read as a request was not served.
        assert_eq!(stat(&s, "served"), 1 + 9 + 2 + 1);
    });
}
