//! Workload `serve_mix`: the only one with `zagd` (HTTP, JSON, program
//! cache, thread per request) and the compile pipeline on the timed path.
//! Two closed-loop clients send 3 `hit` : 1 `miss`; a `hit` resubmits a
//! resident program, a `miss` is a source the cache has never seen, so the
//! cache is read beside inserts and evictions.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use zagd::json::Json;
use zagd::{client, demo, Server, ServerConfig};
use zomp::trace;
use zomp_vm::Value;

use crate::calib::Calibrator;
use crate::spans::{Spans, NO_PARENT};
use crate::stats::{Digest, Rng};
use crate::workload::{add_delta, ast_vm, Sizes, Window};

pub const KINDS: [&str; 2] = ["hit", "miss"];
const HIT: usize = 0;
const MISS: usize = 1;
const CLIENTS: usize = 2;
/// Small enough that a run's misses evict (the cache is FIFO, so the
/// resident programs are evicted and recompiled now and then as well).
const CACHE_CAP: usize = 64;

/// One of the three `zagd::demo` programs with its scalar arguments (the
/// team size is appended as the last argument).
pub struct Demo {
    pub name: &'static str,
    pub source: String,
    pub entry: &'static str,
    pub scalars: Vec<i64>,
    float_result: bool,
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Expected {
    Int(i64),
    Float(f64),
}

pub struct ServeWorkload {
    pub addr: SocketAddr,
    pub demos: [Demo; 3],
    /// `hit_bodies[demo][threads - 1]`, rendered once.
    pub hit_bodies: [[String; 2]; 3],
    /// Start of this run's never-seen constants.
    nonce_base: i64,
    /// The tree-walker's result per demo and team size.
    expected: [[Expected; 2]; 3],
    pub inputs_digest: u64,
}

fn run_body(source: &str, entry: &str, scalars: &[i64], threads: usize) -> String {
    let mut args: Vec<Json> = scalars.iter().map(|&v| Json::Int(v)).collect();
    args.push(Json::Int(threads as i64));
    Json::Obj(
        [
            ("source", Json::Str(source.to_string())),
            ("entry", Json::Str(entry.to_string())),
            ("args", Json::Arr(args)),
            ("backend", Json::Str("native".into())),
            ("threads", Json::Int(threads as i64)),
            ("timeout_ms", Json::Int(60_000)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect(),
    )
    .render()
}

impl Demo {
    /// The demo plus an entry that adds `nonce` to its result: a source
    /// whose content hash the cache has not seen, whose expected output is
    /// still known, and which a stale cache entry would get wrong.
    pub fn miss_source(&self, nonce: i64) -> String {
        let params: Vec<String> = (0..=self.scalars.len()).map(|i| format!("p{i}")).collect();
        let decls: Vec<String> = params.iter().map(|p| format!("{p}: i64")).collect();
        let (ty, lit) = if self.float_result {
            ("f64", format!("{nonce}.0"))
        } else {
            ("i64", nonce.to_string())
        };
        format!(
            "{}\nfn miss_entry({}) {ty} {{\n    return {}({}) + {lit};\n}}\n",
            self.source,
            decls.join(", "),
            self.entry,
            params.join(", "),
        )
    }

    pub fn miss_body(&self, nonce: i64, threads: usize) -> String {
        run_body(
            &self.miss_source(nonce),
            "miss_entry",
            &self.scalars,
            threads,
        )
    }

    fn hit_body(&self, threads: usize) -> String {
        run_body(&self.source, self.entry, &self.scalars, threads)
    }
}

impl Expected {
    fn plus(self, nonce: i64) -> Expected {
        match self {
            Expected::Int(v) => Expected::Int(v + nonce),
            Expected::Float(v) => Expected::Float(v + nonce as f64),
        }
    }

    fn matches(self, result: Option<&Json>) -> bool {
        match (self, result) {
            (Expected::Int(want), Some(Json::Int(got))) => want == *got,
            (Expected::Float(want), Some(Json::Float(got))) => want.to_bits() == got.to_bits(),
            _ => false,
        }
    }
}

/// A reply is correct when it is `200`, `ok: true`, and carries the
/// expected result.
fn check_reply(reply: Result<client::Response, String>, want: Expected) -> Result<(), String> {
    let reply = reply?;
    if reply.status != 200 {
        return Err(format!("status {}: {}", reply.status, reply.body));
    }
    let json = Json::parse(&reply.body)?;
    if json.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("not ok: {}", reply.body));
    }
    if !want.matches(json.get("result")) {
        return Err(format!("result differs from {want:?}: {}", reply.body));
    }
    Ok(())
}

pub fn setup(seed: u64, sizes: &Sizes) -> ServeWorkload {
    let demos = [
        Demo {
            name: "cg",
            source: demo::cg(),
            entry: "cg_demo",
            scalars: sizes.serve_cg.to_vec(),
            float_result: true,
        },
        Demo {
            name: "ep",
            source: demo::ep(),
            entry: "ep_demo",
            scalars: sizes.serve_ep.to_vec(),
            float_result: true,
        },
        Demo {
            name: "is",
            source: demo::is(),
            entry: "is_demo",
            scalars: sizes.serve_is.to_vec(),
            float_result: false,
        },
    ];
    // Positive, with room below for the first miss and the counted pass.
    let nonce_base = (1 << 20) + Rng::new(seed, "serve").below(1 << 30) as i64;
    let mut digest = Digest::default();
    digest.u64s([nonce_base as u64]);
    let hit_bodies = [0, 1, 2].map(|d| [1, 2].map(|t| demos[d].hit_body(t)));
    for bodies in &hit_bodies {
        digest.bytes(bodies[0].as_bytes());
    }

    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: CLIENTS,
        queue_cap: 16,
        cache_cap: CACHE_CAP,
        default_timeout_ms: 60_000,
    })
    .expect("bind 127.0.0.1:0");
    let wl = ServeWorkload {
        addr: server.start(),
        demos,
        hit_bodies,
        nonce_base,
        expected: [[Expected::Int(0); 2]; 3],
        inputs_digest: digest.value(),
    };
    // First runs: each resident program is compiled into the cache, and
    // one miss goes through, at a team of 2.
    for bodies in &wl.hit_bodies {
        let reply = client::post(wl.addr, "/run", &bodies[1]).expect("first hit request");
        assert_eq!(reply.status, 200, "first run failed: {}", reply.body);
    }
    let reply = client::post(
        wl.addr,
        "/run",
        &wl.demos[0].miss_body(wl.nonce_base - 1, 2),
    )
    .expect("first miss request");
    assert_eq!(reply.status, 200, "first miss failed: {}", reply.body);
    wl
}

impl ServeWorkload {
    /// Expected results from the tree-walker, called directly (no `zagd`).
    pub fn compute_reference(&mut self) {
        for (d, demo) in self.demos.iter().enumerate() {
            let oracle = ast_vm(&demo.source, demo.name);
            for threads in [1usize, 2] {
                let mut args: Vec<Value> = demo.scalars.iter().map(|&v| Value::Int(v)).collect();
                args.push(Value::Int(threads as i64));
                let ret = oracle
                    .call_function(demo.entry, args)
                    .unwrap_or_else(|e| panic!("tree-walker runs {}: {e}", demo.entry));
                self.expected[d][threads - 1] = match ret {
                    Value::Int(v) => Expected::Int(v),
                    Value::Float(v) => Expected::Float(v),
                    other => panic!("{} returned {}", demo.entry, other.type_name()),
                };
            }
        }
    }

    /// One request of `kind`, timed around the HTTP round trip.
    fn request(
        &self,
        kind: usize,
        demo: usize,
        threads: usize,
        nonce: i64,
        rec: Option<(&mut Spans, u32)>,
    ) -> (f64, Result<(), String>) {
        let miss_body;
        let (body, want) = if kind == HIT {
            (
                &self.hit_bodies[demo][threads - 1],
                self.expected[demo][threads - 1],
            )
        } else {
            miss_body = self.demos[demo].miss_body(nonce, threads);
            (&miss_body, self.expected[demo][threads - 1].plus(nonce))
        };
        let Some((spans, op_id)) = rec else {
            let t0 = Instant::now();
            let reply = client::post(self.addr, "/run", body);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            return (ms, check_reply(reply, want));
        };
        let op = spans.begin("op", NO_PARENT, op_id);
        let http = spans.begin("zagd.http", op, op_id);
        let reply = client::post(self.addr, "/run", body);
        spans.end(http);
        let outcome = spans.time("check", op, op_id, || check_reply(reply, want));
        spans.end(op);
        (spans.duration_ms(http), outcome)
    }

    /// `GET /stats` as JSON.
    pub fn stats(&self) -> Json {
        let reply = client::get(self.addr, "/stats").expect("GET /stats");
        Json::parse(&reply.body).expect("/stats is JSON")
    }
}

struct ClientOp {
    kind: usize,
    threads: usize,
    raw_ms: f64,
    /// At reference speed; filled in when the block's second kernel run
    /// is in.
    ms: f64,
    traced: bool,
    outcome: Result<(), String>,
}

/// One client's ops of one window.
struct ClientLog {
    ops: Vec<ClientOp>,
    spans: Spans,
}

/// A closed loop: the next request goes out when the previous reply is
/// in. Each block of 8 is 3 hits and 1 miss at each team size, in seeded
/// order; the demos take turns within each kind. The calibration kernel
/// runs on the client's thread between blocks, and a block's requests are
/// normalised by the mean of the two runs around it.
fn client_loop(
    wl: &ServeWorkload,
    seed: u64,
    id: usize,
    epoch: Instant,
    deadline: Duration,
    traced_now: &AtomicBool,
) -> ClientLog {
    let mut rng = Rng::new(seed, &format!("client{id}"));
    let mut log = ClientLog {
        ops: Vec::new(),
        spans: Spans::new(epoch, id as u32),
    };
    let mut turn = [id, id];
    let mut nonce = wl.nonce_base + id as i64;
    let mut op_id = id as u32;
    let mut calib = Calibrator::new();
    let mut kernel_before = calib.measure();
    while epoch.elapsed() < deadline {
        let mut block = [
            (HIT, 1),
            (HIT, 2),
            (HIT, 1),
            (HIT, 2),
            (HIT, 1),
            (HIT, 2),
            (MISS, 1),
            (MISS, 2),
        ];
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for (kind, threads) in block {
            let traced = traced_now.load(Ordering::Relaxed);
            let rec = traced.then_some((&mut log.spans, op_id));
            let (raw_ms, outcome) = wl.request(kind, turn[kind] % 3, threads, nonce, rec);
            log.ops.push(ClientOp {
                kind,
                threads,
                raw_ms,
                ms: 0.0,
                traced,
                outcome,
            });
            turn[kind] += 1;
            nonce += CLIENTS as i64;
            op_id += CLIENTS as u32;
        }
        let kernel_after = calib.measure();
        let kernel_ms = (kernel_before + kernel_after) / 2.0;
        let first = log.ops.len() - block.len();
        for op in &mut log.ops[first..] {
            op.ms = Calibrator::normalise(op.raw_ms, kernel_ms);
        }
        kernel_before = kernel_after;
    }
    log
}

/// Run the two clients for `seconds`. With `tracing`, quarter-second
/// slices alternate between traced (spans recorded) and untraced; an op
/// belongs to the slice it started in.
pub fn run_window(wl: &ServeWorkload, seed: u64, seconds: f64, tracing: bool) -> Window {
    let mut w = Window::new(KINDS.len());
    let epoch = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let traced_now = AtomicBool::new(false);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let traced_now = &traced_now;
                s.spawn(move || client_loop(wl, seed, id, epoch, deadline, traced_now))
            })
            .collect();
        let mut slice = 0u64;
        while let Some(left) = deadline.checked_sub(epoch.elapsed()) {
            traced_now.store(tracing && slice.is_multiple_of(2), Ordering::Relaxed);
            std::thread::sleep(left.min(Duration::from_millis(250)));
            slice += 1;
        }
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });
    w.wall_s = epoch.elapsed().as_secs_f64();
    for log in logs {
        for op in log.ops {
            w.record(KINDS[op.kind], op.threads, op.outcome);
            if op.traced {
                w.traced.ms[op.kind][op.threads - 1].push(op.ms);
            } else {
                w.plain.ms[op.kind][op.threads - 1].push(op.ms);
                w.raw.ms[op.kind][op.threads - 1].push(op.raw_ms);
            }
        }
        w.spans.push(log.spans);
    }
    w
}

/// Requests of the counted pass: three blocks of the client sequence.
const COUNTED_REQUESTS: u64 = 24;

/// The runtime's counters for `serve_mix` come from a short sequential
/// pass after the window, not from the window itself: `zagd` runs every
/// request on a thread of its own, and a thread that counts registers a
/// write-once event ring of ~0.5 MB that is never freed, so counting for
/// a whole window would grow the process by hundreds of MB.
pub fn counted_pass(wl: &ServeWorkload, seed: u64, w: &mut Window) {
    let mut rng = Rng::new(seed, "counted-pass");
    trace::enable_counters();
    let before = trace::metrics();
    for i in 0..COUNTED_REQUESTS {
        let kind = if i % 4 == 3 { MISS } else { HIT };
        let (demo, threads) = (rng.below(3) as usize, 1 + (i % 2) as usize);
        // Below the window's nonces, which count up from the base.
        let nonce = wl.nonce_base - 2 - i as i64;
        let (ms, outcome) = wl.request(kind, demo, threads, nonce, None);
        w.record(KINDS[kind], threads, outcome);
        w.counted_ms += ms;
    }
    add_delta(&mut w.counters, &before, &trace::metrics());
    trace::disable_all();
    w.counted_ops = COUNTED_REQUESTS;
}
