//! The batched front end: a minimal HTTP/1.1 server over a bounded
//! request queue.
//!
//! Shape:
//!
//! ```text
//! acceptor ──► bounded queue (reject with 503 + Retry-After when full)
//!                  │
//!          service workers (pop, parse, dispatch)
//!                  │
//!          per-request execution thread (catch_unwind panic isolation,
//!          recv_timeout deadline → 504), running the program on its own
//!          zomp::Runtime while parallel regions multiplex the shared
//!          worker pool
//! ```
//!
//! Endpoints: `POST /run` (see [`crate::request`]), `GET /stats`
//! (cache/queue counters), `GET /health`.
//!
//! Backpressure is explicit: the acceptor never queues more than
//! `queue_cap` connections; beyond that clients get `503` with a
//! `Retry-After` hint instead of unbounded latency. A request that
//! outlives its deadline gets `504`; its execution thread is left to
//! finish in the background (threads cannot be cancelled safely), which
//! the `/stats` `abandoned` counter makes visible.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::cache::ProgramCache;
use crate::json::{obj, Json};
use crate::request::{execute, RunRequest};

/// Tunables for one server instance.
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7099` (`:0` for an ephemeral port).
    pub addr: String,
    /// Service worker threads (concurrent request executions).
    pub workers: usize,
    /// Accepted-but-unserviced connection bound; beyond it, 503.
    pub queue_cap: usize,
    /// Compiled-program cache capacity (distinct source/opt/backend keys).
    pub cache_cap: usize,
    /// Deadline for requests that do not carry `timeout_ms`.
    pub default_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7099".into(),
            workers: 4,
            queue_cap: 64,
            cache_cap: 128,
            default_timeout_ms: 30_000,
        }
    }
}

struct State {
    cfg: ServerConfig,
    cache: ProgramCache,
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    served: AtomicU64,
    rejected: AtomicU64,
    timeouts: AtomicU64,
    panics: AtomicU64,
    abandoned: AtomicU64,
}

/// A bound-but-not-yet-serving server. [`Server::start`] spawns the
/// worker and acceptor threads and returns the resolved address.
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
}

impl Server {
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let cache = ProgramCache::new(cfg.cache_cap);
        Ok(Server {
            listener,
            state: Arc::new(State {
                cfg,
                cache,
                queue: Mutex::new(VecDeque::new()),
                ready: Condvar::new(),
                served: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                timeouts: AtomicU64::new(0),
                panics: AtomicU64::new(0),
                abandoned: AtomicU64::new(0),
            }),
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    /// Spawn the service workers and the acceptor; returns immediately
    /// with the bound address. The threads run for the life of the
    /// process (the daemon has no graceful shutdown story yet — it is
    /// killed, and clients retry).
    pub fn start(self) -> SocketAddr {
        let addr = self.local_addr();
        for _ in 0..self.state.cfg.workers.max(1) {
            let state = Arc::clone(&self.state);
            std::thread::spawn(move || worker_loop(&state));
        }
        let state = self.state;
        let listener = self.listener;
        std::thread::spawn(move || accept_loop(&listener, &state));
        addr
    }
}

fn accept_loop(listener: &TcpListener, state: &State) {
    for conn in listener.incoming() {
        let Ok(conn) = conn else { continue };
        let mut queue = state.queue.lock().unwrap();
        if queue.len() >= state.cfg.queue_cap {
            drop(queue);
            state.rejected.fetch_add(1, Ordering::Relaxed);
            // Reject off-thread: write the 503, then drain whatever the
            // client was still sending before closing. Closing with
            // unread bytes in the receive buffer triggers an RST that
            // can destroy the response before the client reads it.
            std::thread::spawn(move || {
                let _ = respond(
                    &conn,
                    503,
                    &[("Retry-After", "1")],
                    &obj([
                        ("ok", Json::Bool(false)),
                        ("error", Json::Str("queue full, retry later".into())),
                    ])
                    .render(),
                );
                let _ = conn.set_read_timeout(Some(Duration::from_millis(500)));
                let mut sink = [0u8; 4096];
                let mut r = &conn;
                while matches!(r.read(&mut sink), Ok(n) if n > 0) {}
            });
            continue;
        }
        queue.push_back(conn);
        state.ready.notify_one();
    }
}

fn worker_loop(state: &State) {
    loop {
        let conn = {
            let mut queue = state.queue.lock().unwrap();
            loop {
                if let Some(c) = queue.pop_front() {
                    break c;
                }
                queue = state.ready.wait(queue).unwrap();
            }
        };
        handle_conn(state, conn);
    }
}

/// One parsed HTTP request.
struct HttpRequest {
    method: String,
    path: String,
    body: String,
}

fn handle_conn(state: &State, mut conn: TcpStream) {
    // A stalled client must not pin a service worker forever.
    let _ = conn.set_read_timeout(Some(Duration::from_secs(10)));
    let req = match read_request(&mut conn) {
        Ok(r) => r,
        Err(e) => {
            let _ = respond(
                &conn,
                400,
                &[],
                &obj([
                    ("ok", Json::Bool(false)),
                    ("error", Json::Str(format!("bad request: {e}"))),
                ])
                .render(),
            );
            return;
        }
    };
    state.served.fetch_add(1, Ordering::Relaxed);
    let (status, headers, body): (u16, Vec<(&str, String)>, String) =
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/health") => (200, vec![], obj([("ok", Json::Bool(true))]).render()),
            ("GET", "/stats") => (200, vec![], stats_json(state).render()),
            ("POST", "/run") => {
                let (status, body) = handle_run(state, &req.body);
                (status, vec![], body)
            }
            _ => (
                404,
                vec![],
                obj([
                    ("ok", Json::Bool(false)),
                    (
                        "error",
                        Json::Str(format!("no route {} {}", req.method, req.path)),
                    ),
                ])
                .render(),
            ),
        };
    let hdrs: Vec<(&str, &str)> = headers.iter().map(|(k, v)| (*k, v.as_str())).collect();
    let _ = respond(&conn, status, &hdrs, &body);
}

fn stats_json(state: &State) -> Json {
    obj([
        ("ok", Json::Bool(true)),
        (
            "cache",
            obj([
                ("hits", Json::Int(state.cache.hits() as i64)),
                ("misses", Json::Int(state.cache.misses() as i64)),
                ("entries", Json::Int(state.cache.entries() as i64)),
                ("hit_rate", Json::Float(state.cache.hit_rate())),
            ]),
        ),
        (
            "queue",
            obj([
                ("depth", Json::Int(state.queue.lock().unwrap().len() as i64)),
                ("cap", Json::Int(state.cfg.queue_cap as i64)),
            ]),
        ),
        ("workers", Json::Int(state.cfg.workers as i64)),
        (
            "served",
            Json::Int(state.served.load(Ordering::Relaxed) as i64),
        ),
        (
            "rejected",
            Json::Int(state.rejected.load(Ordering::Relaxed) as i64),
        ),
        (
            "timeouts",
            Json::Int(state.timeouts.load(Ordering::Relaxed) as i64),
        ),
        (
            "panics",
            Json::Int(state.panics.load(Ordering::Relaxed) as i64),
        ),
        (
            "abandoned",
            Json::Int(state.abandoned.load(Ordering::Relaxed) as i64),
        ),
    ])
}

/// Parse, execute with deadline + panic isolation, and produce the
/// response body for one `/run`.
fn handle_run(state: &State, body: &str) -> (u16, String) {
    let parsed = Json::parse(body).and_then(|j| RunRequest::from_json(&j));
    let req = match parsed {
        Ok(r) => r,
        Err(e) => {
            return (
                400,
                obj([("ok", Json::Bool(false)), ("error", Json::Str(e))]).render(),
            )
        }
    };
    let deadline = Duration::from_millis(req.timeout_ms.unwrap_or(state.cfg.default_timeout_ms));

    // The program runs on its own thread so the service worker can give
    // up at the deadline. `execute` builds the per-request runtime; any
    // parallel regions inside fan out on the shared zomp worker pool.
    let (tx, rx) = mpsc::channel();
    let cache = CachePtr(&state.cache);
    let run = move || {
        let result = catch_unwind(AssertUnwindSafe(|| {
            let out = execute(cache.get(), &req);
            (out.status, out.body.render())
        }));
        let msg = match result {
            Ok((status, body)) => (status, body, false),
            Err(p) => {
                let text = p
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "program panicked".to_string());
                (
                    500,
                    obj([
                        ("ok", Json::Bool(false)),
                        ("error", Json::Str(format!("panic: {text}"))),
                    ])
                    .render(),
                    true,
                )
            }
        };
        let _ = tx.send(msg);
    };
    // A stack that holds `zomp::MAX_CALL_DEPTH` Zag calls: runaway
    // recursion in a request is that request's runtime error, not a
    // stack overflow that takes the whole server down.
    if let Err(e) = std::thread::Builder::new()
        .stack_size(zomp::STACK_BYTES)
        .spawn(run)
    {
        let error = format!("cannot start an execution thread: {e}");
        return (
            503,
            obj([("ok", Json::Bool(false)), ("error", Json::Str(error))]).render(),
        );
    }
    match rx.recv_timeout(deadline) {
        Ok((status, body, panicked)) => {
            if panicked {
                state.panics.fetch_add(1, Ordering::Relaxed);
            }
            (status, body)
        }
        Err(_) => {
            state.timeouts.fetch_add(1, Ordering::Relaxed);
            state.abandoned.fetch_add(1, Ordering::Relaxed);
            (
                504,
                obj([
                    ("ok", Json::Bool(false)),
                    (
                        "error",
                        Json::Str(format!(
                            "deadline exceeded after {} ms",
                            deadline.as_millis()
                        )),
                    ),
                ])
                .render(),
            )
        }
    }
}

/// The program cache outlives every request (it sits in the leaked-for-
/// process-lifetime server `State`), so hand request threads a raw
/// pointer wrapped to be `Send`.
struct CachePtr(*const ProgramCache);
unsafe impl Send for CachePtr {}
impl CachePtr {
    fn get(&self) -> &ProgramCache {
        // SAFETY: `State` (and the cache inside it) is kept alive for the
        // life of the process by the acceptor/worker threads' `Arc`s.
        unsafe { &*self.0 }
    }
}

fn read_request(conn: &mut TcpStream) -> Result<HttpRequest, String> {
    let mut buf = Vec::new();
    let mut tmp = [0u8; 4096];
    // Read until the header terminator.
    let header_end = loop {
        let n = conn.read(&mut tmp).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed mid-request".into());
        }
        buf.extend_from_slice(&tmp[..n]);
        if let Some(p) = find_crlf2(&buf) {
            break p;
        }
        if buf.len() > 64 * 1024 {
            return Err("headers too large".into());
        }
    };
    let head = std::str::from_utf8(&buf[..header_end]).map_err(|e| e.to_string())?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or("empty request")?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or("missing method")?.to_string();
    let path = parts.next().ok_or("missing path")?.to_string();
    let mut content_length = 0usize;
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().map_err(|_| "bad content-length")?;
            }
        }
    }
    if content_length > 16 * 1024 * 1024 {
        return Err("body too large".into());
    }
    let body_start = header_end + 4;
    while buf.len() < body_start + content_length {
        let n = conn.read(&mut tmp).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed mid-body".into());
        }
        buf.extend_from_slice(&tmp[..n]);
    }
    let body = String::from_utf8(buf[body_start..body_start + content_length].to_vec())
        .map_err(|e| e.to_string())?;
    Ok(HttpRequest { method, path, body })
}

fn find_crlf2(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn respond(
    conn: &TcpStream,
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (k, v) in extra_headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str("\r\n");
    let mut w = conn;
    w.write_all(head.as_bytes())?;
    w.write_all(body.as_bytes())?;
    w.flush()
}
