//! The batched front end: a minimal HTTP/1.1 server over a bounded
//! request queue.
//!
//! Shape:
//!
//! ```text
//! acceptor ──► bounded queue (503 + Retry-After when full)
//!                  │
//!          service workers: pop, parse, and run the program right
//!          there (catch_unwind panic isolation) on the request's own
//!          zomp::Runtime, while its parallel regions multiplex the
//!          shared zomp worker pool
//!                  │ leave (deadline, connection) / take it back
//!          one watchdog: answers 504 for a run whose deadline passes
//!          and starts the replacement worker; drains the connections
//!          the acceptor and the workers turned away
//! ```
//!
//! A steady-state server is `workers + 2` threads (plus the `zomp`
//! pool); a request creates none. The workers are long-lived VM
//! threads, so their stacks hold `zomp::MAX_CALL_DEPTH` Zag calls.
//!
//! Endpoints: `POST /run` (see [`crate::request`]), `GET /stats`
//! (cache/queue counters), `GET /health`.
//!
//! Backpressure is explicit: the acceptor never queues more than
//! `queue_cap` connections; beyond that clients get `503` with a
//! `Retry-After` hint instead of unbounded latency.
//!
//! Deadlines: before a worker runs a program it leaves the deadline and
//! a clone of the connection on the watchdog's list, and takes them
//! back when the run ends. Whoever removes the entry answers, so a
//! request gets exactly one response. When the deadline passes first,
//! the watchdog writes the `504`, closes the connection and starts a
//! replacement worker, so `workers` threads keep serving; the overdue
//! worker cannot be cancelled safely, runs on in the background, finds
//! its entry gone, writes nothing and exits. `/stats` counts such runs
//! in `timeouts` and shows in `abandoned` how many are executing now.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

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
    /// Compiled-program cache capacity (distinct source/unit/opt keys).
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
    watch: Mutex<Watch>,
    /// Wakes the watchdog before `Watch::wake_at`.
    watch_changed: Condvar,
    served: AtomicU64,
    rejected: AtomicU64,
    timeouts: AtomicU64,
    panics: AtomicU64,
}

/// What the watchdog looks after. No thread panics while it holds the
/// lock, and every update is complete before the lock is released.
#[derive(Default)]
struct Watch {
    /// The `/run` executions in progress, in no order.
    runs: Vec<Run>,
    next_run_id: u64,
    /// Runs answered `504` whose worker is still executing.
    overdue: usize,
    /// Overdue workers whose replacement could not be started: each
    /// goes back to serving when its run ends.
    unreplaced: usize,
    /// Connections answered without being served, oldest first.
    lingering: VecDeque<Lingering>,
    /// When the watchdog next wakes by itself (`None`: not before a
    /// signal).
    wake_at: Option<Instant>,
}

/// One run's entry on the watchdog's list. Whoever removes it — the
/// worker when the run ends, the watchdog when the deadline passes —
/// writes the response.
struct Run {
    id: u64,
    deadline: Instant,
    timeout: Duration,
    /// The watchdog's handle on the worker's connection.
    conn: TcpStream,
}

/// A non-blocking connection that has its response (`503`, `400`) and
/// is read until the peer closes: closing with unread bytes in the
/// receive buffer triggers an RST that can destroy the response before
/// the client reads it.
struct Lingering {
    conn: TcpStream,
    expires: Instant,
}

/// More turned-away connections than this and the oldest is closed.
const LINGER_CAP: usize = 64;
/// How long a turned-away connection is drained at most.
const LINGER: Duration = Duration::from_millis(500);
/// How often the watchdog reads the lingering connections.
const LINGER_POLL: Duration = Duration::from_millis(5);

/// A bound-but-not-yet-serving server. [`Server::start`] spawns the
/// worker, watchdog and acceptor threads and returns the resolved
/// address.
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
                watch: Mutex::new(Watch::default()),
                watch_changed: Condvar::new(),
                served: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                timeouts: AtomicU64::new(0),
                panics: AtomicU64::new(0),
            }),
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    /// Spawn the service workers, the watchdog and the acceptor;
    /// returns immediately with the bound address. The threads run for
    /// the life of the process (the daemon has no graceful shutdown
    /// story yet — it is killed, and clients retry).
    pub fn start(self) -> SocketAddr {
        let addr = self.local_addr();
        for _ in 0..self.state.cfg.workers.max(1) {
            spawn_worker(&self.state).expect("start a service worker");
        }
        let state = Arc::clone(&self.state);
        std::thread::Builder::new()
            .name("zagd-watchdog".into())
            .spawn(move || watchdog_loop(&state))
            .expect("start the watchdog");
        let state = self.state;
        let listener = self.listener;
        std::thread::Builder::new()
            .name("zagd-accept".into())
            .spawn(move || accept_loop(&listener, &state))
            .expect("start the acceptor");
        addr
    }
}

impl State {
    fn watch(&self) -> MutexGuard<'_, Watch> {
        self.watch.lock().expect("no thread panics holding `watch`")
    }

    /// Have the watchdog awake at `at` or before.
    fn wake_watchdog_by(&self, watch: &mut Watch, at: Instant) {
        if watch.wake_at.is_none_or(|t| at < t) {
            watch.wake_at = Some(at);
            self.watch_changed.notify_one();
        }
    }

    /// Answer a connection that is not going to be served and leave it
    /// with the watchdog to be drained.
    fn turn_away(&self, conn: TcpStream, status: u16, headers: &[(&str, &str)], error: String) {
        let _ = respond(&conn, status, headers, &error_body(error));
        // The response is complete: let the client see its end now.
        let _ = conn.shutdown(Shutdown::Write);
        if conn.set_nonblocking(true).is_err() {
            return;
        }
        let now = Instant::now();
        let mut watch = self.watch();
        let evicted = if watch.lingering.len() >= LINGER_CAP {
            watch.lingering.pop_front()
        } else {
            None
        };
        watch.lingering.push_back(Lingering {
            conn,
            expires: now + LINGER,
        });
        self.wake_watchdog_by(&mut watch, now + LINGER_POLL);
        drop(watch);
        if let Some(mut oldest) = evicted {
            // Closed early, but not over what has already arrived.
            oldest.drained(&mut [0u8; 4096]);
        }
    }
}

fn accept_loop(listener: &TcpListener, state: &State) {
    for conn in listener.incoming() {
        let Ok(conn) = conn else { continue };
        let mut queue = state.queue.lock().unwrap();
        if queue.len() >= state.cfg.queue_cap {
            drop(queue);
            state.rejected.fetch_add(1, Ordering::Relaxed);
            state.turn_away(
                conn,
                503,
                &[("Retry-After", "1")],
                "queue full, retry later".into(),
            );
            continue;
        }
        queue.push_back(conn);
        state.ready.notify_one();
    }
}

/// A service worker runs the programs itself, so its stack holds
/// `zomp::MAX_CALL_DEPTH` Zag calls: runaway recursion in a request is
/// that request's runtime error, not a stack overflow that takes the
/// whole server down.
fn spawn_worker(state: &Arc<State>) -> std::io::Result<()> {
    let state = Arc::clone(state);
    std::thread::Builder::new()
        .name("zagd-worker".into())
        .stack_size(zomp::STACK_BYTES)
        .spawn(move || worker_loop(&state))
        .map(drop)
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
        if handle_conn(state, conn) == Worker::Replaced {
            return;
        }
    }
}

/// The deadlines of the runs in progress and the turned-away
/// connections, on one thread per server.
fn watchdog_loop(state: &Arc<State>) {
    let mut sink = [0u8; 16 * 1024];
    let mut watch = state.watch();
    loop {
        let now = Instant::now();
        let expired: Vec<Run> = watch.runs.extract_if(.., |r| r.deadline <= now).collect();
        if !expired.is_empty() {
            // Counted before the client can have the 504 and ask.
            watch.overdue += expired.len();
            state
                .timeouts
                .fetch_add(expired.len() as u64, Ordering::Relaxed);
            // Under the lock, so an overdue worker that ends now
            // already sees whether it has been replaced.
            for _ in &expired {
                if spawn_worker(state).is_err() {
                    watch.unreplaced += 1;
                }
            }
            drop(watch);
            for run in expired {
                let error = format!("deadline exceeded after {} ms", run.timeout.as_millis());
                let _ = respond(&run.conn, 504, &[], &error_body(error));
                // The overdue worker keeps the connection open.
                let _ = run.conn.shutdown(Shutdown::Both);
            }
            watch = state.watch();
            continue;
        }
        watch
            .lingering
            .retain_mut(|l| now < l.expires && !l.drained(&mut sink));
        let poll = (!watch.lingering.is_empty()).then_some(now + LINGER_POLL);
        watch.wake_at = watch.runs.iter().map(|r| r.deadline).chain(poll).min();
        watch = match watch.wake_at {
            Some(at) => {
                state
                    .watch_changed
                    .wait_timeout(watch, at.saturating_duration_since(now))
                    .expect("no thread panics holding `watch`")
                    .0
            }
            None => state
                .watch_changed
                .wait(watch)
                .expect("no thread panics holding `watch`"),
        };
    }
}

impl Lingering {
    /// Read what has arrived; true once the peer has closed. At most
    /// 1 MB a call, so one fast sender cannot hold the watchdog.
    fn drained(&mut self, sink: &mut [u8]) -> bool {
        for _ in 0..64 {
            match self.conn.read(sink) {
                Ok(0) => return true,
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return true,
            }
        }
        false
    }
}

/// One parsed HTTP request.
struct HttpRequest {
    method: String,
    path: String,
    body: String,
}

/// Whether the thread that handled a connection is still one of the
/// server's `workers`.
#[derive(PartialEq)]
enum Worker {
    Serving,
    /// Its run went overdue and the watchdog started another worker.
    Replaced,
}

fn handle_conn(state: &State, mut conn: TcpStream) -> Worker {
    // A stalled client must not pin a service worker forever.
    let _ = conn.set_read_timeout(Some(Duration::from_secs(10)));
    let req = match read_request(&mut conn) {
        Ok(r) => r,
        Err(e) => {
            state.turn_away(conn, 400, &[], format!("bad request: {e}"));
            return Worker::Serving;
        }
    };
    state.served.fetch_add(1, Ordering::Relaxed);
    let (status, body) = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => (200, obj([("ok", Json::Bool(true))]).render()),
        ("GET", "/stats") => (200, stats_json(state).render()),
        ("POST", "/run") => match handle_run(state, &conn, &req.body) {
            Ok(reply) => reply,
            Err(answered_by_the_watchdog) => return answered_by_the_watchdog,
        },
        _ => (
            404,
            error_body(format!("no route {} {}", req.method, req.path)),
        ),
    };
    let _ = respond(&conn, status, &[], &body);
    Worker::Serving
}

fn error_body(error: String) -> String {
    obj([("ok", Json::Bool(false)), ("error", Json::Str(error))]).render()
}

fn stats_json(state: &State) -> Json {
    let (in_flight, abandoned) = {
        let watch = state.watch();
        (watch.runs.len(), watch.overdue)
    };
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
                ("in_flight", Json::Int(in_flight as i64)),
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
        ("abandoned", Json::Int(abandoned as i64)),
    ])
}

/// Parse one `/run` and execute it on this thread with panic isolation,
/// under the watchdog's deadline. The status and body to answer with;
/// or, when the deadline passed first and the watchdog answered, what
/// has become of this worker.
fn handle_run(state: &State, conn: &TcpStream, body: &str) -> Result<(u16, String), Worker> {
    let parsed = Json::parse(body).and_then(|j| RunRequest::from_json(&j));
    let req = match parsed {
        Ok(r) => r,
        Err(e) => return Ok((400, error_body(e))),
    };
    let timeout = Duration::from_millis(req.timeout_ms.unwrap_or(state.cfg.default_timeout_ms));
    let watchdog_conn = match conn.try_clone() {
        Ok(c) => c,
        Err(e) => return Ok((503, error_body(format!("cannot arm the deadline: {e}")))),
    };
    let id = {
        let deadline = Instant::now() + timeout;
        let mut watch = state.watch();
        let id = watch.next_run_id;
        watch.next_run_id += 1;
        watch.runs.push(Run {
            id,
            deadline,
            timeout,
            conn: watchdog_conn,
        });
        state.wake_watchdog_by(&mut watch, deadline);
        id
    };

    // `execute` builds the per-request runtime; any parallel regions
    // inside fan out on the shared zomp worker pool.
    let result = catch_unwind(AssertUnwindSafe(|| {
        let out = execute(&state.cache, &req);
        (out.status, out.body.render())
    }));

    let mut watch = state.watch();
    let Some(at) = watch.runs.iter().position(|r| r.id == id) else {
        watch.overdue -= 1;
        if watch.unreplaced == 0 {
            return Err(Worker::Replaced);
        }
        watch.unreplaced -= 1;
        return Err(Worker::Serving);
    };
    let entry = watch.runs.swap_remove(at);
    drop(watch);
    drop(entry);
    Ok(result.unwrap_or_else(|p| {
        state.panics.fetch_add(1, Ordering::Relaxed);
        let text = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "program panicked".to_string());
        (500, error_body(format!("panic: {text}")))
    }))
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
        // The terminator may straddle the bytes already searched.
        let searched = buf.len().saturating_sub(3);
        buf.extend_from_slice(&tmp[..n]);
        if let Some(p) = find_crlf2(&buf, searched) {
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

/// The first `\r\n\r\n` that starts at `from` or later.
fn find_crlf2(buf: &[u8], from: usize) -> Option<usize> {
    buf[from..]
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| from + p)
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
    // Head and body leave in one segment.
    let mut msg = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (k, v) in extra_headers {
        msg.push_str(&format!("{k}: {v}\r\n"));
    }
    msg.push_str("\r\n");
    msg.push_str(body);
    let mut w = conn;
    w.write_all(msg.as_bytes())?;
    w.flush()
}
