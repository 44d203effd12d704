//! The threaded HTTP server: acceptor, bounded connection queue, worker
//! pool, per-request deadlines, and graceful drain.
//!
//! Architecture (one box per thread):
//!
//! ```text
//!   acceptor ──► Bounded<Conn> ──► worker 0 ─┐
//!      │              │       ╲─► worker 1 ─┼─► Handler::handle
//!      │              │        ╲─ worker N ─┘
//!      └─ queue full: 503 + Retry-After, close
//! ```
//!
//! Shutdown sequence ([`ServerHandle::shutdown`]): set the stop flag →
//! the acceptor stops accepting and closes the queue → workers drain the
//! connections already accepted (answering their in-flight requests with
//! `Connection: close`, closing *idle* keep-alive connections at once) →
//! threads are joined → telemetry is flushed. Nothing that was accepted
//! is ever dropped mid-request.

use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::http::{read_request, Method, Request, Response};
use crate::queue::Bounded;

/// Slice length for the between-requests idle poll: the longest an idle
/// keep-alive connection can delay a drain.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// Produces a response for each parsed request. Implementations must be
/// shareable across worker threads.
pub trait Handler: Send + Sync + 'static {
    /// Handles one request.
    fn handle(&self, req: &Request) -> Response;

    /// A low-cardinality label for per-route metrics (histogram names
    /// embed it, so keep the set finite).
    fn route_label(&self, req: &Request) -> &'static str {
        let _ = req;
        "other"
    }

    /// Readiness probe backing `GET /readyz` (the server answers that
    /// route itself): `false` keeps load balancers away while state is
    /// still loading. Liveness (`/healthz`) is the handler's own business.
    fn ready(&self) -> bool {
        true
    }

    /// Called once per connection with the time it spent on the accept
    /// queue before a worker picked it up, so a handler can attribute
    /// queueing in its own metrics (the router's `router.hop.*` series).
    /// Default: ignored.
    fn on_queue_wait(&self, wait: Duration) {
        let _ = wait;
    }
}

/// Wraps a handler whose state loads after the socket is already bound:
/// until [`ReadyGate::install`] provides the real handler, every route
/// answers `503 + Retry-After` and `GET /readyz` reports not-ready —
/// orchestrators can route traffic the moment the flip happens without
/// ever seeing a connection refused.
///
/// The installed handler can later be replaced atomically with
/// [`ReadyGate::swap`] (hot reload): each request clones the current
/// `Arc` once at dispatch, so requests in flight when a swap lands keep
/// the handler they started with and drain against it — a swap never
/// drops or reroutes an in-flight request.
pub struct ReadyGate {
    inner: std::sync::RwLock<Option<Arc<dyn Handler>>>,
    /// Completed swaps (not counting the initial install).
    swaps: std::sync::atomic::AtomicU64,
}

impl ReadyGate {
    /// An empty gate; serve it immediately, install the handler later.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> Arc<ReadyGate> {
        Arc::new(ReadyGate {
            inner: std::sync::RwLock::new(None),
            swaps: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// Installs the loaded handler, flipping `/readyz` to 200. Later
    /// installs are ignored (first one wins); use [`ReadyGate::swap`] to
    /// replace a live handler.
    pub fn install(&self, handler: Arc<dyn Handler>) {
        let mut slot = self.inner.write().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(handler);
            privim_obs::info!("serve", "ready", gated = true);
        }
    }

    /// Replaces the live handler (installing if the gate was still
    /// empty) and returns the previous one, which finishes serving any
    /// requests that already dispatched to it before being dropped.
    pub fn swap(&self, handler: Arc<dyn Handler>) -> Option<Arc<dyn Handler>> {
        let old = {
            let mut slot = self.inner.write().unwrap_or_else(|e| e.into_inner());
            slot.replace(handler)
        };
        if old.is_some() {
            let n = self.swaps.fetch_add(1, Ordering::SeqCst) + 1;
            privim_obs::counter("serve.hot_swaps").add(1);
            privim_obs::info!("serve", "hot_swap", swaps = n);
        } else {
            privim_obs::info!("serve", "ready", gated = true);
        }
        old
    }

    /// Completed [`ReadyGate::swap`]s over a live handler.
    pub fn swap_count(&self) -> u64 {
        self.swaps.load(Ordering::SeqCst)
    }

    fn current(&self) -> Option<Arc<dyn Handler>> {
        self.inner.read().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

impl Handler for ReadyGate {
    fn handle(&self, req: &Request) -> Response {
        match self.current() {
            Some(h) => h.handle(req),
            None => Response::unavailable("still loading"),
        }
    }

    fn route_label(&self, req: &Request) -> &'static str {
        match self.current() {
            Some(h) => h.route_label(req),
            None => "other",
        }
    }

    fn ready(&self) -> bool {
        self.current().is_some_and(|h| h.ready())
    }

    fn on_queue_wait(&self, wait: Duration) {
        if let Some(h) = self.current() {
            h.on_queue_wait(wait);
        }
    }
}

impl<F> Handler for F
where
    F: Fn(&Request) -> Response + Send + Sync + 'static,
{
    fn handle(&self, req: &Request) -> Response {
        self(req)
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Bounded connection-queue depth; a full queue sheds load with 503.
    pub queue_depth: usize,
    /// Per-request deadline: socket read/write timeout, and the maximum
    /// time a connection may wait in the queue before its first request
    /// is answered with 503 instead of being served stale.
    pub deadline: Duration,
    /// Maximum accepted request-body size in bytes.
    pub max_body: usize,
    /// Requests slower than this are logged at `Warn` with their route
    /// and request id (forensics for tail latency).
    pub slow_threshold: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_depth: 64,
            deadline: Duration::from_secs(10),
            max_body: 1 << 20,
            slow_threshold: Duration::from_secs(1),
        }
    }
}

/// A connection waiting for a worker, stamped with its accept time so
/// queue-aged requests can be expired against the deadline.
struct Conn {
    stream: TcpStream,
    accepted_at: Instant,
}

/// A running server; dropping the handle without calling
/// [`ServerHandle::shutdown`] aborts ungracefully (threads are detached).
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: std::thread::JoinHandle<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds and starts accepting. Worker and acceptor threads run until
    /// [`ServerHandle::shutdown`]; the returned server is ready as soon
    /// as this returns.
    pub fn start(config: ServerConfig, handler: Arc<dyn Handler>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(Bounded::<Conn>::new(config.queue_depth));

        let acceptor = {
            let stop = Arc::clone(&stop);
            let queue = Arc::clone(&queue);
            std::thread::Builder::new()
                .name("serve-acceptor".into())
                .spawn(move || accept_loop(listener, &stop, &queue))?
        };

        // Publish the gauge (and per-worker counters, below) before any
        // traffic so the very first `/metrics` scrape already shows them.
        privim_obs::gauge("serve.queue_depth").set(0.0);
        let mut workers = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let stop = Arc::clone(&stop);
            let queue = Arc::clone(&queue);
            let handler = Arc::clone(&handler);
            let deadline = config.deadline;
            let max_body = config.max_body;
            let slow_threshold = config.slow_threshold;
            privim_obs::counter(&format!("serve.worker_{i}_busy_micros")).add(0);
            privim_obs::counter(&format!("serve.worker_{i}_idle_micros")).add(0);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || {
                        worker_loop(
                            i,
                            &stop,
                            &queue,
                            handler.as_ref(),
                            deadline,
                            max_body,
                            slow_threshold,
                        )
                    })?,
            );
        }

        privim_obs::info!(
            "serve",
            "listening",
            addr = addr.to_string(),
            workers = workers.len() as u64,
            queue_depth = config.queue_depth as u64,
        );
        Ok(Server {
            addr,
            stop,
            acceptor,
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the server to stop accepting; returns immediately. Combine
    /// with [`Server::join`] to wait for the drain, or call
    /// [`Server::shutdown`] to do both.
    pub fn request_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Graceful shutdown: stop accepting, drain accepted connections,
    /// join every thread, flush telemetry sinks.
    pub fn shutdown(self) {
        self.request_shutdown();
        self.join();
    }

    /// Waits for the server to finish (after [`Server::request_shutdown`]
    /// or an external stop signal wired to the same flag).
    pub fn join(self) {
        let _ = self.acceptor.join();
        // The acceptor closes the queue on its way out; workers drain the
        // remainder and exit on the closed-and-empty queue.
        for worker in self.workers {
            let _ = worker.join();
        }
        privim_obs::info!("serve", "stopped", drained = true);
        privim_obs::flush_sinks();
    }
}

/// Binds `config.addr` and resolves it (split out for error messages).
pub fn resolve_addr(addr: &str) -> std::io::Result<SocketAddr> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))
}

fn accept_loop(listener: TcpListener, stop: &AtomicBool, queue: &Bounded<Conn>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Responses are single small writes; Nagle only delays them.
                let _ = stream.set_nodelay(true);
                let conn = Conn {
                    stream,
                    accepted_at: Instant::now(),
                };
                if let Err(err) = queue.push(conn) {
                    let overloaded = err.is_full();
                    let conn = err.into_inner();
                    privim_obs::counter("serve.rejected").add(1);
                    privim_obs::debug!("serve", "rejected", reason = "queue_full");
                    if let Some(slo) = crate::slo::global() {
                        slo.record_shed();
                    }
                    reject(conn.stream, overloaded);
                } else {
                    privim_obs::gauge("serve.queue_depth").set(queue.len() as f64);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => {
                privim_obs::counter("serve.accept_errors").add(1);
                privim_obs::warn!("serve", "accept_error", error = e.to_string());
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    queue.close();
}

/// Sheds one connection with `503 + Retry-After` (best effort).
fn reject(mut stream: TcpStream, overloaded: bool) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let message = if overloaded {
        "queue full, retry later"
    } else {
        "server shutting down"
    };
    let resp = Response::unavailable(message);
    let _ = resp.write_to(&mut stream, false);
    let _ = stream.flush();
}

fn worker_loop(
    worker: usize,
    stop: &AtomicBool,
    queue: &Bounded<Conn>,
    handler: &dyn Handler,
    deadline: Duration,
    max_body: usize,
    slow_threshold: Duration,
) {
    let busy = privim_obs::counter(&format!("serve.worker_{worker}_busy_micros"));
    let idle = privim_obs::counter(&format!("serve.worker_{worker}_idle_micros"));
    let mut last = Instant::now();
    while let Some(conn) = {
        let conn = queue.pop();
        idle.add(last.elapsed().as_micros() as u64);
        last = Instant::now();
        conn
    } {
        privim_obs::gauge("serve.queue_depth").set(queue.len() as f64);
        serve_connection(conn, stop, handler, deadline, max_body, slow_threshold);
        busy.add(last.elapsed().as_micros() as u64);
        last = Instant::now();
    }
}

/// Derives the request's trace context and the id echoed back in
/// `X-Request-Id`. A client-supplied id (sane ASCII, bounded length) is
/// honored verbatim so the caller can correlate; anything else gets a
/// generated id from a process-local counter. When the request carries a
/// valid `X-Privim-Trace` header (the router propagating its attempt
/// span), the context is re-derived from the remote parent instead, so
/// this process's request span lands under the sender's attempt span
/// with the exact id both sides compute. Neither path reads the wall
/// clock or consumes RNG, keeping seeded responses bit-identical.
fn request_trace(request: &Request) -> (String, privim_obs::TraceContext) {
    let propagated = request
        .header(privim_obs::TRACE_HEADER)
        .and_then(privim_obs::parse_trace_header)
        .map(|remote| remote.child_n(privim_obs::trace::CHILD_REMOTE_REQUEST));
    match request.header("x-request-id") {
        Some(id)
            if !id.is_empty()
                && id.len() <= 128
                && id.bytes().all(|b| b.is_ascii_graphic() || b == b' ') =>
        {
            let ctx = propagated.unwrap_or_else(|| privim_obs::TraceContext::from_request_id(id));
            (id.to_string(), ctx)
        }
        _ => {
            static REQUEST_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
            let n = REQUEST_SEQ.fetch_add(1, Ordering::Relaxed);
            // Domain tag "srv-req" keeps generated ids clear of every
            // other splitmix64-derived stream in the workspace.
            let ctx = privim_obs::TraceContext::from_seed(0x7372_765F_7265_7100 ^ n);
            (ctx.trace_id_hex(), propagated.unwrap_or(ctx))
        }
    }
}

fn serve_connection(
    conn: Conn,
    stop: &AtomicBool,
    handler: &dyn Handler,
    deadline: Duration,
    max_body: usize,
    slow_threshold: Duration,
) {
    let Conn {
        stream,
        accepted_at,
    } = conn;
    if stream.set_read_timeout(Some(deadline)).is_err()
        || stream.set_write_timeout(Some(deadline)).is_err()
    {
        return;
    }
    // A connection that waited out its whole deadline in the queue is
    // answered like a shed one: the client has likely given up already.
    if accepted_at.elapsed() >= deadline {
        privim_obs::counter("serve.expired").add(1);
        if let Some(slo) = crate::slo::global() {
            slo.record_shed();
        }
        reject(stream, true);
        return;
    }
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut stream = stream;
    // Queue age of this connection (accept → worker pickup): the first
    // request pays it, and the replica reports it as its queue-wait hop.
    let queue_wait = accepted_at.elapsed();
    handler.on_queue_wait(queue_wait);
    let mut first_request = true;
    loop {
        // Idle wait between requests: poll for the next byte in short
        // slices so a drain can close an idle keep-alive connection at
        // once instead of holding shutdown for the whole deadline. A
        // request whose bytes have started arriving is never cut off.
        if reader.buffer().is_empty() {
            if stream.set_read_timeout(Some(IDLE_POLL)).is_err() {
                return;
            }
            let idle_start = Instant::now();
            let mut byte = [0u8; 1];
            loop {
                match stream.peek(&mut byte) {
                    // Data or EOF: let read_request sort it out.
                    Ok(_) => break,
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        if stop.load(Ordering::SeqCst) || idle_start.elapsed() >= deadline {
                            return;
                        }
                    }
                    Err(_) => return,
                }
            }
            if stream.set_read_timeout(Some(deadline)).is_err() {
                return;
            }
        }
        let mut request = match read_request(&mut reader, max_body) {
            Ok(Some(req)) => req,
            Ok(None) => return, // clean close between requests
            Err(err) => {
                if let Some(status) = err.status() {
                    privim_obs::counter("serve.bad_requests").add(1);
                    let _ = Response::error(status, &err.to_string()).write_to(&mut stream, false);
                }
                return;
            }
        };
        let is_readyz = request.route() == "/readyz";
        let label = if is_readyz {
            "readyz"
        } else {
            handler.route_label(&request)
        };
        // Every request gets a trace context — from the client's
        // X-Request-Id when one is sent, generated otherwise — entered
        // for the whole handling so handler events (and the parallel
        // spread workers, which re-adopt it) are all stamped with it.
        let (request_id, trace_ctx) = request_trace(&request);
        // Make the resolved id visible to the handler under the header
        // name it expects: a proxying handler (the router) forwards it
        // downstream, so a generated id correlates across the tier too.
        if request.header("x-request-id") != Some(request_id.as_str()) {
            request.headers.retain(|(name, _)| name != "x-request-id");
            request
                .headers
                .push(("x-request-id".into(), request_id.clone()));
        }
        let _trace = trace_ctx.enter();
        let started = Instant::now();
        let export_spans = privim_obs::span_export_armed();
        let handle_start_us = privim_obs::now_micros();
        // A panicking handler must cost one 500, not one pool thread.
        // `/readyz` is answered by the server itself: readiness must stay
        // truthful even while the handler's own state is still loading,
        // and must go false the instant a drain begins.
        let response = if is_readyz {
            readyz_response(&request, handler, stop)
        } else {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler.handle(&request)))
                .unwrap_or_else(|_| Response::error(500, "handler panicked"))
        };
        let response = response.with_header("X-Request-Id", &request_id);
        let elapsed = started.elapsed().as_secs_f64();
        privim_obs::counter("serve.requests").add(1);
        privim_obs::counter(&format!("serve.requests.{label}")).add(1);
        privim_obs::histogram(&format!("serve.latency_secs.{label}")).record(elapsed);
        if response.status >= 500 {
            privim_obs::counter("serve.errors").add(1);
        }
        if let Some(slo) = crate::slo::global() {
            slo.record_request(elapsed, response.status);
        }
        privim_obs::debug!(
            "serve",
            "request",
            route = label,
            status = response.status as u64,
            secs = elapsed,
            request_id = request_id.clone(),
        );
        if elapsed >= slow_threshold.as_secs_f64() {
            privim_obs::counter("serve.slow_requests").add(1);
            privim_obs::warn!(
                "serve",
                "slow_request",
                route = label,
                status = response.status as u64,
                secs = elapsed,
                threshold_secs = slow_threshold.as_secs_f64(),
                request_id = request_id.clone(),
            );
        }
        if export_spans {
            let handle_us = started.elapsed().as_micros() as u64;
            let queue_us = if first_request {
                queue_wait.as_micros() as u64
            } else {
                0
            };
            // The request span covers queue wait + handling, so a remote
            // parent's attempt duration minus this span is pure
            // transport. Its children split the queue-age and
            // worker-compute shares at the tier's agreed child indices.
            privim_obs::export_span(privim_obs::SpanRecord {
                process: String::new(),
                name: "serve.request".into(),
                trace_id: trace_ctx.trace_id,
                span_id: trace_ctx.span_id,
                parent_span_id: trace_ctx.parent_span_id,
                start_us: handle_start_us.saturating_sub(queue_us),
                dur_us: queue_us + handle_us,
                annotations: vec![
                    ("route".into(), label.to_string()),
                    ("status".into(), response.status.to_string()),
                ],
            });
            let queue_ctx = trace_ctx.child_n(privim_obs::trace::CHILD_QUEUE_WAIT);
            privim_obs::export_span(privim_obs::SpanRecord {
                process: String::new(),
                name: "serve.queue_wait".into(),
                trace_id: queue_ctx.trace_id,
                span_id: queue_ctx.span_id,
                parent_span_id: queue_ctx.parent_span_id,
                start_us: handle_start_us.saturating_sub(queue_us),
                dur_us: queue_us,
                annotations: Vec::new(),
            });
            let handle_ctx = trace_ctx.child_n(privim_obs::trace::CHILD_HANDLE);
            privim_obs::export_span(privim_obs::SpanRecord {
                process: String::new(),
                name: "serve.handle".into(),
                trace_id: handle_ctx.trace_id,
                span_id: handle_ctx.span_id,
                parent_span_id: handle_ctx.parent_span_id,
                start_us: handle_start_us,
                dur_us: handle_us,
                annotations: Vec::new(),
            });
        }
        first_request = false;
        // Honor keep-alive only while the server is not draining.
        let keep_alive = request.wants_keep_alive() && !stop.load(Ordering::SeqCst);
        if response.write_to(&mut stream, keep_alive).is_err() {
            privim_obs::counter("serve.write_errors").add(1);
            return;
        }
        if !keep_alive {
            return;
        }
    }
}

/// `GET /readyz`: 200 only while the handler reports ready AND no drain
/// has begun; 503 with `Retry-After` otherwise, so load balancers pull
/// the instance before its in-flight requests finish draining.
fn readyz_response(req: &Request, handler: &dyn Handler, stop: &AtomicBool) -> Response {
    if req.method != Method::Get {
        return Response::error(405, &format!("method {} not allowed here", req.method));
    }
    if stop.load(Ordering::SeqCst) {
        Response::unavailable("draining")
    } else if handler.ready() {
        Response::text(200, "ready\n")
    } else {
        Response::unavailable("loading")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;

    fn echo_handler() -> Arc<dyn Handler> {
        Arc::new(|req: &Request| match req.route() {
            "/echo" => Response::json(200, req.body.clone()),
            "/slow" => {
                std::thread::sleep(Duration::from_millis(150));
                Response::text(200, "slept")
            }
            _ => Response::error(404, "no such route"),
        })
    }

    fn start(workers: usize, queue_depth: usize) -> Server {
        let config = ServerConfig {
            workers,
            queue_depth,
            deadline: Duration::from_secs(5),
            ..ServerConfig::default()
        };
        Server::start(config, echo_handler()).expect("bind")
    }

    #[test]
    fn serves_requests_and_keeps_connections_alive() {
        let server = start(2, 16);
        let mut client = HttpClient::connect(server.local_addr()).unwrap();
        for i in 0..3 {
            let body = format!("{{\"i\":{i}}}");
            let resp = client.post("/echo", body.as_bytes()).unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(resp.body, body.as_bytes());
        }
        assert_eq!(client.reconnects(), 0, "keep-alive should reuse the socket");
        let resp = client.get("/nope").unwrap();
        assert_eq!(resp.status, 404);
        server.shutdown();
    }

    #[test]
    fn graceful_shutdown_completes_in_flight_requests() {
        let server = start(2, 16);
        let addr = server.local_addr();
        let slow = std::thread::spawn(move || {
            let mut client = HttpClient::connect(addr).unwrap();
            client.get("/slow").unwrap()
        });
        // Let the slow request land in a worker, then shut down under it.
        std::thread::sleep(Duration::from_millis(50));
        server.shutdown();
        let resp = slow.join().unwrap();
        assert_eq!(resp.status, 200, "in-flight request must complete");
        assert_eq!(resp.body, b"slept");
        // New connections are refused after shutdown.
        assert!(
            HttpClient::connect(addr).is_err() || {
                let mut c = HttpClient::connect(addr).unwrap();
                c.get("/echo").is_err()
            }
        );
    }

    #[test]
    fn full_queue_sheds_load_with_503_and_retry_after() {
        // One worker, queue depth 1: a slow request occupies the worker,
        // the next connection fills the queue, the third is shed.
        let server = start(1, 1);
        let addr = server.local_addr();
        let slow = std::thread::spawn(move || {
            let mut client = HttpClient::connect(addr).unwrap();
            client.get("/slow").unwrap()
        });
        std::thread::sleep(Duration::from_millis(40));
        let queued = std::thread::spawn(move || {
            let mut client = HttpClient::connect(addr).unwrap();
            client.get("/echo").unwrap()
        });
        std::thread::sleep(Duration::from_millis(40));
        let mut shed = HttpClient::connect(addr).unwrap();
        let resp = shed.get("/echo").unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert_eq!(slow.join().unwrap().status, 200);
        assert_eq!(
            queued.join().unwrap().status,
            200,
            "queued request still served"
        );
        server.shutdown();
    }

    #[test]
    fn readyz_is_served_by_the_server_not_the_handler() {
        // The echo handler knows nothing about /readyz; the server still
        // answers it, and drain flips it to 503 while an in-flight
        // keep-alive connection keeps getting answers.
        let server = start(2, 16);
        let mut client = HttpClient::connect(server.local_addr()).unwrap();
        let resp = client.get("/readyz").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"ready\n");
        assert_eq!(client.post("/readyz", b"x").unwrap().status, 405);
        server.request_shutdown();
        let resp = client.get("/readyz").unwrap();
        assert_eq!(resp.status, 503, "draining must report not-ready");
        assert_eq!(resp.header("retry-after"), Some("1"));
        server.join();
    }

    #[test]
    fn ready_gate_holds_back_traffic_until_installed() {
        let server = Server::start(
            ServerConfig {
                workers: 1,
                queue_depth: 8,
                ..ServerConfig::default()
            },
            {
                let gate = ReadyGate::new();
                // Install from another thread shortly after startup, like
                // a checkpoint load finishing.
                let handle = Arc::clone(&gate);
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(120));
                    handle.install(echo_handler());
                });
                gate
            },
        )
        .unwrap();
        let mut client = HttpClient::connect(server.local_addr()).unwrap();
        assert_eq!(client.get("/readyz").unwrap().status, 503);
        let shed = client.post("/echo", b"x").unwrap();
        assert_eq!(shed.status, 503, "routes shed while loading");
        assert_eq!(shed.header("retry-after"), Some("1"));
        // Wait for the install, then everything serves.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if client.get("/readyz").unwrap().status == 200 {
                break;
            }
            assert!(Instant::now() < deadline, "gate never became ready");
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(client.post("/echo", b"x").unwrap().status, 200);
        server.shutdown();
    }

    #[test]
    fn swap_replaces_the_handler_and_later_install_still_loses() {
        let gate = ReadyGate::new();
        gate.install(Arc::new(|_req: &Request| Response::text(200, "one")));
        let req = crate::http::read_request(&mut "GET /x HTTP/1.1\r\n\r\n".as_bytes(), 64)
            .unwrap()
            .unwrap();
        assert_eq!(gate.handle(&req).body, b"one");
        // install() after the first is a no-op, swap() replaces.
        gate.install(Arc::new(|_req: &Request| Response::text(200, "ignored")));
        assert_eq!(gate.handle(&req).body, b"one");
        let old = gate.swap(Arc::new(|_req: &Request| Response::text(200, "two")));
        assert!(old.is_some(), "swap returns the replaced handler");
        assert_eq!(gate.handle(&req).body, b"two");
        assert_eq!(gate.swap_count(), 1);
    }

    #[test]
    fn hot_swap_under_load_drops_no_requests() {
        // Hammer the gate from several client threads while handlers are
        // swapped underneath: every request must get a 200 whose body is
        // one of the two generations — never an error, never a drop.
        let gate = ReadyGate::new();
        gate.install(Arc::new(|_req: &Request| {
            std::thread::sleep(Duration::from_millis(2));
            Response::text(200, "gen-a")
        }));
        let server = Server::start(
            ServerConfig {
                workers: 4,
                queue_depth: 64,
                ..ServerConfig::default()
            },
            gate.clone(),
        )
        .unwrap();
        let addr = server.local_addr();
        let clients: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut client = HttpClient::connect(addr).unwrap();
                    let mut bodies = Vec::new();
                    for _ in 0..40 {
                        let resp = client.get("/work").expect("no request may fail");
                        assert_eq!(resp.status, 200);
                        bodies.push(resp.body);
                    }
                    bodies
                })
            })
            .collect();
        for swap in 0..6 {
            std::thread::sleep(Duration::from_millis(15));
            let body = if swap % 2 == 0 { "gen-b" } else { "gen-a" };
            gate.swap(Arc::new(move |_req: &Request| {
                std::thread::sleep(Duration::from_millis(2));
                Response::text(200, body)
            }));
        }
        for client in clients {
            for body in client.join().unwrap() {
                assert!(
                    body == b"gen-a" || body == b"gen-b",
                    "unexpected body {:?}",
                    String::from_utf8_lossy(&body)
                );
            }
        }
        assert_eq!(gate.swap_count(), 6);
        server.shutdown();
    }

    #[test]
    fn request_ids_are_echoed_or_generated() {
        let server = start(1, 8);
        let mut client = HttpClient::connect(server.local_addr()).unwrap();
        // Client-supplied id comes back verbatim.
        let resp = client
            .post_with_headers("/echo", &[("X-Request-Id", "my-req-1")], b"{}")
            .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-request-id"), Some("my-req-1"));
        // Without one, the server generates a 32-hex-digit trace id.
        let resp = client.post("/echo", b"{}").unwrap();
        let generated = resp.header("x-request-id").expect("generated id");
        assert_eq!(generated.len(), 32, "{generated}");
        assert!(generated.chars().all(|c| c.is_ascii_hexdigit()));
        // A hostile id (header-injection attempt) is replaced, not echoed.
        let resp = client
            .post_with_headers("/echo", &[("X-Request-Id", "a\tb")], b"{}")
            .unwrap();
        assert_ne!(resp.header("x-request-id"), Some("a\tb"));
        server.shutdown();
    }

    #[test]
    fn slow_requests_are_counted_against_the_threshold() {
        let config = ServerConfig {
            workers: 1,
            queue_depth: 8,
            slow_threshold: Duration::from_millis(50),
            ..ServerConfig::default()
        };
        let server = Server::start(config, echo_handler()).expect("bind");
        let before = privim_obs::counter("serve.slow_requests").get();
        let mut client = HttpClient::connect(server.local_addr()).unwrap();
        assert_eq!(client.get("/slow").unwrap().status, 200);
        assert_eq!(client.post("/echo", b"{}").unwrap().status, 200);
        let after = privim_obs::counter("serve.slow_requests").get();
        assert_eq!(after - before, 1, "only the 150 ms /slow crosses 50 ms");
        server.shutdown();
    }

    #[test]
    fn malformed_requests_get_400_not_a_dead_worker() {
        let server = start(1, 4);
        let addr = server.local_addr();
        {
            use std::io::{Read, Write};
            let mut raw = TcpStream::connect(addr).unwrap();
            raw.write_all(b"BOGUS\r\n\r\n").unwrap();
            let mut buf = String::new();
            let _ = raw.read_to_string(&mut buf);
            assert!(buf.starts_with("HTTP/1.1 400"), "{buf}");
        }
        // The worker survives and serves the next request.
        let mut client = HttpClient::connect(addr).unwrap();
        assert_eq!(client.post("/echo", b"x").unwrap().status, 200);
        server.shutdown();
    }
}
