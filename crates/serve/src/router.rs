//! Replicated-tier front-end: health-checked routing with per-replica
//! circuit breakers, bounded retry, and tail-latency hedging.
//!
//! The router is itself a [`Handler`], so it runs behind the same
//! acceptor/queue/worker machinery as the application — one binary, two
//! roles. It forwards every application route to one of N replica
//! backends and answers only its own operational surface
//! (`/healthz`, `/metrics`, `/router/backends`) locally:
//!
//! ```text
//!             ┌────────┐  breaker ✓  ┌──────────┐
//!  clients ──▶│ router ├────────────▶│ replica 0 │  /readyz + /version
//!             │        ├──retry────▶│ replica 1 │  polled by the health
//!             └────────┘  backoff    └──────────┘  thread
//! ```
//!
//! Correctness of retry and hedging rests on the serving determinism
//! contract: replicas agreeing on a checkpoint digest produce
//! byte-identical bodies for identical requests (scores are fixed at
//! load time, `/v1/spread` uses thread-invariant splitmix64 trial
//! blocks), so re-sending a request to another replica — or racing two
//! replicas and keeping the first answer — can never change what the
//! client observes. The health thread enforces the digest-agreement
//! half: a replica whose `/version` digest disagrees with the majority
//! is pulled from rotation until it converges.
//!
//! Every transition (breaker trips and recoveries, retries, hedges
//! launched/won, backends lost/regained) emits an obs event and bumps a
//! `router.*` counter, exported as `privim_router_*` in Prometheus.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use privim_obs::fault::splitmix64;
use privim_obs::json::{object, JsonValue, ToJson};
use privim_obs::trace::{CHILD_ATTEMPT_BASE, CHILD_HEDGE_BASE};
use privim_obs::TraceContext;

use crate::client::HttpClient;
use crate::http::{Method, Request, Response};
use crate::server::Handler;

/// Maximum pooled keep-alive connections per backend.
const POOL_PER_BACKEND: usize = 4;

/// Circuit-breaker phase. `Open` fails fast; `HalfOpen` lets exactly one
/// probe through to decide between closing and re-opening.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows; consecutive failures are counted.
    Closed,
    /// Tripped: requests are refused until the jittered reopen time.
    Open,
    /// Probe in flight: its outcome decides `Closed` vs `Open`.
    HalfOpen,
}

impl BreakerState {
    /// Lower-case label for status bodies and metrics.
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// A per-replica circuit breaker over a caller-supplied millisecond
/// clock (no wall-clock reads, so tests drive it deterministically).
///
/// Closed → Open after `threshold` consecutive failures; Open → HalfOpen
/// when `allow` is first called past the reopen time (that call *is* the
/// probe); HalfOpen → Closed on probe success, → Open on probe failure.
/// Each trip's cooldown gets deterministic seeded jitter — splitmix64 of
/// `(seed, trip count)` — so a fleet of replicas tripped by the same
/// outage does not probe a recovering backend in lockstep.
#[derive(Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown_ms: u64,
    seed: u64,
    state: BreakerState,
    consecutive_failures: u32,
    trips: u64,
    reopen_at_ms: u64,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `threshold` consecutive failures,
    /// cooling down `cooldown_ms` (+ jitter from `seed`) per trip.
    pub fn new(threshold: u32, cooldown_ms: u64, seed: u64) -> CircuitBreaker {
        CircuitBreaker {
            threshold: threshold.max(1),
            cooldown_ms: cooldown_ms.max(1),
            seed,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            trips: 0,
            reopen_at_ms: 0,
        }
    }

    /// Whether a request may be sent at `now_ms`. In `Open`, the first
    /// call at or past the reopen time transitions to `HalfOpen` and is
    /// allowed as the probe; later calls wait for the probe's verdict.
    pub fn allow(&mut self, now_ms: u64) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if now_ms >= self.reopen_at_ms {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => false,
        }
    }

    /// Records a successful response: closes the breaker.
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.state = BreakerState::Closed;
    }

    /// Records a failed attempt at `now_ms`; trips to `Open` from
    /// `HalfOpen` (failed probe) or on the `threshold`-th consecutive
    /// failure in `Closed`.
    pub fn record_failure(&mut self, now_ms: u64) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let trip = match self.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => self.consecutive_failures >= self.threshold,
            BreakerState::Open => false,
        };
        if trip {
            self.trips += 1;
            // Jitter in [0, cooldown/4]: deterministic per (seed, trip).
            let jitter = splitmix64(self.seed ^ self.trips) % (self.cooldown_ms / 4 + 1);
            self.reopen_at_ms = now_ms + self.cooldown_ms + jitter;
            self.state = BreakerState::Open;
        }
    }

    /// Current phase.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times this breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips
    }
}

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Replica addresses (`host:port`), tried in round-robin order.
    pub backends: Vec<String>,
    /// Extra attempts after the first (on connect errors, timeouts, and
    /// 503s — the idempotent-by-construction failure modes).
    pub retries: u32,
    /// Base for the deterministic exponential backoff between attempts
    /// (`backoff * 2^(attempt-1)`).
    pub backoff: Duration,
    /// Per-attempt request timeout.
    pub timeout: Duration,
    /// Hedge `/v1/spread` requests still unanswered after this delay by
    /// racing a second replica (first answer wins). `None` disables.
    pub hedge_after: Option<Duration>,
    /// Consecutive failures that trip a replica's breaker.
    pub breaker_failures: u32,
    /// Base breaker cooldown before the half-open probe.
    pub breaker_cooldown: Duration,
    /// Health-check poll interval (`/readyz` + `/version` digest).
    pub health_interval: Duration,
    /// Consecutive failed health probes before a replica is pulled from
    /// rotation. Probes ride the same network as traffic, so a single
    /// flaky probe connection must not unseat a healthy replica.
    pub probe_down_after: u32,
    /// Seed for breaker reopen jitter (per-backend streams are derived
    /// from it with splitmix64).
    pub seed: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            backends: Vec::new(),
            retries: 2,
            backoff: Duration::from_millis(50),
            timeout: Duration::from_secs(10),
            hedge_after: None,
            breaker_failures: 3,
            breaker_cooldown: Duration::from_secs(1),
            health_interval: Duration::from_millis(500),
            probe_down_after: 2,
            seed: 0,
        }
    }
}

/// One replica: its address, breaker, health-thread verdicts, and a
/// small pool of kept-alive connections.
struct Backend {
    addr: String,
    breaker: Mutex<CircuitBreaker>,
    /// `/readyz` said 200 on the last poll (starts optimistic so traffic
    /// flows before the first poll completes; breakers catch dead ones).
    healthy: AtomicBool,
    /// Digest agreement with the majority (true while unknown).
    digest_ok: AtomicBool,
    /// Consecutive failed health probes (any success resets).
    probe_failures: AtomicU32,
    digest: Mutex<Option<String>>,
    pool: Mutex<Vec<HttpClient>>,
}

impl Backend {
    fn new(addr: String, config: &RouterConfig, index: usize) -> Backend {
        Backend {
            addr,
            breaker: Mutex::new(CircuitBreaker::new(
                config.breaker_failures,
                config.breaker_cooldown.as_millis() as u64,
                splitmix64(config.seed ^ (index as u64 + 1)),
            )),
            healthy: AtomicBool::new(true),
            digest_ok: AtomicBool::new(true),
            probe_failures: AtomicU32::new(0),
            digest: Mutex::new(None),
            pool: Mutex::new(Vec::new()),
        }
    }

    /// Health-thread verdicts only (the breaker needs a clock and is
    /// consulted separately at pick time).
    fn routable(&self) -> bool {
        self.healthy.load(Ordering::SeqCst) && self.digest_ok.load(Ordering::SeqCst)
    }

    fn client(&self, timeout: Duration) -> std::io::Result<HttpClient> {
        if let Some(client) = self.pool.lock().unwrap_or_else(|e| e.into_inner()).pop() {
            return Ok(client);
        }
        HttpClient::with_timeout(self.addr.as_str(), timeout)
    }

    fn park(&self, client: HttpClient) {
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        if pool.len() < POOL_PER_BACKEND {
            pool.push(client);
        }
    }
}

/// The front-end handler. Construct with [`Router::new`], hand it to
/// [`crate::server::Server::start`], and (optionally) spawn the health
/// thread with [`Router::spawn_health_thread`].
pub struct Router {
    backends: Vec<Arc<Backend>>,
    config: RouterConfig,
    /// Millisecond-clock base for breaker timing.
    epoch: Instant,
    /// Round-robin cursor.
    next: AtomicUsize,
    /// Health-poll sequence number (seeds deterministic probe-span ids).
    polls: AtomicU64,
    stop: Arc<AtomicBool>,
}

impl Router {
    /// Builds a router over `config.backends` (must be non-empty).
    pub fn new(config: RouterConfig) -> Result<Arc<Router>, String> {
        if config.backends.is_empty() {
            return Err("router needs at least one backend".into());
        }
        let backends = config
            .backends
            .iter()
            .enumerate()
            .map(|(i, addr)| Arc::new(Backend::new(addr.clone(), &config, i)))
            .collect();
        privim_obs::gauge("router.backends").set(config.backends.len() as f64);
        // The router always keeps the in-memory span ring armed: its
        // `/debug/spans` and `/debug/tier-trace` are operational
        // surfaces, available without any export flag.
        privim_obs::arm_span_ring("router");
        Ok(Arc::new(Router {
            backends,
            config,
            epoch: Instant::now(),
            next: AtomicUsize::new(0),
            polls: AtomicU64::new(0),
            stop: Arc::new(AtomicBool::new(false)),
        }))
    }

    /// The shared stop flag; setting it ends the health thread.
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Spawns the health thread: every `health_interval` it polls each
    /// backend's `/readyz`, pulls the checkpoint digest from `/version`,
    /// and pulls replicas that disagree with the majority digest out of
    /// rotation. Runs until [`Router::stop_flag`] is set.
    pub fn spawn_health_thread(self: &Arc<Router>) -> std::thread::JoinHandle<()> {
        let router = Arc::clone(self);
        std::thread::Builder::new()
            .name("router-health".into())
            .spawn(move || {
                while !router.stop.load(Ordering::SeqCst) {
                    router.poll_backends_once();
                    let mut slept = Duration::ZERO;
                    // Sleep in slices so shutdown is prompt.
                    while slept < router.config.health_interval
                        && !router.stop.load(Ordering::SeqCst)
                    {
                        let slice = Duration::from_millis(50);
                        std::thread::sleep(slice);
                        slept += slice;
                    }
                }
            })
            .expect("spawn router-health")
    }

    /// One health-check sweep (public so tests and the CLI can force a
    /// poll without waiting out the interval).
    pub fn poll_backends_once(&self) {
        let timeout = Duration::from_millis(500).min(self.config.timeout);
        let poll_n = self.polls.fetch_add(1, Ordering::Relaxed);
        let mut digests: Vec<Option<String>> = Vec::with_capacity(self.backends.len());
        for backend in &self.backends {
            let probe_started = Instant::now();
            let probe_start_us = privim_obs::now_micros();
            let mut probe_ok = false;
            let mut digest = None;
            if let Ok(mut client) = HttpClient::with_timeout(backend.addr.as_str(), timeout) {
                probe_ok = client
                    .get("/readyz")
                    .map(|r| r.status == 200)
                    .unwrap_or(false);
                if probe_ok {
                    if let Ok(resp) = client.get("/version") {
                        if resp.status == 200 {
                            digest = extract_checkpoint_digest(&resp.body);
                        }
                    }
                }
            }
            if privim_obs::span_export_armed() {
                // Probes have no request to parent under; each poll of
                // each backend gets its own deterministic root trace.
                let ctx = TraceContext::from_request_id(&format!(
                    "probe-{}-{}-{}",
                    self.config.seed, poll_n, backend.addr
                ));
                privim_obs::export_finished_span(
                    "router.health_probe",
                    &ctx,
                    probe_start_us,
                    probe_started.elapsed().as_micros() as u64,
                    vec![
                        ("backend".into(), backend.addr.clone()),
                        ("ok".into(), probe_ok.to_string()),
                    ],
                );
            }
            // One flaky probe (the probe shares the traffic network, so
            // it fails under the same chaos) must not pull a replica:
            // only `probe_down_after` consecutive failures do.
            let healthy = if probe_ok {
                backend.probe_failures.store(0, Ordering::SeqCst);
                true
            } else {
                let misses = backend.probe_failures.fetch_add(1, Ordering::SeqCst) + 1;
                misses < self.config.probe_down_after.max(1)
                    && backend.healthy.load(Ordering::SeqCst)
            };
            let was = backend.healthy.swap(healthy, Ordering::SeqCst);
            if was != healthy {
                privim_obs::counter(if healthy {
                    "router.backend_up"
                } else {
                    "router.backend_down"
                })
                .add(1);
                privim_obs::info!(
                    "router",
                    "backend_health",
                    backend = backend.addr.clone(),
                    healthy = healthy,
                );
            }
            if probe_ok {
                *backend.digest.lock().unwrap_or_else(|e| e.into_inner()) = digest.clone();
            }
            digests.push(if probe_ok { digest } else { None });
        }

        // Digest agreement: majority among healthy backends that report
        // one (ties break toward the lowest backend index). Unknown
        // digests never disqualify — a replica without /version (or one
        // we could not parse) is judged by /readyz alone.
        let majority = majority_digest(&digests);
        let mut healthy_count = 0u64;
        for (backend, digest) in self.backends.iter().zip(&digests) {
            let agrees = match (&majority, digest) {
                (Some(m), Some(d)) => m == d,
                _ => true,
            };
            let did = backend.digest_ok.swap(agrees, Ordering::SeqCst);
            if did != agrees {
                privim_obs::counter("router.digest_disagreements").add(1);
                privim_obs::warn!(
                    "router",
                    "digest_agreement",
                    backend = backend.addr.clone(),
                    agrees = agrees,
                    digest = digest.clone().unwrap_or_default(),
                    majority = majority.clone().unwrap_or_default(),
                );
            }
            if backend.routable() {
                healthy_count += 1;
            }
        }
        privim_obs::gauge("router.backends_healthy").set(healthy_count as f64);
    }

    /// Picks the next routable backend starting at `cursor`, skipping
    /// unhealthy/disagreeing replicas and open breakers, and excluding
    /// `avoid` (the hedge's primary). The winning pick consumes the
    /// breaker's half-open probe slot when one is due. When health
    /// verdicts disqualify every replica at once, they are ignored
    /// (fail-open) and only the breakers gate the pick.
    fn pick(&self, cursor: usize, avoid: Option<usize>) -> Option<(usize, Arc<Backend>)> {
        let n = self.backends.len();
        let now = self.now_ms();
        // Fail-open (panic routing): when *every* replica is marked
        // unroutable, the health verdicts themselves are the likeliest
        // casualty (probes ride the same network as traffic), so ignore
        // them and let the per-replica breakers arbitrate instead.
        let panic_mode = self.backends.iter().all(|b| !b.routable());
        if panic_mode {
            privim_obs::counter("router.panic_picks").add(1);
        }
        for step in 0..n {
            let idx = (cursor + step) % n;
            if Some(idx) == avoid {
                continue;
            }
            let backend = &self.backends[idx];
            if !panic_mode && !backend.routable() {
                continue;
            }
            let allowed = {
                let mut breaker = backend.breaker.lock().unwrap_or_else(|e| e.into_inner());
                let before = breaker.state();
                let allowed = breaker.allow(now);
                if allowed && before == BreakerState::Open {
                    privim_obs::counter("router.breaker_probes").add(1);
                    privim_obs::info!(
                        "router",
                        "breaker_half_open",
                        backend = backend.addr.clone(),
                    );
                }
                allowed
            };
            if allowed {
                return Some((idx, Arc::clone(backend)));
            }
        }
        None
    }

    fn record_outcome(&self, backend: &Backend, ok: bool) {
        let mut breaker = backend.breaker.lock().unwrap_or_else(|e| e.into_inner());
        let before = breaker.state();
        if ok {
            breaker.record_success();
            if before != BreakerState::Closed {
                privim_obs::counter("router.breaker_closes").add(1);
                privim_obs::info!("router", "breaker_closed", backend = backend.addr.clone());
                export_breaker_span(&backend.addr, "closed", breaker.trips());
            }
        } else {
            breaker.record_failure(self.now_ms());
            if breaker.state() == BreakerState::Open && before != BreakerState::Open {
                privim_obs::counter("router.breaker_trips").add(1);
                privim_obs::warn!(
                    "router",
                    "breaker_tripped",
                    backend = backend.addr.clone(),
                    trips = breaker.trips(),
                );
                export_breaker_span(&backend.addr, "open", breaker.trips());
            }
        }
    }

    /// Forwards one request with bounded retry; hedges eligible routes.
    ///
    /// Every attempt gets a span whose id is a pure function of the
    /// request's trace root and the attempt number, so the tier-wide
    /// trace tree reassembles identically across processes and reruns.
    fn forward(&self, req: &Request) -> Response {
        privim_obs::counter("router.requests").add(1);
        // The server installed the request's trace context before
        // dispatching to us; fall back to deriving it from the id so
        // attempt spans stay parented even outside a server.
        let root =
            privim_obs::current_trace().unwrap_or_else(|| match req.header("x-request-id") {
                Some(id) => TraceContext::from_request_id(id),
                None => TraceContext::from_seed(0),
            });
        let cursor = self.next.fetch_add(1, Ordering::Relaxed);
        let attempts = self.config.retries as usize + 1;
        let mut last_error = String::new();
        let mut backoff_ms = 0u64;
        for attempt in 0..attempts {
            if attempt > 0 {
                // Deterministic exponential backoff: base * 2^(attempt-1).
                let delay = self.config.backoff * (1u32 << (attempt - 1).min(16));
                backoff_ms = delay.as_millis() as u64;
                privim_obs::histogram("router.hop.backoff").record(delay.as_secs_f64());
                std::thread::sleep(delay);
                privim_obs::counter("router.retries").add(1);
                privim_obs::info!(
                    "router",
                    "retry",
                    attempt = attempt as u64,
                    route = req.route().to_string(),
                    error = last_error.clone(),
                );
            }
            let Some((idx, backend)) = self.pick(cursor + attempt, None) else {
                privim_obs::counter("router.no_backend").add(1);
                last_error = "no routable backend".into();
                continue;
            };
            match self.attempt(idx, backend, req, root, attempt as u64 + 1, backoff_ms) {
                Ok(resp) => return resp,
                Err(err) => last_error = err,
            }
        }
        privim_obs::counter("router.exhausted").add(1);
        privim_obs::warn!(
            "router",
            "retries_exhausted",
            route = req.route().to_string(),
            error = last_error.clone(),
        );
        Response::unavailable(&format!("all backends failed: {last_error}"))
    }

    /// One attempt: plain single-backend send, or a hedged race for
    /// eligible routes. Breaker bookkeeping happens per backend inside.
    ///
    /// `attempt_no` is 1-based; the attempt span's id is
    /// `root.child_n(CHILD_ATTEMPT_BASE + attempt_no)` and a hedge leg's
    /// is `root.child_n(CHILD_HEDGE_BASE + attempt_no)` — pure functions
    /// of the request id, asserted exactly by tests.
    fn attempt(
        &self,
        idx: usize,
        backend: Arc<Backend>,
        req: &Request,
        root: TraceContext,
        attempt_no: u64,
        backoff_ms: u64,
    ) -> Result<Response, String> {
        let attempt_ctx = root.child_n(CHILD_ATTEMPT_BASE + attempt_no);
        let hedge_after = match self.config.hedge_after {
            // Hedging is restricted to /v1/spread: its responses are
            // byte-identical across replicas on the same digest, so the
            // duplicate can never disagree with the original.
            Some(d) if req.route() == "/v1/spread" => Some(d),
            _ => None,
        };
        let Some(hedge_after) = hedge_after else {
            let started = Instant::now();
            let start_us = privim_obs::now_micros();
            let outcome = send_once(&backend, req, self.config.timeout, Some(&attempt_ctx));
            let elapsed = started.elapsed();
            privim_obs::histogram("router.hop.upstream").record(elapsed.as_secs_f64());
            self.record_outcome(&backend, outcome.is_ok());
            export_attempt_span(
                &attempt_ctx,
                start_us,
                elapsed,
                attempt_no,
                &backend.addr,
                backoff_ms,
                false,
                outcome.is_ok(),
                false,
            );
            return outcome;
        };

        /// One racing leg of a hedged attempt: which backend, which span,
        /// and when it launched (for its span duration).
        struct Leg {
            idx: usize,
            backend: Arc<Backend>,
            ctx: TraceContext,
            started: Instant,
            start_us: u64,
            hedge: bool,
        }
        let (tx, rx) = std::sync::mpsc::channel::<(usize, Result<Response, String>)>();
        let spawn_leg = |leg: &Leg, tx: std::sync::mpsc::Sender<_>| {
            let req = req.clone();
            let timeout = self.config.timeout;
            let leg_backend = Arc::clone(&leg.backend);
            let leg_idx = leg.idx;
            let ctx = leg.ctx;
            std::thread::spawn(move || {
                let outcome = send_once(&leg_backend, &req, timeout, Some(&ctx));
                let _ = tx.send((leg_idx, outcome));
            });
        };
        let primary = Leg {
            idx,
            backend,
            ctx: attempt_ctx,
            started: Instant::now(),
            start_us: privim_obs::now_micros(),
            hedge: false,
        };
        spawn_leg(&primary, tx.clone());
        let mut legs: Vec<Leg> = vec![primary];
        let first = match rx.recv_timeout(hedge_after) {
            Ok(result) => Some(result),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                // Primary is slow: race a second replica if one exists.
                if let Some((h_idx, hedge)) = self.pick(idx + 1, Some(idx)) {
                    privim_obs::counter("router.hedges").add(1);
                    privim_obs::info!(
                        "router",
                        "hedge_launched",
                        primary = legs[0].backend.addr.clone(),
                        hedge = hedge.addr.clone(),
                    );
                    let leg = Leg {
                        idx: h_idx,
                        backend: hedge,
                        ctx: root.child_n(CHILD_HEDGE_BASE + attempt_no),
                        started: Instant::now(),
                        start_us: privim_obs::now_micros(),
                        hedge: true,
                    };
                    spawn_leg(&leg, tx.clone());
                    legs.push(leg);
                }
                None
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => None,
        };
        drop(tx);
        let mut received: Vec<(usize, Result<Response, String>)> = first.into_iter().collect();
        // First Ok wins; a leg's error only surfaces when every leg fails.
        loop {
            if let Some(pos) = received.iter().position(|(_, r)| r.is_ok()) {
                let (leg_idx, result) = received.swap_remove(pos);
                // Only the winner's verdict feeds a breaker here; the
                // losing leg keeps running detached and settles its own
                // breaker on the next attempt that touches it.
                if let Some(winner) = legs.iter().find(|l| l.idx == leg_idx) {
                    self.record_outcome(&winner.backend, true);
                    privim_obs::histogram("router.hop.upstream")
                        .record(winner.started.elapsed().as_secs_f64());
                }
                if legs.len() > 1 && leg_idx == legs[1].idx {
                    privim_obs::counter("router.hedge_wins").add(1);
                    privim_obs::info!(
                        "router",
                        "hedge_won",
                        backend = legs[1].backend.addr.clone(),
                    );
                }
                // Resolution closes every leg's span: the winner as-is,
                // the losing leg marked cancelled (its answer, should it
                // ever land, is discarded by construction).
                for leg in &legs {
                    let won = leg.idx == leg_idx;
                    export_attempt_span(
                        &leg.ctx,
                        leg.start_us,
                        leg.started.elapsed(),
                        attempt_no,
                        &leg.backend.addr,
                        if leg.hedge { 0 } else { backoff_ms },
                        leg.hedge,
                        won,
                        !won,
                    );
                }
                return result;
            }
            if received.len() == legs.len() {
                // Every leg failed: settle breakers and report the first.
                for leg in &legs {
                    self.record_outcome(&leg.backend, false);
                    privim_obs::histogram("router.hop.upstream")
                        .record(leg.started.elapsed().as_secs_f64());
                    export_attempt_span(
                        &leg.ctx,
                        leg.start_us,
                        leg.started.elapsed(),
                        attempt_no,
                        &leg.backend.addr,
                        if leg.hedge { 0 } else { backoff_ms },
                        leg.hedge,
                        false,
                        false,
                    );
                }
                let (_, first_err) = received.swap_remove(0);
                return first_err;
            }
            match rx.recv_timeout(self.config.timeout) {
                Ok(result) => received.push(result),
                Err(_) => {
                    for leg in &legs {
                        self.record_outcome(&leg.backend, false);
                        export_attempt_span(
                            &leg.ctx,
                            leg.start_us,
                            leg.started.elapsed(),
                            attempt_no,
                            &leg.backend.addr,
                            if leg.hedge { 0 } else { backoff_ms },
                            leg.hedge,
                            false,
                            false,
                        );
                    }
                    return Err("hedged request timed out on every leg".into());
                }
            }
        }
    }

    /// Assembles the tier-wide trace view for `GET /debug/tier-trace`:
    /// the router's own span ring merged with every backend's
    /// `/debug/spans`, rendered as per-request trees with the per-hop
    /// latency decomposition. `?request_id=` (or `?trace=` with a raw
    /// 32-hex trace id) narrows the view to one request.
    fn tier_trace(&self, req: &Request) -> Response {
        let mut records = privim_obs::exported_spans();
        let timeout = Duration::from_millis(500).min(self.config.timeout);
        for backend in &self.backends {
            // A fresh connection, not the pool: debug fan-out must not
            // steal keep-alive sockets from the serving path.
            if let Ok(mut client) = HttpClient::with_timeout(backend.addr.as_str(), timeout) {
                if let Ok(resp) = client.get("/debug/spans") {
                    if resp.status == 200 {
                        if let Ok(text) = String::from_utf8(resp.body) {
                            records.extend(privim_obs::parse_spans_jsonl(&text));
                        }
                    }
                }
            }
        }
        let filter = query_param(&req.path, "request_id")
            .map(|id| TraceContext::from_request_id(&id).trace_id)
            .or_else(|| {
                query_param(&req.path, "trace").and_then(|t| u128::from_str_radix(&t, 16).ok())
            });
        Response::text(200, privim_obs::render_tier_traces(&records, filter))
    }

    /// Deterministic JSON for `GET /router/backends`.
    fn backends_status(&self) -> String {
        let backends = self.backends.iter().map(|backend| {
            let breaker = backend.breaker.lock().unwrap_or_else(|e| e.into_inner());
            let digest = backend.digest.lock().unwrap_or_else(|e| e.into_inner());
            object([
                ("addr", backend.addr.to_json_value()),
                (
                    "healthy",
                    backend.healthy.load(Ordering::SeqCst).to_json_value(),
                ),
                (
                    "digest_agrees",
                    backend.digest_ok.load(Ordering::SeqCst).to_json_value(),
                ),
                ("breaker", breaker.state().as_str().to_json_value()),
                ("trips", breaker.trips().to_json_value()),
                (
                    "digest",
                    digest.as_deref().unwrap_or_default().to_json_value(),
                ),
            ])
        });
        object([("backends", JsonValue::Arr(backends.collect()))]).to_json()
    }
}

/// Exports one `router.attempt` span (no-op unless span export is armed).
/// A hedge leg carries `hedge=true` instead of a backoff annotation; the
/// losing leg of a resolved race is marked `cancelled=true` and excluded
/// from latency decomposition.
#[allow(clippy::too_many_arguments)]
fn export_attempt_span(
    ctx: &TraceContext,
    start_us: u64,
    elapsed: Duration,
    attempt_no: u64,
    backend: &str,
    backoff_ms: u64,
    hedge: bool,
    ok: bool,
    cancelled: bool,
) {
    if !privim_obs::span_export_armed() {
        return;
    }
    let outcome = if cancelled {
        "cancelled"
    } else if ok {
        "ok"
    } else {
        "error"
    };
    let mut annotations = vec![
        ("attempt".to_string(), attempt_no.to_string()),
        ("backend".to_string(), backend.to_string()),
        ("outcome".to_string(), outcome.to_string()),
    ];
    if hedge {
        annotations.push(("hedge".to_string(), "true".to_string()));
    } else {
        annotations.push(("backoff_ms".to_string(), backoff_ms.to_string()));
    }
    if cancelled {
        annotations.push(("cancelled".to_string(), "true".to_string()));
    }
    privim_obs::export_finished_span(
        "router.attempt",
        ctx,
        start_us,
        elapsed.as_micros() as u64,
        annotations,
    );
}

/// Exports a zero-duration `router.breaker` marker span for a breaker
/// state transition. Transitions happen outside any one request, so the
/// span roots its own trace, derived from (backend, trip count,
/// transition) — identical across reruns of the same failure sequence.
fn export_breaker_span(addr: &str, transition: &str, trips: u64) {
    if !privim_obs::span_export_armed() {
        return;
    }
    let ctx = TraceContext::from_request_id(&format!("breaker-{addr}-{trips}-{transition}"));
    privim_obs::export_finished_span(
        "router.breaker",
        &ctx,
        privim_obs::now_micros(),
        0,
        vec![
            ("backend".to_string(), addr.to_string()),
            ("transition".to_string(), transition.to_string()),
            ("trips".to_string(), trips.to_string()),
        ],
    );
}

/// Sends `req` to one backend and converts the reply. 503s and transport
/// errors are attempt failures (the retriable class); every other status
/// — including 4xx and 500 — is a final answer to relay as-is.
fn send_once(
    backend: &Backend,
    req: &Request,
    timeout: Duration,
    trace: Option<&TraceContext>,
) -> Result<Response, String> {
    let mut client = backend
        .client(timeout)
        .map_err(|e| format!("{}: connect: {e}", backend.addr))?;
    // Forward the request id so logs correlate across the two tiers, and
    // the attempt's trace context so the replica's request span parents
    // under this attempt (see `privim_obs::trace`).
    let trace_header = trace.map(|t| t.to_trace_header());
    let mut headers: Vec<(&str, &str)> = Vec::new();
    if let Some(id) = req.header("x-request-id") {
        headers.push(("X-Request-Id", id));
    }
    if let Some(value) = trace_header.as_deref() {
        headers.push(("X-Privim-Trace", value));
    }
    let body = if req.method == Method::Post {
        Some(req.body.as_slice())
    } else {
        None
    };
    let outcome = client.request_with_headers(&req.method.to_string(), &req.path, &headers, body);
    match outcome {
        Ok(resp) if resp.status == 503 => Err(format!("{}: backend said 503", backend.addr)),
        Ok(resp) => {
            let mut out = Response {
                status: resp.status,
                headers: Vec::new(),
                body: resp.body.clone(),
            };
            for (name, value) in &resp.headers {
                // Hop-by-hop and framing headers are re-derived by our
                // own writer, and the server layer stamps its own
                // X-Request-Id echo; everything else passes through.
                if name != "connection" && name != "content-length" && name != "x-request-id" {
                    out.headers.push((canonical_header(name), value.clone()));
                }
            }
            backend.park(client);
            Ok(out)
        }
        Err(e) => Err(format!("{}: {e}", backend.addr)),
    }
}

/// Extracts a (non-empty) query parameter value from a request path.
/// No percent-decoding: the values this router accepts (request ids,
/// hex trace ids) are plain tokens by construction.
fn query_param(path: &str, key: &str) -> Option<String> {
    let (_, query) = path.split_once('?')?;
    for pair in query.split('&') {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        if k == key && !v.is_empty() {
            return Some(v.to_string());
        }
    }
    None
}

/// Restores canonical casing for the header names our stack emits (the
/// client lower-cases on parse; responses should leave the router the
/// same way they left the replica).
fn canonical_header(lower: &str) -> String {
    let mut out = String::with_capacity(lower.len());
    let mut upper_next = true;
    for c in lower.chars() {
        if upper_next && c.is_ascii_alphabetic() {
            out.push(c.to_ascii_uppercase());
            upper_next = false;
        } else {
            out.push(c);
        }
        if c == '-' {
            upper_next = true;
        }
    }
    out
}

/// The hex `checkpoint_digest` of a `/version` body, if it has one.
pub fn extract_checkpoint_digest(body: &[u8]) -> Option<String> {
    let value = privim_obs::json::parse(std::str::from_utf8(body).ok()?).ok()?;
    let digest = value.get("checkpoint_digest")?.as_str()?;
    let hex = !digest.is_empty() && digest.bytes().all(|b| b.is_ascii_hexdigit());
    hex.then(|| digest.to_string())
}

/// Majority digest among reporting backends; ties break toward the
/// digest seen at the lowest backend index.
fn majority_digest(digests: &[Option<String>]) -> Option<String> {
    let mut best: Option<(&String, usize)> = None;
    for digest in digests.iter().flatten() {
        let count = digests
            .iter()
            .flatten()
            .filter(|other| *other == digest)
            .count();
        match best {
            Some((_, best_count)) if best_count >= count => {}
            _ => best = Some((digest, count)),
        }
    }
    best.map(|(d, _)| d.clone())
}

impl Handler for Router {
    fn handle(&self, req: &Request) -> Response {
        match (&req.method, req.route()) {
            // The router's own operational surface; everything else is
            // the replicas' business and is forwarded verbatim.
            (Method::Get, "/healthz") => Response::text(200, "ok\n"),
            (Method::Get, "/metrics") => {
                let text = privim_obs::render_prometheus_with_profile(
                    &privim_obs::snapshot(),
                    &privim_obs::profile_report(),
                );
                Response::new(
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    text.into_bytes(),
                )
            }
            (Method::Get, "/router/backends") => {
                Response::json(200, self.backends_status().into_bytes())
            }
            (Method::Get, "/debug/spans") => Response::text(200, privim_obs::spans_jsonl()),
            (Method::Get, "/debug/tier-trace") => self.tier_trace(req),
            _ => self.forward(req),
        }
    }

    fn route_label(&self, req: &Request) -> &'static str {
        match req.route() {
            "/healthz" => "healthz",
            "/version" => "version",
            "/metrics" => "metrics",
            "/slo" => "slo",
            "/v1/seeds" => "seeds",
            "/v1/spread" => "spread",
            "/router/backends" => "router",
            "/debug/spans" | "/debug/tier-trace" => "debug",
            _ => "other",
        }
    }

    /// Queue wait measured by the front server feeds the router's hop
    /// decomposition histograms.
    fn on_queue_wait(&self, wait: Duration) {
        privim_obs::histogram("router.hop.queue_wait").record(wait.as_secs_f64());
    }

    /// Ready while at least one backend is routable — the tier can
    /// answer something.
    fn ready(&self) -> bool {
        self.backends.iter().any(|b| b.routable())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};

    #[test]
    fn breaker_trips_after_threshold_and_probes_after_cooldown() {
        let mut breaker = CircuitBreaker::new(3, 1_000, 7);
        assert!(breaker.allow(0));
        breaker.record_failure(0);
        breaker.record_failure(1);
        assert_eq!(breaker.state(), BreakerState::Closed, "two of three");
        assert!(breaker.allow(2));
        breaker.record_failure(2);
        assert_eq!(breaker.state(), BreakerState::Open, "third failure trips");
        assert!(!breaker.allow(3), "open fails fast");
        assert!(!breaker.allow(1_000), "still inside cooldown + jitter");
        // The jittered reopen time is deterministic: find it by probing.
        let reopen = (1_000..=1_260).find(|&t| {
            let mut b = CircuitBreaker::new(3, 1_000, 7);
            b.record_failure(0);
            b.record_failure(1);
            b.record_failure(2);
            b.allow(t)
        });
        let reopen = reopen.expect("jitter is bounded by cooldown/4 (plus trip base at t=2)");
        assert!(breaker.allow(reopen + 2), "probe admitted at reopen time");
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        assert!(!breaker.allow(reopen + 2), "only one probe in flight");
        breaker.record_success();
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert!(breaker.allow(reopen + 3));
    }

    #[test]
    fn half_open_probe_failure_reopens_with_new_jitter() {
        let mut a = CircuitBreaker::new(1, 100, 42);
        let mut b = CircuitBreaker::new(1, 100, 42);
        a.record_failure(0);
        b.record_failure(0);
        assert_eq!(a.state(), BreakerState::Open);
        // Same seed ⇒ identical jitter sequences (deterministic).
        for t in 0..2_000 {
            assert_eq!(a.allow(t), b.allow(t), "diverged at t={t}");
            if a.state() == BreakerState::HalfOpen {
                a.record_failure(t);
                b.record_failure(t);
                assert_eq!(a.state(), BreakerState::Open, "probe failure reopens");
            }
        }
        assert!(a.trips() > 1, "probe failures re-tripped the breaker");
    }

    #[test]
    fn digest_extraction_and_majority() {
        let body = br#"{"name":"privim-serve","checkpoint_digest":"00c0ffee","graph_nodes":9}"#;
        assert_eq!(
            extract_checkpoint_digest(body),
            Some("00c0ffee".to_string())
        );
        assert_eq!(extract_checkpoint_digest(b"{}"), None);
        assert_eq!(
            extract_checkpoint_digest(br#"{"checkpoint_digest":"not hex!"}"#),
            None
        );
        let digests = vec![
            Some("aa".to_string()),
            Some("bb".to_string()),
            Some("bb".to_string()),
            None,
        ];
        assert_eq!(majority_digest(&digests), Some("bb".to_string()));
        assert_eq!(
            majority_digest(&[Some("aa".to_string()), Some("bb".to_string())]),
            Some("aa".to_string()),
            "ties break toward the lowest index"
        );
        assert_eq!(majority_digest(&[None, None]), None);
    }

    #[test]
    fn canonical_header_restores_casing() {
        assert_eq!(canonical_header("content-type"), "Content-Type");
        assert_eq!(canonical_header("x-request-id"), "X-Request-Id");
        assert_eq!(canonical_header("retry-after"), "Retry-After");
    }

    fn start_backend(tag: &'static str) -> Server {
        let handler = move |req: &Request| match req.route() {
            "/v1/spread" => {
                // Deterministic body independent of which replica
                // answers — the property hedging relies on.
                Response::json(200, b"{\"spread\":1.0,\"tag\":\"common\"}".to_vec())
            }
            "/tag" => Response::text(200, tag),
            _ => Response::json(200, req.body.clone()),
        };
        Server::start(
            ServerConfig {
                workers: 2,
                queue_depth: 16,
                ..ServerConfig::default()
            },
            Arc::new(handler),
        )
        .expect("bind backend")
    }

    fn router_over(backends: Vec<String>, config: RouterConfig) -> (Arc<Router>, Server) {
        let router = Router::new(RouterConfig { backends, ..config }).unwrap();
        let server = Server::start(
            ServerConfig {
                workers: 2,
                queue_depth: 16,
                ..ServerConfig::default()
            },
            Arc::clone(&router) as Arc<dyn Handler>,
        )
        .expect("bind router");
        (router, server)
    }

    #[test]
    fn all_backends_marked_down_fails_open_through_the_breakers() {
        // Replicas whose /readyz always says not-ready (handler reports
        // unready) but which serve traffic fine: after enough probe
        // misses both are marked unhealthy — yet the router must keep
        // routing (fail-open) rather than 503 a healthy tier.
        struct Unready;
        impl Handler for Unready {
            fn handle(&self, _req: &Request) -> Response {
                Response::text(200, "pong")
            }
            fn ready(&self) -> bool {
                false
            }
        }
        let a = Server::start(
            ServerConfig {
                workers: 1,
                queue_depth: 8,
                ..ServerConfig::default()
            },
            Arc::new(Unready),
        )
        .unwrap();
        let b = Server::start(
            ServerConfig {
                workers: 1,
                queue_depth: 8,
                ..ServerConfig::default()
            },
            Arc::new(Unready),
        )
        .unwrap();
        let (router, front) = router_over(
            vec![a.local_addr().to_string(), b.local_addr().to_string()],
            RouterConfig {
                retries: 1,
                ..RouterConfig::default()
            },
        );
        router.poll_backends_once();
        router.poll_backends_once();
        let mut client = HttpClient::connect(front.local_addr()).unwrap();
        let status = client.get("/router/backends").unwrap();
        let text = String::from_utf8(status.body).unwrap();
        assert!(
            !text.contains("\"healthy\":true"),
            "both replicas should be marked down: {text}"
        );
        let before = privim_obs::counter("router.panic_picks").get();
        let resp = client.get("/tag").unwrap();
        assert_eq!(resp.status, 200, "fail-open must keep serving");
        assert_eq!(resp.body, b"pong");
        assert!(
            privim_obs::counter("router.panic_picks").get() > before,
            "the fail-open path should be counted"
        );
        front.shutdown();
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn routes_round_robin_and_fails_over_when_a_backend_dies() {
        let a = start_backend("a");
        let b = start_backend("b");
        let addr_a = a.local_addr().to_string();
        let addr_b = b.local_addr().to_string();
        let (_router, front) = router_over(
            vec![addr_a, addr_b],
            RouterConfig {
                retries: 3,
                backoff: Duration::from_millis(5),
                breaker_failures: 2,
                breaker_cooldown: Duration::from_millis(200),
                timeout: Duration::from_secs(2),
                ..RouterConfig::default()
            },
        );
        let mut client = HttpClient::connect(front.local_addr()).unwrap();
        // Both replicas answer while healthy.
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..6 {
            let resp = client.get("/tag").unwrap();
            assert_eq!(resp.status, 200);
            seen.insert(resp.body.clone());
        }
        assert_eq!(seen.len(), 2, "round-robin reached both replicas");
        // Kill one replica: every request must still succeed via retry.
        a.shutdown();
        for i in 0..10 {
            let resp = client
                .post("/echo", format!("{{\"i\":{i}}}").as_bytes())
                .unwrap_or_else(|e| panic!("request {i} failed across failover: {e}"));
            assert_eq!(resp.status, 200, "request {i}");
        }
        front.shutdown();
        b.shutdown();
    }

    #[test]
    fn router_status_reports_breaker_and_health_state() {
        let b = start_backend("b");
        let addr_b = b.local_addr().to_string();
        // One live backend and one black hole (reserved but unserved).
        let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let dead_addr = dead.local_addr().unwrap().to_string();
        drop(dead);
        let (router, front) = router_over(
            vec![dead_addr.clone(), addr_b],
            RouterConfig {
                retries: 2,
                backoff: Duration::from_millis(1),
                breaker_failures: 1,
                breaker_cooldown: Duration::from_secs(30),
                timeout: Duration::from_millis(500),
                ..RouterConfig::default()
            },
        );
        let mut client = HttpClient::connect(front.local_addr()).unwrap();
        // First request hits the dead backend, trips its breaker, and is
        // retried against the live one.
        assert_eq!(client.get("/tag").unwrap().status, 200);
        let status = client.get("/router/backends").unwrap();
        assert_eq!(status.status, 200);
        let text = String::from_utf8(status.body).unwrap();
        assert!(
            text.contains(&format!("\"addr\":\"{dead_addr}\"")),
            "{text}"
        );
        assert!(text.contains("\"breaker\":\"open\""), "{text}");
        assert!(text.contains("\"breaker\":\"closed\""), "{text}");
        // With the breaker open, requests skip the dead backend: no
        // retry delay, still correct.
        for _ in 0..5 {
            assert_eq!(client.get("/tag").unwrap().status, 200);
        }
        // Health polls mark the dead backend unhealthy once the misses
        // reach `probe_down_after` (one flaky probe is forgiven).
        router.poll_backends_once();
        let text = String::from_utf8(client.get("/router/backends").unwrap().body).unwrap();
        assert!(
            !text.contains("\"healthy\":false"),
            "a single missed probe must not pull the replica: {text}"
        );
        router.poll_backends_once();
        let status = client.get("/router/backends").unwrap();
        let text = String::from_utf8(status.body).unwrap();
        assert!(text.contains("\"healthy\":false"), "{text}");
        assert!(router.ready(), "one live backend keeps the tier ready");
        front.shutdown();
        b.shutdown();
    }

    #[test]
    fn hedging_uses_the_fast_replica_for_spread() {
        // Replica "slow" stalls /v1/spread; replica "fast" answers
        // immediately with the identical body.
        let slow = Server::start(
            ServerConfig {
                workers: 2,
                queue_depth: 16,
                ..ServerConfig::default()
            },
            Arc::new(|req: &Request| {
                if req.route() == "/v1/spread" {
                    std::thread::sleep(Duration::from_millis(400));
                }
                Response::json(200, b"{\"spread\":1.0,\"tag\":\"common\"}".to_vec())
            }),
        )
        .unwrap();
        let fast = start_backend("fast");
        let hedges_before = privim_obs::counter("router.hedges").get();
        let (_router, front) = router_over(
            vec![slow.local_addr().to_string(), fast.local_addr().to_string()],
            RouterConfig {
                retries: 1,
                hedge_after: Some(Duration::from_millis(50)),
                timeout: Duration::from_secs(3),
                ..RouterConfig::default()
            },
        );
        let mut client = HttpClient::connect(front.local_addr()).unwrap();
        let started = Instant::now();
        // The round-robin cursor starts at the slow replica, so the
        // first spread request must be hedged to come back quickly.
        let resp = client.post("/v1/spread", b"{\"seeds\":[1]}").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"{\"spread\":1.0,\"tag\":\"common\"}");
        assert!(
            started.elapsed() < Duration::from_millis(350),
            "hedge should beat the 400 ms replica, took {:?}",
            started.elapsed()
        );
        assert!(
            privim_obs::counter("router.hedges").get() > hedges_before,
            "a hedge was launched"
        );
        front.shutdown();
        slow.shutdown();
        fast.shutdown();
    }

    #[test]
    fn query_param_extraction() {
        assert_eq!(
            query_param("/debug/tier-trace?request_id=abc", "request_id"),
            Some("abc".to_string())
        );
        assert_eq!(
            query_param("/p?a=1&trace=00ff", "trace"),
            Some("00ff".to_string())
        );
        assert_eq!(query_param("/p?trace=", "trace"), None);
        assert_eq!(query_param("/p", "trace"), None);
    }

    #[test]
    fn hedged_spread_exports_exactly_two_attempt_spans() {
        // Slow primary, fast hedge: the race resolves with the hedge leg
        // winning, and the span ring must show exactly one primary
        // attempt span (cancelled) and one hedge span (winner), both
        // parented under the request's root span with ids that are pure
        // functions of the request id.
        let slow = Server::start(
            ServerConfig {
                workers: 2,
                queue_depth: 16,
                ..ServerConfig::default()
            },
            Arc::new(|req: &Request| {
                if req.route() == "/v1/spread" {
                    std::thread::sleep(Duration::from_millis(400));
                }
                Response::json(200, b"{\"spread\":1.0,\"tag\":\"common\"}".to_vec())
            }),
        )
        .unwrap();
        let fast = start_backend("fast");
        let (_router, front) = router_over(
            vec![slow.local_addr().to_string(), fast.local_addr().to_string()],
            RouterConfig {
                retries: 1,
                hedge_after: Some(Duration::from_millis(50)),
                timeout: Duration::from_secs(3),
                ..RouterConfig::default()
            },
        );
        let id = "hedge-span-test-0001";
        let root = TraceContext::from_request_id(id);
        let mut client = HttpClient::connect(front.local_addr()).unwrap();
        let resp = client
            .request_with_headers(
                "POST",
                "/v1/spread",
                &[("X-Request-Id", id)],
                Some(b"{\"seeds\":[1]}"),
            )
            .unwrap();
        assert_eq!(resp.status, 200);
        // The ring is shared across tests in this binary; the unique
        // request id isolates this request's trace.
        let spans: Vec<_> = privim_obs::exported_spans()
            .into_iter()
            .filter(|s| s.trace_id == root.trace_id && s.name == "router.attempt")
            .collect();
        assert_eq!(spans.len(), 2, "primary + hedge leg: {spans:?}");
        for span in &spans {
            assert_eq!(
                span.parent_span_id,
                Some(root.span_id),
                "attempt spans parent under the request root"
            );
        }
        let primary_id = root.child_n(CHILD_ATTEMPT_BASE + 1).span_id;
        let hedge_id = root.child_n(CHILD_HEDGE_BASE + 1).span_id;
        let primary = spans.iter().find(|s| s.span_id == primary_id);
        let hedge = spans.iter().find(|s| s.span_id == hedge_id);
        let primary = primary.expect("primary attempt span has the derived id");
        let hedge = hedge.expect("hedge leg span has the derived id");
        assert_eq!(
            primary.annotation("cancelled"),
            Some("true"),
            "the slow primary loses and is marked cancelled: {primary:?}"
        );
        assert_eq!(hedge.annotation("cancelled"), None, "{hedge:?}");
        assert_eq!(hedge.annotation("outcome"), Some("ok"));
        assert_eq!(hedge.annotation("hedge"), Some("true"));
        front.shutdown();
        slow.shutdown();
        fast.shutdown();
    }

    #[test]
    fn retry_ladder_exports_monotone_backoff_annotations() {
        // Two dead backends ahead of a live one: the request climbs the
        // retry ladder (attempts 1, 2, 3) and each attempt span carries
        // the backoff it waited — 0, base, 2*base.
        let live = start_backend("live");
        let mut dead_addrs = Vec::new();
        for _ in 0..2 {
            let sock = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            dead_addrs.push(sock.local_addr().unwrap().to_string());
            drop(sock);
        }
        let (_router, front) = router_over(
            vec![
                dead_addrs[0].clone(),
                dead_addrs[1].clone(),
                live.local_addr().to_string(),
            ],
            RouterConfig {
                retries: 3,
                backoff: Duration::from_millis(10),
                breaker_failures: 10,
                timeout: Duration::from_millis(500),
                ..RouterConfig::default()
            },
        );
        let id = "retry-ladder-test-0001";
        let root = TraceContext::from_request_id(id);
        let mut client = HttpClient::connect(front.local_addr()).unwrap();
        let resp = client
            .request_with_headers("GET", "/tag", &[("X-Request-Id", id)], None)
            .unwrap();
        assert_eq!(resp.status, 200);
        let mut spans: Vec<_> = privim_obs::exported_spans()
            .into_iter()
            .filter(|s| s.trace_id == root.trace_id && s.name == "router.attempt")
            .collect();
        spans.sort_by_key(|s| s.annotation("attempt").and_then(|a| a.parse::<u64>().ok()));
        assert_eq!(spans.len(), 3, "attempts 1..3: {spans:?}");
        let mut backoffs = Vec::new();
        for (k, span) in spans.iter().enumerate() {
            let attempt_no = k as u64 + 1;
            assert_eq!(
                span.annotation("attempt"),
                Some(attempt_no.to_string().as_str())
            );
            assert_eq!(
                span.span_id,
                root.child_n(CHILD_ATTEMPT_BASE + attempt_no).span_id,
                "attempt {attempt_no} span id is a pure function of the request id"
            );
            backoffs.push(
                span.annotation("backoff_ms")
                    .and_then(|b| b.parse::<u64>().ok())
                    .expect("non-hedge attempts carry backoff_ms"),
            );
        }
        assert_eq!(backoffs, vec![0, 10, 20], "exponential ladder");
        assert_eq!(spans[2].annotation("outcome"), Some("ok"));
        front.shutdown();
        live.shutdown();
    }

    #[test]
    fn tier_trace_endpoint_assembles_router_spans() {
        let live = start_backend("live");
        let (_router, front) = router_over(
            vec![live.local_addr().to_string()],
            RouterConfig {
                retries: 1,
                ..RouterConfig::default()
            },
        );
        let id = "tier-trace-endpoint-test-1";
        let mut client = HttpClient::connect(front.local_addr()).unwrap();
        let resp = client
            .request_with_headers("GET", "/tag", &[("X-Request-Id", id)], None)
            .unwrap();
        assert_eq!(resp.status, 200);
        let trace_hex = format!("{:032x}", TraceContext::from_request_id(id).trace_id);
        let view = client
            .get(&format!("/debug/tier-trace?request_id={id}"))
            .unwrap();
        assert_eq!(view.status, 200);
        let text = String::from_utf8(view.body).unwrap();
        assert!(text.contains(&format!("trace {trace_hex}")), "{text}");
        assert!(text.contains("router.attempt"), "{text}");
        assert!(
            text.contains("connected") && !text.contains("disconnected"),
            "{text}"
        );
        // The raw span feed serves the same records as JSONL.
        let feed = client.get("/debug/spans").unwrap();
        let records = privim_obs::parse_spans_jsonl(&String::from_utf8(feed.body).unwrap());
        assert!(
            records
                .iter()
                .any(|r| r.trace_id == TraceContext::from_request_id(id).trace_id),
            "span feed includes the request's trace"
        );
        front.shutdown();
        live.shutdown();
    }

    #[test]
    fn digest_disagreement_pulls_a_replica_from_rotation() {
        // Two fake replicas reporting different digests: the majority
        // (lowest index on a tie) stays, the other is pulled.
        let mk = |digest: &'static str| {
            Server::start(
                ServerConfig {
                    workers: 1,
                    queue_depth: 8,
                    ..ServerConfig::default()
                },
                Arc::new(move |req: &Request| match req.route() {
                    "/version" => Response::json(
                        200,
                        format!("{{\"checkpoint_digest\":\"{digest}\"}}").into_bytes(),
                    ),
                    _ => Response::text(200, digest),
                }),
            )
            .unwrap()
        };
        let a = mk("aaaa");
        let b = mk("bbbb");
        let (router, front) = router_over(
            vec![a.local_addr().to_string(), b.local_addr().to_string()],
            RouterConfig {
                retries: 1,
                ..RouterConfig::default()
            },
        );
        router.poll_backends_once();
        let mut client = HttpClient::connect(front.local_addr()).unwrap();
        for _ in 0..6 {
            let resp = client.get("/tag").unwrap();
            assert_eq!(resp.body, b"aaaa", "only the majority replica serves");
        }
        let status = client.get("/router/backends").unwrap();
        let text = String::from_utf8(status.body).unwrap();
        assert!(text.contains("\"digest_agrees\":false"), "{text}");
        front.shutdown();
        a.shutdown();
        b.shutdown();
    }
}
