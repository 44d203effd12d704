//! privim-serve: a threaded inference server for influence-maximization
//! queries.
//!
//! The server answers seed-selection and spread-estimation queries from a
//! released model (a PVCK file, see [`privim_core::checkpoint`]) over a
//! public graph. It is built entirely on `std::net` — no async runtime,
//! no HTTP framework:
//!
//! ```text
//!              ┌────────────┐   bounded    ┌──────────────┐
//!  TCP accept ─▶  acceptor  ├──▶ queue ────▶ worker pool   ├──▶ Handler
//!              └────────────┘  (503 when   └──────────────┘   (App)
//!                               full)
//! ```
//!
//! - [`server`] — the acceptor thread, bounded connection queue and fixed
//!   worker pool, with per-request deadlines and graceful shutdown
//!   (stop accepting → drain in-flight → join → flush telemetry).
//! - [`http`] — a minimal, allocation-conscious HTTP/1.1 request parser
//!   and response writer (Content-Length framing, keep-alive).
//! - [`queue`] — the bounded MPMC queue with non-blocking `push` (so the
//!   acceptor can shed load immediately) and blocking `pop`.
//! - [`app`] — the PrivIM application handler: loads a checkpoint plus a
//!   graph, scores every node once, then serves `/v1/seeds`,
//!   `/v1/spread`, `/healthz`, `/version`, `/metrics` and `/slo`.
//! - [`api`] — the JSON request/response types and their determinism
//!   contract.
//! - [`client`] — a small blocking HTTP client used by tests and the
//!   `loadgen` benchmark.
//! - [`router`] — the replicated-tier front-end: health-checked routing
//!   over N replicas with per-replica circuit breakers, bounded retry
//!   with deterministic backoff, and tail-latency hedging for
//!   `/v1/spread`.
//! - [`chaosproxy`] — a deterministic TCP fault-injection proxy (seeded
//!   like `FaultPlan`) that exercises every retry/breaker/hedge path
//!   reproducibly.
//! - [`signal`] — SIGINT/SIGTERM → `AtomicBool` for clean CLI shutdown.
//! - [`slo`] — rolling-window SLO tracking (windowed p99 vs target,
//!   error/shed budget burn) behind `GET /slo`, `serve.slo.*` gauges and
//!   the watchdog rule engine.
//!
//! # Privacy
//!
//! Serving is post-processing: every response is a function of the
//! released checkpoint and the operator-chosen public graph, so queries
//! consume no privacy budget beyond what training already spent. The
//! server never touches training data or per-example statistics.
//!
//! # Determinism
//!
//! Identical `(checkpoint, graph, request)` triples produce byte-identical
//! response bodies: scores are computed once at load time, `/v1/seeds` is
//! a slice of a precomputed ranking, and `/v1/spread` uses the
//! thread-count-invariant [`privim_im::spread::influence_spread_parallel`]
//! with the request-supplied RNG seed.

pub mod api;
pub mod app;
pub mod chaosproxy;
pub mod client;
pub mod http;
pub mod queue;
pub mod router;
pub mod server;
pub mod signal;
pub mod slo;

pub use api::{SeedsRequest, SeedsResponse, SpreadRequest, SpreadResponse, VersionResponse};
pub use app::{load_graph, App, AppConfig};
pub use chaosproxy::{fault_for_conn, ChaosConfig, ChaosProxy, WireFault};
pub use client::{ClientResponse, HttpClient};
pub use http::{HttpError, Method, Request, Response, RETRY_AFTER_SECS};
pub use queue::{Bounded, PushError};
pub use router::{BreakerState, CircuitBreaker, Router, RouterConfig};
pub use server::{Handler, ReadyGate, Server, ServerConfig};
pub use signal::{install_shutdown_handler, shutdown_requested, trip_shutdown};
pub use slo::{SloConfig, SloSnapshot, SloTracker};
