//! loadgen — closed-loop load generator for the `privim-serve` inference
//! server.
//!
//! Starts an in-process server over a synthetic Email-replica fixture
//! (or targets an external `--addr`), drives it with `--clients`
//! closed-loop clients alternating `/v1/seeds` and `/v1/spread`
//! requests, and — unless `--no-shutdown` — requests a graceful
//! shutdown halfway through to verify that no in-flight request is
//! dropped while the server drains.
//!
//! Prints per-route throughput and latency percentiles, optionally
//! writing them as a `{seed, rows, telemetry}` JSON envelope via
//! `--json`. Exits 1 if any request was dropped (no response on an
//! established connection outside the shutdown window).
//!
//! `--rate <rps>` switches to *open-loop* arrivals: requests are
//! scheduled on a global clock at the offered rate regardless of how
//! fast responses come back, the way real traffic behaves. In that mode
//! 503s are never retried — shed load is the measurement, not a hiccup —
//! and the summary reports offered vs achieved throughput, the shed
//! rate, and tail (p999) latency.
//!
//! `--retries <n>` gives each closed-loop request a retry budget for
//! transport errors and 503s, backing off `--backoff-ms * 2^(k-1)`
//! between attempts; the envelope reports retried-vs-failed counts per
//! route. The default budget is zero, so the strict zero-drop exit gate
//! is unchanged unless retries are explicitly enabled.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use privim_bench::{print_table, write_json_seeded};
use privim_core::checkpoint::{CheckpointStore, TrainCheckpoint};
use privim_datasets::paper::Dataset;
use privim_graph::io;
use privim_nn::models::{build_model, ModelKind};
use privim_nn::optim::{Optimizer, Sgd};
use privim_nn::serialize::Checkpoint;
use privim_obs::json::{JsonValue, ToJson};
use privim_serve::{App, AppConfig, HttpClient, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Debug, Clone)]
struct Opts {
    clients: usize,
    requests: usize,
    workers: usize,
    queue_depth: usize,
    scale: f64,
    seed: u64,
    trials: usize,
    json: Option<String>,
    addr: Option<String>,
    no_shutdown: bool,
    /// Open-loop offered rate in requests/second (`None` = closed loop).
    rate: Option<f64>,
    /// Closed-loop retry budget per request (`--retries`): extra attempts
    /// on transport errors and 503s. Zero (the default) keeps the strict
    /// zero-drop gate — any transport error is a dropped request. Open
    /// loop never retries: shed load is the measurement there.
    retries: usize,
    /// Base for the deterministic exponential backoff between retry
    /// attempts (`--backoff-ms`): attempt k sleeps `backoff * 2^(k-1)`.
    backoff_ms: u64,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            clients: 8,
            requests: 50,
            workers: 4,
            queue_depth: 64,
            scale: 0.15,
            seed: 42,
            trials: 200,
            json: None,
            addr: None,
            no_shutdown: false,
            rate: None,
            retries: 0,
            backoff_ms: 50,
        }
    }
}

const USAGE: &str = "usage: loadgen [--clients n] [--requests n] [--workers n] \
                     [--queue-depth n] [--scale f] [--seed u] [--trials n] \
                     [--rate rps] [--retries n] [--backoff-ms n] [--json path] \
                     [--addr host:port] [--no-shutdown]";

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--clients" => opts.clients = num(&value("--clients")?, "--clients")?,
            "--requests" => opts.requests = num(&value("--requests")?, "--requests")?,
            "--workers" => opts.workers = num(&value("--workers")?, "--workers")?,
            "--queue-depth" => opts.queue_depth = num(&value("--queue-depth")?, "--queue-depth")?,
            "--scale" => opts.scale = num(&value("--scale")?, "--scale")?,
            "--seed" => opts.seed = num(&value("--seed")?, "--seed")?,
            "--trials" => opts.trials = num(&value("--trials")?, "--trials")?,
            "--json" => opts.json = Some(value("--json")?),
            "--addr" => opts.addr = Some(value("--addr")?),
            "--no-shutdown" => opts.no_shutdown = true,
            "--rate" => opts.rate = Some(num(&value("--rate")?, "--rate")?),
            "--retries" => opts.retries = num(&value("--retries")?, "--retries")?,
            "--backoff-ms" => opts.backoff_ms = num(&value("--backoff-ms")?, "--backoff-ms")?,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument: {other}\n{USAGE}")),
        }
    }
    if opts.clients == 0 || opts.requests == 0 {
        return Err("--clients and --requests must be at least 1".into());
    }
    if let Some(rate) = opts.rate {
        if !rate.is_finite() || rate <= 0.0 {
            return Err("--rate must be a positive requests/second value".into());
        }
    }
    Ok(opts)
}

fn num<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    raw.parse()
        .map_err(|e| format!("bad value for {flag}: {e}"))
}

/// One request's fate, as seen from the client side.
enum Outcome {
    /// Answered; status, latency (across all attempts), and how many
    /// retry attempts it took. The request id ties the measurement to
    /// server-side spans and logs (the envelope reports the slowest).
    Answered {
        route: &'static str,
        status: u16,
        ms: f64,
        retries: usize,
        request_id: String,
    },
    /// No response on an established connection while the server was NOT
    /// shutting down — after exhausting the retry budget — the failure
    /// mode the harness exists to catch. The request id names the
    /// casualty so it can be looked up in the server's logs or
    /// flight-recorder dump.
    Dropped {
        route: &'static str,
        request_id: String,
        retries: usize,
    },
    /// Failed during the shutdown window (connection refused or drained);
    /// expected load shedding, not an error.
    Shed,
}

/// One of a route's slowest requests: its id (greppable in server spans
/// and logs — and resolvable via `privim trace-view --request-id`) and
/// its client-observed latency.
#[derive(Debug)]
struct SlowRequest {
    request_id: String,
    ms: f64,
}

#[derive(Debug)]
struct RouteRow {
    route: String,
    requests: usize,
    ok: usize,
    rejected: usize,
    errors: usize,
    dropped: usize,
    /// Requests that needed at least one retry (whatever their fate).
    retried: usize,
    /// Total extra attempts spent across all retried requests.
    retry_attempts: usize,
    /// Request ids of the dropped requests, for server-side forensics.
    dropped_ids: Vec<String>,
    /// The slowest successfully answered requests (worst first): feed
    /// these ids to the trace assembler to decompose the tail.
    slowest: Vec<SlowRequest>,
    throughput_rps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
}

impl ToJson for SlowRequest {
    fn to_json_value(&self) -> JsonValue {
        privim_obs::json_object!(self; request_id, ms)
    }
}

impl ToJson for RouteRow {
    fn to_json_value(&self) -> JsonValue {
        privim_obs::json_object!(self; route, requests, ok, rejected, errors, dropped, retried,
            retry_attempts, dropped_ids, slowest, throughput_rps, p50_ms, p95_ms, p99_ms, p999_ms)
    }
}

/// Writes the graph + checkpoint fixture the in-process server loads.
fn write_fixture(dir: &std::path::Path, scale: f64, seed: u64) -> AppConfig {
    std::fs::create_dir_all(dir).expect("create fixture dir");
    let graph = Dataset::Email.generate(scale, seed);
    let graph_path = dir.join("email.bin");
    io::save_binary(&graph, &graph_path).expect("save fixture graph");
    let in_dim = 8;
    let mut rng = StdRng::seed_from_u64(seed);
    let model = build_model(ModelKind::GraphSage, in_dim, 16, 2, &mut rng);
    let checkpoint_path = dir.join("model.ckpt");
    let released = TrainCheckpoint {
        epoch: 0,
        master_seed: seed,
        config_crc: 0,
        trace_id: 0,
        model: Checkpoint::capture(model.as_ref(), in_dim, 16, 2),
        optimizer: Sgd::new(0.02).snapshot(),
        ledger: None,
        losses: vec![],
        clip_fractions: vec![],
        split: None,
    };
    CheckpointStore::write(&checkpoint_path, &released).expect("save fixture checkpoint");
    AppConfig::new(
        graph_path.to_string_lossy().into_owned(),
        checkpoint_path.to_string_lossy().into_owned(),
    )
}

fn run_client(
    addr: &str,
    client_id: usize,
    opts: &Opts,
    completed: &AtomicUsize,
    shutting_down: &AtomicBool,
) -> Vec<Outcome> {
    let mut outcomes = Vec::with_capacity(opts.requests);
    let mut client = match HttpClient::connect(addr) {
        Ok(c) => c,
        Err(_) => return outcomes, // server already gone; nothing in flight
    };
    for i in 0..opts.requests {
        let request_seed = opts.seed + (client_id * opts.requests + i) as u64;
        let (route, path, body): (&'static str, &str, String) = if i % 2 == 0 {
            (
                "seeds",
                "/v1/seeds",
                format!(r#"{{"k": 10, "seed": {request_seed}}}"#),
            )
        } else {
            (
                "spread",
                "/v1/spread",
                format!(
                    r#"{{"seeds": [0, 1, 2], "trials": {}, "seed": {request_seed}, "steps": 1}}"#,
                    opts.trials
                ),
            )
        };
        // Deterministic per-request id: greppable in the server's JSONL
        // events and flight-recorder dump, reproducible from the seed.
        let request_id = format!(
            "loadgen-{client_id}-{i}-{:016x}",
            privim_obs::fault::splitmix64(request_seed)
        );
        let start = Instant::now();
        let mut retries = 0usize;
        let outcome = loop {
            let attempt =
                client.post_with_headers(path, &[("X-Request-Id", &request_id)], body.as_bytes());
            match attempt {
                Ok(resp) => {
                    if resp.status == 503 && retries < opts.retries {
                        retries += 1;
                        std::thread::sleep(backoff_for(opts.backoff_ms, retries));
                        continue;
                    }
                    let ms = start.elapsed().as_secs_f64() * 1e3;
                    completed.fetch_add(1, Ordering::SeqCst);
                    if resp.status == 503 {
                        // Backpressure: honor Retry-After (slightly jittered
                        // by client id so clients do not re-stampede the
                        // queue).
                        std::thread::sleep(Duration::from_millis(5 + (client_id as u64 % 7)));
                    }
                    break Some(Outcome::Answered {
                        route,
                        status: resp.status,
                        ms,
                        retries,
                        request_id: request_id.clone(),
                    });
                }
                Err(_) if shutting_down.load(Ordering::SeqCst) => break None, // shed
                Err(_) if retries < opts.retries => {
                    // Transport error with budget left: back off and retry
                    // (the client reconnects on the next attempt).
                    retries += 1;
                    std::thread::sleep(backoff_for(opts.backoff_ms, retries));
                }
                Err(_) => {
                    break Some(Outcome::Dropped {
                        route,
                        request_id: request_id.clone(),
                        retries,
                    })
                }
            }
        };
        match outcome {
            Some(o) => outcomes.push(o),
            None => {
                outcomes.push(Outcome::Shed);
                break; // server is draining; this client is done
            }
        }
    }
    outcomes
}

/// Deterministic exponential backoff: attempt `k` (1-based) sleeps
/// `base * 2^(k-1)`, capped at a 10-doubling shift.
fn backoff_for(base_ms: u64, attempt: usize) -> Duration {
    Duration::from_millis(base_ms.saturating_mul(1u64 << (attempt - 1).min(10)))
}

/// Returns the request triple for arrival `i` (routes alternate).
fn request_for(i: usize, seed: u64, trials: usize) -> (&'static str, &'static str, String) {
    let request_seed = seed + i as u64;
    if i.is_multiple_of(2) {
        (
            "seeds",
            "/v1/seeds",
            format!(r#"{{"k": 10, "seed": {request_seed}}}"#),
        )
    } else {
        (
            "spread",
            "/v1/spread",
            format!(
                r#"{{"seeds": [0, 1, 2], "trials": {trials}, "seed": {request_seed}, "steps": 1}}"#,
            ),
        )
    }
}

/// Open-loop client: arrivals are slots on a global clock ticking at
/// `rate` requests/second; the shared index hands each thread the next
/// slot and the thread sleeps until that slot's scheduled instant. If
/// every thread is stuck waiting on a slow server, arrivals fall behind
/// schedule — exactly the overload signal the mode exists to measure —
/// and 503s are recorded without retry.
#[allow(clippy::too_many_arguments)]
fn run_open_loop_client(
    addr: &str,
    opts: &Opts,
    rate: f64,
    total: usize,
    arrivals: &AtomicUsize,
    epoch: Instant,
    completed: &AtomicUsize,
    shutting_down: &AtomicBool,
) -> Vec<Outcome> {
    let mut outcomes = Vec::new();
    let mut client = match HttpClient::connect(addr) {
        Ok(c) => c,
        Err(_) => return outcomes,
    };
    loop {
        let i = arrivals.fetch_add(1, Ordering::SeqCst);
        if i >= total {
            break;
        }
        let due = epoch + Duration::from_secs_f64(i as f64 / rate);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let (route, path, body) = request_for(i, opts.seed, opts.trials);
        let request_id = format!(
            "loadgen-open-{i}-{:016x}",
            privim_obs::fault::splitmix64(opts.seed + i as u64)
        );
        let start = Instant::now();
        match client.post_with_headers(path, &[("X-Request-Id", &request_id)], body.as_bytes()) {
            Ok(resp) => {
                let ms = start.elapsed().as_secs_f64() * 1e3;
                completed.fetch_add(1, Ordering::SeqCst);
                outcomes.push(Outcome::Answered {
                    route,
                    status: resp.status,
                    ms,
                    retries: 0,
                    request_id,
                });
            }
            Err(_) if shutting_down.load(Ordering::SeqCst) => {
                outcomes.push(Outcome::Shed);
                break;
            }
            Err(_) => outcomes.push(Outcome::Dropped {
                route,
                request_id,
                retries: 0,
            }),
        }
    }
    outcomes
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn main() {
    if let Some(sink) = privim_obs::StderrSink::from_env() {
        privim_obs::install_sink(Arc::new(sink));
    }
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    // Either start an in-process server over a temp fixture, or target an
    // externally running one (no shutdown is exercised in that mode).
    let fixture_dir = std::env::temp_dir().join(format!("privim-loadgen-{}", std::process::id()));
    let server: Option<Server> = match &opts.addr {
        Some(_) => None,
        None => {
            let app_config = write_fixture(&fixture_dir, opts.scale, opts.seed);
            let app = App::load(&app_config).expect("load fixture app");
            let config = ServerConfig {
                workers: opts.workers,
                queue_depth: opts.queue_depth,
                ..ServerConfig::default()
            };
            Some(Server::start(config, Arc::new(app)).expect("start server"))
        }
    };
    let addr = match (&opts.addr, &server) {
        (Some(a), _) => a.clone(),
        (None, Some(s)) => s.local_addr().to_string(),
        (None, None) => unreachable!(),
    };

    let total = opts.clients * opts.requests;
    let shutdown_at = total / 2;
    // Open-loop runs measure steady-state shedding; mixing in a mid-run
    // drain would conflate the two shed sources.
    let exercise_shutdown = !opts.no_shutdown && server.is_some() && opts.rate.is_none();
    match opts.rate {
        Some(rate) => println!(
            "loadgen: open-loop, {total} arrivals at {rate} rps over {} connections \
             against {addr}",
            opts.clients
        ),
        None => println!(
            "loadgen: {} clients x {} requests against {addr} ({})",
            opts.clients,
            opts.requests,
            if exercise_shutdown {
                format!("graceful shutdown after ~{shutdown_at} responses")
            } else {
                "no mid-run shutdown".to_string()
            }
        ),
    }

    let completed = AtomicUsize::new(0);
    let shutting_down = AtomicBool::new(false);
    let clients_done = AtomicBool::new(false);
    let arrivals = AtomicUsize::new(0);
    let started = Instant::now();

    let mut all_outcomes: Vec<Outcome> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.clients)
            .map(|client_id| {
                let (addr, opts) = (&addr, &opts);
                let (completed, shutting_down) = (&completed, &shutting_down);
                let arrivals = &arrivals;
                scope.spawn(move || match opts.rate {
                    Some(rate) => run_open_loop_client(
                        addr,
                        opts,
                        rate,
                        total,
                        arrivals,
                        started,
                        completed,
                        shutting_down,
                    ),
                    None => run_client(addr, client_id, opts, completed, shutting_down),
                })
            })
            .collect();
        if exercise_shutdown {
            let server = server.as_ref().expect("in-process server");
            let (completed, shutting_down, clients_done) =
                (&completed, &shutting_down, &clients_done);
            scope.spawn(move || {
                while completed.load(Ordering::SeqCst) < shutdown_at
                    && !clients_done.load(Ordering::SeqCst)
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
                // Flag first so late client errors classify as shed, not
                // dropped, then stop accepting and drain.
                shutting_down.store(true, Ordering::SeqCst);
                server.request_shutdown();
            });
        }
        for handle in handles {
            all_outcomes.extend(handle.join().expect("client thread"));
        }
        clients_done.store(true, Ordering::SeqCst);
    });
    let elapsed = started.elapsed().as_secs_f64();
    if let Some(server) = server {
        server.shutdown(); // drains whatever is left, flushes telemetry
    }
    let _ = std::fs::remove_dir_all(&fixture_dir);

    // Aggregate per route.
    let mut rows: Vec<RouteRow> = Vec::new();
    let mut shed = 0usize;
    for route in ["seeds", "spread"] {
        let mut latencies: Vec<f64> = Vec::new();
        let mut slow: Vec<(f64, String)> = Vec::new();
        let mut row = RouteRow {
            route: route.to_string(),
            requests: 0,
            ok: 0,
            rejected: 0,
            errors: 0,
            dropped: 0,
            retried: 0,
            retry_attempts: 0,
            dropped_ids: Vec::new(),
            slowest: Vec::new(),
            throughput_rps: 0.0,
            p50_ms: 0.0,
            p95_ms: 0.0,
            p99_ms: 0.0,
            p999_ms: 0.0,
        };
        for outcome in &all_outcomes {
            match outcome {
                Outcome::Answered {
                    route: r,
                    status,
                    ms,
                    retries,
                    request_id,
                } if *r == route => {
                    row.requests += 1;
                    row.retried += usize::from(*retries > 0);
                    row.retry_attempts += retries;
                    match status {
                        200 => {
                            row.ok += 1;
                            latencies.push(*ms);
                            slow.push((*ms, request_id.clone()));
                        }
                        503 => row.rejected += 1,
                        _ => row.errors += 1,
                    }
                }
                Outcome::Dropped {
                    route: r,
                    request_id,
                    retries,
                } if *r == route => {
                    row.requests += 1;
                    row.dropped += 1;
                    row.retried += usize::from(*retries > 0);
                    row.retry_attempts += retries;
                    row.dropped_ids.push(request_id.clone());
                }
                _ => {}
            }
        }
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
        // Worst-latency requests first; their ids feed the trace
        // assembler for tail decomposition.
        slow.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite latency"));
        row.slowest = slow
            .into_iter()
            .take(5)
            .map(|(ms, request_id)| SlowRequest { request_id, ms })
            .collect();
        row.p50_ms = percentile(&latencies, 0.50);
        row.p95_ms = percentile(&latencies, 0.95);
        row.p99_ms = percentile(&latencies, 0.99);
        row.p999_ms = percentile(&latencies, 0.999);
        row.throughput_rps = row.ok as f64 / elapsed.max(1e-9);
        rows.push(row);
    }
    for outcome in &all_outcomes {
        if matches!(outcome, Outcome::Shed) {
            shed += 1;
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.route.clone(),
                r.requests.to_string(),
                r.ok.to_string(),
                r.rejected.to_string(),
                r.errors.to_string(),
                r.dropped.to_string(),
                r.retried.to_string(),
                format!("{:.1}", r.throughput_rps),
                format!("{:.2}", r.p50_ms),
                format!("{:.2}", r.p95_ms),
                format!("{:.2}", r.p99_ms),
                format!("{:.2}", r.p999_ms),
            ]
        })
        .collect();
    println!();
    print_table(
        &[
            "route", "reqs", "ok", "503", "err", "dropped", "retried", "rps", "p50ms", "p95ms",
            "p99ms", "p999ms",
        ],
        &table,
    );
    let retried: usize = rows.iter().map(|r| r.retried).sum();
    let retry_attempts: usize = rows.iter().map(|r| r.retry_attempts).sum();
    println!(
        "\n{} responses in {elapsed:.2}s ({} shed during shutdown, \
         {retried} retried over {retry_attempts} extra attempts)",
        completed.load(Ordering::SeqCst),
        shed
    );
    if let Some(rate) = opts.rate {
        // Open-loop scoreboard: 503s are the server-side shed signal.
        let ok: usize = rows.iter().map(|r| r.ok).sum();
        let rejected: usize = rows.iter().map(|r| r.rejected).sum();
        let answered: usize = rows.iter().map(|r| r.requests).sum();
        let shed_pct = 100.0 * rejected as f64 / answered.max(1) as f64;
        let p999 = rows.iter().map(|r| r.p999_ms).fold(0.0f64, f64::max);
        println!(
            "open-loop: offered {rate:.1} rps, achieved {:.1} rps ok, \
             shed {rejected}/{answered} ({shed_pct:.1}%), p999 {p999:.2}ms",
            ok as f64 / elapsed.max(1e-9),
        );
    }

    if let Some(path) = &opts.json {
        write_json_seeded(path, opts.seed, &rows).expect("write json");
        println!("wrote {path}");
    }
    privim_obs::flush_sinks();

    let dropped: usize = rows.iter().map(|r| r.dropped).sum();
    if dropped > 0 {
        let ids: Vec<&str> = rows
            .iter()
            .flat_map(|r| r.dropped_ids.iter().map(String::as_str))
            .collect();
        eprintln!(
            "FAIL: {dropped} request(s) dropped outside the shutdown window \
             (ids: {})",
            ids.join(", ")
        );
        std::process::exit(1);
    }
}
