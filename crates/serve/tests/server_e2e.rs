//! End-to-end tests: a real checkpoint and graph served over real sockets.
//!
//! The centerpiece is the reproducibility contract — two independently
//! started server instances loading the same `(checkpoint, graph)` pair
//! must answer the same `/v1/seeds` request with byte-identical bodies.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use privim_core::checkpoint::{CheckpointStore, TrainCheckpoint};
use privim_datasets::paper::Dataset;
use privim_graph::io;
use privim_im::models::{DiffusionConfig, DiffusionModel};
use privim_im::spread::influence_spread_parallel;
use privim_nn::models::{build_model, ModelKind};
use privim_nn::optim::{Optimizer, Sgd};
use privim_nn::serialize::Checkpoint;
use privim_obs::json::{self, JsonValue};
use privim_obs::{FlightRecorder, Level, MemorySink, TraceContext};
use privim_serve::{App, AppConfig, HttpClient, ReadyGate, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

static FIXTURE_ID: AtomicU32 = AtomicU32::new(0);

/// The flight recorder is process-global; tests that arm or reset it
/// serialize here so parallel test threads cannot disarm each other.
static RECORDER_LOCK: Mutex<()> = Mutex::new(());

/// A served fixture: a small Email-replica graph saved in binary form and
/// a freshly initialized (untrained — irrelevant for serving semantics)
/// GraphSAGE checkpoint over it. Files land in a unique temp subdirectory.
struct Fixture {
    dir: PathBuf,
    graph: String,
    checkpoint: String,
}

impl Fixture {
    fn create() -> Fixture {
        let id = FIXTURE_ID.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("privim-serve-e2e-{}-{id}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        let graph = Dataset::Email.generate(0.15, 42);
        let graph_path = dir.join("email.bin");
        io::save_binary(&graph, &graph_path).unwrap();

        let in_dim = 8;
        let mut rng = StdRng::seed_from_u64(7);
        let model = build_model(ModelKind::GraphSage, in_dim, 16, 2, &mut rng);
        let checkpoint_path = dir.join("model.ckpt");
        let released = TrainCheckpoint {
            epoch: 0,
            master_seed: 7,
            config_crc: 0,
            trace_id: 0,
            model: Checkpoint::capture(model.as_ref(), in_dim, 16, 2),
            optimizer: Sgd::new(0.02).snapshot(),
            ledger: None,
            losses: vec![],
            clip_fractions: vec![],
            split: None,
        };
        CheckpointStore::write(&checkpoint_path, &released).unwrap();

        Fixture {
            dir,
            graph: graph_path.to_string_lossy().into_owned(),
            checkpoint: checkpoint_path.to_string_lossy().into_owned(),
        }
    }

    fn app_config(&self) -> AppConfig {
        AppConfig::new(&self.graph, &self.checkpoint)
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn start_server(fixture: &Fixture) -> Server {
    let app = App::load(&fixture.app_config()).unwrap();
    let config = ServerConfig {
        workers: 2,
        queue_depth: 16,
        ..ServerConfig::default()
    };
    Server::start(config, Arc::new(app)).unwrap()
}

/// Like [`start_server`], but with the operator debug endpoints on.
fn start_server_debug(fixture: &Fixture) -> Server {
    let mut app_config = fixture.app_config();
    app_config.debug_endpoints = true;
    let app = App::load(&app_config).unwrap();
    let config = ServerConfig {
        workers: 2,
        queue_depth: 16,
        ..ServerConfig::default()
    };
    Server::start(config, Arc::new(app)).unwrap()
}

#[test]
fn two_instances_serve_byte_identical_seeds() {
    let fixture = Fixture::create();
    let first = start_server(&fixture);
    let second = start_server(&fixture);

    let body = r#"{"k": 10, "seed": 123}"#;
    let mut c1 = HttpClient::connect(first.local_addr().to_string()).unwrap();
    let mut c2 = HttpClient::connect(second.local_addr().to_string()).unwrap();
    let r1 = c1.post("/v1/seeds", body.as_bytes()).unwrap();
    let r2 = c2.post("/v1/seeds", body.as_bytes()).unwrap();

    assert_eq!(r1.status, 200);
    assert_eq!(r2.status, 200);
    assert_eq!(
        r1.body, r2.body,
        "same checkpoint+graph+request must serve identical bytes"
    );

    // And repeating the request against the same instance is also stable.
    let r1_again = c1.post("/v1/seeds", body.as_bytes()).unwrap();
    assert_eq!(r1.body, r1_again.body);

    // Arming the flight recorder and stamping per-request trace contexts
    // (distinct X-Request-Ids on each instance) is pure observability:
    // the served bytes must not change.
    {
        let _rec = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        FlightRecorder::arm();
        let r3 = c1
            .post_with_headers("/v1/seeds", &[("X-Request-Id", "bitid-a")], body.as_bytes())
            .unwrap();
        let r4 = c2
            .post_with_headers("/v1/seeds", &[("X-Request-Id", "bitid-b")], body.as_bytes())
            .unwrap();
        FlightRecorder::disarm();
        assert_eq!(r3.body, r1.body, "recorder+tracing must not change bytes");
        assert_eq!(r4.body, r1.body, "trace ids must not leak into bodies");
        assert_eq!(r3.header("x-request-id"), Some("bitid-a"));
        assert_eq!(r4.header("x-request-id"), Some("bitid-b"));
    }

    first.shutdown();
    second.shutdown();
}

#[test]
fn request_trace_correlates_header_events_recorder_and_debug_endpoint() {
    let _rec = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let fixture = Fixture::create();
    let server = start_server_debug(&fixture);
    let sink = Arc::new(MemorySink::new(Level::Debug));
    privim_obs::install_sink(sink.clone());
    FlightRecorder::reset();
    FlightRecorder::arm();

    // The same shape of id loadgen generates, so this doubles as the
    // forensics cross-check: a sampled client-side id must be findable
    // in the server's flight-recorder dump.
    let rid = "loadgen-3-17-00c0ffee00c0ffee";
    let expected = TraceContext::from_request_id(rid);
    let mut client = HttpClient::connect(server.local_addr().to_string()).unwrap();
    let resp = client
        .post_with_headers("/v1/seeds", &[("X-Request-Id", rid)], br#"{"k": 3}"#)
        .unwrap();
    FlightRecorder::disarm();

    // 1. The id is echoed on the response.
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-request-id"), Some(rid));

    // 2. The event stream (what a JSONL sink would write) carries the
    //    derived trace id on the request event.
    let events = sink.events();
    let event = events
        .iter()
        .find(|e| e.trace.map(|t| t.trace_id) == Some(expected.trace_id))
        .unwrap_or_else(|| panic!("no event carries trace {}", expected.trace_id_hex()));
    assert!(
        event.to_json_line().contains(&expected.trace_id_hex()),
        "JSONL line must serialize the trace id"
    );

    // 3. The flight recorder captured the request under the same trace.
    assert!(
        FlightRecorder::dump()
            .iter()
            .any(|e| e.trace_id == expected.trace_id),
        "recorder dump must hold the request's trace"
    );

    // 4. /debug/trace renders the same trace id in its span tree.
    let debug = client.get("/debug/trace").unwrap();
    assert_eq!(debug.status, 200);
    let text = String::from_utf8_lossy(&debug.body).into_owned();
    assert!(
        text.contains(&expected.trace_id_hex()),
        "debug trace body:\n{text}"
    );

    // /debug/profile answers with folded stacks (possibly empty).
    assert_eq!(client.get("/debug/profile").unwrap().status, 200);

    privim_obs::take_sinks();
    server.shutdown();
}

#[test]
fn debug_endpoints_are_hidden_unless_enabled() {
    let fixture = Fixture::create();
    let server = start_server(&fixture);
    let mut client = HttpClient::connect(server.local_addr().to_string()).unwrap();

    // Disabled endpoints 404 like any unknown route — indistinguishable
    // from a server built without them.
    assert_eq!(client.get("/debug/trace").unwrap().status, 404);
    assert_eq!(client.get("/debug/profile").unwrap().status, 404);
    server.shutdown();

    let server = start_server_debug(&fixture);
    let mut client = HttpClient::connect(server.local_addr().to_string()).unwrap();
    assert_eq!(client.get("/debug/trace").unwrap().status, 200);
    assert_eq!(
        client.post("/debug/trace", b"").unwrap().status,
        405,
        "enabled endpoints reject wrong methods, not hide"
    );
    server.shutdown();
}

#[test]
fn spread_endpoint_matches_direct_estimate() {
    let fixture = Fixture::create();
    let server = start_server(&fixture);
    let graph = privim_serve::load_graph(&fixture.graph).unwrap();

    let mut client = HttpClient::connect(server.local_addr().to_string()).unwrap();
    let body = r#"{"seeds": [0, 1, 2], "trials": 400, "seed": 9, "steps": 1}"#;
    let resp = client.post("/v1/spread", body.as_bytes()).unwrap();
    assert_eq!(
        resp.status,
        200,
        "body: {}",
        String::from_utf8_lossy(&resp.body)
    );
    let parsed = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    let field = |key: &str| parsed.get(key).cloned().unwrap_or(JsonValue::Null);

    let config = DiffusionConfig {
        model: DiffusionModel::IndependentCascade,
        max_steps: Some(1),
    };
    let direct = influence_spread_parallel(&graph, &[0, 1, 2], &config, 400, 2, 9).unwrap();
    assert_eq!(field("spread").as_f64(), Some(direct));
    assert_eq!(field("trials").as_u64(), Some(400));
    assert_eq!(field("n_nodes").as_u64(), Some(graph.num_nodes() as u64));

    server.shutdown();
}

#[test]
fn invalid_requests_get_structured_errors() {
    let fixture = Fixture::create();
    let server = start_server(&fixture);
    let mut client = HttpClient::connect(server.local_addr().to_string()).unwrap();

    // Unknown field → 400 from the strict request decoder.
    let resp = client
        .post("/v1/seeds", br#"{"k": 3, "bogus": true}"#)
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.starts_with(br#"{"error":"#));

    // Out-of-range seed node → 400 from the spread range check.
    let resp = client
        .post("/v1/spread", br#"{"seeds": [999999]}"#)
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(String::from_utf8_lossy(&resp.body).contains("out of range"));

    // Unknown route → 404; wrong method on a known route → 405.
    assert_eq!(client.get("/nope").unwrap().status, 404);
    assert_eq!(client.get("/v1/seeds").unwrap().status, 405);

    // The server is still healthy afterwards.
    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.body, b"ok\n");

    server.shutdown();
}

#[test]
fn hostile_bodies_get_400_and_seeds_echo_exactly() {
    let fixture = Fixture::create();
    let server = start_server(&fixture);
    let mut client = HttpClient::connect(server.local_addr().to_string()).unwrap();

    // Nesting far past the parser's depth limit but well under the body
    // limit: a clean 400, not a stack overflow that kills the process.
    let deep = "[".repeat(100_000);
    let resp = client.post("/v1/seeds", deep.as_bytes()).unwrap();
    assert_eq!(resp.status, 400);

    // The next request on the same server succeeds, and a seed above
    // 2^53 comes back exactly.
    let resp = client
        .post("/v1/seeds", br#"{"k": 3, "seed": 18446744073709551615}"#)
        .unwrap();
    assert_eq!(resp.status, 200);
    let text = String::from_utf8(resp.body).unwrap();
    assert!(text.contains(r#""seed":18446744073709551615,"#), "{text}");
    let resp = client
        .post("/v1/spread", br#"{"seeds": [0], "seed": 9007199254740993}"#)
        .unwrap();
    assert_eq!(resp.status, 200);
    let text = String::from_utf8(resp.body).unwrap();
    assert!(text.contains(r#""seed":9007199254740993,"#), "{text}");

    server.shutdown();
}

#[test]
fn version_and_metrics_reflect_served_state() {
    let fixture = Fixture::create();
    let server = start_server(&fixture);
    let graph = privim_serve::load_graph(&fixture.graph).unwrap();
    let mut client = HttpClient::connect(server.local_addr().to_string()).unwrap();

    let version = client.get("/version").unwrap();
    assert_eq!(version.status, 200);
    let text = String::from_utf8_lossy(&version.body).into_owned();
    assert!(text.contains("\"privim-serve\""), "version body: {text}");
    assert!(text.contains(&format!("\"graph_nodes\":{}", graph.num_nodes())));
    assert!(text.contains("\"GraphSAGE\""), "body: {text}");

    // Hit a route, then check it shows up in the Prometheus exposition.
    client.post("/v1/seeds", br#"{"k": 1}"#).unwrap();
    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let text = String::from_utf8_lossy(&metrics.body).into_owned();
    assert!(text.contains("serve_requests"), "metrics body:\n{text}");
    assert!(text.contains("serve_latency_secs"), "metrics body:\n{text}");

    server.shutdown();
}

#[test]
fn readyz_tracks_the_whole_lifecycle() {
    let fixture = Fixture::create();
    // Bind first with an empty gate: the socket answers, but readiness is
    // false and every app route sheds with 503 until the app is installed.
    let gate = ReadyGate::new();
    let config = ServerConfig {
        workers: 2,
        queue_depth: 16,
        ..ServerConfig::default()
    };
    let server = Server::start(config, gate.clone()).unwrap();
    let mut client = HttpClient::connect(server.local_addr().to_string()).unwrap();

    let resp = client.get("/readyz").unwrap();
    assert_eq!(resp.status, 503, "not ready before the app is loaded");
    assert_eq!(resp.header("retry-after"), Some("1"));
    let resp = client.post("/v1/seeds", br#"{"k": 3}"#).unwrap();
    assert_eq!(resp.status, 503, "app routes shed while loading");

    // Load and install: readiness flips to 200 and routes start serving.
    let app = App::load(&fixture.app_config()).unwrap();
    gate.install(Arc::new(app));
    let resp = client.get("/readyz").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, b"ready\n");
    assert_eq!(client.post("/readyz", b"").unwrap().status, 405);
    assert_eq!(
        client.post("/v1/seeds", br#"{"k": 3}"#).unwrap().status,
        200
    );

    // Drain: readiness goes false immediately, even though the already-
    // accepted connection still gets its answer.
    server.request_shutdown();
    let resp = client.get("/readyz").unwrap();
    assert_eq!(resp.status, 503, "draining instances must report not-ready");
    assert_eq!(resp.header("retry-after"), Some("1"));

    server.join();
}

#[test]
fn seeds_k_is_clamped_to_graph_size() {
    let fixture = Fixture::create();
    let server = start_server(&fixture);
    let graph = privim_serve::load_graph(&fixture.graph).unwrap();
    let mut client = HttpClient::connect(server.local_addr().to_string()).unwrap();

    let resp = client.post("/v1/seeds", br#"{"k": 1000000}"#).unwrap();
    assert_eq!(resp.status, 200);
    let text = String::from_utf8_lossy(&resp.body).into_owned();
    assert!(
        text.contains(&format!("\"k\":{}", graph.num_nodes())),
        "body: {text}"
    );

    server.shutdown();
}
