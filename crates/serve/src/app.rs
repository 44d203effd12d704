//! The PrivIM inference application: checkpoint + graph in, JSON out.
//!
//! Everything served here is post-processing of the released checkpoint:
//! scores come from the loaded parameters, spread estimates from the
//! public graph file the operator chose to serve, and no raw training
//! statistics are exposed — so answering queries consumes no additional
//! privacy budget beyond what training spent.

use privim_core::checkpoint::CheckpointStore;
use privim_graph::{io, Graph};
use privim_im::metrics::top_k_seeds;
use privim_im::models::{DiffusionConfig, DiffusionModel};
use privim_im::spread::{influence_spread_parallel, SpreadError};
use privim_nn::graph_tensors::GraphTensors;
use privim_nn::serialize::Checkpoint;
use privim_obs::json::ToJson;

use crate::api::{SeedsRequest, SeedsResponse, SpreadRequest, SpreadResponse, VersionResponse};
use crate::http::{Method, Request, Response};
use crate::server::Handler;

/// What to serve and the per-request safety limits.
#[derive(Debug, Clone)]
pub struct AppConfig {
    /// Graph file (edge list or `.bin`).
    pub graph: String,
    /// The released model: a PVCK checkpoint file (what `privim train
    /// --checkpoint` writes), decoded by `CheckpointStore::load`.
    pub checkpoint: String,
    /// Upper bound on `/v1/spread` trials; larger requests are clamped
    /// (the response reports the clamped count).
    pub max_trials: usize,
    /// Threads per `/v1/spread` evaluation. The estimate is invariant to
    /// this, so it is purely a latency/throughput knob.
    pub spread_threads: usize,
    /// Serve `GET /debug/trace` and `GET /debug/profile`. Off by
    /// default: the dumps expose request ids and timing internals, so
    /// they are for operators on trusted networks, not public traffic.
    pub debug_endpoints: bool,
}

impl AppConfig {
    /// A config with default limits (100k trials, 2 spread threads).
    pub fn new(graph: impl Into<String>, checkpoint: impl Into<String>) -> AppConfig {
        AppConfig {
            graph: graph.into(),
            checkpoint: checkpoint.into(),
            max_trials: 100_000,
            spread_threads: 2,
            debug_endpoints: false,
        }
    }
}

/// Loaded state shared (immutably) by every worker thread.
pub struct App {
    graph: Graph,
    /// Per-node model scores, indexed by node id.
    scores: Vec<f64>,
    /// All nodes ranked by score (descending, ties by id) — computed once
    /// at load time so `/v1/seeds` is a slice per request.
    ranking: Vec<u32>,
    model: String,
    /// Stable hex digest of the served checkpoint (see
    /// `Checkpoint::digest`): audit artifacts and response caches key
    /// on it, and `/version` exposes it.
    checkpoint_digest: String,
    max_trials: usize,
    spread_threads: usize,
    debug_endpoints: bool,
}

/// Loads a graph file the same way the CLI does ([`io::load_graph`]).
pub fn load_graph(path: &str) -> Result<Graph, String> {
    io::load_graph(path).map_err(|e| format!("cannot load graph {path}: {e}"))
}

impl App {
    /// Loads the graph and checkpoint, restores the model, and scores
    /// every node once. Serving then never touches the model again, so
    /// identical `(checkpoint, graph)` pairs serve identical responses.
    pub fn load(config: &AppConfig) -> Result<App, String> {
        let graph = load_graph(&config.graph)?;
        let checkpoint = CheckpointStore::load(config.checkpoint.as_ref())
            .map_err(|e| format!("cannot load checkpoint {}: {e}", config.checkpoint))?
            .model;
        let app = App::from_parts(graph, &checkpoint, config)?;
        privim_obs::info!(
            "serve",
            "loaded",
            graph = config.graph.clone(),
            checkpoint = config.checkpoint.clone(),
            nodes = app.num_nodes() as u64,
            model = checkpoint.kind.name(),
        );
        Ok(app)
    }

    /// Builds the app from an already-loaded graph and model checkpoint.
    /// [`App::load`] and the hot-swap path (`privim serve --follow`,
    /// which reads checkpoint-store generations) both decode with
    /// `CheckpointStore::load` and hand `TrainCheckpoint.model` here; a
    /// swap fails cleanly (old handler keeps serving) if the new
    /// generation cannot be restored.
    pub fn from_parts(
        graph: Graph,
        checkpoint: &Checkpoint,
        config: &AppConfig,
    ) -> Result<App, String> {
        let model = checkpoint
            .restore()
            .map_err(|e| format!("cannot restore checkpoint: {e}"))?;
        if config.debug_endpoints {
            // With debug endpoints on, keep the span ring armed so
            // `/debug/spans` serves this replica's recent spans to the
            // router's tier-trace assembler. Idempotent across reloads.
            privim_obs::arm_span_ring("serve");
        }
        let tensors = GraphTensors::with_structural_features(&graph, checkpoint.in_dim);
        let scores = model.seed_probabilities(&tensors);
        let ranking = top_k_seeds(&scores, scores.len());
        Ok(App {
            graph,
            scores,
            ranking,
            model: checkpoint.kind.name().to_string(),
            checkpoint_digest: checkpoint.digest_hex(),
            max_trials: config.max_trials.max(1),
            spread_threads: config.spread_threads.max(1),
            debug_endpoints: config.debug_endpoints,
        })
    }

    /// Stable hex digest of the served checkpoint (what `/version`
    /// reports and the router's agreement check compares).
    pub fn checkpoint_digest(&self) -> &str {
        &self.checkpoint_digest
    }

    /// Number of nodes in the served graph.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    fn seeds(&self, req: &SeedsRequest) -> SeedsResponse {
        let k = req.k.min(self.ranking.len());
        let seeds = self.ranking[..k].to_vec();
        let scores = seeds.iter().map(|&v| self.scores[v as usize]).collect();
        SeedsResponse {
            seeds,
            scores,
            k,
            seed: req.seed,
            model: self.model.clone(),
        }
    }

    fn spread(&self, req: &SpreadRequest) -> Result<SpreadResponse, SpreadError> {
        let trials = req.trials.min(self.max_trials);
        let config = DiffusionConfig {
            model: DiffusionModel::IndependentCascade,
            max_steps: req.steps,
        };
        let spread = influence_spread_parallel(
            &self.graph,
            &req.seeds,
            &config,
            trials,
            self.spread_threads,
            req.seed,
        )?;
        Ok(SpreadResponse {
            spread,
            trials,
            seed: req.seed,
            n_nodes: self.graph.num_nodes(),
        })
    }

    fn version(&self) -> VersionResponse {
        VersionResponse {
            name: env!("CARGO_PKG_NAME").to_string(),
            version: env!("CARGO_PKG_VERSION").to_string(),
            model: self.model.clone(),
            checkpoint_digest: self.checkpoint_digest.clone(),
            graph_nodes: self.graph.num_nodes(),
            graph_edges: self.graph.num_edges(),
        }
    }
}

/// Renders the flight recorder's current contents as plain-text span
/// trees: one block per trace id (first-seen order, untraced entries
/// under their own heading), entries indented by span depth. This is
/// the live view of the same rings a crash dump would serialize.
fn render_trace_dump() -> String {
    let entries = privim_obs::FlightRecorder::dump();
    let mut out = format!(
        "flight recorder: {} entries, {} dropped, armed={}\n",
        entries.len(),
        privim_obs::FlightRecorder::dropped(),
        privim_obs::FlightRecorder::armed(),
    );
    let mut order: Vec<u128> = Vec::new();
    for e in &entries {
        if !order.contains(&e.trace_id) {
            order.push(e.trace_id);
        }
    }
    for trace_id in order {
        let group: Vec<&privim_obs::DumpEntry> =
            entries.iter().filter(|e| e.trace_id == trace_id).collect();
        if trace_id == 0 {
            out.push_str(&format!("\nuntraced ({} events)\n", group.len()));
        } else {
            out.push_str(&format!(
                "\ntrace {trace_id:032x} ({} events)\n",
                group.len()
            ));
        }
        // Span depth = hops up the parent chain through spans this group
        // has seen (capped: truncated rings can orphan a child).
        let parents: std::collections::HashMap<u64, u64> = group
            .iter()
            .filter(|e| e.span_id != 0)
            .map(|e| (e.span_id, e.parent_span_id))
            .collect();
        for e in &group {
            let mut depth = 0usize;
            let mut up = e.parent_span_id;
            while up != 0 && depth < 16 {
                depth += 1;
                up = parents.get(&up).copied().unwrap_or(0);
            }
            out.push_str(&"  ".repeat(depth + 1));
            out.push_str(&format!(
                "#{} {} {} {}",
                e.seq,
                e.level.as_str(),
                e.target,
                e.message
            ));
            if !e.detail.is_empty() {
                out.push_str(&format!(" {}", e.detail));
            }
            out.push_str(&format!(" (span {:016x}, {})\n", e.span_id, e.thread));
        }
    }
    out
}

fn json_response(value: &impl ToJson) -> Response {
    Response::json(200, value.to_json_value().to_json().into_bytes())
}

fn bad_body(e: String) -> Response {
    Response::error(400, &format!("invalid request body: {e}"))
}

impl Handler for App {
    fn handle(&self, req: &Request) -> Response {
        match (&req.method, req.route()) {
            (Method::Get, "/healthz") => Response::text(200, "ok\n"),
            (Method::Get, "/version") => json_response(&self.version()),
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
            (Method::Get, "/slo") => match crate::slo::global() {
                Some(tracker) => Response::json(200, tracker.render_json().into_bytes()),
                None => Response::error(404, "slo tracking not enabled"),
            },
            // Debug endpoints answer 404 (not 403) when disabled so a
            // public deployment does not advertise their existence.
            (Method::Get, "/debug/trace") if self.debug_endpoints => {
                Response::text(200, render_trace_dump())
            }
            (Method::Get, "/debug/profile") if self.debug_endpoints => {
                Response::text(200, privim_obs::profile_report().render_flamegraph())
            }
            (Method::Get, "/debug/spans") if self.debug_endpoints => {
                Response::text(200, privim_obs::spans_jsonl())
            }
            (Method::Post, "/v1/seeds") => match SeedsRequest::from_json(&req.body) {
                Ok(body) => json_response(&self.seeds(&body)),
                Err(e) => bad_body(e),
            },
            (Method::Post, "/v1/spread") => match SpreadRequest::from_json(&req.body) {
                Ok(body) => match self.spread(&body) {
                    Ok(out) => json_response(&out),
                    Err(e) => Response::error(400, &e.to_string()),
                },
                Err(e) => bad_body(e),
            },
            (_, "/healthz" | "/version" | "/metrics" | "/slo" | "/v1/seeds" | "/v1/spread") => {
                Response::error(405, &format!("method {} not allowed here", req.method))
            }
            (_, "/debug/trace" | "/debug/profile" | "/debug/spans") if self.debug_endpoints => {
                Response::error(405, &format!("method {} not allowed here", req.method))
            }
            (_, route) => Response::error(404, &format!("no such route: {route}")),
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
            // A disabled endpoint stays "other" so 404 probes in the
            // metrics do not reveal the route exists.
            "/debug/trace" | "/debug/profile" | "/debug/spans" if self.debug_endpoints => "debug",
            _ => "other",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privim_obs::{FlightRecorder, TraceContext};

    #[test]
    fn trace_dump_renders_span_trees_grouped_by_trace() {
        FlightRecorder::reset();
        FlightRecorder::arm();
        let ctx = TraceContext::from_seed(4242);
        {
            let _t = ctx.enter();
            privim_obs::info!("app_dump", "parent_work");
            let child = ctx.child();
            let _c = child.enter();
            privim_obs::info!("app_dump", "child_work", step = 1u64);
        }
        FlightRecorder::disarm();
        let text = render_trace_dump();
        assert!(text.starts_with("flight recorder:"), "{text}");
        let header = format!("trace {}", ctx.trace_id_hex());
        assert!(text.contains(&header), "{text}");
        let parent_line = text
            .lines()
            .find(|l| l.contains("parent_work"))
            .expect("parent rendered");
        let child_line = text
            .lines()
            .find(|l| l.contains("child_work"))
            .expect("child rendered");
        let indent = |l: &str| l.len() - l.trim_start().len();
        assert!(
            indent(child_line) > indent(parent_line),
            "child is nested under its parent:\n{text}"
        );
        assert!(child_line.contains("step=1"), "{child_line}");
    }
}
