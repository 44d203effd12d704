//! Dependency-free argument parsing for the `privim` CLI.
//!
//! Each subcommand has one flag table and the global flags have one more.
//! [`Flags::take`] checks a command line against a table: an unknown,
//! repeated or value-less flag is an error, and so is a number outside the
//! range its entry declares, so no outside value reaches a library assert.
//! [`usage`] renders the help text from the same tables. Each command's
//! library config starts from its own `Default` (or `new`), and a flag
//! overwrites a field only when it is given.

use std::fmt::Display;
use std::str::FromStr;
use std::time::Duration;

use privim_audit::{Attack, AuditConfig, Mode};
use privim_core::config::PrivImConfig;
use privim_core::pipeline::Method;
use privim_core::resume::ResumeOptions;
use privim_datasets::paper::Dataset;
use privim_dp::rdp::SubsampledConfig;
use privim_im::models::DiffusionConfig;
use privim_nn::models::ModelKind;
use privim_serve::{AppConfig, ChaosConfig, RouterConfig, ServerConfig, SloConfig};

use crate::monitor::Source;

/// Parsed command line.
#[derive(Debug)]
pub enum Command {
    /// Generate a dataset replica and write it as an edge list / binary.
    Generate {
        dataset: Dataset,
        scale: f64,
        seed: u64,
        output: String,
    },
    /// Train a (private) model, print its seeds, optionally save it.
    Train {
        graph: String,
        method: Method,
        /// Split, extraction and training seed (`--seed`).
        seed: u64,
        /// Released-model file (`--checkpoint`).
        checkpoint: Option<String>,
        /// Crash-safe store directory, and whether it must already hold a
        /// valid generation (`--resume`) rather than start fresh
        /// (`--checkpoint-dir`).
        store: Option<(String, bool)>,
        config: PrivImConfig,
        resume: ResumeOptions,
    },
    /// Select seeds with a saved checkpoint on a graph file.
    Select {
        graph: String,
        checkpoint: String,
        k: usize,
    },
    /// Evaluate a seed set's influence spread on a graph file.
    Evaluate {
        graph: String,
        seeds: Vec<u32>,
        diffusion: DiffusionConfig,
        trials: usize,
    },
    /// Print accounting numbers (σ, noise std, spent ε) for a setting.
    Account {
        epsilon: f64,
        delta: f64,
        iterations: usize,
        sampling: SubsampledConfig,
        /// Print this checkpoint's digest too, tying a released artifact
        /// to the ε it was trained under.
        checkpoint: Option<String>,
    },
    /// Serve influence-maximization queries over HTTP from a checkpoint,
    /// or from the newest valid generation of a store it follows.
    Serve {
        app: AppConfig,
        server: ServerConfig,
        slo: SloConfig,
        /// Store directory to follow (`--follow`) instead of one file.
        follow: Option<String>,
        /// Store poll interval in milliseconds (`--poll-ms`).
        poll_ms: u64,
    },
    /// Front a replicated serve tier: health checks, retries, breakers.
    Route {
        router: RouterConfig,
        server: ServerConfig,
    },
    /// Run the deterministic TCP fault-injection proxy.
    Chaos(ChaosConfig),
    /// Render telemetry and active alerts as a text dashboard.
    Monitor(Source),
    /// Run empirical privacy attacks against trained checkpoints.
    Audit {
        graph: String,
        /// Crash-safe stores to sweep; each contributes its newest valid
        /// generation.
        checkpoint_dirs: Vec<String>,
        /// Write the `{seed, rows, telemetry}` envelope here (`--json`).
        json: Option<String>,
        config: AuditConfig,
    },
    /// Assemble exported span files (or a live router's debug endpoint)
    /// into cross-process trace trees with per-hop latency tables.
    TraceView(TraceViewArgs),
    /// Print usage.
    Help,
}

#[derive(Debug, Clone, PartialEq)]
pub struct TraceViewArgs {
    /// Span-export JSONL files to merge (`--spans a.jsonl[,b.jsonl...]`).
    pub spans: Vec<String>,
    /// Only render the trace derived from this request id
    /// (`--request-id`).
    pub request_id: Option<String>,
    /// Only render this trace id, as 32 lowercase hex digits
    /// (`--trace`).
    pub trace: Option<String>,
    /// `host:port` of a live `privim route` front-end: fetch its
    /// assembled `/debug/tier-trace` view instead of reading files
    /// (`--addr`).
    pub addr: Option<String>,
}

/// What a flag takes. The numeric ranges are checked at parse time.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// No value.
    Switch,
    /// Any value; the command's builder parses it.
    Text,
    /// An integer ≥ 1.
    Count,
    /// A finite number > 0.
    Positive,
    /// A number in (0, 1).
    Fraction,
    /// A number in (0, 1].
    Scale,
    /// A number in [0, 1].
    Rate,
}
use Kind::*;

impl Kind {
    /// Checks `value` against this kind's range.
    fn check(self, name: &str, value: &str) -> Result<(), String> {
        let bad = |e: &dyn Display| format!("bad --{name}: {e}");
        let x = match self {
            Switch | Text => return Ok(()),
            Count => value.parse::<u64>().map_err(|e| bad(&e))? as f64,
            _ => value.parse::<f64>().map_err(|e| bad(&e))?,
        };
        let (ok, range) = match self {
            Count => (x > 0.0, "be positive"),
            Positive => (x > 0.0 && x.is_finite(), "be positive and finite"),
            Fraction => (x > 0.0 && x < 1.0, "be in (0, 1)"),
            Scale => (x > 0.0 && x <= 1.0, "be in (0, 1]"),
            _ => ((0.0..=1.0).contains(&x), "be in [0, 1]"),
        };
        if ok {
            Ok(())
        } else {
            Err(format!("--{name} must {range}"))
        }
    }
}

/// One entry of a flag table.
#[derive(Debug, Clone, Copy)]
struct Flag {
    name: &'static str,
    kind: Kind,
    /// The value's placeholder in the help text.
    hint: &'static str,
    required: bool,
}

const fn opt(name: &'static str, hint: &'static str, kind: Kind) -> Flag {
    Flag {
        name,
        kind,
        hint,
        required: false,
    }
}

const fn req(name: &'static str, hint: &'static str, kind: Kind) -> Flag {
    Flag {
        required: true,
        ..opt(name, hint, kind)
    }
}

/// Every subcommand's flags, in help-text order.
const COMMANDS: &[(&str, &[Flag])] = &[
    (
        "generate",
        &[
            req("dataset", "<name>", Text),
            opt("scale", "f", Scale),
            opt("seed", "u", Text),
            req("output", "<path>", Text),
        ],
    ),
    (
        "train",
        &[
            req("graph", "<path>", Text),
            opt(
                "method",
                "privim*|privim|scs|egn|hp|hp-grat|non-private",
                Text,
            ),
            opt("model", "grat|gcn|gat|gin|sage|mlp", Text),
            opt("epsilon", "f", Positive),
            opt("k", "n", Text),
            opt("iterations", "n", Count),
            opt("seed", "u", Text),
            opt("checkpoint", "<path>", Text),
            opt("checkpoint-dir", "<dir>", Text),
            opt("resume", "<dir>", Text),
            opt("checkpoint-every", "n", Count),
            opt("keep", "n", Count),
            opt("epsilon-budget", "f", Positive),
            opt("budget-warn-fraction", "f", Scale),
        ],
    ),
    (
        "select",
        &[
            req("graph", "<path>", Text),
            req("checkpoint", "<path>", Text),
            opt("k", "n", Text),
        ],
    ),
    (
        "evaluate",
        &[
            req("graph", "<path>", Text),
            req("seeds", "1,2,3", Text),
            opt("steps", "n", Text),
            opt("trials", "n", Count),
        ],
    ),
    (
        "account",
        &[
            req("epsilon", "f", Positive),
            opt("delta", "f", Fraction),
            opt("iterations", "n", Count),
            opt("batch", "n", Count),
            opt("container", "n", Count),
            opt("occurrences", "n", Count),
            opt("checkpoint", "<path>", Text),
        ],
    ),
    (
        "audit",
        &[
            req("graph", "<path>", Text),
            req("checkpoint-dirs", "<dir>[,<dir>...]", Text),
            opt("attack", "membership|topology|both", Text),
            opt("mode", "white-box|black-box|both", Text),
            opt("addr", "host:port", Text),
            opt("seed", "u", Text),
            opt("json", "<path>", Text),
            opt("low-fpr", "f", Fraction),
            opt("max-pairs", "n", Count),
        ],
    ),
    (
        "serve",
        &[
            req("graph", "<path>", Text),
            opt("checkpoint", "<path>", Text),
            opt("follow", "<dir>", Text),
            opt("poll-ms", "n", Count),
            opt("addr", "host:port", Text),
            opt("workers", "n", Text),
            opt("queue-depth", "n", Text),
            opt("deadline-ms", "n", Text),
            opt("max-trials", "n", Text),
            opt("spread-threads", "n", Text),
            opt("slow-ms", "n", Text),
            opt("debug-endpoints", "", Switch),
            opt("slo-target-ms", "n", Text),
            opt("slo-window", "n", Count),
            opt("slo-error-budget", "f", Fraction),
        ],
    ),
    (
        "route",
        &[
            req("backends", "host:port[,host:port...]", Text),
            opt("addr", "host:port", Text),
            opt("retries", "n", Text),
            opt("backoff-ms", "n", Text),
            opt("timeout-ms", "n", Text),
            opt("hedge-ms", "n", Text),
            opt("breaker-failures", "n", Count),
            opt("breaker-cooldown-ms", "n", Text),
            opt("health-interval-ms", "n", Text),
            opt("probe-down-after", "n", Count),
            opt("seed", "u", Text),
            opt("workers", "n", Text),
            opt("queue-depth", "n", Text),
        ],
    ),
    (
        "chaos",
        &[
            req("listen", "host:port", Text),
            req("upstream", "host:port", Text),
            opt("seed", "u", Text),
            opt("fault-rate", "f", Rate),
        ],
    ),
    (
        "monitor",
        &[
            opt("input", "<telemetry.jsonl>", Text),
            opt("addr", "host:port", Text),
        ],
    ),
    (
        "trace-view",
        &[
            opt("spans", "<file>[,<file>...]", Text),
            opt("addr", "host:port", Text),
            opt("request-id", "<id>", Text),
            opt("trace", "<32-hex>", Text),
        ],
    ),
];

/// The observability flags every subcommand accepts, anywhere on the line.
const GLOBAL: &[Flag] = &[
    opt("log-level", "error|warn|info|debug|trace|off", Text),
    opt("telemetry-out", "<path>", Text),
    opt("profile", "", Switch),
    opt("profile-out", "<path>", Text),
    opt("metrics-out", "<path>", Text),
    opt("report-out", "<path>", Text),
    opt("recorder-out", "<path>", Text),
    opt("span-export", "<path>", Text),
    opt("chaos-kill", "<site>:<hit>", Text),
];

const NOTES: &str = "
--log-level sets the structured events on stderr (overrides PRIVIM_LOG);
--telemetry-out writes every event as JSON lines; --profile times hot
kernels and prints the call tree on exit, --profile-out also writes it as
folded-stack flamegraph text; --metrics-out writes final metrics in
Prometheus text format; --report-out writes a self-contained HTML run
report; --recorder-out arms the flight recorder and dumps the last events
on panic, injected kill, or SIGTERM; --span-export appends every finished
trace span as JSON lines for `privim trace-view`; --chaos-kill injects a
process kill at the Nth pass of a fault site (see privim_obs::fault).

A flag given twice is an error; numeric ranges are checked before running.
Datasets: email, bitcoin, lastfm, hepph, facebook, gowalla.
Graph files: whitespace edge lists ('src dst [weight]', ids 0..N-1,
first line may be '# nodes N edges M') or .bin (privim binary format).";

/// The help text, rendered from the flag tables.
pub fn usage() -> String {
    let mut out =
        "privim — differentially private GNNs for influence maximization\n\nUSAGE:\n".to_string();
    for (name, flags) in COMMANDS {
        push_wrapped(&mut out, format!("  privim {name:<8}"), flags);
    }
    out.push_str("  privim help\n\nGLOBAL FLAGS (any subcommand, anywhere on the line):\n");
    push_wrapped(&mut out, " ".to_string(), GLOBAL);
    out + NOTES
}

/// Appends `line` followed by `flags`, wrapped at 78 columns.
fn push_wrapped(out: &mut String, mut line: String, flags: &[Flag]) {
    for f in flags {
        let mut text = format!("--{} {}", f.name, f.hint).trim_end().to_string();
        if !f.required {
            text = format!("[{text}]");
        }
        if line.len() + 1 + text.len() > 78 && !line.trim().is_empty() {
            out.push_str(&line);
            out.push('\n');
            line = " ".repeat(17);
        }
        line = format!("{line} {text}");
    }
    out.push_str(&line);
    out.push('\n');
}

/// Strips the global flags from anywhere in the command line, returning
/// the remaining arguments (for [`parse_command`]) and the global flags.
pub fn split_obs_args(args: &[String]) -> Result<(Vec<String>, Flags), String> {
    let (obs, rest) = Flags::take(args, GLOBAL)?;
    obs.log_level()?;
    obs.chaos_kill()?;
    Ok((rest, obs))
}

/// Parses a dataset name.
pub fn parse_dataset(s: &str) -> Result<Dataset, String> {
    match s.to_ascii_lowercase().as_str() {
        "email" => Ok(Dataset::Email),
        "bitcoin" => Ok(Dataset::Bitcoin),
        "lastfm" => Ok(Dataset::LastFm),
        "hepph" => Ok(Dataset::HepPh),
        "facebook" => Ok(Dataset::Facebook),
        "gowalla" => Ok(Dataset::Gowalla),
        other => Err(format!("unknown dataset: {other}")),
    }
}

/// Parses a method name.
pub fn parse_method(s: &str) -> Result<Method, String> {
    match s.to_ascii_lowercase().as_str() {
        "privim*" | "privim-star" | "star" => Ok(Method::PrivImStar),
        "privim" => Ok(Method::PrivIm),
        "scs" | "privim+scs" => Ok(Method::PrivImScs),
        "egn" => Ok(Method::Egn),
        "hp" => Ok(Method::Hp),
        "hp-grat" | "hpgrat" => Ok(Method::HpGrat),
        "non-private" | "nonprivate" => Ok(Method::NonPrivate),
        other => Err(format!("unknown method: {other}")),
    }
}

/// Parses a model name.
pub fn parse_model(s: &str) -> Result<ModelKind, String> {
    match s.to_ascii_lowercase().as_str() {
        "grat" => Ok(ModelKind::Grat),
        "gcn" => Ok(ModelKind::Gcn),
        "gat" => Ok(ModelKind::Gat),
        "gin" => Ok(ModelKind::Gin),
        "sage" | "graphsage" => Ok(ModelKind::GraphSage),
        "mlp" => Ok(ModelKind::Mlp),
        other => Err(format!("unknown model: {other}")),
    }
}

/// The flags of one table given on a command line; a switch's value is
/// empty.
#[derive(Debug)]
pub struct Flags {
    table: &'static [Flag],
    given: Vec<(&'static str, String)>,
}

impl Flags {
    /// Takes every flag of `table` out of `args`, wherever it appears, and
    /// returns the arguments left over.
    fn take(args: &[String], table: &'static [Flag]) -> Result<(Flags, Vec<String>), String> {
        let mut flags = Flags {
            table,
            given: Vec::new(),
        };
        let mut rest = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let entry = arg
                .strip_prefix("--")
                .and_then(|name| table.iter().find(|f| f.name == name));
            let Some(f) = entry else {
                rest.push(arg.clone());
                continue;
            };
            if flags.has(f.name) {
                return Err(format!("--{} given twice", f.name));
            }
            let value = match f.kind {
                Switch => String::new(),
                kind => {
                    let v = it
                        .next()
                        .ok_or_else(|| format!("--{} needs a value", f.name))?;
                    kind.check(f.name, v)?;
                    v.clone()
                }
            };
            flags.given.push((f.name, value));
        }
        Ok((flags, rest))
    }

    /// Parses `args` against `table` alone: anything else is an error, and
    /// so is a missing required flag.
    fn parse(args: &[String], table: &'static [Flag]) -> Result<Flags, String> {
        let (flags, rest) = Flags::take(args, table)?;
        let mut unknown = Vec::new();
        let mut it = rest.iter();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, found {arg}"))?;
            unknown.push(name);
            it.next();
        }
        if !unknown.is_empty() {
            return Err(format!("unknown flags: {}", unknown.join(", ")));
        }
        match table.iter().find(|f| f.required && !flags.has(f.name)) {
            Some(f) => Err(format!("missing required --{}", f.name)),
            None => Ok(flags),
        }
    }

    pub fn str(&self, name: &str) -> Option<&str> {
        debug_assert!(self.table.iter().any(|f| f.name == name), "no --{name}");
        self.given
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn has(&self, name: &str) -> bool {
        self.str(name).is_some()
    }

    /// Refuses `a` together with `b` and, when `needed`, neither of them.
    fn exclusive(&self, cmd: &str, a: &str, b: &str, needed: bool) -> Result<(), String> {
        let hint = |name| {
            self.table
                .iter()
                .find(|f| f.name == name)
                .map_or("", |f| f.hint)
        };
        match (self.has(a), self.has(b)) {
            (true, true) => Err(format!("{cmd} takes --{a} or --{b}, not both")),
            (false, false) if needed => Err(format!(
                "{cmd} needs --{a} {} or --{b} {}",
                hint(a),
                hint(b)
            )),
            _ => Ok(()),
        }
    }

    /// The stderr event verbosity: `--log-level`, else `PRIVIM_LOG`;
    /// `--log-level off` silences both.
    pub fn log_level(&self) -> Result<Option<privim_obs::Level>, String> {
        match self.str("log-level") {
            Some(v) if v.eq_ignore_ascii_case("off") => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|e| format!("bad --log-level: {e}")),
            None => Ok(privim_obs::Level::from_env()),
        }
    }

    /// `--profile`, which `--profile-out` implies.
    pub fn profiling(&self) -> bool {
        self.has("profile") || self.has("profile-out")
    }

    /// `--chaos-kill site:hit`: kill the process at the `hit`-th pass of
    /// a fault site.
    pub fn chaos_kill(&self) -> Result<Option<(String, u64)>, String> {
        let Some(v) = self.str("chaos-kill") else {
            return Ok(None);
        };
        let (site, hit) = v
            .rsplit_once(':')
            .ok_or("--chaos-kill needs site:hit (e.g. checkpoint.write.mid:1)")?;
        let hit: u64 = hit
            .parse()
            .map_err(|e| format!("bad --chaos-kill hit count: {e}"))?;
        if site.is_empty() || hit == 0 {
            return Err("--chaos-kill needs a non-empty site and a hit count >= 1".into());
        }
        Ok(Some((site.to_string(), hit)))
    }

    fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.str(name)
            .map(|v| v.parse().map_err(|e| format!("bad --{name}: {e}")))
            .transpose()
    }

    /// A required flag's value.
    fn arg<T: FromStr>(&self, name: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        self.get(name)?
            .ok_or_else(|| format!("missing required --{name}"))
    }

    /// Overwrites `slot` when the flag is given.
    fn set<T: FromStr>(&self, name: &str, slot: &mut T) -> Result<(), String>
    where
        T::Err: Display,
    {
        if let Some(v) = self.get(name)? {
            *slot = v;
        }
        Ok(())
    }

    /// Overwrites `slot` with the flag's milliseconds, at least 1.
    fn set_ms(&self, name: &str, slot: &mut Duration) -> Result<(), String> {
        if let Some(ms) = self.get::<u64>(name)? {
            *slot = Duration::from_millis(ms.max(1));
        }
        Ok(())
    }

    /// A comma-separated list, trimmed, without empty items.
    fn list(&self, name: &str) -> Vec<String> {
        self.str(name)
            .unwrap_or_default()
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect()
    }
}

/// Parses a full command line (without the program name).
pub fn parse_command(args: &[String]) -> Result<Command, String> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        return Ok(Command::Help);
    }
    let Some((_, table)) = COMMANDS.iter().find(|(name, _)| name == cmd) else {
        return Err(format!("unknown command: {cmd}\n\n{}", usage()));
    };
    let f = Flags::parse(&args[1..], table)?;
    Ok(match cmd.as_str() {
        "generate" => Command::Generate {
            dataset: parse_dataset(&f.arg::<String>("dataset")?)?,
            scale: f.get("scale")?.unwrap_or(0.1),
            seed: f.get("seed")?.unwrap_or(42),
            output: f.arg("output")?,
        },
        "train" => {
            let store =
                match (f.get("resume")?, f.get("checkpoint-dir")?) {
                    (Some(_), Some(_)) => return Err(
                        "--resume already names the checkpoint directory; drop --checkpoint-dir"
                            .into(),
                    ),
                    (Some(dir), None) => Some((dir, true)),
                    (None, dir) => dir.map(|d| (d, false)),
                };
            // The CLI trains a smaller, faster model than the library's
            // defaults, and is non-private unless --epsilon is given.
            let mut config = PrivImConfig {
                epsilon: f.get("epsilon")?,
                iterations: 60,
                batch_size: 32,
                hidden: 16,
                subgraph_size: 20,
                hops: 2,
                learning_rate: 0.02,
                ..PrivImConfig::default()
            };
            if let Some(m) = f.str("model") {
                config.model = parse_model(m)?;
            }
            f.set("k", &mut config.seed_size)?;
            f.set("iterations", &mut config.iterations)?;
            let mut resume = ResumeOptions {
                checkpoint_every: 5,
                epsilon_budget: f.get("epsilon-budget")?,
                ..ResumeOptions::default()
            };
            f.set("checkpoint-every", &mut resume.checkpoint_every)?;
            f.set("keep", &mut resume.keep)?;
            f.set("budget-warn-fraction", &mut resume.budget_warn_fraction)?;
            if resume.epsilon_budget.is_some() && config.epsilon.is_none() {
                return Err("--epsilon-budget only applies to private runs; add --epsilon".into());
            }
            if resume.epsilon_budget.is_some() && store.is_none() {
                return Err("--epsilon-budget needs a crash-safe run so the halt can \
                            persist a checkpoint; add --checkpoint-dir or --resume"
                    .into());
            }
            Command::Train {
                graph: f.arg("graph")?,
                method: parse_method(f.str("method").unwrap_or("privim*"))?,
                seed: f.get("seed")?.unwrap_or(42),
                checkpoint: f.get("checkpoint")?,
                store,
                config,
                resume,
            }
        }
        "select" => Command::Select {
            graph: f.arg("graph")?,
            checkpoint: f.arg("checkpoint")?,
            k: f.get("k")?.unwrap_or(50),
        },
        "evaluate" => {
            let seeds: Result<Vec<u32>, _> = f
                .arg::<String>("seeds")?
                .split(',')
                .map(|s| s.trim().parse::<u32>())
                .collect();
            Command::Evaluate {
                graph: f.arg("graph")?,
                seeds: seeds.map_err(|e| format!("bad --seeds: {e}"))?,
                diffusion: DiffusionConfig::ic_with_steps(f.get("steps")?.unwrap_or(1)),
                trials: f.get("trials")?.unwrap_or(1000),
            }
        }
        "account" => Command::Account {
            epsilon: f.arg("epsilon")?,
            delta: f.get("delta")?.unwrap_or(1e-5),
            iterations: f.get("iterations")?.unwrap_or(60),
            sampling: SubsampledConfig {
                max_occurrences: f.get("occurrences")?.unwrap_or(4),
                batch_size: f.get("batch")?.unwrap_or(32),
                container_size: f.get("container")?.unwrap_or(100),
            },
            checkpoint: f.get("checkpoint")?,
        },
        "audit" => {
            let checkpoint_dirs = f.list("checkpoint-dirs");
            if checkpoint_dirs.is_empty() {
                return Err("--checkpoint-dirs needs at least one directory".into());
            }
            let attack = match f.str("attack").unwrap_or("both") {
                "membership" => Attack::Membership,
                "topology" => Attack::Topology,
                "both" => Attack::Both,
                other => return Err(format!("bad --attack: {other}")),
            };
            let mode = match f.str("mode").unwrap_or("white-box") {
                "white-box" | "whitebox" => Mode::WhiteBox,
                "black-box" | "blackbox" => Mode::BlackBox,
                "both" => Mode::Both,
                other => return Err(format!("bad --mode: {other}")),
            };
            let addr = f.get("addr")?;
            if mode != Mode::WhiteBox && addr.is_none() {
                return Err("black-box audits need --addr host:port of a live server".into());
            }
            Command::Audit {
                graph: f.arg("graph")?,
                checkpoint_dirs,
                json: f.get("json")?,
                config: AuditConfig {
                    attack,
                    mode,
                    seed: f.get("seed")?.unwrap_or(42),
                    low_fpr: f.get("low-fpr")?.unwrap_or(0.1),
                    max_pairs: f.get("max-pairs")?.unwrap_or(200_000),
                    addr,
                },
            }
        }
        "serve" => {
            f.exclusive("serve", "checkpoint", "follow", true)?;
            // In `--follow` mode checkpoints come from the store, not this
            // path; `App::from_parts` only reads the limit fields.
            let checkpoint = f.get::<String>("checkpoint")?.unwrap_or_default();
            let mut app = AppConfig::new(f.arg::<String>("graph")?, checkpoint);
            f.set("max-trials", &mut app.max_trials)?;
            f.set("spread-threads", &mut app.spread_threads)?;
            app.debug_endpoints |= f.has("debug-endpoints");
            let mut server = ServerConfig {
                addr: "127.0.0.1:7878".into(),
                ..ServerConfig::default()
            };
            f.set("addr", &mut server.addr)?;
            f.set("workers", &mut server.workers)?;
            f.set("queue-depth", &mut server.queue_depth)?;
            f.set_ms("deadline-ms", &mut server.deadline)?;
            f.set_ms("slow-ms", &mut server.slow_threshold)?;
            let mut slo = SloConfig::default();
            if let Some(ms) = f.get::<u64>("slo-target-ms")? {
                slo.target_p99_ms = ms as f64;
            }
            f.set("slo-window", &mut slo.window)?;
            f.set("slo-error-budget", &mut slo.error_budget)?;
            Command::Serve {
                app,
                server,
                slo,
                follow: f.get("follow")?,
                poll_ms: f.get("poll-ms")?.unwrap_or(1_000),
            }
        }
        "route" => {
            let mut router = RouterConfig {
                backends: f.list("backends"),
                ..RouterConfig::default()
            };
            if router.backends.is_empty() {
                return Err("--backends needs at least one host:port".into());
            }
            f.set("retries", &mut router.retries)?;
            if let Some(ms) = f.get("backoff-ms")? {
                router.backoff = Duration::from_millis(ms);
            }
            f.set_ms("timeout-ms", &mut router.timeout)?;
            router.hedge_after = f.get("hedge-ms")?.map(Duration::from_millis);
            f.set("breaker-failures", &mut router.breaker_failures)?;
            f.set_ms("breaker-cooldown-ms", &mut router.breaker_cooldown)?;
            f.set_ms("health-interval-ms", &mut router.health_interval)?;
            f.set("probe-down-after", &mut router.probe_down_after)?;
            f.set("seed", &mut router.seed)?;
            // The front-end deadline must outlive a full retry ladder:
            // every attempt's timeout plus the exponential backoffs between.
            let ms = |d: Duration| d.as_millis() as u64;
            let ladder = ms(router.timeout)
                .saturating_mul(u64::from(router.retries) + 2)
                .saturating_add(ms(router.backoff).saturating_mul(1 << router.retries.min(10)));
            let mut server = ServerConfig {
                addr: "127.0.0.1:7800".into(),
                deadline: Duration::from_millis(ladder),
                ..ServerConfig::default()
            };
            f.set("addr", &mut server.addr)?;
            f.set("workers", &mut server.workers)?;
            f.set("queue-depth", &mut server.queue_depth)?;
            Command::Route { router, server }
        }
        "chaos" => Command::Chaos(ChaosConfig {
            listen: f.arg("listen")?,
            upstream: f.arg("upstream")?,
            seed: f.get("seed")?.unwrap_or(0),
            fault_rate: f.get("fault-rate")?.unwrap_or(0.1),
        }),
        "monitor" => {
            f.exclusive("monitor", "input", "addr", true)?;
            Command::Monitor(match f.get("input")? {
                Some(path) => Source::File(path),
                None => Source::Live(f.arg("addr")?),
            })
        }
        _ => {
            let spans = f.list("spans");
            match (spans.is_empty(), f.has("addr")) {
                (true, false) => {
                    return Err(
                        "trace-view needs --spans <file>[,<file>...] or --addr host:port".into(),
                    )
                }
                (false, true) => return Err("trace-view takes --spans or --addr, not both".into()),
                _ => {}
            }
            f.exclusive("trace-view", "request-id", "trace", false)?;
            let trace: Option<String> = f.get("trace")?;
            if let Some(t) = &trace {
                if !(t.len() == 32 && t.bytes().all(|b| b.is_ascii_hexdigit())) {
                    return Err("--trace must be a 32-digit hex trace id".into());
                }
            }
            Command::TraceView(TraceViewArgs {
                spans,
                request_id: f.get("request-id")?,
                trace,
                addr: f.get("addr")?,
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use privim_im::models::DiffusionModel;

    fn parse(parts: &[&str]) -> Result<Command, String> {
        parse_command(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn split(parts: &[&str]) -> Result<(Vec<String>, Flags), String> {
        split_obs_args(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn empty_and_help() {
        assert!(matches!(parse(&[]).unwrap(), Command::Help));
        assert!(matches!(parse(&["help"]).unwrap(), Command::Help));
        assert!(matches!(parse(&["--help"]).unwrap(), Command::Help));
    }

    #[test]
    fn generate_round_trip() {
        let cmd = parse(&[
            "generate",
            "--dataset",
            "lastfm",
            "--scale",
            "0.2",
            "--output",
            "g.bin",
        ])
        .unwrap();
        match cmd {
            Command::Generate {
                dataset,
                scale,
                seed,
                output,
            } => {
                assert_eq!(dataset, Dataset::LastFm);
                assert_eq!(scale, 0.2);
                assert_eq!(seed, 42);
                assert_eq!(output, "g.bin");
            }
            other => panic!("{other:?}"),
        }
        match parse(&["generate", "--dataset", "email", "--output", "g.bin"]).unwrap() {
            Command::Generate { scale, seed, .. } => {
                assert_eq!(scale, 0.1);
                assert_eq!(seed, 42);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn train_defaults_and_overrides() {
        let cmd = parse(&["train", "--graph", "g.bin", "--epsilon", "3", "--k", "10"]).unwrap();
        match cmd {
            Command::Train { method, config, .. } => {
                assert_eq!(method, Method::PrivImStar);
                assert_eq!(config.model, ModelKind::Grat);
                assert_eq!(config.epsilon, Some(3.0));
                assert_eq!(config.seed_size, 10);
                assert_eq!(config.iterations, 60);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&[
            "train", "--graph", "g.bin", "--method", "hp-grat", "--model", "gcn",
        ])
        .unwrap();
        match cmd {
            Command::Train { method, config, .. } => {
                assert_eq!(method, Method::HpGrat);
                assert_eq!(config.model, ModelKind::Gcn);
                assert_eq!(config.epsilon, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn train_resume_flags() {
        let cmd = parse(&["train", "--graph", "g.bin"]).unwrap();
        match cmd {
            Command::Train {
                graph,
                method,
                seed,
                checkpoint,
                store,
                config,
                resume,
            } => {
                assert_eq!(graph, "g.bin");
                assert_eq!(method, Method::PrivImStar);
                assert_eq!(config.model, ModelKind::Grat);
                assert_eq!(config.epsilon, None, "no --epsilon is a non-private run");
                assert_eq!(config.seed_size, 50);
                assert_eq!(config.iterations, 60);
                assert_eq!(seed, 42);
                assert_eq!(checkpoint, None);
                assert_eq!(store, None);
                assert_eq!(resume.checkpoint_every, 5);
                assert_eq!(resume.keep, 3);
                assert_eq!(resume.epsilon_budget, None);
                assert_eq!(resume.budget_warn_fraction, 0.8);
                assert_eq!(resume.split, None);
                // The CLI's model: smaller and faster than the library's.
                assert_eq!(config.batch_size, 32);
                assert_eq!(config.hidden, 16);
                assert_eq!(config.subgraph_size, 20);
                assert_eq!(config.hops, 2);
                assert_eq!(config.learning_rate, 0.02);
                assert_eq!(
                    PrivImConfig {
                        epsilon: Some(4.0),
                        iterations: 40,
                        batch_size: 16,
                        hidden: 32,
                        subgraph_size: 40,
                        hops: 3,
                        learning_rate: 0.005,
                        ..config
                    },
                    PrivImConfig::default(),
                    "every other training knob is the library's"
                );
            }
            other => panic!("{other:?}"),
        }
        match parse(&["select", "--graph", "g.bin", "--checkpoint", "m.ckpt"]).unwrap() {
            Command::Select {
                graph,
                checkpoint,
                k,
            } => {
                assert_eq!(graph, "g.bin");
                assert_eq!(checkpoint, "m.ckpt");
                assert_eq!(k, 50);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&[
            "train",
            "--graph",
            "g.bin",
            "--checkpoint-dir",
            "ckpts",
            "--checkpoint-every",
            "2",
            "--keep",
            "4",
        ])
        .unwrap();
        match cmd {
            Command::Train { store, resume, .. } => {
                assert_eq!(store, Some(("ckpts".to_string(), false)));
                assert_eq!(resume.checkpoint_every, 2);
                assert_eq!(resume.keep, 4);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&["train", "--graph", "g.bin", "--resume", "ckpts"]).unwrap();
        match cmd {
            Command::Train { store, .. } => assert_eq!(store, Some(("ckpts".to_string(), true))),
            other => panic!("{other:?}"),
        }
        assert!(parse(&[
            "train",
            "--graph",
            "g",
            "--resume",
            "a",
            "--checkpoint-dir",
            "b",
        ])
        .unwrap_err()
        .contains("--resume"));
        assert!(parse(&["train", "--graph", "g", "--checkpoint-every", "0"])
            .unwrap_err()
            .contains("--checkpoint-every"));
        assert!(parse(&["train", "--graph", "g", "--keep", "0"])
            .unwrap_err()
            .contains("--keep"));
    }

    #[test]
    fn train_budget_flags() {
        let cmd = parse(&[
            "train",
            "--graph",
            "g.bin",
            "--epsilon",
            "4",
            "--checkpoint-dir",
            "ck",
            "--epsilon-budget",
            "2.5",
            "--budget-warn-fraction",
            "0.5",
        ])
        .unwrap();
        match cmd {
            Command::Train { resume, .. } => {
                assert_eq!(resume.epsilon_budget, Some(2.5));
                assert_eq!(resume.budget_warn_fraction, 0.5);
            }
            other => panic!("{other:?}"),
        }
        // A budget needs a private, crash-safe run.
        assert!(parse(&["train", "--graph", "g", "--epsilon-budget", "1"])
            .unwrap_err()
            .contains("--epsilon"));
        assert!(parse(&[
            "train",
            "--graph",
            "g",
            "--epsilon",
            "3",
            "--epsilon-budget",
            "1"
        ])
        .unwrap_err()
        .contains("--checkpoint-dir"));
        for bad in ["0", "-1", "inf", "nan"] {
            assert!(
                parse(&[
                    "train",
                    "--graph",
                    "g",
                    "--epsilon",
                    "3",
                    "--checkpoint-dir",
                    "ck",
                    "--epsilon-budget",
                    bad,
                ])
                .is_err(),
                "--epsilon-budget {bad} must be rejected"
            );
        }
        assert!(parse(&[
            "train",
            "--graph",
            "g",
            "--epsilon",
            "3",
            "--checkpoint-dir",
            "ck",
            "--epsilon-budget",
            "1",
            "--budget-warn-fraction",
            "1.5",
        ])
        .unwrap_err()
        .contains("--budget-warn-fraction"));
    }

    #[test]
    fn monitor_needs_exactly_one_source() {
        let cmd = parse(&["monitor", "--input", "run.jsonl"]).unwrap();
        assert!(matches!(cmd, Command::Monitor(Source::File(p)) if p == "run.jsonl"));
        let cmd = parse(&["monitor", "--addr", "127.0.0.1:7878"]).unwrap();
        assert!(matches!(cmd, Command::Monitor(Source::Live(a)) if a == "127.0.0.1:7878"));
        assert!(parse(&["monitor"]).unwrap_err().contains("--input"));
        assert!(
            parse(&["monitor", "--input", "a.jsonl", "--addr", "localhost:1",])
                .unwrap_err()
                .contains("not both")
        );
    }

    #[test]
    fn serve_slo_flags() {
        let cmd = parse(&["serve", "--graph", "g.bin", "--checkpoint", "m.json"]).unwrap();
        match cmd {
            Command::Serve { slo, .. } => {
                assert_eq!(slo.target_p99_ms, 250.0);
                assert_eq!(slo.window, 512);
                assert_eq!(slo.error_budget, 0.01);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&[
            "serve",
            "--graph",
            "g.bin",
            "--checkpoint",
            "m.json",
            "--slo-target-ms",
            "100",
            "--slo-window",
            "64",
            "--slo-error-budget",
            "0.05",
        ])
        .unwrap();
        match cmd {
            Command::Serve { slo, .. } => {
                assert_eq!(slo.target_p99_ms, 100.0);
                assert_eq!(slo.window, 64);
                assert_eq!(slo.error_budget, 0.05);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&[
            "serve",
            "--graph",
            "g",
            "--checkpoint",
            "m",
            "--slo-window",
            "0",
        ])
        .unwrap_err()
        .contains("--slo-window"));
        assert!(parse(&[
            "serve",
            "--graph",
            "g",
            "--checkpoint",
            "m",
            "--slo-error-budget",
            "1",
        ])
        .unwrap_err()
        .contains("--slo-error-budget"));
    }

    #[test]
    fn evaluate_parses_seed_list() {
        let cmd = parse(&["evaluate", "--graph", "g.txt", "--seeds", "1, 2,3"]).unwrap();
        match cmd {
            Command::Evaluate {
                graph,
                seeds,
                diffusion,
                trials,
            } => {
                assert_eq!(graph, "g.txt");
                assert_eq!(seeds, vec![1, 2, 3]);
                assert_eq!(diffusion.model, DiffusionModel::IndependentCascade);
                assert_eq!(diffusion.max_steps, Some(1));
                assert_eq!(trials, 1000);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_are_helpful() {
        assert!(parse(&["generate"]).unwrap_err().contains("--dataset"));
        assert!(parse(&["generate", "--dataset", "nope", "--output", "x"])
            .unwrap_err()
            .contains("unknown dataset"));
        assert!(parse(&["train", "--graph", "g", "--bogus", "1"])
            .unwrap_err()
            .contains("unknown flags"));
        assert!(parse(&["frobnicate"])
            .unwrap_err()
            .contains("unknown command"));
        assert!(parse(&["evaluate", "--graph", "g", "--seeds", "a,b"])
            .unwrap_err()
            .contains("bad --seeds"));
        assert!(parse(&["train", "--graph", "g", "stray"])
            .unwrap_err()
            .contains("expected --flag, found stray"));
    }

    #[test]
    fn method_and_model_aliases() {
        assert_eq!(parse_method("PRIVIM*").unwrap(), Method::PrivImStar);
        assert_eq!(parse_method("non-private").unwrap(), Method::NonPrivate);
        assert_eq!(parse_model("sage").unwrap(), ModelKind::GraphSage);
        assert!(parse_model("transformer").is_err());
    }

    #[test]
    fn obs_flags_are_split_from_any_position() {
        let (rest, obs) = split(&[
            "train",
            "--log-level",
            "debug",
            "--graph",
            "g.bin",
            "--telemetry-out",
            "run.jsonl",
            "--profile",
            "--metrics-out",
            "m.prom",
            "--report-out",
            "r.html",
        ])
        .unwrap();
        assert_eq!(obs.log_level().unwrap(), Some(privim_obs::Level::Debug));
        assert_eq!(obs.str("telemetry-out"), Some("run.jsonl"));
        assert!(obs.profiling());
        assert_eq!(obs.str("profile-out"), None);
        assert_eq!(obs.str("metrics-out"), Some("m.prom"));
        assert_eq!(obs.str("report-out"), Some("r.html"));
        assert_eq!(rest, vec!["train", "--graph", "g.bin"]);
        // The remaining args still parse as a normal train command.
        match parse_command(&rest).unwrap() {
            Command::Train { graph, .. } => assert_eq!(graph, "g.bin"),
            other => panic!("{other:?}"),
        }
        // Before the subcommand too.
        let (rest, obs) = split(&["--profile", "account", "--epsilon", "2"]).unwrap();
        assert!(obs.profiling());
        assert_eq!(rest, vec!["account", "--epsilon", "2"]);
    }

    #[test]
    fn recorder_and_chaos_kill_flags_parse() {
        let (rest, obs) = split(&[
            "train",
            "--graph",
            "g.bin",
            "--recorder-out",
            "dump.jsonl",
            "--chaos-kill",
            "checkpoint.write.mid:2",
        ])
        .unwrap();
        assert_eq!(obs.str("recorder-out"), Some("dump.jsonl"));
        assert_eq!(
            obs.chaos_kill().unwrap(),
            Some(("checkpoint.write.mid".to_string(), 2))
        );
        assert_eq!(rest, vec!["train", "--graph", "g.bin"]);
        for bad in ["nosite", "site:0", ":1", "site:x"] {
            assert!(
                split(&["help", "--chaos-kill", bad]).is_err(),
                "{bad} must be rejected"
            );
        }
    }

    #[test]
    fn profile_out_implies_profile() {
        let (_, obs) = split(&["help", "--profile-out", "flame.txt"]).unwrap();
        assert!(obs.profiling(), "--profile-out must enable the profiler");
        assert_eq!(obs.str("profile-out"), Some("flame.txt"));
        assert!(split(&["--metrics-out"])
            .unwrap_err()
            .contains("--metrics-out"));
    }

    #[test]
    fn obs_flags_default_to_absent_and_off_disables() {
        let (rest, obs) = split(&["account", "--epsilon", "2"]).unwrap();
        assert!(GLOBAL.iter().all(|g| !obs.has(g.name)));
        assert!(!obs.profiling());
        assert_eq!(obs.chaos_kill().unwrap(), None);
        assert_eq!(rest.len(), 3);
        let (_, obs) = split(&["help", "--log-level", "off"]).unwrap();
        assert_eq!(obs.log_level().unwrap(), None, "off beats PRIVIM_LOG");
        assert!(split(&["--log-level"]).unwrap_err().contains("--log-level"));
    }

    #[test]
    fn serve_defaults_and_overrides() {
        let cmd = parse(&["serve", "--graph", "g.bin", "--checkpoint", "m.json"]).unwrap();
        match cmd {
            Command::Serve {
                app,
                server,
                follow,
                poll_ms,
                ..
            } => {
                assert_eq!(app.graph, "g.bin");
                assert_eq!(app.checkpoint, "m.json");
                assert_eq!(follow, None);
                assert_eq!(poll_ms, 1_000);
                assert_eq!(server.addr, "127.0.0.1:7878");
                assert_eq!(server.workers, 4);
                assert_eq!(server.queue_depth, 64);
                assert_eq!(server.deadline, Duration::from_millis(10_000));
                assert_eq!(app.max_trials, 100_000);
                assert_eq!(app.spread_threads, 2);
                assert_eq!(server.slow_threshold, Duration::from_millis(1_000));
                assert_eq!(server.max_body, 1 << 20);
                assert!(!app.debug_endpoints, "debug endpoints default off");
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&[
            "serve",
            "--graph",
            "g.bin",
            "--checkpoint",
            "m.json",
            "--addr",
            "0.0.0.0:80",
            "--workers",
            "8",
            "--queue-depth",
            "128",
            "--deadline-ms",
            "250",
        ])
        .unwrap();
        match cmd {
            Command::Serve { server, .. } => {
                assert_eq!(server.addr, "0.0.0.0:80");
                assert_eq!(server.workers, 8);
                assert_eq!(server.queue_depth, 128);
                assert_eq!(server.deadline, Duration::from_millis(250));
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&[
            "serve",
            "--graph",
            "g.bin",
            "--debug-endpoints",
            "--checkpoint",
            "m.json",
            "--slow-ms",
            "250",
            "--deadline-ms",
            "0",
        ])
        .unwrap();
        match cmd {
            Command::Serve { app, server, .. } => {
                assert!(app.debug_endpoints);
                assert_eq!(server.slow_threshold, Duration::from_millis(250));
                assert_eq!(server.deadline, Duration::from_millis(1), "clamped to 1 ms");
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&["serve", "--graph", "g.bin"])
            .unwrap_err()
            .contains("--checkpoint"));
        assert!(
            parse(&["serve", "--graph", "g", "--checkpoint", "m", "--bogus", "1"])
                .unwrap_err()
                .contains("unknown flags")
        );
    }

    #[test]
    fn serve_follow_mode() {
        let cmd = parse(&[
            "serve",
            "--graph",
            "g.bin",
            "--follow",
            "ckpts",
            "--poll-ms",
            "200",
        ])
        .unwrap();
        match cmd {
            Command::Serve {
                app,
                follow,
                poll_ms,
                ..
            } => {
                assert_eq!(app.checkpoint, "");
                assert_eq!(follow.as_deref(), Some("ckpts"));
                assert_eq!(poll_ms, 200);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&[
            "serve",
            "--graph",
            "g",
            "--checkpoint",
            "m",
            "--follow",
            "d",
        ])
        .unwrap_err()
        .contains("not both"));
        assert!(
            parse(&["serve", "--graph", "g", "--follow", "d", "--poll-ms", "0",])
                .unwrap_err()
                .contains("--poll-ms")
        );
    }

    #[test]
    fn route_defaults_and_overrides() {
        let cmd = parse(&["route", "--backends", "127.0.0.1:1, 127.0.0.1:2"]).unwrap();
        match cmd {
            Command::Route { router, server } => {
                assert_eq!(router.backends, vec!["127.0.0.1:1", "127.0.0.1:2"]);
                assert_eq!(server.addr, "127.0.0.1:7800");
                assert_eq!(router.retries, 2);
                assert_eq!(router.backoff, Duration::from_millis(50));
                assert_eq!(router.timeout, Duration::from_millis(10_000));
                assert_eq!(router.hedge_after, None);
                assert_eq!(router.breaker_failures, 3);
                assert_eq!(router.breaker_cooldown, Duration::from_millis(1_000));
                assert_eq!(router.health_interval, Duration::from_millis(500));
                assert_eq!(router.probe_down_after, 2);
                assert_eq!(router.seed, 0);
                assert_eq!(server.workers, 4);
                assert_eq!(server.queue_depth, 64);
                // 10 s × (2 retries + 2) + 50 ms × 2^2.
                assert_eq!(server.deadline, Duration::from_millis(40_200));
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&[
            "route",
            "--backends",
            "127.0.0.1:9",
            "--hedge-ms",
            "30",
            "--retries",
            "5",
            "--probe-down-after",
            "3",
            "--timeout-ms",
            "0",
        ])
        .unwrap();
        match cmd {
            Command::Route { router, server } => {
                assert_eq!(router.hedge_after, Some(Duration::from_millis(30)));
                assert_eq!(router.retries, 5);
                assert_eq!(router.probe_down_after, 3);
                assert_eq!(router.timeout, Duration::from_millis(1));
                assert_eq!(server.deadline, Duration::from_millis(7 + 50 * 32));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&["route"]).unwrap_err().contains("--backends"));
        assert!(parse(&["route", "--backends", " , "])
            .unwrap_err()
            .contains("at least one"));
        assert!(
            parse(&["route", "--backends", "a:1", "--breaker-failures", "0"])
                .unwrap_err()
                .contains("--breaker-failures")
        );
    }

    #[test]
    fn chaos_defaults_and_bounds() {
        let cmd = parse(&[
            "chaos",
            "--listen",
            "127.0.0.1:0",
            "--upstream",
            "127.0.0.1:7878",
        ])
        .unwrap();
        match cmd {
            Command::Chaos(c) => {
                assert_eq!(c.listen, "127.0.0.1:0");
                assert_eq!(c.upstream, "127.0.0.1:7878");
                assert_eq!(c.seed, 0);
                assert_eq!(c.fault_rate, 0.1);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&[
            "chaos",
            "--listen",
            "a:1",
            "--upstream",
            "b:2",
            "--fault-rate",
            "1.5",
        ])
        .unwrap_err()
        .contains("--fault-rate"));
        assert!(parse(&["chaos", "--listen", "a:1"])
            .unwrap_err()
            .contains("upstream"));
    }

    #[test]
    fn trace_view_sources_and_filters() {
        let view = |parts: &[&str]| match parse(parts).unwrap() {
            Command::TraceView(a) => a,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            view(&["trace-view", "--spans", "router.jsonl, serve.jsonl"]),
            TraceViewArgs {
                spans: vec!["router.jsonl".into(), "serve.jsonl".into()],
                request_id: None,
                trace: None,
                addr: None,
            }
        );
        assert_eq!(
            view(&[
                "trace-view",
                "--addr",
                "127.0.0.1:7800",
                "--request-id",
                "req-42",
            ]),
            TraceViewArgs {
                spans: Vec::new(),
                request_id: Some("req-42".into()),
                trace: None,
                addr: Some("127.0.0.1:7800".into()),
            }
        );
        let hex = "0123456789abcdef0123456789abcdef";
        let a = view(&["trace-view", "--spans", "a.jsonl", "--trace", hex]);
        assert_eq!(a.trace.as_deref(), Some(hex));
        assert!(parse(&["trace-view"]).unwrap_err().contains("--spans"));
        assert!(
            parse(&["trace-view", "--spans", "a.jsonl", "--addr", "h:1"])
                .unwrap_err()
                .contains("not both")
        );
        assert!(
            parse(&["trace-view", "--spans", "a.jsonl", "--trace", "zz"])
                .unwrap_err()
                .contains("--trace")
        );
        assert!(parse(&[
            "trace-view",
            "--spans",
            "a.jsonl",
            "--trace",
            hex,
            "--request-id",
            "x",
        ])
        .unwrap_err()
        .contains("not both"));
    }

    #[test]
    fn span_export_flag_is_split() {
        let (rest, obs) =
            split(&["route", "--backends", "a:1", "--span-export", "spans.jsonl"]).unwrap();
        assert_eq!(obs.str("span-export"), Some("spans.jsonl"));
        assert_eq!(rest, vec!["route", "--backends", "a:1"]);
        assert!(split(&["--span-export"])
            .unwrap_err()
            .contains("--span-export"));
    }

    #[test]
    fn account_defaults() {
        let cmd = parse(&["account", "--epsilon", "2.5"]).unwrap();
        match cmd {
            Command::Account {
                epsilon,
                delta,
                iterations,
                sampling,
                checkpoint,
            } => {
                assert_eq!(epsilon, 2.5);
                assert_eq!(delta, 1e-5);
                assert_eq!(iterations, 60);
                assert_eq!(sampling.batch_size, 32);
                assert_eq!(sampling.container_size, 100);
                assert_eq!(sampling.max_occurrences, 4);
                assert_eq!(checkpoint, None);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&["account", "--epsilon", "2", "--checkpoint", "m.json"]).unwrap();
        match cmd {
            Command::Account { checkpoint, .. } => {
                assert_eq!(checkpoint.as_deref(), Some("m.json"))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn audit_defaults_and_overrides() {
        let cmd = parse(&["audit", "--graph", "g.bin", "--checkpoint-dirs", "ck"]).unwrap();
        match cmd {
            Command::Audit {
                graph,
                checkpoint_dirs,
                json,
                config,
            } => {
                assert_eq!(graph, "g.bin");
                assert_eq!(checkpoint_dirs, vec!["ck".to_string()]);
                assert_eq!(config.attack, Attack::Both);
                assert_eq!(config.mode, Mode::WhiteBox);
                assert_eq!(config.addr, None);
                assert_eq!(config.seed, 42);
                assert_eq!(json, None);
                assert_eq!(config.low_fpr, 0.1);
                assert_eq!(config.max_pairs, 200_000);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&[
            "audit",
            "--graph",
            "g.bin",
            "--checkpoint-dirs",
            "loose, tight",
            "--attack",
            "membership",
            "--mode",
            "black-box",
            "--addr",
            "127.0.0.1:7878",
            "--seed",
            "7",
            "--json",
            "audit.json",
            "--low-fpr",
            "0.05",
            "--max-pairs",
            "5000",
        ])
        .unwrap();
        match cmd {
            Command::Audit {
                checkpoint_dirs,
                json,
                config,
                ..
            } => {
                assert_eq!(
                    checkpoint_dirs,
                    vec!["loose".to_string(), "tight".to_string()]
                );
                assert_eq!(config.attack, Attack::Membership);
                assert_eq!(config.mode, Mode::BlackBox);
                assert_eq!(config.addr.as_deref(), Some("127.0.0.1:7878"));
                assert_eq!(config.seed, 7);
                assert_eq!(json.as_deref(), Some("audit.json"));
                assert_eq!(config.low_fpr, 0.05);
                assert_eq!(config.max_pairs, 5000);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn audit_rejects_bad_combinations() {
        // Black-box without a server address is meaningless.
        assert!(parse(&[
            "audit",
            "--graph",
            "g",
            "--checkpoint-dirs",
            "ck",
            "--mode",
            "black-box",
        ])
        .unwrap_err()
        .contains("--addr"));
        assert!(parse(&["audit", "--graph", "g", "--checkpoint-dirs", ","])
            .unwrap_err()
            .contains("--checkpoint-dirs"));
        assert!(parse(&[
            "audit",
            "--graph",
            "g",
            "--checkpoint-dirs",
            "ck",
            "--attack",
            "bogus",
        ])
        .unwrap_err()
        .contains("bad --attack"));
        for bad in ["0", "1", "-0.5"] {
            assert!(
                parse(&[
                    "audit",
                    "--graph",
                    "g",
                    "--checkpoint-dirs",
                    "ck",
                    "--low-fpr",
                    bad,
                ])
                .is_err(),
                "--low-fpr {bad} must be rejected"
            );
        }
        assert!(parse(&[
            "audit",
            "--graph",
            "g",
            "--checkpoint-dirs",
            "ck",
            "--max-pairs",
            "0",
        ])
        .unwrap_err()
        .contains("--max-pairs"));
    }

    #[test]
    fn usage_names_every_table_flag_and_no_other() {
        let text = usage();
        let named: std::collections::BTreeSet<&str> = text
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter_map(|w| w.strip_prefix("--"))
            .collect();
        let tables: std::collections::BTreeSet<&str> = COMMANDS
            .iter()
            .flat_map(|(_, flags)| flags.iter())
            .chain(GLOBAL)
            .map(|f| f.name)
            .collect();
        assert_eq!(named, tables);
        for (name, flags) in COMMANDS {
            assert!(text.contains(&format!("privim {name}")), "{name}");
            for f in *flags {
                let shown = format!("--{} {}", f.name, f.hint);
                assert!(text.contains(shown.trim_end()), "{name} {shown}");
            }
        }
    }
}
