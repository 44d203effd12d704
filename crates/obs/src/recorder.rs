//! The black-box flight recorder: bounded, lossy, per-thread rings of
//! the most recent events, dumped when the process is about to die.
//!
//! Sinks answer "what happened during the run" — but only if the run
//! lives long enough to flush them. The recorder answers "what were the
//! last things this process did" when it does not: each thread owns a
//! [`Ring`] of [`RING_CAPACITY`] entries, reserved at registration,
//! that captures every emitted event even when no sink is installed.
//! The steady-state push is one relaxed `fetch_add` for the global
//! sequence stamp plus an uncontended `try_lock` and a by-value slot
//! write — no allocation: messages and a `k=v` field summary are copied
//! into fixed inline buffers, truncated at a UTF-8 boundary. If the try_lock ever loses to a concurrent dump,
//! the entry is dropped; the recorder is lossy by contract, and each
//! ring's push count makes the wrap-around loss visible in the dump
//! header.
//!
//! Dumps — triggered by the panic hook ([`FlightRecorder::install_panic_hook`]),
//! by fault-injection kill sites (`record_kill_site`), or by the
//! process's signal loop on SIGTERM — merge all rings in global push
//! order and write one JSON object per line, so a crashed run's final
//! moments are machine-parseable (`RunTelemetry::from_jsonl` skips the
//! recorder-only lines; the chaos suite asserts the tail names the kill
//! site).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once};

use crate::event::Event;
use crate::json::{object, JsonValue, ToJson};
use crate::level::Level;
use crate::ring::Ring;

/// Entries each thread's ring retains (the newest ones win).
pub const RING_CAPACITY: usize = 256;
/// Inline bytes kept of an event message.
const MSG_CAP: usize = 64;
/// Inline bytes kept of the rendered `k=v` field summary.
const DETAIL_CAP: usize = 120;

/// One recorded entry. Fixed-size and `Copy`: pushing it is a slot write.
#[derive(Clone, Copy)]
struct RecEntry {
    seq: u64,
    ts_micros: u64,
    level: Level,
    target: &'static str,
    trace_id: u128,
    span_id: u64,
    parent_span_id: u64,
    msg_len: u8,
    msg: [u8; MSG_CAP],
    detail_len: u8,
    detail: [u8; DETAIL_CAP],
}

impl RecEntry {
    fn blank() -> RecEntry {
        RecEntry {
            seq: 0,
            ts_micros: 0,
            level: Level::Info,
            target: "",
            trace_id: 0,
            span_id: 0,
            parent_span_id: 0,
            msg_len: 0,
            msg: [0; MSG_CAP],
            detail_len: 0,
            detail: [0; DETAIL_CAP],
        }
    }

    fn msg_str(&self) -> &str {
        // Inline buffers are filled by `copy_truncated`, which cuts only
        // at UTF-8 boundaries, so this cannot fail.
        std::str::from_utf8(&self.msg[..self.msg_len as usize]).unwrap_or("")
    }

    fn detail_str(&self) -> &str {
        std::str::from_utf8(&self.detail[..self.detail_len as usize]).unwrap_or("")
    }
}

/// Copies `s` into `buf`, truncating at a char boundary; returns the
/// stored length. No allocation.
fn copy_truncated(s: &str, buf: &mut [u8]) -> u8 {
    let mut take = s.len().min(buf.len());
    while take > 0 && !s.is_char_boundary(take) {
        take -= 1;
    }
    buf[..take].copy_from_slice(&s.as_bytes()[..take]);
    take as u8
}

/// `fmt::Write` into a fixed buffer, silently truncating at the end —
/// the zero-allocation path for rendering field summaries.
struct FixedWriter<'a> {
    buf: &'a mut [u8],
    len: usize,
}

impl std::fmt::Write for FixedWriter<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let room = self.buf.len() - self.len;
        let mut take = s.len().min(room);
        while take > 0 && !s.is_char_boundary(take) {
            take -= 1;
        }
        self.buf[self.len..self.len + take].copy_from_slice(&s.as_bytes()[..take]);
        self.len += take;
        Ok(())
    }
}

/// One thread's ring, reserved at registration.
struct ThreadRing {
    thread: String,
    entries: Ring<RecEntry>,
}

static RECORDING: AtomicBool = AtomicBool::new(false);
static GLOBAL_SEQ: AtomicU64 = AtomicU64::new(1);
static RINGS: Mutex<Vec<Arc<Mutex<ThreadRing>>>> = Mutex::new(Vec::new());
static DUMP_PATH: Mutex<Option<PathBuf>> = Mutex::new(None);

thread_local! {
    static LOCAL_RING: Arc<Mutex<ThreadRing>> = register_ring();
}

fn register_ring() -> Arc<Mutex<ThreadRing>> {
    let thread = std::thread::current()
        .name()
        .map(str::to_string)
        .unwrap_or_else(|| format!("thread-{:?}", std::thread::current().id()));
    let ring = Arc::new(Mutex::new(ThreadRing {
        thread,
        entries: Ring::with_capacity(RING_CAPACITY),
    }));
    RINGS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(ring.clone());
    ring
}

/// True when the recorder would capture an event at `level`. The
/// `event!` macros OR this with [`crate::enabled`], so capture works
/// with every sink disabled. `Trace`-level spam stays out of the rings.
#[inline]
pub fn recorder_wants(level: Level) -> bool {
    RECORDING.load(Ordering::Relaxed) && (level as u8) <= (Level::Debug as u8)
}

/// Captures one emitted event into the calling thread's ring.
pub(crate) fn record_event(event: &Event) {
    if !recorder_wants(event.level) {
        return;
    }
    let mut entry = RecEntry::blank();
    entry.seq = GLOBAL_SEQ.fetch_add(1, Ordering::Relaxed);
    entry.ts_micros = event.ts_micros;
    entry.level = event.level;
    entry.target = event.target;
    if let Some(ctx) = event.trace {
        entry.trace_id = ctx.trace_id;
        entry.span_id = ctx.span_id;
        entry.parent_span_id = ctx.parent_span_id.unwrap_or(0);
    }
    entry.msg_len = copy_truncated(&event.message, &mut entry.msg);
    let mut w = FixedWriter {
        buf: &mut entry.detail,
        len: 0,
    };
    for (i, (k, v)) in event.fields.iter().enumerate() {
        let _ = write!(w, "{}{k}={v}", if i == 0 { "" } else { " " });
    }
    entry.detail_len = w.len as u8;
    push_local(entry);
}

fn push_local(entry: RecEntry) {
    LOCAL_RING.with(|ring| {
        // A dump in progress holds the lock; losing this entry is the
        // documented trade for never blocking the instrumented thread.
        if let Ok(mut ring) = ring.try_lock() {
            ring.entries.push(entry);
        }
    });
}

/// One entry of a recorder dump, decoded back to owned strings.
#[derive(Debug, Clone, PartialEq)]
pub struct DumpEntry {
    /// Global push sequence number (total order across threads).
    pub seq: u64,
    /// Microseconds since process start, from the emitting event.
    pub ts_micros: u64,
    /// Severity.
    pub level: Level,
    /// Emitting subsystem.
    pub target: String,
    /// Event message (truncated to the ring's inline storage).
    pub message: String,
    /// Rendered `k=v` field summary (truncated).
    pub detail: String,
    /// Active trace id at emission (0 = none).
    pub trace_id: u128,
    /// Active span id at emission (0 = none).
    pub span_id: u64,
    /// Parent of the active span (0 = root of its trace).
    pub parent_span_id: u64,
    /// Name of the thread that recorded the entry.
    pub thread: String,
}

impl DumpEntry {
    /// Serializes to one JSONL line (no trailing newline). The shape
    /// mirrors [`Event::to_json_line`] closely enough that generic JSONL
    /// tooling — and `RunTelemetry::from_jsonl` — parses it.
    pub fn to_json_line(&self) -> String {
        let mut entries = vec![
            ("seq", self.seq.to_json_value()),
            ("ts_us", self.ts_micros.to_json_value()),
            ("level", self.level.as_str().to_json_value()),
            ("target", self.target.to_json_value()),
            ("message", self.message.to_json_value()),
            ("detail", self.detail.to_json_value()),
            ("thread", self.thread.to_json_value()),
        ];
        if self.trace_id != 0 {
            entries.push((
                "trace_id",
                JsonValue::Str(format!("{:032x}", self.trace_id)),
            ));
            entries.push(("span_id", JsonValue::Str(format!("{:016x}", self.span_id))));
            if self.parent_span_id != 0 {
                let parent = format!("{:016x}", self.parent_span_id);
                entries.push(("parent_span_id", JsonValue::Str(parent)));
            }
        }
        object(entries).to_json()
    }
}

/// The process-wide flight recorder (a facade over per-thread rings;
/// there is exactly one per process).
pub struct FlightRecorder;

impl FlightRecorder {
    /// Starts capturing. Idempotent; capture is independent of sinks.
    pub fn arm() {
        RECORDING.store(true, Ordering::Relaxed);
    }

    /// Stops capturing (existing ring contents are kept).
    pub fn disarm() {
        RECORDING.store(false, Ordering::Relaxed);
    }

    /// True while capturing.
    pub fn armed() -> bool {
        RECORDING.load(Ordering::Relaxed)
    }

    /// Sets (or clears) the file every dump trigger writes to.
    pub fn set_dump_path(path: Option<PathBuf>) {
        *DUMP_PATH.lock().unwrap_or_else(|e| e.into_inner()) = path;
    }

    /// The configured dump file, if any.
    pub fn dump_path() -> Option<PathBuf> {
        DUMP_PATH.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Clears every ring's contents (capacity and registration stay).
    pub fn reset() {
        for ring in RINGS.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            let mut ring = ring.lock().unwrap_or_else(|e| e.into_inner());
            ring.entries.clear();
        }
    }

    /// Pushes a synthetic entry (e.g. "about to die at site X") into the
    /// calling thread's ring, recorder armed or not.
    pub fn note(target: &'static str, message: &str, detail: &str) {
        let mut entry = RecEntry::blank();
        entry.seq = GLOBAL_SEQ.fetch_add(1, Ordering::Relaxed);
        entry.ts_micros = crate::clock::now_micros();
        entry.level = Level::Warn;
        entry.target = target;
        if let Some(ctx) = crate::trace::current_trace() {
            entry.trace_id = ctx.trace_id;
            entry.span_id = ctx.span_id;
            entry.parent_span_id = ctx.parent_span_id.unwrap_or(0);
        }
        entry.msg_len = copy_truncated(message, &mut entry.msg);
        entry.detail_len = copy_truncated(detail, &mut entry.detail);
        push_local(entry);
    }

    /// Snapshots every ring, merged oldest-first by global sequence.
    pub fn dump() -> Vec<DumpEntry> {
        let rings = RINGS.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::new();
        for ring in rings.iter() {
            let ring = ring.lock().unwrap_or_else(|e| e.into_inner());
            for entry in ring.entries.iter() {
                out.push(DumpEntry {
                    seq: entry.seq,
                    ts_micros: entry.ts_micros,
                    level: entry.level,
                    target: entry.target.to_string(),
                    message: entry.msg_str().to_string(),
                    detail: entry.detail_str().to_string(),
                    trace_id: entry.trace_id,
                    span_id: entry.span_id,
                    parent_span_id: entry.parent_span_id,
                    thread: ring.thread.clone(),
                });
            }
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Total entries lost to ring wrap-around, across all threads
    /// (visible in the dump header for loss accounting).
    pub fn dropped() -> u64 {
        let rings = RINGS.lock().unwrap_or_else(|e| e.into_inner());
        rings
            .iter()
            .map(|r| {
                let r = r.lock().unwrap_or_else(|e| e.into_inner());
                r.entries.pushed() - r.entries.len() as u64
            })
            .sum()
    }

    /// Renders a full dump as JSONL: one header object naming `reason`
    /// and the loss count, then one object per entry, oldest first.
    pub fn dump_jsonl(reason: &str) -> String {
        let entries = FlightRecorder::dump();
        let mut out = object([
            ("recorder", "flight_dump".to_json_value()),
            ("reason", reason.to_json_value()),
            ("entries", entries.len().to_json_value()),
            ("dropped", FlightRecorder::dropped().to_json_value()),
        ])
        .to_json();
        out.push('\n');
        for entry in &entries {
            out.push_str(&entry.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Writes [`FlightRecorder::dump_jsonl`] to `path`.
    pub fn dump_to_file(path: &Path, reason: &str) -> std::io::Result<()> {
        std::fs::write(path, FlightRecorder::dump_jsonl(reason))
    }

    /// Dumps to the configured dump path, if one is set. Best-effort:
    /// returns the path written, `None` if unset or the write failed —
    /// a crash-path helper must never introduce a second failure.
    pub fn dump_now(reason: &str) -> Option<PathBuf> {
        let path = FlightRecorder::dump_path()?;
        match FlightRecorder::dump_to_file(&path, reason) {
            Ok(()) => Some(path),
            Err(_) => None,
        }
    }

    /// Installs a panic hook (once) that records the panic message and
    /// dumps to the configured path before the previous hook runs.
    pub fn install_panic_hook() {
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let msg = info.to_string();
                FlightRecorder::note("recorder", "panic", &msg);
                let _ = FlightRecorder::dump_now("panic");
                prev(info);
            }));
        });
    }
}

/// Records that an injected kill is about to fire at `site` and dumps to
/// the configured path. Called by the fault layer so every simulated
/// SIGKILL leaves the same forensics a real one would; the dump's final
/// entry names the site.
pub(crate) fn record_kill_site(site: &str) {
    if !RECORDING.load(Ordering::Relaxed) {
        return;
    }
    FlightRecorder::note("recorder", "kill", &format!("site={site}"));
    let _ = FlightRecorder::dump_now("kill");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceContext;

    // Recording and rings are process-global; serialize with the same
    // lock the sink tests use so the macro-gating test stays valid.
    fn locked() -> std::sync::MutexGuard<'static, ()> {
        crate::sink::global_sink_lock()
    }

    fn entry_for(message: &str) -> Option<DumpEntry> {
        FlightRecorder::dump()
            .into_iter()
            .find(|e| e.message == message)
    }

    #[test]
    fn captures_events_with_no_sink_installed() {
        let _g = locked();
        crate::take_sinks();
        FlightRecorder::reset();
        FlightRecorder::arm();
        assert!(!crate::enabled(Level::Error), "no sink is installed");
        crate::info!("rec_test", "captured_without_sinks", n = 3u64, ok = true);
        FlightRecorder::disarm();
        let e = entry_for("captured_without_sinks").expect("recorder captured");
        assert_eq!(e.target, "rec_test");
        assert_eq!(e.detail, "n=3 ok=true");
        assert_eq!(e.trace_id, 0, "no active trace");
    }

    #[test]
    fn disarmed_recorder_captures_nothing() {
        let _g = locked();
        crate::take_sinks();
        FlightRecorder::reset();
        FlightRecorder::disarm();
        crate::info!("rec_test", "not_captured");
        assert!(entry_for("not_captured").is_none());
    }

    #[test]
    fn ring_wraps_and_counts_loss() {
        let _g = locked();
        crate::take_sinks();
        FlightRecorder::reset();
        FlightRecorder::arm();
        for i in 0..(RING_CAPACITY + 50) {
            crate::info!("rec_wrap", "w", i = i);
        }
        FlightRecorder::disarm();
        let entries: Vec<DumpEntry> = FlightRecorder::dump()
            .into_iter()
            .filter(|e| e.target == "rec_wrap")
            .collect();
        assert_eq!(entries.len(), RING_CAPACITY, "ring is bounded");
        assert_eq!(
            entries.last().unwrap().detail,
            format!("i={}", RING_CAPACITY + 49),
            "newest entries survive"
        );
        assert!(FlightRecorder::dropped() >= 50, "loss is accounted");
        // seq strictly increases through the merged dump.
        assert!(entries.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn entries_carry_the_active_trace() {
        let _g = locked();
        crate::take_sinks();
        FlightRecorder::reset();
        FlightRecorder::arm();
        let ctx = TraceContext::from_seed(77);
        {
            let _t = ctx.enter();
            crate::info!("rec_trace", "traced");
            let child = ctx.child();
            let _c = child.enter();
            crate::info!("rec_trace", "traced_child");
        }
        FlightRecorder::disarm();
        let e = entry_for("traced").unwrap();
        assert_eq!(e.trace_id, ctx.trace_id);
        assert_eq!(e.span_id, ctx.span_id);
        assert_eq!(e.parent_span_id, 0, "root span has no parent");
        let line = e.to_json_line();
        assert!(line.contains(&ctx.trace_id_hex()), "{line}");
        let c = entry_for("traced_child").unwrap();
        assert_eq!(c.trace_id, ctx.trace_id);
        assert_eq!(c.parent_span_id, ctx.span_id, "child links to parent");
        assert!(c.to_json_line().contains("parent_span_id"));
    }

    #[test]
    fn long_messages_truncate_at_char_boundaries() {
        let _g = locked();
        crate::take_sinks();
        FlightRecorder::reset();
        FlightRecorder::arm();
        let long = "é".repeat(200); // 2 bytes per char: forces a boundary cut
        FlightRecorder::note("rec_trunc", &long, &long);
        FlightRecorder::disarm();
        let e = FlightRecorder::dump()
            .into_iter()
            .find(|e| e.target == "rec_trunc")
            .unwrap();
        assert!(e.message.chars().all(|c| c == 'é'));
        assert!(e.message.len() <= MSG_CAP);
        assert!(e.detail.len() <= DETAIL_CAP);
    }

    #[test]
    fn dump_jsonl_is_parseable_and_tail_names_a_kill_site() {
        let _g = locked();
        crate::take_sinks();
        FlightRecorder::reset();
        FlightRecorder::arm();
        crate::info!("rec_dump", "before_kill");
        record_kill_site("train.post_backward");
        FlightRecorder::disarm();
        let text = FlightRecorder::dump_jsonl("test");
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 3, "{text}");
        for line in &lines {
            crate::json::parse(line).expect("every dump line parses");
        }
        let head = crate::json::parse(lines[0]).unwrap();
        assert_eq!(head.get("reason").unwrap().as_str(), Some("test"));
        let tail = lines.last().unwrap();
        assert!(
            tail.contains("train.post_backward"),
            "tail must name the kill site: {tail}"
        );
    }

    #[test]
    fn concurrent_writers_wrap_with_correct_per_thread_eviction() {
        let _g = locked();
        crate::take_sinks();
        FlightRecorder::reset();
        FlightRecorder::arm();
        const WRITERS: usize = 4;
        const OVERFLOW: usize = 100;
        std::thread::scope(|s| {
            for t in 0..WRITERS {
                s.spawn(move || {
                    for i in 0..RING_CAPACITY + OVERFLOW {
                        crate::info!("rec_conc", "c", t = t, i = i);
                    }
                });
            }
        });
        FlightRecorder::disarm();
        // No dump ran concurrently, so no try_lock losses: every ring
        // holds exactly its newest RING_CAPACITY entries.
        let entries: Vec<DumpEntry> = FlightRecorder::dump()
            .into_iter()
            .filter(|e| e.target == "rec_conc")
            .collect();
        assert_eq!(entries.len(), WRITERS * RING_CAPACITY);
        for t in 0..WRITERS {
            let marker = format!("t={t} ");
            let mine: Vec<&DumpEntry> = entries
                .iter()
                .filter(|e| e.detail.starts_with(&marker))
                .collect();
            assert_eq!(mine.len(), RING_CAPACITY, "writer {t} ring is full");
            // Oldest entries were evicted in push order: the survivors are
            // exactly the last RING_CAPACITY pushes, oldest first.
            for (k, e) in mine.iter().enumerate() {
                assert_eq!(
                    e.detail,
                    format!("t={t} i={}", OVERFLOW + k),
                    "writer {t} eviction order broken at slot {k}"
                );
            }
            assert!(
                mine.windows(2).all(|w| w[0].seq < w[1].seq),
                "per-thread seq order broken for writer {t}"
            );
        }
        assert!(
            FlightRecorder::dropped() >= (WRITERS * OVERFLOW) as u64,
            "wrap-around loss must be accounted"
        );
        // The merged dump is globally ordered by sequence.
        let all = FlightRecorder::dump();
        assert!(all.windows(2).all(|w| w[0].seq <= w[1].seq));
    }

    #[test]
    fn dumps_taken_while_writers_race_stay_valid_jsonl() {
        let _g = locked();
        crate::take_sinks();
        FlightRecorder::reset();
        FlightRecorder::arm();
        std::thread::scope(|s| {
            for t in 0..3 {
                s.spawn(move || {
                    for i in 0..2 * RING_CAPACITY {
                        crate::info!("rec_race", "r", t = t, i = i);
                    }
                });
            }
            // Dump repeatedly while the writers are mid-wrap; every dump
            // must be parseable JSONL with a well-formed header, and any
            // entry that lost its try_lock race to us is simply absent.
            for _ in 0..5 {
                let text = FlightRecorder::dump_jsonl("race");
                let mut lines = text.lines();
                let head = crate::json::parse(lines.next().unwrap()).expect("header parses");
                assert_eq!(head.get("reason").unwrap().as_str(), Some("race"));
                for line in lines {
                    crate::json::parse(line).expect("every dump line parses");
                }
            }
        });
        FlightRecorder::disarm();
        // After the writers join, each surviving per-thread sequence is
        // still strictly ordered even though pushes may have been lost.
        let entries: Vec<DumpEntry> = FlightRecorder::dump()
            .into_iter()
            .filter(|e| e.target == "rec_race")
            .collect();
        assert!(!entries.is_empty());
        for t in 0..3 {
            let marker = format!("t={t} ");
            let mine: Vec<&DumpEntry> = entries
                .iter()
                .filter(|e| e.detail.starts_with(&marker))
                .collect();
            assert!(mine.len() <= RING_CAPACITY, "ring stays bounded");
            let indices: Vec<usize> = mine
                .iter()
                .map(|e| e.detail.split("i=").nth(1).unwrap().parse().unwrap())
                .collect();
            assert!(
                indices.windows(2).all(|w| w[0] < w[1]),
                "writer {t} retained entries out of push order: {indices:?}"
            );
        }
    }

    #[test]
    fn dump_now_writes_the_configured_file() {
        let _g = locked();
        crate::take_sinks();
        FlightRecorder::reset();
        FlightRecorder::arm();
        let path = std::env::temp_dir().join("privim-recorder-dump-test.jsonl");
        FlightRecorder::set_dump_path(Some(path.clone()));
        crate::warn!("rec_file", "last_words");
        let written = FlightRecorder::dump_now("unit").expect("path configured");
        FlightRecorder::set_dump_path(None);
        FlightRecorder::disarm();
        assert_eq!(written, path);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("last_words"), "{text}");
        assert!(text.contains("\"reason\":\"unit\""), "{text}");
        std::fs::remove_file(&path).ok();
        assert_eq!(FlightRecorder::dump_now("noop"), None, "path cleared");
    }
}
