//! Opt-in hierarchical profiler: the call tree behind [`crate::Scope`].
//!
//! A process-global call-tree profiler built for hot kernels: when
//! profiling is off (the default), [`crate::Scope::kernel`] is a single
//! relaxed atomic load — no clock read, no allocation, no lock — so
//! instrumented kernels cost nothing in production runs. When enabled
//! via [`set_profiling`], every scope — kernel and span alike — opens a
//! node in a per-thread tree (find-or-create child by name, so
//! steady-state bookkeeping is an uncontended mutex plus a few integer
//! adds), and [`profile_report`] merges all thread trees into a
//! [`ProfileReport`] with per-node call counts, total (inclusive) and
//! self (exclusive) time. The tree keeps no stack of its own: the
//! scope's frame on the thread's one scope stack remembers the node it
//! opened, and closing the scope closes exactly that node.
//!
//! Reports render two ways: [`ProfileReport::render_table`] (sorted,
//! indented text table) and [`ProfileReport::render_flamegraph`]
//! (folded-stack lines `a;b;c <self_micros>`, the format consumed by
//! `flamegraph.pl` and speedscope).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::json::{JsonValue, ToJson};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns the profiler on or off process-wide. Off by default.
pub fn set_profiling(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether profiling is currently enabled (one relaxed atomic load).
pub fn profiling_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Work performed inside a scope: floating-point operations, bytes
/// moved to/from memory, and a kernel-defined item count (edges
/// processed, Monte-Carlo trials, …).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WorkCounts {
    pub flops: u64,
    pub bytes: u64,
    pub items: u64,
}

impl WorkCounts {
    pub fn add(&mut self, flops: u64, bytes: u64, items: u64) {
        self.flops = self.flops.wrapping_add(flops);
        self.bytes = self.bytes.wrapping_add(bytes);
        self.items = self.items.wrapping_add(items);
    }
}

#[derive(Debug)]
struct NodeStat {
    name: &'static str,
    parent: usize,
    children: Vec<usize>,
    calls: u64,
    total_micros: u64,
    /// Time attributed to direct children (for self = total − child).
    child_micros: u64,
    work: WorkCounts,
}

impl NodeStat {
    fn new(name: &'static str, parent: usize) -> NodeStat {
        NodeStat {
            name,
            parent,
            children: Vec::new(),
            calls: 0,
            total_micros: 0,
            child_micros: 0,
            work: WorkCounts::default(),
        }
    }
}

/// One thread's call tree. Node 0 is a synthetic root that only exists
/// to anchor top-level scopes; it never accumulates calls of its own.
#[derive(Debug)]
struct ThreadTree {
    nodes: Vec<NodeStat>,
}

impl ThreadTree {
    fn new() -> ThreadTree {
        ThreadTree {
            nodes: vec![NodeStat::new("", 0)],
        }
    }

    /// The child of `parent` named `name`, created on first use.
    fn child(&mut self, parent: usize, name: &'static str) -> usize {
        self.nodes[parent]
            .children
            .iter()
            .copied()
            .find(|&c| self.nodes[c].name == name)
            .unwrap_or_else(|| {
                let idx = self.nodes.len();
                self.nodes.push(NodeStat::new(name, parent));
                self.nodes[parent].children.push(idx);
                idx
            })
    }

    fn close(&mut self, idx: usize, elapsed_micros: u64, work: WorkCounts, credit_parent: bool) {
        let node = &mut self.nodes[idx];
        node.calls += 1;
        node.total_micros += elapsed_micros;
        node.work.add(work.flops, work.bytes, work.items);
        let parent = node.parent;
        if credit_parent {
            self.nodes[parent].child_micros += elapsed_micros;
        }
    }

    fn reset(&mut self) {
        // Zero in place: node indices held by open scopes on live
        // threads stay valid.
        for n in &mut self.nodes {
            n.calls = 0;
            n.total_micros = 0;
            n.child_micros = 0;
            n.work = WorkCounts::default();
        }
    }

    /// Adds node `idx` of `other`, and its subtree, under `parent`,
    /// matching nodes by name.
    fn merge(&mut self, parent: usize, other: &ThreadTree, idx: usize) {
        let from = &other.nodes[idx];
        let at = self.child(parent, from.name);
        let node = &mut self.nodes[at];
        node.calls += from.calls;
        node.total_micros += from.total_micros;
        node.child_micros += from.child_micros;
        let w = from.work;
        node.work.add(w.flops, w.bytes, w.items);
        for &child in &from.children {
            self.merge(at, other, child);
        }
    }

    fn has_calls(&self, idx: usize) -> bool {
        let node = &self.nodes[idx];
        node.calls > 0 || node.children.iter().any(|&c| self.has_calls(c))
    }

    /// Appends `idx`'s children depth-first, siblings by total time
    /// descending, skipping subtrees with no calls.
    fn flatten(&self, idx: usize, prefix: &str, depth: usize, rows: &mut Vec<ProfileRow>) {
        let mut children = self.nodes[idx].children.clone();
        children.sort_by(|&a, &b| {
            let (a, b) = (&self.nodes[a], &self.nodes[b]);
            b.total_micros
                .cmp(&a.total_micros)
                .then_with(|| a.name.cmp(b.name))
        });
        for idx in children.into_iter().filter(|&c| self.has_calls(c)) {
            let n = &self.nodes[idx];
            let path = if prefix.is_empty() {
                n.name.to_string()
            } else {
                format!("{prefix};{}", n.name)
            };
            rows.push(ProfileRow {
                name: n.name.to_string(),
                path: path.clone(),
                depth,
                calls: n.calls,
                total_micros: n.total_micros,
                self_micros: n.total_micros.saturating_sub(n.child_micros),
                flops: n.work.flops,
                bytes: n.work.bytes,
                items: n.work.items,
            });
            self.flatten(idx, &path, depth + 1, rows);
        }
    }
}

/// Every thread's call tree, for [`profile_report`] to merge.
static TREES: Mutex<Vec<Arc<Mutex<ThreadTree>>>> = Mutex::new(Vec::new());

thread_local! {
    /// This thread's call tree, registered for merging on first use. A
    /// tree whose thread has exited (only the registry still holds it,
    /// and no scope of it is open) is adopted instead, so short-lived
    /// workers, one set per parallel step, do not grow the registry.
    static LOCAL: Arc<Mutex<ThreadTree>> = {
        let mut trees = TREES.lock().unwrap_or_else(PoisonError::into_inner);
        match trees.iter().find(|t| Arc::strong_count(t) == 1) {
            Some(orphan) => Arc::clone(orphan),
            None => {
                let tree = Arc::new(Mutex::new(ThreadTree::new()));
                trees.push(Arc::clone(&tree));
                tree
            }
        }
    };
}

/// Opens `name` under node `parent` (0 = top level) of this thread's
/// tree; returns the node, which [`close_node`] must receive.
pub(crate) fn open_node(parent: usize, name: &'static str) -> usize {
    LOCAL.with(|t| {
        t.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .child(parent, name)
    })
}

/// Attributes one call of `elapsed_micros` and `work` to `node`, and
/// the time to its parent's children when `credit_parent`.
pub(crate) fn close_node(node: usize, elapsed_micros: u64, work: WorkCounts, credit_parent: bool) {
    LOCAL.with(|t| {
        t.lock().unwrap_or_else(PoisonError::into_inner).close(
            node,
            elapsed_micros,
            work,
            credit_parent,
        )
    });
}

/// Zeroes all accumulated profile statistics (every thread, in place).
/// Scopes currently open keep timing and land in the fresh stats.
pub fn reset_profile() {
    let trees = TREES.lock().unwrap_or_else(PoisonError::into_inner);
    for tree in trees.iter() {
        tree.lock().unwrap_or_else(PoisonError::into_inner).reset();
    }
}

/// One merged call-tree node, in depth-first pre-order within
/// [`ProfileReport::rows`] (siblings sorted by total time, descending).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRow {
    /// Scope name (last path component).
    pub name: String,
    /// Semicolon-joined ancestor path, e.g. `training;nn.matmul`.
    pub path: String,
    /// Nesting depth (0 = top-level scope).
    pub depth: usize,
    /// Completed invocations.
    pub calls: u64,
    /// Inclusive wall time (scope + descendants), microseconds.
    pub total_micros: u64,
    /// Exclusive wall time (scope minus direct children), microseconds.
    pub self_micros: u64,
    /// Floating-point operations recorded via [`crate::Scope::add_work`]
    /// on this exact scope (children's work is not rolled up).
    pub flops: u64,
    /// Bytes moved to/from memory recorded via `add_work`.
    pub bytes: u64,
    /// Kernel-defined item count (edges, trials, gradient entries, …)
    /// recorded via `add_work`.
    pub items: u64,
}

impl ProfileRow {
    /// Inclusive wall time in seconds.
    pub fn total_secs(&self) -> f64 {
        self.total_micros as f64 / 1e6
    }

    /// Exclusive wall time in seconds.
    pub fn self_secs(&self) -> f64 {
        self.self_micros as f64 / 1e6
    }

    /// True when any work counter is nonzero.
    pub fn has_work(&self) -> bool {
        self.flops > 0 || self.bytes > 0 || self.items > 0
    }

    /// Achieved compute throughput in GFLOP/s over the scope's
    /// inclusive time (`None` without both flops and elapsed time).
    pub fn gflops_per_sec(&self) -> Option<f64> {
        if self.flops > 0 && self.total_micros > 0 {
            Some(self.flops as f64 / 1e3 / self.total_micros as f64)
        } else {
            None
        }
    }

    /// Achieved memory bandwidth in GB/s over the scope's inclusive
    /// time (`None` without both bytes and elapsed time).
    pub fn gbytes_per_sec(&self) -> Option<f64> {
        if self.bytes > 0 && self.total_micros > 0 {
            Some(self.bytes as f64 / 1e3 / self.total_micros as f64)
        } else {
            None
        }
    }

    /// Arithmetic intensity in FLOP/byte — the x-axis of a roofline
    /// plot. Low values (≲ machine balance, a few FLOP/byte on
    /// commodity CPUs) mean the kernel is memory-bound; high values
    /// mean it is compute-bound. `None` when either counter is zero.
    pub fn arithmetic_intensity(&self) -> Option<f64> {
        if self.flops > 0 && self.bytes > 0 {
            Some(self.flops as f64 / self.bytes as f64)
        } else {
            None
        }
    }
}

/// The merged call tree of every thread, flattened depth-first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    pub rows: Vec<ProfileRow>,
}

/// Merges every thread's call tree into a single [`ProfileReport`].
/// Cheap enough to call at any time; open scopes simply haven't
/// contributed their in-flight invocation yet.
pub fn profile_report() -> ProfileReport {
    let mut merged = ThreadTree::new();
    for tree in TREES.lock().unwrap_or_else(PoisonError::into_inner).iter() {
        let tree = tree.lock().unwrap_or_else(PoisonError::into_inner);
        for &child in &tree.nodes[0].children {
            merged.merge(0, &tree, child);
        }
    }
    let mut rows = Vec::new();
    merged.flatten(0, "", 0, &mut rows);
    ProfileReport { rows }
}

impl ToJson for ProfileRow {
    fn to_json_value(&self) -> JsonValue {
        crate::json_object!(self; name, path, depth, calls, total_micros, self_micros, flops,
            bytes, items)
    }
}

/// `{rows: [...]}`, one object per [`ProfileRow`].
impl ToJson for ProfileReport {
    fn to_json_value(&self) -> JsonValue {
        crate::json_object!(self; rows)
    }
}

impl ProfileReport {
    /// True when no scope has completed since the last reset.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Sum of top-level inclusive times, in seconds.
    pub fn total_secs(&self) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.depth == 0)
            .map(ProfileRow::total_secs)
            .sum()
    }

    /// The row for `path` (semicolon-joined), if present.
    pub fn row(&self, path: &str) -> Option<&ProfileRow> {
        self.rows.iter().find(|r| r.path == path)
    }

    /// Renders the call tree as an indented text table sorted by total
    /// time within each level. Scopes instrumented with
    /// [`crate::Scope::add_work`] additionally report achieved GFLOP/s,
    /// GB/s, and arithmetic intensity (FLOP/byte, the roofline x-axis);
    /// uninstrumented scopes show `-`.
    pub fn render_table(&self) -> String {
        fn rate(v: Option<f64>) -> String {
            match v {
                Some(v) => format!("{v:>8.2}"),
                None => format!("{:>8}", "-"),
            }
        }
        let mut out = String::from(
            "  total(s)    self(s)      calls   gflop/s      gb/s    flop/b  scope\n\
             ----------  ----------  ---------  --------  --------  --------  -----\n",
        );
        for row in &self.rows {
            out.push_str(&format!(
                "{:>10.6}  {:>10.6}  {:>9}  {}  {}  {}  {}{}\n",
                row.total_secs(),
                row.self_secs(),
                row.calls,
                rate(row.gflops_per_sec()),
                rate(row.gbytes_per_sec()),
                rate(row.arithmetic_intensity()),
                "  ".repeat(row.depth),
                row.name,
            ));
        }
        out
    }

    /// Renders folded-stack flamegraph lines: `a;b;c <self_micros>`,
    /// one per tree node with nonzero exclusive time.
    pub fn render_flamegraph(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            if row.self_micros > 0 {
                out.push_str(&format!("{} {}\n", row.path, row.self_micros));
            }
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::clock::{Clock, ManualClock};
    use crate::scope::Scope;

    /// The profiler is process-global; serialize the tests that toggle it.
    pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disabled_scope_is_inert() {
        let _guard = test_lock();
        set_profiling(false);
        let clock = ManualClock::new();
        {
            let _p = Scope::kernel_with_clock("prof_inert_scope", &clock);
            clock.advance_secs(5.0);
        }
        assert!(profile_report().row("prof_inert_scope").is_none());
    }

    #[test]
    fn exited_threads_trees_are_adopted() {
        let _guard = test_lock();
        set_profiling(true);
        reset_profile();
        let worker = || {
            std::thread::spawn(|| drop(Scope::kernel("prof_adopt_test")))
                .join()
                .unwrap()
        };
        worker();
        let registered = || TREES.lock().unwrap_or_else(PoisonError::into_inner).len();
        let before = registered();
        for _ in 0..8 {
            worker();
        }
        let after = registered();
        set_profiling(false);
        // Threads of concurrently running tests may register trees of
        // their own, but eight joined workers must not add eight.
        assert!(after < before + 8, "{before} -> {after} trees");
        let row = profile_report().row("prof_adopt_test").cloned();
        assert_eq!(
            row.map(|r| r.calls),
            Some(9),
            "adopted trees keep their stats"
        );
    }

    #[test]
    fn nested_scopes_build_a_merged_tree() {
        let _guard = test_lock();
        set_profiling(true);
        reset_profile();
        let clock = ManualClock::new();
        for _ in 0..2 {
            let _a = Scope::kernel_with_clock("prof_tree_a", &clock);
            clock.advance_micros(100);
            {
                let _b = Scope::kernel_with_clock("prof_tree_b", &clock);
                clock.advance_micros(300);
            }
            clock.advance_micros(50);
        }
        set_profiling(false);

        let report = profile_report();
        let a = report.row("prof_tree_a").expect("outer scope recorded");
        let b = report
            .row("prof_tree_a;prof_tree_b")
            .expect("inner nested under outer");
        assert_eq!(a.calls, 2);
        assert_eq!(a.total_micros, 900, "2 × (100 + 300 + 50)");
        assert_eq!(a.self_micros, 300, "2 × (100 + 50)");
        assert_eq!(a.depth, 0);
        assert_eq!(b.calls, 2);
        assert_eq!(b.total_micros, 600);
        assert_eq!(b.self_micros, 600, "leaf: self == total");
        assert_eq!(b.depth, 1);

        let flame = report.render_flamegraph();
        assert!(
            flame.contains("prof_tree_a 300\n"),
            "folded self time: {flame}"
        );
        assert!(flame.contains("prof_tree_a;prof_tree_b 600\n"), "{flame}");
        let table = report.render_table();
        assert!(table.contains("prof_tree_a"), "{table}");
        assert!(table.contains("  prof_tree_b"), "child indented: {table}");
    }

    #[test]
    fn reset_zeroes_stats_and_report_skips_empty_nodes() {
        let _guard = test_lock();
        set_profiling(true);
        reset_profile();
        let clock = ManualClock::new();
        {
            let _p = Scope::kernel_with_clock("prof_reset_scope", &clock);
            clock.advance_micros(10);
        }
        assert!(profile_report().row("prof_reset_scope").is_some());
        reset_profile();
        set_profiling(false);
        assert!(
            profile_report().row("prof_reset_scope").is_none(),
            "reset nodes must not appear in reports"
        );
    }

    #[test]
    fn spans_participate_while_profiling_is_enabled() {
        let _guard = test_lock();
        set_profiling(true);
        reset_profile();
        let clock = ManualClock::new();
        {
            let _outer = Scope::span_with_clock("prof_span_outer", &clock);
            clock.advance_micros(40);
            {
                let _inner = Scope::kernel_with_clock("prof_span_kernel", &clock);
                clock.advance_micros(60);
            }
        }
        set_profiling(false);

        let report = profile_report();
        let outer = report
            .row("prof_span_outer")
            .expect("span became a profile node");
        assert_eq!(outer.calls, 1);
        assert_eq!(outer.total_micros, 100);
        assert_eq!(outer.self_micros, 40);
        let kernel = report
            .row("prof_span_outer;prof_span_kernel")
            .expect("nested kernel");
        assert_eq!(kernel.total_micros, 60);
    }

    #[test]
    fn work_counters_merge_exactly_across_threads() {
        let _guard = test_lock();
        set_profiling(true);
        reset_profile();
        const THREADS: u64 = 4;
        const ITERS: u64 = 25;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..ITERS {
                        let p = Scope::kernel("prof_work_mt");
                        p.add_work(100, 40, 1);
                        // Split increments accumulate within one scope.
                        p.add_work(11, 8, 2);
                    }
                });
            }
        });
        set_profiling(false);
        let report = profile_report();
        let row = report.row("prof_work_mt").expect("scope recorded");
        assert_eq!(row.calls, THREADS * ITERS);
        assert_eq!(row.flops, THREADS * ITERS * 111);
        assert_eq!(row.bytes, THREADS * ITERS * 48);
        assert_eq!(row.items, THREADS * ITERS * 3);
    }

    #[test]
    fn derived_roofline_metrics() {
        let row = ProfileRow {
            name: "k".into(),
            path: "k".into(),
            depth: 0,
            calls: 1,
            total_micros: 2_000_000, // 2 s
            self_micros: 2_000_000,
            flops: 8_000_000_000, // 8 GFLOP
            bytes: 1_000_000_000, // 1 GB
            items: 7,
        };
        assert!((row.gflops_per_sec().unwrap() - 4.0).abs() < 1e-12);
        assert!((row.gbytes_per_sec().unwrap() - 0.5).abs() < 1e-12);
        assert!((row.arithmetic_intensity().unwrap() - 8.0).abs() < 1e-12);
        assert!(row.has_work());

        let idle = ProfileRow {
            name: "i".into(),
            path: "i".into(),
            depth: 0,
            calls: 1,
            total_micros: 10,
            self_micros: 10,
            flops: 0,
            bytes: 0,
            items: 0,
        };
        assert_eq!(idle.gflops_per_sec(), None);
        assert_eq!(idle.gbytes_per_sec(), None);
        assert_eq!(idle.arithmetic_intensity(), None);
        assert!(!idle.has_work());
        // Uninstrumented rows render as dashes, not zeros.
        let table = ProfileReport { rows: vec![idle] }.render_table();
        assert!(table.contains("gflop/s"), "{table}");
        assert!(table.contains("-"), "{table}");
    }

    #[test]
    fn disabled_add_work_is_inert_and_never_reads_the_clock() {
        use std::sync::atomic::AtomicU64;

        struct CountingClock(AtomicU64);
        impl Clock for CountingClock {
            fn now_micros(&self) -> u64 {
                self.0.fetch_add(1, Ordering::Relaxed)
            }
        }

        let _guard = test_lock();
        set_profiling(false);
        let clock = CountingClock(AtomicU64::new(0));
        {
            let p = Scope::kernel_with_clock("prof_work_inert", &clock);
            for _ in 0..1000 {
                p.add_work(1, 1, 1);
            }
        }
        // With profiling off the whole enter/add_work/drop sequence is
        // the single `ENABLED` load: the clock is never consulted and
        // nothing reaches the call tree.
        assert_eq!(clock.0.load(Ordering::Relaxed), 0, "no clock reads");
        assert!(profile_report().row("prof_work_inert").is_none());
    }
}
