//! Worker threads: one worker count for the DP-SGD step and the
//! graph-scale kernels, and one way to fan work out over them.
//!
//! An op parallelizes only when its work (E·d for a sparse op, m·k·n for
//! a matmul) reaches [`WORK_FLOOR`] and it runs outside any worker: every
//! worker of a [`fan_out`] sees [`threads`] = 1, so no op nests threads
//! and a per-subgraph op inside a parallel step stays on its thread.
//! Each parallel kernel gives every output row exactly one writer that
//! sums in the serial order, so results are bit-identical at any count.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::OnceLock;

use privim_obs::ScopeParent;

/// Work below which an op stays serial on its caller: about 2^16
/// multiply-adds, where spawning a thread stops paying for itself. A
/// training subgraph of 40 nodes stays under it in every op.
pub const WORK_FLOOR: usize = 1 << 16;

thread_local! {
    /// The worker count [`with_threads`] pinned on this thread.
    static PINNED: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set while this thread runs a share of a [`fan_out`].
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Workers available to the calling thread: 1 on a worker of a
/// [`fan_out`], else the count [`with_threads`] pinned, else the
/// machine's available parallelism.
pub fn threads() -> usize {
    if ON_WORKER.with(Cell::get) {
        return 1;
    }
    PINNED.with(Cell::get).unwrap_or_else(|| {
        static MACHINE: OnceLock<usize> = OnceLock::new();
        *MACHINE.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
    })
}

/// Runs `f` with [`threads`] pinned to `threads` on this thread. Results
/// do not depend on the count; tests pin it to prove that.
pub fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            PINNED.with(|c| c.set(self.0));
        }
    }
    assert!(threads >= 1, "at least one worker");
    let _restore = Restore(PINNED.with(|c| c.replace(Some(threads))));
    f()
}

/// Runs `work` once per item, each on its own worker: the caller takes
/// the first item, one scoped thread each of the rest. Workers open their
/// scopes under the caller's ([`ScopeParent`]) and see [`threads`] = 1.
pub fn fan_out<I: Send>(items: Vec<I>, work: impl Fn(I) + Sync) {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            ON_WORKER.with(|c| c.set(self.0));
        }
    }
    let mut items = items.into_iter();
    let Some(first) = items.next() else {
        return;
    };
    let _restore = Restore(ON_WORKER.with(|c| c.replace(true)));
    if items.len() == 0 {
        return work(first);
    }
    let parent = ScopeParent::current();
    let (parent, work) = (&parent, &work);
    std::thread::scope(|scope| {
        for item in items {
            scope.spawn(move || {
                ON_WORKER.with(|c| c.set(true));
                parent.adopt(|| work(item));
            });
        }
        work(first);
    });
}

/// Row bounds `0 = b_0 < b_1 < … = n` cutting rows `0..n` into at most
/// `parts` ranges of about equal cost, where `cost(r)` is the
/// non-decreasing cost of rows `0..r`.
pub(crate) fn row_bounds(n: usize, parts: usize, cost: impl Fn(usize) -> usize) -> Vec<usize> {
    let total = cost(n);
    let mut bounds = vec![0];
    for j in 1..parts {
        let target = total * j / parts;
        let (mut lo, mut hi) = (bounds[bounds.len() - 1], n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if cost(mid) < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        bounds.push(lo);
    }
    bounds.push(n);
    bounds.dedup();
    bounds
}

/// Splits `data` at the increasing positions `at`, the first 0 and the
/// last `data.len()`: one slice per window.
pub(crate) fn split_at_bounds<'a, T>(mut data: &'a mut [T], at: &[usize]) -> Vec<&'a mut [T]> {
    at.windows(2)
        .map(|w| {
            let (head, tail) = std::mem::take(&mut data).split_at_mut(w[1] - w[0]);
            data = tail;
            head
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn row_bounds_cover_every_row_once_and_balance_cost() {
        assert_eq!(row_bounds(10, 2, |r| r), vec![0, 5, 10]);
        assert_eq!(row_bounds(10, 3, |r| r), vec![0, 3, 6, 10]);
        assert_eq!(row_bounds(2, 4, |r| r), vec![0, 1, 2]);
        assert_eq!(row_bounds(0, 3, |r| r), vec![0]);
        // Row 1 carries almost all the cost.
        let prefix = [0, 1, 100, 101, 102];
        assert_eq!(row_bounds(4, 2, |r| prefix[r]), vec![0, 2, 4]);
    }

    #[test]
    fn split_at_bounds_follows_the_bounds() {
        let mut data: Vec<u32> = (0..12).collect();
        let parts = split_at_bounds(&mut data, &[0, 2, 8, 12]);
        let lens: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        assert_eq!(lens, vec![2, 6, 4]);
        assert_eq!(parts[1][0], 2);
    }

    #[test]
    fn workers_see_one_thread_and_the_caller_gets_its_count_back() {
        let seen = Mutex::new(Vec::new());
        with_threads(3, || {
            assert_eq!(threads(), 3);
            fan_out(vec![0, 1, 2], |i| seen.lock().unwrap().push((i, threads())));
            assert_eq!(threads(), 3);
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, 1), (1, 1), (2, 1)]);
    }
}
