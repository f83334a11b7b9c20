//! The one thread policy of every parallel engine in the workspace.
//!
//! An engine splits its work into deterministic *parts*: Monte-Carlo
//! sample streams, exhaustive `a` ranges, replay spans, search prefixes.
//! The parts fix the result; [`fan_out`] only schedules them. The calling
//! thread always claims parts itself, so a small job finishes before a
//! spawn would pay off, and a caller that is itself a pool worker never
//! waits on a helper that has not started.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};

/// The number of threads to use by default: the process's available
/// parallelism, or 1 if it cannot be determined. It is read once per
/// process. CLI and server entry points use this; the library-level
/// [`MonteCarloConfig`](crate::MonteCarloConfig) default stays at 1 so that
/// embedding code gets identical sample streams everywhere unless it opts
/// in (results are deterministic per `(seed, threads)` pair).
pub fn default_threads() -> usize {
    static PARALLELISM: OnceLock<usize> = OnceLock::new();
    *PARALLELISM
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Runs `run(0)`, …, `run(parts − 1)` and returns their results in part
/// order.
///
/// The parts run on the calling thread plus at most
/// `min(threads, parts, default_threads()) − 1` scoped helper threads. The
/// caller runs part 0, and then every thread claims the next unclaimed
/// part from one shared cursor. Which thread runs a later part is left to
/// timing, so `run` must give a part the same result on any thread; the
/// returned results then do not depend on `threads`. A panic in `run` is
/// resumed on the calling thread.
///
/// # Examples
///
/// ```
/// let squares = sealpaa_sim::fan_out(5, 3, |part| part * part);
/// assert_eq!(squares, [0, 1, 4, 9, 16]);
/// ```
pub fn fan_out<T: Send>(parts: usize, threads: usize, run: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let slots: Vec<Mutex<Option<T>>> = std::iter::repeat_with(|| Mutex::new(None))
        .take(parts)
        .collect();
    claim_parts(parts, threads, &|part| {
        let result = run(part);
        *slots[part]
            .lock()
            .expect("a slot is held only to store its result") = Some(result);
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("a slot is held only to store its result")
                .expect("every part runs once")
        })
        .collect()
}

/// Runs `run(part)` for every part, on the caller and its helpers: the
/// thread work of [`fan_out`], behind `dyn Fn` so that the spawn and join
/// code is compiled once rather than once per result type.
fn claim_parts(parts: usize, threads: usize, run: &(dyn Fn(usize) + Sync)) {
    // The cursor only hands out indices; each result is published through
    // its slot's mutex, so no ordering beyond atomicity is needed here.
    let cursor = AtomicUsize::new(1);
    let claim = || loop {
        let part = cursor.fetch_add(1, Relaxed);
        if part >= parts {
            return;
        }
        run(part);
    };
    let helpers = threads.min(parts).min(default_threads()).saturating_sub(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..helpers).map(|_| scope.spawn(claim)).collect();
        if parts > 0 {
            run(0);
        }
        claim();
        for handle in handles {
            handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        }
    });
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::sync::Condvar;
    use std::thread::{self, ThreadId};
    use std::time::Duration;

    use super::*;

    #[test]
    fn results_come_back_in_part_order() {
        for threads in [1, 2, 3, 64] {
            let parts: Vec<usize> = fan_out(100, threads, |part| part);
            assert_eq!(parts, (0..100).collect::<Vec<_>>(), "threads {threads}");
            assert!(fan_out(0, threads, |part| part).is_empty());
        }
    }

    #[test]
    fn one_thread_runs_every_part_on_the_caller() {
        let caller = thread::current().id();
        let ids = fan_out(16, 1, |_| thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn threads_past_the_parallelism_run_on_at_most_the_parallelism() {
        // Each thread holds its first part until a thread past the cap
        // shows up, or for 100 ms: every thread that exists meanwhile
        // claims a part, so a helper past the cap shows up as an extra id.
        let seen = Mutex::new(HashSet::new());
        let arrived = Condvar::new();
        let ids = fan_out(64, 64, |_| {
            let id = thread::current().id();
            let mut seen = seen.lock().expect("no part panics");
            if seen.insert(id) {
                arrived.notify_all();
                let timeout = Duration::from_millis(100);
                drop(
                    arrived
                        .wait_timeout_while(seen, timeout, |seen| seen.len() <= default_threads()),
                );
            }
            id
        });
        assert_eq!(ids[0], thread::current().id(), "the caller runs part 0");
        let distinct: HashSet<ThreadId> = ids.into_iter().collect();
        assert!(distinct.len() <= default_threads(), "{distinct:?}");
    }
}
