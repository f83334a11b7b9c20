//! The one prefix-sharing search driver behind every exhaustive DSE.
//!
//! Each design space in this crate is a tree of per-position choices: a
//! cell per chain stage, a block per tiling step, a cell per datapath adder
//! node. Each analysis is a left fold, so designs that share a prefix share
//! the analysis state after it. A [`PrefixSearch`] impl wraps one problem's
//! stepper; [`best`] and [`all`] walk its tree depth-first, paying one
//! stepper push per tree edge instead of a full analysis per design.
//!
//! # Branch and bound
//!
//! A problem may also bound the first key component of every leaf below a
//! node ([`PrefixSearch::bound`]). [`best`] then skips a subtree when that
//! bound is strictly above the lowest first component of any leaf key
//! found so far, by any worker: the workers share it through one atomic.
//! [`all`] never prunes. A problem without a bound pays nothing for this:
//! no atomic and no extra work per node or leaf.
//!
//! # Determinism contract
//!
//! The root's choices are split into contiguous ranges: the calling thread
//! walks the first, one scoped thread each walks the others. Every leaf
//! has a problem-defined *leaf order*: [`best`] keeps the leaf with the
//! lowest `(key, leaf order)`, and [`all`] returns leaves sorted by leaf
//! order. Pruning keeps that: a pruned leaf's key is strictly above a key
//! some worker keeps, so it can neither win nor tie the winner. Results —
//! winner, enumeration order, every f64 bit — are therefore the same for
//! every thread count; only the number of visited nodes depends on thread
//! timing. A failing worker stops; the error of the first failing range,
//! which is the one a one-thread run meets first, is returned. Problems
//! whose `push` or `score` can fail give no bound, so no pruning can hide
//! an error.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use crate::search::ExploreError;

/// One design space, searched as a tree of choices.
pub(crate) trait PrefixSearch: Sync {
    /// Per-thread state: the stepper and the path to the current node.
    type Worker: Send;
    /// A leaf's evaluation.
    type Score;
    /// What [`best`] minimizes, compared lexicographically.
    type Key: PartialOrd + Send;
    /// Breaks key ties and orders the output of [`all`].
    type Order: Ord + Copy + Send;
    /// The result kept for a leaf.
    type Design: Send;

    /// A worker at the root.
    fn worker(&self) -> Result<Self::Worker, ExploreError>;
    /// Number of choices at the worker's node.
    fn choices(&self, worker: &Self::Worker) -> usize;
    /// Steps into `choice`, folding its costs. Returns `false`, with the
    /// worker unchanged, if the prefix is over budget or the choice is
    /// invalid at this node.
    fn push(&self, worker: &mut Self::Worker, choice: usize) -> Result<bool, ExploreError>;
    /// Undoes the last successful push.
    fn pop(&self, worker: &mut Self::Worker);
    /// `true` once the path is a complete design.
    fn is_leaf(&self, worker: &Self::Worker) -> bool;
    /// The leaf's score, or `None` if it fails the final budget check.
    fn score(&self, worker: &Self::Worker) -> Result<Option<Self::Score>, ExploreError>;
    /// The score's ranking key.
    fn key(&self, score: &Self::Score) -> Self::Key;
    /// The leaf's position in the problem's leaf order.
    fn order(&self, worker: &Self::Worker) -> Self::Order;
    /// Materializes the leaf.
    fn design(&self, worker: &Self::Worker, score: Self::Score) -> Self::Design;
    /// A lower bound on the [`lead`](Self::lead) of every leaf key below
    /// the worker's inner node, or `None` (the default) to bound nothing.
    fn bound(&self, _worker: &Self::Worker) -> Option<f64> {
        None
    }
    /// The first component of a leaf key, which [`bound`](Self::bound)
    /// bounds; `None` (the default) for problems that never bound.
    fn lead(&self, _key: &Self::Key) -> Option<f64> {
        None
    }
}

/// The leaf with the lowest key, ties going to the earliest leaf order;
/// `None` if no leaf passes its budget.
pub(crate) fn best<P: PrefixSearch>(
    problem: &P,
    threads: usize,
) -> Result<Option<P::Design>, ExploreError> {
    let incumbent = Incumbent::new();
    let best = run(problem, threads, || Best {
        kept: None,
        incumbent: &incumbent,
    })?;
    Ok(best.kept.map(|kept| kept.design))
}

/// Every leaf that passes its budget, in leaf order.
pub(crate) fn all<P: PrefixSearch>(
    problem: &P,
    threads: usize,
) -> Result<Vec<P::Design>, ExploreError> {
    let mut leaves = run(problem, threads, || All(Vec::new()))?.0;
    leaves.sort_unstable_by_key(|leaf| leaf.0);
    Ok(leaves.into_iter().map(|(_, design)| design).collect())
}

/// What one worker keeps of the leaves it visits.
trait Sink<P: PrefixSearch>: Send {
    fn leaf(&mut self, problem: &P, worker: &P::Worker, score: P::Score);
    /// Folds in the result of a later range.
    fn merge(&mut self, later: Self);
    /// `true` if no leaf below the worker's inner node needs a visit.
    fn prunes(&self, _problem: &P, _worker: &P::Worker) -> bool {
        false
    }
}

/// The lowest leaf lead any worker has found. The atomic holds the lead's
/// bits mapped so that unsigned order is the f64 total order; it starts
/// at `u64::MAX`, which reads back as NaN and so prunes nothing. A stale
/// `Relaxed` read is an incumbent no lower than the current one, so it can
/// only prune less.
struct Incumbent(AtomicU64);

impl Incumbent {
    const SIGN: u64 = 1 << 63;

    fn new() -> Self {
        Incumbent(AtomicU64::new(u64::MAX))
    }

    fn lower(&self, lead: f64) {
        let bits = lead.to_bits();
        let ordered = if bits & Self::SIGN == 0 {
            bits | Self::SIGN
        } else {
            !bits
        };
        self.0.fetch_min(ordered, Relaxed);
    }

    fn get(&self) -> f64 {
        let ordered = self.0.load(Relaxed);
        f64::from_bits(if ordered & Self::SIGN == 0 {
            !ordered
        } else {
            ordered & !Self::SIGN
        })
    }
}

struct Kept<P: PrefixSearch> {
    key: P::Key,
    order: P::Order,
    design: P::Design,
}

struct Best<'i, P: PrefixSearch> {
    kept: Option<Kept<P>>,
    incumbent: &'i Incumbent,
}

impl<P: PrefixSearch> Best<'_, P> {
    /// Keeps the challenger if its key is lower, or equal with an earlier
    /// leaf order, and says whether it did. The order is computed only when
    /// it decides a tie or is kept, and the design only when it is kept.
    fn offer(
        &mut self,
        key: P::Key,
        order: impl Fn() -> P::Order,
        design: impl FnOnce() -> P::Design,
    ) -> bool {
        let wins = self
            .kept
            .as_ref()
            .is_none_or(|kept| key < kept.key || (key == kept.key && order() < kept.order));
        if wins {
            self.kept = Some(Kept {
                key,
                order: order(),
                design: design(),
            });
        }
        wins
    }
}

impl<P: PrefixSearch> Sink<P> for Best<'_, P> {
    fn leaf(&mut self, problem: &P, worker: &P::Worker, score: P::Score) {
        let key = problem.key(&score);
        let lead = problem.lead(&key);
        let kept = self.offer(
            key,
            || problem.order(worker),
            || problem.design(worker, score),
        );
        // A leaf this worker does not keep has a lead no lower than one it
        // has already published.
        if let Some(lead) = lead.filter(|_| kept) {
            self.incumbent.lower(lead);
        }
    }

    fn merge(&mut self, later: Self) {
        if let Some(kept) = later.kept {
            self.offer(kept.key, || kept.order, || kept.design);
        }
    }

    /// Every leaf below has a lead at least the bound, so a bound strictly
    /// above the incumbent's lead means a key strictly above a key some
    /// worker keeps: no such leaf can win or tie.
    fn prunes(&self, problem: &P, worker: &P::Worker) -> bool {
        problem
            .bound(worker)
            .is_some_and(|bound| bound > self.incumbent.get())
    }
}

struct All<P: PrefixSearch>(Vec<(P::Order, P::Design)>);

impl<P: PrefixSearch> Sink<P> for All<P> {
    fn leaf(&mut self, problem: &P, worker: &P::Worker, score: P::Score) {
        self.0
            .push((problem.order(worker), problem.design(worker, score)));
    }

    fn merge(&mut self, later: Self) {
        self.0.extend(later.0);
    }
}

/// Walks the root's first choice range on the calling thread and the others
/// on scoped threads, then merges the sinks in range order.
fn run<P: PrefixSearch, S: Sink<P>>(
    problem: &P,
    threads: usize,
    sink: impl Fn() -> S + Sync,
) -> Result<S, ExploreError> {
    let mut root = problem.worker()?;
    let mut ranges = split_ranges(problem.choices(&root), threads).into_iter();
    let first = ranges.next().expect("at least one range");
    let walk_range = |worker: &mut P::Worker, range| {
        let mut sink = sink();
        walk(problem, worker, range, &mut sink)?;
        Ok(sink)
    };
    let partials: Vec<Result<S, ExploreError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .map(|range| scope.spawn(|| walk_range(&mut problem.worker()?, range)))
            .collect();
        let mut partials = vec![walk_range(&mut root, first)];
        partials.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("search worker panicked")),
        );
        partials
    });
    let mut partials = partials.into_iter();
    let mut merged = partials.next().expect("the first range")?;
    for partial in partials {
        merged.merge(partial?);
    }
    Ok(merged)
}

/// Visits every completion of the worker's node through `choices` that the
/// sink does not prune, in depth-first order.
fn walk<P: PrefixSearch, S: Sink<P>>(
    problem: &P,
    worker: &mut P::Worker,
    choices: Range<usize>,
    sink: &mut S,
) -> Result<(), ExploreError> {
    for choice in choices {
        if !problem.push(worker, choice)? {
            continue;
        }
        if problem.is_leaf(worker) {
            if let Some(score) = problem.score(worker)? {
                sink.leaf(problem, worker, score);
            }
        } else if !sink.prunes(problem, worker) {
            let below = problem.choices(worker);
            walk(problem, worker, 0..below, sink)?;
        }
        problem.pop(worker);
    }
    Ok(())
}

/// Splits `0..n` into at most `parts` contiguous non-empty ranges (one
/// empty range when `n` is 0).
///
/// Results are merged in range order and are thread-count invariant, so
/// oversubscribing past the machine's cores can only add scheduling
/// overhead (the `dse/w40 _t4 > _t1` regression in BENCH_blocks.json).
/// `parts` is therefore also clamped to the available parallelism.
fn split_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let parts = parts.min(cores).clamp(1, n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;

    use super::*;

    /// Two binary decisions with a fixed value per leaf, an exact bound
    /// (the lowest value below a node) and the odometer leaf order (the
    /// first decision is the fastest digit), counting visited nodes.
    struct Toy {
        values: [[f64; 2]; 2],
        pushes: AtomicUsize,
    }

    impl PrefixSearch for Toy {
        type Worker = Vec<usize>;
        type Score = f64;
        type Key = f64;
        type Order = usize;
        type Design = Vec<usize>;

        fn worker(&self) -> Result<Vec<usize>, ExploreError> {
            Ok(Vec::new())
        }
        fn choices(&self, _: &Vec<usize>) -> usize {
            2
        }
        fn push(&self, path: &mut Vec<usize>, choice: usize) -> Result<bool, ExploreError> {
            self.pushes.fetch_add(1, Relaxed);
            path.push(choice);
            Ok(true)
        }
        fn pop(&self, path: &mut Vec<usize>) {
            path.pop();
        }
        fn is_leaf(&self, path: &Vec<usize>) -> bool {
            path.len() == 2
        }
        fn score(&self, path: &Vec<usize>) -> Result<Option<f64>, ExploreError> {
            Ok(Some(self.values[path[0]][path[1]]))
        }
        fn key(&self, &value: &f64) -> f64 {
            value
        }
        fn order(&self, path: &Vec<usize>) -> usize {
            path[1] * 2 + path[0]
        }
        fn design(&self, path: &Vec<usize>, _: f64) -> Vec<usize> {
            path.clone()
        }
        fn bound(&self, path: &Vec<usize>) -> Option<f64> {
            let [low, high] = self.values[path[0]];
            Some(low.min(high))
        }
        fn lead(&self, &key: &f64) -> Option<f64> {
            Some(key)
        }
    }

    fn toy(values: [[f64; 2]; 2]) -> Toy {
        Toy {
            values,
            pushes: AtomicUsize::new(0),
        }
    }

    #[test]
    fn a_bound_equal_to_the_incumbent_keeps_its_subtree() {
        // The walk meets [0, 1] (order 2) first; [1, 0] ties it with order
        // 1, behind a bound equal to the incumbent.
        for threads in [1, 2, 3] {
            let problem = toy([[0.5, 0.25], [0.25, 0.75]]);
            assert_eq!(
                best(&problem, threads).expect("no errors"),
                Some(vec![1, 0])
            );
        }
    }

    #[test]
    fn a_bound_above_the_incumbent_prunes_and_all_never_does() {
        let values = [[0.5, 0.25], [0.375, 0.75]];
        let problem = toy(values);
        assert_eq!(best(&problem, 1).expect("no errors"), Some(vec![0, 1]));
        // [0], its two leaves and [1], whose leaves are never pushed.
        assert_eq!(problem.pushes.load(Relaxed), 4);
        let problem = toy(values);
        let leaves = all(&problem, 1).expect("no errors");
        assert_eq!(leaves, [vec![0, 0], vec![1, 0], vec![0, 1], vec![1, 1]]);
        assert_eq!(problem.pushes.load(Relaxed), 6);
    }

    #[test]
    fn the_shared_incumbent_orders_like_f64() {
        let incumbent = Incumbent::new();
        assert!(incumbent.get().is_nan());
        for lead in [0.75, 1e-300, 0.5, -0.0, 0.0, -2.5, f64::INFINITY] {
            incumbent.lower(lead);
        }
        assert_eq!(incumbent.get(), -2.5);
        let incumbent = Incumbent::new();
        incumbent.lower(0.0);
        incumbent.lower(-0.0);
        assert_eq!(incumbent.get().to_bits(), (-0.0f64).to_bits());
    }
}
