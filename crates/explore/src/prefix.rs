//! The one prefix-sharing search driver behind every exhaustive DSE.
//!
//! Each design space in this crate is a tree of per-position choices: a
//! cell per chain stage, a block per tiling step, a cell per datapath adder
//! node. Each analysis is a left fold, so designs that share a prefix share
//! the analysis state after it. A [`PrefixSearch`] impl wraps one problem's
//! stepper; [`best`] and [`all`] walk its tree depth-first, paying one
//! stepper push per tree edge instead of a full analysis per design.
//!
//! # Determinism contract
//!
//! The root's choices are split into contiguous ranges, one scoped thread
//! each. Every leaf has a problem-defined *leaf order*: [`best`] keeps the
//! leaf with the lowest `(key, leaf order)`, and [`all`] returns leaves
//! sorted by leaf order. Results — winner, enumeration order, every f64
//! bit — are therefore the same for every thread count. A failing worker
//! stops; the error of the first failing range, which is the one a
//! one-thread run meets first, is returned.

use std::ops::Range;

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
}

/// The leaf with the lowest key, ties going to the earliest leaf order;
/// `None` if no leaf passes its budget.
pub(crate) fn best<P: PrefixSearch>(
    problem: &P,
    threads: usize,
) -> Result<Option<P::Design>, ExploreError> {
    Ok(run::<P, Best<P>>(problem, threads)?
        .0
        .map(|kept| kept.design))
}

/// Every leaf that passes its budget, in leaf order.
pub(crate) fn all<P: PrefixSearch>(
    problem: &P,
    threads: usize,
) -> Result<Vec<P::Design>, ExploreError> {
    let mut leaves = run::<P, All<P>>(problem, threads)?.0;
    leaves.sort_unstable_by_key(|leaf| leaf.0);
    Ok(leaves.into_iter().map(|(_, design)| design).collect())
}

/// What one worker keeps of the leaves it visits.
trait Sink<P: PrefixSearch>: Default + Send {
    fn leaf(&mut self, problem: &P, worker: &P::Worker, score: P::Score);
    /// Folds in the result of a later range.
    fn merge(&mut self, later: Self);
}

struct Kept<P: PrefixSearch> {
    key: P::Key,
    order: P::Order,
    design: P::Design,
}

struct Best<P: PrefixSearch>(Option<Kept<P>>);

impl<P: PrefixSearch> Default for Best<P> {
    fn default() -> Self {
        Best(None)
    }
}

impl<P: PrefixSearch> Best<P> {
    /// Keeps the challenger if its key is lower, or equal with an earlier
    /// leaf order. The order is computed only when it decides a tie or is
    /// kept, and the design only when it is kept.
    fn offer(
        &mut self,
        key: P::Key,
        order: impl Fn() -> P::Order,
        design: impl FnOnce() -> P::Design,
    ) {
        if self
            .0
            .as_ref()
            .is_none_or(|kept| key < kept.key || (key == kept.key && order() < kept.order))
        {
            self.0 = Some(Kept {
                key,
                order: order(),
                design: design(),
            });
        }
    }
}

impl<P: PrefixSearch> Sink<P> for Best<P> {
    fn leaf(&mut self, problem: &P, worker: &P::Worker, score: P::Score) {
        self.offer(
            problem.key(&score),
            || problem.order(worker),
            || problem.design(worker, score),
        );
    }

    fn merge(&mut self, later: Self) {
        if let Some(kept) = later.0 {
            self.offer(kept.key, || kept.order, || kept.design);
        }
    }
}

struct All<P: PrefixSearch>(Vec<(P::Order, P::Design)>);

impl<P: PrefixSearch> Default for All<P> {
    fn default() -> Self {
        All(Vec::new())
    }
}

impl<P: PrefixSearch> Sink<P> for All<P> {
    fn leaf(&mut self, problem: &P, worker: &P::Worker, score: P::Score) {
        self.0
            .push((problem.order(worker), problem.design(worker, score)));
    }

    fn merge(&mut self, later: Self) {
        self.0.extend(later.0);
    }
}

/// Fans the root's choices out over scoped threads and merges the sinks in
/// range order.
fn run<P: PrefixSearch, S: Sink<P>>(problem: &P, threads: usize) -> Result<S, ExploreError> {
    let root = problem.worker()?;
    let ranges = split_ranges(problem.choices(&root), threads);
    let mut root = Some(root);
    let partials: Vec<Result<S, ExploreError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| {
                let root = root.take();
                scope.spawn(move || {
                    let mut worker = match root {
                        Some(worker) => worker,
                        None => problem.worker()?,
                    };
                    let mut sink = S::default();
                    walk(problem, &mut worker, range, &mut sink)?;
                    Ok(sink)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("search worker panicked"))
            .collect()
    });
    let mut merged = S::default();
    for partial in partials {
        merged.merge(partial?);
    }
    Ok(merged)
}

/// Visits every completion of the worker's node through `choices`, in
/// depth-first order.
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
        } else {
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
