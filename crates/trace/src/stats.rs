//! One-pass streaming bit statistics over an operand trace.
//!
//! The paper's analysis consumes per-bit marginals `P(a_i = 1)`,
//! `P(b_i = 1)` and `P(cin = 1)` and *assumes the bits independent*. This
//! module estimates both halves of that contract from a trace in one pass:
//!
//! * integer counts of each bit variable being set, from which an empirical
//!   [`InputProfile`] is built — exactly (counts stay integers, so the
//!   `Rational` profile is the precise empirical frequency) or in `f64`;
//! * pairwise co-occurrence counts over all `2·width + 1` bit variables,
//!   from which an **independence-violation score** is reported: the largest
//!   absolute gap `|P̂(x ∧ y) − P̂(x)·P̂(y)|` over all variable pairs. For a
//!   truly independent source the score shrinks like `1/√records` (sampling
//!   noise); a persistent plateau is real correlation the analytical model
//!   cannot see, and [`fidelity`](mod@crate::fidelity) quantifies its cost.
//!
//! Memory is `O(width²)` counters. [`TraceStats::from_records`] and
//! [`TraceStats::extend`] count in plane space, one SIMD word of records
//! (64 to 512, following the active [`Backend`]) at a time: one transpose
//! turns the batch into one bit-plane per variable, after which a
//! variable's count grows by `popcnt(plane)` and a pair's by
//! `popcnt(x & y)`. That is `O(width²)` word operations per 64-record block,
//! whatever the bits hold, and the counts are integers, so every backend
//! yields the same statistics. [`TraceStats::push`] folds one record in by
//! visiting its `k` set bits, `O(k²)` per record, and is kept as the
//! per-record reference the plane counts are tested against.

use std::borrow::Borrow;

use sealpaa_cells::{dispatch, Backend, InputProfile, SimdKernel, SimdWord};
use sealpaa_num::Prob;

use crate::format::{TraceError, TraceRecord};
use crate::planes::RecordPlanes;

/// One of the `2·width + 1` Bernoulli bit variables of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarId {
    /// Bit `i` of operand `a`.
    A(usize),
    /// Bit `i` of operand `b`.
    B(usize),
    /// The carry-in bit.
    Cin,
}

impl std::fmt::Display for VarId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VarId::A(i) => write!(f, "a[{i}]"),
            VarId::B(i) => write!(f, "b[{i}]"),
            VarId::Cin => write!(f, "cin"),
        }
    }
}

/// Streaming per-bit statistics of a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStats {
    width: usize,
    records: u64,
    /// `ones[v]` = number of records in which variable `v` was 1, indexed
    /// `a[0..width]`, then `b[0..width]`, then `cin`.
    ones: Vec<u64>,
    /// Upper-triangular pairwise counts: `pair_ones[pair_index(i, j)]` =
    /// records in which variables `i` and `j` (`i < j`) were both 1.
    pair_ones: Vec<u64>,
}

impl TraceStats {
    /// An empty accumulator for `width`-bit operands.
    ///
    /// # Errors
    ///
    /// Fails if `width` is outside `1..=64`.
    pub fn new(width: usize) -> Result<TraceStats, TraceError> {
        if width == 0 || width > 64 {
            return Err(TraceError::InvalidWidth { width });
        }
        let vars = 2 * width + 1;
        Ok(TraceStats {
            width,
            records: 0,
            ones: vec![0; vars],
            pair_ones: vec![0; vars * (vars - 1) / 2],
        })
    }

    /// Builds statistics over a record slice in one pass, one SIMD word of
    /// records at a time on the active [`Backend`]. Operand bits above the
    /// width are ignored.
    ///
    /// # Errors
    ///
    /// Fails if `width` is outside `1..=64`.
    pub fn from_records(width: usize, records: &[TraceRecord]) -> Result<TraceStats, TraceError> {
        let mut stats = TraceStats::new(width)?;
        stats.count(Backend::active(), records);
        Ok(stats)
    }

    /// Folds a record stream in, buffering one SIMD word of records at a
    /// time, so memory stays bounded however long the stream runs. Operand
    /// bits above the width are ignored.
    pub fn extend<R: Borrow<TraceRecord>>(&mut self, records: impl IntoIterator<Item = R>) {
        let backend = Backend::active();
        let mut batch = Vec::with_capacity(backend.lanes());
        for record in records {
            batch.push(*record.borrow());
            if batch.len() == backend.lanes() {
                self.count(backend, &batch);
                batch.clear();
            }
        }
        self.count(backend, &batch);
    }

    /// Counts a record slice in plane space on `backend`'s word type. The
    /// counts are integers, so every backend yields the same statistics.
    fn count(&mut self, backend: Backend, records: &[TraceRecord]) {
        dispatch(
            backend,
            PlaneCounter {
                stats: self,
                records,
            },
        );
    }

    /// Folds one record in by visiting its set bits — the per-record
    /// reference for the block counts of [`from_records`](Self::from_records)
    /// and [`extend`](Self::extend). Operand bits above the width are
    /// ignored.
    pub fn push(&mut self, record: &TraceRecord) {
        let vars = 2 * self.width + 1;
        // Gather the indices of the set variables; `O(set²)` pair updates.
        let mut set = [0usize; 129];
        let mut k = 0;
        let mut a = record.a & mask(self.width);
        while a != 0 {
            set[k] = a.trailing_zeros() as usize;
            k += 1;
            a &= a - 1;
        }
        let mut b = record.b & mask(self.width);
        while b != 0 {
            set[k] = self.width + b.trailing_zeros() as usize;
            k += 1;
            b &= b - 1;
        }
        if record.cin {
            set[k] = vars - 1;
            k += 1;
        }
        for x in 0..k {
            self.ones[set[x]] += 1;
            for y in x + 1..k {
                self.pair_ones[pair_index(vars, set[x], set[y])] += 1;
            }
        }
        self.records += 1;
    }

    /// Operand width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of records folded in so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Count of records in which `var` was 1.
    pub fn ones(&self, var: VarId) -> u64 {
        self.ones[self.var_index(var)]
    }

    /// Count of records in which both `x` and `y` were 1.
    ///
    /// # Panics
    ///
    /// Panics if `x == y`.
    pub fn pair_ones(&self, x: VarId, y: VarId) -> u64 {
        let (i, j) = (self.var_index(x), self.var_index(y));
        assert_ne!(i, j, "a pair needs two distinct variables");
        let vars = 2 * self.width + 1;
        self.pair_ones[pair_index(vars, i.min(j), i.max(j))]
    }

    /// The empirical `P̂(var = 1)` (0 when the trace is empty).
    pub fn p(&self, var: VarId) -> f64 {
        if self.records == 0 {
            return 0.0;
        }
        self.ones(var) as f64 / self.records as f64
    }

    /// Empirical independence gap of one pair:
    /// `|P̂(x ∧ y) − P̂(x)·P̂(y)|`.
    ///
    /// # Panics
    ///
    /// Panics if `x == y`.
    pub fn violation(&self, x: VarId, y: VarId) -> f64 {
        if self.records == 0 {
            return 0.0;
        }
        let n = self.records as f64;
        let joint = self.pair_ones(x, y) as f64 / n;
        (joint - self.p(x) * self.p(y)).abs()
    }

    /// The independence-violation score: the largest [`violation`] over all
    /// variable pairs. ~`1/√records` for a truly independent source.
    ///
    /// [`violation`]: Self::violation
    pub fn independence_violation(&self) -> f64 {
        self.max_violation_pair().map_or(0.0, |(_, _, v)| v)
    }

    /// The worst pair and its gap, or `None` for an empty trace.
    pub fn max_violation_pair(&self) -> Option<(VarId, VarId, f64)> {
        if self.records == 0 {
            return None;
        }
        let vars = 2 * self.width + 1;
        let n = self.records as f64;
        let mut worst: Option<(VarId, VarId, f64)> = None;
        for i in 0..vars {
            let pi = self.ones[i] as f64 / n;
            for j in i + 1..vars {
                let joint = self.pair_ones[pair_index(vars, i, j)] as f64 / n;
                let v = (joint - pi * (self.ones[j] as f64 / n)).abs();
                if worst.is_none_or(|(_, _, w)| v > w) {
                    worst = Some((self.var_of(i), self.var_of(j), v));
                }
            }
        }
        worst
    }

    /// The empirical input profile: each marginal is the exact count ratio
    /// `ones / records` in `T` (`Rational` keeps it exact; `f64` rounds
    /// once).
    ///
    /// # Errors
    ///
    /// Fails on an empty trace (frequencies are undefined).
    pub fn empirical_profile<T: Prob>(&self) -> Result<InputProfile<T>, TraceError> {
        if self.records == 0 {
            return Err(TraceError::Header(
                "cannot profile an empty trace".to_owned(),
            ));
        }
        let ratio = |ones: u64| T::from_ratio(ones, self.records);
        let pa: Vec<T> = (0..self.width).map(|i| ratio(self.ones[i])).collect();
        let pb: Vec<T> = (0..self.width)
            .map(|i| ratio(self.ones[self.width + i]))
            .collect();
        let cin = ratio(self.ones[2 * self.width]);
        Ok(InputProfile::new(pa, pb, cin).expect("count ratios lie in [0, 1]"))
    }

    fn var_index(&self, var: VarId) -> usize {
        match var {
            VarId::A(i) => {
                assert!(i < self.width, "a[{i}] is outside the trace width");
                i
            }
            VarId::B(i) => {
                assert!(i < self.width, "b[{i}] is outside the trace width");
                self.width + i
            }
            VarId::Cin => 2 * self.width,
        }
    }

    fn var_of(&self, index: usize) -> VarId {
        if index < self.width {
            VarId::A(index)
        } else if index < 2 * self.width {
            VarId::B(index - self.width)
        } else {
            VarId::Cin
        }
    }
}

/// Counts a record slice into a [`TraceStats`], `W::LANES` records per
/// transpose.
struct PlaneCounter<'a> {
    stats: &'a mut TraceStats,
    records: &'a [TraceRecord],
}

impl SimdKernel for PlaneCounter<'_> {
    type Out = ();

    #[inline(always)]
    fn run<W: SimdWord>(self) {
        let stats = self.stats;
        let mut planes = RecordPlanes::<W>::new(stats.width);
        for batch in self.records.chunks(W::LANES) {
            // Lanes past the batch are zero in every plane, so they add
            // nothing to any count.
            planes.load(batch);
            let vars = planes.planes();
            let mut pairs = stats.pair_ones.as_mut_slice();
            for (i, &x) in vars.iter().enumerate() {
                stats.ones[i] += x.count_ones();
                // Row `i` of the upper triangle: the pairs (i, j), j > i.
                let (row, rest) = pairs.split_at_mut(vars.len() - 1 - i);
                for (count, &y) in row.iter_mut().zip(&vars[i + 1..]) {
                    *count += (x & y).count_ones();
                }
                pairs = rest;
            }
            stats.records += batch.len() as u64;
        }
    }
}

fn mask(width: usize) -> u64 {
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Flat index of the unordered pair `i < j` among `vars` variables.
fn pair_index(vars: usize, i: usize, j: usize) -> usize {
    debug_assert!(i < j && j < vars);
    i * (2 * vars - i - 1) / 2 + (j - i - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sealpaa_num::Rational;

    #[test]
    fn pair_index_is_a_bijection() {
        let vars = 9;
        let mut seen = vec![false; vars * (vars - 1) / 2];
        for i in 0..vars {
            for j in i + 1..vars {
                let idx = pair_index(vars, i, j);
                assert!(!seen[idx], "({i},{j}) collides");
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn counts_match_hand_computation() {
        let records = [
            TraceRecord::new(0b01, 0b11, true),
            TraceRecord::new(0b01, 0b00, false),
            TraceRecord::new(0b10, 0b01, true),
        ];
        let stats = TraceStats::from_records(2, &records).expect("valid width");
        assert_eq!(stats.records(), 3);
        assert_eq!(stats.ones(VarId::A(0)), 2);
        assert_eq!(stats.ones(VarId::A(1)), 1);
        assert_eq!(stats.ones(VarId::B(0)), 2);
        assert_eq!(stats.ones(VarId::B(1)), 1);
        assert_eq!(stats.ones(VarId::Cin), 2);
        assert_eq!(stats.pair_ones(VarId::A(0), VarId::B(0)), 1);
        assert_eq!(stats.pair_ones(VarId::B(0), VarId::A(0)), 1);
        assert_eq!(stats.pair_ones(VarId::A(0), VarId::Cin), 1);
        assert_eq!(stats.pair_ones(VarId::B(0), VarId::B(1)), 1);
    }

    #[test]
    fn empirical_profile_is_exact_in_rational() {
        let records = [
            TraceRecord::new(0b01, 0b11, true),
            TraceRecord::new(0b01, 0b00, false),
            TraceRecord::new(0b10, 0b01, true),
        ];
        let stats = TraceStats::from_records(2, &records).expect("valid width");
        let profile: InputProfile<Rational> = stats.empirical_profile().expect("non-empty");
        assert_eq!(*profile.pa(0), Rational::from_ratio(2, 3));
        assert_eq!(*profile.pa(1), Rational::from_ratio(1, 3));
        assert_eq!(*profile.pb(0), Rational::from_ratio(2, 3));
        assert_eq!(*profile.p_cin(), Rational::from_ratio(2, 3));
        let f: InputProfile<f64> = stats.empirical_profile().expect("non-empty");
        assert_eq!(*f.pa(0), 2.0 / 3.0);
    }

    #[test]
    fn empty_trace_has_no_profile() {
        let stats = TraceStats::new(4).expect("valid width");
        assert!(stats.empirical_profile::<f64>().is_err());
        assert_eq!(stats.independence_violation(), 0.0);
        assert!(stats.max_violation_pair().is_none());
    }

    #[test]
    fn perfectly_correlated_bits_score_high() {
        // a[0] == b[0] in every record: joint 0.5, product 0.25, gap 0.25.
        let records: Vec<TraceRecord> = (0..100)
            .map(|i| TraceRecord::new(i & 1, i & 1, false))
            .collect();
        let stats = TraceStats::from_records(1, &records).expect("valid width");
        assert_eq!(stats.violation(VarId::A(0), VarId::B(0)), 0.25);
        let (x, y, v) = stats.max_violation_pair().expect("non-empty");
        assert_eq!((x, y), (VarId::A(0), VarId::B(0)));
        assert_eq!(v, 0.25);
    }

    #[test]
    fn independent_bits_score_near_zero() {
        // A deterministic de-correlated pattern: every 2-bit combination of
        // (a[0], b[0]) appears equally often, so every pairwise gap is 0.
        let records: Vec<TraceRecord> = (0..400u64)
            .map(|i| TraceRecord::new(i & 1, (i >> 1) & 1, false))
            .collect();
        let stats = TraceStats::from_records(1, &records).expect("valid width");
        assert_eq!(stats.independence_violation(), 0.0);
    }

    #[test]
    fn block_counts_equal_the_per_record_fold() {
        use crate::synth::{generate, SynthKind};
        use sealpaa_sim::Xoshiro256pp;

        let mut rng = Xoshiro256pp::seed_from_u64(0x57A7);
        for kind in SynthKind::ALL {
            for width in [1usize, 8, 16, 31, 32, 33, 47, 64] {
                for count in [0usize, 1, 63, 64, 65, 1000] {
                    let context = format!("{kind} w{width} n{count}");
                    // Noise above the width (which every count must ignore)
                    // and random carry-ins.
                    let records: Vec<TraceRecord> = generate(kind, width, count, rng.next_u64())
                        .expect("valid")
                        .into_iter()
                        .map(|r| {
                            let noise = rng.next_u64() & !mask(width);
                            let flip = rng.next_u64();
                            TraceRecord::new(
                                r.a | noise,
                                r.b | noise.rotate_left(7) & !mask(width),
                                r.cin ^ (flip & 1 == 1),
                            )
                        })
                        .collect();
                    let mut fold = TraceStats::new(width).expect("valid width");
                    for r in &records {
                        fold.push(r);
                    }
                    assert_eq!(
                        TraceStats::from_records(width, &records).expect("valid width"),
                        fold,
                        "{context}: from_records"
                    );
                    // Streamed in two pieces, owned and borrowed.
                    let cut = count / 3;
                    let mut streamed = TraceStats::new(width).expect("valid width");
                    streamed.extend(records[..cut].iter().copied());
                    streamed.extend(&records[cut..]);
                    assert_eq!(streamed, fold, "{context}: extend");
                    for backend in Backend::available() {
                        let mut counted = TraceStats::new(width).expect("valid width");
                        counted.count(backend, &records);
                        assert_eq!(counted, fold, "{context}: {backend}");
                    }
                }
            }
        }
    }

    #[test]
    fn invalid_widths_rejected() {
        assert!(TraceStats::new(0).is_err());
        assert!(TraceStats::new(65).is_err());
        assert!(TraceStats::new(64).is_ok());
    }
}
