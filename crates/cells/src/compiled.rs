//! Bitsliced (SWAR/SIMD) evaluation of adder chains: 64–512 input vectors
//! per stage per instruction.
//!
//! [`AdderChain::add`] walks the stages one input vector at a time, building
//! a [`FaInput`] and looking up a truth-table row per bit. That is fine for
//! spot checks but hopeless for the `2^(2N+1)`-case exhaustive sweeps of
//! paper Fig. 1 / Table 6. [`CompiledChain`] instead compiles each stage's
//! 8-row truth table *once* into sum/carry boolean expressions over
//! **bit-planes**: bit `l` of plane `i` is bit `i` of the `l`-th input
//! vector, so one pass over the stages evaluates one lane batch of
//! independent additions.
//!
//! The compilation scheme is a broadcast mux tree: each truth-table row bit
//! is expanded once, at compile time, into an all-ones/all-zeros mask, and
//! an output column is evaluated lane-parallel by a three-level binary mux
//! over the `c`, `b`, `a` planes:
//!
//! ```text
//! r_k = (c & m[2k+1]) | (!c & m[2k])      k = 0..4   (mux by Cin)
//! s_j = (b & r_{2j+1}) | (!b & r_{2j})    j = 0..2   (mux by B)
//! out = (a & s_1) | (!a & s_0)                       (mux by A)
//! ```
//!
//! — branch-free, ~17 ALU ops per output (≈35 per stage for sum + carry).
//! Stages that equal the accurate full adder take the classic 5-op fast
//! path `sum = a ^ b ^ c`, `carry = (a & b) | (c & (a ^ b))`, so hybrid
//! chains with accurate MSBs cost almost nothing above the approximate
//! stages.
//!
//! The evaluation core is generic over [`SimdWord`]: [`CompiledChain::kernel`]
//! instantiates the mux tree for any word — `u64` (64 lanes), 2×u64, AVX2
//! or AVX-512 — dispatched at runtime via [`crate::simd::dispatch`]. Lane
//! order is fixed by the [`SimdWord`] contract — lane `l` is bit `l % 64`
//! of element `l / 64` — so a wide batch is exactly `WORDS` consecutive
//! 64-lane batches evaluated together.
//!
//! Around the kernel sit the plane-space helpers its callers share:
//! [`transpose_lanes`] turns 64 lane values into bit-planes and back (trace
//! statistics and replay load their records through it), and a batch's
//! error distances settle either as aggregates, through the sign and
//! magnitude planes of [`error_magnitudes`] (Monte-Carlo moments, replay's
//! exact sums), or per lane, through [`biased_distance_lanes`] and
//! [`error_distances64`] (the error-distance histograms).
//!
//! # Examples
//!
//! ```
//! use sealpaa_cells::{lane_value, transpose_lanes, AdderChain, CompiledChain, StandardCell};
//!
//! let chain = AdderChain::uniform(StandardCell::Lpaa3.cell(), 8);
//! let kernel = CompiledChain::compile(&chain).kernel::<u64>();
//!
//! // Two additions in lanes 0 and 1: row `l` of a 64×64 bit matrix holds
//! // lane `l`'s operand, and the transpose turns the rows into bit-planes.
//! let (a, b) = ([13u64, 200], [77u64, 31]);
//! let (mut a_planes, mut b_planes) = ([0u64; 64], [0u64; 64]);
//! a_planes[..2].copy_from_slice(&a);
//! b_planes[..2].copy_from_slice(&b);
//! transpose_lanes(&mut a_planes);
//! transpose_lanes(&mut b_planes);
//! let mut sum = [0u64; 8];
//! let cout = kernel.eval_into(&a_planes[..8], &b_planes[..8], 0, &mut sum);
//! for lane in 0..2 {
//!     let scalar = chain.add(a[lane], b[lane], false);
//!     assert_eq!(lane_value(&sum, cout, lane), scalar.value());
//! }
//! ```

use crate::chain::AdderChain;
use crate::simd::SimdWord;
use crate::truth_table::{FaInput, TruthTable};

/// One stage's three 8-row truth-table columns as plain bit masks (the
/// backend-independent compilation result; `error_tt` marks the rows on
/// which the cell deviates from the accurate full adder — the paper's
/// per-stage "error cases").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StageTables {
    sum_tt: u8,
    carry_tt: u8,
    error_tt: u8,
}

/// One stage specialized for word type `W`: per output, the eight
/// truth-table row bits pre-broadcast into all-ones/all-zeros words
/// (`m[r]` describes [`FaInput::from_index`]`(r)`), ready for the mux tree.
#[derive(Debug, Clone, PartialEq, Eq)]
struct KernelStage<W> {
    /// Broadcast row masks of the sum column.
    sum_m: [W; 8],
    /// Broadcast row masks of the carry-out column.
    carry_m: [W; 8],
    /// Broadcast row masks of the error rows.
    error_m: [W; 8],
    /// The error rows as a plain 8-bit mask (`error_m` collapsed), kept for
    /// the accurate-stage fast-path test.
    error_tt: u8,
}

impl<W: SimdWord> KernelStage<W> {
    /// `true` if the stage behaves exactly like the accurate full adder, in
    /// which case evaluation takes the xor/majority fast path.
    #[inline(always)]
    fn is_accurate(&self) -> bool {
        self.error_tt == 0
    }
}

/// Expands an 8-bit truth-table column into broadcast row masks.
fn broadcast_rows<W: SimdWord>(tt: u8) -> [W; 8] {
    let mut m = [W::zero(); 8];
    for (r, mask) in m.iter_mut().enumerate() {
        if (tt >> r) & 1 == 1 {
            *mask = W::ones();
        }
    }
    m
}

/// Selects each lane's truth-table row bit with a three-level mux tree over
/// the input planes and their complements (`(A << 2) | (B << 1) | Cin` row
/// indexing — Cin muxes first, A last).
#[inline(always)]
fn mux8<W: SimdWord>(m: &[W; 8], a: W, na: W, b: W, nb: W, c: W, nc: W) -> W {
    let r0 = (c & m[1]) | (nc & m[0]);
    let r1 = (c & m[3]) | (nc & m[2]);
    let r2 = (c & m[5]) | (nc & m[4]);
    let r3 = (c & m[7]) | (nc & m[6]);
    let s0 = (b & r1) | (nb & r0);
    let s1 = (b & r3) | (nb & r2);
    (a & s1) | (na & s0)
}

/// An [`AdderChain`] compiled for bitsliced evaluation.
///
/// The `compiled` module docs in the source describe the encoding. A `CompiledChain` is plain
/// data (`Send + Sync`), so one compilation can be shared across simulation
/// worker threads; [`kernel`](Self::kernel) broadcasts its truth tables for
/// one [`SimdWord`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledChain {
    tables: Vec<StageTables>,
}

impl CompiledChain {
    /// Compiles every stage's truth table into row masks.
    ///
    /// # Panics
    ///
    /// Panics if `chain.width() > 64` (same limit as [`AdderChain::add`]).
    pub fn compile(chain: &AdderChain) -> Self {
        assert!(
            chain.width() <= 64,
            "bitsliced evaluation supports up to 64 bits"
        );
        let accurate = TruthTable::accurate();
        let tables = chain
            .iter()
            .map(|cell| {
                let table = cell.truth_table();
                let mut sum_tt = 0u8;
                let mut carry_tt = 0u8;
                let mut error_tt = 0u8;
                for input in FaInput::all() {
                    let out = table.eval(input);
                    let r = input.index();
                    if out.sum {
                        sum_tt |= 1 << r;
                    }
                    if out.carry_out {
                        carry_tt |= 1 << r;
                    }
                    if out != accurate.eval(input) {
                        error_tt |= 1 << r;
                    }
                }
                StageTables {
                    sum_tt,
                    carry_tt,
                    error_tt,
                }
            })
            .collect();
        CompiledChain { tables }
    }

    /// Specializes the chain for word type `W`: the mux tree with the row
    /// masks broadcast to `W`'s width. Build once per simulation run,
    /// outside the hot loop.
    pub fn kernel<W: SimdWord>(&self) -> CompiledKernel<W> {
        CompiledKernel {
            stages: self
                .tables
                .iter()
                .map(|t| KernelStage {
                    sum_m: broadcast_rows(t.sum_tt),
                    carry_m: broadcast_rows(t.carry_tt),
                    error_m: broadcast_rows(t.error_tt),
                    error_tt: t.error_tt,
                })
                .collect(),
        }
    }
}

/// A [`CompiledChain`] specialized for word type `W` — the generic engine
/// behind every bitsliced simulator, obtained from
/// [`CompiledChain::kernel`] and dispatched via [`crate::simd::dispatch`].
///
/// Each call evaluates `W::LANES` additions: 64 for `kernel::<u64>()`, up
/// to 512 for the AVX-512 word. The methods are `#[inline(always)]` so the
/// mux tree is monomorphized *inside* the feature-annotated dispatch
/// wrapper and LLVM can vectorize the plain-array word operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledKernel<W> {
    stages: Vec<KernelStage<W>>,
}

impl<W: SimdWord> CompiledKernel<W> {
    /// Number of stages (operand width in bits).
    pub fn width(&self) -> usize {
        self.stages.len()
    }

    /// Evaluates `W::LANES` additions at once, writing the sum bit-planes
    /// into `sum_out` and returning the carry-out word (lane `l` of the word
    /// is lane `l`'s carry-out).
    ///
    /// `a_planes[i]`/`b_planes[i]` hold bit `i` of every lane's operands;
    /// `cin` holds the lanes' carry-in bits.
    ///
    /// # Panics
    ///
    /// Panics if any slice length differs from [`width`](Self::width).
    #[inline(always)]
    pub fn eval_into(&self, a_planes: &[W], b_planes: &[W], cin: W, sum_out: &mut [W]) -> W {
        let width = self.width();
        assert_eq!(a_planes.len(), width, "a_planes width mismatch");
        assert_eq!(b_planes.len(), width, "b_planes width mismatch");
        assert_eq!(sum_out.len(), width, "sum_out width mismatch");
        let mut carry = cin;
        for (i, stage) in self.stages.iter().enumerate() {
            let (a, b, c) = (a_planes[i], b_planes[i], carry);
            if stage.is_accurate() {
                sum_out[i] = a ^ b ^ c;
                carry = (a & b) | (c & (a ^ b));
            } else {
                let (na, nb, nc) = (!a, !b, !c);
                sum_out[i] = mux8(&stage.sum_m, a, na, b, nb, c, nc);
                carry = mux8(&stage.carry_m, a, na, b, nb, c, nc);
            }
        }
        carry
    }

    /// Fused evaluation of the approximate chain *and* the accurate
    /// reference in one pass over the planes: writes the approximate sum
    /// planes into `approx_out`, the accurate sum planes into `exact_out`,
    /// and returns the batch's comparison words. Equivalent to
    /// [`eval_into`](Self::eval_into) + [`accurate_eval`] + a plane-wise
    /// XOR reduce, plus the first-deviation word, but loads each operand
    /// plane once and shares the `a ^ b` / `a & b` subterms between the two
    /// carry chains — the exhaustive sweep's inner loop.
    ///
    /// # Panics
    ///
    /// Panics if any slice length differs from [`width`](Self::width).
    #[inline(always)]
    pub fn eval_diff(
        &self,
        a_planes: &[W],
        b_planes: &[W],
        cin: W,
        approx_out: &mut [W],
        exact_out: &mut [W],
    ) -> KernelDiff<W> {
        let width = self.width();
        assert_eq!(a_planes.len(), width, "a_planes width mismatch");
        assert_eq!(b_planes.len(), width, "b_planes width mismatch");
        assert_eq!(approx_out.len(), width, "approx_out width mismatch");
        assert_eq!(exact_out.len(), width, "exact_out width mismatch");
        let mut approx_carry = cin;
        let mut exact_carry = cin;
        let mut deviated = W::zero();
        let mut mismatch = W::zero();
        for (i, stage) in self.stages.iter().enumerate() {
            let (a, b) = (a_planes[i], b_planes[i]);
            let axb = a ^ b;
            let aab = a & b;
            let approx;
            if stage.is_accurate() {
                approx = axb ^ approx_carry;
                approx_carry = aab | (approx_carry & axb);
            } else {
                let (na, nb) = (!a, !b);
                let (c, nc) = (approx_carry, !approx_carry);
                approx = mux8(&stage.sum_m, a, na, b, nb, c, nc);
                approx_carry = mux8(&stage.carry_m, a, na, b, nb, c, nc);
                // First-deviation semantics: error rows are tested along
                // the *accurate* carry chain.
                deviated = deviated | mux8(&stage.error_m, a, na, b, nb, exact_carry, !exact_carry);
            }
            let exact = axb ^ exact_carry;
            exact_carry = aab | (exact_carry & axb);
            mismatch = mismatch | (approx ^ exact);
            approx_out[i] = approx;
            exact_out[i] = exact;
        }
        mismatch = mismatch | (approx_carry ^ exact_carry);
        KernelDiff {
            approx_cout: approx_carry,
            exact_cout: exact_carry,
            deviated,
            mismatch,
        }
    }
}

/// The comparison words of one fused [`CompiledKernel::eval_diff`] batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelDiff<W> {
    /// The approximate chain's carry-out word.
    pub approx_cout: W,
    /// The accurate reference's carry-out word.
    pub exact_cout: W,
    /// Lanes on which some stage sat on an error row along the accurate
    /// carries (the paper's first-deviation "stage error" semantics).
    pub deviated: W,
    /// Lanes whose full output value (sum bits + carry-out) is wrong.
    pub mismatch: W,
}

/// Evaluates the *accurate* reference chain on `W::LANES` lanes: plain
/// ripple addition via `sum = a ^ b ^ c`, `carry = majority(a, b, c)`.
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline(always)]
pub fn accurate_eval<W: SimdWord>(a_planes: &[W], b_planes: &[W], cin: W, sum_out: &mut [W]) -> W {
    assert_eq!(a_planes.len(), b_planes.len(), "operand width mismatch");
    assert_eq!(a_planes.len(), sum_out.len(), "sum_out width mismatch");
    let mut carry = cin;
    for i in 0..a_planes.len() {
        let (a, b, c) = (a_planes[i], b_planes[i], carry);
        sum_out[i] = a ^ b ^ c;
        carry = (a & b) | (c & (a ^ b));
    }
    carry
}

/// Broadcasts one scalar value into bit-planes: plane `i` is all-ones iff
/// bit `i` of `value` is set (every lane carries the same operand).
#[inline(always)]
pub fn splat_planes<W: SimdWord>(value: u64, planes: &mut [W]) {
    for (i, plane) in planes.iter_mut().enumerate() {
        *plane = W::splat(((value >> i) & 1).wrapping_neg());
    }
}

/// Transposes 64 wide words as `W::WORDS` independent 64×64 bit matrices,
/// in place: within every 64-bit element position `s`, bit `c` of
/// `m[r].word(s)` swaps with bit `r` of `m[c].word(s)`.
///
/// The classic block-swap recursion: 6 rounds of masked half-block
/// exchanges, `O(64·log 64)` word operations instead of the `O(64·64)`
/// single-bit moves of a naive transpose. Every swap step shifts and masks
/// *within* a 64-bit element, so the wide transpose performs one subword
/// transpose per element at the op count of a single `u64` transpose — the
/// wider the backend, the more 64-lane subwords are transposed per
/// operation.
#[inline(always)]
pub fn transpose_lanes<W: SimdWord>(m: &mut [W; 64]) {
    swap_blocks::<W, 32>(m, 0x0000_0000_FFFF_FFFF);
    swap_blocks::<W, 16>(m, 0x0000_FFFF_0000_FFFF);
    swap_blocks::<W, 8>(m, 0x00FF_00FF_00FF_00FF);
    swap_blocks::<W, 4>(m, 0x0F0F_0F0F_0F0F_0F0F);
    swap_blocks::<W, 2>(m, 0x3333_3333_3333_3333);
    swap_blocks::<W, 1>(m, 0x5555_5555_5555_5555);
}

/// Expands `$body` once per row index `0..64`, bound to `$i` as a
/// constant: straight-line code with no loop left to vectorize.
macro_rules! for_each_row {
    ($i:ident => $body:block) => {
        for_each_row!(@rows $i $body
            0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15
            16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31
            32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47
            48 49 50 51 52 53 54 55 56 57 58 59 60 61 62 63)
    };
    (@rows $i:ident $body:block $($row:literal)*) => {
        $({
            let $i: usize = $row;
            $body
        })*
    };
}

/// One round of [`transpose_lanes`]: exchanges the `J`-bit blocks selected
/// by `mask` between rows `i` and `i + J`. Every row index and shift is a
/// constant and the rows are unrolled, so each exchange compiles to whole
/// word operations. (Left as a loop over rows, the wide words were
/// vectorized across rows instead, with a gather per element.)
#[inline(always)]
fn swap_blocks<W: SimdWord, const J: usize>(m: &mut [W; 64], mask: u64) {
    let mask = W::splat(mask);
    for_each_row!(i => {
        if i & J == 0 {
            let t = (m[i].shr64(J as u32) ^ m[i + J]) & mask;
            m[i] = m[i] ^ t.shl64(J as u32);
            m[i + J] = m[i + J] ^ t;
        }
    });
}

/// Computes, for every lane, the *biased* signed error distance
/// `(approx − exact) + (2^(width+1) − 1)` — the canonical error-distance
/// histogram index — in transposed form: after the call, `m[l].word(s)` is
/// the biased distance of lane `l` of 64-lane subword `s` (planes at or
/// above `width + 2` come out zero, so the value is the full result).
///
/// The distances are produced entirely in plane space: a lane-parallel
/// two's-complement subtraction over `width + 2` bit-planes followed by one
/// wide [`transpose_lanes`]. The cost is `O(width + 64·log 64)` wide-word
/// operations per call — independent of how many lanes mismatch, and
/// scaling with the backend's lane count — where a per-lane
/// [`error_distances64`] walk is serial in the erroneous lanes. The
/// exhaustive error-distance histogram switches to this path when a batch's
/// mismatch mask is dense.
///
/// # Panics
///
/// Panics if the sum slice lengths differ or `width + 2 > 64`.
#[inline(always)]
pub fn biased_distance_lanes<W: SimdWord>(
    approx_sum: &[W],
    approx_cout: W,
    exact_sum: &[W],
    exact_cout: W,
    m: &mut [W; 64],
) {
    assert_eq!(approx_sum.len(), exact_sum.len(), "operand width mismatch");
    let width = approx_sum.len();
    assert!(width + 2 <= 64, "biased distances need width + 2 planes");
    // approx − exact + (2^(width+1) − 1) ≡ approx + !exact + 2^(width+1)
    // (mod 2^(width+2)): one ripple addition of approx and !exact — the
    // two's-complement carry-in and the bias together are exactly
    // 2^(width+1), which only complements the top plane.
    let mut carry = W::zero();
    for i in 0..width {
        let a = approx_sum[i];
        let e = !exact_sum[i];
        m[i] = a ^ e ^ carry;
        carry = (a & e) | (carry & (a ^ e));
    }
    let a = approx_cout;
    let e = !exact_cout;
    m[width] = a ^ e ^ carry;
    carry = (a & e) | (carry & (a ^ e));
    // Plane width+1 of the operands is (0, all-ones), so the plain sum bit
    // is !carry; adding the folded 2^(width+1) complements it to `carry`.
    m[width + 1] = carry;
    for plane in m.iter_mut().skip(width + 2) {
        *plane = W::zero();
    }
    transpose_lanes(m);
}

/// Extracts lane `l`'s full numeric value (sum bits plus the carry-out as
/// bit `width`) from sum planes and a carry-out word — the bitsliced
/// counterpart of [`AdditionResult::value`](crate::AdditionResult::value).
///
/// # Panics
///
/// Panics if `lane >= 64`.
pub fn lane_value(sum_planes: &[u64], cout: u64, lane: usize) -> u64 {
    assert!(lane < 64, "a plane word holds at most 64 lanes");
    let mut value = ((cout >> lane) & 1) << sum_planes.len();
    for (i, plane) in sum_planes.iter().enumerate() {
        value |= ((plane >> lane) & 1) << i;
    }
    value
}

/// Computes the signed error distance `approx − exact` for every lane set in
/// `mismatch`, writing into `ed` (other entries are left untouched).
///
/// One pass over the planes instead of one [`lane_value`] extraction per
/// erroneous lane: plane `i` bits that differ contribute `+2^i` where the
/// approximate sum has the bit and `−2^i` where the exact sum has it (the
/// carry-out words likewise at weight `2^width`), so the cost is
/// `O(width + errors)` per 64-lane batch rather than `O(width · errors)`.
///
/// # Panics
///
/// Panics if the sum slice lengths differ.
pub fn error_distances64(
    approx_sum: &[u64],
    approx_cout: u64,
    exact_sum: &[u64],
    exact_cout: u64,
    mismatch: u64,
    ed: &mut [i64; 64],
) {
    assert_eq!(approx_sum.len(), exact_sum.len(), "operand width mismatch");
    let mut lanes = mismatch;
    while lanes != 0 {
        let lane = lanes.trailing_zeros() as usize;
        lanes &= lanes - 1;
        ed[lane] = 0;
    }
    let mut accumulate = |approx_plane: u64, exact_plane: u64, weight: i64| {
        let diff = (approx_plane ^ exact_plane) & mismatch;
        if diff == 0 {
            return;
        }
        let mut pos = approx_plane & diff;
        while pos != 0 {
            let lane = pos.trailing_zeros() as usize;
            pos &= pos - 1;
            ed[lane] += weight;
        }
        let mut neg = exact_plane & diff;
        while neg != 0 {
            let lane = neg.trailing_zeros() as usize;
            neg &= neg - 1;
            ed[lane] -= weight;
        }
    };
    for (i, (&approx, &exact)) in approx_sum.iter().zip(exact_sum).enumerate() {
        accumulate(approx, exact, 1i64 << i);
    }
    accumulate(approx_cout, exact_cout, 1i64 << approx_sum.len());
}

/// Aggregate error-distance statistics of one lane batch: the lanes set in
/// `mismatch` contribute their signed error distance `approx − exact` to
/// [`sum_ed`](ErrorStats64::sum_ed), its magnitude to
/// [`sum_abs_ed`](ErrorStats64::sum_abs_ed), and the largest magnitude to
/// [`max_abs_ed`](ErrorStats64::max_abs_ed).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ErrorStats64 {
    /// `Σ (approx − exact)` over the mismatch lanes (exact integer terms,
    /// accumulated in `f64`).
    pub sum_ed: f64,
    /// `Σ |approx − exact|` over the mismatch lanes.
    pub sum_abs_ed: f64,
    /// `max |approx − exact|` over the mismatch lanes.
    pub max_abs_ed: u64,
}

/// The signs of one batch's error distances and their largest magnitude,
/// returned by [`error_magnitudes`] beside the magnitude planes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ErrorSigns<W> {
    /// Mismatching lanes whose approximate value exceeds the exact one.
    pub positive: W,
    /// Mismatching lanes whose approximate value falls short of the exact one.
    pub negative: W,
    /// `max |approx − exact|` over the mismatching lanes.
    pub max_abs_ed: u64,
}

/// Settles a batch's error distances in sign-magnitude form, entirely in
/// plane space: writes `|approx − exact|` of every lane in `mismatch` as
/// bit-planes into `mag` (`width + 1` planes, zero outside `mismatch`) and
/// returns the lanes' signs and the largest magnitude. The cost is
/// `O(width)` word operations however many lanes erred.
///
/// The construction: a most-significant-bit-first scan finds the lanes
/// where the approximate value exceeds the exact one; a lane-parallel
/// borrow-ripple subtraction of the smaller value from the larger yields
/// the magnitude planes; an MSB-first candidate-narrowing scan reads off
/// the maximum magnitude. [`error_stats`] and trace replay both weight
/// these planes by popcount.
///
/// # Panics
///
/// Panics if the sum slice lengths differ or `mag` does not hold
/// `width + 1` planes, or (in debug builds) if the width is 64 (the
/// carry-out would sit at bit 64).
#[inline(always)]
pub fn error_magnitudes<W: SimdWord>(
    approx_sum: &[W],
    approx_cout: W,
    exact_sum: &[W],
    exact_cout: W,
    mismatch: W,
    mag: &mut [W],
) -> ErrorSigns<W> {
    assert_eq!(approx_sum.len(), exact_sum.len(), "operand width mismatch");
    let width = approx_sum.len();
    assert_eq!(
        mag.len(),
        width + 1,
        "magnitude planes need width + 1 words"
    );
    debug_assert!(width < 64, "carry-out weight 2^width must fit in u64");

    // Lanes where approx > exact: first differing bit, MSB first.
    let mut undecided = mismatch;
    let mut gt = W::zero();
    let d = (approx_cout ^ exact_cout) & undecided;
    gt = gt | (d & approx_cout);
    undecided = undecided & !d;
    for i in (0..width).rev() {
        let d = (approx_sum[i] ^ exact_sum[i]) & undecided;
        gt = gt | (d & approx_sum[i]);
        undecided = undecided & !d;
    }
    let lt = mismatch & !gt;

    // |approx − exact| per lane: subtract the smaller value from the larger
    // with a lane-parallel borrow ripple.
    let mut borrow = W::zero();
    for i in 0..width {
        let x = (approx_sum[i] & gt) | (exact_sum[i] & lt);
        let y = (exact_sum[i] & gt) | (approx_sum[i] & lt);
        mag[i] = (x ^ y ^ borrow) & mismatch;
        borrow = (!x & (y | borrow)) | (y & borrow);
    }
    let x = (approx_cout & gt) | (exact_cout & lt);
    let y = (exact_cout & gt) | (approx_cout & lt);
    mag[width] = (x ^ y ^ borrow) & mismatch;

    // Maximum magnitude: narrow the candidate set bit by bit from the top.
    let mut candidates = mismatch;
    let mut max_abs_ed = 0u64;
    for i in (0..=width).rev() {
        let hit = candidates & mag[i];
        if hit.any() {
            candidates = hit;
            max_abs_ed |= 1u64 << i;
        }
    }

    ErrorSigns {
        positive: gt,
        negative: lt,
        max_abs_ed,
    }
}

/// Computes [`ErrorStats64`] for a batch entirely in plane space — no
/// per-lane extraction, so the cost is `O(width)` regardless of how many
/// lanes erred. Used by the Monte-Carlo kernel, where every lane has unit
/// weight and only the aggregate moments are needed: the popcount of each
/// [`error_magnitudes`] plane, split by sign, weights its bit position.
///
/// # Panics
///
/// Panics if the sum slice lengths differ, or (in debug builds) if the
/// width is 64 (the carry-out would sit at bit 64). The callers stay below
/// that: exhaustive sweeps stop at 16 bits and Monte-Carlo at 62.
#[inline(always)]
pub fn error_stats<W: SimdWord>(
    approx_sum: &[W],
    approx_cout: W,
    exact_sum: &[W],
    exact_cout: W,
    mismatch: W,
) -> ErrorStats64 {
    assert_eq!(approx_sum.len(), exact_sum.len(), "operand width mismatch");
    let width = approx_sum.len();
    if !mismatch.any() {
        return ErrorStats64::default();
    }
    let mut mag = [W::zero(); 65];
    let mag = &mut mag[..=width];
    let signs = error_magnitudes(
        approx_sum,
        approx_cout,
        exact_sum,
        exact_cout,
        mismatch,
        mag,
    );
    let mut sum_ed = 0.0f64;
    let mut sum_abs_ed = 0.0f64;
    for (i, &m) in mag.iter().enumerate() {
        let weight = (1u128 << i) as f64;
        sum_abs_ed += m.count_ones() as f64 * weight;
        sum_ed += ((m & signs.positive).count_ones() as i64
            - (m & signs.negative).count_ones() as i64) as f64
            * weight;
    }
    ErrorStats64 {
        sum_ed,
        sum_abs_ed,
        max_abs_ed: signs.max_abs_ed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::{Cell, StandardCell};
    use crate::simd::{W128, W256, W512};

    /// Tiny deterministic generator for test operands (SplitMix64 step).
    struct TestRng(u64);

    impl TestRng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// `width` bit-planes of up to 64 lane values.
    fn pack(values: &[u64], width: usize) -> Vec<u64> {
        let mut m = [0u64; 64];
        m[..values.len()].copy_from_slice(values);
        transpose_lanes(&mut m);
        m[..width].to_vec()
    }

    /// Approximate and accurate sums of one 64-lane batch, with the
    /// comparison words.
    fn eval_batch(
        kernel: &CompiledKernel<u64>,
        a_planes: &[u64],
        b_planes: &[u64],
        cin: u64,
    ) -> (Vec<u64>, Vec<u64>, KernelDiff<u64>) {
        let mut approx = vec![0u64; kernel.width()];
        let mut exact = vec![0u64; kernel.width()];
        let diff = kernel.eval_diff(a_planes, b_planes, cin, &mut approx, &mut exact);
        (approx, exact, diff)
    }

    fn assert_kernel64_matches_scalar(chain: &AdderChain, rng: &mut TestRng) {
        let width = chain.width();
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let kernel = CompiledChain::compile(chain).kernel::<u64>();
        let a_vals: Vec<u64> = (0..64).map(|_| rng.next() & mask).collect();
        let b_vals: Vec<u64> = (0..64).map(|_| rng.next() & mask).collect();
        let cin_word = rng.next();
        let a_planes = pack(&a_vals, width);
        let b_planes = pack(&b_vals, width);
        let mut sum = vec![0u64; width];
        let cout = kernel.eval_into(&a_planes, &b_planes, cin_word, &mut sum);
        let mut exact_sum = vec![0u64; width];
        let exact_cout = accurate_eval(&a_planes, &b_planes, cin_word, &mut exact_sum);
        // The fused pass must agree with the separate ones, word for word.
        let (fused_approx, fused_exact, diff) = eval_batch(&kernel, &a_planes, &b_planes, cin_word);
        assert_eq!(fused_approx, sum);
        assert_eq!(fused_exact, exact_sum);
        assert_eq!(diff.approx_cout, cout);
        assert_eq!(diff.exact_cout, exact_cout);
        let mut mismatch = cout ^ exact_cout;
        for i in 0..width {
            mismatch |= sum[i] ^ exact_sum[i];
        }
        assert_eq!(diff.mismatch, mismatch);
        for lane in 0..64 {
            let cin = (cin_word >> lane) & 1 == 1;
            let scalar = chain.add(a_vals[lane], b_vals[lane], cin);
            assert_eq!(
                lane_value(&sum, cout, lane),
                scalar.value(),
                "{chain} lane {lane}: a={} b={} cin={cin}",
                a_vals[lane],
                b_vals[lane]
            );
            let reference = chain.accurate_sum(a_vals[lane], b_vals[lane], cin);
            assert_eq!(lane_value(&exact_sum, exact_cout, lane), reference.value());
            // First-deviation semantics against the scalar walk along the
            // accurate carries.
            let accurate = TruthTable::accurate();
            let mut carry = cin;
            let mut scalar_deviated = false;
            for (i, cell) in chain.iter().enumerate() {
                let input = FaInput::new(
                    (a_vals[lane] >> i) & 1 == 1,
                    (b_vals[lane] >> i) & 1 == 1,
                    carry,
                );
                if cell.truth_table().eval(input) != accurate.eval(input) {
                    scalar_deviated = true;
                    break;
                }
                carry = accurate.eval(input).carry_out;
            }
            assert_eq!(
                (diff.deviated >> lane) & 1 == 1,
                scalar_deviated,
                "{chain} lane {lane} deviation"
            );
        }
    }

    #[test]
    fn kernel64_matches_scalar_for_every_standard_cell() {
        let mut rng = TestRng(0xC0FFEE);
        for cell in StandardCell::ALL {
            for width in [1usize, 3, 8, 13] {
                let chain = AdderChain::uniform(cell.cell(), width);
                assert_kernel64_matches_scalar(&chain, &mut rng);
            }
        }
    }

    #[test]
    fn kernel64_matches_scalar_for_random_hybrids() {
        let mut rng = TestRng(0xDAC17);
        for trial in 0..40 {
            let width = 1 + (rng.next() % 16) as usize;
            let stages: Vec<Cell> = (0..width)
                .map(|_| {
                    let pick = (rng.next() % StandardCell::ALL.len() as u64) as usize;
                    StandardCell::ALL[pick].cell()
                })
                .collect();
            let chain = AdderChain::from_stages(stages);
            assert_kernel64_matches_scalar(&chain, &mut rng);
            let _ = trial;
        }
    }

    #[test]
    fn kernel64_matches_scalar_for_arbitrary_truth_tables() {
        // Not just the library cells: any 8-row behaviour must compile.
        let mut rng = TestRng(0xBEEF);
        for _ in 0..20 {
            let word = rng.next();
            let table = TruthTable::from_bits(word as u8, (word >> 8) as u8);
            let chain = AdderChain::uniform(Cell::custom("rand", table), 7);
            assert_kernel64_matches_scalar(&chain, &mut rng);
        }
    }

    /// The wide kernel's batch must be, subword for subword, exactly the
    /// `u64` kernel applied to consecutive 64-lane batches (the lane-order
    /// contract every backend's byte-identity rests on).
    fn assert_kernel_matches_u64_subwords<W: SimdWord>(chain: &AdderChain, rng: &mut TestRng) {
        let width = chain.width();
        let compiled = CompiledChain::compile(chain);
        let kernel = compiled.kernel::<W>();
        let kernel64 = compiled.kernel::<u64>();
        assert_eq!(kernel.width(), width);
        let a_planes: Vec<W> = (0..width).map(|_| W::from_fn(|_| rng.next())).collect();
        let b_planes: Vec<W> = (0..width).map(|_| W::from_fn(|_| rng.next())).collect();
        let cin = W::from_fn(|_| rng.next());
        let mut approx = vec![W::zero(); width];
        let mut exact = vec![W::zero(); width];
        let diff = kernel.eval_diff(&a_planes, &b_planes, cin, &mut approx, &mut exact);
        let mut sum = vec![W::zero(); width];
        let cout = kernel.eval_into(&a_planes, &b_planes, cin, &mut sum);
        let mut acc_sum = vec![W::zero(); width];
        let acc_cout = accurate_eval(&a_planes, &b_planes, cin, &mut acc_sum);
        let stats = error_stats(
            &approx,
            diff.approx_cout,
            &exact,
            diff.exact_cout,
            diff.mismatch,
        );

        let mut stats64_sum = ErrorStats64::default();
        for s in 0..W::WORDS {
            let sub = |planes: &[W]| -> Vec<u64> { planes.iter().map(|p| p.word(s)).collect() };
            let (a64, b64) = (sub(&a_planes), sub(&b_planes));
            let mut sum64 = vec![0u64; width];
            let cout64 = kernel64.eval_into(&a64, &b64, cin.word(s), &mut sum64);
            let (approx64, exact64, diff64) = eval_batch(&kernel64, &a64, &b64, cin.word(s));
            assert_eq!(approx64, sum64);
            assert_eq!(diff64.approx_cout, cout64);
            for i in 0..width {
                assert_eq!(approx[i].word(s), sum64[i], "{chain} word {s} plane {i}");
                assert_eq!(sum[i].word(s), sum64[i]);
                assert_eq!(exact[i].word(s), exact64[i]);
                assert_eq!(acc_sum[i].word(s), exact64[i]);
            }
            assert_eq!(diff.approx_cout.word(s), cout64);
            assert_eq!(cout.word(s), cout64);
            assert_eq!(diff.exact_cout.word(s), diff64.exact_cout);
            assert_eq!(acc_cout.word(s), diff64.exact_cout);
            assert_eq!(diff.deviated.word(s), diff64.deviated);
            assert_eq!(diff.mismatch.word(s), diff64.mismatch);
            let s64 = error_stats(
                &approx64,
                diff64.approx_cout,
                &exact64,
                diff64.exact_cout,
                diff64.mismatch,
            );
            stats64_sum.sum_ed += s64.sum_ed;
            stats64_sum.sum_abs_ed += s64.sum_abs_ed;
            stats64_sum.max_abs_ed = stats64_sum.max_abs_ed.max(s64.max_abs_ed);
        }
        assert_eq!(stats.sum_ed, stats64_sum.sum_ed, "{chain}");
        assert_eq!(stats.sum_abs_ed, stats64_sum.sum_abs_ed, "{chain}");
        assert_eq!(stats.max_abs_ed, stats64_sum.max_abs_ed, "{chain}");
    }

    #[test]
    fn wide_kernels_match_u64_subword_for_subword() {
        let mut rng = TestRng(0x51AD);
        for cell in StandardCell::ALL {
            for width in [1usize, 7, 16] {
                let chain = AdderChain::uniform(cell.cell(), width);
                assert_kernel_matches_u64_subwords::<W128>(&chain, &mut rng);
                assert_kernel_matches_u64_subwords::<W256>(&chain, &mut rng);
                assert_kernel_matches_u64_subwords::<W512>(&chain, &mut rng);
            }
        }
        for trial in 0..12 {
            let width = 1 + (rng.next() % 24) as usize;
            let stages: Vec<Cell> = (0..width)
                .map(|_| {
                    let pick = (rng.next() % StandardCell::ALL.len() as u64) as usize;
                    StandardCell::ALL[pick].cell()
                })
                .collect();
            let chain = AdderChain::from_stages(stages);
            assert_kernel_matches_u64_subwords::<W128>(&chain, &mut rng);
            assert_kernel_matches_u64_subwords::<W256>(&chain, &mut rng);
            assert_kernel_matches_u64_subwords::<W512>(&chain, &mut rng);
            let _ = trial;
        }
    }

    #[test]
    fn accurate_chain_takes_exact_fast_path() {
        let chain = AdderChain::uniform(StandardCell::Accurate.cell(), 16);
        assert!(chain.is_accurate());
        let kernel = CompiledChain::compile(&chain).kernel::<u64>();
        let mut rng = TestRng(7);
        let a_planes: Vec<u64> = (0..16).map(|_| rng.next()).collect();
        let b_planes: Vec<u64> = (0..16).map(|_| rng.next()).collect();
        let cin = rng.next();
        let mut sum = vec![0u64; 16];
        let cout = kernel.eval_into(&a_planes, &b_planes, cin, &mut sum);
        let mut exact = vec![0u64; 16];
        let exact_cout = accurate_eval(&a_planes, &b_planes, cin, &mut exact);
        assert_eq!(sum, exact);
        assert_eq!(cout, exact_cout);
        let (_, _, diff) = eval_batch(&kernel, &a_planes, &b_planes, cin);
        assert_eq!(diff.deviated, 0);
        assert_eq!(diff.mismatch, 0);
    }

    #[test]
    fn splat_and_pack_round_trip() {
        let mut planes = vec![0u64; 4];
        splat_planes(0b1011, &mut planes);
        assert_eq!(planes, vec![u64::MAX, u64::MAX, 0, u64::MAX]);
        for lane in [0usize, 17, 63] {
            assert_eq!(lane_value(&planes, 0, lane), 0b1011);
        }
        let packed = pack(&[5, 9, 2], 4);
        assert_eq!(lane_value(&packed, 0, 0), 5);
        assert_eq!(lane_value(&packed, 0, 1), 9);
        assert_eq!(lane_value(&packed, 0, 2), 2);
        assert_eq!(lane_value(&packed, 0, 3), 0);
    }

    #[test]
    fn transpose_pack_matches_naive_pack() {
        let mut rng = TestRng(0x7A05);
        for &width in &[1usize, 5, 16, 47, 64] {
            for &lanes in &[0usize, 1, 17, 63, 64] {
                let values: Vec<u64> = (0..lanes).map(|_| rng.next()).collect();
                let packed = pack(&values, width);
                // Naive reference: one bit at a time.
                let mut naive = vec![0u64; width];
                for (lane, &v) in values.iter().enumerate() {
                    for (i, plane) in naive.iter_mut().enumerate() {
                        *plane |= ((v >> i) & 1) << lane;
                    }
                }
                assert_eq!(packed, naive, "w{width} lanes{lanes}");
            }
        }
    }

    #[test]
    fn error_distances_match_per_lane_extraction() {
        let mut rng = TestRng(0x5EED);
        for cell in [
            StandardCell::Lpaa1,
            StandardCell::Lpaa5,
            StandardCell::Lpaa7,
        ] {
            let width = 9;
            let mask = (1u64 << width) - 1;
            let chain = AdderChain::uniform(cell.cell(), width);
            let kernel = CompiledChain::compile(&chain).kernel::<u64>();
            let a_vals: Vec<u64> = (0..64).map(|_| rng.next() & mask).collect();
            let b_vals: Vec<u64> = (0..64).map(|_| rng.next() & mask).collect();
            let cin_word = rng.next();
            let a_planes = pack(&a_vals, width);
            let b_planes = pack(&b_vals, width);
            let (approx_sum, exact_sum, diff) = eval_batch(&kernel, &a_planes, &b_planes, cin_word);
            let (approx_cout, exact_cout, mismatch) =
                (diff.approx_cout, diff.exact_cout, diff.mismatch);
            // Poisoned scratch: the helper must overwrite every mismatch lane.
            let mut ed = [i64::MIN; 64];
            error_distances64(
                &approx_sum,
                approx_cout,
                &exact_sum,
                exact_cout,
                mismatch,
                &mut ed,
            );
            for (lane, &got) in ed.iter().enumerate() {
                if (mismatch >> lane) & 1 == 1 {
                    let approx = lane_value(&approx_sum, approx_cout, lane) as i64;
                    let exact = lane_value(&exact_sum, exact_cout, lane) as i64;
                    assert_eq!(got, approx - exact, "{cell} lane {lane}");
                } else {
                    assert_eq!(got, i64::MIN, "{cell} lane {lane} untouched");
                }
            }
        }
    }

    #[test]
    fn transpose_lanes_matches_scalar_transpose_per_subword() {
        fn check<W: SimdWord>() {
            let mut rng = TestRng(0x7A05 ^ W::WORDS as u64);
            let mut wide = [W::zero(); 64];
            let mut scalar = vec![[0u64; 64]; W::WORDS];
            for r in 0..64 {
                wide[r] = W::from_fn(|s| {
                    let v = rng.next();
                    scalar[s][r] = v;
                    v
                });
            }
            transpose_lanes(&mut wide);
            for block in scalar.iter_mut() {
                transpose_lanes(block);
            }
            for r in 0..64 {
                for (s, block) in scalar.iter().enumerate() {
                    assert_eq!(wide[r].word(s), block[r], "words{} r{r} s{s}", W::WORDS);
                }
            }
        }
        check::<u64>();
        check::<W128>();
        check::<W256>();
        check::<W512>();
    }

    #[test]
    fn biased_distance_lanes_match_error_distances() {
        fn check<W: SimdWord>() {
            let mut rng = TestRng(0xD157 ^ W::WORDS as u64);
            for cell in [StandardCell::Lpaa1, StandardCell::Lpaa5] {
                for width in [6usize, 13] {
                    let chain = AdderChain::uniform(cell.cell(), width);
                    let compiled = CompiledChain::compile(&chain);
                    let kernel = compiled.kernel::<W>();
                    let a_planes: Vec<W> = (0..width).map(|_| W::from_fn(|_| rng.next())).collect();
                    let b_planes: Vec<W> = (0..width)
                        .map(|_| W::from_fn(|_| rng.next() & rng.next()))
                        .collect();
                    let cin_word = W::from_fn(|_| rng.next());
                    let mut approx_sum = vec![W::zero(); width];
                    let mut exact_sum = vec![W::zero(); width];
                    let diff = kernel.eval_diff(
                        &a_planes,
                        &b_planes,
                        cin_word,
                        &mut approx_sum,
                        &mut exact_sum,
                    );
                    let mut m = [W::ones(); 64]; // poisoned: must be fully overwritten
                    biased_distance_lanes(
                        &approx_sum,
                        diff.approx_cout,
                        &exact_sum,
                        diff.exact_cout,
                        &mut m,
                    );
                    let offset = (1i64 << (width + 1)) - 1;
                    let mut sub_approx = vec![0u64; width];
                    let mut sub_exact = vec![0u64; width];
                    let mut ed = [0i64; 64];
                    for s in 0..W::WORDS {
                        let mm = diff.mismatch.word(s);
                        for i in 0..width {
                            sub_approx[i] = approx_sum[i].word(s);
                            sub_exact[i] = exact_sum[i].word(s);
                        }
                        error_distances64(
                            &sub_approx,
                            diff.approx_cout.word(s),
                            &sub_exact,
                            diff.exact_cout.word(s),
                            !0u64,
                            &mut ed,
                        );
                        for lane in 0..64 {
                            assert_eq!(
                                m[lane].word(s) as i64,
                                ed[lane] + offset,
                                "{cell} w{width} words{} s{s} lane{lane} mm{mm:#x}",
                                W::WORDS
                            );
                        }
                    }
                }
            }
        }
        check::<u64>();
        check::<W128>();
        check::<W256>();
        check::<W512>();
    }

    #[test]
    fn error_stats_match_per_lane_extraction() {
        let mut rng = TestRng(0xABCD);
        for cell in [
            StandardCell::Lpaa1,
            StandardCell::Lpaa4,
            StandardCell::Lpaa6,
        ] {
            for width in [5usize, 11, 16] {
                let mask = (1u64 << width) - 1;
                let chain = AdderChain::uniform(cell.cell(), width);
                let kernel = CompiledChain::compile(&chain).kernel::<u64>();
                let a_vals: Vec<u64> = (0..64).map(|_| rng.next() & mask).collect();
                let b_vals: Vec<u64> = (0..64).map(|_| rng.next() & mask).collect();
                let cin_word = rng.next();
                let a_planes = pack(&a_vals, width);
                let b_planes = pack(&b_vals, width);
                let (approx_sum, exact_sum, diff) =
                    eval_batch(&kernel, &a_planes, &b_planes, cin_word);
                let (approx_cout, exact_cout, mismatch) =
                    (diff.approx_cout, diff.exact_cout, diff.mismatch);
                let stats = error_stats(&approx_sum, approx_cout, &exact_sum, exact_cout, mismatch);
                let mut sum_ed = 0.0;
                let mut sum_abs_ed = 0.0;
                let mut max_abs_ed = 0u64;
                for lane in 0..64 {
                    if (mismatch >> lane) & 1 == 1 {
                        let approx = lane_value(&approx_sum, approx_cout, lane) as i64;
                        let exact = lane_value(&exact_sum, exact_cout, lane) as i64;
                        let ed = approx - exact;
                        sum_ed += ed as f64;
                        sum_abs_ed += ed.unsigned_abs() as f64;
                        max_abs_ed = max_abs_ed.max(ed.unsigned_abs());
                    }
                }
                assert_eq!(stats.sum_ed, sum_ed, "{cell} w{width}");
                assert_eq!(stats.sum_abs_ed, sum_abs_ed, "{cell} w{width}");
                assert_eq!(stats.max_abs_ed, max_abs_ed, "{cell} w{width}");
            }
        }
        // An all-correct batch contributes nothing.
        assert_eq!(
            error_stats::<u64>(&[0], 0, &[0], 0, 0),
            ErrorStats64::default()
        );
    }

    #[test]
    fn error_magnitudes_match_per_lane_extraction() {
        let mut rng = TestRng(0x516E);
        for cell in [StandardCell::Lpaa2, StandardCell::Lpaa6] {
            for width in [1usize, 9, 33] {
                let mask = (1u64 << width) - 1;
                let chain = AdderChain::uniform(cell.cell(), width);
                let kernel = CompiledChain::compile(&chain).kernel::<u64>();
                let a_vals: Vec<u64> = (0..64).map(|_| rng.next() & mask).collect();
                let b_vals: Vec<u64> = (0..64).map(|_| rng.next() & mask).collect();
                let (approx, exact, diff) = eval_batch(
                    &kernel,
                    &pack(&a_vals, width),
                    &pack(&b_vals, width),
                    rng.next(),
                );
                // Half the lanes masked off: they must come out zero.
                let mismatch = diff.mismatch & rng.next();
                let mut mag = vec![u64::MAX; width + 1];
                let signs = error_magnitudes(
                    &approx,
                    diff.approx_cout,
                    &exact,
                    diff.exact_cout,
                    mismatch,
                    &mut mag,
                );
                let mut max_abs_ed = 0;
                for lane in 0..64 {
                    let ed = lane_value(&approx, diff.approx_cout, lane) as i64
                        - lane_value(&exact, diff.exact_cout, lane) as i64;
                    let active = (mismatch >> lane) & 1 == 1;
                    let want = if active { ed.unsigned_abs() } else { 0 };
                    let got = lane_value(&mag[..width], mag[width], lane);
                    assert_eq!(got, want, "{cell} w{width} lane {lane}");
                    assert_eq!((signs.positive >> lane) & 1 == 1, active && ed > 0);
                    assert_eq!((signs.negative >> lane) & 1 == 1, active && ed < 0);
                    max_abs_ed = max_abs_ed.max(want);
                }
                assert_eq!(signs.max_abs_ed, max_abs_ed, "{cell} w{width}");
            }
        }
    }

    #[test]
    fn lane_value_includes_carry_out_bit() {
        let planes = [0u64; 3];
        assert_eq!(lane_value(&planes, 1 << 5, 5), 8);
        assert_eq!(lane_value(&planes, 1 << 5, 4), 0);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn kernel_rejects_wrong_plane_count() {
        let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), 4);
        let kernel = CompiledChain::compile(&chain).kernel::<u64>();
        let _ = kernel.eval_into(&[0; 3], &[0; 4], 0, &mut [0; 4]);
    }
}
