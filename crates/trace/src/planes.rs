//! The one records-to-planes transpose behind [`TraceStats`] and replay.
//!
//! Both engines work in plane space: bit `l` of plane `i` is bit `i` of the
//! `l`-th record's operand. [`RecordPlanes::load`] gets there from up to
//! `W::LANES` records with one block-swap [`transpose_lanes`] per operand
//! word. Up to 32 bits, both operands share a word — `a` in the low half,
//! `b` in the high half — so a single transpose yields both operands'
//! planes; wider operands take one transpose each.
//!
//! [`TraceStats`]: crate::TraceStats

use sealpaa_cells::{transpose_lanes, SimdWord};

use crate::format::TraceRecord;

/// Reusable scratch for transposing record batches, and the planes of the
/// last batch loaded.
#[derive(Debug)]
pub(crate) struct RecordPlanes<W> {
    width: usize,
    mask: u64,
    /// Lane-major staging: entry `l * W::WORDS + s` holds lane `64·s + l`.
    /// One operand word per lane up to 32 bits (`a | b << 32`); above, the
    /// `a` words and then the `b` words.
    flat: Vec<u64>,
    /// The 64-row matrix one transpose works on.
    rows: Box<[W; 64]>,
    /// `a` planes, then `b` planes, then the carry-in word: the variable
    /// order of [`TraceStats`](crate::TraceStats).
    planes: Vec<W>,
}

impl<W: SimdWord> RecordPlanes<W> {
    /// Scratch for `width`-bit operands (`1..=64`).
    pub(crate) fn new(width: usize) -> RecordPlanes<W> {
        debug_assert!((1..=64).contains(&width));
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let words = if width <= 32 { 1 } else { 2 };
        RecordPlanes {
            width,
            mask,
            flat: vec![0; words * W::LANES],
            rows: Box::new([W::zero(); 64]),
            planes: vec![W::zero(); 2 * width + 1],
        }
    }

    /// Transposes up to `W::LANES` records into bit-planes. Operand bits
    /// above the width are dropped, and lanes past the last record read as
    /// zero. Inlined, so a dispatched caller compiles it for its backend.
    #[inline(always)]
    pub(crate) fn load(&mut self, records: &[TraceRecord]) {
        assert!(records.len() <= W::LANES, "a batch holds at most W::LANES");
        let (width, mask) = (self.width, self.mask);
        let mut cin = [0u64; 8];
        debug_assert!(W::WORDS <= cin.len());
        // Record `64·s + l` goes to slot `l * W::WORDS + s`; a subgroup's
        // carry-ins gather in a register.
        let (a_flat, b_flat) = self.flat.split_at_mut(W::LANES);
        for (s, group) in records.chunks(64).enumerate() {
            let mut word = 0u64;
            if width <= 32 {
                for (l, r) in group.iter().enumerate() {
                    a_flat[l * W::WORDS + s] = (r.a & mask) | (r.b & mask) << 32;
                    word |= u64::from(r.cin) << l;
                }
            } else {
                for (l, r) in group.iter().enumerate() {
                    a_flat[l * W::WORDS + s] = r.a & mask;
                    b_flat[l * W::WORDS + s] = r.b & mask;
                    word |= u64::from(r.cin) << l;
                }
            }
            cin[s] = word;
        }
        for k in records.len()..W::LANES {
            let slot = (k % 64) * W::WORDS + k / 64;
            a_flat[slot] = 0;
            if width > 32 {
                b_flat[slot] = 0;
            }
        }
        // One transpose per staged operand word, at one call site: the
        // transpose is unrolled, and each site is a copy of it.
        for (operand, staged) in self.flat.chunks_exact(W::LANES).enumerate() {
            for (row, words) in self.rows.iter_mut().zip(staged.chunks_exact(W::WORDS)) {
                *row = W::from_fn(|s| words[s]);
            }
            transpose_lanes(&mut self.rows);
            if width <= 32 {
                self.planes[..width].copy_from_slice(&self.rows[..width]);
                self.planes[width..2 * width].copy_from_slice(&self.rows[32..32 + width]);
            } else {
                let planes = operand * width..(operand + 1) * width;
                self.planes[planes].copy_from_slice(&self.rows[..width]);
            }
        }
        self.planes[2 * width] = W::from_fn(|s| cin[s]);
    }

    /// Every variable's plane: `a[0..width]`, `b[0..width]`, then `cin`.
    #[inline(always)]
    pub(crate) fn planes(&self) -> &[W] {
        &self.planes
    }

    /// The `a` operand's bit-planes.
    #[inline(always)]
    pub(crate) fn a(&self) -> &[W] {
        &self.planes[..self.width]
    }

    /// The `b` operand's bit-planes.
    #[inline(always)]
    pub(crate) fn b(&self) -> &[W] {
        &self.planes[self.width..2 * self.width]
    }

    /// The carry-in word.
    #[inline(always)]
    pub(crate) fn cin(&self) -> W {
        self.planes[2 * self.width]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sealpaa_cells::simd::{W128, W256, W512};
    use sealpaa_sim::Xoshiro256pp;

    /// Every plane bit against the record it came from, one bit at a time.
    fn check<W: SimdWord>(rng: &mut Xoshiro256pp) {
        for width in [1usize, 8, 31, 32, 33, 47, 64] {
            let mut planes = RecordPlanes::<W>::new(width);
            for len in [W::LANES, 0, 1, 63, 64, 65, W::LANES - 1] {
                let len = len.min(W::LANES);
                // Operand bits above the width must be dropped.
                let records: Vec<TraceRecord> = (0..len)
                    .map(|_| {
                        TraceRecord::new(rng.next_u64(), rng.next_u64(), rng.next_u64() & 1 == 1)
                    })
                    .collect();
                planes.load(&records);
                let bit = |w: W, k: usize| (w.word(k / 64) >> (k % 64)) & 1 == 1;
                for k in 0..W::LANES {
                    let r = records.get(k).copied().unwrap_or_default();
                    for i in 0..width {
                        assert_eq!(
                            bit(planes.a()[i], k),
                            (r.a >> i) & 1 == 1,
                            "w{width} a{i} k{k}"
                        );
                        assert_eq!(
                            bit(planes.b()[i], k),
                            (r.b >> i) & 1 == 1,
                            "w{width} b{i} k{k}"
                        );
                    }
                    assert_eq!(bit(planes.cin(), k), r.cin, "w{width} cin k{k}");
                }
                assert_eq!(planes.planes().len(), 2 * width + 1);
            }
        }
    }

    #[test]
    fn planes_hold_every_record_bit_on_every_word() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x91A4E5);
        check::<u64>(&mut rng);
        check::<W128>(&mut rng);
        check::<W256>(&mut rng);
        check::<W512>(&mut rng);
    }
}
