//! Deterministic synthetic workload generators.
//!
//! Real error-tolerant workloads feed adders strongly non-uniform operand
//! distributions; these generators reproduce four archetypes offline, seeded
//! on the in-repo xoshiro256++ PRNG so every trace is reproducible from
//! `(kind, width, seed)` alone:
//!
//! * [`SynthKind::Uniform`] — every operand bit (and the carry-in) is an
//!   independent fair coin. The per-bit independence assumption of the
//!   analytical model holds *exactly* here, which makes this the calibration
//!   workload for [`fidelity`](mod@crate::fidelity).
//! * [`SynthKind::GaussianSum`] — operands are averages of four uniform
//!   draws (central-limit bell around mid-range), concentrating values and
//!   correlating the high bits.
//! * [`SynthKind::RandomWalk`] — an "audio-like" stream: a clamped random
//!   walk where each record adds the previous sample to the next one, so the
//!   two operands are strongly correlated (the adversarial case for the
//!   independence assumption).
//! * [`SynthKind::ImageGradient`] — sparse small-magnitude values with
//!   occasional full-range "edges", mimicking image-gradient operands: low
//!   bits active, high bits rare but bursty.

use std::str::FromStr;

use sealpaa_sim::Xoshiro256pp;

use crate::format::{TraceError, TraceRecord};

/// The synthetic workload families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynthKind {
    /// Independent fair-coin bits (independence holds exactly).
    Uniform,
    /// Average of four uniform draws: bell-shaped values.
    GaussianSum,
    /// Clamped random walk; operands are consecutive samples.
    RandomWalk,
    /// Sparse gradients with occasional full-range edges.
    ImageGradient,
}

impl SynthKind {
    /// Every generator, in wire-name order.
    pub const ALL: [SynthKind; 4] = [
        SynthKind::Uniform,
        SynthKind::GaussianSum,
        SynthKind::RandomWalk,
        SynthKind::ImageGradient,
    ];

    /// The stable wire/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            SynthKind::Uniform => "uniform",
            SynthKind::GaussianSum => "gaussian-sum",
            SynthKind::RandomWalk => "random-walk",
            SynthKind::ImageGradient => "image-gradient",
        }
    }
}

impl std::fmt::Display for SynthKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error for unknown generator names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSynthKindError(String);

impl std::fmt::Display for ParseSynthKindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown generator {:?} (expected uniform, gaussian-sum, random-walk or image-gradient)",
            self.0
        )
    }
}

impl std::error::Error for ParseSynthKindError {}

impl FromStr for SynthKind {
    type Err = ParseSynthKindError;

    fn from_str(s: &str) -> Result<SynthKind, ParseSynthKindError> {
        SynthKind::ALL
            .into_iter()
            .find(|k| s.eq_ignore_ascii_case(k.name()))
            .ok_or_else(|| ParseSynthKindError(s.to_owned()))
    }
}

/// An infinite, deterministic stream of synthetic trace records.
#[derive(Debug, Clone)]
pub struct SynthTrace {
    kind: SynthKind,
    mask: u64,
    rng: Xoshiro256pp,
    /// Random-walk sample carried between records.
    walk: u64,
    /// Random-walk step amplitude.
    amplitude: u64,
    /// Image-gradient "smooth" value mask (the low quarter of the bits).
    low_mask: u64,
}

impl SynthTrace {
    /// Creates a generator. The stream is fully determined by
    /// `(kind, width, seed)`.
    ///
    /// # Errors
    ///
    /// Fails if `width` is outside `1..=64`.
    pub fn new(kind: SynthKind, width: usize, seed: u64) -> Result<SynthTrace, TraceError> {
        if width == 0 || width > 64 {
            return Err(TraceError::InvalidWidth { width });
        }
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let low_bits = (width / 4).max(1);
        Ok(SynthTrace {
            kind,
            mask,
            rng: Xoshiro256pp::seed_from_u64(seed),
            walk: mask >> 1,
            amplitude: (mask >> 4).max(1),
            low_mask: (1u64 << low_bits) - 1,
        })
    }

    /// The next record (the stream never ends).
    pub fn next_record(&mut self) -> TraceRecord {
        match self.kind {
            SynthKind::Uniform => TraceRecord {
                a: self.rng.next_u64() & self.mask,
                b: self.rng.next_u64() & self.mask,
                cin: self.rng.next_u64() & 1 == 1,
            },
            SynthKind::GaussianSum => TraceRecord {
                a: self.gaussian(),
                b: self.gaussian(),
                cin: false,
            },
            SynthKind::RandomWalk => {
                let prev = self.walk;
                let span = 2 * self.amplitude + 1;
                let delta = (self.rng.next_u64() % span) as i128 - self.amplitude as i128;
                self.walk = (prev as i128 + delta).clamp(0, self.mask as i128) as u64;
                TraceRecord {
                    a: prev,
                    b: self.walk,
                    cin: false,
                }
            }
            SynthKind::ImageGradient => TraceRecord {
                a: self.gradient(),
                b: self.gradient(),
                cin: false,
            },
        }
    }

    /// Integer average of four uniform draws (kept in `u128` so width 64
    /// cannot overflow).
    fn gaussian(&mut self) -> u64 {
        let sum: u128 = (0..4)
            .map(|_| u128::from(self.rng.next_u64() & self.mask))
            .sum();
        (sum >> 2) as u64
    }

    /// Mostly small magnitudes; a full-range "edge" once in 16 draws.
    fn gradient(&mut self) -> u64 {
        let edge = self.rng.next_u64() & 0xF == 0;
        let raw = self.rng.next_u64();
        if edge {
            raw & self.mask
        } else {
            raw & self.low_mask
        }
    }
}

impl Iterator for SynthTrace {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        Some(self.next_record())
    }
}

/// Generates `records` synthetic records in memory.
///
/// # Errors
///
/// Fails if `width` is outside `1..=64`.
pub fn generate(
    kind: SynthKind,
    width: usize,
    records: usize,
    seed: u64,
) -> Result<Vec<TraceRecord>, TraceError> {
    Ok(SynthTrace::new(kind, width, seed)?.take(records).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn names_round_trip() {
        for kind in SynthKind::ALL {
            assert_eq!(kind.name().parse::<SynthKind>().expect("known"), kind);
        }
        assert!("white-noise".parse::<SynthKind>().is_err());
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        for kind in SynthKind::ALL {
            let x = generate(kind, 12, 256, 42).expect("valid");
            let y = generate(kind, 12, 256, 42).expect("valid");
            let z = generate(kind, 12, 256, 43).expect("valid");
            assert_eq!(x, y, "{kind}");
            assert_ne!(x, z, "{kind}: different seeds must differ");
        }
    }

    #[test]
    fn operands_respect_the_width() {
        for kind in SynthKind::ALL {
            for width in [1usize, 7, 33, 64] {
                let mask = if width == 64 {
                    u64::MAX
                } else {
                    (1u64 << width) - 1
                };
                for r in generate(kind, width, 128, 7).expect("valid") {
                    assert_eq!(r.a & !mask, 0, "{kind} w{width}");
                    assert_eq!(r.b & !mask, 0, "{kind} w{width}");
                }
            }
        }
    }

    #[test]
    fn uniform_is_nearly_independent_and_balanced() {
        let records = generate(SynthKind::Uniform, 8, 1 << 14, 1).expect("valid");
        let stats = TraceStats::from_records(8, &records).expect("valid");
        for i in 0..8 {
            assert!((stats.p(crate::VarId::A(i)) - 0.5).abs() < 0.02, "a[{i}]");
        }
        // Pure sampling noise: ~1/√n.
        assert!(stats.independence_violation() < 0.02);
    }

    #[test]
    fn random_walk_correlates_the_operands() {
        let records = generate(SynthKind::RandomWalk, 8, 1 << 14, 1).expect("valid");
        let stats = TraceStats::from_records(8, &records).expect("valid");
        // Consecutive samples share their high bits almost always.
        assert!(stats.independence_violation() > 0.1);
    }

    #[test]
    fn image_gradient_is_sparse_in_the_high_bits() {
        let records = generate(SynthKind::ImageGradient, 8, 1 << 14, 1).expect("valid");
        let stats = TraceStats::from_records(8, &records).expect("valid");
        // MSB only set on edge draws (1/16 of them, half of those set it).
        assert!(stats.p(crate::VarId::A(7)) < 0.1);
        assert!(stats.p(crate::VarId::A(0)) > 0.3);
    }

    #[test]
    fn invalid_widths_rejected() {
        assert!(SynthTrace::new(SynthKind::Uniform, 0, 1).is_err());
        assert!(SynthTrace::new(SynthKind::Uniform, 65, 1).is_err());
    }
}
