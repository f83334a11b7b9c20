//! Workload traces for approximate-adder analysis: ingestion, streaming
//! bit-statistics profiling, synthetic generators, and replay validation.
//!
//! The paper's analytical engine is exact *given* per-bit input
//! probabilities — but real error-tolerant workloads (audio streams, image
//! gradients) have strongly non-uniform, correlated operand distributions
//! that nobody wants to type in by hand. This crate closes the loop between
//! an application's actual additions and the analysis:
//!
//! 1. **Trace formats** ([`format`](mod@format)) — a versioned NDJSON record stream
//!    (`{"a":13,"b":77,"cin":1}` under a `{"sealpaa_trace":1,"width":N}`
//!    header) plus a compact binary framing, both with bounded streaming
//!    readers.
//! 2. **Streaming statistics** ([`stats`]) — one pass over the trace counts
//!    per-bit ones and pairwise co-occurrences, yielding an empirical
//!    [`InputProfile`] (exact `Rational` from integer counts, or `f64`) and
//!    an independence-violation score that measures how far the workload is
//!    from the model's independent-bits assumption.
//! 3. **Synthetic workloads** ([`synth`]) — deterministic uniform,
//!    Gaussian-sum, random-walk ("audio-like") and sparse image-gradient
//!    generators seeded on the in-repo xoshiro256++ PRNG.
//! 4. **Replay** ([`replay`](mod@replay)) — ground-truth error rate, MED and
//!    MSE of a trace through an [`AdderChain`], 64 records per pass via the
//!    bitsliced kernels, bit-for-bit identical to the scalar oracle for
//!    every thread count.
//! 5. **Fidelity** ([`fidelity`](mod@fidelity)) — the analytical estimates
//!    under the estimated profile side by side with replay ground truth,
//!    quantifying the independence-assumption gap per workload.
//!
//! # Examples
//!
//! ```
//! use sealpaa_cells::{AdderChain, StandardCell};
//! use sealpaa_trace::{fidelity, generate, SynthKind};
//!
//! // An "audio-like" workload through an 8-bit LPAA 2 adder.
//! let records = generate(SynthKind::RandomWalk, 8, 4096, 7)?;
//! let chain = AdderChain::uniform(StandardCell::Lpaa2.cell(), 8);
//! let report = fidelity(&chain, &records, 1)?;
//! // Consecutive audio samples are correlated, which the analytical model
//! // cannot see — the trace reports a clear independence violation.
//! assert!(report.independence_violation > 0.05);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`InputProfile`]: sealpaa_cells::InputProfile
//! [`AdderChain`]: sealpaa_cells::AdderChain

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fidelity;
pub mod format;
pub mod replay;
pub mod stats;
pub mod synth;

pub use fidelity::{fidelity, FidelityError, FidelityReport};
pub use format::{
    read_binary, read_ndjson, write_binary, write_ndjson, BinaryReader, NdjsonReader, TraceError,
    TraceLimits, TraceRecord, BINARY_MAGIC, BINARY_VERSION, TRACE_VERSION,
};
pub use replay::{
    replay, replay_scalar, replay_with_backend, ReplayError, ReplayReport, MAX_REPLAY_WIDTH,
};
pub use stats::{TraceStats, VarId};
pub use synth::{generate, ParseSynthKindError, SynthKind, SynthTrace};
