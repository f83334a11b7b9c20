//! SEALPAA analysis-as-a-service: a std-only daemon serving the paper's
//! error analyses over a newline-delimited JSON protocol.
//!
//! The DAC'17 method's selling point is that error analysis is `O(N)` —
//! cheap enough to sit inside design-space-exploration loops that evaluate
//! thousands of candidate adders. This crate turns the batch engines into a
//! long-running service:
//!
//! * [`json`] — the JSON value model shared with the CLI (writer + parser),
//! * [`protocol`] — typed request/response model for the wire format,
//! * [`canonical`] — canonicalization of adder configurations so equivalent
//!   requests share one cache entry,
//! * [`cache`] — a sharded LRU result cache,
//! * [`pool`] — a fixed-size worker pool over a bounded job queue with
//!   backpressure,
//! * [`metrics`] — request counters and a fixed-bucket latency histogram,
//! * [`server`] — the TCP daemon and the `--stdio` pipeline mode,
//! * [`snapshot`] — the durable cache-snapshot format behind
//!   `--cache-snapshot` (magic/version framing, bounded reader, atomic
//!   write-then-rename) so a restarted daemon warms instantly,
//! * `sys` (Linux) — a thin in-repo `epoll`/`pipe` syscall wrapper,
//! * `conn` — the one connection core: the bounded line framer every
//!   serving loop reads through, and (Linux) the nonblocking line connection
//!   plus accept/refuse and deadline steps both epoll loops drive,
//! * `event` (Linux) — the daemon's readiness-driven loop: one poll thread
//!   multiplexing every socket, and pipelined out-of-order responses tagged
//!   by request id,
//! * [`route`] (Linux) — the `sealpaa route` gateway: consistent-hashes
//!   canonical cache keys across backend daemons and multiplexes clients
//!   onto per-backend pipelined links,
//! * `fnv` — FNV-1a 64, the stable hash behind snapshot checksums and
//!   router placement.
//!
//! The daemon serves TCP under one of two I/O models
//! ([`server::IoModel`]): the default event loop (`--io-model event`,
//! Linux), where ten thousand idle connections cost a registry entry each,
//! or the legacy thread-per-connection path (`--io-model threads`), kept
//! for comparison and for platforms without `epoll`.
//!
//! # Quickstart
//!
//! ```no_run
//! use sealpaa_server::server::{Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig::default()).expect("bind");
//! println!("listening on {}", server.local_addr());
//! server.run().expect("serve");
//! ```

// `deny` rather than `forbid`: the `sys` module opts back in for its four
// syscall wrappers (the crate's only unsafe), which `forbid` would not allow.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod canonical;
mod conn;
#[cfg(target_os = "linux")]
mod event;
mod fnv;
pub mod json;
pub mod metrics;
pub mod pool;
pub mod protocol;
#[cfg(target_os = "linux")]
pub mod route;
pub mod server;
pub mod snapshot;
#[cfg(target_os = "linux")]
mod sys;
