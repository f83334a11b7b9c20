#!/usr/bin/env bash
# The local CI gate: everything a change must pass before it lands.
#
#   scripts/ci.sh            # full gate
#   scripts/ci.sh --quick    # skip the release build (iterating on tests)
#
# Runs entirely offline — the workspace has no third-party dependencies.

set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

run() {
    echo
    echo "==> $*"
    "$@"
}

if [[ $quick -eq 0 ]]; then
    run cargo build --release
    # Examples are documentation that compiles: build them all in the same
    # profile so a drifting API surfaces here, not on a reader's machine.
    run cargo build --examples --release
fi

# The tier-1 gate: the root package's cross-crate integration + property
# tests, exactly as the roadmap specifies them.
run cargo test -q

# The rest of the workspace (every crate's unit, integration and doc tests).
run cargo test --workspace -q

# The benchmark crate is its own workspace but compiles against the server
# crate's public modules, so an API change that breaks it must fail here.
run cargo test --offline --manifest-path perfbench/Cargo.toml -q

# The offline solves end to end in a release build: the trace read back by
# read_binary must replay as replay_scalar does, and alike on every pass;
# each DSE must find its pinned winner; Monte-Carlo must land within six
# standard errors of the analysis. Then every engine kind (blocks, simulate,
# gear and the rest) through `sealpaa route` to a daemon fleet, one distinct
# key per line, each answer checked. Each run's last line says whether every
# answer held. perfbench refuses hosts with fewer than 2 CPUs.
if [[ $(nproc) -ge 2 ]]; then
    echo
    echo "==> bash perfbench/run.sh --workload offline_solve --seed 1 --seconds 2 --trace 0"
    result=$(bash perfbench/run.sh --workload offline_solve --seed 1 --seconds 2 --trace 0 | tail -n 1)
    echo "$result"
    if [[ $result != *'"correct":true'* ]]; then
        echo "ci: the offline_solve smoke got a wrong answer" >&2
        exit 1
    fi
    echo
    echo "==> bash perfbench/run.sh --workload cold_route --seed 1 --seconds 2 --trace 0"
    result=$(bash perfbench/run.sh --workload cold_route --seed 1 --seconds 2 --trace 0 | tail -n 1)
    echo "$result"
    if [[ $result != *'"correct":true'* || $result != *'"failed":0'* ]]; then
        echo "ci: the cold_route smoke got a wrong answer or a failed request" >&2
        exit 1
    fi
else
    echo
    echo "==> skipping the perfbench smokes: perfbench needs 2 CPUs, this host has $(nproc)"
fi

# The differential suite: bitsliced engines vs the scalar reference oracle
# (exact equality for Rational sweeps, tolerance-checked f64, determinism
# across thread counts).
run cargo test -p sealpaa-sim --test differential -q

# The same suite once per SIMD backend the host supports, forced through
# SEALPAA_SIMD — pins that every lane width (u64 / u64x2 / avx2 / avx512)
# reproduces the scalar oracle byte-identically, not just the widest one
# runtime detection happens to pick. `sealpaa simd` lists what the host
# has; forcing an unavailable backend is a hard error, so the loop asks
# the binary itself which names to run.
for backend in $(cargo run -q -p sealpaa-cli --bin sealpaa -- simd --json |
    sed -n 's/.*"available_names":\[\([^]]*\)\].*/\1/p' | tr -d '"' | tr ',' ' '); do
    run env SEALPAA_SIMD="$backend" \
        cargo test -p sealpaa-sim --test differential -q
    run env SEALPAA_SIMD="$backend" \
        cargo test -p sealpaa-trace --test differential -q
done

# The incremental-analysis differential suite: prefix stepper vs fresh
# analyses (bit-for-bit in Rational, exactly equal in f64) and thread-count
# invariance of the design-space exploration.
run cargo test -p sealpaa-core --test incremental -q

# The design-space exploration differential suite: every prefix-sharing DSE
# (hybrid, block, datapath) vs its naive reference scan at several thread
# counts, enumerations vs per-design scoring in leaf order, and exact ties
# that only each problem's leaf order decides.
run cargo test -p sealpaa-explore --test differential -q

# The trace-replay differential suite: bitsliced 64-lane replay vs the
# scalar per-record oracle (bit-for-bit, every workload family and thread
# count) plus the model-fidelity acceptance bounds.
run cargo test -p sealpaa-trace --test differential -q
run cargo test -p sealpaa-trace --test fidelity -q

# The block-adder differential suite: the analytical error-distance engine
# vs exhaustive enumeration (exactly, in Rational, for every library cell)
# and GeAr-as-blocks vs the gear crate's independent DP.
run cargo test -p sealpaa-blocks --test differential -q

# The error-propagation suites: exact-Rational vs f64 consistency of the
# datapath moment engine, then the accuracy acceptance bounds (analytical
# SNR vs Monte-Carlo / replay ground truth, per topology).
run cargo test -p sealpaa-propagate --test consistency -q
run cargo test -p sealpaa-propagate --test acceptance -q

# The server fault-injection suite, once per connection layer: the tests
# run both models by default, but forcing each via SEALPAA_IO_MODEL pins
# that a hang in one model cannot hide behind the other passing first.
run env SEALPAA_IO_MODEL=event \
    cargo test -p sealpaa-server --test fault_injection -q
run env SEALPAA_IO_MODEL=threads \
    cargo test -p sealpaa-server --test fault_injection -q

# Warm-restart durability, once per connection layer: snapshots written by
# one daemon life (periodically and on drain) must reload in the next, and
# damaged snapshot files must be ignored, not half-loaded.
run env SEALPAA_IO_MODEL=event \
    cargo test -p sealpaa-server --test snapshot_persistence -q
run env SEALPAA_IO_MODEL=threads \
    cargo test -p sealpaa-server --test snapshot_persistence -q

# The consistent-hash gateway end-to-end: key placement shared across
# clients, batch fan-out/reassembly, and backend loss/recovery. The router
# itself is epoll-only, but each leg pins the *backends'* connection layer.
run env SEALPAA_IO_MODEL=event \
    cargo test -p sealpaa-server --test router_e2e -q
run env SEALPAA_IO_MODEL=threads \
    cargo test -p sealpaa-server --test router_e2e -q

# The gateway's fault-injection suite: a newline-free flood, connections past
# the cap, a client that stops reading, and a backend that resets halfway
# through a batch response — again once per backend connection layer.
run env SEALPAA_IO_MODEL=event \
    cargo test -p sealpaa-server --test router_faults -q
run env SEALPAA_IO_MODEL=threads \
    cargo test -p sealpaa-server --test router_faults -q

# Smoke-run the kernel benchmarks (1 sample per bench, no JSON rewrite) so
# kernel regressions that only break under the bench harness surface here
# rather than in the next full bench run.
run env MICROBENCH_QUICK=1 MICROBENCH_SAMPLE_MS=5 \
    cargo bench -p sealpaa-bench --bench simulation_kernels
run env MICROBENCH_QUICK=1 MICROBENCH_SAMPLE_MS=5 \
    cargo bench -p sealpaa-bench --bench analysis_kernels
run env MICROBENCH_QUICK=1 MICROBENCH_SAMPLE_MS=5 \
    cargo bench -p sealpaa-bench --bench trace_kernels
run env MICROBENCH_QUICK=1 MICROBENCH_SAMPLE_MS=5 \
    cargo bench -p sealpaa-bench --bench blocks_kernels
run env MICROBENCH_QUICK=1 MICROBENCH_SAMPLE_MS=5 \
    cargo bench -p sealpaa-bench --bench datapath_kernels
run env MICROBENCH_QUICK=1 MICROBENCH_SAMPLE_MS=5 \
    cargo bench -p sealpaa-bench --bench extensions
# The daemon throughput bench doubles as an end-to-end smoke of the event
# loop: it boots an in-process server and drives serialized, pipelined and
# batch traffic over real sockets (quick mode never rewrites BENCH JSON).
run env MICROBENCH_QUICK=1 MICROBENCH_SAMPLE_MS=5 \
    cargo bench -p sealpaa-bench --bench server_throughput

# Lints are load-bearing: the gate fails on any clippy warning anywhere in
# the workspace, including tests and benches.
run cargo clippy --workspace --all-targets -- -D warnings

# Docs are load-bearing too: a broken intra-doc link fails the gate. `--lib`
# skips the `sealpaa` binary, whose doc output would collide with the
# umbrella library's.
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib

run cargo fmt --all --check

echo
echo "ci: all green"
