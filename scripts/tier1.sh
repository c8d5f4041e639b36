#!/usr/bin/env bash
# Tier-1 gate: everything must pass before a change lands.
#   ./scripts/tier1.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Each step prints its wall time (bash SECONDS, whole seconds) when the
# next one starts; the total prints at the end.
SECONDS=0
step_name=""
step_started=0
step() {
    if [ -n "$step_name" ]; then
        echo "    [$step_name: $((SECONDS - step_started)) s]"
    fi
    step_name=$1
    step_started=$SECONDS
    [ -z "$1" ] || echo "==> $1"
}

step "cargo fmt --check"
cargo fmt --check

step "cargo build --release"
cargo build --release

step "cargo build --workspace --examples"
cargo build --workspace --examples

step "cargo test -q --workspace"
cargo test -q --workspace

# Benchmark gate: the e2ebench package (its own workspace) must still
# build against the public API and pass its tests, and a zero-second
# fleet_reactive run exits non-zero unless its checksum matches the
# committed reference. Built into the workspace target/ so the
# dependencies compiled above are reused.
step "e2ebench tests + fleet_reactive reference checksum"
CARGO_TARGET_DIR=target cargo test -q --offline --manifest-path e2ebench/Cargo.toml
CARGO_TARGET_DIR=target cargo run -q --release --offline --manifest-path e2ebench/Cargo.toml -- \
    --workload fleet_reactive --seed 1 --seconds 0 --trace 0 >/dev/null

# Flake gate: a scheduling-dependent assertion must fail tier-1, not
# pass most runs. The fleet and telemetry lib test binaries run 20 times
# with default threads and 20 times with --test-threads=1.
step "flake gate: otem-fleet + otem-telemetry lib tests x20 (default threads, --test-threads=1)"
for pkg in otem-fleet otem-telemetry; do
    bin=$(cargo test -p "$pkg" --lib --no-run 2>&1 |
        sed -n 's/.*Executable unittests src\/lib.rs (\(.*\))$/\1/p')
    if [ -z "$bin" ]; then
        echo "flake gate: no lib test binary found for $pkg"
        exit 1
    fi
    for threads in "" "--test-threads=1"; do
        for run in $(seq 1 20); do
            # shellcheck disable=SC2086 # empty $threads must vanish
            if ! out=$("$bin" -q $threads 2>&1); then
                echo "$out"
                echo "flake gate: $pkg failed on run $run ${threads:-(default threads)}"
                exit 1
            fi
        done
    done
done

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Doc gate: rustdoc warnings (a dangling intra-doc link to a deleted
# item, a broken code block) fail tier-1.
step "cargo doc --workspace --no-deps (rustdoc -D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Span-accounting gate: a short traced run must produce a balanced,
# properly nested span stream (trace_report exits 1 otherwise).
step "trace_report --steps 20 (span accounting)"
cargo run -q --release -p otem-bench --bin trace_report -- --steps 20

# Adjoint-gradient gates: FD-vs-adjoint parity on the rollout objective
# (proptest, ≤1e-6 relative error), then a release smoke asserting the
# tape gradient's rollouts/solve stays horizon-independent.
step "gradient parity (FD vs adjoint)"
cargo test -q --test gradient_parity

step "perf_report --gradient adjoint (rollout-count smoke)"
cargo run -q --release -p otem-bench --bin perf_report -- --gradient adjoint

# Fleet gates: (1) a 64-vehicle campaign must be bit-identical across
# serial/static/work-stealing schedules and shard counts, (2) the
# JSONL-over-TCP serving layer must round-trip a simulate request on
# loopback and shut down cleanly, and (3) a deadline-constrained OTEM
# campaign on a virtual clock must reproduce bit-for-bit across
# schedules while exercising the anytime path (fleet_bench --smoke does
# all three and exits non-zero otherwise).
step "fleet_bench --vehicles 64 --smoke (determinism + server round trip + virtual-clock deadline)"
cargo run -q --release -p otem-bench --bin fleet_bench -- --vehicles 64 --smoke

# Serving-layer robustness gate: a seeded abuse schedule (malformed /
# truncated / oversized requests, a stalled client, a poisoned vehicle,
# queue-overflow shedding with a retrying client, graceful drain under
# load) against a live server — /healthz must answer correctly after
# every phase.
step "fleet_bench --chaos-smoke (serving-layer robustness)"
cargo run -q --release -p otem-bench --bin fleet_bench -- --chaos-smoke

# Observability gate: boot a live server, scrape /metrics and validate
# the Prometheus exposition with the test-suite parser, check
# /debug/trace span sampling, then inject a poisoned vehicle and assert
# the flight recorder freezes a dump attributed to the originating
# request id.
step "fleet_bench --obs-smoke (metrics exposition + flight recorder)"
cargo run -q --release -p otem-bench --bin fleet_bench -- --obs-smoke

step "" # closes the last step's timer
echo "tier-1: all green in ${SECONDS} s"
