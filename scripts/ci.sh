#!/usr/bin/env bash
# Full local CI gate for the PEERT workspace: release build, tests,
# clippy (warnings are errors), and a compile check of every benchmark.
# Usage: scripts/ci.sh
#
# The workspace depends on nothing outside the repository, so every
# step runs --offline.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

# hermetic gate: no manifest may name a non-path dependency (cargo
# metadata reports a non-null "source" for any other kind), and tier-1
# must build and pass with an empty CARGO_HOME — no registry, no cache,
# no patch file
for manifest in $(git ls-files 'Cargo.toml' '*/Cargo.toml'); do
    metadata="$(cargo metadata --offline --no-deps --format-version 1 --manifest-path "$manifest")"
    if grep -q '"source":"' <<<"$metadata"; then
        echo "==> ci.sh: $manifest names a non-path dependency" >&2
        exit 1
    fi
done
HERMETIC_HOME="$(mktemp -d)"
trap 'rm -rf "$HERMETIC_HOME"' EXIT
run env CARGO_HOME="$HERMETIC_HOME" cargo build --release --offline
run env CARGO_HOME="$HERMETIC_HOME" cargo test -q --offline

run cargo build --workspace --release --offline
run cargo test -q --workspace --offline
run cargo clippy --workspace --all-targets --offline -- -D warnings
run cargo bench --no-run --workspace --offline
# the trace-overhead bench must always stay compilable (acceptance gate on
# the disabled-tracer cost of the tape's step loop), including under the
# peert-trace `off` feature
run cargo bench --no-run --bench trace_overhead -p peert-bench --offline
# same for the one-lane-vs-8-lane Engine bench (acceptance gate on the
# per-lane cost of the kernel tape, recorded in BENCH_kernel.json)
run cargo bench --no-run --bench kernel_batch_vs_solo -p peert-bench --offline
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

# cheap perf smoke: over 2k steps of the 400-block chain one lane of a
# multi-lane Engine must not be slower than a one-lane Engine (the full
# numbers are E16)
run env KERNEL_SMOKE=1 cargo test --release -q -p peert-bench --test kernel_smoke --offline

# asserted integration runs: the paper's example walkthroughs carry
# their own assertions (deadline feasibility, MIL/PIL divergence bounds,
# ARQ bit-exact recovery and graceful degradation) and exit non-zero on
# any regression
run cargo run --release -q --example development_cycle --offline
run cargo run --release -q --example pil_simulation --offline
run cargo run --release -q --example wire_service --offline
run cargo run --release -q --example distributed_pil --offline

# zero-noise semantic gate: the repository benchmark's seed-determined
# simulated counts (PIL cycles per step, ARQ retries and timeouts, CAN
# frames, arbitration losses, hop retries, worst delivery) at seeds 7
# and 11 must equal scripts/sim_counts.json exactly
run python3 scripts/check_sim_counts.py

# long ARQ soak (10^5 faulted steps, exact counter accounting, bit-exact
# trajectory): under a second in release now that the board's idle
# time is event-driven, so every run takes it
run env PIL_SOAK=1 cargo test --release --test pil_soak --offline -- --nocapture

# serving-layer gate: the in-crate tests (bit-exact gangs, refused
# per-lane overrides ending their session while the shard keeps
# serving, one-lane gangs for diagrams with trampoline entries, in-place
# compaction), the scheduler/admission property tests, plus the
# coalesced-vs-solo throughput bench staying compilable (the recorded
# numbers are BENCH_serve.json / E17)
run cargo test --release -q -p peert-serve --lib --offline
run cargo test --release -q -p peert-serve --test serve_props --offline
run cargo bench --no-run --bench serve_throughput -p peert-bench --offline

# deterministic service soak (10^3 sessions, 8 tenants, quota exhaustion,
# cancellations, queue-overflow flood; final counters must equal the
# schedule-derived expectation exactly): opt-in
if [[ "${SERVE_SOAK:-0}" == "1" ]]; then
        run env SERVE_SOAK=1 cargo test --release -p peert-serve --test serve_soak --offline -- --nocapture
fi

# wire-protocol gate: the frame layer's own tests (slicing-by-8 CRC16
# against the bitwise definition, in-place frame encoding), the
# frame-codec fuzz battery (round-trips, re-slicing, bit flips,
# truncation, garbage — corrupted frames dropped with resync, never a
# panic or a wedge; bulk push_slice equal to byte-at-a-time push), the
# server regression tests (TCP_NODELAY on both ends, closed connections
# release their streams, oversized chunks split at step boundaries) and
# the golden-bytes layout pin (any layout drift must come with a
# deliberate PROTOCOL_VERSION bump)
run cargo test --release -q -p peert-frame --offline
run cargo test --release -q -p peert-wire --lib --offline
run cargo test --release -q -p peert-wire --test wire_props --offline
run cargo test --release -q -p peert-wire --test wire_golden --offline

# deterministic wire soak (multi-client loopback waves, quota exhaustion
# over the wire, deadline rejections, cancel flood, mid-stream
# disconnects; final counters must equal the schedule-derived
# expectation exactly): opt-in, mirrors SERVE_SOAK
if [[ "${WIRE_SOAK:-0}" == "1" ]]; then
        run env WIRE_SOAK=1 cargo test --release -p peert-wire --test wire_soak --offline -- --nocapture
fi

# simulated-CAN-bus gate: arbitration/fault property battery (priority
# respected under arbitrary interleavings, no schedule wedges the bus,
# corrupt frames CRC-rejected with resync, drop schedules never perturb
# surviving payloads)
run cargo test --release -q -p peert-bus --test bus_props --offline

# distributed-PIL bus soak (10^5 multi-node steps, one partition window,
# every counter equal to its schedule-derived expectation, post-recovery
# trajectory bit-identical to the clean run): opt-in
if [[ "${BUS_SOAK:-0}" == "1" ]]; then
        run env BUS_SOAK=1 cargo test --release --test bus_soak --offline -- --nocapture
fi

# static-analysis gate: the built-in demo model must lint deny-clean,
# and the machine-readable output must be byte-reproducible (two runs
# compared verbatim) so downstream tooling can diff it
run cargo run --release -q -p peert-lint --offline
cargo run --release -q -p peert-lint --offline -- --format json > /tmp/peert-lint-1.json
cargo run --release -q -p peert-lint --offline -- --format json > /tmp/peert-lint-2.json
run cmp /tmp/peert-lint-1.json /tmp/peert-lint-2.json
rm -f /tmp/peert-lint-1.json /tmp/peert-lint-2.json

# rule-ID stability: the catalog is a published contract (configs and
# CI greps reference IDs verbatim), so any rename/removal must show up
# as a deliberate edit both here and in the golden test
cargo run --release -q -p peert-lint --offline -- --explain list | sort > /tmp/peert-lint-rules.txt
sort > /tmp/peert-lint-rules-pinned.txt <<'RULES'
num.overflow
num.saturation
num.div-zero
num.nan
num.q15-error
num.coeff-quantization
num.error-growth
graph.unconnected
graph.dead
graph.const-fold
rate.quantized
rate.transition
sched.util
sched.overrun
sched.bus-delay
cfg.bean
cfg.bean-missing
cfg.adc-width
cfg.timer-period
cfg.pwm-carrier
cfg.event-unwired
RULES
run cmp /tmp/peert-lint-rules.txt /tmp/peert-lint-rules-pinned.txt
rm -f /tmp/peert-lint-rules.txt /tmp/peert-lint-rules-pinned.txt

# differential verification suite: kernel tape ≡ reference interpreter
# (bit-exact), kernel tape ≡ interpreter ≡ every lane of a multi-lane
# Engine (bit-exact),
# PIL within the *certified* quantization tolerance (the lint's
# ErrorCertificate, not a hand-derived bound), fault counters equal to
# the schedule, ARQ recovery proofs under seeded fault schedules,
# multi-tenant serve schedules bit-exact with solo engine runs, wire
# schedules over loopback TCP indistinguishable from in-process,
# multi-node schedules over the simulated CAN bus bit-exact vs the MIL
# replica with exact counters, and the "numeric" phase holding every
# quantization ErrorCertificate against a bit-level exact-vs-Q15 oracle
# at every port of every step (E20).
# VERIFY_SEED/VERIFY_CASES override the defaults; the failing seed and
# case are printed by the tool itself for offline reproduction.
VERIFY_SEED="${VERIFY_SEED:-0xC0FFEE}"
VERIFY_CASES="${VERIFY_CASES:-64}"
if ! run cargo run --release -q -p peert-verify --bin verify --offline -- \
        --seed "$VERIFY_SEED" --cases "$VERIFY_CASES"; then
    echo "==> ci.sh: verify FAILED — reproduce with:" >&2
    echo "    cargo run --release -p peert-verify --bin verify -- --seed $VERIFY_SEED --cases $VERIFY_CASES" >&2
    exit 1
fi

echo "==> ci.sh: all gates passed"
