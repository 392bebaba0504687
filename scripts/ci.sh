#!/usr/bin/env bash
# Tier-1 verification for the Erebor reproduction — fully offline.
#
#   scripts/ci.sh          build + workspace clippy + warning-free
#                          rustdoc + every workspace crate's tests +
#                          the source lint + the privilege-separation
#                          auditor (the tier-1 gate)
#   scripts/ci.sh --smoke  additionally run the benchmark package's own
#                          tests (it is a separate workspace that reads
#                          Snapshot and the counter structs, so nothing
#                          else builds it), then the paper bins and the
#                          crypto and paging benches in smoke mode
#                          (EREBOR_BENCH_SMOKE=1, reduced iteration
#                          counts).
#   scripts/ci.sh --chaos  additionally run the deterministic chaos
#                          campaign (fixed seed, release mode), with the
#                          state auditor run after every step. Any
#                          audit finding or driver-check violation
#                          fails the stage and the test output prints
#                          the replay line
#                          (EREBOR_CHAOS_SEED=<case_seed> ops=[...])
#                          plus the shrunk event trace and the machine's
#                          last cycle-stamped trace records.
#   scripts/ci.sh --trace  additionally run the trace exporter twice and
#                          require byte-identical JSON (its schema and
#                          attribution sums are asserted by
#                          tests/determinism.rs in the default gate).
#   scripts/ci.sh --analyze  additionally run the analysis passes:
#                          the analyze bench (state auditor over the boot
#                          snapshot with zero findings and bounded
#                          work), the red-team auditor/race-detector
#                          suite, and a 100-case chaos campaign audited
#                          after every step and checked by the
#                          happens-before race detector per case.
#   scripts/ci.sh --fleet  additionally run the fleet-scale serving
#                          gate: the fleet reference-model suite
#                          (monitor lookups checked against a model
#                          sandbox table after every op), the
#                          teardown-shootdown chaos campaign, and the
#                          fleet bench in smoke shape (determinism, a
#                          measured gate-latency tail, throughput floor).
#   scripts/ci.sh --keyed  additionally run the isolation-backend gate:
#                          the keyed integration suite (PKS exhaustion
#                          boundary, 256-sandbox TME-MK confinement,
#                          the kill fence) and the keyed bench (>= 256
#                          concurrently-live keyed domains; TME-MK gate
#                          cost within 1.10x the PKS gate cost at the
#                          same shape).
#   scripts/ci.sh --migrate  additionally run the live-migration gate:
#                          the migration equivalence suite (same-seed
#                          migrated vs unmigrated byte-identical, fresh
#                          non-architectural counters, domain-pool
#                          round-trip on both backends, clean fleet
#                          audit) with a >=200-case sealed-channel
#                          chaos campaign, and the migrate bench
#                          (pages/sec floor, stop-and-copy pause
#                          ceiling, byte-identical import of the timed
#                          stream).
#
# Each bench declares its floors and ceilings where it computes the
# numbers (erebor_testkit::bench::Criterion::floor / ::ceiling): a
# broken bound is named on stderr and the bench exits non-zero, so a
# bench stage passes exactly when its bench exits 0, and no stage reads
# or writes a persisted bench document.
#
# Machine-readable output convention: every JSON-emitting binary prints
# its document on a single stdout line prefixed `EREBOR_JSON:`. CI greps
# for the marker instead of assuming document position, and fails loudly
# when it is absent. JSON syntax is checked by tests/json_documents.rs.
#
# The workspace has zero external dependencies (see crates/testkit), so
# everything here must succeed with the network disabled.
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=0
CHAOS=0
TRACE=0
ANALYZE=0
FLEET=0
KEYED=0
MIGRATE=0
for arg in "$@"; do
    case "$arg" in
        --smoke) SMOKE=1 ;;
        --chaos) CHAOS=1 ;;
        --trace) TRACE=1 ;;
        --analyze) ANALYZE=1 ;;
        --fleet) FLEET=1 ;;
        --keyed) KEYED=1 ;;
        --migrate) MIGRATE=1 ;;
        *)
            echo "usage: scripts/ci.sh [--smoke] [--chaos] [--trace] [--analyze] [--fleet] [--keyed] [--migrate]" >&2
            exit 2
            ;;
    esac
done

export CARGO_NET_OFFLINE=true

echo "==> cargo build --release"
cargo build --release

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Docs build warning-free, so a deleted or renamed item cannot leave a
# dangling intra-doc link behind.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# --no-fail-fast: run every test binary and name every failing one,
# not just the first.
echo "==> cargo test -q --workspace --no-fail-fast"
cargo test -q --workspace --no-fail-fast

# The hermetic source lint is part of the default gate: panic-free
# library code, saturating counters, no relaxed atomics, EREBOR_JSON:
# markers in every JSON-emitting bin. Non-zero exit on any finding.
echo "==> lint: cargo run --release -p erebor-analyze --bin lint"
cargo run --release -q -p erebor-analyze --bin lint

# Extract the EREBOR_JSON:-marked document from a command's stdout.
# Fails the run loudly when the marker is missing — a binary that stopped
# emitting its document must break CI, not silently pass a stale check.
extract_json() {
    local out="$1" bin="$2" line
    if ! line="$(printf '%s\n' "$out" | grep -m1 '^EREBOR_JSON:')"; then
        echo "error: $bin stdout has no EREBOR_JSON: marker line" >&2
        printf '%s\n' "$out" >&2
        exit 1
    fi
    printf '%s' "${line#EREBOR_JSON:}"
}

check_json() {
    # Structural check: a JSON object document spanning exactly the
    # whole payload (full syntax is tests/json_documents.rs's job).
    local out="$1" bin="$2"
    if [[ "$out" != \{* || "$out" != *\} ]]; then
        echo "error: $bin JSON document is not a JSON object:" >&2
        echo "$out" >&2
        exit 1
    fi
}

# The privilege-separation auditor is part of the default gate too: zero
# findings against the DESIGN.md §14 manifest and zero waivers (a
# priv:allow comment that suppresses anything fails the stage), so code
# that moves across the trust boundary is checked on every run.
echo "==> privilege: cargo run --release -p erebor-analyze --bin privilege (zero findings, zero waivers)"
if ! priv_raw="$(cargo run --release -q -p erebor-analyze --bin privilege)"; then
    # Re-print the findings the capture swallowed before failing.
    printf '%s\n' "$priv_raw" >&2
    echo "error: privilege boundary violated (see findings above)" >&2
    exit 1
fi
check_json "$(extract_json "$priv_raw" "privilege")" "privilege"

if [[ "$CHAOS" == 1 ]]; then
    # Fixed-seed fault-injection campaign (see DESIGN.md §"Chaos" and
    # EXPERIMENTS.md). The budget is deliberately explicit so CI always
    # tests the same schedule; override the seed to explore, or replay a
    # failure with the EREBOR_CHAOS_SEED printed in its report.
    echo "==> chaos: cargo test --release -p erebor-chaos"
    cargo test --release -q -p erebor-chaos

    echo "==> chaos: cargo test --release --test chaos (fixed-seed campaign)"
    EREBOR_CHAOS_CASES="${EREBOR_CHAOS_CASES:-500}" \
        cargo test --release -q --test chaos
fi

if [[ "$TRACE" == 1 ]]; then
    echo "==> trace: cargo run --release -p erebor-bench --bin trace (twice)"
    trace_a="$(extract_json "$(cargo run --release -q -p erebor-bench --bin trace)" trace)"
    trace_b="$(extract_json "$(cargo run --release -q -p erebor-bench --bin trace)" trace)"
    check_json "$trace_a" "trace"
    if [[ "$trace_a" != "$trace_b" ]]; then
        echo "error: trace JSON differs between two identical runs" >&2
        exit 1
    fi
    echo "    trace: byte-identical across two runs (${#trace_a} bytes)"
fi

if [[ "$SMOKE" == 1 ]]; then
    echo "==> smoke: cargo test (benchmark package)"
    cargo test --offline -q --manifest-path crates/bench/src/bin/benchmark/Cargo.toml

    export EREBOR_BENCH_SMOKE=1

    for bin in table3 fig8; do
        echo "==> smoke: cargo run --release -p erebor-bench --bin $bin"
        out="$(cargo run --release -q -p erebor-bench --bin "$bin")"
        json="$(extract_json "$out" "$bin")"
        check_json "$json" "$bin"
        # The stats block (TLB + monitor counters + cycle attribution)
        # must be present and structurally sound.
        for key in '"stats"' '"tlb_hit_rate"' '"attribution"'; do
            if [[ "$json" != *"$key"* ]]; then
                echo "error: $bin stdout lacks $key in the stats block" >&2
                exit 1
            fi
        done
        echo "    $bin: JSON OK (${#json} bytes)"
    done

    echo "==> smoke: cargo bench (testkit harness, reduced samples)"
    cargo bench -p erebor-bench --bench crypto >/dev/null

    echo "==> smoke: cargo bench paging (TLB hit rate and hit-vs-walk cost)"
    cargo bench -p erebor-bench --bench paging >/dev/null
fi

if [[ "$ANALYZE" == 1 ]]; then
    # Analysis stage (see DESIGN.md §9; the privilege auditor of §14
    # runs in the default gate above). Three passes:
    #   1. the analyze bench — state auditor over a freshly booted Full
    #      snapshot with zero findings and its walked state under a
    #      fixed simulated-work budget (so the per-chaos-case audit
    #      stays cheap), and the privilege scan under its line budget;
    #   2. the red-team suite (tests/analyze.rs): one corrupted snapshot
    #      per auditor check asserting exactly that finding, plus the
    #      synthetic and end-to-end stale-TLB races;
    #   3. a fixed-seed chaos campaign audited after every step, with
    #      the happens-before race detector run over each case's trace.
    echo "==> analyze: cargo bench analyze (auditor budget)"
    EREBOR_BENCH_SMOKE=1 cargo bench -p erebor-bench --bench analyze >/dev/null

    echo "==> analyze: cargo test --release --test analyze (red team + campaign)"
    EREBOR_CHAOS_CASES="${EREBOR_CHAOS_CASES:-100}" \
        cargo test --release -q --test analyze
fi

if [[ "$FLEET" == 1 ]]; then
    # Fleet-scale serving gate (see DESIGN.md §11). Three halves:
    #   1. the fleet reference-model suite — seeded campaigns keep the
    #      monitor's O(1) lookups in step with a model sandbox table,
    #      and the fleet schedule must be same-seed deterministic;
    #   2. the fleet chaos campaign — churn kills issue one coalesced
    #      teardown shootdown each while the injector drops and
    #      spuriously delivers IPIs; staleness is accounted in the
    #      per-ASID ledger;
    #   3. the fleet bench in smoke shape — determinism, a measured
    #      gate-latency tail and the throughput floor.
    echo "==> fleet: cargo test --release --test fleet_equivalence"
    cargo test --release -q --test fleet_equivalence

    echo "==> fleet: cargo test --release --test chaos fleet_coalesced"
    cargo test --release -q --test chaos fleet_coalesced

    echo "==> fleet: cargo bench fleet"
    EREBOR_BENCH_SMOKE=1 cargo bench -p erebor-bench --bench fleet >/dev/null
fi

if [[ "$KEYED" == 1 ]]; then
    # Isolation-backend gate (see DESIGN.md §12). Two halves:
    #   1. the keyed integration suite — the PKS exhaustion boundary
    #      (typed DomainsExhausted at capacity, domain recycling), the
    #      256-sandbox TME-MK confinement run with a clean audit, and
    #      the kill-teardown fence;
    #   2. the keyed bench — gate cost vs resident-sandbox count per
    #      backend, with its live-domain floor and gate-overhead ceiling.
    echo "==> keyed: cargo test --release --test keyed"
    cargo test --release -q --test keyed

    echo "==> keyed: cargo bench keyed"
    EREBOR_BENCH_SMOKE=1 cargo bench -p erebor-bench --bench keyed >/dev/null
fi

if [[ "$MIGRATE" == 1 ]]; then
    # Live-migration gate (see DESIGN.md §13). Two halves:
    #   1. the migration suite — same-seed migrated vs unmigrated runs
    #      byte-identical, fresh non-architectural counters on import,
    #      domain-pool round-trip on both backends, a migrated
    #      64-sandbox fleet auditing clean, and a >=200-case chaos
    #      campaign over the sealed record stream (drop / duplicate /
    #      reorder / corrupt / truncate, every fault a typed abort);
    #   2. the migrate bench — its throughput floor, pause ceiling and
    #      byte-identical import of the timed stream.
    echo "==> migrate: cargo test --release --test migration (>=200-case chaos)"
    EREBOR_CHAOS_CASES="${EREBOR_CHAOS_CASES:-240}" \
        cargo test --release -q --test migration

    echo "==> migrate: cargo bench migrate"
    EREBOR_BENCH_SMOKE=1 cargo bench -p erebor-bench --bench migrate >/dev/null
fi

echo "==> ci.sh: all checks passed"
