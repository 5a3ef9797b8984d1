#!/bin/sh
# Tier-2 CI gate: release build, full test suite, clippy and rustdoc with
# warnings promoted to errors, plus a trace record -> replay -> diff
# smoke check. Run from the repository root; exits non-zero on the first
# failing stage.
set -eux

cargo build --release
cargo test -q
cargo clippy --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

# Trace layer smoke: a recorded run on a small torus must replay to a
# byte-identical trace (same executions, final configuration and
# per-phase metrics) and diff as identical.
trace_dir=$(mktemp -d)
trap 'rm -rf "$trace_dir"' EXIT
./target/release/pif-trace record torus:4x4 "$trace_dir/a.jsonl" central-rand 7 2000
./target/release/pif-trace replay "$trace_dir/a.jsonl" "$trace_dir/b.jsonl"
cmp "$trace_dir/a.jsonl" "$trace_dir/b.jsonl"
./target/release/pif-trace diff "$trace_dir/a.jsonl" "$trace_dir/b.jsonl"

# Verify-throughput smoke: exp_verify_throughput runs the checker on one
# worker, on N workers and under the full reduction on the product
# instances plus the reachable-wave n=5 instances, asserts their
# verdicts are identical (it aborts on any divergence) and records
# states/sec. The emitted JSON must parse and carry the required fields,
# including the reduction columns.
./target/release/exp_verify_throughput > "$trace_dir/verify_throughput.json"
for field in benchmark unit workers host_parallelism results; do
    jq -e ".$field" "$trace_dir/verify_throughput.json" > /dev/null
done
jq -e '.results | length == 12' "$trace_dir/verify_throughput.json" > /dev/null
jq -e '[.results[] | select(.verified and .states_explored > 0
        and .par1_states_per_sec > 0 and .parN_states_per_sec > 0
        and .reduced_states_explored > 0 and .reduced_states_per_sec > 0
        and .states_ratio >= 1 and .full_space_configs > 0)]
       | length == 12' "$trace_dir/verify_throughput.json" > /dev/null
# The n=5 / grid wave rows must be present, exploring a minuscule slice
# of a full space the product search could never enumerate.
jq -e '[.results[] | select(.check == "snap_wave")] | length == 4' \
    "$trace_dir/verify_throughput.json" > /dev/null
jq -e '[.results[] | select(.check == "snap_wave"
        and .full_space_configs > (1000 * .states_explored))] | length == 4' \
    "$trace_dir/verify_throughput.json" > /dev/null
# The symmetry quotient must bite on the symmetric product instances.
jq -e '[.results[] | select(.instance == "chain3-mid" or .instance == "triangle")
        | select(.check != "snap_wave" and .states_ratio > 1.5)] | length == 4' \
    "$trace_dir/verify_throughput.json" > /dev/null
# The committed benchmark artifact must parse with the same shape.
jq -e '.benchmark == "verify_throughput" and (.results | length == 12)' \
    BENCH_verify_throughput.json > /dev/null
# Every deterministic column of the fresh rows (state counts with and
# without the reduction, verdicts and full-space sizes, including the
# chain4/chain5 wave rows no test pins) must equal the committed
# artifact, row for row; only the rates may drift.
jq -e --slurpfile committed BENCH_verify_throughput.json '
    def pinned: [.results[] | {instance, check, states_explored,
        reduced_states_explored, verified, full_space_configs}];
    (.results | length == 12) and pinned == ($committed[0] | pinned)' \
    "$trace_dir/verify_throughput.json" > /dev/null

# Reduction differential: every reduction (none/por/symmetry/full) must
# return verdicts bit-identical to the exhaustive reference on all
# tier-1 instances (product + wave) and still flag the leaf-guard
# mutant. The binary exits non-zero on any divergence.
./target/release/verify_exhaustive --differential-reductions

# Static analyzer: the paper's PIF and all three baselines must certify
# clean (exit 0, zero diagnostics) on the small-topology suite, and the
# JSON report must carry the documented v2 shape (abstract machines,
# ranking certificates, derived-interference summary).
./target/release/pif-analyze > "$trace_dir/analyze.json"
jq -e '.analyzer == "pif-analyze" and .version == 2' "$trace_dir/analyze.json" > /dev/null
jq -e '.total_diagnostics == 0' "$trace_dir/analyze.json" > /dev/null
jq -e '.runs | length == 12' "$trace_dir/analyze.json" > /dev/null
jq -e '[.runs[] | select(.views_checked > 0
        and (.diagnostics | length == 0)
        and (.interference.edges | length > 0))]
       | length == 12' "$trace_dir/analyze.json" > /dev/null
# PIF's interference graph must have the paper shape: all 7x7 ordered
# action pairs interfere across a link.
jq -e '[.runs[] | select(.protocol == "pif") | .interference.edges
        | map(select(.across_link)) | length] | all(. == 49)' \
    "$trace_dir/analyze.json" > /dev/null
# v2 sections: every run must carry a non-empty abstract machine, a
# certified convergence ranking within the Theorem 1 window, and a
# derived interference summary whose radius is the POR premise (1).
jq -e '[.runs[] | select((.abstract | length > 0)
        and .ranking.certified and .ranking.max_depth <= .ranking.window
        and .derived.derived_radius == 1 and .derived.pair_probes > 0
        and .derived.observed_radius <= 1)]
       | length == 12' "$trace_dir/analyze.json" > /dev/null
# The clean-suite report is fully deterministic (seeded sampling, sorted
# edge sets): it must match the committed golden byte for byte, so any
# drift in checks, probing or report shape is a reviewed diff.
cmp "$trace_dir/analyze.json" GOLDEN_analyze_report.json
# The mutant suite must be flagged with the expected diagnostic codes
# (the binary exits non-zero if any mutant comes back clean or fires a
# code other than its own).
./target/release/pif-analyze --mutants > "$trace_dir/analyze_mutants.json"
for code in AN001 AN002 AN003 AN008 AN009 AN010 AN011; do
    jq -e --arg c "$code" '[.runs[].diagnostics[].code] | index($c)' \
        "$trace_dir/analyze_mutants.json" > /dev/null
done

# Concurrent initiators (DESIGN.md S15): three waves interleaved on one
# pif-serve shard must each satisfy PIF1 and PIF2 with a census of 10
# (the example asserts both and exits non-zero otherwise).
cargo run --release -p pif-suite --example concurrent_initiators

# Wave-service smoke (DESIGN.md §13): a short seeded soak must finish
# with a spotless ledger, and the same soak with a mid-flight
# register-corruption campaign must keep every post-fault request
# correct (the binary exits non-zero on any ledger violation in either
# mode). The emitted JSON must carry the documented report shape. The
# fault soak runs at three shard counts, since the calling thread is one
# of the service's workers (§13.3): one shard runs the whole service on
# the caller, two run one shard there and one on a spawned thread, and
# three (with four initiators) run one there and two on spawned threads.
./target/release/pif-serve soak --topology torus:4x4 --initiators 4 --shards 2 \
    --seed 11 --requests 400 --json "$trace_dir/soak_clean.json"
for spec in "3 1" "3 2" "4 3"; do
    set -- $spec
    ./target/release/pif-serve soak --topology torus:3x3 --initiators "$1" --shards "$2" \
        --seed 17 --requests 200 --daemon central-random \
        --corrupt-after 30 --corrupt-registers 10 \
        --json "$trace_dir/soak_fault_$2.json"
done
for f in soak_clean soak_fault_1 soak_fault_2 soak_fault_3; do
    jq -e '.benchmark == "service_throughput" and .version == 1
           and (.results | length == 1)' "$trace_dir/$f.json" > /dev/null
done
jq -e '.results[0] | .summary.completed_ok == 400 and .summary.casualties == 0' \
    "$trace_dir/soak_clean.json" > /dev/null
for f in soak_fault_1 soak_fault_2 soak_fault_3; do
    jq -e '.results[0].summary
           | .post_fault_total > 0 and .post_fault_ok == .post_fault_total
             and .timed_out == 0' "$trace_dir/$f.json" > /dev/null
done
# The committed service benchmark must parse with the right shape and
# replay bit-identically from its recorded seed (deterministic fields
# only; `check` exits non-zero on any mismatch). The records were made on
# the AoS engine and replay on the default SoA engine, so this also checks
# the two engines against each other.
jq -e '.benchmark == "service_throughput" and .version == 1
       and (.results | length == 9)' BENCH_service_throughput.json > /dev/null
jq -e '[.results[] | select(.summary.completed_ok == .requests
        and .summary.post_fault_ok == .summary.post_fault_total)]
       | length == 9' BENCH_service_throughput.json > /dev/null
./target/release/pif-serve check BENCH_service_throughput.json

# SoA engine smoke (DESIGN.md §14): the AoS/SoA lockstep differential
# must pass (identical states, enabled sets, rounds and step reports on
# every step, across all three daemon families and three topologies —
# the binary exits non-zero on any divergence), a soak on the non-default
# AoS engine must finish with a spotless ledger, and the committed
# step-throughput benchmark must carry the documented shape: 18 rows (3
# topologies x 6 sizes), positive throughput in every engine column, and
# the accepted >= 10M moves/sec synchronous batch-stepping row on torus
# n=1024.
./target/release/exp_step_throughput --check
./target/release/pif-serve soak --topology torus:4x4 --initiators 4 --shards 2 \
    --seed 11 --requests 200 --engine aos --json "$trace_dir/soak_aos.json"
jq -e '.results[0] | .summary.completed_ok == 200 and .summary.casualties == 0' \
    "$trace_dir/soak_aos.json" > /dev/null
jq -e '.benchmark == "step_throughput" and (.results | length == 18)' \
    BENCH_step_throughput.json > /dev/null
jq -e '[.results[] | select(.aos_steps_per_sec > 0 and .soa_steps_per_sec > 0
        and .soa_sync_moves_per_sec > 0)] | length == 18' \
    BENCH_step_throughput.json > /dev/null
jq -e '.acceptance | contains("10000000")' BENCH_step_throughput.json > /dev/null
jq -e '[.results[] | select(.topology == "torus" and .n == 1024
        and .soa_sync_moves_per_sec >= 10000000)] | length == 1' \
    BENCH_step_throughput.json > /dev/null

# Message-passing transport smoke (DESIGN.md §15): the net-vs-shared-memory
# differential (fault-free max propagation must settle to the Simulator's
# terminal configuration across chain/torus/random graphs) and the replay +
# certification check (every (topology, fault-cell) point re-derives its
# deterministic certification fields bit-identically from its seeds, equal
# to the values in the committed BENCH_net_throughput.json, with 16/16
# [PIF1]/[PIF2] completion and zero corrupt frames applied) must both
# pass — each binary exits non-zero on any divergence. The committed
# benchmark artifact must parse with the same certified shape.
./target/release/exp_net_throughput --differential
./target/release/exp_net_throughput --check
jq -e '.benchmark == "net_throughput" and (.results | length == 6)' \
    BENCH_net_throughput.json > /dev/null
jq -e '[.results[] | select(.completed == 16 and .pif1_ok == 16
        and .pif2_ok == 16 and .corrupt_applied == 0
        and .events_per_sec > 0)] | length == 6' \
    BENCH_net_throughput.json > /dev/null
# Adversarial cells must actually exercise the CRC gate (rejections > 0).
jq -e '[.results[] | select(.cell == "adversarial" and .crc_rejected > 0)]
       | length == 3' BENCH_net_throughput.json > /dev/null
# Serve over the lossy transport: a short seeded soak with a mid-flight
# register-corruption campaign must keep every post-fault request correct.
./target/release/pif-serve soak --topology torus:3x3 --initiators 3 --shards 2 \
    --seed 23 --requests 120 --transport net \
    --net-drop 0.1 --net-reorder 0.2 --net-corrupt 0.02 \
    --corrupt-after 30 --corrupt-registers 8

# Chaos layer smoke (DESIGN.md §18): a clean soak and an adversarial
# churn + corruption soak must both grade steady-state availability n/n
# with the snap claim intact (the binary exits non-zero otherwise), and
# the emitted JSON must carry the documented chaos_slo cell shape. The
# storm runs on the non-default AoS engine.
./target/release/pif_chaos soak --topology ring:8 --seed 11 \
    --json "$trace_dir/chaos_clean.json"
./target/release/pif_chaos soak --topology grid:3x3 --seed 17 \
    --churn-epochs 2 --churn-per-epoch 2 --corrupt-registers 3 \
    --engine aos --json "$trace_dir/chaos_storm.json"
for f in chaos_clean chaos_storm; do
    jq -e '.benchmark == "chaos_slo" and .version == 1
           and (.results | length == 1)' "$trace_dir/$f.json" > /dev/null
    jq -e '.results[0] | .snap_ok
           and .steady_within_slo == .steady_total
           and .availability >= 1 and .steady_availability >= 1' \
        "$trace_dir/$f.json" > /dev/null
done
# The churned soak must have actually churned and retired or carried
# lanes across at least one rebuild.
jq -e '.results[0].churn_applied > 0' "$trace_dir/chaos_storm.json" > /dev/null
# The committed chaos benchmark must parse with the right shape — the
# full matrix, every cell snap-clean and steady-available — and replay
# bit-identically from its recorded seeds (`check` exits non-zero on any
# mismatch).
jq -e '.benchmark == "chaos_slo" and .version == 1
       and (.results | length == 9)' BENCH_chaos_slo.json > /dev/null
jq -e '[.results[] | select(.snap_ok and .steady_within_slo == .steady_total)]
       | length == 9' BENCH_chaos_slo.json > /dev/null
jq -e '[.results[] | select(.churn != null and .churn_applied > 0)]
       | length >= 3' BENCH_chaos_slo.json > /dev/null
./target/release/pif_chaos check BENCH_chaos_slo.json
# Adversarial schedule search: every searched schedule must stay inside
# the Theorem 1/2 windows (the binary exits non-zero if one breaks out).
./target/release/pif_chaos search --topology chain:6 --seed 7

# Unsafe-audit gate: the workspace's concurrency claims are audited under
# the premise that no crate uses `unsafe` (DESIGN.md §12). Keep it true.
if grep -rn "unsafe" --include='*.rs' crates/ vendor/ \
    | grep -v "forbid(unsafe_code)" | grep -v "^[^:]*:[0-9]*: *//"; then
    echo "unsafe usage found outside forbid(unsafe_code) declarations" >&2
    exit 1
fi

# Loom concurrency model tests: rebuild the parallel primitives on the
# loom-instrumented sync layer and model-check the claim-index and
# visited-shard protocols across perturbed schedules.
RUSTFLAGS="--cfg loom" cargo test -q -p pif-par --test loom_model
RUSTFLAGS="--cfg loom" cargo test -q -p pif-verify --test loom_visited

# Miri (undefined-behavior interpreter) over the concurrency-bearing
# crates. The hermetic container cannot install rustup components, so
# the stage activates only where `cargo miri` exists; the loom stage
# above and the no-unsafe gate carry the soundness weight either way.
if cargo miri --version > /dev/null 2>&1; then
    cargo miri test -p pif-par -p pif-daemon -p pif-core
else
    echo "cargo miri unavailable; skipping UB-interpreter stage"
fi

# ThreadSanitizer over the concurrency-bearing crates. Like miri, the
# instrumentation needs a nightly toolchain (-Z sanitizer + build-std),
# which the hermetic container may not carry — the stage activates only
# where nightly with rust-src exists; the loom model checks above cover
# the same protocols under schedule perturbation either way.
if cargo +nightly --version > /dev/null 2>&1 \
    && rustc +nightly --print sysroot > /dev/null 2>&1 \
    && [ -d "$(rustc +nightly --print sysroot)/lib/rustlib/src/rust/library" ]; then
    RUSTFLAGS="-Z sanitizer=thread" \
        cargo +nightly test -q -Z build-std -p pif-par -p pif-verify \
        --target "$(rustc -vV | sed -n 's/^host: //p')"
else
    echo "nightly toolchain with rust-src unavailable; skipping ThreadSanitizer stage"
fi

# Clippy pedantic subset on the analyzer, baseline, application, protocol
# core, step loop, graph, transport, parallel, serving and verifier crates,
# and on pif-bench, which holds the experiment binaries and the pif-trace
# CLI (--no-deps keeps the stricter bar scoped to them; pif-core holds the
# AoS guard scan every engine but SoA runs and the exhaustive checks read,
# pif-daemon the one step loop both engines share). The curated
# allow-list drops
# pedantic lints that fight the workspace idiom: narrowing casts in
# packed-state/projection code, panic-is-the-assert test style,
# naming/length conventions the rest of the workspace does not follow,
# and inline(always) on the SoA hot-path accessors (deliberate: the
# batch-stepping kernel depends on those loads folding into the scan).
cargo clippy -p pif-analyze -p pif-apps -p pif-baselines -p pif-bench -p pif-chaos -p pif-core -p pif-daemon -p pif-graph -p pif-net -p pif-par -p pif-serve -p pif-soa -p pif-verify --no-deps --all-targets -- -D warnings \
    -W clippy::pedantic \
    -A clippy::cast-possible-truncation \
    -A clippy::cast-possible-wrap \
    -A clippy::cast-precision-loss \
    -A clippy::cast-sign-loss \
    -A clippy::inline-always \
    -A clippy::manual-assert \
    -A clippy::match-same-arms \
    -A clippy::missing-panics-doc \
    -A clippy::module-name-repetitions \
    -A clippy::must-use-candidate \
    -A clippy::similar-names \
    -A clippy::too-many-lines \
    -A clippy::unreadable-literal

# Tier-2 exhaustive coverage (time budget: 45 minutes on the reference
# single-core container; minutes on a multi-core host). chain(4)
# correction-bound + snap-safety and ring(4) correction-bound product
# searches must run to completion with paper-matching verdicts — the
# binary exits non-zero on any Theorem 1 or snap-safety violation.
timeout 2700 ./target/release/verify_exhaustive --tier2

# Spill-tier demonstration: the chain(4) correction-bound product search
# under a deliberately small visited-table budget must stay under a
# 2 GiB RSS high-water mark (the binary asserts VmHWM <= the ceiling and
# that the verdict is unchanged).
timeout 900 ./target/release/verify_exhaustive --spill-demo --rss-ceiling-mb 2048
