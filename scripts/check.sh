#!/usr/bin/env bash
# Tier-1 gate plus the determinism contracts.
#
# Builds the workspace, lints it, runs the root test suite in a debug
# build (so the debug-only consistency checks fire), runs the test suite
# of every workspace crate in release (crate-level unit tests included),
# then the allocation-budget gates (steady-state epochs must stay ≥95%
# below the preparing epochs' hot-path heap allocations, under a pinned
# budget) and the buffer-pool kill-switch equivalence gates. One loop then
# runs, at each forced thread count (PIPAD_THREADS=1 and =4), the
# host-parallel bit-exactness contract, the trace-export byte-identity
# contract (golden Chrome-trace regression), the resume gate
# (kill-and-resume bit-identity for every model, pool on and off), the
# multi-GPU gate (loss trajectories bit-identical across device counts for
# every model), the serving gate (served logits bit-identical to the
# train-time forward) and the `repro` chaos, resume, multigpu, serve and
# profile reports, which must come out byte-identical across thread
# counts (profile also with the buffer pool disabled). Last come the
# perf-regression sentinel (key profile metrics within tolerance of the
# committed baseline, plus negative tests proving that a seeded drift and
# a zero-overlap baseline both fail) and a rustdoc pass with warnings
# denied.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace -- -D warnings

echo "== cargo test -q =="
cargo test -q

echo "== cargo test -q --release --workspace =="
cargo test -q --release --workspace

echo "== allocation budget (counting allocator, zero-alloc steady state) =="
cargo test -q --release --test alloc_budget
cargo test -q --release --test multigpu_alloc

echo "== pool equivalence (PIPAD_NO_POOL=1 bit-identity) =="
PIPAD_NO_POOL=1 cargo test -q --test pool_equivalence

echo "== serve equivalence with the buffer pool disabled =="
PIPAD_NO_POOL=1 cargo test -q --release --test serve_equivalence

scratch_dir="$(mktemp -d)"
trap 'rm -rf "$scratch_dir"' EXIT

# Every determinism suite and `repro` report, at each forced thread count.
reports="chaos resume multigpu serve profile"
for t in 1 4; do
    echo "== determinism suites and reports @ PIPAD_THREADS=$t =="
    PIPAD_THREADS=$t cargo test -q --test host_parallel_exactness
    PIPAD_THREADS=$t cargo test -q --test trace_golden
    for suite in resume_equivalence multigpu_equivalence serve_equivalence; do
        PIPAD_THREADS=$t cargo test -q --release --test "$suite"
    done
    for exp in $reports; do
        PIPAD_THREADS=$t cargo run -q --release -p pipad-bench --bin repro -- \
            "$exp" --scale tiny --out "$scratch_dir/$exp-t$t"
    done
done
PIPAD_NO_POOL=1 cargo run -q --release -p pipad-bench --bin repro -- \
    profile --scale tiny --out "$scratch_dir/profile-nopool"

echo "== report determinism (PIPAD_THREADS=1 vs =4; profile also vs PIPAD_NO_POOL=1) =="
for exp in $reports; do
    diff -r "$scratch_dir/$exp-t1" "$scratch_dir/$exp-t4"
done
diff -r "$scratch_dir/profile-t1" "$scratch_dir/profile-nopool"
echo "reports byte-identical across thread counts and with the pool disabled"

echo "== perf-regression sentinel (repro profile --baseline) =="
cargo run -q --release -p pipad-bench --bin repro -- \
    profile --scale tiny --out "$scratch_dir/ps" --baseline tests/golden/profile_baseline.json
echo "sentinel accepted the committed baseline"

echo "== perf-regression sentinel negative test (seeded drift must fail) =="
# Perturb the first guarded metric's expected value far outside its
# tolerance band; the comparator must exit nonzero.
sed '2s/"value":[^,]*/"value":123456789.0/' tests/golden/profile_baseline.json \
    > "$scratch_dir/bad_baseline.json"
if cargo run -q --release -p pipad-bench --bin repro -- \
    profile --scale tiny --out "$scratch_dir/pn" --baseline "$scratch_dir/bad_baseline.json" \
    2> "$scratch_dir/sentinel_neg.log"; then
    echo "ERROR: sentinel accepted a drifted baseline" >&2
    exit 1
fi
grep -q "drifted" "$scratch_dir/sentinel_neg.log"
echo "sentinel correctly rejected the seeded drift"

echo "== perf-regression sentinel negative test (zero overlap must fail) =="
# A baseline whose steady PiPAD overlap is 0 (no pipelining at all) must
# not accept the current run, which overlaps.
sed '/pipad_overlap_fraction_milli{method=\\"PiPAD\\",window=\\"steady\\"}/s/"value":[^,]*/"value":0.0/' \
    tests/golden/profile_baseline.json > "$scratch_dir/zero_overlap_baseline.json"
if cmp -s tests/golden/profile_baseline.json "$scratch_dir/zero_overlap_baseline.json"; then
    echo "ERROR: zero-overlap edit did not apply" >&2
    exit 1
fi
if cargo run -q --release -p pipad-bench --bin repro -- \
    profile --scale tiny --out "$scratch_dir/pz" --baseline "$scratch_dir/zero_overlap_baseline.json" \
    2> "$scratch_dir/sentinel_zero.log"; then
    echo "ERROR: sentinel accepted a zero-overlap baseline" >&2
    exit 1
fi
grep -q "pipad_overlap_fraction_milli.*drifted" "$scratch_dir/sentinel_zero.log"
echo "sentinel correctly rejected the zero-overlap baseline"

echo "== cargo doc --workspace --no-deps (warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
echo "rustdoc clean"

echo "== all checks passed =="
