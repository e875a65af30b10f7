#!/usr/bin/env bash
# Tier-1 verification: the plain Release build + full test suite, then the
# sanitized (ASan+UBSan) build running the concurrency / fault-injection
# subset, then the TSan build running the real-thread-pool membership and
# fault tests. Mirrors ROADMAP.md's tier-1 command and adds the sanitizer
# legs.
#
# Each leg's test list is declared ONCE below and drives both the build
# targets and the ctest selection, so a list entry cannot silently rot: a
# listed binary that the build did not produce fails the leg.
#
# The dst leg then sweeps seeded fault schedules through the deterministic
# chaos explorer (tests/dst_explore.cc): every seed runs the full cluster
# invariant suite (single-activation, write conservation, monotonic reads,
# promise leaks); a violating seed leaves a JSON replay artifact plus a
# ddmin-minimized schedule and fails the leg. scripts/dst_nightly.sh runs
# the long version of the same sweep.
#
# Usage: scripts/tier1.sh [--no-asan] [--no-tsan] [--no-dst]
set -euo pipefail
cd "$(dirname "$0")/.."

# Seeds for the tier-1 dst sweep: enough to re-find every historical
# invariant bug class in a few minutes, small enough for the time box.
DST_SEEDS="${DST_SEEDS:-200}"

# Sanitized leg: the tests that exercise cross-thread and fault paths, and
# the decoders of bytes read back from storage (shm_property_test's
# mutated journal deltas).
ASAN_TESTS=(
  fault_injection_test aodb_features_test storage_test
  real_mode_stress_test wire_registry_test membership_test
  telemetry_test scheduler_test overload_test observability_test
  scale_paging_test shm_property_test
)
# TSan leg: data races in the membership agents, eviction/failover paths,
# real-mode thread pools, the concurrent telemetry recorders, the flight
# recorder, and the overload/migration machinery (ASan and TSan cannot
# share a build).
TSAN_TESTS=(
  membership_test fault_injection_test real_mode_stress_test
  telemetry_test scheduler_test overload_test observability_test
  scale_paging_test
)

# Joins a test list into the anchored regex ctest -R expects.
ctest_regex() {
  local IFS='|'
  echo "$*"
}

# Fails the leg when a listed binary is missing from the build tree — the
# guard against a test being dropped from a leg without anyone noticing.
require_binaries() {
  local dir="$1"; shift
  local missing=0
  for t in "$@"; do
    if [[ ! -x "$dir/tests/$t" ]]; then
      echo "tier1: ERROR: expected test binary $dir/tests/$t is missing" >&2
      missing=1
    fi
  done
  return "$missing"
}

run_asan=1
run_tsan=1
run_dst=1
for arg in "$@"; do
  case "$arg" in
    --no-asan) run_asan=0 ;;
    --no-tsan) run_tsan=0 ;;
    --no-dst) run_dst=0 ;;
  esac
done

cmake -B build -S . >/dev/null
cmake --build build -j
ctest --test-dir build --output-on-failure -j "$(nproc)"

if [[ "$run_dst" == 1 ]]; then
  # Deterministic chaos sweep. Nonzero exit means an invariant violation
  # (artifact paths are printed by the driver) or a broken harness.
  if ! ./build/tests/dst_explore --seeds="$DST_SEEDS" \
      --artifact-dir=build/dst_artifacts; then
    echo "tier1: ERROR: dst sweep failed; replay artifacts (if any) are" >&2
    echo "tier1:   under build/dst_artifacts/ — rerun a schedule with" >&2
    echo "tier1:   ./build/tests/dst_explore --replay=<artifact.json>" >&2
    exit 1
  fi
  # Bundle sanity: force a synthetic invariant violation (the checker
  # self-test) and assert the postmortem bundle is written, parses as JSON,
  # and contains the violating actor's lifecycle transitions.
  bundle_dir=build/dst_bundle_sanity
  rm -rf "$bundle_dir"
  if ./build/tests/dst_explore --force-violation --seeds=1 --no-shrink \
      --artifact-dir="$bundle_dir" >/dev/null; then
    echo "tier1: ERROR: --force-violation run reported no violation" >&2
    exit 1
  fi
  python3 - "$bundle_dir/seed-1.bundle.json" <<'EOF'
import json, sys
path = sys.argv[1]
with open(path) as f:
    bundle = json.load(f)
assert bundle["schema"] == "aodb.postmortem.v1", bundle.get("schema")
assert "forced: synthetic" in bundle["reason"], bundle["reason"]
events = bundle["flight_events"]
kinds = {e["type"] for e in events if e["actor"] == "dst.Seq/s0"}
assert "activate" in kinds, f"no activate for dst.Seq/s0: {sorted(kinds)}"
assert "deactivate" in kinds, f"no deactivate for dst.Seq/s0: {sorted(kinds)}"
assert isinstance(bundle["metrics_timeline"], list)
assert isinstance(bundle["membership"], list) and bundle["membership"]
assert isinstance(bundle["hot_actors"], list)
print(f"tier1: bundle sanity OK ({len(events)} flight events; "
      f"violating-actor kinds: {sorted(kinds)})")
EOF
else
  echo "tier1: skipping dst sweep (--no-dst)"
fi

if [[ "$run_asan" == 1 ]]; then
  cmake -B build-asan -S . -DAODB_SANITIZE=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-asan -j --target "${ASAN_TESTS[@]}"
  require_binaries build-asan "${ASAN_TESTS[@]}"
  ctest --test-dir build-asan --output-on-failure -j "$(nproc)" \
    -R "$(ctest_regex "${ASAN_TESTS[@]}")"
else
  echo "tier1: skipping ASan leg (--no-asan)"
fi

if [[ "$run_tsan" == 1 ]]; then
  cmake -B build-tsan -S . -DAODB_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-tsan -j --target "${TSAN_TESTS[@]}"
  require_binaries build-tsan "${TSAN_TESTS[@]}"
  ctest --test-dir build-tsan --output-on-failure -j "$(nproc)" \
    -R "$(ctest_regex "${TSAN_TESTS[@]}")"
else
  echo "tier1: skipping TSan leg (--no-tsan)"
fi

echo "tier1: all green (plain + sanitized)"
