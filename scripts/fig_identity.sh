#!/usr/bin/env bash
# Refactor guard rail: the virtual-time figures and the DST sweep must not
# move. Exports a base revision with `git archive`, builds fig6-9, three
# benches that run the periodic agents and the DST explorer there and in
# the working tree (uncommitted changes included), runs both sides, and
# compares
#
#   * each bench's stdout (stderr is chaos narration and is dropped), and
#   * the summary line of a 200-seed dst_explore sweep.
#
# The three extra benches cover what the figures never start: flash_crowd
# the hot-actor controller, ablation_persistence the windowed-persistence
# timers, chaos_recovery the membership heartbeat and probe loops.
#
# Exits 1 at the first differing line, printing it from both sides. fig7
# alone takes about 4 minutes per side, which is why tier1.sh does not run
# this.
#
# Usage: scripts/fig_identity.sh [base-ref]     (default: HEAD)
# FIG_IDENTITY_DIR=<dir> keeps the trees, builds and outputs there instead
# of a temporary directory that is removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

base_ref="${1:-HEAD}"
FIGS=(fig6_single_server fig7_scaleout fig8_raw_latency fig9_live_latency
      flash_crowd ablation_persistence chaos_recovery)
DST_SEEDS=200

if [[ -n "${FIG_IDENTITY_DIR:-}" ]]; then
  work="$FIG_IDENTITY_DIR"
  mkdir -p "$work"
else
  work="$(mktemp -d)"
  trap 'rm -rf "$work"' EXIT
fi
rm -rf "$work/base-src"
mkdir -p "$work/base-src"
git archive "$base_ref" | tar -x -C "$work/base-src"

build() {  # <source dir> <build dir>; compiler output goes to <build dir>.log
  if ! { cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$2" -j "$(nproc)" --target "${FIGS[@]}" dst_explore
       } >"$2.log" 2>&1; then
    tail -n 30 "$2.log" >&2
    echo "fig_identity: ERROR: build of $1 failed (log: $2.log)" >&2
    exit 1
  fi
}

run_side() {  # <build dir> <output dir>
  local bin="$1" out="$2"
  rm -rf "$out"
  mkdir -p "$out"
  for fig in "${FIGS[@]}"; do
    "$bin/bench/$fig" >"$out/$fig.txt" 2>/dev/null
  done
  "$bin/tests/dst_explore" --seeds="$DST_SEEDS" \
    --artifact-dir="$out/dst_artifacts" 2>/dev/null |
    grep 'seed(s) explored' >"$out/dst_explore.txt"
}

echo "fig_identity: building $base_ref and the working tree..."
build "$work/base-src" "$work/base-build"
build . "$work/work-build"

echo "fig_identity: running ${FIGS[*]} and a $DST_SEEDS-seed DST sweep on both sides..."
run_side "$work/base-build" "$work/base-out" &
base_pid=$!
run_side "$work/work-build" "$work/work-out" &
work_pid=$!
failed=""
wait "$base_pid" || failed="$failed base"
wait "$work_pid" || failed="$failed work"
if [[ -n "$failed" ]]; then
  echo "fig_identity: ERROR: a figure or the DST sweep failed on:$failed" >&2
  exit 1
fi

python3 - "$work/base-out" "$work/work-out" "${FIGS[@]}" dst_explore <<'EOF'
import sys

base_dir, work_dir, names = sys.argv[1], sys.argv[2], sys.argv[3:]
for name in names:
    with open(f"{base_dir}/{name}.txt") as f:
        base = f.read().splitlines()
    with open(f"{work_dir}/{name}.txt") as f:
        work = f.read().splitlines()
    for i in range(max(len(base), len(work))):
        b = base[i] if i < len(base) else "<end of output>"
        w = work[i] if i < len(work) else "<end of output>"
        if b != w:
            print(f"fig_identity: {name} differs at line {i + 1}:")
            print(f"  base: {b}")
            print(f"  work: {w}")
            sys.exit(1)
    print(f"fig_identity: {name} identical ({len(base)} lines)")
EOF
echo "fig_identity: OK"
