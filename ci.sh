#!/usr/bin/env bash
# Tier-1 verification, fully offline: the workspace has no external
# dependencies, so every step runs with --offline and must succeed on a
# machine with no network and no registry cache.
#
#   ./ci.sh         full tier-1 + explorer smoke sweep
#   ./ci.sh quick   skip the release build (fast local loop)
set -euo pipefail
cd "$(dirname "$0")"

QUICK="${1:-}"

echo "== build (release, offline) =="
if [ "$QUICK" != "quick" ]; then
  cargo build --release --offline --workspace
fi

echo "== command lines (every binary: bad flag exits 2, --help exits 0) =="
# All binaries share one scanner and one usage exit; each call in the
# loop exits before simulating anything.
if [ "$QUICK" != "quick" ]; then
  for bin in ablations all_experiments fig08_cilk fig09_ustm_throughput \
      fig10_ustm_breakdown fig11_stamp fig12_scalability litmus_matrix \
      table4_characterization native_bench perfdiff sweep explore synth analyze; do
    bad=(--frobnicate)
    if [ "$bin" = sweep ]; then bad=(run --frobnicate); fi
    rc=0; "target/release/$bin" "${bad[@]}" > /dev/null 2>&1 || rc=$?
    if [ "$rc" != 2 ]; then
      echo "FATAL: $bin ${bad[*]} exited $rc, expected 2" >&2
      exit 1
    fi
    rc=0; "target/release/$bin" --help > /dev/null 2>&1 || rc=$?
    if [ "$rc" != 0 ]; then
      echo "FATAL: $bin --help exited $rc, expected 0" >&2
      exit 1
    fi
  done
  # An unwritable --trace path exits 2 (one small run each, in a scratch
  # directory for the results/ CSVs: the trace is written after the
  # section or search it records).
  TRACE="$(mktemp -d)"
  for cmd in "fig08_cilk --quick --filter fib --designs ws+" \
      "synth --quick --filter sb --designs ws+"; do
    rc=0; ( cd "$TRACE" && ASF_PROGRESS=0 "$OLDPWD"/target/release/$cmd \
      --trace /nonexistent/t.json > /dev/null 2>&1 ) || rc=$?
    if [ "$rc" != 2 ]; then
      echo "FATAL: $cmd --trace /nonexistent/t.json exited $rc, expected 2" >&2
      exit 1
    fi
  done
  rm -rf "$TRACE"
fi

echo "== rustfmt (whole workspace) =="
# Every crate and the root suite are rustfmt-clean and must stay so.
cargo fmt --all -- --check

echo "== clippy (workspace, -D warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== docs (rustdoc, -D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "== test (workspace, offline) =="
cargo test -q --offline --workspace

echo "== codec fuzz and round trips (release, 2000 cases each) =="
# The snapshot and ledger readers must return Ok or Err, never panic,
# on truncated, bit-flipped and byte-substituted inputs, and every
# record kind must round-trip with any field values. The tier-1 run
# above keeps the case counts low; this stage raises them.
ASF_PROP_CASES=2000 cargo test -q --release --offline -p asymfence-common \
  --test prop_codec

echo "== parallel harness smoke (jobs=2 == jobs=1, byte-for-byte) =="
# The run engine must produce identical stdout, CSVs, and telemetry
# snapshots at any worker count; run the full quick grid serially and
# with two workers and diff. ASF_TELEMETRY_DETERMINISTIC masks
# wall-clock/RSS so the --metrics JSON is comparable byte-for-byte.
if [ "$QUICK" != "quick" ]; then
  SMOKE="$(mktemp -d)"
  trap 'rm -rf "${SMOKE:-}" "${SYNTH:-}" "${EXH:-}" "${ANA:-}" "${NATIVE:-}" "${SWEEP:-}"' EXIT
  for jobs in 1 2; do
    mkdir -p "$SMOKE/j$jobs"
    ( cd "$SMOKE/j$jobs" && \
      ASF_QUICK=1 ASF_JOBS=$jobs ASF_PROGRESS=0 ASF_TELEMETRY_DETERMINISTIC=1 \
        "$OLDPWD/target/release/all_experiments" --metrics metrics.json \
        > stdout.txt )
  done
  diff -u "$SMOKE/j1/stdout.txt" "$SMOKE/j2/stdout.txt"
  diff -r "$SMOKE/j1/results" "$SMOKE/j2/results"
  diff -u "$SMOKE/j1/metrics.json" "$SMOKE/j2/metrics.json"

  echo "== perf gate (perfdiff vs results/bench_baseline.json) =="
  # Counters, derived ratios and fence percentiles must match the
  # checked-in baseline exactly (wall fields are masked on both sides);
  # schema or key drift fails. Re-bless by regenerating the baseline:
  #   ASF_TELEMETRY_DETERMINISTIC=1 ASF_QUICK=1 ASF_PROGRESS=0 \
  #     target/release/all_experiments --quick --metrics results/bench_baseline.json
  # (run it in a scratch dir and copy the JSON in, so results/*.csv keep
  # their full-run contents).
  target/release/perfdiff --check results/bench_baseline.json \
    "$SMOKE/j1/metrics.json"

  echo "== throughput floor (quick grid, serial, >= 1.8M sim-cycles/s) =="
  # Absolute kernel-speed gate: re-run the quick grid with real timing
  # (no deterministic masking) and require the event-driven kernel to
  # sustain the floor. --metrics runs untraced (each machine folds its
  # own fence tallies), so this is the plain kernel rate: 2.96-3.12M
  # cycles/s in three standalone runs on a 2-vCPU shared VM, 2.52M here
  # right after the test stage. 1.8M sits 30% below the latter, so a
  # regression to per-cycle ticking or a hot-path allocation creep trips
  # it while machine noise does not. Raise the floor with each measured
  # win; never lower it.
  mkdir -p "$SMOKE/floor"
  ( cd "$SMOKE/floor" && \
    ASF_QUICK=1 ASF_JOBS=1 ASF_PROGRESS=0 \
      "$OLDPWD/target/release/all_experiments" --metrics metrics.json \
      > stdout.txt )
  target/release/perfdiff --throughput-floor 1800000 "$SMOKE/floor/metrics.json"
fi

echo "== sharded sweep (3 shards == single process, byte-for-byte) =="
# The sweep ledger must be an exact decomposition of the single-process
# run: journal the quick grid through one whole-grid shard and through a
# three-shard fleet, merge both ledgers, and require identical snapshot
# bytes. The status dashboard must see the finished fleet.
if [ "$QUICK" != "quick" ]; then
  SWEEP="$(mktemp -d)"
  trap 'rm -rf "${SMOKE:-}" "${SYNTH:-}" "${EXH:-}" "${ANA:-}" "${NATIVE:-}" "${SWEEP:-}"' EXIT
  ASF_PROGRESS=0 ASF_TELEMETRY_DETERMINISTIC=1 \
    target/release/sweep run --ledger "$SWEEP/single" --quick --jobs 2 \
      --metrics "$SWEEP/single-metrics.json"
  for id in 0 1; do
    ASF_PROGRESS=0 ASF_TELEMETRY_DETERMINISTIC=1 \
      target/release/sweep run --ledger "$SWEEP/sharded" \
        --shards 3 --shard-id $id --quick --jobs 2
  done
  # The last shard runs with progress lines on: after each heartbeat it
  # prints the `sweep status` fleet footer, read from every ledger.
  ASF_PROGRESS=1 ASF_TELEMETRY_DETERMINISTIC=1 \
    target/release/sweep run --ledger "$SWEEP/sharded" \
      --shards 3 --shard-id 2 --quick --jobs 2 2> "$SWEEP/progress.txt"
  grep -q "^fleet: " "$SWEEP/progress.txt"
  target/release/sweep status --ledger "$SWEEP/sharded" > "$SWEEP/status.txt"
  grep -q "fleet: 56/56 cells (100%)" "$SWEEP/status.txt"
  mkdir -p "$SWEEP/merged"
  target/release/sweep merge --ledger "$SWEEP/sharded" \
    --out "$SWEEP/merged/single-metrics.json"
  diff -u "$SWEEP/single-metrics.json" "$SWEEP/merged/single-metrics.json"

  echo "== sweep crash recovery (SIGKILL a shard, resume, byte-identical merge) =="
  # Kill shard 0 mid-grid (ASF_SWEEP_CELL_DELAY_MS stretches the run and
  # shrinks the journal chunk to one cell, so the kill lands between
  # durable records), run shard 1 to completion, resume shard 0 from its
  # torn ledger, and require the re-merged snapshot to match the
  # single-process bytes exactly.
  ASF_PROGRESS=0 ASF_TELEMETRY_DETERMINISTIC=1 ASF_SWEEP_CELL_DELAY_MS=80 \
    target/release/sweep run --ledger "$SWEEP/kill" \
      --shards 2 --shard-id 0 --quick --jobs 2 &
  VICTIM=$!
  sleep 1.2
  kill -9 "$VICTIM" 2>/dev/null || true
  wait "$VICTIM" 2>/dev/null || true
  ASF_PROGRESS=0 ASF_TELEMETRY_DETERMINISTIC=1 \
    target/release/sweep run --ledger "$SWEEP/kill" \
      --shards 2 --shard-id 1 --quick --jobs 2
  ASF_PROGRESS=0 ASF_TELEMETRY_DETERMINISTIC=1 \
    target/release/sweep run --ledger "$SWEEP/kill" \
      --shards 2 --shard-id 0 --quick --jobs 2
  mkdir -p "$SWEEP/recovered"
  target/release/sweep merge --ledger "$SWEEP/kill" \
    --out "$SWEEP/recovered/single-metrics.json"
  diff -u "$SWEEP/single-metrics.json" "$SWEEP/recovered/single-metrics.json"
fi

echo "== synthesis smoke (--quick, jobs=2 == jobs=1, byte-for-byte) =="
# The fence-assignment search must be deterministic at any worker count:
# run the quick synthesis report serially and with two workers and diff
# stdout and the emitted CSVs.
if [ "$QUICK" != "quick" ]; then
  SYNTH="$(mktemp -d)"
  trap 'rm -rf "${SMOKE:-}" "${SYNTH:-}" "${EXH:-}" "${ANA:-}" "${NATIVE:-}" "${SWEEP:-}"' EXIT
  for jobs in 1 2; do
    mkdir -p "$SYNTH/j$jobs"
    ( cd "$SYNTH/j$jobs" && \
      ASF_PROGRESS=0 "$OLDPWD/target/release/synth" --quick --jobs $jobs \
        > stdout.txt )
  done
  diff -u "$SYNTH/j1/stdout.txt" "$SYNTH/j2/stdout.txt"
  diff -r "$SYNTH/j1/results" "$SYNTH/j2/results"
  # Livelocked oracle runs (SW+ stores bouncing forever while the cores
  # spin) must stop at the machine's watchdog as `oracle:deadlock`, not
  # be simulated to the explorer's 1M-cycle budget.
  mkdir -p "$SYNTH/traced"
  ( cd "$SYNTH/traced" && \
    ASF_PROGRESS=0 "$OLDPWD/target/release/synth" --quick \
      --trace "$SYNTH/traced/trace.json" > stdout.txt )
  if grep -q "oracle:cycle-limit" "$SYNTH/traced/trace.json"; then
    echo "FATAL: synthesis oracle runs hit the cycle limit instead of the watchdog" >&2
    exit 1
  fi
fi

echo "== inference smoke (analyze --quick, jobs=2 == jobs=1, byte-for-byte) =="
# Whole-program fence inference must be deterministic at any worker
# count, and the zero-annotation Peterson placement must come out
# oracle-valid under every searched design.
if [ "$QUICK" != "quick" ]; then
  ANA="$(mktemp -d)"
  trap 'rm -rf "${SMOKE:-}" "${SYNTH:-}" "${EXH:-}" "${ANA:-}" "${NATIVE:-}" "${SWEEP:-}"' EXIT
  for jobs in 1 2; do
    mkdir -p "$ANA/j$jobs"
    ( cd "$ANA/j$jobs" && \
      ASF_PROGRESS=0 "$OLDPWD/target/release/analyze" --quick --jobs $jobs \
        > stdout.txt )
  done
  diff -u "$ANA/j1/stdout.txt" "$ANA/j2/stdout.txt"
  diff -r "$ANA/j1/results" "$ANA/j2/results"
  grep -q "placement peterson: oracle-valid" "$ANA/j1/stdout.txt"
fi

echo "== exhaustive exploration smoke (DPOR, jobs=2 == jobs=1, byte-for-byte) =="
# The bounded-exhaustive walk over the litmus corpus must be
# byte-identical at any worker count. The corpus contains known-violating
# scenarios, so a nonzero exit from the corpus pass is expected — the
# checks are the diff and the convictions below.
if [ "$QUICK" != "quick" ]; then
  EXH="$(mktemp -d)"
  trap 'rm -rf "${SMOKE:-}" "${SYNTH:-}" "${EXH:-}" "${ANA:-}" "${NATIVE:-}" "${SWEEP:-}"' EXIT
  for jobs in 1 2; do
    ASF_PROGRESS=0 target/release/explore --scenario corpus --design all \
      --exhaustive --quick --jobs $jobs > "$EXH/j$jobs.txt" || true
  done
  diff -u "$EXH/j1.txt" "$EXH/j2.txt"
  grep -q "sb-unfenced/SPlus: VIOLATION" "$EXH/j1.txt"
  grep -q "sb-fenced/SPlus: clean" "$EXH/j1.txt"
  # The SW+ blind spot: the all-weak Dekker must be convicted by the
  # bound-1 walk (the known violation the design taxonomy predicts).
  if ASF_PROGRESS=0 target/release/explore --scenario sb-allweak --design SW+ \
      --exhaustive --bound 1 > "$EXH/allweak.txt"; then
    echo "FATAL: all-weak Dekker passed exhaustive exploration under SW+" >&2
    exit 1
  fi
  grep -q "VIOLATION" "$EXH/allweak.txt"
  # Shrinks, sampled and exhaustive, and synth's exhaustive oracle must
  # be byte-identical at any worker count too. The padded Dekker core
  # violates, so those passes exit 1; S+ must shrink it to two threads.
  for jobs in 1 2; do
    ASF_PROGRESS=0 target/release/explore --scenario sb-padded --design all \
      --seeds 64 --jobs $jobs > "$EXH/padded-j$jobs.txt" || true
    ASF_PROGRESS=0 target/release/explore --scenario sb-padded --design all \
      --exhaustive --bound 2 --jobs $jobs > "$EXH/padded-exh-j$jobs.txt" || true
    mkdir -p "$EXH/synth-j$jobs"
    ( cd "$EXH/synth-j$jobs" && \
      ASF_PROGRESS=0 "$OLDPWD/target/release/synth" --quick --exhaustive \
        --filter dekker --jobs $jobs > stdout.txt )
  done
  diff -u "$EXH/padded-j1.txt" "$EXH/padded-j2.txt"
  diff -u "$EXH/padded-exh-j1.txt" "$EXH/padded-exh-j2.txt"
  diff -u "$EXH/synth-j1/stdout.txt" "$EXH/synth-j2/stdout.txt"
  diff -r "$EXH/synth-j1/results" "$EXH/synth-j2/results"
  for f in "$EXH/padded-j1.txt" "$EXH/padded-exh-j1.txt"; do
    grep -A2 "^SPlus: VIOLATION" "$f" | grep -q '^scenario `sb-padded` (2 threads):'
  done
fi

echo "== native runtime (litmus hammer + native_bench smoke) =="
# The native asymmetric-fence runtime must hold SC on real threads under
# hard hammering, on whichever backend the kernel offers AND on the
# portable seqcst fallback (ASF_NATIVE_BACKEND=fallback forces it, so
# the stage also passes in containers without membarrier). native_bench
# prints the probed backend and self-checks every kernel.
if [ "$QUICK" != "quick" ]; then
  ASF_NATIVE_ITERS=40000 cargo test -q --offline --test native_litmus
  ASF_NATIVE_ITERS=40000 ASF_NATIVE_BACKEND=fallback \
    cargo test -q --offline --test native_litmus
  NATIVE="$(mktemp -d)"
  trap 'rm -rf "${SMOKE:-}" "${SYNTH:-}" "${EXH:-}" "${ANA:-}" "${NATIVE:-}" "${SWEEP:-}"' EXIT
  target/release/native_bench --quick --crossval \
    --metrics "$NATIVE/native.json" | tee "$NATIVE/stdout.txt"
  grep -q "^backend: " "$NATIVE/stdout.txt"
  grep -q "sim-vs-silicon" "$NATIVE/stdout.txt"
  # The fallback path must probe, print, and self-check cleanly too.
  ASF_NATIVE_BACKEND=fallback target/release/native_bench --quick \
    > "$NATIVE/fallback.txt"
  grep -q "^backend: seqcst-fallback" "$NATIVE/fallback.txt"
  # The grid's deterministic columns (kernel, pair, sim design, ops) are
  # pinned on both backends, so no cell is dropped, renamed or re-mapped
  # to another simulated design unnoticed.
  native_grid() {
    awk -F'|' '/^\| kernel +\| pair /{on=1; next}
               on && !/^\|/ {exit}
               on && !/^\|-/ {gsub(/ /, ""); print $2 "|" $3 "|" $4 "|" $5}' "$1"
  }
  NATIVE_GRID="dekker|all-heavy|S+|10000
dekker|asymmetric|W+|10000
dekker|seqcst|S+|10000
wsq|all-heavy|S+|20000
wsq|asymmetric|W+|20000
wsq|seqcst|S+|20000
ustm-counter|all-heavy|S+|5000
ustm-counter|asymmetric|W+|5000
ustm-counter|seqcst|S+|5000
ustm-read|all-heavy|S+|2666
ustm-read|asymmetric|W+|2666
ustm-read|seqcst|S+|2666"
  for out in "$NATIVE/stdout.txt" "$NATIVE/fallback.txt"; do
    diff -u <(echo "$NATIVE_GRID") <(native_grid "$out")
  done
fi

echo "== explorer smoke sweep =="
# Known-bad must be caught (exit 1 from the sweep is the expected result)...
if cargo run -q --release --offline -p asymfence-explore --bin explore -- \
    --scenario sb-unfenced --design S+ --seeds 64; then
  echo "FATAL: unfenced store-buffering passed the sweep" >&2
  exit 1
fi
# ...and known-good must sweep clean under every design (with the
# parallel seed sweep exercised).
cargo run -q --release --offline -p asymfence-explore --bin explore -- \
  --scenario sb-fenced --design all --seeds 256 --jobs 2
cargo run -q --release --offline -p asymfence-explore --bin explore -- \
  --scenario 3cycle --design all --seeds 64

echo "== perfbench builds (offline) =="
# The benchmark is a Cargo package of its own that links the workspace
# crates by path; neither the workspace build nor its tests compile it,
# so a workspace API change that breaks it would otherwise go unseen.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "== perfbench tests (offline) =="
# Its expected.txt digests pin every simulated result of figures, sweep
# and search, so a change that moves any simulated counter fails here.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "CI OK"
