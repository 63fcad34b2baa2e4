#!/usr/bin/env bash
# Result-store end-to-end check, the store-smoke CI job. The store is
# the only way a campaign survives a kill, so this is also the
# kill-tolerance check:
#
#   1. zero-resimulation fast path — a campaign run cold into a store
#      and rerun warm must serve every trial from disk (0 simulated)
#      with a tally bit-identical to a storeless reference run;
#   2. kill and resume — an unsharded store campaign is SIGKILLed
#      after banking its first chunk; rerunning the same command on a
#      copy of the store at --jobs 1 and at --jobs 4 serves the banked
#      chunks (nonzero served trials), simulates the rest, and
#      reproduces the reference tally bit-for-bit;
#   3. early-stopped cells — a cold --ci-halfwidth store run has the
#      tally of a storeless --ci-halfwidth run, a warm rerun simulates
#      nothing, audit agrees with the banked cell (stopping point
#      included), and a kill-and-resume reproduces it at --jobs 1 and 4;
#   4. crash-tolerant sharding — a shard worker is SIGKILLed
#      mid-flight after banking its first partial chunk; re-running the
#      killed shard serves the banked chunks (nonzero served trials),
#      simulates only the rest, completes the cell, and the merged
#      tally matches the uninterrupted reference bit-for-bit;
#   5. store hygiene — `casted store audit` re-simulates the killed
#      shard worker's partial entry and agrees with it, `casted store
#      gc` sweeps the worker's debris, and audit agrees with a banked
#      full entry;
#   6. worker queue drill — `casted work --enqueue` fills a matrix,
#      a second drain of the same queue simulates nothing.
#
# Knobs:
#   CASTED_BIN  path to the casted binary
#               (default _build/default/bin/casted.exe)
#   TRIALS      campaign length (default 24000; must be long enough
#               that each kill lands before its campaign finishes)
#   MODEL       fault model to campaign under (default reg-bit)
set -euo pipefail

BIN=${CASTED_BIN:-_build/default/bin/casted.exe}
TRIALS=${TRIALS:-24000}
MODEL=${MODEL:-reg-bit}
# Early-stop target of step 3, in percentage points: the campaign must
# stop before TRIALS.
HALFWIDTH=0.5
ARGS=(campaign -w cjpeg -s casted --issue 2 --delay 2
      --trials "$TRIALS" --fault-model "$MODEL")

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# Only the tally lines are comparable across runs: the jobs count, the
# store summary and the replay statistics (absent when nothing was
# simulated) legitimately differ.
tally() { grep -E '^[0-9]+ trials |^recovered:' "$1"; }

must_match() { # reference-tally actual-out label
  tally "$2" > "$2.tally"
  if ! diff -u "$1" "$2.tally"; then
    echo "store_check: $3 tally differs from the reference" >&2
    exit 1
  fi
}

must_serve() { # out served simulated label
  if ! grep -q "$2 trials served, $3 simulated" "$1"; then
    echo "store_check: $4: expected '$2 trials served, $3 simulated'" >&2
    cat "$1" >&2
    exit 1
  fi
}

echo "== reference: uninterrupted, storeless campaign"
"$BIN" "${ARGS[@]}" --jobs 2 > "$workdir/reference.out"
tally "$workdir/reference.out" > "$workdir/reference.tally"

store="$workdir/store"
echo "== cold fill into $store"
"$BIN" "${ARGS[@]}" --jobs 2 --store "$store" > "$workdir/cold.out"
must_serve "$workdir/cold.out" 0 "$TRIALS" "cold fill"
must_match "$workdir/reference.tally" "$workdir/cold.out" "cold fill"

echo "== warm rerun must simulate zero trials"
"$BIN" "${ARGS[@]}" --jobs 4 --store "$store" > "$workdir/warm.out"
must_serve "$workdir/warm.out" "$TRIALS" 0 "warm rerun"
must_match "$workdir/reference.tally" "$workdir/warm.out" "warm rerun"

# Start a store campaign at --jobs 1, SIGKILL it once its first chunk
# is banked, then rerun it on a copy of the store at --jobs 1 and 4:
# each resume must serve the banked chunks, simulate the rest, and
# reproduce the reference tally.
kill_and_resume() { # label reference-tally extra-campaign-args...
  local label=$1 ref=$2
  shift 2
  local st="$workdir/kill.$label"
  "$BIN" "${ARGS[@]}" "$@" --jobs 1 --store "$st" \
    > "$workdir/kill.$label.out" 2>&1 &
  local pid=$!
  local banked=0
  # find fails until the campaign has created the store (pipefail).
  for _ in $(seq 1 2000); do
    banked=$(find "$st/entries" -name '*.entry' 2>/dev/null | wc -l || true)
    [ "$banked" -ge 1 ] && break
    sleep 0.01
  done
  kill -9 "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
  if [ "$banked" -lt 1 ]; then
    echo "store_check: $label: the campaign exited without banking a" >&2
    echo "             chunk — chunk banking is broken" >&2
    cat "$workdir/kill.$label.out" >&2
    exit 1
  fi
  for jobs in 1 4; do
    cp -r "$st" "$st.$jobs"
    local out="$workdir/kill.$label.resumed.$jobs.out"
    "$BIN" "${ARGS[@]}" "$@" --jobs "$jobs" --store "$st.$jobs" > "$out"
    local served simulated
    served=$(grep -oE '[0-9]+ trials served' "$out" | grep -oE '[0-9]+')
    simulated=$(grep -oE '[0-9]+ simulated' "$out" | grep -oE '[0-9]+')
    if [ "${served:-0}" -eq 0 ]; then
      echo "store_check: $label: resume at --jobs $jobs served zero" >&2
      echo "             trials — the banked chunks were not reused" >&2
      cat "$out" >&2
      exit 1
    fi
    if [ "${simulated:-0}" -eq 0 ]; then
      echo "store_check: $label: the campaign finished before the kill;" >&2
      echo "             raise TRIALS" >&2
      exit 1
    fi
    echo "   $label resumed at --jobs $jobs: $served served, $simulated simulated"
    must_match "$ref" "$out" "$label resume at --jobs $jobs"
  done
}

echo "== kill and resume: an unsharded store campaign"
kill_and_resume plain "$workdir/reference.tally"

echo "== early-stopped cells: --ci-halfwidth $HALFWIDTH"
"$BIN" "${ARGS[@]}" --ci-halfwidth "$HALFWIDTH" --jobs 2 > "$workdir/ci.ref.out"
if ! grep -q "stopped early" "$workdir/ci.ref.out"; then
  echo "store_check: --ci-halfwidth $HALFWIDTH did not stop before" >&2
  echo "             $TRIALS trials; raise TRIALS" >&2
  exit 1
fi
tally "$workdir/ci.ref.out" > "$workdir/ci.ref.tally"
ci_trials=$(grep -oE '^[0-9]+ trials' "$workdir/ci.ref.out" | grep -oE '[0-9]+')
cistore="$workdir/cistore"
"$BIN" "${ARGS[@]}" --ci-halfwidth "$HALFWIDTH" --jobs 2 --store "$cistore" \
  > "$workdir/ci.cold.out"
must_serve "$workdir/ci.cold.out" 0 "$ci_trials" "early-stop cold fill"
must_match "$workdir/ci.ref.tally" "$workdir/ci.cold.out" "early-stop cold fill"
"$BIN" "${ARGS[@]}" --ci-halfwidth "$HALFWIDTH" --jobs 4 --store "$cistore" \
  > "$workdir/ci.warm.out"
must_serve "$workdir/ci.warm.out" "$ci_trials" 0 "early-stop warm rerun"
must_match "$workdir/ci.ref.tally" "$workdir/ci.warm.out" "early-stop warm rerun"
"$BIN" store audit "$cistore" --jobs 2
kill_and_resume ci "$workdir/ci.ref.tally" --ci-halfwidth "$HALFWIDTH"

echo "== shard drill: shard 0 SIGKILLed after banking a partial chunk"
store2="$workdir/store2"
"$BIN" "${ARGS[@]}" --jobs 1 --store "$store2" --shard 0/2 \
  > "$workdir/shard0.out" 2>&1 &
pid0=$!
# A shard worker banks its running tally after every finished owned
# 64-trial chunk. Poll for the first banked partial entry, then kill
# the worker mid-campaign.
banked=0
for _ in $(seq 1 400); do
  banked=$(find "$store2/entries" -name '*.entry' 2>/dev/null | wc -l || true)
  [ "$banked" -ge 1 ] && break
  sleep 0.05
done
kill -9 "$pid0" 2>/dev/null || true
wait "$pid0" 2>/dev/null || true
if [ "$banked" -lt 1 ]; then
  echo "store_check: shard 0 exited without banking a partial entry —" >&2
  echo "             partial-chunk banking is broken (or TRIALS too low)" >&2
  cat "$workdir/shard0.out" >&2
  exit 1
fi
echo "   killed shard 0 with its partial tally banked"

echo "== audit agrees with the killed worker's partial entry"
"$BIN" store audit "$store2" --jobs 2

echo "== the surviving shard completes its half"
"$BIN" "${ARGS[@]}" --jobs 1 --store "$store2" --shard 1/2 \
  > "$workdir/shard1.out"
if ! grep -q "other shards outstanding" "$workdir/shard1.out"; then
  echo "store_check: shard 1 merged against shard 0's partial entry" >&2
  cat "$workdir/shard1.out" >&2
  exit 1
fi

echo "== re-run the killed shard: serves banked chunks, completes, merges"
"$BIN" "${ARGS[@]}" --jobs 1 --store "$store2" --shard 0/2 \
  > "$workdir/shard0.resumed.out"
if grep -q "other shards outstanding" "$workdir/shard0.resumed.out"; then
  echo "store_check: resumed shard did not merge the cell" >&2
  cat "$workdir/shard0.resumed.out" >&2
  exit 1
fi
served=$(grep -oE '[0-9]+ trials served' "$workdir/shard0.resumed.out" \
  | grep -oE '[0-9]+' | head -1)
simulated=$(grep -oE '[0-9]+ simulated' "$workdir/shard0.resumed.out" \
  | grep -oE '[0-9]+' | head -1)
if [ "${served:-0}" -eq 0 ]; then
  echo "store_check: resumed shard served zero trials — the killed" >&2
  echo "             worker's banked chunks were not reused" >&2
  cat "$workdir/shard0.resumed.out" >&2
  exit 1
fi
if [ "${simulated:-0}" -eq 0 ]; then
  echo "store_check: resumed shard simulated nothing — shard 0 finished" >&2
  echo "             before the kill; raise TRIALS" >&2
  exit 1
fi
echo "   resumed shard served $served banked trials, simulated $simulated"
must_match "$workdir/reference.tally" "$workdir/shard0.resumed.out" \
  "resumed shard merge"

echo "== merged cell serves an unsharded rerun with zero simulation"
"$BIN" "${ARGS[@]}" --jobs 4 --store "$store2" > "$workdir/merged.out"
must_serve "$workdir/merged.out" "$TRIALS" 0 "merged rerun"
must_match "$workdir/reference.tally" "$workdir/merged.out" "merged rerun"

echo "== gc sweeps the killed worker's debris; audit re-simulates"
"$BIN" store gc "$store2"
"$BIN" store audit "$store" --sample 1 --jobs 2

echo "== worker queue drill: enqueue a matrix, drain it twice"
wstore="$workdir/wstore"
"$BIN" work --store "$wstore" --enqueue cjpeg h263dec --schemes casted,tmr \
  --trials 120 --jobs 2 > "$workdir/work1.out"
grep -q "enqueued 4 new units" "$workdir/work1.out"
grep -q "4 units run" "$workdir/work1.out"
"$BIN" work --store "$wstore" --jobs 2 > "$workdir/work2.out"
if ! grep -q "4 units run (480 trials served from the store, 0 simulated)" \
    "$workdir/work2.out"; then
  echo "store_check: second queue drain re-simulated banked cells" >&2
  cat "$workdir/work2.out" >&2
  exit 1
fi

echo "store_check: OK — warm store serves campaigns with zero simulation,"
echo "             killed campaigns (plain and early-stopped) resume"
echo "             bit-identically at any --jobs,"
echo "             and a SIGKILLed shard worker's banked chunks are reused"
echo "             on the way to the bit-identical merged tally"
