#!/usr/bin/env bash
# One-shot CI gate: configure + build (warnings are errors), static
# analysis (ctest -L lint, with the machine-readable findings written to
# lint_findings.json for CI to consume), then the full tier-1 test suite.
#
#   scripts/check.sh              # the whole gate
#   scripts/check.sh --no-werror  # triage mode for new toolchains
#
# Exits non-zero on the first failing stage. The lint stage runs before
# the (much slower) test suite so a determinism hazard fails in seconds.
set -euo pipefail
cd "$(dirname "$0")/.."

WERROR=ON
for arg in "$@"; do
  case "$arg" in
    --no-werror)
      WERROR=OFF
      ;;
    *)
      echo "usage: scripts/check.sh [--no-werror]" >&2
      exit 2
      ;;
  esac
done

echo "== configure + build (SPINELESS_WERROR=$WERROR) =="
cmake -B build -G Ninja -DSPINELESS_WERROR="$WERROR"
cmake --build build

echo "== static checks (spineless_lint) =="
# The JSON artifacts (findings + cross-TU symbol index) are written even
# when the run is clean, so CI always has a machine-readable record; the
# exit code is the gate. --baseline makes the gate a ratchet: any finding
# not explicitly accepted in tools/lint/lint_baseline.txt (shipped empty)
# fails the run.
./build/tools/lint/spineless_lint --root=. --json=lint_findings.json \
  --index-dump=build/lint_index.json \
  --baseline=tools/lint/lint_baseline.txt
ctest --test-dir build -L lint --output-on-failure

echo "== unreached library code =="
# Every src/ function that no bench, example, spinelessd or perfbench
# binary reaches must be an allowlisted test oracle, with its reason, in
# scripts/unreached_allow.txt (-O0 builds in build-unreached*/).
bash scripts/unreached.sh

echo "== perf smoke (reactor-engine overhead) =="
# The sharded reactor engine must stay within 10% of the serial engine on
# one core at intra_jobs=2 (the ROADMAP steady-state target is 5%; the
# gate leaves headroom for shared-CI noise). Both runs report the best of
# three timed passes, so a single descheduling blip does not fail CI.
./build/bench/bench_micro --json=perf_smoke_serial.json
./build/bench/bench_micro --intra_jobs=2 --json=perf_smoke_intra2.json
python3 - perf_smoke_serial.json perf_smoke_intra2.json <<'EOF'
import json, sys
s, p = (json.load(open(path)).get("events_per_sec", 0) for path in sys.argv[1:])
if s <= 0 or p <= 0:
    sys.exit("perf smoke: missing events_per_sec")
overhead = (s - p) / s * 100
print("serial %.2fM events/s, intra_jobs=2 %.2fM events/s, overhead %.1f%%"
      % (s / 1e6, p / 1e6, overhead))
if overhead > 10.0:
    sys.exit("perf smoke: 1-core overhead above 10% gate")
EOF

echo "== hybrid smoke (packet/fluid co-simulation) =="
# A small hybrid cell (48-switch DRing): the binary itself asserts the
# result hash is byte-identical across intra_jobs={1,2} (exits nonzero on
# divergence); on top of that the smoke requires genuinely hybrid
# execution — nonzero packet events AND nonzero fluid windows/solves in
# every scale cell, so a regression that silently degenerates one half to
# a no-op cannot pass.
./build/bench/bench_hybrid --m=12 --hot_flows=64 --bg_flows=32 \
  --json_out=hybrid_smoke.json
python3 - hybrid_smoke.json <<'EOF'
import json, sys
cells = json.load(open(sys.argv[1]))["cells"]
hybrid = [c["hybrid"] for c in cells if "hybrid" in c]
for ok, what in [
    (any(h["result_hash"] != 0 for h in hybrid), "no nonzero result_hash"),
    (any(c["events"] > 0 for c in cells), "zero packet events"),
    (any(h["fluid_windows"] > 0 for h in hybrid), "zero fluid windows"),
    (any(h["fluid_solves"] > 0 for h in hybrid), "zero fluid solves"),
]:
    if not ok:
        sys.exit("hybrid smoke: " + what)
print("hybrid smoke: determinism hash ok, packet + fluid halves live")
EOF

echo "== hybrid-fault smoke (whole-network fault tolerance) =="
# Flap a seed-sampled set of whole-graph links (region, cut, and external
# alike) under long-lived flows on a 48-switch cell. The binary gates
# flow accounting (completed + stalled == flows), nonzero blackhole, and
# result-hash identity across intra_jobs; the smoke additionally requires
# that the fluid half actually saw outages in every cell AND that
# post-repair goodput recovered to >= 95% of the pre-fault peak — a
# regression that strands flows after reconvergence cannot pass.
./build/bench/bench_hybrid --faults --m=12 --m_big=12 --hot_flows=32 \
  --bg_flows=16 --flow_bytes=2000000 --flap_ms=1 \
  --json_out=hybrid_fault_smoke.json
python3 - hybrid_fault_smoke.json <<'EOF'
import json, sys
cells = [c["fault_tolerance"] for c in json.load(open(sys.argv[1]))["cells"]
         if "fault_tolerance" in c]
if not cells:
    sys.exit("hybrid-fault smoke: no fault cells")
if any(c["fluid_outages"] <= 0 for c in cells):
    sys.exit("hybrid-fault smoke: a cell saw no fluid outage")
if any(c["goodput_recovery"] < 0.95 for c in cells):
    sys.exit("hybrid-fault smoke: goodput recovery below 95%")
print("hybrid-fault smoke: %d cells, fluid outages live, recovery >= 95%%"
      % len(cells))
EOF

echo "== serving smoke (spinelessd) =="
# The full robustness ladder at process level: SIGTERM graceful drain with
# an in-flight request, then kill -9 -> restart -> replay byte-identity
# against the persisted warm snapshot (scripts/service_drain_smoke.sh).
bash scripts/service_drain_smoke.sh ./build/tools/spinelessd/spinelessd \
  check_service_smoke
# Overload behavior over the socket: a 1-worker, 2-deep daemon hit by 12
# concurrent clients (valid, invalid, and repeated bodies — the built-in
# --connect client is deliberately lockstep, so concurrency comes from
# parallel clients) must answer every line — some `ok`, at least one
# explicit `overloaded`, the bad request as `error` — and drain cleanly
# afterwards. No crash, no hang, no silence.
SOCK=check_service_smoke/overload.sock
./build/tools/spinelessd/spinelessd --socket="$SOCK" --workers=1 \
  --queue_limit=2 > check_service_smoke/overload.out 2>&1 &
DPID=$!
for _ in $(seq 1 100); do
  grep -q '^spinelessd: ready' check_service_smoke/overload.out && break
  sleep 0.1
done
CPIDS=()
for i in $(seq 1 11); do
  printf '{"id":%d,"kind":"whatif_tm","tm":"skewed","seed_salt":%d}\n' \
    "$i" "$((i % 3))" |
    ./build/tools/spinelessd/spinelessd --connect="$SOCK" \
      > "check_service_smoke/overload_c$i.txt" &
  CPIDS+=($!)
done
printf '{"id":12,"kind":"whatif_fault"}\n' |
  ./build/tools/spinelessd/spinelessd --connect="$SOCK" \
    > check_service_smoke/overload_c12.txt &
CPIDS+=($!)
for pid in "${CPIDS[@]}"; do wait "$pid"; done
kill -TERM "$DPID" && wait "$DPID"
cat check_service_smoke/overload_c*.txt \
  > check_service_smoke/overload_answers.txt
awk '
  /"status":"ok"/         { ok++ }
  /"status":"overloaded"/ { shed++ }
  /"status":"error"/      { err++ }
  END {
    printf "serving smoke: %d ok, %d overloaded, %d error\n", ok, shed, err
    if (ok + shed + err != 12) { print "serving smoke: missing answers"; exit 1 }
    if (ok < 1)   { print "serving smoke: no ok answers"; exit 1 }
    if (shed < 1) { print "serving smoke: overload never shed"; exit 1 }
    if (err != 1) { print "serving smoke: bad request not an error"; exit 1 }
  }' check_service_smoke/overload_answers.txt

echo "== tier-1 test suite =="
ctest --test-dir build --output-on-failure

echo "check.sh: all gates green (findings: lint_findings.json)"
