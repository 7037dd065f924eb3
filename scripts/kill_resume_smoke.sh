#!/usr/bin/env bash
# SIGKILL-mid-run recovery smoke test.
#
# Runs a small bench_fig6_scale sweep and a small bench_hybrid sweep three
# ways each:
#   1. clean, uninterrupted;
#   2. with --resume, SIGKILLed as soon as its sweep journal holds at least
#      one cell record (the file is polled), leaving the journal and any
#      per-cell checkpoints behind;
#   3. rerun with --resume, which must complete from the relics.
# The resumed BENCH JSON must equal the clean one modulo wall-clock timing
# fields (wall_s, total_wall_s, events_per_sec, table_build_s), and the
# stdout tables must be identical modulo timing columns (headed "(s)").
#
# Usage: kill_resume_smoke.sh <bench_fig6_scale> <bench_hybrid> <work dir>
set -u

FIG6=$(realpath "$1")
HYBRID=$(realpath "$2")
DIR="$3"

rm -rf "$DIR"
mkdir -p "$DIR"
cd "$DIR" || exit 1

# smoke <name> <binary> <args...>
smoke() {
  local name="$1" bench="$2"
  shift 2
  mkdir -p "$name/clean" "$name/kill"

  echo "== $name: clean run =="
  (cd "$name/clean" && "$bench" "$@" --json_out=out.json >stdout.txt \
     2>stderr.txt) \
    || { echo "FAIL: $name clean run exited non-zero"; return 1; }

  echo "== $name: killed run =="
  (cd "$name/kill" && exec "$bench" "$@" --json_out=out.json --resume \
     >/dev/null 2>&1) &
  local pid=$! journal="$name/kill/out.json.sweep.journal" records=0
  # Header line + one record = two complete lines.
  while kill -0 "$pid" 2>/dev/null; do
    [ -f "$journal" ] && records=$(wc -l < "$journal")
    [ "$records" -ge 2 ] && break
    sleep 0.01
  done
  kill -9 "$pid" 2>/dev/null
  wait "$pid" 2>/dev/null
  if [ "$records" -lt 2 ]; then
    echo "FAIL: $name finished before its journal held a cell record"
    return 1
  fi
  echo "killed with $((records - 1)) journaled cell(s)"

  echo "== $name: resumed run =="
  (cd "$name/kill" && "$bench" "$@" --json_out=out.json --resume \
     >stdout.txt 2>stderr.txt) \
    || { echo "FAIL: $name resumed run exited non-zero"; return 1; }

  # Recovery artifacts must be cleaned up after a completed sweep.
  if ls "$name"/kill/out.json.sweep.journal* >/dev/null 2>&1; then
    echo "FAIL: $name left its journal/checkpoints behind"
    return 1
  fi

  python3 - "$name" <<'EOF'
import json, re, sys

name = sys.argv[1]
STRIP = {"wall_s", "total_wall_s", "events_per_sec", "table_build_s"}

def bench_json(run):
    with open(f"{name}/{run}/out.json") as f:
        d = json.load(f)
    d.pop("total_wall_s", None)
    for cell in d["cells"]:
        for k in STRIP & cell.keys():
            del cell[k]
    return d

def table(run):
    # Columns are separated by two or more spaces; drop the timing ones.
    lines, timing = [], set()
    with open(f"{name}/{run}/stdout.txt") as f:
        for line in f:
            cols = re.split(r"\s{2,}", line.strip())
            if any("(s)" in c for c in cols):
                timing = {i for i, c in enumerate(cols) if "(s)" in c}
            if len(cols) > 1 and timing:
                cols = [c for i, c in enumerate(cols) if i not in timing]
            lines.append(cols)
    return lines

ok = True
if bench_json("clean") != bench_json("kill"):
    print(f"FAIL: {name} resumed BENCH JSON differs from the clean run")
    ok = False
if table("clean") != table("kill"):
    print(f"FAIL: {name} resumed stdout table differs from the clean run")
    ok = False
if not ok:
    sys.exit(1)
print(f"PASS: {name} resumed run identical to clean run "
      "(BENCH JSON modulo timing fields, stdout modulo timing columns)")
EOF
}

rc=0
smoke fig6 "$FIG6" --m_lo=5 --m_hi=6 --window_ms=1 --jobs=1 || rc=1
smoke hybrid "$HYBRID" --m=12 --hot_flows=64 --bg_flows=32 --jobs=1 || rc=1
exit "$rc"
