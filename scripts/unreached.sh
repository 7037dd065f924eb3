#!/usr/bin/env bash
# Unreached-library-code ratchet.
#
# Builds every entry point (the bench/ binaries, the examples/ binaries,
# spinelessd, and perfbench) at -O0 with -ffunction-sections and links them
# with --gc-sections, so a library function survives in a binary only when
# something the binary runs calls it. The library set is every global
# (T/W) spineless:: function defined in the src/ archives; template
# instantiations of std:: and __gnu_cxx:: code are skipped. A library
# function found in no entry point is "unreached". The run fails when an
# unreached function is not listed in scripts/unreached_allow.txt, when an
# allowlist entry carries no reason, and when an entry is stale (its
# function is reached again or no longer exists), so the list can only
# shrink. The whole unreached set is printed first, allowlisted or not.
#
# Allowlist format: one function per line, its demangled name exactly as
# `nm -C` prints it, then " # ", then why it stays (a test oracle or an
# observation hook). Blank lines and lines starting with '#' are ignored.
#
#   scripts/unreached.sh    # builds into build-unreached*/, then checks
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C

if [ "$#" -ne 0 ]; then
  echo "usage: scripts/unreached.sh" >&2
  exit 2
fi
ALLOW=scripts/unreached_allow.txt

LIB_DIR=build-unreached
PB_DIR=build-unreached-perfbench
JOBS=$(nproc 2>/dev/null || echo 2)
FLAGS=(-G Ninja -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0
       "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

targets=(spinelessd)
for f in bench/bench_*.cc; do targets+=("$(basename "$f" .cc)"); done
for f in examples/*.cpp; do targets+=("$(basename "$f" .cpp)"); done

cmake -S . -B "$LIB_DIR" "${FLAGS[@]}" -DSPINELESS_WERROR=OFF >/dev/null
cmake --build "$LIB_DIR" -j "$JOBS" --target "${targets[@]}" >/dev/null
cmake -S perfbench -B "$PB_DIR" "${FLAGS[@]}" >/dev/null
cmake --build "$PB_DIR" -j "$JOBS" --target perfbench >/dev/null

bins=("$PB_DIR/perfbench" "$LIB_DIR/tools/spinelessd/spinelessd")
for t in "${targets[@]}"; do
  [ "$t" = spinelessd ] && continue
  if [ -x "$LIB_DIR/bench/$t" ]; then
    bins+=("$LIB_DIR/bench/$t")
  else
    bins+=("$LIB_DIR/examples/$t")
  fi
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Defined global functions, mangled, one per line.
functions() {
  nm --defined-only "$@" 2>/dev/null | sed -nE 's/^[0-9a-f]+ [TW] //p'
}
# Mangled names rooted in std:: (St, or the Sa/Sb/Ss/Si/So/Sd shorthands)
# or __gnu_cxx::, bare or nested (_ZN plus cv/ref qualifiers).
STD_ROOT='^_Z(N[rVK]*[RO]?)?(S[tabsiod]|9__gnu_cxx)'

functions $(find "$LIB_DIR/src" -name 'libspineless_*.a' | sort) |
  grep '9spineless' | grep -vE "$STD_ROOT" | sort -u >"$tmp/lib"
functions "${bins[@]}" | sort -u >"$tmp/reached"
comm -23 "$tmp/lib" "$tmp/reached" | c++filt | sort -u >"$tmp/unreached"

echo "unreached: $(wc -l <"$tmp/unreached") of $(wc -l <"$tmp/lib") library" \
     "functions in ${#bins[@]} entry points"
sed 's/^/  /' "$tmp/unreached"

status=0
grep -vE '^[[:space:]]*(#|$)' "$ALLOW" >"$tmp/entries" || true
if grep -v ' # ..*' "$tmp/entries" >"$tmp/bare"; then
  echo "FAIL: allowlist entries without a reason (\"<function> # <why>\"):"
  sed 's/^/  /' "$tmp/bare"
  status=1
fi
sed 's/ # .*//' "$tmp/entries" | sort -u >"$tmp/allowed"

if comm -23 "$tmp/unreached" "$tmp/allowed" >"$tmp/new" && [ -s "$tmp/new" ]; then
  echo "FAIL: library functions no entry point reaches (delete them, or" \
       "allowlist a test oracle in $ALLOW with its reason):"
  sed 's/^/  /' "$tmp/new"
  status=1
fi
if comm -13 "$tmp/unreached" "$tmp/allowed" >"$tmp/stale" && [ -s "$tmp/stale" ]; then
  echo "FAIL: stale allowlist entries (reached again, renamed or deleted):"
  sed 's/^/  /' "$tmp/stale"
  status=1
fi
[ "$status" = 0 ] && echo "unreached: every unreached function is allowlisted"
exit "$status"
