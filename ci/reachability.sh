#!/usr/bin/env bash
# Lists the deisa:: text symbols that the src/ libraries define but that no
# production binary links: code only the tests and benches reach.
#
#   ci/reachability.sh [BUILD_DIR]        (default: build-reachability)
#
# It configures a Release build with -ffunction-sections -fdata-sections
# and links with -Wl,--gc-sections, so a binary keeps only the functions
# it can reach. The production binaries are deisa_scenario, deisa_trace,
# the five examples, and deisa_perfbench built standalone from perfbench/.
# The listing is the demangled text symbols of the src/ archives minus
# those linked into any of them, one per line on stdout; the count goes
# to stderr. Some lines are inlining artifacts (a function inlined into
# every caller has no symbol of its own), so check each before deleting.
# The script does not fail on a non-empty listing.
set -euo pipefail
export LC_ALL=C

root=$(cd "$(dirname "$0")/.." && pwd)
out=$(realpath -m "${1:-$root/build-reachability}")
jobs=${JOBS:-4}
flags=(-DCMAKE_BUILD_TYPE=Release
       "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
tools=(deisa_scenario deisa_trace)
examples=(quickstart heat2d_insitu posthoc_pca contracts_filtering digital_twin)

cmake -S "$root" -B "$out/main" "${flags[@]}" >&2
cmake --build "$out/main" -j "$jobs" --target "${tools[@]}" "${examples[@]}" >&2
cmake -S "$root/perfbench" -B "$out/perfbench" "${flags[@]}" >&2
cmake --build "$out/perfbench" -j "$jobs" --target deisa_perfbench >&2

# Demangled names of defined text symbols (global, local and weak), with
# the compiler's [clone .cold] / coroutine [clone .actor] parts folded
# into the function they belong to.
text_symbols() {
  nm -C --defined-only "$@" 2>/dev/null |
    awk '$2 ~ /^[TtWw]$/ { $1 = ""; $2 = ""; sub(/^  /, ""); print }' |
    sed -E 's/( \[clone [^]]*\])+$//' | grep '^deisa::' | sort -u
}

binaries=("$out/perfbench/deisa_perfbench" "${tools[@]/#/$out/main/tools/}"
          "${examples[@]/#/$out/main/examples/}")
for b in "${binaries[@]}"; do
  [[ -x $b ]] || { echo "missing binary: $b" >&2; exit 1; }
done
mapfile -t archives < <(find "$out/main/src" -name '*.a' | sort)

comm -23 <(text_symbols "${archives[@]}") <(text_symbols "${binaries[@]}") |
  tee "$out/unreachable.txt"
echo "${#archives[@]} archives, ${#binaries[@]} binaries:" \
     "$(wc -l < "$out/unreachable.txt") deisa:: symbols linked by none" >&2
