#!/usr/bin/env bash
# Line coverage of src/**/*.cpp under the non-scale test suite, with a
# ratchet: exits nonzero if the total falls below tools/coverage_floor.
#
#   tools/coverage.sh [build-dir]      (default: build-cov)
#
# Builds Debug with --coverage, runs `ctest -LE scale`, then reads gcov's
# line counts for every library object and prints executed/total lines
# per source file and in total. Header lines are not counted. Death-test
# children exit without writing counters, so MAD2_CHECK abort paths read
# as uncovered. Raise the floor when coverage rises; never lower it.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-cov}"
floor="$(cat "$repo/tools/coverage_floor")"

cmake -S "$repo" -B "$build" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage >/dev/null
cmake --build "$build" -j"$(nproc)" >/dev/null
find "$build" -name '*.gcda' -delete
ctest --test-dir "$build" -LE scale -j"$(nproc)" --output-on-failure >/dev/null

find "$build/src" -name '*.gcda' -print0 | sort -z |
  xargs -0 -n 1 gcov --stdout --json-format 2>/dev/null |
  python3 -c '
import json, os, sys
src = os.path.join(sys.argv[1], "src") + os.sep
floor = float(sys.argv[2])
lines = {}
for doc in sys.stdin:
    for f in json.loads(doc)["files"]:
        path = os.path.normpath(f["file"])
        if not (path.startswith(src) and path.endswith(".cpp")):
            continue
        seen = lines.setdefault(path[len(src):], {})
        for line in f["lines"]:
            n = line["line_number"]
            seen[n] = seen.get(n, 0) + line["count"]
hit = total = 0
for name in sorted(lines):
    counts = lines[name].values()
    h = sum(1 for c in counts if c > 0)
    hit += h
    total += len(counts)
    print(f"{name:40} {h:6}/{len(counts):<6} {100.0 * h / len(counts):5.1f} %")
pct = 100.0 * hit / total
label = "total"
print(f"{label:40} {hit:6}/{total:<6} {pct:5.1f} %")
if pct < floor:
    print(f"coverage {pct:.1f} % is below the floor {floor} %")
    sys.exit(1)
' "$repo" "$floor"
