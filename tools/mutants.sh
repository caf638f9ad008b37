#!/usr/bin/env bash
# Mutation check: every patch in tests/mutants/ plants a known bug, and the
# tests it names must catch it.
#
#   tools/mutants.sh [build-type]      (default: Release)
#
# The tracked and untracked-but-not-ignored files that exist in the working
# tree are copied to a scratch directory, so the checkout itself is never
# modified. There the named test binary is built and run once on the clean
# tree (it must pass), then once per patch with the patch applied (it must
# fail). Exits nonzero if a clean run fails or a mutant survives.
#
# A patch file starts with three header lines before its diff:
#   Mutant: <what the bug is>
#   Target: <test binaries, targets in tests/CMakeLists.txt, space-separated>
#   Kills: <gtest filter naming the tests that must fail>
# With several targets the filter runs in each of them, and each run must
# fail: the filter names at least one killing test in every binary.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build_type="${1:-Release}"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# A tracked file deleted in the working tree but not staged is still
# listed by ls-files -c; leave it out (ls-files -d) or tar cannot stat it.
(cd "$repo" && export LC_ALL=C &&
   comm -z -23 <(git ls-files -co --exclude-standard -z | sort -z) \
               <(git ls-files -d -z | sort -z) |
   tar --null -T - -cf -) | tar -xf - -C "$work"
cmake -S "$work" -B "$work/build" -DCMAKE_BUILD_TYPE="$build_type" >/dev/null

header() { sed -n "s/^$1: //p" "$2" | head -n 1; }

run_target() {  # run_target <target> <filter>; returns the test's status
  cmake --build "$work/build" -j"$(nproc)" --target "$1" >/dev/null
  "$work/build/tests/$1" --gtest_filter="$2" >"$work/last.log" 2>&1
}

failed=0
for patch in "$repo"/tests/mutants/*.patch; do
  name="$(basename "$patch" .patch)"
  read -r -a targets <<<"$(header Target "$patch")"
  filter="$(header Kills "$patch")"
  clean=1
  for target in "${targets[@]}"; do
    if ! run_target "$target" "$filter"; then
      echo "FAIL  $name: the clean tree already fails $filter in $target"
      tail -n 20 "$work/last.log"
      clean=0
    fi
  done
  if [ "$clean" = 0 ]; then
    failed=1
    continue
  fi
  git -C "$work" apply "$patch"
  survived=()
  for target in "${targets[@]}"; do
    if run_target "$target" "$filter"; then survived+=("$target"); fi
  done
  if [ "${#survived[@]}" -gt 0 ]; then
    echo "FAIL  $name survived in ${survived[*]}: $(header Mutant "$patch")"
    failed=1
  else
    echo "ok    $name killed by $filter"
  fi
  git -C "$work" apply -R "$patch"
done
exit "$failed"
