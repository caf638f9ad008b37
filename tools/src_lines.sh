#!/usr/bin/env bash
# Prints the line count of everything under src/, the size figure
# ROADMAP.md and CHANGES.md quote. CI fails the release job when it
# exceeds tools/src_lines_ceiling; a change may lower the ceiling, and
# one that raises it says why in CHANGES.md.
#
#   tools/src_lines.sh
set -euo pipefail

cd "$(dirname "$0")/.."
find src -type f | xargs cat | wc -l
