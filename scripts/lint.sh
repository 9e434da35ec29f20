#!/usr/bin/env bash
# Static-analysis gate for the determinism contract (DESIGN.md §9, §14).
#
#   scripts/lint.sh                # full gate: fairsfe-analyze + clang-tidy
#                                  #   (if installed)
#   scripts/lint.sh --self-test    # the fixture corpus only
#   scripts/lint.sh --changed-only # report findings only in files changed vs.
#                                  #   the merge-base (facts still span the tree)
#
# Exit status is non-zero on any finding. clang-tidy is optional tooling: when
# the binary is absent the stage is skipped with a notice (the fairsfe-analyze
# stage still gates), so the script works in minimal containers.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

if [[ "${1:-}" == "--self-test" ]]; then
  exec python3 scripts/fairsfe_analyze/__main__.py --self-test
fi

CHANGED_ONLY=()
if [[ "${1:-}" == "--changed-only" ]]; then
  CHANGED_ONLY=(--changed-only)
fi

# The analyzer's TU set (and clang-tidy's) comes from compile_commands.json;
# configure the lint preset if it has not been exported yet.
COMPILE_DB="build-lint/compile_commands.json"
if [[ ! -f "$COMPILE_DB" ]]; then
  echo "lint.sh: exporting $COMPILE_DB via 'cmake --preset lint'"
  cmake --preset lint >/dev/null
fi

echo "lint.sh: fairsfe-analyze self-test"
python3 scripts/fairsfe_analyze/__main__.py --self-test

echo "lint.sh: fairsfe-analyze (tree)"
python3 scripts/fairsfe_analyze/__main__.py --compile-commands "$COMPILE_DB" \
    "${CHANGED_ONLY[@]}"

if command -v clang-tidy >/dev/null 2>&1; then
  echo "lint.sh: clang-tidy"
  # Lint every TU the build knows about; .clang-tidy supplies the check set.
  mapfile -t TUS < <(python3 - "$COMPILE_DB" <<'PY'
import json, sys
for entry in json.load(open(sys.argv[1])):
    print(entry["file"])
PY
)
  clang-tidy -p build-lint --quiet "${TUS[@]}"
else
  echo "lint.sh: clang-tidy not installed — skipping (the fairsfe-analyze stage still gates)"
fi

echo "lint.sh: OK"
