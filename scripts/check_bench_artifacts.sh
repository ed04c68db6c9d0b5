#!/usr/bin/env bash
# Validates the committed BENCH_*.json artifacts with
# scripts/check_metrics_schema.py, using the same flags the CI bench jobs
# apply to freshly generated files, so a committed artifact can never
# fail a check its regenerated twin would pass.
#
# Usage: scripts/check_bench_artifacts.sh [REPO_ROOT]   (default: .)
set -euo pipefail

ROOT="${1:-.}"
CHECK="$ROOT/scripts/check_metrics_schema.py"

python3 "$CHECK" "$ROOT/BENCH_service.json"
python3 "$CHECK" "$ROOT/BENCH_estimator.json"
python3 "$CHECK" "$ROOT/BENCH_net.json" \
  --require-counter 'cluster.*' \
  --require-counter cluster.batches.routed
