#!/usr/bin/env bash
# Regenerates ci/baseline-table1.json — the golden Table 1 trajectory the
# CI "Report regression gate" compares every push against.
#
# When to run this: only after an *intentional* performance change (a new
# engine feature, a pipeline fix that legitimately moves IPC or the
# reuse-grant rate). The regenerated file is a reviewable diff: every
# changed cycles/IPC number in it is a claim the PR should be able to
# defend. Never regenerate to silence a gate failure you can't explain.
#
# The grid is deterministic (fixed root seed, work-stealing order
# independent — see tests/determinism.rs), so the output is byte-stable
# across machines and --jobs settings; a regeneration with no functional
# changes produces no diff.
#
# Usage: ci/regen-baseline.sh            (from anywhere in the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run --release --offline -p mssr-bench --bin mssr -- table1 \
    --scale test --json > ci/baseline-table1.json

# Sanity: the gate must pass against the file it just produced, and the
# checkpoint-warmed variant (the CI fast-forward gate) must stay within
# the same threshold. Catches a broken regeneration before it lands.
cargo run --release --offline -p mssr-bench --bin mssr-report -- \
    ci/baseline-table1.json --baseline ci/baseline-table1.json --threshold 5 > /dev/null

echo "ci/baseline-table1.json regenerated:"
git diff --stat -- ci/baseline-table1.json
