#!/usr/bin/env bash
# Regenerates ci/baseline-bpred.json — the golden predictor × engine
# trajectory the CI "Predictor-matrix smoke + MPKI baseline gate"
# compares every push against.
#
# When to run this: only after an *intentional* predictor or pipeline
# change (new predictor tables, a training fix that legitimately moves
# MPKI, an engine feature that moves IPC or the grant rate). The oracle
# rows in the regenerated file must still show zero mispredictions and
# the alwayswrong rows a saturated stream — if they don't, the change
# broke the feed contract; fix that instead of committing the file.
# Never regenerate to silence a gate failure you can't explain.
#
# The grid is deterministic (fixed root seed, work-stealing order
# independent — see crates/bench/tests/determinism.rs), so the output is
# byte-stable across machines and --jobs settings; a regeneration with
# no functional changes produces no diff.
#
# Usage: ci/regen-baseline-bpred.sh      (from anywhere in the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run --release --offline -p mssr-bench --bin mssr -- bpred \
    --scale test --json > ci/baseline-bpred.json

# Sanity: the gate must pass against the file it just produced, and the
# oracle asymptote must hold (zero mispredictions in every oracle cell).
cargo run --release --offline -p mssr-bench --bin mssr-report -- \
    ci/baseline-bpred.json --baseline ci/baseline-bpred.json --threshold 5 > /dev/null
if grep '"bpred":"oracle"' ci/baseline-bpred.json | grep -qv '"mispredictions":0,'; then
    echo "oracle cells mispredict — feed contract broken" >&2
    exit 1
fi

echo "ci/baseline-bpred.json regenerated:"
git diff --stat -- ci/baseline-bpred.json
