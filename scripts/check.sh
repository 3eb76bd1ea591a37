#!/usr/bin/env bash
# Repo health check, nine gates:
#   1. lint: ruff check (config in pyproject.toml); skipped with a
#      note when ruff is not installed in the environment; plus two
#      greps: nothing under src/repro/spatial/ may name zipfile,
#      savez or np.load — the .rtif store is one blob per tile
#      (tests/data/golden_v1.rtif pins its bytes), not an npz archive;
#      and no file under src/ may import scipy at module level (an
#      unindented `import scipy` / `from scipy`) — only the synthetic
#      generators use it, through an import inside the function, so
#      stream, join and engine processes never load it
#   2. tier-1: the full test suite (what the roadmap pins)
#   3. fast lane: unit tests minus anything marked slow
#   4. traced lane: the training + trace suites again under a forced
#      REPRO_TRACE=1, so every Trainer.fit in those tests runs through
#      the tape record / guard / fallback / replay path (replay re-runs
#      the recorded eager ops) instead of the plain eager loop; with
#      them the array-pool demand suite, whose 20-step runs must keep
#      the same hits, misses and flat retained bytes when replayed, and
#      the tiled-conv and fused-kernel properties, so replayed steps run
#      through the image-tiled conv forward and the packed gate backward
#   5. pipeline smoke: benchmarks/pipeline/run.py --smoke runs the five
#      BENCHMARK.json workloads end to end at reduced size (~12 s),
#      each checked against its numpy oracle
#   6. paper runners: python -m repro.experiments.run all regenerates
#      every table and figure (Fig 8, Tables IV-VIII, Fig 9) at a
#      reduced scale (one seed, one epoch, 800 grid steps, 40 / 16
#      images; ~100 s on a 2-core host), so a runner that still reaches
#      deleted code fails here; it checks that they run, not what
#      they claim
#   7. bench smoke: benchmarks/run_quick.py runs to completion and
#      regenerates BENCH_engine.json (incl. per-operator breakdown)
#   8. bench diff: the fresh BENCH_engine.json must not regress the
#      watched keys (obs overhead, ConvLSTM epoch time,
#      peak activation bytes,
#      streaming update speedup + p99 latency) >25% vs the committed
#      one; stream_update_speedup must stay above an absolute 10x floor
#   9. join ablation: benchmarks/bench_ablation_join.py (~3 s) joins
#      20k points to 768 rectangles and 1 536 triangles with and
#      without the STR-tree — same kernel, different candidates — and
#      requires identical matches and brute force > 3x the indexed arm
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== lint: ruff check =="
if command -v ruff >/dev/null 2>&1; then
    ruff check src tests benchmarks scripts
elif python -c "import ruff" >/dev/null 2>&1; then
    python -m ruff check src tests benchmarks scripts
else
    echo "ruff not installed; skipping lint gate (pip install ruff to enable)"
fi
# (`set -e` does not act on a `!` pipeline, hence the explicit exit.)
! grep -rnE --include='*.py' "zipfile|savez|np\.load" src/repro/spatial/ || exit 1
! grep -rnE --include='*.py' "^(import|from)[[:space:]]+scipy" src/ || exit 1

echo "== tier-1: full suite =="
python -m pytest -x -q

echo "== fast lane: unit, not slow =="
python -m pytest tests/unit -q -m "not slow"

echo "== traced lane: forced REPRO_TRACE =="
REPRO_TRACE=1 python -m pytest -q \
    tests/unit/test_training.py \
    tests/unit/test_trace.py \
    tests/unit/test_pool_demand.py \
    tests/property/test_property_trace.py \
    tests/property/test_property_conv_tiles.py \
    tests/property/test_property_fused.py

echo "== pipeline smoke: five workloads end to end =="
python benchmarks/pipeline/run.py --smoke

echo "== paper runners: every table and figure at reduced scale =="
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
REPRO_SEEDS=1 REPRO_GRID_STEPS=800 REPRO_NUM_IMAGES=40 \
    REPRO_NUM_SEG_IMAGES=16 REPRO_MAX_EPOCHS=1 \
    python -m repro.experiments.run all --data-root "$scratch/data" >/dev/null

echo "== bench smoke: run_quick =="
baseline="$scratch/BENCH_engine.json"
cp BENCH_engine.json "$baseline"
python benchmarks/run_quick.py

echo "== bench diff: fresh vs committed =="
python scripts/diff_bench.py "$baseline" BENCH_engine.json

echo "== join ablation: the index is what makes the join scale =="
python -m pytest benchmarks/bench_ablation_join.py -q

echo "All checks passed."
