#!/usr/bin/env bash
# Repo health check, six gates:
#   1. lint: ruff check (config in pyproject.toml); skipped with a
#      note when ruff is not installed in the environment; plus two
#      greps: nothing under src/repro/spatial/ may name zipfile,
#      savez or np.load — the .rtif store is one blob per tile
#      (tests/data/golden_v1.rtif pins its bytes), not an npz archive;
#      and no file under src/ may import scipy at module level (an
#      unindented `import scipy` / `from scipy`) — only the synthetic
#      generators use it, through an import inside the function, so
#      stream, join and engine processes never load it; and
#      src/repro/tensor/ops_conv.py and ops_fused.py may not name
#      _TRACE, _tensor_mod or op_span( — how an op is timed, named for
#      its backward and recorded on a trace tape is decided once, by
#      the _op decorator in src/repro/tensor/tensor.py
#   2. tier-1: the full test suite (what the roadmap pins), with one
#      BLAS thread (tests/conftest.py pins it before numpy loads)
#   3. fast lane: unit tests minus anything marked slow
#   4. traced lane: the training + trace suites again under a forced
#      REPRO_TRACE=1, so every Trainer.fit in those tests runs through
#      the tape record / guard / fallback / replay path (replay re-runs
#      the recorded eager ops) instead of the plain eager loop; with
#      them the array-pool demand suite, whose 20-step runs must keep
#      the same hits, misses and flat retained bytes when replayed, and
#      the tiled-conv and fused-kernel properties, so replayed steps run
#      through the image-tiled conv forward and the packed gate backward,
#      and the one-hidden-state ConvLSTM, whose replayed training must
#      equal the stacked sequence's bit for bit, and the in-place gate
#      kernel, whose replayed training must equal the gate chain's, and
#      the folded conv input (parts and input ReLU written into the
#      conv's padded buffer), whose replayed training must equal the
#      composed concatenate / relu / conv2d's
#   5. pipeline smoke: benchmarks/pipeline/run.py --smoke runs the five
#      BENCHMARK.json workloads end to end at reduced size (~12 s),
#      each checked against its numpy oracle
#   6. paper claims: repro.experiments.run all --scale smoke (about
#      133 s on a 2-core host, dataset generation included) regenerates
#      every table, figure and DESIGN §5 ablation at one seed, one
#      epoch, 800 grid steps and 40 / 16 images, and fails when one of
#      the 33 claims asserted at that scale fails (the join ablation:
#      identical matches and brute force > 3x the STR-tree over 20k
#      points and 768 rectangles / 1 536 triangles; the converter
#      ablation: its basic, sequential and periodical batches equal a
#      GridDataset's); every timing runs through
#      src/repro/experiments/timing.py (a warm-up, then 3 interleaved
#      rounds); most Table IV-VI claims are asserted at paper scale
#      only
# No gate here compares timings with a committed snapshot: how far a
# change may move the pipeline's end-to-end metrics is BENCHMARK.json's
# bounds, measured against benchmarks/pipeline/noise_floor.json.
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
! grep -nE "_TRACE|_tensor_mod|op_span\(" \
    src/repro/tensor/ops_conv.py src/repro/tensor/ops_fused.py || exit 1

echo "== tier-1: full suite =="
python -m pytest -x -q

echo "== fast lane: unit, not slow =="
python -m pytest tests/unit -q -m "not slow"

echo "== traced lane: forced REPRO_TRACE =="
REPRO_TRACE=1 python -m pytest -q \
    tests/unit/test_training.py \
    tests/unit/test_trace.py \
    tests/unit/test_pool_demand.py \
    tests/unit/test_convlstm_last_hidden.py \
    tests/unit/test_lstm_gates_in_place.py \
    tests/unit/test_conv_input_fold.py \
    tests/property/test_property_trace.py \
    tests/property/test_property_conv_tiles.py \
    tests/property/test_property_fused.py

echo "== pipeline smoke: five workloads end to end =="
python benchmarks/pipeline/run.py --smoke

echo "== paper claims: every artifact at the smoke scale =="
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
python -m repro.experiments.run all --scale smoke --data-root "$scratch/data"

echo "All checks passed."
