#!/usr/bin/env python3
"""Pipeline benchmark: five paper workloads, end to end and per layer.

Suite (prints every metric by name with its unit, checks every output
against its oracle, exits non-zero on a failed check)::

    python benchmarks/pipeline/run.py [--seed N] [--out DIR] [--smoke] [--sets K]

One workload in this process (what the suite spawns, and what the
benchmark driver calls; the last stdout line is one JSON object)::

    python benchmarks/pipeline/run.py --workload NAME --seed N --seconds S --trace 0|1

See README.md beside this file for the metrics, the workloads and how
to compare two commits.
"""

from __future__ import annotations

import os
import sys
import time

_STARTED = time.perf_counter()

# Pinned before numpy loads: the host has 2 shared cores and one
# load-generating thread.  REPRO_* switches are cleared so every run
# measures the library's defaults.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(PINNED_ENV)
for _name in [n for n in os.environ if n.startswith("REPRO_")]:
    del os.environ[_name]

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from itertools import groupby  # noqa: E402

SMOKE_SCALE = 0.05
NOISE_FLOOR = os.path.join(HERE, "noise_floor.json")

# workload (= its module) -> class
WORKLOAD_CLASSES = {
    "trip_prep": "TripPrep",
    "zone_join": "ZoneJoin",
    "grid_train": "GridTrain",
    "raster_e2e": "RasterE2E",
    "stream_ingest": "StreamIngest",
}


# End-to-end metrics that one workload reports, or that compare two
# passes, with the bound ``--sets`` gates them by (None = reported, not
# gated).  BENCHMARK.json lists them under ``per_layer``, because its
# ``end_to_end`` list admits only metrics every workload emits, and has
# nowhere to keep these bounds.
END_TO_END_EXTRA = {
    "append_p50_ms": 0.15,
    "append_p99_ms": 0.15,
    "trace_overhead_ratio": None,
}

# Metric-name prefix -> the layer (module) it measures; first match.
LAYER_PREFIXES = (
    ("engine.stream.", "engine.streaming"),
    ("engine.", "engine"),
    ("geometry.", "geometry"),
    ("spatial.", "spatial"),
    ("grid.", "core.preprocessing.grid"),
    ("rasterproc.", "core.preprocessing.raster"),
    ("converter.", "core.converter"),
    ("data.", "data + core.transforms"),
    ("transforms.", "data + core.transforms"),
    ("training.", "core.training"),
    ("nn.", "nn / tensor / optim"),
    ("tensor.", "nn / tensor / optim"),
    ("optim.", "nn / tensor / optim"),
    ("obs.", "obs"),
)


def layer_of(metric: str) -> str:
    for prefix, layer in LAYER_PREFIXES:
        if metric.startswith(prefix):
            return layer
    return "harness"


def load_catalogue() -> dict:
    """Workload names, metric names, units and bounds, as BENCHMARK.json
    at the repository root declares them (the one place they are
    written down)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    return {
        "seconds": declared["run_seconds"],
        "workloads": [w["name"] for w in declared["workloads"]],
        "end_to_end": {m["name"]: m for m in declared["end_to_end"]},
        "per_layer": {m["name"]: m for m in declared["per_layer"]},
    }


def parse_args(catalogue: dict):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=catalogue["workloads"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=catalogue["seconds"],
        help="measure timed passes for at least this long (whole passes, "
        "never fewer than the workload's minimum)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for result/span artefacts")
    parser.add_argument(
        "--smoke", action="store_true",
        help="every workload at ~1/20 scale, all oracles, nothing recorded",
    )
    parser.add_argument(
        "--sets", type=int, default=1,
        help="run the suite K times at the same seed and gate their agreement",
    )
    return parser.parse_args()


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_record(record: dict, catalogue: dict) -> None:
    """Every metric by name, with its unit."""
    name = record["workload"]
    samples = record["samples"]
    print(f"== {name} (seed {record['seed']}, scale {record['scale']}) ==")
    print(
        f"  items per pass: {record['items_per_pass']} {record['item_unit']}"
        f"  (throughput = items / run_s)"
    )
    for metric, value in record["end_to_end"].items():
        unit, note = "ratio", ""  # failed_share, the one not in BENCHMARK.json
        if metric in catalogue["end_to_end"]:
            unit = catalogue["end_to_end"][metric]["unit"]
        if metric == "run_s":
            note = (
                f"   median of n={samples['n']}"
                f" min={samples['min']:.4f} max={samples['max']:.4f}"
            )
        if metric == "peak_rss_mb":
            note = f"   {record['rss_at_start_mb']:.1f} before the first pass"
        print(f"  {metric:<44s}{fmt(value):>14s} {unit}{note}")
    if "per_layer" in record:
        reported = [m for m in catalogue["per_layer"] if m in record["per_layer"]]
        for layer, metrics in groupby(reported, key=layer_of):
            print(f"  [{layer}]")
            for metric in metrics:
                unit = catalogue["per_layer"][metric]["unit"]
                value = fmt(record["per_layer"][metric])
                print(f"    {metric:<42s}{value:>14s} {unit}")
        print("  [layer self time in the traced pass]")
        for layer, seconds in sorted(
            record["layers"].items(), key=lambda kv: -kv[1]
        ):
            share = seconds / record["traced_wall_s"]
            print(f"    {layer:<42s}{seconds:>14.4f} s  {share:6.1%}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)


def run_one(args, catalogue: dict) -> int:
    try:
        import numpy

        import harness
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    workload_class = getattr(
        __import__(args.workload), WORKLOAD_CLASSES[args.workload]
    )
    import_s = time.perf_counter() - _STARTED

    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    workload = workload_class(
        args.seed, SMOKE_SCALE if args.smoke else 1.0, workdir
    )
    if args.smoke:
        workload.min_passes = 1
    try:
        record = harness.measure(
            workload,
            seconds=0.0 if args.smoke else args.seconds,
            traced=bool(args.trace),
            import_s=import_s,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["environment"] = {
        **PINNED_ENV,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    print_record(record, catalogue)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        spans = record.pop("spans", None)
        with open(os.path.join(args.out, f"{args.workload}.json"), "w") as handle:
            json.dump(record, handle, indent=1)
        if spans is not None:
            path = os.path.join(args.out, f"{args.workload}.spans.json")
            with open(path, "w") as handle:
                json.dump(spans, handle)

    # The driver's contract: with --trace 0 every end-to-end metric of
    # BENCHMARK.json, with --trace 1 every per-layer metric (0 where a
    # layer is idle on this workload).
    if args.trace:
        spec = catalogue["per_layer"]
        values = {n: record.get("per_layer", {}).get(n, 0.0) for n in spec}
    else:
        spec = catalogue["end_to_end"]
        values = {n: record["end_to_end"][n] for n in spec}
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    n: {"value": values[n], "unit": spec[n]["unit"]} for n in spec
                },
            }
        )
    )
    return 0 if record["failed"] == 0 else 1


# ----------------------------------------------------------------------
# The suite: one fresh subprocess per workload, sequentially
# ----------------------------------------------------------------------
def commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def gated_metrics(record: dict, catalogue: dict) -> dict:
    """name -> (value, bound): the end-to-end values the sets must
    agree on."""
    gated = {
        name: (record["end_to_end"][name], spec["bound"])
        for name, spec in catalogue["end_to_end"].items()
    }
    for name, bound in END_TO_END_EXTRA.items():
        if bound is not None and name in record["legs"]:
            gated[name] = (record["legs"][name], bound)
    return gated


def run_suite(args, catalogue: dict) -> int:
    out = args.out or os.path.join(HERE, "out")
    sets: list[dict] = []
    status = 0
    for k in range(args.sets):
        set_dir = os.path.join(out, f"set{k}")
        records = {}
        for name in catalogue["workloads"]:
            # Same code, same seed, same inputs in every set.  Per-layer
            # numbers come from the first set's traced pass; later sets
            # only repeat the end-to-end measurement.
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", "1" if k == 0 else "0", "--out", set_dir,
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(
                command, cwd=ROOT, stdout=subprocess.PIPE, text=True
            )
            # All but the driver's JSON line, which the record repeats.
            print("\n".join(done.stdout.splitlines()[:-1]))
            if done.returncode != 0:
                print(f"{name}: exit code {done.returncode}", file=sys.stderr)
                status = 1
            try:
                with open(os.path.join(set_dir, f"{name}.json")) as handle:
                    records[name] = json.load(handle)
            except FileNotFoundError:
                status = 1
        sets.append(records)

    if args.sets > 1 and status == 0:
        floor = {}
        for name in catalogue["workloads"]:
            series = [gated_metrics(records[name], catalogue) for records in sets]
            floor[name] = {}
            for metric, (_, bound) in series[0].items():
                values = [s[metric][0] for s in series]
                median = statistics.median(values)
                # The two sets furthest apart, as a share of the median:
                # no pair may disagree by more than the bound.
                disagreement = (max(values) - min(values)) / median
                q1, _, q3 = statistics.quantiles(values, n=4)
                floor[name][metric] = {
                    "values": values,
                    "max_pair_disagreement": disagreement,
                    "iqr_over_median": (q3 - q1) / median,
                    "bound": bound,
                }
                unresolved = disagreement > bound
                status = status or int(unresolved)
                print(
                    f"noise {name:<14s}{metric:<16s}"
                    f" max pair={disagreement:.4f} bound={bound}"
                    + ("  UNRESOLVED: sets of the same code disagree beyond"
                       " the bound" if unresolved else "")
                )
        if not args.smoke:
            environment = next(iter(sets[0].values()))["environment"]
            with open(NOISE_FLOOR, "w") as handle:
                json.dump(
                    {
                        "commit": commit(),
                        "sets": args.sets,
                        "seed": args.seed,
                        "seconds": args.seconds,
                        "environment": environment,
                        "floor": floor,
                    },
                    handle, indent=1,
                )
                handle.write("\n")
            print(f"wrote {NOISE_FLOOR}")
    print(f"artefacts under {out}")
    print("PASS" if status == 0 else "FAIL")
    return status


def main() -> int:
    try:
        catalogue = load_catalogue()
    except (OSError, KeyError, ValueError) as exc:
        print(f"cannot read BENCHMARK.json: {exc!r}", file=sys.stderr)
        return 2
    args = parse_args(catalogue)
    if args.workload:
        return run_one(args, catalogue)
    return run_suite(args, catalogue)


if __name__ == "__main__":
    sys.exit(main())
