"""Command-line entry point: regenerate the paper's artifacts and check
their claims.

Usage::

    python -m repro.experiments.run fig8
    python -m repro.experiments.run table4 --scale smoke --data-root /tmp/data
    python -m repro.experiments.run all --scale paper \\
        --out docs/measurements/experiments.json

Each artifact (:data:`repro.experiments.artifacts.ARTIFACTS`) prints
its table, then each of its claims with the margin it held or failed
by.  The run exits 1 when a claim asserted at the chosen scale fails;
a claim asserted only at the other scale is printed as not asserted
and never fails the run.  ``--out`` writes one JSON file with the
commit, date, core count, BLAS, scale, every row and every claim.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
import time

import numpy as np

from repro.experiments.artifacts import ARTIFACTS
from repro.experiments.config import SCALES, ExperimentConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.run",
        description="Regenerate a paper table/figure and check its claims.",
    )
    parser.add_argument(
        "artifact",
        choices=(*ARTIFACTS, "all"),
        help="which paper artifact to regenerate",
    )
    parser.add_argument(
        "--scale",
        choices=tuple(SCALES),
        default="paper",
        help="experiment size (default: paper)",
    )
    parser.add_argument(
        "--data-root",
        default="data",
        help="dataset cache directory (default: ./data)",
    )
    parser.add_argument(
        "--out", default=None, help="write rows and claims to this JSON file"
    )
    return parser


def _number(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def format_claim(claim: dict, scale: str) -> str:
    if claim["asserted"]:
        status = "held" if claim["held"] else "FAILED"
    else:
        status = f"not asserted at {scale}, {'held' if claim['held'] else 'failed'}"
    return (
        f"  [{status}] {claim['source']}: {claim['claim']}: margin "
        f"{_number(claim['margin'])} ({claim['op']} {_number(claim['bound'])})"
    )


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = ExperimentConfig(**SCALES[args.scale])
    names = tuple(ARTIFACTS) if args.artifact == "all" else (args.artifact,)
    results = {}
    failed = []
    for name in names:
        artifact = ARTIFACTS[name]
        started = time.perf_counter()
        table, rows = artifact.run(config, args.data_root)
        seconds = time.perf_counter() - started
        claims = [claim.check(rows, args.scale) for claim in artifact.claims]
        print(table, "Claims:", *(format_claim(c, args.scale) for c in claims),
              "", sep="\n", flush=True)
        failed += [c for c in claims if c["asserted"] and not c["held"]]
        results[name] = {"seconds": seconds, "rows": rows, "claims": claims}
    asserted = sum(c["asserted"] for r in results.values() for c in r["claims"])
    print(f"{asserted} claims asserted at scale {args.scale}, "
          f"{len(failed)} failed")
    print(*(format_claim(c, args.scale) for c in failed), sep="\n")
    if args.out:
        payload = {
            "commit": _commit(),
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds"
            ),
            "cpu_count": os.cpu_count(),
            # Recorded, not pinned: paper-scale claims assume numpy's default.
            "blas": {name: os.environ.get(name) for name in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"
            )} | {"name": np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]},
            "scale": args.scale,
            "artifacts": results,
        }
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=1, default=lambda v: v.tolist())
            handle.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
