"""Census by execution: the functions of ``src/repro`` that no paper
run, example or pipeline benchmark executes.

Every run is a fresh interpreter started with a ``sitecustomize``
module (written to a temporary directory put first on ``PYTHONPATH``)
that installs ``sys.settrace`` and ``threading.settrace`` and records
the code object of every frame that starts.  A process writes its set
when it exits — atexit, or ``os._exit`` in a forked measuring child —
so the pipeline's per-workload subprocesses and forked children are
counted too.  The runs:

- ``benchmarks/pipeline/run.py --smoke``;
- every ``examples/*.py``;
- ``python -m repro.experiments.run all --scale smoke``: every paper
  artifact and ablation.

A run that exits non-zero is reported with its stderr tail and, from
its stdout, every ``[FAILED]`` claim line, so a failed paper claim is
told apart from a crash.

Every ``def`` in the censused packages (methods, properties and
nested closures included) that no run started is listed, outermost
first: a nested function of an unexecuted one is not listed again, so
the per-package line totals count each body once.

    python scripts/census.py                       # every package
    python scripts/census.py --packages core obs   # some of them
    python scripts/census.py --skip examples       # leave a run kind out

It is an artifact, not a gate: the full census takes several minutes.
Dataset caches and run outputs go to a temporary directory; nothing in
the checkout is written apart from ``benchmarks/pipeline/out/``, which
is git-ignored.
"""

from __future__ import annotations

import argparse
import ast
import glob
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGES = tuple(sorted(
    name for name in os.listdir(os.path.join(SRC, "repro"))
    if os.path.isfile(os.path.join(SRC, "repro", name, "__init__.py"))
))
RUN_KINDS = ("pipeline", "examples", "experiments")

_SITECUSTOMIZE = '''\
import os
import sys
import threading

_OUT = os.environ.get("CENSUS_OUT")
if _OUT:
    _SRC = os.environ["CENSUS_SRC"]
    # Keyed by id: code objects compare equal across files (two
    # one-line properties alike in name and body), so a set would keep
    # one and lose the other's file and line.
    _seen = {}

    def _trace(frame, event, arg):
        code = frame.f_code  # the global trace only sees "call"
        _seen[id(code)] = code
        return None

    def _dump():
        sys.settrace(None)
        threading.settrace(None)
        rows = sorted(
            {
                f"{code.co_filename}:{code.co_firstlineno}"
                for code in list(_seen.values())
                if code.co_filename.startswith(_SRC)
            }
        )
        path = os.path.join(_OUT, f"{os.getpid()}-{id(_seen)}.txt")
        with open(path, "w") as handle:
            handle.write("\\n".join(rows))

    import atexit

    atexit.register(_dump)
    _real_exit = os._exit

    def _exit(status):
        _dump()
        _real_exit(status)

    os._exit = _exit
    sys.settrace(_trace)
    threading.settrace(_trace)
'''

def _runs(kinds, data_root: str) -> list:
    """``(label, argv)`` of every run in the census."""
    py = sys.executable
    runs = []
    if "pipeline" in kinds:
        runs.append(("pipeline --smoke",
                     [py, "benchmarks/pipeline/run.py", "--smoke"]))
    if "examples" in kinds:
        for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.py"))):
            runs.append((f"examples/{os.path.basename(path)}", [py, path]))
    if "experiments" in kinds:
        runs.append(("experiments all --scale smoke", [
            py, "-m", "repro.experiments.run", "all", "--scale", "smoke",
            "--data-root", data_root,
        ]))
    return runs


def record(kinds) -> set:
    """Run the census; ``{(path, first line)}`` of every code object
    under ``src/`` that started in any run."""
    with tempfile.TemporaryDirectory(prefix="census-") as work:
        site, out = os.path.join(work, "site"), os.path.join(work, "out")
        data_root = os.path.join(work, "data")
        for folder in (site, out, data_root):
            os.makedirs(folder)
        with open(os.path.join(site, "sitecustomize.py"), "w") as handle:
            handle.write(_SITECUSTOMIZE)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([site, SRC])
        env["CENSUS_OUT"] = out
        env["CENSUS_SRC"] = SRC + os.sep
        for label, argv in _runs(kinds, data_root):
            started = time.perf_counter()
            done = subprocess.run(
                argv, cwd=work if label.startswith("examples") else ROOT,
                env=env, capture_output=True, text=True,
            )
            elapsed = time.perf_counter() - started
            status = "ok" if done.returncode == 0 else f"exit {done.returncode}"
            print(f"  {label}: {status}, {elapsed:.1f} s", file=sys.stderr)
            if done.returncode != 0:
                print(done.stderr[-2000:], file=sys.stderr)
                for line in done.stdout.splitlines():
                    if "[FAILED]" in line:
                        print(line, file=sys.stderr)
        seen = set()
        for path in glob.glob(os.path.join(out, "*.txt")):
            with open(path) as handle:
                for line in handle.read().split():
                    filename, lineno = line.rsplit(":", 1)
                    seen.add((filename, int(lineno)))
    return seen


def _functions(path: str):
    """``(qualname, first line, def line, end line, children)`` trees
    of every ``def`` in a module; the first line is the first
    decorator's, as on the code object."""

    def walk(node, prefix):
        found = []
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                first = min(
                    [child.lineno, *(d.lineno for d in child.decorator_list)]
                )
                found.append((qualname, first, child.lineno, child.end_lineno,
                              walk(child, f"{qualname}.<locals>.")))
            elif isinstance(child, ast.ClassDef):
                found += walk(child, f"{prefix}{child.name}.")
            else:
                found += walk(child, prefix)
        return found

    with open(path, encoding="utf-8") as handle:
        return walk(ast.parse(handle.read(), filename=path), "")


def unexecuted(package: str, seen: set) -> list:
    """``(module, qualname, lines)`` of the outermost functions of
    ``package`` that no run started."""
    rows = []
    top = os.path.join(SRC, "repro", package)
    for path in sorted(glob.glob(os.path.join(top, "**", "*.py"), recursive=True)):
        module = os.path.relpath(path, SRC)[:-3].replace(os.sep, ".")
        pending = list(_functions(path))
        while pending:
            qualname, first, def_line, end, children = pending.pop(0)
            if (path, first) in seen or (path, def_line) in seen:
                pending[:0] = children
            else:
                rows.append((module, qualname, end - def_line + 1))
    return rows


def report(packages, seen: set) -> str:
    lines = ["| package | functions | lines |", "|---|---:|---:|"]
    detail = []
    total_n = total_lines = 0
    for package in packages:
        rows = unexecuted(package, seen)
        n, size = len(rows), sum(r[2] for r in rows)
        total_n, total_lines = total_n + n, total_lines + size
        lines.append(f"| `{package}` | {n} | {size} |")
        module = None
        for mod, qualname, count in rows:
            if mod != module:
                detail.append(f"\n`{mod}`\n")
                module = mod
            detail.append(f"- `{qualname}` ({count})")
    lines.append(f"| total | {total_n} | {total_lines} |")
    return "\n".join(lines + detail) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--packages", nargs="+", default=list(PACKAGES))
    parser.add_argument("--skip", nargs="*", default=[], choices=RUN_KINDS)
    args = parser.parse_args(argv)
    kinds = [k for k in RUN_KINDS if k not in args.skip]
    seen = record(kinds)
    print(report(args.packages, seen), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
