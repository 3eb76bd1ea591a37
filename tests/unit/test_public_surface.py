"""The surface census as a test: every public name of the engine,
geometry, spatial and obs packages and of the training stack (tensor,
nn, optim, data, utils) has a caller the paper pipeline wants.

A name earns its place by being referenced from ``src/`` outside the
package that defines it (``src/repro/experiments/`` included),
``examples/`` or ``benchmarks/pipeline/`` — tests do not count — or
by sitting in ``ALLOWED`` below with its reason.  A name that fails here gets a caller or gets deleted; it
does not get an allowlist entry for being convenient to keep.
"""

from __future__ import annotations

import ast
import inspect
import os

import repro
import repro.data
import repro.engine
import repro.geometry
import repro.nn
import repro.obs
import repro.optim
import repro.spatial
import repro.tensor
import repro.utils
from repro.engine import DataFrame, Session, agg
from repro.nn import Module
from repro.tensor import Tensor

#: ``src/`` is wherever ``repro`` was imported from, so pointing
#: PYTHONPATH at another checkout's ``src/`` censuses that checkout
#: against this one's examples and benchmark.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

PACKAGES = (
    "engine", "geometry", "spatial", "obs",
    "tensor", "nn", "optim", "data", "utils",
)

#: name -> why it stays without a pipeline caller.
ALLOWED = {
    # Interactive conveniences: what a person types at a prompt.
    "DataFrame.show": "interactive: print the first rows",
    "DataFrame.take": "interactive: first rows as dicts (show is built on it)",
    "DataFrame.limit": "interactive: take and show are built on it",
    "DataFrame.drop": "interactive: the inverse of select",
    "DataFrame.columns": "interactive: schema introspection",
    "DataFrame.explain": "interactive: plan and EXPLAIN ANALYZE output",
    "Tensor.numpy": "interactive: the array behind a tensor",
    "engine.lit": "interactive: an explicit literal operand, lit(1) - col('x')",
    # The paper's five aggregate kinds (Listing 8: count / sum / avg /
    # min / max); the pipelines here only ever ask for three of them.
    "agg.sum_": "paper aggregate kind",
    "agg.min_": "paper aggregate kind",
    "agg.max_": "paper aggregate kind",
    # Plumbing between Session and DataFrame, which share a package, so
    # the only callers there can be do not count.
    "Session.next_query_id": "DataFrame's metered actions draw ids from it",
    # The observability switches and the report: what a run's
    # measurement reads or flips, not what the pipeline computes.
    "obs.export": "the report reads it: to_chrome_trace and dump_json",
    "obs.disabled": "the switch the bench and the bit-identity tests flip",
    "obs.reset": "zeroes the registry between measured runs",
    # Module plumbing: the nn package's own callers do not count.
    "Module.forward": "the method every layer overrides; __call__ runs it",
    "Module.named_parameters": "parameters() is built on it",
}


def _python_files(top: str):
    for folder, _dirs, files in os.walk(top):
        for name in files:
            if name.endswith(".py"):
                yield os.path.join(folder, name)


def _names_used(path: str) -> set:
    """Every identifier and attribute name one file uses.  A string
    literal's own methods (``", ".join``) are not attribute uses.
    Matching is by bare name, so it errs towards keeping: a method
    named like a stdlib one (``os.path.join``, ``Thread.join``) looks
    called whether or not it is."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    names: set = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            if not isinstance(node.value, (ast.Constant, ast.JoinedStr)):
                names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def _referenced_names() -> dict:
    """Per defining package, the names used by the callers that count:
    ``src/`` outside ``src/repro/<package>``, examples, the benchmark."""
    used = {path: _names_used(path) for path in _python_files(SRC)}
    outside = set()
    for folder in ("examples", os.path.join("benchmarks", "pipeline")):
        for path in _python_files(os.path.join(ROOT, folder)):
            outside |= _names_used(path)
    referenced = {}
    for package in PACKAGES:
        own = os.path.join(SRC, "repro", package) + os.sep
        referenced[package] = outside.union(
            *(names for path, names in used.items() if not path.startswith(own))
        )
    return referenced


def _public_methods(cls) -> list:
    return sorted(
        name
        for name, member in vars(cls).items()
        if not name.startswith("_")
        and (inspect.isfunction(member) or isinstance(member, property))
    )


def _surface() -> list:
    """``(label, defining package, bare name)`` for the whole census."""
    entries = []
    for package in PACKAGES:
        module = getattr(repro, package)
        entries += [(f"{package}.{n}", package, n) for n in module.__all__]
    # The aggregate constructors: agg's functions that build an AggSpec.
    entries += [
        (f"agg.{name}", "engine", name)
        for name, member in sorted(vars(agg).items())
        if inspect.isfunction(member)
        and member.__annotations__.get("return") == "AggSpec"
    ]
    for cls, package in (
        (DataFrame, "engine"), (Session, "engine"),
        (Tensor, "tensor"), (Module, "nn"),
    ):
        entries += [
            (f"{cls.__name__}.{n}", package, n) for n in _public_methods(cls)
        ]
    return entries


def test_every_public_name_has_a_caller_or_a_reason():
    referenced = _referenced_names()
    uncalled = sorted(
        label
        for label, package, name in _surface()
        if name not in referenced[package] and label not in ALLOWED
    )
    assert not uncalled, (
        "public names nothing in src/ (outside the defining package), "
        f"examples/ or benchmarks/pipeline/ calls: {uncalled}"
    )


def test_allowlist_holds_only_names_that_exist():
    labels = {label for label, _package, _name in _surface()}
    stale = sorted(set(ALLOWED) - labels)
    assert not stale, f"allowlisted names that no longer exist: {stale}"

