"""What importing the package loads.

Only the synthetic grid and raster generators filter fields with
``scipy.ndimage``, so scipy must stay out of every process that does
not call one: engine, stream, join, grid and converter callers, and
the trip-record generator.  The check runs in a fresh interpreter,
since this test process may have loaded scipy through other tests.
"""

import os
import subprocess
import sys

import repro

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

_SCRIPT = """
import sys

import numpy as np

import repro.core.converter
import repro.core.preprocessing.grid
import repro.engine
import repro.obs
import repro.spatial
import repro.tensor
from repro.core.datasets import synth
from repro.engine import Session
from repro.geometry import Envelope

stream = Session().stream([("t", np.float64), ("cell", np.int64)])
stream.append({"t": [1.0, 2.0], "cell": [0, 1]})
records = synth.generate_trip_records(50, Envelope(0.0, 1.0, 0.0, 1.0), 4)
assert len(records["lat"]) == 50
assert "scipy" not in sys.modules, "scipy loaded before any generator ran"

tensor = synth.generate_grid_tensor(6, 4, 4, channels=1, advection=0.5)
images, labels = synth.generate_classification_rasters(3, 2, 2, 8, 8)
assert tensor.shape == (6, 4, 4, 1)
assert images.shape == (3, 2, 8, 8) and labels.shape == (3,)
assert "scipy.ndimage" in sys.modules
print("ok")
"""


def test_scipy_loads_only_with_a_synthetic_generator():
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=_SRC + (os.pathsep + path if path else ""))
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
