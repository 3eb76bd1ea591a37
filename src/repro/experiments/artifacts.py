"""Every paper artifact: the function that regenerates it, and the
claims its rows must satisfy.

A runner takes ``(config, data_root)`` and returns ``(table, rows)``:
the text of the paper's table or figure, and JSON-ready rows.  A
:class:`Claim` is one of the paper's qualitative statements written as
a comparison: ``measure(rows)`` is the ratio or difference it tests
(its *margin*), ``op`` and ``bound`` the test; a seconds ratio is a
median paired ratio of :mod:`repro.experiments.timing`.  A claim the
``smoke`` scale cannot resolve is asserted at ``paper`` only, one no
scale resolves at neither.  The claim loop is
:func:`repro.experiments.run.main`.
"""

from __future__ import annotations

import operator
import tempfile
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.datasets import grid as grid_datasets
from repro.experiments import ablations, catalog, epoch_time, fig8, fig9
from repro.experiments import grid_forecasting, pretransform, raster_tasks
from repro.experiments.config import SCALES
from repro.experiments.tables import format_columns
from repro.experiments.timing import median_ratio

OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
       ">=": operator.ge, "==": operator.eq}

#: The scales of a claim that failed at least one of three ``smoke`` runs.
PAPER_ONLY = ("paper",)
#: The scales of a claim recorded as measured, not asserted.
MEASURED = ()


@dataclass(frozen=True)
class Claim:
    source: str
    text: str
    measure: Callable[[Any], Any]
    op: str
    bound: Any
    scales: tuple = tuple(SCALES)

    def check(self, rows, scale: str) -> dict:
        margin = self.measure(rows)
        return {
            "source": self.source,
            "claim": self.text,
            "margin": margin,
            "op": self.op,
            "bound": self.bound,
            "scales": list(self.scales),
            "asserted": scale in self.scales,
            "held": bool(OPS[self.op](margin, self.bound)),
        }


@dataclass(frozen=True)
class Artifact:
    run: Callable[[Any, str], tuple]
    claims: tuple


ARTIFACTS: dict = {}


def artifact(name: str, *claims: Claim):
    """Register the decorated runner under ``name`` with its claims."""

    def register(run):
        ARTIFACTS[name] = Artifact(run, claims)
        return run

    return register


def _ratio(values: dict, a: str, b: str) -> float:
    return values[a] / values[b]


def _over_min(values: dict, name: str) -> float:
    return values[name] / min(values.values())


def _vs_others(values: dict, name: str, pick=min) -> float:
    """``values[name]`` over the smallest (or largest) of the others."""
    return values[name] / pick(v for k, v in values.items() if k != name)


# --- Tables I-III -----------------------------------------------------


@artifact(
    "catalog",
    Claim("Table I", "features of this work's row verified by running them",
          lambda r: all(r["features"].values()), "==", True),
    Claim("Table II", "the grid catalog lists YellowTrip-NYC",
          lambda r: "YellowTrip-NYC" in r["grid_datasets"], "==", True),
    Claim("Table III", "the raster catalog lists 38-Cloud",
          lambda r: "38-Cloud" in r["raster_datasets"], "==", True),
)
def run_catalog(config, data_root):
    return catalog.format_catalog(), catalog.run_catalog()


# --- Figure 8 ---------------------------------------------------------


def _system(rows, name: str) -> list:
    return [r for r in rows["systems"] if r["system"] == name]


def _last_completed(rows):
    """The (engine, baseline) rows at the largest size the baseline
    completed."""
    pairs = zip(_system(rows, "repro-engine"), _system(rows, "geopandas-like"))
    return [(e, b) for e, b in pairs if not b["oom"]][-1]


def _speedup(rows) -> float:
    engine, _ = _last_completed(rows)
    return median_ratio(rows["timing"][str(engine["records"])],
                        "geopandas-like", "repro-engine")


def _growth(first: dict, last: dict) -> float:
    return last["peak_bytes"] / max(first["peak_bytes"], 1)


@artifact(
    "fig8",
    Claim("Figure 8", "engine runs that OOM",
          lambda r: sum(x["oom"] for x in _system(r, "repro-engine")), "==", 0),
    Claim("Figure 8", "the baseline OOMs at the largest size",
          lambda r: _system(r, "geopandas-like")[-1]["oom"], "==", True),
    Claim("Figure 8", "baseline / engine seconds, largest size both complete",
          _speedup, ">", 1),
    Claim("Figure 8", "engine peak memory, largest / smallest size",
          lambda r: _growth(_system(r, "repro-engine")[0],
                            _system(r, "repro-engine")[-1]), "<", 15.0),
    Claim("Figure 8", "baseline peak memory, largest completed / smallest size",
          lambda r: _growth(_system(r, "geopandas-like")[0],
                            _last_completed(r)[1]), ">", 20.0),
)
def run_fig8(config, data_root):
    rows = fig8.run_figure8()
    return fig8.format_figure8(rows["systems"]), rows


# --- Tables IV and V --------------------------------------------------


def _rmse(rows, dataset: str) -> dict:
    return {r["model"]: r["rmse_mean"] for r in rows if r["dataset"] == dataset}


@artifact(
    "table4",
    Claim("Table IV", "BikeNYC-DeepSTN RMSE, DeepSTN+ / best other model",
          lambda r: _vs_others(_rmse(r, "BikeNYC-DeepSTN"), "DeepSTN+"),
          "<=", 1),
    Claim("Table IV", "BikeNYC-DeepSTN RMSE, Periodical CNN / worst other model",
          lambda r: _vs_others(_rmse(r, "BikeNYC-DeepSTN"), "Periodical CNN", max),
          ">=", 1),
    Claim("Table IV", "BikeNYC-DeepSTN RMSE, ST-ResNet / ConvLSTM",
          lambda r: _ratio(_rmse(r, "BikeNYC-DeepSTN"), "ST-ResNet", "ConvLSTM"),
          "<", 1.05, PAPER_ONLY),
)
def run_table4(config, data_root):
    yellow = fig8.yellowtrip_tensor()
    steps = config.grid_steps
    factories = {
        "BikeNYC-DeepSTN": lambda: grid_datasets.BikeNYCDeepSTN(
            data_root, num_steps=steps),
        "TaxiBJ21": lambda: grid_datasets.TaxiBJ21(
            data_root, num_steps=steps, grid_shape=(16, 16)),
        "YellowTrip-NYC": lambda: grid_datasets.YellowTripNYC.from_st_tensor(yellow),
    }
    rows = grid_forecasting.run_matrix(factories, config)
    return grid_forecasting.format_table(
        rows, "Table IV: Traffic Prediction (MAE / RMSE)"), rows


@artifact(
    "table5",
    Claim("Table V", "Temperature RMSE, DeepSTN+ / best model",
          lambda r: _over_min(_rmse(r, "Temperature"), "DeepSTN+"),
          "<=", 1.05, PAPER_ONLY),
    Claim("Table V", "Temperature RMSE, Periodical CNN / worst other model",
          lambda r: _vs_others(_rmse(r, "Temperature"), "Periodical CNN", max),
          ">=", 1, PAPER_ONLY),
)
def run_table5(config, data_root):
    factories = {
        name: lambda cls=getattr(grid_datasets, name): cls(
            data_root, num_steps=config.grid_steps, grid_shape=config.weather_grid
        )
        for name in ("Temperature", "TotalPrecipitation", "TotalCloudCover")
    }
    rows = grid_forecasting.run_matrix(factories, config)
    return grid_forecasting.format_table(
        rows, "Table V: Weather Forecasting (MAE / RMSE)"), rows


# --- Table VI ---------------------------------------------------------


def _accuracy_gap(rows, a: str, b: str, dataset: str) -> float:
    accuracy = {r["model"]: r["accuracy_mean"] for r in rows
                if r["dataset"] == dataset}
    return accuracy[a] - accuracy[b]


@artifact(
    "table6",
    Claim("Table VI", "EuroSAT accuracy gap, |DeepSAT V2 - SatCNN|",
          lambda r: abs(_accuracy_gap(r, "DeepSAT V2", "SatCNN", "EuroSAT")),
          "<", 0.08, PAPER_ONLY),
    Claim("Table VI", "SAT6 accuracy gap, |DeepSAT V2 - SatCNN|",
          lambda r: abs(_accuracy_gap(r, "DeepSAT V2", "SatCNN", "SAT6")),
          "<", 0.08, PAPER_ONLY),
    Claim("Table VI", "lowest classification accuracy",
          lambda r: min(x["accuracy_mean"] for x in r
                        if x["dataset"] != "38-Cloud"),
          ">", 0.85, PAPER_ONLY),
    Claim("Table VI", "38-Cloud accuracy, UNet++ - UNet",
          lambda r: _accuracy_gap(r, "UNet++", "UNet", "38-Cloud"),
          ">=", -0.01),
    Claim("Table VI", "38-Cloud accuracy, UNet - FCN",
          lambda r: _accuracy_gap(r, "UNet", "FCN", "38-Cloud"),
          ">", 0, PAPER_ONLY),
)
def run_table6(config, data_root):
    seeds = range(config.seeds)
    rows = [
        raster_tasks.aggregate_accuracy([
            raster_tasks.run_classification(dataset, model, data_root, config, s)
            for s in seeds
        ])
        for model in ("DeepSAT V2", "SatCNN")
        for dataset in ("EuroSAT", "SAT6")
    ]
    rows += [
        raster_tasks.aggregate_accuracy([
            raster_tasks.run_segmentation(model, data_root, config, s)
            for s in seeds
        ])
        for model in ("UNet", "FCN", "UNet++")
    ]
    return raster_tasks.format_accuracy_table(rows), rows


# --- Table VII --------------------------------------------------------


def _vs_grid(rows, name: str, pick) -> float:
    """``name``'s median paired ratio over each other grid model, the
    smallest (``pick=min``) or the largest."""
    timing = rows["timing"]["Temperature"]
    return pick(median_ratio(timing, name, other)
                for other in epoch_time.GRID_ROWS if other != name)


@artifact(
    "table7",
    Claim("Table VII", "ConvLSTM / slowest other grid model epoch time",
          lambda r: _vs_grid(r, "ConvLSTM", min), ">=", 1),
    Claim("Table VII", "Periodical CNN / fastest other grid model epoch time",
          lambda r: _vs_grid(r, "Periodical CNN", max), "<=", 1),
    Claim("Table VII", "ConvLSTM / DeepSTN+ epoch time",
          lambda r: median_ratio(r["timing"]["Temperature"], "ConvLSTM", "DeepSTN+"),
          ">", 1.25, MEASURED),
    Claim("Table VII", "epoch time, the smaller of UNet++ / UNet and UNet / FCN",
          lambda r: min(median_ratio(r["timing"]["38-Cloud"], "UNet++", "UNet"),
                        median_ratio(r["timing"]["38-Cloud"], "UNet", "FCN")),
          ">", 1),
)
def run_table7(config, data_root):
    rows = epoch_time.run_table7(data_root, config)
    table = (epoch_time.format_table7(rows["epochs"]) + "\n\n"
             + epoch_time.format_op_breakdown(rows["epochs"]))
    return table, rows


# --- Figure 9 ---------------------------------------------------------


def _naive(rows, a: tuple, b: tuple) -> float:
    """Naive seconds, point ``a`` over point ``b`` (each (bands, grid))."""
    return median_ratio(rows["timing"], fig9.arm_name(*a, "naive"),
                        fig9.arm_name(*b, "naive"))


def _backend_ratio(rows) -> float:
    """Naive over accelerated seconds, the smallest over every point."""
    return min(
        median_ratio(rows["timing"], name, name.replace("naive", "accelerated"))
        for name in rows["timing"]["seconds"] if name.endswith("naive")
    )


@artifact(
    "fig9",
    Claim("Figure 9", "naive / accelerated epoch time, the smallest",
          _backend_ratio, ">", 1),
    Claim("Figure 9", "naive epoch time, grid 64 / grid 28",
          lambda r: _naive(r, (3, 64), (3, 28)), ">", 2.5),
    Claim("Figure 9", "naive epoch time, 13 bands / 3 bands",
          lambda r: _naive(r, (13, 32), (3, 32)), "<", 2.0),
)
def run_fig9(config, data_root):
    rows = fig9.run_figure9()
    return fig9.format_figure9(rows["points"]), rows


# --- Table VIII -------------------------------------------------------

TRANSFORM_COUNTS = (1, 2, 3, 4, 5)
#: The training run a pretransform pass is weighed against, in epochs.
TRAINING_EPOCHS = 3


@artifact(
    "table8",
    Claim("Table VIII", "counts at which training on pre-transformed tiles "
          "beats on-the-fly transforms",
          lambda r: sum(median_ratio(x["timing"], "offline", "online") < 1
                        for x in r),
          ">=", len(TRANSFORM_COUNTS) - 1),
    Claim("Table VIII", "pretransform / train-with-transforms, the largest",
          lambda r: max(median_ratio(x["timing"], "pretransform", "online")
                        for x in r) / TRAINING_EPOCHS,
          "<", 1),
)
def run_table8(config, data_root):
    with tempfile.TemporaryDirectory() as workdir:
        rows = [
            pretransform.run_pretransform_experiment(count, workdir)
            for count in TRANSFORM_COUNTS
        ]
    return pretransform.format_table8(rows), rows


# --- Ablations --------------------------------------------------------


def _titled(title: str, rows: dict) -> tuple:
    """An ablation's result dict as a two-column table, and the dict."""
    columns = (
        ("quantity", -28, lambda kv: kv[0]),
        ("value", 14, lambda kv: f"{kv[1]:.4g}" if isinstance(kv[1], float)
         else str(kv[1])),
    )
    shown = [kv for kv in rows.items() if not isinstance(kv[1], dict)]
    return format_columns(title, columns, shown), rows


def _join_claims(zones: str) -> tuple:
    return (
        Claim("DESIGN §5.1", f"{zones}: brute-force - indexed matches",
              lambda r: r[f"{zones}_brute_matches"] - r[f"{zones}_indexed_matches"],
              "==", 0),
        Claim("DESIGN §5.1", f"{zones}: brute-force / indexed seconds",
              lambda r: median_ratio(r[f"{zones}_timing"], "brute", "indexed"),
              ">", 3.0),
    )


@artifact("ablation_join", *_join_claims("rectangles"), *_join_claims("triangles"))
def run_ablation_join(config, data_root):
    return _titled("Ablation: spatial join, STR-tree vs brute force",
                   ablations.run_join())


@artifact(
    "ablation_lazy",
    Claim("DESIGN §5.2", "materialized / streamed peak memory",
          lambda r: r["materialized_peak_bytes"] / r["streamed_peak_bytes"],
          ">", 3.0),
)
def run_ablation_lazy(config, data_root):
    return _titled("Ablation: streaming vs materialized execution",
                   ablations.run_lazy())


@artifact(
    "ablation_representation",
    Claim("DESIGN §5.4", "test RMSE, periodical / sequential",
          lambda r: r["periodical"] / r["sequential"], "<", 1),
    Claim("DESIGN §5.4", "test RMSE, sequential / basic",
          lambda r: r["sequential"] / r["basic"], "<", 1),
)
def run_ablation_representation(config, data_root):
    return _titled("Ablation: temporal representation (same CNN, test RMSE)",
                   ablations.run_representation(data_root))


@artifact(
    "ablation_converter",
    Claim("DESIGN §5.5", "batches the streaming converter emits",
          lambda r: r["batches"], ">", 0),
    Claim("DESIGN §5.5", f"batch x is (N, 1, {fig8.GRID_Y}, {fig8.GRID_X})",
          lambda r: r["x_shape"][1:] == [1, fig8.GRID_Y, fig8.GRID_X],
          "==", True),
    Claim("DESIGN §5.5", "batch x and y shapes agree",
          lambda r: r["x_shape"] == r["y_shape"], "==", True),
    Claim("DESIGN §5.5", "collected / streaming peak memory",
          lambda r: r["collected_peak_bytes"] / max(r["streaming_peak_bytes"], 1),
          ">", 1.5),
    Claim("DESIGN §5.5", "converter batches equal GridDataset batches "
          "(basic, sequential, periodical)",
          lambda r: r["batches_equal_grid_dataset"], "==", True),
)
def run_ablation_converter(config, data_root):
    return _titled("Ablation: DFtoTorch streaming vs collect-then-tensorize",
                   ablations.run_converter())


@artifact(
    "ablation_repartition",
    Claim("paper ref [40]", "training seconds, coarse 8x8 / full 16x16",
          lambda r: median_ratio(r["timing"], "coarse", "full"), "<", 0.6),
    Claim("paper ref [40]", "relative RMSE, coarse 8x8 / full 16x16",
          lambda r: r["coarse_error"] / r["full_error"], "<", 2.0),
)
def run_ablation_repartition(config, data_root):
    return _titled("Ablation: spatial re-partitioning (coarsen 2x2)",
                   ablations.run_repartition())
