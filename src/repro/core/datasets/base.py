"""Base classes for grid and raster datasets.

Grid datasets cut the paper's three temporal representations (Section
II-B / Listings 2-4: basic, sequential, periodical) through one
:class:`WindowPlan`.

The named file-backed datasets of both kinds cache their generated
arrays through :func:`load_or_generate`.
"""

from __future__ import annotations

import json
import os
import zipfile
import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.data.dataset import Dataset
from repro.utils.validation import check_positive


class DatasetCacheError(ValueError):
    """A dataset cache's ``data.npz`` matches the requested config but
    cannot be read.  The message names the file, which is left as it
    was found."""


def load_or_generate(directory: str, config: dict, generate, download: bool) -> dict:
    """The named arrays cached under ``directory`` for ``config``;
    on a miss, ``generate()``'s ``{name: array}`` dict, cached there.

    The cache is ``data.npz`` plus the ``config.json`` it was made
    from, and it is fresh only when that config equals ``config``: a
    ``data.npz`` without one is stale, whatever produced it, and is
    regenerated.  Both files are written to ``<path>.tmp`` first, the
    old config is removed, and the two are ``os.replace``d into place
    config last — a write that fails leaves the previous cache
    loadable, and a crash between the renames leaves a stale
    ``data.npz``, never one paired with another config.
    """
    data_path = os.path.join(directory, "data.npz")
    config_path = os.path.join(directory, "config.json")
    wanted = json.loads(json.dumps(config, default=_json_scalar))
    if os.path.exists(data_path) and _cached_config(config_path) == wanted:
        try:
            with np.load(data_path) as archive:
                return {name: archive[name] for name in archive.files}
        except (
            OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile, zlib.error
        ) as exc:
            raise DatasetCacheError(
                f"unreadable dataset cache {data_path}: {exc}"
            ) from exc
    if not download:
        raise FileNotFoundError(
            f"no cached dataset under {directory} and download=False"
        )
    arrays = generate()
    os.makedirs(directory, exist_ok=True)
    data_tmp, config_tmp = data_path + ".tmp", config_path + ".tmp"
    try:
        with open(data_tmp, "wb") as handle:
            np.savez(handle, **arrays)
        with open(config_tmp, "w") as handle:
            json.dump(wanted, handle)
    except BaseException:
        for tmp in (data_tmp, config_tmp):
            if os.path.exists(tmp):
                os.remove(tmp)
        raise
    if os.path.exists(config_path):
        os.remove(config_path)
    os.replace(data_tmp, data_path)
    os.replace(config_tmp, config_path)
    return arrays


def _cached_config(path: str):
    """The config a cache was made from, or None without a readable one."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def _json_scalar(value):
    """numpy scalars in a generator config, as plain Python numbers."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} in a dataset config is not JSON")


@dataclass(frozen=True)
class WindowPlan:
    """Which frames one grid sample reads, as offsets from its anchor
    (its first target frame): one tuple per input, and the targets.
    Sample ``i`` is anchored at frame ``lookback + i``, so ``T`` frames
    hold ``T - span`` samples.  :class:`GridDataset` and the DFtoTorch
    converter cut every grid sample through one."""

    kind: str
    inputs: tuple
    targets: tuple

    @classmethod
    def basic(cls, lead: int) -> "WindowPlan":
        """``(x_t, y_{t+lead})`` pairs (Listing 2)."""
        return cls("basic", ((-check_positive(lead, "lead_time"),),), (0,))

    @classmethod
    def sequential(cls, history: int, prediction: int) -> "WindowPlan":
        """``history`` frames, then the ``prediction`` after them (Listing 3)."""
        return cls("sequential", (_before(history, "history_length", 1),),
                   tuple(range(check_positive(prediction, "prediction_length"))))

    @classmethod
    def periodical(
        cls, len_closeness: int, len_period: int, len_trend: int,
        steps_per_period: int, steps_per_trend: int,
    ) -> "WindowPlan":
        """Closeness, period and trend frames before the target, each
        stacked on the channel axis, ST-ResNet style (Listing 4)."""
        return cls("periodical", (
            _before(len_closeness, "len_closeness", 1),
            _before(len_period, "len_period", steps_per_period),
            _before(len_trend, "len_trend", steps_per_trend),
        ), (0,))

    @cached_property
    def lookback(self) -> int:
        return -min(group[0] for group in self.inputs)

    @cached_property
    def span(self) -> int:
        return self.lookback + self.targets[-1]

    def check(self, num_frames: int) -> None:
        """Raise ``ValueError`` unless ``num_frames`` hold a sample."""
        if self.span >= num_frames:
            raise ValueError(
                f"a {self.kind} window needs {self.span + 1} timesteps, "
                f"which exceeds the {num_frames} there are"
            )

    def item(self, frames: np.ndarray, i, origin: int = 0):
        """Sample ``i`` of the ``(T, C, H, W)`` ``frames`` (whose first
        frame is step ``origin``): ``(x, y)`` or a periodical dict; for
        a vector ``i``, those samples stacked as ``default_collate``
        stacks them.  Axis -4 of each cut is its offsets."""
        anchor = self.lookback + i
        xs = [_take(frames, anchor, group) for group in self.inputs]
        y = _take(frames, anchor, self.targets)
        if self.kind == "basic":
            return xs[0].squeeze(-4), y.squeeze(-4)
        if self.kind == "sequential":
            return xs[0], y
        closeness, period, trend = (x.reshape(*x.shape[:-4], -1, *x.shape[-2:]) for x in xs)
        return {
            "x_closeness": closeness,
            "x_period": period,
            "x_trend": trend,
            "y_data": y.squeeze(-4),
            "t_index": np.asarray(origin + anchor, dtype=np.int64),
        }


def _before(length: int, name: str, step: int) -> tuple:
    """Offsets of ``length`` frames ``step`` apart before the anchor."""
    check_positive(length, name)
    check_positive(step, f"{name} step")
    return tuple(-k * step for k in range(length, 0, -1))


def _take(frames: np.ndarray, anchor, offsets: tuple) -> np.ndarray:
    """``frames[anchor + offsets]`` for one anchor (a view when the
    offsets are consecutive) or a vector of them."""
    if not isinstance(anchor, np.ndarray) and offsets[-1] - offsets[0] == len(offsets) - 1:
        return frames[anchor + offsets[0] : anchor + offsets[-1] + 1]
    return frames[np.add.outer(anchor, offsets)]


class GridDataset(Dataset):
    """A grid-based spatiotemporal dataset over a (T, H, W, C) tensor.

    Samples are returned channel-first (PyTorch convention), cut through
    ``window`` (basic, lead 1, until a ``set_*_representation`` call):
    basic/sequential items are ``(x, y)`` arrays; periodical items are
    dicts with keys ``x_closeness``, ``x_period``, ``x_trend``,
    ``y_data`` and ``t_index``.
    """

    def __init__(
        self,
        tensor: np.ndarray,
        steps_per_period: int = 24,
        steps_per_trend: int = 24 * 7,
        normalize: bool = True,
        transform=None,
    ):
        tensor = np.asarray(tensor, dtype=np.float32)
        if tensor.ndim != 4 or tensor.size == 0:
            raise ValueError(
                f"grid tensor must be a non-empty (T, H, W, C) array, got "
                f"shape {tensor.shape}"
            )
        check_positive(steps_per_period, "steps_per_period")
        check_positive(steps_per_trend, "steps_per_trend")
        self._raw_min = float(tensor.min())
        self._raw_max = float(tensor.max())
        if normalize and self._raw_max > self._raw_min:
            tensor = (tensor - self._raw_min) / (self._raw_max - self._raw_min)
        self.normalized = normalize
        # store channel-first frames: (T, C, H, W)
        self.frames = np.ascontiguousarray(tensor.transpose(0, 3, 1, 2))
        self.steps_per_period = steps_per_period
        self.steps_per_trend = steps_per_trend
        self.transform = transform
        self.window = WindowPlan.basic(1)

    # ------------------------------------------------------------------
    # Shape metadata
    # ------------------------------------------------------------------
    @property
    def num_timesteps(self) -> int:
        return self.frames.shape[0]

    @property
    def num_channels(self) -> int:
        return self.frames.shape[1]

    @property
    def grid_height(self) -> int:
        return self.frames.shape[2]

    @property
    def grid_width(self) -> int:
        return self.frames.shape[3]

    @property
    def scale(self) -> float:
        """Multiplier from normalized-error to raw-error units."""
        if not self.normalized or self._raw_max <= self._raw_min:
            return 1.0
        return self._raw_max - self._raw_min

    # ------------------------------------------------------------------
    # Representation switches (paper Listings 2-4)
    # ------------------------------------------------------------------
    def set_window(self, window: WindowPlan) -> "GridDataset":
        """Index through ``window``; the Listing calls below build one."""
        window.check(self.num_timesteps)
        self.window = window
        return self

    def set_basic_representation(self, lead_time: int = 1) -> "GridDataset":
        return self.set_window(WindowPlan.basic(lead_time))

    def set_sequential_representation(
        self, history_length: int, prediction_length: int
    ) -> "GridDataset":
        return self.set_window(WindowPlan.sequential(history_length, prediction_length))

    def set_periodical_representation(
        self,
        len_closeness: int = 3,
        len_period: int = 4,
        len_trend: int = 4,
    ) -> "GridDataset":
        return self.set_window(WindowPlan.periodical(
            len_closeness, len_period, len_trend,
            self.steps_per_period, self.steps_per_trend,
        ))

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return max(0, self.num_timesteps - self.window.span)

    def __getitem__(self, index: int):
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"index {index} out of range for {len(self)} samples")
        item = self.window.item(self.frames, index)
        if self.transform is not None:
            item = self.transform(item)
        return item


class RasterDataset(Dataset):
    """A raster imagery dataset over (N, C, H, W) images.

    Items are ``(image, label)`` or — when
    ``include_additional_features`` — ``(image, label, features)``
    (Listing 1).  For segmentation datasets ``labels`` holds (N, H, W)
    masks.  ``bands`` selects a subset of spectral bands.
    """

    def __init__(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        bands=None,
        transform=None,
        include_additional_features: bool = False,
        additional_features: np.ndarray | None = None,
    ):
        images = np.asarray(images, dtype=np.float32)
        if images.ndim != 4:
            raise ValueError(
                f"raster images must be (N, C, H, W), got shape {images.shape}"
            )
        if bands is not None:
            bands = list(bands)
            if any(not 0 <= b < images.shape[1] for b in bands):
                raise ValueError(
                    f"band selection {bands} out of range for "
                    f"{images.shape[1]}-band images"
                )
            images = images[:, bands]
        self.images = images
        self.labels = np.asarray(labels)
        if len(self.labels) != len(self.images):
            raise ValueError(
                f"{len(self.images)} images but {len(self.labels)} labels"
            )
        self.transform = transform
        self.include_additional_features = include_additional_features
        if include_additional_features:
            if additional_features is None:
                additional_features = self._auto_features()
            self.additional_features = np.asarray(
                additional_features, dtype=np.float32
            )
            if len(self.additional_features) != len(self.images):
                raise ValueError("feature count does not match image count")
        else:
            self.additional_features = None

    def _auto_features(self) -> np.ndarray:
        """Automatically extract the commonly-used features the paper
        mentions: GLCM texture of band 0 plus per-band means."""
        from repro.core.preprocessing.raster.glcm import glcm_feature_vector

        features = []
        for image in self.images:
            texture = glcm_feature_vector(image[0])
            means = image.mean(axis=(1, 2)).astype(np.float32)
            features.append(np.concatenate([texture, means]))
        return np.stack(features)

    @property
    def num_bands(self) -> int:
        return self.images.shape[1]

    @property
    def image_height(self) -> int:
        return self.images.shape[2]

    @property
    def image_width(self) -> int:
        return self.images.shape[3]

    @property
    def num_features(self) -> int:
        if self.additional_features is None:
            return 0
        return self.additional_features.shape[1]

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, index: int):
        image = self.images[index]
        if self.transform is not None:
            image = self.transform(image)
        if self.additional_features is not None:
            return image, self.labels[index], self.additional_features[index]
        return image, self.labels[index]
