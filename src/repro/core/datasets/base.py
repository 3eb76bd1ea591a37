"""Base classes for grid and raster datasets.

Grid datasets implement the paper's three temporal representations
(Section II-B / Listings 2-4):

- **basic** — ``(x_t, y_{t+lead})`` pairs;
- **sequential** — history/prediction windows for ConvLSTM-style
  models (``set_sequential_representation``);
- **periodical** — closeness / period / trend feature groups for
  ST-ResNet-style models (``set_periodical_representation``).

The named file-backed datasets of both kinds cache their generated
arrays through :func:`load_or_generate`.
"""

from __future__ import annotations

import json
import os
import zipfile
import zlib

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


class GridDataset(Dataset):
    """A grid-based spatiotemporal dataset over a (T, H, W, C) tensor.

    Samples are returned channel-first (PyTorch convention):
    basic/sequential items are ``(x, y)`` arrays; periodical items are
    dicts with keys ``x_closeness``, ``x_period``, ``x_trend``, and
    ``y_data``.
    """

    BASIC = "basic"
    SEQUENTIAL = "sequential"
    PERIODICAL = "periodical"

    def __init__(
        self,
        tensor: np.ndarray,
        lead_time: int = 1,
        steps_per_period: int = 24,
        steps_per_trend: int = 24 * 7,
        normalize: bool = True,
        transform=None,
    ):
        tensor = np.asarray(tensor, dtype=np.float32)
        if tensor.ndim != 4:
            raise ValueError(
                f"grid tensor must be (T, H, W, C), got shape {tensor.shape}"
            )
        check_positive(lead_time, "lead_time")
        check_positive(steps_per_period, "steps_per_period")
        check_positive(steps_per_trend, "steps_per_trend")
        self._raw_min = float(tensor.min())
        self._raw_max = float(tensor.max())
        if normalize and self._raw_max > self._raw_min:
            tensor = (tensor - self._raw_min) / (self._raw_max - self._raw_min)
        self.normalized = normalize
        # store channel-first frames: (T, C, H, W)
        self.frames = np.ascontiguousarray(tensor.transpose(0, 3, 1, 2))
        self.lead_time = lead_time
        self.steps_per_period = steps_per_period
        self.steps_per_trend = steps_per_trend
        self.transform = transform
        self._mode = self.BASIC
        self._history_length = None
        self._prediction_length = None
        self._len_closeness = None
        self._len_period = None
        self._len_trend = None

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
    def set_basic_representation(self, lead_time: int | None = None) -> "GridDataset":
        if lead_time is not None:
            check_positive(lead_time, "lead_time")
            self.lead_time = lead_time
        self._mode = self.BASIC
        return self

    def set_sequential_representation(
        self, history_length: int, prediction_length: int
    ) -> "GridDataset":
        check_positive(history_length, "history_length")
        check_positive(prediction_length, "prediction_length")
        if history_length + prediction_length > self.num_timesteps:
            raise ValueError(
                f"history {history_length} + prediction {prediction_length} "
                f"exceeds {self.num_timesteps} timesteps"
            )
        self._history_length = history_length
        self._prediction_length = prediction_length
        self._mode = self.SEQUENTIAL
        return self

    def set_periodical_representation(
        self,
        len_closeness: int = 3,
        len_period: int = 4,
        len_trend: int = 4,
    ) -> "GridDataset":
        check_positive(len_closeness, "len_closeness")
        check_positive(len_period, "len_period")
        check_positive(len_trend, "len_trend")
        offset = max(
            len_closeness,
            len_period * self.steps_per_period,
            len_trend * self.steps_per_trend,
        )
        if offset >= self.num_timesteps:
            raise ValueError(
                f"periodical offsets need {offset + 1} timesteps, dataset "
                f"has {self.num_timesteps} (reduce len_trend or "
                f"steps_per_trend)"
            )
        self._len_closeness = len_closeness
        self._len_period = len_period
        self._len_trend = len_trend
        self._mode = self.PERIODICAL
        return self

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def _periodical_offset(self) -> int:
        return max(
            self._len_closeness,
            self._len_period * self.steps_per_period,
            self._len_trend * self.steps_per_trend,
        )

    def __len__(self) -> int:
        t = self.num_timesteps
        if self._mode == self.BASIC:
            return max(0, t - self.lead_time)
        if self._mode == self.SEQUENTIAL:
            return max(0, t - self._history_length - self._prediction_length + 1)
        return max(0, t - self._periodical_offset())

    def __getitem__(self, index: int):
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"index {index} out of range for {len(self)} samples")
        if self._mode == self.BASIC:
            item = (self.frames[index], self.frames[index + self.lead_time])
        elif self._mode == self.SEQUENTIAL:
            h, p = self._history_length, self._prediction_length
            item = (
                self.frames[index : index + h],
                self.frames[index + h : index + h + p],
            )
        else:
            item = self._periodical_item(index)
        if self.transform is not None:
            item = self.transform(item)
        return item

    def _periodical_item(self, index: int) -> dict:
        target = self._periodical_offset() + index
        closeness = self.frames[target - self._len_closeness : target]
        period_steps = [
            target - k * self.steps_per_period
            for k in range(self._len_period, 0, -1)
        ]
        trend_steps = [
            target - k * self.steps_per_trend
            for k in range(self._len_trend, 0, -1)
        ]
        c, h, w = (
            self.num_channels,
            self.grid_height,
            self.grid_width,
        )
        return {
            # stacked on the channel axis, ST-ResNet style: (L*C, H, W)
            "x_closeness": closeness.reshape(-1, h, w),
            "x_period": self.frames[period_steps].reshape(-1, h, w),
            "x_trend": self.frames[trend_steps].reshape(-1, h, w),
            "y_data": self.frames[target],
            "t_index": np.asarray(target, dtype=np.int64),
        }


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
