"""Synthetic data generators (the no-network substitute for the
paper's public datasets; see DESIGN.md §2).

The grid generators plant exactly the structures whose exploitation
differentiates the paper's models:

- a *closeness* component — a spatially smooth AR(1) process, learnable
  from the most recent frames;
- a *period* component — a daily cycle with per-cell amplitude and
  phase, learnable from frames one day back;
- a *trend* component — a weekly (weekday/weekend) modulation,
  learnable from frames one week back;
- optional *advection* — the field drifts spatially over time, a
  dynamic that favours sequence models (ConvLSTM) and dominates the
  weather-style datasets.

The raster generators plant class-dependent *spectral signatures*
(per-band means, so normalized-difference indices carry class signal)
and class-dependent *texture* (correlation length, so GLCM features
carry class signal) — the two feature families DeepSAT-V2 fuses.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import default_rng
from repro.utils.validation import check_non_negative, check_positive


def _ndimage():
    """``scipy.ndimage``, imported on first call.

    Only the grid and raster generators filter or shift fields, and
    importing scipy costs a process about a third of a second and
    ~25 MiB, so everything else that imports this module (the trip
    generator, and through ``repro.core.datasets`` every engine,
    stream, join and converter caller) never loads it.
    """
    from scipy import ndimage

    return ndimage


def _smooth_field(rng, shape, sigma: float) -> np.ndarray:
    """A zero-mean, unit-variance, spatially smooth random field."""
    field = rng.standard_normal(shape)
    field = _ndimage().gaussian_filter(field, sigma=sigma, mode="wrap")
    std = field.std()
    return field / std if std > 0 else field


def generate_grid_tensor(
    num_steps: int,
    height: int,
    width: int,
    channels: int = 2,
    steps_per_day: int = 24,
    days_per_week: int = 7,
    seed: int = 0,
    daily_amp: float = 1.0,
    weekly_amp: float = 0.5,
    ar_coeff: float = 0.6,
    ar_amp: float = 0.4,
    advection: float = 0.0,
    global_amp: float = 0.0,
    global_coeff: float = 0.6,
    noise: float = 0.1,
    base_level: float = 3.0,
    nonneg: bool = True,
) -> np.ndarray:
    """Generate a (T, H, W, C) spatiotemporal tensor.

    Traffic-style datasets use strong ``daily_amp``/``weekly_amp`` and
    moderate ``ar_amp``; weather-style datasets use strong
    ``ar_amp``/``advection`` and mild periodicity.
    """
    rng = default_rng(seed, label="grid_tensor")
    t_axis = np.arange(num_steps)

    tensor = np.zeros((num_steps, height, width, channels), dtype=np.float64)
    for c in range(channels):
        base = base_level * (0.5 + 0.5 * _smooth_field(rng, (height, width), 2.0) ** 2)

        # Per-cell daily profile: two sharp rush-hour bumps whose
        # timing/width vary smoothly over space.  Sharp bumps are
        # nearly unpredictable from a few recent frames but repeat
        # day over day — the signal that periodical features capture.
        hours = np.arange(steps_per_day) / steps_per_day  # in [0, 1)
        peak1 = 0.33 + 0.05 * _smooth_field(rng, (height, width), 3.0)
        peak2 = 0.72 + 0.05 * _smooth_field(rng, (height, width), 3.0)
        width1 = 0.035 + 0.01 * np.abs(_smooth_field(rng, (height, width), 3.0))
        width2 = 0.045 + 0.01 * np.abs(_smooth_field(rng, (height, width), 3.0))
        mix = 0.5 + 0.3 * _smooth_field(rng, (height, width), 3.0)

        def bump(center, widths):
            # circular distance in day-fraction space
            delta = np.abs(hours[:, None, None] - center[None])
            delta = np.minimum(delta, 1.0 - delta)
            return np.exp(-0.5 * (delta / widths[None]) ** 2)

        profile = mix[None] * bump(peak1, width1) + (1.0 - mix)[None] * bump(
            peak2, width2
        )  # (steps_per_day, H, W)
        amp = daily_amp * (0.6 + 0.4 * np.abs(_smooth_field(rng, (height, width), 3.0)))

        weekday = (t_axis // steps_per_day) % days_per_week
        weekend = (weekday >= days_per_week - 2).astype(np.float64)
        # Weekly trend scales the daily profile down on weekends.
        weekly_factor = 1.0 - weekly_amp * weekend
        # Slow day-to-day amplitude drift (trend features help here).
        num_days = num_steps // steps_per_day + 2
        day_drift = 1.0 + 0.1 * np.cumsum(rng.standard_normal(num_days)) / np.sqrt(
            num_days
        )
        daily = (
            amp[None]
            * profile[t_axis % steps_per_day]
            * (weekly_factor * day_drift[t_axis // steps_per_day])[:, None, None]
        )

        ar = np.zeros((num_steps, height, width))
        state = _smooth_field(rng, (height, width), 2.0)
        for t in range(num_steps):
            innovation = _smooth_field(rng, (height, width), 2.0)
            state = ar_coeff * state + np.sqrt(1 - ar_coeff**2) * innovation
            if advection:
                state = _ndimage().shift(
                    state, (advection, advection / 2), mode="wrap", order=1
                )
            ar[t] = state

        field = base[None] + daily + ar_amp * ar

        if global_amp:
            # A citywide latent factor (weather, events) with smooth
            # per-cell loadings: predictable from *global* context in
            # recent frames but not from any local neighbourhood —
            # the long-range dependence ConvPlus-style global pooling
            # exploits.
            g = np.zeros(num_steps)
            g_state = 0.0
            for t in range(num_steps):
                g_state = global_coeff * g_state + np.sqrt(
                    1 - global_coeff**2
                ) * rng.standard_normal()
                g[t] = g_state
            loading = _smooth_field(rng, (height, width), 1.0)
            field = field + global_amp * g[:, None, None] * loading[None]

        field += noise * rng.standard_normal(field.shape)
        tensor[..., c] = field

    if nonneg:
        tensor = np.maximum(tensor, 0.0)
    return tensor.astype(np.float32)


def generate_traffic_tensor(
    num_steps: int,
    height: int,
    width: int,
    channels: int = 2,
    steps_per_day: int = 24,
    seed: int = 0,
) -> np.ndarray:
    """Traffic/flow-style tensor: periodicity-dominated counts."""
    return generate_grid_tensor(
        num_steps,
        height,
        width,
        channels,
        steps_per_day=steps_per_day,
        seed=seed,
        daily_amp=3.5,
        weekly_amp=0.5,
        ar_coeff=0.5,
        ar_amp=0.3,
        advection=0.0,
        global_amp=0.8,
        global_coeff=0.9,
        noise=0.08,
        base_level=2.0,
        nonneg=True,
    )


def generate_weather_tensor(
    num_steps: int,
    height: int,
    width: int,
    channels: int = 1,
    steps_per_day: int = 24,
    seed: int = 0,
) -> np.ndarray:
    """Weather-style tensor: persistence/advection-dominated smooth
    fields with a mild diurnal cycle."""
    return generate_grid_tensor(
        num_steps,
        height,
        width,
        channels,
        steps_per_day=steps_per_day,
        seed=seed,
        daily_amp=0.35,
        weekly_amp=0.0,
        ar_coeff=0.95,
        ar_amp=1.4,
        advection=0.6,
        noise=0.03,
        base_level=2.0,
        nonneg=False,
    )


def generate_trip_records(
    num_records: int,
    envelope,
    num_steps: int,
    step_seconds: float = 1800.0,
    seed: int = 0,
    hotspot_count: int = 6,
):
    """Synthetic NYC-trip-style point records.

    Returns dict columns: ``lat``, ``lon``, ``dropoff_lat``,
    ``dropoff_lon``, ``pickup_time`` (epoch seconds from 0), and
    ``passenger_count``.  Points cluster around hotspots and arrive
    with a daily intensity cycle — the workload of the Figure 8
    tensor-preparation experiment and the source of the
    YellowTrip-NYC dataset.
    """
    check_non_negative(num_records, "num_records")
    check_positive(num_steps, "num_steps")
    check_positive(step_seconds, "step_seconds")
    check_positive(hotspot_count, "hotspot_count")
    rng = default_rng(seed, label="trip_records")
    cx = rng.uniform(envelope.min_x, envelope.max_x, size=hotspot_count)
    cy = rng.uniform(envelope.min_y, envelope.max_y, size=hotspot_count)
    spread_x = envelope.width * 0.05
    spread_y = envelope.height * 0.05

    # Points are NOT clipped to the envelope: a small fraction falls
    # outside and is dropped by the grid assignment, mirroring real
    # trip records with out-of-city coordinates (and avoiding point
    # mass exactly on cell boundaries, where containment conventions
    # legitimately differ between systems).
    which = rng.integers(0, hotspot_count, size=num_records)
    lon = cx[which] + rng.standard_normal(num_records) * spread_x
    lat = cy[which] + rng.standard_normal(num_records) * spread_y
    drop_which = rng.integers(0, hotspot_count, size=num_records)
    dropoff_lon = cx[drop_which] + rng.standard_normal(num_records) * spread_x
    dropoff_lat = cy[drop_which] + rng.standard_normal(num_records) * spread_y

    # Daily arrival-rate cycle over the time steps.
    steps_per_day = max(1, int(86400 / step_seconds))
    step_axis = np.arange(num_steps)
    intensity = 1.0 + 0.8 * np.sin(2 * np.pi * step_axis / steps_per_day)
    intensity = np.maximum(intensity, 0.05)
    probs = intensity / intensity.sum()
    steps = rng.choice(num_steps, size=num_records, p=probs)
    times = steps * step_seconds + rng.uniform(0, step_seconds, size=num_records)

    return {
        "lat": lat,
        "lon": lon,
        "dropoff_lat": dropoff_lat,
        "dropoff_lon": dropoff_lon,
        "pickup_time": times,
        "passenger_count": rng.integers(1, 5, size=num_records).astype(np.int64),
    }


# ----------------------------------------------------------------------
# Raster generators
# ----------------------------------------------------------------------
def class_spectral_signatures(num_classes: int, bands: int, rng) -> np.ndarray:
    """Per-class mean reflectance vectors, well separated in band space."""
    signatures = rng.uniform(0.35, 0.65, size=(num_classes, bands))
    # Push classes apart along two principal bands.  The shift shrinks
    # with the band count so that total spectral separability stays
    # comparable across 4-band (SAT) and 13-band (EuroSAT) datasets.
    shift = 0.42 / np.sqrt(bands)
    for k in range(num_classes):
        emphasis = rng.choice(bands, size=min(2, bands), replace=False)
        signatures[k, emphasis] = np.clip(
            signatures[k, emphasis] + (shift if k % 2 == 0 else -shift),
            0.05,
            0.95,
        )
    return signatures


def generate_classification_rasters(
    num_images: int,
    num_classes: int,
    bands: int,
    height: int,
    width: int,
    seed: int = 0,
    texture_signal: bool = True,
):
    """Class-separable multispectral images.

    Returns ``(images, labels)`` with images (N, bands, H, W) in
    [0, 1].  Class signal lives in per-band means (spectral) and in
    the spatial correlation length of the texture (GLCM-detectable).
    """
    rng = default_rng(seed, label="classification_rasters")
    signatures = class_spectral_signatures(num_classes, bands, rng)
    # Per-class texture correlation length (pixels).
    sigmas = np.linspace(0.5, 3.0, num_classes)

    labels = rng.integers(0, num_classes, size=num_images).astype(np.int64)
    images = np.empty((num_images, bands, height, width), dtype=np.float32)
    for n in range(num_images):
        k = labels[n]
        sigma = sigmas[k] if texture_signal else 1.5
        texture = _smooth_field(rng, (height, width), sigma)
        # Per-image signature jitter: within-class spectral variance
        # (illumination, season) that makes classes overlap.
        jitter = 0.075 * rng.standard_normal(bands)
        brightness = 0.06 * rng.standard_normal()
        for b in range(bands):
            band_texture = 0.7 * texture + 0.3 * _smooth_field(
                rng, (height, width), sigma
            )
            band = signatures[k, b] + jitter[b] + brightness + 0.12 * band_texture
            band += 0.05 * rng.standard_normal((height, width))
            images[n, b] = np.clip(band, 0.0, 1.0)
    return images, labels


def generate_segmentation_rasters(
    num_images: int,
    bands: int,
    height: int,
    width: int,
    seed: int = 0,
    cloud_fraction: float = 0.35,
):
    """Cloud-segmentation-style images.

    Returns ``(images, masks)``: images (N, bands, H, W) in [0, 1] and
    binary masks (N, H, W) marking bright correlated "cloud" blobs.
    """
    rng = default_rng(seed, label="segmentation_rasters")
    images = np.empty((num_images, bands, height, width), dtype=np.float32)
    masks = np.empty((num_images, height, width), dtype=np.int64)
    for n in range(num_images):
        landscape = 0.3 + 0.1 * _smooth_field(rng, (height, width), 2.0)
        blob_field = _smooth_field(rng, (height, width), max(3.0, height / 8))
        threshold = np.quantile(blob_field, 1.0 - cloud_fraction)
        mask = blob_field > threshold
        masks[n] = mask.astype(np.int64)
        softness = _ndimage().gaussian_filter(mask.astype(np.float64), 0.5)
        for b in range(bands):
            band = landscape + 0.08 * _smooth_field(rng, (height, width), 1.5)
            band = band + softness * (0.5 + 0.04 * rng.standard_normal())
            band += 0.02 * rng.standard_normal((height, width))
            images[n, b] = np.clip(band, 0.0, 1.0)
    return images, masks
