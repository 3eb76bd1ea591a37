"""Integration: short but real training runs of every model family
through the experiment runners the benches use."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.grid_forecasting import run_one
from repro.experiments.raster_tasks import run_classification, run_segmentation
from repro.core.datasets.grid import BikeNYCDeepSTN


@pytest.fixture(scope="module")
def tiny_config():
    config = ExperimentConfig()
    config.seeds = 1
    config.grid_steps = 260
    config.num_images = 60
    config.num_seg_images = 16
    config.max_epochs = 2
    config.weather_grid = (6, 8)
    config.seg_image_shape = (16, 16)
    config.cls_image_shape = (16, 16)
    config.len_trend = 1
    return config


@pytest.fixture(scope="module")
def factory(tiny_config, tmp_path_factory):
    root = str(tmp_path_factory.mktemp("grid"))

    def make():
        return BikeNYCDeepSTN(
            root, num_steps=tiny_config.grid_steps, grid_shape=(6, 8)
        )

    return make


@pytest.mark.parametrize(
    "model", ["Periodical CNN", "ConvLSTM", "ST-ResNet", "DeepSTN+"]
)
def test_grid_models_run(model, factory, tiny_config):
    cell = run_one(factory, model, tiny_config, seed=0)
    assert cell["mae"] > 0
    assert cell["rmse"] >= cell["mae"]
    assert cell["epochs"] >= 1


@pytest.mark.parametrize("model", ["DeepSAT V2", "SatCNN"])
def test_classifiers_run(model, tiny_config, tmp_path_factory):
    root = str(tmp_path_factory.mktemp("cls"))
    cell = run_classification(
        "SAT6", model, root, tiny_config, seed=0, epochs=2
    )
    assert 0 <= cell["accuracy"] <= 1


@pytest.mark.parametrize("model", ["FCN", "UNet", "UNet++"])
def test_segmentation_models_run(model, tiny_config, tmp_path_factory):
    root = str(tmp_path_factory.mktemp("seg"))
    cell = run_segmentation(model, root, tiny_config, seed=0, epochs=2)
    assert 0 <= cell["accuracy"] <= 1
