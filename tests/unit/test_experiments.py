"""Experiment runners: config, formatting, and small invocations."""

import json

import pytest

from repro.experiments.artifacts import ARTIFACTS, OPS, Artifact, Claim
from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.fig8 import format_figure8
from repro.experiments.fig9 import format_figure9
from repro.experiments.grid_forecasting import format_table
from repro.experiments.pretransform import format_table8
from repro.experiments.raster_tasks import (
    aggregate_accuracy,
    format_accuracy_table,
)
from repro.experiments.run import main as run_main


class TestConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.seeds >= 1
        assert config.grid_steps > 0
        assert config.len_closeness == 3

    @pytest.mark.parametrize(
        "field", ["seeds", "grid_steps", "max_epochs", "batch_size", "patience"]
    )
    def test_below_one_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{field: 0})

    @pytest.mark.parametrize("field", ["num_images", "num_seg_images"])
    def test_image_count_may_be_zero_not_negative(self, field):
        assert getattr(ExperimentConfig(**{field: 0}), field) == 0
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{field: -1})

    def test_smoke_scale(self):
        smoke = ExperimentConfig(**SCALES["smoke"])
        assert (smoke.seeds, smoke.grid_steps, smoke.max_epochs) == (1, 800, 1)
        assert (smoke.num_images, smoke.num_seg_images) == (40, 16)
        assert ExperimentConfig(**SCALES["paper"]) == ExperimentConfig()


class TestClaimLoop:
    @staticmethod
    def _stub(monkeypatch, *claims):
        rows = {"fast": 1.0, "slow": 3.0}
        monkeypatch.setitem(
            ARTIFACTS, "stub",
            Artifact(lambda config, root: ("Stub table", rows), claims),
        )

    def test_failing_claim_fails_the_run(self, monkeypatch, capsys, tmp_path):
        self._stub(
            monkeypatch,
            Claim("Table X", "slow / fast", lambda r: r["slow"] / r["fast"],
                  ">", 5.0),
        )
        out_path = tmp_path / "result.json"
        assert run_main(["stub", "--scale", "smoke", "--out", str(out_path)]) == 1
        out = capsys.readouterr().out
        assert "Stub table" in out
        assert "Table X: slow / fast: margin 3 (> 5)" in out
        assert "FAILED" in out
        result = json.loads(out_path.read_text())
        assert result["scale"] == "smoke"
        assert result["cpu_count"] >= 1 and result["commit"] and result["date"]
        assert result["artifacts"]["stub"]["rows"] == {"fast": 1.0, "slow": 3.0}
        (claim,) = result["artifacts"]["stub"]["claims"]
        assert claim["source"] == "Table X" and claim["margin"] == 3.0
        assert claim["asserted"] and not claim["held"]

    def test_paper_only_claim_not_asserted_at_smoke(self, monkeypatch, capsys):
        self._stub(
            monkeypatch,
            Claim("Table X", "slow / fast", lambda r: r["slow"] / r["fast"],
                  ">", 5.0, ("paper",)),
            Claim("Table Y", "fast / slow", lambda r: r["fast"] / r["slow"],
                  "<", 1),
        )
        assert run_main(["stub", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "[not asserted at smoke, failed] Table X: slow / fast" in out
        assert "[held] Table Y: fast / slow" in out
        assert run_main(["stub", "--scale", "paper"]) == 1

    def test_every_artifact_has_a_sourced_claim(self):
        for name, artifact in ARTIFACTS.items():
            assert any(claim.source for claim in artifact.claims), name
            for claim in artifact.claims:
                assert claim.op in OPS, (name, claim.text)
                assert set(claim.scales) <= {"smoke", "paper"}, (name, claim.text)


class TestFormatting:
    def test_grid_table(self):
        rows = [
            {
                "dataset": "D1", "model": "M1",
                "mae_mean": 1.0, "mae_dev": 0.1,
                "rmse_mean": 2.0, "rmse_dev": 0.2,
                "mean_epoch_seconds": 1.0,
            },
            {
                "dataset": "D1", "model": "M2",
                "mae_mean": 3.0, "mae_dev": 0.3,
                "rmse_mean": 4.0, "rmse_dev": 0.4,
                "mean_epoch_seconds": 1.0,
            },
        ]
        text = format_table(rows, "Title")
        assert "Title" in text
        assert "D1" in text
        assert "M1: 1.0000±0.1000" in text
        assert "RMSE" in text

    def test_fig8_table(self):
        rows = [
            {"records": 100, "system": "a", "seconds": 0.5,
             "peak_bytes": 1_000_000, "oom": False},
            {"records": 100, "system": "b", "seconds": 0.9,
             "peak_bytes": 2_000_000, "oom": True},
        ]
        text = format_figure8(rows)
        assert "OOM" in text and "ok" in text
        assert "1.00" in text  # MB conversion

    def test_fig9_table(self):
        rows = [
            {"axis": "bands", "bands": 3, "grid": 32,
             "backend": "naive", "seconds": 1.5},
        ]
        text = format_figure9(rows)
        assert "naive" in text and "1.500" in text

    def test_table8(self):
        rows = [
            {"transform_count": 1, "train_with_transforms_s": 10.0,
             "train_with_pretransforms_s": 7.0, "pretransform_s": 1.0},
        ]
        text = format_table8(rows)
        assert "10.000" in text

    def test_accuracy_table(self):
        cells = [
            {"dataset": "EuroSAT", "model": "SatCNN", "seed": 0,
             "accuracy": 0.9, "mean_epoch_seconds": 1.0},
            {"dataset": "EuroSAT", "model": "SatCNN", "seed": 1,
             "accuracy": 0.8, "mean_epoch_seconds": 2.0},
        ]
        row = aggregate_accuracy(cells)
        assert row["accuracy_mean"] == pytest.approx(0.85)
        assert row["accuracy_dev"] == pytest.approx(0.05)
        assert row["mean_epoch_seconds"] == pytest.approx(1.5)
        text = format_accuracy_table([row])
        assert "85.000" in text


class TestBuildGridModel:
    def test_all_models_buildable(self):
        from repro.experiments.grid_forecasting import (
            GRID_MODELS,
            build_grid_model,
        )

        config = ExperimentConfig()
        for name in GRID_MODELS:
            model, adapter, lr, epochs = build_grid_model(
                name, 2, 8, 8, config, rng=0
            )
            assert model.num_parameters() > 0
            assert lr > 0 and epochs >= 1

    def test_unknown_model(self):
        from repro.experiments.grid_forecasting import build_grid_model

        with pytest.raises(ValueError):
            build_grid_model("Transformer", 2, 8, 8, ExperimentConfig(), 0)

    def test_unknown_raster_models(self, tmp_path):
        from repro.experiments.raster_tasks import (
            run_classification,
            run_segmentation,
        )

        config = ExperimentConfig()
        config.num_images = 8
        config.num_seg_images = 4
        config.cls_image_shape = (16, 16)
        config.seg_image_shape = (16, 16)
        with pytest.raises(KeyError):
            run_classification("MNIST", "SatCNN", str(tmp_path), config, 0)
        with pytest.raises(ValueError):
            run_classification("EuroSAT", "ResNet", str(tmp_path), config, 0)
        with pytest.raises(ValueError):
            run_segmentation("DeepLab", str(tmp_path), config, 0)

    def test_pretransform_count_validation(self, tmp_path):
        from repro.experiments.pretransform import run_pretransform_experiment

        with pytest.raises(ValueError):
            run_pretransform_experiment(0, str(tmp_path))
        with pytest.raises(ValueError):
            run_pretransform_experiment(9, str(tmp_path))
