"""Converter shuffle buffer and the experiments CLI."""

import numpy as np
import pytest

from repro.core.converter import ClassificationSpec, DFToTorchConverter
from repro.engine import Session
from repro.spatial import RasterTile


class TestShuffleBuffer:
    def _df(self, session, rng, n=40):
        tiles = np.empty(n, dtype=object)
        for i in range(n):
            tiles[i] = RasterTile(
                np.full((1, 2, 2), float(i), dtype=np.float32)
            )
        return session.create_dataframe(
            {"tile": tiles, "label": np.arange(n)}
        )

    def test_shuffles_order(self, rng):
        session = Session(default_parallelism=4)
        df = self._df(session, rng)
        converter = DFToTorchConverter(ClassificationSpec())
        stream = converter.convert(df, batch_size=40, shuffle_buffer=16, rng=0)
        _, labels = next(iter(stream))
        assert sorted(labels.numpy().tolist()) == list(range(40))
        assert labels.numpy().tolist() != list(range(40))

    def test_no_buffer_preserves_order(self, rng):
        session = Session(default_parallelism=4)
        df = self._df(session, rng)
        converter = DFToTorchConverter(ClassificationSpec())
        _, labels = next(iter(converter.convert(df, batch_size=40)))
        assert labels.numpy().tolist() == list(range(40))

    def test_invalid_buffer(self, rng):
        from repro.core.converter import RowTransformer

        session = Session()
        df = self._df(session, rng, n=4)
        with pytest.raises(ValueError):
            RowTransformer(df, batch_size=2, shuffle_buffer=-1)


class TestExperimentsCli:
    def test_parser_artifacts(self):
        from repro.experiments.run import ARTIFACTS, build_parser

        parser = build_parser()
        args = parser.parse_args(["fig8"])
        assert args.artifact == "fig8"
        assert set(ARTIFACTS) == {
            "catalog", "fig8", "table4", "table5", "table6", "table7", "fig9",
            "table8", "ablation_join", "ablation_lazy",
            "ablation_representation", "ablation_converter",
            "ablation_repartition",
        }

    def test_unknown_artifact_rejected(self):
        from repro.experiments.run import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["table99"])

    def test_fig8_via_cli(self, capsys, monkeypatch):
        import repro.experiments.fig8 as fig8_mod
        from repro.experiments import run as run_mod
        from repro.experiments.artifacts import Artifact

        def small_fig8(config, data_root):
            rows = fig8_mod.run_figure8(sizes=(2_000, 4_000))
            return fig8_mod.format_figure8(rows["systems"]), rows

        monkeypatch.setitem(run_mod.ARTIFACTS, "fig8", Artifact(small_fig8, ()))
        assert run_mod.main(["fig8"]) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out
        assert "repro-engine" in out