"""DeepSAT v1, converter shuffle buffer, adjacency DataFrame, and the
experiments CLI."""

import numpy as np
import pytest

from repro.core.converter import ClassificationSpec, DFToTorchConverter
from repro.core.models.raster import DeepSat
from repro.core.preprocessing.grid import STManager
from repro.engine import Session
from repro.spatial import RasterTile
from repro.tensor import Tensor


class TestDeepSat:
    def test_forward_shape(self, rng):
        model = DeepSat(num_features=12, num_classes=4, rng=0)
        out = model(Tensor(rng.random((8, 12), dtype=np.float32)))
        assert out.shape == (8, 4)

    def test_feature_count_check(self, rng):
        model = DeepSat(num_features=12, num_classes=4, rng=0)
        with pytest.raises(ValueError, match="features"):
            model(Tensor(rng.random((8, 10), dtype=np.float32)))

    def test_learns_from_features(self, rng):
        """DeepSAT classifies from handcrafted features alone."""
        from repro.nn import CrossEntropyLoss
        from repro.optim import Adam

        n = 64
        labels = rng.integers(0, 2, n)
        feats = rng.random((n, 6)).astype(np.float32)
        feats[labels == 1, 0] += 1.0  # informative feature
        model = DeepSat(6, 2, hidden_sizes=(16,), dropout=0.0, rng=0)
        opt = Adam(model.parameters(), lr=0.01)
        loss_fn = CrossEntropyLoss()
        for _ in range(80):
            loss = loss_fn(model(Tensor(feats)), labels)
            opt.zero_grad()
            loss.backward()
            opt.step()
        preds = model(Tensor(feats)).data.argmax(axis=1)
        assert (preds == labels).mean() > 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            DeepSat(0, 2)


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


class TestAdjacencyDataFrame:
    def test_four_neighbour_counts(self):
        session = Session(default_parallelism=2)
        df = STManager.get_adjacency_dataframe(session, 3, 2)
        rows = df.collect()
        # 3x2 grid: horizontal edges 2 per row x 2 rows = 4, vertical
        # 3 -> 7 undirected edges -> 14 directed pairs.
        assert len(rows) == 14
        pairs = {(r["cell_id"], r["neighbor_id"]) for r in rows}
        assert (0, 1) in pairs and (1, 0) in pairs
        assert (0, 3) in pairs
        assert (0, 4) not in pairs

    def test_diagonal(self):
        session = Session(default_parallelism=2)
        df = STManager.get_adjacency_dataframe(session, 2, 2, diagonal=True)
        pairs = {(r["cell_id"], r["neighbor_id"]) for r in df.collect()}
        assert (0, 3) in pairs  # diagonal neighbour


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
            return fig8_mod.format_figure8(rows), rows

        monkeypatch.setitem(run_mod.ARTIFACTS, "fig8", Artifact(small_fig8, ()))
        assert run_mod.main(["fig8"]) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out
        assert "repro-engine" in out