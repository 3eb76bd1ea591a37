"""Module system, layers, and their train/eval behavior."""

import warnings

import numpy as np
import pytest

from repro import nn
from repro.nn.recurrent import ConvLSTMCell
from repro.tensor import Tensor
from repro.tensor.ops_fused import batch_norm2d

from tests.conftest import assert_grad_close, numeric_gradient
from tests.tensor_oracle import oracle_batch_norm2d


class TestModuleRegistration:
    def test_parameters_found_recursively(self):
        net = nn.Sequential(nn.Linear(4, 8), nn.ReLU(), nn.Linear(8, 2))
        names = [name for name, _ in net.named_parameters()]
        assert "0.weight" in names
        assert "2.bias" in names
        assert len(list(net.parameters())) == 4

    def test_num_parameters(self):
        layer = nn.Linear(4, 3)
        assert layer.num_parameters() == 4 * 3 + 3

    def test_buffers_tracked(self):
        bn = nn.BatchNorm2d(4)
        assert bn.running_mean.shape == bn.running_var.shape == (4,)
        # Running statistics are not trainable parameters.
        param_names = [name for name, _ in bn.named_parameters()]
        assert "running_mean" not in param_names

    def test_reassignment_replaces(self):
        layer = nn.Linear(2, 2)
        old = layer.weight
        layer.weight = nn.Parameter(np.zeros((2, 2)))
        params = dict(layer.named_parameters())
        assert params["weight"] is not old

    def test_modules_iterator(self):
        net = nn.Sequential(nn.Linear(2, 2), nn.Sequential(nn.Linear(2, 2)))
        assert len(list(net.named_modules())) == 4  # outer, lin, inner seq, lin

    def test_train_eval_recursive(self):
        net = nn.Sequential(nn.Dropout(0.5), nn.Sequential(nn.Dropout(0.5)))
        net.eval()
        assert all(not m.training for _, m in net.named_modules())
        net.train()
        assert all(m.training for _, m in net.named_modules())

    def test_repr_tree(self):
        net = nn.Sequential(nn.Linear(2, 2))
        assert "Linear" in repr(net)


class TestModuleCall:
    def test_call_is_plain_forward(self):
        layer = nn.Linear(3, 2, rng=0)
        x = Tensor(np.random.default_rng(0).normal(size=(4, 3)).astype(np.float32))
        assert np.array_equal(layer(x).data, layer.forward(x).data)


class TestNamedModules:
    def test_paths_over_tree(self):
        net = nn.Sequential(nn.Linear(3, 4, rng=0), nn.ReLU())
        paths = dict(net.named_modules())
        assert set(paths) == {"", "0", "1"}
        assert paths[""] is net
        assert isinstance(paths["0"], nn.Linear)

    def test_nested_paths(self):
        cell = ConvLSTMCell(2, 3, rng=0)
        paths = [path for path, _ in cell.named_modules()]
        assert paths == ["", "gates"]

    def test_shared_module_reported_once(self):
        shared = nn.Linear(2, 2, rng=0)

        class Net(nn.Module):
            def __init__(self):
                super().__init__()
                self.a = shared
                self.b = shared

            def forward(self, x):
                return self.b(self.a(x))

        paths = [path for path, _ in Net().named_modules()]
        assert paths == ["", "a"]  # first path wins, no duplicate visit


class TestLinear:
    def test_forward_shape(self):
        layer = nn.Linear(5, 3)
        assert layer(Tensor(np.ones((4, 5), dtype=np.float32))).shape == (4, 3)

    def test_batched_input(self):
        layer = nn.Linear(5, 3)
        out = layer(Tensor(np.ones((2, 4, 5), dtype=np.float32)))
        assert out.shape == (2, 4, 3)

    def test_wrong_features_rejected(self):
        with pytest.raises(ValueError, match="last dim"):
            nn.Linear(5, 3)(Tensor(np.ones((4, 4), dtype=np.float32)))

    def test_no_bias(self):
        layer = nn.Linear(2, 2, bias=False)
        assert layer.bias is None
        assert len(list(layer.parameters())) == 1

    def test_deterministic_with_seed(self):
        a = nn.Linear(4, 4, rng=7)
        b = nn.Linear(4, 4, rng=7)
        np.testing.assert_allclose(a.weight.data, b.weight.data)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            nn.Linear(0, 2)


class TestConvLayers:
    def test_conv2d_shape(self):
        layer = nn.Conv2d(3, 8, 3, padding=1)
        out = layer(Tensor(np.zeros((2, 3, 6, 6), dtype=np.float32)))
        assert out.shape == (2, 8, 6, 6)

    def test_conv_transpose_shape(self):
        layer = nn.ConvTranspose2d(4, 2, 2, stride=2)
        out = layer(Tensor(np.zeros((1, 4, 3, 3), dtype=np.float32)))
        assert out.shape == (1, 2, 6, 6)

    def test_conv_param_validation(self):
        with pytest.raises(ValueError):
            nn.Conv2d(3, 8, 3, padding=-1)
        with pytest.raises(ValueError):
            nn.Conv2d(3, 8, 0)
        with pytest.raises(ValueError, match="stride"):
            nn.Conv2d(3, 8, 3, stride=1.5)
        with pytest.raises(ValueError, match="activation"):
            nn.Conv2d(3, 8, 3, activation="gelu")

    @pytest.mark.parametrize(
        "kwargs",
        [{"kernel_size": 0}, {"stride": 0}, {"stride": 2.0}, {"padding": -1}],
    )
    def test_conv_transpose_param_validation(self, kwargs):
        with pytest.raises(ValueError, match="|".join(kwargs)):
            nn.ConvTranspose2d(4, 2, **{"kernel_size": 2, **kwargs})


class TestNormalization:
    def test_batchnorm_normalizes_in_train(self):
        bn = nn.BatchNorm2d(2)
        x = Tensor(np.random.default_rng(0).normal(5, 3, (8, 2, 4, 4)).astype(np.float32))
        out = bn(x)
        assert abs(out.data.mean()) < 1e-4
        assert abs(out.data.std() - 1.0) < 1e-2

    def test_batchnorm_running_stats_updated(self):
        bn = nn.BatchNorm2d(1, momentum=0.5)
        x = Tensor(np.full((2, 1, 2, 2), 4.0, dtype=np.float32))
        bn(x)
        assert bn.running_mean.data[0] == pytest.approx(2.0)

    def test_batchnorm_eval_uses_running(self):
        bn = nn.BatchNorm2d(1)
        bn.running_mean.data[:] = 1.0
        bn.running_var.data[:] = 4.0
        bn.eval()
        x = Tensor(np.full((1, 1, 1, 1), 5.0, dtype=np.float32))
        out = bn(x)
        assert out.data.flat[0] == pytest.approx((5 - 1) / 2, rel=1e-3)

    def test_batchnorm_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            nn.BatchNorm2d(2)(Tensor(np.zeros((2, 2), dtype=np.float32)))

    def test_batchnorm_rejects_bad_channels(self):
        with pytest.raises(ValueError):
            nn.BatchNorm2d(2)(Tensor(np.zeros((1, 3, 2, 2), dtype=np.float32)))

    def test_batchnorm_single_value_per_channel(self):
        # N*H*W == 1: the batch variance is 0, so the output is beta.
        bn = nn.BatchNorm2d(4)
        bn.bias.data[:] = [0.5, -1.0, 0.0, 2.0]
        x = Tensor(np.arange(4, dtype=np.float32).reshape(1, 4, 1, 1))
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            out = bn(x)
        np.testing.assert_array_equal(out.data.reshape(-1), bn.bias.data)

    def test_batchnorm_eval_is_the_composed_expression(self, rng):
        bn = nn.BatchNorm2d(3)
        bn.running_mean.data = rng.random(3, dtype=np.float32)
        bn.running_var.data = rng.random(3, dtype=np.float32) + 0.5
        bn.weight.data = rng.random(3, dtype=np.float32)
        bn.bias.data = rng.random(3, dtype=np.float32)
        bn.eval()
        x = Tensor(rng.random((2, 3, 4, 5), dtype=np.float32), requires_grad=True)
        out = bn(x)
        per_channel = (1, 3, 1, 1)
        inv_std = (bn.running_var.data.reshape(per_channel) + bn.eps) ** -0.5
        expected = (
            (x.data - bn.running_mean.data.reshape(per_channel)) * inv_std
        ) * bn.weight.data.reshape(per_channel) + bn.bias.data.reshape(per_channel)
        assert out.data.tobytes() == expected.astype(np.float32).tobytes()
        out.sum().backward()
        assert x.grad is not None and bn.weight.grad is not None

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_batchnorm_running_stats_stay_float32(self, dtype):
        bn = nn.BatchNorm2d(2)
        data = np.arange(2 * 2 * 3 * 3).reshape(2, 2, 3, 3).astype(dtype)
        out = bn(Tensor(data, dtype=dtype))
        assert out.dtype == np.float32
        assert bn.running_mean.data.dtype == np.float32
        assert bn.running_var.data.dtype == np.float32
        np.testing.assert_allclose(
            bn.running_mean.data, 0.1 * data.mean(axis=(0, 2, 3)), rtol=1e-6
        )

    def test_batchnorm_training_is_trace_unsafe(self, monkeypatch):
        reasons = []
        monkeypatch.setattr(
            "repro.tensor.trace.notify_trace_unsafe", reasons.append
        )
        bn = nn.BatchNorm2d(1)
        bn(Tensor(np.ones((1, 1, 2, 2), dtype=np.float32)))
        assert len(reasons) == 1
        bn.eval()
        bn(Tensor(np.ones((1, 1, 2, 2), dtype=np.float32)))
        assert len(reasons) == 1


class TestDropout:
    def test_train_drops_and_scales(self):
        drop = nn.Dropout(0.5, rng=0)
        x = Tensor(np.ones((1000,), dtype=np.float32))
        out = drop(x).data
        zero_fraction = (out == 0).mean()
        assert 0.4 < zero_fraction < 0.6
        # Surviving values are scaled by 1/(1-p).
        assert set(np.unique(out)).issubset({0.0, 2.0})

    def test_eval_is_identity(self):
        drop = nn.Dropout(0.9, rng=0)
        drop.eval()
        x = Tensor(np.ones((10,), dtype=np.float32))
        np.testing.assert_allclose(drop(x).data, 1.0)

    def test_p_zero_identity(self):
        drop = nn.Dropout(0.0)
        x = Tensor(np.ones((10,), dtype=np.float32))
        assert drop(x) is x

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.5)


class TestActivations:
    def test_relu(self):
        out = nn.ReLU()(Tensor([-1.0, 2.0]))
        assert out.data.tolist() == [0.0, 2.0]


class TestContainers:
    def test_sequential_indexing(self):
        net = nn.Sequential(nn.Linear(2, 2), nn.ReLU())
        assert len(net) == 2
        assert isinstance(net[1], nn.ReLU)
        assert len(list(iter(net))) == 2

    def test_module_list(self):
        layers = nn.ModuleList([nn.Linear(2, 2), nn.Linear(2, 2)])
        layers.append(nn.Linear(2, 2))
        assert len(layers) == 3
        assert len(list(layers[0].parameters())) == 2
        # Registered: parent sees all 6 parameters.
        assert len(list(layers.parameters())) == 6


BN_SHAPES = [(16, 16, 32, 32), (2, 3, 5, 7), (1, 4, 1, 1), (3, 1, 4, 4)]


def _bn_inputs(rng, shape, dtype=np.float32):
    c = shape[1]
    x = (rng.normal(1.5, 2.0, shape)).astype(dtype)
    gamma = (rng.random(c) + 0.5).astype(dtype)
    beta = (rng.random(c) - 0.5).astype(dtype)
    upstream = (rng.random(shape) - 0.5).astype(np.float32)
    return x, gamma, beta, upstream


def _leaves(arrays, requires_grad=(True, True, True)):
    return [
        Tensor(a, requires_grad=flag, dtype=a.dtype)
        for a, flag in zip(arrays, requires_grad)
    ]


def _assert_close(got, expected):
    """Within 1e-5 of the reference, relative to its largest entry
    (per-element relative error is meaningless where a float32 sum
    cancels to ~0)."""
    scale = max(float(np.abs(expected).max()), 1e-6)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-5 * scale)


class TestBatchNorm2dKernel:
    """``ops_fused.batch_norm2d`` against the composed mean/var chain."""

    @pytest.mark.parametrize("shape", BN_SHAPES, ids=str)
    @pytest.mark.parametrize("contiguous", [True, False], ids=["c", "strided"])
    def test_matches_composed_reference(self, rng, shape, contiguous):
        x, gamma, beta, upstream = _bn_inputs(rng, shape)
        if not contiguous:  # same values through an NHWC-backed view
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
            assert x.shape == shape
        got = _leaves((x, gamma, beta))
        ref = _leaves((x, gamma, beta))
        out, mean, var = batch_norm2d(*got, eps=1e-5)
        expected, ref_mean, ref_var = oracle_batch_norm2d(*ref, eps=1e-5)
        assert out.data.flags.c_contiguous and out.dtype == np.float32
        assert mean.shape == var.shape == (shape[1],)
        assert mean.dtype == var.dtype == np.float32
        _assert_close(out.data, expected.data)
        _assert_close(mean, ref_mean)
        _assert_close(var, ref_var)
        out.backward(upstream)
        expected.backward(upstream)
        for mine, theirs in zip(got, ref):
            assert mine.grad.dtype == np.float32
            _assert_close(mine.grad, theirs.grad)

    @pytest.mark.parametrize("frozen", [0, 1, 2], ids=["x", "gamma", "beta"])
    def test_one_input_without_grad(self, rng, frozen):
        arrays = _bn_inputs(rng, (2, 3, 5, 7))
        flags = tuple(i != frozen for i in range(3))
        got, ref = _leaves(arrays, flags), _leaves(arrays, flags)
        out, _, _ = batch_norm2d(*got)
        expected, _, _ = oracle_batch_norm2d(*ref)
        out.backward(arrays[3])
        expected.backward(arrays[3])
        for i, (mine, theirs) in enumerate(zip(got, ref)):
            if i == frozen:
                assert mine.grad is None
            else:
                _assert_close(mine.grad, theirs.grad)

    def test_nothing_requires_grad(self, rng):
        arrays = _bn_inputs(rng, (2, 3, 4, 4))
        out, _, _ = batch_norm2d(*_leaves(arrays, (False, False, False)))
        assert not out.requires_grad

    def test_same_input_through_two_layers(self, rng):
        # x.grad is the sum of both layers' dx, and neither layer's
        # saved x_hat or output may alias the other's.
        arrays = _bn_inputs(rng, (4, 3, 6, 6))
        x, ref_x = _leaves(arrays[:1]) + _leaves(arrays[:1])
        first, second = nn.BatchNorm2d(3), nn.BatchNorm2d(3)
        second.weight.data[:] = [0.5, 2.0, -1.0]
        out_a, out_b = first(x), second(x)
        assert not np.shares_memory(out_a.data, out_b.data)
        kept = out_a.data.copy()
        (out_a + out_b * 2.0).backward(arrays[3])
        np.testing.assert_array_equal(out_a.data, kept)
        ref_a, _, _ = oracle_batch_norm2d(ref_x, first.weight, first.bias)
        ref_b, _, _ = oracle_batch_norm2d(ref_x, second.weight, second.bias)
        for p in (*first.parameters(), *second.parameters()):
            p.zero_grad()
        (ref_a + ref_b * 2.0).backward(arrays[3])
        _assert_close(x.grad, ref_x.grad)

    def test_retained_graph_runs_backward_twice(self, rng):
        arrays = _bn_inputs(rng, (2, 3, 4, 4))
        got = _leaves(arrays)
        out, _, _ = batch_norm2d(*got)
        out.backward(arrays[3])
        once = [t.grad.copy() for t in got]
        out.zero_grad()
        out.backward(arrays[3])
        for t, first in zip(got, once):
            _assert_close(t.grad, 2 * first)

    @pytest.mark.parametrize("shape", [(2, 3, 3, 2), (3, 1, 2, 2)], ids=str)
    def test_gradcheck_float64_leaves(self, rng, shape):
        # float64 leaves: the kernel computes in float64 (only the op
        # output is stored as float32, like every Tensor op), so a
        # hard-coded float32 constant or buffer would show up here.
        arrays = _bn_inputs(rng, shape, dtype=np.float64)
        leaves = _leaves(arrays)
        weights = Tensor(rng.random(shape, dtype=np.float32))

        def fn():
            out, _, _ = batch_norm2d(*leaves)
            return (out * out * weights).sum()

        fn().backward()
        for leaf in leaves:
            assert leaf.grad.dtype == np.float64
            assert_grad_close(leaf.grad, numeric_gradient(fn, leaf), rtol=5e-3)

    def test_module_updates_running_stats_like_the_reference(self, rng):
        arrays = _bn_inputs(rng, (16, 16, 32, 32))
        bn = nn.BatchNorm2d(16, momentum=0.3)
        bn(Tensor(arrays[0]))
        _, mean, var = oracle_batch_norm2d(*_leaves(arrays))
        assert bn.running_mean.data.dtype == np.float32
        assert bn.running_var.data.dtype == np.float32
        _assert_close(bn.running_mean.data, 0.3 * mean)
        _assert_close(bn.running_var.data, 0.7 + 0.3 * var)
