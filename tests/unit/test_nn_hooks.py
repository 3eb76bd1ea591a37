"""nn.Module forward hooks: ordering, argument/output rewriting,
removable handles, and exception safety."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn.recurrent import ConvLSTMCell
from repro.tensor import Tensor


def make_linear() -> nn.Linear:
    return nn.Linear(3, 2, rng=0)


def make_input(rows: int = 4) -> Tensor:
    return Tensor(
        np.random.default_rng(0).normal(size=(rows, 3)).astype(np.float32)
    )


class TestHookDispatch:
    def test_pre_hook_sees_module_and_args(self):
        layer = make_linear()
        x = make_input()
        seen = []
        layer.register_forward_pre_hook(
            lambda module, args: seen.append((module, args))
        )
        layer(x)
        assert seen == [(layer, (x,))]

    def test_post_hook_sees_args_and_output(self):
        layer = make_linear()
        x = make_input()
        seen = []
        layer.register_forward_hook(
            lambda module, args, output: seen.append((module, args, output))
        )
        out = layer(x)
        assert seen == [(layer, (x,), out)]

    def test_hooks_run_in_registration_order(self):
        layer = make_linear()
        order = []
        layer.register_forward_pre_hook(lambda m, a: order.append("pre1"))
        layer.register_forward_pre_hook(lambda m, a: order.append("pre2"))
        layer.register_forward_hook(lambda m, a, o: order.append("post1"))
        layer.register_forward_hook(lambda m, a, o: order.append("post2"))
        layer(make_input())
        assert order == ["pre1", "pre2", "post1", "post2"]

    def test_pre_hook_can_replace_args(self):
        layer = make_linear()
        x = make_input()
        layer.register_forward_pre_hook(lambda m, args: (args[0] * 0.0,))
        out = layer(x)
        bias = layer.bias.data
        assert np.allclose(out.data, np.broadcast_to(bias, out.shape))

    def test_pre_hook_single_value_wrapped_to_tuple(self):
        layer = make_linear()
        x = make_input()
        layer.register_forward_pre_hook(lambda m, args: args[0] * 0.0)
        out = layer(x)
        assert np.allclose(
            out.data, np.broadcast_to(layer.bias.data, out.shape)
        )

    def test_post_hook_can_replace_output(self):
        layer = make_linear()
        sentinel = Tensor(np.zeros((1,), dtype=np.float32))
        layer.register_forward_hook(lambda m, a, o: sentinel)
        assert layer(make_input()) is sentinel

    def test_hooks_on_children_fire_during_parent_call(self):
        net = nn.Sequential(make_linear(), nn.ReLU())
        fired = []
        net[0].register_forward_hook(lambda m, a, o: fired.append("child"))
        net.register_forward_hook(lambda m, a, o: fired.append("parent"))
        net(make_input())
        assert fired == ["child", "parent"]

    def test_no_hooks_is_plain_forward(self):
        layer = make_linear()
        x = make_input()
        expected = layer.forward(x)
        assert np.array_equal(layer(x).data, expected.data)


class TestRemovableHandle:
    def test_remove_stops_hook(self):
        layer = make_linear()
        calls = []
        handle = layer.register_forward_hook(lambda m, a, o: calls.append(1))
        layer(make_input())
        handle.remove()
        layer(make_input())
        assert len(calls) == 1

    def test_remove_is_idempotent(self):
        layer = make_linear()
        handle = layer.register_forward_pre_hook(lambda m, a: None)
        handle.remove()
        handle.remove()  # no KeyError
        assert not layer._forward_pre_hooks

    def test_removing_one_hook_keeps_others(self):
        layer = make_linear()
        calls = []
        first = layer.register_forward_hook(lambda m, a, o: calls.append("a"))
        layer.register_forward_hook(lambda m, a, o: calls.append("b"))
        first.remove()
        layer(make_input())
        assert calls == ["b"]

    def test_handle_ids_are_unique_across_modules(self):
        a = make_linear()
        b = make_linear()
        ids = {
            a.register_forward_hook(lambda m, x, o: None).id,
            a.register_forward_pre_hook(lambda m, x: None).id,
            b.register_forward_hook(lambda m, x, o: None).id,
        }
        assert len(ids) == 3


class TestHookExceptionSafety:
    def test_exception_in_pre_hook_propagates(self):
        layer = make_linear()

        def bad(module, args):
            raise RuntimeError("pre boom")

        layer.register_forward_pre_hook(bad)
        with pytest.raises(RuntimeError, match="pre boom"):
            layer(make_input())

    def test_exception_in_hook_leaves_module_usable(self):
        layer = make_linear()
        x = make_input()
        before = {k: p.data.copy() for k, p in layer.named_parameters()}

        def bad(module, args, output):
            raise RuntimeError("post boom")

        handle = layer.register_forward_hook(bad)
        with pytest.raises(RuntimeError):
            layer(x)
        handle.remove()
        after = {k: p.data for k, p in layer.named_parameters()}
        assert set(before) == set(after)
        for name in before:
            assert np.array_equal(before[name], after[name])
        expected = layer.forward(x)
        assert np.array_equal(layer(x).data, expected.data)


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
