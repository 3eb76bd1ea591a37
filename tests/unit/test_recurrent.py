"""The fused LSTM gate kernel and the ConvLSTM cell."""

import numpy as np
import pytest

from repro import nn
from repro.nn.recurrent import ConvLSTMCell
from repro.tensor import Tensor
from repro.tensor.ops_fused import fused_lstm_gates
from tests.conftest import assert_grad_close, numeric_gradient


def _x(rng, shape):
    return Tensor(rng.random(shape, dtype=np.float32) - 0.5)


class TestFusedGatesGradcheck:
    """Finite differences through ``fused_lstm_gates`` w.r.t. float64
    ``gates`` and ``c``.  Outputs are stored float32 (``Tensor``
    downcasts them), hence 1e-3.  A loss of ``c`` alone never sends
    ``h_next`` a gradient: the o-block of the gate gradient is then
    the zero-filled one."""

    @pytest.mark.parametrize(
        "block", [(3, 2), (2, 2, 3, 4)], ids=["lstm", "convlstm"]
    )
    @pytest.mark.parametrize("uses", ["h_and_c", "c_only", "h_only"])
    def test_gradcheck(self, rng, block, uses):
        hidden = block[1]
        gates = Tensor(
            rng.standard_normal((block[0], 4 * hidden, *block[2:])),
            requires_grad=True, dtype=np.float64,
        )
        c = Tensor(rng.standard_normal(block), requires_grad=True, dtype=np.float64)
        wh, wc = Tensor(rng.standard_normal(block)), Tensor(rng.standard_normal(block))

        def fn():
            h, c_next = fused_lstm_gates(gates, c, hidden)
            if uses == "h_only":
                return (h * wh).sum()
            if uses == "c_only":
                return (c_next * wc).sum()
            return (h * wh).sum() + (c_next * wc).sum()

        fn().backward()
        for leaf in (gates, c):
            assert leaf.grad.dtype == np.float64
            assert_grad_close(leaf.grad, numeric_gradient(fn, leaf), rtol=1e-3)
        if uses == "c_only":
            assert not gates.grad[:, 3 * hidden :].any()


class TestFusedGatesArguments:
    def test_a_cell_state_that_only_broadcasts_is_rejected(self, rng):
        """A ``(2, 1, 3, 3)`` state broadcasts against a ``(2, 2, 3, 3)``
        gate block: the outputs, and the state's gradient, would take
        the block's shape.  Rejected before the gates are touched."""
        pre = rng.standard_normal((2, 8, 3, 3)).astype(np.float32)
        gates = Tensor(pre.copy(), requires_grad=True) * 1.0
        c = Tensor(rng.standard_normal((2, 1, 3, 3)), requires_grad=True)
        with pytest.raises(ValueError, match=r"\(2, 1, 3, 3\).*\(2, 2, 3, 3\)"):
            fused_lstm_gates(gates, c, 2)
        assert gates.data.tobytes() == pre.tobytes()
        assert c.grad is None

    def test_a_gate_axis_not_four_blocks_is_rejected(self, rng):
        gates = Tensor(rng.standard_normal((2, 7, 3, 3)))
        c = Tensor(rng.standard_normal((2, 2, 3, 3)))
        with pytest.raises(ValueError, match="4\\*hidden=8"):
            fused_lstm_gates(gates, c, 2)


class TestConvLSTMCell:
    def test_shapes(self, rng):
        cell = ConvLSTMCell(2, 5, kernel_size=3)
        h, (h2, c2) = cell(_x(rng, (2, 2, 6, 6)))
        assert h.shape == (2, 5, 6, 6)
        assert c2.shape == (2, 5, 6, 6)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            ConvLSTMCell(2, 4, kernel_size=4)

    def test_bounded_state(self, rng):
        # Cell output h = o * tanh(c) is bounded by |tanh|.
        cell = ConvLSTMCell(1, 3)
        x = Tensor(rng.random((1, 1, 4, 4), dtype=np.float32) * 100)
        h, _ = cell(x)
        assert np.abs(h.data).max() <= 1.0


class TestConvLSTM:
    def test_output_sequence_shape(self, rng):
        model = nn.ConvLSTM(2, [4, 3])
        out = model(_x(rng, (2, 5, 2, 6, 6)))
        assert out.shape == (2, 5, 3, 6, 6)

    def test_single_int_hidden(self, rng):
        model = nn.ConvLSTM(1, 4)
        assert model(_x(rng, (1, 2, 1, 4, 4))).shape == (1, 2, 4, 4, 4)

    def test_rank_check(self, rng):
        with pytest.raises(ValueError, match="N, T, C, H, W"):
            nn.ConvLSTM(1, 2)(_x(rng, (1, 1, 4, 4)))

    def test_no_fused_switch(self):
        with pytest.raises(TypeError):
            nn.ConvLSTM(1, [4], fused=False)
        with pytest.raises(TypeError):
            ConvLSTMCell(1, 4, fused=False)

    def test_temporal_dependence(self, rng):
        # Permuting the input sequence changes the final hidden state.
        model = nn.ConvLSTM(1, 3, rng=0)
        x = rng.random((1, 4, 1, 4, 4), dtype=np.float32)
        out_fwd = model(Tensor(x)).data[:, -1]
        out_rev = model(Tensor(x[:, ::-1].copy())).data[:, -1]
        assert not np.allclose(out_fwd, out_rev, atol=1e-5)
