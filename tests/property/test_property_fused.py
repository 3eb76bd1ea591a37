"""Property-based tests: every fused fast path — graph-freeing
backward, the fused ConvLSTM gate kernel, flat-buffer and in-place
Adam — produces *bit-identical* parameters to the reference
formulation it replaced (``tests/tensor_oracle.py``), for arbitrary
shapes, seeds, dtypes and hyperparameters; and the pooled buffers the
batch-norm / pooling kernels hold across a step are never recycled
while their graph is alive."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.models.raster import SatCNN
from repro.nn import functional as F
from repro.nn.recurrent import ConvLSTMCell
from repro.optim.adam import Adam
from repro.tensor import Tensor, concatenate, default_pool
from repro.tensor.ops_fused import batch_norm2d
from tests.tensor_oracle import oracle_adam_step, oracle_lstm_gates


def _params_equal(a, b):
    return all(np.array_equal(x.data, y.data) for x, y in zip(a, b))


def _grads_equal(a, b):
    return all(
        (x.grad is None and y.grad is None) or np.array_equal(x.grad, y.grad)
        for x, y in zip(a, b)
    )


# ----------------------------------------------------------------------
# free_graph training == retained-graph training
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),   # batch
    st.integers(min_value=1, max_value=8),   # features
    st.integers(min_value=1, max_value=5),   # steps
    st.integers(min_value=0, max_value=9999),
)
def test_free_graph_training_is_bit_identical(batch, feat, steps, seed):
    def train(free):
        cell = ConvLSTMCell(feat, 4, 3, rng=np.random.default_rng(seed))
        opt = Adam(list(cell.parameters()), lr=1e-2)
        rng = np.random.default_rng(seed + 1)
        for _ in range(steps):
            x = Tensor(
                rng.standard_normal((batch, feat, 2, 2)).astype(np.float32)
            )
            y = Tensor(rng.standard_normal((batch, 4, 2, 2)).astype(np.float32))
            opt.zero_grad()
            out, _ = cell(x)
            F.mse_loss(out, y).backward(free_graph=free)
            opt.step()
        return list(cell.parameters())

    assert _params_equal(train(True), train(False))


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),   # batch
    st.integers(min_value=1, max_value=3),   # bands
    st.sampled_from([(4, 4), (8, 4), (4, 12), (8, 8)]),
    st.integers(min_value=0, max_value=9999),
)
def test_satcnn_step_free_graph_is_bit_identical(batch, bands, size, seed):
    """conv -> batch norm -> ReLU -> max pool: the kernels write pooled,
    un-zeroed buffers, so losses and gradients must not depend on what
    the pool holds — it differs between the two runs and between the
    two steps of each."""
    def run(free):
        model = SatCNN(bands, *size, 3, base_filters=2, rng=seed)
        rng = np.random.default_rng(seed + 1)
        losses = []
        for _ in range(2):
            x = Tensor(rng.random((batch, bands, *size), dtype=np.float32))
            for p in model.parameters():
                p.zero_grad()
            loss = F.cross_entropy(model(x), rng.integers(0, 3, batch))
            loss.backward(free_graph=free)
            losses.append(loss.item())
        return losses, list(model.parameters())

    (losses_a, params_a), (losses_b, params_b) = run(True), run(False)
    assert losses_a == losses_b
    assert _grads_equal(params_a, params_b)
    assert all(p.grad.dtype == np.float32 for p in params_a)


@settings(max_examples=15, deadline=None)
@given(
    st.tuples(
        st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.integers(1, 4)
    ),
    st.integers(min_value=0, max_value=9999),
)
def test_pool_never_recycles_a_live_batch_norm_buffer(shape, seed):
    """``x_hat`` and the output live in pooled buffers until the graph
    drops them: same-shape pool traffic between a forward and its
    (repeated) backward must neither receive nor overwrite them."""
    rng = np.random.default_rng(seed)
    c = shape[1]
    data = rng.standard_normal(shape).astype(np.float32)
    upstream = rng.standard_normal(shape).astype(np.float32)

    def leaves():
        return (
            Tensor(data, requires_grad=True),
            Tensor(np.linspace(0.5, 1.5, c, dtype=np.float32), requires_grad=True),
            Tensor(np.zeros(c, dtype=np.float32), requires_grad=True),
        )

    undisturbed = leaves()
    batch_norm2d(*undisturbed)[0].backward(upstream)

    pool = default_pool()
    pool.reset()
    got = leaves()
    out, _, _ = batch_norm2d(*got)
    held = [out.data] + [
        cell.cell_contents
        for cell in out._backward.__closure__
        if isinstance(cell.cell_contents, np.ndarray)
    ]
    for round_ in range(2):
        # Same-shape steps that free their graphs feed and drain the pool.
        for _ in range(2):
            other = leaves()
            batch_norm2d(*other)[0].backward(upstream * 3.0, free_graph=True)
        recycled = []
        while True:
            hits = pool.hits
            arr = pool.acquire(shape, np.float32)
            if pool.hits == hits:
                break
            recycled.append(arr)
        assert not any(
            np.shares_memory(arr, live) for arr in recycled for live in held
        )
        for arr in recycled:
            arr.fill(np.nan)
            pool.release(arr)
        for node in (out, *got):
            node.zero_grad()
        out.backward(upstream)  # retained graph: round 1 runs it again
        for mine, ref in zip(got, undisturbed):
            assert np.array_equal(mine.grad, ref.grad), round_


# ----------------------------------------------------------------------
# fused gate kernels == the elementwise chain (oracle_lstm_gates)
# ----------------------------------------------------------------------
def _oracle_cell(cell, hidden):
    """``cell``'s forward with the gate tail swapped for the oracle
    chain: same parameters, same gate transform."""
    def forward(x, state):
        if state is None:
            state = cell.init_state(x.shape[0], *x.shape[2:])
        h, c = state
        gates = cell.gates(concatenate([x, h], axis=1))
        h_next, c_next = oracle_lstm_gates(gates, c, hidden)
        return h_next, (h_next, c_next)

    return forward


def _unroll(make_cell, hidden, oracle, in_shape, steps, seed):
    cell = make_cell(np.random.default_rng(seed))
    forward = _oracle_cell(cell, hidden) if oracle else cell
    rng = np.random.default_rng(seed + 1)
    state = None
    loss = None
    for _ in range(steps):
        x = Tensor(rng.standard_normal(in_shape).astype(np.float32))
        out, state = forward(x, state)
        term = (out * out).sum()
        loss = term if loss is None else loss + term
    loss.backward()
    return out.data.copy(), list(cell.parameters())


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),   # batch
    st.integers(min_value=1, max_value=3),   # in channels
    st.integers(min_value=1, max_value=3),   # hidden channels
    st.integers(min_value=2, max_value=5),   # spatial size
    st.integers(min_value=1, max_value=3),   # timesteps
    st.integers(min_value=0, max_value=9999),
)
def test_fused_convlstm_cell_is_bit_identical(batch, cin, hid, size, steps,
                                              seed):
    def run(oracle):
        return _unroll(
            lambda rng: ConvLSTMCell(cin, hid, 3, rng=rng),
            hid, oracle, (batch, cin, size, size), steps, seed,
        )

    out_f, params_f = run(False)
    out_u, params_u = run(True)
    assert np.array_equal(out_f, out_u)
    assert _grads_equal(params_f, params_u)


# ----------------------------------------------------------------------
# Adam == the per-parameter reference step (oracle_adam_step)
# ----------------------------------------------------------------------
@st.composite
def optimizer_cases(draw):
    shapes = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=5),
                st.integers(min_value=1, max_value=5),
            ),
            min_size=1,
            max_size=4,
        )
    )
    # One dtype → the flat step; mixed → the in-place per-parameter one.
    dtypes = draw(
        st.one_of(
            st.just([np.float32] * len(shapes)),
            st.lists(
                st.sampled_from([np.float32, np.float64]),
                min_size=len(shapes),
                max_size=len(shapes),
            ),
        )
    )
    steps = draw(st.integers(min_value=1, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=9999))
    weight_decay = draw(st.sampled_from([0.0, 0.01]))
    drop_grads = draw(st.sampled_from(["none", "some", "all"]))
    return list(zip(shapes, dtypes)), steps, seed, weight_decay, drop_grads


def _assert_matches_oracle(opt_factory, oracle_step, case):
    """Step the library optimizer and the oracle over the same
    gradients: equal bits and dtypes after every step, and no step
    rebinds a ``param.data``."""
    specs, steps, seed, _, drop_grads = case
    rng = np.random.default_rng(seed)
    params = [
        Tensor(rng.standard_normal(shape), requires_grad=True, dtype=dtype)
        for shape, dtype in specs
    ]
    expected = [p.data.copy() for p in params]
    opt = opt_factory(params)
    bound = [p.data for p in params]  # the optimizer's flat-buffer views
    grad_rng = np.random.default_rng(seed + 1)
    for step in range(steps):
        opt.zero_grad()
        grads = []
        for i, p in enumerate(params):
            if drop_grads == "all" or (
                drop_grads == "some" and (step + i) % 3 == 0
            ):
                grads.append(None)
                continue
            grads.append(
                grad_rng.standard_normal(p.data.shape).astype(p.data.dtype)
            )
            p._accumulate(grads[-1].copy())
        opt.step()
        oracle_step(expected, grads, step + 1)
        for p, want, data in zip(params, expected, bound):
            assert p.data is data
            assert p.data.dtype == want.dtype
            assert np.array_equal(p.data, want)


@settings(max_examples=30, deadline=None)
@given(optimizer_cases())
def test_flat_adam_is_bit_identical(case):
    wd = case[3]
    m = [np.zeros(shape, dtype) for shape, dtype in case[0]]
    v = [np.zeros(shape, dtype) for shape, dtype in case[0]]
    _assert_matches_oracle(
        lambda ps: Adam(ps, lr=1e-2, weight_decay=wd),
        lambda data, grads, t: oracle_adam_step(
            data, grads, m, v, t, lr=1e-2, weight_decay=wd
        ),
        case,
    )
