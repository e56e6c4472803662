"""Layer semantics and finite-difference gradient verification.

Every layer's analytic backward pass is compared against central-difference
numeric gradients on a battery of 20 random shapes, all in float64, with a
relative-error bound of 1e-4.  The vectorized Conv1d and MaxPool1d kernels
are also compared against loop and argmax references, in float32 and float64.
"""

import numpy as np
import pytest

from otfs_sync.nn import (
    AdamW,
    BatchNorm1d,
    Conv1d,
    Flatten,
    Linear,
    MaxPool1d,
    Parameter,
    ReLU,
    ResBlock,
    Sequential,
    check_layer,
    numeric_grad,
    softmax,
    softmax_cross_entropy,
)
from otfs_sync.nn.layers import _input_grad_shifted, _input_grad_transposed

TOL = 1e-4
N_SHAPES = 20


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _assert_grads_ok(layer, x, seed, tol=TOL, eps=1e-6):
    errs = check_layer(layer, x, _rng(seed + 1000), eps=eps)
    for name, err in errs.items():
        assert err <= tol, f"{type(layer).__name__} {name}: rel err {err:.3e}"


def _grad_errors_eps_ladder(layer, x, seed, ladder=(1e-6, 1e-5, 3e-5)):
    """Best finite-difference match per entry over several step sizes.

    Deep stacks pinch the usable eps window from both sides: tiny steps drown
    small-gradient entries in roundoff, large steps straddle ReLU kinks when
    an activation sits near zero.  A real backward bug fails at every step
    size, so each entry is scored by its best eps.
    """
    merged: dict[str, float] = {}
    for eps in ladder:
        for name, err in check_layer(layer, x, _rng(seed + 1000), eps=eps).items():
            merged[name] = min(err, merged.get(name, np.inf))
    return merged


def _random_resblock(seed, projection, dtype=np.float64):
    """A ResBlock and matching input at a generic point in parameter space.

    Biases, scales, and running stats are pushed off their symmetric
    defaults: exact zeros otherwise propagate onto ReLU kinks, where finite
    differences straddle the nondifferentiable point.
    """
    rng = _rng(seed)
    C_in = int(rng.integers(1, 4))
    C_out = C_in + int(rng.integers(1, 4)) if projection else C_in
    L = 2 * int(rng.integers(2, 6))
    block = ResBlock(C_in, C_out, rng, dtype=dtype)
    for _, p in block.named_parameters():
        if p.value.ndim == 1:
            p.value += 0.2 * rng.standard_normal(p.shape)
    for name, buf in block.named_buffers():
        if name.endswith("running_var"):
            buf[:] = 0.5 + rng.uniform(size=buf.shape)
        else:
            buf[:] = 0.2 * rng.standard_normal(buf.shape)
    x = rng.standard_normal((int(rng.integers(2, 4)), C_in, L)).astype(dtype)
    return block, x


def _conv_reference(x, w, b, gy):
    """Direct per-tap same-padded convolution and its gradients, in float64.

    Returns (y, dx, dw, db) computed one (input channel, tap) pair at a time,
    with no column matrix, as the ground truth for the im2col kernels.
    """
    x, w, b, gy = (np.asarray(a, dtype=np.float64) for a in (x, w, b, gy))
    B, C, L = x.shape
    O, _, k = w.shape
    p = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p)))
    y = np.zeros((B, O, L)) + b[None, :, None]
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for c in range(C):
        for j in range(k):
            tap = xp[:, c, j : j + L]  # (B, L)
            y += w[None, :, c, j, None] * tap[:, None, :]
            dw[:, c, j] = np.einsum("bol,bl->o", gy, tap)
            dxp[:, c, j : j + L] += np.einsum("o,bol->bl", w[:, c, j], gy)
    return y, dxp[:, :, p : p + L], dw, gy.sum(axis=(0, 2))


def _argmax_pool_reference(x, gy):
    """Pair max pool by argmax / take / put: the value and the gradient
    routing the compare-based kernel must reproduce, NaNs and ties included."""
    B, C, L = x.shape
    xr = x.reshape(B, C, L // 2, 2)
    am = np.argmax(xr, axis=3)[..., None]
    y = np.take_along_axis(xr, am, axis=3)[..., 0]
    gx = np.zeros(xr.shape, dtype=gy.dtype)
    np.put_along_axis(gx, am, gy[..., None], axis=3)
    return y, gx.reshape(B, C, L)


class TestConv1d:
    def test_hand_computed_edge_detector(self):
        conv = Conv1d(1, 1, 3, _rng(0), dtype=np.float64)
        conv.weight.value[:] = np.array([[[1.0, 0.0, -1.0]]])
        conv.bias.value[:] = 0.0
        y = conv.forward(np.array([[[1.0, 2.0, 3.0]]]))
        assert np.array_equal(y, np.array([[[-2.0, -2.0, 2.0]]]))

    def test_bias_adds_per_channel(self):
        conv = Conv1d(1, 2, 1, _rng(1), dtype=np.float64)
        conv.weight.value[:] = 0.0
        conv.bias.value[:] = np.array([1.5, -2.0])
        y = conv.forward(np.zeros((1, 1, 4)))
        assert np.allclose(y[0, 0], 1.5) and np.allclose(y[0, 1], -2.0)

    def test_output_shape_preserved(self):
        conv = Conv1d(3, 5, 7, _rng(2))
        y = conv.forward(np.zeros((2, 3, 16), dtype=np.float32))
        assert y.shape == (2, 5, 16)

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("B,C_in,C_out,L,k", [
        (1, 1, 1, 5, 1),    # every dimension minimal
        (1, 1, 3, 9, 3),
        (2, 3, 2, 2, 7),    # shorter than the kernel
        (3, 1, 4, 1, 5),    # a single sample
        (2, 4, 4, 16, 5),
        (4, 16, 16, 32, 7),
    ])
    def test_matches_per_tap_reference(self, B, C_in, C_out, L, k, dtype, tol):
        rng = _rng(B * 1000 + C_in * 100 + L * 10 + k)
        conv = Conv1d(C_in, C_out, k, rng, dtype=dtype)
        conv.bias.value[:] = rng.standard_normal(C_out)
        x = rng.standard_normal((B, C_in, L)).astype(dtype)
        gy = rng.standard_normal((B, C_out, L)).astype(dtype)
        y = conv.forward(x)
        dx = conv.backward(gy)
        want = _conv_reference(x, conv.weight.value, conv.bias.value, gy)
        got = (y, dx, conv.weight.grad, conv.bias.grad)
        for name, g, w in zip(("y", "dx", "dw", "db"), got, want):
            assert g.dtype == dtype and g.shape == w.shape, name
            scale = max(1.0, float(np.max(np.abs(w))))
            assert np.max(np.abs(g - w)) <= tol * scale, name

    def test_rejects_even_kernel(self):
        with pytest.raises(ValueError):
            Conv1d(1, 1, 4, _rng(3))

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("C_in,C_out", [(5, 2), (3, 3), (2, 6)])  # O < C, O = C, O > C
    @pytest.mark.parametrize("B,L", [(1, 9), (2, 2), (3, 1), (4, 16)])  # B = 1; L < k
    def test_transposed_input_gradient_matches_shifted_slices(self, k, C_in, C_out, B, L):
        rng = _rng(k * 1000 + C_in * 100 + C_out * 10 + L)
        w = rng.standard_normal((C_out, C_in, k))
        gy = rng.standard_normal((B, C_out, L))
        shifted = _input_grad_shifted(w, gy)
        transposed = _input_grad_transposed(w, gy)
        want = _conv_reference(rng.standard_normal((B, C_in, L)), w, np.zeros(C_out), gy)[1]
        for got in (shifted, transposed):
            assert got.shape == (B, C_in, L)
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))
        for dtype in (np.float32, np.float64):
            conv = Conv1d(C_in, C_out, k, rng, dtype=dtype)
            x = rng.standard_normal((B, C_in, L)).astype(dtype)
            g = gy.astype(dtype)
            conv.forward(x)
            form = (_input_grad_transposed if k == 1 or C_out <= C_in
                    else _input_grad_shifted)
            assert np.array_equal(conv.backward(g), form(conv.weight.value, g))

    @pytest.mark.parametrize("seed", range(N_SHAPES))
    def test_gradients(self, seed):
        rng = _rng(seed)
        B = int(rng.integers(1, 4))
        C_in = int(rng.integers(1, 5))
        C_out = int(rng.integers(1, 5))
        k = int(rng.choice([1, 3, 5, 7]))
        L = int(rng.integers(max(2, k // 2 + 1), 12))
        layer = Conv1d(C_in, C_out, k, rng, dtype=np.float64)
        x = rng.standard_normal((B, C_in, L))
        _assert_grads_ok(layer, x, seed)


class TestBatchNorm1d:
    def test_constant_input_maps_to_beta(self):
        bn = BatchNorm1d(2, dtype=np.float64)
        bn.beta.value[:] = np.array([0.5, -1.0])
        y = bn.forward(np.full((3, 2, 4), 7.0))
        assert np.allclose(y[:, 0, :], 0.5, atol=1e-6)
        assert np.allclose(y[:, 1, :], -1.0, atol=1e-6)

    def test_normalizes_batch_statistics(self):
        rng = _rng(4)
        bn = BatchNorm1d(3, dtype=np.float64)
        x = 2.0 + 3.0 * rng.standard_normal((8, 3, 16))
        y = bn.forward(x)
        assert np.allclose(y.mean(axis=(0, 2)), 0.0, atol=1e-10)
        assert np.allclose(y.var(axis=(0, 2)), 1.0, atol=1e-3)

    def test_running_stats_update(self):
        rng = _rng(5)
        bn = BatchNorm1d(2, dtype=np.float64)
        x = rng.standard_normal((4, 2, 8))
        bn.forward(x)
        want_mean = 0.1 * x.mean(axis=(0, 2))
        want_var = 0.9 * 1.0 + 0.1 * x.var(axis=(0, 2))
        assert np.allclose(bn.running_mean, want_mean, atol=1e-12)
        assert np.allclose(bn.running_var, want_var, atol=1e-12)

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("B,C,L", [(1, 1, 1), (1, 3, 7), (5, 2, 1), (64, 4, 256),
                                       (64, 16, 64)])
    def test_channel_sums_match_numpy_reductions(self, B, C, L, dtype, tol):
        # each channel sum must agree with numpy's reduction up to tol times
        # (1 + the sum of the absolute terms)
        def assert_sum(got, terms, weight=1.0):
            want = weight * terms.sum(axis=(0, 2))
            bound = tol * (1.0 + weight * np.abs(terms).sum(axis=(0, 2)))
            assert got.dtype == dtype and np.all(np.abs(got - want) <= bound)

        rng = _rng(B * 100 + C * 10 + L)
        bn = BatchNorm1d(C, dtype=dtype)  # running stats start at 0 and 1
        x = (1.5 + 2.0 * rng.standard_normal((B, C, L))).astype(dtype)
        gy = rng.standard_normal((B, C, L)).astype(dtype)
        y = bn.forward(x)
        n = B * L
        mean = x.mean(axis=(0, 2))
        centred = x - mean[:, None]
        assert_sum(bn.running_mean / 0.1, x, 1.0 / n)
        assert_sum((bn.running_var - 0.9) / 0.1, np.square(centred), 1.0 / n)
        xhat = centred / np.sqrt(np.square(centred).mean(axis=(0, 2)) + bn.eps)[:, None]
        assert np.max(np.abs(y - xhat)) <= 10 * tol * max(1.0, float(np.max(np.abs(xhat))))
        bn.backward(gy)
        assert_sum(bn.beta.grad, gy)
        assert_sum(bn.gamma.grad, gy * xhat)

    def test_eval_mode_uses_running_stats(self):
        bn = BatchNorm1d(1, dtype=np.float64)
        bn.running_mean[:] = 2.0
        bn.running_var[:] = 4.0
        bn.set_training(False)
        y = bn.forward(np.array([[[2.0, 4.0]]]))
        assert np.allclose(y, [[[0.0, 2.0 / np.sqrt(4.0 + 1e-5)]]], atol=1e-6)

    @pytest.mark.parametrize("seed", range(N_SHAPES))
    def test_gradients_train_mode(self, seed):
        rng = _rng(100 + seed)
        B = int(rng.integers(2, 5))
        C = int(rng.integers(1, 5))
        L = int(rng.integers(2, 10))
        layer = BatchNorm1d(C, dtype=np.float64)
        layer.gamma.value[:] = rng.standard_normal(C)
        layer.beta.value[:] = rng.standard_normal(C)
        x = rng.standard_normal((B, C, L))
        _assert_grads_ok(layer, x, seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_eval_mode(self, seed):
        rng = _rng(200 + seed)
        layer = BatchNorm1d(3, dtype=np.float64)
        layer.running_mean[:] = rng.standard_normal(3)
        layer.running_var[:] = 0.5 + rng.uniform(size=3)
        layer.set_training(False)
        x = rng.standard_normal((2, 3, 6))
        _assert_grads_ok(layer, x, seed)


class TestReLU:
    def test_clamps_negatives(self):
        y = ReLU().forward(np.array([[[-1.0, 0.0, 2.0]]]))
        assert np.array_equal(y, [[[0.0, 0.0, 2.0]]])

    def test_backward_is_zero_at_the_kink(self):
        relu = ReLU()
        x = np.array([[[-1.0, 0.0, -0.0, 2.0]]])
        relu.forward(x)
        dx = relu.backward(np.full(x.shape, 3.0))
        assert np.array_equal(dx, [[[0.0, 0.0, 0.0, 3.0]]])

    @pytest.mark.parametrize("seed", range(N_SHAPES))
    def test_gradients(self, seed):
        rng = _rng(300 + seed)
        shape = (int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(1, 12)))
        x = rng.standard_normal(shape)
        x[np.abs(x) < 1e-3] += 0.1  # keep away from the kink
        _assert_grads_ok(ReLU(), x, seed)


class TestMaxPool1d:
    def test_halves_length(self):
        y = MaxPool1d().forward(np.array([[[1.0, 3.0, 2.0, 0.0]]]))
        assert np.array_equal(y, [[[3.0, 2.0]]])

    def test_tie_routes_to_first(self):
        pool = MaxPool1d()
        pool.forward(np.array([[[5.0, 5.0]]]))
        dx = pool.backward(np.array([[[1.0]]]))
        assert np.array_equal(dx, [[[1.0, 0.0]]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_argmax_reference_with_ties_and_nans(self, seed, dtype):
        rng = _rng(450 + seed)
        shape = (int(rng.integers(1, 4)), int(rng.integers(1, 5)), 2 * int(rng.integers(4, 12)))
        x = rng.integers(-2, 3, size=shape).astype(dtype)  # many tied pairs
        flat = x.reshape(-1)
        flat[rng.choice(flat.size, size=max(1, flat.size // 8), replace=False)] = np.nan
        gy = rng.standard_normal((shape[0], shape[1], shape[2] // 2)).astype(dtype)
        pool = MaxPool1d()
        y = pool.forward(x)
        dx = pool.backward(gy)
        want_y, want_dx = _argmax_pool_reference(x, gy)
        assert y.dtype == dtype and dx.dtype == dtype
        assert np.array_equal(y, want_y, equal_nan=True)
        assert np.array_equal(dx, want_dx)

    def test_nan_routes_to_first_nan(self):
        nan = np.nan
        pool = MaxPool1d()
        y = pool.forward(np.array([[[nan, 1.0, 1.0, nan, nan, nan, 2.0, 2.0]]]))
        assert np.array_equal(y, [[[nan, nan, nan, 2.0]]], equal_nan=True)
        dx = pool.backward(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
        assert np.array_equal(dx, [[[1.0, 0.0, 0.0, 2.0, 3.0, 0.0, 4.0, 0.0]]])

    @pytest.mark.parametrize("seed", range(N_SHAPES))
    def test_gradients(self, seed):
        rng = _rng(400 + seed)
        shape = (int(rng.integers(1, 4)), int(rng.integers(1, 5)), 2 * int(rng.integers(1, 7)))
        x = rng.standard_normal(shape)
        _assert_grads_ok(MaxPool1d(), x, seed)


class TestFlattenLinear:
    def test_flatten_shape(self):
        flat = Flatten()
        y = flat.forward(np.arange(24.0).reshape(2, 3, 4))
        assert y.shape == (2, 12)
        assert np.array_equal(flat.backward(y).shape, (2, 3, 4))

    def test_linear_affine(self):
        lin = Linear(3, 2, _rng(6), dtype=np.float64)
        lin.weight.value[:] = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        lin.bias.value[:] = np.array([0.0, 1.0])
        y = lin.forward(np.array([[1.0, 2.0, 3.0]]))
        assert np.array_equal(y, [[1.0, 5.0]])

    @pytest.mark.parametrize("seed", range(N_SHAPES))
    def test_flatten_gradients(self, seed):
        rng = _rng(500 + seed)
        shape = (int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(1, 8)))
        _assert_grads_ok(Flatten(), rng.standard_normal(shape), seed)

    @pytest.mark.parametrize("seed", range(N_SHAPES))
    def test_linear_gradients(self, seed):
        rng = _rng(600 + seed)
        n_in = int(rng.integers(1, 10))
        n_out = int(rng.integers(1, 8))
        layer = Linear(n_in, n_out, rng, dtype=np.float64)
        x = rng.standard_normal((int(rng.integers(1, 5)), n_in))
        _assert_grads_ok(layer, x, seed)


class TestResBlock:
    def test_zero_residual_reduces_to_relu(self):
        # zeroed main branch + identity shortcut: y = ReLU(x)
        rng = _rng(7)
        block = ResBlock(3, 3, rng, dtype=np.float64)
        for name, p in block.named_parameters():
            if "weight" in name or "bias" in name:
                p.value[:] = 0.0
        x = rng.standard_normal((2, 3, 8))
        y = block.forward(x)
        assert np.allclose(y, np.maximum(x, 0.0), atol=1e-12)

    def test_projection_when_channels_change(self):
        block = ResBlock(2, 4, _rng(8), dtype=np.float64)
        names = [n for n, _ in block.named_parameters()]
        assert any(n.startswith("shortcut") for n in names)
        y = block.forward(np.zeros((1, 2, 8)))
        assert y.shape == (1, 4, 8)

    def test_identity_shortcut_when_channels_match(self):
        block = ResBlock(4, 4, _rng(9), dtype=np.float64)
        names = [n for n, _ in block.named_parameters()]
        assert not any(n.startswith("shortcut") for n in names)

    def test_output_nonnegative(self):
        block = ResBlock(2, 3, _rng(10), dtype=np.float64)
        y = block.forward(_rng(11).standard_normal((2, 2, 8)))
        assert np.all(y >= 0.0)

    @staticmethod
    def _random_block(seed, projection):
        return _random_resblock(seed, projection)

    @pytest.mark.parametrize("projection", [False, True])
    @pytest.mark.parametrize("seed", range(N_SHAPES // 2))
    def test_gradients_train_mode(self, seed, projection):
        # a conv bias straight into a batch norm is an exactly-null direction
        # during training (mean subtraction absorbs it), so those entries are
        # verified in eval mode below and skipped here
        block, x = self._random_block(700 + seed, projection)
        errs = _grad_errors_eps_ladder(block, x, 1700 + seed)
        for name, err in errs.items():
            if "conv" in name and name.endswith("bias"):
                continue
            assert err <= TOL, f"ResBlock {name}: rel err {err:.3e}"

    @pytest.mark.parametrize("projection", [False, True])
    @pytest.mark.parametrize("seed", range(N_SHAPES // 2))
    def test_gradients_eval_mode(self, seed, projection):
        # frozen normalization makes every parameter live, biases included
        block, x = self._random_block(800 + seed, projection)
        block.set_training(False)
        errs = _grad_errors_eps_ladder(block, x, seed)
        for name, err in errs.items():
            assert err <= TOL, f"ResBlock {name}: rel err {err:.3e}"

    def test_train_mode_bias_gradients_are_null(self):
        # structural fact worth pinning: batch norm absorbs the conv biases
        block, x = self._random_block(999, True)
        rng = _rng(42)
        R = rng.standard_normal(block.forward(x).shape)
        for _, p in block.named_parameters():
            p.grad[...] = 0
        block.forward(x)
        block.backward(R)
        for name, p in block.named_parameters():
            if "conv" in name and name.endswith("bias"):
                assert np.max(np.abs(p.grad)) < 1e-10, name


class TestSequential:
    def test_walks_children_in_order(self):
        rng = _rng(12)
        seq = Sequential([
            ("conv", Conv1d(1, 2, 3, rng, dtype=np.float64)),
            ("relu", ReLU()),
            ("pool", MaxPool1d()),
        ])
        y = seq.forward(rng.standard_normal((2, 1, 8)))
        assert y.shape == (2, 2, 4)
        names = [n for n, _ in seq.named_parameters()]
        assert names == ["conv.weight", "conv.bias"]

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_through_stack(self, seed):
        # normalization placed first: a conv bias feeding straight into a
        # batch norm is an exactly-null direction that finite differences
        # cannot resolve, so the stack keeps every parameter live instead
        rng = _rng(900 + seed)
        seq = Sequential([
            ("bn", BatchNorm1d(2, dtype=np.float64)),
            ("c1", Conv1d(2, 3, 3, rng, dtype=np.float64)),
            ("act", ReLU()),
            ("c2", Conv1d(3, 2, 5, rng, dtype=np.float64)),
        ])
        x = rng.standard_normal((2, 2, 8))
        _assert_grads_ok(seq, x, seed)


class TestLoss:
    def test_uniform_logits_give_log_k(self):
        for k in (2, 10, 64):
            loss, _ = softmax_cross_entropy(np.zeros((4, k)), np.zeros(4, dtype=np.int64))
            assert loss == pytest.approx(np.log(k), rel=1e-12)

    def test_softmax_rows_normalize(self):
        p = softmax(_rng(13).standard_normal((5, 7)))
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.all(p > 0)

    def test_shift_invariance(self):
        logits = _rng(14).standard_normal((3, 5))
        l1, g1 = softmax_cross_entropy(logits, np.array([0, 2, 4]))
        l2, g2 = softmax_cross_entropy(logits + 1000.0, np.array([0, 2, 4]))
        assert l1 == pytest.approx(l2, rel=1e-9)
        assert np.allclose(g1, g2, atol=1e-12)

    def test_grad_rows_sum_to_zero(self):
        logits = _rng(15).standard_normal((6, 9))
        _, g = softmax_cross_entropy(logits, np.arange(6) % 9)
        assert np.allclose(g.sum(axis=1), 0.0, atol=1e-12)

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))

    @pytest.mark.parametrize("seed", range(N_SHAPES))
    def test_gradient_matches_finite_differences(self, seed):
        rng = _rng(1100 + seed)
        B = int(rng.integers(1, 6))
        K = int(rng.integers(2, 12))
        logits = rng.standard_normal((B, K))
        labels = rng.integers(0, K, size=B)
        _, g = softmax_cross_entropy(logits, labels)
        num = numeric_grad(lambda: softmax_cross_entropy(logits, labels)[0], logits)
        denom = np.maximum(np.abs(g), 1e-6)
        assert np.max(np.abs(g - num) / denom) <= TOL


class TestParameter:
    def test_grad_is_zeros_allocated_on_first_use(self):
        p = Parameter(np.arange(3, dtype=np.float32))
        assert p._grad is None
        assert p.grad.dtype == np.float32 and np.array_equal(p.grad, np.zeros(3))
        assert p.grad is p.grad
        p.grad += 2.0
        assert np.array_equal(p.grad, np.full(3, 2.0))

    def test_optimizer_allocates_missing_gradients(self):
        params = [Parameter(np.ones(2)), Parameter(np.ones((2, 3)))]
        params[0].grad[:] = 4.0
        AdamW(params)
        assert np.array_equal(params[0]._grad, np.full(2, 4.0))
        assert np.array_equal(params[1]._grad, np.zeros((2, 3)))


class TestAdamW:
    def test_decay_only_step(self):
        # zero gradient: the decoupled decay is the whole update
        p = Parameter(np.array([1.0, -2.0, 0.5]))
        opt = AdamW([p], lr=1e-4, weight_decay=0.01)
        opt.step()
        assert np.allclose(p.value, np.array([1.0, -2.0, 0.5]) * (1 - 1e-6), rtol=0, atol=1e-15)

    def test_first_step_is_signed(self):
        p = Parameter(np.array([0.0, 0.0]))
        p.grad[:] = np.array([3.0, -0.7])
        opt = AdamW([p], lr=1e-3, weight_decay=0.0)
        opt.step()
        assert np.allclose(p.value, [-1e-3, 1e-3], rtol=1e-3)

    def test_zero_grad_clears(self):
        p = Parameter(np.ones(4))
        p.grad[:] = 5.0
        opt = AdamW([p])
        opt.zero_grad()
        assert np.array_equal(p.grad, np.zeros(4))

    def test_descends_quadratic(self):
        # minimize (p - 3)^2: iterates must move toward 3 monotonically at first
        p = Parameter(np.array([0.0]))
        opt = AdamW([p], lr=0.05, weight_decay=0.0)
        history = []
        for _ in range(200):
            opt.zero_grad()
            p.grad[:] = 2.0 * (p.value - 3.0)
            opt.step()
            history.append(float(p.value[0]))
        assert abs(history[-1] - 3.0) < 0.2
        assert history[0] < history[50] < history[199] + 0.3


def _eval_layers(dtype, seed):
    """Every layer kind in eval mode with an input that suits it."""
    rng = _rng(seed)
    bn = BatchNorm1d(3, dtype=dtype)
    bn.gamma.value[:] = rng.uniform(0.5, 1.5, 3)
    bn.beta.value[:] = rng.standard_normal(3)
    bn.running_mean[:] = rng.standard_normal(3)
    bn.running_var[:] = rng.uniform(0.5, 1.5, 3)
    conv = Conv1d(3, 4, 5, rng, dtype=dtype)
    conv.bias.value[:] = rng.standard_normal(4)
    seq = Sequential([("conv", Conv1d(3, 3, 3, rng, dtype=dtype)), ("bn", bn),
                      ("relu", ReLU()), ("pool", MaxPool1d())])
    x3 = rng.standard_normal((2, 3, 8)).astype(dtype)
    layers = [
        ("conv", conv, x3),
        ("bn", bn, x3),
        ("relu", ReLU(), x3),
        ("pool", MaxPool1d(), x3),
        ("flatten", Flatten(), x3),
        ("linear", Linear(6, 4, rng, dtype=dtype), rng.standard_normal((5, 6)).astype(dtype)),
        ("sequential", seq, x3),
    ]
    for projection in (False, True):
        block, x = _random_resblock(seed + int(projection), projection, dtype)
        layers.append((f"resblock projection={projection}", block, x))
    for _, layer, _ in layers:
        layer.set_training(False)
    return layers


class TestCacheFreeForward:
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_eval_mode_forward(self, dtype, tol, seed):
        for name, layer, x in _eval_layers(dtype, 40 + seed):
            want = layer.forward(x)
            got = layer.forward(x, cache=False)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            scale = float(np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) <= tol * scale, name

    def test_no_cache_and_nothing_written(self, cached_arrays):
        for name, layer, x in _eval_layers(np.float64, 50):
            buffers = [(n, b.copy()) for n, b in layer.named_buffers()]
            x_before = x.copy()
            layer.forward(x, cache=False)
            assert cached_arrays(layer) == [], name
            assert np.array_equal(x, x_before), name
            for (n, before), (_, after) in zip(buffers, layer.named_buffers()):
                assert np.array_equal(before, after), f"{name} {n}"

    def test_training_mode_raises(self):
        x = _rng(51).standard_normal((2, 2, 8))
        for layer in (BatchNorm1d(2, dtype=np.float64),
                      ResBlock(2, 2, _rng(52), dtype=np.float64),
                      ResBlock(2, 3, _rng(53), dtype=np.float64),
                      Sequential([("bn", BatchNorm1d(2, dtype=np.float64))])):
            layer.set_training(True)
            buffers = [b.copy() for _, b in layer.named_buffers()]
            with pytest.raises(ValueError):
                layer.forward(x, cache=False)
            for before, (_, after) in zip(buffers, layer.named_buffers()):
                assert np.array_equal(before, after)

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("B,C,L", [(1, 1, 1), (1, 3, 2), (2, 2, 6), (3, 4, 17)])
    def test_im2col_is_bitwise_pad_and_sliding_window(self, k, B, C, L):
        from numpy.lib.stride_tricks import sliding_window_view

        rng = _rng(k * 100 + B * 10 + L)
        conv = Conv1d(C, 2, k, rng)
        conv.bias.value[:] = rng.standard_normal(2)
        x = rng.standard_normal((B, C, L)).astype(np.float32)
        p = (k - 1) // 2
        want = sliding_window_view(np.pad(x, ((0, 0), (0, 0), (p, p))), L, axis=2)
        want = want.reshape(B, C * k, L)
        y = conv.forward(x)
        assert np.array_equal(conv._cols, want)
        y_want = conv.weight.value.reshape(2, -1) @ want
        y_want += conv.bias.value[:, None]
        assert np.array_equal(y, y_want)
        assert np.array_equal(conv.forward(x, cache=False), y)

    def test_backward_uses_up_the_cache(self, cached_arrays):
        rng = _rng(54)
        seq = Sequential([
            ("conv", Conv1d(2, 3, 3, rng, dtype=np.float64)),
            ("bn", BatchNorm1d(3, dtype=np.float64)),
            ("relu", ReLU()),
            ("block", ResBlock(3, 4, rng, dtype=np.float64)),
            ("pool", MaxPool1d()),
            ("flatten", Flatten()),
            ("fc", Linear(16, 5, rng, dtype=np.float64)),
        ])
        y = seq.forward(rng.standard_normal((2, 2, 8)))
        assert cached_arrays(seq) != []
        seq.backward(np.ones_like(y))
        assert cached_arrays(seq) == []
