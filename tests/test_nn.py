"""Core kernel tests: layer forwards against naive-loop oracles, gradient
checks, optimizer recurrences, and numerical-stability properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskcast import nn


def zero_params(module):
    for p in module.params():
        p.value[...] = 0.0


# --------------------------------------------------------------------------
# Oracles
# --------------------------------------------------------------------------

def naive_mlp_forward(mlp, x):
    """Element-by-element reimplementation of the MLP forward pass."""
    out = []
    for row in np.atleast_2d(x):
        h = list(row)
        for li, layer in enumerate(mlp.layers):
            W, b = layer.W.value, layer.b.value
            nxt = []
            for j in range(W.shape[1]):
                acc = b[j]
                for i in range(W.shape[0]):
                    acc += h[i] * W[i, j]
                nxt.append(acc)
            if li < len(mlp.layers) - 1:
                nxt = [v if v > 0 else 0.0 for v in nxt]
            h = nxt
        out.append(h)
    return np.array(out)


def naive_lstm_step(cell, x, h_prev, c_prev):
    """Gate-by-gate scalar evaluation of one LSTM step."""
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    H = cell.hidden_dim
    pre = x @ cell.Wx.value + h_prev @ cell.Wh.value + cell.b.value
    h_out = np.zeros_like(h_prev)
    c_out = np.zeros_like(c_prev)
    for n in range(x.shape[0]):
        for k in range(H):
            i = sig(pre[n, k])
            f = sig(pre[n, H + k])
            g = np.tanh(pre[n, 2 * H + k])
            o = sig(pre[n, 3 * H + k])
            c_out[n, k] = f * c_prev[n, k] + i * g
            h_out[n, k] = o * np.tanh(c_out[n, k])
    return h_out, c_out


def adam_scalar_oracle(lr, beta1, beta2, eps, wd, x0, grads):
    """The Adam recurrence evaluated step by step on one scalar."""
    m = v = 0.0
    x = x0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        x -= lr * (mhat / (np.sqrt(vhat) + eps) + wd * x)
    return x


# --------------------------------------------------------------------------
# MLP
# --------------------------------------------------------------------------

class TestMLP:
    def test_identity_single_layer(self):
        mlp = nn.MLP([2, 2], nn.seeded_rng(0))
        mlp.layers[0].W.value[...] = np.eye(2)
        mlp.layers[0].b.value[...] = 0.0
        out = mlp.forward(np.array([[1.0, 2.0]]))[0]
        assert np.array_equal(out, [[1.0, 2.0]])

    def test_bias_only(self):
        mlp = nn.MLP([2, 1], nn.seeded_rng(0))
        zero_params(mlp)
        mlp.layers[0].b.value[...] = 3.0
        out = mlp.forward(np.array([[5.0, -7.0]]))[0]
        assert np.array_equal(out, [[3.0]])

    def test_matches_naive_oracle(self):
        mlp = nn.MLP([3, 5, 2], nn.seeded_rng(7))
        x = nn.seeded_rng(8).normal(size=(4, 3))
        assert np.allclose(mlp.forward(x)[0], naive_mlp_forward(mlp, x),
                           atol=1e-10)

    def test_dimension_error_names_layer(self):
        mlp = nn.MLP([3, 2], nn.seeded_rng(0), name="enc")
        with pytest.raises(nn.DimensionError, match="enc.0"):
            mlp.forward(np.zeros((1, 4)))

    def test_grad_check(self):
        rng = nn.seeded_rng(1)
        mlp = nn.MLP([4, 6, 3], rng)
        x = rng.normal(size=(5, 4))
        r = rng.normal(size=(5, 3))

        def loss():
            mlp.zero_grad()
            out, ctx = mlp.forward(x)
            mlp.backward(ctx, r)
            return float((out * r).sum())

        assert nn.grad_check(loss, mlp.params()) < 1e-5


class TestStacked:
    @pytest.mark.parametrize("sizes", [[5, 4], [5, 7, 4], [3, 6, 6, 2]])
    def test_stacked_mlp_equals_its_members(self, sizes):
        # the same draws, outputs and gradients, bit for bit, as one MLP
        # per member created in member order
        names = ["a", "b", "c"]
        stack = nn.StackedMLP(sizes, names, nn.seeded_rng(21), name="s")
        rng = nn.seeded_rng(21)
        mlps = [nn.MLP(sizes, rng, name=n) for n in names]
        assert [n for n, _, _ in stack.members()] == \
            [p.name for m in mlps for p in m.params()]

        rng = nn.seeded_rng(22)
        x = rng.normal(size=(9, sizes[0]))
        g = rng.normal(size=(len(names), 9, sizes[-1]))
        out, ctx = stack.forward(x)
        dx = stack.backward(ctx, g)
        for k, mlp in enumerate(mlps):
            out_k, ctx_k = mlp.forward(x)
            assert np.array_equal(out[k], out_k)
            assert np.array_equal(dx[k], mlp.backward(ctx_k, g[k]))
        want = {p.name: (p.value, p.grad) for m in mlps for p in m.params()}
        for name, value, grad in stack.members():
            assert np.array_equal(value, want[name][0]), name
            assert np.array_equal(grad, want[name][1]), name

    def test_stacked_linear_takes_one_input_per_member(self):
        rng = nn.seeded_rng(23)
        lin = nn.StackedLinear(rng.normal(size=(2, 4, 3)), ["p", "q"], "s")
        lin.b.value[...] = rng.normal(size=(2, 3))
        x = rng.normal(size=(2, 5, 4))
        g = rng.normal(size=(2, 5, 3))
        out, ctx = lin.forward(x)
        dx = lin.backward(ctx, g)
        W, b = lin.W.value, lin.b.value
        for k in range(2):
            assert np.array_equal(out[k], x[k] @ W[k] + b[k])
            assert np.array_equal(dx[k], g[k] @ W[k].T)
            assert np.array_equal(lin.W.grad[k], x[k].T @ g[k])
            assert np.array_equal(lin.b.grad[k], g[k].sum(axis=0))

    def test_stacked_linear_shape_mismatch(self):
        lin = nn.StackedLinear(np.zeros((2, 4, 3)), ["p", "q"], "s")
        with pytest.raises(nn.DimensionError, match="s"):
            lin.forward(np.zeros((5, 3)))


class TestLayerNorm:
    def test_rounds_as_the_var_formula(self):
        # the variance is the mean of the squared centered input, which is
        # how x.var computes it
        rng = nn.seeded_rng(26)
        ln = nn.LayerNorm(16)
        ln.gamma.value[...] = rng.normal(size=16)
        ln.beta.value[...] = rng.normal(size=16)
        for scale in (1e-3, 1.0, 1e4):
            x = rng.normal(loc=scale, scale=scale, size=(50, 16))
            mu = x.mean(axis=-1, keepdims=True)
            inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + ln.eps)
            want = (x - mu) * inv * ln.gamma.value + ln.beta.value
            assert np.array_equal(ln.forward(x)[0], want)


# --------------------------------------------------------------------------
# LSTM
# --------------------------------------------------------------------------

class TestLSTM:
    def test_zero_params_zero_cell(self):
        cell = nn.LSTMCell(3, 2, nn.seeded_rng(0))
        zero_params(cell)
        (h, c), _ = cell.step(np.ones((1, 3)) @ cell.Wx.value,
                              np.zeros((1, 2)), np.zeros((1, 2)))
        assert np.array_equal(h, np.zeros((1, 2)))
        assert np.array_equal(c, np.zeros((1, 2)))

    def test_zero_params_unit_cell(self):
        # gates sigmoid(0)=0.5, candidate tanh(0)=0:
        # c' = 0.5*1, h = 0.5*tanh(0.5)
        cell = nn.LSTMCell(2, 1, nn.seeded_rng(0))
        zero_params(cell)
        (h, c), _ = cell.step(np.ones((1, 2)) @ cell.Wx.value,
                              np.zeros((1, 1)), np.ones((1, 1)))
        assert c[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert h[0, 0] == pytest.approx(0.5 * np.tanh(0.5), abs=1e-12)
        assert h[0, 0] == pytest.approx(0.2311, abs=1e-4)

    def test_matches_naive_oracle(self):
        rng = nn.seeded_rng(7)
        cell = nn.LSTMCell(4, 3, rng)
        x = rng.normal(size=(2, 4))
        h0 = rng.normal(size=(2, 3))
        c0 = rng.normal(size=(2, 3))
        (h, c), _ = cell.step(x @ cell.Wx.value, h0, c0)
        h_ref, c_ref = naive_lstm_step(cell, x, h0, c0)
        assert np.allclose(h, h_ref, atol=1e-10)
        assert np.allclose(c, c_ref, atol=1e-10)

    def test_shape_mismatch(self):
        cell = nn.LSTMCell(4, 3, nn.seeded_rng(0))
        with pytest.raises(nn.DimensionError):
            cell.step(np.zeros((1, 5)), np.zeros((1, 3)), np.zeros((1, 3)))

    def test_sequence_grad_check(self):
        rng = nn.seeded_rng(2)
        lstm = nn.LSTM(3, 4, rng)
        seq = rng.normal(size=(2, 5, 3))
        r = rng.normal(size=(2, 4))

        def loss():
            lstm.zero_grad()
            out, ctx = lstm.forward(seq)
            lstm.backward(ctx, r)
            return float((out * r).sum())

        assert nn.grad_check(loss, lstm.params()) < 1e-5


    def test_equals_a_step_loop_over_the_unprojected_input(self):
        rng = nn.seeded_rng(24)
        lstm = nn.LSTM(5, 3, rng)
        cell = lstm.cell
        seq = rng.normal(size=(4, 6, 5))
        dh_last = rng.normal(size=(4, 3))
        out, ctx = lstm.forward(seq)
        dseq = lstm.backward(ctx, dh_last)
        lstm_grads = [p.grad.copy() for p in lstm.params()]

        lstm.zero_grad()
        h = c = np.zeros((4, 3))
        steps = []
        for t in range(6):
            (h, c), sctx = cell.step(seq[:, t] @ cell.Wx.value, h, c)
            steps.append(sctx)
        assert np.array_equal(out, h)
        dh, dc = dh_last, np.zeros((4, 3))
        dx = [None] * 6
        for t in reversed(range(6)):
            dpre, dh, dc = cell.backward_step(steps[t], dh, dc)
            cell.Wx.grad += seq[:, t].T @ dpre
            dx[t] = dpre @ cell.Wx.value.T
        assert np.array_equal(dseq, np.stack(dx, axis=1))
        for p, want in zip(lstm.params(), lstm_grads):
            assert np.array_equal(p.grad, want), p.name

    def test_sequence_shape_mismatch(self):
        lstm = nn.LSTM(4, 3, nn.seeded_rng(0), name="hist")
        with pytest.raises(nn.DimensionError, match="hist"):
            lstm.forward(np.zeros((2, 5, 3)))


# --------------------------------------------------------------------------
# Attention
# --------------------------------------------------------------------------

def identity_mha(dim, heads=1):
    mha = nn.MultiHeadAttention(dim, heads, nn.seeded_rng(0))
    mha.Wqkv.value[...] = np.eye(dim)
    mha.Wo.W.value[...] = np.eye(dim)
    for b in (mha.bq, mha.bv, mha.Wo.b):
        b.value[...] = 0.0
    return mha


class TestAttention:
    def test_single_token_identity(self):
        mha = identity_mha(4, heads=2)
        q = np.array([[0.3, -0.2, 0.9, 0.1]])
        v = np.array([[1.0, 2.0, 3.0, 4.0]])
        out = mha.forward(q, v, v)[0]
        assert np.allclose(out, v, atol=1e-12)

    def test_identical_keys_give_shared_value(self):
        mha = identity_mha(2)
        q = np.array([[5.0, -1.0]])
        k = np.array([[0.7, 0.7], [0.7, 0.7]])
        v = np.array([[2.0, 9.0], [2.0, 9.0]])
        out = mha.forward(q, k, v)[0]
        assert np.allclose(out, [[2.0, 9.0]], atol=1e-12)

    def test_masked_key_equals_deletion(self):
        rng = nn.seeded_rng(5)
        mha = nn.MultiHeadAttention(6, 2, rng)
        q = rng.normal(size=(3, 6))
        k = rng.normal(size=(4, 6))
        v = rng.normal(size=(4, 6))
        mask = np.array([True, True, False, True])
        masked = mha.forward(q, k, v, mask)[0]
        deleted = mha.forward(q, k[mask], v[mask])[0]
        assert np.allclose(masked, deleted, atol=1e-12)

    def test_permutation_equivariance_of_keys(self):
        rng = nn.seeded_rng(6)
        mha = nn.MultiHeadAttention(8, 4, rng)
        q = rng.normal(size=(2, 8))
        k = rng.normal(size=(5, 8))
        v = rng.normal(size=(5, 8))
        mask = np.array([True, False, True, True, True])
        perm = np.array([3, 0, 4, 2, 1])
        out = mha.forward(q, k, v, mask)[0]
        out_p = mha.forward(q, k[perm], v[perm], mask[perm])[0]
        assert np.allclose(out, out_p, atol=1e-12)

    @pytest.mark.parametrize("cross", [False, True])
    def test_fused_projection_equals_separate_projections(self, cross):
        # q, k, v passed as one array run the fused [3, D, D] projection;
        # copies run it as three separate projections
        rng = nn.seeded_rng(25)
        mha = nn.MultiHeadAttention(8, 2, rng)
        mha.bq.value[...] = rng.normal(size=8)
        mha.bv.value[...] = rng.normal(size=8)
        kv = rng.normal(size=(5, 8))
        q = rng.normal(size=(3, 8)) if cross else kv
        mask = rng.random((len(q), 5)) < 0.7
        mask[:, 0] = True
        r = rng.normal(size=(len(q), 8))
        results = []
        for args in ((q, kv, kv), (q.copy(), kv.copy(), kv.copy())):
            mha.zero_grad()
            out, ctx = mha.forward(*args, mask)
            grads = mha.backward(ctx, r)
            results.append((out, grads, [p.grad.copy()
                                         for p in mha.params()]))
        (out, grads, pgrads), (out_s, grads_s, pgrads_s) = results
        assert np.array_equal(out, out_s)
        for a, b in zip(grads + tuple(pgrads), grads_s + tuple(pgrads_s)):
            assert np.array_equal(a, b)

    def test_all_masked_raises(self):
        mha = nn.MultiHeadAttention(4, 2, nn.seeded_rng(0))
        q = np.zeros((1, 4))
        with pytest.raises(ValueError, match="empty attention context"):
            mha.forward(q, q, q, np.array([False]))

    def test_heads_must_divide(self):
        with pytest.raises(nn.DimensionError):
            nn.MultiHeadAttention(6, 4, nn.seeded_rng(0))

    def test_grad_check(self):
        rng = nn.seeded_rng(3)
        mha = nn.MultiHeadAttention(6, 2, rng)
        x = rng.normal(size=(4, 6))
        mask = np.array([True, True, False, True])
        r = rng.normal(size=(4, 6))

        def loss():
            mha.zero_grad()
            out, ctx = mha.forward(x, x, x, mask)
            dq, dk, dv = mha.backward(ctx, r)
            return float((out * r).sum())

        assert nn.grad_check(loss, mha.params()) < 1e-5

    def test_input_gradients(self):
        rng = nn.seeded_rng(4)
        mha = nn.MultiHeadAttention(4, 2, rng)
        q = rng.normal(size=(2, 4))
        k = rng.normal(size=(3, 4))
        v = rng.normal(size=(3, 4))
        r = rng.normal(size=(2, 4))
        out, ctx = mha.forward(q, k, v)
        dq, dk, dv = mha.backward(ctx, r)
        h = 1e-6
        for arr, grad in ((q, dq), (k, dk), (v, dv)):
            idx = (0, 1)
            orig = arr[idx]
            arr[idx] = orig + h
            lp = float((mha.forward(q, k, v)[0] * r).sum())
            arr[idx] = orig - h
            lm = float((mha.forward(q, k, v)[0] * r).sum())
            arr[idx] = orig
            assert grad[idx] == pytest.approx((lp - lm) / (2 * h), rel=1e-4)


# --------------------------------------------------------------------------
# Scalar ops
# --------------------------------------------------------------------------

def masked_scatter_sigmoid(x):
    """The LSTM gates' former sigmoid: 1 / (1 + exp(-x)) where x >= 0 and
    exp(x) / (1 + exp(x)) elsewhere, scattered through a boolean mask."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def two_branch_sigmoid(x):
    """The sigmoid with one division per branch, both branches evaluated:
    1 / (1 + exp(-|x|)) where x >= 0 and exp(-|x|) / (1 + exp(-|x|))
    elsewhere."""
    ez = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


class TestSigmoid:
    def test_bit_equal_to_two_branch_form(self):
        rng = nn.seeded_rng(1)
        x = np.concatenate([
            rng.normal(scale=3.0, size=100_000),
            rng.uniform(-800.0, 800.0, size=100_000),
            [0.0, -0.0, 800.0, -800.0, 1e308, -1e308, np.inf, -np.inf,
             np.nextafter(0.0, 1.0), -np.nextafter(0.0, 1.0), np.nan]])
        got, want = nn.sigmoid(x), two_branch_sigmoid(x)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_bit_equal_to_masked_scatter_form(self):
        rng = nn.seeded_rng(0)
        x = np.concatenate([
            rng.normal(scale=3.0, size=100_000),
            rng.uniform(-800.0, 800.0, size=100_000),
            [0.0, -0.0, 800.0, -800.0, 1e308, -1e308, np.inf, -np.inf,
             np.nextafter(0.0, 1.0), -np.nextafter(0.0, 1.0)]])
        got, want = nn.sigmoid(x), masked_scatter_sigmoid(x)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_limits_and_midpoint(self):
        assert nn.sigmoid(np.array([0.0]))[0] == 0.5
        assert np.array_equal(nn.sigmoid(np.array([-np.inf, np.inf])),
                              [0.0, 1.0])
        assert nn.sigmoid(np.array([-800.0]))[0] == 0.0


class TestSoftmax:
    def test_uniform(self):
        assert np.allclose(nn.softmax(np.zeros(3)), np.full(3, 1 / 3),
                           atol=1e-12)

    def test_log2_case(self):
        out = nn.softmax(np.array([np.log(2.0), 0.0, 0.0]))
        assert np.allclose(out, [0.5, 0.25, 0.25], atol=1e-12)

    def test_large_values_no_overflow(self):
        out = nn.softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0, abs=1e-9)
        assert out[1] == pytest.approx(0.0, abs=1e-9)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            nn.softmax(np.array([]))

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3),
                    min_size=1, max_size=16))
    @settings(max_examples=200, deadline=None)
    def test_sums_to_one(self, values):
        out = nn.softmax(np.array(values))
        assert abs(out.sum() - 1.0) < 1e-9
        assert np.all(out >= 0)
        # strict positivity holds whenever exp does not underflow
        if max(values) - min(values) < 700:
            assert np.all(out > 0)


class TestSmoothL1:
    def test_equal_is_zero(self):
        x = np.array([1.0, -2.0, 3.0])
        assert nn.smooth_l1(x, x) == 0.0

    def test_quadratic_branch(self):
        assert nn.smooth_l1(np.array([0.5]), np.array([0.0])) == \
            pytest.approx(0.125, abs=1e-15)

    def test_linear_branch(self):
        assert nn.smooth_l1(np.array([2.0]), np.array([0.0])) == \
            pytest.approx(1.5, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(nn.DimensionError):
            nn.smooth_l1(np.zeros(2), np.zeros(3))

    @given(st.lists(st.floats(min_value=-1e4, max_value=1e4),
                    min_size=1, max_size=8),
           st.lists(st.floats(min_value=-1e4, max_value=1e4),
                    min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative(self, a, b):
        m = min(len(a), len(b))
        val = nn.smooth_l1(np.array(a[:m]), np.array(b[:m]))
        assert val >= 0.0

    def test_gradient_matches_finite_difference(self):
        rng = nn.seeded_rng(9)
        pred = rng.normal(size=(3, 2)) * 2
        target = rng.normal(size=(3, 2))
        g = nn.smooth_l1_grad(pred, target)
        h = 1e-7
        for idx in np.ndindex(pred.shape):
            orig = pred[idx]
            pred[idx] = orig + h
            lp = nn.smooth_l1(pred, target)
            pred[idx] = orig - h
            lm = nn.smooth_l1(pred, target)
            pred[idx] = orig
            assert g[idx] == pytest.approx((lp - lm) / (2 * h), abs=1e-6)


class TestCrossEntropy:
    def test_uniform(self):
        assert nn.cross_entropy(np.full(3, 1 / 3), 1) == \
            pytest.approx(np.log(3.0), abs=1e-12)

    def test_perfect(self):
        assert nn.cross_entropy(np.array([1.0, 0.0, 0.0]), 0) == 0.0

    def test_clamped(self):
        val = nn.cross_entropy(np.array([0.0, 1.0, 0.0]), 0)
        assert val == pytest.approx(-np.log(1e-12), abs=1e-9)
        assert val == pytest.approx(27.631, abs=1e-3)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            nn.cross_entropy(np.array([0.5, 0.5]), 2)


class TestAdam:
    def test_zero_grad_zero_decay_unchanged(self):
        p = nn.Parameter("w", np.array([1.0, -2.0]))
        opt = nn.Adam([p], lr=0.1, weight_decay=0.0)
        opt.step()
        assert np.array_equal(p.value, [1.0, -2.0])

    def test_first_step_is_lr_sign(self):
        p = nn.Parameter("w", np.array([0.0]))
        opt = nn.Adam([p], lr=0.1, weight_decay=0.0)
        p.grad[...] = 1.0
        opt.step()
        assert p.value[0] == pytest.approx(-0.1, rel=1e-6)

    def test_matches_scalar_recurrence(self):
        p = nn.Parameter("w", np.array([0.7]))
        opt = nn.Adam([p], lr=0.05, weight_decay=0.01)
        grads = [0.3, 0.3, -0.2, 0.5]
        for g in grads:
            p.grad[...] = g
            opt.step()
            p.grad[...] = 0.0
        expected = adam_scalar_oracle(0.05, 0.9, 0.999, 1e-8, 0.01, 0.7,
                                      grads)
        assert p.value[0] == pytest.approx(expected, abs=1e-12)


class TestGradCheck:
    def test_detects_broken_gradient(self):
        rng = nn.seeded_rng(11)
        lin = nn.Linear(3, 2, rng)
        x = rng.normal(size=(4, 3))
        r = rng.normal(size=(4, 2))

        def bad_loss():
            lin.zero_grad()
            out, ctx = lin.forward(x)
            lin.backward(ctx, r)
            lin.W.grad *= 1.5  # corrupt
            return float((out * r).sum())

        assert nn.grad_check(bad_loss, lin.params()) > 1e-2

    def test_nonfinite_gradient_raises(self):
        p = nn.Parameter("w", np.array([1.0]))

        def loss():
            p.grad[...] = np.nan
            return 0.0

        with pytest.raises(FloatingPointError):
            nn.grad_check(loss, [p])


def test_finite_forward_on_finite_inputs():
    rng = nn.seeded_rng(12)
    mlp = nn.MLP([4, 8, 4], rng)
    lstm = nn.LSTM(4, 4, rng)
    mha = nn.MultiHeadAttention(4, 2, rng)
    x = rng.normal(size=(3, 4)) * 100
    seq = rng.normal(size=(3, 6, 4)) * 100
    assert np.all(np.isfinite(mlp.forward(x)[0]))
    assert np.all(np.isfinite(lstm.forward(seq)[0]))
    assert np.all(np.isfinite(mha.forward(x, x, x)[0]))
