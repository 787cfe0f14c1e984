"""Core kernel tests: layer forwards against naive-loop oracles, gradient
checks, optimizer recurrences, and numerical-stability properties."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskcast import nn


def zero_params(module):
    for p in module.params():
        p.value[...] = 0.0


def traced_peak_bytes(fn):
    """fn's result and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


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
        members = 3
        stack = nn.MLP(sizes, nn.seeded_rng(21), name="s", members=members)
        rng = nn.seeded_rng(21)
        mlps = [nn.MLP(sizes, rng) for _ in range(members)]
        assert [(p.name, p.shape) for p in stack.params()] == \
            [(f"s.{i}.{x}", (members,) + p.shape)
             for i, layer in enumerate(mlps[0].layers)
             for x, p in zip("Wb", layer.params())]

        rng = nn.seeded_rng(22)
        x = rng.normal(size=(9, sizes[0]))
        g = rng.normal(size=(members, 9, sizes[-1]))
        out, ctx = stack.forward(x)
        dx = stack.backward(ctx, g)
        for k, mlp in enumerate(mlps):
            out_k, ctx_k = mlp.forward(x)
            assert np.array_equal(out[k], out_k)
            assert np.array_equal(dx[k], mlp.backward(ctx_k, g[k]))
            for stacked, own in zip(stack.params(), mlp.params()):
                assert np.array_equal(stacked.value[k], own.value), own.name
                assert np.array_equal(stacked.grad[k], own.grad), own.name

    def test_stacked_linear_takes_one_input_per_member(self):
        rng = nn.seeded_rng(23)
        lin = nn.Linear(rng.normal(size=(2, 4, 3)), "s")
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
        lin = nn.Linear(np.zeros((2, 4, 3)), "s")
        with pytest.raises(nn.DimensionError, match="s"):
            lin.forward(np.zeros((5, 3)))


class TestReLUAtZero:
    """The ReLU passes no gradient where its pre-activation is exactly 0.0
    or -0.0, as a mask of pre-activation > 0 does."""

    @pytest.mark.parametrize("members", [None, 2],
                             ids=["unstacked", "stacked"])
    def test_no_gradient_through_a_zero_pre_activation(self, members):
        rng = nn.seeded_rng(33)
        mlp = nn.MLP([2, 4, 3], rng, members=members)
        first = mlp.layers[0]
        # proportional rows: units 0 and 1 cancel to exactly 0.0 on both
        x = np.array([[1.0, 2.0], [3.0, 6.0]])
        first.W.value[..., 0] = [2.0, -1.0]
        first.W.value[..., 1] = [-4.0, 2.0]
        first.b.value[...] = rng.normal(size=first.b.shape)
        first.b.value[..., :2] = 0.0
        g = rng.normal(size=((2,) if members else ()) + (2, 3))
        out, ctx = mlp.forward(x)
        pre = x @ first.W.value + first.b.value[..., None, :]
        assert (pre[..., :2] == 0.0).all() and (pre[..., 2:] != 0.0).all()
        # a -0.0 pre-activation leaves a signed zero in the kept input
        ctx[1][..., 1] = -0.0
        dx = mlp.backward(ctx, g)

        second = mlp.layers[1]
        dhidden = (g @ np.swapaxes(second.W.value, -1, -2)) * (pre > 0.0)
        assert (dhidden[..., :2] == 0.0).all()
        assert np.array_equal(dx, dhidden
                              @ np.swapaxes(first.W.value, -1, -2))
        assert np.array_equal(first.W.grad, np.swapaxes(x, -1, -2)
                              @ dhidden)
        assert (first.W.grad[..., :2] == 0.0).all()
        assert (first.b.grad[..., :2] == 0.0).all()


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
        cell = nn.LSTM(3, 2, nn.seeded_rng(0))
        zero_params(cell)
        wx, wh, b = cell.gate_weights()
        (h, c), _ = cell.step(np.ones((1, 3)) @ wx, np.zeros((1, 2)),
                              np.zeros((1, 2)), wh, b)
        assert np.array_equal(h, np.zeros((1, 2)))
        assert np.array_equal(c, np.zeros((1, 2)))

    def test_zero_params_unit_cell(self):
        # gates sigmoid(0)=0.5, candidate tanh(0)=0:
        # c' = 0.5*1, h = 0.5*tanh(0.5)
        cell = nn.LSTM(2, 1, nn.seeded_rng(0))
        zero_params(cell)
        wx, wh, b = cell.gate_weights()
        (h, c), _ = cell.step(np.ones((1, 2)) @ wx, np.zeros((1, 1)),
                              np.ones((1, 1)), wh, b)
        assert c[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert h[0, 0] == pytest.approx(0.5 * np.tanh(0.5), abs=1e-12)
        assert h[0, 0] == pytest.approx(0.2311, abs=1e-4)

    def test_matches_naive_oracle(self):
        rng = nn.seeded_rng(7)
        cell = nn.LSTM(4, 3, rng)
        x = rng.normal(size=(2, 4))
        h0 = rng.normal(size=(2, 3))
        c0 = rng.normal(size=(2, 3))
        wx, wh, b = cell.gate_weights()
        (h, c), _ = cell.step(x @ wx, h0, c0, wh, b)
        h_ref, c_ref = naive_lstm_step(cell, x, h0, c0)
        assert np.allclose(h, h_ref, atol=1e-10)
        assert np.allclose(c, c_ref, atol=1e-10)

    def test_shape_mismatch(self):
        cell = nn.LSTM(4, 3, nn.seeded_rng(0))
        with pytest.raises(nn.DimensionError):
            cell.step(np.zeros((1, 5)), np.zeros((1, 3)), np.zeros((1, 3)),
                      *cell.gate_weights()[1:])

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
        seq = rng.normal(size=(4, 6, 5))
        dh_last = rng.normal(size=(4, 3))
        out, ctx = lstm.forward(seq)
        dseq = lstm.backward(ctx, dh_last)
        lstm_grads = [p.grad.copy() for p in lstm.params()]

        lstm.zero_grad()
        h = c = np.zeros((4, 3))
        steps = []
        wx, wh, b = lstm.gate_weights()
        for t in range(6):
            (h, c), sctx = lstm.step(seq[:, t] @ wx, h, c, wh, b)
            steps.append(sctx)
        assert np.array_equal(out, h)
        dh, dc = dh_last, np.zeros((4, 3))
        dx = [None] * 6
        for t in reversed(range(6)):
            dpre, dh, dc = lstm.backward_step(steps[t], dh, dc)
            lstm.Wx.grad += seq[:, t].T @ dpre
            dx[t] = dpre @ lstm.Wx.value.T
        assert np.array_equal(dseq, np.stack(dx, axis=1))
        for p, want in zip(lstm.params(), lstm_grads):
            assert np.array_equal(p.grad, want), p.name

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_forward_equals_unscaled_textbook_steps(self, n):
        # forward folds the gate scale into Wx, Wh and b once per call; the
        # steps must round as z = (h Wh + x Wx) + b, scaled, then the tanh
        H, in_dim, t = 64, 14, 11
        rng = nn.seeded_rng(40 + n)
        lstm = nn.LSTM(in_dim, H, rng)
        lstm.b.value[:] = rng.normal(scale=0.3, size=4 * H)
        seq = rng.normal(size=(n, t, in_dim))
        scale = np.repeat([0.5, 0.5, 1.0, 0.5], H)
        shift = np.repeat([0.5, 0.5, 0.0, 0.5], H)
        h = c = np.zeros((n, H))
        gates = []
        for step in range(t):
            z = h @ lstm.Wh.value + seq[:, step] @ lstm.Wx.value
            z += lstm.b.value
            a = np.tanh(z * scale) * scale + shift
            i, f, g, o = np.split(a, 4, axis=1)
            c = f * c + i * g
            h = o * np.tanh(c)
            gates.append(a)
        out, (_, steps) = lstm.forward(seq)
        assert np.array_equal(out, h)
        for want, (_, _, i, f, g, o, _) in zip(gates, steps):
            assert np.array_equal(np.concatenate([i, f, g, o], axis=1), want)

    def test_backward_holds_one_step(self):
        # the history LSTM over the 168 rows of a 32-scene minibatch
        n, t, in_dim, H = 168, 11, 14, 64
        rng = nn.seeded_rng(25)
        lstm = nn.LSTM(in_dim, H, rng)
        seq = rng.normal(size=(n, t, in_dim))
        dh_last = rng.normal(size=(n, H))
        _, ctx = lstm.forward(seq)

        # the reference keeps every step's gradient and projects them back
        # to the input in one batched matmul
        _, steps = ctx
        dh, dc = dh_last, np.zeros((n, H))
        dpre = np.empty((t, n, 4 * H))
        for step in reversed(range(t)):
            dpre[step], dh, dc = lstm.backward_step(steps[step], dh, dc)
            lstm.Wx.grad += seq[:, step].T @ dpre[step]
        want_dx = (dpre @ lstm.Wx.value.T).transpose(1, 0, 2)
        want = [p.grad.copy() for p in lstm.params()]

        lstm.zero_grad()
        dx, peak = traced_peak_bytes(lambda: lstm.backward(ctx, dh_last))
        assert np.array_equal(dx, want_dx)
        for p, g in zip(lstm.params(), want):
            assert np.array_equal(p.grad, g), p.name
        assert peak < t * n * 4 * H * 8

    def test_gates_are_the_sigmoid_of_their_pre_activations(self):
        # the i, f and o gates come from one tanh over all four blocks,
        # 0.5 tanh(z / 2) + 0.5, which is nn.sigmoid(z) to within eps
        H = 64
        lstm = nn.LSTM(3, H, nn.seeded_rng(0))
        zero_params(lstm)
        rng = nn.seeded_rng(34)
        special = [800.0, -800.0, np.inf, -np.inf, 0.0, -0.0, np.nan]
        z = np.concatenate([
            rng.normal(scale=scale, size=H * 4 * 256)
            for scale in (0.1, 1.0, 4.0, 40.0)]
            + [np.repeat(special, 4 * H)]).reshape(-1, 4 * H)
        zeros = np.zeros((len(z), H))
        # step takes its pre-activation halved on the sigmoid blocks
        scale = np.repeat([0.5, 0.5, 1.0, 0.5], H)
        _, (_, _, i, f, g, o, _) = lstm.step(z * scale, zeros, zeros,
                                             *lstm.gate_weights()[1:])
        for k, gate in ((0, i), (1, f), (3, o)):
            want = nn.sigmoid(z[:, k * H:(k + 1) * H])
            assert np.array_equal(np.isnan(gate), np.isnan(want))
            finite = ~np.isnan(want)
            assert np.abs(gate - want)[finite].max() <= np.finfo(float).eps
        assert np.array_equal(g, np.tanh(z[:, 2 * H:3 * H]), equal_nan=True)

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


def einsum_mha(mha, q, k, v, mask, g):
    """Output, input gradients and parameter gradients of `mha` written with
    np.einsum products and an np.where mask over the [heads, nq, nk]
    scores, the mask None meaning every key is visible."""
    heads, hd = mha.heads, mha.head_dim
    nq, nk = len(q), len(k)
    W = mha.Wqkv.value
    mask = np.ones((nq, nk), bool) if mask is None else \
        np.broadcast_to(mask, (nq, nk))

    def split(x):
        return x.reshape(len(x), heads, hd).transpose(1, 0, 2)

    def merge(x):
        return x.transpose(1, 0, 2).reshape(x.shape[1], -1)

    Q, K, V = split(q @ W[0] + mha.bq.value), split(k @ W[1]), \
        split(v @ W[2] + mha.bv.value)
    scores = np.einsum("hid,hjd->hij", Q, K) / np.sqrt(hd)
    weights = nn.softmax(np.where(mask, scores, -np.inf))
    att = merge(np.einsum("hij,hjd->hid", weights, V))
    out = att @ mha.Wo.W.value + mha.Wo.b.value

    datt = split(g @ mha.Wo.W.value.T)
    dV = np.einsum("hij,hid->hjd", weights, datt)
    dweights = np.einsum("hid,hjd->hij", datt, V)
    dscores = nn.softmax_backward(weights, dweights) / np.sqrt(hd)
    dQ = merge(np.einsum("hij,hjd->hid", dscores, K))
    dK = merge(np.einsum("hij,hid->hjd", dscores, Q))
    dV = merge(dV)
    grads = {"qkv.W": np.stack([q.T @ dQ, k.T @ dK, v.T @ dV]),
             "q.b": dQ.sum(axis=0), "v.b": dV.sum(axis=0),
             "o.W": att.T @ g, "o.b": g.sum(axis=0)}
    return out, (dQ @ W[0].T, dK @ W[1].T, dV @ W[2].T), grads


class TestAttentionProducts:
    @pytest.mark.parametrize("kind", ["none", "all_true", "partial",
                                      "flat"])
    def test_matches_an_einsum_reference(self, kind):
        rng = nn.seeded_rng(35)
        mha = nn.MultiHeadAttention(8, 2, rng)
        for p in mha.params():
            p.value[...] = rng.normal(scale=0.5, size=p.shape)
        q = rng.normal(size=(5, 8))
        k = rng.normal(size=(6, 8))
        v = rng.normal(size=(6, 8))
        g = rng.normal(size=(5, 8))
        mask = {"none": None, "all_true": np.ones((5, 6), bool),
                "partial": rng.random((5, 6)) < 0.6,
                "flat": np.array([True, False, True, True, False, True])
                }[kind]
        if kind == "partial":
            mask[:, 0] = True
        mha.zero_grad()
        out, ctx = mha.forward(q, k, v, mask)
        dx = mha.backward(ctx, g)
        want_out, want_dx, want_grads = einsum_mha(mha, q, k, v, mask, g)

        def close(got, want):
            return np.abs(got - want).max() <= 1e-15 * max(
                1.0, np.abs(want).max())

        assert close(out, want_out)
        for got, want in zip(dx, want_dx):
            assert close(got, want)
        for p in mha.params():
            assert close(p.grad, want_grads[p.name.split(".", 1)[1]]), \
                p.name


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


class TestParamsInAssignmentOrder:
    def test_attributes_in_order_lists_item_by_item(self):
        rng = nn.seeded_rng(0)

        class Mixed(nn.Module):
            def __init__(self):
                self.scale = nn.Parameter("scale", np.ones(2))
                self.width = 3
                self.heads = [nn.Linear(np.ones((2, 2)), "head.0"),
                              nn.Linear(np.ones((2, 2)), "head.1")]
                self.mlp = nn.MLP([2, 4, 2], rng, name="mlp")

        assert [p.name for p in Mixed().params()] == [
            "scale", "head.0.W", "head.0.b", "head.1.W", "head.1.b",
            "mlp.0.W", "mlp.0.b", "mlp.1.W", "mlp.1.b"]


class TestGradientOnFirstUse:
    def test_allocated_zeroed_on_first_read(self):
        p = nn.Parameter("w", np.ones((2, 3)))
        assert not p.has_grad
        g = p.grad
        assert p.has_grad and g.shape == (2, 3) and not g.any()
        p.grad += 1.0   # in place, then assigned back
        assert p.grad is g and (g == 1.0).all()

    def test_zero_grad_zeroes_only_what_exists(self):
        lin = nn.Linear(np.ones((2, 2)))
        lin.W.grad += 1.0
        lin.zero_grad()
        assert not lin.W.grad.any()
        assert not lin.b.has_grad


class TestAdamStateOnFirstStep:
    def test_moments_appear_at_the_first_step(self):
        p = nn.Parameter("w", np.zeros(10 ** 6))
        b1, b2 = 0.9, 0.999
        opt, peak = traced_peak_bytes(
            lambda: nn.Adam([p], beta1=b1, beta2=b2))
        assert peak < 1 << 20

        g = nn.seeded_rng(25).normal(size=p.shape)
        p.grad[...] = g
        opt.step()
        assert np.array_equal(opt.m[0], (1.0 - b1) * g)
        assert np.array_equal(opt.v[0], (1.0 - b2) * (g * g))


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


    @pytest.mark.parametrize("wd", [0.0, 0.02])
    def test_special_gradients_step_as_the_textbook_form(self, wd):
        # the first step writes m = (1 - b1) g, not 0 b1 + (1 - b1) g: a
        # -0.0 gradient leaves m at -0.0, and the values still match the
        # textbook form bit for bit, infinities and NaNs included
        rng = nn.seeded_rng(33)
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        value0 = rng.normal(size=200)
        value0[:20] = 0.0
        p = nn.Parameter("w", value0.copy())
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        opt = nn.Adam([p], lr=lr, beta1=b1, beta2=b2, eps=eps,
                      weight_decay=wd)
        value, m, v = value0.copy(), np.zeros(200), np.zeros(200)
        with np.errstate(invalid="ignore"):
            for t in range(1, 4):
                g = rng.normal(size=200)
                g[rng.integers(0, 200, size=60)] = rng.choice(specials, 60)
                p.grad[...] = g
                opt.step()
                m = b1 * m + (1.0 - b1) * g
                v = b2 * v + (1.0 - b2) * (g * g)
                update = (m / (1.0 - b1 ** t)) / (
                    np.sqrt(v / (1.0 - b2 ** t)) + eps)
                value = value - lr * (update + wd * value)
                assert p.value.tobytes() == value.tobytes()

    def test_a_gradient_is_allocated_zeroed(self):
        p = nn.Parameter("w", np.ones((3, 4)))
        assert not p.has_grad
        assert p.grad.tobytes() == np.zeros((3, 4)).tobytes()

    @pytest.mark.parametrize("shape", [(3, 128, 128), (3, 129, 131)])
    def test_chunked_step_equals_the_whole_array_update(self, shape):
        # a parameter of several chunks, the last one whole or partial,
        # steps bit for bit as the update over the whole array
        rng = nn.seeded_rng(32)
        p = nn.Parameter("w", rng.normal(size=shape))
        assert p.value.size > 2 * nn.ADAM_CHUNK
        lr, b1, b2, eps, wd = 0.01, 0.9, 0.999, 1e-8, 0.02
        opt = nn.Adam([p], lr=lr, beta1=b1, beta2=b2, eps=eps,
                      weight_decay=wd)
        value, m, v = p.value.copy(), np.zeros(shape), np.zeros(shape)
        for t in range(1, 4):
            g = rng.normal(size=shape)
            p.grad[...] = g
            opt.step()
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            update = (m / (1.0 - b1 ** t)) / (
                np.sqrt(v / (1.0 - b2 ** t)) + eps)
            value = value - lr * (update + wd * value)
            assert np.array_equal(p.value, value)


class TestGradCheck:
    def test_detects_broken_gradient(self):
        rng = nn.seeded_rng(11)
        lin = nn.Linear(nn.glorot_uniform(rng, 3, 2))
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
