"""Minimal dense neural-network kernel: layers with explicit forward/backward
passes, an Adam optimizer with decoupled weight decay, and a finite-difference
gradient checker.

Everything runs on float64 numpy arrays. There is no autodiff graph: each layer
caches what its backward pass needs on a call stack, and callers invoke the
backward passes in exact reverse order of the forwards. A layer may be called
several times inside one forward pass (the caches stack up and pop off in
reverse), which is how shared parameters are handled.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class DimensionError(ValueError):
    """Shape mismatch between an input and a layer's parameters."""


def ensure_finite(x: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise FloatingPointError(f"non-finite values in {what}")
    return x


def seeded_rng(seed: int) -> np.random.Generator:
    """Deterministic generator; same seed always yields the same stream."""
    return np.random.default_rng(seed)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape: tuple[int, ...] | None = None) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape or (fan_in, fan_out))


class Parameter:
    """A learnable tensor together with its gradient accumulator."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape


class Module:
    """Base class: parameter listing, gradient reset, cache reset."""

    def params(self) -> list[Parameter]:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for p in self.params():
            p.grad[...] = 0.0

    def clear_cache(self) -> None:
        """Empty every backward cache of this module and its sub-modules.
        A list attribute holding modules lists sub-modules; any other list
        attribute is a cache."""
        for attr in vars(self).values():
            if isinstance(attr, Module):
                attr.clear_cache()
            elif isinstance(attr, list):
                if attr and all(isinstance(x, Module) for x in attr):
                    for sub in attr:
                        sub.clear_cache()
                else:
                    attr.clear()


class Linear(Module):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 name: str = "linear", bias: bool = True):
        self.name = name
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.W = Parameter(f"{name}.W", glorot_uniform(rng, in_dim, out_dim))
        self.b = Parameter(f"{name}.b", np.zeros(out_dim)) if bias else None
        self._cache: list[np.ndarray] = []

    def params(self) -> list[Parameter]:
        return [self.W] if self.b is None else [self.W, self.b]

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise DimensionError(
                f"{self.name}: expected input [*, {self.in_dim}], got {x.shape}")
        self._cache.append(x)
        y = x @ self.W.value
        return y if self.b is None else y + self.b.value

    def backward(self, g: np.ndarray) -> np.ndarray:
        x = self._cache.pop()
        self.W.grad += x.T @ g
        if self.b is not None:
            self.b.grad += g.sum(axis=0)
        return g @ self.W.value.T


class MLP(Module):
    """Fully connected stack with ReLU between layers and a linear output."""

    def __init__(self, sizes: Sequence[int], rng: np.random.Generator,
                 name: str = "mlp"):
        if len(sizes) < 2:
            raise ValueError("MLP needs at least an input and an output size")
        self.name = name
        self.layers = [
            Linear(sizes[i], sizes[i + 1], rng, name=f"{name}.{i}")
            for i in range(len(sizes) - 1)
        ]
        self._relu_cache: list[list[np.ndarray]] = []

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def params(self) -> list[Parameter]:
        return [p for layer in self.layers for p in layer.params()]

    def forward(self, x: np.ndarray) -> np.ndarray:
        masks = []
        for i, layer in enumerate(self.layers):
            x = layer.forward(x)
            if i < len(self.layers) - 1:
                mask = x > 0.0
                masks.append(mask)
                x = x * mask
        self._relu_cache.append(masks)
        return x

    def backward(self, g: np.ndarray) -> np.ndarray:
        masks = self._relu_cache.pop()
        for i in reversed(range(len(self.layers))):
            if i < len(self.layers) - 1:
                g = g * masks[i]
            g = self.layers[i].backward(g)
        return g


class LayerNorm(Module):
    def __init__(self, dim: int, name: str = "ln", eps: float = 1e-5):
        self.name = name
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(f"{name}.gamma", np.ones(dim))
        self.beta = Parameter(f"{name}.beta", np.zeros(dim))
        self._cache: list[tuple[np.ndarray, np.ndarray]] = []

    def params(self) -> list[Parameter]:
        return [self.gamma, self.beta]

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.dim:
            raise DimensionError(
                f"{self.name}: expected trailing dim {self.dim}, got {x.shape}")
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mu) * inv
        self._cache.append((xhat, inv))
        return xhat * self.gamma.value + self.beta.value

    def backward(self, g: np.ndarray) -> np.ndarray:
        xhat, inv = self._cache.pop()
        self.gamma.grad += (g * xhat).sum(axis=0)
        self.beta.grad += g.sum(axis=0)
        gx = g * self.gamma.value
        m1 = gx.mean(axis=-1, keepdims=True)
        m2 = (gx * xhat).mean(axis=-1, keepdims=True)
        return inv * (gx - m1 - xhat * m2)


class LSTMCell(Module):
    """Single-step LSTM with sigmoid input/forget/output gates and a tanh
    candidate. Gate blocks are stored in i, f, g, o order."""

    def __init__(self, in_dim: int, hidden_dim: int, rng: np.random.Generator,
                 name: str = "lstm"):
        self.name = name
        self.in_dim = in_dim
        self.hidden_dim = hidden_dim
        self.Wx = Parameter(f"{name}.Wx",
                            glorot_uniform(rng, in_dim, 4 * hidden_dim))
        self.Wh = Parameter(f"{name}.Wh",
                            glorot_uniform(rng, hidden_dim, 4 * hidden_dim))
        self.b = Parameter(f"{name}.b", np.zeros(4 * hidden_dim))
        self._cache: list[tuple] = []

    def params(self) -> list[Parameter]:
        return [self.Wx, self.Wh, self.b]

    def step(self, x: np.ndarray, h_prev: np.ndarray,
             c_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.in_dim or h_prev.shape[-1] != self.hidden_dim:
            raise DimensionError(
                f"{self.name}: got x {x.shape}, h {h_prev.shape} for "
                f"in_dim={self.in_dim}, hidden={self.hidden_dim}")
        H = self.hidden_dim
        pre = x @ self.Wx.value + h_prev @ self.Wh.value + self.b.value
        i = sigmoid(pre[..., 0 * H:1 * H])
        f = sigmoid(pre[..., 1 * H:2 * H])
        g = np.tanh(pre[..., 2 * H:3 * H])
        o = sigmoid(pre[..., 3 * H:4 * H])
        c = f * c_prev + i * g
        h = o * np.tanh(c)
        self._cache.append((x, h_prev, c_prev, i, f, g, o, c))
        return h, c

    def backward_step(self, dh: np.ndarray, dc: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x, h_prev, c_prev, i, f, g, o, c = self._cache.pop()
        tc = np.tanh(c)
        do = dh * tc
        dc_total = dc + dh * o * (1.0 - tc * tc)
        df = dc_total * c_prev
        di = dc_total * g
        dg = dc_total * i
        dc_prev = dc_total * f
        dpre = np.concatenate([
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            dg * (1.0 - g * g),
            do * o * (1.0 - o),
        ], axis=-1)
        self.Wx.grad += x.T @ dpre
        self.Wh.grad += h_prev.T @ dpre
        self.b.grad += dpre.sum(axis=0)
        dx = dpre @ self.Wx.value.T
        dh_prev = dpre @ self.Wh.value.T
        return dx, dh_prev, dc_prev


class LSTM(Module):
    """Unrolls an LSTMCell over a [batch, time, features] sequence and returns
    the final hidden state. Backward runs truncated nowhere: full BPTT."""

    def __init__(self, in_dim: int, hidden_dim: int, rng: np.random.Generator,
                 name: str = "lstm"):
        self.cell = LSTMCell(in_dim, hidden_dim, rng, name=name)
        self._steps: list[int] = []

    @property
    def hidden_dim(self) -> int:
        return self.cell.hidden_dim

    def params(self) -> list[Parameter]:
        return self.cell.params()

    def forward(self, seq: np.ndarray) -> np.ndarray:
        seq = np.asarray(seq, dtype=np.float64)
        n, t, _ = seq.shape
        h = np.zeros((n, self.cell.hidden_dim))
        c = np.zeros((n, self.cell.hidden_dim))
        for step in range(t):
            h, c = self.cell.step(seq[:, step, :], h, c)
        self._steps.append(t)
        return h

    def backward(self, dh_last: np.ndarray) -> np.ndarray:
        t = self._steps.pop()
        dh = dh_last
        dc = np.zeros_like(dh_last)
        dseq = []
        for _ in range(t):
            dx, dh, dc = self.cell.backward_step(dh, dc)
            dseq.append(dx)
        return np.stack(dseq[::-1], axis=1)


class MultiHeadAttention(Module):
    """Scaled dot-product attention with multiple heads and key masking.

    mask is boolean, True meaning the key is visible; it may be a flat
    [n_keys] vector or a per-query [n_queries, n_keys] matrix. A query row
    with every key masked has no context to attend over and raises.
    """

    def __init__(self, embed_dim: int, heads: int, rng: np.random.Generator,
                 name: str = "mha"):
        if embed_dim % heads != 0:
            raise DimensionError(
                f"{name}: heads ({heads}) must divide embed_dim ({embed_dim})")
        self.name = name
        self.embed_dim = embed_dim
        self.heads = heads
        self.head_dim = embed_dim // heads
        self.Wq = Linear(embed_dim, embed_dim, rng, name=f"{name}.q")
        # a key-projection bias cancels in the softmax, so it is omitted
        self.Wk = Linear(embed_dim, embed_dim, rng, name=f"{name}.k",
                         bias=False)
        self.Wv = Linear(embed_dim, embed_dim, rng, name=f"{name}.v")
        self.Wo = Linear(embed_dim, embed_dim, rng, name=f"{name}.o")
        self._cache: list[tuple] = []

    def params(self) -> list[Parameter]:
        return (self.Wq.params() + self.Wk.params() + self.Wv.params()
                + self.Wo.params())

    def forward(self, q: np.ndarray, k: np.ndarray, v: np.ndarray,
                mask: np.ndarray | None = None) -> np.ndarray:
        nq, nk = q.shape[0], k.shape[0]
        if mask is None:
            mask = np.ones((nq, nk), dtype=bool)
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.ndim == 1:
                mask = np.broadcast_to(mask, (nq, nk))
            if mask.shape != (nq, nk):
                raise DimensionError(
                    f"{self.name}: mask shape {mask.shape} does not match "
                    f"({nq}, {nk})")
        if not mask.any(axis=1).all():
            raise ValueError("empty attention context")

        hd, heads = self.head_dim, self.heads
        Q = self.Wq.forward(q).reshape(nq, heads, hd).transpose(1, 0, 2)
        K = self.Wk.forward(k).reshape(nk, heads, hd).transpose(1, 0, 2)
        V = self.Wv.forward(v).reshape(nk, heads, hd).transpose(1, 0, 2)

        scores = np.einsum("hid,hjd->hij", Q, K) / np.sqrt(hd)
        scores = np.where(mask[None, :, :], scores, -np.inf)
        weights = _softmax_lastaxis(scores)
        ctx = np.einsum("hij,hjd->hid", weights, V)
        ctx_flat = ctx.transpose(1, 0, 2).reshape(nq, self.embed_dim)
        out = self.Wo.forward(ctx_flat)
        self._cache.append((Q, K, V, weights))
        return out

    def backward(self, g: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        Q, K, V, weights = self._cache.pop()
        heads, hd = self.heads, self.head_dim
        nq, nk = Q.shape[1], K.shape[1]

        dctx_flat = self.Wo.backward(g)
        dctx = dctx_flat.reshape(nq, heads, hd).transpose(1, 0, 2)
        dV = np.einsum("hij,hid->hjd", weights, dctx)
        dweights = np.einsum("hid,hjd->hij", dctx, V)
        # softmax backward per (head, query) row; masked weights are 0 so
        # their score gradient vanishes automatically
        row_dot = (dweights * weights).sum(axis=2, keepdims=True)
        dscores = weights * (dweights - row_dot)
        dscores /= np.sqrt(hd)
        dQ = np.einsum("hij,hjd->hid", dscores, K)
        dK = np.einsum("hij,hid->hjd", dscores, Q)

        dq = self.Wq.backward(dQ.transpose(1, 0, 2).reshape(nq, -1))
        dk = self.Wk.backward(dK.transpose(1, 0, 2).reshape(nk, -1))
        dv = self.Wv.backward(dV.transpose(1, 0, 2).reshape(nk, -1))
        return dq, dk, dv


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) without overflow: exp only ever sees -|z|."""
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def _softmax_lastaxis(x: np.ndarray) -> np.ndarray:
    m = np.max(x, axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=-1, keepdims=True)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax (max subtraction before exponentiation)."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("softmax of an empty tensor")
    m = np.max(x, axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(y: np.ndarray, dy: np.ndarray,
                     axis: int = -1) -> np.ndarray:
    """Gradient through softmax given its output y and upstream dy."""
    dot = (dy * y).sum(axis=axis, keepdims=True)
    return y * (dy - dot)


def smooth_l1(pred: np.ndarray, target: np.ndarray,
              beta: float = 1.0) -> float:
    """Mean smooth-L1: quadratic within |d| < beta, linear outside."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DimensionError(
            f"smooth_l1: shapes {pred.shape} and {target.shape} differ")
    d = pred - target
    ad = np.abs(d)
    per = np.where(ad < beta, 0.5 * d * d / beta, ad - 0.5 * beta)
    return float(per.mean())


def smooth_l1_grad(pred: np.ndarray, target: np.ndarray,
                   beta: float = 1.0) -> np.ndarray:
    """d(mean smooth-L1)/d(pred)."""
    d = np.asarray(pred, dtype=np.float64) - np.asarray(target,
                                                        dtype=np.float64)
    g = np.clip(d / beta, -1.0, 1.0)
    return g / d.size


PROB_FLOOR = 1e-12


def cross_entropy(pred_probs: np.ndarray, target_index: int) -> float:
    """-log probability of the target class, clamped at PROB_FLOOR."""
    pred_probs = np.asarray(pred_probs, dtype=np.float64)
    if not 0 <= target_index < pred_probs.shape[-1]:
        raise IndexError(
            f"target index {target_index} out of range for "
            f"{pred_probs.shape[-1]} classes")
    return float(-np.log(max(pred_probs[target_index], PROB_FLOOR)))


def cross_entropy_grad(pred_probs: np.ndarray,
                       target_index: int) -> np.ndarray:
    """Gradient w.r.t. the probability vector (zero where clamped)."""
    g = np.zeros_like(np.asarray(pred_probs, dtype=np.float64))
    p = pred_probs[target_index]
    if p > PROB_FLOOR:
        g[target_index] = -1.0 / p
    return g


class Adam:
    """Bias-corrected Adam with decoupled weight decay over a fixed
    parameter list."""

    def __init__(self, params: Sequence[Parameter], lr: float = 2e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
                 weight_decay: float = 3e-4):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.value
            p.value -= self.lr * update

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad[...] = 0.0


def grad_check(loss_fn: Callable[[], float], params: Sequence[Parameter],
               h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_fn must run a forward+backward pass, accumulating gradients into the
    given parameters, and return the scalar loss. Gradients are zeroed first,
    and the numeric probes only use the returned loss value.
    """
    for p in params:
        p.grad[...] = 0.0
    loss_fn()
    analytic = [p.grad.copy() for p in params]
    for a in analytic:
        if not np.all(np.isfinite(a)):
            raise FloatingPointError("non-finite analytic gradient")

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.value.reshape(-1)
        aflat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_fn()
            flat[i] = orig - h
            lm = loss_fn()
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * h)
            denom = max(abs(aflat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(aflat[i] - numeric) / denom)
    for p in params:
        p.grad[...] = 0.0
    return worst
