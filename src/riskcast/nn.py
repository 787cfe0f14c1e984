"""Minimal dense neural-network kernel: layers with explicit forward/backward
passes, an Adam optimizer with decoupled weight decay, and a finite-difference
gradient checker.

Everything runs on float64 numpy arrays. There is no autodiff graph and no
layer keeps per-call state: each ``forward`` returns ``(output, ctx)``, where
``ctx`` holds what the matching backward needs, and each ``backward`` takes
that ``ctx`` as its first argument. Composite layers keep their sub-layers'
contexts inside their own. Inference drops the context. Backward passes may
run in any order, and a layer may be called several times inside one forward
pass (each call has its own context), which is how shared parameters are
handled; gradients accumulate into the parameters. A parameter allocates
its gradient on first use, as PyTorch leaves ``.grad`` unset until a
backward writes it: a model that only predicts holds its weights and no
gradients, and ``Module.zero_grad`` zeroes only the gradients that exist.
``Adam`` likewise allocates its moments and its two slice-sized scratch
buffers at its first step, as PyTorch creates optimizer state, and then
steps in place through those buffers.

A forward makes as few numpy passes as it can, in place where it can: a
bias, a ReLU, a residual, a softmax's exponent and division and a mask
write into the array just computed. The rule that keeps this safe: no
in-place operation writes an array that a context holds. So an ``MLP``
keeps only its layers' inputs, each written by the ReLU before the next
layer keeps it, and its backward finds the ReLU's pass-through where that
kept input is positive, which is where the pre-activation was. A reduction
calls the ufunc's own ``reduce`` (``np.add.reduce(x, axis=-1)`` for
``x.sum(axis=-1)``): the same reduction, bit for bit, without the Python
wrapper of the array method. There is one forward per layer, for training
and inference alike.

Sibling layers of one shape that read the same input are stacked: their
weights are one ``Parameter`` with a leading member axis, and they run as
one batched matmul. ``Linear`` stacks when its weight is [M, in, out],
``MLP`` when given its number of ``members``, and ``MultiHeadAttention``
stacks its query/key/value projections. A batched matmul rounds each member
exactly as that member's own matmul would, so every output and gradient is
bit-identical to the separate layers'. A stacked parameter is one parameter:
``Module.params`` lists it once, under one name. ``LSTM`` runs its own
steps: it projects the input of every step in one matmul and hands each
``step`` its projected slice, with the gate scale of its one-tanh form
folded into its weights once per call; its backward projects each step's
gradient back to the input as it goes.

A module's parameters are the attributes its ``__init__`` assigns, in
assignment order, as in PyTorch: ``Module.params`` reads them from the
instance, and there is no second list to keep in step. Each layer is built
and then assigned, so that order is also the order in which the layers
draw their weights, and it is the order a checkpoint stores them in.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np


class DimensionError(ValueError):
    """Shape mismatch between an input and a layer's parameters."""


def seeded_rng(seed: int) -> np.random.Generator:
    """Deterministic generator; same seed always yields the same stream."""
    return np.random.default_rng(seed)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int
                   ) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def stacked_glorot(rng: np.random.Generator, members: int,
                   shapes: Sequence[tuple[int, int]]) -> list[np.ndarray]:
    """One [members, fan_in, fan_out] weight per shape, drawn member by
    member and shape by shape, as `members` separate stacks of layers of
    those shapes draw them. Each draw goes straight into its slice."""
    weights = [np.empty((members,) + tuple(shape)) for shape in shapes]
    for k in range(members):
        for W in weights:
            W[k] = glorot_uniform(rng, *W.shape[1:])
    return weights


class Parameter:
    """A learnable tensor together with its gradient accumulator. The
    gradient is allocated, zeroed, the first time it is read, so a model
    that only runs forward passes holds none."""

    __slots__ = ("name", "value", "_grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self._grad = None

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            # written before it is read, so each fresh page faults once
            self._grad = np.empty_like(self.value)
            self._grad.fill(0.0)
        return self._grad

    @grad.setter
    def grad(self, g: np.ndarray) -> None:
        # ``p.grad += x`` reads the array, adds in place and assigns it back
        self._grad = g

    @property
    def has_grad(self) -> bool:
        return self._grad is not None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape


class Module:
    """Base class. A module holds parameters, sub-modules (alone or in
    lists) and config values as its attributes. Its parameters come in the
    order ``__init__`` assigns them, which is the order they are drawn in
    and the checkpoint order: a ``Parameter`` attribute is itself, a
    ``Module`` attribute its own ``params()``, a list each of its items in
    turn, and any other attribute nothing."""

    def params(self) -> list[Parameter]:
        out = []
        for attr in vars(self).values():
            for part in attr if isinstance(attr, list) else [attr]:
                if isinstance(part, Parameter):
                    out.append(part)
                elif isinstance(part, Module):
                    out.extend(part.params())
        return out

    def zero_grad(self) -> None:
        """Zero every gradient allocated so far; allocates none."""
        for p in self.params():
            if p.has_grad:
                p.grad[...] = 0.0


class Linear(Module):
    """x W + b, for a weight W of shape [in, out].

    A W of shape [M, in, out] stacks M same-shape layers (the members), run
    as one batched matmul, member m at index m of W and of b. The input is
    then [N, in], shared by every member, or [M, N, in], one per member, and
    the output is [M, N, out].
    """

    def __init__(self, W: np.ndarray, name: str = "linear"):
        self.name = name
        self.in_dim, self.out_dim = W.shape[-2:]
        self.W = Parameter(f"{name}.W", W)
        self.b = Parameter(f"{name}.b", np.zeros(W.shape[:-2] + W.shape[-1:]))

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(x W + b, ctx); the context is the input."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (2, self.W.value.ndim) or x.shape[-1] != self.in_dim:
            raise DimensionError(
                f"{self.name}: expected input [*, {self.in_dim}], got {x.shape}")
        y = x @ self.W.value
        y += self.b.value[..., None, :]
        return y, x

    def backward(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The input gradient; a stacked layer's is [M, N, in] (a shared
        input's is its sum over the members, which the caller takes)."""
        self.W.grad += np.swapaxes(x, -1, -2) @ g
        self.b.grad += g.sum(axis=-2)
        return g @ np.swapaxes(self.W.value, -1, -2)


class MLP(Module):
    """Fully connected stack with ReLU between layers and a linear output.

    With ``members``, it is that many same-shape MLPs over one shared input
    [N, in], run layer by layer as stacked Linears into [M, N, out]. The
    members draw their weights from `rng` one after another, as M separate
    MLPs created in member order do.
    """

    def __init__(self, sizes: Sequence[int], rng: np.random.Generator,
                 name: str = "mlp", members: int | None = None):
        if len(sizes) < 2:
            raise ValueError("MLP needs at least an input and an output size")
        self.name = name
        weights = stacked_glorot(rng, 1 if members is None else members,
                                 list(zip(sizes[:-1], sizes[1:])))
        self.layers = [Linear(W[0] if members is None else W, f"{name}.{i}")
                       for i, W in enumerate(weights)]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list]:
        """(output, ctx); the context lists each layer's input. The ReLU
        runs in place on a layer's output, before the next layer keeps it
        as its input."""
        ctx = []
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            x, lctx = layer.forward(x)
            ctx.append(lctx)
            if i < last:
                np.maximum(x, 0.0, out=x)
        return x, ctx

    def backward(self, ctx: list, g: np.ndarray) -> np.ndarray:
        """The ReLU after layer i passed where layer i + 1's input is
        positive, which is where the pre-activation was."""
        for i in reversed(range(len(self.layers))):
            if i < len(self.layers) - 1:
                g = g * (ctx[i + 1] > 0.0)
            g = self.layers[i].backward(ctx[i], g)
        return g


class LayerNorm(Module):
    eps = 1e-5

    def __init__(self, dim: int, name: str = "ln"):
        self.name = name
        self.dim = dim
        self.gamma = Parameter(f"{name}.gamma", np.ones(dim))
        self.beta = Parameter(f"{name}.beta", np.zeros(dim))

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        if x.shape[-1] != self.dim:
            raise DimensionError(
                f"{self.name}: expected trailing dim {self.dim}, got {x.shape}")
        n = x.shape[-1]
        xhat = x - np.add.reduce(x, axis=-1, keepdims=True) / n
        # the mean of the squared centered input is what x.var computes
        inv = 1.0 / np.sqrt(np.add.reduce(np.square(xhat), axis=-1,
                                          keepdims=True) / n + self.eps)
        xhat *= inv
        y = xhat * self.gamma.value
        y += self.beta.value
        return y, (xhat, inv)

    def backward(self, ctx: tuple, g: np.ndarray) -> np.ndarray:
        xhat, inv = ctx
        self.gamma.grad += (g * xhat).sum(axis=0)
        self.beta.grad += g.sum(axis=0)
        gx = g * self.gamma.value
        m1 = gx.mean(axis=-1, keepdims=True)
        m2 = (gx * xhat).mean(axis=-1, keepdims=True)
        return inv * (gx - m1 - xhat * m2)


class LSTM(Module):
    """LSTM over a [batch, time, features] sequence, returning the final
    hidden state; backward runs full BPTT, truncated nowhere. The gates are
    sigmoid input/forget/output gates and a tanh candidate, their blocks
    stored in i, f, g, o order. A step computes all four with one tanh, as
    sigmoid(z) = 0.5 tanh(z / 2) + 0.5, within eps of ``sigmoid``.

    The pre-activation z = (h Wh + x Wx) + b is halved on the sigmoid
    blocks before the tanh. ``forward`` folds that scale into the weights
    once per call (``gate_weights``), so a step adds the scaled parts and
    takes the tanh with no pass of its own for the scale. The scale is 0.5
    or 1, a power of two: each scaled product, and each sum of them, is
    the unscaled one times the scale exactly (short of the subnormal
    range), so the gates are those of the textbook step, bit for bit.

    The input projection of every step is one matmul over the time-major
    sequence, so step t's slice is exactly ``seq[:, t] @ Wx`` of the
    scaled Wx, and ``step`` takes its input so projected. Backward runs
    the steps last first and holds one step's pre-activation gradient
    [n, 4 * hidden] at a time, the gradient of the unscaled z: it adds that
    step's share to Wx's gradient and projects it back into the step's
    slice of the input gradient, ``dpre @ Wx.T``, which rounds as the slice
    of one matmul over every step would.
    """

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

    def gate_weights(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Wx, Wh and b with each gate block's columns times its scale in
        the one-tanh form: 0.5 on i, f and o, 1 on g. ``step`` takes its
        projected input and its weights so scaled."""
        scale, _ = _gate_affine(self.hidden_dim)
        return (self.Wx.value * scale, self.Wh.value * scale,
                self.b.value * scale)

    def step(self, xw: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray,
             wh: np.ndarray, b: np.ndarray
             ) -> tuple[tuple[np.ndarray, np.ndarray], tuple]:
        """((h, c), ctx) of one step from the projected input xw = x @ Wx,
        [n, 4 * hidden], where Wx, wh and b are ``gate_weights()``."""
        H = self.hidden_dim
        if xw.shape[-1] != 4 * H or h_prev.shape[-1] != H:
            raise DimensionError(
                f"{self.name}: got projected x {xw.shape}, h {h_prev.shape} "
                f"for hidden={H}")
        scale, shift = _gate_affine(H)
        gates = h_prev @ wh
        gates += xw
        gates += b
        np.tanh(gates, out=gates)
        gates *= scale
        gates += shift
        i, f, g, o = (gates[..., :H], gates[..., H:2 * H],
                      gates[..., 2 * H:3 * H], gates[..., 3 * H:])
        c = f * c_prev
        c += i * g
        tc = np.tanh(c)
        h = o * tc
        return (h, c), (h_prev, c_prev, i, f, g, o, tc)

    def backward_step(self, ctx: tuple, dh: np.ndarray, dc: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(dpre, dh_prev, dc_prev). Wh and b accumulate their gradients
        here; dpre is the gradient of the projected input."""
        h_prev, c_prev, i, f, g, o, tc = ctx
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
        self.Wh.grad += h_prev.T @ dpre
        self.b.grad += dpre.sum(axis=0)
        dh_prev = dpre @ self.Wh.value.T
        return dpre, dh_prev, dc_prev

    def forward(self, seq: np.ndarray) -> tuple[np.ndarray, tuple]:
        """(final hidden state, ctx); the context is the input and the
        step contexts."""
        seq = np.asarray(seq, dtype=np.float64)
        if seq.ndim != 3 or seq.shape[2] != self.in_dim:
            raise DimensionError(
                f"{self.name}: expected input [n, t, {self.in_dim}], "
                f"got {seq.shape}")
        n, t, _ = seq.shape
        wx, wh, b = self.gate_weights()
        xw = seq.transpose(1, 0, 2) @ wx                # [t, n, 4H]
        h = np.zeros((n, self.hidden_dim))
        c = np.zeros((n, self.hidden_dim))
        steps = []
        for step in range(t):
            (h, c), sctx = self.step(xw[step], h, c, wh, b)
            steps.append(sctx)
        return h, (seq, steps)

    def backward(self, ctx: tuple, dh_last: np.ndarray) -> np.ndarray:
        seq, steps = ctx
        dh = dh_last
        dc = np.zeros_like(dh_last)
        dx = np.empty_like(seq)
        for step in reversed(range(seq.shape[1])):
            dpre, dh, dc = self.backward_step(steps[step], dh, dc)
            self.Wx.grad += seq[:, step, :].T @ dpre
            dx[:, step] = dpre @ self.Wx.value.T
        return dx


@functools.cache
def _gate_affine(hidden: int) -> tuple[np.ndarray, np.ndarray]:
    """(scale, shift) [4 * hidden] that turn one tanh into the LSTM's gates:
    sigmoid(z) = 0.5 tanh(z / 2) + 0.5 on the i, f and o blocks, tanh(z)
    itself on g. Read-only, since every LSTM of that size shares them."""
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], hidden)
    shift = np.repeat([0.5, 0.5, 0.0, 0.5], hidden)
    scale.flags.writeable = shift.flags.writeable = False
    return scale, shift


class MultiHeadAttention(Module):
    """Scaled dot-product attention with multiple heads and key masking.

    The inputs may carry a leading set axis: queries [S, nq, D] attend,
    set by set, over keys and values [S, nk, D]; without it, q [nq, D] and
    k, v [nk, D] are one set. mask is boolean, True meaning the key is
    visible; it may be a flat [nk] vector, a per-query [nq, nk] matrix or
    a per-set [S, nq, nk] stack. A query row with every key masked has no
    context to attend over and raises. Callers stack sets of different
    sizes by padding them to the largest and masking the padded keys; a
    padded query row must see some key, and its output is theirs to drop.

    The query, key and value projections are one [3, D, D] parameter,
    ``qkv.W``. They and the output projection run on the rows of every set
    at once, [S * n, D]. Inputs that are one array are projected in one
    batched matmul: a self-attention's q, k and v, a cross attention's k
    and v. The scores and the attended values are batched matmuls over the
    sets and heads. A mask that is None or all True builds no mask matrix,
    so a stack of one set computes what the set alone does, bit for bit.
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
        [W] = stacked_glorot(rng, 3, [(embed_dim, embed_dim)])
        self.Wqkv = Parameter(f"{name}.qkv.W", W)
        # a key-projection bias cancels in the softmax, so it is omitted
        self.bq = Parameter(f"{name}.q.b", np.zeros(embed_dim))
        self.bv = Parameter(f"{name}.v.b", np.zeros(embed_dim))
        self.Wo = Linear(glorot_uniform(rng, embed_dim, embed_dim),
                         name=f"{name}.o")

    def forward(self, q: np.ndarray, k: np.ndarray, v: np.ndarray,
                mask: np.ndarray | None = None) -> tuple[np.ndarray, tuple]:
        """(output shaped as q, ctx)."""
        inputs = (q, k, v)
        for x in inputs:
            if x.ndim not in (2, 3) or x.shape[-1] != self.embed_dim \
                    or x.shape[:-2] != q.shape[:-2]:
                raise DimensionError(
                    f"{self.name}: expected inputs [*, {self.embed_dim}] "
                    f"or [S, *, {self.embed_dim}] of one S, got {x.shape}")
        sets = q.shape[0] if q.ndim == 3 else 1
        nq, nk = q.shape[-2], k.shape[-2]
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape not in ((nk,), (nq, nk), q.shape[:-2] + (nq, nk)):
                raise DimensionError(
                    f"{self.name}: mask shape {mask.shape} does not match "
                    f"({nq}, {nk})")
            if np.logical_and.reduce(mask, axis=None):
                mask = None
            elif not np.logical_and.reduce(
                    np.logical_or.reduce(mask, axis=-1), axis=None):
                raise ValueError("empty attention context")
        if nq and not nk:
            raise ValueError("empty attention context")

        # [lo, hi) ranges of q, k, v that share one input array
        if q is k is v:
            spans = ((0, 3),)
        elif k is v:
            spans = ((0, 1), (1, 3))
        else:
            spans = ((0, 1), (1, 2), (2, 3))
        rows = [inputs[lo].reshape(-1, self.embed_dim) for lo, _ in spans]
        W = self.Wqkv.value
        Q, K, V = [y for (lo, hi), x in zip(spans, rows) for y in x @ W[lo:hi]]
        hd, heads = self.head_dim, self.heads
        # the projections are fresh arrays, so the biases add in place
        Q += self.bq.value
        V += self.bv.value
        Q = Q.reshape(sets, nq, heads, hd).transpose(0, 2, 1, 3)
        K = K.reshape(sets, nk, heads, hd).transpose(0, 2, 1, 3)
        V = V.reshape(sets, nk, heads, hd).transpose(0, 2, 1, 3)

        scores = Q @ K.transpose(0, 1, 3, 2)           # [S, heads, nq, nk]
        scores /= math.sqrt(hd)
        if mask is not None:
            np.copyto(scores, -np.inf,
                      where=~(mask[:, None] if mask.ndim == 3 else mask))
        weights = softmax(scores)
        att = weights @ V                              # [S, heads, nq, hd]
        att_rows = att.transpose(0, 2, 1, 3).reshape(sets * nq,
                                                     self.embed_dim)
        out, o_ctx = self.Wo.forward(att_rows)
        return out.reshape(q.shape), (q.shape, k.shape, rows, spans, o_ctx,
                                      Q, K, V, weights)

    def backward(self, ctx: tuple, g: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(dq, dk, dv), each shaped as its input."""
        q_shape, k_shape, rows, spans, o_ctx, Q, K, V, weights = ctx
        sets, heads, nq, hd = Q.shape
        nk = K.shape[2]

        datt_rows = self.Wo.backward(o_ctx, g.reshape(-1, self.embed_dim))
        datt = datt_rows.reshape(sets, nq, heads, hd).transpose(0, 2, 1, 3)
        dV = weights.transpose(0, 1, 3, 2) @ datt
        dweights = datt @ V.transpose(0, 1, 3, 2)
        # per (set, head, query) row; masked weights are 0 so their score
        # gradient vanishes automatically
        dscores = softmax_backward(weights, dweights)
        dscores /= math.sqrt(hd)
        dQ = dscores @ K
        dK = dscores.transpose(0, 1, 3, 2) @ Q

        dproj = (dQ.transpose(0, 2, 1, 3).reshape(sets * nq, -1),
                 dK.transpose(0, 2, 1, 3).reshape(sets * nk, -1),
                 dV.transpose(0, 2, 1, 3).reshape(sets * nk, -1))
        self.bq.grad += dproj[0].sum(axis=0)
        self.bv.grad += dproj[2].sum(axis=0)
        W = self.Wqkv.value
        dx = []
        for (lo, hi), x in zip(spans, rows):
            gp = np.stack(dproj[lo:hi])
            self.Wqkv.grad[lo:hi] += x.T @ gp
            dx.extend(gp @ np.swapaxes(W[lo:hi], 1, 2))
        dq, dk, dv = dx
        return dq.reshape(q_shape), dk.reshape(k_shape), dv.reshape(k_shape)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) without overflow: exp only ever sees -|z|, and
    one division gives 1 / (1 + ez) where z >= 0 and ez / (1 + ez)
    elsewhere."""
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, ez) / (1.0 + ez)


def softmax(x: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis (max subtraction
    before exponentiation)."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("softmax of an empty tensor")
    e = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def softmax_backward(y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Gradient through the last-axis softmax given its output y and
    upstream dy."""
    dot = (dy * y).sum(axis=-1, keepdims=True)
    return y * (dy - dot)


def smooth_l1(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean smooth-L1 (beta 1): quadratic within |d| < 1, linear outside."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DimensionError(
            f"smooth_l1: shapes {pred.shape} and {target.shape} differ")
    d = pred - target
    ad = np.abs(d)
    per = np.where(ad < 1.0, 0.5 * d * d, ad - 0.5)
    return float(per.mean())


def smooth_l1_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """d(mean smooth-L1)/d(pred)."""
    d = np.asarray(pred, dtype=np.float64) - np.asarray(target,
                                                        dtype=np.float64)
    return np.clip(d, -1.0, 1.0) / d.size


PROB_FLOOR = 1e-12


def cross_entropy(pred_probs: np.ndarray, target_index) -> np.ndarray:
    """-log probability of the target class, clamped at PROB_FLOOR, of
    each probability vector [..., C] and its target index [...]."""
    pred_probs = np.asarray(pred_probs, dtype=np.float64)
    target = np.asarray(target_index)
    if not ((0 <= target) & (target < pred_probs.shape[-1])).all():
        raise IndexError(
            f"target index {target_index} out of range for "
            f"{pred_probs.shape[-1]} classes")
    p = np.take_along_axis(pred_probs, target[..., None], axis=-1)[..., 0]
    return -np.log(np.maximum(p, PROB_FLOOR))


def cross_entropy_grad(pred_probs: np.ndarray,
                       target_index) -> np.ndarray:
    """Gradient w.r.t. each probability vector [..., C] of its target
    index [...]: -1 / p at the target, zero elsewhere and where clamped."""
    pred_probs = np.asarray(pred_probs, dtype=np.float64)
    target = np.asarray(target_index)[..., None]
    p = np.take_along_axis(pred_probs, target, axis=-1)
    g = np.zeros_like(pred_probs)
    np.put_along_axis(g, target, np.where(
        p > PROB_FLOOR, -1.0 / np.maximum(p, PROB_FLOOR), 0.0), axis=-1)
    return g


# elements per Adam update slice: each of its two scratch buffers is 128 KB
ADAM_CHUNK = 16384


class Adam:
    """Bias-corrected Adam with decoupled weight decay over a fixed
    parameter list. It steps each parameter's flat view in slices of
    ``ADAM_CHUNK`` elements: the update is elementwise, so that is exact.
    Every operation writes into one of two persistent slice-sized scratch
    buffers, in the order of the textbook expression, so a step allocates
    no array data and rounds as that expression does. The moments m and v
    and the scratch buffers are allocated at the first step, so they do not
    sit beside the first forward and backward's contexts. That step writes
    the moments of zero, m = (1 - b1) g and v = (1 - b2) (g g), before it
    reads them, so each fresh page faults once; it differs from the
    textbook's 0 b1 + (1 - b1) g only in the sign of a zero moment where g
    is -0.0, which leaves the update's value unchanged."""

    def __init__(self, params: Sequence[Parameter], lr: float = 2e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
                 weight_decay: float = 3e-4):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.params = list(params)
        self.m: list[np.ndarray] | None = None
        self.v: list[np.ndarray] | None = None
        self._scratch: tuple[np.ndarray, np.ndarray] | None = None

    def step(self) -> None:
        first = self.m is None
        if first:
            self.m = [np.empty(p.value.size) for p in self.params]
            self.v = [np.empty(p.value.size) for p in self.params]
            self._scratch = (np.empty(ADAM_CHUNK), np.empty(ADAM_CHUNK))
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, m_flat, v_flat in zip(self.params, self.m, self.v):
            value_flat, g_flat = p.value.reshape(-1), p.grad.reshape(-1)
            for lo in range(0, value_flat.size, ADAM_CHUNK):
                s = slice(lo, lo + ADAM_CHUNK)
                value, g, m, v = (value_flat[s], g_flat[s], m_flat[s],
                                  v_flat[s])
                a, b = (buf[:value.size] for buf in self._scratch)
                # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) (g g)
                if first:
                    np.multiply(1.0 - self.beta1, g, out=m)
                    np.multiply(g, g, out=v)
                    v *= 1.0 - self.beta2
                else:
                    m *= self.beta1
                    m += np.multiply(1.0 - self.beta1, g, out=a)
                    v *= self.beta2
                    np.multiply(g, g, out=a)
                    v += np.multiply(1.0 - self.beta2, a, out=a)
                # update = (m / bc1) / (sqrt(v / bc2) + eps) + wd value
                np.divide(m, bc1, out=a)
                np.sqrt(np.divide(v, bc2, out=b), out=b)
                b += self.eps
                a /= b
                if self.weight_decay:
                    a += np.multiply(self.weight_decay, value, out=b)
                value -= np.multiply(self.lr, a, out=a)


def grad_check(loss_fn: Callable[[], float], params: Sequence[Parameter],
               h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients,
    net of the probes' rounding: an element reads (|analytic - numeric| -
    16 eps max(|L+|, |L-|) / h) / max(|analytic|, |numeric|, 1e-8), clamped
    at 0, since probe losses L+ and L- off by ulps move the difference that
    much whatever the backward.

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
            noise = 16.0 * np.finfo(float).eps * max(abs(lp), abs(lm)) / h
            denom = max(abs(aflat[i]), abs(numeric), 1e-8)
            worst = max(worst, (abs(aflat[i] - numeric) - noise) / denom)
    for p in params:
        p.grad[...] = 0.0
    return worst
