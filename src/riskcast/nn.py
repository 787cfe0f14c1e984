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
handled; gradients accumulate into the parameters.

Sibling layers of one shape that read the same input are stacked: their
weights are one ``Parameter`` with a leading member axis, and they run as
one batched matmul (``StackedLinear``, ``StackedMLP``, the query/key/value
projections of ``MultiHeadAttention``). A batched matmul rounds each member
exactly as that member's own matmul would, so every output and gradient is
bit-identical to the separate layers'. Each member keeps its own checkpoint
name: ``Module.members`` lists them in the order the separate layers'
parameters would be listed. Likewise ``LSTM`` projects the input of every
step in one matmul and hands each ``LSTMCell.step`` its projected slice.
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


# a checkpoint member: (name, value, gradient); for a stacked parameter the
# two arrays are views of one member's slice
Member = tuple[str, np.ndarray, np.ndarray]


class Parameter:
    """A learnable tensor together with its gradient accumulator.

    A stacked parameter holds several same-shape members along its leading
    axis, and ``names`` gives each member's checkpoint name. A parameter
    without ``names`` is one member, named ``name``.
    """

    __slots__ = ("name", "value", "grad", "names")

    def __init__(self, name: str, value: np.ndarray,
                 names: Sequence[str] | None = None):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.names = None if names is None else tuple(names)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def params(self) -> list["Parameter"]:
        return [self]

    def member(self, k: int) -> Member:
        return self.names[k], self.value[k], self.grad[k]

    def members(self) -> list[Member]:
        if self.names is None:
            return [(self.name, self.value, self.grad)]
        return [self.member(k) for k in range(len(self.names))]


class Module:
    """Base class. A module lists its sub-modules and parameters in
    ``parts``, in checkpoint order; ``params`` and ``members`` (one entry
    per checkpoint member) follow from it."""

    def parts(self) -> list:
        raise NotImplementedError

    def params(self) -> list[Parameter]:
        return [p for part in self.parts() for p in part.params()]

    def members(self) -> list[Member]:
        return [m for part in self.parts() for m in part.members()]

    def zero_grad(self) -> None:
        for p in self.params():
            p.grad[...] = 0.0


class Linear(Module):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 name: str = "linear"):
        self.name = name
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.W = Parameter(f"{name}.W", glorot_uniform(rng, in_dim, out_dim))
        self.b = Parameter(f"{name}.b", np.zeros(out_dim))

    def parts(self) -> list[Parameter]:
        return [self.W, self.b]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(x W + b, ctx); the context is the input."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise DimensionError(
                f"{self.name}: expected input [*, {self.in_dim}], got {x.shape}")
        return x @ self.W.value + self.b.value, x

    def backward(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        self.W.grad += x.T @ g
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

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def parts(self) -> list:
        return self.layers

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list]:
        """(output, ctx); the context lists each layer's context and the
        ReLU mask after it (None after the last layer)."""
        ctx = []
        for i, layer in enumerate(self.layers):
            x, lctx = layer.forward(x)
            mask = None
            if i < len(self.layers) - 1:
                mask = x > 0.0
                x = x * mask
            ctx.append((lctx, mask))
        return x, ctx

    def backward(self, ctx: list, g: np.ndarray) -> np.ndarray:
        for layer, (lctx, mask) in zip(reversed(self.layers), reversed(ctx)):
            if mask is not None:
                g = g * mask
            g = layer.backward(lctx, g)
        return g


class StackedLinear(Module):
    """M same-shape Linear layers (the members) run as one batched matmul.

    W is one [M, in, out] parameter and b one [M, out] parameter, member m
    at index m, checkpointed as a Linear named ``names[m]`` would be. The
    input is [N, in], shared by every member, or [M, N, in], one per
    member; the output is [M, N, out].
    """

    def __init__(self, W: np.ndarray, names: Sequence[str], name: str):
        self.name = name
        self.in_dim, self.out_dim = W.shape[1:]
        self.W = Parameter(f"{name}.W", W, [f"{n}.W" for n in names])
        self.b = Parameter(f"{name}.b", np.zeros((len(names), self.out_dim)),
                           [f"{n}.b" for n in names])

    def parts(self) -> list[Parameter]:
        return [self.W, self.b]

    def member(self, k: int) -> list[Member]:
        return [self.W.member(k), self.b.member(k)]

    def members(self) -> list[Member]:
        return [m for k in range(len(self.W.value)) for m in self.member(k)]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(x W[m] + b[m] for every member m, ctx); the context is the
        input."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (2, 3) or x.shape[-1] != self.in_dim:
            raise DimensionError(
                f"{self.name}: expected input [*, {self.in_dim}], got {x.shape}")
        return x @ self.W.value + self.b.value[:, None, :], x

    def backward(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The input gradient, [M, N, in] (a shared input's is the sum over
        the members, which the caller takes in the order it needs)."""
        self.W.grad += np.swapaxes(x, -1, -2) @ g
        self.b.grad += g.sum(axis=1)
        return g @ np.swapaxes(self.W.value, -1, -2)


class StackedMLP(MLP):
    """M same-shape MLPs (the members) over one shared input [N, in], run
    layer by layer as StackedLinears into [M, N, out].

    Member m is initialized and checkpointed as an MLP named ``names[m]``
    would be: the members draw their weights from `rng` one after another,
    as M separate MLPs created in member order do.
    """

    def __init__(self, sizes: Sequence[int], names: Sequence[str],
                 rng: np.random.Generator, name: str):
        if len(sizes) < 2:
            raise ValueError("MLP needs at least an input and an output size")
        weights = stacked_glorot(rng, len(names),
                                 list(zip(sizes[:-1], sizes[1:])))
        self.name = name
        self.layers = [
            StackedLinear(W, [f"{n}.{i}" for n in names], name=f"{name}.{i}")
            for i, W in enumerate(weights)
        ]

    def members(self) -> list[Member]:
        return [m for k in range(len(self.layers[0].W.value))
                for layer in self.layers for m in layer.member(k)]


class LayerNorm(Module):
    def __init__(self, dim: int, name: str = "ln", eps: float = 1e-5):
        self.name = name
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(f"{name}.gamma", np.ones(dim))
        self.beta = Parameter(f"{name}.beta", np.zeros(dim))

    def parts(self) -> list[Parameter]:
        return [self.gamma, self.beta]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        if x.shape[-1] != self.dim:
            raise DimensionError(
                f"{self.name}: expected trailing dim {self.dim}, got {x.shape}")
        xc = x - x.mean(axis=-1, keepdims=True)
        # the mean of the squared centered input is what x.var computes
        inv = 1.0 / np.sqrt((xc ** 2).mean(axis=-1, keepdims=True) + self.eps)
        xhat = xc * inv
        return xhat * self.gamma.value + self.beta.value, (xhat, inv)

    def backward(self, ctx: tuple, g: np.ndarray) -> np.ndarray:
        xhat, inv = ctx
        self.gamma.grad += (g * xhat).sum(axis=0)
        self.beta.grad += g.sum(axis=0)
        gx = g * self.gamma.value
        m1 = gx.mean(axis=-1, keepdims=True)
        m2 = (gx * xhat).mean(axis=-1, keepdims=True)
        return inv * (gx - m1 - xhat * m2)


class LSTMCell(Module):
    """Single-step LSTM with sigmoid input/forget/output gates and a tanh
    candidate. Gate blocks are stored in i, f, g, o order.

    A step takes its input already projected, ``x @ Wx``: ``LSTM`` projects
    every step of a sequence in one matmul, and takes Wx's gradient and the
    input's from the gradients of those projections.
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

    def parts(self) -> list[Parameter]:
        return [self.Wx, self.Wh, self.b]

    def step(self, xw: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray
             ) -> tuple[tuple[np.ndarray, np.ndarray], tuple]:
        """((h, c), ctx) of one step from the projected input xw = x @ Wx,
        [n, 4 * hidden]."""
        H = self.hidden_dim
        if xw.shape[-1] != 4 * H or h_prev.shape[-1] != H:
            raise DimensionError(
                f"{self.name}: got projected x {xw.shape}, h {h_prev.shape} "
                f"for hidden={H}")
        pre = xw + h_prev @ self.Wh.value + self.b.value
        # one sigmoid over every block; the g block then takes its tanh
        gates = sigmoid(pre)
        np.tanh(pre[..., 2 * H:3 * H], out=gates[..., 2 * H:3 * H])
        i, f, g, o = (gates[..., k * H:(k + 1) * H] for k in range(4))
        c = f * c_prev + i * g
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


class LSTM(Module):
    """Unrolls an LSTMCell over a [batch, time, features] sequence and returns
    the final hidden state. Backward runs truncated nowhere: full BPTT.

    The input projection of every step is one matmul over the time-major
    sequence, so step t's slice is exactly ``seq[:, t] @ Wx``; backward
    likewise projects every step's gradient back to the input in one
    matmul, and accumulates Wx's gradient step by step, last step first.
    """

    def __init__(self, in_dim: int, hidden_dim: int, rng: np.random.Generator,
                 name: str = "lstm"):
        self.cell = LSTMCell(in_dim, hidden_dim, rng, name=name)

    @property
    def hidden_dim(self) -> int:
        return self.cell.hidden_dim

    def parts(self) -> list[Module]:
        return [self.cell]

    def forward(self, seq: np.ndarray) -> tuple[np.ndarray, tuple]:
        """(final hidden state, ctx); the context is the input and the
        step contexts."""
        seq = np.asarray(seq, dtype=np.float64)
        if seq.ndim != 3 or seq.shape[2] != self.cell.in_dim:
            raise DimensionError(
                f"{self.cell.name}: expected input [n, t, {self.cell.in_dim}]"
                f", got {seq.shape}")
        n, t, _ = seq.shape
        xw = seq.transpose(1, 0, 2) @ self.cell.Wx.value     # [t, n, 4H]
        h = np.zeros((n, self.cell.hidden_dim))
        c = np.zeros((n, self.cell.hidden_dim))
        steps = []
        for step in range(t):
            (h, c), sctx = self.cell.step(xw[step], h, c)
            steps.append(sctx)
        return h, (seq, steps)

    def backward(self, ctx: tuple, dh_last: np.ndarray) -> np.ndarray:
        seq, steps = ctx
        n, t, _ = seq.shape
        dh = dh_last
        dc = np.zeros_like(dh_last)
        dpre = np.empty((t, n, 4 * self.cell.hidden_dim))
        for step in reversed(range(t)):
            dpre[step], dh, dc = self.cell.backward_step(steps[step], dh, dc)
            self.cell.Wx.grad += seq[:, step, :].T @ dpre[step]
        return (dpre @ self.cell.Wx.value.T).transpose(1, 0, 2)


class MultiHeadAttention(Module):
    """Scaled dot-product attention with multiple heads and key masking.

    mask is boolean, True meaning the key is visible; it may be a flat
    [n_keys] vector or a per-query [n_queries, n_keys] matrix. A query row
    with every key masked has no context to attend over and raises.

    The query, key and value projections are one [3, D, D] parameter,
    checkpointed as ``q.W``, ``k.W`` and ``v.W``. Inputs that are one array
    are projected in one batched matmul: a self-attention's q, k and v, a
    cross attention's k and v.
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
        self.Wqkv = Parameter(f"{name}.qkv.W", W,
                              [f"{name}.{x}.W" for x in "qkv"])
        # a key-projection bias cancels in the softmax, so it is omitted
        self.bq = Parameter(f"{name}.q.b", np.zeros(embed_dim))
        self.bv = Parameter(f"{name}.v.b", np.zeros(embed_dim))
        self.Wo = Linear(embed_dim, embed_dim, rng, name=f"{name}.o")

    def parts(self) -> list:
        return [self.Wqkv, self.bq, self.bv, self.Wo]

    def members(self) -> list[Member]:
        q, k, v = self.Wqkv.members()
        return [q, *self.bq.members(), k, v, *self.bv.members(),
                *self.Wo.members()]

    def forward(self, q: np.ndarray, k: np.ndarray, v: np.ndarray,
                mask: np.ndarray | None = None) -> tuple[np.ndarray, tuple]:
        inputs = (q, k, v)
        for x in inputs:
            if x.ndim != 2 or x.shape[1] != self.embed_dim:
                raise DimensionError(
                    f"{self.name}: expected input [*, {self.embed_dim}], "
                    f"got {x.shape}")
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

        # [lo, hi) ranges of q, k, v that share one input array
        if q is k is v:
            spans = ((0, 3),)
        elif k is v:
            spans = ((0, 1), (1, 3))
        else:
            spans = ((0, 1), (1, 2), (2, 3))
        W = self.Wqkv.value
        Q, K, V = [y for lo, hi in spans for y in inputs[lo] @ W[lo:hi]]
        hd, heads = self.head_dim, self.heads
        Q = (Q + self.bq.value).reshape(nq, heads, hd).transpose(1, 0, 2)
        K = K.reshape(nk, heads, hd).transpose(1, 0, 2)
        V = (V + self.bv.value).reshape(nk, heads, hd).transpose(1, 0, 2)

        scores = np.einsum("hid,hjd->hij", Q, K) / np.sqrt(hd)
        scores = np.where(mask[None, :, :], scores, -np.inf)
        weights = softmax(scores)
        att = np.einsum("hij,hjd->hid", weights, V)
        att_flat = att.transpose(1, 0, 2).reshape(nq, self.embed_dim)
        out, o_ctx = self.Wo.forward(att_flat)
        return out, (inputs, spans, o_ctx, Q, K, V, weights)

    def backward(self, ctx: tuple, g: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        inputs, spans, o_ctx, Q, K, V, weights = ctx
        heads, hd = self.heads, self.head_dim
        nq, nk = Q.shape[1], K.shape[1]

        datt_flat = self.Wo.backward(o_ctx, g)
        datt = datt_flat.reshape(nq, heads, hd).transpose(1, 0, 2)
        dV = np.einsum("hij,hid->hjd", weights, datt)
        dweights = np.einsum("hid,hjd->hij", datt, V)
        # softmax backward per (head, query) row; masked weights are 0 so
        # their score gradient vanishes automatically
        row_dot = (dweights * weights).sum(axis=2, keepdims=True)
        dscores = weights * (dweights - row_dot)
        dscores /= np.sqrt(hd)
        dQ = np.einsum("hij,hjd->hid", dscores, K)
        dK = np.einsum("hij,hid->hjd", dscores, Q)

        dproj = (dQ.transpose(1, 0, 2).reshape(nq, -1),
                 dK.transpose(1, 0, 2).reshape(nk, -1),
                 dV.transpose(1, 0, 2).reshape(nk, -1))
        self.bq.grad += dproj[0].sum(axis=0)
        self.bv.grad += dproj[2].sum(axis=0)
        W = self.Wqkv.value
        dx = []
        for lo, hi in spans:
            gp = np.stack(dproj[lo:hi])
            self.Wqkv.grad[lo:hi] += inputs[lo].T @ gp
            dx.extend(gp @ np.swapaxes(W[lo:hi], 1, 2))
        dq, dk, dv = dx
        return dq, dk, dv


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) without overflow: exp only ever sees -|z|, and
    one division gives 1 / (1 + ez) where z >= 0 and ez / (1 + ez)
    elsewhere."""
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, ez) / (1.0 + ez)


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
    parameter list. It steps member by member (``Parameter.members``): the
    update is elementwise, so that is exact, and its temporaries stay the
    size of one member, not of a whole stacked parameter."""

    def __init__(self, params: Sequence[Parameter], lr: float = 2e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
                 weight_decay: float = 3e-4):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.members = [m for p in params for m in p.members()]
        self.m = [np.zeros_like(value) for _, value, _ in self.members]
        self.v = [np.zeros_like(value) for _, value, _ in self.members]

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for (_, value, g), m, v in zip(self.members, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * value
            value -= self.lr * update


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
