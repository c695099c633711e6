"""Minimal dense-tensor engine: f32 arrays, tape-based reverse-mode autodiff,
cosine schedule, AdamW with global-L2 clipping over one packed vector.

Everything is float32 end to end. Ops record onto the innermost Tape the
calling thread has open (a context manager) whenever any input requires
gradients; with no tape open in that thread, or inside OffTape, they run
forward-only. The whole read path (model.encode_windows and the head it
runs) is under OffTape, so inference records nothing even inside an open
Tape. backward walks the tape exactly once in reverse, so recording order
doubles as the topological order, and returns the leaf gradients that
AdamW.step takes. Every op is a model-sized node with a hand-written
backward: patch_embed, encoder_block, linear_head and weighted_sq_error, so
a step records one node per layer plus three. Every backward returns None
for a constant operand rather than a gradient nobody reads. A Tape opened on
a Workspace lends encoder_block arrays that the next step's tape reuses; off
the tape, a block on at most CHUNK windows borrows its thread's scratch.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError, TrainingError


class _TapeStack(threading.local):
    """Each thread's stack of open tapes, so concurrent inference in one
    thread never records onto a tape that another thread opened, and its
    scratch Workspace (glibc handed each chunk's freed arrays back)."""

    def __init__(self):
        self.tapes = []
        self.scratch = Workspace()


class Workspace(dict):
    """float32 arrays, by key, that one training run's steps reuse, so a step
    writes into pages already faulted in (glibc handed freed heap back after
    each step). An array grows to its key's largest request; a smaller one
    takes its prefix. It serves one thread, and one tape until its backward."""

    def _take(self, key, shape):
        size = math.prod(shape)
        buf = self.get(key)
        if buf is None or buf.size < size:
            buf = self[key] = np.empty(size, dtype=np.float32)
        return buf[:size].reshape(shape)


_TAPES = _TapeStack()


class Tape:
    """Ordered record of node applications for one backward pass; its nodes
    draw their large arrays from workspace, if given one."""

    def __init__(self, workspace=None):
        # each node: (output Tensor, input Tensors, fn(out_grad) -> input grads)
        self._nodes = []
        self.workspace = workspace

    def __enter__(self):
        if self.workspace is not None:  # a step's arrays stand in for the scratch
            _TAPES.scratch.clear()
        _TAPES.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPES.tapes.pop()
        return False

    def __len__(self):
        return len(self._nodes)


class OffTape:
    """Context manager: the enclosed ops run forward-only in this thread, even
    inside an open Tape, so nothing they compute is recorded or kept for a
    backward pass."""

    def __enter__(self):
        self._saved = _TAPES.tapes
        _TAPES.tapes = []
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPES.tapes = self._saved
        return False


class Tensor:
    """Dense f32 value; backward returns the gradients of requires_grad leaves."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float32)
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _record(out, inputs, backward_fn):
    tapes = _TAPES.tapes
    if tapes and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tapes[-1]._nodes.append((out, inputs, backward_fn))
    return out


def _arrays(inputs):
    """(take, node) for a node on inputs: take(key, shape) is a float32 array
    from the workspace of the tape the node records onto; for an unrecorded
    node (it saves nothing) on at most CHUNK windows, from its thread's
    scratch, which every such node reuses; else a fresh one. node, its
    position on that tape, keys the arrays it saves."""
    tapes = _TAPES.tapes
    recorded = tapes and any(t.requires_grad for t in inputs)
    if recorded and tapes[-1].workspace is not None:
        return tapes[-1].workspace._take, len(tapes[-1])
    if not recorded and len(inputs[0].data) <= CHUNK:
        return _TAPES.scratch._take, None
    return lambda key, shape: np.empty(shape, dtype=np.float32), None


# Windows per chunk, in model.encode_windows' forward-only encode and in
# encoder_block, forward and backward. Fixed, so a window's
# results never depend on how many windows arrive with it, and peak memory
# is one chunk's. Not larger:
# glibc hands freed heap back to the OS once the free top of the heap exceeds
# twice its largest freed mmap block, and a 32-row tiny chunk's temporaries
# crossed that line, so every chunk faulted its ~4 MB in afresh (256 tiny
# windows: 41-54 ms at 32 rows, 30-33 ms at 16).
CHUNK = 16


def _norm_backward(g_n, gamma, x_hat, inv, scratch):
    """(g_x, g_gamma) of n = gamma * x_hat with x_hat = x * inv, all [rows, D];
    g_n becomes g_x, and scratch is overwritten. g_x = inv * (g - x_hat *
    mean(g * x_hat)) with g = gamma * g_n."""
    g_gamma = np.einsum("ij,ij->j", g_n, x_hat) if gamma.requires_grad else None
    g_n *= gamma.data
    mean = np.einsum("ij,ij->i", g_n, x_hat)[:, None] / np.float32(x_hat.shape[1])
    g_n -= np.multiply(x_hat, mean, out=scratch)
    g_n *= inv
    return g_n, g_gamma


def patch_embed(patches, observed, w, bias, mask_token, positions=None):
    """Patch embedding as one tape node: patches [B,N,P] whose indicator in
    observed [B,N] is 1 become patches @ w + bias, the others mask_token
    bit-exactly (the two are blended by the indicator); then the constant
    positions [N,D], when given, is added to every row."""
    b, n, p = patches.shape
    xf = patches.reshape(b * n, p)
    keep = np.asarray(observed, dtype=np.float32).reshape(b * n, 1)
    drop = 1.0 - keep
    out = xf @ w.data + bias.data
    out *= keep
    out += mask_token.data * drop
    out = out.reshape(b, n, w.data.shape[1])
    if positions is not None:
        out += positions

    def bwd(g):
        gf = g.reshape(b * n, -1)
        return (xf.T @ (gf * keep) if w.requires_grad else None,
                (keep.T @ gf)[0] if bias.requires_grad else None,
                (drop.T @ gf)[0] if mask_token.requires_grad else None)

    return _record(Tensor(out), (w, bias, mask_token), bwd)


def encoder_block(x, gamma1, wq, wk, wv, wo, rel_bias, gamma2, w1, w2, idx, n_heads,
                  sink=None):
    """A pre-norm transformer layer as one tape node, for x [B,N,D]:
    y = x + attention(norm(x, gamma1)), out = y + relu(norm(y, gamma2) @ w1) @ w2,
    where norm(x, gamma) = gamma * x / sqrt(mean(x^2, last) + 1e-6). q, k and v
    come from one [D, 3D] product; head h adds rel_bias[idx, h] for the [N,N]
    bucket ids idx. Scores are key-major, [B,H,Nk,Nq], so the softmax reduces
    over axis -2; a sink list gets a fresh query-major copy of them. The layer
    runs CHUNK windows at a time, forward and backward, and each chunk's QKV
    product and probabilities go into chunk-sized arrays that every node
    shares. The node keeps x_hat2 = y * inv2, the inv of both norms, the ReLU
    output, its last chunk's probabilities and, for every query, the max its
    softmax subtracted and the reciprocal of its total. Its backward rebuilds
    each chunk's x_hat1 = x * inv1, QKV product, other probabilities and
    context, bit for bit the forward's."""
    if x.ndim != 3:
        raise ShapeError(f"encoder_block expects [B,N,D] input, got {x.shape}")
    b, n, d = x.shape
    if d % n_heads != 0:
        raise ShapeError(f"model dim {d} is not divisible by {n_heads} heads")
    idx = np.asarray(idx)
    if idx.shape != (n, n):
        raise ShapeError(f"bucket index shape {idx.shape} != ({n}, {n})")
    inputs = (x, gamma1, wq, wk, wv, wo, rel_bias, gamma2, w1, w2)
    take, node = _arrays(inputs)
    dh, rows, f = d // n_heads, b * n, w1.data.shape[1]
    # the 1/sqrt(dh) logit scale is folded into wq: a [D,D] product, not [B,H,N,N]
    scale = np.float32(1.0 / math.sqrt(dh))
    w_qkv = np.concatenate([wq.data * scale, wk.data, wv.data], axis=1)
    xf = x.data.reshape(rows, d)
    eps = np.float32(1e-6)
    # [H, Nk, Nq] in one gather from the [H, n_buckets] table
    bias = np.take(np.ascontiguousarray(rel_bias.data.T), idx.T, axis=1)
    last = (max(b, 1) - 1) // CHUNK * CHUNK  # the first window of the last chunk
    p_last = take((node, "p"), (b - last, n_heads, n, n))
    top, recip = take((node, "max"), (b, n_heads, 1, n)), take((node, "recip"), (b, n_heads, n))
    x_hat2, hidden = take((node, "x_hat2"), (rows, d)), take((node, "hidden"), (rows, f))
    inv1, inv2 = np.empty((2, rows, 1), dtype=np.float32)
    out = np.empty((rows, d), dtype=np.float32)  # fresh; holds each product's input
    probs = None if sink is None else np.empty((b, n_heads, n, n), dtype=np.float32)

    def qkv_heads(xg):
        """q, k and v, [windows,H,N,dh] views of the QKV product of the rows xg
        of x_hat1 * gamma1, in the one chunk-sized array that every node shares."""
        qkv = np.matmul(xg, w_qkv, out=take("qkv", (len(xg), 3 * d)))
        return qkv.reshape(-1, n, 3, n_heads, dh).transpose(2, 0, 3, 1, 4)

    def attention(lo, hi, q, k, fresh):
        """The probabilities of windows lo:hi, in the node's array for its last
        chunk, else in the chunk-sized one that every node shares. A fresh
        softmax saves each query's max and reciprocal total; a rebuild applies
        them."""
        p = p_last if lo == last else take("p", (hi - lo, n_heads, n, n))
        np.matmul(k, q.swapaxes(-1, -2), out=p)
        p += bias
        if fresh:
            np.fmax.reduce(p, axis=-2, keepdims=True, out=top[lo:hi])
        p -= top[lo:hi]
        np.exp(p, out=p)
        if fresh:
            np.reciprocal(np.einsum("bhkq->bhq", p), out=recip[lo:hi])
        p *= recip[lo:hi, :, None, :]
        return p

    def context(p, v, ctx):
        """ctx [rows, D] holding the context p @ v of p's windows, and its [b,H,N,dh] view."""
        ctx_h = ctx.reshape(len(p), n, n_heads, dh).transpose(0, 2, 1, 3)
        np.matmul(p.swapaxes(-1, -2), v, out=ctx_h)
        return ctx, ctx_h

    for lo in range(0, b, CHUNK):
        hi = min(lo + CHUNK, b)
        r = slice(lo * n, hi * n)
        xn, x2 = out[r], x_hat2[r]
        inv1[r] = 1.0 / np.sqrt(np.mean(np.square(xf[r], out=xn), axis=-1, keepdims=True) + eps)
        q, k, v = qkv_heads(np.multiply(np.multiply(xf[r], inv1[r], out=xn), gamma1.data,
                                        out=xn))
        p = attention(lo, hi, q, k, True)
        if probs is not None:
            probs[lo:hi] = p.swapaxes(-1, -2)
        # the context goes in x_hat2's rows before x_hat2 does
        y = np.matmul(context(p, v, x2)[0], wo.data, out=take("g_y", (len(xn), d)))
        y += xf[r]
        inv2[r] = 1.0 / np.sqrt(np.mean(np.square(y, out=x2), axis=-1, keepdims=True) + eps)
        np.multiply(y, inv2[r], out=x2)
        np.matmul(np.multiply(x2, gamma2.data, out=xn), w1.data, out=hidden[r])
        np.maximum(hidden[r], 0.0, out=hidden[r])
        np.matmul(hidden[r], w2.data, out=xn)
        xn += y
    if sink is not None:
        sink.append(probs)

    def chunk_bwd(lo, hi, gf, g_x, ids):
        """Weight gradients of windows lo:hi, for gf, their rows of the output
        gradient; their input gradient rows go into g_x. a and c hold, in turn,
        the chunk's short-lived [rows, D] arrays."""
        r = slice(lo * n, hi * n)
        a, c, g_y = (take(role, (len(gf), d)) for role in ("a", "c", "g_y"))
        g_w2 = hidden[r].T @ gf if w2.requires_grad else None
        g_h = np.matmul(gf, w2.data.T, out=take("g_s", (len(gf), f)))  # dead before g_s
        g_h *= hidden[r] > 0
        g_w1 = np.multiply(x_hat2[r], gamma2.data, out=a).T @ g_h if w1.requires_grad else None
        g_y, g_gamma2 = _norm_backward(np.matmul(g_h, w1.data.T, out=g_y), gamma2,
                                       x_hat2[r], inv2[r], a)
        g_y += gf
        # the chunk's q, k, v and probabilities again, bit for bit, from x_hat1 * gamma1
        q, k, v = qkv_heads(np.multiply(np.multiply(xf[r], inv1[r], out=c), gamma1.data,
                                        out=c))
        p = p_last if lo == last else attention(lo, hi, q, k, False)
        ctx, ctx_h = context(p, v, a)
        g_wo = ctx.T @ g_y if wo.requires_grad else None
        g_ctx = np.matmul(g_y, wo.data.T, out=c).reshape(hi - lo, n, n_heads, dh)
        g_ctx = g_ctx.transpose(0, 2, 1, 3)
        g_qkv = take("g_qkv", (hi - lo, n, 3, n_heads, dh))
        g_q, g_k, g_v = g_qkv.transpose(2, 0, 3, 1, 4)
        np.matmul(p, g_ctx, out=g_v)
        # softmax backward over keys, p * (dp - colsum(p * dp)); colsum(p * dp)
        # equals rowsum(g_ctx * ctx) per query, which needs no [b,H,N,N] product
        g_s = take("g_s", (hi - lo, n_heads, n, n))
        np.matmul(v, g_ctx.swapaxes(-1, -2), out=g_s)
        g_s -= np.einsum("bhqd,bhqd->bhq", g_ctx, ctx_h)[..., None, :]
        g_s *= p
        g_bias = None
        if ids is not None:
            # one bincount over every head's bucket ids; each bucket adds its
            # scores in [Nk,Nq] order, in float64
            g_bias = np.bincount(ids, weights=np.einsum("bhkq->hkq", g_s).ravel(),
                                 minlength=n_heads * len(rel_bias.data))
            g_bias = g_bias.reshape(n_heads, -1).T.astype(np.float32, order="C")
        np.matmul(g_s.swapaxes(-1, -2), k, out=g_q)
        np.matmul(g_s, q, out=g_k)
        g_qkv = g_qkv.reshape(-1, 3 * d)
        x_hat1 = np.multiply(xf[r], inv1[r], out=a)
        g_w = np.multiply(x_hat1, gamma1.data, out=c).T @ g_qkv
        g_w[:, :d] *= scale
        _, g_gamma1 = _norm_backward(np.matmul(g_qkv, w_qkv.T, out=g_x[r]), gamma1,
                                     x_hat1, inv1[r], c)
        g_x[r] += g_y
        return [g_gamma1, g_w, g_wo, g_bias, g_gamma2, g_w1, g_w2]

    def bwd(g):
        gf = g.reshape(rows, d)
        g_x = np.empty((rows, d), dtype=np.float32)
        # the relative bias's bucket ids, offset by each head's first bucket, once a node
        ids = None if not rel_bias.requires_grad else (
            np.arange(n_heads)[:, None, None] * len(rel_bias.data) + idx.T).ravel()
        sums = None
        # an empty batch still runs one (empty) chunk, so each gradient is defined
        for lo in range(0, max(b, 1), CHUNK):
            hi = min(lo + CHUNK, b)
            parts = chunk_bwd(lo, hi, gf[lo * n:hi * n], g_x, ids)
            # weight gradients add up in chunk order
            sums = parts if sums is None else [
                s if s is None else s + part for s, part in zip(sums, parts)]
        g_gamma1, g_w, g_wo, g_bias, g_gamma2, g_w1, g_w2 = sums
        return (g_x.reshape(b, n, d) if x.requires_grad else None, g_gamma1,
                *(g_w[:, j * d:(j + 1) * d] if w.requires_grad else None
                  for j, w in enumerate((wq, wk, wv))),
                g_wo, g_bias, g_gamma2, g_w1, g_w2)

    return _record(Tensor(out.reshape(b, n, d)), inputs, bwd)


def linear_head(h, w, bias):
    """A linear head as one tape node: rows @ w + bias for hidden states h
    [B,N,D], whose rows are [B*N, D] when w has D rows (a per-patch head) or
    [B, N*D] when it has N*D rows (a flatten-and-project head). Returns
    [B, rows per window * w's columns]."""
    if h.ndim != 3:
        raise ShapeError(f"linear_head expects [B,N,D] input, got {h.shape}")
    b, n, d = h.shape
    k, m = w.data.shape
    if k not in (d, n * d):
        raise ShapeError(f"head weight {w.data.shape} fits neither rows of {d} nor of "
                         f"{n * d} for input {h.shape}")
    per = n * d // k
    rows = h.data.reshape(b * per, k)
    out = rows @ w.data + bias.data

    def bwd(g):
        gf = g.reshape(b * per, m)
        return ((gf @ w.data.T).reshape(b, n, d) if h.requires_grad else None,
                rows.T @ gf if w.requires_grad else None,
                np.einsum("ij->j", gf) if bias.requires_grad else None)

    return _record(Tensor(out.reshape(b, per * m)), (h, w, bias), bwd)


def weighted_sq_error(pred, target, weight):
    """sum((d * d) * weight) with d = pred - target, as one tape node. target
    [pred's shape] and weight (broadcast to it) are constants; the backward
    is (2 * weight) * d."""
    target = np.asarray(target, dtype=np.float32)
    if target.shape != pred.shape:
        raise ShapeError(f"prediction shape {pred.shape} != target shape {target.shape}")
    weight = np.asarray(weight, dtype=np.float32)
    d = pred.data - target
    return _record(Tensor(((d * d) * weight).sum()), (pred,),
                   lambda g: ((2 * g * weight) * d,))


def backward(loss, tape):
    """{leaf Tensor: float32 gradient} for every requires_grad leaf reachable
    from `loss`. Walks the tape once in reverse; the map is keyed by tensor
    (by identity: Tensor defines no __eq__); an intermediate's gradient is
    popped when its producing node is processed, so only the leaves' remain."""
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    grads = {loss: np.ones_like(loss.data)}
    for out, inputs, bwd in reversed(tape._nodes):
        g_out = grads.pop(out, None)
        if g_out is None:
            continue
        for t, gi in zip(inputs, bwd(g_out)):
            # constants are never recorded with requires_grad, skip them
            if gi is None or not t.requires_grad:
                continue
            gi = np.asarray(gi, dtype=np.float32)
            grads[t] = grads[t] + gi if t in grads else gi
    return grads


@dataclass
class CosineSchedule:
    """Half-cosine decay from lr_init at step 0 to lr_final at total_steps."""

    lr_init: float = 1e-4
    lr_final: float = 1e-5
    total_steps: int = 1

    def __post_init__(self):
        if self.lr_init <= 0 or self.lr_final <= 0:
            raise ContractError("learning rates must be positive")
        if self.total_steps < 1:
            raise ContractError("total_steps must be >= 1")


def cosine_lr(step, sched):
    """lr_final + 0.5 * (lr_init - lr_final) * (1 + cos(pi * step / total))."""
    if not 0 <= step <= sched.total_steps:
        raise ContractError(
            f"step {step} outside schedule range [0, {sched.total_steps}]"
        )
    span = sched.lr_init - sched.lr_final
    return sched.lr_final + 0.5 * span * (1.0 + np.cos(np.pi * step / sched.total_steps))


# MOMENT's fixed AdamW recipe. The update runs BLOCK elements at a time: a
# full-length scratch re-faulted 2 MB each base step (2 vCPUs: 4.8 -> 7.4 ms)
BETA1, BETA2, EPS, BLOCK = 0.9, 0.999, 1e-8, 1 << 15


class AdamW:
    """AdamW with decoupled weight decay. The tensors of params (name -> Tensor)
    are packed once into one float32 vector, flat, and their .data become its
    views; the moments m and v share its layout."""

    def __init__(self, params, weight_decay=0.05):
        self.weight_decay, self.step_count = float(weight_decay), 0
        ends = np.cumsum([0] + [p.data.size for p in params.values()])
        self._slots = [(name, p, slice(lo, hi))
                       for (name, p), lo, hi in zip(params.items(), ends, ends[1:])]
        self.flat = np.empty(ends[-1], dtype=np.float32)
        for _, p, part in self._slots:
            self.flat[part] = p.data.ravel()
            p.data = self.flat[part].reshape(p.data.shape)
        self.m, self.v = np.zeros_like(self.flat), np.zeros_like(self.flat)
        self._g = np.empty_like(self.flat)

    def clipped_gradient(self, grads, max_norm):
        """(g, norm): the tensors' grads (as backward returns them) in one vector,
        scaled by max_norm / norm when their global L2 norm (one float64 sum per
        tensor, in order) exceeds it. The norm is finite iff every gradient is.
        g is the optimizer's own gather vector, overwritten by the next call."""
        g = self._g
        total = 0.0
        for name, p, part in self._slots:
            if p not in grads:
                raise ContractError(f"trained parameter {name!r} has no gradient")
            g[part] = grads[p].ravel()
            total += float(np.sum(np.square(grads[p], dtype=np.float64)))
        norm = math.sqrt(total)
        if not math.isfinite(norm):
            name = next(n for n, _, part in self._slots if not np.isfinite(g[part]).all())
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
        if norm > max_norm:
            g *= np.float32(max_norm / norm)
        return g, norm

    def step(self, grads, lr, max_norm):
        """th -= lr * (m_hat / (sqrt(v_hat) + EPS) + weight_decay * th) from
        grads clipped at max_norm, in place in g and a block's scratch with a
        per-tensor update's float32 operations; returns the pre-clip norm."""
        if not min(lr, max_norm) > 0:
            raise ContractError(f"lr and max_norm must be positive, got {lr} and {max_norm}")
        g, norm = self.clipped_gradient(grads, max_norm)
        self.step_count += 1
        bc1, bc2 = 1.0 - BETA1**self.step_count, 1.0 - BETA2**self.step_count
        for lo in range(0, g.size, BLOCK):
            gb, m, v, th = (a[lo:lo + BLOCK] for a in (g, self.m, self.v, self.flat))
            m *= BETA1
            m += (scratch := np.multiply(gb, 1.0 - BETA1))
            v *= BETA2
            v += np.multiply(np.square(gb, out=gb), 1.0 - BETA2, out=gb)
            np.sqrt(np.divide(v, bc2, out=scratch), out=scratch)
            scratch += EPS
            np.divide(np.divide(m, bc1, out=gb), scratch, out=gb)
            gb += np.multiply(th, self.weight_decay, out=scratch)
            gb *= np.float32(lr)
            th -= gb
        return norm
