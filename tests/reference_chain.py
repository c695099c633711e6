"""The primitive chain that numcore's model-sized nodes replaced, kept as
their oracle.

add, sub, neg, mul, matmul, reshape, sum_, mean_ and _unbroadcast are
verbatim copies of the generic numcore primitives the heads and losses ran
on; relu, scale_norm and attention of the primitives nc.encoder_block took
over, and row_softmax of the softmax that attention called. They record on
numcore's tapes, so the tape-semantics tests run on them too.
reference_block, reference_patch_embed, reference_heads and reference_loss
are the chains that model.encoder_forward, model.embed_patches, the two
heads and the losses recorded on them. Each takes the arguments of the node
it stands for, so a test can monkeypatch it over that node.

AdamWState, adamw_step, global_norm and clip_global_norm are verbatim copies
of the per-tensor optimizer over {name: array} dicts that nc.AdamW's packed
vector replaced, kept as its oracle.
"""

import math

import numpy as np

from tinytsfm.errors import ContractError, ShapeError, TrainingError
from tinytsfm.numcore import Tensor, _record


def _unbroadcast(grad, shape):
    """Reduce a broadcast gradient back to `shape`."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a, b):
    out = Tensor(a.data + b.data)

    def bwd(g):
        return (
            _unbroadcast(g, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g, b.data.shape) if b.requires_grad else None,
        )

    return _record(out, (a, b), bwd)


def sub(a, b):
    out = Tensor(a.data - b.data)

    def bwd(g):
        return (
            _unbroadcast(g, a.data.shape) if a.requires_grad else None,
            -_unbroadcast(g, b.data.shape) if b.requires_grad else None,
        )

    return _record(out, (a, b), bwd)


def neg(a):
    out = Tensor(-a.data)
    return _record(out, (a,), lambda g: (-g,))


def mul(a, b):
    out = Tensor(a.data * b.data)

    def bwd(g):
        return (
            _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None,
        )

    return _record(out, (a, b), bwd)


def matmul(a, b):
    """Matrix product on the last two axes with numpy-style batch broadcasting."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)

    def bwd(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape)
        if b.requires_grad:
            gb = _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape)
        return ga, gb

    return _record(out, (a, b), bwd)


def reshape(x, shape):
    out = Tensor(x.data.reshape(shape))
    return _record(out, (x,), lambda g: (g.reshape(x.data.shape),))


def sum_(x, axis=None, keepdims=False):
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims))

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, x.data.shape).astype(np.float32),)
        ax = axis if isinstance(axis, tuple) else (axis,)
        if not keepdims:
            g = np.expand_dims(g, ax)
        return (np.broadcast_to(g, x.data.shape).astype(np.float32),)

    return _record(out, (x,), bwd)


def mean_(x, axis=None, keepdims=False):
    if axis is None:
        count = x.data.size
    else:
        ax = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([x.data.shape[a] for a in ax]))
    return mul(sum_(x, axis=axis, keepdims=keepdims), Tensor(np.float32(1.0 / count)))


def row_softmax(z):
    """Softmax over the last axis of the f32 array z, computed in place (z is
    returned): max-subtraction, exp, then one reciprocal multiply per row.

    fmax.reduce gives max's row maxima (a NaN row still ends up all NaN)
    with a faster loop than max, and einsum sums short rows faster than sum.
    """
    z -= np.fmax.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    total = np.einsum("...i->...", z)[..., None]
    z *= np.reciprocal(total, out=total)
    return z


def relu(x):
    out = Tensor(np.maximum(x.data, 0.0))
    return _record(out, (x,), lambda g: (g * (x.data > 0),))


def scale_norm(x, gamma, eps=1e-6):
    """Scale-only normalization: out = gamma * x / sqrt(mean(x^2, last) + eps).

    No mean subtraction and no additive bias; gamma broadcasts over the
    leading axes.
    """
    d = x.data.shape[-1]
    if gamma.data.shape != (d,):
        raise ShapeError(f"gamma shape {gamma.data.shape} does not match last dim {d}")
    eps = np.float32(eps)
    ms = np.mean(np.square(x.data), axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(ms + eps)
    out = Tensor(gamma.data * x.data * inv)

    def bwd(g):
        gxg = (gamma.data * x.data * g).sum(axis=-1, keepdims=True)
        gx = gamma.data * inv * g - x.data * (inv**3) * gxg / d
        ggamma = (x.data * inv * g).reshape(-1, d).sum(axis=0)
        return gx.astype(np.float32), ggamma.astype(np.float32)

    return _record(out, (x, gamma), bwd)


def attention(x, wq, wk, wv, wo, rel_bias, idx, n_heads, sink=None):
    """Multi-head self-attention as one tape node: for x [B,N,D] returns
    softmax(q k^T / sqrt(D/H) + bias) v, heads merged, times wo (the block
    output before any residual add).

    q, k and v come from one [D, 3D] product with wq|wk|wv. Head h's additive
    bias is rel_bias[idx, h]: idx is an [N,N] array of bucket ids into the
    [n_buckets, H] table. sink, when a list, receives the [B,H,N,N]
    probabilities. The backward works from the saved probabilities, q, k, v
    and context, and sums the bias gradient per bucket with one bincount.
    """
    if x.ndim != 3:
        raise ShapeError(f"attention expects [B,N,D] input, got {x.shape}")
    b, n, d = x.shape
    if d % n_heads != 0:
        raise ShapeError(f"model dim {d} is not divisible by {n_heads} heads")
    idx = np.asarray(idx)
    if idx.shape != (n, n):
        raise ShapeError(f"bucket index shape {idx.shape} != ({n}, {n})")
    dh = d // n_heads
    # the 1/sqrt(dh) logit scale is folded into wq: a [D,D] product, not [B,H,N,N]
    scale = np.float32(1.0 / math.sqrt(dh))
    w_qkv = np.concatenate([wq.data * scale, wk.data, wv.data], axis=1)
    xf = x.data.reshape(b * n, d)
    # [B*N, 3D] -> three [B,H,N,dh] views
    q, k, v = (xf @ w_qkv).reshape(b, n, 3, n_heads, dh).transpose(2, 0, 3, 1, 4)
    p = q @ k.swapaxes(-1, -2)
    # [H, N, N] in one gather from the [H, n_buckets] table
    p += np.take(np.ascontiguousarray(rel_bias.data.T), idx, axis=1)
    row_softmax(p)
    if sink is not None:
        sink.append(p)
    ctx = np.empty((b, n, n_heads, dh), dtype=np.float32)
    ctx_h = ctx.transpose(0, 2, 1, 3)
    np.matmul(p, v, out=ctx_h)
    ctx = ctx.reshape(b * n, d)
    out = Tensor((ctx @ wo.data).reshape(b, n, d))

    def bwd(g):
        gf = g.reshape(b * n, d)
        g_ctx = (gf @ wo.data.T).reshape(b, n, n_heads, dh).transpose(0, 2, 1, 3)
        g_qkv = np.empty((b, n, 3, n_heads, dh), dtype=np.float32)
        g_q, g_k, g_v = g_qkv.transpose(2, 0, 3, 1, 4)
        np.matmul(p.swapaxes(-1, -2), g_ctx, out=g_v)
        # softmax backward p * (dp - rowsum(p * dp)); rowsum(p * dp) equals
        # rowsum(g_ctx * ctx), which needs no [B,H,N,N] product
        g_s = g_ctx @ v.swapaxes(-1, -2)
        g_s -= np.einsum("bhnd,bhnd->bhn", g_ctx, ctx_h)[..., None]
        g_s *= p
        g_bias = None
        if rel_bias.requires_grad:
            n_buckets = rel_bias.data.shape[0]
            key = idx[None] * n_heads + np.arange(n_heads)[:, None, None]
            g_bias = np.bincount(key.ravel(), weights=g_s.sum(axis=0).ravel(),
                                 minlength=n_buckets * n_heads)
            g_bias = g_bias.reshape(n_buckets, n_heads).astype(np.float32)
        np.matmul(g_s, k, out=g_q)
        np.matmul(g_s.swapaxes(-1, -2), q, out=g_k)
        g_qkv = g_qkv.reshape(b * n, 3 * d)
        g_x = (g_qkv @ w_qkv.T).reshape(b, n, d) if x.requires_grad else None
        g_w = xf.T @ g_qkv
        g_w[:, :d] *= scale
        g_wo = ctx.T @ gf if wo.requires_grad else None
        return (g_x, *(g_w[:, j * d:(j + 1) * d] if w.requires_grad else None
                       for j, w in enumerate((wq, wk, wv))), g_wo, g_bias)

    return _record(out, (x, wq, wk, wv, wo, rel_bias), bwd)


def reference_block(x, gamma1, wq, wk, wv, wo, rel_bias, gamma2, w1, w2, idx, n_heads,
                    sink=None):
    """nc.encoder_block as the chain of primitives: ten tape nodes."""
    b, n, d = x.shape
    attn = attention(scale_norm(x, gamma1), wq, wk, wv, wo, rel_bias, idx, n_heads, sink=sink)
    x = add(x, attn)
    hidden = relu(matmul(reshape(scale_norm(x, gamma2), (b * n, d)), w1))
    return add(x, reshape(matmul(hidden, w2), (b, n, d)))


def reference_patch_embed(patches, observed, w, bias, mask_token, positions=None):
    """nc.patch_embed as the chain of primitives: seven tape nodes, eight with
    positions."""
    b, n, p = patches.shape
    plan_f = np.asarray(observed, dtype=np.float32).reshape(b, n, 1)
    proj = add(matmul(Tensor(patches.reshape(b * n, p)), w), bias)
    proj = reshape(proj, (b, n, w.data.shape[1]))
    keep = Tensor(plan_f)
    drop = Tensor(1.0 - plan_f)
    out = add(mul(proj, keep), mul(reshape(mask_token, (1, 1, -1)), drop))
    return out if positions is None else add(out, Tensor(positions[None]))


def reference_heads(h, w, bias):
    """nc.linear_head as the chain of primitives: four tape nodes."""
    rows = reshape(h, (-1, w.data.shape[0]))
    return reshape(add(matmul(rows, w), bias), (h.shape[0], -1))


def reference_loss(pred, target, weight):
    """nc.weighted_sq_error as the chain of primitives: four tape nodes."""
    diff = sub(pred, Tensor(target))
    return sum_(mul(mul(diff, diff), Tensor(weight)))


class AdamWState:
    """First/second moments per parameter plus the shared step count."""

    def __init__(self, params, weight_decay=0.05, beta1=0.9, beta2=0.999, eps=1e-8):
        self.step_count = 0
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}


def adamw_step(params, grads, state, lr):
    """One bias-corrected Adam update with decoupled decay th <- th - lr*lambda*th.

    params: dict name -> Tensor, grads: dict name -> ndarray (same shapes).
    Parameters are updated in place; the dicts are returned for convenience.
    """
    if lr <= 0:
        raise ContractError(f"lr must be positive, got {lr}")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        p.data -= np.float32(lr) * (update + state.weight_decay * p.data)
    return params, state


def global_norm(grads):
    """Global L2 norm across a dict of name -> gradient array."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.square(g, dtype=np.float64)))
    return float(np.sqrt(total))


def clip_global_norm(grads, max_norm=5.0):
    """Scale all gradients by max_norm/norm when the global L2 norm exceeds it."""
    if max_norm <= 0:
        raise ContractError(f"max_norm must be positive, got {max_norm}")
    norm = global_norm(grads)
    if norm > max_norm:
        scale = np.float32(max_norm / norm)
        for g in grads.values():
            g *= scale
    return grads
