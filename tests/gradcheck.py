"""Finite-difference gradient oracle shared by the engine and model tests.

The engine computes in f32, so central differences with h=1e-3 carry roundoff
noise around 5e-4 in absolute terms for O(1) losses. The error measure is
therefore the unit-floored relative error |ad - fd| / max(|ad|, |fd|, 1):
relative for large gradients, absolute (at the 1e-3 contract tolerance) for
small ones.
"""

import numpy as np

from tinytsfm import numcore as nc


def finite_difference_grads(loss_fn, params, h=1e-3):
    """Central differences of loss_fn() w.r.t. every entry of every parameter.

    loss_fn takes no arguments and must read the live param tensors; entries
    are perturbed in place one at a time. Divides by the achieved f32 step.
    """
    out = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        g = np.zeros(flat.size, dtype=np.float64)
        for i in range(flat.size):
            orig = flat[i].item()
            hi = np.float32(orig + h)
            lo = np.float32(orig - h)
            flat[i] = hi
            loss_hi = float(loss_fn().data)
            flat[i] = lo
            loss_lo = float(loss_fn().data)
            flat[i] = np.float32(orig)
            g[i] = (loss_hi - loss_lo) / (float(hi) - float(lo))
        out[name] = g.reshape(p.data.shape)
    return out


def max_rel_err(ad, fd):
    """Unit-floored relative error between two gradient arrays."""
    ad = np.asarray(ad, dtype=np.float64)
    fd = np.asarray(fd, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(ad), np.abs(fd)), 1.0)
    return float(np.max(np.abs(ad - fd) / denom))


def check_grads(loss_fn, params, tol=1e-3, h=1e-3):
    """Run loss_fn under a tape, backprop, and compare against the FD oracle.

    Returns the worst unit-floored relative error across all parameters.
    """
    with nc.Tape() as tape:
        loss = loss_fn()
    grads = nc.backward(loss, tape)
    fd = finite_difference_grads(loss_fn, params, h=h)
    worst = 0.0
    for name, p in params.items():
        assert p in grads, f"no gradient reached parameter {name!r}"
        worst = max(worst, max_rel_err(grads[p], fd[name]))
    assert worst <= tol, f"gradient mismatch: worst unit-floored rel err {worst:.2e}"
    return worst
