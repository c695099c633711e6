"""Print sha256 digests of seeded training steps and read-path encodes.

    python3 tools/output_digest.py

The package is imported from the `src/` of the checkout this script sits
in, with one BLAS thread. Each line names a case and the digest of every float32 array it
produced, in a fixed order. Two checkouts whose lines all match computed
the same bits, so a change that claims to keep outputs bit-identical runs
this at its parent and at the change and compares the two outputs.

- `train <config> b<batch> <head>`: three training steps on one workspace,
  as the training loop takes them, of the masked reconstruction loss or a
  forecasting head's squared error, training every tensor but the other
  head's: each step's loss, every gradient (by parameter name), the
  weights after AdamW, and the first step's attention probabilities. A
  `fresh` case takes the same steps on tapes without a workspace, so every
  array its nodes draw is a new one.
- `frozen <config> b<batch>`: three steps of the masked reconstruction loss
  over a frozen encoder, as `pretrain._reconstruction_loss(..., freeze=True)`
  takes them: the encoder runs off the tape on the whole batch, and only the
  reconstruction head trains. Each step's loss, the head's gradients and its
  weights after AdamW.
- `encode <config> b<batch> <head>`: `encode_windows` alone and with the
  reconstruction and forecasting heads, on seeded weights with seeded noise
  added to every tensor, so the biases, the relative bias and the norm
  gains (zero or one at initialisation) reach the digest too.
"""

import hashlib
import os
import sys

# One BLAS thread, as the benchmark runs, before NumPy loads BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from tinytsfm import model as tm  # noqa: E402
from tinytsfm.data import Series  # noqa: E402
from tinytsfm import numcore as nc  # noqa: E402
from tinytsfm import pretrain as tp  # noqa: E402

TRAIN_CASES = (("tiny", 12, "reconstruction"), ("tiny", 1, "reconstruction"),
               ("small", 64, "reconstruction"), ("small", 17, "reconstruction"),
               ("base", 20, "reconstruction"), ("tiny", 12, "forecast"), ("small", 17, "forecast"))
# (config, batch): chunks of 16, 16 and 1 on tapes without a workspace
FRESH_CASES = (("small", 33),)
# (config, batch): a frozen encoder off the tape, on more windows than a chunk
FROZEN_CASES = (("small", 64),)
ENCODE_CONFIGS = ("tiny", "small", "base")
ENCODE_BATCHES = (1, 5, 16, 33)
STEPS, HORIZON = 3, 16


def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float32)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def train_arrays(name, batch, head, workspace=True):
    """Every array `STEPS` seeded training steps produce, on one workspace or
    on none."""
    weights = tm.init_weights(tm.named_config(name), seed=0)
    if head == "forecast":
        tm.attach_forecast_head(weights, HORIZON, seed=0)
    cfg = weights.config
    rng = np.random.default_rng(batch)
    trained = weights.parameters(head, freeze=False)
    opt = nc.AdamW(trained)
    workspace = nc.Workspace() if workspace else None
    for step in range(STEPS):
        x = rng.normal(size=(batch, cfg.seq_len)).astype(np.float32)
        plan = tp.sample_patch_mask(batch, cfg.n_patches, 0.3, rng)
        sink = [] if step == 0 else None
        with nc.Tape(workspace) as tape:
            if head == "reconstruction":
                loss = tp.masked_mse_loss(x, tm.model_forward(weights, x, plan, sink)[1], plan)
            else:
                target = rng.normal(size=(batch, HORIZON)).astype(np.float32)
                loss = nc.weighted_sq_error(
                    tm.forecasting_head(tm.encode(weights, x, plan, sink), weights), target,
                    np.float32(1.0 / target.size))
        grads = nc.backward(loss, tape)
        yield loss.data
        yield from (grads[p] for p in trained.values())
        yield from sink or ()
        opt.step(grads, 1e-3, 1.0)
        yield from (p.data for p in trained.values())


def frozen_arrays(name, batch):
    """Every array `STEPS` seeded frozen-encoder reconstruction steps produce."""
    weights = tm.init_weights(tm.named_config(name), seed=0)
    cfg = weights.config
    rng = np.random.default_rng(batch)
    dataset = [Series(rng.normal(size=cfg.seq_len), name=f"s{i}") for i in range(batch)]
    _, batch_loss = tp._reconstruction_loss(weights, dataset, 0.3, freeze=True)
    trained = weights.parameters("reconstruction")
    opt = nc.AdamW(trained)
    workspace = nc.Workspace()
    for _ in range(STEPS):
        with nc.Tape(workspace) as tape:
            loss = batch_loss(np.arange(batch), rng)
        grads = nc.backward(loss, tape)
        yield loss.data
        yield from (grads[p] for p in trained.values())
        opt.step(grads, 1e-3, 1.0)
        yield from (p.data for p in trained.values())


def encode_arrays(weights, batch, head):
    cfg = weights.config
    rng = np.random.default_rng(100 + batch)
    x = rng.normal(size=(batch, cfg.seq_len)).astype(np.float32)
    plan = tp.sample_patch_mask(batch, cfg.n_patches, 0.3, rng)
    yield tm.encode_windows(weights, x, plan, head=head)


def main():
    for name, batch, head in TRAIN_CASES:
        print(f"train {name} b{batch} {head} {digest(train_arrays(name, batch, head))}")
    for name, batch in FRESH_CASES:
        print(f"train {name} b{batch} reconstruction fresh "
              f"{digest(train_arrays(name, batch, 'reconstruction', workspace=False))}")
    for name, batch in FROZEN_CASES:
        print(f"frozen {name} b{batch} {digest(frozen_arrays(name, batch))}")
    heads = (("none", None), ("recon", tm.reconstruction_head),
             ("forecast", tm.forecasting_head))
    for name in ENCODE_CONFIGS:
        weights = tm.attach_forecast_head(tm.init_weights(tm.named_config(name), seed=1),
                                          HORIZON, seed=1)
        rng = np.random.default_rng(1)
        for p in weights.params.values():
            p.data += rng.normal(scale=0.1, size=p.shape).astype(np.float32)
        for batch in ENCODE_BATCHES:
            for label, head in heads:
                print(f"encode {name} b{batch} {label} "
                      f"{digest(encode_arrays(weights, batch, head))}")


if __name__ == "__main__":
    main()
