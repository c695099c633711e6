"""Shared fixtures: a session-scoped pretrained tiny model over the mixed
sinusoid + AR(1) corpus, reused by task smokes, probes, and acceptance."""

import os

# One BLAS thread unless the environment says otherwise, as perfbench pins
# it: tiny-model steps are dispatch-bound, and on a 2-core host a second
# BLAS thread spreads their times more than it speeds them up. NumPy reads
# these when it loads, so they are set before the first import of it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

import tinytsfm.numcore as nc
from tinytsfm.model import ModelWeights, init_weights, named_config
from tinytsfm.pretrain import PretrainConfig, pretrain

from corpora import pretrain_mixture


def clone_weights(weights):
    """Deep copy so tests can attach heads / fine-tune without contaminating
    the shared fixture."""
    params = {
        name: nc.Tensor(p.data.copy(), requires_grad=p.requires_grad)
        for name, p in weights.params.items()
    }
    return ModelWeights(config=weights.config, params=params)


@pytest.fixture(scope="session")
def pretrain_corpus():
    return pretrain_mixture(seed=13)


@pytest.fixture(scope="session")
def trained_tiny(pretrain_corpus):
    """Tiny model pretrained 2000 steps (seed 13, stock recipe) on the
    mixed corpus;
    returns (weights, train log). Treat the weights as read-only — use
    clone_weights before mutating."""
    weights = init_weights(named_config("tiny"), seed=13)
    cfg = PretrainConfig(epochs=None, total_steps=2000, seed=13)
    weights, log = pretrain(weights, pretrain_corpus, cfg)
    return weights, log
