"""Engine tests: tape semantics, node forward values, FD gradient oracle,
optimizer recipe.

The generic primitives (matmul, add, mul, ...) and relu, scale_norm and
attention live in reference_chain: they are the oracle the model-sized
nodes are checked against, so they keep their own hand values and FD
checks, and they record on numcore's tapes, so the tape-semantics tests
(thread-local tapes, fan-out, constant operands) run on them."""

import math
import threading

import numpy as np
import pytest

from gradcheck import check_grads, finite_difference_grads, max_rel_err
import reference_chain as rc
from tinytsfm import model as tm
from tinytsfm import numcore as nc
from tinytsfm.errors import ContractError, ShapeError, TrainingError
from tinytsfm.pretrain import masked_mse_loss


def t(x, grad=False):
    return nc.Tensor(np.asarray(x, dtype=np.float32), requires_grad=grad)


# ---------------------------------------------------------------- forward values


def test_matmul_identity():
    a = t(np.eye(2))
    b = t([[1, 2], [3, 4]])
    np.testing.assert_allclose(rc.matmul(a, b).data, [[1, 2], [3, 4]])


def test_matmul_zero_annihilator():
    a = t([[1, 2], [3, 4]])
    b = t([[0], [0]])
    np.testing.assert_array_equal(rc.matmul(a, b).data, [[0], [0]])


def test_matmul_hand_product():
    a = t([[1, 2], [3, 4]])
    b = t([[5, 6], [7, 8]])
    np.testing.assert_allclose(rc.matmul(a, b).data, [[19, 22], [43, 50]])


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        rc.matmul(t(np.zeros((2, 3))), t(np.zeros((2, 3))))


def test_softmax_symmetry():
    np.testing.assert_allclose(rc.row_softmax(t([0.0, 0.0]).data), [0.5, 0.5])


def test_softmax_saturation_stable():
    out = rc.row_softmax(t([1000.0, 0.0]).data)
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-6)


def test_softmax_log_ratio():
    out = rc.row_softmax(t([np.log(1.0), np.log(3.0)]).data)
    np.testing.assert_allclose(out, [0.25, 0.75], rtol=1e-6)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        shape = tuple(rng.integers(1, 6, size=rng.integers(1, 4)))
        x = t(rng.normal(size=shape) * 10)
        sums = rc.row_softmax(x.data).sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)


def test_scale_norm_rms_example():
    out = rc.scale_norm(t([3.0, 4.0]), t([1.0, 1.0]), eps=0.0).data
    np.testing.assert_allclose(out, [0.84853, 1.13137], atol=1e-5)


def test_scale_norm_constant_vector():
    for c in (2.5, -2.5):
        out = rc.scale_norm(t([c] * 6), t(np.ones(6)), eps=0.0).data
        np.testing.assert_allclose(out, np.sign(c) * np.ones(6), atol=1e-6)


def test_scale_norm_zero_gamma():
    out = rc.scale_norm(t([1.0, 2.0]), t([0.0, 0.0])).data
    np.testing.assert_array_equal(out, [0.0, 0.0])


def test_scale_norm_gamma_shape_mismatch():
    with pytest.raises(ShapeError):
        rc.scale_norm(t([1.0, 2.0]), t([1.0, 2.0, 3.0]))


def test_forward_determinism_bit_identical():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 5)).astype(np.float32)
    w = rng.normal(size=(5, 3)).astype(np.float32)
    a = rc.matmul(t(x), t(w)).data
    b = rc.matmul(t(x), t(w)).data
    assert np.array_equal(a, b)


# ---------------------------------------------------------------- backward basics


def test_backward_square_at_three():
    x = t(3.0, grad=True)
    with nc.Tape() as tape:
        loss = rc.mul(x, x)
    np.testing.assert_allclose(nc.backward(loss, tape)[x], 6.0)


def test_backward_requires_scalar():
    x = t([1.0, 2.0], grad=True)
    with nc.Tape() as tape:
        y = rc.mul(x, x)
    with pytest.raises(ContractError):
        nc.backward(y, tape)


def test_backward_returns_the_gradients_and_writes_nothing():
    x = t(2.0, grad=True)
    with nc.Tape() as tape:
        loss = rc.mul(x, x)
    first, second = nc.backward(loss, tape), nc.backward(loss, tape)
    assert list(first) == list(second) == [x]
    assert first[x].dtype == np.float32
    np.testing.assert_array_equal(first[x], second[x])
    np.testing.assert_allclose(first[x], 4.0)
    assert not hasattr(x, "grad")


def test_backward_shared_input_fan_out():
    # x feeds two branches; gradients must sum: d/dx (x*x + 3x) = 2x + 3
    x = t(1.5, grad=True)
    three = t(3.0)
    with nc.Tape() as tape:
        loss = rc.add(rc.mul(x, x), rc.mul(x, three))
    np.testing.assert_allclose(nc.backward(loss, tape)[x], 6.0)


def test_no_recording_without_tape():
    x = t([1.0, 2.0], grad=True)
    tape = nc.Tape()
    rc.mul(x, x)  # outside any tape context
    assert len(tape) == 0


def test_tape_records_only_its_own_thread():
    x = t([1.0, 2.0], grad=True)
    other = {}

    def run_elsewhere():
        other["out"] = rc.mul(x, x)

    with nc.Tape() as tape:
        worker = threading.Thread(target=run_elsewhere)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        mine = rc.mul(x, x)
    assert len(tape) == 1
    assert mine.requires_grad
    assert not other["out"].requires_grad

    def open_tape_elsewhere():
        with nc.Tape() as theirs:
            rc.mul(x, x)
            other["recorded"] = len(theirs)

    worker = threading.Thread(target=open_tape_elsewhere)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert other["recorded"] == 1
    assert not rc.mul(x, x).requires_grad  # no tape open in this thread


def _gradient_slots(tape):
    """(requires_grad, got a gradient) for every input of every tape node,
    calling each node's backward on a ones cotangent."""
    return [
        (inp.requires_grad, gi is not None)
        for out, inputs, bwd in tape._nodes
        for inp, gi in zip(inputs, bwd(np.ones_like(out.data)))
    ]


def test_constant_operands_get_no_backward_work():
    rng = np.random.default_rng(9)
    a = t(rng.normal(size=(3, 4)), grad=True)
    m = t(rng.normal(size=(4, 2)), grad=True)
    c = t(rng.normal(size=(3, 4)))
    k = t(rng.normal(size=(2, 3)))
    w = t(rng.normal(size=(2, 2)))
    with nc.Tape() as tape:
        prod = rc.mul(c, rc.mul(a, c))
        out = rc.matmul(k, rc.matmul(prod, m))
        loss = rc.sum_(rc.mul(out, w))
    slots = _gradient_slots(tape)
    assert (False, True) not in slots  # no constant received a gradient
    assert (True, False) not in slots  # every live input did
    assert slots.count((False, False)) == 4  # c twice, k and w
    grads = nc.backward(loss, tape)
    g_inner = k.data.T @ w.data  # d loss / d (prod @ m)
    np.testing.assert_allclose(grads[m], prod.data.T @ g_inner, rtol=1e-5)
    np.testing.assert_allclose(grads[a], (g_inner @ m.data.T) * c.data * c.data, rtol=1e-5)


def test_model_step_constants_get_no_gradient():
    rng = np.random.default_rng(10)
    weights = tm.init_weights(tm.named_config("tiny", seq_len=64), seed=1)
    x = rng.normal(size=(3, 64)).astype(np.float32)
    plan = (rng.random((3, 8)) > 0.3).astype(np.uint8)
    with nc.Tape() as tape:
        _, recon = tm.model_forward(weights, x, plan)
        loss = masked_mse_loss(x, recon, plan)
    slots = _gradient_slots(tape)
    # the patches, plan and positions of patch_embed and the loss's targets
    # and weights are plain arrays, never tape inputs
    assert slots.count((False, False)) == 0
    assert (False, True) not in slots and (True, False) not in slots
    # patch_embed, one encoder_block, linear_head and weighted_sq_error
    assert len(tape) == 4
    grads = nc.backward(loss, tape)
    assert all(p in grads for p in weights.params.values())


# ------------------------------------------------------- FD checks per primitive


def _weighted_mean_loss(out, w):
    return rc.mean_(rc.mul(out, w))


def test_fd_matmul():
    rng = np.random.default_rng(10)
    for _ in range(12):
        m, k, n = rng.integers(1, 5, size=3)
        a = t(rng.normal(size=(m, k)), grad=True)
        b = t(rng.normal(size=(k, n)), grad=True)
        w = t(rng.normal(size=(m, n)))
        check_grads(lambda: _weighted_mean_loss(rc.matmul(a, b), w), {"a": a, "b": b})


def test_fd_matmul_batched():
    rng = np.random.default_rng(11)
    for _ in range(6):
        a = t(rng.normal(size=(2, 3, 4)), grad=True)
        b = t(rng.normal(size=(2, 4, 5)), grad=True)
        w = t(rng.normal(size=(2, 3, 5)))
        check_grads(lambda: _weighted_mean_loss(rc.matmul(a, b), w), {"a": a, "b": b})


def test_fd_matmul_broadcast_rhs():
    rng = np.random.default_rng(12)
    a = t(rng.normal(size=(3, 2, 4)), grad=True)
    b = t(rng.normal(size=(4, 5)), grad=True)
    w = t(rng.normal(size=(3, 2, 5)))
    check_grads(lambda: _weighted_mean_loss(rc.matmul(a, b), w), {"a": a, "b": b})


def test_fd_scale_norm():
    rng = np.random.default_rng(14)
    for _ in range(12):
        x = t(rng.normal(size=(4, 6)) + 0.5, grad=True)
        gamma = t(rng.normal(size=6), grad=True)
        w = t(rng.normal(size=(4, 6)))
        check_grads(
            lambda: _weighted_mean_loss(rc.scale_norm(x, gamma), w),
            {"x": x, "gamma": gamma},
        )


def test_fd_relu():
    rng = np.random.default_rng(15)
    for _ in range(10):
        # keep entries away from the kink where the derivative is undefined
        vals = rng.normal(size=(3, 4))
        vals[np.abs(vals) < 0.05] += 0.1
        x = t(vals, grad=True)
        w = t(rng.normal(size=(3, 4)))
        check_grads(lambda: _weighted_mean_loss(rc.relu(x), w), {"x": x})


def test_fd_add_mul_broadcast():
    rng = np.random.default_rng(16)
    for _ in range(10):
        a = t(rng.normal(size=(4, 1)), grad=True)
        b = t(rng.normal(size=(3,)), grad=True)
        w = t(rng.normal(size=(4, 3)))
        check_grads(
            lambda: _weighted_mean_loss(rc.mul(rc.add(a, b), b), w), {"a": a, "b": b}
        )


def test_fd_reshape():
    rng = np.random.default_rng(17)
    for _ in range(6):
        x = t(rng.normal(size=(2, 3, 4)), grad=True)
        w = t(rng.normal(size=(4, 6)))
        check_grads(lambda: _weighted_mean_loss(rc.reshape(x, (4, 6)), w), {"x": x})


def test_fd_sum_axis_keepdims():
    rng = np.random.default_rng(18)
    x = t(rng.normal(size=(3, 4)), grad=True)
    w = t(rng.normal(size=(3, 1)))
    check_grads(lambda: _weighted_mean_loss(rc.sum_(x, axis=1, keepdims=True), w), {"x": x})


def test_fd_attention():
    rng = np.random.default_rng(19)
    for trial in range(6):
        b, n, heads, dh = 1 + trial % 2, 3 + trial % 2, 1 + trial % 2, 2
        d = heads * dh
        x = t(rng.normal(size=(b, n, d)), grad=True)
        ws = {name: t(rng.normal(size=(d, d)) * 0.7, grad=True)
              for name in ("wq", "wk", "wv", "wo")}
        rel_bias = t(rng.normal(size=(5, heads)), grad=True)
        idx = rng.integers(0, 5, size=(n, n))  # repeats exercise the per-bucket sum
        w = t(rng.normal(size=(b, n, d)))

        def loss():
            out = rc.attention(x, ws["wq"], ws["wk"], ws["wv"], ws["wo"],
                               rel_bias, idx, heads)
            return _weighted_mean_loss(out, w)

        check_grads(loss, {"x": x, **ws, "rel_bias": rel_bias})


def test_attention_rejects_bad_shapes():
    w = t(np.zeros((4, 4)))
    g = t(np.ones(4))
    bias = t(np.zeros((5, 2)))
    ff1, ff2 = t(np.zeros((4, 6))), t(np.zeros((6, 4)))

    def block(x, idx, heads):
        return nc.encoder_block(x, g, w, w, w, w, bias, g, ff1, ff2, idx, heads)

    with pytest.raises(ShapeError):
        block(t(np.zeros((3, 4))), np.zeros((3, 3), int), 2)
    with pytest.raises(ShapeError):
        block(t(np.zeros((1, 3, 4))), np.zeros((3, 3), int), 3)
    with pytest.raises(ShapeError):
        block(t(np.zeros((1, 3, 4))), np.zeros((2, 3), int), 2)


def _block_inputs(rng, b, n, heads, dh, ff, x_grad=True):
    """x [b,n,heads*dh], the nine block parameters in encoder_block's order
    (as a dict) and a bucket index with repeats, which exercise the
    per-bucket bias sum."""
    d = heads * dh
    x = t(rng.normal(size=(b, n, d)), grad=x_grad)
    params = {
        "gamma1": t(1.0 + 0.3 * rng.normal(size=d), grad=True),
        **{name: t(rng.normal(size=(d, d)) * 0.5, grad=True)
           for name in ("wq", "wk", "wv", "wo")},
        "rel_bias": t(rng.normal(size=(5, heads)), grad=True),
        "gamma2": t(1.0 + 0.3 * rng.normal(size=d), grad=True),
        "w1": t(rng.normal(size=(d, ff)) * 0.5, grad=True),
        "w2": t(rng.normal(size=(ff, d)) * 0.5, grad=True),
    }
    return x, params, rng.integers(0, 5, size=(n, n))


def test_fd_encoder_block():
    rng = np.random.default_rng(23)
    for trial in range(6):
        heads = 1 + trial % 2
        # the last trial's input is a constant
        x, params, idx = _block_inputs(rng, 1 + trial % 2, 3 + trial % 2, heads, 2, 5,
                                       x_grad=trial != 5)
        w = t(rng.normal(size=x.shape))

        def loss():
            return _weighted_mean_loss(nc.encoder_block(x, *params.values(), idx, heads), w)

        check_grads(loss, {"x": x, **params} if x.requires_grad else params)


def test_encoder_block_matches_reference_chain():
    rng = np.random.default_rng(24)
    x, params, idx = _block_inputs(rng, 3, 6, 2, 4, 16)
    w = t(rng.normal(size=x.shape))
    runs = []
    for block in (nc.encoder_block, rc.reference_block):
        sink = []
        with nc.Tape() as tape:
            out = block(x, *params.values(), idx, 2, sink=sink)
            loss = _weighted_mean_loss(out, w)
        grads = nc.backward(loss, tape)
        runs.append((out.data, sink[0], [grads[x]] + [grads[p] for p in params.values()]))
    (out, sink, grads), (want, want_sink, want_grads) = runs
    np.testing.assert_allclose(out, want, rtol=1e-5, atol=1e-6)
    assert sink.shape == want_sink.shape == (3, 2, 6, 6)  # query-major, as the chain's
    np.testing.assert_allclose(sink, want_sink, rtol=1e-5, atol=1e-7)
    for got, ref in zip(grads, want_grads):
        np.testing.assert_allclose(got, ref, rtol=1e-4, atol=1e-6)


def test_encoder_block_chunk_input_gradient_is_the_chunk_run_alone():
    # the forward and backward take nc.CHUNK windows at a time, so a chunk's
    # output, attention and input-gradient rows are bit for bit those of its
    # windows run alone
    rng = np.random.default_rng(27)
    b = 2 * nc.CHUNK + 5
    x, params, idx = _block_inputs(rng, b, 6, 2, 4, 16)
    w = rng.normal(size=x.shape).astype(np.float32)

    def run(lo, hi):
        xs = t(x.data[lo:hi], grad=True)
        sink = []
        with nc.Tape() as tape:
            # a plain sum: the upstream gradient is w's rows, whatever the batch
            out = nc.encoder_block(xs, *params.values(), idx, 2, sink=sink)
            loss = rc.sum_(rc.mul(out, t(w[lo:hi])))
        return out.data, sink[0], nc.backward(loss, tape)[xs]

    whole = run(0, b)
    for lo in range(0, b, nc.CHUNK):
        hi = min(lo + nc.CHUNK, b)
        for got, alone in zip(whole, run(lo, hi)):
            np.testing.assert_array_equal(got[lo:hi], alone)


def test_encoder_block_rebuilt_chunks_match_on_every_tape():
    # small's block shape at 33 windows runs chunks of 16, 16 and 1: the node
    # keeps the last one's probabilities and its backward rebuilds the others'.
    # Fresh arrays and a reused workspace give the same bits, each chunk's
    # rows are those of the chunk run alone, and the weight gradients are the
    # chunks' own added in chunk order
    rng = np.random.default_rng(29)
    b = 2 * nc.CHUNK + 1
    x, params, idx = _block_inputs(rng, b, 64, 4, 16, 128)
    w = rng.normal(size=x.shape).astype(np.float32)
    workspace = nc.Workspace()

    def run(lo, hi, ws):
        xs = t(x.data[lo:hi], grad=True)
        sink = []
        with nc.Tape(ws) as tape:
            out = nc.encoder_block(xs, *params.values(), idx, 4, sink=sink)
            loss = rc.sum_(rc.mul(out, t(w[lo:hi])))
        grads = nc.backward(loss, tape)
        # the output, attention and input gradient rows, then the weight gradients
        return [out.data, sink[0], grads[xs], *(grads[p] for p in params.values())]

    whole = run(0, b, None)
    for got, want in zip(run(0, b, workspace), whole):
        np.testing.assert_array_equal(got, want)
    with nc.OffTape():
        np.testing.assert_array_equal(
            nc.encoder_block(x, *params.values(), idx, 4).data, whole[0])
    for ws in (None, workspace):
        summed = None
        for lo in range(0, b, nc.CHUNK):
            hi = min(lo + nc.CHUNK, b)
            alone = run(lo, hi, ws)
            for got, rows in zip(whole[:3], alone[:3]):
                np.testing.assert_array_equal(got[lo:hi], rows)
            summed = alone[3:] if summed is None else [s + g for s, g in zip(summed, alone[3:])]
        for got, want in zip(whole[3:], summed):
            np.testing.assert_array_equal(got, want)


def test_encoder_block_empty_batch_gets_zero_gradients():
    rng = np.random.default_rng(28)
    x, params, idx = _block_inputs(rng, 0, 3, 2, 2, 5)
    with nc.Tape() as tape:
        loss = rc.sum_(nc.encoder_block(x, *params.values(), idx, 2))
    grads = nc.backward(loss, tape)
    assert grads[x].shape == (0, 3, 4)
    for p in params.values():
        np.testing.assert_array_equal(grads[p], np.zeros_like(p.data))


def test_encoder_block_sink_gets_a_fresh_copy():
    rng = np.random.default_rng(25)
    x, params, idx = _block_inputs(rng, 2, 4, 2, 2, 6)
    w = t(rng.normal(size=x.shape))
    grads = []
    for scribble in (False, True):
        sink = []
        with nc.Tape() as tape:
            loss = _weighted_mean_loss(
                nc.encoder_block(x, *params.values(), idx, 2, sink=sink), w)
        assert sink[0].flags.c_contiguous and sink[0].flags.owndata
        np.testing.assert_allclose(sink[0].sum(axis=-1), 1.0, rtol=1e-6)
        if scribble:  # the backward must not read the caller's array
            sink[0][:] = 0.0
        got = nc.backward(loss, tape)
        grads.append([got[p] for p in params.values()])
    for a, b in zip(*grads):
        np.testing.assert_array_equal(a, b)


def test_fd_patch_embed():
    rng = np.random.default_rng(26)
    for trial in range(4):
        b, n, p, d = 1 + trial % 2, 4, 3, 5
        patches = rng.normal(size=(b, n, p)).astype(np.float32)
        observed = (rng.random((b, n)) > 0.4).astype(np.uint8)
        observed[0, 0], observed[-1, -1] = 1, 0  # both sides of the blend
        params = {"w": t(rng.normal(size=(p, d)), grad=True),
                  "bias": t(rng.normal(size=d), grad=True),
                  "mask_token": t(rng.normal(size=d), grad=True)}
        positions = rng.normal(size=(n, d)).astype(np.float32) if trial % 2 else None
        w = t(rng.normal(size=(b, n, d)))

        def embed():
            return nc.patch_embed(patches, observed, *params.values(), positions)

        check_grads(lambda: _weighted_mean_loss(embed(), w), params)
        want = rc.reference_patch_embed(patches, observed, *params.values(), positions)
        np.testing.assert_array_equal(embed().data, want.data)


def _node_and_chain_runs(node, chain, make_loss, params):
    """(forward output, every gradient) of make_loss(op) with op the node,
    then with its reference chain."""
    runs = []
    for op in (node, chain):
        with nc.Tape() as tape:
            out, loss = make_loss(op)
        grads = nc.backward(loss, tape)
        runs.append((out.data, [grads[p] for p in params.values()]))
    return runs


def test_linear_head_matches_reference_chain_bit_for_bit():
    rng = np.random.default_rng(29)
    for rows in (5, 20):  # per-patch [B*N, 5] and flattened [B, 4*5] rows
        h = t(rng.normal(size=(3, 4, 5)), grad=True)
        params = {"h": h, "w": t(rng.normal(size=(rows, 6)), grad=True),
                  "bias": t(rng.normal(size=6), grad=True)}
        w = t(rng.normal(size=(3, 6 * 20 // rows)))

        def make_loss(op):
            out = op(*params.values())
            return out, rc.mean_(rc.mul(out, w))

        (out, grads), (want, want_grads) = _node_and_chain_runs(
            nc.linear_head, rc.reference_heads, make_loss, params)
        assert out.shape == want.shape == w.shape
        np.testing.assert_array_equal(out, want)
        for got, ref in zip(grads, want_grads):
            np.testing.assert_array_equal(got, ref)
        check_grads(lambda: make_loss(nc.linear_head)[1], params)


def test_linear_head_rejects_bad_shapes():
    w, bias = t(np.zeros((5, 2))), t(np.zeros(2))
    with pytest.raises(ShapeError):
        nc.linear_head(t(np.zeros((4, 5))), w, bias)
    with pytest.raises(ShapeError):
        nc.linear_head(t(np.zeros((1, 4, 6))), w, bias)


def test_weighted_sq_error_matches_reference_chain():
    rng = np.random.default_rng(30)
    pred = t(rng.normal(size=(3, 8)), grad=True)
    target = rng.normal(size=(3, 8)).astype(np.float32)
    eligible = rng.random((3, 8)) < 0.4
    for weight in ((eligible / eligible.sum()).astype(np.float32), np.float32(1 / 24)):
        (loss, (grad,)), (want, (want_grad,)) = _node_and_chain_runs(
            nc.weighted_sq_error, rc.reference_loss,
            lambda op: 2 * (op(pred, target, weight),), {"pred": pred})
        assert loss.shape == () and loss == want
        np.testing.assert_array_equal(grad, want_grad)
        if weight.ndim:  # steps the weight leaves out get no gradient
            assert np.all(grad[~eligible] == 0)
    with pytest.raises(ShapeError):
        nc.weighted_sq_error(pred, target[:2], np.float32(1.0))


def test_fd_two_layer_mlp():
    rng = np.random.default_rng(20)
    x = t(rng.normal(size=(4, 6)))
    w1 = t(rng.normal(size=(6, 8)) * 0.5, grad=True)
    w2 = t(rng.normal(size=(8, 3)) * 0.5, grad=True)
    target = t(rng.normal(size=(4, 3)))

    def loss():
        h = rc.relu(rc.matmul(x, w1))
        y = rc.matmul(h, w2)
        d = rc.sub(y, target)
        return rc.mean_(rc.mul(d, d))

    check_grads(loss, {"w1": w1, "w2": w2})


def test_fd_oracle_detects_wrong_gradient():
    # sanity check on the oracle itself: a deliberately broken grad must fail
    x = t(1.7, grad=True)

    def loss():
        return rc.mul(x, x)

    fd = finite_difference_grads(loss, {"x": x})
    assert max_rel_err(np.array(2.0 * 1.7), fd["x"]) <= 1e-3
    assert max_rel_err(np.array(1.7), fd["x"]) > 1e-2  # wrong by factor 2


# ---------------------------------------------------------------- optimizer


def _grads(params, grads):
    """The map backward would return for name -> gradient: each tensor of
    params to a float32 array of its shape."""
    return {params[name]: np.asarray(g, dtype=np.float32).reshape(params[name].shape)
            for name, g in grads.items()}


def test_adamw_first_step_hand_example():
    p = {"w": t(0.0, grad=True)}
    opt = nc.AdamW(p, weight_decay=0.0)
    opt.step(_grads(p, {"w": 1.0}), 0.1, 5.0)
    np.testing.assert_allclose(p["w"].data, -0.1, atol=1e-7)
    assert opt.step_count == 1


def test_adamw_zero_grad_no_decay_keeps_params():
    p = {"w": t([1.0, -2.0], grad=True)}
    opt = nc.AdamW(p, weight_decay=0.0)
    for _ in range(5):
        opt.step(_grads(p, {"w": np.zeros(2)}), 0.1, 5.0)
    np.testing.assert_array_equal(p["w"].data, [1.0, -2.0])


def test_adamw_pure_decay_term():
    p = {"w": t(1.0, grad=True)}
    opt = nc.AdamW(p, weight_decay=0.05)
    opt.step(_grads(p, {"w": 0.0}), 0.1, 5.0)
    np.testing.assert_allclose(p["w"].data, 0.995, rtol=1e-6)


def test_adamw_matches_reference_loop():
    # independent re-execution of the textbook update, float64 reference
    rng = np.random.default_rng(21)
    theta = rng.normal(size=4)
    gs = [rng.normal(size=4) for _ in range(7)]
    lr, wd, b1, b2, eps = 0.01, 0.05, nc.BETA1, nc.BETA2, nc.EPS

    ref = theta.copy()
    m = np.zeros(4)
    v = np.zeros(4)
    for step, g in enumerate(gs, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**step)
        vhat = v / (1 - b2**step)
        ref = ref - lr * (mhat / (np.sqrt(vhat) + eps) + wd * ref)

    p = {"w": t(theta, grad=True)}
    opt = nc.AdamW(p, weight_decay=wd)
    for g in gs:
        opt.step(_grads(p, {"w": g}), lr, math.inf)
    np.testing.assert_allclose(p["w"].data, ref, rtol=1e-4, atol=1e-6)


def test_adamw_nan_grad_names_parameter():
    p = {"bad_param": t(1.0, grad=True)}
    opt = nc.AdamW(p)
    with pytest.raises(TrainingError, match="bad_param"):
        opt.step(_grads(p, {"bad_param": np.nan}), 0.1, 5.0)


def test_adamw_non_finite_grad_names_the_tensor_and_updates_nothing():
    # a per-tensor loop stepped every tensor before the bad one; the packed
    # update checks the whole gradient first
    rng = np.random.default_rng(23)
    p = {f"p{i}": t(rng.normal(size=(3, 2)), grad=True) for i in range(4)}
    opt = nc.AdamW(p)
    for bad in (np.nan, np.inf):
        grads = _grads(p, {n: rng.normal(size=(3, 2)) for n in p})
        grads[p["p2"]][1, 0] = bad
        before = {n: x.data.tobytes() for n, x in p.items()}
        with pytest.raises(TrainingError, match="'p2'"):
            opt.step(grads, 0.1, 5.0)
        assert {n: x.data.tobytes() for n, x in p.items()} == before
        assert opt.step_count == 0
        assert not opt.m.any() and not opt.v.any()


def test_adamw_packs_its_tensors_into_one_vector():
    p = {"a": t([[1.0, 2.0], [3.0, 4.0]], grad=True), "b": t(5.0, grad=True)}
    opt = nc.AdamW(p)
    np.testing.assert_array_equal(opt.flat, [1.0, 2.0, 3.0, 4.0, 5.0])
    assert p["a"].shape == (2, 2) and p["b"].shape == ()
    assert all(np.shares_memory(x.data, opt.flat) for x in p.values())
    opt.step(_grads(p, {"a": np.ones(4), "b": 1.0}), 0.1, 5.0)
    np.testing.assert_array_equal(p["a"].data.ravel(), opt.flat[:4])
    with pytest.raises(ContractError, match="'b'"):
        opt.step(_grads(p, {"a": np.ones(4)}), 0.1, 5.0)


def _clipped(grads, max_norm=5.0):
    """(gradient vector, pre-clip norm) of an optimizer over tensors with grads."""
    p = {n: t(np.zeros(len(g)), grad=True) for n, g in grads.items()}
    return nc.AdamW(p).clipped_gradient(_grads(p, grads), max_norm)


def test_clip_boundary_norm_unchanged():
    g, norm = _clipped({"a": [3.0], "b": [4.0]})
    np.testing.assert_array_equal(g, [3.0, 4.0])
    assert norm == 5.0


def test_clip_scales_above_max():
    g, norm = _clipped({"a": [6.0], "b": [8.0]})
    np.testing.assert_allclose(g, [3.0, 4.0], rtol=1e-6)
    assert norm == 10.0


def test_clip_zero_grads_unchanged():
    g, _ = _clipped({"a": np.zeros(3)})
    np.testing.assert_array_equal(g, np.zeros(3))


def test_clip_never_increases_norm():
    rng = np.random.default_rng(22)
    for _ in range(25):
        grads = {f"p{i}": rng.normal(size=rng.integers(1, 5)).astype(np.float32) * 10
                 for i in range(3)}
        g, before = _clipped(grads)
        after = float(np.sqrt(np.sum(np.square(g, dtype=np.float64))))
        assert after <= min(before, 5.0) + 1e-6


def test_cosine_lr_endpoints_and_midpoint():
    sched = nc.CosineSchedule(lr_init=1e-4, lr_final=1e-5, total_steps=100)
    np.testing.assert_allclose(nc.cosine_lr(0, sched), 1e-4, rtol=1e-12)
    np.testing.assert_allclose(nc.cosine_lr(100, sched), 1e-5, rtol=1e-12)
    np.testing.assert_allclose(nc.cosine_lr(50, sched), 5.5e-5, rtol=1e-12)


def test_cosine_lr_monotone_nonincreasing():
    sched = nc.CosineSchedule(total_steps=137)
    lrs = [nc.cosine_lr(s, sched) for s in range(138)]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))


def test_cosine_lr_step_out_of_range():
    sched = nc.CosineSchedule(total_steps=10)
    with pytest.raises(ContractError):
        nc.cosine_lr(11, sched)
    with pytest.raises(ContractError):
        nc.cosine_lr(-1, sched)
