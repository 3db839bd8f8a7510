"""Fused graph nodes against the primitive chains they replace, bit for bit.

Each fused node (one per dense layer, one per loss term, one for the
weighted total) must reproduce the chain of primitive ops it stands for
exactly: the same output bytes and the same gradient bytes for every parent
that takes a gradient. The chains below are the reference; they are built
only from gradcore primitives.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ukd.distill import KL_DIRECTIONS, hard_loss, peer_loss, teacher_loss, total_loss
from ukd.errors import NumericError
from ukd.gradcore import (
    Tensor,
    add,
    backward,
    dense,
    detach,
    exp,
    log_softmax,
    matmul,
    mean,
    mul,
    relu,
    row_sum,
    scale,
    sub,
    tensor_sum,
)
from ukd.harness import TrainConfig, _student_loss

# ---------------------------------------------------------------- reference chains


def chain_dense(x, w, b, use_relu):
    h = add(matmul(x, w), b)
    return relu(h) if use_relu else h


def chain_hard(z, labels):
    onehot = np.zeros(z.shape)
    onehot[np.arange(z.shape[0]), labels] = 1.0
    return scale(mean(row_sum(mul(log_softmax(z, 1.0), Tensor(onehot)))), -1.0)


def _kl_rows(log_a, log_b):
    return row_sum(mul(exp(log_a), sub(log_a, log_b)))


def chain_kl(z, ref, tau, w, direction):
    lq = log_softmax(z, tau)
    lp = detach(log_softmax(ref, tau))
    rows = _kl_rows(lq, lp) if direction == "as_paper" else _kl_rows(lp, lq)
    if w is not None:
        rows = mul(rows, Tensor(w))
    return scale(mean(rows), tau * tau)


def chain_total(terms, weights):
    live = [scale(t, c) for t, c in zip(terms, weights) if t is not None and c != 0.0]
    if not live:
        return Tensor(0.0)
    combined = live[0]
    for part in live[1:]:
        combined = add(combined, part)
    return combined


# ---------------------------------------------------------------- helpers


def _leaf(arr, requires_grad=True):
    return Tensor(np.array(arr, dtype=np.float64), requires_grad=requires_grad)


def _run(build, leaves, seed_grad):
    """Output bytes plus every leaf's gradient bytes after backward through seed_grad."""
    for leaf in leaves:
        leaf.grad = None
    out = build()
    if out.node is not None:  # the same downstream op hands both sides seed_grad
        backward(scale(out, seed_grad) if out.data.ndim == 0
                 else tensor_sum(mul(out, Tensor(seed_grad))))
    return out.data.tobytes(), [None if p.grad is None else p.grad.tobytes() for p in leaves]


def _same(fused, chain, leaves, seed_grad):
    assert _run(fused, leaves, seed_grad) == _run(chain, leaves, seed_grad)


def _matrix(draw, rows, cols, scale_):
    return np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=rows * cols,
                                  max_size=rows * cols))).reshape(rows, cols) * scale_


SCALES = st.sampled_from([0.1, 1.0, 8.0, 40.0])
TAUS = st.sampled_from([0.5, 1.0, 2.0, 4.0, 3.7])
WEIGHT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


# ---------------------------------------------------------------- dense


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dense_is_bitwise_its_chain(data):
    draw = data.draw
    m, k, n = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    use_relu = draw(st.booleans())
    x_grad = draw(st.booleans())
    x = _leaf(_matrix(draw, m, k, draw(SCALES)), requires_grad=x_grad)
    w = _leaf(_matrix(draw, k, n, draw(SCALES)))
    b = _leaf(_matrix(draw, 1, n, 1.0)[0])
    if draw(st.booleans()):  # first row's pre-activations exactly 0
        b.data[:] = -(x.data @ w.data)[0]
    if draw(st.booleans()):  # a zero input row meets biases of +0.0 or -0.0
        x.data[-1] = 0.0
        b.data[: n // 2] = draw(st.sampled_from([0.0, -0.0]))
    if draw(st.booleans()):  # products that underflow below zero meet biases of -0.0
        x.data[0] = -1e-200
        w.data[:, 0] = 1e-200
        b.data[0] = -0.0
    seed_grad = _matrix(draw, m, n, 1.0)
    _same(lambda: dense(x, w, b, use_relu), lambda: chain_dense(x, w, b, use_relu),
          [x, w, b], seed_grad)
    if not x_grad:
        assert dense(x, w, b, use_relu).node.grad_fn(seed_grad)[0] is None


def test_dense_relu_of_negative_zero_is_positive_zero():
    # Each product underflows to a negative zero, and a fused multiply-add
    # keeps the sign, so the pre-activations are -0.0 on such a BLAS.
    x = _leaf(np.full((3, 4), -1e-200))
    w = _leaf(np.full((4, 2), 1e-200))
    b = _leaf([-0.0, -0.0])
    pre = x.data @ w.data + b.data
    if not (np.signbit(pre) & (pre == 0.0)).any():
        pytest.skip("this BLAS sums the underflowed products to +0.0")
    out = dense(x, w, b, True)
    assert not np.signbit(out.data).any()
    _same(lambda: dense(x, w, b, True), lambda: chain_dense(x, w, b, True),
          [x, w, b], np.array([[1.0, -2.0], [-0.5, 3.0], [2.0, -1.0]]))


# ---------------------------------------------------------------- loss terms


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_hard_loss_is_bitwise_its_chain(data):
    draw = data.draw
    batch, c = draw(st.integers(1, 6)), draw(st.integers(2, 6))
    z = _leaf(_matrix(draw, batch, c, draw(SCALES)))
    labels = np.array(draw(st.lists(st.integers(0, c - 1), min_size=batch, max_size=batch)))
    _same(lambda: hard_loss(z, labels), lambda: chain_hard(z, labels), [z],
          draw(st.sampled_from([1.0, 0.4, 0.3, 1e-3])))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(KL_DIRECTIONS))
def test_teacher_loss_is_bitwise_its_chain(data, direction):
    draw = data.draw
    batch, c = draw(st.integers(1, 6)), draw(st.integers(2, 6))
    z = _leaf(_matrix(draw, batch, c, draw(SCALES)))
    ref = Tensor(_matrix(draw, batch, c, draw(SCALES)))
    w = np.array(draw(st.lists(WEIGHT, min_size=batch, max_size=batch)))
    tau = draw(TAUS)
    _same(lambda: teacher_loss(z, ref, w, tau, direction),
          lambda: chain_kl(z, ref, tau, w, direction), [z],
          draw(st.sampled_from([1.0, 0.4, 0.7])))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(KL_DIRECTIONS), st.booleans())
def test_peer_loss_is_bitwise_its_chain(data, direction, peer_linked):
    draw = data.draw
    batch, c = draw(st.integers(1, 6)), draw(st.integers(2, 6))
    z = _leaf(_matrix(draw, batch, c, draw(SCALES)))
    peer = _leaf(_matrix(draw, batch, c, draw(SCALES)), requires_grad=peer_linked)
    tau = draw(TAUS)
    _same(lambda: peer_loss(z, peer, tau, direction),
          lambda: chain_kl(z, peer, tau, None, direction), [z, peer],
          draw(st.sampled_from([1.0, 0.2])))
    assert peer.grad is None


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(0.0, 50.0), min_size=3, max_size=3),
       st.lists(st.one_of(st.just(0.0), st.floats(0.0, 2.0)), min_size=3, max_size=3),
       st.lists(st.booleans(), min_size=3, max_size=3))
def test_total_loss_is_bitwise_its_chain(values, weights, present):
    terms = [_leaf(v) if keep else None for v, keep in zip(values, present)]
    weights = [w if keep else 0.0 for w, keep in zip(weights, present)]
    leaves = [t for t in terms if t is not None]
    _same(lambda: total_loss(*terms, *weights)[0], lambda: chain_total(terms, weights),
          leaves, 1.0)


def test_dual_step_losses_match_chain_through_both_students():
    """Both students' losses, built as the dual step builds them, through networks."""
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(8, 5)))
    t_logits = Tensor(rng.normal(size=(8, 4)) * 3)
    labels = rng.integers(0, 4, size=8)
    w = rng.uniform(0, 1, size=8)
    params = [[_leaf(rng.normal(size=(5, 7))), _leaf(rng.normal(size=7)),
               _leaf(rng.normal(size=(7, 4))), _leaf(rng.normal(size=4))] for _ in range(2)]

    def losses(layer, hard, kl, total):
        z1, z2 = (layer(layer(x, a, b, True), c, d, False) for a, b, c, d in params)
        out = []
        for z, peer in ((z1, z2), (z2, z1)):
            out.append(total([hard(z, labels), kl(z, t_logits, 4.0, w, "as_paper"),
                              kl(z, peer, 4.0, None, "as_paper")], [0.4, 0.4, 0.2]))
        return out

    def fused_kl(z, ref, tau, w, direction):
        if w is None:
            return peer_loss(z, ref, tau, direction)
        return teacher_loss(z, ref, w, tau, direction)

    leaves = [p for pair in params for p in pair]
    runs = []
    for build in (lambda: losses(dense, hard_loss, fused_kl, lambda t, c: total_loss(*t, *c)[0]),
                  lambda: losses(chain_dense, chain_hard, chain_kl, chain_total)):
        for leaf in leaves:
            leaf.grad = None
        loss1, loss2 = build()
        backward(loss1)
        backward(loss2)
        runs.append((loss1.data.tobytes(), loss2.data.tobytes(),
                     [leaf.grad.tobytes() for leaf in leaves]))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------- row softmaxes


def test_leaf_logits_edited_in_place_give_fresh_losses():
    rng = np.random.default_rng(5)
    z = _leaf(rng.normal(size=(4, 3)))
    ref = Tensor(rng.normal(size=(4, 3)))
    labels, w = np.array([0, 2, 1, 1]), rng.uniform(0, 1, size=4)

    def values(z, ref):
        return hard_loss(z, labels).data.tobytes(), teacher_loss(z, ref, w, 2.0).data.tobytes()

    before = values(z, ref)
    z.data *= 3.0
    ref.data[0] += 1.0
    after = values(z, ref)
    assert after != before
    assert after == values(Tensor(z.data.copy()), Tensor(ref.data.copy()))


def test_op_output_at_two_temperatures_gives_both_fresh_values():
    rng = np.random.default_rng(6)
    x, w, b = (Tensor(rng.normal(size=s)) for s in ((5, 4), (4, 3), (3,)))
    z, peer = dense(x, w, b, False), dense(x, Tensor(rng.normal(size=(4, 3))), b, False)
    z_fresh, peer_fresh = Tensor(z.data.copy()), Tensor(peer.data.copy())
    for tau in (1.0, 2.5, 1.0, 2.5):
        assert log_softmax(z, tau).data.tobytes() == log_softmax(z_fresh, tau).data.tobytes()
        for direction in KL_DIRECTIONS:
            assert (peer_loss(z, peer, tau, direction).data.tobytes()
                    == peer_loss(z_fresh, peer_fresh, tau, direction).data.tobytes())
    assert hard_loss(z, np.arange(5) % 3).data.tobytes() == \
        hard_loss(z_fresh, np.arange(5) % 3).data.tobytes()
    assert sorted(z.rows) == [1.0, 2.5]


# ---------------------------------------------------------------- finite checks


@pytest.mark.parametrize("pre", [-np.inf, np.nan])
def test_dense_checks_its_pre_activation(pre):
    # 1e200 * -1e200 overflows to -inf; inf * 0 is NaN. relu would map both to 0.
    x = Tensor([[1e200, np.inf if np.isnan(pre) else 0.0]])
    w = Tensor([[-1e200], [0.0]])
    with pytest.raises(NumericError, match="dense"):
        dense(x, w, Tensor([0.0]), True)


# Student logits [1e308, 0] are finite at temperature 1 but overflow at tau
# 0.5; [1e308, -1e308] overflow when the row max is subtracted at any tau.
EXTREME = np.array([[1e308, 0.0], [0.0, 1.0]])
MODERATE = np.array([[0.5, -0.5], [0.0, 1.0]])


@pytest.mark.parametrize("direction", KL_DIRECTIONS)
@pytest.mark.parametrize("term", ["hard", "teacher", "peer"])
def test_non_finite_intermediate_in_a_term_is_named(term, direction):
    z = MODERATE.copy()
    t_logits, peer_logits = MODERATE.copy(), MODERATE.copy()
    if term == "hard":
        z[0] = [1e308, -1e308]
    elif term == "teacher":
        z = EXTREME.copy()
    else:
        peer_logits = EXTREME.copy()
    config = TrainConfig(mode="dual", tau=0.5, kl_direction=direction)
    with pytest.raises(NumericError, match=f"{term} loss term diverged"):
        _student_loss(_leaf(z), Tensor(t_logits), np.array([0, 1]), np.ones(2), config,
                      _leaf(peer_logits))
