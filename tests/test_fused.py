"""Fused graph nodes against the primitive chains they replace, bit for bit.

Each fused node (gradcore's ``dense``, one per layer, and the nodes the
distill loss terms build: one per term and one for the weighted total) must
reproduce the chain of primitive ops it stands for exactly: the same output
bytes and the same gradient bytes for every parent that takes a gradient.
The chains below are the reference; they are built only from gradcore
primitives.

The lean forms of the step (direct ufunc reductions, the node-only
backward walk, rank-based scoring) are checked the same way against the
plain numpy forms they replace.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ukd.distill import (KL_DIRECTIONS, _entropy, confidence_weight, hard_loss, peer_loss,
                         teacher_loss, total_loss, uncertainty_stats)
from ukd.errors import NumericError, ParameterError
from ukd.gradcore import (
    Tensor,
    _accumulate,
    _log_softmax_adjoint,
    _log_softmax_data,
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
    row_softmax,
    row_sum,
    scale,
    sub,
    tensor_sum,
)
from ukd.harness import TrainConfig, _accuracy, _teacher_stats, train_step_dual
from ukd.nets import LayerSpec, Network
from ukd.optim import SgdState

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


def test_row_softmax_is_the_exp_of_log_softmax():
    rng = np.random.default_rng(7)
    leaf = Tensor(rng.normal(size=(5, 3)) * 4.0)
    z = dense(Tensor(rng.normal(size=(5, 4))), Tensor(rng.normal(size=(4, 3))),
              Tensor(rng.normal(size=3)), False)
    for tensor in (leaf, z):
        for tau in (1.0, 2.5):
            ls = log_softmax(tensor, tau)
            probs = row_softmax(tensor, tau)
            assert probs.tobytes() == np.exp(ls.data).tobytes()
    # an op's output hands back the pair log_softmax kept: no second exp
    assert row_softmax(z, 2.5) is row_softmax(z, 2.5)
    with pytest.raises(ParameterError):
        row_softmax(z, 0.0)


# ---------------------------------------------------------------- finite checks


# These tests feed an op non-finite values directly, outside the entry points
# that silence numpy's RuntimeWarning, so the warning comes with the error.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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


def _picker(first_column):
    """One linear layer whose logits are columns first_column and first_column + 1 of x."""
    weight = np.zeros((6, 2))
    weight[first_column, 0] = weight[first_column + 1, 1] = 1.0
    return Network([LayerSpec(6, 2, "none")],
                   [_leaf(weight), _leaf(np.zeros(2))])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("direction", KL_DIRECTIONS)
@pytest.mark.parametrize("term", ["hard", "teacher", "peer"])
def test_non_finite_intermediate_in_a_term_is_named(term, direction):
    # the teacher's logits are columns 0-1 of the batch, s1's 2-3 and s2's 4-5
    s2_logits = EXTREME.copy()
    if term == "hard":
        s2_logits = MODERATE.copy()
        s2_logits[0] = [1e308, -1e308]
    x = Tensor(np.hstack([MODERATE, MODERATE, s2_logits]))
    teacher, s1, s2 = _picker(0).freeze(), _picker(2), _picker(4)
    # s1's peer term reads s2's logits before s2's own terms run, so only the
    # peer case keeps gamma; it is named for s1
    gamma, named = (0.2, "s1") if term == "peer" else (0.0, "s2")
    config = TrainConfig(mode="dual", gamma=gamma, tau=0.5, kl_direction=direction)
    with pytest.raises(NumericError, match=f"^{named} {term} loss term diverged: "):
        train_step_dual(_teacher_stats(teacher, x), s1, s2, (x, np.array([0, 1])), config,
                        SgdState(s1.parameters, 0.1, 0.0, 0.0),
                        SgdState(s2.parameters, 0.1, 0.0, 0.0))


# ---------------------------------------------------------------- lean forms


def _plain_log_softmax_data(zd, t):
    s = zd / t
    m = s.max(axis=1, keepdims=True)
    shifted = s - m
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return shifted - log_z


def _plain_log_softmax_adjoint(g, probs, t):
    return (g - probs * g.sum(axis=1, keepdims=True)) / t


SIGNED_ZEROS = st.sampled_from([0.0, -0.0])


def _with_zeros(draw, arr):
    """arr with a drawn set of entries replaced by +0.0 or -0.0."""
    for i in draw(st.lists(st.integers(0, arr.size - 1), max_size=arr.size)):
        arr.flat[i] = draw(SIGNED_ZEROS)
    return arr


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([1.0, 0.5, 2.0, 4.0, 3.7]))
def test_log_softmax_reductions_are_the_wrapper_forms(data, t):
    draw = data.draw
    batch, c = draw(st.integers(1, 6)), draw(st.integers(2, 6))
    zd = _with_zeros(draw, _matrix(draw, batch, c, draw(SCALES)))
    g = _with_zeros(draw, _matrix(draw, batch, c, draw(SCALES)))
    ls = _log_softmax_data(zd, t)
    assert ls.tobytes() == _plain_log_softmax_data(zd, t).tobytes()
    probs = np.exp(ls)
    assert (_log_softmax_adjoint(g, probs, t).tobytes()
            == _plain_log_softmax_adjoint(g, probs, t).tobytes())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(-1e6, 1e6), SIGNED_ZEROS), min_size=1, max_size=300))
def test_reduce_over_size_is_the_mean(values):
    x = np.array(values)
    assert np.asarray(np.add.reduce(x) / x.size).tobytes() == np.asarray(x.mean()).tobytes()
    m = np.vstack([x, x[::-1]])
    assert np.add.reduce(m, axis=1).tobytes() == m.sum(axis=1).tobytes()
    assert np.maximum.reduce(m, axis=1).tobytes() == m.max(axis=1).tobytes()


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(2, 12))
def test_uncertainty_means_and_weights_match_the_plain_forms(data, c):
    draw = data.draw
    batch = draw(st.integers(1, 40))
    logits = _matrix(draw, batch, c, draw(SCALES))
    for i in draw(st.lists(st.integers(0, batch - 1), max_size=batch)):
        logits[i] = draw(st.sampled_from([0.0, 1e4]))  # uniform row: entropy ln C
        if logits[i, 0] == 1e4:
            logits[i] = 0.0
            logits[i, 0] = 1e4  # one-hot row: entropy exactly 0
    probs = np.exp(_log_softmax_data(logits, 1.0))
    stats = uncertainty_stats(probs)
    h = stats.entropy
    assert (stats.weight.tobytes()
            == np.clip(1.0 - h / np.log(c), 0.0, 1.0).tobytes())


def _plain_entropy(p):
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(p), 0.0)
    return np.maximum(-np.add.reduce(terms, axis=1), 0.0)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([2, 4, 10]))
def test_entropy_is_the_masked_log_form_and_never_warns(data, c):
    draw = data.draw
    entry = st.one_of(st.just(0.0), st.just(-0.0), st.just(5e-324),
                      st.floats(5e-324, 1.0))
    rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=1, max_size=8))
    p = np.array(rows)
    for row in p:  # a probability row has a positive entry
        row[draw(st.integers(0, c - 1))] = draw(st.floats(1e-300, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = _entropy(p)
    assert h.tobytes() == _plain_entropy(p).tobytes()


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 12), st.lists(st.sampled_from(["zero", "max", "below", "above", "any"]),
                                    min_size=1, max_size=20), st.data())
def test_confidence_weight_is_the_clip_form(c, kinds, data):
    max_h = np.log(c)
    pick = {"zero": lambda: 0.0, "max": lambda: float(max_h),
            "below": lambda: -data.draw(st.floats(0.0, 1e-9)),
            "above": lambda: float(max_h) + data.draw(st.floats(0.0, 1e-9)),
            "any": lambda: data.draw(st.floats(0.0, float(max_h)))}
    h = np.array([pick[kind]() for kind in kinds])
    assert (confidence_weight(h, c).tobytes()
            == np.clip(1.0 - h / max_h, 0.0, 1.0).tobytes())


def _parent_backward(loss):
    """The backward walk over every reachable tensor, leaves included, kept as a reference."""
    seed = np.ones((), dtype=np.float64)
    order, seen, stack = [], {id(loss)}, [loss]
    while stack:
        t = stack.pop()
        if t.node is None:
            continue
        order.append(t)
        for p in t.node.parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    order.sort(key=lambda t: t.node.seq, reverse=True)
    adjoint = {id(loss): seed}
    for t in order:
        g = adjoint.pop(id(t), None)
        if g is None:
            continue
        for p, c in zip(t.node.parents, t.node.grad_fn(g)):
            if c is None:
                continue
            if p.node is not None:
                pid = id(p)
                adjoint[pid] = adjoint[pid] + c if pid in adjoint else c
            elif p.requires_grad:
                _accumulate(p, c)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_backward_is_bitwise_the_full_walk(data):
    draw = data.draw
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    a = _leaf(_matrix(draw, m, n, draw(SCALES)))  # feeds two ops
    b = _leaf(_matrix(draw, m, n, draw(SCALES)))
    frozen = Tensor(_matrix(draw, m, n, 1.0))

    def build():
        h = mul(a, b)  # feeds three ops, so three contributions are summed into it
        parts = [exp(scale(h, 0.1)), mul(h, a), sub(h, frozen)]
        return tensor_sum(add(add(parts[0], parts[1]), parts[2]))

    grads = []
    for walk in (backward, _parent_backward):
        a.grad = b.grad = None
        walk(build())
        grads.append((a.grad.tobytes(), b.grad.tobytes(), frozen.grad))
    assert grads[0] == grads[1]


def _plain_accuracy(logits, labels):
    k = min(5, logits.shape[1])
    order = np.argsort(-logits, axis=1, kind="stable")
    return {"top1": float((order[:, 0] == labels).mean()),
            "top5": float((order[:, :k] == labels[:, None]).any(axis=1).mean())}


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([2, 4, 10]))
def test_rank_scoring_is_the_stable_argsort(data, c):
    draw = data.draw
    n = draw(st.integers(1, 30))
    # few distinct values, so most rows hold ties, and both signs of zero
    values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -3.0, 1e-300])
    logits = np.array(draw(st.lists(values, min_size=n * c, max_size=n * c))).reshape(n, c)
    # labels c and c + 1 have no logit, as for a net with fewer classes than its data
    labels = np.array(draw(st.lists(st.integers(0, c + 1), min_size=n, max_size=n)),
                      dtype=np.int64)
    fast, plain = _accuracy(logits, labels), _plain_accuracy(logits, labels)
    assert ({k: np.float64(v).tobytes() for k, v in fast.items()}
            == {k: np.float64(v).tobytes() for k, v in plain.items()})
