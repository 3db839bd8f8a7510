"""Loss mathematics: oracle values, bounds, scaling identities, gradient flow."""

import warnings

import numpy as np
import pytest
from scipy.special import log_softmax as sp_log_softmax
from scipy.special import rel_entr, softmax as sp_softmax

from ukd.distill import (
    LossBreakdown,
    confidence_weight,
    entropy,
    hard_loss,
    kl_div,
    peer_loss,
    teacher_loss,
    total_loss,
    uncertainty_stats,
)
from ukd.errors import (
    ContractError,
    DistributionError,
    LabelError,
    NumericError,
    ParameterError,
    ShapeError,
)
from ukd.gradcore import Tensor, backward, log_softmax, zero_grad


def numeric_grad(f, x, h=1e-5):
    """Central-difference gradient of scalar f() w.r.t. array x, mutated in place."""
    g = np.zeros_like(x)
    flat, out = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        out[i] = (fp - fm) / (2.0 * h)
    return g


def _rand_logits(rng, batch, c, lo=-4.0, hi=4.0):
    return rng.uniform(lo, hi, (batch, c))


# ---------------------------------------------------------------- entropy


def test_entropy_uniform_is_log_c():
    h = entropy(np.full((3, 4), 0.25))
    np.testing.assert_allclose(h, np.log(4.0), rtol=0, atol=1e-15)


def test_entropy_one_hot_is_zero():
    p = np.zeros((2, 5))
    p[0, 1] = 1.0
    p[1, 4] = 1.0
    np.testing.assert_array_equal(entropy(p), [0.0, 0.0])


def test_entropy_oracle_value():
    # -sum(p ln p) for [0.7, 0.2, 0.1], evaluated at 40-digit precision.
    h = entropy(np.array([[0.7, 0.2, 0.1]]))
    np.testing.assert_allclose(h, [0.8018185525433373], rtol=0, atol=1e-15)


def test_entropy_rejects_bad_rows():
    with pytest.raises(DistributionError):
        entropy(np.array([[0.5, 0.6]]))  # sums to 1.1
    with pytest.raises(DistributionError):
        entropy(np.array([[1.2, -0.2]]))  # negative entry
    with pytest.raises(DistributionError):
        entropy(np.array([[np.nan, 0.5, 0.5]]))  # NaN fails every comparison
    with pytest.raises(DistributionError):
        uncertainty_stats(np.array([[np.nan, 0.5, 0.5]]))
    with pytest.raises(ShapeError):
        entropy(np.ones(3))  # one row, not a [batch, C] matrix


def test_entropy_and_weight_bounds_hold_over_random_rows():
    rng = np.random.default_rng(17)
    for c in (2, 10, 100):
        probs = sp_softmax(_rand_logits(rng, 10_000, c, -8, 8), axis=1)
        h = entropy(probs)
        w = confidence_weight(h, c)
        assert (h >= 0.0).all() and (h <= np.log(c) + 1e-12).all()
        assert (w >= 0.0).all() and (w <= 1.0).all()
        np.testing.assert_allclose(w, 1.0 - h / np.log(c), rtol=0, atol=1e-12)


# ---------------------------------------------------------------- confidence weight


def test_confidence_weight_endpoints_are_exact():
    for c in (2, 10, 100):
        np.testing.assert_array_equal(confidence_weight([0.0], c), [1.0])
        np.testing.assert_array_equal(confidence_weight([np.log(c)], c), [0.0])


def test_confidence_weight_oracle_value():
    # 1 - 0.8474/ln(100), evaluated at 40-digit precision.
    w = confidence_weight([0.8474], 100)
    np.testing.assert_allclose(w, [0.8159894280175922], rtol=0, atol=1e-15)
    assert abs(w[0] - 0.8160) < 1e-4


def test_confidence_weight_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        confidence_weight([0.5], 1)
    with pytest.raises(DistributionError):
        confidence_weight([-0.1], 10)
    with pytest.raises(DistributionError):
        confidence_weight([np.log(10) + 0.1], 10)
    with pytest.raises(DistributionError):
        confidence_weight([np.nan], 3)


def test_uncertainty_stats_aggregates_consistently():
    rng = np.random.default_rng(23)
    probs = sp_softmax(_rand_logits(rng, 64, 10), axis=1)
    stats = uncertainty_stats(probs)
    np.testing.assert_allclose(stats.weight, 1.0 - stats.entropy / np.log(10), rtol=0, atol=1e-12)


# ---------------------------------------------------------------- kl_div


def test_kl_of_identical_distributions_is_zero():
    rng = np.random.default_rng(29)
    lq = sp_log_softmax(_rand_logits(rng, 5, 7), axis=1)
    np.testing.assert_array_equal(kl_div(lq, lq), np.zeros(5))


def test_kl_oracle_value():
    # KL([0.5,0.5] || [0.9,0.1]) at 40-digit precision.
    lq = np.log(np.array([[0.5, 0.5]]))
    lp = np.log(np.array([[0.9, 0.1]]))
    np.testing.assert_allclose(kl_div(lq, lp), [0.5108256237659907], rtol=0, atol=1e-15)


def test_kl_nonnegative_over_random_pairs():
    rng = np.random.default_rng(31)
    lq = sp_log_softmax(_rand_logits(rng, 1000, 6, -6, 6), axis=1)
    lp = sp_log_softmax(_rand_logits(rng, 1000, 6, -6, 6), axis=1)
    assert (kl_div(lq, lp) >= -1e-12).all()


def test_kl_rejects_non_distributions():
    ok = np.log(np.full((1, 4), 0.25))
    with pytest.raises(DistributionError):
        kl_div(np.zeros((1, 4)), ok)  # exp rows sum to 4
    with pytest.raises(DistributionError):
        kl_div(ok, np.zeros((1, 4)))
    with pytest.raises(DistributionError):
        kl_div(np.array([[np.nan, *ok[0, 1:]]]), ok)
    with pytest.raises(ShapeError):
        kl_div(ok, np.log(np.full((1, 5), 0.2)))


# ---------------------------------------------------------------- hard loss


def test_hard_loss_uniform_logits_is_log_c():
    loss = hard_loss(Tensor(np.zeros((4, 10))), np.array([0, 3, 7, 9]))
    np.testing.assert_allclose(float(loss.data), np.log(10.0), rtol=0, atol=1e-12)


def test_hard_loss_confident_correct_limit():
    logits = np.zeros((1, 10))
    logits[0, 2] = 40.0
    loss = hard_loss(Tensor(logits), np.array([2]))
    assert float(loss.data) < 1e-6


def test_hard_loss_two_sample_hand_case():
    # Sample 1: logits [ln 2, 0], label 0 -> -ln(2/3). Sample 2: [0, 0], label 1
    # -> ln 2. Mean is ln(3)/2, evaluated at 40-digit precision.
    logits = np.array([[np.log(2.0), 0.0], [0.0, 0.0]])
    loss = hard_loss(Tensor(logits), np.array([0, 1]))
    np.testing.assert_allclose(float(loss.data), 0.5493061443340549, rtol=0, atol=1e-10)


def test_hard_loss_rejects_bad_labels():
    logits = Tensor(np.zeros((2, 3)))
    with pytest.raises(LabelError):
        hard_loss(logits, np.array([0, 3]))
    with pytest.raises(LabelError):
        hard_loss(logits, np.array([-1, 0]))
    with pytest.raises(LabelError):
        hard_loss(logits, np.array([0.5, 1.0]))
    with pytest.raises(ShapeError):
        hard_loss(logits, np.array([0, 1, 2]))
    with pytest.raises(ShapeError):  # 1-D logits
        hard_loss(Tensor(np.zeros(3)), np.array([0, 1, 2]))
    with pytest.raises(ShapeError):  # 3-D logits
        hard_loss(Tensor(np.zeros((2, 3, 4))), np.array([0, 1]))


def test_hard_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(37)
    z = Tensor(_rand_logits(rng, 6, 5), requires_grad=True)
    labels = rng.integers(0, 5, 6)
    zero_grad([z])
    backward(hard_loss(z, labels))
    fd = numeric_grad(lambda: float(hard_loss(z, labels).data), z.data)
    np.testing.assert_allclose(z.grad, fd, rtol=1e-4, atol=1e-9)


# ---------------------------------------------------------------- teacher loss


def test_teacher_loss_zero_weight_is_exactly_zero():
    rng = np.random.default_rng(41)
    s = Tensor(_rand_logits(rng, 8, 10), requires_grad=True)
    t = Tensor(_rand_logits(rng, 8, 10))
    loss = teacher_loss(s, t, np.zeros(8), 4.0)
    assert float(loss.data) == 0.0
    zero_grad([s])
    backward(loss)
    assert (s.grad == 0.0).all()


def test_teacher_loss_unit_weight_tau1_matches_independent_kd():
    # Oracle: scipy-based unweighted KD, mean_i sum_c q ln(q/p).
    rng = np.random.default_rng(43)
    s_logits = _rand_logits(rng, 16, 10)
    t_logits = _rand_logits(rng, 16, 10)
    loss = teacher_loss(Tensor(s_logits), Tensor(t_logits), np.ones(16), 1.0)
    q = sp_softmax(s_logits, axis=1)
    p = sp_softmax(t_logits, axis=1)
    oracle = rel_entr(q, p).sum(axis=1).mean()
    np.testing.assert_allclose(float(loss.data), oracle, rtol=0, atol=1e-12)


def test_teacher_loss_applies_weight_and_tau_squared():
    rng = np.random.default_rng(47)
    s_logits = _rand_logits(rng, 12, 6)
    t_logits = _rand_logits(rng, 12, 6)
    w = rng.uniform(0, 1, 12)
    for tau in (1.0, 2.0, 4.0):
        loss = teacher_loss(Tensor(s_logits), Tensor(t_logits), w, tau)
        rows = kl_div(sp_log_softmax(s_logits / tau, axis=1), sp_log_softmax(t_logits / tau, axis=1))
        np.testing.assert_allclose(float(loss.data), (w * rows).mean() * tau * tau, rtol=0, atol=1e-12)


def test_teacher_loss_half_weight_tau4_scales_by_eight():
    # w=0.5 and tau=4 multiply the plain softened KL mean by 0.5 * 16.
    rng = np.random.default_rng(53)
    s = Tensor(_rand_logits(rng, 8, 5))
    t = Tensor(_rand_logits(rng, 8, 5))
    base = teacher_loss(s, t, np.ones(8), 4.0)
    half = teacher_loss(s, t, np.full(8, 0.5), 4.0)
    np.testing.assert_allclose(float(half.data), 0.5 * float(base.data), rtol=0, atol=1e-12)
    plain = kl_div(sp_log_softmax(s.data / 4, axis=1), sp_log_softmax(t.data / 4, axis=1)).mean()
    np.testing.assert_allclose(float(half.data), 0.5 * 16.0 * plain, rtol=0, atol=1e-12)


def test_teacher_loss_monotone_in_weight():
    rng = np.random.default_rng(59)
    s = Tensor(_rand_logits(rng, 10, 8))
    t = Tensor(_rand_logits(rng, 10, 8))
    w = rng.uniform(0, 0.9, 10)
    before = float(teacher_loss(s, t, w, 4.0).data)
    for _ in range(20):
        bumped = np.clip(w + rng.uniform(0, 0.1, 10), 0, 1)
        after = float(teacher_loss(s, t, bumped, 4.0).data)
        assert after >= before - 1e-12
        w, before = bumped, after


def test_teacher_loss_gradient_reaches_student_only():
    rng = np.random.default_rng(61)
    s = Tensor(_rand_logits(rng, 5, 4), requires_grad=True)
    t = Tensor(_rand_logits(rng, 5, 4), requires_grad=True)
    w = rng.uniform(0, 1, 5)
    zero_grad([s, t])
    backward(teacher_loss(s, t, w, 4.0))
    assert (t.grad == 0.0).all()
    fd = numeric_grad(lambda: float(teacher_loss(s, t, w, 4.0).data), s.data)
    np.testing.assert_allclose(s.grad, fd, rtol=1e-4, atol=1e-9)


def test_teacher_loss_conventional_direction_flips_arguments():
    rng = np.random.default_rng(67)
    s_logits = _rand_logits(rng, 9, 7)
    t_logits = _rand_logits(rng, 9, 7)
    w = rng.uniform(0, 1, 9)
    loss = teacher_loss(Tensor(s_logits), Tensor(t_logits), w, 2.0, direction="conventional")
    rows = kl_div(sp_log_softmax(t_logits / 2, axis=1), sp_log_softmax(s_logits / 2, axis=1))
    np.testing.assert_allclose(float(loss.data), (w * rows).mean() * 4.0, rtol=0, atol=1e-12)


def test_teacher_loss_rejects_bad_parameters():
    s, t = Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3)))
    with pytest.raises(ParameterError):
        teacher_loss(s, t, np.ones(2), 0.0)
    with pytest.raises(ParameterError):
        teacher_loss(s, t, np.array([0.5, 1.5]), 1.0)
    with pytest.raises(ParameterError):
        teacher_loss(s, t, np.array([0.5, np.nan]), 1.0)
    with pytest.raises(ShapeError):
        teacher_loss(s, t, np.ones(3), 1.0)
    with pytest.raises(ShapeError, match="equal logit shapes"):
        teacher_loss(s, Tensor(np.zeros((2, 4))), np.ones(2), 1.0)
    with pytest.raises(ParameterError):
        teacher_loss(s, t, np.ones(2), 1.0, direction="backwards")


# ---------------------------------------------------------------- peer loss


def test_peer_loss_identical_logits_is_zero():
    z = np.random.default_rng(71).uniform(-3, 3, (6, 5))
    loss = peer_loss(Tensor(z.copy()), Tensor(z.copy()), 4.0)
    assert float(loss.data) == 0.0


def test_peer_loss_deposits_no_gradient_on_peer():
    rng = np.random.default_rng(73)
    a = Tensor(_rand_logits(rng, 7, 6), requires_grad=True)
    b = Tensor(_rand_logits(rng, 7, 6), requires_grad=True)
    zero_grad([a, b])
    backward(peer_loss(a, b, 4.0))
    assert (b.grad == 0.0).all()
    assert (a.grad != 0.0).any()


def test_peer_loss_tau_squared_scaling_identity():
    # tau=4 loss equals 16x the plain tau=1 KL of the tau=4-softened rows.
    rng = np.random.default_rng(79)
    a_logits = _rand_logits(rng, 10, 8)
    b_logits = _rand_logits(rng, 10, 8)
    loss = peer_loss(Tensor(a_logits), Tensor(b_logits), 4.0)
    softened = kl_div(sp_log_softmax(a_logits / 4, axis=1), sp_log_softmax(b_logits / 4, axis=1)).mean()
    np.testing.assert_allclose(float(loss.data), 16.0 * softened, rtol=0, atol=1e-12)


def test_peer_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(83)
    a = Tensor(_rand_logits(rng, 5, 4), requires_grad=True)
    b = Tensor(_rand_logits(rng, 5, 4))
    zero_grad([a])
    backward(peer_loss(a, b, 4.0))
    fd = numeric_grad(lambda: float(peer_loss(a, b, 4.0).data), a.data)
    np.testing.assert_allclose(a.grad, fd, rtol=1e-4, atol=1e-9)


def test_peer_loss_rejects_non_positive_tau():
    z = Tensor(np.zeros((2, 3)))
    with pytest.raises(ParameterError):
        peer_loss(z, z, -1.0)


# ---------------------------------------------------------------- total loss


def _scalar(v):
    return Tensor(np.asarray(v))


def test_total_loss_balanced_weights_on_unit_components():
    combined, breakdown = total_loss(_scalar(1.0), _scalar(1.0), _scalar(1.0), 0.4, 0.4, 0.2, tau=4.0)
    np.testing.assert_allclose(float(combined.data), 1.0, rtol=0, atol=1e-12)
    assert breakdown.tau == 4.0


def test_total_loss_zero_gamma_ignores_peer():
    h, t = _scalar(0.7), _scalar(0.3)
    a = total_loss(h, t, _scalar(123.0), 0.4, 0.4, 0.0)[0]
    b = total_loss(h, t, _scalar(-0.0), 0.4, 0.4, 0.0)[0]
    assert float(a.data) == float(b.data)


def test_total_loss_hard_only_reduces_to_hard():
    h = _scalar(0.8134)
    combined, breakdown = total_loss(h, None, None, 1.0, 0.0, 0.0)
    assert float(combined.data) == 0.8134
    assert breakdown.teacher == 0.0 and breakdown.peer == 0.0


def test_total_loss_recombination_identity():
    rng = np.random.default_rng(89)
    for _ in range(50):
        h, t, p = (float(v) for v in rng.uniform(0, 3, 3))
        a, b, g = (float(v) for v in rng.uniform(0, 1, 3))
        combined, bd = total_loss(_scalar(h), _scalar(t), _scalar(p), a, b, g)
        assert abs(bd.total - (a * bd.hard + b * bd.teacher + g * bd.peer)) <= 1e-12
        assert bd.total == float(combined.data)


def test_total_loss_rejects_bad_weights():
    with pytest.raises(ParameterError):
        total_loss(_scalar(1.0), _scalar(1.0), _scalar(1.0), -0.1, 0.5, 0.5)
    with pytest.raises(ParameterError):
        total_loss(_scalar(1.0), None, None, 0.5, 0.5, 0.0)  # missing term, nonzero weight
    with pytest.raises(ParameterError):
        total_loss(_scalar(1.0), _scalar(1.0), _scalar(1.0), np.nan, 0.5, 0.5)


# ---------------------------------------------------------------- bad arguments


def _two_rows():
    return Tensor(np.array([[1.0, 2.0, 3.0], [0.0, 5.0, 1.0]])), Tensor(np.eye(2, 3))


@pytest.mark.parametrize("term", ["hard", "teacher", "peer"])
def test_loss_terms_reject_an_empty_batch_before_any_arithmetic(term):
    z, ref = Tensor(np.zeros((0, 3)), requires_grad=True), Tensor(np.zeros((0, 3)))
    build = {"hard": lambda: hard_loss(z, np.zeros(0, dtype=np.int64)),
             "teacher": lambda: teacher_loss(z, ref, np.zeros(0), 4.0),
             "peer": lambda: peer_loss(z, ref, 4.0)}[term]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ShapeError):
            build()
        # the softmaxes themselves still take a 0-row batch
        assert log_softmax(ref, 4.0).shape == (0, 3)


@pytest.mark.parametrize("build", [
    lambda z, ref: teacher_loss(z, ref, np.ones(2), np.inf),
    lambda z, ref: peer_loss(z, ref, np.inf),
    lambda z, ref: peer_loss(z, ref, np.inf, direction="conventional"),
    lambda z, ref: total_loss(hard_loss(z, [0, 1]), None, None, np.inf, 0.0, 0.0),
    lambda z, ref: total_loss(None, peer_loss(z, ref, 4.0), None, 0.0, np.inf, 0.0),
    lambda z, ref: total_loss(None, None, peer_loss(z, ref, 4.0), 0.0, 0.0, np.inf),
], ids=["teacher-tau", "peer-tau", "peer-tau-conventional", "alpha", "beta", "gamma"])
def test_non_finite_parameters_are_parameter_errors(build):
    z, ref = _two_rows()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError):
            build(z, ref)


KL_TERMS = pytest.mark.parametrize("build", [
    lambda z, ref, tau: teacher_loss(z, ref, np.ones(2), tau),
    lambda z, ref, tau: peer_loss(z, ref, tau),
    lambda z, ref, tau: peer_loss(z, ref, tau, direction="conventional"),
], ids=["teacher", "peer", "peer-conventional"])


@KL_TERMS
def test_finite_tau_whose_square_overflows_is_a_parameter_error(build):
    z, ref = _two_rows()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic
        with pytest.raises(ParameterError, match="tau"):
            build(z, ref, 1e200)
    # an infinite temperature is a valid softmax: every row is uniform
    np.testing.assert_array_equal(log_softmax(z, np.inf).data, np.full((2, 3), -np.log(3.0)))


@KL_TERMS
def test_positive_tau_whose_square_underflows_is_a_parameter_error(build):
    z, ref = _two_rows()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="tau"):
            build(z, ref, 1e-200)  # tau^2 is 0.0: the term would read 0 whatever z is
        assert build(z, ref, 1.5e-154).data > 0.0  # tau^2 is the smallest normal float


def test_loss_breakdown_rejects_corrupt_components():
    with pytest.raises(ContractError):
        LossBreakdown(hard=-1.0, teacher=0.0, peer=0.0, total=0.0,
                      alpha=1.0, beta=0.0, gamma=0.0, tau=1.0)
    with pytest.raises(NumericError):
        LossBreakdown(hard=np.inf, teacher=0.0, peer=0.0, total=np.inf,
                      alpha=1.0, beta=0.0, gamma=0.0, tau=1.0)
