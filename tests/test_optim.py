"""Optimizer update rule and cosine schedule against hand arithmetic."""

import numpy as np
import pytest

from ukd.errors import ContractError, ParameterError
from ukd.gradcore import Tensor
from ukd.optim import SgdState, lr_at, sgd_step


def _param(values, grad):
    p = Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)
    p.grad = np.asarray(grad, dtype=np.float64)
    return p


def test_zero_grad_no_decay_leaves_params_unchanged():
    p = _param([1.0, -2.0], [0.0, 0.0])
    sgd_step(SgdState([p], lr=0.1, momentum=0.9, weight_decay=0.0))
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


def test_single_plain_step_hand_value():
    # theta=1, g=0.5, mu=0, lambda=0, eta=0.1 -> 0.95.
    p = _param([1.0], [0.5])
    sgd_step(SgdState([p], lr=0.1, momentum=0.0, weight_decay=0.0))
    np.testing.assert_allclose(p.data, [0.95], rtol=0, atol=1e-15)


def test_two_momentum_steps_hand_values():
    # mu=0.9, constant g=1, eta=0.1, from theta=0:
    # step 1: v=1, theta=-0.1; step 2: v=1.9, theta=-0.29.
    p = _param([0.0], [1.0])
    state = SgdState([p], lr=0.1, momentum=0.9, weight_decay=0.0)
    sgd_step(state)
    np.testing.assert_allclose(state.velocity[0], [1.0], rtol=0, atol=1e-15)
    np.testing.assert_allclose(p.data, [-0.1], rtol=0, atol=1e-15)
    p.grad = np.array([1.0])
    sgd_step(state)
    np.testing.assert_allclose(state.velocity[0], [1.9], rtol=0, atol=1e-12)
    np.testing.assert_allclose(p.data, [-0.29], rtol=0, atol=1e-12)


def test_coupled_weight_decay_enters_before_momentum():
    # g_eff = 1 + 0.1*2 = 1.2; v = 1.2; theta = 2 - 0.5*1.2 = 1.4.
    p = _param([2.0], [1.0])
    sgd_step(SgdState([p], lr=0.5, momentum=0.9, weight_decay=0.1))
    np.testing.assert_allclose(p.data, [1.4], rtol=0, atol=1e-15)


def test_no_momentum_no_decay_equals_vanilla_descent():
    rng = np.random.default_rng(7)
    values = rng.uniform(-2, 2, (4, 3))
    grads = rng.uniform(-1, 1, (4, 3))
    p = _param(values.copy(), grads.copy())
    sgd_step(SgdState([p], lr=0.05, momentum=0.0, weight_decay=0.0))
    np.testing.assert_array_equal(p.data, values - 0.05 * grads)


def test_optimizer_states_share_no_storage():
    p1 = _param([1.0, 1.0], [1.0, 1.0])
    p2 = _param([1.0, 1.0], [1.0, 1.0])
    s1 = SgdState([p1], lr=0.1, momentum=0.9, weight_decay=0.0)
    s2 = SgdState([p2], lr=0.1, momentum=0.9, weight_decay=0.0)
    assert s1.velocity[0] is not s2.velocity[0]
    sgd_step(s1)
    np.testing.assert_array_equal(s2.velocity[0], [0.0, 0.0])
    np.testing.assert_array_equal(p2.data, [1.0, 1.0])


def test_sgd_step_requires_populated_grads():
    p = Tensor(np.zeros(3), requires_grad=True)
    state = SgdState([p], lr=0.1, momentum=0.9, weight_decay=0.0)
    with pytest.raises(ContractError):
        sgd_step(state)


def test_negative_lr_rejected():
    with pytest.raises(ParameterError):
        SgdState([], lr=-0.1, momentum=0.9, weight_decay=0.0)
    with pytest.raises(ParameterError):
        SgdState([], lr=np.nan, momentum=0.9, weight_decay=0.0)


# ---------------------------------------------------------------- schedule


def test_cosine_schedule_published_endpoints():
    assert lr_at(0.1, 50, 0) == 0.1
    assert lr_at(0.1, 50, 50) == 0.0
    np.testing.assert_allclose(lr_at(0.1, 50, 25), 0.05, rtol=0, atol=1e-15)


def test_cosine_schedule_nonincreasing_and_bounded():
    values = [lr_at(0.1, 37, e) for e in range(38)]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 0.1 for v in values)


def test_cosine_schedule_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        lr_at(0.0, 10, 0)
    with pytest.raises(ParameterError):
        lr_at(0.1, 0, 0)
    with pytest.raises(ParameterError):
        lr_at(0.1, 10, -1)
    with pytest.raises(ParameterError):
        lr_at(0.1, 10, 11)
