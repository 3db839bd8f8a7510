"""Autodiff engine tests: frozen oracle values plus finite-difference checks."""

import gc
import weakref

import numpy as np
import pytest

from ukd.errors import ContractError, NumericError, ParameterError, ShapeError
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
    no_grad,
    relu,
    row_sum,
    scale,
    sub,
    tensor_sum,
    zero_grad,
)

# Central differences with h=1e-5 keep truncation ~1e-10 and cancellation
# ~1e-11 for O(1) values, comfortably inside every tolerance used below.
FD_H = 1e-5


def numeric_grad(f, x, h=FD_H):
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


def check_grads(build, leaves, rtol, atol=1e-8):
    """backward() grads of build() vs finite differences for every leaf."""
    zero_grad(leaves)
    backward(build())
    for leaf in leaves:
        fd = numeric_grad(lambda: float(build().data), leaf.data)
        np.testing.assert_allclose(leaf.grad, fd, rtol=rtol, atol=atol)


# ---------------------------------------------------------------- matmul


def test_matmul_identity_leaves_operand_unchanged():
    x = np.arange(6, dtype=np.float64).reshape(2, 3)
    out = matmul(Tensor(np.eye(2)), Tensor(x))
    np.testing.assert_array_equal(out.data, x)


def test_matmul_hand_values():
    out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_matmul_shape_mismatch_reports_both_shapes():
    with pytest.raises(ShapeError) as err:
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    assert "(2, 3)" in str(err.value)


def test_dense_shape_mismatches_report_the_shapes():
    x, w = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4)))
    with pytest.raises(ShapeError, match=r"\[m,k\]@\[k,n\], got \(2, 3\) @ \(2, 4\)"):
        dense(x, Tensor(np.zeros((2, 4))), Tensor(np.zeros(4)), False)
    with pytest.raises(ShapeError, match=r"a \[4\] bias, got \(3,\)"):
        dense(x, w, Tensor(np.zeros(3)), True)
    with pytest.raises(ShapeError, match=r"a \[4\] bias, got \(1, 4\)"):
        dense(x, w, Tensor(np.zeros((1, 4))), False)


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    a = Tensor(rng.uniform(-3, 3, (4, 5)), requires_grad=True)
    b = Tensor(rng.uniform(-3, 3, (5, 3)), requires_grad=True)
    check_grads(lambda: tensor_sum(matmul(a, b)), [a, b], rtol=1e-6)


# ---------------------------------------------------------------- relu


def test_relu_values():
    out = relu(Tensor([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])


def test_relu_identity_on_positive_input():
    x = np.array([0.5, 1.0, 3.0])
    np.testing.assert_array_equal(relu(Tensor(x)).data, x)


def test_relu_gradient_at_zero_is_zero():
    x = Tensor([0.0], requires_grad=True)
    backward(tensor_sum(relu(x)))
    np.testing.assert_array_equal(x.grad, [0.0])


def test_relu_gradient_matches_finite_differences_away_from_kink():
    rng = np.random.default_rng(11)
    vals = rng.uniform(-3, 3, (3, 4))
    vals[np.abs(vals) < 0.1] = 0.5  # keep points clear of the kink at 0
    x = Tensor(vals, requires_grad=True)
    check_grads(lambda: tensor_sum(relu(x)), [x], rtol=1e-6)


# ---------------------------------------------------------------- log_softmax


def test_log_softmax_uniform_logits_give_uniform_probs():
    for tau in (0.5, 1.0, 4.0):
        out = log_softmax(Tensor([[0.0, 0.0, 0.0, 0.0]]), tau)
        np.testing.assert_allclose(np.exp(out.data), 0.25, rtol=0, atol=1e-15)


def test_log_softmax_two_logit_temperature_oracle():
    # exp(0.5)/(exp(0.5)+1) evaluated at 50-digit precision, then rounded.
    out = log_softmax(Tensor([[2.0, 0.0]]), 4.0)
    expected = [0.6224593312018546, 0.37754066879814546]
    np.testing.assert_allclose(np.exp(out.data[0]), expected, rtol=0, atol=1e-15)


def test_log_softmax_shift_invariance():
    rng = np.random.default_rng(3)
    z = rng.uniform(-5, 5, (4, 6))
    a = log_softmax(Tensor(z), 2.0).data
    b = log_softmax(Tensor(z + 123.456), 2.0).data
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_log_softmax_rows_sum_to_one_and_stay_in_unit_interval():
    rng = np.random.default_rng(5)
    for tau in (0.25, 1.0, 4.0, 16.0):
        probs = np.exp(log_softmax(Tensor(rng.uniform(-10, 10, (8, 10))), tau).data)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert ((probs > 0.0) & (probs < 1.0)).all()


def test_log_softmax_rejects_non_positive_temperature():
    z = Tensor([[1.0, 2.0]])
    for tau in (0.0, -1.0):
        with pytest.raises(ParameterError):
            log_softmax(z, tau)


def test_log_softmax_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    z = Tensor(rng.uniform(-4, 4, (3, 5)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (3, 5)))  # fixed mixing weights
    for tau in (1.0, 4.0):
        check_grads(lambda: tensor_sum(mul(log_softmax(z, tau), w)), [z], rtol=1e-5)


# ---------------------------------------------------------------- detach


def test_detach_preserves_values():
    x = Tensor([[1.0, -2.0], [0.5, 3.0]])
    d = detach(x)
    np.testing.assert_array_equal(d.data, x.data)
    assert d.node is None and not d.requires_grad


def test_detach_gradient_is_stopped_factor_value():
    # d/dx [x * stop(x)] is stop(x), not 2x: only the live factor contributes.
    x = Tensor([1.5, -2.0, 0.75], requires_grad=True)
    zero_grad([x])
    backward(tensor_sum(mul(x, detach(x))))
    np.testing.assert_allclose(x.grad, x.data, rtol=0, atol=0)

    const = x.data.copy()  # finite differences on the live path only
    fd = numeric_grad(lambda: float(tensor_sum(mul(x, Tensor(const))).data), x.data)
    np.testing.assert_allclose(x.grad, fd, rtol=1e-6, atol=1e-10)


def test_loss_of_only_detached_input_leaves_grad_exactly_zero():
    x = Tensor([1.0, 2.0], requires_grad=True)
    zero_grad([x])
    backward(tensor_sum(mul(detach(x), detach(x))))
    assert (x.grad == 0.0).all()


# ---------------------------------------------------------------- backward


def test_backward_of_sum_gives_ones():
    x = Tensor([3.0, -1.0, 2.0], requires_grad=True)
    backward(tensor_sum(x))
    np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_of_sum_of_squares_hand_values():
    x = Tensor([1.0, 2.0], requires_grad=True)
    backward(tensor_sum(mul(x, x)))
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_through_diamond_reuse():
    # sum((x+x) ⊙ x) = 2·sum(x²), so the gradient is 4x.
    x = Tensor([1.0, 2.0], requires_grad=True)
    backward(tensor_sum(mul(add(x, x), x)))
    np.testing.assert_array_equal(x.grad, [4.0, 8.0])


def test_backward_rejects_non_scalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError):
        backward(mul(x, x))


def test_backward_accumulates_until_zero_grad():
    x = Tensor([1.0, 2.0], requires_grad=True)
    backward(tensor_sum(mul(x, x)))
    backward(tensor_sum(mul(x, x)))
    np.testing.assert_array_equal(x.grad, [4.0, 8.0])
    zero_grad([x])
    backward(tensor_sum(mul(x, x)))
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_on_bare_scalar_leaf():
    x = Tensor(3.0, requires_grad=True)
    backward(x)
    np.testing.assert_array_equal(x.grad, 1.0)


def test_full_network_gradient_check():
    """Two affine+relu layers into log_softmax; every parameter vs central differences."""
    rng = np.random.default_rng(42)
    n, d, h, c = 8, 6, 5, 4
    x = Tensor(rng.uniform(-2, 2, (n, d)), requires_grad=True)
    w1 = Tensor(rng.normal(0, 0.6, (d, h)), requires_grad=True)
    b1 = Tensor(rng.normal(0, 0.1, h), requires_grad=True)
    w2 = Tensor(rng.normal(0, 0.6, (h, c)), requires_grad=True)
    b2 = Tensor(rng.normal(0, 0.1, c), requires_grad=True)
    onehot = np.zeros((n, c))
    onehot[np.arange(n), rng.integers(0, c, n)] = 1.0
    pick = Tensor(onehot)

    def loss():
        hidden = relu(add(matmul(x, w1), b1))
        logits = add(matmul(hidden, w2), b2)
        return scale(tensor_sum(mul(log_softmax(logits, 1.0), pick)), -1.0 / n)

    check_grads(loss, [x, w1, b1, w2, b2], rtol=1e-4)


# ---------------------------------------------------------------- zero_grad


def test_zero_grad_zeroes_and_allocates():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = Tensor([3.0], requires_grad=True)
    backward(tensor_sum(mul(x, x)))
    zero_grad([x, y])
    assert (x.grad == 0.0).all() and (y.grad == 0.0).all()


def test_zero_grad_is_idempotent():
    x = Tensor([1.0, 2.0], requires_grad=True)
    zero_grad([x])
    zero_grad([x])
    assert (x.grad == 0.0).all()


# ---------------------------------------------------------------- composed ops


def _composition_cases(seed):
    """Recipes covering every differentiable op, inputs bounded by 10, dims <= 16."""
    rng = np.random.default_rng(seed)
    m, k, n = (int(v) for v in rng.integers(2, 9, 3))
    p = int(rng.integers(2, 9))
    x = Tensor(rng.uniform(-3, 3, (m, k)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (k, n)), requires_grad=True)
    b = Tensor(rng.uniform(-0.5, 0.5, n), requires_grad=True)
    w2 = Tensor(rng.uniform(-1, 1, (n, p)), requires_grad=True)
    b2 = Tensor(rng.uniform(-0.5, 0.5, p), requires_grad=True)
    a2 = Tensor(rng.uniform(-3, 3, (m, n)), requires_grad=True)
    mix = Tensor(rng.uniform(-1, 1, (m, n)))
    tau = float(rng.uniform(0.5, 5.0))

    # Finite differences straddle the relu kink, so shift the bias until every
    # preactivation sits at least 1e-3 away from 0.
    while np.abs(x.data @ w.data + b.data).min() < 1e-3:
        b.data += 2e-3

    def affine():
        return add(matmul(x, w), b)

    return [
        (lambda: mean(relu(affine())), [x, w, b]),
        (lambda: tensor_sum(mul(sub(affine(), a2), a2)), [x, w, b, a2]),
        (lambda: mean(exp(scale(a2, 0.1))), [a2]),
        (lambda: tensor_sum(row_sum(mul(log_softmax(affine(), tau), mix))), [x, w, b]),
        (lambda: mean(add(matmul(relu(affine()), w2), b2)), [x, w, b, w2, b2]),
    ]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_composed_op_gradients_match_finite_differences(seed):
    for build, leaves in _composition_cases(seed):
        assert build().data.shape == ()
        check_grads(build, leaves, rtol=1e-4)


# ---------------------------------------------------------------- engine behavior


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # an op called directly warns too
def test_forward_non_finite_raises():
    with pytest.raises(NumericError):
        exp(Tensor([1000.0]))
    with pytest.raises(NumericError):
        matmul(Tensor([[np.inf]]), Tensor([[1.0]]))


def test_elementwise_shape_errors():
    a, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        add(a, b)
    with pytest.raises(ShapeError):
        mul(a, b)
    with pytest.raises(ShapeError):
        sub(a, b)
    with pytest.raises(ShapeError):
        row_sum(Tensor(np.zeros(3)))


def test_no_grad_suppresses_graph_recording():
    x = Tensor([1.0, 2.0], requires_grad=True)
    assert mul(x, x).node is not None
    with no_grad():
        out = mul(x, x)
    assert mul(x, x).node is not None  # recording resumes on exit
    assert out.node is None
    backward(mean(out))  # graph-free: nothing flows back to x
    assert x.grad is None


def test_a_linked_op_output_is_its_own_node():
    x = Tensor([[1.0, -2.0], [0.5, 3.0]], requires_grad=True)
    out = mul(x, x)
    assert out.node is out
    assert out.node.op == "mul" and out.node.parents == (x, x)
    assert repr(x) == "Tensor(shape=(2, 2), requires_grad)"
    assert repr(out) == "Tensor(shape=(2, 2), op=mul)"
    assert out.node.seq == out.seq
    assert add(out, x).node.seq > out.node.seq  # parents are numbered before children
    np.testing.assert_array_equal(out.node.grad_fn(np.ones((2, 2)))[0], x.data)
    with no_grad():
        silent = mul(x, x)
    unlinked = mul(Tensor([1.0]), Tensor([2.0]))  # no parent takes a gradient
    for t in (x, Tensor([1.0]), detach(out), silent, unlinked):
        assert t.node is None
    assert repr(silent) == "Tensor(shape=(2, 2))"


def test_a_graph_is_freed_by_reference_counting_alone():
    # an op output that referred to itself would be a reference cycle, and its
    # graph would live on until the cyclic collector ran
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(6, 4)))
    w1, b1 = Tensor(rng.normal(size=(4, 5)), True), Tensor(np.zeros(5), True)
    w2, b2 = Tensor(rng.normal(size=(5, 3)), True), Tensor(np.zeros(3), True)
    enabled = gc.isenabled()
    gc.disable()
    try:
        hidden = dense(x, w1, b1, True)
        loss = mean(log_softmax(dense(hidden, w2, b2, False), 2.0))
        backward(loss)
        freed = weakref.ref(hidden.data)
        del hidden
        assert freed() is not None  # the loss still holds its graph
        del loss
        assert freed() is None
    finally:
        if enabled:
            gc.enable()


def test_identical_inputs_produce_bit_identical_outputs():
    rng = np.random.default_rng(99)
    z = rng.uniform(-5, 5, (6, 8))

    def run():
        t = Tensor(z.copy(), requires_grad=True)
        out = log_softmax(matmul(relu(t), Tensor(np.eye(8))), 4.0)
        zero_grad([t])
        backward(mean(out))
        return out.data.tobytes(), t.grad.tobytes()

    assert run() == run()
