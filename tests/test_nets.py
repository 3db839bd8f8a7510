"""Network construction, forward evaluation, and parameter accounting."""

import hashlib

import numpy as np
import pytest

from ukd.errors import ParameterError, ShapeError, SpecError
from ukd.gradcore import Tensor, backward, mean, tensor_sum
from ukd.harness import load_checkpoint, save_checkpoint
from ukd.nets import (
    DEFAULT_WIDTHS,
    LayerSpec,
    Network,
    build,
    compression_ratio,
    forward,
    mlp_spec,
    param_count,
)


def _default_spec(name):
    """A default network's spec over the default data: 16 features, 10 classes."""
    return mlp_spec(16, DEFAULT_WIDTHS[name], 10)


def _param_digest(net):
    h = hashlib.sha256()
    for p in net.parameters:
        h.update(p.data.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------- build


def test_build_is_deterministic_in_seed():
    spec = [LayerSpec(4, 8), LayerSpec(8, 3, "none")]
    assert _param_digest(build(spec, 123)) == _param_digest(build(spec, 123))
    assert _param_digest(build(spec, 123)) != _param_digest(build(spec, 124))


def test_build_biases_start_at_zero():
    net = build([LayerSpec(5, 7), LayerSpec(7, 2, "none")], 0)
    for bias in net.parameters[1::2]:
        assert (bias.data == 0.0).all()


def test_build_weight_std_tracks_he_scaling():
    # 10k draws: sample std within 10% of sqrt(2/in_dim).
    in_dim = 64
    net = build([LayerSpec(in_dim, 160), LayerSpec(160, 2, "none")], 2024)
    w = net.parameters[0].data
    assert w.size >= 10_000
    target = np.sqrt(2.0 / in_dim)
    assert abs(w.std() - target) < 0.1 * target


def test_build_rejects_broken_dim_chain():
    with pytest.raises(SpecError):
        build([LayerSpec(4, 8), LayerSpec(9, 3, "none")], 0)


def test_build_rejects_bad_layer_specs():
    with pytest.raises(SpecError):
        build([], 0)
    with pytest.raises(SpecError):
        build([LayerSpec(0, 3, "none")], 0)
    with pytest.raises(SpecError):
        build([LayerSpec(4, 3, "tanh")], 0)
    with pytest.raises(SpecError):
        build([LayerSpec(4, 3, "relu")], 0)  # logits layer must be activation-free


# ---------------------------------------------------------------- forward


def test_forward_zero_weight_net_emits_biases():
    net = build([LayerSpec(3, 4, "none")], 0)
    net.parameters[0].data[...] = 0.0
    net.parameters[1].data[...] = [1.0, 2.0, 3.0, 4.0]
    out = forward(net, Tensor(np.ones((5, 3))))
    np.testing.assert_array_equal(out.data, np.tile([1.0, 2.0, 3.0, 4.0], (5, 1)))


def test_forward_identity_net_returns_input():
    net = build([LayerSpec(4, 4, "none")], 0)
    net.parameters[0].data[...] = np.eye(4)
    x = np.random.default_rng(1).uniform(-2, 2, (6, 4))
    np.testing.assert_array_equal(forward(net, Tensor(x)).data, x)


def test_forward_hand_arithmetic():
    # x=[1,2]; W1=[[1,0],[1,1]] b1=[0,-3]; relu; W2=[[1,1],[2,2]] b2=[0.5,0]
    # h = relu([3, -1]) = [3, 0]; logits = [3.5, 3].
    net = build([LayerSpec(2, 2), LayerSpec(2, 2, "none")], 0)
    net.parameters[0].data[...] = [[1.0, 0.0], [1.0, 1.0]]
    net.parameters[1].data[...] = [0.0, -3.0]
    net.parameters[2].data[...] = [[1.0, 1.0], [2.0, 2.0]]
    net.parameters[3].data[...] = [0.5, 0.0]
    out = forward(net, Tensor([[1.0, 2.0]]))
    np.testing.assert_allclose(out.data, [[3.5, 3.0]], rtol=0, atol=1e-12)


def test_forward_rejects_dim_mismatch():
    net = build([LayerSpec(4, 2, "none")], 0)
    with pytest.raises(ShapeError):
        forward(net, Tensor(np.zeros((3, 5))))


def test_forward_is_deterministic():
    net = build(_default_spec("student2"), 5)
    x = Tensor(np.random.default_rng(2).uniform(-1, 1, (8, 16)))
    assert forward(net, x).data.tobytes() == forward(net, x).data.tobytes()


# ---------------------------------------------------------------- freezing


def test_frozen_forward_records_no_graph():
    net = build([LayerSpec(3, 2, "none")], 0)
    out_live = forward(net, Tensor(np.ones((2, 3))))
    assert out_live.node is not None
    net.freeze()
    out_frozen = forward(net, Tensor(np.ones((2, 3))))
    assert out_frozen.node is None
    np.testing.assert_array_equal(out_live.data, out_frozen.data)


def test_frozen_is_read_from_requires_grad(tmp_path):
    # a net is frozen exactly when no parameter takes a gradient
    net = Network([LayerSpec(3, 2, "none")], [Tensor(np.ones((3, 2))), Tensor(np.zeros(2))])
    assert net.frozen
    assert forward(net, Tensor(np.ones((2, 3)))).node is None
    net.parameters[1].requires_grad = True
    assert not net.frozen
    assert forward(net, Tensor(np.ones((2, 3)))).node is not None
    save_checkpoint(net.freeze(), tmp_path / "n.ukdc")
    assert net.frozen
    assert not load_checkpoint(tmp_path / "n.ukdc").frozen


def test_frozen_parameters_receive_no_gradient():
    net = build([LayerSpec(3, 2, "none")], 0).freeze()
    backward(mean(forward(net, Tensor(np.ones((2, 3))))))
    assert all(p.grad is None for p in net.parameters)


def test_frozen_parameter_bytes_survive_graph_use():
    net = build(_default_spec("teacher"), 7).freeze()
    before = _param_digest(net)
    for _ in range(3):
        out = forward(net, Tensor(np.random.default_rng(0).uniform(-1, 1, (4, 16))))
        tensor_sum(out)
    assert _param_digest(net) == before


# ---------------------------------------------------------------- accounting


def test_param_count_single_layer():
    assert param_count(build([LayerSpec(4, 3, "none")], 0)) == 15


def test_param_count_teacher_ladder():
    # 64->128->128->10: 8320 + 16512 + 1290.
    spec = [LayerSpec(64, 128), LayerSpec(128, 128), LayerSpec(128, 10, "none")]
    assert param_count(build(spec, 0)) == 26_122


def test_default_specs_are_heterogeneous_and_ordered():
    t = param_count(build(_default_spec("teacher"), 0))
    s1 = param_count(build(_default_spec("student1"), 1))
    s2 = param_count(build(_default_spec("student2"), 2))
    assert t > s1 > s2
    assert _default_spec("student1") != _default_spec("student2")
    assert (t, s1, s2) == (36_490, 5_898, 874)


def test_compression_ratio_published_values():
    assert compression_ratio(25_600_000, 11_700_000) == 2.19
    assert compression_ratio(25_600_000, 3_500_000) == 7.31


def test_compression_ratio_equal_counts_and_half_up():
    assert compression_ratio(100, 100) == 1.00
    assert compression_ratio(2125, 1000) == 2.13  # exact .5 tie rounds up


def test_compression_ratio_rejects_non_positive():
    with pytest.raises(ParameterError):
        compression_ratio(100, 0)
    with pytest.raises(ParameterError):
        compression_ratio(0, 100)
    # nor a count or a ratio that Decimal cannot round to cents
    for teacher, student in ((float("inf"), 1), (1, float("inf")), (float("nan"), 1), (1e30, 1)):
        with pytest.raises(ParameterError):
            compression_ratio(teacher, student)
