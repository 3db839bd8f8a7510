"""Teacher and student networks: plain ReLU MLPs over the autodiff engine.

The teacher is the widest and deepest stack; the two students are smaller
and deliberately different from each other in depth and width so that each
can pick up complementary structure. DEFAULT_WIDTHS holds the hidden widths
of all three. A network is frozen exactly when none of its parameters
requires a gradient. Freezing clears requires_grad, so a forward of plain
input through it records no graph, and the harness never updates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation

import numpy as np

from .errors import ParameterError, ShapeError, SpecError
from .gradcore import Tensor, dense

ACTIVATIONS = ("none", "relu")
# Hidden widths of the default networks, by name. The teacher is the widest
# and deepest; the students differ from it and from each other.
DEFAULT_WIDTHS = {"teacher": [128, 128, 128], "student1": [64, 64], "student2": [32]}


@dataclass(frozen=True)
class LayerSpec:
    """One affine layer: in_dim -> out_dim followed by the named activation."""

    in_dim: int
    out_dim: int
    activation: str = "relu"


def _validate_spec(spec: list[LayerSpec], name: str = "network spec") -> None:
    if not spec:
        raise SpecError(f"{name} needs at least one layer")
    for i, layer in enumerate(spec):
        if layer.in_dim < 1 or layer.out_dim < 1:
            raise SpecError(f"{name} layer {i} dims must be >= 1, got {layer.in_dim}->{layer.out_dim}")
        if layer.activation not in ACTIVATIONS:
            raise SpecError(f"{name} layer {i} activation {layer.activation!r} not in {ACTIVATIONS}")
        if i and spec[i - 1].out_dim != layer.in_dim:
            raise SpecError(f"{name} layer {i - 1} out_dim {spec[i - 1].out_dim} "
                            f"!= layer {i} in_dim {layer.in_dim}")
    if spec[-1].activation != "none":
        raise SpecError(f"{name} final layer must have activation 'none' (emits logits)")


class Network:
    """Affine+activation stack; parameters are [weight_0, bias_0, weight_1, ...] in order."""

    def __init__(self, layers: list[LayerSpec], parameters: list[Tensor]):
        self.layers = list(layers)
        self.parameters = parameters

    @property
    def frozen(self) -> bool:
        """True when no parameter requires a gradient."""
        # a list comprehension is one Python call; a generator is one per parameter
        return not any([p.requires_grad for p in self.parameters])

    def freeze(self) -> "Network":
        """Stop gradient tracking: clear every parameter's requires_grad and grad."""
        for p in self.parameters:
            p.requires_grad = False
            p.grad = None
        return self

    def __repr__(self):
        dims = [self.layers[0].in_dim] + [layer.out_dim for layer in self.layers]
        arrow = "->".join(str(d) for d in dims)
        state = "frozen" if self.frozen else "trainable"
        return f"Network({arrow}, {state}, {param_count(self)} params)"


def build(spec: list[LayerSpec], seed: int) -> Network:
    """He-initialized network: weights ~ N(0, 2/in_dim) drawn in layer order, biases zero."""
    _validate_spec(spec)
    rng = np.random.default_rng(seed)
    parameters: list[Tensor] = []
    for layer in spec:
        std = math.sqrt(2.0 / layer.in_dim)
        w = rng.normal(0.0, std, (layer.in_dim, layer.out_dim))
        parameters += [Tensor(w, requires_grad=True),
                       Tensor(np.zeros(layer.out_dim), requires_grad=True)]
    return Network(spec, parameters)


def forward(net: Network, x: Tensor) -> Tensor:
    """Logits for a [batch, in_dim] input; a frozen net's parameters take no gradient."""
    if not isinstance(x, Tensor):
        x = Tensor(x)
    if x.data.ndim != 2 or x.data.shape[1] != net.layers[0].in_dim:
        raise ShapeError(
            f"input shape {x.data.shape} does not match first layer in_dim {net.layers[0].in_dim}"
        )
    h = x
    for layer, w, b in zip(net.layers, net.parameters[::2], net.parameters[1::2],
                           strict=True):
        h = dense(h, w, b, layer.activation == "relu")
    return h


def param_count(net: Network) -> int:
    return sum(layer.in_dim * layer.out_dim + layer.out_dim for layer in net.layers)


def compression_ratio(teacher_params, student_params) -> float:
    """teacher/student parameter ratio, rounded half-up to 2 decimals."""
    if not 0 < teacher_params < math.inf or not 0 < student_params < math.inf:
        raise ParameterError(f"parameter counts must be positive and finite, "
                             f"got {teacher_params} and {student_params}")
    ratio = Decimal(str(teacher_params)) / Decimal(str(student_params))
    try:
        return float(ratio.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))
    except InvalidOperation:  # rounded to cents, the ratio needs more digits than Decimal keeps
        raise ParameterError(f"ratio {teacher_params}/{student_params} is too large") from None


def mlp_spec(in_dim: int, widths: list[int], out_dim: int) -> list[LayerSpec]:
    """One relu layer per hidden width, then a linear layer emitting logits."""
    dims = [in_dim, *widths]
    return ([LayerSpec(a, b) for a, b in zip(dims, dims[1:])]
            + [LayerSpec(dims[-1], out_dim, "none")])
