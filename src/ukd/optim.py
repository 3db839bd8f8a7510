"""SGD with momentum and coupled weight decay, plus cosine learning-rate decay.

Per element: g <- grad + lambda*theta, v <- mu*v + g, theta <- theta - eta*v.
The decay term joins the gradient before momentum (the classical coupling).
An SgdState owns the parameter list it updates and one velocity per
parameter, paired once at construction. The schedule is stepped once per
epoch: eta0 * (1 + cos(pi*epoch/total)) / 2, reaching exactly zero at the
final epoch boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ParameterError
from .gradcore import Tensor


@dataclass
class SgdState:
    """Optimizer state over one parameter list: one velocity per parameter, in its order."""

    params: list[Tensor]
    lr: float
    momentum: float
    weight_decay: float
    velocity: list[np.ndarray] = field(init=False)

    def __post_init__(self):
        if not self.lr >= 0:
            raise ParameterError(f"lr must be nonnegative, got {self.lr}")
        self.velocity = [np.zeros_like(p.data) for p in self.params]


def sgd_step(state: SgdState) -> None:
    """One in-place update of every parameter of state from its accumulated gradient."""
    for p, v in zip(state.params, state.velocity):
        if p.grad is None:
            raise ContractError("sgd_step called before gradients were populated")
        g = p.grad + state.weight_decay * p.data
        v *= state.momentum
        v += g
        p.data -= state.lr * v


@dataclass(frozen=True)
class CosineSchedule:
    eta0: float
    total_epochs: int

    def __post_init__(self):
        if not self.eta0 > 0:
            raise ParameterError(f"eta0 must be positive, got {self.eta0}")
        if self.total_epochs < 1:
            raise ParameterError(f"total_epochs must be >= 1, got {self.total_epochs}")


def lr_at(schedule: CosineSchedule, epoch: int) -> float:
    """Learning rate at an epoch boundary; epoch counts from 0 to total_epochs."""
    if not 0 <= epoch <= schedule.total_epochs:
        raise ParameterError(
            f"epoch {epoch} outside [0, {schedule.total_epochs}]"
        )
    return schedule.eta0 * 0.5 * (1.0 + math.cos(math.pi * epoch / schedule.total_epochs))
