"""Dense float64 tensors with reverse-mode automatic differentiation.

A small define-by-run engine: the output of every operation on linked
tensors is its own graph node. It records its op, its parent tensors, a rule
mapping its gradient to per-parent contributions and a global insertion
number (``Tensor``'s ``op``, ``parents``, ``grad_fn`` and ``seq``), so an op
output is one object. ``backward`` gathers the linked tensors reachable
from a scalar loss, keyed by that number, and replays each once in reverse
insertion order, which is a valid topological order because parents are
always recorded before children. Leaves are not walked; they only receive
gradient. Graphs are rebuilt on every forward pass and never reused.

Every operation checks its output for NaN/Inf and raises ``NumericError``
instead of propagating non-finite values; no op changes numpy's error state.
The entry points that report the error (``harness.train``, ``pretrain_teacher``
and ``evaluate``) ignore overflow and invalid values for their whole call, so
a run that diverges shows no RuntimeWarning. An op called directly on data
that overflows gives numpy's RuntimeWarning along with the ``NumericError``.

Training runs on fused nodes: ``dense`` here (one per network layer), and
the loss nodes that ``distill`` builds itself through ``_softmax_rows`` and
``_result`` (``nll_loss`` and ``kl_loss``, one per loss term, and
``weighted_sum``, the combined loss). Each replays, in value and in
gradient, the numpy operations of the primitive chain it stands for in that
chain's order, so its results are bit-identical to the chain's; it checks
only its output (``dense``: its pre-activation, which relu would clip) and
returns no gradient for a parent that takes none. Every op, fused or
primitive, makes its output through ``_result``, the one place where data is
checked finite and a node is linked. The primitives here remain the
reference chain those nodes are tested against.

These rules keep the hot paths short without changing a bit:

* relu is ``maximum(pre, 0) + 0``. For finite ``pre`` this equals
  ``where(pre > 0, pre, 0)`` bit for bit (the ``+ 0`` turns a -0.0 into
  +0.0), and its gradient mask is read back as ``out > 0``, so no mask is
  built in the forward pass.
* An op's output computes its row (log-softmax, softmax) pair once per
  temperature and keeps it in ``rows``; ``log_softmax`` and the loss nodes
  all read that pair through ``_softmax_rows``. This rests on one
  invariant: the data of an op's output is never written in place once the
  op has returned it (``dense`` applies relu in place before it returns). Leaves
  keep no pair, because their data may be (parameters are updated,
  gradient checks perturb).
  ``row_softmax`` hands the softmax of that pair to code outside the graph.
* Reductions call the ufunc itself: ``np.add.reduce``, ``np.maximum.reduce``
  and, with ``axis=None``, ``np.logical_and.reduce`` / ``logical_or.reduce``.
  ``.sum``, ``.max``, ``.all``, ``.any`` and ``np.all`` are Python wrappers
  around those same calls, and ``.mean()`` is the sum true-divided by the
  count, which ``np.add.reduce(x) / x.size`` repeats.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, NumericError, ParameterError, ShapeError

_SEQ = itertools.count()
_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable graph recording for the duration of the block."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A dense float64 array with an optional gradient slot and graph link.

    Leaves are created directly (``requires_grad=True`` for parameters).
    The output of an op is its own graph node when a parent takes a
    gradient: ``op`` names the op, ``parents`` holds its input tensors,
    ``grad_fn(g)`` maps the gradient w.r.t. this output to one contribution
    per parent (``None`` for a parent that takes none) and ``seq`` is its
    global insertion number, smaller in every parent than in its children.
    All four are ``None`` on a leaf and on an unlinked output. ``node`` is
    kept for code that walks graphs: the tensor itself when linked, else
    ``None``; it is computed, so no tensor refers to itself and a graph is
    freed by reference counting. An op's output also carries a ``rows``
    dict of row softmaxes by temperature (``None`` on a leaf).
    """

    __slots__ = ("data", "requires_grad", "grad", "rows", "op", "parents", "grad_fn", "seq")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self.rows = None
        self.op = self.parents = self.grad_fn = self.seq = None

    @property
    def node(self):
        return None if self.grad_fn is None else self

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        flags = []
        if self.requires_grad:
            flags.append("requires_grad")
        if self.grad_fn is not None:
            flags.append(f"op={self.op}")
        tail = ", ".join([f"shape={self.shape}"] + flags)
        return f"Tensor({tail})"


def _result(op: str, data: np.ndarray, parents: tuple, grad_fn) -> Tensor:
    """The output of every op: data checked finite, linked when a parent takes a gradient."""
    if not (math.isfinite(data) if data.ndim == 0
            else np.logical_and.reduce(np.isfinite(data), axis=None)):
        raise NumericError(f"{op} produced non-finite values")
    out = Tensor(data)
    out.rows = {}
    if _GRAD_ENABLED:
        for p in parents:
            if p.grad_fn is not None or p.requires_grad:
                out.op, out.parents, out.grad_fn, out.seq = op, parents, grad_fn, next(_SEQ)
                break
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a 2-d [m,k] by a 2-d [k,n] tensor."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul needs [m,k]@[k,n], got {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data

    def grad_fn(g):
        return g @ bd.T, ad.T @ g

    return _result("matmul", ad @ bd, (a, b), grad_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a 1-d bias added to every row of a."""
    if a.shape == b.shape:
        def grad_fn(g):
            return g, g
    elif a.data.ndim == 2 and b.data.ndim == 1 and b.shape[0] == a.shape[1]:
        def grad_fn(g):
            return g, g.sum(axis=0)
    else:
        raise ShapeError(f"add needs equal shapes or [m,n]+[n], got {a.shape} + {b.shape}")
    return _result("add", a.data + b.data, (a, b), grad_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub needs equal shapes, got {a.shape} - {b.shape}")

    def grad_fn(g):
        return g, -g

    return _result("sub", a.data - b.data, (a, b), grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product of equal-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"mul needs equal shapes, got {a.shape} * {b.shape}")
    ad, bd = a.data, b.data

    def grad_fn(g):
        return g * bd, g * ad

    return _result("mul", ad * bd, (a, b), grad_fn)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python float constant (no gradient for the constant)."""
    c = float(c)

    def grad_fn(g):
        return (g * c,)

    return _result("scale", x.data * c, (x,), grad_fn)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x). The gradient at exactly 0 is defined as 0."""
    mask = x.data > 0

    def grad_fn(g):
        return (g * mask,)

    return _result("relu", np.where(mask, x.data, 0.0), (x,), grad_fn)


def exp(x: Tensor) -> Tensor:
    out_data = np.exp(x.data)

    def grad_fn(g):
        return (g * out_data,)

    return _result("exp", out_data, (x,), grad_fn)


def log_softmax(z: Tensor, temperature: float) -> Tensor:
    """Row-wise log-softmax of z/temperature, stabilized by max subtraction.

    Rows of ``exp(log_softmax(z, t))`` sum to 1 to within 1e-12.
    """
    t = _check_logits(z, temperature)
    out_data, probs = _softmax_rows(z, t)

    def grad_fn(g):
        return (_log_softmax_adjoint(g, probs, t),)

    return _result("log_softmax", out_data, (z,), grad_fn)


def row_softmax(z: Tensor, temperature: float) -> np.ndarray:
    """Row softmax of z/temperature as plain data; records no node.

    It reads the pair a ``log_softmax`` of the same tensor and temperature
    keeps, so after that call it takes no exp.
    """
    return _softmax_rows(z, _check_logits(z, temperature))[1]


def _check_logits(z: Tensor, temperature: float) -> float:
    if not temperature > 0:
        raise ParameterError(f"temperature must be positive, got {temperature}")
    zd = z.data
    if zd.ndim != 2 or zd.shape[1] < 2:
        raise ShapeError(f"log_softmax needs [batch, C>=2] logits, got {zd.shape}")
    return float(temperature)


def _log_softmax_data(zd: np.ndarray, t: float) -> np.ndarray:
    s = zd / t
    shifted = s - np.maximum.reduce(s, axis=1, keepdims=True)
    log_z = np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))
    return shifted - log_z


def _softmax_rows(z: Tensor, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Row log-softmax of z/t and its exp; an op's output computes each t once."""
    pair = None if z.rows is None else z.rows.get(t)
    if pair is None:
        ls = _log_softmax_data(z.data, t)
        pair = ls, np.exp(ls)
        if z.rows is not None:
            z.rows[t] = pair
    return pair


def _log_softmax_adjoint(g: np.ndarray, probs: np.ndarray, t: float) -> np.ndarray:
    return (g - probs * np.add.reduce(g, axis=1, keepdims=True)) / t


def row_sum(x: Tensor) -> Tensor:
    """Sum each row of a 2-d tensor, producing a 1-d tensor."""
    if x.data.ndim != 2:
        raise ShapeError(f"row_sum needs a 2-d tensor, got {x.shape}")
    n = x.shape[1]

    def grad_fn(g):
        return (np.broadcast_to(g[:, None], (g.shape[0], n)),)

    return _result("row_sum", x.data.sum(axis=1), (x,), grad_fn)


def tensor_sum(x: Tensor) -> Tensor:
    """Sum of all elements, producing a scalar (0-d) tensor."""
    shape = x.shape

    def grad_fn(g):
        return (np.full(shape, float(g)),)

    return _result("sum", np.asarray(x.data.sum()), (x,), grad_fn)


def mean(x: Tensor) -> Tensor:
    """Mean of all elements, producing a scalar (0-d) tensor."""
    shape = x.shape
    n = x.data.size

    def grad_fn(g):
        return (np.full(shape, float(g) / n),)

    return _result("mean", np.asarray(x.data.mean()), (x,), grad_fn)


def dense(x: Tensor, w: Tensor, b: Tensor, relu: bool) -> Tensor:
    """x @ w + b, then relu if asked: matmul, add and relu as one node."""
    xd, wd, bd = x.data, w.data, b.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0]:
        raise ShapeError(f"dense needs [m,k]@[k,n], got {xd.shape} @ {wd.shape}")
    if bd.shape != (wd.shape[1],):
        raise ShapeError(f"dense needs a [{wd.shape[1]}] bias, got {bd.shape}")
    x_grad = x.grad_fn is not None or x.requires_grad
    w_grad = w.grad_fn is not None or w.requires_grad
    b_grad = b.grad_fn is not None or b.requires_grad
    out = xd @ wd
    out += bd

    def grad_fn(g):
        if relu:
            g = g * (out > 0)
        return (g @ wd.T if x_grad else None,
                xd.T @ g if w_grad else None,
                np.add.reduce(g, axis=0) if b_grad else None)

    # relu maps -inf and NaN to 0, so the pre-activation is what gets checked;
    # relu then runs in place on the node's data, before anything reads it
    result = _result("dense", out, (x, w, b), grad_fn)
    if relu:  # where(pre > 0, pre, 0.0) bit for bit: + 0.0 turns -0.0 into +0.0
        np.maximum(out, 0.0, out=out)
        out += 0.0
    return result


def detach(x: Tensor) -> Tensor:
    """Value-identical tensor with no graph linkage; gradients stop here."""
    return Tensor(x.data.copy())


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into ``grad`` of every requires_grad leaf.

    Repeated calls without ``zero_grad`` sum gradients. The loss must be a
    scalar (0-d) tensor.
    """
    if loss.data.shape != ():
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    seed = np.array(1.0)
    if loss.grad_fn is None:
        if loss.requires_grad:
            _accumulate(loss, seed)
        return

    # Gather every linked tensor reachable from the loss, keyed by its
    # insertion number, then replay their rules in reverse insertion order
    # (children first). Leaves are never walked: they only receive
    # contributions.
    nodes = {loss.seq: loss}
    stack = [loss]
    while stack:
        for p in stack.pop().parents:
            if p.grad_fn is not None and p.seq not in nodes:
                nodes[p.seq] = p
                stack.append(p)

    adjoint = {loss.seq: seed}
    for seq in sorted(nodes, reverse=True):
        g = adjoint.pop(seq, None)
        if g is None:
            continue
        t = nodes[seq]
        for p, c in zip(t.parents, t.grad_fn(g)):
            if c is None:
                continue
            if p.grad_fn is not None:
                pseq = p.seq
                adjoint[pseq] = adjoint[pseq] + c if pseq in adjoint else c
            elif p.requires_grad:
                _accumulate(p, c)


def _accumulate(leaf: Tensor, contribution) -> None:
    if leaf.grad is None:
        leaf.grad = np.zeros_like(leaf.data)
    leaf.grad += contribution


def zero_grad(params) -> None:
    """Zero the gradient array of every tensor in ``params`` (allocating if absent)."""
    for p in params:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)
        else:
            p.grad[...] = 0.0
