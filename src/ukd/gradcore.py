"""Dense float64 tensors with reverse-mode automatic differentiation.

A small define-by-run engine: every operation on linked tensors records a
``Node`` (parent tensors + a rule mapping the output gradient to per-parent
contributions) tagged with a global insertion number. ``backward`` gathers
the nodes reachable from a scalar loss, keyed by that number, and replays
each once in reverse insertion order, which is a valid topological order
because parents are always recorded before children. Leaves are not walked;
they only receive gradient. Graphs are rebuilt on every forward pass and
never reused.

Every operation checks its output for NaN/Inf and raises ``NumericError``
instead of propagating non-finite values.

Training runs on fused nodes: ``dense`` (one per network layer),
``nll_loss`` and ``kl_loss`` (one per loss term) and ``weighted_sum`` (the
combined loss). Each replays, in value and in gradient, the numpy
operations of the primitive chain it stands for in that chain's order, so
its results are bit-identical to the chain's; it checks only its output
(``dense``: its pre-activation, which relu would clip) and returns no
gradient for a parent that takes none. The primitives remain the reference
those nodes are tested against.

These rules keep the hot paths short without changing a bit:

* relu is ``maximum(pre, 0) + 0``. For finite ``pre`` this equals
  ``where(pre > 0, pre, 0)`` bit for bit (the ``+ 0`` turns a -0.0 into
  +0.0), and its gradient mask is read back as ``out > 0``, so no mask is
  built in the forward pass.
* An op's output computes its row (log-softmax, softmax) pair once per
  temperature and keeps it in ``rows``; ``log_softmax``, ``nll_loss`` and
  ``kl_loss`` all read that pair. This rests on one invariant: the data of
  an op's output is never written in place. Leaves keep no pair, because
  their data may be (parameters are updated, gradient checks perturb).
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


class Node:
    """One recorded operation in a computation graph.

    ``grad_fn(g)`` receives the gradient w.r.t. the op's output and returns
    one contribution per parent (``None`` for parents that need none).
    ``seq`` is the global insertion number; parents always carry smaller
    numbers than their children.
    """

    __slots__ = ("op", "parents", "grad_fn", "seq")

    def __init__(self, op: str, parents: tuple, grad_fn):
        self.op = op
        self.parents = parents
        self.grad_fn = grad_fn
        self.seq = next(_SEQ)


class Tensor:
    """A dense float64 array with an optional gradient slot and graph link.

    Leaves are created directly (``requires_grad=True`` for parameters);
    results of operations carry a ``node`` linking them into the graph when
    a parent takes a gradient, and a ``rows`` dict of row softmaxes by
    temperature (``None`` on a leaf).
    """

    __slots__ = ("data", "requires_grad", "grad", "node", "rows")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self.node = None
        self.rows = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        flags = []
        if self.requires_grad:
            flags.append("requires_grad")
        if self.node is not None:
            flags.append(f"op={self.node.op}")
        tail = ", ".join([f"shape={self.shape}"] + flags)
        return f"Tensor({tail})"


def _finite_or_raise(arr: np.ndarray, op: str) -> None:
    if not (math.isfinite(arr) if arr.ndim == 0
            else np.logical_and.reduce(np.isfinite(arr), axis=None)):
        raise NumericError(f"{op} produced non-finite values")


def _takes_grad(t: Tensor) -> bool:
    return t.node is not None or t.requires_grad


def _linked(op: str, data: np.ndarray, parents: tuple, grad_fn) -> Tensor:
    out = Tensor(data)
    out.rows = {}
    if _GRAD_ENABLED:
        for p in parents:
            if p.node is not None or p.requires_grad:
                out.node = Node(op, parents, grad_fn)
                break
    return out


def _result(op: str, data: np.ndarray, parents: tuple, grad_fn) -> Tensor:
    _finite_or_raise(data, op)
    return _linked(op, data, parents, grad_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a 2-d [m,k] by a 2-d [k,n] tensor."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul needs [m,k]@[k,n], got {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data

    def grad_fn(g):
        return g @ bd.T, ad.T @ g

    # overflow becomes a NumericError in _result; the warning would be noise
    with np.errstate(over="ignore", invalid="ignore"):
        value = ad @ bd
    return _result("matmul", value, (a, b), grad_fn)


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
    with np.errstate(over="ignore", invalid="ignore"):
        value = a.data + b.data
    return _result("add", value, (a, b), grad_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub needs equal shapes, got {a.shape} - {b.shape}")

    def grad_fn(g):
        return g, -g

    with np.errstate(over="ignore", invalid="ignore"):
        value = a.data - b.data
    return _result("sub", value, (a, b), grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product of equal-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"mul needs equal shapes, got {a.shape} * {b.shape}")
    ad, bd = a.data, b.data

    def grad_fn(g):
        return g * bd, g * ad

    with np.errstate(over="ignore", invalid="ignore"):
        value = ad * bd
    return _result("mul", value, (a, b), grad_fn)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python float constant (no gradient for the constant)."""
    c = float(c)

    def grad_fn(g):
        return (g * c,)

    with np.errstate(over="ignore", invalid="ignore"):
        value = x.data * c
    return _result("scale", value, (x,), grad_fn)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x). The gradient at exactly 0 is defined as 0."""
    mask = x.data > 0

    def grad_fn(g):
        return (g * mask,)

    return _result("relu", np.where(mask, x.data, 0.0), (x,), grad_fn)


def exp(x: Tensor) -> Tensor:
    # Overflow surfaces as NumericError via the finite check, not as a warning.
    with np.errstate(over="ignore"):
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
    with np.errstate(over="ignore", invalid="ignore"):
        pre = xd @ wd
        pre += bd
    # relu maps -inf and NaN to 0, so the pre-activation is what gets checked
    _finite_or_raise(pre, "dense")
    out = pre
    if relu:  # where(pre > 0, pre, 0.0) bit for bit: + 0.0 turns -0.0 into +0.0
        np.maximum(out, 0.0, out=out)
        out += 0.0

    def grad_fn(g):
        if relu:
            g = g * (out > 0)
        return (g @ wd.T if _takes_grad(x) else None,
                xd.T @ g if _takes_grad(w) else None,
                np.add.reduce(g, axis=0) if _takes_grad(b) else None)

    return _linked("dense", out, (x, w, b), grad_fn)


def nll_loss(z: Tensor, onehot: np.ndarray) -> Tensor:
    """-mean(row_sum(log_softmax(z, 1) * onehot)) as one node."""
    t = _check_logits(z, 1.0)
    # overflow becomes a NumericError below; the warnings would be noise
    with np.errstate(over="ignore", invalid="ignore"):
        ls, probs = _softmax_rows(z, t)
        picked = np.add.reduce(ls * onehot, axis=1)
    n = picked.size

    def grad_fn(g):
        return (_log_softmax_adjoint((float(g * -1.0) / n) * onehot, probs, t),)

    return _result("nll_loss", np.asarray(np.add.reduce(picked) / n) * -1.0, (z,), grad_fn)


def kl_loss(z: Tensor, ref_logits: Tensor, tau: float, w: np.ndarray | None,
            student_first: bool) -> Tensor:
    """tau² · mean_i(w_i · KL_i) between the row softmaxes of z/tau and ref_logits/tau.

    One node; w=None weights every row by 1. KL_i is KL(q_i || p_i) with q
    from z when student_first, else KL(p_i || q_i). Only z takes a gradient:
    ref_logits is read as a constant however it was produced.
    """
    t = _check_logits(z, tau)
    if ref_logits.data.shape != z.data.shape:
        raise ShapeError(f"kl_loss needs equal logit shapes, got {z.shape} and {ref_logits.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        lq, probs = _softmax_rows(z, t)
        lp, ref_probs = _softmax_rows(ref_logits, t)
        if student_first:
            e, d = probs, lq - lp
        else:
            e, d = ref_probs, lp - lq
        rows = np.add.reduce(e * d, axis=1)
        if w is not None:
            rows = rows * w
        n = rows.size
        value = np.asarray(np.add.reduce(rows) / n) * (t * t)

    def grad_fn(g):
        g_rows = float(g * (t * t)) / n
        if w is not None:
            g_rows = (g_rows * w)[:, None]
        if student_first:
            g_lq = (g_rows * e) + ((g_rows * d) * e)
        else:
            g_lq = -(g_rows * e)
        return (_log_softmax_adjoint(g_lq, probs, t),)

    return _result("kl_loss", value, (z,), grad_fn)


def weighted_sum(terms: list[Tensor], weights: list[float]) -> Tensor:
    """weights[0]·terms[0] + weights[1]·terms[1] + ... of scalars, added left to right."""
    weights = [float(c) for c in weights]
    with np.errstate(over="ignore", invalid="ignore"):
        value = terms[0].data * weights[0]
        for term, c in zip(terms[1:], weights[1:], strict=True):
            value = value + term.data * c

    def grad_fn(g):
        return tuple(g * c for c in weights)

    return _result("weighted_sum", np.asarray(value), tuple(terms), grad_fn)


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
    if loss.node is None:
        if loss.requires_grad:
            _accumulate(loss, seed)
        return

    # Gather every node reachable from the loss, keyed by its insertion
    # number, then replay their rules in reverse insertion order (children
    # first). Leaves are never walked: they only receive contributions.
    nodes = {loss.node.seq: loss.node}
    stack = [loss.node]
    while stack:
        for p in stack.pop().parents:
            node = p.node
            if node is not None and node.seq not in nodes:
                nodes[node.seq] = node
                stack.append(node)

    adjoint = {loss.node.seq: seed}
    for seq in sorted(nodes, reverse=True):
        g = adjoint.pop(seq, None)
        if g is None:
            continue
        node = nodes[seq]
        for p, c in zip(node.parents, node.grad_fn(g)):
            if c is None:
                continue
            if p.node is not None:
                pseq = p.node.seq
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
