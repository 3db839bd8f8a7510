"""A tour of the autodiff core: graph nodes, backward, detach, no_grad.

Everything below is float64 numpy under the hood. A Tensor records the op
that produced it; backward() walks that record in reverse and accumulates
gradients into the leaves that asked for them.
"""

import numpy as np

from ukd import Tensor, backward, detach, log_softmax, no_grad, relu, zero_grad
from ukd.gradcore import add, matmul, mean

rng = np.random.default_rng(0)

# A tiny two-layer network, written out by hand.
x = Tensor(rng.normal(size=(4, 3)))
w1 = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
b1 = Tensor(np.zeros(5), requires_grad=True)
w2 = Tensor(rng.normal(size=(5, 2)), requires_grad=True)

hidden = relu(add(matmul(x, w1), b1))
loss = mean(matmul(hidden, w2))
print("loss:", float(loss.data))

backward(loss)
print("dloss/dw1 has shape", w1.grad.shape, "and norm", float(np.linalg.norm(w1.grad)))

# Check one entry of the gradient against a central finite difference.
i, j = 1, 2
h = 1e-5
w1.data[i, j] += h
hi = float(mean(matmul(relu(add(matmul(x, w1), b1)), w2)).data)
w1.data[i, j] -= 2 * h
lo = float(mean(matmul(relu(add(matmul(x, w1), b1)), w2)).data)
w1.data[i, j] += h
numeric = (hi - lo) / (2 * h)
print(f"analytic {w1.grad[i, j]:+.10f} vs numeric {numeric:+.10f}")

# detach() cuts the graph: the detached branch contributes value, not gradient.
zero_grad([w1, b1, w2])
frozen_half = detach(matmul(x, w1))
loss2 = mean(add(matmul(x, w1), frozen_half))
backward(loss2)
print("with one branch detached, dloss/dw1 norm:", float(np.linalg.norm(w1.grad)))

# Inside no_grad() nothing is recorded at all; good for evaluation loops.
with no_grad():
    silent = matmul(x, w1)
print("no_grad result is a graph node:", silent.node is not None)

# Temperature-scaled log-softmax is a first-class op (the distillation
# losses are built from it); rows of its exp always sum to one.
z = Tensor(rng.normal(size=(2, 6)))
print("softened row sums:", np.exp(log_softmax(z, 4.0).data).sum(axis=1))
