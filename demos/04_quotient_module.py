"""
The quotient bimodule and its two inner products
================================================

Tensors over the pair carry a right inner product valued in one compressed
algebra and a left one valued in the other.  Null vectors are quotiented
away; the surviving classes form a finite-dimensional bimodule whose norm
can be computed three independent ways.

A tensor is its coefficient vector over the pairs of basis elements: a⊗b
has the coefficients kron(coords(a), coords(b)).  Every module method takes
stacks of these and broadcasts over the leading axes.
"""

import numpy as np

from starint import build_bimodule, flip_interaction
from starint.algebra import block_adjoint

x = build_bimodule(flip_interaction())
alg = x.algebra
print("classes surviving the quotient:", x.r)

a = np.array([3.0, 5.0])
b = np.array([2.0, 7.0])
t = np.kron(a, b)
print("norm of a (x) b:", x.module_norm(t))      # = |a_1 b_2| for the flip

# a tensor whose class dies in the quotient
dead = np.kron([0.0, 9.0], b)
print("norm of a dead class:", x.module_norm(dead))
print("both at once:", x.module_norm(np.stack([t, dead])))

# the closed-form norms of sum a_i* (x) b_i agree with the quotient Gram norm
rng = np.random.default_rng(0)
pairs = alg.random_coords(rng, 6).reshape(3, 2, alg.dim)
a_s, b_s = pairs[:, 0], pairs[:, 1]
nr, nl = x.norm_two_ways(a_s, b_s)
tensor = sum(np.kron(block_adjoint(alg, ai), bi) for ai, bi in zip(a_s, b_s))
ng = x.module_norm(tensor)
print("right / left / gram:", round(nr, 12), round(nl, 12), round(ng, 12))
