"""
Working with block matrix algebras
==================================

An element is its coordinate vector over the matrix units, blocks in order
and row major inside each block, and a (..., dim) array is a stack of
elements.  Products, adjoints and norms act block by block on whole stacks;
the norm is the largest block norm and positivity means every block is
positive semidefinite.
"""

import numpy as np

from starint import Algebra
from starint.algebra import block_adjoint, block_norms, block_product, positivity_defects

# two blocks: a scalar and a 2x2 matrix
alg = Algebra((1, 2))
print("dimension:", alg.dim)

a = np.array([2.0, 0.0, 1.0, 1.0, 0.0])
print("blocks:", [a[off:off + d * d].reshape(d, d).tolist()
                  for off, d in zip(alg.offsets, alg.blocks)])
print("norm:", block_norms(alg, a))

# products and adjoints act blockwise
b = block_product(alg, a, block_adjoint(alg, a))
print("a a* is hermitian:", np.allclose(b, block_adjoint(alg, b)))
print("a a* is positive:", positivity_defects(alg, b) <= 1e-9)

# the canonical basis is the list of matrix units: the rows of the identity
units = np.eye(alg.dim)
sums = block_product(alg, units, block_adjoint(alg, units)).sum(axis=0)
print("sum u u* has coords:", np.round(sums.real, 10))

# every function takes a stack: the norms of all five units at once
print("unit norms:", block_norms(alg, units))
