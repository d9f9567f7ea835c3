"""
Representing the pair by a partial isometry
===========================================

The module and the second compression space stack into one Hilbert space
carrying a *-representation pi and a partial isometry S with
S pi(a) S* = pi(V(a)) S S*.  From the represented data we can run the
whole construction backwards and recover V and H.
"""

import numpy as np

from starint import (
    build_covrep,
    check_derive_roundtrip,
    check_nondegeneracy,
    faithful_extension,
    flip_interaction,
    with_zero_s,
)

rep = build_covrep(flip_interaction())
print("space splits as", rep.r, "+", rep.s)
print("S =\n", rep.smat.real)
a = np.array([3.0, 7.0])                  # coordinates of a
print("pi(a) =\n", np.tensordot(a, rep.pi, axes=1).real)
print("worst representation residual:", max(rep.residuals.values()))

# nondegeneracy gates: smallest singular value of x -> pi(x) S over each range
print("gates:", check_nondegeneracy(rep))
print("after zeroing S:", check_nondegeneracy(with_zero_s(rep))["nondegenerate"])

# pi need not be injective; appending the trace representation fixes that
ext = faithful_extension(rep)
print("injectivity margin after extension:", ext.injectivity)

# and the round trip returns the original maps exactly
print("round trip residuals:", check_derive_roundtrip(rep))
