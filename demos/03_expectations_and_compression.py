"""
Conditional expectations and the compressed algebra
===================================================

Each accepted pair induces two conditional expectations (one composite per
order).  Against each we build the compressed product algebra: a Hilbert
module over the expectation's range, a projection implementing the
expectation, and a left regular action.  Elements are coordinate
vectors, and a map acts on them through its coordinate matrix.
"""

import numpy as np

from starint import basic_for_h, basic_for_v, flip_interaction

inter = flip_interaction()

ev, eh = inter.e_v, inter.e_h
a = np.array([3.0, 7.0])
print("E_V(a):", np.round((ev.target.matrix @ a).real, 10))
print("E_H(a):", np.round((eh.target.matrix @ a).real, 10))
print("E_V is completely positive, min Choi eig:", ev.cp_min_eig)

bc = basic_for_h(inter)
print("module dimension after quotient:", bc.m)
print("projection:", bc.e.real)
# only what the expectation sees survives compression: lam(a) is the
# contraction of a's coordinates with the stack of lam(a_i)
print("compressed a:", np.tensordot(a, bc.lam, axes=1).real)
print("compressed a (other side):", np.tensordot(a, basic_for_v(inter).lam, axes=1).real)
print("worst structural residual:", max(bc.invariants.values()))
