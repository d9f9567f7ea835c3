"""
Ternary spans and redundancy detection
======================================

A subspace Y of a matrix algebra closed under x y* z is a ternary span.
With a coefficient algebra acting on both sides it becomes a two-sided
correspondence; redundancies are coefficient elements whose action is
already implemented by a generalized compact operator.  Spans, embeddings
and redundancies are all given as coordinate rows.
"""

import numpy as np

from starint import (
    Algebra,
    CorrespondenceError,
    check_71,
    check_cube_identity,
    concrete_tro,
    correspondence_from_tro,
    find_redundancies,
)

m2 = Algebra((2,))
e11, e12, e21, e22 = np.eye(4)        # the matrix units, as coordinate rows

# the span of a single off-diagonal matrix unit is closed
tro = concrete_tro(m2, [e12])
coeff = Algebra((1, 1))
corr = correspondence_from_tro(tro, coeff, [e11, e22])     # C ⊕ C on the diagonal
print("bimodule laws:", max(check_71(corr).values()))
print("cube identity:", check_cube_identity(corr)["cube_identity"])

for red in find_redundancies(corr, side="right"):
    kind = "restricted" if red.restricted else "plain"
    print(f"{kind} redundancy at a = {np.round(red.a.real, 6)}")

# a span that leaks under triple products is refused
try:
    concrete_tro(m2, [e11, e12 + e21])
except CorrespondenceError as err:
    print("refused:", err)
