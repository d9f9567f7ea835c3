"""Helpers shared by the test modules."""

import tracemalloc


def traced_peak(fn):
    """Run ``fn()`` with tracemalloc on; return its value and the peak
    number of bytes traced while it ran."""
    tracemalloc.start()
    try:
        value = fn()
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def mixed_pair(name, tol=1e-9):
    """The pair read off a partial isometry between blocks of unequal sizes,
    from its problem file: M_2 ⊕ M_2 ⊕ C in M_5 with S = E_20 + E_31 + E_42
    (``mixed_221``), or M_3 ⊕ M_2 in M_5 with S = E_30 + E_41 (``mixed_32``)."""
    from starint import derive_from_partial_isometry
    from starint.specio import read_spec, spec_arrays

    spec = spec_arrays(read_spec(f"tests/data/{name}.json"))
    return derive_from_partial_isometry(spec.algebra, spec.ambient, spec.a_embed, spec.s,
                                        tol).interaction
