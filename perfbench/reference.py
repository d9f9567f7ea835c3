"""Fixed reference task that measures how fast the host runs right now.

The benchmark runs it as a fresh process between jobs, about once a second,
and scales the jobs' times by ``REFERENCE_S / median(its wall time)``, so
a shared host that slows down for minutes does not read as a slower
program.  It is shaped like a small job: an interpreter start, ``import
numpy`` and a Python loop over small complex matrices.  Measured in the
benchmark's own long-lived process instead, the same loop varied three
times as much as the jobs and did not follow them.  It uses nothing from
the program, so no change to ``starint`` moves it.

    python3 perfbench/reference.py
"""

import numpy as np

if __name__ == "__main__":
    # module level, not a function, so the loop's names are globals as
    # they were when REFERENCE_S was measured
    rng = np.random.default_rng(0)
    mats = [rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            for _ in range(16)]
    acc = np.eye(8, dtype=complex)
    for _ in range(20):
        for m in mats:
            acc = acc + m @ acc @ m.conj().T
            acc /= np.linalg.norm(acc)
