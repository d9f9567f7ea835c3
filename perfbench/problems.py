"""Seeded problem files for the benchmark.

Three families of pairs that are interaction pairs by construction:

* ``classical``: Exel's endomorphism/transfer pair on C^n.  A random map
  sigma of {0..n-1} onto a random subset Y of size n // 2 gives
  alpha(f) = f o sigma; the transfer L averages f over the fibre
  sigma^-1(y) for y in Y and is 0 off Y.  Written in ``endo_transfer`` mode
  so the 7.13 checks run.
* ``adu``: V = Ad u, H = Ad u* on M_k with a Haar-random complex unitary u.
* ``diag``: V = H = the diagonal conditional expectation on M_k.

Every file carries a ``seed`` field drawn from the workload seed, which
seeds the checklist's sampled checks.  Writing uses only json and numpy, so
the benchmark can generate inputs without importing the program.
"""

from __future__ import annotations

import json
import os

import numpy as np


def _matrix_out(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _write(path: str, payload: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def classical(n: int, rng: np.random.Generator) -> dict:
    # Fibre sizes are fixed by n (k = n // 2 fibres; the odd-numbered ones
    # take the points left over) so every seed gives an isomorphic problem
    # of equal cost; the seed picks the image and which points go where.
    k = max(1, n // 2)
    sizes = np.ones(k, dtype=int)
    odd = np.arange(1, k, 2) if k > 1 else np.arange(1)
    for i in range(n - k):
        sizes[odd[i % odd.size]] += 1
    image = rng.choice(n, size=k, replace=False)
    sigma = np.repeat(image, sizes)[rng.permutation(n)]
    alpha = np.zeros((n, n), dtype=complex)
    alpha[np.arange(n), sigma] = 1.0
    transfer = np.zeros((n, n), dtype=complex)
    for y in image:
        fibre = np.flatnonzero(sigma == y)
        transfer[y, fibre] = 1.0 / fibre.size
    return {"blocks": [1] * n, "mode": "endo_transfer",
            "alpha": _matrix_out(alpha), "transfer": _matrix_out(transfer)}


def _unitary(k: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def adu(k: int, rng: np.random.Generator) -> dict:
    u = _unitary(k, rng)
    # row-major coordinates: vec(u x u*) = (u kron conj(u)) vec(x)
    return {"blocks": [k], "mode": "plain",
            "V": _matrix_out(np.kron(u, u.conj())),
            "H": _matrix_out(np.kron(u.conj().T, u.T))}


def diag(k: int, rng: np.random.Generator) -> dict:
    e = np.zeros((k * k, k * k), dtype=complex)
    idx = np.arange(k) * (k + 1)
    e[idx, idx] = 1.0
    return {"blocks": [k], "mode": "plain",
            "V": _matrix_out(e), "H": _matrix_out(e)}


FAMILIES = {"classical": classical, "adu": adu, "diag": diag}


def generate(family: str, size: int, seed: int, index: int, out_dir: str) -> str:
    """Write one problem file and return its path.  The name carries the
    family and size; the same (family, size, seed, index) gives the same
    bytes."""
    rng = np.random.default_rng([seed, index, size])
    payload = FAMILIES[family](size, rng)
    payload["seed"] = int(rng.integers(0, 2**31))
    return _write(os.path.join(out_dir, f"{family}{size}_{index}.json"), payload)
