"""Problem-file codec: JSON in, canonical JSON out.

Complex scalars travel as two-element arrays [re, im]; matrices are row-major
nested lists; elements of a block algebra are lists of square matrices, one
per block.  Writing always normalizes (sorted keys, two-space indent, newline
at EOF) so equal inputs produce byte-equal artifacts.  The bytes are those of
``json.dumps(indent=2)``, whose encoder is pure Python, one call per float, so
a finite float array goes out in bulk: a ``%`` template per row of its reprs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring

import numpy as np

from .algebra import Algebra, Element


class SpecError(ValueError):
    """Malformed problem file: parse or schema failure."""


def _is_int(obj) -> bool:
    """A JSON integer; true and false are not numbers here."""
    return isinstance(obj, int) and not isinstance(obj, bool)


def _is_finite(obj) -> bool:
    """A finite JSON number.  Python's json reads NaN and Infinity, and an
    integer too large for a float has no finite value either."""
    if not (_is_int(obj) or isinstance(obj, float)):
        return False
    try:
        return math.isfinite(obj)
    except OverflowError:
        return False


def _complex_in(obj) -> complex:
    if _is_finite(obj):
        return complex(obj)
    if (isinstance(obj, (list, tuple)) and len(obj) == 2
            and all(_is_finite(p) for p in obj)):
        return complex(obj[0], obj[1])
    raise SpecError(f"expected a finite number or [re, im] pair, got {obj!r}")


def matrix_in(obj, shape: tuple[int, int] | None = None) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise SpecError("matrix must be a nonempty list of rows")
    width = len(obj[0])
    if any(len(r) != width for r in obj):
        raise SpecError("matrix rows have unequal lengths")
    out = np.array([[_complex_in(v) for v in row] for row in obj], dtype=complex)
    if shape is not None and out.shape != shape:
        raise SpecError(f"matrix has shape {out.shape}, expected {shape}")
    return out


def matrix_out(m: np.ndarray) -> np.ndarray | list:
    """[re, im] pairs of a matrix or stack: the finite (..., 2) float array,
    or nested lists if an entry is not finite, to be written as a string."""
    z = np.array(np.atleast_2d(m), dtype=complex, order="C")  # a copy, never a view
    parts = z.view(float).reshape(*z.shape, 2)
    return parts if np.isfinite(parts).all() else parts.tolist()


def element_in(algebra: Algebra, obj) -> Element:
    if not isinstance(obj, list) or len(obj) != len(algebra.blocks):
        raise SpecError(f"element must list {len(algebra.blocks)} block matrices")
    mats = [matrix_in(b, (d, d)) for b, d in zip(obj, algebra.blocks)]
    coords = np.concatenate([m.reshape(-1) for m in mats])
    return algebra.from_coords(coords)


def element_out(a: Element) -> list:
    return [matrix_out(b) for b in a.mats]


def _template(shape: tuple[int, ...], level: int) -> str:
    """``json.dumps(indent=2)`` layout of ``shape`` at ``level``, ``%s`` per entry."""
    if not shape:
        return "%s"
    if not shape[0]:
        return "[]"
    sep = ",\n" + "  " * (level + 1)
    return ("[" + sep[1:] + sep.join([_template(shape[1:], level + 1)] * shape[0])
            + "\n" + "  " * level + "]")


def _scalar(obj) -> str:
    if isinstance(obj, str):
        return encode_basestring(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)  # non-finite: the string "nan", "inf" or "-inf"
        return repr(v) if math.isfinite(v) else f'"{v!r}"'
    if isinstance(obj, (np.integer, int)):
        return repr(int(obj))
    if obj is None:
        return "null"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write(obj, level: int, out: list[str]) -> None:
    """Append the text of ``obj`` at nesting ``level`` to ``out``; a finite
    float array of more than two axes goes out a row at a time."""
    if isinstance(obj, np.ndarray):
        if not (obj.ndim and obj.dtype.kind == "f" and np.isfinite(obj).all()):
            obj = obj.tolist()
        elif obj.ndim <= 2:
            out.append(_template(obj.shape, level)
                       % tuple(map(float.__repr__, obj.ravel().tolist())))
            return
    if isinstance(obj, (np.complexfloating, complex)):
        obj = [float(obj.real), float(obj.imag)]
    if isinstance(obj, dict):
        keyed = {str(k): v for k, v in obj.items()}
        items, brackets = [(encode_basestring(k) + ": ", keyed[k]) for k in sorted(keyed)], "{}"
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items, brackets = [("", v) for v in obj], "[]"
    else:
        out.append(_scalar(obj))
        return
    sep = ",\n" + "  " * (level + 1)
    out.append(brackets[0])
    for i, (key, value) in enumerate(items):
        out.append((sep if i else sep[1:]) + key)
        _write(value, level + 1, out)
    out.append("\n" + "  " * level + brackets[1] if items else brackets[1])


def canonical_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)`` and a
    newline; numpy numbers as Python ones, complex as [re, im], NaN/inf as strings."""
    out: list[str] = []
    _write(obj, 0, out)
    out.append("\n")
    return "".join(out)


MODES = ("plain", "endo_transfer", "partial_isometry")


@dataclass
class ProblemSpec:
    blocks: tuple[int, ...]
    mode: str = "plain"
    v: np.ndarray | None = None
    h: np.ndarray | None = None
    alpha: np.ndarray | None = None
    transfer: np.ndarray | None = None
    ambient_blocks: tuple[int, ...] | None = None
    a_embed: list[Element] | None = None
    s: Element | None = None
    tolerance: float | None = None
    samples: int | None = None
    seed: int | None = None
    source: str = "<memory>"

    @property
    def algebra(self) -> Algebra:
        return Algebra(self.blocks)

    @property
    def ambient(self) -> Algebra | None:
        return Algebra(self.ambient_blocks) if self.ambient_blocks else None


def _blocks_in(obj, key: str) -> tuple[int, ...]:
    if (not isinstance(obj, list) or not obj
            or not all(_is_int(b) and b > 0 for b in obj)):
        raise SpecError(f"'{key}' must be a nonempty list of positive integers")
    return tuple(obj)


def load_spec(path: str) -> ProblemSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise SpecError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise SpecError(f"invalid JSON in {path}: {err}") from err
    if not isinstance(raw, dict):
        raise SpecError("top level must be an object")
    known = {"blocks", "mode", "V", "H", "alpha", "transfer",
             "ambient_blocks", "a_basis", "S", "tolerance", "samples", "seed"}
    unknown = set(raw) - known
    if unknown:
        raise SpecError(f"unknown keys: {sorted(unknown)}")
    if "blocks" not in raw:
        raise SpecError("missing 'blocks'")
    blocks = _blocks_in(raw["blocks"], "blocks")
    dim = sum(b * b for b in blocks)
    mode = raw.get("mode", "plain")
    if mode not in MODES:
        raise SpecError(f"mode must be one of {MODES}")
    spec = ProblemSpec(blocks=blocks, mode=mode, source=path)

    def maybe_matrix(key: str) -> np.ndarray | None:
        return matrix_in(raw[key], (dim, dim)) if key in raw else None

    spec.v, spec.h = maybe_matrix("V"), maybe_matrix("H")
    spec.alpha, spec.transfer = maybe_matrix("alpha"), maybe_matrix("transfer")

    if mode == "plain" and (spec.v is None or spec.h is None):
        raise SpecError("plain mode requires 'V' and 'H'")
    if mode == "endo_transfer":
        if spec.alpha is None or spec.transfer is None:
            raise SpecError("endo_transfer mode requires 'alpha' and 'transfer'")
        spec.v = spec.v if spec.v is not None else spec.alpha
        spec.h = spec.h if spec.h is not None else spec.transfer
    if mode == "partial_isometry":
        if "ambient_blocks" not in raw or "a_basis" not in raw or "S" not in raw:
            raise SpecError("partial_isometry mode requires 'ambient_blocks', "
                            "'a_basis', and 'S'")
        spec.ambient_blocks = _blocks_in(raw["ambient_blocks"], "ambient_blocks")
        ambient = Algebra(spec.ambient_blocks)
        basis = raw["a_basis"]
        if not isinstance(basis, list) or len(basis) != dim:
            raise SpecError(f"'a_basis' must list {dim} ambient elements")
        spec.a_embed = [element_in(ambient, e) for e in basis]
        spec.s = element_in(ambient, raw["S"])

    if "tolerance" in raw:
        tol = raw["tolerance"]
        if not _is_finite(tol) or not tol > 0:
            raise SpecError("'tolerance' must be a positive finite number")
        spec.tolerance = float(tol)
    for key in ("samples", "seed"):
        if key in raw:
            val = raw[key]
            if not _is_int(val) or val < 0:
                raise SpecError(f"'{key}' must be a nonnegative integer")
            setattr(spec, key, val)
    return spec


def dump_spec(spec: ProblemSpec) -> str:
    out: dict = {"blocks": list(spec.blocks), "mode": spec.mode}
    for key, mat in (("V", spec.v), ("H", spec.h), ("alpha", spec.alpha),
                     ("transfer", spec.transfer)):
        if mat is not None:
            out[key] = matrix_out(mat)
    if spec.ambient_blocks:
        out["ambient_blocks"] = list(spec.ambient_blocks)
    if spec.a_embed is not None:
        out["a_basis"] = [element_out(e) for e in spec.a_embed]
    if spec.s is not None:
        out["S"] = element_out(spec.s)
    for key in ("tolerance", "samples", "seed"):
        val = getattr(spec, key)
        if val is not None:
            out[key] = val
    return canonical_json(out)
