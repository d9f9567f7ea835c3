"""Problem-file codec: JSON in, canonical JSON out.

Complex scalars travel as two-element arrays [re, im]; matrices are row-major
nested lists; elements of a block algebra are lists of square matrices, one
per block.  Writing always normalizes (sorted keys, two-space indent, newline
at EOF) so equal inputs produce byte-equal artifacts.  The bytes are those of
``json.dumps(indent=2)``, whose encoder is pure Python, one call per float, so
a finite float array goes out by leaf groups, the rows of its last axis: one
``%`` template for each group that holds a nonzero, and one shared string for
every all-zero group (in block form, most of an emitted kernel basis or π).
A file is checked whole in pure Python before any array is made, so that a
file that cannot be used is refused without loading numpy.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from .algebra import Algebra


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


def matrix_in(obj, shape: tuple[int, int] | None = None) -> list[list[complex]]:
    """The validated rows of a matrix."""
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise SpecError("matrix must be a nonempty list of rows")
    width = len(obj[0])
    if any(len(r) != width for r in obj):
        raise SpecError("matrix rows have unequal lengths")
    rows = [[_complex_in(v) for v in row] for row in obj]
    if shape is not None and (len(rows), width) != shape:
        raise SpecError(f"matrix has shape {(len(rows), width)}, expected {shape}")
    return rows


def matrix_out(m: np.ndarray) -> np.ndarray | list:
    """[re, im] pairs of a matrix or stack: the finite (..., 2) float array,
    or nested lists if an entry is not finite, to be written as a string."""
    import numpy as np

    z = np.array(np.atleast_2d(m), dtype=complex, order="C")  # a copy, never a view
    parts = z.view(float).reshape(*z.shape, 2)
    return parts if np.isfinite(parts).all() else parts.tolist()


def element_in(blocks: tuple[int, ...], obj) -> list[complex]:
    """The validated coordinates of an element written block by block."""
    if not isinstance(obj, list) or len(obj) != len(blocks):
        raise SpecError(f"element must list {len(blocks)} block matrices")
    return [v for b, d in zip(obj, blocks) for row in matrix_in(b, (d, d)) for v in row]


def element_out(algebra: Algebra, coords: np.ndarray) -> list:
    """An element's (dim,) coordinates, written block by block."""
    return [matrix_out(coords[off:off + d * d].reshape(d, d))
            for off, d in zip(algebra.offsets, algebra.blocks)]


def _bracket(items: list[str], level: int) -> list[str]:
    """The pieces of the ``json.dumps(indent=2)`` layout at ``level`` of a
    nonempty list of item texts, to be joined once."""
    sep = ",\n" + "  " * (level + 1)
    pieces = [sep] * (2 * len(items) + 1)
    pieces[0], pieces[1::2], pieces[-1] = "[" + sep[1:], items, "\n" + "  " * level + "]"
    return pieces


def _float_array(a: np.ndarray, level: int, out: list[str]) -> None:
    """Append the text at ``level`` of a finite float array without an empty
    axis to ``out``, one leaf group (a row of its last axis, such as an
    [re, im] pair) at a time: a ``%`` template for each group that holds a
    nonzero or a -0.0, one shared string for every all-zero group."""
    import numpy as np

    *lead, width = a.shape
    depth = level + len(lead)
    leaf = "".join(_bracket(["%s"] * width, depth))
    groups = a.reshape(-1, width)
    texts = [leaf % (("0.0",) * width)] * len(groups)
    flagged = np.flatnonzero((groups != 0) | np.signbit(groups)) // width
    live = list(dict.fromkeys(flagged.tolist()))   # np.unique would import numpy.ma
    for i, values in zip(live, groups[live].tolist()):
        texts[i] = leaf % tuple(values)
    for n in reversed(lead[1:]):
        depth -= 1
        texts = ["".join(_bracket(texts[j:j + n], depth)) for j in range(0, len(texts), n)]
    out.extend(_bracket(texts, level) if lead else texts)


def _scalar(obj) -> str:
    import numpy as np

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
    float array with no empty axis goes out by leaf groups."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        if obj.ndim and obj.size and obj.dtype.kind == "f" and np.isfinite(obj).all():
            _float_array(obj, level, out)
            return
        obj = obj.tolist()
    if isinstance(obj, (np.complexfloating, complex)):
        obj = [float(obj.real), float(obj.imag)]
    if isinstance(obj, dict):
        keyed = {str(k): v for k, v in obj.items()}
        items, brackets = [(encode_basestring(k) + ": ", keyed[k]) for k in sorted(keyed)], "{}"
    elif isinstance(obj, (list, tuple)):
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


class ProblemSpec:
    """A problem file's fields; each matrix (v, h, alpha, transfer), the
    (dim, ambient.dim) coordinate rows a_embed and the (ambient.dim,)
    coordinates s are validated rows from ``read_spec`` or complex arrays
    from ``spec_arrays``, and None where the file has none."""

    def __init__(self, blocks: tuple[int, ...], mode: str = "plain",
                 v: np.ndarray | None = None, h: np.ndarray | None = None,
                 alpha: np.ndarray | None = None, transfer: np.ndarray | None = None,
                 ambient_blocks: tuple[int, ...] | None = None,
                 a_embed: np.ndarray | None = None, s: np.ndarray | None = None,
                 tolerance: float | None = None, samples: int | None = None,
                 seed: int | None = None, source: str = "<memory>"):
        self.blocks, self.mode, self.source = blocks, mode, source
        self.v, self.h, self.alpha, self.transfer = v, h, alpha, transfer
        self.ambient_blocks, self.a_embed, self.s = ambient_blocks, a_embed, s
        self.tolerance, self.samples, self.seed = tolerance, samples, seed

    @property
    def algebra(self) -> Algebra:
        from .algebra import Algebra
        return Algebra(self.blocks)

    @property
    def ambient(self) -> Algebra | None:
        from .algebra import Algebra
        return Algebra(self.ambient_blocks) if self.ambient_blocks else None


def _blocks_in(obj, key: str) -> tuple[int, ...]:
    if (not isinstance(obj, list) or not obj
            or not all(_is_int(b) and b > 0 for b in obj)):
        raise SpecError(f"'{key}' must be a nonempty list of positive integers")
    return tuple(obj)


def read_spec(path: str) -> ProblemSpec:
    """The problem file, every check made in pure Python: its matrices are
    validated rows of complex numbers until ``spec_arrays`` makes them arrays."""
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

    def maybe_matrix(key: str) -> list | None:
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
        basis = raw["a_basis"]
        if not isinstance(basis, list) or len(basis) != dim:
            raise SpecError(f"'a_basis' must list {dim} ambient elements")
        spec.a_embed = [element_in(spec.ambient_blocks, e) for e in basis]
        spec.s = element_in(spec.ambient_blocks, raw["S"])

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


def spec_arrays(spec: ProblemSpec) -> ProblemSpec:
    """``spec`` with its matrices and coordinates as complex arrays."""
    import numpy as np

    arrays = {key: np.array(rows, dtype=complex)
              for key in ("v", "h", "alpha", "transfer", "a_embed", "s")
              if (rows := getattr(spec, key)) is not None}
    return ProblemSpec(**{**vars(spec), **arrays})


def load_spec(path: str) -> ProblemSpec:
    """The problem file, checked, with its matrices as arrays."""
    return spec_arrays(read_spec(path))


def dump_spec(spec: ProblemSpec) -> str:
    out: dict = {"blocks": list(spec.blocks), "mode": spec.mode}
    for key, mat in (("V", spec.v), ("H", spec.h), ("alpha", spec.alpha),
                     ("transfer", spec.transfer)):
        if mat is not None:
            out[key] = matrix_out(mat)
    if spec.ambient_blocks:
        out["ambient_blocks"] = list(spec.ambient_blocks)
    if spec.a_embed is not None:
        out["a_basis"] = [element_out(spec.ambient, e) for e in spec.a_embed]
    if spec.s is not None:
        out["S"] = element_out(spec.ambient, spec.s)
    for key in ("tolerance", "samples", "seed"):
        val = getattr(spec, key)
        if val is not None:
            out[key] = val
    return canonical_json(out)
