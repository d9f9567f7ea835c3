"""Problem files: JSON schema, lenient numeric forms, canonical output."""

import json
import math

import numpy as np
import pytest
from conftest import traced_peak

from starint import (
    LinMap,
    SpecError,
    amplified_interaction,
    amplify,
    build_bimodule,
    canonical_json,
    dump_spec,
    flip_interaction,
    load_spec,
)
from starint.cli import main
from starint.specio import matrix_out

DATA = "tests/data"


def test_flip_spec_loads():
    spec = load_spec(f"{DATA}/flip.json")
    assert spec.blocks == (1, 1)
    assert spec.mode == "plain"
    assert np.array_equal(spec.v, np.array([[0, 1], [0, 1]], dtype=complex))
    assert spec.tolerance is None and spec.seed is None


def test_round_trip_preserves_data(tmp_path):
    spec = load_spec(f"{DATA}/flip.json")
    p = tmp_path / "again.json"
    p.write_text(dump_spec(spec))
    spec2 = load_spec(str(p))
    assert spec2.blocks == spec.blocks
    assert np.array_equal(spec2.v, spec.v)
    assert np.array_equal(spec2.h, spec.h)


def test_endo_mode_defaults_maps_from_alpha_transfer():
    spec = load_spec(f"{DATA}/swap_endo.json")
    assert spec.mode == "endo_transfer"
    assert np.array_equal(spec.v, spec.alpha)
    assert np.array_equal(spec.h, spec.transfer)


def test_partial_isometry_spec():
    spec = load_spec(f"{DATA}/flip_isometry.json")
    assert spec.mode == "partial_isometry"
    assert spec.ambient_blocks == (2,)
    assert len(spec.a_embed) == 2
    assert spec.s is not None
    # the embedded corner is the matrix unit sending e2 to e1
    assert np.allclose(spec.s.mats[0], [[0, 1], [0, 0]])


def test_malformed_json_rejected():
    with pytest.raises(SpecError, match="invalid JSON"):
        load_spec(f"{DATA}/malformed.json")


def test_missing_required_key_rejected():
    with pytest.raises(SpecError, match="requires"):
        load_spec(f"{DATA}/bad_schema.json")


def test_wrong_matrix_shape_rejected():
    with pytest.raises(SpecError, match="shape"):
        load_spec(f"{DATA}/bad_shape.json")


def test_lenient_numbers_strict_output(tmp_path):
    # bare reals are accepted on input; output is always the two-element form
    raw = {"blocks": [1, 1], "V": [[0, 1], [0, 1]], "H": [[1, 0], [1, 0]]}
    p = tmp_path / "bare.json"
    p.write_text(json.dumps(raw))
    spec = load_spec(str(p))
    out = json.loads(dump_spec(spec))
    assert out["V"][0][1] == [1.0, 0.0]


def test_complex_entries_survive(tmp_path):
    raw = {"blocks": [1, 1], "V": [[[0, 0], [0, 1]], [[0, 0], [0, 1]]],
           "H": [[1, 0], [1, 0]]}
    p = tmp_path / "cx.json"
    p.write_text(json.dumps(raw))
    spec = load_spec(str(p))
    assert spec.v[0, 1] == 1j


def test_canonical_json_is_stable():
    a = canonical_json({"b": 2, "a": 1})
    b = canonical_json({"a": 1, "b": 2})
    assert a == b
    assert a.endswith("\n")
    # non-finite floats are encoded as strings, never bare NaN tokens
    assert json.loads(canonical_json({"x": float("nan")})) == {"x": "nan"}
    assert json.loads(canonical_json({"x": float("inf")})) == {"x": "inf"}


def test_unknown_mode_rejected(tmp_path):
    raw = {"blocks": [1], "mode": "imaginary", "V": [[1]], "H": [[1]]}
    p = tmp_path / "mode.json"
    p.write_text(json.dumps(raw))
    with pytest.raises(SpecError, match="mode"):
        load_spec(str(p))


def test_tolerance_and_sampling_fields(tmp_path):
    raw = {"blocks": [1, 1], "V": [[0, 1], [0, 1]], "H": [[1, 0], [1, 0]],
           "tolerance": 1e-7, "samples": 11, "seed": 3}
    p = tmp_path / "tol.json"
    p.write_text(json.dumps(raw))
    spec = load_spec(str(p))
    assert spec.tolerance == 1e-7
    assert spec.samples == 11
    assert spec.seed == 3


@pytest.mark.parametrize("field", [
    '"tolerance": Infinity', '"tolerance": NaN', '"tolerance": true',
    '"seed": true', '"samples": false', '"blocks": [true, 1]'])
def test_non_finite_and_bool_fields_rejected(tmp_path, field):
    p = tmp_path / "field.json"
    p.write_text('{"blocks": [1, 1], "V": [[0, 1], [0, 1]], "H": [[1, 0], [1, 0]], '
                 + field + "}")
    with pytest.raises(SpecError):
        load_spec(str(p))


def _entrywise_matrix_out(m):
    """The writer matrix_out replaced: one [re, im] list per entry."""
    return [[[float(np.real(v)), float(np.imag(v))] for v in row] for row in np.atleast_2d(m)]


@pytest.mark.parametrize("m", [
    np.array([[complex(-0.0, 1e-300), complex(5e-324, -0.0)], [1 / 3 + 2j, -1e300]]),
    np.array([[complex(np.nan, 1.0), complex(np.inf, -np.inf)], [0.0, complex(-0.0, np.nan)]]),
    np.array([[1, -2], [0, 3]]),
    np.array([0.5, -0.0, 1e-300]),
    np.random.default_rng(0).standard_normal((5, 7)) * 1j,
])
def test_matrix_out_writes_the_same_bytes_as_the_entrywise_writer(m):
    assert canonical_json({"m": matrix_out(m)}) == canonical_json({"m": _entrywise_matrix_out(m)})


# -- the writer against its byte oracle: json.dumps of the old sanitizer ---------


def _old_sanitize(obj):
    """The structure canonical_json handed to json.dumps before it wrote
    arrays itself: numpy numbers to Python ones, complex to [re, im],
    non-finite floats to strings."""
    if isinstance(obj, dict):
        return {str(k): _old_sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_old_sanitize(v) for v in obj]
    if isinstance(obj, (np.complexfloating, complex)):
        return [float(np.real(obj)), float(np.imag(obj))]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _old_sanitize(obj.tolist())
    return obj


def oracle(obj) -> str:
    return json.dumps(_old_sanitize(obj), sort_keys=True, indent=2,
                      ensure_ascii=False, allow_nan=False) + "\n"


EDGE_FLOATS = [-0.0, 5e-324, 1e-300, 1 / 3, 1e16, 1e22]
ARRAYS = {
    "edge floats 1-D": np.array(EDGE_FLOATS),
    "edge floats as pairs": matrix_out(np.array(EDGE_FLOATS) - 1j * np.array(EDGE_FLOATS[::-1])),
    "1x1": matrix_out(np.array([[1 / 3]])),
    "0-row": matrix_out(np.zeros((0, 4))),
    "0-row raw": np.zeros((0, 3)),
    "empty rows": np.zeros((2, 0)),
    "0-d": np.array(1e22),
    "stack": matrix_out(np.random.default_rng(1).standard_normal((3, 2, 4)) * (1 + 1j)),
    "4 axes": np.arange(48.0).reshape(2, 3, 4, 2) / 3,
    "float32": np.array([[0.1, -0.0]], dtype=np.float32),
    "ints": np.arange(3),
    "complex": np.array([1 / 3 - 0.0j, 1e16j]),
    "NaN pairs": matrix_out(np.array([[complex(np.nan, 1.0), np.inf], [-np.inf, 0.5]])),
    "NaN raw": np.array([[1.0, np.nan], [np.inf, -np.inf]]),
    "NaN 3 axes": np.array([[[0.5, np.nan]]]),
}


def _nest(value, depth: int):
    """``value`` under ``depth`` levels of dicts with unsorted, non-ASCII keys
    and of lists next to other entries."""
    for level in range(depth):
        if level % 2:
            value = [1 / 3, value, {}, []]
        else:
            value = {"zeta": value, "Ärger": level, "alpha": [-0.0], "é": "%s"}
    return value


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
@pytest.mark.parametrize("name", list(ARRAYS))
def test_canonical_json_writes_the_oracle_bytes_for_arrays(name, depth):
    obj = _nest(ARRAYS[name], depth)
    assert canonical_json(obj) == oracle(obj)


def test_canonical_json_writes_the_oracle_bytes_for_scalars_and_strings():
    obj = {
        "floats": EDGE_FLOATS + [-1e22, float("nan"), float("inf"), float("-inf")],
        "numpy": [np.float64(1 / 3), np.float32(0.1), np.int64(-7), np.complex128(1e22 - 5e-324j)],
        "python": [2 ** 70, True, False, None, complex(-0.0, 1 / 3), (1, "tuple")],
        # strings that look like the writer's templates, or like its fallback
        "%s": ["%s", "%%s", "[]", "{}", "nan", "-inf", "☃\n\"\\\t", ""],
        "nested empty": [[], {}, [[]], {"k": {}}],
        3: "an integer key",
        "B": [np.array([0.5, 1e-300]), "%s", matrix_out(np.eye(1))],
    }
    assert canonical_json(obj) == oracle(obj)
    with pytest.raises(TypeError):
        canonical_json({"x": object()})


def _amplified_spec(tmp_path, name: str, n: int) -> str:
    spec = load_spec(f"{DATA}/{name}.json")
    v, h = (amplify(LinMap(spec.algebra, m), n) for m in (spec.v, spec.h))
    path = tmp_path / f"{name}_x{n}.json"
    path.write_text(canonical_json({"blocks": list(v.algebra.blocks), "mode": "plain",
                                    "V": matrix_out(v.matrix), "H": matrix_out(h.matrix)}))
    return str(path)


@pytest.mark.parametrize("emit", ["bimodule", "covrep"])
@pytest.mark.parametrize("name, n", [("flip", 3), ("identity_m2", 2)])
def test_emitted_artifacts_are_the_oracle_bytes(capsys, tmp_path, name, n, emit):
    path = _amplified_spec(tmp_path, name, n)
    assert main(["build", path, "--emit", emit]) == 0
    out = capsys.readouterr().out
    # every float survives json.loads exactly, so the oracle of the parsed
    # payload is the text itself
    assert out == oracle(json.loads(out))


def test_writer_peak_on_the_flip_x3_bimodule_payload():
    x = build_bimodule(amplified_interaction(flip_interaction(), 3))

    def write():
        return canonical_json({"r": x.r, "gram_spectrum": x.gram_spectrum,
                               "kernel_basis": matrix_out(x.kernel)})
    text, peak = traced_peak(write)
    assert len(text) > 4_000_000  # about 200k floats
    assert peak < 16 * 2 ** 20, peak / 2 ** 20
