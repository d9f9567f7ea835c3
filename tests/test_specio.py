"""Problem files: JSON schema, lenient numeric forms, canonical output."""

import json

import numpy as np
import pytest

from starint import SpecError, canonical_json, dump_spec, load_spec
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
