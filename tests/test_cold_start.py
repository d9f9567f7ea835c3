"""Cold start by stage: the modules each command imports, the public names
of the package, and the README's snippets in a fresh interpreter."""

import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import starint

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
BUILD_STAGE = {"starint.basic_construction", "starint.bimodule", "starint.covariant",
               "starint.correspondences", "starint.checklist"}
PUBLIC = [
    'Algebra', 'BasicConstruction', 'BimoduleX', 'CANONICAL_IDS', 'CheckRecord',
    'ConcreteTRO', 'CondExp', 'CorrespondenceError', 'CovariantError', 'CovariantRep',
    'DEFAULT_TOL', 'DeriveResult', 'DescriptorMismatch', 'FaithfulRep',
    'GenCorrespondence', 'Interaction', 'InteractionError', 'InteractionReport',
    'LinMap', 'NumericalDegeneracy', 'ProblemSpec', 'Redundancy', 'Report', 'SpecError',
    'Subspace', 'algebra', 'amplified_interaction', 'amplify', 'basic_construction',
    'basic_for_h', 'basic_for_v', 'bimodule', 'build_basic', 'build_bimodule',
    'build_covrep', 'canonical_json', 'check_71', 'check_713', 'check_78',
    'check_action_bound', 'check_associativity', 'check_bound_59',
    'check_cauchy_schwarz', 'check_commutation', 'check_commutation_22',
    'check_compatibility', 'check_corner_isomorphisms', 'check_corner_norms',
    'check_cube_identity', 'check_derive_roundtrip', 'check_fullness',
    'check_inverse_pair', 'check_nondegeneracy', 'check_norm_agreement',
    'check_positivity', 'check_sliding', 'check_ternary_consistency',
    'check_ternary_module_laws', 'check_theta_adjoints', 'check_unit_relations',
    'checklist', 'choi_matrix', 'classical_gate', 'compact_spans', 'concrete_tro',
    'correspondence_from_bimodule', 'correspondence_from_tro', 'correspondences',
    'covariant', 'derive_from_partial_isometry', 'dump_spec', 'expectation',
    'faithful_extension', 'find_redundancies', 'flip_interaction',
    'from_endomorphism_transfer', 'generated_subalgebra', 'identity_interaction',
    'interactions', 'is_completely_positive', 'linmaps', 'load_spec', 'map_residual',
    'range_subspace', 'rep_ambient_data', 'report_for_failed_candidate',
    'run_checklist', 'specio', 'star_preservation_residual',
    'swap_transfer_interaction', 'transpose_map', 'verify_interaction', 'with_zero_s',
]

# runs main(argv) and writes its exit code and every loaded module to a file
PROBE = """
import json, sys
from starint.cli import main
code = main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    json.dump({"code": code, "modules": sorted(sys.modules)}, fh)
"""


def fresh(*argv, code=PROBE, cwd=ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    env.pop("STARINT_TOL", None)
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def loaded(tmp_path, *argv):
    """Exit code and loaded modules of one command in a fresh interpreter."""
    out = tmp_path / "modules.json"
    proc = fresh(str(out), *argv)
    assert out.exists(), proc.stderr[-2000:]
    got = json.loads(out.read_text())
    return got["code"], set(got["modules"])


def test_import_starint_loads_no_numerics():
    proc = fresh(code="import sys, starint; print(sorted(m for m in sys.modules "
                      "if m == 'numpy' or m.startswith('starint')))")
    assert proc.stdout.split() == ["['starint']"], proc.stderr


@pytest.mark.parametrize("name, code", [("flip", 0), ("flip_isometry", 0), ("transpose", 1)])
def test_verify_imports_no_build_stage(tmp_path, name, code):
    got, modules = loaded(tmp_path, "verify", str(DATA / f"{name}.json"))
    assert got == code
    assert {"starint.interactions", "starint.records"} <= modules
    unwanted = BUILD_STAGE | {"dataclasses"}      # no record class loads it
    assert not unwanted & modules, unwanted & modules


def test_build_imports_the_build_stage(tmp_path):
    code, modules = loaded(tmp_path, "build", str(DATA / "flip.json"))
    assert code == 0
    assert BUILD_STAGE <= modules
    assert "dataclasses" not in modules


@pytest.mark.parametrize("emit, construction, unused", [
    ("bimodule", "starint.bimodule", {"starint.covariant", "starint.correspondences",
                                      "starint.checklist", "starint.records"}),
    ("covrep", "starint.covariant", {"starint.correspondences", "starint.checklist",
                                     "starint.records"}),
])
def test_emit_imports_only_the_construction_it_writes(tmp_path, emit, construction, unused):
    # numpy.ma is what np.unique would load for the writer: a 12 ms import
    unused = unused | {"numpy.ma", "dataclasses"}
    code, modules = loaded(tmp_path, "build", str(DATA / "flip.json"), "--emit", emit)
    assert code == 0
    assert construction in modules
    assert not unused & modules, unused & modules


@pytest.mark.parametrize("argv", [
    ["verify", "bad_schema"], ["build", "bad_schema"], ["verify", "bad_shape"],
    ["build", "bad_shape"], ["verify", "malformed"], ["build", "malformed"],
    ["fuzz", "flip", "--seed", "-1"], ["verify", "flip", "--tol", "nan"],
    ["build", "flip", "--out", "{missing}/x.json"],
], ids=lambda argv: "-".join(argv[:2] + [a.strip("-") for a in argv[2:3]]))
def test_unusable_input_exits_before_numpy(tmp_path, argv):
    command, name, *rest = argv
    rest = [a.format(missing=tmp_path / "missing") for a in rest]
    code, modules = loaded(tmp_path, command, str(DATA / f"{name}.json"), *rest)
    assert code == 2
    # nor dataclasses, which would load inspect
    assert not {"numpy", "dataclasses", "inspect"} & modules, modules


def test_public_names_are_pinned():
    assert starint.__all__ == PUBLIC
    assert [name for name in dir(starint) if not name.startswith("_")] == PUBLIC
    namespace: dict = {}
    exec("from starint import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


def test_each_name_is_its_defining_modules_object():
    for name in PUBLIC:
        obj = getattr(starint, name)
        if isinstance(obj, types.ModuleType):
            assert obj is sys.modules[f"starint.{name}"], name
            continue
        homes = [mod for key, mod in list(sys.modules.items())
                 if key.startswith("starint.") and name in vars(mod)]
        assert homes, name
        assert all(vars(mod)[name] is obj for mod in homes), name
    with pytest.raises(AttributeError):
        starint.no_such_name


def test_readme_snippets_run(tmp_path):
    # the Python blocks build on one another, so they run as one script
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    script = "\n".join(re.findall(r"```python\n(.*?)```", readme, flags=re.S))
    proc = fresh(code=script, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
