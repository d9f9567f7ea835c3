"""Command-line entry point: exit codes, report payloads, determinism."""

import json
import os
import resource
import subprocess
import sys

import pytest

from starint import interactions, linmaps, records
from starint.checklist import CANONICAL_IDS, VERIFY_STAGE_IDS
from starint.cli import EXIT_FAIL, EXIT_PASS, EXIT_USAGE, main

DATA = "tests/data"
FLIP = f"{DATA}/flip.json"
TRANSPOSE = f"{DATA}/transpose.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_pass(capsys):
    code, out, err = run(capsys, "verify", FLIP)
    assert code == EXIT_PASS
    report = json.loads(out)
    assert report["environment"]["stage"] == "verify"
    assert report["checks"]["3.1.i"]["status"] == "pass"
    assert report["checks"]["5.2"]["status"] == "skipped"
    assert "overall" in err and "PASS" in err


def test_verify_fail(capsys):
    code, out, err = run(capsys, "verify", TRANSPOSE)
    assert code == EXIT_FAIL
    report = json.loads(out)
    rec = report["checks"]["3.1.iv"]
    assert rec["status"] == "fail"
    assert rec["witness"]["x_index"] == 1
    assert "FAIL" in err


def test_build_pass_and_skips(capsys):
    code, out, _ = run(capsys, "build", FLIP)
    assert code == EXIT_PASS
    report = json.loads(out)
    skipped = {cid for cid, rec in report["checks"].items()
               if rec["status"] == "skipped"}
    assert skipped == {"7.8", "7.13"}


def test_build_endo_mode_no_skips(capsys):
    code, out, _ = run(capsys, "build", f"{DATA}/swap_endo.json")
    assert code == EXIT_PASS
    report = json.loads(out)
    assert all(rec["status"] == "pass" for rec in report["checks"].values())


def test_build_emit_bimodule(capsys):
    code, out, _ = run(capsys, "build", FLIP, "--emit", "bimodule")
    assert code == EXIT_PASS
    dump = json.loads(out)
    assert dump["r"] == 1
    assert dump["gram_spectrum"] == [1.0]
    assert len(dump["kernel_basis"]) == 3


def test_build_emit_covrep(capsys):
    code, out, _ = run(capsys, "build", FLIP, "--emit", "covrep")
    assert code == EXIT_PASS
    dump = json.loads(out)
    assert dump["r"] == 1 and dump["s"] == 1
    assert dump["S"][0][1] == [1.0, 0.0]
    assert max(dump["residual_table"].values()) == 0.0


def test_partial_isometry_spec_derives(capsys):
    code, out, _ = run(capsys, "build", f"{DATA}/flip_isometry.json")
    assert code == EXIT_PASS
    report = json.loads(out)
    derive = report["environment"]["derive"]
    assert derive["gauge"] == "unital"
    assert min(derive["gates"].values()) > 0.999


def test_usage_errors(capsys, tmp_path):
    assert main(["verify", str(tmp_path / "missing.json")]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["verify", f"{DATA}/malformed.json"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["verify", f"{DATA}/bad_schema.json"]) == EXIT_USAGE
    capsys.readouterr()


def test_tolerance_precedence(capsys, monkeypatch):
    # an absurdly tight env tolerance flips the verdict; the flag overrides it
    monkeypatch.setenv("STARINT_TOL", "1e-30")
    code, out, _ = run(capsys, "build", f"{DATA}/identity_m2.json")
    assert code == EXIT_FAIL
    monkeypatch.setenv("STARINT_TOL", "1e-30")
    code2, _, _ = run(capsys, "build", f"{DATA}/identity_m2.json",
                      "--tol", "1e-9")
    assert code2 == EXIT_PASS


def test_bad_env_tolerance_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("STARINT_TOL", "not-a-number")
    code, _, _ = run(capsys, "verify", FLIP)
    assert code == EXIT_USAGE


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", FLIP, "--out", str(target))
    assert code == EXIT_PASS
    assert out == ""
    assert json.loads(target.read_text())["checks"]["2.4"]["status"] == "pass"


def test_unwritable_out_fails_before_any_check(capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the checklist ran before --out was opened")

    monkeypatch.setattr(records, "run_checklist", refuse)
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "fuzz", FLIP, "--amplify", "2", "--out", str(target))
    assert code == EXIT_USAGE
    assert "cannot write" in err and out == ""


def test_failed_emit_leaves_no_file(capsys, tmp_path):
    target = tmp_path / "x.json"
    code, _, err = run(capsys, "build", TRANSPOSE, "--emit", "bimodule", "--out", str(target))
    assert code == EXIT_FAIL and "build failed" in err
    assert not target.exists()
    # a file that was there already is left as it was
    target.write_text("old")
    assert run(capsys, "build", TRANSPOSE, "--emit", "bimodule", "--out", str(target))[0] \
        == EXIT_FAIL
    assert target.read_text() == "old"


def test_out_replaces_an_existing_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    target.write_text("x" * 100000)
    assert run(capsys, "verify", FLIP, "--out", str(target))[0] == EXIT_PASS
    assert target.read_text() == run(capsys, "verify", FLIP)[1]


def test_out_of_memory_is_one_usage_error_line(tmp_path):
    # flip x1000 has dim 2·10⁶: its first (dim, dim) complex map needs 58 TiB,
    # which a 1 GB address-space limit refuses whatever the host's overcommit
    target = tmp_path / "x.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [os.path.abspath("src"),
                                                  os.environ.get("PYTHONPATH")])))
    env.pop("STARINT_TOL", None)
    limit = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "starint.cli", "fuzz", FLIP, "--amplify", "1000",
         "--out", str(target)], env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == EXIT_USAGE, proc.stderr[-2000:]
    assert proc.stdout == "" and proc.stderr.startswith("error: ")
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
    assert not target.exists()


@pytest.mark.parametrize("where", ["flag", "file"])
def test_oversized_sample_count_is_refused_before_the_first_draw(tmp_path, where):
    # 10⁸ samples of flip need gigabytes of normal draws, which a 1 GB
    # address-space limit refuses at the draw (an allocation error, or the
    # kernel's kill without the limit); the count is refused first, by name
    spec = tmp_path / "many.json"
    spec.write_text(json.dumps({**json.load(open(FLIP)), "samples": 100000000}))
    argv = ["fuzz", FLIP, "--samples", "100000000"] if where == "flag" else ["fuzz", str(spec)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [os.path.abspath("src"),
                                                  os.environ.get("PYTHONPATH")])))
    env.pop("STARINT_TOL", None)
    limit = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "starint.cli", *argv], env=env, capture_output=True, text=True,
        timeout=120, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == EXIT_USAGE, proc.stderr[-2000:]
    assert proc.stdout == "" and len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: sample count 100000000 "), proc.stderr


ID = [[1, 0], [0, 1]]
SWAP = [[0, 1], [1, 0]]
DIAG_M2 = [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]]


@pytest.mark.parametrize("spec, reason", [
    # V and H are not the supplied endomorphism and transfer
    ({"blocks": [1, 1], "mode": "endo_transfer", "alpha": SWAP, "transfer": SWAP,
      "V": ID, "H": ID}, "not generated by the supplied"),
    # the diagonal expectation on M_2 is a valid pair but not multiplicative
    ({"blocks": [2], "mode": "endo_transfer", "alpha": DIAG_M2, "transfer": DIAG_M2},
     "not multiplicative"),
])
def test_713_refusal_fails_the_record(capsys, tmp_path, spec, reason):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "build", str(path))
    assert code == EXIT_FAIL
    checks = json.loads(out)["checks"]
    assert checks["7.13"]["status"] == "fail"
    assert reason in checks["7.13"]["reason"]
    assert sorted(checks) == sorted(CANONICAL_IDS)
    assert checks["3.1.i"]["status"] == "pass"


@pytest.mark.parametrize("blocks", [[2], [2, 1]])
def test_zero_pair_builds_with_every_build_id_skipped(capsys, tmp_path, blocks):
    # V = H = 0 satisfies every axiom and its module is {0}: verify, build and
    # fuzz all exit 0; emitting the module, which has nothing to build on, fails
    dim = sum(d * d for d in blocks)
    zero = [[0] * dim] * dim
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"blocks": blocks, "mode": "plain", "V": zero, "H": zero}))
    for argv in (["verify"], ["build"], ["fuzz", "--amplify", "2"]):
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == EXIT_PASS, (argv, err)
        checks = json.loads(out)["checks"]
        assert all(checks[cid]["status"] == "pass" for cid in VERIFY_STAGE_IDS), argv
        if argv[0] != "verify":
            assert {rec.get("reason") for cid, rec in checks.items()
                    if cid not in VERIFY_STAGE_IDS} == {"zero pair: the module is {0}"}
    code, out, err = run(capsys, "build", str(path), "--emit", "bimodule")
    assert code == EXIT_FAIL and out == "" and "build failed" in err


def test_fuzz_deterministic(capsys):
    code1, out1, _ = run(capsys, "fuzz", FLIP, "--amplify", "2", "--seed", "7",
                         "--samples", "5")
    code2, out2, _ = run(capsys, "fuzz", FLIP, "--amplify", "2", "--seed", "7",
                         "--samples", "5")
    assert code1 == code2 == EXIT_PASS
    assert out1 == out2
    report = json.loads(out1)
    assert report["environment"]["amplify"] == 2
    # dims records the input pair's blocks, before amplification
    assert report["environment"]["dims"] == [1, 1]


def test_fuzz_trivial_amplification_matches_build(capsys, tmp_path):
    codef, outf, _ = run(capsys, "fuzz", FLIP, "--amplify", "1", "--seed", "0")
    codeb, outb, _ = run(capsys, "build", FLIP)
    assert codef == codeb == EXIT_PASS
    assert json.loads(outf)["checks"] == json.loads(outb)["checks"]
    # a file's seed and samples hold for every command unless a flag is given
    spec = tmp_path / "seeded.json"
    spec.write_text(json.dumps({**json.load(open(FLIP)), "seed": 454637359, "samples": 7}))
    reports = {}
    for argv in (["build"], ["fuzz", "--amplify", "1"], ["fuzz", "--seed", "3"],
                 ["verify"], ["fuzz", "--samples", "2"]):
        code, out, _ = run(capsys, argv[0], str(spec), *argv[1:])
        assert code == EXIT_PASS, argv
        reports[" ".join(argv)] = json.loads(out)
    env = {name: (rep["environment"]["seed"], rep["environment"]["samples"])
           for name, rep in reports.items()}
    assert env == {"build": (454637359, 7), "fuzz --amplify 1": (454637359, 7),
                   "fuzz --seed 3": (3, 7), "verify": (454637359, 7),
                   "fuzz --samples 2": (454637359, 2)}
    assert reports["fuzz --amplify 1"]["checks"] == reports["build"]["checks"]


def test_golden_flip_report(capsys):
    code, out, _ = run(capsys, "build", FLIP)
    assert code == EXIT_PASS
    golden = open(f"{DATA}/flip_report_golden.json").read()
    assert out == golden


@pytest.mark.parametrize("entry", ["NaN", "-Infinity", "1e400", "1" + "0" * 400,
                                   "true", "[0, NaN]", "[false, 0]"])
def test_non_finite_or_bool_matrix_entry_is_usage_error(capsys, tmp_path, entry):
    p = tmp_path / "bad.json"
    p.write_text('{"blocks": [1, 1], "V": [[%s, 0], [0, 1]], "H": [[1, 0], [0, 1]]}' % entry)
    for command in ("verify", "build"):
        code, _, err = run(capsys, command, str(p))
        assert code == EXIT_USAGE, (command, err)
        assert "finite number" in err


@pytest.mark.parametrize("flag, env", [("nan", None), ("inf", None), ("-1", None),
                                       (None, "inf"), (None, "nan"), (None, "0")])
def test_non_finite_or_non_positive_tolerance_is_usage_error(capsys, monkeypatch, flag, env):
    if env is not None:
        monkeypatch.setenv("STARINT_TOL", env)
    argv = ["verify", FLIP] + (["--tol", flag] if flag is not None else [])
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE, err


@pytest.mark.parametrize("argv", [["fuzz", FLIP, "--seed", "-1"],
                                  ["fuzz", FLIP, "--samples", "-3"],
                                  ["build", FLIP, "--out", "{missing}/x.json"]],
                         ids=["negative-seed", "negative-samples", "unwritable-out"])
def test_bad_option_is_usage_error(capsys, tmp_path, argv):
    argv = [a.format(missing=tmp_path / "missing") for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE, err
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


def test_build_with_zero_samples(capsys, tmp_path):
    with open(FLIP) as fh:
        spec = json.load(fh)
    spec["samples"] = 0
    path = tmp_path / "flip_no_samples.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "build", str(path))
    assert code == EXIT_PASS, err
    report = json.loads(out)
    assert report["environment"]["samples"] == 0
    assert sorted(report["checks"]) == sorted(CANONICAL_IDS)


def counted(monkeypatch, module, name):
    """A list that gains one entry per call of ``module.name``, from every
    starint module that binds the function."""
    original, calls = getattr(module, name), []

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("starint") \
                and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, wrapper)
    return calls


def test_each_pair_is_verified_once(capsys, monkeypatch):
    verified = counted(monkeypatch, interactions, "verify_interaction")
    ranges = counted(monkeypatch, linmaps, "range_subspace")
    # once while deriving the pair, once with the report's own seeded samples
    assert run(capsys, "build", f"{DATA}/flip_isometry.json")[0] == EXIT_PASS
    assert len(verified) == 2
    verified.clear()
    # the emitted module is built on the derived pair
    assert run(capsys, "build", f"{DATA}/flip_isometry.json", "--emit", "bimodule")[0] \
        == EXIT_PASS
    assert len(verified) == 1
    ranges.clear()
    # the ranges of V and H, then the range of each expectation
    assert run(capsys, "verify", FLIP)[0] == EXIT_PASS
    assert len(ranges) == 4


I2 = [[1, 0], [0, 1]]
ISOMETRY_BASIS = [[[[1, 0], [0, 0]]], [[[0, 0], [0, 1]]]]


@pytest.mark.parametrize("text, message", [
    ('{"blocks": [1, 1],', "invalid JSON in {path}: Expecting property name enclosed in "
                           "double quotes: line 1 column 19 (char 18)"),
    ("[1, 2]", "top level must be an object"),
    (json.dumps({"blocks": [1, 1], "V": I2, "H": I2, "extra": 1}), "unknown keys: ['extra']"),
    (json.dumps({"V": I2, "H": I2}), "missing 'blocks'"),
    (json.dumps({"blocks": [2, 0], "V": I2, "H": I2}),
     "'blocks' must be a nonempty list of positive integers"),
    (json.dumps({"blocks": [1, 1], "mode": "bogus", "V": I2, "H": I2}),
     "mode must be one of ('plain', 'endo_transfer', 'partial_isometry')"),
    # an entry of V is refused before the missing H
    ('{"blocks": [1, 1], "V": [[NaN, 0], [0, 1]]}',
     "expected a finite number or [re, im] pair, got nan"),
    ('{"blocks": [1, 1], "V": [[true, 0], [0, 1]]}',
     "expected a finite number or [re, im] pair, got True"),
    (json.dumps({"blocks": [1, 1], "V": [[1, 0, 0], [0, 1, 0]], "H": I2}),
     "matrix has shape (2, 3), expected (2, 2)"),
    (json.dumps({"blocks": [1, 1], "V": [[1, 0], [0]], "H": I2}),
     "matrix rows have unequal lengths"),
    (json.dumps({"blocks": [1, 1], "V": [[[1, 2, 3], 0], [0, 1]], "H": I2}),
     "expected a finite number or [re, im] pair, got [1, 2, 3]"),
    (json.dumps({"blocks": [1, 1], "mode": "partial_isometry", "ambient_blocks": [2],
                 "a_basis": ISOMETRY_BASIS}),
     "partial_isometry mode requires 'ambient_blocks', 'a_basis', and 'S'"),
    (json.dumps({"blocks": [1, 1], "mode": "partial_isometry", "ambient_blocks": [2],
                 "a_basis": ISOMETRY_BASIS[:1], "S": [[[0, 1], [0, 0]]]}),
     "'a_basis' must list 2 ambient elements"),
    (json.dumps({"blocks": [1, 1], "V": I2, "H": I2, "tolerance": -1}),
     "'tolerance' must be a positive finite number"),
    (json.dumps({"blocks": [1, 1], "V": I2, "H": I2, "seed": "x"}),
     "'seed' must be a nonnegative integer"),
], ids=["invalid-json", "not-an-object", "unknown-key", "missing-blocks", "bad-blocks",
        "bad-mode", "nan-before-missing-h", "true-before-missing-h", "wrong-shape",
        "unequal-rows", "three-element-pair", "isometry-without-s", "short-a-basis",
        "negative-tolerance", "string-seed"])
def test_usage_error_message_table(capsys, tmp_path, text, message):
    path = tmp_path / "spec.json"
    path.write_text(text)
    for command in ("verify", "build"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message.format(path=path)}\n")
