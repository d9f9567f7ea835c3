"""Command-line entry point: exit codes, report payloads, determinism."""

import json

import pytest

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


def test_fuzz_trivial_amplification_matches_build(capsys):
    codef, outf, _ = run(capsys, "fuzz", FLIP, "--amplify", "1", "--seed", "0")
    codeb, outb, _ = run(capsys, "build", FLIP)
    assert codef == codeb == EXIT_PASS
    assert json.loads(outf)["checks"] == json.loads(outb)["checks"]


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
