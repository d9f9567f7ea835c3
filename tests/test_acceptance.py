"""Acceptance gate: nine go/no-go criteria, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
Every criterion is self-contained and pinned to hand-derived fixtures.
"""

import json

import numpy as np

from starint import (
    Algebra,
    Interaction,
    LinMap,
    amplified_interaction,
    amplify,
    build_bimodule,
    build_covrep,
    check_713,
    check_78,
    check_associativity,
    check_bound_59,
    check_cauchy_schwarz,
    check_commutation,
    check_compatibility,
    check_cube_identity,
    check_derive_roundtrip,
    check_nondegeneracy,
    check_sliding,
    check_ternary_consistency,
    check_ternary_module_laws,
    concrete_tro,
    correspondence_from_bimodule,
    correspondence_from_tro,
    flip_interaction,
    from_endomorphism_transfer,
    identity_interaction,
    is_completely_positive,
    run_checklist,
    transpose_map,
    verify_interaction,
)
from starint.algebra import block_adjoint
from starint.cli import EXIT_PASS, main

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def _report(n, label, ok, detail=""):
    print(f"criterion {n} ({label}): {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {n} ({label}) failed: {detail}"


def _fixtures():
    return {
        "idM2": identity_interaction(Algebra((2,))),
        "flip": flip_interaction(),
        "flip2": amplified_interaction(flip_interaction(), 2),
    }


def test_criterion_1_flip_end_to_end():
    inter = flip_interaction()
    rep = run_checklist(inter.v, inter.h)
    ids_ok = rep.passed and not any(
        r.status == "fail" for r in rep.records.values())
    skips = {cid for cid, r in rep.records.items() if r.status == "skipped"}

    cov = build_covrep(inter)
    cov_ok = (cov.residuals["covariance_v"] <= 1e-9
              and cov.residuals["covariance_h"] <= 1e-9
              and np.array_equal(cov.smat, np.array([[0, 1], [0, 0]], complex)))
    gates = check_nondegeneracy(cov)
    gate_min = min(gates[k] for k in ("gate_range_v", "gate_generated_v",
                                      "gate_range_h", "gate_generated_h"))
    ok = ids_ok and skips == {"7.8", "7.13"} and cov_ok and gate_min >= 0.999
    _report(1, "flip end-to-end", ok,
            f"skips={sorted(skips)} gate_min={gate_min:.3f}")


def test_criterion_2_norm_formulas_agree():
    worst = 0.0
    for name, inter in _fixtures().items():
        x = build_bimodule(inter)
        rng = np.random.default_rng(42)
        for _ in range(200):
            pairs = inter.algebra.random_coords(rng, 4).reshape(2, 2, -1)
            a, b = pairs[:, 0], pairs[:, 1]
            nr, nl = x.norm_two_ways(a, b)
            ng = x.module_norm(sum(np.kron(block_adjoint(inter.algebra, ai), bi)
                                   for ai, bi in zip(a, b)))
            scale = max(nr, nl, ng, 1e-30)
            worst = max(worst, abs(nr - nl) / scale, abs(nr - ng) / scale,
                        abs(nl - ng) / scale)
    _report(2, "norm formulas", worst <= 1e-8, f"worst_rel={worst:.3e}")


def test_criterion_3_positivity_certificates():
    min_eig = 0.0
    for inter in _fixtures().values():
        for m in (inter.v, inter.h):
            _, eig = is_completely_positive(m)
            min_eig = min(min_eig, eig)
    choi_ok = min_eig >= -1e-9

    t = transpose_map(Algebra((2,)))
    vr = verify_interaction(t, t)
    witness = vr.witnesses.get("3.1.iv")
    rejected = (not vr.passed and vr.residuals["3.1.iv"] > 1.0
                and witness == {"x_kind": "unit", "x_index": 1,
                                "y_kind": "unit", "y_index": 2, "order": "xy"})
    _report(3, "positivity certificates", choi_ok and rejected,
            f"choi_min={min_eig:.3e} witness={witness}")


def test_criterion_4_cauchy_schwarz_and_bound():
    worst = 0.0
    for inter in _fixtures().values():
        x = build_bimodule(inter)
        cs = check_cauchy_schwarz(x, samples=100, rng=np.random.default_rng(53))
        b = check_bound_59(x, samples=100, rng=np.random.default_rng(59))
        worst = max(worst, max(cs.values()), max(b.values()))
    _report(4, "inner-product inequalities", worst <= 1e-9, f"worst={worst:.3e}")


def test_criterion_5_bimodule_laws():
    sweeps = (check_associativity, check_sliding, check_compatibility,
              check_ternary_consistency, check_ternary_module_laws)
    fixtures = list(_fixtures().values())
    mean = LinMap(Algebra((1, 1)), np.full((2, 2), 0.5))
    fixtures.append(Interaction.build(mean, mean))
    worst = 0.0
    for inter in fixtures:
        assert inter.algebra.dim <= 8
        x = build_bimodule(inter)
        for fn in sweeps:
            worst = max(worst, max(fn(x).values()))
    _report(5, "bimodule laws", worst <= 1e-9, f"worst={worst:.3e}")


def test_criterion_6_roundtrip_from_representation():
    out = check_derive_roundtrip(build_covrep(flip_interaction()))
    worst = max(out.values())
    _report(6, "compression round trip", worst <= 1e-9, f"worst={worst:.3e}")


def test_criterion_7_endomorphism_transfer_forms():
    alg = Algebra((1, 1))
    sw = LinMap(alg, SWAP)
    worst = 0.0
    for mult in (1, 2):
        a = amplify(sw, mult) if mult > 1 else sw
        inter, _ = from_endomorphism_transfer(a, a)
        out = check_713(a, a, inter, build_bimodule(inter))
        assert set(out) == {"density", "isometry", "module_map_right",
                            "module_map_left", "ternary"}
        worst = max(worst, max(out.values()))
    _report(7, "endomorphism/transfer form", worst <= 1e-9, f"worst={worst:.3e}")


def test_criterion_8_ternary_layer():
    alg2 = Algebra((2,))
    units = np.eye(4)
    diag_coeff = Algebra((1, 1))
    diag_embed = units[[0, 3]]
    corrs = [
        correspondence_from_tro(concrete_tro(alg2, units[[1]]),
                                diag_coeff, diag_embed),
        correspondence_from_tro(concrete_tro(alg2, units[[0, 3]]),
                                diag_coeff, diag_embed),
        correspondence_from_tro(concrete_tro(alg2, units), alg2, units),
    ]
    comm = max(max(check_commutation(c).values()) for c in corrs)
    cube = max(check_cube_identity(c)["cube_identity"] for c in corrs)

    classical = correspondence_from_bimodule(
        build_bimodule(identity_interaction(alg2)))
    out78 = check_78(classical)
    cls = max(out78["inner_product_recovered"], out78["theta_r_is_inner_action"])
    ok = comm <= 1e-9 and cube <= 1e-8 and cls <= 1e-9
    _report(8, "ternary layer", ok,
            f"commutation={comm:.3e} cube={cube:.3e} classical={cls:.3e}")


def test_criterion_9_determinism(capsys):
    argv = ["fuzz", "tests/data/flip.json", "--seed", "11", "--samples", "10"]
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    fuzz_ok = code1 == code2 == EXIT_PASS and out1 == out2

    code3 = main(["build", "tests/data/flip.json"])
    out3 = capsys.readouterr().out
    golden = open("tests/data/flip_report_golden.json").read()
    golden_ok = code3 == EXIT_PASS and out3 == golden
    _report(9, "determinism", fuzz_ok and golden_ok,
            f"fuzz_identical={fuzz_ok} golden_match={golden_ok}")
