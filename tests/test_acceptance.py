"""Acceptance checks: one test and one printed pass/fail line per criterion.

Each criterion drives the verification harness at its stated sample
sizes and fails with the offending certificates when any claim fails.
Run with `pytest -s tests/test_acceptance.py` to see the summary lines.
"""

import pytest

from preordgrp import verify as v


def _conclude(criterion: int, certs) -> None:
    ok = all(cert.passed for cert in certs)
    print(f"criterion {criterion}: {'pass' if ok else 'fail'}")
    if not ok:
        failing = [cert for cert in certs if not cert.passed]
        pytest.fail(
            f"criterion {criterion} failed:\n"
            + "\n\n".join(v.format_certificate(cert) for cert in failing)
        )


def _stat(cert, label: str) -> int:
    return dict(cert.stats).get(label, 0)


def test_criterion_1_relative_kernel_and_cokernel_formulas():
    certs = [
        v.run_claim(name, samples=200)
        for name in (
            "zker-up-abelian",
            "zker-up-finite",
            "zcok-up-abelian",
            "zcok-up-finite",
        )
    ]
    for cert in certs:
        assert _stat(cert, "morphisms") == 200, cert.claim
        assert _stat(cert, "mutations") >= 1, cert.claim
    _conclude(1, certs)


def test_criterion_2_pretorsion_axioms():
    cert = v.run_claim("pretorsion")
    assert _stat(cert, "sequences") >= 14  # every probe decomposes
    assert _stat(cert, "zker-sampled") > 0
    assert _stat(cert, "zcok-sampled") > 0
    assert _stat(cert, "mutations") >= 1
    _conclude(2, [cert])


def test_criterion_3_trivial_morphism_characterization():
    certs = [
        v.run_claim("ztrivial-abelian", samples=250),
        v.run_claim("ztrivial-finite", samples=250),
    ]
    assert sum(_stat(cert, "morphisms") for cert in certs) == 500
    _conclude(3, certs)


def test_criterion_4_adjoint_triple():
    cert = v.run_claim("adjunction")
    assert _stat(cert, "counit-sampled") > 0
    assert _stat(cert, "unit-sampled") > 0
    assert _stat(cert, "mutations") >= 1
    _conclude(4, [cert])


def test_criterion_5_pullback_and_pushout_characterizations():
    certs = [
        v.run_claim("gjm-pullback-abelian", samples=100),
        v.run_claim("gjm-pullback-finite", samples=100),
        v.run_claim("gjm-pushout-abelian", samples=100),
    ]
    for cert in certs:
        assert _stat(cert, "morphisms") == 100, cert.claim
        assert _stat(cert, "mutations") >= 1, cert.claim
    _conclude(5, certs)


def test_criterion_6_torsion_theory_in_nonneg_monoids():
    cert = v.run_claim("mon-torsion")
    assert _stat(cert, "kernel-sampled") > 0
    assert _stat(cert, "cokernel-sampled") > 0
    assert _stat(cert, "mutations") >= 1
    _conclude(6, [cert])


def test_criterion_7_positive_cone_torsion_theory_functor():
    cert = v.run_claim("p-functor")
    assert _stat(cert, "mutations") >= 1
    _conclude(7, [cert])


def test_criterion_8_stable_comparison_instances():
    cert = v.run_claim("completion")
    assert _stat(cert, "mutations") >= 1
    _conclude(8, [cert])


def test_criterion_9_integer_solver_cross_checks():
    cert = v.run_claim("intsolve")
    assert _stat(cert, "hilbert-systems") == 180  # 60 grid + 120 sampled
    assert _stat(cert, "membership-queries") == 183  # 63 grid + 120 sampled
    _conclude(9, [cert])
