"""Certificates: format, determinism, and mutation sensitivity."""

import pytest

from preordgrp import fgabelian as ab
from preordgrp import finitegroup as fg
from preordgrp import preord as po
from preordgrp import verify as v
from preordgrp.errors import ValidationError

SUITE = v.default_suite(0, 8)  # a small suite keeps these tests quick

Z = ab.make_group(1, [])
ZZ = ab.make_group(2, [])
ZN = po.make_object(Z, [[1]])
QUAD = po.make_object(ZZ, [[1, 0], [0, 1]])
PRJ = po.make_morphism(QUAD, ZN, [[1], [0]])
DOUBLE = po.make_morphism(ZN, ZN, [[2]])

S3, _ = fg.group_from_permutations([(1, 0, 2), (0, 2, 1)])
S3A3 = po.make_object(S3, [3])
Z2FULL = po.make_object(fg.cyclic_group(2), [1])
SGN = po.make_morphism(S3A3, Z2FULL, (0, 1, 1, 0, 0, 1))
C3FULL = po.make_object(fg.cyclic_group(3), [1])
INCL = po.make_morphism(C3FULL, S3A3, (0, 3, 4))


class TestCertificateFormat:
    def test_single_certificate_lines(self):
        cert = v.Certificate("demo", "fail", (("probes", 3),), ("something broke",))
        assert v.format_certificate(cert) == (
            "claim demo\nstatus fail\nstat probes 3\nwitness something broke"
        )

    def test_blocks_and_trailing_newline(self):
        a = v.Certificate("one", "pass", (("n", 1),))
        b = v.Certificate("two", "pass", ())
        text = v.format_certificates([a, b])
        assert text.endswith("\n")
        assert "\n\nclaim two" in text

    def test_passed_property(self):
        assert v.Certificate("x", "pass", ()).passed
        assert not v.Certificate("x", "fail", ()).passed

    def test_stats_are_sorted(self):
        cert = v.run_claim("completion", samples=3)
        labels = [label for label, _ in cert.stats]
        assert labels == sorted(labels)


class TestKeys:
    """Object and morphism keys label the DetRng streams of every claim, so
    their hex strings are pinned: a changed key reseeds the samples."""

    def test_object_keys(self):
        rel = po.make_object(
            ab.make_group(3, [[0, 0, 4]]), [[1, 0, 0], [-1, 0, 0], [0, 1, 2]]
        )
        assert v._obj_key(ZN) == "9d6d18515f"
        assert v._obj_key(rel) == "239a6ab0d6"
        assert v._obj_key(po.make_object(fg.cyclic_group(4), [2])) == "b3945db88f"
        assert v._obj_key(S3A3) == "6eb4f8a126"

    def test_morphism_keys(self):
        assert v._mor_key(DOUBLE) == "4bf5717246"
        assert v._mor_key(po.make_morphism(S3A3, S3A3, (0, 1, 5, 4, 3, 2))) == "c675698c85"


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        for name in ("zker-up-finite", "zcok-up-finite", "ztrivial-finite"):
            first = v.format_certificate(v.run_claim(name))
            second = v.format_certificate(v.run_claim(name))
            assert first == second

    def test_suite_rebuild_reproduces_samples(self):
        a = v.make_suite(0, 4)
        b = v.make_suite(0, 4)
        assert a.objects == b.objects
        for (da, ca, ma), (db, cb, mb) in zip(a.morphism_samples, b.morphism_samples):
            assert (da, ca) == (db, cb)
            assert all(po.mor_eq(x, y) for x, y in zip(ma, mb))

    def test_seed_changes_some_sample(self):
        a = v.make_suite(0, 4)
        b = v.make_suite(1, 4)
        different = any(
            not po.mor_eq(x, y)
            for (_, _, ma), (_, _, mb) in zip(a.morphism_samples, b.morphism_samples)
            for x, y in zip(ma, mb)
        )
        assert different


def zker_passes(m, candidate=None):
    witnesses, _ = v._zker_witnesses(m, SUITE, candidate, probes_per_source=2)
    return not witnesses


def zcok_passes(m, candidate=None):
    witnesses, _ = v._zcok_witnesses(m, SUITE, candidate, probes_per_target=2)
    return not witnesses


class TestZKernelUP:
    def test_projection_passes(self):
        assert zker_passes(PRJ)

    def test_projection_mutants_fail(self):
        mutants = dict(v.z_kernel_mutants(PRJ))
        assert set(mutants) == {"cone-enlarged", "cone-dropped"}
        for candidate in mutants.values():
            assert not zker_passes(PRJ, candidate)

    def test_sign_passes(self):
        assert zker_passes(SGN)

    def test_sign_mutants_fail(self):
        mutants = v.z_kernel_mutants(SGN)
        assert mutants
        for _, candidate in mutants:
            assert not zker_passes(SGN, candidate)


class TestMutants:
    def test_puncture_order(self):
        # abelian generators are tried last first, finite elements smallest first
        assert v._punctured(po.make_object(Z, [[1], [-1]])).cone.to_rows() == ((1,),)
        assert v._punctured(S3A3).cone == frozenset({0, 4})


class TestZCokernelUP:
    def test_double_passes(self):
        assert zcok_passes(DOUBLE)

    def test_double_mutants_fail(self):
        mutants = dict(v.z_cokernel_mutants(DOUBLE))
        assert "generator-skipped" in mutants
        for candidate in mutants.values():
            assert not zcok_passes(DOUBLE, candidate)

    def test_inclusion_passes(self):
        assert zcok_passes(INCL)

    def test_inclusion_mutants_fail(self):
        mutants = dict(v.z_cokernel_mutants(INCL))
        assert "cone-enlarged" in mutants
        for candidate in mutants.values():
            assert not zcok_passes(INCL, candidate)


class TestSquares:
    def test_pullback_clean_and_mutant(self):
        for m in (PRJ, SGN):
            witnesses, _ = v._pullback_witnesses(m, SUITE)
            assert not witnesses
            mutant = v.pullback_mutant(m)
            assert mutant is not None
            witnesses, _ = v._pullback_witnesses(m, SUITE, mutant)
            assert witnesses

    def test_pushout_clean_and_mutant(self):
        witnesses, _ = v._pushout_witnesses(DOUBLE, SUITE)
        assert not witnesses
        mutant = v.pushout_mutant(DOUBLE)
        assert mutant is not None
        witnesses, _ = v._pushout_witnesses(DOUBLE, SUITE, mutant)
        assert witnesses


class TestCorruptedVerifiers:
    def test_pretorsion(self):
        assert v.verify_pretorsion_axioms(SUITE).passed
        assert not v.verify_pretorsion_axioms(SUITE, mislabel=("Z-even", "torsion")).passed

    def test_adjunction(self):
        assert v.verify_adjunctions(SUITE).passed
        assert not v.verify_adjunctions(SUITE, corrupt="Z-natural").passed

    def test_mon_torsion(self):
        assert v.verify_mon_torsion_theory(SUITE).passed
        assert not v.verify_mon_torsion_theory(SUITE, "Z-natural").passed

    def test_p_functor(self):
        assert v.verify_p_torsion_theory_functor(SUITE).passed
        assert not v.verify_p_torsion_theory_functor(SUITE, "Z-group-cone").passed

    def test_completion(self):
        assert v.verify_completion_theorem(SUITE).passed
        assert not v.verify_completion_theorem(SUITE, "Z-natural").passed


class TestIntegerSolvers:
    def test_grid_and_samples(self):
        cert = v.verify_integer_solvers(0, 12)
        assert cert.passed
        stats = dict(cert.stats)
        assert stats["hilbert-systems"] == 72  # 60 grid + 12 sampled
        assert stats["membership-queries"] == 75  # 63 grid + 12 sampled


class TestRegistry:
    def test_claim_names(self):
        names = v.claim_names()
        assert len(names) == 15
        assert len(set(names)) == 15

    def test_unknown_claim_rejected(self):
        with pytest.raises(ValidationError, match="unknown claim"):
            v.run_claim("nonsense")

    def test_run_claim_returns_named_certificate(self):
        cert = v.run_claim("completion", samples=3)
        assert cert.claim == "completion"
        assert cert.passed
