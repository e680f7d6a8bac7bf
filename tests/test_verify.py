"""Certificates: format, determinism, and mutation sensitivity."""

import dataclasses
import re

import pytest

from preordgrp import fgabelian as ab
from preordgrp import finitegroup as fg
from preordgrp import monpos as mp
from preordgrp import preord as po
from preordgrp import probes as pr
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

# the ordered probe pairs the suite's pair samples are drawn for
PROBE_PAIRS = [
    (a, b) for universe in (po.ABELIAN, po.FINITE)
    for a in pr.probes_for(universe) for b in pr.probes_for(universe)
]

# the claim rows with a mutant source, and the undetected-mutant report of
# each suite claim's one mutant
MUTANT_ROWS = [spec for spec in v.CLAIMS if spec.mutants is not None]
SUITE_MUTANTS = {
    "pretorsion": "mislabelled torsion probe",
    "adjunction": "forgotten collapse generator",
    "mon-torsion": "inflated unit monoid",
    "p-functor": "punctured unit monoid",
    "completion": "collapsed comparison",
}


def suite_replacement(claim):
    """The keywords of a suite claim's one mutant, built for SUITE."""
    spec = next(spec for spec in v.CLAIMS if spec.name == claim)
    [(_, replacement)] = spec.mutants(SUITE)
    return replacement


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
        # the cached draws against fresh ones from the same streams
        for a, b in PROBE_PAIRS:
            cached = v._pair_samples(0, a, b, 4)
            redrawn = v._pair_samples.__wrapped__(0, a, b, 4)
            assert len(cached) == len(redrawn) == 4
            assert all(po.mor_eq(x, y) for x, y in zip(cached, redrawn))

    def test_seed_changes_some_sample(self):
        different = any(
            not po.mor_eq(x, y)
            for a, b in PROBE_PAIRS
            for x, y in zip(v._pair_samples(0, a, b, 4), v._pair_samples(1, a, b, 4))
        )
        assert different

    def test_first_sample_does_not_depend_on_count(self):
        # adjunction reads one sample per pair, pretorsion all of them
        natural = pr.probes_for(po.ABELIAN)[1]
        for b in pr.probes_for(po.ABELIAN):
            one = v._pair_samples(0, natural, b, 1)
            assert len(one) == 1
            assert po.mor_eq(one[0], v._pair_samples(0, natural, b, 50)[0])


class TestPairSamplesOnDemand:
    """A suite draws nothing; verifiers draw the pair samples they read."""

    SEED = 4242  # no other test uses it, so no pair sample is cached yet

    def suite_draws(self, monkeypatch):
        keys = []
        draw = pr.random_morphism

        def counted(rng, dom, cod):
            if rng.key.startswith(f"seed:{self.SEED}/suite/"):
                keys.append(rng.key.split("/suite/")[1])
            return draw(rng, dom, cod)

        monkeypatch.setattr(pr, "random_morphism", counted)
        return keys

    def test_suite_draws_nothing(self, monkeypatch):
        keys = self.suite_draws(monkeypatch)
        v.default_suite(self.SEED)
        assert keys == []

    def test_pretorsion_draws_torsion_to_free_pairs_only(self, monkeypatch):
        keys = self.suite_draws(monkeypatch)
        suite = v.default_suite(self.SEED, 3)
        assert v.verify_pretorsion_axioms(suite)[0] == []
        expected = [
            f"{a.name}->{b.name}/{j}"
            for a, b in PROBE_PAIRS
            if po.classify_object(a.obj).torsion and po.classify_object(b.obj).torsion_free
            for j in range(3)
        ]
        assert expected and sorted(keys) == sorted(expected)
        keys.clear()
        v.verify_pretorsion_axioms(suite)
        assert keys == []  # the second run reads the cached samples

    def test_adjunction_draws_one_sample_per_pair(self, monkeypatch):
        keys = self.suite_draws(monkeypatch)
        assert v.verify_adjunctions(v.default_suite(self.SEED))[0] == []
        assert sorted(keys) == sorted(f"{a.name}->{b.name}/0" for a, b in PROBE_PAIRS)


def zker_passes(m, candidate=None):
    witnesses, _ = v._zker_witnesses(m, SUITE, candidate)
    return not witnesses


def zcok_passes(m, candidate=None):
    witnesses, _ = v._zcok_witnesses(m, SUITE, candidate)
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

    def test_rows_without_mutants(self):
        assert [spec.name for spec in v.CLAIMS if spec.mutants is None] == [
            "ztrivial-abelian", "ztrivial-finite", "intsolve",
        ]

    def test_cases_without_mutants_fail_a_row_with_a_source(self):
        # none of the first four abelian morphisms has a cokernel mutant
        spec = next(spec for spec in v.CLAIMS if spec.name == "zcok-up-abelian")
        cert = v._run(spec, 0, 4)
        assert cert.witnesses == ("no applicable mutations were generated",)
        assert dict(cert.stats)["morphisms"] == 4 and "mutations" not in dict(cert.stats)

    @pytest.mark.parametrize("spec", MUTANT_ROWS, ids=lambda spec: spec.name)
    def test_undetected_mutants_fail_the_sweep(self, spec):
        # a check that never objects lets every mutant through
        blind = dataclasses.replace(spec, check=lambda *case, **replacement: ([], {}))
        cert = v._run(blind, 0, spec.samples)
        assert cert.claim == spec.name
        assert not cert.passed
        assert len(cert.witnesses) == dict(cert.stats)["mutations"] > 0
        if spec.name in SUITE_MUTANTS:
            assert cert.witnesses == (f"{SUITE_MUTANTS[spec.name]} went undetected",)
            return
        kinds = "cone-enlarged|cone-dropped|generator-skipped"
        pattern = rf"[0-9a-f]{{10}}: mutation ({kinds}) went undetected"
        assert all(re.fullmatch(pattern, w) for w in cert.witnesses)


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
            mutant = dict(v.pullback_mutants(m))["cone-dropped"]
            witnesses, _ = v._pullback_witnesses(m, SUITE, mutant)
            assert witnesses

    def test_pushout_clean_and_mutant(self):
        witnesses, _ = v._pushout_witnesses(DOUBLE, SUITE)
        assert not witnesses
        mutant = dict(v.pushout_mutants(DOUBLE))["cone-dropped"]
        witnesses, _ = v._pushout_witnesses(DOUBLE, SUITE, mutant)
        assert witnesses


class TestUndecided:
    """A factorization the membership budget cannot settle is counted as
    undecided, in targeted and drawn cones alike, and is never a witness."""

    @pytest.mark.parametrize("check, stats", [
        (v._zker_witnesses,
         {"factored": 6, "morphisms": 1, "sampled": 8, "targeted": 1, "undecided": 1}),
        # one targeted and one drawn cone
        (v._pullback_witnesses, {"morphisms": 1, "sampled": 8, "targeted": 1, "undecided": 2}),
    ], ids=["zker", "pullback"])
    def test_zero_budget_counts_cones_undecided(self, monkeypatch, check, stats):
        witnesses, settled = check(PRJ, SUITE)
        assert witnesses == [] and "undecided" not in settled
        monkeypatch.setattr(v, "_FACTOR_STATE_CAP", 0)
        assert check(PRJ, SUITE) == ([], stats)

    def test_zero_budget_leaves_pretorsion_kernel_lifts_undecided(self, monkeypatch):
        # kappa's lifts go through the same loop, so the same count applies
        witnesses, settled = v.verify_pretorsion_axioms(SUITE)
        assert witnesses == [] and "zker-undecided" not in settled
        monkeypatch.setattr(v, "_FACTOR_STATE_CAP", 0)
        witnesses, stats = v.verify_pretorsion_axioms(SUITE)
        assert witnesses == [] and stats["zker-undecided"] > 0


# Replacements for po.touched_unit_generators calling every cone generator
# a unit, or none.
WRONG_UNITS = [lambda obj: tuple(range(obj.cone.rows)), lambda obj: ()]


def caught_on(witnesses, probe):
    """Some witness, and every witness names the probe."""
    return bool(witnesses) and all(probe in w for w in witnesses)


class TestCorruptedVerifiers:
    """Each suite claim's replacement construction is caught, and only on
    the probe it is wrong on."""

    def test_pretorsion(self):
        assert v.verify_pretorsion_axioms(SUITE)[0] == []
        witnesses, _ = v.verify_pretorsion_axioms(SUITE, **suite_replacement("pretorsion"))
        assert caught_on(witnesses, "Z-even")

    def test_adjunction(self):
        assert v.verify_adjunctions(SUITE)[0] == []
        witnesses, _ = v.verify_adjunctions(SUITE, **suite_replacement("adjunction"))
        assert caught_on(witnesses, "Z-natural")

    def test_mon_torsion(self):
        assert v.verify_mon_torsion_theory(SUITE)[0] == []
        witnesses, _ = v.verify_mon_torsion_theory(SUITE, **suite_replacement("mon-torsion"))
        assert caught_on(witnesses, "Z-natural")

    def test_p_functor(self):
        assert v.verify_p_torsion_theory_functor(SUITE)[0] == []
        replacement = suite_replacement("p-functor")
        witnesses, _ = v.verify_p_torsion_theory_functor(SUITE, **replacement)
        assert caught_on(witnesses, "Z-group-cone")

    @pytest.mark.parametrize("touched", WRONG_UNITS, ids=["all", "none"])
    def test_p_functor_catches_wrong_unit_generators(self, monkeypatch, touched):
        # every cone generator called a unit, or none: the units are wrong
        monkeypatch.setattr(po, "touched_unit_generators", touched)
        witnesses, _ = v.verify_p_torsion_theory_functor(v.default_suite(0))
        assert witnesses

    def test_pretorsion_catches_a_kernel_leg_short_of_a_generator(self, monkeypatch):
        # kappa without one torsion cone generator, on ZZ-halfplane alone, is
        # no longer the Z-kernel of eta: a cone element eta kills does not lift
        sequence = po.canonical_sequence
        halfplane = next(p.obj for p in pr.probes_for(po.ABELIAN) if p.name == "ZZ-halfplane")

        def short(obj):
            seq = sequence(obj)
            if obj != halfplane:
                return seq
            smaller = v._punctured(seq.torsion)
            kappa = po.PreOrdMor(smaller, obj, seq.kappa.map)
            return dataclasses.replace(seq, torsion=smaller, kappa=kappa)

        monkeypatch.setattr(po, "canonical_sequence", short)
        witnesses, _ = v.verify_pretorsion_axioms(SUITE)
        assert caught_on(witnesses, "ZZ-halfplane")
        assert any(w.endswith(": cone element (-1, 0) does not factor") for w in witnesses)

    @pytest.mark.parametrize("touched", WRONG_UNITS, ids=["all", "none"])
    @pytest.mark.parametrize(
        "verifier",
        [v.verify_pretorsion_axioms, v.verify_mon_torsion_theory],
        ids=["pretorsion", "mon-torsion"],
    )
    def test_torsion_claims_catch_wrong_unit_generators(self, monkeypatch, verifier, touched):
        monkeypatch.setattr(po, "touched_unit_generators", touched)
        witnesses, _ = verifier(v.default_suite(0))
        assert witnesses

    def test_completion(self):
        assert v.verify_completion_theorem(SUITE)[0] == []
        witnesses, _ = v.verify_completion_theorem(SUITE, **suite_replacement("completion"))
        assert caught_on(witnesses, "Z-natural")

    @pytest.mark.parametrize("cone", [{0, 1}, {0, 1, 2}, {0, 2, 3}], ids=["0-1", "0-1-2", "0-2-3"])
    def test_completion_fails_on_a_cone_without_inverses(self, monkeypatch, cone):
        # these subsets of C4 are not closed: the claim must fail, not raise
        unclosed = pr.Probe("C4-unclosed", po.PreOrdObj(fg.cyclic_group(4), frozenset(cone)))
        probes = {po.ABELIAN: (), po.FINITE: (unclosed,)}
        monkeypatch.setattr(pr, "probes_for", probes.__getitem__)
        witnesses, stats = v.verify_completion_theorem(SUITE)
        assert witnesses == ["C4-unclosed: cone fails the common-multiple condition"]
        assert stats == {"monoids": 1}


class TestSpecialSes:
    """(H, P) -> (G, P) ->> (G/H, 0): P inverts the inclusion and kills the
    projection."""

    def test_even_cone_inside_even_subgroup(self):
        zc2 = po.make_object(Z, [[2]])
        incl, quot, proj = v._special_ses(zc2, [[2]])
        assert incl.dom.group == ab.make_group(1, [])
        assert incl.dom.cone.to_rows() == ((1,),)
        assert quot.group == ab.make_group(1, [[2]])
        assert po.is_isomorphism(mp.positive_cone_mor(incl))
        assert po.is_z_trivial(mp.positive_cone_mor(proj))
        assert po.is_z_trivial(po.identity_preord(mp.positive_cone(quot)))

    def test_subgroup_must_contain_cone(self):
        with pytest.raises(ValidationError, match="contain"):
            v._special_ses(po.make_object(Z, [[1]]), [[2]])
        with pytest.raises(ValidationError, match="contain"):
            v._special_ses(po.make_object(S3, [3]), [])

    def test_finite(self):
        incl, quot, proj = v._special_ses(S3A3, [3])
        assert incl.dom.group.order == 3
        assert quot.group.order == 2
        assert po.is_isomorphism(mp.positive_cone_mor(incl))
        assert po.is_z_trivial(mp.positive_cone_mor(proj))


class TestIntegerSolvers:
    def test_grid_and_samples(self):
        witnesses, stats = v.verify_integer_solvers(0, 12)
        assert witnesses == []
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
