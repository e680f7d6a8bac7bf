"""The cone functor P and the group completion Σ: completions, units,
torsion sequence."""

import pytest

from preordgrp import fgabelian as ab
from preordgrp import finitegroup as fg
from preordgrp import monpos as mp
from preordgrp import preord as po
from preordgrp import probes as pr
from preordgrp import verify as v
from preordgrp.errors import ValidationError
from preordgrp.rng import DetRng

Z = ab.make_group(1, [])
ZZ = ab.make_group(2, [])
S3, _ = fg.group_from_permutations([(1, 0, 2), (0, 2, 1)])

def monoid(group, gens):
    return mp.positive_cone(po.make_object(group, gens))


def mon_morphism(dom, cod, rows):
    """A monoid morphism: a preord morphism between completion objects."""
    return po.make_morphism(mp.completion_object(dom), mp.completion_object(cod), rows)


def contains(m, x):
    return po.cone_contains(m, x)


def is_group_monoid(m):
    return po.classify_object(m).torsion


def is_reduced(m):
    return po.classify_object(m).torsion_free


def lift_to_units(h, ses):
    """Lift h: T -> M through the unit inclusion, or None."""
    return v._factor_through_mono(h, mp.completion_object(ses.torsion), ses.kappa)


def descend_to_reduced(h, ses):
    """Descend h: M -> T through the reduced quotient, or None."""
    return v._factor_through_epi(h, mp.completion_object(ses.torsion_free), ses.eta)


NAT = monoid(Z, [[1]])
EVEN = monoid(Z, [[2]])
FULL = monoid(Z, [[1], [-1]])
M235 = monoid(Z, [[2], [3], [-5]])
HALF = monoid(ZZ, [[1, 0], [-1, 0], [0, 1]])
A3M = monoid(S3, [3])


def brute_unit_sweep(m, bound):
    return [x for x in range(-bound, bound + 1) if contains(m, (x,))]


class TestCompletion:
    def test_even_monoid_completes_to_z(self):
        g, embed = mp.group_completion(EVEN)
        assert g == ab.make_group(1, [])
        assert embed.matrix.to_rows() == ((2,),)

    def test_group_cone_completion_has_relation(self):
        g, _ = mp.group_completion(FULL)
        # two generators, one identification
        assert g.rank == 2
        assert g.relations.to_rows() == ((1, 1),)

    def test_finite_completion(self):
        g, incl = mp.group_completion(A3M)
        assert g == fg.cyclic_group(3)
        assert incl.mapping == (0, 3, 4)

    def test_membership(self):
        assert contains(EVEN, (4,))
        assert not contains(EVEN, (3,))
        assert po.cone_certificate(M235, (1,)) is not None
        assert contains(A3M, 4) and not contains(A3M, 1)

    def test_completion_cone_certifies_nonnegative_elements_without_search(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("membership search ran")

        monkeypatch.setattr(po, "nonneg_search", no_search)
        completion = mp.completion_object(FULL)  # basis cone, relation (1, 1)
        assert po.cone_certificate(completion, (5, 3)) == (5, 3)
        assert po.cone_certificate(completion, [0, 7]) == (0, 7)


class TestTorsionTheory:
    def test_group_monoid_despite_mixed_signs(self):
        # -2 = 3 - 5 and -3 = 2 - 5, so every generator is invertible
        assert is_group_monoid(M235)
        assert not is_reduced(M235)
        assert brute_unit_sweep(M235, 6) == list(range(-6, 7))

    def test_natural_order_is_reduced(self):
        assert is_reduced(NAT)
        assert not is_group_monoid(NAT)
        u, _ = mp.units(NAT)
        assert u.cone.rows == 0

    def test_units_of_half_plane(self):
        u, kappa = mp.units(HALF)
        assert u.cone.to_rows() == ((1, 0), (-1, 0))
        assert is_group_monoid(u)

    def test_reduced_quotient_of_half_plane(self):
        red, eta = mp.quotient_by_units(HALF)
        assert red.group.relations.to_rows() == ((1, 0),)
        assert is_reduced(red)

    def test_ses_composite_vanishes(self):
        for m in (NAT, M235, HALF, A3M):
            ses = mp.torsion_ses(m)
            assert is_group_monoid(ses.torsion)
            assert is_reduced(ses.torsion_free)
            assert po.is_z_trivial(po.compose_preord(ses.kappa, ses.eta))

    def test_finite_monoids_are_groups(self):
        assert is_group_monoid(A3M)
        u, kappa = mp.units(A3M)
        assert u == A3M
        red, _ = mp.quotient_by_units(A3M)
        assert po.is_z_trivial(po.identity_preord(red))


class TestFactorizations:
    def test_kernel_factorization(self):
        ses = mp.torsion_ses(M235)
        T = monoid(Z, [[1], [-1]])
        h = mon_morphism(T, M235, [[1, 1, 1], [4, 4, 4]])
        fac = lift_to_units(h, ses)
        assert fac is not None
        assert po.mor_eq(po.compose_preord(fac, ses.kappa), h)

    def test_kernel_factorization_fails_outside_units(self):
        ses = mp.torsion_ses(NAT)
        h = mon_morphism(NAT, NAT, [[1]])
        assert lift_to_units(h, ses) is None

    def test_cokernel_factorization(self):
        ses = mp.torsion_ses(M235)
        h = po.zero_preord(mp.completion_object(M235), mp.completion_object(NAT))
        fac = descend_to_reduced(h, ses)
        assert fac is not None
        assert po.mor_eq(po.compose_preord(ses.eta, fac), h)

    def test_cokernel_factorization_fails_when_units_survive(self):
        ses = mp.torsion_ses(M235)
        h = mon_morphism(M235, M235, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert descend_to_reduced(h, ses) is None

    def test_group_to_reduced_must_be_zero(self):
        with pytest.raises(ValidationError):
            mon_morphism(FULL, NAT, [[1], [1]])
        h = mon_morphism(FULL, NAT, [[0], [0]])
        assert po.is_z_trivial(h)


class TestMonoidMorphisms:
    def test_negative_row_inside_the_monoid_is_accepted(self):
        # -1 is FULL's second generator, so the search certifies the row
        h = mon_morphism(NAT, FULL, [[-1, 0]])
        assert po.cone_certificate(h.cod, (-1, 0)) == (0, 1)
        assert mp.positive_cone_mor(h).map.matrix.to_rows() == ((0, 1),)

    def test_negative_row_outside_the_monoid_is_rejected(self):
        with pytest.raises(ValidationError, match="outside"):
            mon_morphism(NAT, NAT, [[-1]])

    def test_cone_functor_rejects_a_map_leaving_the_cone(self):
        # built without make_morphism, so only P's own certificate search
        # can notice that the generator 1 goes to -1
        flip = po.PreOrdMor(NAT, NAT, ab.make_morphism(Z, Z, [[-1]]))
        with pytest.raises(ValidationError, match="outside the cone"):
            mp.positive_cone_mor(flip)

    @pytest.mark.parametrize("universe", [po.ABELIAN, po.FINITE])
    def test_morphisms_run_between_completion_objects(self, universe):
        entries = [(probe.name, probe.obj) for probe in pr.probes_for(universe)]
        root = DetRng.from_seed(0).child("completion-ends")
        for name, m in entries:
            ses = mp.torsion_ses(m)
            identity = po.identity_preord(m)
            arrows = [
                (ses.kappa, ses.torsion, m),
                (ses.eta, m, ses.torsion_free),
                (mp.positive_cone_mor(identity), m, m),
            ]
            for tname, t in entries:
                arrows.append((pr.random_mon_morphism(root.child(f"{name}->{tname}"), m, t), m, t))
            for f, dom, cod in arrows:
                assert f.dom == mp.completion_object(dom), name
                assert f.cod == mp.completion_object(cod), name


class TestConeFunctor:
    def test_on_morphisms_uses_certificates(self):
        f = po.make_morphism(po.make_object(Z, [[1]]), po.make_object(Z, [[2]]), [[4]])
        h = mp.positive_cone_mor(f)
        assert h.map.matrix.to_rows() == ((2,),)

    def test_functorial(self):
        zn = po.make_object(Z, [[1]])
        zc2 = po.make_object(Z, [[2]])
        f1 = po.make_morphism(zn, zc2, [[2]])
        f2 = po.make_morphism(zc2, zn, [[1]])
        lhs = mp.positive_cone_mor(po.compose_preord(f1, f2))
        rhs = po.compose_preord(mp.positive_cone_mor(f1), mp.positive_cone_mor(f2))
        assert po.mor_eq(lhs, rhs)

    def test_finite_on_morphisms(self):
        s3a3 = po.make_object(S3, [3])
        z2full = po.make_object(fg.cyclic_group(2), [1])
        sgn = po.make_morphism(s3a3, z2full, (0, 1, 1, 0, 0, 1))
        h = mp.positive_cone_mor(sgn)
        assert po.is_z_trivial(h)  # A3 lands in the kernel of the sign


class TestComparisonAndConsistency:
    def test_comparison_is_mono(self):
        for m in (NAT, EVEN, M235, HALF, A3M):
            cmp_mor = mp.comparison_morphism(m)
            assert po.classify_morphism(cmp_mor).mono

    def test_comparison_cokernel_kills_cone(self):
        cmp_mor = mp.comparison_morphism(EVEN)
        q, proj = po.cokernel(cmp_mor)
        assert po.is_z_trivial(po.compose_preord(cmp_mor, proj))
        assert q.group == ab.make_group(1, [[2]])

    def test_fhat_is_isomorphism(self):
        for m in (NAT, EVEN, M235, HALF, A3M):
            assert po.is_isomorphism(mp.fhat_consistency(m))
