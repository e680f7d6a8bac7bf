"""Preordered groups: validation, classification, relative constructions."""

import pytest

from preordgrp import fgabelian as ab
from preordgrp import finitegroup as fg
from preordgrp import monpos as mp
from preordgrp import preord as po
from preordgrp.errors import ResourceLimitError, ValidationError

Z = ab.make_group(1, [])
Z2 = ab.make_group(1, [[2]])
ZZ = ab.make_group(2, [])

S3, S3_PERMS = fg.group_from_permutations([(1, 0, 2), (0, 2, 1)])
THREE_CYCLE = 3

ZN = po.make_object(Z, [[1]])  # integers with the natural order
ZC2 = po.make_object(Z, [[2]])  # cone generated by 2
HALF = po.make_object(ZZ, [[1, 0], [-1, 0], [0, 1]])
QUAD = po.make_object(ZZ, [[1, 0], [0, 1]])
S3A3 = po.make_object(S3, [THREE_CYCLE])


def cone_rows(f):
    """The certificate rows of f's cone generator images, as P computes them."""
    return mp.positive_cone_mor(f).map.matrix.to_rows()


class TestObjects:
    def test_finite_cone_must_be_conjugation_closed(self):
        with pytest.raises(ValidationError, match="conjugation"):
            po.make_object(S3, [1])  # a transposition generates a non-normal cone
        assert sorted(S3A3.cone) == [0, 3, 4]

    def test_abelian_cone_shape(self):
        with pytest.raises(ValidationError):
            po.make_object(Z, [[1, 2]])

    def test_discrete_object(self):
        d = po.discrete_object(Z)
        assert d.cone.rows == 0
        df = po.discrete_object(S3)
        assert df.cone == frozenset({0})

    def test_cone_membership(self):
        assert po.cone_contains(ZC2, (4,))
        assert po.cone_contains(ZC2, (0,))
        assert not po.cone_contains(ZC2, (3,))
        assert not po.cone_contains(ZC2, (-2,))
        assert po.cone_certificate(ZC2, (6,)) == (3,)
        assert po.cone_contains(S3A3, THREE_CYCLE)
        assert not po.cone_contains(S3A3, 1)


class TestMorphisms:
    def test_cone_condition_enforced(self):
        with pytest.raises(ValidationError, match="outside the cone"):
            po.make_morphism(ZN, ZN, [[-1]])
        f = po.make_morphism(ZN, ZN, [[3]])
        assert cone_rows(f) == ((3,),)

    def test_no_cross_universe(self):
        with pytest.raises(ValidationError, match="universe"):
            po.make_morphism(ZN, S3A3, [[1]])

    def test_budget_bounds_the_membership_search(self):
        with pytest.raises(ResourceLimitError):
            po.make_morphism(ZN, ZC2, [[6]], budget=0)
        assert cone_rows(po.make_morphism(ZN, ZC2, [[6]])) == ((3,),)

    def test_compose_composes_certificates(self):
        f = po.make_morphism(ZN, ZC2, [[2]])
        g = po.make_morphism(ZC2, ZN, [[1]])
        h = po.compose_preord(f, g)
        assert h.map.matrix.to_rows() == ((2,),)
        assert cone_rows(h) == ((2,),)
        composite = po.compose_preord(mp.positive_cone_mor(f), mp.positive_cone_mor(g))
        assert po.mor_eq(mp.positive_cone_mor(h), composite)
        assert po.mor_eq(h, po.make_morphism(ZN, ZN, [[2]]))

    def test_identity_and_zero(self):
        assert po.mor_eq(
            po.compose_preord(po.identity_preord(ZN), po.identity_preord(ZN)),
            po.identity_preord(ZN),
        )
        z = po.zero_preord(HALF, ZN)
        assert po.is_z_trivial(z)


class TestClassification:
    def test_epi_but_not_regular_epi(self):
        z2full = po.make_object(Z2, [[1]])
        f = po.make_morphism(ZC2, z2full, [[1]])
        c = po.classify_morphism(f)
        assert c == po.MorphismClass(mono=False, epi=True, regular_epi=False)

    def test_identity_is_iso(self):
        assert po.is_isomorphism(po.identity_preord(HALF))
        assert po.is_isomorphism(po.identity_preord(S3A3))

    def test_cone_flip_is_not_iso(self):
        flip = po.make_morphism(po.make_object(Z, [[-1]]), ZN, [[-1]])
        assert po.is_isomorphism(flip)
        skew = po.make_morphism(ZC2, ZN, [[1]])
        c = po.classify_morphism(skew)
        assert c.mono and c.epi and not c.regular_epi

    def test_object_classes(self):
        assert po.classify_object(HALF) == po.ObjectClass(False, False)
        assert po.classify_object(ZN) == po.ObjectClass(False, True)
        assert po.classify_object(po.make_object(Z, [[1], [-1]])) == po.ObjectClass(
            True, False
        )
        assert po.classify_object(po.discrete_object(Z)) == po.ObjectClass(True, True)
        full2 = po.make_object(Z2, [[1]])
        assert po.classify_object(full2) == po.ObjectClass(True, False)
        # finite objects are always torsion: closed cones are subgroups
        assert po.classify_object(S3A3) == po.ObjectClass(True, False)
        assert po.classify_object(po.discrete_object(S3)) == po.ObjectClass(True, True)


class TestKernelCokernel:
    def test_kernel_of_projection(self):
        prj = po.make_morphism(QUAD, ZN, [[1], [0]])
        kobj, kmor = po.kernel(prj)
        assert kobj.group.rank == 1
        assert kobj.cone.to_rows() == ((1,),)
        assert po.is_z_trivial(po.compose_preord(kmor, prj))

    def test_cokernel_of_times_two(self):
        t2 = po.make_morphism(ZN, ZN, [[2]])
        qobj, qmor = po.cokernel(t2)
        assert qobj.group == Z2
        assert qobj.cone.to_rows() == ((1,),)

    def test_finite_kernel_of_sign(self):
        z2full = po.make_object(fg.cyclic_group(2), [1])
        sgn = po.make_morphism(S3A3, z2full, (0, 1, 1, 0, 0, 1))
        kobj, kmor = po.kernel(sgn)
        assert kobj.group == fg.cyclic_group(3)
        assert kobj.cone == frozenset({0, 1, 2})
        qobj, qmor = po.cokernel(sgn)
        assert qobj.group.order == 1


class TestZConstructions:
    def test_z_trivial(self):
        f = po.make_morphism(ZC2, po.make_object(Z2, [[1]]), [[1]])
        assert po.is_z_trivial(f)
        assert not po.is_z_trivial(po.make_morphism(ZN, ZN, [[2]]))

    def test_z_kernel_of_projection(self):
        prj = po.make_morphism(QUAD, ZN, [[1], [0]])
        zobj, k = po.z_kernel(prj)
        assert zobj.group == ZZ
        assert zobj.cone.to_rows() == ((0, 1),)
        assert cone_rows(k) == ((0, 1),)
        assert po.is_z_trivial(po.compose_preord(k, prj))

    def test_z_kernel_finite(self):
        z2full = po.make_object(fg.cyclic_group(2), [1])
        sgn = po.make_morphism(S3A3, z2full, (0, 1, 1, 0, 0, 1))
        zobj, k = po.z_kernel(sgn)
        assert zobj.group == S3
        assert zobj.cone == frozenset({0, 3, 4})

    def test_z_cokernel_of_a3_inclusion(self):
        suba3, incl3 = fg.subgroup_from_set(S3, fg.submonoid_closure(S3, [THREE_CYCLE]))
        a3full = po.make_object(suba3, range(suba3.order))
        inc = po.make_morphism(a3full, S3A3, incl3)
        qobj, q = po.z_cokernel(inc)
        assert qobj.group == fg.cyclic_group(2)
        assert qobj.cone == frozenset({0})
        assert po.is_z_trivial(po.compose_preord(inc, q))

    def test_z_cokernel_abelian(self):
        t2 = po.make_morphism(ZN, ZN, [[2]])
        qobj, q = po.z_cokernel(t2)
        assert qobj.group == Z2
        assert qobj.cone.to_rows() == ((1,),)
        assert po.is_z_trivial(po.compose_preord(t2, q))


class TestCanonicalSequence:
    def test_half_plane(self):
        seq = po.canonical_sequence(HALF)
        assert seq.torsion.cone.to_rows() == ((1, 0), (-1, 0))
        assert seq.torsion_free.group.relations.to_rows() == ((1, 0),)
        assert po.classify_object(seq.torsion).torsion
        assert po.classify_object(seq.torsion_free).torsion_free
        assert po.is_z_trivial(po.compose_preord(seq.kappa, seq.eta))

    def test_finite(self):
        seq = po.canonical_sequence(S3A3)
        # the cone is a subgroup, so the torsion part is everything
        assert seq.torsion.cone == S3A3.cone
        assert seq.torsion_free.group == fg.cyclic_group(2)
        assert seq.torsion_free.cone == frozenset({0})

    def test_units(self):
        assert po.torsion_part(S3A3)[0].cone == frozenset({0, 3, 4})
        disc = po.discrete_object(S3)
        assert po.torsion_part(disc)[0].cone == frozenset({0})


class TestFunctors:
    def test_functor_c_collapses_cone(self):
        cobj, pi = po.functor_C(ZC2)
        assert cobj.group == Z2
        assert cobj.cone.rows == 0
        c = po.classify_morphism(pi)
        assert c.epi and c.regular_epi

    def test_functor_c_finite(self):
        cobj, pi = po.functor_C(S3A3)
        assert cobj.group == fg.cyclic_group(2)

    def test_counit_is_mono(self):
        iota = po.counit_iota(HALF)
        assert po.classify_morphism(iota).mono
        assert po.is_z_trivial(iota) or HALF.cone.rows == 0

    def test_functors_on_morphisms_are_natural(self):
        t2 = po.make_morphism(ZN, ZN, [[2]])
        left = po.compose_preord(po.functor_D_mor(t2), po.counit_iota(ZN))
        right = po.compose_preord(po.counit_iota(ZN), t2)
        assert po.mor_eq(left, right)
        cf = po.functor_C_mor(t2)
        _, pi = po.functor_C(ZN)
        assert po.mor_eq(po.compose_preord(t2, pi), po.compose_preord(pi, cf))

    def test_functor_c_mor_finite(self):
        z2full = po.make_object(fg.cyclic_group(2), [1])
        sgn = po.make_morphism(S3A3, z2full, (0, 1, 1, 0, 0, 1))
        cf = po.functor_C_mor(sgn)
        _, pid = po.functor_C(S3A3)
        _, pic = po.functor_C(z2full)
        assert po.mor_eq(po.compose_preord(sgn, pic), po.compose_preord(pid, cf))


class TestBackends:
    def test_factor_epi_rejects_maps_that_do_not_factor(self):
        c2 = fg.cyclic_group(2)
        v4 = fg.product_group(c2, c2)
        proj_left = fg.make_fin_morphism(v4, c2, (0, 0, 1, 1))
        proj_right = fg.make_fin_morphism(v4, c2, (0, 1, 0, 1))
        fin = po.discrete_object(v4).backend
        assert fin.factor_epi(proj_right, proj_left) is None
        assert fin.map_eq(fin.factor_epi(proj_left, proj_left), fin.identity(c2))
        first = ab.make_morphism(ZZ, Z, [[1], [0]])
        second = ab.make_morphism(ZZ, Z, [[0], [1]])
        assert ZN.backend.factor_epi(second, first) is None


class TestPullbackPushout:
    def test_pullback_of_projection(self):
        prj = po.make_morphism(QUAD, ZN, [[1], [0]])
        sq = po.pullback_with_counit(prj)
        assert sq.obj.group.rank == 2
        assert sq.obj.cone.to_rows() == ((0, 1),)
        assert po.is_isomorphism(sq.comparison)
        left = po.compose_preord(sq.to_dom, prj)
        right = po.compose_preord(sq.to_discrete, po.counit_iota(ZN))
        assert po.mor_eq(left, right)
        zobj, k = po.z_kernel(prj)
        assert po.mor_eq(po.compose_preord(sq.comparison, sq.to_dom), k)

    def test_pullback_finite(self):
        z2full = po.make_object(fg.cyclic_group(2), [1])
        sgn = po.make_morphism(S3A3, z2full, (0, 1, 1, 0, 0, 1))
        sq = po.pullback_with_counit(sgn)
        assert sq.obj.cone == frozenset({0, 3, 4})
        assert po.is_isomorphism(sq.comparison)
        left = po.compose_preord(sq.to_dom, sgn)
        right = po.compose_preord(sq.to_discrete, po.counit_iota(z2full))
        assert po.mor_eq(left, right)

    def test_pushout_of_times_two(self):
        t2 = po.make_morphism(ZN, ZN, [[2]])
        sq = po.pushout_with_unit(t2)
        assert sq.obj.group.relations.to_rows() == ((2, 0), (0, 1))
        assert sq.obj.cone.to_rows() == ((1, 0),)
        assert po.is_isomorphism(sq.comparison)
        _, pi = po.functor_C(ZN)
        left = po.compose_preord(t2, sq.from_cod)
        right = po.compose_preord(pi, sq.from_stable)
        assert po.mor_eq(left, right)

    def test_pushout_requires_abelian(self):
        z2full = po.make_object(fg.cyclic_group(2), [1])
        sgn = po.make_morphism(S3A3, z2full, (0, 1, 1, 0, 0, 1))
        with pytest.raises(ValidationError, match="abelian"):
            po.pushout_with_unit(sgn)
