"""Presented abelian groups: constructions and their universal properties."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_reference import solve_integer
from preordgrp import fgabelian as ab
from preordgrp.errors import ResourceLimitError, ValidationError
from preordgrp.intmat import IntMatrix, hnf_reduced, row_times_matrix

Z = ab.make_group(1, [])
Z2 = ab.make_group(1, [[2]])
Z4 = ab.make_group(1, [[4]])
ZZ = ab.make_group(2, [])


def rand_group(rng):
    r = rng.randint(0, 3)
    nrel = rng.randint(0, 2)
    return ab.make_group(
        r, [[rng.randint(-4, 4) for _ in range(r)] for _ in range(nrel)]
    )


def rand_mor(rng, dom, cod, tries=40):
    for _ in range(tries):
        rows = [[rng.randint(-4, 4) for _ in range(cod.rank)] for _ in range(dom.rank)]
        try:
            return ab.make_morphism(dom, cod, rows)
        except ValidationError:
            continue
    return ab.zero_morphism(dom, cod)


def torsion_rows(rng, rank):
    """k * e_i for one i and k in 2..6, then at most one random row."""
    i, k = rng.randrange(rank), rng.randint(2, 6)
    extra = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(rng.randint(0, 1))]
    return [[k if j == i else 0 for j in range(rank)], *extra]


class TestGroupsAndElements:
    def test_element_eq_mod_torsion(self):
        assert ab.element_eq(Z2, (1,), (3,))
        assert not ab.element_eq(Z2, (1,), (2,))
        assert ab.element_eq(Z, (5,), (5,))
        assert not ab.element_eq(Z, (5,), (4,))

    def test_make_group_rejects_bad_shapes(self):
        with pytest.raises(ValidationError):
            ab.make_group(-1, [])
        with pytest.raises(ValidationError):
            ab.make_group(2, [[1]])

    def test_rank_cap(self):
        assert ab.make_group(ab.RANK_CAP, []).rank == ab.RANK_CAP
        with pytest.raises(ResourceLimitError, match="rank 65 exceeds cap 64"):
            ab.make_group(ab.RANK_CAP + 1, [])

    def test_is_trivial(self):
        assert ab.is_trivial(ab.make_group(0, []))
        assert ab.is_trivial(ab.make_group(1, [[1]]))
        assert not ab.is_trivial(Z2)


class TestMorphisms:
    def test_validation_requires_relations_to_map(self):
        with pytest.raises(ValidationError):
            ab.make_morphism(Z2, Z, [[1]])
        f = ab.make_morphism(Z2, Z4, [[2]])
        assert ab.apply(f, (1,)) == (2,)

    def test_compose_is_matrix_product(self):
        f = ab.make_morphism(Z, Z, [[2]])
        g = ab.make_morphism(Z, Z, [[3]])
        assert ab.compose(f, g).matrix.to_rows() == ((6,),)

    def test_morphism_eq_is_congruence(self):
        f = ab.make_morphism(Z, Z2, [[1]])
        g = ab.make_morphism(Z, Z2, [[3]])
        assert ab.morphism_eq(f, g)
        assert not ab.morphism_eq(f, ab.make_morphism(Z, Z2, [[2]]))


class TestKernelCokernel:
    def test_kernel_of_injection_is_zero(self):
        f = ab.make_morphism(Z, Z, [[2]])
        K, incl = ab.kernel(f)
        assert K.rank == 0
        assert ab.is_injective(f)

    def test_non_injective_maps(self):
        assert not ab.is_injective(ab.make_morphism(Z, Z2, [[1]]))
        assert not ab.is_injective(ab.make_morphism(ZZ, Z, [[1], [0]]))
        assert not ab.is_injective(ab.make_morphism(Z4, Z2, [[1]]))

    def test_injective_exactly_when_the_kernel_is_trivial(self):
        # torsion on both sides: the codomain holds the images of the
        # domain's relations and a torsion relation of its own
        rng = random.Random(3407)
        outcomes = []
        for _ in range(300):
            rank, cod_rank = rng.randint(1, 3), rng.randint(1, 3)
            dom = ab.make_group(rank, torsion_rows(rng, rank))
            m = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(cod_rank)] for _ in range(rank)])
            images = [row_times_matrix(r, m) for r in dom.relations.to_rows()]
            cod = ab.make_group(cod_rank, images + torsion_rows(rng, cod_rank))
            f = ab.make_morphism(dom, cod, m)
            outcomes.append(ab.is_injective(f))
            assert outcomes[-1] == (ab.kernel(f)[0].rank == 0), f
        assert outcomes.count(False) > 100 and outcomes.count(True) > 30, outcomes.count(False)

    def test_kernel_of_quotient_is_even_integers(self):
        qm = ab.make_morphism(Z, Z2, [[1]])
        K, incl = ab.kernel(qm)
        assert K.rank == 1 and K.relations.rows == 0
        img = incl.matrix.row(0)
        assert img in {(2,), (-2,)}

    def test_cokernel_of_times_two(self):
        f = ab.make_morphism(Z, Z, [[2]])
        Q, proj = ab.cokernel(f)
        assert Q == Z2
        assert ab.is_surjective(proj)

    def test_cokernel_of_zero_is_identity_target(self):
        f = ab.zero_morphism(Z, Z)
        Q, proj = ab.cokernel(f)
        assert Q == Z

    def test_universal_properties_random(self):
        rng = random.Random(424242)
        for _ in range(200):
            A, B = rand_group(rng), rand_group(rng)
            f = rand_mor(rng, A, B)
            K, k = ab.kernel(f)
            assert ab.morphism_eq(ab.compose(k, f), ab.zero_morphism(K, B))
            assert ab.is_injective(k)  # so factorizations through k are unique
            C = rand_group(rng)
            g = rand_mor(rng, C, A)
            if ab.morphism_eq(ab.compose(g, f), ab.zero_morphism(C, B)):
                phi = ab.factor_through_injection(g, k)
                assert phi is not None
                assert ab.morphism_eq(ab.compose(phi, k), g)
            Q, q = ab.cokernel(f)
            assert ab.morphism_eq(ab.compose(f, q), ab.zero_morphism(A, Q))
            assert ab.is_surjective(q)
            h = rand_mor(rng, B, C)
            if ab.morphism_eq(ab.compose(f, h), ab.zero_morphism(A, C)):
                psi = ab.factor_through_surjection(h, q)
                assert psi is not None
                assert ab.morphism_eq(ab.compose(q, psi), h)


class TestSubgroupsQuotients:
    def test_subgroup_of_z_is_gcd(self):
        S, incl = ab.present_subgroup(Z, [[4], [6]])
        assert S.rank == 1 and S.relations.rows == 0
        assert incl.matrix.row(0) in {(2,), (-2,)}

    def test_subgroup_empty_generators(self):
        S, incl = ab.present_subgroup(Z, [])
        assert S.rank == 0

    def test_torsion_subgroup_presentation(self):
        # <2> inside Z/4 is a cyclic group of order 2
        S, incl = ab.present_subgroup(Z4, [[2]])
        assert S.rank == 1
        assert S.relations.to_rows() == ((2,),)
        assert ab.element_eq(Z4, incl.matrix.row(0), (2,))

    def test_quotient(self):
        Q, proj = ab.quotient(ZZ, [[1, 0]])
        assert Q.relations.to_rows() == ((1, 0),)
        assert ab.is_surjective(proj)

    def test_quotient_matches_subgroup_cokernel_random(self):
        # the reduced HNF is canonical, so quotienting by the rows directly
        # gives the cokernel of the presented subgroup's inclusion
        rng = random.Random(11)
        for _ in range(200):
            g = rand_group(rng)
            rows = [[rng.randint(-4, 4) for _ in range(g.rank)] for _ in range(rng.randint(0, 4))]
            _, incl = ab.present_subgroup(g, rows)
            assert ab.quotient(g, rows) == ab.cokernel(incl)

    def test_subgroup_inclusions_are_injective_random(self):
        rng = random.Random(7)
        for _ in range(100):
            g = rand_group(rng)
            gens = [
                [rng.randint(-4, 4) for _ in range(g.rank)]
                for _ in range(rng.randint(0, 3))
            ]
            S, incl = ab.present_subgroup(g, gens)
            assert ab.is_injective(incl)
            # each original generator factors through the inclusion
            for row in gens:
                alpha = ab.make_morphism(Z, g, [row])
                assert ab.factor_through_injection(alpha, incl) is not None

    def test_subgroup_relations_come_reduced_random(self):
        # the relation rows f * e_pos (f > 1, increasing positions) are
        # already in reduced Hermite form, so no normal form is applied
        rng = random.Random(44)
        torsion = 0
        for _ in range(200):
            g = rand_group(rng)
            rows = [[rng.randint(-4, 4) for _ in range(g.rank)] for _ in range(rng.randint(0, 4))]
            sub, _ = ab.present_subgroup(g, rows)
            assert sub.relations == hnf_reduced(sub.relations)
            torsion += sub.relations.rows > 0
        assert torsion > 20


class TestDirectSum:
    def test_z_plus_z2(self):
        total = ab.direct_sum(Z, Z2)
        assert total.rank == 2
        assert total.relations.to_rows() == ((0, 2),)


class TestFactorizations:
    def test_through_injection(self):
        _, i2 = ab.present_subgroup(Z, [[2]])
        six = ab.make_morphism(Z, Z, [[6]])
        phi = ab.factor_through_injection(six, i2)
        assert phi is not None
        assert ab.morphism_eq(ab.compose(phi, i2), six)
        assert ab.factor_through_injection(ab.make_morphism(Z, Z, [[5]]), i2) is None

    def test_through_surjection(self):
        beta = ab.make_morphism(Z, Z2, [[1]])
        pr4 = ab.make_morphism(Z, Z4, [[1]])
        psi = ab.factor_through_surjection(beta, pr4)
        assert psi is not None
        assert ab.morphism_eq(ab.compose(pr4, psi), beta)
        # through x2 there is no factorization: 1 is not in the image
        times2 = ab.make_morphism(Z, Z, [[2]])
        assert ab.factor_through_surjection(beta, times2) is None


def _rows(n_cols, max_rows, min_rows=0):
    entries = st.lists(st.integers(-6, 6), min_size=n_cols, max_size=n_cols)
    return st.lists(entries, min_size=min_rows, max_size=max_rows)


@st.composite
def _groups(draw):
    rank = draw(st.integers(0, 5))
    return ab.make_group(rank, draw(_rows(rank, 3)))


@st.composite
def _morphisms_from(draw, dom):
    """A morphism dom -> B: a drawn matrix m, and B presented with the
    images of dom's relations among its own, so that m is well defined."""
    rank = draw(st.integers(0, 5))
    m = IntMatrix.from_rows(draw(_rows(rank, dom.rank, dom.rank)), cols=rank)
    images = [row_times_matrix(r, m) for r in dom.relations.to_rows()]
    return ab.make_morphism(dom, ab.make_group(rank, images + draw(_rows(rank, 2))), m)


class TestFactorizationRoundTrip:
    """Factoring a composite back through the inclusion of a presented
    subgroup, or through a quotient's projection, recovers the factor; a
    target outside the image has no factorization."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_through_injection(self, data):
        g = data.draw(_groups())
        sub, incl = ab.present_subgroup(g, data.draw(_rows(g.rank, 4)))
        dom = ab.make_group(data.draw(st.integers(0, 3)), [])
        phi = ab.make_morphism(dom, sub, data.draw(_rows(sub.rank, dom.rank, dom.rank)))
        for f in (phi, ab.identity_morphism(sub)):
            back = ab.factor_through_injection(ab.compose(f, incl), incl)
            assert back is not None
            assert ab.morphism_eq(ab.compose(back, incl), ab.compose(f, incl))
            assert ab.morphism_eq(back, f)  # incl is injective
        x = tuple(data.draw(st.integers(-6, 6)) for _ in range(g.rank))
        inside = solve_integer(incl.matrix.stack(g.relations), x) is not None
        alpha = ab.make_morphism(Z, g, [x])
        assert (ab.factor_through_injection(alpha, incl) is not None) == inside

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_through_surjection(self, data):
        g = data.draw(_groups())
        q, proj = ab.quotient(g, data.draw(_rows(g.rank, 3)))
        psi = data.draw(_morphisms_from(q))
        back = ab.factor_through_surjection(ab.compose(proj, psi), proj)
        assert back is not None and ab.morphism_eq(back, psi)
        # Only a surjection lets every morphism out of g factor through it.
        f = data.draw(_morphisms_from(g))
        zero = ab.zero_morphism(g, f.cod)
        through_f = ab.factor_through_surjection(zero, f)
        if ab.is_surjective(f):
            assert through_f is not None and ab.morphism_eq(ab.compose(f, through_f), zero)
        else:
            assert through_f is None
