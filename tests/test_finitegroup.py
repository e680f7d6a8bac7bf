"""Cayley-table groups: validation, closures, quotients."""

from functools import reduce

import pytest

from preordgrp import fileformat as ff
from preordgrp import finitegroup as fg
from preordgrp import preord as po
from preordgrp import probes as pr
from preordgrp.errors import ResourceLimitError, ValidationError

S3, S3_PERMS = fg.group_from_permutations([(1, 0, 2), (0, 2, 1)])
FIN = po.discrete_object(S3).backend  # the map primitives of the finite universe


def is_abelian(g):
    return all(g.mul(a, b) == g.mul(b, a) for a in range(g.order) for b in range(g.order))
TRANSPOSITION = 1  # (0, 2, 1)
THREE_CYCLE = 3  # (1, 2, 0)
A3 = frozenset({0, 3, 4})


def s3_rows():
    return [list(S3.table[a * 6 : (a + 1) * 6]) for a in range(6)]


class TestValidation:
    def test_s3_round_trips(self):
        assert fg.make_finite_group(s3_rows()) == S3

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            fg.make_finite_group([[0, 1], [1]])

    def test_rejects_bad_entry(self):
        with pytest.raises(ValidationError):
            fg.make_finite_group([[0, 1], [1, 7]])

    def test_rejects_missing_identity(self):
        with pytest.raises(ValidationError, match="identity"):
            fg.make_finite_group([[1, 0], [0, 1]])

    def test_rejects_repeated_row(self):
        with pytest.raises(ValidationError, match="repeats"):
            fg.make_finite_group([[0, 1], [1, 1]])

    def test_rejects_non_associative_loop(self):
        loop = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3],
        ]
        with pytest.raises(ValidationError, match="associative"):
            fg.make_finite_group(loop)

    def test_order_cap(self):
        rows = [[(a + b) % 600 for b in range(600)] for a in range(600)]
        with pytest.raises(ResourceLimitError):
            fg.make_finite_group(rows)
        fg.make_finite_group([[(a + b) % 20 for b in range(20)] for a in range(20)])

    def test_cyclic_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            fg.cyclic_group(0)


class TestPermutationGroups:
    def test_s3_layout(self):
        assert S3.order == 6
        assert S3_PERMS[0] == (0, 1, 2)
        assert not is_abelian(S3)

    def test_s4(self):
        s4, _ = fg.group_from_permutations([(1, 0, 2, 3), (1, 2, 3, 0)])
        assert s4.order == 24

    def test_closure_cap(self):
        # S6 has order 720, past ORDER_CAP
        with pytest.raises(ResourceLimitError, match=f"exceeds cap {fg.ORDER_CAP}"):
            fg.group_from_permutations([(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)])


class TestClosures:
    def test_three_cycle_generates_a3(self):
        assert fg.submonoid_closure(S3, [THREE_CYCLE]) == A3

    def test_transposition_closure_not_normal(self):
        clo = fg.submonoid_closure(S3, [TRANSPOSITION])
        assert clo == frozenset({0, TRANSPOSITION})
        assert fg.conjugation_witness(S3, clo) is not None
        assert fg.conjugation_witness(S3, A3) is None

    def test_normal_closure_of_transposition_is_everything(self):
        assert fg.normal_closure(S3, [TRANSPOSITION]) == frozenset(range(6))

    def test_conjugation_test_uses_inverses(self):
        # x . S . x stays inside S for both generators of A4, x . S . x^-1 does not
        a4, _ = fg.group_from_permutations([(1, 2, 0, 3), (1, 0, 3, 2)])
        subset = {0, 1, 2, 3, 7, 10}
        assert a4.generators == (1, 3)
        assert all(a4.mul(a4.mul(x, a), x) in subset for x in (1, 3) for a in subset)
        assert fg.conjugation_witness(a4, subset) == (1, 3)


class TestSubgroupsQuotients:
    def test_a3_presents_as_cyclic_three(self):
        sub, incl = fg.subgroup_from_set(S3, A3)
        assert sub == fg.cyclic_group(3)
        assert incl.mapping == (0, 3, 4)
        assert FIN.injective(incl)

    def test_subgroup_rejects_unclosed_subset(self):
        with pytest.raises(ValidationError, match="closed"):
            fg.subgroup_from_set(S3, {0, THREE_CYCLE})

    def test_quotient_by_a3(self):
        q, proj = fg.quotient_by_normal(S3, A3)
        assert q == fg.cyclic_group(2)
        assert proj.mapping == (0, 1, 1, 0, 0, 1)
        assert FIN.surjective(proj)
        assert frozenset(FIN.kernel(proj)[1].mapping) == A3

    def test_quotient_rejects_non_normal(self):
        with pytest.raises(ValidationError, match="normal"):
            fg.quotient_by_normal(S3, {0, TRANSPOSITION})

    def test_s4_mod_v4_is_s3(self):
        s4, perms = fg.group_from_permutations([(1, 0, 2, 3), (1, 2, 3, 0)])
        v4 = fg.normal_closure(s4, [perms.index((1, 0, 3, 2))])
        assert len(v4) == 4
        q, _ = fg.quotient_by_normal(s4, v4)
        assert q.order == 6 and not is_abelian(q)


class TestMorphisms:
    def test_sign_map(self):
        sgn = fg.make_fin_morphism(S3, fg.cyclic_group(2), (0, 1, 1, 0, 0, 1))
        assert FIN.surjective(sgn) and not FIN.injective(sgn)
        assert frozenset(FIN.kernel(sgn)[1].mapping) == A3
        assert frozenset(sgn.mapping) == frozenset({0, 1})

    def test_rejects_non_homomorphism(self):
        with pytest.raises(ValidationError, match="homomorphism"):
            fg.make_fin_morphism(S3, fg.cyclic_group(2), (0, 1, 0, 0, 0, 1))

    def test_identity_must_map_to_identity(self):
        # the trivial group has no generators: only the check at 0 sees this
        with pytest.raises(ValidationError, match=r"homomorphism at \(0, 0\)"):
            fg.make_fin_morphism(fg.cyclic_group(1), fg.cyclic_group(2), (1,))

    def test_compose_identity_zero(self):
        z3 = fg.cyclic_group(3)
        f = fg.make_fin_morphism(z3, z3, (0, 2, 1))
        assert FIN.compose(f, f).mapping == FIN.identity(z3).mapping
        assert FIN.compose(f, FIN.zero(z3, S3)).mapping == (0, 0, 0)


class TestProduct:
    def test_z2_x_z3(self):
        z2, z3 = fg.cyclic_group(2), fg.cyclic_group(3)
        g = fg.product_group(z2, z3)
        assert g.order == 6 and is_abelian(g)
        # (a, b) sits at index 3a + b, so both projections are homomorphisms
        fg.make_fin_morphism(g, z2, tuple(i // 3 for i in range(6)))
        fg.make_fin_morphism(g, z3, tuple(i % 3 for i in range(6)))

    def test_product_cap(self):
        z8 = fg.cyclic_group(8)
        big = fg.product_group(z8, z8)
        with pytest.raises(ResourceLimitError):
            fg.product_group(big, big)


class TestGeneratorWords:
    def test_words_fold_back_to_their_elements(self):
        for name, g in pr.finite_catalog():
            words = g.generator_words
            assert len(words) == g.order and words[0] == (), name
            for x, word in enumerate(words):
                y = 0
                for i in word:
                    y = g.mul(y, g.generators[i])
                assert y == x, (name, x, word)


def cycle_generators(lengths):
    """Permutations generating C_l1 x C_l2 x ...: one cycle per factor, on
    disjoint points.  Sorted, the closure's elements run in the mixed radix
    of product_group, so it has the same table."""
    perms, start = [], 0
    for length in lengths:
        perm = list(range(sum(lengths)))
        perm[start : start + length] = [start + (i + 1) % length for i in range(length)]
        perms.append(tuple(perm))
        start += length
    return perms


TABLE_FACTORS = {
    1: (1,), 2: (2,), 24: (8, 3), 255: (3, 5, 17), 256: (16, 16), 257: (257,), 384: (8, 16, 3)
}


@pytest.mark.parametrize("order", sorted(TABLE_FACTORS))
def test_every_construction_gives_one_table(order):
    """Each constructor gives the one table type of its order, bytes up to
    256 and a tuple of ints above, so its groups compare and hash alike."""
    factors = TABLE_FACTORS[order]
    group = reduce(fg.product_group, map(fg.cyclic_group, factors))
    n = group.order
    rows = [group.table[i : i + n] for i in range(0, n * n, n)]
    forms = [[tuple(r) for r in rows], [list(r) for r in rows]]
    forms += [[bytes(r) for r in rows]] if n <= 256 else []
    printed = ff.format_object("G", po.make_object(group, ()))
    built = [
        fg.group_from_permutations(cycle_generators(factors))[0],
        fg.product_group(group, fg.cyclic_group(1)),
        fg.subgroup_from_set(group, range(n))[0],
        fg.quotient_by_normal(group, {0})[0],
        ff.parse_workspace(printed).objects["G"].group,
        *map(fg.make_finite_group, forms),
    ]
    cyclic = fg.cyclic_group(order)
    built += [cyclic, fg.product_group(cyclic, fg.cyclic_group(1))] if factors == (order,) else []
    for other in built:
        assert other == group and hash(other) == hash(group)
        assert type(other.table) is type(group.table) is (bytes if n <= 256 else tuple)
