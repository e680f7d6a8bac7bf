"""Exact linear algebra: frozen examples plus brute-force oracle sweeps."""

import itertools
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbert_reference import reference_completion, sign_split_search, sign_split_zero_sums
import lattice_reference as reference
from lattice_reference import determinant, in_integer_span, solve_integer
from preordgrp import intmat
from preordgrp import preord as po
from preordgrp.errors import DimensionError, ResourceLimitError, ValidationError
from preordgrp.fgabelian import make_group
from preordgrp.intmat import (
    IntMatrix,
    _congruence_columns,
    _hilbert_completion,
    hermite_normal_form,
    hilbert_basis,
    hnf_reduced,
    left_kernel,
    monoid_zero_solutions,
    nonneg_feasible,
    nonneg_search,
    row_times_matrix,
    smith_normal_form,
    unimodular_inverse,
    vec_sub,
    xgcd,
)


def brute_minimal_solutions(system: IntMatrix, bound: int):
    """Oracle: all componentwise-minimal nonzero solutions within a box."""
    n = system.cols
    sols = []
    for x in itertools.product(range(bound + 1), repeat=n):
        if all(v == 0 for v in x):
            continue
        if all(
            sum(system.entry(i, j) * x[j] for j in range(n)) == 0
            for i in range(system.rows)
        ):
            sols.append(x)
    return sorted(
        s
        for s in sols
        if not any(t != s and all(a <= b for a, b in zip(t, s)) for t in sols)
    )


def brute_feasible(gens: IntMatrix, modulus: IntMatrix, x, coeff_sum=12, t_bound=12):
    """Oracle: bounded enumeration of x = a*gens + t*modulus with a >= 0."""
    k, r, n = gens.rows, modulus.rows, gens.cols
    for a in itertools.product(range(coeff_sum + 1), repeat=k):
        if sum(a) > coeff_sum:
            continue
        base = tuple(sum(a[i] * gens.entry(i, j) for i in range(k)) for j in range(n))
        for t in itertools.product(range(-t_bound, t_bound + 1), repeat=r):
            got = tuple(
                base[j] + sum(t[m] * modulus.entry(m, j) for m in range(r))
                for j in range(n)
            )
            if got == x:
                return a, t
    return None


def assert_row_echelon(h: IntMatrix):
    prev = -1
    seen_zero = False
    for i in range(h.rows):
        row = h.row(i)
        lead = next((j for j, e in enumerate(row) if e), None)
        if lead is None:
            seen_zero = True
            continue
        assert not seen_zero, "nonzero row under a zero row"
        assert lead > prev
        prev = lead
        assert row[lead] > 0
        for k in range(i):
            assert 0 <= h.row(k)[lead] < row[lead]


def transpose(m: IntMatrix) -> IntMatrix:
    return IntMatrix.from_rows([m.col(j) for j in range(m.cols)], cols=m.rows)


def in_lattice(modulus: IntMatrix, z) -> bool:
    """Oracle: z lies in rowspan(modulus)."""
    return solve_integer(modulus, tuple(z)) is not None


def random_matrix(rng, max_rows=5, max_cols=5, lo=-9, hi=9):
    r = rng.randint(0, max_rows)
    c = rng.randint(1, max_cols)
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)], cols=c
    )


class TestIntMatrix:
    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            IntMatrix(2, 2, (1, 2, 3))
        with pytest.raises(DimensionError):
            IntMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(DimensionError):
            IntMatrix.from_rows([])

    @pytest.mark.parametrize(
        "entry",
        [2.7, 0.9, 2.0, True, "3"],
        ids=["float", "small-float", "whole-float", "bool", "str"],
    )
    def test_from_rows_rejects_non_integer_entries(self, entry):
        # the entry is not converted, so 2.7 is not read as 2 or "3" as 3
        with pytest.raises(DimensionError, match="non-integer entry"):
            IntMatrix.from_rows([[1, entry]])

    def test_non_integer_relation_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="non-integer entry 2.7"):
            make_group(1, [[2.7]])
        with pytest.raises(ValidationError, match="non-integer entry 0.9"):
            po.make_object(make_group(1, []), [[0.9]])

    def test_basic_ops(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert m.row(1) == (3, 4)
        assert m.col(0) == (1, 3)
        assert transpose(m).to_rows() == ((1, 3), (2, 4))
        assert m.mul(IntMatrix.identity(2)) == m
        assert m.stack(m).rows == 4
        assert row_times_matrix((1, 1), m) == (4, 6)

    def test_mul_shape_mismatch(self):
        with pytest.raises(DimensionError):
            IntMatrix.identity(2).mul(IntMatrix.identity(3))


class TestXgcd:
    @given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
    def test_bezout(self, a, b):
        g, s, t = xgcd(a, b)
        assert s * a + t * b == g
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


class TestHermite:
    def test_example(self):
        m = IntMatrix.from_rows([[2, 4], [1, 1]])
        h, u = hermite_normal_form(m)
        assert h.to_rows() == ((1, 1), (0, 2))
        assert u.mul(m) == h
        assert abs(determinant(u)) == 1

    def test_zero_and_empty(self):
        h, u = hermite_normal_form(IntMatrix.zeros(2, 3))
        assert h == IntMatrix.zeros(2, 3)
        h, u = hermite_normal_form(IntMatrix.zeros(0, 3))
        assert h.rows == 0 and u.rows == 0

    def test_random_sweep(self):
        rng = random.Random(20260814)
        for _ in range(200):
            m = random_matrix(rng)
            h, u = hermite_normal_form(m)
            assert u.mul(m) == h
            assert abs(determinant(u)) == 1
            assert_row_echelon(h)

    def test_hnf_reduced_drops_zero_rows(self):
        m = IntMatrix.from_rows([[0, 0], [2, 4], [1, 2]])
        r = hnf_reduced(m)
        assert r.to_rows() == ((1, 2),)


class TestSmith:
    def test_example(self):
        m = IntMatrix.from_rows([[2, 4], [1, 1]])
        d, v = smith_normal_form(m)
        assert d.to_rows() == ((1, 0), (0, 2))
        assert hermite_normal_form(m.mul(v))[0] == hermite_normal_form(d)[0]

    def test_random_sweep(self):
        rng = random.Random(777)
        for _ in range(200):
            m = random_matrix(rng)
            d, v = smith_normal_form(m)
            # m * v and d span the same row lattice exactly when u * m * v = d
            # for some unimodular u
            assert hermite_normal_form(m.mul(v))[0] == hermite_normal_form(d)[0]
            assert abs(determinant(v)) == 1
            for i in range(d.rows):
                for j in range(d.cols):
                    if i != j:
                        assert d.entry(i, j) == 0
            diag = [d.entry(i, i) for i in range(min(d.rows, d.cols))]
            assert all(x >= 0 for x in diag)
            for a, b in zip(diag, diag[1:]):
                if a:
                    assert b % a == 0
                else:
                    assert b == 0

    def test_divisors_from_minors(self):
        # d_1 ... d_k is the gcd of all k x k minors (Newman, Integral
        # Matrices, II.15); the minors come from Bareiss elimination, which
        # shares no code with the Smith form
        rng = random.Random(6061)
        for i in range(20):
            rows, cols = (6, 6) if i < 4 else (rng.randint(1, 6), rng.randint(1, 6))
            inner = rng.randint(1, 6)  # rank at most inner
            a = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(inner)] for _ in range(rows)])
            b = IntMatrix.from_rows(
                [[f * rng.randint(-3, 3) for _ in range(cols)] for f in rng.choices((1, 2, 3, 6), k=inner)]
            )
            m = a.mul(b)
            d, _ = smith_normal_form(m)
            product = 1
            for k in range(1, min(rows, cols) + 1):
                product *= d.entry(k - 1, k - 1)
                minors = (
                    determinant(IntMatrix.from_rows([[m.entry(r, c) for c in cs] for r in rs]))
                    for rs in itertools.combinations(range(rows), k)
                    for cs in itertools.combinations(range(cols), k)
                )
                assert product == math.gcd(*minors), (m, k)

    def test_termination_regression(self):
        # This matrix cycled forever before the divide-first elimination rule.
        m = IntMatrix.from_rows([(1, -4, 3, 1, -9), (-8, -8, 5, -7, 3)])
        d, v = smith_normal_form(m)
        assert hermite_normal_form(m.mul(v))[0] == hermite_normal_form(d)[0]


class TestSolve:
    def test_examples(self):
        a = IntMatrix.from_rows([[2, 0], [0, 3]])
        assert solve_integer(a, (4, 6)) == (2, 2)
        assert solve_integer(IntMatrix.from_rows([[2]]), (3,)) is None

    def test_round_trip(self):
        rng = random.Random(31337)
        for _ in range(200):
            m = random_matrix(rng, max_rows=4, max_cols=4)
            x = tuple(rng.randint(-5, 5) for _ in range(m.rows))
            b = row_times_matrix(x, m)
            y = solve_integer(m, b)
            assert y is not None
            assert row_times_matrix(y, m) == b

    def test_solutions_certified(self):
        rng = random.Random(99)
        for _ in range(200):
            m = random_matrix(rng, max_rows=4, max_cols=4)
            b = tuple(rng.randint(-9, 9) for _ in range(m.cols))
            y = solve_integer(m, b)
            if y is not None:
                assert row_times_matrix(y, m) == b

    def test_lattice_membership(self):
        gens = IntMatrix.from_rows([[2, 0], [0, 2]])
        assert solve_integer(gens, (4, -2)) is not None
        assert solve_integer(gens, (1, 0)) is None
        assert solve_integer(gens, (0, 0)) is not None


class TestLeftKernel:
    def test_example(self):
        m = IntMatrix.from_rows([[2, 4], [1, 2], [0, 0]])
        k = left_kernel(m)
        assert k.rows == 2
        for i in range(k.rows):
            assert row_times_matrix(k.row(i), m) == (0, 0)

    def test_spans_kernel(self):
        rng = random.Random(4242)
        for _ in range(100):
            m = random_matrix(rng, max_rows=4, max_cols=3, lo=-4, hi=4)
            k = left_kernel(m)
            for i in range(k.rows):
                assert all(v == 0 for v in row_times_matrix(k.row(i), m))
            # any random kernel element must be an integer combination of k
            for _ in range(5):
                x = tuple(rng.randint(-3, 3) for _ in range(m.rows))
                if all(v == 0 for v in row_times_matrix(x, m)):
                    assert solve_integer(k, x) is not None


class TestUnimodularInverse:
    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(100):
            m = random_matrix(rng, max_rows=4, max_cols=4)
            _, u = hermite_normal_form(m)
            ui = unimodular_inverse(u)
            assert u.mul(ui) == IntMatrix.identity(u.rows)
            assert ui.mul(u) == IntMatrix.identity(u.rows)

    def test_rejects_singular(self):
        with pytest.raises(DimensionError):
            unimodular_inverse(IntMatrix.from_rows([[2, 0], [0, 1]]))


class TestHilbertBasis:
    def test_frozen_examples(self):
        assert hilbert_basis(IntMatrix.from_rows([[1, -1]])) == ((1, 1),)
        assert hilbert_basis(IntMatrix.from_rows([[1]])) == ()
        assert hilbert_basis(IntMatrix.from_rows([[2, 3, -5]])) == (
            (0, 5, 3),
            (1, 1, 1),
            (5, 0, 2),
        )

    def test_no_equations(self):
        # With no constraints every unit vector is minimal.
        assert hilbert_basis(IntMatrix.zeros(0, 3)) == (
            (0, 0, 1),
            (0, 1, 0),
            (1, 0, 0),
        )

    def test_against_brute_force(self):
        rng = random.Random(60046)
        for _ in range(60):
            r = rng.randint(1, 2)
            c = rng.randint(2, 3)
            m = IntMatrix.from_rows(
                [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)], cols=c
            )
            basis = hilbert_basis(m)
            brute = brute_minimal_solutions(m, 6)
            assert set(brute) <= set(basis)
            inside_box = [b for b in basis if all(v <= 6 for v in b)]
            assert set(inside_box) <= set(brute)
            # every brute-force solution decomposes over the basis
            for x in brute:
                assert _decomposes(x, basis)

    def test_solutions_are_solutions(self):
        rng = random.Random(123)
        for _ in range(40):
            m = random_matrix(rng, max_rows=2, max_cols=4, lo=-3, hi=3)
            for b in hilbert_basis(m):
                assert all(v == 0 for v in row_times_matrix(b, transpose(m)))

    def test_state_cap(self):
        with pytest.raises(ResourceLimitError):
            hilbert_basis(IntMatrix.from_rows([[1, -1], [-1, 1]]), state_cap=0)


def _decomposes(x, basis):
    if all(v == 0 for v in x):
        return True
    for b in basis:
        if all(bv <= xv for bv, xv in zip(b, x)):
            if _decomposes(tuple(xv - bv for xv, bv in zip(x, b)), basis):
                return True
    return False


class TestNonnegFeasible:
    def test_examples(self):
        two_three = IntMatrix.from_rows([[2], [3]])
        none = IntMatrix.zeros(0, 1)
        a = nonneg_feasible(two_three, none, (7,))
        assert row_times_matrix(a, two_three) == (7,)
        assert nonneg_feasible(IntMatrix.from_rows([[2]]), none, (1,)) is None
        three = IntMatrix.from_rows([[3]])
        a = nonneg_feasible(IntMatrix.from_rows([[2]]), three, (1,))
        assert min(a) >= 0 and in_lattice(three, (1 - 2 * a[0],))

    def test_zero_target(self):
        assert nonneg_feasible(IntMatrix.from_rows([[5]]), IntMatrix.zeros(0, 1), (0,)) == (0,)

    def test_no_integer_combination_needs_no_search(self):
        # The completion took 275,479 states to answer None here, and the
        # sign-split system 2,861; x is no integer combination at all.
        gens = IntMatrix.from_rows([[0, 1, 1], [5, -3, -5]])
        modulus = IntMatrix.from_rows([[5, 0, 4]])
        x = (4, -2, -2)
        assert not in_integer_span(gens.stack(modulus), x)
        assert sign_split_search(gens, modulus, x, 20_000)[0] is None
        assert nonneg_search(gens, modulus, x) == (None, 0)
        assert nonneg_search(gens, modulus, x, state_cap=0) == (None, 0)

    def test_corrupted_certificate_raises_under_optimize(self):
        # The re-check must not be an assert: python -O strips those.
        code = (
            "from preordgrp import intmat\n"
            "intmat._hilbert_completion = lambda cols, cap, early: (((1, 1),), 2)\n"
            "try:\n"
            "    intmat.nonneg_search(intmat.IntMatrix.from_rows([[2]]), intmat.IntMatrix.zeros(0, 1), (4,))\n"
            "except RuntimeError as e:\n"
            "    print(e)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "congruence system produced an invalid certificate\n"

    def test_against_brute_force(self):
        rng = random.Random(808)
        for _ in range(60):
            k = rng.randint(1, 4)
            n = rng.randint(1, 2)
            r = rng.randint(0, 1)
            gens = IntMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)], cols=n
            )
            modulus = (
                IntMatrix.from_rows(
                    [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)], cols=n
                )
                if r
                else IntMatrix.zeros(0, n)
            )
            x = tuple(rng.randint(-6, 6) for _ in range(n))
            mine = brute = None
            mine = nonneg_feasible(gens, modulus, x)
            brute = brute_feasible(gens, modulus, x)
            if brute is not None:
                assert mine is not None
            if mine is not None:
                assert min(mine) >= 0
                assert in_lattice(modulus, vec_sub(x, row_times_matrix(mine, gens)))


def _outcome(call):
    """A search's answer, or UNDECIDED when it raises ResourceLimitError."""
    try:
        return call()
    except ResourceLimitError:
        return po.UNDECIDED


def _completion(m, cap, early):
    """The completion hilbert_basis and nonneg_search run, with its early stop."""
    return _hilbert_completion([m.col(j) for j in range(m.cols)], cap, early)


def _same_as_reference(m, early=None, cap=3_000):
    """Assert the completion visits as many states as the reference loop and
    finds the same basis; the visited count, or None if both exceed cap."""
    ref = _outcome(lambda: reference_completion(m, cap, early))
    if ref is po.UNDECIDED:
        assert _outcome(lambda: _completion(m, cap, early)) is po.UNDECIDED
        return None
    basis, visited = ref
    assert _completion(m, visited, early) == (basis, visited)
    if early is None:
        assert hilbert_basis(m, visited) == basis
    with pytest.raises(ResourceLimitError):
        _completion(m, visited - 1, early)
    with pytest.raises(ResourceLimitError):
        reference_completion(m, visited - 1, early)
    return visited


class TestAgainstReferenceLoop:
    """The tuned completion against a copy of the plain loop (tests/hilbert_reference.py)."""

    def test_same_basis_and_raise_threshold(self):
        rng = random.Random(2718)
        decided = 0
        for trial in range(40):
            rows, cols = rng.randint(1, 2), rng.randint(4, 6)
            m = IntMatrix.from_rows(
                [[rng.randint(-7, 7) for _ in range(cols)] for _ in range(rows)], cols=cols
            )
            early = (lambda s: s[-1] == 1) if trial % 2 else None
            decided += _same_as_reference(m, early) is not None
        assert decided >= 30

    def test_smallest_caps(self):
        for rows in ([[0]], [[0, 0]], [[1]], [[1, -1]], [[1, -1], [-1, 1]], [[2, 3, -5]]):
            for cap in (0, 1, 2):
                _same_as_reference(IntMatrix.from_rows(rows), cap=cap)

    def test_coordinate_climbing_to_the_cap(self):
        # (1, 0) climbs to (k, 1): k + 2 states, so the cap is k + 2.
        for k in range(1, 40):
            assert _same_as_reference(IntMatrix.from_rows([[1, -k]])) == k + 2
        # Here the climb to (k, 1, 0) passes states t + e_2 that lie above
        # the basis element (k/2, 1, 1) while t[0] exceeds half the cap.
        for k in range(2, 50, 2):
            assert _same_as_reference(IntMatrix.from_rows([[1, -k, k // 2]])) is not None

    def test_entries_of_a_billion(self):
        e = 10**9
        for rows in (
            [[e, -e]],
            [[e, -2 * e, 3 * e, -e]],
            [[e, e, -e, -e]],
            [[e, -2 * e, 0, -3 * e], [0, -2, 2, 3]],
            [[2 * e, e, -2 * e], [-2, 1, 2]],
        ):
            assert _same_as_reference(IntMatrix.from_rows(rows)) is not None, rows
            assert _same_as_reference(IntMatrix.from_rows(rows), lambda s: s[-1] == 1) is not None

    def test_no_columns_and_no_rows(self):
        for m in (IntMatrix.zeros(0, 0), IntMatrix.zeros(3, 0), IntMatrix.zeros(0, 1),
                  IntMatrix.zeros(0, 4), IntMatrix.zeros(2, 3)):
            for early in (None, lambda s: s[-1] == 1):
                assert _same_as_reference(m, early) == m.cols
        none = IntMatrix.zeros(0, 2)
        # (1, 0) is no integer combination of no rows, so no search runs
        assert nonneg_search(none, none, (1, 0)) == (None, 0)
        assert nonneg_search(IntMatrix.zeros(3, 0), IntMatrix.zeros(0, 0), ()) == ((0, 0, 0), 0)
        assert monoid_zero_solutions(none, none) == ()
        assert monoid_zero_solutions(IntMatrix.zeros(2, 0), IntMatrix.zeros(0, 0)) == ((0, 1), (1, 0))

    def test_fifteen_variables(self):
        rng = random.Random(15)
        for trial in range(6):
            rows = rng.randint(1, 2)
            m = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(15)] for _ in range(rows)])
            early = (lambda s: s[-1] == 1) if trial % 2 else None
            assert _same_as_reference(m, early) is not None

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_systems_and_caps(self, data):
        n = data.draw(st.integers(0, 8))
        rows = data.draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=3))
        cap = data.draw(st.integers(0, 300))
        early = (lambda s: s[-1] == 1) if data.draw(st.booleans()) else None
        _same_as_reference(IntMatrix.from_rows(rows, cols=n), early, cap)

    def test_membership_visits_as_many_states(self):
        # nonneg_search answers (None, 0) when x is no integer combination of
        # gens and mod; otherwise it runs the completion on the congruence
        # columns over (a, y, slacks), stopping at the first level with y = 1.
        rng = random.Random(314)
        for _ in range(40):
            n = rng.randint(1, 3)
            gens = IntMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 4))], cols=n
            )
            mod = IntMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, 1))], cols=n
            )
            x = tuple(rng.randint(-5, 5) for _ in range(n))
            if not any(x):
                continue
            got = _outcome(lambda: nonneg_search(gens, mod, x, 20_000))
            if not in_integer_span(gens.stack(mod), x):
                assert got == (None, 0)
                continue
            k = gens.rows
            columns = _congruence_columns(gens, mod, x)
            system = transpose(IntMatrix.from_rows(columns, cols=len(columns[0])))
            ref = _outcome(lambda: reference_completion(system, 20_000, lambda s: s[k] == 1))
            assert (ref is po.UNDECIDED) == (got is po.UNDECIDED)
            if ref is not po.UNDECIDED:
                assert got[1] == ref[1]
                assert got[0] == next((s[:k] for s in ref[0] if s[k] == 1), None)


class TestMembershipOracle:
    """preord.cone_membership answers exactly as the uncached search would."""

    @staticmethod
    def _queries(seed, count):
        rng = random.Random(seed)
        out = []
        while len(out) < count:
            n = rng.randint(1, 3)
            gens = IntMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, 4))], cols=n
            )
            rels = IntMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, 1))], cols=n
            )
            x = tuple(rng.randint(-6, 6) for _ in range(n))
            _, visited = nonneg_search(gens, rels, x)
            if visited > 2:
                out.append((gens, rels, x, visited))
        return out

    def test_budget_orders_match_uncached_search(self):
        for gens, rels, x, visited in self._queries(99, 25):
            budgets = sorted({0, 1, visited // 2, visited - 1, visited, visited + 1, 10 * visited})
            expected = {}
            for b in budgets:
                expected[b] = _outcome(lambda: nonneg_feasible(gens, rels, x, b))
            shuffled = budgets[:]
            random.Random(visited).shuffle(shuffled)
            for order in (budgets, budgets[::-1], shuffled, [visited - 1, visited + 1, visited - 1]):
                po._membership_record.cache_clear()
                for b in order:
                    got = po.cone_membership(gens, rels, x, b)
                    if expected[b] is po.UNDECIDED:
                        assert got is po.UNDECIDED, (gens, rels, x, b, order)
                    else:
                        assert got == expected[b], (gens, rels, x, b, order)


class TestMonoidZeroSolutions:
    def test_examples(self):
        gens = IntMatrix.from_rows([[1], [-1], [2]])
        assert monoid_zero_solutions(gens, IntMatrix.zeros(0, 1)) == (
            (0, 2, 1),
            (1, 1, 0),
        )
        assert monoid_zero_solutions(
            IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[3]])
        ) == ((3,),)

    def test_projections_solve(self):
        rng = random.Random(2024)
        for _ in range(40):
            k = rng.randint(1, 3)
            n = rng.randint(1, 2)
            gens = IntMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)], cols=n
            )
            lat = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)]], cols=n)
            for c in monoid_zero_solutions(gens, lat):
                img = row_times_matrix(c, gens)
                assert solve_integer(lat, img) is not None

    def test_sign_split_surplus_is_dropped(self):
        # The sign-split basis also holds (1, 1, 0), (1, 0, 1), (0, 1, 1), ...
        gens, lat = IntMatrix.from_rows([[2], [-2], [3]]), IntMatrix.from_rows([[1]])
        assert len(sign_split_zero_sums(gens, lat)) == 7
        assert monoid_zero_solutions(gens, lat) == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def _minimal(vectors):
    return tuple(sorted(
        v for v in vectors if not any(w != v and all(a <= b for a, b in zip(w, v)) for w in vectors)
    ))


def _touched(zero_sums):
    return {i for c in zero_sums for i, ci in enumerate(c) if ci}


@st.composite
def _membership_instances(draw):
    n = draw(st.integers(0, 4))
    entries = st.lists(st.integers(-5, 5), min_size=n, max_size=n)
    gens = IntMatrix.from_rows(draw(st.lists(entries, max_size=4)), cols=n)
    modulus = IntMatrix.from_rows(draw(st.lists(entries, max_size=2)), cols=n)
    return gens, modulus, tuple(draw(entries))


class TestAgainstSignSplit:
    """The Smith-coordinate system against the sign-split one it replaced
    (tests/hilbert_reference.py), at a budget of 20,000 states."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(_membership_instances())
    def test_same_answers(self, instance):
        gens, modulus, x = instance
        old = _outcome(lambda: sign_split_search(gens, modulus, x, 20_000))
        new = _outcome(lambda: nonneg_search(gens, modulus, x, 20_000))
        if old is not po.UNDECIDED and new is not po.UNDECIDED:
            assert (old[0] is None) == (new[0] is None)
        if new is not po.UNDECIDED and new[0] is not None:
            a = new[0]
            assert min(a, default=0) >= 0
            assert in_lattice(modulus, vec_sub(x, row_times_matrix(a, gens)))
        old_sums = _outcome(lambda: sign_split_zero_sums(gens, modulus, 20_000))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(intmat, "HILBERT_STATE_CAP", 20_000)
            new_sums = _outcome(lambda: monoid_zero_solutions(gens, modulus))
        if old_sums is not po.UNDECIDED and new_sums is not po.UNDECIDED:
            assert new_sums == _minimal(old_sums)
            assert _touched(new_sums) == _touched(old_sums)

    def test_free_columns_are_shortened(self, monkeypatch):
        # Smith's free columns here are (0, 2, 3, -6) and (1, 3, 3, -9): over
        # them the completion passes 10^6 states; shortened, it takes 51.
        gens = IntMatrix.from_rows([[0, 0, 0, -1], [0, 1, 0, 0], [1, 0, 0, 2]])
        lattice = IntMatrix.from_rows([[0, 3, 0, 1], [3, 0, 2, 1]])
        monkeypatch.setattr(intmat, "HILBERT_STATE_CAP", 51)
        assert monoid_zero_solutions(gens, lattice) == ()
        assert sign_split_zero_sums(gens, lattice, 135) == ()


class TestDeterminant:
    @settings(max_examples=60)
    @given(
        st.lists(
            st.lists(st.integers(-6, 6), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    def test_matches_cofactor_expansion(self, rows):
        m = IntMatrix.from_rows(rows)
        a = rows
        cofactor = (
            a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
        )
        assert determinant(m) == cofactor


@st.composite
def _small_matrices(draw):
    """Up to 8x8, 0-row and 0-column shapes included.  The rows are integer
    combinations of `inner` drawn rows, so the rank falls short whenever
    inner < rows."""
    r, c = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    inner = draw(st.integers(0, r))
    basis = IntMatrix.from_rows(
        draw(st.lists(st.lists(st.integers(-9, 9), min_size=c, max_size=c), min_size=inner, max_size=inner)),
        cols=c,
    )
    if inner == r:
        return basis
    coeffs = draw(st.lists(st.lists(st.integers(-3, 3), min_size=inner, max_size=inner), min_size=r, max_size=r))
    return IntMatrix.from_rows(coeffs, cols=inner).mul(basis)


class TestAgainstReferenceForms:
    """The normal forms return exactly the matrices of the earlier versions
    kept in tests/lattice_reference.py, which updated each transform in a
    list of its own; smith_normal_form returns the reference's d and v."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_small_matrices())
    def test_same_matrices(self, m):
        h, u = reference.hermite_normal_form(m)
        assert hermite_normal_form(m) == (h, u)
        assert hnf_reduced(m) == IntMatrix.from_rows([r for r in h.to_rows() if any(r)], cols=m.cols)
        d, su, v = reference.smith_normal_form(m)
        assert smith_normal_form(m) == (d, v)
        for w in (u, su, v):
            assert unimodular_inverse(w) == reference.unimodular_inverse(w)
        if m.rows == m.cols:
            if abs(determinant(m)) == 1:
                assert unimodular_inverse(m) == reference.unimodular_inverse(m)
            else:
                with pytest.raises(DimensionError):
                    unimodular_inverse(m)
