"""The generator-based finite checks against the loops they replaced.

`finitegroup` decides group tables, homomorphisms and normality on the
group's greedy generating set; tests/finite_reference.py keeps the
per-element loops.  Both run on the benchmark generator's permutation groups
of order at most 60, on those tables with one entry changed, on sampled
homomorphisms with one image changed and on random subsets.  Results and
error messages must agree, except for the triple that witnesses a failed
associativity check: the two generating sets can differ on a table that is
not associative, so there the new triple only has to fail.  Normal
closures, quotients and unit cones are compared with the reference
constructions on every group of the probes' finite catalogue.  Tables up
to order 256 and one above it, intact and corrupted, are also fed as bytes,
tuple and list rows, which must all give the same outcome.  The greedy
generating set, built by extending one closure, must equal the one that
recomputes each closure from {0}.
"""

import itertools
import math
import random
import sys
from pathlib import Path

import finite_reference as ref
import pytest

from preordgrp import finitegroup as fg
from preordgrp import preord as po
from preordgrp import probes as pr
from preordgrp.errors import PreordError, ValidationError

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

NAMES = ("C2", "C3", "C4", "C5", "S3", "D4", "D5", "A4", "S4", "A5")
PRODUCTS = [(name,) for name in NAMES] + [
    factors for order in range(2, 61) for factors in gen.factorizations(order)
]


def outcome(fn, *args):
    try:
        return fn(*args)
    except PreordError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "witness", None)


def rows_of(order, table):
    return [list(table[a * order : (a + 1) * order]) for a in range(order)]


def assert_same_table_outcome(rows):
    new, old = outcome(fg.make_finite_group, rows), outcome(ref.make_finite_group, rows)
    if isinstance(new, tuple) and isinstance(old, tuple) and "not associative" in old[1]:
        assert new[0] == "ValidationError" and new[1].startswith("not associative at ")
        a, g, c = new[2]
        assert rows[rows[a][g]][c] != rows[a][rows[g][c]]
    else:
        assert new == old


def changed_entry(rng, rows):
    rows = [row[:] for row in rows]
    n = len(rows)
    a, b = rng.randrange(n), rng.randrange(n)
    old = rows[a][b]
    rows[a][b] = rng.choice(
        [v for v in range(n) if v != old] + [n, -1, float(old), bool(old % 2), str(old)]
    )
    return rows


def flipped_intercalate(rng, group, rows):
    """rows with a 2x2 subsquare a.b, a.sb / as.b, as.sb (s an involution)
    swapped: still a loop, and no longer a group table."""
    n = group.order
    involutions = [s for s in range(1, n) if group.mul(s, s) == 0]
    if n < 6 or not involutions:
        return None
    s = rng.choice(involutions)
    others = [x for x in range(1, n) if x != s]
    a, b = rng.choice(others), rng.choice(others)
    rows = [row[:] for row in rows]
    a2, b2 = group.mul(a, s), group.mul(s, b)
    rows[a][b], rows[a][b2] = rows[a][b2], rows[a][b]
    rows[a2][b], rows[a2][b2] = rows[a2][b2], rows[a2][b]
    return rows


def projection(factors, k):
    """The projection of the product onto factor k, as gen.finite_file writes it."""
    radix = [gen.permutation_group(name)[0] for name in factors]
    below = math.prod(radix[k + 1 :])
    return [(a // below) % radix[k] for a in range(math.prod(radix))]


def word_map(rng, dom, cod):
    """Images of dom's generators drawn at random, extended along words."""
    images = {g: rng.randrange(cod.order) for g in dom.generators}
    mapping = {0: 0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g, y in images.items():
            if dom.mul(x, g) not in mapping:
                mapping[dom.mul(x, g)] = cod.mul(mapping[x], y)
                frontier.append(dom.mul(x, g))
    return [mapping[x] for x in range(dom.order)]


@pytest.mark.parametrize("factors", PRODUCTS, ids="x".join)
def test_finite_checks_match_reference(factors):
    rng = random.Random(f"finite-reference:{'x'.join(factors)}")
    order, table = gen.product_table(factors)
    rows = rows_of(order, table)
    group = fg.make_finite_group(rows)
    assert group == ref.make_finite_group(rows)

    # tables: one entry changed, and one intercalate flipped
    for _ in range(8):
        assert_same_table_outcome(changed_entry(rng, rows))
    for _ in range(3):
        loop = flipped_intercalate(rng, group, rows)
        if loop is not None:
            assert_same_table_outcome(loop)

    # homomorphisms: projections, identity, zero and word maps, each also
    # with one image changed
    maps = []
    for k, name in enumerate(factors):
        cod = fg.make_finite_group(rows_of(*gen.permutation_group(name)))
        maps.append((cod, projection(factors, k)))
        maps.append((cod, word_map(rng, group, cod)))
    maps += [(group, list(range(order))), (group, [0] * order)]
    maps.append((group, word_map(rng, group, group)))
    for cod, mapping in maps:
        assert outcome(fg.make_fin_morphism, group, cod, mapping) == outcome(
            ref.make_fin_morphism, group, cod, mapping
        )
        for _ in range(3):
            changed = mapping[:]
            a = rng.randrange(order)
            changed[a] = rng.choice(
                [v for v in range(cod.order) if v != mapping[a]] + [cod.order, True]
            )
            assert outcome(fg.make_fin_morphism, group, cod, changed) == outcome(
                ref.make_fin_morphism, group, cod, changed
            )

    # closures and normality: random subsets (mostly not normal, not
    # closed), the subgroups they generate and their normal closures
    for _ in range(6):
        subset = rng.sample(range(order), rng.randrange(order + 1))
        gens = rng.sample(range(order), rng.randrange(min(4, order + 1)))
        assert fg._closure_set(table, order, gens, [0]) == ref._closure_set(table, order, gens)
        closed = fg.submonoid_closure(group, gens)
        assert closed == ref.submonoid_closure(group, gens)
        for s in (subset, closed, fg.normal_closure(group, gens)):
            assert fg.conjugation_witness(group, s) == ref.conjugation_witness(group, s)
            assert outcome(fg.subgroup_from_set, group, {0, *s}) == outcome(
                ref.subgroup_from_set, group, {0, *s}
            )


@pytest.mark.parametrize("name", [name for name, _ in pr.finite_catalog()])
def test_constructions_match_reference(name):
    """Normal closures without added inverses, quotients without a relabel
    and unit cones read off the cone agree with the first release's
    constructions, on the normal closure of each element and each pair.
    These cones include every finite probe's and every cone the finite
    object sampler draws (the whole group among them)."""
    group = dict(pr.finite_catalog())[name]
    n = group.order
    for gens in [(a,) for a in range(n)] + list(itertools.combinations(range(n), 2)):
        closure = fg.normal_closure(group, gens)
        assert closure == ref.normal_closure(group, gens)
        assert fg.quotient_by_normal(group, closure) == ref.quotient_by_normal(group, closure)
        obj = po.make_object(group, closure)
        assert po.torsion_part(obj)[0].cone == ref.unit_elements(obj)


def reduced_latin_squares(n):
    """Every Latin square on range(n) whose row 0 and column 0 are the identity."""
    rows = [[a if b == 0 else b if a == 0 else None for b in range(n)] for a in range(n)]
    cells = [(a, b) for a in range(1, n) for b in range(1, n)]

    def fill(i):
        if i == len(cells):
            yield [row[:] for row in rows]
            return
        a, b = cells[i]
        for v in range(n):
            if v not in rows[a] and all(rows[r][b] != v for r in range(a)):
                rows[a][b] = v
                yield from fill(i + 1)
                rows[a][b] = None

    yield from fill(0)


def is_associative(rows):
    n = len(rows)
    return all(
        rows[rows[a][b]][c] == rows[a][rows[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def test_light_test_decides_every_small_loop():
    """make_finite_group accepts a loop exactly when it is associative."""
    counts = {}
    for n in range(1, 7):
        for rows in reduced_latin_squares(n):
            counts[n] = counts.get(n, 0) + 1
            try:
                fg.make_finite_group(rows)
            except ValidationError as exc:
                assert str(exc).startswith("not associative at ")
                a, g, c = exc.witness
                assert rows[rows[a][g]][c] != rows[a][rows[g][c]]
                assert not is_associative(rows)
            else:
                assert is_associative(rows)
    assert counts == {1: 1, 2: 1, 3: 1, 4: 4, 5: 56, 6: 9408}


def test_two_changed_entries_give_the_first_error():
    """make_finite_group runs the group axioms before the row and column
    scan; on a failure it falls back to the reference order."""
    for factors in PRODUCTS:
        rng = random.Random(f"two-changes:{'x'.join(factors)}")
        rows = rows_of(*gen.product_table(factors))
        n = len(rows)
        for _ in range(4):
            changed = [row[:] for row in rows]
            for _ in range(2):
                a, b = rng.randrange(n), rng.randrange(n)
                changed[a][b] = rng.choice([rng.randrange(n), rng.randrange(n), n, True])
            assert_same_table_outcome(changed)


def test_a_table_failing_latin_and_associativity_reports_the_column():
    # two entries of row 1 of S3 swapped: the row stays a permutation, two
    # columns repeat an element and the table is no longer associative
    rows = rows_of(*gen.permutation_group("S3"))
    rows[1][2], rows[1][3] = rows[1][3], rows[1][2]
    assert not is_associative(rows)
    expected = ("ValidationError", "column 2 repeats an element", 2)
    assert outcome(fg.make_finite_group, rows) == outcome(ref.make_finite_group, rows) == expected


def test_row_lengths_are_checked_row_by_row():
    # the lengths sum to n * n, but row 1 is one entry long and row 2 short
    rows = rows_of(*gen.permutation_group("A4"))
    rows[1].append(rows[2].pop())
    expected = ("ValidationError", "table row 1 has 13 entries, expected 12", None)
    assert outcome(fg.make_finite_group, rows) == outcome(ref.make_finite_group, rows) == expected
    # a bad entry in an earlier row comes first
    rows[0][5] = 12
    expected = ("ValidationError", "table entry at (0, 5) is 12", None)
    assert outcome(fg.make_finite_group, rows) == outcome(ref.make_finite_group, rows) == expected


def row_forms(rows):
    """The table as tuple rows, list rows and, when every entry fits a
    byte, bytes rows, as the parser builds them up to order 256."""
    forms = [[tuple(r) for r in rows], [list(r) for r in rows]]
    if all(type(e) is int and 0 <= e < 256 for r in rows for e in r):
        forms.append([bytes(r) for r in rows])
    return forms


def assert_row_forms_agree(rows):
    """Every row form gives one outcome, and it is the reference's."""
    outcomes = [outcome(fg.make_finite_group, form) for form in row_forms(rows)]
    assert outcomes[1:] == outcomes[:1] * (len(outcomes) - 1)
    if isinstance(outcomes[0], fg.FiniteGroup):
        table = outcomes[0].table
        assert type(table) is (bytes if len(rows) <= 256 else tuple)
        assert {int} == set(map(type, table))
    assert_same_table_outcome(rows)


def corruptions(rng, group, rows):
    """(name, rows) for each way of breaking a group table."""
    n = len(rows)
    a, b = rng.randrange(1, n), rng.randrange(1, n)
    other = rng.choice([c for c in range(n) if c not in (a, b)])
    out = [("swapped-pair", flipped_intercalate(rng, group, rows))]
    for name, (r, c, value) in [
        ("repeated-entry", (a, b, rows[a][other])),
        ("left-identity", (0, b, rows[0][other])),
        ("right-identity", (a, 0, rows[other][0])),
        ("entry-n", (a, b, n)),
        ("entry-true", (a, b, True)),
    ]:
        changed = [row[:] for row in rows]
        changed[r][c] = value
        out.append((name, changed))
    return [(name, changed) for name, changed in out if changed is not None]


GENERATOR_PRODUCTS = random.Random("generators").sample(
    [factors for order in range(61, 241) for factors in gen.factorizations(order)], 20
) + random.Random("generators").sample(PRODUCTS, 10)


@pytest.mark.parametrize("factors", GENERATOR_PRODUCTS, ids="x".join)
def test_generators_extend_one_closure(factors):
    """The greedy set equals the one that recomputes each closure from {0},
    on seeded product groups and on copies with one entry changed (any
    table with an identity, as make_finite_group asks before validating)."""
    order, table = gen.product_table(factors)
    rng = random.Random(f"generators:{'x'.join(factors)}")
    tables = [table]
    for _ in range(3):
        a, b = rng.randrange(1, order), rng.randrange(1, order)
        tables.append(table[: a * order + b] + (rng.randrange(order),) + table[a * order + b + 1 :])
    for t in tables:
        assert fg.FiniteGroup(order, t).generators == ref.greedy_generators(t, order)


def test_catalogue_generators_extend_one_closure():
    for name, group in pr.finite_catalog():
        assert group.generators == ref.greedy_generators(group.table, group.order), name


ROW_FORM_ORDERS = sorted(
    random.Random("row-forms").sample([n for n in range(61, 256) if gen.factorizations(n)], 4)
) + [256]


@pytest.mark.parametrize("order", ROW_FORM_ORDERS)
def test_row_forms_match_reference(order):
    """Bytes, tuple and list rows of seeded groups up to order 256, whose
    Light's test reads rows through bytes.translate, and of corrupted
    copies give the reference's group, or its message and witness."""
    rng = random.Random(f"row-forms:{order}")
    factors = rng.choice(gen.factorizations(order))
    rows = rows_of(*gen.product_table(factors))
    group = fg.make_finite_group(rows)
    assert_row_forms_agree(rows)
    for name, changed in corruptions(rng, group, rows):
        if name == "entry-n" and order == 256:
            assert len(row_forms(changed)) == 2  # 256 does not fit a byte
        assert_row_forms_agree(changed)


def test_row_forms_above_256_match_reference():
    """Above order 256 Light's test gathers tuple rows through itemgetter."""
    catalog = dict(pr.finite_catalog())
    group = fg.product_group(catalog["S4"], catalog["D6"])
    assert group.order == 288
    rows = rows_of(group.order, group.table)
    assert_row_forms_agree(rows)
    for _, changed in corruptions(random.Random("row-forms:288"), group, rows):
        assert_row_forms_agree(changed)
    # a bytes row among tuple rows: it cannot hold 256 or more, so here it
    # repeats an element, and Light's test, which runs before the row scan,
    # reads it as a tuple
    mixed = [tuple(row) for row in rows]
    mixed[1] = bytes([1, 0, *range(2, 256), *range(32)])
    expected = ("ValidationError", "row 1 repeats an element", 1)
    assert outcome(fg.make_finite_group, mixed) == outcome(ref.make_finite_group, mixed) == expected
