"""Seeded workspace files for the session workloads.

Inputs are drawn with the standard library's `random.Random`, seeded by
workload name and seed, and written as workspace text directly.  Nothing
here imports `preordgrp` and nothing searches: every morphism is valid by
construction, so a change to the program's samplers or solvers changes
neither the inputs nor the number of ops.

Abelian files: endpoint ranks 0..4, at most one relation row with entries
in [-4, 4] and up to three cone generators with entries in [-3, 3] per
object.  Each codomain column copies one domain coordinate up to sign, or
none, so images of relation rows and cone generators stay inside those
ranges; the codomain's relations and cone generators are those images,
topped up with random rows to the same limits, which makes the map a
homomorphism that preserves the cones.
The map is nonzero whenever both ranks are positive.  Every 25 consecutive
files cover the 25 (domain rank, codomain rank) pairs once, in seeded order,
so runs with different seeds share their shape and differ in the entries.
(With two relation rows, or up to six cone generators, about one rank-3 or
rank-4 file in twenty-five takes one op past the solver's 10**6-state
budget: 25 s, then a ResourceLimitError.)

Finite files: the domain is a direct product of two or three small
permutation groups, the codomain one of its factors, the morphism the
projection onto it, so the map is nonzero.  The domain cone is the normal
closure of 0..2 random elements, written as the union of their conjugacy
classes; the codomain cone is the normal closure of their projections.
Every four consecutive files take one domain of each order in
FINITE_ORDERS, and file i closes (i + i // 4) % 3 cone elements.  The seed
picks the factors and the cone elements.  The cost of an op grows with the
square of the domain order, so fixing orders and cone sizes keeps runs with
different seeds comparable.  Cost and spread grow with the order: the 23
ops of one file take about 2 s at order 192 (within 10-20% across draws),
but 11-20 s at order 480, so a run takes many mid-sized files instead of a
few large ones.  frozen.json times the validation of an order-512 table.
"""

import random
from functools import lru_cache

ABELIAN_RANK_MAX = 4
ABELIAN_RANK_PAIRS = [(a, b) for a in range(ABELIAN_RANK_MAX + 1) for b in range(ABELIAN_RANK_MAX + 1)]
FINITE_ORDERS = (120, 160, 192, 240)

# Generators of the small permutation groups the finite domains multiply.
_PERMUTATION_GROUPS = {
    "C2": [(1, 0)],
    "C3": [(1, 2, 0)],
    "C4": [(1, 2, 3, 0)],
    "C5": [(1, 2, 3, 4, 0)],
    "S3": [(1, 0, 2), (1, 2, 0)],
    "D4": [(1, 2, 3, 0), (3, 2, 1, 0)],
    "D5": [(1, 2, 3, 4, 0), (4, 3, 2, 1, 0)],
    "A4": [(1, 2, 0, 3), (1, 0, 3, 2)],
    "S4": [(1, 0, 2, 3), (1, 2, 3, 0)],
    "A5": [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)],
}


@lru_cache(maxsize=None)
def permutation_group(name: str) -> tuple[int, tuple]:
    """(order, row-major Cayley table) with the identity at index 0."""
    gens = _PERMUTATION_GROUPS[name]
    degree = len(gens[0])
    ident = tuple(range(degree))
    elems = {ident}
    frontier = [ident]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(p[g[i]] for i in range(degree))
            if q not in elems:
                elems.add(q)
                frontier.append(q)
    ordered = sorted(elems)
    index = {p: i for i, p in enumerate(ordered)}
    table = tuple(index[tuple(p[q[i]] for i in range(degree))] for p in ordered for q in ordered)
    return len(ordered), table


@lru_cache(maxsize=32)
def product_table(factors: tuple) -> tuple[int, tuple]:
    """Cayley table of the direct product; element indices are mixed-radix,
    the last factor varying fastest."""
    order, table = 1, (0,)
    for name in factors:
        m, ftab = permutation_group(name)
        n = order * m
        table = tuple(
            table[(a // m) * order + b // m] * m + ftab[(a % m) * m + b % m]
            for a in range(n)
            for b in range(n)
        )
        order = n
    return order, table


def conjugacy_class(order: int, table, a: int) -> set[int]:
    inv = [table[x * order : (x + 1) * order].index(0) for x in range(order)]
    return {table[table[x * order + a] * order + inv[x]] for x in range(order)}


def _int_line(keyword: str, values) -> str:
    return " ".join([keyword] + [str(v) for v in values])


def _abelian_object_text(name, rank, rels, cone) -> list[str]:
    lines = [f"object {name}", "universe abelian", f"rank {rank}"]
    lines += [_int_line("rel", r) for r in rels]
    lines += [_int_line("cone", g) for g in cone]
    return lines


def _image(row, source) -> list[int]:
    """row * M, where column j of M is sign * e_i for source[j] = (i, sign)."""
    return [0 if s is None else s[1] * row[s[0]] for s in source]


def abelian_file(rng: random.Random, r1: int, r2: int) -> tuple[str, dict]:
    """One workspace with objects X (rank r1), Y (rank r2) and f : X -> Y."""

    def rows(rank, count, bound):
        return [[rng.randint(-bound, bound) for _ in range(rank)] for _ in range(count)]

    rels1 = rows(r1, rng.randint(0, 1) if r1 else 0, 4)
    cone1 = rows(r1, rng.randint(0, 3) if r1 else 0, 3)
    source = [None] * r2
    if r1:
        for j in range(r2):
            if rng.random() < 0.7:
                source[j] = (rng.randrange(r1), rng.choice((1, -1)))
        if r2 and all(s is None for s in source):
            source[rng.randrange(r2)] = (rng.randrange(r1), rng.choice((1, -1)))
    rels2 = [img for img in (_image(r, source) for r in rels1) if any(img)]
    rels2 += rows(r2, rng.randint(0, 1 - len(rels2)) if r2 else 0, 4)
    cone2 = [img for img in (_image(g, source) for g in cone1) if any(img)]
    cone2 += rows(r2, rng.randint(0, 3 - len(cone2)) if r2 else 0, 3)
    rng.shuffle(rels2)
    rng.shuffle(cone2)
    matrix = [[0] * r2 for _ in range(r1)]
    for j, s in enumerate(source):
        if s is not None:
            matrix[s[0]][j] = s[1]
    lines = _abelian_object_text("X", r1, rels1, cone1)
    lines += [""] + _abelian_object_text("Y", r2, rels2, cone2)
    # Into rank 0 every matrix row is empty and is written as a blank line,
    # as the program's own printer writes it; see NOTES.md on this defect.
    lines += ["", "morphism f : X -> Y", "matrix"] + [" ".join(map(str, r)) for r in matrix]
    return "\n".join(lines) + "\n", {"dom_rank": r1, "cod_rank": r2}


def _finite_object_text(name, order, table, cone) -> list[str]:
    lines = [f"object {name}", "universe finite", f"order {order}", "table"]
    lines += [" ".join(map(str, table[a * order : (a + 1) * order])) for a in range(order)]
    lines.append(_int_line("cone", sorted(cone)))
    return lines


@lru_cache(maxsize=None)
def factorizations(order: int) -> tuple:
    """Multisets of two or three catalog groups whose orders multiply to order."""
    names = sorted(_PERMUTATION_GROUPS)
    out = []

    def extend(prefix, start, left):
        if left == 1:
            if len(prefix) >= 2:
                out.append(tuple(prefix))
            return
        if len(prefix) == 3:
            return
        for i in range(start, len(names)):
            m = permutation_group(names[i])[0]
            if left % m == 0:
                extend(prefix + [names[i]], i, left // m)

    extend([], 0, order)
    return tuple(out)


def finite_file(rng: random.Random, order: int, cone_size: int) -> tuple[str, dict]:
    """One workspace: X a product group of the given order, Y one of its
    factors, f the projection onto it, X's cone the normal closure of
    cone_size random elements."""
    factors = list(rng.choice(factorizations(order)))
    rng.shuffle(factors)
    factors = tuple(factors)
    order, table = product_table(factors)
    k = rng.randrange(len(factors))
    radix = [permutation_group(name)[0] for name in factors]
    below = 1
    for m in radix[k + 1 :]:
        below *= m
    mapping = [(a // below) % radix[k] for a in range(order)]
    cod_order, cod_table = permutation_group(factors[k])
    cone_x, cone_y = set(), set()
    for _ in range(cone_size):
        s = rng.randrange(order)
        cone_x |= conjugacy_class(order, table, s)
        cone_y |= conjugacy_class(cod_order, cod_table, mapping[s])
    lines = _finite_object_text("X", order, table, cone_x)
    lines += [""] + _finite_object_text("Y", cod_order, cod_table, cone_y)
    lines += ["", "morphism f : X -> Y", _int_line("map", mapping)]
    return "\n".join(lines) + "\n", {"dom_order": order, "factors": "x".join(factors)}


def session_files(universe: str, seed: int, count: int):
    """Yield (text, info) for `count` files; the same seed gives the same files."""
    rng = random.Random(f"session-{universe}:{seed}")
    if universe == "abelian":
        cycle = []
        for _ in range(count):
            if not cycle:
                cycle = list(ABELIAN_RANK_PAIRS)
                rng.shuffle(cycle)
            yield abelian_file(rng, *cycle.pop())
    else:
        for i in range(count):
            k = len(FINITE_ORDERS)
            yield finite_file(rng, FINITE_ORDERS[i % k], (i + i // k) % 3)
