"""Finitely generated abelian groups presented by integer relation matrices.

A group is Z^rank modulo the row span of its relation matrix; an element is
any integer row vector of length rank, with equality decided modulo the
relation lattice.  Morphisms are integer matrices acting on row vectors,
checked to send relations into relations.

Groups built by the constructions here (kernels, quotients, subgroup
presentations, ...) carry HNF-reduced relation matrices, so independently
computed presentations of the same construction compare structurally equal;
make_group keeps the caller's relation matrix untouched.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import DimensionError, ResourceLimitError, ValidationError
from .intmat import (
    IntMatrix,
    Vec,
    hermite_normal_form,
    hnf_reduced,
    left_kernel,
    row_times_matrix,
    smith_normal_form,
    solve_left,
    unimodular_inverse,
    vec_sub,
)

# Largest rank make_group accepts: normal forms take at least cubic time in it.
RANK_CAP = 64


@dataclass(frozen=True)
class FgAbGroup:
    rank: int
    relations: IntMatrix  # rows live in Z^rank

    @cached_property
    def reduced_relations(self) -> IntMatrix:
        return hnf_reduced(self.relations)

    def __repr__(self):
        return f"FgAbGroup(rank={self.rank}, relations={self.relations.to_rows()})"


def make_group(rank: int, relation_rows) -> FgAbGroup:
    if rank < 0:
        raise ValidationError(f"negative rank {rank}")
    if rank > RANK_CAP:
        raise ResourceLimitError(f"group rank {rank} exceeds cap {RANK_CAP}")
    try:
        rel = IntMatrix.from_rows(relation_rows, cols=rank)
    except DimensionError as exc:
        raise ValidationError(str(exc)) from exc
    return FgAbGroup(rank, rel)


def element_eq(g: FgAbGroup, x: Vec, y: Vec) -> bool:
    if len(x) != g.rank or len(y) != g.rank:
        raise DimensionError(f"elements of length {len(x)}, {len(y)} in rank {g.rank}")
    return solve_left(g.reduced_relations, vec_sub(x, y)) is not None


def is_zero_element(g: FgAbGroup, x: Vec) -> bool:
    return solve_left(g.reduced_relations, x) is not None if any(x) else True


def is_trivial(g: FgAbGroup) -> bool:
    """All of Z^rank collapses: the reduced relations span the full lattice."""
    return g.rank == 0 or g.reduced_relations == IntMatrix.identity(g.rank)


@dataclass(frozen=True)
class AbMorphism:
    dom: FgAbGroup
    cod: FgAbGroup
    matrix: IntMatrix  # dom.rank x cod.rank, row i = image of basis vector i


def make_morphism(dom: FgAbGroup, cod: FgAbGroup, matrix_rows) -> AbMorphism:
    m = (
        matrix_rows
        if isinstance(matrix_rows, IntMatrix)
        else IntMatrix.from_rows(matrix_rows, cols=cod.rank)
    )
    if m.rows != dom.rank or m.cols != cod.rank:
        raise ValidationError(
            f"matrix is {m.rows}x{m.cols}, needs {dom.rank}x{cod.rank}", witness=m
        )
    for i in range(dom.relations.rows):
        r = dom.relations.row(i)
        if not is_zero_element(cod, row_times_matrix(r, m)):
            raise ValidationError(
                f"relation row {r} does not map into codomain relations", witness=r
            )
    return AbMorphism(dom, cod, m)


def apply(f: AbMorphism, x: Vec) -> Vec:
    return row_times_matrix(x, f.matrix)


def identity_morphism(g: FgAbGroup) -> AbMorphism:
    return AbMorphism(g, g, IntMatrix.identity(g.rank))


def zero_morphism(dom: FgAbGroup, cod: FgAbGroup) -> AbMorphism:
    return AbMorphism(dom, cod, IntMatrix.zeros(dom.rank, cod.rank))


def compose(f: AbMorphism, g: AbMorphism) -> AbMorphism:
    """f then g; requires f.cod == g.dom structurally."""
    if f.cod != g.dom:
        raise ValidationError("composition endpoints do not match")
    return AbMorphism(f.dom, g.cod, f.matrix.mul(g.matrix))


def morphism_eq(f: AbMorphism, g: AbMorphism) -> bool:
    if f.dom != g.dom or f.cod != g.cod:
        return False
    for i in range(f.dom.rank):
        if not element_eq(f.cod, f.matrix.row(i), g.matrix.row(i)):
            return False
    return True


@lru_cache(maxsize=4096)
def preimage_lattice(m: IntMatrix, cod_relations: IntMatrix) -> IntMatrix:
    """Rows generating {x : x * m lies in the row span of cod_relations}, cached by value."""
    stacked = m.stack(cod_relations)
    kern = left_kernel(stacked)
    rows = [kern.row(i)[: m.rows] for i in range(kern.rows)]
    return hnf_reduced(IntMatrix.from_rows(rows, cols=m.rows))


def present_subgroup(g: FgAbGroup, gen_rows) -> tuple[FgAbGroup, AbMorphism]:
    """Independent presentation of the subgroup generated by the given rows.

    The relation lattice among the generators is put into Smith normal form;
    coordinates with invariant factor 1 are dropped, leaving a presentation
    whose inclusion into g is injective by construction.
    """
    gens = (
        gen_rows
        if isinstance(gen_rows, IntMatrix)
        else IntMatrix.from_rows(gen_rows, cols=g.rank)
    )
    if gens.cols != g.rank:
        raise DimensionError(f"generators of length {gens.cols} in rank {g.rank}")
    m = gens.rows
    if m == 0:
        sub = make_group(0, [])
        return sub, AbMorphism(sub, g, IntMatrix.zeros(0, g.rank))
    coeff_relations = preimage_lattice(gens, g.relations)  # {c : c*gens == 0 in g}
    d, v = smith_normal_form(coeff_relations)
    vinv = unimodular_inverse(v)
    invariants = [d.entry(i, i) if i < min(d.rows, d.cols) else 0 for i in range(m)]
    keep = [i for i in range(m) if invariants[i] != 1]
    newgens = IntMatrix.from_rows([vinv.row(i) for i in keep], cols=m).mul(gens)
    rel_rows = []
    for pos, i in enumerate(keep):
        if invariants[i] > 1:
            rel_rows.append(tuple(invariants[i] if j == pos else 0 for j in range(len(keep))))
    # rows f * e_pos, f > 1, at increasing positions: already HNF-reduced
    sub = FgAbGroup(len(keep), IntMatrix.from_rows(rel_rows, cols=len(keep)))
    incl = make_morphism(sub, g, newgens)
    return sub, incl


def kernel(f: AbMorphism) -> tuple[FgAbGroup, AbMorphism]:
    """Kernel subgroup with its inclusion, re-presented independently."""
    lat = preimage_lattice(f.matrix, f.cod.relations)
    return present_subgroup(f.dom, lat)


def quotient(g: FgAbGroup, rows) -> tuple[FgAbGroup, AbMorphism]:
    """g modulo the subgroup the rows generate; projection has identity matrix.

    The reduced HNF of the stacked relations is canonical, so no subgroup
    presentation is needed.
    """
    gens = rows if isinstance(rows, IntMatrix) else IntMatrix.from_rows(rows, cols=g.rank)
    q = FgAbGroup(g.rank, hnf_reduced(g.relations.stack(gens)))
    return q, AbMorphism(g, q, IntMatrix.identity(g.rank))


def cokernel(f: AbMorphism) -> tuple[FgAbGroup, AbMorphism]:
    """Quotient of the codomain by the image."""
    return quotient(f.cod, f.matrix)


def direct_sum(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    """a + b on the coordinates of a followed by those of b."""
    n, m = a.rank, b.rank
    rows = []
    for i in range(a.relations.rows):
        rows.append(a.relations.row(i) + (0,) * m)
    for i in range(b.relations.rows):
        rows.append((0,) * n + b.relations.row(i))
    return FgAbGroup(n + m, hnf_reduced(IntMatrix.from_rows(rows, cols=n + m)))


def is_injective(f: AbMorphism) -> bool:
    """The kernel's generators, the rows of preimage_lattice, are 0 in f.dom."""
    lat = preimage_lattice(f.matrix, f.cod.relations)
    return all(is_zero_element(f.dom, x) for x in lat.to_rows())


def is_surjective(f: AbMorphism) -> bool:
    q, _ = cokernel(f)
    return is_trivial(q)


def _preimages(f: AbMorphism, targets: IntMatrix) -> list[Vec] | None:
    """Per target row x, a c with c * f.matrix = x in f.cod, or None if some
    x has none: the first f.dom.rank entries of y * u, where y * h = x and
    (h, u) is the HNF of f.matrix stacked on f.cod.relations."""
    h, u = hermite_normal_form(f.matrix.stack(f.cod.relations))
    rows = []
    for x in targets.to_rows():
        y = solve_left(h, x)
        if y is None:
            return None
        rows.append(row_times_matrix(y, u)[: f.dom.rank])
    return rows


def factor_through_injection(
    alpha: AbMorphism, incl: AbMorphism
) -> AbMorphism | None:
    """Solve alpha = phi ; incl for phi, given morphisms into a common group.

    Works row by row: alpha's basis image must be an integer combination of
    incl's generator images modulo the ambient relations.  Returns None when
    some row has no solution.
    """
    if alpha.cod != incl.cod:
        raise ValidationError("factorization endpoints do not match")
    rows = _preimages(incl, alpha.matrix)
    return None if rows is None else make_morphism(alpha.dom, incl.dom, rows)


def factor_through_surjection(
    beta: AbMorphism, proj: AbMorphism
) -> AbMorphism | None:
    """Solve beta = proj ; psi for psi, given a surjective proj."""
    if beta.dom != proj.dom:
        raise ValidationError("factorization endpoints do not match")
    pres = _preimages(proj, IntMatrix.identity(proj.cod.rank))
    if pres is None:
        return None  # proj not surjective onto some coordinate
    rows = [row_times_matrix(pre, beta.matrix) for pre in pres]
    try:
        psi = make_morphism(proj.cod, beta.cod, rows)
    except ValidationError:
        return None
    if not morphism_eq(compose(proj, psi), beta):
        return None
    return psi

