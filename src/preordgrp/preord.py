"""Preordered groups and their relative kernel and cokernel constructions.

An object pairs a group with a positive cone, a submonoid closed under
conjugation; a morphism is a group homomorphism carrying cone into cone.
Two decidable universes are supported:

  abelian  groups presented by integer relation matrices, cones given by
           generator rows, membership decided exactly by nonnegative
           integer programming;
  finite   Cayley-table groups, cones stored as closed element sets.

Alongside ordinary kernels and cokernels the module builds the relative
ones: the Z-kernel (same group, cone cut down to the part the morphism
kills), the Z-cokernel (quotient by the normal closure of the image of the
cone), the canonical torsion / torsion-free sequence of an object, the
discrete and stable-quotient endofunctors with their counit and unit, and
the pullback / pushout squares those (co)units induce, each packaged with
the comparison morphism onto the matching relative construction.

Abelian cone membership proofs travel with morphisms as certificate rows
(nonnegative coefficients over the codomain cone generators), so composing
or re-checking morphisms never re-runs the membership search.

Every abelian membership question goes through one oracle, cone_membership,
behind one bounded LRU cache keyed on (gens, relations, x).  The cache is
budget-exact, answering as the uncached search with the same state budget
would: a decided answer is served only to budgets at least the number of
states its search visited, UNDECIDED only to budgets no larger than the one
that ran out.  Samplers and factorization checks call it through
cone_image_certs.
"""

from dataclasses import dataclass, field
from functools import lru_cache

from . import fgabelian as ab
from . import finitegroup as fg
from .errors import DimensionError, ResourceLimitError, ValidationError
from .intmat import (
    HILBERT_STATE_CAP,
    IntMatrix,
    Vec,
    hnf_reduced,
    monoid_zero_solutions,
    nonneg_search,
    row_times_matrix,
)

ABELIAN = "abelian"
FINITE = "finite"


@dataclass(frozen=True)
class PreOrdObj:
    group: object  # FgAbGroup | FiniteGroup
    cone: object  # IntMatrix of generator rows | frozenset of elements

    @property
    def universe(self) -> str:
        return ABELIAN if isinstance(self.group, ab.FgAbGroup) else FINITE

    def __repr__(self):
        if self.universe == ABELIAN:
            return f"PreOrdObj({self.group!r}, cone={self.cone.to_rows()})"
        return f"PreOrdObj({self.group!r}, cone={sorted(self.cone)})"


@dataclass(frozen=True)
class PreOrdMor:
    dom: PreOrdObj
    cod: PreOrdObj
    map: object  # AbMorphism | FinMorphism
    certs: tuple | None = field(default=None, compare=False, repr=False)

    def __repr__(self):
        return f"PreOrdMor({self.dom!r} -> {self.cod!r})"


def make_object(group, cone) -> PreOrdObj:
    """Validate and build an object; finite cones are given by generators."""
    if isinstance(group, ab.FgAbGroup):
        if not isinstance(cone, IntMatrix):
            try:
                cone = IntMatrix.from_rows(cone, cols=group.rank)
            except DimensionError as exc:
                raise ValidationError(str(exc)) from exc
        if cone.cols != group.rank:
            raise ValidationError(
                f"cone rows have {cone.cols} entries, group rank is {group.rank}"
            )
        return PreOrdObj(group, cone)
    if isinstance(group, fg.FiniteGroup):
        closed = fg.submonoid_closure(group, cone)
        witness = fg.conjugation_witness(group, closed)
        if witness is not None:
            x, a = witness
            raise ValidationError(
                f"cone is not closed under conjugation: {x} . {a} . {x}^-1 escapes",
                witness=witness,
            )
        return PreOrdObj(group, closed)
    raise ValidationError(f"unsupported group {group!r}")


def discrete_object(group) -> PreOrdObj:
    """The group with the trivial preorder."""
    if isinstance(group, ab.FgAbGroup):
        return PreOrdObj(group, IntMatrix.zeros(0, group.rank))
    return make_object(group, ())


# Answer of a membership query whose search ran out of its state budget.
UNDECIDED = object()


@lru_cache(maxsize=65536)
def _membership_record(gens: IntMatrix, relations: IntMatrix, x: Vec) -> list:
    """The cache cell of one query, updated in place: [answer, states
    visited], or [UNDECIDED, largest budget known to run out]."""
    return [UNDECIDED, -1]


def cone_membership(gens: IntMatrix, relations: IntMatrix, x: Vec, budget: int):
    """Nonnegative coefficients c with x = c*gens modulo the relations'
    lattice, None when there are none, or UNDECIDED when settling it takes
    more than `budget` Hilbert states.  Cached; see the module docstring."""
    record = _membership_record(gens, relations, x)
    answer, states = record
    if answer is UNDECIDED:
        if budget <= states:
            return UNDECIDED
        try:
            got, states = nonneg_search(gens, relations, x, budget)
        except ResourceLimitError:
            record[1] = budget
            return UNDECIDED
        answer = None if got is None else got[0]
        record[:] = answer, states
    return answer if budget >= states else UNDECIDED


@lru_cache(maxsize=4096)
def _zero_solutions(gens: IntMatrix, relations: IntMatrix):
    return monoid_zero_solutions(gens, relations)


def cone_certificate(obj: PreOrdObj, x, budget: int | None = None):
    """Nonnegative coefficients writing x over the cone generators, or None.

    With a budget, a search needing more states returns UNDECIDED; without
    one it may use HILBERT_STATE_CAP states and raises ResourceLimitError
    beyond that.
    """
    x = tuple(x)
    if ab.is_zero_element(obj.group, x):
        return (0,) * obj.cone.rows
    limit = HILBERT_STATE_CAP if budget is None else budget
    got = cone_membership(obj.cone, obj.group.reduced_relations, x, limit)
    if got is UNDECIDED and budget is None:
        raise ResourceLimitError(f"Hilbert completion exceeded {HILBERT_STATE_CAP} states")
    return got


def cone_contains(obj: PreOrdObj, x) -> bool:
    if obj.universe == FINITE:
        return x in obj.cone
    return cone_certificate(obj, x) is not None


def cone_image_certs(dom: PreOrdObj, cod: PreOrdObj, mapping, budget: int):
    """Certificates for the images of dom's cone generators under mapping.

    Returns the tuple of certificates, or the first failure in generator
    order: None for an image outside cod's cone, UNDECIDED for one whose
    membership needs more than `budget` states.
    """
    certs = []
    for i in range(dom.cone.rows):
        cert = cone_certificate(cod, ab.apply(mapping, dom.cone.row(i)), budget)
        if cert is None or cert is UNDECIDED:
            return cert
        certs.append(cert)
    return tuple(certs)


def _verify_cert(cod: PreOrdObj, y: Vec, cert) -> Vec:
    cert = tuple(cert)
    if len(cert) != cod.cone.rows:
        raise ValidationError(
            f"certificate has {len(cert)} coefficients for {cod.cone.rows} generators"
        )
    if any(c < 0 for c in cert):
        raise ValidationError(f"certificate {cert} has a negative coefficient")
    combo = row_times_matrix(cert, cod.cone) if cod.cone.rows else (0,) * cod.group.rank
    if not ab.element_eq(cod.group, y, combo):
        raise ValidationError(f"certificate {cert} does not produce {y}")
    return cert


def make_morphism(dom: PreOrdObj, cod: PreOrdObj, mapping, certs=None) -> PreOrdMor:
    """Validate a morphism; raises unless every cone generator lands in the cone.

    For abelian codomains a membership certificate per domain generator is
    either checked (when supplied) or computed by the exact search.
    """
    if dom.universe != cod.universe:
        raise ValidationError("morphisms do not cross universes")
    if dom.universe == ABELIAN:
        if isinstance(mapping, ab.AbMorphism):
            if mapping.dom != dom.group or mapping.cod != cod.group:
                raise ValidationError("underlying morphism endpoints do not match")
            m = mapping
        else:
            m = ab.make_morphism(dom.group, cod.group, mapping)
        out = []
        for i in range(dom.cone.rows):
            y = ab.apply(m, dom.cone.row(i))
            if certs is not None:
                out.append(_verify_cert(cod, y, certs[i]))
            else:
                cert = cone_certificate(cod, y)
                if cert is None:
                    raise ValidationError(
                        f"cone generator {i} maps to {y}, outside the cone",
                        witness=(i, y),
                    )
                out.append(cert)
        return PreOrdMor(dom, cod, m, tuple(out))
    if isinstance(mapping, fg.FinMorphism):
        if mapping.dom != dom.group or mapping.cod != cod.group:
            raise ValidationError("underlying morphism endpoints do not match")
        m = mapping
    else:
        m = fg.make_fin_morphism(dom.group, cod.group, mapping)
    for p in sorted(dom.cone):
        if m.mapping[p] not in cod.cone:
            raise ValidationError(
                f"cone element {p} maps to {m.mapping[p]}, outside the cone",
                witness=p,
            )
    return PreOrdMor(dom, cod, m)


def identity_preord(obj: PreOrdObj) -> PreOrdMor:
    if obj.universe == ABELIAN:
        certs = tuple(_unit(obj.cone.rows, i) for i in range(obj.cone.rows))
        return PreOrdMor(obj, obj, ab.identity_morphism(obj.group), certs)
    return PreOrdMor(obj, obj, fg.fin_identity(obj.group))


def zero_preord(dom: PreOrdObj, cod: PreOrdObj) -> PreOrdMor:
    if dom.universe == ABELIAN:
        certs = ((0,) * cod.cone.rows,) * dom.cone.rows
        return PreOrdMor(dom, cod, ab.zero_morphism(dom.group, cod.group), certs)
    return PreOrdMor(dom, cod, fg.fin_zero_morphism(dom.group, cod.group))


def compose_preord(f: PreOrdMor, g: PreOrdMor) -> PreOrdMor:
    """f then g; certificates compose by matrix product when both carry them."""
    if f.cod != g.dom:
        raise ValidationError("middle objects differ in composition")
    if f.dom.universe == ABELIAN:
        m = ab.compose(f.map, g.map)
        certs = None
        if f.certs is not None and g.certs is not None:
            width = g.cod.cone.rows
            gmat = IntMatrix.from_rows(list(g.certs), cols=width)
            certs = tuple(row_times_matrix(c, gmat) for c in f.certs)
        return PreOrdMor(f.dom, g.cod, m, certs)
    return PreOrdMor(f.dom, g.cod, fg.fin_compose(f.map, g.map))


def mor_eq(f: PreOrdMor, g: PreOrdMor) -> bool:
    if f.dom != g.dom or f.cod != g.cod:
        return False
    if f.dom.universe == ABELIAN:
        return ab.morphism_eq(f.map, g.map)
    return f.map.mapping == g.map.mapping


def _unit(length: int, position: int) -> Vec:
    return tuple(1 if j == position else 0 for j in range(length))


@dataclass(frozen=True)
class MorphismClass:
    mono: bool
    epi: bool
    regular_epi: bool


def classify_morphism(f: PreOrdMor) -> MorphismClass:
    """Monos are injections, epis surjections; a regular epi also covers the cone."""
    if f.dom.universe == ABELIAN:
        mono = ab.is_injective(f.map)
        epi = ab.is_surjective(f.map)
        reg = False
        if epi:
            image = PreOrdObj(f.cod.group, f.dom.cone.mul(f.map.matrix))
            reg = all(
                cone_contains(image, f.cod.cone.row(k)) for k in range(f.cod.cone.rows)
            )
        return MorphismClass(mono, epi, reg)
    mono = fg.fin_is_injective(f.map)
    epi = fg.fin_is_surjective(f.map)
    image_cone = {f.map.mapping[p] for p in f.dom.cone}
    return MorphismClass(mono, epi, epi and f.cod.cone <= image_cone)


def is_isomorphism(f: PreOrdMor) -> bool:
    c = classify_morphism(f)
    return c.mono and c.epi and c.regular_epi


def kernel(f: PreOrdMor):
    """(K, K meet P) with its inclusion; returns (object, morphism into dom)."""
    dom = f.dom
    if dom.universe == ABELIAN:
        kgroup, incl = ab.kernel(f.map)
        sols = _zero_solutions(
            dom.cone.mul(f.map.matrix), f.cod.group.reduced_relations
        )
        rows = []
        for c in sols:
            x = row_times_matrix(c, dom.cone)
            alpha = ab.make_morphism(_Z1, dom.group, [list(x)])
            phi = ab.factor_through_injection(alpha, incl)
            rows.append(phi.matrix.row(0))
        kobj = PreOrdObj(kgroup, IntMatrix.from_rows(rows, cols=kgroup.rank))
        return kobj, PreOrdMor(kobj, dom, incl, tuple(sols))
    kset = fg.kernel_set(f.map)
    sub, incl = fg.subgroup_from_set(dom.group, kset)
    kcone = frozenset(
        i for i, a in enumerate(incl.mapping) if a in dom.cone
    )
    kobj = PreOrdObj(sub, kcone)
    return kobj, PreOrdMor(kobj, dom, incl)


def cokernel(f: PreOrdMor):
    """Quotient by the normal closure of the image, cone pushed forward."""
    cod = f.cod
    if cod.universe == ABELIAN:
        qgroup, proj = ab.cokernel(f.map)
        qobj = PreOrdObj(qgroup, cod.cone)
        certs = tuple(_unit(cod.cone.rows, i) for i in range(cod.cone.rows))
        return qobj, PreOrdMor(cod, qobj, proj, certs)
    nset = fg.normal_closure(cod.group, fg.image_set(f.map))
    quot, proj = fg.quotient_by_normal(cod.group, nset)
    qobj = PreOrdObj(quot, frozenset(proj.mapping[p] for p in cod.cone))
    return qobj, PreOrdMor(cod, qobj, proj)


def is_z_trivial(f: PreOrdMor) -> bool:
    """True when the morphism kills the whole cone."""
    if f.dom.universe == ABELIAN:
        return all(
            ab.is_zero_element(f.cod.group, ab.apply(f.map, f.dom.cone.row(i)))
            for i in range(f.dom.cone.rows)
        )
    return all(f.map.mapping[p] == 0 for p in f.dom.cone)


def z_kernel(f: PreOrdMor):
    """Same group, cone restricted to what f kills; returns (object, morphism).

    The morphism is the identity on the group.  Abelian cone generators are
    the minimal nonnegative combinations of the original generators that
    map to zero, in the order the Hilbert basis lists them.
    """
    dom = f.dom
    if dom.universe == ABELIAN:
        sols = _zero_solutions(
            dom.cone.mul(f.map.matrix), f.cod.group.reduced_relations
        )
        rows = [row_times_matrix(c, dom.cone) for c in sols]
        zobj = PreOrdObj(dom.group, IntMatrix.from_rows(rows, cols=dom.group.rank))
        return zobj, PreOrdMor(zobj, dom, ab.identity_morphism(dom.group), tuple(sols))
    zcone = frozenset(p for p in dom.cone if f.map.mapping[p] == 0)
    zobj = PreOrdObj(dom.group, zcone)
    return zobj, PreOrdMor(zobj, dom, fg.fin_identity(dom.group))


def z_cokernel(f: PreOrdMor):
    """Quotient by the normal closure of the image of the cone."""
    cod = f.cod
    if cod.universe == ABELIAN:
        srows = f.dom.cone.mul(f.map.matrix)
        qgroup = ab.FgAbGroup(
            cod.group.rank, hnf_reduced(cod.group.relations.stack(srows))
        )
        proj = ab.AbMorphism(cod.group, qgroup, IntMatrix.identity(cod.group.rank))
        qobj = PreOrdObj(qgroup, cod.cone)
        certs = tuple(_unit(cod.cone.rows, i) for i in range(cod.cone.rows))
        return qobj, PreOrdMor(cod, qobj, proj, certs)
    simage = fg.normal_closure(
        cod.group, {f.map.mapping[p] for p in f.dom.cone}
    )
    quot, proj = fg.quotient_by_normal(cod.group, simage)
    qobj = PreOrdObj(quot, frozenset(proj.mapping[p] for p in cod.cone))
    return qobj, PreOrdMor(cod, qobj, proj)


def touched_unit_generators(obj: PreOrdObj) -> tuple:
    """Cone generators that occur in some zero-sum; these generate the units.

    A generator g_i is a unit exactly when some minimal nonnegative
    combination of the generators vanishing in the group gives it positive
    weight: the rest of that combination is then an inverse for g_i, and
    conversely any unit's two witnessing combinations sum to a vanishing
    one.  The touched generators therefore generate the whole unit group
    as a monoid."""
    sols = _zero_solutions(obj.cone, obj.group.reduced_relations)
    touched = {i for c in sols for i in range(len(c)) if c[i] > 0}
    return tuple(sorted(touched))


def unit_elements(obj: PreOrdObj) -> frozenset:
    """Finite universe: cone elements whose inverse is also in the cone."""
    return frozenset(p for p in obj.cone if obj.group.inv(p) in obj.cone)


@dataclass(frozen=True)
class CanonicalSeq:
    torsion: PreOrdObj
    kappa: PreOrdMor  # torsion -> obj, identity on the group
    obj: PreOrdObj
    torsion_free: PreOrdObj
    eta: PreOrdMor  # obj -> torsion_free, quotient by the units


def canonical_sequence(obj: PreOrdObj) -> CanonicalSeq:
    """Units-and-quotient sequence (G, U(P)) -> (G, P) ->> (G/U(P), image of P)."""
    if obj.universe == ABELIAN:
        touched = touched_unit_generators(obj)
        trows = [obj.cone.row(i) for i in touched]
        tobj = PreOrdObj(obj.group, IntMatrix.from_rows(trows, cols=obj.group.rank))
        kappa = PreOrdMor(
            tobj,
            obj,
            ab.identity_morphism(obj.group),
            tuple(_unit(obj.cone.rows, i) for i in touched),
        )
        _, incl = ab.subgroup_generated(obj.group, trows)
        qgroup, proj = ab.quotient_by_subgroup(obj.group, incl)
        tfobj = PreOrdObj(qgroup, obj.cone)
        certs = tuple(_unit(obj.cone.rows, i) for i in range(obj.cone.rows))
        eta = PreOrdMor(obj, tfobj, proj, certs)
        return CanonicalSeq(tobj, kappa, obj, tfobj, eta)
    units = unit_elements(obj)
    tobj = PreOrdObj(obj.group, units)
    kappa = PreOrdMor(tobj, obj, fg.fin_identity(obj.group))
    quot, proj = fg.quotient_by_normal(obj.group, units)
    tfobj = PreOrdObj(quot, frozenset(proj.mapping[p] for p in obj.cone))
    eta = PreOrdMor(obj, tfobj, proj)
    return CanonicalSeq(tobj, kappa, obj, tfobj, eta)


@dataclass(frozen=True)
class ObjectClass:
    torsion: bool  # the cone is a group
    torsion_free: bool  # the cone has no nontrivial units


def classify_object(obj: PreOrdObj) -> ObjectClass:
    if obj.universe == ABELIAN:
        touched = set(touched_unit_generators(obj))
        torsion = touched == set(range(obj.cone.rows))
        torsion_free = all(
            ab.is_zero_element(obj.group, obj.cone.row(i)) for i in touched
        )
        return ObjectClass(torsion, torsion_free)
    # a closed subset of a finite group is a subgroup, so always torsion
    return ObjectClass(True, obj.cone == frozenset({0}))


def functor_D(obj: PreOrdObj) -> PreOrdObj:
    """Same group, trivial preorder."""
    return discrete_object(obj.group)


def functor_D_mor(f: PreOrdMor) -> PreOrdMor:
    if f.dom.universe == ABELIAN:
        return PreOrdMor(functor_D(f.dom), functor_D(f.cod), f.map, ())
    return PreOrdMor(functor_D(f.dom), functor_D(f.cod), f.map)


def counit_iota(obj: PreOrdObj) -> PreOrdMor:
    """D(X) -> X, the identity on the underlying group."""
    if obj.universe == ABELIAN:
        return PreOrdMor(functor_D(obj), obj, ab.identity_morphism(obj.group), ())
    return PreOrdMor(functor_D(obj), obj, fg.fin_identity(obj.group))


def functor_C(obj: PreOrdObj):
    """Quotient by the subgroup the cone generates; returns (C(X), unit pi)."""
    if obj.universe == ABELIAN:
        _, incl = ab.subgroup_generated(obj.group, obj.cone.to_rows())
        qgroup, proj = ab.quotient_by_subgroup(obj.group, incl)
        cobj = discrete_object(qgroup)
        pi = PreOrdMor(obj, cobj, proj, ((),) * obj.cone.rows)
        return cobj, pi
    # the cone is already a normal subgroup here
    quot, proj = fg.quotient_by_normal(obj.group, obj.cone)
    cobj = discrete_object(quot)
    return cobj, PreOrdMor(obj, cobj, proj)


def functor_C_mor(f: PreOrdMor) -> PreOrdMor:
    cdom, pid = functor_C(f.dom)
    ccod, pic = functor_C(f.cod)
    if f.dom.universe == ABELIAN:
        beta = ab.compose(f.map, pic.map)
        psi = ab.factor_through_surjection(beta, pid.map)
        if psi is None:
            raise ValidationError("stable quotient does not receive the morphism")
        return PreOrdMor(cdom, ccod, psi, ())
    mapping = [0] * cdom.group.order
    for a in range(f.dom.group.order):
        mapping[pid.map.mapping[a]] = pic.map.mapping[f.map.mapping[a]]
    psi = fg.make_fin_morphism(cdom.group, ccod.group, mapping)
    return PreOrdMor(cdom, ccod, psi)


@dataclass(frozen=True)
class PullbackSquare:
    obj: PreOrdObj
    to_dom: PreOrdMor  # projection onto the morphism's domain
    to_discrete: PreOrdMor  # projection onto D(codomain)
    comparison: PreOrdMor  # from the z-kernel object, an isomorphism


def pullback_with_counit(f: PreOrdMor) -> PullbackSquare:
    """Pullback of f along the counit D(cod) -> cod.

    The comparison morphism re-states the z-kernel as this pullback; its
    cone generators are aligned index by index with the z-kernel's.
    """
    X, Y = f.dom, f.cod
    dy = functor_D(Y)
    if X.universe == FINITE:
        # graph of f inside X x Y, presented on its first coordinate
        zobj, _ = z_kernel(f)
        pbobj = zobj
        to_dom = PreOrdMor(pbobj, X, fg.fin_identity(X.group))
        to_disc = PreOrdMor(pbobj, dy, f.map)
        comparison = PreOrdMor(zobj, pbobj, fg.fin_identity(X.group))
        return PullbackSquare(pbobj, to_dom, to_disc, comparison)
    rx, ry = X.group.rank, Y.group.rank
    ds = ab.direct_sum(X.group, Y.group)
    diff_rows = [list(f.map.matrix.row(i)) for i in range(rx)]
    diff_rows += [list(r) for r in IntMatrix.identity(ry).neg().to_rows()]
    diff = ab.AbMorphism(ds.group, Y.group, IntMatrix.from_rows(diff_rows, cols=ry))
    pbgroup, incl = ab.kernel(diff)
    p1 = ab.compose(incl, ds.proj_left)
    p2 = ab.compose(incl, ds.proj_right)
    sols = _zero_solutions(X.cone.mul(f.map.matrix), Y.group.reduced_relations)
    rows = []
    for c in sols:
        x = row_times_matrix(c, X.cone)
        alpha = ab.make_morphism(_Z1, ds.group, [list(x) + [0] * ry])
        rows.append(ab.factor_through_injection(alpha, incl).matrix.row(0))
    pbobj = PreOrdObj(pbgroup, IntMatrix.from_rows(rows, cols=pbgroup.rank))
    to_dom = PreOrdMor(pbobj, X, p1, tuple(sols))
    to_disc = PreOrdMor(pbobj, dy, p2, ((),) * len(sols))
    zobj, _ = z_kernel(f)
    graph_rows = [
        list(_unit(rx, i)) + list(f.map.matrix.row(i)) for i in range(rx)
    ]
    graph = ab.make_morphism(X.group, ds.group, graph_rows)
    cmp_map = ab.factor_through_injection(graph, incl)
    comparison = PreOrdMor(
        zobj, pbobj, cmp_map, tuple(_unit(len(sols), j) for j in range(len(sols)))
    )
    return PullbackSquare(pbobj, to_dom, to_disc, comparison)


@dataclass(frozen=True)
class PushoutSquare:
    obj: PreOrdObj
    from_cod: PreOrdMor  # injection of the morphism's codomain
    from_stable: PreOrdMor  # injection of C(domain)
    comparison: PreOrdMor  # from the z-cokernel object, an isomorphism


def pushout_with_unit(f: PreOrdMor) -> PushoutSquare:
    """Pushout of f along the unit dom -> C(dom); abelian universe only."""
    if f.dom.universe == FINITE:
        raise ValidationError("pushouts are only available in the abelian universe")
    X, Y = f.dom, f.cod
    cx, _ = functor_C(X)
    rx, ry, rc = X.group.rank, Y.group.rank, cx.group.rank
    ds = ab.direct_sum(Y.group, cx.group)
    graph_rows = [
        list(f.map.matrix.row(i)) + [-v for v in _unit(rc, i)] for i in range(rx)
    ]
    relations = hnf_reduced(
        ds.group.relations.stack(IntMatrix.from_rows(graph_rows, cols=ry + rc))
    )
    pogroup = ab.FgAbGroup(ry + rc, relations)
    in1 = ab.AbMorphism(Y.group, pogroup, ds.inj_left.matrix)
    in2 = ab.AbMorphism(cx.group, pogroup, ds.inj_right.matrix)
    rows = [list(Y.cone.row(i)) + [0] * rc for i in range(Y.cone.rows)]
    poobj = PreOrdObj(pogroup, IntMatrix.from_rows(rows, cols=ry + rc))
    units = tuple(_unit(Y.cone.rows, i) for i in range(Y.cone.rows))
    from_cod = PreOrdMor(Y, poobj, in1, units)
    from_stable = PreOrdMor(cx, poobj, in2, ())
    zobj, _ = z_cokernel(f)
    cmp_map = ab.make_morphism(zobj.group, pogroup, in1.matrix.to_rows())
    comparison = PreOrdMor(zobj, poobj, cmp_map, units)
    return PushoutSquare(poobj, from_cod, from_stable, comparison)


_Z1 = ab.make_group(1, [])
