"""Computable category of preordered groups over two decidable universes.

The package is organized in layers; import the modules directly for the
full surface of each one:

    intmat       exact integer matrices, Smith/Hermite forms, Hilbert bases
    fgabelian    finitely generated abelian groups via relation matrices
    finitegroup  finite groups via Cayley tables
    preord       preordered groups: (co)kernels relative to discrete objects,
                 pretorsion decomposition, the adjoint triple, squares
    monpos       the cone functor P and the group completion Σ; a monoid is
                 the object it is the cone of
    probes       the fixed probe library and the seeded samplers
    verify       certificate-producing checks for every universal property;
                 p-functor checks the units P gives by membership queries
    fileformat   the line-oriented workspace format
    cli          the `preordgrp` command

The names re-exported here cover the objects of daily use.
"""

from .errors import (
    DimensionError,
    ParseError,
    PreordError,
    ResourceLimitError,
    ValidationError,
)
from .fgabelian import FgAbGroup, make_group
from .fileformat import Workspace, format_workspace, parse_workspace
from .finitegroup import FiniteGroup, cyclic_group, group_from_permutations, make_finite_group
from .intmat import IntMatrix, hilbert_basis, nonneg_feasible
from .monpos import positive_cone, torsion_ses
from .preord import (
    ABELIAN,
    FINITE,
    PreOrdMor,
    PreOrdObj,
    canonical_sequence,
    classify_morphism,
    classify_object,
    discrete_object,
    is_z_trivial,
    make_morphism,
    make_object,
    z_cokernel,
    z_kernel,
)
from .verify import Certificate, claim_names, format_certificates, run_all, run_claim

__version__ = "0.1.0"

__all__ = [
    "ABELIAN",
    "Certificate",
    "DimensionError",
    "FINITE",
    "FgAbGroup",
    "FiniteGroup",
    "IntMatrix",
    "ParseError",
    "PreOrdMor",
    "PreOrdObj",
    "PreordError",
    "ResourceLimitError",
    "ValidationError",
    "Workspace",
    "canonical_sequence",
    "claim_names",
    "classify_morphism",
    "classify_object",
    "cyclic_group",
    "discrete_object",
    "format_certificates",
    "format_workspace",
    "group_from_permutations",
    "hilbert_basis",
    "is_z_trivial",
    "make_finite_group",
    "make_group",
    "make_morphism",
    "make_object",
    "nonneg_feasible",
    "parse_workspace",
    "positive_cone",
    "run_all",
    "run_claim",
    "torsion_ses",
    "z_cokernel",
    "z_kernel",
]
