"""Source structure: no dead helpers in the package."""

import ast
import dataclasses
import pathlib
import re

import preordgrp
from preordgrp import preord as po

SRC = pathlib.Path(preordgrp.__file__).parent

# Lines that branch on the universe outside the backends' own dispatch.
# Each cap is the count the code has reached, so the count can only go
# down; lower it when a change removes more.
DISPATCH = re.compile(
    r"universe (==|!=)|isinstance\([^)]*(FgAbGroup|FiniteGroup|AbMorphism|FinMorphism)"
)
DISPATCH_CAP = 17

# Lines in the package's source files, which ROADMAP.md measures progress
# by; like DISPATCH_CAP, lower it when a change removes more.
SRC_LINE_CAP = 4125

# Top-level functions kept with no caller in src/.
ALLOWED_UNUSED = {
    # The Smith-form oracle from determinantal divisors (ROADMAP item 5)
    # computes minors with it; today the HNF tests check unimodularity.
    "determinant": "kept for the determinantal-divisor SNF oracle",
    # The tests' independent oracle for lattice membership and the solvers.
    "solve_integer": "test oracle for integer lattice membership",
}


def _identifiers(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_top_level_function_is_used():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = {name for tree in trees.values() for name in _identifiers(tree)}
    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name not in used
        and node.name not in preordgrp.__all__
        and node.name not in ALLOWED_UNUSED
    ]
    assert unused == []


def test_allowlist_names_exist():
    text = "\n".join(path.read_text() for path in SRC.glob("*.py"))
    for name in ALLOWED_UNUSED:
        assert re.search(rf"^def {name}\(", text, re.MULTILINE), name


def test_universe_dispatch_stays_within_its_cap():
    hits = [
        f"{path.name}:{n}"
        for path in sorted(SRC.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if DISPATCH.search(line)
    ]
    assert len(hits) <= DISPATCH_CAP, hits


def test_source_lines_stay_within_their_cap():
    lines = sum(len(path.read_text().splitlines()) for path in SRC.glob("*.py"))
    assert lines <= SRC_LINE_CAP, lines


def test_morphisms_carry_no_certificates():
    # the cone functor asks the membership oracle for its certificates
    assert [f.name for f in dataclasses.fields(po.PreOrdMor)] == ["dom", "cod", "map"]


def test_verify_is_written_on_the_backends():
    # verify reaches the universes only through preord's backends
    modules = set()
    for node in ast.walk(ast.parse((SRC / "verify.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            modules.update(alias.name for alias in node.names)
    leaves = {name.split(".")[-1] for name in modules}
    assert not leaves & {"fgabelian", "finitegroup"}, modules
