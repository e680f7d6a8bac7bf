"""Source structure: no dead helpers in the package."""

import ast
import dataclasses
import os
import pathlib
import re
import subprocess
import sys

import preordgrp
from preordgrp import preord as po

SRC = pathlib.Path(preordgrp.__file__).parent

# Lines that branch on the universe outside the backends' own dispatch.
# Each cap is the count the code has reached, so the count can only go
# down; lower it when a change removes more.
DISPATCH = re.compile(
    r"universe (==|!=)|isinstance\([^)]*(FgAbGroup|FiniteGroup|AbMorphism|FinMorphism)"
)
DISPATCH_CAP = 16

# Lines in the package's source files, which ROADMAP.md measures progress
# by; like DISPATCH_CAP, lower it when a change removes more.
SRC_LINE_CAP = 3925


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
    ]
    assert unused == []


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


def test_no_module_imports_hashlib():
    # hashlib loads OpenSSL's libcrypto; BLAKE2b comes from _blake2
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text()))
            if (isinstance(node, ast.Import) and "hashlib" in [a.name for a in node.names])
            or (isinstance(node, ast.ImportFrom) and node.module == "hashlib")
        ]
    assert offenders == []


def test_a_process_never_loads_hashlib():
    code = "\n".join([
        "import sys",
        "import preordgrp, preordgrp.cli",
        "from preordgrp import probes, verify",
        "from preordgrp.rng import DetRng",
        "DetRng.from_seed(0).child('draw').randint(0, 9)",
        "verify._obj_key(probes.finite_probes()[0].obj)",
        "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))",
    ])
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


def test_verify_takes_constructions_not_corrupt_flags():
    # a claim's mutants are replacement constructions passed by keyword
    named = [
        arg.arg
        for node in ast.walk(ast.parse((SRC / "verify.py").read_text()))
        if isinstance(node, (ast.FunctionDef, ast.Lambda))
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
    ]
    assert named and "corrupt" not in named


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


def test_caches_key_on_values_not_groups():
    # a cache keyed on a group or an object keeps its Cayley table alive,
    # and an unbounded one grows for the life of the process
    objects = {"FiniteGroup", "FgAbGroup", "PreOrdObj", "PreOrdMor"}
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            keys = {ast.unparse(a.annotation).split(".")[-1] for a in args if a.annotation}
            for text in map(ast.unparse, node.decorator_list):
                cache = text.split("(")[0].split(".")[-1]
                unbounded = cache == "cache" or "maxsize=None" in text
                if cache in ("lru_cache", "cache") and (keys & objects or unbounded):
                    offenders.append(f"{path.name}:{node.name}")
    assert offenders == []


def _scoped_names(node, scope):
    """(enclosing def names, identifier) for every name and attribute read."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name):
            yield scope, child.id
        elif isinstance(child, ast.Attribute):
            yield scope, child.attr
        named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
        yield from _scoped_names(child, scope + (child.name,) if named else scope)


def test_sigma_is_assembled_in_one_place():
    # the completion object is built by comparison_morphism alone; every
    # other construction reads Σ off it
    readers = {
        ".".join((path.stem, *scope))
        for path in sorted(SRC.glob("*.py"))
        for scope, name in _scoped_names(ast.parse(path.read_text()), ())
        if name in ("group_completion", "completion_cone")
    }
    assert readers == {"monpos.comparison_morphism"}


def test_one_sampler_loop():
    # every morphism sampler retries through probes._sampled
    loops = [
        node
        for node in ast.walk(ast.parse((SRC / "probes.py").read_text()))
        if isinstance(node, ast.For) and ast.unparse(node.iter) == "range(MORPHISM_TRIES)"
    ]
    assert len(loops) == 1


def test_probes_are_swept_in_one_witness_loop():
    # a universal property is checked by a call of verify._universal, which
    # owns the loop over the probes; only the suite verifiers walk them too
    readers = {
        ".".join(scope)
        for scope, name in _scoped_names(ast.parse((SRC / "verify.py").read_text()), ())
        if name == "probes_for"
    }
    assert readers == {
        "_universal",
        "_on_probe",
        "verify_pretorsion_axioms",
        "verify_adjunctions",
        "verify_mon_torsion_theory",
        "verify_p_torsion_theory_functor",
        "verify_completion_theorem",
    }


def test_factorizations_are_solved_in_the_witness_loop():
    # the factorization solvers only reach verify._universal as its
    # `mediate`; no verifier calls one itself
    solvers = {"_factor_through_mono", "_factor_through_epi", "_pushout_factor"}
    tree = ast.parse((SRC / "verify.py").read_text())
    reads = [node for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id in solvers]
    mediators = {
        id(arg)
        for call in ast.walk(tree)
        if isinstance(call, ast.Call) and ast.unparse(call.func) == "_universal"
        for arg in call.args[3:4] + [k.value for k in call.keywords if k.arg == "mediate"]
    }
    stray = [f"line {node.lineno}: {node.id}" for node in reads if id(node) not in mediators]
    assert {node.id for node in reads} == solvers
    assert stray == []
