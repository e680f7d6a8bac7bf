"""Checks on what each op returned; a failed check raises CheckError.

Session outputs must reload through `fileformat.parse_workspace`, hold
exactly the entities the command promises with the promised endpoints,
re-print the input objects unchanged, and pass a small semantic test per
construction (a kernel composed with f is zero, and so on).
"""

from preordgrp import fgabelian
from preordgrp.errors import PreordError
from preordgrp.intmat import row_times_matrix

MORPHISM_COMMANDS = ("kernel", "cokernel", "zkernel", "zcokernel", "classify-mor")
OBJECT_COMMANDS = (
    "canonical-seq", "classify", "functor-d", "functor-c", "stable",
    "grpcompletion", "units", "reduce", "compare",
)
FLAG_LABELS = {
    "classify-mor": ("mono", "epi", "regular-epi", "z-trivial"),
    "classify": ("torsion", "torsion-free", "z-trivial"),
}
# The parse error the rank-0 printing defect produces; see NOTES.md.
DEFECT_MESSAGE = "matrix needs"

# Sweep claims record one "morphisms" stat per sampled morphism.
SWEEP_PREFIXES = ("zker-up-", "zcok-up-", "ztrivial-", "gjm-")


class CheckError(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def expected_entities(command, name, dom="X", cod="Y"):
    """(object names, {morphism name: (dom, cod)}) a command prints."""
    n = name
    table = {
        "kernel": ({f"{n}.ker", dom}, {f"{n}.ker.incl": (f"{n}.ker", dom)}),
        "cokernel": ({cod, f"{n}.coker"}, {f"{n}.coker.proj": (cod, f"{n}.coker")}),
        "zkernel": ({f"{n}.zker", dom}, {f"{n}.zker.incl": (f"{n}.zker", dom)}),
        "zcokernel": ({cod, f"{n}.zcok"}, {f"{n}.zcok.proj": (cod, f"{n}.zcok")}),
        "canonical-seq": (
            {f"{n}.torsion", n, f"{n}.torsionfree"},
            {f"{n}.kappa": (f"{n}.torsion", n), f"{n}.eta": (n, f"{n}.torsionfree")},
        ),
        "functor-d": ({f"{n}.D", n}, {f"{n}.iota": (f"{n}.D", n)}),
        "functor-c": ({n, f"{n}.C"}, {f"{n}.pi": (n, f"{n}.C")}),
        "stable": ({f"{n}.P"}, {}),
        "grpcompletion": ({f"{n}.grp"}, {}),
        "units": ({f"{n}.units"}, {}),
        "reduce": ({f"{n}.reduced"}, {}),
        "compare": ({f"{n}.grp", n}, {f"{n}.compare": (f"{n}.grp", n)}),
    }
    return table[command]


def _elements(obj):
    """Generators of the underlying group: unit rows, or every element."""
    if hasattr(obj.group, "rank"):
        r = obj.group.rank
        return [tuple(int(i == j) for j in range(r)) for i in range(r)]
    return list(range(obj.group.order))


def _cone(obj):
    return obj.cone.to_rows() if hasattr(obj.group, "rank") else sorted(obj.cone)


def _kills(first, second, elems):
    """Whether `first` then `second` sends every element of elems to zero."""
    if hasattr(first.map, "matrix"):
        return all(
            fgabelian.is_zero_element(
                second.cod.group,
                row_times_matrix(row_times_matrix(x, first.map.matrix), second.map.matrix),
            )
            for x in elems
        )
    return all(second.map.mapping[first.map.mapping[x]] == 0 for x in elems)


def check_session_output(command, name, text, inputs, parse):
    """Check one successful op; `inputs` is the parsed input workspace."""
    if command in FLAG_LABELS:
        lines = text.splitlines()
        labels = FLAG_LABELS[command]
        _require(
            [ln.split()[0] for ln in lines] == list(labels)
            and all(ln.split()[1:] in (["true"], ["false"]) for ln in lines),
            f"{command}: malformed flags {text!r}",
        )
        if command == "classify":
            flags = {ln.split()[0]: ln.split()[1] == "true" for ln in lines}
            _require(
                flags["z-trivial"] == (flags["torsion"] and flags["torsion-free"]),
                f"classify: inconsistent flags {flags}",
            )
        return
    try:
        ws = parse(text)
    except PreordError as exc:
        raise CheckError(f"{command} {name}: output does not reload: {exc}") from exc
    dom, cod = inputs.endpoints["f"]
    objects, morphisms = expected_entities(command, name, dom, cod)
    _require(set(ws.objects) == objects, f"{command}: objects {sorted(ws.objects)}")
    _require(set(ws.morphisms) == set(morphisms), f"{command}: morphisms {sorted(ws.morphisms)}")
    for mname, ends in morphisms.items():
        _require(ws.endpoints[mname] == ends, f"{command}: {mname} endpoints {ws.endpoints[mname]}")
    for oname in objects & set(inputs.objects):
        _require(ws.objects[oname] == inputs.objects[oname], f"{command}: {oname} re-printed differently")
    f = inputs.morphisms.get("f")
    if command == "kernel":
        incl = ws.morphisms[f"{name}.ker.incl"]
        _require(_kills(incl, f, _elements(incl.dom)), "kernel: f does not kill the kernel")
    elif command == "zkernel":
        incl = ws.morphisms[f"{name}.zker.incl"]
        _require(_kills(incl, f, _cone(incl.dom)), "zkernel: f does not kill the cone")
    elif command == "cokernel":
        proj = ws.morphisms[f"{name}.coker.proj"]
        _require(_kills(f, proj, _elements(f.dom)), "cokernel: the image survives")
    elif command == "zcokernel":
        proj = ws.morphisms[f"{name}.zcok.proj"]
        _require(_kills(f, proj, _cone(f.dom)), "zcokernel: the cone image survives")
    elif command in ("functor-d", "functor-c"):
        made = ws.objects[f"{name}.D" if command == "functor-d" else f"{name}.C"]
        _require(not _cone(made) or _cone(made) == [0], f"{command}: the result is not discrete")


def check_failed_op(command, code, stderr, info):
    """A failed op is allowed only as the rank-0 printing defect."""
    _require(
        info.get("dom_rank", 0) > 0 and info.get("cod_rank") == 0,
        f"{command} failed with exit {code}: {stderr.strip()}",
    )
    _require(code == 1 and DEFECT_MESSAGE in stderr, f"{command} failed with exit {code}: {stderr.strip()}")


def check_certificate(cert, name, samples):
    _require(cert.claim == name, f"certificate for {cert.claim}, expected {name}")
    _require(cert.passed, f"{name}: status {cert.status}: {list(cert.witnesses)[:3]}")
    if name.startswith(SWEEP_PREFIXES):
        got = dict(cert.stats).get("morphisms", 0)
        _require(got == samples, f"{name}: {got} morphisms, expected {samples}")
