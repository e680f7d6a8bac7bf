"""Command-line front end.

Every construction command loads a workspace file, applies one
construction to a named entity, and prints the result in the workspace
format, re-printing the endpoint objects so the output re-loads on its
own.  The monoid commands call `monpos`, the cone functor P and the
group completion Σ; a monoid is the object it is the cone of, so
`stable` prints its object unchanged.  `check` and `check-one` run the
verification harness and print certificate reports; `p-functor` checks
the units P gives against the cone elements that membership finds
invertible.

The construction commands are one table, COMMANDS: each maps a command
to the kind of entity it takes, its construction, and the names of the
values that construction returns.  Flag values print as `label true` or
`label false` lines, objects and morphisms as one workspace.  The parser
takes its construction commands from the table.  It depends on constants
alone, so in-process `main(argv)` calls share one, built on first use.

Exit codes: 0 success or all checks passed, 1 usage, parse or write error,
2 validation error, 3 verification failure.
"""

import argparse
import sys
from functools import lru_cache

from . import fileformat as ff
from . import finitegroup as fg
from . import monpos as mp
from . import preord as po
from . import verify as v
from .errors import ParseError, PreordError, ValidationError


class _Parser(argparse.ArgumentParser):
    """argparse front end that follows the exit-code contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_in(low: int, high=None):
    """An argparse type: an integer from low to high, unbounded above by default."""

    def integer(text):
        value = int(text)
        if value < low or (high is not None and value > high):
            bound = f">= {low}" if high is None else f"in {low}..{high}"
            raise argparse.ArgumentTypeError(f"expected an integer {bound}, got {value}")
        return value

    return integer


def _need(ws: ff.Workspace, kind: str, name: str):
    table = ws.objects if kind == "object" else ws.morphisms
    if name not in table:
        raise ValidationError(f"unknown {kind} {name!r}")
    return table[name]


def _sequence(x):
    seq = po.canonical_sequence(x)
    return seq.torsion, x, seq.torsion_free, seq.kappa, seq.eta


def _compare(x):
    cmpr = mp.comparison_morphism(x)
    return cmpr.dom, x, cmpr


def _object_flags(x):
    flags = po.classify_object(x)
    return flags.torsion, flags.torsion_free, flags.torsion and flags.torsion_free


def _morphism_flags(m):
    flags = po.classify_morphism(m)
    return flags.mono, flags.epi, flags.regular_epi, po.is_z_trivial(m)


# command: (entity kind, construction, the name of each value it returns).
# A name is a flag label or a template over {n}, the entity's name, and for
# morphisms {dom} and {cod}, its endpoints'; "g : a -> b" names a morphism.
# Lambdas look the constructions up when they run.
COMMANDS = {
    "kernel": ("morphism", lambda m: (*po.kernel(m), m.dom),
               ("{n}.ker", "{n}.ker.incl : {n}.ker -> {dom}", "{dom}")),
    "cokernel": ("morphism", lambda m: (m.cod, *po.cokernel(m)),
                 ("{cod}", "{n}.coker", "{n}.coker.proj : {cod} -> {n}.coker")),
    "zkernel": ("morphism", lambda m: (*po.z_kernel(m), m.dom),
                ("{n}.zker", "{n}.zker.incl : {n}.zker -> {dom}", "{dom}")),
    "zcokernel": ("morphism", lambda m: (m.cod, *po.z_cokernel(m)),
                  ("{cod}", "{n}.zcok", "{n}.zcok.proj : {cod} -> {n}.zcok")),
    "classify-mor": ("morphism", _morphism_flags, ("mono", "epi", "regular-epi", "z-trivial")),
    "canonical-seq": ("object", _sequence,
                      ("{n}.torsion", "{n}", "{n}.torsionfree",
                       "{n}.kappa : {n}.torsion -> {n}", "{n}.eta : {n} -> {n}.torsionfree")),
    "classify": ("object", _object_flags, ("torsion", "torsion-free", "z-trivial")),
    "functor-d": ("object", lambda x: (po.functor_D(x), x, po.counit_iota(x)),
                  ("{n}.D", "{n}", "{n}.iota : {n}.D -> {n}")),
    "functor-c": ("object", lambda x: (x, *po.functor_C(x)),
                  ("{n}", "{n}.C", "{n}.pi : {n} -> {n}.C")),
    "stable": ("object", lambda x: (mp.positive_cone(x),), ("{n}.P",)),
    "grpcompletion": ("object", lambda x: (mp.completion_object(x),), ("{n}.grp",)),
    "units": ("object", lambda x: (mp.units(x)[0],), ("{n}.units",)),
    "reduce": ("object", lambda x: (mp.quotient_by_units(x)[0],), ("{n}.reduced",)),
    "compare": ("object", _compare, ("{n}.grp", "{n}", "{n}.compare : {n}.grp -> {n}")),
}


def _construct(args) -> tuple[str, int]:
    """Run a construction command; print flags, or the values as a workspace
    in which the first value given a name keeps it."""
    kind, build, names = COMMANDS[args.command]
    ws = _load(args)
    entity = _need(ws, kind, args.name)
    fields = {"n": args.name}
    if kind == "morphism":
        fields["dom"], fields["cod"] = ws.endpoints[args.name]
    labelled = [(name.format(**fields), value) for name, value in zip(names, build(entity))]
    if isinstance(labelled[0][1], bool):
        return "".join(f"{label} {'true' if flag else 'false'}\n" for label, flag in labelled), 0
    out = ff.Workspace()
    for label, value in labelled:
        if isinstance(value, po.PreOrdMor):
            name, ends = label.split(" : ")
            out.morphisms[name] = value
            out.endpoints[name] = tuple(ends.split(" -> "))
        else:
            out.objects.setdefault(label, value)
    return ff.format_workspace(out), 0


def _run_check(args) -> tuple[str, int]:
    if args.command == "check":
        certs = v.run_all(args.seed, args.samples)
    else:
        certs = [v.run_claim(args.claim, args.seed, args.samples)]
    return v.format_certificates(certs), 0 if all(c.passed for c in certs) else 3


@lru_cache(maxsize=1)
def build_parser() -> _Parser:
    parser = _Parser(prog="preordgrp", description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write output to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)
    order_cap = _int_in(1, fg.ORDER_CAP)
    for command, (kind, _, _) in COMMANDS.items():
        p = sub.add_parser(command)
        p.set_defaults(run=_construct)
        p.add_argument("file", help="workspace file")
        p.add_argument("name", help=f"{kind} name")
        p.add_argument(
            "--universe-cap", type=order_cap, default=fg.ORDER_CAP, help="finite order cap override"
        )
    for command in ("check", "check-one"):
        p = sub.add_parser(command)
        p.set_defaults(run=_run_check)
        if command == "check-one":
            p.add_argument("claim", help="one of " + ", ".join(v.claim_names()))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=_int_in(1), default=None)
    return parser


def _load(args) -> ff.Workspace:
    try:
        with open(args.file, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {args.file}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {args.file}: byte {exc.start} is not UTF-8")
    return ff.parse_workspace(text, universe_cap=args.universe_cap)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, code = args.run(args)
    except PreordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ParseError) else 2
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
