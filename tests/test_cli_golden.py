"""Every construction command's stdout, stderr and exit code, byte for byte.

The transcript runs each of the 14 construction commands on every name of
two workspaces: the README's demo workspace (golden/cli_readme.txt) and
golden/cli_twins.txt, where two names hold equal objects, morphisms are
endomorphisms, one codomain has rank 0, and one object already has the
name the CLI derives for a kernel.  Commands are also run on names of the
wrong kind, to pin the error text.

To rewrite the transcript after an intended change of output:

    PYTHONPATH=src python tests/test_cli_golden.py > tests/golden/cli_transcript.txt
"""

import contextlib
import io
import sys
from pathlib import Path

from preordgrp import cli
from preordgrp import fileformat as ff

GOLDEN = Path(__file__).parent / "golden"
WORKSPACES = ("cli_readme.txt", "cli_twins.txt")
MORPHISM_COMMANDS = ("kernel", "cokernel", "zkernel", "zcokernel", "classify-mor")
OBJECT_COMMANDS = (
    "canonical-seq",
    "classify",
    "functor-d",
    "functor-c",
    "stable",
    "grpcompletion",
    "units",
    "reduce",
    "compare",
)


def _run(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = f"$ preordgrp {' '.join(argv)}\nexit {code}\n{out.getvalue()}"
    if err.getvalue():
        text += f"--- stderr\n{err.getvalue()}"
    return text


def transcript() -> str:
    blocks = []
    for filename in WORKSPACES:
        path = str(GOLDEN / filename)
        ws = ff.parse_workspace((GOLDEN / filename).read_text(encoding="utf-8"))
        for command in MORPHISM_COMMANDS:
            for name in [*ws.morphisms, next(iter(ws.objects))]:
                blocks.append(_run([command, path, name]).replace(path, filename))
        for command in OBJECT_COMMANDS:
            for name in [*ws.objects, next(iter(ws.morphisms))]:
                blocks.append(_run([command, path, name]).replace(path, filename))
    return "\n".join(blocks)


def test_cli_transcript_matches_golden():
    assert transcript().encode("utf-8") == (GOLDEN / "cli_transcript.txt").read_bytes()


if __name__ == "__main__":
    sys.stdout.write(transcript())
