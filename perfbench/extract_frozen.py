"""Write frozen.json: fixed layer instances that frozen.py times.

    python3 perfbench/extract_frozen.py

Runs the harness once at acceptance sizes with program seed 0, keeps the
five slowest `nonneg_feasible` calls, and adds the two budgeted membership
queries, the HNF/SNF matrices and the finite-group recipes.  The output is
committed; rerun this only to replace the instances on purpose.
"""

import importlib
import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from preordgrp import intmat, verify  # noqa: E402
from run import ACCEPTANCE_SAMPLES  # noqa: E402
from tracing import LAYERS  # noqa: E402

BUDGETED_GENS = [[-4, -8], [0, -8], [4, -8], [8, -8], [12, -8], [-1, -3], [3, -3], [7, -3], [2, 2], [1, -1]]
BUDGETED_MODULUS = [[1, 3], [0, 4]]


def slowest_queries(count=5):
    original = intmat.nonneg_feasible
    seen = []

    def timed(gens, modulus, x, state_cap=intmat.HILBERT_STATE_CAP):
        t0 = time.perf_counter()
        try:
            return original(gens, modulus, x, state_cap)
        finally:
            seen.append((time.perf_counter() - t0, gens, modulus, tuple(x), state_cap))

    for layer in LAYERS:
        mod = importlib.import_module(f"preordgrp.{layer}")
        if getattr(mod, "nonneg_feasible", None) is original:
            mod.nonneg_feasible = timed
    for name in verify.claim_names():
        verify.run_claim(name, 0, ACCEPTANCE_SAMPLES.get(name))
    seen.sort(key=lambda item: -item[0])
    return [
        {
            "name": f"nonneg_slow{i + 1}",
            "seconds_when_extracted": round(dt, 3),
            "gens": [list(r) for r in gens.to_rows()],
            "gens_cols": gens.cols,
            "modulus": [list(r) for r in modulus.to_rows()],
            "x": list(x),
            "state_cap": cap,
        }
        for i, (dt, gens, modulus, x, cap) in enumerate(seen[:count])
    ]


def matrix(rows, cols, seed):
    rng = random.Random(seed)
    return [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]


def main():
    queries = slowest_queries()
    for tag, x in (("a", [-1, 0]), ("b", [0, 3])):
        queries.append({
            "name": f"nonneg_budget_{tag}", "gens": BUDGETED_GENS, "gens_cols": 2,
            "modulus": BUDGETED_MODULUS, "x": x, "state_cap": 50_000,
        })
    data = {
        "nonneg_feasible": queries,
        "matrices": [
            {"name": "6x6", "rows": matrix(6, 6, "hnf-6x6")},
            {"name": "10x8", "rows": matrix(10, 8, "hnf-10x8")},
        ],
        # Direct products of gen.py's permutation groups; `normal` lists the
        # generators whose normal closure the quotient is taken by.
        "groups": [
            {"name": "s4", "factors": ["S4"], "normal": [7]},
            {"name": "512", "factors": ["D4", "D4", "D4"], "normal": [64]},
        ],
    }
    with open(os.path.join(HERE, "frozen.json"), "w", encoding="utf-8") as out:
        json.dump(data, out, indent=1)
        out.write("\n")


if __name__ == "__main__":
    main()
