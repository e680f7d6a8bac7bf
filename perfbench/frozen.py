"""Time the frozen layer instances of frozen.json (see extract_frozen.py).

Each instance is timed with the tracer off: repeated until it has run
three times or for half a second, and reported as the median.
"""

import json
import statistics
import time

import gen
from preordgrp import finitegroup, intmat
from preordgrp.errors import ResourceLimitError

REPEATS = 3
BUDGET_S = 0.5


def _median_time(fn):
    times = []
    while len(times) < REPEATS and sum(times) < BUDGET_S:
        t0 = time.perf_counter()
        try:
            fn()
        except ResourceLimitError:
            pass
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _rows(table, order):
    return [table[a * order : (a + 1) * order] for a in range(order)]


def time_all(path):
    """{instance name: seconds}, in file order."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    out = {}
    for q in data["nonneg_feasible"]:
        gens = intmat.IntMatrix.from_rows(q["gens"], cols=q["gens_cols"])
        modulus = intmat.IntMatrix.from_rows(q["modulus"], cols=q["gens_cols"])
        x = tuple(q["x"])
        out[q["name"]] = _median_time(lambda: intmat.nonneg_feasible(gens, modulus, x, q["state_cap"]))
    for m in data["matrices"]:
        mat = intmat.IntMatrix.from_rows(m["rows"])
        out[f"hnf_{m['name']}"] = _median_time(lambda: intmat.hermite_normal_form(mat))
        out[f"snf_{m['name']}"] = _median_time(lambda: intmat.smith_normal_form(mat))
    for g in data["groups"]:
        order, table = gen.product_table(tuple(g["factors"]))
        rows = _rows(table, order)
        group = finitegroup.make_finite_group(rows)
        normal = finitegroup.normal_closure(group, g["normal"])
        out[f"make_group_{g['name']}"] = _median_time(lambda: finitegroup.make_finite_group(rows))
        out[f"quotient_{g['name']}"] = _median_time(lambda: finitegroup.quotient_by_normal(group, normal))
    return out
