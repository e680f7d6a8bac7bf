"""The benchmark's traced harness and session-finite runs, at tiny size,
still complete.

perfbench/run.py wraps the functions its FUNCTION_METRICS table names and
perfbench/frozen.py calls `intmat.nonneg_feasible(gens, modulus, x,
state_cap)`, `make_finite_group(rows)`, `normal_closure(group, list)` and
`quotient_by_normal(group, set)`.  A renamed or re-signed function breaks
the traced run, not the package's own tests.  The harness run also exits 1
when a claim does not pass or a sweep records fewer morphisms than it asked
for.  So these tests run both (about six seconds each).
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"


def _assert_traced_tiny_run_passes(workload):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--tiny", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_traced_tiny_session_finite_run_passes():
    _assert_traced_tiny_run_passes("session-finite")


def test_traced_tiny_harness_run_passes():
    _assert_traced_tiny_run_passes("harness")


def test_function_metric_labels_name_public_functions():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    for label in run.FUNCTION_METRICS:
        layer, name = label.split(".")
        module = importlib.import_module(f"preordgrp.{layer}")
        fn = vars(module).get(name)
        assert not name.startswith("_"), label
        # what tracing.Tracer.install wraps: callables defined in the module,
        # lru_cache wrappers included, but no classes
        assert callable(fn) and not inspect.isclass(fn), label
        assert getattr(fn, "__module__", None) == module.__name__, label
