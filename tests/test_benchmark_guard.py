"""The benchmark's traced session-finite run, at tiny size, still completes.

perfbench/run.py wraps the functions its FUNCTION_METRICS table names and
perfbench/frozen.py calls `make_finite_group(rows)`,
`normal_closure(group, list)` and `quotient_by_normal(group, set)`.  A
renamed or re-signed function breaks the traced run, not the package's own
tests, so this test runs it (about seven seconds).
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


def test_traced_tiny_session_finite_run_passes():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "session-finite", "--seed", "7",
         "--seconds", "1", "--tiny", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


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
