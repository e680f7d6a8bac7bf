"""Self-test of the benchmark; exits non-zero on the first failed check.

    python3 perfbench/selftest.py

Runs each workload at tiny sizes, twice untraced and twice traced with one
seed, and requires every metric of BENCHMARK.json to print with its unit and
every count to repeat exactly.  It also requires that wrong outputs fail
the run loudly, and that the benchmark refuses to run without the sources.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
from run import TINY_FILES, WORK, WORKLOADS  # noqa: E402

SEED = 7
# Metrics that count work rather than time it: equal on every run.
COUNT_UNITS = {"count", "ratio", "bytes"}
TIMED_COUNTS = {"trace.overhead_ratio"}


def fail(message):
    print(f"selftest: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run_bench(workload, trace, cwd=ROOT, expect_ok=True):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    if not expect_ok:
        return proc
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(workload, trace, result, spec):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        fail(f"{workload}: {result['correct']=} {result['attempted']=}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
             f"{sorted(set(got) ^ set(wanted))} or units")


def expected_failures(workload):
    if workload != "session-abelian":
        return 0
    ops_per_file = len(checks.MORPHISM_COMMANDS) + 2 * len(checks.OBJECT_COMMANDS)
    files = gen.session_files("abelian", SEED, TINY_FILES["abelian"])
    return ops_per_file * sum(1 for _, info in files if info["dom_rank"] and not info["cod_rank"])


def counts(result):
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] in COUNT_UNITS and name not in TIMED_COUNTS
    }


def test_workloads(spec):
    for workload in WORKLOADS:
        for trace in (0, 1):
            first, second = (run_bench(workload, trace) for _ in range(2))
            for result in (first, second):
                check_result(workload, trace, result, spec)
            for key in ("attempted", "failed"):
                if first[key] != second[key]:
                    fail(f"{workload}: {key} {first[key]} then {second[key]}")
            if counts(first) != counts(second):
                diff = {k for k in counts(first) if counts(first)[k] != counts(second).get(k)}
                fail(f"{workload}: counts differ between runs: {sorted(diff)}")
            if first["failed"] != expected_failures(workload):
                fail(f"{workload}: {first['failed']} failed ops, expected {expected_failures(workload)}")
            if trace:
                m = first["metrics"]
                wall, total = m["trace.wall_s"]["value"], m["trace.self_sum_s"]["value"]
                if abs(total - wall) > 0.05 * wall:
                    fail(f"{workload}: layer self times sum to {total:.3f} s, traced wall {wall:.3f} s")
            print(f"selftest: {workload} trace={trace}: ok "
                  f"({first['attempted']} ops, {first['failed']} failed)")


FAULT = """
import sys
sys.path[:0] = [{src!r}, {here!r}]
from preordgrp import fileformat, verify
import run
real_format = fileformat.format_workspace
def drop_last_block(ws):
    return real_format(ws).rsplit("\\n\\n", 1)[0] + "\\n"
fileformat.format_workspace = drop_last_block
real_claim = verify.run_claim
def failing_claim(name, seed=0, samples=None):
    cert = real_claim(name, seed, samples)
    return cert.__class__(cert.claim, "fail", cert.stats, ("injected",))
verify.run_claim = failing_claim
sys.exit(run.main({argv!r}))
"""


def test_wrong_output_fails_loudly():
    for workload in ("harness", "session-abelian"):
        argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", "0", "--tiny"]
        code = FAULT.format(src=os.path.join(ROOT, "src"), here=HERE, argv=argv)
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode == 0 or result["correct"] or "check failed" not in proc.stderr:
            fail(f"{workload}: an injected wrong output went unnoticed")
    try:
        checks.check_failed_op("kernel", 2, "error: boom", {"dom_rank": 1, "cod_rank": 1})
    except checks.CheckError:
        pass
    else:
        fail("an unpredicted failed op was accepted")
    print("selftest: wrong outputs fail the run: ok")


def test_refuses_without_sources():
    bare = os.path.join(WORK, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("session-abelian", 0, cwd=bare, expect_ok=False)
        if proc.returncode == 0 or proc.stdout.strip():
            fail("the benchmark ran, or printed a result, without the sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest: refuses to run without the sources: ok")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    test_refuses_without_sources()
    test_wrong_output_fails_loudly()
    test_workloads(spec)
    print("selftest: all ok")


if __name__ == "__main__":
    main()
