"""Benchmark of the preordgrp certificate harness and CLI workspace sessions.

    python3 perfbench/run.py --workload harness|session-abelian|session-finite
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One process, one thread, a closed loop
with one client: each op starts when the previous one has finished.  The
untraced run (--trace 0) prints the end-to-end metrics, the traced run
(--trace 1) the per-layer ones; both end with one JSON line.  Every op's
output is checked, and a failed check makes the run exit with code 1.
NOTES.md says what each workload is for and what each metric should move.
"""

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

WORKLOADS = ("harness", "session-abelian", "session-finite")
# Sample sizes of tests/test_acceptance.py; other claims use their defaults.
ACCEPTANCE_SAMPLES = {
    "zker-up-abelian": 200, "zker-up-finite": 200,
    "zcok-up-abelian": 200, "zcok-up-finite": 200,
    "ztrivial-abelian": 250, "ztrivial-finite": 250,
    "gjm-pullback-abelian": 100, "gjm-pullback-finite": 100,
    "gjm-pushout-abelian": 100,
}
TINY_SAMPLES = 10
# Files per second of --seconds.  On the 2-core machine the benchmark was
# written on, the ops of a run take 1 to 1.5 times --seconds, as the shared
# host's speed varies.  Counts round up to whole cycles of the generator's
# strata (gen.py).
FILES_PER_SECOND = {"abelian": 13.0, "finite": 0.8}
STRATUM = {"abelian": 25, "finite": 4}
TINY_FILES = {"abelian": 25, "finite": 2}
SETUP_REPEATS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--program-seed", type=int, default=0,
                   help="harness only: the seed the program samples its claims with")
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for selftest.py")
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# --- set-up -----------------------------------------------------------------------


def harness_ops(args):
    """(claim, samples) in the harness's own order; `--seed` plays no part.

    The program samples with `--program-seed`.  Shuffling the claims by
    `--seed` moved `wall_s` by 20% between orders, because the claims share
    the suite and membership caches and the order decides who fills them.
    """
    from preordgrp import verify

    return [
        (name, TINY_SAMPLES if args.tiny else ACCEPTANCE_SAMPLES.get(name))
        for name in verify.claim_names()
    ]


def session_file_count(universe, args):
    if args.tiny:
        return TINY_FILES[universe]
    k = STRATUM[universe]
    return k * max(1, math.ceil(args.seconds * FILES_PER_SECOND[universe] / k))


def write_session_files(universe, args, directory):
    """Write the seeded files; returns [(path, info)]."""
    import gen

    os.makedirs(directory, exist_ok=True)
    files = []
    count = session_file_count(universe, args)
    for i, (text, info) in enumerate(gen.session_files(universe, args.seed, count)):
        path = os.path.join(directory, f"{i:04d}.ws")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        files.append((path, info))
    return files


def session_ops(files):
    from checks import MORPHISM_COMMANDS, OBJECT_COMMANDS

    ops = []
    for path, info in files:
        ops += [(path, info, cmd, "f") for cmd in MORPHISM_COMMANDS]
        for obj in ("X", "Y"):
            ops += [(path, info, cmd, obj) for cmd in OBJECT_COMMANDS]
    return ops


def cycle_size(args, ops):
    """Ops in one cycle of the inputs: every claim for `harness`; one cycle
    of the generator's strata, the same mix of inputs each time, for the
    sessions."""
    if args.workload == "harness":
        return len(ops)
    files = len({path for path, _, _, _ in ops})
    return STRATUM[args.workload.split("-")[1]] * (len(ops) // files)


def prepare(args, directory):
    """Everything before the first op; returns the op list."""
    if args.workload == "harness":
        from preordgrp import verify

        # The claims ask for the suite both as default_suite(seed) and as
        # default_suite(seed, 50): two cache keys for one suite, so it is
        # built twice.  Both builds are set-up; otherwise whichever claim
        # asks second pays about a second (see NOTES.md).
        verify.default_suite(args.program_seed)
        verify.default_suite(args.program_seed, 50)
        return harness_ops(args)
    return session_ops(write_session_files(args.workload.split("-")[1], args, directory))


def measure_setup(args, directory):
    """Median of SETUP_REPEATS fresh processes that import and prepare."""
    times = []
    for k in range(SETUP_REPEATS):
        child_dir = os.path.join(directory, f"setup-{k}")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--program-seed", str(args.program_seed), "--setup-only", child_dir]
        if args.tiny:
            cmd.append("--tiny")
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(child_dir, ignore_errors=True)
    return statistics.median(times)


# --- the op loop --------------------------------------------------------------------


class Run:
    """Op results of one run: the time of every op, failures, checks."""

    def __init__(self):
        self.op_times = []  # (seconds, succeeded) per op, in op order
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.first_start = None
        self.last_end = None
        self.check_s = 0.0
        self.claim_s = {}
        self.undecided = 0

    @property
    def wall_s(self):
        """First op start to last op end, less the checks run between ops."""
        return self.last_end - self.first_start - self.check_s

    @property
    def latencies(self):
        return [seconds for seconds, ok in self.op_times if ok]

    def cycle_rates(self, cycle_ops):
        """Successful ops per second of each whole cycle of `cycle_ops` ops."""
        size = min(cycle_ops, len(self.op_times))
        rates = []
        for i in range(0, len(self.op_times) - size + 1, size):
            cycle = self.op_times[i : i + size]
            rates.append(sum(ok for _, ok in cycle) / sum(seconds for seconds, _ in cycle))
        return rates


def run_harness(ops, args, tracer, run):
    from preordgrp import verify
    from checks import CheckError, check_certificate

    for i, (name, samples) in enumerate(ops):
        if tracer:
            tracer.op, tracer.active = i, True
        t0 = time.perf_counter()
        cert = verify.run_claim(name, args.program_seed, samples)
        t1 = time.perf_counter()
        if tracer:
            tracer.active = False
        run.first_start = run.first_start or t0
        run.attempted += 1
        run.claim_s[name] = t1 - t0
        run.undecided += dict(cert.stats).get("undecided", 0)
        ok = True
        try:
            check_certificate(cert, name, samples if samples else verify.DEFAULT_SAMPLES[name])
        except CheckError as exc:
            ok = False
            run.failed += 1
            run.errors.append(str(exc))
        run.op_times.append((t1 - t0, ok))
        run.last_end = t1
        run.check_s += time.perf_counter() - t1


def run_session(ops, args, tracer, run, out_path):
    from preordgrp import cli, fileformat
    from checks import CheckError, check_failed_op, check_session_output

    parse = fileformat.parse_workspace
    inputs = {}
    for i, (path, info, command, name) in enumerate(ops):
        err = io.StringIO()
        argv = ["--out", out_path, command, path, name]
        if tracer:
            tracer.op, tracer.active = i, True
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        t1 = time.perf_counter()
        if tracer:
            tracer.active = False
        run.first_start = run.first_start or t0
        run.attempted += 1
        ok = code == 0
        try:
            if ok:
                if path not in inputs:
                    inputs.clear()
                    with open(path, encoding="utf-8") as handle:
                        inputs[path] = parse(handle.read())
                with open(out_path, encoding="utf-8") as handle:
                    text = handle.read()
                os.remove(out_path)
                check_session_output(command, name, text, inputs[path], parse)
            else:
                check_failed_op(command, code, err.getvalue(), info)
        except CheckError as exc:
            ok = False
            run.errors.append(f"{os.path.basename(path)} {command} {name}: {exc}")
        if not ok:
            run.failed += 1
        run.op_times.append((t1 - t0, ok))
        run.last_end = t1
        run.check_s += time.perf_counter() - t1


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# --- metrics ------------------------------------------------------------------------


def end_to_end_metrics(run, setup_s, cycle_ops):
    """`ops_per_s` is the median over the run's input cycles.  The shared
    host slows whole stretches of a run by up to 3x for seconds at a time;
    a median over cycles drops those stretches, the run's total does not
    (see NOTES.md)."""
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(run.cycle_rates(cycle_ops)), "ops/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def diagnostic_lines(run, cycle_ops):
    """Printed with the metrics but not in the JSON result, which has no
    bound that would hold them (see NOTES.md)."""
    ok = run.latencies or [0.0]  # no successful op: the run already fails its checks
    return [
        f"ops {run.attempted} attempted, {run.failed} failed, {len(run.latencies)} successful "
        f"(latency percentiles over these), in {len(run.cycle_rates(cycle_ops))} cycles "
        f"of {min(cycle_ops, run.attempted)} ops",
        f"wall_s {run.wall_s:.6f} s",
        f"failed_ratio {run.failed / run.attempted:.6f} ratio",
        f"op_p50_ms {statistics.median(ok) * 1000:.6f} ms",
        f"op_p90_ms {nearest_rank(ok, 0.9) * 1000:.6f} ms",
        f"op_max_ms {max(ok) * 1000:.6f} ms",
    ]


FUNCTION_METRICS = {
    # wrapped function: the per-layer metrics reported for it
    "intmat.nonneg_feasible": ("calls", "self_s", "budget_exhausted", "distinct_ratio"),
    "intmat.hilbert_basis": ("calls", "self_s", "budget_exhausted"),
    "intmat.monoid_zero_solutions": ("calls", "self_s"),
    "intmat.hermite_normal_form": ("calls", "self_s"),
    "intmat.smith_normal_form": ("calls", "self_s"),
    "fgabelian.present_subgroup": ("calls", "self_s"),
    "finitegroup.make_finite_group": ("calls", "self_s"),
    "finitegroup.make_fin_morphism": ("calls", "self_s"),
    "finitegroup.normal_closure": ("calls", "self_s"),
    "finitegroup.quotient_by_normal": ("calls", "self_s"),
    "finitegroup.submonoid_closure": ("calls", "self_s"),
    "fileformat.parse_workspace": ("calls", "self_s", "bytes"),
    "fileformat.format_workspace": ("calls", "self_s", "bytes"),
    "preord.make_morphism": ("calls", "self_s"),
    "preord.cone_certificate": ("calls", "self_s"),
    "preord.z_kernel": ("calls", "self_s"),
    "preord.z_cokernel": ("calls", "self_s"),
    "preord.canonical_sequence": ("calls", "self_s"),
    "preord.pullback_with_counit": ("calls", "self_s"),
    "preord.pushout_with_unit": ("calls", "self_s"),
    "monpos.positive_cone": ("self_s",),
    "monpos.torsion_ses": ("self_s",),
    "monpos.units": ("self_s",),
    "monpos.quotient_by_units": ("self_s",),
    "monpos.comparison_morphism": ("self_s",),
    "monpos.group_completion": ("self_s",),
    "probes.random_morphism": ("calls", "self_s", "zero_ratio"),
    "cli.main": ("calls", "self_s"),
    "cli.build_parser": ("calls", "self_s"),
}
UNITS = {"calls": "count", "self_s": "s", "budget_exhausted": "count",
         "distinct_ratio": "ratio", "zero_ratio": "ratio", "bytes": "bytes"}


def per_layer_metrics(tracer, run, claim_names, frozen_s, span_cost):
    from tracing import LAYERS

    out = {}
    for label, kinds in FUNCTION_METRICS.items():
        calls, self_s = tracer.stat(label)
        short = label.split(".", 1)[1]
        values = {
            "calls": calls,
            "self_s": self_s,
            "budget_exhausted": tracer.budget_exhausted.get(short, 0),
            "distinct_ratio": len(tracer.nonneg_keys) / calls if calls else 0.0,
            "zero_ratio": tracer.zero_morphisms / calls if calls else 0.0,
            "bytes": tracer.bytes.get(short, 0),
        }
        for kind in kinds:
            out[f"{label}.{kind}"] = (values[kind], UNITS[kind])
    for name in claim_names:
        out[f"verify.claim.{name}.s"] = (run.claim_s.get(name, 0.0), "s")
    out["verify.undecided"] = (run.undecided, "count")
    layer_s = tracer.layer_self_s()
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_s[layer], "s")
    spans = len(tracer.spans)
    traced = run.wall_s
    out["trace.spans"] = (spans, "count")
    out["trace.wall_s"] = (traced, "s")
    out["trace.self_sum_s"] = (sum(layer_s.values()), "s")
    out["trace.overhead_ratio"] = (spans * span_cost / max(traced - spans * span_cost, 1e-9), "ratio")
    for name, seconds in frozen_s.items():
        out[f"frozen.{name}_s"] = (seconds, "s")
    return out


# --- main ---------------------------------------------------------------------------


def report(metrics, run, extra_lines=()):
    """Human-readable lines, then the JSON result as the last line."""
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6f} {unit}")
    for line in extra_lines:
        print(line)
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "preordgrp", "__init__.py")):
        print(f"error: no preordgrp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    if args.setup_only:
        prepare(args, args.setup_only)
        return 0

    directory = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(directory, exist_ok=True)
    try:
        import preordgrp  # noqa: F401  compiles the package before set-up is timed
        from preordgrp import verify

        setup_s = None if args.trace else measure_setup(args, directory)
        ops = prepare(args, os.path.join(directory, "in"))
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        run = Run()
        if args.workload == "harness":
            run_harness(ops, args, tracer, run)
        else:
            run_session(ops, args, tracer, run, os.path.join(directory, "out.ws"))
        cycle_ops = cycle_size(args, ops)
        lines = diagnostic_lines(run, cycle_ops)
        if args.workload == "harness":
            lines += [f"claim {name} {seconds:.3f} s" for name, seconds in run.claim_s.items()]
        if tracer:
            import frozen

            span_cost = tracer.calibrate()
            frozen_s = frozen.time_all(os.path.join(HERE, "frozen.json"))
            metrics = per_layer_metrics(tracer, run, verify.claim_names(), frozen_s, span_cost)
            os.makedirs(WORK, exist_ok=True)
            spans_path = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl.gz")
            tracer.dump(spans_path)
            lines.append(f"spans written to {os.path.relpath(spans_path, ROOT)}")
        else:
            metrics = end_to_end_metrics(run, setup_s, cycle_ops)
        for error in run.errors:
            print(f"check failed: {error}", file=sys.stderr)
        report(metrics, run, lines)
        return 1 if run.errors else 0
    finally:
        shutil.rmtree(directory, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
