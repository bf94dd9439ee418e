"""One fresh benchmark process: cold start, first op, then warm ops until a deadline.

Usage: python3 bench/child.py PLAN_JSON RESULT_JSON DEADLINE MIN_WARM TRACE SPAWNED_AT

SPAWNED_AT is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start-up plus ``import gmtlab.cli``.
DEADLINE is a ``time.monotonic()`` instant: the first op always runs, and a
warm op starts only if one as long as the last still ends before it, or if
fewer than MIN_WARM warm ops have run.
Ops call ``gmtlab.cli.main(argv)`` in-process with stdout captured.  The
calibration kernel runs once after the import and once after every op, so
each op is bracketed by two readings of the host's current speed.  With
TRACE=1 the tracer is installed after the import and every span is written
next to the result; without it the tracer module is never imported.
"""

import sys
import time


def _import_gmtlab() -> float:
    import gmtlab.cli  # noqa: F401  (the import is what set-up time measures)

    return time.monotonic()


if __name__ == "__main__":
    READY_AT = _import_gmtlab()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import workloads  # noqa: E402

# calibration kernel: fixed work in the interpreter and in numpy, shaped like
# the program's own mix (scalar Python; distance updates and a sort over a
# point cloud).  Its time tracks how fast the shared host runs right now.
CAL_LOOP = 60_000
CAL_POINTS = numpy.random.default_rng(20240917).random((40_000, 3))
CAL_CENTRES = 12


def calibrate() -> float:
    """Seconds the calibration kernel takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOP):
        acc += i * i % 7
    dist = numpy.full(len(CAL_POINTS), numpy.inf)
    for centre in CAL_POINTS[:CAL_CENTRES]:
        numpy.minimum(dist, ((CAL_POINTS - centre) ** 2).sum(axis=1), out=dist)
    numpy.sort(dist)
    return time.perf_counter() - t0


def run_op(cli, plan: dict) -> list:
    """Run the CLI calls of one op; returns one (exit code, captured output) per call."""
    results = []
    for argv in plan["calls"]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # an escaped exception is a failed op, not a crashed run
                traceback.print_exc(file=buf)
                code = -1
        results.append((code, buf.getvalue()))
    return results


def input_sizes(plan: dict) -> dict:
    """Interior cell and boundary sample counts of the op's domain files (untimed)."""
    from gmtlab.domains import domain_from_spec, extract_boundary, load_domain_spec

    sizes = {"cells": [], "samples": []}
    for path in plan.get("domains", []):
        domain = domain_from_spec(load_domain_spec(path))
        sizes["cells"].append(int(domain.mask.sum()))
        sizes["samples"].append(len(extract_boundary(domain)))
    return sizes


def main(argv) -> int:
    plan_path, result_path, deadline, min_warm, trace, spawned_at = argv
    deadline, min_warm = float(deadline), int(min_warm)
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    import gmtlab.cli as cli

    tracer = None
    if trace == "1":
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()

    def timed_op(op_id):
        if tracer is not None:
            tracer.op = op_id
        t0 = time.perf_counter()
        results = run_op(cli, plan)
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = None
        return elapsed, results

    def judge(results):
        try:
            out = workloads.normalize(plan, results)
        except (ValueError, KeyError, OSError) as exc:
            return None, [f"unreadable output: {exc}; captured: {[t for _, t in results]}"]
        return out, workloads.check(plan, out, plan.get("reference"))

    calibrate()  # first call pays numpy's one-off allocations; not a reading
    cal_s = [calibrate()]
    first_op_s, results = timed_op(0)
    cal_s.append(calibrate())
    first_out, problems = judge(results)
    failed = 1 if problems else 0
    op_times = []
    # run a warm op only when one more (as long as the last) ends by the deadline
    elapsed = first_op_s
    while len(op_times) < min_warm or time.monotonic() + elapsed <= deadline:
        elapsed, results = timed_op(len(op_times) + 1)
        op_times.append(elapsed)
        cal_s.append(calibrate())
        out, op_problems = judge(results)
        if op_problems or problems or out != first_out:
            failed += 1
            if not op_problems and not problems:
                op_problems = ["output differs from the first rep"]
            problems.extend(p for p in op_problems if p not in problems)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    sizes = input_sizes(plan)

    import scipy

    result = {
        "setup_s": READY_AT - float(spawned_at),
        "first_op_s": first_op_s,
        "op_s": op_times,
        "cal_s": cal_s,
        "attempted": 1 + len(op_times),
        "failed": failed,
        "problems": problems[:5],
        "output": first_out,
        "work_per_op": None if first_out is None else workloads.work_per_op(plan, first_out, sizes),
        "peak_rss_mb": rss_mb,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        result["spans_file"] = tracer.write(Path(result_path).with_suffix(".spans.json"))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
