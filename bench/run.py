"""gmtlab benchmark: three seeded workloads driven through ``gmtlab.cli.main``.

Usage (from the repository root):

    python3 bench/run.py --workload verify --seed 0 --seconds 20 --trace 0

Workloads (inputs in ``workloads.py``):

- ``verify``   ``gmtlab verify`` on suites/standard.json: 5 entries, 17 checks.
- ``covering`` ``gmtlab estimate-hm`` on the 3D ball (h=1/64, delta=0.125)
               and the 2D disk (h=1/1024, delta=0.2).
- ``proof``    ``gmtlab trace`` on the disk at h=1/512, eps=0.05.

Every run starts fresh, single-threaded child processes one at a time, so a
run never keeps more than one core busy.  A run ends about ``--seconds``
after it starts, as long as that leaves each child time for its cold start.
With ``--trace 0`` ``COLD_STARTS[workload]`` children each time interpreter
start-up plus ``import gmtlab.cli`` (``setup_s``) and their first op
(``first_op_s``), then run warm ops until their share of ``--seconds`` is
used.  With ``--trace 1`` one untraced and one traced child take half of
``--seconds`` each; the traced one gives the per-layer metrics and the gap
between the two the tracing overhead.

On a shared host the CPU's speed can drift by tens of percent over minutes,
which moves every wall time with it.  So each child runs a fixed
calibration kernel (``child.calibrate``) after its import and after every op,
and every end-to-end time is reported at a reference host speed: its wall
time times ``CAL_REF_S`` over the mean of the two kernel times around it
(``setup_s`` uses the reading right after the import).  The raw wall times
are printed too.  A change to gmtlab cannot move the kernel, so a slower
program still reads slower; only the host's speed is divided out.

Every op's output is checked (see ``workloads.check``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Everything runs in one thread, so no metric
measures waiting on a queue.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference_seed0.json"
WORK_ROOT = REPO / ".bench_work"

# fresh processes per untraced run; set-up and first op are their medians, and
# spreading the warm ops over all of them keeps one slow phase of a shared
# host from setting the whole run's median.  On a 2-vCPU Xeon VM a cold start
# costs about 2 s on verify and proof but 4.5 s on covering, whose warm ops
# (3.5 s each) need most of the run to reach a usable count.
COLD_STARTS = {"verify": 8, "covering": 3, "proof": 6}
# seconds the calibration kernel is taken to last at the reference host speed
CAL_REF_S = 0.025
CHILD_TIMEOUT_S = 170.0
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# single-threaded children: BLAS/OpenMP pools pinned to one thread
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

END_TO_END = {
    "setup_s": "s",
    "first_op_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def tail(samples: list) -> tuple:
    """(percentile, value): the highest ladder percentile with >= TAIL_BEYOND samples above it.

    With fewer than 2 * TAIL_BEYOND samples no percentile qualifies; the tail
    then falls back to the bottom of the ladder, the median, because a higher
    order statistic of a handful of samples measures one stray op, not a tail.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = max(math.ceil(p / 100.0 * n) - 1, 0)  # nearest rank, 0-based
        if n - 1 - rank >= TAIL_BEYOND:
            return p, ordered[rank]
    return TAIL_LADDER[-1], ordered[max(math.ceil(n / 2) - 1, 0)]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((REPO / "src").rglob("*.py")):
        h.update(path.relative_to(REPO).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str:
    if not (REPO / ".git").exists():
        return "none (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def child_env(plan: dict) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["GMT_SEED"] = plan["gmt_seed"]
    return env


def run_child(plan_path: Path, env: dict, deadline: float, min_warm: int, trace: bool,
              tag: str) -> dict:
    """Run one child until the ``time.monotonic()`` instant ``deadline`` and at least
    ``min_warm`` warm ops; its result dict."""
    result_path = plan_path.parent / f"result-{tag}.json"
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), str(plan_path), str(result_path),
         repr(deadline), str(min_warm), "1" if trace else "0", repr(spawned_at)],
        env=env, cwd=plan_path.parent, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"child {tag} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def judge_children(children: list) -> tuple:
    """(attempted, failed, problems); a child whose output differs from the first fails whole."""
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    problems = [p for c in children for p in c["problems"]]
    for c in children[1:]:
        if c["output"] != children[0]["output"] and c["failed"] < c["attempted"]:
            failed += c["attempted"] - c["failed"]
            problems.append("a child's output differs from the first child's")
    return attempted, failed, problems


def at_reference_speed(child: dict) -> dict:
    """A child's set-up, first-op and warm-op times scaled to the reference host speed."""
    cal = child["cal_s"]
    ops = [child["first_op_s"]] + child["op_s"]
    scaled = [t * CAL_REF_S / (0.5 * (cal[k] + cal[k + 1])) for k, t in enumerate(ops)]
    return {"setup_s": child["setup_s"] * CAL_REF_S / cal[0],
            "first_op_s": scaled[0], "op_s": scaled[1:]}


def end_to_end(children: list) -> tuple:
    scaled = [at_reference_speed(c) for c in children]
    ops = [t for c in scaled for t in c["op_s"]]
    p50 = statistics.median(ops)
    pct, tail_value = tail(ops)
    values = {
        "setup_s": statistics.median(c["setup_s"] for c in scaled),
        "first_op_s": statistics.median(c["first_op_s"] for c in scaled),
        "op_s_p50": p50,
        "op_s_tail": tail_value,
        # an unreadable first output has no work count; the run is failed anyway
        "work_per_s": (children[0]["work_per_op"] or 0) / p50,
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }
    raw = {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "first_op_s": statistics.median(c["first_op_s"] for c in children),
        "op_s_p50": statistics.median(t for c in children for t in c["op_s"]),
        "cal_s": statistics.median(t for c in children for t in c["cal_s"]),
    }
    return values, {"tail_percentile": pct, "warm_samples": len(ops), "raw": raw}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    for needed in (REPO / "src" / "gmtlab" / "__init__.py", REPO / workloads.STANDARD_SUITE,
                   REFERENCE):
        if not needed.is_file():
            raise BenchError(f"missing {needed.relative_to(REPO)}; run from a gmtlab checkout")
    started = time.monotonic()
    work_dir = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    try:
        plan = workloads.make_plan(workload, seed, REPO, work_dir)
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        plan["reference"] = reference[workload] if seed == 0 else None
        plan_path = work_dir / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        env = child_env(plan)
        if trace:
            children = [run_child(plan_path, env, started + seconds / 2.0, 1, False, "untraced"),
                        run_child(plan_path, env, started + seconds, 1, True, "traced")]
            spans = json.loads(Path(children[1]["spans_file"]).read_text(encoding="utf-8"))
        else:
            children = []
            cold_starts = COLD_STARTS[workload]
            for k in range(cold_starts):
                # child k may use what is left of the first (k+1)/cold_starts of
                # the run, so long ops still spread over all the children
                deadline = started + seconds * (k + 1) / cold_starts
                last = k == cold_starts - 1  # the run's only guaranteed warm op
                children.append(run_child(plan_path, env, deadline, int(last), False,
                                          f"cold{k}"))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    attempted, failed, problems = judge_children(children)
    result = {"attempted": attempted, "failed": failed, "problems": problems,
              "children": children}
    if trace:
        import tracer

        # trace overhead compares two children, so at the reference speed
        untraced, traced = (at_reference_speed(c)["op_s"] for c in children)
        values = tracer.per_layer_metrics(spans, traced, untraced)
        result["metrics"] = {name: (values[name], unit)
                             for name, (unit, _) in tracer.PER_LAYER.items()}
        sums = tracer.self_time_sums(spans, children[1]["op_s"])
        result["self_sum"] = (statistics.median(s for s, _ in sums),
                              statistics.median(t for _, t in sums))
    else:
        values, result["tail"] = end_to_end(children)
        result["metrics"] = {name: (values[name], END_TO_END[name]) for name in END_TO_END}
    return result


def report(args, result: dict) -> None:
    versions = result["children"][0]["versions"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"machine {platform.machine()} {platform.processor() or '-'} cpus {os.cpu_count()} "
          f"{platform.platform()}")
    print(f"python {versions['python']} numpy {versions['numpy']} scipy {versions['scipy']}")
    print(f"git {git_sha()} src-digest {source_digest()}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    if "tail" in result:
        raw = result["tail"]["raw"]
        print(f"  times above are at the reference host speed (calibration kernel "
              f"{CAL_REF_S:g} s); op_s_tail is p{result['tail']['tail_percentile']:g} of "
              f"{result['tail']['warm_samples']} warm ops; work_per_s counts "
              f"{workloads.WORK_UNITS[args.workload]} per second")
        print(f"  raw wall times: setup_s {raw['setup_s']:.6g} first_op_s "
              f"{raw['first_op_s']:.6g} op_s_p50 {raw['op_s_p50']:.6g}; calibration kernel "
              f"{raw['cal_s']:.6g} s")
    if "self_sum" in result:
        total, op = result["self_sum"]
        print(f"  layer self times sum to {total:.6g} s of a {op:.6g} s traced op")
    frac = result["failed"] / result["attempted"]
    print(f"  failed_frac {frac:.6g} ({result['failed']} of {result['attempted']} ops)")
    for problem in result["problems"][:5]:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    report(args, result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
