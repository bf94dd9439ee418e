"""The three workloads: seeded inputs, the CLI calls of one op, and the output oracle.

Seed 0 writes the reference inputs (``verify`` copies ``suites/standard.json``
byte for byte).  Any other seed shifts every centre and corner by a sub-cell
offset and jitters radii, sides and polygon vertices by at most ``JITTER`` of
the domain size; grid spacings, scales and eps never change, so the
work of an op does not depend on the seed.  The program only ever sees the
files written here.
"""

from __future__ import annotations

import json
import math
import random
import re
from pathlib import Path

NAMES = ("verify", "covering", "proof")

# relative jitter of radii, sides and vertices for seeds other than 0; kept
# well under the 5% ceiling so cell and sample counts (and so op times) move
# by a few percent at most between seeds
JITTER = 0.01

# what one unit of work_per_s counts on each workload
WORK_UNITS = {
    "verify": "checks",
    "covering": "boundary samples",
    "proof": "partition cells",
}

# relative tolerance on reference numbers: identical arithmetic reproduces
# them exactly; this only absorbs last-digit libm/FFT differences across hosts
REF_RTOL = 1e-9
# covering estimates over the exact measure (2*pi*r in 2D, 4*pi*r^2 in 3D):
# the 2D disk at h=1/1024 lands within 5%; the 3D sphere at h=1/64 and
# delta=0.125 lands between its area and its axis-aligned staircase area
# (6*pi*r^2), because the covering sums the rasterized surface
COVERING_BAND = {2: (0.95, 1.05), 3: (1.0, 1.5)}
TRACE_STEPS = ("main4", "main5", "main6", "prelim_est", "hm_sum_estimate", "main3")

STANDARD_SUITE = Path("suites") / "standard.json"

PROOF_FUNCTION = {"expr": "max(0, 1 - r*r)", "lipschitz": 2.0}


def _jit(rng: random.Random, value: float) -> float:
    return value * (1.0 + JITTER * rng.uniform(-1.0, 1.0))


def _offset(rng: random.Random, h: float, dim: int) -> list:
    """Sub-cell shift in [0, h/2) per axis (nonnegative keeps x >= 0 on boxes)."""
    return [rng.uniform(0.0, 0.5 * h) for _ in range(dim)]


def _ball(rng, r, h, dim=2):
    if rng is None:
        params = {"r": r} if dim == 2 else {"r": r, "center": [0.0] * dim}
    else:
        params = {"r": _jit(rng, r), "center": _offset(rng, h, dim)}
    return {"kind": "ball", "params": params, "h": h}


def _perturb_standard(suite: dict, rng: random.Random) -> dict:
    for entry in suite["entries"]:
        specs = [entry["domain"]]
        if "domain_b" in entry.get("parameters", {}):
            specs.append(entry["parameters"]["domain_b"])
        for spec in specs:
            p, h = spec["params"], spec["h"]
            kind = spec["kind"]
            if kind == "ball":
                p["r"] = _jit(rng, p["r"])
                p["center"] = _offset(rng, h, 2)
            elif kind == "annulus":
                p["r_outer"] = _jit(rng, p["r_outer"])
                p["r_inner"] = _jit(rng, p["r_inner"])
                p["center"] = _offset(rng, h, 2)
            elif kind == "box":
                p["sides"] = [_jit(rng, s) for s in p["sides"]]
                p["corner"] = _offset(rng, h, len(p["sides"]))
            elif kind == "polygon":
                shift = _offset(rng, h, 2)
                p["vertices"] = [
                    [c + s + JITTER * rng.uniform(-1.0, 1.0) for c, s in zip(v, shift)]
                    for v in p["vertices"]
                ]
    return suite


def _write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")
    return str(path)


def make_plan(workload: str, seed: int, repo: Path, work_dir: Path) -> dict:
    """Write the inputs of one workload into work_dir and describe one op.

    Returns a JSON-able plan: ``calls`` is the list of CLI argv lists that
    make one op, ``files`` names outputs the op writes, ``expect`` carries
    what the oracle needs beyond the outputs themselves.
    """
    if workload not in NAMES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = None if seed == 0 else random.Random(f"{workload}:{seed}")
    work_dir.mkdir(parents=True, exist_ok=True)
    plan = {"workload": workload, "seed": seed, "gmt_seed": str(seed), "expect": {}}
    if workload == "verify":
        suite_path = work_dir / "suite.json"
        raw = (repo / STANDARD_SUITE).read_bytes()
        if rng is None:
            suite_path.write_bytes(raw)
        else:
            _write_json(suite_path, _perturb_standard(json.loads(raw), rng))
        report = str(work_dir / "report.json")
        plan["calls"] = [["verify", str(suite_path), "--out", report]]
        plan["files"] = {"report": report}
    elif workload == "covering":
        calls, radii = [], []
        for name, dim, h, delta in (("ball3d", 3, 1 / 64, 0.125), ("disk2d", 2, 1 / 1024, 0.2)):
            spec = _ball(rng, 1.0, h, dim)
            radii.append([dim, spec["params"]["r"]])
            path = _write_json(work_dir / f"{name}.json", spec)
            calls.append(["estimate-hm", path, "--d", str(dim - 1), "--delta", repr(delta)])
        plan["calls"] = calls
        plan["files"] = {}
        plan["domains"] = [c[1] for c in calls]
        plan["expect"]["radii"] = radii
    else:
        domain = _write_json(work_dir / "disk.json", _ball(rng, 1.0, 1 / 512))
        func = _write_json(work_dir / "func.json", PROOF_FUNCTION)
        out = str(work_dir / "trace.json")
        plan["calls"] = [["trace", domain, func, "--eps", "0.05", "--out", out]]
        plan["files"] = {"trace": out}
    return plan


# ---------------------------------------------------------------------------
# outputs


_ESTIMATE_RE = re.compile(
    r"H_(\S+) estimate at delta=(\S+): (\S+) \(upper bound via (\S+) covering, (\d+) cells\)"
)


def normalize(plan: dict, results: list) -> dict:
    """Reduce one op's (exit code, stdout) results and files to comparable data.

    Drops only the run timestamp, so two reps of one input must give equal
    dicts.  Raises ValueError when an output cannot be parsed.
    """
    out = {"exit": [code for code, _ in results]}
    workload = plan["workload"]
    if workload == "verify":
        report = json.loads(Path(plan["files"]["report"]).read_text(encoding="utf-8"))
        report.pop("timestamp")
        out["report"] = report
    elif workload == "covering":
        estimates = []
        for _, text in results:
            m = _ESTIMATE_RE.search(text)
            if m is None:
                raise ValueError(f"unparsed estimate-hm output: {text!r}")
            estimates.append(
                {"value": float(m.group(3)), "method": m.group(4), "cells": int(m.group(5))}
            )
        out["estimates"] = estimates
    else:
        out["trace"] = json.loads(Path(plan["files"]["trace"]).read_text(encoding="utf-8"))
    return out


def reference_view(workload: str, out: dict) -> dict:
    """The numbers, verdicts and counts that seed 0 must reproduce."""
    if workload == "verify":
        return {
            "pass": out["report"]["pass"],
            "reports": [
                [r["inequality_id"], r["constant_mode"], r["lhs"], r["rhs"], r["holds"]]
                for e in out["report"]["entries"]
                for r in e["reports"]
            ],
            "errors": [e["error"] for e in out["report"]["entries"]],
        }
    if workload == "covering":
        return {"estimates": out["estimates"]}
    return {
        "partition_cells": out["trace"]["parameters"]["partition_cells"],
        "steps": [[s["label"], s["lhs"], s["rhs"], s["holds"]] for s in out["trace"]["steps"]],
        "all_hold": out["trace"]["all_hold"],
    }


def work_per_op(plan: dict, out: dict, sizes: dict) -> int:
    """Units of work in one op (see WORK_UNITS); sizes holds input cell and sample counts."""
    workload = plan["workload"]
    if workload == "verify":
        return sum(len(e["reports"]) for e in out["report"]["entries"])
    if workload == "covering":
        return sum(sizes["samples"])
    return out["trace"]["parameters"]["partition_cells"]


def _close(a, b) -> bool:
    """Equal, except that floats may differ by REF_RTOL relative."""
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=REF_RTOL, abs_tol=0.0)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    return a == b


def check(plan: dict, out: dict, reference: dict | None) -> list:
    """Oracle: the list of problems with one op's output (empty when correct).

    Every op must exit 0 with every verdict holding.  With a reference (seed
    0) the checked numbers must match it; otherwise the paper's invariants
    must hold.
    """
    problems = []
    workload = plan["workload"]
    if any(code != 0 for code in out["exit"]):
        problems.append(f"exit codes {out['exit']}, expected 0")
    view = reference_view(workload, out)
    if workload == "verify":
        if not view["pass"] or not all(r[4] for r in view["reports"]):
            problems.append("a verify check does not hold")
        if any(view["errors"]):
            problems.append(f"entry errors {view['errors']}")
    elif workload == "covering":
        for est, (dim, r) in zip(view["estimates"], plan["expect"]["radii"]):
            exact = 2 * math.pi * r if dim == 2 else 4 * math.pi * r * r
            lo, hi = COVERING_BAND[dim]
            if not lo <= est["value"] / exact <= hi:
                problems.append(f"{dim}D estimate {est['value']} outside [{lo}, {hi}] x {exact}")
    else:
        labels = tuple(s[0] for s in view["steps"])
        if labels != TRACE_STEPS or not all(s[3] for s in view["steps"]) or not view["all_hold"]:
            problems.append("a trace step does not hold")
    if reference is not None and not _close(view, reference):
        problems.append(f"differs from the seed-0 reference: {view} != {reference}")
    return problems
