"""Command-line interface.

Exit status: 0 when every verdict holds, 1 when any verdict fails or an
entry errors, 2 for usage or specification errors.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import calculus as calc
from . import inequalities as ineq
from .domains import domain_from_spec, extract_boundary, load_json
from .errors import GmtLabError, SpecError
from .hausdorff import build_partition, estimate_hm_detail, partition_defect, partition_to_json
from .suite import build_function, emit, hash_file, parse_function_spec, parse_suite, run_suite


# mallopt(3) parameters of glibc
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory() -> None:
    """Keep the memory that numpy frees mapped for the rest of the process.

    By default glibc serves each block over 128 KiB with its own ``mmap``
    and unmaps it when it is freed, or trims the freed heap top, so the
    next temporary of that size faults its pages in again.  Serving blocks
    of up to 32 MiB (glibc's 64-bit maximum) from the heap and trimming
    only past 1 GiB keeps them mapped for reuse.  Only the command-line
    entry point calls this: a library caller keeps its own allocator.  A C
    library without ``mallopt`` (macOS, Windows) is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no handle on the C library
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def _finite_float(text: str) -> float:
    """argparse type of the scalar flags: a finite float (nan and inf exit 2)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _finite_floats(text: str, flag: str) -> list:
    """The finite floats of a comma-list flag, else SpecError."""
    try:
        return [_finite_float(item) for item in text.split(",")]
    except argparse.ArgumentTypeError as exc:
        raise SpecError(f"{flag}: {exc}") from None


def _env_seed() -> int:
    """The search seed from ``GMT_SEED`` (default 0), else SpecError."""
    raw = os.environ.get("GMT_SEED", "0")
    if not (raw.isascii() and raw.isdigit()):
        raise SpecError(f"GMT_SEED must be a nonnegative integer, got {raw!r}")
    return int(raw)


def _load_domain(path):
    return domain_from_spec(load_json(path))


def _load_function(path, domain):
    return build_function(parse_function_spec(load_json(path)), domain)


def write_series(series, path) -> None:
    """Write each (name, header, rows) series as TSV to ``<stem>_<name>.tsv``."""
    path = str(path)
    stem = path[: -len(".tsv")] if path.endswith(".tsv") else path
    for name, header, rows in series:
        out = [f"# series {name}", "\t".join(header)]
        out.extend("\t".join(repr(v) for v in row) for row in rows)
        with open(f"{stem}_{name}.tsv", "w", encoding="utf-8") as fh:
            fh.write("\n".join(out) + "\n")


def cmd_verify(args) -> int:
    manifest = run_suite(parse_suite(args.suite), input_hash=hash_file(args.suite))
    if args.out:
        fmt = "csv" if args.out.endswith(".csv") else "json"
        emit(manifest, fmt, args.out)
    entries = manifest["entries"]
    n_reports = sum(len(e["reports"]) for e in entries)
    n_failed = sum(1 for e in entries for r in e["reports"] if not r["holds"])
    n_errors = sum(1 for e in entries if e["error"])
    for e in entries:
        for r in e["reports"]:
            status = "ok" if r["holds"] else "VIOLATED"
            print(
                f"[{status}] {r['inequality_id']} ({r['constant_mode']}) on {e['domain']}"
                f" / {e['function']}: lhs={r['lhs']:.6g} rhs={r['rhs']:.6g} ratio={r['ratio']:.4f}"
            )
        if e["error"]:
            print(f"[ERROR] entry {e['index']} ({e['domain']}): {e['error']}")
    print(
        f"suite '{manifest['suite']}': {n_reports} checks, {n_failed} violations, "
        f"{n_errors} errors -> {'PASS' if manifest['pass'] else 'FAIL'}"
    )
    if not entries:
        print("warning: suite has no entries")
    return 0 if manifest["pass"] else 1


def cmd_estimate_hm(args) -> int:
    domain = _load_domain(args.domain)
    cloud = extract_boundary(domain)
    est = estimate_hm_detail(cloud, args.d, args.delta)
    print(
        f"H_{args.d} estimate at delta={args.delta}: {est.value!r} "
        f"(upper bound via {est.method} covering, {est.n_cells} cells)"
    )
    return 0


def cmd_partition(args) -> int:
    domain = _load_domain(args.domain)
    cloud = extract_boundary(domain)
    deltas = _finite_floats(args.delta, "--delta")
    rows = []
    last = None
    for delta in deltas:
        part = build_partition(cloud, domain.dim - 1, delta)
        defect = partition_defect(part, domain.dim - 1)
        rows.append((delta, defect))
        last = part
        print(f"delta={delta}: {len(part)} cells, rd_max={part.rd_max:.6g}, defect={defect:.6g}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(partition_to_json(last))
    if args.plot:
        write_series([("defect", ("delta", "defect"), rows)], args.plot)
    return 0


def cmd_trace(args) -> int:
    u = _load_function(args.function, _load_domain(args.domain))
    # an overflowed side is refused as a NumericalError; numpy's warning would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        trace = ineq.proof_trace(u, eps=args.eps)
    for step in trace.steps:
        mark = "ok" if step.holds else "VIOLATED"
        print(f"[{mark}] {step.label}: lhs={step.lhs:.6g} rhs={step.rhs:.6g}")
    print(f"trace: {'PASS' if trace.all_hold else 'FAIL'} ({trace.parameters['partition_cells']} cells)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(trace.to_dict(), fh, indent=2)
            fh.write("\n")
    if args.plot:
        series = [
            (step.label, ("quantity", "value"),
             [("lhs", step.lhs), ("rhs", step.rhs), ("holds", int(step.holds))])
            for step in trace.steps
        ]
        write_series(series, args.plot)
    return 0 if trace.all_hold else 1


def cmd_search(args) -> int:
    u0 = _load_function(args.function, _load_domain(args.domain))
    best, q_best = ineq.quotient_search(u0, iters=args.iters, step=args.step, seed=_env_seed())
    history = best.metadata["sweep_history"]
    bound = ineq.iso_constant(u0.domain.dim)
    print(f"best quotient {q_best!r} after {args.iters} sweeps (sharp constant {bound!r})")
    if args.plot:
        rows = list(enumerate(history))
        write_series([("quotient", ("sweep", "Q"), rows)], args.plot)
    return 0


def cmd_steiner(args) -> int:
    domain = _load_domain(args.domain)
    eps_list = _finite_floats(args.eps, "--eps")
    result = calc.minkowski_steiner(domain, eps_list)
    for e, qv in result.quotients:
        print(f"eps={e}: quotient={qv!r}")
    if result.extrapolated is not None:
        print(f"extrapolated perimeter: {result.extrapolated!r}")
    if args.plot:
        write_series([("steiner", ("eps", "quotient"), result.quotients)], args.plot)
    return 0


def build_parser() -> argparse.ArgumentParser:
    # flags match whole: a prefix such as ``--h`` would otherwise be read as ``--help``
    parser = argparse.ArgumentParser(
        prog="gmtlab",
        description="Verify isoperimetric and trace-type inequalities on rasterized domains.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"gmtlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    p = command("verify", cmd_verify, "run a suite of inequality checks")
    p.add_argument("suite")
    p.add_argument("--out", help="write the manifest (.json or .csv)")

    p = command("estimate-hm", cmd_estimate_hm, "estimate a boundary measure by coverings")
    p.add_argument("domain")
    p.add_argument("--d", type=_finite_float, required=True)
    p.add_argument("--delta", type=_finite_float, required=True)

    p = command("partition", cmd_partition, "build a measured boundary partition")
    p.add_argument("domain")
    p.add_argument("--delta", required=True, help="scale, or comma list for a defect sweep")
    p.add_argument("--out", help="write the cells as JSON")
    p.add_argument("--plot", help="write (delta, defect) TSV series")

    p = command("trace", cmd_trace, "trace the truncation proof step by step")
    p.add_argument("domain")
    p.add_argument("function")
    p.add_argument("--eps", type=_finite_float, required=True)
    p.add_argument("--out", help="write the trace report as JSON")
    p.add_argument("--plot", help="write one TSV series per step")

    p = command("search", cmd_search, "coordinate-ascent search on the trace quotient")
    p.add_argument("domain")
    p.add_argument("function")
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--step", type=_finite_float, required=True)
    p.add_argument("--plot", help="write the (sweep, Q) TSV series")

    p = command("steiner", cmd_steiner, "volume-growth perimeter quotients")
    p.add_argument("domain")
    p.add_argument("--eps", required=True, help="comma-separated list, descending")
    p.add_argument("--plot", help="write the (eps, quotient) TSV series")
    return parser


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except GmtLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
