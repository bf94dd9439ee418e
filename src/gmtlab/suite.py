"""Suite parsing, suite execution, and report emission.

A suite and the manifest of its run are plain JSON data, held as the dicts
they are read from and written to.  Suites are strict JSON: unknown keys
anywhere in the file are rejected so a misspelled tolerance or parameter
can never silently change a verdict.
"""

from __future__ import annotations

import copy
import datetime as _dt
import hashlib
import json

import numpy as np

from . import __version__
from . import calculus as calc
from . import inequalities as ineq
from .domains import describe_spec, domain_from_spec, is_json_number, load_json
from .errors import GmtLabError, SpecError

__all__ = ["parse_suite", "run_suite", "emit"]

_ENTRY_KEYS = {"domain", "function", "checks", "modes", "parameters"}
# parameter -> (the JSON shape its value must have, the test of that shape)
_PARAMS = {
    "c1": ("'auto' or a number", lambda v: v == "auto" or is_json_number(v)),
    "k_list": ("a list of positive integers",
               lambda v: isinstance(v, list) and all(type(k) is int and k >= 1 for k in v)),
    "eps_list": ("a nonempty list of numbers",
                 lambda v: isinstance(v, list) and v != [] and all(map(is_json_number, v))),
    "domain_b": ("an object", lambda v: isinstance(v, dict)),
}
_FUNCTION_KEYS = {"expr", "lipschitz"}
_SUITE_KEYS = {"name", "entries"}


def _swap_test(domain):
    """Deliberately violated fixture: the isoperimetric sides swapped."""
    base = ineq.check_isoperimetric(domain)
    return ineq.Report(
        "swap_test", base.rhs, base.lhs, base.constant_mode,
        base.constant_value, base.tol, metadata={"swap_test": True, "h": domain.spacing},
    )


# check id -> reports of that check for (entry, domain, function); the rows
# look ``ineq.check_*`` up at call time so wrappers installed on the module
# see every call
_CHECKS = {
    "mazya": lambda e, d, u: [ineq.check_mazya(u, mode=m) for m in e["modes"]],
    "mazya_l2": lambda e, d, u: [ineq.check_mazya_l2(u, e["parameters"].get("c1", "auto"))],
    "isoperimetric": lambda e, d, u: [ineq.check_isoperimetric(d)],
    "sobolev": lambda e, d, u: [ineq.check_sobolev(u)],
    "sobolev_extended": lambda e, d, u: [
        ineq.check_extended_sobolev(u, e["parameters"].get("k_list", ineq.MOLLIFIER_INDICES))],
    "bv_bound": lambda e, d, u: [ineq.check_bv_bound(u)],
    "brunn_minkowski": lambda e, d, u: [ineq.check_brunn_minkowski(
        d, domain_from_spec(e["parameters"].get("domain_b", e["domain"])))],
    "perimeter_iso": lambda e, d, u: [ineq.check_perimeter_iso(d, e["parameters"].get("eps_list"))],
    "swap_test": lambda e, d, u: [_swap_test(d)],
}
KNOWN_CHECKS = set(_CHECKS)


def parse_function_spec(fn) -> dict | str:
    """The spec if valid: ``"indicator"`` or ``{"expr": str[, "lipschitz": finite number >= 0]}``."""
    if fn == "indicator":
        return fn
    if not isinstance(fn, dict):
        raise SpecError("function must be 'indicator' or an object with 'expr'")
    unknown = set(fn) - _FUNCTION_KEYS
    if unknown:
        raise SpecError(f"unknown function spec keys: {sorted(unknown)}")
    if not isinstance(fn.get("expr"), str):
        raise SpecError("function spec needs a string 'expr'")
    lips = fn.get("lipschitz", 0.0)
    if not is_json_number(lips):
        raise SpecError(f"'lipschitz' must be a finite number, got {lips!r}")
    if lips < 0:
        raise SpecError(f"'lipschitz' must be nonnegative, got {lips!r}")
    return fn


def build_function(spec: dict | str, domain):
    """The grid function of a spec accepted by :func:`parse_function_spec`."""
    if spec == "indicator":
        return calc.indicator_function(domain)
    lips = spec.get("lipschitz")
    return calc.from_expression(domain, spec["expr"],
                                lipschitz=None if lips is None else float(lips))


def parse_suite_dict(data: dict) -> dict:
    """The checked suite in its normal form, else a SpecError.

    The result is ``{"name": str, "entries": [...]}``, and every entry has
    exactly the keys ``domain``, ``function``, ``checks``, ``modes`` and
    ``parameters``, the defaults filled in (both Maz'ya modes, no
    parameters).  Parsing a normal form again gives an equal dict.
    """
    if not isinstance(data, dict):
        raise SpecError("suite must be a JSON object")
    unknown = set(data) - _SUITE_KEYS
    if unknown:
        raise SpecError(f"unknown suite keys: {sorted(unknown)}")
    name = data.get("name")
    if not isinstance(name, str):
        raise SpecError("suite needs a string 'name'")
    raw_entries = data.get("entries")
    if not isinstance(raw_entries, list):
        raise SpecError("suite needs an 'entries' list")
    entries = []
    for pos, raw in enumerate(raw_entries):
        if not isinstance(raw, dict):
            raise SpecError(f"entry {pos} must be an object")
        unknown = set(raw) - _ENTRY_KEYS
        if unknown:
            raise SpecError(f"entry {pos}: unknown keys {sorted(unknown)}")
        for key in ("domain", "function", "checks"):
            if key not in raw:
                raise SpecError(f"entry {pos} is missing '{key}'")
        checks = raw["checks"]
        if not isinstance(checks, list) or not checks:
            raise SpecError(f"entry {pos}: 'checks' must be a nonempty list")
        for cid in checks:
            if not isinstance(cid, str) or cid not in KNOWN_CHECKS:
                raise SpecError(f"entry {pos}: 'checks' holds an unknown inequality id {cid!r}")
        modes = raw.get("modes", list(ineq.MAZYA_MODES))
        if not (isinstance(modes, list) and modes and all(m in ineq.MAZYA_MODES for m in modes)):
            raise SpecError(f"entry {pos}: 'modes' must list some of {ineq.MAZYA_MODES}, got {modes!r}")
        parameters = raw.get("parameters", {})
        if not isinstance(parameters, dict):
            raise SpecError(f"entry {pos}: 'parameters' must be an object")
        for key, value in parameters.items():
            if key not in _PARAMS:
                raise SpecError(f"entry {pos}: unknown parameter '{key}'")
            shape, is_shape = _PARAMS[key]
            if not is_shape(value):
                raise SpecError(f"entry {pos}: parameter '{key}' must be {shape}, got {value!r}")
        # only the domain's shape: its spec is checked when the entry runs
        if not isinstance(raw["domain"], dict):
            raise SpecError(f"entry {pos}: 'domain' must be an object")
        entries.append({
            "domain": raw["domain"],
            "function": parse_function_spec(raw["function"]),
            "checks": list(checks),
            "modes": list(modes),
            "parameters": dict(parameters),
        })
    return {"name": name, "entries": entries}


def parse_suite(path) -> dict:
    return parse_suite_dict(load_json(path))


def suite_to_dict(spec: dict) -> dict:
    """A copy of a parsed suite that shares no object with it."""
    return copy.deepcopy(spec)


def run_suite(spec: dict, input_hash: str = "") -> dict:
    """Run the entries of a parsed suite in order; the manifest that :func:`emit` writes.

    The manifest is ``{"tool", "version", "timestamp", "input_hash",
    "suite", "pass", "entries"}`` with one record ``{"index", "domain",
    "function", "error", "reports"}`` per entry; each label is made once,
    and every report's metadata repeats it.  Per-entry errors are recorded
    without aborting the suite; the manifest passes only when every report
    holds and no entry errored.
    """
    records = []
    for idx, entry in enumerate(spec["entries"]):
        fn = entry["function"]
        record = {
            "index": idx,
            "domain": "?",  # kept if the domain spec is too malformed to describe
            "function": fn if isinstance(fn, str) else fn["expr"],
            "error": None,
            "reports": [],
        }
        try:
            record["domain"] = describe_spec(entry["domain"])
            domain = domain_from_spec(entry["domain"])
            u = build_function(fn, domain)
            # a sum that overflows leaves inf or nan, which the Report refuses as an
            # entry error; numpy's warning about it would only repeat that
            with np.errstate(over="ignore", invalid="ignore"):
                reports = [rep for cid in entry["checks"] for rep in _CHECKS[cid](entry, domain, u)]
            for rep in reports:
                rep.metadata["domain"] = record["domain"]
                rep.metadata["function"] = record["function"]
            record["reports"] = [rep.to_dict() for rep in reports]
        except (GmtLabError, ValueError) as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
        records.append(record)
    return {
        "tool": "gmtlab",
        "version": __version__,
        "timestamp": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "input_hash": input_hash,
        "suite": spec["name"],
        "pass": all(r["error"] is None and all(rep["holds"] for rep in r["reports"]) for r in records),
        "entries": records,
    }


def hash_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# emission

CSV_HEADER = "inequality_id,domain,function,h,lhs,rhs,ratio,holds"


def _quoted(text: str) -> str:
    """A CSV field in double quotes, each quote inside it doubled (RFC 4180)."""
    return '"' + text.replace('"', '""') + '"'


def _csv_body(manifest: dict) -> list:
    rows = [CSV_HEADER]
    for entry in manifest["entries"]:
        labels = f'{_quoted(entry["domain"])},{_quoted(entry["function"])}'
        for rep in entry["reports"]:
            numbers = (rep["metadata"].get("h", ""), rep["lhs"], rep["rhs"], rep["ratio"])
            rows.append(",".join([rep["inequality_id"], labels, *map(repr, numbers),
                                  str(bool(rep["holds"])).lower()]))
        if entry["error"]:
            rows.append(f"error,{labels},,,,,error")
    return rows


def emit(manifest: dict, fmt: str, path) -> None:
    """Write a manifest as json or csv.

    Output bytes depend only on the manifest content; the timestamp is
    confined to one header line (csv) or one top-level field (json).
    """
    path = str(path)
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
        return
    if fmt == "csv":
        lines = [f"# gmtlab {manifest['version']} run {manifest['timestamp']}"]
        lines.extend(_csv_body(manifest))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return
    raise SpecError(f"unknown emission format '{fmt}'")
