"""Suite specifications, suite execution, and report emission.

Suites are strict JSON: unknown keys anywhere in the file are rejected so a
misspelled tolerance or parameter can never silently change a verdict.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import calculus as calc
from . import inequalities as ineq
from .domains import describe_spec, domain_from_spec, is_json_number, load_json
from .errors import GmtLabError, SpecError

__all__ = ["SuiteSpec", "SuiteEntry", "RunManifest", "parse_suite", "run_suite", "emit"]

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
    "mazya": lambda e, d, u: [ineq.check_mazya(d, u, mode=m) for m in e.modes],
    "mazya_l2": lambda e, d, u: [ineq.check_mazya_l2(d, u, e.parameters.get("c1", "auto"))],
    "isoperimetric": lambda e, d, u: [ineq.check_isoperimetric(d)],
    "sobolev": lambda e, d, u: [ineq.check_sobolev(u)],
    "sobolev_extended": lambda e, d, u: [
        ineq.check_extended_sobolev(u, e.parameters.get("k_list", ineq.MOLLIFIER_INDICES))],
    "bv_bound": lambda e, d, u: [ineq.check_bv_bound(d, u)],
    "brunn_minkowski": lambda e, d, u: [ineq.check_brunn_minkowski(
        d, domain_from_spec(e.parameters.get("domain_b", e.domain_spec)))],
    "perimeter_iso": lambda e, d, u: [ineq.check_perimeter_iso(d, e.parameters.get("eps_list"))],
    "swap_test": lambda e, d, u: [_swap_test(d)],
}
KNOWN_CHECKS = set(_CHECKS)


@dataclass
class SuiteEntry:
    domain_spec: dict
    function_spec: dict | str
    checks: list
    modes: list
    parameters: dict

    @property
    def domain_label(self) -> str:
        return describe_spec(self.domain_spec)

    @property
    def function_label(self) -> str:
        if isinstance(self.function_spec, str):
            return self.function_spec
        return self.function_spec["expr"]


@dataclass
class SuiteSpec:
    name: str
    entries: list


@dataclass
class RunManifest:
    version: str
    timestamp: str
    input_hash: str
    suite_name: str
    entries: list  # {"index", "domain", "function", "error", "reports": [...]}
    passed: bool

    def to_dict(self) -> dict:
        return {
            "tool": "gmtlab",
            "version": self.version,
            "timestamp": self.timestamp,
            "input_hash": self.input_hash,
            "suite": self.suite_name,
            "pass": self.passed,
            "entries": self.entries,
        }


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


def parse_suite_dict(data: dict) -> SuiteSpec:
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
        entries.append(
            SuiteEntry(
                domain_spec=raw["domain"],
                function_spec=parse_function_spec(raw["function"]),
                checks=list(checks),
                modes=list(modes),
                parameters=dict(parameters),
            )
        )
    return SuiteSpec(name=name, entries=entries)


def parse_suite(path) -> SuiteSpec:
    return parse_suite_dict(load_json(path))


def suite_to_dict(spec: SuiteSpec) -> dict:
    return {
        "name": spec.name,
        "entries": [
            {
                "domain": e.domain_spec,
                "function": e.function_spec,
                "checks": e.checks,
                "modes": e.modes,
                "parameters": e.parameters,
            }
            for e in spec.entries
        ],
    }


def _run_entry(entry: SuiteEntry) -> list:
    domain = domain_from_spec(entry.domain_spec)
    u = build_function(entry.function_spec, domain)
    # a sum that overflows leaves inf or nan, which the Report refuses as an
    # entry error; numpy's warning about it would only repeat that
    with np.errstate(over="ignore", invalid="ignore"):
        reports = [rep for cid in entry.checks for rep in _CHECKS[cid](entry, domain, u)]
    for rep in reports:
        rep.metadata["domain"] = entry.domain_label
        rep.metadata["function"] = entry.function_label
    return reports


def run_suite(spec: SuiteSpec, input_hash: str = "") -> RunManifest:
    """Execute all entries sequentially and collect reports.

    Per-entry errors are recorded without aborting the suite; the manifest
    passes only when every report holds and no entry errored.
    """
    entries_out = []
    all_hold = True
    for idx, entry in enumerate(spec.entries):
        record = {
            "index": idx,
            "domain": "?",  # kept if the domain spec is too malformed to describe
            "function": entry.function_label,
            "error": None,
            "reports": [],
        }
        try:
            record["domain"] = entry.domain_label
            reports = _run_entry(entry)
            record["reports"] = [r.to_dict() for r in reports]
            if not all(r.holds for r in reports):
                all_hold = False
        except (GmtLabError, ValueError) as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
            all_hold = False
        entries_out.append(record)
    timestamp = _dt.datetime.now(_dt.timezone.utc).isoformat()
    return RunManifest(
        version=__version__,
        timestamp=timestamp,
        input_hash=input_hash,
        suite_name=spec.name,
        entries=entries_out,
        passed=all_hold,
    )


def hash_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# emission

CSV_HEADER = "inequality_id,domain,function,h,lhs,rhs,ratio,holds"


def _csv_body(manifest: RunManifest) -> list:
    rows = [CSV_HEADER]
    for entry in manifest.entries:
        for rep in entry["reports"]:
            rows.append(
                ",".join(
                    [
                        rep["inequality_id"],
                        '"' + entry["domain"] + '"',
                        '"' + entry["function"] + '"',
                        repr(rep["metadata"].get("h", "")),
                        repr(rep["lhs"]),
                        repr(rep["rhs"]),
                        repr(rep["ratio"]),
                        str(bool(rep["holds"])).lower(),
                    ]
                )
            )
        if entry["error"]:
            rows.append(f'error,"{entry["domain"]}","{entry["function"]}",,,,,error')
    return rows


def emit(manifest: RunManifest, fmt: str, path) -> None:
    """Write a manifest as json or csv.

    Output bytes depend only on the manifest content; the timestamp is
    confined to one header line (csv) or one top-level field (json).
    """
    path = str(path)
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest.to_dict(), fh, indent=2)
            fh.write("\n")
        return
    if fmt == "csv":
        lines = [f"# gmtlab {manifest.version} run {manifest.timestamp}"]
        lines.extend(_csv_body(manifest))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return
    raise SpecError(f"unknown emission format '{fmt}'")
