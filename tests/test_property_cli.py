"""Property test of the exit contract on random, often malformed, inputs.

For any domain and function JSON, ``trace``, ``estimate-hm``, ``partition``,
a one-sweep ``search``, ``steiner`` and a one-entry ``verify`` (with random
check ids, modes and suite parameters) return 0, 1 or 2 (or stop in argparse
with exit status 2); no other exception escapes ``cli.main``.  Grid spacings
stay at h >= 1/32 and lengths at most 2, so every example is small.
Explicit examples pin the inputs that once escaped: huge dimensions, grids
too large to allocate, expressions nested past Python's recursion limit and
suite values of the wrong JSON shape.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

from gmtlab.cli import main  # noqa: E402
from gmtlab.suite import KNOWN_CHECKS  # noqa: E402

_SPECIAL = [math.nan, math.inf, -math.inf, -1, 0, "0.5", None, True, [], {}, [0.1]]
_LEN = st.floats(0.05, 1.0)


def _vec(dim, elements=st.floats(-0.5, 0.5)):
    return st.lists(elements, min_size=dim, max_size=dim)


_PARAMS = {
    "ball": lambda dim: {"r": _LEN, "center": _vec(dim)},
    "box": lambda dim: {"sides": _vec(dim, _LEN), "corner": _vec(dim)},
    "annulus": lambda dim: {"r_outer": _LEN, "r_inner": _LEN, "center": _vec(2)},
    "polygon": lambda dim: {"vertices": st.lists(_vec(2), min_size=3, max_size=5)},
}


@st.composite
def domain_specs(draw):
    """A valid domain spec, or one with a single field broken, dropped or added."""
    kind = draw(st.sampled_from(sorted(_PARAMS)))
    params = {k: draw(v) for k, v in _PARAMS[kind](draw(st.sampled_from([2, 2, 3]))).items()}
    spec = {"kind": kind, "params": params, "h": draw(st.sampled_from([1 / 32, 1 / 16, 0.125]))}
    fault = draw(st.sampled_from([None, None, "value", "drop", "extra"]))
    if fault == "value":
        key = draw(st.sampled_from(sorted(params) + ["h", "kind"]))
        (spec if key in spec else params)[key] = draw(st.sampled_from(_SPECIAL))
    elif fault == "drop":
        key = draw(st.sampled_from(sorted(params) + sorted(spec)))
        (spec if key in spec else params).pop(key)
    elif fault == "extra":
        params["bogus"] = 1
    return spec


_FUNCTIONS = st.one_of(
    st.just("indicator"),
    st.fixed_dictionaries(
        {"expr": st.sampled_from(["1", "x*x + 1", "max(0, 1 - r*r)", "y", "1/0", "x +", "foo", 3])},
        optional={"lipschitz": st.one_of(st.floats(0.0, 4.0), st.sampled_from(_SPECIAL)),
                  "scale": st.just(1)},
    ),
    st.sampled_from([[], "x", 1, None, {}]),
)
_ARGS = st.sampled_from(["0.05", "0.5", "1", "2", "0", "-1", "abc", "nan"])
_CHECK_IDS = st.lists(st.sampled_from(sorted(KNOWN_CHECKS) + [["mazya"]]), min_size=1, max_size=2)
_MODES = st.one_of(st.none(), st.lists(st.sampled_from(["optimal", "paper_factor", "bogus"]), max_size=2),
                   st.sampled_from(_SPECIAL))
# good values of each suite parameter; "h" and "delta" stand for keys that no check reads
_GOOD_PARAMETERS = {
    "c1": st.sampled_from(["auto", 0.5, 2]),
    "k_list": st.lists(st.integers(1, 16), max_size=2),
    "eps_list": st.just([0.5, 0.25]),
    "domain_b": domain_specs(),
    "h": st.just(1 / 32),
    "delta": st.just(0.1),
}


@st.composite
def suite_parameters(draw):
    """No parameters, or up to two keys, each with a good or a special value."""
    keys = draw(st.one_of(st.none(), st.lists(st.sampled_from(sorted(_GOOD_PARAMETERS)),
                                              unique=True, max_size=2)))
    if keys is None:
        return None
    return {k: draw(st.one_of(_GOOD_PARAMETERS[k], st.sampled_from(_SPECIAL))) for k in keys}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse usage errors
            assert exc.code == 2, err.getvalue()
            return 2


_BOX = {"kind": "box", "params": {"sides": [1, 1]}, "h": 1 / 32}


@settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
@given(domain=domain_specs(), function=_FUNCTIONS, eps=_ARGS, d=_ARGS, delta=_ARGS,
       checks=_CHECK_IDS, modes=_MODES, parameters=suite_parameters())
# suite values that once ended in a TypeError traceback
@example(_BOX, "indicator", "0.5", "1", "0.5", ["mazya_l2"], None, {"c1": [1]})
@example(_BOX, "indicator", "0.5", "1", "0.5", ["perimeter_iso"], None, {"eps_list": 5})
@example(_BOX, "indicator", "0.5", "1", "0.5", ["perimeter_iso"], None, {"eps_list": [[1]]})
@example(_BOX, "indicator", "0.5", "1", "0.5", ["mazya"], 5, None)
@example(_BOX, "indicator", "0.5", "1", "0.5", [["mazya"]], None, None)
def test_exit_contract_on_random_specs(domain, function, eps, d, delta, checks, modes, parameters):
    entry = {"domain": domain, "function": function, "checks": checks}
    for key, value in (("modes", modes), ("parameters", parameters)):
        if value is not None:
            entry[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        dom = os.path.join(tmp, "domain.json")
        fn = os.path.join(tmp, "function.json")
        suite = os.path.join(tmp, "suite.json")
        for path, data in ((dom, domain), (fn, function), (suite, {"name": "p", "entries": [entry]})):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
        for argv in (["trace", dom, fn, "--eps", eps],
                     ["estimate-hm", dom, "--d", d, "--delta", delta],
                     ["partition", dom, "--delta", delta],
                     ["search", dom, fn, "--iters", "1", "--step", d],
                     ["steiner", dom, "--eps", eps],
                     ["verify", suite]):
            assert _run(argv) in (0, 1, 2), argv


_DISK = {"kind": "ball", "params": {"r": 1.0}, "h": 0.0625}
_FINE = {"kind": "ball", "params": {"r": 1.0}, "h": 1e-7}  # 4e14 cells
_VAST = {"kind": "ball", "params": {"r": 1e300}, "h": 1}  # more cells than int64 counts


@pytest.mark.parametrize("domain, argv, status, stdout", [
    # the unit-ball volume of a huge dimension underflows to 0, it does not overflow
    (_DISK, ["estimate-hm", "{dom}", "--d", "400", "--delta", "0.2"], 0, "delta=0.2: 0.0 ("),
    (_DISK, ["estimate-hm", "{dom}", "--d", "1e308", "--delta", "0.2"], 0, "delta=0.2: 0.0 ("),
    # grids too large to allocate are refused before anything is allocated
    (_FINE, ["estimate-hm", "{dom}", "--d", "1", "--delta", "0.2"], 2, ""),
    (_FINE, ["trace", "{dom}", "{fn}", "--eps", "0.2"], 2, ""),
    (_VAST, ["estimate-hm", "{dom}", "--d", "1", "--delta", "0.2"], 2, ""),
    (_DISK, ["steiner", "{dom}", "--eps", "1e6,5e5,2e5"], 2, ""),
    (_DISK, ["steiner", "{dom}", "--eps", "1e300,1e299"], 2, ""),
    # in a suite the oversized entry is an entry error and the others still run
    (_FINE, ["verify", "{suite}"], 1, "1 checks, 0 violations, 1 errors -> FAIL"),
], ids=["d400", "d1e308", "fine_estimate", "fine_trace", "vast_estimate", "steiner_1e6",
        "steiner_1e300", "fine_verify"])
def test_exit_contract_examples(tmp_path, domain, argv, status, stdout):
    files = {"dom": domain, "fn": {"expr": "max(0, 1 - r*r)", "lipschitz": 2.0},
             "suite": {"name": "p", "entries": [
                 {"domain": domain, "function": "indicator", "checks": ["isoperimetric"]},
                 {"domain": _DISK, "function": "indicator", "checks": ["isoperimetric"]}]}}
    paths = {}
    for key, data in files.items():
        paths[key] = str(tmp_path / f"{key}.json")
        with open(paths[key], "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main([a.format(**paths) for a in argv]) == status
    assert stdout in out.getvalue()
    if status == 2:
        assert err.getvalue().startswith("error: grid of ")
    if argv[0] == "verify":
        assert "exceeds the limit" in out.getvalue()


def test_oversized_mollifier_is_a_chain_error(tmp_path):
    # the k=1 kernel of this 404^2 grid would have 199,999^2 cells (298 GiB)
    entry = {"domain": {"kind": "ball", "params": {"r": 0.002}, "h": 1e-5}, "function": "indicator",
             "checks": ["sobolev_extended"], "parameters": {"k_list": [1]}}
    suite, report = tmp_path / "suite.json", tmp_path / "report.json"
    suite.write_text(json.dumps({"name": "p", "entries": [entry]}), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["verify", str(suite), "--out", str(report)]) == 0
    assert "0 errors -> PASS" in out.getvalue() and err.getvalue() == ""
    assert "exceeds the limit" in report.read_text(encoding="utf-8")


@pytest.mark.parametrize("command, expr, status", [
    ("trace", "(" * 400 + "x" + ")" * 400, 2),
    ("verify", "-" * 3000 + "x", 1),
    ("search", "+".join(["x"] * 2000), 2),  # parses flat, but its tree is 2,000 levels deep
], ids=["parentheses", "signs", "long_sum"])
def test_deep_expression_is_a_typed_error(tmp_path, command, expr, status):
    fn = {"expr": expr, "lipschitz": 1.0}
    files = {"dom": _DISK, "fn": fn, "suite": {"name": "p", "entries": [
        {"domain": _DISK, "function": fn, "checks": ["mazya"]}]}}
    for key, data in files.items():
        (tmp_path / f"{key}.json").write_text(json.dumps(data), encoding="utf-8")
    argv = {"trace": ["trace", "dom", "fn", "--eps", "0.5"],
            "search": ["search", "dom", "fn", "--iters", "1", "--step", "0.1"],
            "verify": ["verify", "suite"]}[command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main([str(tmp_path / f"{a}.json") if a in files else a for a in argv]) == status
    if command == "verify":
        assert "ExpressionError: expression nests deeper than 100 levels" in out.getvalue()
        assert err.getvalue() == ""
    else:
        assert err.getvalue() == "error: expression nests deeper than 100 levels\n"
