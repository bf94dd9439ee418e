"""Property test of the exit contract on random, often malformed, inputs.

For any domain and function JSON, ``trace``, ``estimate-hm``, ``partition``,
a one-sweep ``search``, ``steiner`` and a one-entry ``verify`` return 0, 1
or 2 (or stop in argparse with exit status 2); no other exception escapes
``cli.main``.  Grid spacings stay at h >= 1/32 and lengths at most 2, so
every example is small.  Explicit examples pin the inputs that once escaped:
huge dimensions and grids too large to allocate.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

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


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse usage errors
            assert exc.code == 2, err.getvalue()
            return 2


@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(domain=domain_specs(), function=_FUNCTIONS, eps=_ARGS, d=_ARGS, delta=_ARGS,
       checks=st.lists(st.sampled_from(sorted(KNOWN_CHECKS)), min_size=1, max_size=2))
def test_exit_contract_on_random_specs(domain, function, eps, d, delta, checks):
    with tempfile.TemporaryDirectory() as tmp:
        dom = os.path.join(tmp, "domain.json")
        fn = os.path.join(tmp, "function.json")
        suite = os.path.join(tmp, "suite.json")
        for path, data in ((dom, domain), (fn, function), (suite, {"name": "p", "entries": [
                {"domain": domain, "function": function, "checks": checks}]})):
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
