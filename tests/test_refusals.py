"""Typed refusals of malformed arguments, each with its error type and message."""

import re

import numpy as np
import pytest

from gmtlab import inequalities
from gmtlab.calculus import (GridFunction, constant_function, fft_convolve, interior_region, minkowski_steiner,
                             mollify, restrict_to_domain)
from gmtlab.constants import TRACE_STEP_TOLERANCES
from gmtlab.domains import GridDomain, extract_boundary, make_annulus, make_ball, make_box
from gmtlab.errors import InvalidArgumentError
from gmtlab.hausdorff import estimate_hm_detail
from gmtlab.inequalities import (
    TraceReport,
    TraceStep,
    check_brunn_minkowski,
    check_extended_sobolev,
    check_isoperimetric,
    check_mazya_l2,
    proof_trace,
    quotient_search,
)


def _disk(h=1 / 16):
    return make_ball((0.0, 0.0), 1.0, h)


def _one():
    return constant_function(_disk(), 1.0)


_EMPTY = np.zeros((4, 4), dtype=bool)

# name -> (the call, its error type, its whole message)
_REFUSALS = {
    "values shape": (lambda: GridFunction(_disk(), np.zeros((3, 3)), []),
                     InvalidArgumentError, "values must cover the full grid box"),
    "trace length": (lambda: GridFunction(_disk(), np.zeros(_disk().shape), np.zeros(3)),
                     InvalidArgumentError, "trace length must match the cloud"),
    "mollifier index": (lambda: mollify(_one(), 0),
                        InvalidArgumentError, "mollifier index must be a positive integer"),
    "fractional mollifier index": (lambda: mollify(_one(), 4.5),
                                   InvalidArgumentError, "mollifier index must be a positive integer"),
    "bool mollifier index": (lambda: mollify(_one(), True),
                             InvalidArgumentError, "mollifier index must be a positive integer"),
    "fractional chain index": (lambda: check_extended_sobolev(_one(), (4, 4.5)),
                               InvalidArgumentError, "mollifier index must be a positive integer"),
    "convolution empty axis": (lambda: fft_convolve(np.zeros(0), np.zeros(1)),
                               InvalidArgumentError, "convolution operands must be nonempty on every axis"),
    "convolution 1D by 2D": (lambda: fft_convolve(np.ones(3), np.ones((3, 3))), InvalidArgumentError,
                             "convolution operands need the same number of axes, at least one"),
    "convolution 2D by 1D": (lambda: fft_convolve(np.ones((3, 3)), np.ones(3)), InvalidArgumentError,
                             "convolution operands need the same number of axes, at least one"),
    "no steiner eps": (lambda: minkowski_steiner(_disk(), []),
                       InvalidArgumentError, "need at least one eps value"),
    "restriction spacing": (lambda: restrict_to_domain(_one(), _disk(1 / 32)),
                            InvalidArgumentError, "restriction requires matching spacings"),
    "zero spacing": (lambda: GridDomain(0.0, (0.0, 0.0), _EMPTY),
                     InvalidArgumentError, "spacing must be positive"),
    "negative spacing": (lambda: GridDomain(-0.1, (0.0, 0.0), _EMPTY),
                         InvalidArgumentError, "spacing must be positive"),
    "1D mask": (lambda: GridDomain(0.1, (0.0,), np.zeros(4, dtype=bool)),
                InvalidArgumentError, "only 2- and 3-dimensional grids are supported"),
    "4D mask": (lambda: GridDomain(0.1, (0.0,) * 4, np.zeros((3,) * 4, dtype=bool)),
                InvalidArgumentError, "only 2- and 3-dimensional grids are supported"),
    "origin length": (lambda: GridDomain(0.1, (0.0, 0.0, 0.0), _EMPTY),
                      InvalidArgumentError, "origin length must match grid dimension"),
    "box sides mismatched": (lambda: make_box((0.0, 0.0), (1.0, 1.0, 1.0), 0.1),
                             InvalidArgumentError, "corner and sides must both have 2 or 3 components"),
    "box side zero": (lambda: make_box((0.0, 0.0), (1.0, 0.0), 0.1),
                      InvalidArgumentError, "sides and spacing must be positive"),
    "interior reach past int32": (lambda: interior_region(make_box((0.0, 0.0), (500.0, 0.03), 0.01), 1e3),
                                  InvalidArgumentError,
                                  "a distance of 50005 cells overflows the int32 squared distances"),
    "annulus width": (lambda: make_annulus((0.0, 0.0), 1.0, 0.9, 0.2),
                      InvalidArgumentError, "spacing must resolve the annulus width"),
    "negative hm dimension": (lambda: estimate_hm_detail(extract_boundary(_disk()), -1.0, 0.5),
                              InvalidArgumentError, "dimension must be nonnegative"),
    "empty isoperimetric": (lambda: check_isoperimetric(GridDomain(0.1, (0.0, 0.0), _EMPTY)),
                            InvalidArgumentError, "isoperimetric check needs a nonempty domain"),
    "c1 word": (lambda: check_mazya_l2(_one(), "fast"),
                InvalidArgumentError, "c1 must be a positive number or 'auto'"),
    "brunn-minkowski spacings": (lambda: check_brunn_minkowski(_disk(), _disk(1 / 32)),
                                 InvalidArgumentError, "domains must share the grid spacing"),
    "proof eps below 16h": (lambda: proof_trace(_one(), 0.5),
                            InvalidArgumentError, "eps must be at least 16 grid spacings"),
    "search iters": (lambda: quotient_search(_one(), 0, 0.1),
                     InvalidArgumentError, "need iters >= 1 and step >= 0"),
    "search step": (lambda: quotient_search(_one(), 1, -0.1),
                    InvalidArgumentError, "need iters >= 1 and step >= 0"),
    "trace step order": (lambda: TraceReport([TraceStep(label, 1.0, 1.0, True)
                                              for label in reversed(TRACE_STEP_TOLERANCES)], {}),
                         InvalidArgumentError,
                         f"trace steps must be {tuple(TRACE_STEP_TOLERANCES)}, "
                         f"got {list(reversed(TRACE_STEP_TOLERANCES))}"),
}


@pytest.mark.parametrize("name", list(_REFUSALS))
def test_refusal(name):
    call, error, message = _REFUSALS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert info.type is error


@pytest.mark.parametrize("c1, message", [("bogus", "c1 must be a positive number or 'auto'"),
                                         (0.0, "c1 must be positive"), (-2.0, "c1 must be positive")])
def test_malformed_c1_refused_before_any_estimate(monkeypatch, c1, message):
    u = _one()

    def estimate(cloud):
        raise AssertionError("the boundary measure was estimated before c1 was checked")

    monkeypatch.setattr(inequalities, "_calibration", estimate)
    with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}$"):
        check_mazya_l2(u, c1)


def test_chain_index_refused_before_any_transform(monkeypatch):
    def transform(*args, **kwargs):
        raise AssertionError("a transform ran before the indices were checked")

    monkeypatch.setattr(np.fft, "rfftn", transform)
    with pytest.raises(InvalidArgumentError, match="^mollifier index must be a positive integer$"):
        check_extended_sobolev(_one(), (4, 8, 4.5))


def test_integral_chain_indices_are_accepted_as_ints():
    chain = check_extended_sobolev(_one(), (np.int64(4), 0)).metadata["mollified_chain"]
    assert type(chain[0]["k"]) is int and chain[0]["k"] == 4 and "lq" in chain[0]
    assert chain[1] == {"k": 0, "error": "mollifier index must be a positive integer"}
