"""Three-dimensional smoke coverage: every lane must work for n = 3."""

import math

import numpy as np
import pytest

from gmtlab.calculus import (
    constant_function,
    from_expression,
    grad_l1,
    lq_norm,
    total_variation,
)
from gmtlab.domains import extract_boundary, make_ball, make_box, volume
from gmtlab.errors import ResolutionError
from gmtlab.hausdorff import estimate_hm_detail
from gmtlab.inequalities import (
    check_bv_bound,
    check_isoperimetric,
    check_mazya,
    check_mazya_l2,
    proof_trace,
)


@pytest.fixture(scope="module")
def ball_48():
    return make_ball((0.0, 0.0, 0.0), 0.75, 1 / 48)


@pytest.fixture(scope="module")
def ball_cloud(ball_48):
    return extract_boundary(ball_48)


def test_ball_volume(ball_48):
    assert volume(ball_48) == pytest.approx(4 / 3 * math.pi * 0.75 ** 3, rel=5e-3)


def test_boundary_cloud_weights(ball_48, ball_cloud):
    # raw face weights measure the staircase area (above the smooth area)
    assert ball_cloud.total_weight > 4 * math.pi * 0.75 ** 2
    radii = np.linalg.norm(ball_cloud.points, axis=1)
    assert np.all(np.abs(radii - 0.75) <= ball_48.spacing * math.sqrt(3))


def test_surface_estimate_is_upper(ball_48, ball_cloud):
    est = estimate_hm_detail(ball_cloud, 2.0, 8 / 48)
    exact = 4 * math.pi * 0.75 ** 2
    # area covers at scale 8h overestimate flat patches; stay within 2x
    assert exact * 0.9 <= est.value <= 2 * exact


def test_box_gradient_oracle():
    dom = make_box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 1 / 24)
    u = from_expression(dom, "x + 2*y + 2*z")
    assert grad_l1(u) == pytest.approx(3.0, rel=0.03)
    assert lq_norm(constant_function(dom, 2.0), 3.0) == pytest.approx(2.0, rel=2e-2)


def test_cube_indicator_tv():
    dom = make_box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 1 / 32)
    u = constant_function(dom, 1.0)
    assert total_variation(u) == pytest.approx(6.0, rel=0.03)


def test_inequalities_hold(ball_48):
    assert check_isoperimetric(ball_48).holds
    u = from_expression(ball_48, "x*x + y*y + z*z")
    assert check_mazya(u, "optimal").holds
    assert check_mazya(u, "paper_factor").holds
    assert check_mazya_l2(u, "auto").holds
    assert check_bv_bound(u).holds


def test_proof_trace_runs(ball_48):
    u = constant_function(ball_48, 1.0)
    tr = proof_trace(u, eps=0.35)
    assert tr.all_hold


def test_proof_trace_refuses_shells_the_stencil_cannot_resolve(ball_48):
    # delta = 0.15 clears six spacings, but shells of delta/4 = 1.8 h carry a
    # 3D stencil bias of about 0.11 h / s = 6 %, above main5's 5 % tolerance
    u = from_expression(ball_48, "max(0, 1 - r*r)", lipschitz=2.0)
    with pytest.raises(ResolutionError, match="delta/4 is 1.8 grid spacings"):
        proof_trace(u, eps=0.5)
