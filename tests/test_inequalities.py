"""Inequality reports, the proof trace, and the quotient search."""

import math
import tracemalloc

import numpy as np
import pytest

from gmtlab.calculus import (
    GridFunction,
    abs_value,
    constant_function,
    from_expression,
    indicator_function,
    mollify,
    pointwise_min,
    restrict_to_domain,
    shell_gradient_discrete,
    shell_mass,
    truncate,
)
from gmtlab.domains import BoundaryCloud, extract_boundary, make_ball, make_box, GridDomain
from gmtlab.errors import (
    DegenerateStartError,
    InvalidArgumentError,
    NoModulusError,
    NumericalError,
)
from gmtlab.hausdorff import build_partition
from gmtlab.inequalities import (
    _SHELL_BIAS,
    Report,
    TraceStep,
    _minkowski_sum,
    check_brunn_minkowski,
    check_bv_bound,
    check_extended_sobolev,
    check_isoperimetric,
    check_mazya,
    check_mazya_l2,
    check_perimeter_iso,
    check_sobolev,
    iso_constant,
    paper_boundary_factor,
    proof_trace,
    quotient_search,
)


class TestConstants:
    def test_iso_constant_gamma_oracle(self):
        # oracle: Gamma(n/2+1)^(1/n) / (n sqrt(pi)) evaluated independently
        for n in (1, 2, 3, 4):
            oracle = math.gamma(n / 2 + 1) ** (1 / n) / (n * math.sqrt(math.pi))
            assert iso_constant(n) == pytest.approx(oracle, rel=1e-12)

    def test_reference_values(self):
        assert iso_constant(2) == pytest.approx(1 / (2 * math.sqrt(math.pi)), rel=1e-12)
        assert iso_constant(2) == pytest.approx(0.2820948, abs=1e-7)
        assert iso_constant(3) == pytest.approx(0.2067834, abs=1e-7)
        assert iso_constant(1) == pytest.approx(0.5, rel=1e-12)

    def test_boundary_factor(self):
        assert paper_boundary_factor(2) == pytest.approx(2 * math.pi, rel=1e-12)
        assert paper_boundary_factor(3) == pytest.approx(16.0, rel=1e-12)

    def test_boundary_factor_dimension_guard(self):
        with pytest.raises(InvalidArgumentError):
            paper_boundary_factor(1)

    def test_disagreeing_closed_forms_raise_typed_error(self, monkeypatch):
        import gmtlab.inequalities as ineq

        monkeypatch.setattr(ineq, "unit_ball_volume", lambda n: 2.0 * math.pi)
        with pytest.raises(NumericalError):
            iso_constant(2)

    def test_iso_constant_dimension_guard(self):
        with pytest.raises(InvalidArgumentError):
            iso_constant(0)


class TestReport:
    def test_holds_and_ratio(self):
        rep = Report("isoperimetric", 1.0, 2.0, "optimal", 0.28, 0.02)
        assert rep.holds and rep.ratio == 0.5

    def test_tolerance_window(self):
        rep = Report("isoperimetric", 1.019, 1.0, "optimal", 0.28, 0.02)
        assert rep.holds
        rep2 = Report("isoperimetric", 1.021, 1.0, "optimal", 0.28, 0.02)
        assert not rep2.holds

    def test_zero_sides(self):
        rep = Report("sobolev", 0.0, 0.0, "optimal", 0.28, 0.02)
        assert rep.holds and rep.ratio == 0.0

    @pytest.mark.parametrize("flipped", [False, True])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("side", ["lhs", "rhs"])
    def test_non_finite_side_refused(self, side, bad, flipped):
        # inf <= inf held, and nan gave a verdict either way
        sides = {"lhs": 1.0, "rhs": 1.0, side: bad}
        with pytest.raises(NumericalError, match=f"^mazya: the {side} is {bad!r}, not a finite number$"):
            Report("mazya", sides["lhs"], sides["rhs"], "optimal", 0.28, 0.02, flipped=flipped)


class TestIsoperimetric:
    def test_disk_near_equality(self, disk_512):
        rep = check_isoperimetric(disk_512)
        assert rep.holds
        assert 0.97 <= rep.ratio <= 1.01

    def test_square_ratio(self, square_512):
        # exact sides: lhs = 1, rhs = c(2) * 4 = 1.1284 up to the 3 percent
        # window of the boundary estimate
        rep = check_isoperimetric(square_512)
        assert rep.holds
        assert rep.ratio == pytest.approx(1 / (iso_constant(2) * 4.0), rel=0.035)

    def test_single_cell_holds(self):
        h = 0.01
        mask = np.pad(np.ones((1, 1), dtype=bool), 1)
        dom = GridDomain(h, np.zeros(2), mask)
        rep = check_isoperimetric(dom)
        assert rep.holds
        # a single cell is a square: both sides evaluated in closed form
        assert rep.lhs == pytest.approx(h)
        assert rep.rhs == pytest.approx(iso_constant(2) * 4 * h)

    def test_metadata_records_scale(self, disk_128):
        rep = check_isoperimetric(disk_128)
        assert rep.metadata["delta_auto"] == pytest.approx(8 / 128)
        assert rep.metadata["h"] == pytest.approx(1 / 128)


class TestSobolev:
    def test_zero_function(self, square_128):
        cloud = extract_boundary(square_128)
        u = GridFunction(square_128, np.zeros(square_128.shape), np.zeros(len(cloud)))
        rep = check_sobolev(u)
        assert rep.holds and rep.lhs == 0.0

    def test_radial_tent_oracle(self):
        # closed polar integrals: lhs = sqrt(pi/6), gradient mass = pi
        dom = make_box((-1.2, -1.2), (2.4, 2.4), 1 / 256)
        u = from_expression(dom, "max(0, 1 - r)")
        rep = check_sobolev(u)
        assert rep.holds
        assert rep.lhs == pytest.approx(math.sqrt(math.pi / 6), rel=0.01)
        assert rep.rhs == pytest.approx(iso_constant(2) * math.pi, rel=0.02)
        assert rep.ratio < 1

    def test_mollified_indicator_sharpness(self):
        # the smoothed ball indicator approaches the equality case from below
        disk = make_ball((0.0, 0.0), 1.0, 1 / 256)
        ratios = []
        for k in (4, 8, 16):
            rep = check_sobolev(mollify(indicator_function(disk), k))
            assert rep.holds
            ratios.append(rep.ratio)
        assert ratios == sorted(ratios)
        assert 0.9 <= ratios[-1] <= 1.0 + rep.tol

    def test_nonvanishing_outer_layer_rejected(self, square_128):
        # a set reaching the outer layer is refused by its domain, and values
        # there never reach check_sobolev: the function drops them
        touching = square_128.mask.copy()
        touching[0, :] = True
        with pytest.raises(InvalidArgumentError):
            GridDomain(square_128.spacing, square_128.origin, touching)
        trace = np.zeros(len(extract_boundary(square_128)))
        bad = GridFunction(square_128, np.ones(square_128.shape), trace)
        good = GridFunction(square_128, np.where(square_128.mask, 1.0, 0.0), trace)
        assert np.array_equal(bad.values, good.values)
        assert check_sobolev(bad).lhs == check_sobolev(good).lhs

    @pytest.mark.parametrize("dim", [2, 3])
    def test_each_outer_face_is_checked(self, dim):
        # one nonzero value on a single outer face, away from every other face
        dom = make_box((0.0,) * dim, (1.0,) * dim, 1 / 8)
        for axis in range(dim):
            for end in (0, -1):
                index = [2] * dim
                index[axis] = end
                vals = np.zeros(dom.shape)
                vals[tuple(index)] = -0.5
                u = GridFunction(dom, vals, np.zeros(len(extract_boundary(dom))))
                assert not u.values.any()
                rep = check_sobolev(u)
                assert rep.holds and rep.lhs == 0.0
                mask = dom.mask.copy()
                mask[tuple(index)] = True
                with pytest.raises(InvalidArgumentError):
                    GridDomain(dom.spacing, dom.origin, mask)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_outer_grid_layer_is_zero(self, dim):
        # check_sobolev's zero extension rests on this: a grid function is zero
        # off its domain's mask, and every mask keeps a false margin
        dom = make_ball((0.0,) * dim, 1.0, 1 / 16)
        box = make_box((-1.5,) * dim, (3.0,) * dim, 1 / 16)
        u = from_expression(dom, "1 + x*x")
        part = build_partition(extract_boundary(dom), dim - 1, 0.25)
        results = [
            u,
            constant_function(dom, 2.0),
            restrict_to_domain(from_expression(box, "1 + x"), dom),
            mollify(u, 4),
            truncate(u, part, eps=0.2, s=0.05),
            pointwise_min(u, constant_function(dom, 1.5)),
            abs_value(from_expression(dom, "x - 0.5")),
            GridFunction(dom, np.ones(dom.shape), np.ones(len(extract_boundary(dom)))),  # nonzero on the whole box
        ]
        for f in results:
            assert f.trace.shape == (len(f.cloud),)
            for axis in range(dim):
                for end in (0, -1):
                    assert not np.take(f.values, end, axis=axis).any()


class TestMazya:
    def test_disk_indicator_optimal_equality_probe(self, disk_512):
        u = indicator_function(disk_512)
        rep = check_mazya(disk_512, u, "optimal")
        assert rep.holds
        assert 0.95 <= rep.ratio <= 1.02

    def test_disk_indicator_paper_factor(self, disk_512):
        u = indicator_function(disk_512)
        opt = check_mazya(disk_512, u, "optimal")
        pap = check_mazya(disk_512, u, "paper_factor")
        assert pap.holds
        # boundary term scaled by 2 pi relative to the optimal mode
        assert pap.ratio == pytest.approx(opt.ratio / (2 * math.pi), rel=1e-9)

    def test_paraboloid_oracle(self, disk_512):
        # closed polar integrals: lhs = sqrt(pi/3), grad mass = 4 pi / 3,
        # boundary mass = 2 pi
        u = from_expression(disk_512, "x*x + y*y")
        rep = check_mazya(disk_512, u, "paper_factor")
        assert rep.holds
        assert rep.lhs == pytest.approx(math.sqrt(math.pi / 3), rel=0.01)
        expected_rhs = iso_constant(2) * (4 * math.pi / 3 + 2 * math.pi * 2 * math.pi)
        assert rep.rhs == pytest.approx(expected_rhs, rel=0.03)

    def test_paper_rhs_dominates_optimal_rhs(self, disk_128, square_128):
        for dom in (disk_128, square_128):
            for expr in ("1", "x", "x*x + y*y"):
                u = from_expression(dom, expr)
                opt = check_mazya(dom, u, "optimal")
                pap = check_mazya(dom, u, "paper_factor")
                assert pap.rhs >= opt.rhs

    def test_unknown_mode_rejected(self, disk_128):
        with pytest.raises(InvalidArgumentError):
            check_mazya(disk_128, indicator_function(disk_128), "sharp")

    def test_scale_invariance_of_verdict(self, disk_128):
        u = from_expression(disk_128, "1 + x*y")
        lam = 3.7
        scaled = GridFunction(u.domain, lam * u.values, lam * u.trace)
        r1 = check_mazya(disk_128, u, "paper_factor")
        r2 = check_mazya(disk_128, scaled, "paper_factor")
        assert r2.ratio == pytest.approx(r1.ratio, rel=1e-9)
        assert r1.holds == r2.holds

    def test_translation_invariance(self):
        h = 1 / 128
        a = make_ball((0.0, 0.0), 1.0, h)
        b = a.translated((5 * h, -3 * h))
        ua = from_expression(a, "1 + x - x")  # constant built through the parser
        ub = GridFunction(b, ua.values, ua.trace)
        ra = check_mazya(a, ua, "paper_factor")
        rb = check_mazya(b, ub, "paper_factor")
        assert rb.lhs == pytest.approx(ra.lhs, rel=1e-12)
        assert rb.rhs == pytest.approx(ra.rhs, rel=1e-12)


class TestMazyaL2:
    def test_zero_function(self, square_128):
        cloud = extract_boundary(square_128)
        u = GridFunction(square_128, np.zeros(square_128.shape), np.zeros(len(cloud)))
        rep = check_mazya_l2(square_128, u, 1.0)
        assert rep.holds and rep.lhs == 0.0

    def test_unit_square_constant_oracle(self, square_128):
        # lhs = 1, rhs = 2 (0 + perimeter 4) = 8 with c1 = 1; the boundary
        # measure carries the covering estimator's window (scale-8h corner
        # savings push it a few percent under the true perimeter)
        u = constant_function(square_128, 1.0)
        rep = check_mazya_l2(square_128, u, 1.0)
        assert rep.holds
        assert rep.lhs == pytest.approx(1.0, rel=0.02)
        assert rep.rhs == pytest.approx(8.0, rel=0.08)

    def test_linear_profile_oracle(self, square_128):
        # lhs = 1/3; edge integrals of x^2: 1/3 + 1/3 + 0 + 1 = 5/3;
        # rhs = 2 (2 * 1 + 5/3) = 22/3
        u = from_expression(square_128, "x")
        rep = check_mazya_l2(square_128, u, 1.0)
        assert rep.holds
        assert rep.lhs == pytest.approx(1 / 3, rel=0.02)
        assert rep.rhs == pytest.approx(22 / 3, rel=0.02)
        assert rep.metadata["cauchy_lhs"] <= rep.metadata["cauchy_rhs"] * (1 + 1e-9)

    def test_auto_c1_flagged(self, disk_128):
        u = from_expression(disk_128, "x*x + y*y")
        rep = check_mazya_l2(disk_128, u, "auto")
        assert rep.holds
        assert rep.metadata["c1_auto"] is True
        assert rep.constant_value > 0

    def test_auto_c1_family_built_once_per_cloud(self, monkeypatch):
        import gmtlab.calculus as calc

        dom = make_ball((0.0, 0.0), 1.0, 1 / 64)
        u = from_expression(dom, "x*x + y*y")
        built = []
        real = calc.from_expression
        monkeypatch.setattr(calc, "from_expression",
                            lambda *args, **kwargs: built.append(args[1]) or real(*args, **kwargs))
        first = check_mazya_l2(dom, u, "auto")
        assert built == ["1", "x", "y", "x*y", "x*x+y*y"]
        second = check_mazya_l2(dom, from_expression(dom, "x", u.cloud), "auto")
        assert len(built) == 5
        assert second.constant_value == first.constant_value

    def test_nonpositive_c1_rejected(self, square_128):
        with pytest.raises(InvalidArgumentError):
            check_mazya_l2(square_128, constant_function(square_128, 1.0), 0.0)

    def test_two_homogeneous_verdict(self, square_128):
        u = from_expression(square_128, "x + 1")
        lam = 2.5
        scaled = GridFunction(u.domain, lam * u.values, lam * u.trace)
        r1 = check_mazya_l2(square_128, u, 1.0)
        r2 = check_mazya_l2(square_128, scaled, 1.0)
        assert r2.lhs == pytest.approx(lam ** 2 * r1.lhs, rel=1e-9)
        assert r2.ratio == pytest.approx(r1.ratio, rel=1e-9)


class TestBvBound:
    def test_square_indicator(self, square_128):
        u = indicator_function(square_128)
        rep = check_bv_bound(square_128, u)
        assert rep.holds
        assert rep.lhs == pytest.approx(4.0, rel=0.02)
        assert rep.rhs == pytest.approx(2 * math.pi * 4.0, rel=0.08)

    def test_zero(self, square_128):
        cloud = extract_boundary(square_128)
        u = GridFunction(square_128, np.zeros(square_128.shape), np.zeros(len(cloud)))
        rep = check_bv_bound(square_128, u)
        assert rep.holds and rep.lhs == 0.0

    def test_linear_profile_jump_oracle(self, square_128):
        # extension jumps carry the trace of x: 1/2 + 1/2 + 1 + 0 = 2
        u = from_expression(square_128, "x")
        rep = check_bv_bound(square_128, u)
        assert rep.holds
        assert rep.lhs == pytest.approx(3.0, rel=0.02)
        assert rep.rhs == pytest.approx(1.0 + 2 * math.pi * 2.0, rel=0.08)


class TestBrunnMinkowski:
    def test_square_with_itself_equality(self):
        a = make_box((0.0, 0.0), (1.0, 1.0), 1 / 128)
        rep = check_brunn_minkowski(a, a)
        assert rep.holds
        assert rep.rhs == pytest.approx(rep.lhs, rel=0.01)
        assert rep.lhs == pytest.approx(2.0, rel=0.01)

    def test_homothetic_disks_equality(self):
        h = 1 / 128
        a = make_ball((0.0, 0.0), 1.0, h)
        b = make_ball((0.0, 0.0), 0.5, h)
        rep = check_brunn_minkowski(a, b)
        assert rep.holds
        assert rep.rhs == pytest.approx(math.sqrt(math.pi) * 1.5, rel=0.01)
        assert rep.rhs == pytest.approx(rep.lhs, rel=0.01)

    def test_cross_boxes_strict_inequality(self):
        h = 1 / 128
        a = make_box((0.0, 0.0), (1.0, 2.0), h)
        b = make_box((0.0, 0.0), (2.0, 1.0), h)
        rep = check_brunn_minkowski(a, b)
        assert rep.holds
        # exact box arithmetic: (sqrt(2) + sqrt(2)) vs sqrt(9)
        assert rep.lhs == pytest.approx(2 * math.sqrt(2), rel=0.01)
        assert rep.rhs == pytest.approx(3.0, rel=0.01)
        assert rep.rhs / rep.lhs >= 1.05

    @pytest.mark.parametrize("corner_b,sides_b", [
        ((0.25, -0.5), (0.75, 0.25)), ((0.0, 0.0, 0.0), (0.25, 0.5, 0.375))])
    def test_box_sum_is_the_exact_box(self, corner_b, sides_b):
        # the cell centres of A + B are all sums of a centre of A and one of
        # B: for boxes, the full box between the sums of the extreme centres
        h = 1 / 32
        dim = len(sides_b)
        a = make_box((0.0,) * dim, (0.5, 0.75, 0.25)[:dim], h)
        b = make_box(corner_b, sides_b, h)

        def centres(d):
            return d.origin + (np.argwhere(d.mask) + 0.5) * d.spacing

        ca, cb, cs = centres(a), centres(b), centres(_minkowski_sum(a, b))
        lo, hi = ca.min(0) + cb.min(0), ca.max(0) + cb.max(0)
        counts = np.rint((hi - lo) / h).astype(int) + 1
        assert len(cs) == np.prod(counts)
        np.testing.assert_allclose(cs.min(0), lo, atol=1e-12)
        np.testing.assert_allclose(cs.max(0), hi, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        a = make_ball((0.0, 0.0), 1.0, 1 / 32)
        b = make_ball((0.0, 0.0, 0.0), 1.0, 1 / 16)
        with pytest.raises(InvalidArgumentError):
            check_brunn_minkowski(a, b)


class TestExtendedSobolev:
    def test_disk_indicator(self, disk_512):
        u = indicator_function(disk_512)
        rep = check_extended_sobolev(u, k_list=(4, 8))
        assert rep.holds
        assert rep.lhs == pytest.approx(math.sqrt(math.pi), rel=0.01)
        # raw-scheme TV sits in the anisotropy window, so the ratio does too
        assert 2 * math.pi * 0.95 <= rep.metadata["tv"] <= 8.0
        for link in rep.metadata["mollified_chain"]:
            assert link["holds"]

    def test_square_indicator_oracle(self, square_128):
        u = indicator_function(square_128)
        rep = check_extended_sobolev(u, k_list=(8,))
        assert rep.holds
        assert rep.lhs == pytest.approx(1.0, rel=0.02)
        assert rep.rhs == pytest.approx(iso_constant(2) * 4.0, rel=0.03)

    def test_zero(self, square_128):
        cloud = extract_boundary(square_128)
        u = GridFunction(square_128, np.zeros(square_128.shape), np.zeros(len(cloud)))
        rep = check_extended_sobolev(u, k_list=(4,))
        assert rep.holds and rep.lhs == 0.0


    def test_unresolved_kernel_recorded_other_errors_raise(self):
        u = indicator_function(make_box((0.0, 0.0), (1.0, 1.0), 1 / 16))
        chain = check_extended_sobolev(u, k_list=(4, 16)).metadata["mollified_chain"]
        assert chain[0]["k"] == 4 and "lq" in chain[0]
        assert chain[1] == {"k": 16, "error": "kernel support 1/k must be at least two cells wide"}
        with pytest.raises(TypeError):
            check_extended_sobolev(u, k_list=("4",))

    def test_oversized_kernel_recorded_as_chain_error(self):
        # a 404^2 grid whose k=1 kernel would have 199,999^2 cells
        u = indicator_function(make_ball((0.0, 0.0), 0.002, 1e-5))
        (link,) = check_extended_sobolev(u, k_list=(1,)).metadata["mollified_chain"]
        assert link["k"] == 1 and "exceeds the limit" in link["error"]


class TestPerimeterIso:
    def test_disk_ratio_near_one(self):
        h = 1 / 256
        dom = make_ball((0.0, 0.0), 1.0, h)
        rep = check_perimeter_iso(dom, eps_list=[52 * h, 26 * h, 13 * h])
        assert rep.holds
        assert rep.ratio == pytest.approx(1.0, abs=0.03)

    def test_square(self):
        h = 1 / 256
        dom = make_box((0.0, 0.0), (1.0, 1.0), h)
        rep = check_perimeter_iso(dom, eps_list=[52 * h, 26 * h, 13 * h])
        assert rep.holds
        assert rep.ratio == pytest.approx(1 / (iso_constant(2) * 4.0), rel=0.03)


class TestProofTrace:
    def test_disk_constant(self, disk_512):
        u = constant_function(disk_512, 1.0)
        tr = proof_trace(disk_512, u, eps=0.1)
        assert tr.all_hold
        labels = [s.label for s in tr.steps]
        assert labels == ["main4", "main5", "main6", "prelim_est", "hm_sum_estimate", "main3"]
        m5 = tr.step("main5")
        assert m5.lhs == pytest.approx(m5.rhs, rel=0.05)

    def test_disk_paraboloid_vanishing_trace(self, disk_512):
        u = from_expression(disk_512, "max(0, 1 - r*r)", lipschitz=2.0)
        tr = proof_trace(disk_512, u, eps=0.05)
        assert tr.all_hold

    def test_main3_matches_check_mazya(self, disk_512):
        u = from_expression(disk_512, "max(0, 1 - r*r)", lipschitz=2.0)
        tr = proof_trace(disk_512, u, eps=0.05)
        rep = check_mazya(disk_512, u, "paper_factor")
        m3 = tr.step("main3")
        assert m3.rhs == pytest.approx(rep.rhs, rel=1e-9)
        assert m3.lhs == pytest.approx(rep.lhs, rel=1e-9)

    def test_zero_function(self, disk_128):
        u = constant_function(disk_128, 0.0)
        tr = proof_trace(disk_128, u, eps=0.2)
        assert tr.all_hold
        assert tr.step("main6").lhs == 0.0
        assert tr.step("main3").lhs == 0.0

    def test_modulus_required(self, disk_128):
        cloud = extract_boundary(disk_128)
        u = GridFunction(disk_128, np.where(disk_128.mask, 1.0, 0.0), np.ones(len(cloud)))
        with pytest.raises(NoModulusError):
            proof_trace(disk_128, u, eps=0.2)

    def test_negative_function_rejected(self, disk_128):
        u = from_expression(disk_128, "x", lipschitz=1.0)
        with pytest.raises(InvalidArgumentError):
            proof_trace(disk_128, u, eps=0.2)

    def test_nan_trace_rejected(self):
        # sqrt(1 - r*r) is nan on the faces outside the unit circle; the nan
        # barrier heights made truncate warn and then refuse its own result
        dom = make_ball((0.0, 0.0), 1.0, 1 / 32)
        u = from_expression(dom, "sqrt(1 - r*r)", lipschitz=2.0)
        assert np.isnan(u.trace).any() and np.isfinite(u.values).all()
        with pytest.raises(InvalidArgumentError, match="^proof trace expects a nonnegative function$"):
            proof_trace(dom, u, eps=1.0)

    def test_overflowing_mazya_side_refused(self):
        # the sums overflowed to inf and the replay reported FAIL on inf sides
        dom = make_ball((0.0, 0.0), 1.0, 1 / 32)
        u = from_expression(dom, "1e300*max(0, 1 - r*r)", lipschitz=3e300)
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="^mazya: the lhs is inf, "):
            proof_trace(dom, u, eps=1.5e300)

    @pytest.mark.parametrize("lhs, rhs", [(math.inf, 1.0), (1.0, math.nan), (-math.inf, 0.0)])
    def test_step_refuses_non_finite_side(self, lhs, rhs):
        side, value = ("lhs", lhs) if not math.isfinite(lhs) else ("rhs", rhs)
        with pytest.raises(NumericalError, match=f"^main4: the {side} is {value!r}, not a finite number$"):
            TraceStep("main4", lhs, rhs, True)

    @pytest.mark.parametrize("dim, h, eps, grids", [(2, 1 / 512, 0.05, 4), (3, 1 / 48, 1.0, 5)],
                             ids=["disk", "ball3d"])
    def test_peak_memory_stays_under_four_grids(self, dim, h, eps, grids):
        # the bench proof input; the replay once held the truncation, its
        # stencil, u's stencil and interior_region's float difference array
        # and cumsum at once: 6.89 float grids above its start, now about 3.2.
        # The unit ball at h=1/48 (a million cells) reads about 4.5 grids
        dom = make_ball((0.0,) * dim, 1.0, h)  # fresh: nothing cached on it yet
        u = from_expression(dom, "max(0, 1 - r*r)", lipschitz=2.0)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            assert proof_trace(dom, u, eps=eps).all_hold
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= grids * dom.mask.size * 8

    def test_shell_width_is_not_an_argument(self, disk_128):
        # the shells are always delta/4 wide; no caller picks their width
        u = constant_function(disk_128, 1.0)
        with pytest.raises(TypeError):
            proof_trace(disk_128, u, eps=0.2, s=0.01)

    @pytest.mark.parametrize("n", [2, 3])
    def test_shell_bias_table_bounds_the_stencil(self, n):
        # the summed discrete shell masses exceed shell_mass by kappa_n h / s,
        # with kappa_n at every width just under the table proof_trace refuses by
        h = 1 / 48
        dom = make_ball((0.0,) * n, 0.5, h)
        centers = np.random.default_rng(0).uniform(-0.3, 0.3, size=(10, n))
        diams, heights = np.full(10, 8 * h), np.ones(10)
        for ratio in (1.0, 2.0, 4.0):
            discrete = shell_gradient_discrete(centers, diams, ratio * h, heights, dom).sum()
            exact = shell_mass(diams, ratio * h, heights, n).sum()
            kappa = (discrete / exact - 1.0) * ratio
            assert 0.9 * _SHELL_BIAS[n] <= kappa <= _SHELL_BIAS[n]

    def test_unresolvable_continuity_scale_rejected(self, disk_128):
        from gmtlab.errors import ResolutionError

        # steep modulus drives the derived scale below six spacings
        u = from_expression(disk_128, "max(0, 1 - r*r)", lipschitz=8.0)
        with pytest.raises(ResolutionError):
            proof_trace(disk_128, u, eps=0.2)


class TestQuotientSearch:
    def test_monotone_and_bounded(self):
        h = 2.2 / 64
        disk = make_ball((0.0, 0.0), 1.0, h)
        u0 = indicator_function(disk)
        best, q = quotient_search(disk, u0, iters=40, step=0.1)
        hist = best.metadata["sweep_history"]
        assert all(b >= a - 1e-12 for a, b in zip(hist, hist[1:]))
        assert max(hist) <= iso_constant(2) * 1.05
        assert q >= hist[0]

    def test_zero_step_is_noop(self, disk_128):
        u0 = indicator_function(disk_128)
        best, q = quotient_search(disk_128, u0, iters=1, step=0.0)
        ref, q0 = quotient_search(disk_128, u0, iters=1, step=0.0, seed=1)
        assert q == pytest.approx(q0, rel=1e-12)
        assert np.allclose(best.values * q, ref.values * q, rtol=1e-9)

    def test_reported_q_matches_recomputation(self, disk_128):
        from gmtlab import boundary_integral, grad_l1, lq_norm
        from gmtlab.inequalities import _calibration

        u0 = indicator_function(disk_128)
        best, q = quotient_search(disk_128, u0, iters=5, step=0.1)
        cal, _ = _calibration(disk_128)
        den = grad_l1(best) + paper_boundary_factor(2) * boundary_integral(best, calibration=cal)
        assert q == pytest.approx(lq_norm(best, 2.0) / den, rel=1e-9)

    def test_faceless_cloud_rejected(self):
        # a synthetic copy of a face cloud has no face table to put the trace
        # in the gradient, so no start function can carry it into the search
        disk = make_ball((0.0, 0.0), 1.0, 1 / 16)
        faces = extract_boundary(disk)
        cloud = BoundaryCloud(faces.dim, faces.resolution, faces.points, faces.weights)
        with pytest.raises(InvalidArgumentError, match="not the boundary face cloud of this domain"):
            constant_function(disk, 1.0, cloud)

    def test_start_on_another_domain_rejected(self):
        # the start's faces would index cells that the searched half disk lacks
        disk = make_ball((0.0, 0.0), 1.0, 1 / 16)
        half = GridDomain(disk.spacing, disk.origin, disk.mask & (np.indices(disk.shape)[0] > 20))
        with pytest.raises(InvalidArgumentError, match="searched domain"):
            quotient_search(half, indicator_function(disk), iters=1, step=0.1)

    def test_nan_trace_start_rejected(self):
        # the search ran on a nan trace and reported the quotient nan
        dom = make_ball((0.0, 0.0), 1.0, 1 / 32)
        u0 = from_expression(dom, "sqrt(1 - r*r)")
        with pytest.raises(InvalidArgumentError, match="^quotient search expects a nonnegative start$"):
            quotient_search(dom, u0, iters=1, step=0.1)

    def test_overflowing_start_gradient_rejected(self):
        # the values pass the cap on their q-th powers, but the stencil's
        # squared differences overflow: the inf gradient mass gave quotient 0.0
        dom = make_ball((0.0, 0.0), 1.0, 1 / 32)
        u0 = from_expression(dom, "5e153*min(1, max(0, 1e6*x))", lipschitz=0.0)
        with pytest.raises(InvalidArgumentError, match="^the start's gradient mass is inf, "):
            quotient_search(dom, u0, iters=1, step=0.1)

    def test_degenerate_start_rejected(self, disk_128):
        cloud = extract_boundary(disk_128)
        u0 = GridFunction(disk_128, np.zeros(disk_128.shape), np.zeros(len(cloud)))
        with pytest.raises(DegenerateStartError):
            quotient_search(disk_128, u0, iters=1, step=0.1)

    def test_deterministic_under_seed(self, disk_128):
        u0 = indicator_function(disk_128)
        _, q1 = quotient_search(disk_128, u0, iters=3, step=0.1, seed=42)
        _, q2 = quotient_search(disk_128, u0, iters=3, step=0.1, seed=42)
        assert q1 == q2

    SEED_0_HISTORY = [0.04496061775946892, 0.048326716529142305, 0.053103480056366406, 0.05875106891395357]

    @pytest.mark.parametrize("seed, history", [
        (0, SEED_0_HISTORY),
        (42, [0.04496061775946892, 0.048315948307925176, 0.05308809928416411, 0.05872647181673761]),
    ])
    def test_history_pinned(self, disk_128, seed, history):
        # the exact history of the reference implementation: the RNG stream, the
        # accept/reject order and the renormalisation must not change
        best, q = quotient_search(disk_128, indicator_function(disk_128), iters=3, step=0.1, seed=seed)
        assert best.metadata["sweep_history"] == history
        assert q == history[-1]

    def test_environment_seed_not_read(self, disk_128, monkeypatch):
        # GMT_SEED is the search command's; a library call's seed defaults to 0
        monkeypatch.setenv("GMT_SEED", "42")
        best, _ = quotient_search(disk_128, indicator_function(disk_128), iters=1, step=0.1)
        assert best.metadata["sweep_history"] == self.SEED_0_HISTORY[:2]

    def test_mollified_start_improves_monotonically(self, disk_128):
        cloud = extract_boundary(disk_128)
        u0 = restrict_to_domain(mollify(indicator_function(disk_128, cloud), 8),
                                disk_128, cloud)
        best, q = quotient_search(disk_128, u0, iters=10, step=0.1)
        hist = best.metadata["sweep_history"]
        assert all(b >= a - 1e-12 for a, b in zip(hist, hist[1:]))
        assert q >= hist[0]


# each call gets (domain, function on an equal but distinct domain object)
_FOREIGN_FUNCTION_CALLS = {
    "mazya": lambda d, u: check_mazya(d, u),
    "mazya_l2": lambda d, u: check_mazya_l2(d, u, "auto"),
    "bv_bound": lambda d, u: check_bv_bound(d, u),
    "proof_trace": lambda d, u: proof_trace(d, u, eps=0.3),
    "pointwise_min": lambda d, u: pointwise_min(constant_function(d, 1.0), u),
    "quotient_search": lambda d, u: quotient_search(d, u, iters=1, step=0.1),
}


@pytest.mark.parametrize("name", sorted(_FOREIGN_FUNCTION_CALLS))
def test_function_on_an_equal_domain_refused(name):
    # a function ties to its domain by identity: the same mask on another
    # domain object is another domain, with its own cloud and calibration
    disk = make_ball((0.0, 0.0), 1.0, 1 / 64)
    twin = GridDomain(disk.spacing, disk.origin, disk.mask)
    u = from_expression(twin, "max(0, 1 - r)", lipschitz=1.0)
    with pytest.raises(InvalidArgumentError):
        _FOREIGN_FUNCTION_CALLS[name](disk, u)


class TestVerdictHomogeneity:
    def test_one_homogeneous_checks(self, square_128):
        u = from_expression(square_128, "1 + x*y")
        lam = 2.3
        scaled = GridFunction(u.domain, lam * u.values, lam * u.trace)
        for check in (check_sobolev, check_extended_sobolev):
            r1, r2 = check(u), check(scaled)
            assert r2.ratio == pytest.approx(r1.ratio, rel=1e-9)
            assert r1.holds == r2.holds
        r1 = check_bv_bound(square_128, u)
        r2 = check_bv_bound(square_128, scaled)
        assert r2.ratio == pytest.approx(r1.ratio, rel=1e-9)


class TestComputedOnce:
    """Functions are immutable: their gradient is computed once and cached on
    them read-only.  Distance masks never run a full-grid EDT."""

    @staticmethod
    def _count(monkeypatch):
        import gmtlab.calculus as calc
        from scipy import ndimage

        edt_calls, stencil_runs = [], []
        edt, stencil = ndimage.distance_transform_edt, calc._grad_stencil

        def counting_edt(*args, **kwargs):
            edt_calls.append(1)
            return edt(*args, **kwargs)

        def counting_stencil(mask, h, values, trace, faces):
            stencil_runs.append(values)  # a function's read-only values: one array per function
            return stencil(mask, h, values, trace, faces)

        monkeypatch.setattr(ndimage, "distance_transform_edt", counting_edt)
        monkeypatch.setattr(calc, "_grad_stencil", counting_stencil)
        return edt_calls, stencil_runs

    def test_proof_trace_runs_each_stencil_once_without_edt(self, monkeypatch):
        from gmtlab.calculus import minkowski_steiner

        dom = make_ball((0.0, 0.0), 1.0, 1 / 256)  # fresh: nothing cached yet
        u = from_expression(dom, "max(0, 1 - r*r)", lipschitz=2.0)
        edt_calls, stencil_runs = self._count(monkeypatch)
        assert proof_trace(dom, u, eps=0.1).all_hold
        minkowski_steiner(dom, [0.1, 0.05, 0.025])
        assert edt_calls == []  # the collar, interior_region and dilate threshold capped distances
        assert len(stencil_runs) == 2  # u (also for main3's check_mazya) and u_t
        assert stencil_runs[0] is not stencil_runs[1] and any(v is u.values for v in stencil_runs)

    def test_standard_suite_differentiates_each_function_once(self, monkeypatch):
        import os

        from gmtlab.suite import parse_suite, run_suite

        spec = parse_suite(os.path.join(os.path.dirname(os.path.dirname(__file__)),
                                        "suites", "standard.json"))
        run_suite(spec)  # warm
        _, stencil_runs = self._count(monkeypatch)
        assert run_suite(spec).passed
        # 23 stencil runs before the cache and 16 before abs_value kept a
        # nonnegative function as it is; every grid function now takes one
        assert len({id(v) for v in stencil_runs}) == len(stencil_runs) == 14

    def test_cached_arrays_are_read_only(self):
        import gmtlab.calculus as calc

        dom = make_ball((0.0, 0.0), 1.0, 1 / 64)
        u = from_expression(dom, "x*x")
        mag2 = calc._gradient_mag_squared(u)
        assert calc._gradient_mag_squared(u) is mag2
        # one entry per domain cell: no exterior cell is held
        assert mag2.shape == (np.count_nonzero(dom.mask),)
        with pytest.raises(ValueError):
            mag2[0] = 1.0
