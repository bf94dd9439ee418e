"""Discrete gradients, norms, barriers, truncation, TV, mollification."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import ndimage
from scipy.fft import next_fast_len

from gmtlab.calculus import (
    GridFunction,
    abs_value,
    boundary_integral,
    build_mollifier,
    constant_function,
    fft_convolve,
    from_expression,
    grad_l1,
    grad_l2_squared,
    indicator_function,
    interior_region,
    lq_norm,
    minkowski_steiner,
    mollify,
    pointwise_min,
    restrict_to_domain,
    shell_gradient_discrete,
    shell_mass,
    shell_mass_limit,
    total_variation,
    truncate,
)
from gmtlab.constants import LATTICE_SLACK_COEFF
import gmtlab.calculus as calc
from gmtlab import domains
from gmtlab.domains import (BoundaryCloud, GridDomain, extract_boundary, make_annulus, make_ball, make_box,
                            rasterize_polygon, volume)
from gmtlab.errors import InvalidArgumentError, ResolutionError
from gmtlab.expressions import Expression
from gmtlab.hausdorff import Partition, build_partition, estimate_hm, unit_ball_volume


def random_function(domain, cloud, rng, sigma=3.0):
    """Smooth random field with a linearly interpolated boundary trace."""
    field = ndimage.gaussian_filter(rng.normal(size=domain.shape), sigma=sigma)
    vals = np.where(domain.mask, field, 0.0)
    coords = (cloud.points - domain.origin) / domain.spacing - 0.5
    tr = ndimage.map_coordinates(field, coords.T, order=1, mode="nearest")
    return GridFunction(domain, vals, tr)


class TestGradL1:
    def test_linear_x_on_square(self, square_128):
        u = from_expression(square_128, "x")
        assert grad_l1(u) == pytest.approx(1.0, rel=0.02)

    def test_constant_has_zero_gradient(self, square_128):
        u = constant_function(square_128, 3.5)
        assert grad_l1(u) == 0.0

    def test_affine_slope_oracle(self, square_128):
        # closed form: |grad(x + 2y)| = sqrt(5) on the unit square
        u = from_expression(square_128, "x + 2*y")
        assert grad_l1(u) == pytest.approx(math.sqrt(5.0), rel=0.02)

    def test_huge_constant_has_zero_gradient_without_warning(self, disk_128):
        # the stencil zeroes the differences on exterior cells before it squares
        # them, so the 1e160 steps into the zero exterior never overflow
        u = constant_function(disk_128, 1e160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert grad_l1(u) == 0.0 and grad_l2_squared(u) == 0.0


class TestLqNorm:
    def test_unit_constant(self, square_128):
        u = constant_function(square_128, 1.0)
        assert lq_norm(u, 2.0) == pytest.approx(1.0, rel=2e-2)

    def test_constant_scaling_law(self, disk_128):
        c, q = 2.5, 3.0
        u = constant_function(disk_128, c)
        assert lq_norm(u, q) == pytest.approx(c * volume(disk_128) ** (1 / q), rel=1e-12)

    def test_linear_profile_oracle(self, square_128):
        # integral of x^2 over the unit square is 1/3
        u = from_expression(square_128, "x")
        assert lq_norm(u, 2.0) == pytest.approx(1 / math.sqrt(3.0), rel=0.01)

    def test_q_below_one_rejected(self, square_128):
        with pytest.raises(InvalidArgumentError):
            lq_norm(constant_function(square_128, 1.0), 0.5)

    def test_cached_per_function_and_q(self, disk_128, monkeypatch):
        # the interior gather and its sum run once per (function, q)
        u, v = from_expression(disk_128, "1 + x*y"), from_expression(disk_128, "1 + x*y")
        calls, lq = [], calc._lq
        monkeypatch.setattr(calc, "_lq", lambda *args: calls.append(args[2]) or lq(*args))
        first = [lq_norm(w, q) for w in (u, v) for q in (2.0, 1.5)]
        assert [lq_norm(w, q) for w in (u, v) for q in (2.0, 1.5)] == first
        assert calls == [2.0, 1.5, 2.0, 1.5] and first[0] == first[2] and first[0] != first[1]


class TestBoundaryIntegral:
    def test_square_perimeter(self, square_128):
        u = constant_function(square_128, 1.0)
        assert boundary_integral(u) == pytest.approx(4.0, abs=2 / 128)

    def test_zero_trace(self, square_128):
        cloud = extract_boundary(square_128)
        u = GridFunction(square_128, np.where(square_128.mask, 1.0, 0.0), np.zeros(len(cloud)))
        assert boundary_integral(u) == 0.0

    def test_calibrated_disk_circumference(self, disk_512):
        cloud = extract_boundary(disk_512)
        u = constant_function(disk_512, 1.0)
        est = estimate_hm(cloud, 1.0, 8 / 512)
        cal = est / cloud.total_weight
        assert boundary_integral(u, calibration=cal) == pytest.approx(2 * math.pi, rel=0.03)


class TestPointwiseOps:
    def test_min_idempotent(self, disk_128):
        u = from_expression(disk_128, "x*y")
        m = pointwise_min(u, u)
        assert np.array_equal(m.values, u.values)
        assert np.array_equal(m.trace, u.trace)

    def test_min_with_large_bound_is_identity(self, disk_128):
        u = from_expression(disk_128, "x")
        big = constant_function(disk_128, 100.0)
        m = pointwise_min(u, big)
        assert np.array_equal(m.values, u.values)

    def test_domain_mismatch_rejected(self, disk_128, square_128):
        with pytest.raises(InvalidArgumentError):
            pointwise_min(constant_function(disk_128, 1.0), constant_function(square_128, 1.0))

    def test_lattice_inequality_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for nsize in (32, 64):
            dom = make_box((0.0, 0.0), (1.0, 1.0), 1 / nsize)
            cloud = extract_boundary(dom)
            tol = LATTICE_SLACK_COEFF / nsize
            for _ in range(100):
                u = random_function(dom, cloud, rng)
                v = random_function(dom, cloud, rng)
                assert grad_l1(pointwise_min(u, v)) <= grad_l1(u) + grad_l1(v) + tol

    def test_abs_gradient_never_larger(self):
        rng = np.random.default_rng(1)
        dom = make_box((0.0, 0.0), (1.0, 1.0), 1 / 32)
        cloud = extract_boundary(dom)
        tol = LATTICE_SLACK_COEFF / 32
        for _ in range(50):
            u = random_function(dom, cloud, rng)
            assert grad_l1(abs_value(u)) <= grad_l1(u) + tol

    def test_abs_fixes_nonnegative(self, disk_128):
        u = from_expression(disk_128, "1 + x*x")
        a = abs_value(u)
        assert np.array_equal(a.values, u.values)
        assert a is u  # nothing to flip: the same function, so its gradient is shared

    def test_abs_is_even(self, disk_128):
        u = from_expression(disk_128, "x - 0.2")
        neg = GridFunction(u.domain, -u.values, -u.trace)
        assert np.array_equal(abs_value(u).values, abs_value(neg).values)

    def test_abs_kink_keeps_gradient_mass(self, square_128):
        # both |x - 1/2| and x - 1/2 have unit slope almost everywhere
        u = from_expression(square_128, "x - 0.5")
        assert grad_l1(abs_value(u)) == pytest.approx(grad_l1(u), rel=0.02)
        assert grad_l1(u) == pytest.approx(1.0, rel=0.02)


class TestShellMass:
    def test_direct_formula(self):
        assert shell_mass(1.0, 0.5, 1.0, 2) == pytest.approx(2.5 * math.pi)

    def test_limits(self):
        assert shell_mass_limit(1.0, 1.0, 2) == pytest.approx(2 * math.pi)
        assert shell_mass_limit(1.0, 1.0, 3) == pytest.approx(4 * math.pi)

    @pytest.mark.parametrize("r", [0.1, 1.0])
    @pytest.mark.parametrize("n", [2, 3])
    def test_limit_convergence(self, r, n):
        s = r / 1000
        gap = abs(shell_mass(r, s, 1.0, n) / shell_mass_limit(r, 1.0, n) - 1.0)
        assert gap < 0.01

    def test_zero_width_rejected(self):
        with pytest.raises(InvalidArgumentError):
            shell_mass(1.0, 0.0, 1.0, 2)

    @pytest.mark.parametrize("n", [2, 3])
    def test_stacked_shells_match_python_floats(self, n):
        # a stack of shells gives the bits of the formula on one Python float
        rng = np.random.default_rng(5)
        r, height, s = rng.uniform(0.0, 0.1, 2000), rng.uniform(0.0, 2.0, 2000), 0.0123
        omega = unit_ball_volume(n)
        pairs = list(zip(r.tolist(), height.tolist()))
        assert shell_mass(r, s, height, n).tolist() == [ht / s * omega * ((x + s) ** n - x ** n)
                                                         for x, ht in pairs]
        assert shell_mass_limit(r, height, n).tolist() == [ht * n * omega * x ** (n - 1)
                                                           for x, ht in pairs]

    def test_negative_entry_rejected(self):
        with pytest.raises(InvalidArgumentError):
            shell_mass(np.array([0.1, -0.1]), 0.1, 1.0, 2)
        with pytest.raises(InvalidArgumentError):
            shell_mass_limit(0.1, np.array([1.0, -1.0]), 2)


class TestShellMassProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        st.floats(0.01, 10.0),
        st.floats(1e-6, 5.0),
        st.floats(0.0, 100.0, allow_subnormal=False),
        st.sampled_from([2, 3]),
    )
    @settings(max_examples=200)
    def test_shell_mass_dominates_its_limit(self, r, s, height, n):
        # difference quotients of a convex power exceed its derivative
        assert shell_mass(r, s, height, n) >= shell_mass_limit(r, height, n) * (1 - 1e-12)

    @given(st.floats(0.01, 5.0), st.floats(0.0, 10.0), st.sampled_from([2, 3]))
    @settings(max_examples=100)
    def test_shell_mass_monotone_in_width(self, r, height, n):
        assert shell_mass(r, 0.2, height, n) >= shell_mass(r, 0.1, height, n) * (1 - 1e-12)


class TestBarrier:
    def test_capped_gradient_matches_shell_mass(self):
        # analytic shell-mass oracle for the discrete gradient of the ramp
        dom = make_ball((0.0, 0.0), 0.45, 1 / 512)
        capped = from_expression(dom, "min(1, max(0, (r - 0.2) / 0.05))")
        assert grad_l1(capped) == pytest.approx(shell_mass(0.2, 0.05, 1.0, 2), rel=0.05)

    def test_windowed_shell_gradient(self):
        dom = make_ball((0.0, 0.0), 0.45, 1 / 512)
        g = shell_gradient_discrete((0.0, 0.0), 0.2, 0.05, 1.0, dom)
        assert g == pytest.approx(shell_mass(0.2, 0.05, 1.0, 2), rel=0.05)

    def test_shell_sticking_outside_grid_still_counted(self):
        # center on the domain rim: the shell leaves the grid box
        dom = make_ball((0.0, 0.0), 0.45, 1 / 512)
        g = shell_gradient_discrete((0.45, 0.0), 0.05, 0.02, 1.0, dom)
        assert g == pytest.approx(shell_mass(0.05, 0.02, 1.0, 2), rel=0.05)

    def test_window_limit_is_inclusive_and_below_the_grid_limit(self, monkeypatch):
        # a window's temporaries take about 33 bytes per cell, so its limit
        # (2^26 cells, 2 GiB) lies 4x below the grid limit; the box is known
        # before anything is allocated.  truncate refuses at the widest of its
        # barriers' shell windows, unclipped, as the shell masses do
        assert calc._MAX_WINDOW_CELLS == domains._MAX_GRID_CELLS // 4 == 1 << 26
        dom = make_ball((0.0, 0.0), 0.45, 1 / 64)
        u = from_expression(dom, "1 + x*x")
        part = build_partition(u.cloud, 1, 0.1)
        centers, diams, _ = calc._barriers(u, part, 0.1)
        inputs = [
            (np.zeros((1, 2)), np.array([0.2]), 0.05,
             lambda: shell_gradient_discrete((0.0, 0.0), 0.2, 0.05, 1.0, dom) > 0),
            (centers, diams, 0.02,
             lambda: len(truncate(u, part, eps=0.1, s=0.02).metadata["shell_masses"]) == len(part)),
        ]
        for x_c, diam, s, run in inputs:
            lo, hi = calc._index_box(dom, x_c, (diam + s + 3 * dom.spacing)[:, None])  # the shells' windows
            cells = int(np.prod(np.max(hi - lo, axis=0)))
            monkeypatch.setattr(calc, "_MAX_WINDOW_CELLS", cells)
            assert run()
            monkeypatch.setattr(calc, "_MAX_WINDOW_CELLS", cells - 1)
            with pytest.raises(InvalidArgumentError, match=f"cells exceeds the limit of {cells - 1}$"):
                run()

    @pytest.mark.parametrize("consumer", ["shell_gradient_discrete", "truncate"])
    def test_one_block_held_at_a_time(self, monkeypatch, consumer):
        # two 3D windows of about 0.9M cells, one block each, over a grid of
        # 8,000 cells: each block is dropped before the next is built, so the
        # peak is one block's temporaries, the 33 bytes a cell that
        # _MAX_WINDOW_CELLS is sized by (40 while two blocks were held)
        dom = make_ball((0.0, 0.0, 0.0), 0.25, 1 / 32)
        u = from_expression(dom, "1 + x")
        n = len(u.cloud)
        # two cells of the cloud's halves, each within 2 rd = 0.8 of its first member
        part = Partition(np.arange(n), np.array([0, n // 2, n]), np.array([0, n // 2]),
                         np.full(2, 0.4), np.zeros(2), 1.5, u.cloud)
        s = 0.6
        centers, diams, heights = calc._barriers(u, part, 0.1)
        lo, hi = calc._index_box(dom, centers, (diams + s + 3 * dom.spacing)[:, None])
        cells = int(np.max(np.prod(hi - lo, axis=1)))
        assert cells > 100 * dom.mask.size
        monkeypatch.setattr(calc, "_BLOCK_POINTS", 1)  # one window per block
        run = {"shell_gradient_discrete": lambda: shell_gradient_discrete(centers, diams, s, heights, dom),
               "truncate": lambda: truncate(u, part, eps=0.1, s=s)}[consumer]
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 33 * cells


class TestTruncate:
    def _setup(self, h=1 / 256, delta=0.05):
        dom = make_ball((0.0, 0.0), 1.0, h)
        cloud = extract_boundary(dom)
        part = build_partition(cloud, 1, delta)
        return dom, cloud, part

    def test_zero_function_stays_zero(self):
        dom, cloud, part = self._setup()
        u = constant_function(dom, 0.0)
        out = truncate(u, part, eps=0.1, s=0.02)
        assert np.all(out.values == 0.0)
        assert np.all(out.trace == 0.0)

    def test_indicator_plateau_and_collar(self):
        dom, cloud, part = self._setup()
        u = constant_function(dom, 1.0)
        out = truncate(u, part, eps=0.1, s=0.02)
        inner = interior_region(dom, 0.1) & dom.mask
        assert np.array_equal(out.values[inner], u.values[inner])
        dist_in = ndimage.distance_transform_edt(dom.mask, sampling=dom.spacing)
        collar = dom.mask & (dist_in <= 1.5 * dom.spacing)
        assert np.all(out.values[collar] == 0.0)
        assert np.all(out.trace == 0.0)

    def test_sandwich_exact(self):
        dom, cloud, part = self._setup()
        rng = np.random.default_rng(7)
        for _ in range(5):
            u = abs_value(random_function(dom, cloud, rng))
            out = truncate(u, part, eps=0.15, s=0.02)
            assert np.all(out.values >= 0.0)
            assert np.all(out.values <= u.values + 1e-15)
            inner = interior_region(dom, 0.15) & dom.mask
            assert np.array_equal(out.values[inner], u.values[inner])

    def test_negative_function_rejected(self):
        dom, cloud, part = self._setup()
        u = from_expression(dom, "x")  # negative on half the disk
        with pytest.raises(InvalidArgumentError):
            truncate(u, part, eps=0.1, s=0.02)

    def test_s_out_of_range_rejected(self):
        dom, cloud, part = self._setup()
        u = constant_function(dom, 1.0)
        with pytest.raises(InvalidArgumentError):
            truncate(u, part, eps=0.1, s=part.delta)

    @pytest.mark.parametrize("at_representative", [True, False])
    def test_nan_trace_rejected(self, at_representative):
        # a nan trace value passed the sign check: at a partition
        # representative it failed later as a non-finite cell value, and
        # anywhere else the function was accepted
        dom, cloud, part = self._setup(h=1 / 64, delta=0.1)
        others = np.setdiff1d(np.arange(len(cloud)), part.x_index)
        trace = np.ones(len(cloud))
        trace[part.x_index[0] if at_representative else others[0]] = np.nan
        u = GridFunction(dom, constant_function(dom, 1.0).values, trace)
        with pytest.raises(InvalidArgumentError, match="^truncate expects a nonnegative function$"):
            truncate(u, part, eps=0.1, s=0.02)


class TestTotalVariation:
    def test_zero(self, square_128):
        u = constant_function(square_128, 0.0)
        assert total_variation(u) == 0.0

    def test_square_indicator_is_perimeter(self, square_128):
        u = indicator_function(square_128)
        assert total_variation(u) == pytest.approx(4.0, rel=0.02)

    def test_disk_indicator_anisotropy_bracket(self, disk_512):
        tv = total_variation(indicator_function(disk_512))
        assert 2 * math.pi * 0.95 <= tv <= 8.0


def _brute_full_convolve(a, b):
    """Direct full linear convolution: every tap of b adds a shifted copy of a."""
    out = np.zeros(tuple(n + m - 1 for n, m in zip(a.shape, b.shape)))
    for j in np.ndindex(b.shape):
        out[tuple(slice(o, o + n) for o, n in zip(j, a.shape))] += b[j] * a
    return out


def _same(full, a_shape, b_shape):
    """Crop a full convolution to ``a_shape``, centred on a (the "same" mode)."""
    start = [(m - 1) // 2 for m in b_shape]
    return full[tuple(slice(s0, s0 + n) for s0, n in zip(start, a_shape))]


class TestFftConvolve:
    SHAPES = [
        ((9, 12), (3, 5)),
        ((10, 7), (4, 6)),
        ((6, 7, 8), (3, 3, 5)),
        ((5, 8, 6), (2, 4, 3)),
    ]

    @pytest.mark.parametrize("a_shape,b_shape", SHAPES)
    def test_full_and_same_match_direct_sums(self, a_shape, b_shape):
        rng = np.random.default_rng(sum(a_shape) + sum(b_shape))
        a = rng.normal(size=a_shape)
        b = rng.normal(size=b_shape)
        full = _brute_full_convolve(a, b)
        peak = np.abs(full).max()
        got = fft_convolve(a, b)
        assert got.shape == full.shape
        assert np.abs(got - full).max() <= 1e-12 * peak
        got = _same(fft_convolve(a, b), a_shape, b_shape)
        assert got.shape == a.shape
        assert np.abs(got - _same(full, a_shape, b_shape)).max() <= 1e-12 * peak

    @pytest.mark.parametrize("a_shape,b_shape", [
        ((9, 12), (3, 5)), ((10, 7), (5, 7)), ((6, 7, 8), (3, 3, 5)), ((5, 8, 6), (3, 5, 3)),
    ])
    def test_same_matches_centred_ndimage_convolve(self, a_shape, b_shape):
        rng = np.random.default_rng(len(a_shape) + a_shape[0])
        a = rng.normal(size=a_shape)
        b = rng.normal(size=b_shape)
        ref = ndimage.convolve(a, b, mode="constant", cval=0.0)
        got = _same(fft_convolve(a, b), a_shape, b_shape)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_fast_len_is_scipys_real_fast_length(self):
        # the 5-smooth lengths; scipy is the oracle here only
        assert [calc._fast_len(n) for n in range(1, 5000)] == [
            next_fast_len(n, real=True) for n in range(1, 5000)]

    def test_mollify_masks_match_the_direct_stencil(self):
        # the direct convolution is exactly zero off the kernel's reach; the
        # scrubbed FFT product must give the same support and values; the
        # suite's disk and annulus at h = 1/128, k = 4 on a coarser disk
        cases = [
            (make_box((0.0, 0.0), (1.0, 1.0), 1 / 128), "1 + x*y", (8, 16)),
            (make_ball((0.0, 0.0), 1.0, 1 / 128), "indicator", (8, 16)),
            (make_ball((0.0, 0.0), 1.0, 1 / 32), "indicator", (4,)),
            (make_annulus((0.0, 0.0), 1.0, 0.5, 1 / 128), "x*x + y*y", (8, 16)),
            (make_ball((0.0, 0.0, 0.0), 1.0, 1 / 32), "indicator", (8, 16)),
        ]
        for dom, expr, ks in cases:
            u = indicator_function(dom) if expr == "indicator" else from_expression(dom, expr)
            for k in ks:
                mk = mollify(u, k)
                kernel = build_mollifier(k, dom.spacing, dom.dim)
                pad = (kernel.shape[0] - 1) // 2 + 2
                ref = ndimage.convolve(np.pad(u.values, pad), kernel * dom.spacing ** dom.dim,
                                       mode="constant", cval=0.0)
                assert np.array_equal(mk.domain.origin, dom.origin - pad * dom.spacing)
                assert np.array_equal(mk.values != 0.0, ref != 0.0)
                assert np.array_equal(mk.domain.mask, (ref != 0.0) | np.pad(dom.mask, pad))
                assert np.abs(mk.values - ref).max() <= 1e-14 * np.abs(ref).max()


def _l1_to_padded(wide, u):
    """L1 distance of zero-extended u to ``wide``, whose grid is u's padded by whole cells."""
    h, n = u.domain.spacing, u.domain.dim
    pad = np.rint((u.domain.origin - wide.domain.origin) / h).astype(int)
    assert wide.domain.spacing == h
    assert np.allclose(wide.domain.origin + pad * h, u.domain.origin, rtol=0.0, atol=1e-9 * h)
    assert (pad >= 0).all() and (pad + u.domain.shape <= wide.domain.shape).all()
    diff = wide.values.copy()
    diff[tuple(slice(p, p + k) for p, k in zip(pad, u.domain.shape))] -= u.values
    return float(np.sum(np.abs(diff))) * h ** n


class TestMollify:
    def test_kernel_mass_exact(self):
        kernel = build_mollifier(4, 1 / 64, 2)
        assert float(np.sum(kernel)) * (1 / 64) ** 2 == pytest.approx(1.0, rel=1e-12)
        assert (kernel >= 0).all()

    def test_oversized_kernel_refused_before_allocation(self):
        # 199,999^2 cells (298 GiB as floats): numpy would fail to allocate
        with pytest.raises(InvalidArgumentError, match="exceeds the limit"):
            build_mollifier(1, 1e-5, 2)

    def test_oversized_padded_grid_refused(self, monkeypatch, square_128):
        # the kernel fits the limit and the padded grid does not
        u = indicator_function(square_128)
        kernel = build_mollifier(8, square_128.spacing, 2)
        monkeypatch.setattr(domains, "_MAX_GRID_CELLS", kernel.size)
        assert build_mollifier(8, square_128.spacing, 2).shape == kernel.shape
        with pytest.raises(InvalidArgumentError, match="exceeds the limit"):
            mollify(u, 8)

    def test_zero_trace(self, square_128):
        # the enlarged mask holds the support, so the trace is exactly zero
        assert boundary_integral(mollify(indicator_function(square_128), 4)) == 0.0

    def test_convolution_is_the_mollified_grid_without_its_margin(self, disk_128):
        # mollify pads the support box of _convolved by two zero cells per side
        u = from_expression(disk_128, "max(0, 1 - r*r)")
        for k in (4, 8):
            conv, mask = calc._convolved(u, k)
            mk = mollify(u, k)
            inner = (slice(2, -2),) * 2
            assert np.array_equal(mk.values[inner], conv) and np.array_equal(mk.domain.mask[inner], mask)
            assert not mk.values[~np.pad(np.ones(conv.shape, bool), 2)].any()
            assert not mk.domain.mask[~np.pad(np.ones(conv.shape, bool), 2)].any()

    def test_mass_preserved(self, square_128):
        u = indicator_function(square_128)
        h = square_128.spacing
        for k in (4, 8, 16):
            mk = mollify(u, k)
            assert float(np.sum(mk.values)) * h * h == pytest.approx(
                volume(square_128), rel=1e-12
            )

    def test_tv_never_increases(self, square_128):
        u = indicator_function(square_128)
        tv0 = total_variation(u)
        for k in (4, 8, 16):
            assert total_variation(mollify(u, k)) <= tv0 * (1 + 1e-6)

    def test_tv_never_increases_on_random_fields(self):
        rng = np.random.default_rng(3)
        dom = make_box((0.0, 0.0), (1.0, 1.0), 1 / 64)
        cloud = extract_boundary(dom)
        for _ in range(20):
            u = random_function(dom, cloud, rng)
            tv0 = total_variation(u)
            for k in (4, 8):
                assert total_variation(mollify(u, k)) <= tv0 * (1 + 1e-6)

    def test_l1_convergence_trend(self, square_128):
        u = indicator_function(square_128)
        dists = [_l1_to_padded(mollify(u, k), u) for k in (4, 8, 16)]
        assert dists[0] > dists[1] > dists[2]

    def test_unresolvable_support_rejected(self):
        dom = make_box((0.0, 0.0), (1.0, 1.0), 1 / 8)
        u = indicator_function(dom)
        with pytest.raises(ResolutionError):
            mollify(u, 8)  # support 1/8 equals one cell

    def test_tv_lower_semicontinuity_probe(self, square_128):
        # smoothing cannot beat the limit: as the kernels shrink (u_k -> u
        # in L1), the extrapolated limit of TV(u_k) dominates TV(u).  Sharp
        # curved indicators are excluded: their discrete TV carries the
        # anisotropy excess of the scheme, which no smooth approximant sees.
        rng = np.random.default_rng(5)
        cloud = extract_boundary(square_128)
        cases = [indicator_function(square_128)]
        cases += [random_function(square_128, cloud, rng) for _ in range(4)]
        for u in cases:
            tv = total_variation(u)
            tv32 = total_variation(mollify(u, 32))
            tv64 = total_variation(mollify(u, 64))
            assert _l1_to_padded(mollify(u, 64), u) < _l1_to_padded(mollify(u, 32), u)
            extrapolated = 2 * tv64 - tv32
            assert tv <= extrapolated + 0.01 * tv + 1e-6


class TestMinkowskiSteiner:
    def test_disk_extrapolation(self):
        h = 1 / 256
        dom = make_ball((0.0, 0.0), 1.0, h)
        st = minkowski_steiner(dom, [52 * h, 26 * h, 13 * h])
        assert st.extrapolated == pytest.approx(2 * math.pi, rel=0.02)
        quots = [q for _, q in st.quotients]
        assert quots[0] > quots[1] > quots[2] > st.extrapolated

    def test_square_extrapolation(self):
        h = 1 / 256
        dom = make_box((0.0, 0.0), (1.0, 1.0), h)
        st = minkowski_steiner(dom, [52 * h, 26 * h, 13 * h])
        assert st.extrapolated == pytest.approx(4.0, rel=0.02)

    def test_eps_at_spacing_rejected(self):
        dom = make_ball((0.0, 0.0), 1.0, 1 / 64)
        with pytest.raises(ResolutionError):
            minkowski_steiner(dom, [1 / 64])

    def test_unsorted_rejected(self):
        dom = make_ball((0.0, 0.0), 1.0, 1 / 64)
        with pytest.raises(InvalidArgumentError):
            minkowski_steiner(dom, [0.1, 0.2])


class TestGridFunction:
    def test_trace_is_required(self, square_128):
        with pytest.raises(TypeError):
            GridFunction(square_128, np.zeros(square_128.shape))

    def test_nan_rejected(self, square_128):
        vals = np.where(square_128.mask, np.nan, 0.0)
        with pytest.raises(InvalidArgumentError):
            GridFunction(square_128, vals, np.zeros(len(extract_boundary(square_128))))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_non_finite_interior_value_rejected(self, square_128, bad):
        vals = np.where(square_128.mask, 1.0, 0.0)
        vals[tuple(np.argwhere(square_128.mask)[17])] = bad
        with pytest.raises(InvalidArgumentError, match="^values must be finite on every interior cell$"):
            GridFunction(square_128, vals, np.zeros(len(extract_boundary(square_128))))

    def test_non_finite_exterior_values_zeroed(self, square_128):
        vals = np.where(square_128.mask, 2.0, np.nan)
        vals[0, 0], vals[-1, -1] = np.inf, -np.inf
        fn = GridFunction(square_128, vals, np.zeros(len(extract_boundary(square_128))))
        assert np.array_equal(fn.values, np.where(square_128.mask, 2.0, 0.0))
        assert not np.signbit(fn.values).any()
        assert np.isnan(vals[0, 1])  # the caller's array is left alone

    def test_finiteness_refused_before_the_modulus(self, square_128):
        vals = np.where(square_128.mask, np.inf, 0.0)
        with pytest.raises(InvalidArgumentError, match="values must be finite"):
            GridFunction(square_128, vals, np.zeros(len(extract_boundary(square_128))), lipschitz=-1.0)

    def test_trace_consistency_checked_with_modulus(self, square_128):
        cloud = extract_boundary(square_128)
        vals = np.where(square_128.mask, 0.0, 0.0)
        bad_trace = np.full(len(cloud), 10.0)
        with pytest.raises(InvalidArgumentError):
            GridFunction(square_128, vals, bad_trace, lipschitz=1.0)

    @pytest.mark.parametrize("lips", [-1.0, -1e-300, float("nan")])
    def test_negative_or_nan_modulus_rejected(self, square_128, lips):
        cloud = extract_boundary(square_128)
        with pytest.raises(InvalidArgumentError, match="lipschitz must be nonnegative"):
            GridFunction(square_128, np.zeros(square_128.shape), np.zeros(len(cloud)), lipschitz=lips)
        with pytest.raises(InvalidArgumentError):
            from_expression(square_128, "1", lipschitz=lips)

    def test_cloud_is_the_domains(self, disk_128):
        u = from_expression(disk_128, "x")
        assert u.cloud is extract_boundary(disk_128)
        assert GridFunction(disk_128, u.values, u.trace).cloud is u.cloud

    def test_expression_trace_from_cloud_points(self, square_128):
        cloud = extract_boundary(square_128)
        u = from_expression(square_128, "x")
        assert u.trace == pytest.approx(cloud.points[:, 0])

    def test_scale_homogeneity(self, disk_128):
        u = from_expression(disk_128, "1 + x*y")
        lam = 3.7
        scaled = GridFunction(u.domain, lam * u.values, lam * u.trace)
        assert grad_l1(scaled) == pytest.approx(lam * grad_l1(u), rel=1e-12)
        assert lq_norm(scaled, 2.0) == pytest.approx(lam * lq_norm(u, 2.0), rel=1e-12)
        assert grad_l2_squared(scaled) == pytest.approx(
            lam ** 2 * grad_l2_squared(u), rel=1e-12
        )

    def test_restrict_samples_box_function(self, disk_128):
        box_u = mollify(indicator_function(disk_128), 8)
        u = restrict_to_domain(box_u, disk_128)
        assert u.trace is not None
        # deep inside, the mollified indicator is exactly one
        inner = interior_region(disk_128, 0.3) & disk_128.mask
        assert np.allclose(u.values[inner], 1.0, atol=1e-9)


# two objects of each kind, built from equal specs
_EQUAL_SPEC_PAIRS = {
    "GridDomain": lambda: make_ball((0.0, 0.0), 1.0, 1 / 16),
    "FaceTable": lambda: extract_boundary(make_ball((0.0, 0.0), 1.0, 1 / 16)).faces,
    "BoundaryCloud": lambda: extract_boundary(make_ball((0.0, 0.0), 1.0, 1 / 16)),
    "GridFunction": lambda: constant_function(make_ball((0.0, 0.0), 1.0, 1 / 16), 1.0),
    "Partition": lambda: build_partition(extract_boundary(make_ball((0.0, 0.0), 1.0, 1 / 16)), 1, 0.25),
}


@pytest.mark.parametrize("kind", sorted(_EQUAL_SPEC_PAIRS))
def test_equality_is_identity(kind):
    # array fields compare elementwise, so a generated == would raise; each
    # object is equal only to itself, and hashes by identity
    a, b = _EQUAL_SPEC_PAIRS[kind](), _EQUAL_SPEC_PAIRS[kind]()
    assert type(a).__name__ == kind
    assert a == a and a != b and not a == b
    assert len({a, b, a}) == 2


# ---------------------------------------------------------------------------
# Reference implementations: the dense-lattice, padded-difference and
# full-cloud versions of the shell, TV and truncation code.  The library's
# sparse lattices, sliced TV sums and zero truncated trace must reproduce
# them bit for bit (exact ==, not approx).


def _ref_distance(domain, center, lo, hi):
    h = domain.spacing
    axes = [domain.origin[a] + (np.arange(lo[a], hi[a]) + 0.5) * h for a in range(domain.dim)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.sqrt(sum((g - c) ** 2 for g, c in zip(grids, center)))


def _ref_padded_tv(v, h):
    total = np.zeros_like(v)
    for axis in range(v.ndim):
        d = np.diff(v, axis=axis)
        pad = [(0, 0)] * v.ndim
        pad[axis] = (0, 1)
        d = np.pad(d, pad)
        total += d * d
    return float(np.sum(np.sqrt(total))) * h ** (v.ndim - 1)


def _ref_box(domain, center, radius):
    h = domain.spacing
    lo = np.floor((center - radius - domain.origin) / h - 1).astype(int)
    hi = np.ceil((center + radius - domain.origin) / h + 1).astype(int)
    return lo, hi


def _ref_shell_gradient(x_c, diam, s, height, domain):
    x_c = np.asarray(x_c, dtype=float)
    lo, hi = _ref_box(domain, x_c, diam + s + 3 * domain.spacing)
    dist = _ref_distance(domain, x_c, lo, hi)
    return _ref_padded_tv(height * np.clip((dist - diam) / s, 0.0, 1.0), domain.spacing)


def _ref_truncate(u, part, eps, s):
    dom = u.domain
    out = u.values.copy()
    trace_out = u.trace.copy()
    pts = u.cloud.points
    for x_index, rd in zip(part.x_index.tolist(), part.rd.tolist()):
        x_c = pts[x_index]
        height = u.trace[x_index] + eps
        diam = 2.0 * rd
        lo, hi = _ref_box(dom, x_c, diam + s)
        lo, hi = np.maximum(lo, 0), np.minimum(hi, np.array(dom.shape))
        window = tuple(slice(a, b) for a, b in zip(lo, hi))
        dist = _ref_distance(dom, x_c, lo, hi)
        ramp = height * np.clip((dist - diam) / s, 0.0, 1.0)
        out[window] = np.minimum(out[window], np.where(dist <= diam + s, ramp, np.inf))
        pd = np.linalg.norm(pts - x_c, axis=1)
        near = pd <= diam + s
        tr = height * np.clip((pd[near] - diam) / s, 0.0, 1.0)
        trace_out[near] = np.minimum(trace_out[near], tr)
    dist_in = ndimage.distance_transform_edt(dom.mask, sampling=dom.spacing)
    out[dom.mask & (dist_in <= 1.5 * dom.spacing)] = 0.0
    out[~dom.mask] = 0.0
    return out, trace_out


def _assert_shell_masses(out, u, part, eps, s):
    # read-only, and one dense shell per barrier in the partition's cell order
    masses = out.metadata["shell_masses"]
    assert not masses.flags.writeable
    pts = u.cloud.points
    assert masses.tolist() == [_ref_shell_gradient(pts[i], 2.0 * rd, s, u.trace[i] + eps, u.domain)
                               for i, rd in zip(part.x_index.tolist(), part.rd.tolist())]


def _ref_trace_maps(u, sign):
    """Per axis, the trace on the faces toward sign * e_axis as a full-grid map,
    and where it is set, from rolled copies of the mask: a face cloud lists its
    faces by (axis, sign), each direction's in C order of their cells."""
    mask = u.domain.mask
    maps, start = [], 0
    for axis in range(u.domain.dim):
        for s in (1, -1):
            has = mask & ~np.roll(mask, -s, axis=axis)
            count = int(np.count_nonzero(has))
            if s == sign:
                tmap = np.zeros(u.domain.shape)
                tmap[has] = u.trace[start:start + count]
                maps.append((tmap, has))
            start += count
    assert start == len(u.cloud)
    return maps


def _ref_gradient_mag_squared(u):
    # full-grid trace maps and rolled copies, without the cache
    dom = u.domain
    h = dom.spacing
    mask = dom.mask
    vals = u.values
    plus_maps = _ref_trace_maps(u, 1)
    minus_maps = _ref_trace_maps(u, -1)
    mag2 = np.zeros(dom.shape)
    for axis in range(dom.dim):
        fwd_int = mask & np.roll(mask, -1, axis=axis)
        comp = np.zeros(dom.shape)
        shifted = np.roll(vals, -1, axis=axis)
        comp[fwd_int] = (shifted[fwd_int] - vals[fwd_int]) / h
        tmap, has = plus_maps[axis]
        side = mask & has
        comp[side] = (tmap[side] - vals[side]) / (h / 2.0)
        mag2 += comp * comp
        tmap, has = minus_maps[axis]
        side = mask & has
        extra = np.zeros(dom.shape)
        extra[side] = (vals[side] - tmap[side]) / (h / 2.0)
        mag2 += extra * extra
    return mag2


_GRADIENT_DOMAINS = {
    "disk": lambda: make_ball((0.1, -0.2), 0.9, 1 / 128),
    "ball3d": lambda: make_ball((0.0, 0.0, 0.0), 0.5, 1 / 32),
    "box": lambda: make_box((0.0, 0.0), (1.0, 0.7), 1 / 128),
    "box3d": lambda: make_box((0.0, 0.0, 0.0), (0.5, 0.4, 0.3), 1 / 32),
    "annulus": lambda: make_annulus((0.1, -0.05), 1.0, 0.5, 1 / 128),
    "annulus3d": lambda: make_annulus((0.0, 0.0, 0.0), 0.5, 0.25, 1 / 32),
    "polygon": lambda: rasterize_polygon([(0, 0), (1, 0.2), (0.6, 0.5), (0.3, 0.9)], 1 / 128),
}


_STENCIL_LIST_DOMAINS = {
    **_GRADIENT_DOMAINS,
    "triangle": lambda: rasterize_polygon([(0, 0), (1, 0), (0, 1)], 1 / 128),
}


class TestGradientBitIdentity:
    """The face-table stencil reproduces the full-grid trace-map stencil bit for
    bit on the domain's cells, in the C order of ``values[mask]``."""

    @pytest.mark.parametrize("name", sorted(_GRADIENT_DOMAINS))
    def test_matches_reference(self, name):
        dom = _GRADIENT_DOMAINS[name]()
        cloud = extract_boundary(dom)
        expr = "x - 0.3*y - 0.1" if dom.dim == 2 else "x*y - z + 0.1"
        # signed values with nonzero traces; the random field's trace jumps
        # away from the cell values, the expression's is exact at the faces
        signed = (from_expression(dom, expr), random_function(dom, cloud, np.random.default_rng(3)))
        assert all((fn.values < 0).any() and (fn.trace != 0).any() for fn in signed)
        for fn in signed + (indicator_function(dom),):
            assert np.array_equal(calc._gradient_mag_squared(fn), _ref_gradient_mag_squared(fn)[dom.mask])


    @pytest.mark.parametrize("name", sorted(_STENCIL_LIST_DOMAINS))
    def test_lists_sum_to_the_stencil(self, name):
        # the quotient search updates one coordinate at a time from these lists;
        # each cell's squared differences, summed in order, are the stencil's bits
        dom = _STENCIL_LIST_DOMAINS[name]()
        rng = np.random.default_rng(11)
        u = GridFunction(dom, rng.normal(size=dom.shape), rng.normal(size=len(extract_boundary(dom))))
        terms, affected = calc._grad_stencil_lists(dom)
        x = u.values[dom.mask].tolist() + u.trace.tolist()
        sums = []
        for i, cell_terms in enumerate(terms):
            acc = 0.0
            for k, step in cell_terms:
                d = (x[k] - x[i]) / step
                acc += d * d
            sums.append(acc)
        assert np.array_equal(np.array(sums), calc._gradient_mag_squared(u))
        # a coordinate affects the cells whose terms read it, and a cell itself
        readers = [set() for _ in x]
        for i, cell_terms in enumerate(terms):
            for k, _ in cell_terms:
                readers[k].add(i)
        n_cells = len(terms)
        assert [set(cells) for cells in affected] == [r | {k} if k < n_cells else r
                                                      for k, r in enumerate(readers)]


# (domain, nonnegative function, partition delta, s values)
_BIT_CASES = {
    "disk": (lambda: make_ball((0.0, 0.0), 1.0, 1 / 128), "x*x + 0.5*y + 0.7", 0.1,
             (0.01, 0.03, 0.049)),
    "annulus": (lambda: make_annulus((0.1, -0.05), 1.0, 0.5, 1 / 128), "max(0, 1 - r*r)", 0.1,
                (0.02, 0.045)),
    "ball3d": (lambda: make_ball((0.0, 0.0, 0.0), 0.5, 1 / 32), "1 + x*y*z", 0.15,
               (0.02, 0.07)),
}


class TestBitIdentityWithReferences:
    @pytest.fixture(scope="class", params=sorted(_BIT_CASES))
    def case(self, request):
        make, expr, delta, s_values = _BIT_CASES[request.param]
        dom = make()
        u = from_expression(dom, expr)
        part = build_partition(u.cloud, dom.dim - 1, delta)
        return dom, u, part, s_values

    def test_truncate_values_and_trace(self, case):
        dom, u, part, s_values = case
        for s in s_values:
            for eps in (0.05, 0.3):
                out = truncate(u, part, eps=eps, s=s)
                ref_values, ref_trace = _ref_truncate(u, part, eps, s)
                assert np.array_equal(out.values, ref_values)
                assert np.array_equal(out.trace, ref_trace)
                _assert_shell_masses(out, u, part, eps, s)

    @pytest.mark.parametrize("block_points", [1, 5000])
    def test_truncate_in_many_blocks(self, case, monkeypatch, block_points):
        dom, u, part, s_values = case
        widest = 1
        for x_c, rd in zip(part.x_c, part.rd):
            lo, hi = calc._index_box(dom, x_c, 2.0 * rd + s_values[-1])
            widest = max(widest, int(np.prod(np.minimum(hi, dom.shape) - np.maximum(lo, 0))))
        assert len(part) > max(1, block_points // widest)  # several blocks
        monkeypatch.setattr(calc, "_BLOCK_POINTS", block_points)
        out = truncate(u, part, eps=0.05, s=s_values[-1])
        ref_values, ref_trace = _ref_truncate(u, part, 0.05, s_values[-1])
        assert np.array_equal(out.values, ref_values)
        assert np.array_equal(out.trace, ref_trace)
        _assert_shell_masses(out, u, part, 0.05, s_values[-1])

    def test_member_beyond_the_barrier_ball_refused(self):
        # one cell over the whole disk: its farthest member on the edge of
        # the ball B(x_C, 2 rd) is accepted, and its trace truncates to zero
        # as the reference's does; one ulp less rd and the member is outside
        dom = make_ball((0.0, 0.0), 1.0, 1 / 64)
        u = from_expression(dom, "x + 2")
        pts, i = u.cloud.points, int(np.argmin(u.cloud.points[:, 0]))
        far = float(np.max(np.linalg.norm(pts - pts[i], axis=1)))

        def one_cell(rd):
            return Partition(np.arange(len(pts)), np.array([0, len(pts)]), np.array([i]),
                             np.array([rd]), np.zeros(1), 2.0, u.cloud)

        part = one_cell(far / 2.0)
        out = truncate(u, part, eps=0.01, s=0.1)
        ref_values, ref_trace = _ref_truncate(u, part, 0.01, 0.1)
        assert not out.trace.any() and np.array_equal(out.trace, ref_trace)
        assert np.array_equal(out.values, ref_values)
        with pytest.raises(InvalidArgumentError, match="beyond 2 rd"):
            one_cell(np.nextafter(far / 2.0, 0.0))

    @pytest.mark.parametrize("name", sorted(_BIT_CASES))
    def test_truncated_trace_is_zero(self, name):
        # every trace point lies in its own cell's barrier ball, where the
        # ramp is 0: at the floor delta (4 resolutions) and at delta 0.3
        make, expr, _, _ = _BIT_CASES[name]
        u = from_expression(make(), expr)
        for delta in (4 * u.cloud.resolution, 0.3):
            part = build_partition(u.cloud, u.domain.dim - 1, delta)
            out = truncate(u, part, eps=0.05, s=delta / 4)
            assert not out.trace.any()
            assert np.array_equal(_ref_truncate(u, part, 0.05, delta / 4)[1], out.trace)

    def test_partition_of_another_cloud_refused(self):
        # a finer disk's partition indexes past this cloud; a shifted disk's
        # has this cloud's length; both are refused before any barrier
        dom = make_ball((0.0, 0.0), 1.0, 1 / 128)
        u = from_expression(dom, "2 + x")
        for other in (make_ball((0.0, 0.0), 1.0, 1 / 256), dom.translated((0.3, 0.0))):
            part = build_partition(extract_boundary(other), 1, 0.1)
            with pytest.raises(InvalidArgumentError, match="not of the function's boundary cloud"):
                truncate(u, part, eps=0.1, s=0.02)

    def test_shell_gradient_on_partition_cells(self, case):
        dom, u, part, s_values = case
        for s in s_values:
            for x_index, rd in zip(part.x_index[:40], part.rd[:40]):
                args = (u.cloud.points[x_index], 2.0 * rd, s, u.trace[x_index] + 0.05, dom)
                assert shell_gradient_discrete(*args) == _ref_shell_gradient(*args)

    @pytest.mark.parametrize("block_points", [1, 5000, calc._BLOCK_POINTS])
    def test_stacked_shell_gradients(self, case, monkeypatch, block_points):
        # all shells at once, in blocks, give each shell's mass exactly
        dom, u, part, s_values = case
        monkeypatch.setattr(calc, "_BLOCK_POINTS", block_points)
        centers, diams, heights = calc._barriers(u, part, 0.05)
        for s in s_values:
            masses = shell_gradient_discrete(centers, diams, s, heights, dom)
            ref = [_ref_shell_gradient(*args, s, ht, dom) for *args, ht in zip(centers, diams, heights)]
            assert np.array_equal(masses, ref)

    @pytest.mark.parametrize("block_points", [1, 5000, calc._BLOCK_POINTS])
    def test_barrier_windows_in_blocks_of_one_shape(self, case, monkeypatch, block_points):
        # each barrier once, in blocks of one window shape and of at most
        # _BLOCK_POINTS cells (or one window), with no padding
        dom, u, part, s_values = case
        monkeypatch.setattr(calc, "_BLOCK_POINTS", block_points)
        centers, diams, heights = calc._barriers(u, part, 0.05)
        seen = []
        for b, lo, hi, dist, ramps in calc._barrier_windows(dom, centers, diams, s_values[-1], heights):
            shape = hi[0] - lo[0]
            assert (hi - lo == shape).all() and dist.shape == ramps.shape == (len(b), *shape)
            assert len(b) == 1 or dist.size <= block_points
            assert np.isfinite(dist).all()
            seen.extend(b.tolist())
        assert sorted(seen) == list(range(len(part)))

    def test_empty_shell_stack(self, case):
        dom = case[0]
        masses = shell_gradient_discrete(np.empty((0, dom.dim)), 0.1, 0.02, 1.0, dom)
        assert isinstance(masses, np.ndarray) and masses.shape == (0,)

    def test_shell_gradient_past_the_grid_box(self, case):
        # centres on and beyond the rim: the shell lattice leaves the grid box
        dom = case[0]
        corner = dom.origin + np.array(dom.shape) * dom.spacing
        for x_c in (corner, dom.origin - 0.3, 0.5 * (dom.origin + corner) + 0.013):
            for diam, s in ((0.0, 0.02), (0.05, 0.02), (0.4, 0.11)):
                args = (x_c, diam, s, 1.3, dom)
                assert shell_gradient_discrete(*args) == _ref_shell_gradient(*args)

    def test_total_variation(self, case):
        dom, u, _, _ = case
        for fn in (u, indicator_function(dom), abs_value(from_expression(dom, "x - 0.1*y"))):
            v = np.where(dom.mask, fn.values, 0.0)
            assert total_variation(fn) == _ref_padded_tv(v, dom.spacing)

    def test_gradient_of_the_truncation(self, case):
        # the trace proof's second gradient: a zero collar under a capped trace
        dom, u, part, s_values = case
        out = truncate(u, part, eps=0.05, s=s_values[-1])
        assert np.array_equal(calc._gradient_mag_squared(out), _ref_gradient_mag_squared(out)[dom.mask])


@pytest.mark.parametrize("shapes", [
    [(5, 7), (40, 300), (3, 2), (1, 9), (52, 61)],
    [(4, 5, 6), (20, 30, 25), (2, 1, 3)],
])
def test_stacked_tv_of_one_shape(shapes):
    # a stack of arrays of one shape, for shapes small and past numpy's 8192-element
    # summation blocks: each TV is the one of that array alone
    rng = np.random.default_rng(11)
    for shape in shapes:
        stack = rng.normal(size=(4,) + shape)
        assert calc._forward_tv(stack, 0.07).tolist() == [_ref_padded_tv(a, 0.07) for a in stack]


# slabs of one row; of a few rows (a few planes in 3D), whose edges cut
# through every face block; and the whole grid as one slab
_SLAB_SIZES = [1, 3000, 1 << 40]


class TestRowSlabs:
    """The full-grid kernels walk the grid in row slabs of ``domains._SLAB_CELLS``
    cells; every slab size gives the whole-grid reference's bits."""

    @pytest.mark.parametrize("cells", _SLAB_SIZES)
    @pytest.mark.parametrize("name", sorted(_GRADIENT_DOMAINS))
    def test_kernels_at_any_slab_size(self, monkeypatch, name, cells):
        dom = _GRADIENT_DOMAINS[name]()
        monkeypatch.setattr(domains, "_SLAB_CELLS", cells)
        slabs = domains._row_slabs(dom.shape)
        if cells == 3000:
            assert 1 < len(slabs) < dom.shape[0]  # several slabs, some of several rows
        text = "x - 0.3*y - 0.1 + r" if dom.dim == 2 else "x*y - z + 0.1 + r"
        u = from_expression(dom, text)
        # the whole lattice at once, masked as a GridFunction keeps it (with signed zeros)
        lattice = domains._centers_grid(dom.origin, dom.shape, dom.spacing)
        ref = np.where(dom.mask, np.broadcast_to(Expression(text)(lattice), dom.shape), 0.0)
        assert np.array_equal(u.values.view(np.int64), ref.view(np.int64))
        rough = random_function(dom, u.cloud, np.random.default_rng(5))
        for fn in (u, rough, indicator_function(dom)):
            assert np.array_equal(calc._grad_stencil(fn), _ref_gradient_mag_squared(fn)[dom.mask])
            assert total_variation(fn) == _ref_padded_tv(fn.values, dom.spacing)

    @pytest.mark.parametrize("cells", _SLAB_SIZES)
    def test_stacked_tv_at_any_slab_size(self, monkeypatch, cells):
        # slab edges inside and between the arrays of a barrier stack
        monkeypatch.setattr(domains, "_SLAB_CELLS", cells)
        test_stacked_tv_of_one_shape([(4, 5, 6), (20, 30, 25), (2, 1, 3)])
        test_stacked_tv_of_one_shape([(5, 7), (40, 300), (3, 2), (52, 61)])

    def test_adopted_values_are_not_copied(self):
        # from_expression and truncate hand their fresh grids over; a caller's array is copied
        dom = make_ball((0.0, 0.0), 1.0, 1 / 16)
        values = np.ones(dom.shape)
        u = GridFunction(dom, values, np.ones(len(extract_boundary(dom))), _adopt=True)
        assert u.values is values and not values.flags.writeable and not values[~dom.mask].any()
        values = np.ones(dom.shape)
        v = GridFunction(dom, values, u.trace)
        assert not np.shares_memory(v.values, values) and values.all()


def _kernel_peak(run):
    """(tracemalloc peak of ``run()``, its result)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def test_full_grid_kernels_hold_a_few_slabs_of_scratch():
    # the bench proof grid (1028^2 cells, 32 slabs): the stencil and the lattice
    # evaluation hold their result and a few slabs, the TV its one full array of
    # roots and a few slabs (each held two or three full grids of scratch)
    dom = make_ball((0.0, 0.0), 1.0, 1 / 512)
    u = from_expression(dom, "max(0, 1 - r*r)", lipschitz=2.0)
    grid, slab = 8 * dom.mask.size, 8 * domains._SLAB_CELLS
    assert len(domains._row_slabs(dom.shape)) == 32
    peak, mag2 = _kernel_peak(lambda: calc._grad_stencil(u))
    assert peak <= mag2.nbytes + 5 * slab
    peak, _ = _kernel_peak(lambda: total_variation(u))
    assert peak <= grid + 3 * slab
    peak, _ = _kernel_peak(lambda: from_expression(dom, "max(0, 1 - r*r)"))
    assert peak <= grid + 4 * slab


@pytest.mark.parametrize("dim, h, eps, grids", [(2, 1 / 512, 0.05, 1.2), (3, 1 / 48, 1.0, 2.2)],
                         ids=["proof_disk", "ball3d"])
def test_interior_region_holds_its_int32_distances_and_slabs(dim, h, eps, grids):
    # the boolean source and the two int32 axis-0 sweeps (1.13 float grids);
    # in 3D the min-plus passes' int32 scratch and padded copy, which is
    # about twice the grid at a reach of half its side, instead of one sweep
    # (2.11); then the masks and one slab of stamps
    dom = make_ball((0.0,) * dim, 1.0, h)
    peak, _ = _kernel_peak(lambda: interior_region(dom, eps))
    assert peak <= grids * 8 * dom.mask.size
