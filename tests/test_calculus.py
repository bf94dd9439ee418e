"""Discrete gradients, norms, barriers, truncation, TV, mollification."""

import math

import numpy as np
import pytest
from scipy import ndimage

from gmtlab.calculus import (
    GridFunction,
    abs_value,
    barrier,
    boundary_integral,
    build_mollifier,
    constant_function,
    fft_convolve,
    from_expression,
    grad_l1,
    grad_l2_squared,
    indicator_function,
    interior_region,
    l1_distance,
    load_function,
    lq_norm,
    minkowski_steiner,
    mollify,
    pointwise_min,
    restrict_to_domain,
    save_function,
    shell_gradient_discrete,
    shell_mass,
    shell_mass_limit,
    total_variation,
    truncate,
)
from gmtlab.constants import LATTICE_SLACK_COEFF
import gmtlab.calculus as calc
from gmtlab.domains import extract_boundary, make_annulus, make_ball, make_box, rasterize_polygon, volume
from gmtlab.errors import (
    InvalidArgumentError,
    NoTraceError,
    ResolutionError,
)
from gmtlab.hausdorff import Partition, PartitionCell, build_partition, estimate_hm


def random_function(domain, cloud, rng, sigma=3.0):
    """Smooth random field with a linearly interpolated boundary trace."""
    field = ndimage.gaussian_filter(rng.normal(size=domain.shape), sigma=sigma)
    vals = np.where(domain.mask, field, 0.0)
    coords = (cloud.points - domain.origin) / domain.spacing - 0.5
    tr = ndimage.map_coordinates(field, coords.T, order=1, mode="nearest")
    return GridFunction(domain, vals, cloud, tr)


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

    def test_needs_trace(self, square_128):
        vals = np.where(square_128.mask, 1.0, 0.0)
        u = GridFunction(square_128, vals)
        with pytest.raises(NoTraceError):
            grad_l1(u)


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


class TestBoundaryIntegral:
    def test_square_perimeter(self, square_128):
        u = constant_function(square_128, 1.0)
        assert boundary_integral(u) == pytest.approx(4.0, abs=2 / 128)

    def test_zero_trace(self, square_128):
        cloud = extract_boundary(square_128)
        u = GridFunction(square_128, np.where(square_128.mask, 1.0, 0.0),
                         cloud, np.zeros(len(cloud)))
        assert boundary_integral(u) == 0.0

    def test_calibrated_disk_circumference(self, disk_512):
        cloud = extract_boundary(disk_512)
        u = constant_function(disk_512, 1.0, cloud)
        est = estimate_hm(cloud, 1.0, 8 / 512)
        cal = est / cloud.total_weight
        assert boundary_integral(u, calibration=cal) == pytest.approx(2 * math.pi, rel=0.03)

    def test_missing_trace_rejected(self, square_128):
        u = GridFunction(square_128, np.where(square_128.mask, 1.0, 0.0))
        with pytest.raises(NoTraceError):
            boundary_integral(u)


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
        neg = GridFunction(u.domain, -u.values, u.cloud, -u.trace)
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


class TestShellMassProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        st.floats(0.01, 10.0),
        st.floats(1e-6, 5.0),
        st.floats(0.0, 100.0, allow_subnormal=False),
        st.sampled_from([2, 3]),
    )
    @settings(max_examples=200, deadline=None)
    def test_shell_mass_dominates_its_limit(self, r, s, height, n):
        # difference quotients of a convex power exceed its derivative
        assert shell_mass(r, s, height, n) >= shell_mass_limit(r, height, n) * (1 - 1e-12)

    @given(st.floats(0.01, 5.0), st.floats(0.0, 10.0), st.sampled_from([2, 3]))
    @settings(max_examples=100, deadline=None)
    def test_shell_mass_monotone_in_width(self, r, height, n):
        assert shell_mass(r, 0.2, height, n) >= shell_mass(r, 0.1, height, n) * (1 - 1e-12)


class TestBarrier:
    def test_zero_inside_ball(self):
        dom = make_ball((0.0, 0.0), 0.45, 1 / 128)
        psi = barrier((0.0, 0.0), 0.2, 0.05, 1.0, dom)
        centers = dom.cell_centers()
        vals = psi.values[dom.mask]
        inside = np.linalg.norm(centers, axis=1) <= 0.2
        assert np.all(vals[inside] == 0.0)

    def test_ramp_midpoint(self):
        dom = make_ball((0.0, 0.0), 0.45, 1 / 512)
        psi = barrier((0.0, 0.0), 0.2, 0.05, 1.0, dom)
        centers = dom.cell_centers()
        vals = psi.values[dom.mask]
        rr = np.linalg.norm(centers, axis=1)
        mid = np.abs(rr - 0.225) < 1e-4
        assert np.allclose(vals[mid], 0.5, atol=0.02)

    def test_sentinel_outside(self):
        dom = make_ball((0.0, 0.0), 0.45, 1 / 128)
        psi = barrier((0.0, 0.0), 0.1, 0.05, 1.0, dom)
        sentinel = psi.metadata["sentinel"]
        centers = dom.cell_centers()
        far = np.linalg.norm(centers, axis=1) > 0.16
        assert np.all(psi.values[dom.mask][far] == sentinel)

    def test_capped_gradient_matches_shell_mass(self):
        # analytic shell-mass oracle for the discrete gradient of the ramp
        dom = make_ball((0.0, 0.0), 0.45, 1 / 512)
        cloud = extract_boundary(dom)
        psi = barrier((0.0, 0.0), 0.2, 0.05, 1.0, dom, cloud=cloud)
        capped = pointwise_min(psi, constant_function(dom, 1.0, cloud))
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


class TestTruncate:
    def _setup(self, h=1 / 256, delta=0.05):
        dom = make_ball((0.0, 0.0), 1.0, h)
        cloud = extract_boundary(dom)
        part = build_partition(cloud, 1, delta)
        return dom, cloud, part

    def test_zero_function_stays_zero(self):
        dom, cloud, part = self._setup()
        u = constant_function(dom, 0.0, cloud)
        out = truncate(u, part, eps=0.1, s=0.02)
        assert np.all(out.values == 0.0)
        assert np.all(out.trace == 0.0)

    def test_indicator_plateau_and_collar(self):
        dom, cloud, part = self._setup()
        u = constant_function(dom, 1.0, cloud)
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
        u = constant_function(dom, 1.0, cloud)
        with pytest.raises(InvalidArgumentError):
            truncate(u, part, eps=0.1, s=part.delta)


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
        start = [(m - 1) // 2 for m in b_shape]
        same = full[tuple(slice(s0, s0 + n) for s0, n in zip(start, a_shape))]
        got = fft_convolve(a, b, same=True)
        assert got.shape == a.shape
        assert np.abs(got - same).max() <= 1e-12 * peak

    @pytest.mark.parametrize("a_shape,b_shape", [
        ((9, 12), (3, 5)), ((10, 7), (5, 7)), ((6, 7, 8), (3, 3, 5)), ((5, 8, 6), (3, 5, 3)),
    ])
    def test_same_matches_centred_ndimage_convolve(self, a_shape, b_shape):
        rng = np.random.default_rng(len(a_shape) + a_shape[0])
        a = rng.normal(size=a_shape)
        b = rng.normal(size=b_shape)
        ref = ndimage.convolve(a, b, mode="constant", cval=0.0)
        got = fft_convolve(a, b, same=True)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_mollify_masks_match_the_direct_stencil(self, square_128):
        # the direct convolution is exactly zero off the kernel's reach; the
        # scrubbed FFT product must give the same support and values
        u = from_expression(square_128, "1 + x*y")
        for k in (8, 16):
            mk = mollify(u, k)
            mol = build_mollifier(k, square_128.spacing, 2)
            pad = (mol.kernel.shape[0] - 1) // 2 + 2
            ref = ndimage.convolve(np.pad(u.values, pad), mol.kernel * square_128.spacing ** 2,
                                   mode="constant", cval=0.0)
            assert np.array_equal(mk.domain.mask, (ref != 0.0) | np.pad(square_128.mask, pad))
            assert np.abs(mk.values - ref).max() <= 1e-14 * np.abs(ref).max()


class TestMollify:
    def test_kernel_mass_exact(self):
        mol = build_mollifier(4, 1 / 64, 2)
        assert float(np.sum(mol.kernel)) * (1 / 64) ** 2 == pytest.approx(1.0, rel=1e-12)
        assert (mol.kernel >= 0).all()

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
        dists = [l1_distance(mollify(u, k), u) for k in (4, 8, 16)]
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
        cases = [indicator_function(square_128, cloud)]
        cases += [random_function(square_128, cloud, rng) for _ in range(4)]
        for u in cases:
            tv = total_variation(u)
            tv32 = total_variation(mollify(u, 32))
            tv64 = total_variation(mollify(u, 64))
            assert l1_distance(mollify(u, 64), u) < l1_distance(mollify(u, 32), u)
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
    def test_nan_rejected(self, square_128):
        vals = np.where(square_128.mask, np.nan, 0.0)
        with pytest.raises(InvalidArgumentError):
            GridFunction(square_128, vals)

    def test_trace_consistency_checked_with_modulus(self, square_128):
        cloud = extract_boundary(square_128)
        vals = np.where(square_128.mask, 0.0, 0.0)
        bad_trace = np.full(len(cloud), 10.0)
        with pytest.raises(InvalidArgumentError):
            GridFunction(square_128, vals, cloud, bad_trace, lipschitz=1.0)

    @pytest.mark.parametrize("lips", [-1.0, -1e-300, float("nan")])
    def test_negative_or_nan_modulus_rejected(self, square_128, lips):
        cloud = extract_boundary(square_128)
        with pytest.raises(InvalidArgumentError, match="lipschitz must be nonnegative"):
            GridFunction(square_128, np.zeros(square_128.shape), cloud,
                         np.zeros(len(cloud)), lipschitz=lips)
        with pytest.raises(InvalidArgumentError):
            from_expression(square_128, "1", lipschitz=lips)

    def test_expression_trace_from_cloud_points(self, square_128):
        cloud = extract_boundary(square_128)
        u = from_expression(square_128, "x", cloud)
        assert u.trace == pytest.approx(cloud.points[:, 0])

    def test_scale_homogeneity(self, disk_128):
        u = from_expression(disk_128, "1 + x*y")
        lam = 3.7
        scaled = GridFunction(u.domain, lam * u.values, u.cloud, lam * u.trace)
        assert grad_l1(scaled) == pytest.approx(lam * grad_l1(u), rel=1e-12)
        assert lq_norm(scaled, 2.0) == pytest.approx(lam * lq_norm(u, 2.0), rel=1e-12)
        assert grad_l2_squared(scaled) == pytest.approx(
            lam ** 2 * grad_l2_squared(u), rel=1e-12
        )

    def test_serialization_round_trip(self, tmp_path, disk_128):
        u = from_expression(disk_128, "x*x + y*y")
        path = tmp_path / "u.gmtfunc"
        save_function(u, path)
        back = load_function(path)
        assert np.allclose(back.values, u.values)
        assert np.allclose(back.trace, u.trace)
        assert np.array_equal(back.domain.mask, u.domain.mask)

    def test_restrict_samples_box_function(self, disk_128):
        box_u = mollify(indicator_function(disk_128), 8)
        u = restrict_to_domain(box_u, disk_128)
        assert u.trace is not None
        # deep inside, the mollified indicator is exactly one
        inner = interior_region(disk_128, 0.3) & disk_128.mask
        assert np.allclose(u.values[inner], 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# Reference implementations: the dense-lattice, padded-difference and
# full-cloud versions of the shell, TV and truncation code.  The library's
# sparse lattices, sliced TV sums and KD-tree trace queries must reproduce
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
    heights = np.array([u.trace[c.x_index] + eps for c in part.cells])
    out = u.values.copy()
    trace_out = u.trace.copy()
    pts = u.cloud.points
    for cell, height in zip(part.cells, heights):
        diam = 2.0 * cell.rd
        lo, hi = _ref_box(dom, cell.x_c, diam + s)
        lo, hi = np.maximum(lo, 0), np.minimum(hi, np.array(dom.shape))
        window = tuple(slice(a, b) for a, b in zip(lo, hi))
        dist = _ref_distance(dom, cell.x_c, lo, hi)
        ramp = height * np.clip((dist - diam) / s, 0.0, 1.0)
        out[window] = np.minimum(out[window], np.where(dist <= diam + s, ramp, np.inf))
        pd = np.linalg.norm(pts - cell.x_c, axis=1)
        near = pd <= diam + s
        tr = height * np.clip((pd[near] - diam) / s, 0.0, 1.0)
        trace_out[near] = np.minimum(trace_out[near], tr)
    dist_in = ndimage.distance_transform_edt(dom.mask, sampling=dom.spacing)
    out[dom.mask & (dist_in <= 1.5 * dom.spacing)] = 0.0
    out[~dom.mask] = 0.0
    return out, trace_out


def _ref_trace_maps(u, sign):
    cloud = u.cloud
    maps = []
    for axis in range(u.domain.dim):
        sel = (cloud.face_axes == axis) & (cloud.face_signs == sign)
        tmap = np.zeros(u.domain.shape)
        has = np.zeros(u.domain.shape, dtype=bool)
        cells = cloud.face_cells[sel]
        tmap[tuple(cells.T)] = u.trace[sel]
        has[tuple(cells.T)] = True
        maps.append((tmap, has))
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


class TestGradientBitIdentity:
    """The face-table stencil reproduces the full-grid trace-map stencil bit for bit."""

    @pytest.mark.parametrize("name", sorted(_GRADIENT_DOMAINS))
    def test_matches_reference(self, name):
        dom = _GRADIENT_DOMAINS[name]()
        cloud = extract_boundary(dom)
        expr = "x - 0.3*y - 0.1" if dom.dim == 2 else "x*y - z + 0.1"
        # signed values with nonzero traces; the random field's trace jumps
        # away from the cell values, the expression's is exact at the faces
        signed = (from_expression(dom, expr, cloud), random_function(dom, cloud, np.random.default_rng(3)))
        assert all((fn.values < 0).any() and (fn.trace != 0).any() for fn in signed)
        for fn in signed + (indicator_function(dom, cloud),):
            assert np.array_equal(calc._gradient_mag_squared(fn), _ref_gradient_mag_squared(fn))


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

    @pytest.mark.parametrize("block_points", [1, 5000])
    def test_truncate_in_many_blocks(self, case, monkeypatch, block_points):
        dom, u, part, s_values = case
        widest = 1
        for lo, hi in (calc._index_box(dom, c.x_c, 2.0 * c.rd + s_values[-1]) for c in part.cells):
            widest = max(widest, int(np.prod(np.minimum(hi, dom.shape) - np.maximum(lo, 0))))
        assert len(part.cells) > max(1, block_points // widest)  # several blocks
        monkeypatch.setattr(calc, "_BLOCK_POINTS", block_points)
        out = truncate(u, part, eps=0.05, s=s_values[-1])
        ref_values, ref_trace = _ref_truncate(u, part, 0.05, s_values[-1])
        assert np.array_equal(out.values, ref_values)
        assert np.array_equal(out.trace, ref_trace)

    def test_trace_point_on_the_outer_shell_edge(self):
        # one cell whose closed shell ends exactly on a trace point: the
        # KD-tree query must still return it, so its trace is capped
        dom = make_ball((0.0, 0.0), 1.0, 1 / 64)
        u = from_expression(dom, "x + 2")
        pts, i = u.cloud.points, int(np.argmin(u.cloud.points[:, 0]))
        pd = np.linalg.norm(pts - pts[i], axis=1)
        s, eps = 0.1, 0.01
        edge = [j for j in np.argsort(pd) if pd[j] > 0.3 and 2.0 * ((pd[j] - s) / 2.0) + s == pd[j]]
        j = edge[0]
        cell = PartitionCell(np.arange(len(pts)), i, pts[i], (pd[j] - s) / 2.0, 0.0)
        part = Partition([cell], 1.0, u.cloud)
        out = truncate(u, part, eps=eps, s=s)
        ref_values, ref_trace = _ref_truncate(u, part, eps, s)
        assert out.trace[j] < u.trace[j]
        assert np.array_equal(out.trace, ref_trace)
        assert np.array_equal(out.values, ref_values)

    def test_shell_gradient_on_partition_cells(self, case):
        dom, u, part, s_values = case
        for s in s_values:
            for cell in part.cells[:40]:
                args = (cell.x_c, 2.0 * cell.rd, s, u.trace[cell.x_index] + 0.05, dom)
                assert shell_gradient_discrete(*args) == _ref_shell_gradient(*args)

    @pytest.mark.parametrize("block_points", [1, 5000, calc._BLOCK_POINTS])
    def test_stacked_shell_gradients(self, case, monkeypatch, block_points):
        # all shells at once, in blocks, give each shell's mass exactly
        dom, u, part, s_values = case
        monkeypatch.setattr(calc, "_BLOCK_POINTS", block_points)
        centers = np.array([c.x_c for c in part.cells])
        diams = np.array([2.0 * c.rd for c in part.cells])
        heights = np.array([u.trace[c.x_index] + 0.05 for c in part.cells])
        for s in s_values:
            masses = shell_gradient_discrete(centers, diams, s, heights, dom)
            ref = [_ref_shell_gradient(*args, s, ht, dom) for *args, ht in zip(centers, diams, heights)]
            assert np.array_equal(masses, ref)

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

    def test_barrier_values_and_trace(self, case):
        dom, u, _, s_values = case
        x_c, diam, height, sentinel = u.cloud.points[7], 0.08, 0.9, 1.0e6
        for s in s_values:
            psi = barrier(x_c, diam, s, height, dom, cloud=u.cloud)
            dist = _ref_distance(dom, x_c, np.zeros(dom.dim, dtype=int), dom.shape)
            ramp = height * np.clip((dist - diam) / s, 0.0, 1.0)
            ref = np.where(dom.mask, np.where(dist <= diam + s, ramp, sentinel), 0.0)
            assert np.array_equal(psi.values, ref)
            pd = np.linalg.norm(u.cloud.points - x_c, axis=1)
            tramp = height * np.clip((pd - diam) / s, 0.0, 1.0)
            assert np.array_equal(psi.trace, np.where(pd <= diam + s, tramp, sentinel))
