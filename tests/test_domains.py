"""Domain construction, boundary extraction, dilation, JSON specs."""

import math
import tracemalloc

import numpy as np
import pytest

from gmtlab import domains
from gmtlab.domains import (
    BoundaryCloud,
    GridDomain,
    _centers_grid,
    _empty_grid,
    domain_from_spec,
    dilate,
    extract_boundary,
    make_annulus,
    make_ball,
    make_box,
    rasterize_polygon,
    volume,
)
from gmtlab.errors import EmptyDomainError, InvalidArgumentError, SpecError
from gmtlab.expressions import Expression

from conftest import assert_face_table, ref_face_table, shoelace_area


class TestMakeBall:
    def test_disk_volume_matches_pi(self):
        d = make_ball((0.0, 0.0), 1.0, 0.01)
        assert volume(d) == pytest.approx(math.pi, rel=5e-3)

    def test_coarse_spacing_rejected(self):
        with pytest.raises(InvalidArgumentError):
            make_ball((0.0, 0.0), 1.0, 2.0)

    def test_nonpositive_arguments_rejected(self):
        with pytest.raises(InvalidArgumentError):
            make_ball((0.0, 0.0), -1.0, 0.01)
        with pytest.raises(InvalidArgumentError):
            make_ball((0.0, 0.0), 1.0, 0.0)

    def test_ball_3d_volume(self):
        d = make_ball((0.0, 0.0, 0.0), 1.0, 0.02)
        assert volume(d) == pytest.approx(4 * math.pi / 3, rel=5e-3)

    def test_membership_rule_is_strict(self):
        # cell centers exactly at |x| = radius stay outside
        d = make_ball((0.0, 0.0), 1.0, 0.25)
        centers = d.cell_centers()
        assert (np.linalg.norm(centers, axis=1) < 1.0).all()


class TestRasterizePolygon:
    def test_unit_square_area(self):
        d = rasterize_polygon([(0, 0), (1, 0), (1, 1), (0, 1)], 1 / 128)
        assert abs(volume(d) - 1.0) <= 2 / 128

    def test_triangle_area(self):
        d = rasterize_polygon([(0, 0), (1, 0), (0, 1)], 1 / 128)
        assert volume(d) == pytest.approx(0.5, abs=2 / 128)

    def test_lshape_area_against_shoelace(self):
        verts = [(0, 0), (1, 0), (1, 0.5), (0.5, 0.5), (0.5, 1), (0, 1)]
        d = rasterize_polygon(verts, 1 / 128)
        assert volume(d) == pytest.approx(shoelace_area(verts), abs=3 / 128)
        assert shoelace_area(verts) == 0.75

    def test_self_intersecting_rejected(self):
        with pytest.raises(InvalidArgumentError):
            rasterize_polygon([(0, 0), (1, 1), (1, 0), (0, 1)], 0.01)

    def test_degenerate_rejected(self):
        with pytest.raises(InvalidArgumentError):
            rasterize_polygon([(0, 0), (1, 0), (2, 0)], 0.01)

    def test_too_few_vertices_rejected(self):
        with pytest.raises(InvalidArgumentError):
            rasterize_polygon([(0, 0), (1, 0)], 0.01)


class TestExtractBoundary:
    def test_square_total_weight_exact(self):
        d = make_box((0.0, 0.0), (1.0, 1.0), 1 / 64)
        cloud = extract_boundary(d)
        assert cloud.total_weight == pytest.approx(4.0, abs=2 / 64)

    def test_box_weight_is_exact_perimeter(self):
        # box sides (a, b) at a spacing dividing both: exactly 2(a + b)
        d = make_box((0.0, 0.0), (0.5, 0.25), 1 / 64)
        cloud = extract_boundary(d)
        assert cloud.total_weight == pytest.approx(1.5, abs=1e-12)

    def test_disk_weight_is_l1_perimeter(self):
        d = make_ball((0.0, 0.0), 1.0, 1 / 256)
        cloud = extract_boundary(d)
        # staircase boundary of a disk has length 8, not 2 pi
        assert cloud.total_weight == pytest.approx(8.0, rel=2e-2)

    def test_single_cell_four_faces(self):
        mask = np.pad(np.ones((1, 1), dtype=bool), 1)
        d = GridDomain(0.1, np.zeros(2), mask)
        cloud = extract_boundary(d)
        assert len(cloud) == 4
        assert cloud.total_weight == pytest.approx(0.4)

    def test_points_near_mask_transitions(self):
        d = make_ball((0.0, 0.0), 1.0, 1 / 64)
        cloud = extract_boundary(d)
        radii = np.linalg.norm(cloud.points, axis=1)
        assert np.all(np.abs(radii - 1.0) <= d.spacing * math.sqrt(2))

    def test_empty_domain_rejected(self):
        mask = np.zeros((4, 4), dtype=bool)
        d = GridDomain(0.1, np.zeros(2), mask)
        with pytest.raises(EmptyDomainError):
            extract_boundary(d)

    @pytest.mark.parametrize("build, args", [
        (make_ball, ((0.013, -0.21), 0.77, 1 / 200)),
        (make_annulus, ((0.1, -0.2), 1.0, 0.45, 1 / 100)),
        (make_ball, ((0.1, 0.02, -0.3), 0.6, 1 / 40)),
        (make_box, ((0.1, 0.0, -0.2), (1.0, 0.5, 0.7), 1 / 32)),
    ])
    def test_coordinates_are_held_axis_by_axis(self, build, args):
        # one C-contiguous read-only row per axis, with the bits (as
        # integers, so a signed zero counts) of the row-major face-centre
        # formula, and points its transposed view
        dom = build(*args)
        dom = dom.translated([0.37, -1.3, 12.345][:dom.dim])
        cloud = extract_boundary(dom)
        coords = cloud.coords
        assert coords.shape == (dom.dim, len(cloud))
        assert coords.flags.c_contiguous and not coords.flags.writeable
        assert np.shares_memory(coords, cloud.points) and cloud.points.shape == (len(cloud), dom.dim)
        assert not cloud.points.flags.writeable
        ref = _ref_points(dom)
        assert np.array_equal(coords.T.view(np.int64), ref.view(np.int64))


class TestBoundaryCloud:
    @pytest.mark.parametrize("dim, resolution, points, weights", [
        pytest.param(2, 0.1, np.zeros((4, 3)), np.ones(6), id="12_numbers_as_six_2d_points"),
        pytest.param(2, 0.1, [[0.1, 0.2, 0.3]], [1.0], id="3d_point_in_2d"),
        pytest.param(2, 0.1, [0.1, 0.2], [1.0], id="flat_points"),
        pytest.param(2, 0.1, [[0.1, 0.2], [0.3]], [1.0, 1.0], id="ragged_points"),
        pytest.param(2, 0.1, [[0.1, 0.2]], ["a"], id="non_numeric_weight"),
        pytest.param(2, 0.1, [[0.1, np.nan]], [1.0], id="nan_coordinate"),
        pytest.param(2, 0.1, [[np.inf, 0.2]], [1.0], id="inf_coordinate"),
        pytest.param(2, 0.1, [[0.1, 0.2]], [np.nan], id="nan_weight"),
        pytest.param(2, 0.1, [[0.1, 0.2]], [np.inf], id="inf_weight"),
        pytest.param(2, 0.1, [[0.1, 0.2]], [-1.0], id="negative_weight"),
        pytest.param(2, 0.1, [[0.1, 0.2]], [1.0, 1.0], id="extra_weight"),
        pytest.param(2, 0.0, [[0.1, 0.2]], [1.0], id="zero_resolution"),  # hung the covering cascade
        pytest.param(2, -0.1, [[0.1, 0.2]], [1.0], id="negative_resolution"),
        pytest.param(2, np.nan, [[0.1, 0.2]], [1.0], id="nan_resolution"),
        pytest.param(2, np.inf, [[0.1, 0.2]], [1.0], id="inf_resolution"),
        pytest.param(0, 0.1, np.zeros((0, 0)), np.zeros(0), id="zero_dimension"),
    ])
    def test_malformed_cloud_refused(self, dim, resolution, points, weights):
        with pytest.raises(InvalidArgumentError):
            BoundaryCloud(dim, resolution, points, weights)

    def test_extracted_coordinates_are_adopted(self):
        # extract_boundary hands its fresh arrays over; a caller's arrays are copied
        coords, weights = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]), np.ones(3)
        adopted = BoundaryCloud(2, 0.1, coords.T, weights, _adopt=True)
        assert np.shares_memory(adopted.coords, coords) and np.shares_memory(adopted.weights, weights)
        copied = BoundaryCloud(2, 0.1, coords.T, weights)
        assert not (np.shares_memory(copied.coords, coords) or np.shares_memory(copied.weights, weights))
        assert np.array_equal(adopted.coords, copied.coords) and not adopted.coords.flags.writeable

    @pytest.mark.parametrize("points", [np.zeros((0, 2)), []])
    def test_empty_cloud_accepted(self, points):
        cloud = BoundaryCloud(2, 0.1, points, [])
        assert len(cloud) == 0 and cloud.coords.shape == (2, 0) and cloud.points.shape == (0, 2)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_input_is_copied(self, order):
        pts = np.array([[0.1, 0.2], [0.3, 0.4]], order=order)
        cloud = BoundaryCloud(2, 0.1, pts, [1.0, 1.0])
        pts[0, 0] = 9.0
        assert cloud.points[0, 0] == 0.1 and not np.shares_memory(cloud.coords, pts)


class TestDilate:
    def test_zero_dilation_is_identity(self):
        d = make_ball((0.0, 0.0), 0.5, 0.02)
        assert dilate(d, 0.0) is d

    def test_square_dilation_volume(self):
        d = make_box((0.0, 0.0), (1.0, 1.0), 1 / 256)
        grown = dilate(d, 0.1)
        exact = 1.0 + 4 * 0.1 + math.pi * 0.01
        assert volume(grown) == pytest.approx(exact, rel=1e-2)

    def test_disk_dilation_volume(self):
        d = make_ball((0.0, 0.0), 1.0, 0.02)
        grown = dilate(d, 0.5)
        assert volume(grown) == pytest.approx(math.pi * 1.5 ** 2, rel=1.5e-2)

    def test_monotone_in_eps(self):
        d = make_ball((0.0, 0.0), 0.5, 1 / 64)
        vols = [volume(dilate(d, e)) for e in (0.0, 0.05, 0.1, 0.2)]
        assert all(a <= b for a, b in zip(vols, vols[1:]))

    def test_composition_covers_single_dilation(self):
        h = 1 / 64
        d = make_ball((0.0, 0.0), 0.5, h)
        a, b = 8 * h, 6 * h
        once = dilate(d, a + b)
        twice = dilate(dilate(d, a), b)
        # compare on the common physical lattice via cell centers
        centers_once = set(map(tuple, np.round(once.cell_centers() / h - 0.5).astype(int)))
        centers_twice = set(map(tuple, np.round(twice.cell_centers() / h - 0.5).astype(int)))
        assert centers_once <= centers_twice
        l1_perimeter_bound = 8.0 * 1.5
        assert volume(twice) - volume(once) <= 4 * h * l1_perimeter_bound


class TestVolume:
    def test_empty_is_zero(self):
        d = GridDomain(0.1, np.zeros(2), np.zeros((3, 3), dtype=bool))
        assert volume(d) == 0.0

    def test_monotone_under_mask_inclusion(self):
        big = make_ball((0.0, 0.0), 1.0, 1 / 64)
        small = make_ball((0.0, 0.0), 0.6, 1 / 64)
        assert volume(small) <= volume(big)

    def test_refinement_convergence_on_convex_polygons(self):
        # error vs exact area must shrink by < 0.75 per halving
        verts = [(0, 0), (1, 0), (0, 1)]
        exact = 0.5
        errors = []
        for k in (32, 64, 128, 256):
            d = rasterize_polygon(verts, 1 / k)
            errors.append(abs(volume(d) - exact) + 1e-15)
        for e1, e2 in zip(errors, errors[1:]):
            assert e2 < 0.75 * e1


class TestGridSizeGuard:
    def test_limit_is_inclusive_and_counts_in_floats(self):
        side = math.isqrt(domains._MAX_GRID_CELLS)
        assert domains._grid_shape(np.array([side, side], dtype=float)) == (side, side)
        for extent in ([side, side + 1], [np.inf, 1.0], [np.nan, 1.0], [2.0 ** 40] * 2):
            with pytest.raises(InvalidArgumentError, match="exceeds the limit"):
                domains._grid_shape(np.array(extent, dtype=float))

    @pytest.mark.parametrize("build", [
        lambda: make_ball((0.0, 0.0), 1.0, 1e-7),
        lambda: make_ball((0.0, 0.0), 1e300, 1.0),
        lambda: make_box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 1e-3),
        lambda: make_annulus((0.0, 0.0), 1.0, 0.5, 1e-6),
        lambda: rasterize_polygon([(0, 0), (1, 0), (0, 1)], 1e-5),
        lambda: dilate(make_ball((0.0, 0.0), 1.0, 1 / 16), 1e6),
        lambda: dilate(make_ball((0.0, 0.0), 1.0, 1 / 16), 1e300),
    ], ids=["ball_fine", "ball_vast", "box3", "annulus", "polygon", "dilate", "dilate_vast"])
    def test_oversized_grids_are_refused(self, build):
        with pytest.raises(InvalidArgumentError, match="exceeds the limit"):
            build()

    def test_guard_fires_just_past_the_limit(self, monkeypatch):
        dom = make_ball((0.0, 0.0), 1.0, 1 / 16)
        monkeypatch.setattr(domains, "_MAX_GRID_CELLS", dom.mask.size)
        assert make_ball((0.0, 0.0), 1.0, 1 / 16).shape == dom.shape
        with pytest.raises(InvalidArgumentError):
            make_ball((0.0, 0.0), 1.0, 1 / 17)
        with pytest.raises(InvalidArgumentError):
            dilate(dom, 1 / 16)


class TestGridDomainInvariants:
    def test_margin_enforced(self):
        mask = np.ones((4, 4), dtype=bool)
        with pytest.raises(InvalidArgumentError):
            GridDomain(0.1, np.zeros(2), mask)

    def test_mask_is_immutable(self):
        d = make_ball((0.0, 0.0), 0.5, 0.05)
        with pytest.raises(ValueError):
            d.mask[0, 0] = True

    def test_translation_preserves_volume(self):
        d = make_ball((0.0, 0.0), 0.5, 0.05)
        t = d.translated((0.05 * 3, -0.05 * 2))
        assert volume(t) == volume(d)


class TestDomainSpecs:
    def test_ball_spec(self):
        d = domain_from_spec({"kind": "ball", "params": {"r": 1}, "h": 0.01})
        assert volume(d) == pytest.approx(math.pi, rel=5e-3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecError):
            domain_from_spec({"kind": "torus", "params": {}, "h": 0.01})

    def test_unknown_key_rejected(self):
        with pytest.raises(SpecError):
            domain_from_spec({"kind": "ball", "params": {"r": 1}, "h": 0.01, "color": "red"})

    def test_unknown_param_rejected(self):
        with pytest.raises(SpecError):
            domain_from_spec({"kind": "ball", "params": {"r": 1, "q": 2}, "h": 0.01})

    def test_annulus_spec_volume(self):
        d = domain_from_spec(
            {"kind": "annulus", "params": {"r_outer": 1.0, "r_inner": 0.5}, "h": 1 / 128}
        )
        assert volume(d) == pytest.approx(math.pi * (1 - 0.25), rel=1e-2)

    def test_annulus_boundary_components(self):
        d = make_annulus((0.0, 0.0), 1.0, 0.5, 1 / 64)
        cloud = extract_boundary(d)
        radii = np.linalg.norm(cloud.points, axis=1)
        assert (radii > 0.8).any() and (radii < 0.7).any()


# ---------------------------------------------------------------------------
# sparse-lattice rasterizers and slice-based extraction against the dense
# meshgrid and np.roll/argwhere paths they replaced


def _ref_grids(low, high, h):
    origin, shape = _empty_grid(low, high, h)
    axes = [origin[a] + (np.arange(shape[a]) + 0.5) * h for a in range(len(shape))]
    return origin, np.meshgrid(*axes, indexing="ij")


def _ref_ball(center, radius, h):
    center = np.asarray(center, dtype=float)
    origin, grids = _ref_grids(center - radius, center + radius, h)
    dist2 = sum((g - c) ** 2 for g, c in zip(grids, center))
    return origin, dist2 < radius ** 2


def _ref_box(corner, sides, h):
    corner, sides = np.asarray(corner, dtype=float), np.asarray(sides, dtype=float)
    origin, grids = _ref_grids(corner, corner + sides, h)
    mask = np.ones(grids[0].shape, dtype=bool)
    for g, lo, side in zip(grids, corner, sides):
        mask &= (g > lo) & (g < lo + side)
    return origin, mask


def _ref_annulus(center, r_outer, r_inner, h):
    center = np.asarray(center, dtype=float)
    origin, grids = _ref_grids(center - r_outer, center + r_outer, h)
    dist2 = sum((g - c) ** 2 for g, c in zip(grids, center))
    return origin, (dist2 < r_outer ** 2) & (dist2 >= r_inner ** 2)


def _ref_points(domain):
    """The face centres, in cloud order, from the face table of rolled masks."""
    h = domain.spacing
    points = []
    for (axis, sign), (_, flat) in ref_face_table(domain).items():
        pts = domain.origin + (np.column_stack(np.unravel_index(flat, domain.shape)) + 0.5) * h
        pts[:, axis] += sign * h / 2.0
        points.append(pts)
    return np.concatenate(points)


# name -> (builder, its reference, arguments)
_RASTER_CASES = {
    "disk": (make_ball, _ref_ball, ((0.0, 0.0), 1.0, 1 / 128)),
    "disk_off": (make_ball, _ref_ball, ((0.013, -0.21), 0.77, 1 / 200)),
    "ball3": (make_ball, _ref_ball, ((0.0, 0.0, 0.0), 1.0, 1 / 32)),
    "ball3_off": (make_ball, _ref_ball, ((0.1, 0.02, -0.3), 0.6, 1 / 40)),
    "box": (make_box, _ref_box, ((0.0, 0.0), (1.0, 0.6), 1 / 128)),
    "box_off": (make_box, _ref_box, ((-0.33, 0.07), (0.5, 1.3), 1 / 90)),
    "box3": (make_box, _ref_box, ((0.1, 0.0, -0.2), (1.0, 0.5, 0.7), 1 / 32)),
    "annulus": (make_annulus, _ref_annulus, ((0.0, 0.0), 1.0, 0.5, 1 / 128)),
    "annulus_off": (make_annulus, _ref_annulus, ((0.1, -0.2), 1.0, 0.45, 1 / 100)),
    "annulus3": (make_annulus, _ref_annulus, ((0.05, 0.0, -0.1), 1.0, 0.5, 1 / 24)),
    # four cell centres lie exactly on the closed inner rim
    "annulus_rim": (make_annulus, _ref_annulus, ((0.0, 0.0), 1.0625, 0.5, 1 / 8)),
}

_CLOUD_CASES = {
    **{name: (lambda b=build, a=args: b(*a)) for name, (build, _, args) in _RASTER_CASES.items()},
    "lshape": lambda: rasterize_polygon(
        [(0, 0), (1, 0), (1, 0.5), (0.5, 0.5), (0.5, 1), (0, 1)], 1 / 100),
    "triangle": lambda: rasterize_polygon([(0, 0), (1, 0.2), (0.3, 0.9)], 1 / 77),
    "single_cell": lambda: GridDomain(0.1, np.zeros(2), np.pad(np.ones((1, 1), dtype=bool), 1)),
    "single_cell3": lambda: GridDomain(0.1, np.ones(3), np.pad(np.ones((1, 1, 1), dtype=bool), 1)),
}


def _same(got, ref):
    return got.dtype == ref.dtype and got.shape == ref.shape and np.array_equal(got, ref)


class TestBitIdentityWithReferences:
    @pytest.mark.parametrize("name", sorted(_RASTER_CASES))
    def test_masks(self, name):
        build, ref, args = _RASTER_CASES[name]
        dom = build(*args)
        origin, mask = ref(*args)
        assert _same(dom.mask, mask)
        assert _same(dom.origin, origin)

    @pytest.mark.parametrize("block", [1, 1000, 1 << 40])
    @pytest.mark.parametrize("name", ["disk_off", "ball3_off", "annulus_off", "annulus3", "annulus_rim"])
    def test_radial_masks_in_row_blocks(self, monkeypatch, name, block):
        # row slabs of one row, of a few rows and of the whole grid give the reference's bits
        monkeypatch.setattr(domains, "_SLAB_CELLS", block)
        build, ref, args = _RASTER_CASES[name]
        assert _same(build(*args).mask, ref(*args)[1])

    @pytest.mark.parametrize("h", [1 / 128, 1 / 90, 0.0123])
    def test_lattice_coordinates(self, h):
        origin, shape = np.array([-0.37, 0.21, 1.3]), (7, 5, 6)
        axes = [origin[a] + (np.arange(shape[a]) + 0.5) * h for a in range(3)]
        for got, ref in zip(_centers_grid(origin, shape, h), np.meshgrid(*axes, indexing="ij")):
            assert _same(np.broadcast_to(got, shape), ref)

    @pytest.mark.parametrize("name", sorted(_CLOUD_CASES) + ["random2", "random3"])
    def test_cell_centers(self, name):
        # the lattice gather against argwhere's index arithmetic, bit for bit
        # (as integers, so a signed zero counts), and so the expressions too
        if name.startswith("random"):
            n = int(name[-1])
            shape = (23, 17) if n == 2 else (9, 11, 7)
            mask = np.pad(np.random.default_rng(n).random(shape) < 0.6, 1)
            dom = GridDomain(0.1 if n == 2 else 1 / 3, np.array([0.37, -1.3, -1 / 6][:n]), mask)
        else:
            dom = _CLOUD_CASES[name]()
        got = dom.cell_centers()
        ref = dom.origin + (np.argwhere(dom.mask) + 0.5) * dom.spacing
        assert got.flags.f_contiguous and _same(got, ref)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        texts = ["x*x + y*y", "max(0, 1 - r*r)", "exp(x) - y / 3"] + (["x*y*z - r"] if dom.dim == 3 else [])
        for text in texts:
            expr = Expression(text)
            assert np.array_equal(expr(got.T).view(np.int64), expr(ref.T).view(np.int64))

    @pytest.mark.parametrize("name", sorted(_CLOUD_CASES))
    def test_boundary_cloud(self, name):
        dom = _CLOUD_CASES[name]()
        cloud = extract_boundary(dom)
        assert _same(cloud.points, _ref_points(dom))
        assert_face_table(cloud, dom)
        assert cloud.faces.mask is dom.mask and cloud.faces.origin is dom.origin


def _build_and_extract_peak(build, *args):
    """(domain, tracemalloc peak of building it and extracting its boundary)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        dom = build(*args)
        extract_boundary(dom)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return dom, peak


class TestMemory:
    # the dense meshgrid path peaked at 32 mask sizes on the disk, a
    # whole-grid float distance array at 10; row blocks keep it near 2
    def test_disk_build_and_extract_peak(self):
        dom, peak = _build_and_extract_peak(make_ball, (0.0, 0.0), 1.0, 1 / 1024)
        assert peak < 4 * dom.mask.nbytes

    def test_annulus_build_and_extract_peak(self):
        dom, peak = _build_and_extract_peak(make_annulus, (0.0, 0.0), 1.0, 0.5, 1 / 1024)
        assert peak < 4 * dom.mask.nbytes
