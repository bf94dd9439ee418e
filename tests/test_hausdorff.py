"""Covering sums, the boundary-measure estimator, and measured partitions."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from gmtlab import calculus, hausdorff, inequalities
from gmtlab.calculus import from_expression
from gmtlab.domains import BoundaryCloud, extract_boundary, make_annulus, make_ball, make_box
from gmtlab.errors import EmptyCloudError, InvalidArgumentError, ResolutionError
from gmtlab.hausdorff import (
    Partition,
    _ball_groups,
    _box_groups,
    _cloud_nn,
    _diameters,
    _fps_centers,
    build_partition,
    estimate_hm,
    estimate_hm_detail,
    partition_defect,
    partition_to_json,
    unit_ball_volume,
)

from conftest import circle_cloud, ellipse_cloud, segment_cloud


class TestUnitBallVolume:
    def test_dimension_zero(self):
        assert unit_ball_volume(0) == 1.0

    def test_low_dimensions_match_gamma_oracle(self):
        # oracle: pi^(d/2) / Gamma(d/2 + 1) evaluated independently
        for d, exact in [(1, 2.0), (2, math.pi), (3, 4 * math.pi / 3), (4, math.pi ** 2 / 2)]:
            oracle = math.pi ** (d / 2) / math.gamma(d / 2 + 1)
            assert oracle == pytest.approx(exact, rel=1e-14)
            assert unit_ball_volume(d) == pytest.approx(oracle, rel=1e-14)

    def test_fractional_dimension_allowed(self):
        assert unit_ball_volume(1.5) == pytest.approx(
            math.pi ** 0.75 / math.gamma(1.75), rel=1e-14
        )

    def test_negative_rejected(self):
        with pytest.raises(InvalidArgumentError):
            unit_ball_volume(-0.1)

    def test_closed_form_kept_where_finite(self):
        for d in [k / 4 for k in range(4 * 341 + 1)]:
            assert unit_ball_volume(d) == math.pi ** (d / 2) / math.gamma(d / 2 + 1)
        with pytest.raises(OverflowError):
            math.gamma(343 / 2 + 1)

    def test_recursion_holds_past_the_closed_form(self):
        # omega_d = 2 pi / d * omega_{d-2}, across the switch to logarithms
        for d in (341.5, 342.0, 343.0, 400.0, 420.0):
            assert unit_ball_volume(d) == pytest.approx(2 * math.pi / d * unit_ball_volume(d - 2), rel=1e-12)
            assert 0 < unit_ball_volume(d) < unit_ball_volume(d - 2)

    @pytest.mark.parametrize("d", [1300.0, 1e5, 1e200, 1e308, 1.7976931348623157e308])
    def test_huge_dimensions_give_zero(self, d):
        assert unit_ball_volume(d) == 0.0


class TestCoverSum:
    def test_two_unit_diameter_cells_d1(self):
        assert hausdorff._sum_rd(np.array([0.5, 0.5]), 1.0) == pytest.approx(2.0)

    def test_d0_counts_cells(self):
        assert hausdorff._sum_rd(np.array([0.7]), 0.0) == pytest.approx(1.0)
        assert hausdorff._sum_rd(np.array([0.0]), 0.0) == pytest.approx(1.0)  # 0^0 counts as 1

    def test_d2_single_cell(self):
        assert hausdorff._sum_rd(np.array([1.0]), 2.0) == pytest.approx(math.pi)

    def test_empty_covering(self):
        assert hausdorff._sum_rd(np.array([]), 1.0) == 0.0

    @pytest.mark.parametrize("d", [1.0, 1.5, 2.0, 2.5])
    def test_each_power_is_c_pow(self, d):
        # Python's ** on one float is C pow; np.power may take a vectorized
        # pow with other last bits on some hosts.  Zeros pad each radius to
        # a vector-sized array whose sum is that one power exactly.
        for r in np.random.default_rng(5).uniform(0.0, 0.1, 256).tolist():
            rds = np.zeros(16)
            rds[3] = r
            assert hausdorff._sum_rd(rds, d) == unit_ball_volume(d) * r ** d


def _fps_reference(points, threshold, limit=None):
    """Greedy farthest-point sampling with a full distance update per center."""
    order = np.lexsort(points.T[::-1])
    start = int(order[0])
    centers = [start]
    dist = np.linalg.norm(points - points[start], axis=1)
    while dist.max() > threshold:
        if limit is not None and len(centers) >= limit:
            return None
        nxt = int(np.argmax(dist))
        centers.append(nxt)
        dist = np.minimum(dist, np.linalg.norm(points - points[nxt], axis=1))
    return np.asarray(centers, dtype=np.int64)


@pytest.fixture(scope="module")
def fps_clouds():
    return {
        "disk": extract_boundary(make_ball((0.0, 0.0), 1.0, 1 / 128)),
        "annulus": extract_boundary(make_annulus((0.1, -0.2), 1.0, 0.45, 1 / 128)),
        "ball3": extract_boundary(make_ball((0.0, 0.0, 0.0), 1.0, 1 / 16)),
    }


def _layouts(cloud):
    """The cloud's points as its own view of the per-axis ``coords`` and as
    a C-ordered (N, n) copy: the kernels must give the same bits on both."""
    return cloud.points, np.ascontiguousarray(cloud.points)


class TestFpsCenters:
    @pytest.mark.parametrize("name", ["disk", "annulus", "ball3"])
    @pytest.mark.parametrize("k", [2.0, 8.0, 20.0, 64.0])
    def test_matches_full_update_reference(self, fps_clouds, name, k):
        cloud = fps_clouds[name]
        threshold = k * cloud.resolution
        expected = _fps_reference(np.ascontiguousarray(cloud.points), threshold)
        for points in _layouts(cloud):
            got, counts, _ = _fps_centers(points, [threshold])
            assert counts == [len(expected)]
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)

    def test_limit_returns_none(self, fps_clouds, monkeypatch):
        cloud = fps_clouds["disk"]
        threshold = 4 * cloud.resolution
        n_centers = len(_fps_reference(cloud.points, threshold))
        assert _fps_reference(cloud.points, threshold, limit=n_centers - 1) is None
        monkeypatch.setattr(hausdorff, "_MAX_FPS_CENTERS", n_centers - 1)
        assert _fps_centers(cloud.points, [threshold])[1] == [None]
        monkeypatch.setattr(hausdorff, "_MAX_FPS_CENTERS", n_centers)
        np.testing.assert_array_equal(
            _fps_centers(cloud.points, [threshold])[0],
            _fps_reference(cloud.points, threshold),
        )


def _box_groups_reference(points, side):
    """Row-sorted grouping of the integer box coordinates."""
    anchor = points.min(axis=0)
    idx = np.floor((points - anchor) / side).astype(np.int64)
    uniq, inverse = np.unique(idx, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    return [np.flatnonzero(inverse == g) for g in range(len(uniq))]


def _segments(order, bounds):
    """The cells ``order[bounds[g]:bounds[g + 1]]`` as a list of arrays."""
    return [order[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


class TestBoxGroups:
    @pytest.mark.parametrize("name", ["disk", "annulus", "ball3"])
    @pytest.mark.parametrize("k", [1.5, 6.0, 20.0])
    def test_matches_row_sorted_grouping(self, fps_clouds, name, k):
        cloud = fps_clouds[name]
        side = k * cloud.resolution
        ref_groups = _box_groups_reference(np.ascontiguousarray(cloud.points), side)
        for points in _layouts(cloud):
            groups = _segments(*_box_groups(points, side))
            assert len(groups) == len(ref_groups) > 1
            for got, ref in zip(groups, ref_groups):
                np.testing.assert_array_equal(got, ref)


class TestBallCovering:
    def test_cells_are_owner_groups_in_ascending_order(self):
        cloud = ellipse_cloud(1.3, 0.7, 1 / 256)
        centers, _, (cut,) = _fps_centers(cloud.points, [0.05])
        cells = _segments(*_ball_groups(cloud.points, centers, *cut))
        _, owner = cKDTree(cloud.points[centers]).query(cloud.points)
        expected = [np.flatnonzero(owner == ci) for ci in range(len(centers))]
        expected = [m for m in expected if len(m) > 0]
        assert len(cells) == len(expected)
        for members, ref in zip(cells, expected):
            np.testing.assert_array_equal(members, ref)

    def test_center_owning_no_point_is_skipped(self):
        # two coincident centers tie on points 0 and 1: the nearest-center
        # query gives both to one of them, so the other owns nothing and
        # yields no cell
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        centers = np.array([0, 1, 2], dtype=np.int64)
        cells = _segments(*_ball_groups(pts, centers, np.array([0, 0, 2]), np.array([0, 1])))
        assert [list(m) for m in cells] == [[0, 1], [2]]


def _cdist_diameter(pts):
    """Oracle: one cell's diameter from scipy's full table of squared distances."""
    return math.sqrt(float(cdist(pts, pts, "sqeuclidean").max()))


class TestDiameter:
    def test_matches_brute_force_across_blocks(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(2500, 3))
        assert len(pts) ** 2 > hausdorff._PAIR_BLOCK  # the cell is taken in blocks of rows
        brute = max(math.sqrt(float(np.max(np.sum((pts - p) ** 2, axis=1)))) for p in pts)
        assert _diameters(pts[None])[0] == pytest.approx(brute, rel=1e-12)

    def test_far_pair_both_in_second_block(self):
        pts = np.zeros((2100, 2))
        pts[:, 0] = np.linspace(0.0, 1.0, 2100)
        rows = hausdorff._PAIR_BLOCK // len(pts)  # rows per block of this cell
        pts[rows + 5] = [0.5, 3.0]
        pts[2 * rows - 5] = [0.5, -3.0]
        assert _diameters(pts[None]).tolist() == [6.0]

    def test_single_point_is_zero(self):
        assert _diameters(np.array([[[0.3, 0.4, 0.5]]])).tolist() == [0.0]

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m", [1, 2, 5, 64, 65, 511, 513, 2500])
    def test_bits_match_cdist(self, n, m):
        rng = np.random.default_rng(m * n)
        cells = rng.normal(size=(3 if m < 600 else 1, m, n)) * rng.uniform(0.01, 10.0)
        assert _diameters(cells).tolist() == [_cdist_diameter(c) for c in cells]

    @pytest.mark.parametrize("pair_block", [1, 7, 64, 100])
    def test_bits_match_cdist_for_any_block(self, monkeypatch, pair_block):
        monkeypatch.setattr(hausdorff, "_PAIR_BLOCK", pair_block)
        cells = np.random.default_rng(pair_block).uniform(-1.0, 1.0, size=(5, 13, 3))
        assert _diameters(cells).tolist() == [_cdist_diameter(c) for c in cells]


class TestEstimateHm:
    def test_unit_segment_length(self):
        cloud = segment_cloud(1.0, 1 / 512)
        assert estimate_hm(cloud, 1.0, 0.05) == pytest.approx(1.0, rel=0.03)

    def test_unit_circle_circumference(self):
        cloud = circle_cloud(1.0, 1 / 512)
        assert estimate_hm(cloud, 1.0, 0.05) == pytest.approx(2 * math.pi, rel=0.03)

    def test_single_point_cloud_is_zero(self):
        cloud = BoundaryCloud(dim=2, resolution=0.01, points=[[0.3, 0.4]], weights=[0.01])
        assert estimate_hm(cloud, 1.0, 1.0) == 0.0

    def test_non_increasing_in_delta(self):
        cloud = circle_cloud(1.0, 1 / 512)
        vals = [estimate_hm(cloud, 1.0, d) for d in (0.4, 0.2, 0.1, 0.05)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_delta_below_resolution_rejected(self):
        cloud = circle_cloud(1.0, 1 / 64)
        with pytest.raises(ResolutionError):
            estimate_hm(cloud, 1.0, 1 / 64)

    def test_empty_cloud_is_zero(self):
        cloud = BoundaryCloud(dim=2, resolution=0.01,
                              points=np.zeros((0, 2)), weights=np.zeros(0))
        assert estimate_hm(cloud, 1.0, 1.0) == 0.0

    @pytest.mark.parametrize("d, delta", [(1.0, math.inf), (1.0, -math.inf), (1.0, math.nan),
                                          (math.inf, 0.1), (math.nan, 0.1)])
    def test_non_finite_arguments_rejected(self, d, delta):
        cloud = circle_cloud(1.0, 1 / 64)
        with pytest.raises(InvalidArgumentError, match="finite"):
            estimate_hm_detail(cloud, d, delta)
        with pytest.raises(InvalidArgumentError, match="finite"):
            build_partition(cloud, d, delta)


class TestBuildPartition:
    def test_structure_on_square_boundary(self):
        # synthetic square boundary: four segments
        pieces = []
        sp = 1 / 256
        n = 256
        x = (np.arange(n) + 0.5) * sp
        pieces.append(np.stack([x, np.zeros(n)], axis=1))
        pieces.append(np.stack([x, np.ones(n)], axis=1))
        pieces.append(np.stack([np.zeros(n), x], axis=1))
        pieces.append(np.stack([np.ones(n), x], axis=1))
        pts = np.concatenate(pieces)
        cloud = BoundaryCloud(dim=2, resolution=sp, points=pts,
                              weights=np.full(4 * n, sp))
        part = build_partition(cloud, 1.0, 0.25)
        # disjoint, union, nonempty are asserted in the constructor; check rd
        assert (part.rd <= 0.125 + 2 * sp).all()
        assert part.rd_max <= 0.25
        assert len(part.order) == part.bounds[-1] == len(cloud)

    def test_straight_segment_zero_defect(self):
        cloud = segment_cloud(1.0, 1 / 512)
        part = build_partition(cloud, 1.0, 0.25)
        # straight pieces: compensated diameter equals the owned length
        assert partition_defect(part, 1.0) <= 2 * cloud.resolution * len(part)
        assert partition_defect(part, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_circle_defect_small_at_tenth(self):
        cloud = circle_cloud(1.0, 1 / 512)
        part = build_partition(cloud, 1.0, 0.1)
        assert partition_defect(part, 1.0) < 0.05 * 2 * math.pi

    def test_representative_is_member(self):
        cloud = circle_cloud(1.0, 1 / 128)
        part = build_partition(cloud, 1.0, 0.2)
        for g, x_index in enumerate(part.x_index):
            assert x_index in part.order[part.bounds[g] : part.bounds[g + 1]]
        assert np.array_equal(part.x_c, cloud.points[part.x_index])

    def test_measure_preserved(self):
        cloud = ellipse_cloud(1.3, 0.7, 1 / 256)
        part = build_partition(cloud, 1.0, 0.2)
        total = sum(part.hm_est.tolist())
        assert total == pytest.approx(cloud.total_weight, rel=1e-12)

    def test_empty_cloud_rejected(self):
        cloud = BoundaryCloud(dim=2, resolution=0.01,
                              points=np.zeros((0, 2)), weights=np.zeros(0))
        with pytest.raises(EmptyCloudError):
            build_partition(cloud, 1.0, 0.25)

    def test_coarse_delta_rejected(self):
        cloud = circle_cloud(1.0, 1 / 64)
        with pytest.raises(ResolutionError):
            build_partition(cloud, 1.0, 3 / 64)


class TestPartitionInvariants:
    @staticmethod
    def _partition(cells, cloud, rds=None, n_column=None):
        """A partition of the given member lists, its columns of ``n_column`` entries.

        Each cell's representative is its first member (0 for an empty cell
        and for entries past the last cell); the default rd of 0.2 puts every
        cell of the 1/4-spaced segment in its ball B(x_C, 2 rd).
        """
        n_column = len(cells) if n_column is None else n_column
        order = np.array([m for cell in cells for m in cell], dtype=np.intp)
        bounds = np.cumsum([0] + [len(cell) for cell in cells])
        firsts = [cell[0] if cell else 0 for cell in cells[:n_column]]
        x_index = np.array(firsts + [0] * (n_column - len(firsts)), dtype=np.intp)
        rds = np.full(n_column, 0.2) if rds is None else np.asarray(rds)
        return Partition(order, bounds, x_index, rds, np.zeros(n_column), 0.5, cloud)

    @pytest.fixture
    def cloud(self):
        return segment_cloud(1.0, 1 / 4)

    def test_valid_partition_accepted(self, cloud):
        assert len(self._partition([[0, 1], [2, 3]], cloud)) == 2

    def test_no_cells_rejected(self, cloud):
        with pytest.raises(InvalidArgumentError, match="no cells"):
            self._partition([], cloud)

    def test_empty_cell_rejected(self, cloud):
        with pytest.raises(InvalidArgumentError, match="empty cell"):
            self._partition([[0, 1, 2, 3], []], cloud)

    def test_overlap_rejected(self, cloud):
        with pytest.raises(InvalidArgumentError, match="overlap"):
            self._partition([[0, 1, 2], [2, 3]], cloud)

    def test_uncovered_point_rejected(self, cloud):
        with pytest.raises(InvalidArgumentError, match="cover"):
            self._partition([[0, 1], [3]], cloud)

    def test_order_entry_outside_every_cell_rejected(self, cloud):
        with pytest.raises(InvalidArgumentError, match="cover"):
            Partition(np.arange(4), np.array([0, 2]), np.zeros(1, dtype=np.intp), np.full(1, 0.01),
                      np.zeros(1), 0.5, cloud)

    def test_rd_above_delta_rejected(self, cloud):
        with pytest.raises(InvalidArgumentError, match="rd exceeds delta"):
            self._partition([[0, 1], [2, 3]], cloud, rds=[0.01, 0.6])

    def test_member_beyond_2_rd_rejected(self, cloud):
        # point 3 sits 0.25 from the second cell's representative, point 2
        with pytest.raises(InvalidArgumentError, match="beyond 2 rd"):
            self._partition([[0, 1], [2, 3]], cloud, rds=[0.2, 0.12])
        assert len(self._partition([[0, 1], [2, 3]], cloud, rds=[0.2, 0.125])) == 2

    @pytest.mark.parametrize("n_column", [1, 3])
    def test_column_length_mismatch_rejected(self, cloud, n_column):
        with pytest.raises(InvalidArgumentError, match="one entry per cell"):
            self._partition([[0, 1], [2, 3]], cloud, n_column=n_column)

    def test_representative_outside_its_cell_rejected(self, cloud):
        # both cells name point 0, which belongs to the first cell only
        with pytest.raises(InvalidArgumentError, match="representative"):
            Partition(np.arange(4), np.array([0, 2, 4]), np.array([0, 0]), np.full(2, 0.01),
                      np.zeros(2), 0.5, cloud)

    @pytest.mark.parametrize("x_index", [[1, 4], [-1, 2], [0.0, 2.0]])
    def test_representative_not_a_point_index_rejected(self, cloud, x_index):
        with pytest.raises(InvalidArgumentError, match="representative"):
            Partition(np.arange(4), np.array([0, 2, 4]), np.array(x_index), np.full(2, 0.01),
                      np.zeros(2), 0.5, cloud)


class TestPartitionDefect:
    def test_circle_defect_shrinks_with_delta(self):
        cloud = circle_cloud(1.0, 1 / 512)
        d_coarse = partition_defect(build_partition(cloud, 1.0, 0.2), 1.0)
        d_fine = partition_defect(build_partition(cloud, 1.0, 0.05), 1.0)
        assert d_fine < d_coarse

    @pytest.mark.parametrize("cloud_fn", [circle_cloud, lambda: ellipse_cloud(1.3, 0.7, 1 / 512)])
    def test_defect_halving_rate(self, cloud_fn):
        cloud = cloud_fn()
        deltas = [0.4, 0.2, 0.1, 0.05]
        defects = [partition_defect(build_partition(cloud, 1.0, d), 1.0) for d in deltas]
        for coarse, fine in zip(defects, defects[1:]):
            assert fine <= 0.75 * coarse

    def test_single_cell_circle(self):
        # one cell holding the whole circle: measure 2 pi, diameter 2
        cloud = circle_cloud(1.0, 1 / 512)
        part = build_partition(cloud, 1.0, 8.0)
        assert len(part) == 1
        expected = abs(2 * math.pi - 2.0 * part.rd[0])
        assert part.rd[0] == pytest.approx(1.0, rel=2e-3)
        assert partition_defect(part, 1.0) == pytest.approx(expected, rel=1e-12)
        assert partition_defect(part, 1.0) == pytest.approx(2 * math.pi - 2.0, rel=5e-3)


class TestPartitionExport:
    def test_json_fields(self):
        cloud = circle_cloud(1.0, 1 / 128)
        part = build_partition(cloud, 1.0, 0.2)
        data = json.loads(partition_to_json(part))
        assert data["n_cells"] == len(part)
        assert data["total_measure"] == pytest.approx(cloud.total_weight)
        cell = data["cells"][0]
        assert set(cell) == {"x_c", "rd", "hm_est", "members"}


# ---------------------------------------------------------------------------
# the segmented rd pass against the per-cell path it replaced


def _ref_sample_rd(pts, nn_gaps, resolution, scale):
    """One cell's compensated half-diameter, computed on its own."""
    diam = _cdist_diameter(pts)
    comp = min(float(np.mean(nn_gaps)), 2.0 * math.sqrt(pts.shape[1]) * resolution)
    return min(0.5 * (diam + comp), scale)


def _ref_cover_sum(cells, d, n_points):
    """omega_d * sum(rd ** d) over (rd, members) cells that cover all n_points."""
    covered = np.zeros(n_points, dtype=bool)
    for rd, members in cells:
        assert rd >= 0
        covered[members] = True
    assert covered.all(), "every point is covered"
    return hausdorff._sum_rd(np.array([rd for rd, _ in cells], dtype=float), d)


def _ref_estimate(cloud, d, delta):
    """The per-cell estimator: one (rd, members) pair per cell, one cell list per candidate."""
    pts = cloud.points
    nn_gaps = _cloud_nn(cloud)
    best = None
    scale = delta
    while True:
        groups = _box_groups_reference(pts, scale / math.sqrt(cloud.dim))
        cells = [(_ref_sample_rd(pts[m], nn_gaps[m], cloud.resolution, scale), m) for m in groups]
        coverings = [("boxes", cells)]
        fps = _fps_reference(pts, scale, limit=hausdorff._MAX_FPS_CENTERS)
        if fps is not None:
            _, owner = cKDTree(pts[fps]).query(pts)
            cells = []
            for ci in range(len(fps)):
                m = np.flatnonzero(owner == ci)
                if len(m):
                    cells.append((_ref_sample_rd(pts[m], nn_gaps[m], cloud.resolution, scale), m))
            coverings.append(("balls", cells))
        for kind, cells in coverings:
            value = _ref_cover_sum(cells, d, len(pts))
            if best is None or value < best[0]:
                best = (value, f"{kind}@{scale:g}", len(cells))
        scale /= 2.0
        if scale < 8.0 * cloud.resolution:
            return best


def _ref_partition_cells(cloud, delta):
    """(rd, x_index, hm_est, members) of each box cell, computed cell by cell."""
    nn_gaps = _cloud_nn(cloud)
    order, bounds = _box_groups(cloud.points, delta / math.sqrt(cloud.dim))
    out = []
    for members in _segments(order, bounds):
        pts = cloud.points[members]
        rd = _ref_sample_rd(pts, nn_gaps[members], cloud.resolution, delta)
        dist = np.linalg.norm(pts - pts.mean(axis=0), axis=1)
        cand = np.flatnonzero(dist == dist.min())
        if len(cand) > 1:
            cand = cand[np.lexsort(pts[cand].T[::-1])[:1]]
        out.append((rd, int(members[int(cand[0])]), float(np.sum(cloud.weights[members])),
                    members.tolist()))
    return out


def _partition_cells(part):
    """(rd, x_index, hm_est, members) of each cell of a partition, read from its columns."""
    return [(part.rd[g].item(), part.x_index[g].item(), part.hm_est[g].item(),
             part.order[part.bounds[g] : part.bounds[g + 1]].tolist()) for g in range(len(part))]


def _scattered_cloud():
    # samples far apart against the resolution: most cells are singletons
    pts = np.random.default_rng(3).uniform(0.0, 4.0, size=(300, 2))
    return BoundaryCloud(dim=2, resolution=0.002, points=pts, weights=np.full(300, 0.002))


def _doubled_cloud():
    # every sample twice: all nearest-neighbour gaps are 0
    base = circle_cloud(1.0, 1 / 128)
    pts = np.concatenate([base.points, base.points])
    return BoundaryCloud(dim=2, resolution=base.resolution, points=pts,
                         weights=np.concatenate([base.weights, base.weights]) / 2)


def _weighted_cloud():
    # unequal weights: a cell's measure then depends on its summation order
    base = extract_boundary(make_ball((0.0, 0.0), 1.0, 1 / 128))
    weights = base.weights * np.random.default_rng(7).uniform(0.5, 1.5, len(base))
    return BoundaryCloud(dim=2, resolution=base.resolution, points=base.points, weights=weights)


# name -> (cloud factory, d, delta ladder)
_RD_CASES = {
    "disk": (lambda: extract_boundary(make_ball((0.0, 0.0), 1.0, 1 / 256)), 1.0,
             (0.4, 0.2, 0.1, 0.05)),
    "disk_off_fractional_d": (lambda: extract_boundary(make_ball((0.013, -0.21), 0.77, 1 / 200)),
                              1.5, (0.3, 0.1)),
    "annulus": (lambda: extract_boundary(make_annulus((0.1, -0.2), 1.0, 0.45, 1 / 128)), 1.0,
                (0.4, 0.1)),
    "ball3": (lambda: extract_boundary(make_ball((0.0, 0.0, 0.0), 1.0, 1 / 24)), 2.0,
              (0.6, 0.35)),
    "ball3_off": (lambda: extract_boundary(make_ball((0.1, 0.02, -0.3), 0.6, 1 / 40)), 2.0,
                  (0.4,)),
    "scattered": (_scattered_cloud, 1.0, (0.3, 0.05)),
    "doubled": (_doubled_cloud, 1.0, (0.5, 0.1)),
    "circle": (lambda: circle_cloud(1.0, 1 / 512), 1.0, (0.4, 0.05)),
    "weighted": (_weighted_cloud, 1.0, (0.4, 0.05)),
}


class TestSegmentedRdBitIdentity:
    @pytest.fixture(scope="class", params=sorted(_RD_CASES))
    def case(self, request):
        make, d, deltas = _RD_CASES[request.param]
        return request.param, make(), d, deltas

    @pytest.mark.parametrize("pair_block", [64, hausdorff._PAIR_BLOCK])
    def test_estimate_matches_per_cell_path(self, case, monkeypatch, pair_block):
        _, cloud, d, deltas = case
        monkeypatch.setattr(hausdorff, "_PAIR_BLOCK", pair_block)
        for delta in deltas:
            est = estimate_hm_detail(cloud, d, delta)
            assert (est.value, est.method, est.n_cells) == _ref_estimate(cloud, d, delta)

    def test_ladders_reach_every_cell_size_path(self):
        # at a block of 64 differences the diameter kernel meets singletons,
        # stacks of whole cells and cells taken in blocks of rows
        sizes = set()
        for make, _, deltas in _RD_CASES.values():
            cloud = make()
            for delta in deltas:
                order, bounds = _box_groups(cloud.points, delta / math.sqrt(cloud.dim))
                kept = hausdorff._diameter_candidates(cloud.points, order, bounds)[1]
                sizes.update(np.diff(kept).tolist())
        assert 1 in sizes
        assert any(1 < m and m * m <= 64 for m in sizes)
        assert any(m * m > 64 for m in sizes)

    def test_cell_rds_of_ball_cells(self, case):
        _, cloud, _, deltas = case
        nn_gaps = _cloud_nn(cloud)
        for scale in deltas:
            centers, _, (cut,) = _fps_centers(cloud.points, [scale])
            order, bounds = _ball_groups(cloud.points, centers, *cut)
            rds = hausdorff._cell_rds(cloud, order, bounds, scale)
            ref = [_ref_sample_rd(cloud.points[m], nn_gaps[m], cloud.resolution, scale)
                   for m in _segments(order, bounds)]
            assert rds.tolist() == ref


class TestPartitionBitIdentity:
    def test_proof_disk_partition(self):
        # the proof input: disk h=1/512, eps=0.05, Lipschitz 2 -> delta 0.015
        cloud = extract_boundary(make_ball((0.0, 0.0), 1.0, 1 / 512))
        delta = 0.6 * 0.05 / 2.0
        part = build_partition(cloud, 1.0, delta)
        assert _partition_cells(part) == _ref_partition_cells(cloud, delta)
        assert part.rd.dtype == part.hm_est.dtype == np.float64

    @pytest.mark.parametrize("name", ["ball3", "scattered", "doubled", "weighted"])
    def test_other_clouds(self, name):
        make, d, deltas = _RD_CASES[name]
        cloud = make()
        for delta in deltas:
            if delta >= 4 * cloud.resolution:
                got = _partition_cells(build_partition(cloud, d, delta))
                assert got == _ref_partition_cells(cloud, delta)

    @pytest.mark.parametrize("name", ["disk", "disk_off_fractional_d", "ball3"])
    def test_defect_matches_per_cell_sum(self, name):
        make, d, deltas = _RD_CASES[name]
        cloud = make()
        omega = unit_ball_volume(d)
        for delta in deltas:
            ref = [abs(hm_est - omega * rd ** d) for rd, _, hm_est, _ in _ref_partition_cells(cloud, delta)]
            assert partition_defect(build_partition(cloud, d, delta), d) == float(np.sum(ref))

    @pytest.mark.parametrize("name", ["disk", "ball3", "scattered"])
    def test_json_matches_reference_cells(self, name):
        make, _, deltas = _RD_CASES[name]
        cloud = make()
        delta = deltas[-1]
        ref = _ref_partition_cells(cloud, delta)
        expected = json.dumps({
            "delta": delta,
            "n_cells": len(ref),
            "total_measure": float(np.sum([hm_est for _, _, hm_est, _ in ref])),
            "cells": [{"x_c": [float(v) for v in cloud.points[x_index]], "rd": rd,
                       "hm_est": hm_est, "members": len(members)}
                      for rd, x_index, hm_est, members in ref],
        }, indent=2)
        assert partition_to_json(build_partition(cloud, cloud.dim - 1, delta)) == expected


class TestFpsCap:
    def test_skipped_scales_are_recorded(self, monkeypatch):
        cloud = extract_boundary(make_ball((0.0, 0.0), 1.0, 1 / 64))
        scales = (0.5, 0.25, 0.125)  # the cascade from 0.5 down to 8h
        counts = {s: len(_fps_reference(cloud.points, s)) for s in scales}
        assert counts[0.5] < counts[0.25] < counts[0.125]
        assert estimate_hm_detail(cloud, 1.0, 0.5).fps_skipped == ()

        monkeypatch.setattr(hausdorff, "_MAX_FPS_CENTERS", counts[0.25])
        assert estimate_hm_detail(cloud, 1.0, 0.5).fps_skipped == (0.125,)

        monkeypatch.setattr(hausdorff, "_MAX_FPS_CENTERS", 1)
        est = estimate_hm_detail(cloud, 1.0, 0.5)
        assert est.fps_skipped == scales
        assert est.method.startswith("boxes@")
        boxes = []
        for s in scales:
            order, bounds = _box_groups(cloud.points, s / math.sqrt(2))
            boxes.append(_ref_cover_sum([
                (_ref_sample_rd(cloud.points[m], _cloud_nn(cloud)[m], cloud.resolution, s), m)
                for m in _segments(order, bounds)], 1.0, len(cloud)))
        assert est.value == min(boxes)


# ---------------------------------------------------------------------------
# one greedy order for the whole cascade, slab-row distances, pruned diameters


def _dyadic_scales(cloud, top=64, bottom=2):
    """top*h, top*h/2, ..., bottom*h."""
    return [cloud.resolution * top / 2 ** j for j in range(int(math.log2(top // bottom)) + 1)]


class TestOneGreedyRun:
    @pytest.mark.parametrize("name", ["disk", "annulus", "ball3"])
    def test_prefixes_match_per_scale_reference(self, fps_clouds, name):
        cloud = fps_clouds[name]
        scales = _dyadic_scales(cloud)
        centers, counts, _ = _fps_centers(cloud.points, scales)
        refs = [_fps_reference(cloud.points, s) for s in scales]
        assert counts == [len(ref) for ref in refs]
        assert len(centers) == counts[-1]
        for ref, count in zip(refs, counts):
            np.testing.assert_array_equal(centers[:count], ref)

    @pytest.mark.parametrize("name", ["disk", "annulus", "ball3"])
    def test_limit_leaves_the_finer_scales_none(self, fps_clouds, monkeypatch, name):
        cloud = fps_clouds[name]
        scales = _dyadic_scales(cloud, top=32, bottom=4)
        full = [len(_fps_reference(cloud.points, s)) for s in scales]
        limit = full[1]  # enough for the two coarsest scales only
        monkeypatch.setattr(hausdorff, "_MAX_FPS_CENTERS", limit)
        centers, counts, _ = _fps_centers(cloud.points, scales)
        assert counts == full[:2] + [None] * (len(scales) - 2)
        for s, count in zip(scales, counts):
            ref = _fps_reference(cloud.points, s, limit=limit)
            if count is None:
                assert ref is None
            else:
                np.testing.assert_array_equal(centers[:count], ref)

    def test_runs_share_no_state(self, fps_clouds):
        # a run between two runs on one cloud must not change the second
        disk, ball = fps_clouds["disk"].points, fps_clouds["ball3"].points
        first = _fps_centers(disk, _dyadic_scales(fps_clouds["disk"]))
        _fps_centers(ball, _dyadic_scales(fps_clouds["ball3"]))
        again = _fps_centers(disk, _dyadic_scales(fps_clouds["disk"]))
        np.testing.assert_array_equal(again[0], first[0])
        assert again[1] == first[1]
        for (owner, tied), (ref_owner, ref_tied) in zip(again[2], first[2]):
            np.testing.assert_array_equal(owner, ref_owner)
            np.testing.assert_array_equal(tied, ref_tied)

    def test_single_point(self):
        centers, counts, owners = _fps_centers(np.array([[0.5, 0.25]]), [1.0, 0.5])
        assert centers.tolist() == [0] and counts == [1, 1]
        assert [(own.tolist(), tied.tolist()) for own, tied in owners] == [([0], [])] * 2


def _norms_into_buffers(pts, c):
    """``_column_norms`` of the rows of ``pts`` about c, in buffers holding stale values."""
    out, work = np.full(len(pts), np.nan), np.full(len(pts), -7.0)
    norms = hausdorff._column_norms(pts.T.copy(), c[:, None], out, work)
    assert norms is out
    return norms


class TestColumnNorms:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_bits_of_linalg_norm_on_random_rows(self, dim):
        rng = np.random.default_rng(dim)
        pts = rng.normal(size=(50000, dim)) * rng.uniform(1e-3, 1e3, size=(50000, dim))
        for c in (pts[7], np.zeros(dim), pts.mean(axis=0)):
            assert np.array_equal(_norms_into_buffers(pts, c), np.linalg.norm(pts - c, axis=1))

    @pytest.mark.parametrize("name", ["disk", "annulus", "ball3"])
    def test_bits_of_linalg_norm_on_clouds(self, fps_clouds, name):
        pts = fps_clouds[name].points
        for c in pts[:: max(1, len(pts) // 50)]:
            assert np.array_equal(_norms_into_buffers(pts, c), np.linalg.norm(pts - c, axis=1))

    @pytest.mark.parametrize("name", ["disk", "annulus", "ball3"])
    def test_one_point_per_column(self, fps_clouds, name):
        pts = fps_clouds[name].points
        others = pts[np.random.default_rng(1).permutation(len(pts))]
        got = hausdorff._column_norms(pts.T, others.T)
        assert np.array_equal(got, np.linalg.norm(pts - others, axis=1))
        assert np.array_equal(hausdorff._squared_norms(pts.T, others.T), np.sum((pts - others) ** 2, axis=1))


def _cells_from_lists(cells):
    """(order, bounds) of explicit member lists."""
    order = np.array([m for cell in cells for m in cell], dtype=np.intp)
    return order, np.cumsum([0] + [len(cell) for cell in cells])


class TestPrunedDiameters:
    def _assert_rds_match_reference(self, cloud, order, bounds, scale):
        nn_gaps = _cloud_nn(cloud)
        rds = hausdorff._cell_rds(cloud, order, bounds, scale)
        ref = [_ref_sample_rd(cloud.points[m], nn_gaps[m], cloud.resolution, scale)
               for m in _segments(order, bounds)]
        assert rds.tolist() == ref

    @pytest.mark.parametrize("name", sorted(_RD_CASES))
    def test_box_cells(self, name):
        make, _, deltas = _RD_CASES[name]
        cloud = make()
        for delta in deltas:
            order, bounds = _box_groups(cloud.points, delta / math.sqrt(cloud.dim))
            self._assert_rds_match_reference(cloud, order, bounds, delta)

    def test_collinear_and_coincident_members(self):
        line = np.linspace(0.0, 1.0, 150)
        pts = np.concatenate([
            np.stack([line, 2.0 * line], axis=1),          # 150 collinear, evenly spaced
            np.stack([line ** 3, -line ** 3], axis=1) + 3,  # 150 collinear, crowded at one end
            np.full((100, 2), 0.25),                        # 100 coincident
            np.full((5, 2), -1.0),                          # 5 coincident
            [[0.0, -2.0], [0.0, -2.0], [1e-9, -2.0]],       # two coincident and a near one
            [[5.0, 5.0]],                                   # a singleton
            np.concatenate([np.zeros((2000, 2)), [[1.0, 0.0]]]) + [-3.0, 0.0],  # many at one end
        ])
        cloud = BoundaryCloud(dim=2, resolution=1e-3, points=pts, weights=np.full(len(pts), 1e-3))
        sizes = [150, 150, 100, 5, 3, 1, 2001]
        cells = np.split(np.arange(len(pts)), np.cumsum(sizes)[:-1])
        order, bounds = _cells_from_lists([c.tolist() for c in cells])
        self._assert_rds_match_reference(cloud, order, bounds, 10.0)

    @pytest.mark.parametrize("name", ["disk", "annulus", "ball3"])
    def test_candidates_keep_the_diameter_and_drop_most_members(self, fps_clouds, name):
        cloud = fps_clouds[name]
        order, bounds = _box_groups(cloud.points, 16 * cloud.resolution)
        kept, kept_bounds = hausdorff._diameter_candidates(cloud.points, order, bounds)
        for members, survivors in zip(_segments(order, bounds), _segments(kept, kept_bounds)):
            assert set(survivors.tolist()) <= set(members.tolist())
            assert _cdist_diameter(cloud.points[survivors]) == _cdist_diameter(cloud.points[members])
        assert len(kept) < len(order) / 2


class TestOneTreePerCloud:
    @pytest.fixture
    def counted(self, monkeypatch):
        """Sizes of the KD-trees built in hausdorff, and of the k=2 queries."""
        builds, gap_queries = [], []

        class CountingTree(cKDTree):
            def __init__(self, data, *args, **kwargs):
                builds.append(len(data))
                super().__init__(data, *args, **kwargs)

            def query(self, x, k=1, *args, **kwargs):
                if k == 2:
                    gap_queries.append(len(x))
                return super().query(x, k, *args, **kwargs)

        monkeypatch.setattr(hausdorff, "cKDTree", CountingTree)
        return builds, gap_queries

    def test_trace_builds_no_tree_over_the_cloud(self, counted):
        builds, gap_queries = counted
        dom = make_ball((0.0, 0.0), 1.0, 1 / 128)
        cloud = extract_boundary(dom)
        u = from_expression(dom, "max(0, 1 - r*r)", lipschitz=2.0)
        inequalities.proof_trace(u, eps=0.2)
        assert not hasattr(calculus, "cKDTree")  # the truncated trace is zero: no ball query
        assert len(cloud) not in builds  # hausdorff's trees are over greedy centers
        assert gap_queries == []  # the face lattice gives the gaps
        assert _cloud_nn(cloud) is _cloud_nn(cloud)
        assert not _cloud_nn(cloud).flags.writeable

    def test_synthetic_cloud_gaps_come_from_the_tree(self, counted):
        builds, gap_queries = counted
        cloud = _doubled_cloud()  # every sample twice: all gaps are 0
        gaps = _cloud_nn(cloud)
        assert builds == gap_queries == [len(cloud)]
        assert not gaps.any() and not gaps.flags.writeable
        assert _cloud_nn(cloud) is gaps
        assert builds == [len(cloud)]  # cached: no second tree


def _cascade(cloud, delta):
    """The scales of estimate_hm_detail's cascade from delta."""
    scales = [delta]
    while scales[-1] / 2.0 >= hausdorff._CASCADE_FLOOR * cloud.resolution:
        scales.append(scales[-1] / 2.0)
    return scales


class TestGreedyOwners:
    def test_owners_and_arbiter_match_the_nearest_center_query(self):
        cases = [
            (extract_boundary(make_ball((0.0, 0.0, 0.0), 1.0, 1 / 16)), 1.0),
            (extract_boundary(make_box((0.0, 0.0), (1.0, 1.0), 1 / 64)), 0.5),
            (extract_boundary(make_ball((0.0, 0.0), 1.0, 1 / 1024)), 0.2),
        ]
        n_tied = []
        for cloud, delta in cases:
            pts = cloud.points
            centers, counts, owners = _fps_centers(pts, _cascade(cloud, delta))
            for count, (owner, tied) in zip(counts, owners):
                tree = cKDTree(pts[centers[:count]])
                expected = tree.query(pts)[1]
                strict = np.setdiff1d(np.arange(len(pts)), tied)
                np.testing.assert_array_equal(owner[strict], expected[strict])
                settled = owner.copy()
                settled[tied] = tree.query(pts[tied])[1]
                np.testing.assert_array_equal(settled, expected)
                cells = _segments(*_ball_groups(pts, centers[:count], owner, tied))
                ref = [m for m in (np.flatnonzero(expected == g) for g in range(count)) if len(m)]
                assert [m.tolist() for m in cells] == [m.tolist() for m in ref]
                n_tied.append(len(tied))
        assert max(n_tied) > 0  # the arbiter has ties to settle


_O_SCRIPT = """
import numpy as np
from gmtlab.domains import BoundaryCloud
from gmtlab.errors import GmtLabError, InvalidArgumentError
from gmtlab.hausdorff import Partition, build_partition, estimate_hm_detail

assert False, "this script must run with assertions stripped"
pts = np.stack([np.arange(4) * 0.25, np.zeros(4)], axis=1)
cloud = BoundaryCloud(dim=2, resolution=0.25, points=pts, weights=np.full(4, 0.25))
bad = {
    "no cells": ([], [0], []),
    "empty cell": ([0, 1, 2, 3], [0, 4, 4], [0, 0]),
    "overlap": ([0, 1, 2, 2, 3], [0, 3, 5], [0, 2]),
    "cover": ([0, 1, 3], [0, 2, 3], [0, 3]),
    "representative": ([0, 1, 2, 3], [0, 2, 4], [0, 0]),
    "beyond 2 rd": ([0, 1, 2, 3], [0, 2, 4], [0, 2]),
}
for name, (order, bounds, x_index) in bad.items():
    k = len(bounds) - 1
    try:
        Partition(np.array(order, dtype=np.intp), np.array(bounds), np.array(x_index, dtype=np.intp),
                  np.full(k, 0.01), np.zeros(k), 0.5, cloud)
    except InvalidArgumentError as exc:
        if name not in str(exc):
            raise
        print("raised", name)
for d, delta in [(1.0, float("nan")), (float("inf"), 0.5)]:
    for fn in (estimate_hm_detail, build_partition):
        try:
            fn(cloud, d, delta)
        except InvalidArgumentError as exc:
            print("raised", fn.__name__, "finite" in str(exc))
from gmtlab.calculus import GridFunction, constant_function, interior_region, restrict_to_domain, truncate
from gmtlab.domains import extract_boundary, make_ball, make_box
from gmtlab.errors import ExpressionError
from gmtlab.expressions import Expression
from gmtlab.inequalities import TraceReport, check_mazya_l2, proof_trace, quotient_search
small, disk = make_ball((0.0, 0.0), 0.5, 1 / 16), make_ball((0.0, 0.0), 1.0, 1 / 16)
faces = extract_boundary(disk)
refusals = {
    "deep expression": (ExpressionError, lambda: Expression("-" * 3000 + "x")),
    "values shape": (InvalidArgumentError, lambda: GridFunction(disk, np.zeros((3, 3)), np.zeros(len(faces)))),
    "trace length": (InvalidArgumentError, lambda: GridFunction(disk, np.zeros(disk.shape), np.zeros(3))),
    "restriction spacing": (InvalidArgumentError, lambda: restrict_to_domain(
        constant_function(disk, 1.0), make_ball((0.0, 0.0), 1.0, 1 / 32))),
    "foreign partition": (InvalidArgumentError, lambda: truncate(
        constant_function(disk, 1.0), build_partition(extract_boundary(small), 1, 0.25), 0.1, 0.02)),
    "c1 word": (InvalidArgumentError, lambda: check_mazya_l2(constant_function(disk, 1.0), "fast")),
    "proof eps": (InvalidArgumentError, lambda: proof_trace(constant_function(disk, 1.0), 0.5)),
    "search iters": (InvalidArgumentError, lambda: quotient_search(constant_function(disk, 1.0), 0, 0.1)),
    "trace order": (InvalidArgumentError, lambda: TraceReport([], {})),
    "int32 reach": (InvalidArgumentError, lambda: interior_region(make_box((0.0, 0.0), (500.0, 0.03), 0.01), 1e3)),
}
for name, (error, call) in refusals.items():
    try:
        call()
    except error:
        print("raised", name)
"""


def test_typed_checks_survive_python_O():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-O", "-c", _O_SCRIPT], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout.split("\n")
    assert out[:6] == ["raised no cells", "raised empty cell", "raised overlap", "raised cover",
                       "raised representative", "raised beyond 2 rd"]
    assert out[6:10] == ["raised estimate_hm_detail True", "raised build_partition True"] * 2
    assert out[10:20] == ["raised deep expression", "raised values shape", "raised trace length",
                          "raised restriction spacing", "raised foreign partition", "raised c1 word",
                          "raised proof eps", "raised search iters", "raised trace order", "raised int32 reach"]
