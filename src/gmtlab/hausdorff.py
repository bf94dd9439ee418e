"""Covering sums, boundary-measure estimation, and measured partitions.

The d-dimensional covering sum of a family of cells is
``omega_d * sum(rd(C) ** d)`` where rd(C) is half the diameter of the cell.
On a sampled cloud every sample stands for a boundary patch of extent about
one resolution unit, so cell half-diameters include a sampling compensation
equal to the mean nearest-neighbor gap of the cell's members (zero for
singletons).  Without it the chord sums systematically miss half a sample
gap at every cell boundary and the defect certificates stop converging.

Whether covering cells are open or closed makes no difference on a finite
cloud (any cell can be enlarged to an open superset with arbitrarily small
extra half-diameter), so the open-covering refinement of the underlying
definition is a deliberate no-op here.

Coverings and partitions are held as segmented index arrays (cell g owns
``order[bounds[g]:bounds[g + 1]]``), and one segmented pass,
:func:`_cell_rds`, gives every cell's half-diameter, each bit for bit as if
its cell were computed alone; diameters are taken only over the members
that the triangle inequality lets end one, all by one broadcast kernel.
The greedy-ball coverings of every cascade scale are prefixes of one greedy
farthest-point order, whose distance updates read a contiguous slab of a
copy of the cloud sorted along its widest axis and also carry each point's
nearest center; a KD-tree over the centers settles only exact ties.  The
nearest-neighbor gaps of a face cloud come from its face lattice, those of
other clouds from a KD-tree query; only the gaps are cached on the cloud.  A
:class:`Partition` keeps the segmented form plus one column entry per cell
(representative, rd, measure).  ``CoverCell`` and
``Covering`` remain the explicit form for coverings built by hand.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .domains import BoundaryCloud, _centers_grid
from .errors import EmptyCloudError, InvalidArgumentError, ResolutionError

__all__ = [
    "unit_ball_volume",
    "CoverCell",
    "Covering",
    "Partition",
    "cover_sum",
    "estimate_hm",
    "estimate_hm_detail",
    "HmEstimate",
    "build_partition",
    "partition_defect",
    "partition_to_json",
]


def unit_ball_volume(d: float) -> float:
    """Volume pi^(d/2) / Gamma(d/2 + 1) of the unit ball in dimension d >= 0.

    Where Gamma or the power overflows (d above about 341) the same ratio is
    taken in logarithms; it is 0.0 where even log Gamma overflows.
    """
    if d < 0:
        raise InvalidArgumentError("dimension must be nonnegative")
    try:
        return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
    except OverflowError:
        pass
    try:
        return math.exp(d / 2.0 * math.log(math.pi) - math.lgamma(d / 2.0 + 1.0))
    except OverflowError:
        return 0.0


@dataclass(frozen=True)
class CoverCell:
    center: np.ndarray
    rd: float
    members: np.ndarray  # indices into the cloud


@dataclass(frozen=True)
class Covering:
    """A family of cells covering every point of a cloud."""

    dim_d: float
    cells: list
    n_points: int

    def __post_init__(self):
        if self.dim_d < 0:
            raise InvalidArgumentError("covering dimension must be nonnegative")
        covered = np.zeros(self.n_points, dtype=bool)
        for cell in self.cells:
            if cell.rd < 0:
                raise InvalidArgumentError("cell rd must be nonnegative")
            covered[cell.members] = True
        if self.n_points and not covered.all():
            raise InvalidArgumentError("covering property violated: uncovered points")

    @property
    def rd(self) -> float:
        return max((c.rd for c in self.cells), default=0.0)


@dataclass(frozen=True)
class Partition:
    """Disjoint cells covering a cloud, with representatives and measures.

    Cell g owns the cloud points ``order[bounds[g]:bounds[g + 1]]`` (integer
    arrays); its representative is point ``x_index[g]``, its half-diameter
    ``rd[g]`` and its measure ``hm_est[g]`` (one array entry per cell).
    """

    order: np.ndarray
    bounds: np.ndarray
    x_index: np.ndarray
    rd: np.ndarray
    hm_est: np.ndarray
    delta: float
    cloud: BoundaryCloud = field(repr=False)

    def __post_init__(self):
        # structural guarantees, checked on every construction
        sizes = np.diff(self.bounds)
        if len(sizes) == 0:
            raise InvalidArgumentError("partition has no cells")
        if not len(self.x_index) == len(self.rd) == len(self.hm_est) == len(sizes):
            raise InvalidArgumentError("partition columns must have one entry per cell")
        if (sizes <= 0).any():
            raise InvalidArgumentError("partition has an empty cell")
        uniq = np.unique(self.order)
        if len(uniq) != len(self.order):
            raise InvalidArgumentError("partition cells overlap")
        spans = self.bounds[0] == 0 and self.bounds[-1] == len(self.order)
        if not spans or not np.array_equal(uniq, np.arange(len(self.cloud))):
            raise InvalidArgumentError("partition cells do not cover the cloud")
        if not (self.rd <= self.delta).all():
            raise InvalidArgumentError("partition cell rd exceeds delta")
        # order is now a permutation of the cloud; owner[i] is the cell of point i
        owner = np.empty(len(self.order), dtype=np.intp)
        owner[self.order] = np.repeat(np.arange(len(sizes)), sizes)
        x_index = np.asarray(self.x_index)
        if not (np.issubdtype(x_index.dtype, np.integer)
                and ((0 <= x_index) & (x_index < len(owner))).all()
                and np.array_equal(owner[x_index], np.arange(len(sizes)))):
            raise InvalidArgumentError("partition representative is not a member of its cell")

    @property
    def x_c(self) -> np.ndarray:
        return self.cloud.points[self.x_index]

    @property
    def rd_max(self) -> float:
        return float(self.rd.max())

    def __len__(self) -> int:
        return len(self.rd)


def _sum_rd(rds: np.ndarray, d: float) -> float:
    """omega_d * sum(rds ** d) over an array of cell half-diameters."""
    # float_power takes C pow per element, as ** on one float does; np.power
    # may take a vectorized pow with other last bits
    return unit_ball_volume(d) * float(np.sum(np.float_power(rds, d)))


def cover_sum(cov: Covering) -> float:
    """omega_d * sum(rd ** d); an empty covering sums to zero."""
    if not cov.cells:
        return 0.0
    return _sum_rd(np.array([c.rd for c in cov.cells]), cov.dim_d)


# pairwise differences held at once by the diameter kernel (2 MB per array)
_PAIR_BLOCK = 1 << 18


def _diameters(pts: np.ndarray) -> np.ndarray:
    """Diameters of k cells of m points each, ``pts`` of shape (k, m, n).

    Squared distances are accumulated as dx*dx (+dy*dy)(+dz*dz), the order
    in which scipy's "sqeuclidean" pair distance sums them, so the maxima
    are the same bits.  Each block, of whole cells or of one cell's
    rows, holds at most ``_PAIR_BLOCK`` differences (one row if m is larger).
    """
    k, m, n = pts.shape
    cells, rows = max(1, _PAIR_BLOCK // (m * m)), max(1, _PAIR_BLOCK // m)
    d2 = np.zeros(k)
    for c0, r0 in itertools.product(range(0, k, cells), range(0, m, rows)):
        p, out = pts[c0 : c0 + cells], d2[c0 : c0 + cells]
        block = sum((p[:, r0 : r0 + rows, None, a] - p[:, None, :, a]) ** 2 for a in range(n))
        np.maximum(out, block.reshape(len(p), -1).max(axis=1), out=out)
    return np.sqrt(d2)


def _cloud_nn(cloud: BoundaryCloud) -> np.ndarray:
    """Per-point distance to the nearest other point (0 for one point), cached read-only.

    A cloud from :func:`extract_boundary` reads its gaps off the face
    lattice (:func:`_face_gaps`); other clouds take a KD-tree's k=2 query.
    """
    gaps = vars(cloud).get("_nn_gaps")
    if gaps is None:
        grid = vars(cloud).get("_grid")
        if grid is not None:
            gaps = _face_gaps(cloud, *grid)
        elif len(cloud) >= 2:
            gaps = cKDTree(cloud.points).query(cloud.points, k=2)[0][:, 1].copy()
        else:
            gaps = np.zeros(len(cloud))
        gaps.setflags(write=False)
        vars(cloud)["_nn_gaps"] = gaps
    return gaps


def _face_gaps(cloud: BoundaryCloud, origin: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Nearest-neighbor gaps of a face cloud of the domain (origin, mask), from its lattice.

    In half-cell units the face (c, a, s) of interior cell c toward the
    exterior cell c + s e_a sits at 2c + 1 + s e_a.  Its nearest other face
    lies within one cell, at h/sqrt(2) across an edge or else at h, among
    8 (2D) or 14 (3D) positions; every other face is at least 1.2 h away.
    For each axis b != a and t = +-1 these are the face (c, b, t), present
    when c + t e_b is exterior, the face (c + s e_a + t e_b, b, -t), present
    when that cell is interior, and the coplanar face (c + t e_b, a, s),
    present when c + t e_b is interior and c + t e_b + s e_a is not (the
    same position owned by c + t e_b + s e_a has different bits, but then
    the face (c, b, t) is nearer); along a they are the faces (c, a, -s)
    and (c + 2s e_a, a, -s).  Presence is one mask gather per position over
    all faces.  Each neighbor's coordinates follow :func:`extract_boundary`'s
    formula from its owning cell, and at most two axes differ, so the
    squared distances have the bits of the KD-tree's and the gaps are those
    of its k=2 query.
    """
    n, h = cloud.dim, cloud.resolution
    pts, cells, axes, signs = cloud.points, cloud.face_cells, cloud.face_axes, cloud.face_signs
    rows = np.arange(len(pts))
    shape = np.array(mask.shape)
    strides = np.array([int(np.prod(mask.shape[x + 1:])) for x in range(n)])
    present = mask.reshape(-1)
    flat = np.ravel_multi_index(cells.T, mask.shape)
    # the cell-centre coordinates of every axis, end to end
    base = np.concatenate(([0], np.cumsum(shape)[:-1]))
    centre = np.concatenate([x.ravel() for x in _centers_grid(origin, mask.shape, h)])
    half = signs * h / 2.0
    step = signs * strides[axes]  # flat offset of c + s e_a
    # along a: each face's own coordinate and the neighbors' differences from it
    own = pts[rows, axes]
    ca = cells[rows, axes]
    ia = base[axes] + ca
    on_grid = (ca + 2 * signs >= 0) & (ca + 2 * signs < shape[axes])  # c + 2s e_a in the grid
    inner = centre[ia] - own
    outer = centre[ia + signs] - own
    far = centre[np.where(on_grid, ia + 2 * signs, ia)] - half - own
    back = centre[ia] - half - own
    best = far * far
    best[~(on_grid & present[np.where(on_grid, flat + 2 * step, flat)])] = np.inf
    np.minimum(best, back * back, out=best, where=~present[flat - step])
    inner *= inner
    outer *= outer
    for j in range(1, n):
        b = (axes + j) % n
        ib = base[b] + cells[rows, b]
        other = pts[rows, b]
        for t in (1, -1):
            shift = flat + t * strides[b]
            side = present[shift]  # c + t e_b interior
            corner = present[shift + step]  # c + s e_a + t e_b interior
            edge = other + t * h / 2.0 - other
            np.minimum(best, inner + edge * edge, out=best, where=~side)
            edge = centre[ib + t] - t * h / 2.0 - other
            np.minimum(best, outer + edge * edge, out=best, where=corner)
            edge = centre[ib + t] - other
            np.minimum(best, edge * edge, out=best, where=side & ~corner)
    return np.sqrt(best)


def _size_buckets(order: np.ndarray, bounds: np.ndarray):
    """Yield (cells, members) for each cell size m: the cells of exactly m
    members, ascending, and their (k, m) rows of member indices."""
    sizes = np.diff(bounds)
    for m in np.unique(sizes):
        cells = np.flatnonzero(sizes == m)
        yield cells, order[bounds[cells, None] + np.arange(m)]


def _diameter_candidates(points: np.ndarray, order: np.ndarray, bounds: np.ndarray):
    """The members of each cell that can end one of its diameters, as (order, bounds).

    With r_p a member's distance to the cell centroid, R the largest r_p and
    L a distance between two members (from the member farthest from the
    centroid to the member farthest from it), both ends of a diameter D >= L
    satisfy r_p >= D - R >= L - R by the triangle inequality.  Members below
    that bound, less a slack of 1e-9 R for rounding, are dropped; every cell
    keeps at least the pair that gives L.  Cells must be nonempty.
    """
    sizes = np.diff(bounds)
    starts = bounds[:-1]
    cell = np.repeat(np.arange(len(sizes)), sizes)
    pts = points[order]
    centroid = np.add.reduceat(pts, starts, axis=0) / sizes[:, None]
    r = np.linalg.norm(pts - centroid[cell], axis=1)
    big_r = np.maximum.reduceat(r, starts)
    at_max = np.flatnonzero(r == big_r[cell])
    first = at_max[np.flatnonzero(np.diff(cell[at_max], prepend=-1))]
    ell = np.maximum.reduceat(np.linalg.norm(pts - pts[first][cell], axis=1), starts)
    keep = r >= (ell - big_r - 1e-9 * big_r)[cell]
    kept = np.add.reduceat(keep.astype(np.intp), starts)
    return order[keep], np.concatenate(([0], np.cumsum(kept)))


def _cell_rds(points: np.ndarray, nn_gaps: np.ndarray, order: np.ndarray,
              bounds: np.ndarray, resolution: float, scale: float) -> np.ndarray:
    """Half-diameter with patch compensation of every cell ``order[bounds[g]:bounds[g + 1]]``.

    Every sample stands for a boundary patch whose extent is roughly its
    nearest-neighbor gap; a cell's compensation is the mean gap of its
    members, capped so the cell stays feasible at the covering scale, and
    its rd is min((diameter + compensation) / 2, scale).  Cells are taken in
    buckets of one exact size: a bucket's rows of m gaps are averaged as
    each cell's own m gaps would be (padding would change numpy's pairwise
    summation).  Diameters are taken over the members
    :func:`_diameter_candidates` keeps, which hold every pair at the
    diameter, so each is the same maximum of the same pair distances, and
    :func:`_diameters` takes them per bucket.  Cells must be nonempty.
    """
    mean_gap = np.empty(len(bounds) - 1)
    diam = np.empty(len(bounds) - 1)
    for cells, members in _size_buckets(order, bounds):
        mean_gap[cells] = nn_gaps[members].mean(axis=1)
    for cells, members in _size_buckets(*_diameter_candidates(points, order, bounds)):
        diam[cells] = _diameters(points[members])
    comp = np.minimum(mean_gap, 2.0 * math.sqrt(points.shape[1]) * resolution)
    return np.minimum(0.5 * (diam + comp), scale)


def _group_by_label(labels: np.ndarray, n_labels: int):
    """(order, bounds): label g is carried by ``order[bounds[g]:bounds[g + 1]]``, ascending."""
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(n_labels + 1))
    return order, bounds


def _box_groups(points: np.ndarray, side: float):
    """Group point indices by axis-aligned boxes of the given side length.

    Returns (order, bounds): box g holds ``order[bounds[g]:bounds[g + 1]]``;
    boxes come in lexicographic order of their integer coordinates and none
    is empty.
    """
    anchor = points.min(axis=0)
    idx = np.floor((points - anchor) / side).astype(np.int64)
    # C-order linear keys of the nonnegative box indices sort like the index
    # rows, so this is np.unique(idx, axis=0) without the row sort
    dims = tuple(idx.max(axis=0) + 1)
    keys, inverse = np.unique(np.ravel_multi_index(idx.T, dims), return_inverse=True)
    return _group_by_label(inverse, len(keys))


def _column_norms(diff: np.ndarray) -> np.ndarray:
    """Euclidean norms of the columns of ``diff`` (one row per axis).

    The squares are summed axis by axis, as np.linalg.norm(rows, axis=1)
    sums each row, so the norms have the same bits.
    """
    d2 = diff[0] * diff[0]
    for a in range(1, len(diff)):
        d2 += diff[a] * diff[a]
    return np.sqrt(d2)


def _fps_centers(points: np.ndarray, thresholds, limit: int | None = None):
    """One greedy farthest-point order, cut at each of the descending ``thresholds``.

    Returns (centers, counts, owners): the first ``counts[j]`` centers leave
    every point within ``thresholds[j]``, or ``counts[j]`` is None when that
    takes more than ``limit`` centers.  The greedy choice does not depend on
    where it stops (Gonzalez, Theor. Comput. Sci. 38 (1985)), so one run
    serves every threshold.  A new center c at distance ``far`` can only
    lower (or tie) the distance of points within ``far`` of it.  They all
    lie in the slab ``|x_a - c_a| <= far`` along the cloud's widest axis a
    (the slack absorbs rounding), which is one run of rows of a copy of the
    cloud sorted along that axis.  Only those rows are updated, with
    distances of the bits of np.linalg.norm and the ``np.argmax`` tie-break
    of full-array updates, so the centers are the same.

    The updates also carry each point's owner, the position in ``centers``
    of the first center at its least distance, and whether a later center
    tied that distance.  ``owners[j]`` is the snapshot (owner, tied) at cut
    j, with ``tied`` the ascending indices of the tied points, or None where
    ``counts[j]`` is.  The distances are the square roots of a KD-tree's
    squared distances, so an untied owner is the tree's nearest center and
    every tie in the tree's distances is among ``tied``.
    """
    start = int(np.lexsort(points.T[::-1])[0])  # deterministic start: smallest coordinates
    centers = [start]
    counts, owners = [], []
    dist = np.linalg.norm(points - points[start], axis=1)
    owner = np.zeros(len(points), dtype=np.intp)
    tied = np.zeros(len(points), dtype=bool)
    axis = int(np.argmax(np.ptp(points, axis=0)))
    by_axis = np.argsort(points[:, axis], kind="stable")
    cols = points[by_axis].T.copy()  # one contiguous row of coordinates per axis
    while True:
        nxt = int(np.argmax(dist))
        far = dist[nxt]
        while not far > thresholds[len(counts)]:
            counts.append(len(centers))
            owners.append((owner.copy(), np.flatnonzero(tied)))
            if len(counts) == len(thresholds):
                return np.asarray(centers, dtype=np.int64), counts, owners
        if limit is not None and len(centers) >= limit:
            missing = [None] * (len(thresholds) - len(counts))
            return np.asarray(centers, dtype=np.int64), counts + missing, owners + missing
        c = points[nxt]
        reach = far * (1.0 + 1e-9)
        lo = np.searchsorted(cols[axis], c[axis] - reach, side="left")
        hi = np.searchsorted(cols[axis], c[axis] + reach, side="right")
        near = by_axis[lo:hi]
        new = _column_norms(cols[:, lo:hi] - c[:, None])
        old = dist[near]
        closer = new < old
        won = near[closer]
        dist[won] = new[closer]
        owner[won] = len(centers)
        tied[won] = False
        tied[near[new == old]] = True
        centers.append(nxt)


def _ball_groups(points: np.ndarray, centers: np.ndarray, owner: np.ndarray, tied: np.ndarray):
    """Greedy-ball cells of the given centers as (order, bounds).

    Each point joins its nearest center: ``owner`` from the greedy run
    (:func:`_fps_centers`), except for the ``tied`` points, which a KD-tree
    over the centers settles as a nearest-center query would.  Cells follow
    the center order, and a center that owns no point (a tie lost to a
    coincident center) gives no cell.
    """
    if len(tied):
        owner = owner.copy()
        owner[tied] = cKDTree(points[centers]).query(points[tied])[1]
    order, bounds = _group_by_label(owner, len(centers))
    return order, np.unique(bounds)


@dataclass(frozen=True)
class HmEstimate:
    value: float
    d: float
    delta: float
    method: str
    n_cells: int
    upper_bound: bool = True
    # cascade scales whose greedy-ball candidate was skipped for needing
    # more than _MAX_FPS_CENTERS centers (the box candidate still ran)
    fps_skipped: tuple = ()


# cascading below this multiple of the resolution would fragment cells into
# near-singletons, collapsing the sums; the cascade stops above it
_CASCADE_FLOOR = 8.0
# greedy center selection is skipped when it would produce more centers than
# this (the box covering still provides a feasible candidate at that scale)
_MAX_FPS_CENTERS = 20000


def _check_finite(d: float, delta: float) -> None:
    # a non-finite scale would never reach the cascade floor
    if not (math.isfinite(d) and math.isfinite(delta)):
        raise InvalidArgumentError(f"d and delta must be finite, got d={d}, delta={delta}")


def estimate_hm_detail(cloud: BoundaryCloud, d: float, delta: float) -> HmEstimate:
    """Best covering sum over box and greedy-ball coverings at scale delta.

    Coverings built at any dyadic sub-scale of delta are also feasible at
    scale delta, so the estimator takes the minimum over the cascade of
    sub-scales down to the sampling floor; this keeps the estimate
    non-increasing in delta on dyadic ladders.  Every candidate is a
    feasible covering, so the result is an upper estimate of the
    scale-delta covering infimum and is flagged as an upper bound.

    Each candidate is held as segmented cells, its rds come from one
    :func:`_cell_rds` pass, and candidates compete as (sum, method, cells)
    tuples; no per-cell objects are built.  Scales at which the greedy-ball
    candidate would need more than ``_MAX_FPS_CENTERS`` centers are skipped
    for that candidate and listed in ``fps_skipped``.
    """
    _check_finite(d, delta)
    if d < 0:
        raise InvalidArgumentError("dimension must be nonnegative")
    if delta <= 0:
        raise InvalidArgumentError("delta must be positive")
    if delta < 2 * cloud.resolution:
        raise ResolutionError(
            f"delta {delta} does not resolve sampling at resolution {cloud.resolution}"
        )
    if len(cloud) == 0:
        return HmEstimate(0.0, d, delta, "empty", 0)
    pts = cloud.points
    nn_gaps = _cloud_nn(cloud)
    scales = [delta]
    while scales[-1] / 2.0 >= _CASCADE_FLOOR * cloud.resolution:
        scales.append(scales[-1] / 2.0)
    centers, counts, owners = _fps_centers(pts, scales, limit=_MAX_FPS_CENTERS)
    best = None
    for scale, count, cut in zip(scales, counts, owners):
        order, bounds = _box_groups(pts, scale / math.sqrt(cloud.dim))
        cand = [("boxes", order, bounds)]
        if count is not None:
            cand.append(("balls", *_ball_groups(pts, centers[:count], *cut)))
        for kind, order, bounds in cand:
            rds = _cell_rds(pts, nn_gaps, order, bounds, cloud.resolution, scale)
            value = _sum_rd(rds, d)
            if best is None or value < best[0]:
                best = (value, f"{kind}@{scale:g}", len(rds))
    skipped = tuple(scale for scale, count in zip(scales, counts) if count is None)
    return HmEstimate(best[0], d, delta, best[1], best[2], fps_skipped=skipped)


def estimate_hm(cloud: BoundaryCloud, d: float, delta: float) -> float:
    return estimate_hm_detail(cloud, d, delta).value


def build_partition(cloud: BoundaryCloud, d: float, delta: float) -> Partition:
    """Partition the cloud by boxes of side delta/sqrt(n).

    Every cell is nonempty, the cells are disjoint with union the whole
    cloud, rd(cell) <= delta/2 + gap/2 <= delta, and hm_est(cell) is the sum
    of the member weights.  The representative is the member nearest the
    cell centroid, ties broken by lexicographically smallest coordinates.
    Centroids and measures come from the exact-size buckets of
    :func:`_cell_rds` (each row reduced as its cell alone would be), and one
    lexsort over (cell, distance to centroid, coordinates) picks every
    representative.
    """
    _check_finite(d, delta)
    if len(cloud) == 0:
        raise EmptyCloudError("cannot partition an empty cloud")
    if delta < 4 * cloud.resolution:
        raise ResolutionError(
            f"delta {delta} must be at least 4 times the resolution {cloud.resolution}"
        )
    pts = cloud.points
    nn_gaps = _cloud_nn(cloud)
    order, bounds = _box_groups(pts, delta / math.sqrt(cloud.dim))
    rds = _cell_rds(pts, nn_gaps, order, bounds, cloud.resolution, delta)
    centroid = np.empty((len(rds), cloud.dim))
    hm_est = np.empty(len(rds))
    for cells, members in _size_buckets(order, bounds):
        centroid[cells] = pts[members].mean(axis=1)
        hm_est[cells] = cloud.weights[members].sum(axis=1)
    cell = np.repeat(np.arange(len(rds)), np.diff(bounds))
    dist = np.linalg.norm(pts[order] - centroid[cell], axis=1)
    first = np.lexsort((*pts[order].T[::-1], dist, cell))[bounds[:-1]]
    return Partition(order, bounds, order[first], rds, hm_est, delta, cloud)


def partition_defect(part: Partition, d: float) -> float:
    """Sum over cells of |hm_est - omega_d * rd^d|, with :func:`_sum_rd`'s power rule."""
    terms = np.abs(part.hm_est - unit_ball_volume(d) * np.float_power(part.rd, d))
    return float(np.sum(terms))


def partition_to_json(part: Partition) -> str:
    data = {
        "delta": part.delta,
        "n_cells": len(part),
        "total_measure": float(np.sum(part.hm_est)),
        "cells": [{"x_c": x_c, "rd": rd, "hm_est": hm_est, "members": members}
                  for x_c, rd, hm_est, members in zip(part.x_c.tolist(), part.rd.tolist(),
                                                      part.hm_est.tolist(), np.diff(part.bounds).tolist())],
    }
    return json.dumps(data, indent=2)
