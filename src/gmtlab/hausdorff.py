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
A cloud holds its coordinates axis by axis (``BoundaryCloud.coords``, one
contiguous row per axis, with ``points`` its transposed view), and the
kernels here read a cloud through ``points.T``, so each reduction,
comparison and gather along one axis runs over one contiguous row.
The greedy-ball coverings of every cascade scale are prefixes of one greedy
farthest-point order.  Its distance updates read a contiguous slab of the
cloud's rows gathered once in order along its widest axis, form only
squared distances there, and take a square root and the exact compare only
where a square can reach the point's kept bound; they also carry each
point's nearest center, and a KD-tree over the centers settles only exact
ties.  Every Euclidean norm over cloud points is summed axis by axis on
per-axis rows (:func:`_column_norms`), with the bits of a row-wise norm.
A cloud's nearest-neighbor gaps are built the first time they are read
(:func:`_cloud_nn`), from the face table of a cloud from
:func:`extract_boundary` and from a KD-tree query for any other cloud.  A
:class:`Partition` keeps the segmented form plus one column entry per cell
(representative, rd, measure).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .domains import BoundaryCloud, _face_gaps
from .errors import EmptyCloudError, InvalidArgumentError, ResolutionError

__all__ = [
    "unit_ball_volume",
    "Partition",
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


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint cells covering a cloud, with representatives and measures.

    Cell g owns the cloud points ``order[bounds[g]:bounds[g + 1]]`` (integer
    arrays); its representative is point ``x_index[g]``, its half-diameter
    ``rd[g]`` and its measure ``hm_est[g]`` (one array entry per cell).
    Every member lies within ``2 * rd[g]`` of its representative.
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
        cell = np.repeat(np.arange(len(sizes)), sizes)
        owner = np.empty(len(self.order), dtype=np.intp)
        owner[self.order] = cell
        x_index = np.asarray(self.x_index)
        if not (np.issubdtype(x_index.dtype, np.integer)
                and ((0 <= x_index) & (x_index < len(owner))).all()
                and np.array_equal(owner[x_index], np.arange(len(sizes)))):
            raise InvalidArgumentError("partition representative is not a member of its cell")
        # each cell lies in its barrier's flat ball B(x_C, 2 rd(C)), by the
        # barrier rule's own distance: truncate's zero trace rests on it
        coords = self.cloud.coords
        reach = _column_norms(np.take(coords, self.order, axis=1), np.take(coords, x_index[cell], axis=1))
        if not (reach <= 2.0 * self.rd[cell]).all():
            raise InvalidArgumentError("partition member lies beyond 2 rd of its representative")

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
    """Per-point distance to the nearest other point (0 for one point), read-only.

    Built on first read and kept on the cloud: from the face table of a
    cloud from :func:`extract_boundary` (:func:`_face_gaps`, the bits of a
    KD-tree's k=2 query), else from that query.
    """
    if cloud.nn_gaps is None:
        if cloud.faces is not None:
            gaps = _face_gaps(cloud)
        elif len(cloud) >= 2:
            gaps = cKDTree(cloud.points).query(cloud.points, k=2)[0][:, 1].copy()
        else:
            gaps = np.zeros(len(cloud))
        gaps.setflags(write=False)
        object.__setattr__(cloud, "nn_gaps", gaps)
    return cloud.nn_gaps


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

    The members are gathered once, as per-axis rows, and the centroids are
    summed along them with one ``reduceat``; r and the distances behind L
    come from :func:`_column_norms`, so every value has the bits of the
    row-major gather, centroid and np.linalg.norm.
    """
    sizes = np.diff(bounds)
    starts = bounds[:-1]
    cell = np.repeat(np.arange(len(sizes)), sizes)
    cols = np.take(points.T, order, axis=1)
    centroid = np.add.reduceat(cols, starts, axis=1) / sizes
    r = _column_norms(cols, centroid[:, cell])
    big_r = np.maximum.reduceat(r, starts)
    at_max = np.flatnonzero(r == big_r[cell])
    first = at_max[np.flatnonzero(np.diff(cell[at_max], prepend=-1))]
    ell = np.maximum.reduceat(_column_norms(cols, cols[:, first[cell]]), starts)
    keep = r >= (ell - big_r - 1e-9 * big_r)[cell]
    kept = np.add.reduceat(keep.astype(np.intp), starts)
    return order[keep], np.concatenate(([0], np.cumsum(kept)))


def _cell_rds(cloud: BoundaryCloud, order: np.ndarray, bounds: np.ndarray, scale: float) -> np.ndarray:
    """Half-diameter with patch compensation of every cell ``order[bounds[g]:bounds[g + 1]]`` of the cloud.

    Every sample stands for a boundary patch whose extent is roughly its
    nearest-neighbor gap (:func:`_cloud_nn`); a cell's compensation is the
    mean gap of its members, capped at 2 sqrt(n) times the cloud's
    resolution so the cell stays feasible at the covering scale, and its rd
    is min((diameter + compensation) / 2, scale).  Cells are taken in
    buckets of one exact size: a bucket's rows of m gaps are averaged as
    each cell's own m gaps would be (padding would change numpy's pairwise
    summation).  Diameters are taken over the members
    :func:`_diameter_candidates` keeps, which hold every pair at the
    diameter, so each is the same maximum of the same pair distances, and
    :func:`_diameters` takes them per bucket.  Cells must be nonempty.
    """
    points, nn_gaps = cloud.points, _cloud_nn(cloud)
    mean_gap, diam = np.empty((2, len(bounds) - 1))
    for cells, members in _size_buckets(order, bounds):
        mean_gap[cells] = nn_gaps[members].mean(axis=1)
    for cells, members in _size_buckets(*_diameter_candidates(points, order, bounds)):
        diam[cells] = _diameters(points[members])
    comp = np.minimum(mean_gap, 2.0 * math.sqrt(cloud.dim) * cloud.resolution)
    return np.minimum(0.5 * (diam + comp), scale)


def _group_by_label(labels: np.ndarray):
    """(order, bounds) of the nonempty label groups in ascending label order.

    Group g is ``order[bounds[g]:bounds[g + 1]]``, its members ascending: one
    stable sort, with a group's members one run of the sorted labels.
    """
    order = np.argsort(labels, kind="stable")
    runs = labels[order]
    starts = np.flatnonzero(runs[1:] != runs[:-1]) + 1
    return order, np.concatenate(([0], starts, [len(labels)]))


def _box_groups(points: np.ndarray, side: float):
    """Group point indices by axis-aligned boxes of the given side length.

    Returns (order, bounds): box g holds ``order[bounds[g]:bounds[g + 1]]``;
    boxes come in lexicographic order of their integer coordinates and none
    is empty.  The anchor (the least coordinate on each axis), the box
    indices and their extents are taken along the per-axis rows
    ``points.T``, which for a cloud's points are its contiguous ``coords``.
    """
    coords = points.T
    anchor = coords.min(axis=1)
    idx = np.floor((coords - anchor[:, None]) / side).astype(np.int64)
    # C-order linear keys of the nonnegative box indices sort like the index rows
    return _group_by_label(np.ravel_multi_index(idx, tuple(idx.max(axis=1) + 1)))


def _squared_norms(cols: np.ndarray, c: np.ndarray, out=None, work=None) -> np.ndarray:
    """Squared Euclidean norms of the columns of ``cols - c`` (one row per axis).

    ``c`` broadcasts against ``cols``: one point as an (n, 1) column, or one
    point per column.  The squares are summed axis by axis, ``(dx*dx +
    dy*dy) (+ dz*dz)``, the order in which np.linalg.norm(rows, axis=1)
    sums each row.  The sums go into ``out``, and the squares of each axis
    after the first through ``work`` (one row of ``cols``), when these are
    given, so a caller's buffers serve every call and no difference array
    of the shape of ``cols`` is built.
    """
    total = np.subtract(cols[0], c[0], out=out)
    np.multiply(total, total, out=total)
    for a in range(1, len(cols)):
        sq = np.subtract(cols[a], c[a], out=work)
        np.multiply(sq, sq, out=sq)
        np.add(total, sq, out=total)
    return total


def _column_norms(cols: np.ndarray, c: np.ndarray, out=None, work=None) -> np.ndarray:
    """Euclidean norms of the columns of ``cols - c``: the square roots of
    :func:`_squared_norms`, with the bits of np.linalg.norm(rows, axis=1).

    Every norm over cloud points in this module, but the pair distances of
    :func:`_diameters`, is taken here, on per-axis rows such as
    ``np.take(points.T, index, axis=1)``, so no (N, n) gather or difference
    array is built.
    """
    s = _squared_norms(cols, c, out, work)
    return np.sqrt(s, out=s)


# a squared distance s has a square root that rounds to at most d only if
# s <= max(d*d * (1 + _SQUARE_SLACK), smallest normal) (see _fps_centers)
_SQUARE_SLACK = 1e-12
_SMALLEST_NORMAL = float(np.finfo(float).smallest_normal)


def _fps_centers(points: np.ndarray, thresholds):
    """One greedy farthest-point order, cut at each of the descending ``thresholds``.

    Returns (centers, counts, owners): the first ``counts[j]`` centers leave
    every point within ``thresholds[j]``, or ``counts[j]`` is None when that
    takes more than ``_MAX_FPS_CENTERS`` centers.  The greedy choice does
    not depend on where it stops (Gonzalez, Theor. Comput. Sci. 38 (1985)),
    so one run serves every threshold.  The run starts at the lexicographically
    smallest point, the lowest index among equal ones (the first index of
    ``np.lexsort(points.T[::-1])``), found by filtering one axis at a time.
    Every pass reads the per-axis rows ``points.T``, which for a cloud's
    points are its contiguous ``coords``.  A new center c at distance
    ``far`` can only lower (or tie) the distance of points within ``far`` of
    it.  They all lie in the slab ``|x_a - c_a| <= far`` along the cloud's
    widest axis a (the slack absorbs rounding), which is one run of columns
    of the rows gathered once in order along that axis.  Only those
    columns are updated, with distances of the bits of np.linalg.norm and
    the ``np.argmax`` tie-break of full-array updates, so the centers are
    the same.

    A slab's squared distances s go into work buffers made once per run.
    Each point keeps a bound, in slab order, ``max(d*d * (1 + 1e-12),
    smallest normal)`` with d its distance, and only rows with s at most
    their bound take a square root and the exact ``<`` / ``==`` against d.
    No row that the new center wins or ties is skipped: sqrt is correctly
    rounded, so ``fl(sqrt(s)) <= d`` gives ``s <= d*d * (1 + 2^-51)``,
    while ``fl(d*d)`` and its product with ``1 + 1e-12`` each lose at most
    a factor ``1 - 2^-53``, which leaves the bound above that.  Where d*d
    falls below the smallest normal these relative bounds fail, but there
    ``d < 2^-511``, and every s whose root rounds to at most d is below the
    smallest normal too.  Each candidate's bound is then remade from its
    own s: for a row the center won or tied, ``fl(sqrt(s))`` is its new d
    and the same argument holds with s for d*d; for any other candidate
    ``fl(sqrt(s)) > d``, so every square whose root rounds to at most d is
    below s.

    The updates also carry each point's owner, the position in ``centers``
    of the first center at its least distance, and the last center that
    tied that distance.  ``owners[j]`` is the snapshot (owner, tied) at cut
    j, with ``tied`` the ascending indices of the points tied after their
    owner, or None where ``counts[j]`` is.  The distances are the square
    roots of a KD-tree's squared distances, so an untied owner is the
    tree's nearest center and every tie in the tree's distances is among
    ``tied``.
    """
    coords = points.T
    # deterministic start: the lexicographically smallest point, lowest index among equals
    first = np.flatnonzero(coords[0] == coords[0].min())
    for row in coords[1:]:
        x = row[first]
        first = first[x == x.min()]
    start = int(first[0])
    centers = [start]
    counts, owners = [], []
    dist = _column_norms(coords, coords[:, start, None])
    owner = np.zeros(len(points), dtype=np.intp)
    tied_at = np.full(len(points), -1, dtype=np.intp)  # -1: tied by no center
    axis = int(np.argmax(np.ptp(coords, axis=1)))
    by_axis = np.argsort(coords[axis], kind="stable")
    cols = np.take(coords, by_axis, axis=1)  # the rows, in order along the axis
    key = cols[axis]
    bound = np.maximum(np.square(dist[by_axis]) * (1.0 + _SQUARE_SLACK), _SMALLEST_NORMAL)
    sq, work = np.empty((2, len(points)))
    near = np.empty(len(points), dtype=bool)
    while True:
        nxt = int(dist.argmax())  # methods, not np.* wrappers: about 1 us less per center
        far = float(dist[nxt])
        while not far > thresholds[len(counts)]:
            counts.append(len(centers))
            owners.append((owner.copy(), np.flatnonzero(tied_at > owner)))
            if len(counts) == len(thresholds):
                return np.asarray(centers, dtype=np.int64), counts, owners
        if len(centers) >= _MAX_FPS_CENTERS:
            missing = [None] * (len(thresholds) - len(counts))
            return np.asarray(centers, dtype=np.int64), counts + missing, owners + missing
        c = coords[:, nxt, None]
        reach = far * (1.0 + 1e-9)
        # the rows with c_a - reach <= x_a <= c_a + reach
        ca = float(coords[axis, nxt])
        lo, hi = key.searchsorted((ca - reach, math.nextafter(ca + reach, math.inf))).tolist()
        m = hi - lo
        s = _squared_norms(cols[:, lo:hi], c, sq[:m], work[:m])
        slab_bound = bound[lo:hi]  # a view: writes to it land in bound
        cand = np.less_equal(s, slab_bound, out=near[:m]).nonzero()[0]
        s = s[cand]
        pts = by_axis[lo:hi][cand]
        d = np.sqrt(s)
        old = dist[pts]
        won = d < old
        gained = pts[won]
        dist[gained] = d[won]
        owner[gained] = len(centers)
        tie = d == old
        if np.count_nonzero(tie):
            tied_at[pts[tie]] = len(centers)
        s *= 1.0 + _SQUARE_SLACK
        slab_bound[cand] = np.maximum(s, _SMALLEST_NORMAL, out=s)
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
    return _group_by_label(owner)


@dataclass(frozen=True)
class HmEstimate:
    value: float
    d: float
    delta: float
    method: str
    n_cells: int
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
    scales = [delta]
    while scales[-1] / 2.0 >= _CASCADE_FLOOR * cloud.resolution:
        scales.append(scales[-1] / 2.0)
    centers, counts, owners = _fps_centers(pts, scales)
    best = None
    for scale, count, cut in zip(scales, counts, owners):
        order, bounds = _box_groups(pts, scale / math.sqrt(cloud.dim))
        cand = [("boxes", order, bounds)]
        if count is not None:
            cand.append(("balls", *_ball_groups(pts, centers[:count], *cut)))
        for kind, order, bounds in cand:
            rds = _cell_rds(cloud, order, bounds, scale)
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

    Every member lies within 2 * rd of its representative, as
    :class:`Partition` requires: that distance, taken by the same formula,
    is one of the pair distances whose maximum is the cell's diameter (the
    candidate pruning keeps that maximum exactly), so it is at most diam;
    and 2 * rd is diam + comp >= diam, or 2 * delta when capped, while a
    box of side delta/sqrt(n) has diagonal delta.
    """
    _check_finite(d, delta)
    if len(cloud) == 0:
        raise EmptyCloudError("cannot partition an empty cloud")
    if delta < 4 * cloud.resolution:
        raise ResolutionError(
            f"delta {delta} must be at least 4 times the resolution {cloud.resolution}"
        )
    pts = cloud.points
    order, bounds = _box_groups(pts, delta / math.sqrt(cloud.dim))
    rds = _cell_rds(cloud, order, bounds, delta)
    centroid = np.empty((len(rds), cloud.dim))
    hm_est = np.empty(len(rds))
    for cells, members in _size_buckets(order, bounds):
        centroid[cells] = pts[members].mean(axis=1)
        hm_est[cells] = cloud.weights[members].sum(axis=1)
    cell = np.repeat(np.arange(len(rds)), np.diff(bounds))
    cols = np.take(cloud.coords, order, axis=1)
    dist = _column_norms(cols, np.take(centroid.T, cell, axis=1))
    first = np.lexsort((*cols[::-1], dist, cell))[bounds[:-1]]
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
